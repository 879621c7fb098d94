"""A fixed reference computation that measures how fast the host is right now.

The speed of this host changes by 1.3-2x over seconds to minutes (another
tenant's load; see NOTES.md), so raw wall times from runs minutes apart do
not compare. The benchmark times this kernel next to every unit of work and
every batch of ``predict`` calls, and reports times scaled to a host on
which the kernel takes ``NOMINAL_S``. The kernel is shaped like the model's
work: a 32-wide recurrent step loop in small NumPy operations, and the
capsule-vote einsums of the grid configuration. It never changes with the
program, so a slower program still reads slower.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

NOMINAL_S = 0.020
_RNG = np.random.default_rng(0)
_W = _RNG.normal(size=(32, 32)) * 0.1
_VOTES_W = _RNG.normal(size=(64, 33, 8, 8))
_PRIMARY = _RNG.normal(size=(64, 8))


def reference_seconds() -> float:
    """Wall time of one run of the reference kernel."""
    start = perf_counter()
    h = np.zeros(32)
    for _ in range(750):
        h = np.tanh(h @ _W + 1.0)
    for _ in range(15):
        votes = np.einsum("pkdn,pd->pkn", _VOTES_W, _PRIMARY)
        np.einsum("pkn,pd->pkdn", votes, _PRIMARY)
    return perf_counter() - start


def scale(seconds: float, reference: float) -> float:
    """``seconds`` measured while the kernel took ``reference``, as it would
    read on a host where the kernel takes NOMINAL_S."""
    return seconds * NOMINAL_S / reference
