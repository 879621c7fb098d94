"""Dense numeric kernels and a finite-difference gradient-checking oracle.

All math in this package runs at double precision; parameters live in flat
dicts mapping a path string (e.g. ``"enc.0.Wx"``) to a float64 ndarray.

Code that runs on every ``predict`` or training step calls ufuncs and their
reductions directly (``np.add.reduce``, ``np.maximum.reduce``,
``ndarray.all``, ``np.sqrt(np.add.reduce(x * x))`` for a vector norm) rather
than the ``np.sum``, ``np.max``, ``np.all`` and ``np.linalg.norm`` wrappers,
and passes ``out`` positionally: at a batch of one the arrays are small
enough that the wrappers' argument handling, 1-2.5 us a call, rivals the
arithmetic. The reductions underneath are the same, so the results are
bit for bit those of the wrappers.

Importing the package pins glibc's malloc thresholds once
(``_pin_malloc_thresholds``): arrays under 32 MiB come from the heap, and
the heap top goes back to the kernel only once 64 MiB of it is free. With
glibc's defaults, large arrays are ``mmap``ed and the heap top is trimmed
after each training step, so each ``loss_and_grads`` call on a
32-utterance batch at the grid configuration took 1350-2170 minor page
faults to get back the temporaries the step before had freed; with the
thresholds pinned it takes 0 or 1. The arithmetic is untouched, so every
result is bit for bit the same.
"""

from __future__ import annotations

import ctypes
from dataclasses import dataclass
from typing import Callable, Mapping

import numpy as np

from .errors import ContractError, UsageError

Params = dict[str, np.ndarray]

REL_ERR_FLOOR = 1e-12
FD_STEP = 1e-5       # central-difference step of grad_check

# mallopt(3) parameters and the values pinned: 32 MiB is the ceiling glibc's
# own dynamic mmap threshold can reach on 64-bit hosts, and its dynamic
# trim threshold is twice the mmap threshold
M_TRIM_THRESHOLD, M_MMAP_THRESHOLD = -1, -3
MMAP_THRESHOLD = 32 << 20
TRIM_THRESHOLD = 64 << 20


def _pin_malloc_thresholds() -> bool:
    """Set glibc's mmap threshold, then its trim threshold, through
    ``mallopt``; True when both calls succeeded. Setting either one turns
    off glibc's dynamic adjustment of both, and a trim threshold alone
    would leave every array of 128 KiB or more on ``mmap``, so the trim
    threshold is set only once the mmap threshold is. Where there is no
    ``mallopt`` (no glibc) or it refuses a value (returns 0), nothing more
    is done."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, TypeError, AttributeError):   # TypeError: Windows has no CDLL(None)
        return False
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    return (mallopt(M_MMAP_THRESHOLD, MMAP_THRESHOLD) == 1
            and mallopt(M_TRIM_THRESHOLD, TRIM_THRESHOLD) == 1)


_pin_malloc_thresholds()


def softmax(v: np.ndarray, axis: int = -1) -> np.ndarray:
    """Numerically stable softmax along ``axis`` (max-subtracted before exponentiation)."""
    v = np.asarray(v, dtype=np.float64)
    if v.size == 0:
        raise UsageError("softmax of an empty vector is undefined")
    if not np.isfinite(v).all():
        raise UsageError("softmax requires finite inputs")
    # in place: a fresh routing-sized array raises every predict's peak memory
    e = v - np.maximum.reduce(v, axis=axis, keepdims=True)
    np.exp(e, e)
    e /= np.add.reduce(e, axis=axis, keepdims=True)
    return e


def softmax_grad(upstream: np.ndarray, probs: np.ndarray, axis: int = -1) -> np.ndarray:
    """Backprop through the softmax along ``axis`` given its output ``probs``."""
    return (upstream - np.add.reduce(upstream * probs, axis=axis, keepdims=True)) * probs


@dataclass
class GradCheckReport:
    """Outcome of comparing analytic gradients against central differences."""

    max_relative_error: float
    worst_parameter_path: str
    num_params_checked: int


def grad_check(
    loss_fn: Callable[[Params], float],
    analytic_grads: Callable[[Params], Mapping[str, np.ndarray]],
    params: Params,
) -> GradCheckReport:
    """Check analytic gradients of a scalar loss against central differences.

    Every scalar entry of every parameter tensor is perturbed by ``+FD_STEP``
    and ``-FD_STEP``; the numeric derivative (f+ - f-) / (2*FD_STEP) is compared
    to the analytic one with relative error |a - n| / max(|a| + |n|, 1e-12).

    ``loss_fn`` must be deterministic: it is evaluated twice up front and a
    ContractError is raised if the two values differ.
    """
    work = {k: np.array(v, dtype=np.float64) for k, v in params.items()}

    first, second = loss_fn(work), loss_fn(work)
    if first != second:
        raise ContractError(
            f"loss_fn is not deterministic: {first!r} != {second!r}"
        )

    grads = analytic_grads(work)
    max_err = 0.0
    worst = ""
    checked = 0
    for name in sorted(work):
        tensor = work[name]
        grad = np.asarray(grads[name], dtype=np.float64)
        if grad.shape != tensor.shape:
            raise ContractError(
                f"gradient shape {grad.shape} != parameter shape {tensor.shape} for {name!r}"
            )
        flat = tensor.reshape(-1)
        gflat = grad.reshape(-1)
        for idx in range(flat.size):
            orig = flat[idx]
            flat[idx] = orig + FD_STEP
            f_plus = loss_fn(work)
            flat[idx] = orig - FD_STEP
            f_minus = loss_fn(work)
            flat[idx] = orig
            numeric = (f_plus - f_minus) / (2.0 * FD_STEP)
            analytic = gflat[idx]
            err = abs(analytic - numeric) / max(abs(analytic) + abs(numeric), REL_ERR_FLOOR)
            checked += 1
            if err > max_err:
                max_err = err
                worst = f"{name}[{idx}]"
    return GradCheckReport(
        max_relative_error=max_err,
        worst_parameter_path=worst,
        num_params_checked=checked,
    )
