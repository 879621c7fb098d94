"""Dense numeric kernels and a finite-difference gradient-checking oracle.

All math in this package runs at double precision; parameters live in flat
dicts mapping a path string (e.g. ``"enc.0.f.Wx"``) to a float64 ndarray.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping

import numpy as np

from .errors import ContractError, UsageError

Params = dict[str, np.ndarray]

REL_ERR_FLOOR = 1e-12
FD_STEP = 1e-5       # central-difference step of grad_check


def softmax(v: np.ndarray) -> np.ndarray:
    """Numerically stable last-axis softmax (max-subtracted before exponentiation)."""
    v = np.asarray(v, dtype=np.float64)
    if v.size == 0:
        raise UsageError("softmax of an empty vector is undefined")
    if not np.all(np.isfinite(v)):
        raise UsageError("softmax requires finite inputs")
    shifted = v - np.max(v, axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / np.sum(e, axis=-1, keepdims=True)


def softmax_grad(upstream: np.ndarray, probs: np.ndarray) -> np.ndarray:
    """Backprop through the last-axis softmax given its output ``probs``."""
    dot = np.sum(upstream * probs, axis=-1, keepdims=True)
    return probs * (upstream - dot)


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
