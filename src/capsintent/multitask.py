"""Speaker-identification head regularising the output-capsule orientations.

The head averages the output capsules into a single vector
z = sum_k v_k / sum_k |v_k|, projects it through an n x M matrix plus a
bias and a softmax to per-speaker probabilities, and scores the
true speaker with cross entropy. The total training objective is
label_loss + speaker_weight * speaker_loss. Like the capsule core, every
function takes a batch of B utterances (one utterance is a batch of one)
along a leading batch axis: (B, K, n) output capsules, (B, n) average
capsules and (B, M) speaker probabilities.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .capsnet import NORM_GUARD, capsule_norms
from .errors import ShapeError
from .numeric import Params, softmax

PROB_FLOOR = 1e-12


@dataclass
class LossBreakdown:
    """The label, speaker and weighted total loss: (B,) arrays of the
    utterances of a batch, or floats (the epoch means of ``fit`` history)."""

    label_loss: np.ndarray
    speaker_loss: np.ndarray
    total_loss: np.ndarray


@dataclass
class HeadTrace:
    capsules: np.ndarray          # (B, K, n)
    average: np.ndarray           # (B, n)
    probs: np.ndarray             # (B, M)


# The average capsule has norm <= 1, so unit-bound weights keep initial
# logits well under softmax saturation while giving the head a usable
# gradient from the first step.
SPEAKER_INIT_BOUND = 1.0


def init_head_params(rng: np.random.Generator, output_dim: int, speaker_count: int) -> Params:
    return {
        "spk.W": rng.uniform(-SPEAKER_INIT_BOUND, SPEAKER_INIT_BOUND,
                             size=(output_dim, speaker_count)),
        "spk.b": np.zeros(speaker_count),
    }


def _norm_total(norms: np.ndarray):
    """Sum of each row of (B, K) capsule norms, 1 where they are all zero,
    and that all-zero flag: (B,) arrays."""
    total = np.add.reduce(norms, axis=-1)
    degenerate = total <= 0.0
    return np.where(degenerate, 1.0, total), degenerate


def average_capsule(caps: np.ndarray) -> np.ndarray:
    """Norm-weighted mean of (B, K, n) output capsules: sum(v) / sum(|v|),
    a (B, n) array.

    All-zero capsules make the ratio undefined; that case returns the zero
    vector instead of raising.
    """
    total, degenerate = _norm_total(capsule_norms(caps))
    vector = np.add.reduce(caps, axis=-2) / total[..., None]
    return np.where(degenerate[..., None], 0.0, vector)


def speaker_distribution(avg: np.ndarray, params: Params) -> np.ndarray:
    """Per-speaker probabilities (B, M): softmax over the linear projection
    of the (B, n) average capsules."""
    w = params["spk.W"]
    if avg.shape[-1] != w.shape[0]:
        raise ShapeError(f"average capsule dim {avg.shape[-1]} "
                         f"!= projection rows {w.shape[0]}")
    logits = avg @ w + params["spk.b"]
    return softmax(logits)


def speaker_loss(probs: np.ndarray, speaker_index) -> np.ndarray:
    """Cross entropy of (B, M) probabilities against the B true speakers:
    -log P[speaker], a (B,) array."""
    index = np.asarray(speaker_index)
    if ((index < 0) | (index >= probs.shape[-1])).any():
        raise ShapeError(f"speaker index {speaker_index} out of range {probs.shape[-1]}")
    p = np.take_along_axis(probs, index[..., None], axis=-1)[..., 0]
    return -np.log(np.maximum(p, PROB_FLOOR))


def total_loss(label_loss, spk_loss, speaker_weight: float) -> LossBreakdown:
    """Weighted sum of the two objectives."""
    return LossBreakdown(
        label_loss=label_loss,
        speaker_loss=spk_loss,
        total_loss=label_loss + speaker_weight * spk_loss,
    )


def decode_speaker(probs: np.ndarray) -> list[int]:
    """Most probable speaker of every row of (B, M) probabilities; ties
    resolve to the lowest index."""
    return probs.argmax(axis=-1).tolist()


def head_forward(caps: np.ndarray, params: Params, speaker_index):
    """Run the full head on (B, K, n) output capsules; returns ((B,)
    losses, trace for head_backward)."""
    avg = average_capsule(caps)
    probs = speaker_distribution(avg, params)
    loss = speaker_loss(probs, speaker_index)
    return loss, HeadTrace(capsules=caps, average=avg, probs=probs)


def head_backward(trace: HeadTrace, speaker_index, speaker_weight: float, params: Params):
    """Gradients of speaker_weight * speaker_loss.

    Returns (head param grads summed over the batch, gradient on the output
    capsule vectors). The capsule gradient applies the quotient rule of the
    average: d z / d v_k goes through both sum(v) and sum(|v|). A degenerate
    average (all-zero capsules) contributes zero gradient everywhere.
    """
    norms = capsule_norms(trace.capsules)
    total, degenerate = _norm_total(norms)
    M = trace.probs.shape[-1]
    onehot = np.arange(M) == np.asarray(speaker_index)[..., None]
    d_logits = speaker_weight * (trace.probs - onehot)
    d_logits = np.where(degenerate[..., None], 0.0, d_logits)
    z = trace.average
    grads = {"spk.W": z.T @ d_logits, "spk.b": d_logits.sum(axis=0)}
    d_z = d_logits @ params["spk.W"].T
    unit = trace.capsules / (norms[..., None] + NORM_GUARD)
    d_caps = d_z[..., None, :] - np.add.reduce(d_z * z, axis=-1)[..., None, None] * unit
    return grads, d_caps / total[..., None, None]
