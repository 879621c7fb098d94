"""Composition of the capsule core and the speaker head into one trainable
model: parameter initialization, loss + gradient evaluation over a batch of
utterances, and prediction.

Utterances are (frames, feat_dim) matrices of any lengths. ``loss_and_grads``
and ``evaluate`` take a list of them and run it as zero-padded time-major
batches with their lengths (``encoder.pad_batch``); ``decode`` decodes
them slice by slice, and ``predict`` one utterance as a batch of one.

The objective is label loss + speaker_weight * speaker loss, and the speaker
head runs at every weight. At weight 0, the paper's baseline, its gradients
are exactly zero: the head stays frozen at its initial parameters and the
speaker loss it reports is that frozen head's cross entropy.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

import numpy as np

from . import capsnet, encoder, multitask
from .capsnet import ModelConfig
from .errors import DataError, DivergenceError
from .multitask import LossBreakdown
from .numeric import Params

if TYPE_CHECKING:
    from .datasets import LabelVocabulary, Utterance


def init_params(config: ModelConfig) -> Params:
    """Draw all parameters in a fixed order from one RNG stream, seeded by
    the config seed.

    The speaker head is initialized at every speaker_weight, so runs that
    differ only in the weight start from identical parameters.
    """
    return _init_from(config, np.random.default_rng(np.random.SeedSequence([config.seed, 0])))


class _Undrawn:
    """A generator stand-in whose every draw is an uninitialized array of
    the requested size, so the init functions give shapes without drawing."""

    def uniform(self, low, high, size):
        return np.empty(size)

    normal = uniform


def param_shapes(config: ModelConfig) -> dict[str, tuple]:
    """The name and shape of every parameter ``init_params`` draws, found
    by running the same init functions without drawing."""
    return {name: value.shape for name, value in _init_from(config, _Undrawn()).items()}


def _init_from(config: ModelConfig, rng) -> Params:
    params = capsnet.init_core_params(config, rng)
    params.update(multitask.init_head_params(rng, config.output_dim, config.speaker_count))
    return params


def evaluate(feats: Sequence[np.ndarray], params: Params, config: ModelConfig):
    """Inference-only forward pass of B (frames, feat_dim) utterances as one
    padded batch: the same forward as training; its trace is dropped.
    Returns the (B, K, n) output capsules and (B, M) speaker probabilities.

    Non-finite features raise DataError: they are bad input, not a
    diverged model.
    """
    xs, lengths = encoder.pad_batch(feats)
    if not np.isfinite(xs).all():
        raise DataError("features contain non-finite values")
    caps, _ = capsnet.forward(xs, params, config, lengths)
    return caps, multitask.speaker_distribution(multitask.average_capsule(caps), params)


# Utterances go through the model in slices of at most this many: training
# sums the slices' gradients, decoding holds one slice's outputs at a time.
# The votes and their routing temporaries grow with the slice: in the train
# workload at the grid configuration (bench/NOTES.md, corpus seed 3, pinned
# malloc thresholds), whole 32-utterance batches peak at 94.2 MB resident and
# single utterances at 83.7 MB; slices of 16 peak at 85.0 MB.
_SLICE = 16


def loss_and_grads(feats, target, speaker_index, params: Params, config: ModelConfig):
    """Losses and the gradient of every parameter for B utterances of any
    lengths, with (B, K) targets and B speaker indices. Returns
    (LossBreakdown of (B,) losses, gradients summed over the utterances).

    The speaker head runs at every weight and its gradients scale by
    speaker_weight, so at weight 0 they are exactly zero while the reported
    speaker loss is still the head's cross entropy.

    Raises DivergenceError, whose ``index`` is the batch position of the
    first utterance with a non-finite loss.
    """
    target = np.asarray(target, dtype=np.float64)
    speaker_index = np.asarray(speaker_index)
    parts, grads = [], None
    # an empty batch still reaches pad_batch, which rejects it
    for start in range(0, len(feats) or 1, _SLICE):
        stop = start + _SLICE
        xs, lengths = encoder.pad_batch(feats[start:stop])
        try:
            part, part_grads = _loss_and_grads(xs, lengths, target[start:stop],
                                               speaker_index[start:stop], params, config)
        except DivergenceError as exc:
            exc.index += start
            raise
        parts.append(part)
        if grads is None:
            grads = part_grads
        else:
            for key in grads:
                grads[key] += part_grads[key]
    breakdown = LossBreakdown(*(np.concatenate([getattr(p, name) for p in parts])
                                for name in ("label_loss", "speaker_loss", "total_loss")))
    return breakdown, grads


def _loss_and_grads(xs, lengths, target, speaker_index, params, config):
    """loss_and_grads of one padded slice."""
    caps, trace = capsnet.forward(xs, params, config, lengths)
    label_loss = capsnet.margin_loss(caps, target)
    spk_loss, head_trace = multitask.head_forward(caps, params, speaker_index)
    breakdown = multitask.total_loss(label_loss, spk_loss, config.speaker_weight)
    finite = np.isfinite(breakdown.total_loss)
    if not finite.all():
        raise DivergenceError("non-finite loss", index=int(np.argmin(finite)))

    head_grads, d_caps_head = multitask.head_backward(
        head_trace, speaker_index, config.speaker_weight, params
    )
    grads = capsnet.backward(trace, capsnet.margin_loss_grad(caps, target) + d_caps_head, params)
    grads.update(head_grads)
    return breakdown, grads


def decode(feats: Sequence[np.ndarray], params: Params, config: ModelConfig,
           vocab: "LabelVocabulary"):
    """Label sets and most probable speakers of a list of (frames, feat_dim)
    utterances, run through ``evaluate`` and decoded slice by slice: the
    package's one decoding loop, behind ``predict``, evaluation, curves,
    replication and ``eval``."""
    label_sets, speakers = [], []
    for start in range(0, len(feats), _SLICE):
        caps, probs = evaluate(feats[start:start + _SLICE], params, config)
        label_sets += capsnet.decode_labels(caps, vocab)
        speakers += multitask.decode_speaker(probs)
    return label_sets, speakers


def predict(feats: np.ndarray, params: Params, config: ModelConfig,
            vocab: "LabelVocabulary"):
    """Decode the label set and the most probable speaker of one
    (frames, feat_dim) utterance, as a batch of one."""
    (labels,), (speaker,) = decode([feats], params, config, vocab)
    return labels, speaker
