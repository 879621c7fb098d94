"""Composition of the capsule core and the speaker head into one trainable
model: parameter initialization, loss + gradient evaluation over a batch of
utterances, and prediction.

Utterances are (frames, feat_dim) matrices of any lengths. ``loss_and_grads``
and ``evaluate`` take a list of them and run it as zero-padded,
length-masked time-major batches (``encoder.pad_batch``); ``predict``
decodes one utterance as a batch of one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

import numpy as np

from . import capsnet, encoder, multitask
from .capsnet import ModelConfig, OutputCapsuleSet
from .errors import DataError, DivergenceError
from .multitask import LossBreakdown
from .numeric import Params

if TYPE_CHECKING:
    from .datasets import LabelVocabulary, Utterance


def init_params(config: ModelConfig) -> Params:
    """Draw all parameters in a fixed order from one RNG stream, seeded by
    the config seed.

    The speaker head is always initialized, even when speaker_weight is zero,
    so a run with the head disabled consumes the identical RNG sequence and
    stays bit-compatible with a multitask run of the same seed.
    """
    rng = np.random.default_rng(np.random.SeedSequence([config.seed, 0]))
    params = capsnet.init_core_params(config, rng)
    params.update(multitask.init_head_params(rng, config.output_dim, config.speaker_count))
    return params


def param_shapes(config: ModelConfig) -> dict[str, tuple[int, ...]]:
    """Name and shape of every parameter ``init_params`` draws, derived from
    the config alone (no RNG draws); checkpoints are validated against it."""
    hidden = config.encoder_hidden
    shapes: dict[str, tuple[int, ...]] = {}
    in_dim = config.feat_dim
    for layer in range(config.encoder_layers):
        for direction in ("f", "b"):
            prefix = f"enc.{layer}.{direction}."
            shapes[prefix + "Wx"] = (in_dim, 3 * hidden)
            shapes[prefix + "Wh"] = (hidden, 3 * hidden)
            shapes[prefix + "b"] = (3 * hidden,)
        in_dim = 2 * hidden
    proj_out = config.num_primary * config.primary_dim
    shapes["proj.W"] = (2 * hidden, proj_out)
    shapes["proj.b"] = (proj_out,)
    shapes["caps.W"] = (config.num_primary, config.num_labels, config.primary_dim,
                        config.output_dim)
    shapes["spk.W"] = (config.output_dim, config.speaker_count)
    shapes["spk.b"] = (config.speaker_count,)
    return shapes


@dataclass
class EvalOutput:
    capsules: OutputCapsuleSet    # (B, K, n)
    speaker_probs: np.ndarray     # (B, M)


def evaluate(feats: Sequence[np.ndarray], params: Params, config: ModelConfig) -> EvalOutput:
    """Inference-only forward pass of B (frames, feat_dim) utterances as one
    padded batch: the same forward as training; its trace is dropped.

    Non-finite features raise DataError: they are bad input, not a
    diverged model.
    """
    xs, lengths = encoder.pad_batch(feats)
    if not np.all(np.isfinite(xs)):
        raise DataError("features contain non-finite values")
    caps, _ = capsnet.forward(xs, params, config, lengths)
    probs = multitask.speaker_distribution(multitask.average_capsule(caps), params)
    return EvalOutput(capsules=caps, speaker_probs=probs)


# Utterances go through the model in slices of at most this many, and the
# slices' gradients are summed: the votes and their routing temporaries grow
# with the slice. At the grid configuration (bench/NOTES.md), a train run fed
# whole 32-utterance batches peaked at 88.5 MB resident against 82.2 MB for
# per-utterance training; slices of 16 peak at 81.9 MB.
_SLICE = 16


def loss_and_grads(feats, target, speaker_index, params: Params, config: ModelConfig,
                   force_speaker_path: bool = False):
    """Losses and the gradient of every parameter for B utterances of any
    lengths, with (B, K) targets and B speaker indices. Returns
    (LossBreakdown of (B,) losses, gradients summed over the utterances).

    With speaker_weight == 0 the speaker path is skipped entirely (the
    baseline model); ``force_speaker_path`` evaluates it anyway, which must
    produce bit-identical label-path gradients since the head contribution
    scales by exactly 0.0.

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
                                               speaker_index[start:stop], params, config,
                                               force_speaker_path)
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
                                for name in ("label_loss", "speaker_loss", "total")))
    return breakdown, grads


def _loss_and_grads(xs, lengths, target, speaker_index, params, config, force_speaker_path):
    """loss_and_grads of one padded slice."""
    caps, trace = capsnet.forward(xs, params, config, lengths)
    label_loss = capsnet.margin_loss(caps, target, config)
    use_head = config.speaker_weight != 0.0 or force_speaker_path
    if use_head:
        spk_loss, head_trace = multitask.head_forward(caps, params, speaker_index)
    else:
        spk_loss = np.zeros_like(label_loss)
    breakdown = multitask.total_loss(label_loss, spk_loss, config.speaker_weight)
    finite = np.isfinite(breakdown.total)
    if not np.all(finite):
        raise DivergenceError("non-finite loss", index=int(np.argmin(finite)))

    d_caps = capsnet.margin_loss_grad(caps, target, config)
    if use_head:
        head_grads, d_caps_head = multitask.head_backward(
            head_trace, speaker_index, config.speaker_weight, params
        )
        d_caps = d_caps + d_caps_head
    grads = capsnet.backward(trace, d_caps, params)
    if use_head:
        grads.update(head_grads)
    else:
        grads["spk.W"] = np.zeros_like(params["spk.W"])
        grads["spk.b"] = np.zeros_like(params["spk.b"])
    if not config.speaker_bias:
        grads["spk.b"] = np.zeros_like(params["spk.b"])
    return breakdown, grads


def predict(feats: np.ndarray, params: Params, config: ModelConfig,
            vocab: "LabelVocabulary"):
    """Decode the label set and the most probable speaker of one
    (frames, feat_dim) utterance, as a batch of one."""
    out = evaluate([feats], params, config)
    labels, = capsnet.decode_labels(out.capsules, vocab)
    speaker, = multitask.decode_speaker(out.speaker_probs)
    return labels, speaker
