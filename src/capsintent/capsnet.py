"""Capsule network core: encoder readout -> primary capsules -> dynamic
routing -> output capsules, with margin loss, norm-based label decoding, and
analytic backward passes for every stage.

Shapes use P primary capsules of dimension d_p, K output capsules (one per
task label) of dimension n, and per-pair transform matrices stored as a
(P, d_p, K, n) tensor: ``transforms[i, :, j]`` is the (d_p, n) matrix of
pair (i, j), and each primary capsule's K matrices read as one (d_p, K*n)
matrix. ``votes[i, j]`` is primary capsule i's prediction of output
capsule j.

Every stage takes a batch of B utterances (one utterance is a batch of
one): the batch axis follows the primary-capsule axis of primary capsules
(P, B, d_p) and votes (P, B, K, n), and leads everywhere else (output
capsules (B, K, n), losses (B,)). Routing treats each utterance
independently, so a batch gives the same numbers as its utterances one by
one; parameter gradients are summed over the batch. Stages that read the
output capsules' lengths take the norms of the (B, K, n) array themselves.

Routing reads the stored votes in place as B*K (P, n) matrices, one per
(utterance, output capsule) pair, and holds its logits and coefficients
(B, K, P), so each pair's coefficients are one contiguous row: every
pooling and every agreement is one batched matrix product over the pairs,
and the vote gradient is written into a C-contiguous (P, B, K, n) array.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from . import encoder as enc
from .errors import ContractError, DivergenceError, ShapeError, UsageError, check_types
from .numeric import Params, softmax, softmax_grad

if TYPE_CHECKING:
    from .datasets import LabelVocabulary

NORM_GUARD = 1e-12

# margin-loss hinge points (Sabour et al. 2017): a present label's capsule
# should be longer than the first, an absent label's shorter than the second
MARGIN_PRESENT = 0.9
MARGIN_ABSENT = 0.1

INT64_MAX = int(np.iinfo(np.int64).max)
MAX_ARRAY_VALUES = INT64_MAX // 8   # the most float64 values one NumPy array holds


@dataclass
class ModelConfig:
    """Architecture and objective settings for one model instance."""

    feat_dim: int
    num_labels: int            # K: one output capsule per task label
    speaker_count: int         # M
    encoder_hidden: int = 128
    encoder_layers: int = 2
    num_primary: int = 64      # P
    primary_dim: int = 8       # d_p
    output_dim: int = 8        # n
    routing_iters: int = 3
    speaker_weight: float = 1.0
    seed: int = 0

    def __post_init__(self):
        """Fields must conform to their annotations, speaker_weight be finite
        and >= 0, seed >= 0 (UsageError); counts >= 1, output_dim >= 2, and
        every count and output_dim within int64, which NumPy computes sizes
        in (ShapeError)."""
        check_types(vars(self), ModelConfig, "")
        try:
            finite = math.isfinite(self.speaker_weight)
        except OverflowError:   # an int too large for a float
            raise UsageError("speaker_weight must be finite and >= 0, got an integer too "
                             "large for a float") from None
        if not (finite and self.speaker_weight >= 0):
            raise UsageError(f"speaker_weight must be finite and >= 0, got {self.speaker_weight}")
        if self.seed < 0:
            raise UsageError(f"seed must be >= 0, got {self.seed}")
        for name in ("feat_dim", "num_labels", "speaker_count", "encoder_hidden",
                     "encoder_layers", "num_primary", "primary_dim", "routing_iters",
                     "output_dim"):
            value, least = getattr(self, name), 2 if name == "output_dim" else 1
            if value < least:
                raise ShapeError(f"{name} must be >= {least}, got {value}")
            if value > INT64_MAX:
                raise ShapeError(f"{name} must be <= {INT64_MAX}, got {value}")


@dataclass
class RoutingTrace:
    votes: np.ndarray                                             # (P, B, K, n)
    # per iteration: (B, K, P) coefficients, coeff[b, j, i] coupling primary
    # capsule i to output j in utterance b (summing to 1 over j)
    coefficients: list[np.ndarray] = field(default_factory=list)
    pooled: list[np.ndarray] = field(default_factory=list)        # (B, K, n) pre-squash s
    outputs: list[np.ndarray] = field(default_factory=list)       # (B, K, n) post-squash v


@dataclass
class ForwardTrace:
    """Every intermediate needed to replay the forward pass; ``encode`` returns the first three."""

    encoder_cache: dict
    readout: np.ndarray           # (B, 2H)
    primary_pre: np.ndarray       # (B, P, d_p) pre-squash
    primary: np.ndarray           # (P, B, d_p) post-squash, each norm < 1
    routing: RoutingTrace         # holds the votes and, last, the output capsules


def squash(s: np.ndarray) -> np.ndarray:
    """Norm-compressing nonlinearity over the last axis: s -> (|s|^2/(1+|s|^2)) * s/|s|.

    Output is parallel to the input with norm in [0, 1); the zero vector maps
    to exactly zero (computed as s * |s|/(1+|s|^2), so no division occurs).
    """
    s = np.asarray(s, dtype=np.float64)
    sq = np.add.reduce(s * s, axis=-1, keepdims=True)
    return s * (np.sqrt(sq) / (1.0 + sq))


def squash_grad(upstream: np.ndarray, s: np.ndarray) -> np.ndarray:
    """Backprop through squash given the pre-squash input ``s``."""
    sq = np.add.reduce(s * s, axis=-1, keepdims=True)
    nrm = np.sqrt(sq)
    scale = nrm / (1.0 + sq)
    proj = np.add.reduce(upstream * s, axis=-1, keepdims=True)
    radial = (1.0 - sq) / ((1.0 + sq) ** 2 * (nrm + NORM_GUARD))
    return upstream * scale + s * (proj * radial)


def capsule_norms(caps: np.ndarray) -> np.ndarray:
    """The lengths of capsules along the last axis: ``np.linalg.norm(caps,
    axis=-1)`` bit for bit, without the wrapper's cost."""
    return np.sqrt(np.add.reduce(caps * caps, axis=-1))


def predict_capsules(primary: np.ndarray, transforms: np.ndarray) -> np.ndarray:
    """Per-pair linear predictions: votes[i, b, j, :] = transforms[i, :, j].T @ u_ib.

    Primary capsules (P, B, d_p) give votes (P, B, K, n): one matrix product
    per primary capsule over the whole batch, with the (P, d_p, K, n)
    transforms read in place as P (d_p, K*n) matrices.
    """
    if transforms.ndim != 4 or primary.ndim != 3 or transforms.shape[0] != primary.shape[0] \
            or transforms.shape[1] != primary.shape[-1]:
        raise ShapeError(
            f"transforms {transforms.shape} incompatible with primary capsules {primary.shape}"
        )
    P, d_p, K, n = transforms.shape
    return (primary @ transforms.reshape(P, d_p, K * n)).reshape(primary.shape[:-1] + (K, n))


def predict_capsules_backward(d_votes: np.ndarray, primary: np.ndarray, transforms: np.ndarray):
    """Gradients on the transforms (summed over the batch) and on the
    primary capsules, each one matrix product per primary capsule."""
    P, d_p, K, n = transforms.shape
    dv = d_votes.reshape(P, -1, K * n)
    d_transforms = (primary.transpose(0, 2, 1) @ dv).reshape(P, d_p, K, n)
    d_primary = dv @ transforms.reshape(P, d_p, K * n).transpose(0, 2, 1)
    return d_transforms, d_primary


def _pairs(votes: np.ndarray) -> np.ndarray:
    """The (P, B, K, n) votes read as B*K (P, n) matrices, one per
    (utterance, output capsule) pair: a view of C-contiguous votes."""
    P, B, K, n = votes.shape
    return votes.reshape(P, B * K, n).transpose(1, 0, 2)


def dynamic_routing(votes: np.ndarray, iters: int):
    """Iterative routing by agreement, independently per utterance.

    ``votes`` is (P, B, K, n). Logits start at zero. Each iteration:
    coefficients = softmax of logits over the output axis, pooled input
    s_j = sum_i c_ij * votes[i, j], v_j = squash(s_j), then
    logits[i, j] += votes[i, j] . v_j (the update is skipped after the final
    iteration). The first coefficients, the softmax of zero logits, are
    exactly 1/K.

    Returns the (B, K, n) output capsules and a RoutingTrace of the
    per-iteration state the backward pass needs.

    Votes that are not 4-D raise ShapeError. Votes that are not finite or
    too large to square (above about 1e154) raise DivergenceError with the
    batch position of the first utterance affected.
    """
    if np.ndim(votes) != 4:
        raise ShapeError(f"routing needs (P, B, K, n) votes, got shape {np.shape(votes)}")
    if iters < 1:
        raise ShapeError(f"routing needs at least one iteration, got {iters}")
    P, B, K, n = votes.shape
    pairs = _pairs(votes)
    coeff = np.full((B, K, P), 1.0 / K)
    trace = RoutingTrace(votes=votes)
    for it in range(iters):
        if it:
            coeff = softmax(logits, axis=1)
        pooled = (coeff.reshape(B * K, 1, P) @ pairs).reshape(B, K, n)
        out = squash(pooled)
        if not np.isfinite(out).all():
            finite = np.isfinite(out).all(axis=(-2, -1))
            raise DivergenceError("non-finite routing outputs", index=int(np.argmin(finite)))
        trace.coefficients.append(coeff)
        trace.pooled.append(pooled)
        trace.outputs.append(out)
        if it < iters - 1:
            agreement = (pairs @ out.reshape(B * K, n, 1)).reshape(B, K, P)
            logits = agreement if it == 0 else logits + agreement
    return out, trace


def routing_backward(trace: RoutingTrace, d_out: np.ndarray) -> np.ndarray:
    """Backprop through the full routing unroll; returns the gradient on the
    votes as a C-contiguous (P, B, K, n) array.

    Coefficients are *not* treated as constants: gradient flows through every
    softmax and every logit update of every iteration but the first, whose
    logits are constant zeros.
    """
    votes = trace.votes
    P, B, K, n = votes.shape
    pairs = _pairs(votes)
    iters = len(trace.outputs)
    # every pooling (coefficients x pooled gradient) and every logit update
    # (logit gradient x output) adds a[i, j] * b_j to d_votes[i, j]; the
    # terms are collected and contracted once, one (P, t) @ (t, n) product
    # per pair written in place, with no votes-sized temporary per term
    left, right = [], []
    d_logits = None
    d_v = np.asarray(d_out, dtype=np.float64)
    for it in range(iters - 1, -1, -1):
        coeff = trace.coefficients[it]
        if d_logits is not None:
            # logits' = logits + votes . v  contributed d_logits; split it
            left.append(d_logits)
            right.append(trace.outputs[it])
            d_v = (d_logits.reshape(B * K, 1, P) @ pairs).reshape(B, K, n)
        d_pooled = squash_grad(d_v, trace.pooled[it])
        left.append(coeff)
        right.append(d_pooled)
        if it:   # the first logits are constant zeros
            d_coeff = (pairs @ d_pooled.reshape(B * K, n, 1)).reshape(B, K, P)
            d_softmax = softmax_grad(d_coeff, coeff, axis=1)
            # into d_softmax, as d_logits is held in ``left``: a fresh sum raises peak memory
            d_logits = d_softmax if d_logits is None else np.add(d_logits, d_softmax,
                                                                  out=d_softmax)
    d_votes = np.empty_like(votes, order="C")
    np.matmul(np.stack(left, axis=-2).reshape(B * K, -1, P).transpose(0, 2, 1),
              np.stack(right, axis=-2).reshape(B * K, -1, n), out=_pairs(d_votes))
    return d_votes


def margin_loss(caps: np.ndarray, target: np.ndarray):
    """Hinge loss on the norms of (B, K, n) output capsules against (B, K)
    targets: a (B,) array.

    Present labels (target 1) pay max(0, MARGIN_PRESENT - |v_k|); absent
    labels pay max(0, |v_k| - MARGIN_ABSENT), unweighted.
    """
    target = np.asarray(target, dtype=np.float64)
    norms = capsule_norms(caps)
    if target.shape != norms.shape:
        raise ShapeError(f"target shape {target.shape} != capsule count {norms.shape}")
    present = np.maximum(0.0, MARGIN_PRESENT - norms)
    absent = np.maximum(0.0, norms - MARGIN_ABSENT)
    return np.add.reduce(target * present + (1.0 - target) * absent, axis=-1)


def margin_loss_grad(caps: np.ndarray, target: np.ndarray) -> np.ndarray:
    """Gradient of margin_loss with respect to the (B, K, n) output capsules."""
    target = np.asarray(target, dtype=np.float64)
    norms = capsule_norms(caps)
    d_norm = np.where((target > 0) & (norms < MARGIN_PRESENT), -1.0, 0.0)
    d_norm = d_norm + np.where((target == 0) & (norms > MARGIN_ABSENT), 1.0, 0.0)
    unit = caps / (norms[..., None] + NORM_GUARD)
    return d_norm[..., None] * unit


def decode_labels(caps: np.ndarray, vocab: "LabelVocabulary") -> list[list[str]]:
    """Norm-based decoding of every utterance of a (B, K, n) batch of output
    capsules against a slotted vocabulary, in vocabulary order.

    Within each slot group the argmax-norm label wins (the lowest index on a
    tie); optional groups emit their argmax only when its norm exceeds 0.5.
    Labels outside any group are emitted independently when their norm
    exceeds 0.5.
    """
    norms = capsule_norms(caps)
    if len(vocab.labels) != norms.shape[-1]:
        raise ShapeError(f"vocabulary size {len(vocab.labels)} != capsule count {norms.shape[-1]}")
    decoded = []
    for row in norms.tolist():
        chosen = [i for i in vocab.ungrouped if row[i] > 0.5]
        for idxs, required in vocab.slots:
            best = max(idxs, key=row.__getitem__)
            if required or row[best] > 0.5:
                chosen.append(best)
        decoded.append([vocab.labels[i] for i in sorted(chosen)])
    return decoded


# Initialization scales. Recurrent states at uniform +-1/sqrt(fan) init sit
# around |h| ~ 0.1, which would leave capsule norms ~1e-6 where squash kills
# all margin-loss gradient; the projection gain puts pre-squash primary norms
# near 2 (squashed ~0.8) and the transform sigma puts initial output norms in
# the hinge-sensitive range for any sizes P, K, d_p and n.
PROJ_INIT_GAIN = 13.0
TRANSFORM_INIT_SIGMA = 2.0


def init_core_params(config: ModelConfig, rng: np.random.Generator) -> Params:
    """Encoder weights uniform in +-1/sqrt(fan_in); projection uniform with
    the gain above; capsule transforms Gaussian with sigma 2/sqrt(d_p)."""
    params = enc.init_encoder_params(
        rng, config.feat_dim, config.encoder_hidden, config.encoder_layers
    )
    readout_dim = 2 * config.encoder_hidden
    proj_out = config.num_primary * config.primary_dim
    bound = PROJ_INIT_GAIN / np.sqrt(readout_dim)
    params["proj.W"] = rng.uniform(-bound, bound, size=(readout_dim, proj_out))
    params["proj.b"] = np.zeros(proj_out)
    sigma = TRANSFORM_INIT_SIGMA / np.sqrt(config.primary_dim)
    # drawn in (P, K, d_p, n) order and stored (P, d_p, K, n): the draw order
    # fixes the transforms a seed draws, so fits stay bit-identical
    draw = rng.normal(
        0.0, sigma,
        size=(config.num_primary, config.num_labels, config.primary_dim, config.output_dim),
    )
    params["caps.W"] = np.ascontiguousarray(draw.transpose(0, 2, 1, 3))
    return params


def encode(feats: np.ndarray, params: Params, config: ModelConfig, lengths: np.ndarray):
    """Frames -> bidirectional final states -> affine projection -> squashed
    primary capsules.

    ``feats`` is a zero-padded time-major (T_max, B, feat_dim) batch with
    its (B,) ``lengths`` (``encoder.pad_batch``). Returns the (P, B, d_p)
    capsules and the (encoder_cache, readout, primary_pre) of their ``ForwardTrace``.
    """
    feats = np.asarray(feats, dtype=np.float64)
    if feats.shape[-1] != config.feat_dim:
        raise ShapeError(f"feature dim {feats.shape[-1]} != configured {config.feat_dim}")
    readout, cache = enc.encoder_forward(params, feats, config.encoder_layers, lengths)
    primary_pre = (readout @ params["proj.W"] + params["proj.b"]).reshape(
        -1, config.num_primary, config.primary_dim)
    caps = squash(primary_pre).swapaxes(0, 1)
    return caps, (cache, readout, primary_pre)


def forward(feats: np.ndarray, params: Params, config: ModelConfig, lengths: np.ndarray):
    """Full core forward pass of a padded batch (see ``encode``): the
    (B, K, n) output capsules and a trace sufficient to replay backward().

    Raises DivergenceError, with the batch position of the first utterance
    affected, when capsule predictions are non-finite or too large to square
    (``dynamic_routing`` finds them: its first iteration pools every vote).
    """
    primary, intermediates = encode(feats, params, config, lengths=lengths)
    votes = predict_capsules(primary, params["caps.W"])
    caps, routing = dynamic_routing(votes, config.routing_iters)
    return caps, ForwardTrace(*intermediates, primary, routing)


def backward(trace: ForwardTrace, d_out: np.ndarray, params: Params) -> Params:
    """Analytic gradients of a loss with upstream gradient ``d_out`` on the
    output capsule vectors, for every core parameter, summed over the batch."""
    P, _, K, n = trace.routing.votes.shape
    if params["caps.W"].shape != (P, trace.primary.shape[-1], K, n):
        raise ContractError("trace does not match the supplied parameters")
    # the votes gradient is the size of the votes: let it go before the encoder runs
    d_transforms, d_primary = predict_capsules_backward(
        routing_backward(trace.routing, d_out), trace.primary, params["caps.W"]
    )
    d_primary_pre = squash_grad(d_primary.swapaxes(0, 1), trace.primary_pre)
    flat = d_primary_pre.reshape(len(d_primary_pre), -1)
    grads = enc.encoder_backward(params, trace.encoder_cache, flat @ params["proj.W"].T)
    grads["proj.W"] = trace.readout.T @ flat
    grads["proj.b"] = flat.sum(axis=0)
    grads["caps.W"] = d_transforms
    return grads
