"""Stacked bidirectional gated recurrent encoder with analytic backprop.

The cell is a GRU variant with gates packed as [reset | update | candidate]
along the last axis of the weight matrices:

    r = sigmoid(x Wx[:, :H]   + h Wh[:, :H]   + b[:H])
    z = sigmoid(x Wx[:, H:2H] + h Wh[:, H:2H] + b[H:2H])
    n = tanh   (x Wx[:, 2H:]  + r * (h Wh[:, 2H:]) + b[2H:])
    h' = z * h + (1 - z) * n,  computed as  h + (1 - z) * (n - h)

The forward pass scales the reset columns of Wx, Wh and b by 1/2 and the
update columns by -1/2 (exact, a power of two), so one 0.5 * (1 + tanh(.))
per step yields r and 1 - z; it caches 1 - z, and the backward pass forms
z from it.

Sequences are time-major and always batched: a zero-padded (T_max, B, dim)
array with per-utterance lengths (``pad_batch``); one utterance is a batch
of one. Every step runs all B sequences at once, padding frames included:
they come after a sequence's real frames, so nothing they compute reaches
its final state at frame length - 1. The backward direction reads each
sequence reversed within its own length, so its final state is at
length - 1 too. Both directions of a layer run in one frame loop over a
(T_max, 2, B, dim) array, direction 0 forward and 1 backward. A layer's two
cells are stored stacked in that order, and its cache and gradients carry
the same direction axis. The encoder reads out the concatenated final
states of both directions of the top layer. Backprop takes one input per
layer, the gradients on its (T_max, 2, B, H) states: the top layer's are
zero but for the readout gradient at each sequence's last frame, so every
gradient through a padding frame is exactly zero.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Sequence

import numpy as np

from .errors import DataError
from .numeric import Params


# A zero-initialized update gate keeps only half the state per frame, wiping
# early-sequence content long before the final-state readout; biasing it
# positive starts the cell with multi-frame memory.
UPDATE_GATE_BIAS = 2.0

# the frame step's 0-d operands (see numeric), read-only: one shared array
# written to would change every later forward pass
ONE = np.array(1.0)
HALF = np.array(0.5)
ONE.flags.writeable = HALF.flags.writeable = False


@lru_cache(maxsize=None)
def _gate_scale(hidden: int) -> np.ndarray:
    """The (3H,) factors ``gru_forward`` scales a cell's columns by: 1/2 on
    the reset columns, -1/2 on the update columns and 1 on the candidate's,
    read-only because one array serves every call at this size."""
    scale = np.array([0.5, -0.5, 1.0]).repeat(hidden)
    scale.flags.writeable = False
    return scale


def gru_param_init(rng: np.random.Generator, in_dim: int, hidden: int) -> dict[str, np.ndarray]:
    """Weights uniform in +-1/sqrt(fan_in); biases zero except the update
    gate's, which starts at +2 so states persist across segments."""
    sx = 1.0 / np.sqrt(in_dim)
    sh = 1.0 / np.sqrt(hidden)
    b = np.zeros(3 * hidden)
    b[hidden:2 * hidden] = UPDATE_GATE_BIAS
    return {
        "Wx": rng.uniform(-sx, sx, size=(in_dim, 3 * hidden)),
        "Wh": rng.uniform(-sh, sh, size=(hidden, 3 * hidden)),
        "b": b,
    }


def pad_batch(feats: Sequence[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """Zero-pad B (frames, dim) utterances into a time-major (T_max, B, dim)
    array. Returns it and the (B,) frame counts."""
    mats = [np.asarray(f, dtype=np.float64) for f in feats]
    if not mats:
        raise DataError("cannot pad an empty batch")
    for m in mats:
        if m.ndim != 2 or m.shape[0] < 1 or m.shape[1] != mats[0].shape[1]:
            raise DataError(f"batch needs non-empty (frames, dim) matrices of one dim, "
                            f"got shape {m.shape}")
    lengths = np.array([m.shape[0] for m in mats])
    xs = np.zeros((int(lengths.max()), len(mats), mats[0].shape[1]))
    for b, m in enumerate(mats):
        xs[:m.shape[0], b] = m
    return xs, lengths


def gru_forward(p: dict[str, np.ndarray], xs: np.ndarray):
    """Run both directions of a layer over time-major ``xs`` (T, 2, B, in_dim)
    in one frame loop: direction 0 with the cell ``p["Wx"][0]``,
    ``p["Wh"][0]``, ``p["b"][0]`` and direction 1 with index 1. Each
    direction's states are exactly those of the cell run over its own input.
    Returns (states (T, 2, B, H), the cache ``gru_backward`` takes: the
    inputs, states, r, 1 - z and n).

    The sigmoid is 0.5 * (1 + tanh(a / 2)), which never overflows. The
    cell's reset columns are scaled by 1/2 and its update columns by -1/2
    once per call, which is exact, so each step's 0.5 * (1 + tanh(.)) gives
    r and 1 - z directly. The state update is h + (1 - z) * (n - h).
    """
    hidden, B = p["Wh"].shape[-2], xs.shape[2]
    scale = _gate_scale(hidden)
    Wh = p["Wh"] * scale
    rz_scale = scale[:2 * hidden]
    # the input side, biases added in place, becomes the buffers the steps
    # update: a fresh input-sized sum costs 12-35 us a product at B=16, 6-9%
    # of a B=16 encoder_forward, under the pinned malloc thresholds (numeric)
    gates = xs @ (p["Wx"][..., :2 * hidden] * rz_scale)
    gates += p["b"][:, None, :2 * hidden] * rz_scale
    n_all = xs @ p["Wx"][..., 2 * hidden:]
    n_all += p["b"][:, None, 2 * hidden:]
    states = np.empty_like(n_all)
    # The frame step writes into preallocated buffers through local names:
    # at B=1, allocating temporaries and looking up attributes cost as much
    # as the arithmetic, which is why both directions share one loop.
    hh = np.empty((2, B, 3 * hidden))
    hh_rz, hh_n = hh[..., :2 * hidden], hh[..., 2 * hidden:]
    reset_h = np.empty((2, B, hidden))
    h = np.zeros((2, B, hidden))
    add, subtract, multiply, matmul, tanh = np.add, np.subtract, np.multiply, np.matmul, np.tanh
    for g, r, u, n, h_new in zip(gates, gates[..., :hidden], gates[..., hidden:], n_all,
                                 states):
        matmul(h, Wh, hh)
        add(g, hh_rz, g)
        tanh(g, g)
        add(g, ONE, g)
        multiply(g, HALF, g)
        multiply(r, hh_n, reset_h)
        add(n, reset_h, n)
        tanh(n, n)
        subtract(n, h, h_new)
        multiply(u, h_new, h_new)
        add(h, h_new, h_new)
        h = h_new
    cache = {"xs": xs, "states": states, "r": gates[..., :hidden],
             "one_minus_z": gates[..., hidden:], "n": n_all}
    return states, cache


def gru_backward(p, cache, d_states):
    """BPTT through both directions of a layer, given its ``gru_forward``
    cache and the (T, 2, B, H) gradients on the emitted states, the one
    gradient input; a final-state (readout) gradient sits at each
    sequence's last frame.
    Returns (param grads stacked like ``p`` and summed over the batch, the
    (2, T*B, 3H) gradients on each direction's input side ``xs @ Wx + b``,
    whose product with ``Wx[d].T`` is that direction's input gradient).

    Each gate pre-activation's gradient is the state gradient times a factor
    that depends only on the forward pass, so all factors are computed up
    front over every (step, sequence) pair and the frame loop runs only the
    recurrence. The weight gradients are then one matrix product each over
    all pairs.
    """
    hidden = p["Wh"].shape[-2]
    grads = {key: np.empty_like(value) for key, value in p.items()}
    T, _, B = d_states.shape[:3]
    d_pre_x = np.empty((2, T * B, 3 * hidden))
    for direction in range(2):
        xs, states, r, u, n = (cache[key][:, direction]
                               for key in ("xs", "states", "r", "one_minus_z", "n"))
        z = 1.0 - u
        Wh = p["Wh"][direction]
        h_prev = np.concatenate([np.zeros_like(states[:1]), states[:-1]])
        hh_n = h_prev @ Wh[:, 2 * hidden:]
        d_n = u * (1.0 - n * n)
        # per unit state gradient: [reset, update, candidate] pre-activations
        # on the h @ Wh side (the candidate's is scaled by r), then the
        # candidate's on the x @ Wx side
        factors = np.stack([d_n * hh_n * r * (1.0 - r), (h_prev - n) * z * u,
                            d_n * r, d_n], axis=-2)
        d_pre = np.empty_like(factors)
        d_pre_h = d_pre[..., :3, :].reshape(d_pre.shape[:-2] + (3 * hidden,))
        Wh_T = Wh.T
        d_steps = d_states[:, direction]
        dh = np.zeros(d_steps.shape[1:])
        for t in range(xs.shape[0] - 1, -1, -1):
            dh = dh + d_steps[t]
            np.multiply(dh[..., None, :], factors[t], out=d_pre[t])
            dh = dh * z[t] + d_pre_h[t] @ Wh_T
        d_x = d_pre_x[direction]
        np.concatenate([d_pre[..., :2, :], d_pre[..., 3:, :]], axis=-2,
                       out=d_x.reshape(T, B, 3, hidden))
        np.matmul(xs.reshape(-1, xs.shape[-1]).T, d_x, out=grads["Wx"][direction])
        np.matmul(h_prev.reshape(-1, hidden).T, d_pre_h.reshape(-1, 3 * hidden),
                  out=grads["Wh"][direction])
        d_x.sum(axis=0, out=grads["b"][direction])
        # holding both directions' temporaries at once raises a fit's peak memory
        del z, h_prev, hh_n, d_n, factors, d_pre, d_pre_h
    return grads, d_pre_x


def _layer_params(params: Params, layer: int) -> dict[str, np.ndarray]:
    """A layer's two cells as stored, the forward one at index 0."""
    return {key: params[f"enc.{layer}.{key}"] for key in ("Wx", "Wh", "b")}


def init_encoder_params(rng: np.random.Generator, feat_dim: int, hidden: int, layers: int) -> Params:
    """Per layer, the forward and then the backward cell of ``gru_param_init``,
    stacked: ``enc.{l}.Wx`` (2, in_dim, 3H), ``enc.{l}.Wh`` (2, H, 3H) and
    ``enc.{l}.b`` (2, 3H)."""
    params: Params = {}
    in_dim = feat_dim
    for layer in range(layers):
        cells = [gru_param_init(rng, in_dim, hidden) for _ in range(2)]
        for key in cells[0]:
            params[f"enc.{layer}.{key}"] = np.stack([cell[key] for cell in cells])
        in_dim = 2 * hidden
    return params


def encoder_forward(params: Params, feats: np.ndarray, layers: int, lengths: np.ndarray):
    """Encode a padded time-major (T_max, B, feat_dim) batch with its (B,)
    ``lengths`` into the (B, 2H) final-state readout. Lengths that are not
    one signed integer from 1 to T_max per batch column raise DataError."""
    feats = np.asarray(feats, dtype=np.float64)
    if feats.ndim != 3 or feats.shape[0] < 1:
        raise DataError(f"encoder needs a non-empty (T_max, B, dim) batch, got shape {feats.shape}")
    T, B = feats.shape[:2]
    lengths = np.asarray(lengths)
    if (lengths.shape != (B,) or lengths.dtype.kind != "i"
            or not ((lengths >= 1) & (lengths <= T)).all()):
        raise DataError(f"encoder needs {B} signed integer lengths from 1 to {T}, "
                        f"got {lengths!r}")
    # the gather index (rows, cols) that reverses each sequence within its
    # own length and leaves padding in place
    t = np.arange(T)[:, None]
    reversal = np.where(t < lengths, lengths - 1 - t, t), np.arange(B)
    # direction 1 reads each sequence reversed within its length
    both = np.empty((T, 2) + feats.shape[1:])
    both[:, 0] = feats
    both[:, 1] = feats[reversal]
    caches = []
    for layer in range(layers):
        states, cache = gru_forward(_layer_params(params, layer), both)
        caches.append(cache)
        if layer < layers - 1:
            # the next layer's input, both directions' states side by side,
            # written straight into its direction-stacked buffer
            hidden = states.shape[-1]
            both = np.empty((T, 2, B, 2 * hidden))
            both[:, 0, :, :hidden] = states[:, 0]
            both[:, 0, :, hidden:] = states[:, 1][reversal]
            both[:, 1] = both[:, 0][reversal]
    # both directions' states at each sequence's last frame, side by side
    last = lengths - 1
    readout = states[last, :, np.arange(B)].reshape(B, 2 * states.shape[-1])
    return readout, {"caches": caches, "T": T, "reversal": reversal, "last": last}


def encoder_backward(params: Params, cache, d_readout: np.ndarray) -> Params:
    """Backprop the readout gradient through every layer and time step;
    parameter gradients are summed over the batch and stacked like the
    parameters."""
    reversal = cache["reversal"]
    hidden = d_readout.shape[-1] // 2
    grads: Params = {}
    # the readout is both directions' states at each sequence's last frame
    B = len(d_readout)
    d_states = np.zeros((cache["T"], 2, B, hidden))
    d_states[cache["last"], :, np.arange(B)] = d_readout.reshape(B, 2, hidden)
    for layer in range(len(cache["caches"]) - 1, -1, -1):
        layer_params = _layer_params(params, layer)
        layer_grads, d_pre_x = gru_backward(layer_params, cache["caches"][layer], d_states)
        grads.update({f"enc.{layer}.{key}": value for key, value in layer_grads.items()})
        if layer > 0:
            # the input gradients, formed only above layer 0 (the features
            # take none); then undo encoder_forward's split, reversal and
            # stack of this layer's input
            dxs = (d_pre_x @ layer_params["Wx"].transpose(0, 2, 1)).reshape(
                2, cache["T"], B, 2 * hidden)
            d_xs = dxs[0] + dxs[1][reversal]  # (T, B, in_dim of this layer)
            # let both go before the next layer's backward: a fit's peak memory
            del d_pre_x, dxs
            d_xs[..., hidden:] = d_xs[..., hidden:][reversal]
            d_states = d_xs.reshape(d_xs.shape[:2] + (2, hidden)).swapaxes(1, 2)
    return grads
