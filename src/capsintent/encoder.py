"""Stacked bidirectional gated recurrent encoder with analytic backprop.

The cell is a GRU variant with gates packed as [reset | update | candidate]
along the last axis of the weight matrices:

    r = sigmoid(x Wx[:, :H]   + h Wh[:, :H]   + b[:H])
    z = sigmoid(x Wx[:, H:2H] + h Wh[:, H:2H] + b[H:2H])
    n = tanh   (x Wx[:, 2H:]  + r * (h Wh[:, 2H:]) + b[2H:])
    h' = z * h + (1 - z) * n

Sequences are time-major and always batched: a zero-padded (T_max, B, dim)
array with per-utterance lengths (``pad_batch``); one utterance is a batch
of one. Every step runs all B sequences at once. Past a sequence's end a
per-frame mask forces its update gate to exactly 1 (pre-activation +inf),
so the cell copies its state unchanged and every gradient through that
frame is exactly zero: the state at T_max - 1 is the sequence's final
state, with no masking work inside the frame loops. Every batch is masked
alike; an unpadded one gets an all-True mask. The backward direction
reads each sequence reversed within its own length, so its final state is
also at T_max - 1. The encoder reads out the concatenated final states of
both directions of the top layer.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .errors import DataError
from .numeric import Params


# A zero-initialized update gate keeps only half the state per frame, wiping
# early-sequence content long before the final-state readout; biasing it
# positive starts the cell with multi-frame memory.
UPDATE_GATE_BIAS = 2.0


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


def gru_forward(p: dict[str, np.ndarray], xs: np.ndarray, mask: np.ndarray):
    """Run the cell over time-major ``xs`` (T, B, in_dim).

    ``mask`` (T, B, 1) is False on padding frames, where the update gate is
    forced to 1 so the state is held; it is all True for an unpadded batch.
    Returns (states (T, B, H), cache).
    """
    hidden = p["Wh"].shape[0]
    T, B = xs.shape[:2]
    xx = xs @ p["Wx"] + p["b"]
    np.copyto(xx[..., hidden:2 * hidden], np.inf, where=~mask)
    xx_rz, xx_n = xx[..., :2 * hidden], xx[..., 2 * hidden:]
    states = np.empty((T, B, hidden))
    rz = np.empty((T, B, 2 * hidden))
    n_all = np.empty_like(states)
    # The frame step writes into preallocated buffers through local names:
    # at B=1, allocating temporaries and looking up attributes cost as much
    # as the arithmetic. The sigmoid is 0.5 * (1 + tanh(x / 2)), which never
    # overflows; the other operations are those of the formulas above, in
    # the order they are written.
    hh = np.empty((B, 3 * hidden))
    keep = np.empty((B, hidden))
    h = np.zeros((B, hidden))
    Wh, add, subtract, multiply, tanh = p["Wh"], np.add, np.subtract, np.multiply, np.tanh
    for t in range(T):
        np.matmul(h, Wh, out=hh)
        gates = rz[t]
        add(xx_rz[t], hh[:, :2 * hidden], out=gates)
        multiply(gates, 0.5, out=gates)
        tanh(gates, out=gates)
        add(gates, 1.0, out=gates)
        multiply(gates, 0.5, out=gates)
        r, z = gates[:, :hidden], gates[:, hidden:]
        n = n_all[t]
        multiply(r, hh[:, 2 * hidden:], out=n)
        add(xx_n[t], n, out=n)
        tanh(n, out=n)
        multiply(z, h, out=keep)
        h = states[t]
        subtract(1.0, z, out=h)
        multiply(h, n, out=h)
        add(keep, h, out=h)
    cache = {"xs": xs, "states": states, "r": rz[..., :hidden], "z": rz[..., hidden:],
             "n": n_all}
    return states, cache


def gru_backward(p, cache, d_steps, d_last):
    """BPTT through one direction.

    d_steps: (T, B, H) per-step gradients on the emitted states (may be
    None), d_last: extra gradient on the final state. Returns (param grads
    summed over the batch, dxs).

    Each gate pre-activation's gradient is the state gradient times a factor
    that depends only on the forward pass, so all factors are computed up
    front over every (step, sequence) pair and the frame loop runs only the
    recurrence. The weight and input gradients are then one matrix product
    each over all pairs.
    """
    xs, states = cache["xs"], cache["states"]
    r, z, n = cache["r"], cache["z"], cache["n"]
    hidden = p["Wh"].shape[0]
    h_prev = np.concatenate([np.zeros_like(states[:1]), states[:-1]])
    hh_n = h_prev @ p["Wh"][:, 2 * hidden:]
    d_n = (1.0 - z) * (1.0 - n * n)
    # per unit state gradient: [reset, update, candidate] pre-activations on
    # the h @ Wh side (the candidate's is scaled by r), then the candidate's
    # on the x @ Wx side
    factors = np.stack([d_n * hh_n * r * (1.0 - r), (h_prev - n) * z * (1.0 - z),
                        d_n * r, d_n], axis=-2)
    d_pre = np.empty_like(factors)
    d_pre_h = d_pre[..., :3, :].reshape(d_pre.shape[:-2] + (3 * hidden,))
    Wh_T = p["Wh"].T
    dh = np.array(d_last, dtype=np.float64, copy=True)
    for t in range(xs.shape[0] - 1, -1, -1):
        if d_steps is not None:
            dh = dh + d_steps[t]
        np.multiply(dh[..., None, :], factors[t], out=d_pre[t])
        dh = dh * z[t] + d_pre_h[t] @ Wh_T
    d_pre_x = np.concatenate([d_pre[..., :2, :], d_pre[..., 3:, :]], axis=-2)
    d_pre_x = d_pre_x.reshape(-1, 3 * hidden)
    grads = {
        "Wx": xs.reshape(-1, xs.shape[-1]).T @ d_pre_x,
        "Wh": h_prev.reshape(-1, hidden).T @ d_pre_h.reshape(-1, 3 * hidden),
        "b": d_pre_x.sum(axis=0),
    }
    return grads, (d_pre_x @ p["Wx"].T).reshape(xs.shape)


def _layer_params(params: Params, layer: int, direction: str) -> dict[str, np.ndarray]:
    prefix = f"enc.{layer}.{direction}."
    return {"Wx": params[prefix + "Wx"], "Wh": params[prefix + "Wh"], "b": params[prefix + "b"]}


def init_encoder_params(rng: np.random.Generator, feat_dim: int, hidden: int, layers: int) -> Params:
    params: Params = {}
    in_dim = feat_dim
    for layer in range(layers):
        for direction in ("f", "b"):
            block = gru_param_init(rng, in_dim, hidden)
            for key, val in block.items():
                params[f"enc.{layer}.{direction}.{key}"] = val
        in_dim = 2 * hidden
    return params


def encoder_forward(params: Params, feats: np.ndarray, hidden: int, layers: int,
                    lengths: np.ndarray):
    """Encode a padded time-major (T_max, B, feat_dim) batch with its (B,)
    ``lengths`` into the (B, 2*hidden) final-state readout."""
    feats = np.asarray(feats, dtype=np.float64)
    if feats.ndim != 3 or feats.shape[0] < 1:
        raise DataError(f"encoder needs a non-empty (T_max, B, dim) batch, got shape {feats.shape}")
    T = feats.shape[0]
    # the padding mask, and the gather index (rows, cols) that reverses each
    # sequence within its own length and leaves padding in place
    t = np.arange(T)[:, None]
    mask = (t < lengths)[..., None]
    reversal = np.where(t < lengths, lengths - 1 - t, t), np.arange(len(lengths))
    xs = feats
    caches = []
    for layer in range(layers):
        hs_f, cache_f = gru_forward(_layer_params(params, layer, "f"), xs, mask)
        hs_b_rev, cache_b = gru_forward(_layer_params(params, layer, "b"), xs[reversal], mask)
        caches.append((cache_f, cache_b))
        if layer < layers - 1:
            xs = np.concatenate([hs_f, hs_b_rev[reversal]], axis=-1)
    readout = np.concatenate([hs_f[-1], hs_b_rev[-1]], axis=-1)
    return readout, {"caches": caches, "layers": layers, "hidden": hidden, "T": T,
                     "reversal": reversal}


def encoder_backward(params: Params, cache, d_readout: np.ndarray) -> Params:
    """Backprop the readout gradient through every layer and time step;
    parameter gradients are summed over the batch."""
    layers, hidden, reversal = cache["layers"], cache["hidden"], cache["reversal"]
    grads: Params = {}
    d_steps_f = None
    d_steps_b_rev = None
    d_last_f = d_readout[..., :hidden]
    d_last_b = d_readout[..., hidden:]
    for layer in range(layers - 1, -1, -1):
        cache_f, cache_b = cache["caches"][layer]
        g_f, dx_f = gru_backward(_layer_params(params, layer, "f"), cache_f, d_steps_f, d_last_f)
        g_b, dx_b_rev = gru_backward(_layer_params(params, layer, "b"), cache_b, d_steps_b_rev,
                                     d_last_b)
        for key, val in g_f.items():
            grads[f"enc.{layer}.f.{key}"] = val
        for key, val in g_b.items():
            grads[f"enc.{layer}.b.{key}"] = val
        if layer > 0:
            d_xs = dx_f + dx_b_rev[reversal]  # (T, B, in_dim of this layer)
            d_steps_f = d_xs[..., :hidden]
            d_steps_b_rev = d_xs[..., hidden:][reversal]
            d_last_f = np.zeros_like(d_last_f)
            d_last_b = np.zeros_like(d_last_b)
    return grads
