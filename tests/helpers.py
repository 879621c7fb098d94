"""Shared test utilities."""

import wave

import numpy as np


def write_wav(path, samples, rate=16000, channels=1, sampwidth=2):
    """Write float samples in [-1, 1] as PCM WAV."""
    samples = np.asarray(samples, dtype=np.float64)
    if sampwidth == 2:
        data = (np.clip(samples, -1, 1) * 32767).astype("<i2").tobytes()
    elif sampwidth == 1:
        data = (np.clip(samples, -1, 1) * 127 + 128).astype(np.uint8).tobytes()
    elif sampwidth == 3:    # the low three bytes of each little-endian 32-bit word
        words = (np.clip(samples, -1, 1) * (2**23 - 1)).astype("<i4")
        data = words.view(np.uint8).reshape(-1, 4)[:, :3].tobytes()
    elif sampwidth == 4:
        data = (np.clip(samples, -1, 1) * (2**31 - 1)).astype("<i4").tobytes()
    else:
        raise ValueError(sampwidth)
    with wave.open(str(path), "wb") as fh:
        fh.setnchannels(channels)
        fh.setsampwidth(sampwidth)
        fh.setframerate(rate)
        fh.writeframes(data)
    return str(path)


def tiny_model_config(**overrides):
    """Small but non-degenerate model settings for fast tests."""
    from capsintent.capsnet import ModelConfig

    base = dict(feat_dim=6, num_labels=4, speaker_count=3, encoder_hidden=5,
                encoder_layers=2, num_primary=4, primary_dim=3, output_dim=3,
                routing_iters=2, speaker_weight=0.5, seed=0)
    base.update(overrides)
    return ModelConfig(**base)


def well_conditioned_params(config, seed=123, scale=0.6):
    """Random parameters whose capsule norms sit away from 0 and the margin
    hinge points, where central differences are trustworthy."""
    import capsintent.model as model

    rng = np.random.default_rng(seed)
    params = model.init_params(config)
    return {k: rng.normal(0.0, scale, size=v.shape) for k, v in params.items()}


def einsum_routing(votes, iters):
    """Reference dynamic routing over (P, B, K, n) votes, written with
    einsum over (P, B, K) logits: the output capsules, and per iteration the
    (P, B, K) coefficients, pooled inputs and outputs."""
    from capsintent.capsnet import squash
    from capsintent.numeric import softmax

    logits = np.zeros(votes.shape[:-1])
    coefficients, pooled, outputs = [], [], []
    for it in range(iters):
        coeff = softmax(logits)
        s = np.einsum("p...k,p...kn->...kn", coeff, votes)
        out = squash(s)
        coefficients.append(coeff)
        pooled.append(s)
        outputs.append(out)
        if it < iters - 1:
            logits = logits + np.einsum("p...kn,...kn->p...k", votes, out)
    return out, coefficients, pooled, outputs


def einsum_routing_backward(votes, coefficients, pooled, outputs, d_out):
    """Reference vote gradient of ``einsum_routing``, through every softmax
    and logit update."""
    from capsintent.capsnet import squash_grad
    from capsintent.numeric import softmax_grad

    left, right = [], []
    d_logits = None
    d_v = np.asarray(d_out, dtype=np.float64)
    for it in range(len(outputs) - 1, -1, -1):
        coeff = coefficients[it]
        if d_logits is not None:
            left.append(d_logits)
            right.append(outputs[it])
            d_v = np.einsum("p...k,p...kn->...kn", d_logits, votes)
        d_pooled = squash_grad(d_v, pooled[it])
        left.append(coeff)
        right.append(d_pooled)
        d_softmax = softmax_grad(np.einsum("...kn,p...kn->p...k", d_pooled, votes), coeff)
        d_logits = d_softmax if d_logits is None else d_logits + d_softmax
    return np.einsum("p...kt,...ktn->p...kn", np.stack(left, axis=-1), np.stack(right, axis=-2),
                     optimize=True)


# The formulations below use NumPy's wrapper functions (np.sum, np.max,
# np.all, np.linalg.norm, np.stack) and keyword ``out``: the code the
# package's per-call paths replaced with direct ufunc calls. They are the
# byte-identity oracles of those paths.

def assert_same_bits(got, want):
    """Same shape, dtype and bytes: equal bit for bit, -0.0 and NaNs included."""
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape and got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()


def wrapper_softmax(v, axis=-1):
    v = np.asarray(v, dtype=np.float64)
    assert np.all(np.isfinite(v))
    e = v - np.max(v, axis=axis, keepdims=True)
    np.exp(e, out=e)
    e /= np.sum(e, axis=axis, keepdims=True)
    return e


def wrapper_softmax_grad(upstream, probs, axis=-1):
    grad = upstream - np.sum(upstream * probs, axis=axis, keepdims=True)
    grad *= probs
    return grad


def wrapper_squash(s):
    sq = np.sum(s * s, axis=-1, keepdims=True)
    return s * (np.sqrt(sq) / (1.0 + sq))


def wrapper_squash_grad(upstream, s):
    from capsintent.capsnet import NORM_GUARD

    sq = np.sum(s * s, axis=-1, keepdims=True)
    nrm = np.sqrt(sq)
    scale = nrm / (1.0 + sq)
    proj = np.sum(upstream * s, axis=-1, keepdims=True)
    radial = (1.0 - sq) / ((1.0 + sq) ** 2 * (nrm + NORM_GUARD))
    return upstream * scale + s * (proj * radial)


def wrapper_capsule_norms(caps):
    return np.linalg.norm(caps, axis=-1)


def wrapper_gru_forward(p, xs):
    """``encoder.gru_forward`` with a per-call scale array, a copied and
    slice-scaled ``Wh``, and keyword ``out`` and Python-float operands in the
    frame step: (states, cache)."""
    hidden, B = p["Wh"].shape[-2], xs.shape[2]
    scale = np.array([0.5, -0.5]).repeat(hidden)
    Wh = p["Wh"].copy()
    Wh[..., :2 * hidden] *= scale
    gates = xs @ (p["Wx"][..., :2 * hidden] * scale)
    gates += p["b"][:, None, :2 * hidden] * scale
    n_all = xs @ p["Wx"][..., 2 * hidden:]
    n_all += p["b"][:, None, 2 * hidden:]
    states = np.empty_like(n_all)
    hh = np.empty((2, B, 3 * hidden))
    hh_rz, hh_n = hh[..., :2 * hidden], hh[..., 2 * hidden:]
    reset_h = np.empty((2, B, hidden))
    h = np.zeros((2, B, hidden))
    for g, r, u, n, h_new in zip(gates, gates[..., :hidden], gates[..., hidden:], n_all,
                                 states):
        np.matmul(h, Wh, out=hh)
        np.add(g, hh_rz, out=g)
        np.tanh(g, out=g)
        np.add(g, 1.0, out=g)
        np.multiply(g, 0.5, out=g)
        np.multiply(r, hh_n, out=reset_h)
        np.add(n, reset_h, out=n)
        np.tanh(n, out=n)
        np.subtract(n, h, out=h_new)
        np.multiply(u, h_new, out=h_new)
        np.add(h, h_new, out=h_new)
        h = h_new
    cache = {"xs": xs, "states": states, "r": gates[..., :hidden],
             "one_minus_z": gates[..., hidden:], "n": n_all}
    return states, cache


def wrapper_encoder_readout(params, feats, layers, lengths):
    """``encoder.encoder_forward``'s readout, built with ``np.stack`` over
    ``wrapper_gru_forward`` and read one sequence at a time."""
    T = feats.shape[0]
    t = np.arange(T)[:, None]
    reversal = np.where(t < lengths, lengths - 1 - t, t), np.arange(len(lengths))
    xs = feats
    for layer in range(layers):
        p = {key: params[f"enc.{layer}.{key}"] for key in ("Wx", "Wh", "b")}
        states, _ = wrapper_gru_forward(p, np.stack([xs, xs[reversal]], axis=1))
        if layer < layers - 1:
            xs = np.concatenate([states[:, 0], states[:, 1][reversal]], axis=-1)
    return np.stack([np.concatenate(states[length - 1, :, seq])
                     for seq, length in enumerate(lengths)])
