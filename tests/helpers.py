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
