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
