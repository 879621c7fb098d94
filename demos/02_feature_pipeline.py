#!/usr/bin/env python3
"""Acoustic front-end on a generated tone: WAV -> log-mel filterbanks ->
deltas -> per-utterance normalization, plus the disk cache in action."""

import tempfile
import wave
from pathlib import Path

import numpy as np

from capsintent import add_deltas, audio_features, compute_fbank, load_wav, normalize
from capsintent.features import TARGET_RATE, mel_filterbank

with tempfile.TemporaryDirectory() as tmp:
    # one second of a 440 Hz tone with a little noise
    t = np.arange(16000) / 16000.0
    samples = 0.4 * np.sin(2 * np.pi * 440.0 * t) + 0.01 * np.random.default_rng(0).normal(size=t.size)
    path = Path(tmp) / "tone.wav"
    with wave.open(str(path), "wb") as fh:
        fh.setnchannels(1)
        fh.setsampwidth(2)
        fh.setframerate(16000)
        fh.writeframes((np.clip(samples, -1, 1) * 32767).astype("<i2").tobytes())

    audio = load_wav(str(path))
    print(f"loaded {audio.size} samples at {TARGET_RATE} Hz")

    fbank = compute_fbank(audio)
    print(f"filterbanks: {fbank.shape} (frames x mels)")

    filters, edges = mel_filterbank()
    band = int(np.argmax(fbank.mean(axis=0)))
    print(f"most energetic mel band {band} spans {edges[band, 0]:.0f}-{edges[band, 2]:.0f} Hz "
          f"(contains 440 Hz: {edges[band, 0] <= 440 <= edges[band, 2]})")

    full = normalize(add_deltas(fbank))
    print(f"with deltas + normalization: {full.shape}, per-coefficient mean ~ "
          f"{np.abs(full.mean(axis=0)).max():.2e}")

    cache = str(Path(tmp) / "cache")
    _, hit = audio_features(str(path), cache)
    print(f"first cache lookup was a hit: {hit}")
    _, hit = audio_features(str(path), cache)
    print(f"second cache lookup was a hit: {hit}")
