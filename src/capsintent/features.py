"""Audio ingestion and acoustic features.

The fixed front-end recipe: PCM WAV in, resampled to ``TARGET_RATE`` (16 kHz)
mono, ``N_MELS`` (40) log-mel energies over ``WINDOW`` (400-sample, 25 ms)
Hamming windows every ``HOP`` (160 samples, 10 ms) through an ``N_FFT`` (512)
point FFT, plus delta and delta-delta (120 coefficients), then per-utterance
mean/variance normalization. Features are cached keyed by the audio hash.
"""

from __future__ import annotations

import hashlib
import logging
import os
import tempfile
import wave
from typing import BinaryIO, Callable

import numpy as np

from .errors import DataError, FormatError

log = logging.getLogger(__name__)

TARGET_RATE = 16000
N_MELS = 40
WINDOW = 400
HOP = 160
N_FFT = 512            # the smallest power of two that holds a window
LOG_FLOOR = 1e-10
VARIANCE_FLOOR = 1e-8
# cache-file suffix, fixed so that caches written by earlier versions, which
# named files by a digest of these front-end settings, stay valid
RECIPE_DIGEST = "9c5e0bf70774413e"


def _decode_pcm(raw: bytes, sampwidth: int) -> np.ndarray:
    if sampwidth == 1:  # unsigned 8-bit
        return (np.frombuffer(raw, dtype=np.uint8).astype(np.float64) - 128.0) / 128.0
    if sampwidth == 2:
        return np.frombuffer(raw, dtype="<i2").astype(np.float64) / 32768.0
    if sampwidth == 3:
        b = np.frombuffer(raw, dtype=np.uint8).reshape(-1, 3).astype(np.int32)
        val = b[:, 0] | (b[:, 1] << 8) | (b[:, 2] << 16)
        val = np.where(val >= 1 << 23, val - (1 << 24), val)
        return val.astype(np.float64) / float(1 << 23)
    if sampwidth == 4:
        return np.frombuffer(raw, dtype="<i4").astype(np.float64) / float(1 << 31)
    raise FormatError(f"unsupported PCM sample width {sampwidth} bytes")


def resample_linear(samples: np.ndarray, src_rate: int) -> np.ndarray:
    """Linear interpolation to ``TARGET_RATE``; output length round(N * TARGET_RATE / src_rate)."""
    if src_rate == TARGET_RATE:
        return samples
    n_out = int(round(len(samples) * TARGET_RATE / src_rate))
    t_out = np.arange(n_out) * (src_rate / TARGET_RATE)
    return np.interp(t_out, np.arange(len(samples)), samples)


def load_wav(path: str) -> np.ndarray:
    """Read a PCM WAV file as a non-empty 1-D float64 array in [-1, 1], mono at TARGET_RATE.

    Multi-channel audio is downmixed by channel average; sample rates other
    than the target are converted by linear interpolation.
    """
    try:
        with wave.open(str(path), "rb") as fh:
            channels = fh.getnchannels()
            sampwidth = fh.getsampwidth()
            rate = fh.getframerate()
            nframes = fh.getnframes()
            raw = fh.readframes(nframes)
    except wave.Error as exc:
        raise FormatError(f"{path}: not a readable PCM WAV file ({exc})") from exc
    except EOFError as exc:
        raise FormatError(f"{path}: truncated WAV file") from exc
    except OSError as exc:
        raise DataError(f"{path}: cannot read audio ({exc})") from exc
    if rate == 0:
        raise FormatError(f"{path}: WAV header gives a sample rate of 0 Hz")
    if len(raw) % (channels * sampwidth):
        raise FormatError(f"{path}: truncated WAV file (its audio data ends mid-frame)")
    try:
        samples = _decode_pcm(raw, sampwidth)
    except FormatError as exc:
        raise FormatError(f"{path}: {exc}") from exc
    if samples.size == 0:
        raise DataError(f"{path}: empty audio")
    if channels > 1:
        samples = samples.reshape(-1, channels).mean(axis=1)
    samples = resample_linear(samples, rate)
    if samples.size == 0:
        raise DataError(f"{path}: audio vanished during resampling")
    return samples


def hz_to_mel(f):
    return 2595.0 * np.log10(1.0 + np.asarray(f, dtype=np.float64) / 700.0)


def mel_to_hz(m):
    return 700.0 * (10.0 ** (np.asarray(m, dtype=np.float64) / 2595.0) - 1.0)


def mel_filterbank():
    """Triangular mel filters; returns (filters (N_MELS, N_FFT//2+1),
    band edges (N_MELS, 3) as [low, center, high] in Hz). With lo, ctr and
    hi the FFT bins of a band's edges, its filter rises over bins [lo, ctr)
    as (k - lo) / (ctr - lo) and falls over [ctr, hi) as (hi - k) / (hi - ctr);
    at these constants no band is zero-width, so neither divides by zero."""
    mel_points = np.linspace(hz_to_mel(0.0), hz_to_mel(TARGET_RATE / 2.0), N_MELS + 2)
    hz_points = mel_to_hz(mel_points)
    bins = np.floor((N_FFT + 1) * hz_points / TARGET_RATE).astype(int)
    k = np.arange(N_FFT // 2 + 1)
    lo, ctr, hi = bins[:-2, None], bins[1:-1, None], bins[2:, None]
    filters = np.where((lo <= k) & (k < ctr), (k - lo) / (ctr - lo),
                       np.where((ctr <= k) & (k < hi), (hi - k) / (hi - ctr), 0.0))
    edges = np.stack([hz_points[:-2], hz_points[1:-1], hz_points[2:]], axis=1)
    return filters, edges


def compute_fbank(samples: np.ndarray) -> np.ndarray:
    """Log mel-filterbank energies of ``load_wav`` samples, one row per frame.

    Frame count is 1 + floor((len - WINDOW) / HOP); the log argument is
    floored at 1e-10 so silence maps to log(1e-10) exactly.
    """
    if len(samples) < WINDOW:
        raise DataError(
            f"clip of {len(samples)} samples is shorter than one {WINDOW}-sample window"
        )
    frames = np.lib.stride_tricks.sliding_window_view(samples, WINDOW)[::HOP] * np.hamming(WINDOW)
    power = np.abs(np.fft.rfft(frames, n=N_FFT, axis=1)) ** 2 / N_FFT
    filters, _ = mel_filterbank()
    energies = power @ filters.T
    return np.log(np.maximum(energies, LOG_FLOOR))


def add_deltas(feats: np.ndarray) -> np.ndarray:
    """Append delta and delta-delta columns (banked as [static, d, dd]).

    Deltas use the standard +-2 frame regression with edge replication:
    d_t = (x_{t+1} - x_{t-1} + 2 (x_{t+2} - x_{t-2})) / 10.
    """
    feats = np.asarray(feats, dtype=np.float64)
    if feats.ndim != 2 or feats.shape[0] < 1:
        raise DataError(f"expected a non-empty (frames, dim) matrix, got {feats.shape}")

    def regress(x):
        padded = np.concatenate([x[:1], x[:1], x, x[-1:], x[-1:]], axis=0)
        return (padded[3:-1] - padded[1:-3] + 2.0 * (padded[4:] - padded[:-4])) / 10.0

    d = regress(feats)
    dd = regress(d)
    return np.concatenate([feats, d, dd], axis=1)


def normalize(feats: np.ndarray) -> np.ndarray:
    """Per-utterance, per-coefficient zero mean and unit variance.

    Population statistics; the variance is floored at 1e-8 so constant
    coefficients map to zeros instead of dividing by zero.
    """
    feats = np.asarray(feats, dtype=np.float64)
    if feats.ndim != 2 or feats.shape[0] < 1:
        raise DataError(f"expected a non-empty (frames, dim) matrix, got {feats.shape}")
    mean = feats.mean(axis=0)
    std = np.sqrt(np.maximum(feats.var(axis=0), VARIANCE_FLOOR))
    return (feats - mean) / std


def compute_features(samples: np.ndarray) -> np.ndarray:
    """The fixed front end: (frames, 120) normalized log-mel+delta+delta-delta."""
    return normalize(add_deltas(compute_fbank(samples)))


def atomic_write(path: str, write: Callable[[BinaryIO], object]) -> None:
    """Create or replace ``path`` atomically, the package's one such writer
    (here because every writer can import this module): ``write`` fills a
    binary temp file in the same directory, which is then renamed over
    ``path``; if it raises, ``path`` is left as it was and the temp file is
    removed. Missing parent directories are created."""
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            write(fh)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def _file_digest(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()[:24]


class FeatureCache:
    """Disk cache of per-utterance feature matrices.

    One ``.npy`` file per utterance, named ``<audio-sha256-prefix>_<RECIPE_DIGEST>.npy``,
    checked at lookup to hold a finite float64 (frames, 3 * N_MELS) matrix. Writes go
    through ``atomic_write``, so concurrent writers of the same key are safe.
    """

    def __init__(self, directory: str):
        self.directory = str(directory)
        os.makedirs(self.directory, exist_ok=True)

    def _key_path(self, audio_path: str) -> str:
        return os.path.join(self.directory, f"{_file_digest(audio_path)}_{RECIPE_DIGEST}.npy")

    def lookup(self, audio_path: str):
        key = self._key_path(audio_path)
        if not os.path.exists(key):
            return None
        try:
            feats = np.load(key)
        except (OSError, ValueError, EOFError) as exc:
            raise FormatError(f"cannot read feature cache entry {key}: "
                              "not a readable .npy array") from exc
        if not (isinstance(feats, np.ndarray) and feats.dtype == np.float64
                and feats.shape[1:] == (3 * N_MELS,) and len(feats) >= 1):
            raise FormatError(f"feature cache entry {key} is not a float64 "
                              f"(frames >= 1, {3 * N_MELS}) matrix")
        if not np.isfinite(feats).all():
            raise FormatError(f"feature cache entry {key} holds non-finite values")
        return feats

    def store(self, audio_path: str, feats: np.ndarray) -> None:
        atomic_write(self._key_path(audio_path), lambda fh: np.save(fh, feats))

    def get_or_compute(self, audio_path: str):
        """Returns (features, was_cached). An entry that fails ``lookup``'s
        checks is derived data: it is logged, recomputed and replaced."""
        try:
            cached = self.lookup(audio_path)
            if cached is not None:
                return cached, True
        except FormatError as exc:
            log.warning("%s; recomputing it from %s", exc, audio_path)
        feats = compute_features(load_wav(audio_path))
        self.store(audio_path, feats)
        return feats, False
