"""Audio ingestion and acoustic features.

The fixed front-end recipe: PCM WAV in, resampled to 16 kHz mono, 40 log-mel
filterbank energies over 25 ms windows with a 10 ms hop, plus delta and
delta-delta appended (120 coefficients), then per-utterance mean/variance
normalization. Features are cached on disk keyed by (audio content hash,
recipe hash).
"""

from __future__ import annotations

import hashlib
import os
import tempfile
import wave
from dataclasses import dataclass, asdict
from typing import BinaryIO, Callable

import numpy as np

from .errors import DataError, FormatError, UsageError

TARGET_RATE = 16000
LOG_FLOOR = 1e-10
VARIANCE_FLOOR = 1e-8


@dataclass
class AudioClip:
    samples: np.ndarray  # float64 in [-1, 1]
    sample_rate: int


@dataclass(frozen=True)
class FeatureRecipe:
    n_mels: int = 40
    win_ms: float = 25.0
    hop_ms: float = 10.0
    deltas: bool = True
    mean_var_norm: bool = True

    @property
    def dim(self) -> int:
        return self.n_mels * 3 if self.deltas else self.n_mels

    def digest(self) -> str:
        text = repr(sorted(asdict(self).items()))
        return hashlib.sha256(text.encode()).hexdigest()[:16]


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


def resample_linear(samples: np.ndarray, src_rate: int, dst_rate: int) -> np.ndarray:
    """Linear-interpolation resampling; output length round(N * dst/src)."""
    if src_rate == dst_rate:
        return samples
    n_out = int(round(len(samples) * dst_rate / src_rate))
    t_out = np.arange(n_out) * (src_rate / dst_rate)
    return np.interp(t_out, np.arange(len(samples)), samples)


def load_wav(path: str, target_rate: int = TARGET_RATE) -> AudioClip:
    """Read a PCM WAV file as mono float64 at ``target_rate``.

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
    samples = _decode_pcm(raw, sampwidth)
    if samples.size == 0:
        raise DataError(f"{path}: empty audio")
    if channels > 1:
        samples = samples.reshape(-1, channels).mean(axis=1)
    samples = resample_linear(samples, rate, target_rate)
    if samples.size == 0:
        raise DataError(f"{path}: audio vanished during resampling")
    return AudioClip(samples=samples, sample_rate=target_rate)


def hz_to_mel(f):
    return 2595.0 * np.log10(1.0 + np.asarray(f, dtype=np.float64) / 700.0)


def mel_to_hz(m):
    return 700.0 * (10.0 ** (np.asarray(m, dtype=np.float64) / 2595.0) - 1.0)


def mel_filterbank(n_mels: int, n_fft: int, sample_rate: int):
    """Triangular mel filters; returns (filters (n_mels, n_fft//2+1),
    band edges (n_mels, 3) as [low, center, high] in Hz)."""
    nyquist = sample_rate / 2.0
    mel_points = np.linspace(hz_to_mel(0.0), hz_to_mel(nyquist), n_mels + 2)
    hz_points = mel_to_hz(mel_points)
    bins = np.floor((n_fft + 1) * hz_points / sample_rate).astype(int)
    filters = np.zeros((n_mels, n_fft // 2 + 1))
    for m in range(n_mels):
        lo, ctr, hi = bins[m], bins[m + 1], bins[m + 2]
        for k in range(lo, ctr):
            if ctr > lo:
                filters[m, k] = (k - lo) / (ctr - lo)
        for k in range(ctr, hi):
            if hi > ctr:
                filters[m, k] = (hi - k) / (hi - ctr)
    edges = np.stack([hz_points[:-2], hz_points[1:-1], hz_points[2:]], axis=1)
    return filters, edges


def compute_fbank(clip: AudioClip, n_mels: int = 40, win_ms: float = 25.0,
                  hop_ms: float = 10.0) -> np.ndarray:
    """Log mel-filterbank energies, one row per frame.

    Frame count is 1 + floor((len - win) / hop); the log argument is floored
    at 1e-10 so silence maps to log(1e-10) exactly.
    """
    if n_mels < 1:
        raise UsageError(f"n_mels must be >= 1, got {n_mels}")
    if not win_ms > hop_ms > 0:
        raise UsageError(f"need win_ms > hop_ms > 0, got {win_ms}/{hop_ms}")
    win = int(round(clip.sample_rate * win_ms / 1000.0))
    hop = int(round(clip.sample_rate * hop_ms / 1000.0))
    if len(clip.samples) < win:
        raise DataError(
            f"clip of {len(clip.samples)} samples is shorter than one {win}-sample window"
        )
    n_frames = 1 + (len(clip.samples) - win) // hop
    n_fft = 1
    while n_fft < win:
        n_fft *= 2
    window = np.hamming(win)
    starts = np.arange(n_frames) * hop
    frames = np.stack([clip.samples[s:s + win] for s in starts]) * window
    power = np.abs(np.fft.rfft(frames, n=n_fft, axis=1)) ** 2 / n_fft
    filters, _ = mel_filterbank(n_mels, n_fft, clip.sample_rate)
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


def compute_features(clip: AudioClip, recipe: FeatureRecipe = FeatureRecipe()) -> np.ndarray:
    feats = compute_fbank(clip, recipe.n_mels, recipe.win_ms, recipe.hop_ms)
    if recipe.deltas:
        feats = add_deltas(feats)
    if recipe.mean_var_norm:
        feats = normalize(feats)
    return feats


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

    One ``.npy`` file (float64, shape (frames, dim)) per utterance, named
    ``<audio-sha256-prefix>_<recipe-digest>.npy``. Writes go through
    ``atomic_write``, so concurrent writers of the same key are safe.
    """

    def __init__(self, directory: str):
        self.directory = str(directory)
        os.makedirs(self.directory, exist_ok=True)

    def _key_path(self, audio_path: str, recipe: FeatureRecipe) -> str:
        return os.path.join(self.directory, f"{_file_digest(audio_path)}_{recipe.digest()}.npy")

    def lookup(self, audio_path: str, recipe: FeatureRecipe):
        key = self._key_path(audio_path, recipe)
        if os.path.exists(key):
            return np.load(key)
        return None

    def store(self, audio_path: str, recipe: FeatureRecipe, feats: np.ndarray) -> None:
        atomic_write(self._key_path(audio_path, recipe), lambda fh: np.save(fh, feats))

    def get_or_compute(self, audio_path: str, recipe: FeatureRecipe = FeatureRecipe()):
        """Returns (features, was_cached)."""
        cached = self.lookup(audio_path, recipe)
        if cached is not None:
            return cached, True
        feats = compute_features(load_wav(audio_path), recipe)
        self.store(audio_path, recipe, feats)
        return feats, False
