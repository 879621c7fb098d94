import hashlib
import io
import math
import os
import threading
from pathlib import Path

import numpy as np
import pytest

from capsintent import features
from capsintent.errors import DataError, FormatError

from helpers import write_wav
from opexamples import by_module


@pytest.mark.parametrize("ex", by_module("features"), ids=lambda e: e.id)
def test_op_examples(ex):
    ex.fn()


def test_load_wav_missing_file():
    with pytest.raises(DataError):
        features.load_wav("/nonexistent/file.wav")


def test_load_wav_garbage_file(tmp_path):
    bad = tmp_path / "bad.wav"
    bad.write_bytes(b"this is not audio")
    with pytest.raises(FormatError):
        features.load_wav(str(bad))


def test_load_wav_empty_audio(tmp_path, wav_factory):
    path = wav_factory("e.wav", np.zeros(0))
    with pytest.raises(DataError):
        features.load_wav(path)


def test_load_wav_8bit_and_32bit(wav_factory):
    samples = np.linspace(-0.9, 0.9, 1000)
    for width in (1, 4):
        loaded = features.load_wav(wav_factory(f"w{width}.wav", samples, sampwidth=width))
        assert np.max(np.abs(loaded - samples)) < 2e-2 if width == 1 else 1e-6


def test_fbank_short_clip_rejected():
    with pytest.raises(DataError):
        features.compute_fbank(np.zeros(100))


def test_fbank_hop_shift_covariance():
    rng = np.random.default_rng(3)
    audio = rng.uniform(-0.5, 0.5, 16000)
    a = features.compute_fbank(audio)
    b = features.compute_fbank(audio[160:])
    assert np.allclose(b, a[1:1 + b.shape[0]], atol=1e-6)


def test_pipeline_deterministic(wav_factory):
    rng = np.random.default_rng(4)
    path = wav_factory("d.wav", rng.uniform(-0.5, 0.5, 8000))
    a = features.compute_features(features.load_wav(path))
    b = features.compute_features(features.load_wav(path))
    assert a.tobytes() == b.tobytes()


@pytest.mark.parametrize("name,rate,width,channels,expected", [
    ("mono16k", 16000, 2, 1,
     (-0.6275981061921457, -0.5563280038705491, 0.12368354411106966, 4631.733413720096)),
    ("stereo8k", 8000, 1, 2,
     (-1.2451352760237897, -0.3233539583014912, 0.9383591079645297, 4615.252623444964)),
])
def test_front_end_output_is_pinned(tmp_path, name, rate, width, channels, expected):
    # cached features stay valid only while these numbers hold (RECIPE_DIGEST);
    # the normalized columns sum to rounding noise, so the magnitudes are summed
    rng = np.random.default_rng(2002)
    mono = rng.uniform(-0.5, 0.5, 8000)
    stereo = rng.uniform(-0.5, 0.5, (4000, 2)).ravel()
    path = write_wav(tmp_path / f"{name}.wav", mono if channels == 1 else stereo,
                     rate=rate, channels=channels, sampwidth=width)
    feats = features.compute_features(features.load_wav(path))
    assert feats.shape == (48, 120)
    got = (feats[0, 0], feats[10, 45], feats[-1, -1], np.abs(feats).sum())
    np.testing.assert_allclose(got, expected, rtol=1e-12)


def test_normalize_mean_and_variance():
    rng = np.random.default_rng(5)
    out = features.normalize(rng.normal(3.0, 7.0, size=(50, 6)))
    assert np.all(np.abs(out.mean(axis=0)) < 1e-6)
    assert np.allclose(out.var(axis=0), 1.0, atol=1e-6)


def test_recipe_dim_and_digest():
    samples = np.random.default_rng(4).uniform(-0.5, 0.5, 8000)
    assert features.compute_features(samples).shape == (48, 120)
    assert features.RECIPE_DIGEST == "9c5e0bf70774413e"


def test_cache_file_name(tmp_path, wav_factory):
    path = wav_factory("n.wav", np.random.default_rng(9).uniform(-0.5, 0.5, 8000))
    cache_dir = tmp_path / "cache"
    features.FeatureCache(str(cache_dir)).get_or_compute(path)
    digest = hashlib.sha256(Path(path).read_bytes()).hexdigest()[:24]
    assert os.listdir(cache_dir) == [f"{digest}_9c5e0bf70774413e.npy"]


def test_cache_roundtrip_and_hits(tmp_path, wav_factory):
    path = wav_factory("c.wav", np.random.default_rng(6).uniform(-0.5, 0.5, 8000))
    cache = features.FeatureCache(str(tmp_path / "cache"))
    first, was_cached = cache.get_or_compute(path)
    assert not was_cached
    second, was_cached = cache.get_or_compute(path)
    assert was_cached
    assert first.tobytes() == second.tobytes()


def test_cache_key_depends_on_content(tmp_path, wav_factory):
    rng = np.random.default_rng(7)
    p1 = wav_factory("k1.wav", rng.uniform(-0.5, 0.5, 8000))
    p2 = wav_factory("k2.wav", rng.uniform(-0.5, 0.5, 8000))
    cache = features.FeatureCache(str(tmp_path / "cache"))
    cache.get_or_compute(p1)
    cache.get_or_compute(p2)
    assert len(os.listdir(tmp_path / "cache")) == 2


def _entry_bytes(value):
    buf = io.BytesIO()
    np.save(buf, value)
    return buf.getvalue()


@pytest.mark.parametrize("content, match", [
    (b"garbage, not an array", "cannot read feature cache entry"),
    (b"", "cannot read feature cache entry"),
    (_entry_bytes(np.array([0.5, np.nan])), "is not a float64"),
    (_entry_bytes(np.zeros((4, 120), dtype=np.int64)), "is not a float64"),
    (_entry_bytes(np.zeros((4, 40))), "is not a float64"),
    (_entry_bytes(np.zeros((0, 120))), "is not a float64"),
    (_entry_bytes(np.full((4, 120), np.inf)), "holds non-finite values"),
], ids=["garbage", "empty", "1d_nan", "int64", "wrong_width", "no_frames", "inf"])
def test_cache_rejects_bad_entries(tmp_path, wav_factory, content, match):
    path = wav_factory("b.wav", np.random.default_rng(10).uniform(-0.5, 0.5, 8000))
    cache = features.FeatureCache(str(tmp_path / "cache"))
    cache.get_or_compute(path)
    (entry,) = (tmp_path / "cache").iterdir()
    entry.write_bytes(content)
    with pytest.raises(FormatError, match=match) as info:
        cache.lookup(path)
    assert entry.name in str(info.value)


def test_cache_concurrent_writers(tmp_path, wav_factory):
    path = wav_factory("cc.wav", np.random.default_rng(8).uniform(-0.5, 0.5, 8000))
    cache = features.FeatureCache(str(tmp_path / "cache"))
    errors = []

    def worker():
        try:
            cache.get_or_compute(path)
        except Exception as exc:  # noqa: BLE001
            errors.append(exc)

    threads = [threading.Thread(target=worker) for _ in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert not errors
    feats, was_cached = cache.get_or_compute(path)
    assert was_cached and feats.shape[1] == 120


def test_resample_identity():
    x = np.arange(10.0)
    assert features.resample_linear(x, 16000) is x


def test_atomic_write_failure_leaves_target_untouched(tmp_path):
    target = tmp_path / "out.bin"
    features.atomic_write(str(target), lambda fh: fh.write(b"old contents"))

    def broken(fh):
        fh.write(b"partial")
        raise RuntimeError("writer failed")

    with pytest.raises(RuntimeError, match="writer failed"):
        features.atomic_write(str(target), broken)
    assert target.read_bytes() == b"old contents"
    assert os.listdir(tmp_path) == ["out.bin"]


def test_atomic_write_creates_directories(tmp_path):
    target = tmp_path / "a" / "b" / "out.bin"
    features.atomic_write(str(target), lambda fh: fh.write(b"x"))
    assert target.read_bytes() == b"x"
