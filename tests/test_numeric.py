import ctypes
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from capsintent import numeric
from capsintent.errors import ContractError, UsageError

from helpers import assert_same_bits, wrapper_softmax, wrapper_softmax_grad
from opexamples import by_module


@pytest.mark.parametrize("ex", by_module("numeric"), ids=lambda e: e.id)
def test_op_examples(ex):
    ex.fn()


def test_softmax_empty_vector_rejected():
    with pytest.raises(UsageError):
        numeric.softmax(np.array([]))


def test_softmax_nonfinite_rejected():
    with pytest.raises(UsageError):
        numeric.softmax(np.array([1.0, np.nan]))


@settings(max_examples=50, deadline=None)
@given(
    v=arrays(np.float64, st.integers(1, 8).map(lambda n: (n,)), elements=st.floats(-50, 50)),
    shift=st.floats(-100, 100),
)
def test_softmax_properties(v, shift):
    out = numeric.softmax(v)
    assert np.all(out > 0)
    assert abs(out.sum() - 1.0) < 1e-9
    shifted = numeric.softmax(v + shift)
    assert np.allclose(out, shifted, atol=1e-12)


def test_softmax_grad_matches_finite_differences():
    rng = np.random.default_rng(0)
    v = rng.normal(size=5)
    w = rng.normal(size=5)
    rep = numeric.grad_check(
        lambda p: float(numeric.softmax(p["v"]) @ w),
        lambda p: {"v": numeric.softmax_grad(w, numeric.softmax(p["v"]))},
        {"v": v},
    )
    assert rep.max_relative_error < 1e-7


def test_grad_check_reports_worst_path():
    theta = {"a": np.array([1.0, 2.0]), "b": np.array([3.0])}
    # gradient of "b" wrong by 10x
    rep = numeric.grad_check(
        lambda p: 0.5 * float(np.sum(p["a"] ** 2) + np.sum(p["b"] ** 2)),
        lambda p: {"a": p["a"], "b": 10.0 * p["b"]},
        theta,
    )
    assert rep.worst_parameter_path == "b[0]"
    assert rep.num_params_checked == 3


def test_grad_check_detects_nondeterminism():
    state = {"calls": 0}

    def noisy(p):
        state["calls"] += 1
        return float(state["calls"])

    with pytest.raises(ContractError):
        numeric.grad_check(noisy, lambda p: {"x": np.zeros(1)}, {"x": np.zeros(1)})


def test_grad_check_rejects_a_gradient_of_the_wrong_shape():
    with pytest.raises(ContractError, match=r"gradient shape \(3,\) != parameter shape \(2,\)"):
        numeric.grad_check(lambda p: float(np.sum(p["x"] ** 2)),
                           lambda p: {"x": np.zeros(3)}, {"x": np.zeros(2)})


def test_grad_check_does_not_mutate_params():
    theta = {"x": np.array([1.0, -2.0])}
    numeric.grad_check(
        lambda p: float(np.sum(p["x"] ** 2)),
        lambda p: {"x": 2 * p["x"]},
        theta,
    )
    assert np.array_equal(theta["x"], np.array([1.0, -2.0]))


# routing's (B, K, P) logits over axis 1 and the speaker head's (B, M) logits
@pytest.mark.parametrize("B", [1, 3, 16])
@pytest.mark.parametrize("shape, axis", [((33, 64), 1), ((11,), -1)], ids=["axis1", "axis-1"])
def test_softmax_matches_the_wrapper_formulation_bit_for_bit(B, shape, axis):
    rng = np.random.default_rng(B)
    logits = rng.normal(0.0, 3.0, size=(B,) + shape)
    upstream = rng.normal(size=logits.shape)
    probs = numeric.softmax(logits, axis=axis)
    assert_same_bits(probs, wrapper_softmax(logits, axis=axis))
    assert_same_bits(numeric.softmax_grad(upstream, probs, axis=axis),
                     wrapper_softmax_grad(upstream, probs, axis=axis))


ROOT = Path(__file__).resolve().parent.parent

# one warm-up loss_and_grads on a 32-utterance batch at the grid config,
# then the mean minor page faults of ten more calls
FAULTS_PER_STEP = """
import resource
import numpy as np
import capsintent
from capsintent import model
rng = np.random.default_rng(0)
cfg = capsintent.ModelConfig(feat_dim=16, num_labels=33, speaker_count=11,
                             encoder_hidden=32, encoder_layers=2, num_primary=64,
                             primary_dim=8, output_dim=8, routing_iters=3, seed=42)
params = model.init_params(cfg)
feats = [rng.normal(size=(int(n), 16)) for n in rng.integers(18, 35, size=32)]
target = (rng.random((32, 33)) < 0.1).astype(float)
speakers = rng.integers(0, 11, size=32)
model.loss_and_grads(feats, target, speakers, params, cfg)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(10):
    model.loss_and_grads(feats, target, speakers, params, cfg)
print((resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / 10)
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="mallopt is glibc's")
def test_training_steps_reuse_the_heap_instead_of_faulting_it_back_in():
    # with glibc's default thresholds each call takes about 1500 faults
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                      env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", FAULTS_PER_STEP], capture_output=True,
                          text=True, env=env, timeout=300, check=True)
    assert float(proc.stdout) < 100


class _Libc:
    """A C library stand-in whose ``mallopt`` records each call and its result."""

    def __init__(self, mallopt):
        self.calls = []

        def recorded(param, value):
            result = mallopt(param, value)
            self.calls.append((param, value, result))
            return result
        self.mallopt = recorded


@pytest.mark.parametrize("libc", [OSError("no C library"), object(),
                                  _Libc(lambda param, value: 0)],
                         ids=["no_library", "no_mallopt", "refused"])
def test_malloc_thresholds_are_left_alone_without_a_working_mallopt(monkeypatch, libc):
    def cdll(name):
        if isinstance(libc, OSError):
            raise libc
        return libc
    monkeypatch.setattr(ctypes, "CDLL", cdll)
    assert numeric._pin_malloc_thresholds() is False
    if isinstance(libc, _Libc):   # a refused mmap threshold: no trim threshold
        assert libc.calls == [(numeric.M_MMAP_THRESHOLD, numeric.MMAP_THRESHOLD, 0)]


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="mallopt is glibc's")
def test_glibc_accepts_both_malloc_thresholds(monkeypatch):
    libc = _Libc(ctypes.CDLL(None).mallopt)
    monkeypatch.setattr(ctypes, "CDLL", lambda name: libc)
    assert numeric._pin_malloc_thresholds() is True
    assert libc.calls == [(numeric.M_MMAP_THRESHOLD, 32 << 20, 1),
                          (numeric.M_TRIM_THRESHOLD, 64 << 20, 1)]
