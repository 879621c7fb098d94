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
