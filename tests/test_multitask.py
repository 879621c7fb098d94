import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from capsintent import capsnet, multitask
from capsintent.errors import ShapeError

from opexamples import by_module


@pytest.mark.parametrize("ex", by_module("multitask"), ids=lambda e: e.id)
def test_op_examples(ex):
    ex.fn()


def _caps_from(vectors):
    vectors = np.asarray(vectors, dtype=np.float64)
    return capsnet.OutputCapsuleSet(vectors=vectors, norms=np.linalg.norm(vectors, axis=-1))


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 10_000), alpha=st.sampled_from([0.1, 1.0, 10.0]))
def test_average_capsule_scale_invariance(seed, alpha):
    rng = np.random.default_rng(seed)
    vectors = rng.normal(size=(rng.integers(1, 8), rng.integers(2, 6)))
    base = multitask.average_capsule(_caps_from(vectors)).vector
    scaled = multitask.average_capsule(_caps_from(alpha * vectors)).vector
    assert np.allclose(base, scaled, atol=1e-9)


def test_average_capsule_norm_bounded():
    rng = np.random.default_rng(1)
    for _ in range(20):
        vectors = rng.normal(size=(5, 4))
        avg = multitask.average_capsule(_caps_from(vectors))
        assert np.linalg.norm(avg.vector) <= 1.0 + 1e-12


def test_speaker_distribution_shape_error():
    avg = multitask.AverageCapsule(vector=np.zeros((1, 3)), degenerate=np.array([False]))
    with pytest.raises(ShapeError):
        multitask.speaker_distribution(avg, {"spk.W": np.zeros((4, 2)), "spk.b": np.zeros(2)})


def test_speaker_loss_nonnegative_and_zero_iff_certain():
    rng = np.random.default_rng(2)
    for _ in range(50):
        logits = rng.normal(size=4) * 3
        probs = np.exp(logits) / np.exp(logits).sum()
        loss = multitask.speaker_loss(probs[None], [1])[0]
        assert loss >= 0.0
        assert (loss < 1e-9) == (probs[1] > 1 - 1e-9)


def test_speaker_loss_bad_index():
    with pytest.raises(ShapeError):
        multitask.speaker_loss(np.array([[0.5, 0.5]]), [5])


def test_decode_speaker_monotone_transform_invariant():
    rng = np.random.default_rng(3)
    for _ in range(20):
        probs = rng.dirichlet(np.ones(6))[None]
        assert multitask.decode_speaker(probs) == multitask.decode_speaker(np.sqrt(probs))


def test_total_loss_breakdown_fields():
    bd = multitask.total_loss(1.5, 2.0, 0.25)
    assert bd.label_loss == 1.5
    assert bd.speaker_loss == 2.0
    assert bd.total == 1.5 + 0.25 * 2.0


def test_head_backward_degenerate_returns_zeros():
    caps = _caps_from(np.zeros((1, 3, 2)))
    params = {"spk.W": np.ones((2, 4)), "spk.b": np.zeros(4)}
    _, trace = multitask.head_forward(caps, params, [0])
    grads, d_caps = multitask.head_backward(trace, [0], 1.0, params)
    assert np.all(grads["spk.W"] == 0.0)
    assert np.all(d_caps == 0.0)


def test_head_backward_quotient_rule_by_finite_differences():
    # isolated head: loss as a function of the capsule vectors only
    rng = np.random.default_rng(4)
    vectors = rng.normal(size=(1, 4, 3)) * 0.5
    params = {"spk.W": rng.normal(size=(3, 5)), "spk.b": rng.normal(size=5) * 0.1}
    target = [2]
    lam = 0.8

    def loss(v):
        caps = _caps_from(v)
        l, _ = multitask.head_forward(caps, params, target)
        return lam * l[0]

    _, trace = multitask.head_forward(_caps_from(vectors), params, target)
    _, d_caps = multitask.head_backward(trace, target, lam, params)

    step = 1e-6
    for idx in np.ndindex(vectors.shape):
        plus, minus = vectors.copy(), vectors.copy()
        plus[idx] += step
        minus[idx] -= step
        numeric = (loss(plus) - loss(minus)) / (2 * step)
        assert abs(numeric - d_caps[idx]) < 1e-6
