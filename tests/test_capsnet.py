import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import capsintent.model as model
from capsintent import capsnet, datasets
from capsintent.errors import ContractError, DataError, DivergenceError, ShapeError, UsageError

from helpers import (assert_same_bits, einsum_routing, einsum_routing_backward,
                     tiny_model_config, wrapper_capsule_norms, wrapper_squash,
                     wrapper_squash_grad)
from opexamples import by_module


@pytest.mark.parametrize("ex", by_module("capsnet"), ids=lambda e: e.id)
def test_op_examples(ex):
    ex.fn()


@settings(max_examples=60, deadline=None)
@given(s=arrays(np.float64, st.integers(1, 6).map(lambda n: (n,)),
                elements=st.floats(-20, 20)))
def test_squash_range_and_direction(s):
    out = capsnet.squash(s)
    norm = np.linalg.norm(out)
    assert 0.0 <= norm < 1.0
    if np.linalg.norm(s) > 1e-6:
        cosine = float(out @ s) / (np.linalg.norm(out) * np.linalg.norm(s) + 1e-300)
        assert abs(cosine - 1.0) < 1e-9


def test_squash_norm_formula():
    for scale in (0.1, 1.0, 5.0):
        s = np.array([scale, 0.0, 0.0])
        expected = scale**2 / (1 + scale**2)
        assert abs(np.linalg.norm(capsnet.squash(s)) - expected) < 1e-12


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10_000), iters=st.integers(1, 5))
def test_routing_simplex_invariant(seed, iters):
    rng = np.random.default_rng(seed)
    P, K, n = rng.integers(1, 8), rng.integers(2, 6), rng.integers(2, 5)
    votes = rng.normal(size=(P, 1, K, n))
    caps, trace = capsnet.dynamic_routing(votes, iters)
    for coeff in trace.coefficients:      # (B, K, P): sums over the output axis
        assert np.all(coeff >= 0)
        assert np.allclose(coeff.sum(axis=1), 1.0, atol=1e-9)
    norms = np.linalg.norm(caps, axis=-1)
    assert np.all(norms >= 0.0)
    assert np.all(norms < 1.0)


def test_routing_rejects_zero_iters():
    with pytest.raises(ShapeError, match="at least one iteration"):
        capsnet.dynamic_routing(np.zeros((2, 1, 2, 2)), 0)


@pytest.mark.parametrize("shape", [(2, 2, 2), (2, 1, 1, 2, 2)])
def test_routing_rejects_votes_that_are_not_4d(shape):
    with pytest.raises(ShapeError, match=r"\(P, B, K, n\) votes"):
        capsnet.dynamic_routing(np.zeros(shape), 2)


@pytest.mark.parametrize("B", [1, 3, 16])
def test_routing_matches_einsum_reference(B):
    rng = np.random.default_rng(B)
    votes = rng.normal(0.0, 0.7, size=(64, B, 33, 8))
    d_out = rng.normal(size=(B, 33, 8))
    for iters in (1, 3):
        caps, trace = capsnet.dynamic_routing(votes, iters)
        ref, coefficients, pooled, outputs = einsum_routing(votes, iters)
        pairs = [(caps, ref)]
        pairs += [(c, np.moveaxis(r, 0, -1)) for c, r in zip(trace.coefficients, coefficients)]
        pairs += list(zip(trace.pooled, pooled)) + list(zip(trace.outputs, outputs))
        d_votes = capsnet.routing_backward(trace, d_out)
        pairs.append((d_votes, einsum_routing_backward(votes, coefficients, pooled, outputs,
                                                      d_out)))
        for got, want in pairs:
            assert got.shape == want.shape
            assert np.max(np.abs(got - want)) <= 1e-10 * np.max(np.abs(want))
        # a C-contiguous gradient reshapes into the vote backward's matrices without a copy
        assert d_votes.flags.c_contiguous


def test_routing_agreement_mostly_monotone():
    # agreement sum_ij c_ij (votes_ij . v_j) should usually grow with each
    # iteration; statistical smoke check, individual failures tolerated
    monotone = 0
    trials = 120
    for seed in range(trials):
        rng = np.random.default_rng(seed)
        votes = rng.normal(size=(6, 1, 4, 3))
        _, trace = capsnet.dynamic_routing(votes, 4)
        agreements = [
            float(np.einsum("bkp,pbkn,bkn->", c, votes, v))
            for c, v in zip(trace.coefficients, trace.outputs)
        ]
        diffs = np.diff(agreements)
        monotone += int(np.all(diffs >= -1e-9))
    rate = monotone / trials
    print(f"routing agreement monotone in {monotone}/{trials} random instances")
    assert rate >= 0.5


def test_predict_capsules_shape_error():
    with pytest.raises(ShapeError):
        capsnet.predict_capsules(np.zeros((3, 4)), np.zeros((3, 2, 5, 2)))


def test_margin_loss_shape_error():
    caps = np.zeros((2, 2))
    with pytest.raises(ShapeError):
        capsnet.margin_loss(caps, np.array([1.0, 0.0, 0.0]))


def test_encode_empty_features_rejected():
    cfg = tiny_model_config()
    params = model.init_params(cfg)
    with pytest.raises(DataError):
        capsnet.encode(np.zeros((0, 1, cfg.feat_dim)), params, cfg, np.array([0]))


def test_encode_single_frame_accepted():
    cfg = tiny_model_config()
    params = model.init_params(cfg)
    caps, _ = capsnet.encode(np.ones((1, 1, cfg.feat_dim)), params, cfg, np.array([1]))
    assert caps.shape == (cfg.num_primary, 1, cfg.primary_dim)


def test_encode_wrong_feat_dim():
    cfg = tiny_model_config()
    params = model.init_params(cfg)
    with pytest.raises(ShapeError):
        capsnet.encode(np.zeros((3, 1, cfg.feat_dim + 1)), params, cfg, np.array([3]))


def test_backward_trace_params_mismatch():
    cfg = tiny_model_config()
    params = model.init_params(cfg)
    _, trace = capsnet.forward(np.zeros((3, 1, cfg.feat_dim)), params, cfg, np.array([3]))
    other = dict(params)
    other["caps.W"] = np.zeros((1, 2, 3, 4))
    with pytest.raises(ContractError):
        capsnet.backward(trace, np.zeros((1, cfg.num_labels, cfg.output_dim)), other)


def test_permutation_equivariance():
    cfg = tiny_model_config(num_labels=5)
    rng = np.random.default_rng(14)
    params = {k: rng.normal(0, 0.5, size=v.shape) for k, v in model.init_params(cfg).items()}
    feats = rng.normal(size=(6, 1, cfg.feat_dim))
    lengths = np.array([6])
    target = np.array([[1.0, 0.0, 1.0, 0.0, 0.0]])
    perm = np.array([3, 0, 4, 1, 2])

    caps, _ = capsnet.forward(feats, params, cfg, lengths)
    loss = capsnet.margin_loss(caps, target)[0]

    permuted = dict(params)
    permuted["caps.W"] = params["caps.W"][:, :, perm, :]
    caps_p, _ = capsnet.forward(feats, permuted, cfg, lengths)
    loss_p = capsnet.margin_loss(caps_p, target[:, perm])[0]

    assert np.allclose(caps_p, caps[:, perm], atol=1e-9)
    assert abs(loss - loss_p) < 1e-9


def test_decode_labels_vocab_size_mismatch():
    vocab = datasets.LabelVocabulary(labels=("a", "b"))
    caps = np.zeros((1, 3, 2))
    with pytest.raises(ShapeError):
        capsnet.decode_labels(caps, vocab)


def test_decode_labels_ungrouped_threshold():
    vocab = datasets.LabelVocabulary(labels=("a", "b", "c"))
    caps = np.array([[[0.51, 0.0], [0.49, 0.0], [0.9, 0.0]]])  # norms 0.51, 0.49, 0.9
    assert capsnet.decode_labels(caps, vocab) == [["a", "c"]]


def test_decode_labels_tie_goes_to_the_lowest_index_in_any_group_order():
    # a checkpoint header may list a group's labels out of index order
    group = datasets.SlotGroup("a", ("a:z", "a:y", "a:x"), required=True)
    vocab = datasets.LabelVocabulary(labels=("a:x", "a:y", "a:z"), slot_groups=(group,))
    assert vocab.slots == [([0, 1, 2], True)]
    caps = np.array([[[0.3, 0.0], [0.7, 0.0], [0.0, 0.7]]])   # a:y and a:z tie at 0.7
    assert capsnet.decode_labels(caps, vocab) == [["a:y"]]


def test_forward_trace_replays_output():
    cfg = tiny_model_config()
    params = model.init_params(cfg)
    feats = np.random.default_rng(15).normal(size=(4, 1, cfg.feat_dim))
    caps, trace = capsnet.forward(feats, params, cfg, np.array([4]))
    assert trace.routing.outputs[-1].tobytes() == caps.tobytes()


def test_model_config_validation():
    with pytest.raises(ShapeError):
        tiny_model_config(output_dim=1)
    with pytest.raises(ShapeError):
        tiny_model_config(routing_iters=0)
    with pytest.raises(ShapeError, match="^encoder_hidden must be <= 9223372036854775807, got "):
        tiny_model_config(encoder_hidden=10**30)


@pytest.mark.parametrize("weight", [float("nan"), float("inf"), -2.0])
def test_model_config_rejects_speaker_weight_not_finite_and_nonnegative(weight):
    with pytest.raises(UsageError, match="speaker_weight must be finite and >= 0"):
        tiny_model_config(speaker_weight=weight)


@pytest.mark.parametrize("field", ["feat_dim", "num_labels", "speaker_count", "encoder_hidden",
                                   "encoder_layers", "num_primary", "primary_dim"])
def test_model_config_rejects_zero_counts(field):
    with pytest.raises(ShapeError, match=f"{field} must be >= 1"):
        tiny_model_config(**{field: 0})


@pytest.mark.parametrize("field, value", [
    ("routing_iters", 2.0), ("encoder_hidden", 5.0),
    ("num_primary", True), ("speaker_weight", "1"), ("seed", None),
])
def test_model_config_rejects_values_of_the_wrong_type(field, value):
    with pytest.raises(UsageError, match=f"{field} must be "):
        tiny_model_config(**{field: value})


# votes that overflow when squared, and votes that are not finite: the
# first iteration pools every vote, so routing finds each in its outputs
@pytest.mark.parametrize("bad", [1e160, 1e300, np.inf, -np.inf, np.nan])
def test_routing_overflow_is_divergence(bad):
    with np.errstate(all="ignore"), pytest.raises(DivergenceError) as info:
        capsnet.dynamic_routing(np.full((2, 1, 2, 2), bad), 2)
    assert info.value.index == 0
    votes = np.ones((2, 4, 2, 2))      # (P, B, K, n): only utterance 2 is bad
    votes[:, 2] = bad
    with np.errstate(all="ignore"), pytest.raises(DivergenceError) as info:
        capsnet.dynamic_routing(votes, 2)
    assert info.value.index == 2
    votes[:, 2] = 1.0                  # one vote of one pair is enough
    votes[1, 2, 1, 0] = bad
    with np.errstate(all="ignore"), pytest.raises(DivergenceError) as info:
        capsnet.dynamic_routing(votes, 2)
    assert info.value.index == 2


# output capsules (B, K, n), squashed over axis -1, and pre-squash primary
# capsules (B, P, d_p); the norms of output capsules with a zero capsule
@pytest.mark.parametrize("B", [1, 3, 16])
@pytest.mark.parametrize("shape", [(33, 8), (64, 8)], ids=["output", "primary"])
def test_squash_and_norms_match_the_wrapper_formulation_bit_for_bit(B, shape):
    rng = np.random.default_rng(B)
    s = rng.normal(0.0, 2.0, size=(B,) + shape)
    s[0, 0] = 0.0
    upstream = rng.normal(size=s.shape)
    assert_same_bits(capsnet.squash(s), wrapper_squash(s))
    assert_same_bits(capsnet.squash_grad(upstream, s), wrapper_squash_grad(upstream, s))
    assert_same_bits(capsnet.capsule_norms(s), wrapper_capsule_norms(s))
