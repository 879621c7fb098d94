import dataclasses

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import capsintent.model as model
from capsintent import capsnet, datasets, encoder, experiments, multitask
from capsintent.errors import DataError, DivergenceError
from capsintent.numeric import grad_check

from helpers import tiny_model_config, well_conditioned_params
from opexamples import _small_config, _small_corpus


def test_init_params_covers_all_blocks():
    cfg = tiny_model_config()
    params = model.init_params(cfg)
    expected = {"proj.W", "proj.b", "caps.W", "spk.W", "spk.b"}
    for layer in range(cfg.encoder_layers):
        for direction in ("f", "b"):
            for name in ("Wx", "Wh", "b"):
                expected.add(f"enc.{layer}.{direction}.{name}")
    assert set(params) == expected
    assert params["caps.W"].shape == (cfg.num_primary, cfg.num_labels,
                                      cfg.primary_dim, cfg.output_dim)
    assert params["spk.W"].shape == (cfg.output_dim, cfg.speaker_count)


def test_init_params_deterministic():
    cfg = tiny_model_config(seed=99)
    a = model.init_params(cfg)
    b = model.init_params(cfg)
    assert all(a[k].tobytes() == b[k].tobytes() for k in a)


def test_speaker_head_initialized_even_when_disabled():
    zero = tiny_model_config(seed=5, speaker_weight=0.0)
    multi = tiny_model_config(seed=5, speaker_weight=1.0)
    a = model.init_params(zero)
    b = model.init_params(multi)
    assert all(a[k].tobytes() == b[k].tobytes() for k in a)


def _relabel_speakers(utterances, speaker_count):
    return [dataclasses.replace(u, speaker_index=(u.speaker_index + 1) % speaker_count)
            for u in utterances]


def test_zero_weight_skips_but_matches_forced_path():
    """The reduction case: the multitask model at weight zero must train
    bit-identically whatever the speaker labels are, so it is the baseline
    that never learns from the head. The head runs and reports its loss, but
    its gradients are exactly zero: it keeps its initial parameters and adds
    nothing to the total."""
    corpus = _small_corpus(per_speaker=10, noise=0.1)
    cfg = _small_config(speaker_weight=0.0)
    result = experiments.fit(corpus.utterances, cfg, epochs=3)
    relabeled = experiments.fit(_relabel_speakers(corpus.utterances, cfg.speaker_count),
                                cfg, epochs=3)
    assert [s.total_loss for s in result.history] == [s.total_loss for s in relabeled.history]
    assert [s.label_loss for s in result.history] == [s.label_loss for s in relabeled.history]
    for key in result.params:
        assert result.params[key].tobytes() == relabeled.params[key].tobytes(), key
    init = model.init_params(cfg)
    for key in ("spk.W", "spk.b"):
        assert result.params[key].tobytes() == init[key].tobytes(), key
    for stats in result.history:
        assert stats.speaker_loss > 0.0
        assert stats.total_loss == stats.label_loss


def test_forced_path_records_speaker_loss_without_affecting_total():
    """At weight zero one call reports the head's loss, leaves the total at
    the label loss, gives the head zero gradients, and gives every other
    block gradients that do not depend on the speaker label."""
    corpus = _small_corpus(per_speaker=6, noise=0.1)
    cfg = _small_config(speaker_weight=0.0)
    utt = corpus.utterances[0]
    other = (utt.speaker_index + 1) % cfg.speaker_count
    params = model.init_params(cfg)
    bd, grads = model.loss_and_grads([utt.features], [utt.target], [utt.speaker_index],
                                     params, cfg)
    bd_other, grads_other = model.loss_and_grads([utt.features], [utt.target], [other],
                                                 params, cfg)
    assert bd.speaker_loss > 0.0
    assert bd.total_loss == bd.label_loss == bd_other.total_loss
    for key in ("spk.W", "spk.b"):
        assert not np.any(grads[key]), key
    for key in grads:
        assert np.array_equal(grads[key], grads_other[key]), key


def test_one_epoch_bit_reproducible():
    corpus = _small_corpus(per_speaker=8, noise=0.1)
    cfg = _small_config(seed=3, speaker_weight=1.0)
    a = experiments.fit(corpus.utterances, cfg, epochs=1)
    b = experiments.fit(corpus.utterances, cfg, epochs=1)
    for key in a.params:
        assert a.params[key].tobytes() == b.params[key].tobytes()


def test_loss_and_grads_divergence_on_bad_features():
    cfg = tiny_model_config()
    params = model.init_params(cfg)
    feats = np.full((4, cfg.feat_dim), np.inf)
    with pytest.warns(RuntimeWarning), pytest.raises(DivergenceError):
        model.loss_and_grads([feats], np.array([[1.0, 0, 0, 0]]), [0], params, cfg)


def test_predict_returns_labels_and_speaker():
    corpus = _small_corpus(per_speaker=5, noise=0.1)
    cfg = _small_config()
    params = model.init_params(cfg)
    utt = corpus.utterances[0]
    labels, speaker = model.predict(utt.features, params, cfg, corpus.vocab)
    assert isinstance(labels, list)
    assert 0 <= speaker < cfg.speaker_count


def test_evaluate_rejects_non_finite_features():
    corpus = _small_corpus(per_speaker=2)
    cfg = _small_config()
    params = model.init_params(cfg)
    feats = corpus.utterances[0].features.copy()
    feats[1, 2] = np.nan
    with pytest.raises(DataError):
        model.evaluate([feats], params, cfg)
    with pytest.raises(DataError):
        model.predict(feats, params, cfg, corpus.vocab)


# ---------------------------------------------------------------------------
# the batched path


def _ragged_batch(cfg, lengths, seed):
    rng = np.random.default_rng(seed)
    feats = [rng.normal(size=(T, cfg.feat_dim)) for T in lengths]
    targets = (rng.random((len(lengths), cfg.num_labels)) < 0.4).astype(float)
    speakers = rng.integers(0, cfg.speaker_count, len(lengths))
    return feats, targets, speakers


def _max_rel(got, want):
    scale = np.max(np.abs(want))
    return np.max(np.abs(got - want)) / scale if scale else np.max(np.abs(got))


@settings(max_examples=25, deadline=None)
@given(lengths=st.lists(st.integers(1, 12), min_size=1, max_size=20),
       weight=st.sampled_from([0.0, 1.0]), seed=st.integers(0, 1000))
@example(lengths=[1] + [7] * 16 + [12, 3], weight=1.0, seed=0)
def test_batch_call_equals_sum_of_single_calls(lengths, weight, seed):
    cfg = tiny_model_config(speaker_weight=weight)
    params = well_conditioned_params(cfg, seed=seed)
    feats, targets, speakers = _ragged_batch(cfg, lengths, seed)
    batch, grads = model.loss_and_grads(feats, targets, speakers, params, cfg)
    summed = {k: np.zeros_like(v) for k, v in params.items()}
    for b in range(len(lengths)):
        one, one_grads = model.loss_and_grads(feats[b:b + 1], targets[b:b + 1],
                                              speakers[b:b + 1], params, cfg)
        for name in ("label_loss", "speaker_loss", "total_loss"):
            want = getattr(one, name)[0]
            assert abs(getattr(batch, name)[b] - want) <= 1e-10 * max(abs(want), 1e-3), name
        for key in summed:
            summed[key] += one_grads[key]
    assert set(grads) == set(summed)
    for key in summed:
        assert _max_rel(grads[key], summed[key]) <= 1e-10, key


@settings(max_examples=20, deadline=None)
@given(lengths=st.lists(st.integers(1, 10), min_size=1, max_size=8),
       extra=st.integers(1, 15), seed=st.integers(0, 1000))
def test_padding_with_a_longer_utterance_leaves_losses_unchanged(lengths, extra, seed):
    cfg = tiny_model_config(speaker_weight=1.0)
    params = well_conditioned_params(cfg, seed=seed)
    feats, targets, speakers = _ragged_batch(cfg, lengths + [max(lengths) + extra], seed)
    alone, _ = model.loss_and_grads(feats[:-1], targets[:-1], speakers[:-1], params, cfg)
    padded, _ = model.loss_and_grads(feats, targets, speakers, params, cfg)
    for name in ("label_loss", "speaker_loss", "total_loss"):
        np.testing.assert_allclose(getattr(padded, name)[:-1], getattr(alone, name),
                                   rtol=1e-12, atol=1e-15)


def test_grad_check_on_ragged_batch():
    cfg = tiny_model_config(speaker_weight=0.7)
    params = well_conditioned_params(cfg, seed=51)
    feats, targets, speakers = _ragged_batch(cfg, [1, 4, 6], seed=52)
    xs, lengths = encoder.pad_batch(feats)

    def loss(p):
        # forward only, composed here independently of loss_and_grads
        caps, _ = capsnet.forward(xs, p, cfg, lengths=lengths)
        spk, _ = multitask.head_forward(caps, p, speakers)
        return float(np.sum(capsnet.margin_loss(caps, targets) + cfg.speaker_weight * spk))

    rep = grad_check(loss, lambda p: model.loss_and_grads(feats, targets, speakers, p, cfg)[1],
                     params)
    assert rep.max_relative_error < 1e-4, rep


def test_empty_batch_rejected():
    cfg = tiny_model_config()
    with pytest.raises(DataError):
        model.loss_and_grads([], np.zeros((0, cfg.num_labels)), [], model.init_params(cfg), cfg)


def test_divergence_names_the_first_bad_utterance():
    cfg = tiny_model_config()
    params = model.init_params(cfg)
    feats, targets, speakers = _ragged_batch(cfg, [3] * 20, seed=1)
    for bad in (17, 19):
        feats[bad] = feats[bad] * np.inf
    with pytest.warns(RuntimeWarning), pytest.raises(DivergenceError) as info:
        model.loss_and_grads(feats, targets, speakers, params, cfg)
    assert info.value.index == 17

    corpus = _small_corpus(per_speaker=6)
    utts = list(corpus.utterances)
    bad = utts[5]
    utts[5] = datasets.Utterance(id=bad.id, target=bad.target, speaker_index=bad.speaker_index,
                                 features=bad.features * np.inf)
    with pytest.warns(RuntimeWarning), \
            pytest.raises(DivergenceError, match=f"utterance {bad.id}$"):
        experiments.fit(utts, _small_config(), epochs=1)


def test_routing_overflow_in_loss_and_grads_is_divergence():
    cfg = tiny_model_config()
    params = model.init_params(cfg)
    params["caps.W"] = params["caps.W"] * 1e158
    feats, targets, speakers = _ragged_batch(cfg, [3, 4], seed=2)
    with np.errstate(all="ignore"):
        with pytest.raises(DivergenceError) as info:
            model.loss_and_grads(feats[:1], targets[:1], speakers[:1], params, cfg)
        assert info.value.index == 0
        with pytest.raises(DivergenceError) as info:
            model.loss_and_grads(feats, targets, speakers, params, cfg)
        assert info.value.index == 0


def test_fit_names_the_utterance_whose_routing_overflows(monkeypatch):
    init = model.init_params

    def exploding(config):
        params = init(config)
        params["caps.W"] = params["caps.W"] * 1e158
        return params

    monkeypatch.setattr(model, "init_params", exploding)
    utts = list(_small_corpus(per_speaker=2).utterances)
    with np.errstate(all="ignore"), pytest.raises(DivergenceError) as info:
        experiments.fit(utts, _small_config(), epochs=1)
    assert str(info.value).startswith("non-finite loss at epoch 0, utterance ")


# ---------------------------------------------------------------------------
# batched evaluation


@settings(max_examples=25, deadline=None)
@given(lengths=st.lists(st.integers(1, 12), min_size=1, max_size=20),
       trained=st.booleans(), seed=st.integers(0, 1000))
def test_evaluate_on_a_ragged_batch_equals_each_utterance_alone(lengths, trained, seed):
    cfg = tiny_model_config()
    params = well_conditioned_params(cfg, seed=seed) if trained else model.init_params(cfg)
    feats, _, _ = _ragged_batch(cfg, lengths, seed)
    caps, probs = model.evaluate(feats, params, cfg)
    for b in range(len(feats)):
        caps_alone, probs_alone = model.evaluate(feats[b:b + 1], params, cfg)
        np.testing.assert_allclose(np.linalg.norm(caps[b], axis=-1),
                                   np.linalg.norm(caps_alone[0], axis=-1), rtol=1e-12, atol=0)
        np.testing.assert_allclose(probs[b], probs_alone[0], rtol=1e-12, atol=0)


def test_predict_corpus_answers_as_predict_does():
    corpus = _small_corpus(per_speaker=7, noise=0.3)
    cfg = _small_config(speaker_weight=1.0)
    params = well_conditioned_params(cfg, seed=8)
    utts = corpus.utterances
    assert len(utts) > model._SLICE
    labels, speakers = experiments.predict_corpus(utts, params, cfg, corpus.vocab)
    assert list(zip(labels, speakers)) == [model.predict(u.features, params, cfg, corpus.vocab)
                                           for u in utts]
    assert experiments.predict_corpus([], params, cfg, corpus.vocab) == ([], [])


def test_evaluate_rejects_an_unbatched_matrix():
    cfg = tiny_model_config()
    with pytest.raises(DataError):
        model.evaluate(np.zeros((5, cfg.feat_dim)), model.init_params(cfg), cfg)
