import dataclasses
import json
import os

import numpy as np
import pytest

import capsintent.model as model
from capsintent import capsnet, datasets, experiments
from capsintent.errors import ContractError, DivergenceError, UsageError

from opexamples import _small_config, _small_corpus, by_module


@pytest.mark.parametrize("ex", by_module("experiments"), ids=lambda e: e.id)
def test_op_examples(ex):
    ex.fn()


# ---------------------------------------------------------------------------
# metrics edge cases


def test_f1_length_mismatch():
    with pytest.raises(UsageError):
        experiments.f1_score([["a"]], [["a"], ["b"]])


def test_f1_all_empty_both_sides():
    assert experiments.f1_score([[], []], [[], []]) == 1.0


def test_speaker_accuracy_length_mismatch():
    with pytest.raises(UsageError):
        experiments.speaker_accuracy([1], [1, 2])


def test_intent_accuracy_needs_groups():
    vocab = datasets.LabelVocabulary(labels=("a",))
    with pytest.raises(UsageError):
        experiments.intent_accuracy([["a"]], [["a"]], vocab)


def test_metrics_pure_recompute():
    preds = [["a", "b"], ["b"], []]
    refs = [["a"], ["b"], ["a", "b"]]
    first = experiments.f1_score(preds, refs)
    assert experiments.f1_score(list(preds), list(refs)) == first


# ---------------------------------------------------------------------------
# fit


def test_fit_empty_training_set():
    with pytest.raises(UsageError):
        experiments.fit([], _small_config())


def test_fit_early_stopping_on_plateau(monkeypatch):
    monkeypatch.setattr(experiments, "EARLY_STOP_DELTA", 1e9)
    monkeypatch.setattr(experiments, "EARLY_STOP_PATIENCE", 2)
    corpus = _small_corpus(per_speaker=10)
    cfg = _small_config()
    result = experiments.fit(corpus.utterances, cfg, epochs=50)
    # improvement can never beat a huge delta, so training stops after
    # patience epochs beyond the first
    assert result.stopped_early
    assert len(result.history) == 3


def test_fit_divergence_raises():
    corpus = _small_corpus(per_speaker=6)
    bad = [datasets.Utterance(id=u.id, target=u.target, speaker_index=u.speaker_index,
                              features=u.features * np.inf)
           for u in corpus.utterances]
    with pytest.warns(RuntimeWarning), pytest.raises(DivergenceError):
        experiments.fit(bad, _small_config(), epochs=1)


def test_fit_seed_reproducibility():
    corpus = _small_corpus(per_speaker=8)
    cfg = _small_config(seed=17)
    a = experiments.fit(corpus.utterances, cfg, epochs=2)
    b = experiments.fit(corpus.utterances, cfg, epochs=2)
    assert [s.total_loss for s in a.history] == [s.total_loss for s in b.history]
    for key in a.params:
        assert a.params[key].tobytes() == b.params[key].tobytes()


def test_fit_validation_selection(monkeypatch):
    corpus = _small_corpus(per_speaker=12, noise=0.1)
    cfg = _small_config(speaker_weight=0.0)
    valid = corpus.utterances[24:36]
    scores, snapshots = [], []
    evaluate_model = experiments.evaluate_model

    def recording(utts, params, config, vocab):
        out = evaluate_model(utts, params, config, vocab)
        scores.append(out["intent_accuracy"])
        snapshots.append({k: v.copy() for k, v in params.items()})
        return out

    monkeypatch.setattr(experiments, "evaluate_model", recording)
    result = experiments.fit(corpus.utterances[:24], cfg, epochs=4, valid=valid,
                             vocab=corpus.vocab)
    # the first epoch with the best validation intent accuracy, and its parameters
    assert len(scores) == 4
    assert result.best_epoch == scores.index(max(scores))
    for key, value in snapshots[result.best_epoch].items():
        assert result.params[key].tobytes() == value.tobytes()


# ---------------------------------------------------------------------------
# learning curve harness


def test_schedule_validation():
    with pytest.raises(UsageError):
        experiments.validate_schedule([], 10)
    with pytest.raises(UsageError):
        experiments.validate_schedule([1, 1], 10)
    with pytest.raises(UsageError):
        experiments.validate_schedule([1, 10], 10)
    assert experiments.validate_schedule([1, 5, 9], 10) == [1, 5, 9]


def test_default_schedule_caps_at_blocks():
    assert experiments.default_schedule(150)[-1] == 149
    assert experiments.default_schedule(10) == [1, 2, 3, 5, 8]


def test_point_repeats_policy():
    assert experiments.point_repeats(5, None) == 3
    assert experiments.point_repeats(10, None) == 1
    assert experiments.point_repeats(5, 7) == 7


def test_blocks_train_test_disjoint():
    blocks = [["a", "b"], ["c"], ["d", "e"]]
    train, test = experiments._blocks_train_test(blocks, 1)
    assert train == ["a", "b"]
    assert test == ["c", "d", "e"]
    with pytest.raises(ContractError):
        experiments._blocks_train_test([["a"], ["a", "b"]], 1)


def test_learning_curve_repeats_and_stddev():
    corpus = _small_corpus(per_speaker=20, noise=0.1)
    split = datasets.split_blocks(corpus, 8, "speaker_independent", seed=1)
    cfg = _small_config()
    points = experiments.learning_curve(corpus, split, [2], cfg, repeats=2,
                                        fit_options={"epochs": 2})
    assert points[0].repeats == 2
    assert points[0].stddev_f1 >= 0.0
    assert not points[0].failed


@pytest.mark.parametrize("repeats", [0, -1])
def test_learning_curve_rejects_repeats_below_one_before_fitting(monkeypatch, repeats):
    corpus = _small_corpus(per_speaker=8)
    split = datasets.split_blocks(corpus, 4, "speaker_independent", seed=1)

    def no_fit(*args, **kw):
        raise AssertionError("learning_curve fitted before checking repeats")

    monkeypatch.setattr(experiments, "fit", no_fit)
    with pytest.raises(UsageError, match="repeats must be at least 1"):
        experiments.learning_curve(corpus, split, [1], _small_config(), repeats=repeats)


def test_learning_curve_dependent_mode():
    corpus = _small_corpus(per_speaker=12, noise=0.1)
    split = datasets.split_blocks(corpus, 4, "speaker_dependent", seed=1)
    cfg = _small_config(speaker_weight=0.0)
    points = experiments.learning_curve(corpus, split, [1, 2], cfg, repeats=1,
                                        fit_options={"epochs": 2})
    assert len(points) == 2
    assert points[0].train_utterances == 3  # 12 utterances over 4 blocks
    assert points[1].train_utterances == 6


def test_run_sweep_axes():
    corpus = _small_corpus(per_speaker=12, noise=0.1)
    split = datasets.split_blocks(corpus, 4, "speaker_independent", seed=1)
    cfg = _small_config()
    curves = experiments.run_sweep(corpus, split, [1], cfg,
                                   experiments.SweepSpec("speaker_weight", [0.0, 1.0]),
                                   repeats=1, fit_options={"epochs": 1})
    assert set(curves) == {0.0, 1.0}
    curves = experiments.run_sweep(corpus, split, [1], cfg,
                                   experiments.SweepSpec("output_dim", [2, 4]),
                                   repeats=1, fit_options={"epochs": 1})
    assert set(curves) == {2, 4}


def test_sweep_spec_validation():
    with pytest.raises(UsageError):
        experiments.SweepSpec("bogus", [1])
    with pytest.raises(UsageError):
        experiments.SweepSpec("output_dim", [])
    with pytest.raises(UsageError, match="integers"):
        experiments.SweepSpec("output_dim", [2, 4.0])
    for axis, values in (("speaker_weight", [1, 1.0, 0]), ("output_dim", [4, 2, 4])):
        with pytest.raises(UsageError, match="sweep values must differ"):
            experiments.SweepSpec(axis, values)


def test_derive_seed_stable_and_distinct():
    a = experiments.derive_seed(5, 0, 0)
    assert a == experiments.derive_seed(5, 0, 0)
    assert a != experiments.derive_seed(5, 0, 1)
    assert a != experiments.derive_seed(6, 0, 0)


# ---------------------------------------------------------------------------
# result files


def test_write_curve_csv_and_gaps(tmp_path):
    points = [
        experiments.LearningCurvePoint(40, 0.5, 0.01, 0.9, 1),
        experiments.LearningCurvePoint(0, float("nan"), float("nan"), float("nan"), 0, failed=True),
        experiments.LearningCurvePoint(80, 0.75, 0.0, 0.95, 1),
    ]
    path = tmp_path / "curve.csv"
    experiments.write_curve_csv(str(path), points)
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "train_utterances,f1,stddev_f1,speaker_acc,repeats"
    assert len(lines) == 3  # header + two surviving points; failed row is a gap
    assert lines[1].startswith("40,0.5")


def test_run_manifest_hash_verifiable(tmp_path):
    path = tmp_path / "run.json"
    experiments.write_run_manifest(str(path), {"a": 1}, "synth", {"base": 0})
    body = json.loads(path.read_text())
    stored = body.pop("content_hash")
    canonical = json.dumps(body, sort_keys=True).encode()
    assert experiments.git_blob_hash(canonical) == stored


def test_train_test_replication_missing_splits():
    corpus = _small_corpus(per_speaker=6)
    with pytest.raises(UsageError):
        experiments.train_test_replication(corpus, _small_config())


def test_train_test_replication_on_synthetic_splits():
    corpus = _small_corpus(per_speaker=30, noise=0.1)
    ids = [u.id for u in corpus.utterances]
    rng = np.random.default_rng(0)
    perm = rng.permutation(len(ids))
    corpus.splits = {
        "train": [ids[i] for i in perm[:50]],
        "valid": [ids[i] for i in perm[50:60]],
        "test": [ids[i] for i in perm[60:90]],
    }
    report = experiments.train_test_replication(corpus, _small_config(speaker_weight=0.0),
                                                fit_options={"epochs": 3})
    assert set(report) >= {"accuracy_partial", "accuracy_full", "reference"}
    assert report["reference"]["multitask_reference"] == {"partial": 0.978, "full": 0.981}
    assert report["reference"]["baseline_reference"] == {"partial": 0.889, "full": 0.966}
    assert 0.0 <= report["accuracy_partial"] <= 1.0
    assert report["train_size_partial"] < report["train_size_full"]


# ---------------------------------------------------------------------------
# fit's validation-selection setup


@pytest.mark.parametrize("kwargs, match", [
    ({"valid": None}, "valid"),
    ({"valid": []}, "valid"),
    ({"vocab": None}, "vocabulary"),
    ({"vocab": datasets.LabelVocabulary(labels=("a", "b", "c", "d"))}, "slot groups"),
], ids=["no_valid", "empty_valid", "no_vocab", "intent_without_groups"])
def test_fit_rejects_bad_selection_before_training(monkeypatch, kwargs, match):
    corpus = _small_corpus(per_speaker=4)
    options = {"valid": corpus.utterances[:4], "vocab": corpus.vocab, **kwargs}

    def no_training(*args, **kw):
        raise AssertionError("fit trained before checking its selection setup")

    monkeypatch.setattr(model, "loss_and_grads", no_training)
    with pytest.raises(UsageError, match=match):
        experiments.fit(corpus.utterances, _small_config(), epochs=1, **options)


@pytest.mark.parametrize("option", ["epochs"])
def test_fit_rejects_counts_below_one_before_training(monkeypatch, option):
    corpus = _small_corpus(per_speaker=4)

    def no_training(*args, **kw):
        raise AssertionError("fit trained before checking its options")

    monkeypatch.setattr(model, "loss_and_grads", no_training)
    with pytest.raises(UsageError, match=f"{option} must be at least 1"):
        experiments.fit(corpus.utterances, _small_config(), **{option: 0})


# ---------------------------------------------------------------------------
# one curve-job loop


def test_curve_jobs_per_mode():
    corpus = _small_corpus(per_speaker=8)
    split = datasets.split_blocks(corpus, 4, "speaker_independent", seed=1)
    (train, test, seed), = experiments.curve_jobs(split, 1, 5, 2, 1)
    assert (train, test) == experiments._blocks_train_test(split.blocks, 1)
    assert seed == experiments.derive_seed(5, 2, 1)
    split = datasets.split_blocks(corpus, 4, "speaker_dependent", seed=1)
    jobs = experiments.curve_jobs(split, 2, 5, 0, 0)
    assert [s for _, _, s in jobs] == [experiments.derive_seed(5, 0, 0, spk)
                                       for spk in sorted(split.per_speaker)]


def test_dependent_point_is_the_mean_over_speakers():
    corpus = _small_corpus(per_speaker=12, noise=0.1)
    split = datasets.split_blocks(corpus, 4, "speaker_dependent", seed=1)
    cfg = _small_config(speaker_weight=0.5)
    fit_options = {"epochs": 2}
    point, = experiments.learning_curve(corpus, split, [2], cfg, repeats=1,
                                        fit_options=fit_options)
    f1s, accs, sizes = [], [], []
    for spk in sorted(split.per_speaker):
        train = [i for block in split.per_speaker[spk][:2] for i in block]
        test = [i for block in split.per_speaker[spk][2:] for i in block]
        job_cfg = dataclasses.replace(cfg, seed=experiments.derive_seed(cfg.seed, 0, 0, spk))
        result = experiments.fit(corpus.subset(train), job_cfg, **fit_options)
        scores = experiments.evaluate_model(corpus.subset(test), result.params, job_cfg,
                                            corpus.vocab)
        f1s.append(scores["f1"])
        accs.append(scores["speaker_accuracy"])
        sizes.append(len(train))
    assert point.f1 == float(np.mean(f1s))
    assert point.speaker_acc == float(np.mean(accs))
    assert point.train_utterances == int(round(np.mean(sizes)))
    assert (point.repeats, point.stddev_f1, point.failed) == (1, 0.0, False)
