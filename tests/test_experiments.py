import contextlib
import dataclasses
import json
import os
import signal
import subprocess
import sys

import numpy as np
import pytest

import capsintent.model as model
from capsintent import capsnet, datasets, experiments
from capsintent.errors import CapsIntentError, DivergenceError, UsageError

from helpers import diverge_on_seeds, reference_curve_jobs, reference_split_blocks
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


def test_speaker_accuracy_of_zero_utterances():
    with pytest.raises(UsageError, match="zero utterances"):
        experiments.speaker_accuracy([], [])


def test_intent_accuracy_length_mismatch():
    vocab = datasets.LabelVocabulary(labels=("g:a", "g:b"),
                                     slot_groups=(datasets.SlotGroup("g", ("g:a", "g:b"), True),))
    with pytest.raises(UsageError, match="got 1 predictions for 2 references"):
        experiments.intent_accuracy([["g:a"]], [["g:a"], ["g:b"]], vocab)


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


def test_fit_results_do_not_depend_on_heap_state():
    corpus = _small_corpus(per_speaker=11)
    cfg = _small_config(encoder_hidden=32, num_primary=64, primary_dim=8, output_dim=8,
                        routing_iters=3, speaker_weight=1.0, seed=17)
    a = experiments.fit(corpus.utterances, cfg, epochs=3)
    # unrelated allocations, some freed and some held, leave the heap in
    # another state for the second fit: pages reused, blocks moved, arrays
    # on either side of the mmap threshold
    held = [np.ones(size) for size in (3_000, 70_000, 600_000, 5_000_000)]
    for size in (40_000, 2_000_000, 6_000_000):
        np.ones(size)
    held += [np.ones(size) for size in (1_500, 250_000)]
    b = experiments.fit(corpus.utterances, cfg, epochs=3)
    del held
    assert a.history == b.history
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
    for schedule in ([0, 1], [-1, 1]):
        with pytest.raises(UsageError) as info:
            experiments.validate_schedule(schedule, 10)
        assert str(info.value) == f"schedule points must be >= 1 block, got {schedule}"
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


def test_learning_curve_repeats_and_stddev():
    corpus = _small_corpus(per_speaker=20, noise=0.1)
    split = datasets.split_blocks(corpus, 8, "speaker_independent", seed=1)
    cfg = _small_config()
    points = experiments.learning_curve(corpus, split, [2], cfg, repeats=2,
                                        fit_options={"epochs": 2})
    assert points[0].repeats == 2
    assert points[0].stddev_f1 >= 0.0
    assert not points[0].failed
    # each repeat's job is kept with its derived seed, and refitting from
    # that seed alone reproduces its scores
    first, second = points[0].repeat_jobs
    assert [job["seed"] for job in first + second] == [experiments.derive_seed(cfg.seed, 0, rep)
                                                       for rep in range(2)]
    assert points[0].f1 == float(np.mean([first[0]["f1"], second[0]["f1"]]))
    assert points[0].stddev_f1 == float(np.std([first[0]["f1"], second[0]["f1"]], ddof=1))
    train, test = experiments._blocks_train_test(split.blocks, 2)
    job_cfg = dataclasses.replace(cfg, seed=second[0]["seed"])
    result = experiments.fit(corpus.subset(train), job_cfg, epochs=2)
    scores = experiments.evaluate_model(corpus.subset(test), result.params, job_cfg,
                                        corpus.vocab)
    assert (scores["f1"], scores["speaker_accuracy"]) == (second[0]["f1"],
                                                          second[0]["speaker_acc"])


@pytest.mark.parametrize("repeats, message", [
    pytest.param(0, "repeats must be at least 1, got 0", id="0"),
    pytest.param(-1, "repeats must be at least 1, got -1", id="-1"),
    pytest.param(1.5, "repeats must be Optional[int], got float 1.5", id="1.5"),
    pytest.param(True, "repeats must be Optional[int], got bool True", id="True"),
])
def test_learning_curve_rejects_repeats_below_one_before_fitting(monkeypatch, repeats, message):
    corpus = _small_corpus(per_speaker=8)
    split = datasets.split_blocks(corpus, 4, "speaker_independent", seed=1)

    def no_fit(*args, **kw):
        raise AssertionError("learning_curve fitted before checking repeats")

    monkeypatch.setattr(experiments, "fit", no_fit)
    with pytest.raises(UsageError) as info:
        experiments.learning_curve(corpus, split, [1], _small_config(), repeats=repeats)
    assert str(info.value) == message


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


def test_sweep_spec_validation(monkeypatch):
    # the run's seed pairs the jobs and the corpus sets feat_dim: neither is an axis
    for axis in ("bogus", "seed", "feat_dim"):
        with pytest.raises(UsageError, match=f"^unknown sweep axis '{axis}'$"):
            experiments.SweepSpec(axis, [1, 2])
    for axis in experiments.MODEL_KEYS:
        assert experiments.SweepSpec(axis, [1, 2]).axis == axis
    with pytest.raises(UsageError):
        experiments.SweepSpec("output_dim", [])
    # a value is checked by the ModelConfig run_sweep builds from it, before any fit
    corpus = _small_corpus(per_speaker=8)
    split = datasets.split_blocks(corpus, 4, "speaker_independent", seed=1)

    def no_fit(*args, **kw):
        raise AssertionError("run_sweep fitted before checking its values")

    monkeypatch.setattr(experiments, "fit", no_fit)
    with pytest.raises(UsageError) as info:
        experiments.run_sweep(corpus, split, [1], _small_config(),
                              experiments.SweepSpec("output_dim", [2, 4.0]))
    assert str(info.value) == "output_dim must be int, got float 4.0"
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


@pytest.mark.parametrize("option, value, message", [
    pytest.param("epochs", 0, "epochs must be at least 1, got 0", id="epochs"),
    pytest.param("epochs", None, "epochs must be int, got NoneType None", id="epochs_none"),
    pytest.param("epochs", 2.5, "epochs must be int, got float 2.5", id="epochs_float"),
    pytest.param("epochs", True, "epochs must be int, got bool True", id="epochs_bool"),
])
def test_fit_rejects_counts_below_one_before_training(monkeypatch, option, value, message):
    corpus = _small_corpus(per_speaker=4)

    def no_training(*args, **kw):
        raise AssertionError("fit trained before checking its options")

    monkeypatch.setattr(model, "loss_and_grads", no_training)
    with pytest.raises(UsageError) as info:
        experiments.fit(corpus.utterances, _small_config(), **{option: value})
    assert str(info.value) == message


# ---------------------------------------------------------------------------
# one curve-job loop


def test_curve_jobs_per_mode():
    corpus = _small_corpus(per_speaker=8)
    split = datasets.split_blocks(corpus, 4, "speaker_independent", seed=1)
    (train, test, seed), = experiments.curve_jobs(corpus, split, 1, 5, 2, 1)
    assert (train, test) == experiments._blocks_train_test(split.blocks, 1)
    assert seed == experiments.derive_seed(5, 2, 1)
    split = datasets.split_blocks(corpus, 4, "speaker_dependent", seed=1)
    jobs = experiments.curve_jobs(corpus, split, 2, 5, 0, 0)
    assert [s for _, _, s in jobs] == [experiments.derive_seed(5, 0, 0, spk)
                                       for spk in range(len(corpus.speakers))]


def _uneven_corpus():
    """Speakers with 12, 12 and 7 utterances."""
    full = _small_corpus(per_speaker=12)
    kept = [u for u in full.utterances if u.speaker_index < 2 or u.id < "synth-s02-u0007"]
    return datasets.Corpus(name="uneven", utterances=kept, vocab=full.vocab,
                           speakers=full.speakers)


def _grid_corpus():
    """``results/speaker_weight.py``'s corpus, split there into 150 blocks:
    ``mimic_grabo`` at noise 0.2, corpus seed 21."""
    return datasets.synth_generate(datasets.mimic_grabo_spec(noise_level=0.2), seed=21)


@pytest.mark.parametrize("mode", datasets.SPLIT_MODES)
@pytest.mark.parametrize("make, num_blocks", [(_grid_corpus, 150), (_uneven_corpus, 4)],
                         ids=["grid", "uneven"])
def test_curve_jobs_are_the_reference_dealing_jobs(make, num_blocks, mode):
    corpus = make()
    split = datasets.split_blocks(corpus, num_blocks, mode, seed=5)
    dealt = reference_split_blocks(corpus, num_blocks, mode, seed=5)
    for k in (1, 2, num_blocks - 1):
        for p_idx in (0, 1):
            for rep in (0, 1):
                assert experiments.curve_jobs(corpus, split, k, 42, p_idx, rep) == \
                    reference_curve_jobs(dealt, k, 42, p_idx, rep)


def test_failed_dependent_point_keeps_the_mean_per_speaker_size(monkeypatch):
    # speakers with 12, 12 and 7 utterances train on 6, 6 and 4 of them at k=2
    corpus = _uneven_corpus()
    split = datasets.split_blocks(corpus, 4, "speaker_dependent", seed=1)

    def diverge(*args, **kwargs):
        raise DivergenceError("forced")

    monkeypatch.setattr(experiments, "fit", diverge)
    point, = experiments.learning_curve(corpus, split, [2], _small_config(), repeats=2)
    assert (point.train_utterances, point.repeats, point.failed) == (5, 0, True)
    assert np.isnan([point.f1, point.stddev_f1, point.speaker_acc]).all()


def test_dependent_point_is_the_mean_over_speakers():
    corpus = _small_corpus(per_speaker=12, noise=0.1)
    split = datasets.split_blocks(corpus, 4, "speaker_dependent", seed=1)
    cfg = _small_config(speaker_weight=0.5)
    fit_options = {"epochs": 2}
    point, = experiments.learning_curve(corpus, split, [2], cfg, repeats=1,
                                        fit_options=fit_options)
    f1s, accs, sizes = [], [], []
    for spk in range(len(corpus.speakers)):
        train = [i for block in split.blocks[:2] for i in block
                 if corpus.by_id(i).speaker_index == spk]
        test = [i for block in split.blocks[2:] for i in block
                if corpus.by_id(i).speaker_index == spk]
        job_cfg = dataclasses.replace(cfg, seed=experiments.derive_seed(cfg.seed, 0, 0, spk))
        result = experiments.fit(corpus.subset(train), job_cfg, **fit_options)
        scores = experiments.evaluate_model(corpus.subset(test), result.params, job_cfg,
                                            corpus.vocab)
        f1s.append(scores["f1"])
        accs.append(scores["speaker_accuracy"])
        sizes.append(len(train))
    assert point.f1 == float(np.mean(f1s))
    assert point.speaker_acc == float(np.mean(accs))
    assert point.repeat_jobs == [[
        {"seed": experiments.derive_seed(cfg.seed, 0, 0, spk), "f1": f1, "speaker_acc": acc}
        for spk, f1, acc in zip(range(len(corpus.speakers)), f1s, accs)]]
    assert point.train_utterances == int(round(np.mean(sizes)))
    assert (point.repeats, point.stddev_f1, point.failed) == (1, 0.0, False)


# ---------------------------------------------------------------------------
# one job runner: forked workers give the serial results


@pytest.fixture(autouse=True)
def no_child_left():
    """Every test here ends with no child process left, running or unreaped."""
    yield
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@contextlib.contextmanager
def _deadline(seconds: int):
    """Raise TimeoutError in this process if the block runs past ``seconds``."""
    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def _with_cpus(monkeypatch, cpus: int) -> None:
    monkeypatch.setattr(experiments, "_usable_cpus", lambda: cpus)


@pytest.mark.parametrize("cpus", [1, 2, 3])
def test_map_jobs_deals_round_robin_and_returns_job_order(monkeypatch, cpus):
    _with_cpus(monkeypatch, cpus)
    parent = os.getpid()
    with _deadline(60):
        done = experiments._map_jobs(lambda job: (job, os.getpid()), range(7))
    assert [job for job, _ in done] == list(range(7))
    pids = [pid for _, pid in done]
    # this process works jobs 0, cpus, 2 * cpus, ...; one child each other share
    assert [i for i, pid in enumerate(pids) if pid == parent] == list(range(0, 7, cpus))
    assert len(set(pids)) == cpus
    assert all(pids[i] == pids[i % cpus] for i in range(7))


def test_map_jobs_without_fork_is_the_plain_loop(monkeypatch):
    _with_cpus(monkeypatch, 3)
    monkeypatch.delattr(os, "fork")
    assert experiments._map_jobs(lambda job: (job, os.getpid()), range(4)) == \
        [(job, os.getpid()) for job in range(4)]


def _sweep_payloads(mode: str):
    corpus = _small_corpus(per_speaker=8, noise=0.1)
    split = datasets.split_blocks(corpus, 4, mode, seed=1)
    curves = experiments.run_sweep(corpus, split, [1, 2], _small_config(),
                                   experiments.SweepSpec("speaker_weight", [0.0, 1.0]),
                                   repeats=2, fit_options={"epochs": 1})
    return json.dumps({str(value): experiments.points_payload(points)
                       for value, points in curves.items()}).encode()


@pytest.mark.parametrize("mode", datasets.SPLIT_MODES)
def test_sweep_points_are_the_same_bytes_at_any_cpu_count(monkeypatch, mode):
    payloads = []
    for cpus in (1, 2, 3):
        _with_cpus(monkeypatch, cpus)
        with _deadline(120):
            payloads.append(_sweep_payloads(mode))
    assert payloads[1] == payloads[0] and payloads[2] == payloads[0]


@pytest.mark.parametrize("cpus", [2, 3])
def test_job_diverging_in_a_child_gives_the_serial_points_and_warnings(monkeypatch, caplog,
                                                                       cpus):
    # two values x two points x two repeats: job 1, the first point's second
    # repeat of the first value, and job 5, the same repeat of the second
    # value, share a seed and land in child shares at 2 and at 3 workers
    cfg = _small_config()
    diverge_on_seeds(monkeypatch, {experiments.derive_seed(cfg.seed, 0, 1)})
    runs = []
    for n in (1, cpus):
        _with_cpus(monkeypatch, n)
        caplog.clear()
        with _deadline(120):
            payload = _sweep_payloads("speaker_independent")
        runs.append((payload, caplog.record_tuples))
    assert runs[1] == runs[0]
    assert [message for _, _, message in runs[0][1]] == \
        [f"curve point 1 blocks, repeat 1 diverged: forced on seed "
         f"{experiments.derive_seed(cfg.seed, 0, 1)}"] * 2


@pytest.mark.parametrize("cpus", [2, 3])
@pytest.mark.parametrize("raising", [[0], [1], [1, 2], [2, 4]],
                         ids=["parent", "child", "child_first", "parent_and_child"])
def test_map_jobs_raises_the_first_error_a_serial_loop_would(monkeypatch, cpus, raising):
    # jobs 0 and (at 2 workers) 2 and 4 are this process's own; the
    # earliest raising job's error reaches the caller with its type and text
    _with_cpus(monkeypatch, cpus)

    def fn(job):
        if job in raising:
            raise UsageError(f"job {job} refused")
        return job

    # a raising sweep leaves this process's CPU set and BLAS threads as they were
    calls = experiments._openblas_thread_calls()
    threads = calls and calls[0]()
    if calls:
        calls[1](2)   # OpenBLAS's default on two CPUs
    try:
        allowed = os.sched_getaffinity(0)
        with _deadline(60), pytest.raises(UsageError) as info:
            experiments._map_jobs(fn, range(6))
        after = (os.sched_getaffinity(0), calls and calls[0]())
    finally:
        if calls:
            calls[1](threads)
    assert type(info.value) is UsageError and str(info.value) == f"job {raising[0]} refused"
    assert after == (allowed, calls and 2)


@pytest.mark.parametrize("cpus", [2, 3])
def test_map_jobs_names_the_jobs_of_a_killed_worker(monkeypatch, cpus):
    _with_cpus(monkeypatch, cpus)
    parent = os.getpid()

    def fn(job):
        if os.getpid() != parent:
            os.kill(os.getpid(), signal.SIGKILL)
        return job

    with _deadline(60), pytest.raises(CapsIntentError) as info:
        experiments._map_jobs(fn, range(5))
    assert str(info.value) == (f"the worker process for jobs {list(range(1, 5, cpus))} of 5 "
                               f"was killed by signal {int(signal.SIGKILL)} before sending "
                               f"its results")


def test_map_jobs_runs_its_workers_on_one_blas_thread(monkeypatch):
    calls = experiments._openblas_thread_calls()
    if calls is None:
        pytest.skip("NumPy's BLAS is not OpenBLAS")
    get_threads, set_threads = calls
    _with_cpus(monkeypatch, 2)
    threads = get_threads()
    set_threads(2)   # OpenBLAS's default on two CPUs
    try:
        with _deadline(60):
            seen = experiments._map_jobs(lambda job: get_threads(), range(4))
        after = get_threads()
    finally:
        set_threads(threads)
    assert (seen, after) == ([1] * 4, 2)


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="no CPU affinity")
def test_map_jobs_runs_each_worker_on_a_cpu_of_its_own(monkeypatch):
    allowed = os.sched_getaffinity(0)
    cpus = sorted(allowed)
    _with_cpus(monkeypatch, 3)
    with _deadline(60):
        seen = experiments._map_jobs(lambda job: os.sched_getaffinity(0), range(6))
    # job i is worker i % 3's, bound to that usable CPU, counting round
    assert seen == [{cpus[i % 3 % len(cpus)]} for i in range(6)]
    assert os.sched_getaffinity(0) == allowed


def test_map_jobs_without_openblas_or_cpu_affinity_gives_the_same_results(monkeypatch):
    _with_cpus(monkeypatch, 2)
    monkeypatch.setattr(experiments, "_openblas_thread_calls", lambda: None)
    monkeypatch.delattr(os, "sched_setaffinity", raising=False)
    with _deadline(60):
        assert experiments._map_jobs(lambda job: -job, range(3)) == [0, -1, -2]


THREADS_AT_EACH_FORK = """
import os
import numpy as np
from capsintent import experiments

def threads():
    with open("/proc/self/stat") as stat:
        return int(stat.read().rpartition(")")[2].split()[17])

real_fork, seen = os.fork, []

def fork():
    pid = real_fork()
    if pid:
        seen.append(threads())
    return pid

os.fork = fork
experiments._usable_cpus = lambda: 3
a = np.ones((600, 600))
a @ a   # OpenBLAS's threads, one per CPU by default, now run
experiments._map_jobs(lambda job: job, range(6))
print(*seen)
"""


@pytest.mark.skipif(not os.path.exists("/proc/self/stat"), reason="counts threads in /proc")
def test_map_jobs_forks_from_a_single_thread_at_the_default_blas_threads():
    # from Python 3.12 a fork in a process running more than one thread
    # warns; OpenBLAS stops its threads before a fork, so none runs then
    env = {var: value for var, value in os.environ.items()
           if var not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [
        os.path.dirname(os.path.dirname(experiments.__file__)), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", THREADS_AT_EACH_FORK], capture_output=True,
                          text=True, env=env, timeout=120, check=True)
    assert proc.stdout.split() == ["1", "1"]



THREADS_IN_EACH_JOB = """
import numpy as np
from capsintent import experiments

def threads(job):
    a = np.ones((300, 300))
    a @ a   # a BLAS call in the job itself
    with open("/proc/self/stat") as stat:
        return int(stat.read().rpartition(")")[2].split()[17])

experiments._usable_cpus = lambda: 3
a = np.ones((600, 600))
a @ a   # OpenBLAS's threads, one per CPU by default, now run
print(*experiments._map_jobs(threads, range(6)))
"""


@pytest.mark.skipif(not os.path.exists("/proc/self/stat"), reason="counts threads in /proc")
def test_map_jobs_runs_each_worker_on_one_thread_at_the_default_blas_threads():
    # a worker that set OpenBLAS's count after the fork would re-create its
    # threads, which spin beside the job on the worker's CPU
    env = {var: value for var, value in os.environ.items()
           if var not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [
        os.path.dirname(os.path.dirname(experiments.__file__)), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", THREADS_IN_EACH_JOB], capture_output=True,
                          text=True, env=env, timeout=120, check=True)
    assert proc.stdout.split() == ["1"] * 6

def test_map_jobs_reaps_the_children_it_forked_when_a_fork_fails(monkeypatch):
    _with_cpus(monkeypatch, 3)
    real_fork, forks = os.fork, []

    def fork():
        if forks:
            raise BlockingIOError("no second child")
        forks.append(real_fork())
        return forks[-1]

    monkeypatch.setattr(os, "fork", fork)
    with _deadline(60), pytest.raises(BlockingIOError, match="no second child"):
        experiments._map_jobs(lambda job: job, range(6))
