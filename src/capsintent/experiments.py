"""Cross-validation learning curves, parameter sweeps, metrics, and training.

Training is one fixed recipe, bar the epoch budget: Adam with step ``ADAM_LR``
over minibatches of ``BATCH_SIZE``, stopping early once the epoch-mean total
loss fails to improve by ``EARLY_STOP_DELTA`` for ``EARLY_STOP_PATIENCE``
consecutive epochs. Each minibatch goes through the model as one padded
batch with its lengths (one ``model.loss_and_grads`` call) and the step uses
the mean gradient.
Everything is deterministic from the config seed; curve points derive
per-(point, repeat) seeds from it.

A sweep's curve jobs are independent and each is fixed by its own seed, so
they run in parallel, one process per CPU this process may use
(``_map_jobs``), with results identical to a serial run. CPU affinity is the
only control: under ``taskset -c 0`` they run one after another in this
process.
"""

from __future__ import annotations

import ctypes
import dataclasses
import functools
import hashlib
import json
import logging
import os
import pickle
from dataclasses import dataclass, field
from typing import Callable, Iterable, Optional, Sequence

import numpy as np

from . import model
from .capsnet import ModelConfig
from .datasets import BlockSplit, Corpus, LabelVocabulary, Utterance, fluent_partial_ids
from .errors import CapsIntentError, DivergenceError, UsageError, check_types
from .features import atomic_write
from .multitask import LossBreakdown
from .numeric import Params

log = logging.getLogger(__name__)

DEFAULT_SCHEDULE = (1, 2, 3, 5, 8, 12, 20, 35, 60, 100, 149)

# published accuracies for the train/test protocol on the smart-home corpus,
# reported alongside our numbers for comparison
REFERENCE_ACCURACY = {
    "multitask_reference": {"partial": 0.978, "full": 0.981},
    "baseline_reference": {"partial": 0.889, "full": 0.966},
}


# ---------------------------------------------------------------------------
# metrics


def _as_sets(collections: Iterable) -> list[frozenset]:
    return [frozenset(c) for c in collections]


def f1_score(predicted: Sequence, reference: Sequence) -> float:
    """Micro-averaged F1 over individual label decisions pooled across
    utterances: 2TP / (2TP + FP + FN); defined as 1.0 when both sides are
    entirely empty."""
    if len(predicted) != len(reference):
        raise UsageError(f"got {len(predicted)} predictions for {len(reference)} references")
    tp = fp = fn = 0
    for pred, ref in zip(_as_sets(predicted), _as_sets(reference)):
        tp += len(pred & ref)
        fp += len(pred - ref)
        fn += len(ref - pred)
    if tp == fp == fn == 0:
        return 1.0
    return 2.0 * tp / (2.0 * tp + fp + fn)


def speaker_accuracy(predicted: Sequence[int], reference: Sequence[int]) -> float:
    """Fraction of exactly matching speaker indices."""
    if len(predicted) != len(reference):
        raise UsageError(f"got {len(predicted)} predictions for {len(reference)} references")
    if not reference:
        raise UsageError("speaker accuracy of zero utterances is undefined")
    return float(np.mean([int(p == r) for p, r in zip(predicted, reference)]))


def intent_accuracy(predicted: Sequence, reference: Sequence, vocab: LabelVocabulary) -> float:
    """Fraction of utterances whose grouped labels all match exactly."""
    if not vocab.slot_groups:
        raise UsageError("intent accuracy needs a vocabulary with slot groups")
    if len(predicted) != len(reference):
        raise UsageError(f"got {len(predicted)} predictions for {len(reference)} references")
    if not reference:
        raise UsageError("intent accuracy of an empty corpus is undefined")
    grouped = {vocab.labels[i] for i in vocab.grouped}
    hits = 0
    for pred, ref in zip(_as_sets(predicted), _as_sets(reference)):
        hits += int((pred & grouped) == (ref & grouped))
    return hits / len(reference)


def scores(preds: Sequence, pred_speakers: Sequence[int], ref_labels: Sequence,
           ref_speakers: Sequence[int], vocab: LabelVocabulary) -> dict[str, float]:
    """Label F1 and speaker accuracy, plus intent accuracy when ``vocab``
    has slot groups."""
    out = {
        "f1": f1_score(preds, ref_labels),
        "speaker_accuracy": speaker_accuracy(pred_speakers, ref_speakers),
    }
    if vocab.slot_groups:
        out["intent_accuracy"] = intent_accuracy(preds, ref_labels, vocab)
    return out


# ---------------------------------------------------------------------------
# optimizer and fitting


ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
ADAM_LR = 1e-3
BATCH_SIZE = 32
EARLY_STOP_DELTA = 1e-4
EARLY_STOP_PATIENCE = 5


class Adam:
    def __init__(self, params: Params):
        self.m = {k: np.zeros_like(v) for k, v in params.items()}
        self.v = {k: np.zeros_like(v) for k, v in params.items()}
        self.t = 0

    def step(self, params: Params, grads: Params) -> None:
        self.t += 1
        correct1 = 1.0 - ADAM_BETA1 ** self.t
        correct2 = 1.0 - ADAM_BETA2 ** self.t
        for key in sorted(params):
            g = grads[key]
            self.m[key] = ADAM_BETA1 * self.m[key] + (1.0 - ADAM_BETA1) * g
            self.v[key] = ADAM_BETA2 * self.v[key] + (1.0 - ADAM_BETA2) * (g * g)
            m_hat = self.m[key] / correct1
            v_hat = self.v[key] / correct2
            params[key] -= ADAM_LR * m_hat / (np.sqrt(v_hat) + ADAM_EPS)


@dataclass
class FitResult:
    params: Params
    history: list[LossBreakdown]       # epoch means
    stopped_early: bool
    best_epoch: Optional[int] = None   # set when validation selection is used


def fit(train: Sequence[Utterance], config: ModelConfig, *,
        epochs: int = 60, valid: Optional[Sequence[Utterance]] = None,
        vocab: Optional[LabelVocabulary] = None) -> FitResult:
    """Train a fresh model on ``train``.

    With ``valid`` and ``vocab`` (which needs slot groups) the epoch
    checkpoint with the best intent accuracy on the validation set is
    returned instead of the final one. An incomplete selection setup, or an
    ``epochs`` that is not an int of at least 1, is a UsageError before any step.
    """
    if not train:
        raise UsageError("cannot fit on an empty training set")
    validate_epochs(epochs)
    select = valid is not None or vocab is not None
    if select and (not valid or vocab is None or not vocab.slot_groups):
        raise UsageError("validation selection needs valid utterances and a vocabulary "
                         "with slot groups")
    params = model.init_params(config)
    opt = Adam(params)
    order_rng = np.random.default_rng(np.random.SeedSequence([config.seed, 1]))
    history: list[LossBreakdown] = []
    stopped_early = False
    streak = 0
    prev_total = None
    best_score, best_epoch, best_params = -np.inf, None, None
    n = len(train)
    for epoch in range(epochs):
        perm = order_rng.permutation(n)
        sums = np.zeros(3)
        for start in range(0, n, BATCH_SIZE):
            batch = [train[i] for i in perm[start:start + BATCH_SIZE]]
            try:
                breakdown, grads = model.loss_and_grads(
                    [u.features for u in batch], [u.target for u in batch],
                    [u.speaker_index for u in batch], params, config)
            except DivergenceError as exc:
                raise DivergenceError(
                    f"non-finite loss at epoch {epoch}, utterance {batch[exc.index].id}"
                ) from exc
            sums += (breakdown.label_loss.sum(), breakdown.speaker_loss.sum(),
                     breakdown.total_loss.sum())
            scale = 1.0 / len(batch)
            opt.step(params, {k: v * scale for k, v in grads.items()})
        stats = LossBreakdown(*(sums / n).tolist())
        history.append(stats)
        if select:
            score = evaluate_model(valid, params, config, vocab)["intent_accuracy"]
            if score > best_score:
                best_score, best_epoch = score, epoch
                best_params = {k: v.copy() for k, v in params.items()}
        if prev_total is not None and prev_total - stats.total_loss < EARLY_STOP_DELTA:
            streak += 1
            if streak >= EARLY_STOP_PATIENCE:
                stopped_early = True
                break
        else:
            streak = 0
        prev_total = stats.total_loss
    return FitResult(params=best_params if select else params, history=history,
                     stopped_early=stopped_early, best_epoch=best_epoch)


def predict_corpus(utts: Sequence[Utterance], params: Params, config: ModelConfig,
                   vocab: LabelVocabulary):
    """Decode labels and speakers for a list of utterances (``model.decode``)."""
    return model.decode([u.features for u in utts], params, config, vocab)


def evaluate_model(utts: Sequence[Utterance], params: Params, config: ModelConfig,
                   vocab: LabelVocabulary) -> dict[str, float]:
    """``scores`` of the model's predictions against the utterances' own
    labels (named by ``vocab``) and speaker indices."""
    preds, speakers = predict_corpus(utts, params, config, vocab)
    return scores(preds, speakers, [vocab.names_of(u.target) for u in utts],
                  [u.speaker_index for u in utts], vocab)


# ---------------------------------------------------------------------------
# independent jobs on every usable CPU


def _usable_cpus() -> int:
    """The CPUs this process may run on: its affinity set where the
    platform reports one, else every CPU."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _map_jobs(fn: Callable, jobs: Sequence) -> list:
    """``[fn(job) for job in jobs]``, with the jobs dealt round-robin over
    ``min(len(jobs), _usable_cpus())`` workers.

    This process works the first share; a child forked for each other
    share works it on its copy of this process's memory and sends back its
    results, pickled, over a pipe. So ``fn`` and the jobs need not pickle,
    and what ``fn`` changes or logs in a child stays there. A raising job
    ends its worker's share, and once every child has exited the exception
    of the earliest raising job, the one a serial loop would meet, reaches
    the caller. A child that ends without sending its share raises
    CapsIntentError naming its jobs. Each worker runs its share alone on a
    CPU (``_work_share``), with the OpenBLAS this process has loaded held at
    one thread from before the first fork, so that N workers run N BLAS
    threads rather than N times OpenBLAS's default of one per CPU, whose
    idle threads spin. Children inherit the hold: a child that set the
    count itself would re-create OpenBLAS's threads, which a fork stops.
    With one worker, or without ``os.fork``, this is the plain loop.
    """
    jobs = list(jobs)
    workers = min(len(jobs), _usable_cpus())
    if workers <= 1 or not hasattr(os, "fork"):
        return [fn(job) for job in jobs]
    blas = _openblas_thread_calls()
    threads = blas and blas[0]()
    if blas:
        blas[1](1)
    children = []
    try:
        for w in range(1, workers):
            children.append(_fork_share(fn, jobs[w::workers], w))
        shares = [_work_share(fn, jobs[::workers], 0)]
    finally:
        ended = [_join(pid, read_fd) for pid, read_fd in children]
        if blas:
            blas[1](threads)
    for w, (share, code) in enumerate(ended, 1):
        if share is None:
            how = f"was killed by signal {-code}" if code < 0 else f"exited with code {code}"
            raise CapsIntentError(f"the worker process for jobs "
                                  f"{list(range(w, len(jobs), workers))} of {len(jobs)} "
                                  f"{how} before sending its results")
        shares.append(share)
    failures = [(w + len(results) * workers, exc)
                for w, (results, exc) in enumerate(shares) if exc is not None]
    if failures:
        raise min(failures, key=lambda failure: failure[0])[1]
    return [shares[i % workers][0][i // workers] for i in range(len(jobs))]


def _work_share(fn: Callable, jobs: Sequence, index: int) -> tuple[list, Optional[Exception]]:
    """(results, exception): ``fn`` of each job in turn until one raises,
    run on the ``index``-th CPU this process may use alone (counting round),
    then restoring its CPU set. Left to itself the scheduler can keep a
    forked child on its parent's CPU while another idles: on a two-CPU host
    a 2-job sweep then ran 0.74x as fast as serially, and 1.46x with each
    worker bound. Without CPU affinity, the plain loop."""
    allowed = os.sched_getaffinity(0) if hasattr(os, "sched_setaffinity") else None
    if allowed:
        os.sched_setaffinity(0, {sorted(allowed)[index % len(allowed)]})
    results = []
    try:
        for job in jobs:
            results.append(fn(job))
    except Exception as exc:
        return results, exc
    finally:
        if allowed:
            os.sched_setaffinity(0, allowed)
    return results, None


@functools.cache
def _openblas_thread_calls() -> Optional[tuple[Callable, Callable]]:
    """The thread count getter and setter of the OpenBLAS mapped into this
    process (NumPy's wheels export them with a ``scipy_`` prefix and a
    ``64_`` suffix), or None where there is none or no ``/proc``. Looked up
    once: NumPy has loaded its BLAS before this module runs."""
    try:
        with open("/proc/self/maps") as maps:
            paths = sorted({line.split(maxsplit=5)[5].strip() for line in maps
                            if "openblas" in line.rpartition("/")[2]})
    except OSError:
        return None
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:   # a mapped file since removed
            continue
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                get_threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                set_threads = getattr(lib, f"{prefix}_set_num_threads{suffix}", None)
                if get_threads and set_threads:
                    return get_threads, set_threads
    return None


def _fork_share(fn: Callable, jobs: Sequence, index: int) -> tuple[int, int]:
    """Fork a child that writes ``_work_share(fn, jobs, index)`` pickled to
    a pipe and exits, code 0 once it is written. Returns (child pid, read
    end)."""
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid:
        os.close(write_fd)
        return pid, read_fd
    code = 1
    try:   # the child leaves through os._exit, never returning into the caller
        os.close(read_fd)
        with open(write_fd, "wb") as pipe:
            pipe.write(pickle.dumps(_work_share(fn, jobs, index), pickle.HIGHEST_PROTOCOL))
        code = 0
    finally:
        os._exit(code)


def _join(pid: int, read_fd: int) -> tuple[Optional[tuple], int]:
    """Read a child's pipe to its end and reap it: (its share, or None when
    it did not exit with code 0, and its exit code, -signal if killed)."""
    with open(read_fd, "rb") as pipe:
        data = pipe.read()
    code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
    return (pickle.loads(data) if code == 0 else None), code


# ---------------------------------------------------------------------------
# learning curves


@dataclass
class LearningCurvePoint:
    train_utterances: int
    f1: float
    stddev_f1: float
    speaker_acc: float
    repeats: int
    failed: bool = False
    # per completed repeat, each job's {"seed", "f1", "speaker_acc"}: every
    # sweep value derives the same seeds, so its jobs train on the same
    # utterances from the same initial parameters and pair exactly
    repeat_jobs: list[list[dict]] = field(default_factory=list)


# the ModelConfig fields a run sets, and so may sweep: the corpus sets feat_dim,
# num_labels and speaker_count, the run's seed (which pairs the jobs) sets seed
MODEL_KEYS = {f.name for f in dataclasses.fields(ModelConfig)} - {
    "feat_dim", "num_labels", "speaker_count", "seed"}


@dataclass
class SweepSpec:
    axis: str                 # one of MODEL_KEYS
    values: list[float]       # each checked by the ModelConfig run_sweep builds from it

    def __post_init__(self):
        if self.axis not in MODEL_KEYS:
            raise UsageError(f"unknown sweep axis {self.axis!r}")
        if not self.values:
            raise UsageError("sweep needs at least one value")
        if len(set(self.values)) < len(self.values):   # run_sweep keys curves by value
            raise UsageError(f"sweep values must differ, got {self.values}")


def default_schedule(num_blocks: int) -> list[int]:
    return [k for k in DEFAULT_SCHEDULE if k < num_blocks]


def validate_schedule(schedule: Sequence[int], num_blocks: int) -> list[int]:
    schedule = list(schedule)
    if not schedule:
        raise UsageError("schedule is empty")
    if any(b <= a for a, b in zip(schedule, schedule[1:])):
        raise UsageError(f"schedule must be strictly increasing, got {schedule}")
    if schedule[0] < 1:
        raise UsageError(f"schedule points must be >= 1 block, got {schedule}")
    if schedule[-1] >= num_blocks:
        raise UsageError(f"largest schedule point {schedule[-1]} must be < {num_blocks} blocks")
    return schedule


def validate_epochs(epochs: int) -> None:
    """``epochs`` is an int of at least 1; a bool is not an int."""
    check_types({"epochs": epochs}, validate_epochs, "")
    if epochs < 1:
        raise UsageError(f"epochs must be at least 1, got {epochs}")


def validate_repeats(repeats: Optional[int]) -> None:
    """``repeats`` is None (the per-point default) or an int of at least 1."""
    check_types({"repeats": repeats}, validate_repeats, "")
    if repeats is not None and repeats < 1:
        raise UsageError(f"repeats must be at least 1, got {repeats}")


def derive_seed(base: int, *components: int) -> int:
    ss = np.random.SeedSequence([int(base), *[int(c) for c in components]])
    return int(ss.generate_state(1, dtype=np.uint64)[0] & 0x7FFFFFFF)


def point_repeats(train_blocks: int, repeats: Optional[int]) -> int:
    if repeats is not None:
        return repeats
    return 3 if train_blocks < 10 else 1


def _blocks_train_test(blocks: list[list[str]], k: int):
    train = [i for block in blocks[:k] for i in block]
    test = [i for block in blocks[k:] for i in block]
    return train, test


def curve_jobs(corpus: Corpus, split: BlockSplit, k: int, seed: int, p_idx: int, rep: int) -> list:
    """The (train_ids, test_ids, seed) of every model one curve repeat
    trains on the first ``k`` blocks and tests on the rest: one job on a
    speaker-independent split; on a speaker-dependent one, one job per
    roster speaker, whose ids are the two lists filtered to that speaker
    (``corpus`` gives each id's speaker), in block order."""
    train, test = _blocks_train_test(split.blocks, k)
    if split.mode == "speaker_independent":
        return [(train, test, derive_seed(seed, p_idx, rep))]
    return [(*([i for i in ids if corpus.by_id(i).speaker_index == spk] for ids in (train, test)),
             derive_seed(seed, p_idx, rep, spk)) for spk in range(len(corpus.speakers))]


def learning_curve(corpus: Corpus, split: BlockSplit, schedule: Sequence[int],
                   config: ModelConfig, repeats: Optional[int] = None,
                   fit_options: Optional[dict] = None) -> list[LearningCurvePoint]:
    """Train on the first k blocks and test on the rest, for each k: the
    one curve of a ``run_sweep`` over ``config`` alone."""
    [points] = run_sweep(corpus, split, schedule, config, None,
                         repeats=repeats, fit_options=fit_options).values()
    return points


def _means(rows: Sequence[dict]) -> dict[str, float]:
    """The mean "f1" and "speaker_acc" of ``rows``; 1-D means, as a 2-D
    mean sums in another order."""
    return {key: float(np.mean([row[key] for row in rows])) for key in ("f1", "speaker_acc")}


def run_sweep(corpus: Corpus, split: BlockSplit, schedule: Sequence[int],
              config: ModelConfig, sweep: Optional[SweepSpec], repeats: Optional[int] = None,
              fit_options: Optional[dict] = None) -> dict:
    """One learning curve per sweep value, everything else held fixed:
    train on the first k blocks and test on the rest, for each k. Without
    a sweep, the one-value sweep of ``config``'s own speaker weight.

    Each (value, point, repeat) fits and evaluates the jobs of
    ``curve_jobs``, each a fresh model with its own derived seed, and
    averages their metrics: speaker-dependent splits average over speakers.
    Every value derives the same seeds. The whole sweep's jobs go through
    one ``_map_jobs`` call. Every completed repeat's job scores are kept
    with their seeds. A diverging job fails its repeat, which is logged and
    flagged on the point, and the run continues. A point's size is the
    rounded mean training-set size of its jobs, which all its repeats
    share, failed or not.
    """
    schedule = validate_schedule(schedule, split.num_blocks)
    validate_repeats(repeats)
    fit_options = fit_options or {}
    sweep = sweep or SweepSpec("speaker_weight", [config.speaker_weight])
    configs = [dataclasses.replace(config, **{sweep.axis: value}) for value in sweep.values]
    # per point, per repeat, its jobs: the same for every value
    plan = [[curve_jobs(corpus, split, k, config.seed, p_idx, rep)
             for rep in range(point_repeats(k, repeats))] for p_idx, k in enumerate(schedule)]

    def run_job(job):
        cfg, (train_ids, test_ids, seed) = job
        cfg = dataclasses.replace(cfg, seed=seed)
        try:
            result = fit(corpus.subset(train_ids), cfg, **fit_options)
            scored = evaluate_model(corpus.subset(test_ids), result.params, cfg, corpus.vocab)
        except DivergenceError as exc:
            return exc
        return {"seed": seed, "f1": scored["f1"], "speaker_acc": scored["speaker_accuracy"]}

    results = iter(_map_jobs(run_job, [(cfg, job) for cfg in configs for reps in plan
                                       for jobs in reps for job in jobs]))
    return {value: [_curve_point(k, reps, results) for k, reps in zip(schedule, plan)]
            for value in sweep.values}


def _curve_point(k: int, reps: list[list[tuple]], results) -> LearningCurvePoint:
    """The point of ``k`` blocks from the next results of its repeats' jobs
    (``reps``); a repeat with a diverged job is logged and left out."""
    size = int(round(np.mean([len(train_ids) for train_ids, _, _ in reps[0]])))
    repeat_jobs = []
    failed = False
    for rep, jobs in enumerate(reps):
        done = [next(results) for _ in jobs]
        diverged = [exc for exc in done if isinstance(exc, DivergenceError)]
        if diverged:
            log.warning("curve point %d blocks, repeat %d diverged: %s", k, rep, diverged[0])
            failed = True
        else:
            repeat_jobs.append(done)
    if not repeat_jobs:
        nan = float("nan")
        return LearningCurvePoint(size, nan, nan, nan, repeats=0, failed=True)
    means = [_means(jobs) for jobs in repeat_jobs]
    f1s = [m["f1"] for m in means]
    return LearningCurvePoint(
        train_utterances=size, **_means(means),
        stddev_f1=float(np.std(f1s, ddof=1)) if len(f1s) > 1 else 0.0,
        repeats=len(means), failed=failed, repeat_jobs=repeat_jobs,
    )


def train_test_replication(corpus: Corpus, config: ModelConfig,
                           fit_options: Optional[dict] = None) -> dict:
    """Train on the reduced and the full training split, select the epoch by
    validation intent accuracy, and report test intent accuracy for both,
    alongside the published reference numbers."""
    if corpus.splits is None or not all(s in corpus.splits for s in ("train", "valid", "test")):
        raise UsageError("corpus has no train/valid/test split tables")
    fit_options = dict(fit_options or {})
    valid = corpus.subset(corpus.splits["valid"])
    test = corpus.subset(corpus.splits["test"])
    report = {"reference": REFERENCE_ACCURACY}
    for tag, ids in (("partial", fluent_partial_ids(corpus)), ("full", corpus.splits["train"])):
        result = fit(corpus.subset(ids), config, valid=valid, vocab=corpus.vocab, **fit_options)
        report[f"accuracy_{tag}"] = evaluate_model(test, result.params, config,
                                                   corpus.vocab)["intent_accuracy"]
        report[f"train_size_{tag}"] = len(ids)
    return report


# ---------------------------------------------------------------------------
# result files


def write_text(path: str, text: str) -> None:
    """Atomically write ``text`` (UTF-8) to ``path``."""
    atomic_write(path, lambda fh: fh.write(text.encode()))


CURVE_CSV_HEADER = "train_utterances,f1,stddev_f1,speaker_acc,repeats"


def write_curve_csv(path: str, points: Sequence[LearningCurvePoint]) -> None:
    """Failed points are omitted, leaving gaps rather than interpolations."""
    lines = [CURVE_CSV_HEADER]
    for pt in points:
        if pt.failed and pt.repeats == 0:
            continue
        lines.append(f"{pt.train_utterances},{pt.f1:.6f},{pt.stddev_f1:.6f},"
                     f"{pt.speaker_acc:.6f},{pt.repeats}")
    write_text(path, "\n".join(lines) + "\n")


def points_payload(points: Sequence[LearningCurvePoint]) -> list[dict]:
    """Each point's fields as a plain-JSON mapping, a NaN written as None."""
    return [{key: None if isinstance(value, float) and np.isnan(value) else value
             for key, value in dataclasses.asdict(pt).items()} for pt in points]


def write_summary_json(path: str, payload: dict) -> None:
    write_text(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")


def git_blob_hash(content: bytes) -> str:
    return hashlib.sha1(b"blob %d\0" % len(content) + content).hexdigest()


def write_run_manifest(path: str, config_payload: dict, corpus_name: str,
                       seeds: dict) -> str:
    """Persist the run description; the stored content hash covers the
    manifest body so readers can verify integrity."""
    body = {"config": config_payload, "corpus": corpus_name, "seeds": seeds}
    canonical = json.dumps(body, sort_keys=True).encode()
    body["content_hash"] = git_blob_hash(canonical)
    write_summary_json(path, body)
    return body["content_hash"]
