"""Command-line entry point.

Subcommands: ``features``, ``train``, ``eval``, ``curve``,
``replicate-fluent``, ``validate-config``. Runs are described by a single
YAML config file; flags only override paths and verbosity. Exit codes: 0
success, 2 usage/config errors (an output path that cannot be created, a
size too large to allocate), 3 training divergence, 4 data errors.

Configs, manifests and index tables are read as UTF-8, whatever the locale.
Config keys (unknown keys, missing required keys, and values not of the key's
declared type, are rejected): ``output_dir`` (required); ``seed`` (>= 0);
``corpus`` (required): ``kind`` (required: synth | grabo | fluent | manifest),
``root``, ``manifest``, ``cache_dir``, and for synth (the ``mimic_grabo``
corpus) ``per_speaker_count`` and ``feat_dim`` (>= 1, within int64), ``noise_level``
(finite, >= 0), ``seed`` (>= 0, left out: the top-level seed); ``model``:
``encoder_hidden``, ``encoder_layers``, ``num_primary``, ``primary_dim``,
``output_dim``, ``routing_iters``, ``speaker_weight`` (the corpus sets ``feat_dim``,
``num_labels`` and ``speaker_count``); the corpus's and the model's arrays must
each fit NumPy's largest array; ``experiment``: ``mode``
(speaker_independent | speaker_dependent), ``num_blocks``, ``schedule``,
``repeats`` (>= 1), ``sweep`` (both required: ``axis``, any ``model`` key, and
``values``, distinct, each checked as that key), where ``schedule`` (left out: the
default points below ``num_blocks``) is non-empty, strictly increasing, >= 1 and
below ``num_blocks``; ``training``: ``epochs`` (>= 1), passed to ``experiments.fit``,
whose default applies when it is left out; the rest of the training recipe is fixed.
"""

from __future__ import annotations

import argparse
import csv
import io
import logging
import os
import sys
from dataclasses import MISSING, asdict, dataclass, fields, is_dataclass, replace
from typing import Optional

import yaml

from . import datasets, experiments, model
from .capsnet import MAX_ARRAY_VALUES, ModelConfig
from .checkpoint import load_checkpoint, save_checkpoint, vocab_payload
from .datasets import Corpus, ensure_features, load_manifest
from .errors import (CapsIntentError, ContractError, DataError, DivergenceError,
                     UsageError, check_types)
from .experiments import MODEL_KEYS, SweepSpec

log = logging.getLogger("capsintent")

CACHE_ENV_VAR = "CAPSINTENT_CACHE_DIR"

TRAINING_KEYS = {"epochs"}


@dataclass
class CorpusConfig:
    kind: str
    root: Optional[str] = None
    manifest: Optional[str] = None
    per_speaker_count: Optional[int] = None
    noise_level: Optional[float] = None
    feat_dim: Optional[int] = None
    seed: Optional[int] = None
    cache_dir: Optional[str] = None


@dataclass
class ExperimentConfig:
    mode: str = "speaker_independent"
    num_blocks: int = 150
    schedule: Optional[list[int]] = None
    repeats: Optional[int] = None
    sweep: Optional[SweepSpec] = None


@dataclass
class RunConfig:
    corpus: CorpusConfig
    output_dir: str
    seed: int
    model: dict                  # ModelConfig fields
    experiment: ExperimentConfig
    training: dict               # fit options
    raw: dict


def _section(raw: dict, key: str, owner, allowed: Optional[set] = None) -> dict:
    """Config section ``key`` (dotted: ``experiment.sweep`` is ``raw["sweep"]``),
    empty when missing or null, else UsageError unless a mapping whose keys are
    in ``allowed`` (default: the fields of the dataclass ``owner``), whose values
    have their types in ``owner`` and which, for a dataclass, holds every
    allowed field that has no default."""
    section = raw.get(key.rsplit(".", 1)[-1])
    section = {} if section is None else section
    if not isinstance(section, dict):
        raise UsageError(f"{key} config must be a mapping, got {type(section).__name__}")
    allowed = {f.name for f in fields(owner)} if allowed is None else allowed
    unknown = set(section) - allowed
    if unknown:
        raise UsageError(f"unknown {key} config keys: {sorted(unknown)}")
    check_types(section, owner, f"{key}.")
    for f in fields(owner) if is_dataclass(owner) else ():
        if f.default is f.default_factory is MISSING and f.name in allowed - set(section):
            raise UsageError(f"{key}.{f.name} is required")
    return section


def load_run_config(path: str) -> RunConfig:
    if not os.path.isfile(path):
        raise UsageError(f"config file {path} does not exist")
    try:
        raw = yaml.safe_load(datasets.read_utf8(path, UsageError))
    except yaml.YAMLError as exc:
        raise UsageError(f"{path}: invalid YAML ({' '.join(str(exc).split())})") from exc
    if not isinstance(raw, dict):
        raise UsageError(f"{path}: config must be a mapping")
    unknown = set(raw) - {"corpus", "model", "experiment", "training", "output_dir", "seed"}
    if unknown:
        raise UsageError(f"unknown top-level config keys: {sorted(unknown)}")
    for required in ("corpus", "output_dir"):
        if raw.get(required) is None:
            raise UsageError(f"{path}: missing required key {required!r}")
    check_types(raw, RunConfig, "")
    seed = raw.get("seed", 0)

    corpus_cfg = CorpusConfig(**_section(raw, "corpus", CorpusConfig))
    if corpus_cfg.seed is None:
        corpus_cfg.seed = seed
    elif corpus_cfg.seed < 0:
        raise UsageError(f"corpus.seed must be >= 0, got {corpus_cfg.seed}")
    if corpus_cfg.kind not in ("synth", "grabo", "fluent", "manifest"):
        raise UsageError(f"unknown corpus kind {corpus_cfg.kind!r}")
    if corpus_cfg.kind in ("grabo", "fluent") and not corpus_cfg.root:
        raise UsageError(f"corpus.root is required for kind {corpus_cfg.kind!r}")
    if corpus_cfg.kind == "manifest" and not corpus_cfg.manifest:
        raise UsageError("corpus.manifest is required for kind 'manifest'")
    if corpus_cfg.kind == "synth":
        synth_spec(corpus_cfg)

    model_raw = _section(raw, "model", ModelConfig, MODEL_KEYS)
    exp_raw = _section(raw, "experiment", ExperimentConfig)
    sweep = exp_raw.get("sweep")
    if sweep is not None:
        sweep = SweepSpec(**_section(exp_raw, "experiment.sweep", SweepSpec))
    experiment = ExperimentConfig(**{**exp_raw, "sweep": sweep})
    if experiment.mode not in datasets.SPLIT_MODES:
        raise UsageError(f"unknown experiment.mode {experiment.mode!r}")
    if experiment.schedule is None:
        experiment.schedule = experiments.default_schedule(experiment.num_blocks)
    experiment.schedule = experiments.validate_schedule(experiment.schedule, experiment.num_blocks)
    experiments.validate_repeats(experiment.repeats)

    training = _section(raw, "training", experiments.fit, TRAINING_KEYS)
    if "epochs" in training:
        experiments.validate_epochs(training["epochs"])

    run = RunConfig(
        corpus=corpus_cfg,
        output_dir=raw["output_dir"],
        seed=seed,
        model=model_raw,
        experiment=experiment,
        training=training,
        raw=raw,
    )
    model_config_from(run)   # the model section is checked before any corpus is built
    return run


def cache_dir_for(override: Optional[str], configured: Optional[str] = None) -> Optional[str]:
    """The feature cache directory: the ``--cache-dir`` flag, else the
    environment variable, else ``corpus.cache_dir`` of the config."""
    return override or os.environ.get(CACHE_ENV_VAR) or configured


def synth_spec(cc: CorpusConfig) -> datasets.SynthSpec:
    """The spec of a ``kind: synth`` corpus section (UsageError if invalid)."""
    return datasets.mimic_grabo_spec(**{
        key: getattr(cc, key) for key in ("per_speaker_count", "noise_level", "feat_dim")
        if getattr(cc, key) is not None})


def build_corpus(run: RunConfig, cache_override: Optional[str] = None,
                 with_features: bool = True) -> Corpus:
    """Generate or load the configured corpus, logging each nonzero count
    of what its loader skipped, and fill in its features."""
    cc = run.corpus
    if cc.kind == "synth":
        return datasets.synth_generate(synth_spec(cc), seed=cc.seed)
    if cc.kind == "grabo":
        corpus = datasets.load_grabo(cc.root)
    elif cc.kind == "fluent":
        corpus = datasets.load_fluent(cc.root)
    else:
        corpus = load_manifest(cc.manifest)
    for key, count in sorted(corpus.warnings.items()):
        if count:
            log.warning("%s corpus: %s = %d", corpus.name, key, count)
    if with_features:
        ensure_features(corpus, cache_dir=cache_dir_for(cache_override, cc.cache_dir))
    return corpus


def model_config_from(run: RunConfig, corpus: Optional[Corpus] = None) -> ModelConfig:
    """The run's model for ``corpus``; without one, placeholder corpus
    dimensions let a config be checked before its corpus is built. It, and
    each sweep value in it, must make a valid ModelConfig whose parameters
    NumPy can hold (else ShapeError)."""
    feat_dim, num_labels, speaker_count = (
        (corpus.feat_dim(), len(corpus.vocab), len(corpus.speakers)) if corpus else (1, 1, 1))
    config = ModelConfig(feat_dim=feat_dim, num_labels=num_labels, speaker_count=speaker_count,
                         seed=run.seed, **run.model)
    sweep = run.experiment.sweep
    swept = [replace(config, **{sweep.axis: value}) for value in sweep.values] if sweep else []
    for each in (config, *swept):
        model.check_param_count(each, max_values=MAX_ARRAY_VALUES)
    return config


# ---------------------------------------------------------------------------
# subcommands


def cmd_validate_config(args) -> int:
    run = load_run_config(args.config)
    print(f"OK: {args.config} (corpus={run.corpus.kind}, mode={run.experiment.mode}, "
          f"output_dir={run.output_dir})")
    return 0


def cmd_features(args) -> int:
    run = load_run_config(args.config)
    if run.corpus.kind == "synth":
        raise UsageError("synthetic corpora carry features inline; nothing to extract")
    corpus = build_corpus(run, with_features=False)
    counts = ensure_features(corpus, cache_dir=cache_dir_for(args.cache_dir,
                                                             run.corpus.cache_dir),
                             on_error="skip")
    total = sum(counts.values())
    print(f"features: computed={counts['computed']} skipped(cached)={counts['cached']} "
          f"skipped(inline)={counts['inline']} failed={counts['failed']} total={total}")
    return 0


def cmd_train(args) -> int:
    run = load_run_config(args.config)
    corpus = build_corpus(run, cache_override=args.cache_dir)
    config = model_config_from(run, corpus)
    result = experiments.fit(corpus.utterances, config, **run.training)
    out_dir = args.output or run.output_dir
    ckpt_path = os.path.join(out_dir, "model.npz")
    save_checkpoint(ckpt_path, config, result.params,
                    vocab_payload=vocab_payload(corpus.vocab, corpus.speakers))
    history_path = os.path.join(out_dir, "history.json")
    experiments.write_summary_json(history_path, {
        "epochs": [asdict(h) for h in result.history],
        "stopped_early": result.stopped_early,
    })
    print(f"checkpoint: {ckpt_path}")
    print(f"history: {history_path} ({len(result.history)} epochs, "
          f"final total loss {result.history[-1].total_loss:.6f})")
    return 0


def cmd_eval(args) -> int:
    config, params, decoded = load_checkpoint(args.checkpoint)
    if decoded is None:
        raise ContractError(f"{args.checkpoint} carries no vocabulary; cannot decode")
    vocab, speakers = decoded
    corpus = load_manifest(args.manifest)
    for what, names, known, where in (("labels", corpus.vocab.labels, vocab.labels, "vocabulary"),
                                      ("speakers", corpus.speakers, speakers, "roster")):
        unknown = set(names) - set(known)
        if unknown:
            raise ContractError(f"manifest {what} not in checkpoint {where}: {sorted(unknown)[:5]}")
    ensure_features(corpus, cache_dir=cache_dir_for(args.cache_dir))
    utts = corpus.utterances
    preds, pred_speakers = experiments.predict_corpus(utts, params, config, vocab)
    refs = [corpus.vocab.names_of(u.target) for u in utts]
    ref_names = [corpus.speakers[u.speaker_index] for u in utts]
    # reference speakers as indices of the checkpoint roster
    spk_map = {name: i for i, name in enumerate(speakers)}
    metrics = experiments.scores(preds, pred_speakers, refs,
                                 [spk_map[name] for name in ref_names], vocab)
    text = io.StringIO()
    csv.writer(text, lineterminator="\n").writerows(
        [("id", "predicted_labels", "predicted_speaker", "reference_labels", "reference_speaker"),
         *((u.id, ";".join(labels), speakers[spk], ";".join(ref), ref_spk)
           for u, labels, spk, ref, ref_spk in zip(utts, preds, pred_speakers, refs, ref_names))])
    out_dir = args.output or "."
    pred_path = os.path.join(out_dir, "predictions.csv")
    experiments.write_text(pred_path, text.getvalue())
    experiments.write_summary_json(os.path.join(out_dir, "metrics.json"), metrics)
    for key, value in sorted(metrics.items()):
        print(f"{key}: {value:.4f}")
    print(f"predictions: {pred_path}")
    return 0


def _experiment_seeds(run: RunConfig) -> dict:
    return {"base": run.seed, "split": run.seed, "corpus": run.corpus.seed}


def cmd_curve(args) -> int:
    run = load_run_config(args.config)
    corpus = build_corpus(run, cache_override=args.cache_dir)
    config = model_config_from(run, corpus)
    split = datasets.split_blocks(corpus, run.experiment.num_blocks, run.experiment.mode,
                                  seed=run.seed)
    schedule = run.experiment.schedule     # checked by load_run_config
    out_dir = args.output or run.output_dir
    summary = {"corpus": corpus.name, "mode": run.experiment.mode,
               "num_blocks": run.experiment.num_blocks, "schedule": list(schedule)}
    sweep = run.experiment.sweep
    curves = experiments.run_sweep(corpus, split, schedule, config, sweep,
                                   repeats=run.experiment.repeats, fit_options=run.training)
    if sweep is None:
        [points] = curves.values()
        experiments.write_curve_csv(os.path.join(out_dir, "curve.csv"), points)
        summary["points"] = experiments.points_payload(points)
        for pt in points:
            status = "FAILED" if pt.failed else f"f1={pt.f1:.4f} spk={pt.speaker_acc:.4f}"
            print(f"train={pt.train_utterances}: {status}")
    else:
        summary["sweep"] = {"axis": sweep.axis, "curves": {}}
        for value, points in curves.items():
            name = f"curve_{sweep.axis}_{value}.csv"
            experiments.write_curve_csv(os.path.join(out_dir, name), points)
            summary["sweep"]["curves"][str(value)] = experiments.points_payload(points)
            print(f"{sweep.axis}={value}: wrote {name}")
    experiments.write_run_manifest(os.path.join(out_dir, "run.json"),
                                   run.raw, corpus.name, _experiment_seeds(run))
    experiments.write_summary_json(os.path.join(out_dir, "summary.json"), summary)
    print(f"results: {out_dir}")
    return 0


def cmd_replicate_fluent(args) -> int:
    run = load_run_config(args.config)
    if run.corpus.kind != "fluent":
        raise UsageError("replicate-fluent needs corpus.kind == 'fluent'")
    corpus = build_corpus(run, cache_override=args.cache_dir)
    config = model_config_from(run, corpus)
    report = experiments.train_test_replication(corpus, config,
                                                fit_options=run.training)
    out_dir = args.output or run.output_dir
    experiments.write_summary_json(os.path.join(out_dir, "replication.json"), report)
    print(f"{'setting':24s} {'partial':>8s} {'full':>8s}")
    print(f"{'this run':24s} {report['accuracy_partial']:8.4f} {report['accuracy_full']:8.4f}")
    for name, ref in report["reference"].items():
        print(f"{name:24s} {ref['partial']:8.4f} {ref['full']:8.4f}")
    print(f"results: {out_dir}")
    return 0


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="capsintent",
        description="Speech-to-intent capsule networks with speaker identification.",
    )
    parser.add_argument("-v", "--verbose", action="store_true", help="debug logging")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.set_defaults(fn=fn)
        return p

    p = add("validate-config", cmd_validate_config, help="check a run config file")
    p.add_argument("config")

    p = add("features", cmd_features, help="populate the feature cache for a corpus")
    p.add_argument("config")
    p.add_argument("--cache-dir", help="override the feature cache directory")

    p = add("train", cmd_train, help="train on the configured corpus and save a checkpoint")
    p.add_argument("config")
    p.add_argument("--cache-dir")
    p.add_argument("--output", help="override the output directory")

    p = add("eval", cmd_eval, help="evaluate a checkpoint against a manifest")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--manifest", required=True)
    p.add_argument("--cache-dir")
    p.add_argument("--output", help="directory for predictions and metrics")

    p = add("curve", cmd_curve, help="run the cross-validation learning curve (and sweep)",
            description="Run the cross-validation learning curve (and sweep). Its training "
                        "jobs run in parallel, one process per CPU this process may use, "
                        "with results identical to a serial run; restrict the CPUs with "
                        "taskset (taskset -c 0 runs them one after another).")
    p.add_argument("config")
    p.add_argument("--cache-dir")
    p.add_argument("--output")

    p = add("replicate-fluent", cmd_replicate_fluent,
            help="train/test replication on the smart-home corpus split tables")
    p.add_argument("config")
    p.add_argument("--cache-dir")
    p.add_argument("--output")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(level=logging.DEBUG if args.verbose else logging.INFO,
                        format="%(levelname)s %(name)s: %(message)s")
    try:
        return args.fn(args)
    except DivergenceError as exc:
        print(f"error: training diverged: {exc}", file=sys.stderr)
        return 3
    except DataError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except MemoryError as exc:   # a size NumPy could not allocate
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 2
    except CapsIntentError as exc:   # UsageError, ContractError and the rest
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
