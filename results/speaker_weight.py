"""Speaker-loss weight against training-set size on the synthetic corpus.

Fits one learning curve per speaker weight on ``mimic_grabo`` at the grid
configuration (see ``bench/NOTES.md``) and keeps every repeat's job scores
with their derived model seeds, so the scores pair exactly across weights.
The CLI ties the split and model seeds to one top-level ``seed``; this
script sets them apart (split seed 5, model seed 42), as the grid
configuration does.

Run one (mode, corpus seed) per process, from the repository root, and
one such run at a time: ``run_sweep`` runs the sweep's jobs on every CPU
the process may use (``taskset`` restricts them), so two runs at once would
oversubscribe the CPUs::

    PYTHONPATH=src python results/speaker_weight.py run speaker_independent 21

writes ``results/speaker_weight/speaker_independent/seed21/summary.json``.
``report`` prints the paired per-seed F1 differences (weight w minus
weight 0) of every written summary as Markdown tables::

    PYTHONPATH=src python results/speaker_weight.py report
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

import numpy as np

from capsintent import datasets, experiments
from capsintent.capsnet import ModelConfig

OUT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "speaker_weight")
MODES = datasets.SPLIT_MODES
CORPUS_SEEDS = (21, 22, 23)
NOISE = 0.2
NUM_BLOCKS = 150
SPLIT_SEED = 5
EPOCHS = 60
SCHEDULE = (1, 2, 3, 5, 10, 20)
WEIGHTS = (0.0, 0.1, 0.3, 1.0)
MODEL = dict(encoder_hidden=32, encoder_layers=2, num_primary=64, primary_dim=8,
             output_dim=8, routing_iters=3, seed=42)


def summary_path(mode: str, corpus_seed: int) -> str:
    return os.path.join(OUT, mode, f"seed{corpus_seed}", "summary.json")


def run(mode: str, corpus_seed: int) -> None:
    start = time.perf_counter()
    corpus = datasets.synth_generate(datasets.mimic_grabo_spec(noise_level=NOISE),
                                     seed=corpus_seed)
    split = datasets.split_blocks(corpus, NUM_BLOCKS, mode, seed=SPLIT_SEED)
    config = ModelConfig(feat_dim=corpus.feat_dim(), num_labels=len(corpus.vocab),
                         speaker_count=len(corpus.speakers), **MODEL)
    sweep = experiments.SweepSpec(axis="speaker_weight", values=list(WEIGHTS))
    curves = experiments.run_sweep(corpus, split, SCHEDULE, config, sweep,
                                   fit_options={"epochs": EPOCHS})
    summary = {
        "corpus": corpus.name, "mode": mode, "num_blocks": NUM_BLOCKS,
        "schedule": list(SCHEDULE), "noise_level": NOISE, "epochs": EPOCHS,
        "seeds": {"corpus": corpus_seed, "split": SPLIT_SEED, "model": MODEL["seed"]},
        "model": MODEL,
        "sweep": {"axis": sweep.axis, "curves": {
            str(value): experiments.points_payload(points) for value, points in curves.items()}},
        "wall_s": round(time.perf_counter() - start, 1),
    }
    path = summary_path(mode, corpus_seed)
    experiments.write_summary_json(path, summary)
    print(f"{mode} seed {corpus_seed}: {path} ({summary['wall_s']} s)")


def _job_f1(point: dict) -> dict[int, float]:
    """F1 per derived seed over every repeat's jobs of one curve point."""
    return {job["seed"]: job["f1"] for jobs in point["repeat_jobs"] for job in jobs}


def paired_differences(summary: dict, weight: str) -> list[list[float]]:
    """Per schedule point, each job's F1 at ``weight`` minus its F1 at
    weight 0, over the jobs that completed at both (same derived seed)."""
    curves = summary["sweep"]["curves"]
    diffs = []
    for base, other in zip(curves["0.0"], curves[weight]):
        base_f1, other_f1 = _job_f1(base), _job_f1(other)
        diffs.append([other_f1[s] - base_f1[s] for s in sorted(set(base_f1) & set(other_f1))])
    return diffs


def _read(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def report() -> None:
    for mode in MODES:
        summaries = {seed: _read(summary_path(mode, seed))
                     for seed in CORPUS_SEEDS if os.path.exists(summary_path(mode, seed))}
        if not summaries:
            continue
        first = next(iter(summaries.values()))
        sizes = [pt["train_utterances"] for pt in first["sweep"]["curves"]["0.0"]]
        seeds = " | ".join(f"seed {s}" for s in summaries)
        print(f"\n### {mode}\n")
        print("F1 at weight 0, per corpus seed:\n")
        print(f"| k | utts | {seeds} |")
        print("|---|---|" + "---|" * len(summaries))
        for i, k in enumerate(first["schedule"]):
            f1s = [s["sweep"]["curves"]["0.0"][i]["f1"] for s in summaries.values()]
            print(f"| {k} | {sizes[i]} | " + " | ".join(f"{f:.3f}" for f in f1s) + " |")
        for weight in (str(w) for w in WEIGHTS[1:]):
            diffs = {seed: paired_differences(s, weight) for seed, s in summaries.items()}
            print(f"\nF1 at weight {weight} minus weight 0: per seed the mean over its paired "
                  "jobs, then the mean and range of those, and the jobs that rose or fell:\n")
            print(f"| k | {seeds} | mean | min | max | jobs up / down / all |")
            print("|---|" + "---|" * (len(summaries) + 4))
            for i, k in enumerate(first["schedule"]):
                means = [float(np.mean(d[i])) for d in diffs.values() if d[i]]
                jobs = [x for d in diffs.values() for x in d[i]]
                cells = [f"{np.mean(d[i]):+.3f}" if d[i] else "n/a" for d in diffs.values()]
                stats = ([f"{np.mean(means):+.3f}", f"{min(means):+.3f}", f"{max(means):+.3f}"]
                         if means else ["n/a"] * 3)
                counts = f"{sum(x > 0 for x in jobs)} / {sum(x < 0 for x in jobs)} / {len(jobs)}"
                print(f"| {k} | " + " | ".join(cells + stats + [counts]) + " |")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    p = sub.add_parser("run", help="fit and score every weight's curve for one corpus")
    p.add_argument("mode", choices=MODES)
    p.add_argument("corpus_seed", type=int)
    sub.add_parser("report", help="print the paired F1 differences as Markdown")
    args = parser.parse_args(argv)
    if args.command == "run":
        run(args.mode, args.corpus_seed)
    else:
        report()
    return 0


if __name__ == "__main__":
    sys.exit(main())
