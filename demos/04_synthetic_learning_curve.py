#!/usr/bin/env python3
"""A miniature cross-validation learning curve on synthetic data.

Builds a small deterministic corpus, splits it into blocks, trains on an
increasing number of blocks, tests on the rest, and writes the standard
curve CSV. Takes a few seconds on a laptop CPU."""

import tempfile
from pathlib import Path

from capsintent import ModelConfig, SynthGroup, SynthSpec, split_blocks, synth_generate
from capsintent.experiments import learning_curve, write_curve_csv

spec = SynthSpec(
    speaker_count=4,
    num_labels=8,
    groups=(SynthGroup("verb", 4, required=True), SynthGroup("place", 4, required=False)),
    per_speaker_count=60,
    feat_dim=12,
    noise_level=0.2,
)
corpus = synth_generate(spec, seed=7)
print(f"corpus: {len(corpus)} utterances, {len(corpus.vocab)} labels, "
      f"{len(corpus.speakers)} speakers")

split = split_blocks(corpus, num_blocks=12, mode="speaker_independent", seed=7)
config = ModelConfig(feat_dim=12, num_labels=8, speaker_count=4, encoder_hidden=16,
                     encoder_layers=2, num_primary=12, primary_dim=4, output_dim=4,
                     routing_iters=3, speaker_weight=1.0, seed=7)

points = learning_curve(corpus, split, schedule=[1, 3, 6], config=config, repeats=1,
                        fit_options={"epochs": 25})
print(f"\n{'train':>6s} {'f1':>7s} {'spk_acc':>8s}")
for pt in points:
    print(f"{pt.train_utterances:6d} {pt.f1:7.3f} {pt.speaker_acc:8.3f}")

with tempfile.TemporaryDirectory() as tmp:
    out = Path(tmp) / "curve.csv"
    write_curve_csv(str(out), points)
    print(f"\nwrote {out}")
    print(out.read_text())
