#!/usr/bin/env python3
"""Effect of the speaker-identification loss on the output capsules.

Trains the same model twice on the same synthetic corpus, once with the
speaker loss disabled (weight 0) and once enabled (weight 1), then compares
label F1, speaker accuracy, and how much speaker information the capsule
orientations carry (norm of the average capsule)."""

import numpy as np

from capsintent import ModelConfig, SynthGroup, SynthSpec, synth_generate
from capsintent.experiments import evaluate_model, fit
from capsintent.model import evaluate
from capsintent.multitask import average_capsule

spec = SynthSpec(
    speaker_count=5,
    num_labels=8,
    groups=(SynthGroup("verb", 4, required=True), SynthGroup("place", 4, required=False)),
    per_speaker_count=50,
    feat_dim=12,
    noise_level=0.15,
)
corpus = synth_generate(spec, seed=3)
rng = np.random.default_rng(0)
order = rng.permutation(len(corpus))
train = [corpus.utterances[i] for i in order[:180]]
test = [corpus.utterances[i] for i in order[180:]]

for weight in (0.0, 1.0):
    config = ModelConfig(feat_dim=12, num_labels=8, speaker_count=5, encoder_hidden=16,
                         encoder_layers=2, num_primary=12, primary_dim=4, output_dim=4,
                         routing_iters=3, speaker_weight=weight, seed=1)
    result = fit(train, config, epochs=30)
    scores = evaluate_model(test, result.params, config, corpus.vocab)
    caps = evaluate([utt.features for utt in test[:50]], result.params, config).capsules
    z_norms = np.linalg.norm(average_capsule(caps).vector, axis=-1)
    print(f"speaker_weight={weight}: f1={scores['f1']:.3f} "
          f"speaker_acc={scores['speaker_accuracy']:.3f} "
          f"mean |average capsule|={np.mean(z_norms):.3f} "
          f"({len(result.history)} epochs)")

print("\nwith weight 0 the head is untrained, so speaker accuracy sits near "
      "chance; with weight 1 the capsule orientations align to encode the "
      "speaker and accuracy climbs.")
