#!/usr/bin/env python3
"""Validate every analytic gradient of a small model against central finite
differences on a ragged batch of three utterances: encoder BPTT with
padded sequences, the routing unroll, the margin loss, and the speaker head
including the average-capsule quotient rule."""

import numpy as np

import capsintent.model as model
from capsintent import ModelConfig, grad_check

cfg = ModelConfig(feat_dim=4, num_labels=3, speaker_count=3, encoder_hidden=4,
                  encoder_layers=2, num_primary=3, primary_dim=2, output_dim=3,
                  routing_iters=2, speaker_weight=0.5, seed=0)

# a well-conditioned random parameter point: capsule norms away from zero and
# from the margin hinge corners, where central differences are meaningful
rng = np.random.default_rng(42)
params = {k: rng.normal(0.0, 0.6, size=v.shape) for k, v in model.init_params(cfg).items()}
feats = [rng.normal(size=(frames, cfg.feat_dim)) for frames in (5, 1, 3)]
targets = np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 0.0], [1.0, 1.0, 0.0]])
speakers = [2, 0, 1]

report = grad_check(
    lambda p: float(np.sum(model.loss_and_grads(feats, targets, speakers, p, cfg)[0].total_loss)),
    lambda p: model.loss_and_grads(feats, targets, speakers, p, cfg)[1],
    params,
)
print(f"utterance lengths  : {[len(f) for f in feats]}")
print(f"parameters checked : {report.num_params_checked}")
print(f"max relative error : {report.max_relative_error:.3e}")
print(f"worst parameter    : {report.worst_parameter_path}")
print(f"verdict            : {'OK' if report.max_relative_error < 1e-4 else 'MISMATCH'}")
