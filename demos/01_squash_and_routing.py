#!/usr/bin/env python3
"""Walk through the capsule primitives on paper-sized toy tensors.

Shows the squash nonlinearity compressing vector norms into [0, 1), the
per-pair linear predictions for a batch of utterances, and how dynamic
routing concentrates each utterance's coupling coefficients on the output
capsule its predictions agree about, independently of the rest of the batch.
"""

import numpy as np

from capsintent import dynamic_routing, predict_capsules, squash

rng = np.random.default_rng(0)

print("=== squash ===")
for scale in (0.1, 1.0, 3.0, 10.0):
    s = np.array([scale, 0.0])
    v = squash(s)
    print(f"|s| = {scale:5.1f}  ->  |squash(s)| = {np.linalg.norm(v):.4f}")

print("\n=== predictions (votes) for a batch ===")
P, B, K, d_p, n = 6, 2, 3, 4, 2
u = squash(rng.normal(size=(P, B, d_p)))
transforms = rng.normal(0.0, 1.0, size=(P, d_p, K, n))   # pair (i, j) is transforms[i, :, j]
votes = predict_capsules(u, transforms)
print(f"{P} primary capsules x {B} utterances x {K} output capsules -> votes {votes.shape}")

print("\n=== routing by agreement ===")
# in utterance b every primary capsule agrees about output b + 1
for b in range(B):
    agreed = rng.normal(size=n)
    votes[:, b, b + 1, :] = agreed + rng.normal(0.0, 0.05, size=(P, n))
caps, trace = dynamic_routing(votes, iters=3)
for it, c in enumerate(trace.coefficients):
    # c is (B, K, P): utterance b's coefficient of output k from capsule i is c[b, k, i]
    means = "  ".join(f"utt {b}: {c[b].mean(axis=-1).round(3)}" for b in range(B))
    print(f"iteration {it}: mean coupling per output  {means}")
for b in range(B):
    norms = np.linalg.norm(caps[b], axis=-1)
    print(f"utterance {b} output norms: {norms.round(3)}  (capsule {b + 1} wins)")
print(f"coefficients sum to 1 over outputs: {np.allclose(trace.coefficients[-1].sum(axis=1), 1.0)}")
