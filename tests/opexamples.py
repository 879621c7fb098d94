"""Registry of per-operation example checks.

Each entry exercises one documented example of one public operation, with
derived expectations recomputed by the stated independent oracle (hand
arithmetic, finite differences, counting, geometry). Each unit test module
parametrizes its ``test_op_examples`` over its module's entries, so the
whole registry runs with the test suite.
"""

import math
import os
import subprocess
import sys
import tempfile
from dataclasses import dataclass

import numpy as np
import pytest

from helpers import tiny_model_config, well_conditioned_params, write_wav

import capsintent.model as model
from capsintent import capsnet, datasets, experiments, features, multitask, numeric
from capsintent.errors import (ContractError, DataError, FormatError, ShapeError,
                               UsageError)


@dataclass
class OpExample:
    module: str
    op: str
    label: str
    fn: callable

    @property
    def id(self) -> str:
        return f"{self.module}.{self.op}.{self.label}"


EXAMPLES: list[OpExample] = []


def example(module, op, label):
    def wrap(fn):
        EXAMPLES.append(OpExample(module, op, label, fn))
        return fn
    return wrap


def by_module(name):
    return [e for e in EXAMPLES if e.module == name]


# ===========================================================================
# numeric.softmax


@example("numeric", "softmax", "symmetry")
def _():
    assert np.allclose(numeric.softmax(np.zeros(3)), np.full(3, 1 / 3), atol=1e-12)


@example("numeric", "softmax", "stability")
def _():
    out = numeric.softmax(np.array([1000.0, 0.0]))
    assert np.all(np.isfinite(out))
    assert out[0] > 1 - 1e-12 and out[1] < 1e-12


@example("numeric", "softmax", "log_ratios")
def _():
    out = numeric.softmax(np.array([math.log(1.0), math.log(3.0)]))
    assert np.allclose(out, [0.25, 0.75], atol=1e-12)


# numeric.grad_check


@example("numeric", "grad_check", "quadratic")
def _():
    theta = {"theta": np.random.default_rng(0).normal(size=7)}
    rep = numeric.grad_check(
        lambda p: 0.5 * float(np.sum(p["theta"] ** 2)),
        lambda p: {"theta": p["theta"]},
        theta,
    )
    assert rep.max_relative_error < 1e-8
    assert rep.num_params_checked == 7


@example("numeric", "grad_check", "zero_params")
def _():
    rep = numeric.grad_check(lambda p: 1.0, lambda p: {}, {})
    assert rep.num_params_checked == 0
    assert rep.max_relative_error == 0.0


@example("numeric", "grad_check", "doubled_gradient")
def _():
    theta = {"theta": np.array([0.7, -1.3, 2.1])}
    rep = numeric.grad_check(
        lambda p: 0.5 * float(np.sum(p["theta"] ** 2)),
        lambda p: {"theta": 2.0 * p["theta"]},   # deliberately wrong by 2x
        theta,
    )
    assert abs(rep.max_relative_error - 1.0 / 3.0) < 1e-3


# ===========================================================================
# features.load_wav


@example("features", "load_wav", "silence_length")
def _():
    with tempfile.TemporaryDirectory() as tmp:
        path = write_wav(os.path.join(tmp, "s.wav"), np.zeros(16000))
        samples = features.load_wav(path)
    assert samples.dtype == np.float64
    assert samples.shape == (16000,)
    assert np.all(samples == 0.0)


@example("features", "load_wav", "stereo_downmix")
def _():
    left = np.full(500, 0.5)
    right = np.full(500, -0.5)
    interleaved = np.stack([left, right], axis=1).reshape(-1)
    with tempfile.TemporaryDirectory() as tmp:
        path = write_wav(os.path.join(tmp, "st.wav"), interleaved, channels=2)
        samples = features.load_wav(path)
    assert samples.shape == (500,)
    assert np.all(np.abs(samples) < 1e-4)  # (0.5 + -0.5) / 2


@example("features", "load_wav", "resample_doubles_length")
def _():
    n = 4000
    with tempfile.TemporaryDirectory() as tmp:
        path = write_wav(os.path.join(tmp, "r.wav"), np.random.default_rng(1).uniform(-0.5, 0.5, n), rate=8000)
        samples = features.load_wav(path)
    assert samples.shape == (2 * n,)


# features.compute_fbank


@example("features", "compute_fbank", "tone_bin")
def _():
    t = np.arange(16000) / 16000.0
    fb = features.compute_fbank(0.5 * np.sin(2 * np.pi * 440.0 * t))
    _, edges = features.mel_filterbank()
    band = int(np.argmax(fb.mean(axis=0)))
    assert edges[band, 0] <= 440.0 <= edges[band, 2]
    # geometry oracle: recompute the winning band edges from the mel formula
    mel = lambda f: 2595.0 * np.log10(1.0 + f / 700.0)
    grid = np.linspace(mel(0.0), mel(8000.0), 42)
    assert grid[band] <= mel(440.0) <= grid[band + 2]


@example("features", "compute_fbank", "silence_floor")
def _():
    fb = features.compute_fbank(np.zeros(8000))
    assert np.all(fb == math.log(1e-10))


@example("features", "compute_fbank", "frame_count")
def _():
    fb = features.compute_fbank(np.zeros(16000))
    # 1 + floor((16000 - 400) / 160) = 98
    assert fb.shape == (98, 40)


# features.add_deltas


@example("features", "add_deltas", "constant_features")
def _():
    out = features.add_deltas(np.full((12, 5), 3.7))
    assert np.allclose(out[:, 5:], 0.0, atol=1e-12)


@example("features", "add_deltas", "dim_triples")
def _():
    out = features.add_deltas(np.zeros((4, 40)))
    assert out.shape == (4, 120)


@example("features", "add_deltas", "ramp_slope")
def _():
    slope = 0.35
    ramp = slope * np.arange(20.0)[:, None] * np.ones((1, 3))
    out = features.add_deltas(ramp)
    assert np.allclose(out[4:-4, 3:6], slope, atol=1e-12)


# features.normalize


@example("features", "normalize", "idempotent")
def _():
    rng = np.random.default_rng(2)
    once = features.normalize(rng.normal(size=(30, 4)))
    twice = features.normalize(once)
    assert np.allclose(once, twice, atol=1e-9)


@example("features", "normalize", "constant_column")
def _():
    out = features.normalize(np.full((10, 2), 5.0))
    assert np.allclose(out, 0.0)


@example("features", "normalize", "two_frame")
def _():
    out = features.normalize(np.array([[0.0], [2.0]]))
    assert np.allclose(out, [[-1.0], [1.0]], atol=1e-12)


# ===========================================================================
# capsnet.squash


@example("capsnet", "squash", "zero")
def _():
    assert np.array_equal(capsnet.squash(np.zeros(4)), np.zeros(4))


@example("capsnet", "squash", "unit_norm_halves")
def _():
    s = np.array([0.6, 0.8])  # norm exactly 1
    out = capsnet.squash(s)
    assert abs(np.linalg.norm(out) - 0.5) < 1e-12
    assert np.allclose(out / np.linalg.norm(out), s, atol=1e-12)


@example("capsnet", "squash", "three_zero")
def _():
    assert np.allclose(capsnet.squash(np.array([3.0, 0.0])), [0.9, 0.0], atol=1e-12)


# capsnet.predict_capsules


@example("capsnet", "predict_capsules", "identity_transforms")
def _():
    P, K, d = 3, 4, 2
    u = np.random.default_rng(3).normal(size=(P, 1, d)) * 0.1
    W = np.broadcast_to(np.eye(d)[:, None], (P, d, K, d)).copy()
    votes = capsnet.predict_capsules(u, W)
    for j in range(K):
        assert np.allclose(votes[:, 0, j, :], u[:, 0], atol=1e-12)


@example("capsnet", "predict_capsules", "zero_transforms")
def _():
    votes = capsnet.predict_capsules(np.ones((2, 1, 3)), np.zeros((2, 3, 5, 4)))
    assert np.all(votes == 0.0)


@example("capsnet", "predict_capsules", "hand_pair")
def _():
    # the one pair's (d_p, n) matrix sits at W[0, :, 0]; prediction is u @ W = W^T u
    W = np.array([[1.0, 0.0], [2.0, 1.0]]).reshape(1, 2, 1, 2)
    u = np.array([[[1.0, 1.0]]])
    votes = capsnet.predict_capsules(u, W)
    assert np.allclose(votes[0, 0, 0], [3.0, 1.0])


# capsnet.dynamic_routing


@example("capsnet", "dynamic_routing", "single_pass_hand")
def _():
    votes = np.random.default_rng(4).normal(size=(1, 1, 2, 3))
    caps, trace = capsnet.dynamic_routing(votes, iters=1)
    assert np.allclose(trace.coefficients[-1], 0.5, atol=1e-12)
    for j in range(2):
        assert np.allclose(caps[0, j], capsnet.squash(0.5 * votes[0, 0, j]), atol=1e-12)


@example("capsnet", "dynamic_routing", "symmetric_votes_stay_uniform")
def _():
    rng = np.random.default_rng(5)
    base = rng.normal(size=(6, 1, 1, 4))
    votes = np.repeat(base, 3, axis=2)  # identical predictions for every output
    for iters in (1, 2, 4):
        caps, trace = capsnet.dynamic_routing(votes, iters)
        for c in trace.coefficients:
            assert np.allclose(c, 1.0 / 3.0, atol=1e-12)


@example("capsnet", "dynamic_routing", "zero_votes")
def _():
    caps, trace = capsnet.dynamic_routing(np.zeros((4, 1, 3, 2)), iters=3)
    assert np.all(caps == 0.0)
    assert np.allclose(trace.coefficients[-1], 1.0 / 3.0, atol=1e-12)


# capsnet.encode


@example("capsnet", "encode", "zero_everything")
def _():
    cfg = tiny_model_config()
    params = {k: np.zeros_like(v) for k, v in model.init_params(cfg).items()}
    caps, _ = capsnet.encode(np.zeros((4, 1, cfg.feat_dim)), params, cfg, np.array([4]))
    assert np.all(caps == 0.0)


@example("capsnet", "encode", "norms_below_one")
def _():
    cfg = tiny_model_config()
    rng = np.random.default_rng(6)
    params = {k: rng.normal(0, 0.8, size=v.shape) for k, v in model.init_params(cfg).items()}
    caps, _ = capsnet.encode(rng.normal(size=(7, 1, cfg.feat_dim)), params, cfg, np.array([7]))
    norms = np.linalg.norm(caps, axis=-1)
    assert np.all(norms < 1.0)


@example("capsnet", "encode", "bit_identical_runs")
def _():
    cfg = tiny_model_config(seed=11)
    feats = np.random.default_rng(7).normal(size=(5, 1, cfg.feat_dim))
    a = capsnet.encode(feats, model.init_params(cfg), cfg, np.array([5]))[0]
    b = capsnet.encode(feats, model.init_params(cfg), cfg, np.array([5]))[0]
    assert a.tobytes() == b.tobytes()


# capsnet.margin_loss


@example("capsnet", "margin_loss", "inside_margins")
def _():
    caps = np.array([[0.95, 0.0], [0.05, 0.0]])
    assert capsnet.margin_loss(caps, np.array([1.0, 0.0])) == 0.0


@example("capsnet", "margin_loss", "half_norms")
def _():
    caps = np.array([[0.5, 0.0], [0.5, 0.0]])
    loss = capsnet.margin_loss(caps, np.array([1.0, 0.0]))
    assert abs(loss - 0.8) < 1e-12  # (0.9 - 0.5) + (0.5 - 0.1)


@example("capsnet", "margin_loss", "exactly_at_margins")
def _():
    caps = np.array([[0.1, 0.0], [0.9, 0.0]])
    assert capsnet.margin_loss(caps, np.array([0.0, 1.0])) == 0.0


# capsnet.decode_labels


def _vocab_one_group(required=True):
    return datasets.LabelVocabulary(
        labels=("g:a", "g:b", "g:c"),
        slot_groups=(datasets.SlotGroup("g", ("g:a", "g:b", "g:c"), required),),
    )


def _capsules_of_norms(norms):
    """Output capsules (B, K, 2) whose norms are ``norms`` (B, K)."""
    norms = np.asarray(norms, dtype=np.float64)
    return np.stack([norms, np.zeros_like(norms)], axis=-1)


@example("capsnet", "decode_labels", "group_argmax")
def _():
    caps = _capsules_of_norms([[0.9, 0.2, 0.1]])
    assert capsnet.decode_labels(caps, _vocab_one_group()) == [["g:a"]]


@example("capsnet", "decode_labels", "optional_below_threshold")
def _():
    caps = _capsules_of_norms([[0.4, 0.2, 0.1]])
    assert capsnet.decode_labels(caps, _vocab_one_group(required=False)) == [[]]


@example("capsnet", "decode_labels", "two_groups")
def _():
    vocab = datasets.LabelVocabulary(
        labels=("a:x", "a:y", "b:x", "b:y"),
        slot_groups=(datasets.SlotGroup("a", ("a:x", "a:y"), True),
                     datasets.SlotGroup("b", ("b:x", "b:y"), True)),
    )
    caps = _capsules_of_norms([[0.6, 0.4, 0.3, 0.7]])
    assert capsnet.decode_labels(caps, vocab) == [["a:x", "b:y"]]


# capsnet.forward


@example("capsnet", "forward", "output_shapes")
def _():
    cfg = tiny_model_config()
    params = model.init_params(cfg)
    for T in (1, 3, 9):
        caps, trace = capsnet.forward(np.random.default_rng(T).normal(size=(T, 1, cfg.feat_dim)),
                                      params, cfg, np.array([T]))
        assert caps.shape == (1, cfg.num_labels, cfg.output_dim)


@example("capsnet", "forward", "loudness_invariance")
def _():
    rng = np.random.default_rng(8)
    audio = rng.uniform(-0.4, 0.4, 9600)
    cfg = tiny_model_config(feat_dim=40)
    params = well_conditioned_params(cfg)

    def pipeline(x):
        feats = features.normalize(features.compute_fbank(x))
        caps, _ = capsnet.forward(feats[:, None], params, cfg, np.array([len(feats)]))
        return caps

    assert np.allclose(pipeline(audio), pipeline(2.0 * audio), atol=1e-9)


@example("capsnet", "forward", "cross_process_determinism")
def _():
    code = (
        "import numpy as np\n"
        "import capsintent.model as model\n"
        "from capsintent.capsnet import ModelConfig\n"
        "cfg = ModelConfig(feat_dim=4, num_labels=3, speaker_count=2, encoder_hidden=4,\n"
        "                  encoder_layers=2, num_primary=3, primary_dim=2, output_dim=2,\n"
        "                  routing_iters=2, speaker_weight=0.5, seed=123)\n"
        "params = model.init_params(cfg)\n"
        "feats = np.linspace(-1, 1, 20).reshape(5, 4)\n"
        "bd, _ = model.loss_and_grads([feats], np.array([[1.0, 0, 1.0]]), [1], params, cfg)\n"
        "print(repr(bd.total_loss))\n"
    )
    outs = [subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                           check=True).stdout for _ in range(2)]
    assert outs[0] == outs[1]


# capsnet.backward


@example("capsnet", "backward", "tiny_model_grad_check")
def _():
    cfg = tiny_model_config(num_primary=3, num_labels=2, primary_dim=2, output_dim=2,
                            routing_iters=2, speaker_weight=0.0)
    params = well_conditioned_params(cfg, seed=21)
    feats = [np.random.default_rng(22).normal(size=(4, cfg.feat_dim))]
    target = np.array([[1.0, 0.0]])

    def loss_fn(p):
        bd, _ = model.loss_and_grads(feats, target, [0], p, cfg)
        return bd.total_loss[0]

    def grads_fn(p):
        _, g = model.loss_and_grads(feats, target, [0], p, cfg)
        return {k: v for k, v in g.items() if not k.startswith("spk.")}

    core = {k: v for k, v in params.items() if not k.startswith("spk.")}
    full = dict(params)

    def loss_core(p):
        return loss_fn({**full, **p})

    def grads_core(p):
        return grads_fn({**full, **p})

    rep = numeric.grad_check(loss_core, grads_core, core)
    assert rep.max_relative_error < 1e-4, rep


@example("capsnet", "backward", "zero_upstream")
def _():
    cfg = tiny_model_config()
    params = model.init_params(cfg)
    caps, trace = capsnet.forward(np.random.default_rng(9).normal(size=(5, 1, cfg.feat_dim)),
                                  params, cfg, np.array([5]))
    grads = capsnet.backward(trace, np.zeros_like(caps), params)
    assert all(np.all(g == 0.0) for g in grads.values())


@example("capsnet", "backward", "oracle_agreement_second_instance")
def _():
    # same oracle on a different random instance (covers routes where some
    # coupling coefficients are near zero)
    cfg = tiny_model_config(num_primary=4, num_labels=3, primary_dim=2, output_dim=2,
                            routing_iters=3, speaker_weight=0.0)
    params = well_conditioned_params(cfg, seed=31, scale=0.9)
    feats = [np.random.default_rng(32).normal(size=(6, cfg.feat_dim))]
    target = np.array([[0.0, 1.0, 1.0]])
    core = {k: v for k, v in params.items() if not k.startswith("spk.")}

    def loss_fn(p):
        bd, _ = model.loss_and_grads(feats, target, [0], {**params, **p}, cfg)
        return bd.total_loss[0]

    def grads_fn(p):
        _, g = model.loss_and_grads(feats, target, [0], {**params, **p}, cfg)
        return {k: v for k, v in g.items() if not k.startswith("spk.")}

    rep = numeric.grad_check(loss_fn, grads_fn, core)
    assert rep.max_relative_error < 1e-4, rep


# ===========================================================================
# multitask.average_capsule


@example("multitask", "average_capsule", "identical_capsules")
def _():
    v = np.array([0.3, 0.4])
    avg = multitask.average_capsule(np.tile(v, (5, 1)))
    assert np.allclose(avg, v / np.linalg.norm(v), atol=1e-12)
    assert abs(np.linalg.norm(avg) - 1.0) < 1e-12


@example("multitask", "average_capsule", "hand_value")
def _():
    avg = multitask.average_capsule(np.array([[0.6, 0.0], [0.0, 0.8]]))
    assert np.allclose(avg, [0.6 / 1.4, 0.8 / 1.4], atol=1e-12)


@example("multitask", "average_capsule", "all_zero_guard")
def _():
    avg = multitask.average_capsule(np.zeros((3, 4)))
    assert np.all(avg == 0.0)


# multitask.speaker_distribution


@example("multitask", "speaker_distribution", "zero_weights_uniform")
def _():
    avg = np.array([[0.3, -0.2]])
    params = {"spk.W": np.zeros((2, 4)), "spk.b": np.zeros(4)}
    probs = multitask.speaker_distribution(avg, params)
    assert np.allclose(probs[0], 0.25, atol=1e-12)


@example("multitask", "speaker_distribution", "log_ratio_logits")
def _():
    avg = np.array([[1.0]])
    params = {"spk.W": np.array([[math.log(3.0), 0.0]]), "spk.b": np.zeros(2)}
    probs = multitask.speaker_distribution(avg, params)
    assert np.allclose(probs[0], [0.75, 0.25], atol=1e-12)


@example("multitask", "speaker_distribution", "bias_shift_invariance")
def _():
    rng = np.random.default_rng(10)
    avg = rng.normal(size=(1, 3))
    w = rng.normal(size=(3, 5))
    base = multitask.speaker_distribution(avg, {"spk.W": w, "spk.b": np.zeros(5)})
    shifted = multitask.speaker_distribution(avg, {"spk.W": w, "spk.b": np.full(5, 7.3)})
    assert np.allclose(base, shifted, atol=1e-12)


# multitask.speaker_loss


@example("multitask", "speaker_loss", "uniform_two")
def _():
    probs = np.array([[0.5, 0.5]])
    assert abs(multitask.speaker_loss(probs, [0])[0] - math.log(2.0)) < 1e-12


@example("multitask", "speaker_loss", "perfect_prediction")
def _():
    probs = np.array([[1.0, 0.0]])
    assert multitask.speaker_loss(probs, [0])[0] == 0.0


@example("multitask", "speaker_loss", "hand_value")
def _():
    probs = np.array([[0.2, 0.5, 0.3]])
    assert abs(multitask.speaker_loss(probs, [1])[0] + math.log(0.5)) < 1e-12


# multitask.total_loss


@example("multitask", "total_loss", "zero_weight_reduction")
def _():
    bd = multitask.total_loss(0.42, 9.9, 0.0)
    assert bd.total_loss == 0.42


@example("multitask", "total_loss", "hand_value")
def _():
    bd = multitask.total_loss(0.8, 0.7, 0.1)
    assert abs(bd.total_loss - 0.87) < 1e-12


@example("multitask", "total_loss", "zero_speaker_loss")
def _():
    bd = multitask.total_loss(0.55, 0.0, 1.0)
    assert bd.total_loss == 0.55


# multitask.decode_speaker


@example("multitask", "decode_speaker", "argmax")
def _():
    assert multitask.decode_speaker(np.array([[0.1, 0.8, 0.1]])) == [1]


@example("multitask", "decode_speaker", "tie_lowest_index")
def _():
    assert multitask.decode_speaker(np.full((1, 4), 0.25)) == [0]


@example("multitask", "decode_speaker", "close_call")
def _():
    assert multitask.decode_speaker(np.array([[0.49, 0.51]])) == [1]


# multitask.head_backward


@example("multitask", "head_backward", "full_grad_check")
def _():
    cfg = tiny_model_config(speaker_weight=0.7)
    params = well_conditioned_params(cfg, seed=41)
    feats = [np.random.default_rng(42).normal(size=(5, cfg.feat_dim))]
    target = np.array([[1.0, 0.0, 0.0, 1.0]])

    rep = numeric.grad_check(
        lambda p: model.loss_and_grads(feats, target, [2], p, cfg)[0].total_loss[0],
        lambda p: model.loss_and_grads(feats, target, [2], p, cfg)[1],
        params,
    )
    assert rep.max_relative_error < 1e-4, rep


@example("multitask", "head_backward", "zero_weight_zero_grads")
def _():
    rng = np.random.default_rng(11)
    caps = rng.normal(size=(1, 4, 3)) * 0.4
    params = {"spk.W": rng.normal(size=(3, 5)), "spk.b": rng.normal(size=5)}
    _, trace = multitask.head_forward(caps, params, [2])
    grads, d_caps = multitask.head_backward(trace, [2], 0.0, params)
    assert np.all(grads["spk.W"] == 0.0) and np.all(grads["spk.b"] == 0.0)
    assert np.all(d_caps == 0.0)


@example("multitask", "head_backward", "softmax_ce_stationary")
def _():
    onehot = np.zeros((1, 4))
    onehot[0, 1] = 1.0
    trace = multitask.HeadTrace(
        capsules=np.ones((1, 3, 2)) * 0.2,
        average=np.array([[0.7, 0.7]]) / np.sqrt(2 * 0.49),
        probs=onehot,
    )
    params = {"spk.W": np.ones((2, 4)), "spk.b": np.zeros(4)}
    grads, d_caps = multitask.head_backward(trace, [1], 1.0, params)
    assert np.all(np.abs(grads["spk.b"]) < 1e-12)
    assert np.all(np.abs(d_caps) < 1e-12)


# ===========================================================================
# datasets.synth_generate


@example("datasets", "synth_generate", "nearest_prototype_oracle")
def _():
    spec = datasets.SynthSpec(
        speaker_count=4, num_labels=9,
        groups=(datasets.SynthGroup("a", 3, True), datasets.SynthGroup("b", 3, False),
                datasets.SynthGroup("c", 3, False)),
        per_speaker_count=40, feat_dim=10, noise_level=0.0,
    )
    corpus = datasets.synth_generate(spec, seed=5)
    truth = datasets.synth_truth(spec, seed=5)
    L = datasets.SEGMENT_FRAMES
    # nearest prototype per chunk: the constant speaker offset only adds a
    # fixed self-distance, far below the distance between label prototypes
    correct = 0
    for utt in corpus.utterances:
        T = utt.features.shape[0]
        n_seg = int(round(T / L))
        lo, hi, w_lo, w_hi = datasets._resample_weights(T, n_seg * L)
        feats = utt.features[lo] * w_lo + utt.features[hi] * w_hi
        decoded = []
        for s in range(n_seg):
            chunk = feats[s * L:(s + 1) * L]
            dists = np.sum((truth.prototypes - chunk) ** 2, axis=(1, 2))
            decoded.append(int(np.argmin(dists)))
        expected = sorted(np.flatnonzero(utt.target > 0).tolist())
        correct += int(sorted(decoded) == expected)
    assert correct == len(corpus)


@example("datasets", "synth_generate", "seed_determinism")
def _():
    spec = datasets.SynthSpec(speaker_count=2, num_labels=4,
                              groups=(datasets.SynthGroup("g", 4, True),),
                              per_speaker_count=5, feat_dim=6, noise_level=0.2)
    a = datasets.synth_generate(spec, seed=7)
    b = datasets.synth_generate(spec, seed=7)
    assert len(a) == len(b)
    for ua, ub in zip(a.utterances, b.utterances):
        assert ua.id == ub.id
        assert ua.features.tobytes() == ub.features.tobytes()
        assert np.array_equal(ua.target, ub.target)


@example("datasets", "synth_generate", "mimic_preset_shape")
def _():
    spec = datasets.mimic_grabo_spec(per_speaker_count=3)
    corpus = datasets.synth_generate(spec, seed=1)
    assert len(corpus.speakers) == 11
    assert len(corpus.vocab) == 33
    assert len(corpus) == 33


# datasets.split_blocks


@example("datasets", "split_blocks", "block_sizes")
def _():
    spec = datasets.SynthSpec(speaker_count=5, num_labels=2,
                              groups=(datasets.SynthGroup("g", 2, True),),
                              per_speaker_count=1200, feat_dim=2, noise_level=0.0)
    # 6000 utterances without feature payloads would be slow to synthesize at
    # full frame length; build a lightweight corpus directly instead
    vocab = datasets.LabelVocabulary(labels=("g:g0", "g:g1"),
                                     slot_groups=(datasets.SlotGroup("g", ("g:g0", "g:g1"), True),))
    target = vocab.to_multi_hot(["g:g0"])
    utts = [datasets.Utterance(id=f"u{i}", target=target, speaker_index=i % 5)
            for i in range(6000)]
    corpus = datasets.Corpus(name="x", utterances=utts, vocab=vocab,
                             speakers=[f"s{i}" for i in range(5)])
    split = datasets.split_blocks(corpus, 150, "speaker_independent", seed=3)
    assert all(len(b) == 40 for b in split.blocks)


@example("datasets", "split_blocks", "partition")
def _():
    spec = datasets.SynthSpec(speaker_count=3, num_labels=3,
                              groups=(datasets.SynthGroup("g", 3, True),),
                              per_speaker_count=20, feat_dim=4, noise_level=0.1)
    corpus = datasets.synth_generate(spec, seed=2)
    split = datasets.split_blocks(corpus, 7, "speaker_independent", seed=1)
    seen = [i for b in split.blocks for i in b]
    assert sorted(seen) == sorted(u.id for u in corpus.utterances)
    assert len(set(seen)) == len(seen)


@example("datasets", "split_blocks", "seed_determinism")
def _():
    spec = datasets.SynthSpec(speaker_count=2, num_labels=2,
                              groups=(datasets.SynthGroup("g", 2, True),),
                              per_speaker_count=30, feat_dim=3, noise_level=0.1)
    corpus = datasets.synth_generate(spec, seed=2)
    a = datasets.split_blocks(corpus, 10, "speaker_dependent", seed=9)
    b = datasets.split_blocks(corpus, 10, "speaker_dependent", seed=9)
    assert a.blocks == b.blocks


# ===========================================================================
# experiments.f1_score


@example("experiments", "f1_score", "perfect")
def _():
    sets = [["a", "b"], ["c"]]
    assert experiments.f1_score(sets, sets) == 1.0


@example("experiments", "f1_score", "all_empty_predictions")
def _():
    assert experiments.f1_score([[], []], [["a"], ["b"]]) == 0.0


@example("experiments", "f1_score", "pooled_half")
def _():
    # pooled TP=1, FP=1, FN=1 -> 2/(2+1+1) = 0.5
    assert experiments.f1_score([["a", "b"]], [["a", "c"]]) == 0.5


# experiments.speaker_accuracy


@example("experiments", "speaker_accuracy", "all_correct")
def _():
    assert experiments.speaker_accuracy([1, 2, 0], [1, 2, 0]) == 1.0


@example("experiments", "speaker_accuracy", "none_correct")
def _():
    assert experiments.speaker_accuracy([1, 1], [0, 0]) == 0.0


@example("experiments", "speaker_accuracy", "three_of_four")
def _():
    assert experiments.speaker_accuracy([0, 1, 2, 3], [0, 1, 2, 0]) == 0.75


# experiments.intent_accuracy


def _two_group_vocab():
    return datasets.LabelVocabulary(
        labels=("a:x", "a:y", "b:x", "b:y"),
        slot_groups=(datasets.SlotGroup("a", ("a:x", "a:y"), True),
                     datasets.SlotGroup("b", ("b:x", "b:y"), True)),
    )


@example("experiments", "intent_accuracy", "all_correct")
def _():
    sets = [["a:x", "b:y"], ["a:y", "b:x"]]
    assert experiments.intent_accuracy(sets, sets, _two_group_vocab()) == 1.0


@example("experiments", "intent_accuracy", "one_slot_wrong")
def _():
    pred = [["a:x", "b:y"], ["a:y", "b:y"]]
    ref = [["a:x", "b:y"], ["a:y", "b:x"]]
    assert experiments.intent_accuracy(pred, ref, _two_group_vocab()) == 0.5


@example("experiments", "intent_accuracy", "empty_corpus_guard")
def _():
    with pytest.raises(UsageError):
        experiments.intent_accuracy([], [], _two_group_vocab())


# experiments.learning_curve


def _small_corpus(noise=0.0, per_speaker=30, seed=2):
    spec = datasets.SynthSpec(
        speaker_count=3, num_labels=4,
        groups=(datasets.SynthGroup("g", 4, True),),
        per_speaker_count=per_speaker, feat_dim=8, noise_level=noise,
    )
    return datasets.synth_generate(spec, seed=seed)


def _small_config(**overrides):
    base = dict(feat_dim=8, num_labels=4, speaker_count=3, encoder_hidden=10,
                encoder_layers=2, num_primary=6, primary_dim=3, output_dim=4,
                routing_iters=2, speaker_weight=0.0, seed=5)
    base.update(overrides)
    return capsnet.ModelConfig(**base)


@example("experiments", "learning_curve", "single_point_protocol")
def _():
    corpus = _small_corpus()
    split = datasets.split_blocks(corpus, 6, "speaker_independent", seed=0)
    points = experiments.learning_curve(corpus, split, [1], _small_config(),
                                        repeats=1, fit_options={"epochs": 3})
    assert len(points) == 1
    assert points[0].train_utterances == len(split.blocks[0])
    test_size = sum(len(b) for b in split.blocks[1:])
    assert test_size == len(corpus) - len(split.blocks[0])


@example("experiments", "learning_curve", "grabo_sized_arithmetic")
def _():
    vocab = datasets.LabelVocabulary(labels=("g:a", "g:b"),
                                     slot_groups=(datasets.SlotGroup("g", ("g:a", "g:b"), True),))
    target = vocab.to_multi_hot(["g:a"])
    utts = [datasets.Utterance(id=f"u{i}", target=target, speaker_index=0)
            for i in range(6000)]
    corpus = datasets.Corpus(name="x", utterances=utts, vocab=vocab, speakers=["s"])
    split = datasets.split_blocks(corpus, 150, "speaker_independent", seed=0)
    train_ids, test_ids = experiments._blocks_train_test(split.blocks, 5)
    assert len(train_ids) == 200  # 5 blocks x 40 utterances
    assert len(test_ids) == 5800


@example("experiments", "learning_curve", "monotone_on_clean_data")
def _():
    wins = 0
    for seed in range(5):
        corpus = _small_corpus(noise=0.0, per_speaker=30, seed=seed)
        split = datasets.split_blocks(corpus, 9, "speaker_independent", seed=seed)
        cfg = _small_config(seed=seed)
        points = experiments.learning_curve(corpus, split, [1, 6], cfg, repeats=1,
                                            fit_options={"epochs": 12})
        wins += int(points[-1].f1 >= points[0].f1)
    assert wins >= 4, f"largest point beat smallest in only {wins}/5 seeds"


# experiments.fit


@example("experiments", "fit", "baseline_reaches_f1")
def _():
    corpus = _small_corpus(noise=0.1, per_speaker=40, seed=3)
    rng = np.random.default_rng(0)
    order = rng.permutation(len(corpus))
    train = [corpus.utterances[i] for i in order[:90]]
    test = [corpus.utterances[i] for i in order[90:]]
    cfg = _small_config(speaker_weight=0.0)
    result = experiments.fit(train, cfg, epochs=30)
    scores = experiments.evaluate_model(test, result.params, cfg, corpus.vocab)
    assert scores["f1"] >= 0.95, scores


@example("experiments", "fit", "loss_decreases_early")
def _():
    ok = 0
    for seed in range(5):
        corpus = _small_corpus(noise=0.1, per_speaker=15, seed=10 + seed)
        cfg = _small_config(seed=seed, speaker_weight=0.5)
        result = experiments.fit(corpus.utterances, cfg, epochs=5)
        ok += int(result.history[-1].total_loss < result.history[0].total_loss)
    assert ok >= 4, f"loss fell over 5 epochs in only {ok}/5 seeds"


@example("experiments", "fit", "history_length")
def _():
    corpus = _small_corpus(per_speaker=5)
    cfg = _small_config()
    result = experiments.fit(corpus.utterances, cfg, epochs=3)
    assert len(result.history) == 3
    assert not result.stopped_early
