"""Shared test utilities."""

import functools
import wave

import numpy as np


def write_wav(path, samples, rate=16000, channels=1, sampwidth=2):
    """Write float samples in [-1, 1] as PCM WAV."""
    samples = np.asarray(samples, dtype=np.float64)
    if sampwidth == 2:
        data = (np.clip(samples, -1, 1) * 32767).astype("<i2").tobytes()
    elif sampwidth == 1:
        data = (np.clip(samples, -1, 1) * 127 + 128).astype(np.uint8).tobytes()
    elif sampwidth == 3:    # the low three bytes of each little-endian 32-bit word
        words = (np.clip(samples, -1, 1) * (2**23 - 1)).astype("<i4")
        data = words.view(np.uint8).reshape(-1, 4)[:, :3].tobytes()
    elif sampwidth == 4:
        data = (np.clip(samples, -1, 1) * (2**31 - 1)).astype("<i4").tobytes()
    else:
        raise ValueError(sampwidth)
    with wave.open(str(path), "wb") as fh:
        fh.setnchannels(channels)
        fh.setsampwidth(sampwidth)
        fh.setframerate(rate)
        fh.writeframes(data)
    return str(path)


def tiny_model_config(**overrides):
    """Small but non-degenerate model settings for fast tests."""
    from capsintent.capsnet import ModelConfig

    base = dict(feat_dim=6, num_labels=4, speaker_count=3, encoder_hidden=5,
                encoder_layers=2, num_primary=4, primary_dim=3, output_dim=3,
                routing_iters=2, speaker_weight=0.5, seed=0)
    base.update(overrides)
    return ModelConfig(**base)


def well_conditioned_params(config, seed=123, scale=0.6):
    """Random parameters whose capsule norms sit away from 0 and the margin
    hinge points, where central differences are trustworthy."""
    import capsintent.model as model

    rng = np.random.default_rng(seed)
    params = model.init_params(config)
    return {k: rng.normal(0.0, scale, size=v.shape) for k, v in params.items()}


def einsum_routing(votes, iters):
    """Reference dynamic routing over (P, B, K, n) votes, written with
    einsum over (P, B, K) logits: the output capsules, and per iteration the
    (P, B, K) coefficients, pooled inputs and outputs."""
    from capsintent.capsnet import squash
    from capsintent.numeric import softmax

    logits = np.zeros(votes.shape[:-1])
    coefficients, pooled, outputs = [], [], []
    for it in range(iters):
        coeff = softmax(logits)
        s = np.einsum("p...k,p...kn->...kn", coeff, votes)
        out = squash(s)
        coefficients.append(coeff)
        pooled.append(s)
        outputs.append(out)
        if it < iters - 1:
            logits = logits + np.einsum("p...kn,...kn->p...k", votes, out)
    return out, coefficients, pooled, outputs


def einsum_routing_backward(votes, coefficients, pooled, outputs, d_out):
    """Reference vote gradient of ``einsum_routing``, through every softmax
    and logit update."""
    from capsintent.capsnet import squash_grad
    from capsintent.numeric import softmax_grad

    left, right = [], []
    d_logits = None
    d_v = np.asarray(d_out, dtype=np.float64)
    for it in range(len(outputs) - 1, -1, -1):
        coeff = coefficients[it]
        if d_logits is not None:
            left.append(d_logits)
            right.append(outputs[it])
            d_v = np.einsum("p...k,p...kn->...kn", d_logits, votes)
        d_pooled = squash_grad(d_v, pooled[it])
        left.append(coeff)
        right.append(d_pooled)
        d_softmax = softmax_grad(np.einsum("...kn,p...kn->p...k", d_pooled, votes), coeff)
        d_logits = d_softmax if d_logits is None else d_logits + d_softmax
    return np.einsum("p...kt,...ktn->p...kn", np.stack(left, axis=-1), np.stack(right, axis=-2),
                     optimize=True)


# The formulations below use NumPy's wrapper functions (np.sum, np.max,
# np.all, np.linalg.norm, np.stack) and keyword ``out``: the code the
# package's per-call paths replaced with direct ufunc calls. They are the
# byte-identity oracles of those paths.

def assert_same_bits(got, want):
    """Same shape, dtype and bytes: equal bit for bit, -0.0 and NaNs included."""
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape and got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()


def wrapper_softmax(v, axis=-1):
    v = np.asarray(v, dtype=np.float64)
    assert np.all(np.isfinite(v))
    e = v - np.max(v, axis=axis, keepdims=True)
    np.exp(e, out=e)
    e /= np.sum(e, axis=axis, keepdims=True)
    return e


def wrapper_softmax_grad(upstream, probs, axis=-1):
    grad = upstream - np.sum(upstream * probs, axis=axis, keepdims=True)
    grad *= probs
    return grad


def wrapper_squash(s):
    sq = np.sum(s * s, axis=-1, keepdims=True)
    return s * (np.sqrt(sq) / (1.0 + sq))


def wrapper_squash_grad(upstream, s):
    from capsintent.capsnet import NORM_GUARD

    sq = np.sum(s * s, axis=-1, keepdims=True)
    nrm = np.sqrt(sq)
    scale = nrm / (1.0 + sq)
    proj = np.sum(upstream * s, axis=-1, keepdims=True)
    radial = (1.0 - sq) / ((1.0 + sq) ** 2 * (nrm + NORM_GUARD))
    return upstream * scale + s * (proj * radial)


def wrapper_capsule_norms(caps):
    return np.linalg.norm(caps, axis=-1)


def wrapper_gru_forward(p, xs):
    """``encoder.gru_forward`` with a per-call scale array, a copied and
    slice-scaled ``Wh``, and keyword ``out`` and Python-float operands in the
    frame step: (states, cache)."""
    hidden, B = p["Wh"].shape[-2], xs.shape[2]
    scale = np.array([0.5, -0.5]).repeat(hidden)
    Wh = p["Wh"].copy()
    Wh[..., :2 * hidden] *= scale
    gates = xs @ (p["Wx"][..., :2 * hidden] * scale)
    gates += p["b"][:, None, :2 * hidden] * scale
    n_all = xs @ p["Wx"][..., 2 * hidden:]
    n_all += p["b"][:, None, 2 * hidden:]
    states = np.empty_like(n_all)
    hh = np.empty((2, B, 3 * hidden))
    hh_rz, hh_n = hh[..., :2 * hidden], hh[..., 2 * hidden:]
    reset_h = np.empty((2, B, hidden))
    h = np.zeros((2, B, hidden))
    for g, r, u, n, h_new in zip(gates, gates[..., :hidden], gates[..., hidden:], n_all,
                                 states):
        np.matmul(h, Wh, out=hh)
        np.add(g, hh_rz, out=g)
        np.tanh(g, out=g)
        np.add(g, 1.0, out=g)
        np.multiply(g, 0.5, out=g)
        np.multiply(r, hh_n, out=reset_h)
        np.add(n, reset_h, out=n)
        np.tanh(n, out=n)
        np.subtract(n, h, out=h_new)
        np.multiply(u, h_new, out=h_new)
        np.add(h, h_new, out=h_new)
        h = h_new
    cache = {"xs": xs, "states": states, "r": gates[..., :hidden],
             "one_minus_z": gates[..., hidden:], "n": n_all}
    return states, cache


def wrapper_encoder_readout(params, feats, layers, lengths):
    """``encoder.encoder_forward``'s readout, built with ``np.stack`` over
    ``wrapper_gru_forward`` and read one sequence at a time."""
    T = feats.shape[0]
    t = np.arange(T)[:, None]
    reversal = np.where(t < lengths, lengths - 1 - t, t), np.arange(len(lengths))
    xs = feats
    for layer in range(layers):
        p = {key: params[f"enc.{layer}.{key}"] for key in ("Wx", "Wh", "b")}
        states, _ = wrapper_gru_forward(p, np.stack([xs, xs[reversal]], axis=1))
        if layer < layers - 1:
            xs = np.concatenate([states[:, 0], states[:, 1][reversal]], axis=-1)
    return np.stack([np.concatenate(states[length - 1, :, seq])
                     for seq, length in enumerate(lengths)])


def reference_gru_backward(p, cache, d_states):
    """``encoder.gru_backward`` as it was with one frame loop per direction
    over strided views of the cache: (grads, d_pre_x). The bit-for-bit
    oracle of the two-direction frame loop."""
    hidden = p["Wh"].shape[-2]
    grads = {key: np.empty_like(value) for key, value in p.items()}
    T, _, B = d_states.shape[:3]
    d_pre_x = np.empty((2, T * B, 3 * hidden))
    for direction in range(2):
        xs, states, r, u, n = (cache[key][:, direction]
                               for key in ("xs", "states", "r", "one_minus_z", "n"))
        z = 1.0 - u
        Wh = p["Wh"][direction]
        h_prev = np.concatenate([np.zeros_like(states[:1]), states[:-1]])
        hh_n = h_prev @ Wh[:, 2 * hidden:]
        d_n = u * (1.0 - n * n)
        factors = np.stack([d_n * hh_n * r * (1.0 - r), (h_prev - n) * z * u,
                            d_n * r, d_n], axis=-2)
        d_pre = np.empty_like(factors)
        d_pre_h = d_pre[..., :3, :].reshape(d_pre.shape[:-2] + (3 * hidden,))
        Wh_T = Wh.T
        d_steps = d_states[:, direction]
        dh = np.zeros(d_steps.shape[1:])
        for t in range(xs.shape[0] - 1, -1, -1):
            dh = dh + d_steps[t]
            np.multiply(dh[..., None, :], factors[t], out=d_pre[t])
            dh = dh * z[t] + d_pre_h[t] @ Wh_T
        d_x = d_pre_x[direction]
        np.concatenate([d_pre[..., :2, :], d_pre[..., 3:, :]], axis=-2,
                       out=d_x.reshape(T, B, 3, hidden))
        np.matmul(xs.reshape(-1, xs.shape[-1]).T, d_x, out=grads["Wx"][direction])
        np.matmul(h_prev.reshape(-1, hidden).T, d_pre_h.reshape(-1, 3 * hidden),
                  out=grads["Wh"][direction])
        d_x.sum(axis=0, out=grads["b"][direction])
    return grads, d_pre_x


def diverge_on_seeds(monkeypatch, seeds):
    """Make ``experiments.fit`` raise DivergenceError for a job whose model
    seed is in ``seeds`` and fit as usual otherwise. A job's seed names it
    in whichever process a curve runs it."""
    from capsintent import experiments
    from capsintent.errors import DivergenceError

    real_fit = experiments.fit

    @functools.wraps(real_fit)   # the config loader reads fit's annotations
    def fit(utterances, config, **options):
        if config.seed in seeds:
            raise DivergenceError(f"forced on seed {config.seed}")
        return real_fit(utterances, config, **options)

    monkeypatch.setattr(experiments, "fit", fit)


def reference_synth_generate(spec, seed):
    """``datasets.synth_generate`` one utterance at a time, each draw
    followed by its arithmetic: the byte-identity oracle of the generator,
    which makes every draw first and batches the arithmetic."""
    from capsintent import datasets

    def resample(mat, n_out):
        if n_out == mat.shape[0]:
            return mat
        pos = np.linspace(0.0, mat.shape[0] - 1.0, n_out)
        lo = np.floor(pos).astype(int)
        hi = np.minimum(lo + 1, mat.shape[0] - 1)
        frac = (pos - lo)[:, None]
        return mat[lo] * (1.0 - frac) + mat[hi] * frac

    vocab = datasets._synth_vocab(spec)
    truth = datasets.synth_truth(spec, seed)
    sample_rng = np.random.default_rng(np.random.SeedSequence([seed, 2]))
    ungrouped = [i for i in range(len(vocab)) if i not in vocab.grouped]
    utterances = []
    for s in range(spec.speaker_count):
        for u in range(spec.per_speaker_count):
            active = []
            for group in vocab.slot_groups:
                if group.required or sample_rng.random() < datasets.OPTIONAL_GROUP_PRESENCE:
                    pick = sample_rng.integers(len(group.labels))
                    active.append(vocab.index_of(group.labels[pick]))
            for i in ungrouped:
                if sample_rng.random() < datasets.UNGROUPED_PRESENCE:
                    active.append(i)
            if not active:
                active.append(int(sample_rng.integers(len(vocab))))
            active = sorted(active)
            order = sample_rng.permutation(len(active))
            feats = np.concatenate([truth.prototypes[active[i]] for i in order], axis=0)
            n_out = int(round(truth.speaker_rates[s] * feats.shape[0]))
            feats = resample(feats, max(n_out, 1))
            feats = feats + truth.speaker_offsets[s]
            if spec.noise_level > 0:
                feats = feats + sample_rng.normal(0.0, spec.noise_level, size=feats.shape)
            target = np.zeros(len(vocab))
            target[active] = 1.0
            utterances.append(datasets.Utterance(id=f"synth-s{s:02d}-u{u:04d}", target=target,
                                                 speaker_index=s, features=feats))
    return datasets.Corpus(name="synth", utterances=utterances, vocab=vocab,
                           speakers=[f"spk{s:02d}" for s in range(spec.speaker_count)])


def reference_split_blocks(corpus, num_blocks, mode, seed):
    """``datasets.split_blocks``' dealing as it was before the split kept
    one block list: the corpus's blocks in ``speaker_independent`` mode,
    else a {roster index: that speaker's own blocks} dict, each speaker
    dealt in roster order from the one RNG. The oracle of the block list
    that ``experiments.curve_jobs`` filters per speaker."""
    rng = np.random.default_rng(seed)

    def blocks(ids):
        shuffled = [ids[i] for i in rng.permutation(len(ids))]
        return [shuffled[b::num_blocks] for b in range(num_blocks)]

    if mode == "speaker_independent":
        return blocks([u.id for u in corpus.utterances])
    return {spk: blocks([u.id for u in corpus.utterances if u.speaker_index == spk])
            for spk in range(len(corpus.speakers))}


def reference_curve_jobs(dealt, k, seed, p_idx, rep):
    """The (train_ids, test_ids, seed) jobs of ``experiments.curve_jobs``
    read off ``reference_split_blocks``' dealing: the first ``k`` blocks and
    the rest, of the corpus or of each speaker in roster order."""
    from capsintent import experiments

    def train_test(blocks):
        return [i for b in blocks[:k] for i in b], [i for b in blocks[k:] for i in b]

    if isinstance(dealt, list):
        return [(*train_test(dealt), experiments.derive_seed(seed, p_idx, rep))]
    return [(*train_test(dealt[spk]), experiments.derive_seed(seed, p_idx, rep, spk))
            for spk in sorted(dealt)]
