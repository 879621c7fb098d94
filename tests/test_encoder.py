import numpy as np
import pytest

from capsintent import encoder
from capsintent.errors import DataError
from capsintent.numeric import grad_check

from helpers import (assert_same_bits, reference_gru_backward, wrapper_encoder_readout,
                     wrapper_gru_forward)


def _setup(feat_dim=3, hidden=4, layers=2, T=6, seed=0):
    rng = np.random.default_rng(seed)
    params = encoder.init_encoder_params(rng, feat_dim, hidden, layers)
    feats = rng.normal(size=(T, 1, feat_dim))   # a batch of one
    readout_w = rng.normal(size=2 * hidden)
    return params, feats, readout_w, hidden, layers


def test_encoder_gradients_match_finite_differences():
    params, feats, w, hidden, layers = _setup()

    def loss_fn(p):
        readout, _ = encoder.encoder_forward(p, feats, layers, np.array([len(feats)]))
        return float(np.tanh(readout[0]) @ w)

    def grads_fn(p):
        readout, cache = encoder.encoder_forward(p, feats, layers, np.array([len(feats)]))
        d_readout = (1 - np.tanh(readout) ** 2) * w
        return encoder.encoder_backward(p, cache, d_readout)

    rep = grad_check(loss_fn, grads_fn, params)
    assert rep.max_relative_error < 1e-4, rep


def test_encoder_single_frame():
    params, _, w, hidden, layers = _setup()
    readout, _ = encoder.encoder_forward(params, np.ones((1, 1, 3)), layers, np.array([1]))
    assert readout.shape == (1, 2 * hidden)


def test_encoder_empty_rejected():
    params, _, _, hidden, layers = _setup()
    with pytest.raises(DataError):
        encoder.encoder_forward(params, np.zeros((0, 1, 3)), layers, np.array([0]))


def test_reversed_direction_sees_sequence_order():
    # reversing the input sequence must swap the two halves of the readout
    params, feats, _, hidden, layers = _setup(layers=1)
    lengths = np.array([len(feats)])
    fwd, _ = encoder.encoder_forward(params, feats, layers, lengths)
    rev, _ = encoder.encoder_forward(params, feats[::-1], layers, lengths)
    # with one layer, both directions share no weights, so only compare the
    # direction-specific parts after making the directions share parameters
    for key in ("Wx", "Wh", "b"):
        params[f"enc.0.{key}"][1] = params[f"enc.0.{key}"][0]
    lengths = np.array([len(feats)])
    fwd, _ = encoder.encoder_forward(params, feats, layers, lengths)
    rev, _ = encoder.encoder_forward(params, feats[::-1], layers, lengths)
    assert np.allclose(fwd[0, :hidden], rev[0, hidden:], atol=1e-12)
    assert np.allclose(fwd[0, hidden:], rev[0, :hidden], atol=1e-12)


def test_gru_zero_input_zero_state():
    params = encoder.init_encoder_params(np.random.default_rng(1), 3, 4, 1)
    hs, _ = encoder.gru_forward({k[len("enc.0."):]: np.zeros_like(v) for k, v in params.items()},
                                np.zeros((5, 2, 1, 3)))
    assert np.all(hs == 0.0)


def test_gru_state_shapes():
    rng = np.random.default_rng(2)
    params = {k[len("enc.0."):]: v for k, v in encoder.init_encoder_params(rng, 3, 7, 1).items()}
    hs, cache = encoder.gru_forward(params, rng.normal(size=(9, 2, 1, 3)))
    assert hs.shape == (9, 2, 1, 7)
    assert cache["r"].shape == (9, 2, 1, 7)


def _reference_gru(p, xs, lengths):
    """One direction, one sequence and one frame at a time, from the module
    docstring's formulas; past its length a sequence holds its state.
    Returns the states and each frame's r, z and n (zero past the length)."""
    H = p["Wh"].shape[0]
    Wx, Wh, b = p["Wx"], p["Wh"], p["b"]
    sigmoid = lambda a: 1.0 / (1.0 + np.exp(-a))   # noqa: E731
    states, r_all, z_all, n_all = (np.zeros(xs.shape[:2] + (H,)) for _ in range(4))
    for seq in range(xs.shape[1]):
        h = np.zeros(H)
        for t in range(xs.shape[0]):
            if t < lengths[seq]:
                x = xs[t, seq]
                r = sigmoid(x @ Wx[:, :H] + h @ Wh[:, :H] + b[:H])
                z = sigmoid(x @ Wx[:, H:2 * H] + h @ Wh[:, H:2 * H] + b[H:2 * H])
                n = np.tanh(x @ Wx[:, 2 * H:] + r * (h @ Wh[:, 2 * H:]) + b[2 * H:])
                h = z * h + (1 - z) * n
                r_all[t, seq], z_all[t, seq], n_all[t, seq] = r, z, n
            states[t, seq] = h
    return states, r_all, z_all, n_all


def _random_cells(rng, in_dim, hidden):
    # random biases too: the two cells' initial biases are equal
    return {k[len("enc.0."):]: rng.normal(0.0, 0.5, size=v.shape)
            for k, v in encoder.init_encoder_params(rng, in_dim, hidden, 1).items()}


def _padded_inputs(rng, lengths, in_dim):
    T = int(max(lengths))
    xs = rng.normal(size=(T, 2, len(lengths), in_dim))
    for seq, length in enumerate(lengths):
        xs[length:, :, seq] = 0.0
    return xs


def test_fused_directions_match_the_reference_cell_per_direction():
    rng = np.random.default_rng(3)
    params = _random_cells(rng, 3, 5)
    for lengths in (np.array([7]), np.array([7, 3, 5])):   # one, and a padded batch of three
        xs = _padded_inputs(rng, lengths, 3)
        states, cache = encoder.gru_forward(params, xs)
        # (T, B, 1): the frames a sequence has
        valid = (np.arange(len(xs))[:, None] < lengths)[..., None]
        for direction in range(2):
            ref_states, r, z, n = _reference_gru(
                {k: v[direction] for k, v in params.items()}, xs[:, direction], lengths)
            # on real frames, the states and every gate the backward pass reads
            for got, ref in ((states[:, direction] * valid, ref_states * valid),
                             (cache["r"][:, direction] * valid, r),
                             (cache["one_minus_z"][:, direction] * valid, (1.0 - z) * valid),
                             (cache["n"][:, direction] * valid, n)):
                assert np.max(np.abs(got - ref)) <= 1e-10 * np.max(np.abs(ref))


def test_encoder_rejects_unbatched_features():
    params, feats, _, hidden, layers = _setup()
    with pytest.raises(DataError):
        encoder.encoder_forward(params, feats[:, 0], layers, np.array([len(feats)]))


@pytest.mark.parametrize("lengths", [
    np.array([5, 0]), np.array([5, 6]), np.array([5]), np.array([5, 3, 2]),
    np.array([5.0, 3.0]), np.array([5, 3], dtype=np.uint64), np.array([[5, 3]])],
    ids=["zero", "past_t_max", "too_few", "too_many", "float", "unsigned", "2d"])
def test_encoder_rejects_lengths_that_do_not_fit_the_batch(lengths):
    params, _, _, _, layers = _setup()
    with pytest.raises(DataError, match="2 signed integer lengths from 1 to 5"):
        encoder.encoder_forward(params, np.zeros((5, 2, 3)), layers, lengths)


@pytest.mark.parametrize("B", [3, 16])
def test_padding_content_never_reaches_the_readout_or_the_gradients(B):
    rng = np.random.default_rng(B)
    params = encoder.init_encoder_params(rng, 16, 32, 2)
    lengths = _batch_lengths(rng, B)
    lengths[1] = 1
    zero_padded, _ = encoder.pad_batch([rng.normal(size=(length, 16)) for length in lengths])
    noise_padded = rng.normal(scale=1e6, size=zero_padded.shape)
    inside = np.arange(len(zero_padded))[:, None] < lengths
    noise_padded[inside] = zero_padded[inside]
    d_readout = rng.normal(size=(B, 64))
    readout, cache = encoder.encoder_forward(params, zero_padded, 2, lengths)
    grads = encoder.encoder_backward(params, cache, d_readout)
    noisy_readout, noisy_cache = encoder.encoder_forward(params, noise_padded, 2, lengths)
    noisy_grads = encoder.encoder_backward(params, noisy_cache, d_readout)
    assert_same_bits(noisy_readout, readout)
    assert noisy_grads.keys() == grads.keys()
    for key in grads:
        assert_same_bits(noisy_grads[key], grads[key])


def test_encoder_forward_hands_the_stored_cells_to_gru_forward(monkeypatch):
    params, feats, _, _, layers = _setup()
    gru_forward, seen = encoder.gru_forward, []

    def spy(p, xs):
        seen.append(p)
        return gru_forward(p, xs)

    monkeypatch.setattr(encoder, "gru_forward", spy)
    encoder.encoder_forward(params, feats, layers, np.array([len(feats)]))
    assert len(seen) == layers
    for layer, p in enumerate(seen):
        assert all(p[key] is params[f"enc.{layer}.{key}"] for key in ("Wx", "Wh", "b"))



def _batch_lengths(rng, B):
    """B lengths up to 33 frames, the longest first; padded unless B is 1."""
    lengths = rng.integers(1, 34, size=B)
    lengths[0] = 33
    return lengths


@pytest.mark.parametrize("B", [1, 3, 16])
@pytest.mark.parametrize("in_dim", [16, 64], ids=["layer0", "layer1"])
def test_gru_forward_matches_the_wrapper_formulation_bit_for_bit(B, in_dim):
    rng = np.random.default_rng(B)
    params = _random_cells(rng, in_dim, 32)
    xs = _padded_inputs(rng, _batch_lengths(rng, B), in_dim)
    states, cache = encoder.gru_forward(params, xs)
    ref_states, ref_cache = wrapper_gru_forward(params, xs)
    assert_same_bits(states, ref_states)
    assert cache.keys() == ref_cache.keys()
    for key in cache:
        assert_same_bits(cache[key], ref_cache[key])


@pytest.mark.parametrize("B", [1, 3, 16])
@pytest.mark.parametrize("in_dim", [16, 64], ids=["layer0", "layer1"])
def test_gru_backward_matches_the_per_direction_reference_bit_for_bit(B, in_dim):
    rng = np.random.default_rng(B)
    params = _random_cells(rng, in_dim, 32)
    lengths = _batch_lengths(rng, B)
    xs = _padded_inputs(rng, lengths, in_dim)
    _, cache = encoder.gru_forward(params, xs)
    # state gradients on real frames only, as encoder_backward hands them down
    d_states = rng.normal(size=cache["states"].shape)
    d_states *= (np.arange(len(xs))[:, None] < lengths)[:, None, :, None]
    grads, d_pre_x = encoder.gru_backward(params, cache, d_states)
    ref_grads, ref_d_pre_x = reference_gru_backward(params, cache, d_states)
    assert grads.keys() == ref_grads.keys()
    for key in grads:
        assert_same_bits(grads[key], ref_grads[key])
    assert_same_bits(d_pre_x, ref_d_pre_x)


@pytest.mark.parametrize("B", [1, 3, 16])
def test_encoder_readout_matches_the_wrapper_formulation_bit_for_bit(B):
    rng = np.random.default_rng(B)
    params = encoder.init_encoder_params(rng, 16, 32, 2)
    feats, lengths = encoder.pad_batch(
        [rng.normal(size=(length, 16)) for length in _batch_lengths(rng, B)])
    readout, _ = encoder.encoder_forward(params, feats, 2, lengths)
    assert_same_bits(readout, wrapper_encoder_readout(params, feats, 2, lengths))


@pytest.mark.parametrize("B", [1, 3])
def test_every_frame_step_operand_is_contiguous(B):
    """The frame loop reads and writes each frame's r, 1 - z and n in place;
    a strided operand costs about a quarter of a batch-of-one step."""
    rng = np.random.default_rng(B)
    xs = _padded_inputs(rng, _batch_lengths(rng, B), 16)
    _, cache = encoder.gru_forward(_random_cells(rng, 16, 32), xs)
    for key in ("r", "one_minus_z", "n"):
        assert all(frame.flags.c_contiguous for frame in cache[key])


def test_frame_step_constants_are_read_only():
    scale = encoder._gate_scale(4)
    assert scale is encoder._gate_scale(4)       # one array per hidden size
    assert scale.tolist() == [0.5] * 4 + [-0.5] * 4 + [1.0] * 4
    assert (encoder.ONE.shape, float(encoder.ONE)) == ((), 1.0)
    assert (encoder.HALF.shape, float(encoder.HALF)) == ((), 0.5)
    for constant in (encoder.ONE, encoder.HALF, scale):
        with pytest.raises(ValueError, match="read-only"):
            constant[...] = 0.0
        with pytest.raises(ValueError, match="read-only"):
            np.add(constant, 1.0, out=constant)
    assert scale.tolist() == [0.5] * 4 + [-0.5] * 4 + [1.0] * 4
