import dataclasses
import json

import numpy as np
import pytest

import capsintent.model as model
from capsintent import checkpoint, datasets
from capsintent.errors import FormatError

from helpers import tiny_model_config


def test_checkpoint_roundtrip(tmp_path):
    cfg = tiny_model_config(seed=33)
    params = model.init_params(cfg)
    path = tmp_path / "m.npz"
    payload = {"labels": ["a", "b", "c", "d"], "slot_groups": [], "speakers": ["x", "y", "z"]}
    checkpoint.save_checkpoint(str(path), cfg, params, vocab_payload=payload)
    cfg2, params2, decoded = checkpoint.load_checkpoint(str(path))
    assert cfg2 == cfg
    assert decoded == (datasets.LabelVocabulary(labels=("a", "b", "c", "d")), ["x", "y", "z"])
    assert set(params2) == set(params)
    for key in params:
        assert params2[key].tobytes() == params[key].tobytes()


def test_checkpoint_not_a_checkpoint(tmp_path):
    path = tmp_path / "junk.npz"
    np.savez(str(path), x=np.zeros(3))
    with pytest.raises(FormatError):
        checkpoint.load_checkpoint(str(path))


def test_checkpoint_garbage_file(tmp_path):
    path = tmp_path / "junk.npz"
    path.write_bytes(b"not a zip archive")
    with pytest.raises(FormatError):
        checkpoint.load_checkpoint(str(path))


def test_checkpoint_reload_reproduces_predictions(tmp_path):
    cfg = tiny_model_config(seed=7)
    params = model.init_params(cfg)
    feats = np.random.default_rng(1).normal(size=(6, cfg.feat_dim))
    before = model.evaluate([feats], params, cfg)
    path = tmp_path / "m.npz"
    checkpoint.save_checkpoint(str(path), cfg, params)
    _, params2, _ = checkpoint.load_checkpoint(str(path))
    after = model.evaluate([feats], params2, cfg)
    assert before[0].tobytes() == after[0].tobytes()
    assert before[1].tobytes() == after[1].tobytes()


def _resave(path, out, params=None, config=None, drop=(), **header):
    """Copy a checkpoint with its parameters or header config replaced, with
    the top-level header keys ``drop`` removed, or with others added."""
    with np.load(str(path)) as data:
        arrays = {key: np.array(data[key]) for key in data.files}
    if params is not None:
        arrays = {k: v for k, v in arrays.items() if not k.startswith("param/")}
        arrays.update({f"param/{k}": v for k, v in params.items()})
    meta = json.loads(bytes(arrays["__meta__"]).decode())
    if config is not None:
        meta["config"] = config
    for key in drop:
        del meta[key]
    meta.update(header)
    arrays["__meta__"] = np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8)
    np.savez(str(out), **arrays)
    return str(out)


@pytest.mark.parametrize("axis", range(4))
def test_checkpoint_truncated_transforms_rejected(tmp_path, axis):
    cfg = tiny_model_config(seed=3)
    params = model.init_params(cfg)
    path = tmp_path / "m.npz"
    checkpoint.save_checkpoint(str(path), cfg, params)
    truncated = dict(params)
    truncated["caps.W"] = np.delete(params["caps.W"], -1, axis=axis)
    bad = _resave(path, tmp_path / "bad.npz", params=truncated)
    with pytest.raises(FormatError, match="caps.W"):
        checkpoint.load_checkpoint(bad)


def test_checkpoint_missing_or_extra_parameter_rejected(tmp_path):
    cfg = tiny_model_config()
    params = model.init_params(cfg)
    path = tmp_path / "m.npz"
    checkpoint.save_checkpoint(str(path), cfg, params)
    missing = {k: v for k, v in params.items() if k != "spk.b"}
    with pytest.raises(FormatError, match="spk.b"):
        checkpoint.load_checkpoint(_resave(path, tmp_path / "a.npz", params=missing))
    extra = {**params, "enc.9.f.Wx": np.zeros((2, 2))}
    with pytest.raises(FormatError, match="enc.9.f.Wx"):
        checkpoint.load_checkpoint(_resave(path, tmp_path / "b.npz", params=extra))


@pytest.mark.parametrize("entry, match", [
    (np.nan, "non-finite"), (np.inf, "non-finite"), (None, "dtype int64"),
], ids=["nan", "inf", "int64"])
def test_checkpoint_parameter_values_must_be_finite_float64(tmp_path, entry, match):
    cfg = tiny_model_config()
    params = model.init_params(cfg)
    path = tmp_path / "m.npz"
    checkpoint.save_checkpoint(str(path), cfg, params)
    bad = dict(params)
    if entry is None:
        bad["caps.W"] = np.zeros(params["caps.W"].shape, dtype=np.int64)
    else:
        bad["caps.W"] = params["caps.W"].copy()
        bad["caps.W"].flat[5] = entry
    with pytest.raises(FormatError, match=f"parameter caps.W .*{match}"):
        checkpoint.load_checkpoint(_resave(path, tmp_path / "bad.npz", params=bad))


def test_eval_with_non_finite_parameter_is_data_error(tmp_path, capsys):
    from capsintent import cli

    cfg = tiny_model_config()
    params = model.init_params(cfg)
    path = tmp_path / "m.npz"
    checkpoint.save_checkpoint(str(path), cfg, params, vocab_payload=GOOD_VOCAB)
    bad = _resave(path, tmp_path / "bad.npz", params={**params, "caps.W": params["caps.W"] * np.nan})
    manifest = tmp_path / "m.csv"
    manifest.write_text("id,audio,speaker,labels\nu,a.wav,x,a\n")
    assert cli.main(["eval", "--checkpoint", bad, "--manifest", str(manifest)]) == 4
    err = capsys.readouterr().err
    assert "parameter caps.W holds non-finite values" in err and "diverged" not in err


@pytest.mark.parametrize("change, match", [
    ({"format": "other-checkpoint"}, "unknown checkpoint format 'other-checkpoint'"),
    ({"version": 99}, "unsupported checkpoint version 99"),
    ({"version": True}, "unsupported checkpoint version True"),
    ({"drop": ("config",)}, "checkpoint header carries no model config"),
], ids=["unknown_format", "unsupported_version", "boolean_version", "no_config"])
def test_checkpoint_bad_header_rejected(tmp_path, change, match):
    cfg = tiny_model_config()
    path = tmp_path / "m.npz"
    checkpoint.save_checkpoint(str(path), cfg, model.init_params(cfg))
    with pytest.raises(FormatError, match=match):
        checkpoint.load_checkpoint(_resave(path, tmp_path / "bad.npz", **change))


def test_eval_without_vocabulary_is_usage_error(tmp_path, capsys):
    from capsintent import cli

    cfg = tiny_model_config()
    path = tmp_path / "m.npz"
    checkpoint.save_checkpoint(str(path), cfg, model.init_params(cfg))
    manifest = tmp_path / "m.csv"
    manifest.write_text("id,audio,speaker,labels\nu,a.wav,x,a\n")
    assert cli.main(["eval", "--checkpoint", str(path), "--manifest", str(manifest)]) == 2
    assert "carries no vocabulary; cannot decode" in capsys.readouterr().err


def test_checkpoint_bad_config_rejected(tmp_path):
    cfg = tiny_model_config()
    path = tmp_path / "m.npz"
    checkpoint.save_checkpoint(str(path), cfg, model.init_params(cfg))
    config = dataclasses.asdict(cfg)
    with pytest.raises(FormatError, match="bogus"):
        checkpoint.load_checkpoint(_resave(path, tmp_path / "a.npz", config={**config, "bogus": 1}))
    del config["feat_dim"]
    with pytest.raises(FormatError):
        checkpoint.load_checkpoint(_resave(path, tmp_path / "b.npz", config=config))


def test_vocab_codec_roundtrip():
    from capsintent.datasets import LabelVocabulary, SlotGroup

    vocab = LabelVocabulary(labels=("a:x", "a:y", "b"),
                            slot_groups=(SlotGroup("a", ("a:x", "a:y"), True),))
    payload = checkpoint.vocab_payload(vocab, ["s1", "s2"])
    assert json.loads(json.dumps(payload)) == payload
    assert checkpoint.vocab_from_payload(payload) == (vocab, ["s1", "s2"])


GOOD_VOCAB = {"labels": ["a", "b", "c", "d"], "slot_groups": [], "speakers": ["x", "y", "z"]}


@pytest.mark.parametrize("payload, match", [
    ({"labels": ["a", "b", "c", "d"]}, "slot_groups"),
    ({"labels": ["a", "b", "c", "d"], "slot_groups": []}, "speakers"),
    ({**GOOD_VOCAB, "labels": ["a", "b"]}, "2 labels"),
    ({**GOOD_VOCAB, "speakers": ["x", "y"]}, "2 speakers"),
    ({**GOOD_VOCAB, "labels": ["a", "b", "a", "d"]}, "duplicate label"),
    ({**GOOD_VOCAB, "speakers": ["x", "y", "x"]}, "duplicate speaker"),
    ({**GOOD_VOCAB, "slot_groups": [{"name": "g", "labels": ["q"], "required": True}]},
     "unknown label"),
], ids=["no_slot_groups", "no_speakers", "too_few_labels", "too_few_speakers",
        "duplicate_label", "duplicate_speaker", "unknown_group_label"])
def test_checkpoint_bad_vocabulary_rejected(tmp_path, payload, match):
    cfg = tiny_model_config()
    path = tmp_path / "m.npz"
    checkpoint.save_checkpoint(str(path), cfg, model.init_params(cfg), vocab_payload=payload)
    with pytest.raises(FormatError, match=match):
        checkpoint.load_checkpoint(str(path))


def test_eval_with_bad_vocabulary_is_data_error(tmp_path, capsys):
    from capsintent import cli

    cfg = tiny_model_config()
    path = tmp_path / "m.npz"
    checkpoint.save_checkpoint(str(path), cfg, model.init_params(cfg),
                               vocab_payload={"labels": ["a", "b", "c", "d"]})
    manifest = tmp_path / "m.csv"
    manifest.write_text("id,audio,speaker,labels\nu,a.wav,s,a\n")
    assert cli.main(["eval", "--checkpoint", str(path), "--manifest", str(manifest)]) == 4
    assert "slot_groups" in capsys.readouterr().err


GROUP = {"name": "g", "labels": ["a", "b"], "required": False}
MISTYPED_VOCAB = {"labels": "abcd", "speakers": "xyz",
                  "slot_groups": [{**GROUP, "required": "no"}]}


@pytest.mark.parametrize("payload", [
    MISTYPED_VOCAB,
    {**GOOD_VOCAB, "labels": "abcd"},
    {**GOOD_VOCAB, "speakers": "xyz"},
    {**GOOD_VOCAB, "labels": ["a", "b", "c", 4]},
    {**GOOD_VOCAB, "slot_groups": [{**GROUP, "required": "no"}]},
    {**GOOD_VOCAB, "slot_groups": [{**GROUP, "required": 1}]},
    {**GOOD_VOCAB, "slot_groups": [{**GROUP, "name": 7}]},
    {**GOOD_VOCAB, "slot_groups": [{**GROUP, "labels": "ab"}]},
], ids=["all_mistyped", "labels_string", "speakers_string", "label_not_string",
        "required_string", "required_int", "group_name_int", "group_labels_string"])
def test_checkpoint_mistyped_vocabulary_rejected(tmp_path, payload):
    cfg = tiny_model_config()
    path = tmp_path / "m.npz"
    checkpoint.save_checkpoint(str(path), cfg, model.init_params(cfg), vocab_payload=payload)
    with pytest.raises(FormatError, match="malformed vocabulary"):
        checkpoint.load_checkpoint(str(path))


def test_eval_with_mistyped_vocabulary_is_data_error(tmp_path, capsys):
    from capsintent import cli

    cfg = tiny_model_config()
    path = tmp_path / "m.npz"
    checkpoint.save_checkpoint(str(path), cfg, model.init_params(cfg),
                               vocab_payload=MISTYPED_VOCAB)
    manifest = tmp_path / "m.csv"
    manifest.write_text("id,audio,speaker,labels\nu,a.wav,x,a\n")
    assert cli.main(["eval", "--checkpoint", str(path), "--manifest", str(manifest)]) == 4
    assert "list of strings" in capsys.readouterr().err


@pytest.mark.parametrize("key, value", [
    ("routing_iters", 2.0), ("speaker_bias", "no"), ("encoder_hidden", 5.0),
    ("encoder_layers", 0), ("speaker_weight", float("nan")), ("speaker_weight", -2.0),
    # settings an earlier version wrote, now fixed at 0.9, 0.1, 1.0 and true
    ("margin_present", 0.8), ("margin_absent", 0.9), ("absent_loss_scale", 0.5),
    ("speaker_bias", False), ("speaker_bias", 1), ("absent_loss_scale", True),
    ("margin_present", "0.9"), ("margin_absent", None), ("seed", -1),
], ids=["float_routing_iters", "string_speaker_bias", "float_hidden", "zero_layers",
        "nan_speaker_weight", "negative_speaker_weight", "margin_present_0.8",
        "margin_absent_0.9", "absent_scale_0.5", "speaker_bias_false", "speaker_bias_int",
        "absent_scale_bool", "margin_present_string", "margin_absent_null", "negative_seed"])
def test_checkpoint_invalid_config_value_rejected(tmp_path, key, value):
    cfg = tiny_model_config()
    path = tmp_path / "m.npz"
    checkpoint.save_checkpoint(str(path), cfg, model.init_params(cfg))
    bad = _resave(path, tmp_path / "bad.npz", config={**dataclasses.asdict(cfg), key: value})
    with pytest.raises(FormatError, match=f"invalid model config: {key} must be"):
        checkpoint.load_checkpoint(bad)


def test_eval_with_mistyped_config_is_data_error(tmp_path, capsys):
    from capsintent import cli

    cfg = tiny_model_config()
    path = tmp_path / "m.npz"
    checkpoint.save_checkpoint(str(path), cfg, model.init_params(cfg), vocab_payload=GOOD_VOCAB)
    bad = _resave(path, tmp_path / "bad.npz",
                  config={**dataclasses.asdict(cfg), "routing_iters": 2.0})
    manifest = tmp_path / "m.csv"
    manifest.write_text("id,audio,speaker,labels\nu,a.wav,x,a\n")
    assert cli.main(["eval", "--checkpoint", bad, "--manifest", str(manifest)]) == 4
    assert "routing_iters must be int" in capsys.readouterr().err


def test_eval_with_negative_seed_in_header_is_data_error(tmp_path, capsys):
    from capsintent import cli

    cfg = tiny_model_config()
    path = tmp_path / "m.npz"
    checkpoint.save_checkpoint(str(path), cfg, model.init_params(cfg), vocab_payload=GOOD_VOCAB)
    bad = _resave(path, tmp_path / "bad.npz", config={**dataclasses.asdict(cfg), "seed": -1})
    manifest = tmp_path / "m.csv"
    manifest.write_text("id,audio,speaker,labels\nu,a.wav,x,a\n")
    assert cli.main(["eval", "--checkpoint", bad, "--manifest", str(manifest)]) == 4
    assert "invalid model config: seed must be >= 0, got -1" in capsys.readouterr().err


# the config keys of settings that are now fixed, as earlier versions wrote them
RETIRED = {"margin_present": 0.9, "margin_absent": 0.1, "absent_loss_scale": 1.0,
           "speaker_bias": True}


def test_header_states_the_seed_once(tmp_path):
    cfg = tiny_model_config(seed=9)
    path = tmp_path / "m.npz"
    checkpoint.save_checkpoint(str(path), cfg, model.init_params(cfg))
    with np.load(str(path)) as data:
        meta = json.loads(bytes(data["__meta__"]).decode())
    assert "seed" not in meta
    assert meta["config"] == dataclasses.asdict(cfg)
    assert not set(RETIRED) & set(meta["config"])


def test_earlier_header_with_retired_keys_and_seed_loads(tmp_path):
    cfg = tiny_model_config(seed=9)
    params = model.init_params(cfg)
    path = tmp_path / "m.npz"
    checkpoint.save_checkpoint(str(path), cfg, params, vocab_payload=GOOD_VOCAB)
    old = _resave(path, tmp_path / "old.npz", config={**dataclasses.asdict(cfg), **RETIRED},
                  seed=cfg.seed)
    cfg2, params2, decoded = checkpoint.load_checkpoint(old)
    assert cfg2 == cfg
    assert decoded == checkpoint.vocab_from_payload(GOOD_VOCAB)
    assert set(params2) == set(params)
    for key in params:
        assert params2[key].tobytes() == params[key].tobytes()
    # an int where the float was declared was accepted then, and still is
    cfg3, _, _ = checkpoint.load_checkpoint(_resave(
        path, tmp_path / "int.npz", config={**dataclasses.asdict(cfg), "absent_loss_scale": 1}))
    assert cfg3 == cfg


def _per_direction(params):
    """``params`` as versions 1 and 2 named them: each encoder cell on its own."""
    named = {}
    for name, value in params.items():
        if name.startswith("enc."):
            layer, key = name.rsplit(".", 1)
            named[f"{layer}.f.{key}"], named[f"{layer}.b.{key}"] = value
        else:
            named[name] = value
    return named


def _loads_to_the_same_model(tmp_path, version, old_params):
    # K == d_p, so the two caps.W layouts have one shape and only the version tells them apart
    cfg = tiny_model_config(seed=4, num_labels=3, primary_dim=3)
    params = model.init_params(cfg)
    payload = {"labels": ["a", "b", "c"], "speakers": ["x", "y", "z"],
               "slot_groups": [{"name": "g", "labels": ["a", "b", "c"], "required": True}]}
    path = tmp_path / "v3.npz"
    checkpoint.save_checkpoint(str(path), cfg, params, vocab_payload=payload)
    old = _resave(path, tmp_path / f"v{version}.npz", version=version,
                  params=old_params(_per_direction(params)))
    feats = np.random.default_rng(2).normal(size=(5, 6, cfg.feat_dim))
    answers = []
    for source in (str(path), old):
        cfg2, params2, (vocab, _) = checkpoint.load_checkpoint(source)
        assert set(params2) == set(params)
        assert all(params2[key].tobytes() == params[key].tobytes() for key in params)
        answers.append([model.predict(f, params2, cfg2, vocab) for f in feats])
    assert answers[0] == answers[1]


def test_version_1_transforms_load_transposed(tmp_path):
    # version 1 stored each primary capsule's transforms label-major, (P, K, d_p, n)
    _loads_to_the_same_model(tmp_path, 1, lambda old: {
        **old, "caps.W": old["caps.W"].transpose(0, 2, 1, 3)})


def test_version_2_cells_load_stacked(tmp_path):
    _loads_to_the_same_model(tmp_path, 2, lambda old: old)


@pytest.mark.parametrize("cells, match", [
    ({"b": None}, r"enc.1.f.Wh and enc.1.b.Wh must match in shape and dtype, "
                  r"got float64 \(5, 15\) and missing"),
    ({"f": None}, r"enc.1.f.Wh and enc.1.b.Wh .* got missing and float64 \(5, 15\)"),
    ({"b": np.zeros((4, 15))}, r"enc.1.f.Wh and enc.1.b.Wh .* and float64 \(4, 15\)"),
    ({"b": np.zeros((5, 15), np.float32)},
     r"enc.1.f.Wh and enc.1.b.Wh .* and float32 \(5, 15\)"),
    ({"f": np.zeros((5, 15), np.float32), "b": np.zeros((5, 15), np.float32)},
     "parameter enc.1.Wh has dtype float32"),
], ids=["backward_cell_missing", "forward_cell_missing", "shapes_differ", "one_float32",
        "both_float32"])
def test_version_2_unmatched_cells_rejected(tmp_path, cells, match):
    cfg = tiny_model_config()
    params = model.init_params(cfg)
    path = tmp_path / "m.npz"
    checkpoint.save_checkpoint(str(path), cfg, params)
    old = _per_direction(params)
    for direction, value in cells.items():
        if value is None:
            del old[f"enc.1.{direction}.Wh"]
        else:
            old[f"enc.1.{direction}.Wh"] = value
    with pytest.raises(FormatError, match=match):
        checkpoint.load_checkpoint(_resave(path, tmp_path / "v2.npz", version=2, params=old))


def test_eval_with_unmatched_version_2_cells_is_data_error(tmp_path, capsys):
    from capsintent import cli

    cfg = tiny_model_config()
    params = model.init_params(cfg)
    path = tmp_path / "m.npz"
    checkpoint.save_checkpoint(str(path), cfg, params, vocab_payload=GOOD_VOCAB)
    old = _per_direction(params)
    old["enc.0.b.Wx"] = old["enc.0.b.Wx"].astype(np.float32)
    bad = _resave(path, tmp_path / "v2.npz", version=2, params=old)
    manifest = tmp_path / "m.csv"
    manifest.write_text("id,audio,speaker,labels\nu,a.wav,x,a\n")
    assert cli.main(["eval", "--checkpoint", bad, "--manifest", str(manifest)]) == 4
    assert "parameters enc.0.f.Wx and enc.0.b.Wx must match" in capsys.readouterr().err


@pytest.mark.parametrize("key, value", [("margin_present", 0.8), ("speaker_bias", False)])
def test_eval_with_retired_key_away_from_its_value_is_data_error(tmp_path, capsys, key, value):
    from capsintent import cli

    cfg = tiny_model_config()
    path = tmp_path / "m.npz"
    checkpoint.save_checkpoint(str(path), cfg, model.init_params(cfg), vocab_payload=GOOD_VOCAB)
    bad = _resave(path, tmp_path / "bad.npz", config={**dataclasses.asdict(cfg), key: value})
    manifest = tmp_path / "m.csv"
    manifest.write_text("id,audio,speaker,labels\nu,a.wav,x,a\n")
    assert cli.main(["eval", "--checkpoint", bad, "--manifest", str(manifest)]) == 4
    assert f"{key} must be " in capsys.readouterr().err
