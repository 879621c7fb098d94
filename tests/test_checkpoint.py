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


def _resave(path, out, params=None, config=None, **header):
    """Copy a checkpoint with its parameters or header config replaced, or
    with top-level header keys added."""
    with np.load(str(path)) as data:
        arrays = {key: np.array(data[key]) for key in data.files}
    if params is not None:
        arrays = {k: v for k, v in arrays.items() if not k.startswith("param/")}
        arrays.update({f"param/{k}": v for k, v in params.items()})
    meta = json.loads(bytes(arrays["__meta__"]).decode())
    if config is not None:
        meta["config"] = config
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
    ("margin_present", "0.9"), ("margin_absent", None),
], ids=["float_routing_iters", "string_speaker_bias", "float_hidden", "zero_layers",
        "nan_speaker_weight", "negative_speaker_weight", "margin_present_0.8",
        "margin_absent_0.9", "absent_scale_0.5", "speaker_bias_false", "speaker_bias_int",
        "absent_scale_bool", "margin_present_string", "margin_absent_null"])
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
