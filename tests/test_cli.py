import functools
import hashlib
import json
import os
from pathlib import Path

import numpy as np
import pytest
import yaml

from capsintent import cli, datasets, experiments, model
from capsintent.checkpoint import load_checkpoint
from capsintent.errors import DataError, DivergenceError, UsageError
from capsintent.features import N_MELS, RECIPE_DIGEST, audio_features

from helpers import diverge_on_seeds, write_wav


def make_audio_corpus_tree(tmp_path, n_speakers=2, per_speaker=6):
    """Miniature per-speaker wav + XML frame layout."""
    rng = np.random.default_rng(0)
    root = tmp_path / "corpus"
    actions = ["go", "stop"]
    for s in range(n_speakers):
        d = root / f"spk{s}"
        d.mkdir(parents=True)
        for u in range(per_speaker):
            tone = 0.3 * np.sin(2 * np.pi * (200 + 100 * s + 37 * u) *
                                np.arange(6000) / 16000.0)
            write_wav(d / f"u{u}.wav", tone + rng.uniform(-0.1, 0.1, 6000))
            (d / f"u{u}.xml").write_text(
                f"<frame><action>{actions[u % 2]}</action></frame>"
            )
    return root


def write_config(tmp_path, **overrides):
    config = {
        "seed": 1,
        "output_dir": str(tmp_path / "out"),
        "corpus": {"kind": "synth",
                   "per_speaker_count": 4, "noise_level": 0.1, "seed": 2},
        "model": {"encoder_hidden": 6, "num_primary": 4, "primary_dim": 3,
                  "output_dim": 4, "routing_iters": 2, "speaker_weight": 0.5},
        "experiment": {"mode": "speaker_independent", "num_blocks": 4, "schedule": [1]},
        "training": {"epochs": 1},
    }
    for key, value in overrides.items():
        if isinstance(value, dict) and isinstance(config.get(key), dict):
            config[key].update(value)
        else:
            config[key] = value
    path = tmp_path / "run.yaml"
    path.write_text(yaml.safe_dump(config))
    return str(path)


def test_validate_config_ok(tmp_path, capsys):
    path = write_config(tmp_path)
    assert cli.main(["validate-config", path]) == 0
    assert "OK" in capsys.readouterr().out


def test_validate_config_unknown_key(tmp_path, capsys):
    path = write_config(tmp_path, bogus_section={"x": 1})
    assert cli.main(["validate-config", path]) == 2
    assert "bogus_section" in capsys.readouterr().err


def test_validate_config_unknown_training_key(tmp_path, capsys):
    path = write_config(tmp_path, training={"momentum": 0.9})
    assert cli.main(["validate-config", path]) == 2
    assert "momentum" in capsys.readouterr().err


@pytest.mark.parametrize("section", ["training", "model", "experiment"])
def test_validate_config_section_not_a_mapping(tmp_path, capsys, section):
    path = write_config(tmp_path, **{section: ["epochs"]})
    assert cli.main(["validate-config", path]) == 2
    assert "must be a mapping" in capsys.readouterr().err


@pytest.mark.parametrize("value", [[], 0, False, ""], ids=["list", "zero", "false", "empty"])
@pytest.mark.parametrize("section", ["corpus", "training", "model", "experiment"])
def test_validate_config_falsy_section_not_a_mapping(tmp_path, capsys, section, value):
    # only a missing or null section counts as empty
    path = write_config(tmp_path, **{section: value})
    assert cli.main(["validate-config", path]) == 2
    assert f"{section} config must be a mapping" in capsys.readouterr().err


@pytest.mark.parametrize("section", ["training", "model", "experiment"])
def test_validate_config_null_section_is_empty(tmp_path, section):
    path = write_config(tmp_path, **{section: None})
    assert cli.main(["validate-config", path]) == 0


@pytest.mark.parametrize("override, key", [
    ({"training": {"epochs": "2"}}, "training.epochs"),
    ({"training": {"epochs": True}}, "training.epochs"),
    ({"model": {"encoder_hidden": "4"}}, "model.encoder_hidden"),
    ({"model": {"encoder_layers": True}}, "model.encoder_layers"),
    ({"seed": "abc"}, "seed"),
    ({"experiment": {"num_blocks": "5"}}, "experiment.num_blocks"),
    ({"experiment": {"schedule": [1, "2"]}}, "experiment.schedule"),
    ({"corpus": {"noise_level": "high"}}, "corpus.noise_level"),
], ids=["str_epochs", "bool_epochs", "str_hidden", "int_bool", "str_seed",
        "str_num_blocks", "str_in_schedule", "str_noise"])
def test_validate_config_value_of_wrong_type(tmp_path, capsys, override, key):
    path = write_config(tmp_path, **override)
    assert cli.main(["validate-config", path]) == 2
    assert f"error: {key} must be " in capsys.readouterr().err


def test_validate_config_int_where_float_belongs(tmp_path):
    path = write_config(tmp_path, model={"speaker_weight": 1}, corpus={"noise_level": 0})
    assert cli.main(["validate-config", path]) == 0


@pytest.mark.parametrize("section, key, value", [
    ("training", "lr", 1e-3), ("training", "batch_size", 32),
    ("training", "early_stop_delta", 1e-4), ("training", "early_stop_patience", 5),
    ("corpus", "preset", "mimic_grabo"),
])
@pytest.mark.parametrize("command", ["validate-config", "train"])
def test_retired_fixed_settings_are_unknown_keys(tmp_path, capsys, section, key, value, command):
    path = write_config(tmp_path, **{section: {key: value}})
    assert cli.main([command, path]) == 2
    assert f"unknown {section} config keys: ['{key}']" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_repeated_sweep_values_are_usage_error(tmp_path, capsys):
    path = write_config(tmp_path, experiment={
        "sweep": {"axis": "speaker_weight", "values": [1, 1.0, 0]}})
    assert cli.main(["validate-config", path]) == 2
    assert "sweep values must differ" in capsys.readouterr().err


@pytest.mark.parametrize("corpus, message", [
    ({"noise_level": -1.0}, "noise_level must be finite and >= 0"),
    ({"noise_level": float("nan")}, "noise_level must be finite and >= 0"),
    ({"per_speaker_count": 0}, "counts must all be >= 1"),
    ({"feat_dim": 0}, "counts must all be >= 1"),
    ({"feat_dim": 10**30}, f"counts must all be <= 9223372036854775807, got {10**30}"),
    ({"per_speaker_count": 2**63}, f"counts must all be <= 9223372036854775807, got {2**63}"),
    # 4 utterances per speaker of up to ceil(1.05 * 33 labels * 8 frames) = 278 frames
    ({"feat_dim": 2**62}, f"synthetic spec needs an array of {4 * 278 * 2**62} values, "
                          "more than NumPy's 1152921504606846975"),
], ids=["negative_noise", "nan_noise", "zero_per_speaker", "zero_feat_dim", "huge_feat_dim",
        "huge_per_speaker", "feat_dim_past_numpy_arrays"])
def test_validate_config_rejects_bad_synth_values(tmp_path, capsys, corpus, message):
    path = write_config(tmp_path, corpus=corpus)
    assert cli.main(["validate-config", path]) == 2
    assert message in capsys.readouterr().err
    assert cli.main(["train", path]) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ") and message in lines[0]


def test_an_allocation_too_large_is_usage_error(tmp_path, capsys, monkeypatch):
    # numpy refuses such sizes before allocating; raise its error without asking for one
    def no_memory(*args, **kw):
        raise MemoryError("Unable to allocate 258. PiB for an array with shape (10**14, 33)")

    monkeypatch.setattr(datasets, "synth_generate", no_memory)
    path = write_config(tmp_path, corpus={"per_speaker_count": 10**14})
    assert cli.main(["validate-config", path]) == 0
    capsys.readouterr()
    assert cli.main(["train", path]) == 2
    assert capsys.readouterr().err.splitlines() == [
        "error: out of memory: Unable to allocate 258. PiB for an array with shape (10**14, 33)"]
    assert not (tmp_path / "out").exists()


def test_train_logs_what_the_loader_skipped(tmp_path, caplog):
    root = make_audio_corpus_tree(tmp_path)
    write_wav(root / "spk0" / "orphan.wav", np.zeros(4000))
    path = write_config(tmp_path, corpus={"kind": "grabo", "root": str(root),
                                          "cache_dir": str(tmp_path / "cache")})
    with caplog.at_level("WARNING", logger="capsintent"):
        assert cli.main(["train", path]) == 0
    skipped = [r.getMessage() for r in caplog.records if "missing_annotation" in r.getMessage()]
    assert skipped == ["grabo corpus: missing_annotation = 1"]
    assert all(r.levelname == "WARNING" for r in caplog.records
               if "missing_annotation" in r.getMessage())


def test_train_with_zero_epochs_is_usage_error(tmp_path, capsys):
    path = write_config(tmp_path, training={"epochs": 0})
    assert cli.main(["train", path]) == 2
    assert "epochs must be at least 1" in capsys.readouterr().err


def test_train_with_zero_encoder_layers_is_usage_error(tmp_path, capsys):
    path = write_config(tmp_path, model={"encoder_layers": 0})
    assert cli.main(["train", path]) == 2
    assert "encoder_layers must be >= 1" in capsys.readouterr().err


@pytest.mark.parametrize("override, message", [
    ({"model": {"encoder_layers": 0}}, "encoder_layers must be >= 1"),
    ({"model": {"output_dim": 1}}, "output_dim must be >= 2"),
    ({"model": {"speaker_weight": float("nan")}}, "speaker_weight must be finite and >= 0"),
    ({"model": {"speaker_weight": -2.0}}, "speaker_weight must be finite and >= 0"),
    ({"model": {"speaker_weight": 10**400}},
     "speaker_weight must be finite and >= 0, got an integer too large for a float"),
    ({"model": {"encoder_hidden": 10**30}}, "encoder_hidden must be <= 9223372036854775807"),
    ({"model": {"encoder_hidden": 2**62}},
     "the config draws more than 1152921504606846975 parameter values"),
    ({"experiment": {"sweep": {"axis": "encoder_hidden", "values": [4, 2**62]}}},
     "the config draws more than 1152921504606846975 parameter values"),
    ({"experiment": {"sweep": {"axis": "output_dim", "values": [4, 1]}}},
     "output_dim must be >= 2"),
    ({"experiment": {"sweep": {"axis": "speaker_weight", "values": [0.0, -2.0]}}},
     "speaker_weight must be finite and >= 0"),
    ({"experiment": {"sweep": {}}}, "experiment.sweep.axis is required"),
    ({"experiment": {"sweep": {"axis": "speaker_weight"}}}, "experiment.sweep.values is required"),
    ({"experiment": {"sweep": {"values": [0, 1]}}}, "experiment.sweep.axis is required"),
    ({"training": {"epochs": 0}}, "epochs must be at least 1, got 0"),
], ids=["zero_layers", "output_dim_1", "nan_speaker_weight", "negative_speaker_weight",
        "huge_int_speaker_weight", "huge_int_hidden", "hidden_past_numpy_arrays",
        "hidden_past_numpy_arrays_in_sweep", "output_dim_1_in_sweep", "negative_speaker_weight_in_sweep", "empty_sweep",
        "sweep_without_values", "sweep_without_axis", "zero_epochs"])
@pytest.mark.parametrize("command", ["train", "curve"])
def test_invalid_model_section_is_usage_error_before_the_corpus(tmp_path, capsys, monkeypatch,
                                                                override, message, command):
    path = write_config(tmp_path, **override)
    assert cli.main(["validate-config", path]) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ") and message in lines[0]

    def no_corpus(*args, **kw):
        raise AssertionError(f"{command} built a corpus for an invalid model section")

    monkeypatch.setattr(cli, "build_corpus", no_corpus)
    assert cli.main([command, path]) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("experiment, message", [
    ({"num_blocks": 4, "schedule": [5]}, "largest schedule point 5 must be < 4 blocks"),
    ({"num_blocks": 4, "schedule": []}, "schedule is empty"),
    ({"num_blocks": 4, "schedule": [1], "repeats": 0}, "repeats must be at least 1"),
    ({"num_blocks": 4, "schedule": [0, 1]}, "schedule points must be >= 1 block, got [0, 1]"),
    ({"num_blocks": 4, "schedule": [-1, 1]}, "schedule points must be >= 1 block, got [-1, 1]"),
], ids=["schedule_beyond_blocks", "empty_schedule", "zero_repeats", "zero_point",
        "negative_point"])
def test_invalid_curve_plan_is_usage_error_before_the_corpus(tmp_path, capsys, monkeypatch,
                                                              experiment, message):
    path = write_config(tmp_path, experiment=experiment)
    assert cli.main(["validate-config", path]) == 2
    assert message in capsys.readouterr().err

    def no_corpus(*args, **kw):
        raise AssertionError("curve built a corpus for an invalid experiment section")

    monkeypatch.setattr(cli, "build_corpus", no_corpus)
    assert cli.main(["curve", path]) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_left_out_schedule_is_the_default_below_num_blocks(tmp_path):
    path = write_config(tmp_path)
    with open(path) as fh:
        raw = yaml.safe_load(fh)
    del raw["experiment"]["schedule"]
    with open(path, "w") as fh:
        yaml.safe_dump(raw, fh)
    assert cli.load_run_config(path).experiment.schedule == [1, 2, 3]


@pytest.mark.parametrize("model", [{"margin_present": 0.9}, {"margin_absent": 0.1},
                                   {"absent_loss_scale": 1.0}, {"speaker_bias": True},
                                   {"feat_dim": 16}],
                         ids=lambda m: next(iter(m)))
def test_retired_and_corpus_set_model_keys_are_unknown(tmp_path, capsys, model):
    path = write_config(tmp_path, model=model)
    for command in ("validate-config", "train"):
        assert cli.main([command, path]) == 2
        assert f"unknown model config keys: {list(model)}" in capsys.readouterr().err


@pytest.mark.parametrize("sweep, message", [
    ({"axis": "speaker_weight", "values": "ab"}, "experiment.sweep.values must be"),
    ({"axis": "speaker_weight", "values": [0, "1"]}, "experiment.sweep.values must be"),
    ({"axis": "output_dim", "values": [2, 3.5]}, "error: output_dim must be int, got float 3.5"),
], ids=["string_values", "string_in_values", "fractional_output_dim"])
def test_mistyped_sweep_is_usage_error(tmp_path, capsys, sweep, message):
    path = write_config(tmp_path, experiment={"sweep": sweep})
    assert cli.main(["validate-config", path]) == 2
    assert message in capsys.readouterr().err
    assert cli.main(["curve", path]) == 2


@pytest.mark.parametrize("text, message", [
    ("output_dir: out\ncorpus: [kind", "invalid YAML"),
    ("- output_dir\n- corpus\n", "config must be a mapping"),
    ("corpus: {kind: synth}\n", "missing required key 'output_dir'"),
    ("output_dir: out\n", "missing required key 'corpus'"),
    ("output_dir: out\ncorpus: {seed: 1}\n", "corpus.kind is required"),
    ("output_dir: out\ncorpus: {kind: wav}\n", "unknown corpus kind 'wav'"),
    ("output_dir: out\ncorpus: {kind: grabo}\n", "corpus.root is required for kind 'grabo'"),
    ("output_dir: out\ncorpus: {kind: fluent}\n", "corpus.root is required for kind 'fluent'"),
    ("output_dir: out\ncorpus: {kind: manifest}\n",
     "corpus.manifest is required for kind 'manifest'"),
    ("output_dir: out\ncorpus: {kind: synth}\nexperiment: {mode: by_room}\n",
     "unknown experiment.mode 'by_room'"),
    ("output_dir: out\ncorpus:\n", "missing required key 'corpus'"),
    ("output_dir: out\ncorpus: {kind: synth}\nexperiment: {sweep: {}}\n",
     "experiment.sweep.axis is required"),
    ("output_dir: out\ncorpus: {kind: synth}\nexperiment: {sweep: {axis: speaker_weight}}\n",
     "experiment.sweep.values is required"),
    ("output_dir: out\ncorpus: {kind: synth}\nexperiment: {sweep: {values: [0, 1]}}\n",
     "experiment.sweep.axis is required"),
], ids=["invalid_yaml", "not_a_mapping", "no_output_dir", "no_corpus", "no_kind",
        "unknown_kind", "grabo_without_root", "fluent_without_root",
        "manifest_without_manifest", "unknown_mode", "null_corpus", "empty_sweep",
        "sweep_without_values", "sweep_without_axis"])
def test_malformed_config_is_usage_error(tmp_path, capsys, text, message):
    path = tmp_path / "run.yaml"
    path.write_text(text)
    assert cli.main(["validate-config", str(path)]) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("override, message", [
    ({"seed": -1}, "error: seed must be >= 0, got -1"),
    ({"corpus": {"seed": -3}}, "error: corpus.seed must be >= 0, got -3"),
], ids=["top_level", "corpus"])
@pytest.mark.parametrize("command", ["validate-config", "train"])
def test_negative_seed_is_usage_error(tmp_path, capsys, override, message, command):
    path = write_config(tmp_path, **override)
    assert cli.main([command, path]) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_corpus_seed_defaults_to_the_top_level_seed(tmp_path):
    run = cli.load_run_config(write_config(tmp_path, seed=7, corpus={"seed": None}))
    assert run.corpus.seed == 7
    assert cli._experiment_seeds(run) == {"base": 7, "split": 7, "corpus": 7}


def test_validate_config_missing_file(capsys):
    assert cli.main(["validate-config", "/nonexistent.yaml"]) == 2


def test_validate_config_bad_sweep(tmp_path):
    path = write_config(tmp_path, experiment={"mode": "speaker_independent",
                                              "num_blocks": 4, "schedule": [1],
                                              "sweep": {"axis": "bogus", "values": [1]}})
    assert cli.main(["validate-config", path]) == 2


def test_features_command_and_cache(tmp_path, capsys):
    root = make_audio_corpus_tree(tmp_path)
    cache = tmp_path / "cache"
    path = write_config(tmp_path, corpus={"kind": "grabo", "root": str(root),
                                          "cache_dir": str(cache)})
    assert cli.main(["features", path]) == 0
    out = capsys.readouterr().out
    assert "computed=12" in out and "failed=0" in out
    # second invocation: everything cached
    assert cli.main(["features", path]) == 0
    out = capsys.readouterr().out
    assert "computed=0" in out and "skipped(cached)=12" in out


def test_features_command_rebuilds_bad_cache_entries(tmp_path, capsys):
    root = make_audio_corpus_tree(tmp_path)
    cache = tmp_path / "cache"
    path = write_config(tmp_path, corpus={"kind": "grabo", "root": str(root),
                                          "cache_dir": str(cache)})
    assert cli.main(["features", path]) == 0
    entries = sorted(cache.iterdir())
    entries[0].write_bytes(b"garbage, not an array")
    np.save(entries[1], np.array([0.5, np.nan]))
    capsys.readouterr()
    assert cli.main(["features", path]) == 0
    out = capsys.readouterr().out
    assert "computed=2" in out and "skipped(cached)=10" in out and "failed=0" in out
    assert cli.main(["features", path]) == 0
    assert "skipped(cached)=12" in capsys.readouterr().out


def test_features_command_counts_a_corrupt_wav_as_failed(tmp_path, capsys):
    root = make_audio_corpus_tree(tmp_path, per_speaker=3)
    (root / "spk1" / "u2.wav").write_bytes(b"RIFF, but no audio follows")
    cut = root / "spk0" / "u1.wav"   # its audio now ends inside a 16-bit sample
    cut.write_bytes(cut.read_bytes()[:-1])
    path = write_config(tmp_path, corpus={"kind": "grabo", "root": str(root),
                                          "cache_dir": str(tmp_path / "cache")})
    assert cli.main(["features", path]) == 0
    assert capsys.readouterr().out == ("features: computed=4 skipped(cached)=0 "
                                       "skipped(inline)=0 failed=2 total=6\n")
    assert cli.main(["features", path]) == 0
    assert capsys.readouterr().out == ("features: computed=0 skipped(cached)=4 "
                                       "skipped(inline)=0 failed=2 total=6\n")


@pytest.mark.parametrize("cached", [False, True], ids=["no_cache", "cache"])
def test_missing_audio_file_is_a_data_error(tmp_path, capsys, monkeypatch, cached):
    monkeypatch.delenv(cli.CACHE_ENV_VAR, raising=False)
    (tmp_path / "m.csv").write_bytes(MANIFEST_TEXT)   # names a.wav, which is not there
    corpus = {"kind": "manifest", "manifest": str(tmp_path / "m.csv")}
    if cached:
        corpus["cache_dir"] = str(tmp_path / "cache")
    path = write_config(tmp_path, corpus=corpus)
    assert cli.main(["features", path]) == 0
    assert "failed=1 total=1" in capsys.readouterr().out
    assert cli.main(["train", path]) == 4
    err = capsys.readouterr().err
    assert err.startswith("error: ") and f"{tmp_path / 'a.wav'}: cannot read audio (" in err


def test_features_command_rejects_synth(tmp_path):
    path = write_config(tmp_path)
    assert cli.main(["features", path]) == 2


def test_features_command_missing_root(tmp_path):
    path = write_config(tmp_path, corpus={"kind": "grabo", "root": str(tmp_path / "nope")})
    assert cli.main(["features", path]) == 2


def test_features_env_var_cache(tmp_path, monkeypatch, capsys):
    root = make_audio_corpus_tree(tmp_path)
    cache = tmp_path / "envcache"
    monkeypatch.setenv(cli.CACHE_ENV_VAR, str(cache))
    path = write_config(tmp_path, corpus={"kind": "grabo", "root": str(root)})
    assert cli.main(["features", path]) == 0
    assert cache.is_dir() and len(os.listdir(cache)) == 12


def test_train_eval_roundtrip(tmp_path, capsys):
    root = make_audio_corpus_tree(tmp_path)
    cache = str(tmp_path / "cache")
    out_dir = tmp_path / "out"
    path = write_config(tmp_path, corpus={"kind": "grabo", "root": str(root),
                                          "cache_dir": cache},
                        model={"encoder_hidden": 4, "num_primary": 4,
                               "primary_dim": 2, "output_dim": 2,
                               "routing_iters": 2, "speaker_weight": 0.0},
                        training={"epochs": 1})
    assert cli.main(["train", path]) == 0
    capsys.readouterr()
    ckpt = out_dir / "model.npz"
    assert ckpt.is_file()
    assert (out_dir / "history.json").is_file()

    # manifest over the same corpus
    corpus = datasets.load_grabo(str(root))
    manifest = tmp_path / "eval.csv"
    datasets.write_manifest(corpus, str(manifest))
    eval_dir = tmp_path / "evalout"
    assert cli.main(["eval", "--checkpoint", str(ckpt), "--manifest", str(manifest),
                     "--cache-dir", cache, "--output", str(eval_dir)]) == 0
    out = capsys.readouterr().out
    assert "f1:" in out
    preds = (eval_dir / "predictions.csv").read_text().strip().split("\n")
    assert len(preds) == 1 + len(corpus)
    metrics = json.loads((eval_dir / "metrics.json").read_text())
    assert set(metrics) >= {"f1", "speaker_accuracy"}

    # checkpoint reload produces identical metrics
    assert cli.main(["eval", "--checkpoint", str(ckpt), "--manifest", str(manifest),
                     "--cache-dir", cache, "--output", str(tmp_path / "evalout2")]) == 0
    metrics2 = json.loads((tmp_path / "evalout2" / "metrics.json").read_text())
    assert metrics == metrics2


def test_train_on_a_manifest_without_a_feature_cache(tmp_path, monkeypatch):
    monkeypatch.delenv(cli.CACHE_ENV_VAR, raising=False)
    root = make_audio_corpus_tree(tmp_path)
    manifest = tmp_path / "corpus.csv"
    datasets.write_manifest(datasets.load_grabo(str(root)), str(manifest))
    model = {"encoder_hidden": 4, "num_primary": 4, "primary_dim": 2, "output_dim": 2,
             "routing_iters": 2, "speaker_weight": 0.5}
    path = write_config(tmp_path, corpus={"kind": "manifest", "manifest": str(manifest)},
                        model=model)
    assert cli.main(["train", path]) == 0
    assert sorted(os.listdir(tmp_path)) == ["corpus", "corpus.csv", "out", "run.yaml"]
    # the same corpus through its directory loader and a feature cache
    cached = tmp_path / "cached"
    path = write_config(tmp_path, output_dir=str(cached), model=model,
                        corpus={"kind": "grabo", "root": str(root),
                                "cache_dir": str(tmp_path / "cache")})
    assert cli.main(["train", path]) == 0
    for name in ("history.json", "model.npz"):
        assert (tmp_path / "out" / name).read_bytes() == (cached / name).read_bytes()


def test_train_on_a_manifest_with_a_corrupt_wav_exits_4(tmp_path, capsys, monkeypatch):
    monkeypatch.delenv(cli.CACHE_ENV_VAR, raising=False)
    root = make_audio_corpus_tree(tmp_path)
    bad = root / "spk1" / "u3.wav"
    bad.write_bytes(b"RIFF, but no audio")
    manifest = tmp_path / "corpus.csv"
    datasets.write_manifest(datasets.load_grabo(str(root)), str(manifest))
    path = write_config(tmp_path, corpus={"kind": "manifest", "manifest": str(manifest)})
    assert cli.main(["train", path]) == 4
    assert f"error: {bad}: not a readable PCM WAV file" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_eval_vocab_mismatch(tmp_path, capsys):
    root = make_audio_corpus_tree(tmp_path)
    cache = str(tmp_path / "cache")
    path = write_config(tmp_path, corpus={"kind": "grabo", "root": str(root),
                                          "cache_dir": cache},
                        model={"encoder_hidden": 4, "num_primary": 4,
                               "primary_dim": 2, "output_dim": 2,
                               "routing_iters": 2, "speaker_weight": 0.0},
                        training={"epochs": 1})
    assert cli.main(["train", path]) == 0
    manifest = tmp_path / "bad.csv"
    wav = next((root / "spk0").glob("*.wav"))
    manifest.write_text(
        "id,audio,speaker,labels\n"
        f"x,{wav},spk0,action:warp\n"
    )
    code = cli.main(["eval", "--checkpoint", str(tmp_path / "out" / "model.npz"),
                     "--manifest", str(manifest), "--cache-dir", cache])
    assert code == 2
    assert "vocabulary" in capsys.readouterr().err


def test_checks_run_no_init_code(tmp_path, capsys, monkeypatch):
    # a config's and a checkpoint's parameter checks count and list shapes
    # from the config; the init functions run only to draw parameters
    from capsintent import capsnet, encoder, multitask
    from capsintent.checkpoint import save_checkpoint
    from helpers import tiny_model_config

    cfg = tiny_model_config()
    ckpt = str(tmp_path / "m.npz")
    save_checkpoint(ckpt, cfg, model.init_params(cfg))

    def no_init(*args, **kw):
        raise AssertionError("an init function ran")

    for module, name in ((encoder, "init_encoder_params"), (capsnet, "init_core_params"),
                         (multitask, "init_head_params")):
        monkeypatch.setattr(module, name, no_init)
    # 1.8e16 values, within NumPy's bound: refused by nothing, and counted at once
    for settings in ({}, {"model": {"encoder_hidden": 1, "encoder_layers": 10**15}}):
        assert cli.main(["validate-config", write_config(tmp_path, **settings)]) == 0
    for settings in ({"model": {"encoder_hidden": 2**62}},
                     {"experiment": {"sweep": {"axis": "encoder_hidden", "values": [4, 2**62]}}}):
        capsys.readouterr()
        assert cli.main(["validate-config", write_config(tmp_path, **settings)]) == 2
        assert capsys.readouterr().err.splitlines() == [
            "error: the config draws more than 1152921504606846975 parameter values"]
    loaded, params, _ = load_checkpoint(ckpt)
    assert loaded == cfg and list(params) == list(model.param_shapes(cfg, 10**6))


def test_eval_refuses_a_speaker_outside_the_checkpoint_roster(tmp_path, capsys):
    # the label is known; only the speaker is new to the model
    from capsintent.checkpoint import save_checkpoint
    from helpers import tiny_model_config
    import capsintent.model as model

    cfg = tiny_model_config()
    ckpt = tmp_path / "m.npz"
    save_checkpoint(str(ckpt), cfg, model.init_params(cfg),
                    vocab_payload={"labels": ["a", "b", "c", "d"], "slot_groups": [],
                                   "speakers": ["x", "y", "z"]})
    wav = write_wav(tmp_path / "a.wav", 0.3 * np.sin(np.arange(6000) / 5.0))
    manifest = tmp_path / "unheard.csv"
    manifest.write_text(f"id,audio,speaker,labels\nu1,{wav},w,a\n")
    code = cli.main(["eval", "--checkpoint", str(ckpt), "--manifest", str(manifest)])
    assert code == 2
    assert "manifest speakers not in checkpoint roster: ['w']" in capsys.readouterr().err


def _audio_eval_argv(tmp_path):
    """``eval`` of an untrained audio-feature checkpoint on a one-utterance
    manifest, and the path of that utterance's audio."""
    from capsintent.checkpoint import save_checkpoint
    from helpers import tiny_model_config
    import capsintent.model as model

    cfg = tiny_model_config(feat_dim=3 * N_MELS)
    ckpt = tmp_path / "m.npz"
    save_checkpoint(str(ckpt), cfg, model.init_params(cfg),
                    vocab_payload={"labels": ["a", "b", "c", "d"], "slot_groups": [],
                                   "speakers": ["x", "y", "z"]})
    wav = write_wav(tmp_path / "a.wav", 0.3 * np.sin(np.arange(6000) / 5.0))
    manifest = tmp_path / "m.csv"
    manifest.write_text(f"id,audio,speaker,labels\nu1,{wav},x,a\n")
    return ["eval", "--checkpoint", str(ckpt), "--manifest", str(manifest)], wav


def test_eval_quotes_an_id_that_holds_a_comma(tmp_path):
    import csv

    argv, wav = _audio_eval_argv(tmp_path)
    manifest = Path(argv[argv.index("--manifest") + 1])
    manifest.write_text(f'id,audio,speaker,labels\n"take 1, room 2",{wav},x,a\n')
    assert cli.main([*argv, "--output", str(tmp_path / "out")]) == 0
    with open(tmp_path / "out" / "predictions.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert [len(row) for row in rows] == [5, 5]
    assert rows[1][0] == "take 1, room 2"


@pytest.mark.parametrize("command", ["train", "eval"])
def test_an_output_path_under_a_regular_file_is_usage_error(tmp_path, capsys, command):
    blocker = tmp_path / "file"
    blocker.write_text("not a directory\n")
    out = blocker / "sub"
    if command == "train":
        argv, written = ["train", write_config(tmp_path)], out / "model.npz"
    else:
        argv, written = _audio_eval_argv(tmp_path)[0], out / "predictions.csv"
    assert cli.main([*argv, "--output", str(out)]) == 2
    assert capsys.readouterr().err.splitlines() == [
        f"error: cannot write {written}: Not a directory"]
    assert blocker.read_text() == "not a directory\n"


@pytest.mark.parametrize("command", ["features", "train", "eval"])
def test_a_cache_dir_under_a_regular_file_is_usage_error(tmp_path, capsys, command):
    blocker = tmp_path / "file"
    blocker.write_text("not a directory\n")
    cache = blocker / "sub"
    if command == "eval":
        argv, wav = _audio_eval_argv(tmp_path)
        argv += ["--cache-dir", str(cache), "--output", str(tmp_path / "out")]
    else:
        root = make_audio_corpus_tree(tmp_path)
        wav = str(root / "spk0" / "u0.wav")    # the loader's first utterance
        argv = [command, write_config(tmp_path, corpus={"kind": "grabo", "root": str(root),
                                                        "cache_dir": str(cache)})]
    digest = hashlib.sha256(Path(wav).read_bytes()).hexdigest()[:24]
    assert cli.main(argv) == 2
    assert capsys.readouterr().err.splitlines() == [
        f"error: cannot write {cache / f'{digest}_{RECIPE_DIGEST}.npy'}: Not a directory"]
    assert blocker.read_text() == "not a directory\n"
    assert not (tmp_path / "out").exists()


def test_eval_empty_manifest(tmp_path):
    from capsintent.checkpoint import save_checkpoint
    from helpers import tiny_model_config
    import capsintent.model as model

    cfg = tiny_model_config()
    ckpt = tmp_path / "m.npz"
    save_checkpoint(str(ckpt), cfg, model.init_params(cfg),
                    vocab_payload={"labels": ["a", "b", "c", "d"], "slot_groups": [],
                                   "speakers": ["x", "y", "z"]})
    manifest = tmp_path / "empty.csv"
    manifest.write_text("id,audio,speaker,labels\n")
    code = cli.main(["eval", "--checkpoint", str(ckpt), "--manifest", str(manifest)])
    assert code == 2


def test_eval_duplicate_manifest_id_is_data_error(tmp_path, capsys):
    from capsintent.checkpoint import save_checkpoint
    from helpers import tiny_model_config
    import capsintent.model as model

    cfg = tiny_model_config()
    ckpt = tmp_path / "m.npz"
    save_checkpoint(str(ckpt), cfg, model.init_params(cfg),
                    vocab_payload={"labels": ["a", "b", "c", "d"], "slot_groups": [],
                                   "speakers": ["x", "y", "z"]})
    manifest = tmp_path / "dup.csv"
    manifest.write_text("id,audio,speaker,labels\nu1,a.wav,x,a\nu1,b.wav,y,b\n")
    code = cli.main(["eval", "--checkpoint", str(ckpt), "--manifest", str(manifest)])
    assert code == 4
    assert "duplicate utterance id 'u1'" in capsys.readouterr().err


MANIFEST_TEXT = b"id,audio,speaker,labels\nu1,a.wav,spk,action:go\n"
FLUENT_HEADER = b"path,speakerId,action,object,location\n"


def _malformed(target: str, content: str, tmp_path) -> bytes:
    """``content`` of one kind for the file the CLI reads as ``target``."""
    if content == "empty":
        return b""
    if content == "binary":          # control bytes, valid UTF-8
        return bytes(range(32)) * 8
    if content == "non_utf8":
        return MANIFEST_TEXT + b"u2,a.wav,caf\xe9,action:go\n"
    if content == "nul_in_audio_path":
        return MANIFEST_TEXT + b"u2,a\x00.wav,spk,action:go\n"
    if content == "huge_field":      # over the csv module's 131072-character field limit
        return {"manifest": MANIFEST_TEXT + b"u2,a.wav,spk," + b"x" * 140000 + b"\n",
                "fluent_table": FLUENT_HEADER + b"a.wav,spk," + b"x" * 140000 + b",o,l\n"}[target]
    if target == "checkpoint":       # wrong format: a .npy array
        np.save(tmp_path / "array.npy", np.zeros(3))
        return (tmp_path / "array.npy").read_bytes()
    if content == "truncated":       # audio that ends inside a 16-bit sample
        return Path(write_wav(tmp_path / "cut.wav", np.zeros(800))).read_bytes()[:-1]
    if target in ("wav", "cache_entry"):   # wrong format: a WAV header that gives 0 Hz
        data = bytearray(Path(write_wav(tmp_path / "zero.wav", np.zeros(800))).read_bytes())
        data[24:28] = bytes(4)       # the fmt chunk's sample-rate field
        return bytes(data)
    return {"config": MANIFEST_TEXT, "manifest": b"output_dir: out\ncorpus: {kind: synth}\n",
            "fluent_table": MANIFEST_TEXT}[target]


@pytest.mark.parametrize("target, content", [
    *[(target, content) for target in ("config", "manifest", "fluent_table", "checkpoint", "wav")
      for content in ("empty", "binary", "non_utf8", "wrong_format")],
    ("manifest", "huge_field"), ("fluent_table", "huge_field"),
    ("manifest", "nul_in_audio_path"), ("wav", "truncated"),
])
def test_malformed_input_exits_cleanly(tmp_path, capsys, monkeypatch, target, content):
    monkeypatch.delenv(cli.CACHE_ENV_VAR, raising=False)
    data = _malformed(target, content, tmp_path)
    write_wav(tmp_path / "a.wav", 0.3 * np.sin(np.arange(6000) / 5.0))
    manifest = tmp_path / "m.csv"
    manifest.write_bytes(data if target == "manifest" else MANIFEST_TEXT)
    if target == "wav":
        (tmp_path / "a.wav").write_bytes(data)
    fluent = tmp_path / "fluent" / "data"
    fluent.mkdir(parents=True)
    for table in datasets.FLUENT_TABLES.values():
        (fluent / table).write_bytes(FLUENT_HEADER)
    (fluent / "train_data.csv").write_bytes(data)
    bad = tmp_path / "bad"
    bad.write_bytes(data)

    corpus = ({"kind": "fluent", "root": str(fluent.parent)} if target == "fluent_table"
              else {"kind": "manifest", "manifest": str(manifest)})
    argv, code = {
        "config": (["validate-config", str(bad)], 2),
        "checkpoint": (["eval", "--checkpoint", str(bad), "--manifest", str(manifest),
                        "--output", str(tmp_path / "eval")], 4),
    }.get(target, (["train", write_config(tmp_path, corpus=corpus)], 4))
    assert cli.main(argv) == code
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert "allow_pickle" not in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("content", ["empty", "binary", "non_utf8", "wrong_format"])
def test_malformed_cache_entry_is_rebuilt(tmp_path, capsys, caplog, content):
    wav = write_wav(tmp_path / "a.wav", 0.3 * np.sin(np.arange(6000) / 5.0))
    (tmp_path / "m.csv").write_bytes(MANIFEST_TEXT)
    cache = tmp_path / "cache"
    path = write_config(tmp_path, corpus={"kind": "manifest", "manifest": str(tmp_path / "m.csv"),
                                          "cache_dir": str(cache)})
    assert cli.main(["features", path]) == 0
    (entry,) = cache.iterdir()
    entry.write_bytes(_malformed("cache_entry", content, tmp_path))
    capsys.readouterr()
    with caplog.at_level("WARNING", logger="capsintent"):
        assert cli.main(["features", path]) == 0
    assert "computed=1 " in capsys.readouterr().out
    (warning,) = [r.getMessage() for r in caplog.records if r.levelname == "WARNING"]
    assert f"cannot read feature cache entry {entry}: not a readable .npy array" in warning
    assert "allow_pickle" not in warning
    _, was_cached = audio_features(wav, str(cache))
    assert was_cached


def test_eval_missing_checkpoint(tmp_path):
    manifest = tmp_path / "m.csv"
    manifest.write_text("id,audio,speaker,labels\nu,a.wav,s,x\n")
    code = cli.main(["eval", "--checkpoint", str(tmp_path / "nope.npz"),
                     "--manifest", str(manifest)])
    assert code == 4


def test_curve_command_writes_results(tmp_path, capsys):
    out_dir = tmp_path / "out"
    path = write_config(tmp_path)
    assert cli.main(["curve", path]) == 0
    assert (out_dir / "curve.csv").is_file()
    assert (out_dir / "run.json").is_file()
    summary = json.loads((out_dir / "summary.json").read_text())
    assert summary["schedule"] == [1]
    assert len(summary["points"]) == 1
    csv_lines = (out_dir / "curve.csv").read_text().strip().split("\n")
    assert csv_lines[0] == "train_utterances,f1,stddev_f1,speaker_acc,repeats"


def test_curve_command_sweep(tmp_path):
    out_dir = tmp_path / "out"
    path = write_config(tmp_path, experiment={
        "mode": "speaker_independent", "num_blocks": 4, "schedule": [1],
        "sweep": {"axis": "speaker_weight", "values": [0.0, 1.0]},
    })
    assert cli.main(["curve", path]) == 0
    assert (out_dir / "curve_speaker_weight_0.0.csv").is_file()
    assert (out_dir / "curve_speaker_weight_1.0.csv").is_file()
    summary = json.loads((out_dir / "summary.json").read_text())
    assert set(summary["sweep"]["curves"]) == {"0.0", "1.0"}


def test_curve_without_a_sweep_is_the_one_value_sweep_of_its_speaker_weight(tmp_path):
    # write_config's model has speaker_weight 0.5
    path = write_config(tmp_path)
    assert cli.main(["curve", path, "--output", str(tmp_path / "plain")]) == 0
    path = write_config(tmp_path, experiment={"sweep": {"axis": "speaker_weight",
                                                        "values": [0.5]}})
    assert cli.main(["curve", path, "--output", str(tmp_path / "swept")]) == 0
    assert (tmp_path / "plain" / "curve.csv").read_bytes() == \
        (tmp_path / "swept" / "curve_speaker_weight_0.5.csv").read_bytes()
    plain, swept = (json.loads((tmp_path / run / "summary.json").read_text())
                    for run in ("plain", "swept"))
    assert plain["points"] == swept["sweep"]["curves"]["0.5"]


def test_curve_sweeps_any_model_key(tmp_path):
    # write_config's model has routing_iters 2
    path = write_config(tmp_path)
    assert cli.main(["curve", path, "--output", str(tmp_path / "plain")]) == 0
    path = write_config(tmp_path, experiment={"sweep": {"axis": "routing_iters",
                                                        "values": [1, 2]}})
    assert cli.main(["curve", path, "--output", str(tmp_path / "swept")]) == 0
    assert (tmp_path / "plain" / "curve.csv").read_bytes() == \
        (tmp_path / "swept" / "curve_routing_iters_2.csv").read_bytes()
    plain, swept = (json.loads((tmp_path / run / "summary.json").read_text())
                    for run in ("plain", "swept"))
    assert plain["points"] == swept["sweep"]["curves"]["2"]
    assert swept["sweep"]["curves"]["1"] != swept["sweep"]["curves"]["2"]


def test_curve_reproducible(tmp_path):
    path = write_config(tmp_path)
    assert cli.main(["curve", path, "--output", str(tmp_path / "r1")]) == 0
    assert cli.main(["curve", path, "--output", str(tmp_path / "r2")]) == 0
    assert (tmp_path / "r1" / "curve.csv").read_text() == \
        (tmp_path / "r2" / "curve.csv").read_text()


def test_replicate_fluent_requires_fluent(tmp_path):
    path = write_config(tmp_path)
    assert cli.main(["replicate-fluent", path]) == 2


def test_replicate_fluent_missing_corpus(tmp_path):
    path = write_config(tmp_path, corpus={"kind": "fluent", "root": str(tmp_path / "nope")})
    assert cli.main(["replicate-fluent", path]) == 2


def test_replicate_fluent_report(tmp_path, capsys):
    from test_datasets import _make_fluent_tree

    root = _make_fluent_tree(tmp_path / "fluent", rows_per_split=6)
    out_dir = tmp_path / "out"
    path = write_config(tmp_path,
                        corpus={"kind": "fluent", "root": str(root),
                                "cache_dir": str(tmp_path / "cache")},
                        model={"encoder_hidden": 4, "num_primary": 4,
                               "primary_dim": 2, "output_dim": 4,
                               "routing_iters": 2, "speaker_weight": 1.0},
                        training={"epochs": 1})
    assert cli.main(["replicate-fluent", path]) == 0
    out = capsys.readouterr().out
    assert "0.9780" in out and "0.9810" in out  # published reference rows
    assert "0.8890" in out and "0.9660" in out
    report = json.loads((out_dir / "replication.json").read_text())
    assert "accuracy_partial" in report and "accuracy_full" in report


def test_model_config_unknown_key_is_usage_error(tmp_path):
    with pytest.raises(UsageError, match="bogus"):
        cli.load_run_config(write_config(tmp_path, model={"bogus": 1}))


def test_model_config_takes_feat_dim_from_corpus(tmp_path):
    run = cli.load_run_config(write_config(tmp_path, corpus={"feat_dim": 5}))
    corpus = cli.build_corpus(run)
    config = cli.model_config_from(run, corpus)
    assert (config.feat_dim, config.num_labels, config.speaker_count) == \
        (5, len(corpus.vocab), len(corpus.speakers))
    assert config.seed == run.seed


def test_eval_rebuilds_a_non_finite_cache_entry(tmp_path, caplog):
    root = make_audio_corpus_tree(tmp_path)
    cache = str(tmp_path / "cache")
    path = write_config(tmp_path, corpus={"kind": "grabo", "root": str(root),
                                          "cache_dir": cache},
                        model={"encoder_hidden": 4, "num_primary": 4,
                               "primary_dim": 2, "output_dim": 2,
                               "routing_iters": 2, "speaker_weight": 0.0},
                        training={"epochs": 1})
    assert cli.main(["train", path]) == 0
    corpus = datasets.load_grabo(str(root))
    manifest = tmp_path / "eval.csv"
    datasets.write_manifest(corpus, str(manifest))

    def run_eval(out):
        return cli.main(["eval", "--checkpoint", str(tmp_path / "out" / "model.npz"),
                         "--manifest", str(manifest), "--cache-dir", cache,
                         "--output", str(tmp_path / out)])

    assert run_eval("clean") == 0
    # poison one cached feature matrix
    wav = corpus.utterances[3].audio_path
    feats, was_cached = audio_features(wav, cache)
    assert was_cached
    feats = feats.copy()
    feats[0, 0] = np.nan
    digest = hashlib.sha256(Path(wav).read_bytes()).hexdigest()[:24]
    np.save(os.path.join(cache, f"{digest}_{RECIPE_DIGEST}.npy"), feats)
    with caplog.at_level("WARNING", logger="capsintent"):
        assert run_eval("evalout") == 0
    assert any("holds non-finite values" in r.getMessage() for r in caplog.records)
    for name in ("predictions.csv", "metrics.json"):
        assert (tmp_path / "evalout" / name).read_text() == \
            (tmp_path / "clean" / name).read_text()
    rebuilt, was_cached = audio_features(wav, cache)
    assert was_cached and np.isfinite(rebuilt).all()


def test_eval_metrics_equal_evaluate_model(tmp_path):
    from capsintent import experiments

    root = make_audio_corpus_tree(tmp_path)
    cache = str(tmp_path / "cache")
    path = write_config(tmp_path, corpus={"kind": "grabo", "root": str(root),
                                          "cache_dir": cache},
                        model={"encoder_hidden": 4, "num_primary": 4,
                               "primary_dim": 2, "output_dim": 3,
                               "routing_iters": 2, "speaker_weight": 1.0},
                        training={"epochs": 2})
    assert cli.main(["train", path]) == 0
    ckpt = str(tmp_path / "out" / "model.npz")
    manifest = tmp_path / "eval.csv"
    datasets.write_manifest(datasets.load_grabo(str(root)), str(manifest))
    eval_dir = tmp_path / "evalout"
    assert cli.main(["eval", "--checkpoint", ckpt, "--manifest", str(manifest),
                     "--cache-dir", cache, "--output", str(eval_dir)]) == 0

    config, params, (vocab, speakers) = load_checkpoint(ckpt)
    corpus = datasets.load_manifest(str(manifest))
    datasets.ensure_features(corpus, cache_dir=cache)
    assert list(corpus.speakers) == speakers
    expected = experiments.evaluate_model(corpus.utterances, params, config, vocab)
    assert "intent_accuracy" in expected
    assert json.loads((eval_dir / "metrics.json").read_text()) == expected


def _diverge_on_calls(monkeypatch, calls):
    """Make ``experiments.fit`` raise DivergenceError on the given 1-based
    call numbers and fit as usual otherwise."""
    real_fit, count = experiments.fit, [0]

    @functools.wraps(real_fit)   # the config loader reads fit's annotations
    def fit(utterances, config, **options):
        count[0] += 1
        if count[0] in calls:
            raise DivergenceError(f"forced on fit call {count[0]}")
        return real_fit(utterances, config, **options)

    monkeypatch.setattr(experiments, "fit", fit)


def test_curve_flags_diverged_repeats_and_leaves_out_failed_points(tmp_path, capsys,
                                                                   monkeypatch):
    # two repeats per point: both fits of the first point diverge, and the
    # first of the second; the failed point keeps its size (one of 4 blocks
    # of 44 utterances)
    diverge_on_seeds(monkeypatch, {experiments.derive_seed(1, 0, 0),
                                    experiments.derive_seed(1, 0, 1),
                                    experiments.derive_seed(1, 1, 0)})
    out_dir = tmp_path / "out"
    path = write_config(tmp_path, experiment={"num_blocks": 4, "schedule": [1, 2],
                                              "repeats": 2})
    assert cli.main(["curve", path]) == 0
    out = capsys.readouterr().out
    assert "train=11: FAILED" in out
    gone, kept = json.loads((out_dir / "summary.json").read_text())["points"]
    assert gone == {"train_utterances": 11, "f1": None, "stddev_f1": None,
                    "speaker_acc": None, "repeats": 0, "failed": True, "repeat_jobs": []}
    assert kept["failed"] and kept["repeats"] == 1 and kept["stddev_f1"] == 0.0
    (job,), = kept["repeat_jobs"]      # the surviving second repeat
    assert job["seed"] == experiments.derive_seed(1, 1, 1) and job["f1"] == kept["f1"]
    assert kept["train_utterances"] == 22 and 0.0 <= kept["f1"] <= 1.0
    assert "train=22: FAILED" in out
    rows = (out_dir / "curve.csv").read_text().strip().split("\n")
    assert rows[1:] == [f"22,{kept['f1']:.6f},0.000000,{kept['speaker_acc']:.6f},1"]


def test_curve_failed_speaker_dependent_point_keeps_its_size(tmp_path, capsys, monkeypatch):
    # a speaker-dependent repeat fits one model per speaker; the first fit of
    # each of the two repeats of the first point diverges, so no repeat
    # survives. Each speaker's 4 utterances deal into blocks of 2, 1 and 1.
    diverge_on_seeds(monkeypatch, {experiments.derive_seed(1, 0, rep, 0) for rep in (0, 1)})
    out_dir = tmp_path / "out"
    path = write_config(tmp_path, experiment={"mode": "speaker_dependent", "num_blocks": 3,
                                              "schedule": [1, 2], "repeats": 2})
    assert cli.main(["curve", path]) == 0
    assert "train=2: FAILED" in capsys.readouterr().out
    gone, kept = json.loads((out_dir / "summary.json").read_text())["points"]
    assert gone == {"train_utterances": 2, "f1": None, "stddev_f1": None,
                    "speaker_acc": None, "repeats": 0, "failed": True, "repeat_jobs": []}
    assert kept["train_utterances"] == 3 and kept["repeats"] == 2 and not kept["failed"]
    assert [len(jobs) for jobs in kept["repeat_jobs"]] == [11, 11]   # one job per speaker
    rows = (out_dir / "curve.csv").read_text().strip().split("\n")
    assert [row.split(",")[0] for row in rows[1:]] == ["3"]


@pytest.mark.parametrize("error, code, message", [
    (DataError("bad job"), 4, "error: bad job"),
    (MemoryError("no room"), 2, "error: out of memory: no room"),
], ids=["data_error", "out_of_memory"])
def test_failed_curve_writes_nothing(tmp_path, capsys, monkeypatch, error, code, message):
    def init_params(config):
        raise error

    monkeypatch.setattr(model, "init_params", init_params)
    assert cli.main(["curve", write_config(tmp_path)]) == code
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_train_divergence_exits_3(tmp_path, capsys, monkeypatch):
    _diverge_on_calls(monkeypatch, {1})
    assert cli.main(["train", write_config(tmp_path)]) == 3
    assert "error: training diverged: forced on fit call 1" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()
