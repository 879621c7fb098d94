import json
import os

import numpy as np
import pytest
import yaml

from capsintent import cli, datasets
from capsintent.checkpoint import load_checkpoint
from capsintent.errors import UsageError
from capsintent.features import FeatureCache

from helpers import write_wav


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
], ids=["negative_noise", "nan_noise", "zero_per_speaker", "zero_feat_dim"])
def test_validate_config_rejects_bad_synth_values(tmp_path, capsys, corpus, message):
    path = write_config(tmp_path, corpus=corpus)
    assert cli.main(["validate-config", path]) == 2
    assert message in capsys.readouterr().err


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
    ({"experiment": {"sweep": {"axis": "output_dim", "values": [4, 1]}}},
     "output_dim must be >= 2"),
    ({"experiment": {"sweep": {"axis": "speaker_weight", "values": [0.0, -2.0]}}},
     "speaker_weight must be finite and >= 0"),
], ids=["zero_layers", "output_dim_1", "nan_speaker_weight", "negative_speaker_weight",
        "output_dim_1_in_sweep", "negative_speaker_weight_in_sweep"])
@pytest.mark.parametrize("command", ["train", "curve"])
def test_invalid_model_section_is_usage_error_before_the_corpus(tmp_path, capsys, monkeypatch,
                                                                override, message, command):
    path = write_config(tmp_path, **override)
    assert cli.main(["validate-config", path]) == 2
    assert message in capsys.readouterr().err

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
], ids=["schedule_beyond_blocks", "empty_schedule", "zero_repeats"])
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
    ({"axis": "output_dim", "values": [2, 3.5]}, "must be integers"),
], ids=["string_values", "string_in_values", "fractional_output_dim"])
def test_mistyped_sweep_is_usage_error(tmp_path, capsys, sweep, message):
    path = write_config(tmp_path, experiment={"sweep": sweep})
    assert cli.main(["validate-config", path]) == 2
    assert message in capsys.readouterr().err
    assert cli.main(["curve", path]) == 2


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
    feats, was_cached = FeatureCache(cache).get_or_compute(wav)
    assert was_cached
    feats = feats.copy()
    feats[0, 0] = np.nan
    FeatureCache(cache).store(wav, feats)
    with caplog.at_level("WARNING", logger="capsintent"):
        assert run_eval("evalout") == 0
    assert any("holds non-finite values" in r.getMessage() for r in caplog.records)
    for name in ("predictions.csv", "metrics.json"):
        assert (tmp_path / "evalout" / name).read_text() == \
            (tmp_path / "clean" / name).read_text()
    rebuilt, was_cached = FeatureCache(cache).get_or_compute(wav)
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
