import os

import numpy as np
import pytest

from capsintent import datasets
from capsintent.errors import DataError, UsageError

from helpers import write_wav
from opexamples import by_module


@pytest.mark.parametrize("ex", by_module("datasets"), ids=lambda e: e.id)
def test_op_examples(ex):
    ex.fn()


# ---------------------------------------------------------------------------
# vocabulary


def test_vocabulary_duplicate_labels_rejected():
    with pytest.raises(DataError):
        datasets.LabelVocabulary(labels=("a", "a"))


def test_vocabulary_overlapping_groups_rejected():
    with pytest.raises(DataError):
        datasets.LabelVocabulary(
            labels=("g:a", "g:b"),
            slot_groups=(datasets.SlotGroup("g", ("g:a",), True),
                         datasets.SlotGroup("h", ("g:a",), True)),
        )


def test_vocabulary_from_labels_detects_required_groups():
    vocab = datasets.vocabulary_from_labels([
        ["action:go", "speed:fast"],
        ["action:stop"],
    ])
    groups = {g.name: g for g in vocab.slot_groups}
    assert groups["action"].required
    assert not groups["speed"].required


def test_multi_hot_roundtrip():
    vocab = datasets.LabelVocabulary(labels=("a", "b", "c"))
    target = vocab.to_multi_hot(["c", "a"])
    assert np.array_equal(target, [1.0, 0.0, 1.0])
    assert vocab.names_of(target) == ["a", "c"]


def test_multi_hot_requires_one_active():
    vocab = datasets.LabelVocabulary(labels=("a",))
    with pytest.raises(DataError):
        vocab.to_multi_hot([])


# ---------------------------------------------------------------------------
# synthetic corpora


def test_synth_spec_validation():
    with pytest.raises(UsageError):
        datasets.SynthSpec(speaker_count=0, num_labels=2, groups=(),
                           per_speaker_count=1, feat_dim=2, noise_level=0.0)
    with pytest.raises(UsageError):
        datasets.SynthSpec(speaker_count=1, num_labels=2,
                           groups=(datasets.SynthGroup("g", 5, True),),
                           per_speaker_count=1, feat_dim=2, noise_level=0.0)


@pytest.mark.parametrize("noise", [-1.0, float("nan"), float("inf")])
def test_synth_spec_rejects_bad_noise_level(noise):
    with pytest.raises(UsageError, match="noise_level must be finite and >= 0"):
        datasets.mimic_grabo_spec(noise_level=noise)


def test_synth_ungrouped_labels():
    spec = datasets.SynthSpec(speaker_count=2, num_labels=5,
                              groups=(datasets.SynthGroup("g", 3, True),),
                              per_speaker_count=30, feat_dim=4, noise_level=0.0)
    corpus = datasets.synth_generate(spec, seed=0)
    assert corpus.vocab.labels[3:] == ("tag0", "tag1")
    # ungrouped labels appear in some utterances but not all
    counts = sum(int(u.target[3:].any()) for u in corpus.utterances)
    assert 0 < counts < len(corpus)


def test_synth_speaker_rate_changes_length():
    spec = datasets.SynthSpec(speaker_count=6, num_labels=2,
                              groups=(datasets.SynthGroup("g", 2, True),),
                              per_speaker_count=4, feat_dim=4, noise_level=0.0)
    corpus = datasets.synth_generate(spec, seed=3)
    truth = datasets.synth_truth(spec, seed=3)
    for utt in corpus.utterances:
        expected = int(round(truth.speaker_rates[utt.speaker_index] * datasets.SEGMENT_FRAMES))
        assert utt.features.shape[0] == expected


# ---------------------------------------------------------------------------
# block splits


def test_split_blocks_dependent_partitions_per_speaker():
    spec = datasets.SynthSpec(speaker_count=3, num_labels=2,
                              groups=(datasets.SynthGroup("g", 2, True),),
                              per_speaker_count=12, feat_dim=3, noise_level=0.0)
    corpus = datasets.synth_generate(spec, seed=1)
    split = datasets.split_blocks(corpus, 4, "speaker_dependent", seed=0)
    for spk, blocks in split.per_speaker.items():
        ids = [i for b in blocks for i in b]
        expected = [u.id for u in corpus.utterances if u.speaker_index == spk]
        assert sorted(ids) == sorted(expected)


def test_split_blocks_too_many_blocks():
    spec = datasets.SynthSpec(speaker_count=1, num_labels=2,
                              groups=(datasets.SynthGroup("g", 2, True),),
                              per_speaker_count=5, feat_dim=3, noise_level=0.0)
    corpus = datasets.synth_generate(spec, seed=1)
    with pytest.raises(UsageError):
        datasets.split_blocks(corpus, 10, "speaker_independent", seed=0)
    with pytest.raises(UsageError):
        datasets.split_blocks(corpus, 10, "speaker_dependent", seed=0)


def test_split_blocks_unknown_mode():
    spec = datasets.SynthSpec(speaker_count=1, num_labels=2,
                              groups=(datasets.SynthGroup("g", 2, True),),
                              per_speaker_count=5, feat_dim=3, noise_level=0.0)
    corpus = datasets.synth_generate(spec, seed=1)
    with pytest.raises(UsageError):
        datasets.split_blocks(corpus, 2, "bogus", seed=0)


# ---------------------------------------------------------------------------
# manifest


def _audio_corpus(tmp_path, n_speakers=2, per_speaker=3):
    rng = np.random.default_rng(0)
    rows = []
    for s in range(n_speakers):
        for u in range(per_speaker):
            path = tmp_path / f"s{s}_u{u}.wav"
            write_wav(path, rng.uniform(-0.5, 0.5, 8000))
            rows.append((f"s{s}-u{u}", str(path), f"spk{s}",
                         ["act:go" if u % 2 else "act:stop", "mark"] if u != 1 else ["act:go"]))
    vocab = datasets.vocabulary_from_labels([r[3] for r in rows])
    utts = [datasets.Utterance(id=r[0], target=vocab.to_multi_hot(r[3]),
                               speaker_index=int(r[2][3:]), audio_path=r[1]) for r in rows]
    return datasets.Corpus(name="mini", utterances=utts, vocab=vocab,
                           speakers=[f"spk{s}" for s in range(n_speakers)])


def test_manifest_roundtrip(tmp_path):
    corpus = _audio_corpus(tmp_path)
    manifest = tmp_path / "corpus.csv"
    datasets.write_manifest(corpus, str(manifest))
    loaded = datasets.load_manifest(str(manifest))
    assert len(loaded) == len(corpus)
    assert loaded.vocab.labels == corpus.vocab.labels
    assert loaded.speakers == corpus.speakers
    for orig, back in zip(corpus.utterances, loaded.utterances):
        assert orig.id == back.id
        assert np.array_equal(orig.target, back.target)
        assert orig.speaker_index == back.speaker_index


def test_manifest_write_failure_leaves_old_file(tmp_path):
    corpus = _audio_corpus(tmp_path)
    manifest = tmp_path / "corpus.csv"
    datasets.write_manifest(corpus, str(manifest))
    before = manifest.read_bytes()
    corpus.utterances[1].audio_path = None
    with pytest.raises(UsageError, match=corpus.utterances[1].id):
        datasets.write_manifest(corpus, str(manifest))
    assert manifest.read_bytes() == before
    assert not [name for name in os.listdir(tmp_path) if name.endswith(".tmp")]


def test_manifest_missing_file():
    with pytest.raises(UsageError):
        datasets.load_manifest("/nonexistent/manifest.csv")


def test_manifest_bad_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("id,wav,who,tags\nx,y,z,w\n")
    with pytest.raises(DataError):
        datasets.load_manifest(str(path))


def test_manifest_duplicate_id_rejected(tmp_path):
    path = tmp_path / "dup.csv"
    path.write_text("id,audio,speaker,labels\nu0,a.wav,s,x\nu1,b.wav,s,x\nu1,c.wav,t,y\n")
    with pytest.raises(DataError, match="duplicate utterance id 'u1'"):
        datasets.load_manifest(str(path))


def test_ensure_features_from_audio(tmp_path):
    corpus = _audio_corpus(tmp_path)
    counts = datasets.ensure_features(corpus, cache_dir=str(tmp_path / "cache"))
    assert counts["computed"] == len(corpus)
    assert corpus.feat_dim() == 120
    counts2 = datasets.ensure_features(_audio_corpus(tmp_path), cache_dir=str(tmp_path / "cache"))
    assert counts2["cached"] == len(corpus)


def test_ensure_features_rebuilds_a_bad_cache_entry(tmp_path, caplog):
    cache = tmp_path / "cache"
    corpus = _audio_corpus(tmp_path)
    datasets.ensure_features(corpus, cache_dir=str(cache))
    entry = sorted(cache.iterdir())[0]
    entry.write_bytes(b"garbage, not an array")
    with caplog.at_level("WARNING", logger="capsintent"):
        counts = datasets.ensure_features(_audio_corpus(tmp_path), cache_dir=str(cache))
    assert counts == {"computed": 1, "cached": len(corpus) - 1, "inline": 0, "failed": 0}
    assert any(entry.name in r.getMessage() for r in caplog.records)
    counts = datasets.ensure_features(_audio_corpus(tmp_path), cache_dir=str(cache))
    assert counts == {"computed": 0, "cached": len(corpus), "inline": 0, "failed": 0}


# ---------------------------------------------------------------------------
# directory loaders (fabricated miniature corpora)


def _make_grabo_tree(root, n_speakers=3, per_speaker=4):
    rng = np.random.default_rng(1)
    actions = ["drive", "lift", "point"]
    speeds = ["slow", "fast"]
    for s in range(n_speakers):
        spk_dir = root / f"pp{s + 1:02d}"
        spk_dir.mkdir(parents=True)
        for u in range(per_speaker):
            write_wav(spk_dir / f"rec{u}.wav", rng.uniform(-0.5, 0.5, 6000))
            action = actions[(s + u) % len(actions)]
            extra = f"<speed>{speeds[u % 2]}</speed>" if u % 2 == 0 else ""
            (spk_dir / f"rec{u}.xml").write_text(
                f"<frame><action>{action}</action>{extra}</frame>"
            )
    return root


def test_load_grabo_layout(tmp_path):
    root = _make_grabo_tree(tmp_path / "grabo")
    corpus = datasets.load_grabo(str(root))
    assert corpus.speakers == ["pp01", "pp02", "pp03"]
    assert len(corpus) == 12
    assert all(lbl.split(":")[0] in ("action", "speed") for lbl in corpus.vocab.labels)
    groups = {g.name: g for g in corpus.vocab.slot_groups}
    assert groups["action"].required
    assert not groups["speed"].required


def test_load_grabo_missing_annotation_skipped(tmp_path):
    root = _make_grabo_tree(tmp_path / "grabo")
    extra = root / "pp01" / "orphan.wav"
    write_wav(extra, np.zeros(4000))
    corpus = datasets.load_grabo(str(root))
    assert corpus.warnings["missing_annotation"] == 1
    assert len(corpus) == 12


def test_load_grabo_malformed_frame(tmp_path):
    root = _make_grabo_tree(tmp_path / "grabo")
    (root / "pp01" / "rec0.xml").write_text("<frame><action>oops")
    with pytest.raises(DataError) as err:
        datasets.load_grabo(str(root))
    assert "rec0.xml" in str(err.value)


def test_load_grabo_missing_root():
    with pytest.raises(UsageError):
        datasets.load_grabo("/nonexistent/grabo")


def _make_fluent_tree(root, speakers=("A7", "B2"), rows_per_split=4):
    rng = np.random.default_rng(2)
    (root / "data").mkdir(parents=True)
    actions = ["activate", "deactivate"]
    objects = ["lights", "music"]
    locations = ["none", "kitchen"]
    counter = 0
    for split in ("train", "valid", "test"):
        lines = [",path,speakerId,transcription,action,object,location"]
        for i in range(rows_per_split):
            spk = speakers[i % len(speakers)]
            rel = f"wavs/speakers/{spk}/utt{counter}.wav"
            wav_path = root / rel
            wav_path.parent.mkdir(parents=True, exist_ok=True)
            write_wav(wav_path, rng.uniform(-0.5, 0.5, 5000))
            lines.append(f"{counter},{rel},{spk},say it,{actions[i % 2]},"
                         f"{objects[i % 2]},{locations[i % 2]}")
            counter += 1
        (root / "data" / f"{split}_data.csv").write_text("\n".join(lines) + "\n")
    return root


def test_load_fluent_layout(tmp_path):
    root = _make_fluent_tree(tmp_path / "fluent")
    corpus = datasets.load_fluent(str(root))
    assert corpus.speakers == ["A7", "B2"]
    assert len(corpus) == 12
    assert set(corpus.splits) == {"train", "valid", "test"}
    assert all(len(ids) == 4 for ids in corpus.splits.values())
    # three required slot groups, one active label per group per utterance
    assert {g.name for g in corpus.vocab.slot_groups} == {"action", "object", "location"}
    assert all(g.required for g in corpus.vocab.slot_groups)
    for utt in corpus.utterances:
        assert utt.target.sum() == 3
    # small fabricated corpus will not match the expected 31-label union
    assert "unexpected_label_count" in corpus.warnings


def test_load_fluent_missing_table(tmp_path):
    root = _make_fluent_tree(tmp_path / "fluent")
    os.unlink(root / "data" / "test_data.csv")
    with pytest.raises(DataError):
        datasets.load_fluent(str(root))


def test_load_fluent_missing_audio_skipped(tmp_path):
    root = _make_fluent_tree(tmp_path / "fluent")
    os.unlink(root / "wavs" / "speakers" / "A7" / "utt0.wav")
    corpus = datasets.load_fluent(str(root))
    assert corpus.warnings["missing_audio"] == 1
    assert len(corpus) == 11


def test_fluent_partial_ids_pinned_subsample(tmp_path):
    root = _make_fluent_tree(tmp_path / "fluent", rows_per_split=10)
    corpus = datasets.load_fluent(str(root))
    partial = datasets.fluent_partial_ids(corpus)
    assert partial == datasets.fluent_partial_ids(corpus)
    assert set(partial) <= set(corpus.splits["train"])
    # stratified: at least one utterance from every training speaker
    spks = {corpus.by_id(i).speaker_index for i in partial}
    assert spks == {corpus.by_id(i).speaker_index for i in corpus.splits["train"]}


def test_fluent_partial_ids_prefers_published_table(tmp_path):
    root = _make_fluent_tree(tmp_path / "fluent")
    corpus = datasets.load_fluent(str(root))
    first_train = corpus.splits["train"][0]
    (root / "data" / "train_partial_data.csv").write_text(
        f",path,speakerId,transcription,action,object,location\n0,{first_train},A7,x,a,b,c\n"
    )
    corpus = datasets.load_fluent(str(root))
    assert datasets.fluent_partial_ids(corpus) == [first_train]


def _write_partial(root, paths, header=",path,speakerId"):
    lines = [header] + [f"{i},{path},A7" for i, path in enumerate(paths)]
    (root / "data" / "train_partial_data.csv").write_text("\n".join(lines) + "\n")


def test_fluent_partial_table_drops_missing_audio(tmp_path):
    root = _make_fluent_tree(tmp_path / "fluent")
    train = datasets.load_fluent(str(root)).splits["train"]
    os.unlink(root / train[1])
    _write_partial(root, train[:3])
    corpus = datasets.load_fluent(str(root))
    # counted once in the train table and once in the partial table
    assert corpus.warnings["missing_audio"] == 2
    assert datasets.fluent_partial_ids(corpus) == [train[0], train[2]]


def test_fluent_partial_table_outside_train_split(tmp_path):
    root = _make_fluent_tree(tmp_path / "fluent")
    valid = datasets.load_fluent(str(root)).splits["valid"]
    _write_partial(root, valid[:1])
    with pytest.raises(DataError, match="not in the train split"):
        datasets.load_fluent(str(root))


@pytest.mark.parametrize("table", ["train_partial_data.csv", "valid_data.csv"])
def test_fluent_table_missing_column(tmp_path, table):
    root = _make_fluent_tree(tmp_path / "fluent")
    path = root / "data" / table
    if table == "train_partial_data.csv":
        _write_partial(root, datasets.load_fluent(str(root)).splits["train"][:1])
    lines = path.read_text().splitlines()
    path.write_text("\n".join([lines[0].replace(",path,", ",file,"), *lines[1:]]) + "\n")
    with pytest.raises(DataError, match="missing columns \\['path'\\]"):
        datasets.load_fluent(str(root))


@pytest.mark.parametrize("table", ["train_partial_data.csv", "test_data.csv"])
def test_fluent_table_short_row(tmp_path, table):
    root = _make_fluent_tree(tmp_path / "fluent")
    if table == "train_partial_data.csv":
        _write_partial(root, datasets.load_fluent(str(root)).splits["train"][:2])
    path = root / "data" / table
    lines = path.read_text().splitlines()
    lines[2] = lines[2].split(",")[0]
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(DataError, match=f"{table}:3: row has fewer fields"):
        datasets.load_fluent(str(root))


def test_corpus_validate_catches_bad_speaker():
    vocab = datasets.LabelVocabulary(labels=("a",))
    utts = [datasets.Utterance(id="u", target=np.array([1.0]), speaker_index=5)]
    corpus = datasets.Corpus(name="x", utterances=utts, vocab=vocab, speakers=["s"])
    with pytest.raises(DataError):
        corpus.validate()
