import builtins
import os
import re
import tracemalloc

import numpy as np
import pytest

from capsintent import datasets
from capsintent.errors import DataError, UsageError

from helpers import reference_synth_generate, write_wav
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


def test_vocabulary_unknown_label():
    vocab = datasets.LabelVocabulary(labels=("a", "b"))
    with pytest.raises(DataError, match="unknown label 'c'"):
        vocab.to_multi_hot(["a", "c"])


def test_vocabulary_grouped_holds_the_indices_of_grouped_labels():
    vocab = datasets.LabelVocabulary(
        labels=("g:a", "tag", "g:b", "h:c", "other"),
        slot_groups=(datasets.SlotGroup("g", ("g:b", "g:a"), True),
                     datasets.SlotGroup("h", ("h:c",), False)),
    )
    assert vocab.grouped == {0, 2, 3}
    assert vocab.ungrouped == [1, 4]
    assert datasets.LabelVocabulary(labels=("a",)).grouped == set()
    assert datasets.LabelVocabulary(labels=("b", "a")).ungrouped == [0, 1]


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
    for size in (0, -1):
        with pytest.raises(UsageError, match=f"^slot group 'g' has size {size}, must be >= 1$"):
            datasets.SynthSpec(speaker_count=1, num_labels=2,
                               groups=(datasets.SynthGroup("g", size, False),),
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


SynthGroup = datasets.SynthGroup
BYTE_IDENTITY_SPECS = [
    (datasets.mimic_grabo_spec(noise_level=0.2), 3),
    (datasets.mimic_grabo_spec(per_speaker_count=30, noise_level=0.0), 1),
    (datasets.mimic_grabo_spec(per_speaker_count=30, feat_dim=1), 2),
    (datasets.SynthSpec(speaker_count=3, num_labels=9,
                        groups=(SynthGroup("a", 3), SynthGroup("b", 2, required=False)),
                        per_speaker_count=40, feat_dim=5, noise_level=0.3), 4),
    (datasets.SynthSpec(speaker_count=3, num_labels=4, groups=(), per_speaker_count=40,
                        feat_dim=3, noise_level=0.1), 5),
    # every group optional and no ungrouped label: 16 of the 180 utterances
    # draw no label and take the fallback one
    (datasets.SynthSpec(speaker_count=3, num_labels=5,
                        groups=(SynthGroup("a", 2, required=False),
                                SynthGroup("b", 3, required=False)),
                        per_speaker_count=60, feat_dim=4, noise_level=0.5), 6),
]


@pytest.mark.parametrize("spec, seed", BYTE_IDENTITY_SPECS,
                         ids=["bench_corpus", "noise_0", "feat_dim_1", "ungrouped_labels",
                              "no_groups", "all_groups_optional"])
def test_synth_generate_matches_the_per_utterance_reference_byte_for_byte(spec, seed):
    got = datasets.synth_generate(spec, seed)
    want = reference_synth_generate(spec, seed)
    assert [u.id for u in got.utterances] == [u.id for u in want.utterances]
    assert ([u.speaker_index for u in got.utterances]
            == [u.speaker_index for u in want.utterances])
    for g, w in zip(got.utterances, want.utterances):
        assert g.target.tobytes() == w.target.tobytes()
        assert g.features.shape == w.features.shape
        assert g.features.dtype == np.float64 and g.features.flags.c_contiguous
        assert g.features.tobytes() == w.features.tobytes()


def _peak_traced_bytes(fn, *args):
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_synth_generate_peaks_within_115_percent_of_the_reference():
    spec = datasets.mimic_grabo_spec(noise_level=0.2)
    reference_synth_generate(spec, 3)   # first-call work out of the way
    datasets.synth_generate(spec, 3)
    want = _peak_traced_bytes(reference_synth_generate, spec, 3)
    got = _peak_traced_bytes(datasets.synth_generate, spec, 3)
    assert got <= 1.15 * want


# ---------------------------------------------------------------------------
# block splits


def test_split_blocks_dependent_partitions_per_speaker():
    spec = datasets.SynthSpec(speaker_count=3, num_labels=2,
                              groups=(datasets.SynthGroup("g", 2, True),),
                              per_speaker_count=12, feat_dim=3, noise_level=0.0)
    corpus = datasets.synth_generate(spec, seed=1)
    split = datasets.split_blocks(corpus, 4, "speaker_dependent", seed=0)
    for spk in range(len(corpus.speakers)):
        # a speaker's own blocks: the one block list filtered to that speaker
        blocks = [[i for i in b if corpus.by_id(i).speaker_index == spk] for b in split.blocks]
        assert [len(b) for b in blocks] == [3] * 4
        ids = [i for b in blocks for i in b]
        expected = [u.id for u in corpus.utterances if u.speaker_index == spk]
        assert sorted(ids) == sorted(expected)


def test_split_blocks_too_many_blocks():
    spec = datasets.SynthSpec(speaker_count=1, num_labels=2,
                              groups=(datasets.SynthGroup("g", 2, True),),
                              per_speaker_count=5, feat_dim=3, noise_level=0.0)
    corpus = datasets.synth_generate(spec, seed=1)
    with pytest.raises(UsageError, match="^corpus synth has 5 utterances < 10 blocks$"):
        datasets.split_blocks(corpus, 10, "speaker_independent", seed=0)
    with pytest.raises(UsageError, match="^speaker spk00 has 5 utterances < 10 blocks$"):
        datasets.split_blocks(corpus, 10, "speaker_dependent", seed=0)


def test_split_blocks_unknown_mode():
    spec = datasets.SynthSpec(speaker_count=1, num_labels=2,
                              groups=(datasets.SynthGroup("g", 2, True),),
                              per_speaker_count=5, feat_dim=3, noise_level=0.0)
    corpus = datasets.synth_generate(spec, seed=1)
    with pytest.raises(UsageError):
        datasets.split_blocks(corpus, 2, "bogus", seed=0)
    # refused before any dealing, which would fail on the 5 utterances
    with pytest.raises(UsageError, match="^unknown split mode 'bogus'$"):
        datasets.split_blocks(corpus, 10, "bogus", seed=0)


@pytest.mark.parametrize("mode", datasets.SPLIT_MODES)
@pytest.mark.parametrize("num_blocks", [0, -2])
def test_split_blocks_needs_one_block(mode, num_blocks):
    spec = datasets.SynthSpec(speaker_count=2, num_labels=2,
                              groups=(datasets.SynthGroup("g", 2, True),),
                              per_speaker_count=5, feat_dim=3, noise_level=0.0)
    corpus = datasets.synth_generate(spec, seed=1)
    with pytest.raises(UsageError, match=f"^a split needs num_blocks >= 1 equal to its 0 "
                                         f"blocks, got {num_blocks}$"):
        datasets.split_blocks(corpus, num_blocks, mode, seed=0)


@pytest.mark.parametrize("fields, message", [
    ({"mode": "speaker-independent"}, "unknown split mode 'speaker-independent'"),
    ({"num_blocks": 5}, "a split needs num_blocks >= 1 equal to its 4 blocks, got 5"),
    ({"num_blocks": 0, "blocks": []}, "a split needs num_blocks >= 1 equal to its 0 blocks, got 0"),
    ({"blocks": [["a"], ["b"], [], ["c"]]}, "a split's blocks must each hold at least one"),
    ({"blocks": [["a"], ["b", "c"], ["d"], ["b"]]}, "an utterance is in two blocks of the split"),
], ids=["unknown_mode", "count_not_len", "no_blocks", "empty_block", "id_in_two_blocks"])
def test_block_split_refuses_malformed_fields(fields, message):
    valid = {"mode": "speaker_independent", "seed": 0, "num_blocks": 4,
             "blocks": [["a"], ["b"], ["c"], ["d"]]}
    datasets.BlockSplit(**valid)
    with pytest.raises(UsageError, match="^" + re.escape(message)):
        datasets.BlockSplit(**{**valid, **fields})


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


def test_manifest_of_a_corpus_loaded_by_a_relative_path(tmp_path, monkeypatch):
    _make_grabo_tree(tmp_path / "corpus", n_speakers=2, per_speaker=2)
    monkeypatch.chdir(tmp_path)
    corpus = datasets.load_grabo("corpus")
    datasets.write_manifest(corpus, "out/m.csv")
    loaded = datasets.load_manifest("out/m.csv")
    assert [u.id for u in loaded.utterances] == [u.id for u in corpus.utterances]
    assert all(os.path.samefile(orig.audio_path, back.audio_path)
               for orig, back in zip(corpus.utterances, loaded.utterances))
    assert datasets.ensure_features(loaded)["computed"] == len(corpus)


def test_manifest_missing_file():
    with pytest.raises(UsageError):
        datasets.load_manifest("/nonexistent/manifest.csv")


def test_manifest_bad_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("id,wav,who,tags\nx,y,z,w\n")
    with pytest.raises(DataError):
        datasets.load_manifest(str(path))


def test_manifest_row_without_four_fields(tmp_path):
    path = tmp_path / "short.csv"
    path.write_text("id,audio,speaker,labels\nu0,a.wav,s,x\nu1,b.wav,s\n")
    with pytest.raises(DataError, match="short.csv:3: expected 4 fields, got 3"):
        datasets.load_manifest(str(path))


@pytest.mark.parametrize("labels", ["", ";;"], ids=["empty", "only_separators"])
def test_manifest_row_without_labels(tmp_path, labels):
    path = tmp_path / "bare.csv"
    path.write_text(f"id,audio,speaker,labels\nu0,a.wav,s,x\nu1,b.wav,s,{labels}\n")
    with pytest.raises(DataError, match="bare.csv:3: row lists no labels"):
        datasets.load_manifest(str(path))


def test_manifest_duplicate_id_rejected(tmp_path):
    path = tmp_path / "dup.csv"
    path.write_text("id,audio,speaker,labels\nu0,a.wav,s,x\nu1,b.wav,s,x\nu1,c.wav,t,y\n")
    with pytest.raises(DataError, match="duplicate utterance id 'u1'"):
        datasets.load_manifest(str(path))


def test_manifest_row_with_two_values_for_one_slot(tmp_path):
    path = tmp_path / "two.csv"
    path.write_text("id,audio,speaker,labels\nu0,a.wav,s,action:go\n"
                    "u1,b.wav,s,action:go;action:stop;speed:slow\n")
    with pytest.raises(DataError, match=re.escape(
            "utterance 'u1' has values ['go', 'stop'] for one slot 'action'")):
        datasets.load_manifest(str(path))


def _same_corpus(a, b):
    assert a.vocab == b.vocab and a.speakers == b.speakers and a.splits == b.splits
    for x, y in zip(a.utterances, b.utterances, strict=True):
        assert (x.id, x.audio_path, x.speaker_index) == (y.id, y.audio_path, y.speaker_index)
        assert np.array_equal(x.target, y.target)


def test_manifest_with_a_byte_order_mark(tmp_path):
    corpus = _audio_corpus(tmp_path)
    manifest = tmp_path / "corpus.csv"
    datasets.write_manifest(corpus, str(manifest))
    plain = datasets.load_manifest(str(manifest))
    manifest.write_bytes(b"\xef\xbb\xbf" + manifest.read_bytes())
    _same_corpus(datasets.load_manifest(str(manifest)), plain)


def test_ensure_features_from_audio(tmp_path):
    corpus = _audio_corpus(tmp_path)
    counts = datasets.ensure_features(corpus, cache_dir=str(tmp_path / "cache"))
    assert counts["computed"] == len(corpus)
    assert corpus.feat_dim() == 120
    counts2 = datasets.ensure_features(_audio_corpus(tmp_path), cache_dir=str(tmp_path / "cache"))
    assert counts2["cached"] == len(corpus)


def test_ensure_features_needs_features_or_audio():
    vocab = datasets.LabelVocabulary(labels=("a",))
    utt = datasets.Utterance(id="u", target=np.array([1.0]), speaker_index=0)
    corpus = datasets.Corpus(name="x", utterances=[utt], vocab=vocab, speakers=["s"])
    with pytest.raises(DataError, match="u: neither features nor audio available"):
        datasets.ensure_features(corpus)


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


def test_ensure_features_counts_filled_utterances_as_inline(tmp_path, monkeypatch):
    corpus = _audio_corpus(tmp_path)
    datasets.ensure_features(corpus, cache_dir=str(tmp_path / "cache"))

    audio, real_open = {utt.audio_path for utt in corpus.utterances}, builtins.open

    def guarded_open(file, *args, **kwargs):
        assert str(file) not in audio, f"opened {file} again"
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr(builtins, "open", guarded_open)
    counts = datasets.ensure_features(corpus, cache_dir=str(tmp_path / "cache"))
    assert counts == {"computed": 0, "cached": 0, "inline": len(corpus), "failed": 0}


@pytest.mark.parametrize("on_error", ["raise", "skip", "rasie"])
def test_ensure_features_on_error(tmp_path, on_error):
    corpus = _audio_corpus(tmp_path)
    os.unlink(corpus.utterances[1].audio_path)
    if on_error == "raise":
        with pytest.raises(DataError, match="cannot read audio"):
            datasets.ensure_features(corpus, on_error=on_error)
    elif on_error == "skip":
        counts = datasets.ensure_features(corpus, on_error=on_error)
        assert counts == {"computed": len(corpus) - 1, "cached": 0, "inline": 0, "failed": 1}
        assert corpus.utterances[1].features is None
    else:
        with pytest.raises(UsageError, match="on_error must be 'raise' or 'skip', not 'rasie'"):
            datasets.ensure_features(corpus, on_error=on_error)
        assert all(utt.features is None for utt in corpus.utterances)


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


def test_load_grabo_reads_a_speakers_subdirectory(tmp_path):
    root = tmp_path / "grabo"
    _make_grabo_tree(root / "speakers")
    (root / "docs").mkdir()        # a sibling of speakers/, not a speaker
    corpus = datasets.load_grabo(str(root))
    assert corpus.speakers == ["pp01", "pp02", "pp03"]
    assert len(corpus) == 12
    assert corpus.utterances[0].audio_path == str(root / "speakers" / "pp01" / "rec0.wav")


def test_load_grabo_names_nested_recordings_by_their_path(tmp_path):
    root = _make_grabo_tree(tmp_path / "grabo", n_speakers=1, per_speaker=1)
    for session in ("rec1", "rec2"):
        (root / "pp01" / session).mkdir()
        write_wav(root / "pp01" / session / "u0.wav", np.zeros(4000))
        (root / "pp01" / session / "u0.xml").write_text("<frame><action>lift</action></frame>")
    corpus = datasets.load_grabo(str(root))
    assert [u.id for u in corpus.utterances] == ["pp01/rec0", "pp01/rec1/u0", "pp01/rec2/u0"]


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


def test_load_grabo_frame_with_two_values_for_one_slot(tmp_path):
    root = _make_grabo_tree(tmp_path / "grabo")
    (root / "pp02" / "rec1.xml").write_text(
        "<frame><action>drive</action><action>lift</action></frame>")
    with pytest.raises(DataError, match=re.escape(
            "utterance 'pp02/rec1' has values ['drive', 'lift'] for one slot 'action'")):
        datasets.load_grabo(str(root))


@pytest.mark.parametrize("frame, match", [
    ("<frame><action> </action></frame>", "slot 'action' has no value"),
    ("<frame></frame>", "frame annotation defines no slots"),
], ids=["empty_value", "no_slots"])
def test_load_grabo_frame_without_a_value(tmp_path, frame, match):
    root = _make_grabo_tree(tmp_path / "grabo")
    (root / "pp02" / "rec1.xml").write_text(frame)
    with pytest.raises(DataError, match=f"rec1.xml: {match}"):
        datasets.load_grabo(str(root))


def test_load_grabo_without_speakers_or_annotations(tmp_path):
    root = tmp_path / "grabo"
    root.mkdir()
    with pytest.raises(DataError, match="no per-speaker directories found"):
        datasets.load_grabo(str(root))
    (root / "pp01").mkdir()
    write_wav(root / "pp01" / "rec0.wav", np.zeros(4000))
    with pytest.raises(DataError, match="no annotated recordings found"):
        datasets.load_grabo(str(root))


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


def test_load_fluent_with_a_byte_order_mark(tmp_path):
    root = _make_fluent_tree(tmp_path / "fluent")
    tables = [root / "data" / table for table in datasets.FLUENT_TABLES.values()]
    for path in tables:   # without the index column, so "path" comes first
        lines = path.read_text().splitlines(keepends=True)
        path.write_text("".join(line.split(",", 1)[1] for line in lines))
    plain = datasets.load_fluent(str(root))
    for path in tables:
        path.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
    _same_corpus(datasets.load_fluent(str(root)), plain)


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


def test_load_fluent_without_any_audio(tmp_path):
    root = _make_fluent_tree(tmp_path / "fluent")
    for wav in (root / "wavs").rglob("*.wav"):
        wav.unlink()
    with pytest.raises(DataError, match="index tables reference no existing audio"):
        datasets.load_fluent(str(root))


def test_fluent_partial_ids_needs_a_train_split():
    vocab = datasets.LabelVocabulary(labels=("a",))
    utt = datasets.Utterance(id="u", target=np.array([1.0]), speaker_index=0)
    for splits in (None, {"test": ["u"]}):
        corpus = datasets.Corpus(name="x", utterances=[utt], vocab=vocab, speakers=["s"],
                                 splits=splits)
        with pytest.raises(UsageError, match="corpus has no train split"):
            datasets.fluent_partial_ids(corpus)


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


@pytest.mark.parametrize("table, column, value", [
    ("train_data.csv", 4, ""), ("valid_data.csv", 5, "  "), ("test_data.csv", 2, ""),
    ("test_data.csv", 1, " "), ("train_partial_data.csv", 1, ""),
], ids=["empty_action", "blank_object", "empty_speaker", "blank_path", "empty_partial_path"])
def test_fluent_table_empty_required_cell(tmp_path, table, column, value):
    root = _make_fluent_tree(tmp_path / "fluent")
    if table == "train_partial_data.csv":
        _write_partial(root, datasets.load_fluent(str(root)).splits["train"][:2])
    path = root / "data" / table
    lines = path.read_text().splitlines()
    cells = lines[2].split(",")
    cells[column] = value
    lines[2] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")
    name = lines[0].split(",")[column]
    with pytest.raises(DataError, match=f"{table}:3: empty value in columns \\['{name}'\\]"):
        datasets.load_fluent(str(root))


def test_corpus_validate_catches_bad_speaker():
    vocab = datasets.LabelVocabulary(labels=("a",))
    utts = [datasets.Utterance(id="u", target=np.array([1.0]), speaker_index=5)]
    with pytest.raises(DataError):
        datasets.Corpus(name="x", utterances=utts, vocab=vocab, speakers=["s"])


@pytest.mark.parametrize("target, speakers, match", [
    ([1.0], [], "corpus needs at least one speaker"),
    ([1.0, 0.0], ["s"], r"u: target length \(2,\) != 1"),
    ([0.0], ["s"], "u: no active label"),
], ids=["no_speakers", "target_length", "no_active_label"])
def test_corpus_is_checked_when_built(target, speakers, match):
    vocab = datasets.LabelVocabulary(labels=("a",))
    utts = [datasets.Utterance(id="u", target=np.array(target), speaker_index=0)]
    with pytest.raises(DataError, match=match):
        datasets.Corpus(name="x", utterances=utts, vocab=vocab, speakers=speakers)


@pytest.mark.parametrize("faults, match", [
    ({0: dict(speaker_index=3), 2: dict(target=[0.0, 0.0])}, "u2: no active label"),
    ({0: dict(target=[1.0]), 1: dict(id="u3")}, "duplicate utterance id 'u3'"),
    ({1: dict(speaker_index=-1), 3: dict(target=[1.0, 0.0, 0.0])},
     r"u3: target length \(3,\) != 2"),
    ({1: dict(speaker_index=-1), 2: dict(speaker_index=2)}, "u1: speaker index -1 out of range"),
], ids=["target_before_speaker", "id_before_length", "length_before_speaker", "first_speaker"])
def test_corpus_reports_the_first_offender_of_the_first_failing_check(faults, match):
    # the checks run over the whole corpus in turn: ids, target lengths,
    # active labels, then speakers
    vocab = datasets.LabelVocabulary(labels=("a", "b"))
    fields = [dict(id=f"u{i}", target=[1.0, 0.0], speaker_index=i % 2) for i in range(4)]
    for i, fault in faults.items():
        fields[i].update(fault)
    utts = [datasets.Utterance(id=f["id"], target=np.array(f["target"]),
                               speaker_index=f["speaker_index"]) for f in fields]
    with pytest.raises(DataError, match=match):
        datasets.Corpus(name="x", utterances=utts, vocab=vocab, speakers=["s", "t"])


def test_feat_dim_needs_features():
    vocab = datasets.LabelVocabulary(labels=("a",))
    utt = datasets.Utterance(id="u", target=np.array([1.0]), speaker_index=0)
    for utts in ([], [utt]):
        corpus = datasets.Corpus(name="x", utterances=utts, vocab=vocab, speakers=["s"])
        with pytest.raises(UsageError, match="no materialized features"):
            corpus.feat_dim()
