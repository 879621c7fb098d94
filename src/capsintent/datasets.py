"""Corpora: label vocabularies with slot structure, dataset loaders for the
two supported directory layouts, an offline synthetic corpus generator, a
manifest interchange format, and cross-validation block splitting.

Label naming convention: a label ``"<slot>:<value>"`` belongs to slot group
``<slot>``; a group is required when it appears in every utterance. Bare
label names (no colon) are ungrouped booleans.
"""

from __future__ import annotations

import csv
import io
import math
import os
import xml.etree.ElementTree as ET
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Optional

import numpy as np

from .capsnet import INT64_MAX, MAX_ARRAY_VALUES
from .errors import DataError, ShapeError, UsageError
from .features import atomic_write, audio_features

EXPECTED_FLUENT_LABELS = 31
FLUENT_PARTIAL_FRACTION = 0.1   # share of each speaker's training utterances
FLUENT_PARTIAL_SEED = 0

# synthetic-corpus constants
SEGMENT_FRAMES = 8
SEGMENT_TEXTURE = 0.3     # per-frame variation around each label's base vector
RATE_RANGE = (0.95, 1.05)
SPEAKER_OFFSET_SCALE = 0.5
OPTIONAL_GROUP_PRESENCE = 0.75
UNGROUPED_PRESENCE = 0.3


@dataclass(frozen=True)
class SlotGroup:
    name: str
    labels: tuple[str, ...]
    required: bool


@dataclass
class LabelVocabulary:
    """Label names and slot groups, checked when built. ``grouped`` is the
    set of indices of the labels in a group, ``ungrouped`` lists the other
    indices in order, and ``slots`` holds each group's label indices,
    sorted, with its ``required`` flag."""

    labels: tuple[str, ...]
    slot_groups: tuple[SlotGroup, ...] = ()

    def __post_init__(self):
        if len(set(self.labels)) != len(self.labels):
            raise DataError("duplicate label names in vocabulary")
        self._index = {name: i for i, name in enumerate(self.labels)}
        self.grouped: set[int] = set()
        self.slots: list[tuple[list[int], bool]] = []
        for group in self.slot_groups:
            for name in group.labels:
                if name not in self._index:
                    raise DataError(f"slot group {group.name!r} references unknown label {name!r}")
                if self._index[name] in self.grouped:
                    raise DataError(f"label {name!r} appears in more than one slot group")
                self.grouped.add(self._index[name])
            self.slots.append((sorted(self._index[name] for name in group.labels), group.required))
        self.ungrouped = [i for i in range(len(self.labels)) if i not in self.grouped]

    def __len__(self) -> int:
        return len(self.labels)

    def index_of(self, name: str) -> int:
        if name not in self._index:
            raise DataError(f"unknown label {name!r}")
        return self._index[name]

    def to_multi_hot(self, names: Iterable[str]) -> np.ndarray:
        target = np.zeros(len(self.labels))
        for name in names:
            target[self.index_of(name)] = 1.0
        if not target.any():
            raise DataError("an utterance needs at least one active label")
        return target

    def names_of(self, target: np.ndarray) -> list[str]:
        return [self.labels[i] for i in np.flatnonzero(np.asarray(target) > 0)]


def vocabulary_from_labels(per_utterance_labels: list[list[str]]) -> LabelVocabulary:
    """Build a slotted vocabulary from ``slot:value`` label name lists."""
    all_labels = sorted({name for labels in per_utterance_labels for name in labels})
    slots: dict[str, list[str]] = {}
    for name in all_labels:
        if ":" in name:
            slots.setdefault(name.split(":", 1)[0], []).append(name)
    groups = []
    for slot in sorted(slots):
        present_everywhere = all(
            any(name.startswith(slot + ":") for name in labels)
            for labels in per_utterance_labels
        )
        groups.append(SlotGroup(name=slot, labels=tuple(slots[slot]), required=present_everywhere))
    return LabelVocabulary(labels=tuple(all_labels), slot_groups=tuple(groups))


@dataclass
class Utterance:
    id: str
    target: np.ndarray                   # multi-hot over the vocabulary
    speaker_index: int
    features: Optional[np.ndarray] = None
    audio_path: Optional[str] = None


@dataclass
class Corpus:
    """Utterances with their vocabulary and speaker roster, checked (unique
    ids, non-empty targets over the vocabulary, speakers in the roster, else
    DataError) and indexed by id when built. Each check runs over the whole
    corpus in that order and names its first offending utterance, so a
    corpus with several faults reports the first fault of the first check
    that fails."""

    name: str
    utterances: list[Utterance]
    vocab: LabelVocabulary
    speakers: list[str]
    warnings: dict[str, int] = field(default_factory=dict)   # loader skip/doubt counts
    splits: Optional[dict[str, list[str]]] = None

    def __len__(self) -> int:
        return len(self.utterances)

    def by_id(self, utt_id: str) -> Utterance:
        return self._by_id[utt_id]

    def subset(self, ids: Iterable[str]) -> list[Utterance]:
        return [self._by_id[i] for i in ids]

    def feat_dim(self) -> int:
        feats = self.utterances[0].features if self.utterances else None
        if feats is None:
            raise UsageError("corpus has no materialized features yet")
        return feats.shape[1]

    def __post_init__(self):
        K, M = len(self.vocab), len(self.speakers)
        if M < 1:
            raise DataError("corpus needs at least one speaker")
        utts = self.utterances
        self._by_id: dict[str, Utterance] = {utt.id: utt for utt in utts}
        if len(self._by_id) < len(utts):
            seen: set[str] = set()
            for utt in utts:
                if utt.id in seen:
                    raise DataError(f"duplicate utterance id {utt.id!r}")
                seen.add(utt.id)
        for utt in utts:
            if utt.target.shape != (K,):
                raise DataError(f"{utt.id}: target length {utt.target.shape} != {K}")
        empty = ~np.array([utt.target for utt in utts]).reshape(len(utts), K).any(axis=1)
        if empty.any():
            raise DataError(f"{utts[empty.argmax()].id}: no active label")
        speakers = np.fromiter((utt.speaker_index for utt in utts), np.float64, len(utts))
        outside = ~((speakers >= 0) & (speakers < M))
        if outside.any():
            utt = utts[outside.argmax()]
            raise DataError(f"{utt.id}: speaker index {utt.speaker_index} out of range")


def ensure_features(corpus: Corpus, cache_dir: Optional[str] = None,
                    on_error: str = "raise") -> dict[str, int]:
    """Fill in missing features from the cache or the audio; returns the
    computed/cached/inline/failed counts. With ``on_error="skip"`` an
    utterance whose audio fails keeps ``features=None``, counted as failed."""
    if on_error not in ("raise", "skip"):
        raise UsageError(f"on_error must be 'raise' or 'skip', not {on_error!r}")
    counts = {"computed": 0, "cached": 0, "inline": 0, "failed": 0}
    for utt in corpus.utterances:
        if utt.features is not None:
            counts["inline"] += 1
            continue
        if utt.audio_path is None:
            raise DataError(f"{utt.id}: neither features nor audio available")
        try:
            feats, was_cached = audio_features(utt.audio_path, cache_dir)
        except DataError:
            if on_error == "raise":
                raise
            counts["failed"] += 1
            continue
        utt.features = feats
        counts["cached" if was_cached else "computed"] += 1
    return counts


# ---------------------------------------------------------------------------
# synthetic corpus


@dataclass(frozen=True)
class SynthGroup:
    name: str
    size: int
    required: bool = True


@dataclass(frozen=True)
class SynthSpec:
    speaker_count: int
    num_labels: int
    groups: tuple[SynthGroup, ...]
    per_speaker_count: int
    feat_dim: int
    noise_level: float

    def __post_init__(self):
        counts = (self.speaker_count, self.num_labels, self.per_speaker_count, self.feat_dim)
        if min(counts) < 1:
            raise UsageError("synthetic spec counts must all be >= 1")
        if max(counts) > INT64_MAX:   # NumPy computes sizes in int64
            raise ShapeError(f"synthetic spec counts must all be <= {INT64_MAX}, got {max(counts)}")
        # synth_generate's largest arrays: the targets, the speaker offsets and
        # one speaker's frames at the longest utterance (every label spoken)
        frames = math.ceil(RATE_RANGE[1] * self.num_labels * SEGMENT_FRAMES)
        largest = max(self.speaker_count * self.per_speaker_count * self.num_labels,
                      self.speaker_count * self.feat_dim,
                      self.per_speaker_count * frames * self.feat_dim)
        if largest > MAX_ARRAY_VALUES:
            raise ShapeError(f"synthetic spec needs an array of {largest} values, more than "
                             f"NumPy's {MAX_ARRAY_VALUES}")
        for group in self.groups:
            if group.size < 1:
                raise UsageError(f"slot group {group.name!r} has size {group.size}, must be >= 1")
        if not (math.isfinite(self.noise_level) and self.noise_level >= 0):
            raise UsageError(f"noise_level must be finite and >= 0, got {self.noise_level}")
        if sum(g.size for g in self.groups) > self.num_labels:
            raise UsageError("slot groups cannot exceed the label count")


def mimic_grabo_spec(per_speaker_count: int = 364, noise_level: float = 0.3,
                     feat_dim: int = 16) -> SynthSpec:
    """11 speakers, 33 labels over one required and three optional slots."""
    return SynthSpec(
        speaker_count=11,
        num_labels=33,
        groups=(
            SynthGroup("action", 9, required=True),
            SynthGroup("position", 8, required=False),
            SynthGroup("speed", 8, required=False),
            SynthGroup("direction", 8, required=False),
        ),
        per_speaker_count=per_speaker_count,
        feat_dim=feat_dim,
        noise_level=noise_level,
    )


def _synth_vocab(spec: SynthSpec) -> LabelVocabulary:
    labels: list[str] = []
    groups: list[SlotGroup] = []
    for group in spec.groups:
        names = tuple(f"{group.name}:{group.name}{i}" for i in range(group.size))
        labels.extend(names)
        groups.append(SlotGroup(name=group.name, labels=names, required=group.required))
    for i in range(spec.num_labels - len(labels)):
        labels.append(f"tag{i}")
    return LabelVocabulary(labels=tuple(labels), slot_groups=tuple(groups))


@dataclass
class SynthTruth:
    """Generator internals, recomputable from (spec, seed) for test oracles."""

    prototypes: np.ndarray        # (K, SEGMENT_FRAMES, feat_dim)
    speaker_offsets: np.ndarray   # (M, feat_dim)
    speaker_rates: np.ndarray     # (M,)


def synth_truth(spec: SynthSpec, seed: int) -> SynthTruth:
    proto_rng = np.random.default_rng(np.random.SeedSequence([seed, 0]))
    spk_rng = np.random.default_rng(np.random.SeedSequence([seed, 1]))
    # quasi-stationary segments: a constant per-label base with light
    # per-frame texture, like short phone-sized stretches of speech
    bases = proto_rng.normal(size=(spec.num_labels, 1, spec.feat_dim))
    texture = proto_rng.normal(0.0, SEGMENT_TEXTURE,
                               size=(spec.num_labels, SEGMENT_FRAMES, spec.feat_dim))
    return SynthTruth(
        prototypes=bases + texture,
        speaker_offsets=spk_rng.normal(0.0, SPEAKER_OFFSET_SCALE,
                                       size=(spec.speaker_count, spec.feat_dim)),
        speaker_rates=spk_rng.uniform(*RATE_RANGE, size=spec.speaker_count),
    )


def _resample_weights(n_in: int, n_out: int):
    """Linear time-warp from ``n_in`` to ``n_out`` frames: output frame ``j``
    is ``frames[lo[j]] * w_lo[j] + frames[hi[j]] * w_hi[j]``."""
    pos = np.linspace(0.0, n_in - 1.0, n_out)
    lo = np.floor(pos).astype(int)
    hi = np.minimum(lo + 1, n_in - 1)
    frac = (pos - lo)[:, None]
    return lo, hi, 1.0 - frac, frac


def synth_generate(spec: SynthSpec, seed: int) -> Corpus:
    """Deterministic synthetic corpus.

    Every label owns a prototype feature segment; an utterance concatenates
    the segments of its active labels (in a random order), applies its
    speaker's speaking-rate time warp and additive offset, and adds Gaussian
    noise.

    Draw-order contract (a corpus is a function of ``(spec, seed)``, pinned
    byte for byte by the test suite's per-utterance reference generator):
    utterances run speaker by speaker, and per utterance the sample stream
    gives, in this order, for each slot group a ``random()`` unless it is
    required and, if the group is present, an ``integers(group size)``
    pick; one ``random()`` per ungrouped label; an ``integers(num_labels)``
    fallback label only when nothing was drawn; a ``permutation`` of the
    sorted active labels, the order they are spoken in; and, when
    ``noise_level > 0``, the noise as ``standard_normal((frames, feat_dim))``
    scaled by ``noise_level``.

    Every draw is made first; the arithmetic then runs once per (label
    count, speaker), whose utterances share their frame counts, and writes
    each utterance's features into its own noise array (without noise they
    are rows of their batch's array).
    """
    vocab = _synth_vocab(spec)
    truth = synth_truth(spec, seed)
    sample_rng = np.random.default_rng(np.random.SeedSequence([seed, 2]))
    ungrouped = np.array(vocab.ungrouped, dtype=int)
    noisy = spec.noise_level > 0
    targets = np.zeros((spec.speaker_count * spec.per_speaker_count, len(vocab)))
    utterances: list[Utterance] = []
    noise: list[np.ndarray] = []
    # (label count, speaker) -> (output frames, utterance rows, spoken labels end to end)
    batches: dict[tuple[int, int], tuple[int, list[int], list[int]]] = {}
    for s in range(spec.speaker_count):
        for u in range(spec.per_speaker_count):
            active: list[int] = []
            for labels, required in vocab.slots:
                if required or sample_rng.random() < OPTIONAL_GROUP_PRESENCE:
                    active.append(labels[sample_rng.integers(len(labels))])
            if len(ungrouped):
                active.extend(ungrouped[sample_rng.random(len(ungrouped)) < UNGROUPED_PRESENCE])
            if not active:
                active.append(int(sample_rng.integers(len(vocab))))
            active.sort()
            order = sample_rng.permutation(len(active))  # slots speak in any order
            key = (len(active), s)
            if key not in batches:
                n_in = len(active) * SEGMENT_FRAMES
                batches[key] = max(int(round(truth.speaker_rates[s] * n_in)), 1), [], []
            n_out, rows, spoken = batches[key]
            if noisy:
                noise.append(sample_rng.standard_normal((n_out, spec.feat_dim)))
            rows.append(len(utterances))
            spoken.extend([active[i] for i in order])
            utterances.append(Utterance(id=f"synth-s{s:02d}-u{u:04d}",
                                        target=targets[len(utterances)], speaker_index=s))

    flat_prototypes = truth.prototypes.reshape(-1, spec.feat_dim)
    weights = {}
    for (n_labels, s), (n_out, rows, spoken) in batches.items():
        spoken = np.array(spoken)
        targets[np.repeat(rows, n_labels), spoken] = 1.0
        # the prototype row behind every input frame of every utterance
        n_in = n_labels * SEGMENT_FRAMES
        src = np.add.outer(spoken * SEGMENT_FRAMES, np.arange(SEGMENT_FRAMES)).reshape(-1, n_in)
        if n_out == n_in:
            base = flat_prototypes[src]
        else:
            if (n_in, n_out) not in weights:
                weights[n_in, n_out] = _resample_weights(n_in, n_out)
            lo, hi, w_lo, w_hi = weights[n_in, n_out]
            base = flat_prototypes[src[:, lo]]
            base *= w_lo
            upper = flat_prototypes[src[:, hi]]
            upper *= w_hi
            base += upper
            del upper
        base += truth.speaker_offsets[s]
        for row, frames in zip(rows, base):
            if noisy:
                feats = noise[row]
                feats *= spec.noise_level
                feats += frames
                frames = feats
            utterances[row].features = frames
        del base, frames   # at most one batch's frames live beside the corpus
    return Corpus(
        name="synth",
        utterances=utterances,
        vocab=vocab,
        speakers=[f"spk{s:02d}" for s in range(spec.speaker_count)],
    )


# ---------------------------------------------------------------------------
# manifest interchange format

MANIFEST_HEADER = ["id", "audio", "speaker", "labels"]


def write_manifest(corpus: Corpus, path: str) -> None:
    """One CSV row per utterance: id, audio path, speaker, ';'-joined labels;
    written atomically, so a corpus that cannot be written leaves ``path`` as it was.
    A relative audio path is written relative to the manifest's directory,
    which ``load_manifest`` resolves it against."""
    text = io.StringIO()
    writer = csv.writer(text)
    writer.writerow(MANIFEST_HEADER)
    for utt in corpus.utterances:
        if utt.audio_path is None:
            raise UsageError(f"{utt.id}: manifests need audio-backed utterances")
        audio = utt.audio_path
        if not os.path.isabs(audio):
            audio = os.path.relpath(audio, os.path.dirname(path))
        writer.writerow([utt.id, audio, corpus.speakers[utt.speaker_index],
                         ";".join(corpus.vocab.names_of(utt.target))])
    atomic_write(path, lambda fh: fh.write(text.getvalue().encode()))


def _corpus_from_rows(name: str, rows: list[tuple], speakers: Optional[list[str]] = None,
                      warnings: Optional[dict[str, int]] = None,
                      splits: Optional[dict[str, list[str]]] = None) -> Corpus:
    """A validated corpus from ``(id, audio path, speaker, label names)``
    rows; ``speakers`` defaults to the sorted speakers of the rows. A row
    with two values for one slot is a DataError: decoding gives one per slot."""
    for utt_id, _, _, labels in rows:
        values: dict[str, list[str]] = {}
        for slot, value in sorted(name.split(":", 1) for name in set(labels) if ":" in name):
            values.setdefault(slot, []).append(value)
        for slot, given in values.items():
            if len(given) > 1:
                raise DataError(f"utterance {utt_id!r} has values {given} for one slot {slot!r}")
    vocab = vocabulary_from_labels([labels for *_, labels in rows])
    if speakers is None:
        speakers = sorted({speaker for _, _, speaker, _ in rows})
    spk_index = {s: i for i, s in enumerate(speakers)}
    utterances = [
        Utterance(id=utt_id, target=vocab.to_multi_hot(labels),
                  speaker_index=spk_index[speaker], audio_path=audio)
        for utt_id, audio, speaker, labels in rows
    ]
    return Corpus(name=name, utterances=utterances, vocab=vocab, speakers=speakers,
                  warnings=warnings or {}, splits=splits)


def read_utf8(path, error=DataError) -> str:
    """The text of the file ``path``, decoded as UTF-8 whatever the locale;
    bytes that are not UTF-8 raise ``error`` naming the file and line."""
    raw = Path(path).read_bytes()
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = raw.count(b"\n", 0, exc.start) + 1
        raise error(f"{path}:{line}: not UTF-8 text") from exc
    return text.removeprefix("\ufeff")   # a byte-order mark is not text


def load_manifest(path: str) -> Corpus:
    path = Path(path)
    if not path.is_file():
        raise UsageError(f"manifest {path} does not exist")
    rows = []
    reader = csv.reader(io.StringIO(read_utf8(path), newline=""))
    try:
        header = next(reader, None)
        if header != MANIFEST_HEADER:
            raise DataError(f"{path}: expected header {MANIFEST_HEADER}, got {header}")
        for lineno, row in enumerate(reader, start=2):
            if len(row) != 4:
                raise DataError(f"{path}:{lineno}: expected 4 fields, got {len(row)}")
            utt_id, audio, speaker, labels = row
            if "\0" in audio:
                raise DataError(f"{path}:{lineno}: audio path holds a NUL character")
            audio = str(audio if os.path.isabs(audio) else path.parent / audio)
            labels = [x for x in labels.split(";") if x]
            if not labels:
                raise DataError(f"{path}:{lineno}: row lists no labels")
            rows.append((utt_id, audio, speaker, labels))
    except csv.Error as exc:
        raise DataError(f"{path}:{reader.line_num}: unreadable CSV row ({exc})") from exc
    if not rows:
        raise UsageError(f"manifest {path} lists no utterances")
    return _corpus_from_rows(path.stem, rows)


# ---------------------------------------------------------------------------
# directory loaders


def _parse_frame_xml(path: Path) -> list[str]:
    try:
        root = ET.parse(path).getroot()
    except ET.ParseError as exc:
        raise DataError(f"{path}: malformed frame annotation ({exc})") from exc
    labels = []
    for child in root:
        value = (child.text or "").strip()
        if not value:
            raise DataError(f"{path}: slot {child.tag!r} has no value")
        labels.append(f"{child.tag}:{value}")
    if not labels:
        raise DataError(f"{path}: frame annotation defines no slots")
    return labels


def load_grabo(root: str) -> Corpus:
    """Per-speaker directories of WAV recordings with per-utterance XML
    semantic frames (same stem, ``.xml`` extension), searched recursively.
    A recording's id is ``<speaker>/<path under the speaker directory,
    without suffix>``. Speakers are indexed by lexicographic directory
    order; recordings lacking an annotation are skipped and counted."""
    base = Path(root)
    if not base.is_dir():
        raise UsageError(f"corpus root {root} does not exist")
    if (base / "speakers").is_dir():
        base = base / "speakers"
    speaker_dirs = sorted(d for d in base.iterdir() if d.is_dir())
    if not speaker_dirs:
        raise DataError(f"{root}: no per-speaker directories found")
    rows = []
    warnings = {"missing_annotation": 0}
    for spk_dir in speaker_dirs:
        for wav in sorted(spk_dir.rglob("*.wav")):
            ann = wav.with_suffix(".xml")
            if not ann.is_file():
                warnings["missing_annotation"] += 1
                continue
            labels = _parse_frame_xml(ann)
            name = wav.relative_to(spk_dir).with_suffix("").as_posix()
            rows.append((f"{spk_dir.name}/{name}", str(wav), spk_dir.name, labels))
    if not rows:
        raise DataError(f"{root}: no annotated recordings found")
    return _corpus_from_rows("grabo", rows, speakers=[d.name for d in speaker_dirs],
                             warnings=warnings)


FLUENT_TABLES = {"train": "train_data.csv", "valid": "valid_data.csv", "test": "test_data.csv"}
FLUENT_SLOTS = ("action", "object", "location")


def _fluent_records(path: Path, columns: tuple[str, ...]) -> list[dict]:
    """The rows of one index table, each with a non-blank value in every one
    of ``columns``."""
    reader = csv.DictReader(io.StringIO(read_utf8(path), newline=""))
    try:
        missing = [c for c in columns if c not in (reader.fieldnames or ())]
        if missing:
            raise DataError(f"{path.name}: missing columns {missing}")
        records = list(reader)
    except csv.Error as exc:
        raise DataError(f"{path.name}: unreadable CSV ({exc})") from exc
    for lineno, rec in enumerate(records, start=2):
        if any(rec[c] is None for c in columns):
            raise DataError(f"{path.name}:{lineno}: row has fewer fields than the header")
        blank = [c for c in columns if not rec[c].strip()]
        if blank:
            raise DataError(f"{path.name}:{lineno}: empty value in columns {blank}")
    return records


def load_fluent(root: str) -> Corpus:
    """Smart-home command corpus layout: ``data/{train,valid,test}_data.csv``
    index tables with action/object/location columns and audio paths relative
    to the root. The three slots become three required label groups. An
    optional ``data/train_partial_data.csv`` names the reduced training
    split by path; each must be in the train split. Rows whose audio is
    missing are skipped and counted, in every table."""
    base = Path(root)
    data_dir = base / "data"
    if not base.is_dir():
        raise UsageError(f"corpus root {root} does not exist")
    for table in FLUENT_TABLES.values():
        if not (data_dir / table).is_file():
            raise DataError(f"{root}: missing index table data/{table}")
    rows = []
    splits: dict[str, list[str]] = {}
    warnings = {"missing_audio": 0}
    for split, table in FLUENT_TABLES.items():
        ids: list[str] = []
        for rec in _fluent_records(data_dir / table, ("path", "speakerId", *FLUENT_SLOTS)):
            wav = base / rec["path"]
            if not wav.is_file():
                warnings["missing_audio"] += 1
                continue
            labels = [f"{slot}:{rec[slot].strip()}" for slot in FLUENT_SLOTS]
            utt_id = rec["path"]
            rows.append((utt_id, str(wav), rec["speakerId"], labels))
            ids.append(utt_id)
        splits[split] = ids
    partial = data_dir / "train_partial_data.csv"
    if partial.is_file():
        train = set(splits["train"])
        splits["train_partial"] = []
        for rec in _fluent_records(partial, ("path",)):
            if not (base / rec["path"]).is_file():
                warnings["missing_audio"] += 1
            elif rec["path"] not in train:
                raise DataError(f"{partial.name}: {rec['path']} is not in the train split")
            else:
                splits["train_partial"].append(rec["path"])
    if not rows:
        raise DataError(f"{root}: index tables reference no existing audio")
    corpus = _corpus_from_rows("fluent", rows, warnings=warnings, splits=splits)
    if len(corpus.vocab) != EXPECTED_FLUENT_LABELS:
        corpus.warnings["unexpected_label_count"] = len(corpus.vocab)
    return corpus


def fluent_partial_ids(corpus: Corpus) -> list[str]:
    """The reduced training split: the published table when present,
    otherwise a pinned speaker-stratified subsample (``FLUENT_PARTIAL_FRACTION``
    of each speaker) of the training split."""
    if corpus.splits is None or "train" not in corpus.splits:
        raise UsageError("corpus has no train split")
    if "train_partial" in corpus.splits:
        return list(corpus.splits["train_partial"])
    rng = np.random.default_rng(FLUENT_PARTIAL_SEED)
    by_speaker: dict[int, list[str]] = {}
    for utt_id in corpus.splits["train"]:
        by_speaker.setdefault(corpus.by_id(utt_id).speaker_index, []).append(utt_id)
    chosen: list[str] = []
    for spk in sorted(by_speaker):
        ids = by_speaker[spk]
        take = max(1, int(round(FLUENT_PARTIAL_FRACTION * len(ids))))
        picks = rng.choice(len(ids), size=take, replace=False)
        chosen.extend(ids[i] for i in sorted(picks))
    return chosen


# ---------------------------------------------------------------------------
# cross-validation blocks

# the modes ``split_blocks`` takes and an experiment config's ``mode`` names
SPLIT_MODES = ("speaker_independent", "speaker_dependent")


@dataclass
class BlockSplit:
    """``num_blocks`` disjoint, non-empty blocks of utterance ids, dealt by
    ``split_blocks`` from ``seed``. In ``speaker_dependent`` mode block b is
    every speaker's own block b, concatenated in roster order, so one
    speaker's blocks are the list filtered to that speaker. Built by hand,
    it is checked: a mode outside SPLIT_MODES, a block count below 1 or
    other than ``len(blocks)``, an empty block or an id in two blocks is a
    UsageError."""

    mode: str                        # one of SPLIT_MODES
    seed: int
    num_blocks: int
    blocks: list[list[str]]

    def __post_init__(self):
        if self.mode not in SPLIT_MODES:
            raise UsageError(f"unknown split mode {self.mode!r}")
        if self.num_blocks < 1 or self.num_blocks != len(self.blocks):
            raise UsageError(f"a split needs num_blocks >= 1 equal to its {len(self.blocks)} "
                             f"blocks, got {self.num_blocks}")
        if not all(self.blocks):
            raise UsageError("a split's blocks must each hold at least one utterance")
        ids = [i for block in self.blocks for i in block]
        if len(set(ids)) != len(ids):
            raise UsageError("an utterance is in two blocks of the split")


def split_blocks(corpus: Corpus, num_blocks: int, mode: str, seed: int) -> BlockSplit:
    """Shuffle-then-round-robin partition into ``num_blocks`` blocks.

    One routine checks that a list holds ``num_blocks`` ids (UsageError "<who>
    has <n> utterances < <num_blocks> blocks"), permutes it with the one RNG
    and deals it: once for the corpus, or per speaker in roster order, block
    b then joining every speaker's block b in that order. A mode outside
    SPLIT_MODES is refused before any dealing; a ``num_blocks`` below 1 is
    refused by ``BlockSplit``.
    """
    if mode not in SPLIT_MODES:
        raise UsageError(f"unknown split mode {mode!r}")
    rng = np.random.default_rng(seed)

    def blocks(ids: list[str], who: str) -> list[list[str]]:
        if num_blocks > len(ids):
            raise UsageError(f"{who} has {len(ids)} utterances < {num_blocks} blocks")
        shuffled = [ids[i] for i in rng.permutation(len(ids))]
        return [shuffled[b::num_blocks] for b in range(num_blocks)]

    if mode == "speaker_independent":
        dealt = [blocks([u.id for u in corpus.utterances], f"corpus {corpus.name}")]
    else:
        dealt = [blocks([u.id for u in corpus.utterances if u.speaker_index == spk],
                        f"speaker {name}") for spk, name in enumerate(corpus.speakers)]
    return BlockSplit(mode=mode, seed=seed, num_blocks=num_blocks,
                      blocks=[[i for own in dealt for i in own[b]] for b in range(num_blocks)])
