"""Self-describing model checkpoints.

A checkpoint is a single ``.npz`` file with a versioned JSON header under the
``__meta__`` key (format version, full model config including its seed, and
optionally the label vocabulary and speaker roster) plus one array entry per
parameter path prefixed with ``param/``. Writes are atomic
(``features.atomic_write``). Loading validates the header's config, the
vocabulary and roster, every parameter's name and shape against that config
and its values (finite float64), so a bad file fails when it is read, not at
first use. Only ``FORMAT_VERSION`` loads: a change of layout bumps it, and a
file of any other version is refused.
"""

from __future__ import annotations

import dataclasses
import json
import zipfile
from typing import Optional, Sequence

import numpy as np

from .capsnet import ModelConfig
from .datasets import LabelVocabulary, SlotGroup
from .errors import DataError, FormatError, ShapeError, UsageError
from .features import atomic_write
from .model import param_shapes
from .numeric import Params

FORMAT_VERSION = 3


def save_checkpoint(path: str, config: ModelConfig, params: Params,
                    vocab_payload: Optional[dict] = None) -> None:
    meta = {
        "format": "capsintent-checkpoint",
        "version": FORMAT_VERSION,
        "config": dataclasses.asdict(config),
    }
    if vocab_payload is not None:
        meta["vocab"] = vocab_payload
    arrays = {f"param/{name}": value for name, value in params.items()}
    arrays["__meta__"] = np.frombuffer(json.dumps(meta, sort_keys=True).encode(), dtype=np.uint8)
    atomic_write(path, lambda fh: np.savez(fh, **arrays))


def load_checkpoint(path: str):
    """Returns (config, params, (vocab, speakers) or None): the header's
    vocabulary payload decoded, which must hold the config's num_labels
    labels and speaker_count speakers."""
    try:
        with open(path, "rb") as fh:   # np.load reads anything else as .npy or pickle
            if not zipfile.is_zipfile(fh):
                raise FormatError(f"{path} is not a capsintent checkpoint (not an .npz archive)")
        with np.load(path) as data:
            if "__meta__" not in data:
                raise FormatError(f"{path} is not a capsintent checkpoint (missing header)")
            meta = json.loads(bytes(data["__meta__"]).decode())
            if not isinstance(meta, dict):
                raise FormatError(f"{path} is not a capsintent checkpoint "
                                  "(header is not a JSON object)")
            if meta.get("format") != "capsintent-checkpoint":
                raise FormatError(f"{path} has unknown checkpoint format {meta.get('format')!r}")
            version = meta.get("version")
            if type(version) is not int or version != FORMAT_VERSION:
                raise FormatError(f"{path}: unsupported checkpoint version {version!r}")
            params = {
                key[len("param/"):]: np.array(data[key])
                for key in data.files if key.startswith("param/")
            }
        config = _config_from(meta.get("config"), path)
        # a config larger than the file fails here, before it allocates
        expected = param_shapes(config, max_values=sum(v.size for v in params.values()))
    except (OSError, ValueError, MemoryError, ShapeError, zipfile.BadZipFile) as exc:
        raise FormatError(f"cannot read checkpoint {path}: {exc}") from exc
    if set(params) != set(expected):
        raise FormatError(f"{path}: parameters missing {sorted(set(expected) - set(params))}, "
                          f"unexpected {sorted(set(params) - set(expected))}")
    for name, shape in expected.items():
        value = params[name]
        if value.shape != shape:
            raise FormatError(f"{path}: parameter {name} has shape {value.shape}, "
                              f"the config needs {shape}")
        if value.dtype != np.float64:
            raise FormatError(f"{path}: parameter {name} has dtype {value.dtype}, not float64")
        if not np.isfinite(value).all():
            raise FormatError(f"{path}: parameter {name} holds non-finite values")
    payload = meta.get("vocab")
    if payload is None:
        return config, params, None
    try:
        vocab, speakers = vocab_from_payload(payload)
    except FormatError as exc:
        raise FormatError(f"{path}: {exc}") from exc
    if (len(vocab), len(speakers)) != (config.num_labels, config.speaker_count):
        raise FormatError(f"{path}: vocabulary has {len(vocab)} labels and "
                          f"{len(speakers)} speakers, the config needs "
                          f"{config.num_labels} and {config.speaker_count}")
    return config, params, (vocab, speakers)


def vocab_payload(vocab: LabelVocabulary, speakers: Sequence[str]) -> dict:
    """The checkpoint header's encoding of a vocabulary and speaker roster."""
    return {
        "labels": list(vocab.labels),
        "slot_groups": [
            {"name": g.name, "labels": list(g.labels), "required": g.required}
            for g in vocab.slot_groups
        ],
        "speakers": list(speakers),
    }


def _strings(value, what: str) -> tuple[str, ...]:
    if not isinstance(value, list) or not all(isinstance(x, str) for x in value):
        raise FormatError(f"malformed vocabulary: {what} must be a list of strings")
    return tuple(value)


def vocab_from_payload(payload: dict) -> tuple[LabelVocabulary, list[str]]:
    """Inverse of ``vocab_payload``; a malformed payload, or one whose
    labels, speakers, group names and ``required`` flags are not lists of
    strings, strings and booleans, raises FormatError."""
    try:
        labels = _strings(payload["labels"], "labels")
        groups = []
        for g in payload["slot_groups"]:
            if not isinstance(g["name"], str) or not isinstance(g["required"], bool):
                raise FormatError("malformed vocabulary: a slot group needs a string name "
                                  "and a boolean 'required'")
            groups.append(SlotGroup(name=g["name"], labels=_strings(g["labels"], "group labels"),
                                    required=g["required"]))
        vocab = LabelVocabulary(labels=labels, slot_groups=tuple(groups))
        speakers = list(_strings(payload["speakers"], "speakers"))
    except (KeyError, TypeError, DataError) as exc:
        raise FormatError(f"malformed vocabulary: {exc!r}") from exc
    if len(set(speakers)) != len(speakers):
        raise FormatError("malformed vocabulary: duplicate speaker names")
    return vocab, speakers


def _config_from(raw, path: str) -> ModelConfig:
    if not isinstance(raw, dict):
        raise FormatError(f"{path}: checkpoint header carries no model config")
    unknown = set(raw) - {f.name for f in dataclasses.fields(ModelConfig)}
    if unknown:
        raise FormatError(f"{path}: unknown model config keys {sorted(unknown)}")
    try:
        return ModelConfig(**raw)
    except (TypeError, ShapeError, UsageError) as exc:
        raise FormatError(f"{path}: invalid model config: {exc}") from exc
