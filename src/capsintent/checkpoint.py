"""Self-describing model checkpoints.

A checkpoint is a single ``.npz`` file with a versioned JSON header under the
``__meta__`` key (format version, full model config, seed, and optionally the
label vocabulary and speaker roster) plus one array entry per parameter path
prefixed with ``param/``. Writes are atomic (``features.atomic_write``).
Loading validates the header's config, the vocabulary and roster, and every
parameter's name and shape against that config, so a bad file fails when it
is read, not at first use.
"""

from __future__ import annotations

import dataclasses
import json
import zipfile
from typing import Optional, Sequence

import numpy as np

from .capsnet import ModelConfig
from .datasets import LabelVocabulary, SlotGroup
from .errors import DataError, FormatError, ShapeError
from .features import atomic_write
from .model import param_shapes
from .numeric import Params

FORMAT_VERSION = 1


def save_checkpoint(path: str, config: ModelConfig, params: Params,
                    vocab_payload: Optional[dict] = None) -> None:
    meta = {
        "format": "capsintent-checkpoint",
        "version": FORMAT_VERSION,
        "config": dataclasses.asdict(config),
        "seed": config.seed,
    }
    if vocab_payload is not None:
        meta["vocab"] = vocab_payload
    arrays = {f"param/{name}": value for name, value in params.items()}
    arrays["__meta__"] = np.frombuffer(json.dumps(meta, sort_keys=True).encode(), dtype=np.uint8)
    atomic_write(path, lambda fh: np.savez(fh, **arrays))


def load_checkpoint(path: str):
    """Returns (config, params, vocab_payload or None); a payload must
    decode to the config's num_labels labels and speaker_count speakers."""
    try:
        with np.load(path) as data:
            if "__meta__" not in data:
                raise FormatError(f"{path} is not a capsintent checkpoint (missing header)")
            meta = json.loads(bytes(data["__meta__"]).decode())
            if meta.get("format") != "capsintent-checkpoint":
                raise FormatError(f"{path} has unknown checkpoint format {meta.get('format')!r}")
            if meta.get("version") != FORMAT_VERSION:
                raise FormatError(f"unsupported checkpoint version {meta.get('version')!r}")
            params = {
                key[len("param/"):]: np.array(data[key])
                for key in data.files if key.startswith("param/")
            }
    except (OSError, ValueError, zipfile.BadZipFile) as exc:
        raise FormatError(f"cannot read checkpoint {path}: {exc}") from exc
    config = _config_from(meta.get("config"), path)
    expected = param_shapes(config)
    if set(params) != set(expected):
        raise FormatError(f"{path}: parameters missing {sorted(set(expected) - set(params))}, "
                          f"unexpected {sorted(set(params) - set(expected))}")
    for name, shape in expected.items():
        if params[name].shape != shape:
            raise FormatError(f"{path}: parameter {name} has shape {params[name].shape}, "
                              f"the config needs {shape}")
    payload = meta.get("vocab")
    if payload is not None:
        try:
            vocab, speakers = vocab_from_payload(payload)
        except FormatError as exc:
            raise FormatError(f"{path}: {exc}") from exc
        if (len(vocab), len(speakers)) != (config.num_labels, config.speaker_count):
            raise FormatError(f"{path}: vocabulary has {len(vocab)} labels and "
                              f"{len(speakers)} speakers, the config needs "
                              f"{config.num_labels} and {config.speaker_count}")
    return config, params, payload


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


def vocab_from_payload(payload: dict) -> tuple[LabelVocabulary, list[str]]:
    """Inverse of ``vocab_payload``; a malformed payload raises FormatError."""
    try:
        vocab = LabelVocabulary(
            labels=tuple(payload["labels"]),
            slot_groups=tuple(
                SlotGroup(name=g["name"], labels=tuple(g["labels"]), required=g["required"])
                for g in payload["slot_groups"]
            ),
        )
        speakers = list(payload["speakers"])
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
    except (TypeError, ShapeError) as exc:
        raise FormatError(f"{path}: invalid model config: {exc}") from exc
