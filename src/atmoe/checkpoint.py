"""Self-describing JSON checkpoints.

One canonical JSON document (sorted keys, compact separators) carries the full
config, the stage marker, and every named parameter as its shape and its data:
the base64 of its row-major little-endian float64 bytes, as a JSON header over
raw tensor bytes in the manner of safetensors. The bytes round-trip
bit-identically and a load decodes them without parsing a decimal per value.
The sha256 checksum, verified on load, covers two parts in turn: the canonical
JSON of the document without ``tensors`` and ``checksum``, then, per tensor
in sorted name order, the canonical JSON of ``[name, shape]`` and the decoded
bytes. A load refuses bad base64, a byte count other than 8 per entry of the
shape, and non-finite values, as a save does. Writes go to a temp file first
and rename into place.
"""

from __future__ import annotations

import base64
import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .config import STAGES, Config, ConfigError
from .model import ToyTransformer
from .numerics import write_text

FORMAT_VERSION = 3


class CheckpointError(RuntimeError):
    """Unreadable, malformed, or corrupt checkpoint."""


def check_stage(stage: str) -> None:
    if stage not in STAGES:
        raise CheckpointError(f"unknown stage marker {stage!r}; expected one of {STAGES}")


def canonical_json(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":"), allow_nan=False)


def _digest(doc: dict, raw: dict[str, bytes]) -> str:
    """The checksum of ``doc`` whose tensors hold ``raw`` (name -> <f8 bytes)."""
    head = {k: v for k, v in doc.items() if k not in ("tensors", "checksum")}
    h = hashlib.sha256(canonical_json(head).encode("utf-8"))
    for name in sorted(raw):
        h.update(canonical_json([name, doc["tensors"][name]["shape"]]).encode("utf-8"))
        h.update(raw[name])
    return h.hexdigest()


def _decoded(name: str, data) -> bytes:
    """The bytes a tensor's ``data`` encodes, which must be strict base64."""
    if isinstance(data, str):
        try:
            return base64.b64decode(data, validate=True)
        except ValueError:  # binascii.Error, or a character outside ASCII
            pass
    raise CheckpointError(f"tensor {name!r} data is not base64 of float64 bytes")


def checkpoint_checksum(doc: dict) -> str:
    return _digest(doc, {name: _decoded(name, entry["data"])
                         for name, entry in doc["tensors"].items()})


def checkpoint_doc(model: ToyTransformer, stage_completed: str) -> dict:
    check_stage(stage_completed)
    tensors, raw = {}, {}
    for name in sorted(model.params):
        arr = model.params[name]
        if not np.all(np.isfinite(arr)):
            raise CheckpointError(f"parameter {name!r} holds non-finite values")
        raw[name] = np.ascontiguousarray(arr, dtype="<f8").tobytes()
        tensors[name] = {"shape": list(arr.shape),
                         "data": base64.b64encode(raw[name]).decode("ascii")}
    doc = {
        "format_version": FORMAT_VERSION,
        "config": model.cfg.to_dict(),
        "stage_completed": stage_completed,
        "tensors": tensors,
    }
    doc["checksum"] = _digest(doc, raw)
    return doc


def save_checkpoint(path: str | Path, model: ToyTransformer, stage_completed: str) -> dict:
    doc = checkpoint_doc(model, stage_completed)
    write_text(path, canonical_json(doc) + "\n")
    return doc


@dataclass
class LoadedCheckpoint:
    model: ToyTransformer
    stage_completed: str


def load_checkpoint(path: str | Path) -> LoadedCheckpoint:
    def reject(literal: str):  # json accepts NaN and Infinity, which JSON does not
        raise CheckpointError(f"checkpoint {path} holds the non-JSON literal {literal}")

    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh, parse_constant=reject)
    except OSError as exc:
        raise CheckpointError(f"cannot read checkpoint {path}: {exc}") from exc
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CheckpointError(f"checkpoint {path} is not valid UTF-8 JSON: {exc}") from exc
    return restore_checkpoint(doc)


def restore_checkpoint(doc: dict) -> LoadedCheckpoint:
    if not isinstance(doc, dict):
        raise CheckpointError("checkpoint document must be a JSON object")
    for key in ("format_version", "config", "stage_completed", "tensors", "checksum"):
        if key not in doc:
            raise CheckpointError(f"checkpoint is missing the {key!r} field")
    if doc["format_version"] != FORMAT_VERSION:
        raise CheckpointError(f"unsupported checkpoint format_version {doc['format_version']!r}")
    if not isinstance(doc["tensors"], dict):
        raise CheckpointError("checkpoint 'tensors' must be a JSON object")
    raw = {}
    for name, entry in doc["tensors"].items():
        if not isinstance(entry, dict) or set(entry) != {"shape", "data"}:
            held = sorted(entry) if isinstance(entry, dict) else type(entry).__name__
            raise CheckpointError(f"tensor {name!r} holds {held}, not the f64 'shape' and 'data'")
        raw[name] = _decoded(name, entry["data"])
    if _digest(doc, raw) != doc["checksum"]:
        raise CheckpointError("checkpoint checksum mismatch (corrupt or edited file)")
    params = {}
    for name, data in raw.items():
        shape = doc["tensors"][name]["shape"]
        if not (isinstance(shape, list) and all(type(n) is int and n >= 0 for n in shape)
                and len(data) == 8 * math.prod(shape)):
            raise CheckpointError(f"tensor {name!r} holds {len(data)} bytes, which disagrees "
                                  f"with its shape {shape}")
        # a writable native-order copy: frombuffer gives a read-only view of the bytes
        params[name] = np.frombuffer(data, dtype="<f8").astype(np.float64).reshape(shape)
        if not np.all(np.isfinite(params[name])):
            raise CheckpointError(f"tensor {name!r} holds non-finite values")
    stage = doc["stage_completed"]
    check_stage(stage)
    try:
        cfg = Config.from_dict(doc["config"])
    except ConfigError as exc:
        raise CheckpointError(f"checkpoint config is invalid: {exc}") from exc
    try:
        model = ToyTransformer(cfg, params)
    except (ValueError, KeyError) as exc:
        raise CheckpointError(f"checkpoint tensors do not form a model: {exc}") from exc
    return LoadedCheckpoint(model=model, stage_completed=stage)

