"""Self-describing JSON checkpoints.

One canonical JSON document (sorted keys, compact separators) carries the full
config, the stage marker, and every named parameter as its shape and a
flat row-major list of float64 values, which round-trip bit-identically. The
sha256 checksum, verified on load, covers two parts in turn: the canonical
JSON of the document without ``tensors`` and ``checksum``, then, per tensor
in sorted name order, the canonical JSON of ``[name, shape]`` and the data as
little-endian float64 bytes. A load thus hashes the parsed arrays instead of
re-encoding the document. Writes go to a temp file first and rename into place.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .config import STAGES as TRAINING_STAGES, Config, ConfigError, write_text
from .model import ToyTransformer
from .training import StageOrderError

FORMAT_VERSION = 2
STAGES = ("none",) + TRAINING_STAGES  # stage_completed markers, in pipeline order


class CheckpointError(RuntimeError):
    """Unreadable, malformed, or corrupt checkpoint."""


def stage_index(stage: str) -> int:
    if stage not in STAGES:
        raise CheckpointError(f"unknown stage marker {stage!r}; expected one of {STAGES}")
    return STAGES.index(stage)


def canonical_json(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":"), allow_nan=False)


def _digest(doc: dict, arrays: dict[str, np.ndarray]) -> str:
    """The checksum of ``doc`` whose tensors hold ``arrays`` (name -> values)."""
    head = {k: v for k, v in doc.items() if k not in ("tensors", "checksum")}
    h = hashlib.sha256(canonical_json(head).encode("utf-8"))
    for name in sorted(arrays):
        h.update(canonical_json([name, doc["tensors"][name]["shape"]]).encode("utf-8"))
        h.update(np.ascontiguousarray(arrays[name], dtype="<f8").tobytes())
    return h.hexdigest()


def checkpoint_checksum(doc: dict) -> str:
    return _digest(doc, {name: np.asarray(entry["data"], dtype=np.float64)
                         for name, entry in doc["tensors"].items()})


def checkpoint_doc(model: ToyTransformer, stage_completed: str) -> dict:
    stage_index(stage_completed)
    tensors = {}
    for name in sorted(model.params):
        arr = model.params[name]
        if not np.all(np.isfinite(arr)):
            raise CheckpointError(f"parameter {name!r} holds non-finite values")
        tensors[name] = {"shape": list(arr.shape), "data": arr.ravel().tolist()}
    doc = {
        "format_version": FORMAT_VERSION,
        "config": model.cfg.to_dict(),
        "stage_completed": stage_completed,
        "tensors": tensors,
    }
    doc["checksum"] = _digest(doc, model.params)
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
    except json.JSONDecodeError as exc:
        raise CheckpointError(f"checkpoint {path} is not valid JSON: {exc}") from exc
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
    flat = {}
    for name, entry in doc["tensors"].items():
        if not isinstance(entry, dict) or set(entry) != {"shape", "data"}:
            held = sorted(entry) if isinstance(entry, dict) else type(entry).__name__
            raise CheckpointError(f"tensor {name!r} holds {held}, not the f64 'shape' and 'data'")
        try:
            flat[name] = np.asarray(entry["data"], dtype=np.float64)
        except (TypeError, ValueError) as exc:
            raise CheckpointError(f"tensor {name!r} data is not a list of numbers") from exc
    if _digest(doc, flat) != doc["checksum"]:
        raise CheckpointError("checkpoint checksum mismatch (corrupt or edited file)")
    params = {}
    for name, data in flat.items():
        try:
            params[name] = data.reshape(doc["tensors"][name]["shape"])
        except (TypeError, ValueError) as exc:
            raise CheckpointError(f"tensor {name!r} data disagrees with its shape") from exc
    stage = doc["stage_completed"]
    stage_index(stage)
    try:
        cfg = Config.from_dict(doc["config"])
    except ConfigError as exc:
        raise CheckpointError(f"checkpoint config is invalid: {exc}") from exc
    try:
        model = ToyTransformer(cfg, params)
    except (ValueError, KeyError) as exc:
        raise CheckpointError(f"checkpoint tensors do not form a model: {exc}") from exc
    return LoadedCheckpoint(model=model, stage_completed=stage)


def require_stage(have: str, needed: str, about_to_run: str) -> None:
    """Raise StageOrderError unless ``have`` covers the prerequisite stage."""
    if stage_index(have) < stage_index(needed):
        raise StageOrderError(
            f"stage {about_to_run!r} requires a checkpoint with stage_completed "
            f">= {needed!r}, got {have!r}"
        )
