"""JSON checkpoints: bit-exact roundtrip, checksum tamper detection, stage
ordering metadata, and canonical serialization."""

import hashlib
import json

import numpy as np
import pytest

from atmoe.checkpoint import (
    FORMAT_VERSION,
    STAGES,
    CheckpointError,
    canonical_json,
    checkpoint_checksum,
    checkpoint_doc,
    load_checkpoint,
    require_stage,
    restore_checkpoint,
    save_checkpoint,
    stage_index,
)
from atmoe.model import ToyTransformer
from atmoe.numerics import seeded_rng
from atmoe.training import StageOrderError

from conftest import tiny_config


@pytest.fixture()
def model():
    m = ToyTransformer(tiny_config(seed=21))
    rng = seeded_rng(42)
    for name in m.params:  # make every tensor carry arbitrary values
        m.params[name] = m.params[name] + rng.normal(
            scale=0.01, size=m.params[name].shape)
    return m


def test_roundtrip_is_bit_identical(model, tmp_path):
    path = tmp_path / "ckpt.json"
    save_checkpoint(path, model, "experts")
    loaded = load_checkpoint(path)
    assert loaded.stage_completed == "experts"
    assert set(loaded.model.params) == set(model.params)
    for name in model.params:
        np.testing.assert_array_equal(loaded.model.params[name],
                                      model.params[name])
    # and a re-save of the loaded model is byte-identical
    path2 = tmp_path / "ckpt2.json"
    save_checkpoint(path2, loaded.model, "experts")
    assert path.read_bytes() == path2.read_bytes()


def test_doc_structure_and_checksum(model):
    doc = checkpoint_doc(model, "none")
    assert doc["format_version"] == FORMAT_VERSION
    assert doc["stage_completed"] == "none"
    assert set(doc["tensors"]) == set(model.params)
    entry = doc["tensors"]["tok_emb"]
    assert set(entry) == {"shape", "data"}
    assert entry["shape"] == list(model.params["tok_emb"].shape)
    assert len(entry["data"]) == model.params["tok_emb"].size
    assert doc["checksum"] == checkpoint_checksum(doc)
    assert doc["seeds"] == {"config": model.cfg.seed}


def test_tamper_detection(model, tmp_path):
    path = tmp_path / "ckpt.json"
    save_checkpoint(path, model, "router")
    doc = json.loads(path.read_text())
    doc["tensors"]["tok_emb"]["data"][0] += 1e-12
    path.write_text(json.dumps(doc))
    with pytest.raises(CheckpointError, match="checksum"):
        load_checkpoint(path)


def test_missing_fields_and_bad_version(model):
    doc = checkpoint_doc(model, "none")
    bad = dict(doc)
    del bad["tensors"]
    with pytest.raises(CheckpointError, match="missing"):
        restore_checkpoint(bad)
    bad["tensors"] = []
    with pytest.raises(CheckpointError, match="tensors"):
        restore_checkpoint(bad)
    bad = json.loads(canonical_json(doc))
    bad["format_version"] = "v999"
    bad["checksum"] = checkpoint_checksum(bad)
    with pytest.raises(CheckpointError, match="format_version"):
        restore_checkpoint(bad)


def test_non_finite_parameters_rejected(model):
    model.params["tok_emb"][0, 0] = np.nan
    with pytest.raises(CheckpointError, match="non-finite"):
        checkpoint_doc(model, "none")


def test_stage_ordering():
    assert STAGES == ("none", "experts", "premerged", "router")
    assert [stage_index(s) for s in STAGES] == [0, 1, 2, 3]
    require_stage("premerged", "experts", "anything")  # no raise
    require_stage("router", "router", "anything")
    with pytest.raises(StageOrderError, match="requires a checkpoint"):
        require_stage("none", "experts", "premerged-stage")
    with pytest.raises((ValueError, KeyError, CheckpointError)):
        stage_index("bogus")


def test_unknown_stage_rejected_at_save(model):
    with pytest.raises((ValueError, KeyError, CheckpointError)):
        checkpoint_doc(model, "bogus")


def test_canonical_json_is_key_order_invariant(model):
    doc = checkpoint_doc(model, "none")
    shuffled = json.loads(json.dumps(doc))
    reordered = {k: shuffled[k] for k in reversed(list(shuffled))}
    assert canonical_json(doc) == canonical_json(reordered)
    assert checkpoint_checksum(doc) == checkpoint_checksum(reordered)


def test_restore_rejects_mangled_tensor_shape(model):
    doc = json.loads(canonical_json(checkpoint_doc(model, "none")))
    doc["tensors"]["tok_emb"]["shape"] = [1, 1]
    doc["checksum"] = checkpoint_checksum(doc)
    with pytest.raises(CheckpointError, match="shape"):
        restore_checkpoint(doc)


def test_checksum_hashes_header_then_raw_tensor_bytes(model):
    doc = checkpoint_doc(model, "experts")
    head = {k: v for k, v in doc.items() if k not in ("tensors", "checksum")}
    h = hashlib.sha256(canonical_json(head).encode())
    for name in sorted(model.params):
        h.update(json.dumps([name, list(model.params[name].shape)],
                            separators=(",", ":")).encode())
        h.update(model.params[name].astype("<f8").tobytes())
    assert doc["checksum"] == h.hexdigest()


@pytest.mark.parametrize("edit", ["stage", "config", "shape", "version", "seeds", "name"])
def test_edits_without_a_new_checksum_fail(model, tmp_path, edit):
    path = tmp_path / "ckpt.json"
    save_checkpoint(path, model, "experts")
    doc = json.loads(path.read_text())
    tensors = doc["tensors"]
    if edit == "stage":
        doc["stage_completed"] = "router"
    elif edit == "config":
        doc["config"]["atmoe"]["lambda"] = 0.25
    elif edit == "shape":  # same data, transposed
        tensors["blocks.0.moe.wg"]["shape"].reverse()
    elif edit == "version":
        doc["format_version"] = FORMAT_VERSION + 1
        doc["checksum"] = checkpoint_checksum(doc)
    elif edit == "seeds":
        doc["seeds"]["config"] += 1
    else:
        tensors["blocks.0.moe.wx"] = tensors.pop("blocks.0.moe.wg")
    path.write_text(json.dumps(doc))
    with pytest.raises(CheckpointError, match="version" if edit == "version" else "checksum"):
        load_checkpoint(path)


def _reshaped(model, edits: dict) -> dict:
    """A checkpoint document of ``model`` with tensors replaced (same data
    length where the test says so) and a valid checksum."""
    doc = json.loads(canonical_json(checkpoint_doc(model, "none")))
    for name, shape in edits.items():
        doc["tensors"][name] = {"shape": list(shape),
                                "data": [0.5] * int(np.prod(shape))}
    doc["checksum"] = checkpoint_checksum(doc)
    return doc


def test_restore_rejects_mis_shaped_tensors(model):
    cfg = model.cfg
    G, M, d, d_ff, r = (cfg.n_groups, cfg.max_group_size, cfg.model.d_model,
                        cfg.model.d_ff, cfg.model.rank)
    for edits in ({"blocks.0.moe.wd": (d_ff, G, M)},         # transposed, same length
                  {"blocks.0.moe.wg": (G, d_ff)},
                  {"blocks.0.moe.experts.identity.A": (d_ff, r)},
                  {"blocks.0.moe.experts.premerged.B": (r, d)}):
        with pytest.raises(CheckpointError, match="shape mismatch"):
            restore_checkpoint(_reshaped(model, edits))
    # a config whose n_layers disagrees with the stored blocks
    doc = _reshaped(model, {})
    doc["config"]["model"]["n_layers"] = 2
    doc["checksum"] = checkpoint_checksum(doc)
    with pytest.raises(CheckpointError, match="missing"):
        restore_checkpoint(doc)


def test_restore_rejects_unknown_dtype(model):
    doc = json.loads(canonical_json(checkpoint_doc(model, "none")))
    doc["tensors"]["tok_emb"]["dtype"] = "f32"  # v2 stores f64 only
    doc["checksum"] = checkpoint_checksum(doc)
    with pytest.raises(CheckpointError, match="dtype"):
        restore_checkpoint(doc)


def test_loaded_model_reproduces_logits(model, tmp_path):
    tokens = np.array([0, 3, 1, 4, 2])
    path = tmp_path / "ckpt.json"
    save_checkpoint(path, model, "router")
    loaded = load_checkpoint(path)
    np.testing.assert_array_equal(loaded.model.forward_logits(tokens),
                                  model.forward_logits(tokens))
