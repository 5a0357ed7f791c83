"""JSON checkpoints: bit-exact roundtrip, checksum tamper detection, stage
ordering metadata, and canonical serialization."""

import hashlib
import json
from pathlib import Path

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
from atmoe.cli import main
from atmoe.config import PREMERGED_ID, load_config
from atmoe.model import ToyTransformer
from atmoe.training import StageOrderError

from conftest import tiny_config

ROOT = Path(__file__).resolve().parents[1]
VERIFY = ROOT / "runs" / "verify"  # scripts/run_pipeline.py --workdir runs/verify


@pytest.fixture()
def model():
    m = ToyTransformer(tiny_config(seed=21))
    rng = np.random.default_rng(42)
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
    # the seeds live in the embedded config only
    assert set(doc) == {"format_version", "config", "stage_completed", "tensors", "checksum"}


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


@pytest.mark.parametrize("edit", ["stage", "config", "shape", "version", "extra_field", "name"])
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
    elif edit == "extra_field":  # the checksum covers every field, not a known list
        doc["seeds"] = {"config": model.cfg.seed}
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
    tokens = np.array([[0, 3, 1, 4, 2]])
    path = tmp_path / "ckpt.json"
    save_checkpoint(path, model, "router")
    loaded = load_checkpoint(path)
    np.testing.assert_array_equal(loaded.model.build_graph(tokens)[0].data,
                                  model.build_graph(tokens)[0].data)


def test_committed_pipeline_checkpoints_load_and_each_stage_changes_only_its_set():
    # the committed pipeline run must stay loadable under the current code, from
    # the default config, and each stage may change only what it trains, the
    # first one starting from a fresh init
    cfg = load_config(ROOT / "configs" / "default.json")
    previous = ToyTransformer(cfg).params
    for stage in STAGES[1:]:
        loaded = load_checkpoint(VERIFY / f"ckpt_{stage}.json")
        model = loaded.model
        assert loaded.stage_completed == stage
        assert canonical_json(model.cfg.to_dict()) == canonical_json(cfg.to_dict())
        trained = {
            "experts": [n for aid in model.task_adapter_ids
                        for n in model.adapter_param_names(aid)],
            "premerged": model.adapter_param_names(PREMERGED_ID),
            "router": model.router_param_names(),
        }[stage]
        for name in model.frozen_outside(trained):
            np.testing.assert_array_equal(model.params[name], previous[name],
                                          err_msg=f"{stage}: {name}")
        previous = model.params


@pytest.mark.parametrize("field,text", [pytest.param("stage_completed", '"experts"', id="head"),
                                        pytest.param("lambda", "0.5", id="config")])
@pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity"])
def test_non_json_literal_is_a_corrupt_checkpoint(tmp_path, field, text, literal):
    # json reads NaN and Infinity, which JSON has no literal for; such a file
    # is corrupt (exit 4) before its data is looked at, not a crash in hashing
    cfg = tiny_config(seed=21)
    path = tmp_path / "ckpt.json"
    save_checkpoint(path, ToyTransformer(cfg), "experts")
    raw = path.read_text()
    key = f'"{field}":{text}'
    assert raw.count(key) == 1
    path.write_text(raw.replace(key, f'"{field}":{literal}'))
    with pytest.raises(CheckpointError, match=f"non-JSON literal {literal}"):
        load_checkpoint(path)
    assert main(["eval", "--ckpt", str(path), "--data", str(tmp_path / "absent.jsonl")]) == 4
