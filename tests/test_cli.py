"""Command-line pipeline: data generation, staged training with checkpoint
handoff, evaluation reports, routing CSV dumps, and the gradient gate."""

import csv
import dataclasses
import json
import os
import signal
from pathlib import Path

import numpy as np
import pytest

from atmoe import cli, training
from atmoe.checkpoint import canonical_json, checkpoint_checksum, load_checkpoint
from atmoe.cli import CSV_HEADER, main
from atmoe.config import Config, save_config
from atmoe.model import ToyTransformer
from atmoe.taskgen import read_jsonl, write_jsonl

from conftest import tiny_config


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """A tiny end-to-end CLI run: config -> data -> three stages."""
    root = tmp_path_factory.mktemp("cli")
    cfg = tiny_config(seed=11, vocab_size=40, max_seq_len=20)
    sec = dataclasses.replace
    cfg = sec(cfg,
              taskgen=sec(cfg.taskgen, n_train=48, n_eval_single=12,
                          n_eval_multi=12, payload_max=5),
              training=sec(cfg.training,
                           experts=sec(cfg.training.experts, epochs=2,
                                       batch_size=16),
                           premerged=sec(cfg.training.premerged, epochs=2,
                                         batch_size=16),
                           router=sec(cfg.training.router, epochs=2,
                                      batch_size=16)))
    cfg_path = root / "cfg.json"
    save_config(cfg, cfg_path)
    data = root / "data"
    assert main(["gen-data", "--config", str(cfg_path),
                 "--out", str(data)]) == 0
    for stage, ckpt_in in (("experts", None), ("premerged", "experts"),
                           ("router", "premerged")):
        argv = ["train", "--stage", stage, "--config", str(cfg_path),
                "--data", str(data), "--ckpt-out", str(root / f"{stage}.json")]
        if ckpt_in:
            argv += ["--ckpt-in", str(root / f"{ckpt_in}.json")]
        assert main(argv) == 0
    return root, cfg, cfg_path, data


def test_gen_data_outputs(workdir):
    root, cfg, _, data = workdir
    manifest = json.loads((data / "manifest.json").read_text())
    assert manifest["counts"] == {"train": 48, "eval_single": 12,
                                  "eval_multi": 12}
    assert set(manifest["files"]) == {"train.jsonl", "eval_single.jsonl",
                                      "eval_multi.jsonl"}
    train = read_jsonl(data / "train.jsonl")
    assert len(train) == 48
    for name, intents in (("eval_single", 1), ("eval_multi", 2)):
        assert all(len(s.relevant_experts["function"]) == intents
                   for s in read_jsonl(data / f"{name}.jsonl"))


def test_gen_data_is_deterministic(workdir, tmp_path):
    # byte-identical directories, manifest included: it carries no clock time
    root, _, cfg_path, data = workdir
    again = tmp_path / "data2"
    assert main(["gen-data", "--config", str(cfg_path),
                 "--out", str(again)]) == 0
    names = sorted(p.name for p in data.iterdir())
    assert names == sorted(p.name for p in again.iterdir())
    assert "manifest.json" in names
    for name in names:
        assert (again / name).read_bytes() == (data / name).read_bytes(), name


def test_train_stages_progress_and_reports(workdir):
    root, cfg, _, _ = workdir
    for stage in ("experts", "premerged", "router"):
        loaded = load_checkpoint(root / f"{stage}.json")
        assert loaded.stage_completed == stage
        report = json.loads((root / f"{stage}.json.report.json").read_text())
        assert report["stage"] == stage and report["n_samples"] == 48
        assert all(np.isfinite(r["epoch_losses"]).all()
                   for r in report["reports"])
    experts_report = json.loads(
        (root / "experts.json.report.json").read_text())
    trained = {r["adapter_id"] for r in experts_report["reports"]}
    assert trained == {"identity", "reverse", "increment", "low_range",
                       "high_range", "plain_end", "echo_first"}


def test_train_router_without_ckpt_in_fails(workdir, tmp_path):
    root, _, cfg_path, data = workdir
    rc = main(["train", "--stage", "router", "--config", str(cfg_path),
               "--data", str(data), "--ckpt-out", str(tmp_path / "r.json")])
    assert rc == 3


def test_train_premerged_without_ckpt_in_fails(workdir, tmp_path):
    root, _, cfg_path, data = workdir
    ckpt_out = tmp_path / "p.json"
    rc = main(["train", "--stage", "premerged", "--config", str(cfg_path),
               "--data", str(data), "--ckpt-out", str(ckpt_out)])
    assert rc == 3
    assert not ckpt_out.exists()


def test_train_router_from_experts_checkpoint_fails(workdir, tmp_path):
    # skipping the premerged stage violates the stage ordering
    root, _, cfg_path, data = workdir
    rc = main(["train", "--stage", "router", "--config", str(cfg_path),
               "--data", str(data), "--ckpt-in", str(root / "experts.json"),
               "--ckpt-out", str(tmp_path / "r.json")])
    assert rc == 3


def test_eval_command_writes_report(workdir, tmp_path, capsys):
    root, _, _, data = workdir
    out = tmp_path / "eval.json"
    rc = main(["eval", "--ckpt", str(root / "router.json"),
               "--data", str(data / "eval_single.jsonl"), "--mode", "full",
               "--out", str(out)])
    assert rc == 0
    doc = json.loads(out.read_text())
    assert doc["mode"] == "full" and doc["n_samples"] == 12
    assert set(doc["routing_accuracy"]) == {"function", "domain", "style"}
    printed = json.loads(capsys.readouterr().out)
    assert printed == doc


def test_eval_lam_override_matches_premerged_adapter(workdir, tmp_path):
    root, _, _, data = workdir
    out_a, out_b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["eval", "--ckpt", str(root / "router.json"),
                 "--data", str(data / "eval_single.jsonl"),
                 "--mode", "full", "--lam", "0.0", "--out", str(out_a)]) == 0
    assert main(["eval", "--ckpt", str(root / "router.json"),
                 "--data", str(data / "eval_single.jsonl"),
                 "--mode", "adapter", "--adapter-id", "premerged",
                 "--out", str(out_b)]) == 0
    a = json.loads(out_a.read_text())
    b = json.loads(out_b.read_text())
    assert a["mean_loss"] == pytest.approx(b["mean_loss"], rel=1e-12)


@pytest.mark.parametrize("lam", ["1.7", "-0.5", "nan", "inf"])
def test_eval_rejects_lam_outside_unit_interval(workdir, tmp_path, monkeypatch, lam):
    root, _, _, data = workdir

    def no_work(*args, **kwargs):
        raise AssertionError("reached checkpoint loading or evaluation")

    for name in ("load_checkpoint", "evaluate"):
        monkeypatch.setattr(cli, name, no_work)
    out = tmp_path / "eval.json"
    assert main(["eval", "--ckpt", str(root / "router.json"),
                 "--data", str(data / "eval_multi.jsonl"),
                 "--lam", lam, "--out", str(out)]) == 2
    assert not out.exists()


@pytest.mark.parametrize("flags", [
    ["--mode", "full", "--adapter-id", "bogus"],
    ["--mode", "base", "--adapter-id", "identity"],
    ["--mode", "base", "--lam", "0.5"],
    ["--mode", "adapter", "--adapter-id", "identity", "--lam", "0.5"],
    ["--mode", "adapter"],
])
def test_eval_rejects_flags_its_mode_does_not_use(workdir, tmp_path, monkeypatch, flags):
    root, _, _, data = workdir

    def no_work(*args, **kwargs):
        raise AssertionError("reached data reading or evaluation")

    for name in ("read_jsonl", "evaluate"):
        monkeypatch.setattr(cli, name, no_work)
    out = tmp_path / "eval.json"
    assert main(["eval", "--ckpt", str(root / "router.json"),
                 "--data", str(data / "eval_multi.jsonl"), *flags, "--out", str(out)]) == 2
    assert not out.exists()


def test_eval_rejects_adapter_id_the_checkpoint_lacks(workdir, tmp_path, monkeypatch):
    root, _, _, data = workdir

    def no_work(*args, **kwargs):
        raise AssertionError("reached data reading or evaluation")

    for name in ("read_jsonl", "evaluate"):
        monkeypatch.setattr(cli, name, no_work)
    out = tmp_path / "eval.json"
    assert main(["eval", "--ckpt", str(root / "router.json"),
                 "--data", str(data / "eval_multi.jsonl"), "--mode", "adapter",
                 "--adapter-id", "bogus", "--out", str(out)]) == 2
    assert not out.exists()


def _rechecksummed(doc: dict, path: Path) -> Path:
    doc["checksum"] = checkpoint_checksum(doc)
    path.write_text(canonical_json(doc))
    return path


def test_eval_rejects_mis_shaped_checkpoint_before_reading_data(workdir, tmp_path,
                                                                 monkeypatch):
    # blocks.0.moe.wd stored transposed: same data length, valid checksum
    root, cfg, _, data = workdir
    doc = json.loads((root / "router.json").read_text())
    entry = doc["tensors"]["blocks.0.moe.wd"]
    G, M = cfg.n_groups, cfg.max_group_size
    assert entry["shape"] == [G, cfg.model.d_ff, M]
    entry["shape"] = [cfg.model.d_ff, G, M]
    bad = _rechecksummed(doc, tmp_path / "bad.json")

    def no_work(*args, **kwargs):
        raise AssertionError("reached data reading or evaluation")

    for name in ("read_jsonl", "evaluate"):
        monkeypatch.setattr(cli, name, no_work)
    out = tmp_path / "eval.json"
    assert main(["eval", "--ckpt", str(bad), "--data", str(data / "eval_single.jsonl"),
                 "--out", str(out)]) == 4
    assert not out.exists()


def test_train_experts_computes_each_prefix_once(workdir, tmp_path, monkeypatch):
    # one cache serves all experts, and no step rebuilds the prefix from
    # token ids: the cache and the token path share ``_prefix``. The counter
    # logs to a file, so it also counts calls made in worker processes.
    _, _, cfg_path, data = workdir
    seqs = {tuple(s.tokens()) for s in read_jsonl(data / "train.jsonl")}
    log = tmp_path / "prefix.log"
    prefix = ToyTransformer._prefix

    def counting_prefix(self, tokens, P):
        with log.open("a") as fh:
            fh.write(f"{len(tokens)}\n")
        return prefix(self, tokens, P)

    monkeypatch.setattr(ToyTransformer, "_prefix", counting_prefix)
    assert main(["train", "--stage", "experts", "--config", str(cfg_path),
                 "--data", str(data), "--ckpt-out", str(tmp_path / "experts.json")]) == 0
    assert sum(map(int, log.read_text().split())) == len(seqs)


def test_train_exits_6_when_a_worker_dies(workdir, tmp_path, monkeypatch, capsys):
    # a dead expert worker is its own documented failure, not a traceback,
    # and leaves no checkpoint or report behind
    _, _, cfg_path, data = workdir
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(4)))
    run_stage = training._run_stage

    def dying_run_stage(model, samples, adapter_id, stage, seed, stage_tag, cache):
        if stage_tag == "expert:increment":
            os._exit(1)
        return run_stage(model, samples, adapter_id, stage, seed, stage_tag, cache)

    def hung(signum, frame):
        raise TimeoutError("train is still waiting on a dead worker")

    monkeypatch.setattr(training, "_run_stage", dying_run_stage)
    ckpt_out = tmp_path / "experts.json"
    previous = signal.signal(signal.SIGALRM, hung)
    signal.alarm(60)
    try:
        code = main(["train", "--stage", "experts", "--config", str(cfg_path),
                     "--data", str(data), "--ckpt-out", str(ckpt_out)])
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert code == 6
    assert "a training worker died" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_inspect_csv_layout_and_sums(workdir, tmp_path):
    root, cfg, _, _ = workdir
    out = tmp_path / "routing.csv"
    tokens = [0, 3, 6, 9]
    rc = main(["inspect", "--ckpt", str(root / "router.json"),
               "--tokens", ",".join(str(t) for t in tokens),
               "--out", str(out)])
    assert rc == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == CSV_HEADER
    n_groups, max_slots = cfg.n_groups, cfg.max_group_size
    expected_rows = cfg.model.n_layers * len(tokens) * n_groups * max_slots
    assert len(lines) - 1 == expected_rows
    rows = list(csv.DictReader(lines))
    by_token = {}
    for r in rows:
        key = (r["layer"], r["token_index"])
        by_token.setdefault(key, 0.0)
        by_token[key] += float(r["combined_weight"])
        if r["adapter_id"] == "PAD":
            assert float(r["intra_weight"]) == 0.0
            assert float(r["combined_weight"]) == 0.0
    assert len(by_token) == cfg.model.n_layers * len(tokens)
    for total in by_token.values():
        assert abs(total - 1.0) < 1e-6


def test_inspect_rejects_empty_tokens(workdir, tmp_path):
    root, _, _, _ = workdir
    rc = main(["inspect", "--ckpt", str(root / "router.json"),
               "--tokens", " ", "--out", str(tmp_path / "x.csv")])
    assert rc == 2


def test_gradcheck_passes_and_negative_control(tmp_path):
    out = tmp_path / "grad.json"
    assert main(["gradcheck", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["passed"] is True
    assert doc["max_rel_error"] < doc["tolerance"] == 1e-4
    assert set(doc["classes"]) == {"group_router", "intra_router", "lora_a",
                                   "lora_b", "embeddings", "unembedding"}
    assert main(["gradcheck", "--inject-error"]) == 5


@pytest.mark.parametrize("tol", ["0", "-1e-4", "nan", "inf"])
def test_gradcheck_rejects_bad_tolerance(tmp_path, monkeypatch, tol):
    def no_work(*args, **kwargs):
        raise AssertionError("reached the gradient sweep")

    monkeypatch.setattr(cli, "grad_check", no_work)
    out = tmp_path / "grad.json"
    assert main(["gradcheck", f"--tolerance={tol}", "--out", str(out)]) == 2
    assert not out.exists()


def test_train_experts_rejects_empty_task_bucket(workdir, tmp_path, monkeypatch):
    # no sample is relevant to echo_first, the last expert in training order
    _, _, cfg_path, data = workdir
    samples = [s for s in read_jsonl(data / "train.jsonl")
               if "echo_first" not in s.relevant_experts.get("style", [])]
    assert samples
    write_jsonl(tmp_path / "train.jsonl", samples)

    def no_work(*args, **kwargs):
        raise AssertionError("reached the prefix cache or expert training")

    monkeypatch.setattr(training, "PrefixCache", no_work)
    ckpt_out = tmp_path / "experts.json"
    assert main(["train", "--stage", "experts", "--config", str(cfg_path),
                 "--data", str(tmp_path), "--ckpt-out", str(ckpt_out)]) == 2
    assert not ckpt_out.exists()


def test_missing_files_give_clean_errors(tmp_path):
    # a missing checkpoint is a checkpoint error (4); a missing config is
    # an input error (2); neither escapes as a traceback
    assert main(["eval", "--ckpt", str(tmp_path / "none.json"),
                 "--data", str(tmp_path / "none.jsonl")]) == 4
    assert main(["gen-data", "--config", str(tmp_path / "none.json"),
                 "--out", str(tmp_path / "d")]) == 2


def test_gen_data_rejects_payload_longer_than_max_seq_len(workdir, tmp_path):
    # payload_max 7 allows 2*7 + 7 = 21 tokens; the model takes 20
    _, cfg, _, _ = workdir
    cfg = dataclasses.replace(cfg, taskgen=dataclasses.replace(cfg.taskgen, payload_max=7))
    cfg_path = tmp_path / "cfg.json"
    save_config(cfg, cfg_path)
    out = tmp_path / "data"
    assert main(["gen-data", "--config", str(cfg_path), "--out", str(out)]) == 2
    assert not out.exists()


def test_train_and_eval_reject_overlong_data(workdir, tmp_path, monkeypatch):
    # data made for a longer model: every sample has 2*8 + 5 > 20 tokens
    root, cfg, cfg_path, _ = workdir
    sec = dataclasses.replace
    long_cfg = sec(cfg, model=sec(cfg.model, max_seq_len=24),
                   taskgen=sec(cfg.taskgen, payload_min=8, payload_max=8))
    long_cfg_path = tmp_path / "long.json"
    save_config(long_cfg, long_cfg_path)
    data = tmp_path / "data"
    assert main(["gen-data", "--config", str(long_cfg_path), "--out", str(data)]) == 0
    assert min(len(s.tokens()) for s in read_jsonl(data / "train.jsonl")) > 20

    def no_work(*args, **kwargs):
        raise AssertionError("reached training or evaluation")

    for name in ("train_stage", "evaluate"):
        monkeypatch.setattr(cli, name, no_work)
    ckpt_out = tmp_path / "experts.json"
    assert main(["train", "--stage", "experts", "--config", str(cfg_path),
                 "--data", str(data), "--ckpt-out", str(ckpt_out)]) == 2
    assert not ckpt_out.exists()
    eval_out = tmp_path / "eval.json"
    assert main(["eval", "--ckpt", str(root / "router.json"),
                 "--data", str(data / "eval_multi.jsonl"), "--out", str(eval_out)]) == 2
    assert not eval_out.exists()


@pytest.mark.parametrize("stage", ["experts", "premerged", "router"])
def test_train_rejects_zero_epochs_before_any_work(workdir, tmp_path, monkeypatch, stage):
    # zero epochs leave no loss to report; the config is refused up front
    root, cfg, _, data = workdir
    sec = dataclasses.replace
    st = getattr(cfg.training, stage)
    cfg = sec(cfg, training=sec(cfg.training, **{stage: sec(st, epochs=0)}))
    cfg_path = tmp_path / "cfg.json"
    save_config(cfg, cfg_path)

    def no_work(*args, **kwargs):
        raise AssertionError("reached data reading or training")

    for name in ("read_jsonl", "load_checkpoint", "train_stage"):
        monkeypatch.setattr(cli, name, no_work)
    prev = {"experts": None, "premerged": "experts", "router": "premerged"}[stage]
    ckpt_out = tmp_path / "out.json"
    argv = ["train", "--stage", stage, "--config", str(cfg_path), "--data", str(data),
            "--ckpt-out", str(ckpt_out)]
    if prev:
        argv += ["--ckpt-in", str(root / f"{prev}.json")]
    assert main(argv) == 2
    assert not ckpt_out.exists()


def _bad_samples(data, defect, vocab_size):
    """150 training samples, three eval batches' worth, with sample 141 (in
    the third batch) broken."""
    samples = (read_jsonl(data / "train.jsonl") * 4)[:150]
    bad = dataclasses.replace(samples[140])
    if defect == "out_of_vocab":
        bad.input_tokens = [vocab_size] + bad.input_tokens[1:]
    else:
        bad.target_tokens = []
    samples[140] = bad
    return samples


@pytest.mark.parametrize("defect", ["out_of_vocab", "no_target"])
def test_train_and_eval_reject_bad_samples_before_any_work(workdir, tmp_path, monkeypatch,
                                                           capsys, defect):
    root, cfg, cfg_path, data = workdir
    write_jsonl(tmp_path / "train.jsonl", _bad_samples(data, defect, cfg.model.vocab_size))

    def no_work(*args, **kwargs):
        raise AssertionError("reached the prefix cache, training or evaluation")

    for name in ("train_stage", "evaluate"):
        monkeypatch.setattr(cli, name, no_work)
    ckpt_out = tmp_path / "experts.json"
    assert main(["train", "--stage", "experts", "--config", str(cfg_path),
                 "--data", str(tmp_path), "--ckpt-out", str(ckpt_out)]) == 2
    assert not ckpt_out.exists()
    eval_out = tmp_path / "eval.json"
    assert main(["eval", "--ckpt", str(root / "router.json"),
                 "--data", str(tmp_path / "train.jsonl"), "--out", str(eval_out)]) == 2
    assert not eval_out.exists()
    assert capsys.readouterr().err.count("sample 141") == 2


def test_eval_rejects_checkpoint_with_removed_config_keys(workdir, tmp_path, monkeypatch):
    # checkpoints written while the config had these keys, re-checksummed:
    # the router and bonus knobs of one change, the Adam constants of another
    root, _, _, data = workdir

    def no_work(*args, **kwargs):
        raise AssertionError("reached data reading or evaluation")

    for name in ("read_jsonl", "evaluate"):
        monkeypatch.setattr(cli, name, no_work)
    for removed in ("router", "adam"):
        doc = json.loads((root / "router.json").read_text())
        if removed == "router":
            doc["config"]["router"].update(pooled=False, static_intra_group=False)
            doc["config"]["training"]["entropy_bonus"] = 0.0
        else:
            for stage in doc["config"]["training"].values():
                stage.update(beta1=0.9, beta2=0.999, eps=1e-8)
        old = _rechecksummed(doc, tmp_path / f"old_{removed}.json")
        out = tmp_path / "eval.json"
        assert main(["eval", "--ckpt", str(old), "--data", str(data / "eval_single.jsonl"),
                     "--out", str(out)]) == 4
        assert not out.exists()


# (path into the config document, value), each of a JSON type the field
# does not take
BAD_CONFIG_VALUES = {
    "seed_null": (("seed",), None),
    "section_not_object": (("atmoe",), 5),
    "section_list": (("model",), [1]),
    "int_null": (("model", "d_model"), None),
    "int_fraction": (("model", "d_model"), 32.7),
    "int_bool": (("model", "rank"), True),
    "float_string": (("router", "tau_g"), "1"),
    "float_not_a_number": (("atmoe", "lambda"), "x"),
    "groups_null": (("groups",), None),
    "group_not_object": (("groups", 1), "domain"),
    "group_name_null": (("groups", 0, "name"), None),
    "experts_not_list": (("groups", 0, "experts"), 5),
    "expert_id_not_string": (("groups", 0, "experts", 0), 1),
    "stage_null": (("training", "router"), None),
}


@pytest.mark.parametrize("case", BAD_CONFIG_VALUES)
def test_config_value_of_wrong_json_type_is_rejected(workdir, tmp_path, monkeypatch, case):
    # an input error (2) in a config file, a corrupt checkpoint (4) inside one
    root, _, cfg_path, data = workdir
    path, value = BAD_CONFIG_VALUES[case]

    def set_value(doc):
        for key in path[:-1]:
            doc = doc[key]
        doc[path[-1]] = value

    cfg_doc = json.loads(cfg_path.read_text())
    set_value(cfg_doc)
    bad_cfg = tmp_path / "cfg.json"
    bad_cfg.write_text(json.dumps(cfg_doc))
    assert main(["gen-data", "--config", str(bad_cfg), "--out", str(tmp_path / "d")]) == 2
    assert not (tmp_path / "d").exists()

    def no_work(*args, **kwargs):
        raise AssertionError("reached data reading or evaluation")

    for name in ("read_jsonl", "evaluate"):
        monkeypatch.setattr(cli, name, no_work)
    doc = json.loads((root / "router.json").read_text())
    set_value(doc["config"])
    bad = _rechecksummed(doc, tmp_path / "bad.json")
    assert main(["eval", "--ckpt", str(bad), "--data", str(data / "eval_single.jsonl")]) == 4


BAD_DATA_LINES = {
    "instruction_int": lambda r: dict(r, instruction=5),
    "instruction_null_token": lambda r: dict(r, instruction=[None]),
    "line_is_list": lambda r: list(r.values()),
    "relevant_experts_list": lambda r: dict(r, relevant_experts=[1]),
}


@pytest.mark.parametrize("defect", BAD_DATA_LINES)
def test_train_and_eval_reject_data_of_wrong_json_type(workdir, tmp_path, monkeypatch,
                                                       capsys, defect):
    root, _, cfg_path, data = workdir
    lines = (data / "train.jsonl").read_text().splitlines()
    lines[6] = json.dumps(BAD_DATA_LINES[defect](json.loads(lines[6])))
    bad = tmp_path / "train.jsonl"
    bad.write_text("\n".join(lines) + "\n")

    def no_work(*args, **kwargs):
        raise AssertionError("reached the prefix cache or evaluation")

    monkeypatch.setattr(training, "PrefixCache", no_work)
    monkeypatch.setattr(cli, "evaluate", no_work)
    ckpt_out = tmp_path / "experts.json"
    assert main(["train", "--stage", "experts", "--config", str(cfg_path),
                 "--data", str(tmp_path), "--ckpt-out", str(ckpt_out)]) == 2
    assert not ckpt_out.exists()
    assert main(["eval", "--ckpt", str(root / "router.json"), "--data", str(bad)]) == 2
    assert capsys.readouterr().err.count(f"{bad}: line 7: ") == 2
