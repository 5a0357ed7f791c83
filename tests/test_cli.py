"""Command-line pipeline: data generation, staged training with checkpoint
handoff, evaluation reports, routing CSV dumps, and the gradient gate."""

import csv
import dataclasses
import hashlib
import json
import os
import signal
from pathlib import Path

import numpy as np
import pytest

from atmoe import cli, training
from atmoe.checkpoint import canonical_json, checkpoint_checksum, load_checkpoint
from atmoe.cli import CSV_HEADER, main
from atmoe.config import STAGES, Config, GroupDef, save_config
from atmoe.model import ToyTransformer
from atmoe.taskgen import GROUPS, TASKS, read_jsonl, write_jsonl

from conftest import tiny_config

ROOT = Path(__file__).resolve().parents[1]


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
    assert trained == set(TASKS)


def test_train_report_names_data_by_hash_not_path(workdir, tmp_path, monkeypatch):
    # the same stage from a relative and an absolute data path: the reports
    # are byte-identical and carry the sha256 of train.jsonl's bytes
    root, _, cfg_path, data = workdir
    monkeypatch.chdir(data.parent)
    reports = []
    for n, data_arg in enumerate((data.name, str(data))):
        out = tmp_path / f"premerged{n}.json"
        assert main(["train", "--stage", "premerged", "--config", str(cfg_path),
                     "--data", data_arg, "--ckpt-in", str(root / "experts.json"),
                     "--ckpt-out", str(out)]) == 0
        reports.append(Path(f"{out}.report.json").read_bytes())
    assert reports[0] == reports[1]
    doc = json.loads(reports[0])
    assert "data" not in doc
    assert doc["data_sha256"] == hashlib.sha256((data / "train.jsonl").read_bytes()).hexdigest()


def test_train_report_hashes_the_bytes_it_trained_on(workdir, tmp_path, monkeypatch):
    # train.jsonl is replaced while the stage runs: the report names the
    # bytes that were parsed and trained on, not the file left afterwards
    root, _, cfg_path, data = workdir
    moved = tmp_path / "data"
    moved.mkdir()
    original = (data / "train.jsonl").read_bytes()
    (moved / "train.jsonl").write_bytes(original)
    real = cli.train_stage

    def rewriting_stage(model, stage, samples):
        reports = real(model, stage, samples)
        write_jsonl(moved / "train.jsonl", samples[:5])
        return reports

    monkeypatch.setattr(cli, "train_stage", rewriting_stage)
    out = tmp_path / "premerged.json"
    assert main(["train", "--stage", "premerged", "--config", str(cfg_path),
                 "--data", str(moved), "--ckpt-in", str(root / "experts.json"),
                 "--ckpt-out", str(out)]) == 0
    assert (moved / "train.jsonl").read_bytes() != original
    doc = json.loads(Path(f"{out}.report.json").read_text())
    assert doc["data_sha256"] == hashlib.sha256(original).hexdigest()
    assert doc["n_samples"] == 48


def test_train_router_without_ckpt_in_fails(workdir, tmp_path, capsys):
    # a fresh model's task experts are untrained: refused before any work,
    # with no checkpoint or report written
    root, _, cfg_path, data = workdir
    ckpt_out = tmp_path / "r.json"
    rc = main(["train", "--stage", "router", "--config", str(cfg_path),
               "--data", str(data), "--ckpt-out", str(ckpt_out)])
    assert rc == 3
    assert "task experts look untrained" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_train_premerged_needs_no_ckpt_in(workdir, tmp_path):
    # the pre-merged run reads only the frozen base and its own init, so it
    # trains the same tensors and report from a fresh model as from the
    # experts checkpoint
    root, _, cfg_path, data = workdir
    ckpt_out = tmp_path / "p.json"
    assert main(["train", "--stage", "premerged", "--config", str(cfg_path),
                 "--data", str(data), "--ckpt-out", str(ckpt_out)]) == 0
    fresh = load_checkpoint(ckpt_out)
    assert fresh.stage_completed == "premerged"
    chained = load_checkpoint(root / "premerged.json").model
    names = chained.adapter_param_names("premerged")
    for name in names:
        np.testing.assert_array_equal(fresh.model.params[name], chained.params[name])
    assert (Path(f"{ckpt_out}.report.json").read_bytes()
            == (root / "premerged.json.report.json").read_bytes())


def test_train_router_from_experts_checkpoint_fails(workdir, tmp_path, capsys):
    # skipping the premerged stage leaves its adapter untrained
    root, _, cfg_path, data = workdir
    ckpt_out = tmp_path / "r.json"
    rc = main(["train", "--stage", "router", "--config", str(cfg_path),
               "--data", str(data), "--ckpt-in", str(root / "experts.json"),
               "--ckpt-out", str(ckpt_out)])
    assert rc == 3
    assert "pre-merged adapter looks untrained" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_eval_command_writes_report(workdir, tmp_path, capsys):
    root, _, _, data = workdir
    out = tmp_path / "eval.json"
    rc = main(["eval", "--ckpt", str(root / "router.json"),
               "--data", str(data / "eval_single.jsonl"), "--out", str(out)])
    assert rc == 0
    doc = json.loads(out.read_text())
    assert doc["only"] is None and doc["n_samples"] == 12
    assert set(doc["routing_accuracy"]) == {"function", "domain", "style"}
    printed = json.loads(capsys.readouterr().out)
    assert printed == doc


class _ClosedPipe:
    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")

    def flush(self):
        pass


def test_closed_stdout_still_writes_out_file(workdir, tmp_path, monkeypatch):
    # a reader that closes the pipe early (``| head -1``) makes the report's
    # print fail; the --out file is written before it, and main exits 2
    root, _, _, data = workdir
    commands = {"eval": ["eval", "--ckpt", str(root / "router.json"),
                         "--data", str(data / "eval_single.jsonl")],
                "gradcheck": ["gradcheck"]}
    for name, argv in commands.items():
        want, got = tmp_path / f"{name}_want.json", tmp_path / f"{name}_got.json"
        assert main(argv + ["--out", str(want)]) == 0
        with monkeypatch.context() as m:
            m.setattr("sys.stdout", _ClosedPipe())
            assert main(argv + ["--out", str(got)]) == 2
        assert got.read_bytes() == want.read_bytes()


def test_eval_lam_override_matches_premerged_adapter(workdir, tmp_path):
    root, _, _, data = workdir
    out_a, out_b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["eval", "--ckpt", str(root / "router.json"),
                 "--data", str(data / "eval_single.jsonl"),
                 "--lam", "0.0", "--out", str(out_a)]) == 0
    assert main(["eval", "--ckpt", str(root / "router.json"),
                 "--data", str(data / "eval_single.jsonl"),
                 "--only", "premerged", "--out", str(out_b)]) == 0
    a = json.loads(out_a.read_text())
    b = json.loads(out_b.read_text())
    assert a["mean_loss"] == pytest.approx(b["mean_loss"], rel=1e-12)


@pytest.mark.parametrize("flags", [["--only", "none"], ["--only", "reverse"]])
def test_eval_constant_mixture_writes_null_routing(workdir, tmp_path, flags):
    # no router runs without the learned mixture, so there is no routing to report
    root, _, _, data = workdir
    out = tmp_path / "eval.json"
    assert main(["eval", "--ckpt", str(root / "router.json"),
                 "--data", str(data / "eval_single.jsonl"), *flags, "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["only"] == flags[1] and doc["n_samples"] == 12
    assert doc["routing_accuracy"] is doc["mean_group_entropy"] is None
    assert '"routing_accuracy": null' in out.read_text()


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
    ["--only", "identity", "--lam", "0.5"],
    ["--only", "none", "--lam", "0.0"],
    ["--lam", "1.0", "--only", "premerged"],
    ["--lam", "0.5", "--only", "none"],
    ["--only", "bogus", "--lam", "0.5"],
])
def test_eval_rejects_flags_its_mode_does_not_use(workdir, tmp_path, monkeypatch, flags):
    # a constant mixture (--only) runs no router, so it takes no lambda:
    # argparse exits 2 before the checkpoint loads
    root, _, _, data = workdir

    def no_work(*args, **kwargs):
        raise AssertionError("reached checkpoint loading or evaluation")

    for name in ("load_checkpoint", "evaluate"):
        monkeypatch.setattr(cli, name, no_work)
    out = tmp_path / "eval.json"
    with pytest.raises(SystemExit) as exc:
        main(["eval", "--ckpt", str(root / "router.json"),
              "--data", str(data / "eval_multi.jsonl"), *flags, "--out", str(out)])
    assert exc.value.code == 2
    assert not out.exists()


def test_eval_report_names_its_mixture(workdir, tmp_path):
    # "only" is null for the learned mixture, which reports the lambda it ran at
    root, cfg, _, data = workdir
    forms = {(): (None, cfg.atmoe.lam), ("--lam", "0.25"): (None, 0.25),
             ("--only", "none"): ("none", None), ("--only", "reverse"): ("reverse", None)}
    for flags, (only, lam) in forms.items():
        out = tmp_path / "eval.json"
        assert main(["eval", "--ckpt", str(root / "router.json"),
                     "--data", str(data / "eval_single.jsonl"), *flags, "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert (doc["only"], doc["lambda"]) == (only, lam), flags


def test_eval_rejects_adapter_id_the_checkpoint_lacks(workdir, tmp_path, monkeypatch, capsys):
    root, _, _, data = workdir

    def no_work(*args, **kwargs):
        raise AssertionError("reached data reading or evaluation")

    for name in ("read_jsonl", "evaluate"):
        monkeypatch.setattr(cli, name, no_work)
    out = tmp_path / "eval.json"
    assert main(["eval", "--ckpt", str(root / "router.json"),
                 "--data", str(data / "eval_multi.jsonl"), "--only", "bogus",
                 "--out", str(out)]) == 2
    assert not out.exists()
    err = capsys.readouterr().err
    assert err.startswith("error: unknown adapter id: 'bogus'; the model has ['identity', ")


@pytest.mark.parametrize("command", ["train", "eval", "inspect", "gradcheck"])
def test_missing_output_directory_is_refused_before_any_work(workdir, tmp_path, monkeypatch,
                                                             capsys, command):
    # the write would fail only once the stage or report is done; the
    # directory is checked before any data, checkpoint or training
    root, _, cfg_path, data = workdir

    def no_work(*args, **kwargs):
        raise AssertionError("reached data reading, checkpoint loading or the work")

    for name in ("read_jsonl", "parse_jsonl", "load_checkpoint", "train_stage", "evaluate",
                 "grad_check"):
        monkeypatch.setattr(cli, name, no_work)
    out = tmp_path / "absent" / "out.json"
    argv = {
        "train": ["train", "--stage", "premerged", "--config", str(cfg_path),
                  "--data", str(data), "--ckpt-in", str(root / "experts.json")],
        "eval": ["eval", "--ckpt", str(root / "router.json"),
                 "--data", str(data / "eval_multi.jsonl")],
        "inspect": ["inspect", "--ckpt", str(root / "router.json"), "--tokens", "0,3,6,1"],
        "gradcheck": ["gradcheck"],
    }[command]
    flag = "--ckpt-out" if command == "train" else "--out"
    assert main([*argv, flag, str(out)]) == 2
    assert capsys.readouterr().err == f"error: the directory of {out} does not exist\n"
    assert not out.parent.exists()


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

    def dying_run_stage(model, samples, adapter_id, stage, stage_tag, cache):
        if stage_tag == "expert:increment":
            os._exit(1)
        return run_stage(model, samples, adapter_id, stage, stage_tag, cache)

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


@pytest.mark.parametrize("bad", ["99999999999999999999", "-1", "40"])
def test_inspect_rejects_token_id_outside_vocab(workdir, tmp_path, capsys, bad):
    # vocab_size is 40; a huge id would overflow int64, a negative one wrap
    root, _, _, _ = workdir
    out = tmp_path / "x.csv"
    rc = main(["inspect", "--ckpt", str(root / "router.json"),
               f"--tokens=3,{bad}", "--out", str(out)])
    assert rc == 2
    assert f"token id {bad} lies outside [0, 40)" in capsys.readouterr().err
    assert not out.exists()


def test_gradcheck_passes_and_negative_control(tmp_path):
    out = tmp_path / "grad.json"
    assert main(["gradcheck", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["passed"] is True
    assert doc["max_rel_error"] < doc["tolerance"] == 1e-4
    assert set(doc["classes"]) == {"group_router", "intra_router", "lora_a",
                                   "lora_b", "embeddings", "unembedding"}
    assert main(["gradcheck", "--inject-error"]) == 5


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


def test_gen_data_names_a_config_that_is_not_utf8(tmp_path, capsys):
    bad = tmp_path / "cfg.json"
    bad.write_bytes(b"\xff\xfe{}")
    assert main(["gen-data", "--config", str(bad), "--out", str(tmp_path / "d")]) == 2
    assert f"cannot read config {bad}: 'utf-8' codec" in capsys.readouterr().err


def test_eval_names_the_data_line_that_is_not_utf8(workdir, tmp_path, capsys):
    root, _, _, data = workdir
    lines = (data / "eval_single.jsonl").read_bytes().splitlines(keepends=True)
    bad = tmp_path / "eval.jsonl"
    bad.write_bytes(b"".join(lines[:2]) + b"\xff\xfe" + lines[2])
    assert main(["eval", "--ckpt", str(root / "router.json"), "--data", str(bad)]) == 2
    assert f"{bad}: line 3: 'utf-8' codec" in capsys.readouterr().err


def test_gen_data_rejects_payload_longer_than_max_seq_len(workdir, tmp_path):
    # payload_max 7 allows 2*7 + 7 = 21 tokens; the model takes 20
    _, cfg, _, _ = workdir
    cfg = dataclasses.replace(cfg, taskgen=dataclasses.replace(cfg.taskgen, payload_max=7))
    cfg_path = tmp_path / "cfg.json"
    save_config(cfg, cfg_path)
    out = tmp_path / "data"
    assert main(["gen-data", "--config", str(cfg_path), "--out", str(out)]) == 2
    assert not out.exists()


def test_gen_data_rejects_vocab_below_the_payload_ids(workdir, tmp_path):
    # payload ids run to 39; data with them would fail every train and eval
    _, cfg, _, _ = workdir
    cfg = dataclasses.replace(cfg, model=dataclasses.replace(cfg.model, vocab_size=30))
    cfg_path = tmp_path / "cfg.json"
    save_config(cfg, cfg_path)
    out = tmp_path / "data"
    assert main(["gen-data", "--config", str(cfg_path), "--out", str(out)]) == 2
    assert not out.exists()


def test_gen_data_reproduces_the_committed_default_data(tmp_path):
    # the task table and the generator fix these bytes
    out = tmp_path / "data"
    assert main(["gen-data", "--config", str(ROOT / "configs" / "default.json"),
                 "--out", str(out)]) == 0
    committed = ROOT / "runs" / "verify" / "data"
    names = sorted(p.name for p in committed.iterdir())
    assert len(names) == 4 and names == sorted(p.name for p in out.iterdir())
    for name in names:
        assert (out / name).read_bytes() == (committed / name).read_bytes(), name


def _with_groups(cfg: Config, groups: dict) -> Config:
    return dataclasses.replace(cfg, groups=tuple(GroupDef(n, tuple(e)) for n, e in groups.items()))


# groups the task table does not hold, each with the name its error must give
TABLE_BREAKS = {
    "renamed_group": ({"fn" if n == "function" else n: e for n, e in GROUPS.items()}, "'fn'"),
    "unknown_expert": ({**GROUPS, "function": ("identity", "reverse", "sort")}, "'sort'"),
    "domain_expert_in_style": ({**GROUPS, "domain": ("high_range",),
                                "style": ("plain_end", "echo_first", "low_range")}, "'low_range'"),
}


@pytest.mark.parametrize("case", sorted(TABLE_BREAKS))
def test_gen_data_and_train_reject_groups_outside_the_task_table(workdir, tmp_path, monkeypatch,
                                                                 capsys, case):
    # the generator labels relevance with the table's names, so such an expert
    # would get no training sample, or its group no routing label; refused
    # before any sample is generated and, in every stage, before any work
    _, cfg, _, data = workdir
    groups, offender = TABLE_BREAKS[case]
    cfg_path = tmp_path / "cfg.json"
    save_config(_with_groups(cfg, groups), cfg_path)

    def no_work(*args, **kwargs):
        raise AssertionError("reached generation, the prefix cache or training")

    monkeypatch.setattr(cli, "generate", no_work)
    monkeypatch.setattr(training, "PrefixCache", no_work)
    out = tmp_path / "data"
    assert main(["gen-data", "--config", str(cfg_path), "--out", str(out)]) == 2
    assert offender in capsys.readouterr().err
    assert not out.exists()
    for stage in STAGES:
        ckpt_out = tmp_path / f"{stage}.json"
        assert main(["train", "--stage", stage, "--config", str(cfg_path), "--data", str(data),
                     "--ckpt-out", str(ckpt_out)]) == 2
        assert offender in capsys.readouterr().err
        assert not ckpt_out.exists()


def test_eval_rejects_checkpoint_groups_outside_the_task_table(workdir, tmp_path, monkeypatch,
                                                              capsys):
    # routing accuracy looks each group's name up in the relevance labels; a
    # re-signed checkpoint with a renamed group is refused before any batch
    # (else it would score that group 0.0)
    root, _, _, data = workdir
    doc = json.loads((root / "router.json").read_text())
    for group in doc["config"]["groups"]:
        if group["name"] == "function":
            group["name"] = "fn"
    renamed = _rechecksummed(doc, tmp_path / "renamed.json")

    def no_work(*args, **kwargs):
        raise AssertionError("reached a batch")

    monkeypatch.setattr(training, "batch_arrays", no_work)
    out = tmp_path / "eval.json"
    assert main(["eval", "--ckpt", str(renamed), "--data", str(data / "eval_single.jsonl"),
                 "--out", str(out)]) == 2
    assert "'fn'" in capsys.readouterr().err
    assert not out.exists()


def test_function_group_alone_still_runs(workdir, tmp_path):
    # the groups are a selection from the table, not all of it
    _, cfg, _, _ = workdir
    cfg_path = tmp_path / "cfg.json"
    save_config(_with_groups(cfg, {"function": GROUPS["function"]}), cfg_path)
    data = tmp_path / "data"
    assert main(["gen-data", "--config", str(cfg_path), "--out", str(data)]) == 0
    for prev, stage in zip((None,) + STAGES, STAGES):
        argv = ["train", "--stage", stage, "--config", str(cfg_path), "--data", str(data),
                "--ckpt-out", str(tmp_path / f"{stage}.json")]
        if prev:
            argv += ["--ckpt-in", str(tmp_path / f"{prev}.json")]
        assert main(argv) == 0


def test_gen_data_rejects_a_train_split_that_leaves_an_expert_without_samples(workdir, tmp_path,
                                                                             capsys):
    # 3 samples cannot reach all 7 experts; train --stage experts would refuse the data
    _, cfg, _, _ = workdir
    cfg_path = tmp_path / "cfg.json"
    save_config(dataclasses.replace(cfg, taskgen=dataclasses.replace(cfg.taskgen, n_train=3)),
                cfg_path)
    out = tmp_path / "data"
    assert main(["gen-data", "--config", str(cfg_path), "--out", str(out)]) == 2
    assert "empty data bucket for task(s)" in capsys.readouterr().err
    assert list(out.glob("*.jsonl")) == []


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

    for name in ("read_jsonl", "parse_jsonl", "load_checkpoint", "train_stage"):
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
    # labels outside the task table would score routing 0.0 or shrink a bucket
    "relevant_experts_unknown_task": lambda r: dict(r, relevant_experts=dict(
        r["relevant_experts"], function=["bogus"])),
    "relevant_experts_missing_group": lambda r: dict(r, relevant_experts={
        g: ids for g, ids in r["relevant_experts"].items() if g != "domain"}),
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
