"""The three workloads, driving ``atmoe.cli.main`` in this process the way
``scripts/run_pipeline.py`` does, plus the checks run on their outputs.

Every CLI invocation is one operation. It fails when it exits non-zero, raises,
or reports a non-finite loss; a failed operation ends the workload, because
later commands read its outputs. A failed check is recorded and the run goes
on, so that one run reports every check that fails.
"""

from __future__ import annotations

import io
import json
import math
import os
import statistics
import sys
import traceback
import zlib
from contextlib import nullcontext, redirect_stdout
from pathlib import Path
from time import perf_counter

from atmoe.checkpoint import load_checkpoint
from atmoe.cli import main as cli_main
from atmoe.config import Config, load_config
from atmoe.model import ToyTransformer
from atmoe.taskgen import SEP, TaskCatalog, generate, write_jsonl

SETUP_REPEATS = 3
EVAL_MIN_PASSES = 3  # the quality metrics of `eval` come from these passes
INSPECT_PER_PASS = 4
CSV_DECIMALS = 9  # `inspect` writes weights with 9 decimals

# Epochs per stage (experts, premerged, router). The stages a workload times
# run 2 epochs: a falling loss can be checked, and every sample is seen twice
# within one invocation, the reuse a frozen-prefix cache would exploit. The
# set-up stages that only produce a starting checkpoint run 1.
EPOCHS = {
    "experts": (2, 2, 1),
    "router": (1, 1, 2),
    "eval": (1, 1, 1),
}
STAGES = ("experts", "premerged", "router")


def _stolen_s() -> float:
    """CPU time the hypervisor gave to other guests while this machine's CPUs
    had work: the `steal` column of /proc/stat, summed over CPUs. 0 where the
    kernel does not report it."""
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            return int(fh.readline().split()[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return 0.0


def mark() -> tuple[float, float]:
    return perf_counter(), _stolen_s()


def busy_since(start: tuple[float, float]) -> float:
    """Wall seconds since `start` minus the CPU time stolen meanwhile.

    On a shared host the steal comes in bursts of seconds that slow a unit by
    up to half; the program's own time is what a change to it can move."""
    wall = perf_counter() - start[0]
    stolen = _stolen_s() - start[1]
    return wall - stolen if stolen < wall else wall


class OperationFailed(Exception):
    """A CLI invocation failed; the workload cannot go on."""


def write_config(path: Path, seed: int, epochs: tuple[int, int, int]) -> None:
    """The program's default config with the shapes pinned, the seeds taken
    from the workload seed, and the epoch counts reduced."""
    doc = Config().to_dict()
    doc["seed"] = seed
    doc["model"].update(d_model=32, d_ff=64, n_layers=2, max_seq_len=24)
    doc["taskgen"].update(seed=seed, n_train=2000, n_eval_single=500, n_eval_multi=500,
                          payload_min=3, payload_max=8)
    for stage, n in zip(STAGES, epochs):
        doc["training"][stage].update(epochs=n, batch_size=32)
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def read_records(path: Path) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def sequence(record: dict) -> list[int]:
    return record["instruction"] + record["input"] + [SEP] + record["target"]


class Bench:
    """One benchmark run: its CLI invocations, failure counts and checks."""

    def __init__(self, workload: str, seed: int, work: Path, tracer):
        self.workload = workload
        self.seed = seed
        self.work = work
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.info: dict = {}
        self.cfg_path: Path | None = None
        self.data: Path | None = None
        self.start_ckpt: Path | None = None

    # ---------------------------------------------------------- operations

    def cli(self, *argv) -> float:
        """Run one atmoe command; return its busy time in seconds."""
        argv = [str(a) for a in argv]
        self.attempted += 1
        t0 = mark()
        try:
            with self.tracer.span("cli.main." + argv[0].replace("-", "_")), \
                    redirect_stdout(io.StringIO()):
                code = cli_main(argv)
        except Exception as exc:  # the operation failed; report it and stop
            traceback.print_exc(file=sys.stderr)
            code = f"{type(exc).__name__}: {exc}"
        seconds = busy_since(t0)
        if code != 0:
            self.fail(f"atmoe {' '.join(argv)} -> {code}")
        return seconds

    def fail(self, message: str):
        self.failed += 1
        self.problems.append(message)
        raise OperationFailed(message)

    def check(self, ok: bool, message: str) -> None:
        if not ok:
            self.problems.append(message)

    def train(self, stage: str, out: Path, ckpt_in: Path | None = None):
        """One `train` invocation: (seconds, sample-epochs, per-adapter reports)."""
        argv = ["train", "--stage", stage, "--config", self.cfg_path, "--data", self.data,
                "--ckpt-out", out]
        if ckpt_in is not None:
            argv += ["--ckpt-in", ckpt_in]
        seconds = self.cli(*argv)
        reports = json.loads(Path(f"{out}.report.json").read_text(encoding="utf-8"))["reports"]
        if not all(math.isfinite(x) for r in reports for x in r["epoch_losses"]):
            self.fail(f"train --stage {stage}: non-finite loss")
        for r in reports:  # set-up stages run one epoch: nothing to compare
            losses = r["epoch_losses"]
            self.check(len(losses) < 2 or losses[-1] < losses[0],
                       f"train --stage {stage} {r['adapter_id']}: loss did not fall: {losses}")
        return seconds, sum(r["n_samples"] * r["epochs"] for r in reports), reports

    # -------------------------------------------------------------- set-up

    def setup(self, k: int, trace_data: bool = False) -> float:
        """Write the config, generate the data and train the starting
        checkpoint under work/setup<k>; return the busy time."""
        d = self.work / f"setup{k}"
        d.mkdir(parents=True)
        t0 = mark()
        cfg = d / "config.json"
        write_config(cfg, self.seed, EPOCHS[self.workload])
        with self.tracer if trace_data else nullcontext():
            self.cli("gen-data", "--config", cfg, "--out", d / "data")
        self.cfg_path, self.data = cfg, d / "data"
        if self.workload in ("router", "eval"):
            self.train("experts", d / "ckpt_experts.json")
            self.train("premerged", d / "ckpt_premerged.json", d / "ckpt_experts.json")
            self.start_ckpt = d / "ckpt_premerged.json"
        if self.workload == "eval":
            self.train("router", d / "ckpt_router.json", self.start_ckpt)
            self.start_ckpt = d / "ckpt_router.json"
        seconds = busy_since(t0)
        if k > 0:
            self.check_same_setup(self.work / "setup0", d)
        return seconds

    def check_same_setup(self, first: Path, again: Path) -> None:
        """A repeated set-up yields the same inputs. Data is compared by
        content: manifest.json carries a wall-clock `generated_at`."""
        for name in ("train.jsonl", "eval_single.jsonl", "eval_multi.jsonl"):
            self.check(read_records(first / "data" / name) == read_records(again / "data" / name),
                       f"set-up data {name} differs between set-ups")
        manifests = [json.loads((d / "data" / "manifest.json").read_text(encoding="utf-8"))
                     for d in (first, again)]
        for m in manifests:
            m.pop("generated_at", None)
        self.check(manifests[0] == manifests[1], "set-up manifests differ beyond generated_at")
        if self.start_ckpt is not None:
            name = self.start_ckpt.name
            a, b = (load_checkpoint(d / name) for d in (first, again))
            self.check(a.stage_completed == b.stage_completed
                       and a.model.param_checksums() == b.model.param_checksums(),
                       f"set-up checkpoint {name} differs between set-ups")

    # -------------------------------------------------------------- checks

    def check_stage(self, stage: str, before: ToyTransformer, out: Path) -> None:
        """The written checkpoint loads back, and every parameter outside the
        stage's trainable set is unchanged."""
        try:
            loaded = load_checkpoint(out)
        except Exception as exc:  # a checkpoint that does not load is a failed check
            self.check(False, f"{out.name} does not load back: {exc}")
            return
        self.check(loaded.stage_completed == stage,
                   f"{out.name}: stage_completed {loaded.stage_completed!r} != {stage!r}")
        model = loaded.model
        if stage == "experts":
            trainable = [n for tid in model.task_adapter_ids
                         for n in model.adapter_param_names(tid)]
        elif stage == "premerged":
            trainable = model.adapter_param_names("premerged")
        else:
            trainable = model.router_param_names()
        frozen = model.frozen_outside(trainable)
        want, have = before.param_checksums(frozen), model.param_checksums(frozen)
        changed = [n for n in frozen if want[n] != have[n]]
        self.check(not changed, f"{stage} stage changed frozen parameters: {changed[:5]}")

    def check_eval(self, report: dict, data: Path, tag: str) -> None:
        records = read_records(data)
        self.check(report["n_samples"] == len(records),
                   f"eval {tag}: n_samples {report['n_samples']} != {len(records)}")
        scored = sum(len(r["target"]) for r in records)
        self.check(report["n_scored_tokens"] == scored,
                   f"eval {tag}: n_scored_tokens {report['n_scored_tokens']} != {scored}")
        self.check(math.isfinite(report["mean_loss"]), f"eval {tag}: non-finite mean_loss")
        self.check(all(0.0 <= v <= 1.0 for v in report["routing_accuracy"].values()),
                   f"eval {tag}: routing accuracy outside [0, 1]")

    def check_inspect(self, csv_path: Path, n_tokens: int, cfg: Config) -> None:
        """L*T*G*M rows; each (layer, token)'s combined weights sum to 1;
        padded slots carry exactly 0."""
        lines = csv_path.read_text(encoding="utf-8").splitlines()
        L, G, M = cfg.model.n_layers, cfg.n_groups, cfg.max_group_size
        self.check(len(lines) - 1 == L * n_tokens * G * M,
                   f"inspect: {len(lines) - 1} rows, expected {L * n_tokens * G * M}")
        header = lines[0].split(",")
        col = {name: i for i, name in enumerate(header)}
        sums: dict[tuple[str, str], float] = {}
        slots: dict[tuple[str, str], int] = {}
        for line in lines[1:]:
            f = line.split(",")
            key = (f[col["layer"]], f[col["token_index"]])
            w = float(f[col["combined_weight"]])
            if f[col["adapter_id"]] == "PAD":
                self.check(w == 0.0 and float(f[col["intra_weight"]]) == 0.0,
                           f"inspect: padded slot carries weight {line}")
            else:
                slots[key] = slots.get(key, 0) + 1
            sums[key] = sums.get(key, 0.0) + w
        self.check(len(sums) == L * n_tokens, f"inspect: {len(sums)} (layer, token) pairs")
        # each printed weight is rounded to 9 decimals, so a sum over n real
        # slots may be off by n * 0.5e-9 from its exact value
        for key, total in sums.items():
            tol = 1e-9 + slots.get(key, 0) * 0.5 * 10.0 ** -CSV_DECIMALS
            self.check(abs(total - 1.0) <= tol,
                       f"inspect: combined weights of layer/token {key} sum to {total!r}")


# ------------------------------------------------------------------ units

def experts_unit(b: Bench, fresh: ToyTransformer) -> tuple[float, float, list[dict]]:
    """`train --stage experts` from a fresh init, then `--stage premerged`."""
    out = b.work / "out"
    out.mkdir(exist_ok=True)
    t1, n1, r1 = b.train("experts", out / "ckpt_experts.json")
    b.check_stage("experts", fresh, out / "ckpt_experts.json")
    t2, n2, r2 = b.train("premerged", out / "ckpt_premerged.json", out / "ckpt_experts.json")
    b.check_stage("premerged", load_checkpoint(out / "ckpt_experts.json").model,
                  out / "ckpt_premerged.json")
    return t1 + t2, n1 + n2, r1 + r2


def router_unit(b: Bench, start: ToyTransformer) -> tuple[float, float, list[dict]]:
    """`train --stage router` from the set-up checkpoint."""
    out = b.work / "out"
    out.mkdir(exist_ok=True)
    t, n, reports = b.train("router", out / "ckpt_router.json", b.start_ckpt)
    b.check_stage("router", start, out / "ckpt_router.json")
    return t, n, reports


def eval_pass_data(b: Bench, k: int, cfg: Config) -> Path:
    """Fresh single- and multi-intent splits for pass k (not timed)."""
    d = b.work / f"pass{k}"
    if not d.exists():
        d.mkdir()
        tg = cfg.taskgen
        catalog = TaskCatalog(payload_min_len=tg.payload_min, payload_max_len=tg.payload_max)
        for split, n, frac in (("single", tg.n_eval_single, 0.0), ("multi", tg.n_eval_multi, 1.0)):
            s = zlib.crc32(f"{b.seed}:pass{k}:{split}".encode())
            write_jsonl(d / f"{split}.jsonl", generate(catalog, n, s, frac))
    return d


def eval_unit(b: Bench, k: int, cfg: Config) -> tuple[float, float, dict]:
    """One pass: `eval` on both splits, `eval --lam 0` on the multi-intent
    split, and `inspect` on a few sequences; every command reloads the
    checkpoint. Returns (seconds, samples scored, full multi-intent report)."""
    d = eval_pass_data(b, k, cfg)
    ckpt = b.start_ckpt
    seconds = 0.0
    reports = {}
    for tag, split, extra in (("single", "single", []), ("multi", "multi", []),
                              ("multi_lam0", "multi", ["--lam", "0"])):
        seconds += b.cli("eval", "--ckpt", ckpt, "--data", d / f"{split}.jsonl",
                         "--out", d / f"eval_{tag}.json", *extra)
        reports[tag] = json.loads((d / f"eval_{tag}.json").read_text(encoding="utf-8"))
        b.check_eval(reports[tag], d / f"{split}.jsonl", tag)
    b.check(reports["multi_lam0"]["mean_loss"] != reports["multi"]["mean_loss"],
            "eval --lam 0 scored the same loss as the full blend")
    for j, record in enumerate(read_records(d / "multi.jsonl")[:INSPECT_PER_PASS]):
        tokens = sequence(record)
        csv_path = d / f"routing{j}.csv"
        seconds += b.cli("inspect", "--ckpt", ckpt, "--tokens", ",".join(map(str, tokens)),
                         "--out", csv_path)
        b.check_inspect(csv_path, len(tokens), cfg)
    samples = sum(r["n_samples"] for r in reports.values())
    return seconds, samples, reports["multi"]


# -------------------------------------------------------------- workloads

def measure(b: Bench, seconds: float, trace: bool) -> dict:
    """Run the workload; with `trace`, one fixed unit of work untraced and
    then traced. Returns the measurements for the result line."""
    cfg = load_config(b.cfg_path)
    if b.workload == "experts":
        fresh = ToyTransformer(cfg)

        def unit(i):
            return experts_unit(b, fresh)
    elif b.workload == "router":
        start = load_checkpoint(b.start_ckpt).model

        def unit(i):
            return router_unit(b, start)
    else:
        def unit(i):
            return eval_unit(b, i % EVAL_MIN_PASSES if trace else i, cfg)

    if trace:
        n_units = EVAL_MIN_PASSES if b.workload == "eval" else 1
        untraced = _run_units(b, unit, n_units, 0.0)
        with b.tracer:
            traced = _run_units(b, unit, n_units, 0.0)
        b.check(traced["loss"] == untraced["loss"], "tracing changed the results")
        return {"untraced": untraced, "traced": traced}
    min_units = EVAL_MIN_PASSES if b.workload == "eval" else 1
    return _run_units(b, unit, min_units, seconds)


def _run_units(b: Bench, unit, min_units: int, seconds: float) -> dict:
    """Repeat `unit` until `min_units` ran and their busy time reaches `seconds`."""
    times, work, outs = [], [], []
    while len(times) < min_units or sum(times) < seconds:
        t, n, out = unit(len(times))
        times.append(t)
        work.append(n)
        outs.append(out)
    result = {"units": len(times), "unit_s": times}
    if b.workload == "eval":
        first = outs[:EVAL_MIN_PASSES]
        result.update(
            samples_per_s=statistics.median(n / t for n, t in zip(work, times)),
            loss=statistics.fmean(r["mean_loss"] for r in first),
            routing_acc={g: statistics.fmean(r["routing_accuracy"][g] for r in first)
                         for g in first[0]["routing_accuracy"]},
        )
    else:
        # every training unit starts from the same inputs: it repeats bit for bit
        curves = [[r["epoch_losses"] for r in out] for out in outs]
        b.check(all(c == curves[0] for c in curves),
                f"{b.workload}: a repeated invocation gave other losses")
        result.update(samples_per_s=sum(work) / sum(times),
                      loss=statistics.fmean(c[-1] for c in curves[0]))
    return result
