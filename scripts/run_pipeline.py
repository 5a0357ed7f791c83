#!/usr/bin/env python
"""Run the full desk experiment: data generation, the training stages in
pipeline order, evaluation on both eval splits, and a routing CSV dump.

Everything goes through the CLI entry points, so this doubles as an
end-to-end exercise of the command surface. The first line names the CPUs
the process may run on, each command's wall time is printed after it, and
the total at the end. Artifacts land in --workdir.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

from atmoe.cli import main as cli
from atmoe.config import STAGES

REPO = Path(__file__).resolve().parent.parent


def run(argv: list[str]) -> None:
    print(f"$ atmoe {' '.join(argv)}")
    t0 = time.perf_counter()
    code = cli(argv)
    if code != 0:
        raise SystemExit(f"command failed with exit code {code}: {argv}")
    print(f"  wall time: {time.perf_counter() - t0:.1f}s")


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--config", default=str(REPO / "configs" / "default.json"))
    ap.add_argument("--workdir", default=str(REPO / "runs" / "default"))
    args = ap.parse_args()

    print(f"cpus: {len(os.sched_getaffinity(0))}")
    work = Path(args.workdir)
    data = work / "data"
    work.mkdir(parents=True, exist_ok=True)
    t0 = time.time()

    run(["gen-data", "--config", args.config, "--out", str(data)])
    for i, stage in enumerate(STAGES):
        ckpt_in = ["--ckpt-in", str(work / f"ckpt_{STAGES[i - 1]}.json")] if i else []
        run(["train", "--stage", stage, "--config", args.config, "--data", str(data),
             *ckpt_in, "--ckpt-out", str(work / f"ckpt_{stage}.json")])

    ckpt = str(work / "ckpt_router.json")
    run(["eval", "--ckpt", ckpt, "--data", str(data / "eval_single.jsonl"),
         "--out", str(work / "eval_single.json")])
    run(["eval", "--ckpt", ckpt, "--data", str(data / "eval_multi.jsonl"),
         "--out", str(work / "eval_multi.json")])
    run(["eval", "--ckpt", ckpt, "--data", str(data / "eval_multi.jsonl"),
         "--lam", "0.0", "--out", str(work / "eval_multi_lam0.json")])
    run(["inspect", "--ckpt", ckpt, "--tokens", "0,3,6,1", "--out", str(work / "routing.csv")])

    single = json.loads((work / "eval_single.json").read_text())
    multi = json.loads((work / "eval_multi.json").read_text())
    lam0 = json.loads((work / "eval_multi_lam0.json").read_text())
    print(f"\nsingle-intent: loss {single['mean_loss']:.4f}, "
          f"function routing acc {single['routing_accuracy']['function']:.3f}")
    print(f"multi-intent:  loss {multi['mean_loss']:.4f} (full) "
          f"vs {lam0['mean_loss']:.4f} (pre-merged only)")
    print(f"total wall time: {time.time() - t0:.1f}s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
