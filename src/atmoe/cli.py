"""Command-line entry point: dataset generation, staged training, evaluation,
routing-weight CSV dumps, and gradient verification.

Exit codes: 0 success, 2 input error, 3 stage-order error, 4 corrupt
checkpoint, 5 verification failure, 6 a training worker died (no checkpoint
written).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path

import numpy as np

from .checkpoint import (STAGES, CheckpointError, canonical_json, load_checkpoint,
                         require_stage, save_checkpoint)
from .config import Config, ConfigError, ModelSection, load_config, write_text
from .model import MODES, ToyTransformer
from .numerics import derive_rng, mix_seed
from .taskgen import TaskCatalog, generate, read_jsonl, write_jsonl
from .training import StageOrderError, evaluate, grad_check, train_stage

CSV_HEADER = ("layer,token_index,group_id,group_name,expert_slot,"
              "adapter_id,group_weight,intra_weight,combined_weight")
PAD_SLOT = "PAD"  # the adapter_id of a padded slot
GRAD_TOLERANCE = 1e-4


def _write_json(path: str | Path, doc: dict) -> None:
    write_text(path, json.dumps(doc, indent=2, sort_keys=True) + "\n")


# ------------------------------------------------------------------ gen-data

def cmd_gen_data(args) -> int:
    cfg = load_config(args.config)
    tg = cfg.taskgen
    catalog = TaskCatalog(payload_min_len=tg.payload_min, payload_max_len=tg.payload_max)
    if catalog.max_sequence_len() > cfg.model.max_seq_len:
        raise ConfigError(
            f"taskgen.payload_max {tg.payload_max} gives sequences of up to "
            f"{catalog.max_sequence_len()} tokens, above model.max_seq_len "
            f"{cfg.model.max_seq_len}")
    seeds = {name: mix_seed(tg.seed, f"data:{name}")
             for name in ("train", "eval_single", "eval_multi")}
    datasets = {
        "train": generate(catalog, tg.n_train, seeds["train"], tg.multi_intent_fraction),
        "eval_single": generate(catalog, tg.n_eval_single, seeds["eval_single"], 0.0),
        "eval_multi": generate(catalog, tg.n_eval_multi, seeds["eval_multi"], 1.0),
    }
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for name, samples in datasets.items():
        write_jsonl(out / f"{name}.jsonl", samples)
    manifest = {
        "counts": {name: len(s) for name, s in datasets.items()},
        "seeds": seeds,
        "multi_intent_fraction": tg.multi_intent_fraction,
        "files": [f"{name}.jsonl" for name in datasets],
    }
    _write_json(out / "manifest.json", manifest)
    print(f"wrote {sum(len(s) for s in datasets.values())} samples across "
          f"{len(datasets)} files to {out}")
    return 0


# --------------------------------------------------------------------- train

def _check_samples(samples, m: ModelSection, source: str | Path) -> None:
    """Reject data the model cannot take before any work runs: each sample
    must fit ``max_seq_len``, hold only ids in [0, vocab_size) and have a
    target token to score."""
    for n, s in enumerate(samples, 1):
        seq = s.tokens()
        if len(seq) > m.max_seq_len:
            raise ValueError(f"{source}: sample {n} has {len(seq)} tokens, above "
                             f"model.max_seq_len {m.max_seq_len}")
        if not 0 <= min(seq) <= max(seq) < m.vocab_size:
            raise ValueError(f"{source}: sample {n} holds a token id outside "
                             f"[0, {m.vocab_size})")
        if not s.target_tokens:
            raise ValueError(f"{source}: sample {n} has no target token")


def cmd_train(args) -> int:
    cfg = load_config(args.config)
    train_path = Path(args.data) / "train.jsonl"
    samples = read_jsonl(train_path)
    _check_samples(samples, cfg.model, train_path)

    loaded = load_checkpoint(args.ckpt_in) if args.ckpt_in else None
    needed = STAGES[STAGES.index(args.stage) - 1]  # the stage this one builds on
    require_stage(loaded.stage_completed if loaded else "none", needed, args.stage)
    if loaded:
        if canonical_json(loaded.model.cfg.to_dict()) != canonical_json(cfg.to_dict()):
            raise ConfigError("config file disagrees with the checkpoint's embedded config")
        model = loaded.model
    else:
        model = ToyTransformer(cfg)
    reports = train_stage(model, args.stage, samples, cfg)

    save_checkpoint(args.ckpt_out, model, args.stage)
    report_doc = {
        "stage": args.stage,
        "data": str(train_path),
        "n_samples": len(samples),
        "reports": [dataclasses.asdict(r) for r in reports],
    }
    _write_json(f"{args.ckpt_out}.report.json", report_doc)
    for r in reports:
        label = r.adapter_id or "routers"
        print(f"{args.stage}/{label}: loss {r.initial_loss:.4f} -> {r.final_loss:.4f} "
              f"over {r.epochs} epochs ({r.n_samples} samples)")
    print(f"checkpoint: {args.ckpt_out} (stage_completed={args.stage})")
    return 0


# ---------------------------------------------------------------------- eval

def cmd_eval(args) -> int:
    if args.lam is not None and not 0.0 <= args.lam <= 1.0:  # NaN fails too
        raise ValueError(f"--lam must lie in [0, 1], got {args.lam}")
    if (args.adapter_id is None) == (args.mode == "adapter"):
        raise ValueError("--adapter-id is required by --mode adapter and valid only there")
    if args.lam is not None and args.mode != "full":
        raise ValueError("--lam applies only to --mode full")
    loaded = load_checkpoint(args.ckpt)
    if args.adapter_id is not None and args.adapter_id not in loaded.model.adapter_ids:
        raise ValueError(f"unknown adapter id {args.adapter_id!r}; the checkpoint has "
                       f"{loaded.model.adapter_ids}")
    data = read_jsonl(args.data)
    _check_samples(data, loaded.model.cfg.model, args.data)
    report = evaluate(loaded.model, data, mode=args.mode,
                      adapter_id=args.adapter_id, lam_override=args.lam)
    doc = dataclasses.asdict(report)
    print(json.dumps(doc, indent=2, sort_keys=True))
    if args.out:
        _write_json(args.out, doc)
    return 0


# ------------------------------------------------------------------- inspect

def cmd_inspect(args) -> int:
    loaded = load_checkpoint(args.ckpt)
    model = loaded.model
    fields = [t.strip() for t in args.tokens.split(",") if t.strip()]
    if not fields:
        raise ValueError("no tokens given")
    tokens = np.asarray([int(t) for t in fields], dtype=np.int64)
    lines = [CSV_HEADER]
    for layer_i, (gw, iw) in enumerate(model.layer_routing_trace(tokens)):
        for t_i in range(len(tokens)):
            for g, group in enumerate(model.groups):
                for m in range(model.cfg.max_group_size):
                    aid = group.experts[m] if m < len(group.experts) else PAD_SLOT
                    lines.append(
                        f"{layer_i},{t_i},{g},{group.name},{m},{aid},{gw[t_i, g]:.9f},"
                        f"{iw[t_i, g, m]:.9f},{gw[t_i, g] * iw[t_i, g, m]:.9f}")
    write_text(args.out, "\n".join(lines) + "\n")
    print(f"wrote {len(lines) - 1} rows to {args.out}")
    return 0


# ----------------------------------------------------------------- gradcheck

def gradcheck_config(seed: int = 7) -> Config:
    """Tiny dims keep the finite-difference sweep well-conditioned and fast."""
    cfg = Config(seed=seed)
    cfg.model = ModelSection(vocab_size=8, d_model=4, n_layers=1, n_heads=2,
                             d_ff=8, max_seq_len=8, rank=2, base_init="random")
    cfg.validate()
    return cfg


def parameter_classes(model: ToyTransformer) -> dict[str, list[str]]:
    """Trainable parameter families, keyed for the verification report."""
    L = model.cfg.model.n_layers
    return {
        "group_router": [f"blocks.{i}.moe.wg" for i in range(L)],
        "intra_router": [f"blocks.{i}.moe.wd" for i in range(L)],
        "lora_a": [f"blocks.{i}.moe.experts.{aid}.A"
                   for i in range(L) for aid in model.adapter_ids],
        "lora_b": [f"blocks.{i}.moe.experts.{aid}.B"
                   for i in range(L) for aid in model.adapter_ids],
        "embeddings": ["tok_emb", "pos_emb"],
        "unembedding": ["unembed"],
    }


def jitter_params(model: ToyTransformer, std: float = 0.05) -> None:
    """Push every tensor off its init point; an all-zero B silences the A
    gradient and would make that class's check vacuous."""
    for name in sorted(model.params):
        rng = derive_rng(model.cfg.seed, "gradcheck:jitter", name)
        model.params[name] = model.params[name] + rng.normal(0.0, std, model.params[name].shape)


def cmd_gradcheck(args) -> int:
    if not (math.isfinite(args.tolerance) and args.tolerance > 0.0):
        raise ValueError(f"--tolerance must be a positive finite number, got {args.tolerance}")
    cfg = load_config(args.config) if args.config else gradcheck_config()
    model = ToyTransformer(cfg)
    jitter_params(model)
    T = min(cfg.model.max_seq_len, 6)
    tokens = derive_rng(cfg.seed, "gradcheck:tokens").integers(0, cfg.model.vocab_size, size=T)
    errors = {}
    for idx, (name, names) in enumerate(parameter_classes(model).items()):
        errors[name] = grad_check(model, tokens, names,
                                  inject_error=(args.inject_error and idx == 0))
    worst = max(errors.values())
    passed = worst < args.tolerance
    doc = {
        "classes": errors,
        "max_rel_error": worst,
        "tolerance": args.tolerance,
        "passed": passed,
    }
    print(json.dumps(doc, indent=2, sort_keys=True))
    if args.out:
        _write_json(args.out, doc)
    return 0 if passed else 5


# ---------------------------------------------------------------------- main

def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="atmoe",
                                description="Grouped-routing adapter mixture on a toy transformer")
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen-data", help="generate the synthetic datasets")
    g.add_argument("--config", required=True)
    g.add_argument("--out", required=True)
    g.set_defaults(func=cmd_gen_data)

    t = sub.add_parser("train", help="run one training stage")
    t.add_argument("--stage", required=True, choices=STAGES[1:])
    t.add_argument("--config", required=True)
    t.add_argument("--data", required=True, help="directory holding train.jsonl")
    t.add_argument("--ckpt-in", default=None)
    t.add_argument("--ckpt-out", required=True)
    t.set_defaults(func=cmd_train)

    e = sub.add_parser("eval", help="evaluate a checkpoint on a dataset")
    e.add_argument("--ckpt", required=True)
    e.add_argument("--data", required=True)
    e.add_argument("--mode", default="full", choices=MODES)
    e.add_argument("--adapter-id", default=None)
    e.add_argument("--lam", type=float, default=None)
    e.add_argument("--out", default=None)
    e.set_defaults(func=cmd_eval)

    i = sub.add_parser("inspect", help="dump routing weights for a token sequence")
    i.add_argument("--ckpt", required=True)
    i.add_argument("--tokens", required=True, help="comma-separated token ids")
    i.add_argument("--out", required=True)
    i.set_defaults(func=cmd_inspect)

    c = sub.add_parser("gradcheck", help="verify analytic gradients against finite differences")
    c.add_argument("--config", default=None)
    c.add_argument("--tolerance", type=float, default=GRAD_TOLERANCE)
    c.add_argument("--inject-error", action="store_true")
    c.add_argument("--out", default=None)
    c.set_defaults(func=cmd_gradcheck)
    return p


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except StageOrderError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except CheckpointError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except BrokenProcessPool as exc:
        print(f"error: a training worker died; no checkpoint written ({exc})", file=sys.stderr)
        return 6
    except (ConfigError, ValueError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
