"""In-memory span tracer that times calls into atmoe's modules from outside.

Each traced function is replaced, for the length of a ``with tracer:`` block,
by a wrapper that records one span: ``[name, start, end, parent]``. Every
binding of the function is replaced, not just the defining module's: atmoe
modules use ``from .x import y``, so ``atmoe.training.batched_weights`` and
``atmoe.router.batched_weights`` are separate names for one object. Methods
are replaced on their class. All bindings are restored on exit.

Per-layer metrics are derived from the spans afterwards: a span's self time is
its duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import math
import os
import sys
from contextlib import contextmanager
from time import perf_counter

AUTOGRAD_OPS = ("matmul", "gelu", "layer_norm", "masked_temp_softmax", "cross_entropy",
                "add", "mul", "getitem", "transpose", "reshape", "embedding",
                "reduce_sum", "log")

CLI_COMMANDS = ("gen_data", "train", "eval", "inspect")

# (span name, defining module, attribute path). Stage functions share one span
# name: the stage span is what "training.other.s" is measured against.
TARGETS = (
    ("taskgen.generate", "atmoe.taskgen", "generate"),
    ("taskgen.read_jsonl", "atmoe.taskgen", "read_jsonl"),
    ("taskgen.batch_arrays", "atmoe.taskgen", "batch_arrays"),
    ("model.loss_graph", "atmoe.model", "ToyTransformer.loss_graph"),
    ("model.build_graph", "atmoe.model", "ToyTransformer.build_graph"),
    ("model.layer_routing_trace", "atmoe.model", "ToyTransformer.layer_routing_trace"),
    ("autograd.backward", "atmoe.autograd", "Tensor.backward"),
    *((f"autograd.{op}", "atmoe.autograd", op) for op in AUTOGRAD_OPS),
    ("training.stage", "atmoe.training", "train_expert"),
    ("training.stage", "atmoe.training", "train_premerged"),
    ("training.stage", "atmoe.training", "train_router"),
    ("training.adam", "atmoe.training", "Adam.step"),
    ("training.evaluate", "atmoe.training", "evaluate"),
    ("router.batched_weights", "atmoe.router", "batched_weights"),
    ("composition.routing_report", "atmoe.composition", "routing_report"),
    ("checkpoint.save", "atmoe.checkpoint", "save_checkpoint"),
    ("checkpoint.load", "atmoe.checkpoint", "load_checkpoint"),
)

# Spans whose names are reported as "<name>.calls" and "<name>.s" (self time).
TIMED = (
    "taskgen.generate", "taskgen.read_jsonl", "taskgen.batch_arrays",
    "model.loss_graph", "model.build_graph", "model.layer_routing_trace",
    "autograd.backward", *(f"autograd.{op}" for op in AUTOGRAD_OPS),
    "training.adam", "training.evaluate",
    "router.batched_weights", "composition.routing_report",
    "checkpoint.save", "checkpoint.load",
    *(f"cli.main.{cmd}" for cmd in CLI_COMMANDS),
)


def _matmul_flop(a, b) -> int:
    """2*M*K*N per broadcast batch element, from the operand shapes."""
    sa, sb = tuple(getattr(a, "shape", ())), tuple(getattr(b, "shape", ()))
    if len(sa) < 2 or len(sb) < 2:
        return 0
    n = max(len(sa), len(sb)) - 2
    ba, bb = (1,) * (n + 2 - len(sa)) + sa[:-2], (1,) * (n + 2 - len(sb)) + sb[:-2]
    batch = math.prod(max(x, y) for x, y in zip(ba, bb))
    return 2 * batch * sa[-2] * sa[-1] * sb[-1]


def _path_size(args) -> int:
    try:
        return os.path.getsize(args[0])
    except (IndexError, TypeError, OSError):
        return 0


class Tracer:
    """Records spans while entered; ``missing`` lists targets not found."""

    def __init__(self):
        self.spans: list[list] = []
        self.matmul_flop = 0
        self.checkpoint_bytes = 0
        self.missing: set[str] = set()
        self.active = False
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    @contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself; a no-op while not entered."""
        if not self.active:
            yield
            return
        rec = [name, perf_counter(), 0.0, self._stack[-1] if self._stack else -1]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield
        finally:
            rec[2] = perf_counter()
            self._stack.pop()

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        before = after = None
        if name == "autograd.matmul":
            def before(args):
                self.matmul_flop += _matmul_flop(*args[:2])
        elif name.startswith("checkpoint."):
            def after(args):
                self.checkpoint_bytes += _path_size(args)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(args)
            rec = [name, perf_counter(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(rec)
            try:
                return fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                stack.pop()
                if after is not None:
                    after(args)

        return wrapper

    def __enter__(self):
        try:
            self._patch()
            self.active = True
        except BaseException:
            self.__exit__(None, None, None)
            raise
        return self

    def _patch(self) -> None:
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "atmoe" or n.startswith("atmoe."))]
        for name, module_name, path in TARGETS:
            module = sys.modules.get(module_name)
            owner_name, _, attr = path.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            original = getattr(owner, attr, None) if owner is not None else None
            if original is None:
                self.missing.add(f"{module_name}.{path}")
                continue
            wrapper = self._wrap(name, original)
            if owner_name:  # a method: one binding, on its class
                bindings = [(owner, attr)]
            else:
                bindings = [(m, a) for m in modules for a, v in vars(m).items() if v is original]
            for mod, a in bindings:
                self._patches.append((mod, a, original))
                setattr(mod, a, wrapper)

    def __exit__(self, *exc):
        self.active = False
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        left = [f"{getattr(o, '__name__', o)}.{a}" for o, a, orig in self._patches
                if getattr(o, a) is not orig]
        self._patches.clear()
        if left:
            raise RuntimeError(f"tracer left bindings patched: {left}")
        return False

    # ------------------------------------------------------------ metrics

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics from the recorded spans."""
        spans = self.spans
        child = [0.0] * len(spans)
        for name, start, end, parent in spans:
            if parent >= 0:
                child[parent] += end - start
        calls = dict.fromkeys(TIMED, 0)
        self_s = dict.fromkeys(TIMED, 0.0)
        stage_s = other_s = 0.0
        step_ms: list[float] = []
        last_forward = None
        for i, (name, start, end, _) in enumerate(spans):
            own = end - start - child[i]
            if name == "training.stage":
                stage_s += end - start
                other_s += own
            elif name == "model.loss_graph":
                last_forward = start
            elif name == "training.adam" and last_forward is not None:
                step_ms.append((end - last_forward) * 1e3)
                last_forward = None
            if name in calls:
                calls[name] += 1
                self_s[name] += own

        out: dict[str, float] = {}
        for name in TIMED:
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.s"] = self_s[name]
        op_calls = sum(calls[f"autograd.{op}"] for op in AUTOGRAD_OPS)
        graphs = calls["model.build_graph"]
        out["autograd.nodes_per_step"] = op_calls / graphs if graphs else 0.0
        out["autograd.matmul.gflop"] = self.matmul_flop / 1e9
        out["training.steps"] = len(step_ms)
        out["training.step_ms.p50"] = _quantile(step_ms, 0.5)
        out["training.step_ms.p90"] = _quantile(step_ms, 0.9)
        out["training.stage.s"] = stage_s
        out["training.other.s"] = other_s
        out["checkpoint.bytes"] = self.checkpoint_bytes
        return out


def _quantile(values: list[float], q: float) -> float:
    """Nearest-rank quantile; 0.0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, max(0, math.ceil(q * len(ordered)) - 1))]
