"""The training stages (``config.STAGES``) over the frozen base model.

``experts`` fits each task expert alone on its data bucket (the constant
mixture ``only(expert)``). ``premerged`` fits the pre-merged adapter the same
way on the merged dataset. ``router`` trains only the per-layer routers
through the learned mixture; every adapter and base weight stays untouched.
A stage's runs are independent (each trains its own parameters over the
shared frozen base), so ``experts`` runs them in forked worker processes, one
BLAS thread each. Evaluation scores its batches on threads and reports loss
and token accuracy under any mixture, and for the learned one routing
diagnostics against the ground-truth expert-relevance labels of each sample.
"""

from __future__ import annotations

import ctypes
import functools
import mmap
import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .autograd import cross_entropy
from .config import PREMERGED_ID, STAGES
from .model import ToyTransformer
from .numerics import derive_rng, finite_diff_grad
from .taskgen import Sample, batch_arrays, check_groups, per_task_split

EVAL_BATCH = 64
PREFIX_CHUNK = 64
OPENBLAS_THREAD_SETTERS = ("scipy_openblas_set_num_threads64_", "scipy_openblas_set_num_threads",
                           "openblas_set_num_threads64_", "openblas_set_num_threads")


class StageOrderError(RuntimeError):
    """The router stage ran over adapters that no earlier stage trained."""


class Adam:
    """Adaptive-moment optimizer over a named array store (updates in place)."""

    # decay rates of the first and second moment estimates, and the
    # denominator's offset
    DECAY_M, DECAY_V, EPS = 0.9, 0.999, 1e-8

    def __init__(self, arrays: dict[str, np.ndarray], names, learning_rate: float):
        self.arrays = arrays
        self.names = list(names)
        unknown = [n for n in self.names if n not in arrays]
        if unknown:
            raise KeyError(f"unknown parameters: {unknown}")
        self.lr = learning_rate
        self.t = 0
        self.m = {n: np.zeros_like(arrays[n]) for n in self.names}
        self.v = {n: np.zeros_like(arrays[n]) for n in self.names}

    def step(self, grads: dict[str, np.ndarray]) -> None:
        if self.lr == 0.0:
            return  # degenerate step must leave parameters bit-identical
        self.t += 1
        bc1 = 1.0 - self.DECAY_M ** self.t
        bc2 = 1.0 - self.DECAY_V ** self.t
        for n in self.names:
            g = grads[n]
            self.m[n] = self.DECAY_M * self.m[n] + (1.0 - self.DECAY_M) * g
            self.v[n] = self.DECAY_V * self.v[n] + (1.0 - self.DECAY_V) * g * g
            step = (self.m[n] / bc1) / (np.sqrt(self.v[n] / bc2) + self.EPS)
            self.arrays[n] = self.arrays[n] - self.lr * step


@dataclass
class TrainReport:
    """Loss curve and bookkeeping for one stage run (one adapter or routers)."""

    stage: str
    adapter_id: str | None
    n_samples: int
    epochs: int
    batch_size: int
    learning_rate: float
    epoch_losses: list[float]


@dataclass
class EvalReport:
    """Loss/accuracy over a labeled dataset, plus routing diagnostics (None
    for a constant mixture, where no router runs)."""

    n_samples: int
    n_scored_tokens: int
    mean_loss: float
    token_accuracy: float
    routing_accuracy: dict[str, float] | None  # group name -> argmax hit rate
    mean_group_entropy: float | None


class PrefixCache:
    """``frozen_prefix`` of each distinct sequence's real tokens: one float64
    [sum of lengths, d_model] array and each sequence's row offset."""

    def __init__(self, model: ToyTransformer, samples: list[Sample]):
        uniq = list({tuple(s.tokens()): s for s in samples}.values())
        starts = np.cumsum([0] + [len(s.tokens()) for s in uniq])
        self.offsets = {tuple(s.tokens()): int(o) for s, o in zip(uniq, starts)}
        # an own mapping: freeing a malloc'd block this big raises glibc's mmap
        # threshold, and later stages' arrays would then stay resident
        n, d = int(starts[-1]), model.cfg.model.d_model
        self.data = np.frombuffer(mmap.mmap(-1, 8 * n * d)).reshape(n, d)
        for c in range(0, len(uniq), PREFIX_CHUNK):
            chunk = uniq[c : c + PREFIX_CHUNK]
            h = model.frozen_prefix(batch_arrays(chunk)[0])
            for b, s in enumerate(chunk):
                self.data[starts[c + b] : starts[c + b + 1]] = h[b, : len(s.tokens())]

    def batch(self, batch: list[Sample], T: int) -> np.ndarray:
        """The prefix [B, T, d_model] of a batch; pad rows are 0."""
        out = np.zeros((len(batch), T, self.data.shape[1]))
        for b, s in enumerate(batch):
            seq = tuple(s.tokens())
            out[b, : len(seq)] = self.data[self.offsets[seq] : self.offsets[seq] + len(seq)]
        return out


def _run_stage(model: ToyTransformer, samples: list[Sample], adapter_id: str | None, stage,
               stage_tag: str, cache: PrefixCache) -> tuple[list[float], dict[str, np.ndarray]]:
    """Epoch loop fitting one adapter alone (the mixture ``only(adapter_id)``),
    or the routers through the learned mixture when ``adapter_id`` is None;
    returns per-epoch mean losses and the trained arrays."""
    if adapter_id:
        trainable, coef = model.adapter_param_names(adapter_id), model.only(adapter_id)
    else:
        trainable, coef = model.router_param_names(), None
    opt = Adam(model.params, trainable, stage.learning_rate)
    losses = []
    for epoch in range(stage.epochs):
        order = derive_rng(model.cfg.seed, "train", stage_tag,
                           f"epoch:{epoch}").permutation(len(samples))
        nll_sum, n_scored = 0.0, 0
        for start in range(0, len(order), stage.batch_size):
            batch = [samples[int(i)] for i in order[start : start + stage.batch_size]]
            tokens, rows, targets = batch_arrays(batch)
            loss, P, _ = model.loss_graph(tokens, rows, targets, trainable, coef,
                                          cache.batch(batch, tokens.shape[1]))
            if not np.isfinite(loss.data):
                raise FloatingPointError("non-finite loss")
            loss.backward()
            grads = {n: (P[n].grad if P[n].grad is not None else np.zeros_like(model.params[n]))
                     for n in trainable}
            opt.step(grads)
            nll_sum += float(loss.data) * len(rows)
            n_scored += len(rows)
        losses.append(nll_sum / n_scored)
    return losses, {n: model.params[n] for n in trainable}


_job: tuple | None = None  # the running ``_fit_all``'s job; fork hands it to the pool


def _fit(i: int) -> tuple[list[float], dict[str, np.ndarray]]:
    """Run ``i`` of the stage job on its own parameter dict: Adam rebinds the
    entries it updates, so ``model.params`` itself is left untouched."""
    model, runs, stage, cache = _job
    adapter_id, samples, tag = runs[i]
    view = ToyTransformer(model.cfg, dict(model.params))
    # a diverging run stops at its first overflow, before numpy warns of the rest
    with np.errstate(over="raise", invalid="raise"):
        try:
            return _run_stage(view, samples, adapter_id, stage, tag, cache)
        except FloatingPointError as exc:
            raise FloatingPointError(f"non-finite loss in stage {tag!r}") from exc


def _blas_thread_setter():
    """The loaded OpenBLAS's set-thread-count function, or None when no
    OpenBLAS with a known setter is mapped into this process."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(libs):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for name in OPENBLAS_THREAD_SETTERS:
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.argtypes, fn.restype = [ctypes.c_int], None
                return fn
    return None


def _fit_all(job: tuple) -> list[tuple[list[float], dict[str, np.ndarray]]]:
    """Every run of a stage job, in order: in a fork pool of one process per
    CPU (up to one per run), or in this process when there is one run, one
    CPU, or no BLAS thread setter to keep the workers from oversubscribing.
    Fork hands the workers the model, the data and the prefix cache's shared
    mapping without pickling them; only the results come back."""
    global _job
    n_runs = len(job[1])
    workers = min(n_runs, len(os.sched_getaffinity(0)))
    set_blas_threads = _blas_thread_setter() if workers > 1 else None
    _job = job
    # workers fill the CPUs; a BLAS thread pool each would oversubscribe
    pool = None if set_blas_threads is None else ProcessPoolExecutor(
        workers, multiprocessing.get_context("fork"), set_blas_threads, (1,))
    try:
        if pool is None:
            return [_fit(i) for i in range(n_runs)]
        return list(pool.map(_fit, range(n_runs)))
    finally:
        if pool is not None:
            # a failed run cancels the queued ones and a dead worker breaks
            # the pool, stopping the others; either way every worker is joined
            pool.shutdown(cancel_futures=True)
        _job = None  # else the prefix cache's mapping outlives the stage


def train_stage(model: ToyTransformer, stage: str, samples: list[Sample]) -> list[TrainReport]:
    """Run one pipeline stage, with the settings and seed of ``model.cfg``, on
    the training set ``samples``: each task expert on its bucket (the samples
    relevant to it), the pre-merged adapter on all of them, or the routers
    with every adapter frozen. Every run shares one frozen-prefix cache, and
    ``model.params`` changes only once every run has succeeded."""
    if stage not in STAGES:
        raise KeyError(f"unknown stage {stage!r}; expected one of {STAGES}")
    check_groups(model.groups)
    if not samples:
        raise ValueError(f"empty training dataset for stage {stage!r}")
    if stage == "experts":
        buckets = per_task_split(samples, model.task_adapter_ids)
        runs = [(tid, bucket, f"expert:{tid}") for tid, bucket in buckets.items()]
    elif stage == "premerged":
        runs = [(PREMERGED_ID, samples, "premerged")]
    else:
        _require_trained_adapters(model)
        runs = [(None, samples, "router")]
    st = getattr(model.cfg.training, stage)
    results = _fit_all((model, runs, st, PrefixCache(model, samples)))
    reports = []
    for (aid, data, _), (losses, trained) in zip(runs, results):
        model.params.update(trained)
        reports.append(TrainReport(stage, aid, len(data), st.epochs, st.batch_size,
                                   st.learning_rate, losses))
    return reports


def _require_trained_adapters(model: ToyTransformer) -> None:
    """The one stage-order rule: router training is vacuous over all-zero adapters
    (delta is identically 0), and an untouched B matrix marks a skipped stage."""
    lora_b = set(model.param_classes()["lora_b"])

    def untouched(aid: str) -> bool:
        return not any(model.params[n].any() for n in model.adapter_param_names(aid) if n in lora_b)

    if all(untouched(aid) for aid in model.task_adapter_ids):
        raise StageOrderError("task experts look untrained; run the expert stage first")
    if untouched(PREMERGED_ID):
        raise StageOrderError("pre-merged adapter looks untrained; run the premerged stage first")


def _entropy_rows(p: np.ndarray) -> np.ndarray:
    """Row entropies with the 0 log 0 = 0 convention."""
    plogp = np.zeros_like(p)
    nz = p > 0
    plogp[nz] = p[nz] * np.log(p[nz])
    return -plogp.sum(axis=-1)


def _score_batch(model: ToyTransformer, coef: np.ndarray | None, batch: list[Sample]):
    """One eval batch's NLL sum, scored rows and correct tokens, and for the
    learned mixture each layer's entropy sum and each group's argmax hits."""
    tokens, rows, tg = batch_arrays(batch)
    logits, _, aux = model.build_graph(tokens, (), coef, rows)
    nll = float(cross_entropy(logits, tg).data) * len(rows)
    correct = int((logits.data.argmax(axis=-1) == tg).sum())
    ents, hits = [], {g.name: 0 for g in model.groups}
    if coef is not None:
        return nll, len(rows), correct, ents, hits
    # per group, [row, slot]: is that slot's expert relevant to the row's sample
    relevant = [np.array([[e in s.relevant_experts.get(group.name, ()) for e in group.experts]
                          for s in batch])[rows // tokens.shape[1]]
                for group in model.groups]
    L = model.cfg.model.n_layers
    for i in range(L):
        # the last layer's arrays hold the scored rows only
        at = rows if i < L - 1 else slice(None)
        gw, iw = aux["gw"][i][at], aux["iw"][i][at]
        ents.append(float(_entropy_rows(gw).sum()))
        for g, group in enumerate(model.groups):
            slots = iw[:, g, : len(group.experts)].argmax(axis=-1)
            hits[group.name] += int(relevant[g][np.arange(len(rows)), slots].sum())
    return nll, len(rows), correct, ents, hits


def evaluate(model: ToyTransformer, data: list[Sample],
             coef: np.ndarray | None = None) -> EvalReport:
    """Deterministic metrics pass under the adapter mixture ``coef`` (see
    ``build_graph``); scores only target positions. The samples are batched
    in a stable sort by length, so each batch pads to nearly its own length;
    the counts do not depend on the order of ``data``. Routing is scored from
    the graph's own weights, so only for the learned mixture, against the
    relevance labels of the task table's groups, which the configured groups
    must be (``check_groups``). Batches run on one thread per CPU (up to one per
    batch), pinning OpenBLAS to one thread from then on; on one CPU or with no
    BLAS thread setter, in the calling thread. Summed in batch order, the report
    is the same either way."""
    if not data:
        raise ValueError("evaluate needs a nonempty dataset")
    check_groups(model.groups)
    data = sorted(data, key=lambda s: len(s.tokens()))
    batches = [data[start : start + EVAL_BATCH] for start in range(0, len(data), EVAL_BATCH)]
    score = functools.partial(_score_batch, model, coef)
    workers = min(len(batches), len(os.sched_getaffinity(0)))
    set_blas_threads = _blas_thread_setter() if workers > 1 else None
    if set_blas_threads is None:
        results = map(score, batches)
    else:
        set_blas_threads(1)  # numpy releases the GIL; BLAS threads would compete
        # leaving the block joins every thread: none is alive when _fit_all forks
        with ThreadPoolExecutor(workers) as pool:
            results = list(pool.map(score, batches))
    nll_sum, n_scored, n_correct = 0.0, 0, 0
    ent_sum, hits = 0.0, {g.name: 0 for g in model.groups}
    for nll, n, correct, ents, batch_hits in results:
        nll_sum, n_scored, n_correct = nll_sum + nll, n_scored + n, n_correct + correct
        for e in ents:
            ent_sum += e
        hits = {name: h + batch_hits[name] for name, h in hits.items()}
    n_routed = model.cfg.model.n_layers * n_scored  # every layer routes every scored row
    return EvalReport(
        n_samples=len(data),
        n_scored_tokens=n_scored,
        mean_loss=nll_sum / n_scored,
        token_accuracy=n_correct / n_scored,
        routing_accuracy={name: h / n_routed for name, h in hits.items()} if coef is None else None,
        mean_group_entropy=ent_sum / n_routed if coef is None else None,
    )


GRAD_CHECK_FLOOR = 1e-6
GRAD_CHECK_STEP = 1e-4  # the central-difference step


def grad_check(model: ToyTransformer, tokens, parameter_subset,
               inject_error: bool = False) -> float:
    """Norm-relative disagreement between analytic and central-difference
    gradients of the loss of every next token of the 1-D sequence ``tokens``
    over the given parameters: ||g_a - g_fd|| / max(||g_a||,
    ||g_fd||, floor). Entry-wise ratios drown in central-difference noise
    wherever an entry sits below the O(step^2) truncation error, so the
    comparison is made at the scale of the whole subset; the floor keeps a
    dormant subset (true gradient ~0) from amplifying its roundoff dust.
    ``inject_error`` corrupts the analytic side as a negative control."""
    names = list(parameter_subset)
    if not names:
        raise ValueError("empty parameter subset")
    tokens = np.asarray(tokens, dtype=np.int64)
    if tokens.ndim != 1 or tokens.size < 2:
        raise ValueError("need a 1-D token sequence of length >= 2")
    tokens, rows, targets = tokens[None, :], np.arange(tokens.size - 1), tokens[1:]

    loss_t, P, _ = model.loss_graph(tokens, rows, targets, trainable=names)
    if not np.isfinite(loss_t.data):
        raise FloatingPointError("non-finite loss at the evaluation point")
    loss_t.backward()
    analytic = np.concatenate([
        (P[n].grad if P[n].grad is not None else np.zeros_like(model.params[n])).ravel()
        for n in names
    ])
    if inject_error:
        analytic = analytic.copy()
        analytic[0] += 1.0 + abs(analytic[0])

    originals = {n: model.params[n] for n in names}
    theta0 = np.concatenate([originals[n].ravel() for n in names])

    def f(theta: np.ndarray) -> float:
        off = 0
        for n in names:
            size = originals[n].size
            model.params[n] = theta[off : off + size].reshape(originals[n].shape)
            off += size
        loss, _, _ = model.loss_graph(tokens, rows, targets)
        return float(loss.data)

    try:
        fd = finite_diff_grad(f, theta0, GRAD_CHECK_STEP)
    finally:
        model.params.update(originals)
    scale = max(np.linalg.norm(analytic), np.linalg.norm(fd), GRAD_CHECK_FLOOR)
    return float(np.linalg.norm(analytic - fd) / scale)
