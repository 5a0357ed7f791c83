"""Three-stage pipeline over the frozen base model.

Stage 1 fits each task expert alone on its data bucket (plain single-adapter
forward). Stage 2 fits the pre-merged adapter the same way on the merged
dataset. Stage 3 trains only the per-layer routers through the full blended
forward; every adapter and base weight stays untouched. Evaluation reports
loss, token accuracy, and routing diagnostics against the ground-truth
expert-relevance labels carried with each sample.
"""

from __future__ import annotations

import math
import mmap
from dataclasses import dataclass

import numpy as np

from .config import PREMERGED_ID, Config
from .model import ToyTransformer
from .numerics import derive_rng, finite_diff_grad
from .taskgen import Sample, batch_arrays

EVAL_BATCH = 64
PREFIX_CHUNK = 64


class StageOrderError(RuntimeError):
    """A training stage ran before the stages it depends on."""


class Adam:
    """Adaptive-moment optimizer over a named array store (updates in place)."""

    def __init__(self, arrays: dict[str, np.ndarray], names, learning_rate: float,
                 beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        self.arrays = arrays
        self.names = list(names)
        unknown = [n for n in self.names if n not in arrays]
        if unknown:
            raise KeyError(f"unknown parameters: {unknown}")
        self.lr, self.beta1, self.beta2, self.eps = learning_rate, beta1, beta2, eps
        self.t = 0
        self.m = {n: np.zeros_like(arrays[n]) for n in self.names}
        self.v = {n: np.zeros_like(arrays[n]) for n in self.names}

    def step(self, grads: dict[str, np.ndarray]) -> None:
        if self.lr == 0.0:
            return  # degenerate step must leave parameters bit-identical
        self.t += 1
        bc1 = 1.0 - self.beta1 ** self.t
        bc2 = 1.0 - self.beta2 ** self.t
        for n in self.names:
            g = grads[n]
            self.m[n] = self.beta1 * self.m[n] + (1.0 - self.beta1) * g
            self.v[n] = self.beta2 * self.v[n] + (1.0 - self.beta2) * g * g
            step = (self.m[n] / bc1) / (np.sqrt(self.v[n] / bc2) + self.eps)
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

    @property
    def initial_loss(self) -> float:
        return self.epoch_losses[0]

    @property
    def final_loss(self) -> float:
        return self.epoch_losses[-1]

    def to_dict(self) -> dict:
        return {
            "stage": self.stage,
            "adapter_id": self.adapter_id,
            "n_samples": self.n_samples,
            "epochs": self.epochs,
            "batch_size": self.batch_size,
            "learning_rate": self.learning_rate,
            "epoch_losses": list(self.epoch_losses),
        }


@dataclass
class EvalReport:
    """Loss/accuracy plus routing diagnostics over a labeled dataset."""

    mode: str
    n_samples: int
    n_scored_tokens: int
    mean_loss: float
    token_accuracy: float
    routing_accuracy: dict[str, float]  # group name -> argmax hit rate
    mean_group_entropy: float
    mean_group_kl: float

    def to_dict(self) -> dict:
        return {
            "mode": self.mode,
            "n_samples": self.n_samples,
            "n_scored_tokens": self.n_scored_tokens,
            "mean_loss": self.mean_loss,
            "token_accuracy": self.token_accuracy,
            "routing_accuracy": dict(self.routing_accuracy),
            "mean_group_entropy": self.mean_group_entropy,
            "mean_group_kl": self.mean_group_kl,
        }


def _valid_mask(batch: list[Sample], T: int) -> np.ndarray:
    """1.0 where a position holds a real (non-padding) token."""
    mask = np.zeros((len(batch), T))
    for b, s in enumerate(batch):
        mask[b, : len(s.tokens())] = 1.0
    return mask


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
            h = model.frozen_prefix(batch_arrays(chunk, model.cfg.model.max_seq_len)[0])
            self.data[starts[c] : starts[c + len(chunk)]] = h[_valid_mask(chunk, h.shape[1]) > 0]

    def batch(self, batch: list[Sample], T: int) -> np.ndarray:
        """The prefix [B, T, d_model] of a batch; pad rows are 0."""
        out = np.zeros((len(batch), T, self.data.shape[1]))
        for b, s in enumerate(batch):
            seq = tuple(s.tokens())
            out[b, : len(seq)] = self.data[self.offsets[seq] : self.offsets[seq] + len(seq)]
        return out


def _run_stage(model: ToyTransformer, samples: list[Sample], trainable: list[str],
               mode: str, adapter_id: str | None, stage, seed: int, stage_tag: str,
               cache: PrefixCache | None = None) -> list[float]:
    """Epoch loop shared by the three stages; returns per-epoch mean losses."""
    cache = cache or PrefixCache(model, samples)
    opt = Adam(model.params, trainable, stage.learning_rate,
               stage.beta1, stage.beta2, stage.eps)
    max_len = model.cfg.model.max_seq_len
    losses = []
    for epoch in range(stage.epochs):
        order = derive_rng(seed, "train", stage_tag, f"epoch:{epoch}").permutation(len(samples))
        nll_sum, n_scored = 0.0, 0
        for start in range(0, len(order), stage.batch_size):
            batch = [samples[int(i)] for i in order[start : start + stage.batch_size]]
            tokens, targets, weights = batch_arrays(batch, max_len)
            loss, P, _ = model.loss_graph(
                tokens, targets, weights, trainable=trainable, mode=mode,
                adapter_id=adapter_id, prefix=cache.batch(batch, tokens.shape[1]),
            )
            if not np.isfinite(loss.data):
                raise FloatingPointError(f"non-finite loss in stage {stage_tag!r}")
            loss.backward()
            grads = {n: (P[n].grad if P[n].grad is not None else np.zeros_like(model.params[n]))
                     for n in trainable}
            opt.step(grads)
            w = weights.sum()
            nll_sum += float(loss.data) * w
            n_scored += w
        losses.append(nll_sum / n_scored)
    return losses


def train_expert(model: ToyTransformer, task_id: str, data: list[Sample],
                 cfg: Config, cache: PrefixCache | None = None) -> TrainReport:
    """Stage 1: fit one task adapter on its bucket; everything else frozen."""
    if task_id not in model.task_adapter_ids:
        raise KeyError(f"unknown task adapter: {task_id!r}")
    if not data:
        raise ValueError(f"empty data bucket for task {task_id!r}")
    stage = cfg.training.experts
    losses = _run_stage(model, data, model.adapter_param_names(task_id),
                        "adapter", task_id, stage, cfg.seed, f"expert:{task_id}", cache=cache)
    return TrainReport("experts", task_id, len(data), stage.epochs,
                       stage.batch_size, stage.learning_rate, losses)


def train_premerged(model: ToyTransformer, merged_data: list[Sample],
                    cfg: Config) -> TrainReport:
    """Stage 2: fit the pre-merged adapter on the union of all task data."""
    if not merged_data:
        raise ValueError("empty merged dataset")
    stage = cfg.training.premerged
    losses = _run_stage(model, merged_data, model.adapter_param_names(PREMERGED_ID),
                        "adapter", PREMERGED_ID, stage, cfg.seed, "premerged")
    return TrainReport("premerged", PREMERGED_ID, len(merged_data), stage.epochs,
                       stage.batch_size, stage.learning_rate, losses)


def train_router(model: ToyTransformer, data: list[Sample], cfg: Config) -> TrainReport:
    """Stage 3: fit all layers' routing parameters with every adapter frozen."""
    if not data:
        raise ValueError("empty router-training dataset")
    _require_trained_adapters(model)
    stage = cfg.training.router
    losses = _run_stage(model, data, model.router_param_names(), "full", None,
                        stage, cfg.seed, "router")
    return TrainReport("router", None, len(data), stage.epochs,
                       stage.batch_size, stage.learning_rate, losses)


def _require_trained_adapters(model: ToyTransformer) -> None:
    """Router training is vacuous over all-zero adapters (delta is identically 0);
    an untouched B matrix is the signature of a skipped stage."""
    L = model.cfg.model.n_layers

    def untouched(aid: str) -> bool:
        return not any(model.params[f"blocks.{i}.moe.experts.{aid}.B"].any() for i in range(L))

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


def evaluate(model: ToyTransformer, data: list[Sample], mode: str = "full",
             adapter_id: str | None = None,
             lam_override: float | None = None) -> EvalReport:
    """Deterministic metrics pass; scores only target positions."""
    if not data:
        raise ValueError("evaluate needs a nonempty dataset")
    cfg = model.cfg
    L, G = cfg.model.n_layers, cfg.n_groups
    nll_sum, n_scored, n_correct = 0.0, 0, 0
    ent_sum, ent_n = 0.0, 0
    hits = {g.name: 0 for g in model.groups}
    tries = {g.name: 0 for g in model.groups}

    for start in range(0, len(data), EVAL_BATCH):
        batch = data[start : start + EVAL_BATCH]
        tokens, targets, weights = batch_arrays(batch, cfg.model.max_seq_len)
        rows = np.flatnonzero(weights)
        logits_t, _, aux = model.build_graph(tokens, (), mode, adapter_id, lam_override, rows)
        tg = targets.reshape(-1)[rows]
        z = logits_t.data
        c = z.max(axis=-1, keepdims=True)
        lse = np.log(np.exp(z - c).sum(axis=-1)) + c[:, 0]
        nll_sum += float((lse - z[np.arange(len(rows)), tg]).sum())
        n_correct += int((z.argmax(axis=-1) == tg).sum())
        n_scored += len(rows)

        truth = [batch[b].relevant_experts for b in rows // tokens.shape[1]]
        for i in range(L):
            # the last layer's arrays hold the scored rows only
            at = rows if i < L - 1 else slice(None)
            if mode == "full":
                gw, iw = aux["gw_nodes"][i].data[at], aux["iw"][i][at]
            else:  # the graph did not route; route its expert inputs here
                gw, iw = model.routing_weights(i, aux["moe_input"][i][at])
            ent_sum += float(_entropy_rows(gw).sum())
            ent_n += len(rows)
            for spec in model.groups:
                slots = iw[:, spec.group_id, : spec.size].argmax(axis=-1)
                relevant = [t.get(spec.name, ()) for t in truth]
                hits[spec.name] += sum(
                    spec.expert_ids[s] in rel for s, rel in zip(slots, relevant)
                )
                tries[spec.name] += len(rows)

    mean_h = ent_sum / ent_n
    return EvalReport(
        mode=mode,
        n_samples=len(data),
        n_scored_tokens=n_scored,
        mean_loss=nll_sum / n_scored,
        token_accuracy=n_correct / n_scored,
        routing_accuracy={name: hits[name] / tries[name] for name in hits},
        mean_group_entropy=mean_h,
        mean_group_kl=math.log(G) - mean_h,
    )


def _as_batch(sample, max_seq_len: int):
    """Accept a labeled sample or a bare token sequence (all positions scored)."""
    if isinstance(sample, Sample):
        return batch_arrays([sample], max_seq_len)
    tokens = np.asarray(sample, dtype=np.int64)
    if tokens.ndim != 1 or tokens.size < 2:
        raise ValueError("need a 1-D token sequence of length >= 2")
    T = tokens.size
    targets = np.zeros((1, T), dtype=np.int64)
    weights = np.zeros((1, T))
    targets[0, : T - 1] = tokens[1:]
    weights[0, : T - 1] = 1.0
    return tokens[None, :], targets, weights


GRAD_CHECK_FLOOR = 1e-6


def grad_check(model: ToyTransformer, sample, parameter_subset, h: float = 1e-4,
               inject_error: bool = False) -> float:
    """Norm-relative disagreement between analytic and central-difference
    gradients over the given parameters: ||g_a - g_fd|| / max(||g_a||,
    ||g_fd||, floor). Entry-wise ratios drown in central-difference noise
    wherever an entry sits below the O(h^2) truncation error, so the
    comparison is made at the scale of the whole subset; the floor keeps a
    dormant subset (true gradient ~0) from amplifying its roundoff dust.
    ``inject_error`` corrupts the analytic side as a negative control."""
    names = list(parameter_subset)
    if not names:
        raise ValueError("empty parameter subset")
    missing = [n for n in names if n not in model.params]
    if missing:
        raise KeyError(f"unknown parameters: {missing}")
    tokens, targets, weights = _as_batch(sample, model.cfg.model.max_seq_len)

    loss_t, P, _ = model.loss_graph(tokens, targets, weights, trainable=names)
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
        loss, _, _ = model.loss_graph(tokens, targets, weights)
        return float(loss.data)

    try:
        fd = finite_diff_grad(f, theta0, h)
    finally:
        model.params.update(originals)
    scale = max(np.linalg.norm(analytic), np.linalg.norm(fd), GRAD_CHECK_FLOOR)
    return float(np.linalg.norm(analytic - fd) / scale)
