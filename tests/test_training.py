"""Three-stage training: optimizer oracle, freeze locality per stage, stage
ordering guard, evaluation metrics, and the gradient-check harness."""

import dataclasses

import numpy as np
import pytest

import oracle
from atmoe.cli import jitter_params
from atmoe.model import ToyTransformer
from atmoe.numerics import seeded_rng
from atmoe.taskgen import TaskCatalog, batch_arrays, generate, per_task_split
from atmoe import training
from atmoe.training import (
    Adam,
    EvalReport,
    PrefixCache,
    StageOrderError,
    TrainReport,
    evaluate,
    grad_check,
    train_expert,
    train_premerged,
    train_router,
)

from conftest import ROUTERS, tiny_config


def _shrunk(cfg, epochs=2, batch=16, lr=1e-2):
    tr = cfg.training
    sec = dataclasses.replace
    return sec(cfg, training=sec(
        tr,
        experts=sec(tr.experts, epochs=epochs, batch_size=batch,
                    learning_rate=lr),
        premerged=sec(tr.premerged, epochs=epochs, batch_size=batch,
                      learning_rate=lr),
        router=sec(tr.router, epochs=epochs, batch_size=batch,
                   learning_rate=lr),
    ))


def test_adam_single_step_hand_oracle():
    # One step from zero moments: m_hat = g, v_hat = g^2, so the update is
    # lr * g / (|g| + eps) = lr * sign(g) to within eps.
    arrays = {"w": np.array([1.0, -2.0, 3.0])}
    opt = Adam(arrays, ["w"], learning_rate=0.1)
    g = np.array([0.5, -0.25, 0.0])
    opt.step({"w": g})
    expected = np.array([1.0, -2.0, 3.0]) - 0.1 * (
        (g / (1 - 0.9)) * (1 - 0.9)) / (np.sqrt(g * g) + 1e-8)
    # third coordinate has zero gradient: update must be exactly zero
    np.testing.assert_allclose(arrays["w"][:2], expected[:2], rtol=1e-9)
    assert arrays["w"][2] == 3.0


def test_adam_two_step_moment_recursion():
    arrays = {"w": np.array([0.0])}
    opt = Adam(arrays, ["w"], learning_rate=0.01)
    g1, g2 = np.array([1.0]), np.array([-0.5])
    m = v = 0.0
    w = 0.0
    for t, g in enumerate((g1, g2), start=1):
        m = 0.9 * m + 0.1 * float(g[0])
        v = 0.999 * v + 0.001 * float(g[0]) ** 2
        w -= 0.01 * (m / (1 - 0.9 ** t)) / (
            np.sqrt(v / (1 - 0.999 ** t)) + 1e-8)
    opt.step({"w": g1})
    opt.step({"w": g2})
    np.testing.assert_allclose(arrays["w"], [w], rtol=1e-12)


def test_adam_zero_lr_is_bit_identical_noop():
    arrays = {"w": np.array([1.2345, -0.5])}
    before = arrays["w"].copy()
    opt = Adam(arrays, ["w"], learning_rate=0.0)
    opt.step({"w": np.array([10.0, -3.0])})
    assert arrays["w"] is not None
    np.testing.assert_array_equal(arrays["w"], before)
    assert opt.t == 0


def test_adam_rejects_unknown_names():
    with pytest.raises(KeyError):
        Adam({"w": np.zeros(2)}, ["w", "ghost"], learning_rate=0.1)


@pytest.fixture(scope="module")
def train_setup():
    cfg = _shrunk(tiny_config(seed=11, vocab_size=40, max_seq_len=20))
    catalog = TaskCatalog(payload_max_len=5)
    data = generate(catalog, 48, seed=101, multi_intent_fraction=0.3)
    return cfg, data


def test_train_expert_touches_only_its_adapter(train_setup):
    cfg, data = train_setup
    model = ToyTransformer(cfg)
    before = model.param_checksums()
    split = per_task_split(data)
    report = train_expert(model, "reverse", split["reverse"], cfg)
    after = model.param_checksums()
    touched = {n for n in before if before[n] != after[n]}
    assert touched == set(model.adapter_param_names("reverse"))
    assert isinstance(report, TrainReport)
    assert report.stage == "experts" and report.adapter_id == "reverse"
    assert len(report.epoch_losses) == cfg.training.experts.epochs
    assert report.initial_loss == report.epoch_losses[0]
    assert report.final_loss == report.epoch_losses[-1]
    assert all(np.isfinite(report.epoch_losses))


def test_training_reduces_loss(train_setup):
    cfg, data = train_setup
    cfg5 = _shrunk(cfg, epochs=5)
    model = ToyTransformer(cfg5)
    split = per_task_split(data)
    report = train_expert(model, "identity", split["identity"], cfg5)
    assert report.final_loss < report.initial_loss


def test_train_premerged_touches_only_premerged(train_setup):
    cfg, data = train_setup
    model = ToyTransformer(cfg)
    before = model.param_checksums()
    report = train_premerged(model, data, cfg)
    after = model.param_checksums()
    touched = {n for n in before if before[n] != after[n]}
    assert touched == set(model.adapter_param_names("premerged"))
    assert report.stage == "premerged"


def test_router_stage_requires_earlier_stages(train_setup):
    cfg, data = train_setup
    model = ToyTransformer(cfg)
    with pytest.raises(StageOrderError, match="expert"):
        train_router(model, data, cfg)
    split = per_task_split(data)
    for task in model.task_adapter_ids:
        train_expert(model, task, split[task], cfg)
    with pytest.raises(StageOrderError, match="pre-merged"):
        train_router(model, data, cfg)
    train_premerged(model, data, cfg)
    before = model.param_checksums()
    report = train_router(model, data, cfg)
    after = model.param_checksums()
    touched = {n for n in before if before[n] != after[n]}
    assert touched == set(model.router_param_names())
    assert report.stage == "router"


def test_stage_runs_are_seed_deterministic(train_setup):
    cfg, data = train_setup
    split = per_task_split(data)
    runs = []
    for _ in range(2):
        model = ToyTransformer(cfg)
        rep = train_expert(model, "increment", split["increment"], cfg)
        runs.append((rep.epoch_losses,
                     model.param_checksums(
                         model.adapter_param_names("increment"))))
    assert runs[0] == runs[1]


def test_empty_bucket_and_unknown_task_rejected(train_setup):
    cfg, _ = train_setup
    model = ToyTransformer(cfg)
    with pytest.raises(KeyError):
        train_expert(model, "ghost", [], cfg)
    with pytest.raises(ValueError):
        train_expert(model, "reverse", [], cfg)


def test_evaluate_report_fields(train_setup):
    cfg, data = train_setup
    model = ToyTransformer(cfg)
    rep = evaluate(model, data[:20], mode="base")
    assert isinstance(rep, EvalReport)
    assert rep.mode == "base" and rep.n_samples == 20
    assert rep.n_scored_tokens == sum(len(s.target_tokens) for s in data[:20])
    assert 0.0 <= rep.token_accuracy <= 1.0
    assert rep.mean_loss > 0.0
    assert set(rep.routing_accuracy) == {g.name for g in model.groups}
    assert np.isfinite(rep.mean_group_entropy)
    assert np.isfinite(rep.mean_group_kl)
    d = rep.to_dict()
    assert d["mode"] == "base" and d["n_samples"] == 20


def test_evaluate_modes_agree_on_fresh_model(train_setup):
    # zero adapters: every mode scores identically
    cfg, data = train_setup
    model = ToyTransformer(cfg)
    full = evaluate(model, data[:16], mode="full")
    base = evaluate(model, data[:16], mode="base")
    pm = evaluate(model, data[:16], mode="adapter", adapter_id="premerged")
    assert full.mean_loss == pytest.approx(base.mean_loss, rel=1e-12)
    assert pm.mean_loss == pytest.approx(base.mean_loss, rel=1e-12)


@pytest.mark.parametrize("mode", ["full", "base"])
@pytest.mark.parametrize("router", ROUTERS)
def test_evaluate_routing_matches_per_vector_router(train_setup, router, mode):
    # evaluate reads the routing weights the graph computed on scored rows
    # (or routes the graph's expert inputs in a mode that does not route);
    # the oracle routes the full-row graph's expert inputs per vector
    cfg, data = train_setup
    sec = dataclasses.replace
    cfg = sec(cfg, model=sec(cfg.model, n_layers=2),
              router=sec(cfg.router, **router), atmoe=sec(cfg.atmoe, lam=0.3))
    model = ToyTransformer(cfg)
    jitter_params(model)
    rng = seeded_rng(17)
    for name in model.router_param_names():  # routing that varies row to row
        model.params[name] = model.params[name] + rng.normal(0.0, 2.0, model.params[name].shape)
    rep = evaluate(model, data, mode=mode)

    hits = {g.name: 0 for g in model.groups}
    ent, n = 0.0, 0
    for start in range(0, len(data), 64):
        batch = data[start: start + 64]
        tokens, _, weights = batch_arrays(batch, cfg.model.max_seq_len)
        _, _, aux = model.build_graph(tokens, mode=mode)
        b_idx, t_idx = np.nonzero(weights)
        rows = b_idx * tokens.shape[1] + t_idx
        for i in range(cfg.model.n_layers):
            wg, wd = (model.params[f"blocks.{i}.moe.{w}"] for w in ("wg", "wd"))
            for row, b in zip(rows, b_idx):
                gw, iw, _ = oracle.route(aux["moe_input"][i][row], wg, wd, oracle.slot_mask(cfg),
                                         cfg.router.tau_g, cfg.router.tau_d)
                ent -= float((gw * np.log(gw)).sum())
                n += 1
                for spec in model.groups:
                    slot = iw[spec.group_id, : spec.size].argmax()
                    hits[spec.name] += spec.expert_ids[slot] in \
                        batch[b].relevant_experts.get(spec.name, ())
    assert n == cfg.model.n_layers * rep.n_scored_tokens
    assert abs(rep.mean_group_entropy - ent / n) <= 1e-12
    for name, acc in rep.routing_accuracy.items():
        assert abs(acc - hits[name] / n) <= 1e-12


def test_grad_check_passes_and_negative_control_fails(train_setup):
    cfg, data = train_setup
    model = ToyTransformer(cfg)
    # non-zero adapters so their gradients are not vacuously zero
    rng = seeded_rng(5)
    for name in model.adapter_param_names("identity"):
        model.params[name] = model.params[name] + rng.normal(
            scale=0.05, size=model.params[name].shape)
    subset = model.adapter_param_names("identity") + ["unembed"]
    err = grad_check(model, data[0], subset)
    assert err < 1e-4
    bad = grad_check(model, data[0], subset, inject_error=True)
    assert bad > 1e-2


def test_grad_check_validates_subset(train_setup):
    cfg, data = train_setup
    model = ToyTransformer(cfg)
    with pytest.raises(ValueError):
        grad_check(model, data[0], [])
    with pytest.raises(KeyError):
        grad_check(model, data[0], ["ghost"])


def test_prefix_cache_layout_and_size(train_setup):
    cfg, data = train_setup
    model = ToyTransformer(cfg)
    cache = PrefixCache(model, data + data[:3])
    seqs = {tuple(s.tokens()) for s in data}
    assert set(cache.offsets) == seqs
    assert cache.data.dtype == np.float64 and cache.data.flags.c_contiguous
    assert cache.data.nbytes == sum(map(len, seqs)) * cfg.model.d_model * 8


@pytest.mark.parametrize("router", ROUTERS)
@pytest.mark.parametrize("mode", ["adapter", "full"])
def test_prefix_from_cache_matches_token_path(train_setup, monkeypatch, router, mode):
    # other chunking than the default, and a batch whose pad rows are zeros
    cfg, data = train_setup
    sec = dataclasses.replace
    cfg = sec(cfg, model=sec(cfg.model, n_layers=2), router=sec(cfg.router, **router),
              atmoe=sec(cfg.atmoe, lam=0.3))
    model = ToyTransformer(cfg)
    jitter_params(model)
    monkeypatch.setattr(training, "PREFIX_CHUNK", 5)
    cache = PrefixCache(model, data)
    batch = data[7:16]
    tokens, targets, weights = batch_arrays(batch, cfg.model.max_seq_len)
    mask = training._valid_mask(batch, tokens.shape[1])
    assert not mask.all()
    prefix = cache.batch(batch, tokens.shape[1])
    assert not prefix[mask == 0].any()
    aid = model.task_adapter_ids[0] if mode == "adapter" else None
    trainable = model.adapter_param_names(aid) if aid else model.router_param_names()
    runs = []
    for pre in (prefix, None):
        loss, P, _ = model.loss_graph(tokens, targets, weights, trainable, mode, aid,
                                      prefix=pre)
        loss.backward()
        runs.append((loss.data, [P[n].grad for n in trainable]))
    (loss, grads), (want_loss, want_grads) = runs
    assert abs(loss - want_loss) <= 1e-12 * abs(want_loss)
    for name, g, want in zip(trainable, grads, want_grads):
        assert np.linalg.norm(g - want) <= 1e-12 * np.linalg.norm(want), name
