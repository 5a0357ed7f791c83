"""The training stages: optimizer oracle, freeze locality per stage, stage
ordering guard, worker processes against the in-process path, evaluation
metrics, and the gradient-check harness."""

import dataclasses
import json
import math
import multiprocessing
import os
import signal
from concurrent.futures.process import BrokenProcessPool

import numpy as np
import pytest

import oracle
from atmoe.cli import jitter_params
from atmoe.model import ToyTransformer
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
    train_stage,
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


def _cpus(monkeypatch, n):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))


def test_train_expert_touches_only_its_adapter(train_setup, monkeypatch, tmp_path):
    # each expert's run trains that adapter alone, on its bucket, one step per
    # batch and epoch; together they touch the task adapters only. The spy
    # logs to a file, so it also sees the steps taken in worker processes.
    # The runs' order is a property of the in-process path (one CPU) only.
    cfg, data = train_setup
    loss_graph = ToyTransformer.loss_graph
    for cpus in (1, 4):
        log = tmp_path / f"loss_graph_{cpus}.jsonl"

        def spying_loss_graph(self, tokens, targets, weights, trainable, mode, adapter_id,
                              **kw):
            with log.open("a") as fh:
                fh.write(json.dumps([os.getpid(), adapter_id, mode, list(trainable)]) + "\n")
            return loss_graph(self, tokens, targets, weights, trainable, mode, adapter_id, **kw)

        model = ToyTransformer(cfg)
        before = model.param_checksums()
        with monkeypatch.context() as m:
            _cpus(m, cpus)
            m.setattr(ToyTransformer, "loss_graph", spying_loss_graph)
            reports = train_stage(model, "experts", data, cfg)
        after = model.param_checksums()
        calls = [json.loads(line) for line in log.read_text().splitlines()]
        pids = {pid for pid, *_ in calls}
        assert (pids == {os.getpid()}) if cpus == 1 else (os.getpid() not in pids)
        runs = [(aid, mode, tuple(trainable)) for _, aid, mode, trainable in calls]
        ids = model.task_adapter_ids
        want = [(aid, "adapter", tuple(model.adapter_param_names(aid))) for aid in ids]
        assert set(runs) == set(want)
        if cpus == 1:
            assert list(dict.fromkeys(runs)) == want
        split = per_task_split(data)
        st = cfg.training.experts
        assert [sum(r[0] == aid for r in runs) for aid in ids] == [
            st.epochs * math.ceil(len(split[aid]) / st.batch_size) for aid in ids]
        touched = {n for n in before if before[n] != after[n]}
        assert touched == {n for aid in ids for n in model.adapter_param_names(aid)}
        assert [(r.adapter_id, r.n_samples) for r in reports] == [
            (aid, len(split[aid])) for aid in ids]
    report = reports[ids.index("reverse")]
    assert isinstance(report, TrainReport)
    assert report.stage == "experts" and report.adapter_id == "reverse"
    assert len(report.epoch_losses) == cfg.training.experts.epochs
    assert report.initial_loss == report.epoch_losses[0]
    assert report.final_loss == report.epoch_losses[-1]
    assert all(np.isfinite(report.epoch_losses))


def test_expert_workers_equal_in_process(train_setup, monkeypatch, tmp_path):
    # one CPU and no BLAS thread setter run in-process, four CPUs in four
    # workers pinned to one BLAS thread each: the same parameters and reports,
    # bit for bit, and no worker left behind
    cfg, data = train_setup
    set_blas_threads = training._blas_thread_setter()  # None without OpenBLAS
    outcomes = []
    for cpus, setter in ((1, True), (4, True), (4, False)):
        pins = tmp_path / f"pins_{cpus}_{setter}.log"
        pins.touch()

        def pinning(n):
            with pins.open("a") as fh:
                fh.write(f"{n}\n")
            if set_blas_threads is not None:
                set_blas_threads(n)

        with monkeypatch.context() as m:
            _cpus(m, cpus)
            m.setattr(training, "_blas_thread_setter", lambda: pinning if setter else None)
            model = ToyTransformer(cfg)
            reports = train_stage(model, "experts", data, cfg)
        assert multiprocessing.active_children() == []
        assert pins.read_text().split() == (["1"] * 4 if (cpus, setter) == (4, True) else [])
        outcomes.append((model.param_checksums(), reports))
    assert outcomes[0] == outcomes[1] == outcomes[2]


@pytest.mark.parametrize("cpus", [1, 4])
def test_failed_run_changes_no_params_and_leaves_no_workers(train_setup, monkeypatch, cpus):
    # the patched run fails in a worker (fork carries the patch there) or in
    # process; either way the caller gets the error and the stage applies nothing
    cfg, data = train_setup
    _cpus(monkeypatch, cpus)
    run_stage = training._run_stage
    message = "non-finite loss in stage 'expert:increment'"

    def failing_run_stage(model, samples, adapter_id, stage, seed, stage_tag, cache):
        if stage_tag == "expert:increment":
            raise FloatingPointError(message)
        return run_stage(model, samples, adapter_id, stage, seed, stage_tag, cache)

    monkeypatch.setattr(training, "_run_stage", failing_run_stage)
    model = ToyTransformer(cfg)
    before = model.param_checksums()
    with pytest.raises(FloatingPointError) as err:
        train_stage(model, "experts", data, cfg)
    assert type(err.value) is FloatingPointError and str(err.value) == message
    assert model.param_checksums() == before
    assert multiprocessing.active_children() == []


def test_dead_worker_fails_the_stage_and_leaves_no_workers(train_setup, monkeypatch):
    # a worker that exits mid-run, as an out-of-memory kill would, makes the
    # stage raise instead of waiting forever on the run it held
    cfg, data = train_setup
    _cpus(monkeypatch, 4)
    run_stage = training._run_stage

    def dying_run_stage(model, samples, adapter_id, stage, seed, stage_tag, cache):
        if stage_tag == "expert:increment":
            os._exit(1)
        return run_stage(model, samples, adapter_id, stage, seed, stage_tag, cache)

    def hung(signum, frame):
        raise TimeoutError("train_stage is still waiting on a dead worker")

    monkeypatch.setattr(training, "_run_stage", dying_run_stage)
    model = ToyTransformer(cfg)
    before = model.param_checksums()
    previous = signal.signal(signal.SIGALRM, hung)
    signal.alarm(60)
    try:
        with pytest.raises(BrokenProcessPool):
            train_stage(model, "experts", data, cfg)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert model.param_checksums() == before
    assert multiprocessing.active_children() == []


def test_training_reduces_loss(train_setup):
    cfg, data = train_setup
    cfg5 = _shrunk(cfg, epochs=5)
    model = ToyTransformer(cfg5)
    reports = train_stage(model, "experts", data, cfg5)
    report = reports[model.task_adapter_ids.index("identity")]
    assert report.final_loss < report.initial_loss


def test_train_premerged_touches_only_premerged(train_setup):
    cfg, data = train_setup
    model = ToyTransformer(cfg)
    before = model.param_checksums()
    (report,) = train_stage(model, "premerged", data, cfg)
    after = model.param_checksums()
    touched = {n for n in before if before[n] != after[n]}
    assert touched == set(model.adapter_param_names("premerged"))
    assert report.stage == "premerged" and report.adapter_id == "premerged"


def test_router_stage_requires_earlier_stages(train_setup):
    cfg, data = train_setup
    model = ToyTransformer(cfg)
    with pytest.raises(StageOrderError, match="expert"):
        train_stage(model, "router", data, cfg)
    train_stage(model, "experts", data, cfg)
    with pytest.raises(StageOrderError, match="pre-merged"):
        train_stage(model, "router", data, cfg)
    train_stage(model, "premerged", data, cfg)
    before = model.param_checksums()
    (report,) = train_stage(model, "router", data, cfg)
    after = model.param_checksums()
    touched = {n for n in before if before[n] != after[n]}
    assert touched == set(model.router_param_names())
    assert report.stage == "router" and report.adapter_id is None


def test_stage_runs_are_seed_deterministic(train_setup):
    cfg, data = train_setup
    runs = []
    for _ in range(2):
        model = ToyTransformer(cfg)
        reps = train_stage(model, "experts", data, cfg)
        runs.append(([r.epoch_losses for r in reps],
                     model.param_checksums(
                         model.adapter_param_names("increment"))))
    assert runs[0] == runs[1]


def test_empty_bucket_and_unknown_stage_rejected(train_setup, monkeypatch):
    # both before any prefix is computed
    cfg, data = train_setup

    def no_work(*args, **kwargs):
        raise AssertionError("reached the prefix cache")

    monkeypatch.setattr(training, "PrefixCache", no_work)
    model = ToyTransformer(cfg)
    with pytest.raises(KeyError, match="unknown stage"):
        train_stage(model, "ghost", data, cfg)
    for stage in ("experts", "premerged", "router"):
        with pytest.raises(ValueError, match="empty training dataset"):
            train_stage(model, stage, [], cfg)
    no_echo = [s for s in data if "echo_first" not in s.relevant_experts["style"]]
    with pytest.raises(ValueError, match=r"empty data bucket for task\(s\) \['echo_first'\]"):
        train_stage(model, "experts", no_echo, cfg)


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
    d = dataclasses.asdict(rep)
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
    rng = np.random.default_rng(17)
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
                for g, group in enumerate(model.groups):
                    slot = iw[g, : len(group.experts)].argmax()
                    hits[group.name] += group.experts[slot] in \
                        batch[b].relevant_experts.get(group.name, ())
    assert n == cfg.model.n_layers * rep.n_scored_tokens
    assert abs(rep.mean_group_entropy - ent / n) <= 1e-12
    for name, acc in rep.routing_accuracy.items():
        assert abs(acc - hits[name] / n) <= 1e-12


def test_grad_check_passes_and_negative_control_fails(train_setup):
    cfg, data = train_setup
    model = ToyTransformer(cfg)
    # non-zero adapters so their gradients are not vacuously zero
    rng = np.random.default_rng(5)
    for name in model.adapter_param_names("identity"):
        model.params[name] = model.params[name] + rng.normal(
            scale=0.05, size=model.params[name].shape)
    subset = model.adapter_param_names("identity") + ["unembed"]
    err = grad_check(model, data[0].tokens(), subset)
    assert err < 1e-4
    bad = grad_check(model, data[0].tokens(), subset, inject_error=True)
    assert bad > 1e-2


def test_grad_check_validates_subset(train_setup):
    cfg, data = train_setup
    model = ToyTransformer(cfg)
    with pytest.raises(ValueError):
        grad_check(model, data[0].tokens(), [])
    with pytest.raises(KeyError):
        grad_check(model, data[0].tokens(), ["ghost"])


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
