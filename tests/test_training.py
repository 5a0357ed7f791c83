"""The training stages: optimizer oracle, freeze locality per stage, stage
ordering guard, worker processes against the in-process path, evaluation
metrics, and the gradient-check harness."""

import dataclasses
import itertools
import json
import math
import multiprocessing
import os
import signal
import threading
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path

import numpy as np
import pytest

import oracle
from atmoe.checkpoint import load_checkpoint
from atmoe.cli import jitter_params
from atmoe.config import load_config
from atmoe.model import ToyTransformer
from atmoe.router import routing
from atmoe.taskgen import batch_arrays, generate, per_task_split, read_jsonl
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

from conftest import ROUTERS, spy_attention, tiny_config

ROOT = Path(__file__).resolve().parents[1]
VERIFY = ROOT / "runs" / "verify"  # scripts/run_pipeline.py --workdir runs/verify


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
def train_setup(catalog):
    cfg = _shrunk(tiny_config(seed=11, vocab_size=40, max_seq_len=20))
    data = generate(dataclasses.replace(catalog, payload_max_len=5), 48, seed=101,
                    multi_intent_fraction=0.3)
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

        def spying_loss_graph(self, tokens, rows, targets, trainable, coef, prefix):
            with log.open("a") as fh:
                fh.write(json.dumps([os.getpid(), coef.tolist(), list(trainable)]) + "\n")
            return loss_graph(self, tokens, rows, targets, trainable, coef, prefix)

        model = ToyTransformer(cfg)
        before = model.param_checksums()
        with monkeypatch.context() as m:
            _cpus(m, cpus)
            m.setattr(ToyTransformer, "loss_graph", spying_loss_graph)
            reports = train_stage(model, "experts", data)
        after = model.param_checksums()
        calls = [json.loads(line) for line in log.read_text().splitlines()]
        pids = {pid for pid, *_ in calls}
        assert (pids == {os.getpid()}) if cpus == 1 else (os.getpid() not in pids)
        runs = [(tuple(coef), tuple(trainable)) for _, coef, trainable in calls]
        ids = model.task_adapter_ids
        want = [(tuple(model.only(aid)), tuple(model.adapter_param_names(aid))) for aid in ids]
        assert set(runs) == set(want)
        if cpus == 1:
            assert list(dict.fromkeys(runs)) == want
        split = per_task_split(data, ids)
        st = cfg.training.experts
        assert [runs.count(w) for w in want] == [
            st.epochs * math.ceil(len(split[aid]) / st.batch_size) for aid in ids]
        touched = {n for n in before if before[n] != after[n]}
        assert touched == {n for aid in ids for n in model.adapter_param_names(aid)}
        assert [(r.adapter_id, r.n_samples) for r in reports] == [
            (aid, len(split[aid])) for aid in ids]
    report = reports[ids.index("reverse")]
    assert isinstance(report, TrainReport)
    assert report.stage == "experts" and report.adapter_id == "reverse"
    assert len(report.epoch_losses) == cfg.training.experts.epochs
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
            reports = train_stage(model, "experts", data)
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

    def failing_run_stage(model, samples, adapter_id, stage, stage_tag, cache):
        if stage_tag == "expert:increment":
            raise FloatingPointError(message)
        return run_stage(model, samples, adapter_id, stage, stage_tag, cache)

    monkeypatch.setattr(training, "_run_stage", failing_run_stage)
    model = ToyTransformer(cfg)
    before = model.param_checksums()
    with pytest.raises(FloatingPointError) as err:
        train_stage(model, "experts", data)
    assert type(err.value) is FloatingPointError and str(err.value) == message
    assert model.param_checksums() == before
    assert multiprocessing.active_children() == []


def test_dead_worker_fails_the_stage_and_leaves_no_workers(train_setup, monkeypatch):
    # a worker that exits mid-run, as an out-of-memory kill would, makes the
    # stage raise instead of waiting forever on the run it held
    cfg, data = train_setup
    _cpus(monkeypatch, 4)
    run_stage = training._run_stage

    def dying_run_stage(model, samples, adapter_id, stage, stage_tag, cache):
        if stage_tag == "expert:increment":
            os._exit(1)
        return run_stage(model, samples, adapter_id, stage, stage_tag, cache)

    def hung(signum, frame):
        raise TimeoutError("train_stage is still waiting on a dead worker")

    monkeypatch.setattr(training, "_run_stage", dying_run_stage)
    model = ToyTransformer(cfg)
    before = model.param_checksums()
    previous = signal.signal(signal.SIGALRM, hung)
    signal.alarm(60)
    try:
        with pytest.raises(BrokenProcessPool):
            train_stage(model, "experts", data)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert model.param_checksums() == before
    assert multiprocessing.active_children() == []


def test_training_reduces_loss(train_setup):
    cfg, data = train_setup
    cfg5 = _shrunk(cfg, epochs=5)
    model = ToyTransformer(cfg5)
    reports = train_stage(model, "experts", data)
    report = reports[model.task_adapter_ids.index("identity")]
    assert report.epoch_losses[-1] < report.epoch_losses[0]


def test_train_premerged_touches_only_premerged(train_setup):
    cfg, data = train_setup
    model = ToyTransformer(cfg)
    before = model.param_checksums()
    (report,) = train_stage(model, "premerged", data)
    after = model.param_checksums()
    touched = {n for n in before if before[n] != after[n]}
    assert touched == set(model.adapter_param_names("premerged"))
    assert report.stage == "premerged" and report.adapter_id == "premerged"


def test_router_stage_requires_earlier_stages(train_setup):
    cfg, data = train_setup
    model = ToyTransformer(cfg)
    with pytest.raises(StageOrderError, match="expert"):
        train_stage(model, "router", data)
    train_stage(model, "experts", data)
    with pytest.raises(StageOrderError, match="pre-merged"):
        train_stage(model, "router", data)
    train_stage(model, "premerged", data)
    before = model.param_checksums()
    (report,) = train_stage(model, "router", data)
    after = model.param_checksums()
    touched = {n for n in before if before[n] != after[n]}
    assert touched == set(model.router_param_names())
    assert report.stage == "router" and report.adapter_id is None


def test_stage_runs_are_seed_deterministic(train_setup):
    cfg, data = train_setup
    runs = []
    for _ in range(2):
        model = ToyTransformer(cfg)
        reps = train_stage(model, "experts", data)
        runs.append(([r.epoch_losses for r in reps],
                     model.param_checksums(
                         model.adapter_param_names("increment"))))
    assert runs[0] == runs[1]


@pytest.mark.parametrize("stage,ckpt_in", [("experts", None), ("premerged", "experts"),
                                           ("router", "premerged")])
def test_one_epoch_reproduces_the_committed_first_epoch_loss(stage, ckpt_in):
    # pins the training path to runs/verify: one epoch of each stage, from a
    # fresh default model or the committed checkpoint of the stage before,
    # gives every run's committed first-epoch loss
    if ckpt_in is None:
        model = ToyTransformer(load_config(ROOT / "configs" / "default.json"))
    else:
        model = load_checkpoint(VERIFY / f"ckpt_{ckpt_in}.json").model
    sec, cfg = dataclasses.replace, model.cfg
    one = sec(cfg.training, **{stage: sec(getattr(cfg.training, stage), epochs=1)})
    model = ToyTransformer(sec(cfg, training=one), model.params)
    reports = train_stage(model, stage, read_jsonl(VERIFY / "data" / "train.jsonl"))
    committed = json.loads((VERIFY / f"ckpt_{stage}.json.report.json").read_text())["reports"]
    assert [r.adapter_id for r in reports] == [c["adapter_id"] for c in committed]
    for r, c in zip(reports, committed):
        want = c["epoch_losses"][0]
        assert abs(r.epoch_losses[0] - want) <= 1e-12 * abs(want), r.adapter_id


def test_empty_bucket_and_unknown_stage_rejected(train_setup, monkeypatch):
    # both before any prefix is computed
    cfg, data = train_setup

    def no_work(*args, **kwargs):
        raise AssertionError("reached the prefix cache")

    monkeypatch.setattr(training, "PrefixCache", no_work)
    model = ToyTransformer(cfg)
    with pytest.raises(KeyError, match="unknown stage"):
        train_stage(model, "ghost", data)
    for stage in ("experts", "premerged", "router"):
        with pytest.raises(ValueError, match="empty training dataset"):
            train_stage(model, stage, [])
    no_echo = [s for s in data if "echo_first" not in s.relevant_experts["style"]]
    with pytest.raises(ValueError, match=r"empty data bucket for task\(s\) \['echo_first'\]"):
        train_stage(model, "experts", no_echo)


def test_evaluate_report_fields(train_setup):
    cfg, data = train_setup
    model = ToyTransformer(cfg)
    rep = evaluate(model, data[:20], model.only(None))
    assert isinstance(rep, EvalReport)
    assert rep.n_samples == 20
    assert rep.n_scored_tokens == sum(len(s.target_tokens) for s in data[:20])
    assert 0.0 <= rep.token_accuracy <= 1.0
    assert rep.mean_loss > 0.0
    # no router runs in a constant mixture, so there is no routing to score
    assert rep.routing_accuracy is rep.mean_group_entropy is None
    learned = evaluate(model, data[:20])
    assert set(learned.routing_accuracy) == {g.name for g in model.groups}
    assert np.isfinite(learned.mean_group_entropy)
    assert 0.0 <= learned.mean_group_entropy <= np.log(cfg.n_groups) + 1e-12
    d = dataclasses.asdict(rep)
    assert not d.keys() & {"only", "lambda"} and d["n_samples"] == 20


def test_evaluate_modes_agree_on_fresh_model(train_setup):
    # zero adapters: every mixture scores identically
    cfg, data = train_setup
    model = ToyTransformer(cfg)
    full = evaluate(model, data[:16])
    base = evaluate(model, data[:16], model.only(None))
    pm = evaluate(model, data[:16], model.only("premerged"))
    assert full.mean_loss == pytest.approx(base.mean_loss, rel=1e-12)
    assert pm.mean_loss == pytest.approx(base.mean_loss, rel=1e-12)


def test_evaluate_routes_only_the_learned_mixture(train_setup, monkeypatch):
    # a constant mixture never calls the router; the learned one routes
    # every layer of every batch once
    cfg, data = train_setup
    model = _routed_eval_model(cfg)
    calls = []
    real = routing

    def spy(*args):
        calls.append(args[0].shape)
        return real(*args)

    monkeypatch.setattr("atmoe.model.routing", spy)
    for aid in (None, "reverse", "premerged"):
        evaluate(model, data[:16], model.only(aid))
    assert calls == []
    evaluate(model, data[:16])
    assert len(calls) == model.cfg.model.n_layers


def _routed_eval_model(cfg, router=None):
    """Two layers, jittered, lam 0.3, with routing that varies row to row."""
    sec = dataclasses.replace
    cfg = sec(cfg, model=sec(cfg.model, n_layers=2),
              router=sec(cfg.router, **(router or {})), atmoe=sec(cfg.atmoe, lam=0.3))
    model = ToyTransformer(cfg)
    jitter_params(model)
    rng = np.random.default_rng(17)
    for name in model.router_param_names():
        model.params[name] = model.params[name] + rng.normal(0.0, 2.0, model.params[name].shape)
    return model


@pytest.mark.parametrize("coef", [None], ids=["full"])
@pytest.mark.parametrize("router", ROUTERS)
def test_evaluate_routing_matches_per_vector_router(train_setup, router, coef):
    # evaluate reads the routing weights the graph computed on scored rows;
    # the oracle routes the full-row graph's expert inputs per vector. Only
    # the learned mixture (coef None) routes.
    cfg, data = train_setup
    model = _routed_eval_model(cfg, router)
    cfg = model.cfg
    rep = evaluate(model, data, coef)

    hits = {g.name: 0 for g in model.groups}
    ent, n = 0.0, 0
    for start in range(0, len(data), 64):
        batch = data[start: start + 64]
        tokens, rows, _ = batch_arrays(batch)
        _, _, aux = model.build_graph(tokens)
        for i in range(cfg.model.n_layers):
            wg, wd = (model.params[f"blocks.{i}.moe.{w}"] for w in ("wg", "wd"))
            for row, b in zip(rows, rows // tokens.shape[1]):
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


def test_evaluate_batches_sorted_by_length_with_windowed_last_attention(train_setup, monkeypatch):
    # batch widths never fall, and the last block queries from each batch's
    # first scored position, after earlier blocks that query everywhere
    # (on one CPU: this call order exists only when the batches run in turn)
    cfg, data = train_setup
    model = _routed_eval_model(cfg)
    monkeypatch.setattr(training, "EVAL_BATCH", 8)
    _cpus(monkeypatch, 1)
    graphs = []
    build_graph = model.build_graph

    def graph_spy(tokens, *args):
        graphs.append((tokens.shape[1], int((args[2] % tokens.shape[1]).min())))
        return build_graph(tokens, *args)

    monkeypatch.setattr(model, "build_graph", graph_spy)
    q0s = spy_attention(monkeypatch)
    evaluate(model, data)
    widths = [w for w, _ in graphs]
    assert len(graphs) == math.ceil(len(data) / 8)
    assert widths == sorted(widths)
    assert q0s[0::2] == [0] * len(graphs)
    assert q0s[1::2] == [q0 for _, q0 in graphs]
    assert min(q0 for _, q0 in graphs) > 0


# mixture(model) is the coef: learned, the frozen base alone, one expert alone
MIXTURES = pytest.mark.parametrize("mixture", [lambda m: None, lambda m: m.only(None),
                                               lambda m: m.only("reverse")],
                                   ids=["full-None", "base-None", "adapter-reverse"])


@MIXTURES
def test_evaluate_does_not_depend_on_sample_order(train_setup, monkeypatch, mixture):
    cfg, data = train_setup
    model = _routed_eval_model(cfg)
    coef = mixture(model)
    monkeypatch.setattr(training, "EVAL_BATCH", 8)
    want = evaluate(model, data, coef)
    shuffled = [data[int(i)] for i in np.random.default_rng(5).permutation(len(data))]
    for order in (data[::-1], shuffled):
        got = evaluate(model, order, coef)
        assert got.n_scored_tokens == want.n_scored_tokens
        assert got.token_accuracy == want.token_accuracy
        assert got.routing_accuracy == want.routing_accuracy
        assert got.mean_loss == pytest.approx(want.mean_loss, rel=1e-12, abs=0)
        if coef is None:
            assert got.mean_group_entropy == pytest.approx(want.mean_group_entropy, rel=1e-12,
                                                           abs=0)


@MIXTURES
def test_evaluate_threads_equal_in_process(train_setup, monkeypatch, mixture):
    # one CPU and no BLAS thread setter score every batch in this thread, four
    # CPUs on a thread pool with OpenBLAS pinned to one thread: the same
    # report, bit for bit, and no thread left behind
    cfg, data = train_setup
    model = _routed_eval_model(cfg)
    coef = mixture(model)
    monkeypatch.setattr(training, "EVAL_BATCH", 8)
    set_blas_threads = training._blas_thread_setter()  # None without OpenBLAS
    build_graph = model.build_graph
    reports = []
    for cpus, setter in ((1, True), (4, True), (4, False)):
        pins, scorers = [], set()

        def pinning(n):
            pins.append(n)
            if set_blas_threads is not None:
                set_blas_threads(n)

        def graph_spy(*args):
            scorers.add(threading.get_ident())
            return build_graph(*args)

        with monkeypatch.context() as m:
            _cpus(m, cpus)
            m.setattr(training, "_blas_thread_setter", lambda: pinning if setter else None)
            m.setattr(model, "build_graph", graph_spy)
            threads = threading.active_count()
            reports.append(evaluate(model, data, coef))
        assert threading.active_count() == threads
        pooled = (cpus, setter) == (4, True)
        assert pins == ([1] if pooled else [])
        assert (threading.get_ident() in scorers) is not pooled
    assert reports[0] == reports[1] == reports[2]


@pytest.mark.parametrize("cpus", [1, 4])
def test_failed_eval_batch_reaches_the_caller_and_leaves_no_threads(train_setup, monkeypatch,
                                                                    cpus):
    # the third batch's graph fails in this thread or on the pool; either way
    # the caller gets that error and every pool thread is joined
    cfg, data = train_setup
    model = _routed_eval_model(cfg)
    monkeypatch.setattr(training, "EVAL_BATCH", 8)
    _cpus(monkeypatch, cpus)
    pins = []
    monkeypatch.setattr(training, "_blas_thread_setter", lambda: pins.append)
    calls, build_graph = itertools.count(), model.build_graph

    def failing_graph(*args):
        if next(calls) == 2:
            raise FloatingPointError("batch 3 failed")
        return build_graph(*args)

    monkeypatch.setattr(model, "build_graph", failing_graph)
    threads = threading.active_count()
    with pytest.raises(FloatingPointError, match="^batch 3 failed$"):
        evaluate(model, data)
    assert threading.active_count() == threads
    assert pins == ([1] if cpus == 4 else [])


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
    tokens, rows, targets = batch_arrays(batch)
    lens = np.array([len(s.tokens()) for s in batch])
    pad = np.arange(tokens.shape[1]) >= lens[:, None]
    assert pad.any()
    prefix = cache.batch(batch, tokens.shape[1])
    assert not prefix[pad].any()
    aid = model.task_adapter_ids[0] if mode == "adapter" else None
    trainable = model.adapter_param_names(aid) if aid else model.router_param_names()
    coef = model.only(aid) if aid else None
    runs = []
    for pre in (prefix, None):
        loss, P, _ = model.loss_graph(tokens, rows, targets, trainable, coef, pre)
        loss.backward()
        runs.append((loss.data, [P[n].grad for n in trainable]))
    (loss, grads), (want_loss, want_grads) = runs
    assert abs(loss - want_loss) <= 1e-12 * abs(want_loss)
    for name, g, want in zip(trainable, grads, want_grads):
        assert np.linalg.norm(g - want) <= 1e-12 * np.linalg.norm(want), name
