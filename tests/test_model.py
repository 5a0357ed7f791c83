"""Decoder model: parameter registry, forward-mode semantics (full vs frozen
base vs single adapter), balance override, structured base init, and the
per-layer routing trace."""

import dataclasses

import numpy as np
import pytest

import oracle
from atmoe import autograd as ag
from atmoe import model as M
from atmoe.cli import jitter_params
from atmoe.config import PREMERGED_ID, Config
from atmoe.taskgen import PAYLOAD_BASE, TASK_TOKENS

from conftest import ROUTERS, tiny_config


def jitter_adapters(model, seed=99, std=0.05):
    rng = np.random.default_rng(seed)
    for aid in model.adapter_ids:
        for layer in range(model.cfg.model.n_layers):
            for name in model.adapter_param_names(aid):
                if f"blocks.{layer}." in name:
                    model.params[name] = model.params[name] + rng.normal(
                        scale=std, size=model.params[name].shape)


def seq_logits(model, tokens, mode="full", adapter_id=None, lam_override=None):
    """One token sequence's logits [T, vocab] from the batched graph."""
    return model.build_graph(tokens[None, :], (), mode, adapter_id, lam_override)[0].data


def scored(tokens, positions):
    """``loss_graph``'s arrays for one sequence, scoring the next token after
    each of ``positions``."""
    positions = np.asarray(positions)
    targets = np.zeros((1, len(tokens)), dtype=np.int64)
    weights = np.zeros((1, len(tokens)))
    targets[0, positions] = tokens[positions + 1]
    weights[0, positions] = 1.0
    return tokens[None, :], targets, weights


def test_param_registry_is_exact():
    m = M.ToyTransformer(tiny_config())
    shapes = m.param_shapes()
    assert list(m.params) == list(shapes)
    assert {n: v.shape for n, v in m.params.items()} == shapes
    assert m.router_param_names() == [
        f"blocks.{i}.moe.{w}" for i in range(m.cfg.model.n_layers)
        for w in ("wg", "wd")]
    frozen = m.frozen_outside(["tok_emb"])
    assert "tok_emb" not in frozen
    assert set(frozen) | {"tok_emb"} == set(m.params)


def test_construction_from_params_reproduces_logits(tiny_tokens):
    m1 = M.ToyTransformer(tiny_config())
    m2 = M.ToyTransformer(tiny_config(),
                          params={k: v.copy() for k, v in m1.params.items()})
    np.testing.assert_array_equal(seq_logits(m1, tiny_tokens),
                                  seq_logits(m2, tiny_tokens))


def test_construction_rejects_bad_param_set():
    m = M.ToyTransformer(tiny_config())
    params = dict(m.params)
    del params["tok_emb"]
    with pytest.raises((ValueError, KeyError)):
        M.ToyTransformer(tiny_config(), params=params)


def test_forward_logits_shape(tiny_model, tiny_tokens):
    lg = seq_logits(tiny_model, tiny_tokens)
    assert lg.shape == (len(tiny_tokens), tiny_model.cfg.model.vocab_size)
    assert np.isfinite(lg).all()


def test_fresh_model_all_modes_agree(tiny_tokens):
    # every adapter starts as an exact zero update, so composition is inert
    m = M.ToyTransformer(tiny_config())
    base = seq_logits(m, tiny_tokens, mode="base")
    full = seq_logits(m, tiny_tokens, mode="full")
    np.testing.assert_allclose(full, base, atol=1e-12)
    for aid in m.adapter_ids:
        np.testing.assert_allclose(
            seq_logits(m, tiny_tokens, mode="adapter", adapter_id=aid),
            base, atol=1e-12)


def test_base_mode_ignores_adapters_and_router(tiny_tokens):
    m = M.ToyTransformer(tiny_config())
    before = seq_logits(m, tiny_tokens, mode="base")
    jitter_adapters(m)
    rng = np.random.default_rng(3)
    for name in m.router_param_names():
        m.params[name] = m.params[name] + rng.normal(
            scale=0.5, size=m.params[name].shape)
    np.testing.assert_array_equal(seq_logits(m, tiny_tokens, mode="base"),
                                  before)
    # full mode, in contrast, now sees the jittered adapters
    assert not np.allclose(seq_logits(m, tiny_tokens, mode="full"), before)


def test_adapter_mode_uses_only_that_adapter(tiny_tokens):
    m = M.ToyTransformer(tiny_config())
    rng = np.random.default_rng(4)
    # perturb exactly one expert; the others stay zero updates
    target = m.task_adapter_ids[0]
    for name in m.adapter_param_names(target):
        m.params[name] = m.params[name] + rng.normal(
            scale=0.1, size=m.params[name].shape)
    base = seq_logits(m, tiny_tokens, mode="base")
    hot = seq_logits(m, tiny_tokens, mode="adapter", adapter_id=target)
    assert not np.allclose(hot, base)
    for aid in m.adapter_ids:
        if aid == target:
            continue
        np.testing.assert_allclose(
            seq_logits(m, tiny_tokens, mode="adapter", adapter_id=aid),
            base, atol=1e-12)


def test_lam_zero_matches_premerged_adapter_mode(tiny_tokens):
    m = M.ToyTransformer(tiny_config())
    jitter_adapters(m)
    lam0 = seq_logits(m, tiny_tokens, mode="full", lam_override=0.0)
    pm = seq_logits(m, tiny_tokens, mode="adapter", adapter_id=PREMERGED_ID)
    np.testing.assert_allclose(lam0, pm, atol=1e-12)
    # and with routing live the full pass differs from the lam=0 slice
    assert not np.allclose(seq_logits(m, tiny_tokens, mode="full"), lam0)


def test_mode_validation(tiny_model, tiny_tokens):
    with pytest.raises(ValueError):
        seq_logits(tiny_model, tiny_tokens, mode="nope")
    with pytest.raises(KeyError):
        seq_logits(tiny_model, tiny_tokens, mode="adapter")
    with pytest.raises(KeyError):
        seq_logits(tiny_model, tiny_tokens, mode="adapter", adapter_id="ghost")


def test_loss_matches_hand_cross_entropy(tiny_model, tiny_tokens):
    logits = seq_logits(tiny_model, tiny_tokens)
    ce = []
    for p in (2, 3):
        probs = oracle.softmax(logits[p], 1.0)
        ce.append(-np.log(probs[tiny_tokens[p + 1]]))
    loss, _, _ = tiny_model.loss_graph(*scored(tiny_tokens, [2, 3]))
    np.testing.assert_allclose(loss.data, np.mean(ce), rtol=1e-9)


def test_untrained_random_model_scores_near_uniform():
    # With small random init the logits are near-flat, so next-token loss
    # sits at ln(vocab) to within a small margin.
    cfg = tiny_config(vocab_size=64, d_model=16, max_seq_len=12)
    m = M.ToyTransformer(cfg)
    rng = np.random.default_rng(8)
    tokens = rng.integers(0, 64, size=10)
    loss, _, _ = m.loss_graph(*scored(tokens, range(4, 9)))
    assert abs(loss.data - np.log(64.0)) < 0.2


def test_param_checksums_detect_change():
    m = M.ToyTransformer(tiny_config())
    c1 = m.param_checksums()
    c2 = M.ToyTransformer(tiny_config()).param_checksums()
    assert c1 == c2
    m.params["tok_emb"][0, 0] += 1e-9
    c3 = m.param_checksums()
    assert c3["tok_emb"] != c1["tok_emb"]
    assert {k: v for k, v in c3.items() if k != "tok_emb"} == {
        k: v for k, v in c1.items() if k != "tok_emb"}
    sub = m.param_checksums(names=["pos_emb"])
    assert list(sub) == ["pos_emb"] and sub["pos_emb"] == c1["pos_emb"]


def test_layer_routing_trace_shape_and_sums(tiny_model, tiny_tokens):
    trace = tiny_model.layer_routing_trace(tiny_tokens)
    cfg = tiny_model.cfg
    assert len(trace) == cfg.model.n_layers
    for gw, iw in trace:
        assert gw.shape == (len(tiny_tokens), cfg.n_groups)
        assert iw.shape == (len(tiny_tokens), cfg.n_groups, cfg.max_group_size)
        np.testing.assert_allclose((gw[:, :, None] * iw).sum(axis=(1, 2)), 1.0, atol=1e-9)


def test_build_graph_exposes_routing_internals(tiny_model, tiny_tokens):
    logits, P, aux = tiny_model.build_graph(tiny_tokens[None, :])
    assert logits.data.shape == (len(tiny_tokens),
                                 tiny_model.cfg.model.vocab_size)
    assert set(P) == set(tiny_model.params)
    assert set(aux) == {"moe_input", "moe_output", "gw_nodes", "iw"}
    assert len(aux["gw_nodes"]) == tiny_model.cfg.model.n_layers


def _routed_model(router, n_layers=2):
    """A jittered model with the given router temperatures."""
    sec = dataclasses.replace
    cfg = tiny_config(n_layers=n_layers)
    cfg = sec(cfg, router=sec(cfg.router, **router), atmoe=sec(cfg.atmoe, lam=0.3))
    model = M.ToyTransformer(cfg)
    jitter_params(model)
    return model


def _scored_batch(cfg, seed=21):
    """Tokens [3, 6] whose scored positions are a minority."""
    rng = np.random.default_rng(seed)
    tokens = rng.integers(0, cfg.model.vocab_size, size=(3, 6))
    targets = rng.integers(0, cfg.model.vocab_size, size=(3, 6))
    weights = np.zeros((3, 6))
    weights[0, 2:5] = weights[1, 1:3] = weights[2, 5] = 1.0
    return tokens, targets, weights


def _grads(P, names, params):
    return [P[n].grad if P[n].grad is not None else np.zeros_like(params[n])
            for n in names]


def _close(a, b, tol=1e-12):
    return np.linalg.norm(np.asarray(a) - b) <= tol * np.linalg.norm(b)


@pytest.mark.parametrize("router", ROUTERS)
def test_graph_moe_output_matches_blend_equation(router):
    # every row of each layer's batched MoE output against the per-vector
    # blend equation, fed the same activation
    model = _routed_model(router)
    tokens, _, _ = _scored_batch(model.cfg)
    _, _, aux = model.build_graph(tokens)
    for i in range(model.cfg.model.n_layers):
        for u, y in zip(aux["moe_input"][i], aux["moe_output"][i]):
            want = oracle.blend(model, i, u, model.cfg.atmoe.lam)
            assert np.linalg.norm(y - want) <= 1e-12 * np.linalg.norm(want)


@pytest.mark.parametrize("router", ROUTERS)
@pytest.mark.parametrize("lam", [0.0, 0.3])
@pytest.mark.parametrize("stage", ["base", "expert", "premerged", "router", "all"])
def test_loss_graph_on_scored_rows_matches_full_row_graph(router, lam, stage):
    # loss_graph runs the last block past attention and the head on the
    # scored rows only; the reference runs every row and lets the zero
    # weights drop the rest inside the cross entropy
    model = _routed_model(router)
    tokens, targets, weights = _scored_batch(model.cfg)
    mode, aid, trainable = {
        "base": ("base", None, sorted(model.params)),
        "expert": ("adapter", model.task_adapter_ids[1],
                   model.adapter_param_names(model.task_adapter_ids[1])),
        "premerged": ("adapter", PREMERGED_ID, model.adapter_param_names(PREMERGED_ID)),
        "router": ("full", None, model.router_param_names()),
        "all": ("full", None, sorted(model.params)),
    }[stage]
    loss, P, aux = model.loss_graph(tokens, targets, weights, trainable, mode, aid, lam)
    loss.backward()
    logits, P_ref, _ = model.build_graph(tokens, trainable, mode, aid, lam)
    ref = ag.cross_entropy(logits, targets.reshape(-1), weights.reshape(-1))
    ref.backward()
    assert aux["moe_output"][-1].shape[0] == int(weights.sum())
    assert _close(loss.data, ref.data)
    for name, g, want in zip(trainable, _grads(P, trainable, model.params),
                             _grads(P_ref, trainable, model.params)):
        assert _close(g, want), name


def test_structured_base_token_rows_share_norm():
    cfg = tiny_config(vocab_size=64, d_model=32, d_ff=64, n_heads=4,
                      n_layers=2, max_seq_len=24, base_init="coded")
    m = M.ToyTransformer(cfg)
    norms = np.linalg.norm(m.params["tok_emb"], axis=1)
    target = np.sqrt(2.0) * M.CODE_TOK_SCALE
    # clean code rows carry small noise; ballast rows are renormed exactly
    np.testing.assert_allclose(norms, target, atol=12 * M.CODE_NOISE)


def test_structured_base_position_code_is_mean_free():
    cfg = tiny_config(vocab_size=64, d_model=32, d_ff=64, n_heads=4,
                      n_layers=2, max_seq_len=24, base_init="coded")
    m = M.ToyTransformer(cfg)
    pos = m.params["pos_emb"][:, M._POSC]
    # each 3-phase cosine triple sums to zero, so the code never shifts the
    # per-position mean that layer norm subtracts
    for tri in (pos[:, :3], pos[:, 3:]):
        np.testing.assert_allclose(tri.sum(axis=1), 0.0,
                                   atol=10 * M.CODE_NOISE)


def test_structured_base_is_seed_deterministic():
    cfg = tiny_config(vocab_size=64, d_model=32, d_ff=64, n_heads=4,
                      n_layers=2, max_seq_len=24, base_init="coded")
    a = M.ToyTransformer(cfg).param_checksums()
    b = M.ToyTransformer(cfg).param_checksums()
    assert a == b


def test_structured_base_reads_out_current_payload_token():
    # The frozen circuit exposes the current token's code through the
    # readout: at every payload position the base argmax is that token,
    # with far more than uniform (1/64) mass. Adapters then reshape this
    # into task-specific continuations.
    cfg = tiny_config(vocab_size=64, d_model=32, d_ff=64, n_heads=4,
                      n_layers=2, max_seq_len=24, base_init="coded")
    m = M.ToyTransformer(cfg)
    p0 = PAYLOAD_BASE
    tokens = np.array([0, TASK_TOKENS["identity"], TASK_TOKENS["plain_end"],
                       p0 + 3, p0 + 7, p0 + 1, 1, p0 + 3])
    logits = seq_logits(m, tokens, mode="base")
    for pos in (3, 4, 5, 7):
        probs = oracle.softmax(logits[pos], 1.0)
        assert probs.argmax() == tokens[pos]
        assert probs[tokens[pos]] > 0.3


def _stage_setup(model, stage):
    """(mode, adapter id, trainable names) of one training stage."""
    return {
        "expert": ("adapter", model.task_adapter_ids[1],
                   model.adapter_param_names(model.task_adapter_ids[1])),
        "premerged": ("adapter", PREMERGED_ID, model.adapter_param_names(PREMERGED_ID)),
        "router": ("full", None, model.router_param_names()),
        "past_prefix": ("full", None, [n for n in model.params
                                       if not n.startswith(M.PREFIX_PARAMS)]),
    }[stage]


@pytest.mark.parametrize("n_layers", [1, 2])
@pytest.mark.parametrize("router", ROUTERS)
@pytest.mark.parametrize("lam", [0.0, 0.3])
@pytest.mark.parametrize("stage", ["expert", "premerged", "router", "past_prefix"])
def test_prefix_path_matches_token_path(n_layers, router, lam, stage):
    # the frozen prefix as a constant against the graph from token ids
    model = _routed_model(router, n_layers)
    tokens, targets, weights = _scored_batch(model.cfg)
    mode, aid, trainable = _stage_setup(model, stage)
    prefix = model.frozen_prefix(tokens)
    assert prefix.shape == tokens.shape + (model.cfg.model.d_model,)
    runs = []
    for pre in (prefix, None):
        loss, P, _ = model.loss_graph(tokens, targets, weights, trainable, mode, aid, lam,
                                      pre)
        loss.backward()
        runs.append((loss.data, _grads(P, trainable, model.params)))
    (loss, grads), (want_loss, want_grads) = runs
    assert _close(loss, want_loss)
    for name, g, want in zip(trainable, grads, want_grads):
        assert _close(g, want), name


@pytest.mark.parametrize("name", ["tok_emb", "pos_emb", "blocks.0.attn.wq", "blocks.0.attn.wk",
                                  "blocks.0.attn.wv", "blocks.0.attn.wo"])
def test_prefix_rejects_trainable_prefix_parameter(name):
    model = _routed_model({})
    assert name.startswith(M.PREFIX_PARAMS) and name in model.params
    tokens, targets, weights = _scored_batch(model.cfg)
    with pytest.raises(ValueError):
        model.loss_graph(tokens, targets, weights, [name, "unembed"],
                         prefix=model.frozen_prefix(tokens))


@pytest.mark.parametrize("router", ROUTERS)
def test_pad_columns_leave_loss_and_router_gradient_unchanged(router):
    # unscored positions appended after every sequence change nothing
    model = _routed_model(router)
    tokens, targets, weights = _scored_batch(model.cfg)
    names = model.router_param_names()
    runs = []
    for pad in (0, 2):
        wide = [np.pad(a, ((0, 0), (0, pad))) for a in (tokens, targets, weights)]
        loss, P, _ = model.loss_graph(*wide, names)
        loss.backward()
        runs.append((loss.data, _grads(P, names, model.params)))
    (loss, grads), (want_loss, want_grads) = runs
    assert _close(loss, want_loss)
    for name, g, want in zip(names, grads, want_grads):
        assert _close(g, want), name
