"""Decoder model: parameter registry, adapter-mixture semantics (learned vs
no adapter vs one adapter), the balance lam, structured base init, and the
per-layer routing trace."""

import dataclasses
import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

import oracle
from atmoe import autograd as ag
from atmoe import model as M
from atmoe.cli import jitter_params
from atmoe.config import PREMERGED_ID, Config, load_config
from atmoe.taskgen import PAYLOAD_IDS, TASKS, batch_arrays, generate
from atmoe.training import grad_check

from conftest import ROUTERS, spy_attention, tiny_config, with_lam


def jitter_adapters(model, seed=99, std=0.05):
    rng = np.random.default_rng(seed)
    for aid in model.adapter_ids:
        for layer in range(model.cfg.model.n_layers):
            for name in model.adapter_param_names(aid):
                if f"blocks.{layer}." in name:
                    model.params[name] = model.params[name] + rng.normal(
                        scale=std, size=model.params[name].shape)


def seq_logits(model, tokens, coef=None):
    """One token sequence's logits [T, vocab] from the batched graph."""
    return model.build_graph(tokens[None, :], (), coef)[0].data


def scored(tokens, positions):
    """``loss_graph``'s (tokens, rows, targets) for one sequence, scoring the
    next token after each of ``positions``."""
    rows = np.asarray(positions, dtype=np.int64)
    return tokens[None, :], rows, tokens[rows + 1]


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


@pytest.mark.parametrize("n_layers", [1, 3])
def test_param_classes_hold_each_trained_tensor_once(n_layers):
    m = M.ToyTransformer(tiny_config(n_layers=n_layers))
    classes = m.param_classes()
    trained = [n for aid in m.adapter_ids for n in m.adapter_param_names(aid)]
    trained += m.router_param_names()
    for name in trained:
        assert sum(name in names for names in classes.values()) == 1, name
    # besides them only the embeddings and the readout, which gradcheck trains
    assert {n for names in classes.values() for n in names} - set(trained) == {
        "tok_emb", "pos_emb", "unembed"}


def test_default_param_classes_are_the_explicit_lists():
    # the lists the gradient check was first written with, in their order;
    # --inject-error corrupts the first class, the group router
    m = M.ToyTransformer(load_config(Path(__file__).resolve().parents[1] / "configs" /
                                     "default.json"))
    L = range(m.cfg.model.n_layers)
    want = {
        "group_router": [f"blocks.{i}.moe.wg" for i in L],
        "intra_router": [f"blocks.{i}.moe.wd" for i in L],
        "lora_a": [f"blocks.{i}.moe.experts.{aid}.A" for i in L for aid in m.adapter_ids],
        "lora_b": [f"blocks.{i}.moe.experts.{aid}.B" for i in L for aid in m.adapter_ids],
        "embeddings": ["tok_emb", "pos_emb"],
        "unembedding": ["unembed"],
    }
    assert list(m.param_classes().items()) == list(want.items())


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
    base = seq_logits(m, tiny_tokens, m.only(None))
    full = seq_logits(m, tiny_tokens)
    np.testing.assert_allclose(full, base, atol=1e-12)
    for aid in m.adapter_ids:
        np.testing.assert_allclose(seq_logits(m, tiny_tokens, m.only(aid)), base, atol=1e-12)


def test_base_mode_ignores_adapters_and_router(tiny_tokens):
    m = M.ToyTransformer(tiny_config())
    before = seq_logits(m, tiny_tokens, m.only(None))
    jitter_adapters(m)
    rng = np.random.default_rng(3)
    for name in m.router_param_names():
        m.params[name] = m.params[name] + rng.normal(
            scale=0.5, size=m.params[name].shape)
    np.testing.assert_array_equal(seq_logits(m, tiny_tokens, m.only(None)), before)
    # the learned mixture, in contrast, now sees the jittered adapters
    assert not np.allclose(seq_logits(m, tiny_tokens), before)


def test_adapter_mode_uses_only_that_adapter(tiny_tokens):
    m = M.ToyTransformer(tiny_config())
    rng = np.random.default_rng(4)
    # perturb exactly one expert; the others stay zero updates
    target = m.task_adapter_ids[0]
    for name in m.adapter_param_names(target):
        m.params[name] = m.params[name] + rng.normal(
            scale=0.1, size=m.params[name].shape)
    base = seq_logits(m, tiny_tokens, m.only(None))
    hot = seq_logits(m, tiny_tokens, m.only(target))
    assert not np.allclose(hot, base)
    for aid in m.adapter_ids:
        if aid == target:
            continue
        np.testing.assert_allclose(seq_logits(m, tiny_tokens, m.only(aid)), base, atol=1e-12)


def test_lam_zero_matches_premerged_adapter_alone(tiny_tokens):
    # the learned mixture at lam 0 is the constant row only(premerged)
    m = M.ToyTransformer(tiny_config())
    jitter_adapters(m)
    arrays = scored(tiny_tokens, range(len(tiny_tokens) - 1))
    lam0, _, _ = with_lam(m, 0.0).loss_graph(*arrays)
    pm, _, _ = m.loss_graph(*arrays, (), m.only(PREMERGED_ID))
    assert abs(lam0.data - pm.data) <= 1e-12 * abs(pm.data)
    # and with routing live the learned mixture differs from the lam=0 slice,
    # by far more than that tolerance
    full, _, _ = m.loss_graph(*arrays)
    assert abs(full.data - lam0.data) > 1e-6 * abs(lam0.data)


def test_mode_validation(tiny_model, tiny_tokens):
    # a constant mixture names known adapters and has one entry per adapter
    with pytest.raises(KeyError):
        tiny_model.only("ghost")
    with pytest.raises(ValueError):
        seq_logits(tiny_model, tiny_tokens, np.ones(len(tiny_model.adapter_ids) - 1))


def _spy_lora_mixture(monkeypatch) -> list[int]:
    """The number of adapters each later ``lora_mixture`` call composes."""
    calls = []
    real = ag.lora_mixture

    def spy(x, coef, As, Bs):
        assert len(As) == len(Bs) == np.shape(coef)[1]
        calls.append(len(As))
        return real(x, coef, As, Bs)

    monkeypatch.setattr(ag, "lora_mixture", spy)
    return calls


def test_mixture_runs_only_its_nonzero_adapters(monkeypatch, tiny_tokens):
    # an expert step composes one A/B pair per layer, no adapter runs none,
    # the learned mixture composes them all
    m = M.ToyTransformer(tiny_config(n_layers=2))
    arrays = scored(tiny_tokens, [2, 3])
    calls = _spy_lora_mixture(monkeypatch)
    aid = m.task_adapter_ids[0]
    m.loss_graph(*arrays, m.adapter_param_names(aid), m.only(aid))
    assert calls == [1, 1]
    calls.clear()
    m.loss_graph(*arrays, (), m.only(None))
    assert calls == []
    m.loss_graph(*arrays, m.router_param_names())
    assert calls == [len(m.adapter_ids)] * 2


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
    assert set(P) == tiny_model.may_train
    assert set(aux) == {"moe_input", "moe_output", "gw", "iw"}
    assert len(aux["gw"]) == tiny_model.cfg.model.n_layers


def _routed_model(router, n_layers=2):
    """A jittered model with the given router temperatures."""
    sec = dataclasses.replace
    cfg = tiny_config(n_layers=n_layers)
    cfg = sec(cfg, router=sec(cfg.router, **router), atmoe=sec(cfg.atmoe, lam=0.3))
    model = M.ToyTransformer(cfg)
    jitter_params(model)
    return model


def _scored_batch(cfg, seed=21):
    """(tokens [3, 6], rows, targets) whose scored rows are a minority."""
    rng = np.random.default_rng(seed)
    tokens = rng.integers(0, cfg.model.vocab_size, size=(3, 6))
    rows = np.array([2, 3, 4, 7, 8, 17])  # positions 2-4, 1-2 and 5
    targets = rng.integers(0, cfg.model.vocab_size, size=(3, 6)).reshape(-1)[rows]
    return tokens, rows, targets


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
    # scored rows only; the reference runs every row and picks the scored
    # ones from the full logits
    model = _routed_model(router)
    tokens, rows, targets = _scored_batch(model.cfg)
    model = with_lam(model, lam)
    expert = model.task_adapter_ids[1]
    coef, trainable = {
        "base": (model.only(None), sorted(model.may_train)),
        "expert": (model.only(expert), model.adapter_param_names(expert)),
        "premerged": (model.only(PREMERGED_ID), model.adapter_param_names(PREMERGED_ID)),
        "router": (None, model.router_param_names()),
        "all": (None, sorted(model.may_train)),
    }[stage]
    loss, P, aux = model.loss_graph(tokens, rows, targets, trainable, coef)
    loss.backward()
    logits, P_ref, _ = model.build_graph(tokens, trainable, coef)
    assert logits.shape[0] == tokens.size
    ref = ag.cross_entropy(ag.getitem(logits, rows), targets)
    ref.backward()
    assert aux["moe_output"][-1].shape[0] == len(rows)
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


# sha256 of the sorted-key JSON of ``param_checksums()`` for configs/default.json
DEFAULT_INIT_DIGESTS = {
    "coded": "e633bbc5741d8da5ae41a9ebc93f07b279919226100f6c28f6ecadf70626af3f",
    "random": "c58455894817573ac754291140d4c46f59dde835461e648746f2fdbfb0df0bd3",
}


@pytest.mark.parametrize("base_init", sorted(DEFAULT_INIT_DIGESTS))
def test_default_init_is_pinned(base_init):
    # every tensor of a fresh default model, the drawn adapters and routers
    # too, which no committed checkpoint holds untrained
    cfg = load_config(Path(__file__).resolve().parents[1] / "configs" / "default.json")
    cfg = dataclasses.replace(cfg, model=dataclasses.replace(cfg.model, base_init=base_init))
    doc = json.dumps(M.ToyTransformer(cfg).param_checksums(), sort_keys=True)
    assert hashlib.sha256(doc.encode()).hexdigest() == DEFAULT_INIT_DIGESTS[base_init]


def test_coded_layout_blocks_tile_the_code_width():
    # blocks sit in table order with no gap or overlap; the control code has one
    # slot per instruction token of the task table
    stop = 0
    for name, width in M.CODED_LAYOUT:
        assert width > 0 and M.CODED_BLOCKS[name] == slice(stop, stop + width)
        stop += width
    assert stop == M.CODED_WIDTH and len(M.CODED_BLOCKS) == len(M.CODED_LAYOUT)
    tokens = [t.token for t in TASKS.values() if t.token is not None]
    assert M.CODED_BLOCKS["ctrl"] == slice(M.CODED_BLOCKS["tok"].stop,
                                           M.CODED_BLOCKS["tok"].stop + len(tokens))
    assert len(set(M.FFN_PASS)) == len(M.FFN_PASS) and set(M.FFN_PASS) <= set(M.CODED_BLOCKS)


def test_coded_ffn_pass_rows_read_exactly_their_blocks():
    # row pair k of each layer's up_w reads the k-th FFN_PASS coordinate at
    # +/- gain and nothing else, with zero bias, so gelu(x) - gelu(-x) = x
    cfg = load_config(Path(__file__).resolve().parents[1] / "configs" / "default.json")
    model = M.ToyTransformer(cfg)
    for i in range(cfg.model.n_layers):
        up_w, up_b = (model.params[f"blocks.{i}.ffn.{w}"] for w in ("up_w", "up_b"))
        row = 0
        for name in M.FFN_PASS:
            block = M.CODED_BLOCKS[name]
            width = block.stop - block.start
            want = np.zeros((width, cfg.model.d_model))
            want[:, block] = M.FFN_PASS_GAIN * np.eye(width)
            np.testing.assert_array_equal(up_w[row: row + 2 * width: 2], want, err_msg=name)
            np.testing.assert_array_equal(up_w[row + 1: row + 2 * width: 2], -want, err_msg=name)
            row += 2 * width
        assert row == 2 * len(M.FFN_PASS_COORDS) and not up_b[:row].any()


def test_structured_base_reads_out_current_payload_token():
    # The frozen circuit exposes the current token's code through the
    # readout: at every payload position the base argmax is that token,
    # with far more than uniform (1/64) mass. Adapters then reshape this
    # into task-specific continuations.
    cfg = tiny_config(vocab_size=64, d_model=32, d_ff=64, n_heads=4,
                      n_layers=2, max_seq_len=24, base_init="coded")
    m = M.ToyTransformer(cfg)
    p0 = PAYLOAD_IDS.start
    tokens = np.array([0, TASKS["identity"].token, TASKS["plain_end"].token,
                       p0 + 3, p0 + 7, p0 + 1, 1, p0 + 3])
    logits = seq_logits(m, tokens, m.only(None))
    for pos in (3, 4, 5, 7):
        probs = oracle.softmax(logits[pos], 1.0)
        assert probs.argmax() == tokens[pos]
        assert probs[tokens[pos]] > 0.3


def _stage_setup(model, stage):
    """(mixture, trainable names) of one training stage."""
    expert = model.task_adapter_ids[1]
    return {
        "expert": (model.only(expert), model.adapter_param_names(expert)),
        "premerged": (model.only(PREMERGED_ID), model.adapter_param_names(PREMERGED_ID)),
        "router": (None, model.router_param_names()),
        "past_prefix": (None, [n for n in model.params
                               if n in model.may_train and n not in M.PREFIX_PARAMS]),
    }[stage]


@pytest.mark.parametrize("n_layers", [1, 2])
@pytest.mark.parametrize("router", ROUTERS)
@pytest.mark.parametrize("lam", [0.0, 0.3])
@pytest.mark.parametrize("stage", ["expert", "premerged", "router", "past_prefix"])
def test_prefix_path_matches_token_path(n_layers, router, lam, stage):
    # the frozen prefix as a constant against the graph from token ids
    model = with_lam(_routed_model(router, n_layers), lam)
    tokens, rows, targets = _scored_batch(model.cfg)
    coef, trainable = _stage_setup(model, stage)
    prefix = model.frozen_prefix(tokens)
    assert prefix.shape == tokens.shape + (model.cfg.model.d_model,)
    runs = []
    for pre in (prefix, None):
        loss, P, _ = model.loss_graph(tokens, rows, targets, trainable, coef, pre)
        loss.backward()
        runs.append((loss.data, _grads(P, trainable, model.params)))
    (loss, grads), (want_loss, want_grads) = runs
    assert _close(loss, want_loss)
    for name, g, want in zip(trainable, grads, want_grads):
        assert _close(g, want), name


@pytest.mark.parametrize("n_layers", [1, 2])
def test_last_attention_queries_from_first_scored_position(monkeypatch, n_layers):
    model = _routed_model({}, n_layers)
    tokens, rows, targets = _scored_batch(model.cfg)
    q0 = int((rows % tokens.shape[1]).min())
    assert q0 > 0
    calls = spy_attention(monkeypatch)
    model.loss_graph(tokens, rows, targets)
    assert calls == [0] * (n_layers - 1) + [q0]
    calls.clear()
    model.layer_routing_trace(tokens[0])
    assert calls == [0] * n_layers


@pytest.mark.parametrize("name", ["tok_emb", "pos_emb", "blocks.0.attn.wq", "blocks.0.attn.wk",
                                  "blocks.0.attn.wv", "blocks.0.attn.wo"])
def test_prefix_rejects_trainable_prefix_parameter(name):
    # a prefix replaces the embeddings and block 0's attention: the
    # embeddings train without one but not with one, the attention never
    model = _routed_model({})
    assert name in model.params
    tokens, rows, targets = _scored_batch(model.cfg)
    if name in M.PREFIX_PARAMS:
        model.loss_graph(tokens, rows, targets, [name, "unembed"])
    with pytest.raises(ValueError, match="frozen"):
        model.loss_graph(tokens, rows, targets, [name, "unembed"],
                         prefix=model.frozen_prefix(tokens))


BASE_KINDS = ("wq", "wk", "wv", "wo", "up_w", "up_b", "down_w0")


def test_frozen_base_is_every_kind_outside_the_grad_classes():
    model = _routed_model({})
    assert model.may_train == {n for names in model.param_classes().values() for n in names}
    assert {n.rsplit(".", 1)[-1] for n in set(model.params) - model.may_train} == set(BASE_KINDS)


@pytest.mark.parametrize("kind", BASE_KINDS)
def test_base_kinds_are_refused_before_any_graph_node(monkeypatch, kind):
    # only the GRAD_CLASSES kinds may train: build_graph, and so loss_graph
    # and grad_check, refuse every other with no node built
    model = _routed_model({})
    tokens, rows, targets = _scored_batch(model.cfg)
    nodes = []
    real_make = ag._make
    monkeypatch.setattr(ag, "_make", lambda *args: nodes.append(args) or real_make(*args))
    names = [n for n in model.params if n.rsplit(".", 1)[-1] == kind]
    assert len(names) == model.cfg.model.n_layers
    for name in names:
        for run in (lambda t: model.build_graph(tokens, t),
                    lambda t: model.loss_graph(tokens, rows, targets, t),
                    lambda t: grad_check(model, tokens[0], t)):
            with pytest.raises(ValueError, match="frozen base parameters cannot train"):
                run(["unembed", name])
    assert nodes == []


def _default_coded_model():
    return M.ToyTransformer(load_config(Path(__file__).resolve().parents[1]
                                        / "configs" / "default.json"))


class _ReportsNonzero(np.ndarray):
    """An array whose ``any()`` is True whatever it holds."""

    def any(self, *args, **kwargs):
        return True


@pytest.mark.parametrize("mixture", ["learned", "reverse", "none"])
def test_zero_base_projection_is_skipped_bit_for_bit(monkeypatch, mixture):
    # the coded base's zero down_w0 is skipped; the same zeros reporting
    # themselves nonzero take the GEMM: logits and every gradient must be
    # the same bits
    model = _default_coded_model()
    jitter_adapters(model)
    coef = {"learned": None, "reverse": model.only("reverse"), "none": model.only(None)}[mixture]
    trainable = model.adapter_param_names("reverse") + model.router_param_names() + ["unembed"]
    zero_bases = [f"blocks.{i}.ffn.down_w0" for i in range(model.cfg.model.n_layers)]
    assert not any(model.params[n].any() for n in zero_bases)
    tokens, rows, targets = _scored_batch(model.cfg)
    linear_calls = []
    real_linear = ag.linear
    monkeypatch.setattr(ag, "linear", lambda *args: linear_calls.append(args) or real_linear(*args))
    runs = []
    for dense in (False, True):
        if dense:
            model.params.update({n: model.params[n].view(_ReportsNonzero) for n in zero_bases})
        linear_calls.clear()
        logits, P, aux = model.build_graph(tokens, trainable, coef, rows)
        assert len(linear_calls) == (1 + dense) * len(zero_bases)
        ag.cross_entropy(logits, targets).backward()
        runs.append((logits.data, aux["moe_output"], [P[n].grad for n in trainable]))
    (logits, outputs, grads), (want_logits, want_outputs, want_grads) = runs
    assert np.array_equal(logits, want_logits)
    for y, want in zip(outputs, want_outputs):
        assert np.array_equal(y, want)
    if mixture == "none":
        assert not any(y.any() for y in outputs)
    for name, g, want in zip(trainable, grads, want_grads):
        assert (g is None and want is None) or np.array_equal(g, want), name


@pytest.mark.parametrize("mixture", ["learned", "identity"])
def test_default_coded_model_skips_its_exact_zeros(monkeypatch, mixture):
    # the coded base leaves block 0's head 3 and block 1's heads 2-3 unused
    # and zeroes every down_w0: the attention softmax sees 3 and 2 heads, and
    # no linear takes a down_w0. A layout change that revives a head, or a
    # nonzero base projection, fails here instead of slowing every step
    model = _default_coded_model()
    coef = None if mixture == "learned" else model.only(mixture)
    trainable = model.adapter_param_names("identity")
    tokens, rows, targets = _scored_batch(model.cfg)
    softmax_heads, linear_weights, in_attention = [], [], []
    real_attention, real_softmax, real_linear = ag.causal_attention, ag._masked_softmax, ag.linear

    def attention(*args):
        in_attention.append(True)
        try:
            return real_attention(*args)
        finally:
            in_attention.pop()

    def softmax(z, mask):
        if in_attention:
            softmax_heads.append(z.shape[1])
        return real_softmax(z, mask)

    def linear(x, w, b=None):
        linear_weights.append(w)
        return real_linear(x, w, b)

    monkeypatch.setattr(ag, "causal_attention", attention)
    monkeypatch.setattr(ag, "_masked_softmax", softmax)
    monkeypatch.setattr(ag, "linear", linear)
    loss, _, _ = model.loss_graph(tokens, rows, targets, trainable, coef)
    loss.backward()
    assert softmax_heads == [3, 2]
    up = [model.params[f"blocks.{i}.ffn.up_w"] for i in range(2)]
    assert len(linear_weights) == 2 and all(w is u for w, u in zip(linear_weights, up))


def test_graph_rejects_overlong_and_out_of_vocab_tokens(catalog):
    # batch_arrays pads to the longest sample and checks nothing; every batch
    # reaches the token check through build_graph or frozen_prefix
    model = M.ToyTransformer(tiny_config(vocab_size=40, max_seq_len=8))
    samples = generate(catalog, 8, seed=11, multi_intent_fraction=0.0)
    tokens, rows, targets = batch_arrays(samples)
    assert tokens.shape[1] > 8
    fits = tokens[:, :8]
    model.frozen_prefix(fits)
    model.build_graph(fits)
    for bad, match in ((tokens, "exceeds max_seq_len 8"),
                       (np.where(fits == 0, 40, fits), "out of vocabulary"),
                       (fits - 1, "out of vocabulary")):
        with pytest.raises(ValueError, match=match):
            model.frozen_prefix(bad)
        with pytest.raises(ValueError, match=match):
            model.build_graph(bad)
    with pytest.raises(ValueError, match="exceeds max_seq_len"):
        model.loss_graph(tokens, rows, targets)


@pytest.mark.parametrize("router", ROUTERS)
def test_pad_columns_leave_loss_and_router_gradient_unchanged(router):
    # unscored positions appended after every sequence change nothing
    model = _routed_model(router)
    tokens, rows, targets = _scored_batch(model.cfg)
    names = model.router_param_names()
    T = tokens.shape[1]
    runs = []
    for pad in (0, 2):
        wide = np.pad(tokens, ((0, 0), (0, pad)))
        loss, P, _ = model.loss_graph(wide, rows // T * (T + pad) + rows % T, targets, names)
        loss.backward()
        runs.append((loss.data, _grads(P, names, model.params)))
    (loss, grads), (want_loss, want_grads) = runs
    assert _close(loss, want_loss)
    for name, g, want in zip(names, grads, want_grads):
        assert _close(g, want), name
