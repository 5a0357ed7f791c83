"""Low-rank adapters as the model stores and runs them: init distribution,
zero cold start, the graph's single-adapter output against the dense
``W0 + B A`` oracle, shape checks, and adapter-id bookkeeping."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from atmoe.cli import jitter_params
from atmoe.config import PREMERGED_ID, ConfigError, GroupDef
from atmoe.model import ADAPTER_STD, ToyTransformer

from conftest import tiny_config


def _tokens(cfg, seed=3):
    return np.random.default_rng(seed).integers(0, cfg.model.vocab_size, size=(2, cfg.model.max_seq_len))


def test_init_shapes_and_b_zero():
    cfg = tiny_config(n_layers=2)
    m = ToyTransformer(cfg)
    r, d, d_ff = cfg.model.rank, cfg.model.d_model, cfg.model.d_ff
    for aid in m.adapter_ids:
        for i in range(2):
            b = f"blocks.{i}.moe.experts.{aid}"
            assert m.params[f"{b}.A"].shape == (r, d_ff)
            np.testing.assert_array_equal(m.params[f"{b}.B"], np.zeros((d, r)))
    assert not any(n.endswith(".scale") for n in m.params)


def test_init_a_matches_declared_std():
    # Many draws: the sample std of A must sit near the documented constant.
    entries = np.concatenate([
        ToyTransformer(tiny_config(seed=s, d_model=8, d_ff=32, rank=4)).params[
            f"blocks.0.moe.experts.{aid}.A"].ravel()
        for s in range(5) for aid in ("identity", "low_range", PREMERGED_ID)])
    assert abs(entries.std() - ADAPTER_STD) < 0.1 * ADAPTER_STD
    assert abs(entries.mean()) < 3 * ADAPTER_STD / np.sqrt(entries.size) * 5


def test_init_deterministic_per_seed():
    name = "blocks.0.moe.experts.reverse.A"
    a1, a2, a3 = (ToyTransformer(tiny_config(seed=s)).params[name] for s in (9, 9, 10))
    np.testing.assert_array_equal(a1, a2)
    assert not np.array_equal(a1, a3)


def test_fresh_adapter_is_exact_zero_update():
    # B = 0: every mixture's expert projection returns the base projection
    # bit for bit, in every layer
    m = ToyTransformer(tiny_config(n_layers=2))
    tokens = _tokens(m.cfg)
    _, _, base = m.build_graph(tokens, (), m.only(None))
    for coef in (None, m.only("identity"), m.only(PREMERGED_ID)):
        _, _, aux = m.build_graph(tokens, (), coef)
        for y, want in zip(aux["moe_output"], base["moe_output"]):
            np.testing.assert_array_equal(y, want)


def test_apply_matches_dense_delta():
    m = ToyTransformer(tiny_config(n_layers=2))
    jitter_params(m, std=0.5)
    tokens = _tokens(m.cfg)
    for aid in m.adapter_ids:
        _, _, aux = m.build_graph(tokens, (), m.only(aid))
        for i in range(2):
            b = f"blocks.{i}"
            W = m.params[f"{b}.ffn.down_w0"] + (m.params[f"{b}.moe.experts.{aid}.B"]
                                                @ m.params[f"{b}.moe.experts.{aid}.A"])
            want = aux["moe_input"][i] @ W.T
            assert np.linalg.norm(aux["moe_output"][i] - want) <= 1e-12 * np.linalg.norm(want)


def test_apply_rejects_wrong_length():
    # an adapter must read d_ff inputs and write d_model outputs
    cfg = tiny_config()
    params = ToyTransformer(cfg).params
    r, d, d_ff = cfg.model.rank, cfg.model.d_model, cfg.model.d_ff
    for p, shape in (("A", (r, d_ff - 1)), ("B", (d + 1, r))):
        bad = dict(params, **{f"blocks.0.moe.experts.identity.{p}": np.zeros(shape)})
        with pytest.raises(ValueError, match="shape"):
            ToyTransformer(cfg, bad)


@settings(max_examples=30, deadline=None)
@given(d=st.integers(2, 8), k=st.integers(2, 8), data=st.data())
def test_delta_rank_bounded_by_r(d, k, data):
    # with W0 = 0 the projection is B A u alone: over many rows
    # its outputs span at most r dimensions
    r = data.draw(st.integers(1, min(d, k)))
    m = ToyTransformer(tiny_config(seed=d * 100 + k * 10 + r, d_model=d, d_ff=k, rank=r,
                                   n_heads=1))
    jitter_params(m, std=1.0)
    m.params["blocks.0.ffn.down_w0"] = np.zeros((d, k))
    _, _, aux = m.build_graph(_tokens(m.cfg), (), m.only("increment"))
    assert aux["moe_output"][0].shape == (16, d)
    assert np.linalg.matrix_rank(aux["moe_output"][0]) <= r


def test_rank_and_scaling_validation():
    with pytest.raises(ConfigError, match="rank"):
        tiny_config(rank=5)  # d_model is 4
    cfg = tiny_config()
    params = ToyTransformer(cfg).params
    r, d = cfg.model.rank, cfg.model.d_model
    bad = dict(params, **{"blocks.0.moe.experts.identity.B": np.zeros((d, r + 1))})
    with pytest.raises(ValueError, match="shape"):
        ToyTransformer(cfg, bad)


def test_adapter_set_premerged_and_task_ids():
    m = ToyTransformer(tiny_config())
    experts = [e for g in m.cfg.groups for e in g.experts]
    assert m.task_adapter_ids == experts
    assert m.adapter_ids == experts + [PREMERGED_ID]
    with pytest.raises(KeyError, match="unknown adapter id"):
        m.adapter_param_names("nope")
    with pytest.raises(KeyError, match="unknown adapter id"):
        m.only("nope")


def test_adapter_set_requires_exactly_one_premerged():
    # the pre-merged id is reserved, so a config cannot name a second one
    cfg = tiny_config()
    for groups in ((GroupDef("a", (PREMERGED_ID,)),),
                   (GroupDef("a", ("x",)), GroupDef("b", ("y", PREMERGED_ID)))):
        with pytest.raises(ConfigError, match="reserved"):
            dataclasses.replace(cfg, groups=groups).validate()
    assert ToyTransformer(cfg).adapter_ids.count(PREMERGED_ID) == 1
