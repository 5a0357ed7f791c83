"""Grouped routing (``router.routing``, the kernel training and evaluation
run): two-level softmax normalization, padded-slot zeros, hand-computed
oracles, temperature behavior."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle
from atmoe.config import ConfigError, GroupDef
from atmoe.model import ROUTER_STD, ToyTransformer
from atmoe.router import routing, slot_mask

from conftest import tiny_config


def _groups(sizes):
    out = []
    next_id = 0
    for g, n in enumerate(sizes):
        ids = tuple(f"e{next_id + i}" for i in range(n))
        next_id += n
        out.append(GroupDef(f"g{g}", ids))
    return tuple(out)


def _router(sizes, in_dim, seed=0, std=0.02):
    """(wg, wd, mask) of a router over groups of the given sizes."""
    rng = np.random.default_rng(seed)
    G, M = len(sizes), max(sizes)
    wg = rng.normal(0.0, std, size=(in_dim, G))
    wd = rng.normal(0.0, std, size=(G, in_dim, M))
    return wg, wd, slot_mask(_groups(sizes))


def _route(x, wg, wd, mask, tau_g=1.0, tau_d=1.0):
    """routing() of the rows of x as arrays: group [N, G], intra [N, G, M]."""
    gw, iw = routing(np.atleast_2d(x), wg, wd, mask, tau_g, tau_d)
    return gw.data, iw.data


def test_group_weights_match_plain_softmax():
    wg, wd, mask = _router([2, 3], in_dim=5, seed=1)
    x = np.random.default_rng(2).normal(size=5)
    gw, _ = _route(x, wg, wd, mask, tau_g=0.8)
    e = np.exp((x @ wg) / 0.8)
    np.testing.assert_allclose(gw[0], e / e.sum(), atol=1e-12)
    np.testing.assert_allclose(gw[0].sum(), 1.0, atol=1e-12)


def test_intra_group_weights_hand_oracle():
    wg, wd, mask = _router([2, 3], in_dim=4, seed=3)
    x = np.random.default_rng(4).normal(size=4)
    _, iw = _route(x, wg, wd, mask, tau_d=1.3)
    # group 0 has 2 of 3 slots live: softmax over the live logits only
    e = np.exp((x @ wd[0])[:2] / 1.3)
    np.testing.assert_allclose(iw[0, 0, :2], e / e.sum(), atol=1e-12)
    assert iw[0, 0, 2] == 0.0


def test_combined_weights_factor_exactly():
    sizes = [3, 1, 2]
    wg, wd, mask = _router(sizes, in_dim=6, seed=5)
    x = np.random.default_rng(6).normal(size=6)
    gw, iw = _route(x, wg, wd, mask)
    combined = gw[0][:, None] * iw[0]
    _, _, want = oracle.route(x, wg, wd, mask, 1.0, 1.0)
    np.testing.assert_allclose(combined, want, atol=1e-12)
    for g, size in enumerate(sizes):
        np.testing.assert_allclose(combined[g, :size].sum(), gw[0, g], atol=1e-12)
    np.testing.assert_allclose(combined.sum(), 1.0, atol=1e-12)


def test_singleton_group_gets_full_intra_mass():
    wg, wd, mask = _router([1, 2], in_dim=4, seed=7)
    _, iw = _route(np.random.default_rng(8).normal(size=4), wg, wd, mask)
    assert iw[0, 0, 0] == 1.0
    np.testing.assert_array_equal(iw[0, 0, 1:], 0.0)


def test_low_temperature_concentrates_mass():
    wg, wd, mask = _router([3, 2], in_dim=8, seed=11)
    x = np.random.default_rng(12).normal(size=8) * 3.0
    gw, iw = _route(x, wg, wd, mask, 1e-3, 1e-3)
    sharp = (gw[0][:, None] * iw[0]).max()
    assert sharp > 0.999
    gw, iw = _route(x, wg, wd, mask)
    assert (gw[0][:, None] * iw[0]).max() < sharp


def test_batched_weights_agree_with_per_token():
    # one batched call against the per-vector oracle, row by row
    wg, wd, mask = _router([2, 3, 1], in_dim=5, seed=13, std=1.0)
    X = np.random.default_rng(14).normal(size=(7, 5))
    gw, iw = _route(X, wg, wd, mask, 0.7, 1.3)
    for t in range(7):
        want_gw, want_iw, _ = oracle.route(X[t], wg, wd, mask, 0.7, 1.3)
        np.testing.assert_allclose(gw[t], want_gw, atol=1e-12)
        np.testing.assert_allclose(iw[t], want_iw, atol=1e-12)


@settings(max_examples=50, deadline=None)
@given(sizes=st.lists(st.integers(1, 4), min_size=1, max_size=4),
       in_dim=st.integers(2, 16), seed=st.integers(0, 10_000))
def test_normalization_properties(sizes, in_dim, seed):
    wg, wd, mask = _router(sizes, in_dim, seed=seed)
    x = np.random.default_rng(seed + 1).normal(size=in_dim) * 5.0
    gw, iw = _route(x, wg, wd, mask)
    combined = gw[0][:, None] * iw[0]
    np.testing.assert_allclose(gw.sum(), 1.0, atol=1e-9)
    np.testing.assert_allclose(combined.sum(), 1.0, atol=1e-9)
    assert (gw >= 0).all() and (combined >= 0).all()
    for g, size in enumerate(sizes):
        np.testing.assert_allclose(iw[0, g, :size].sum(), 1.0, atol=1e-9)
        np.testing.assert_array_equal(iw[0, g, size:], 0.0)
        np.testing.assert_array_equal(combined[g, size:], 0.0)


def test_slot_mask_layout():
    mask = slot_mask(_groups([3, 1, 2]))
    expected = np.array([[True, True, True],
                         [True, False, False],
                         [True, True, False]])
    np.testing.assert_array_equal(mask, expected)


def test_router_params_validation():
    # temperatures are checked with the config, router shapes with the
    # model's parameter table
    cfg = tiny_config()
    with pytest.raises(ConfigError, match="temperatures"):
        dataclasses.replace(cfg, router=dataclasses.replace(cfg.router, tau_d=0.0)).validate()
    params = ToyTransformer(cfg).params
    G, M, d_ff = cfg.n_groups, cfg.max_group_size, cfg.model.d_ff
    for name, shape in (("blocks.0.moe.wg", (d_ff, G + 1)),
                        ("blocks.0.moe.wd", (G, d_ff + 1, M)),
                        ("blocks.0.moe.wd", (G, M))):
        bad = dict(params, **{name: np.zeros(shape)})
        with pytest.raises(ValueError, match="shape"):
            ToyTransformer(cfg, bad)


def test_init_router_params_statistics_and_mask():
    cfg = tiny_config(d_ff=64, d_model=8)
    model = ToyTransformer(cfg)
    G, M = cfg.n_groups, cfg.max_group_size
    wg, wd = model.params["blocks.0.moe.wg"], model.params["blocks.0.moe.wd"]
    assert wg.shape == (64, G) and wd.shape == (G, 64, M)
    np.testing.assert_array_equal(model.slot_mask, oracle.slot_mask(cfg))
    pooled = np.concatenate([wg.ravel(), wd.ravel()])
    assert abs(pooled.std() - ROUTER_STD) < 0.2 * ROUTER_STD
