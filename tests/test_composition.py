"""The blended expert projection as the graph computes it (``aux["moe_output"]``)
against the dense per-vector oracle: the composition, the balance-parameter
endpoints, and the routing trace."""

import dataclasses

import numpy as np
import pytest

import oracle
from atmoe.cli import jitter_params
from atmoe.config import PREMERGED_ID, ConfigError
from atmoe.model import ToyTransformer

from conftest import tiny_config


def _model(seed=0, lam=0.6):
    sec = dataclasses.replace
    cfg = tiny_config(seed=seed, n_layers=2)
    cfg = sec(cfg, router=sec(cfg.router, tau_g=0.9, tau_d=1.1),
              atmoe=sec(cfg.atmoe, lam=lam))
    model = ToyTransformer(cfg)
    jitter_params(model, std=0.5)
    return model


def _tokens(cfg, seed=0):
    return np.random.default_rng(seed + 100).integers(0, cfg.model.vocab_size, size=(2, 6))


def _check_against_oracle(model, aux, lam):
    for i in range(model.cfg.model.n_layers):
        for u, y in zip(aux["moe_input"][i], aux["moe_output"][i]):
            want = oracle.blend(model, i, u, lam)
            np.testing.assert_allclose(y, want, rtol=1e-9, atol=1e-12)


def test_forward_matches_dense_composition():
    for seed in range(8):
        model = _model(seed)
        _, _, aux = model.build_graph(_tokens(model.cfg, seed))
        _check_against_oracle(model, aux, 0.6)


def _reroll(model, names, seed):
    """A copy of ``model`` with ``names`` redrawn."""
    rng = np.random.default_rng(seed)
    params = dict(model.params)
    for n in names:
        params[n] = rng.normal(size=params[n].shape)
    return ToyTransformer(model.cfg, params)


def test_lambda_zero_is_premerged_only():
    model = _model(1)
    tokens = _tokens(model.cfg, 1)
    _, _, aux = model.build_graph(tokens, lam_override=0.0)
    _check_against_oracle(model, aux, 0.0)
    # the router cannot move a single bit of the output
    _, _, other = _reroll(model, model.router_param_names(), 7).build_graph(tokens, lam_override=0.0)
    for y, want in zip(aux["moe_output"], other["moe_output"]):
        np.testing.assert_array_equal(y, want)


def test_lambda_one_is_routed_only():
    model = _model(2)
    tokens = _tokens(model.cfg, 2)
    _, _, aux = model.build_graph(tokens, lam_override=1.0)
    _check_against_oracle(model, aux, 1.0)
    # nor can the pre-merged adapter
    rerolled = _reroll(model, model.adapter_param_names(PREMERGED_ID), 8)
    _, _, other = rerolled.build_graph(tokens, lam_override=1.0)
    for y, want in zip(aux["moe_output"], other["moe_output"]):
        np.testing.assert_array_equal(y, want)


def test_forward_rejects_wrong_length():
    model = _model(4)
    T, V = model.cfg.model.max_seq_len, model.cfg.model.vocab_size
    for tokens in (np.zeros(5, dtype=int), np.zeros((1, T + 1), dtype=int),
                   np.full((1, 3), V)):
        with pytest.raises(ValueError):
            model.build_graph(tokens)


def test_layer_validation():
    cfg = tiny_config()
    with pytest.raises(ConfigError, match="lambda"):
        dataclasses.replace(cfg, atmoe=dataclasses.replace(cfg.atmoe, lam=1.5)).validate()
    model = ToyTransformer(cfg)
    with pytest.raises(KeyError, match="unknown adapter"):
        model.build_graph(_tokens(cfg), mode="adapter", adapter_id="missing")
    with pytest.raises(ValueError, match="mode"):
        model.build_graph(_tokens(cfg), mode="dense")


def test_routing_report_consistency():
    model = _model(8)
    cfg = model.cfg
    tokens = _tokens(cfg, 8)[0]
    trace = model.layer_routing_trace(tokens)
    _, _, aux = model.build_graph(tokens[None, :])
    mask = oracle.slot_mask(cfg)
    assert len(trace) == cfg.model.n_layers
    for i, (gw, iw) in enumerate(trace):
        assert gw.shape == (len(tokens), cfg.n_groups)
        assert iw.shape == (len(tokens), cfg.n_groups, cfg.max_group_size)
        np.testing.assert_allclose(gw.sum(axis=1), 1.0, atol=1e-12)
        np.testing.assert_allclose((gw[:, :, None] * iw).sum(axis=(1, 2)), 1.0, atol=1e-12)
        # padded slots carry exactly zero
        assert (iw[:, ~mask] == 0.0).all()
        wg, wd = (model.params[f"blocks.{i}.moe.{w}"] for w in ("wg", "wd"))
        for t, u in enumerate(aux["moe_input"][i]):
            want_gw, want_iw, _ = oracle.route(u, wg, wd, mask, 0.9, 1.1)
            np.testing.assert_allclose(gw[t], want_gw, atol=1e-12)
            np.testing.assert_allclose(iw[t], want_iw, atol=1e-12)
