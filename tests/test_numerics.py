"""Shared numeric helpers: the temperature softmax (``masked_temp_softmax``,
the one softmax the model runs), finite differences, seeding."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from atmoe import autograd as ag
from atmoe.config import Config, ConfigError
from atmoe.numerics import derive_rng, finite_diff_grad, mix_seed


def softmax_temp(z, tau):
    return ag.masked_temp_softmax(ag.Tensor(z), None, tau).data


def test_softmax_temp_matches_hand_computation():
    # softmax([1, 2], tau=1) worked out directly from exponentials.
    z = np.array([1.0, 2.0])
    e = np.exp(z)
    expected = e / e.sum()
    np.testing.assert_allclose(softmax_temp(z, 1.0), expected, rtol=1e-12)


def test_softmax_temp_temperature_divides_logits():
    z = np.array([0.5, -1.0, 2.0])
    np.testing.assert_allclose(softmax_temp(z, 0.25), softmax_temp(z / 0.25, 1.0),
                               rtol=1e-12)


def test_softmax_temp_is_shift_invariant():
    z = np.array([3.0, 1.0, -2.0])
    np.testing.assert_allclose(softmax_temp(z, 1.0), softmax_temp(z + 100.0, 1.0),
                               rtol=1e-12)


def test_softmax_temp_large_logits_stay_finite():
    out = softmax_temp(np.array([1000.0, 0.0]), 1.0)
    assert np.isfinite(out).all()
    np.testing.assert_allclose(out.sum(), 1.0, atol=1e-12)


def test_softmax_temp_rejects_bad_tau():
    # a temperature reaches the softmax only from the router config
    for field in ("tau_g", "tau_d"):
        for tau in (0.0, -1.0):
            cfg = Config()
            cfg = dataclasses.replace(cfg, router=dataclasses.replace(cfg.router, **{field: tau}))
            with pytest.raises(ConfigError, match="temperatures"):
                cfg.validate()


@settings(max_examples=100, deadline=None)
@given(st.lists(st.floats(-50, 50), min_size=1, max_size=8),
       st.floats(1e-3, 10.0))
def test_softmax_temp_is_a_distribution(logits, tau):
    w = softmax_temp(np.array(logits), tau)
    assert (w >= 0.0).all()
    np.testing.assert_allclose(w.sum(), 1.0, atol=1e-9)


def test_matmul_agrees_with_numpy():
    rng = np.random.default_rng(0)
    a, b = rng.normal(size=(3, 4)), rng.normal(size=(4, 5))
    np.testing.assert_allclose(ag.matmul(a, b).data, a @ b, rtol=1e-12)


def test_finite_diff_grad_quadratic_oracle():
    # d/dx sum(x^2) = 2x; the central difference of a quadratic is exact up
    # to rounding, so the tolerance can be tight.
    x = np.array([0.5, -1.5, 2.0])
    g = finite_diff_grad(lambda t: float((t ** 2).sum()), x, h=1e-4)
    np.testing.assert_allclose(g, 2 * x, atol=1e-8)


def test_finite_diff_grad_does_not_mutate_input():
    x = np.array([1.0, 2.0])
    x0 = x.copy()
    finite_diff_grad(lambda t: float(t.sum()), x, h=1e-4)
    np.testing.assert_array_equal(x, x0)


def test_derive_rng_is_deterministic_and_tag_sensitive():
    a = derive_rng(42, "layer", "0").normal(size=4)
    b = derive_rng(42, "layer", "0").normal(size=4)
    c = derive_rng(42, "layer", "1").normal(size=4)
    np.testing.assert_array_equal(a, b)
    assert not np.array_equal(a, c)


def test_mix_seed_stable_and_distinct():
    assert mix_seed(42, "x") == mix_seed(42, "x")
    assert mix_seed(42, "x") != mix_seed(42, "y")
    assert mix_seed(42, "x") != mix_seed(43, "x")
