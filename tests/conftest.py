"""Shared fixtures: a tiny random-init model for fast unit tests and a few
canonical data objects. The full-size coded model only appears in the
acceptance suite, where the end-to-end pipeline actually runs."""

import dataclasses

import numpy as np
import pytest

from atmoe import autograd as ag
from atmoe.cli import gradcheck_config
from atmoe.config import Config, TaskGenSection
from atmoe.model import ToyTransformer
from atmoe.numerics import derive_rng
from atmoe.taskgen import TaskCatalog, generate


# router temperature settings the graph-vs-reference checks run over: the
# defaults, then one level sharper and the other flatter, each way round
ROUTERS = [{}, {"tau_g": 0.5, "tau_d": 2.0}, {"tau_g": 2.0, "tau_d": 0.5}]


def tiny_config(seed: int = 7, **model_overrides) -> Config:
    """``gradcheck``'s tiny random-base config with ``model_overrides``."""
    cfg = gradcheck_config(seed)
    cfg.model = dataclasses.replace(cfg.model, **model_overrides)
    cfg.validate()
    return cfg


def with_lam(model: ToyTransformer, lam: float) -> ToyTransformer:
    """``model``'s parameters under its config with ``atmoe.lam`` set to ``lam``."""
    sec = dataclasses.replace
    return ToyTransformer(sec(model.cfg, atmoe=sec(model.cfg.atmoe, lam=lam)), model.params)


def spy_attention(monkeypatch) -> list[int]:
    """The query start ``q0`` of every later ``causal_attention`` call, in order."""
    calls = []
    real = ag.causal_attention

    def spy(*args):
        calls.append(args[6] if len(args) > 6 else 0)
        return real(*args)

    monkeypatch.setattr(ag, "causal_attention", spy)
    return calls


@pytest.fixture
def tiny_cfg() -> Config:
    return tiny_config()


@pytest.fixture
def tiny_model(tiny_cfg) -> ToyTransformer:
    return ToyTransformer(tiny_cfg)


@pytest.fixture
def tiny_tokens(tiny_cfg) -> np.ndarray:
    rng = derive_rng(tiny_cfg.seed, "test", "tokens")
    return rng.integers(0, tiny_cfg.model.vocab_size, size=6)


@pytest.fixture(scope="session")
def catalog() -> TaskCatalog:
    tg = TaskGenSection()
    return TaskCatalog(tg.payload_min, tg.payload_max)


@pytest.fixture(scope="session")
def small_dataset(catalog):
    return generate(catalog, 64, seed=123, multi_intent_fraction=0.3)
