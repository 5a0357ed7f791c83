"""Configuration document: defaults, JSON roundtrip, unknown-key rejection,
and the structural constraints validate() enforces."""

import dataclasses
import json
from pathlib import Path

import pytest

from atmoe.config import (
    Config,
    ConfigError,
    GroupDef,
    ModelSection,
    load_config,
    save_config,
)


def _with_model(cfg, **kw):
    return dataclasses.replace(cfg, model=dataclasses.replace(cfg.model, **kw))


def test_defaults_validate_and_describe_the_benchmark():
    cfg = Config()
    cfg.validate()
    assert cfg.seed == 42
    assert cfg.model.vocab_size == 64 and cfg.model.d_model == 32
    assert cfg.model.n_layers == 2 and cfg.model.rank == 4
    assert [g.name for g in cfg.groups] == ["function", "domain", "style"]
    assert [len(g.experts) for g in cfg.groups] == [3, 2, 2]
    assert cfg.n_groups == 3 and cfg.max_group_size == 3
    assert cfg.to_dict()["atmoe"] == {"lambda": cfg.atmoe.lam}
    assert 0.0 <= cfg.atmoe.lam <= 1.0
    assert cfg.taskgen.multi_intent_fraction == 0.3
    assert cfg.taskgen.n_train == 2000


def test_dict_roundtrip_preserves_everything():
    cfg = Config()
    doc = cfg.to_dict()
    again = Config.from_dict(doc)
    assert again == cfg
    assert again.to_dict() == doc


def test_file_roundtrip(tmp_path):
    cfg = _with_model(Config(), d_model=64, rank=8)
    path = tmp_path / "cfg.json"
    save_config(cfg, path)
    assert load_config(path) == cfg


def test_failed_save_leaves_the_previous_file(tmp_path):
    path = tmp_path / "cfg.json"
    save_config(Config(), path)
    bad = Config()
    bad.training.router.learning_rate = object()  # not JSON: fails late in the document
    with pytest.raises(TypeError):
        save_config(bad, path)
    assert load_config(path) == Config()
    assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]


def test_shipped_default_config_matches_code_defaults():
    path = Path(__file__).resolve().parents[1] / "configs" / "default.json"
    assert load_config(path) == Config()


def test_unknown_keys_rejected():
    with pytest.raises(ConfigError, match="unknown"):
        Config.from_dict({"modle": {}})
    with pytest.raises(ConfigError, match="unknown"):
        Config.from_dict({"model": {"d_modle": 32}})
    with pytest.raises(ConfigError, match="unknown"):
        Config.from_dict({"training": {"mystery": 1}})
    # the sequence-mean routing input, the input-independent slot logits,
    # the group-entropy bonus and the per-stage Adam constants are gone, not
    # ignored
    stage = {"epochs": 1, "batch_size": 1, "learning_rate": 0.1}
    for section, key, value in (("router", "pooled", False),
                                ("router", "static_intra_group", False),
                                ("training", "entropy_bonus", 0.0),
                                ("training.experts", "beta1", 0.9),
                                ("training.premerged", "beta2", 0.999),
                                ("training.router", "eps", 1e-8)):
        doc = {key: value}
        if section.startswith("training."):
            doc = {"training": {section.split(".")[1]: dict(stage, **doc)}}
        else:
            doc = {section: doc}
        with pytest.raises(ConfigError, match=f"unknown keys in {section}: \\['{key}'\\]"):
            Config.from_dict(doc)


def test_validate_rejects_inconsistent_models():
    with pytest.raises(ConfigError, match="divisible"):
        _with_model(Config(), d_model=30).validate()
    with pytest.raises(ConfigError, match="rank"):
        _with_model(Config(), rank=65).validate()
    with pytest.raises(ConfigError, match="base_init"):
        _with_model(Config(), base_init="fancy").validate()
    with pytest.raises(ConfigError, match=">= 1"):
        _with_model(Config(), n_layers=0).validate()


def test_validate_enforces_structured_base_requirements():
    checks = [
        (dict(d_model=16, n_heads=4), "d_model"),
        (dict(vocab_size=39), "vocab_size"),
        (dict(n_layers=1), "n_layers"),
        (dict(n_heads=8), "n_heads"),
        (dict(max_seq_len=40), "max_seq_len"),
        (dict(d_ff=32), "d_ff"),
    ]
    for overrides, needle in checks:
        cfg = _with_model(Config(), base_init="coded", **overrides)
        with pytest.raises(ConfigError, match=needle):
            cfg.validate()
    # the same shapes are fine under random init (except real invariants)
    _with_model(Config(), base_init="random", vocab_size=39,
                n_layers=1, max_seq_len=40, d_ff=32).validate()


def test_validate_rejects_bad_groups():
    cfg = dataclasses.replace(Config(), groups=())
    with pytest.raises(ConfigError, match="group"):
        cfg.validate()
    cfg = dataclasses.replace(Config(), groups=(
        GroupDef("a", ("x", "y")), GroupDef("b", ("y",))))
    with pytest.raises(ConfigError, match="unique"):
        cfg.validate()
    cfg = dataclasses.replace(Config(), groups=(GroupDef("a", ("x", "x")),))
    with pytest.raises(ConfigError, match="expert ids must be unique"):
        cfg.validate()
    cfg = dataclasses.replace(Config(), groups=(
        GroupDef("a", ("x",)), GroupDef("empty", ())))
    with pytest.raises(ConfigError, match="at least one expert"):
        cfg.validate()
    cfg = dataclasses.replace(Config(), groups=(
        GroupDef("a", ("premerged",)),))
    with pytest.raises(ConfigError, match="reserved"):
        cfg.validate()
    # two groups under one name would share one routing_accuracy entry
    cfg = dataclasses.replace(Config(), groups=(
        GroupDef("a", ("x",)), GroupDef("a", ("y",))))
    with pytest.raises(ConfigError, match="group names must be unique"):
        cfg.validate()


def test_validate_rejects_bad_scalars():
    cfg = dataclasses.replace(
        Config(), router=dataclasses.replace(Config().router, tau_g=0.0))
    with pytest.raises(ConfigError, match="temperature"):
        cfg.validate()
    cfg = dataclasses.replace(
        Config(), atmoe=dataclasses.replace(Config().atmoe, lam=1.2))
    with pytest.raises(ConfigError, match="lambda"):
        cfg.validate()
    cfg = dataclasses.replace(
        Config(), taskgen=dataclasses.replace(
            Config().taskgen, multi_intent_fraction=-0.1))
    with pytest.raises(ConfigError, match="multi_intent_fraction"):
        cfg.validate()
    # a non-finite number passes every range check above, so the loader
    # refuses it
    for value in (float("nan"), float("inf")):
        with pytest.raises(ConfigError, match="router.tau_g must be a finite number"):
            Config.from_dict({"router": {"tau_g": value}})


def test_from_dict_partial_overrides_keep_other_defaults():
    cfg = Config.from_dict({"seed": 7, "model": {"d_model": 64}})
    assert cfg.seed == 7
    assert cfg.model.d_model == 64
    assert cfg.model.vocab_size == Config().model.vocab_size
    assert cfg.groups == Config().groups


def test_json_document_uses_lambda_key():
    doc = Config().to_dict()
    assert "lambda" in doc["atmoe"]
    assert json.dumps(doc)  # serializable end to end
