"""Configuration document: defaults, JSON roundtrip, unknown-key rejection,
and the structural constraints validate() enforces."""

import dataclasses
import json
import re
from pathlib import Path

import numpy as np
import pytest

from atmoe.config import (
    Config,
    ConfigError,
    GroupDef,
    ModelSection,
    load_config,
    save_config,
)
from atmoe.model import CODE_PERIOD, CODED_HEADS, CODED_WIDTH, FFN_PASS_COORDS, ToyTransformer


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
    # every default is written out, not filled in by the loader
    assert json.loads(path.read_text()) == Config().to_dict()


def _dotted(path) -> str:
    """The name the loader gives a path into the document: ("groups", 0,
    "name") is "groups[].name"."""
    return "".join("[]" if isinstance(k, int) else f".{k}" for k in path).lstrip(".")


def _at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def test_unknown_keys_rejected():
    with pytest.raises(ConfigError, match=r"unknown keys in top level: \['modle'\]"):
        Config.from_dict({"modle": {}})
    # an unknown key inside each section object is refused and names it
    for path in (("model",), ("router",), ("atmoe",), ("taskgen",), ("training",),
                 ("training", "experts"), ("training", "premerged"), ("training", "router"),
                 ("groups", 1)):
        doc = Config().to_dict()
        _at(doc, path)["mystery"] = 1
        with pytest.raises(ConfigError,
                           match=f"unknown keys in {re.escape(_dotted(path))}: \\['mystery'\\]"):
            Config.from_dict(doc)
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


def _leaves(doc, path=()):
    """(path, value) of every scalar in a JSON document, lists included."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc)
    for key, value in items:
        if isinstance(value, (dict, list)):
            yield from _leaves(value, path + (key,))
        else:
            yield path + (key,), value


LEAVES = dict(_leaves(Config().to_dict()))


@pytest.mark.parametrize("path", LEAVES, ids=lambda p: ".".join(map(str, p)))
def test_leaf_of_wrong_json_type_names_its_dotted_path(path):
    # a string where a number belongs, a number where a string belongs
    doc = Config().to_dict()
    _at(doc, path[:-1])[path[-1]] = 1 if isinstance(LEAVES[path], str) else "1"
    with pytest.raises(ConfigError, match=f"^{re.escape(_dotted(path))} must be "):
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
    # the bounds derive from the coded layout table; README states these values
    d_ff_min = 2 * len(FFN_PASS_COORDS)
    assert (CODED_WIDTH, d_ff_min, CODED_HEADS, CODE_PERIOD) == (32, 48, 4, 32)
    checks = [
        (dict(d_model=CODED_WIDTH - 1), "d_model"),  # also not divisible by n_heads
        (dict(d_model=CODED_WIDTH - CODED_HEADS), f"d_model >= {CODED_WIDTH}"),
        (dict(vocab_size=39), "vocab_size"),
        (dict(n_layers=1), "n_layers"),
        (dict(n_heads=8), f"n_heads == {CODED_HEADS}"),
        (dict(max_seq_len=CODE_PERIOD + 1), f"max_seq_len <= {CODE_PERIOD}"),
        (dict(d_ff=d_ff_min - 1), f"d_ff >= {d_ff_min}"),
    ]
    for overrides, needle in checks:
        cfg = _with_model(Config(), base_init="coded", **overrides)
        with pytest.raises(ConfigError, match=needle):
            cfg.validate()
    # each bound itself is accepted, and a model at the smallest d_ff builds
    for overrides in (dict(d_model=CODED_WIDTH), dict(max_seq_len=CODE_PERIOD)):
        _with_model(Config(), base_init="coded", **overrides).validate()
    model = ToyTransformer(_with_model(Config(), base_init="coded", d_ff=d_ff_min))
    logits, _, _ = model.build_graph(np.array([[0, 3, 6, 8, 9, 1, 8, 9, 2]]))
    assert np.isfinite(logits.data).all()
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
    # an empty split is refused at load, not later by gen-data
    for name in ("n_train", "n_eval_single", "n_eval_multi"):
        with pytest.raises(ConfigError, match=f"taskgen.{name} must be >= 1"):
            Config.from_dict({"taskgen": {name: 0}})
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
