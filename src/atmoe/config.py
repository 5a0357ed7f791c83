"""Experiment configuration: one JSON document with model / router / atmoe /
taskgen / training sections, mirrored by frozen-ish dataclasses.

Every default that the rest of the package relies on is stated here once and
also written out verbatim in ``configs/default.json``.
"""

from __future__ import annotations

import dataclasses
import json
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

PREMERGED_ID = "premerged"  # the merged-data adapter's id, reserved in groups
STAGES = ("experts", "premerged", "router")  # the training pipeline, in run order


class ConfigError(ValueError):
    """Malformed or inconsistent configuration document."""


@dataclass
class ModelSection:
    vocab_size: int = 64
    d_model: int = 32
    n_layers: int = 2
    n_heads: int = 4
    d_ff: int = 64
    max_seq_len: int = 24
    rank: int = 4
    # "coded": frozen base is a structured reservoir (rotation-coded token and
    # position embeddings plus hand-set offset/match attention heads) so that
    # rank-r adapters and the router see linearly separable task features.
    # "random": plain Gaussian init, used for gradient checks and small tests.
    base_init: str = "coded"


@dataclass
class RouterSection:
    tau_g: float = 1.0
    tau_d: float = 1.0


@dataclass
class AtMoeSection:
    lam: float = 0.5  # serialized as "lambda"


@dataclass
class GroupDef:
    name: str
    experts: tuple[str, ...]


@dataclass
class TaskGenSection:
    seed: int = 42
    n_train: int = 2000
    n_eval_single: int = 500
    n_eval_multi: int = 500
    multi_intent_fraction: float = 0.3
    payload_min: int = 3
    payload_max: int = 8


@dataclass
class StageSection:
    epochs: int
    batch_size: int
    learning_rate: float


# One StageSection per entry of STAGES, named after it. Low-rank adapters
# start from B = 0, so the product B A needs an aggressive learning rate and
# enough steps to escape the cold start; the expert buckets are small
# (hundreds of samples), hence the high epoch count. Values validated on the
# seed-42 benchmark run.
TrainingSection = dataclasses.make_dataclass("TrainingSection", [
    (stage, StageSection, field(default_factory=lambda d=defaults: StageSection(*d)))
    for stage, defaults in zip(STAGES, ((60, 32, 1e-2), (10, 32, 1e-2), (15, 32, 1e-2)))
])


def default_groups() -> tuple[GroupDef, ...]:
    return (
        GroupDef("function", ("identity", "reverse", "increment")),
        GroupDef("domain", ("low_range", "high_range")),
        GroupDef("style", ("plain_end", "echo_first")),
    )


@dataclass
class Config:
    seed: int = 42
    model: ModelSection = field(default_factory=ModelSection)
    router: RouterSection = field(default_factory=RouterSection)
    atmoe: AtMoeSection = field(default_factory=AtMoeSection)
    groups: tuple[GroupDef, ...] = field(default_factory=default_groups)
    taskgen: TaskGenSection = field(default_factory=TaskGenSection)
    training: TrainingSection = field(default_factory=TrainingSection)

    @property
    def n_groups(self) -> int:
        return len(self.groups)

    @property
    def max_group_size(self) -> int:
        return max(len(g.experts) for g in self.groups)

    def validate(self) -> None:
        m = self.model
        for name in ("vocab_size", "d_model", "n_layers", "n_heads", "d_ff", "max_seq_len", "rank"):
            if getattr(m, name) < 1:
                raise ConfigError(f"model.{name} must be >= 1")
        if m.d_model % m.n_heads != 0:
            raise ConfigError("model.d_model must be divisible by model.n_heads")
        if m.rank > min(m.d_model, m.d_ff):
            raise ConfigError("model.rank must be <= min(d_model, d_ff)")
        if m.base_init not in ("coded", "random"):
            raise ConfigError('model.base_init must be "coded" or "random"')
        if m.base_init == "coded":
            # The coded reservoir hardwires a 32-coordinate feature layout and a
            # 5-head circuit split across the first two blocks; the token code
            # covers the benchmark vocabulary (ids 0..39).
            if m.d_model < 32:
                raise ConfigError("coded base_init needs model.d_model >= 32")
            if m.vocab_size < 40:
                raise ConfigError("coded base_init needs model.vocab_size >= 40")
            if m.n_layers < 2:
                raise ConfigError("coded base_init needs model.n_layers >= 2")
            if m.n_heads != 4:
                raise ConfigError("coded base_init needs model.n_heads == 4")
            if m.max_seq_len > 32:
                raise ConfigError("coded base_init needs model.max_seq_len <= 32")
            if m.d_ff < 64:
                raise ConfigError("coded base_init needs model.d_ff >= 64")
        if self.router.tau_g <= 0 or self.router.tau_d <= 0:
            raise ConfigError("router temperatures must be positive")
        if not 0.0 <= self.atmoe.lam <= 1.0:
            raise ConfigError("atmoe.lambda must lie in [0, 1]")
        if not self.groups:
            raise ConfigError("at least one expert group is required")
        names = [g.name for g in self.groups]
        if len(set(names)) != len(names):
            raise ConfigError("group names must be unique")
        ids = [e for g in self.groups for e in g.experts]
        if len(set(ids)) != len(ids):
            raise ConfigError("expert ids must be unique across groups")
        if PREMERGED_ID in ids:
            raise ConfigError(f"{PREMERGED_ID!r} is reserved for the merged-data adapter")
        if any(len(g.experts) < 1 for g in self.groups):
            raise ConfigError("every group needs at least one expert")
        tg = self.taskgen
        if not 0.0 <= tg.multi_intent_fraction <= 1.0:
            raise ConfigError("taskgen.multi_intent_fraction must lie in [0, 1]")
        if not 1 <= tg.payload_min <= tg.payload_max:
            raise ConfigError("taskgen payload bounds must satisfy 1 <= min <= max")
        for stage in STAGES:
            st = getattr(self.training, stage)
            if st.epochs < 1 or st.batch_size < 1 or st.learning_rate < 0:
                raise ConfigError(f"training.{stage} needs epochs >= 1, batch_size >= 1 "
                                  "and learning_rate >= 0")

    def to_dict(self) -> dict[str, Any]:
        return {
            "seed": self.seed,
            "model": dataclasses.asdict(self.model),
            "router": dataclasses.asdict(self.router),
            "atmoe": {"lambda": self.atmoe.lam},
            "groups": [{"name": g.name, "experts": list(g.experts)} for g in self.groups],
            "taskgen": dataclasses.asdict(self.taskgen),
            "training": dataclasses.asdict(self.training),
        }

    @staticmethod
    def from_dict(doc: dict[str, Any]) -> "Config":
        _reject_unknown(_object(doc, "config document"), {
            "seed", "model", "router", "atmoe", "groups", "taskgen", "training"}, "top level")
        cfg = Config(seed=_typed(doc.get("seed", 42), "int", "seed"))
        if "model" in doc:
            cfg.model = _section(ModelSection, doc["model"], "model")
        if "router" in doc:
            cfg.router = _section(RouterSection, doc["router"], "router")
        if "atmoe" in doc:
            _reject_unknown(_object(doc["atmoe"], "atmoe"), {"lambda"}, "atmoe")
            cfg.atmoe = AtMoeSection(lam=_typed(doc["atmoe"].get("lambda", 0.5), "float",
                                                "atmoe.lambda"))
        if "groups" in doc:
            if not isinstance(doc["groups"], list):
                raise ConfigError("groups must be a JSON list")
            groups = []
            for g in doc["groups"]:
                if set(_object(g, "groups[]")) != {"name", "experts"} or \
                        not isinstance(g["experts"], list):
                    raise ConfigError('each group needs exactly a "name" and a list of "experts"')
                groups.append(GroupDef(_typed(g["name"], "str", "groups[].name"), tuple(
                    _typed(e, "str", "groups[].experts[]") for e in g["experts"])))
            cfg.groups = tuple(groups)
        if "taskgen" in doc:
            cfg.taskgen = _section(TaskGenSection, doc["taskgen"], "taskgen")
        if "training" in doc:
            _reject_unknown(_object(doc["training"], "training"), set(STAGES), "training")
            cfg.training = TrainingSection(**{
                stage: _section(StageSection, sec, f"training.{stage}")
                for stage, sec in doc["training"].items()})
        cfg.validate()
        return cfg


def _reject_unknown(doc: dict, known: set[str], where: str) -> None:
    unknown = set(doc) - known
    if unknown:
        raise ConfigError(f"unknown keys in {where}: {sorted(unknown)}")


def _object(doc, where: str) -> dict:
    if not isinstance(doc, dict):
        raise ConfigError(f"{where} must be a JSON object")
    return doc


def _typed(value, kind: str, where: str):
    """``value`` as a field of type ``kind`` ("int", "float" or "str"); a null,
    a bool, a fraction in an int field or a non-finite number is an error."""
    if kind == "str" and isinstance(value, str):
        return value
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        if kind == "int" and (isinstance(value, int) or value.is_integer()):
            return int(value)
        if kind == "float" and abs(value) <= sys.float_info.max:
            return float(value)
    want = {"int": "an integer", "float": "a finite number", "str": "a string"}[kind]
    raise ConfigError(f"{where} must be {want}, got {json.dumps(value)}")


def _section(cls, doc, where: str):
    fields = {f.name: f.type for f in dataclasses.fields(cls)}
    _reject_unknown(_object(doc, where), set(fields), where)
    required = [f.name for f in dataclasses.fields(cls)
                if f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING]
    missing = [n for n in required if n not in doc]
    if missing:
        raise ConfigError(f"missing keys in {where}: {missing}")
    return cls(**{name: _typed(value, fields[name], f"{where}.{name}")
                  for name, value in doc.items()})


def load_config(path: str | Path) -> Config:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return Config.from_dict(doc)


def save_config(cfg: Config, path: str | Path) -> None:
    write_text(path, json.dumps(cfg.to_dict(), indent=2) + "\n")


def write_text(path: str | Path, text: str) -> None:
    """Write ``text``, already serialised in full, to a ``.tmp`` sibling and
    rename it over ``path``, so a failed write leaves the old file intact."""
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "w", encoding="utf-8") as fh:
        fh.write(text)
    tmp.replace(path)
