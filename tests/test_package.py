"""Package surface: every exported name resolves, the benchmark modules,
which import the package, still import, every name defined in ``src/``
is used there or is on a short list of names kept for outside callers, and
every stored tensor is trained, gradient-checked or varied by an init."""

import ast
import dataclasses
import importlib.util
from pathlib import Path

import numpy as np

import atmoe
from atmoe.cli import parameter_classes
from atmoe.config import load_config
from atmoe.model import ToyTransformer

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"
SRC = ROOT / "src" / "atmoe"

# names no src/ module uses, each kept for a caller outside src/
OUTSIDE_CALLERS = {
    "model.ToyTransformer.frozen_outside": "perfbench/workloads.py checks a stage's frozen set",
    "model.ToyTransformer.param_checksums": "perfbench and the tests compare parameters "
                                            "before and after a stage",
    "checkpoint.checkpoint_checksum": "the tests re-sign the checkpoints they edit",
}


def test_exports_resolve_and_benchmark_modules_import():
    assert [n for n in atmoe.__all__ if not hasattr(atmoe, n)] == []
    for name in ("workloads", "layertrace"):
        spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                      PERFBENCH / f"{name}.py")
        spec.loader.exec_module(importlib.util.module_from_spec(spec))


def _definitions(module: str, tree: ast.Module):
    """(qualified name, bare name) of each module-level function and constant
    and each non-dunder method."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            yield f"{module}.{node.name}", node.name
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for t in targets:
                if isinstance(t, ast.Name) and not t.id.startswith("__"):
                    yield f"{module}.{t.id}", t.id
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("__"):
                    yield f"{module}.{node.name}.{item.name}", item.name


def _references(tree: ast.Module):
    """Names read as a ``Name`` or an ``Attribute``, and the strings of ``__all__``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            yield node.attr
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            yield from (elt.value for elt in node.value.elts)


def test_every_src_name_is_used_in_src_or_kept_for_an_outside_caller():
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(SRC.glob("*.py"))}
    used = {name for tree in trees.values() for name in _references(tree)}
    unused = {qual for module, tree in trees.items()
              for qual, name in _definitions(module, tree) if name not in used}
    assert unused == set(OUTSIDE_CALLERS)


def test_every_stored_tensor_is_trained_checked_or_varied():
    # a tensor no stage trains, no gradient check covers and every init sets
    # to one constant stores a value the config could hold instead
    cfg = load_config(ROOT / "configs" / "default.json")
    models = [ToyTransformer(dataclasses.replace(cfg, model=dataclasses.replace(
        cfg.model, base_init=init))) for init in ("coded", "random")]
    model = models[0]
    trained = {n for aid in model.adapter_ids for n in model.adapter_param_names(aid)}
    trained |= set(model.router_param_names())
    checked = {n for names in parameter_classes(model).values() for n in names}
    varied = {n for m in models for n, a in m.params.items() if np.ptp(a) > 0.0}
    assert [n for n in model.param_shapes() if n not in trained | checked | varied] == []
