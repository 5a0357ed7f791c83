"""Package surface: every exported name resolves, and the benchmark modules,
which import the package, still import."""

import importlib.util
from pathlib import Path

import atmoe

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_exports_resolve_and_benchmark_modules_import():
    assert [n for n in atmoe.__all__ if not hasattr(atmoe, n)] == []
    for name in ("workloads", "layertrace"):
        spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                      PERFBENCH / f"{name}.py")
        spec.loader.exec_module(importlib.util.module_from_spec(spec))
