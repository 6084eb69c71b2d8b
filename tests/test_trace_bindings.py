"""Every name the benchmark tracer patches must stay bound, so a refactor
that unbinds one fails here rather than in a traced benchmark run."""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "benchmarks" / "tracing.py"


def test_traced_names_resolve():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    for module, attr, _ in tracing.PATCHES:
        assert hasattr(importlib.import_module(module), attr), f"{module}.{attr}"
    for module, cls_name, attr, _ in tracing.METHOD_PATCHES:
        cls = getattr(importlib.import_module(module), cls_name)
        assert attr in cls.__dict__, f"{module}.{cls_name}.{attr}"
