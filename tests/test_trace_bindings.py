"""Every name the benchmark tracer patches must stay bound, so a refactor
that unbinds one fails here rather than in a traced benchmark run."""

import importlib
import importlib.util
import re
from pathlib import Path

from carr import infometrics
from carr.numkit import Rng
from carr.scm import random_scm

ROOT = Path(__file__).resolve().parents[1]
TRACING = ROOT / "benchmarks" / "tracing.py"
MARK = "patched by benchmarks/tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def test_traced_names_resolve():
    tracing = _tracing()
    for module, attr, _ in tracing.PATCHES:
        assert hasattr(importlib.import_module(module), attr), f"{module}.{attr}"
    for module, cls_name, attr, _ in tracing.METHOD_PATCHES:
        cls = getattr(importlib.import_module(module), cls_name)
        assert attr in cls.__dict__, f"{module}.{cls_name}.{attr}"


def test_imports_kept_for_the_tracer_are_patched():
    # an import that src keeps only for the tracer must not outlive its patch
    patched = {(module, attr) for module, attr, _ in _tracing().PATCHES}
    marked = []
    for path in sorted((ROOT / "src" / "carr").glob("*.py")):
        for line in path.read_text().splitlines():
            if MARK in line:
                match = re.match(r"from \.\w+ import (\w+)\s", line)
                assert match, f"{path.name}: {line}"
                marked.append((f"carr.{path.stem}", match[1]))
    assert marked
    for site in marked:
        assert site in patched, site


def test_pns_opens_one_joint_and_two_query_spans():
    # pns shares its worlds between the public oracles, so the tracer sees
    # each of them
    tracing = _tracing()
    model = random_scm(Rng(0, stream=14), shape="a")  # both PNS events occur
    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        infometrics.pns(model, "pa", 0, "y", 0, z_alt=1)
    calls = {name: n for name, (n, _) in tracer.summarize(0, len(tracer)).items()}
    assert calls == {"infometrics.pns": 1, "scm.enumerate_joint": 1,
                     "scm.counterfactual_query": 2}
