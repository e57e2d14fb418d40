"""The benchmark tracer wraps functions by (module, attribute path); every
path it names must still resolve, or a refactor breaks the traced benchmark
without any unit test failing."""

import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "benchmarks" / "tracer.py"


def load_traced():
    spec = importlib.util.spec_from_file_location("hyperq_bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer.TRACED


@pytest.mark.parametrize("module,path", [(m, p) for m, p, _, _ in load_traced()])
def test_traced_path_resolves(module, path):
    owner = importlib.import_module(module)
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    assert callable(getattr(owner, attr))
