import importlib
import importlib.util
from pathlib import Path
from types import SimpleNamespace

import pytest

MODULES = ["cli", "dynamics", "homotopy", "labeling", "linear", "maps", "mapspec",
           "maxpreserving", "order", "scalarfn", "triangulation"]
BENCH_TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


@pytest.mark.parametrize("name", ["decaycert"] + [f"decaycert.{m}" for m in MODULES])
def test_all_names_resolve_without_duplicates(name):
    module = importlib.import_module(name)
    exported = module.__all__
    assert len(exported) == len(set(exported))
    missing = [attr for attr in exported if not hasattr(module, attr)]
    assert missing == []


def test_bench_tracer_hooks_see_the_solver():
    """The benchmark's tracer patches module-level names; a traced solve must be counted."""
    spec = importlib.util.spec_from_file_location("bench_tracer", BENCH_TRACER)
    tracer_module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer_module)
    dc = SimpleNamespace(**{m: importlib.import_module(f"decaycert.{m}") for m in MODULES})
    tracer = tracer_module.Tracer()
    tracer.patch(dc)
    try:
        report = dc.homotopy.find_decay_point(
            dc.maps.make_chain_map(3), dc.homotopy.SolverConfig(r=10.0, epsilon=0.1), 3
        )
    finally:
        tracer.unpatch()
    evaluations, lookups, pivots = tracer.counters()
    assert report.success
    assert evaluations == report.iterations
    assert lookups > 0 and pivots > 0
