import dataclasses
import importlib
import importlib.util
import re
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from decaycert import (
    GainTable,
    LabeledVertexSet,
    MonotoneMap,
    SolverConfig,
    find_decay_point,
    iterate,
    label_eps,
    make_linear_map,
    neumann_inverse,
    ordering_check,
    path_q,
    random_contractive,
    reparametrize_path,
    solve_problem1,
)
from decaycert.linear import eps_max
from decaycert.maps import make_chain_map, make_flipflop_map
from decaycert.scalarfn import Term
from stages import plain_walk

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
    """The benchmark's tracer patches module-level names; a traced solve must be counted.

    The chain map runs the plain method, so that the solve is the walk:
    10 evaluations, 11 label lookups and 2 pivots.
    """
    spec = importlib.util.spec_from_file_location("bench_tracer", BENCH_TRACER)
    tracer_module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer_module)
    dc = SimpleNamespace(**{m: importlib.import_module(f"decaycert.{m}") for m in MODULES})
    tracer = tracer_module.Tracer()
    tracer.patch(dc)
    try:
        cfg = dc.homotopy.SolverConfig(r=10.0, epsilon=0.1)
        report = plain_walk(dc.maps.make_chain_map(3), cfg, 3)
    finally:
        tracer.unpatch()
    assert report.success and report.iterations == 10
    assert tracer.counters() == (10, 11, 2)  # evaluations, lookups, pivots


SWAP = [[0.0, 0.5], [0.5, 0.0]]
SWAP_MAP = make_linear_map(SWAP)
SWAP_TABLE = GainTable([[None, "0.5*t"], ["0.5*t", None]])

# (id, argument name as the error states it, the call with that argument's
# value): the checked scalar arguments of the public functions.
SCALAR_ARGUMENTS = [
    ("SolverConfig r", "r", lambda v: SolverConfig(r=v)),
    ("SolverConfig epsilon", "epsilon", lambda v: SolverConfig(r=10.0, epsilon=v)),
    ("SolverConfig max_iterations", "max_iterations",
     lambda v: SolverConfig(r=10.0, max_iterations=v)),
    ("find_decay_point n", "n", lambda v: find_decay_point(SWAP_MAP, SolverConfig(r=10.0), v)),
    ("solve_problem1 n", "n", lambda v: solve_problem1(SWAP_MAP, SolverConfig(r=10.0), v)),
    ("iterate k_max", "k_max", lambda v: iterate(SWAP_MAP, [1, 1], k_max=v)),
    ("iterate stop_tol", "stop_tol", lambda v: iterate(SWAP_MAP, [1, 1], stop_tol=v)),
    ("ordering_check k", "k", lambda v: ordering_check(SWAP_MAP, [1, 1], [2, 2], v)),
    ("label_eps eps", "eps", lambda v: label_eps(SWAP_MAP, [1, 1], v)),
    ("random_contractive n", "n", lambda v: random_contractive(v, 0.8, 0)),
    ("random_contractive rho_target", "rho_target", lambda v: random_contractive(3, v, 0)),
    ("random_contractive seed", "seed", lambda v: random_contractive(3, 0.8, v)),
    ("neumann_inverse tol", "tol", lambda v: neumann_inverse(SWAP, tol=v)),
    ("eps_max r", "r", lambda v: eps_max(SWAP, v)),
    ("MonotoneMap dimension", "map dimension", lambda v: MonotoneMap(v, lambda s: s, "id")),
    ("make_chain_map n", "chain map dimension", lambda v: make_chain_map(v)),
    ("make_flipflop_map lam", "flipflop lambda", lambda v: make_flipflop_map(v)),
    ("path_q t", "t", lambda v: path_q(SWAP_TABLE, v)),
    ("reparametrize_path r", "r", lambda v: reparametrize_path(SWAP_TABLE, v)),
    ("reparametrize_path tol", "tol", lambda v: reparametrize_path(SWAP_TABLE, 1.0, tol=v)),
]


@pytest.mark.parametrize("value", ["10", None, True, 10**400, -10**400],
                         ids=["str", "None", "bool", "huge-int", "negative-huge-int"])
@pytest.mark.parametrize("argument,call", [case[1:] for case in SCALAR_ARGUMENTS],
                         ids=[case[0] for case in SCALAR_ARGUMENTS])
def test_a_mistyped_scalar_argument_is_named(argument, call, value):
    with pytest.raises(ValueError, match=rf"^{re.escape(argument)} must be "):
        call(value)


def test_checked_objects_are_frozen():
    """A field set after construction would skip the checks that construction made."""
    cfg = SolverConfig(r=10.0, epsilon=0.1)
    with pytest.raises(dataclasses.FrozenInstanceError):
        cfg.epsilon = -1.5
    table = GainTable([[None, "0.5*t"], ["0.5*t", None]])
    with pytest.raises(dataclasses.FrozenInstanceError):
        table.nonzero = (((1, Term(0.25)),), ((0, Term(0.5)),))
    with pytest.raises(TypeError):  # the rows are tuples
        table.nonzero[0][0] = (1, Term(0.25))
    assert cfg.epsilon == 0.1 and table == GainTable([[None, "0.5*t"], ["0.5*t", None]])
    T = make_chain_map(2)  # a dimension, degree or Jacobian set later would disagree with the map
    jacobian = T.jacobian
    for name, value in [("dimension", 3), ("kind", "x"), ("degree", (1.0, 1.0)),
                        ("jacobian", lambda s: np.eye(2))]:
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(T, name, value)
    assert (T.dimension, T.kind, T.degree, T.jacobian) == (2, "chain", (0.5, 2.0), jacobian)
    linear = make_linear_map([[0.0, 0.5], [0.5, 0.0]])  # the map and its Jacobian share A
    with pytest.raises(ValueError, match="read-only"):
        linear.jacobian(np.ones(2))[0, 0] = 2.0
    assert linear.jacobian(np.ones(2)).tolist() == [[0.0, 0.5], [0.5, 0.0]]
    assert linear([1.0, 0.0]).tolist() == [0.0, 0.5]
    vs = LabeledVertexSet([[1.0, 0.0], [0.0, 1.0]], [1, 2])
    with pytest.raises(TypeError):  # the vertices are a tuple, checked to be distinct
        vs.vertices[1] = vs.vertices[0]
    with pytest.raises(dataclasses.FrozenInstanceError):
        vs.labels = (2, 1)
    assert vs.labels == (1, 2) and not np.array_equal(*vs.vertices)


def test_replace_suits_a_config_but_not_a_map_or_a_table():
    """README: maps and tables are rebuilt through their constructors, not ``replace``."""
    cfg = dataclasses.replace(SolverConfig(r=10.0), epsilon=0.1)
    assert cfg == SolverConfig(r=10.0, epsilon=0.1)
    with pytest.raises(ValueError, match="must be positive"):  # the checks run again
        dataclasses.replace(cfg, epsilon=-0.1)
    T = make_linear_map(random_contractive(6, 0.8, 0))
    copy = dataclasses.replace(T, kind="linear")
    assert (T.degree, copy.degree, copy.jacobian) == ((1.0, 1.0), None, None)
    assert T.jacobian is not None
    assert [find_decay_point(M, cfg, 6).iterations for M in (T, copy)] == [1, 8]
    with pytest.raises(ValueError, match="InitVar 'rows' must be specified with replace"):
        dataclasses.replace(SWAP_TABLE)


def test_a_gain_table_has_one_class_and_is_complete_is_gone():
    import decaycert
    from decaycert import maps, maxpreserving

    assert maps.GainTable is maxpreserving.GainTable is GainTable
    assert not hasattr(decaycert, "is_complete")


def test_a_seed_is_a_nonnegative_int():
    with pytest.raises(ValueError, match=r"^seed must be >= 0, got -1$"):
        random_contractive(3, 0.8, -1)
    with pytest.raises(ValueError, match=r"^seed must be an int, got 1\.0$"):
        random_contractive(3, 0.8, 1.0)
    np.testing.assert_array_equal(random_contractive(3, 0.8, np.int64(0)),
                                  random_contractive(3, 0.8, 0))
