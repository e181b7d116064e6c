"""A gain table's nonzero rows against a dense reference that reads all n^2 entries.

``GainTable.nonzero`` lists each row's nonzero gains, the one structure a
table keeps, and the table's map, its Jacobian and the cycle test read
only that.  The references below loop over every entry of the rows the
table was built from, an absent entry as the zero gain: their values,
verdicts and witnesses must be the same bytes, and their Jacobians must
agree wherever a row's largest value is positive (where it is 0, the
table takes its first nonzero gain and the reference its first entry,
which may be a zero gain).
"""

import dataclasses

import hypothesis
import numpy as np
import pytest
from hypothesis import strategies as st

from decaycert import maps
from decaycert.homotopy import SolverConfig, find_decay_point
from decaycert.maps import coerce_gain
from decaycert.maxpreserving import GainTable, cycle_condition, path_q, reparametrize_path
from decaycert.scalarfn import Term
from stages import PASSING_TERMS, power_cycle_condition, sparse_rows

# the six gains of the solve corpus's max-times tables
CORPUS_GAINS = ["0.4*t^0.5", "0.3*t^2", "0.5*t", "max(0.3*t, 0.05*t^2)", "0.2*t + 0.01*t^2",
                "0.6*t^0.8"]


def sparse_table(n: int, seed: int, gains: list[str]) -> GainTable:
    return GainTable(sparse_rows(n, seed, gains))


def dense(rows) -> list[list]:
    """Every entry of ``rows`` as a gain, an absent one as the zero gain."""
    return [[coerce_gain(g) for g in row] for row in rows]


def dense_values(rows, s: np.ndarray) -> np.ndarray:
    return np.array([max(g(s[j]) for j, g in enumerate(row)) for row in dense(rows)])


def dense_jacobian(rows, s: np.ndarray) -> np.ndarray:
    """Row i differentiates the first entry whose value is largest, a zero gain or not."""
    n = len(rows)
    J = np.zeros((n, n))
    for i, row in enumerate(dense(rows)):
        j = max(range(n), key=lambda j: row[j](s[j]))
        J[i, j] = row[j].derivative(s[j])
    return J


def dense_cycle_condition(rows):
    """The power-sweep oracle with every entry in every power step and in the backtrack."""
    return power_cycle_condition([tuple(enumerate(row)) for row in dense(rows)])


@st.composite
def tables_and_points(draw):
    """A table of n <= 12 with at most six corpus gains per row (2.7 on average, and a
    quarter of the rows empty), and a point about half of whose components are 0."""
    n = draw(st.integers(1, 12))
    rows = [[None] * n for _ in range(n)]
    for row in rows:
        for j, g in draw(st.dictionaries(st.integers(0, n - 1), st.sampled_from(CORPUS_GAINS),
                                         max_size=6)).items():
            row[j] = g
    s = np.array(draw(st.lists(st.just(0.0) | st.floats(0.0, 20.0) | st.floats(1e-3, 1.0),
                               min_size=n, max_size=n)))
    return rows, s


@hypothesis.settings(max_examples=150, deadline=None, database=None, derandomize=True)
@hypothesis.given(tables_and_points())
@hypothesis.example(case=(sparse_rows(200, 0, CORPUS_GAINS),  # 602 gains
                          np.random.default_rng(1).uniform(0.0, 2.0, 200)))
def test_a_table_agrees_with_its_dense_reference(case):
    rows, s = case
    table = GainTable(rows)
    T = table.to_map()
    assert T(s).tobytes() == dense_values(rows, s).tobytes()
    J, reference = T.jacobian(s), dense_jacobian(rows, s)
    for i, value in enumerate(T(s)):
        if value > 0.0:
            assert J[i].tobytes() == reference[i].tobytes(), (rows, s, i)
    assert cycle_condition(table) == dense_cycle_condition(rows)


def test_the_backtrack_takes_the_first_of_tied_nonzero_gains():
    # 1 -> 2 -> 1 and 1 -> 3 -> 1 both compose to 2t, and their last steps tie at 2t
    rows = [[None, "0.5*t", "0.5*t"], ["4*t", None, None], ["4*t", None, None]]
    assert (cycle_condition(GainTable(rows)) == dense_cycle_condition(rows)
            == (False, ((1, 2), 1e-3)))


def test_nonzero_lists_each_rows_nonzero_gains_in_column_order():
    rows = [["0", "t", None, "0.5*t"], [None] * 4, [Term(0.0, 2.0), "max(0, 0*t)", "0*t^3", "0"],
            [None, None, "max(t, t^2)", "0.2*t + 0.01*t^2"]]
    table = GainTable(rows)
    assert table.nonzero == (
        ((1, Term(1.0)), (3, Term(0.5))), (), (),
        ((2, coerce_gain(rows[3][2])), (3, coerce_gain(rows[3][3]))))
    assert [f.name for f in dataclasses.fields(table)] == ["aggregate", "nonzero"]
    assert not hasattr(table, "rows")
    assert table.to_map()(np.ones(4)).tolist() == [1.0, 0.0, 0.0, 1.0]
    with pytest.raises(dataclasses.FrozenInstanceError):
        table.nonzero = ()
    assert table == GainTable(rows) == GainTable(dense(rows))
    assert hash(table) == hash(GainTable(dense(rows)))
    assert repr(table) == f"GainTable(aggregate='max', nonzero={table.nonzero!r})"
    assert "None" not in repr(table) and "'0'" not in repr(table)


@pytest.fixture
def coerced(monkeypatch):
    """The argument of each ``coerce_gain`` call: a gain is checked where it is coerced, by
    the constructors of its tree."""
    calls, coerce = [], maps.coerce_gain
    monkeypatch.setattr(maps, "coerce_gain", lambda g: calls.append(g) or coerce(g))
    return calls


def test_a_table_coerces_and_checks_each_present_entry_once(coerced):
    GainTable([[None, "0.5*t", None], ["0", None, Term(0.25)], [None, None, None]])
    assert coerced == ["0.5*t", "0", Term(0.25)]


@pytest.mark.parametrize("n, steps", [(30, 12), (100, 13)])
def test_each_loop_calls_each_nonzero_gain_once_and_no_zero_gain(monkeypatch, n, steps):
    table = sparse_table(n, 0, PASSING_TERMS)  # built first: building checks every present gain
    gains = sorted(id(g) for row in table.nonzero for _, g in row)
    assert 0 < len(gains) < n * n / 5
    called, per_step = [], []
    call, step = Term.__call__, GainTable.evaluate_many

    def counting(self, t):
        called.append(id(self))
        return call(self, t)

    def counted_step(table, w):
        called.clear()
        out = step(table, w)
        per_step.append(sorted(called))
        return out

    monkeypatch.setattr(Term, "__call__", counting)
    monkeypatch.setattr(GainTable, "evaluate_many", counted_step)
    assert cycle_condition(table) == (True, None)
    assert per_step == [gains] * steps  # where the running maximum stops moving
    T, s = table.to_map(), np.linspace(0.5, 2.0, n)
    for loop in (T.fn, T.jacobian):
        called.clear()
        loop(s)
        assert sorted(called) == gains


def test_a_passing_sparse_table_of_dimension_500_stops_within_16_steps(monkeypatch):
    # all n = 500 power steps would call its 1,503 gains 751,500 times
    table = sparse_table(500, 0, PASSING_TERMS)
    nnz = sum(map(len, table.nonzero))
    assert nnz == 1503
    calls, call = 0, Term.__call__

    def counting(self, t):
        nonlocal calls
        calls += 1
        return call(self, t)

    monkeypatch.setattr(Term, "__call__", counting)
    assert cycle_condition(table) == (True, None)
    assert calls == 16 * nnz


def test_a_table_prints_under_hypothesis():
    # a failing example is printed by hypothesis's pretty-printer, which lists a
    # dataclass by its __init__ fields; the table does not keep its field rows
    from hypothesis.vendor.pretty import pretty

    table = GainTable([[None, "0.5*t"], ["0.5*t", None]])
    assert pretty(table) == repr(table)
    assert pretty([table]) == f"[{table!r}]"


def test_a_sparse_table_of_dimension_200_solves_in_five_evaluations():
    # about three corpus gains per row (602 in all) at eps = 0.2 r/n
    table = sparse_table(200, 0, CORPUS_GAINS)
    assert sum(map(len, table.nonzero)) == 602
    cfg = SolverConfig(r=10.0, epsilon=0.01, max_iterations=20_000)
    report = find_decay_point(table.to_map(), cfg, 200)
    assert (report.success, report.failure_reason, report.iterations) == (False, "label_none", 5)


def test_building_a_sparse_table_of_dimension_200_checks_only_its_present_gains(coerced):
    table = sparse_table(200, 0, CORPUS_GAINS)
    assert len(coerced) == sum(map(len, table.nonzero)) == 602


# ---------------------------------------------------------------- sum tables

@st.composite
def sum_tables_and_points(draw):
    """``A`` of n = 2..6 with about a third of its entries 0, one gain ``c_j t^a_j`` per
    column, and a point about a third of whose components are 0."""
    n = draw(st.integers(2, 6))
    A = np.array(draw(st.lists(st.just(0.0) | st.floats(0.05, 1.0), min_size=n * n,
                               max_size=n * n))).reshape(n, n)
    c = draw(st.lists(st.floats(0.1, 2.0), min_size=n, max_size=n))
    a = draw(st.lists(st.sampled_from([0.25, 0.5, 1.0, 1.5, 2.0, 3.0]) | st.floats(0.2, 3.0),
                      min_size=n, max_size=n))
    s = np.array(draw(st.lists(st.just(0.0) | st.floats(1e-3, 20.0), min_size=n, max_size=n)))
    return A, c, a, s


@hypothesis.settings(max_examples=150, deadline=None, database=None, derandomize=True)
@hypothesis.given(sum_tables_and_points())
def test_a_sum_table_is_a_matrix_after_a_diagonal(case):
    # column j of the table holds A_ij c_j t^a_j, so T = A o diag(c_j t^a_j), up to rounding
    A, c, a, s = case
    n = len(s)
    table = GainTable([[Term(A[i, j] * c[j], a[j]) for j in range(n)] for i in range(n)], "sum")
    T, D = table.to_map(), maps.make_diagonal([Term(cj, aj) for cj, aj in zip(c, a)])
    oracle = maps.compose(maps.make_linear_map(A), D)
    np.testing.assert_allclose(T(s), oracle(s), rtol=1e-12, atol=0.0)
    np.testing.assert_allclose(table.evaluate_many(s[None, :])[0], T(s), rtol=1e-12, atol=0.0)
    # where 0 meets a_j < 1 the derivative is inf, and the oracle's product A @ J_D may
    # give nan there (0 * inf); the chain rule entry by entry gives inf where A_ij > 0
    J, composed = T.jacobian(s), oracle.jacobian(s)
    with np.errstate(invalid="ignore"):
        expected = np.where(A == 0.0, 0.0, A * np.diag(D.jacobian(s)))
    np.testing.assert_allclose(J, expected, rtol=1e-12, atol=0.0)
    finite = np.isfinite(composed)
    np.testing.assert_allclose(J[finite], composed[finite], rtol=1e-12, atol=0.0)
    present = [a[j] for j in range(n) if A[:, j].any()]  # the columns that keep a gain
    assert T.degree == ((min(present), max(present)) if present else (1.0, 1.0))


SWAP = [[None, "0.5*t"], ["0.5*t", None]]


TOOLKIT = {"cycle_condition": cycle_condition, "path_q": lambda table: path_q(table, 1.0),
           "reparametrize_path": lambda table: reparametrize_path(table, 1.0)}


@pytest.mark.parametrize("call", TOOLKIT.values(), ids=TOOLKIT.keys())
def test_the_max_toolkit_refuses_a_sum_table(call):
    with pytest.raises(ValueError, match="^the max-preserving toolkit needs a max table, "
                                         "got 'sum'$"):
        call(GainTable(SWAP, "sum"))


@pytest.mark.parametrize("call", TOOLKIT.values(), ids=TOOLKIT.keys())
@pytest.mark.parametrize("table, kind", [(SWAP, "list"),
                                         (GainTable(SWAP).to_map(), "MonotoneMap")],
                         ids=["nested-list", "map"])
def test_the_max_toolkit_takes_a_gain_table_only(call, table, kind):
    with pytest.raises(ValueError, match=f"^the max-preserving toolkit needs a GainTable, "
                                         f"got {kind}$"):
        call(table)


@pytest.mark.parametrize("aggregate", ["min", None, True, "MAX", np.array(["max"])],
                         ids=["min", "None", "True", "MAX", "array"])
def test_a_row_rule_other_than_max_or_sum_is_refused(aggregate):
    with pytest.raises(ValueError, match="^gain table aggregate must be 'max' or 'sum', got "):
        GainTable(SWAP, aggregate)


def test_a_sum_table_is_not_its_max_twin():
    total, top = GainTable(SWAP, "sum"), GainTable(SWAP)
    assert total.nonzero == top.nonzero and total != top and top == GainTable(SWAP, "max")
    assert (total.to_map().kind, top.to_map().kind) == ("sum-table", "max-preserving")
    s = np.array([3.0, 1.0])
    assert (total.to_map()(s).tolist(), top.to_map()(s).tolist()) == ([0.5, 1.5], [0.5, 1.5])
    rows = [[None, "0.5*t", "t^2"], [None] * 3, ["t", "t", "t"]]
    total, top, s = GainTable(rows, "sum").to_map(), GainTable(rows).to_map(), np.full(3, 2.0)
    assert (total(s).tolist(), top(s).tolist()) == ([5.0, 0.0, 6.0], [4.0, 0.0, 2.0])
    assert total.jacobian(s).tolist() == [[0.0, 0.5, 4.0], [0.0] * 3, [1.0, 1.0, 1.0]]
    assert top.jacobian(s).tolist() == [[0.0, 0.0, 4.0], [0.0] * 3, [1.0, 0.0, 0.0]]
