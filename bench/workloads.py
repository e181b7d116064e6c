"""Workload instances, exact oracles and the independent re-check.

Every instance is generated from the workload seed and carries its own
expected verdict, derived from an oracle computed here, outside the
package under test:

* linear maps ``s -> A s`` with ``A >= 0``: the best margin on the sphere
  is ``eps_max = r / 1'(I - A)^-1 1``, attained at ``s ~ (I - A)^-1 1``
  (``s - A s >= mu 1`` implies ``s >= mu (I - A)^-1 1``); zero when the
  spectral radius is at least one;
* max-times gain tables ``(T s)_i = max_j c_ij s_j``: the same argument
  with the least solution ``w`` of ``w = 1 + C (x) w`` gives
  ``eps_max = r / 1'w``;
* the chain map and the flip-flop map have no closed form, so a witness
  point (checked by direct evaluation) gives a lower bound.

An instance is feasible when ``eps <= eps_max`` (or a witness margin).
Re-checks evaluate the maps with the numpy evaluators below, which repeat
the package's arithmetic operation for operation, so a margin check is
exact rather than tolerance-based.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import re
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

R = 10.0
CAP = 100_000
STOP_TOL = 1e-6
K_MAX = 10_000
ORACLE_TOL = 1e-9
NORM_TOL = 1e-8

# Matrix seed of the k-th member of a family at workload seed s is
# base + SEED_STRIDE * s + k, so seed 0 reproduces the acceptance fixtures.
SEED_STRIDE = 1000
EQUIV_SEED_BASE = 24300  # criterion-6 fixture

# The workload seed draws fresh instances only where a run holds enough
# of them to average out: grid (90 matrices per unit) and the infeasible
# side of boundary (49 solves).  The scale matrices, the certify tables
# and the feasible band of boundary are the same at every seed.  Their
# solves are few and bimodal: one refinement level more doubles a scale
# solve, and a near-limit boundary solve either succeeds in well under a
# second or spends the whole 100k cap.  Fresh draws of them moved the
# workloads' totals by 20-40 % between seeds.  Misses among the fixed
# instances are kept and counted.
FEASIBLE_BAND_SEEDS = (0, 1, 2)

SCALE_DIMS = (12, 15, 20)
CERTIFY_TABLES = 12
CERTIFY_DIM = 6
CYCLE_MEAN = 0.95


class Unsound(RuntimeError):
    """An outcome that contradicts its own re-check; aborts the benchmark."""


# --------------------------------------------------------------- evaluators


def linear_eval(A: np.ndarray):
    return lambda s: A @ s


def maxtimes_eval(C: np.ndarray):
    rows = [list(map(float, row)) for row in C]
    return lambda s: np.array([max(c * s[j] for j, c in enumerate(row)) for row in rows])


def chain_eval(n: int):
    def f(s):
        out = np.zeros(n)
        for j in range(n):
            left = s[j - 1] ** (1.0 / (j + 1)) if j >= 1 else 0.0
            right = s[j + 1] ** (j + 2) if j + 1 < n else 0.0
            out[j] = 0.25 * (left + right)
        return out

    return f


def flipflop_eval(lam: float):
    return lambda s: np.array([math.sqrt(s[1]), lam * s[0] ** 2])


def margin(f, s: np.ndarray) -> float:
    return float(np.min(s - f(s)))


# ------------------------------------------------------------------ oracles


def linear_oracle(A: np.ndarray, r: float = R, f=None) -> float:
    """Exact best margin ``r / 1'(I - A)^-1 1`` on the sphere (0 if rho >= 1).

    The witness is checked with ``f`` (default ``s -> A s``).
    """
    n = A.shape[0]
    try:
        w = np.linalg.solve(np.eye(n) - A, np.ones(n))
    except np.linalg.LinAlgError:
        return 0.0
    # for rho < 1, (I - A)^-1 = sum A^k >= I, so w >= 1; anything else means rho >= 1
    if not np.all(np.isfinite(w)) or np.any(w < 1.0 - 1e-9):
        return 0.0
    eps_max = r / float(w.sum())
    _self_check(f or linear_eval(A), r * w / w.sum(), eps_max)
    return eps_max


def cycle_mean(C: np.ndarray) -> float:
    """Largest geometric cycle mean of a max-times matrix.

    Every closed walk splits into simple cycles of length <= n, so the
    maximum over k <= n of the k-th root of the diagonal of the k-th
    max-times power is exact.
    """
    n = C.shape[0]
    power = C.copy()
    best = 0.0
    for k in range(1, n + 1):
        best = max(best, float(np.max(np.diag(power))) ** (1.0 / k))
        power = np.max(power[:, :, None] * C[None, :, :], axis=1)
    return best


def maxtimes_oracle(C: np.ndarray, r: float = R) -> float:
    """Exact best margin ``r / 1'w`` with ``w`` least in ``w = 1 + C (x) w``."""
    n = C.shape[0]
    w = np.ones(n)
    for _ in range(100_000):
        nxt = 1.0 + np.max(C * w[None, :], axis=1)
        if np.max(np.abs(nxt - w)) <= 1e-14 * np.max(nxt):
            w = nxt
            break
        w = nxt
    else:
        raise RuntimeError("max-times oracle did not converge (cycle mean >= 1?)")
    eps_max = r / float(w.sum())
    _self_check(maxtimes_eval(C), r * w / w.sum(), eps_max)
    return eps_max


def chain_witness(n: int, r: float = R) -> float:
    """Margin of ``p(t) = (t^(1/1!), ..., t^(1/n!))`` scaled to norm r by bisection.

    ``(T p)_i = p_i / 2`` inside the chain and ``p_i / 4`` at its ends, so
    p is a decay point at every t > 0; its margin bounds eps_max below.
    """
    facts = [math.factorial(i) for i in range(1, n + 1)]

    def point(t):
        return np.array([t ** (1.0 / f) for f in facts])

    lo, hi = 1e-12, r
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if point(mid).sum() < r:
            lo = mid
        else:
            hi = mid
    p = point(lo)
    p *= r / p.sum()  # absorb the last bisection step; still a decay point
    return margin(chain_eval(n), p)


def flipflop_witness(lam: float, r: float = R) -> float:
    """Best margin over a 100001-point grid of the 1-D sphere (a lower bound)."""
    x = np.linspace(0.0, r, 100_001)
    y = r - x
    margins = np.minimum(x - np.sqrt(y), y - lam * x**2)
    i = int(np.argmax(margins))
    return margin(flipflop_eval(lam), np.array([x[i], y[i]]))


def _self_check(f, witness: np.ndarray, eps_max: float) -> None:
    got = margin(f, witness)
    if abs(got - eps_max) > ORACLE_TOL:
        raise Unsound(f"oracle witness margin {got!r} differs from eps_max {eps_max!r}")


# ------------------------------------------------------- shipped map specs

_GAIN = re.compile(r"^\s*(?:([0-9.eE+-]+)\s*\*\s*)?t\s*$")


def _linear_gain(text) -> float:
    if text is None or text.strip() == "0":
        return 0.0
    m = _GAIN.match(text)
    if m is None:
        raise ValueError(f"benchmark oracle handles only linear gains c*t, got {text!r}")
    return float(m.group(1)) if m.group(1) else 1.0


def spec_oracle(obj: dict, r: float = R):
    """Independent evaluator and a feasibility bound for a map spec object.

    Returns ``(f, bound)`` where every eps <= bound is feasible.  Linear,
    max-times and their compositions with linear diagonals are exact.
    """
    kind = obj["kind"]
    if kind == "linear":
        A = np.array(obj["matrix"], dtype=float)
        return linear_eval(A), linear_oracle(A, r)
    if kind == "maxpreserving":
        C = np.array([[_linear_gain(g) for g in row] for row in obj["gains"]])
        return maxtimes_eval(C), maxtimes_oracle(C, r)
    if kind == "chain":
        return chain_eval(obj["n"]), chain_witness(obj["n"], r)
    if kind == "flipflop":
        return flipflop_eval(obj["lambda"]), flipflop_witness(obj["lambda"], r)
    if kind == "composition":
        # only compositions of linear maps and linear diagonals have an exact
        # oracle; evaluate them child by child as the package does
        mats, evals = [], []
        for child in obj["maps"]:
            if child["kind"] == "diagonal":
                coeffs = [_linear_gain(g) for g in child["functions"]]
                mats.append(np.diag(coeffs))
                evals.append(lambda s, c=coeffs: np.array([ci * si for ci, si in zip(c, s)]))
            elif child["kind"] == "linear":
                A = np.array(child["matrix"], dtype=float)
                mats.append(A)
                evals.append(linear_eval(A))
            else:
                raise ValueError(f"no benchmark oracle for a {child['kind']} child")

        def f(s):
            for g in reversed(evals):
                s = g(s)
            return s

        product = mats[0]
        for M in mats[1:]:
            product = product @ M
        return f, linear_oracle(product, r, f)
    raise ValueError(f"no benchmark oracle for map kind {kind!r}")


# ---------------------------------------------------------------- instances


@dataclass
class Job:
    """One timed operation: a solve through the API or a certification via the CLI."""

    label: str
    kind: str  # "find" | "table" | "spec"
    eps: float
    feasible: bool
    f: object  # independent evaluator
    T: object = None  # built map, for "find"
    n: int = 0  # dimension, for "find"
    rows: list = field(default_factory=list)  # gain strings, for "table"
    path: str = ""  # spec file, for "table" and "spec"


def _find_job(label, T, n, eps, f, bound) -> Job:
    return Job(label, "find", eps, eps <= bound, f, T=T, n=n)


def _linear_job(dc, label, A, eps_of) -> Job:
    n = A.shape[0]
    eps_max = linear_oracle(A)
    eps = eps_of(eps_max, n)
    return _find_job(label, dc.maps.make_linear_map(A), n, eps, linear_eval(A), eps_max)


def build_grid(dc, seed: int, units: int, workdir: Path) -> list[Job]:
    """Acceptance criteria 1 (chain sweep) and 2 (seeded linear sweep, rho 0.8)."""
    jobs = []
    for u in range(units):
        for n, eps in [(n, e) for n in (2, 3, 4, 5) for e in (0.1, 0.01)] + [(10, 0.1)]:
            jobs.append(_find_job(f"chain n={n} eps={eps}", dc.maps.make_chain_map(n), n, eps,
                                  chain_eval(n), chain_witness(n)))
        for n in range(2, 11):
            for k in range(10):
                ms = SEED_STRIDE * seed + 10 * u + k
                A = dc.linear.random_contractive(n, 0.8, ms)
                jobs.append(_linear_job(dc, f"linear n={n} seed={ms}", A, lambda e, n: 0.1))
    return jobs


def build_scale(dc, seed: int, units: int, workdir: Path) -> list[Job]:
    """Linear rho 0.8 at larger n, eps = eps_max / 2; one matrix per n and unit.

    The same at every seed (see the note on SEED_STRIDE).
    """
    jobs = []
    for u in range(units):
        for n in SCALE_DIMS:
            ms = u
            A = dc.linear.random_contractive(n, 0.8, ms)
            jobs.append(_linear_job(dc, f"linear n={n} seed={ms}", A, lambda e, n: 0.5 * e))
    return jobs


def build_boundary(dc, seed: int, units: int, workdir: Path) -> list[Job]:
    """Both sides of the feasibility limit."""
    jobs = []
    for u in range(units):
        for n in (6, 8, 10):
            for k in range(3):
                ms = SEED_STRIDE * seed + 3 * u + k
                A = dc.linear.random_contractive(n, 0.8, ms)
                jobs.append(_linear_job(dc, f"1.1 eps_max n={n} seed={ms}", A,
                                        lambda e, n: 1.1 * e))
        for rho in (1.0, 1.2):
            for k in range(20):
                n = 2 + k % 7
                ms = EQUIV_SEED_BASE + SEED_STRIDE * seed + 20 * u + k
                A = dc.linear.random_contractive(n, rho, ms)
                jobs.append(_linear_job(dc, f"rho={rho} n={n} seed={ms}", A,
                                        lambda e, n: 0.05 * R / (2 * n)))
        for n in (3, 4):
            for ms in FEASIBLE_BAND_SEEDS:
                A = dc.linear.random_contractive(n, 0.8, ms)
                jobs.append(_linear_job(dc, f"0.9 eps_max n={n} seed={ms}", A,
                                        lambda e, n: 0.9 * e))
    return jobs


def random_gain_table(seed: int, k: int) -> np.ndarray:
    """Dense n=6 gain coefficients (zero diagonal) scaled to cycle mean 0.95."""
    rng = np.random.default_rng([seed, k])
    C = rng.uniform(0.05, 1.0, (CERTIFY_DIM, CERTIFY_DIM))
    np.fill_diagonal(C, 0.0)
    return C * (CYCLE_MEAN / cycle_mean(C))


def build_certify(dc, seed: int, units: int, workdir: Path) -> list[Job]:
    """Max-preserving small-gain path: cycle test plus ``decaycert verify``.

    The tables are the same at every seed (see the note on SEED_STRIDE).
    """
    jobs = []
    workdir.mkdir(parents=True, exist_ok=True)
    specs = sorted((dc.root / "mapspecs").glob("*.json"))
    for k in range(CERTIFY_TABLES * units):
        C = random_gain_table(0, k)
        rows = [[None if c == 0.0 else f"{float(c)!r}*t" for c in row] for row in C]
        path = workdir / f"table{k}.json"
        path.write_text(json.dumps({"kind": "maxpreserving", "gains": rows}))
        # the oracle reads the coefficients back from the text the CLI will parse
        C_text = np.array([[_linear_gain(g) for g in row] for row in rows])
        eps = 0.5 * maxtimes_oracle(C_text)
        jobs.append(Job(f"table k={k}", "table", eps, True, maxtimes_eval(C_text), rows=rows,
                        path=str(path)))
        if k % CERTIFY_TABLES == CERTIFY_TABLES - 1:
            for spec in specs:
                f, bound = spec_oracle(json.loads(spec.read_text()))
                jobs.append(Job(f"spec {spec.name}", "spec", 0.5 * bound, True, f,
                                path=str(spec)))
    return jobs


# workload: (build function, seconds per unit, passes).  Inputs are built from
# whole units; a run of S seconds builds round(S / (seconds * passes)) of
# them (at least one) and times every operation in each pass.  One seed
# and one run length thus always give the same inputs, sized to take
# about S seconds on a 2-core x86 VM at the benchmark's first commit.
WORKLOADS = {
    "grid": (build_grid, 2.0, 3),  # 99 solves per unit
    "scale": (build_scale, 2.4, 3),  # n = 12, 15, 20
    "boundary": (build_boundary, 25.0, 1),  # 55 solves, six near the limit
    "certify": (build_certify, 5.0, 3),  # 12 tables and the 5 shipped specs
}


# ---------------------------------------------------------------- execution


@dataclass
class Outcome:
    evals: int
    verdict: bool  # a certificate (find: s*, CLI: certified=1)
    reason: str  # success | label_none | iteration_cap | not_certified
    agrees: bool = True  # verdict matches the oracle's


def execute(dc, job: Job):
    """Run one operation through the public entry points; this is what is timed.

    Module attributes are looked up at call time so that the traced run's
    wrappers are the ones called.
    """
    if job.kind == "find":
        cfg = dc.homotopy.SolverConfig(r=R, epsilon=job.eps, max_iterations=CAP)
        return dc.homotopy.find_decay_point(job.T, cfg, job.n)
    cycle = None
    if job.kind == "table":
        cycle = dc.maxpreserving.cycle_condition(dc.maxpreserving.GainTable(job.rows))
    argv = ["verify", "--map", job.path, "-r", repr(R), "--epsilon", repr(job.eps),
            "--max-iterations", str(CAP), "--stop-tol", repr(STOP_TOL), "--k-max", str(K_MAX)]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = dc.cli.main(argv)
    return cycle, code, out.getvalue(), err.getvalue()


def check(job: Job, raw) -> Outcome:
    """Re-check an operation's result independently; raise Unsound on any contradiction."""
    if job.kind == "find":
        outcome = _check_find(job, raw)
    else:
        cycle, code, out, err = raw
        if cycle is not None and not cycle[0]:
            raise Unsound(f"{job.label}: cycle condition violated at {cycle[1]} although the "
                          f"cycle mean is {CYCLE_MEAN}")
        outcome = _check_verify(job, code, out, err)
    outcome.agrees = outcome.verdict == job.feasible
    return outcome


def _check_find(job: Job, report) -> Outcome:
    if report.success:
        _check_certificate(job, np.asarray(report.s_star))
        return Outcome(report.iterations, True, "success")
    if report.failure_reason == "label_none":
        p = np.asarray(report.failure_point)
        if np.any(job.f(p) + job.eps <= p):
            raise Unsound(f"{job.label}: label_none at a point that has a label")
    elif report.failure_reason == "iteration_cap":
        if report.iterations != CAP:
            raise Unsound(f"{job.label}: iteration_cap after {report.iterations} evaluations")
    else:
        raise Unsound(f"{job.label}: unknown failure reason {report.failure_reason!r}")
    return Outcome(report.iterations, False, report.failure_reason)


def _check_certificate(job: Job, s: np.ndarray) -> None:
    if not job.feasible:
        raise Unsound(f"{job.label}: certificate at eps={job.eps!r} above the oracle's eps_max")
    got = margin(job.f, s)
    if not got >= job.eps:
        raise Unsound(f"{job.label}: returned s* has margin {got!r} < eps {job.eps!r}")
    if abs(float(np.sum(s)) - R) > NORM_TOL:
        raise Unsound(f"{job.label}: returned s* has norm {float(np.sum(s))!r}, expected {R}")


def _check_trajectory(job: Job, s: np.ndarray) -> None:
    for _ in range(K_MAX):
        if float(np.max(s)) < STOP_TOL:
            return
        nxt = job.f(s)
        if np.any(nxt > s + 1e-12 * R):
            raise Unsound(f"{job.label}: trajectory from s* increases")
        s = nxt
    if float(np.max(s)) >= STOP_TOL:
        raise Unsound(f"{job.label}: trajectory from s* does not converge in {K_MAX} steps")


def _check_verify(job: Job, code: int, out: str, err: str) -> Outcome:
    lines = [ln for ln in out.splitlines() if ln.startswith("RESULT: ")]
    if code not in (0, 1) or len(lines) != 1:
        raise Unsound(f"{job.label}: exit {code}, {len(lines)} RESULT lines, stderr {err.strip()!r}")
    fields = dict(part.split("=", 1) for part in lines[0][len("RESULT: "):].split())
    certified = fields.get("certified") == "1"
    if certified != (code == 0):
        raise Unsound(f"{job.label}: exit {code} disagrees with certified={fields.get('certified')}")
    evals = int(fields["iterations"])
    if fields.get("success") == "1":
        s = np.array([float(v) for v in fields["s_star"].split(",")])
        _check_certificate(job, s)
        if certified:
            _check_trajectory(job, s)
        return Outcome(evals, certified, "success" if certified else "not_certified")
    if fields.get("failure") == "iteration_cap" and evals != CAP:
        raise Unsound(f"{job.label}: iteration_cap after {evals} evaluations")
    return Outcome(evals, False, fields.get("failure", "unknown"))
