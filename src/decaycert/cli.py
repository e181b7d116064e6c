"""Command-line front end.

Four subcommands: ``find`` locates a decay point on a sphere, ``verify``
adds the trajectory certificate for the order interval, ``sweep`` runs
the benchmark grids and writes CSV, ``spectral`` reports the linear-case
diagnostics.  Every command prints a single machine-readable line
prefixed ``RESULT:`` with flat key=value pairs.

Exit codes: 0 success/certified, 1 the method ran but produced no
certificate, 2 invalid input or usage.
"""

from __future__ import annotations

import argparse
import csv
import os
import sys
import time
from pathlib import Path

import numpy as np

from .dynamics import DEFAULT_K_MAX, DEFAULT_STOP_TOL, solve_problem1
from .homotopy import SolverConfig, check_sphere, find_decay_point
from .linear import eps_max, perron_direction, random_contractive, spectral_radius
from .maps import MonotoneMap, make_chain_map, make_linear_map
from .mapspec import parse_map_spec
from .order import check_count

__all__ = ["main"]

CSV_COLUMNS = ["family", "n", "epsilon", "r", "seed", "iterations", "success", "ms"]


def _vec(x: np.ndarray) -> str:
    return ",".join(repr(float(v)) for v in x)


def _show(x: np.ndarray) -> str:
    """A vector for people to read: ``[a, b, ...]`` to 12 significant digits."""
    return f"[{', '.join(f'{v:.12g}' for v in x)}]"


def _result_line(command: str, **fields) -> None:
    parts = [f"{k}={v}" for k, v in fields.items()]
    print(f"RESULT: command={command} " + " ".join(parts))


def _parse_list(text: str, cast, flag: str) -> list:
    out = []
    for part in filter(None, map(str.strip, text.split(","))):
        try:
            out.append(cast(part))
        except ValueError:
            raise ValueError(f"{flag} item {part!r} is not a valid {cast.__name__}") from None
    if not out:
        raise ValueError(f"empty {flag} list")
    return out


def _no_decay_point(command: str, report, **failure_fields) -> int:
    """Print the lines of a failed search, ``failure_fields`` leading the RESULT keys."""
    print(f"no decay point found ({report.failure_reason}, {report.iterations} iterations)")
    _result_line(
        command, **failure_fields, success=0,
        iterations=report.iterations, failure=report.failure_reason,
    )
    return 1


def _load(args) -> tuple[MonotoneMap, SolverConfig]:
    """The map of ``--map`` and the search settings of the solver flags."""
    T = parse_map_spec(Path(args.map).read_text()).build()
    cfg = SolverConfig(r=args.radius, epsilon=args.epsilon, max_iterations=args.max_iterations)
    check_sphere(cfg.r, T.dimension, "map dimension")  # the solver's own check names n
    return T, cfg


def cmd_find(args) -> int:
    T, cfg = _load(args)
    report = find_decay_point(T, cfg, T.dimension)
    if not report.success:
        return _no_decay_point("find", report)
    s = report.s_star
    print(f"decay point found on the sphere of radius {args.radius:g}")
    print(f"  s*         = {_show(s)}")
    print(f"  margin     = {report.margin:.12g}  (epsilon = {args.epsilon:g})")
    print(f"  iterations = {report.iterations}")
    _result_line(
        "find",
        success=1,
        iterations=report.iterations,
        margin=repr(report.margin),
        norm=repr(float(np.sum(s))),
        s_star=_vec(s),
    )
    return 0


def cmd_verify(args) -> int:
    T, cfg = _load(args)
    cert = solve_problem1(T, cfg, T.dimension, args.stop_tol, args.k_max)
    solve, traj, certified = cert.solve, cert.trajectory, cert.problem1_satisfied
    if not solve.success:
        return _no_decay_point("verify", solve, certified=0)
    s = solve.s_star
    print(f"decay point: s* = {_show(s)}")
    print(f"  margin = {solve.margin:.12g}, iterations = {solve.iterations}")
    if certified:
        print(
            f"trajectory from s* reached sup-norm {traj.final_sup_norm:.3g} "
            f"after {traj.steps_used} steps"
        )
        print("certificate: the order interval [0, s*] lies in the region of attraction")
    else:
        print(
            f"trajectory from s* did NOT converge within {args.k_max} steps "
            f"(final sup-norm {traj.final_sup_norm:.3g}); no certificate"
        )
    _result_line(
        "verify",
        certified=int(certified),
        success=1,
        iterations=solve.iterations,
        margin=repr(solve.margin),
        steps=traj.steps_used,
        final_sup_norm=repr(traj.final_sup_norm),
        s_star=_vec(s),
    )
    return 0 if certified else 1


def cmd_sweep(args) -> int:
    check_count("--instances", args.instances)
    check_count("--seed", args.seed, least=0)
    dims = _parse_list(args.dims, int, "--dims")
    configs = [SolverConfig(r=args.radius, epsilon=eps, max_iterations=args.max_iterations)
               for eps in _parse_list(args.epsilons, float, "--epsilons")]
    for n in dims:  # the solver's own check, before the first solve; it names n
        check_sphere(args.radius, n, "--dims item")
    out = Path(args.out)
    # else open fails after every solve; os.access alone passes a parent that is a file
    if out.is_dir() or not (out.parent.is_dir() and os.access(out.parent, os.W_OK)):
        raise ValueError(f"--out {args.out!r} cannot be created")
    rows = []  # each row in CSV_COLUMNS order
    for n in dims:
        if args.family == "chain":
            instances = [("", make_chain_map(n))]
        else:
            instances = [(seed, make_linear_map(random_contractive(n, 0.8, seed)))
                         for seed in range(args.seed, args.seed + args.instances)]
        for cfg in configs:
            for seed, T in instances:
                t0 = time.perf_counter()
                report = find_decay_point(T, cfg, n)
                ms = (time.perf_counter() - t0) * 1e3
                rows.append([args.family, n, repr(cfg.epsilon), repr(args.radius), seed,
                             report.iterations, int(report.success), f"{ms:.3f}"])
    failures = [row[CSV_COLUMNS.index("success")] for row in rows].count(0)
    with open(args.out, "w", newline="") as handle:
        csv.writer(handle, lineterminator="\n").writerows([CSV_COLUMNS, *rows])
    print(f"wrote {len(rows)} rows to {args.out} ({failures} failures)")
    _result_line("sweep", rows=len(rows), failures=failures, out=args.out)
    return 0 if failures == 0 else 1


def cmd_spectral(args) -> int:
    spec = parse_map_spec(Path(args.map).read_text())
    if spec.kind != "linear":
        raise ValueError(f"spectral needs a linear map spec, got kind {spec.kind!r}")
    A = np.array(spec.data)
    rho = spectral_radius(A)
    print(f"spectral radius: {rho:.12g}")
    try:
        direction = perron_direction(A)
        print(f"dominant direction (1-norm 1): {_show(direction)}")
        shown = {"direction": _vec(direction)}
    except ValueError as exc:
        print(f"dominant direction unavailable: {exc}")
        shown = {}
    contractive = rho < 1.0
    print("verdict: spectral radius " + ("< 1 (contractive)" if contractive else ">= 1"))
    best = eps_max(A, 1.0)
    print(f"best decay margin on the sphere of radius 1 (scales with r): {best:.12g}")
    _result_line("spectral", rho=repr(rho), contractive=int(contractive), **shown,
                 eps_max=repr(best))
    return 0 if contractive else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="decaycert",
        description=(
            "Find decay points of monotone orthant maps and certify "
            "order intervals of attraction."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_solver_flags(p):
        p.add_argument("--map", required=True, help="path to a JSON map spec file")
        p.add_argument("--radius", "-r", type=float, required=True,
                       help="1-norm radius of the search sphere")
        p.add_argument("--epsilon", type=float, default=SolverConfig.epsilon,
                       help="labeling slack / certificate margin (default %(default)s)")
        p.add_argument("--max-iterations", type=int, default=SolverConfig.max_iterations,
                       help="map evaluation budget (default %(default)s)")

    p_find = sub.add_parser("find", help="search a sphere for a decay point")
    add_solver_flags(p_find)
    p_find.set_defaults(func=cmd_find)

    p_verify = sub.add_parser("verify", help="find a decay point and certify [0, s*]")
    add_solver_flags(p_verify)
    p_verify.add_argument("--stop-tol", type=float, default=DEFAULT_STOP_TOL,
                          help="trajectory sup-norm threshold (default %(default)s)")
    p_verify.add_argument("--k-max", type=int, default=DEFAULT_K_MAX,
                          help="trajectory step budget (default %(default)s)")
    p_verify.set_defaults(func=cmd_verify)

    p_sweep = sub.add_parser("sweep", help="benchmark grid over (n, epsilon), CSV output")
    p_sweep.add_argument("--family", choices=("chain", "linear-random"), required=True)
    p_sweep.add_argument("--dims", required=True, help="comma-separated dimensions, e.g. 2,3,4")
    p_sweep.add_argument("--epsilons", required=True, help="comma-separated slacks, e.g. 0.1,0.01")
    p_sweep.add_argument("--radius", "-r", type=float, default=10.0)
    p_sweep.add_argument("--instances", type=int, default=10,
                         help="random matrices per grid point (linear-random only)")
    p_sweep.add_argument("--seed", type=int, default=0, help="base seed; row seed = seed + index")
    p_sweep.add_argument("--max-iterations", type=int, default=100_000)
    p_sweep.add_argument("--out", required=True, help="CSV output path")
    p_sweep.set_defaults(func=cmd_sweep)

    p_spectral = sub.add_parser("spectral", help="spectral radius and dominant direction")
    p_spectral.add_argument("--map", required=True, help="path to a linear JSON map spec")
    p_spectral.set_defaults(func=cmd_spectral)

    return parser


def main(argv=None) -> int:
    """Run one subcommand.  Every refusal a command raises ends here: one ``error:``
    line on stderr and exit code 2."""
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ValueError, RecursionError) as exc:  # MapSpec errors; too-deep specs
        print(f"error: {exc}", file=sys.stderr)
        return 2
