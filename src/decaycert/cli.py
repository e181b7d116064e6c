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
import sys
import time
from pathlib import Path

import numpy as np

from .dynamics import check_trajectory_limits, verify_attraction
from .homotopy import SolverConfig, find_decay_point
from .linear import PowerIterationError, perron_direction, random_contractive, spectral_radius
from .maps import make_chain_map, make_linear_map
from .mapspec import parse_map_spec

__all__ = ["main"]

CSV_COLUMNS = ["family", "n", "epsilon", "r", "seed", "iterations", "success", "ms"]


def _vec(x: np.ndarray) -> str:
    return ",".join(repr(float(v)) for v in x)


def _result_line(command: str, **fields) -> None:
    parts = [f"{k}={v}" for k, v in fields.items()]
    print(f"RESULT: command={command} " + " ".join(parts))


def _load_spec(path: str):
    text = Path(path).read_text()
    return parse_map_spec(text)


def _parse_list(text: str, cast, what: str) -> list:
    items = [part.strip() for part in text.split(",") if part.strip()]
    if not items:
        raise ValueError(f"empty {what} list")
    return [cast(part) for part in items]


def _find(args, command: str, **failure_fields):
    """Search the sphere for a decay point of the ``--map`` spec's map.

    Returns ``(T, report)``.  When no point is found, the failure lines
    are already printed, with ``failure_fields`` leading the RESULT keys.
    """
    T = _load_spec(args.map).build()
    cfg = SolverConfig(r=args.radius, epsilon=args.epsilon, max_iterations=args.max_iterations)
    report = find_decay_point(T, cfg, T.dimension)
    if not report.success:
        print(f"no decay point found ({report.failure_reason}, {report.iterations} iterations)")
        _result_line(
            command, **failure_fields, success=0,
            iterations=report.iterations, failure=report.failure_reason,
        )
    return T, report


def cmd_find(args) -> int:
    _, report = _find(args, "find")
    if not report.success:
        return 1
    s = report.s_star
    print(f"decay point found on the sphere of radius {args.radius:g}")
    print(f"  s*         = [{', '.join(f'{v:.12g}' for v in s)}]")
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
    check_trajectory_limits(args.k_max, args.stop_tol)  # before the search spends its budget
    T, solve = _find(args, "verify", certified=0)
    if not solve.success:
        return 1
    s = solve.s_star
    certified, traj = verify_attraction(T, s, stop_tol=args.stop_tol, k_max=args.k_max)
    print(f"decay point: s* = [{', '.join(f'{v:.12g}' for v in s)}]")
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
    if args.instances < 1:
        raise ValueError(f"--instances must be >= 1, got {args.instances}")
    dims = _parse_list(args.dims, int, "dimension")
    epsilons = _parse_list(args.epsilons, float, "epsilon")
    rows = []
    failures = 0
    for n in dims:
        for eps in epsilons:
            if args.family == "chain":
                instances = [("", make_chain_map(n))]
            else:
                instances = []
                for idx in range(args.instances):
                    seed = args.seed + idx
                    instances.append((seed, make_linear_map(random_contractive(n, 0.8, seed))))
            for seed, T in instances:
                cfg = SolverConfig(r=args.radius, epsilon=eps, max_iterations=args.max_iterations)
                t0 = time.perf_counter()
                report = find_decay_point(T, cfg, n)
                ms = (time.perf_counter() - t0) * 1e3
                if not report.success:
                    failures += 1
                rows.append(
                    {
                        "family": args.family,
                        "n": n,
                        "epsilon": repr(eps),
                        "r": repr(args.radius),
                        "seed": seed,
                        "iterations": report.iterations,
                        "success": int(report.success),
                        "ms": f"{ms:.3f}",
                    }
                )
    with open(args.out, "w", newline="") as handle:
        writer = csv.DictWriter(handle, fieldnames=CSV_COLUMNS, lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)
    print(f"wrote {len(rows)} rows to {args.out} ({failures} failures)")
    _result_line("sweep", rows=len(rows), failures=failures, out=args.out)
    return 0 if failures == 0 else 1


def cmd_spectral(args) -> int:
    spec = _load_spec(args.map)
    if spec.kind != "linear":
        print(f"error: spectral needs a linear map spec, got kind {spec.kind!r}", file=sys.stderr)
        return 2
    A = np.array([list(row) for row in spec.matrix])
    rho = spectral_radius(A)
    print(f"spectral radius: {rho:.12g}")
    direction = None
    try:
        direction = perron_direction(A)
        print(f"dominant direction (1-norm 1): [{', '.join(f'{v:.12g}' for v in direction)}]")
    except PowerIterationError as exc:
        print(f"dominant direction unavailable: {exc}")
    contractive = rho < 1.0
    print("verdict: spectral radius " + ("< 1 (contractive)" if contractive else ">= 1"))
    fields = {"rho": repr(rho), "contractive": int(contractive)}
    if direction is not None:
        fields["direction"] = _vec(direction)
    _result_line("spectral", **fields)
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
        p.add_argument("--epsilon", type=float, default=1e-2,
                       help="labeling slack / certificate margin (default 0.01)")
        p.add_argument("--max-iterations", type=int, default=1000,
                       help="map evaluation budget (default 1000)")

    p_find = sub.add_parser("find", help="search a sphere for a decay point")
    add_solver_flags(p_find)
    p_find.set_defaults(func=cmd_find)

    p_verify = sub.add_parser("verify", help="find a decay point and certify [0, s*]")
    add_solver_flags(p_verify)
    p_verify.add_argument("--stop-tol", type=float, default=1e-6,
                          help="trajectory sup-norm threshold (default 1e-6)")
    p_verify.add_argument("--k-max", type=int, default=10_000,
                          help="trajectory step budget (default 10000)")
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
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ValueError) as exc:  # MapSpec errors are ValueErrors
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
