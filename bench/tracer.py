"""Outside-in tracer for the traced run.

The traced run replaces module attributes of ``decaycert`` with wrappers
that open a span around each call; nothing under ``src/`` is edited and
:meth:`Tracer.unpatch` restores every attribute.  Spans (name, parent
span, operation id, start, end) are kept in memory in flat arrays and
written out once at the end.  Self times and the counters behind the
per-layer metrics are accumulated as spans close.

Wrapped entry points, by layer:

* ``maps``: ``MonotoneMap.__call__`` (a call nested in another map call,
  as in ``compose``, is timed but not counted as an evaluation);
* ``homotopy``: ``find_decay_point``; ``CompleteCellSearch`` is replaced
  by a factory that marks a level (a new slack rung starts at ``m = 1``)
  and wraps the ``label_of`` it receives and the ``find`` of the search;
* ``triangulation``: ``pivot``, ``attach``, ``facet_as_subcell`` (the
  sub-face exits);
* ``dynamics``: ``iterate``;
* ``mapspec``: ``parse_map_spec`` and ``MapSpec.build``;
* ``maxpreserving``: ``cycle_condition``;
* ``linear``: ``random_contractive`` (input generation);
* ``cli``: ``main``.
"""

from __future__ import annotations

import statistics
import time
import types
from array import array

import numpy as np

NAMES = (
    "maps.call",
    "homotopy.find_decay_point",
    "homotopy.label",
    "triangulation.find",
    "triangulation.pivot",
    "triangulation.attach",
    "triangulation.facet_as_subcell",
    "dynamics.iterate",
    "mapspec.parse",
    "mapspec.build",
    "maxpreserving.cycle_condition",
    "linear.random_contractive",
    "cli.main",
)
(MAP, SOLVE, LABEL, FIND, PIVOT, ATTACH, FACET, ITERATE, PARSE, BUILD, CYCLE, RANDOM,
 CLI) = range(len(NAMES))


class Tracer:
    """Spans and per-layer counters for the wrapped entry points of one process."""

    def __init__(self):
        self.name = array("B")
        self.parent = array("i")
        self.op_of = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack: list[list] = []  # [span index, name id, start, child time, evaluated]
        self.op = -1
        k = len(NAMES)
        self.count = [0] * k
        self.total = [0.0] * k
        self.self_time = [0.0] * k
        self.solver_evals = 0
        self.trajectory_steps = 0
        self.map_time = 0.0
        self.map_calls = 0
        self.cache_hits = 0
        self.rungs = 0
        self.levels = 0
        self.max_m = 0
        self.wasted_evals = 0
        self.growth: list[float] = []
        self._solve_levels: list[tuple[int, int, int, int]] = []  # rung, m, n, evals at start
        self._rung_start = 0
        self._patched: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------ spans

    def _enter(self, nid: int) -> list:
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self.stack[-1][0] if self.stack else -1)
        self.op_of.append(self.op)
        self.end.append(0.0)
        frame = [idx, nid, 0.0, 0.0, False]
        self.stack.append(frame)
        frame[2] = now = time.perf_counter()
        self.start.append(now)
        return frame

    def _leave(self, frame: list, exc: BaseException | None) -> None:
        end = time.perf_counter()
        self.stack.pop()
        idx, nid, start, child, evaluated = frame
        dur = end - start
        self.end[idx] = end
        self.count[nid] += 1
        self.total[nid] += dur
        self.self_time[nid] += dur - child
        parent = self.stack[-1] if self.stack else None
        if parent is not None:
            parent[3] += dur
        if nid == MAP:
            if parent is None or parent[1] != MAP:
                self.map_calls += 1
                self.map_time += dur
                if parent is not None and parent[1] in (LABEL, SOLVE):
                    self.solver_evals += 1
                    parent[4] = True
                elif parent is not None and parent[1] == ITERATE:
                    self.trajectory_steps += 1
        elif nid == LABEL:
            if not evaluated:
                self.cache_hits += 1
        elif nid == FIND:
            if type(exc).__name__ == "_NoLabel":
                self.wasted_evals += self.solver_evals - self._rung_start
        elif nid == SOLVE:
            self._close_solve()

    def wrap(self, nid: int, fn):
        enter, leave = self._enter, self._leave

        def wrapper(*args, **kwargs):
            frame = enter(nid)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                leave(frame, exc)
                raise
            leave(frame, None)
            return result

        return wrapper

    # ------------------------------------------------ levels and rungs

    def _level(self, m: int, n: int) -> None:
        if m == 1:
            self.rungs += 1
            self._rung_start = self.solver_evals
        self.levels += 1
        self.max_m = max(self.max_m, m)
        self._solve_levels.append((self.rungs, m, n, self.solver_evals))

    def _close_solve(self) -> None:
        """Growth of new evaluations from level m to 2m, over levels that completed.

        Only levels with m >= n count: coarser ones mostly revisit the
        corners and edge points already cached, so their ratio is ~1 by
        construction.
        """
        lv = self._solve_levels
        evals_at = [level[3] for level in lv] + [self.solver_evals]
        new = [evals_at[i + 1] - evals_at[i] for i in range(len(lv))]
        complete = [i + 1 < len(lv) and lv[i + 1][0] == lv[i][0] for i in range(len(lv))]
        for i in range(len(lv) - 1):
            _, m, n, _ = lv[i]
            if complete[i] and complete[i + 1] and m >= n and new[i] > 0:
                self.growth.append(new[i + 1] / new[i])
        self._solve_levels = []

    # --------------------------------------------------------- patching

    def patch(self, dc) -> None:
        """Replace the entry points with wrappers, in every module that binds them."""
        search_cls = dc.homotopy.CompleteCellSearch

        def traced_search(m, n, label_of):
            self._level(m, n)
            search = search_cls(m, n, self.wrap(LABEL, label_of))
            search.find = self.wrap(FIND, search.find)
            return search

        modules = [m for m in vars(dc).values() if isinstance(m, types.ModuleType)]
        for owner, attr, nid in (
            (dc.maps.MonotoneMap, "__call__", MAP),
            (dc.mapspec.MapSpec, "build", BUILD),
            (dc.homotopy, "CompleteCellSearch", None),
            (dc.homotopy, "find_decay_point", SOLVE),
            (dc.triangulation, "pivot", PIVOT),
            (dc.triangulation, "attach", ATTACH),
            (dc.triangulation, "facet_as_subcell", FACET),
            (dc.dynamics, "iterate", ITERATE),
            (dc.mapspec, "parse_map_spec", PARSE),
            (dc.maxpreserving, "cycle_condition", CYCLE),
            (dc.linear, "random_contractive", RANDOM),
            (dc.cli, "main", CLI),
        ):
            original = getattr(owner, attr)
            replacement = traced_search if nid is None else self.wrap(nid, original)
            # callers that imported the name bind the same object: rebind them too
            for target in [owner] + modules:
                for name, value in list(vars(target).items()):
                    if value is original:
                        self._patched.append((target, name, value))
                        setattr(target, name, replacement)

    def unpatch(self) -> None:
        for obj, attr, value in reversed(self._patched):
            setattr(obj, attr, value)
        self._patched = []

    # -------------------------------------------------------- reporting

    def counters(self) -> tuple[int, int, int]:
        """Deterministic counts so far: solver evaluations, label lookups, pivots."""
        return self.solver_evals, self.count[LABEL], self.count[PIVOT]

    def per_layer(self, op_time: float, outcomes: dict, setup_ms: float,
                  overhead: float) -> dict:
        """Per-layer metrics over every span recorded so far."""
        count, total, selft = self.count, self.total, self.self_time
        evals = self.solver_evals
        lookups = count[LABEL]
        solves = count[SOLVE]

        def per(x, y):
            return x / y if y else 0.0

        return {
            "maps.evals": (float(evals), "count"),
            "maps.us_per_eval": (per(self.map_time, self.map_calls) * 1e6, "us"),
            "maps.share": (per(self.map_time, op_time), "frac"),
            "homotopy.lookups": (float(lookups), "count"),
            "homotopy.lookups_per_eval": (per(lookups, evals), "ratio"),
            "homotopy.label_self_us": (per(selft[LABEL], lookups) * 1e6, "us"),
            "homotopy.cache_hit_frac": (per(self.cache_hits, lookups), "frac"),
            "homotopy.rungs_per_solve": (per(self.rungs, solves), "count"),
            "homotopy.levels_per_solve": (per(self.levels, solves), "count"),
            "homotopy.wasted_eval_frac": (per(self.wasted_evals, evals), "frac"),
            "triangulation.pivots_per_solve": (per(count[PIVOT], solves), "count"),
            "triangulation.walk_self_ms_per_solve":
                (per(total[FIND] - total[LABEL], solves) * 1e3, "ms"),
            "triangulation.subface_exits_per_solve": (per(count[FACET], solves), "count"),
            "triangulation.level_eval_growth":
                (statistics.median(self.growth) if self.growth else 0.0, "ratio"),
            "triangulation.max_m": (float(self.max_m), "count"),
            "dynamics.iterate_ms_per_solve": (per(total[ITERATE], count[ITERATE]) * 1e3, "ms"),
            "dynamics.steps_per_solve": (per(self.trajectory_steps, count[ITERATE]), "count"),
            "maxpreserving.cycle_ms_per_table": (per(total[CYCLE], count[CYCLE]) * 1e3, "ms"),
            "mapspec.parse_ms_per_call": (per(total[PARSE], count[PARSE]) * 1e3, "ms"),
            "cli.overhead_ms_per_call": (per(selft[CLI], count[CLI]) * 1e3, "ms"),
            "linear.setup_ms": (setup_ms, "ms"),
            "outcome.success": (float(outcomes.get("success", 0)), "count"),
            "outcome.label_none": (float(outcomes.get("label_none", 0)), "count"),
            "outcome.iteration_cap": (float(outcomes.get("iteration_cap", 0)), "count"),
            "trace.overhead_frac": (overhead, "ratio"),
        }

    def write(self, path) -> None:
        """Write every span recorded, as flat arrays, to an ``.npz`` file."""
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(
            path,
            names=np.array(NAMES),
            name=np.frombuffer(self.name, dtype=np.uint8),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            op=np.frombuffer(self.op_of, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
        )
