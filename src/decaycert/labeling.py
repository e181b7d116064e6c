"""Integer labeling of sphere points, and labeled vertex sets with their complete subsets.

A point ``s`` gets the largest index ``i`` such that ``s_i - (Ts)_i >= eps``,
the same floating-point difference that the certificate ``min(s - Ts) >= eps``
reads, so a point certifies exactly when every component carries a label
at ``eps``, and a point with ``Ts >= s`` has no label at any ``eps``.
The slack ``eps`` is the one documented robustness parameter of the whole
method.
``None`` means no index qualifies; during a homotopy run that is treated
as a hard failure of the covering hypothesis at the current slack.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .maps import MonotoneMap
from .order import as_point, check_count, check_positive

__all__ = [
    "label_index",
    "label_eps",
    "omega_membership",
    "LabeledVertexSet",
    "complete_subsets",
]


def label_index(s: np.ndarray, Ts: np.ndarray, slack: float) -> int | None:
    """The labeling rule: largest i (0-based) with ``s[i] - Ts[i] >= slack``, or None.

    Inputs are not validated; the solver calls this on every label lookup.
    """
    qualifying = np.where(s - Ts >= slack)[0]
    if qualifying.size == 0:
        return None
    return int(qualifying[-1])


def label_eps(T: MonotoneMap, s, eps: float) -> int | None:
    """Label of ``s``: largest index i (1-based) with ``s_i - (Ts)_i >= eps``.

    Returns None when no index qualifies.
    """
    check_positive("eps", eps)
    s = as_point(s, dim=T.dimension)
    label = label_index(s, T(s), eps)
    return None if label is None else label + 1


def omega_membership(T: MonotoneMap, s) -> set[int]:
    """Indices i (1-based) with ``(Ts)_i < s_i`` (the slack-free covering sets)."""
    s = as_point(s, dim=T.dimension)
    Ts = T(s)
    return {int(i) + 1 for i in np.where(Ts < s)[0]}


@dataclass(frozen=True, eq=False)
class LabeledVertexSet:
    """A set of distinct vertices with parallel integer labels, checked once and then frozen.

    Labels are 1-based indices (ints >= 1, a bool is not one) or None for
    unlabelable vertices.
    Vertices must be pairwise distinct (exact comparison).  Both sequences
    are kept as tuples, and each vertex is a read-only point.
    """

    vertices: tuple[np.ndarray, ...]
    labels: tuple[int | None, ...]

    def __post_init__(self):
        object.__setattr__(self, "vertices", tuple(as_point(v) for v in self.vertices))
        object.__setattr__(self, "labels", tuple(self.labels))
        if len(self.labels) != len(self.vertices):
            raise ValueError(f"{len(self.labels)} labels for {len(self.vertices)} vertices")
        for a, label in enumerate(self.labels):
            if label is not None:
                check_count(f"label at position {a}", label)
        for a in range(len(self.vertices)):
            for b in range(a + 1, len(self.vertices)):
                if np.array_equal(self.vertices[a], self.vertices[b]):
                    raise ValueError(f"duplicate vertices at positions {a} and {b}")

    def __len__(self) -> int:
        return len(self.vertices)


def complete_subsets(tau: LabeledVertexSet, n: int) -> list[LabeledVertexSet]:
    """All complete n-vertex subsets of an (n+1)-vertex set.

    A subset is complete when it carries each label 1..n exactly once.
    When every label is in 1..n, the door-in-door-out principle gives a
    result of length 0 or 2 (the test suite checks this exhaustively over
    all label assignments); a None label can leave one complete subset.
    """
    check_count("n", n)
    if len(tau) != n + 1:
        raise ValueError(f"expected {n + 1} vertices, got {len(tau)}")
    out = []
    for drop in range(n + 1):
        labels = tau.labels[:drop] + tau.labels[drop + 1:]
        if None not in labels and sorted(labels) == list(range(1, n + 1)):  # at most two drops
            out.append(LabeledVertexSet(tau.vertices[:drop] + tau.vertices[drop + 1:], labels))
    return out
