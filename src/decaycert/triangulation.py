"""Simplicial grid on the 1-norm sphere and the complete-cell search.

Everything here is exact integer combinatorics.  At resolution ``m`` the
sphere of radius r is modelled by lattice points ``z`` with nonnegative
integer components summing to ``m`` (the geometric point is ``z * r/m``).
The standard (Freudenthal/Kuhn-style) triangulation of this grid has
cells described by a base point plus an ordering of the "staircase"
increment vectors

    A[a] = e_{I[a]} - e_{I[a+1]},   a = 0..k-2,

for a face with carrier ``I`` (the sorted coordinate indices allowed to
be nonzero, ``|I| = k``).  A cell is ``(base, perm)``: its vertices are
``base``, then cumulative sums of ``A[perm[0]], A[perm[1]], ...``.
Restricting the carrier to a prefix ``I[:-1]`` drops exactly the last
increment, so the induced triangulation of the sub-face uses the same
algebra one dimension down; mesh halving (m -> 2m) refines the grid.

The search below walks this complex door-in-door-out: doors are facets
whose labels are exactly ``I`` minus its largest element.  A complete
cell (all labels of ``I`` present) has exactly one door, any other cell
with door labels has exactly two, and a door on the boundary of the face
can only lie in the sub-face with the largest carrier element removed
(labels never exceed a point's support).  Those three facts make the
walk a simple alternating path: enter the face from a completely-labeled
sub-face cell, pivot until a complete cell appears or the walk exits at
another sub-face cell, and in the latter case continue the sub-face walk
through the exit to find a fresh entry.  The path cannot revisit a cell
and, by a parity argument, must end at a complete cell of the top face
whenever every visited point has a label.
"""

from __future__ import annotations

from typing import Callable, Sequence

__all__ = [
    "Cell",
    "cell_vertices",
    "pivot",
    "attach",
    "facet_as_subcell",
    "CompleteCellSearch",
    "WalkError",
]

# A cell is (base, perm, carrier): base is an n-tuple of ints summing to m,
# perm a permutation of range(len(carrier)-1), carrier a sorted index tuple.
Cell = tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]

# label_of(z) -> 0-based label int; may raise to abort the whole search.
LabelFn = Callable[[tuple[int, ...]], int]


class WalkError(RuntimeError):
    """Internal inconsistency of the walk; indicates a bug, not bad input."""


def _add_atom(z: tuple[int, ...], carrier: Sequence[int], a: int, sign: int) -> tuple[int, ...]:
    out = list(z)
    out[carrier[a]] += sign
    out[carrier[a + 1]] -= sign
    return tuple(out)


def cell_vertices(cell: Cell) -> list[tuple[int, ...]]:
    base, perm, carrier = cell
    verts = [base]
    for a in perm:
        verts.append(_add_atom(verts[-1], carrier, a, +1))
    return verts


def _vertex(cell: Cell, pos: int) -> tuple[int, ...]:
    """Vertex ``pos`` of the cell, without building the others."""
    base, perm, carrier = cell
    z = list(base)
    for a in perm[:pos]:
        z[carrier[a]] += 1
        z[carrier[a + 1]] -= 1
    return tuple(z)


def _valid(z: tuple[int, ...]) -> bool:
    return all(c >= 0 for c in z)


def pivot(cell: Cell, drop_pos: int) -> tuple[Cell, int] | None:
    """Reflect the cell across the facet opposite vertex ``drop_pos``.

    Returns the neighbouring cell and the position of its new vertex, or
    None when the facet lies on the boundary of the face.
    """
    base, perm, carrier = cell
    k = len(carrier)
    if drop_pos == 0:
        new_vertex = _add_atom(_vertex(cell, k - 1), carrier, perm[0], +1)
        if not _valid(new_vertex):
            return None
        return (_vertex(cell, 1), perm[1:] + (perm[0],), carrier), k - 1
    if drop_pos == k - 1:
        new_vertex = _add_atom(base, carrier, perm[-1], -1)
        if not _valid(new_vertex):
            return None
        return (new_vertex, (perm[-1],) + perm[:-1], carrier), 0
    a = drop_pos
    new_vertex = _add_atom(_vertex(cell, a - 1), carrier, perm[a], +1)
    if not _valid(new_vertex):
        return None
    new_perm = list(perm)
    new_perm[a - 1], new_perm[a] = new_perm[a], new_perm[a - 1]
    return (base, tuple(new_perm), carrier), a


def attach(subcell: Cell, carrier: tuple[int, ...]) -> tuple[Cell, int]:
    """Unique cell of ``carrier``'s face incident to a sub-face boundary cell.

    The sub-face is carrier[:-1]; the attached cell gains one vertex with
    a unit coordinate at carrier[-1], placed first in the vertex chain.
    Returns the cell and the position (0) of that new vertex.
    """
    base, perm, subcarrier = subcell
    if subcarrier != carrier[:-1]:
        raise WalkError(f"cannot attach carrier {subcarrier} under {carrier}")
    k = len(carrier)
    new_base = _add_atom(base, carrier, k - 2, -1)
    if not _valid(new_base):
        raise WalkError(f"attach produced an invalid base {new_base} from {subcell}")
    return (new_base, (k - 2,) + perm, carrier), 0


def facet_as_subcell(cell: Cell, drop_pos: int) -> Cell:
    """Represent a boundary facet (all points zero at carrier[-1]) as a sub-face cell."""
    base, perm, carrier = cell
    k = len(carrier)
    verts = cell_vertices(cell)
    j_star = carrier[-1]
    if drop_pos == 0 and perm[0] == k - 2:
        facet = (verts[1], perm[1:], carrier[:-1])
    elif drop_pos == k - 1 and perm[-1] == k - 2:
        facet = (base, perm[:-1], carrier[:-1])
    else:
        raise WalkError(f"facet opposite position {drop_pos} of {cell} is not on the sub-face")
    if any(v[j_star] != 0 for v in cell_vertices(facet)):
        raise WalkError(f"facet {facet} does not lie in the sub-face of {cell}")
    return facet


class _Exhausted(Exception):
    """No further completely-labeled cells reachable (combinatorially impossible
    while all labels resolve; surfaces as WalkError at the top level)."""


class _FaceSearch:
    """Complete-cell supplier for one face of the triangulation at resolution m.

    Cells travel with the labels of their vertices (in vertex order), so
    each step of the walk looks up only the vertex it brings in.
    """

    def __init__(self, m: int, n: int, carrier: tuple[int, ...], label_of: LabelFn):
        self.m = m
        self.n = n
        self.carrier = carrier
        self.label_of = label_of
        self.sub = _FaceSearch(m, n, carrier[:-1], label_of) if len(carrier) > 1 else None
        self.continuation: tuple[Cell, list[int]] | None = None
        self._corner_served = False

    def _label(self, z: tuple[int, ...]) -> int:
        lab = self.label_of(z)
        if not (0 <= lab < self.n) or z[lab] <= 0:
            raise WalkError(f"label {lab} outside the support of {z}")
        return lab

    def _bring_in(self, cell: Cell, new_pos: int, kept: list[int]) -> list[int]:
        """Labels of ``cell``: the shared facet's ``kept`` plus its new vertex's."""
        kept.insert(new_pos, self._label(_vertex(cell, new_pos)))
        return kept

    def next_complete(self) -> tuple[Cell, list[int]]:
        carrier = self.carrier
        if len(carrier) == 1:
            if self._corner_served:
                raise _Exhausted
            self._corner_served = True
            corner = tuple(self.m if j == carrier[0] else 0 for j in range(self.n))
            lab = self._label(corner)
            if lab != carrier[0]:
                raise WalkError(f"corner {corner} labeled {lab}")
            return (corner, (), carrier), [lab]
        while True:
            if self.continuation is not None:
                # leave a complete cell through its unique door
                (cell, labels), self.continuation = self.continuation, None
                start = self._step(cell, labels, labels.index(carrier[-1]))
            else:
                subcell, sublabels = self.sub.next_complete()
                cell, new_pos = attach(subcell, carrier)
                start = cell, self._bring_in(cell, new_pos, list(sublabels)), new_pos
            if start is not None:
                complete = self._walk(*start)
                if complete is not None:
                    return complete

    def _step(self, cell: Cell, labels: list[int],
              drop_pos: int) -> tuple[Cell, list[int], int] | None:
        """Pivot across the facet opposite vertex ``drop_pos``.

        Returns the neighbouring cell, its labels and the position of its
        new vertex, or None after handing the facet to the sub-face when
        it lies on the boundary.
        """
        step = pivot(cell, drop_pos)
        kept = labels[:drop_pos] + labels[drop_pos + 1:]
        if step is None:
            self.sub.continuation = facet_as_subcell(cell, drop_pos), kept
            return None
        cell, new_pos = step
        return cell, self._bring_in(cell, new_pos, kept), new_pos

    def _walk(self, cell: Cell, labels: list[int],
              new_pos: int) -> tuple[Cell, list[int]] | None:
        """Pivot to a complete cell (returned with its labels) or out to the sub-face (None)."""
        carrier_set = set(self.carrier)
        seen: set[tuple] = set()
        while True:
            key = (cell[0], cell[1])
            if key in seen:
                raise WalkError(f"walk revisited cell {cell}")
            seen.add(key)
            if set(labels) == carrier_set:
                return cell, labels
            dup = labels[new_pos]
            others = [p for p, lab in enumerate(labels) if lab == dup and p != new_pos]
            if len(others) != 1:
                raise WalkError(f"expected one duplicate of label {dup} in {labels}")
            step = self._step(cell, labels, others[0])
            if step is None:
                return None
            cell, labels, new_pos = step


class CompleteCellSearch:
    """Find a completely-labeled top-dimensional cell at resolution ``m``.

    ``label_of`` is called once per vertex that a pivot or an attach to a
    sub-face cell brings in, and once per corner; a point the walk meets
    again in a later cell is looked up again, so callers memoize the
    underlying evaluations.  It may raise to abort the search, e.g. on an
    unlabelable point or an evaluation cap.
    """

    def __init__(self, m: int, n: int, label_of: LabelFn):
        if m < 1 or n < 2:
            raise ValueError(f"need m >= 1 and n >= 2, got m={m}, n={n}")
        self.n = n
        self._top = _FaceSearch(m, n, tuple(range(n)), label_of)

    def find(self) -> list[tuple[int, ...]]:
        """Vertices of the first completely-labeled cell of the sphere grid."""
        try:
            cell, _ = self._top.next_complete()
        except _Exhausted as exc:  # pragma: no cover - combinatorially unreachable
            raise WalkError("complete-cell search exhausted the complex") from exc
        return cell_vertices(cell)
