"""Simplicial grid on the 1-norm sphere and the complete-cell search.

Everything here is exact integer combinatorics.  At resolution ``m`` the
sphere of radius r is modelled by lattice points ``z`` with nonnegative
integer components summing to ``m`` (the geometric point is ``z * r/m``).
The grid has nested faces: face ``k`` holds the points whose nonzero
components lie among the first ``k`` coordinates, so face 1 is the corner
``m e_0`` and face ``n`` is the whole sphere.  The standard
(Freudenthal/Kuhn-style) triangulation of face ``k`` has cells described
by a base point plus an ordering of the "staircase" increment vectors

    A[a] = e_a - e_{a+1},   a = 0..k-2.

A cell is ``(base, perm)``: its vertices are ``base``, then cumulative
sums of ``A[perm[0]], A[perm[1]], ...``, and its face is
``k = len(perm) + 1``.  Dropping the last increment ``A[k-2]`` gives the
induced triangulation of face ``k-1``, so every face uses the same
algebra one dimension down; mesh halving (m -> 2m) refines the grid.

The search below walks this complex door-in-door-out: the doors of face
``k`` are facets labeled exactly ``0..k-2``.  A cell complete in face
``k`` (labels ``0..k-1``) has exactly one door, any other cell with door
labels has exactly two, and a door on the boundary of face ``k`` lies in
face ``k-1`` (labels never exceed a point's support).  Those three facts
make the walk one path through the nested faces: a cell complete in face
``k`` attaches to its unique cell of face ``k+1``, and the walk there
pivots until a cell complete in face ``k+1`` appears or a pivot meets the
boundary.  The boundary facet is then a cell complete in face ``k``, and
the path leaves it through its own door.  The path cannot revisit a cell
and, by a parity argument, must end at a complete cell of face ``n``
whenever every visited point has a label.
"""

from __future__ import annotations

from typing import Callable

from .order import check_count

__all__ = [
    "Cell",
    "cell_vertices",
    "pivot",
    "attach",
    "facet_as_subcell",
    "CompleteCellSearch",
    "WalkError",
]

# A cell is (base, perm): base is an n-tuple of ints summing to m, perm a
# permutation of range(k-1) for the cell's face k.
Cell = tuple[tuple[int, ...], tuple[int, ...]]

# label_of(z) -> 0-based label int; may raise to abort the whole search.
LabelFn = Callable[[tuple[int, ...]], int]


class WalkError(RuntimeError):
    """Internal inconsistency of the walk; indicates a bug, not bad input."""


def _add_atom(z: tuple[int, ...], a: int, sign: int) -> tuple[int, ...]:
    out = list(z)
    out[a] += sign
    out[a + 1] -= sign
    return tuple(out)


def cell_vertices(cell: Cell) -> list[tuple[int, ...]]:
    return [_vertex(cell, pos) for pos in range(len(cell[1]) + 1)]


def _vertex(cell: Cell, pos: int) -> tuple[int, ...]:
    """Vertex ``pos`` of the cell, without building the others."""
    base, perm = cell
    z = list(base)
    for a in perm[:pos]:
        z[a] += 1
        z[a + 1] -= 1
    return tuple(z)


def _valid(z: tuple[int, ...]) -> bool:
    return all(c >= 0 for c in z)


def pivot(cell: Cell, drop_pos: int) -> tuple[Cell, int] | None:
    """Reflect the cell across the facet opposite vertex ``drop_pos``.

    Returns the neighbouring cell and the position of its new vertex, or
    None when the facet lies on the boundary of the face.
    """
    base, perm = cell
    k = len(perm) + 1
    if drop_pos == 0:
        neighbour, new_pos = (_vertex(cell, 1), perm[1:] + perm[:1]), k - 1
    elif drop_pos == k - 1:
        neighbour, new_pos = (_add_atom(base, perm[-1], -1), perm[-1:] + perm[:-1]), 0
    else:
        a = drop_pos
        neighbour, new_pos = (base, perm[:a - 1] + (perm[a], perm[a - 1]) + perm[a + 1:]), a
    return (neighbour, new_pos) if _valid(_vertex(neighbour, new_pos)) else None


def attach(subcell: Cell) -> tuple[Cell, int]:
    """Unique cell of face ``k`` incident to a boundary cell of face ``k-1``.

    The attached cell gains one vertex with a unit coordinate at ``k-1``,
    placed first in the vertex chain.  Returns the cell and the position
    (0) of that new vertex.
    """
    base, perm = subcell
    k = len(perm) + 2
    new_base = _add_atom(base, k - 2, -1)
    if not _valid(new_base):
        raise WalkError(f"attach produced an invalid base {new_base} from {subcell}")
    return (new_base, (k - 2,) + perm), 0


def facet_as_subcell(cell: Cell, drop_pos: int) -> Cell:
    """Represent a boundary facet of face ``k`` (zero at ``k-1``) as a cell of face ``k-1``."""
    _, perm = cell
    k = len(perm) + 1
    # coordinate k-1 drops only at step k-2: just the facet opposite vertex 0 can be zero there
    if drop_pos != 0 or perm[0] != k - 2:
        raise WalkError(f"facet opposite position {drop_pos} of {cell} is not on the sub-face")
    facet = (_vertex(cell, 1), perm[1:])
    if any(v[k - 1] != 0 for v in cell_vertices(facet)):
        raise WalkError(f"facet {facet} does not lie in the sub-face of {cell}")
    return facet


class CompleteCellSearch:
    """Find a completely-labeled top-dimensional cell at resolution ``m``.

    ``find`` is one loop over the face dimension ``k``, from the corner
    (face 1) to the sphere (face ``n``): a cell complete in face ``k``
    goes through ``attach`` into face ``k+1``, and a pivot with no
    neighbour goes through ``facet_as_subcell`` to a cell complete in face
    ``k-1``, which the walk leaves through its door.  Falling back to face
    1, or revisiting a cell within one face, raises :class:`WalkError`.

    Cells travel with the labels of their vertices (in vertex order), so
    ``label_of`` is called once per vertex that a pivot or an attach
    brings in, and once for the corner; a point the walk meets again in a
    later cell is looked up again, so callers memoize the underlying
    evaluations.  It may raise to abort the search, e.g. on an
    unlabelable point or an evaluation cap.
    """

    def __init__(self, m: int, n: int, label_of: LabelFn):
        check_count("resolution m", m)
        check_count("dimension n", n, least=2)
        self.m = m
        self.n = n
        self.label_of = label_of

    def _label(self, z: tuple[int, ...]) -> int:
        lab = self.label_of(z)
        if not (0 <= lab < self.n) or z[lab] <= 0:
            raise WalkError(f"label {lab} outside the support of {z}")
        return lab

    def find(self) -> list[tuple[int, ...]]:
        """Vertices of the first completely-labeled cell of the sphere grid."""
        corner = (self.m,) + (0,) * (self.n - 1)
        labels = [self._label(corner)]  # 0, the corner's support
        k, cell = 1, (corner, ())
        seen: set[Cell] = set()  # cells of the current face segment
        while True:
            # labels lie in their points' supports, so within range(k)
            if len(set(labels)) == k:
                if k == self.n:
                    return cell_vertices(cell)
                cell, new_pos = attach(cell)
                k += 1
                seen = set()
            else:
                dup = labels[new_pos]
                others = [p for p, lab in enumerate(labels) if lab == dup and p != new_pos]
                if len(others) != 1:
                    raise WalkError(f"expected one duplicate of label {dup} in {labels}")
                drop = others[0]
                step = pivot(cell, drop)
                while step is None:
                    # the boundary facet is complete in face k-1: leave it through its door
                    cell = facet_as_subcell(cell, drop)
                    del labels[drop]
                    k -= 1
                    seen = set()
                    if k == 1:
                        raise WalkError("complete-cell search exhausted the complex")
                    drop = labels.index(k - 1)
                    step = pivot(cell, drop)
                cell, new_pos = step
                del labels[drop]
            labels.insert(new_pos, self._label(_vertex(cell, new_pos)))
            if cell in seen:
                raise WalkError(f"walk revisited cell {cell}")
            seen.add(cell)
