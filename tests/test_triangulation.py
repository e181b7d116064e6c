"""Exact combinatorics of the sphere grid: tiling, pivots, and the walk.

The brute-force enumerator here is the independent oracle: it lists every
cell of the triangulation directly from the definition, which pins down
the cell count, validates pivot reflections, and confirms that the walk's
answer is a genuinely completely-labeled cell.
"""

from itertools import permutations

import numpy as np
import pytest

from decaycert import triangulation
from decaycert.triangulation import (
    CompleteCellSearch,
    attach,
    cell_vertices,
    facet_as_subcell,
    pivot,
)


def compositions(total, k):
    if k == 1:
        yield (total,)
        return
    for c in range(total + 1):
        for rest in compositions(total - c, k - 1):
            yield (c,) + rest


def all_cells(m, n):
    carrier = tuple(range(n))
    for base in compositions(m, n):
        for perm in permutations(range(n - 1)):
            cell = (base, perm, carrier)
            vs = cell_vertices(cell)
            if all(all(c >= 0 for c in v) for v in vs):
                yield cell, vs


class TestCellAlgebra:
    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_grid_is_tiled_by_m_to_the_dim(self, n, m):
        assert sum(1 for _ in all_cells(m, n)) == m ** (n - 1)

    def test_vertices_are_distinct_lattice_points(self):
        for cell, vs in all_cells(3, 4):
            assert len(set(vs)) == 4
            assert all(sum(v) == 3 for v in vs)

    @pytest.mark.parametrize("n,m", [(3, 4), (4, 3), (5, 2)])
    def test_cells_have_unit_lattice_diameter(self, n, m):
        # geometric diameter of any cell is r/m in sup-norm, so mesh
        # halving drives the complete sets of successive levels to a point
        for _, vs in all_cells(m, n):
            arr = np.array(vs)
            for a in range(len(vs)):
                for b in range(len(vs)):
                    assert np.max(np.abs(arr[a] - arr[b])) <= 1

    @pytest.mark.parametrize("n,m", [(2, 3), (3, 2), (4, 2), (5, 1)])
    def test_pivot_is_an_involution(self, n, m):
        for cell, vs in all_cells(m, n):
            for pos in range(n):
                step = pivot(cell, pos)
                if step is None:
                    continue
                neighbour, new_pos = step
                back = pivot(neighbour, new_pos)
                assert back is not None
                assert set(cell_vertices(back[0])) == set(vs)

    @pytest.mark.parametrize("n,m", [(3, 2), (4, 2), (4, 3)])
    def test_pivot_neighbour_shares_facet(self, n, m):
        for cell, vs in all_cells(m, n):
            for pos in range(n):
                step = pivot(cell, pos)
                if step is None:
                    continue
                neighbour, new_pos = step
                nvs = cell_vertices(neighbour)
                shared = set(vs) & set(nvs)
                assert len(shared) == n - 1
                assert set(vs) - shared == {vs[pos]}
                assert set(nvs) - shared == {nvs[new_pos]}

    def test_attach_restores_facet(self):
        # boundary sub-cells of the last-coordinate face extend to a unique cell
        n, m = 4, 3
        carrier = tuple(range(n))
        for base in compositions(m, n - 1):
            for perm in permutations(range(n - 2)):
                sub = (base + (0,), perm, carrier[:-1])
                vs = cell_vertices(sub)
                if not all(all(c >= 0 for c in v) for v in vs):
                    continue
                cell, new_pos = attach(sub, carrier)
                cvs = cell_vertices(cell)
                assert new_pos == 0
                assert set(vs) <= set(cvs)
                assert cvs[0][carrier[-1]] == 1
                # and the facet recovered from the attached cell is the sub-cell
                assert set(cell_vertices(facet_as_subcell(cell, 0))) == set(vs)


class TestWalk:
    def test_finds_complete_cell_under_random_labelings(self):
        rng = np.random.default_rng(7)
        for n in (2, 3, 4):
            cell_oracle = {m: {frozenset(vs) for _, vs in all_cells(m, n)} for m in (1, 2, 3, 4, 5)}
            for m in (1, 2, 3, 4, 5):
                for _ in range(40):
                    memo = {}

                    def label_of(z):
                        if z not in memo:
                            support = [i for i, c in enumerate(z) if c > 0]
                            memo[z] = int(rng.choice(support))
                        return memo[z]

                    found = CompleteCellSearch(m, n, label_of).find()
                    assert sorted(label_of(v) for v in found) == list(range(n))
                    assert frozenset(found) in cell_oracle[m]

    def test_walk_is_deterministic(self):
        def label_of(z):
            # stable pseudo-random labels from the point itself
            support = [i for i, c in enumerate(z) if c > 0]
            return support[hash(z) % len(support)]

        runs = {CompleteCellSearch(4, 3, label_of).find()[0] for _ in range(5)}
        first = [CompleteCellSearch(4, 3, label_of).find() for _ in range(5)]
        assert all(f == first[0] for f in first)
        assert len(runs) == 1

    def test_label_of_runs_once_per_vertex_brought_in(self, monkeypatch):
        """One lookup per successful pivot, per attach, and for the single corner."""
        brought_in = 0

        def counting(fn):
            def wrapper(*args):
                nonlocal brought_in
                out = fn(*args)
                brought_in += out is not None
                return out

            return wrapper

        for name in ("pivot", "attach"):
            monkeypatch.setattr(triangulation, name, counting(getattr(triangulation, name)))
        rng = np.random.default_rng(3)
        for n in (2, 3, 4, 5):
            for m in (1, 3, 8, 16):
                brought_in = 0
                calls = 0
                memo = {}

                def label_of(z):
                    nonlocal calls
                    calls += 1
                    if z not in memo:
                        memo[z] = int(rng.choice([i for i, c in enumerate(z) if c > 0]))
                    return memo[z]

                found = CompleteCellSearch(m, n, label_of).find()
                assert sorted(memo[v] for v in found) == list(range(n))
                assert calls == brought_in + 1

    def test_label_exceptions_propagate(self):
        class Boom(Exception):
            pass

        def label_of(z):
            raise Boom

        with pytest.raises(Boom):
            CompleteCellSearch(2, 3, label_of).find()

    def test_rejects_degenerate_sizes(self):
        with pytest.raises(ValueError):
            CompleteCellSearch(0, 3, lambda z: 0)
        with pytest.raises(ValueError):
            CompleteCellSearch(2, 1, lambda z: 0)
