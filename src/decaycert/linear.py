"""Linear-case toolkit: spectral radius, dominant direction, series inverse.

For a nonnegative matrix the following are equivalent: the solver finds
decay points on every sphere, the spectral radius is below one, the
geometric series sum of powers converges to the inverse of (I - A), and
the dominant eigendirection scaled to the sphere is itself a decay
witness.  The routines here provide the three non-solver sides of that
equivalence, the exact best margin ``eps_max`` that tests hold the
solver to, plus the seeded random generator used by the benchmark
sweeps.  Spectral quantities come from NumPy's dense eigensolver
(LAPACK ``dgeev``); the tests check them against matrices whose radius
and Perron vector are known in closed form.
"""

from __future__ import annotations

import numpy as np

from .order import check_count, check_positive

__all__ = [
    "spectral_radius",
    "random_contractive",
    "neumann_inverse",
    "perron_direction",
    "eps_max",
    "as_nonnegative_matrix",
]


def as_nonnegative_matrix(A) -> np.ndarray:
    """Float copy of ``A``; ValueError unless it is square, finite, with no negative entry.

    A bool or a string is no entry, though numpy would convert it.
    """
    if not (isinstance(A, np.ndarray) and A.dtype.kind in "iuf"):
        for index, entry in np.ndenumerate(np.array(A, dtype=object)):
            if isinstance(entry, (bool, np.bool_, str, bytes)):
                where = ",".join(str(k + 1) for k in index)
                raise ValueError(f"matrix entry at ({where}) is not a number: {entry!r}")
    A = np.array(A, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {A.shape}")
    valid = (A >= 0.0) & (A < np.inf)  # false on negative and non-finite entries
    if not valid.all():
        i, j = np.argwhere(~valid)[0]
        what = "negative" if A[i, j] < 0.0 else "non-finite"
        raise ValueError(f"{what} entry at ({i + 1},{j + 1}): {A[i, j]}")
    return A


def spectral_radius(A) -> float:
    """Largest eigenvalue modulus of a nonnegative matrix (inf if it overflows)."""
    return float(np.max(np.abs(np.linalg.eigvals(as_nonnegative_matrix(A)))))


def random_contractive(n: int, rho_target: float, seed: int) -> np.ndarray:
    """Seeded uniform-[0,1) matrix rescaled to the requested spectral radius.

    Deterministic for fixed ``(n, rho_target, seed)``; the generator is
    NumPy's default PCG64 stream.
    """
    check_count("n", n)
    check_positive("rho_target", rho_target)
    check_count("seed", seed, least=0)
    A = np.random.default_rng(seed).random((n, n))
    rho = spectral_radius(A)
    if rho == 0.0:
        raise ValueError(f"seed {seed} drew a matrix with spectral radius 0")
    out = A * (rho_target / rho)
    out.flags.writeable = False
    return out


def neumann_inverse(A, tol: float = 1e-10) -> np.ndarray:
    """Sum the geometric matrix series for ``(I - A)^{-1}`` by doubling.

    From ``S = I`` and ``P = A`` each step doubles the number of terms:
    ``S <- S + P S``, then ``P <- P P``, so that ``(I - A) S = I - P``.  It
    stops once ``max P < tol``.  Requires spectral radius at most
    ``1 - 1e-6`` (checked; ValueError otherwise): in that range the result
    M satisfies ``|(I - A) M - I|_max < 10 * tol`` for ``tol >= 1e-10``, the
    default.  Closer to one the rounding of the sum, which grows like
    ``1/(1 - rho)``, passes that bound.
    """
    check_positive("tol", tol)
    A = as_nonnegative_matrix(A)
    rho = spectral_radius(A)
    if not rho <= 1.0 - 1e-6:  # also an overflowing (inf or NaN) radius
        raise ValueError(f"spectral radius {rho:.9f} above 1 - 1e-6: the series diverges "
                         "or its sum is not accurate to 10 * tol")
    total, power = np.eye(A.shape[0]), A
    while True:
        top = float(np.max(power))
        if not (np.isfinite(top) and np.isfinite(total).all()):
            raise ValueError("the series overflows in floating point")
        if top < tol:
            return total
        with np.errstate(over="ignore", invalid="ignore"):  # named by the check above
            total = total + power @ total
            power = power @ power


def perron_direction(A) -> np.ndarray:
    """Dominant nonnegative eigendirection, normalized to 1-norm one.

    For ``A >= 0`` the eigenvalue with the largest real part is the
    spectral radius rho (Perron-Frobenius); its eigenvector, taken in
    absolute value, must reproduce ``A v = rho v`` to ``1e-8 * max(1, rho)``
    in sup-norm.  A defective rho can come out of the eigensolver as a
    complex pair whose eigenvector misses that bound; then the right
    singular vector of ``A - rho I`` for its smallest singular value, taken
    in absolute value, is checked instead.  ValueError if it misses the
    bound too (possible for a reducible matrix whose dominant eigenvector
    mixes signs).  For contractive A, scaling v to the sphere of radius r
    gives a decay witness with margin ``(1 - rho) * r * min(v)``.
    """
    A = as_nonnegative_matrix(A)
    w, vecs = np.linalg.eig(A)
    k = int(np.argmax(w.real))
    rho = float(w[k].real)
    bound = 1e-8 * max(1.0, rho)

    def unit_residual(x: np.ndarray) -> tuple[np.ndarray, float]:
        v = np.abs(x)
        v /= v.sum()
        return v, float(np.max(np.abs(A @ v - rho * v)))

    v, residual = unit_residual(vecs[:, k])
    if not residual <= bound:
        v, residual = unit_residual(np.linalg.svd(A - rho * np.eye(len(A)))[2][-1])
    if not residual <= bound:  # also rejects a NaN residual
        raise ValueError(f"dominant direction residual {residual:.2e} exceeds 1e-8 * max(1, rho)")
    v.flags.writeable = False
    return v


def eps_max(A, r: float) -> float:
    """Best decay margin of ``s -> A s`` on the sphere of radius r: ``r / 1'(I - A)^-1 1``.

    The optimum is attained at ``s ~ (I - A)^-1 1``, whose margin is the
    same in every component.  0 when the spectral radius is not below one:
    then no point of the sphere decays.
    """
    check_positive("r", r)
    A = as_nonnegative_matrix(A)
    if not spectral_radius(A) < 1.0:  # also an overflowing (inf or NaN) radius
        return 0.0
    n = A.shape[0]
    return r / float(np.sum(np.linalg.solve(np.eye(n) - A, np.ones(n))))
