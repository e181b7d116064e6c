"""Linear-case toolkit: spectral radius, dominant direction, series inverse.

For a nonnegative matrix the following are equivalent: the solver finds
decay points on every sphere, the spectral radius is below one, the
geometric series sum of powers converges to the inverse of (I - A), and
the dominant eigendirection scaled to the sphere is itself a decay
witness.  The routines here provide the three non-solver sides of that
equivalence, plus the seeded random generator used by the benchmark
sweeps.  Spectral quantities come from power iteration (with a small
diagonal shift as fallback for periodic structure), not from a general
eigensolver; the test suite cross-checks against one.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "spectral_radius",
    "random_contractive",
    "neumann_inverse",
    "perron_direction",
    "as_nonnegative_matrix",
    "PowerIterationError",
]

_POWER_CAP = 100_000
_SHIFT = 1e-3


class PowerIterationError(RuntimeError):
    """Power iteration failed to settle (reducible or periodic structure)."""


def as_nonnegative_matrix(A) -> np.ndarray:
    """Float copy of ``A``; ValueError unless it is square, finite, with no negative entry."""
    A = np.array(A, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {A.shape}")
    valid = (A >= 0.0) & (A < np.inf)  # false on negative and non-finite entries
    if not valid.all():
        i, j = np.argwhere(~valid)[0]
        what = "negative" if A[i, j] < 0.0 else "non-finite"
        raise ValueError(f"{what} entry at ({i + 1},{j + 1}): {A[i, j]}")
    return A


def _power(A: np.ndarray, tol: float) -> tuple[float, np.ndarray] | None:
    """One power-iteration run; None when the Rayleigh quotient never settles."""
    n = A.shape[0]
    x = np.full(n, 1.0 / n)
    rho = np.inf
    for _ in range(_POWER_CAP):
        y = A @ x
        total = float(y.sum())
        if total == 0.0:
            # the positive cone is annihilated after finitely many steps
            return 0.0, x
        rho_new = float(x @ y) / float(x @ x)
        x = y / total
        if abs(rho_new - rho) <= tol * max(abs(rho_new), 1e-30):
            return rho_new, x
        rho = rho_new
    return None


def spectral_radius(A, tol: float = 1e-10) -> float:
    """Spectral radius of a nonnegative matrix by power iteration.

    Starts from the uniform positive vector; if the Rayleigh quotient
    fails to settle or settles with a bad residual (periodic structure),
    retries on ``A + shift*I`` and subtracts the shift.
    """
    if tol <= 0.0:
        raise ValueError(f"tol must be positive, got {tol}")
    A = as_nonnegative_matrix(A)
    result = _power(A, tol)
    if result is not None:
        rho, x = result
        residual = float(np.max(np.abs(A @ x - rho * x)))
        if residual <= 1e-6 * max(1.0, rho):
            return rho
    shifted = _power(A + _SHIFT * np.eye(A.shape[0]), tol)
    if shifted is None:
        raise PowerIterationError("power iteration did not converge, even with shift")
    return max(shifted[0] - _SHIFT, 0.0)


def random_contractive(n: int, rho_target: float, seed: int) -> np.ndarray:
    """Seeded uniform-[0,1) matrix rescaled to the requested spectral radius.

    Deterministic for fixed ``(n, rho_target, seed)``; the generator is
    NumPy's default PCG64 stream.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if rho_target <= 0.0:
        raise ValueError(f"rho_target must be positive, got {rho_target}")
    rng = np.random.default_rng(seed)
    for _ in range(8):
        A = rng.random((n, n))
        rho = spectral_radius(A, tol=1e-12)
        if rho > 0.0:
            out = A * (rho_target / rho)
            out.flags.writeable = False
            return out
    raise PowerIterationError("random draw with zero spectral radius eight times in a row")


def neumann_inverse(A, tol: float = 1e-10) -> np.ndarray:
    """Sum the geometric matrix series for ``(I - A)^{-1}``.

    Requires spectral radius below one (checked; ValueError otherwise).
    Partial sums stop once the current power has max-entry below ``tol``;
    the result M then satisfies ``|(I - A) M - I|_max < 10 * tol``.
    """
    if tol <= 0.0:
        raise ValueError(f"tol must be positive, got {tol}")
    A = as_nonnegative_matrix(A)
    rho = spectral_radius(A, tol=1e-10)
    # reject at the estimator's own accuracy; radii within 1e-9 of one are
    # indistinguishable from divergent and would need ~1e9 terms anyway
    if rho >= 1.0 - 1e-9:
        raise ValueError(f"spectral radius {rho:.9f} >= 1 detected; series diverges")
    n = A.shape[0]
    total = np.eye(n)
    term = np.eye(n)
    for _ in range(_POWER_CAP):
        term = term @ A
        total += term
        increment = float(np.max(np.abs(term)))
        if increment < tol:
            return total
        if not np.isfinite(increment):
            raise ValueError("spectral radius >= 1 detected; series diverges")
    raise ValueError(f"series did not reach increment {tol} (spectral radius {rho:.6f})")


def perron_direction(A, tol: float = 1e-12) -> np.ndarray:
    """Dominant nonnegative eigendirection, normalized to 1-norm one.

    Power iteration runs on the shifted matrix ``A + shift*I`` (same
    eigenvectors, spectrum moved off periodicity) and the result must
    reproduce ``A v = rho v`` to 1e-8 in sup-norm, else an error is
    raised.  For contractive A, scaling v to the sphere of radius r gives
    a decay witness with margin ``(1 - rho) * r * min(v)``.
    """
    A = as_nonnegative_matrix(A)
    n = A.shape[0]
    M = A + _SHIFT * np.eye(n)
    x = np.full(n, 1.0 / n)
    for _ in range(_POWER_CAP):
        y = M @ x
        total = float(y.sum())
        if total == 0.0:
            raise PowerIterationError("matrix annihilates the positive cone")
        y /= total
        if float(np.max(np.abs(y - x))) <= tol:
            x = y
            break
        x = y
    rho = spectral_radius(A, tol=1e-12)
    residual = float(np.max(np.abs(A @ x - rho * x)))
    if residual > 1e-8:
        raise PowerIterationError(
            f"dominant direction residual {residual:.2e} exceeds 1e-8 "
            "(matrix too reducible or periodic)"
        )
    x.flags.writeable = False
    return x
