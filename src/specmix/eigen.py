"""Symmetric and generalized eigensolvers for the spectral relaxation.

Every solve runs Lanczos with full reorthogonalization on a matrix-vector
product, whatever the size of the problem and whether it comes as a matrix
or as an operator. One Krylov sequence sees a single copy of a repeated
eigenvalue (disconnected or nearly disconnected graphs repeat mu = 0), so a
second run in the complement of the pairs found checks for missing copies.
``method="dense"`` runs a full LAPACK decomposition instead; it is kept as
the oracle that tests compare the Lanczos path against. The generalized
problem L v = mu D v is reduced to the symmetric problem on
D^{-1/2} L D^{-1/2} and mapped back, so returned generalized eigenvectors
are D-orthonormal.

Returned vectors follow a sign convention (largest-magnitude entry positive)
that makes repeated solves bitwise comparable outside of degenerate
eigenspaces. Solves are pure; concurrent independent solves are safe.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.linalg import eigh_tridiagonal

from .errors import ConfigError, ConvergenceError

_RESIDUAL_TOL = 1e-8
_SYM_TOL = 1e-10
_LANCZOS_TOL = 1e-10  # Ritz residual estimate, relative to the spectrum's scale
_CHECK_EVERY = 10  # Lanczos steps between convergence checks


@dataclass(frozen=True)
class EigenPairs:
    """Eigenvalues in ascending order, matching eigenvectors as columns,
    and the per-pair residual norms reported by the solver."""

    values: np.ndarray
    vectors: np.ndarray
    residuals: np.ndarray


class SymmetricOperator:
    """Matrix-free symmetric linear map: a matvec callable, which takes a
    vector or a block of column vectors, plus the dimension."""

    def __init__(self, matvec: Callable[[np.ndarray], np.ndarray], dim: int):
        self.matvec = matvec
        self.dim = dim


def _fix_signs(vectors: np.ndarray) -> np.ndarray:
    """Flip each column, in place, so that its largest-magnitude entry is
    positive.

    One whole-array product: on numpy 2.4.6 an in-place ``np.negative`` on a
    column view of a wide array writes to the wrong elements.
    """
    cols = np.arange(vectors.shape[1])
    peaks = vectors[np.argmax(np.abs(vectors), axis=0), cols]
    vectors *= np.where(peaks < 0.0, -1.0, 1.0)
    return vectors


def _as_operator(a):
    """Normalize to (matvec, dim, dense), where ``dense`` materializes the
    matrix and is None for an operator that cannot."""
    if hasattr(a, "matvec") and hasattr(a, "dim"):
        return a.matvec, a.dim, getattr(a, "dense", None)
    arr = np.asarray(a, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ConfigError("expected a square matrix or an object exposing "
                          "matvec and dim")
    if not np.isfinite(arr).all():
        raise ConfigError("matrix has non-finite entries")
    err = np.abs(arr - arr.T).max(initial=0.0)
    if err > _SYM_TOL * max(1.0, np.abs(arr).max(initial=0.0)):
        raise ConfigError(f"matrix is not symmetric (max asymmetry {err:.3g})")
    return (lambda x: arr @ x), arr.shape[0], (lambda: arr)


def _smallest(matvec, dim: int, k: int, method: str, seed: int, dense):
    """K smallest pairs of one symmetric problem: Lanczos on ``matvec``, or
    for the dense oracle a full decomposition of ``dense()``."""
    if method == "lanczos":
        return _lanczos_smallest(matvec, dim, k, seed=seed)
    if method != "dense":
        raise ConfigError(f"unknown eigensolver method {method!r}")
    if dense is None:
        raise ConfigError("dense solve requires a materializable matrix")
    values, vectors = np.linalg.eigh(dense())
    return values[:k].copy(), vectors[:, :k].copy()


def _residual_norms(product, vectors, values) -> np.ndarray:
    """The k residual norms of a solve from one block ``product``."""
    return np.linalg.norm(product - vectors * values, axis=0)


def _lanczos_smallest(matvec, dim: int, k: int, seed: int):
    """K algebraically smallest eigenpairs via Lanczos with locking.

    One Krylov sequence holds only one copy of a repeated eigenvalue, so the
    k pairs of the first run are checked by a second run in their orthogonal
    complement. A pair found there below the k-th value is a missing copy: it
    replaces the k-th pair, and the check repeats.
    """
    rng = np.random.default_rng(seed)
    values, vectors = _lanczos_run(matvec, dim, k, rng, np.empty((dim, 0)))
    while k < dim:
        missing = _lanczos_run(matvec, dim, 1, rng, vectors, floor=values[-1])
        if missing is None:
            break
        at = int(np.searchsorted(values, missing[0][0]))
        values = np.insert(values[:-1], at, missing[0][0])
        vectors = np.insert(vectors[:, :-1], at, missing[1][:, 0], axis=1)
    return values, vectors


def _lanczos_run(matvec, dim: int, k: int, rng, lock: np.ndarray,
                 floor: float | None = None):
    """K smallest Ritz pairs of one Lanczos iteration, with full
    reorthogonalization, in the orthogonal complement of the orthonormal
    columns of ``lock``.

    With a ``floor`` (and k = 1) the run looks for a pair below it, and
    returns None once its smallest Ritz pair has converged at or above the
    floor. A breakdown (beta near zero) means the basis spans an invariant
    subspace: its Ritz values are exact, and the iteration goes on from a
    random vector orthogonal to it. Once the basis fills the complement the
    result is exact.
    """
    off = lock.shape[1]  # the locked columns lead the basis
    basis = np.empty((dim, min(dim, off + max(4 * k, 128))))
    basis[:, :off] = lock
    alphas, betas = np.empty(dim - off), np.empty(dim - off)

    def orthogonalize(x, m):  # against the lock and the first m Lanczos vectors
        for _ in range(2):  # full reorthogonalization, twice for safety
            x -= basis[:, :off + m] @ (basis[:, :off + m].T @ x)
        return x

    def expand(q, m):  # the product's component past q, with alpha_m
        r = matvec(q)
        alphas[m] = q @ r
        if not np.isfinite(alphas[m]):  # q @ r is non-finite whenever r is
            raise ConfigError("operator product has non-finite entries")
        return r - alphas[m] * q

    q = orthogonalize(rng.standard_normal(dim), 0)
    q /= np.linalg.norm(q)
    basis[:, off] = q
    r = expand(q, 0)

    m = 1
    while off + m < dim:
        r = orthogonalize(r, m)
        beta = float(np.linalg.norm(r))
        breakdown = beta <= _LANCZOS_TOL * max(1.0, float(np.abs(alphas[:m]).max()))

        if m >= k and (m % _CHECK_EVERY == 0 or breakdown):
            theta, s = eigh_tridiagonal(alphas[:m], betas[:m - 1], select="i",
                                        select_range=(0, k - 1))
            top = eigh_tridiagonal(alphas[:m], betas[:m - 1], eigvals_only=True,
                                   select="i", select_range=(m - 1, m - 1))
            scale = max(1.0, abs(float(theta[0])), abs(float(top[0])))
            if np.all(beta * np.abs(s[m - 1, :k]) <= _LANCZOS_TOL * scale):
                if floor is not None and theta[0] >= floor - _LANCZOS_TOL * scale:
                    return None
                vectors = basis[:, off:off + m] @ s[:, :k]
                residuals = _residual_norms(matvec(vectors), vectors, theta[:k])
                if (residuals <= _RESIDUAL_TOL * scale).all():
                    return theta[:k], vectors
        if off + m == basis.shape[1]:
            grown = min(dim, 2 * (off + m))
            basis = np.concatenate([basis, np.empty((dim, grown - off - m))], axis=1)

        if breakdown:  # go on from a fresh direction, decoupled from the basis
            r, beta = orthogonalize(rng.standard_normal(dim), m), 0.0
        basis[:, off + m] = r / (beta or np.linalg.norm(r))
        betas[m - 1] = beta
        q = basis[:, off + m]
        r = expand(q, m) - beta * basis[:, off + m - 1]
        m += 1

    theta, s = eigh_tridiagonal(alphas[:m], betas[:m - 1])
    if floor is not None and theta[0] >= floor - _LANCZOS_TOL * max(1.0, abs(float(theta[0]))):
        return None
    return theta[:k], basis[:, off:off + m] @ s[:, :k]


def symmetric_smallest_eigs(a, k: int, method: str = "lanczos",
                            seed: int = 0) -> EigenPairs:
    """K algebraically smallest eigenpairs of a symmetric matrix or operator.

    ``method`` is "lanczos" or "dense", the full-decomposition oracle for
    matrices. Eigenvectors are orthonormal.
    """
    matvec, dim, dense = _as_operator(a)
    if not 1 <= k <= dim:
        raise ConfigError(f"k must lie in [1, {dim}], got {k}")
    values, vectors = _smallest(matvec, dim, k, method, seed, dense)
    vectors = _fix_signs(vectors)
    return EigenPairs(values, vectors, _residual_norms(matvec(vectors), vectors, values))


def generalized_smallest_eigs(weights, degrees, k: int, method: str = "lanczos",
                              seed: int = 0) -> EigenPairs:
    """K smallest eigenpairs of L v = mu D v with L = D - W.

    ``weights`` is a dense symmetric matrix or an object with ``matvec``,
    ``dim`` and, for ``method="dense"``, ``dense()`` (the augmented graph
    qualifies). Solved through the symmetric reduction D^{-1/2} L D^{-1/2};
    eigenvalues lie in [0, 2] and eigenvectors are D-orthonormal. The
    eigenvalue 0 appears once per connected component, and its eigenvectors
    span the components' indicator vectors.
    """
    degrees = np.asarray(degrees, dtype=np.float64)
    bad = np.flatnonzero(~(np.isfinite(degrees) & (degrees > 0.0)))
    if bad.size:
        raise ConfigError(f"node {int(bad[0])} has nonpositive or non-finite degree")
    w_matvec, dim, w_dense = _as_operator(weights)
    if degrees.shape != (dim,):
        raise ConfigError("degree vector length does not match graph dimension")
    if not 1 <= k <= dim:
        raise ConfigError(f"k must lie in [1, {dim}], got {k}")

    dinv_sqrt = 1.0 / np.sqrt(degrees)

    def lsym_matvec(x):  # a vector, or a block in the residual check
        d = dinv_sqrt if x.ndim == 1 else dinv_sqrt[:, None]
        return x - d * w_matvec(d * x)

    def lsym_dense():
        lsym = np.eye(dim) - w_dense() * np.outer(dinv_sqrt, dinv_sqrt)
        return 0.5 * (lsym + lsym.T)

    values, u = _smallest(lsym_matvec, dim, k, method, seed,
                          lsym_dense if w_dense is not None else None)
    vectors = _fix_signs(u * dinv_sqrt[:, None])
    scale = max(1.0, float(degrees.max()))
    dv = degrees[:, None] * vectors
    residuals = _residual_norms(dv - w_matvec(vectors), dv, values)
    if (residuals > _RESIDUAL_TOL * scale).any():
        worst = float(residuals.max())
        raise ConvergenceError(
            f"generalized eigensolve residual {worst:.3g} exceeds tolerance")
    return EigenPairs(values, vectors, residuals)
