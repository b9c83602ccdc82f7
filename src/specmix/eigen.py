"""Symmetric and generalized eigensolvers for the spectral relaxation.

Every solve runs block Lanczos with full reorthogonalization on a
matrix-vector product, whatever the size of the problem and whether it comes
as a matrix or as an operator. One Krylov sequence sees a single copy of a
repeated eigenvalue (disconnected or nearly disconnected graphs repeat
mu = 0). A random start block of k columns, one per pair wanted, has a
full-rank component in every eigenspace, so its Krylov space holds every
copy the k smallest pairs need (Golub & Underwood, 1977), and no second run
has to look for missing copies. Each step is one product with a block of k
columns. ``method="dense"`` runs a full LAPACK decomposition
instead; it is kept as the oracle that tests compare the Lanczos path
against. The generalized problem L v = mu D v is reduced to the symmetric
problem on D^{-1/2} L D^{-1/2} and mapped back, so returned generalized
eigenvectors are D-orthonormal.

Returned vectors follow a sign convention (largest-magnitude entry positive)
that makes repeated solves bitwise comparable outside of degenerate
eigenspaces. Solves are pure; concurrent independent solves are safe.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.linalg import eig_banded

from .errors import ConfigError, ConvergenceError

_RESIDUAL_TOL = 1e-8
_SYM_TOL = 1e-10
_LANCZOS_TOL = 1e-10  # Ritz residual estimate, relative to the spectrum's scale
_CHECK_EVERY = 10  # fewest new basis columns between convergence checks
_KEEP = 0.7  # a Gram-Schmidt pass that keeps less of the norm is repeated
_MAX_PASSES = 4


@dataclass(frozen=True)
class EigenPairs:
    """Eigenvalues in ascending order, matching eigenvectors as columns,
    the per-pair residual norms reported by the solver, and ``products``:
    the number of operator columns the solve applied, residual checks
    included."""

    values: np.ndarray
    vectors: np.ndarray
    residuals: np.ndarray
    products: int


class SymmetricOperator:
    """Matrix-free symmetric linear map: a matvec callable, which takes a
    block of column vectors (a dim x m array), plus the dimension."""

    def __init__(self, matvec: Callable[[np.ndarray], np.ndarray], dim: int):
        self.matvec = matvec
        self.dim = dim


class _Counted:
    """A matvec that counts the operator columns it applies."""

    def __init__(self, matvec):
        self.matvec, self.columns = matvec, 0

    def __call__(self, x):
        self.columns += 1 if x.ndim == 1 else x.shape[1]
        return self.matvec(x)


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
    residuals = np.linalg.norm(product - vectors * values, axis=0)
    if not np.isfinite(residuals).all():  # NaN would pass every bound
        raise ConfigError("operator product has non-finite entries")
    return residuals


def _lanczos_smallest(matvec, dim: int, k: int, seed: int):
    """K algebraically smallest eigenpairs via block Lanczos with full
    reorthogonalization, from a random start block of k columns.

    Block j of the basis, Q_j, satisfies A Q_j = Q_{j-1} B_{j-1}^T + Q_j A_j
    + Q_{j+1} B_j, so the basis carries a block tridiagonal T, kept in band
    form. A Ritz pair (theta, V s) of T has the residual norm ||B_j s_j||,
    s_j being the rows of s on the last block. Once those estimates are small
    against a Gershgorin bound of T for the k smallest pairs, one block
    product checks the residuals exactly, against the largest product column
    norm seen: a lower bound on ||A|| that, unlike the Gershgorin bound, does
    not grow with the block width. A basis that fills the space gives exact
    pairs.
    """
    rng = np.random.default_rng(seed)
    band = np.zeros((min(k, dim - 1) + 1, dim))  # T[i, j] at band[i - j, j], i >= j
    basis = np.empty((dim, min(dim, max(4 * k, 128))), order="F")
    width, _ = _orthonormalize(basis, 0, rng.standard_normal((dim, k)), rng,
                               _LANCZOS_TOL)
    start, prev, checked = 0, None, 0  # prev is B_{j-1}
    a_norm = 1.0  # max(1, largest ||A q|| over basis columns q) <= max(1, ||A||)
    while True:
        end = start + width
        q = basis[:, start:end]
        aq = matvec(q)
        if not np.isfinite(aq).all():
            raise ConfigError("operator product has non-finite entries")
        a_norm = max(a_norm, float(np.linalg.norm(aq, axis=0).max()))
        a = q.T @ aq
        a = 0.5 * (a + a.T)
        for d in range(width):
            band[d, start:end - d] = np.diagonal(a, -d)
        if end == dim:
            break
        r = aq - q @ a
        if prev is not None:
            r -= basis[:, start - prev.shape[1]:start] @ prev.T
        scale = _gershgorin(band[:, :end])
        if end + width > basis.shape[1]:
            grown = np.empty((dim, min(dim, 2 * (end + width))), order="F")
            grown[:, :end] = basis[:, :end]
            basis = grown
        new_width, b = _orthonormalize(basis, end, r, rng, _LANCZOS_TOL * scale)
        rows, cols = np.triu_indices(new_width, 0, width)  # b is upper trapezoidal
        band[width + rows - cols, start + cols] = b[rows, cols]

        # each check costs O(end^3) in eig_banded: space them out as the basis grows
        if end - checked >= max(_CHECK_EVERY, end // 8):
            checked = end
            theta, s = eig_banded(band[:, :end], lower=True, select="i",
                                  select_range=(0, k - 1))
            if (np.linalg.norm(b @ s[start:end], axis=0) <= _LANCZOS_TOL * scale).all():
                vectors = basis[:, :end] @ s
                residuals = _residual_norms(matvec(vectors), vectors, theta)
                if (residuals <= _RESIDUAL_TOL * a_norm).all():
                    return theta, vectors
        start, width, prev = end, new_width, b

    theta, s = eig_banded(band, lower=True, select="i", select_range=(0, k - 1))
    return theta, basis @ s


def _orthonormalize(basis, m: int, block, rng, drop: float):
    """Orthonormalize the columns of ``block`` against the first m columns of
    ``basis`` and against each other, writing the p new columns from m on.

    Returns p and the p x w upper trapezoidal R with block = Q R + (its part
    in the first m columns), Q being the new columns. A column whose
    remainder is at most ``drop`` adds no direction. While the basis has room
    it gets a random direction with a zero coefficient instead, so the block
    keeps its width; once the basis fills the space the block narrows.
    """
    dim, width = block.shape
    r = np.zeros((width, width))
    p = 0
    for c in range(width):
        x = block[:, c].copy()
        coeffs, norm = _gram_schmidt(basis[:, :m + p], x)
        r[:p, c] = coeffs[m:]
        if norm > drop:
            r[p, c] = norm
        elif m + p < dim:
            x = rng.standard_normal(dim)
            _, norm = _gram_schmidt(basis[:, :m + p], x)
        else:
            continue
        basis[:, m + p] = x / norm
        p += 1
    return p, r[:p]


def _gram_schmidt(basis, x):
    """Remove from ``x``, in place, its components along the orthonormal
    columns of ``basis``. Returns the coefficients removed and the norm left.

    A pass repeats while it removes more than 30% of the norm (Daniel,
    Gragg, Kaufman & Stewart, 1976): two fixed passes lose orthogonality when
    most of ``x`` cancels.
    """
    coeffs = np.zeros(basis.shape[1])
    norm = np.linalg.norm(x)
    for _ in range(_MAX_PASSES):
        c = basis.T @ x
        x -= basis @ c
        coeffs += c
        norm, before = np.linalg.norm(x), norm
        if norm >= _KEEP * before:
            break
    return coeffs, norm


def _gershgorin(band) -> float:
    """max(1, largest absolute row sum) of the symmetric matrix whose lower
    band form is ``band``: a bound on its spectrum's scale."""
    ab = np.abs(band)
    sums = ab.sum(axis=0)
    for d in range(1, ab.shape[0]):
        sums[d:] += ab[d, :-d]
    return max(1.0, float(sums.max()))


def symmetric_smallest_eigs(a, k: int, method: str = "lanczos",
                            seed: int = 0) -> EigenPairs:
    """K algebraically smallest eigenpairs of a symmetric matrix or operator.

    ``method`` is "lanczos" or "dense", the full-decomposition oracle for
    matrices. Eigenvectors are orthonormal.
    """
    matvec, dim, dense = _as_operator(a)
    if not 1 <= k <= dim:
        raise ConfigError(f"k must lie in [1, {dim}], got {k}")
    matvec = _Counted(matvec)
    values, vectors = _smallest(matvec, dim, k, method, seed, dense)
    vectors = _fix_signs(vectors)
    residuals = _residual_norms(matvec(vectors), vectors, values)
    return EigenPairs(values, vectors, residuals, matvec.columns)


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
    w_matvec = _Counted(w_matvec)
    if degrees.shape != (dim,):
        raise ConfigError("degree vector length does not match graph dimension")
    if not 1 <= k <= dim:
        raise ConfigError(f"k must lie in [1, {dim}], got {k}")

    dinv_sqrt = 1.0 / np.sqrt(degrees)

    def lsym_matvec(x):  # a block of column vectors
        return x - dinv_sqrt[:, None] * w_matvec(dinv_sqrt[:, None] * x)

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
    return EigenPairs(values, vectors, residuals, w_matvec.columns)
