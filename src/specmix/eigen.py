"""The generalized eigensolver of the spectral relaxation.

Every solve runs block Lanczos with full reorthogonalization on a
matrix-vector product, whatever the size of the problem and whether it comes
as a matrix or as an operator. One Krylov sequence sees a single copy of a
repeated eigenvalue (disconnected or nearly disconnected graphs repeat
mu = 0). A random start block of k columns, one per pair wanted, has a
full-rank component in every eigenspace, so its Krylov space holds every
copy the k smallest pairs need (Golub & Underwood, 1977), and no second run
has to look for missing copies. Each step is one product with a block of k
columns. The generalized problem L v = mu D v is reduced to the symmetric
problem on D^{-1/2} L D^{-1/2} and mapped back, so returned generalized
eigenvectors are D-orthonormal.

Returned vectors follow a sign convention (largest-magnitude entry positive)
that makes repeated solves bitwise comparable outside of degenerate
eigenspaces. Solves are pure; concurrent independent solves are safe.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ConvergenceError

_RESIDUAL_TOL = 1e-8
_SYM_TOL = 1e-10
_LANCZOS_TOL = 1e-10  # Ritz residual estimate, relative to the spectrum's scale
_CHECK_EVERY = 10  # fewest new basis columns between convergence checks
_CHECK_SHARE = 0.8  # no check once the basis holds this share of the space
_KEEP = 0.7  # a Gram-Schmidt pass that keeps less of the norm is repeated
_MAX_PASSES = 4


@dataclass(frozen=True)
class EigenPairs:
    """Eigenvalues in ascending order, matching eigenvectors as columns,
    the per-pair residual norms reported by the solver, and ``products``:
    the number of operator columns the solve applied, the k columns of its
    one verification product included."""

    values: np.ndarray
    vectors: np.ndarray
    residuals: np.ndarray
    products: int


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
    """Normalize a graph to (matvec, degrees): an object with ``matvec`` and
    ``degrees`` gives its own, and a dense symmetric matrix its product and
    its row sums."""
    if hasattr(a, "matvec") and hasattr(a, "degrees"):
        return a.matvec, np.asarray(a.degrees, dtype=np.float64)
    arr = np.asarray(a, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ConfigError("expected a square matrix or an object exposing "
                          "matvec and degrees")
    if not np.isfinite(arr).all():
        raise ConfigError("matrix has non-finite entries")
    err = np.abs(arr - arr.T).max(initial=0.0)
    if err > _SYM_TOL * max(1.0, np.abs(arr).max(initial=0.0)):
        raise ConfigError(f"matrix is not symmetric (max asymmetry {err:.3g})")
    return (lambda x: arr @ x), arr.sum(axis=1)


def _lanczos_smallest(matvec, dim: int, k: int, seed: int):
    """(values, vectors, columns): the k algebraically smallest eigenpairs via
    block Lanczos with full reorthogonalization, from a random start block of
    k columns, and the number of operator columns applied: the basis columns.

    Block j of the basis, Q_j, satisfies A Q_j = Q_{j-1} B_{j-1}^T + Q_j A_j
    + Q_{j+1} B_j, so the basis carries a block tridiagonal T, kept dense with
    both triangles and grown with the basis. A Ritz pair (theta, V s) of T has
    the residual norm ||B_j s_j||, s_j being the rows of s on the last block;
    under full reorthogonalization it is the true residual up to rounding
    (Parlett, 1998, ch. 13). The solve returns once those estimates are small
    against a Gershgorin bound of T for the k smallest pairs; the caller
    verifies the pairs exactly. A basis that fills the space gives exact
    pairs. Step j completes the rows of blocks j-1 and j, and no row sum
    shrinks as T grows, so the bound is a running maximum over those rows.

    A check is one eigensolve of T (``_smallest``) and applies no product. It
    costs O(end^3), as it solves T whole, so checks are spaced out as the
    basis grows: at least ``_CHECK_EVERY`` and at least end/8 new columns
    apart. None is made once the basis holds ``_CHECK_SHARE`` (4/5) of the
    space: from there one more check costs about as much as the remaining
    dim - end columns do, and the full basis ends in one exact solve. A solve
    that converges before the cutoff takes the same steps as without it.
    """
    if not 1 <= k <= dim:
        raise ConfigError(f"k must lie in [1, {dim}], got {k}")
    rng = np.random.default_rng(seed)
    basis = np.empty((dim, min(dim, max(4 * k, 128))), order="F")
    t = np.zeros((basis.shape[1],) * 2)
    width, _ = _orthonormalize(basis, 0, rng.standard_normal((dim, k)), rng,
                               _LANCZOS_TOL)
    last, start, checked, columns, scale = 0, 0, 0, 0, 1.0  # block j-1 is last:start
    while True:
        end = start + width
        q = basis[:, start:end]
        aq = matvec(q)
        columns += width
        if not np.isfinite(aq).all():
            raise ConfigError("operator product has non-finite entries")
        a = q.T @ aq
        t[start:end, start:end] = 0.5 * (a + a.T)
        if end == dim:
            break
        r = aq - q @ t[start:end, start:end]
        r -= basis[:, last:start] @ t[last:start, start:end]
        scale = max(scale, float(np.abs(t[last:end]).sum(axis=1).max()))
        if end + width > basis.shape[1]:
            grown = np.empty((dim, min(dim, 2 * (end + width))), order="F")
            grown[:, :end] = basis[:, :end]
            t = np.pad(t, (0, grown.shape[1] - t.shape[0]))
            basis = grown
        new_width, b = _orthonormalize(basis, end, r, rng, _LANCZOS_TOL * scale)
        t[end:end + new_width, start:end] = b
        t[start:end, end:end + new_width] = b.T

        if end - checked >= max(_CHECK_EVERY, end // 8) and end < _CHECK_SHARE * dim:
            checked = end
            theta, s = _smallest(t[:end, :end], k)
            if (np.linalg.norm(b @ s[start:end], axis=0) <= _LANCZOS_TOL * scale).all():
                return theta, basis[:, :end] @ s, columns
        last, start, width = start, end, new_width

    theta, s = _smallest(t[:end, :end], k)
    return theta, basis @ s, columns


def _smallest(t, k: int):
    """The k smallest eigenpairs of the symmetric matrix ``t`` (LAPACK syevd)."""
    values, vectors = np.linalg.eigh(t)
    return values[:k], vectors[:, :k]


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
    norm = np.sqrt(x.dot(x))  # np.linalg.norm's own sum, without its wrapper
    for _ in range(_MAX_PASSES):
        c = basis.T @ x
        x -= basis @ c
        coeffs += c
        norm, before = np.sqrt(x.dot(x)), norm
        if norm >= _KEEP * before:
            break
    return coeffs, norm


def generalized_smallest_eigs(graph, k: int, seed: int = 0) -> EigenPairs:
    """K smallest eigenpairs of L v = mu D v with L = D - W.

    ``graph`` is W with its own degrees D: a dense symmetric matrix, whose
    degrees are its row sums, or an object with ``matvec`` and ``degrees``
    (``AugmentedGraph`` and ``BaseWeights`` qualify); ``seed`` draws the
    start block. Solved through the symmetric reduction D^{-1/2} L D^{-1/2};
    eigenvalues lie in [0, 2] and eigenvectors are D-orthonormal. The
    eigenvalue 0 appears once per connected component, and its eigenvectors
    span the components' indicator vectors.
    """
    w_matvec, degrees = _as_operator(graph)
    bad = np.flatnonzero(~(np.isfinite(degrees) & (degrees > 0.0)))
    if bad.size:
        raise ConfigError(f"node {int(bad[0])} has nonpositive or non-finite degree")

    dinv_sqrt = 1.0 / np.sqrt(degrees)

    def lsym_matvec(x):  # a block of column vectors
        return x - dinv_sqrt[:, None] * w_matvec(dinv_sqrt[:, None] * x)

    values, u, columns = _lanczos_smallest(lsym_matvec, degrees.size, k, seed)
    vectors = _fix_signs(u * dinv_sqrt[:, None])
    scale = max(1.0, float(degrees.max()))
    dv = degrees[:, None] * vectors
    residuals = np.linalg.norm((dv - w_matvec(vectors)) - dv * values, axis=0)
    if not np.isfinite(residuals).all():  # NaN would pass every bound
        raise ConfigError("operator product has non-finite entries")
    if (residuals > _RESIDUAL_TOL * scale).any():
        worst = float(residuals.max())
        raise ConvergenceError(
            f"generalized eigensolve residual {worst:.3g} exceeds tolerance")
    return EigenPairs(values, vectors, residuals, columns + k)
