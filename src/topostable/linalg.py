"""Deterministic linear-algebra primitives.

Gram-Schmidt orthogonalization and orthogonal-complement residuals, both
built on one projection step (``_project_out``), and angles, built on one
angle step (``_angles_deg``); the stable neighbor selector runs both steps
too. Also the top eigenpairs of a symmetric matrix, and Pearson
correlation. Everything here is a pure function of its inputs.

The eigensolver needs only the top m pairs: block subspace iteration with
Rayleigh-Ritz, falling back to a full eigh when n is small or when the
iteration cannot vouch for "algebraically largest" (see _top_subspace).
"""

from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateBasisError,
    DegenerateComplementError,
    NotSymmetricError,
    ZeroVarianceError,
    ZeroVectorError,
)

# Relative tolerance for declaring a residual numerically zero (collinear
# neighbors, probe point inside the subspace). Comfortably above double
# precision noise, far below any meaningful geometric angle.
TOL_RANK = 1e-9


def _vec(x):
    v = np.asarray(x, dtype=np.float64)
    if v.ndim != 1 or v.size < 1:
        raise ValueError("expected a 1-D vector of length >= 1")
    if not np.all(np.isfinite(v)):
        raise ValueError("vector components must be finite")
    return v


def _project_out(d, basis):
    """Component of d orthogonal to every vector in the pairwise-orthogonal
    ``basis``, or None when it is numerically zero (norm <= TOL_RANK * |d|).

    The one projection step shared by gram_schmidt_pair, residual_vector and
    the stable selector; it does not validate its inputs.
    """
    r = d.copy()
    for b in basis:
        r -= (np.dot(r, b) / np.dot(b, b)) * b
    if np.linalg.norm(r) <= TOL_RANK * np.linalg.norm(d):
        return None
    return r


def gram_schmidt_pair(x_p, x_n1, x_n2):
    """Orthogonal pair spanning the plane of two neighbor offsets.

    v1 is the offset to the first neighbor; v2 is the second offset with its
    v1 component projected out.

    Raises DegenerateBasisError when the offsets are collinear within
    TOL_RANK (relative), or when either neighbor coincides with x_p; the
    caller should substitute the next neighbor.
    """
    x_p, x_n1, x_n2 = _vec(x_p), _vec(x_n1), _vec(x_n2)
    v1 = x_n1 - x_p
    if np.linalg.norm(v1) == 0.0:
        raise DegenerateBasisError("first neighbor coincides with base point")
    u = x_n2 - x_p
    if np.linalg.norm(u) == 0.0:
        raise DegenerateBasisError("second neighbor coincides with base point")
    v2 = _project_out(u, [v1])
    if v2 is None:
        raise DegenerateBasisError("neighbor offsets are collinear")
    return v1, v2


def residual_vector(x_q, x_p, basis):
    """Component of (x_q - x_p) orthogonal to every vector in ``basis``.

    ``basis`` must be pairwise orthogonal (e.g. from repeated
    gram_schmidt_pair steps). Raises DegenerateComplementError when the
    residual is numerically zero (relative to TOL_RANK), i.e. x_q lies
    inside the spanned subspace.
    """
    r = _project_out(_vec(x_q) - _vec(x_p), [_vec(b) for b in basis])
    if r is None:
        raise DegenerateComplementError("probe point lies in the spanned subspace")
    return r


def _angles_deg(rows, norms, w):
    """Angles in degrees within [0, 180] between w and each row of ``rows``
    (or one vector), given their norms: the step angle_deg and the stable
    selector share. It does not validate its inputs."""
    cosines = rows @ w / (norms * np.linalg.norm(w))
    return np.degrees(np.arccos(np.clip(cosines, -1.0, 1.0)))


def angle_deg(u, v):
    """Unsigned angle between two vectors, in degrees within [0, 180]."""
    u, v = _vec(u), _vec(v)
    nu = np.linalg.norm(u)
    if nu == 0.0 or np.linalg.norm(v) == 0.0:
        raise ZeroVectorError("angle undefined for a zero vector")
    return float(_angles_deg(u, nu, v))


@dataclass(frozen=True)
class EigenPairs:
    """Top eigenvalues (descending) with orthonormal eigenvectors as columns."""

    values: np.ndarray   # (m,)
    vectors: np.ndarray  # (n, m), column j pairs with values[j]


# Block subspace iteration: extra columns beyond m (they widen the gap that
# sets the convergence rate), the residual bound relative to the largest
# |Ritz value|, the iteration cap before the full solver takes over, and the
# iterations over which the residual's rate of decrease is measured.
_OVERSAMPLE = 8
_RESIDUAL_TOL = 1e-12
_MAX_ITER = 100
_RATE_SPAN = 3
# Rows per block of the symmetry check, compared with the matching columns
# through one (block, n) scratch buffer.
_SYM_BLOCK = 64


def _check_symmetric(a):
    """Raise NotSymmetricError when max|a - a.T| > 1e-10 max|a|, comparing
    one block of rows with the matching columns at a time."""
    n = a.shape[0]
    scale = max(a.max(), -a.min())
    buf = np.empty((min(_SYM_BLOCK, n), n))
    asym = 0.0
    for lo in range(0, n, _SYM_BLOCK):
        rows = a[lo:lo + _SYM_BLOCK]
        diff = buf[:rows.shape[0]]
        np.subtract(rows, a[:, lo:lo + _SYM_BLOCK].T, out=diff)
        asym = max(asym, np.abs(diff, out=diff).max())
    if scale > 0.0 and asym > 1e-10 * scale:
        raise NotSymmetricError(f"relative asymmetry {asym / scale:.3e} exceeds 1e-10")


def _top_full(a, m):
    """Top m eigenpairs from the full eigh of the symmetrized matrix."""
    values, vectors = np.linalg.eigh((a + a.T) / 2.0)
    order = np.argsort(-values, kind="stable")[:m]
    return values[order], vectors[:, order]


def _top_subspace(a, m):
    """Top m eigenpairs by block subspace iteration with Rayleigh-Ritz, or
    None when the full solver must decide.

    The block holds m + _OVERSAMPLE columns from a fixed-seed start and
    converges to the eigenvectors of largest |lambda|. It stops once every
    top-m residual |a x - lambda x| is at most _RESIDUAL_TOL times the
    largest |Ritz value|. It gives up (None) when the cap is hit, when the
    rate at which the worst residual fell over the last _RATE_SPAN
    iterations would not reach the bound within the cap (a stalled block
    costs a few iterations, not the whole cap, before the full solver), or
    when lambda_m <= the smallest |Ritz value| in the block, which includes
    lambda_m <= 0. Every eigenvalue left outside the converged block is at
    most that smallest |Ritz value| in magnitude, so only above it is the
    answer the algebraically largest m, and only then is the count of
    clipped (negative) values exact.
    """
    n = a.shape[0]
    p = m + _OVERSAMPLE
    q, _ = np.linalg.qr(np.random.default_rng(0).standard_normal((n, p)))
    aq = a @ q
    worst = []  # largest top-m residual over the largest |Ritz value|, per iteration
    for it in range(_MAX_ITER):
        t = q.T @ aq
        theta, v = np.linalg.eigh((t + t.T) / 2.0)
        order = np.argsort(-theta, kind="stable")
        theta, v = theta[order], v[:, order]
        ax = aq @ v  # a @ (q @ v): the Ritz vectors' image, the next block
        x = q @ v[:, :m]
        res = np.linalg.norm(ax[:, :m] - x * theta[:m], axis=0)
        scale = np.max(np.abs(theta))
        if np.all(res <= _RESIDUAL_TOL * scale):
            if theta[m - 1] <= np.min(np.abs(theta)):
                return None
            return theta[:m], x
        worst.append(np.max(res) / scale)
        if it >= _RATE_SPAN:
            rate = (worst[-1] / worst[-1 - _RATE_SPAN]) ** (1.0 / _RATE_SPAN)
            if rate >= 1.0 or it + np.log(_RESIDUAL_TOL / worst[-1]) / np.log(rate) > _MAX_ITER:
                return None
        q, _ = np.linalg.qr(ax)
        aq = a @ q
    return None


def symmetric_eigen_top(a, m):
    """Algebraically largest m eigenpairs of a symmetric matrix.

    Block subspace iteration (Halko, Martinsson & Tropp, SIAM Review 2011)
    finds them from m + 8 columns; a full eigh takes over when n is small
    (2(m + 8) >= n) or when the iteration cannot vouch for its answer (see
    _top_subspace). Deterministic for a fixed input: eigenvalue ties keep
    their original order (stable sort) and each eigenvector's
    largest-magnitude component is made positive so downstream outputs are
    reproducible.
    """
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("expected a square matrix")
    n = a.shape[0]
    if not 1 <= m <= n:
        raise ValueError(f"m must be in [1, {n}], got {m}")
    _check_symmetric(a)
    top = _top_subspace(a, m) if 2 * (m + _OVERSAMPLE) < n else None
    values, vectors = top if top is not None else _top_full(a, m)
    for j in range(m):
        col = vectors[:, j]
        if col[np.argmax(np.abs(col))] < 0.0:
            vectors[:, j] = -col
    return EigenPairs(values=values, vectors=vectors)


def pearson_r(a, b):
    """Sample Pearson correlation coefficient, clipped to [-1, 1]."""
    a = np.asarray(a, dtype=np.float64).ravel()
    b = np.asarray(b, dtype=np.float64).ravel()
    if a.size != b.size or a.size < 2:
        raise ValueError("inputs must have equal length >= 2")
    ac = a - a.mean()
    bc = b - b.mean()
    sa = np.dot(ac, ac)
    sb = np.dot(bc, bc)
    if sa == 0.0 or sb == 0.0:
        raise ZeroVarianceError("correlation undefined for a constant sequence")
    return float(np.clip(np.dot(ac, bc) / np.sqrt(sa * sb), -1.0, 1.0))
