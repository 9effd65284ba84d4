"""Top eigenpairs of a symmetric matrix, the one numeric step classical MDS
needs: block subspace iteration with Rayleigh-Ritz, falling back to a full
eigh when n is small or when the iteration cannot vouch for "algebraically
largest" (see _top_subspace). A pure function of its input.
"""

from dataclasses import dataclass

import numpy as np

from .errors import NotSymmetricError

__all__ = ["EigenPairs", "symmetric_eigen_top"]


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

