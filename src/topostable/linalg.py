"""Top eigenpairs of a symmetric matrix, the one numeric step classical MDS
needs: block subspace iteration with Rayleigh-Ritz, falling back to a full
eigh when n is small or when the iteration cannot vouch for "algebraically
largest" (see _top_subspace). A pure function of its input.
"""

import contextlib
from dataclasses import dataclass

import numpy as np

from .errors import NotSymmetricError

__all__ = ["EigenPairs", "symmetric_eigen_top"]


# Rows per block of the blocked steps in graph, geodesic and here: a
# (ROW_BLOCK, n) float64 block stays in cache.
ROW_BLOCK = 64


@contextlib.contextmanager
def _small_ufunc_buffer():
    """numpy's ufunc buffer at its smallest, 16 elements, in the scope (for
    steps that do not cast; np.errstate scopes it only from numpy 2.0 on):
    at the default size a 2-D step copies a broadcast operand through 64 KB
    buffers it allocates per call."""
    old = np.setbufsize(16)
    try:
        yield
    finally:
        np.setbufsize(old)


@dataclass(frozen=True)
class EigenPairs:
    """Top eigenvalues (descending) with orthonormal eigenvectors as columns."""

    values: np.ndarray   # (m,)
    vectors: np.ndarray  # (n, m), column j pairs with values[j]


# Block subspace iteration: extra columns beyond m (they widen the gap that
# sets the convergence rate), the error allowed in each coordinate column
# relative to sqrt(|lambda|max) and the residual bound relative to
# |lambda|max that suffices whatever the gaps (see _residual_bounds), the
# residual bound relative to |lambda|max within which a block that cannot
# reach those still answers, the iteration cap before the full solver takes
# over, and the iterations over which the residual's rate of decrease is
# measured.
_OVERSAMPLE = 8
_COORD_TOL = 1e-12
_RESIDUAL_TOL = 1e-14
_STALL_TOL = 1e-12
_MAX_ITER = 100
_RATE_SPAN = 3
# splitmix64 (Steele, Lea & Flood, OOPSLA 2014): the golden-ratio increment
# and the two multipliers of its finalizer, all uint64 so that numpy < 2
# does not promote the arithmetic to float64.
_SPLITMIX_STEP = np.uint64(0x9E3779B97F4A7C15)
_SPLITMIX_MUL1 = np.uint64(0xBF58476D1CE4E5B9)
_SPLITMIX_MUL2 = np.uint64(0x94D049BB133111EB)


def _check_symmetric(a):
    """Raise NotSymmetricError when max|a - a.T| > 1e-10 max|a|, comparing
    each tile (i, j) on and above the diagonal with tile (j, i) transposed:
    every pair once, and no strided read longer than a tile row."""
    n = a.shape[0]
    scale = max(a.max(), -a.min())
    b = min(ROW_BLOCK, n)
    buf = np.empty((b, b))
    asym = 0.0
    for i in range(0, n, ROW_BLOCK):
        for j in range(i, n, ROW_BLOCK):
            tile = a[i:i + ROW_BLOCK, j:j + ROW_BLOCK]
            diff = buf[:tile.shape[0], :tile.shape[1]]
            np.subtract(tile, a[j:j + ROW_BLOCK, i:i + ROW_BLOCK].T, out=diff)
            asym = max(asym, np.abs(diff, out=diff).max())
    if scale > 0.0 and asym > 1e-10 * scale:
        raise NotSymmetricError(f"relative asymmetry {asym / scale:.3e} exceeds 1e-10")


def _top_full(a, m):
    """Top m eigenpairs from the full eigh of the symmetrized matrix."""
    values, vectors = np.linalg.eigh((a + a.T) / 2.0)
    order = np.argsort(-values, kind="stable")[:m]
    return values[order], vectors[:, order]


def _start_block(n, p):
    """The (n, p) start block of the subspace iteration, entries in
    [-0.5, 0.5): entry (i, j) is the (i p + j + 1)-th splitmix64 output read
    as a 53-bit fraction, less 0.5. The same bits on every platform, and no
    numpy.random to load."""
    z = np.arange(1, n * p + 1, dtype=np.uint64)
    z *= _SPLITMIX_STEP
    z ^= z >> np.uint64(30)
    z *= _SPLITMIX_MUL1
    z ^= z >> np.uint64(27)
    z *= _SPLITMIX_MUL2
    z ^= z >> np.uint64(31)
    z >>= np.uint64(11)
    return (z.astype(np.float64) * 2.0**-53 - 0.5).reshape(n, p)


def _residual_bounds(theta, m):
    """The residual |a x - theta x| below which each top-m Ritz pair of the
    descending Ritz values theta is accurate enough.

    The angle between Ritz vector x_j and its eigenvector is at most
    res_j / gap_j, gap_j being the distance from theta_j to the rest of the
    spectrum: its neighbours in the block and, below it, the eigenvalues
    outside the block, at most min|theta| in magnitude. Coordinate column
    sqrt(theta_j) x_j is then within _COORD_TOL sqrt(|theta|max) of the
    exact one once res_j <= _COORD_TOL gap_j sqrt(|theta|max / theta_j).
    Where that asks for less than _RESIDUAL_TOL |theta|max (a small gap, a
    trailing theta_j far below theta_1, or theta_j <= 0), the latter bound
    holds: 45 ulps of |theta|max, 3 to 40 times the level at which
    round-off stops the residual falling on the Swiss rolls and helices up
    to n = 3200. Either way the accuracy at the stop is set by the bound,
    not by how close the start block happened to be.
    """
    scale = np.max(np.abs(theta))
    top = theta[:m]
    gap = top - np.maximum(theta[1:m + 1], np.min(np.abs(theta)))
    gap[1:] = np.minimum(gap[1:], top[:-1] - top[1:])
    bounds = np.full(m, _RESIDUAL_TOL * scale)
    ok = (top > 0.0) & (gap > 0.0)
    bounds[ok] = np.maximum(bounds[ok], _COORD_TOL * gap[ok] * np.sqrt(scale / top[ok]))
    return bounds


def _top_subspace(a, m):
    """Top m eigenpairs by block subspace iteration with Rayleigh-Ritz, or
    None when the full solver must decide.

    The block holds m + _OVERSAMPLE columns from a hashed start
    (_start_block) and converges to the eigenvectors of largest |lambda|.
    Each product a @ q is formed as (q.T @ a).T, which a symmetric a allows
    and which touches less BLAS scratch. The iteration stops once every
    top-m residual |a x - lambda x| is within its bound (_residual_bounds).
    When the rate at which the worst residual fell over the last
    _RATE_SPAN iterations would not bring every residual within its bound
    by the cap (round-off, or a slow block), the block still answers if
    every residual is at most _STALL_TOL times the largest |Ritz value|. It
    gives up (None) otherwise (a stalled block costs a few iterations, not
    the whole cap, before the full solver), when the cap is hit, or when
    lambda_m <= the smallest |Ritz value| in the block, which includes
    lambda_m <= 0. Every eigenvalue left outside the converged block is at
    most that smallest |Ritz value| in magnitude, so only above it is the
    answer the algebraically largest m, and only then is the count of
    clipped (negative) values exact.
    """
    n = a.shape[0]
    p = m + _OVERSAMPLE
    q, _ = np.linalg.qr(_start_block(n, p))
    aq = (q.T @ a).T
    worst = []  # largest top-m residual over the largest |Ritz value|, per iteration
    for it in range(_MAX_ITER):
        t = q.T @ aq
        theta, v = np.linalg.eigh((t + t.T) / 2.0)
        order = np.argsort(-theta, kind="stable")
        theta, v = theta[order], v[:, order]
        ax = aq @ v  # a @ (q @ v): the Ritz vectors' image, the next block
        x = q @ v[:, :m]
        res = np.linalg.norm(ax[:, :m] - x * theta[:m], axis=0)
        bounds = _residual_bounds(theta, m)
        done = np.all(res <= bounds)
        if not done:
            worst.append(np.max(res) / np.max(np.abs(theta)))
            if it >= _RATE_SPAN:
                rate = (worst[-1] / worst[-1 - _RATE_SPAN]) ** (1.0 / _RATE_SPAN)
                if rate >= 1.0 or it - np.log(np.max(res / bounds)) / np.log(rate) > _MAX_ITER:
                    if worst[-1] > _STALL_TOL:
                        return None
                    done = True
        if done:
            if theta[m - 1] <= np.min(np.abs(theta)):
                return None
            return theta[:m], x
        q, _ = np.linalg.qr(ax)
        aq = (q.T @ a).T
    return None


def symmetric_eigen_top(a, m):
    """Algebraically largest m eigenpairs of a symmetric matrix.

    Block subspace iteration (Halko, Martinsson & Tropp, SIAM Review 2011)
    finds them from m + 8 columns, started from a hashed block and stopped
    once each coordinate column sqrt(lambda_j) v_j is within 1e-12
    sqrt(|lambda|max) of the exact one, or its residual is at round-off
    level; a full eigh takes over when n is small (2(m + 8) >= n) or when
    the iteration cannot vouch for its answer (see _top_subspace).
    Deterministic for a fixed input: eigenvalue ties keep their original
    order (stable sort) and each eigenvector's largest-magnitude component
    is made positive so downstream outputs are reproducible.
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

