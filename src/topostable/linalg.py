"""Top eigenpairs of a symmetric matrix, the one numeric step classical MDS
needs: block subspace iteration with Rayleigh-Ritz, falling back to a full
eigh when n is small or when the iteration cannot vouch for "algebraically
largest" (see _top_subspace). A pure function of its input, a packed
symmetric matrix: one stored once as its upper row blocks
(SymmetricBlocks), or the doubly-centered squares of such a matrix of
distances as an operator over the distances themselves (CenteredSquares,
which geodesic.double_center makes). Both paths read the matrix only
through its product with a block of vectors (the full eigh assembles it
from panels of the identity), so neither the squares nor the centered
matrix is stored, and the input is only read. No dense (n, n) array is
taken as input.
"""

import contextlib
from dataclasses import dataclass

import numpy as np

from .errors import NonFiniteError

__all__ = ["symmetric_eigen_top"]


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


def _packed_size(n):
    """The words of an n x n SymmetricBlocks' buffer."""
    return sum(min(ROW_BLOCK, n - a) * (n - a) for a in range(0, n, ROW_BLOCK))


@dataclass(frozen=True)
class SymmetricBlocks:
    """A symmetric n x n matrix stored once, as its upper row blocks.

    Block b holds rows [a, a + h) at columns [a, n), a = ROW_BLOCK b and h =
    min(ROW_BLOCK, n - a), row-major; the blocks lie one after another in
    the flat float64 buffer buf, (n^2 + ROW_BLOCK n) / 2 words when
    ROW_BLOCK divides n. Each diagonal tile is held whole and is symmetric
    itself. This is the packed-symmetric idea of the Rectangular Full Packed
    format (Gustavson, Wasniewski, Dongarra & Langou, ACM TOMS 2010), in row
    blocks, so that every block is a plain strided matrix for BLAS.

    buf must be a float64 ndarray (TypeError otherwise), 1-D, contiguous
    and of exactly that size for n (ValueError otherwise). It may be
    read-only wherever it is only read: put writes to it, and Floyd to the
    weights it makes, but largest_component, classical scaling and the
    residual variance do not.
    """

    n: int
    buf: np.ndarray

    def __post_init__(self):
        buf = self.buf
        if not (isinstance(buf, np.ndarray) and buf.dtype == np.float64):
            raise TypeError(f"buf must be a float64 array, got {getattr(buf, 'dtype', type(buf).__name__)}")
        size = _packed_size(self.n)
        if buf.ndim != 1 or not buf.flags.c_contiguous or buf.size != size:
            raise ValueError(f"buf for n = {self.n} must be 1-D and contiguous with {size} entries, "
                             f"got {buf.size} in shape {buf.shape}")

    @classmethod
    def full(cls, n, value):
        """Every entry value."""
        return cls(n, np.full(_packed_size(n), value))

    def blocks(self):
        """(a, block) for each row block: block views rows [a, a + h) at
        columns [a, n), its diagonal tile first."""
        at = 0
        for a in range(0, self.n, ROW_BLOCK):
            h, w = min(ROW_BLOCK, self.n - a), self.n - a
            yield a, self.buf[at:at + h * w].reshape(h, w)
            at += h * w

    def flat(self, i, j):
        """buf's index of entry (i, j), for j at or right of the first column
        of row i's block (j >= i suffices): the blocks before it hold
        ROW_BLOCK rows each. i and j may be arrays."""
        c = i // ROW_BLOCK
        a = c * ROW_BLOCK
        return ROW_BLOCK * (c * self.n - ROW_BLOCK * c * (c - 1) // 2) + (i - a) * (self.n - a) + (j - a)

    def put(self, i, j, values):
        """Set entries (i, j) and (j, i) to values, for int arrays i and j of
        values' length, at each place the blocks hold them: both places in
        a diagonal tile, else the one in the higher block."""
        for x, y in ((i, j), (j, i)):
            held = y // ROW_BLOCK >= x // ROW_BLOCK
            self.buf[self.flat(x[held], y[held])] = values[held]

    def take(self, rows):
        """The matrix at rows and the same columns, as a new SymmetricBlocks,
        each block gathered from buf through a (ROW_BLOCK, len(rows)) index."""
        rows = np.asarray(rows, dtype=np.int64)
        out = SymmetricBlocks.full(rows.size, 0.0)
        for a, blk in out.blocks():
            i, j = rows[a:a + blk.shape[0], None], rows[None, a:]
            np.take(self.buf, self.flat(np.minimum(i, j), np.maximum(i, j)), out=blk)
        return out

    def __matmul__(self, q):
        """The matrix times the (n, p) array q (_times)."""
        return _times(self.blocks(), self.n, q)

    def dense(self):
        """The whole matrix, as a new (n, n) array."""
        out = np.empty((self.n, self.n))
        for a, blk in self.blocks():
            h = blk.shape[0]
            out[a:a + h, a:] = blk
            out[a + h:, a:a + h] = blk[:, h:].T
        return out


def _times(blocks, n, q):
    """The symmetric n x n matrix whose upper row blocks are blocks, (a,
    block) pairs as SymmetricBlocks.blocks yields them, times the (n, p)
    array q, two GEMMs per block: its rows times q, and the transpose of its
    part right of the diagonal tile, the rows below the tile, times q; so
    each tile counts once. The second is formed as (q.T @ part).T: at n =
    3200 it touches 1.25 MB of OpenBLAS scratch where part.T @ q touches 4.9
    MB, and it is the faster of the two there."""
    y = np.zeros((n, q.shape[1]))
    for a, blk in blocks:
        h = blk.shape[0]
        y[a:a + h] += blk @ q[a:]
        y[a + h:] += (q[a:a + h].T @ blk[:, h:]).T
    return y


@dataclass(frozen=True)
class CenteredSquares:
    """B = -H S H / 2 for S the squares of the distances d, a
    SymmetricBlocks, and H = I - ones/n (geodesic.double_center makes it).
    Neither B nor S is stored, and d, not a copy, is only read. B q is -H (S
    (H q)) / 2: S's product takes d's blocks in turn, each squared into one
    (ROW_BLOCK, n) scratch just before its two GEMMs (_times), and a
    product that is not finite, as where squares or the column sums of S (H
    q) overflow, raises NonFiniteError, with no numpy warning first. The
    product is B's only form, the full eigh's too (_top_full).
    """

    d: SymmetricBlocks

    @property
    def n(self):
        return self.d.n

    def __matmul__(self, q):
        scratch = np.empty(min(ROW_BLOCK, self.n) * self.n)  # each block's squares, overwritten by the next's
        with np.errstate(over="ignore", invalid="ignore"):
            squares = ((a, np.square(blk, out=scratch[:blk.size].reshape(blk.shape))) for a, blk in self.d.blocks())
            y = _times(squares, self.n, q - q.mean(axis=0))
            y -= y.mean(axis=0)
        _check_finite(y, "matrix has non-finite entries")
        y *= -0.5
        return y


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


def _check_finite(a, message):
    """Raise NonFiniteError(message) when a has an inf or NaN entry. min
    and max propagate NaN, and between them catch -inf and inf, without a
    mask of a's size."""
    if not (np.isfinite(a.min()) and np.isfinite(a.max())):
        raise NonFiniteError(message)


def _top_full(a, m):
    """Top m eigenpairs from the full eigh of a @ I, assembled ROW_BLOCK
    columns of the identity at a time, the panel freed before eigh. For a
    SymmetricBlocks that is its entries exactly: each is x * 1 plus zeros."""
    n = a.n
    whole = np.empty((n, n))
    for c in range(0, n, ROW_BLOCK):
        panel = np.zeros((n, min(ROW_BLOCK, n - c)))
        np.fill_diagonal(panel[c:], 1.0)
        whole[:, c:c + panel.shape[1]] = a @ panel
    del panel
    values, vectors = np.linalg.eigh(whole)
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


def _top_subspace(product, n, m):
    """Top m eigenpairs of a symmetric n x n matrix a, given as the function
    product(q) = a @ q on (n, p) arrays q, by block subspace iteration with
    Rayleigh-Ritz, or None when the full solver must decide.

    The block holds m + _OVERSAMPLE columns from a hashed start
    (_start_block) and converges to the eigenvectors of largest |lambda|.
    The iteration stops once every top-m residual |a x - lambda x| is within
    its bound (_residual_bounds). When the rate at which the worst residual
    fell over the last _RATE_SPAN iterations would not bring every residual
    within its bound by the cap (round-off, or a slow block), the block
    still answers if every residual is at most _STALL_TOL times the largest
    |Ritz value|. It gives up (None) otherwise (a stalled block costs a few
    iterations, not the whole cap, before the full solver), when the cap is
    hit, or when lambda_m <= the smallest |Ritz value| in the block, which
    includes lambda_m <= 0. Every eigenvalue left outside the converged
    block is at most that smallest |Ritz value| in magnitude, so only above
    it is the answer the algebraically largest m, and only then is the count
    of clipped (negative) values exact.
    """
    p = m + _OVERSAMPLE
    q, _ = np.linalg.qr(_start_block(n, p))
    aq = product(q)
    worst = []  # largest top-m residual over the largest |Ritz value|, per iteration
    for it in range(_MAX_ITER):
        t = q.T @ aq
        theta, v = np.linalg.eigh((t + t.T) / 2.0)
        order = np.argsort(-theta, kind="stable")
        theta, v = theta[order], v[:, order]
        ax = aq @ v  # a @ (q @ v): the Ritz vectors' image, the next block
        x = q @ v[:, :m]
        # units of the power of two at |theta|max, by ldexp: exact, and no norm under- or overflows
        e = np.frexp(np.max(np.abs(theta)))[1]
        res = np.linalg.norm(np.ldexp(ax[:, :m] - x * theta[:m], -e), axis=0)
        unit_theta = np.ldexp(theta, -e)
        bounds = _residual_bounds(unit_theta, m)
        done = np.all(res <= bounds)
        if not done:
            worst.append(np.max(res) / np.max(np.abs(unit_theta)))
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
        aq = product(q)
    return None


def symmetric_eigen_top(a, m):
    """Algebraically largest m eigenpairs of a symmetric matrix, as the
    tuple (values, vectors): values descending, shape (m,), and vectors
    (n, m) with orthonormal columns, column j pairing with values[j].

    a is a SymmetricBlocks or a CenteredSquares, read, past the finite check
    below, only through its n and its @; anything else, an array included,
    raises TypeError. Block subspace iteration (Halko, Martinsson & Tropp,
    SIAM Review 2011) finds them from m + 8 columns, started from a hashed
    block and stopped once each coordinate column sqrt(lambda_j) v_j is
    within 1e-12 sqrt(|lambda|max) of the exact one, or its residual is at
    round-off level; a full eigh of a @ I, the only n x n matrix made, takes
    over when n is small (2(m + 8) >= n) or when the iteration cannot vouch
    for its answer (see _top_subspace, _top_full). So both paths read the
    same products. A SymmetricBlocks is refused with NonFiniteError when it
    holds an inf or NaN, which neither path refuses by itself: on the
    identity with one NaN pair the full eigh gives the eigenvalues 1, 1 at
    n = 10, and the iteration numpy's LinAlgError at n = 30. A
    CenteredSquares refuses its own non-finite products, and
    geodesic.double_center, which makes it, its distances.

    Deterministic for a fixed input: eigenvalue ties keep their original
    order (stable sort) and each eigenvector's largest-magnitude component
    is made positive so downstream outputs are reproducible.
    """
    if not isinstance(a, (SymmetricBlocks, CenteredSquares)):
        raise TypeError(f"expected a SymmetricBlocks or a CenteredSquares, got {type(a).__name__}")
    n = a.n
    if not 1 <= m <= n:
        raise ValueError(f"m must be in [1, {n}], got {m}")
    if isinstance(a, SymmetricBlocks):
        _check_finite(a.buf, "matrix has non-finite entries")
    top = _top_subspace(a.__matmul__, n, m) if 2 * (m + _OVERSAMPLE) < n else None
    values, vectors = top if top is not None else _top_full(a, m)
    for j in range(m):
        col = vectors[:, j]
        if col[np.argmax(np.abs(col))] < 0.0:
            vectors[:, j] = -col
    return values, vectors
