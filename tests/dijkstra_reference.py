"""Per-source Dijkstra: the reference the tests compare floyd_all_pairs with.

An independent exact all-pairs algorithm over CSR adjacency, so a fault in
the Floyd kernel cannot hide in a shared code path. It is much slower than
Floyd-Warshall and runs only in the tests.
"""

import numpy as np

from conftest import hand_built


def csr_adjacency(g):
    """CSR arrays (indptr, indices, weights) of a NeighborGraph with both
    edge directions."""
    rows = np.concatenate([g.edges[:, 0], g.edges[:, 1]])
    cols = np.concatenate([g.edges[:, 1], g.edges[:, 0]])
    wts = np.concatenate([g.weights, g.weights])
    order = np.lexsort((cols, rows))
    rows, cols, wts = rows[order], cols[order], wts[order]
    indptr = np.zeros(g.n + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=g.n), out=indptr[1:])
    return indptr, cols, wts


def _dijkstra_all(indptr, indices, weights, n):
    """Per-source Dijkstra (linear-scan selection) over CSR adjacency."""
    out = np.empty((n, n))
    for s in range(n):
        dist = np.full(n, np.inf)
        dist[s] = 0.0
        visited = np.zeros(n, dtype=bool)
        for _ in range(n):
            masked = np.where(visited, np.inf, dist)
            u = int(np.argmin(masked))
            if masked[u] == np.inf:
                break
            visited[u] = True
            lo, hi = indptr[u], indptr[u + 1]
            nbr = indices[lo:hi]
            cand = dist[u] + weights[lo:hi]
            better = cand < dist[nbr]
            dist[nbr[better]] = cand[better]
        out[s] = dist
    return out


def dijkstra_all_pairs(g):
    """Exact all-pairs shortest paths; same contract as floyd_all_pairs."""
    indptr, indices, weights = csr_adjacency(g)
    d = _dijkstra_all(indptr, indices, weights, g.n)
    return hand_built(d)
