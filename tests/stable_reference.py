"""The stable selector one point at a time: the reference the tests compare
graph._stable_keep with.

_stable_select is the paper's rule written for a single point, with its own
projection step (_project_out) and angle step (_angles_deg). The package
runs the same rule on blocks of rows (graph._stable_block); this walk over
one point at a time runs only in the tests, so a fault in the blocks
cannot hide in a shared code path.
"""

import numpy as np

from topostable.errors import DegenerateBasisError, DegenerateComplementError
from topostable.graph import TOL_RANK


def _project_out(d, basis):
    """Component of d orthogonal to every vector in the pairwise-orthogonal
    ``basis``, or None when it is numerically zero (norm <= TOL_RANK * |d|).

    The selector's one projection step, for its basis walk and its probe
    walk; it does not validate its inputs.
    """
    r = d.copy()
    for b in basis:
        r -= (np.dot(r, b) / np.dot(b, b)) * b
    if np.linalg.norm(r) <= TOL_RANK * np.linalg.norm(d):
        return None
    return r


def _angles_deg(rows, norms, w):
    """Angles in degrees within [0, 180] between w and each row of ``rows``
    (or one vector), given their norms. It does not validate its inputs."""
    cosines = rows @ w / (norms * np.linalg.norm(w))
    return np.degrees(np.arccos(np.clip(cosines, -1.0, 1.0)))


def _stable_select(points, p, nbrs, d2_row, cfg):
    """Angle-filtered neighbor selection for one point.

    nbrs: ascending-distance candidate indices for p. d2_row: squared
    distances from p to all points (used to pick the far probe point).
    Returns a boolean keep-mask over nbrs.
    """
    x_p = points[p]
    diffs = points[nbrs] - x_p
    norms = np.linalg.norm(diffs, axis=1)
    coincident = norms == 0.0  # duplicates: connected unconditionally, unusable for the basis

    # Basis of the local subspace: walk candidates in distance order and
    # keep dim_w offsets that survive Gram-Schmidt against those already kept.
    basis = []
    for idx in np.flatnonzero(~coincident):
        r = _project_out(diffs[idx], basis)
        if r is not None:
            basis.append(r)
            if len(basis) == cfg.dim_w:
                break
    if len(basis) < cfg.dim_w:
        raise DegenerateBasisError(
            f"only {len(basis)} independent offsets among {len(nbrs)} candidates"
        )

    # Complement vector from a probe point outside the candidate set: the
    # farthest one that does not lie in the subspace (argmax takes the
    # lowest index among equal distances; a tried probe is masked out).
    far = d2_row.copy()
    far[p] = -np.inf
    far[nbrs] = -np.inf
    w_perp = None
    while w_perp is None:
        q = int(np.argmax(far))
        if far[q] == -np.inf:
            break
        w_perp = _project_out(points[q] - x_p, basis)
        far[q] = -np.inf
    if w_perp is None:
        raise DegenerateComplementError("no probe point outside the neighborhood spans the complement")

    # The dim_w nearest (and any duplicates) stay unconditionally; farther
    # candidates must fall inside the 90 +- delta_theta window against the
    # complement vector.
    keep = coincident.copy()
    keep[: cfg.dim_w] = True
    rest = np.flatnonzero(~keep)
    if rest.size:
        theta = _angles_deg(diffs[rest], norms[rest], w_perp)
        keep[rest[np.abs(theta - 90.0) <= cfg.delta_theta_deg]] = True
    return keep
