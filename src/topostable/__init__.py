"""Isomap with topology-aware neighbor selection.

Standard Isomap picks neighbors by distance alone, which lets a single
point near two manifold folds create bridge edges that corrupt geodesic
estimates. This package adds a selector that models the local surface as a
low-dimensional subspace and rejects candidates whose offset is far from
orthogonal to the subspace's complement, and provides the full pipeline
(neighbor graph, all-pairs shortest paths, classical MDS) plus a CLI to
compare both rules via residual variance.
"""

from . import datasets, geodesic, graph, linalg, pipeline
from .datasets import *
from .errors import TopoStableError
from .geodesic import *
from .graph import *
from .linalg import *
from .pipeline import *

__version__ = "0.1.0"

# Each module's __all__ lists its public names; the package re-exports them.
__all__ = [
    "__version__",
    "TopoStableError",
    *graph.__all__, *geodesic.__all__, *linalg.__all__, *datasets.__all__, *pipeline.__all__,
]
