"""Isomap with topology-aware neighbor selection.

Standard Isomap picks neighbors by distance alone, which lets a single
point near two manifold folds create bridge edges that corrupt geodesic
estimates. This package adds a selector that models the local surface as a
low-dimensional subspace and rejects candidates whose offset is far from
orthogonal to the subspace's complement, and provides the full pipeline
(neighbor graph, all-pairs shortest paths, classical MDS) plus a CLI to
compare both rules via residual variance.
"""

from .datasets import (
    SyntheticSample,
    gen_helix,
    gen_punctured_sphere,
    gen_swiss_roll,
    load_csv,
    load_idx,
)
from .errors import TopoStableError
from .geodesic import (
    Embedding,
    GeodesicMatrix,
    classical_mds,
    double_center,
    floyd_all_pairs,
    largest_component,
    residual_variance,
)
from .graph import (
    DataSet,
    NeighborGraph,
    SelectorConfig,
    build_graph,
    knn_lists,
    select_neighbors_stable,
)
from .linalg import (
    EigenPairs,
    angle_deg,
    gram_schmidt_pair,
    pearson_r,
    residual_vector,
    symmetric_eigen_top,
)
from .pipeline import (
    ComparisonReport,
    ReportRow,
    RunConfig,
    compare_methods,
    isomap_embed,
    write_embedding_csv,
    write_report_csv,
    write_scatter_svg,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "TopoStableError",
    "DataSet",
    "SelectorConfig",
    "NeighborGraph",
    "knn_lists",
    "select_neighbors_stable",
    "build_graph",
    "GeodesicMatrix",
    "Embedding",
    "floyd_all_pairs",
    "largest_component",
    "double_center",
    "classical_mds",
    "residual_variance",
    "EigenPairs",
    "gram_schmidt_pair",
    "residual_vector",
    "angle_deg",
    "symmetric_eigen_top",
    "pearson_r",
    "SyntheticSample",
    "gen_helix",
    "gen_swiss_roll",
    "gen_punctured_sphere",
    "load_idx",
    "load_csv",
    "RunConfig",
    "ReportRow",
    "ComparisonReport",
    "isomap_embed",
    "compare_methods",
    "write_embedding_csv",
    "write_report_csv",
    "write_scatter_svg",
]
