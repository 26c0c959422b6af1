"""mcsketch: compress a finite metric into a compact bitstream sketch.

The sketch answers any pairwise-distance query within relative error 4*eps
while spending roughly O(log(1/eps) + loglog(spread)) bits per point beyond
the dimension-dependent displacement codes.

Typical library use::

    import numpy as np
    from mcsketch import SketchParams, sketch_points, Estimator

    pts = np.random.default_rng(0).normal(size=(100, 8))
    blob = sketch_points(pts, p=2, params=SketchParams(epsilon=0.25))
    est = Estimator(blob)
    est.estimate(3, 17)  # ~ the l2 distance between points 3 and 17
"""

from .annotate import Annotations, SurrogateTable
from .cli import (
    BuildResult,
    build_sketch,
    gen_gaussian_clusters,
    gen_high_spread_line,
    gen_random_graph_metric,
    gen_uniform,
    main,
    sketch_metric,
    sketch_points,
)
from .codec import SketchModel, SizeReport, deserialize, serialize, size_report
from .core import (
    DataError,
    DistanceMatrix,
    DuplicatePointError,
    FormatError,
    GuaranteeError,
    InputError,
    PointSet,
    SketchError,
    SketchParams,
    TriangleInequalityError,
    UnknownLabelError,
    k_parameter,
    load_input,
    lp_distance,
    lp_norm,
    normalize,
    oracle_all_pairs,
    read_matrix,
    read_points,
    snap_epsilon,
    write_matrix,
    write_points,
)
from .estimate import Estimator, select_all_landmarks, select_landmarks
from .hst import SketchTree, build_hst, compress
from .reduce import JlConfig, frechet_embed, jl_project

__version__ = "0.1.0"

__all__ = [
    "Annotations",
    "BuildResult",
    "DataError",
    "DistanceMatrix",
    "DuplicatePointError",
    "Estimator",
    "FormatError",
    "GuaranteeError",
    "InputError",
    "JlConfig",
    "PointSet",
    "SketchError",
    "SketchModel",
    "SketchParams",
    "SketchTree",
    "SizeReport",
    "SurrogateTable",
    "TriangleInequalityError",
    "UnknownLabelError",
    "build_hst",
    "build_sketch",
    "compress",
    "deserialize",
    "frechet_embed",
    "gen_gaussian_clusters",
    "gen_high_spread_line",
    "gen_random_graph_metric",
    "gen_uniform",
    "jl_project",
    "k_parameter",
    "load_input",
    "lp_distance",
    "lp_norm",
    "main",
    "normalize",
    "oracle_all_pairs",
    "read_matrix",
    "read_points",
    "select_all_landmarks",
    "select_landmarks",
    "serialize",
    "size_report",
    "sketch_metric",
    "sketch_points",
    "snap_epsilon",
    "write_matrix",
    "write_points",
]
