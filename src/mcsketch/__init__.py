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

The package exports the sketch entry points, the codec, the estimator, the
generators and the error classes; everything else, such as
``mcsketch.pipeline.build_sketch`` (which returns every intermediate of a
build) or ``mcsketch.core.normalize``, is reached through its submodule.
The command line lives in ``mcsketch.cli``, which the package does not
import.
"""

from .pipeline import (
    gen_gaussian_clusters,
    gen_high_spread_line,
    gen_random_graph_metric,
    gen_uniform,
    sketch_metric,
    sketch_points,
)
from .codec import SketchModel, SizeReport, deserialize, serialize, size_report
from .core import (
    DataError,
    DuplicatePointError,
    FormatError,
    GuaranteeError,
    InputError,
    SketchError,
    SketchParams,
    TriangleInequalityError,
    UnknownLabelError,
)
from .estimate import Estimator

__version__ = "0.1.0"

__all__ = [
    "DataError",
    "DuplicatePointError",
    "Estimator",
    "FormatError",
    "GuaranteeError",
    "InputError",
    "SketchError",
    "SketchModel",
    "SketchParams",
    "SizeReport",
    "TriangleInequalityError",
    "UnknownLabelError",
    "deserialize",
    "gen_gaussian_clusters",
    "gen_high_spread_line",
    "gen_random_graph_metric",
    "gen_uniform",
    "serialize",
    "size_report",
    "sketch_metric",
    "sketch_points",
]
