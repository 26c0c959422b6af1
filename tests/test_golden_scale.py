"""Golden blobs at benchmark scale.

The sha256 of the first seed-1 instance of each ``perfbench`` workload,
built with the same generators and parameters as ``perfbench/child.py``
(landmark tables on; instance seeds are ``seed * instances + i``, so the
first seed-1 instance of a workload with k instances has seed k).  These
blobs reach merges of more than a hundred children and thousands of
one-child levels, which the small cases of ``test_golden.py`` never do; a
refactor that claims byte-identical blobs must leave these unchanged too.
"""

import hashlib

import pytest

from mcsketch import (
    SketchParams,
    gen_gaussian_clusters,
    gen_random_graph_metric,
    sketch_metric,
    sketch_points,
)

CASES = {
    "build-clusters": lambda: sketch_points(
        gen_gaussian_clusters(1000, 4, 12), 2.0, SketchParams(epsilon=1 / 4, landmarks=True)
    ),
    "query-clusters": lambda: sketch_points(
        gen_gaussian_clusters(2000, 2, 1), 1.0, SketchParams(epsilon=1 / 16, landmarks=True)
    ),
    "metric-graph": lambda: sketch_metric(
        gen_random_graph_metric(400, 3), SketchParams(epsilon=1 / 4, landmarks=True)
    ),
}

DIGESTS = {
    "build-clusters": "c3a2246f233cd5521a3540c887de0fd36fab6aaddbaee35aa9b616fee9df3a2b",
    "query-clusters": "18f862d557ec1fa46b9b89be24e1323602958edf3cdfdc534f00ca296df3210f",
    "metric-graph": "c38179129784e8d30a6be0133c3f322898f32d0d30e5d82a0f297633c0e92f2b",
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_blob_at_benchmark_scale(name):
    assert hashlib.sha256(CASES[name]()).hexdigest() == DIGESTS[name]
