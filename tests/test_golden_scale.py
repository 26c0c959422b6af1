"""Golden blobs at benchmark scale.

The sha256 of the first seed-1 instance of each ``perfbench`` workload,
built with the same generators and parameters as ``perfbench/child.py``
(landmark tables on; instance seeds are ``seed * instances + i``, so the
first seed-1 instance of a workload with k instances has seed k).  These
blobs reach merges of more than a hundred children and thousands of
one-child levels, which the small cases of ``test_golden.py`` never do; a
refactor that claims byte-identical blobs must leave these unchanged too.
"""

import functools
import hashlib

import pytest

from mcsketch import (
    SketchParams,
    gen_gaussian_clusters,
    gen_random_graph_metric,
    sketch_metric,
    sketch_points,
)

from test_golden import DECODE_PEAK_CONSTANT, DECODE_PEAK_PER_BYTE, decode_peak

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
    "build-clusters": "3ce140656bb78afb591b9df3b8acc0682e36ea646dc24d407868eb75b7e0905f",
    "query-clusters": "f3f38bb8902b70fec5eda57e36b2ef9a9a33f888b3c49c960652f1e8eba730f2",
    "metric-graph": "100b22996e28a4bce2a063549dbdc569f2b80e70781e28ee68be582e561c0c65",
}


@functools.lru_cache(maxsize=None)
def _blob(name: str) -> bytes:
    return CASES[name]()


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_blob_at_benchmark_scale(name):
    assert hashlib.sha256(_blob(name)).hexdigest() == DIGESTS[name]


@pytest.mark.parametrize("name", sorted(CASES))
def test_decoder_memory_is_linear_in_the_blob_at_benchmark_scale(name):
    blob = _blob(name)
    assert decode_peak(blob) <= DECODE_PEAK_PER_BYTE * len(blob) + DECODE_PEAK_CONSTANT
