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
    "build-clusters": "0341a3790545893d23dc40be5aee37b9dce453b29c148a7a840d9d507a564bc9",
    "query-clusters": "42b51cb9ce27b287427afc7dd8d35d4c7de371b81908cd09c5bdaded8c155fd6",
    "metric-graph": "b2990d7e43dd37aca47d7dfa27a0cf6ae93947920d51b0409cedfd4f78b4445c",
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
