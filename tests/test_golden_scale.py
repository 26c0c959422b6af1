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
    "build-clusters": "1b7c383654c9db71a1193a9df6808f6f74e6b1de2f98293b4e7ee48287b9c578",
    "query-clusters": "b25e917acd89477af04067cdd1b492759117eca0a3b2bb11ea2e413a0bc70843",
    "metric-graph": "1636d08cc874b5cefd0d289727a4330de12c73fb6459d28dd1f7b7baf22672bd",
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
