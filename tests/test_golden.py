"""Golden blobs: the sha256 of a fixed set of small sketches.

A refactor that claims to keep behaviour must leave every digest below
unchanged.  A change of the blob format updates these digests together with
the ``MCSK`` version bump that announces it.

The cases cover p in {1, 2, inf, 1.5}, metric inputs (Frechet embedding of a
graph metric), a high-spread line with long edges, a spread near 2^512 whose
exact shifts outgrow int64 (K + 2 > 62), landmark tables on and off, a random projection, and an integer
lattice whose many equal distances exercise every tie-breaking rule.
"""

import hashlib
import itertools

import numpy as np
import pytest

from mcsketch import (
    SketchParams,
    gen_gaussian_clusters,
    gen_high_spread_line,
    gen_random_graph_metric,
    gen_uniform,
    sketch_metric,
    sketch_points,
)


def _lattice(axis: tuple[int, ...], d: int) -> np.ndarray:
    return np.array(list(itertools.product(axis, repeat=d)), dtype=float)


def _points(coords, p, eps, **kw):
    return lambda: sketch_points(coords(), p, SketchParams(epsilon=eps, **kw))


def _metric(n, seed, eps, **kw):
    return lambda: sketch_metric(
        gen_random_graph_metric(n, seed), SketchParams(epsilon=eps, **kw)
    )


CASES = {
    "uniform-l2": _points(lambda: gen_uniform(60, 3, 1), 2.0, 0.25),
    "uniform-l1-landmarks": _points(
        lambda: gen_uniform(60, 3, 2), 1.0, 0.25, landmarks=True
    ),
    "clusters-linf": _points(
        lambda: gen_gaussian_clusters(80, 4, 3), float("inf"), 0.125
    ),
    "uniform-l1.5": _points(lambda: gen_uniform(50, 2, 4), 1.5, 0.25),
    "clusters-l2-fine-landmarks": _points(
        lambda: gen_gaussian_clusters(60, 3, 5), 2.0, 1 / 16, landmarks=True
    ),
    "lattice-l1-ties": _points(lambda: _lattice((0, 1, 4, 5, 16, 17, 20, 21), 2), 1.0, 0.25),
    "lattice-l2-ties-landmarks": _points(
        lambda: _lattice((0, 1, 4, 5), 3), 2.0, 0.125, landmarks=True
    ),
    "high-spread-line": _points(lambda: gen_high_spread_line(20, 40, 6), 2.0, 0.25),
    "high-spread-line-512-landmarks": _points(
        lambda: gen_high_spread_line(20, 512, 6), 2.0, 0.25, landmarks=True
    ),
    "projected-l2": _points(lambda: gen_uniform(40, 300, 8), 2.0, 0.25),
    "graph-metric": _metric(40, 9, 0.25),
    "graph-metric-landmarks": _metric(30, 10, 0.125, landmarks=True),
}

DIGESTS = {
    "clusters-l2-fine-landmarks": "74b2b3837cc655eb162c04eb06e0e44a4fda493a4213fab31804919eadf17d51",
    "clusters-linf": "11dc8733fc28a174934ce52eed74054edec9b6887253f3a63a57f6296cb5cd5e",
    "graph-metric": "97bcbd49aaa92922a80d9db3775f3c2ccddae6ab15942a4f550ab40cf159336a",
    "graph-metric-landmarks": "3b0034cfc48cb7ad81dfdde41d75f5ba5424a18b84cff06dd68610abc11dfe3f",
    "high-spread-line": "cd2eb7c5862f0424e4119cd6a2bc65259438bfc3f18f0a4cfc9b367bc857e7b3",
    "high-spread-line-512-landmarks": "b23082705208769efd13a8c96eeaea8aff1d3fbc1b3db2f04c764ae2a09d1386",
    "lattice-l1-ties": "f24cdcde72c5834a95e1fe9a16367c8f9a37f50ed8cf7c4b893e3909d5a0d1b7",
    "lattice-l2-ties-landmarks": "450e9307103ba1247ae9b854a819a661a745d76934899582b3b3a39a5cb7be31",
    "projected-l2": "0d01b050078e0187314307d4a4b23335a1beb26277a8325541daa11ec8b0f96c",
    "uniform-l1-landmarks": "b4a86df90c8d1d236e2f40abadb9ee864e797b03142abccb20adc19266247aff",
    "uniform-l1.5": "1f607cae9442b5f6e0b8daaf52b0c8bb3091554afdb68785482b216287b8b4b5",
    "uniform-l2": "69972893bfa55567595dc6613b8f7a2e7a87345de96fc35901696f92d3010d5d",
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_blob(name):
    assert hashlib.sha256(CASES[name]()).hexdigest() == DIGESTS[name]
