"""Golden blobs: the sha256 of a fixed set of small sketches.

A refactor that claims to keep behaviour must leave every digest below
unchanged.  A change of the blob format updates these digests together with
the ``MCSK`` version bump that announces it.

A second digest covers each decoded model's content and stays put across a
change of layout: header scalars, tree, centers, ingresses, precisions,
grid integers and landmark shifts, beside the bits of every ``size_report``
section.  A new layout that moves fields but keeps them must leave these
unchanged.

The cases cover p in {1, 2, inf, 1.5}, metric inputs (Frechet embedding of a
graph metric), a high-spread line with long edges, a spread near 2^512 whose
exact shifts outgrow int64 (K + 2 > 62), landmark tables on and off, a random projection, and an integer
lattice whose many equal distances exercise every tie-breaking rule.
"""

import functools
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
from mcsketch.codec import deserialize, size_report


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
    "clusters-l2-fine-landmarks": "33f5b42190e6e2ffce41c9731da5bc01aff1a5d488d03374a53dc8b35c77ada1",
    "clusters-linf": "85943b15a07f4a8ac9dec0328a7306cddec4fcaef52bd8ae80105be279967463",
    "graph-metric": "3584ac0cd795075d165f00e80d3e6de3d4bf1e8d759c6207e32370ede8a8ab00",
    "graph-metric-landmarks": "ee7e14c362f3275b59fe073136d5b5ce53f1142d1321fd89fd77e6a107dc1efd",
    "high-spread-line": "6fb333e98e31f879e4f4c1b2c766befbe990750e532507d067c0abcc9c848626",
    "high-spread-line-512-landmarks": "05e8170a4fb1298f8db24928fa1f21cfe80e418c27d875f632e421eebc8a96c4",
    "lattice-l1-ties": "491524f5dc5860f0b9f88f408f6f97315861d707506e9cd252776f3a4f4699b8",
    "lattice-l2-ties-landmarks": "b10935fa98b08be54f36878e8839dd1acd32b0d58f94441a8e12b7c08299f89a",
    "projected-l2": "9f447c20f950523da8a349f2ec7c52685d9a3a35827420b04b54bbc2ff0f311c",
    "uniform-l1-landmarks": "9ef2301dea20f2bd57ee1d0be71c00b83ab71566e74725742671eca6f8c8c72e",
    "uniform-l1.5": "44a9489d845f698376b9161135e46c531f0d165aeb8408c20ab148b6b4a5960f",
    "uniform-l2": "4bb2cd17c690ac810d6accb8c7266956256b5f16403a0c5e321f81b868e29dce",
}


# model-content digest and size_report section bits (tree shape, long gaps,
# centers, ingresses, precisions, displacements, landmarks, padding)
MODELS = {
    "clusters-l2-fine-landmarks": (
        "a9970a445ee2931dd4dd45e40d1c39b779c3bcafdd203cd9161d9bf2216a463d",
        (455, 86, 912, 536, 236, 2589, 269, 5),
    ),
    "clusters-linf": (
        "10b65c2cefbf16ed1c44aea944d4b42f0729b59134021f4eae2877ca8329b20d",
        (467, 24, 1092, 702, 238, 3484, 0, 1),
    ),
    "graph-metric": (
        "2e3c916fc4417a910cda85179613423b23535d41dfec9c0e39d9ba777c6462aa",
        (152, 0, 306, 284, 63, 11320, 0, 3),
    ),
    "graph-metric-landmarks": (
        "1b6364e460a854dad0552ddb6a23ea0b11d8e49f1ba508e240f1e1468378600a",
        (104, 0, 175, 179, 41, 6810, 555, 0),
    ),
    "high-spread-line": (
        "184337a73e0ba98ed7f5da448000caf457513d92eca7ee28a75bc9ef985fa40e",
        (77, 22, 130, 118, 44, 137, 0, 0),
    ),
    "high-spread-line-512-landmarks": (
        "f6906fd42aa9145a99838992fd4d405a4e0a65570cf582262d47fb906684831e",
        (77, 36, 130, 118, 42, 137, 3, 1),
    ),
    "lattice-l1-ties": (
        "7faa94adc491743808c172f1d9e9f4a2dbfbf1a61e19614c167139f2128a73c3",
        (266, 0, 534, 466, 149, 1152, 0, 1),
    ),
    "lattice-l2-ties-landmarks": (
        "9669f34a7ad42f7e72be1434b60dc4b58a2b0d38232cee5b2d30b744bfd6e94d",
        (218, 0, 438, 450, 93, 1656, 77, 4),
    ),
    "projected-l2": (
        "0cfb58074f5fe0ec797866641fc14e405677f6544ae4cab9306ae05564de038d",
        (122, 0, 246, 274, 43, 94800, 0, 3),
    ),
    "uniform-l1-landmarks": (
        "dcbd838ee432eac46a4998f4785c3aa10ed9565723c265c7b31bb3798101e7e1",
        (404, 159, 810, 494, 175, 1818, 199, 5),
    ),
    "uniform-l1.5": (
        "fd74c59b5f6e73cabd688d26b69206fb7cd438a1fe6b61dde01953fd1f1cc364",
        (350, 226, 702, 411, 163, 892, 0, 0),
    ),
    "uniform-l2": (
        "8b80169cc52b0f2f33d766d2fd4dc88a664174769e5e48dd20bf86dd2e3eb974",
        (419, 150, 840, 502, 188, 1698, 0, 3),
    ),
}


@functools.lru_cache(maxsize=None)
def _blob(name: str) -> bytes:
    return CASES[name]()


def _model_digest(model) -> str:
    """sha256 of everything a decoded model holds, layout-free."""
    tree = model.tree
    landmarks = None
    if model.landmarks is not None:
        landmarks = sorted(
            (v, [int(k) for k in ks]) for v, ks in model.landmarks.items()
        )
    content = (
        (model.p, model.epsilon, model.scale, model.spread, model.n, model.d),
        (model.jl_seed, model.jl_orig_dim),
        (tree.level, tree.parent, tree.children, tree.long_edge),
        (tree.leaf_label, tree.root),
        (model.center, model.ingress, model.inv_delta),
        (model.eta_ints.dtype.str, model.eta_ints.shape, model.eta_ints.tobytes()),
        landmarks,
    )
    return hashlib.sha256(repr(content).encode()).hexdigest()


def _sections(blob: bytes) -> tuple[int, ...]:
    rep = size_report(blob)
    return (
        rep.tree_shape_bits,
        rep.long_gap_bits,
        rep.center_bits,
        rep.ingress_bits,
        rep.precision_bits,
        rep.displacement_bits,
        rep.landmark_bits,
        rep.padding_bits,
    )


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_blob(name):
    assert hashlib.sha256(_blob(name)).hexdigest() == DIGESTS[name]


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_model(name):
    blob = _blob(name)
    digest, sections = MODELS[name]
    assert _model_digest(deserialize(blob)) == digest
    assert _sections(blob) == sections
