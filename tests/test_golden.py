"""Golden blobs: the sha256 of a fixed set of small sketches.

A refactor that claims to keep behaviour must leave every digest below
unchanged.  A change of the blob format updates these digests together with
the ``MCSK`` version bump that announces it.

A second digest covers each decoded model's content and stays put across a
change of layout: header scalars, tree, centers, ingresses, precisions,
grid integers and landmark ids, beside the bits of every ``size_report``
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
import tracemalloc

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
from mcsketch.estimate import Estimator

from _reference import children_of


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
    "clusters-l2-fine-landmarks": "3daef1d187c574c0a6c6d6c8a8a044281e20b5d6521e03867700d2e489cb8796",
    "clusters-linf": "cc8c8bcb75e367bdb8e3f4a460d41c1c85d246cd6691e0bf3fd05c2c1ee4fac1",
    "graph-metric": "42639a6ab5fed46ac268dcafb3cfba059f387a46b89a6d53fa59292af5f7dffc",
    "graph-metric-landmarks": "ac34c6b7a7811d8c33a42199f8d874297cefa916554c9bc64cb3e6756e5d7437",
    "high-spread-line": "c25f33fb42b655881cb66c18be88c3d98b6a091ae0e563ecc918868f08308dc6",
    "high-spread-line-512-landmarks": "fe4e2b1ba62681dc5d6bf7673c0e62f7d96e0057add51b64f8a846c71aca3dcb",
    "lattice-l1-ties": "76d5695acd1892b4c2346a2c2e33cb29c9bb6c5da1753242b74d7cfcf446716c",
    "lattice-l2-ties-landmarks": "7b59989443394e55c3bf5d9f688f72cc9222acfab59e51fff1d16a03fc2b77c0",
    "projected-l2": "02bd5d2f5559ba3ea8aac856a1cfc9b8bd3a61ff526e301e7cc6924bd6abf181",
    "uniform-l1-landmarks": "8b53bb41f1dd60b3464c23ce24a76c086b364e17ed42a9f5deaba187737705da",
    "uniform-l1.5": "c945e9075791565a68f0b38bc05720d6cc00bed852a450b8537df704cd9ee9bb",
    "uniform-l2": "9cd99b185303f9211d0a3f24f84e3f61e79f74139257c79ebb96cf56ff51fc96",
}


# model-content digest and size_report section bits (tree shape, long gaps,
# centers, ingresses, precisions, displacements, landmarks, padding)
MODELS = {
    "clusters-l2-fine-landmarks": (
        "62c89fc0568d22b320485125d6cf59e01a0cffb1f0f39fb78bbffaa0f6cb5364",
        (455, 86, 360, 413, 236, 1538, 37, 3),
    ),
    "clusters-linf": (
        "10b65c2cefbf16ed1c44aea944d4b42f0729b59134021f4eae2877ca8329b20d",
        (467, 24, 560, 553, 238, 2187, 0, 3),
    ),
    "graph-metric": (
        "2e3c916fc4417a910cda85179613423b23535d41dfec9c0e39d9ba777c6462aa",
        (152, 0, 240, 234, 63, 8137, 0, 6),
    ),
    "graph-metric-landmarks": (
        "aa5ad419ddedd1e9d6a740e74f610146ef66800d6f3178ad8c284bd1b2d554fc",
        (104, 0, 150, 145, 41, 5156, 15, 5),
    ),
    "high-spread-line": (
        "184337a73e0ba98ed7f5da448000caf457513d92eca7ee28a75bc9ef985fa40e",
        (77, 22, 100, 95, 44, 109, 0, 1),
    ),
    "high-spread-line-512-landmarks": (
        "f6906fd42aa9145a99838992fd4d405a4e0a65570cf582262d47fb906684831e",
        (77, 36, 100, 95, 42, 108, 1, 5),
    ),
    "lattice-l1-ties": (
        "7faa94adc491743808c172f1d9e9f4a2dbfbf1a61e19614c167139f2128a73c3",
        (266, 0, 384, 378, 149, 652, 0, 3),
    ),
    "lattice-l2-ties-landmarks": (
        "a8dc6a764569f61e03801b9db41a7b1842737828c5dc6ddc248311563c536d4d",
        (218, 0, 384, 378, 93, 1100, 17, 2),
    ),
    "projected-l2": (
        "0cfb58074f5fe0ec797866641fc14e405677f6544ae4cab9306ae05564de038d",
        (122, 0, 240, 234, 43, 41236, 0, 5),
    ),
    "uniform-l1-landmarks": (
        "144872354e945ee40a7df19da4a85cbfcb06adcbf88189a826bc15fbac0c7047",
        (404, 159, 360, 413, 175, 1021, 29, 7),
    ),
    "uniform-l1.5": (
        "fd74c59b5f6e73cabd688d26b69206fb7cd438a1fe6b61dde01953fd1f1cc364",
        (350, 226, 300, 343, 163, 557, 0, 5),
    ),
    "uniform-l2": (
        "8b80169cc52b0f2f33d766d2fd4dc88a664174769e5e48dd20bf86dd2e3eb974",
        (419, 150, 360, 413, 188, 1003, 0, 3),
    ),
}


@functools.lru_cache(maxsize=None)
def _blob(name: str) -> bytes:
    return CASES[name]()


def _model_digest(model) -> str:
    """sha256 of everything a decoded model holds, layout-free and
    independent of how the model holds it.  Each node's center, derived
    since version 3, is the label of the first leaf at or after it in
    preorder.  The content is the tuple of the list-based model: child
    lists in id order, the root 0, and None for a part root's ingress."""
    tree = model.tree
    children = children_of(tree)
    ingress = [None if u < 0 else u for u in model.ingress.tolist()]
    label = np.array(tree.leaf_label)
    leaves = np.flatnonzero(label >= 0)
    center = label[leaves[np.searchsorted(leaves, np.arange(tree.n_nodes))]].tolist()
    content = (
        (model.p, model.epsilon, model.scale, model.spread, model.n, model.d),
        (model.jl_seed, model.jl_orig_dim),
        (tree.level, tree.parent, children, tree.long_edge),
        (tree.leaf_label, 0),
        (center, ingress, model.inv_delta),
        (model.eta_ints.dtype.str, model.eta_ints.shape, model.eta_ints.tobytes()),
        model.landmarks,
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


# Decoder memory: the tracemalloc peak of deserialize plus Estimator stays
# within this many bytes per blob byte, plus a constant.  Measured peaks are
# 59-154 bytes per blob byte here and 52-136 on the benchmark-scale blobs
# (MCSK v5); a chain of long edges, which verify now refuses, decoded at
# 2,574.
DECODE_PEAK_PER_BYTE = 350
DECODE_PEAK_CONSTANT = 1 << 16


def decode_peak(blob: bytes) -> int:
    """Largest tracemalloc peak of ``Estimator(deserialize(blob), mode)``
    over the modes the blob serves."""
    peaks = []
    for mode in ("precomputed", "landmark"):
        tracemalloc.start()
        try:
            model = deserialize(blob)
            if mode == "precomputed" or model.landmarks is not None:
                Estimator(model, mode=mode)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    return max(peaks)


@pytest.mark.parametrize("name", sorted(CASES))
def test_decoder_memory_is_linear_in_the_blob(name):
    blob = _blob(name)
    assert decode_peak(blob) <= DECODE_PEAK_PER_BYTE * len(blob) + DECODE_PEAK_CONSTANT
