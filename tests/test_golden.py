"""Golden blobs: the sha256 of a fixed set of small sketches.

A refactor that claims to keep behaviour must leave every digest below
unchanged.  A change of the blob format updates these digests together with
the ``MCSK`` version bump that announces it.

A second digest covers each decoded model's content and stays put across a
change of layout: header scalars, tree, centers, ingresses, grid integers
and landmark ids, beside the bits of every ``size_report`` section.  A new
layout that moves fields but keeps them must leave these unchanged.  (MCSK
v6 dropped the precisions from the blob and from this content; v7's rank
tables moved only the displacement and padding bits, and v8's tree columns
only the shape, gap, ingress and padding bits.)

The cases cover p in {1, 2, inf, 1.5}, metric inputs (Frechet embedding of a
graph metric), a high-spread line with long edges, a spread near 2^512 whose
exact shifts outgrow int64 (K + 2 > 62), landmark tables on and off, a random projection, and an integer
lattice whose many equal distances exercise every tie-breaking rule.
"""

import functools
import hashlib
import itertools
import struct
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

from _reference import children_of, verify_tree


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
    "clusters-l2-fine-landmarks": "c72ff48f7cec1281eacd514ec63bba66f0a6ff94c59b29c32e153276b791f023",
    "clusters-linf": "7ff3c516b616f9bbe2869e02bb9fab7bd4ea4460a81ec69aa417b721ed30a69a",
    "graph-metric": "e696798c97db6f4275aacc3e72b849c8cc0e172b5d1aa3c61c3d8176eee8de3a",
    "graph-metric-landmarks": "a195c07eb4eeea5c7c3fe59fb3da6ab84a9608f04df941b0792cf2dc008f6ddb",
    "high-spread-line": "b47e849254a101d821b28e5b207e484f11bb2ed557e60f65b42cd2940f828ca5",
    "high-spread-line-512-landmarks": "0a1b38fdf6e1b573ab4ab625d53f1e577f2383654982ddfb218114170ad78bf4",
    "lattice-l1-ties": "efd1065e3bc325d7baa4d5ab8ea9c274f09fdf381a821f7497b97d9ac366a169",
    "lattice-l2-ties-landmarks": "79331c4858a790eb3f5ca434a83985597a7e946ed944eaec79b6a7182144612f",
    "projected-l2": "df51b67054dab7648a969550eef81e1a73cdac31683e736eef8590f0ceea82cd",
    "uniform-l1-landmarks": "008f04580e5b3e3ca5f1bb6fa457404b412ba7144bc638f99f901d93f2d38a95",
    "uniform-l1.5": "b81d43def68549a5f08bffe609cf0f5404f493bb465216b5538ac70484d8a84d",
    "uniform-l2": "9b5b71eade34b7985d8e5b1dd8727a5ee5346b6d8fbacf2449a29e8c1e26b15e",
}


# model-content digest and size_report section bits (tree shape, long gaps,
# centers, ingresses, precisions (0 since MCSK v6), displacements,
# landmarks, padding)
MODELS = {
    "clusters-l2-fine-landmarks": (
        "6070eaa0f2efce95b0a370b20101c96ce83152b6a83e6cd0b1d40b8b98403d66",
        (375, 33, 360, 172, 0, 1516, 37, 3),
    ),
    "clusters-linf": (
        "23170c859d6aa663dde07a5950867265b7d0c81fe4b1bde57068e344a394926c",
        (366, 16, 560, 281, 0, 2175, 0, 2),
    ),
    "graph-metric": (
        "1f29db31c15d78faa3a97fa9a3f5beb8759cb1277fa90d114d48741c5893cb8c",
        (109, 0, 240, 194, 0, 7098, 0, 7),
    ),
    "graph-metric-landmarks": (
        "00fa5ededf06ad4f5801394a5d3013b07e3b4266ac4e3c38b1f081b769c5494c",
        (73, 0, 150, 145, 0, 4726, 15, 3),
    ),
    "high-spread-line": (
        "c41ae153d5e90b8d6c18ae3505d328a186d964786029d2d23f465bae5a6cb8c3",
        (54, 17, 100, 65, 0, 107, 0, 1),
    ),
    "high-spread-line-512-landmarks": (
        "3d88ef9a45b1eb9c48960dfca379eb77abe160709e7a209c766995e948b0fdee",
        (54, 24, 100, 65, 0, 106, 1, 2),
    ),
    "lattice-l1-ties": (
        "83ff965182b23de045dffacb13a27a5e5890bdd280d4dbb196b2a54bdd6620b8",
        (182, 0, 384, 162, 0, 337, 0, 7),
    ),
    "lattice-l2-ties-landmarks": (
        "beb05a4617c4a772f352df9e35a848763ba99e1f88c418cb27d416b4460d592d",
        (146, 0, 384, 210, 0, 378, 17, 1),
    ),
    "projected-l2": (
        "24f31915048fa39db3c081e08773ba875091cfae7af6dd1d05b8d1da6b61aa10",
        (82, 0, 240, 234, 0, 40996, 0, 0),
    ),
    "uniform-l1-landmarks": (
        "06b5687ca732772a42d3f99ca3dcb4acd835215aae0cb3392e6455944483162a",
        (328, 73, 360, 225, 0, 1018, 29, 7),
    ),
    "uniform-l1.5": (
        "7ba095af690e8badd792735361f0b5cdafdceba6e78173ba13562186a8d23442",
        (285, 140, 300, 165, 0, 553, 0, 5),
    ),
    "uniform-l2": (
        "a385a58517e0d41b6fc3ab31ce59ce401de23aa17b7ee3716fb141ae8e260df4",
        (341, 69, 360, 221, 0, 1007, 0, 2),
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
        (center, ingress),
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
    model = deserialize(blob)
    verify_tree(model.tree)
    assert _model_digest(model) == digest
    assert _sections(blob) == sections


@pytest.mark.parametrize("name", sorted(CASES))
def test_precision_section_is_empty(name):
    # the blob stores no precision since MCSK v6; the field stays, at 0,
    # for readers of the old section name, and the rest still sum up
    blob = _blob(name)
    rep = size_report(blob)
    assert rep.precision_bits == 0
    # the header's payload bit length, the last field before the payload
    (bits,) = struct.unpack_from("<Q", blob, rep.header_bytes - 8)
    assert sum(_sections(blob)[:-1]) == rep.payload_bits == bits
    assert bits + rep.padding_bits == 8 * (rep.total_bytes - rep.header_bytes - rep.crc_bytes)


# Decoder memory: the tracemalloc peak of deserialize plus Estimator stays
# within this many bytes per blob byte, plus a constant.  Measured peaks are
# 60-178 bytes per blob byte here and 60-145 on the benchmark-scale blobs
# (MCSK v8, whose tree columns shrank the blobs, not the decoded models;
# 60-168 and 60-134 at v7, 57-140 and 52-130 at v6); a chain of long
# edges, which the decoder now refuses (``codec._chain_fault``), decoded
# at 2,574.
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
