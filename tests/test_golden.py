"""Golden blobs: the sha256 of a fixed set of small sketches.

A refactor that claims to keep behaviour must leave every digest below
unchanged.  A change of the blob format updates these digests together with
the ``MCSK`` version bump that announces it.

A second digest covers each decoded model's content and stays put across a
change of layout: header scalars, tree, centers, ingresses, grid integers
and landmark ids, beside the bits of every ``size_report`` section.  A new
layout that moves fields but keeps them must leave these unchanged.  (MCSK
v6 dropped the precisions from the blob and from this content.)

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
    "clusters-l2-fine-landmarks": "50c64347c9b80cf62f20a44e765ee081baf0b5568e59be520be80018f13d4b66",
    "clusters-linf": "a81a69f50467b7bcd5f99b313cc3d4ecfe9fd30f2cd924465a6418d4cf1907b2",
    "graph-metric": "fac458a75286b8a16e972818d7932b5182c3917ed4c0c7d076e98bc3133c25e6",
    "graph-metric-landmarks": "8cf365e6de597be157d4986ca6ed3cd312de8a8bda3fb8573110a4adfc3130e6",
    "high-spread-line": "578af1340d6343e8b608a99540dca4226f410df2157e6a3b364d9a805429dbb0",
    "high-spread-line-512-landmarks": "f6ff2b01c6f65e5a7217d028710019bd72fed3f95c6238b26a58b40e7c020a41",
    "lattice-l1-ties": "364a0fe47eed0fb8b26d5d6519f79745d053b6f14d32d0e35b3ef7326fad39e0",
    "lattice-l2-ties-landmarks": "0551ed6e2b4a251f938bc4007dad06665b50d9b100b5f633f8410c84002f12c2",
    "projected-l2": "a93ff3393cdf92352115da66625adf30c90154aa636a9ec3577736ee72d9991d",
    "uniform-l1-landmarks": "6a16d70ed55ce74e1724d25722d62cef18a53624010a72fcc79d29912c42fd86",
    "uniform-l1.5": "45c660b7feb52621dce8aea5e377720c61610a2dae59e4f37a2d8c2482eda050",
    "uniform-l2": "1060e40b825e7b2d7b0c9c79ce89e7a5caae38e1c5f2a33f46bb357487b270af",
}


# model-content digest and size_report section bits (tree shape, long gaps,
# centers, ingresses, precisions (0 since MCSK v6), displacements,
# landmarks, padding)
MODELS = {
    "clusters-l2-fine-landmarks": (
        "6070eaa0f2efce95b0a370b20101c96ce83152b6a83e6cd0b1d40b8b98403d66",
        (455, 86, 360, 198, 0, 1550, 37, 2),
    ),
    "clusters-linf": (
        "23170c859d6aa663dde07a5950867265b7d0c81fe4b1bde57068e344a394926c",
        (467, 24, 560, 287, 0, 2200, 0, 6),
    ),
    "graph-metric": (
        "1f29db31c15d78faa3a97fa9a3f5beb8759cb1277fa90d114d48741c5893cb8c",
        (152, 0, 240, 194, 0, 8114, 0, 4),
    ),
    "graph-metric-landmarks": (
        "00fa5ededf06ad4f5801394a5d3013b07e3b4266ac4e3c38b1f081b769c5494c",
        (104, 0, 150, 145, 0, 5147, 15, 7),
    ),
    "high-spread-line": (
        "c41ae153d5e90b8d6c18ae3505d328a186d964786029d2d23f465bae5a6cb8c3",
        (77, 22, 100, 70, 0, 124, 0, 7),
    ),
    "high-spread-line-512-landmarks": (
        "3d88ef9a45b1eb9c48960dfca379eb77abe160709e7a209c766995e948b0fdee",
        (77, 36, 100, 70, 0, 123, 1, 1),
    ),
    "lattice-l1-ties": (
        "83ff965182b23de045dffacb13a27a5e5890bdd280d4dbb196b2a54bdd6620b8",
        (266, 0, 384, 162, 0, 668, 0, 0),
    ),
    "lattice-l2-ties-landmarks": (
        "beb05a4617c4a772f352df9e35a848763ba99e1f88c418cb27d416b4460d592d",
        (218, 0, 384, 210, 0, 1116, 17, 7),
    ),
    "projected-l2": (
        "24f31915048fa39db3c081e08773ba875091cfae7af6dd1d05b8d1da6b61aa10",
        (122, 0, 240, 234, 0, 41252, 0, 0),
    ),
    "uniform-l1-landmarks": (
        "06b5687ca732772a42d3f99ca3dcb4acd835215aae0cb3392e6455944483162a",
        (404, 159, 360, 274, 0, 1037, 29, 1),
    ),
    "uniform-l1.5": (
        "7ba095af690e8badd792735361f0b5cdafdceba6e78173ba13562186a8d23442",
        (350, 226, 300, 216, 0, 572, 0, 0),
    ),
    "uniform-l2": (
        "a385a58517e0d41b6fc3ab31ce59ce401de23aa17b7ee3716fb141ae8e260df4",
        (419, 150, 360, 270, 0, 1019, 0, 6),
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
# 57-139 bytes per blob byte here and 52-131 on the benchmark-scale blobs
# (MCSK v6; 59-154 and 52-136 at v5, whose blobs were larger); a chain of
# long edges, which the decoder now refuses (``codec._part_fault``),
# decoded at 2,574.
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
