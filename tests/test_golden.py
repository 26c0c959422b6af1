"""Golden blobs: the sha256 of a fixed set of small sketches.

A refactor that claims to keep behaviour must leave every digest below
unchanged.  A change of the blob format updates these digests together with
the ``MCSK`` version bump that announces it.

A second digest covers each decoded model's content and stays put across a
change of layout: header scalars, tree, centers, ingresses, grid integers
and landmark ids, beside the bits of every ``size_report`` section.  A new
layout that moves fields but keeps them must leave these unchanged.  (MCSK
v6 dropped the precisions from the blob and from this content; v7's rank
tables moved only the displacement and padding bits.)

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
    "clusters-l2-fine-landmarks": "42e622245e5670cc3bb2883d224c03d951f35b69f86bbbf571665467f2a52e6f",
    "clusters-linf": "c0bf13fc614b157d381677fee35788dbbd043331f9de6b913848920955c1c436",
    "graph-metric": "f082ba25f4f80fbd3fa615eefda99aa81b406bf0a65ffd25b3ff032b1773c198",
    "graph-metric-landmarks": "eee7d898745fc653bfeb3f4396f7610507ed177f3bd1cea9688ca80ddbd179ec",
    "high-spread-line": "a82a9e0462c6045eb4d7c19fb99fa5330265fb1abd259a88801c964d4177db00",
    "high-spread-line-512-landmarks": "7f168a104528dfdc059e750c654cc289e25f57f05bbd6eeb421ba9d316997b1b",
    "lattice-l1-ties": "ce99b042418fd29ba22181047863192a4723627dd893058efc8bfb3c9da6a076",
    "lattice-l2-ties-landmarks": "5b0afbedcf4921d0cdd1085ea639148a0b99c3533944db7d7e9ef1c8c5724214",
    "projected-l2": "6581b3c06a40669235606fca0f3ffe128c3f9e1b71d399fd0c95fc954c6b992e",
    "uniform-l1-landmarks": "cd2ccca2c01a7e7e7ce938ba562779236a35b0a1967396c26d27516aeeab8ab9",
    "uniform-l1.5": "ed34ae54032758d197ffdbe822e5b15a0c8fc369aa064e06de59faff0bc9fcae",
    "uniform-l2": "b5b5e714c611a2d891eb25f8e7808676ebb844c6b8fc92ef696d4f8b254a9982",
}


# model-content digest and size_report section bits (tree shape, long gaps,
# centers, ingresses, precisions (0 since MCSK v6), displacements,
# landmarks, padding)
MODELS = {
    "clusters-l2-fine-landmarks": (
        "6070eaa0f2efce95b0a370b20101c96ce83152b6a83e6cd0b1d40b8b98403d66",
        (455, 86, 360, 198, 0, 1516, 37, 4),
    ),
    "clusters-linf": (
        "23170c859d6aa663dde07a5950867265b7d0c81fe4b1bde57068e344a394926c",
        (467, 24, 560, 287, 0, 2175, 0, 7),
    ),
    "graph-metric": (
        "1f29db31c15d78faa3a97fa9a3f5beb8759cb1277fa90d114d48741c5893cb8c",
        (152, 0, 240, 194, 0, 7098, 0, 4),
    ),
    "graph-metric-landmarks": (
        "00fa5ededf06ad4f5801394a5d3013b07e3b4266ac4e3c38b1f081b769c5494c",
        (104, 0, 150, 145, 0, 4726, 15, 4),
    ),
    "high-spread-line": (
        "c41ae153d5e90b8d6c18ae3505d328a186d964786029d2d23f465bae5a6cb8c3",
        (77, 22, 100, 70, 0, 107, 0, 0),
    ),
    "high-spread-line-512-landmarks": (
        "3d88ef9a45b1eb9c48960dfca379eb77abe160709e7a209c766995e948b0fdee",
        (77, 36, 100, 70, 0, 106, 1, 2),
    ),
    "lattice-l1-ties": (
        "83ff965182b23de045dffacb13a27a5e5890bdd280d4dbb196b2a54bdd6620b8",
        (266, 0, 384, 162, 0, 337, 0, 3),
    ),
    "lattice-l2-ties-landmarks": (
        "beb05a4617c4a772f352df9e35a848763ba99e1f88c418cb27d416b4460d592d",
        (218, 0, 384, 210, 0, 378, 17, 1),
    ),
    "projected-l2": (
        "24f31915048fa39db3c081e08773ba875091cfae7af6dd1d05b8d1da6b61aa10",
        (122, 0, 240, 234, 0, 40996, 0, 0),
    ),
    "uniform-l1-landmarks": (
        "06b5687ca732772a42d3f99ca3dcb4acd835215aae0cb3392e6455944483162a",
        (404, 159, 360, 274, 0, 1018, 29, 4),
    ),
    "uniform-l1.5": (
        "7ba095af690e8badd792735361f0b5cdafdceba6e78173ba13562186a8d23442",
        (350, 226, 300, 216, 0, 553, 0, 3),
    ),
    "uniform-l2": (
        "a385a58517e0d41b6fc3ab31ce59ce401de23aa17b7ee3716fb141ae8e260df4",
        (419, 150, 360, 270, 0, 1007, 0, 2),
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
# 60-168 bytes per blob byte here and 60-134 on the benchmark-scale blobs
# (MCSK v7, whose rank tables shrank the blobs, not the decoded models;
# 57-140 and 52-130 at v6); a chain of long edges, which the decoder now
# refuses (``codec._part_fault``), decoded at 2,574.
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
