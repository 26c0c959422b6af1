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
    "clusters-l2-fine-landmarks": "6f567eb25e82cea686e430ba133005785d222610e38208a45511762e6aafc664",
    "clusters-linf": "feed4cf5a97502db56d8a7dd4d6a043ff02785907ec16287f95fd87ca106dd8d",
    "graph-metric": "b01559927e0db3de4a2ed342e03c08b9e79fec69f3ae5e7832a0a49ec654f6bd",
    "graph-metric-landmarks": "b7e4762e3ed11de1d3ab3d01e24ad0374b1e2463950f3d3dc662cb95366d043a",
    "high-spread-line": "76d615ba85bd62dbfc4e74877bc085aeb71275029472f306d62f5e10264829c8",
    "high-spread-line-512-landmarks": "45709c9e7c68a45389b645b100fb3b064805e201009d50b933035d47c1cfa358",
    "lattice-l1-ties": "4fd5e13e38115d0e619008d14bdec017f7fee4ead23256c8245a314bf4fc7378",
    "lattice-l2-ties-landmarks": "343f46bd60608d5285ecd563e1d771c427f7452e2b131109320906caf97ed754",
    "projected-l2": "08bcc00c17c6ae90942a8a3daeff5dc425806513fe1e427243e8361dfc65b530",
    "uniform-l1-landmarks": "a1373485d2a7977b4ac00aaf6ece19f902fdd9a810b6cbd8c9ad3eebd02b2630",
    "uniform-l1.5": "4b70e4d2dde6e0c30a3a3a73e26c6923a332f57267ceec7218f8dab5dc6e31f1",
    "uniform-l2": "509f4d15e850045c05b2dfe21e142416dfa5693acb17274f513c2c993f391b25",
}


# model-content digest and size_report section bits (tree shape, long gaps,
# centers, ingresses, precisions, displacements, landmarks, padding)
MODELS = {
    "clusters-l2-fine-landmarks": (
        "a9970a445ee2931dd4dd45e40d1c39b779c3bcafdd203cd9161d9bf2216a463d",
        (455, 86, 360, 413, 236, 2589, 269, 0),
    ),
    "clusters-linf": (
        "10b65c2cefbf16ed1c44aea944d4b42f0729b59134021f4eae2877ca8329b20d",
        (467, 24, 560, 553, 238, 3484, 0, 2),
    ),
    "graph-metric": (
        "2e3c916fc4417a910cda85179613423b23535d41dfec9c0e39d9ba777c6462aa",
        (152, 0, 240, 234, 63, 11320, 0, 7),
    ),
    "graph-metric-landmarks": (
        "1b6364e460a854dad0552ddb6a23ea0b11d8e49f1ba508e240f1e1468378600a",
        (104, 0, 150, 145, 41, 6810, 555, 3),
    ),
    "high-spread-line": (
        "184337a73e0ba98ed7f5da448000caf457513d92eca7ee28a75bc9ef985fa40e",
        (77, 22, 100, 95, 44, 137, 0, 5),
    ),
    "high-spread-line-512-landmarks": (
        "f6906fd42aa9145a99838992fd4d405a4e0a65570cf582262d47fb906684831e",
        (77, 36, 100, 95, 42, 137, 3, 6),
    ),
    "lattice-l1-ties": (
        "7faa94adc491743808c172f1d9e9f4a2dbfbf1a61e19614c167139f2128a73c3",
        (266, 0, 384, 378, 149, 1152, 0, 7),
    ),
    "lattice-l2-ties-landmarks": (
        "9669f34a7ad42f7e72be1434b60dc4b58a2b0d38232cee5b2d30b744bfd6e94d",
        (218, 0, 384, 378, 93, 1656, 77, 2),
    ),
    "projected-l2": (
        "0cfb58074f5fe0ec797866641fc14e405677f6544ae4cab9306ae05564de038d",
        (122, 0, 240, 234, 43, 94800, 0, 1),
    ),
    "uniform-l1-landmarks": (
        "dcbd838ee432eac46a4998f4785c3aa10ed9565723c265c7b31bb3798101e7e1",
        (404, 159, 360, 413, 175, 1818, 199, 0),
    ),
    "uniform-l1.5": (
        "fd74c59b5f6e73cabd688d26b69206fb7cd438a1fe6b61dde01953fd1f1cc364",
        (350, 226, 300, 343, 163, 892, 0, 6),
    ),
    "uniform-l2": (
        "8b80169cc52b0f2f33d766d2fd4dc88a664174769e5e48dd20bf86dd2e3eb974",
        (419, 150, 360, 413, 188, 1698, 0, 4),
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
    landmarks = None
    if model.landmarks is not None:
        landmarks = sorted(
            (v, [int(k) for k in ks]) for v, ks in model.landmarks.items()
        )
    content = (
        (model.p, model.epsilon, model.scale, model.spread, model.n, model.d),
        (model.jl_seed, model.jl_orig_dim),
        (tree.level, tree.parent, children, tree.long_edge),
        (tree.leaf_label, 0),
        (center, ingress, model.inv_delta),
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


# Decoder memory: the tracemalloc peak of deserialize plus Estimator stays
# within this many bytes per blob byte, plus a constant.  Measured peaks are
# 62-286 bytes per blob byte here (30-743 KB) and 34-277 on the
# benchmark-scale blobs (2.0-5.3 MB); a chain of long edges, which verify
# now refuses, decoded at 2,574.
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
