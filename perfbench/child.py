"""One benchmark run, executed by ``run.py`` in a fresh process.

Usage (from the root of a checkout, with ``src`` on ``PYTHONPATH``)::

    python3 perfbench/child.py --workload NAME --seed N --seconds S --trace 0|1

The run sets up its instances from the seed, then repeats rounds until
``--seconds`` have passed.  A round sets its instance up again, timed,
builds the blob unless the workload builds it in set-up, and makes a few
passes.  A pass decodes the blob, answers the query pairs in precomputed
and landmark mode, one timed call at a time, and makes one
``estimate_all_pairs`` call.  Every result is checked outside the timed
regions.  The last line of standard output is one JSON object; the exit
code is 0 only when every check passed.  README.md defines the metrics.

With ``--trace 1`` the same rounds run with the package's layer functions
wrapped by ``spans.Tracer``, after untraced reference builds; the output
holds the per-layer metrics instead of the end-to-end ones.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import json
import math
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from scipy.spatial import cKDTree

RESULTS = Path(__file__).resolve().parent / "results"
# each round repeats its instance's set-up at least once and for this long
SETUP_MIN_S = 0.1
# builds on each side of the tracing-overhead comparison
OVERHEAD_BUILDS = 3
# slack on the 4*eps check for rounding in the benchmark's own oracle
ORACLE_RTOL = 1e-9
# seconds the two halves of the host-speed reference take at the fast speed
# of the 2.1 GHz Xeon vCPU this was tuned on; see HostSpeed
REF_PYTHON_S = 0.93e-3
REF_NUMPY_S = 0.93e-3

import mcsketch
from mcsketch import (
    Estimator,
    SketchParams,
    deserialize,
    gen_gaussian_clusters,
    gen_random_graph_metric,
    serialize,
    size_report,
)

from spans import Tracer


@dataclass(frozen=True)
class Workload:
    n: int
    d: int | None  # None: a distance matrix from gen_random_graph_metric
    p: float
    epsilon: float
    build_in_setup: bool
    passes: int  # per round: decode, a query pass in each mode, all-pairs
    instances: int  # seeded instances; rounds take them in turn


# Passes per round are set so that a run samples decodes, queries and
# all-pairs calls about as often as builds, or more often.  The median
# landmark query of a build-clusters instance differs between seeded
# instances by up to a factor of two, so that workload pools twelve
# instances per run.
WORKLOADS = {
    "build-clusters": Workload(1000, 4, 2.0, 1 / 4, False, 3, 12),
    "query-clusters": Workload(2000, 2, 1.0, 1 / 16, True, 10, 1),
    "metric-graph": Workload(400, None, math.inf, 1 / 4, False, 1, 3),
}
# query pairs per instance, half uniform and half nearest-neighbour: 1000
# pairs leave ten beyond the 99th percentile of their per-pair latencies
PAIRS = 1000
# precomputed-mode passes over the pairs per decode; they are cheap, and
# more calls per pair steady the per-pair mean latency
QUERY_REPEATS = 5
# share of each pair's slowest calls left out of its mean latency
TRIM = 0.1

# span targets, by function name; see spans.Tracer
TRACED = [
    "sketch_points",
    "sketch_metric",
    "prepare_points",
    "build_sketch",
    "normalize",
    "oracle_all_pairs",
    "DistanceMatrix.validate",
    "frechet_embed",
    "build_hst",
    "compress",
    "annotate",
    "assign_centers",
    "assign_ingresses",
    "compute_surrogates",
    "select_all_landmarks",
    "serialize",
    "deserialize",
    "Estimator.__init__",
    "Estimator.estimate",
    "Estimator.estimate_all_pairs",
]

# per-layer metric -> (span name, unit factor); the value is mean self time per call
LAYER_TIMES = {
    "core.normalize_s": ("normalize", 1.0),
    "core.oracle_all_pairs_s": ("oracle_all_pairs", 1.0),
    "core.validate_s": ("DistanceMatrix.validate", 1.0),
    "reduce.frechet_embed_s": ("frechet_embed", 1.0),
    "hst.build_hst_s": ("build_hst", 1.0),
    "hst.compress_s": ("compress", 1.0),
    "annotate.assign_centers_s": ("assign_centers", 1.0),
    "annotate.assign_ingresses_s": ("assign_ingresses", 1.0),
    "annotate.compute_surrogates_s": ("compute_surrogates", 1.0),
    "codec.serialize_s": ("serialize", 1.0),
    "codec.deserialize_s": ("deserialize", 1.0),
    "estimate.select_landmarks_s": ("select_all_landmarks", 1.0),
    "estimate.init_s": ("Estimator.__init__[precomputed]", 1.0),
    "estimate.estimate_us": ("Estimator.estimate[precomputed]", 1e6),
    "estimate.landmark_estimate_us": ("Estimator.estimate[landmark]", 1e6),
    "estimate.all_pairs_s": ("Estimator.estimate_all_pairs[precomputed]", 1.0),
    "cli.build_sketch_s": ("build_sketch", 1.0),
}

SECTIONS = [
    "tree_shape_bits",
    "long_gap_bits",
    "center_bits",
    "ingress_bits",
    "precision_bits",
    "displacement_bits",
    "landmark_bits",
    "padding_bits",
]


@dataclass
class Instance:
    data: np.ndarray  # coordinates, or the distance matrix
    pairs: np.ndarray  # (P, 2) query pairs
    blob: bytes | None = None  # built in set-up by read-path workloads
    build_s: float | None = None  # that build's seconds


@dataclass
class Tally:
    """Operations attempted and failed; a failure is an exception or a wrong result."""

    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)

    def op(self, ok: bool = True, what: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.fail(1, what)

    def fail(self, n: int, what: str) -> None:
        """Mark n of the already attempted operations as failed."""
        if n:
            self.failed += n
            self.errors.append(what)


class HostSpeed:
    """The host's speed during the run, from a fixed reference workload.

    On a shared host the same code runs at two speeds, up to 1.8 times
    apart, switching within milliseconds to minutes.  ``sample()`` runs the
    reference, half pure Python and half numpy, between timed operations
    all through the run, and returns that sample's slowdown: each half's
    time over its time at the fast speed, averaged.  ``slowdown()`` is the
    same over the whole run.  A timing divided by a slowdown is the time
    the operation takes at the reference speed.
    """

    POINTS = np.random.default_rng(0).standard_normal((160, 4))

    def __init__(self) -> None:
        self.python: list[float] = []
        self.numpy: list[float] = []
        self.last = 1.0  # the latest sample's slowdown

    @staticmethod
    def ref_python() -> int:
        table: dict[int, int] = {}
        acc = 0
        for i in range(4000):
            k = (i * 2654435761) & 0xFFFF
            table[k] = table.get(k, 0) + i
            acc ^= (k << 3) + (acc >> 5)
        return acc + len(table)

    @classmethod
    def ref_numpy(cls) -> float:
        x = cls.POINTS
        dist = np.sqrt(((x[:, None, :] - x[None, :, :]) ** 2).sum(axis=-1))
        return float(np.sort(dist, axis=1)[:, 1].sum())

    def sample(self) -> float:
        """Runs the reference once; returns this sample's slowdown."""
        clock = time.perf_counter
        start = clock()
        self.ref_python()
        mid = clock()
        self.ref_numpy()
        self.python.append(mid - start)
        self.numpy.append(clock() - mid)
        self.last = 0.5 * (self.python[-1] / REF_PYTHON_S + self.numpy[-1] / REF_NUMPY_S)
        return self.last

    def slowdown(self) -> float:
        return self.report()["slowdown"]

    def report(self) -> dict:
        python = statistics.fmean(self.python) / REF_PYTHON_S
        numpy = statistics.fmean(self.numpy) / REF_NUMPY_S
        return {
            "slowdown": 0.5 * (python + numpy),
            "samples": len(self.python),
            "python_slowdown": python,
            "numpy_slowdown": numpy,
        }


@dataclass
class Samples:
    """Seconds per timed operation.  Per query pass: its latencies and the
    host slowdown around it, the mean of the samples just before and after."""

    setup: list[float] = field(default_factory=list)
    build: list[float] = field(default_factory=list)
    decode: list[float] = field(default_factory=list)
    query: list[tuple[np.ndarray, float]] = field(default_factory=list)
    landmark_query: list[tuple[np.ndarray, float]] = field(default_factory=list)
    all_pairs: list[float] = field(default_factory=list)


# --------------------------------------------------------------------------
# Set-up: instance, query pairs and (for read-path workloads) the blob.


def params(w: Workload) -> SketchParams:
    return SketchParams(epsilon=w.epsilon, landmarks=True)


def build(w: Workload, data: np.ndarray) -> bytes:
    # through the package attribute, so a traced run records the top span
    if w.d is None:
        return mcsketch.sketch_metric(data, params(w))
    return mcsketch.sketch_points(data, w.p, params(w))


def query_pairs(w: Workload, data: np.ndarray, seed: int) -> np.ndarray:
    """Half uniform random pairs, half (point, nearest neighbour) pairs."""
    rng = np.random.default_rng([seed, 1])
    half = PAIRS // 2
    xs = rng.integers(0, w.n, size=half)
    ys = (xs + rng.integers(1, w.n, size=half)) % w.n
    src = rng.integers(0, w.n, size=PAIRS - half)
    if w.d is None:
        rows = data[src].copy()
        rows[np.arange(src.size), src] = np.inf
        nn = rows.argmin(axis=1)
    else:
        _, idx = cKDTree(data).query(data[src], k=2, p=w.p)
        nn = idx[:, 1]
    pairs = np.concatenate([np.stack([xs, ys], 1), np.stack([src, nn], 1)])
    return pairs[rng.permutation(len(pairs))].astype(np.int64)


def make_instance(w: Workload, seed: int) -> Instance:
    if w.d is None:
        data = gen_random_graph_metric(w.n, seed)
    else:
        data = gen_gaussian_clusters(w.n, w.d, seed)
    inst = Instance(data=data, pairs=query_pairs(w, data, seed))
    if w.build_in_setup:
        start = time.perf_counter()
        inst.blob = build(w, data)
        inst.build_s = time.perf_counter() - start
    return inst


# --------------------------------------------------------------------------
# The benchmark's own oracle, independent of the package.


def lp(diff: np.ndarray, p: float) -> np.ndarray:
    """lp norm along the last axis of a difference array."""
    diff = np.abs(diff)
    if p == 1.0:
        return diff.sum(axis=-1)
    if p == 2.0:
        return np.sqrt((diff * diff).sum(axis=-1))
    if math.isinf(p):
        return diff.max(axis=-1)
    return (diff**p).sum(axis=-1) ** (1.0 / p)


def exact_rows(w: Workload, data: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Exact distances from the given labels to every point."""
    if w.d is None:
        return data[rows]
    return lp(data[rows][:, None, :] - data[None, :, :], w.p)


def exact_pairs(w: Workload, data: np.ndarray, pairs: np.ndarray) -> np.ndarray:
    if w.d is None:
        return data[pairs[:, 0], pairs[:, 1]]
    return lp(data[pairs[:, 0]] - data[pairs[:, 1]], w.p)


def all_pairs_error(w: Workload, data: np.ndarray, est: np.ndarray) -> float:
    """Max relative error over all pairs i != j, in chunks of rows."""
    worst = 0.0
    for s in range(0, w.n, 256):
        rows = np.arange(s, min(s + 256, w.n))
        exact = exact_rows(w, data, rows)
        exact[np.arange(rows.size), rows] = np.nan
        rel = np.abs(est[rows] - exact) / exact
        worst = max(worst, float(np.nanmax(rel)))
    return worst


# --------------------------------------------------------------------------
# Rounds.


class Runner:
    """Timed rounds on one instance, and the checks of their results."""

    def __init__(
        self, w: Workload, seed: int, tally: Tally, speed: HostSpeed, tracer: Tracer | None = None
    ) -> None:
        self.w = w
        self.seed = seed
        self.tally = tally
        self.speed = speed
        # checks run with tracing paused, so their calls record no spans
        self.untraced = tracer.paused if tracer else contextlib.nullcontext
        self.samples = Samples()
        self.inst = self.timed_setup()
        self.bound = 4.0 * params(w).epsilon
        self.exact = exact_pairs(w, self.inst.data, self.inst.pairs)
        self.ref_blob = self.inst.blob
        self.ref_estimates: np.ndarray | None = None
        self.ref_matrix_sha: str | None = None
        self.roundtrip_checked = False
        self.worst_rel = 0.0
        self.rounds = 0

    def timed_setup(self) -> Instance:
        start = time.perf_counter()
        inst = make_instance(self.w, self.seed)
        self.samples.setup.append(time.perf_counter() - start)
        if inst.build_s is not None:
            self.samples.build.append(inst.build_s)
        return inst

    def repeat_setup(self) -> None:
        """Set the instance up again, at least once and for SETUP_MIN_S, so
        that set-up times are sampled all through the run; each set-up must
        give the same instance."""
        spent = 0.0
        while spent == 0.0 or spent < SETUP_MIN_S:
            inst = self.timed_setup()
            spent += self.samples.setup[-1]
            same = np.array_equal(inst.data, self.inst.data) and np.array_equal(
                inst.pairs, self.inst.pairs
            )
            self.tally.op(same, "set-up gives a different instance")
            if inst.blob is not None:
                self.check_blob(inst.blob)

    def timed_build(self) -> tuple[bytes, float]:
        start = time.perf_counter()
        blob = build(self.w, self.inst.data)
        return blob, time.perf_counter() - start

    def check_blob(self, blob: bytes) -> None:
        """Builds are deterministic and the codec round-trips."""
        if self.ref_blob is None:
            self.ref_blob = blob
        self.tally.op(blob == self.ref_blob, "build differs from the first build")
        if not self.roundtrip_checked:
            self.roundtrip_checked = True
            with self.untraced():
                ok = serialize(deserialize(blob)) == blob
            self.tally.fail(0 if ok else 1, "serialize(deserialize(blob)) != blob")

    def one_round(self) -> None:
        """Set-up, build and passes, with a host-speed sample after each
        timed operation or query pass."""
        sample = self.speed.sample
        self.repeat_setup()
        sample()
        if not self.w.build_in_setup:
            blob, secs = self.timed_build()
            self.samples.build.append(secs)
            sample()
            self.check_blob(blob)
        # decoded untimed once per round and dropped with it, so that no
        # instance holds decoded state between its rounds (every build
        # gives the same blob, checked)
        landmark = Estimator(self.ref_blob, mode="landmark")
        self.tally.op()
        for _ in range(self.w.passes):
            self.one_pass(landmark)
        self.rounds += 1
        del landmark
        # the round's garbage, cycles included, goes before the next round,
        # so that peak RSS does not depend on when the collector last ran
        gc.collect()

    def one_pass(self, landmark: Estimator) -> None:
        """Decode, query passes in both modes and one all-pairs call; the
        pass's estimator and matrix are dropped when it returns."""
        s, clock = self.samples, time.perf_counter
        start = clock()
        est = Estimator(self.ref_blob)
        s.decode.append(clock() - start)
        self.speed.sample()
        self.tally.op()
        pres = [self.query_pass(est, s.query) for _ in range(QUERY_REPEATS)]
        lmk = self.query_pass(landmark, s.landmark_query)
        start = clock()
        matrix = est.estimate_all_pairs()
        s.all_pairs.append(clock() - start)
        self.speed.sample()
        with self.untraced():
            self.check_pass(pres, lmk, matrix)

    def query_pass(self, est: Estimator, passes: list) -> np.ndarray:
        """One pass over the pairs, one timed call at a time (a closed loop
        with one caller), then a host-speed sample; appends the pass's
        latencies and the slowdown around it to ``passes``."""
        before = self.speed.last
        clock = time.perf_counter
        out = np.empty(PAIRS)
        lat = np.empty(PAIRS)
        for i, (x, y) in enumerate(self.inst.pairs.tolist()):
            start = clock()
            out[i] = est.estimate(x, y)
            lat[i] = clock() - start
        passes.append((lat, 0.5 * (before + self.speed.sample())))
        return out

    def check_pass(self, pres: list[np.ndarray], lmk: np.ndarray, matrix: np.ndarray) -> None:
        """Checks one pass's estimates in both modes and its all-pairs matrix."""
        tally = self.tally
        pre = pres[0]
        tally.attempted += sum(a.size for a in pres) + lmk.size
        tally.fail(sum(int((a != pre).sum()) for a in pres[1:]), "repeated estimate differs")
        rel = np.abs(pre - self.exact) / self.exact
        tally.fail(
            int((rel > self.bound * (1 + ORACLE_RTOL)).sum()),
            "estimate outside 4*eps of the exact distance",
        )
        if self.ref_estimates is None:
            self.ref_estimates = pre
        tally.fail(int((pre != self.ref_estimates).sum()), "repeated estimate differs")
        tally.fail(int((lmk != pre).sum()), "landmark estimate != precomputed estimate")
        self.worst_rel = max(self.worst_rel, float(rel.max()))
        ij = self.inst.pairs
        sha = hashlib.sha256(matrix.tobytes()).hexdigest()
        if self.ref_matrix_sha is None:
            self.ref_matrix_sha = sha
        ok = bool(np.array_equal(matrix[ij[:, 0], ij[:, 1]], pre))
        tally.op(ok and sha == self.ref_matrix_sha, "estimate_all_pairs disagrees with estimate")

    def check_all_pairs(self) -> None:
        """Recompute the all-pairs matrix, untimed, and check it equals the
        timed ones and is within 4*eps on every pair.  Called after the peak
        RSS is read, so the oracle's temporaries do not count in it."""
        matrix = Estimator(self.ref_blob).estimate_all_pairs()
        sha = hashlib.sha256(matrix.tobytes()).hexdigest()
        self.worst_rel = max(self.worst_rel, all_pairs_error(self.w, self.inst.data, matrix))
        ok = sha == self.ref_matrix_sha and self.worst_rel <= self.bound * (1 + ORACLE_RTOL)
        self.tally.op(ok, "estimate_all_pairs disagrees with the timed calls or the 4*eps bound")


def run_rounds(runners: list[Runner], seconds: float) -> None:
    """Rounds over the instances in turn, each at least once, for ``seconds``."""
    start = time.perf_counter()
    i = 0
    while i < len(runners) or time.perf_counter() - start < seconds:
        runners[i % len(runners)].one_round()
        i += 1


# --------------------------------------------------------------------------
# Reports.


def pair_percentile(runs: list[list[tuple]], q: float, local: bool) -> float:
    """q-th percentile, in microseconds, over all instances' pairs of each
    pair's trimmed mean latency; ``runs`` holds each instance's passes.
    With ``local``, each pass's latencies are divided by the slowdown
    around that pass."""
    means = [trimmed_mean([lat / k if local else lat for lat, k in p]) for p in runs]
    return 1e6 * float(np.percentile(np.concatenate(means), q))


def trimmed_mean(passes: list[np.ndarray]) -> np.ndarray:
    """Each pair's mean latency over the passes without its slowest
    TRIM share of calls, which drops calls hit by a timer interrupt or a
    garbage collection."""
    lat = np.sort(np.stack(passes), axis=0)
    keep = max(1, round((1 - TRIM) * len(lat)))
    return lat[:keep].mean(axis=0)


def at_reference_speed(metrics: dict, slowdown: float) -> dict:
    """Per-layer timings divided by the run's host slowdown; other figures
    as they are."""
    return {
        k: (v / slowdown if u in ("s", "us") else v, u) for k, (v, u) in metrics.items()
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(w: Workload, runners: list[Runner], rss: float, slowdown: float | None) -> dict:
    """Statistics over the run's repetitions on all instances.  With the
    run's host ``slowdown`` they are at the reference speed: query latencies
    divided by the slowdown around their pass, the other timings by the
    run's.  With None, as measured.  README.md says why each timing uses
    the statistic it does."""
    k = slowdown or 1.0
    local = slowdown is not None

    def pooled(get) -> list[float]:
        return [x for r in runners for x in get(r.samples)]

    query = [r.samples.query for r in runners]
    landmark = [r.samples.landmark_query for r in runners]
    return {
        "setup_s": (statistics.median(pooled(lambda s: s.setup)) / k, "s"),
        "build_s": (statistics.fmean(pooled(lambda s: s.build)) / k, "s"),
        "peak_rss_mb": (rss, "MB"),
        "bits_per_point": (statistics.fmean(8 * len(r.ref_blob) / w.n for r in runners), "bit"),
        "decode_s": (statistics.fmean(pooled(lambda s: s.decode)) / k, "s"),
        "query_p50_us": (pair_percentile(query, 50, local), "us"),
        "query_p99_us": (pair_percentile(query, 99, local), "us"),
        "landmark_query_p50_us": (pair_percentile(landmark, 50, local), "us"),
        "landmark_query_p99_us": (pair_percentile(landmark, 99, local), "us"),
        "all_pairs_s": (statistics.fmean(pooled(lambda s: s.all_pairs)) / k, "s"),
    }


def tau_max_degree(ann) -> int:
    """Largest node degree (children plus parent) in any tau-tree."""
    deg = 0
    for tt in ann.tau.values():
        for v, kids in tt.children.items():
            deg = max(deg, len(kids) + (tt.parent[v] is not None))
    return deg


def ingress_depths(ingress: list) -> list[int]:
    """Hops from each node up its ingress chain to the part root."""
    depth: list[int | None] = [None] * len(ingress)
    for v in range(len(ingress)):
        chain = []
        cur = v
        while depth[cur] is None and ingress[cur] is not None:
            chain.append(cur)
            cur = ingress[cur]
        base = depth[cur] if depth[cur] is not None else 0
        depth[cur] = base
        for node in reversed(chain):
            base += 1
            depth[node] = base
    return depth


def per_layer(tracer: Tracer, traced: dict, hops: list[int]) -> dict:
    """Self times over the whole traced run; counts of the first instance's
    traced build, whose results ``traced`` holds."""
    table = tracer.self_times()
    out = {}
    for metric, (span, factor) in LAYER_TIMES.items():
        row = table.get(span)
        value = factor * row["self_s"] / row["calls"] if row else 0.0
        out[metric] = (value, "us" if factor == 1e6 else "s")
    # a target that no longer exists captured no result; its counts read 0
    blob, hst, res = traced["blob"], traced["build_hst"], traced["build_sketch"]
    depths = ingress_depths(res.ann.ingress) if res else [0]
    out["hst.nodes_uncompressed"] = (hst[0].n_nodes if hst else 0, "count")
    out["hst.nodes"] = (res.tree.n_nodes if res else 0, "count")
    out["hst.long_edges"] = (sum(res.tree.long_edge) if res else 0, "count")
    out["annotate.tau_max_degree"] = (tau_max_degree(res.ann) if res else 0, "count")
    out["annotate.ingress_depth_max"] = (max(depths), "count")
    out["annotate.ingress_depth_mean"] = (statistics.fmean(depths), "count")
    sizes = size_report(blob)
    for sec in SECTIONS:
        out[f"codec.{sec}"] = (getattr(sizes, sec), "bit")
    out["estimate.landmarks"] = (len(deserialize(blob).landmarks or {}), "count")
    out["estimate.hops_mean"] = (statistics.fmean(hops) if hops else 0.0, "count")
    out["estimate.hops_max"] = (max(hops, default=0), "count")
    out["trace.overhead_s"] = (traced["overhead_s"], "s")
    return out


def fingerprint(blob: bytes) -> dict:
    sizes = size_report(blob)
    return {
        "sha256": hashlib.sha256(blob).hexdigest(),
        "bytes": len(blob),
        "sections_bits": {sec: getattr(sizes, sec) for sec in SECTIONS},
    }


# --------------------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    w = WORKLOADS[args.workload]
    tally = Tally()
    speed = HostSpeed()
    record: dict = {"workload": args.workload, "seed": args.seed, "trace": args.trace}
    runners: list[Runner] = []
    tracer = None
    traced: dict = {}
    hops: list[int] = []
    crashed = False
    try:
        if args.trace:
            tracer = Tracer(
                "mcsketch",
                TRACED,
                probes={"Estimator.shifted_surrogate": lambda a, r: count_hops(hops, a[0])},
            )
        seeds = [args.seed * w.instances + i for i in range(w.instances)]
        runners = [Runner(w, seed, tally, speed, tracer) for seed in seeds]
        if args.trace:
            traced = traced_run(runners, tracer, args.seconds)
        else:
            run_rounds(runners, args.seconds)
    except Exception:  # an exception anywhere in the program is a failed operation
        crashed = True
        tally.op(False, traceback.format_exc(limit=-3))
    rss = peak_rss_mb()
    completed = not crashed and all(r.rounds > 0 for r in runners)
    if completed:
        try:
            for r in runners:
                r.check_all_pairs()
        except Exception:
            completed = False
            tally.op(False, traceback.format_exc(limit=-3))

    metrics = {}
    if completed:
        slowdown = speed.slowdown()
        if args.trace:
            measured = per_layer(tracer, traced, hops)
            metrics = at_reference_speed(measured, slowdown)
            record.update((k, v) for k, v in traced.items() if k.endswith(("_s", "sha256")))
            record["missing_targets"] = tracer.missing
        else:
            measured = end_to_end(w, runners, rss, None)
            metrics = end_to_end(w, runners, rss, slowdown)
        record["host"] = speed.report()
        record["measured"] = {k: {"value": v, "unit": u} for k, (v, u) in measured.items()}
        record["error_budget_used"] = max(r.worst_rel for r in runners) / runners[0].bound
        record["instances"] = [instance_record(r) for r in runners]
    record.update(
        attempted=tally.attempted,
        failed=tally.failed,
        failed_ops_frac=tally.failed / max(1, tally.attempted),
        errors=tally.errors[:20],
        metrics={k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    )
    write_results(args, record, tracer)

    for k, (v, u) in metrics.items():
        print(f"{args.workload} {k} = {v:.6g} {u}")
    print(f"{args.workload} failed_ops_frac = {record['failed_ops_frac']:.6g} ratio")
    if completed:
        print(f"{args.workload} host_slowdown = {record['host']['slowdown']:.6g} ratio")
        print(f"{args.workload} error_budget_used = {record['error_budget_used']:.6g} ratio")
        for inst in record["instances"]:
            print(f"{args.workload} blob_sha256 = {inst['blob']['sha256']}")
    for err in tally.errors[:5]:
        print(f"{args.workload} FAILED: {err.strip()}")
    correct = completed and tally.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": record["metrics"],
    }))
    return 0 if correct else 1


def instance_record(r: Runner) -> dict:
    """Blob fingerprint and every repetition's figures for one instance."""
    s = r.samples
    return {
        "blob": fingerprint(r.ref_blob),
        "rounds": r.rounds,
        "repetitions": {
            "setup_s": s.setup,
            "build_s": s.build,
            "decode_s": s.decode,
            "all_pairs_s": s.all_pairs,
            **{
                f"{name}_p{q}_us": [1e6 * float(np.percentile(lat, q)) for lat, _ in passes]
                for name, passes in (("query", s.query), ("landmark_query", s.landmark_query))
                for q in (50, 99)
            },
        },
    }


def count_hops(hops: list[int], est) -> None:
    """Probe on Estimator.shifted_surrogate: ingress hops of one replay."""
    if est.mode == "landmark":
        hops.append(est.last_hops)


def traced_run(runners: list[Runner], tracer: Tracer, seconds: float) -> dict:
    """OVERHEAD_BUILDS untraced builds of the first instance, then as many
    traced builds of it, then the traced rounds.  All of these builds are
    warm: a workload that builds in set-up has built already, and the others
    make one untimed build first.  The overhead is the difference of the
    median traced and the median untraced build."""
    first = runners[0]
    if first.inst.blob is None:
        first.check_blob(first.timed_build()[0])
    untraced = [first.timed_build() for _ in range(OVERHEAD_BUILDS)]
    tracer.install()
    tracer.enabled = True
    try:
        traced_builds = [first.timed_build() for _ in range(OVERHEAD_BUILDS)]
        traced = {k: tracer.last.get(k) for k in ("build_hst", "build_sketch")}
        run_rounds(runners, seconds)
    finally:
        tracer.enabled = False
        tracer.uninstall()
    for blob, _ in untraced + traced_builds:
        first.check_blob(blob)
    ref_s = statistics.median(secs for _, secs in untraced)
    traced_s = statistics.median(secs for _, secs in traced_builds)
    return {
        **traced,
        "blob": untraced[0][0],
        "untraced_build_s": ref_s,
        "traced_build_s": traced_s,
        "overhead_s": traced_s - ref_s,
        "untraced_blob_sha256": hashlib.sha256(untraced[0][0]).hexdigest(),
        "traced_blob_sha256": hashlib.sha256(traced_builds[0][0]).hexdigest(),
    }


def write_results(args, record: dict, tracer: Tracer | None) -> None:
    RESULTS.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if tracer is not None:
        record["self_times"] = tracer.self_times()
        record["span_tree"] = tracer.tree()
        (RESULTS / f"{stem}-spans.json").write_text(json.dumps(tracer.span_records()))
    (RESULTS / f"{stem}.json").write_text(json.dumps(record, indent=1))


if __name__ == "__main__":
    sys.exit(main())
