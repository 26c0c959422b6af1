"""End-to-end acceptance gate: one test (and one pass/fail line) per criterion.

Criteria 1-4 and 10 share a 720-instance corpus (36 parameter combinations
x 20 seeded instances) built once per session by the ``corpus`` fixture.
Each test prints ``criterion NN PASS/FAIL: <measurement>`` before asserting.
"""

import itertools
import math
import time
import zlib

import numpy as np
import pytest

from mcsketch import net, reduce
from mcsketch._bitio import pack_fields
from mcsketch.pipeline import (
    build_sketch,
    gen_high_spread_line,
    gen_gaussian_clusters,
    gen_random_graph_metric,
    gen_uniform,
    prepare_points,
)
from mcsketch.codec import (
    _read_heads,
    _read_rice,
    _rice_columns,
    deserialize,
    serialize,
    size_report,
)
from mcsketch.core import (
    DistanceMatrix,
    FormatError,
    SketchError,
    SketchParams,
    k_parameter,
    normalize,
    oracle_all_pairs,
)
from mcsketch.core import _lp_reduce
from mcsketch.estimate import Estimator
from mcsketch.reduce import frechet_embed

import _reference as ref
from _reference import subtree_decomposition

# --------------------------------------------------------------------------
# Shared corpus: p x n x d x eps grid, 20 seeded instances per combination.

P_VALUES = (1.0, 2.0, math.inf)
N_VALUES = (50, 200)
D_VALUES = (2, 10)
EPS_VALUES = (0.5, 0.25, 0.0625)
INSTANCES_PER_CONFIG = 20


def _instance_coords(n, d, k, seed):
    if k % 2 == 0:
        return gen_uniform(n, d, seed)
    return gen_gaussian_clusters(n, d, seed)


def _anchor_chain_max(tree, ann, anchors):
    """Longest ingress-pointer walk from any node to its nearest anchor."""
    depth = {a: 0 for a in anchors}
    for v in range(tree.n_nodes):
        path = []
        u = v
        while u not in depth:
            path.append(u)
            u = ann.ingress[u]
        base = depth[u]
        for node in reversed(path):
            base += 1
            depth[node] = base
    return max(depth.values())


def _measure_instance(coords, p, eps):
    """Build one sketch and take every corpus measurement in a single pass."""
    ps = normalize(coords, p)
    params = SketchParams(epsilon=eps, landmarks=True, jl_enabled=False)
    t_build0 = time.perf_counter()
    res = build_sketch(ps, params)
    # one decode of the blob serves both modes; an Estimator never writes
    # to its model (test_estimators_from_one_model_leave_it_untouched)
    model = deserialize(res.blob)
    est = Estimator(model)
    estimates = est.estimate_all_pairs()
    t_build = time.perf_counter() - t_build0

    dm = oracle_all_pairs(ps)
    oracle = dm * ps.scale
    iu = np.triu_indices(ps.n, k=1)
    rel = np.abs(estimates[iu] - oracle[iu]) / oracle[iu]

    tree, clusters, ann, table = res.tree, res.clusters, res.ann, res.table
    roots = set(subtree_decomposition(tree).roots)

    # every node's surrogate error in one reduction; each row reduces as
    # it would alone (test_pair_blocks_match_rows_one_at_a_time)
    err = _lp_reduce(ps.coords[ann.center] - table.s_star, p)
    lims = np.ldexp(1.0, tree.level)
    surr_ratio = float((err / lims).max())
    leaf = ~tree.has_short
    leaf_ratio = float((err[leaf] / (params.epsilon * lims[leaf])).max(initial=0.0))
    ingress_dist_ok = True
    ingress_level_ok = True
    for v in range(tree.n_nodes):
        if v not in roots:
            u = ann.ingress[v]
            if dm[ann.center[v], ann.center[u]] > 3.0 * lims[v] + clusters.diameter[v]:
                ingress_dist_ok = False
            if tree.level[u] > tree.level[v] + 1:
                ingress_level_ok = False

    # landmark mode: bound the replay chain for *every* node, then spot-check
    # bit-identity of actual queries against the default estimator
    K = k_parameter(ps.spread, params.epsilon, ps.d, ps.p)
    anchors = roots | set(res.model.landmarks or ())
    max_chain = _anchor_chain_max(tree, ann, anchors)

    est_l = Estimator(model, mode="landmark")
    rng = np.random.default_rng(zlib.crc32(repr((p, ps.n, ps.d, eps)).encode()))
    lm_identical = True
    for _ in range(15):
        i, j = (int(x) for x in rng.integers(0, ps.n, size=2))
        if est_l.estimate(i, j) != est.estimate(i, j):
            lm_identical = False

    return {
        "p": p,
        "n": ps.n,
        "d": ps.d,
        "eps": params.epsilon,
        "max_rel": float(rel.max()),
        "n_nodes": tree.n_nodes,
        "node_bound": 2 * ps.n * (3 + params.t),
        "surr_ratio": surr_ratio,
        "leaf_ratio": leaf_ratio,
        "ingress_dist_ok": ingress_dist_ok,
        "ingress_level_ok": ingress_level_ok,
        "lm_identical": lm_identical,
        "max_chain": max_chain,
        "replay_hops": est_l.max_hops,
        "K": K,
        "build_seconds": t_build,
    }


@pytest.fixture(scope="module")
def corpus():
    t0 = time.perf_counter()
    records = []
    cfg_index = 0
    for p in P_VALUES:
        for n in N_VALUES:
            for d in D_VALUES:
                for eps in EPS_VALUES:
                    for k in range(INSTANCES_PER_CONFIG):
                        seed = 1000 * cfg_index + k
                        coords = _instance_coords(n, d, k, seed)
                        records.append(_measure_instance(coords, p, eps))
                    cfg_index += 1
    elapsed = time.perf_counter() - t0
    return {"records": records, "elapsed": elapsed}


def _line(num, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"criterion {num:02d} {status}: {detail}")
    return ok


# --------------------------------------------------------------------------
# 1. Distortion guarantee.


def test_criterion_01_distortion(corpus):
    records, elapsed = corpus["records"], corpus["elapsed"]
    assert len(records) == 36 * INSTANCES_PER_CONFIG
    worst = max(r["max_rel"] / (4 * r["eps"]) for r in records)
    ok = all(r["max_rel"] <= 4 * r["eps"] for r in records) and elapsed < 120.0
    assert _line(
        1,
        ok,
        f"max |est-oracle|/oracle <= 4*eps on {len(records)} instances "
        f"(worst at {worst:.3f} of bound; corpus built+measured in {elapsed:.1f}s)",
    )


# --------------------------------------------------------------------------
# 2. Tree-size bound.


def test_criterion_02_tree_size(corpus):
    records = corpus["records"]
    worst = max(r["n_nodes"] / r["node_bound"] for r in records)
    ok = all(r["n_nodes"] <= r["node_bound"] for r in records)
    assert _line(
        2,
        ok,
        f"compressed node count <= 2n(3+log2(1/eps)) on all instances "
        f"(worst at {worst:.3f} of bound)",
    )


# --------------------------------------------------------------------------
# 3. Surrogate bounds.


def test_criterion_03_surrogate_bounds(corpus):
    records = corpus["records"]
    slack = 1.0 + 1e-9
    worst_all = max(r["surr_ratio"] for r in records)
    worst_leaf = max(r["leaf_ratio"] for r in records)
    ok = worst_all <= slack and worst_leaf <= slack
    assert _line(
        3,
        ok,
        f"||f(c(v)) - s*(v)|| <= 2^l(v) at every node (worst {worst_all:.4f}) "
        f"and <= eps*2^l(v) at every subtree leaf (worst {worst_leaf:.4f})",
    )


# --------------------------------------------------------------------------
# 4. Ingress bounds.


def test_criterion_04_ingress_bounds(corpus):
    records = corpus["records"]
    ok = all(r["ingress_dist_ok"] and r["ingress_level_ok"] for r in records)
    assert _line(
        4,
        ok,
        "d(c(v), c(in(v))) <= 3*2^l(v) + diam(v) and l(in(v)) <= l(v)+1 "
        f"at every non-part-root node of {len(records)} instances",
    )


# --------------------------------------------------------------------------
# 5. Grid net and codec correctness, exhaustively.


def _hostile_rows(b, c, heads, d, rows) -> bool:
    """True when ``_read_rice`` refuses the rows of class c and bound b,
    written as their codes (zigzag values, or ranks where ``heads[c]``
    holds a table) by the scalar writer under ``heads``."""
    tops = ref.rice_tops([c] * len(rows), [b] * len(rows), d)
    w = ref.BitWriter()
    ref.write_rice_heads(w, heads, tops)
    ref.write_rice_rows(w, rows, [heads[c][1]] * len(rows))
    try:
        _read_rice(w.getvalue(), 0, w.bit_length, np.full(len(rows), b), np.full(len(rows), c), d)
    except FormatError:
        return True
    return False


def test_criterion_05_net_exhaustive():
    t0 = time.perf_counter()
    vectors = rejected = refused = 0
    kinds = [0, 0]  # classes coded without and with a rank table
    ok = True
    for d in (1, 2, 3):
        for delta in (0.5, 0.25):
            for p in (1.0, 2.0, math.inf):
                b = net.grid_bound(delta, d, p)
                inside = range(-b, b + 1)
                grid = np.array(list(itertools.product(inside, repeat=d)), np.int64)
                # the grid alone, and with as many copies of (b, ..., b) on
                # top, whose zigzag value 2B then leads every class's
                # counts: rank tables pay there
                for rows in (grid, np.concatenate([grid, np.full_like(grid, b)])):
                    k = len(rows)
                    bounds = np.full(k, b)
                    classes = np.arange(k) % 4  # all four Rice classes
                    data, bits = pack_fields(_rice_columns(rows.copy(), bounds, classes))
                    back, end = _read_rice(data, 0, bits, bounds, classes, d)
                    ok &= back.dtype == np.int64 and back.tobytes() == rows.tobytes()
                    ok &= end == bits
                    vectors += k
                    ks, tables, _ = _read_heads(data, 0, bits, bounds, classes, d)
                    seen = set()
                    for c, (shift, table) in enumerate(zip(ks.tolist(), tables)):
                        kinds[table is not None] += 1
                        key = (shift, None if table is None else table.size)
                        if key in seen:
                            continue  # the same k on the same limit L below
                        seen.add(key)
                        # one stored code above its limit L (2B, or A - 1
                        # for ranks), the rest anywhere up to it: every code
                        # of the top quotient L >> k past L, and the first
                        # quotient past it.  A table class stores enough
                        # further rows (zeros) that its alphabet fits
                        heads = [None] * 4
                        heads[c] = (None if table is None else table.tolist(), shift)
                        top = 2 * b if table is None else table.size - 1
                        pad = [[0] * d] * (0 if table is None else 2 * b // d)
                        for i in range(d):
                            for u in range(top + 1, ((top >> shift) + 1 << shift) + 1):
                                for rest in itertools.product(range(top + 1), repeat=d - 1):
                                    row = [*rest[:i], u, *rest[i:]]
                                    if _hostile_rows(b, c, heads, d, [row, *pad]):
                                        rejected += 1
                                    else:
                                        ok = False

                # one coordinate just outside the bound, the rest anywhere inside
                for i in range(d):
                    for out in (-b - 1, b + 1):
                        for rest in itertools.product(inside, repeat=d - 1):
                            m = np.array([rest[:i] + (out,) + rest[i:]], np.int64)
                            try:
                                _rice_columns(m, np.array([b]), np.array([3]))
                                ok = False
                            except ValueError:
                                refused += 1
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 60.0 and min(kinds) > 0
    assert _line(
        5,
        ok,
        f"all {vectors} vectors |m_i| <= B over 18 (d, delta, p) combos, each alone "
        f"and with copies of (B, ..., B), come back exactly through the codec's "
        f"_rice_columns and _read_rice, in {kinds[0]} classes without and {kinds[1]} "
        f"with a rank table; {rejected} stored vectors with a code in (L, (L >> k) + 1 "
        f"<< k], L = 2B or A - 1 for ranks, rejected; {refused} vectors with one "
        f"coordinate at +-(B+1) refused by the encoder; {elapsed:.1f}s",
    )


# --------------------------------------------------------------------------
# 6. Codec roundtrips and corruption fuzz.


def test_criterion_06_codec_fuzz():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2026)
    ok = True
    blob = b""
    for _ in range(100):
        n = int(rng.integers(2, 26))
        d = int(rng.integers(1, 5))
        p = float(rng.choice([1.0, 2.0, math.inf]))
        eps = float(rng.choice([0.5, 0.25, 0.125]))
        if p == 2.0 and d <= 3:
            rng.integers(2)  # once chose a second codec; kept so the instances stay put
        ps = normalize(rng.normal(size=(n, d)) * float(rng.uniform(2, 60)), p)
        params = SketchParams(
            epsilon=eps,
            landmarks=bool(rng.integers(2)),
            jl_enabled=False,
        )
        blob = build_sketch(ps, params).blob
        ok &= serialize(deserialize(blob)) == blob

    rep = size_report(blob)
    detected = 0
    attempts = 0
    for i in range(rep.header_bytes):
        bad = bytearray(blob)
        bad[i] ^= 0xFF
        attempts += 1
        try:
            deserialize(bytes(bad))
        except FormatError:
            detected += 1
    # 200 payload bit flips spread over all ten columns of a blob that has
    # them all (the Rice heads column holds v7's table flags, rank tables
    # and Rice parameters): with the CRC left stale each must be detected; with the CRC
    # recomputed the decoder must refuse within 2 s, or decode to a model
    # whose estimators give the exact sums' floats (the landmark mode may
    # refuse instead)
    ps = normalize(np.random.default_rng(60).normal(size=(60, 3)) * 20, 2.0)
    full = build_sketch(ps, SketchParams(epsilon=0.25, landmarks=True, jl_enabled=False)).blob
    columns = [bits for bits in ref.payload_columns(full).values() if bits]
    ok &= len(columns) == len(ref.COLUMNS)
    refused = exact = 0
    for k in range(200):
        bits = columns[k % len(columns)]
        bitpos = bits[int(rng.integers(len(bits)))]
        bad = bytearray(full)
        bad[bitpos // 8] ^= 1 << (7 - bitpos % 8)
        attempts += 1
        try:
            deserialize(bytes(bad))
        except FormatError:
            detected += 1
        t1 = time.perf_counter()
        try:
            model = deserialize(bytes(bad[:-4]) + zlib.crc32(bad[:-4]).to_bytes(4, "little"))
        except SketchError:
            refused += 1
            ok &= time.perf_counter() - t1 < 2.0
            continue
        ok &= time.perf_counter() - t1 < 2.0
        want = ref.exact_shift_floats(model)
        nodes = range(model.tree.n_nodes)
        est = Estimator(model)
        ok &= np.array_equal([est.shifted_surrogate(v) for v in nodes], want)
        try:
            est = Estimator(model, mode="landmark")
            ok &= np.array_equal([est.shifted_surrogate(v) for v in nodes], want)
        except SketchError:
            pass
        exact += 1
    ok &= detected == attempts
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 60.0
    assert _line(
        6,
        ok,
        f"100 roundtrips byte-exact; {detected}/{attempts} corruptions "
        f"(every header byte + 200 payload bit flips over all "
        f"{len(ref.COLUMNS)} columns) detected; with the CRC recomputed, "
        f"{refused} refused and {exact} decoded to exact floats; {elapsed:.1f}s",
    )


# --------------------------------------------------------------------------
# 7. Size scaling.


def test_criterion_07_size_scaling():
    # (a) bits/point against log2(1/eps) is affine at fixed n, d, spread
    ps = normalize(gen_uniform(200, 10, seed=42), 2.0)
    assert ps.spread <= 2.0**16
    ts = np.arange(1, 7, dtype=float)
    bits = []
    for t in ts:
        params = SketchParams(epsilon=2.0**-t, jl_enabled=False)
        bits.append(size_report(build_sketch(ps, params).blob).bits_per_point)
    y = np.array(bits)
    slope, intercept = np.polyfit(ts, y, 1)
    fit = slope * ts + intercept
    r2 = 1.0 - float(((y - fit) ** 2).sum() / ((y - y.mean()) ** 2).sum())
    ok_a = r2 >= 0.95

    # (b) spread grown 2^8 -> 2^512 at fixed n, eps: bits/point up by <= 8
    per_point = []
    for t in (8, 64, 512):
        ps_line = normalize(gen_high_spread_line(20, t, seed=7), 2.0)
        assert ps_line.spread == math.ldexp(1.0, t)
        params = SketchParams(epsilon=0.25, jl_enabled=False)
        per_point.append(
            size_report(build_sketch(ps_line, params).blob).bits_per_point
        )
    growth = max(per_point) - min(per_point)
    ok_b = growth <= 8.0

    assert _line(
        7,
        ok_a and ok_b,
        f"(a) bits/point affine in log2(1/eps): R^2 = {r2:.4f} >= 0.95; "
        f"(b) spread 2^8 -> 2^512 grows bits/point by {growth:.2f} <= 8",
    )


# --------------------------------------------------------------------------
# 8. Euclidean end-to-end with the random projection.


def test_criterion_08_euclidean_end_to_end():
    coords = np.random.default_rng(777).normal(size=(500, 1000))
    eps = 0.25
    params = SketchParams(epsilon=eps, jl_enabled=True, jl_seed=0)
    ps = prepare_points(coords, 2.0, params)
    orig_dim = ps.jl_orig_dim
    assert orig_dim == 1000
    jl_blob = build_sketch(ps, params).blob

    raw = normalize(coords, 2.0)
    raw_oracle = oracle_all_pairs(raw) * raw.scale
    estimates = Estimator(jl_blob).estimate_all_pairs()
    iu = np.triu_indices(500, k=1)
    rel = np.abs(estimates[iu] - raw_oracle[iu]) / raw_oracle[iu]
    budget = (1.0 + eps) * (1.0 + 4.0 * eps) - 1.0
    frac = float((rel <= budget).mean())
    ok_error = frac >= 0.99

    plain_blob = build_sketch(raw, SketchParams(epsilon=eps, jl_enabled=False)).blob
    jl_model, plain_model = deserialize(jl_blob), deserialize(plain_blob)
    target_dim = reduce.target_dim(500, eps)
    ok_dims = (
        jl_model.d == target_dim
        and jl_model.jl_orig_dim == orig_dim
        and plain_model.d == orig_dim
    )
    # Both blobs hold the same tree; only the displacements scale with the
    # stored dimension, so the projection shrinks the blob by about
    # orig_dim / target_dim.  The 0.9 leaves room for the sections whose size
    # does not depend on the dimension.
    dim_ratio = plain_model.d / jl_model.d
    size_bound = 0.9 * orig_dim / target_dim
    ratio = len(plain_blob) / len(jl_blob)
    ok_size = ok_dims and ratio >= size_bound
    jl_disp = size_report(jl_blob).displacement_bits
    plain_disp = size_report(plain_blob).displacement_bits

    assert _line(
        8,
        ok_error and ok_size,
        f"{100 * frac:.2f}% of pairs within the (1+eps)(1+4eps)-1 = {budget:g} "
        f"end-to-end budget (need >= 99%); stored d = {jl_model.d} with JL "
        f"(need ceil(C eps^-2 ln n) = {target_dim}), {plain_model.d} without "
        f"(need {orig_dim}), ratio {dim_ratio:.2f}; displacement bits "
        f"{jl_disp} with JL, {plain_disp} without; size ratio no-JL/JL = "
        f"{ratio:.2f} (need >= 0.9 * {orig_dim}/{target_dim} = {size_bound:.2f})",
    )


# --------------------------------------------------------------------------
# 9. General metrics through the l-infinity embedding.


def test_criterion_09_general_metrics():
    t0 = time.perf_counter()
    ok = True
    details = []
    for n in (32, 64):
        worst = 0.0
        for seed in (0, 1, 2):
            entries = gen_random_graph_metric(n, seed=seed)
            dm = DistanceMatrix(entries=entries)
            ps = frechet_embed(dm)
            blob = build_sketch(ps, SketchParams(epsilon=0.25, jl_enabled=False)).blob
            estimates = Estimator(blob).estimate_all_pairs()
            iu = np.triu_indices(n, k=1)
            rel = np.abs(estimates[iu] - entries[iu]) / entries[iu]
            worst = max(worst, float(rel.max()))
        ok &= worst <= 1.0
        details.append(f"n={n}: worst {worst:.3f}")
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 30.0
    assert _line(
        9,
        ok,
        f"graph shortest-path metrics within 4*eps = 1.0 over 3 seeds each "
        f"({'; '.join(details)}); {elapsed:.1f}s",
    )


# --------------------------------------------------------------------------
# 10. Landmark equivalence.


def test_criterion_10_landmark_equivalence(corpus):
    records = corpus["records"]
    ok = all(
        r["lm_identical"] and r["max_chain"] <= r["K"] and r["replay_hops"] <= r["K"]
        for r in records
    )
    worst_chain = max(r["max_chain"] for r in records)
    assert _line(
        10,
        ok,
        "landmark-mode estimates bit-identical to default on sampled queries "
        f"of all {len(records)} instances; replay chains <= K for every node "
        f"(longest seen: {worst_chain} hops)",
    )
