"""Hierarchy construction and long-edge compression against a naive oracle."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import minimum_spanning_tree

from mcsketch.cli import gen_gaussian_clusters, gen_random_graph_metric
from mcsketch.codec import deserialize
from mcsketch.core import DistanceMatrix, InputError, normalize, oracle_all_pairs
from mcsketch.hst import _prim_mst, build_hst, compress
from mcsketch.reduce import frechet_embed

import _reference as ref
import test_golden as golden
from _reference import subtree_decomposition


def _line(points):
    return normalize(np.asarray(points, dtype=float).reshape(-1, 1), 2.0)


def _partitions_from_tree(tree, clusters):
    """level -> set of frozenset clusters, from the uncompressed tree."""
    out: dict[int, set] = {}
    for v in range(tree.n_nodes):
        out.setdefault(tree.level[v], set()).add(
            frozenset(int(x) for x in clusters.members[v])
        )
    return out


# --------------------------------------------------------------------------
# Frozen walk-through: the 1-D set {0, 1, 10}.


def test_uncompressed_tree_on_line():
    ps = _line([0, 1, 10])
    tree, clusters = build_hst(ps)
    # levels: leaves at 0; {0,1} forms at 1; chains to 3; {10} chains 1..3;
    # root {0,1,10} at 4 (distance 9 and 10 both in [8, 16)).
    got = _partitions_from_tree(tree, clusters)
    naive = ref.naive_level_partitions(oracle_all_pairs(ps))
    assert len(got) == len(naive) == 5
    for lvl, part in enumerate(naive):
        assert got[lvl] == set(part)
    assert tree.n_nodes == 10
    assert tree.level[tree.root] == 4
    tree.verify()


def test_compressed_tree_on_line():
    ps = _line([0, 1, 10])
    tree0, clusters0 = build_hst(ps)
    tree, clusters = compress(tree0, clusters0, 0.25)
    tree.verify()

    # 7 nodes survive: root@4, two run tops@3, the {0,1} merge@1, 3 leaves@0.
    assert tree.n_nodes == 7
    assert tree.level[tree.root] == 4
    levels = sorted(tree.level)
    assert levels == [0, 0, 0, 1, 3, 3, 4]

    # long edges: top@3 -> merge@1 (gap 2), top@3 -> leaf(10)@0 (gap 3)
    gaps = sorted(tree.edge_gap(v) for v in range(tree.n_nodes) if tree.long_edge[v])
    assert gaps == [2, 3]

    # three parts: {root, both tops}, {merge, leaf0, leaf1}, {leaf10}
    decomp = subtree_decomposition(tree)
    assert sorted(len(p) for p in decomp.parts) == [1, 3, 3]

    # node ids are DFS preorder
    assert ref.dfs_preorder(tree) == list(range(tree.n_nodes))


def test_compression_keeps_zero_diameter_chain_rule():
    # {0, 1, 10, 26}: the singleton {26} lives at levels 0..4 (joins at 5),
    # a zero-diameter run of gap 4 -> always compressed.
    ps = _line([0, 1, 10, 26])
    tree0, clusters0 = build_hst(ps)
    tree, clusters = compress(tree0, clusters0, 0.25)
    tree.verify()
    leaf_26 = next(
        v
        for v in range(tree.n_nodes)
        if tree.is_leaf(v) and clusters.members[v][0] == 3
    )
    assert tree.long_edge[leaf_26]
    assert tree.edge_gap(leaf_26) == 4
    assert tree.level[leaf_26] == 0


def test_compression_rule_matches_naive_runs():
    rng = np.random.default_rng(11)
    for eps in (0.5, 0.25, 0.0625):
        for trial in range(6):
            ps = normalize(rng.normal(size=(14, 2)) * 40, 2.0)
            dm = oracle_all_pairs(ps)
            tree0, clusters0 = build_hst(ps)
            tree, clusters = compress(tree0, clusters0, eps)
            tree.verify()
            # collect surviving long edges as (bottom members, gap)
            got = {
                (frozenset(int(x) for x in clusters.members[v]), tree.edge_gap(v))
                for v in range(tree.n_nodes)
                if tree.long_edge[v]
            }
            want = set()
            for cl, lo, hi, compressed in ref.naive_compressed_runs(dm, eps):
                if compressed:
                    want.add((cl, hi - lo))
                    continue
            assert got == want


def test_partitions_match_naive_on_random_instances():
    rng = np.random.default_rng(7)
    for n, d, p in ((12, 2, 2.0), (30, 3, 1.0), (25, 2, math.inf)):
        ps = normalize(rng.normal(size=(n, d)) * 10, p)
        dm = oracle_all_pairs(ps)
        tree, clusters = build_hst(ps)
        got = _partitions_from_tree(tree, clusters)
        naive = ref.naive_level_partitions(dm)
        assert len(got) == len(naive)
        for lvl, part in enumerate(naive):
            assert got[lvl] == set(part)


def test_levels_refine_upward():
    rng = np.random.default_rng(8)
    ps = normalize(rng.normal(size=(20, 2)) * 25, 2.0)
    tree, clusters = build_hst(ps)
    got = _partitions_from_tree(tree, clusters)
    for lvl in range(1, max(got) + 1):
        coarser = got[lvl]
        for fine in got[lvl - 1]:
            assert sum(1 for c in coarser if fine <= c) == 1


def test_compress_preserves_leaves_and_members():
    rng = np.random.default_rng(9)
    ps = normalize(rng.normal(size=(18, 3)) * 12, 2.0)
    dm = oracle_all_pairs(ps)
    tree0, clusters0 = build_hst(ps)
    tree, clusters = compress(tree0, clusters0, 0.25)
    assert sum(map(tree.is_leaf, range(tree.n_nodes))) == 18
    assert sorted(tree.leaf_label[v] for v in range(tree.n_nodes) if tree.is_leaf(v)) == list(range(18))
    # every surviving node represents the same cluster it did before
    before = {
        (tree0.level[v], frozenset(int(x) for x in clusters0.members[v]))
        for v in range(tree0.n_nodes)
    }
    for v in range(tree.n_nodes):
        key = (tree.level[v], frozenset(int(x) for x in clusters.members[v]))
        assert key in before
    # diameters are exact maxima over the members
    for v in range(tree.n_nodes):
        mem = clusters.members[v]
        want = max(
            (dm[i, j] for i in mem for j in mem if i != j),
            default=0.0,
        )
        assert clusters.diameter[v] == want


def test_node_bound_holds():
    rng = np.random.default_rng(10)
    for eps, t in ((0.5, 1), (0.25, 2), (0.0625, 4)):
        for n in (20, 60):
            ps = normalize(rng.normal(size=(n, 2)) * 30, 2.0)
            tree0, clusters0 = build_hst(ps)
            tree, _ = compress(tree0, clusters0, eps)
            assert tree.n_nodes <= 2 * n * (3 + t)


def test_two_point_tree():
    ps = _line([0, 1])
    tree0, clusters0 = build_hst(ps)
    tree, clusters = compress(tree0, clusters0, 0.25)
    assert tree.n_nodes == 3
    assert tree.level[tree.root] == 1
    assert not any(tree.long_edge)


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.integers(0, 5000), min_size=2, max_size=24, unique=True),
    st.sampled_from([0.5, 0.25, 0.125]),
)
def test_tree_invariants_on_integer_lines(values, eps):
    ps = _line(sorted(values))
    dm = oracle_all_pairs(ps)
    tree0, clusters0 = build_hst(ps)
    tree0.verify()
    tree, clusters = compress(tree0, clusters0, eps)
    tree.verify()
    n = len(values)
    assert sum(map(tree.is_leaf, range(tree.n_nodes))) == n
    assert tree.n_nodes <= 2 * n * (3 + round(-math.log2(eps)))
    # every long edge satisfies the compression guarantee
    t = round(-math.log2(eps))
    for v in range(tree.n_nodes):
        if tree.long_edge[v]:
            gap = tree.edge_gap(v)
            assert gap >= 2
            diam = clusters.diameter[v]
            if diam > 0.0:
                assert gap > math.log2(diam) - tree.level[v] + t
            # the guarantee the rule exists for:
            assert diam < eps * math.ldexp(1.0, tree.level[tree.parent[v]])


# --------------------------------------------------------------------------
# The dense Prim pass against scipy's MST and the naive level partitions.


@settings(max_examples=40, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.integers(2, 40),
    st.integers(1, 4),
    st.sampled_from([1.0, 2.0, math.inf, 1.5]),
    st.sampled_from(["integer", "graph"]),
)
def test_prim_mst_matches_scipy_and_naive_levels(seed, n, d, p, kind):
    if kind == "graph":
        # a graph metric embeds with p = inf whatever p was drawn
        ps = frechet_embed(DistanceMatrix(entries=gen_random_graph_metric(max(n, 3), seed)))
    else:
        # small integer coordinates: many equal distances, so many tied MSTs
        rng = np.random.default_rng(seed)
        pts = np.unique(rng.integers(0, 4, size=(n, d)).astype(float), axis=0)
        if len(pts) < 2:
            return
        ps = normalize(pts, p)
    dm = oracle_all_pairs(ps)
    edges = _prim_mst(dm)
    assert len(edges) == ps.n - 1
    for w, i, j in edges:
        assert w == dm[i, j]
    want = minimum_spanning_tree(csr_matrix(dm)).data
    assert sorted(w for w, _, _ in edges) == sorted(want.tolist())
    tree, clusters = build_hst(ps)
    got = _partitions_from_tree(tree, clusters)
    naive = ref.naive_level_partitions(dm)
    assert len(got) == len(naive)
    for lvl, part in enumerate(naive):
        assert got[lvl] == set(part)


def test_overflowing_distance_rejected():
    # finite coordinates whose l1 distance overflows to inf
    with np.errstate(over="ignore"):
        ps = normalize(np.array([[0.0, 0.0], [1.0, 0.0], [1e308, 1e308]]), 1.0)
    with pytest.raises(InputError, match="non-finite"):
        build_hst(ps)


# --------------------------------------------------------------------------
# Per-merge pair tables against brute-force minima over the oracle.


def _check_pair_tables(tree, clusters, dm):
    merges = 0
    for v in range(tree.n_nodes):
        kids = tree.children[v]
        if len(kids) < 2:
            assert clusters.gap[v] is None and clusters.near[v] is None
            continue
        merges += 1
        k = len(kids)
        assert clusters.gap[v].shape == clusters.near[v].shape == (k, k)
        for i, a in enumerate(kids):
            rows = clusters.members[a]
            for j, b in enumerate(kids):
                if i == j:
                    continue
                cols = clusters.members[b]
                sub = dm[np.ix_(rows, cols)]
                assert clusters.gap[v][i, j] == sub.min()
                # closest member of child i to child j, ties to smallest label
                best = min(rows, key=lambda x: (dm[x, cols].min(), x))
                assert clusters.near[v][i, j] == best
    return merges


@settings(max_examples=25, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.integers(3, 40),
    st.integers(1, 4),
    st.sampled_from([1.0, 2.0, math.inf, 1.5]),
    st.sampled_from([0.5, 0.25, 0.0625]),
    st.booleans(),
)
def test_pair_tables_match_brute_force(seed, n, d, p, eps, integer):
    rng = np.random.default_rng(seed)
    # integer coordinates make many equal distances, so ties get exercised
    pts = rng.integers(0, 6, size=(n, d)) if integer else rng.normal(size=(n, d)) * 20
    pts = np.unique(pts.astype(float), axis=0)
    if len(pts) < 2:
        return
    ps = normalize(pts, p)
    dm = oracle_all_pairs(ps)
    tree0, clusters0 = build_hst(ps)
    assert _check_pair_tables(tree0, clusters0, dm) >= 1
    tree, clusters = compress(tree0, clusters0, eps)
    assert _check_pair_tables(tree, clusters, dm) >= 1


def test_pair_tables_on_graph_metric():
    ps = frechet_embed(DistanceMatrix(entries=gen_random_graph_metric(40, 3)))
    dm = oracle_all_pairs(ps)
    tree0, clusters0 = build_hst(ps)
    assert _check_pair_tables(tree0, clusters0, dm) >= 1
    tree, clusters = compress(tree0, clusters0, 0.25)
    assert _check_pair_tables(tree, clusters, dm) >= 1


# --------------------------------------------------------------------------
# Parts as arrays against the reference walk in DFS preorder.


def _assert_parts_match_walk(tree):
    walk = subtree_decomposition(tree)
    assert tree.part_of.dtype == np.int64
    assert tree.part_of.tolist() == walk.part_of
    assert np.flatnonzero(tree.part_root).tolist() == walk.roots


@pytest.mark.parametrize("name", sorted(golden.CASES))
def test_part_of_matches_walk_on_golden_models(name):
    _assert_parts_match_walk(deserialize(golden._blob(name)).tree)


@pytest.mark.parametrize("p", [1.0, 2.0, math.inf])
def test_part_of_matches_walk_on_compressed_builds(p):
    ps = normalize(gen_gaussian_clusters(300, 3, 5), p)
    tree, _ = compress(*build_hst(ps), 0.0625)
    assert tree.part_root.sum() > 10
    _assert_parts_match_walk(tree)


def test_array_walks_on_an_uncompressed_tree_out_of_preorder():
    tree, clusters = build_hst(normalize(gen_gaussian_clusters(60, 2, 6), 2.0))
    assert ref.dfs_preorder(tree) != list(range(tree.n_nodes))
    _assert_parts_match_walk(tree)
    assert not tree.part_of.any()
    tree.verify()
    for got, want in zip(tree.leaf_labels_under(), clusters.members, strict=True):
        assert np.array_equal(got, want)
