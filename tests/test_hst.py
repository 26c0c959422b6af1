"""Hierarchy construction and long-edge compression against a naive oracle."""

import dataclasses
import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import minimum_spanning_tree

from mcsketch.pipeline import gen_gaussian_clusters, gen_random_graph_metric
from mcsketch.codec import deserialize
from mcsketch.core import (
    DistanceMatrix,
    FormatError,
    GuaranteeError,
    InputError,
    normalize,
    oracle_all_pairs,
)
from mcsketch.hst import SketchTree, _pair_tables, _prim_mst, build_hst, compress
from mcsketch.reduce import frechet_embed

import _reference as ref
import test_golden as golden
import test_golden_scale as golden_scale
from _reference import subtree_decomposition


def _line(points):
    return normalize(np.asarray(points, dtype=float).reshape(-1, 1), 2.0)


def _members(tree):
    return [frozenset(labels.tolist()) for labels in ref.leaf_labels_under(tree)]


def _partitions_from_tree(tree):
    """level -> set of frozenset clusters.  A node counts at every level
    from its own up to, not including, its parent's; the root at its own."""
    out: dict[int, set] = {}
    for v, members in enumerate(_members(tree)):
        up = tree.parent[v]
        for lvl in range(tree.level[v], tree.level[up] if up >= 0 else tree.level[v] + 1):
            out.setdefault(lvl, set()).add(members)
    return out


def _check_merge_tree(tree):
    """build_hst's tree: leaves at level 0, every other node a merge of at
    least two children, each at least one level down, in smallest-label
    order; no long edges."""
    firsts = [int(labels[0]) for labels in ref.leaf_labels_under(tree)]
    assert not any(tree.long_edge)
    assert ref.dfs_preorder(tree) == list(range(tree.n_nodes))
    for v, kids in enumerate(ref.children_of(tree)):
        if tree.leaf_label[v] >= 0:
            assert tree.level[v] == 0 and not kids
            continue
        assert len(kids) >= 2
        assert all(tree.level[c] < tree.level[v] for c in kids)
        assert [firsts[c] for c in kids] == sorted(firsts[c] for c in kids)


# --------------------------------------------------------------------------
# Frozen walk-through: the 1-D set {0, 1, 10}.


def test_uncompressed_tree_on_line():
    ps = _line([0, 1, 10])
    tree, clusters = build_hst(ps)
    # levels: leaves at 0; {0,1} forms at 1 and persists to 3; {10} persists
    # 0..3; root {0,1,10} at 4 (distance 9 and 10 both in [8, 16)).
    got = _partitions_from_tree(tree)
    naive = ref.naive_level_partitions(oracle_all_pairs(ps))
    assert len(got) == len(naive) == 5
    for lvl, part in enumerate(naive):
        assert got[lvl] == set(part)
    # three leaves and two merges; the edges above {0,1} and {10} span levels
    assert tree.n_nodes == 5
    assert tree.level[0] == 4
    assert sorted(ref.edge_gap(tree, v) for v in ref.children_of(tree)[0]) == [3, 4]
    _check_merge_tree(tree)


def test_compressed_tree_on_line():
    ps = _line([0, 1, 10])
    tree0, clusters0 = build_hst(ps)
    tree, clusters = compress(tree0, clusters0, 0.25)
    ref.verify_tree(tree)

    # 7 nodes survive: root@4, two run tops@3, the {0,1} merge@1, 3 leaves@0.
    assert tree.n_nodes == 7
    assert tree.level[0] == 4
    levels = sorted(tree.level)
    assert levels == [0, 0, 0, 1, 3, 3, 4]

    # long edges: top@3 -> merge@1 (gap 2), top@3 -> leaf(10)@0 (gap 3)
    gaps = sorted(ref.edge_gap(tree, v) for v in range(tree.n_nodes) if tree.long_edge[v])
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
    ref.verify_tree(tree)
    leaf_26 = tree.leaf_of()[3]
    assert tree.long_edge[leaf_26]
    assert ref.edge_gap(tree, leaf_26) == 4
    assert tree.level[leaf_26] == 0


def test_compression_rule_matches_naive_runs():
    rng = np.random.default_rng(11)
    for eps in (0.5, 0.25, 0.0625):
        for trial in range(6):
            ps = normalize(rng.normal(size=(14, 2)) * 40, 2.0)
            dm = oracle_all_pairs(ps)
            tree0, clusters0 = build_hst(ps)
            tree, clusters = compress(tree0, clusters0, eps)
            ref.verify_tree(tree)
            # collect surviving long edges as (bottom members, gap)
            members = _members(tree)
            got = {
                (members[v], ref.edge_gap(tree, v))
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
        got = _partitions_from_tree(tree)
        naive = ref.naive_level_partitions(dm)
        assert len(got) == len(naive)
        for lvl, part in enumerate(naive):
            assert got[lvl] == set(part)


def test_levels_refine_upward():
    rng = np.random.default_rng(8)
    ps = normalize(rng.normal(size=(20, 2)) * 25, 2.0)
    tree, clusters = build_hst(ps)
    got = _partitions_from_tree(tree)
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
    labels = [x for x in tree.leaf_label if x >= 0]
    assert sorted(labels) == list(range(18))
    # every surviving node represents the same cluster it did before, at a
    # level its merge-tree node spans
    before = {
        (lvl, members) for lvl, part in _partitions_from_tree(tree0).items() for members in part
    }
    members = _members(tree)
    for v in range(tree.n_nodes):
        assert (tree.level[v], members[v]) in before
    # diameters are exact maxima over the members
    for v in range(tree.n_nodes):
        mem = members[v]
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
    assert tree.level[0] == 1
    assert not any(tree.long_edge)


def test_l1_root_sits_above_an_exact_power_of_two():
    # the closest cross pair, (0, 0, 0) and (2, 13, 1), is at l1 distance
    # exactly 16, which is not below 2^4: the two close pairs first join
    # at level 5
    ps = normalize(np.array([[0, 0, 0], [-1, 0, 0], [2, 13, 1], [3, 13, 1]], dtype=float), 1.0)
    assert ps.scale == 1.0
    assert oracle_all_pairs(ps)[0, 2] == 16.0
    tree, _ = build_hst(ps)
    _check_merge_tree(tree)
    assert tree.level[0] == 5


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.integers(0, 5000), min_size=2, max_size=24, unique=True),
    st.sampled_from([0.5, 0.25, 0.125]),
)
def test_tree_invariants_on_integer_lines(values, eps):
    ps = _line(sorted(values))
    dm = oracle_all_pairs(ps)
    tree0, clusters0 = build_hst(ps)
    _check_merge_tree(tree0)
    tree, clusters = compress(tree0, clusters0, eps)
    ref.verify_tree(tree)
    n = len(values)
    assert sum(x >= 0 for x in tree.leaf_label) == n
    assert tree.n_nodes <= 2 * n * (3 + round(-math.log2(eps)))
    # every long edge satisfies the compression guarantee
    t = round(-math.log2(eps))
    for v in range(tree.n_nodes):
        if tree.long_edge[v]:
            gap = ref.edge_gap(tree, v)
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
    got = _partitions_from_tree(tree)
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
# Tau-trees and near points against a plain BFS over brute-force minima of
# the oracle.


def _check_pair_tables(tree, clusters, dm):
    """Every merge's tau-parents and near labels equal those of a plain BFS
    over the brute-force smallest cross distances, neighbours in
    smallest-label order, where the near point of child i to child j is
    the member of i closest to j, ties to the smallest label.  Returns the
    number of merges and of tau edges whose near point had a tie."""
    members = ref.leaf_labels_under(tree)
    merges = ties = 0
    for v, kids in enumerate(ref.children_of(tree)):
        # a two-child merge takes its diameter from its children's and its
        # cross rectangle's, so a wrong visiting order shows here
        assert clusters.diameter[v] == dm[np.ix_(members[v], members[v])].max()
        if len(kids) < 2:
            assert clusters.tau[v] is None and clusters.near[v] is None
            continue
        merges += 1
        # positions run in smallest-label order, the BFS's neighbour order
        firsts = [int(members[c][0]) for c in kids]
        assert firsts == sorted(firsts)
        rows = [members[c].tolist() for c in kids]
        to = {x: [dm[x, members[c]].min() for c in kids] for r in rows for x in r}
        gap = [[min(to[x][j] for x in r) for j in range(len(kids))] for r in rows]
        near = [[min(r, key=lambda x: (to[x][j], x)) for j in range(len(kids))] for r in rows]
        want = ref.tau_from_tables(gap, near, tree.level[v])
        assert (clusters.tau[v], clusters.near[v]) == want
        for j, i in enumerate(want[0][1:], 1):
            ties += sum(to[x][j] == gap[i][j] for x in rows[i]) > 1
    return merges, ties


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
    assert _check_pair_tables(tree0, clusters0, dm)[0] >= 1
    tree, clusters = compress(tree0, clusters0, eps)
    assert _check_pair_tables(tree, clusters, dm)[0] >= 1


def test_pair_tables_on_graph_metric():
    ps = frechet_embed(DistanceMatrix(entries=gen_random_graph_metric(40, 3)))
    dm = oracle_all_pairs(ps)
    tree0, clusters0 = build_hst(ps)
    assert _check_pair_tables(tree0, clusters0, dm)[0] >= 1
    tree, clusters = compress(tree0, clusters0, 0.25)
    assert _check_pair_tables(tree, clusters, dm)[0] >= 1


@pytest.mark.parametrize("p", [1.0, 2.0, math.inf])
def test_near_points_break_ties_by_label(p):
    # a two-scale lattice, where many members of a tau-parent sit at its gap
    axis = (0, 1, 4, 5, 16, 17, 20, 21)
    ps = normalize(np.array(list(itertools.product(axis, repeat=2)), dtype=float), p)
    tree, clusters = build_hst(ps)
    assert _check_pair_tables(tree, clusters, oracle_all_pairs(ps))[1] >= 10


def test_merge_diameter_can_come_from_a_child():
    # the four-point row merges first and is wider (9) than any of its
    # distances to the fifth point (at most 8.32), so the root's diameter
    # is its first child's, not its cross rectangle's maximum
    ps = normalize(np.array([[0, 0], [3, 0], [6, 0], [9, 0], [4.5, 7]], dtype=float), 2.0)
    tree, clusters = build_hst(ps)
    dm = oracle_all_pairs(ps)
    assert [len(kids) for kids in ref.children_of(tree) if kids] == [2, 4]
    assert clusters.diameter[0] == dm[0, 3] > dm[:4, 4].max()
    assert _check_pair_tables(tree, clusters, dm)[0] == 2


def test_two_child_merge_with_a_gap_at_its_level_raises():
    # no merge of the build has a cross distance as large as 2^level; the
    # two-child path, which thresholds its one gap without a table, must
    # refuse one as the k-child BFS does
    ps = _line([0.0, 1.0, 4.0, 5.0, 16.0])
    tree, _ = build_hst(ps)
    low = dataclasses.replace(tree, level=[0] * tree.n_nodes)
    with pytest.raises(GuaranteeError, match="2-child merge is disconnected"):
        _pair_tables(oracle_all_pairs(ps), low)


# Bytes per point that build_hst's ClusterIndex may keep: a diameter per
# node and, per merge, k tau-parent positions and k near labels.  The
# instance below measures 59; per-merge (k, k) tables kept 4,339.
INDEX_BYTES_PER_POINT = 200


def test_cluster_index_is_linear_in_n():
    # the first seed-1 instance of the benchmark's metric-graph workload,
    # whose root merge has 321 children
    ps = frechet_embed(DistanceMatrix(entries=gen_random_graph_metric(400, 3)))
    tracemalloc.start()
    try:
        tree, clusters = build_hst(ps)
        with_index = tracemalloc.get_traced_memory()[0]
        del clusters
        retained = with_index - tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert max(map(len, ref.children_of(tree))) == 321
    assert retained < INDEX_BYTES_PER_POINT * ps.n


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


# --------------------------------------------------------------------------
# One node order: children and leaf ranges derived from parent.


def _assert_derived_structure(tree):
    """Children enumerated from ``end`` (v+1, then each child's end while
    below v's) are the reference's child lists, a walk over them is the
    reference preorder, which is id order, and ``leaf_ranges`` spans each
    node's leaf labels."""
    end = tree.end.tolist()
    kids = []
    for v in range(tree.n_nodes):
        mine, c = [], v + 1
        while c < end[v]:
            mine.append(c)
            c = end[c]
        kids.append(mine)
    assert kids == ref.children_of(tree)
    walk, stack = [], [0]
    while stack:
        v = stack.pop()
        walk.append(v)
        stack.extend(reversed(kids[v]))
    assert walk == ref.dfs_preorder(tree) == list(range(tree.n_nodes))
    label = np.array(tree.leaf_label)
    in_order = label[label >= 0]
    lo, hi = tree.leaf_ranges()
    for v, want in enumerate(ref.leaf_labels_under(tree)):
        assert np.array_equal(np.sort(in_order[lo[v] : hi[v]]), want)


@pytest.mark.parametrize("name", sorted(golden.CASES))
def test_derived_structure_on_golden_models(name):
    _assert_derived_structure(deserialize(golden._blob(name)).tree)


@pytest.mark.parametrize("name", sorted(golden_scale.CASES))
def test_derived_structure_at_benchmark_scale(name):
    # thousands of one-child levels, and in metric-graph a 321-child merge
    _assert_derived_structure(deserialize(golden_scale._blob(name)).tree)


_BENCHMARK_INSTANCES = {
    "build-clusters": lambda: normalize(gen_gaussian_clusters(1000, 4, 12), 2.0),
    "query-clusters": lambda: normalize(gen_gaussian_clusters(2000, 2, 1), 1.0),
    "metric-graph": lambda: frechet_embed(
        DistanceMatrix(entries=gen_random_graph_metric(400, 3))
    ),
}


@pytest.mark.parametrize("name", sorted(_BENCHMARK_INSTANCES))
def test_merge_tree_is_in_preorder_at_benchmark_scale(name):
    tree, _ = build_hst(_BENCHMARK_INSTANCES[name]())
    _check_merge_tree(tree)
    _assert_derived_structure(tree)


def _small_tree(parent, level):
    """A tree on the given parents and levels, its leaves (the nodes no
    parent names) labelled in id order."""
    leaves = [v for v in range(len(parent)) if v not in parent]
    label = [leaves.index(v) if v in leaves else -1 for v in range(len(parent))]
    return SketchTree(level, parent, [False] * len(parent), label)


def test_verify_refuses_parents_out_of_preorder():
    # 0 -> (1 -> (2, 3), 4 -> (5, 6)) in preorder passes
    ref.verify_tree(_small_tree([-1, 0, 1, 1, 0, 4, 4], [2, 1, 0, 0, 1, 0, 0]))
    # ids 1 and 4 exchanged: node 2 hangs below node 4
    swapped = _small_tree([-1, 0, 4, 4, 0, 1, 1], [2, 1, 0, 0, 1, 0, 0])
    with pytest.raises(FormatError, match="parent 4 of node 2 is not below it"):
        ref.verify_tree(swapped)
    # the two sibling subtrees' children exchanged in id order: every parent
    # comes first, but node 2 is not where a walk from node 1 goes next
    interleaved = _small_tree([-1, 0, 0, 2, 2, 1, 1], [2, 1, 1, 0, 0, 0, 0])
    with pytest.raises(FormatError, match="node 2 is out of preorder"):
        ref.verify_tree(interleaved)
    # a compressed tree with its ids permuted at random
    ps = normalize(gen_gaussian_clusters(60, 2, 6), 2.0)
    tree, _ = compress(*build_hst(ps), 0.0625)
    ref.verify_tree(tree)
    perm = np.random.default_rng(5).permutation(tree.n_nodes)
    old = np.argsort(perm).tolist()  # the id in tree of every moved id
    moved = SketchTree(
        level=[tree.level[v] for v in old],
        parent=[int(perm[tree.parent[v]]) if v else -1 for v in old],
        long_edge=[tree.long_edge[v] for v in old],
        leaf_label=[tree.leaf_label[v] for v in old],
    )
    with pytest.raises(FormatError, match="root has a parent|not below it|out of preorder"):
        ref.verify_tree(moved)


# --------------------------------------------------------------------------
# The merge tree and its compression against the chain tree's.


def _assert_same_as_chain_tree(ps, eps):
    tree, clusters = compress(*build_hst(ps), eps)
    want, chain = ref.compress_chain_hst(*ref.build_chain_hst(ps), eps)
    for name in ("level", "parent", "long_edge", "leaf_label"):
        assert getattr(tree, name) == getattr(want, name), name
    assert clusters.diameter == chain.diameter
    # the chain tree keeps (k, k) tables; its tau-trees come from a plain BFS
    for v, (gap, near) in enumerate(zip(chain.gap, chain.near, strict=True)):
        exp = (None, None) if gap is None else ref.tau_from_tables(gap, near, want.level[v])
        assert (clusters.tau[v], clusters.near[v]) == exp


@settings(max_examples=40, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.integers(2, 40),
    st.integers(1, 3),
    st.sampled_from([1.0, 1.5, 2.0, math.inf]),
    st.sampled_from([0.5, 0.25, 0.0625]),
    st.sampled_from(["lattice", "line", "graph"]),
)
def test_compressed_merge_tree_equals_chain_tree(seed, n, d, p, eps, kind):
    ps = ref.small_instance(seed, n, d, p, kind)
    if ps is not None:
        _assert_same_as_chain_tree(ps, eps)


def test_merge_tree_of_the_query_clusters_instance():
    # the first seed-1 instance of the benchmark's query-clusters workload
    ps = normalize(gen_gaussian_clusters(2000, 2, 1), 1.0)
    tree, _ = build_hst(ps)
    assert tree.n_nodes == 2632
    assert max(map(len, ref.children_of(tree))) > 100
    _assert_same_as_chain_tree(ps, 1 / 16)
