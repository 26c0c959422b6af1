"""Centers, tau-trees, ingresses, and quantized surrogates."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mcsketch.codec import deserialize
from mcsketch.core import (
    GuaranteeError,
    SketchParams,
    lp_distance,
    normalize,
    oracle_all_pairs,
)
from mcsketch.annotate import (
    annotate,
    assign_ingresses,
    compute_surrogates,
    ingress_layers,
    shift_to_float,
)
from mcsketch.cli import build_sketch, gen_gaussian_clusters, gen_high_spread_line
from mcsketch.hst import _tau_parents, build_hst, compress

import _reference as ref
from _reference import subtree_decomposition


def _built(points, eps, p=2.0, **kw):
    ps = normalize(np.asarray(points, dtype=float), p)
    params = SketchParams(epsilon=eps, jl_enabled=False, **kw)
    dm = oracle_all_pairs(ps)
    tree0, clusters0 = build_hst(ps)
    tree, clusters = compress(tree0, clusters0, params.epsilon)
    ann, _, table = annotate(tree, clusters, ps, params)
    return ps, dm, tree, clusters, ann, table, params


def _node_of(tree, clusters, members):
    want = frozenset(members)
    for v, labels in enumerate(ref.leaf_labels_under(tree)):
        if frozenset(labels.tolist()) == want:
            yield v


# --------------------------------------------------------------------------
# Frozen walk-through on the 1-D set {0, 1, 10} at eps = 1/4.


def test_centers_on_line():
    ps, dm, tree, clusters, ann, table, _ = _built([[0], [1], [10]], 0.25)
    # leaves carry their own label as center
    for v in range(tree.n_nodes):
        if tree.leaf_label[v] >= 0:
            assert ann.center[v] == tree.leaf_label[v]
    # both nodes of the {0,1} cluster (merge@1 and run-top@3) take center 0,
    # long-edge tops inherit from their single child
    for v in _node_of(tree, clusters, {0, 1}):
        assert ann.center[v] == 0
    for v in _node_of(tree, clusters, {2}):
        assert ann.center[v] == 2
    # root's tau-root is the child holding point 0
    assert ann.center[0] == 0


def test_ingresses_on_line():
    ps, dm, tree, clusters, ann, table, _ = _built([[0], [1], [10]], 0.25)
    top_01 = next(v for v in _node_of(tree, clusters, {0, 1}) if tree.level[v] == 3)
    merge_01 = next(v for v in _node_of(tree, clusters, {0, 1}) if tree.level[v] == 1)
    top_2 = next(v for v in _node_of(tree, clusters, {2}) if tree.level[v] == 3)
    leaf_2 = next(v for v in _node_of(tree, clusters, {2}) if tree.level[v] == 0)
    leaf_0 = next(v for v in range(tree.n_nodes) if tree.leaf_label[v] == 0)
    leaf_1 = next(v for v in range(tree.n_nodes) if tree.leaf_label[v] == 1)

    # part roots (tree root and long-edge bottoms) anchor the recursion and
    # have no ingress; their surrogates are exact
    assert ann.ingress[0] is None
    assert ann.ingress[merge_01] is None
    assert ann.ingress[leaf_2] is None
    # tau-root child of the root part: in = parent
    assert ann.ingress[top_01] == 0
    # second tau child: closest point of C(top_01) to C(top_2) is 1, and the
    # descent from top_01 stops immediately before its long edge
    assert ann.ingress[top_2] == top_01
    # inside the bottom part
    assert ann.ingress[leaf_0] == merge_01
    assert ann.ingress[leaf_1] == leaf_0


def _layer_order(ingress):
    ing = np.array([-1 if u is None else u for u in ingress])
    return [v for layer in ingress_layers(ing) for v in layer.tolist()]


def test_ingress_layers_visit_ingress_first():
    rng = np.random.default_rng(0)
    for trial in range(8):
        pts = rng.normal(size=(16, 2)) * 20
        ps, dm, tree, clusters, ann, table, _ = _built(pts, 0.25)
        order = _layer_order(ann.ingress)
        # covers every node exactly once
        assert sorted(order) == list(range(tree.n_nodes))
        seen = set()
        for v in order:
            assert ann.ingress[v] is None or ann.ingress[v] in seen
            seen.add(v)
        # the nodes without an ingress are exactly the part roots
        assert [v for v in order if ann.ingress[v] is None] == (
            subtree_decomposition(tree).roots
        )


def test_ingress_layers_leave_out_cycles():
    # 2 and 3 name each other, 4 hangs below the cycle
    layers = ingress_layers(np.array([-1, 0, 3, 2, 2, -1]))
    assert [layer.tolist() for layer in layers] == [[0, 5], [1]]


def _lattice_l1_ties():
    axis = (0, 1, 4, 5, 16, 17, 20, 21)
    return [[x, y] for x in axis for y in axis]


@pytest.mark.parametrize("p", [1.0, 2.0, math.inf])
def test_preorder_descent_matches_member_search(p):
    # the climb over the parts lands where a descent that searches member
    # labels stops
    rng = np.random.default_rng(6)
    instances = [rng.normal(size=(int(rng.integers(3, 40)), 3)) * 25 for _ in range(6)]
    instances += [gen_gaussian_clusters(120, 2, 7), gen_high_spread_line(20, 60, 3)]
    if p == 1.0:
        instances.append(_lattice_l1_ties())
    descents = 0
    for pts in instances:
        ps, dm, tree, clusters, ann, table, _ = _built(pts, 0.25, p=p)
        got = assign_ingresses(tree, clusters).tolist()
        want = ref.member_search_ingresses(tree, ann.tau, clusters)
        assert got == [-1 if u is None else u for u in want]
        descents += sum(u >= 0 and u != tree.parent[v] for v, u in enumerate(got))
    assert descents > 0


def test_ingress_distance_and_level_bounds():
    rng = np.random.default_rng(1)
    for p in (1.0, 2.0, math.inf):
        pts = rng.normal(size=(24, 3)) * 15
        ps, dm, tree, clusters, ann, table, _ = _built(pts, 0.25, p=p)
        decomp = subtree_decomposition(tree)
        roots = set(decomp.roots)
        for v in range(tree.n_nodes):
            if v in roots:
                continue
            u = ann.ingress[v]
            dist = dm[ann.center[v], ann.center[u]]
            assert dist <= 3 * math.ldexp(1.0, tree.level[v]) + clusters.diameter[v]
            assert tree.level[u] <= tree.level[v] + 1


def test_inv_delta_floor_and_zero_diameter():
    ps, dm, tree, clusters, ann, table, _ = _built([[0], [1], [10]], 0.25)
    for v in range(tree.n_nodes):
        assert ann.inv_delta[v] >= 5
        if clusters.diameter[v] == 0.0:
            assert ann.inv_delta[v] == 5
        ratio = clusters.diameter[v] / math.ldexp(1.0, tree.level[v])
        assert ann.inv_delta[v] == 5 + math.ceil(ratio - 1e-12)


def test_surrogate_bounds():
    rng = np.random.default_rng(2)
    for p in (1.0, 2.0, math.inf):
        for eps in (0.5, 0.25, 0.0625):
            pts = rng.normal(size=(20, 2)) * 30
            ps, dm, tree, clusters, ann, table, params = _built(pts, eps, p=p)
            for v in range(tree.n_nodes):
                err = lp_distance(
                    ps.coords[ann.center[v]], table.s_star[v], p
                )
                lim = math.ldexp(1.0, tree.level[v])
                assert err <= lim * (1 + 1e-9)
                if not tree.has_short[v]:
                    assert err <= params.epsilon * lim * (1 + 1e-9)


@pytest.mark.parametrize("p", [1.0, 1.5, 2.0, math.inf])
def test_layered_surrogates_match_node_by_node(p):
    # one array operation per ingress layer gives the integers and floats
    # of the per-node loop exactly; the 2^512 line takes exact-int shifts
    rng = np.random.default_rng(8)
    instances = [(rng.normal(size=(30, 3)) * 20, 0.25), (gen_gaussian_clusters(90, 4, 2), 1 / 16)]
    instances.append((gen_high_spread_line(20, 512, 6), 0.25))
    for pts, eps in instances:
        ps, dm, tree, clusters, ann, table, params = _built(pts, eps, p=p)
        inv_delta, grid, shift_int, s_star = ref.node_by_node_surrogates(
            tree, ann.ingress, ann.center, ps, params, clusters
        )
        assert ann.inv_delta == inv_delta
        assert np.array_equal(ann.eta_ints, grid)
        assert shift_int.dtype == table.shift_int.dtype
        assert np.array_equal(table.shift_int, shift_int)
        assert np.array_equal(table.s_star, s_star)


def test_far_center_overflows_the_unit_ball():
    # a non-root node whose center lies far from its ingress's surrogate has a
    # normalized displacement beyond 1 + delta_eff, in whichever layer it is
    pts = np.random.default_rng(7).normal(size=(20, 2)) * 40
    ps, dm, tree, clusters, ann, table, params = _built(pts, 0.25)
    v = next(v for v in range(tree.n_nodes) if tree.leaf_label[v] >= 0 and ann.ingress[v] is not None)
    ann.center[v] = int(dm[ann.center[v]].argmax())
    ingress = np.array([-1 if u is None else u for u in ann.ingress])
    with pytest.raises(GuaranteeError, match="displacement norm"):
        compute_surrogates(tree, ann, ingress, ps, params, clusters)


def test_surrogate_of_part_root_is_exact():
    rng = np.random.default_rng(3)
    pts = rng.normal(size=(15, 2)) * 10
    ps, dm, tree, clusters, ann, table, _ = _built(pts, 0.25)
    for root in subtree_decomposition(tree).roots:
        assert np.array_equal(table.s_star[root], ps.coords[ann.center[root]])
        assert np.array_equal(table.shift_int[root], np.zeros(ps.d, dtype=int))


def test_normalized_displacement_within_unit_ball():
    rng = np.random.default_rng(4)
    pts = rng.normal(size=(25, 3)) * 12
    ps, dm, tree, clusters, ann, table, _ = _built(pts, 0.25)
    roots = set(subtree_decomposition(tree).roots)
    for v in range(tree.n_nodes):
        if v in roots:
            continue
        # eta* is measured against the ingress surrogate, pre-rounding
        eta_star = (ps.coords[ann.center[v]] - table.s_star[ann.ingress[v]]) / (
            ann.inv_delta[v] * math.ldexp(1.0, tree.level[v])
        )
        assert np.linalg.norm(eta_star) <= 1.0 + 1e-9


def test_shift_ints_reproduce_floats_exactly():
    rng = np.random.default_rng(5)
    pts = rng.normal(size=(18, 2)) * 18
    ps, dm, tree, clusters, ann, table, _ = _built(pts, 0.25)
    decomp = subtree_decomposition(tree)
    for v in range(tree.n_nodes):
        root = decomp.roots[decomp.part_of[v]]
        base = ps.coords[ann.center[root]]
        expect = base + shift_to_float(table.shift_int[v], table.unit)
        assert np.array_equal(table.s_star[v], expect)


def test_shift_to_float_big_int_path():
    unit = 0.25 / math.sqrt(2)
    small = np.array([3, -17], dtype=np.int64)
    assert np.array_equal(
        shift_to_float(small, unit), np.array([3.0, -17.0]) * unit
    )
    # both dtypes round alike, up to the edge of int64
    edge = np.array([3, -17, (1 << 62) + 1, -(1 << 63) + 1], dtype=np.int64)
    assert np.array_equal(
        shift_to_float(edge, unit), shift_to_float(edge.astype(object), unit)
    )
    big = np.array([1 << 200, -(1 << 99) - 1], dtype=object)
    got = shift_to_float(big, unit)
    assert got[0] == float(1 << 200) * unit
    assert got[1] == float(-(1 << 99) - 1) * unit


def test_disconnected_children_graph_raises():
    # no merge of the build has a disconnected children graph; the BFS
    # that decides tau-trees must refuse one rather than mis-annotate
    for k in (2, 4):
        adj = np.zeros((k, k), dtype=bool)
        adj[1:, 1:] = True
        with pytest.raises(GuaranteeError, match="disconnected"):
            _tau_parents(adj)
        adj[0, k - 1] = adj[k - 1, 0] = True
        assert _tau_parents(adj) == [-1] + [k - 1] * (k - 2) + [0]


def test_tau_neighbor_ordering_by_smallest_label():
    # four unit-spaced points merge pairwise then join at the top; the tau
    # tree of the root must start at the child containing point 0
    ps, dm, tree, clusters, ann, table, _ = _built(
        [[0.0], [1.1], [4.0], [5.1]], 0.5
    )
    tt = ann.tau[0]
    assert tt.root == ref.children_of(tree)[0][0]
    assert tt.parent[tt.root] is None
    members = ref.leaf_labels_under(tree)
    assert 0 in {int(x) for x in members[tt.root]}
    assert ann.center[0] == ann.center[tt.root] == 0
    # every neighbor list runs in smallest-member-label order
    for kids in tt.children.values():
        firsts = [int(members[c].min()) for c in kids]
        assert firsts == sorted(firsts)


# --------------------------------------------------------------------------
# What the decoder derives instead of reading: centers and first ingresses.


@settings(max_examples=40, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.integers(2, 40),
    st.integers(1, 3),
    st.sampled_from([1.0, 1.5, 2.0, math.inf]),
    st.sampled_from([0.5, 0.25, 0.0625]),
    st.sampled_from(["lattice", "line", "graph"]),
)
def test_centers_and_first_ingresses_follow_the_tree(seed, n, d, p, eps, kind):
    ps = ref.small_instance(seed, n, d, p, kind)
    if ps is None:
        return
    res = build_sketch(ps, SketchParams(epsilon=eps, jl_enabled=False))
    tree, ann = res.tree, res.ann
    kids = ref.children_of(tree)
    for v in range(tree.n_nodes):
        leaf = v
        while tree.leaf_label[leaf] < 0:
            leaf = kids[leaf][0]
        assert ann.center[v] == tree.leaf_label[leaf]
        if tree.part_root[v]:
            assert ann.ingress[v] is None
        else:
            u = tree.parent[v]
            assert (ann.ingress[v] == u) == (kids[u][0] == v) == (u == v - 1)
    decoded = deserialize(res.blob).ingress.tolist()
    assert decoded == [-1 if u is None else u for u in ann.ingress]
