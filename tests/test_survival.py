"""Tangle survival under edge deletion, suppression, and restriction."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import inconsistent_path_map, synth_rc_instances
from tanglekit.graphs import (
    Graph,
    complete_graph,
    components,
    cycle_graph,
    delete_edge,
    path_graph,
    subdivide_edge,
    suppress_vertex,
)
from tanglekit.separations import (
    OrientedSeparation,
    enumerate_separations,
    sep,
    separator_components,
)
from tanglekit.rainbow_cloud import clique_tangle
from tanglekit.tangles import Tangle, TangleError, enumerate_tangles, is_tangle
from tanglekit.survival import (
    brute_force_extensions,
    divergent_witness,
    forced_orientation,
    orientation_across_edge,
    restrict_to_component,
    survive_delete_edge_k1,
    survive_delete_edge_k2,
    survive_delete_pendant_edge,
    survive_edge_deletion_via_supertangle,
    survive_suppress_vertex,
    survive_with_extending_supertangle,
    tangle_of_block,
    tangle_of_component,
)


def extends(small: Tangle, host: Tangle) -> bool:
    """Every member of `small` is oriented the same way by `host`."""
    return all(host.orients(s) == s for s in small.members)


def agree_on_shared(t1: Tangle, t2: Tangle) -> bool:
    return all(s in t2.members or s.inverse() not in t2.members for s in t1.members)


# -- order-1 and order-2 constructions ----------------------------------------


def test_tangle_of_component_matches_enumeration():
    g = Graph(range(7), [(0, 1), (1, 2), (3, 4), (4, 5), (5, 3)])
    comps = sorted(g.component_vertex_sets(), key=min)
    built = [tangle_of_component(g, c) for c in comps if c]
    listed = enumerate_tangles(g, 1)
    assert {t.members for t in built} == {t.members for t in listed}


def test_tangle_of_component_rejects_non_component():
    g = path_graph(4)
    with pytest.raises(TangleError):
        tangle_of_component(g, frozenset({0, 1}))


def test_survive_delete_edge_k1_every_edge_of_tree():
    g = Graph(range(6), [(0, 1), (1, 2), (1, 3), (3, 4), (3, 5)])
    tau = tangle_of_component(g, g.vertex_set())
    for e in g.sorted_edges():
        t2 = survive_delete_edge_k1(g, tau, e)
        assert is_tangle(delete_edge(g, e), 1, t2.members)
        assert agree_on_shared(t2, tau)


def test_survive_delete_edge_k2_on_theta_graph():
    # two triangles sharing an edge: a single block, still 2-connected
    # enough to keep a 2-tangle after one deletion
    g = Graph(range(4), [(0, 1), (1, 2), (0, 2), (1, 3), (2, 3)])
    (tau,) = enumerate_tangles(g, 2)
    e, t2 = survive_delete_edge_k2(g, tau)
    g2 = delete_edge(g, e)
    assert is_tangle(g2, 2, t2.members)
    oracle = brute_force_extensions(g, tau, e)
    assert any(t2.members == o.members for o in oracle)


def test_survive_delete_edge_k2_agrees_with_brute_force_on_small_graphs(
    small_graphs,
):
    for g in small_graphs:
        if len(g.edges) < 2:
            continue
        for tau in enumerate_tangles(g, 2):
            try:
                e, t2 = survive_delete_edge_k2(g, tau)
            except TangleError:
                continue
            assert is_tangle(delete_edge(g, e), 2, t2.members)


# -- restriction to a component -----------------------------------------------


def test_restrict_to_component_round_trip():
    tri = [(0, 1), (1, 2), (0, 2)]
    g = Graph(range(6), tri + [(3, 4), (4, 5), (3, 5)])
    for tau in enumerate_tangles(g, 2):
        comp, t2 = restrict_to_component(g, tau)
        assert comp.is_connected()
        assert is_tangle(comp, 2, t2.members)
        # the component is the one the tangle's core lives in
        assert tau.core() <= comp.vertex_set()


def test_restrict_to_component_identity_on_connected():
    g = complete_graph(4)
    (tau,) = enumerate_tangles(g, 3)
    comp, t2 = restrict_to_component(g, tau)
    assert comp == g
    assert t2.members == tau.members


# -- pendant edges and suppression ---------------------------------------------


def k4_with_pendant():
    g = complete_graph(4).plus_edge(3, 4)
    return g


def test_survive_delete_pendant_edge_keeps_k4_tangle():
    g = k4_with_pendant()
    (tau,) = enumerate_tangles(g, 3)
    t2 = survive_delete_pendant_edge(g, tau, 4)
    g2 = delete_edge(g, (3, 4))
    assert is_tangle(g2, 3, t2.members)
    oracle = brute_force_extensions(g, tau, (3, 4))
    assert any(t2.members == o.members for o in oracle)


def test_survive_delete_pendant_edge_rejects_internal_vertex():
    g = k4_with_pendant()
    (tau,) = enumerate_tangles(g, 3)
    with pytest.raises(TangleError):
        survive_delete_pendant_edge(g, tau, 0)


def test_survive_suppress_vertex_subdivided_k4():
    g = subdivide_edge(complete_graph(4), (0, 1))
    v = max(g.vertex_set())  # the subdivision vertex
    (tau,) = enumerate_tangles(g, 3)
    t2 = survive_suppress_vertex(g, tau, v)
    g2 = suppress_vertex(g, v)
    assert g2 == complete_graph(4)
    assert is_tangle(g2, 3, t2.members)
    assert agree_on_shared(t2, tau)


def test_survive_suppress_vertex_all_small_instances(small_graphs):
    for g in small_graphs:
        deg2 = [v for v in sorted(g.vertex_set()) if g.degree(v) == 2]
        if not deg2:
            continue
        for tau in enumerate_tangles(g, 3):
            for v in deg2:
                try:
                    g2 = suppress_vertex(g, v)
                except Exception:
                    continue
                t2 = survive_suppress_vertex(g, tau, v)
                assert is_tangle(g2, 3, t2.members)


# -- forced orientations --------------------------------------------------------


def test_forced_orientation_matches_membership():
    g = complete_graph(4)
    (tau,) = enumerate_tangles(g, 3)
    for s in enumerate_separations(g, 3):
        forced = forced_orientation(tau, s)
        assert forced == tau.orients(s)


def test_forced_orientation_partial_on_subgraph_separations():
    g = k4_with_pendant()
    (tau,) = enumerate_tangles(g, 3)
    g2 = delete_edge(g, (3, 4))
    seen_forced = seen_free = 0
    for s in enumerate_separations(g2, 3):
        forced = forced_orientation(tau, s)
        if forced is None:
            seen_free += 1
        else:
            seen_forced += 1
            assert forced.le(max(tau.members, key=lambda t: len(t.big))) or any(
                forced.le(t) for t in tau.members
            )
    assert seen_forced > 0


def ref_forced_orientation(tau, s):
    """forced_orientation scanning every member, not only the maximal ones."""
    fwd = any(s.le(t) for t in tau.members)
    bwd = any(s.inverse().le(t) for t in tau.members)
    if fwd and bwd:
        raise TangleError("tangle forces both orientations; it is inconsistent")
    if fwd:
        return s
    if bwd:
        return s.inverse()
    return None


def forced_outcome(fn, tau, s):
    try:
        return fn(tau, s)
    except TangleError as err:
        return str(err)


@settings(max_examples=25, deadline=None)
@given(synth_rc_instances(max_length=4), st.sampled_from((2, 3)), st.data())
def test_forced_orientation_matches_all_member_scan(instance, k, data):
    g, rc, clique = instance
    tau = clique_tangle(g, clique, k)
    e = data.draw(st.sampled_from(sorted(g.edges)))
    for s in enumerate_separations(delete_edge(g, e), k):
        assert forced_orientation(tau, s) == ref_forced_orientation(tau, s)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_forced_orientation_on_inconsistent_orientations(data):
    # maps with a random component per separator are mostly not tangles:
    # answers and "forces both" errors must still match the scan
    g = data.draw(st.sampled_from([
        complete_graph(4), cycle_graph(5), path_graph(4), k4_with_pendant(),
    ]))
    k = data.draw(st.integers(1, 3))
    tau = Tangle._of_map(g, k, {x: data.draw(st.sampled_from(comps))
                                for x, comps in separator_components(g, k)})
    for s in enumerate_separations(delete_edge(g, min(g.edges)), k):
        assert forced_outcome(forced_orientation, tau, s) == forced_outcome(
            ref_forced_orientation, tau, s
        )


def test_forced_orientation_raises_on_members_forcing_both_ways():
    tau = inconsistent_path_map()
    s = OrientedSeparation(frozenset({1, 2, 3}), frozenset({0, 1, 2}))
    for fn in (forced_orientation, ref_forced_orientation):
        with pytest.raises(TangleError, match="forces both"):
            fn(tau, s)


@pytest.mark.parametrize("small, big, want", [
    # a side naming 9, outside K4, lies inside no member's side: the
    # orientation that puts it on the big side can still be forced
    ((), (0, 1, 2, 3, 9), "fwd"),
    ((0, 1, 2, 3, 9), (), "bwd"),
    ((0,), (0, 1, 2, 3, 9), "fwd"),
    ((0, 1), (0, 1, 2, 3, 9), "fwd"),
    ((0, 1, 2, 3, 9), (0, 1), "bwd"),
    ((9,), (9,), None),
    ((0, 9), (0, 1, 2, 3), None),
])
def test_forced_orientation_with_labels_outside_the_graph(small, big, want):
    (tau,) = enumerate_tangles(complete_graph(4), 3)
    s = sep(small, big)
    assert forced_orientation(tau, s) == {"fwd": s, "bwd": s.inverse(), None: None}[want]
    assert forced_orientation(tau, s) == ref_forced_orientation(tau, s)


@pytest.mark.parametrize("small, big, e", [
    ((0, 1, 9), (1, 2, 3, 4), (0, 2)),
    ((0, 1), (1, 2, 3, 4, 9), (0, 2)),
    ((0, 1), (1, 2, 3, 4), (0, 9)),
])
def test_orientation_across_edge_with_labels_outside_the_graph(small, big, e):
    tt = enumerate_tangles(complete_graph(5), 4)[0]
    assert orientation_across_edge(tt, sep(small, big), e) is False


# -- supertangle-assisted deletion ----------------------------------------------


def test_orientation_across_edge_agrees_on_crossed_separations(small_graphs):
    checked = 0
    for g in small_graphs:
        for tt in enumerate_tangles(g, 3):
            for e in g.sorted_edges():
                g2 = delete_edge(g, e)
                for s in enumerate_separations(g2, 2):
                    crossed = (
                        e[0] in s.small - s.big and e[1] in s.big - s.small
                    ) or (
                        e[1] in s.small - s.big and e[0] in s.big - s.small
                    )
                    if not crossed:
                        continue
                    # both paddings must agree when the edge crosses s
                    orientation_across_edge(tt, s, e)
                    checked += 1
    assert checked > 0


def test_survive_with_extending_supertangle_any_edge_of_k5():
    g = complete_graph(5)
    (tau,) = enumerate_tangles(g, 3)
    tt = next(t for t in enumerate_tangles(g, 4) if tau.members <= t.members)
    for e in g.sorted_edges():
        t2 = survive_with_extending_supertangle(g, tau, tt, e)
        g2 = delete_edge(g, e)
        assert is_tangle(g2, 3, t2.members)
        assert agree_on_shared(t2, tau)
        oracle = brute_force_extensions(g, tau, e)
        assert any(t2.members == o.members for o in oracle)


def test_divergent_witness_two_k4_blocks():
    # two K4 blocks joined at a cut vertex: the 2-tangle toward one block
    # diverges from a 3-tangle toward the other
    edges = list(complete_graph(4).edges)
    shift = {0: 3, 1: 4, 2: 5, 3: 6}
    edges += [(shift[u], shift[v]) for u, v in complete_graph(4).edges]
    g = Graph(range(7), edges)
    twos = enumerate_tangles(g, 2)
    threes = enumerate_tangles(g, 3)
    assert len(twos) == 2 and len(threes) == 2
    pairs = [
        (tau, tt)
        for tau in twos
        for tt in threes
        if not tau.members <= tt.members
    ]
    assert pairs
    for tau, tt in pairs:
        w = divergent_witness(tau, tt)
        assert w in tt.members and w.inverse() in tau.members


def test_survive_edge_deletion_via_supertangle_small_graphs(small_graphs):
    for g in small_graphs:
        for k in (2, 3):
            for tau in enumerate_tangles(g, k):
                found = survive_edge_deletion_via_supertangle(g, tau)
                if found is None:
                    continue
                e, t2 = found
                g2 = delete_edge(g, e)
                assert is_tangle(g2, k, t2.members)
                assert agree_on_shared(t2, tau)
                oracle = brute_force_extensions(g, tau, e)
                assert any(t2.members == o.members for o in oracle)


def test_survive_edge_deletion_via_supertangle_none_without_higher_order_tangle():
    g = cycle_graph(5)
    (tau,) = enumerate_tangles(g, 2)
    assert enumerate_tangles(g, 3) == []
    assert survive_edge_deletion_via_supertangle(g, tau) is None


def test_brute_force_extensions_finds_all():
    g = cycle_graph(5)
    (tau,) = enumerate_tangles(g, 2)
    e = (0, 1)
    exts = brute_force_extensions(g, tau, e)
    g2 = delete_edge(g, e)
    direct = [t for t in enumerate_tangles(g2, 2) if agree_on_shared(tau, t)]
    assert {t.members for t in exts} == {t.members for t in direct}
