import networkx as nx
import pytest

from tanglekit.graphs import (
    Graph,
    complete_graph,
    cycle_graph,
    path_graph,
    subdivide_edge,
    suppress_vertex,
)
from tanglekit.separations import enumerate_separations, sep
from tanglekit.tangles import (
    Tangle,
    TangleError,
    check_axioms,
    enumerate_tangles,
    extends,
    is_forbidden_triple,
    is_tangle,
    lift_subgraph,
    lift_suppression,
    parse_tangle,
    format_tangle,
)

from conftest import atlas_graphs, nx_to_graph


def _nx(g: Graph):
    h = nx.Graph()
    h.add_nodes_from(g.vertices)
    h.add_edges_from(g.edges)
    return h


def test_forbidden_triple_examples():
    k2 = complete_graph(2)
    v = k2.vertex_set()
    bottom = sep(frozenset(), v)
    assert not is_forbidden_triple(k2, bottom, bottom, bottom)
    a = sep(frozenset({0}), v)
    b = sep(frozenset({1}), v)
    assert not is_forbidden_triple(k2, a, b, bottom)  # the edge is uncovered
    p3 = path_graph(3)
    s1 = sep(frozenset({0, 1}), frozenset({1, 2}))
    s2 = s1.inverse()
    assert is_forbidden_triple(p3, s1, s2, sep(frozenset(), p3.vertex_set()))


def test_is_tangle_examples():
    k4 = complete_graph(4)
    members = []
    for s in enumerate_separations(k4, 3):
        members.append(s if len(s.big) == 4 else s.inverse())
    assert is_tangle(k4, 3, members)
    k2 = complete_graph(2)
    ms = [s if len(s.big) == 2 else s.inverse() for s in enumerate_separations(k2, 2)]
    assert is_tangle(k2, 2, ms)
    with pytest.raises(TangleError):
        is_tangle(k4, 3, members, mode="bogus")


def test_enumerate_small_counts():
    p3 = path_graph(3)
    assert len(enumerate_tangles(p3, 2)) == 2
    assert len(enumerate_tangles(complete_graph(4), 3)) == 1
    assert len(enumerate_tangles(cycle_graph(4), 3)) == 0


def test_component_block_bijection_small():
    """1-tangles count components, 2-tangles count blocks."""
    for g in atlas_graphs(5, connected_only=True):
        h = _nx(g)
        assert len(enumerate_tangles(g, 1)) == nx.number_connected_components(h)
        assert len(enumerate_tangles(g, 2)) == len(list(nx.biconnected_components(h)))


def test_core_identifies_component_and_block():
    two_tris = Graph(range(6), [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
    cores = sorted(tuple(sorted(t.core())) for t in enumerate_tangles(two_tris, 1))
    assert cores == [(0, 1, 2), (3, 4, 5)]
    p3 = path_graph(3)
    cores = sorted(tuple(sorted(t.core())) for t in enumerate_tangles(p3, 2))
    assert cores == [(0, 1), (1, 2)]
    k2 = complete_graph(2)
    (t,) = enumerate_tangles(k2, 2)
    assert t.core() == frozenset({0, 1})


def test_axioms_hold_and_flip_breaks_consistency():
    k4 = complete_graph(4)
    (t,) = enumerate_tangles(k4, 3)
    assert all(check_axioms(t).values())
    flip = sep(frozenset({0, 1}), k4.vertex_set())
    chosen = t.orients(flip)
    members = (t.members - {chosen}) | {chosen.inverse()}
    bad = Tangle(k4, 3, members)
    assert not check_axioms(bad)["consistency"]


def test_maximal_mode_agrees_with_full():
    for g in atlas_graphs(5):
        for k in (1, 2, 3):
            for t in enumerate_tangles(g, k):
                assert is_tangle(g, k, t.members, mode="full")
                # single-orientation flips agree across modes
                for s in t.maximal_members():
                    members = (t.members - {s}) | {s.inverse()}
                    assert is_tangle(g, k, members, mode="maximal") == is_tangle(
                        g, k, members, mode="full"
                    )


def test_maximal_members_have_connected_remainder():
    for g in atlas_graphs(5, connected_only=True):
        for k in (1, 2, 3):
            for t in enumerate_tangles(g, k):
                for s in t.maximal_members():
                    rem = g.induced(s.big - s.small)
                    assert rem.is_connected()


def test_graphs_above_128_vertices():
    g = path_graph(130)
    (tau,) = enumerate_tangles(g, 1)
    assert is_tangle(g, 1, tau.members)
    assert tau.core() == g.vertex_set()
    assert not is_tangle(g, 1, [s.inverse() for s in tau.members])


def test_extends_examples():
    k4 = complete_graph(4)
    (t3,) = enumerate_tangles(k4, 3)
    (t2,) = enumerate_tangles(k4, 2)
    assert extends(t2, t3)
    assert extends(t3, t3)
    a, b = enumerate_tangles(path_graph(3), 2)
    assert not extends(a, b) and not extends(b, a)


def test_lift_subgraph_examples():
    two_tris = Graph(range(6), [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
    tri = two_tris.induced({0, 1, 2})
    (t1,) = enumerate_tangles(tri, 1)
    lifted = lift_subgraph(t1, two_tris)
    assert is_tangle(two_tris, 1, lifted.members)
    assert lifted.core() == frozenset({0, 1, 2})
    # K4 plus pendant vertex
    k4p = Graph(range(5), list(complete_graph(4).edges) + [(3, 4)])
    (t,) = enumerate_tangles(complete_graph(4), 3)
    lifted = lift_subgraph(t, k4p)
    assert is_tangle(k4p, 3, lifted.members)


def test_lift_suppression_round_trip():
    g = subdivide_edge(complete_graph(4), (0, 1), 1)
    (t_sub,) = enumerate_tangles(g, 3)
    g2 = suppress_vertex(g, 4)
    assert g2 == complete_graph(4)
    (t_k4,) = enumerate_tangles(complete_graph(4), 3)
    lifted = lift_suppression(t_k4, g, 4)
    assert lifted == t_sub
    with pytest.raises(TangleError):
        lift_suppression(enumerate_tangles(complete_graph(2), 2)[0], path_graph(3), 1)


def test_lift_round_trips_on_atlas():
    """A tangle that survives to the reduced graph is the lift of its image."""
    for g in atlas_graphs(5, connected_only=True):
        deg2 = [v for v in g.vertices if g.degree(v) == 2]
        for t in enumerate_tangles(g, 3):
            for v in deg2:
                u, w = sorted(g.neighbors(v))
                if g.has_edge(u, w):
                    continue
                g2 = suppress_vertex(g, v)
                for t2 in enumerate_tangles(g2, 3):
                    lifted = lift_suppression(t2, g, v)
                    if lifted == t:
                        assert is_tangle(g, 3, lifted.members)


def test_serialization_round_trip():
    k4 = complete_graph(4)
    (t,) = enumerate_tangles(k4, 3)
    assert parse_tangle(format_tangle(t), k4) == t
