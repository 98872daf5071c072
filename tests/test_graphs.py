import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tanglekit.graphs import (
    Graph,
    GraphError,
    complete_graph,
    components,
    cycle_graph,
    delete_edge,
    format_edgelist,
    graph6_decode,
    graph6_encode,
    parse_edgelist,
    path_graph,
    subdivide_edge,
    suppress_vertex,
)

from conftest import atlas_graphs


def test_delete_edge_examples():
    k4 = complete_graph(4)
    assert len(delete_edge(k4, (0, 1)).edges) == 5
    p3 = path_graph(3)
    g = delete_edge(p3, (0, 1))
    assert g.vertices == (0, 1, 2) and g.edges == frozenset({(1, 2)})
    tri = cycle_graph(3)
    assert delete_edge(tri, (0, 1)).edges == frozenset({(0, 2), (1, 2)})
    with pytest.raises(GraphError):
        delete_edge(p3, (0, 2))


def test_suppress_vertex_examples():
    p3 = path_graph(3)
    assert suppress_vertex(p3, 1).edges == frozenset({(0, 2)})
    c4 = cycle_graph(4)
    g = suppress_vertex(c4, 1)
    assert g.vertices == (0, 2, 3) and len(g.edges) == 3
    tri = cycle_graph(3)
    g = suppress_vertex(tri, 0)  # neighbours already adjacent
    assert g.vertices == (1, 2) and g.edges == frozenset({(1, 2)})
    with pytest.raises(GraphError):
        suppress_vertex(complete_graph(4), 0)


def test_components_examples():
    two_tris = Graph(range(6), [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
    comps = components(two_tris)
    assert len(comps) == 2
    assert comps[0].vertices == (0, 1, 2)  # smallest-label order
    assert len(components(complete_graph(4))) == 1
    assert components(Graph()) == []


def test_edgelist_round_trip():
    g = Graph([0, 1, 2, 7], [(0, 1), (1, 2)])
    assert parse_edgelist(format_edgelist(g)) == g
    assert parse_edgelist("# comment\n3\n0 1\n") == Graph([0, 1, 3], [(0, 1)])


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_components_match_networkx(data):
    labels = data.draw(st.lists(st.integers(0, 60), max_size=9, unique=True))
    pairs = [(u, v) for i, u in enumerate(labels) for v in labels[i + 1 :]]
    edges = data.draw(st.sets(st.sampled_from(pairs)) if pairs else st.just(set()))
    g = Graph(labels, edges)
    full = g.full_mask()
    mask = data.draw(st.sampled_from([0, full]) | st.integers(0, full))
    h = nx.Graph()
    h.add_nodes_from(labels)
    h.add_edges_from(edges)
    want = sorted(
        (frozenset(c) for c in nx.connected_components(h.subgraph(g.labels_of(mask)))),
        key=min,
    )
    assert [g.labels_of(m) for m in g.components(mask)] == want
    if mask == full:
        assert g.components() == g.components(mask)
        assert g.component_vertex_sets() == want
        assert g.is_connected() == (len(want) == 1)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 12), st.data())
def test_graph6_round_trip_vs_networkx(n, data):
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    chosen = data.draw(st.sets(st.sampled_from(pairs)) if pairs else st.just(set()))
    g = Graph(range(n), chosen)
    line = graph6_encode(g)
    assert graph6_decode(line) == g
    h = nx.from_graph6_bytes(line.encode())
    assert set(h.nodes()) == set(g.vertices)
    assert {tuple(sorted(e)) for e in h.edges()} == set(g.edges)


def test_graph6_matches_atlas():
    for g in atlas_graphs(5, min_n=1):
        assert graph6_decode(graph6_encode(g)) == g


def test_subdivide_edge():
    g = subdivide_edge(complete_graph(4), (0, 1), times=2)
    assert len(g.vertices) == 6 and len(g.edges) == 8
    assert not g.has_edge(0, 1)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_translator_matches_the_label_round_trip(data):
    """g.translator(h) against h.mask_of(g.labels_of(m) & h.vertex_set()) on
    random masks, both ways, for h a relabelled graph with non-contiguous
    labels: part of g's labels, and labels of its own in between."""
    labels = data.draw(st.lists(st.integers(0, 60), min_size=1, max_size=14, unique=True))
    g = Graph(labels)
    shared = data.draw(st.lists(st.sampled_from(labels), unique=True))
    own = data.draw(st.lists(st.integers(0, 60).filter(lambda v: v not in labels),
                             max_size=5, unique=True))
    h = Graph(shared + own)
    for a, b in ((g, h), (h, g)):
        move = a.translator(b)
        for m in data.draw(st.lists(st.integers(0, a.full_mask()), min_size=1, max_size=10)):
            assert move(m) == b.mask_of(a.labels_of(m) & b.vertex_set())


def test_translator_across_reductions():
    """Every mask of a relabelled K4 with a subdivided edge, moved to the
    graphs its suppression and a component restriction make, and back."""
    g = Graph([3, 10, 11, 25, 40], [(3, 10), (3, 11), (3, 25), (10, 11), (10, 40),
                                    (40, 25), (11, 25)])
    for h in (suppress_vertex(g, 40), g.induced({10, 11, 25})):
        for a, b in ((g, h), (h, g)):
            move = a.translator(b)
            for m in range(a.full_mask() + 1):
                assert move(m) == b.mask_of(a.labels_of(m) & b.vertex_set())
