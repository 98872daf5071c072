import itertools

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tanglekit.graphs import (
    Graph,
    complete_graph,
    cycle_graph,
    delete_edge,
    path_graph,
    subdivide_edge,
    suppress_vertex,
)
from tanglekit.separations import (
    enumerate_separations,
    enumerate_separations_naive,
    sep,
)
from tanglekit.survival import tangle_of_block
from tanglekit.tangles import (
    Tangle,
    TangleError,
    check_axioms,
    enumerate_tangles,
    extends,
    is_forbidden_triple,
    is_orientation,
    is_tangle,
    lift_subgraph,
    lift_suppression,
    parse_tangle,
    format_tangle,
    search_extension,
)

from conftest import (
    atlas_graphs,
    nx_to_graph,
    reference_is_orientation,
    reference_is_tangle,
)


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
                assert reference_is_tangle(g, k, t.members)
                # single-orientation flips agree with the all-members oracle
                for s in t.maximal_members():
                    members = (t.members - {s}) | {s.inverse()}
                    assert is_tangle(g, k, members) == reference_is_tangle(
                        g, k, members
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


def test_deep_search_needs_no_recursion():
    """1199 unoriented separations: one search level each, far past the
    interpreter's recursion limit."""
    g = path_graph(600)
    tau = tangle_of_block(g, frozenset({300, 301}))
    assert search_extension(g, 2, tau.members) == [tau]


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


# -- differential test against an independent reference search ------------------


def reference_tangles(g: Graph, k: int):
    """k-tangles by plain backtracking over the naive separation list.

    Small sides stay frozensets; a candidate is rejected when some triple
    of chosen members, itself included and repetition allowed, has induced
    subgraphs covering every vertex and every edge of g.
    """
    pairs = {}
    for s in enumerate_separations_naive(g, k):
        pairs.setdefault(frozenset({s.small, s.big}), []).append(s)
    pairs = list(pairs.values())
    V = g.vertex_set()

    def covered(*sides):
        return frozenset().union(*sides) == V and all(
            any(u in x and v in x for x in sides) for u, v in g.edges
        )

    found = []

    def extend(chosen):
        if len(chosen) == len(pairs):
            found.append(frozenset(chosen))
            return
        for s in pairs[len(chosen)]:
            pool = chosen + [s]
            if not any(
                covered(s.small, a.small, b.small)
                for a, b in itertools.product(pool, repeat=2)
            ):
                extend(pool)

    extend([])
    return found


def _output_key(members):
    return tuple(sorted(s.sort_key() for s in members))


def check_against_reference(g: Graph, k: int):
    want = reference_tangles(g, k)
    got = enumerate_tangles(g, k)
    assert sorted(map(_output_key, want)) == [_output_key(t.members) for t in got]
    assert {t.members for t in got} == set(want)
    for t in got:
        assert check_axioms(t)["consistency"]
    for e in g.sorted_edges():
        g2 = delete_edge(g, e)
        below = reference_tangles(g2, k)
        for t in got:
            ext = search_extension(g2, k, t.members, find_all=True)
            agree = sorted(_output_key(m) for m in below if t.members <= m)
            assert [_output_key(x.members) for x in ext] == agree
            first = search_extension(g2, k, t.members)
            assert len(first) == min(1, len(ext)) and set(first) <= set(ext)
            for x in ext:
                assert check_axioms(x)["consistency"]


@st.composite
def random_graphs(draw):
    n = draw(st.integers(1, 5))
    pairs = list(itertools.combinations(range(n), 2))
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    return Graph(range(n), edges)


@settings(max_examples=100, deadline=None)
@given(random_graphs(), st.sampled_from([3, 4]))
def test_search_matches_reference_property(g, k):
    check_against_reference(g, k)


@pytest.mark.parametrize(
    "g",
    [
        complete_graph(5),
        complete_graph(6),
        cycle_graph(5),
        subdivide_edge(complete_graph(4), (0, 1), 1),
        # two K4s sharing the edge 23: one 3-tangle each
        Graph(
            range(6),
            list(complete_graph(4).edges) + [(2, 4), (2, 5), (3, 4), (3, 5), (4, 5)],
        ),
        # triangular prism
        Graph(
            range(6),
            [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (0, 3), (1, 4), (2, 5)],
        ),
        # wheel with five spokes
        Graph(
            range(6),
            [(0, v) for v in range(1, 6)] + [(1, 2), (2, 3), (3, 4), (4, 5), (1, 5)],
        ),
    ],
    ids=["K5", "K6", "C5", "K4-subdivided", "two-K4", "prism", "W5"],
)
@pytest.mark.parametrize("k", [3, 4])
def test_search_matches_reference_seeded(g, k):
    check_against_reference(g, k)


@settings(max_examples=150, deadline=None)
@given(random_graphs(), st.integers(1, 4), st.data())
def test_verdicts_match_reference_on_perturbed_orientations(g, k, data):
    """is_orientation and is_tangle against the canonical-key and all-triples
    references, on tangles and random orientations with members dropped,
    added, flipped or replaced by the inverse of another member.  Graphs
    with fewer than k vertices have the self-inverse separation (V, V)."""
    pairs = {}
    for s in enumerate_separations(g, k):
        pairs.setdefault(s.canonical_key(), []).append(s)
    tangles = enumerate_tangles(g, k)
    if tangles and data.draw(st.booleans()):
        members = set(data.draw(st.sampled_from(tangles)).members)
    else:
        members = {data.draw(st.sampled_from(row)) for row in pairs.values()}
    # separations of order k, too: none of them belongs to an orientation
    extra = enumerate_separations(g, k + 1)
    ops = st.lists(st.sampled_from(["drop", "add", "flip", "double"]), max_size=3)
    for op in data.draw(ops):
        if op == "add":
            members.add(data.draw(st.sampled_from(extra)))
            continue
        if not members:
            continue
        ordered = sorted(members, key=lambda s: s.sort_key())
        s = data.draw(st.sampled_from(ordered))
        members.discard(s)
        if op == "flip":
            members.add(s.inverse())
        elif op == "double":  # one separation oriented both ways, one not at all
            members.add(data.draw(st.sampled_from(ordered)).inverse())
    assert is_orientation(g, k, members) == reference_is_orientation(g, k, members)
    assert is_tangle(g, k, members) == reference_is_tangle(g, k, members)
