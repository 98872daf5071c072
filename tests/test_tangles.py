import itertools
import random
from collections import Counter

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tanglekit.graphs import (
    Graph,
    GraphError,
    complete_graph,
    cycle_graph,
    delete_edge,
    path_graph,
    subdivide_edge,
    suppress_vertex,
)
from tanglekit.inducing import find_inducing_set, find_inducing_weights
from tanglekit.pipeline import reduce
from tanglekit.separations import (
    OrientedSeparation,
    enumerate_separations,
    format_separation,
    sep,
    separator_components,
)
from tanglekit import tangles as tangles_module
from tanglekit.survival import tangle_of_block
from tanglekit.tangles import (
    Tangle,
    TangleError,
    check_axioms,
    covering_triple,
    enumerate_tangles,
    extends,
    find_forbidden_triple,
    full_cover,
    is_tangle,
    lift_subgraph,
    lift_suppression,
    parse_tangle,
    format_tangle,
    rows_cover,
    search_extension,
    side_covers,
)

from conftest import (
    atlas_graphs,
    enumerate_separations_naive,
    inconsistent_path_map,
    nx_to_graph,
    reference_is_tangle,
    refuse_separation_lists,
)


def _nx(g: Graph):
    h = nx.Graph()
    h.add_nodes_from(g.vertices)
    h.add_edges_from(g.edges)
    return h


def is_forbidden_triple(g, *seps):
    """Do the small-side induced subgraphs of three separations cover g?"""
    covers = side_covers(g, [g.mask_of(s.small) for s in seps])
    return covering_triple(covers, full_cover(g)) is not None


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
    # the same cases through the maximal-member scan
    assert find_forbidden_triple(k2, [bottom]) is None
    assert find_forbidden_triple(k2, [a, b, bottom]) is None
    assert find_forbidden_triple(p3, [s2, sep(frozenset(), p3.vertex_set()), s1]) == (s1, s1, s2)


def test_is_tangle_examples():
    k4 = complete_graph(4)
    members = []
    for s in enumerate_separations(k4, 3):
        members.append(s if len(s.big) == 4 else s.inverse())
    assert is_tangle(k4, 3, members)
    k2 = complete_graph(2)
    ms = [s if len(s.big) == 2 else s.inverse() for s in enumerate_separations(k2, 2)]
    assert is_tangle(k2, 2, ms)


def test_is_tangle_refuses_a_map_that_is_not_one_of_the_graph():
    """A Tangle given as a map must name exactly the separators of order < k,
    each with a component of G - X; no covering triple is not enough."""
    p4 = path_graph(4)
    empty = Tangle._of_map(p4, 3, {})
    assert not rows_cover(empty)
    assert not is_tangle(p4, 3, empty)
    g = Graph(range(7), [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3),
                         (3, 4), (3, 5), (3, 6), (4, 5), (4, 6), (5, 6)])
    (t,) = [t for t in enumerate_tangles(g, 3) if 0 in t.core()]
    assert is_tangle(g, 3, t)
    pick, cut = t._pick, g.mask_of({3})
    left, right = g.components(g.full_mask() & ~cut)
    bad = [
        {x: c for x, c in pick.items() if x != cut},  # a separator missing
        {**pick, g.mask_of({0, 1, 2}): g.mask_of({3, 4, 5, 6})},  # one of order k
        {**pick, cut: left | right},  # not a component of G - {3}
        {**pick, cut: pick[cut] & ~g.mask_of({0})},  # part of one
    ]
    for b in bad:
        assert not is_tangle(g, 3, Tangle._of_map(g, 3, b)), b
    assert not rows_cover(Tangle._of_map(g, 3, bad[0]))


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
    assert not check_axioms(inconsistent_path_map())["consistency"]


def test_regularity_reads_the_separators(connected_graphs_6):
    """check_axioms' regularity equals the list-based formula (every listed
    (A, V) with A != V is a member) on every k-tangle of the connected
    atlas graphs with <= 6 vertices at k = 1 to 4, on the map pointing
    every separator at its last component, and on each of these with one
    separator (chosen at random) missing from its map."""
    rng = random.Random(29)
    verdicts = Counter()
    for g in connected_graphs_6:
        V = g.vertex_set()
        for k in range(1, 5):
            splits = list(separator_components(g, k))
            maps = [t._pick for t in enumerate_tangles(g, k)]
            maps.append({x: comps[-1] for x, comps in splits if comps})
            for m in maps[:]:
                dropped = rng.choice(list(m))
                maps.append({x: c for x, c in m.items() if x != dropped})
            for pick in maps:
                t = Tangle._of_map(g, k, pick)
                want = all(s in t.members for s in enumerate_separations(g, k)
                           if s.big == V and s.small != V)
                assert check_axioms(t)["regularity"] == want
                verdicts[want] += 1
    assert min(verdicts.values()) > 100, verdicts


def test_member_built_tangle_keeps_only_its_map(connected_graphs_6):
    """A tangle given as members, or parsed from its text, stores no member
    set; the one it builds on first use equals the given set."""
    for g in connected_graphs_6[::5]:
        for k in (1, 2, 3):
            for t in enumerate_tangles(g, k):
                given = frozenset(t.sorted_members())
                for u in (Tangle(g, k, given), Tangle(g, k, iter(given)),
                          parse_tangle(format_tangle(t), g)):
                    assert "members" not in u.__dict__
                    assert u.members == given and u == t


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
    """601 separators (the empty set and each vertex): one search level
    each, far past the interpreter's recursion limit."""
    g = path_graph(600)
    tau = tangle_of_block(g, frozenset({300, 301}))
    assert search_extension(g, tau) == [tau]


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


def _check_extensions(g2, t, below):
    """search_extension(g2, t) against below, the reference k-tangles of
    g2: in order, those that hold every member of t.  Returns what the
    search found."""
    ext = search_extension(g2, t)
    agree = sorted(_output_key(m) for m in below if t.members <= m)
    assert [_output_key(x.members) for x in ext] == agree
    return ext


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
            for x in _check_extensions(g2, t, below):
                assert check_axioms(x)["consistency"]


@st.composite
def random_graphs(draw, max_n=5):
    n = draw(st.integers(1, max_n))
    pairs = list(itertools.combinations(range(n), 2))
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    return Graph(range(n), edges)


@settings(max_examples=100, deadline=None)
@given(random_graphs(), st.integers(1, 5))
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
        Graph(range(6), [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]),
        # 7 vertices
        complete_graph(7),
        # two K4s sharing the vertex 3: two 3-tangles
        Graph(range(7), list(complete_graph(4).edges) + list(complete_graph(4, offset=3).edges)),
    ],
    ids=["K5", "K6", "C5", "K4-subdivided", "two-K4", "prism", "W5", "two-triangles",
         "K7", "K4-K4-at-a-vertex"],
)
@pytest.mark.parametrize("k", [3, 4])
def test_search_matches_reference_seeded(g, k):
    check_against_reference(g, k)


@pytest.mark.parametrize("n, calls", [(5, 10), (6, 20)])
def test_search_admits_only_the_rows_that_can_matter(monkeypatch, n, calls):
    """On K_n at k = 4, g - X is connected at every separator X, so each
    level's only option is V - X.  The rows (X, V) with |X| <= 2 lie inside
    those at the separators one vertex larger, and only the C(n, 3) rows
    at the largest separators reach _admit."""
    made = []
    admit = tangles_module._admit
    monkeypatch.setattr(tangles_module, "_admit", lambda *a: made.append(a) or admit(*a))
    (tau,) = enumerate_tangles(complete_graph(n), 4)
    assert len(made) == calls
    assert is_tangle(tau.graph, 4, tau.members)


def test_search_extension_lists_no_separators(monkeypatch, connected_graphs_6):
    """Every tangle of every connected atlas graph with <= 6 vertices at
    k = 1 to 4, for every edge, with separator_components refused once the
    tangles and the reference results are built: search_extension reads
    the separators and the options at each off tau's map."""
    cases = []
    for g in connected_graphs_6:
        for k in (1, 2, 3, 4):
            found = enumerate_tangles(g, k)
            for e in g.sorted_edges() if found else ():
                g2 = delete_edge(g, e)
                cases.append((g2, found, reference_tangles(g2, k)))

    def refuse(*args):
        raise AssertionError("separators listed")

    monkeypatch.setattr(tangles_module, "separator_components", refuse)
    for g2, found, below in cases:
        for t in found:
            _check_extensions(g2, t, below)
    assert len(cases) == 2974


def test_complete_graphs_have_a_tangle_exactly_above_the_bound():
    """K_n has a k-tangle iff n >= k and 2n > 3(k - 1), for n, k <= 8."""
    for n in range(9):
        g = complete_graph(n)
        for k in range(9):
            assert bool(enumerate_tangles(g, k)) == (n >= k and 2 * n > 3 * (k - 1)), (n, k)


@pytest.mark.parametrize("k", [3, 4, 5, 6])
def test_a_clique_of_k_plus_one_less_an_edge_has_no_k_tangle(k):
    g = delete_edge(complete_graph(k + 1), (0, 1))
    assert enumerate_tangles(g, k) == [] == reference_tangles(g, k)


def test_the_bound_answers_without_listing_separators(monkeypatch):
    """At and past the bound, enumerate_tangles and search_extension answer
    [] without walking a separator: 2|V| = 3(k - 1) on K3 at k = 3, K6 at
    k = 5 and the empty graph at k = 1, past it on K4 at k = 4 and k = 60,
    and |V| = k + 1 with a non-edge on K4 - e at k = 3 and K5 - e at k = 4."""
    taus = {k: enumerate_tangles(complete_graph(k + 1), k)[0] for k in (3, 4)}

    def refuse(*args):  # a generator, as separator_components is: walking it fails
        raise AssertionError("separators listed")
        yield

    monkeypatch.setattr(tangles_module, "separator_components", refuse)
    for n, k in ((3, 3), (6, 5), (4, 4), (4, 60), (0, 1)):
        assert enumerate_tangles(complete_graph(n), k) == []
    for k, tau in taus.items():
        g2 = delete_edge(tau.graph, (0, 1))
        assert enumerate_tangles(g2, k) == []
        assert search_extension(g2, tau) == []


def test_the_bound_is_sound_on_the_atlas(monkeypatch):
    """Every atlas graph with <= 7 vertices, connected or not, at k = 0 to
    |V| + 2: where the bound fires, the search with the bound switched off
    finds no tangle either.  It fires 4,996 times."""
    bound = tangles_module._no_tangle
    monkeypatch.setattr(tangles_module, "_no_tangle", lambda g, k: False)
    fired = 0
    for g in atlas_graphs(7):
        for k in range(len(g.vertices) + 3):
            if bound(g, k):
                fired += 1
                assert enumerate_tangles(g, k) == [], (g, k)
    assert fired == 4996


@st.composite
def graphs_near_the_bound(draw):
    """A graph with <= 6 vertices and an order k near the bound: around
    the largest k with 2|V| > 3(k - 1), or k = |V| - 1."""
    g = draw(random_graphs(max_n=6))
    n = len(g.vertices)
    top = (2 * n + 2) // 3  # the largest k with 2n > 3(k - 1)
    return g, draw(st.sampled_from(sorted({top - 1, top, top + 1, n - 1, n} - {-1})))


@settings(max_examples=100, deadline=None)
@given(graphs_near_the_bound())
def test_search_matches_reference_near_the_bound(case):
    g, k = case
    assert sorted(map(_output_key, reference_tangles(g, k))) == [
        _output_key(t.members) for t in enumerate_tangles(g, k)]


@settings(max_examples=200, deadline=None)
@given(random_graphs(), st.integers(1, 4), st.data())
def test_search_extension_after_several_deletions(g, k, data):
    """search_extension on g minus 0 to 3 edges at once, for one k-tangle
    of g, against reference_tangles on what is left: with no deleted edge,
    one (the edge search's case) or several, possibly inside one C(X)."""
    found = enumerate_tangles(g, k)
    if not found:
        return
    t = data.draw(st.sampled_from(found))
    size = data.draw(st.integers(0, min(3, len(g.edges))))
    gone = data.draw(st.lists(st.sampled_from(g.sorted_edges()), unique=True,
                              min_size=size, max_size=size)) if size else []
    g2 = Graph(g.vertices, g.edges - set(gone))
    _check_extensions(g2, t, reference_tangles(g2, k))


def test_repr_reports_what_the_tangle_holds():
    g = complete_graph(4)
    (tau,) = enumerate_tangles(g, 3)
    assert repr(tau) == "Tangle(k=3, |V|=4, separators=11)"
    assert repr(Tangle(g, 3, tau.members)) == "Tangle(k=3, |V|=4, separators=11)"


def test_negative_order_is_refused():
    g = complete_graph(4)
    with pytest.raises(GraphError, match="negative tangle order -1"):
        enumerate_tangles(g, -1)
    with pytest.raises(GraphError, match="negative tangle order -1"):
        search_extension(g, Tangle(g, -1, ()))
    with pytest.raises(GraphError, match="negative tangle order -2"):
        is_tangle(g, -2, ())
    assert [t.members for t in enumerate_tangles(g, 0)] == [frozenset()]


@settings(max_examples=60, deadline=None)
@given(random_graphs(max_n=6), st.integers(1, 5), st.data())
def test_searched_tangles_match_member_built(g, k, data):
    """A tangle that holds its search map against the same members built
    into a Tangle: maximal members in order, inducing sets and weights,
    equality and hash.  The maps also come from search_extension on g - e."""
    found = enumerate_tangles(g, k)
    if found and g.edges:
        e = data.draw(st.sampled_from(g.sorted_edges()))
        found += search_extension(delete_edge(g, e), found[0])
    for t in found:
        maximal = t.maximal_members()  # from the map's rows
        same = Tangle(t.graph, k, t.members)
        assert is_tangle(t.graph, k, t.members)
        assert maximal == same.maximal_members()
        assert t.maximal_masks() == same.maximal_masks()
        assert find_inducing_set(t) == find_inducing_set(same)
        budget = len(t.graph.vertices)
        assert find_inducing_weights(t, budget) == find_inducing_weights(same, budget)
        assert t == same and same == t and hash(t) == hash(same)


@settings(max_examples=150, deadline=None)
@given(random_graphs(), st.integers(1, 4), st.booleans(), st.data())
def test_verdicts_match_reference_on_perturbed_orientations(g, k, relabel, data):
    """is_tangle against the canonical-key and all-triples reference, on
    tangles and random orientations with members dropped, added, flipped,
    replaced by the inverse of another member or by one naming a label
    outside the graph.  The graph may be relabelled 10 * pi(v) + 3, so that
    vertex bits do not follow labels 0..n-1.  Graphs with fewer than k
    vertices have the self-inverse separation (V, V)."""
    if relabel:
        perm = data.draw(st.permutations(g.vertices))
        name = {v: 10 * p + 3 for v, p in zip(g.vertices, perm)}
        g = Graph([name[v] for v in g.vertices], [(name[u], name[v]) for u, v in g.edges])
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
    ops = st.lists(st.sampled_from(["drop", "add", "flip", "double", "outside"]), max_size=3)
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
        elif op == "outside":  # as many members, one naming label 99
            members.add(sep(s.small, s.big | {99}))
    assert is_tangle(g, k, members) == reference_is_tangle(g, k, members)


def test_is_tangle_enumerates_no_separations(monkeypatch, connected_graphs_6):
    """is_tangle against the reference on every k-tangle of the connected
    atlas graphs with <= 6 vertices at k = 1 to 4, and on each with one
    maximal member flipped, with separation listing refused: the members
    are built and the reference verdicts taken first."""
    rng = random.Random(17)
    cases = []
    for g in connected_graphs_6:
        for k in (1, 2, 3, 4):
            for t in enumerate_tangles(g, k):
                s = rng.choice(t.maximal_members())
                for members in (t.members, (t.members - {s}) | {s.inverse()}):
                    cases.append((g, k, members, reference_is_tangle(g, k, members)))

    refuse_separation_lists(monkeypatch)
    for g, k, members, want in cases:
        assert is_tangle(g, k, members) == want


def test_map_tangles_list_no_separations(monkeypatch, connected_graphs_6):
    """Every k-tangle of the connected atlas graphs with <= 6 vertices at
    k = 1 to 4, holding its search map, with separation listing refused:
    its member set is the listed separations it holds, taken first; its
    sorted members come in sort-key order; its text is that of the same
    members given as a Tangle; and is_tangle on the tangle agrees with
    is_tangle on its members, and refuses it for another graph or order.
    reduce then checks a map root without building its member set."""
    cases = []
    for g in connected_graphs_6:
        shifted = Graph([v + 10 for v in g.vertices], [(u + 10, v + 10) for u, v in g.edges])
        for k in (1, 2, 3, 4):
            for tau in enumerate_tangles(g, k):
                cases.append((g, shifted, tau, {s for s in enumerate_separations(g, k) if s in tau}))

    with monkeypatch.context() as m:
        refuse_separation_lists(m)
        for g, shifted, tau, want in cases:
            k = tau.k
            assert "members" not in tau.__dict__
            assert tau.members == want
            listed = tau.sorted_members()
            assert listed == sorted(want, key=OrientedSeparation.sort_key)
            assert format_tangle(tau) == f"order {k}\n" + "".join(
                format_separation(s) + "\n" for s in sorted(want, key=OrientedSeparation.sort_key))
            assert is_tangle(g, k, tau) == is_tangle(g, k, tau.members)
            assert not any(is_tangle(h, j, tau) for h, j in ((shifted, k), (g, k - 1), (g, k + 1)))
    assert len(cases) == 492
    for g in connected_graphs_6[-20:]:
        for root in enumerate_tangles(g, 3):
            reduce(g, root)
            assert "members" not in root.__dict__


def test_search_sorts_tangles_without_listing_separations(monkeypatch, connected_graphs_6):
    """Two or more k-tangles come in the reference's order (see
    check_against_reference), with separation listing refused: on two K4s
    sharing the vertex 3 at k = 3, and on every connected atlas graph with
    <= 6 vertices that has two or more k-tangles at k = 1 to 4.  Their
    maps are those read off the reference member sets."""
    two_k4 = Graph(range(7), list(complete_graph(4).edges) + list(complete_graph(4, offset=3).edges))
    cases = [(two_k4, 3)] + [(g, k) for g in connected_graphs_6 for k in (1, 2, 3, 4)
                             if len(enumerate_tangles(g, k)) > 1]
    want = [(g, k, sorted(reference_tangles(g, k), key=_output_key)) for g, k in cases]

    refuse_separation_lists(monkeypatch)
    for g, k, members in want:
        got = enumerate_tangles(g, k)
        assert [t.members for t in got] == members
        assert [t._pick for t in got] == [Tangle(g, k, m)._pick for m in members]
    assert len(cases) == 74


# -- reading the separator-to-component map --------------------------------------


def test_membership_matches_the_member_set():
    """s in tau against s in tau.members on every tangle of the connected
    atlas graphs with <= 6 vertices at k = 1 to 4, both as found (holding
    its map) and given as members (reading the map off them).  Probes:
    every separation of order < k + 1, in both orientations as listed; each
    with one separator vertex dropped from one side (a separation or not)
    or from both (no longer covering V); and each with a label outside the
    graph added to a side."""
    checked = {"member": 0, "not a separation": 0}
    for g in atlas_graphs(6, connected_only=True):
        V = g.vertex_set()
        for k in range(1, 5):
            found = enumerate_tangles(g, k)
            if not found:
                continue
            probes = []
            for s in enumerate_separations(g, k + 1):
                A, B = s.small, s.big
                probes += [s, sep(A | {99}, B), sep(A, B | {99})]
                for v in s.separator:
                    probes += [sep(A - {v}, B), sep(A, B - {v}), sep(A - {v}, B - {v})]
            seps = set(enumerate_separations(g, len(V) + 1))
            checked["not a separation"] += sum(p not in seps for p in probes)
            for t in found:
                want = [p in t.members for p in probes]
                checked["member"] += sum(want)
                for tau in (t, Tangle(g, k, t.members)):
                    assert [p in tau for p in probes] == want
    assert min(checked.values()) > 1000, checked


def test_constructor_reads_exactly_one_maps_members(connected_graphs_6):
    """Tangle(g, k, members) on every tangle of the connected atlas graphs
    with <= 6 vertices at k = 1 to 4: a tangle's members give it back, with
    its hash.  Dropping a member, adding a member's inverse or one naming a
    label outside g is refused, and so is putting the last in a member's
    place (up to three members per tangle).  == is member-set equality on
    every pair of these tangles of one graph and of two maps per order that
    point every separator at its first or at its last component."""
    rng = random.Random(23)
    counts = {"tangles": 0, "pairs": 0}
    for g in connected_graphs_6:
        pool = []
        for k in range(1, 5):
            found = enumerate_tangles(g, k)
            pool += found + [Tangle._of_map(g, k, {x: comps[end] for x, comps in
                                                    separator_components(g, k)})
                             for end in (0, -1) if len(g.vertices) >= k]
            for t in found:
                same = Tangle(g, k, t.members)
                assert same == t and hash(same) == hash(t)
                for s in rng.sample(t.sorted_members(), min(3, len(t.members))):
                    outside = sep(s.small | {99}, s.big)
                    for bad in (t.members - {s}, t.members | {s.inverse()},
                                t.members | {outside}, (t.members - {s}) | {outside}):
                        with pytest.raises(TangleError, match="no separator-to-component map"):
                            Tangle(g, k, bad)
                counts["tangles"] += 1
        for a, b in itertools.product(pool, repeat=2):
            assert (a == b) == (a.members == b.members)
            counts["pairs"] += 1
    assert counts["tangles"] == 492 and counts["pairs"] > 10000, counts


def test_constructor_walks_no_more_separators_than_it_has_members(monkeypatch):
    """Tangle(g, k, members) walks the separators lazily and stops at the
    first one with no member row or two: on the 35 vertices of
    synth_rc(8, 0, 1, 3), no members at order 9 or 60 are refused after
    one separator, and the clique 3-tangle's members walk all 631."""
    from tanglekit.rainbow_cloud import clique_tangle, synth_rc

    g, _, clique = synth_rc(8, 0, 1, 3)
    members = clique_tangle(g, clique, 3).members
    walk, walked = tangles_module.separator_components, []

    def counted(*args):
        for split in walk(*args):
            walked.append(split)
            yield split

    monkeypatch.setattr(tangles_module, "separator_components", counted)
    for k in (9, 60):
        walked.clear()
        with pytest.raises(TangleError, match=f"not a {k}-tangle"):
            Tangle(g, k, ())
        assert len(walked) == 1
    walked.clear()
    assert is_tangle(g, 3, Tangle(g, 3, members))
    assert len(walked) == 2 * 631 < len(members)  # the constructor's walk and _is_map's


def test_extends_matches_member_subsets():
    """extends against the member-subset test, for every tangle of the
    connected atlas graphs with <= 6 vertices at k = 1 to 4: against every
    k-tangle of each g - e, and every (k + 1)-tangle of g."""
    verdicts = {True: 0, False: 0}
    for g in atlas_graphs(6, connected_only=True):
        for k in range(1, 5):
            found = enumerate_tangles(g, k)
            if not found:
                continue
            others = enumerate_tangles(g, k + 1)
            for e in g.sorted_edges():
                others += enumerate_tangles(delete_edge(g, e), k)
            for tau in found:
                for t2 in others:
                    want = tau.members <= t2.members
                    assert extends(tau, t2) == want
                    verdicts[want] += 1
    assert min(verdicts.values()) > 100, verdicts


def test_large_rainbow_tangle_enumerates_no_separations(monkeypatch):
    """The clique tangle of synth_rc(30, 0, 1, 2) has 98 vertices and too
    many separations of order < 2 to list; everything reads its map, and its
    member set is refused at the separation cap, with listing still refused."""
    from tanglekit.rainbow_cloud import clique_tangle, synth_rc

    g, rc, clique = synth_rc(30, 0, 1, 2)
    tau = clique_tangle(g, clique, 2)
    refuse_separation_lists(monkeypatch)
    V = g.vertex_set()
    assert repr(tau) == "Tangle(k=2, |V|=98, separators=99)"
    assert tau.core() == clique | rc.sun
    assert tau.maximal_members() == [sep(V - clique, clique | rc.sun)] + [
        sep({v}, V) for v in sorted(clique)
    ]
    assert extends(tau, tau)
    tri = rc.bags[15]  # a triangle whose top the sun sees
    s = sep(tri | rc.sun, V - tri)
    assert s in tau and s.inverse() not in tau and tau.orients(s.inverse()) == s
    assert sep(tri, V - tri) not in tau  # the sun edge crosses: no separation
    with pytest.raises(GraphError, match="separations of order < 2"):
        tau.members
