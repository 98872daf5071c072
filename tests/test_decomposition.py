"""Linear decompositions, linkages, and size guarantees."""

import itertools
import math

import networkx as nx
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tanglekit.decomposition import (
    DecompositionError,
    LinearDecomposition,
    bound_chain_refinement,
    bound_linkage_uniformity,
    bound_rc_existence,
    check_bag_cover,
    check_bag_interval,
    check_disjoint_adhesions,
    check_equal_adhesion,
    check_inner_linkages,
    check_proper_bags,
    compute_bounds,
    foundational_linkage,
    is_linear_decomposition,
    is_rainbow_decomposition,
    max_linkage_size,
    vertex_disjoint_paths,
)
from tanglekit.graphs import Graph, complete_graph, path_graph


def ladder(rungs: int) -> Graph:
    """Two parallel paths 0..r-1 and r..2r-1 with a rung at each step."""
    top = [(i, i + 1) for i in range(rungs - 1)]
    bot = [(rungs + i, rungs + i + 1) for i in range(rungs - 1)]
    rung = [(i, rungs + i) for i in range(rungs)]
    return Graph(range(2 * rungs), top + bot + rung)


# -- vertex-disjoint paths ------------------------------------------------------


def nx_node_connectivity(g: Graph, sources, targets) -> int:
    """Menger oracle: max vertex-disjoint S-T paths via networkx flow."""
    S, T = set(sources) & g.vertex_set(), set(targets) & g.vertex_set()
    common = S & T
    D = nx.DiGraph()
    for v in g.vertices:
        if v not in common:
            D.add_edge(("i", v), ("o", v), capacity=1)
    for u, v in g.edges:
        if u in common or v in common:
            continue
        D.add_edge(("o", u), ("i", v), capacity=len(g.vertices))
        D.add_edge(("o", v), ("i", u), capacity=len(g.vertices))
    D.add_node("s")
    D.add_node("t")
    for s in S - common:
        D.add_edge("s", ("i", s), capacity=1)
    for t in T - common:
        D.add_edge(("o", t), "t", capacity=1)
    flow = nx.maximum_flow_value(D, "s", "t") if (S - common and T - common) else 0
    return len(common) + int(flow)


def check_paths_valid(g, S, T, paths):
    S, T = frozenset(S), frozenset(T)
    seen = set()
    for p in paths:
        assert p[0] in S and p[-1] in T
        # internal vertices avoid both terminal sets
        for v in p[1:-1]:
            assert v not in S and v not in T
        for u, v in zip(p, p[1:]):
            assert g.has_edge(u, v)
        assert seen.isdisjoint(p)
        seen.update(p)


def test_vertex_disjoint_paths_on_ladder():
    g = ladder(4)
    S, T = {0, 4}, {3, 7}
    paths = vertex_disjoint_paths(g, S, T)
    assert len(paths) == 2
    check_paths_valid(g, S, T, paths)


def test_vertex_disjoint_paths_shared_vertices_are_trivial():
    g = path_graph(5)
    paths = vertex_disjoint_paths(g, {0, 2}, {2, 4})
    assert (2,) in paths
    check_paths_valid(g, {0, 2}, {2, 4}, paths)


def test_max_linkage_matches_flow_oracle(small_graphs):
    for g in small_graphs:
        vs = sorted(g.vertex_set())
        if len(vs) < 2 or not g.edges:
            continue
        half = len(vs) // 2
        for S, T in [
            (vs[:half], vs[half:]),
            (vs[:1], vs[-1:]),
            (vs[:2], vs[-2:]),
        ]:
            got = vertex_disjoint_paths(g, S, T)
            check_paths_valid(g, S, T, got)
            assert len(got) == nx_node_connectivity(g, S, T)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_linkage_matches_flow_oracle_property(data):
    labels = data.draw(st.lists(st.integers(0, 40), min_size=1, max_size=10, unique=True))
    pairs = list(itertools.combinations(labels, 2))
    edges = data.draw(st.sets(st.sampled_from(pairs)) if pairs else st.just(set()))
    g = Graph(labels, edges)
    S = data.draw(st.sets(st.sampled_from(labels)))
    T = data.draw(st.sets(st.sampled_from(labels)))
    got = vertex_disjoint_paths(g, S, T)
    check_paths_valid(g, S, T, got)
    assert got == sorted(got)
    assert len(got) == max_linkage_size(g, S, T) == nx_node_connectivity(g, S, T)


@st.composite
def gapped_relabellings(draw):
    """A graph on 0..n-1, sources and targets, and the gaps of an
    increasing relabelling."""
    n = draw(st.integers(1, 12))
    pairs = list(itertools.combinations(range(n), 2))
    edges = draw(st.sets(st.sampled_from(pairs)) if pairs else st.just(set()))
    S, T = (draw(st.sets(st.integers(0, n - 1))) for _ in "ST")
    return n, edges, S, T, draw(st.lists(st.integers(1, 9), min_size=n, max_size=n))


@settings(max_examples=200, deadline=None)
@given(gapped_relabellings())
# searching neighbours in set order, this one came out other than relabelled
@example((4, {(0, 2), (1, 2), (1, 3), (2, 3)}, {3}, {1, 2}, [6, 9, 1, 7]))
def test_linkage_follows_the_order_of_the_labels(case):
    """Relabelling by an increasing map with gaps relabels the paths: the
    search reads neighbours in label order, not in set order."""
    n, edges, S, T, gaps = case
    image = dict(zip(range(n), itertools.accumulate(gaps)))
    h = Graph(image.values(), [(image[u], image[v]) for u, v in edges])
    got = vertex_disjoint_paths(h, {image[v] for v in S}, {image[v] for v in T})
    want = vertex_disjoint_paths(Graph(range(n), edges), S, T)
    assert got == [tuple(image[v] for v in p) for p in want]


def test_max_linkage_size_complete_graph():
    g = complete_graph(6)
    assert max_linkage_size(g, {0, 1, 2}, {3, 4, 5}) == 3


# -- linear decomposition validators --------------------------------------------


def ladder_decomposition(rungs=5):
    g = ladder(rungs)
    bags = [
        frozenset({i, i + 1, rungs + i, rungs + i + 1})
        for i in range(rungs - 1)
    ]
    return LinearDecomposition(g, bags)


def test_ladder_decomposition_is_rainbow():
    ld = ladder_decomposition(6)
    assert is_linear_decomposition(ld)
    assert check_inner_linkages(ld)
    assert check_disjoint_adhesions(ld)
    assert is_rainbow_decomposition(ld)
    assert ld.adhesion == 2
    assert ld.length == 4


def test_validator_flags_missing_cover():
    g = ladder(4)
    ld = LinearDecomposition(g, [frozenset({0, 1, 4, 5}), frozenset({1, 2, 5, 6})])
    assert not check_bag_cover(ld)


def test_validator_flags_interval_violation():
    g = path_graph(4)
    ld = LinearDecomposition(
        g, [frozenset({0, 1}), frozenset({1, 2}), frozenset({0, 2, 3})]
    )
    assert not check_bag_interval(ld)


def test_validator_flags_unequal_adhesion():
    g = Graph(range(5), [(0, 1), (1, 2), (2, 3), (1, 3), (3, 4)])
    ld = LinearDecomposition(
        g, [frozenset({0, 1}), frozenset({1, 2, 3}), frozenset({2, 3, 4})]
    )
    assert check_bag_cover(ld) and check_bag_interval(ld)
    assert not check_equal_adhesion(ld)
    with pytest.raises(DecompositionError):
        ld.adhesion


def test_validator_flags_swallowed_bag():
    g = path_graph(3)
    ld = LinearDecomposition(g, [frozenset({0, 1}), frozenset({0, 1, 2})])
    assert not check_proper_bags(ld)


def test_validator_flags_broken_linkage():
    # middle part has only one path between its two adhesion pairs
    g = Graph(
        range(7),
        [(0, 1), (0, 2), (1, 3), (2, 3), (3, 4), (3, 5), (4, 5), (4, 6), (5, 6)],
    )
    ld = LinearDecomposition(
        g,
        [frozenset({0, 1, 2}), frozenset({1, 2, 3, 4, 5}), frozenset({4, 5, 6})],
    )
    assert is_linear_decomposition(ld)
    assert not check_inner_linkages(ld)


# -- foundational linkage --------------------------------------------------------


def test_foundational_linkage_on_ladder():
    ld = ladder_decomposition(6)
    linkage = foundational_linkage(ld)
    assert len(linkage) == ld.adhesion == 2
    ends = ld.adhesion_set(ld.length)
    for p in linkage:
        assert p[0] in ld.adhesion_set(1) and p[-1] in ends
        for u, v in zip(p, p[1:]):
            assert ld.graph.has_edge(u, v)
    # vertex-disjoint
    flat = [v for p in linkage for v in p]
    assert len(flat) == len(set(flat))


# -- size guarantees -----------------------------------------------------------------


def test_bound_chain_refinement_values():
    assert bound_chain_refinement(1, 1) == 3 * 3**9 == 59049
    assert bound_chain_refinement(2, 3) == 6 * 3**125
    # strictly monotone in both arguments
    assert bound_chain_refinement(2, 4) > bound_chain_refinement(2, 3)
    assert bound_chain_refinement(3, 3) > bound_chain_refinement(2, 3)


def test_bound_linkage_uniformity_values():
    # ell = 0 and 1: no pairs, factorials collapse to 1
    assert bound_linkage_uniformity(0, 5) == 1
    assert bound_linkage_uniformity(1, 2) == 1
    assert bound_linkage_uniformity(2, 3) == (3 * 1 + 1) * 2**3 * 2
    f = math.factorial
    for ell, M in itertools.product(range(1, 5), range(1, 5)):
        expect = (M * math.comb(ell, 2) + 1) * f(ell) ** (ell + 1) * f(ell)
        assert bound_linkage_uniformity(ell, M) == expect


def test_bound_rc_existence_symbolic():
    b = bound_rc_existence(2, 3)
    m1 = bound_linkage_uniformity(2, 5)
    assert (b.factor, b.base, b.exponent) == (6, 3, (m1 + 2) ** 3)
    assert b.log10() == pytest.approx(math.log10(6) + b.exponent * math.log10(3))
    small = bound_rc_existence(1, 1)
    assert small.value() == 3 * 3**small.exponent
    with pytest.raises(OverflowError):
        bound_rc_existence(3, 10).value(max_digits=10)


def test_compute_bounds_ledger():
    led = compute_bounds(2, 3)
    assert led.ell == 2
    assert led.chain_bound == bound_chain_refinement(2, 3)
    assert led.linkage_bound == bound_linkage_uniformity(2, 3)
    assert str(led.overall) == str(bound_rc_existence(2, 3))
    led2 = compute_bounds(3, 2, ell=1)
    assert led2.ell == 1
    assert led2.linkage_bound == bound_linkage_uniformity(1, 2)
    with pytest.raises(DecompositionError):
        compute_bounds(0, 3)
