"""Linear decompositions, window/chain machinery, and size guarantees."""

import itertools
import math

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tanglekit.decomposition import (
    DecompositionError,
    LinearDecomposition,
    bound_chain_refinement,
    bound_linkage_uniformity,
    bound_rc_existence,
    build_linear_decomposition,
    chain_to_bags,
    check_bag_cover,
    check_bag_interval,
    check_disjoint_adhesions,
    check_equal_adhesion,
    check_inner_linkages,
    check_proper_bags,
    check_uniform_connections,
    check_uniform_trivial_paths,
    compute_bounds,
    foundational_linkage,
    is_linear_decomposition,
    is_rainbow_decomposition,
    max_linkage_size,
    monotone_window,
    monotone_window_guarantee,
    refine_chain,
    vertex_disjoint_paths,
)
from tanglekit.graphs import Graph, complete_graph, cycle_graph, path_graph
from tanglekit.separations import enumerate_separations, longest_strict_chain


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
    assert check_uniform_trivial_paths(ld, linkage)
    assert check_uniform_connections(ld, linkage)


def test_uniform_trivial_paths_detects_mixture():
    # one path sits still in exactly one inner bag: bags repeat vertex 9
    g = Graph(
        range(10),
        [(0, 1), (1, 2), (2, 3), (4, 5), (5, 6), (6, 7), (0, 4), (3, 7),
         (8, 9), (1, 8)],
    )
    ld = LinearDecomposition(
        g,
        [
            frozenset({0, 4, 1, 5, 8}),
            frozenset({1, 5, 2, 6, 8}),
            frozenset({2, 6, 3, 7, 8, 9}),
        ],
    )
    linkage = [(0, 1, 2), (4, 5, 6), (8, 8, 8)]
    # path (8, 8, 8) stands in for one trivial in every inner bag -> uniform
    assert check_uniform_trivial_paths(ld, [(0, 1, 2), (8,)])


# -- monotone windows -------------------------------------------------------------


def oracle_window(a, n):
    """Exhaustive scan matching monotone_window's preference order."""
    best = (0, [])
    for v in sorted(set(a)):
        runs, start = [], None
        for idx in range(len(a) + 1):
            inside = idx < len(a) and a[idx] >= v
            if inside and start is None:
                start = idx
            if not inside and start is not None:
                runs.append((start, idx))
                start = None
        for lo, hi in runs:
            hits = [i for i in range(lo, hi) if a[i] == v]
            if len(hits) >= n:
                return (v, hits[:n])
            if len(hits) > len(best[1]):
                best = (v, hits)
    return best


@given(
    st.lists(st.integers(min_value=0, max_value=3), max_size=30),
    st.integers(min_value=1, max_value=5),
)
def test_monotone_window_matches_oracle(a, n):
    assert monotone_window(a, n) == oracle_window(a, n)


def test_monotone_window_guarantee_exhaustive():
    # every sequence of length n**m over {0..m-1} admits an n-window
    for n, m in [(2, 1), (2, 2), (3, 2), (2, 3)]:
        L = monotone_window_guarantee(n, m)
        for a in itertools.product(range(m), repeat=L):
            v, idx = monotone_window(list(a), n)
            assert len(idx) == n
            assert all(a[i] == v for i in idx)
            assert all(a[j] >= v for j in range(idx[0], idx[-1] + 1))


def test_monotone_window_examples():
    assert monotone_window([2, 1, 2, 1, 2], 3) == (1, [1, 3])  # short of 3
    assert monotone_window([1, 2, 1, 2, 1], 3) == (1, [0, 2, 4])
    assert monotone_window([], 2) == (0, [])


# -- chain refinement --------------------------------------------------------------


def no_lower_order_between(g, picks, level):
    for a, b in zip(picks, picks[1:]):
        for s in enumerate_separations(g, level):
            if a.lt(s) and s.lt(b):
                return False
    return True


def count_vector(chain, level):
    """Occurrences of each order < level, most significant first."""
    return tuple(
        sum(1 for s in chain if s.order == o) for o in range(level)
    )


def test_refine_chain_on_long_path():
    g = path_graph(9)
    chain = longest_strict_chain(g, 2)
    level, picks = refine_chain(g, chain, 4)
    assert len(picks) == 4
    assert all(s.order == level for s in picks)
    for a, b in zip(picks, picks[1:]):
        assert a.lt(b)
    assert no_lower_order_between(g, picks, level)


def test_refine_chain_iteration_progress_on_cycle():
    g = cycle_graph(8)
    chain = longest_strict_chain(g, 3)
    snapshots = []
    level, picks = refine_chain(g, chain, 3, on_iteration=snapshots.append)
    assert snapshots, "at least one pass runs"
    assert all(s.order == level for s in picks)
    assert no_lower_order_between(g, picks, level)
    # each splice strictly increases the low-order count vector
    if len(snapshots) > 1:
        lvl = max(s.order for snap in snapshots for s in snap) + 1
        vecs = [count_vector(snap, lvl) for snap in snapshots]
        for u, v in zip(vecs, vecs[1:]):
            assert v > u


def test_refine_chain_rejects_non_increasing():
    g = path_graph(4)
    chain = longest_strict_chain(g, 2)
    with pytest.raises(DecompositionError):
        refine_chain(g, [chain[1], chain[0]], 2)


def test_refine_chain_small_graph_sweep(small_graphs):
    for g in small_graphs:
        if not g.edges:
            continue
        chain = longest_strict_chain(g, 3)
        if len(chain) < 2:
            continue
        level, picks = refine_chain(g, chain, 3)
        assert all(s.order == level for s in picks)
        for a, b in zip(picks, picks[1:]):
            assert a.lt(b)
        assert no_lower_order_between(g, picks, level)


# -- chain to bags ------------------------------------------------------------------


def test_chain_to_bags_path():
    g = path_graph(6)
    chain = longest_strict_chain(g, 2)
    level, picks = refine_chain(g, chain, 4)
    bags = chain_to_bags(picks)
    ld = LinearDecomposition(g, bags)
    assert is_linear_decomposition(ld)


def test_chain_to_bags_rejects_empty():
    with pytest.raises(DecompositionError):
        chain_to_bags([])


def test_build_linear_decomposition_paths_and_cycles():
    for g in [path_graph(8), cycle_graph(8), ladder(5)]:
        ld = build_linear_decomposition(g, 2, 3)
        assert is_linear_decomposition(ld)
        assert ld.graph == g


def test_build_linear_decomposition_needs_chain():
    g = Graph((), ())
    with pytest.raises(DecompositionError):
        build_linear_decomposition(g, 1, 2)


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
