import gc
import itertools
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tanglekit.graphs import Graph, GraphError, complete_graph, cycle_graph, delete_edge, path_graph
from tanglekit.rainbow_cloud import synth_rc
from tanglekit.separations import (
    OrientedSeparation,
    are_crossing,
    check_submodular_equality,
    enumerate_separations,
    format_separation,
    is_nested,
    is_separation,
    parse_separation,
    sep,
    unoriented_count,
)

from conftest import atlas_graphs, enumerate_separations_naive


def test_enumerate_k4():
    k4 = complete_graph(4)
    seps = enumerate_separations(k4, 3)
    # empty set, 4 singletons, 6 pairs -- always against the full vertex set
    assert unoriented_count(seps) == 11
    # a complete graph leaves one side full in every separation
    assert all(k4.vertex_set() in (s.small, s.big) for s in seps)
    assert unoriented_count(enumerate_separations(k4, 1)) == 1
    k2 = complete_graph(2)
    assert unoriented_count(enumerate_separations(k2, 2)) == 3


def test_enumerate_matches_naive_oracle():
    for g in atlas_graphs(5):
        for k in (1, 2, 3, 4):
            assert enumerate_separations(g, k) == enumerate_separations_naive(g, k), (g, k)


@st.composite
def labelled_graphs(draw):
    """Graphs with at most 6 vertices on distinct, non-contiguous labels."""
    labels = draw(st.lists(st.integers(0, 60), min_size=1, max_size=6, unique=True))
    pairs = list(itertools.combinations(labels, 2))
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    return Graph(labels, edges)


@settings(max_examples=60, deadline=None)
@given(labelled_graphs(), st.integers(0, 5))
def test_enumerate_matches_naive_oracle_property(g, k):
    assert enumerate_separations(g, k) == enumerate_separations_naive(g, k)


def test_inverse_shares_both_sides():
    for g in atlas_graphs(5) + [cycle_graph(7, offset=3)]:
        seps = enumerate_separations(g, 3)
        index = {s: s for s in seps}
        for s in seps:
            t = index[s.inverse()]
            assert t.small is s.big and t.big is s.small


def test_enumeration_lives_with_its_graph():
    """Nothing keeps separations globally: each list is its caller's, and
    the shared sides go with their graph."""
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for i in range(40):
            g = cycle_graph(16, offset=100 * i)
            assert len(enumerate_separations(g, 3)) > 0
        del g
        gc.collect()
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert grown < 1 << 20, f"{grown / 2**20:.2f} MB still held"


def test_enumeration_refuses_an_oversized_list():
    # 4,194,482 separations: building them once got the process killed
    g = synth_rc(20, 0, 1, 2)[0]
    with pytest.raises(GraphError, match="^4194482 separations of order < 2"):
        enumerate_separations(g, 2)
    assert g._sides == {} and g._masks_by_side == {}


def test_returned_list_is_the_callers():
    g = cycle_graph(5)
    first = enumerate_separations(g, 2)
    want = list(first)
    first.clear()
    assert enumerate_separations(g, 2) == want


def test_each_call_builds_a_new_list_on_shared_sides():
    """Calls at k = 2, 3, 2: the two k = 2 lists are equal but distinct, and
    every side, across all three lists, is the one frozenset of its set."""
    g = synth_rc(6, 1, 1)[0]
    first, mid, again = (enumerate_separations(g, k) for k in (2, 3, 2))
    assert again == first and again is not first
    by_set = {}
    for s in first + mid + again:
        for side in (s.small, s.big):
            assert by_set.setdefault(side, side) is side
    assert all(x.small is y.small and x.big is y.big for x, y in zip(first, again))
    assert {s.small for s in first} <= {s.small for s in mid}


def test_order_and_symmetry():
    k4 = complete_graph(4)
    v = k4.vertex_set()
    assert sep(frozenset(), v).order == 0
    s = sep(frozenset({0, 1}), v)
    assert s.order == 2 and s.inverse().order == 2


def test_lattice_corners():
    p4 = path_graph(4)
    v = p4.vertex_set()
    s1 = sep(frozenset({0, 1}), frozenset({1, 2, 3}))
    s2 = sep(frozenset({0, 1, 2}), frozenset({2, 3}))
    assert s1.meet(s2) == s1
    assert s1.join(s1) == s1
    bottom = sep(frozenset(), v)
    assert bottom.le(s1) and bottom.le(s2)


def test_nested_and_crossing_examples():
    s1 = sep(frozenset({0, 1}), frozenset({1, 2, 3}))
    s2 = sep(frozenset({2, 3}), frozenset({0, 1, 2}))
    assert is_nested(s1, s2)
    c1 = sep(frozenset({0, 1, 2}), frozenset({2, 3, 0}))
    c2 = sep(frozenset({1, 2, 3}), frozenset({3, 0, 1}))
    assert are_crossing(c1, c2)


def test_lattice_laws_small_graphs():
    """Submodular equality and corner orders on every separation pair."""
    for g in atlas_graphs(5):
        seps = enumerate_separations(g, len(g.vertices) + 1)  # both orientations
        for s in seps:
            for t in seps:
                assert check_submodular_equality(s, t)
                m, j = s.meet(t), s.join(t)
                assert is_separation(g, m) and is_separation(g, j)
                assert m.order + j.order == s.order + t.order


def test_distributivity_small_graphs():
    for g in atlas_graphs(4):
        seps = enumerate_separations(g, len(g.vertices) + 1)  # both orientations
        for x in seps:
            for y in seps:
                for z in seps:
                    assert x.meet(y.join(z)) == x.meet(y).join(x.meet(z))


def test_monotone_in_k():
    for g in atlas_graphs(5, connected_only=True):
        prev = set()
        for k in range(1, len(g.vertices) + 1):
            cur = set(enumerate_separations(g, k))
            assert prev <= cur
            prev = cur


def test_subgraph_inherits_separations():
    for g in atlas_graphs(5, connected_only=True):
        if not g.edges:
            continue
        e = g.sorted_edges()[0]
        g2 = delete_edge(g, e)
        for s in enumerate_separations(g, len(g.vertices)):
            assert is_separation(g2, s)


def test_serialization_round_trip():
    s = sep(frozenset({0, 1}), frozenset({1, 2, 3}))
    assert parse_separation(format_separation(s)) == s


def parse_separation_reference(line):
    """The per-item generator parser, kept to pin down what is accepted."""
    line = line.strip()
    try:
        left, right = line.split("] [")
        small = left.lstrip("[")
        big = right.rstrip("]")
        parse = lambda part: frozenset(int(x) for x in part.split(",") if x.strip())
        return OrientedSeparation(parse(small), parse(big))
    except ValueError:
        raise GraphError(f"bad separation line: {line!r}")


def parse_outcome(parse, line):
    try:
        return parse(line)
    except GraphError as exc:
        return ("GraphError", str(exc))


@settings(max_examples=300, deadline=None)
@given(st.one_of(
    st.text(alphabet="[] ,0123-+_x\t", max_size=16),
    st.builds(
        "{}] [{}".format,
        st.text(alphabet="[ ,012-_", max_size=8),
        st.text(alphabet="] ,012+", max_size=8),
    ),
))
def test_parse_separation_matches_reference(line):
    assert parse_outcome(parse_separation, line) == parse_outcome(
        parse_separation_reference, line
    )


@pytest.mark.parametrize("line", ["[0, 1] [1,2]", " [[3] [3,4]] ", "[,0,] [ ]", "[1,,2] [2]"])
def test_parse_separation_examples(line):
    assert parse_outcome(parse_separation, line) == parse_outcome(
        parse_separation_reference, line
    )


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 30))
def test_submodular_property(idx):
    graphs = atlas_graphs(5, connected_only=True)
    g = graphs[idx % len(graphs)]
    seps = enumerate_separations(g, len(g.vertices))
    oriented = [s for u in seps for s in (u, u.inverse())]
    for s in oriented[:10]:
        for t in oriented[-10:]:
            assert check_submodular_equality(s, t)
