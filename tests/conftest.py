import functools
import itertools

import networkx as nx
import pytest
from hypothesis import strategies as st

from tanglekit.graphs import Graph, GraphError, path_graph
from tanglekit.rainbow_cloud import RCDecomposition, synth_rc
from tanglekit.separations import (
    OrientedSeparation,
    enumerate_separations,
    is_separation,
    separator_components,
)
from tanglekit.tangles import Tangle


def nx_to_graph(h) -> Graph:
    mapping = {v: i for i, v in enumerate(sorted(h.nodes()))}
    return Graph(
        range(h.number_of_nodes()),
        [(mapping[u], mapping[v]) for u, v in h.edges()],
    )


@functools.lru_cache(maxsize=None)
def atlas_graphs(max_n: int, connected_only: bool = False, min_n: int = 1):
    """All graphs with min_n..max_n vertices, from the networkx atlas."""
    out = []
    for h in nx.graph_atlas_g():
        n = h.number_of_nodes()
        if n < min_n or n > max_n:
            continue
        if connected_only and (n == 0 or not nx.is_connected(h)):
            continue
        out.append(nx_to_graph(h))
    return out


@pytest.fixture(scope="session")
def small_graphs():
    return atlas_graphs(5)


@pytest.fixture(scope="session")
def medium_graphs():
    return atlas_graphs(6)


@pytest.fixture(scope="session")
def connected_graphs_6():
    return atlas_graphs(6, connected_only=True)


@pytest.fixture(scope="session")
def connected_graphs_7():
    return atlas_graphs(7, connected_only=True)


def inconsistent_path_map():
    """The map on the path 0-1-2-3 at k = 2 with C({1}) = {0} and
    C({2}) = {3}: the 2-tangle of the edge 01 with its component at {2}
    flipped.  It is no tangle: ({1,2,3}, {0,1,2}) lies below the row of
    {1}, and its inverse below the row of {2}."""
    g = path_graph(4)  # bit i is vertex i
    return Tangle._of_map(g, 2, {x: comps[-1] if x == 0b0100 else comps[0]
                                 for x, comps in separator_components(g, 2)})


def relabel_rc(g, rc, clique, perm):
    """A synth_rc triple with every vertex v renamed perm[v]."""
    h = Graph([perm[v] for v in g.vertices], [(perm[a], perm[b]) for a, b in g.edges])

    def image(vs):
        return frozenset(perm[v] for v in vs)

    rc = RCDecomposition(h, tuple(map(image, rc.bags)), image(rc.sun), image(rc.cloud))
    return h, rc, image(clique)


@st.composite
def synth_rc_instances(draw, max_length=5):
    """synth_rc(M, ell, z) with M <= max_length, ell and z in 0..2 (not both
    0), under a random relabelling of its vertices."""
    ell, z = draw(st.sampled_from([(a, b) for a in range(3) for b in range(3) if a or b]))
    g, rc, clique = synth_rc(draw(st.integers(1, max_length)), ell, z)
    vs = sorted(g.vertices)
    perm = dict(zip(vs, draw(st.permutations(vs))))
    return relabel_rc(g, rc, clique, perm)


# -- independent separation and tangle checks -----------------------------------


def enumerate_separations_naive(g: Graph, k: int):
    """Brute-force oracle: try all 3^n side assignments.  Tiny graphs only."""
    V = list(g.vertices)
    if len(V) > 8:
        raise GraphError("naive enumeration limited to 8 vertices")
    out = set()
    for assign in itertools.product((0, 1, 2), repeat=len(V)):
        small = frozenset(v for v, a in zip(V, assign) if a != 1)
        big = frozenset(v for v, a in zip(V, assign) if a != 0)
        s = OrientedSeparation(small, big)
        if s.order < k and is_separation(g, s):
            out.add(s)
    return sorted(out, key=OrientedSeparation.sort_key)


def reference_is_orientation(g, k, members):
    """One orientation per order-< k separation, grouped by canonical key."""
    members = set(members)
    want = {}
    for s in enumerate_separations(g, k):
        want.setdefault(s.canonical_key(), []).append(s)
    if len(members) != len(want):
        return False
    seen = set()
    for s in members:
        key = s.canonical_key()
        if key not in want or s not in want[key] or key in seen:
            return False
        seen.add(key)
    return True


def reference_is_tangle(g, k, members):
    """reference_is_orientation, then every triple of members (repetition
    allowed) tested on frozensets for covering all vertices and edges."""
    if not reference_is_orientation(g, k, members):
        return False
    V = g.vertex_set()
    edges = [frozenset(e) for e in g.edges]
    smalls = {s.small for s in members}
    return not any(
        a | b | c == V and all(e <= a or e <= b or e <= c for e in edges)
        for a, b, c in itertools.combinations_with_replacement(smalls, 3)
    )


def apply_line_edits(lines, edits):
    lines = list(lines)
    for pos, op, new in edits:  # op 0 inserts, 1 replaces, 2 deletes
        lines[pos : pos + (op > 0)] = [] if op == 2 else [new]
    return "".join(f"{x}\n" for x in lines)
