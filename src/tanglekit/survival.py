"""Transferring a tangle to a smaller graph.

A tangle "survives" in a reduced graph (edge deleted, degree-2 vertex
suppressed, or a component taken) when the reduced graph has a tangle of
the same order agreeing with it on every shared separation.  Each function
here states that smaller tangle as a membership test, read off the rows by
Tangle._of_rule; none of them enumerates tangles of the reduced graph.
"""

from __future__ import annotations

from .graphs import Graph, delete_edge, suppress_vertex
from .separations import OrientedSeparation
from .tangles import (
    Tangle,
    TangleError,
    enumerate_tangles,
    maximal_members,
    search_extension,
)


def _require(cond, msg):
    if not cond:
        raise TangleError(msg)


def tangle_of_component(g: Graph, comp: frozenset) -> Tangle:
    """The order-1 tangle pointing at a component's vertex set."""
    _require(comp in g.component_vertex_sets(), "not a component vertex set")
    return Tangle._of_rule(g, 1, lambda s: comp <= s.big)


def tangle_of_block(g: Graph, block: frozenset) -> Tangle:
    """The order-2 tangle pointing at a block's vertex set.

    A separation of order < 2 leaves any block entirely inside one side.
    """
    return Tangle._of_rule(g, 2, lambda s: block <= s.big)


# -- order-specific edge-deletion survival ---------------------------------


def survive_delete_edge_k1(g: Graph, tau: Tangle, e) -> Tangle:
    """Order 1: after deleting any edge, follow a surviving component.

    The tangle's core component may split in two; the piece holding the
    smallest label is taken.
    """
    _require(tau.k == 1, "order-1 construction")
    g2 = delete_edge(g, e)
    core = tau.core()
    pieces = [c for c in g2.component_vertex_sets() if c <= core]
    _require(bool(pieces), "core vanished, which cannot happen")
    target = min(pieces, key=min)
    return tangle_of_component(g2, target)


def survive_delete_edge_k2(g: Graph, tau: Tangle):
    """Order 2: pick a deletable edge and the surviving block tangle.

    Keeps the smallest edge f of the core block as an anchor; deletes the
    smallest other edge e of the graph.  Returns (e, tangle in g - e).
    """
    _require(tau.k == 2, "order-2 construction")
    _require(len(g.edges) >= 2, "needs at least two edges")
    core_edges = sorted(g.edges_within(tau.core()))
    _require(bool(core_edges), "core block carries no edge")
    f = core_edges[0]
    e = min(x for x in g.edges if x != f)
    g2 = delete_edge(g, e)
    return e, Tangle._of_rule(g2, 2, lambda s: f[0] in s.big and f[1] in s.big)


# -- restriction to a component ---------------------------------------------


def restrict_to_component(g: Graph, tau: Tangle):
    """The unique component the tangle lives in, with its induced tangle.

    Returns (component graph, tangle).  A separation of the component is
    oriented by padding its first side with all vertices outside the
    component and reading off the big tangle.
    """
    core1 = g.vertex_set()
    for s in tau.members:
        if s.order == 0:
            core1 &= s.big
    comp = g.induced(core1)
    _require(comp.is_connected() or not comp.vertices,
             "order-0 members do not single out a component")
    rest = g.vertex_set() - core1
    return comp, Tangle._of_rule(
        comp, tau.k, lambda s: OrientedSeparation(s.small | rest, s.big) in tau.members
    )


# -- pendant edges and vertex suppression ------------------------------------


def survive_delete_pendant_edge(g: Graph, tau: Tangle, v) -> Tangle:
    """Order >= 3: deleting the edge at a degree-1 vertex keeps the tangle.

    A separation of the reduced graph joins the new tangle if some way of
    shuffling the pendant vertex across sides was already chosen.
    """
    _require(tau.k >= 3, "needs order >= 3")
    _require(v in g and g.degree(v) == 1, "not a pendant vertex")
    (u,) = g.neighbors(v)
    g2 = delete_edge(g, (u, v))

    def rule(s):
        A, B = s.small, s.big
        cands = (s, OrientedSeparation(A - {v}, B | {v}), OrientedSeparation(A | {v}, B - {v}))
        return any(c in tau.members for c in cands)

    return Tangle._of_rule(g2, tau.k, rule)


def survive_suppress_vertex(g: Graph, tau: Tangle, v) -> Tangle:
    """Order >= 3: the tangle survives the suppression of a degree-2 vertex.

    A separation of the reduced graph joins the new tangle if the tangle
    chose it with the suppressed vertex added to either side.
    """
    _require(tau.k >= 3, "needs order >= 3")
    g2 = suppress_vertex(g, v)
    return Tangle._of_rule(g2, tau.k, lambda s: (
        OrientedSeparation(s.small | {v}, s.big) in tau.members
        or OrientedSeparation(s.small, s.big | {v}) in tau.members
    ))


# -- survival helped by a higher-order tangle ---------------------------------


def orientation_across_edge(tau_tilde: Tangle, s: OrientedSeparation, e) -> bool:
    """Does the higher-order tangle point along s once e is added back?

    s separates the reduced graph but e crosses it; adding e's endpoints
    to either side gives two host separations which the higher-order
    tangle orients the same way.
    """
    ends = frozenset(e)
    plus_small = OrientedSeparation(s.small | ends, s.big)
    plus_big = OrientedSeparation(s.small, s.big | ends)
    a = plus_small in tau_tilde.members
    b = plus_big in tau_tilde.members
    if a != b and s.order < tau_tilde.k - 1:
        raise TangleError("agreement across the edge failed")
    return a or b


def survive_with_extending_supertangle(
    g: Graph, tau: Tangle, tau_tilde: Tangle, e
) -> Tangle:
    """If a higher-order tangle refines tau, any single edge can go.

    Separations untouched by e keep tau's orientation; the rest follow the
    higher-order tangle across the rebuilt edge.
    """
    _require(tau_tilde.k == tau.k + 1, "order must exceed tau's by one")
    _require(tau.members <= tau_tilde.members, "supertangle must refine tau")
    g2 = delete_edge(g, e)
    return Tangle._of_rule(g2, tau.k, lambda s: s in tau.members or (
        s.inverse() not in tau.members and orientation_across_edge(tau_tilde, s, e)
    ))


def forced_orientation(tau: Tangle, s: OrientedSeparation):
    """The orientation of s forced by consistency with tau, if any.

    An orientation is forced when it sits below some member of tau.
    Consistency of tau makes the forced orientation unique.

    Only tau's <=-maximal members are compared.  This is exact: every
    member t lies below some maximal member m and <= is transitive, so
    s <= t gives s <= m; conversely every maximal member is a member.  So
    both the answer and the "forces both orientations" error are those
    of a scan over all members.
    """
    inv = s.inverse()
    maximal = tau.maximal_members()
    fwd = any(s.le(t) for t in maximal)
    bwd = any(inv.le(t) for t in maximal)
    if fwd and bwd:
        raise TangleError("tangle forces both orientations; it is inconsistent")
    if fwd:
        return s
    if bwd:
        return inv
    return None


def divergent_witness(tau: Tangle, tau_tilde: Tangle) -> OrientedSeparation:
    """A maximal member (B, A) of the higher tangle with (A, B) in tau.

    Maximality is taken among the distinguishing members; ties go to the
    deterministic sort order.
    """
    distinguishing = [
        t for t in tau_tilde.members if t.order < tau.k and t.inverse() in tau.members
    ]
    _require(bool(distinguishing), "tangles do not diverge")
    return maximal_members(tau.graph, distinguishing)[0]


def survive_with_divergent_supertangle(g: Graph, tau: Tangle, tau_tilde: Tangle):
    """If the higher-order tangle diverges from tau, a good edge exists.

    Deletes the smallest edge inside the side that tau calls big but the
    higher-order tangle calls small; forced orientations go first, the
    rest follow the higher-order tangle.  Returns (edge, tangle in g - e).
    """
    _require(tau_tilde.k == tau.k + 1, "order must exceed tau's by one")
    ba = divergent_witness(tau, tau_tilde)
    B, A = ba.small, ba.big
    inside = sorted(g.edges_within(A - B))
    _require(bool(inside), "no edge strictly inside the divergent side")
    e = inside[0]
    g2 = delete_edge(g, e)

    def rule(s):
        forced = forced_orientation(tau, s)
        if forced is not None:
            return forced == s
        return orientation_across_edge(tau_tilde, s, e)

    return e, Tangle._of_rule(g2, tau.k, rule)


def survive_edge_deletion_via_supertangle(g: Graph, tau: Tangle):
    """Drop one edge, keeping tau, by way of a (k+1)-tangle.

    Returns (edge, tangle in g - e), or None when g has no (k+1)-tangle.
    Tries a refining higher-order tangle first (then any edge works; the
    smallest is taken), otherwise uses a diverging one.
    """
    _require(tau.k >= 2, "needs order >= 2")
    supers = enumerate_tangles(g, tau.k + 1)
    if not supers:
        return None
    for tt in supers:
        if tau.members <= tt.members:
            e = min(g.edges)
            return e, survive_with_extending_supertangle(g, tau, tt, e)
    return survive_with_divergent_supertangle(g, tau, supers[0])


# -- brute-force reference ----------------------------------------------------


def brute_force_extensions(g: Graph, tau: Tangle, e):
    """All k-tangles of g - e that agree with tau, by exhaustive search."""
    g2 = delete_edge(g, e)
    return search_extension(g2, tau.k, tau.members)
