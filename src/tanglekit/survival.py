"""Transferring a tangle to a smaller graph.

A tangle "survives" in a reduced graph (edge deleted, degree-2 vertex
suppressed, or a component taken) when the reduced graph has a tangle of
the same order agreeing with it on every shared separation.  Each function
here states that smaller tangle as a membership test on the (small, big)
vertex-index masks of a row, a few bit operations around the old tangle's
_holds, and reads it off the rows by Tangle._of_rule.  A test that crosses
to a graph with other vertices moves its masks by vertex index
(Graph.translator), and restrict_to_component moves the old tangle's map
the same way.  None of them enumerates tangles of the reduced graph, and
OrientedSeparations appear only at the public boundaries:
forced_orientation, orientation_across_edge and divergent_witness.
"""

from __future__ import annotations

from .graphs import Graph, delete_edge, suppress_vertex
from .separations import OrientedSeparation
from .tangles import (
    Tangle,
    TangleError,
    _maximal,
    _pair_key,
    enumerate_tangles,
    extends,
    search_extension,
)


def _require(cond, msg):
    if not cond:
        raise TangleError(msg)


def tangle_of_component(g: Graph, comp: frozenset) -> Tangle:
    """The order-1 tangle pointing at a component's vertex set."""
    _require(comp in g.component_vertex_sets(), "not a component vertex set")
    c = g.mask_of(comp)
    return Tangle._of_rule(g, 1, lambda a, b: not c & ~b)


def tangle_of_block(g: Graph, block: frozenset) -> Tangle:
    """The order-2 tangle pointing at a block's vertex set.

    A separation of order < 2 leaves any block entirely inside one side.
    """
    q = g.side_mask(frozenset(block))
    return Tangle._of_rule(g, 2, lambda a, b: not q & ~b)


# -- order-specific edge-deletion survival ---------------------------------


def survive_delete_edge_k1(g: Graph, tau: Tangle, e) -> Tangle:
    """Order 1: after deleting any edge, follow a surviving component.

    The tangle's core component may split in two; the piece holding the
    smallest label is taken.
    """
    _require(tau.k == 1, "order-1 construction")
    g2, core = delete_edge(g, e), g.mask_of(tau.core())
    pieces = [c for c in g2.components() if not c & ~core]  # by smallest label
    _require(bool(pieces), "core vanished, which cannot happen")
    return tangle_of_component(g2, g2.labels_of(pieces[0]))


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
    g2, fm = delete_edge(g, e), g.mask_of(f)
    return e, Tangle._of_rule(g2, 2, lambda a, b: not fm & ~b)


# -- restriction to a component ---------------------------------------------


def restrict_to_component(g: Graph, tau: Tangle):
    """The unique component the tangle lives in, with its induced tangle.

    Returns (component graph, tangle): C(empty set).  A separation of the
    component is oriented by padding its first side with all vertices
    outside the component and reading off the big tangle.  At k = 0 there
    is no separator and so no C(empty set): a connected (or empty) g comes
    back whole, and a disconnected g is refused with a TangleError.

    That is tau's map restricted to the separators inside C(empty set),
    with each mask moved to the component's bit order (Graph.translator).
    For a tangle, C(X) lies in C(empty set): otherwise the rows of X and
    of the empty set, whose small sides are V - C(X) and V - C(empty set),
    would cover g together.  The components of g - X inside C(empty set)
    are those of the component minus X, and the padded separations of the
    component's rows are tau's rows; so the member at each separator of
    the component is the padded one's.
    """
    c0 = tau._pick.get(0, g.full_mask())
    comp = g.induced(g.labels_of(c0))
    _require(comp.is_connected() or not comp.vertices,
             "order-0 members do not single out a component")

    inside = g.translator(comp)
    pick = {inside(x): inside(c) for x, c in tau._pick.items() if not x & ~c0}
    return comp, Tangle._of_map(comp, tau.k, pick)


# -- pendant edges and vertex suppression ------------------------------------


def survive_delete_pendant_edge(g: Graph, tau: Tangle, v) -> Tangle:
    """Order >= 3: deleting the edge at a degree-1 vertex keeps the tangle.

    A separation of the reduced graph joins the new tangle if some way of
    shuffling the pendant vertex across sides was already chosen.
    """
    _require(tau.k >= 3, "needs order >= 3")
    _require(v in g and g.degree(v) == 1, "not a pendant vertex")
    (u,) = g.neighbors(v)
    g2, x = delete_edge(g, (u, v)), g.mask_of((v,))  # g2 keeps g's bit order
    return Tangle._of_rule(g2, tau.k, lambda a, b: tau._holds(a, b)
                           or tau._holds(a & ~x, b | x) or tau._holds(a | x, b & ~x))


def survive_suppress_vertex(g: Graph, tau: Tangle, v) -> Tangle:
    """Order >= 3: the tangle survives the suppression of a degree-2 vertex.

    A separation of the reduced graph joins the new tangle if the tangle
    chose it with the suppressed vertex added to either side; its sides
    move to g's bit order by Graph.translator.
    """
    _require(tau.k >= 3, "needs order >= 3")
    g2, x = suppress_vertex(g, v), g.mask_of((v,))
    move = g2.translator(g)

    def rule(a, b):
        a, b = move(a), move(b)
        return tau._holds(a | x, b) or tau._holds(a, b | x)

    return Tangle._of_rule(g2, tau.k, rule)


# -- survival helped by a higher-order tangle ---------------------------------


def orientation_across_edge(tau_tilde: Tangle, s: OrientedSeparation, e) -> bool:
    """Does the higher-order tangle point along s once e is added back?

    s separates the reduced graph but e crosses it; adding e's endpoints
    to either side gives two host separations which the higher-order
    tangle orients the same way.  False if s or e names a vertex the
    graph does not have.
    """
    sides = (s.small, s.big, frozenset(e))
    return _across_edge(tau_tilde, *map(tau_tilde.graph.side_mask, sides))


def _across_edge(tau_tilde: Tangle, a, b, ends) -> bool:
    """orientation_across_edge for side masks (a, b) and the edge's end mask."""
    x, y = tau_tilde._holds(a | ends, b), tau_tilde._holds(a, b | ends)
    if x != y and (a & b).bit_count() < tau_tilde.k - 1:
        raise TangleError("agreement across the edge failed")
    return x or y


def survive_with_extending_supertangle(
    g: Graph, tau: Tangle, tau_tilde: Tangle, e
) -> Tangle:
    """If a higher-order tangle refines tau, any single edge can go.

    Separations untouched by e keep tau's orientation; the rest follow the
    higher-order tangle across the rebuilt edge.
    """
    _require(tau_tilde.k == tau.k + 1, "order must exceed tau's by one")
    _require(extends(tau, tau_tilde), "supertangle must refine tau")
    g2, ends = delete_edge(g, e), g.mask_of(e)  # g2 keeps g's bit order
    return Tangle._of_rule(g2, tau.k, lambda a, b: tau._holds(a, b) or (
        not tau._holds(b, a) and _across_edge(tau_tilde, a, b, ends)
    ))


def forced_orientation(tau: Tangle, s: OrientedSeparation):
    """The orientation of s forced by consistency with tau, if any.

    An orientation is forced when it sits below some member of tau.
    Consistency of tau makes the forced orientation unique.

    Only tau's <=-maximal members are compared, read off its map's rows
    (see Tangle.maximal_members).  This is exact for any map, tangle or
    not: every member t lies below some maximal member m and <= is
    transitive, so s <= t gives s <= m; conversely every maximal member is
    a member.  So both the answer and the "forces both orientations" error
    are those of a scan over all members.  A side naming a vertex outside
    the graph lies inside no member's side (see Graph.side_mask).
    """
    fwd = _forced(tau, tau.graph.side_mask(s.small), tau.graph.side_mask(s.big))
    return None if fwd is None else s if fwd else s.inverse()


def _forced(tau: Tangle, a, b):
    """forced_orientation for side masks (a, b): True if (a, b) lies below a
    maximal member, False if (b, a) does, None if neither.

    If tau is a tangle and (a, b) a separation of its graph of order < k,
    this is membership: True iff tau._holds(a, b), False iff
    tau._holds(b, a).  Tau orients the separation, so one of the two is a
    member; a member lies below a maximal member.  Conversely tangles are
    down-closed: if (a, b) lies below a member (c, d) and (b, a) were a
    member, the small sides b and c would cover the graph: a | b is every
    vertex, and every edge lies inside b or inside a, which lies inside c.
    With repetition that is a covering triple, which a tangle has not.  So
    with (a, b) below a member, (b, a) is not one and (a, b) is.  _oriented
    answers from the map that way and scans only the pairs that are no
    separation of the graph.
    """
    tops = tau._top_masks
    fwd = any(not a & ~c and not d & ~b for c, d in tops)
    bwd = any(not b & ~c and not d & ~a for c, d in tops)
    if fwd and bwd:
        raise TangleError("tangle forces both orientations; it is inconsistent")
    return fwd if fwd or bwd else None


def _oriented(tau: Tangle, a, b):
    """_forced for a tangle tau (see there): True if tau holds (a, b),
    False if it holds (b, a), and _forced's scan over the maximal members
    only for a pair tau holds in neither orientation, which is no
    separation of tau's graph of order < k."""
    if tau._holds(a, b):
        return True
    if tau._holds(b, a):
        return False
    return _forced(tau, a, b)


def divergent_witness(tau: Tangle, tau_tilde: Tangle) -> OrientedSeparation:
    """A maximal member (B, A) of the higher tangle with (A, B) in tau.

    Maximality is taken among these distinguishing members; ties go to the
    deterministic sort order.  One at separator X has C~(X), the higher
    tangle's component, in A - B and C(X) in B - A, so the maps differ at
    X; and it lies <= the higher tangle's row there, itself distinguishing.
    """
    return OrientedSeparation(*map(tau.graph.labels_of, _divergent(tau, tau_tilde)))


def _divergent(tau: Tangle, tau_tilde: Tangle):
    """divergent_witness's (small, big) vertex-index masks."""
    pick, full = tau._pick, tau.graph.full_mask()
    rows = [(full & ~c, c | x) for x, c in tau_tilde._pick.items() if x in pick and pick[x] != c]
    _require(bool(rows), "tangles do not diverge")
    return min(_maximal(rows), key=_pair_key(tau.graph))


def survive_with_divergent_supertangle(g: Graph, tau: Tangle, tau_tilde: Tangle):
    """If the higher-order tangle diverges from tau, a good edge exists.

    Deletes the smallest edge inside the side that tau calls big but the
    higher-order tangle calls small; forced orientations go first, the
    rest follow the higher-order tangle.  Returns (edge, tangle in g - e).
    """
    _require(tau_tilde.k == tau.k + 1, "order must exceed tau's by one")
    small, big = _divergent(tau, tau_tilde)
    inside = sorted(g.edges_within(g.labels_of(big & ~small)))
    _require(bool(inside), "no edge strictly inside the divergent side")
    e = inside[0]
    g2, ends = delete_edge(g, e), g.mask_of(e)  # g2 keeps g's bit order

    def rule(a, b):
        fwd = _oriented(tau, a, b)
        return _across_edge(tau_tilde, a, b, ends) if fwd is None else fwd

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
        if extends(tau, tt):
            e = min(g.edges)
            return e, survive_with_extending_supertangle(g, tau, tt, e)
    return survive_with_divergent_supertangle(g, tau, supers[0])


# -- extensions across an edge deletion --------------------------------------


def brute_force_extensions(g: Graph, tau: Tangle, e):
    """All k-tangles of g - e that hold every member of tau, by a search
    that branches only where e splits tau's component (search_extension)."""
    g2 = delete_edge(g, e)
    return search_extension(g2, tau)
