"""Tangles: consistent orientations of all low-order separations.

A k-tangle orients every separation of order < k so that no three chosen
small sides (repetition allowed) have induced subgraphs covering the whole
graph, vertices and edges alike.  Everything here reduces to bitmask
scans on plain Python ints: each small side becomes one cover mask holding
its vertices and the edges inside it, and one covering-triple scan decides
whether three masks together contain a target.
"""

from __future__ import annotations

from .graphs import Graph, GraphError
from .separations import (
    OrientedSeparation,
    _parse_separation,
    enumerate_separations,
    format_separation,
    restrict_to_subgraph,
    separator_components,
)


class TangleError(ValueError):
    pass


# -- cover masks and the covering-triple scan -------------------------------


def cover_masks(g: Graph, seps):
    """One int per separation: the small side's vertex and edge bits.

    Bits 0..n-1 are vertices in sorted label order; bit n+i is the i-th
    edge of g.sorted_edges(), set when both its ends lie in the small side.
    """
    n = len(g.vertices)
    ends = g.edge_masks()
    out = []
    for s in seps:
        vm = g.mask_of(s.small)
        cover = vm
        for i, em in enumerate(ends):
            if vm & em == em:
                cover |= 1 << (n + i)
        out.append(cover)
    return out


def full_cover(g: Graph) -> int:
    """The cover mask of the whole graph."""
    return (1 << (len(g.vertices) + len(g.edges))) - 1


def subgraph_cover(g: Graph, h: Graph) -> int:
    """The cover mask of a subgraph h of g: its vertex and edge bits."""
    n = len(g.vertices)
    edges = (1 << (n + i) for i, e in enumerate(g.sorted_edges()) if e in h.edges)
    return g.mask_of(h.vertices) | sum(edges)  # distinct bits: the sum is the union


def covering_triple(covers, target):
    """First (i, j, l), i <= j <= l, whose masks together contain target.

    Scans on transposed bitsets: for each target bit, the rows covering
    it.  A pair (i, j) then needs one AND per bit it misses to find every
    valid third row.  Returns None if no triple exists.
    """
    n = len(covers)
    all_rows = (1 << n) - 1
    rows_with = {}
    for r, c in enumerate(covers):
        c &= target
        while c:
            low = c & -c
            rows_with[low] = rows_with.get(low, 0) | (1 << r)
            c ^= low
    for i in range(n):
        for j in range(i, n):
            rows = all_rows >> j << j
            missing = target & ~(covers[i] | covers[j])
            while missing and rows:
                low = missing & -missing
                rows &= rows_with.get(low, 0)
                missing ^= low
            if rows:
                return i, j, (rows & -rows).bit_length() - 1
    return None


def is_forbidden_triple(g: Graph, s1, s2, s3) -> bool:
    """Do the three small-side induced subgraphs cover g entirely?"""
    return covering_triple(cover_masks(g, [s1, s2, s3]), full_cover(g)) is not None


def maximal_members(g: Graph, seps):
    """<=-maximal members of a collection, in sort-key order."""
    seps = sorted(set(seps), key=OrientedSeparation.sort_key)
    sides = [(g.mask_of(s.small), g.mask_of(s.big)) for s in seps]
    return [
        s
        for s, (a, b) in zip(seps, sides)
        if not any(
            a & ~c == 0 and d & ~b == 0 and (a, b) != (c, d) for c, d in sides
        )
    ]


def find_forbidden_triple(g: Graph, seps):
    """A forbidden triple among seps (repetition allowed), or None.

    Cover is monotone in the small side, so any triple among arbitrary
    members yields one among <=-maximal members, the only ones scanned.
    """
    pool = maximal_members(g, seps)
    hit = covering_triple(cover_masks(g, pool), full_cover(g))
    if hit is None:
        return None
    return tuple(pool[x] for x in hit)


def _both_orientations(members):
    """A member whose inverse, a different separation, is a member too."""
    return next(
        (s for s in members if s.inverse() in members and s.small != s.big), None
    )


# -- the Tangle object ----------------------------------------------------


class Tangle:
    """An orientation of all separations of order < k of a graph.

    Construction does not validate tanglehood; use is_tangle / check_axioms.
    """

    def __init__(self, graph: Graph, k: int, members):
        self.graph = graph
        self.k = k
        self.members = frozenset(members)
        self._maximal = None  # <=-maximal members, filled by maximal_members()
        s = _both_orientations(self.members)
        if s is not None:
            raise TangleError(f"both orientations of {s} present")

    def __contains__(self, s: OrientedSeparation):
        return s in self.members

    def __len__(self):
        return len(self.members)

    def __eq__(self, other):
        return (
            isinstance(other, Tangle)
            and self.graph == other.graph
            and self.k == other.k
            and self.members == other.members
        )

    def __hash__(self):
        return hash((self.graph, self.k, self.members))

    def __repr__(self):
        return f"Tangle(k={self.k}, |members|={len(self.members)})"

    def orients(self, s: OrientedSeparation):
        """The orientation this tangle gives s's underlying separation."""
        if s in self.members:
            return s
        if s.inverse() in self.members:
            return s.inverse()
        raise KeyError(s)

    def sorted_members(self):
        return sorted(self.members, key=OrientedSeparation.sort_key)

    def maximal_members(self):
        """<=-maximal members in sort-key order, computed once per tangle."""
        if self._maximal is None:
            self._maximal = tuple(maximal_members(self.graph, self.members))
        return list(self._maximal)

    def core(self) -> frozenset:
        """Intersection of all big sides.

        For k = 1 this is a component's vertex set, for k = 2 a block's.
        """
        x = self.graph.vertex_set()
        for s in self.members:
            x &= s.big
        return x


def is_orientation(g: Graph, k: int, members) -> bool:
    """Does members pick exactly one orientation of each order-< k separation?

    enumerate_separations lists both orientations of each separation; only
    (V, V), of order |V|, is its own inverse and listed once.
    """
    members = frozenset(members)
    seps = enumerate_separations(g, k)
    count = (len(seps) + (len(g.vertices) < k)) // 2
    if len(members) != count or sum(s in members for s in seps) != count:
        return False
    return _both_orientations(members) is None


def is_tangle(g: Graph, k: int, members) -> bool:
    """Validate a k-tangle: full orientation, no covering triple."""
    return is_orientation(g, k, members) and find_forbidden_triple(g, members) is None


def check_axioms(tangle: Tangle) -> dict:
    """Report the derived axioms: consistency, regularity, profile property.

    All three hold for every genuine tangle; this checks them directly.
    """
    g, k = tangle.graph, tangle.k
    mem = tangle.sorted_members()
    consistency = not any(s.inverse().le(t) for s in mem for t in mem)
    V = g.vertex_set()
    regularity = all(
        s in tangle.members
        for s in enumerate_separations(g, k)
        if s.big == V and s.small != V
    )
    profile = all(
        j.order >= k or j in tangle.members
        for j in (s.join(t) for s in mem for t in mem)
    )
    return {
        "consistency": consistency,
        "regularity": regularity,
        "profile": profile,
    }


# -- enumeration / constrained search -------------------------------------


def _completes_triple(c, front, full):
    """Do cover c and at most two frontier covers (repetition allowed) reach full?"""
    miss = full & ~c
    if not miss:
        return True
    for x, m in enumerate([miss & ~a for a in front]):
        for a in front[x:]:  # a = front[x] first: m & a == m iff m == 0
            if m & a == m:
                return True
    return False


def _search(g: Graph, k: int, fixed):
    """Member-frozensets of g's k-tangles that hold every separation in
    fixed, in ascending order of their sorted member lists.

    A k-tangle points each separator X (|X| < k) at one component C(X) of
    g - X, and (A, B) with separator X is a member iff C(X) lies in B - A.
    The search picks C(X) per separator, and each k-tangle is exactly one
    choice in which no three rows (V - C(X), C(X) | X) cover g:

    - every member lies <= the row of its separator, and that row is itself
      a member; cover is monotone, so the rows decide every triple;
    - two rows of distinct components of one g - X cover g;
    - a tangle with no row for X holds every (C | X, V - C).  Merging the
      components one at a time, each union U gives the member
      (U | X, V - U), or else its inverse and the two merged parts cover g;
      so (V, X), which covers g alone, would be a member.

    X = V (when |V| < k) has no component, and then there is no tangle.  A
    fixed (A, B) confines C(A & B) to B - A; one that is not a separation
    of g of order < k is ignored.  The search runs on an explicit stack,
    whose entries carry the frontier: the cover-maximal rows chosen so far,
    the only ones a new row is tested against.
    """
    full = full_cover(g)
    vmask = g.full_mask()
    ends = [(em, 1 << (len(g.vertices) + i)) for i, em in enumerate(g.edge_masks())]
    splits = list(separator_components(g, k))
    allowed = {}  # separator mask -> intersection of the big sides fixed there
    if fixed:
        V, comps_of = g.vertex_set(), dict(splits)
        for s in fixed:
            if s.small | s.big != V:
                continue
            a, b = g.mask_of(s.small), g.mask_of(s.big)
            comps = comps_of.get(a & b)
            if comps is not None and all(c & ~a == 0 or c & ~b == 0 for c in comps):
                allowed[a & b] = allowed.get(a & b, vmask) & b
    levels = [  # per separator: the allowed components with their row covers
        [
            (c, sum((bit for em, bit in ends if em & c == 0), vmask & ~c))
            for c in comps
            if c & ~allowed.get(x, vmask) == 0
        ]
        for x, comps in splits
    ]
    found = []
    stack = [((), ())]  # (components chosen for the first levels, their frontier)
    while stack:
        chosen, front = stack.pop()
        if len(chosen) == len(levels):
            found.append(chosen)
            continue
        for comp, c in levels[len(chosen)]:
            if _completes_triple(c, front, full):
                continue
            grown = front
            if not any(c & ~a == 0 for a in front):
                grown = tuple(a for a in front if a & ~c) + (c,)
            stack.append((chosen + (comp,), grown))
    if not found:
        return []
    seps = enumerate_separations(g, k)
    sides = [(g.mask_of(s.small), g.mask_of(s.big)) for s in seps]
    rows = []
    for choice in found:
        pick = {x: c for (x, _), c in zip(splits, choice)}
        rows.append([n for n, (a, b) in enumerate(sides) if pick[a & b] & ~b == 0])
    return [frozenset(seps[n] for n in row) for row in sorted(rows)]


def enumerate_tangles(g: Graph, k: int):
    """All k-tangles of g, in ascending sorted-member order (see _search)."""
    return [Tangle(g, k, m) for m in _search(g, k, ())]


def search_extension(g2: Graph, k: int, fixed):
    """All k-tangles of g2 that hold every separation in fixed, in _search's
    order; a fixed separation that g2 lacks at order < k is ignored."""
    return [Tangle(g2, k, m) for m in _search(g2, k, fixed)]


def extends(tau: Tangle, tau2: Tangle) -> bool:
    """Does tau2 (in a spanning subgraph) orient everything like tau?"""
    return tau.members <= tau2.members


# -- lifts -----------------------------------------------------------------


def lift_subgraph(tau2: Tangle, g: Graph) -> Tangle:
    """Lift a k-tangle from a subgraph back to the host graph.

    A separation of the host joins the lift iff its restriction to the
    subgraph's vertices belongs to the smaller tangle.
    """
    g2 = tau2.graph
    if not (set(g2.vertices) <= set(g.vertices) and g2.edges <= g.edges):
        raise TangleError("lift_subgraph: not a subgraph")
    members = []
    for s in enumerate_separations(g, tau2.k):
        if restrict_to_subgraph(s, g2) in tau2.members:
            members.append(s)
    return Tangle(g, tau2.k, members)


def lift_suppression(tau2: Tangle, g: Graph, v) -> Tangle:
    """Lift a k-tangle (k >= 3) across the suppression of degree-2 vertex v."""
    if tau2.k < 3:
        raise TangleError("suppression lifts need order >= 3")
    if v not in g or g.degree(v) != 2:
        raise TangleError(f"vertex {v} is not suppressible in the host graph")
    u1, u2 = sorted(g.neighbors(v))
    members = []
    for s in enumerate_separations(g, tau2.k):
        A, B = s.small, s.big
        A1, B1 = A - {v}, B - {v}
        if (u1 in A and u2 in A) or (u1 in B and u2 in B):
            if OrientedSeparation(A1, B1) in tau2.members:
                members.append(s)
        else:
            # split endpoints: one u in A\B, the other in B\A; then v
            # separates them, so v lies in A cap B
            ui, uj = (u1, u2) if u1 in A else (u2, u1)
            if (
                OrientedSeparation(A1, B1 | {ui}) in tau2.members
                or OrientedSeparation(A1 | {uj}, B1) in tau2.members
            ):
                members.append(s)
    return Tangle(g, tau2.k, members)


# -- serialization ----------------------------------------------------------


def format_tangle(t: Tangle) -> str:
    lines = [f"order {t.k}"]
    lines.extend(format_separation(s) for s in t.sorted_members())
    return "\n".join(lines) + "\n"


def parse_tangle(text: str, g: Graph) -> Tangle:
    return _parse_tangle(text, g, {})


def _parse_tangle(text: str, g: Graph, sides: dict) -> Tangle:
    """parse_tangle, sharing the side-text memo sides with other calls."""
    lines = [l for l in text.splitlines() if l.strip()]
    if not lines or not lines[0].startswith("order "):
        raise GraphError("tangle text must start with 'order <k>'")
    try:
        k = int(lines[0].split()[1])
    except (IndexError, ValueError):
        raise GraphError("bad order line")
    members = [_parse_separation(l, sides) for l in lines[1:]]
    return Tangle(g, k, members)
