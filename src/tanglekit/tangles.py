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


def find_forbidden_triple(g: Graph, seps, restrict_to_maximal=True):
    """A forbidden triple among seps (repetition allowed), or None.

    Cover is monotone in the small side, so any triple among arbitrary
    members yields one among <=-maximal members; restricting the scan to
    those is an optimization, not an approximation.
    """
    pool = maximal_members(g, seps) if restrict_to_maximal else sorted(
        set(seps), key=OrientedSeparation.sort_key
    )
    hit = covering_triple(cover_masks(g, pool), full_cover(g))
    if hit is None:
        return None
    return tuple(pool[x] for x in hit)


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
        self._by_key = {}
        for s in self.members:
            key = s.canonical_key()
            if key in self._by_key and self._by_key[key] != s:
                raise TangleError(f"both orientations of {s} present")
            self._by_key[key] = s

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
        return self._by_key[s.canonical_key()]

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
    """Does members pick exactly one orientation of each order-< k separation?"""
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


def is_tangle(g: Graph, k: int, members, mode: str = "maximal") -> bool:
    """Validate a k-tangle: full orientation, no covering triple.

    mode="maximal" scans only <=-maximal members (sound and complete since
    cover is monotone); mode="full" scans all members.
    """
    if mode not in ("maximal", "full"):
        raise TangleError(f"unknown mode {mode!r}")
    if not is_orientation(g, k, members):
        return False
    return find_forbidden_triple(g, members, mode == "maximal") is None


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
    profile = True
    for s in mem:
        for t in mem:
            j = s.join(t)
            if j.order < k and tangle.orients(j) != j:
                profile = False
                break
        if not profile:
            break
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
    misses = [miss & ~a for a, _ in front]
    if 0 in misses:
        return True
    for x, m in enumerate(misses):
        for a, _ in front[x + 1:]:
            if m & a == m:
                return True
    return False


def _search(g: Graph, k: int, fixed, find_all: bool):
    """Depth-first orientation search avoiding covering triples.

    fixed maps canonical separation keys to a required orientation.
    Returns the member-frozensets of the k-tangles found, in search order.

    Depth i orients the i-th unoriented separation, in the sort-key order
    of its first orientation.  The search runs on an explicit stack, so its
    depth is not bounded by the interpreter's recursion limit.  The frame
    of each depth carries the frontier: the <=-maximal members chosen so
    far, as (cover, big) int pairs.  Cover is monotone along <=, so a
    candidate with cover c completes a covering triple iff c == full,
    c | a == full or c | a | b == full for frontier covers a, b.  Its
    small side lies inside that of a member exactly when its cover does,
    so the pairs also decide <=.

    No separate consistency check is needed.  Suppose a chosen t has
    inv(s) <= t, that is big(t) <= small(s) and big(s) <= small(t), and
    the frontier member t' has t <= t'.  Every vertex and every edge of g
    lies inside small(t) or big(t), hence inside small(t') or small(s);
    so the triple (s, t', t') covers g and rejects s.
    """
    seps = enumerate_separations(g, k)
    full = full_cover(g)
    # seps come sorted, so each key enters with its first orientation's rank
    rows = {}
    for s, c in zip(seps, cover_masks(g, seps)):
        rows.setdefault(s.canonical_key(), []).append((s, c, g.mask_of(s.big)))
    levels = [
        [x for x in row if x[0] == fixed[key]] if key in fixed else row
        for key, row in rows.items()
    ]

    depth = len(levels)
    chosen = [None] * depth
    fronts = [()] * (depth + 1)  # fronts[i]: frontier of chosen[:i]
    tried = [0] * depth  # candidates already tried at each depth
    results = []
    i = 0
    while i >= 0:
        if i == depth:
            results.append(frozenset(chosen))
            if not find_all:
                break
            i -= 1
            continue
        j = tried[i]
        if j == len(levels[i]):
            tried[i] = 0
            i -= 1
            continue
        tried[i] = j + 1
        s, c, b = levels[i][j]
        front = fronts[i]
        if _completes_triple(c, front, full):
            continue
        chosen[i] = s
        if any(c & ~a == 0 and x & ~b == 0 for a, x in front):
            fronts[i + 1] = front
        else:
            fronts[i + 1] = tuple(
                (a, x) for a, x in front if a & ~c or b & ~x
            ) + ((c, b),)
        i += 1
    return results


def enumerate_tangles(g: Graph, k: int):
    """All k-tangles of g, deterministically ordered."""
    found = _search(g, k, {}, find_all=True)
    tangles = [Tangle(g, k, m) for m in found]
    tangles.sort(key=lambda t: tuple(s.sort_key() for s in t.sorted_members()))
    return tangles


def search_extension(g2: Graph, k: int, fixed, find_all=False):
    """k-tangles of g2 whose orientation agrees with fixed.

    fixed: iterable of oriented separations of g2 that must be chosen.
    """
    fx = {}
    for s in fixed:
        key = s.canonical_key()
        if key in fx and fx[key] != s:
            return []
        fx[key] = s
    found = _search(g2, k, fx, find_all=find_all)
    tangles = [Tangle(g2, k, m) for m in found]
    tangles.sort(key=lambda t: tuple(s.sort_key() for s in t.sorted_members()))
    return tangles


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
