"""Tangles: consistent orientations of all low-order separations.

A k-tangle orients every separation of order < k so that no three chosen
small sides (repetition allowed) have induced subgraphs covering the whole
graph, vertices and edges alike.  Everything here reduces to bitmask
scans on plain Python ints: each small side becomes one cover mask holding
its vertices and the edges inside it, and one covering-triple scan decides
whether three masks together contain a target.
"""

from __future__ import annotations

import functools
import itertools

from .graphs import Graph, GraphError
from .separations import (
    OrientedSeparation,
    _check_count,
    _parse_separation,
    separator_components,
)


class TangleError(ValueError):
    pass


# -- cover masks and the covering-triple scan -------------------------------


def side_covers(g: Graph, smalls):
    """One cover mask per small side, given as a vertex-index mask: its
    vertex bits and the bits of the edges inside it (see Graph)."""
    full = g.full_mask()
    return [g.cover_outside(full & ~vm) for vm in smalls]


def full_cover(g: Graph) -> int:
    """The cover mask of the whole graph."""
    return g.cover_outside(0)


def subgraph_cover(g: Graph, h: Graph) -> int:
    """The cover mask of a subgraph h of g: its vertex bits, and for each of
    its edges the cover of the edge's two ends."""
    full, cover = g.full_mask(), g.mask_of(h.vertices)
    for e in h.edges:
        cover |= g.cover_outside(full & ~g.mask_of(e))
    return cover


def _pair_covers(rows, miss) -> bool:
    """Do at most two of rows (repetition allowed) contain miss?  An empty
    miss needs no row.

    One row does it alone iff its count |miss & a| is |miss|.  Two rows
    a and b that contain miss have counts summing to at least |miss|, so:

    - one pass finds the two largest counts; if they fall short, no pair
      contains miss;
    - a row in such a pair has a count of at least |miss| minus the
      largest, so only such rows are ranked, by count, largest first;
    - in that ranking a partner's count only falls, so each row's scan of
      later partners stops at the first that falls short, and the whole
      scan stops at a row whose next partner does.

    Each cut drops only pairs whose counts cannot reach |miss|, so the
    answer is that of a scan over every pair.
    """
    if not miss:
        return True
    need = miss.bit_count()
    hits = [(miss & a).bit_count() for a in rows]
    top = second = 0
    for h in hits:
        if h > top:
            top, second = h, top
        elif h > second:
            second = h
    if top == need:
        return True
    if top + second < need:
        return False
    floor = need - top
    ranked = sorted(((h, a) for h, a in zip(hits, rows) if h >= floor),
                    key=lambda p: p[0], reverse=True)
    for x in range(len(ranked) - 1):
        hx, a = ranked[x]
        if hx + ranked[x + 1][0] < need:
            break
        m = miss & ~a
        for hy, b in itertools.islice(ranked, x + 1, None):
            if hx + hy < need:
                break
            if m & b == m:
                return True
    return False


def _triple_exists(covers, target) -> bool:
    """Do three of covers (repetition allowed) together contain target?

    Rank the rows by their count h(c) = |c & target|, largest first.  Any
    triple, its rows put in ranking order, has a first row i with the other
    two at or after i, and h_i the largest of the three counts: as the
    three sum to at least |target|, 3 h_i >= |target|.  So the triples
    are found by asking, for each such i, whether two rows from i on
    contain what i misses (_pair_covers); h falls along the ranking, so
    the first i with 3 h_i < |target| ends the scan.  Ties may sit in any
    order, and an empty target is contained by any one row.
    """
    need = target.bit_count()
    ranked = sorted(covers, key=lambda c: (c & target).bit_count(), reverse=True)
    for i, ci in enumerate(ranked):
        if 3 * (ci & target).bit_count() < need:
            break
        if _pair_covers(ranked[i:], target & ~ci):
            return True
    return False


def covering_triple(covers, target):
    """First (i, j, l), i <= j <= l, whose masks together contain target.

    The first triple has the first i from which two rows, j and l at or
    after it, contain what i misses: _pair_covers skips every i before
    it, and a plain scan then finds j and l.
    """
    for i, ci in enumerate(covers):
        miss = target & ~ci
        if not _pair_covers(covers[i:], miss):
            continue
        for j in range(i, len(covers)):
            m = miss & ~covers[j]
            for l in range(j, len(covers)):
                if m & ~covers[l] == 0:
                    return i, j, l
    return None


def _pair_key(g: Graph):
    """The sort key of a (small, big) mask pair of g, the key
    enumerate_separations sorts by: the order, then each side's labels."""
    seq = g.sorted_labels
    return lambda r: ((r[0] & r[1]).bit_count(), seq(r[0]), seq(r[1]))


def maximal_members(g: Graph, seps):
    """<=-maximal members of a collection, in sort-key order."""
    by_masks = {(g.mask_of(s.small), g.mask_of(s.big)): s for s in seps}
    return [by_masks[p] for p in sorted(_maximal(by_masks), key=_pair_key(g))]


def _maximal(pairs):
    """The <=-maximal ones of distinct (small, big) mask pairs.

    A pair strictly below another has a smaller small side or a larger big
    side, so sorted by small side size descending, then big side size
    ascending, each pair comes after every pair above it, maximal ones
    included: testing it against the maximal pairs kept so far is enough.
    Ties go by the masks, so the order the maximal pairs come in depends on
    the set of pairs alone; readers that need sort-key order apply
    _pair_key themselves.
    """
    pairs = sorted(pairs, key=lambda r: (-r[0].bit_count(), r[1].bit_count(), r))
    tops = []
    for a, b in pairs:
        for c, d in tops:
            if a & ~c == 0 and d & ~b == 0:
                break
        else:
            tops.append((a, b))
    return tops


def find_forbidden_triple(g: Graph, seps):
    """A forbidden triple among seps (repetition allowed), or None.

    Cover is monotone in the small side, so any triple among arbitrary
    members yields one among <=-maximal members, the only ones scanned.
    """
    pool = maximal_members(g, seps)
    covers = side_covers(g, [g.mask_of(s.small) for s in pool])
    hit = covering_triple(covers, full_cover(g))
    if hit is None:
        return None
    return tuple(pool[x] for x in hit)


# -- the Tangle object ----------------------------------------------------


class Tangle:
    """The orientation of all separations of order < k of a graph that a
    separator-to-component map {X: C(X)} gives (see _search): (A, B) is a
    member iff C(A & B) lies in B - A.  The map, _pick, is the tangle.

    Tangle(graph, k, members) reads the map off members and refuses, with a
    TangleError, a member set that is not exactly one map's; construction
    does not test for a covering triple: rows_cover decides tanglehood
    (see is_tangle).  Every tangle keeps only its map, and builds its
    member set from it on first use; the search and the rules build the
    map directly (_of_map, _of_rule).
    """

    _walked = False  # set by the constructor, whose walk proves the map

    def __init__(self, graph: Graph, k: int, members):
        """If members M are one map's member set, the rule "is in M" passes
        exactly the row of C(X) at each separator X (see _of_rule), so
        _rule_map reads that map; where it fails, there is none.  Otherwise
        let T be that map's member set.  T holds exactly one orientation of
        each separation of order < k, so |T| is the sum over separators X
        of 2^(c(X) - 1), c(X) the number of components of g - X.  Every
        member of M must lie in T (_holds: this refuses a pair that is no
        separation of g of order < k, a label outside g, and one of two
        orientations of a separation); a subset of T of T's size is T.

        One lazy walk over the separators' components gives both the map
        and |T|, a separator counted once _rule_map has accepted it.  Each
        accepted separator takes a row of M of its own, so the walk stops
        within |M| + 1 separators: M bounds the work, however many
        separations g has.
        """
        _check_order(k)
        self.graph, self.k = graph, k
        rows = {(graph.side_mask(s.small), graph.side_mask(s.big)) for s in members}
        size = 0

        def counted():
            nonlocal size
            for x, comps in separator_components(graph, k):
                yield x, comps
                size += 1 << (len(comps) - 1)  # X accepted: it has a component

        try:
            self._pick = _rule_map(graph, counted(), lambda a, b: (a, b) in rows)
        except TangleError:  # no row of M at some separator, or two
            self._pick = None
        if (self._pick is None or len(rows) != size
                or not all(self._holds(a, b) for a, b in rows)):
            raise TangleError(f"member set is not a {k}-tangle of the graph: "
                              "no separator-to-component map has exactly these members")
        self._walked = True

    @classmethod
    def _of_map(cls, graph: Graph, k: int, pick):
        """The k-tangle that points each separator at the component pick
        gives; pick lists the separators by size (see _member_levels)."""
        t = cls.__new__(cls)
        t.graph, t.k, t._pick = graph, k, pick
        return t

    @classmethod
    def _of_rule(cls, graph: Graph, k: int, rule):
        """The k-tangle whose members are the separations (A, B) with
        rule(a, b), where a and b are A's and B's vertex-index masks, read
        off the rows: for each separator X, rule is tested on the rows
        (V - C, C | X), one per component C of graph - X, and the component
        whose row it accepts is kept.

        If {(A, B) : rule(a, b)} is a k-tangle T, this is exact.  (A, B) is
        a member of T iff C(A & B) lies in B - A (see _search), so the row
        of C(X) is a member and the row of any other component is not:
        exactly one row per separator passes, and the map picks C(X).  The
        map's members are then T's.  A rule that passes no row or two at
        some separator defines no k-tangle and raises TangleError.
        """
        return cls._of_map(graph, k, _rule_map(graph, separator_components(graph, k), rule))

    @functools.cached_property
    def members(self) -> frozenset:
        """The member separations, built from the map on first use (see
        _member_masks)."""
        return frozenset(self.sorted_members())

    def __contains__(self, s: OrientedSeparation):
        """Membership of s, its sides read from the graph's side table."""
        return self._holds(self.graph.side_mask(s.small), self.graph.side_mask(s.big))

    def _holds(self, a, b):
        """Is the pair of vertex-index side masks (a, b) a member?  A
        separation (A, B) of the graph of order < k is one iff C(A & B) lies
        in B - A; anything else, a pair with bits past the graph's (a
        negative mask) among them, is not."""
        g = self.graph
        c = self._pick.get(a & b)  # None for a separator of order >= k
        return (c is not None and not c & ~b and a | b == g.full_mask()
                and not g.joins(a & ~b, b & ~a))

    def __len__(self):
        return len(self.members)

    def __eq__(self, other):
        """Equal graphs, orders and maps: a map and its member set determine
        each other (see _of_rule), so this is member-set equality."""
        return (
            isinstance(other, Tangle)
            and self.graph == other.graph
            and self.k == other.k
            and self._pick == other._pick
        )

    def __hash__(self):
        return hash((self.graph, self.k, frozenset(self._pick.items())))

    def __repr__(self):
        return f"Tangle(k={self.k}, |V|={len(self.graph.vertices)}, separators={len(self._pick)})"

    def orients(self, s: OrientedSeparation):
        """The orientation this tangle gives s's underlying separation."""
        for t in (s, s.inverse()):
            if t in self:
                return t
        raise KeyError(s)

    def sorted_members(self):
        """The members in sort-key order, as _member_masks yields them;
        equal masks share one frozenset, the side table's where it holds
        one (Graph.side_of)."""
        g, side = self.graph, functools.cache(self.graph.side_of)
        pairs = _member_masks(self, functools.cache(g.sorted_labels))
        return [OrientedSeparation(side(a), side(b)) for a, b in pairs]

    def maximal_members(self):
        """<=-maximal members in sort-key order; their masks are computed
        once per tangle.

        They come from the map's rows (V - C(X), C(X) | X), one per
        separator X, and that is exact for any map, tangle or not:

        - every member (A, B) lies <= the row of its separator, because
          C(A & B) misses A and lies in B;
        - that row is itself a member;
        - distinct separators give distinct rows.

        So a member is maximal iff it is a row that no other row lies above.
        """
        g = self.graph
        tops = sorted(self._top_masks, key=_pair_key(g))
        return [OrientedSeparation(g.side_of(a), g.side_of(b)) for a, b in tops]

    def maximal_masks(self):
        """(small, big) vertex-index masks of maximal_members(), in an
        order that depends on the tangle alone, not in sort-key order."""
        return list(self._top_masks)

    @functools.cached_property
    def _top_masks(self):
        full = self.graph.full_mask()
        return tuple(_maximal([(full & ~c, c | x) for x, c in self._pick.items()]))

    def core(self) -> frozenset:
        """Intersection of all big sides, that is of the rows' C(X) | X.

        For k = 1 this is a component's vertex set, for k = 2 a block's.
        """
        x = self.graph.full_mask()
        for sep, c in self._pick.items():
            x &= c | sep
        return self.graph.labels_of(x)


def _check_order(k: int):
    if k < 0:
        raise GraphError(f"negative tangle order {k}")


def _rule_map(g: Graph, splits, rule):
    """The map Tangle._of_rule reads off rule, over splits: each separator
    mask X with the component masks of g - X."""
    vmask = g.full_mask()
    pick = {}
    for x, comps in splits:
        hits = [c for c in comps if rule(vmask & ~c, c | x)]
        if len(hits) != 1:
            raise TangleError(f"rule passes {len(hits)} components of G - {sorted(g.labels_of(x))}")
        pick[x] = hits[0]
    return pick


def _member_masks(t: Tangle, seq):
    """Yield the (small, big) vertex-index masks of the members of t, read
    off its map, in sort-key order; seq is the caller's cache of
    t.graph.sorted_labels.

    The members come from _member_levels one order at a time, and each
    order is sorted on its sides' label tuples (seq), which are bit walks:
    bits follow label order.
    """
    for pairs in _member_levels(t):
        pairs.sort(key=lambda p: (seq(p[0]), seq(p[1])))
        yield from pairs


def _member_levels(t: Tangle):
    """Yield, per separator order ascending, a fresh list of the (small,
    big) masks of t's members with separators of that order, in map order.

    At separator X the members are the (X | U, V - U), U a union of the
    components of g - X - C(X): C(X) must lie in B - A = V - X - U.  So
    each separation comes once, in its member orientation.  The map lists
    separators by size, as separator_components yields them (every map is
    built in that order).  The c(X) components of g - X make 2^c(X)
    separations, both orientations counted; past MAX_SEPARATIONS in all,
    this is refused as enumerate_separations is, before any member is built.
    """
    g, full = t.graph, t.graph.full_mask()
    splits = [(x, g.components(full & ~x & ~c)) for x, c in t._pick.items()]
    _check_count(sum(2 << len(rest) for _, rest in splits), t.k)
    for _, level in itertools.groupby(splits, lambda split: split[0].bit_count()):
        pairs = []
        for x, rest in level:
            unions = [0]
            for c in rest:
                unions += [u | c for u in unions]
            pairs += [(x | u, full & ~u) for u in unions]
        yield pairs


def is_tangle(g: Graph, k: int, members) -> bool:
    """Validate a k-tangle given as members, or as a Tangle; no separation
    is listed.

    Members are read into a Tangle of g (a TangleError means they are no
    map's member set, and so no k-tangle); a Tangle of g at order k is
    checked to be a map of g: one pass over the separators tests that it
    names exactly the separators of order < k, each with a component of
    g - X, unless the constructor's own walk has done so (_walked).  Such
    a map orients every separation of order < k exactly once, so
    tanglehood is that no three rows cover g (rows_cover).
    """
    _check_order(k)
    if isinstance(members, Tangle):
        if members.k == k and members.graph == g:
            return (members._walked or _is_map(members)) and not rows_cover(members)
        members = members.members
    try:
        return not rows_cover(Tangle(g, k, members))
    except TangleError:
        return False


def _is_map(t: Tangle) -> bool:
    """Does t's map name exactly the separators of order < k of its graph,
    each with a component of the graph minus it?"""
    pick, named = t._pick, 0
    for x, comps in separator_components(t.graph, t.k):
        if pick.get(x) not in comps:
            return False
        named += 1
    return named == len(pick)


def _covered(t: Tangle, target) -> bool:
    """Do the small sides of three of t's members (repetition allowed)
    contain the cover mask target?  _triple_exists decides it on all rows
    (V - C(X), C(X) | X) of t's map, exactly for any map: every member lies
    <= its separator's row, each row is a member, and cover is monotone in
    the small side, so a <=-maximal filter would change no verdict."""
    return _triple_exists([t.graph.cover_outside(c) for c in t._pick.values()], target)


def rows_cover(t: Tangle) -> bool:
    """Do three of t's members (repetition allowed) cover its graph (see
    _covered)?  A map orients every separation of order < k by
    construction, so "no" is exactly tanglehood."""
    return _covered(t, full_cover(t.graph))


def check_axioms(tangle: Tangle) -> dict:
    """Report the derived axioms: consistency, regularity, profile property.

    All three hold for every genuine tangle; this checks them directly.
    """
    g, k = tangle.graph, tangle.k
    mem = tangle.sorted_members()
    consistency = not any(s.inverse().le(t) for s in mem for t in mem)
    # (A, V) with A != V is a separation of order < k exactly when A is a
    # separator of order < k
    full = g.full_mask()
    regularity = all(tangle._holds(x, full) for x, _ in separator_components(g, k) if x != full)
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


def _no_tangle(g: Graph, k: int) -> bool:
    """Is g too small for a k-tangle (k >= 0)?  True when 2|V| <= 3(k - 1),
    or when |V| = k + 1 >= 4 and g is not complete.  Either way three rows
    of any choice of components cover g (see _search):

    1. If |V| < k, X = V is a separator of order < k, and g - X has no
       component to point at.  Otherwise take three disjoint vertex sets of
       size |V| - k + 1 >= 1, which fit as 3(|V| - k + 1) <= |V|.  Each
       complement is a separator of order k - 1, and its row's small side
       V - C holds it whatever component C is picked.  A vertex or an edge
       meets at most two of the three sets, so it lies in the complement
       of the third, and the three small sides cover g.
    2. Let a and b be non-adjacent.  g - (V - {a, b}) has the components
       {a} and {b}; say {a} is picked (else swap a and b), so that row's
       small side is V - {a}.  For two more vertices v and w, the rows at
       V - {b, v} and V - {b, w}, separators of order k - 1, have small
       sides holding a, and every edge au with u != b in one of them (u
       is not both v and w).  With V - {a}, these cover g.

    The bound is exact on complete graphs: K_n has a k-tangle iff
    2n > 3(k - 1).
    """
    n = len(g.vertices)
    return 2 * n <= 3 * (k - 1) or (n == k + 1 >= 4 and 2 * len(g.edges) < n * (n - 1))


def _admit(c, front, full):
    """The frontier once row cover c is chosen, or None if c completes a
    covering triple with it.

    The frontier holds the cover-maximal rows chosen so far, and no three
    chosen rows cover g.  A c inside a frontier cover a needs no test: c
    and any two chosen rows cover no more than a and those two.
    """
    for a in front:
        if c & ~a == 0:
            return front
    if _pair_covers(front, full & ~c):
        return None
    return tuple(a for a in front if a & ~c) + (c,)


def _search(g: Graph, k: int, splits):
    """Maps {separator mask: component mask} of g's k-tangles, in ascending
    order of their sorted member lists, among the maps that take at each
    separator X one of the components splits offers for it.

    splits gives each separator X of order < k once, in separator_components
    order, with the components of g - X that C(X) may be, in any order; the
    maps list their separators in that order.  separator_components(g, k)
    offers every component, and so gives every k-tangle of g.

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

    A g too small for a k-tangle (_no_tangle; this takes in X = V, which
    has no component when |V| < k) gets [] before splits is read.

    Levels go by separator size, ascending.  A level whose only option is
    C = V - X with |X| <= k - 2 is recorded in the map, but its row (X, V)
    is never admitted: for any v outside X, X | {v} is a separator of order
    < k, so a level too, and each of its rows has a small side holding
    X | {v}.  Every complete choice thus holds a row whose cover contains
    that of (X, V), and a triple using (X, V) gives one using that row in
    its place: the skipped row changes no verdict on a complete choice.  A
    single option C other than V - X is admitted, as each branch is.

    The search runs on an explicit stack, whose entries carry the frontier
    (see _admit); a level with one option is taken in place, and the
    chosen components form a linked list of (component, rest) cells.
    Two or more results are sorted on their members' label tuples from
    _member_masks: members come in sort-key order and every k-tangle has
    as many of each order, so comparing these lists is comparing the
    sorted member lists.
    """
    _check_order(k)
    if _no_tangle(g, k):
        return []
    full = full_cover(g)
    vmask = g.full_mask()
    cover = g.cover_outside
    # per separator: each option C with its row's cover, that of the small
    # side V - C, or None for a row that is recorded but never admitted
    xs, levels = [], []
    for x, comps in splits:
        xs.append(x)
        if len(comps) == 1 and comps[0] | x == vmask and x.bit_count() <= k - 2:
            levels.append([(comps[0], None)])
        else:
            levels.append([(c, cover(c)) for c in comps])
    found = []
    stack = [(0, None, ())]  # (levels decided, their components, frontier)
    while stack:
        i, chosen, front = stack.pop()
        while i < len(levels) and len(levels[i]) == 1:
            ((comp, c),) = levels[i]
            if c is not None:
                front = _admit(c, front, full)
                if front is None:
                    break
            i, chosen = i + 1, (comp, chosen)
        if front is None:
            continue
        if i == len(levels):
            found.append(chosen)
            continue
        for comp, c in levels[i]:
            grown = _admit(c, front, full)
            if grown is not None:
                stack.append((i + 1, (comp, chosen), grown))
    picks = []
    for chosen in found:
        comps = []
        while chosen is not None:
            comp, chosen = chosen
            comps.append(comp)
        picks.append(dict(zip(xs, reversed(comps))))
    if len(picks) > 1:
        seq = functools.cache(g.sorted_labels)
        picks.sort(key=lambda p: [
            (seq(a), seq(b)) for a, b in _member_masks(Tangle._of_map(g, k, p), seq)])
    return picks


def enumerate_tangles(g: Graph, k: int):
    """All k-tangles of g, in ascending sorted-member order (see _search)."""
    return [Tangle._of_map(g, k, pick) for pick in _search(g, k, separator_components(g, k))]


def search_extension(g2: Graph, tau: Tangle):
    """The tau.k-tangles of g2, a spanning subgraph of tau's graph g, that
    hold every member of tau, in _search's order; no separator of g2 is
    listed, as tau's map names them all.

    They are the k-tangles of g2 whose C2(X) lies inside tau's C(X) at
    every separator X (see extends).  g2 - X is a subgraph of g - X on the
    same vertices, so C(X), a component of g - X, is a union of components
    of g2 - X: those inside it are the components of g2[C(X)].  When no
    deleted edge has both ends in C(X), g2[C(X)] is g[C(X)], which is
    connected, and C(X) is the only option; otherwise the options are
    g2.components(C(X)).  _search then chooses among these options only.
    A forced row goes through _search's admission, not around it: three of
    tau's rows that do not cover g may cover g2, which lacks the deleted
    edges.  A g2 too small for a k-tangle (_no_tangle) gets [] before any
    split is built.
    """
    g = tau.graph
    _spanning(g, g2)
    if _no_tangle(g2, tau.k):
        return []
    gone = [g2.mask_of(e) for e in g.edges - g2.edges]
    splits = [(x, g2.components(c) if any(not d & ~c for d in gone) else [c])
              for x, c in tau._pick.items()]
    return [Tangle._of_map(g2, tau.k, pick) for pick in _search(g2, tau.k, splits)]


def _spanning(g: Graph, g2: Graph):
    if g2.vertices != g.vertices or not g2.edges <= g.edges:
        raise TangleError("need a tangle of a spanning subgraph")


def extends(tau: Tangle, tau2: Tangle) -> bool:
    """Does tau2, a tangle of a spanning subgraph of tau's graph, hold every
    member of tau?  Those at separator X are separations of the subgraph,
    and their big strict sides meet in C(X): so iff C2(X) lies in C(X)."""
    _spanning(tau.graph, tau2.graph)
    pick2 = tau2._pick
    return all(x in pick2 and pick2[x] & ~c == 0 for x, c in tau._pick.items())


# -- lifts -----------------------------------------------------------------


def lift_subgraph(tau2: Tangle, g: Graph) -> Tangle:
    """Lift a k-tangle from a subgraph back to the host graph.

    A separation of the host joins the lift iff its restriction to the
    subgraph's vertices belongs to the smaller tangle; Graph.translator
    restricts the sides and moves them to the subgraph's bit order.
    """
    g2 = tau2.graph
    if not (set(g2.vertices) <= set(g.vertices) and g2.edges <= g.edges):
        raise TangleError("lift_subgraph: not a subgraph")
    move = g.translator(g2)
    return Tangle._of_rule(g, tau2.k, lambda a, b: tau2._holds(move(a), move(b)))


def lift_suppression(tau2: Tangle, g: Graph, v) -> Tangle:
    """Lift a k-tangle (k >= 3) across the suppression of degree-2 vertex v.

    A host separation drops v and moves to the smaller graph's bit order
    (Graph.translator).  If v's neighbours lie on one side together, the
    rest is read off the smaller tangle; otherwise v separates them, and
    either neighbour may join the other side.
    """
    if tau2.k < 3:
        raise TangleError("suppression lifts need order >= 3")
    if v not in g or g.degree(v) != 2:
        raise TangleError(f"vertex {v} is not suppressible in the host graph")
    g2, keep = tau2.graph, g.full_mask() & ~g.mask_of((v,))
    u1, u2 = (g2.mask_of((u,)) for u in sorted(g.neighbors(v)))
    move = g.translator(g2)

    def rule(a, b):
        a, b = move(a & keep), move(b & keep)
        if not (u1 | u2) & ~a or not (u1 | u2) & ~b:
            return tau2._holds(a, b)
        ui, uj = (u1, u2) if u1 & a else (u2, u1)
        return tau2._holds(a, b | ui) or tau2._holds(a | uj, b)

    return Tangle._of_rule(g, tau2.k, rule)


# -- serialization ----------------------------------------------------------


def format_tangle(t: Tangle) -> str:
    """An "order k" line, then one "[small] [big]" line per member in
    sort-key order, as format_separation writes them.  The members come as
    masks (see _member_masks), whose label tuples sort and write them; each
    distinct side's labels are read once and written once."""
    seq = functools.cache(t.graph.sorted_labels)
    text = functools.cache(lambda side: ",".join(map(str, seq(side))))
    rows = _member_masks(t, seq)
    return "".join([f"order {t.k}\n"] + [f"[{text(a)}] [{text(b)}]\n" for a, b in rows])


def parse_tangle(text: str, g: Graph) -> Tangle:
    """The Tangle of g that a tangle text gives as members (see Tangle): a
    TangleError if they are no map's member set."""
    return Tangle(g, *_parse_members(text))


def _parse_members(text: str):
    """(k, members) of a tangle text; equal side texts share one frozenset."""
    lines = [l for l in text.splitlines() if l.strip()]
    if not lines or not lines[0].startswith("order "):
        raise GraphError("tangle text must start with 'order <k>'")
    try:
        k = int(lines[0].split()[1])
    except (IndexError, ValueError):
        raise GraphError("bad order line")
    sides = {}
    return k, [_parse_separation(l, sides) for l in lines[1:]]
