"""Separations of a graph and the lattice they form.

A separation of a graph is an unordered pair of vertex sides covering all
vertices such that no edge joins the two strict sides; orienting it means
picking one side as "small" and the other as "big".  Oriented separations
are partially ordered (smaller small side, larger big side) and closed
under pointwise meets and joins, which makes any fixed-order slice the
raw material for tangles.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .graphs import Graph, GraphError


@dataclass(frozen=True, slots=True)
class OrientedSeparation:
    """An ordered pair (small side, big side) of a separation."""

    small: frozenset
    big: frozenset

    @property
    def separator(self):
        return self.small & self.big

    @property
    def order(self):
        return len(self.small & self.big)

    def inverse(self):
        return OrientedSeparation(self.big, self.small)

    def le(self, other: "OrientedSeparation") -> bool:
        return self.small <= other.small and self.big >= other.big

    def lt(self, other: "OrientedSeparation") -> bool:
        return self.le(other) and self != other

    def meet(self, other: "OrientedSeparation") -> "OrientedSeparation":
        return OrientedSeparation(self.small & other.small, self.big | other.big)

    def join(self, other: "OrientedSeparation") -> "OrientedSeparation":
        return OrientedSeparation(self.small | other.small, self.big & other.big)

    def canonical_key(self):
        """Key identifying the underlying unoriented separation."""
        return frozenset((self.small, self.big))

    def sort_key(self):
        return (self.order, tuple(sorted(self.small)), tuple(sorted(self.big)))

    def __repr__(self):
        return f"({sorted(self.small)}, {sorted(self.big)})"


def sep(small, big) -> OrientedSeparation:
    return OrientedSeparation(frozenset(small), frozenset(big))


def is_separation(g: Graph, s: OrientedSeparation) -> bool:
    """True if the two sides cover V(g) and no edge crosses strictly."""
    if s.small | s.big != g.vertex_set():
        return False
    left = s.small - s.big
    right = s.big - s.small
    return not any((u in left and v in right) or (u in right and v in left)
                   for u, v in g.edges)


def is_nested(s: OrientedSeparation, t: OrientedSeparation) -> bool:
    """Unoriented nestedness: some orientations are comparable."""
    return (
        s.le(t) or t.le(s) or s.inverse().le(t) or t.le(s.inverse())
    )


def are_crossing(s: OrientedSeparation, t: OrientedSeparation) -> bool:
    return not is_nested(s, t)


def check_submodular_equality(s: OrientedSeparation, t: OrientedSeparation) -> bool:
    """Order of meet plus order of join equals the sum of the orders."""
    return s.meet(t).order + s.join(t).order == s.order + t.order


MAX_SEPARATIONS = 500_000  # enumerate_separations refuses longer lists


def separator_components(g: Graph, k: int):
    """Yield each separator mask S with |S| < k and the component masks of g - S.

    Separators come by size, then by the combination of their vertex
    indices; components come in Graph.components order.
    """
    n = len(g.vertices)
    full = g.full_mask()
    for size in range(min(k, n + 1)):
        for S in itertools.combinations(range(n), size):
            sm = sum(1 << i for i in S)
            yield sm, g.components(full & ~sm)


def enumerate_separations(g: Graph, k: int):
    """All oriented separations of order < k, both orientations, as a new
    list built on each call.

    Sorted by (order, sorted small side, sorted big side).  The components
    of g - S, for each separator mask S as separator_components yields it,
    are distributed over the two sides in every way.  They are disjoint
    from S and each goes to exactly one side, so every split has separator
    exactly S, and distinct splits or distinct S give distinct separations:
    nothing comes out twice.  Each distinct side mask becomes one frozenset
    from g's side table (Graph._intern), so a separation and its inverse
    share both sides, and every call, at any k, hands out the same
    frozenset for the same side.  A list longer than MAX_SEPARATIONS is
    refused with a GraphError before it is built.
    """
    if k < 0:
        raise GraphError("negative order bound")
    splits = list(separator_components(g, k))
    _check_count(sum(1 << len(comps) for _, comps in splits), k)
    pairs, masks = [], {}  # masks: each distinct side mask, one int object
    for sm, comps in splits:
        for pick in itertools.product((0, 1), repeat=len(comps)):
            small = big = sm
            for side, comp in zip(pick, comps):
                if side:
                    big |= comp
                else:
                    small |= comp
            pairs.append((masks.setdefault(small, small), masks.setdefault(big, big)))
    sides = {m: g.sorted_labels(m) for m in masks}  # label tuples, to sort by
    pairs.sort(key=lambda p: ((p[0] & p[1]).bit_count(), sides[p[0]], sides[p[1]]))
    g._intern(sides)  # now the shared frozensets
    return [OrientedSeparation(sides[a], sides[b]) for a, b in pairs]


def _check_count(count: int, k: int):
    """Refuse count separations of order < k, both orientations counted,
    with a GraphError when they are more than MAX_SEPARATIONS."""
    if count > MAX_SEPARATIONS:
        raise GraphError(f"{count} separations of order < {k}: more than {MAX_SEPARATIONS}")


def unoriented_count(seps) -> int:
    return len({s.canonical_key() for s in seps})


# -- serialization -------------------------------------------------------


def format_separation(s: OrientedSeparation) -> str:
    a = ",".join(str(x) for x in sorted(s.small))
    b = ",".join(str(x) for x in sorted(s.big))
    return f"[{a}] [{b}]"


def _parse_side(part: str, sides: dict) -> frozenset:
    """Comma-separated integers; blank items are skipped.

    sides maps side texts already parsed to their frozensets, so a text
    that repeats is parsed once and its set is shared.
    """
    got = sides.get(part)
    if got is None:
        got = sides[part] = frozenset(map(int, filter(str.strip, part.split(","))))
    return got


def parse_separation(line: str) -> OrientedSeparation:
    return _parse_separation(line, {})


def _parse_separation(line: str, sides: dict) -> OrientedSeparation:
    line = line.strip()
    try:
        left, right = line.split("] [")
        small = _parse_side(left.lstrip("["), sides)
        return OrientedSeparation(small, _parse_side(right.rstrip("]"), sides))
    except ValueError:
        raise GraphError(f"bad separation line: {line!r}")
