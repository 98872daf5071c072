"""Rainbow-cloud decompositions and tangle survival along them.

A rainbow-cloud decomposition splits a graph into a "rainbow" (a long linear
decomposition with full linkages between consecutive bags), a "cloud" glued
to the two end bags, and a "sun" of cloud vertices adjacent to every bag.
Any separation of small order either crosses the rainbow (early bags on one
strict side, late bags on the other) or slices it (a middle bag cut out), and
either pattern pins its separator down.  That rigidity lets a tangle that is
concentrated in the cloud survive the deletion of a carefully chosen edge in
the middle of the rainbow.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

from .decomposition import (
    DecompositionError,
    LinearDecomposition,
    foundational_linkage,
    is_rainbow_decomposition,
    max_linkage_size,
)
from .graphs import Graph, GraphError, delete_edge
from .separations import OrientedSeparation, sep
from .survival import _oriented
from .tangles import (
    Tangle,
    TangleError,
    _check_order,
    _member_levels,
    _pair_key,
    extends,
    rows_cover,
)


class RainbowError(ValueError):
    pass


# -- the decomposition value ---------------------------------------------------


@dataclass(frozen=True)
class RCDecomposition:
    """A rainbow (bags over its vertices), a sun, and a cloud vertex set.

    The classifiers keep three memos on the decomposition, each filled on
    first use and bounded by the input (M = length):

    - end windows (_windows): one pair per tangle order k classified at,
      of at most min(2k, M) + 1 bags each;
    - crossing infos (_crossing_infos): one shared CrossingInfo per
      (direction, i_min, j_max), at most 2 (M + 1)^2 of them;
    - split families (_families): one per clockwise crossing's window and
      sides outside it (see split_family), at most one per distinct
      separation classified.
    """

    graph: Graph
    bags: tuple  # tuple of frozensets, W_0..W_M
    sun: frozenset
    cloud: frozenset  # vertex set of the cloud, sun included

    def __post_init__(self):
        object.__setattr__(self, "bags", tuple(frozenset(b) for b in self.bags))
        object.__setattr__(self, "sun", frozenset(self.sun))
        object.__setattr__(self, "cloud", frozenset(self.cloud))

    @property
    def length(self):
        return len(self.bags) - 1

    def rainbow_vertices(self) -> frozenset:
        return frozenset().union(*self.bags)

    def rainbow_graph(self) -> Graph:
        return self.graph.induced(self.rainbow_vertices())

    def rainbow_decomposition(self) -> LinearDecomposition:
        return LinearDecomposition(self.rainbow_graph(), self.bags)

    @property
    def adhesion(self):
        if len(self.bags) < 2:
            return len(self.bags[0] & self.cloud)
        return len(self.bags[0] & self.bags[1])

    def overlap_set(self, i) -> frozenset:
        """The i-th adhesion set; 0 and length+1 index the cloud overlaps."""
        if i == 0:
            return self.bags[0] & self.cloud
        if i == self.length + 1:
            return self.bags[-1] & self.cloud
        return self.bags[i - 1] & self.bags[i]

    def bag_union(self, i, j) -> frozenset:
        """Vertices of bags i..j inclusive."""
        return frozenset().union(*self.bags[i : j + 1], frozenset())

    def outside(self, i, j) -> frozenset:
        """The cloud plus every bag outside i..j."""
        return self.cloud.union(*self.bags[:i], *self.bags[j + 1 :])

    # -- the same sets as vertex-index masks of graph, built once --

    @functools.cached_property
    def _bag_masks(self) -> tuple:
        return tuple(map(self.graph.mask_of, self.bags))

    @functools.cached_property
    def _sun_mask(self) -> int:
        return self.graph.mask_of(self.sun)

    @functools.cached_property
    def _outer_ends(self):
        """Per index i, the cloud's mask joined with the bags before i, and
        with the bags from i on."""
        before = after = self.graph.mask_of(self.cloud)
        befores, afters = [before], [after]
        for m in self._bag_masks:
            before |= m
            befores.append(before)
        for m in reversed(self._bag_masks):
            after |= m
            afters.append(after)
        afters.reverse()
        return befores, afters

    def _outer(self, i, j) -> int:
        """The mask of outside(i, j)."""
        befores, afters = self._outer_ends
        return befores[i] | afters[j + 1]

    @functools.cached_property
    def _families(self) -> dict:
        """split_family's memo: {(i, j, small & outer, big & outer): splits}."""
        return {}

    @functools.cached_property
    def _window_memo(self) -> dict:
        """_windows' memo: {k: (early window, late window)}."""
        return {}

    @functools.cached_property
    def _crossing_infos(self) -> dict:
        """_crossing's memo: {(direction, i_min, j_max): CrossingInfo}."""
        return {}

    def _windows(self, k):
        """The end windows at tangle order k, as (index, bag mask) tuples:
        bags 0..min(2k, M) for the early end, and M down to max(M - 2k, 0)
        for the late end."""
        got = self._window_memo.get(k)
        if got is None:
            M, bags = self.length, self._bag_masks
            early = tuple((i, bags[i]) for i in range(min(2 * k, M) + 1))
            late = tuple((j, bags[j]) for j in range(M, max(M - 2 * k, 0) - 1, -1))
            got = self._window_memo[k] = early, late
        return got


def validate_rc(g: Graph, rc: RCDecomposition) -> dict:
    """Per-clause report; every flag is true on a genuine decomposition."""
    M = rc.length
    ell = rc.adhesion
    rv = rc.rainbow_vertices()
    u0, u_end = rc.overlap_set(0), rc.overlap_set(M + 1)
    try:  # on g, as every clause is: g need not be rc.graph
        rainbow_ok = is_rainbow_decomposition(LinearDecomposition(g.induced(rv), rc.bags))
    except (DecompositionError, GraphError):
        rainbow_ok = False
    inside = rv | rc.sun
    covered = all(
        (e[0] in inside and e[1] in inside)
        or (e[0] in rc.cloud and e[1] in rc.cloud)
        for e in g.edges
    )
    covered = covered and (rv | rc.cloud) == g.vertex_set()
    report = {
        "rainbow": rainbow_ok,
        "sun_in_cloud": rc.sun <= rc.cloud and rc.sun.isdisjoint(rv),
        "cover": covered,
        "overlap": rv & rc.cloud == u0 | u_end,
        "end_sizes": (
            len(u0) == ell == len(u_end)
            and u0.isdisjoint(rc.overlap_set(1))
            and u_end.isdisjoint(rc.overlap_set(M))
        ),
        "end_linkages": (
            max_linkage_size(g.induced(rc.bags[0]), u0, rc.overlap_set(1)) >= ell
            and max_linkage_size(g.induced(rc.bags[-1]), u_end, rc.overlap_set(M))
            >= ell
        ),
        "sun_adjacency": all(
            not ns.isdisjoint(bag) for ns in map(g.neighbors, rc.sun) for bag in rc.bags
        ),
    }
    return report


def is_rc_decomposition(g: Graph, rc: RCDecomposition) -> bool:
    return all(validate_rc(g, rc).values())


# -- slices and rainbow separations ----------------------------------------------


def slice_rc(rc: RCDecomposition, i: int, j: int) -> RCDecomposition:
    """Keep bags i..j as the rainbow; everything outside joins the cloud."""
    M = rc.length
    if not 0 <= i <= j <= M:
        raise RainbowError(f"slice indices ({i},{j}) out of range 0..{M}")
    return RCDecomposition(rc.graph, rc.bags[i : j + 1], rc.sun, rc.outside(i, j))


def rainbow_separation(rc: RCDecomposition, i: int, j: int) -> OrientedSeparation:
    """Bags i..j plus the sun on the small side, the rest on the big side."""
    M = rc.length
    if not 0 <= i <= j <= M:
        raise RainbowError(f"indices ({i},{j}) out of range 0..{M}")
    return sep(rc.bag_union(i, j) | rc.sun, rc.outside(i, j))


# -- crossing and slicing classification ----------------------------------------


@dataclass(frozen=True)
class CrossingInfo:
    direction: str  # "clockwise" | "counterclockwise" | "none"
    i_min: int | None = None
    j_max: int | None = None

    def __bool__(self):
        return self.direction != "none"


def _end_bags(windows, early_misses: int, late_misses: int):
    """The first bag of the early window disjoint from early_misses and the
    first of the late window disjoint from late_misses, as (i, j), or None
    unless both exist; windows is rc._windows(k).  For a side mask b of a
    separation of rc.graph, a bag disjoint from b lies strictly inside the
    other side."""
    early, late = windows
    for i, m in early:
        if not m & early_misses:
            break
    else:
        return None
    for j, m in late:
        if not m & late_misses:
            return i, j
    return None


def _masks_of(rc: RCDecomposition, s: OrientedSeparation):
    """s's (small, big) vertex-index masks (Graph.side_mask).  A side
    naming a vertex outside rc.graph raises RainbowError."""
    g = rc.graph
    a, b = g.side_mask(s.small), g.side_mask(s.big)
    if a < 0 or b < 0:  # a label outside the graph (see Graph.side_mask)
        unknown = sorted((s.small | s.big) - g.vertex_set())
        raise RainbowError(f"separation names vertices outside the graph: {unknown}")
    return a, b


_NO_CROSSING = CrossingInfo("none")


def _crossing(rc: RCDecomposition, a: int, b: int, k: int) -> CrossingInfo:
    """classify_crossing for side masks (a, b): the decomposition's shared
    CrossingInfo for the answer."""
    windows = rc._windows(k)
    ends = _end_bags(windows, b, a)
    direction = "clockwise"
    if ends is None:
        ends = _end_bags(windows, a, b)
        if ends is None:
            return _NO_CROSSING
        direction = "counterclockwise"
    if rc._sun_mask & ~(a & b):
        raise RainbowError("crossing separator misses the sun")
    key = (direction, *ends)
    info = rc._crossing_infos.get(key)
    if info is None:
        info = rc._crossing_infos[key] = CrossingInfo(*key)
    return info


def _slices(rc: RCDecomposition, a: int, b: int, k: int) -> bool:
    """slices_rainbow for side masks (a, b)."""
    windows, bags = rc._windows(k), rc._bag_masks
    for inner, other in ((a, b), (b, a)):
        ends = _end_bags(windows, other, other)
        if ends is not None:
            for m in bags[ends[0] + 1 : ends[1]]:
                if not m & inner:
                    return True
    return False


def classify_crossing(rc: RCDecomposition, s: OrientedSeparation, k: int) -> CrossingInfo:
    """Whether s runs across the rainbow, and between which extremal bags.

    "Clockwise" puts an early bag strictly inside the small side and a late
    bag strictly inside the big side; the reverse orientation is
    counterclockwise.  A crossing separation must carry the whole sun in its
    separator; one that does not raises RainbowError.  s is a separation
    of rc.graph and k the tangle order, which sets the end windows.
    """
    return _crossing(rc, *_masks_of(rc, s), k)


def _clockwise_window(rc: RCDecomposition, a: int, b: int, k: int):
    """(i_min, j_max) of a clockwise crossing with side masks (a, b);
    anything else raises."""
    info = _crossing(rc, a, b, k)
    if info.direction != "clockwise":
        raise RainbowError("separation does not cross clockwise")
    return info.i_min, info.j_max


def split_crossing(rc: RCDecomposition, s: OrientedSeparation, h: int, k: int):
    """The h-th member of the increasing family refining a clockwise crossing.

    Everything before bag h moves to the small side, bag h onwards to the
    big side; outside the extremal window the crossing separation itself
    decides.  Valid for h in i_min+1 .. j_max.
    """
    a, b = _masks_of(rc, s)
    i, j = _clockwise_window(rc, a, b, k)
    if not i + 1 <= h <= j:
        raise RainbowError(f"split index {h} out of range {i + 1}..{j}")
    return _family(rc, a, b, i, j)[h]


def split_family(rc: RCDecomposition, s: OrientedSeparation, k: int):
    """All splits of a clockwise crossing, indexed i_min+1 .. j_max, as a
    fresh dict on every call.

    The families are memoised on rc, keyed by (i_min, j_max) and the parts
    of s's sides outside the window, which are all the splits read (see
    _splits).  The memo holds at most one family per key, and each key
    comes from a separation passed in: it grows with the distinct
    crossings classified, not with the calls.
    """
    a, b = _masks_of(rc, s)
    return dict(_family(rc, a, b, *_clockwise_window(rc, a, b, k)))


def _family(rc: RCDecomposition, a: int, b: int, i: int, j: int):
    """The memoised splits {h: separation} of a clockwise crossing with
    side masks (a, b) and window (i, j); callers must not mutate it."""
    outer = rc._outer(i, j)
    key = (i, j, a & outer, b & outer)
    fam = rc._families.get(key)
    if fam is None:
        side = rc.graph.side_of
        fam = rc._families[key] = {
            h: OrientedSeparation(side(x), side(y))
            for h, (x, y) in enumerate(_splits(rc, a, b, i, j), i + 1)
        }
    return fam


def _splits(rc: RCDecomposition, a: int, b: int, i: int, j: int):
    """The (small, big) masks of splits h = i+1 .. j of a clockwise crossing
    with side masks (a, b) and window (i, j).

    Split h has bags i..h-1 on its small side and bags h..j on its big
    side; outside the window it keeps s's sides, with the sun on both.
    One running union from the left gives every small side and one from
    the right every big side.
    """
    bags, outer, sun = rc._bag_masks, rc._outer(i, j), rc._sun_mask
    small, big = (a & outer) | sun, (b & outer) | sun
    smalls = []
    for h in range(i + 1, j + 1):
        small |= bags[h - 1]
        smalls.append(small)
    bigs = []
    for h in range(j, i, -1):
        big |= bags[h]
        bigs.append(big)
    bigs.reverse()
    return list(zip(smalls, bigs))


def slices_rainbow(rc: RCDecomposition, s: OrientedSeparation, k: int) -> bool:
    """True when an early and a late bag sit strictly on one side while some
    bag between them sits strictly on the other.  s is a separation of
    rc.graph, so a bag sits strictly on one side when it misses the other."""
    return _slices(rc, *_masks_of(rc, s), k)


def classify_cross_or_slice(rc: RCDecomposition, s: OrientedSeparation, k: int) -> str:
    a, b = _masks_of(rc, s)
    if _crossing(rc, a, b, k):
        return "crossing"
    if _slices(rc, a, b, k):
        return "slicing"
    return "neither"


# -- where a tangle lives ---------------------------------------------------------


@dataclass(frozen=True)
class LivingVerdict:
    """How (if at all) a tangle leans into the rainbow.

    kind "no": the tangle stays out of the rainbow.  kind "region": some
    member's big strict side sits inside the rainbow away from the cloud
    (the witness: the first such <=-maximal one).  kind "flip": some
    crossing separation is oriented forward early and backward late;
    turning_point is the last forward split index, shared by every such
    separation.
    """

    kind: str
    witness: OrientedSeparation | None = None
    turning_point: int | None = None


def _flip_point(rc: RCDecomposition, tau: Tangle, a: int, b: int):
    """For side masks (a, b) of a clockwise crossing, the last
    forward-oriented split index h with h+1 oriented backward; None for
    any other (a, b), or when no split turns.  The splits stay masks over
    rc.graph's vertex index, which is tau.graph's."""
    info = _crossing(rc, a, b, tau.k)
    if info.direction != "clockwise":
        return None
    i = info.i_min
    splits = _splits(rc, a, b, i, info.j_max)
    for h, (a, b), (c, d) in zip(range(i + 1, info.j_max), splits, splits[1:]):
        if tau._holds(a, b) and tau._holds(d, c):
            return h
    return None


def lives_in_rainbow(rc: RCDecomposition, tau: Tangle) -> LivingVerdict:
    """Where tau leans into the rainbow (see LivingVerdict), on vertex masks.

    The region scan reads tau's maximal (small, big) masks and takes the
    sort-key least of those whose big strict side lies among the rainbow
    vertices outside the cloud.  The flip scan classifies tau's members with
    _crossing, read off its map one order at a time (see _member_levels):
    each separation of order < k once, in the orientation tau gives it.
    Sort-key order is needed only to pick the witness, so the first order
    holding a flipping member is the witness's, and only its flipping
    members are compared.  Only the returned witness is built as an
    OrientedSeparation.
    """
    g = tau.graph
    if g.vertices != rc.graph.vertices:
        raise RainbowError("the tangle's graph and the decomposition's have different vertices")
    free, side, key = g.mask_of(rc.rainbow_vertices() - rc.cloud), g.side_of, _pair_key(g)
    rows = [(a, b) for a, b in tau.maximal_masks() if not b & ~a & ~free]
    if rows:
        a, b = min(rows, key=key)
        return LivingVerdict("region", witness=OrientedSeparation(side(a), side(b)))
    for pairs in _member_levels(tau):
        flips = [(a, b, h) for a, b in pairs if (h := _flip_point(rc, tau, a, b)) is not None]
        if flips:
            a, b, h = min(flips, key=key)
            witness = OrientedSeparation(side(a), side(b))
            return LivingVerdict("flip", witness=witness, turning_point=h)
    return LivingVerdict("no")


# -- shortening away from the tangle ----------------------------------------------


def _region_bag_span(rc: RCDecomposition, witness: OrientedSeparation):
    """First and last bag met by the witness's big strict side."""
    inner = witness.big - witness.small
    hit = [i for i, bag in enumerate(rc.bags) if bag & inner]
    if not hit:
        raise RainbowError("witness has an empty big strict side")
    return min(hit), max(hit)


def _settled_bag(rc: RCDecomposition, tau: Tangle):
    """A bag index whose one-bag rainbow separation is oriented big-side-in."""
    for h in range(rc.length + 1):  # rainbow_separation(rc, h, h), inverted
        if tau._holds(rc._outer(h, h), rc._bag_masks[h] | rc._sun_mask):
            return h
    return None


def shorten_to_not_living(rc: RCDecomposition, tau: Tangle) -> RCDecomposition:
    """Slice at least the middle half of the rainbow so the tangle no longer
    lives in it; requires length >= 6k."""
    k = tau.k
    M = rc.length
    if M < 6 * k:
        raise RainbowError(f"length {M} below the 6k = {6 * k} threshold")
    verdict = lives_in_rainbow(rc, tau)
    if verdict.kind == "no":
        return rc
    if verdict.kind == "region":
        separator_size = 2 * rc.adhesion + len(rc.sun)
        if separator_size < k:
            h = _settled_bag(rc, tau)
            if h is None:
                raise RainbowError("no bag separation oriented inward")
            r = s = h
        else:
            r, s = _region_bag_span(rc, verdict.witness)
        i, j = (0, r - 1) if r > M / 2 - k else (s + 1, M)
    else:  # flip
        h = verdict.turning_point
        i, j = (0, h - 1) if h >= M / 2 else (h + 1, M)
    if j - i < M / 2 - k:
        raise RainbowError("shortening fell below the guaranteed length")
    out = slice_rc(rc, i, j)
    if lives_in_rainbow(out, tau).kind != "no":
        raise RainbowError("tangle still lives in the shortened rainbow")
    return out


# -- edge choice -------------------------------------------------------------------


def _merge_middle_bags(rc: RCDecomposition) -> RCDecomposition:
    """Fuse the three bags around the midpoint of an even-length rainbow."""
    M = rc.length
    if M % 2 or M < 4:
        raise RainbowError("need an even length of at least 4 to merge")
    m = M // 2
    merged = rc.bags[m - 1] | rc.bags[m] | rc.bags[m + 1]
    bags = rc.bags[: m - 1] + (merged,) + rc.bags[m + 2 :]
    return RCDecomposition(rc.graph, bags, rc.sun, rc.cloud)


def _linkage_edges(linkage):
    out = set()
    for p in linkage:
        for u, v in zip(p, p[1:]):
            out.add((min(u, v), max(u, v)))
    return out


def choose_edge(rc: RCDecomposition, tau: Tangle):
    """A deletable edge in the middle of the rainbow, with a decomposition
    that remains valid for both the graph and the graph minus that edge.

    After shortening away from the tangle and evening the length, the three
    middle bags are fused so that every sun vertex keeps spare neighbours
    there.  With a sun, any sun-to-middle-bag edge works; without one, a
    non-linkage edge of the middle part whose removal keeps it connected.
    """
    g = rc.graph
    short = shorten_to_not_living(rc, tau)
    if short.length % 2:
        even = slice_rc(short, 0, short.length - 1)
        if lives_in_rainbow(even, tau).kind != "no":
            even = slice_rc(short, 1, short.length)
            if lives_in_rainbow(even, tau).kind != "no":
                raise RainbowError("no even-length slice avoids the tangle")
    else:
        even = short
    merged = _merge_middle_bags(even)
    mid = merged.bags[merged.length // 2]
    if rc.sun:
        candidates = sorted(
            (min(z, w), max(z, w))
            for z in rc.sun
            for w in g.neighbors(z)
            if w in mid
        )
        if not candidates:
            raise RainbowError("sun has no edge into the middle bag")
        return candidates[0], merged
    linkage_edges = _linkage_edges(foundational_linkage(merged.rainbow_decomposition()))
    part = g.induced(mid)
    for e in part.sorted_edges():
        if e in linkage_edges:
            continue
        if delete_edge(part, e).is_connected():
            return e, merged
    raise RainbowError("middle bag has no spare edge (minimum degree below 3?)")


# -- extending a tangle after the deletion -----------------------------------------


def extend_after_deletion(
    g: Graph, tau: Tangle, rc: RCDecomposition, e, relaxed: bool = False, verify: bool = True
) -> Tangle:
    """The surviving orientation of the graph minus e, for a tangle tau of g.

    Separations the tangle forces keep their forced orientation: a row that
    is a separation of g too is read off tau's map, and only a row whose
    strict sides e joins is compared with tau's maximal members (see
    survival._forced).  Any other separation owes its existence to the
    deleted edge, so its separator leaves e's endpoints in two components
    of the remaining graph; the side whose component reaches the cloud is
    the big side.  Exactly one side may do so — anything else is reported
    as a violation.
    """
    k = tau.k
    if not relaxed:
        # choose_edge fuses the three middle bags, costing two of the
        # original >= 18k bags
        if rc.length < 18 * k - 2:
            raise RainbowError(f"length {rc.length} below 18k-2 = {18 * k - 2}")
        if g.min_degree() < 3:
            raise RainbowError("minimum degree below 3")
    if rc.adhesion + len(rc.sun) < 1:
        raise RainbowError("adhesion and sun cannot both be empty")
    g2 = delete_edge(g, e)
    full, ends = g2.full_mask(), g2.mask_of(e)
    cloud = g2.mask_of(rc.cloud & g2.vertex_set())

    def rule(small, big):  # g2 keeps g's bit order
        fwd = _oriented(tau, small, big)
        if fwd is not None:
            return fwd
        comps = g2.components(full & ~(small & big))
        comp_small = next((c for c in comps if c & ends and not c & ~small), None)
        comp_big = next((c for c in comps if c & ends and not c & ~big), None)
        if comp_small is None or comp_big is None:
            raise RainbowError("unforced separation does not isolate the edge ends")
        big_meets = bool(comp_big & cloud)
        if bool(comp_small & cloud) == big_meets:
            raise RainbowError("cloud reachability fails to decide an orientation")
        return big_meets

    out = Tangle._of_rule(g2, k, rule)
    if verify:
        if rows_cover(out):
            raise TangleError("extension is not a tangle")
        if not extends(tau, out):
            raise TangleError("extension disagrees with the original tangle")
    return out


# -- clique tangles -----------------------------------------------------------------


def clique_tangle(g: Graph, clique, k: int) -> Tangle:
    """The k-tangle pointing at a clique of at least 3k-2 vertices.

    No separation of order < k can split a clique between its strict sides,
    and 3k-2 vertices cannot hide inside one separator, so every separation
    has exactly one side containing the whole clique; three small sides
    together miss at least one clique vertex, hence no forbidden triple.
    """
    _check_order(k)
    q = frozenset(clique)
    unknown = sorted(q - g.vertex_set())
    if unknown:
        raise TangleError(f"clique vertices not in the graph: {unknown}")
    if len(q) < 3 * k - 2:
        raise TangleError(f"need at least 3k-2 = {3 * k - 2} clique vertices")
    if any(not g.has_edge(a, b) for a in q for b in q if a < b):
        raise TangleError("vertex set is not a clique")
    qm = g.mask_of(q)
    return Tangle._of_rule(g, k, lambda a, b: not qm & ~b)


# -- synthetic instances --------------------------------------------------------------


def synth_rc(M: int, ell: int, z: int, k: int = 3):
    """A graph with a built-in rainbow-cloud decomposition and a cloud clique.

    The rainbow is a grid of ell horizontal paths across M+2 columns (for
    ell = 0, a row of disjoint triangles), bag i spanning columns i and i+1.
    The sun is z apex vertices adjacent to the top of every column, and the
    cloud is a clique of 3k-2 vertices joined completely to both end columns
    and the sun.  Returns (graph, decomposition, clique vertices).  M < 1,
    a negative ell or z, ell = z = 0, and k < 1 are refused.
    """
    if M < 1:
        raise RainbowError("need length at least 1")
    if ell < 0 or z < 0:
        raise RainbowError(f"adhesion {ell} and sun size {z} must be nonnegative")
    if k < 1:
        raise RainbowError(f"need order at least 1, not {k}")
    if ell == 0 and z == 0:
        raise RainbowError("a sun is required when the adhesion is zero")
    edges = []
    if ell > 0:
        def cell(c, r):
            return c * ell + r

        ncols = M + 2
        for c in range(ncols):
            for r in range(ell - 1):
                edges.append((cell(c, r), cell(c, r + 1)))
            if c + 1 < ncols:
                for r in range(ell):
                    edges.append((cell(c, r), cell(c + 1, r)))
        columns = [frozenset(cell(c, r) for r in range(ell)) for c in range(ncols)]
        bags = tuple(columns[i] | columns[i + 1] for i in range(M + 1))
        tops = [cell(c, 0) for c in range(ncols)]
        base = ncols * ell
        end_cols = columns[0] | columns[-1]
    else:
        def tri(i, t):
            return 3 * i + t

        for i in range(M + 1):
            edges += [(tri(i, 0), tri(i, 1)), (tri(i, 1), tri(i, 2)), (tri(i, 0), tri(i, 2))]
        bags = tuple(frozenset(tri(i, t) for t in range(3)) for i in range(M + 1))
        tops = [tri(i, 0) for i in range(M + 1)]
        base = 3 * (M + 1)
        end_cols = frozenset()
    sun = frozenset(range(base, base + z))
    for s in sun:
        edges += [(s, t) for t in tops]
    qsize = 3 * k - 2
    clique = frozenset(range(base + z, base + z + qsize))
    cq = sorted(clique)
    edges += [(a, b) for i, a in enumerate(cq) for b in cq[i + 1 :]]
    edges += [(a, w) for a in cq for w in sorted(end_cols | sun)]
    n = base + z + qsize
    g = Graph(range(n), edges)
    rc = RCDecomposition(g, bags, sun, clique | end_cols | sun)
    return g, rc, clique


# -- file format ------------------------------------------------------------------


def format_rc(rc: RCDecomposition) -> str:
    """The bags, the sun and the cloud, one section each: what parse_rc reads."""
    lines = ["RAINBOW-BAGS"]
    lines += [" ".join(map(str, sorted(b))) for b in rc.bags]
    lines.append("SUN")
    lines.append(" ".join(map(str, sorted(rc.sun))))
    lines.append("CLOUD-VERTICES")
    lines.append(" ".join(map(str, sorted(rc.cloud))))
    return "\n".join(lines) + "\n"


def parse_rc(text: str, g: Graph) -> RCDecomposition:
    """The decomposition of g that format_rc's text gives.  A LINKAGE
    section, which older files hold, is read as integers and discarded."""
    section = None
    bags, sun, cloud = [], frozenset(), frozenset()
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line in ("RAINBOW-BAGS", "SUN", "CLOUD-VERTICES", "LINKAGE"):
            section = line
            continue
        values = frozenset(map(int, line.split()))
        if section == "RAINBOW-BAGS":
            bags.append(values)
        elif section == "SUN":
            sun |= values
        elif section == "CLOUD-VERTICES":
            cloud |= values
        elif section != "LINKAGE":
            raise RainbowError("data before any section header")
    if not bags:
        raise RainbowError("no bags found")
    unknown = sorted(sun.union(cloud, *bags) - g.vertex_set())
    if unknown:
        raise RainbowError(f"bag, sun or cloud vertices not in the graph: {unknown}")
    return RCDecomposition(g, tuple(bags), sun, cloud)
