"""Linear decompositions, their validators, linkages, and size guarantees.

A linear decomposition is a path-shaped sequence of bags covering the graph
whose consecutive overlaps (adhesion sets) all have the same size and whose
neighbouring bags never contain one another.  A rainbow decomposition also
joins consecutive adhesion sets by full linkages inside connected parts;
foundational_linkage stitches those linkages end to end.  The bound
formulas give the paper's closed-form vertex counts above which such
decompositions exist.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass

from .graphs import Graph


class DecompositionError(ValueError):
    pass


# -- linkages (Menger via shortest augmenting paths) ------------------------


def vertex_disjoint_paths(g: Graph, sources, targets):
    """A maximum family of vertex-disjoint sources-targets paths.

    Each path meets sources exactly in its first vertex and targets exactly
    in its last; vertices in both sets count as trivial one-vertex paths.
    Shortest augmenting paths (Edmonds-Karp) on the vertex-split graph,
    where (v, 0) -> (v, 1) carries v, every arc has capacity 1, and no arc
    enters a source or leaves a target.  The flow is kept as the paths
    themselves: pred[v] and succ[v] are v's neighbours on its path (None at
    its ends), and v carries flow exactly when it is a key of pred.  The
    search starts from the sources and walks each vertex's neighbours in
    ascending label order, so the paths depend on the labels' order only.
    """
    S = frozenset(sources) & g.vertex_set()
    T = frozenset(targets) & g.vertex_set()
    common = S & T
    paths = [(v,) for v in sorted(common)]
    S2, T2 = S - common, T - common
    pred, succ = {}, {}
    while S2 and T2:
        parent = {(s, 0): None for s in sorted(S2 - pred.keys())}
        queue = deque(parent)
        while queue:
            node = v, side = queue.popleft()
            if side and v in T2:
                break
            if side:
                steps = [(v, 0)] if v in pred else []
                taken = succ.get(v)
                steps += [(w, 0) for w in sorted(g.neighbors(v)) if w not in S and w != taken]
            elif v not in pred:
                steps = [(v, 1)]
            else:  # a used v is left only back along the arc its flow came in on
                steps = [] if pred[v] is None else [(pred[v], 1)]
            for nxt in steps:
                if nxt not in parent:
                    parent[nxt] = node
                    queue.append(nxt)
        else:
            break  # no augmenting path is left
        chain = [node]
        while parent[chain[-1]] is not None:
            chain.append(parent[chain[-1]])
        chain.reverse()
        pred[chain[0][0]] = succ[v] = None
        for (a, side), (b, _) in zip(chain, chain[1:]):
            if a == b:
                if side:  # a gives its flow up; its outgoing arc is cancelled already
                    del pred[a]
            elif side:  # new arc a -> b
                succ[a], pred[b] = b, a
            else:  # cancelled arc b -> a; a's new predecessor is set already
                del succ[b]
    for s in sorted(S2 & pred.keys()):
        walk = [s]
        while succ[walk[-1]] is not None:
            walk.append(succ[walk[-1]])
        paths.append(tuple(walk))
    return sorted(paths)


def max_linkage_size(g: Graph, sources, targets) -> int:
    return len(vertex_disjoint_paths(g, sources, targets))


# -- linear decompositions ---------------------------------------------------


@dataclass(frozen=True)
class LinearDecomposition:
    graph: Graph
    bags: tuple  # tuple of frozensets

    def __post_init__(self):
        object.__setattr__(self, "bags", tuple(frozenset(b) for b in self.bags))

    @property
    def length(self):
        return len(self.bags) - 1

    def adhesion_set(self, i):
        """Overlap of bags i-1 and i, for i in 1..length."""
        return self.bags[i - 1] & self.bags[i]

    def adhesion_sets(self):
        return [self.adhesion_set(i) for i in range(1, len(self.bags))]

    @property
    def adhesion(self):
        us = self.adhesion_sets()
        sizes = {len(u) for u in us}
        if len(sizes) > 1:
            raise DecompositionError("adhesion sets have unequal sizes")
        return sizes.pop() if sizes else 0

    def part(self, i) -> Graph:
        return self.graph.induced(self.bags[i])


def check_bag_cover(ld: LinearDecomposition) -> bool:
    """Bags cover every vertex and every edge of the graph."""
    g = ld.graph
    if frozenset().union(*ld.bags, frozenset()) != g.vertex_set():
        return False
    return all(
        any(e[0] in b and e[1] in b for b in ld.bags) for e in g.edges
    )


def check_bag_interval(ld: LinearDecomposition) -> bool:
    """Each vertex appears in a consecutive run of bags."""
    for v in ld.graph.vertices:
        hits = [i for i, b in enumerate(ld.bags) if v in b]
        if hits and hits != list(range(hits[0], hits[-1] + 1)):
            return False
    return True


def check_equal_adhesion(ld: LinearDecomposition) -> bool:
    return len({len(u) for u in ld.adhesion_sets()}) <= 1


def check_proper_bags(ld: LinearDecomposition) -> bool:
    """No bag contains its neighbour."""
    return all(
        ld.bags[i - 1] != u != ld.bags[i]
        for i, u in enumerate(ld.adhesion_sets(), start=1)
    )


def check_inner_linkages(ld: LinearDecomposition) -> bool:
    """Full linkages between consecutive adhesion sets inside inner parts."""
    try:
        ell = ld.adhesion
    except DecompositionError:
        return False
    for i in range(1, ld.length):
        part = ld.part(i)
        if max_linkage_size(part, ld.adhesion_set(i), ld.adhesion_set(i + 1)) < ell:
            return False
    return True


def check_connected_parts(ld: LinearDecomposition) -> bool:
    return all(ld.part(i).is_connected() for i in range(len(ld.bags)))


def check_disjoint_adhesions(ld: LinearDecomposition) -> bool:
    us = ld.adhesion_sets()
    return all(a.isdisjoint(b) for a, b in zip(us, us[1:]))


def validate_linear(ld: LinearDecomposition) -> dict:
    return {
        "cover": check_bag_cover(ld),
        "interval": check_bag_interval(ld),
        "equal_adhesion": check_equal_adhesion(ld),
        "proper_bags": check_proper_bags(ld),
    }


def is_linear_decomposition(ld: LinearDecomposition) -> bool:
    return all(validate_linear(ld).values())


def is_rainbow_decomposition(ld: LinearDecomposition) -> bool:
    return (
        is_linear_decomposition(ld)
        and check_inner_linkages(ld)
        and check_connected_parts(ld)
        and check_disjoint_adhesions(ld)
    )


# -- foundational linkage -----------------------------------------------------


def foundational_linkage(ld: LinearDecomposition):
    """Stitch per-part linkages into end-to-end paths, first to last adhesion.

    Requires a rainbow decomposition; each returned path is a vertex tuple
    starting in the first adhesion set and ending in the last.
    """
    ell = ld.adhesion
    M = ld.length
    if M < 2:
        return [(v,) for v in sorted(ld.adhesion_set(1))] if M == 1 else []
    by_start = {}
    for i in range(1, M):
        part = ld.part(i)
        paths = vertex_disjoint_paths(part, ld.adhesion_set(i), ld.adhesion_set(i + 1))
        if len(paths) < ell:
            raise DecompositionError(f"part {i} lacks a full linkage")
        for p in paths:  # each starts in adhesion_set(i)
            by_start[(i, p[0])] = p
    linkage = []
    for v in sorted(ld.adhesion_set(1)):
        walk = [v]
        for i in range(1, M):
            p = by_start[(i, walk[-1])]
            walk.extend(p[1:])
        linkage.append(tuple(walk))
    return linkage


# -- closed-form size guarantees ----------------------------------------------


def bound_chain_refinement(k: int, M: int) -> int:
    """Vertex count above which a decomposition of length M and adhesion
    <= k with full inner linkages is guaranteed (no (k+1)-tangle assumed)."""
    return 3 * k * 3 ** ((M + 2) ** (k + 1))


def bound_linkage_uniformity(ell: int, M: int) -> int:
    """Input length guaranteeing length M with a foundational linkage whose
    trivial-path and cross-connection behaviour is uniform along the bags."""
    f = math.factorial(ell)
    return (M * math.comb(ell, 2) + 1) * f ** (ell + 1) * f


@dataclass(frozen=True)
class SymbolicBound:
    """factor * base ** exponent, kept symbolic; the exponent alone can be
    astronomically large, so the value is only materialized on request."""

    factor: int
    base: int
    exponent: int

    def log10(self) -> float:
        return math.log10(self.factor) + self.exponent * math.log10(self.base)

    def value(self, max_digits: int = 100_000) -> int:
        if self.log10() > max_digits:
            raise OverflowError(
                f"bound has ~10**{self.log10():.3g} digits; not materializing"
            )
        return self.factor * self.base**self.exponent

    def __str__(self):
        return f"{self.factor} * {self.base}**{self.exponent}"


def bound_rc_existence(k: int, M: int) -> SymbolicBound:
    """Vertex count above which a rainbow-cloud decomposition of length M
    exists when no (k+1)-tangle does.  Composition of the two bounds above,
    kept symbolic."""
    m1 = bound_linkage_uniformity(k, M + 2)
    return SymbolicBound(3 * k, 3, (m1 + 2) ** (k + 1))


@dataclass(frozen=True)
class BoundLedger:
    k: int
    M: int
    ell: int
    chain_bound: int  # exact big integer
    linkage_bound: int  # exact big integer
    overall: SymbolicBound  # too large to materialize in general


def compute_bounds(k: int, M: int, ell: int | None = None) -> BoundLedger:
    """Exact values of the two elementary guarantees and the symbolic
    composite; ell defaults to k."""
    if k < 1 or M < 1:
        raise DecompositionError("k and M must be at least 1")
    if ell is None:
        ell = k
    return BoundLedger(
        k=k,
        M=M,
        ell=ell,
        chain_bound=bound_chain_refinement(k, M),
        linkage_bound=bound_linkage_uniformity(ell, M),
        overall=bound_rc_existence(k, M),
    )
