"""Output checks written apart from tanglekit.

Everything here works on plain vertex sets, edge sets and (small, big)
pairs of frozensets, and imports nothing from the package under test.
Each function returns a list of problems; an empty list means the output
passed.  The checks follow the definitions, not the package's algorithms:
separations come from separators and the components they leave, tangle
triples are scanned over inclusion-maximal small sides, and inducing sets
by trying vertex subsets in order of size.
"""

from __future__ import annotations

from itertools import combinations, combinations_with_replacement, product


def norm_edges(edges):
    return frozenset(tuple(sorted(e)) for e in edges)


def _components(vertices, edges):
    adj = {v: set() for v in vertices}
    for u, v in edges:
        if u in adj and v in adj:
            adj[u].add(v)
            adj[v].add(u)
    seen, comps = set(), []
    for root in sorted(vertices):
        if root in seen:
            continue
        comp, stack = {root}, [root]
        while stack:
            for y in adj[stack.pop()]:
                if y not in comp:
                    comp.add(y)
                    stack.append(y)
        seen |= comp
        comps.append(frozenset(comp))
    return comps


def separations(vertices, edges, k):
    """Every oriented separation (A, B) of order < k, both orientations.

    (A, B) is a separation with A & B = S exactly when A - S and B - S are
    unions of components of the graph minus S that share none.
    """
    vertices = frozenset(vertices)
    edges = norm_edges(edges)
    out = set()
    for size in range(min(k, len(vertices) + 1)):
        for sep in combinations(sorted(vertices), size):
            sep = frozenset(sep)
            comps = _components(vertices - sep, edges)
            for pick in product((0, 1), repeat=len(comps)):
                a = sep.union(*(c for c, p in zip(comps, pick) if p == 0))
                b = sep.union(*(c for c, p in zip(comps, pick) if p == 1))
                out.add((a, b))
    return out


def connected(vertices, edges):
    return len(_components(vertices, edges)) <= 1


def _induced_edges(side, edges):
    return frozenset(e for e in edges if e[0] in side and e[1] in side)


def covering_triple(smalls, vertices, edges):
    """Three small sides (repeats allowed) whose induced subgraphs hold the
    given vertices and edges, or None.  Covering only grows with the small
    side, so inclusion-maximal small sides suffice."""
    vertices, edges = frozenset(vertices), norm_edges(edges)
    pool = sorted(set(smalls), key=lambda s: (len(s), sorted(s)))
    pool = [s for s in pool if not any(s < t for t in pool)]
    covers = [(s & vertices, _induced_edges(s, edges)) for s in pool]
    for i, j, l in combinations_with_replacement(range(len(pool)), 3):
        if (covers[i][0] | covers[j][0] | covers[l][0]) >= vertices and (
            covers[i][1] | covers[j][1] | covers[l][1]
        ) >= edges:
            return pool[i], pool[j], pool[l]
    return None


def orientation_problems(seps, members):
    """Members must orient each separation in seps exactly once."""
    members = set(members)
    problems = [f"member {sorted(a)}|{sorted(b)} is not a separation"
                for a, b in members - seps]
    for a, b in seps:
        if (a, b) in members and (b, a) in members and a != b:
            problems.append(f"both orientations of {sorted(a)}|{sorted(b)}")
        elif (a, b) not in members and (b, a) not in members:
            problems.append(f"{sorted(a)}|{sorted(b)} left unoriented")
    return problems


def tangle_problems(vertices, edges, k, members):
    """Is members a k-tangle of the graph: an orientation of every
    separation of order < k with no three small sides covering the graph?"""
    problems = orientation_problems(separations(vertices, edges, k), members)
    if not problems:
        triple = covering_triple([a for a, _ in members], vertices, edges)
        if triple is not None:
            problems.append(f"small sides {[sorted(s) for s in triple]} cover the graph")
    return problems


def extends(old_members, new_members):
    """Every member of the old tangle is a member of the new one."""
    missing = set(old_members) - set(new_members)
    return [f"lost member {sorted(a)}|{sorted(b)}" for a, b in sorted(missing, key=str)[:3]]


def min_inducing_set_size(vertices, members):
    """Size of a smallest X with |X & A| < |X & B| for every member (A, B)."""
    members = list(members)
    for size in range(len(vertices) + 1):
        for x in combinations(sorted(vertices), size):
            x = frozenset(x)
            if all(len(x & a) < len(x & b) for a, b in members):
                return size
    return None


def weight_problems(weights, members):
    """Every member's big side must strictly outweigh its small side."""
    def side(vs):
        return sum(w for v, w in weights.items() if v in vs)

    if any(w < 0 for w in weights.values()):
        return ["negative weight"]
    return [f"member {sorted(a)}|{sorted(b)} not outweighed"
            for a, b in members if not side(a) < side(b)][:3]


def witness_problems(root_vertices, root_edges, root_members,
                     h_vertices, h_edges, terminal_vertices, terminal_edges):
    """A witness is a subgraph of the root graph that holds every terminal
    vertex and one edge per terminal edge, and that no three small sides of
    the root tangle cover."""
    h_edges, root_edges = norm_edges(h_edges), norm_edges(root_edges)
    problems = []
    if not frozenset(h_vertices) <= frozenset(root_vertices) or not h_edges <= root_edges:
        problems.append("witness is not a subgraph of the root graph")
    if not frozenset(terminal_vertices) <= frozenset(h_vertices):
        problems.append("witness misses a terminal vertex")
    if len(h_edges) != len(norm_edges(terminal_edges)):
        problems.append(f"witness has {len(h_edges)} edges for "
                        f"{len(norm_edges(terminal_edges))} terminal edges")
    if covering_triple([a for a, _ in root_members], h_vertices, h_edges) is not None:
        problems.append("three small sides cover the witness")
    return problems


def stop_problems(vertices, edges, k):
    """A finished reduction at order >= 3 leaves a connected graph with no
    vertex of degree 1 or 2: a component, pendant or degree-2 step would
    still apply."""
    if k < 3 or len(vertices) <= 1:
        return []
    degree = {v: 0 for v in vertices}
    for u, v in edges:
        degree[u] += 1
        degree[v] += 1
    problems = [] if connected(vertices, edges) else ["terminal graph is disconnected"]
    low = sorted(v for v, d in degree.items() if d in (1, 2))
    if low:
        problems.append(f"terminal graph keeps vertices of degree 1 or 2: {low}")
    return problems


def family_problems(family, k):
    """A split family must increase along its index, each member of order <= k."""
    problems = []
    hs = sorted(family)
    for h in hs:
        a, b = family[h]
        if len(a & b) > k:
            problems.append(f"split {h} has order {len(a & b)} > {k}")
    for h1, h2 in zip(hs, hs[1:]):
        (a1, b1), (a2, b2) = family[h1], family[h2]
        if not (a1 <= a2 and b1 >= b2):
            problems.append(f"splits {h1} and {h2} are out of order")
    return problems


def extension_problems(vertices, edges, k, members, old_members, clique):
    """The tangle of g - e must orient every separation of g - e once, keep
    every old member that is still a separation, and point every member at
    the clique.  A clique of >= 3k - 2 vertices on every big side cannot be
    covered by three small sides, whose separators hold < 3k - 2 vertices."""
    seps = separations(vertices, edges, k)
    problems = orientation_problems(seps, members)
    members = set(members)
    kept = [m for m in old_members if m in seps]
    problems += extends(kept, members)
    clique = frozenset(clique)
    if len(clique) < 3 * k - 2:
        problems.append(f"clique of {len(clique)} < 3k - 2 vertices")
    if any(not clique <= b for _, b in members):
        problems.append("a member's big side misses part of the clique")
    return problems
