"""Simple undirected graphs with stable integer vertex labels.

Graphs are immutable after construction.  The three reduction operations
(edge deletion, degree-2 suppression, component extraction) never renumber
vertices, so tangles and weight functions transfer between a graph and its
topological minors by label identity.
"""

from __future__ import annotations

import itertools


class GraphError(ValueError):
    pass


def _norm_edge(e):
    u, v = e
    if u == v:
        raise GraphError(f"loop at vertex {u}")
    return (u, v) if u < v else (v, u)


class Graph:
    """Simple undirected graph.  No loops, no parallel edges.

    One vertex index: bit i is the i-th label in sorted order.  A cover
    mask holds vertex bits 0..n-1 and, in bit n+j, the j-th edge of
    sorted_edges(); by vertex index the graph keeps the neighbours' mask
    and the cover bits of the vertex's edges."""

    __slots__ = (
        "vertices", "edges", "_bit", "_nbrs", "_inc", "_cover", "_hash",
        "_seps", "_sides", "_masks_by_side",
    )

    def __init__(self, vertices=(), edges=()):
        es = frozenset(_norm_edge(e) for e in edges)
        vs = set(vertices)
        for u, v in es:
            vs.add(u)
            vs.add(v)
        self.vertices = tuple(sorted(vs))
        self.edges = es
        n = len(self.vertices)
        self._bit = bit = {v: 1 << i for i, v in enumerate(self.vertices)}
        self._nbrs = nbrs = [0] * n  # by index: the neighbours' mask
        self._inc = inc = [0] * n  # by index: the cover bits of the vertex's edges
        e = 1 << n  # the cover bit of the next edge in sorted order
        for u, v in sorted(es):
            bu, bv = bit[u], bit[v]
            i, j = bu.bit_length() - 1, bv.bit_length() - 1
            nbrs[i] |= bv
            nbrs[j] |= bu
            inc[i] |= e
            inc[j] |= e
            e <<= 1
        self._cover = e - 1  # the whole graph's cover mask
        self._hash = hash((self.vertices, self.edges))
        self._seps = {}  # k -> separations of order < k, filled by separations.py
        self._sides = {}  # side mask -> its frozenset, for every side _seps holds
        self._masks_by_side = {}  # the inverse: side frozenset -> its mask

    # -- basic queries -------------------------------------------------

    def __contains__(self, v):
        return v in self._bit

    def __len__(self):
        return len(self.vertices)

    def __eq__(self, other):
        return (
            isinstance(other, Graph)
            and self.vertices == other.vertices
            and self.edges == other.edges
        )

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"Graph(|V|={len(self.vertices)}, |E|={len(self.edges)})"

    def neighbors(self, v):
        return self.labels_of(self._nbrs[self._bit[v].bit_length() - 1])

    def degree(self, v):
        return self._nbrs[self._bit[v].bit_length() - 1].bit_count()

    def has_edge(self, u, v):
        return _norm_edge((u, v)) in self.edges

    def vertex_set(self):
        return frozenset(self.vertices)

    def sorted_edges(self):
        return sorted(self.edges)

    # -- derived graphs ------------------------------------------------

    def induced(self, vs):
        vs = frozenset(vs)
        unknown = vs - set(self.vertices)
        if unknown:
            raise GraphError(f"vertices not in graph: {sorted(unknown)}")
        return Graph(vs, (e for e in self.edges if e[0] in vs and e[1] in vs))

    def plus_edge(self, u, v):
        return Graph(self.vertices, self.edges | {_norm_edge((u, v))})

    def edges_within(self, vs):
        """Edges with both endpoints in vs."""
        vs = frozenset(vs)
        return {e for e in self.edges if e[0] in vs and e[1] in vs}

    def is_connected(self):
        return len(self.components()) == 1

    def component_vertex_sets(self):
        """Vertex sets of components, ordered by smallest contained label."""
        return [self.labels_of(m) for m in self.components()]

    def joins(self, m1, m2):
        """Does an edge join a vertex of mask m1 to a vertex of mask m2?
        Scans the neighbours of the sparser mask's vertices."""
        if m1.bit_count() > m2.bit_count():
            m1, m2 = m2, m1
        while m1:
            low = m1 & -m1
            if self._nbrs[low.bit_length() - 1] & m2:
                return True
            m1 ^= low
        return False

    def components(self, mask=None):
        """Component masks of the subgraph induced by mask (default: all
        vertices), ordered by lowest bit, that is by smallest label."""
        nbrs = self._nbrs
        rest = self.full_mask() if mask is None else mask
        comps = []
        while rest:
            comp = grow = rest & -rest
            rest ^= comp
            while grow:
                low = grow & -grow
                grow ^= low
                new = nbrs[low.bit_length() - 1] & rest
                comp |= new
                grow |= new
                rest ^= new
            comps.append(comp)
        return comps

    def min_degree(self):
        return min((m.bit_count() for m in self._nbrs), default=0)

    # -- bitmask helpers (positions follow sorted label order) ---------

    def mask_of(self, vs):
        """The mask of distinct labels vs (distinct bits: the sum is the union)."""
        return sum(map(self._bit.__getitem__, vs))

    def labels_of(self, mask):
        return frozenset(self.sorted_labels(mask))

    def sorted_labels(self, mask):
        """The labels of mask's bits as a tuple, ascending: bits follow
        label order, so the bit walk needs no sort."""
        vs = self.vertices
        out = []
        while mask:
            low = mask & -mask
            out.append(vs[low.bit_length() - 1])
            mask ^= low
        return tuple(out)

    def side_mask(self, vs):
        """mask_of(vs) for a frozenset vs, read from the side table when vs
        is a side of an enumerated separation.  The table does not grow.
        Labels outside the graph set every bit from |V| up, so the mask is
        negative: no side of a separation of the graph, and so no row or
        member of a tangle, holds those bits."""
        m = self._masks_by_side.get(vs)
        if m is None:
            held = vs & self._bit.keys()
            m = self.mask_of(held) | (-1 << len(self.vertices) if len(held) < len(vs) else 0)
        return m

    def side_of(self, mask):
        """labels_of(mask), as the side table's shared frozenset when it
        holds mask.  The table does not grow."""
        vs = self._sides.get(mask)
        return self.labels_of(mask) if vs is None else vs

    def translator(self, other):
        """The function m -> other.mask_of(self.labels_of(m) & other's
        labels) on vertex masks of self, by vertex index.  Both label
        tuples are sorted, so shared labels keep their relative order and
        fall into few groups by how far their bits move; each group moves
        with one mask and one shift."""
        groups = {}  # d -> the bits of self that move d places down
        for i, v in enumerate(self.vertices):
            if v in other._bit:
                d = i + 1 - other._bit[v].bit_length()
                groups[d] = groups.get(d, 0) | 1 << i
        moves = [(w, max(-d, 0), max(d, 0)) for d, w in groups.items()]

        def move(m):
            out = 0
            for w, up, down in moves:
                out |= (m & w) << up >> down
            return out

        return move

    def full_mask(self):
        return (1 << len(self.vertices)) - 1

    def cover_outside(self, c):
        """The cover mask of the subgraph induced by the vertices outside
        vertex mask c: their bits, and the bits of the edges with no end in
        c.  cover_outside(0) is the cover of the whole graph."""
        inc, touched, m = self._inc, 0, c
        while m:
            low = m & -m
            touched |= inc[low.bit_length() - 1]
            m ^= low
        return self._cover & ~c & ~touched


# -- reduction operations ---------------------------------------------


def delete_edge(g: Graph, e) -> Graph:
    e = _norm_edge(e)
    if e not in g.edges:
        raise GraphError(f"no such edge {e}")
    return Graph(g.vertices, g.edges - {e})


def suppress_vertex(g: Graph, v) -> Graph:
    """Remove a degree-2 vertex and join its neighbours.

    If the neighbours are already adjacent the result is simply g - v
    (simple-graph closure; separations of order < k with k >= 3 are
    unaffected).
    """
    if v not in g:
        raise GraphError(f"no such vertex {v}")
    if g.degree(v) != 2:
        raise GraphError(f"not suppressible: vertex {v} has degree {g.degree(v)}")
    u, w = sorted(g.neighbors(v))
    return Graph(
        (x for x in g.vertices if x != v),
        {e for e in g.edges if v not in e} | {(u, w)},
    )


def components(g: Graph) -> list:
    """Connected induced subgraphs partitioning the vertices.

    Deterministic order: by smallest contained label.
    """
    return [g.induced(vs) for vs in g.component_vertex_sets()]


# -- file formats -------------------------------------------------------


def parse_edgelist(text: str) -> Graph:
    """Edge-list text: one "u v" pair per line; a single integer on a line
    declares an isolated vertex.  Blank lines and '#' comments are skipped.
    """
    vertices = []
    edges = []
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        try:
            nums = [int(p) for p in parts]
        except ValueError:
            raise GraphError(f"line {lineno}: expected integers, got {line!r}")
        if any(n < 0 for n in nums):
            raise GraphError(f"line {lineno}: vertices must be nonnegative")
        if len(nums) == 1:
            vertices.append(nums[0])
        elif len(nums) == 2:
            edges.append((nums[0], nums[1]))
        else:
            raise GraphError(f"line {lineno}: expected 1 or 2 integers")
    return Graph(vertices, edges)


def read_edgelist(path) -> Graph:
    with open(path) as f:
        return parse_edgelist(f.read())


def format_edgelist(g: Graph) -> str:
    lines = [f"{u} {v}" for u, v in g.sorted_edges()]
    covered = {x for e in g.edges for x in e}
    lines.extend(str(v) for v in g.vertices if v not in covered)
    return "\n".join(lines) + ("\n" if lines else "")


def graph6_decode(line: str) -> Graph:
    """Decode one graph6 line (6-bit big-endian upper triangle, offset 63)."""
    data = [ord(c) - 63 for c in line.strip()]
    if any(b < 0 or b > 63 for b in data):
        raise GraphError("invalid graph6 characters")
    if not data:
        raise GraphError("empty graph6 line")
    if data[0] == 63:  # N(n) for 63 <= n <= 258047: '~' then 3 bytes
        if len(data) < 4:
            raise GraphError("truncated graph6 header")
        n = (data[1] << 12) | (data[2] << 6) | data[3]
        body = data[4:]
    else:
        n = data[0]
        body = data[1:]
    nbits = n * (n - 1) // 2
    if len(body) != (nbits + 5) // 6:
        raise GraphError("graph6 body length mismatch")
    bits = []
    for b in body:
        for shift in range(5, -1, -1):
            bits.append((b >> shift) & 1)
    edges = []
    i = 0
    for col in range(1, n):
        for row in range(col):
            if bits[i]:
                edges.append((row, col))
            i += 1
    return Graph(range(n), edges)


def graph6_encode(g: Graph) -> str:
    """Encode with vertices relabelled 0..n-1 in sorted label order."""
    n = len(g.vertices)
    bits = []
    for col in range(1, n):
        for row in range(col):
            u, v = g.vertices[row], g.vertices[col]
            bits.append(1 if g.has_edge(u, v) else 0)
    while len(bits) % 6:
        bits.append(0)
    if n < 63:
        head = [n]
    elif n <= 258047:
        head = [63, (n >> 12) & 63, (n >> 6) & 63, n & 63]
    else:
        raise GraphError("graph too large for graph6 encoder")
    out = head + [
        sum(b << (5 - j) for j, b in enumerate(bits[i : i + 6]))
        for i in range(0, len(bits), 6)
    ]
    return "".join(chr(63 + b) for b in out)


def read_graph6_lines(text: str):
    """Yield (lineno, Graph-or-GraphError) for each nonblank line."""
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line or line.startswith(">>graph6<<"):
            line = line.replace(">>graph6<<", "").strip()
            if not line:
                continue
        try:
            yield lineno, graph6_decode(line)
        except GraphError as err:
            yield lineno, err


# -- small constructions used throughout tests and examples ------------


def complete_graph(n, offset=0) -> Graph:
    vs = range(offset, offset + n)
    return Graph(vs, itertools.combinations(vs, 2))


def path_graph(n, offset=0) -> Graph:
    vs = list(range(offset, offset + n))
    return Graph(vs, zip(vs, vs[1:]))


def cycle_graph(n, offset=0) -> Graph:
    vs = list(range(offset, offset + n))
    return Graph(vs, list(zip(vs, vs[1:])) + [(vs[-1], vs[0])])


def subdivide_edge(g: Graph, e, times=1) -> Graph:
    """Replace edge e by a path through `times` fresh vertices."""
    e = _norm_edge(e)
    if e not in g.edges:
        raise GraphError(f"no such edge {e}")
    if times == 0:
        return g
    nxt = max(g.vertices) + 1
    chain = [e[0]] + list(range(nxt, nxt + times)) + [e[1]]
    return Graph(
        list(g.vertices) + chain[1:-1],
        (g.edges - {e}) | set(zip(chain, chain[1:])),
    )
