"""The covering-triple and maximal-member scans agree with plain oracles."""

import random
import subprocess
import sys

from hypothesis import given, settings
from hypothesis import strategies as st

from tanglekit.graphs import Graph, complete_graph, cycle_graph, path_graph
from tanglekit.separations import OrientedSeparation, enumerate_separations
from tanglekit.tangles import (
    covering_triple,
    full_cover,
    maximal_members,
    side_covers,
)


def oracle_maximal(smalls, bigs):
    n = len(smalls)
    out = []
    for i in range(n):
        dominated = any(
            j != i
            and smalls[i] & ~smalls[j] == 0
            and bigs[j] & ~bigs[i] == 0
            and (smalls[i], bigs[i]) != (smalls[j], bigs[j])
            for j in range(n)
        )
        out.append(not dominated)
    return out


def oracle_triple(covers, target):
    n = len(covers)
    for i in range(n):
        for j in range(i, n):
            for l in range(j, n):
                if (covers[i] | covers[j] | covers[l]) & target == target:
                    return (i, j, l)
    return None


def random_masks(rng, n, nbits):
    return [rng.getrandbits(nbits) for _ in range(n)]


def holed_masks(rng, n, nbits, holes):
    """Masks missing a few bits each, so that some triples cover."""
    full = (1 << nbits) - 1
    return [
        full & ~sum(1 << rng.randrange(nbits) for _ in range(holes))
        for _ in range(n)
    ]


WIDTHS = [1, 8, 63, 64, 65, 127, 128, 129, 200]


@st.composite
def triple_cases(draw):
    nbits = draw(st.sampled_from(WIDTHS))
    full = (1 << nbits) - 1
    bit = st.integers(0, nbits - 1)
    holed = st.lists(bit, max_size=4).map(
        lambda hs: full & ~sum(1 << h for h in set(hs))
    )
    rows = draw(st.lists(st.one_of(st.integers(0, full), holed), max_size=10))
    target = draw(st.one_of(st.just(full), st.integers(0, full)))
    return rows, target


@settings(max_examples=300, deadline=None)
@given(triple_cases())
def test_covering_triple_matches_oracle_property(case):
    rows, target = case
    assert covering_triple(rows, target) == oracle_triple(rows, target)


def test_find_covering_triple_matches_oracle():
    rng = random.Random(13)
    for nbits in (8, 70, 130):
        full = (1 << nbits) - 1
        for _ in range(30):
            n = rng.randrange(1, 12)
            for rows in (random_masks(rng, n, nbits), holed_masks(rng, n, nbits, 3)):
                for target in (full, rng.getrandbits(nbits), rng.getrandbits(nbits) & rows[0]):
                    assert covering_triple(rows, target) == oracle_triple(rows, target)


def test_covering_triple_edge_cases():
    assert covering_triple([], 0) is None
    assert covering_triple([], 0b111) is None
    # nothing to cover: the first row alone does it
    assert covering_triple([0b1, 0b10], 0) == (0, 0, 0)
    # bits outside a partial target do not matter
    assert covering_triple([0b0011, 0b0100], 0b0111) == (0, 0, 1)
    assert covering_triple([0b0011, 0b0100], 0b1111) is None
    # repetition: one row may fill several slots
    assert covering_triple([0b011], 0b011) == (0, 0, 0)
    assert covering_triple([0b001, 0b010, 0b100], 0b111) == (0, 1, 2)
    # only three rows, each holding one bit above 128
    wide = [1 << 129, 1 << 64, 1 << 200]
    assert covering_triple(wide, sum(wide)) == (0, 1, 2)


def _seps_from_masks(g, smalls, bigs):
    return [
        OrientedSeparation(g.labels_of(a), g.labels_of(b)) for a, b in zip(smalls, bigs)
    ]


@st.composite
def side_cases(draw):
    # a few free bits placed near the top of a wide mask, so that
    # containment between rows is common
    n = draw(st.sampled_from([4, 66, 130]))
    shift = n - 4
    pair = st.tuples(st.integers(0, 15), st.integers(0, 15))
    rows = draw(st.lists(pair, max_size=12))
    return n, [a << shift for a, _ in rows], [b << shift for _, b in rows]


def _check_maximal(n, smalls, bigs):
    g = Graph(range(n))
    seps = _seps_from_masks(g, smalls, bigs)
    keep = oracle_maximal(smalls, bigs)
    want = sorted({s for s, k in zip(seps, keep) if k}, key=OrientedSeparation.sort_key)
    assert maximal_members(g, seps) == want


@settings(max_examples=200, deadline=None)
@given(side_cases())
def test_maximal_members_matches_oracle_property(case):
    _check_maximal(*case)


def test_maximal_mask_matches_oracle():
    rng = random.Random(11)
    for nbits in (10, 70, 130):
        for _ in range(20):
            n = rng.randrange(0, 15)
            _check_maximal(nbits, random_masks(rng, n, nbits), random_masks(rng, n, nbits))


def test_cover_masks_layout():
    for g in (complete_graph(5), cycle_graph(7), path_graph(70)):
        n = len(g.vertices)
        edges = g.sorted_edges()
        seps = enumerate_separations(g, 2)
        for s, c in zip(seps, side_covers(g, [g.mask_of(s.small) for s in seps])):
            assert c & g.full_mask() == g.mask_of(s.small)
            inside = {edges[i] for i in range(len(edges)) if c >> (n + i) & 1}
            assert inside == g.edges_within(s.small)
            assert c <= full_cover(g)


def test_import_loads_only_stdlib():
    code = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import tanglekit\n"
        "new = {m.split('.')[0] for m in set(sys.modules) - before}\n"
        "print(sorted(new - set(sys.stdlib_module_names)))\n"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "['tanglekit']"
