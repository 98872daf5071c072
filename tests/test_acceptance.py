"""Acceptance gate: eleven end-to-end checks (criteria 1-5 and 7-12), one
pass/fail line each.

Every criterion computes its verdict against an oracle written locally in
this file (or an exhaustive scan) and prints a single summary line.
"""

import itertools
import math
import random

import networkx as nx
import pytest

from conftest import atlas_graphs, nx_to_graph, reference_is_orientation
from tanglekit.decomposition import (
    bound_chain_refinement,
    bound_linkage_uniformity,
    bound_rc_existence,
    compute_bounds,
)
from tanglekit.graphs import complete_graph, delete_edge, subdivide_edge
from tanglekit.inducing import (
    find_inducing_weights,
    induces_weight,
    verify_p11_batch,
)
from tanglekit.pipeline import (
    format_trace,
    is_witness,
    parse_trace,
    reduce,
    transfer_terminal_weights,
    witness_subgraph,
)
from tanglekit.rainbow_cloud import (
    classify_cross_or_slice,
    classify_crossing,
    clique_tangle,
    choose_edge,
    extend_after_deletion,
    slices_rainbow,
    split_family,
    synth_rc,
    validate_rc,
)
from tanglekit.separations import enumerate_separations
from tanglekit.survival import (
    brute_force_extensions,
    restrict_to_component,
    survive_delete_edge_k1,
    survive_delete_edge_k2,
    survive_delete_pendant_edge,
    survive_edge_deletion_via_supertangle,
    survive_suppress_vertex,
)
from tanglekit.tangles import (
    TangleError,
    enumerate_tangles,
    extends,
    is_tangle,
)


def report(num, name, ok):
    print(f"CRITERION {num:>2}: {'PASS' if ok else 'FAIL'} -- {name}")
    assert ok, f"criterion {num} ({name}) failed"


# -- 1: order-1/order-2 tangle counts match components and blocks ------------------


def test_c01_low_order_tangle_bijections():
    ok = True
    for g in atlas_graphs(7, connected_only=True):
        h = nx.Graph()
        h.add_nodes_from(g.vertices)
        h.add_edges_from(g.edges)
        n_comp = nx.number_connected_components(h)
        n_block = sum(1 for _ in nx.biconnected_components(h))
        if len(enumerate_tangles(g, 1)) != n_comp:
            ok = False
            break
        if len(enumerate_tangles(g, 2)) != n_block:
            ok = False
            break
    report(1, "1-/2-tangle counts equal component/block counts (<= 7 vertices)", ok)


# -- 2: the maximal-member triple scan agrees with the naive one -------------------


def naive_is_tangle(g, k, members):
    """Independent check: full orientation, then all triples with repetition."""
    if not reference_is_orientation(g, k, members):
        return False
    mem = sorted(members, key=lambda s: tuple(sorted(s.small)))
    V, E = g.vertex_set(), set(map(frozenset, g.edges))
    covers = [(s.small, set(map(frozenset, g.edges_within(s.small)))) for s in mem]
    n = len(covers)
    for i in range(n):
        for j in range(i, n):
            vij = covers[i][0] | covers[j][0]
            eij = covers[i][1] | covers[j][1]
            for l in range(j, n):
                if V <= vij | covers[l][0] and E <= eij | covers[l][1]:
                    return False
    return True


def test_c02_triple_scan_oracle_equivalence():
    ok = True
    rng = random.Random(2)
    for g in atlas_graphs(6):
        for k in (1, 2, 3, 4):
            for tau in enumerate_tangles(g, k):
                members = set(tau.members)
                if naive_is_tangle(g, k, members) != is_tangle(g, k, members):
                    ok = False
                flips = sorted(members, key=lambda s: tuple(sorted(s.small)))
                if len(flips) > 12:
                    flips = rng.sample(flips, 12)
                for s in flips:
                    flipped = (members - {s}) | {s.inverse()}
                    if naive_is_tangle(g, k, flipped) != is_tangle(g, k, flipped):
                        ok = False
    report(2, "maximal-member scan equals naive all-triples scan (<= 6 vertices)", ok)


# -- 3: every survival construction matches brute force ----------------------------


def test_c03_survival_constructions_sound():
    ok = True
    checked = 0

    def brute_hit(g, tau, e, t2):
        return any(
            t2.members == o.members for o in brute_force_extensions(g, tau, e)
        )

    for g in atlas_graphs(6):
        if not g.is_connected() and len(g.vertices) > 1:
            for k in (1, 2, 3, 4):
                for tau in enumerate_tangles(g, k):
                    comp, t2 = restrict_to_component(g, tau)
                    ok = ok and is_tangle(comp, k, t2.members)
                    checked += 1
            continue
        for tau in enumerate_tangles(g, 1):
            if not g.edges:
                continue
            e = g.sorted_edges()[0]
            t2 = survive_delete_edge_k1(g, tau, e)
            ok = ok and is_tangle(delete_edge(g, e), 1, t2.members)
            ok = ok and brute_hit(g, tau, e, t2)
            checked += 1
        for tau in enumerate_tangles(g, 2):
            if len(g.edges) >= 2:
                try:
                    e, t2 = survive_delete_edge_k2(g, tau)
                except TangleError:
                    continue
                ok = ok and is_tangle(delete_edge(g, e), 2, t2.members)
                ok = ok and brute_hit(g, tau, e, t2)
                checked += 1
        for k in (3, 4):
            for tau in enumerate_tangles(g, k):
                pend = next((v for v in sorted(g.vertex_set()) if g.degree(v) == 1), None)
                if pend is not None:
                    u = next(iter(g.neighbors(pend)))
                    t2 = survive_delete_pendant_edge(g, tau, pend)
                    g2 = delete_edge(g, (u, pend))
                    ok = ok and is_tangle(g2, k, t2.members)
                    ok = ok and brute_hit(g, tau, (u, pend), t2)
                    checked += 1
                deg2 = next((v for v in sorted(g.vertex_set()) if g.degree(v) == 2), None)
                if deg2 is not None:
                    try:
                        t2 = survive_suppress_vertex(g, tau, deg2)
                    except Exception:
                        continue
                    from tanglekit.graphs import suppress_vertex

                    ok = ok and is_tangle(suppress_vertex(g, deg2), k, t2.members)
                    checked += 1
        for k in (2, 3):
            for tau in enumerate_tangles(g, k):
                found = survive_edge_deletion_via_supertangle(g, tau)
                if found is None:
                    continue
                e, t2 = found
                ok = ok and is_tangle(delete_edge(g, e), k, t2.members)
                ok = ok and extends(tau, t2)
                ok = ok and brute_hit(g, tau, e, t2)
                checked += 1
    ok = ok and checked > 200
    report(3, f"survival constructions sound on {checked} instances (<= 6 vertices)", ok)


# -- 4: the one-subdivided-edge family loses its 3-tangle at any deletion ------------


def test_c04_subdivided_edge_family():
    ok = True
    for L in range(1, 7):
        g = subdivide_edge(complete_graph(4), (0, 1), times=L)
        if len(enumerate_tangles(g, 3)) != 1:
            ok = False
        for e in g.sorted_edges():
            if enumerate_tangles(delete_edge(g, e), 3):
                ok = False
    report(4, "single-subdivided K4: one 3-tangle, none after any deletion (L <= 6)", ok)


# -- 5: lattice laws on every separation pair --------------------------------------


def test_c05_lattice_laws():
    ok = True
    for g in atlas_graphs(5):
        n = len(g.vertices)
        seps = list(enumerate_separations(g, n + 1))
        for s, t in itertools.combinations(seps, 2):
            m, j = s.meet(t), s.join(t)
            if m.order + j.order != s.order + t.order:
                ok = False
            if not (m.le(s) and m.le(t) and s.le(j) and t.le(j)):
                ok = False
        # distributivity over all triples stays tractable up to 4 vertices
        if n <= 4:
            for s, t, u in itertools.combinations(seps, 3):
                lhs = s.meet(t.join(u))
                rhs = s.meet(t).join(s.meet(u))
                if lhs != rhs:
                    ok = False
    report(5, "submodular equality, corner order, distributivity (<= 5 vertices)", ok)


# -- 7: rainbow instance grid --------------------------------------------------------


def rc_grid():
    grid = [
        (M, ell, z)
        for ell in (1, 2)
        for z in (0, 1, 2)
        for M in (8, 10, 12, 14, 16, 18, 20)
    ]
    grid += [(M, 0, z) for z in (1, 2) for M in (8, 9, 10, 11)]
    return grid


def test_c07_rainbow_instance_grid():
    k = 3
    grid = rc_grid()
    ok = len(grid) == 50
    for M, ell, z in grid:
        g, rc, clique = synth_rc(M, ell, z, k)
        flags = validate_rc(g, rc)
        if not all(flags.values()):
            ok = False
            continue
        for s in enumerate_separations(g, k):
            kind = classify_cross_or_slice(rc, s, k)
            info = classify_crossing(rc, s, k)
            if kind == "crossing" and info.direction == "clockwise":
                if not rc.sun <= (s.small & s.big):
                    ok = False
                fam = split_family(rc, s, k)
                hs = sorted(fam)
                if any(fam[h].order > k for h in hs):
                    ok = False
                for a, b in zip(hs, hs[1:]):
                    if not fam[a].le(fam[b]):
                        ok = False
                # the family interpolates between the crossing's two sides
                if hs and not (s.small & s.big) <= (
                    fam[hs[0]].small | fam[hs[0]].big
                ):
                    ok = False
            elif kind == "slicing":
                if not slices_rainbow(rc, s, k):
                    ok = False
    report(7, f"grid of {len(grid)} synthetic instances: decomposition + splits", ok)


# -- 8: end-to-end edge deletion with a surviving tangle ------------------------------


def test_c08_end_to_end_edge_deletion():
    ok = True
    # strict preconditions at order 1: full verification plus brute force
    g, rc, clique = synth_rc(18, 1, 1, k=1)
    tau = clique_tangle(g, clique, 1)
    e, merged = choose_edge(rc, tau)
    out = extend_after_deletion(g, tau, merged, e)
    g2 = delete_edge(g, e)
    ok = ok and is_tangle(g2, 1, out.members) and extends(tau, out)
    ok = ok and any(
        out.members == o.members for o in brute_force_extensions(g, tau, e)
    )
    # relaxed length gate at orders 2 and 3
    for k in (2, 3):
        g, rc, clique = synth_rc(20, 1, 1, k=k)
        tau = clique_tangle(g, clique, k)
        e, merged = choose_edge(rc, tau)
        out = extend_after_deletion(g, tau, merged, e, relaxed=True)
        ok = ok and is_tangle(delete_edge(g, e), k, out.members)
        ok = ok and extends(tau, out)
    report(8, "edge deletion end-to-end (order 1 strict; orders 2-3 relaxed)", ok)


# -- 9: every small 3-tangle is induced by a small vertex set --------------------------


def test_c09_inducing_sets_exhaustive():
    stream = (
        (i, g) for i, g in enumerate(atlas_graphs(6, connected_only=True))
    )
    result = verify_p11_batch(stream, k=3, max_set_size=6)
    s = result["summary"]
    ok = s["failures"] == 0 and s["malformed"] == 0 and s["tangles"] > 0
    ok = ok and s["max_set_size"] <= 6
    report(
        9,
        f"all {s['tangles']} 3-tangles on connected graphs <= 6 vertices induced",
        ok,
    )


# -- 10 and 11: weight transfer and witnesses along every trace -------------------------


@pytest.fixture(scope="module")
def traces_7():
    out = []
    for g in atlas_graphs(7, connected_only=True):
        for tau in enumerate_tangles(g, 3):
            out.append((g, tau, reduce(g, tau)))
    return out


def test_c10_weight_transfer_along_traces(traces_7):
    ok = len(traces_7) > 0
    for g, tau, trace in traces_7:
        w_term = find_inducing_weights(trace.terminal_tangle, budget=7)
        if w_term is None:
            ok = False
            continue
        w = transfer_terminal_weights(trace, w_term)
        if not induces_weight(tau, w):
            ok = False
    report(10, f"terminal weights transfer to the root on {len(traces_7)} traces", ok)


def test_c11_witness_subgraphs_along_traces(traces_7):
    ok = len(traces_7) > 0
    for g, tau, trace in traces_7:
        h = witness_subgraph(trace)
        if not is_witness(g, tau, h):
            ok = False
        if len(h.edges) > len(trace.terminal_graph.edges):
            ok = False
        if not (h.vertex_set() <= g.vertex_set()):
            ok = False
        if not all(g.has_edge(*e) for e in h.edges):
            ok = False
    report(11, f"witness subgraphs verified on {len(traces_7)} traces", ok)


def test_trace_text_round_trip_along_traces(traces_7):
    assert len(traces_7) == 705
    for g, tau, trace in traces_7:
        text = format_trace(trace)
        again = parse_trace(text)
        assert format_trace(again) == text
        assert again.root_tangle.members == tau.members
        assert [s.tangle.members for s in again.steps] == [
            s.tangle.members for s in trace.steps
        ]


# -- 12: closed-form guarantees against independent evaluation ---------------------------


def test_c12_bound_formulas():
    ok = True
    f = math.factorial
    for k in (1, 2, 3, 4):
        for M in (1, 2, 3, 4):
            if bound_chain_refinement(k, M) != 3 * k * 3 ** ((M + 2) ** (k + 1)):
                ok = False
            ell = k
            expect = (M * math.comb(ell, 2) + 1) * f(ell) ** (ell + 1) * f(ell)
            if bound_linkage_uniformity(ell, M) != expect:
                ok = False
            led = compute_bounds(k, M)
            if led.chain_bound != bound_chain_refinement(k, M):
                ok = False
            if led.linkage_bound != expect:
                ok = False
            sym = led.overall
            m1 = bound_linkage_uniformity(k, M + 2)
            if (sym.factor, sym.base, sym.exponent) != (3 * k, 3, (m1 + 2) ** (k + 1)):
                ok = False
    report(12, "refinement/uniformity/existence bounds match big-integer formulas", ok)
