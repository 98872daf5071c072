"""Rule-built tangles against the member loops they replaced.

Every survival, lift, clique and extension construction states membership
as a test R(a, b) on a row's (small, big) vertex-index masks and reads its
tangle off the rows (Tangle._of_rule).  The oracles below are the loops
over enumerate_separations that built the same member sets before, on
label sets; where R defines a tangle, both give the same members.
"""

import random

import pytest

from conftest import atlas_graphs, relabel_rc
from tanglekit.graphs import Graph, delete_edge, path_graph, suppress_vertex
from tanglekit.rainbow_cloud import (
    RainbowError,
    choose_edge,
    clique_tangle,
    extend_after_deletion,
    synth_rc,
)
from tanglekit.separations import OrientedSeparation, enumerate_separations
from tanglekit.survival import (
    divergent_witness,
    forced_orientation,
    orientation_across_edge,
    restrict_to_component,
    survive_delete_pendant_edge,
    survive_suppress_vertex,
    survive_with_divergent_supertangle,
    survive_with_extending_supertangle,
)
from tanglekit.tangles import (
    Tangle,
    TangleError,
    enumerate_tangles,
    lift_subgraph,
    lift_suppression,
    maximal_members,
)


# -- the member loops -------------------------------------------------------------


def loop_restrict(g, tau):
    core1 = g.vertex_set()
    for s in tau.members:
        if s.order == 0:
            core1 &= s.big
    comp, rest = g.induced(core1), g.vertex_set() - core1
    members = []
    for s in enumerate_separations(comp, tau.k):
        padded = OrientedSeparation(s.small | rest, s.big)
        if padded in tau.members:
            members.append(s)
        else:
            assert padded.inverse() in tau.members
    return Tangle(comp, tau.k, members)


def loop_pendant(g, tau, v):
    (u,) = g.neighbors(v)
    members = []
    for s in enumerate_separations(delete_edge(g, (u, v)), tau.k):
        A, B = s.small, s.big
        cands = (s, OrientedSeparation(A - {v}, B | {v}), OrientedSeparation(A | {v}, B - {v}))
        if any(c in tau.members for c in cands):
            members.append(s)
    return Tangle(delete_edge(g, (u, v)), tau.k, members)


def loop_suppress(g, tau, v):
    g2 = suppress_vertex(g, v)
    members = []
    for s in enumerate_separations(g2, tau.k):
        A, B = s.small, s.big
        if (
            OrientedSeparation(A | {v}, B) in tau.members
            or OrientedSeparation(A, B | {v}) in tau.members
        ):
            members.append(s)
    return Tangle(g2, tau.k, members)


def loop_extending(g, tau, tau_tilde, e):
    g2 = delete_edge(g, e)
    members = []
    for s in enumerate_separations(g2, tau.k):
        if s in tau.members or (
            s.inverse() not in tau.members and orientation_across_edge(tau_tilde, s, e)
        ):
            members.append(s)
    return Tangle(g2, tau.k, members)


def loop_divergent(g, tau, tau_tilde):
    ba = divergent_witness(tau, tau_tilde)
    e = sorted(g.edges_within(ba.big - ba.small))[0]
    g2 = delete_edge(g, e)
    members = []
    for s in enumerate_separations(g2, tau.k):
        forced = forced_orientation(tau, s)
        if forced is not None:
            if forced == s:
                members.append(s)
        elif orientation_across_edge(tau_tilde, s, e):
            members.append(s)
    return e, Tangle(g2, tau.k, members)


def loop_lift_subgraph(tau2, g):
    members = []
    for s in enumerate_separations(g, tau2.k):
        V2 = tau2.graph.vertex_set()
        if OrientedSeparation(s.small & V2, s.big & V2) in tau2.members:
            members.append(s)
    return Tangle(g, tau2.k, members)


def loop_lift_suppression(tau2, g, v):
    u1, u2 = sorted(g.neighbors(v))
    members = []
    for s in enumerate_separations(g, tau2.k):
        A, B = s.small, s.big
        A1, B1 = A - {v}, B - {v}
        if (u1 in A and u2 in A) or (u1 in B and u2 in B):
            if OrientedSeparation(A1, B1) in tau2.members:
                members.append(s)
        else:
            ui, uj = (u1, u2) if u1 in A else (u2, u1)
            if (
                OrientedSeparation(A1, B1 | {ui}) in tau2.members
                or OrientedSeparation(A1 | {uj}, B1) in tau2.members
            ):
                members.append(s)
    return Tangle(g, tau2.k, members)


def loop_clique(g, clique, k):
    q = frozenset(clique)
    members = []
    for s in enumerate_separations(g, k):
        if q <= s.big:
            members.append(s)
        elif q <= s.small:
            members.append(s.inverse())
        else:
            raise TangleError("clique split by a small-order separation")
    return Tangle(g, k, members)


def loop_extend(g, tau, rc, e):
    g2 = delete_edge(g, e)
    full, ends = g2.full_mask(), g2.mask_of(e)
    cloud = g2.mask_of(rc.cloud & g2.vertex_set())
    members = []
    for s in enumerate_separations(g2, tau.k):
        forced = forced_orientation(tau, s)
        if forced is not None:
            members.append(forced)
            continue
        small, big = g2.mask_of(s.small), g2.mask_of(s.big)
        comps = g2.components(full & ~(small & big))
        comp_small = next((c for c in comps if c & ends and not c & ~small), None)
        comp_big = next((c for c in comps if c & ends and not c & ~big), None)
        if comp_small is None or comp_big is None:
            raise RainbowError("unforced separation does not isolate the edge ends")
        if bool(comp_small & cloud) == bool(comp_big & cloud):
            raise RainbowError("cloud reachability fails to decide an orientation")
        members.append(s if comp_big & cloud else s.inverse())
    return Tangle(g2, tau.k, members)


def pairwise_maximal(seps):
    """<=-maximal members of a collection by comparing every pair, in
    sort-key order."""
    seps = sorted(set(seps), key=OrientedSeparation.sort_key)
    return [s for s in seps if not any(s.lt(t) for t in seps)]


def scan_divergent_witness(tau, tau_tilde):
    """The first maximal member (B, A) of tau_tilde with (A, B) in tau."""
    distinguishing = [
        t for t in tau_tilde.members if t.order < tau.k and t.inverse() in tau.members
    ]
    if not distinguishing:
        raise TangleError("tangles do not diverge")
    return pairwise_maximal(distinguishing)[0]


# -- the differential tests -----------------------------------------------------------


def same_members(built, oracle):
    assert built.members == oracle.members


def relabelled_atlas_sample():
    """A seeded sample of the atlas graphs with <= 6 vertices, each vertex v
    renamed 10 * pi(v) + 3 for a random permutation pi: no label is its
    bit index, and labels are not consecutive."""
    rng = random.Random(16)
    out = []
    for g in rng.sample(atlas_graphs(6), 100):
        perm = rng.sample(range(len(g.vertices)), len(g.vertices))
        name = {v: 10 * p + 3 for v, p in zip(g.vertices, perm)}
        out.append(Graph(name.values(), [(name[a], name[b]) for a, b in g.edges]))
    return out


def check_survival_rules(graphs):
    """Restriction, pendant deletion, suppression and both supertangle rules
    against their member loops on every tangle of order 1 to 3 of graphs;
    returns how often each rule was checked."""
    counts = dict.fromkeys(["restrict", "pendant", "suppress", "extending", "divergent"], 0)
    for g in graphs:
        for k in (1, 2, 3):
            for tau in enumerate_tangles(g, k):
                if not g.is_connected() and len(g.vertices) > 1:
                    same_members(restrict_to_component(g, tau)[1], loop_restrict(g, tau))
                    counts["restrict"] += 1
                for v in g.vertices if k >= 3 else ():
                    if g.degree(v) == 1:
                        same_members(survive_delete_pendant_edge(g, tau, v), loop_pendant(g, tau, v))
                        counts["pendant"] += 1
                    elif g.degree(v) == 2:
                        same_members(survive_suppress_vertex(g, tau, v), loop_suppress(g, tau, v))
                        counts["suppress"] += 1
                for tt in enumerate_tangles(g, k + 1) if k >= 2 else ():
                    if tau.members <= tt.members:
                        for e in g.sorted_edges():
                            built = survive_with_extending_supertangle(g, tau, tt, e)
                            same_members(built, loop_extending(g, tau, tt, e))
                            counts["extending"] += 1
                    else:
                        e, built = survive_with_divergent_supertangle(g, tau, tt)
                        e2, oracle = loop_divergent(g, tau, tt)
                        assert e == e2
                        same_members(built, oracle)
                        counts["divergent"] += 1
    return counts


def check_lifts(graphs):
    """lift_subgraph from g - e at orders 1 to 3, and lift_suppression from
    every suppression at order 3, against their member loops; returns the
    number of suppression lifts checked."""
    lifts = 0
    for g in graphs:
        for e in g.sorted_edges():
            for k in (1, 2, 3):
                for t2 in enumerate_tangles(delete_edge(g, e), k):
                    same_members(lift_subgraph(t2, g), loop_lift_subgraph(t2, g))
        for v in g.vertices:
            if g.degree(v) != 2:
                continue
            for t2 in enumerate_tangles(suppress_vertex(g, v), 3):
                same_members(lift_suppression(t2, g, v), loop_lift_suppression(t2, g, v))
                lifts += 1
    return lifts


def test_survival_rules_match_member_loops(medium_graphs):
    """check_survival_rules on the atlas graphs with <= 6 vertices."""
    counts = check_survival_rules(medium_graphs)
    assert min(counts.values()) >= 20, counts


def test_survival_rules_match_member_loops_relabelled():
    """The same on relabelled atlas graphs, where a rule that took a label
    for its bit index, or moved masks between graphs by index, would fail."""
    counts = check_survival_rules(relabelled_atlas_sample())
    assert min(counts.values()) >= 5, counts


def test_lifts_match_member_loops(medium_graphs):
    """check_lifts on the atlas graphs with <= 6 vertices."""
    assert check_lifts(medium_graphs) >= 20


def test_lifts_match_member_loops_relabelled():
    assert check_lifts(relabelled_atlas_sample()) >= 10


@pytest.mark.parametrize("M, ell, z, k, relaxed", [
    (18, 1, 1, 1, False), (18, 2, 0, 1, False), (20, 1, 1, 2, True), (18, 1, 1, 3, True),
])
def test_clique_and_extension_match_member_loops(M, ell, z, k, relaxed):
    g, rc, clique = synth_rc(M, ell, z, k)
    vs = sorted(g.vertices)
    g, rc, clique = relabel_rc(g, rc, clique, dict(zip(vs, reversed(vs))))
    tau = clique_tangle(g, clique, k)
    same_members(tau, loop_clique(g, clique, k))
    e, merged = choose_edge(rc, tau)
    built = extend_after_deletion(g, tau, merged, e, relaxed=relaxed)
    same_members(built, loop_extend(g, tau, merged, e))


def test_rule_must_pass_one_component_per_separator():
    g = path_graph(3)  # G - {1} has the components {0} and {2}
    with pytest.raises(TangleError, match=r"rule passes 2 components of G - \[1\]"):
        Tangle._of_rule(g, 2, lambda a, b: True)
    with pytest.raises(TangleError, match=r"rule passes 0 components of G - \[\]"):
        Tangle._of_rule(g, 2, lambda a, b: False)
    # at order 1 the only separator is the empty one, and G is connected
    assert Tangle._of_rule(g, 1, lambda a, b: True).members == enumerate_tangles(g, 1)[0].members


def test_divergent_witness_matches_member_scan(medium_graphs):
    """divergent_witness reads the maximal rows where the two maps differ;
    the member scan takes the sort-key least maximal distinguishing member.
    Every pair of a k-tangle and a (k + 1)-tangle of the atlas graphs with
    <= 6 vertices at k = 1 to 3, and maximal_members of each k-tangle.  The
    last graph, a K4 with a pendant vertex beside a K2, has at k = 2 four
    maximal distinguishing members, and the sort-key least of them does not
    have the largest small side."""
    checked = {"diverge": 0, "refine": 0}
    k4_pendant = Graph(range(7), [(0, 1), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4), (3, 4), (5, 6)])
    for g in medium_graphs + [k4_pendant]:
        for k in (1, 2, 3):
            supers = enumerate_tangles(g, k + 1)
            for tau in enumerate_tangles(g, k):
                assert maximal_members(g, tau.members) == pairwise_maximal(tau.members)
                assert tau.maximal_members() == pairwise_maximal(tau.members)
                for tt in supers:
                    try:
                        want = scan_divergent_witness(tau, tt)
                    except TangleError:
                        with pytest.raises(TangleError, match="do not diverge"):
                            divergent_witness(tau, tt)
                        checked["refine"] += 1
                        continue
                    assert divergent_witness(tau, tt) == want
                    checked["diverge"] += 1
    assert min(checked.values()) >= 20, checked
