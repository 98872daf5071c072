"""Rainbow-cloud decompositions: validation, crossing/slicing, edge survival."""

import functools
import itertools
from collections import Counter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import apply_line_edits, refuse_separation_lists, relabel_rc, synth_rc_instances
from tanglekit.cli import main
from tanglekit.graphs import Graph, GraphError, delete_edge, format_edgelist
from tanglekit.separations import (
    OrientedSeparation,
    enumerate_separations,
    sep,
    separator_components,
)
from tanglekit.tangles import Tangle, TangleError, enumerate_tangles, extends, is_tangle
from tanglekit.survival import brute_force_extensions
from tanglekit.rainbow_cloud import (
    CrossingInfo,
    LivingVerdict,
    RainbowError,
    RCDecomposition,
    choose_edge,
    classify_cross_or_slice,
    classify_crossing,
    clique_tangle,
    extend_after_deletion,
    format_rc,
    is_rc_decomposition,
    lives_in_rainbow,
    parse_rc,
    rainbow_separation,
    shorten_to_not_living,
    slice_rc,
    slices_rainbow,
    split_crossing,
    split_family,
    synth_rc,
    validate_rc,
)

SMALL_GRID = [(8, 1, 0), (8, 1, 1), (8, 2, 1), (10, 2, 2), (8, 0, 1), (6, 0, 2)]


# -- construction and validation ------------------------------------------------


def test_synth_instances_validate():
    for M, ell, z in SMALL_GRID:
        g, rc, clique = synth_rc(M, ell, z)
        report = validate_rc(g, rc)
        assert all(report.values()), (M, ell, z, report)
        assert rc.length == M
        assert rc.adhesion == (ell if ell else 0)
        assert len(rc.sun) == z
        assert rc.sun <= rc.cloud


def test_synth_rejects_empty_interface():
    with pytest.raises(RainbowError):
        synth_rc(6, 0, 0)
    with pytest.raises(RainbowError):
        synth_rc(0, 1, 1)


@pytest.mark.parametrize(
    "args, message",
    [((3, -1, 0), "adhesion -1"), ((3, 1, -1), "sun size -1"), ((3, 1, 1, 0), "order")],
)
def test_synth_rejects_negative_sizes(args, message):
    with pytest.raises(RainbowError, match=message):
        synth_rc(*args)


def test_validator_flags_missing_sun_adjacency():
    g, rc, _ = synth_rc(8, 1, 1)
    z = min(rc.sun)
    mid_bag = rc.bags[4]
    g2 = Graph(
        g.vertices,
        [e for e in g.edges if not (z in e and (set(e) - {z}) <= mid_bag)],
    )
    report = validate_rc(g2, rc)
    assert not report["sun_adjacency"]


def test_validator_flags_uncovered_edge():
    g, rc, _ = synth_rc(8, 1, 1)
    inner = sorted(rc.bags[4] - rc.bags[3])[0]
    far = sorted(rc.cloud - rc.rainbow_vertices() - rc.sun)[0]
    g2 = g.plus_edge(inner, far)
    assert not validate_rc(g2, rc)["cover"]


def test_validator_checks_the_rainbow_on_the_given_graph():
    """Edge (4, 5) of bag 4 is the rainbow's own: without it bag 4's part
    falls apart on g2, though not on rc.graph."""
    g, rc, _ = synth_rc(8, 1, 1)
    assert rc.bags[4] == {4, 5}
    report = validate_rc(delete_edge(g, (4, 5)), rc)
    assert not report["rainbow"]
    assert all(v for name, v in report.items() if name != "rainbow")
    # a rainbow vertex missing from the graph is a broken rainbow, not an error
    assert not validate_rc(g.induced(g.vertex_set() - {5}), rc)["rainbow"]


def test_validator_flags_overlapping_end_sets():
    g, rc, _ = synth_rc(8, 2, 1)
    # pull an inner vertex into the cloud: overlap clause breaks
    inner = sorted(rc.bags[4] - rc.bags[3])[0]
    bad = RCDecomposition(g, rc.bags, rc.sun, rc.cloud | {inner})
    assert not validate_rc(g, bad)["overlap"]


def test_overlap_sets_and_bag_union():
    g, rc, _ = synth_rc(8, 2, 1)
    assert rc.overlap_set(0) == rc.bags[0] & rc.cloud
    assert rc.overlap_set(rc.length + 1) == rc.bags[-1] & rc.cloud
    for i in range(1, rc.length + 1):
        assert rc.overlap_set(i) == rc.bags[i - 1] & rc.bags[i]
        assert len(rc.overlap_set(i)) == rc.adhesion
    assert rc.bag_union(2, 4) == rc.bags[2] | rc.bags[3] | rc.bags[4]
    assert rc.bag_union(3, 2) == frozenset()


# -- slices and rainbow separations ----------------------------------------------


def test_slice_rc_identity_and_composition():
    g, rc, _ = synth_rc(10, 1, 1)
    assert slice_rc(rc, 0, rc.length) == rc
    once = slice_rc(slice_rc(rc, 1, 9), 1, 7)
    direct = slice_rc(rc, 2, 8)
    assert once == direct
    assert is_rc_decomposition(g, direct)
    with pytest.raises(RainbowError):
        slice_rc(rc, 4, 2)


def test_rainbow_separation_order_and_validity():
    g, rc, _ = synth_rc(8, 2, 1)
    expected_order = 2 * rc.adhesion + len(rc.sun)
    for i, j in [(2, 5), (3, 3), (1, 6)]:
        s = rainbow_separation(rc, i, j)
        assert s.order == expected_order
        assert s.small | s.big == g.vertex_set()
        # no edge between the strict sides
        for u, v in g.edges:
            assert not (
                {u, v} & (s.small - s.big) and {u, v} & (s.big - s.small)
            )


def test_rainbow_separation_at_the_ends_has_lower_order():
    g, rc, _ = synth_rc(8, 2, 1)
    s = rainbow_separation(rc, 0, 4)
    # the left end leans on the cloud, so only one adhesion set counts
    assert s.order <= 2 * rc.adhesion + len(rc.sun)


# -- crossing --------------------------------------------------------------------


def test_classify_crossing_directions():
    g, rc, _ = synth_rc(16, 1, 0)
    k = 3
    mid = rainbow_separation(rc, 0, 7)
    # early bags strictly inside the small side: clockwise
    info = classify_crossing(rc, mid, k)
    assert info.direction == "clockwise"
    assert info.i_min is not None and info.j_max is not None
    bwd = classify_crossing(rc, mid.inverse(), k)
    assert bwd.direction == "counterclockwise"


def test_classify_crossing_rejects_separator_without_sun():
    g, rc, _ = synth_rc(16, 1, 1)
    mid = rainbow_separation(rc, 0, 7)
    assert rc.sun <= mid.separator
    missing = sep(mid.small, mid.big - rc.sun)
    for s in (missing, missing.inverse()):
        with pytest.raises(RainbowError, match="misses the sun"):
            classify_crossing(rc, s, 3)


def test_split_family_is_increasing_and_bounded():
    g, rc, _ = synth_rc(16, 1, 0)
    k = 3
    s = rainbow_separation(rc, 0, 7)
    fam = split_family(rc, s, k)
    hs = sorted(fam)
    assert hs == list(range(min(hs), max(hs) + 1))
    for h in hs:
        assert fam[h].order <= k
    for a, b in zip(hs, hs[1:]):
        assert fam[a].le(fam[b])


def test_split_crossing_rejects_bad_index():
    g, rc, _ = synth_rc(16, 1, 0)
    s = rainbow_separation(rc, 0, 7)
    info = classify_crossing(rc, s, 3)
    with pytest.raises(RainbowError):
        split_crossing(rc, s, info.i_min, 3)
    with pytest.raises(RainbowError):
        split_crossing(rc, s.inverse(), info.i_min + 1, 3)


def test_dichotomy_every_separation_classified():
    counts = {"crossing": 0, "slicing": 0, "neither": 0}
    g, rc, _ = synth_rc(16, 1, 0)
    k = 3
    for s in enumerate_separations(g, k + 1):
        kind = classify_cross_or_slice(rc, s, k)
        counts[kind] += 1
        if kind == "neither":
            # no early or late bag is strictly inside either side
            outside = {  # the bags meeting both sides: inside neither strict side
                i
                for i, bag in enumerate(rc.bags)
                if not bag.isdisjoint(s.small) and not bag.isdisjoint(s.big)
            }
            window = list(range(0, 2 * k + 1)) + list(
                range(rc.length - 2 * k, rc.length + 1)
            )
            a, b = s.small - s.big, s.big - s.small
            strict_early_late = [
                i
                for i in window
                if rc.bags[i] <= a or rc.bags[i] <= b
            ]
            assert strict_early_late == [i for i in window if i not in outside]
            one_side = all(rc.bags[i] <= a for i in strict_early_late) or all(
                rc.bags[i] <= b for i in strict_early_late
            )
            assert one_side or not strict_early_late
    assert counts["crossing"] > 0 and counts["slicing"] > 0


def test_slices_rainbow_needs_a_middle_bag_on_the_other_side():
    g, rc, _ = synth_rc(16, 1, 0)
    k = 3
    # a three-bag window in the middle slices: its strict inside is bag 8
    s = rainbow_separation(rc, 7, 9)
    assert slices_rainbow(rc, s, k)
    # an end-anchored separation does not slice
    t = rainbow_separation(rc, 0, 7)
    assert not slices_rainbow(rc, t, k)


# -- references: strict sides, splits and slices rebuilt for every use ------------


def ref_clockwise_indices(rc, s, k):
    M = rc.length
    a_strict = s.small - s.big
    b_strict = s.big - s.small
    i_min = next(
        (i for i in range(0, min(2 * k, M) + 1) if rc.bags[i] <= a_strict), None
    )
    j_max = next(
        (j for j in range(M, max(M - 2 * k, 0) - 1, -1) if rc.bags[j] <= b_strict),
        None,
    )
    if i_min is None or j_max is None:
        return None
    return i_min, j_max


def ref_classify_crossing(rc, s, k):
    fwd = ref_clockwise_indices(rc, s, k)
    bwd = None if fwd is not None else ref_clockwise_indices(rc, s.inverse(), k)
    if fwd is None and bwd is None:
        return CrossingInfo("none")
    if not rc.sun <= s.small & s.big:
        raise RainbowError("crossing separator misses the sun")
    if fwd is not None:
        return CrossingInfo("clockwise", *fwd)
    return CrossingInfo("counterclockwise", *bwd)


def ref_splits(rc, s, i, j, hs):
    """Each split's sides as two fresh unions of up to M bags."""
    outer = rc.cloud | rc.bag_union(0, i - 1) | rc.bag_union(j + 1, rc.length)
    small, big = (s.small & outer) | rc.sun, (s.big & outer) | rc.sun
    return {h: sep(small | rc.bag_union(i, h - 1), rc.bag_union(h, j) | big) for h in hs}


def ref_split_family(rc, s, k):
    info = ref_classify_crossing(rc, s, k)
    assert info.direction == "clockwise"
    return ref_splits(rc, s, info.i_min, info.j_max, range(info.i_min + 1, info.j_max + 1))


def ref_slices_rainbow(rc, s, k):
    M = rc.length
    for a_strict, b_strict in (
        (s.small - s.big, s.big - s.small),
        (s.big - s.small, s.small - s.big),
    ):
        early = [i for i in range(0, min(2 * k, M) + 1) if rc.bags[i] <= a_strict]
        late = [j for j in range(max(M - 2 * k, 0), M + 1) if rc.bags[j] <= a_strict]
        if not early or not late:
            continue
        i, j = min(early), max(late)
        if any(rc.bags[h] <= b_strict for h in range(i + 1, j)):
            return True
    return False


def ref_classify_cross_or_slice(rc, s, k):
    if ref_classify_crossing(rc, s, k):
        return "crossing"
    if ref_slices_rainbow(rc, s, k):
        return "slicing"
    return "neither"


def assert_matches_reference(rc, s, k):
    info = classify_crossing(rc, s, k)
    assert info == ref_classify_crossing(rc, s, k)
    assert classify_cross_or_slice(rc, s, k) == ref_classify_cross_or_slice(rc, s, k)
    assert slices_rainbow(rc, s, k) == ref_slices_rainbow(rc, s, k)
    if info.direction != "clockwise":
        with pytest.raises(RainbowError):
            split_family(rc, s, k)
        return
    fam = split_family(rc, s, k)
    ref = ref_split_family(rc, s, k)
    assert fam == ref and list(fam) == list(ref)
    for h in range(info.i_min - 1, info.j_max + 2):
        if h in ref:
            assert split_crossing(rc, s, h, k) == ref[h]
        else:
            with pytest.raises(RainbowError, match="out of range"):
                split_crossing(rc, s, h, k)


@settings(max_examples=30, deadline=None)
@given(synth_rc_instances(), st.sampled_from((2, 3)))
def test_crossings_splits_and_slices_match_reference(instance, k):
    g, rc, _ = instance
    for s in enumerate_separations(g, k):
        assert_matches_reference(rc, s, k)


def test_classifiers_match_reference_across_orders():
    """One decomposition classified at k = 2, then 3, then 2 again: the end
    windows and crossing infos it keeps per order answer for that order."""
    g, rc, _ = synth_rc(12, 1, 1)
    seps = enumerate_separations(g, 4)
    answers = {}
    for k in (2, 3, 2):
        got = [(classify_cross_or_slice(rc, s, k), classify_crossing(rc, s, k)) for s in seps]
        assert answers.setdefault(k, got) == got
        for s in seps:
            assert_matches_reference(rc, s, k)
    assert answers[2] != answers[3]
    assert set(rc._window_memo) == {2, 3}
    infos = [info for info in rc._crossing_infos.values()]
    assert len(infos) == len(set(infos))
    s = rainbow_separation(rc, 0, 5)
    assert classify_crossing(rc, s, 3) is classify_crossing(rc, sep(set(s.small), set(s.big)), 3)


def test_classifier_error_paths_survive_the_memos():
    """A crossing that misses the sun, a side with an unknown label and a
    split of a separation that does not cross clockwise raise as before,
    also once the decomposition's memos are filled."""
    g, rc, clique = synth_rc(16, 1, 0)
    stray = RCDecomposition(g, rc.bags, {min(clique)}, rc.cloud)
    seps = enumerate_separations(g, 3)
    misses = [s for s in seps if ref_clockwise_indices(stray, s, 3) is not None
              and min(clique) not in s.separator]
    assert misses
    g1, rc1, _ = synth_rc(16, 1, 1)
    s1 = rainbow_separation(rc1, 0, 7)
    unknown = [sep(s1.small, s1.big | {1000}), sep(s1.small | {1000}, s1.big)]
    seps1 = enumerate_separations(g1, 4)
    kinds = Counter(ref_classify_crossing(rc1, s, 3).direction for s in seps1)
    assert min(kinds.values()) > 0 and len(kinds) == 3
    for _ in range(2):  # the second round runs on filled memos
        for s in misses:
            for classify in (classify_crossing, classify_cross_or_slice, split_family):
                with pytest.raises(RainbowError, match="misses the sun"):
                    classify(stray, s, 3)
        for s in unknown:
            for classify in (classify_crossing, slices_rainbow, classify_cross_or_slice,
                             split_family):
                with pytest.raises(RainbowError, match=r"outside the graph: \[1000\]"):
                    classify(rc1, s, 3)
        for s in seps1:
            if ref_classify_crossing(rc1, s, 3).direction != "clockwise":
                with pytest.raises(RainbowError, match="does not cross clockwise"):
                    split_family(rc1, s, 3)
                with pytest.raises(RainbowError, match="does not cross clockwise"):
                    split_crossing(rc1, s, 1, 3)
            else:
                assert split_family(rc1, s, 3) == ref_split_family(rc1, s, 3)


def test_split_family_of_a_touching_crossing_is_empty():
    # on a length-1 rainbow a crossing can have i_min >= j_max
    g, rc, _ = synth_rc(1, 0, 1)
    k = 2
    empty = []
    for s in enumerate_separations(g, k):
        assert_matches_reference(rc, s, k)
        info = classify_crossing(rc, s, k)
        if info.direction == "clockwise" and info.i_min >= info.j_max:
            empty.append(s)
    assert empty
    for s in empty:
        assert split_family(rc, s, k) == {} == ref_split_family(rc, s, k)


def test_longer_rainbow_matches_reference():
    g, rc, _ = synth_rc(12, 1, 0)
    for s in enumerate_separations(g, 3):
        assert_matches_reference(rc, s, 3)


def test_family_memo_matches_reference_under_relabelling():
    # ell = 0: many crossings share a window and their sides outside it
    g, rc, clique = synth_rc(8, 0, 1)
    vs = sorted(g.vertices)
    g, rc, _ = relabel_rc(g, rc, clique, dict(zip(vs, [3 * v + 1 for v in reversed(vs)])))
    k = 3
    crossings = 0
    for s in enumerate_separations(g, k):
        info = classify_crossing(rc, s, k)
        assert info == ref_classify_crossing(rc, s, k)
        assert classify_cross_or_slice(rc, s, k) == ref_classify_cross_or_slice(rc, s, k)
        assert slices_rainbow(rc, s, k) == ref_slices_rainbow(rc, s, k)
        if info.direction == "clockwise":
            crossings += 1
            ref = ref_split_family(rc, s, k)
            assert list(split_family(rc, s, k).items()) == list(ref.items())
            for h in list(ref)[-1:]:
                assert split_crossing(rc, s, h, k) == ref[h]
    assert len(rc._families) * 5 < crossings


def test_mutating_a_family_leaves_the_memo_alone():
    g, rc, _ = synth_rc(16, 1, 0)
    s = rainbow_separation(rc, 0, 7)
    fam = split_family(rc, s, 3)
    want = dict(fam)
    h = min(fam)
    fam[h] = fam.pop(max(fam))
    fam[-1] = s
    assert split_family(rc, s, 3) == want
    assert split_crossing(rc, s, h, 3) == want[h]


def test_side_table_is_shared_across_orders_and_never_grown_by_lookups():
    g, rc, clique = synth_rc(8, 1, 1)
    by_side = {}
    for k in (3, 4):
        for s in enumerate_separations(g, k):
            for side in (s.small, s.big):
                assert by_side.setdefault(side, side) is side
    table = dict(g._sides)
    assert table == {g.mask_of(side): side for side in by_side}
    tau = clique_tangle(g, clique, 3)
    for s in enumerate_separations(g, 4):
        fresh = sep(set(s.small), set(s.big))
        assert fresh.small is not s.small
        classify_cross_or_slice(rc, fresh, 3)
        assert (fresh in tau) == (s in tau)
        if classify_crossing(rc, fresh, 3).direction == "clockwise":
            split_family(rc, fresh, 3)
    assert g._sides == table and len(g._masks_by_side) == len(table)


@pytest.mark.parametrize(
    "classify",
    [
        classify_crossing,
        slices_rainbow,
        classify_cross_or_slice,
        split_family,
        lambda rc, s, k: split_crossing(rc, s, 1, k),
    ],
    ids=["classify_crossing", "slices_rainbow", "classify_cross_or_slice",
         "split_family", "split_crossing"],
)
def test_classifiers_refuse_vertices_outside_the_graph(classify):
    g, rc, _ = synth_rc(8, 1, 1)
    s = rainbow_separation(rc, 0, 3)
    bad = sep(s.small | {1001, 1000}, s.big)
    with pytest.raises(RainbowError, match=r"outside the graph: \[1000, 1001\]"):
        classify(rc, bad, 3)


# -- living, shortening, edge choice -----------------------------------------------


def test_clique_tangle_is_a_tangle_and_stays_out():
    g, rc, clique = synth_rc(8, 1, 1)
    tau = clique_tangle(g, clique, 3)
    assert is_tangle(g, 3, tau.members)
    assert lives_in_rainbow(rc, tau).kind == "no"


def test_clique_tangle_rejects_small_or_broken_cliques():
    g, rc, clique = synth_rc(8, 1, 1)
    with pytest.raises(TangleError):
        clique_tangle(g, sorted(clique)[:3], 3)
    q = sorted(clique)[:6] + [5]  # an inner rainbow vertex, not adjacent
    with pytest.raises(TangleError):
        clique_tangle(g, q, 3)


def test_clique_tangle_refuses_a_negative_order(tmp_path, capsys):
    g, rc, clique = synth_rc(18, 1, 1, 1)
    with pytest.raises(GraphError, match="negative tangle order -1"):
        clique_tangle(g, clique, -1)
    graph, rc_file = tmp_path / "rc.edges", tmp_path / "rc.txt"
    assert main(["rc", "synth", "--length", "18", "--adhesion", "1", "--sun", "1", "--k", "1",
                 "--graph-out", str(graph), "--rc-out", str(rc_file)]) == 0
    capsys.readouterr()
    assert main(["rc", "extend", "--graph", str(graph), "--rc", str(rc_file),
                 "--k", "-1", "--relaxed"]) == 2
    out, err = capsys.readouterr()
    assert "verified" not in out and err.startswith("error: negative tangle order -1")


def test_lives_in_rainbow_region_verdict():
    g, rc, clique = synth_rc(8, 0, 1)
    # a tangle pointing at one triangle of the rainbow: 2-tangle of its block
    tri = rc.bags[4]
    members = [s for s in enumerate_separations(g, 2) if tri <= s.big]
    tau = Tangle(g, 2, members)
    verdict = lives_in_rainbow(rc, tau)
    assert verdict.kind == "region"
    assert verdict.witness.big - verdict.witness.small <= (
        rc.rainbow_vertices() - rc.cloud
    )


def test_lives_in_rainbow_refuses_a_tangle_of_other_vertices():
    g, rc, clique = synth_rc(8, 1, 1)
    vs = sorted(g.vertices)
    h, _, image = relabel_rc(g, rc, clique, {v: v + 100 for v in vs})
    with pytest.raises(RainbowError, match="different vertices"):
        lives_in_rainbow(rc, clique_tangle(h, image, 3))


def ref_lives_in_rainbow(rc, tau, lists=None):
    """lives_in_rainbow as a scan over the listed members in sort-key order:
    the first maximal one whose big strict side lies in the rainbow away
    from the cloud, else the first that crosses clockwise with a split
    oriented forward and the next one backward.  lists, when given, keeps
    each (graph, k)'s separation list for the caller's later scans."""
    k, lists = tau.k, {} if lists is None else lists
    key = (tau.graph, k)
    if key not in lists:
        lists[key] = enumerate_separations(tau.graph, k)
    members = [s for s in lists[key] if s in tau]
    free = rc.rainbow_vertices() - rc.cloud
    for s in members:
        if s.big - s.small <= free and not any(s.lt(t) for t in members):
            return LivingVerdict("region", witness=s)
    for s in members:
        if classify_crossing(rc, s, k).direction == "clockwise":
            fam = split_family(rc, s, k)
            for h in sorted(fam):
                if h + 1 in fam and fam[h] in tau and fam[h + 1].inverse() in tau:
                    return LivingVerdict("flip", witness=s, turning_point=h)
    return LivingVerdict("no")


def living_verdict(find, rc, tau):
    """find(rc, tau), or the type and message of the RainbowError it raises."""
    try:
        return find(rc, tau)
    except RainbowError as e:
        return type(e), str(e)


def flip_instance(h):
    """A rainbow-cloud decomposition (M = 24) whose clique 3-tangle flips at
    bag h, with the clique.

    The rainbow is the path 0..25, bag i = {i, i + 1}.  The clique Q =
    26..32 is joined to h, h + 1 and the sun 33, and joins bag h.  The sun
    sees all of 0..32; the cloud pieces 34 and 35 each join one end of the
    path and the sun.  The pieces meet only at the sun, so {h, 33}, of
    order 2, crosses the rainbow; but cutting bag h out takes {h, h + 1,
    33}, of order 3 = k, so the region scan finds nothing.  (synth_rc joins
    its cloud to both ends, so its tangles never flip.)
    """
    q = range(26, 33)
    edges = [(i, i + 1) for i in range(25)] + list(itertools.combinations(q, 2))
    edges += [(a, w) for a in q for w in (h, h + 1)]
    edges += [(33, v) for v in range(33)] + [(34, 0), (34, 33), (35, 25), (35, 33)]
    g = Graph(range(36), edges)
    bags = [{i, i + 1} | (set(q) if i == h else set()) for i in range(25)]
    return RCDecomposition(g, bags, {33}, {0, 25, 33, 34, 35}), frozenset(q)


def living_cases():
    """The tangles the tests here build on synth_rc graphs and the clique
    tangle of flip_instance(12), with their decomposition and three slices
    of it; and the clique tangle of synth_rc(16, 1, 0) under a
    decomposition whose sun is a clique vertex, which the crossing members
    miss."""
    cases = []
    for shape, k in [((8, 1, 1, 3), 3), ((20, 1, 1, 3), 1), ((18, 1, 1, 1), 1),
                     ((18, 2, 0, 1), 1), ((20, 1, 1, 2), 2)]:
        g, rc, clique = synth_rc(*shape)
        cases.append((rc, clique_tangle(g, clique, k)))
    rc, q = flip_instance(12)
    cases.append((rc, clique_tangle(rc.graph, q, 3)))
    for M, h in [(8, 4), (14, 7)]:
        g, rc, _ = synth_rc(M, 0, 1)
        tri = rc.bags[h]
        cases.append((rc, Tangle(g, 2, [s for s in enumerate_separations(g, 2) if tri <= s.big])))
    cases = [(r, tau) for rc, tau in cases for r in (
        rc, slice_rc(rc, 0, rc.length // 2), slice_rc(rc, 1, rc.length - 1),
        slice_rc(rc, rc.length // 2, rc.length))]
    g, rc, clique = synth_rc(16, 1, 0)
    stray = RCDecomposition(g, rc.bags, {min(clique)}, rc.cloud)
    return cases + [(stray, clique_tangle(g, clique, 3))]


def whole_rainbow_cases(graphs):
    """Every tangle of order 1 to 3 of graphs, under a decomposition whose
    one bag is the whole graph and whose cloud is empty: every maximal
    member qualifies for the region scan, so its witness is the sort-key
    least maximal member."""
    return [(RCDecomposition(g, [g.vertices], (), ()), tau)
            for g in graphs for k in (1, 2, 3) for tau in enumerate_tangles(g, k)]


def test_lives_in_rainbow_matches_a_list_scan(small_graphs):
    seen, ref = [], functools.partial(ref_lives_in_rainbow, lists={})
    for rc, tau in living_cases() + whole_rainbow_cases(small_graphs):
        want = living_verdict(ref, rc, tau)
        assert living_verdict(lives_in_rainbow, rc, tau) == want
        seen.append(want[0] if isinstance(want, tuple) else want.kind)
    assert Counter(seen) == {"no": 22, "region": 8 + 178, "flip": 2, RainbowError: 1}


def test_flip_instance_pins_verdict_shortening_and_edge():
    rc, q = flip_instance(12)
    g = rc.graph
    tau = clique_tangle(g, q, 3)
    assert all(validate_rc(g, rc).values())
    verdict = lives_in_rainbow(rc, tau)
    assert (verdict.kind, verdict.turning_point) == ("flip", 12)
    assert verdict.witness == sep({*range(13), 33, 34}, {*range(12, 34), 35})
    points = []  # per clockwise member: the first split in tau whose next is not
    for s in enumerate_separations(g, 3):
        if s in tau and classify_crossing(rc, s, 3).direction == "clockwise":
            fam = split_family(rc, s, 3)
            points.append(next((h for h in sorted(fam) if h + 1 in fam and fam[h] in tau
                                and fam[h + 1].inverse() in tau), None))
    assert Counter(h for h in points if h is not None) == {12: 11}
    for sl, want in [((0, 12), "no"), ((1, 23), ("flip", 11)), ((12, 24), "no")]:
        got = lives_in_rainbow(slice_rc(rc, *sl), tau)
        assert (got.kind if got.kind == "no" else (got.kind, got.turning_point)) == want
    short = shorten_to_not_living(rc, tau)
    assert short.bags == rc.bags[:12]
    rc6, q6 = flip_instance(6)
    tau6 = clique_tangle(rc6.graph, q6, 3)
    assert lives_in_rainbow(rc6, tau6).turning_point == 6
    assert shorten_to_not_living(rc6, tau6).bags == rc6.bags[7:]
    e, merged = choose_edge(rc, tau)
    assert e == (4, 33)
    out = extend_after_deletion(g, tau, merged, e, relaxed=True, verify=True)
    assert extends(tau, out)


def test_flip_witness_is_the_first_flipping_member_in_sort_key_order():
    """lives_in_rainbow walks the members in map order but keeps the
    flipping member a sorted scan meets first, with its turning point."""
    for h in (6, 12):
        rc, q = flip_instance(h)
        tau, lists = clique_tangle(rc.graph, q, 3), {}
        for r in (rc, slice_rc(rc, 1, rc.length - 1)):
            want = ref_lives_in_rainbow(r, tau, lists)
            assert want.kind == "flip"
            assert lives_in_rainbow(r, tau) == want


@pytest.mark.parametrize("shape, k", [((18, 1, 1), 3), ((14, 0, 1), 2)])
def test_lives_in_rainbow_lists_no_separations(monkeypatch, shape, k):
    """The clique k-tangle's verdict with separation listing refused: its
    members come off its map."""
    g, rc, clique = synth_rc(*shape)
    tau = clique_tangle(g, clique, k)
    want = ref_lives_in_rainbow(rc, tau)
    refuse_separation_lists(monkeypatch)
    assert lives_in_rainbow(rc, tau) == want


def test_shorten_to_not_living_no_op_when_already_out():
    g, rc, clique = synth_rc(20, 1, 1)
    tau = clique_tangle(g, clique, 1)
    out = shorten_to_not_living(rc, tau)
    assert out == rc


def test_shorten_to_not_living_region_case():
    g, rc, _ = synth_rc(14, 0, 1)
    k = 2
    tri = rc.bags[7]
    members = [s for s in enumerate_separations(g, k) if tri <= s.big]
    tau = Tangle(g, k, members)
    assert lives_in_rainbow(rc, tau).kind == "region"
    out = shorten_to_not_living(rc, tau)
    assert lives_in_rainbow(out, tau).kind == "no"
    assert out.length >= rc.length / 2 - k
    assert is_rc_decomposition(g, out)


def test_shorten_rejects_short_rainbows():
    g, rc, _ = synth_rc(8, 0, 1)
    tri = rc.bags[4]
    members = [s for s in enumerate_separations(g, 2) if tri <= s.big]
    tau = Tangle(g, 2, members)
    with pytest.raises(RainbowError):
        shorten_to_not_living(rc, tau)


def test_choose_edge_keeps_decomposition_valid_on_both_graphs():
    g, rc, clique = synth_rc(18, 1, 1, k=1)
    tau = clique_tangle(g, clique, 1)
    e, merged = choose_edge(rc, tau)
    assert g.has_edge(*e)
    assert is_rc_decomposition(g, merged)
    assert is_rc_decomposition(delete_edge(g, e), merged)


def test_choose_edge_without_sun_avoids_linkage():
    g, rc, clique = synth_rc(18, 2, 0, k=1)
    tau = clique_tangle(g, clique, 1)
    e, merged = choose_edge(rc, tau)
    assert is_rc_decomposition(delete_edge(g, e), merged)
    mid = merged.bags[merged.length // 2]
    assert set(e) <= mid


# -- extension after deletion -------------------------------------------------------


def test_extend_after_deletion_unrelaxed_k1():
    g, rc, clique = synth_rc(18, 1, 1, k=1)
    tau = clique_tangle(g, clique, 1)
    e, merged = choose_edge(rc, tau)
    out = extend_after_deletion(g, tau, merged, e)
    g2 = delete_edge(g, e)
    assert is_tangle(g2, 1, out.members)
    assert extends(tau, out)
    oracle = brute_force_extensions(g, tau, e)
    assert any(out.members == o.members for o in oracle)


def test_extend_after_deletion_relaxed_k2():
    g, rc, clique = synth_rc(20, 1, 1, k=2)
    tau = clique_tangle(g, clique, 2)
    e, merged = choose_edge(rc, tau)
    out = extend_after_deletion(g, tau, merged, e, relaxed=True)
    assert is_tangle(delete_edge(g, e), 2, out.members)
    assert extends(tau, out)


@pytest.mark.parametrize("kind, shape, k, scans", [
    ("synth", (18, 1, 1, 3), 3, True), ("synth", (18, 1, 2, 3), 3, False),
    ("flip", 12, 3, True), ("synth", (18, 1, 1, 1), 1, False),
])
def test_extension_reads_forced_orientations_off_the_map(monkeypatch, kind, shape, k, scans):
    """On every row extend_after_deletion's rule is offered, the map's answer
    (survival._oriented) is the full scan over the maximal members
    (survival._forced), and the extension is the one the scan gives.  Where
    scans is set, some rows have strict sides that the deleted edge joins;
    only those reach the scan.  (With two sun vertices or at k = 1 no
    separator of order < k parts the edge's ends.)"""
    import tanglekit.rainbow_cloud
    import tanglekit.survival

    if kind == "flip":
        rc, clique = flip_instance(shape)
        g = rc.graph
    else:
        g, rc, clique = synth_rc(*shape)
    tau = clique_tangle(g, clique, k)
    e, merged = choose_edge(rc, tau)
    want = extend_after_deletion(g, tau, merged, e, relaxed=True)
    seen = Counter()

    def both(t, a, b):
        got = tanglekit.survival._oriented(t, a, b)
        assert got == tanglekit.survival._forced(t, a, b)
        seen["map" if t._holds(a, b) or t._holds(b, a) else "scan"] += 1
        return got

    monkeypatch.setattr(tanglekit.rainbow_cloud, "_oriented", both)
    assert extend_after_deletion(g, tau, merged, e, relaxed=True) == want
    g2 = delete_edge(g, e)
    assert sum(seen.values()) == sum(len(c) for _, c in separator_components(g2, k))
    assert seen["map"] > 0 and (seen["scan"] > 0) == scans
    monkeypatch.setattr(tanglekit.rainbow_cloud, "_oriented", tanglekit.survival._forced)
    assert extend_after_deletion(g, tau, merged, e, relaxed=True) == want


def test_extend_after_deletion_enforces_preconditions():
    g, rc, clique = synth_rc(8, 1, 1, k=1)
    tau = clique_tangle(g, clique, 1)
    with pytest.raises(RainbowError):
        extend_after_deletion(g, tau, rc, min(g.edges))


# -- file format ---------------------------------------------------------------------


def test_format_parse_round_trip():
    for M, ell, z in SMALL_GRID:
        g, rc, _ = synth_rc(M, ell, z)
        again = parse_rc(format_rc(rc), g)
        assert again == rc


def test_rc_files_hold_no_linkage_and_older_ones_still_parse():
    """format_rc writes no LINKAGE section; parse_rc still reads one, as
    older files hold it, and discards its integers unchecked."""
    for M, ell, z in SMALL_GRID:
        g, rc, _ = synth_rc(M, ell, z)
        text = format_rc(rc)
        assert "LINKAGE" not in text
        for extra in ("LINKAGE\n0 2 4\n", "LINKAGE\n9999\n"):
            assert parse_rc(text + extra, g) == rc


def test_parse_rc_rejects_garbage():
    g, rc, _ = synth_rc(8, 1, 1)
    with pytest.raises(RainbowError):
        parse_rc("1 2 3\n", g)
    with pytest.raises(RainbowError):
        parse_rc("SUN\n1\n", g)


RC_SECTIONS = ("RAINBOW-BAGS", "SUN", "CLOUD-VERTICES", "LINKAGE")


@settings(max_examples=30, deadline=None)
@given(synth_rc_instances(), st.sampled_from(RC_SECTIONS[:3]))
def test_format_parse_round_trip_refuses_unknown_vertices(instance, section):
    g, rc, _ = instance
    text = format_rc(rc)
    assert parse_rc(text, g) == rc
    outside = max(g.vertices) + 1
    with pytest.raises(RainbowError, match=f"not in the graph: \\[{outside}\\]"):
        parse_rc(text.replace(f"{section}\n", f"{section}\n{outside} ", 1), g)


FUZZ_GRAPH, FUZZ_RC, _ = synth_rc(3, 1, 1, k=1)
FUZZ_LINES = format_rc(FUZZ_RC).splitlines()


def rc_line_edits(real_lines):
    """A few line insertions, replacements and deletions for an rc text.  New
    lines are section headers, comments, blank lines, integer labels in and
    outside the graph, and junk tokens."""
    label = st.integers(-2, 12)
    line = st.one_of(
        st.sampled_from(RC_SECTIONS + ("# a comment", "")),
        st.lists(label, min_size=1, max_size=5).map(lambda xs: " ".join(map(str, xs))),
        st.lists(
            st.sampled_from(["x", "1.5", "-", "#", "0x1", "SUN", "[]"]) | label.map(str),
            min_size=1,
            max_size=4,
        ).map(" ".join),
    )
    edit = st.tuples(st.integers(0, len(real_lines)), st.sampled_from((0, 1, 2)), line)
    return st.lists(edit, max_size=6)


@pytest.fixture(scope="module")
def fuzz_graph_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("rc-fuzz") / "g.edges"
    path.write_text(format_edgelist(FUZZ_GRAPH))
    return path


@settings(max_examples=300, deadline=None)
@given(rc_line_edits(FUZZ_LINES))
# a sun vertex outside the graph once ended validate_rc in a KeyError
@example([(FUZZ_LINES.index("SUN") + 1, 0, "-1")])
def test_cli_rc_validate_fuzz(fuzz_graph_file, edits):
    rc_path = fuzz_graph_file.parent / "rc.txt"
    rc_path.write_text(apply_line_edits(FUZZ_LINES, edits))
    argv = ["rc", "validate", "--graph", str(fuzz_graph_file), "--rc", str(rc_path)]
    assert main(argv) in (0, 1, 2)
