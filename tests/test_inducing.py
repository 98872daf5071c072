"""Inducing vertex sets and weight functions, and their transfer."""

import itertools
import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tanglekit.cli import main
from tanglekit.graphs import Graph, GraphError, complete_graph, cycle_graph, path_graph
from tanglekit.tangles import Tangle, enumerate_tangles
from tanglekit.pipeline import reduce as reduce_tangle, transfer_terminal_weights
from tanglekit.inducing import (
    InducingError,
    WeightFunction,
    find_inducing_set,
    find_inducing_weights,
    format_p11_report,
    induces_set,
    induces_weight,
    verify_p11_batch,
)

from conftest import atlas_graphs


def brute_min_inducing_sets(tau):
    """All minimum-size inducing sets, by exhaustive scan."""
    vs = sorted(tau.graph.vertex_set())
    for size in range(len(vs) + 1):
        hits = [
            frozenset(c)
            for c in itertools.combinations(vs, size)
            if induces_set(tau, c)
        ]
        if hits:
            return hits
    return []


def brute_min_weight_total(tau, budget):
    """Smallest achievable weight total, by exhaustive scan."""
    vs = sorted(tau.graph.vertex_set())
    for total in range(budget + 1):
        for split in itertools.combinations_with_replacement(vs, total):
            w = {}
            for v in split:
                w[v] = w.get(v, 0) + 1
            if induces_weight(tau, w):
                return total
    return None


def find_inducing_set_reference(tau, max_size=None):
    """Inducing-set search over all members with frozenset counts, core
    vertices first within each size, every combination of a size scanned."""
    g = tau.graph
    if max_size is None:
        max_size = len(g.vertices)
    core = tau.core()
    order = sorted(core) + sorted(g.vertex_set() - core)
    members = tau.sorted_members()
    for size in range(1, max_size + 1):
        best = None
        for combo in itertools.combinations(order, size):
            x = frozenset(combo)
            if all(len(x & s.small) < len(x & s.big) for s in members):
                if best is None or tuple(sorted(x)) < best:
                    best = tuple(sorted(x))
        if best is not None:
            return frozenset(best)
    return None


def find_inducing_weights_reference(tau, budget):
    """Weight search over all members, each node summing the assigned
    weights per member from scratch."""
    verts = list(tau.graph.vertices)
    cons = [(s.small - s.big, s.big - s.small) for s in tau.sorted_members()]

    def feasible(assigned, idx, remaining):
        rest = verts[idx:]
        for neg, pos in cons:
            got = sum(w for v, w in assigned.items() if v in pos) - sum(
                w for v, w in assigned.items() if v in neg
            )
            slack = remaining if any(v in pos for v in rest) else 0
            if got + slack < 1:
                return False
        return True

    def dfs(assigned, idx, remaining):
        if not feasible(assigned, idx, remaining):
            return None
        if idx == len(verts):
            return dict(assigned) if remaining == 0 else None
        v = verts[idx]
        for w in range(remaining + 1):
            if w:
                assigned[v] = w
            got = dfs(assigned, idx + 1, remaining - w)
            assigned.pop(v, None)
            if got is not None:
                return got
        return None

    for total in range(budget + 1):
        got = dfs({}, 0, total)
        if got is not None:
            return WeightFunction(got)
    return None


def check_against_references(g, k):
    for tau in enumerate_tangles(g, k):
        x = find_inducing_set(tau)
        assert x == find_inducing_set_reference(tau)
        if x is not None:
            below = len(x) - 1
            assert find_inducing_set(tau, below) == find_inducing_set_reference(tau, below)
        budget = 32 if x is None else len(x)
        w = find_inducing_weights(tau, budget)
        assert w == find_inducing_weights_reference(tau, budget)
        if w is not None and w.total:
            less = w.total - 1
            assert find_inducing_weights(tau, less) is None
            assert find_inducing_weights_reference(tau, less) is None


@st.composite
def labelled_graphs(draw, max_n=6):
    """Graphs on up to max_n vertices with arbitrary distinct labels."""
    labels = draw(st.lists(st.integers(0, 40), min_size=1, max_size=max_n, unique=True))
    pairs = list(itertools.combinations(labels, 2))
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    return Graph(labels, edges)


# -- WeightFunction ---------------------------------------------------------------


def test_weight_function_drops_zeros_and_totals():
    w = WeightFunction({0: 2, 1: 0, 2: 3})
    assert w.weights == {0: 2, 2: 3}
    assert w.total == 5
    assert w.support == frozenset({0, 2})
    assert w.side({0, 1}) == 2
    assert w == WeightFunction({0: 2, 2: 3, 7: 0})
    assert hash(w) == hash(WeightFunction({2: 3, 0: 2}))


def test_weight_function_rejects_negative():
    with pytest.raises(InducingError):
        WeightFunction({0: -1})


@pytest.mark.parametrize("weight", [1.5, 0.5, 2.0, True, False, "2", None])
def test_weight_function_rejects_non_integers(weight):
    with pytest.raises(InducingError, match="not an integer"):
        WeightFunction({0: 1, 1: weight})


@given(st.sets(st.integers(0, 10), max_size=6))
def test_indicator_matches_set_semantics(xs):
    w = WeightFunction.indicator(xs)
    assert w.total == len(xs)
    assert w.support == frozenset(xs)


def test_indicator_equivalence_on_small_tangles(small_graphs):
    # a set induces a tangle exactly when its indicator weights do
    for g in small_graphs:
        for k in (1, 2):
            for tau in enumerate_tangles(g, k):
                for size in (1, 2):
                    for c in itertools.combinations(sorted(g.vertex_set()), size):
                        assert induces_set(tau, c) == induces_weight(
                            tau, WeightFunction.indicator(c)
                        )


# -- finding inducing sets -----------------------------------------------------------


def test_find_inducing_set_k4():
    g = complete_graph(4)
    (tau,) = enumerate_tangles(g, 3)
    x = find_inducing_set(tau)
    assert x is not None and induces_set(tau, x)
    assert len(x) == min(len(y) for y in brute_min_inducing_sets(tau))
    # lexicographically least among minimum-size inducing sets
    assert tuple(sorted(x)) == min(
        tuple(sorted(y)) for y in brute_min_inducing_sets(tau)
    )


def test_find_inducing_set_matches_brute_force(small_graphs):
    for g in small_graphs:
        for k in (1, 2, 3):
            for tau in enumerate_tangles(g, k):
                got = find_inducing_set(tau)
                hits = brute_min_inducing_sets(tau)
                if not hits:
                    assert got is None
                else:
                    assert got in hits
                    assert tuple(sorted(got)) == min(
                        tuple(sorted(y)) for y in hits
                    )


def test_empty_set_induces_a_0_tangle(tmp_path, capsys):
    """The 0-tangle has no members, so the empty set induces it: on the
    path with three vertices and on the empty graph, where induce once
    found no set and exited 1."""
    for g in (path_graph(3), Graph()):
        (tau,) = enumerate_tangles(g, 0)
        assert find_inducing_set(tau) == frozenset()
        assert brute_min_inducing_sets(tau) == [frozenset()]
        assert find_inducing_weights(tau, 0).total == 0
    gp = tmp_path / "empty.edges"
    gp.write_text("")
    capsys.readouterr()
    assert main(["induce", str(gp), "--k", "0"]) == 0
    assert capsys.readouterr().out == "set: \n"


def test_find_inducing_set_respects_max_size():
    g = complete_graph(4)
    (tau,) = enumerate_tangles(g, 3)
    x = find_inducing_set(tau)
    if len(x) > 1:
        assert find_inducing_set(tau, max_size=len(x) - 1) is None


# -- finding inducing weights ----------------------------------------------------------


def test_find_inducing_weights_k4_minimum_total():
    g = complete_graph(4)
    (tau,) = enumerate_tangles(g, 3)
    w = find_inducing_weights(tau, budget=8)
    assert w is not None and induces_weight(tau, w)
    assert w.total == brute_min_weight_total(tau, 8) == 3


def test_find_inducing_weights_budget_zero_or_too_small():
    g = complete_graph(4)
    (tau,) = enumerate_tangles(g, 3)
    assert find_inducing_weights(tau, budget=0) is None
    assert find_inducing_weights(tau, budget=2) is None


def test_find_inducing_weights_matches_brute_force(small_graphs):
    for g in small_graphs:
        if len(g.vertices) > 4:
            continue
        for k in (2, 3):
            for tau in enumerate_tangles(g, k):
                w = find_inducing_weights(tau, budget=5)
                expect = brute_min_weight_total(tau, 5)
                if expect is None:
                    assert w is None
                else:
                    assert w is not None and w.total == expect
                    assert induces_weight(tau, w)


def test_weight_beats_set_never(small_graphs):
    # an indicator of an inducing set is a valid weight, so the minimum
    # weight total never exceeds the minimum inducing-set size
    for g in small_graphs:
        for tau in enumerate_tangles(g, 2):
            x = find_inducing_set(tau)
            if x is None:
                continue
            w = find_inducing_weights(tau, budget=len(x))
            assert w is not None and w.total <= len(x)


def test_negative_limits_are_refused():
    (tau,) = enumerate_tangles(complete_graph(4), 3)
    with pytest.raises(InducingError, match="negative"):
        find_inducing_set(tau, max_size=-1)
    with pytest.raises(InducingError, match="negative"):
        find_inducing_weights(tau, budget=-3)
    assert find_inducing_set(tau, max_size=0) is None


# -- agreement with the all-member searches ----------------------------------------------


@settings(max_examples=100, deadline=None)
@given(labelled_graphs(), st.integers(1, 4))
def test_searches_match_references_property(g, k):
    check_against_references(g, k)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_searches_match_references_seeded_atlas7(seed):
    graphs = atlas_graphs(7, connected_only=True, min_n=7)
    for g in random.Random(seed).sample(graphs, 8):
        for k in (1, 2, 3, 4):
            check_against_references(g, k)


@settings(max_examples=60, deadline=None)
@given(labelled_graphs(), st.integers(1, 4), st.data())
def test_maximal_members_decide_weight_induction(g, k, data):
    weights = st.dictionaries(st.sampled_from(g.vertices), st.integers(0, 4))
    for tau in enumerate_tangles(g, k):
        w = WeightFunction(data.draw(weights))
        on_maximal = all(w.side(s.small) < w.side(s.big) for s in tau.maximal_members())
        assert on_maximal == induces_weight(tau, w)


# -- transfer ---------------------------------------------------------------------------


def test_transfer_by_zero_along_subdivided_k4():
    from tanglekit.graphs import subdivide_edge

    g = complete_graph(4)
    for e in [(0, 1), (1, 2)]:
        g = subdivide_edge(g, e)
    (tau,) = enumerate_tangles(g, 3)
    trace = reduce_tangle(g, tau)
    w_term = find_inducing_weights(trace.terminal_tangle, budget=8)
    assert w_term is not None
    w_root = transfer_terminal_weights(trace, w_term)
    assert w_root == w_term
    assert induces_weight(tau, w_root)


def test_transfer_by_zero_rejects_foreign_support():
    g = complete_graph(4)
    (tau,) = enumerate_tangles(g, 3)
    trace = reduce_tangle(g, tau)
    with pytest.raises(InducingError):
        transfer_terminal_weights(trace, {99: 1})


def test_transfer_by_zero_rejects_non_inducing():
    g = complete_graph(4)
    (tau,) = enumerate_tangles(g, 3)
    trace = reduce_tangle(g, tau)
    with pytest.raises(InducingError):
        transfer_terminal_weights(trace, {0: 1})  # a single vertex cannot outvote


# -- batch verification --------------------------------------------------------------------


def batch_input():
    return [
        ("k4", complete_graph(4)),
        ("c5", cycle_graph(5)),
        ("p4", path_graph(4)),
        ("bad", None),
    ]


def test_verify_p11_batch_counts():
    report = verify_p11_batch(batch_input(), k=2)
    rows = {r["id"]: r for r in report["rows"]}
    assert rows["k4"]["tangles"] == 1 and rows["k4"]["failures"] == 0
    assert rows["c5"]["tangles"] == 1
    assert "error" in rows["bad"]
    assert report["summary"]["graphs"] == 4
    assert report["summary"]["malformed"] == 1
    assert report["summary"]["failures"] == 0


def test_verify_p11_batch_counts_the_empty_graph(tmp_path, capsys):
    """The empty graph has one 0-tangle, induced by the empty set, and no
    tangle of higher order: a normal row, not a malformed entry.  The CLI
    reads it as graph6 "?" and as an empty edge-list file."""
    for k, count in [(0, 1), (1, 0), (3, 0)]:
        report = verify_p11_batch([("empty", Graph((), ()))], k, compute_weights=True)
        want = {"id": "empty", "tangles": count, "failures": 0, "max_set_size": 0,
                "max_weight_total": 0 if count else None}
        assert report["rows"] == [want]
        assert report["summary"]["malformed"] == 0
    stream, folder = tmp_path / "e.g6", tmp_path / "graphs"
    stream.write_text("?\nC~\n")
    folder.mkdir()
    (folder / "empty.edges").write_text("")
    for source in (["--stream", str(stream)], ["--dir", str(folder)]):
        assert main(["p11", "--k", "0", *source]) == 0
        out = capsys.readouterr().out.splitlines()
        summary = json.loads(out[-1][len("SUMMARY "):])
        assert summary["malformed"] == 0
        assert summary["tangles"] == summary["graphs"] == len(out) - 2


def test_verify_p11_batch_checkpoint_resume(tmp_path):
    ck = tmp_path / "rows.jsonl"
    first = verify_p11_batch(batch_input()[:2], k=2, checkpoint_path=ck)
    assert len(ck.read_text().splitlines()) == 1 + 2  # the parameter header, then rows
    # rerun over the full input: finished rows are reused, not recomputed
    second = verify_p11_batch(batch_input(), k=2, checkpoint_path=ck)
    good = [r for r in second["rows"] if "error" not in r]
    assert len(ck.read_text().splitlines()) == 1 + len(good)
    assert second["rows"][:2] == first["rows"]


@pytest.mark.parametrize("torn", ['{"id": "p4", "tang', '{"id": "p4", "tangles": 9}'])
def test_verify_p11_batch_resumes_after_torn_last_line(tmp_path, torn):
    ck = tmp_path / "rows.jsonl"
    verify_p11_batch(batch_input()[:2], k=2, checkpoint_path=ck)
    with open(ck, "a") as fh:
        fh.write(torn)  # a crash mid-append leaves no newline
    report = verify_p11_batch(batch_input(), k=2, checkpoint_path=ck)
    fresh = verify_p11_batch(batch_input(), k=2)
    assert report["rows"] == fresh["rows"]  # the torn p4 row was recomputed
    header, *lines = ck.read_text().splitlines()
    assert json.loads(header) == {"p11": {"k": 2, "max_set_size": None, "weights": False}}
    assert [json.loads(line)["id"] for line in lines] == ["k4", "c5", "p4"]


def test_verify_p11_batch_rejects_bad_middle_line(tmp_path):
    ck = tmp_path / "rows.jsonl"
    verify_p11_batch(batch_input()[:2], k=2, checkpoint_path=ck)
    header, k4, c5 = ck.read_text().splitlines(keepends=True)
    ck.write_text(header + k4 + '{"id": "c5", "tang\n' + c5)
    with pytest.raises(json.JSONDecodeError):
        verify_p11_batch(batch_input(), k=2, checkpoint_path=ck)


@pytest.mark.parametrize("torn", ['{"p11": {"k": 2, "max_se', ''])
def test_verify_p11_batch_resumes_after_torn_header(tmp_path, torn):
    ck = tmp_path / "rows.jsonl"
    ck.write_text(torn)  # a crash while the header was written, or before
    report = verify_p11_batch(batch_input(), k=2, checkpoint_path=ck)
    assert report == verify_p11_batch(batch_input(), k=2)
    header = ck.read_text().splitlines()[0]
    assert json.loads(header) == {"p11": {"k": 2, "max_set_size": None, "weights": False}}


@pytest.mark.parametrize("kwargs", [
    {"k": 3}, {"k": 2, "max_set_size": 2}, {"k": 2, "compute_weights": True},
])
def test_verify_p11_batch_refuses_checkpoint_of_other_parameters(tmp_path, kwargs):
    ck = tmp_path / "rows.jsonl"
    verify_p11_batch(batch_input()[:2], k=2, checkpoint_path=ck)
    before = ck.read_text()
    with pytest.raises(ValueError, match=r'written with \{"k": 2, .*\}, not \{"k": '):
        verify_p11_batch(batch_input(), checkpoint_path=ck, **kwargs)
    assert ck.read_text() == before


def test_verify_p11_batch_refuses_a_negative_order_before_the_checkpoint(tmp_path, capsys):
    ck = tmp_path / "rows.jsonl"
    for graphs in ([], batch_input()):
        with pytest.raises(GraphError, match="negative tangle order -1"):
            verify_p11_batch(graphs, k=-1, checkpoint_path=ck)
        assert not ck.exists()
    stream = tmp_path / "empty.g6"
    stream.write_text("")
    assert main(["p11", "--k", "-1", "--stream", str(stream), "--checkpoint", str(ck)]) == 2
    assert capsys.readouterr().err.startswith("error: negative tangle order -1")
    assert not ck.exists()


def test_verify_p11_batch_refuses_checkpoint_without_parameters(tmp_path):
    ck = tmp_path / "rows.jsonl"
    verify_p11_batch(batch_input()[:2], k=2, checkpoint_path=ck)
    ck.write_text("".join(ck.read_text().splitlines(keepends=True)[1:]))
    with pytest.raises(ValueError, match="written with no parameters, not"):
        verify_p11_batch(batch_input(), k=2, checkpoint_path=ck)


@pytest.mark.parametrize("line", ['[1]', '"str"', '{"x": 1}', '{"id": "c5"}',
                                  '{"p11": {"k": 2, "max_set_size": null, "weights": false}}'])
@pytest.mark.parametrize("last", [False, True])
def test_verify_p11_batch_refuses_lines_that_are_not_rows(tmp_path, line, last):
    ck = tmp_path / "rows.jsonl"
    verify_p11_batch(batch_input()[:2], k=2, checkpoint_path=ck)
    header, k4, c5 = ck.read_text().splitlines(keepends=True)
    ck.write_text(header + k4 + c5 + line + "\n" if last else header + k4 + line + "\n" + c5)
    with pytest.raises(ValueError, match="line [34]: not a p11 row"):
        verify_p11_batch(batch_input(), k=2, checkpoint_path=ck)


def test_format_p11_report_structure():
    report = verify_p11_batch(batch_input(), k=2, compute_weights=True)
    text = format_p11_report(report)
    lines = text.splitlines()
    assert lines[0].split()[:2] == ["graph", "tangles"]
    assert any(line.startswith("k4") for line in lines)
    assert lines[-1].startswith("SUMMARY {")
