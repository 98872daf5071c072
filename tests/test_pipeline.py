"""The reduction driver, witnessing subgraphs, traces, and the CLI."""

import contextlib
import io
import itertools
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tanglekit.cli import main
from tanglekit.graphs import (
    Graph,
    complete_graph,
    cycle_graph,
    delete_edge,
    format_edgelist,
    graph6_encode,
    parse_edgelist,
    path_graph,
    subdivide_edge,
    suppress_vertex,
)
from tanglekit.inducing import find_inducing_weights, induces_weight
from tanglekit.pipeline import (
    PipelineError,
    ReductionStep,
    ReductionTrace,
    format_trace,
    is_witness,
    parse_trace,
    reduce,
    trace_provenance,
    transfer_terminal_weights,
    witness_subgraph,
)
from tanglekit.rainbow_cloud import (
    choose_edge,
    clique_tangle,
    extend_after_deletion,
    format_rc,
    synth_rc,
)
from tanglekit.survival import restrict_to_component
from tanglekit.separations import format_separation
from tanglekit.tangles import (
    Tangle,
    TangleError,
    enumerate_tangles,
    extends,
    format_tangle,
    is_tangle,
)

from conftest import apply_line_edits, inconsistent_path_map, reference_is_tangle


def subdivided_k4(times=1):
    g = complete_graph(4)
    for e in [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)][: 6 if times else 0]:
        g = subdivide_edge(g, e)
    return g


def check_trace_sound(trace):
    cur_g, cur_t = trace.root_graph, trace.root_tangle
    for step in trace.steps:
        assert is_tangle(step.graph, cur_t.k, step.tangle.members)
        if step.kind == "delete_edge":
            assert extends(cur_t, step.tangle)
            assert len(step.graph.edges) == len(cur_g.edges) - 1
        elif step.kind == "suppress_vertex":
            assert len(step.graph.vertices) == len(cur_g.vertices) - 1
        else:
            assert step.graph.vertex_set() < cur_g.vertex_set()
        cur_g, cur_t = step.graph, step.tangle
    assert cur_g == trace.terminal_graph


def old_form(trace):
    """The trace's text as it was written before steps dropped their graphs
    and tangles: each step also holds its GRAPH and TANGLE sections."""
    out = [format_trace(ReductionTrace(trace.root_graph, trace.root_tangle))]
    for n, s in enumerate(trace.steps, start=1):
        out.append(f"STEP {n}\nRULE {s.rule}\nKIND {s.kind} {' '.join(map(str, s.detail))}\n")
        out.append(f"GRAPH\n{format_edgelist(s.graph).rstrip()}\n")
        out.append(f"TANGLE\n{format_tangle(s.tangle).rstrip()}\n")
    return "".join(out)


# -- the driver --------------------------------------------------------------------


def test_reduce_k4_is_terminal():
    g = complete_graph(4)
    (tau,) = enumerate_tangles(g, 3)
    trace = reduce(g, tau)
    assert trace.steps == ()
    assert trace.terminal_graph == g


def test_reduce_subdivided_k4_suppresses_back():
    g = subdivided_k4()
    (tau,) = enumerate_tangles(g, 3)
    trace = reduce(g, tau)
    check_trace_sound(trace)
    kinds = [s.kind for s in trace.steps]
    assert kinds.count("suppress_vertex") == 6
    assert trace.terminal_graph == complete_graph(4)


def test_reduce_two_components_takes_one():
    tri = [(0, 1), (1, 2), (0, 2)]
    g = Graph(range(6), tri + [(3, 4), (4, 5), (3, 5)])
    tau = next(
        t for t in enumerate_tangles(g, 2) if {3, 4, 5} <= t.core()
    )
    trace = reduce(g, tau)
    check_trace_sound(trace)
    assert trace.steps[0].kind == "take_component"
    assert trace.steps[0].graph.vertex_set() == frozenset({3, 4, 5})


def test_reduce_order_zero_takes_no_component():
    """The 0-tangle points at no component, so reduce takes no step on a
    disconnected graph, and restrict_to_component refuses it; the trace
    still transfers weights and gives a witness."""
    g = Graph(range(4), [(0, 1), (2, 3)])
    (tau,) = enumerate_tangles(g, 0)
    trace = reduce(g, tau)
    assert trace.steps == () and trace.terminal_graph == g
    assert parse_trace(format_trace(trace)).root_tangle == tau
    assert transfer_terminal_weights(trace, {}).weights == {}
    assert witness_subgraph(trace) == g
    with pytest.raises(TangleError, match="order-0 members do not single out a component"):
        restrict_to_component(g, tau)


def test_reduce_on_the_empty_graph(tmp_path, capsys):
    """The empty graph's 0-tangle: reduce takes 0 steps (the bound
    |V| + |E| is 0 there), and the trace round-trips through witness and
    transfer, in the library and on the command line."""
    g = Graph()
    (tau,) = enumerate_tangles(g, 0)
    trace = reduce(g, tau)
    assert trace.steps == () and trace.terminal_graph == g
    text = format_trace(trace)
    again = parse_trace(text)
    assert format_trace(again) == text and again.root_tangle == tau
    assert transfer_terminal_weights(again, {}).weights == {}
    assert witness_subgraph(again) == g
    gp, tr, wt = tmp_path / "empty.edges", tmp_path / "e.trace", tmp_path / "w.json"
    gp.write_text("")
    wt.write_text("{}")
    capsys.readouterr()
    assert main(["reduce", str(gp), "--k", "0", "--out", str(tr)]) == 0
    assert capsys.readouterr().err == "0 step(s); terminal: 0 vertices, 0 edges\n"
    assert tr.read_text() == text
    assert main(["witness", "--trace", str(tr)]) == 0
    assert capsys.readouterr().out == ""
    assert main(["transfer", "--trace", str(tr), "--weights", str(wt)]) == 0
    assert capsys.readouterr().out == "{}\n"


def test_reduce_order_one_deletes_to_a_point():
    g = cycle_graph(4)
    (tau,) = enumerate_tangles(g, 1)
    trace = reduce(g, tau)
    check_trace_sound(trace)
    assert not trace.terminal_graph.edges
    assert len(trace.terminal_graph.vertices) == 1


def test_reduce_order_two_reaches_one_edge():
    g = cycle_graph(5)
    (tau,) = enumerate_tangles(g, 2)
    trace = reduce(g, tau)
    check_trace_sound(trace)
    assert len(trace.terminal_graph.edges) == 1


def test_reduce_k5_takes_two_edge_searches_then_a_suppression():
    """K5 at k = 3 has a 4-tangle, but reduce builds none: the edge search
    deletes 01 and 02, and suppressing 0 leaves K4 on 1 to 4, which still
    carries the 3-tangle."""
    g = complete_graph(5)
    (tau,) = enumerate_tangles(g, 3)
    trace = reduce(g, tau)
    check_trace_sound(trace)
    assert [(s.rule, s.detail) for s in trace.steps] == [
        ("edge search", (0, 1)),
        ("edge search", (0, 2)),
        ("degree-2 suppression", (0,)),
    ]


def test_reduce_lets_a_failed_edge_search_through(monkeypatch):
    def broken(g, t, e):
        raise TangleError("edge search failed")

    monkeypatch.setattr("tanglekit.pipeline.brute_force_extensions", broken)
    g = complete_graph(4)
    (tau,) = enumerate_tangles(g, 3)
    with pytest.raises(TangleError, match="edge search failed"):
        reduce(g, tau)


def test_reduce_refuses_a_step_that_is_no_tangle(monkeypatch):
    """A pendant deletion that points the empty separator at the isolated
    vertex: its row and the row of {3} cover the graph."""
    g = Graph(range(5), list(complete_graph(4).edges) + [(3, 4)])
    (tau,) = enumerate_tangles(g, 3)

    def broken(g, t, v):
        g2 = delete_edge(g, (3, v))
        (right,) = enumerate_tangles(g2, 3)
        return Tangle._of_map(g2, 3, {**right._pick, 0: g2.mask_of({v})})

    monkeypatch.setattr("tanglekit.pipeline.survive_delete_pendant_edge", broken)
    with pytest.raises(PipelineError, match="'pendant deletion' produced a non-tangle"):
        reduce(g, tau)


def test_reduce_refuses_a_step_that_loses_the_tangle(monkeypatch):
    """An order-2 deletion that moves from the tangle of one triangle of a
    bowtie to a tangle of g - e at a bridge."""
    g = Graph(range(5), [(0, 1), (0, 2), (1, 2), (2, 3), (2, 4), (3, 4)])
    tau = next(t for t in enumerate_tangles(g, 2) if t.core() == {0, 1, 2})

    def broken(g, t):
        g2 = delete_edge(g, (3, 4))
        return (3, 4), next(t2 for t2 in enumerate_tangles(g2, 2) if not extends(t, t2))

    monkeypatch.setattr("tanglekit.pipeline.survive_delete_edge_k2", broken)
    with pytest.raises(PipelineError, match="'order-2 deletion' lost the tangle"):
        reduce(g, tau)


@pytest.mark.parametrize("k", [3, 4])
def test_reduce_ends_at_a_clique_of_k_plus_one_without_a_search(monkeypatch, k):
    """On K_(k+1) the final pass asks for a (k + 1)-tangle of g and for a
    k-tangle of each g - e; the order bound answers both, so no row is
    admitted."""
    import tanglekit.tangles

    g = complete_graph(k + 1)
    (tau,) = enumerate_tangles(g, k)
    monkeypatch.setattr(tanglekit.tangles, "_admit", None)  # any call fails
    assert reduce(g, tau).steps == ()


def test_reduce_rejects_non_tangle():
    bad = inconsistent_path_map()
    with pytest.raises(PipelineError, match="input is not a tangle"):
        reduce(bad.graph, bad)


def test_reduce_connected_graphs_order_two(connected_graphs_6):
    for g in connected_graphs_6[::7]:
        for tau in enumerate_tangles(g, 2):
            trace = reduce(g, tau)
            check_trace_sound(trace)


# -- weights through a trace ----------------------------------------------------------


def test_transfer_terminal_weights_round_trip():
    g = subdivided_k4()
    (tau,) = enumerate_tangles(g, 3)
    trace = reduce(g, tau)
    w_term = find_inducing_weights(trace.terminal_tangle, budget=8)
    w_root = transfer_terminal_weights(trace, w_term)
    assert induces_weight(tau, w_root)


# -- terminal edges' root paths ----------------------------------------------------------


def check_root_paths(root, terminal, paths):
    """Each terminal edge's path runs from its smaller end to its larger end
    along root edges; the interiors are pairwise disjoint and avoid the
    terminal vertices."""
    assert paths.keys() == terminal.edges
    used = set(terminal.vertices)
    for (u, w), path in paths.items():
        assert (path[0], path[-1]) == (u, w)
        assert all(root.has_edge(a, b) for a, b in zip(path, path[1:]))
        inner = path[1:-1]
        assert len(set(inner)) == len(inner) and used.isdisjoint(inner)
        used.update(inner)


def suppressions(g, *vertices):
    """The trace of suppressing vertices of g in turn.  Its tangles are empty
    placeholders: trace_provenance reads only kinds, details and graphs."""
    root, steps = g, []
    for v in vertices:
        g = suppress_vertex(g, v)
        steps.append(ReductionStep("suppress_vertex", (v,), "hand", Tangle._of_map(g, 3, {})))
    return ReductionTrace(root, Tangle._of_map(root, 3, {}), tuple(steps))


def test_trace_provenance_of_suppressions():
    assert trace_provenance(suppressions(path_graph(3), 1)) == {(0, 2): (0, 1, 2)}
    p4 = suppressions(path_graph(4), 1, 2)
    assert trace_provenance(p4) == {(0, 3): (0, 1, 2, 3)}
    # the suppressed vertex is the smallest label: both halves turn round
    star = Graph([0, 1, 2], [(0, 1), (0, 2)])
    assert trace_provenance(suppressions(star, 0)) == {(1, 2): (1, 0, 2)}


def test_trace_provenance_keeps_the_path_of_an_existing_edge():
    # suppressing 3 makes the edge 0 2 of path 0 3 2; suppressing 1 then
    # finds 0 and 2 adjacent, so 0 2 keeps that path
    trace = suppressions(cycle_graph(4), 3, 1)
    assert trace.terminal_graph == Graph([0, 2], [(0, 2)])
    assert trace_provenance(trace) == {(0, 2): (0, 3, 2)}


def test_trace_provenance_of_subdivided_k4():
    g = subdivided_k4()
    (tau,) = enumerate_tangles(g, 3)
    trace = reduce(g, tau)
    assert trace.terminal_graph == complete_graph(4)
    paths = trace_provenance(trace)
    check_root_paths(g, trace.terminal_graph, paths)
    assert all(len(p) == 3 for p in paths.values())


def test_witness_does_not_depend_on_the_order_of_a_deleted_edge():
    # K5 with 2 3 subdivided: suppress 5, delete 0 1 and 0 2, suppress 0
    g = subdivide_edge(complete_graph(5), (2, 3))
    (tau,) = enumerate_tangles(g, 3)
    text = format_trace(reduce(g, tau))
    swapped = text.replace("KIND delete_edge 0 1\n", "KIND delete_edge 1 0\n")
    swapped = swapped.replace("KIND delete_edge 0 2\n", "KIND delete_edge 2 0\n")
    assert swapped.count("KIND delete_edge 1 0\n") == swapped.count("delete_edge 2 0") == 1
    trace = parse_trace(swapped)
    assert trace.steps[1].detail == (1, 0)
    assert trace_provenance(trace) == trace_provenance(parse_trace(text))
    assert trace_provenance(trace)[(2, 3)] == (2, 5, 3)
    assert witness_subgraph(trace) == Graph(
        range(1, 6), [(1, 2), (1, 3), (1, 4), (2, 4), (2, 5), (3, 4)]
    )


# -- witnessing subgraph ----------------------------------------------------------------


def test_witness_subgraph_of_subdivided_k4():
    g = subdivided_k4()
    (tau,) = enumerate_tangles(g, 3)
    trace = reduce(g, tau)
    h = witness_subgraph(trace)
    # a subgraph of the root graph
    assert h.vertex_set() <= g.vertex_set()
    assert all(g.has_edge(*e) for e in h.edges)
    assert is_witness(g, tau, h)
    # one edge per terminal edge
    assert len(h.edges) == len(trace.terminal_graph.edges) == 6
    assert trace.terminal_graph.vertex_set() == frozenset({0, 1, 2, 3})


def test_witness_of_trivial_trace_is_the_graph_itself():
    g = complete_graph(4)
    (tau,) = enumerate_tangles(g, 3)
    h = witness_subgraph(reduce(g, tau))
    assert h.vertex_set() == g.vertex_set()
    assert frozenset(map(frozenset, h.edges)) == frozenset(map(frozenset, g.edges))


def test_is_witness_rejects_too_small():
    g = complete_graph(4)
    (tau,) = enumerate_tangles(g, 3)
    assert not is_witness(g, tau, Graph([0], []))
    assert not is_witness(g, tau, Graph([0, 1], [(0, 1)]))


def test_is_witness_of_a_non_subgraph_is_true():
    g = complete_graph(4)
    (tau,) = enumerate_tangles(g, 3)
    assert is_witness(g, tau, Graph([0, 9], []))
    assert is_witness(g, tau, Graph(g.vertices, [(0, 1), (3, 9)]))
    # the same edges without the stray one are covered
    assert not is_witness(g, tau, Graph(g.vertices, [(0, 1)]))


def test_is_witness_matches_frozenset_oracle():
    def oracle(g, tau, h):
        subs = [(s.small, g.edges_within(s.small)) for s in tau.members]
        return not any(
            h.vertex_set() <= a[0] | b[0] | c[0] and h.edges <= a[1] | b[1] | c[1]
            for a in subs
            for b in subs
            for c in subs
        )

    checked = 0
    for g in [complete_graph(4), complete_graph(5), cycle_graph(5),
              subdivide_edge(complete_graph(4), (0, 1))]:
        for tau in enumerate_tangles(g, 3):
            for e in g.sorted_edges():
                for h in (g, Graph(g.vertices, g.edges - {e}), Graph(e, [e]),
                          g.induced(g.vertices[:-1])):
                    assert is_witness(g, tau, h) == oracle(g, tau, h)
                    checked += 1
    assert checked > 0


# -- trace serialization -------------------------------------------------------------------


def test_trace_round_trip_bit_exact():
    g = subdivided_k4()
    (tau,) = enumerate_tangles(g, 3)
    trace = reduce(g, tau)
    text = format_trace(trace)
    again = parse_trace(text)
    assert again.root_graph == trace.root_graph
    assert again.root_tangle.members == trace.root_tangle.members
    assert len(again.steps) == len(trace.steps)
    for a, b in zip(again.steps, trace.steps):
        assert (a.kind, a.detail, a.rule, a.graph) == (b.kind, b.detail, b.rule, b.graph)
        assert a.tangle.members == b.tangle.members
    assert format_trace(again) == text


# networkx.random_regular_graph(3, 14, seed=1)
CUBIC_14 = Graph(range(14), [
    (0, 1), (0, 7), (0, 8), (1, 4), (1, 11), (2, 5), (2, 9), (2, 13), (3, 5), (3, 6), (3, 13),
    (4, 10), (4, 13), (5, 8), (6, 10), (6, 11), (7, 11), (7, 12), (8, 9), (9, 12), (10, 12),
])


def test_reduce_cubic_14_at_order_4():
    """A mid-size reduction whose edge-search and suppression steps lean on
    the covering-triple scans: three rounds of one edge deletion and two
    suppressions, down to 8 vertices and 12 edges."""
    (tau,) = enumerate_tangles(CUBIC_14, 4)
    trace = reduce(CUBIC_14, tau)
    round_ = ["edge search", "degree-2 suppression", "degree-2 suppression"]
    assert [s.rule for s in trace.steps] == 3 * round_
    assert (len(trace.terminal_graph.vertices), len(trace.terminal_graph.edges)) == (8, 12)
    text = format_trace(trace)
    assert format_trace(parse_trace(text)) == text


def test_parse_trace_shares_sides_within_one_tangle():
    g = subdivided_k4()
    (tau,) = enumerate_tangles(g, 3)
    again = parse_trace(format_trace(reduce(g, tau)))
    tangles = [again.root_tangle] + [s.tangle for s in again.steps]
    for t in tangles:
        sides = {}
        for s in t.members:
            for side in (s.small, s.big):
                assert sides.setdefault(side, side) is side
    assert len(tangles) > 1


def test_trace_text_holds_the_root_the_steps_and_the_terminal_tangle():
    """One TANGLE section, after the last step, and no GRAPH; the
    two-subdivision K4 at k = 3 suppresses 4, then 5."""
    g = parse_edgelist("0 4\n4 1\n0 5\n5 2\n0 3\n1 2\n1 3\n2 3\n")
    (tau,) = enumerate_tangles(g, 3)
    trace = reduce(g, tau)
    text = format_trace(trace)
    steps = ("STEP 1\nRULE degree-2 suppression\nKIND suppress_vertex 4\n"
             "STEP 2\nRULE degree-2 suppression\nKIND suppress_vertex 5\n")
    assert text == (format_trace(ReductionTrace(g, tau)) + steps
                    + "TANGLE\n" + format_tangle(trace.terminal_tangle))
    assert text.splitlines().count("TANGLE") == 1 and "GRAPH" not in text.splitlines()


def test_parsed_atlas_traces_hold_reduces_tangles(connected_graphs_6):
    """Every tangle of a parsed trace is the lift of its terminal tangle, a
    map tangle equal to reduce's at that step, in the trace's form and in
    the older form that holds every step's GRAPH and TANGLE."""
    checked = 0
    for g in connected_graphs_6:
        for k in (1, 2, 3, 4):
            for tau in enumerate_tangles(g, k):
                trace = reduce(g, tau)
                text = format_trace(trace)
                for again in (parse_trace(text), parse_trace(old_form(trace))):
                    assert again.root_tangle == tau
                    assert len(again.steps) == len(trace.steps)
                    for a, b in zip(again.steps, trace.steps):
                        assert (a.kind, a.detail, a.rule, a.graph) == (b.kind, b.detail, b.rule, b.graph)
                        assert a.tangle == b.tangle
                    assert format_trace(again) == text
                checked += bool(trace.steps)
    assert checked > 100


def test_parse_trace_walks_no_member_list(monkeypatch, connected_graphs_6):
    """parse_trace reads each given tangle into its map and compares maps:
    with the member walk refused, every k = 3 trace of the connected atlas
    graphs with <= 6 vertices still parses to reduce's tangles, in the
    trace's form and in the older form."""
    import tanglekit.tangles

    traces = [reduce(g, tau) for g in connected_graphs_6 for tau in enumerate_tangles(g, 3)]
    texts = [(format_trace(trace), old_form(trace)) for trace in traces]

    def refuse(*args):
        raise AssertionError("members walked")

    monkeypatch.setattr(tanglekit.tangles, "_member_masks", refuse)
    for trace, forms in zip(traces, texts):
        for text in forms:
            again = parse_trace(text)
            assert again.root_tangle == trace.root_tangle
            assert [s.tangle for s in again.steps] == [s.tangle for s in trace.steps]
    assert sum(bool(trace.steps) for trace in traces) > 50


def member_lines(text, header):
    """The member lines of the tangle section that starts at header."""
    body = text.split(header, 1)[1].split("\n", 1)[1]
    return list(itertools.takewhile(lambda l: l.startswith("["), body.splitlines()))


def edited_certificates():
    """The subdivided K4's 3-tangle trace, edited three ways: case ->
    (text, part of the error message)."""
    g = subdivided_k4()
    (tau,) = enumerate_tangles(g, 3)
    trace = reduce(g, tau)
    text, old = format_trace(trace), old_form(trace)
    top = trace.steps[0].tangle.maximal_members()[0]
    flipped = old.replace(f"\n{format_separation(top)}\n",
                          f"\n{format_separation(top.inverse())}\n", 1)
    last = member_lines(text, "\nTANGLE\n")[-1]
    first_root = member_lines(text, "ROOT-TANGLE\n")[1]
    return {
        "old-form step tangle with a maximal member flipped": (
            flipped, "step 1: TANGLE is not the tangle lifted from the terminal TANGLE"),
        "terminal tangle lacks a member": (
            text.replace(f"\n{last}\n", "\n", 1), "step 6: TANGLE is not a tangle of its graph"),
        "root tangle lacks a member": (
            text.replace(f"\n{first_root}\n", "\n", 1),
            "trace: ROOT-TANGLE is not the tangle lifted from the terminal TANGLE"),
    }


@pytest.mark.parametrize("case", [
    "old-form step tangle with a maximal member flipped",
    "terminal tangle lacks a member",
    "root tangle lacks a member",
])
def test_parse_trace_refuses_an_edited_certificate(case):
    text, message = edited_certificates()[case]
    with pytest.raises(PipelineError) as err:
        parse_trace(text)
    assert str(err.value) == message


def test_parse_trace_checks_a_zero_step_root_tangle():
    g = complete_graph(4)
    (tau,) = enumerate_tangles(g, 3)
    text = format_trace(reduce(g, tau))
    assert "STEP" not in text and parse_trace(text).root_tangle == tau
    missing = member_lines(text, "ROOT-TANGLE\n")[1]
    with pytest.raises(PipelineError, match="^trace: ROOT-TANGLE is not a tangle of its graph$"):
        parse_trace(text.replace(f"\n{missing}\n", "\n", 1))


def test_parse_trace_names_the_step_of_a_failed_lift():
    """A suppression typed into a 2-tangle trace: C4 to the triangle.  The
    triangle's 2-tangle is a tangle, but suppression lifts need k >= 3."""
    g = cycle_graph(4)
    (tau,) = enumerate_tangles(g, 2)
    h = suppress_vertex(g, 3)
    (tri,) = enumerate_tangles(h, 2)
    text = (format_trace(ReductionTrace(g, tau))
            + "STEP 1\nRULE by hand\nKIND suppress_vertex 3\n"
            + "TANGLE\n" + format_tangle(tri))
    with pytest.raises(PipelineError, match="^step 1: cannot lift across suppress_vertex: "
                                            "suppression lifts need order >= 3$"):
        parse_trace(text)


def test_parse_trace_refuses_a_bad_side_text():
    g = subdivided_k4()
    (tau,) = enumerate_tangles(g, 3)
    text = format_trace(reduce(g, tau))
    last = text.rstrip("\n").rsplit("\n", 1)[1]
    assert last.startswith("[")
    bad = text[: -len(last) - 1] + last.replace("]", ",x]", 1) + "\n"
    with pytest.raises(ValueError, match="bad separation line"):
        parse_trace(bad)


def test_step_graph_is_its_tangles_graph():
    g = subdivided_k4()
    (tau,) = enumerate_tangles(g, 3)
    trace = reduce(g, tau)
    again = parse_trace(format_trace(trace))
    assert trace.steps and len(again.steps) == len(trace.steps)
    for step in trace.steps + again.steps:
        assert step.graph is step.tangle.graph


@st.composite
def labelled_graphs(draw):
    """Up to 6 vertices with distinct labels that need not be contiguous.
    The edges, or for dense graphs the missing edges, are any subset of
    the pairs, so the graph may be disconnected."""
    labels = draw(st.lists(st.integers(0, 30), min_size=1, max_size=6, unique=True))
    pairs = list(itertools.combinations(sorted(labels), 2))
    if not pairs:
        return Graph(labels, [])
    picked = set(draw(st.lists(st.sampled_from(pairs), unique=True)))
    if draw(st.booleans()):
        picked = set(pairs) - picked
    return Graph(labels, picked)


@settings(max_examples=400, deadline=None)
@given(labelled_graphs(), st.integers(1, 3))
def test_reduction_chain_property(g, k):
    """reduce -> weights -> transfer -> witness -> trace text, on every
    k-tangle, with each step's tangle checked by the independent reference."""
    for tau in enumerate_tangles(g, k):
        trace = reduce(g, tau)
        prev = tau
        for step in trace.steps:
            assert reference_is_tangle(step.graph, k, step.tangle.members)
            if step.kind == "delete_edge":
                assert prev.members <= step.tangle.members
            prev = step.tangle
        term = trace.terminal_tangle
        w = find_inducing_weights(term, len(term.graph.vertices))
        assert w is not None and induces_weight(term, w)
        assert induces_weight(tau, transfer_terminal_weights(trace, w))
        check_root_paths(g, trace.terminal_graph, trace_provenance(trace))
        assert is_witness(g, tau, witness_subgraph(trace))
        text = format_trace(trace)
        assert format_trace(parse_trace(text)) == text


def test_parse_trace_rejects_garbage():
    with pytest.raises(PipelineError):
        parse_trace("0 1\n1 2\n")


# -- CLI ------------------------------------------------------------------------------------


@pytest.fixture
def k4_file(tmp_path):
    p = tmp_path / "k4.edges"
    p.write_text(format_edgelist(complete_graph(4)))
    return p


def test_cli_tangles(k4_file, capsys):
    assert main(["tangles", str(k4_file), "--k", "3"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("1 tangle(s) of order 3")


def test_cli_verify_round_trip(k4_file, tmp_path, capsys):
    from tanglekit.tangles import format_tangle

    g = complete_graph(4)
    (tau,) = enumerate_tangles(g, 3)
    tp = tmp_path / "t.tangle"
    tp.write_text(format_tangle(tau))
    assert main(["verify", str(k4_file), "--tangle", str(tp)]) == 0
    out = capsys.readouterr().out
    assert "tangle: True" in out and "consistency: True" in out


def test_cli_walks_a_tangle_files_separators_once(k4_file, tmp_path, capsys, monkeypatch):
    """verify and reduce --tangle check a tangle file on the Tangle that
    parse_tangle built, whose walk over the separators proved its map: no
    second walk (_is_map) follows."""
    import tanglekit.tangles
    from tanglekit.tangles import format_tangle

    def refuse(t):
        raise AssertionError("separators walked twice")

    (tau,) = enumerate_tangles(complete_graph(4), 3)
    tp, tr = tmp_path / "t.tangle", tmp_path / "t.trace"
    tp.write_text(format_tangle(tau))
    monkeypatch.setattr(tanglekit.tangles, "_is_map", refuse)
    assert main(["verify", str(k4_file), "--tangle", str(tp)]) == 0
    assert capsys.readouterr().out.startswith("tangle: True\n")
    assert main(["reduce", str(k4_file), "--k", "3", "--tangle", str(tp), "--out", str(tr)]) == 0
    assert capsys.readouterr().err == "0 step(s); terminal: 4 vertices, 6 edges\n"
    assert parse_trace(tr.read_text()).root_tangle == tau


def test_cli_reduce_witness_transfer(tmp_path, capsys):
    g = subdivided_k4()
    gp = tmp_path / "g.edges"
    gp.write_text(format_edgelist(g))
    tr = tmp_path / "trace.txt"
    assert main(["reduce", str(gp), "--k", "3", "--out", str(tr)]) == 0
    capsys.readouterr()

    wt = tmp_path / "w.json"
    trace = parse_trace(tr.read_text())
    w = find_inducing_weights(trace.terminal_tangle, budget=8)
    wt.write_text(json.dumps({str(v): c for v, c in w.weights.items()}))
    assert main(["transfer", "--trace", str(tr), "--weights", str(wt)]) == 0
    echoed = json.loads(capsys.readouterr().out)
    assert {int(v): c for v, c in echoed.items()} == w.weights

    hw = tmp_path / "wit.edges"
    assert main(["witness", "--trace", str(tr), "--out", str(hw)]) == 0
    h = parse_edgelist(hw.read_text())
    assert len(h.edges) == 6


def test_cli_reduce_order_zero_on_a_disconnected_graph(tmp_path, capsys):
    gp, tr, wt = tmp_path / "two.edges", tmp_path / "t.trace", tmp_path / "w.json"
    gp.write_text("0 1\n2 3\n")
    assert main(["reduce", str(gp), "--k", "0", "--out", str(tr)]) == 0
    assert capsys.readouterr().err == "0 step(s); terminal: 4 vertices, 2 edges\n"
    wt.write_text("{}")
    assert main(["transfer", "--trace", str(tr), "--weights", str(wt)]) == 0
    assert json.loads(capsys.readouterr().out) == {}
    assert main(["witness", "--trace", str(tr)]) == 0
    assert parse_edgelist(capsys.readouterr().out) == parse_edgelist(gp.read_text())


def test_cli_answers_at_once_far_above_the_vertex_count(tmp_path, capsys):
    """The 35-vertex graph of rc synth --length 8 --adhesion 0 --sun 1 --k 3
    at order 60 has 2^35 separators of order < 60: the order bound answers
    tangles, p11 and reduce, and verify refuses a member set at its first
    separator."""
    g, _, _ = synth_rc(8, 0, 1, 3)
    gp, sp = tmp_path / "big.edges", tmp_path / "big.g6"
    gp.write_text(format_edgelist(g))
    sp.write_text(graph6_encode(g) + "\n")
    assert main(["tangles", str(gp), "--k", "60"]) == 0
    assert capsys.readouterr().out == "0 tangle(s) of order 60\n"
    assert main(["p11", "--k", "60", "--stream", str(sp)]) == 0
    summary = capsys.readouterr().out.splitlines()[-1]
    assert summary.startswith("SUMMARY ") and json.loads(summary[8:])["tangles"] == 0
    assert main(["reduce", str(gp), "--k", "60"]) == 1
    assert capsys.readouterr().err == "no tangle of that order\n"
    for k in (9, 60):
        tp = tmp_path / f"o{k}.tangle"
        tp.write_text(f"order {k}\n")
        assert main(["verify", str(gp), "--tangle", str(tp)]) == 1
        assert capsys.readouterr().out == "tangle: False\n"


def test_cli_verify_reports_both_orientations_as_no_tangle(k4_file, tmp_path, capsys):
    """A tangle file holding a separation and its inverse is no tangle:
    verify says so with exit code 1, and a command that needs a tangle
    refuses the file with exit code 2."""
    from tanglekit.tangles import format_tangle

    (tau,) = enumerate_tangles(complete_graph(4), 3)
    tp = tmp_path / "t.tangle"
    tp.write_text(format_tangle(tau) + "[0,1,2,3] []\n")
    assert main(["verify", str(k4_file), "--tangle", str(tp)]) == 1
    assert capsys.readouterr() == ("tangle: False\n", "")
    assert main(["induce", str(k4_file), "--k", "3", "--tangle", str(tp)]) == 2
    err = capsys.readouterr().err
    assert err == ("error: member set is not a 3-tangle of the graph: "
                   "no separator-to-component map has exactly these members\n")


def test_cli_transfer_refuses_a_step_tangle_outside_its_graph(tmp_path, capsys):
    """Vertex 9 in a member of step 1's tangle, the terminal one: no graph
    of the trace has it."""
    g = subdivide_edge(complete_graph(4), (0, 1))
    (tau,) = enumerate_tangles(g, 3)
    trace = reduce(g, tau)
    head = "\nTANGLE\norder 3\n"  # step 1's: ROOT-TANGLE has no newline before TANGLE
    tr, wt = tmp_path / "trace.txt", tmp_path / "w.json"
    tr.write_text(format_trace(trace).replace(head, head + "[9] [0,1,2,3,9]\n", 1))
    w = find_inducing_weights(trace.terminal_tangle, budget=8)
    wt.write_text(json.dumps({str(v): c for v, c in w.weights.items()}))
    assert main(["transfer", "--trace", str(tr), "--weights", str(wt)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == "error: step 1: TANGLE is not a tangle of its graph\n"


def test_cli_refuses_an_old_form_step_tangle_that_lacks_a_member(tmp_path, capsys):
    """The two-subdivision K4 at k = 3, in the older form, with a member
    deleted from step 1's TANGLE: witness and transfer both refuse it."""
    g = parse_edgelist("0 4\n4 1\n0 5\n5 2\n0 3\n1 2\n1 3\n2 3\n")
    (tau,) = enumerate_tangles(g, 3)
    trace = reduce(g, tau)
    text = old_form(trace)
    assert text.count("\n[0,1] [0,1,2,3,5]\n") == 1
    tr, wt = tmp_path / "trace.txt", tmp_path / "w.json"
    tr.write_text(text.replace("\n[0,1] [0,1,2,3,5]\n", "\n"))
    w = find_inducing_weights(trace.terminal_tangle, budget=8)
    wt.write_text(json.dumps({str(v): c for v, c in w.weights.items()}))
    message = "error: step 1: TANGLE is not the tangle lifted from the terminal TANGLE\n"
    assert main(["witness", "--trace", str(tr)]) == 2
    assert capsys.readouterr() == ("", message)
    assert main(["transfer", "--trace", str(tr), "--weights", str(wt)]) == 2
    assert capsys.readouterr() == ("", message)


def test_cli_induce(k4_file, capsys):
    assert main(["induce", str(k4_file), "--k", "3", "--budget", "8"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0].startswith("set:")
    assert any(line.startswith("weights:") for line in out.splitlines())


def test_cli_induce_no_tangle(k4_file, capsys):
    assert main(["induce", str(k4_file), "--k", "4"]) == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["induce", "K4", "--k", "3", "--budget", "-3"],
        ["induce", "K4", "--k", "3", "--max-size", "-1"],
        ["p11", "--k", "3", "--stream", "K4.g6", "--max-set-size", "-1"],
    ],
)
def test_cli_refuses_negative_limits(argv, k4_file, tmp_path, capsys):
    from tanglekit.graphs import graph6_encode

    stream = tmp_path / "K4.g6"
    stream.write_text(graph6_encode(complete_graph(4)) + "\n")
    files = {"K4": str(k4_file), "K4.g6": str(stream)}
    assert main([files.get(a, a) for a in argv]) == 2
    out, err = capsys.readouterr()
    assert out == ""  # refused before any search or output
    assert err.startswith("error:") and "negative" in err


def test_python_m_tanglekit_runs_the_cli(k4_file):
    import tanglekit

    src = str(Path(tanglekit.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    argv = ["induce", str(k4_file), "--k", "3", "--budget", "-1"]
    proc = subprocess.run(
        [sys.executable, "-m", "tanglekit", *argv],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 2
    assert proc.stderr.startswith("error:") and "Traceback" not in proc.stderr


def test_cli_p11_stream_and_guards(tmp_path, capsys):
    from tanglekit.graphs import graph6_encode

    graphs = [complete_graph(4), cycle_graph(5)]
    stream = tmp_path / "graphs.g6"
    stream.write_text("\n".join(graph6_encode(g) for g in graphs) + "\n")
    out = tmp_path / "report.txt"
    assert (
        main(["p11", "--k", "2", "--stream", str(stream), "--out", str(out)]) == 0
    )
    last = out.read_text().splitlines()[-1]
    assert last.startswith("SUMMARY")
    summary = json.loads(last[len("SUMMARY "):])
    assert summary["malformed"] == 0
    assert summary["tangles"] == sum(len(enumerate_tangles(g, 2)) for g in graphs)
    # one garbage line is one malformed entry; the good graphs still count
    stream.write_text(stream.read_text() + "not graph6 at all\n")
    main(["p11", "--k", "2", "--stream", str(stream), "--out", str(out)])
    last = out.read_text().splitlines()[-1]
    summary = json.loads(last[len("SUMMARY "):])
    assert summary["malformed"] == 1
    assert summary["graphs"] == 3
    assert summary["tangles"] == sum(len(enumerate_tangles(g, 2)) for g in graphs)
    # exactly one of --stream/--dir
    assert main(["p11", "--k", "2"]) == 2
    assert (
        main(["p11", "--k", "2", "--stream", str(stream), "--dir", str(tmp_path)])
        == 2
    )


def test_cli_p11_refuses_a_checkpoint_of_another_order(tmp_path, capsys):
    """K4 has one 3-tangle and no 4-tangle: rows written at k = 3 must not
    be reused at k = 4."""
    stream, ck = tmp_path / "k4c5.g6", tmp_path / "ck"
    stream.write_text("C~\nDhc\n")
    run = ["p11", "--stream", str(stream), "--checkpoint", str(ck), "--k"]
    assert main(run + ["3"]) == 0
    assert '"tangles": 1' in capsys.readouterr().out
    assert main(run + ["4"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and '"k": 3' in err and '"k": 4' in err
    assert main(["p11", "--stream", str(stream), "--k", "4"]) == 0
    assert '"tangles": 0' in capsys.readouterr().out


def test_cli_rc_synth_validate_extend(tmp_path, capsys):
    gp, rp = tmp_path / "rc.edges", tmp_path / "rc.txt"
    assert (
        main(
            [
                "rc", "synth", "--length", "18", "--adhesion", "1", "--sun", "1",
                "--k", "1", "--graph-out", str(gp), "--rc-out", str(rp),
            ]
        )
        == 0
    )
    err = capsys.readouterr().err
    clique = [int(x) for x in err.split("clique:")[1].split()]
    assert main(["rc", "validate", "--graph", str(gp), "--rc", str(rp)]) == 0
    assert main(["rc", "validate"]) == 2
    args = ["rc", "extend", "--graph", str(gp), "--rc", str(rp), "--k", "1",
            "--clique"] + [str(c) for c in clique]
    assert main(args) == 0
    out = capsys.readouterr().out
    assert "deleted edge:" in out and "True" in out


def test_cli_rc_extend_output_on_synth_18_1_1(tmp_path, capsys):
    g, rc, clique = synth_rc(18, 1, 1)
    gp, rp = tmp_path / "rc.edges", tmp_path / "rc.txt"
    gp.write_text(format_edgelist(g))
    rp.write_text(format_rc(rc))
    args = ["rc", "extend", "--graph", str(gp), "--rc", str(rp), "--k", "3",
            "--relaxed", "--clique"] + [str(c) for c in sorted(clique)]
    assert main(args) == 0
    tau = clique_tangle(g, clique, 3)
    e, merged = choose_edge(rc, tau)
    out = extend_after_deletion(g, tau, merged, e, relaxed=True, verify=False)
    verified = is_tangle(delete_edge(g, e), 3, out.members)
    assert capsys.readouterr().out == (
        f"deleted edge: {e[0]} {e[1]}\n"
        f"extension verified on the reduced graph: {verified}\n"
    )
    assert verified


@pytest.mark.parametrize("weight", [1.5, 2.0, True, "2", None])
def test_cli_transfer_refuses_non_integer_weights(weight, tmp_path, capsys):
    g = subdivided_k4()
    gp, tr, wt = tmp_path / "g.edges", tmp_path / "trace.txt", tmp_path / "w.json"
    gp.write_text(format_edgelist(g))
    assert main(["reduce", str(gp), "--k", "3", "--out", str(tr)]) == 0
    wt.write_text(json.dumps({"0": weight, "1": 1, "2": 1}))
    capsys.readouterr()
    assert main(["transfer", "--trace", str(tr), "--weights", str(wt)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and "Traceback" not in captured.err
    assert "not an integer" in captured.err


@pytest.mark.parametrize(
    "exc, shown",
    [(RecursionError("too deep"), "too deep"), (MemoryError(), "MemoryError")],
)
def test_cli_reports_exhaustion_without_traceback(k4_file, capsys, monkeypatch, exc, shown):
    def boom(g, k):
        raise exc

    monkeypatch.setattr("tanglekit.cli.enumerate_tangles", boom)
    assert main(["tangles", str(k4_file), "--k", "3"]) == 2
    assert capsys.readouterr().err == f"error: {shown}\n"


# edits of the first step of the subdivided K4's trace that parse_trace
# refuses: case -> (old text, new text, part of the error message)
STEP_EDITS = {
    "unknown kind": ("KIND suppress_vertex", "KIND frobnicate", "unknown kind 'frobnicate'"),
    "detail of wrong arity": ("KIND suppress_vertex 4", "KIND suppress_vertex 4 5", "needs 1"),
    "detail not an integer": ("KIND suppress_vertex 4", "KIND suppress_vertex x", "needs 1"),
    "edge of one vertex": ("KIND suppress_vertex 4", "KIND delete_edge 4", "needs 2"),
    "component without label": ("KIND suppress_vertex 4", "KIND take_component", "needs 1"),
    "vertex not suppressible": ("KIND suppress_vertex 4", "KIND suppress_vertex 0", "cannot replay"),
}

# the same, of the older form of that trace, whose steps hold GRAPH and
# TANGLE sections (see old_form)
OLD_FORM_EDITS = {
    "other edge deleted": ("KIND suppress_vertex 4", "KIND delete_edge 0 4", "GRAPH is not what"),
    "component of all": ("KIND suppress_vertex 4", "KIND take_component 0", "GRAPH is not what"),
    # GRAPH loses the edge 0 5, which suppressing vertex 4 keeps
    "graph not replayed": ("\nGRAPH\n0 1\n0 5\n", "\nGRAPH\n0 1\n", "GRAPH is not what"),
    "bad separation line": ("\nTANGLE\norder 3\n[] [", "\nTANGLE\norder 3\n[x] [", "step 1"),
    "graph line not integers": ("\nGRAPH\n0 1\n", "\nGRAPH\n0 one\n", "step 1"),
}


# inputs that parse but do not hold a tangle: case -> part of the error message
NOT_TANGLES = {
    "root tangle lacks a member": "ROOT-TANGLE is not the tangle lifted",
    "transfer from a root tangle that lacks a member": "ROOT-TANGLE is not the tangle lifted",
    "tangle file lacks members": "is not a 3-tangle",
    "tangle file of another order": "has order 3, not --k 2",
}

# arguments below their range: case -> argv (tangles gets an edge file after
# the command name, p11 a graph6 stream at the end)
NEGATIVE_ARGS = {
    "tangles of negative order": ["tangles", "--k", "-1"],
    "p11 of negative order": ["p11", "--k", "-1", "--stream"],
    "rc synth with negative adhesion": ["rc", "synth", "--length", "3", "--adhesion", "-1", "--sun", "0"],
    "rc synth with negative sun": ["rc", "synth", "--length", "3", "--sun", "-1"],
    "rc synth of order below one": ["rc", "synth", "--length", "3", "--k", "-2"],
}

# rc inputs naming vertex 999, outside the graph: case -> rc section that
# gains it (None: the --clique of rc extend names it)
UNKNOWN_RC_VERTEX = {
    "rc bag outside the graph": "RAINBOW-BAGS",
    "rc sun outside the graph": "SUN",
    "rc cloud outside the graph": "CLOUD-VERTICES",
    "clique outside the graph": None,
}


@pytest.mark.parametrize(
    "case",
    ["empty trace", "no root tangle", "step without kind", *STEP_EDITS, *OLD_FORM_EDITS,
     "weights not an object", "tangle index too large", "negative tangle index",
     *NOT_TANGLES, *UNKNOWN_RC_VERTEX, "too many separations", *NEGATIVE_ARGS],
)
def test_cli_refuses_bad_input_without_traceback(case, tmp_path, capsys):
    from tanglekit.tangles import format_tangle

    g = subdivided_k4()
    (tau,) = enumerate_tangles(g, 3)
    trace = reduce(g, tau)
    text = format_trace(trace)
    root = "ROOT-TANGLE\norder 3\n"
    head, tail = text.split(root)
    traces = {
        "empty trace": "",
        "no root tangle": "ROOT-GRAPH\n0 1\n",
        "step without kind": "".join(
            l for l in text.splitlines(True) if not l.startswith("KIND")
        ),
        "root tangle lacks a member": head + root + tail.split("\n", 1)[1],
    }
    for edits, form in ((STEP_EDITS, text), (OLD_FORM_EDITS, old_form(trace))):
        for name, (old, new, _) in edits.items():
            assert old in form
            traces[name] = form.replace(old, new, 1)
    tr, wt, tri = tmp_path / "trace.txt", tmp_path / "w.json", tmp_path / "tri.edges"
    gp, tp = tmp_path / "g.edges", tmp_path / "g.tangle"
    tr.write_text(traces.get(case, text))
    wt.write_text("[1, 2]")
    tri.write_text(format_edgelist(complete_graph(3)))
    gp.write_text(format_edgelist(g))
    tp.write_text(format_tangle(tau))
    if case in traces:
        argv = ["witness", "--trace", str(tr)]
    elif case == "weights not an object":
        argv = ["transfer", "--trace", str(tr), "--weights", str(wt)]
    elif case.startswith("transfer"):
        tr.write_text(traces["root tangle lacks a member"])
        w = find_inducing_weights(trace.terminal_tangle, budget=8)
        wt.write_text(json.dumps({str(v): c for v, c in w.weights.items()}))
        argv = ["transfer", "--trace", str(tr), "--weights", str(wt)]
    elif case.startswith("tangle file"):
        if case == "tangle file lacks members":
            lines = format_tangle(tau).splitlines(True)
            tp.write_text("".join(lines[:1] + lines[4:]))  # drop three members
        k = "3" if case == "tangle file lacks members" else "2"
        argv = ["induce", str(gp), "--k", k, "--tangle", str(tp)]
    elif case in UNKNOWN_RC_VERTEX:
        rg, rc, _ = synth_rc(8, 1, 1, k=1)
        section, rp, text = UNKNOWN_RC_VERTEX[case], tmp_path / "rc.txt", format_rc(rc)
        gp.write_text(format_edgelist(rg))
        argv = ["rc", "validate", "--graph", str(gp), "--rc", str(rp)]
        if section is None:
            argv = ["rc", "extend", *argv[2:], "--k", "1", "--clique", "999"]
        else:
            text = text.replace(f"{section}\n", f"{section}\n999 ", 1)
        rp.write_text(text)
    elif case in NEGATIVE_ARGS:
        argv = NEGATIVE_ARGS[case]
        if argv[0] == "tangles":
            argv = argv[:1] + [str(gp)] + argv[1:]
        elif argv[0] == "p11":  # K4 and C5
            gp.write_text("C~\nDhc\n")
            argv = argv + [str(gp)]
    elif case == "too many separations":
        gp.write_text(format_edgelist(synth_rc(20, 0, 1, 2)[0]))
        argv = ["tangles", str(gp), "--k", "2"]
    else:
        index = "5" if case == "tangle index too large" else "-1"
        argv = ["reduce", str(tri), "--k", "1", "--tangle-index", index]
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert err.startswith("error:") and "Traceback" not in err
    assert case not in NEGATIVE_ARGS or out == ""
    edits = {**STEP_EDITS, **OLD_FORM_EDITS}
    assert case not in edits or edits[case][2] in err
    assert NOT_TANGLES.get(case, "") in err
    assert case not in UNKNOWN_RC_VERTEX or "not in the graph: [999]" in err


@pytest.fixture(scope="module")
def tangle_fuzz_files(tmp_path_factory):
    """The subdivided K4's edge file, and its 3-tangle's lines as printed by
    tanglekit tangles."""
    gp = tmp_path_factory.mktemp("tangle-fuzz") / "g.edges"
    gp.write_text(format_edgelist(subdivided_k4()))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["tangles", str(gp), "--k", "3"]) == 0
    head, body = out.getvalue().split("-- tangle 0\n")
    assert head == "1 tangle(s) of order 3\n"
    return gp, body.splitlines()


def tangle_line_edits(real_lines):
    """A few line insertions, replacements and deletions for a tangle text.
    New lines are copies of its lines, separation lines over labels in and
    outside the graph, order lines, and junk."""
    side = st.lists(st.integers(-1, 11), max_size=4).map(lambda xs: ",".join(map(str, xs)))
    line = st.one_of(
        st.sampled_from(real_lines),
        st.tuples(side, side).map(lambda p: f"[{p[0]}] [{p[1]}]"),
        st.integers(-1, 5).map(lambda k: f"order {k}"),
        st.sampled_from(["", "order", "order x", "[0,1]", "[] [] []", "[x] []"]),
    )
    edit = st.tuples(st.integers(0, len(real_lines)), st.sampled_from((0, 1, 2)), line)
    return st.lists(edit, max_size=6)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_cli_tangle_file_fuzz(tangle_fuzz_files, data):
    gp, lines = tangle_fuzz_files
    tp = gp.parent / "t.tangle"
    tp.write_text(apply_line_edits(lines, data.draw(tangle_line_edits(lines))))
    assert main(["verify", str(gp), "--tangle", str(tp)]) in (0, 1, 2)
    assert main(["reduce", str(gp), "--k", "3", "--tangle", str(tp)]) in (0, 1, 2)


# graph6 lines of K4, C5 and the subdivided K4
GRAPH6_LINES = ["C~", "Dhc", graph6_encode(subdivided_k4())]


@st.composite
def graph6_streams(draw):
    """Up to four lines: graph6 lines with characters replaced, inserted or
    deleted, header and blank lines, random printable text."""
    char = st.characters(min_codepoint=32, max_codepoint=130)

    def edit(line):
        ops = st.tuples(st.integers(0, len(line)), st.sampled_from((0, 1, 2)), char)
        for pos, op, c in draw(st.lists(ops, max_size=2)):
            line = line[:pos] + ("" if op == 2 else c) + line[pos + (op > 0):]
        return line

    line = st.one_of(
        st.sampled_from(GRAPH6_LINES).map(edit),
        st.sampled_from(["", ">>graph6<<", ">>graph6<<C~", "?", "@", "~", "~??"]),
        st.text(char, max_size=8),
    )
    return "".join(f"{x}\n" for x in draw(st.lists(line, max_size=4)))


@settings(max_examples=100, deadline=None)
@given(graph6_streams(), st.integers(-1, 4))
def test_cli_graph6_stream_fuzz(tmp_path_factory, text, k):
    path = tmp_path_factory.mktemp("g6-fuzz") / "stream.g6"
    path.write_text(text)
    assert main(["p11", "--k", str(k), "--stream", str(path), "--weights"]) in (0, 1, 2)


@pytest.fixture(scope="module")
def checkpoint_fuzz_files(tmp_path_factory):
    """A graph6 stream of GRAPH6_LINES and the lines of its p11 checkpoint."""
    folder = tmp_path_factory.mktemp("checkpoint-fuzz")
    stream, ck = folder / "stream.g6", folder / "ck"
    stream.write_text("".join(f"{x}\n" for x in GRAPH6_LINES))
    run = ["p11", "--k", "3", "--weights", "--stream", str(stream), "--checkpoint"]
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(run + [str(ck)]) == 0
    return run, ck.read_text().splitlines()


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_cli_p11_checkpoint_fuzz(tmp_path_factory, checkpoint_fuzz_files, data):
    """Edits of a p11 checkpoint's lines, the last one maybe torn, resumed
    with the parameters it was written with: every outcome is an exit
    code, none a traceback."""
    run, lines = checkpoint_fuzz_files
    value = st.one_of(st.integers(-1, 3), st.none(), st.booleans(), st.text(max_size=3))
    fields = ["id", "tangles", "failures", "max_set_size", "max_weight_total", "p11"]
    line = st.one_of(
        st.sampled_from(lines),
        st.dictionaries(st.sampled_from(fields), value).map(json.dumps),
        st.sampled_from(['[1]', '"str"', '{"x": 1}', '{"id": "s.g6:1"}', "", "{", "null"]),
        st.text(max_size=8),
    )
    edit = st.tuples(st.integers(0, len(lines)), st.sampled_from((0, 1, 2)), line)
    text = apply_line_edits(lines, data.draw(st.lists(edit, max_size=4)))
    ck = tmp_path_factory.mktemp("checkpoint") / "ck"
    ck.write_text(text[:-1] if text and data.draw(st.booleans()) else text)
    assert main(run + [str(ck)]) in (0, 1, 2)


@settings(max_examples=100, deadline=None)
@given(st.data(), st.integers(-1, 4))
def test_cli_edge_list_fuzz(tmp_path_factory, data, k):
    """Edits of the subdivided K4's edge list, run through tangles and
    through p11 --dir."""
    lines = format_edgelist(subdivided_k4()).splitlines()
    label = st.integers(-1, 11).map(str)
    line = st.one_of(
        st.sampled_from(lines),
        st.tuples(label, label).map(" ".join),
        label,
        st.sampled_from(["", "# note", "1 2 3", "x y", "1 1", "2.5 3", "0 1 # edge"]),
    )
    edit = st.tuples(st.integers(0, len(lines)), st.sampled_from((0, 1, 2)), line)
    folder = tmp_path_factory.mktemp("edges-fuzz")
    path = folder / "g.edges"
    path.write_text(apply_line_edits(lines, data.draw(st.lists(edit, max_size=6))))
    assert main(["tangles", str(path), "--k", str(k)]) in (0, 1, 2)
    assert main(["p11", "--k", str(k), "--dir", str(folder)]) in (0, 1, 2)


@pytest.fixture(scope="module")
def trace_fuzz_files(tmp_path_factory):
    """The subdivided K4's 3-tangle trace as lines, and a weight file that
    induces its terminal tangle."""
    g = subdivided_k4()
    trace = reduce(g, enumerate_tangles(g, 3)[0])
    w = find_inducing_weights(trace.terminal_tangle, budget=8)
    wt = tmp_path_factory.mktemp("trace-fuzz") / "w.json"
    wt.write_text(json.dumps({str(v): c for v, c in w.weights.items()}))
    return format_trace(trace).splitlines(), wt


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_cli_trace_fuzz(trace_fuzz_files, data):
    """Line edits of a trace, run through witness and transfer.  New lines
    are copies of its lines, section and KIND lines, edge and separation
    lines over labels in and outside the graph, and junk."""
    lines, wt = trace_fuzz_files
    label = st.integers(-1, 11).map(str)
    side = st.lists(label, max_size=4).map(",".join)
    line = st.one_of(
        st.sampled_from(lines),
        st.sampled_from(["ROOT-GRAPH", "ROOT-TANGLE", "STEP 1", "RULE x", "GRAPH", "TANGLE"]),
        st.tuples(st.sampled_from(["delete_edge", "suppress_vertex", "take_component", ""]),
                  st.lists(label, max_size=3)).map(lambda p: " ".join(["KIND", p[0], *p[1]])),
        st.tuples(label, label).map(" ".join),
        st.tuples(side, side).map(lambda p: f"[{p[0]}] [{p[1]}]"),
        st.integers(-1, 5).map(lambda k: f"order {k}"),
        st.sampled_from(["", "STEP", "KIND", "x y", "[0,1]", "[] [] []"]),
    )
    edit = st.tuples(st.integers(0, len(lines)), st.sampled_from((0, 1, 2)), line)
    tr = wt.parent / "trace.txt"
    tr.write_text(apply_line_edits(lines, data.draw(st.lists(edit, max_size=6))))
    assert main(["witness", "--trace", str(tr), "--out", str(wt.parent / "h.edges")]) in (0, 1, 2)
    assert main(["transfer", "--trace", str(tr), "--weights", str(wt)]) in (0, 1, 2)


def test_cli_verify_reports_a_non_tangle(tmp_path, capsys):
    from tanglekit.tangles import format_tangle

    g = subdivided_k4()
    (tau,) = enumerate_tangles(g, 3)
    gp, tp = tmp_path / "g.edges", tmp_path / "bad.tangle"
    gp.write_text(format_edgelist(g))
    lines = format_tangle(tau).splitlines(True)
    tp.write_text("".join(lines[:1] + lines[4:]))  # drop three members
    assert main(["verify", str(gp), "--tangle", str(tp)]) == 1
    assert capsys.readouterr().out == "tangle: False\n"


def test_cli_usage_errors():
    assert main(["tangles"]) == 2  # missing required args
    assert main(["tangles", "/nonexistent/file", "--k", "2"]) == 2
