"""The reduction driver, witnessing subgraphs, traces, and the CLI."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from tanglekit.cli import main
from tanglekit.graphs import (
    Graph,
    complete_graph,
    cycle_graph,
    delete_edge,
    format_edgelist,
    parse_edgelist,
    subdivide_edge,
)
from tanglekit.inducing import find_inducing_weights, induces_weight
from tanglekit.pipeline import (
    PipelineError,
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
from tanglekit.tangles import Tangle, enumerate_tangles, extends, is_tangle


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


def test_reduce_k5_uses_higher_order_route():
    g = complete_graph(5)
    (tau,) = enumerate_tangles(g, 3)
    trace = reduce(g, tau)
    check_trace_sound(trace)
    assert any(
        s.rule in ("higher-order tangle", "edge search") for s in trace.steps
    )
    # the terminal graph still carries the 3-tangle but sheds edges
    assert len(trace.terminal_graph.edges) < len(g.edges)


def test_reduce_rejects_non_tangle():
    g = complete_graph(4)
    (tau,) = enumerate_tangles(g, 3)
    bad = Tangle(g, 3, [s.inverse() for s in tau.members])
    with pytest.raises(PipelineError):
        reduce(g, bad)


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
    prov = trace_provenance(trace)
    assert prov.branch_vertices == frozenset({0, 1, 2, 3})


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


def test_parse_trace_shares_one_set_per_side_text():
    g = subdivided_k4()
    (tau,) = enumerate_tangles(g, 3)
    again = parse_trace(format_trace(reduce(g, tau)))
    tangles = [again.root_tangle] + [s.tangle for s in again.steps]
    sides = {}
    for t in tangles:
        for s in t.members:
            for side in (s.small, s.big):
                assert sides.setdefault(side, side) is side
    assert len(tangles) > 1


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
    err = capsys.readouterr().err
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
    "other edge deleted": ("KIND suppress_vertex 4", "KIND delete_edge 0 4", "GRAPH is not what"),
    "component of all": ("KIND suppress_vertex 4", "KIND take_component 0", "GRAPH is not what"),
    # GRAPH loses the edge 0 5, which suppressing vertex 4 keeps
    "graph not replayed": ("\nGRAPH\n0 1\n0 5\n", "\nGRAPH\n0 1\n", "GRAPH is not what"),
}


@pytest.mark.parametrize(
    "case",
    ["empty trace", "no root tangle", "step without kind", *STEP_EDITS,
     "weights not an object", "tangle index too large", "negative tangle index"],
)
def test_cli_refuses_bad_input_without_traceback(case, tmp_path, capsys):
    g = subdivided_k4()
    (tau,) = enumerate_tangles(g, 3)
    text = format_trace(reduce(g, tau))
    traces = {
        "empty trace": "",
        "no root tangle": "ROOT-GRAPH\n0 1\n",
        "step without kind": "".join(
            l for l in text.splitlines(True) if not l.startswith("KIND")
        ),
    }
    for name, (old, new, _) in STEP_EDITS.items():
        assert old in text
        traces[name] = text.replace(old, new, 1)
    tr, wt, tri = tmp_path / "trace.txt", tmp_path / "w.json", tmp_path / "tri.edges"
    tr.write_text(traces.get(case, text))
    wt.write_text("[1, 2]")
    tri.write_text(format_edgelist(complete_graph(3)))
    if case in traces:
        argv = ["witness", "--trace", str(tr)]
    elif case == "weights not an object":
        argv = ["transfer", "--trace", str(tr), "--weights", str(wt)]
    else:
        index = "5" if case == "tangle index too large" else "-1"
        argv = ["reduce", str(tri), "--k", "1", "--tangle-index", index]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err
    assert case not in STEP_EDITS or STEP_EDITS[case][2] in err


def test_cli_usage_errors():
    assert main(["tangles"]) == 2  # missing required args
    assert main(["tangles", "/nonexistent/file", "--k", "2"]) == 2
