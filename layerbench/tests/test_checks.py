"""Each output check accepts a genuine output and rejects a corrupted one.

    python3 -m pytest -q layerbench/tests
"""

import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1]
SRC = BENCH.parent / "src"
sys.path[:0] = [str(BENCH), str(SRC)]

import checks  # noqa: E402
import tanglekit as tk  # noqa: E402
from tanglekit.graphs import Graph  # noqa: E402

K = 3
# K4 with one edge subdivided and a pendant path: its one 3-tangle reduces
# through pendant deletions, component restrictions and a suppression.
GRAPH = Graph(range(7), [(0, 1), (0, 2), (0, 3), (1, 2), (1, 4), (4, 3), (2, 3), (3, 5), (5, 6)])


def members(tangle):
    return [(s.small, s.big) for s in tangle.members]


def root_and_trace():
    (tau,) = tk.enumerate_tangles(GRAPH, K)
    return tau, tk.reduce(GRAPH, tau)


def test_tangle_check_rejects_each_flipped_member():
    tau, _ = root_and_trace()
    good = members(tau)
    assert checks.tangle_problems(GRAPH.vertices, GRAPH.edges, K, good) == []
    for i, (a, b) in enumerate(good):
        flipped = good[:i] + [(b, a)] + good[i + 1:]
        assert checks.tangle_problems(GRAPH.vertices, GRAPH.edges, K, flipped)


def test_weight_check_rejects_weights_lowered_by_one():
    tau, trace = root_and_trace()
    w = tk.find_inducing_weights(trace.terminal_tangle, len(trace.terminal_graph.vertices))
    weights = dict(tk.transfer_terminal_weights(trace, w).weights)
    assert checks.weight_problems(weights, members(tau)) == []
    for v in weights:
        lowered = {**weights, v: weights[v] - 1}
        assert checks.weight_problems(lowered, members(tau))


def test_witness_check_rejects_a_missing_edge():
    tau, trace = root_and_trace()
    h, t = tk.witness_subgraph(trace), trace.terminal_graph
    args = (GRAPH.vertices, GRAPH.edges, members(tau), h.vertices)
    assert checks.witness_problems(*args, h.edges, t.vertices, t.edges) == []
    for e in h.edges:
        assert checks.witness_problems(*args, h.edges - {e}, t.vertices, t.edges)


def test_stop_check_rejects_an_unfinished_reduction():
    tau, trace = root_and_trace()
    t = trace.terminal_graph
    assert checks.stop_problems(t.vertices, t.edges, K) == []
    before = trace.steps[-2].graph
    assert checks.stop_problems(before.vertices, before.edges, K)


def test_family_check_rejects_splits_out_of_order():
    g, rc, _ = tk.synth_rc(4, 0, 1, K)
    s = next(s for s in tk.enumerate_separations(g, K)
             if tk.classify_crossing(rc, s, K).direction == "clockwise")
    family = {h: (f.small, f.big) for h, f in tk.rainbow_cloud.split_family(rc, s, K).items()}
    assert len(family) >= 2 and checks.family_problems(family, K) == []
    h1, h2 = sorted(family)[:2]
    family[h1], family[h2] = family[h2], family[h1]
    assert checks.family_problems(family, K)


def test_extension_check_rejects_a_flipped_member():
    g, rc, clique = tk.synth_rc(18, 1, 1, K)
    tau = tk.clique_tangle(g, clique, K)
    e, merged = tk.choose_edge(rc, tau)
    ext = members(tk.extend_after_deletion(g, tau, merged, e, relaxed=True, verify=False))
    edges = checks.norm_edges(g.edges) - {tuple(sorted(e))}
    args = (g.vertices, edges, K)
    assert checks.extension_problems(*args, ext, members(tau), clique) == []
    a, b = ext[0]
    assert checks.extension_problems(*args, [(b, a)] + ext[1:], members(tau), clique)


def test_separations_match_all_side_assignments():
    """The separator-based enumeration against trying all 3^n placements."""
    from itertools import product

    v, edges = GRAPH.vertices, GRAPH.edges
    brute = set()
    for place in product((0, 1, 2), repeat=len(v)):
        a = frozenset(x for x, p in zip(v, place) if p != 1)
        b = frozenset(x for x, p in zip(v, place) if p != 0)
        crossing = any({x, y} & (a - b) and {x, y} & (b - a) for x, y in edges)
        if len(a & b) < K and not crossing:
            brute.add((a, b))
    assert checks.separations(v, edges, K) == brute


def test_tracer_reports_missing_targets_and_counts_rebound_names():
    code = f"""
import sys
sys.path[:0] = [{str(BENCH)!r}, {str(SRC)!r}]
import tanglekit as tk
from tracer import Tracer
t = Tracer()
t.install([("tangles.verify", "tanglekit.tangles", ["is_tangle", "no_such_function"], None),
           ("gone", "tanglekit.no_such_module", ["f"], None)])
t.enabled = True
g = tk.complete_graph(4)
(tau,) = tk.enumerate_tangles(g, 3)
tk.reduce(g, tau)  # calls is_tangle through the name pipeline imported
print(t.absent, t.calls["tangles.verify"])
"""
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert out.stdout.split() == [
        "['tanglekit.tangles.no_such_function',", "'tanglekit.no_such_module.f']", "1"]
