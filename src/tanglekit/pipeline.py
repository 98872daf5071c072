"""The reduction driver: shrink a graph while its tangle survives.

Each step deletes an edge, suppresses a degree-2 vertex, or restricts to a
component, always carrying the tangle along by one of the survival
constructions and re-verifying the result.  The finished trace supports two
derived artifacts: a weight function pulled back from the terminal graph to
the root, and a small witnessing subgraph of the root graph assembled from
the root path that each terminal edge stands for.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import graphs as G
from .graphs import Graph
from .inducing import InducingError, WeightFunction, induces_weight
from .survival import (
    brute_force_extensions,
    restrict_to_component,
    survive_delete_edge_k1,
    survive_delete_edge_k2,
    survive_delete_pendant_edge,
    survive_suppress_vertex,
)
from .tangles import (
    Tangle,
    TangleError,
    _covered,
    _parse_members,
    extends,
    format_tangle,
    is_tangle,
    lift_subgraph,
    lift_suppression,
    rows_cover,
    subgraph_cover,
)


class PipelineError(ValueError):
    pass


@dataclass(frozen=True)
class ReductionStep:
    kind: str  # "delete_edge" | "suppress_vertex" | "take_component"
    detail: tuple  # the edge, (vertex,), or (smallest component label,)
    rule: str  # which construction fired
    tangle: Tangle

    @property
    def graph(self) -> Graph:
        return self.tangle.graph


@dataclass(frozen=True)
class ReductionTrace:
    root_graph: Graph
    root_tangle: Tangle
    steps: tuple = field(default_factory=tuple)

    @property
    def terminal_graph(self) -> Graph:
        return self.steps[-1].graph if self.steps else self.root_graph

    @property
    def terminal_tangle(self) -> Tangle:
        return self.steps[-1].tangle if self.steps else self.root_tangle


def _verify_step(prev_t, step: ReductionStep):
    """Step tangles hold maps: no covering triple of rows is tanglehood."""
    if step.tangle.k != prev_t.k or rows_cover(step.tangle):
        raise PipelineError(f"step {step.rule!r} produced a non-tangle")
    if step.kind == "delete_edge" and not extends(prev_t, step.tangle):
        raise PipelineError(f"step {step.rule!r} lost the tangle")


def _next_step(g: Graph, t: Tangle):
    """One reduction step, or None when the driver is finished.

    Case order: disconnected graph (k >= 1: a 0-tangle points at no
    component), small k edge deletion, pendant edge, degree-2 suppression,
    and finally an edge search: each edge in sorted order until
    search_extension, which returns every tangle of g - e that extends t,
    finds one.  So None means that no edge can go, and no (k + 1)-tangle
    is built, as the supertangle rule (survival) would.
    """
    k = t.k
    if k >= 1 and not g.is_connected() and len(g.vertices) > 1:
        comp, t2 = restrict_to_component(g, t)
        label = min(comp.vertices)
        return ReductionStep("take_component", (label,), "component restriction", t2)
    if k == 1 and g.edges:
        e = g.sorted_edges()[0]
        t2 = survive_delete_edge_k1(g, t, e)
        return ReductionStep("delete_edge", e, "order-1 deletion", t2)
    if k == 2 and len(g.edges) >= 2:
        e, t2 = survive_delete_edge_k2(g, t)
        return ReductionStep("delete_edge", e, "order-2 deletion", t2)
    if k >= 3:
        pendant = next((v for v in g.vertices if g.degree(v) == 1), None)
        if pendant is not None:
            e = tuple(sorted((pendant, next(iter(g.neighbors(pendant))))))
            t2 = survive_delete_pendant_edge(g, t, pendant)
            return ReductionStep("delete_edge", e, "pendant deletion", t2)
        deg2 = next((v for v in g.vertices if g.degree(v) == 2), None)
        if deg2 is not None:
            t2 = survive_suppress_vertex(g, t, deg2)
            return ReductionStep("suppress_vertex", (deg2,), "degree-2 suppression", t2)
        for e in g.sorted_edges():
            found = brute_force_extensions(g, t, e)
            if found:
                return ReductionStep("delete_edge", e, "edge search", found[0])
    return None


def reduce(g: Graph, t: Tangle) -> ReductionTrace:
    """Reduce until no step succeeds; every step is re-verified.

    Each step deletes an edge, suppresses a vertex or drops a component, so
    |V| + |E| falls with every step and stays >= 0: the root's |V| + |E|
    bounds the steps, and one more pass finds that no step is left (on
    the empty graph, that pass is the only one).  The root is checked on
    its map (see is_tangle)."""
    if not is_tangle(g, t.k, t):
        raise PipelineError("input is not a tangle")
    steps = []
    cur_g, cur_t = g, t
    for _ in range(len(g.vertices) + len(g.edges) + 1):
        step = _next_step(cur_g, cur_t)
        if step is None:
            break
        _verify_step(cur_t, step)
        steps.append(step)
        cur_g, cur_t = step.graph, step.tangle
    else:
        raise PipelineError("step limit exceeded")
    return ReductionTrace(g, t, tuple(steps))


def transfer_terminal_weights(trace: ReductionTrace, w_terminal) -> WeightFunction:
    """Pull a terminal inducing weight back to the trace's root graph.

    Every reduction step preserves vertex labels, so extending by zero is
    the identity on the stored weights; each intermediate tangle is checked
    to be induced on the way back.
    """
    w = WeightFunction(w_terminal)
    if not w.support <= trace.terminal_graph.vertex_set():
        raise InducingError("weight support leaves the terminal graph")
    if not induces_weight(trace.terminal_tangle, w):
        raise InducingError("weights do not induce the terminal tangle")
    for step in reversed(trace.steps[:-1]):
        if not induces_weight(step.tangle, w):
            raise InducingError(f"transfer broke at step {step.rule!r}")
    if not induces_weight(trace.root_tangle, w):
        raise InducingError("transfer failed to induce the root tangle")
    return w


# -- witnessing subgraph -----------------------------------------------------------


def trace_provenance(trace: ReductionTrace) -> dict:
    """The root-graph path each terminal edge stands for, by edge.

    A path runs from the edge's smaller end to its larger end.  Deleting an
    edge drops its path; suppressing v between u < w joins the paths of uv
    and vw into the path of uw, unless uw was already an edge, which keeps
    its own path; restricting to a component keeps that component's paths.
    """
    paths = {e: e for e in trace.root_graph.edges}
    prev = trace.root_graph
    for step in trace.steps:
        if step.kind == "delete_edge":
            del paths[tuple(sorted(step.detail))]  # a parsed trace may say "v u"
        elif step.kind == "suppress_vertex":
            (v,) = step.detail
            u, w = sorted(prev.neighbors(v))
            to_v = paths.pop((u, v) if u < v else (v, u))
            from_v = paths.pop((v, w) if v < w else (w, v))
            if not prev.has_edge(u, w):
                to_v = to_v if u < v else to_v[::-1]
                from_v = from_v if v < w else from_v[::-1]
                paths[(u, w)] = to_v + from_v[1:]
        else:
            paths = {e: paths[e] for e in step.graph.edges}
        prev = step.graph
    return paths


def is_witness(g: Graph, tau: Tangle, h: Graph) -> bool:
    """No three members' small-side subgraphs jointly contain h (the map's
    rows decide, see _covered).  An h that is not a subgraph of g is never
    contained.
    """
    if not (h.vertex_set() <= g.vertex_set() and h.edges <= g.edges):
        return True
    return not _covered(tau, subgraph_cover(g, h))


def witness_subgraph(trace: ReductionTrace) -> Graph:
    """A small subgraph of the root graph certifying the root tangle.

    The terminal graph's vertices (the branch vertices) plus, per terminal
    edge, the first edge of its root path; one edge per terminal edge.
    """
    paths = trace_provenance(trace)
    edges = [paths[e][:2] for e in trace.terminal_graph.sorted_edges()]
    vertices = set(trace.terminal_graph.vertices).union(*edges)
    h = Graph(sorted(vertices), edges)
    if not is_witness(trace.root_graph, trace.root_tangle, h):
        raise PipelineError("assembled subgraph fails the witness scan")
    return h


# -- trace serialization --------------------------------------------------------------


def format_trace(trace: ReductionTrace) -> str:
    """The root graph and tangle, each step's rule and kind, and the
    terminal tangle: everything else, parse_trace derives."""
    def block(title, body):
        return f"{title}\n{body.rstrip()}\n"

    out = [
        block("ROOT-GRAPH", G.format_edgelist(trace.root_graph)),
        block("ROOT-TANGLE", format_tangle(trace.root_tangle)),
    ]
    for n, s in enumerate(trace.steps, start=1):
        out.append(f"STEP {n}\nRULE {s.rule}\nKIND {s.kind} {' '.join(map(str, s.detail))}\n")
    if trace.steps:
        out.append(block("TANGLE", format_tangle(trace.terminal_tangle)))
    return "".join(out)


def parse_trace(text: str) -> ReductionTrace:
    """The trace a text certifies.  Each step's graph is replayed (_replay);
    the terminal tangle (TANGLE after the last step, or ROOT-TANGLE) must
    be a tangle of the last graph, and its lift back through the steps
    (lift_suppression or lift_subgraph) must be ROOT-TANGLE.  A GRAPH or
    TANGLE that a step still holds, as older traces do, must be what is
    derived there.  Tangles are compared by their maps, each given one read
    off its members (see Tangle).  Every other tangle returned is a lift;
    every refusal is a PipelineError naming its step, or trace."""
    root, steps = {}, []
    cur, body = root, None
    for raw in text.splitlines():
        line = raw.strip()
        if not line:
            continue
        head = line.split()[0]
        if head == "STEP":
            cur, body = {}, None
            steps.append(cur)
        elif head in ("ROOT-GRAPH", "ROOT-TANGLE", "RULE", "KIND", "GRAPH", "TANGLE"):
            body = cur[head] = [line]
        elif body is None:
            raise PipelineError("trace data before any section")
        else:
            body.append(line)

    def section(d, name, where):
        """(header line, body text) of a section that must be present."""
        if name not in d:
            raise PipelineError(f"{where} has no {name} section")
        return d[name][0], "\n".join(d[name][1:])

    def parsed(d, name, where, parse, *args):
        """parse of a section's body; a malformed body raises naming where."""
        try:
            return parse(section(d, name, where)[1], *args)
        except (G.GraphError, TangleError) as err:
            raise PipelineError(f"{where}: {err}") from None

    graphs = [parsed(root, "ROOT-GRAPH", "trace", G.parse_edgelist)]
    texts = [parsed(root, "ROOT-TANGLE", "trace", _parse_members)]  # (k, members)
    moves = []  # (kind, detail, rule) per step
    for n, d in enumerate(steps, start=1):
        where = f"step {n}"
        words = section(d, "KIND", where)[0].split()[1:]
        if not words:
            raise PipelineError(f"{where} has a KIND line without a kind")
        kind, detail = words[0], words[1:]
        if kind not in _DETAIL_ARITY:
            raise PipelineError(f"{where} has unknown kind {kind!r}")
        arity = _DETAIL_ARITY[kind]
        if len(detail) != arity or not all(x.isdecimal() for x in detail):
            raise PipelineError(
                f"{where}: {kind} needs {arity} vertex label(s), got {detail}"
            )
        detail = tuple(map(int, detail))
        try:
            graphs.append(_replay(graphs[-1], kind, detail))
        except G.GraphError as err:
            raise PipelineError(f"{where}: cannot replay {kind}: {err}")
        if "GRAPH" in d and parsed(d, "GRAPH", where, G.parse_edgelist) != graphs[-1]:
            raise PipelineError(f"{where}: GRAPH is not what {kind} makes of the previous graph")
        texts.append(parsed(d, "TANGLE", where, _parse_members)
                     if n == len(steps) or "TANGLE" in d else None)
        moves.append((kind, detail, section(d, "RULE", where)[0][len("RULE "):]))
    names = ["trace: ROOT-TANGLE"] + [f"step {n}: TANGLE" for n in range(1, len(steps) + 1)]

    def given(n):  # step n's TANGLE (ROOT-TANGLE at 0) as a Tangle, or None
        try:
            return Tangle(graphs[n], *texts[n])
        except (G.GraphError, TangleError):  # a negative order, or no map
            return None

    t = given(len(steps))
    if t is None or rows_cover(t):
        raise PipelineError(f"{names[-1]} is not a tangle of its graph")
    tangles = [t]
    for n in range(len(steps), 0, -1):  # lift step n's tangle to the graph before it
        kind, detail, _ = moves[n - 1]
        try:
            t = (lift_suppression(tangles[-1], graphs[n - 1], *detail) if kind == "suppress_vertex"
                 else lift_subgraph(tangles[-1], graphs[n - 1]))
        except (G.GraphError, TangleError) as err:
            raise PipelineError(f"step {n}: cannot lift across {kind}: {err}") from None
        if texts[n - 1] is not None and given(n - 1) != t:
            raise PipelineError(f"{names[n - 1]} is not the tangle lifted from the terminal TANGLE")
        tangles.append(t)
    tangles.reverse()
    return ReductionTrace(graphs[0], tangles[0], tuple(
        ReductionStep(*move, t) for move, t in zip(moves, tangles[1:])))


_DETAIL_ARITY = {"delete_edge": 2, "suppress_vertex": 1, "take_component": 1}


def _replay(g: Graph, kind, detail) -> Graph:
    """The graph a step of this kind and detail makes of g."""
    if kind == "delete_edge":
        return G.delete_edge(g, detail)
    if kind == "suppress_vertex":
        return G.suppress_vertex(g, *detail)
    comps = [c for c in g.component_vertex_sets() if detail[0] in c]
    return g.induced(comps[0] if comps else detail)  # a label outside g raises
