"""One pass of one workload, in a fresh interpreter.

run.py starts this script once per pass.  It imports tanglekit from the
checkout's ``src``, builds the pass's inputs from the seed, times every
item, checks the outputs with layerbench/checks.py, and prints one JSON
object as its last line of standard output.  Time spent checking is not
part of any item.

    python3 layerbench/worker.py --workload p11-atlas7 --seed 1 --pass-index 0 \
        --trace 0 --workdir layerbench/results/work
"""

from __future__ import annotations

import argparse
import gc
import json
import random
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path
from time import perf_counter

import checks

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
K_P11 = (3, 4)
K_REDUCE = 3
K_RC = 3
# Every tenth connected atlas graph: a fixed sample that keeps the atlas's
# mix of sizes while a pass stays a few seconds long.
ATLAS_STRIDE = 10
# ell = 1 rainbows (hundreds of separations, a few crossings when there is
# no sun), the smallest ell = 0 rainbow of the acceptance grid (crossings
# and split families dominate),
# and the two M = 18 rainbows with a sun, long enough (M >= 6k) for an edge
# choice and extension, where one covering-triple scan over a large pool
# dominates.
RC_INSTANCES = [(M, 1, z) for z in (0, 1, 2) for M in (8, 12, 18)] + [(8, 0, 1)]


# Reported times are rescaled to a machine on which reference_time() reads
# REFERENCE_S, as this box (2-core Xeon VM, Python 3.11) does in its fast
# spells; in its slow spells it reads up to twice that.
REFERENCE_S = 0.00075
PROBE_EVERY_S = 0.05
_SMALL = frozenset((1, 2, 3))


def ready_clock():
    """System-wide monotonic time, comparable with the parent's clock."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def reference():
    """A fixed slice of the work tanglekit does: small frozensets, set
    algebra and dict updates, never touched by any change to tanglekit."""
    seen = {}
    for i in range(1500):
        s = frozenset((i % 97, i % 89, i % 83))
        seen[s] = seen.get(s, 0) + len(s & _SMALL)
    return seen


def reference_time():
    """Best of three runs of reference(), with the cyclic collector off so a
    collection of the program's heap is not charged to the probe."""
    gc.disable()
    try:
        times = []
        for _ in range(3):
            t0 = perf_counter()
            reference()
            times.append(perf_counter() - t0)
    finally:
        gc.enable()
    return min(times)


class Stopwatch:
    """Item times, raw and rescaled to the reference speed.

    This machine's speed drifts by up to 1.7x over seconds to minutes, which
    moves whole runs.  Every PROBE_EVERY_S of timed work, outside the timed
    spans, the stopwatch times reference() and rescales the work timed since
    the previous probe by REFERENCE_S over the mean of the two probes around
    it.  The program and the reference slow down together, so the rescaled
    time stays put while the raw time moves.
    """

    def __init__(self):
        self.items = []  # [name, raw seconds, rescaled seconds], None if failed
        self.probes = [reference_time()]
        self._pending = []  # (item index, raw seconds) since the last probe
        self._pending_s = 0.0

    def start(self, name):
        self.items.append([name, 0.0, 0.0])

    def add(self, raw):
        """Count raw seconds of timed work toward the current item."""
        self.items[-1][1] += raw
        self._pending.append((len(self.items) - 1, raw))
        self._pending_s += raw
        if self._pending_s >= PROBE_EVERY_S:
            self.probe()

    def fail(self):
        self.items[-1][1:] = [None, None]

    def probe(self):
        self.probes.append(reference_time())
        scale = 2 * REFERENCE_S / (self.probes[-2] + self.probes[-1])
        for i, raw in self._pending:
            if self.items[i][2] is not None:
                self.items[i][2] += raw * scale
        self._pending, self._pending_s = [], 0.0


def atlas7(Graph):
    """Connected graphs with 1 to 7 vertices, in atlas order."""
    import networkx as nx

    out = []
    for h in nx.graph_atlas_g():
        if 1 <= h.number_of_nodes() <= 7 and nx.is_connected(h):
            label = {v: i for i, v in enumerate(sorted(h.nodes()))}
            out.append(Graph(range(len(label)), [(label[u], label[v]) for u, v in h.edges()]))
    return out


def relabel(g, perm, Graph):
    return Graph([perm[v] for v in g.vertices], [(perm[u], perm[v]) for u, v in g.edges])


def random_perm(vertices, rng):
    image = list(vertices)
    rng.shuffle(image)
    return dict(zip(vertices, image))


def members_of(tangle):
    return [(s.small, s.big) for s in tangle.members]


# -- p11-atlas7 ------------------------------------------------------------


def setup_p11(tk, rng):
    graphs = atlas7(tk.Graph)[::ATLAS_STRIDE]
    lines = []
    for gid, g in enumerate(graphs):
        h = relabel(g, random_perm(g.vertices, rng), tk.Graph)
        lines.append((f"atlas{gid * ATLAS_STRIDE}", tk.graph6_encode(h)))
    rng.shuffle(lines)
    return {"lines": lines}


def run_p11(tk, state, workdir, out, sw):
    rows = {}
    out["checkpoint_bytes"] = 0
    for k in K_P11:
        checkpoint = workdir / f"p11-k{k}.jsonl"
        if checkpoint.exists():
            checkpoint.unlink()
        first = len(sw.items)
        marks = []

        def stream():
            # an item runs from the batch asking for its graph to the next ask
            for gid, line in state["lines"]:
                if marks:
                    sw.add(perf_counter() - marks[-1])
                sw.start(f"{gid}:k{k}")
                marks.append(perf_counter())
                yield gid, tk.graph6_decode(line)

        try:
            report = tk.verify_p11_batch(
                stream(), k, compute_weights=True, checkpoint_path=str(checkpoint)
            )
            sw.add(perf_counter() - marks[-1])
        except Exception:
            traceback.print_exc()
            sw.probe()
            del sw.items[first:]
            for gid, _ in state["lines"]:
                sw.start(f"{gid}:k{k}")
                sw.fail()
            continue
        out["checkpoint_bytes"] += checkpoint.stat().st_size
        checkpoint.unlink()
        rows[k] = report
    out["reports"] = rows


def check_p11(tk, state, out):
    problems, counts = [], {}
    for k, report in out.pop("reports").items():
        s = report["summary"]
        if s["graphs"] != len(state["lines"]) or s["malformed"] or s["failures"]:
            problems.append(f"k={k}: summary {s}")
        by_id = {r["id"]: r for r in report["rows"]}
        for gid, line in state["lines"]:
            row = by_id.get(gid)
            if row is None or "error" in row:
                problems.append(f"{gid} k={k}: row {row}")
                continue
            counts[f"{gid}:k{k}"] = row["tangles"]
            g = tk.graph6_decode(line)
            tangles = tk.enumerate_tangles(g, k)
            if len(tangles) != row["tangles"]:
                problems.append(f"{gid} k={k}: {row['tangles']} tangles reported, {len(tangles)} found")
            sizes = []
            for tau in tangles:
                problems += [f"{gid} k={k}: {p}" for p in checks.tangle_problems(
                    g.vertices, g.edges, k, members_of(tau))]
                sizes.append(checks.min_inducing_set_size(g.vertices, members_of(tau)))
            if row["max_set_size"] != max(sizes, default=0):
                problems.append(f"{gid} k={k}: max set {row['max_set_size']}, brute force {sizes}")
            if tangles and not (row["max_weight_total"] is not None
                                and row["max_weight_total"] <= row["max_set_size"]):
                problems.append(f"{gid} k={k}: max weight total {row['max_weight_total']}")
    out["tangle_counts"] = counts
    return problems


# -- reduce-atlas7 ---------------------------------------------------------


def setup_reduce(tk, rng):
    roots = []
    for gid, g in enumerate(atlas7(tk.Graph)[::ATLAS_STRIDE]):
        h = relabel(g, random_perm(g.vertices, rng), tk.Graph)
        for i, tau in enumerate(tk.enumerate_tangles(h, K_REDUCE)):
            roots.append((f"atlas{gid * ATLAS_STRIDE}/{i}", h, tau))
    rng.shuffle(roots)
    return {"roots": roots}


def run_reduce(tk, state, workdir, out, sw):
    results = []
    for rid, g, tau in state["roots"]:
        sw.start(rid)
        t0 = perf_counter()
        try:
            trace = tk.reduce(g, tau)
            terminal = trace.terminal_graph
            w = tk.find_inducing_weights(trace.terminal_tangle, len(terminal.vertices))
            w_root = tk.transfer_terminal_weights(trace, w)
            h = tk.witness_subgraph(trace)
            text = tk.pipeline.format_trace(trace)
            again = tk.pipeline.format_trace(tk.pipeline.parse_trace(text))
        except Exception:
            traceback.print_exc()
            sw.fail()
            continue
        sw.add(perf_counter() - t0)
        results.append((rid, g, tau, trace, w_root, h, text == again))
    out["results"] = results


def check_reduce(tk, state, out):
    problems, rules = [], {}
    out.update(steps=0, terminal_size_total=0, witness_edges_total=0)
    for rid, g, tau, trace, w_root, h, same_bytes in out.pop("results"):
        root = members_of(tau)
        mine = checks.tangle_problems(g.vertices, g.edges, tau.k, root)
        prev = root
        for n, step in enumerate(trace.steps, 1):
            cur = members_of(step.tangle)
            mine += [f"step {n}: {p}" for p in checks.tangle_problems(
                step.graph.vertices, step.graph.edges, tau.k, cur)]
            if step.kind == "delete_edge":
                mine += [f"step {n}: {p}" for p in checks.extends(prev, cur)]
            prev = cur
            rules[step.rule] = rules.get(step.rule, 0) + 1
        t = trace.terminal_graph
        mine += checks.stop_problems(t.vertices, t.edges, tau.k)
        mine += checks.weight_problems(dict(w_root.weights), root)
        mine += checks.witness_problems(g.vertices, g.edges, root, h.vertices, h.edges,
                                        t.vertices, t.edges)
        if not same_bytes:
            mine.append("trace round trip changed the bytes")
        problems += [f"{rid}: {p}" for p in mine]
        out["steps"] += len(trace.steps)
        out["terminal_size_total"] += len(t.vertices) + len(t.edges)
        out["witness_edges_total"] += len(h.edges)
    out["rules"] = rules
    return problems


# -- rc-synth --------------------------------------------------------------


def setup_rc(tk, rng):
    instances = []
    for M, ell, z in RC_INSTANCES:
        g, rc, clique = tk.synth_rc(M, ell, z, K_RC)
        perm = random_perm(g.vertices, rng)

        def image(vs):
            return frozenset(perm[v] for v in vs)

        h = relabel(g, perm, tk.Graph)
        rc2 = tk.RCDecomposition(h, tuple(image(b) for b in rc.bags), image(rc.sun), image(rc.cloud))
        instances.append((f"rc{M}-{ell}-{z}", h, rc2, image(clique), M >= 6 * K_RC and z > 0))
    rng.shuffle(instances)
    return {"instances": instances}


def run_rc(tk, state, workdir, out, sw):
    """Classification and extension, timed in pieces so checks stay out."""
    k = K_RC
    problems = []
    for name, g, rc, clique, extend in state["instances"]:
        sw.start(name)
        mine = []
        try:
            t0 = perf_counter()
            flags = tk.validate_rc(g, rc)
            seps = tk.enumerate_separations(g, k)
            sw.add(perf_counter() - t0)
            if not all(flags.values()):
                mine.append(f"validate_rc flags {flags}")
            for s in seps:
                t0 = perf_counter()
                kind = tk.classify_cross_or_slice(rc, s, k)
                info = tk.classify_crossing(rc, s, k)
                family = None
                if kind == "crossing" and info.direction == "clockwise":
                    family = tk.rainbow_cloud.split_family(rc, s, k)
                elif kind == "slicing":
                    tk.slices_rainbow(rc, s, k)
                sw.add(perf_counter() - t0)
                if family is not None:
                    mine += checks.family_problems(
                        {h: (f.small, f.big) for h, f in family.items()}, k)
            if extend:
                t0 = perf_counter()
                tau = tk.clique_tangle(g, clique, k)
                e, merged = tk.choose_edge(rc, tau)
                ext = tk.extend_after_deletion(g, tau, merged, e, relaxed=True, verify=True)
                sw.add(perf_counter() - t0)
                edges2 = checks.norm_edges(g.edges) - {tuple(sorted(e))}
                mine += checks.extension_problems(
                    g.vertices, edges2, k, members_of(ext), members_of(tau), clique)
        except Exception:
            traceback.print_exc()
            sw.fail()
            continue
        problems += [f"{name}: {p}" for p in mine[:5]]
    out["rc_problems"] = problems


def check_rc(tk, state, out):
    return out.pop("rc_problems")


WORKLOADS = {
    "p11-atlas7": (setup_p11, run_p11, check_p11),
    "reduce-atlas7": (setup_reduce, run_reduce, check_reduce),
    "rc-synth": (setup_rc, run_rc, check_rc),
}


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--pass-index", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--workdir", type=Path, required=True)
    args = p.parse_args(argv)

    probes = [reference_time()]
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import tanglekit as tk

    if not Path(tk.__file__).resolve().is_relative_to(src.resolve()):
        sys.exit(f"tanglekit imported from {tk.__file__}, not from {src}")

    setup, run, check = WORKLOADS[args.workload]
    rng = random.Random(f"{args.workload}/{args.seed}/{args.pass_index}")
    state = setup(tk, rng)
    ready = ready_clock()
    probes += [reference_time() for _ in range(3)]

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
        tracer.enabled = True
    out = {}
    args.workdir.mkdir(parents=True, exist_ok=True)
    sw = Stopwatch()
    run(tk, state, args.workdir, out, sw)
    sw.probe()
    if tracer is not None:
        tracer.enabled = False
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    problems = check(tk, state, out)
    result = {
        "ready": ready,
        "setup_scale": REFERENCE_S / statistics.mean(probes),
        "items": [(name, scaled) for name, _, scaled in sw.items],
        "raw_items": [(name, raw) for name, raw, _ in sw.items],
        "reference_s": statistics.median(sw.probes),
        "peak_rss_mb": rss_mb,
        "problems": problems[:20],
        "outputs": out,
    }
    if tracer is not None:
        result["layers"] = tracer.snapshot()
        result["absent"] = tracer.absent
    print(json.dumps(result))


if __name__ == "__main__":
    main()
