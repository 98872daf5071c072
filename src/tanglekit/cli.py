"""Command-line front end.

Exit codes: 0 on success, 1 when a requested property fails to hold
(no tangle, no inducing set, a failed verification), 2 on usage errors
and on inputs that cannot be handled (unreadable or malformed files, a
given tangle that is not a tangle of its order, a trace that parse_trace
refuses, or a run out of recursion depth or memory), reported without a
traceback.
`verify` reports a non-tangle with exit code 1 instead.
"""

from __future__ import annotations

import argparse
import json
import sys

from .graphs import format_edgelist, read_edgelist, read_graph6_lines
from .inducing import (
    find_inducing_set,
    find_inducing_weights,
    format_p11_report,
    verify_p11_batch,
    WeightFunction,
)
from .pipeline import (
    format_trace,
    parse_trace,
    reduce as reduce_trace,
    transfer_terminal_weights,
    witness_subgraph,
)
from .rainbow_cloud import (
    choose_edge,
    clique_tangle,
    extend_after_deletion,
    format_rc,
    is_rc_decomposition,
    parse_rc,
    synth_rc,
    validate_rc,
)
from .tangles import (
    TangleError,
    check_axioms,
    enumerate_tangles,
    format_tangle,
    is_tangle,
    parse_tangle,
)


def _read(path):
    with open(path) as fh:
        return fh.read()


def _pick_tangle(args, g):
    if args.tangle is not None:
        t = parse_tangle(_read(args.tangle), g)
        if t.k != args.k:
            raise ValueError(f"{args.tangle} has order {t.k}, not --k {args.k}")
        if not is_tangle(g, t.k, t):
            raise ValueError(f"{args.tangle} is not a {t.k}-tangle of the graph")
        return t
    found = enumerate_tangles(g, args.k)
    if not found:
        return None
    if not 0 <= args.tangle_index < len(found):
        raise ValueError(
            f"--tangle-index {args.tangle_index} is outside 0..{len(found) - 1}"
        )
    return found[args.tangle_index]


def _write(path, text):
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


def cmd_tangles(args):
    g = read_edgelist(args.graph)
    found = enumerate_tangles(g, args.k)
    print(f"{len(found)} tangle(s) of order {args.k}")
    for i, t in enumerate(found):
        print(f"-- tangle {i}")
        sys.stdout.write(format_tangle(t))
    return 0


def cmd_verify(args):
    g = read_edgelist(args.graph)
    try:
        t = parse_tangle(_read(args.tangle), g)
    except TangleError:  # no map has these members: not a tangle
        t = None
    ok = t is not None and is_tangle(g, t.k, t)
    print(f"tangle: {ok}")
    if ok:
        for name, flag in check_axioms(t).items():
            print(f"{name}: {flag}")
    return 0 if ok else 1


def cmd_reduce(args):
    g = read_edgelist(args.graph)
    t = _pick_tangle(args, g)
    if t is None:
        print("no tangle of that order", file=sys.stderr)
        return 1
    trace = reduce_trace(g, t)
    _write(args.out, format_trace(trace))
    print(
        f"{len(trace.steps)} step(s); terminal: {len(trace.terminal_graph.vertices)}"
        f" vertices, {len(trace.terminal_graph.edges)} edges",
        file=sys.stderr,
    )
    return 0


def cmd_induce(args):
    g = read_edgelist(args.graph)
    t = _pick_tangle(args, g)
    if t is None:
        print("no tangle of that order", file=sys.stderr)
        return 1
    x = find_inducing_set(t, args.max_size)
    if x is not None:
        print("set:", " ".join(map(str, sorted(x))))
    if args.budget is not None:
        w = find_inducing_weights(t, args.budget)
        if w is not None:
            print("weights:", json.dumps({str(v): c for v, c in sorted(w.weights.items())}))
        elif x is None:
            return 1
    return 0 if x is not None else 1


def cmd_transfer(args):
    trace = parse_trace(_read(args.trace))
    raw = json.loads(_read(args.weights))
    if not isinstance(raw, dict):
        raise ValueError("--weights must hold a JSON object mapping vertex to weight")
    w_terminal = WeightFunction({int(v): c for v, c in raw.items()})
    w = transfer_terminal_weights(trace, w_terminal)
    print(json.dumps({str(v): c for v, c in sorted(w.weights.items())}))
    return 0


def cmd_witness(args):
    trace = parse_trace(_read(args.trace))
    h = witness_subgraph(trace)
    _write(args.out, format_edgelist(h))
    return 0


def _graph_stream(args):
    if args.stream is not None:
        for lineno, g in read_graph6_lines(_read(args.stream)):
            yield (f"{args.stream}:{lineno}", g)
    else:
        import os

        for name in sorted(os.listdir(args.dir)):
            path = os.path.join(args.dir, name)
            try:
                yield (name, read_edgelist(path))
            except (OSError, ValueError):
                yield (name, None)


def cmd_p11(args):
    if (args.stream is None) == (args.dir is None):
        print("error: give exactly one of --stream / --dir", file=sys.stderr)
        return 2
    report = verify_p11_batch(
        _graph_stream(args),
        args.k,
        max_set_size=args.max_set_size,
        compute_weights=args.weights,
        checkpoint_path=args.checkpoint,
    )
    _write(args.out, format_p11_report(report))
    return 0 if report["summary"]["failures"] == 0 else 1


def cmd_rc(args):
    if args.action == "synth":
        g, rc, clique = synth_rc(args.length, args.adhesion, args.sun, args.k)
        _write(args.graph_out, format_edgelist(g))
        _write(args.rc_out, format_rc(rc))
        print("clique:", " ".join(map(str, sorted(clique))), file=sys.stderr)
        return 0
    if args.graph is None or args.rc is None:
        print("error: --graph and --rc are required", file=sys.stderr)
        return 2
    g = read_edgelist(args.graph)
    rc = parse_rc(_read(args.rc), g)
    if args.action == "validate":
        report = validate_rc(g, rc)
        for name, flag in report.items():
            print(f"{name}: {flag}")
        return 0 if all(report.values()) else 1
    # action == "extend"
    clique = frozenset(args.clique)
    tau = clique_tangle(g, clique, args.k)
    e, merged = choose_edge(rc, tau)
    # verify=True raises unless the extension is a tangle of g - e
    extend_after_deletion(g, tau, merged, e, relaxed=args.relaxed, verify=True)
    print(f"deleted edge: {e[0]} {e[1]}")
    print("extension verified on the reduced graph: True")
    return 0


def build_parser():
    p = argparse.ArgumentParser(prog="tanglekit")
    sub = p.add_subparsers(dest="command", required=True)

    def common_tangle_args(q):
        q.add_argument("--k", type=int, required=True)
        q.add_argument("--tangle", help="tangle file (default: enumerate)")
        q.add_argument("--tangle-index", type=int, default=0)

    q = sub.add_parser("tangles", help="enumerate tangles of a graph")
    q.add_argument("graph")
    q.add_argument("--k", type=int, required=True)
    q.set_defaults(func=cmd_tangles)

    q = sub.add_parser("verify", help="check a tangle and its axioms")
    q.add_argument("graph")
    q.add_argument("--tangle", required=True)
    q.set_defaults(func=cmd_verify)

    q = sub.add_parser("reduce", help="run the reduction driver")
    q.add_argument("graph")
    common_tangle_args(q)
    q.add_argument("--out")
    q.set_defaults(func=cmd_reduce)

    q = sub.add_parser("induce", help="search inducing sets and weights")
    q.add_argument("graph")
    common_tangle_args(q)
    q.add_argument("--max-size", type=int, default=None)
    q.add_argument("--budget", type=int, default=None)
    q.set_defaults(func=cmd_induce)

    q = sub.add_parser("transfer", help="pull terminal weights back to the root")
    q.add_argument("--trace", required=True)
    q.add_argument("--weights", required=True, help="JSON vertex->weight")
    q.set_defaults(func=cmd_transfer)

    q = sub.add_parser("witness", help="extract a witnessing subgraph from a trace")
    q.add_argument("--trace", required=True)
    q.add_argument("--out")
    q.set_defaults(func=cmd_witness)

    q = sub.add_parser("p11", help="batch-verify inducing sets over a graph stream")
    q.add_argument("--k", type=int, required=True)
    q.add_argument("--stream", help="graph6 file, one graph per line")
    q.add_argument("--dir", help="directory of edge-list files")
    q.add_argument("--max-set-size", type=int, default=None)
    q.add_argument("--weights", action="store_true")
    q.add_argument("--checkpoint")
    q.add_argument("--out")
    q.set_defaults(func=cmd_p11)

    q = sub.add_parser("rc", help="rainbow-cloud synthesis / validation / extension")
    q.add_argument("action", choices=["synth", "validate", "extend"])
    q.add_argument("--graph")
    q.add_argument("--rc")
    q.add_argument("--k", type=int, default=3)
    q.add_argument("--length", type=int, default=8)
    q.add_argument("--adhesion", type=int, default=1)
    q.add_argument("--sun", type=int, default=1)
    q.add_argument("--clique", type=int, nargs="+", default=[])
    q.add_argument("--relaxed", action="store_true")
    q.add_argument("--graph-out")
    q.add_argument("--rc-out")
    q.set_defaults(func=cmd_rc)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code else 0
    try:
        return args.func(args)
    except (OSError, ValueError, RecursionError, MemoryError) as exc:
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
