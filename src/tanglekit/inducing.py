"""Vertex sets and weight functions that pin down a tangle by majority.

A vertex set X induces a tangle when every member (A, B) satisfies
|X cap A| < |X cap B|; a weight function does the same with weighted sums.
Weights survive graph reductions by extension with zeros, which lets a
small terminal certificate be pulled back to the original graph; that
transfer along a reduction trace is ``pipeline.transfer_terminal_weights``.
"""

from __future__ import annotations

import json
from itertools import combinations

from .graphs import Graph
from .tangles import Tangle, enumerate_tangles


P11_WEIGHT_BUDGET = 32  # largest weight total verify_p11_batch tries per tangle


class InducingError(ValueError):
    pass


def check_limit(value, what):
    """Refuse a negative search limit (None means no limit)."""
    if value is not None and value < 0:
        raise InducingError(f"negative {what} {value}")


class WeightFunction:
    """Nonnegative integer vertex weights; zero entries are implicit."""

    def __init__(self, weights):
        if isinstance(weights, WeightFunction):
            weights = weights.weights
        weights = dict(weights)
        for v, w in weights.items():
            if isinstance(w, bool) or not isinstance(w, int):
                raise InducingError(f"weight of vertex {v!r} is not an integer: {w!r}")
        self.weights = {v: int(w) for v, w in weights.items() if w != 0}
        if any(w < 0 for w in self.weights.values()):
            raise InducingError("weights must be nonnegative")

    @classmethod
    def indicator(cls, vertices):
        return cls({v: 1 for v in vertices})

    @property
    def total(self):
        return sum(self.weights.values())

    @property
    def support(self):
        return frozenset(self.weights)

    def side(self, vertices) -> int:
        return sum(w for v, w in self.weights.items() if v in vertices)

    def __eq__(self, other):
        return isinstance(other, WeightFunction) and self.weights == other.weights

    def __hash__(self):
        return hash(frozenset(self.weights.items()))

    def __repr__(self):
        return f"WeightFunction({self.weights!r}, total={self.total})"


def induces_weight(tau: Tangle, w) -> bool:
    """Every member's big side strictly outweighs its small side (see
    find_inducing_weights for why the maximal members decide it)."""
    g, w = tau.graph, WeightFunction(w)
    held = [(g.mask_of((v,)), x) for v, x in w.weights.items() if v in g]
    return all(sum(x for b, x in held if b & neg) < sum(x for b, x in held if b & pos)
               for neg, pos in _strict_parts(tau))


def induces_set(tau: Tangle, x) -> bool:
    """induces_weight for the indicator of x (see find_inducing_set)."""
    return induces_weight(tau, WeightFunction.indicator(x))


def _strict_parts(tau: Tangle):
    """(small - big, big - small) as vertex-index masks, per <=-maximal member."""
    return [(a & ~b, b & ~a) for a, b in tau.maximal_masks()]


def find_inducing_set(tau: Tangle, max_size=None):
    """Smallest inducing vertex set, lexicographic tiebreak, else None.

    Sizes run from 0 to max_size (default: all vertices): the empty set
    induces exactly the tangles with no members, the 0-tangles.  Within a
    size, index combinations come in lexicographic order, which is label
    order, so the first inducing one is the answer.

    Only the <=-maximal members are checked.  If s <= t then
    small(s) - big(s) is inside small(t) - big(t) and big(s) - small(s)
    contains big(t) - small(t), so a set that outvotes t outvotes s; and
    every member lies below a maximal one.
    """
    g = tau.graph
    n = len(g.vertices)
    check_limit(max_size, "set size bound")
    if max_size is None:
        max_size = n
    cons = _strict_parts(tau)
    bits = [1 << i for i in range(n)]
    for size in range(max_size + 1):
        for combo in combinations(bits, size):
            x = sum(combo)  # distinct bits: the sum is the union
            if all((x & neg).bit_count() < (x & pos).bit_count() for neg, pos in cons):
                return frozenset(g.labels_of(x))
    return None


def find_inducing_weights(tau: Tangle, budget):
    """A minimum-total weight function inducing tau with total <= budget.

    Exact search: totals ascending, and for each total the weight vectors
    depth first, vertex by vertex in label order with each weight
    ascending.  A node is dropped when some member's balance
    w(big - small) - w(small - big) over the weights set so far, plus the
    remaining budget if a vertex of big - small is still unweighted, is
    below 1: no completion can tip that member toward its big side.

    Only the <=-maximal members are checked.  If s <= t then
    big(t) - small(t) is inside big(s) - small(s) and small(t) - big(t)
    contains small(s) - big(s), so for nonnegative weights t's balance is
    at most s's, and an unweighted vertex on t's side is one on s's side.
    Every member lies below a maximal one, so a node that passes every
    maximal member passes every member: the search prunes the same nodes
    in the same order as over all members.  The balances are kept per
    maximal member, updated as weights are set and cleared.
    """
    check_limit(budget, "weight budget")
    g = tau.graph
    n = len(g.vertices)
    cons = _strict_parts(tau)
    # moves[i]: (member, +1 or -1) for each balance that vertex i enters
    moves = [
        [(j, 1 if pos >> i & 1 else -1) for j, (neg, pos) in enumerate(cons)
         if (neg | pos) >> i & 1]
        for i in range(n)
    ]
    # live[i]: members with a vertex of big - small at index >= i, whose
    # balance the remaining budget can still raise; done[i]: the rest
    live = [[j for j, (_, pos) in enumerate(cons) if pos >> i] for i in range(n + 1)]
    done = [[j for j, (_, pos) in enumerate(cons) if not pos >> i] for i in range(n + 1)]

    def first_of_total(total):
        w = [0] * n
        bal = [0] * len(cons)
        i, rem = 0, total  # the node: weights of vertices < i set, rem left
        while True:
            if all(bal[j] > 0 for j in done[i]) and all(
                bal[j] + rem > 0 for j in live[i]
            ):
                if i < n:
                    i += 1  # first child: weight 0 on vertex i
                    continue
                if rem == 0:
                    return w
            # next sibling: one more unit on vertex i - 1, after clearing
            # the vertices whose weights are used up
            while not rem and i:
                i -= 1
                x = w[i]
                if x:
                    w[i] = 0
                    rem += x
                    for j, c in moves[i]:
                        bal[j] -= c * x
            if i == 0:
                return None
            w[i - 1] += 1
            rem -= 1
            for j, c in moves[i - 1]:
                bal[j] += c

    for total in range(budget + 1):
        got = first_of_total(total)
        if got is not None:
            return WeightFunction(zip(g.vertices, got))
    return None


# -- batch verification ------------------------------------------------------------


_ROW_TYPES = {"id": str, "tangles": int, "failures": int, "max_set_size": int,
              "max_weight_total": (int, type(None))}  # a p11 row's fields


def _load_checkpoint(path, params):
    """Finished p11 rows by id, from a checkpoint of JSON lines.

    The first line, {"p11": params}, records the parameters the rows were
    computed with; a new or empty checkpoint gets it.  A checkpoint
    written with other parameters, or with none recorded, is refused with
    a ValueError naming both, and so is a later line that is not a row.

    A crash mid-append leaves a torn last line, header included.  A last
    line that does not parse or lacks its newline is dropped, and the file
    is cut back to the end of the line before it, so that row is computed
    again and the next append starts a fresh line.  A bad line anywhere
    else still raises.
    """
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except FileNotFoundError:
        data = b""
    *lines, tail = data.split(b"\n")
    done, keep, header = {}, 0, {"p11": params}
    for i, line in enumerate(lines):
        try:
            row = json.loads(line)
        except ValueError:
            if tail or i < len(lines) - 1:
                raise
            break
        if i == 0:
            if row != header:
                got = row.get("p11") if isinstance(row, dict) else None
                got = json.dumps(got) if got else "no parameters"
                raise ValueError(f"checkpoint {path} was written with {got},"
                                 f" not {json.dumps(params)}")
        elif (isinstance(row, dict) and row.keys() == _ROW_TYPES.keys()
              and all(isinstance(row[f], t) for f, t in _ROW_TYPES.items())):
            done[row["id"]] = row
        else:
            raise ValueError(f"checkpoint {path}, line {i + 1}: not a p11 row")
        keep += len(line) + 1
    if keep < len(data) or not keep:
        with open(path, "a") as fh:  # creates a missing checkpoint
            fh.truncate(keep)
            if not keep:
                fh.write(json.dumps(header) + "\n")
    return done


def verify_p11_batch(
    graphs,
    k: int,
    max_set_size=None,
    compute_weights: bool = False,
    checkpoint_path=None,
):
    """Per-graph inducing-set verdicts over a stream of (id, Graph) pairs.

    Returns {"rows": [...], "summary": {...}}.  With a checkpoint path,
    finished rows are appended as JSON lines and skipped on rerun; the
    checkpoint is bound to k, max_set_size and compute_weights.  An entry
    that is not a Graph gets a "malformed entry" row; the empty graph is a
    graph, with its one 0-tangle and no tangle of higher order.
    """
    check_limit(max_set_size, "set size bound")
    params = {"k": k, "max_set_size": max_set_size, "weights": bool(compute_weights)}
    done = {} if checkpoint_path is None else _load_checkpoint(checkpoint_path, params)
    rows = []
    for gid, g in graphs:
        gid = str(gid)
        if gid in done:
            rows.append(done[gid])
            continue
        if not isinstance(g, Graph):
            rows.append({"id": gid, "error": "malformed entry"})
            continue
        tangles = enumerate_tangles(g, k)
        set_sizes, weight_totals, failures = [], [], 0
        for tau in tangles:
            x = find_inducing_set(tau, max_set_size)
            if x is None:
                failures += 1
                continue
            set_sizes.append(len(x))
            if compute_weights:
                w = find_inducing_weights(tau, P11_WEIGHT_BUDGET)
                weight_totals.append(w.total if w is not None else None)
        row = {
            "id": gid,
            "tangles": len(tangles),
            "failures": failures,
            "max_set_size": max(set_sizes, default=0),
            "max_weight_total": max(
                (t for t in weight_totals if t is not None), default=None
            ),
        }
        rows.append(row)
        if checkpoint_path is not None:
            with open(checkpoint_path, "a") as fh:
                fh.write(json.dumps(row) + "\n")
    good = [r for r in rows if "error" not in r]
    summary = {
        "k": k,
        "graphs": len(rows),
        "malformed": len(rows) - len(good),
        "tangles": sum(r["tangles"] for r in good),
        "failures": sum(r["failures"] for r in good),
        "max_set_size": max((r["max_set_size"] for r in good), default=0),
    }
    return {"rows": rows, "summary": summary}


def format_p11_report(report) -> str:
    lines = [f"{'graph':<24} {'tangles':>8} {'failures':>9} {'max set':>8} {'max wt':>7}"]
    for r in report["rows"]:
        if "error" in r:
            lines.append(f"{r['id']:<24} {r['error']}")
            continue
        wt = r.get("max_weight_total")
        lines.append(
            f"{r['id']:<24} {r['tangles']:>8} {r['failures']:>9}"
            f" {r['max_set_size']:>8} {wt if wt is not None else '-':>7}"
        )
    lines.append("SUMMARY " + json.dumps(report["summary"], sort_keys=True))
    return "\n".join(lines) + "\n"
