"""Layered benchmark for tanglekit.

Runs one workload (or, without --workload, all of them one after another)
for about --seconds seconds.  Each pass of a workload is a fresh,
single-threaded interpreter running layerbench/worker.py on inputs drawn
from the seed; passes repeat until the time is used, at least three per run.
With --trace 0 the last line of output is a JSON object with the
end-to-end metrics; with --trace 1 passes alternate between untraced and
traced, and the JSON holds the per-layer metrics and the tracing overhead.

    python3 layerbench/run.py --workload reduce-atlas7 --seed 3 --seconds 30 --trace 0
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("p11-atlas7", "reduce-atlas7", "rc-synth")
MIN_PASSES = 3
PASS_TIMEOUT_S = 90


class BenchError(RuntimeError):
    pass


def clock():
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def run_pass(workload, seed, index, trace, workdir):
    env = dict(os.environ, PYTHONHASHSEED="0", OMP_NUM_THREADS="1",
               OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1", NUMBA_NUM_THREADS="1")
    env.pop("PYTHONPATH", None)
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--pass-index", str(index), "--trace", str(trace),
           "--workdir", str(workdir)]
    spawned = clock()
    proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True,
                          timeout=PASS_TIMEOUT_S)
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"{workload} pass {index} exited with {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["raw_setup_s"] = result.pop("ready") - spawned
    result["setup_s"] = result["raw_setup_s"] * result.pop("setup_scale")
    result["traced"] = bool(trace)
    return result


def item_medians(passes, key="items"):
    """Each item's median time over the passes.

    The machine slows by up to half for a second or two at a time, so a
    pass-level median still moves with the slow spells; an item's median
    over passes run at different times mostly misses them.
    """
    times = {}
    for r in passes:
        for name, t in r[key]:
            if t is not None:
                times.setdefault(name, []).append(t)
    return [statistics.median(ts) for ts in times.values()]


def tail(times):
    """Time of the item with exactly ten slower ones: the highest
    percentile with at least ten items beyond it.  0 below 40 items."""
    times = sorted(times)
    return times[-11] if len(times) >= 40 else 0.0


def summarize(workload, passes):
    """Fold the passes of one run into the metrics and the result line."""
    problems = [p for r in passes for p in r["problems"]]
    counts = {}
    for r in passes:
        for key, n in r["outputs"].get("tangle_counts", {}).items():
            if counts.setdefault(key, n) != n:
                problems.append(f"{key}: tangle count changed between relabellings")
    attempted = sum(len(r["items"]) for r in passes)
    failed = sum(1 for r in passes for _, t in r["items"] if t is None)
    plain = [r for r in passes if not r["traced"]]
    end_to_end = {
        "setup_s": (statistics.median(r["setup_s"] for r in passes), "s"),
        "wall_s": (sum(item_medians(plain)), "s"),
        "item_p50_ms": (1000 * statistics.median(item_medians(plain)), "ms"),
        "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in plain), "MB"),
    }
    traced = [r for r in passes if r["traced"]]
    per_layer = {}
    if traced:
        per_layer = layer_metrics(traced, {
            "item_tail_ms": 1000 * tail(item_medians(plain)),
            "trace.overhead": sum(item_medians(traced)) / end_to_end["wall_s"][0],
            "raw.wall_s": sum(item_medians(plain, "raw_items")),
            "raw.item_p50_ms": 1000 * statistics.median(item_medians(plain, "raw_items")),
            "reference.ms": 1000 * statistics.median(r["reference_s"] for r in plain),
        })
    return {
        "workload": workload,
        "passes": len(passes),
        "correct": not problems,
        "problems": problems[:20],
        "attempted": attempted,
        "failed": failed,
        "end_to_end": end_to_end,
        "per_layer": per_layer,
        "raw_passes": [{k: v for k, v in r.items() if k != "outputs"} for r in passes],
    }


def layer_metrics(traced, run_level):
    """Medians over the traced passes of every per-layer metric in
    BENCHMARK.json; a metric nothing recorded reads 0."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    names = {m["name"] for m in spec}
    rows = []
    for r in traced:
        out = r["outputs"]
        row = dict(r["layers"], **{
            "inducing.checkpoint.bytes": out.get("checkpoint_bytes", 0),
            "pipeline.steps": out.get("steps", 0),
            "pipeline.terminal_size_total": out.get("terminal_size_total", 0),
            "pipeline.witness_edges_total": out.get("witness_edges_total", 0),
            "trace.absent": len(r["absent"]),
        })
        for rule, n in out.get("rules", {}).items():
            key = "pipeline.rule." + rule.replace(" ", "_")
            key = key if key in names else "pipeline.rule.other"
            row[key] = row.get(key, 0) + n
        rows.append(row)
    return {
        m["name"]: (run_level[m["name"]] if m["name"] in run_level
                    else statistics.median(row.get(m["name"], 0) for row in rows), m["unit"])
        for m in spec
    }


def run_workload(workload, seed, seconds, trace, workdir):
    passes = []
    start = clock()
    while len(passes) < MIN_PASSES or clock() - start < seconds:
        traced = int(trace and len(passes) % 2 == 1)
        r = run_pass(workload, seed, len(passes), traced, workdir)
        passes.append(r)
        print(f"# {workload} pass {len(passes) - 1}{' traced' if traced else ''}: "
              f"{len(r['items'])} items in {sum(t or 0 for _, t in r['items']):.3f} s "
              f"(raw {sum(t or 0 for _, t in r['raw_items']):.3f} s), "
              f"setup {r['setup_s']:.3f} s (raw {r['raw_setup_s']:.3f} s), "
              f"reference {1000 * r['reference_s']:.3f} ms, "
              f"peak RSS {r['peak_rss_mb']:.0f} MB", flush=True)
        for name in r.get("absent", []):
            print(f"# absent: {name}", flush=True)
    return summarize(workload, passes)


def result_line(summary, trace):
    metrics = summary["per_layer"] if trace else summary["end_to_end"]
    return json.dumps({
        "correct": summary["correct"],
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    })


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=30)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not (ROOT / "src" / "tanglekit" / "__init__.py").is_file():
        print(f"error: no tanglekit sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    results = HERE / "results"
    workdir = results / f"work-{os.getpid()}"
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        summaries = [run_workload(w, args.seed, args.seconds, args.trace, workdir)
                     for w in workloads]
    except (BenchError, subprocess.TimeoutExpired) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for s in summaries:
        print(f"# {s['workload']}: {s['passes']} passes, attempted {s['attempted']}, "
              f"failed {s['failed']}, correct {s['correct']}")
        for problem in s["problems"]:
            print(f"#   problem: {problem}")
        for name, (value, unit) in (s["per_layer"] if args.trace else s["end_to_end"]).items():
            print(f"#   {name} = {value:.6g} {unit}")
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    results.mkdir(exist_ok=True)
    (results / name).write_text(json.dumps(summaries) + "\n")
    for s in summaries:
        print(result_line(s, args.trace))
    return 0


if __name__ == "__main__":
    sys.exit(main())
