"""univchar benchmark: three closed-loop workloads, end-to-end metrics, and
a traced run for per-layer metrics.

    python3 perfbench/run.py --workload {tables,diamond,queries} --seed N \
        --seconds S --trace {0,1}

Run from the root of a checkout; univchar is imported from its `src/`.
Each pass runs the workload's whole seeded item stream in a fresh
interpreter (worker.py), so the module memos start empty and the peak RSS
is that workload's. Passes repeat until S seconds have gone by, at least
MIN_PASSES of them; every output is checked against the golden digests in
perfbench/golden/, frozen by freeze.py.

--trace 0 reports the end-to-end metrics: wall_s (summed item time of a
pass, median over passes), item_p50_ms (over every item of every pass),
setup_s (interpreter start, imports and input generation; median over the
start-up of every pass) and peak_rss_mb (median over passes).

--trace 1 alternates untraced and traced passes and reports the per-layer
metrics (see tracing.py); trace.overhead_ratio is the traced wall over the
untraced wall. Exact counts must agree across the traced passes.

Every metric is printed as `<name> <value> <unit>`; the last line of stdout
is one JSON object with `correct`, `attempted`, `failed` and `metrics`.
Exits 2 without a result when univchar or the goldens cannot be loaded.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time

from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

MIN_PASSES = 3
MIN_TRACED_PASSES = 2
PASS_TIMEOUT_S = 150
# stop starting passes once this much time has gone, whatever --seconds says
BUDGET_S = 120


class SetupError(Exception):
    """A worker could not import univchar or load the goldens."""


def spawn(workload, seed, trace=0, limit=None, perturb=0):
    """Run one worker; returns (setup seconds, result dict)."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", workload, "--seed", str(seed), "--trace", str(trace)]
    if limit is not None:
        cmd += ["--limit", str(limit)]
    if perturb:
        cmd += ["--perturb", str(perturb)]
    env = dict(os.environ, PYTHONHASHSEED="0", PYTHONDONTWRITEBYTECODE="1")
    env.pop("UNIVCHAR_CACHE", None)
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            text=True)
    try:
        ready = proc.stdout.readline()
        setup = time.perf_counter() - t0
        rest, _ = proc.communicate(timeout=PASS_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode == 2 or ready.strip() != "READY":
        raise SetupError("worker for %s exited %s before it was ready"
                         % (workload, proc.returncode))
    if proc.returncode != 0:
        raise RuntimeError("worker for %s exited %d"
                           % (workload, proc.returncode))
    return setup, json.loads(rest.strip().splitlines()[-1])


def src_lines():
    total = 0
    for dirpath, _, files in os.walk(os.path.join(ROOT, "src")):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(dirpath, name), "rb") as fh:
                    total += fh.read().count(b"\n")
    return total


def benchmark_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def run_workload(workload, seed, seconds, trace, limit=None, perturb=0):
    """Run passes for `seconds`; returns (printed lines, result object)."""
    start = time.perf_counter()
    untraced, traced, setups = [], [], []

    def done():
        elapsed = time.perf_counter() - start
        passes = len(traced) if trace else len(untraced)
        return (passes >= (MIN_TRACED_PASSES if trace else MIN_PASSES)
                and elapsed >= min(seconds, BUDGET_S))

    while not done():
        setup, res = spawn(workload, seed, 0, limit=limit, perturb=perturb)
        setups.append(setup)
        untraced.append(res)
        if trace:
            traced.append(spawn(workload, seed, 1, limit=limit,
                                perturb=perturb)[1])

    runs = untraced + traced
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    walls = [r["wall_s"] for r in untraced]
    lines = [
        "workload %s seed %d trace %d passes %d traced_passes %d"
        % (workload, seed, trace, len(untraced), len(traced)),
        "meta python %s nproc %d src_lines %d"
        % (platform.python_version(), os.cpu_count() or 0, src_lines()),
        "fail_ratio %.6g ratio (%d of %d items)"
        % (failed / attempted, failed, attempted),
    ]
    spec = benchmark_spec()
    if trace:
        produced, ok, extra, absent = layer_metrics(traced, walls)
        lines += extra
        wanted = spec["per_layer"]
    else:
        produced, ok, absent = end_to_end(untraced, setups, lines), True, []
        wanted = spec["end_to_end"]
    metrics = {}
    for m in wanted:
        value, _ = produced.pop(m["name"], (0, None))
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    for name in absent:
        lines.append("layer absent: %s (its metrics read 0)" % name)
    for name, m in metrics.items():
        lines.append("%s %.6g %s" % (name, m["value"], m["unit"]))
    for name, (value, unit) in sorted(produced.items()):
        lines.append("%s %.6g %s (printed only)" % (name, value, unit))
    result = {"correct": failed == 0 and ok, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    return lines, result


def end_to_end(passes, setups, lines):
    lat = sorted(x for r in passes for x in r["latencies_s"])
    k90 = math.ceil(0.9 * len(lat)) - 1
    if len(lat) - k90 - 1 >= 10:
        lines.append("item_p90_ms %.6g ms (%d samples, %d beyond p90)"
                     % (lat[k90] * 1e3, len(lat), len(lat) - k90 - 1))
    lines.append("item samples %d, setup samples %d" % (len(lat), len(setups)))
    return {
        "wall_s": (statistics.median(r["wall_s"] for r in passes), "s"),
        "item_p50_ms": (statistics.median(lat) * 1e3, "ms"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in passes),
                        "MB"),
    }


def layer_metrics(traced, untraced_walls):
    """Per-layer metrics from the traced passes; checks the exact counts
    repeat across passes and the span times add up."""
    lines = []
    ok = True
    exact = [exact_counts(r) for r in traced]
    if any(e != exact[0] for e in exact[1:]):
        ok = False
        lines.append("FAIL exact counts differ across traced passes")
    for r in traced:
        c = r["trace"]["check"]
        lines.append("span check: self %.6f s + outside spans %.6f s = %.6f s,"
                     " traced wall %.6f s: %s"
                     % (c["self_s"], c["remainder_s"],
                        c["self_s"] + c["remainder_s"], c["traced_wall_s"],
                        "ok" if c["ok"] else "FAIL"))
        ok = ok and c["ok"]

    def med(fn):
        return statistics.median(fn(r["trace"]) for r in traced)

    first = traced[0]["trace"]
    metrics = {name: (value, "count") for name, value in exact[0].items()}
    for layer in ("operators.bb", "schur.lr_skew", "schur.lr_prod"):
        calls = first["calls"].get(layer, 0)
        growth = first["memo_growth"].get(layer + ".memo_entries", 0)
        metrics[layer + ".hit_ratio"] = (
            1 - growth / calls if calls else 0.0, "ratio")
    for name in first["self_s"]:
        metrics[name + ".self_s"] = (med(lambda t: t["self_s"][name]), "s")
    metrics["kpoly.self_s"] = (med(lambda t: sum(
        v for k, v in t["self_s"].items() if k.startswith("kpoly."))), "s")
    metrics["trace.outside_s"] = (
        med(lambda t: t["check"]["remainder_s"]), "s")
    traced_wall = statistics.median(r["wall_s"] for r in traced)
    untraced_wall = statistics.median(untraced_walls)
    metrics["trace.overhead_ratio"] = (traced_wall / untraced_wall, "ratio")
    lines.append("traced wall %.6g s, untraced wall %.6g s"
                 % (traced_wall, untraced_wall))
    total = sum(first["self_s"].values()) or 1.0
    lines.append("self-time split: " + ", ".join(
        "%s %.0f%%" % (k, 100 * v / total) for k, v in
        sorted(first["self_s"].items(), key=lambda kv: -kv[1]) if v))
    absent = sorted(set(a for r in traced for a in r["trace"]["absent"]))
    return metrics, ok, lines, absent


def exact_counts(result):
    """Counts that must repeat exactly across passes and seeds."""
    t = result["trace"]
    out = {name + ".calls": n for name, n in t["calls"].items()}
    out.update(t["memo_entries"])
    out.update(t["counts"])
    out["cli.bytes_written"] = result["bytes_written"]
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        lines, result = run_workload(args.workload, args.seed, args.seconds,
                                     args.trace)
    except SetupError as exc:
        print("perfbench: %s" % exc, file=sys.stderr)
        return 2
    for line in lines:
        print(line)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
