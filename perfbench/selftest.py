"""Self-tests of the benchmark itself.

    python3 perfbench/selftest.py

- a perturbed output raises fail_ratio and makes the run incorrect;
- a traced pass whose wrapped names were renamed or deleted reports those
  layers as absent, reads them as 0 and still checks its span split;
- run.py exits non-zero, without a result line, in a directory that holds
  only BENCHMARK.json and perfbench/.

Prints one PASS or FAIL line per check; exits 1 if any failed.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import time

import run
import tracing
import workloads
from worker import ROOT, SCRATCH, import_univchar

HERE = os.path.dirname(os.path.abspath(__file__))


def check_perturbed():
    _, clean = run.run_workload("queries", 1, 0, 0, limit=200)
    _, bad = run.run_workload("queries", 1, 0, 0, limit=200, perturb=5)
    ratio = bad["failed"] / bad["attempted"]
    ok = (clean["correct"] and clean["failed"] == 0 and not bad["correct"]
          and bad["failed"] == 5 * run.MIN_PASSES and ratio > 0)
    return ok, "fail_ratio %.4g, 5 of 200 outputs perturbed per pass" % ratio


def check_absent_layers():
    import_univchar()
    spans = dict(tracing.SPANS)
    spans["operators.row"] = [("univchar.operators", "tilde_b_row_renamed")]
    spans["operators.gone"] = [("univchar.no_such_module", "f")]
    memos = dict(tracing.MEMOS)
    memos["operators.gone.memo_entries"] = [("univchar.operators", "_GONE")]
    counts = dict(tracing.COUNTS)
    counts["core.gone.ops"] = [("univchar.core", "NoSuchClass.__add__")]
    tracer = tracing.Tracer(spans, counts, memos)
    items = workloads.diamond_items()[:12]
    os.makedirs(SCRATCH, exist_ok=True)
    runner = workloads.Runner(SCRATCH)
    tracer.install()
    before = tracer.memo_entries()
    seconds = []
    try:
        for k, item in enumerate(items):
            tracer.item = k
            t0 = time.perf_counter()
            runner.run(item)
            seconds.append(time.perf_counter() - t0)
    finally:
        tracer.uninstall()
    report = tracer.report(seconds, before)
    result = {"trace": report, "bytes_written": 0, "wall_s": sum(seconds)}
    metrics, ok, _, absent = run.layer_metrics([result, result], [1.0])
    want = {"operators.row", "operators.gone", "operators.gone.memo_entries",
            "core.gone.ops"}
    good = (ok and want <= set(absent) and "operators.row.calls" not in metrics
            and metrics["operators.parabolic.calls"][0] > 0)
    return good, "absent: %s" % ", ".join(sorted(absent))


def check_stripped_dir():
    where = os.path.join(SCRATCH, "stripped")
    shutil.rmtree(where, ignore_errors=True)
    os.makedirs(where)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), where)
    shutil.copytree(HERE, os.path.join(where, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    try:
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "tables",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=where, capture_output=True, text=True, timeout=170)
    finally:
        shutil.rmtree(where)
    ok = proc.returncode != 0 and '"correct"' not in proc.stdout
    return ok, "exit %d, stderr %r" % (proc.returncode,
                                       proc.stderr.strip()[-80:])


def main():
    failed = 0
    for check in (check_perturbed, check_absent_layers, check_stripped_dir):
        ok, detail = check()
        failed += not ok
        print("%s %s: %s" % ("PASS" if ok else "FAIL", check.__name__, detail))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
