"""One pass of one workload, in a fresh interpreter.

Started by run.py. Imports univchar from the checkout's `src/`, builds the
seeded item stream, prints `READY` once set up, then runs every item in a
closed loop (each call starts after the previous one returned), checks each
output against its golden digest outside the timed region, and prints one
JSON result line.

Exit codes: 0 pass ran (items may have failed), 2 univchar or the goldens
could not be loaded.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import shutil
import sys
import time

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SCRATCH = os.path.join(ROOT, ".perfbench_tmp")


def import_univchar():
    """Import univchar from this checkout's sources, never from bytecode.

    No bytecode is read or written, so set-up costs the same in every run
    and leaves nothing behind in the checkout.
    """
    if not os.path.isfile(os.path.join(SRC, "univchar", "__init__.py")):
        raise ImportError("no univchar sources under %s" % SRC)
    sys.dont_write_bytecode = True
    sys.pycache_prefix = os.path.join(SCRATCH, "no-bytecode")
    sys.path.insert(0, SRC)
    import univchar
    if not os.path.abspath(univchar.__file__).startswith(SRC + os.sep):
        raise ImportError("univchar imported from %s" % univchar.__file__)


def load_golden(workload, items):
    path = os.path.join(HERE, "golden", workload + ".json")
    with open(path) as fh:
        golden = json.load(fh)
    if golden["item_set"] != workloads.item_set_digest(items):
        raise ValueError("golden %s was frozen for another item set" % path)
    width = golden["digest_hex"]
    blob = golden["digests"]
    return [blob[i:i + width] for i in range(0, len(blob), width)]


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--limit", type=int, default=None,
                    help="run only the first N items of the stream")
    ap.add_argument("--perturb", type=int, default=0,
                    help="corrupt the output of the first N items")
    args = ap.parse_args(argv)

    try:
        import_univchar()
        items = workloads.ITEMS[args.workload]()
        golden = load_golden(args.workload, items)
    except (ImportError, OSError, ValueError, KeyError) as exc:
        print("perfbench: cannot set up %s: %s" % (args.workload, exc),
              file=sys.stderr)
        return 2
    stream = workloads.seeded_stream(args.workload, items, args.seed)
    if args.limit is not None:
        stream = stream[:args.limit]
    workdir = os.path.join(SCRATCH, "w%d" % os.getpid())
    os.makedirs(workdir, exist_ok=True)
    runner = workloads.Runner(workdir)
    print("READY", flush=True)

    tracer = None
    if args.trace:
        from tracing import Tracer
        tracer = Tracer()
        tracer.install()
        memo_before = tracer.memo_entries()

    latencies = []
    failed = 0
    clock = time.perf_counter
    # univchar.cli prints the paths it wrote; only results go to stdout
    with open(os.devnull, "w") as devnull, \
            contextlib.redirect_stdout(devnull):
        for k, (idx, item) in enumerate(stream):
            if tracer:
                tracer.item = k
            t0 = clock()
            try:
                result = runner.run(item)
            except Exception as exc:  # an item that raises counts as failed
                result = exc
            latencies.append(clock() - t0)
            if tracer:
                tracer.item = -1
            if isinstance(result, Exception):
                failed += 1
                print("perfbench: item %r raised %r" % (item, result),
                      file=sys.stderr)
                continue
            data = runner.output_bytes(item, result)
            if k < args.perturb:
                data += b"\0"
            if workloads.digest(data) != golden[idx]:
                failed += 1
                print("perfbench: item %r differs from its golden digest"
                      % (item,), file=sys.stderr)

    out = {
        "attempted": len(latencies),
        "failed": failed,
        "wall_s": sum(latencies),
        "latencies_s": latencies,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
        "bytes_written": runner.bytes_written,
    }
    if tracer:
        tracer.uninstall()
        out["trace"] = tracer.report(latencies, memo_before)
        spans_dir = os.path.join(ROOT, ".perfbench_out")
        os.makedirs(spans_dir, exist_ok=True)
        tracer.write_spans(os.path.join(spans_dir,
                                        "spans-%s.bin" % args.workload))
    shutil.rmtree(workdir)
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
