"""The three workloads: their fixed item sets, the seeded order a run walks
them in, how one item calls into univchar, and the canonical bytes of an
item's output that the golden digests are taken over.

Every item set is fixed, so the exact counts of a traced run (memo sizes,
LaurentPoly operations, bytes written) are the same for every seed. The seed
chooses the order of the `diamond` and `queries` items; `tables` always walks
its ladder smallest first. The outputs do not depend on the order.

Inputs are enumerated here, with the standard library only, so that the
benchmark calls nothing in univchar but the public entry points it measures.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import shutil

WORKLOADS = ("tables", "diamond", "queries")
KINDS = ("none", "box", "vdom", "hdom")
DIAMOND_KINDS = ("box", "vdom", "hdom")

# `univchar table` ladder, smallest first, ending at the ROADMAP's largest
# table. The middle rung is the median item; at about 0.4 s it is long
# enough that its time is not dominated by scheduling noise.
TABLE_LADDER = (
    ((2, 2), (1,)),
    ((3, 3), (2, 2), (1,)),
    ((4, 4), (2, 2), (2,), (1,)),
    ((4, 4), (3, 3), (1,), (1,)),
    ((4, 4), (3, 3), (2, 2), (1,)),
)

# The diamond sample is drawn once from a fixed generator, so it is the same
# for every run seed. It is uniform over the criterion 08 sweep (partition
# sequences with |R| <= 7, then rectangle sequences with |R| = 8), plus the
# tall column factor the sweep is slowest on.
DIAMOND_SAMPLE_SEED = "diamond-sample-v1"
DIAMOND_SAMPLE_SIZE = 60
DIAMOND_EXTRA = (((1, 1, 1, 1), (1,), (2,)),)

QUERY_DUALITY_MAX = 7
QUERY_DPOLY_MAX = 5

DIGEST_HEX = 8


# ---------------------------------------------------------------------------
# input enumeration

def partitions(n, max_part=None):
    """Partitions of n, largest parts first, in reverse lexicographic order."""
    if n == 0:
        yield ()
        return
    for head in range(min(n, max_part or n), 0, -1):
        for tail in partitions(n - head, head):
            yield (head,) + tail


def rectangles(n):
    return [(n // h,) * h for h in range(1, n + 1) if n % h == 0]


def sequences(total_max, pool):
    """Nonempty ordered sequences of shapes from pool(n), total size <= max."""
    def rec(budget):
        yield ()
        for n in range(1, budget + 1):
            for shape in pool(n):
                for tail in rec(budget - n):
                    yield (shape,) + tail

    return [s for s in rec(total_max) if s]


def weight(seq):
    return sum(sum(r) for r in seq)


def is_dominant(seq):
    return all(a[0] >= b[0] for a, b in zip(seq, seq[1:]))


def tables_items():
    return [("table", rects) for rects in TABLE_LADDER]


def diamond_items():
    psqs = sequences(7, lambda n: list(partitions(n)))
    seen = set(psqs)
    rect8 = [s for s in sequences(8, rectangles)
             if weight(s) == 8 and s not in seen]
    rng = random.Random(DIAMOND_SAMPLE_SEED)
    chosen = rng.sample(psqs + rect8, DIAMOND_SAMPLE_SIZE)
    chosen += [s for s in DIAMOND_EXTRA if s not in chosen]
    items = []
    for rects in chosen:
        for kind in DIAMOND_KINDS:
            items.append(("bb", kind, rects))
            items.append(("hh", kind, rects))
    return items


def queries_items():
    items = []
    for rects in sequences(QUERY_DUALITY_MAX, rectangles):
        if not is_dominant(rects):
            continue
        w = weight(rects)
        for kind in KINDS:
            for n in range(w + 1):
                for lam in partitions(n):
                    items.append(("dual", kind, lam, rects))
                    if kind != "none" and w <= QUERY_DPOLY_MAX:
                        items.append(("dpoly", kind, lam, rects))
    return items


ITEMS = {"tables": tables_items, "diamond": diamond_items,
         "queries": queries_items}


def item_set_digest(items):
    """Digest of the canonical item list, stored next to the goldens."""
    return hashlib.sha256(repr(items).encode()).hexdigest()[:16]


def seeded_stream(workload, items, seed):
    """(canonical index, item) pairs in the order a run with this seed uses.

    `tables` keeps its ladder order, smallest first, as a user growing a table
    would; the other workloads are shuffled.
    """
    order = list(range(len(items)))
    if workload != "tables":
        random.Random("%s:%d" % (workload, seed)).shuffle(order)
    return [(idx, items[idx]) for idx in order]


# ---------------------------------------------------------------------------
# running one item

class Runner:
    """Calls univchar's public entry points for one item.

    `run` is the timed part. `output_bytes` turns its result into the
    canonical bytes the golden digest is taken over, and cleans up.
    """

    def __init__(self, workdir):
        import univchar.cli
        import univchar.kpoly
        import univchar.operators
        import univchar.series
        self.cli = univchar.cli
        self.kpoly = univchar.kpoly
        self.operators = univchar.operators
        self.series = univchar.series
        self.workdir = workdir
        self.bytes_written = 0

    def run(self, item):
        tag = item[0]
        if tag == "table":
            _, rects = item
            out = os.path.join(self.workdir, "table")
            argv = ["table", "-R", json.dumps([list(r) for r in rects]),
                    "--kinds", "all", "--latex", "--json", "--out", out]
            code = self.cli.main(argv)
            return code, out
        if tag == "bb":
            _, kind, rects = item
            return self.series.to_diamond(
                self.operators.bb_diamond_r(kind, rects), kind)
        if tag == "hh":
            _, kind, rects = item
            return self.kpoly.hh_r(kind, rects)
        if tag == "dual":
            _, kind, lam, rects = item
            return self.kpoly.duality_check(kind, lam, rects)
        if tag == "dpoly":
            _, kind, lam, rects = item
            return self.operators.d_polynomial(kind, lam, rects)
        raise ValueError("unknown item tag %r" % (tag,))

    def output_bytes(self, item, result):
        tag = item[0]
        if tag == "table":
            code, out = result
            parts = [b"exit %d\n" % code]
            for name in sorted(os.listdir(out)):
                with open(os.path.join(out, name), "rb") as fh:
                    data = fh.read()
                self.bytes_written += len(data)
                parts.append(b"%s %d\n" % (name.encode(), len(data)))
                parts.append(data)
            shutil.rmtree(out)
            return b"".join(parts)
        if tag == "hh":
            return json.dumps(result.to_json()["K"], sort_keys=True).encode()
        if tag == "dual":
            equal, report = result
            return json.dumps([equal, report], sort_keys=True).encode()
        return str(result).encode()


def digest(data):
    return hashlib.sha256(data).hexdigest()[:DIGEST_HEX]
