"""Freeze the golden per-item digests of every workload.

    python3 perfbench/freeze.py [workload ...]

Runs each item once in canonical order, in one process, through the same
Runner the benchmark times, and re-derives every output by an independent
route before writing perfbench/golden/<workload>.json:

- tables: the rows of each written `ktable_<kind>.json` equal `hh_r`, the
  row-operator route, on every rung with |R| <= 11;
- diamond: the t=0 and t=1 specialisations of criterion 08 hold on every
  item (t=0 gives the straightened Schur function; t=1 gives the product of
  the factors' basis elements for a deformed product, and the product of
  their Schur functions for a row-operator table);
- queries: `duality_check` returns equal on every duality item, and every
  `d_polynomial` item agrees with the same two specialisations.

Refuses to write a golden file when a cross-check fails.
"""

from __future__ import annotations

import json
import os
import sys
import time

import workloads
from worker import SCRATCH, import_univchar

HERE = os.path.dirname(os.path.abspath(__file__))

HH_CROSS_CHECK_MAX = 11


class Oracle:
    """The specialisation checks of criterion 08, from univchar's parts."""

    def __init__(self):
        from univchar.core import LaurentPoly
        from univchar.schur import SymFunc, multiply, schur_of_vector
        from univchar.series import diamond_unit, to_diamond
        self.P = LaurentPoly
        self.SymFunc = SymFunc
        self.multiply = multiply
        self.schur_of_vector = schur_of_vector
        self.diamond_unit = diamond_unit
        self.to_diamond = to_diamond

    def at0(self, rects):
        """Kind-basis table at t=0: the straightened Schur function."""
        return self.schur_of_vector(tuple(x for r in rects for x in r))

    def at1(self, kind, rects, units):
        """Kind-basis table at t=1: the product of the factors, each factor
        the kind's basis element (units) or the Schur function."""
        prod = self.SymFunc.one()
        for r in rects:
            prod = self.multiply(prod, self.diamond_unit(r, kind) if units
                                 else self.SymFunc.schur(r))
        return self.to_diamond(prod, kind).func

    def specialise(self, rows, v):
        return self.SymFunc({lam: self.P.const(p.eval_int(v))
                             for lam, p in rows.items()})

    def table_ok(self, kind, rects, rows, units):
        return (self.specialise(rows, 0) == self.at0(rects)
                and self.specialise(rows, 1) == self.at1(kind, rects, units))


def cross_check(item, result, runner, oracle, memo):
    tag = item[0]
    if tag == "table":
        _, rects = item
        if workloads.weight(rects) > HH_CROSS_CHECK_MAX:
            return True
        _, out = result
        for kind in workloads.KINDS:
            with open(os.path.join(out, "ktable_%s.json" % kind)) as fh:
                written = json.load(fh)["K"]
            if written != runner.kpoly.hh_r(kind, rects).to_json()["K"]:
                return False
        return True
    if tag == "bb":
        _, kind, rects = item
        return oracle.table_ok(kind, rects, result.func.terms, True)
    if tag == "hh":
        _, kind, rects = item
        return oracle.table_ok(kind, rects, result.rows, False)
    if tag == "dual":
        return result[0] is True
    if tag == "dpoly":
        _, kind, lam, rects = item
        key = (kind, rects)
        if key not in memo:
            memo[key] = (oracle.at0(rects), oracle.at1(kind, rects, True))
        zero, one = memo[key]
        return (result.eval_int(0) == zero.coeff(lam).eval_int(0)
                and result.eval_int(1) == one.coeff(lam).eval_int(0))
    raise ValueError(tag)


def freeze(workload):
    items = workloads.ITEMS[workload]()
    stream = workloads.seeded_stream(workload, items, 0)
    workdir = os.path.join(SCRATCH, "freeze")
    os.makedirs(workdir, exist_ok=True)
    runner = workloads.Runner(workdir)
    oracle = Oracle()
    memo = {}
    digests = [None] * len(items)
    bad = []
    t0 = time.perf_counter()
    for idx, item in sorted(stream, key=lambda pair: pair[0]):
        result = runner.run(item)
        if not cross_check(item, result, runner, oracle, memo):
            bad.append(item)
        digests[idx] = workloads.digest(runner.output_bytes(item, result))
    os.rmdir(workdir)
    print("%s: %d items, %d cross-check failures, %.1f s"
          % (workload, len(items), len(bad), time.perf_counter() - t0),
          file=sys.stderr)
    if bad:
        for item in bad[:10]:
            print("  cross-check failed: %r" % (item,), file=sys.stderr)
        return False
    golden = {
        "workload": workload,
        "items": len(items),
        "item_set": workloads.item_set_digest(items),
        "digest_hex": workloads.DIGEST_HEX,
        "digests": "".join(digests),
    }
    os.makedirs(os.path.join(HERE, "golden"), exist_ok=True)
    with open(os.path.join(HERE, "golden", workload + ".json"), "w") as fh:
        json.dump(golden, fh, indent=1)
        fh.write("\n")
    return True


def main(argv):
    import_univchar()
    names = argv or list(workloads.WORKLOADS)
    devnull = open(os.devnull, "w")
    ok = True
    for name in names:
        real = sys.stdout
        sys.stdout = devnull
        try:
            ok = freeze(name) and ok
        finally:
            sys.stdout = real
    devnull.close()
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
