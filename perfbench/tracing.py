"""Per-layer tracing for the traced run.

Wraps univchar's module-level entry points, replacing each name in every
univchar module that imported it. A wrapped call records a span (layer,
start, end, parent span, item id) in flat in-memory arrays, written out by
`write_spans` after the last item and never during one. The hottest names
(LaurentPoly arithmetic, lr_coefficient) are only counted.

A layer or counter whose names are all missing, because a later change
renamed or deleted them, is listed as absent and reads 0; the run goes on.
"""

from __future__ import annotations

import array
import functools
import json
import sys
import time

# span layer -> names wrapped for it, as (module, attribute path)
SPANS = {
    "cli.table": [("univchar.cli", "cmd_table")],
    "kpoly.ktable_via_recurrence": [("univchar.kpoly",
                                     "ktable_via_recurrence")],
    "kpoly.hh_r": [("univchar.kpoly", "hh_r")],
    "kpoly.k_via_schur_recurrence": [("univchar.kpoly",
                                      "k_via_schur_recurrence")],
    "kpoly.duality_check": [("univchar.kpoly", "duality_check")],
    "operators.bb": [("univchar.operators", "_bb")],
    "operators.parabolic": [("univchar.operators", "_parabolic_apply")],
    "operators.row": [("univchar.operators", "tilde_b_row"),
                      ("univchar.operators", "tilde_b_diamond_row")],
    "series.skew_by_series": [("univchar.series", "skew_by_series")],
    "schur.lr_skew": [("univchar.schur", "_skew_spectrum")],
    "schur.lr_prod": [("univchar.schur", "_prod_spectrum")],
    "schur.pieri": [("univchar.schur", n) for n in
                    ("skew_h", "skew_e", "multiply_h", "multiply_e")],
}

# layers whose spans are named by their kind argument, as <layer>.<kind>
SPLIT_BY_KIND = ("series.skew_by_series",)

# counter -> names whose calls it counts, without spans
COUNTS = {
    "schur.lr_coefficient.calls": [("univchar.schur", "lr_coefficient")],
    "core.laurent.ops": [("univchar.core", "LaurentPoly." + op) for op in
                         ("__add__", "__radd__", "__sub__", "__rsub__",
                          "__neg__", "__mul__", "__rmul__", "shift",
                          "subs_power")],
}

# memo metric -> dicts whose sizes it sums, as (module, attribute)
MEMOS = {
    "operators.bb.memo_entries": [("univchar.operators", "_BB_CACHE")],
    "operators.level_memo.entries": [("univchar.operators", "_LEVEL_CACHE")],
    "series.series_memo.entries": [("univchar.series", "_SERIES_CACHE")],
    "schur.lr_skew.memo_entries": [("univchar.schur", "_SKEW_CACHE")],
    "schur.lr_prod.memo_entries": [("univchar.schur", "_PROD_CACHE")],
    "schur.strip_memo.entries": [("univchar.schur", n) for n in
                                 ("_HSTRIP_ADD", "_ESTRIP_ADD",
                                  "_HSTRIP_DEL", "_ESTRIP_DEL")],
}


def _resolve(mod_name, path):
    """(owner, key, value) for a module attribute path, or None."""
    owner = sys.modules.get(mod_name)
    *outer, key = path.split(".")
    for part in outer:
        owner = getattr(owner, part, None)
    if owner is None or key not in vars(owner):
        return None
    return owner, key, vars(owner)[key]


def _entries(value):
    """Size of a memo: its entries, or the terms of a per-degree list memo."""
    if isinstance(value, dict) and value and all(
            isinstance(v, list) for v in value.values()):
        return sum(len(level) for rows in value.values() for level in rows)
    return len(value)


class Tracer:
    """Installs the wrappers, records spans and counts, summarises them."""

    def __init__(self, spans=SPANS, counts=COUNTS, memos=MEMOS):
        self.spans, self.counters, self.memos = spans, counts, memos
        self.names = []
        self.name_ids = {}
        self.starts = array.array("d")
        self.ends = array.array("d")
        self.name_of = array.array("H")
        self.parent = array.array("i")
        self.item_of = array.array("i")
        self.stack = []
        self.item = -1
        self.counts = {}
        self.absent = []
        self.undo = []

    def _name_id(self, name):
        if name not in self.name_ids:
            self.name_ids[name] = len(self.names)
            self.names.append(name)
        return self.name_ids[name]

    def _span_wrapper(self, fn, layer):
        starts, ends = self.starts, self.ends
        name_of, parent, item_of = self.name_of, self.parent, self.item_of
        stack = self.stack
        clock = time.perf_counter
        split = layer in SPLIT_BY_KIND
        nid = None if split else self._name_id(layer)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            i = len(starts)
            if split:
                kind = args[1] if len(args) > 1 else kwargs.get("kind")
                name_of.append(self._name_id("%s.%s" % (layer, kind)))
            else:
                name_of.append(nid)
            parent.append(stack[-1] if stack else -1)
            item_of.append(self.item)
            ends.append(0.0)
            stack.append(i)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()

        return wrapper

    def _count_wrapper(self, fn, name):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _patch(self, table, make):
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "univchar" or n.startswith("univchar.")]
        for name, targets in table.items():
            found = False
            for mod_name, path in targets:
                got = _resolve(mod_name, path)
                if got is None or not callable(got[2]):
                    continue
                found = True
                owner, key, fn = got
                wrapper = make(fn, name)
                places = [(owner, key)] + [
                    (m, k) for m in modules if m is not owner
                    for k, v in vars(m).items() if v is fn]
                for where, k in places:
                    setattr(where, k, wrapper)
                    self.undo.append((where, k, fn))
            if not found:
                self.absent.append(name)

    def install(self):
        """Wrap every listed name that exists; list the layers that do not."""
        self.counts.update((name, 0) for name in self.counters)
        self._patch(self.spans, self._span_wrapper)
        self._patch(self.counters, self._count_wrapper)

    def uninstall(self):
        for where, key, fn in reversed(self.undo):
            setattr(where, key, fn)
        self.undo.clear()

    def memo_entries(self):
        """memo metric -> summed entries now; absent memos read 0."""
        out = {}
        for name, targets in self.memos.items():
            found = [got[2] for got in (_resolve(m, a) for m, a in targets)
                     if got is not None]
            if not found and name not in self.absent:
                self.absent.append(name)
            out[name] = sum(_entries(v) for v in found)
        return out

    def summarise(self, item_seconds):
        """Calls and self seconds per span name, and the check of the split.

        Self time is a span's duration less its children's. The remainder is,
        per item, the item's time less its root spans. Self times plus the
        remainder add up to the summed item times by construction once every
        span lies inside an item; what the check tests is that no span lies
        outside an item and no self time or remainder is negative, i.e. no
        span outlasts its parent or its item.
        """
        n = len(self.starts)
        starts, ends, parent, item_of = (self.starts, self.ends, self.parent,
                                         self.item_of)
        child = [0.0] * n
        roots = [0.0] * len(item_seconds)
        outside_items = 0
        for i in range(n):
            d = ends[i] - starts[i]
            if parent[i] >= 0:
                child[parent[i]] += d
            elif 0 <= item_of[i] < len(roots):
                roots[item_of[i]] += d
            else:
                outside_items += 1
        calls = dict.fromkeys(self.names, 0)
        self_s = dict.fromkeys(self.names, 0.0)
        min_self = 0.0
        for i in range(n):
            name = self.names[self.name_of[i]]
            s = ends[i] - starts[i] - child[i]
            min_self = min(min_self, s)
            calls[name] += 1
            self_s[name] += s
        remainder = [t - r for t, r in zip(item_seconds, roots)]
        check = {
            "traced_wall_s": sum(item_seconds),
            "self_s": sum(self_s.values()),
            "remainder_s": sum(remainder),
            "min_self_s": min_self,
            "min_remainder_s": min(remainder, default=0.0),
            "spans_outside_items": outside_items,
            "ok": (min_self > -1e-6
                   and min(remainder, default=0.0) > -1e-6
                   and outside_items == 0),
        }
        return calls, self_s, check

    def report(self, item_seconds, memo_before):
        """Everything a traced pass reports, as one JSON-ready dict."""
        memo_after = self.memo_entries()
        calls, self_s, check = self.summarise(item_seconds)
        return {
            "calls": calls, "self_s": self_s, "check": check,
            "memo_entries": memo_after,
            "memo_growth": {k: memo_after[k] - memo_before[k]
                            for k in memo_after},
            "counts": dict(self.counts),
            "absent": list(self.absent),
        }

    def write_spans(self, path):
        """One JSON header line, then the raw span arrays in header order."""
        arrays = [("name", self.name_of), ("start", self.starts),
                  ("end", self.ends), ("parent", self.parent),
                  ("item", self.item_of)]
        header = {"names": self.names, "spans": len(self.starts),
                  "arrays": [[k, a.typecode, a.itemsize] for k, a in arrays],
                  "byteorder": sys.byteorder}
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for _, a in arrays:
                a.tofile(fh)
