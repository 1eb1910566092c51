"""Deformed character tables: the conjugated row operators, the tables they
generate, the Schur-side recurrence that serves as the fast production path,
and transpose duality.  The routes that check them (row by row, by
expansion into kind parabolics, through the connection between the two
deformed-product families, and the single-rectangle closed form) are in
oracles.

A KTable stores, for one kind and one sequence of partitions, the coefficient
polynomials of the deformed product in the basis of that kind, together with
the algorithm that produced it.  All algorithms must agree exactly; the
verification suite cross-checks them.

ktables builds the tables of several kinds from one type-A product and one
vdom series skew, box and hdom by one-row sweeps.  Every kind, none (the
empty tile, the Schur case) included, takes the same route.

k_via_schur_recurrence reads one coefficient without building the table:
series.series_coeff sums the Littlewood-Richardson spectra of lam against the
type-A product instead of skewing all of it.  It keeps no memo, and for a
one-off coefficient on a large R it is the route to take.

duality_check reads both of its coefficients from whole tables: the first
call on R builds the four tables of R and of the rearranged transposed
sequence R' (one ktables call each), each row kept with its text, formatted
once per distinct polynomial.  A sequence's first query for a kind then
builds one answer per lam in the support of either side, and every later
query is one lookup on its arguments as given.

hh_r telescopes the row operators.  Each row conjugates a squared-deformation
parabolic by the plain and t-scaled series of the kind; the positive and the
signed series are mutually inverse and skews commute, so the series between
neighbouring rows cancel and the chain is the t-scaled positive-series skew
of bb_r(R) at t -> t^2, which is the recurrence table.  hh_r therefore is
the one-kind case of ktables.  h_rows telescopes the same way along any list
of index vectors and any operand; oracles.hh_r_via_rows calls it once per
rectangle, applying the rows one by one, as the independent oracle.
"""

from __future__ import annotations

import json

from .core import (KINDS, LaurentPoly, as_partition, canonical_kind,
                   coeff_at, conjugate, dominant_rearrangement,
                   is_dominant_seq, is_rectangle, partition_key, seq_overlap,
                   seq_weight, KIND_TRANSPOSE)
from .schur import SymFunc
from .series import _one_row_sweep, series_coeff, skew_by_series
from .operators import bb_r, tilde_b_diamond_parabolic


class KTable:
    """Coefficient table of a deformed product in the basis of a kind."""

    __slots__ = ("kind", "rects", "rows", "provenance")

    def __init__(self, kind, rects, rows, provenance):
        self.kind = canonical_kind(kind)
        self.rects = tuple(as_partition(r) for r in rects)
        self.rows = {lam: poly for lam, poly in rows.items() if poly}
        self.provenance = provenance

    def coeff(self, lam):
        return coeff_at(self.rows, lam)

    def support(self):
        # partition_key order, by size and then by descending tuple, with
        # no key tuple per row: the second sort is stable
        return sorted(sorted(self.rows, reverse=True), key=sum)

    def to_json(self):
        return {
            "kind": self.kind,
            "R": [list(r) for r in self.rects],
            "K": [{"lambda": list(lam), "poly": self.rows[lam].to_json()}
                  for lam in self.support()],
            "provenance": self.provenance,
        }

    @classmethod
    def from_json(cls, obj):
        rows = {as_partition(rec["lambda"]): LaurentPoly.from_json(rec["poly"])
                for rec in obj["K"]}
        return cls(obj["kind"], [as_partition(r) for r in obj["R"]], rows,
                   obj.get("provenance", ""))

    def write(self, json_fh, tex_fh=None):
        """Write the files of `univchar table` to open text files, row by
        row in one walk of the support, and return the count of its rows
        with negative data (_negative) and the first one, or None.

        The JSON is json.dumps(self.to_json(), indent=1, sort_keys=True)
        and a newline, byte for byte: exponent keys sort as strings, so
        "10" precedes "2".  The LaTeX, written when tex_fh is given, is a
        tabular with one row per partition, each polynomial highest power
        first.
        """
        if tex_fh is not None:
            tex_fh.write(r"\begin{tabular}{ll}" "\n" r"$\lambda$ & "
                         r"$K^{\mathrm{%s}}_{\lambda;R}(t)$ \\\hline" "\n"
                         % self.kind)
        json_fh.write('{\n "K": ')
        sep = "[\n"
        count, first = 0, None
        for lam in self.support():
            poly = self.rows[lam]
            parts = [str(p) for p in lam]
            # a closing quote sorts before any digit or sign, so sorting the
            # entries sorts their keys
            entries = ',\n    '.join(sorted(['"%d": "%d"' % ev
                                             for ev in poly.c.items()]))
            lam_text = ("[\n    %s\n   ]" % ",\n    ".join(parts)
                        if parts else "[]")
            json_fh.write('%s  {\n   "lambda": %s,\n   "poly": {\n    %s\n'
                          '   }\n  }' % (sep, lam_text, entries))
            sep = ",\n"
            if tex_fh is not None:
                tex_fh.write(r"$(%s)$ & $%s$ \\" "\n"
                             % (",".join(parts), poly.format("", "t^{%d}")))
            if _negative(poly):
                first = first or (lam, poly)
                count += 1
        # the keys after "K" sort as R, kind, provenance; the stdlib writes
        # them at the same indent once its opening brace is cut off
        tail = json.dumps({"R": [list(r) for r in self.rects],
                           "kind": self.kind, "provenance": self.provenance},
                          indent=1, sort_keys=True)
        json_fh.write("%s,\n%s\n" % ("[]" if sep == "[\n" else "\n ]",
                                      tail[2:]))
        if tex_fh is not None:
            tex_fh.write("\\end{tabular}\n")
        return count, first

    def __repr__(self):
        bits = ", ".join("%r: %s" % (list(l), p) for l, p in
                         sorted(self.rows.items(),
                                key=lambda kv: partition_key(kv[0])))
        return "KTable(%s, R=%r, {%s})" % (
            self.kind, [list(r) for r in self.rects], bits)


def _negative(poly):
    """The row test of write and verify.positivity_report: a negative
    coefficient or a negative exponent."""
    return min(poly.c) < 0 or min(poly.c.values()) < 0


# ---------------------------------------------------------------------------
# conjugated row operators

def h_rows(kind, vectors, p):
    """The deformed rows of a kind along a list of index vectors, applied to
    p, telescoped as in hh_r: S-_1^perp S+_t^perp B_(nu_1) ... B_(nu_k)
    S-_t^perp S+_1^perp p, with B the squared-deformation parabolics.  That
    is four series passes whatever the number of vectors, and two when p is
    1, which S-_t^perp S+_1^perp fixes.  With one vector it is one row;
    oracles.h_row_via_expansion checks it there, and oracles.hh_r_via_rows
    applies it vector by vector."""
    kind = canonical_kind(kind)
    f = p
    if kind != "none" and f != SymFunc.one():
        f = skew_by_series(skew_by_series(f, kind, "+", 1), kind, "-", "t")
    for nu in reversed(vectors):
        f = tilde_b_diamond_parabolic("none", nu, f, 2)
    if kind != "none":
        f = skew_by_series(skew_by_series(f, kind, "+", "t"), kind, "-", 1)
    return f


def hh_r(kind, rects):
    """The recurrence table of a kind over a sequence of partitions: the
    row operators, telescoped.

    Write S+_s and S-_s for the positive and signed series of the kind at
    scale s (1 or t), and X^perp for the adjoint of multiplication by X.
    Each row is S-_1^perp S+_t^perp B_nu S-_t^perp S+_1^perp, with B_nu
    the squared-deformation parabolic.  S+_s S-_s = 1 and skews commute, so
    between two neighbouring rows S+_1^perp S-_1^perp and S-_t^perp
    S+_t^perp cancel.  On the vacuum S-_t^perp S+_1^perp 1 = 1, and
    to_diamond applies S+_1^perp, which cancels the leading S-_1^perp.
    What is left is S+_t^perp B_{R_1} ... B_{R_k} 1, the t-scaled skew of
    bb_r(R) at t -> t^2, so this is the recurrence table of ktables for
    the one kind: one series pass over the shared type-A product.
    oracles.hh_r_via_rows keeps the row-by-row chain as the oracle.
    """
    return ktables((kind,), rects)[canonical_kind(kind)]


# ---------------------------------------------------------------------------
# Schur-side recurrence (production path)

def ktables(kinds, rects):
    """Tables of several kinds over one sequence, as a dict kind -> KTable
    in the order of kinds: bb_r(R) at t -> t^2, skewed by the t-scaled
    positive series of each kind.  The vdom skew is taken once, box is its
    one-row sweep and hdom, when box is built too, the signed sweep of box
    (the factorisations in the series module); alone, hdom keeps its own
    series skew."""
    kinds = [canonical_kind(k) for k in kinds]
    rects = tuple(as_partition(r) for r in rects)
    base = bb_r(rects).subs_power(2)
    funcs = {"none": base}
    if "box" in kinds or "vdom" in kinds:
        funcs["vdom"] = skew_by_series(base, "vdom", "+", "t")
    if "box" in kinds:
        funcs["box"] = _one_row_sweep(funcs["vdom"], "t")
        if "hdom" in kinds:
            funcs["hdom"] = _one_row_sweep(funcs["box"], "t", -1)
    elif "hdom" in kinds:
        # kept: through the vdom skew and two sweeps, hdom alone took about
        # six times as long on the hdom operands of the diamond sample
        funcs["hdom"] = skew_by_series(base, "hdom", "+", "t")
    return {kind: KTable(kind, rects, funcs[kind].terms, "recurrence")
            for kind in kinds}


def k_via_schur_recurrence(kind, lam, rects):
    """One coefficient of the recurrence table, without building the table.

    bb_r is homogeneous of degree |R|, so t -> t^2 is applied once, to the
    coefficient, and the skew's t-scale is the shift by |R| - |lam|.  It
    writes no memo of its own: for a one-off coefficient on a large R it is
    the cheap route (0.2-0.4 s of CPU on ((5,5),(4,4),(3,3),(2,2),(1,)),
    where the four tables took 7 s, on one 2-vCPU machine).
    """
    lam = as_partition(lam)
    rects = tuple(as_partition(r) for r in rects)
    drop = seq_weight(rects) - sum(lam)
    return series_coeff(bb_r(rects), canonical_kind(kind),
                        lam).subs_power(2).shift(drop)


# ---------------------------------------------------------------------------
# duality

# duality_check's memos.  _TABLE_CACHE maps a canonical sequence R to the
# rows of its four tables, {kind: {lam: (poly, text)}}, built by one ktables
# call; every row is interned in _ROW_POLYS, which maps a polynomial to its
# (poly, str(poly)) pair, since the rows of all the tables repeat few
# distinct polynomials and each is formatted once.  _DUALITY_CACHE maps the
# canonical kind and R as given, in tuples, to (kind, canonical R, the
# transposed kind, R', 2 (overlap + |R|), answers), where answers maps every
# lam in the support of either side to (lam, 2 |lam|, equal, lhs text, rhs
# text).  _LAMBDA_CACHE maps lam as given, in a tuple, to (canonical lam,
# its conjugate, 2 |lam|); a rejected lam raises on every call and is never
# stored.
_TABLE_CACHE = {}
_ROW_POLYS = {}
_DUALITY_CACHE = {}
_LAMBDA_CACHE = {}
_ZERO_ROW = (LaurentPoly.zero(), "0")


def _interned_row(poly):
    row = _ROW_POLYS.get(poly)
    if row is None:
        row = _ROW_POLYS[poly] = (poly, str(poly))
    return row


def _table_rows(rects):
    """The rows of the four tables of a canonical sequence, by kind, as
    interned (poly, text) pairs."""
    tables = _TABLE_CACHE.get(rects)
    if tables is None:
        tables = {kind: {lam: _interned_row(poly)
                         for lam, poly in table.rows.items()}
                  for kind, table in ktables(KINDS, rects).items()}
        _TABLE_CACHE[rects] = tables
    return tables


def _lambda_data(lam):
    """(canonical lam, its conjugate, 2 |lam|) for lam given as a tuple."""
    data = _LAMBDA_CACHE.get(lam)
    if data is None:
        canon = as_partition(lam)
        data = _LAMBDA_CACHE[lam] = (canon, conjugate(canon), 2 * sum(canon))
    return data


def _duality_setup(key):
    """The per-sequence entry of duality_check for a (kind, R) key, with the
    answer of every lam in the support of either side: the rows of the kind
    over R and the conjugates of the rows of the transposed kind over R'.
    The inverse-t image is compared as a raw exponent dict; equal
    polynomials format identically, so only a disagreeing right-hand side
    is formatted."""
    kind, rects = key
    rects = tuple(as_partition(r) for r in rects)
    if not all(is_rectangle(r) for r in rects):
        raise ValueError("duality requires rectangles")
    if not is_dominant_seq(rects):
        raise ValueError("duality requires a dominant sequence")
    tkind = KIND_TRANSPOSE[kind]
    trects = dominant_rearrangement(tuple(conjugate(r) for r in rects))
    shift = 2 * (seq_overlap(rects) + seq_weight(rects))
    rows = _table_rows(rects)[kind]
    trows = _table_rows(trects)[tkind]
    answers = {}
    for lam in [*rows, *(_lambda_data(mu)[1] for mu in trows)]:
        if lam in answers:
            continue
        lam, lamt, size2 = _lambda_data(lam)
        lhs, lhs_text = trows.get(lamt, _ZERO_ROW)
        rhs = {shift - size2 - e: v
               for e, v in rows.get(lam, _ZERO_ROW)[0].c.items()}
        equal = rhs == lhs.c
        answers[lam] = (lam, size2, equal, lhs_text,
                        lhs_text if equal else str(LaurentPoly(rhs)))
    return kind, rects, tkind, trects, shift, answers


def duality_check(kind, lam, rects):
    """Exact transpose duality for a dominant sequence of rectangles.

    Compares the transposed-kind coefficient at the transposed index over the
    rearranged transposed rectangles against the degree-shifted inverse-t
    image of the original coefficient.  Returns (equal, report).

    Both coefficients are rows of whole tables of R and R', and the first
    call for a kind on R answers every lam in the support of either side
    (_duality_setup).  A later call is one lookup of kind and R and one of
    lam, on the arguments as given; only a miss (an alias, a list, a
    generator, a trailing zero, or a lam in neither table, where both sides
    are 0) canonicalizes and validates them.  Each report is built with
    fresh lists.  For a one-off coefficient on a large R,
    k_via_schur_recurrence costs far less than a table.
    """
    try:
        entry = _DUALITY_CACHE[kind, rects]
    except (KeyError, TypeError):
        key = (canonical_kind(kind), tuple(map(tuple, rects)))
        entry = _DUALITY_CACHE.get(key)
        if entry is None:
            entry = _DUALITY_CACHE[key] = _duality_setup(key)
    kind, rects, tkind, trects, shift, answers = entry
    try:
        answer = answers.get(lam)
    except TypeError:   # unhashable, such as a list
        answer = None
    if answer is None:
        lam, _, size2 = _lambda_data(tuple(lam))
        answer = answers.get(lam) or (lam, size2, True, "0", "0")
    lam, size2, equal, lhs_text, rhs_text = answer
    return equal, {
        "kind": kind, "lambda": list(lam), "R": list(map(list, rects)),
        "transposed_kind": tkind, "R_transposed": list(map(list, trects)),
        "lhs": lhs_text, "rhs": rhs_text, "shift": shift - size2,
    }
