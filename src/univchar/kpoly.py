"""Deformed character tables: the conjugated row operators, the tables they
generate, the Schur-side recurrence that serves as the fast production path,
the single-rectangle closed form and transpose duality.  The routes that
check them (row by row, by expansion into kind parabolics, and through the
connection between the two deformed-product families) are in oracles.

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
sequence R' (one ktables call each), and later calls on either are lookups.
Each row is kept with its text, formatted once per distinct polynomial, and
each lam is validated and conjugated once: a repeated call conjugates
nothing, and formats nothing unless its two sides disagree.

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

from .core import (KINDS, LaurentPoly, as_partition, canonical_kind,
                   conjugate, dominant_rearrangement, is_dominant_seq,
                   is_rectangle, kind_partitions_of, partition_key,
                   seq_overlap, seq_weight, KIND_TRANSPOSE)
from .schur import SymFunc
from .series import _one_row_sweep, _series_coeff, skew_by_series
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
        return self.rows.get(as_partition(lam), LaurentPoly.zero())

    def support(self):
        return sorted(self.rows, key=partition_key)

    def same_rows(self, other):
        return self.rows == other.rows

    def positivity_report(self):
        """Rows with a negative coefficient or a negative exponent.

        Nonnegativity is an observed property for dominant rectangle
        sequences; violations are reported, never silently accepted.
        """
        bad = []
        for lam in self.support():
            poly = self.rows[lam]
            if any(v < 0 for v in poly.c.values()) or \
               any(e < 0 for e in poly.c):
                bad.append((lam, poly))
        return bad

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

    def to_latex(self):
        lines = [r"\begin{tabular}{ll}",
                 r"$\lambda$ & $K^{\mathrm{%s}}_{\lambda;R}(t)$ \\\hline"
                 % self.kind]
        for lam in self.support():
            poly = self.rows[lam].format("", "t^{%d}")
            lines.append(r"$%s$ & $%s$ \\" % (_latex_partition(lam), poly))
        lines.append(r"\end{tabular}")
        return "\n".join(lines) + "\n"

    def __repr__(self):
        bits = ", ".join("%r: %s" % (list(l), p) for l, p in
                         sorted(self.rows.items(),
                                key=lambda kv: partition_key(kv[0])))
        return "KTable(%s, R=%r, {%s})" % (
            self.kind, [list(r) for r in self.rects], bits)


def _latex_partition(lam):
    return "(" + ",".join(str(p) for p in lam) + ")"


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
    return {kind: KTable(kind, rects, dict(funcs[kind].terms), "recurrence")
            for kind in kinds}


def k_via_schur_recurrence(kind, lam, rects):
    """One coefficient of the recurrence table, without building the table.

    bb_r is homogeneous of degree |R|, so t -> t^2 is applied once, to the
    coefficient, and the skew's t-scale is the shift by |R| - |lam|.  It
    writes no memo of its own: for a one-off coefficient on a large R it is
    the cheap route (0.4 s of CPU on ((5,5),(4,4),(3,3),(2,2),(1,)), where
    the four tables took 14 s).
    """
    lam = as_partition(lam)
    rects = tuple(as_partition(r) for r in rects)
    drop = seq_weight(rects) - sum(lam)
    return _series_coeff(bb_r(rects), canonical_kind(kind),
                         lam).subs_power(2).shift(drop)


# ---------------------------------------------------------------------------
# single rectangle closed form

def single_rectangle_table(kind, rect):
    """Closed form for a one-rectangle sequence: rotated complements of the
    kind subshapes of the rectangle, graded by their size."""
    kind = canonical_kind(kind)
    rect = as_partition(rect)
    if not is_rectangle(rect):
        raise ValueError("not a rectangle: %r" % (rect,))
    from .core import rotate_complement
    nrows, ncols = len(rect), rect[0]
    out = {}
    for m in range(nrows * ncols + 1):
        for mu in kind_partitions_of(m, kind, max_len=nrows):
            if mu and mu[0] > ncols:
                continue
            out[rotate_complement(mu, rect)] = LaurentPoly.t(m)
    return KTable(kind, (rect,), out, "single-rectangle")


# ---------------------------------------------------------------------------
# duality

# duality_check's memos.  _TABLE_CACHE maps a canonical sequence R to the
# rows of its four tables, {kind: {lam: (poly, text)}}, built by one ktables
# call; every row is interned in _ROW_POLYS, which maps a polynomial to its
# (poly, str(poly)) pair, since the rows of all the tables repeat few
# distinct polynomials and each is formatted once.  _DUALITY_CACHE maps the
# canonical kind and R as given, in tuples, to (canonical R, the transposed
# kind, R', 2 (overlap + |R|), rows, rows of the transposed kind over R').
# _LAMBDA_CACHE maps lam as given, in a tuple, to (canonical lam, its
# conjugate, 2 |lam|); a rejected lam raises on every call and is never
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


def _duality_setup(key):
    """The per-sequence data of duality_check for a (kind, R) key."""
    kind, rects = key
    rects = tuple(as_partition(r) for r in rects)
    if not all_rect(rects):
        raise ValueError("duality requires rectangles")
    if not is_dominant_seq(rects):
        raise ValueError("duality requires a dominant sequence")
    tkind = KIND_TRANSPOSE[kind]
    trects = dominant_rearrangement(tuple(conjugate(r) for r in rects))
    shift = 2 * (seq_overlap(rects) + seq_weight(rects))
    return (rects, tkind, trects, shift, _table_rows(rects)[kind],
            _table_rows(trects)[tkind])


def _lambda_data(lam):
    """(canonical lam, its conjugate, 2 |lam|)."""
    lam = as_partition(lam)
    return lam, conjugate(lam), 2 * sum(lam)


def duality_check(kind, lam, rects):
    """Exact transpose duality for a dominant sequence of rectangles.

    Compares the transposed-kind coefficient at the transposed index over the
    rearranged transposed rectangles against the degree-shifted inverse-t
    image of the original coefficient.  Returns (equal, report).

    Both coefficients are rows of whole tables: the first call on R builds
    the four tables of R and of R' (one ktables call each) and later calls
    on either are lookups.  Each row carries its text, formatted once per
    distinct polynomial, and the inverse-t image is compared as a raw
    exponent dict; equal polynomials format identically, so when the two
    sides agree the right-hand text is the left-hand one, and only a
    disagreeing right-hand side is formatted.  Each lam is validated and
    conjugated once.  For a one-off coefficient on a large R,
    k_via_schur_recurrence costs far less than a table.
    """
    key = (canonical_kind(kind), tuple(map(tuple, rects)))
    setup = _DUALITY_CACHE.get(key)
    if setup is None:
        setup = _DUALITY_CACHE[key] = _duality_setup(key)
    rects, tkind, trects, shift, rows, trows = setup
    lam = tuple(lam)
    data = _LAMBDA_CACHE.get(lam)
    if data is None:
        data = _LAMBDA_CACHE[lam] = _lambda_data(lam)
    lam, lamt, size2 = data
    shift -= size2
    lhs, lhs_text = trows.get(lamt, _ZERO_ROW)
    rhs = {shift - e: v for e, v in rows.get(lam, _ZERO_ROW)[0].c.items()}
    equal = rhs == lhs.c
    report = {
        "kind": key[0], "lambda": list(lam), "R": [list(r) for r in rects],
        "transposed_kind": tkind, "R_transposed": [list(r) for r in trects],
        "lhs": lhs_text, "rhs": lhs_text if equal else str(LaurentPoly(rhs)),
        "shift": shift,
    }
    return equal, report


def all_rect(rects):
    return all(is_rectangle(r) for r in rects)
