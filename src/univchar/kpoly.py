"""Deformed character tables: the conjugated row operators, the tables they
generate, the Schur-side recurrence that serves as the fast production path,
the single-rectangle closed form, transpose duality, and the connection
between the two deformed-product families.

A KTable stores, for one kind and one sequence of partitions, the coefficient
polynomials of the deformed product in the basis of that kind, together with
the algorithm that produced it.  All algorithms must agree exactly; the
verification suite cross-checks them.

ktables builds the tables of several kinds from one type-A product and one
vdom series skew, box and hdom by one-row sweeps; ktable_via_recurrence is
its one-kind case.

k_via_schur_recurrence reads one coefficient without building the table:
series.series_coeff sums the Littlewood-Richardson spectra of lam against the
type-A product instead of skewing all of it.

hh_r telescopes the row operators.  Each row conjugates a squared-deformation
parabolic by the plain and t-scaled series of the kind; the positive and the
signed series are mutually inverse and skews commute, so the series between
neighbouring rows cancel and the chain is the t-scaled positive-series skew
of bb_r(R) at t -> t^2, which is the recurrence table.  hh_r therefore reads
its rows from ktable_via_recurrence.  h_rows telescopes the same way along
any list of index vectors and any operand; hh_r_via_rows calls it once per
rectangle, applying the rows one by one, as the independent oracle.
"""

from __future__ import annotations

from .core import (LaurentPoly, as_partition, canonical_kind, conjugate,
                   dominant_rearrangement, is_dominant_seq, is_rectangle,
                   kind_partitions_of, partition_key, seq_overlap, seq_weight,
                   KIND_TRANSPOSE)
from .schur import SymFunc, lr_coefficient, ssyt_contents
from .series import (_one_row_sweep, _series_coeff, skew_by_series,
                     to_diamond)
from .operators import (bb_r, tilde_b_parabolic, tilde_b_diamond_parabolic)


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
    1, which S-_t^perp S+_1^perp fixes.  With one vector it is one row, and
    applying it vector by vector is its oracle."""
    kind = canonical_kind(kind)
    f = p
    if kind != "none" and f != SymFunc.one():
        f = skew_by_series(skew_by_series(f, kind, "+", 1), kind, "-", "t")
    for nu in reversed(vectors):
        f = tilde_b_parabolic(tuple(int(x) for x in nu), f, 2)
    if kind != "none":
        f = skew_by_series(skew_by_series(f, kind, "+", "t"), kind, "-", 1)
    return f


def h_row_via_expansion(kind, nu, p):
    """Verification route for one deformed row: positive-series expansion
    into kind parabolics with squared deformation."""
    kind = canonical_kind(kind)
    nu = tuple(int(x) for x in nu)
    if kind == "none":
        return tilde_b_parabolic(nu, p, 2)
    n = len(nu)
    size_bound = 2 * (max(p.degree(), 0) + sum(x for x in nu if x > 0)) + 4
    out = SymFunc()
    for m in range(size_bound + 1):
        for lam in kind_partitions_of(m, kind, max_len=n):
            for alpha, cnt in ssyt_contents(lam, n).items():
                alpha = tuple(alpha) + (0,) * (n - len(alpha))
                sub = tuple(nu[i] - alpha[i] for i in range(n))
                g = tilde_b_diamond_parabolic(kind, sub, p, 2)
                if g:
                    out = out + g.scaled(LaurentPoly.t(m, cnt))
    return out


def hh_r(kind, rects):
    """Table of a kind over a sequence of partitions, via row operators.

    Write S+_s and S-_s for the positive and signed series of the kind at
    scale s (1 or t), and X^perp for the adjoint of multiplication by X.
    Each row is S-_1^perp S+_t^perp B_nu S-_t^perp S+_1^perp, with B_nu
    the squared-deformation parabolic.  S+_s S-_s = 1 and skews commute, so
    between two neighbouring rows S+_1^perp S-_1^perp and S-_t^perp
    S+_t^perp cancel.  On the vacuum S-_t^perp S+_1^perp 1 = 1, and
    to_diamond applies S+_1^perp, which cancels the leading S-_1^perp.
    What is left is S+_t^perp B_{R_1} ... B_{R_k} 1, the t-scaled skew of
    bb_r(R) at t -> t^2, so this is the recurrence table: one series pass
    over the shared type-A product.  hh_r_via_rows keeps the row-by-row
    chain as the oracle.
    """
    return KTable(kind, rects, ktable_via_recurrence(kind, rects).rows,
                  "operator")


def hh_r_via_rows(kind, rects):
    """Table of a kind over a sequence of partitions, row operator by row
    operator: the verification route for hh_r."""
    kind = canonical_kind(kind)
    rects = tuple(as_partition(r) for r in rects)
    f = SymFunc.one()
    for r in reversed(rects):
        f = h_rows(kind, (r,), f)
    rows = dict(to_diamond(f, kind).func.terms)
    return KTable(kind, rects, rows, "operator")


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
        funcs["hdom"] = skew_by_series(base, "hdom", "+", "t")
    return {kind: KTable(kind, rects, dict(funcs[kind].terms), "recurrence")
            for kind in kinds}


def ktable_via_recurrence(kind, rects):
    """Full table of one kind: ktables for that kind alone."""
    kind = canonical_kind(kind)
    return ktables((kind,), rects)[kind]


def k_via_schur_recurrence(kind, lam, rects):
    """One coefficient of the recurrence table, without building the table.

    bb_r is homogeneous of degree |R|, so t -> t^2 is applied once, to the
    coefficient, and the skew's t-scale is the shift by |R| - |lam|.
    """
    return _k_coefficient(canonical_kind(kind), as_partition(lam),
                          tuple(as_partition(r) for r in rects))


def _k_coefficient(kind, lam, rects):
    """k_via_schur_recurrence for a canonical kind, partition and sequence."""
    drop = seq_weight(rects) - sum(lam)
    return _series_coeff(bb_r(rects), kind, lam).subs_power(2).shift(drop)


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

def duality_check(kind, lam, rects):
    """Exact transpose duality for a dominant sequence of rectangles.

    Compares the transposed-kind coefficient at the transposed index over the
    rearranged transposed rectangles against the degree-shifted inverse-t
    image of the original coefficient.  Returns (equal, report).
    """
    kind = canonical_kind(kind)
    lam = as_partition(lam)
    rects = tuple(as_partition(r) for r in rects)
    if not all_rect(rects):
        raise ValueError("duality requires rectangles")
    if not is_dominant_seq(rects):
        raise ValueError("duality requires a dominant sequence")
    tkind = KIND_TRANSPOSE[kind]
    trects = dominant_rearrangement(tuple(conjugate(r) for r in rects))
    lhs = _k_coefficient(tkind, conjugate(lam), trects)
    base = _k_coefficient(kind, lam, rects)
    shift = 2 * (seq_overlap(rects) + seq_weight(rects) - sum(lam))
    rhs = base.subs_power(-1).shift(shift)
    report = {
        "kind": kind, "lambda": list(lam), "R": [list(r) for r in rects],
        "transposed_kind": tkind, "R_transposed": [list(r) for r in trects],
        "lhs": str(lhs), "rhs": str(rhs), "shift": shift,
    }
    return lhs == rhs, report


def all_rect(rects):
    return all(is_rectangle(r) for r in rects)


# ---------------------------------------------------------------------------
# connection between the two deformed-product families

def hb_factor_terms(kind, rect, operand_degree):
    """Decomposition of one conjugated row operator of a kind into deformed
    kind parabolics: maps index vectors to coefficient polynomials.

    Index vectors are weakly decreasing, bounded above by the factor width
    and below by the annihilation radius on the given operand degree.
    """
    kind = canonical_kind(kind)
    rect = as_partition(rect)
    b = len(rect)
    if b == 0:
        return {(): LaurentPoly.const(1)}
    width = rect[0]
    size = sum(rect)
    lower = -(2 * max(operand_degree, 0) + 2)
    terms = {}

    def vectors(i, prev, acc):
        if i == b:
            yield tuple(acc)
            return
        for v in range(prev, lower - 1, -1):
            yield from vectors(i + 1, v, acc + [v])

    for gamma in vectors(0, width, []):
        a = gamma[-1]
        if a > rect[-1]:
            continue
        gsize = sum(gamma)
        need = size - gsize
        if need < 0:
            continue
        shifted_r = as_partition(tuple(x - a for x in rect))
        shifted_g = as_partition(tuple(x - a for x in gamma))
        coeff = LaurentPoly.zero()
        for nu in kind_partitions_of(need, kind, max_len=b):
            k = lr_coefficient(shifted_r, nu, shifted_g)
            if k:
                coeff = coeff + LaurentPoly.t(need, k)
        if coeff:
            terms[gamma] = coeff
    return terms


# longest factor the connection enumerates: the index vectors of
# hb_factor_terms multiply quickly with it
_HB_MAX_FACTOR_LEN = 5


def hb_connection(kind, rects):
    """Cross-check of the two routes to a kind table.

    Builds the table by expanding every conjugated row into deformed kind
    parabolics with squared deformation, then compares against the row
    operator route.  Returns (equal, report) where the report carries the
    per-factor decompositions.
    """
    kind = canonical_kind(kind)
    rects = tuple(as_partition(r) for r in rects)
    if any(len(r) > _HB_MAX_FACTOR_LEN for r in rects):
        raise ValueError("factor too long for the connection enumeration")
    f = SymFunc.one()
    factor_terms = []
    for r in reversed(rects):
        terms = hb_factor_terms(kind, r, max(f.degree(), 0))
        factor_terms.append((r, terms))
        acc = SymFunc()
        for gamma, coeff in terms.items():
            g = tilde_b_diamond_parabolic(kind, gamma, f, 2)
            if g:
                acc = acc + g.scaled(coeff)
        f = acc
    lhs = hh_r(kind, rects)
    rhs_rows = dict(to_diamond(f, kind).func.terms)
    rhs = KTable(kind, rects, rhs_rows, "hb-connection")
    report = {
        "kind": kind,
        "R": [list(r) for r in rects],
        "factor_terms": [(list(r), {g: str(c) for g, c in sorted(t.items())})
                         for r, t in reversed(factor_terms)],
        "match": lhs.same_rows(rhs),
    }
    return lhs.same_rows(rhs), report, rhs


# ---------------------------------------------------------------------------
# single-row specialization

def singlerow_equivalence(lam, mu):
    """For single-row factor sequences the vertical-domino table equals the
    deformed-product coefficients at the squared deformation."""
    lam = as_partition(lam)
    mu = as_partition(mu)
    rows = tuple((m,) for m in mu)
    lhs = k_via_schur_recurrence("vdom", lam, rows)
    from .operators import d_polynomial
    rhs = d_polynomial("vdom", lam, rows).subs_power(2)
    return lhs == rhs, lhs, rhs
