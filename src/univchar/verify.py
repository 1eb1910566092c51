"""Verification suites: every module invariant and acceptance check, runnable
from the command line and reused by the test suite.

Each suite returns a list of (name, passed, detail) triples; each carries
its duration as Check.seconds.  Checks compare the production algorithms
against the independent oracles; exact equality is required everywhere.
Every suite runs at one fixed size, its bounds written once in the sweep
and in the check's name.  The acceptance tests (tests/test_acceptance.py)
run no sweeps of their own: each criterion asserts that its checks here are
present and pass.  The input enumerators and the two series sweep helpers
keep their size argument, so the unit tests can run them at other sizes.
"""

from __future__ import annotations

import itertools
import random
import time

from .core import (LaurentPoly, KINDS, KIND_TRANSPOSE, as_partition,
                   conjugate, dominant_rearrangement, is_dominant_seq,
                   member_p_kind, partitions_of, partitions_upto,
                   seq_overlap, seq_weight, frobenius, from_frobenius)
from .schur import (Expansion, SymFunc, _prod_spectrum, _skew_spectrum,
                    evaluate, inner_product, lr_coefficient, multiply,
                    skew_by, ssyt_contents, straighten, schur_of_vector)
from .series import (_one_row_sweep, change_basis, diamond_product,
                     diamond_unit, dual_basis_truncated, from_diamond,
                     newell_littlewood, omega_diamond, series_coeff,
                     series_terms, skew_by_series, to_diamond)
from .operators import (DIAMOND, _parabolic_apply, bb_diamond, bb_diamond_r,
                        bb_r, bernstein_diamond_create, d_polynomial,
                        det_diamond, det_diamond_schur, jacobi_trudi,
                        tilde_b_diamond_parabolic)
from .kpoly import (_negative, duality_check, h_rows, hh_r,
                    k_via_schur_recurrence, ktables)
from . import oracles

DIAMOND_KINDS = ("box", "vdom", "hdom")


class Check(tuple):
    """One check result, the triple (name, passed, detail).  Its seconds
    attribute is the time since the previous check or booking of its suite,
    plus the time booked on it (_Checks.book)."""

    def __new__(cls, name, ok, detail, seconds):
        self = super().__new__(cls, (name, ok, detail))
        self.seconds = seconds
        return self


class _Checks(list):
    """The checks of one suite, with the time its last check or booking was
    taken and the seconds booked on each check not yet taken."""

    def __init__(self):
        super().__init__()
        self.clock = time.perf_counter()
        self.booked = {}

    def book(self, stem):
        """Book the time since the last check or booking on the check whose
        name, up to any '(', is stem: a loop that serves several checks
        books each one's share of every pass."""
        now = time.perf_counter()
        self.booked[stem] = self.booked.get(stem, 0.0) + now - self.clock
        self.clock = now


def _check(results, name, ok, detail=""):
    now = time.perf_counter()
    seconds = now - results.clock + results.booked.pop(name.split("(")[0], 0.0)
    results.append(Check(name, bool(ok), detail, seconds))
    results.clock = now
    return ok


# ---------------------------------------------------------------------------
# sequence enumeration helpers

def rectangles_of(n):
    """All rectangles with n cells."""
    out = []
    for h in range(1, n + 1):
        if n % h == 0:
            out.append(as_partition((n // h,) * h))
    return out


def _sequences(shapes_of, total_max):
    """All ordered sequences of shapes_of(n) for n >= 1, with total size
    <= total_max."""
    pool = {n: list(shapes_of(n)) for n in range(1, total_max + 1)}

    def rec(budget):
        yield ()
        for n in range(1, budget + 1):
            for p in pool[n]:
                for tail in rec(budget - n):
                    yield (p,) + tail

    return list(rec(total_max))


def rect_sequences(total_max):
    """All ordered sequences of rectangles with total size <= total_max."""
    return _sequences(rectangles_of, total_max)


def partition_sequences(total_max):
    """All ordered sequences of nonempty partitions, total size bounded."""
    return _sequences(partitions_of, total_max)


def dominant_rect_sequences(total_max):
    return [r for r in rect_sequences(total_max) if r and is_dominant_seq(r)]


def specialization_sequences(bound):
    """The t=0 / t=1 specialization sweep: every nonempty partition sequence
    with |R| <= bound and every rectangle sequence with |R| = bound + 1;
    1335 sequences at the suites' bound 7."""
    return ([s for s in partition_sequences(bound) if s]
            + [s for s in rect_sequences(bound + 1)
               if seq_weight(s) == bound + 1])


# s[3,1] (2^70 t^-2 - 3) - s[2,2] 2^69 t^5
WIDE_OPERAND = (SymFunc.schur((3, 1), LaurentPoly({-2: 2 ** 70, 0: -3}))
                - SymFunc.schur((2, 2), LaurentPoly.t(5, 2 ** 69)))


def skew_by_series_mismatches(max_degree):
    """(kind, sign, scale, operand) where skew_by_series differs from the
    direct sum over series_terms, for s_lambda with |lambda| <= max_degree,
    s[2] - s[1,1], t*s[3,1] + s[2] and WIDE_OPERAND; and ('hdom', 'box
    sweep', scale, operand) where the signed one-row sweep of the box '+'
    skew differs from the hdom '+' skew.

    It guards the per-lambda series spectra that skew_by_series sums (the
    vdom '+' one built from lambda's tail), the box '+' factorisation (the
    vdom skew, then one one-row Pieri sweep) and the hdom one of the
    multi-kind tables (the box skew, then one signed sweep).  WIDE_OPERAND
    gives the packed sweeps coefficients past 2^64 and negative exponents.
    """
    s = SymFunc.schur
    operands = [s(lam) for lam in partitions_upto(max_degree)] + [
        s((2,)) - s((1, 1)), s((3, 1), LaurentPoly.t(1)) + s((2,)),
        WIDE_OPERAND]
    bad = []
    for kind, sign, scale in itertools.product(KINDS, "+-", (1, "t")):
        for p in operands:
            terms = dict(series_terms(kind, sign, scale, p.degree()))
            want = skew_by(p, SymFunc(terms))
            if skew_by_series(p, kind, sign, scale) != want:
                bad.append((kind, sign, scale, p))
    for scale in (1, "t"):
        for p in operands:
            box = skew_by_series(p, "box", "+", scale)
            if _one_row_sweep(box, scale, -1) != \
                    skew_by_series(p, "hdom", "+", scale):
                bad.append(("hdom", "box sweep", scale, p))
    return bad


def series_coeff_mismatches(max_degree):
    """(kind, lambda, operand) where series_coeff differs from the coefficient
    of the whole skew_by_series, for every lambda and every s_mu with
    |lambda|, |mu| <= max_degree, s[2] - s[1,1] and t*s[3,1] + s[2]."""
    s = SymFunc.schur
    shapes = partitions_upto(max_degree)
    operands = [s(mu) for mu in shapes] + [
        s((2,)) - s((1, 1)), s((3, 1), LaurentPoly.t(1)) + s((2,))]
    bad = []
    for kind in KINDS:
        for p in operands:
            whole = skew_by_series(p, kind, "+")
            for lam in shapes:
                if series_coeff(p, kind, lam) != whole.coeff(lam):
                    bad.append((kind, lam, p))
    return bad


def positivity_report(table):
    """The rows of a KTable with negative data (kpoly._negative), in support
    order: nonnegativity is observed, and violations are reported."""
    return [(lam, table.rows[lam]) for lam in table.support()
            if _negative(table.rows[lam])]


# ---------------------------------------------------------------------------
# suite: lr

def suite_lr():
    results = _Checks()
    rng = random.Random(20240601)

    # symmetry and transpose symmetry through skew spectra
    bad = []
    for n in range(13):
        for lam in partitions_of(n):
            lamt = conjugate(lam)
            seen = {}
            for m in range(n + 1):
                for mu in partitions_of(m):
                    spec = dict(_skew_spectrum(lam, mu))
                    for nu, c in spec.items():
                        seen[(mu, nu)] = c
                    tspec = dict(_skew_spectrum(lamt, conjugate(mu)))
                    for nu, c in spec.items():
                        if tspec.get(conjugate(nu), 0) != c:
                            bad.append((lam, mu, nu))
            for (mu, nu), c in seen.items():
                if seen.get((nu, mu), 0) != c:
                    bad.append((lam, mu, nu))
    _check(results, "lr.symmetry_transpose(|lam|<=12)", not bad,
           "%d mismatches" % len(bad))

    # monomial oracle in 6 variables, all |mu|,|nu| <= 6
    shapes = partitions_upto(6)
    bad = 0
    for i, mu in enumerate(shapes):
        for nu in shapes[i:]:
            mine = _prod_spectrum(mu, nu)
            want = oracles.lr_product_oracle(mu, nu, 6)
            got = {lam: c for lam, c in mine.items() if len(lam) <= 6}
            if got != want:
                bad += 1
    _check(results, "lr.monomial_oracle(<=6, 6 vars)", bad == 0,
           "%d pairs disagree" % bad)

    # long shapes covered through transpose symmetry of the product tables
    bad = 0
    for i, mu in enumerate(shapes):
        for nu in shapes[i:]:
            mine = _prod_spectrum(mu, nu)
            other = _prod_spectrum(conjugate(mu), conjugate(nu))
            if {conjugate(l): c for l, c in mine.items()} != dict(other):
                bad += 1
    _check(results, "lr.transpose_completion(<=6)", bad == 0,
           "%d pairs disagree" % bad)

    # signed one-row-chain oracle on random triples
    bad = 0
    for _ in range(200):
        mu = rng.choice(shapes)
        nu = rng.choice(shapes)
        lams = list(partitions_of(sum(mu) + sum(nu)))
        lam = rng.choice(lams)
        if lr_coefficient(lam, mu, nu) != \
                oracles.lr_coefficient_via_chains(lam, mu, nu):
            bad += 1
    _check(results, "lr.chain_oracle(200 random)", bad == 0,
           "%d mismatches" % bad)

    # associativity on random triples
    bad = 0
    small = partitions_upto(5)
    for _ in range(200):
        while True:
            mu, nu, rho = (rng.choice(small) for _ in range(3))
            if sum(mu) + sum(nu) + sum(rho) <= 14:
                break
        a = multiply(multiply(SymFunc.schur(mu), SymFunc.schur(nu)),
                     SymFunc.schur(rho))
        b = multiply(SymFunc.schur(mu),
                     multiply(SymFunc.schur(nu), SymFunc.schur(rho)))
        if a != b:
            bad += 1
    _check(results, "lr.associativity(200 random)", bad == 0,
           "%d mismatches" % bad)

    # adjointness of skewing
    bad = 0
    for lam in partitions_upto(10):
        for mu in partitions_upto(5):
            if sum(mu) > sum(lam):
                continue
            skew = skew_by(SymFunc.schur(lam), SymFunc.schur(mu))
            for nu in partitions_of(sum(lam) - sum(mu)):
                lhs = skew.coeff(nu)
                rhs = multiply(SymFunc.schur(mu),
                               SymFunc.schur(nu)).coeff(lam)
                if lhs != rhs:
                    bad += 1
    _check(results, "lr.adjointness", bad == 0, "%d mismatches" % bad)

    # straightening of padded partitions
    bad = 0
    for lam in partitions_upto(8):
        st = straighten(lam + (0,) * 2)
        if st != (1, lam):
            bad += 1
    _check(results, "lr.straighten_padded", bad == 0, "%d mismatches" % bad)

    # the four Pieri maps against products and skews by the ballot spectra
    bad = 0
    for lam in partitions_upto(10):
        p = SymFunc.schur(lam)
        for m in range(7):
            row, col = SymFunc.schur((m,)), SymFunc.schur((1,) * m)
            for got, want in ((oracles.multiply_h(p, m), multiply(p, row)),
                              (oracles.multiply_e(p, m), multiply(p, col)),
                              (oracles.skew_h(p, m), skew_by(p, row)),
                              (oracles.skew_e(p, m), skew_by(p, col))):
                if got != want:
                    bad += 1
    _check(results, "lr.pieri_vs_lr_spectra(|lam|<=10, m<=6)", bad == 0,
           "%d mismatches" % bad)

    # tableau contents against chains of brute-force horizontal strips
    bad = 0
    for lam in partitions_upto(7):
        for nvars in range(5):
            if ssyt_contents(lam, nvars) != \
                    oracles.schur_monomials(lam, nvars):
                bad += 1
    _check(results, "lr.ssyt_contents_vs_kostka(|lam|<=7, <=4 vars)",
           bad == 0, "%d mismatches" % bad)
    return results


# ---------------------------------------------------------------------------
# suite: bases

def suite_bases():
    results = _Checks()
    rng = random.Random(20240602)

    # series shapes and signs against polynomial expansion
    ok_all = True
    for kind in DIAMOND_KINDS:
        for sign in ("+", "-"):
            brute = oracles.brute_series_schur(kind, sign, 8, 8)
            mine = {}
            for lam, poly in series_terms(kind, sign, 1, 8):
                mine[lam] = poly.c.get(0, 0)
            if brute != mine:
                ok_all = False
    _check(results, "bases.series_polynomial_oracle(deg<=8)", ok_all)

    # skew_by_series (per-lambda spectra, box "+" factored through vdom)
    # against skew_by by the truncated series, and hdom "+" against the
    # signed sweep of box "+"
    bad = skew_by_series_mismatches(6)
    _check(results, "bases.skew_by_series_vs_series_terms(deg<=6)", not bad,
           "%d bad" % len(bad))

    # one coefficient of the positive-series skew against the whole skew
    bad = series_coeff_mismatches(6)
    _check(results, "bases.series_coeff_vs_skew(deg<=6)", not bad,
           "%d bad" % len(bad))

    # golden expansions of the three bases at (4,3,3)
    gold_hd = {(4, 3, 3): 1, (4, 3, 1): -1, (3, 3, 2): -1, (4, 2): 1,
               (3, 3): 1, (3, 2, 1): 1, (4,): -1, (3, 1): -1, (2, 2): -1,
               (2,): 1}
    gold_vd = {(4, 3, 3): 1, (4, 2, 2): -1, (3, 3, 2): -1, (3, 2, 1): 1,
               (2, 2, 2): 1, (2, 1, 1): -1}
    gold_box = {(4, 3, 3): 1, (4, 3, 2): -1, (3, 3, 3): -1, (4, 2, 1): 1,
                (3, 3, 1): 1, (3, 2, 2): 1, (4, 1, 1): -1, (3, 2, 1): -1,
                (3, 2): -1, (2, 2, 1): -1, (3, 1): 1, (2, 2): 1,
                (2, 1, 1): 1, (2,): -1, (1, 1): -1, (1,): 1}
    for kind, gold in (("hdom", gold_hd), ("vdom", gold_vd),
                       ("box", gold_box)):
        want = SymFunc({lam: LaurentPoly.const(c) for lam, c in gold.items()})
        _check(results, "bases.golden_433_%s" % kind,
               diamond_unit((4, 3, 3), kind) == want)

    # inverse property on single terms
    bad = 0
    for kind in KINDS:
        for lam in partitions_upto(10):
            e = Expansion(kind, SymFunc.schur(lam))
            back = to_diamond(from_diamond(e), kind)
            if back.func != e.func:
                bad += 1
    _check(results, "bases.inverse_roundtrip", bad == 0, "%d bad" % bad)

    # basis change is multiplicative on the three deformed kinds
    bad = 0
    small = partitions_upto(4)
    for _ in range(40):
        k1, k2 = rng.choice(DIAMOND_KINDS), rng.choice(DIAMOND_KINDS)
        mu, nu = rng.choice(small), rng.choice(small)
        e1 = Expansion(k1, SymFunc.schur(mu))
        e2 = Expansion(k1, SymFunc.schur(nu))
        lhs = change_basis(diamond_product(e1, e2), k2)
        rhs = diamond_product(change_basis(e1, k2), change_basis(e2, k2))
        if lhs.func != rhs.func:
            bad += 1
    _check(results, "bases.change_basis_multiplicative", bad == 0)

    # explicit small change-of-basis value
    got = change_basis(Expansion("vdom", SymFunc.schur((1, 1))), "box")
    want = SymFunc({(1, 1): LaurentPoly.const(1), (1,): LaurentPoly.const(1)})
    _check(results, "bases.change_vd_to_box_11", got.func == want)

    # Newell-Littlewood: symmetry and transpose invariance
    bad = 0
    triples = 0
    for a in range(0, 15):
        for mu in partitions_of(a):
            for b in range(a, 15 - a):
                for nu in partitions_of(b):
                    for c in range(b, 15 - a - b):
                        for lam in partitions_of(c):
                            triples += 1
                            d0 = newell_littlewood(lam, mu, nu)
                            if d0 < 0:
                                bad += 1
                            elif d0 != newell_littlewood(mu, lam, nu):
                                bad += 1
                            elif d0 != newell_littlewood(nu, mu, lam):
                                bad += 1
                            elif d0 != newell_littlewood(
                                    conjugate(lam), conjugate(mu),
                                    conjugate(nu)):
                                bad += 1
    _check(results, "bases.nl_symmetry_transpose(total<=14)", bad == 0,
           "%d of %d triples" % (bad, triples))

    # the kind-free product equals each kind's product through its series,
    # and its structure constants equal the cubic sum
    bad = 0
    shapes = partitions_upto(6)
    for i, mu in enumerate(shapes):
        for nu in shapes[i:]:
            for kind in DIAMOND_KINDS:
                e1 = Expansion(kind, SymFunc.schur(mu))
                e2 = Expansion(kind, SymFunc.schur(nu))
                e = diamond_product(e1, e2)
                if e != to_diamond(multiply(from_diamond(e1),
                                            from_diamond(e2)), kind):
                    bad += 1
            for lam, c in e.func.terms.items():
                if c != LaurentPoly.const(newell_littlewood(lam, mu, nu)):
                    bad += 1
    _check(results, "bases.structure_constants_independent(<=6)", bad == 0,
           "%d mismatches" % bad)

    # transpose involution is multiplicative and intertwines the kinds
    bad = 0
    for kind in DIAMOND_KINDS + ("none",):
        for lam in partitions_upto(8):
            e = Expansion(kind, SymFunc.schur(lam))
            lhs = from_diamond(omega_diamond(e))
            rhs = from_diamond(
                Expansion(KIND_TRANSPOSE[kind], SymFunc.schur(lam))
            ).transposed()
            if lhs != rhs:
                bad += 1
    _check(results, "bases.omega_intertwines", bad == 0, "%d bad" % bad)

    bad = 0
    for _ in range(30):
        kind = rng.choice(DIAMOND_KINDS)
        mu, nu = rng.choice(small), rng.choice(small)
        e1 = Expansion(kind, SymFunc.schur(mu))
        e2 = Expansion(kind, SymFunc.schur(nu))
        lhs = omega_diamond(diamond_product(e1, e2))
        rhs = diamond_product(omega_diamond(e1), omega_diamond(e2))
        if lhs.func != rhs.func:
            bad += 1
    _check(results, "bases.omega_multiplicative", bad == 0)

    # truncated dual bases pair correctly
    bad = 0
    for kind in KINDS:
        for lam in partitions_upto(3):
            dual = dual_basis_truncated(lam, kind, 5)
            for mu in partitions_upto(5):
                want = 1 if mu == lam else 0
                got = inner_product(dual, diamond_unit(mu, kind))
                if got != LaurentPoly.const(want):
                    bad += 1
    _check(results, "bases.dual_pairing", bad == 0, "%d bad" % bad)

    # partition scaffolding invariants
    bad = 0
    lists = {}
    for _ in range(1000):
        n = rng.randrange(0, 31)
        if n not in lists:
            lists[n] = list(partitions_of(n))
        lam = rng.choice(lists[n])
        if conjugate(conjugate(lam)) != lam:
            bad += 1
    _check(results, "bases.conjugate_involution(1000 random)", bad == 0)

    bad = 0
    for lam in partitions_upto(12):
        if from_frobenius(*frobenius(lam)) != lam:
            bad += 1
        if member_p_kind(lam, "vdom") != member_p_kind(conjugate(lam), "hdom"):
            bad += 1
    _check(results, "bases.frobenius_member_roundtrip", bad == 0)

    # Laurent ring axioms, spot checks
    ps = [LaurentPoly({i - 2: rng.randrange(-5, 6) for i in range(5)})
          for _ in range(9)]
    bad = 0
    for p, q, r in zip(ps[0::3], ps[1::3], ps[2::3]):
        if (p * q) * r != p * (q * r) or p * LaurentPoly.const(1) != p:
            bad += 1
        if (p * q).eval_int(1) != p.eval_int(1) * q.eval_int(1):
            bad += 1
        if (p + q).eval_int(1) != p.eval_int(1) + q.eval_int(1):
            bad += 1
    _check(results, "bases.laurent_ring_axioms", bad == 0)
    return results


# ---------------------------------------------------------------------------
# suite: operators

def suite_operators():
    results = _Checks()
    rng = random.Random(20240603)

    # undeformed creation matches straightening by sorting, exhaustively to
    # length four: straighten is itself the fold of the row's insertion
    bad = 0
    for n in (1, 2, 3, 4):
        for nu in itertools.product(range(-2, 6), repeat=n):
            st = oracles.straighten_by_sorting(nu)
            want = {} if st is None else {st[1]: LaurentPoly.const(st[0])}
            if bernstein_diamond_create("none", nu).terms != want:
                bad += 1
    _check(results, "operators.create_straighten(n<=4)", bad == 0,
           "%d bad" % bad)

    # kind row operators create the kind bases
    bad = 0
    for kind in DIAMOND_KINDS:
        for lam in partitions_upto(8):
            f = bernstein_diamond_create(kind, lam)
            e = to_diamond(f, kind)
            if e.func != SymFunc.schur(lam):
                bad += 1
    _check(results, "operators.diamond_creation(<=8)", bad == 0,
           "%d bad" % bad)

    # deformed Schur row examples: kind none at one index
    one, s1 = SymFunc.one(), SymFunc.schur((1,))
    _check(results, "operators.trow_unit",
           tilde_b_diamond_parabolic("none", (2,), one) == SymFunc.schur((2,)))
    want = SymFunc({(2,): LaurentPoly.t(1), (1, 1): LaurentPoly.const(1)})
    _check(results, "operators.trow_s1",
           tilde_b_diamond_parabolic("none", (1,), s1) == want)
    _check(results, "operators.trow_annihilation",
           tilde_b_diamond_parabolic("none", (-3,), s1).is_zero())

    # parabolic against the extraction oracle; s[2] - s[1,1] vanishes under
    # the first column skew but not the second
    cancelling = SymFunc.schur((2,)) - SymFunc.schur((1, 1))
    bad = total = 0
    operands = [SymFunc.schur(l) for l in partitions_upto(3)]
    for texp in (1, 2):
        for n in (1, 2):
            for nu in itertools.product(range(-2, 5), repeat=n):
                for p in operands + [cancelling]:
                    total += 1
                    bad += tilde_b_diamond_parabolic("none", nu, p, texp) != \
                        oracles.direct_extraction_oracle(nu, p, "none", texp)
    for texp in (1, 2):
        for _ in range(60):
            nu = tuple(rng.randrange(-2, 5) for _ in range(3))
            p = rng.choice(operands)
            total += 1
            bad += tilde_b_diamond_parabolic("none", nu, p, texp) != \
                oracles.direct_extraction_oracle(nu, p, "none", texp)
    _check(results, "operators.parabolic_oracle(%d cases)" % total, bad == 0,
           "%d bad" % bad)

    # kind parabolic against its oracle, and the diamond parabolic against
    # the same oracle read in the basis of the kind
    def diamond_parabolic_bad(kind, nu, p, texp):
        want = oracles.direct_extraction_oracle(nu, p, kind, texp)
        q = to_diamond(p, kind).func
        return ((tilde_b_diamond_parabolic(kind, nu, p, texp) != want)
                + (_parabolic_apply(nu, q, texp, DIAMOND)
                   != to_diamond(want, kind).func))

    bad = total = 0
    small_ops = [SymFunc.one(), SymFunc.schur((1,)), SymFunc.schur((2,)),
                 SymFunc.schur((1, 1))]
    for kind in DIAMOND_KINDS:
        for nu in itertools.product(range(-1, 4), repeat=2):
            for p in small_ops + [cancelling]:
                total += 1
                bad += diamond_parabolic_bad(kind, nu, p, 1)
    for kind in DIAMOND_KINDS:
        for _ in range(8):
            nu = tuple(rng.randrange(-1, 4) for _ in range(3))
            p = rng.choice(small_ops)
            total += 1
            bad += diamond_parabolic_bad(kind, nu, p, 2)
    _check(results, "operators.diamond_parabolic_oracle(%d cases)" % total,
           bad == 0, "%d bad" % bad)

    # deformed products: specializations at 0 and 1, the empty product too
    seqs = [()] + specialization_sequences(7)
    bad0 = bad1 = 0
    for rects in seqs:
        flat = tuple(x for r in rects for x in r)
        base = bb_r(rects)
        at0 = SymFunc(base.eval_t(0))
        if at0 != schur_of_vector(flat):
            bad0 += 1
        results.book("operators.bb_at0")
        at1 = SymFunc(base.eval_t(1))
        prod = SymFunc.one()
        for r in rects:
            prod = multiply(prod, SymFunc.schur(r))
        if at1 != prod:
            bad1 += 1
        results.book("operators.bb_at1")
    _check(results, "operators.bb_at0(%d seqs)" % len(seqs), bad0 == 0,
           "%d bad" % bad0)
    _check(results, "operators.bb_at1", bad1 == 0, "%d bad" % bad1)

    # Kostka-Foulkes via the charge statistic
    bad = 0
    for mu in partitions_upto(6):
        if not mu:
            continue
        rows = tuple((m,) for m in mu)
        table = bb_r(rows)
        lams = set(table.terms) | set(partitions_of(sum(mu)))
        for lam in lams:
            if table.coeff(lam) != oracles.kostka_foulkes_charge(lam, mu):
                bad += 1
    _check(results, "operators.kostka_foulkes_charge(<=6)", bad == 0,
           "%d bad" % bad)

    # single-factor deformed products are undeformed
    bad = 0
    for lam in partitions_upto(5):
        if not lam:
            continue
        if bb_r((lam,)) != SymFunc.schur(lam):
            bad += 1
        got = tilde_b_diamond_parabolic("none", lam, SymFunc.one())
        if got != SymFunc.schur(lam):
            bad += 1
    _check(results, "operators.single_factor_rigid", bad == 0, "%d bad" % bad)

    # the eight-term deformed product over ((3),(2,2),(1))
    t = LaurentPoly.t
    want = {
        (3, 2, 2, 1): LaurentPoly.const(1),
        (3, 3, 2): t(1), (4, 2, 1, 1): t(1), (4, 2, 2): t(2) + t(1),
        (4, 3, 1): t(2), (5, 2, 1): t(3) + t(2), (5, 3): t(3), (6, 2): t(4),
    }
    _check(results, "operators.example_3_22_1",
           dict(bb_r(((3,), (2, 2), (1,))).terms) == want)
    return results


def suite_operators_diamond():
    """Deformed kind products: constancy, positivity, specializations.

    Exhaustive over all partition sequences with |R| <= 7, plus all
    rectangle sequences with |R| = 8.
    """
    results = _Checks()
    chosen = specialization_sequences(7)

    bad_const = bad_spec0 = bad_spec1 = 0
    neg_rows = []
    for rects in chosen:
        table = bb_diamond(rects)
        for kind in DIAMOND_KINDS:
            rows = oracles.bb_diamond_r_via_rows(kind, rects)
            if to_diamond(rows, kind).func != table:
                bad_const += 1
        results.book("operators.d_constancy")
        flat = tuple(x for r in rects for x in r)
        st = straighten(flat)
        want0 = SymFunc() if st is None else \
            SymFunc.schur(st[1], LaurentPoly.const(st[0]))
        if SymFunc(table.eval_t(0)) != want0:
            bad_spec0 += 1
        results.book("operators.dd_at0")
        # the product of basis elements, kind-free: vdom stands for all three
        prod = Expansion("vdom", SymFunc.one())
        for r in rects:
            prod = diamond_product(prod, Expansion("vdom", SymFunc.schur(r)))
        if SymFunc(table.eval_t(1)) != prod.func:
            bad_spec1 += 1
        results.book("operators.dd_at1")
        if all(len(r) == 1 for r in rects):
            widths = tuple(r[0] for r in rects)
            if tuple(sorted(widths, reverse=True)) == widths:
                for lam, poly in table.terms.items():
                    if any(v < 0 for v in poly.c.values()):
                        neg_rows.append((rects, lam))
        results.book("operators.d_row_nonnegativity")
    _check(results, "operators.d_constancy(%d seqs)" % len(chosen),
           bad_const == 0, "%d bad" % bad_const)
    _check(results, "operators.dd_at0", bad_spec0 == 0, "%d bad" % bad_spec0)
    _check(results, "operators.dd_at1", bad_spec1 == 0, "%d bad" % bad_spec1)
    _check(results, "operators.d_row_nonnegativity", not neg_rows,
           "%d negative rows" % len(neg_rows))

    # nonnegativity for single-row sequences up to size 8
    bad = []
    for mu in partitions_upto(8):
        if not mu:
            continue
        rows = tuple((m,) for m in mu)
        for lam, poly in bb_diamond(rows).terms.items():
            if any(v < 0 for v in poly.c.values()):
                bad.append((mu, lam))
    _check(results, "operators.d_rows_nonnegative(<=8)", not bad,
           "%d negative" % len(bad))

    # the worked single-row example, also through each kind's Schur-basis
    # product
    rows = ((3,), (2,), (1,))
    t = LaurentPoly.t
    want = {
        (3, 2, 1): LaurentPoly.const(1),
        (3, 3): t(1), (4, 1, 1): t(1),
        (4, 2): t(2) + t(1), (5, 1): t(2) + t(3), (6,): t(4),
        (2, 2): t(2) + t(1), (2, 1, 1): t(1),
        (3, 1): t(2) * 2 + t(1) + t(3),
        (4,): t(4) + t(2) + t(3), (1, 1): t(2) + t(3),
        (2,): t(4) + t(2) + t(3), (): t(4),
    }
    ok = dict(bb_diamond(rows).terms) == want
    for kind in DIAMOND_KINDS:
        table = to_diamond(bb_diamond_r(kind, rows), kind).func
        if dict(table.terms) != want:
            ok = False
    _check(results, "operators.example_321", ok)

    # one coefficient of a kind product against its whole expansion.
    # d_polynomial reads the whole bb_diamond(R), so on |R| <= 5 this repeats
    # d_constancy and adds only its dispatch on the kind
    bad = checked = 0
    for rects in partition_sequences(5):
        w = seq_weight(rects)
        for kind in DIAMOND_KINDS:
            table = to_diamond(oracles.bb_diamond_r_via_rows(kind, rects),
                               kind)
            for lam in partitions_upto(w):
                checked += 1
                if d_polynomial(kind, lam, rects) != table.coeff(lam):
                    bad += 1
    _check(results, "operators.d_polynomial_vs_expansion(%d checks)"
           % checked, bad == 0, "%d bad" % bad)

    # the negative-coefficient witness
    witness = d_polynomial("hdom", (1, 1), ((3,), (2, 2), (1,)))
    want_w = LaurentPoly({5: 1, 3: 1, 4: -1})
    _check(results, "operators.negative_witness", witness == want_w,
           str(witness))
    return results


# ---------------------------------------------------------------------------
# suite: determinants

def suite_determinants():
    results = _Checks()
    shapes = partitions_upto(8, max_len=4)

    bad = 0
    for lam in shapes:
        if jacobi_trudi(lam) != SymFunc.schur(lam):
            bad += 1
    _check(results, "determinants.jacobi_trudi(<=8)", bad == 0,
           "%d bad" % bad)

    bad = 0
    for fam in ("D", "C", "B"):
        for kind in DIAMOND_KINDS:
            for lam in shapes:
                e = det_diamond(kind, lam, fam)
                if e.func != SymFunc.schur(lam):
                    bad += 1
                    continue
                # and the Schur-level value matches the creation operators
                if det_diamond_schur(kind, lam, fam) != \
                        bernstein_diamond_create(kind, lam):
                    bad += 1
    _check(results, "determinants.families_vs_creation", bad == 0,
           "%d bad" % bad)

    ok = True
    for fam in ("D", "C", "B"):
        for kind in DIAMOND_KINDS:
            if det_diamond(kind, (4, 3, 3), fam).func != \
                    SymFunc.schur((4, 3, 3)):
                ok = False
    _check(results, "determinants.example_433", ok)
    return results


# ---------------------------------------------------------------------------
# suite: kpoly

def suite_kpoly():
    results = _Checks()
    rng = random.Random(20240605)

    # the row operators, applied one by one, against the recurrence, which
    # is the telescoped hh_r, on rectangle sequences plus non-rectangle
    # partition factors at a smaller bound
    seqs = rect_sequences(7)
    seen = set(seqs)
    seqs += [q for q in partition_sequences(5) if q not in seen]
    bad_rec = bad_shared = bad_chain = 0
    for rects in seqs:
        shared = ktables(KINDS, rects)
        results.book("kpoly.shared_tables_vs_rows")
        for kind in KINDS:
            rows = oracles.hh_r_via_rows(kind, rects)
            if rows.rows != hh_r(kind, rects).rows:
                bad_rec += 1
            results.book("kpoly.operator_vs_recurrence")
            if rows.rows != shared[kind].rows:
                bad_shared += 1
            results.book("kpoly.shared_tables_vs_rows")
        if oracles.vdom_table_chain(rects).terms != shared["vdom"].rows:
            bad_chain += 1
        results.book("kpoly.vdom_chain_vs_tables")
    _check(results, "kpoly.operator_vs_recurrence(%d seqs x 4)" % len(seqs),
           bad_rec == 0, "%d bad" % bad_rec)
    # the multi-kind tables of `univchar table`, box and hdom by sweeps
    _check(results, "kpoly.shared_tables_vs_rows(%d seqs x 4)" % len(seqs),
           bad_shared == 0, "%d bad" % bad_shared)
    # their vdom series skew against the parabolic chain, which reads no
    # Littlewood-Richardson spectrum
    _check(results, "kpoly.vdom_chain_vs_tables(%d seqs)" % len(seqs),
           bad_chain == 0, "%d bad" % bad_chain)

    # single rectangles within a 3x3 box
    bad = 0
    for h in (1, 2, 3):
        for w in (1, 2, 3):
            rect = (w,) * h
            for kind in KINDS:
                a = oracles.single_rectangle_table(kind, rect)
                b = hh_r(kind, (rect,))
                if a.rows != b.rows:
                    bad += 1
    _check(results, "kpoly.single_rectangle_3x3", bad == 0, "%d bad" % bad)

    # specializations at 0 and 1 for tables over partition sequences
    seqs2 = specialization_sequences(7)
    bad0 = bad1 = badsupp = 0
    for rects in seqs2:
        flat = tuple(x for r in rects for x in r)
        st = straighten(flat)
        results.book("kpoly.at0")
        prod = SymFunc.one()
        for r in rects:
            prod = multiply(prod, SymFunc.schur(r))
        results.book("kpoly.at1")
        for kind in KINDS:
            table = hh_r(kind, rects)
            rows0 = {lam: poly.eval_int(0)
                     for lam, poly in table.rows.items()}
            rows0 = {l: v for l, v in rows0.items() if v}
            want0 = {} if st is None else {st[1]: st[0]}
            if rows0 != want0:
                bad0 += 1
            results.book("kpoly.at0")
            at1 = SymFunc({lam: LaurentPoly.const(poly.eval_int(1))
                           for lam, poly in table.rows.items()})
            if from_diamond(Expansion(kind, at1)) != prod:
                bad1 += 1
            results.book("kpoly.at1")
            if kind == "none":
                w = seq_weight(rects)
                if any(sum(l) != w for l in table.rows):
                    badsupp += 1
            results.book("kpoly.schur_kind_degree_support")
    _check(results, "kpoly.at0(%d seqs x 4)" % len(seqs2), bad0 == 0,
           "%d bad" % bad0)
    _check(results, "kpoly.at1", bad1 == 0, "%d bad" % bad1)
    _check(results, "kpoly.schur_kind_degree_support", badsupp == 0)

    # one coefficient of the recurrence against the whole table
    bad = checked = 0
    for rects in dominant_rect_sequences(6):
        w = seq_weight(rects)
        for kind in KINDS:
            table = hh_r(kind, rects)
            for lam in partitions_upto(w):
                checked += 1
                if k_via_schur_recurrence(kind, lam, rects) != \
                        table.coeff(lam):
                    bad += 1
    _check(results, "kpoly.coefficient_vs_table(%d checks)" % checked,
           bad == 0, "%d bad" % bad)

    # the worked two-factor example block
    t = LaurentPoly.t
    c1 = LaurentPoly.const(1)
    R = ((2, 2), (1,))
    want_tables = {
        "none": {(2, 2, 1): c1, (3, 2): t(2)},
        "vdom": {(2, 2, 1): c1, (3, 2): t(2), (1, 1, 1): t(2),
                 (2, 1): t(2) + t(4), (1,): t(4) + t(6)},
        "hdom": {(2, 2, 1): c1, (3, 2): t(2), (2, 1): t(2) + t(4),
                 (3,): t(4), (1,): t(4) + t(6)},
        "box": {(2, 2, 1): c1, (3, 2): t(2), (2, 1, 1): t(1),
                (2, 2): t(1) + t(3), (3, 1): t(3), (1, 1, 1): t(2),
                (2, 1): (t(2) + t(4)) * 2, (3,): t(4),
                (1, 1): t(3) * 2 + t(5), (2,): t(3) + t(5) * 2,
                (1,): (t(4) + t(6)) * 2, (): t(5) + t(7)},
    }
    ok = True
    for kind, want in want_tables.items():
        table = hh_r(kind, R)
        if table.rows != want:
            ok = False
    _check(results, "kpoly.example_block_22_1", ok)

    # single-row equivalence
    bad = 0
    for mu in partitions_upto(6):
        if not mu:
            continue
        for lam in partitions_upto(sum(mu)):
            ok1, lhs, rhs = oracles.singlerow_equivalence(lam, mu)
            if not ok1:
                bad += 1
    _check(results, "kpoly.singlerow_equivalence(<=6)", bad == 0,
           "%d bad" % bad)

    # the connection between the two deformed families, with the displayed
    # decompositions of the (2,2) factor
    displayed = {
        "vdom": {(2, 2): "1", (1, 1): "t^2", (0, 0): "t^4"},
        "hdom": {(2, 2): "1", (2, 0): "t^2", (0, 0): "t^4"},
        "box": {(2, 2): "1", (2, 1): "t", (1, 1): "t^2", (2, 0): "t^2",
                (1, 0): "t^3", (0, 0): "t^4", (2, -1): "t^3",
                (1, -1): "t^4", (0, -1): "t^5"},
    }
    ok = True
    details = []
    for kind, want in displayed.items():
        match, rep, _ = oracles.hb_connection(kind, R)
        factor1 = dict()
        for r, terms in rep["factor_terms"]:
            if r == [2, 2]:
                factor1 = terms
        got = {gamma: factor1.get(gamma) for gamma in want}
        ok = ok and match and got == want
        details.append((kind, match, got))
    _check(results, "kpoly.hb_connection_example", ok, repr(details))

    bad = 0
    for rects in rect_sequences(5):
        if not rects:
            continue
        for kind in DIAMOND_KINDS:
            match, _, _ = oracles.hb_connection(kind, rects)
            if not match:
                bad += 1
    _check(results, "kpoly.hb_connection_sweep(<=5)", bad == 0,
           "%d bad" % bad)

    # row operator against the expansion route,
    # including index vectors with negative entries
    bad = 0
    for _ in range(12):
        lam = rng.choice(partitions_upto(4))
        nu = tuple(rng.randrange(-1, 3) for _ in range(rng.randrange(1, 3)))
        kind = rng.choice(DIAMOND_KINDS)
        p = SymFunc.schur(lam)
        bad += oracles.h_row_via_expansion(kind, nu, p) != \
            h_rows(kind, (nu,), p)
    _check(results, "kpoly.h_row_expansion", bad == 0, "%d bad" % bad)

    # positivity observation on dominant rectangle sequences
    neg = []
    for rects in dominant_rect_sequences(7):
        for kind in KINDS:
            table = hh_r(kind, rects)
            if positivity_report(table):
                neg.append((kind, rects))
    _check(results, "kpoly.positivity_observation(<=7)", not neg,
           "%d negative tables" % len(neg))
    return results


# ---------------------------------------------------------------------------
# suite: duality

def suite_duality():
    results = _Checks()
    # duality_check reads both sides from memoized tables
    bad = checked = 0
    for rects in dominant_rect_sequences(6):
        for kind in KINDS:
            for n in range(seq_weight(rects) + 1):
                for lam in partitions_of(n):
                    checked += 1
                    if not duality_check(kind, lam, rects)[0]:
                        bad += 1
    _check(results, "duality.transpose(%d checks)" % checked, bad == 0,
           "%d bad" % bad)

    # up to |R| = 5 each side is also read one coefficient at a time,
    # table-free
    off = compared = 0
    for rects in dominant_rect_sequences(5):
        w = seq_weight(rects)
        trects = dominant_rearrangement(tuple(conjugate(r) for r in rects))
        for kind in KINDS:
            for n in range(w + 1):
                for lam in partitions_of(n):
                    rep = duality_check(kind, lam, rects)[1]
                    compared += 1
                    lhs = k_via_schur_recurrence(
                        KIND_TRANSPOSE[kind], conjugate(lam), trects)
                    shift = 2 * (seq_overlap(rects) + w - n)
                    rhs = k_via_schur_recurrence(kind, lam, rects)
                    rhs = rhs.subs_power(-1).shift(shift)
                    if (rep["lhs"], rep["rhs"]) != (str(lhs), str(rhs)):
                        off += 1
    _check(results, "duality.tables_vs_coefficients(%d checks)" % compared,
           off == 0, "%d differ" % off)

    ok, rep = duality_check("vdom", (1,), ((2, 2), (1,)))
    _check(results, "duality.example_vd", ok, repr(rep))
    ok, rep = duality_check("none", (2, 1), ((2,), (1,)))
    _check(results, "duality.example_schur", ok)
    ok, rep = duality_check("box", (), ((1,), (1,)))
    _check(results, "duality.example_smallest", ok)
    return results


# ---------------------------------------------------------------------------
# suite: kernels

def suite_kernels():
    results = _Checks()

    # pairing kernel of the common structure constants, two letters each
    degree = 6
    lhs = oracles.kernel_triple_expansion(degree)

    def unit(i):
        return tuple(1 if k == i else 0 for k in range(6))

    xs = [unit(0), unit(1)]
    ys = [unit(2), unit(3)]
    zs = [unit(4), unit(5)]
    rhs = {}
    for a in range(degree + 1):
        for lam in partitions_of(a):
            if len(lam) > 2:
                continue
            ex = evaluate(SymFunc.schur(lam), xs, 6)
            for b in range(degree + 1 - a):
                for mu in partitions_of(b):
                    if len(mu) > 2:
                        continue
                    ey = evaluate(SymFunc.schur(mu), ys, 6)
                    for c in range(degree + 1 - a - b):
                        for nu in partitions_of(c):
                            if len(nu) > 2:
                                continue
                            d = newell_littlewood(lam, mu, nu)
                            if not d:
                                continue
                            ez = evaluate(SymFunc.schur(nu), zs, 6)
                            for e1, c1 in ex.items():
                                for e2, c2 in ey.items():
                                    for e3, c3 in ez.items():
                                        key = tuple(e1[k] + e2[k] + e3[k]
                                                    for k in range(6))
                                        v = (c1 * c2 * c3).c.get(0, 0) * d
                                        rhs[key] = rhs.get(key, 0) + v
    rhs = {k: v for k, v in rhs.items() if v}
    lhs = {k: v for k, v in lhs.items() if v}
    _check(results, "kernels.pairing_kernel(deg<=%d)" % degree, lhs == rhs,
           "%d vs %d monomials" % (len(lhs), len(rhs)))

    # character specializations: invariance under letter inversion
    bad = 0
    alphabet = [(1, 0), (-1, 0), (0, 1), (0, -1)]
    for lam in partitions_upto(4):
        f = diamond_unit(lam, "vdom")
        vals = evaluate(f, alphabet, 2)
        for exp, c in vals.items():
            if vals.get((-exp[0], exp[1]), LaurentPoly.zero()) != c:
                bad += 1
            if vals.get((exp[0], -exp[1]), LaurentPoly.zero()) != c:
                bad += 1
    _check(results, "kernels.symplectic_invariance(n=2,<=4)", bad == 0,
           "%d bad" % bad)

    # rank-one symplectic value of the two-cell column
    f = diamond_unit((1, 1), "vdom")
    vals = evaluate(f, [(1,), (-1,)], 1)
    _check(results, "kernels.sp2_column_value", vals == {},
           repr(vals))
    return results


# ---------------------------------------------------------------------------
# driver

SUITES = {
    "lr": suite_lr,
    "bases": suite_bases,
    "operators": lambda: suite_operators() + suite_operators_diamond(),
    "determinants": suite_determinants,
    "kpoly": suite_kpoly,
    "duality": suite_duality,
    "kernels": suite_kernels,
}


def run_suite(name):
    """Run one named suite (or 'all'); returns list of check triples.

    A suite that raises yields one failed check, '<suite>.raised', with
    'TypeName: message' as its detail, in place of its own checks, and the
    remaining suites still run.
    """
    if name == "all":
        out = []
        for key in SUITES:
            out.extend(run_suite(key))
        return out
    fn = SUITES.get(name)
    if fn is None:
        raise ValueError("unknown suite %r" % name)
    start = time.perf_counter()
    try:
        return fn()
    except Exception as exc:
        return [Check(name + ".raised", False,
                      "%s: %s" % (type(exc).__name__, exc),
                      time.perf_counter() - start)]
