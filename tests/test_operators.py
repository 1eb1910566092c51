import hashlib

import pytest

from univchar.core import LaurentPoly, partitions_of, partitions_upto
from univchar.schur import (Expansion, SymFunc, _removals, multiply,
                            schur_of_vector)
from univchar.series import diamond_unit, from_diamond, to_diamond
from univchar.operators import (InvariantViolation, _halve_exact,
                                bb_diamond, bb_diamond_r, bb_r,
                                bernstein_diamond_create,
                                bernstein_diamond_row, d_polynomial,
                                det_diamond, det_diamond_schur,
                                jacobi_trudi, tilde_b_diamond_parabolic)
from univchar import operators, oracles
from univchar.oracles import (bb_diamond_r_via_rows,
                              direct_extraction_oracle, skew_e, skew_h)
from univchar.verify import WIDE_OPERAND, specialization_sequences


def s(*parts):
    return SymFunc.schur(tuple(parts))


one = SymFunc.one()
t = LaurentPoly.t


def test_bernstein_rows():
    # kind none, the empty tile, is the Schur row
    assert bernstein_diamond_row("none", 3, one) == s(3)
    # the row below an existing longer row comes from the composition order:
    # the rightmost factor acts first, so s[3,2] is row 3 applied to s[2]
    assert bernstein_diamond_row("none", 3, s(2)) == s(3, 2)
    assert bernstein_diamond_create("none", (3, 2)) == s(3, 2)
    # (2,3) straightens to zero
    assert bernstein_diamond_row("none", 2, s(3)).is_zero()
    assert bernstein_diamond_create("none", (1, 3)) == s(2, 2).scaled(-1)
    assert bernstein_diamond_row("none", 0, one) == one
    assert bernstein_diamond_row("none", -1, one).is_zero()


def test_bernstein_vs_straighten():
    # one case; the sweep is the verify check operators.create_straighten
    nu = (1, -2, 4)
    assert bernstein_diamond_create("none", nu) == schur_of_vector(nu)


def test_diamond_rows():
    assert bernstein_diamond_row("vdom", 3, one) == s(3)
    assert bernstein_diamond_row("hdom", 2, one) == s(2) - one
    assert bernstein_diamond_row("box", 2, one) == s(2) - s(1)
    assert bernstein_diamond_row("none", 2, s(1)) == s(2, 1)


def test_diamond_creation():
    for kind in ("box", "vdom", "hdom"):
        for lam in partitions_upto(7):
            f = bernstein_diamond_create(kind, lam)
            assert f == diamond_unit(lam, kind), (kind, lam)


def test_bernstein_rows_in_kind_basis():
    # without its t-weighted factors the diamond row is the Schur Bernstein
    # row, so each kind's Bernstein row reads as it in the kind's own basis
    for kind in ("box", "vdom", "hdom"):
        for mu in partitions_upto(4):
            p = SymFunc.schur(mu)
            q = from_diamond(Expansion(kind, p))
            for r in range(-3, 6):
                got = to_diamond(bernstein_diamond_row(kind, r, q), kind)
                assert got.func == bernstein_diamond_row("none", r, p), \
                    (kind, mu, r)


def test_jacobi_trudi():
    assert jacobi_trudi((4,)) == s(4)
    assert jacobi_trudi((2, 1)) == multiply(s(2), s(1)) - s(3)
    for lam in partitions_upto(7):
        assert jacobi_trudi(lam) == SymFunc.schur(lam)


def test_det_families():
    # one shape; the sweep is the verify check
    # determinants.families_vs_creation
    for fam in ("D", "C", "B"):
        for kind in ("box", "vdom", "hdom"):
            e = det_diamond(kind, (3, 1, 1), fam)
            assert e.func == s(3, 1, 1), (fam, kind)
    # one-row reduction
    for kind in ("box", "vdom", "hdom"):
        assert det_diamond_schur(kind, (3,), "D") == \
            diamond_unit((3,), kind)


def test_det_433_examples():
    # one case; all families and kinds are the verify check
    # determinants.example_433
    assert det_diamond("hdom", (4, 3, 3), "D").func == s(4, 3, 3)


def test_halving_guard():
    with pytest.raises(InvariantViolation):
        _halve_exact(s(1))
    assert _halve_exact(s(1).scaled(2)) == s(1)
    with pytest.raises(ValueError):
        det_diamond("none", (2,), "D")
    with pytest.raises(ValueError):
        det_diamond("vdom", (2,), "X")


def test_tilde_rows():
    # kind none is the Schur operator, and one index gives the deformed row
    assert tilde_b_diamond_parabolic("none", (2,), one) == s(2)
    assert tilde_b_diamond_parabolic("none", (1,), s(1)) == \
        s(2).scaled(t(1)) + s(1, 1)
    assert tilde_b_diamond_parabolic("none", (-3,), s(1)).is_zero()
    assert tilde_b_diamond_parabolic("none", (-5,), s(2, 2)).is_zero()
    # squared-deformation variant
    assert tilde_b_diamond_parabolic("none", (1,), s(1)).subs_power(2) == \
        s(2).scaled(t(2)) + s(1, 1)
    assert tilde_b_diamond_parabolic("none", (1,), s(1), 2) == \
        s(2).scaled(t(2)) + s(1, 1)
    # reduction at the undeformed point, also for the one-row parabolic at
    # the squared deformation
    got = tilde_b_diamond_parabolic("none", (2,), s(2, 1))
    assert SymFunc(got.eval_t(0)) == bernstein_diamond_row("none", 2, s(2, 1))
    for lam in partitions_upto(3):
        p = SymFunc.schur(lam)
        for r in range(-4, 5):
            for texp in (1, 2):
                got = tilde_b_diamond_parabolic("none", (r,), p, texp)
                assert SymFunc(got.eval_t(0)) == \
                    bernstein_diamond_row("none", r, p), (lam, r, texp)


def test_tilde_diamond_rows():
    assert tilde_b_diamond_parabolic("vdom", (2,), one) == s(2)
    assert tilde_b_diamond_parabolic("hdom", (2,), one) == s(2) - one
    got = tilde_b_diamond_parabolic("vdom", (1,), s(1))
    want = (s(2).scaled(t(1)) + s(1, 1)
            + one.scaled(t(1) - LaurentPoly.const(1)))
    assert got == want
    got0 = SymFunc(tilde_b_diamond_parabolic("box", (2,), s(2)).eval_t(0))
    assert got0 == bernstein_diamond_row("box", 2, s(2))
    # r < -deg(p) included: every term of those rows vanishes
    for kind in ("box", "vdom", "hdom"):
        for lam in partitions_upto(3):
            p = SymFunc.schur(lam)
            for r in range(-4, 5):
                for texp in (1, 2):
                    got = tilde_b_diamond_parabolic(kind, (r,), p, texp)
                    assert SymFunc(got.eval_t(0)) == \
                        bernstein_diamond_row(kind, r, p), (kind, lam, r)


def test_unweighted_row_factors_cancel():
    # E(-u) H(u) = 1: the unweighted one-column and one-row skews with step
    # -1 cancel, which leaves the diamond row three factors
    for lam in partitions_upto(6):
        p = SymFunc.schur(lam)
        for n in range(1, sum(lam) + 1):
            acc = SymFunc()
            for a in range(n + 1):
                g = skew_e(skew_h(p, n - a), a)
                acc = acc - g if a % 2 else acc + g
            assert acc.is_zero(), (lam, n)


def test_parabolic_basics():
    assert tilde_b_diamond_parabolic("none", (2, 2), one) == s(2, 2)
    assert tilde_b_diamond_parabolic("none", (2, 1), one) == s(2, 1)
    assert tilde_b_diamond_parabolic("none", (), s(1)) == s(1)
    # one-factor deformed products stay rigid
    for lam in partitions_upto(5):
        if lam:
            assert bb_r((lam,)) == SymFunc.schur(lam)
            assert tilde_b_diamond_parabolic("vdom", lam, one) == \
                diamond_unit(lam, "vdom")


def test_parabolic_vs_oracle():
    # s[2] - s[1,1] vanishes under the first column skew but not the
    # second; operators.parabolic_oracle sweeps the rest
    cancelling = s(2) - s(1, 1)
    for texp in (1, 2):
        got = tilde_b_diamond_parabolic("none", (2, 1), cancelling, texp)
        assert got == direct_extraction_oracle((2, 1), cancelling, "none",
                                               texp)


def test_diamond_parabolic_vs_oracle():
    # operators.diamond_parabolic_oracle sweeps the rest
    cancelling = s(2) - s(1, 1)
    for kind in ("box", "vdom", "hdom"):
        assert tilde_b_diamond_parabolic(kind, (2, 1), cancelling) == \
            direct_extraction_oracle((2, 1), cancelling, kind), kind


# 2^70 t^-2 - 3: a coefficient past 2^64 with a negative exponent, whose
# products with small coefficients fill the packed slots to the bound
WIDE = LaurentPoly({-2: 2 ** 70, 0: -3})


def test_wide_coefficients_fill_the_packed_width():
    # every step is Z[t]-linear, so the kernel on 1 scaled by WIDE is the
    # kernel on WIDE; at kind none the L1 bound is 2^70 + 3 itself, so a
    # slot one bit narrower reads 2^70 as -2^70; (2, -1, 3) takes a
    # negative index and level drops
    wide = one.scaled(WIDE)
    for kind in ("none", "box", "vdom", "hdom"):
        for r in (0, 2, 3):
            assert bernstein_diamond_row(kind, r, wide) == \
                bernstein_diamond_row(kind, r, one).scaled(WIDE), (kind, r)
        for nu in ((3,), (2, 1), (1, 0, 2), (2, -1, 3)):
            for texp in (1, 2, -1):
                got = tilde_b_diamond_parabolic(kind, nu, wide, texp)
                want = tilde_b_diamond_parabolic(kind, nu, one, texp)
                assert got == want.scaled(WIDE), (kind, nu, texp)


def test_wide_operand_vs_oracle():
    for kind in ("none", "vdom"):
        for texp in (1, -1):
            got = tilde_b_diamond_parabolic(kind, (2, 1), WIDE_OPERAND, texp)
            assert got == direct_extraction_oracle(
                (2, 1), WIDE_OPERAND, kind, texp), (kind, texp)


def test_most_strips_is_the_largest_strip_count():
    # the knapsack against every partition of at most d cells, whose
    # horizontal strips the kernel walks and whose vertical ones it bounds
    for d in range(15):
        most = 1
        for lam in partitions_upto(d):
            count = 1
            for r, part in enumerate(lam):
                count *= part - (lam[r + 1] if r + 1 < len(lam) else 0) + 1
            assert sum(map(len, _removals(lam, False))) == count, lam
            assert sum(map(len, _removals(lam, True))) <= \
                operators._most_strips(d), lam
            most = max(most, count)
        assert operators._most_strips(d) == most, d


def test_oracle_guards():
    with pytest.raises(ValueError):
        direct_extraction_oracle((1,) * 6, one)
    with pytest.raises(ValueError):
        direct_extraction_oracle((1,) * 5, one, "vdom")


def test_bb_worked_example():
    bb = bb_r(((3,), (2, 2), (1,)))
    want = {
        (3, 2, 2, 1): LaurentPoly.const(1),
        (3, 3, 2): t(1), (4, 2, 1, 1): t(1), (4, 2, 2): t(2) + t(1),
        (4, 3, 1): t(2), (5, 2, 1): t(3) + t(2), (5, 3): t(3), (6, 2): t(4),
    }
    assert dict(bb.terms) == want
    assert d_polynomial("none", (3, 2, 2, 1), ((3,), (2, 2), (1,))) == \
        LaurentPoly.const(1)


def test_kostka_foulkes_example():
    # single-row factors carry the charge grading; one more case, the sweep
    # is the verify check operators.kostka_foulkes_charge
    bb = bb_r(((2,), (2,)))
    assert bb == s(2, 2) + s(3, 1).scaled(t(1)) + s(4).scaled(t(2))
    mu = (2, 1, 1)
    table = bb_r(tuple((m,) for m in mu))
    for lam in set(table.terms) | set(partitions_of(sum(mu))):
        assert table.coeff(lam) == \
            oracles.kostka_foulkes_charge(lam, mu), lam


def test_d_polynomial_example(monkeypatch):
    R = ((3,), (2,), (1,))
    for kind in ("box", "vdom", "hdom"):
        assert d_polynomial(kind, (3, 2, 1), R) == LaurentPoly.const(1)
        assert d_polynomial(kind, (4, 2), R) == t(2) + t(1)
        assert d_polynomial(kind, (3, 1), R) == t(2) * 2 + t(1) + t(3)
        assert d_polynomial(kind, (), R) == t(4)
    # factors given as lists or a generator, and lambda as a list with a
    # trailing zero, read the same products, which are stored under tuples
    monkeypatch.setattr(operators, "_BB_CACHE", {})
    for kind in ("box", "none"):
        want = d_polynomial(kind, (3, 1), R)
        for rects in ([[3], [2], [1]], [(3,), (2,), (1,)], (f for f in R)):
            assert d_polynomial(kind, [3, 1, 0], rects) == want, rects
    for _, factors in operators._BB_CACHE:
        assert type(factors) is tuple
        assert all(type(f) is tuple for f in factors)


def test_schur_kind_is_the_schur_product():
    # kind none reads the type-A product, not the diamond product: at
    # lambda = (1) over ((2), (1)) the diamond product has t
    assert d_polynomial("none", (1,), ((2,), (1,))) == LaurentPoly.zero()
    assert bb_diamond(((2,), (1,))).coeff((1,)) == t(1)
    for R in (((2,), (1,)), ((2, 2), (1,)), ((3,), (2, 2), (1,))):
        bb = bb_r(R)
        assert bb_diamond_r("none", R) == bb
        for lam in partitions_upto(sum(map(sum, R))):
            assert d_polynomial("none", lam, R) == bb.coeff(lam), (R, lam)


def test_negative_coefficient_witness():
    got = d_polynomial("hdom", (1, 1), ((3,), (2, 2), (1,)))
    assert got == LaurentPoly({5: 1, 3: 1, 4: -1})


def test_bb_diamond_vector_tables():
    # two-factor tables at the squared deformation, including vectors with
    # trailing zeros and negative entries
    tt = t(2)
    cases = {
        ((2, 2), (1,)): {(3, 2): tt, (2, 2, 1): LaurentPoly.const(1),
                         (2, 1): tt},
        ((2, 1), (1,)): {(2,): tt, (1, 1): tt, (3, 1): tt, (2, 2): tt,
                         (2, 1, 1): LaurentPoly.const(1)},
        ((2, 0), (1,)): {(3,): tt, (2, 1): tt, (1,): tt},
        ((1, 1), (1,)): {(2, 1): tt, (1, 1, 1): LaurentPoly.const(1),
                         (1,): tt},
        ((1, 0), (1,)): {(): tt, (2,): tt, (1, 1): tt},
        ((0, 0), (1,)): {(1,): tt},
        ((2, -1), (1,)): {(2,): tt - LaurentPoly.const(1)},
        ((1, -1), (1,)): {(1,): tt - LaurentPoly.const(1)},
        ((0, -1), (1,)): {(): tt - LaurentPoly.const(1)},
    }
    # the diamond product and each kind's own row chain
    for factors, want in cases.items():
        got = bb_diamond(factors).subs_power(2)
        assert dict(got.terms) == want, factors
        for kind in ("box", "vdom", "hdom"):
            rows = bb_diamond_r_via_rows(kind, factors).subs_power(2)
            table = to_diamond(rows, kind)
            assert dict(table.func.terms) == want, (kind, factors)
    # a trailing zero-row factor is the identity
    for lam in ((2, 2), (2, 1), (1, 1)):
        want = {lam: LaurentPoly.const(1)}
        assert dict(bb_diamond((lam, (0,))).terms) == want
        for kind in ("box", "vdom", "hdom"):
            table = to_diamond(bb_diamond_r_via_rows(kind, (lam, (0,))), kind)
            assert dict(table.func.terms) == want


def test_bb_specializations():
    rects = ((2, 1), (2,))
    base = bb_r(rects)
    assert SymFunc(base.eval_t(0)) == schur_of_vector((2, 1, 2))
    assert SymFunc(base.eval_t(1)) == multiply(s(2, 1), s(2))
    table = bb_diamond(rects)
    for kind in ("box", "vdom", "hdom"):
        assert to_diamond(bb_diamond_r(kind, rects), kind).func == table
        rows = to_diamond(bb_diamond_r_via_rows(kind, rects), kind).func
        assert rows == table, kind
        assert SymFunc(rows.eval_t(0)) == schur_of_vector((2, 1, 2))
        prod = multiply(diamond_unit((2, 1), kind), diamond_unit((2,), kind))
        assert SymFunc(rows.eval_t(1)) == to_diamond(prod, kind).func


def test_diamond_kernel_mutants_are_caught(monkeypatch):
    # each kind's own row chain is the oracle of the three-factor diamond
    # entry: dropping a factor or taking the type-A level weights shows
    factors, shifts, levels = operators._KERNELS[operators.DIAMOND]
    mutants = [((factors[:i] + factors[i + 1:], shifts, levels),
                ((1,), (1,))) for i in range(len(factors))]
    mutants.append(((factors, shifts, operators._A_LEVELS),
                    ((1,), (1, 1), (1,))))
    for entry, R in mutants:
        monkeypatch.setitem(operators._KERNELS, operators.DIAMOND, entry)
        monkeypatch.setattr(operators, "_BB_CACHE", {})
        monkeypatch.setattr(operators, "_LEVEL_CACHE", {})
        rows = bb_diamond_r_via_rows("vdom", R)
        assert bb_diamond(R) != to_diamond(rows, "vdom").func, (entry, R)


# sha256 of repr((R, f.freeze())) over verify.specialization_sequences(6),
# in sweep order: a kernel-free record of bb_diamond and bb_r, frozen before
# the row kernel accumulated in place; at 2, f is the product at t -> t^2
_BB_DIGESTS = {
    ("bb_diamond", 1):
        "bc8ab3139dcbce2c460b089d4deed491ce865d818c7db3349b72a02e45cca710",
    ("bb_diamond", 2):
        "934229386d294969bb75506ba052511b5f71f1c696da13d6c9ba744803a10589",
    ("bb_r", 1):
        "c6b65e5fe0740d1c0b82233f40e3b66eb9973c0a28424ea08b98cf1ede7da067",
    ("bb_r", 2):
        "d37c39544053a98869835fd8898a0638b7ee3289293927d1c8f7fd691d5e66e3",
}


def test_bb_digests_are_frozen():
    # d_constancy compares routes that share the row kernel; these digests
    # pin the products themselves, so a kernel change that alters any
    # coefficient shows here
    seqs = specialization_sequences(6)
    for (name, texp), want in _BB_DIGESTS.items():
        fn = {"bb_diamond": bb_diamond, "bb_r": bb_r}[name]
        h = hashlib.sha256()
        for R in seqs:
            h.update(repr((R, fn(R).subs_power(texp).freeze())).encode())
        assert h.hexdigest() == want, (name, texp)
