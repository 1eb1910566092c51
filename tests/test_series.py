import itertools
import random

import pytest

from univchar.core import (KINDS, LaurentPoly, conjugate, diagonal_size,
                           frobenius, partitions_of, partitions_upto)
from univchar.kpoly import ktables
from univchar.operators import bb_diamond, bb_diamond_r
from univchar.schur import (Expansion, SymFunc, _skew_spectrum,
                            bernstein_insert, inner_product, multiply,
                            skew_by)
from univchar.series import (_one_row_sweep, _series_rows, _series_spectrum,
                             _signed_shapes, change_basis, diamond_product,
                             diamond_unit, dual_basis_truncated, from_diamond,
                             newell_littlewood, omega_diamond, series_terms,
                             skew_by_series, to_diamond)
from univchar.verify import (WIDE_OPERAND, series_coeff_mismatches,
                             skew_by_series_mismatches)
from univchar import operators, oracles, schur, series
from univchar.oracles import skew_h


def s(*parts):
    return SymFunc.schur(tuple(parts))


def test_series_small_terms():
    one = LaurentPoly.const(1)
    assert series_terms("vdom", "-", 1, 2) == [((), one), ((1, 1), -one)]
    assert series_terms("hdom", "-", 1, 2) == [((), one), ((2,), -one)]
    assert series_terms("box", "-", 1, 3) == \
        [((), one), ((1,), -one), ((2, 1), one)]
    assert series_terms("none", "+", 1, 5) == [((), one)]
    assert series_terms("none", "-", 1, 5) == [((), one)]


def test_series_scale():
    terms = dict(series_terms("hdom", "+", "t", 4))
    assert terms[(2,)] == LaurentPoly.t(2)
    assert terms[(2, 2)] == LaurentPoly.t(4)
    assert terms[()] == LaurentPoly.const(1)


def test_series_against_polynomial_expansion():
    # one case; the sweep is the verify check bases.series_polynomial_oracle
    brute = oracles.brute_series_schur("box", "-", 4, 4)
    mine = {lam: poly.c.get(0, 0)
            for lam, poly in series_terms("box", "-", 1, 4)}
    assert brute == mine


def test_signed_shapes_vs_frobenius_filter():
    # past the degree-8 verify sweep: every partition of n filtered by its
    # Frobenius coordinates, signed (-1)^((n + d)/2) for box, d the diagonal
    # size, and (-1)^(n/2) for vdom and hdom
    legs_minus_arms = {"box": 0, "vdom": 1, "hdom": -1}
    for n in range(17):
        for kind, gap in legs_minus_arms.items():
            want = []
            for lam in partitions_of(n):
                arms, legs = frobenius(lam)
                if legs != tuple(a + gap for a in arms):
                    continue
                half = (n + diagonal_size(lam)) // 2 if gap == 0 else n // 2
                want.append((lam, -1 if half % 2 else 1))
            assert sorted(_signed_shapes(kind, n)) == sorted(want), (kind, n)


def test_expansion_text():
    # the diamond benchmark goldens hash this text
    assert str(SymFunc()) == "0"
    assert repr(Expansion("vdom", SymFunc())) == "Expansion(vdom, 0)"
    assert repr(Expansion("hdom", s(2, 1))) == "Expansion(hdom, s[2, 1])"
    f = SymFunc({(1,): LaurentPoly({2: -3, 1: -1, 0: 1}),
                 (): LaurentPoly.const(-2), (2, 2): LaurentPoly({-1: 1})})
    assert repr(Expansion("box", f)) == (
        "Expansion(box, (-2)*s[] + (-3*t^2 - t + 1)*s[1]"
        " + (t^-1)*s[2, 2])")
    got = to_diamond(bb_diamond_r("box", ((3,), (2,), (1,))), "box")
    assert str(got) == (
        "Expansion(box, (t^4)*s[] + (t^4 + t^3 + t^2)*s[2]"
        " + (t^3 + t^2)*s[1, 1] + (t^4 + t^3 + t^2)*s[4]"
        " + (t^3 + 2*t^2 + t)*s[3, 1] + (t^2 + t)*s[2, 2] + (t)*s[2, 1, 1]"
        " + (t^4)*s[6] + (t^3 + t^2)*s[5, 1] + (t^2 + t)*s[4, 2]"
        " + (t)*s[4, 1, 1] + (t)*s[3, 3] + s[3, 2, 1])")


def test_to_diamond_one_row():
    e = to_diamond(s(2), "vdom")
    assert e.func == s(2)
    e = to_diamond(s(2), "hdom")
    assert e.func == s(2) + SymFunc.one()
    e = to_diamond(s(2, 1), "none")
    assert e.func == s(2, 1)


def test_golden_433():
    want_hd = (s(4, 3, 3) - s(4, 3, 1) - s(3, 3, 2) + s(4, 2) + s(3, 3)
               + s(3, 2, 1) - s(4) - s(3, 1) - s(2, 2) + s(2))
    assert diamond_unit((4, 3, 3), "hdom") == want_hd
    want_vd = (s(4, 3, 3) - s(4, 2, 2) - s(3, 3, 2) + s(3, 2, 1)
               + s(2, 2, 2) - s(2, 1, 1))
    assert diamond_unit((4, 3, 3), "vdom") == want_vd
    for kind in ("none", "box", "vdom", "hdom"):
        assert diamond_unit((), kind) == SymFunc.one()


def test_inverse_roundtrip():
    # one case; the sweep is the verify check bases.inverse_roundtrip
    e = Expansion("box", s(3, 2, 1))
    assert to_diamond(from_diamond(e), "box").func == e.func


def test_change_basis():
    e = Expansion("vdom", s(2, 1))
    assert change_basis(e, "vdom").func == e.func
    got = change_basis(Expansion("vdom", s(1, 1)), "box")
    assert got.func == s(1, 1) + s(1)
    zero = Expansion("hdom", SymFunc.zero())
    assert change_basis(zero, "box").func.is_zero()


def test_newell_littlewood():
    assert newell_littlewood((2,), (1,), (1,)) == 1
    assert newell_littlewood((), (1,), (1,)) == 1
    assert newell_littlewood((3,), (2,), (1,)) == 1
    for lam in partitions_upto(4):
        for mu in partitions_upto(4):
            want = 1 if lam == mu else 0
            assert newell_littlewood(lam, mu, ()) == want


def test_newell_littlewood_symmetry():
    shapes = partitions_upto(4)
    rng = random.Random(5)
    for _ in range(120):
        lam, mu, nu = (rng.choice(shapes) for _ in range(3))
        d = newell_littlewood(lam, mu, nu)
        assert d >= 0
        assert d == newell_littlewood(mu, nu, lam)
        assert d == newell_littlewood(nu, lam, mu)
        assert d == newell_littlewood(conjugate(lam), conjugate(mu),
                                      conjugate(nu))


def test_diamond_product():
    for kind in ("box", "vdom", "hdom"):
        e1 = Expansion(kind, s(1))
        out = diamond_product(e1, e1)
        assert out.func == s(2) + s(1, 1) + SymFunc.one(), kind
    e = Expansion("vdom", s(2, 1))
    unit = Expansion("vdom", SymFunc.one())
    assert diamond_product(e, unit).func == e.func
    with pytest.raises(ValueError):
        diamond_product(Expansion("vdom", s(1)), Expansion("hdom", s(1)))


def test_structure_constants_match_nl():
    # the kind-free product against each kind's product through its series
    shapes = partitions_upto(4)
    for mu in shapes:
        for nu in shapes:
            for kind in ("box", "vdom", "hdom"):
                e1 = Expansion(kind, SymFunc.schur(mu))
                e2 = Expansion(kind, SymFunc.schur(nu))
                e = diamond_product(e1, e2)
                want = to_diamond(multiply(from_diamond(e1),
                                           from_diamond(e2)), kind)
                assert e == want, (kind, mu, nu)
            for lam, c in e.func.terms.items():
                assert c == LaurentPoly.const(
                    newell_littlewood(lam, mu, nu)), (lam, mu, nu)


def test_omega_diamond():
    e = Expansion("vdom", s(2, 1))
    assert omega_diamond(e).func == s(2, 1)
    e = Expansion("hdom", s(3))
    assert omega_diamond(e).func == s(1, 1, 1)
    assert omega_diamond(Expansion("box", SymFunc.zero())).func.is_zero()


def test_omega_intertwines_transpose():
    # one case; the sweep is the verify check bases.omega_intertwines
    lhs = from_diamond(omega_diamond(Expansion("vdom", s(3, 1))))
    rhs = from_diamond(Expansion("hdom", s(3, 1))).transposed()
    assert lhs == rhs


def test_dual_basis():
    assert dual_basis_truncated((), "none", 5) == SymFunc.one()
    got = dual_basis_truncated((1,), "vdom", 3)
    assert got == s(1) + s(2, 1) + s(1, 1, 1)
    pair = inner_product(dual_basis_truncated((1,), "vdom", 3),
                         diamond_unit((2, 1), "vdom"))
    assert pair.is_zero()
    with pytest.raises(ValueError):
        dual_basis_truncated((2, 1), "vdom", 2)
    # one more case; the sweep is the verify check bases.dual_pairing
    dual = dual_basis_truncated((2, 1), "box", 5)
    for mu in partitions_upto(5):
        want = LaurentPoly.const(1 if mu == (2, 1) else 0)
        assert inner_product(dual, diamond_unit(mu, "box")) == want, mu


def test_skew_by_series_linearity():
    f = s(3, 1).scaled(LaurentPoly.t(1)) + s(2)
    got = skew_by_series(f, "vdom", "-")
    want = (from_diamond(Expansion("vdom", s(3, 1))).scaled(LaurentPoly.t(1))
            + from_diamond(Expansion("vdom", s(2))))
    assert got == want


def test_series_spectrum_vs_skew_by():
    # the per-lambda spectrum, t-scaled by the shift |lam| - |nu|, against
    # skew_by by the series truncated at |lam|
    for lam in partitions_upto(8):
        p = s(*lam)
        for kind, sign, scale in itertools.product(KINDS, "+-", (1, "t")):
            want = skew_by(p, SymFunc(dict(series_terms(kind, sign, scale,
                                                        sum(lam)))))
            got = SymFunc({nu: LaurentPoly.t(
                sum(lam) - sum(nu) if scale == "t" else 0, k)
                for nu, k in _series_spectrum(lam, kind, sign)})
            assert got == want, (kind, sign, scale, lam)
            assert skew_by_series(p, kind, sign, scale) == want, \
                (kind, sign, scale, lam)


def test_vdom_spectrum_vs_lr_fills():
    # the vdom "+" spectrum, built from lam's tail, against the sum of the
    # Littlewood-Richardson fills of the series terms mu inside lam
    lams = partitions_upto(12)
    assert len(lams) == 272
    for lam in lams:
        size = sum(lam)
        want = {}
        for row in _series_rows("vdom", "+", size)[:size + 1]:
            for mu, sgn in row:
                for nu, k in _skew_spectrum(lam, mu):
                    want[nu] = want.get(nu, 0) + sgn * k
        want = {nu: k for nu, k in want.items() if k}
        got = _series_spectrum(lam, "vdom", "+")
        assert dict(got) == want and len(got) == len(want), lam


def test_memos_share_interned_shapes():
    # every strip, inserted shape and spectrum entry that a memo stores is
    # the intern table's one object for its value, and the one insertion
    # memo, read by the row kernel, the vdom spectra and straighten, holds
    # true insertions
    rects = ((3, 3), (2, 2), (1,))
    ktables(KINDS, rects)
    bb_diamond(rects)

    def shared(key):
        return schur._INTERN.get(key) is key

    assert schur._REMOVAL_CACHE and schur._INSERT_CACHE
    assert series._SPECTRUM_CACHE
    for by_size in schur._REMOVAL_CACHE.values():
        assert all(shared(nu) for shapes in by_size for nu in shapes)
    for (m, lam), got in schur._INSERT_CACHE.items():
        assert got == (bernstein_insert(m, lam) or ()), (m, lam)
        assert not got or shared(got[1]), (m, lam)
    for spectrum in series._SPECTRUM_CACHE.values():
        assert all(shared(entry) and shared(entry[0]) for entry in spectrum)
    assert not hasattr(operators, "_INSERT_CACHE")


def test_one_row_sweep_vs_pieri():
    # the packed sweep against one skew_h per strip size, on coefficients
    # past 2^64 with negative exponents, on zero, and on a sum that cancels
    def by_pieri(p, scale, sign):
        out = SymFunc()
        for k in range(p.degree() + 1):
            out = out + skew_h(p, k).scaled(
                LaurentPoly.t(k if scale == "t" else 0, sign ** k))
        return out

    for p in (WIDE_OPERAND, SymFunc(), s(1) + s()):
        for scale, sign in itertools.product((1, "t"), (1, -1)):
            assert _one_row_sweep(p, scale, sign) == by_pieri(p, scale, sign)
    assert _one_row_sweep(SymFunc(), "t").terms == {}
    assert _one_row_sweep(s(1) + s(), 1, -1).terms == \
        {(1,): LaurentPoly.const(1)}


def test_skew_by_series_vs_series_terms():
    # every kind, sign and scale, box "+" included, against the direct sum
    assert skew_by_series_mismatches(5) == []


def test_series_coeff_vs_skew():
    # one coefficient, every kind and lambda, against the whole skew
    assert series_coeff_mismatches(5) == []
