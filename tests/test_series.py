import itertools
import random

import pytest

from univchar.core import KINDS, LaurentPoly, conjugate, partitions_upto
from univchar.schur import (Expansion, SymFunc, inner_product, multiply,
                            skew_by)
from univchar.series import (_series_spectrum, change_basis,
                             diamond_product, diamond_unit,
                             dual_basis_truncated, from_diamond,
                             newell_littlewood, omega_diamond, series_terms,
                             skew_by_series, to_diamond)
from univchar.verify import series_coeff_mismatches, skew_by_series_mismatches
from univchar import oracles


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


def test_skew_by_series_vs_series_terms():
    # every kind, sign and scale, box "+" included, against the direct sum
    assert skew_by_series_mismatches(5) == []


def test_series_coeff_vs_skew():
    # one coefficient, every kind and lambda, against the whole skew
    assert series_coeff_mismatches(5) == []
