import random

from univchar.core import (LaurentPoly, conjugate, contains, partition_key,
                           partitions_of, partitions_upto)
from univchar.schur import (Expansion, SymFunc, _prod_spectrum,
                            _skew_spectrum, _strips, add_into,
                            bernstein_insert, evaluate, inner_product,
                            lr_coefficient, multiply,
                            multiply_e, multiply_h, schur_of_vector, skew_by,
                            skew_e, skew_h, ssyt_contents, straighten,
                            to_func)
from univchar import oracles


def s(*parts):
    return SymFunc.schur(tuple(parts))


def test_pieri_products():
    assert s(1) * s(1) == s(2) + s(1, 1)
    assert multiply_h(s(2), 2) == s(4) + s(3, 1) + s(2, 2)
    assert multiply_e(s(1), 2) == s(2, 1) + s(1, 1, 1)
    assert multiply_h(s(1), 0) == s(1)
    assert multiply_h(s(1), -1).is_zero()


def test_pieri_edge_cases():
    one = SymFunc.one()
    for pieri in (multiply_h, multiply_e, skew_h, skew_e):
        assert pieri(one, 0) == one
    assert skew_h(s(2, 1), 4).is_zero()
    assert skew_e(s(3, 1), 3).is_zero()
    assert multiply_e(one, 3) == s(1, 1, 1)
    # the first row may take all m cells
    assert multiply_h(s(2, 1), 3) == \
        s(5, 1) + s(4, 2) + s(4, 1, 1) + s(3, 2, 1)


def test_removal_strips_against_brute_force():
    # lam/mu is a horizontal strip when no column of it holds two cells,
    # a vertical one when no row does
    def strip(lam, mu, column):
        a, b = (lam, mu) if column else (conjugate(lam), conjugate(mu))
        b += (0,) * (len(a) - len(b))
        return all(x - y <= 1 for x, y in zip(a, b))

    for lam in partitions_upto(8):
        for m in range(sum(lam) + 1):
            for column in (False, True):
                want = sorted((mu for mu in partitions_of(sum(lam) - m)
                               if contains(lam, mu) and
                               strip(lam, mu, column)), key=partition_key)
                assert list(_strips(lam, m, column, False)) == want, \
                    (lam, m, column)
                if m > (len(lam) if column else lam[0] if lam else 0):
                    assert not want


def test_product_example():
    got = s(2, 1) * s(2, 1)
    want = (s(4, 2) + s(4, 1, 1) + s(3, 3) + s(3, 2, 1).scaled(2)
            + s(3, 1, 1, 1) + s(2, 2, 2) + s(2, 2, 1, 1))
    assert got == want
    assert (s(2, 1) * SymFunc.zero()).is_zero()


def test_lr_values():
    assert lr_coefficient((3, 2, 1), (2, 1), (2, 1)) == 2
    assert lr_coefficient((4, 2), (2, 1), (2, 1)) == 1
    # degree mismatch forces zero
    assert lr_coefficient((2, 1), (1,), (1,)) == 0
    assert lr_coefficient((2, 1), (2,), (1,)) == 1
    assert lr_coefficient((2, 1), (1, 1), (1,)) == 1


def test_skew_examples():
    assert skew_by(s(2, 1), s(1)) == s(2) + s(1, 1)
    assert skew_by(s(1, 1), s(1, 1)) == SymFunc.one()
    assert skew_by(s(1, 1), s(2)).is_zero()
    assert skew_h(s(2, 1), 1) == s(2) + s(1, 1)
    assert skew_e(s(2, 1), 2) == s(1)


def test_adjointness_sweep():
    # one case; the sweep is the verify check lr.adjointness
    lam, mu = (4, 3, 2, 1), (2, 1)
    skewed = skew_by(SymFunc.schur(lam), SymFunc.schur(mu))
    for nu in partitions_of(sum(lam) - sum(mu)):
        lhs = skewed.coeff(nu)
        rhs = multiply(SymFunc.schur(mu), SymFunc.schur(nu)).coeff(lam)
        assert lhs == rhs, nu


def test_lr_symmetry_and_transpose():
    shapes = partitions_upto(5)
    for mu in shapes:
        for nu in shapes:
            a = _prod_spectrum(mu, nu)
            b = _prod_spectrum(nu, mu)
            assert dict(a) == dict(b)
            c = _prod_spectrum(conjugate(mu), conjugate(nu))
            assert {conjugate(l): v for l, v in a.items()} == dict(c)


def test_lr_spectrum_edge_cases():
    # an empty factor on either side, and on both
    assert _prod_spectrum((2, 1), ()) == {(2, 1): 1}
    assert _prod_spectrum((), (2, 1)) == {(2, 1): 1}
    assert _prod_spectrum((), ()) == {(): 1}
    # nothing to fill: an empty inner shape, lam = mu, and mu not in lam
    assert _skew_spectrum((3, 1), ()) == (((3, 1), 1),)
    assert _skew_spectrum((3, 1), (3, 1)) == (((), 1),)
    assert _skew_spectrum((3, 1), (1, 1, 1)) == ()
    # two columns stack into len(mu) + len(nu) rows; two rows are Pieri
    for a, b in ((1, 1), (2, 3), (3, 2), (1, 4)):
        got = s(*(1,) * a) * s(*(1,) * b)
        assert got == multiply_e(s(*(1,) * a), b)
        assert (1,) * (a + b) in got.terms
        assert s(a) * s(b) == multiply_h(s(a), b)


def test_lr_spectrum_deep_fills():
    # fills deeper than Python's recursion limit: a product fills only the
    # smaller factor's cells, and the fill keeps its own stack
    assert multiply(s(1000), s(1)) == multiply_h(s(1000), 1)
    assert multiply(s(1), s(1000)) == multiply_h(s(1000), 1)
    assert multiply(s(600), s(600)) == multiply_h(s(600), 600)
    column = s(*(1,) * 1000)
    assert multiply(column, s(1)) == multiply_e(column, 1)
    assert skew_by(s(1000), s(1)) == s(999)
    assert skew_by(s(600, 600), s(600)) == s(600)


def test_monomial_oracle_small():
    # one case; the sweep is the verify check lr.monomial_oracle
    mine = {l: c for l, c in _prod_spectrum((2, 1), (2, 1)).items()
            if len(l) <= 3}
    assert mine == oracles.lr_product_oracle((2, 1), (2, 1), 3)


def test_chain_oracle_random():
    rng = random.Random(11)
    shapes = partitions_upto(6)
    for _ in range(150):
        mu, nu = rng.choice(shapes), rng.choice(shapes)
        lam = rng.choice(list(partitions_of(sum(mu) + sum(nu))))
        assert lr_coefficient(lam, mu, nu) == \
            oracles.lr_coefficient_via_chains(lam, mu, nu)


def test_straighten():
    assert straighten((1, 3)) == (-1, (2, 2))
    assert straighten((1, 2)) is None
    assert straighten((3, 2, 0)) == (1, (3, 2))
    assert straighten(()) == (1, ())
    assert straighten((-1,)) is None
    for lam in partitions_upto(8):
        assert straighten(lam + (0, 0)) == (1, lam)
    assert schur_of_vector((1, 3)) == s(2, 2).scaled(-1)


def test_bernstein_insert():
    # B_m s_lam = s_(m, lam): against sorting, and against the sum
    # sum_a (-1)^a h_(m+a) e_a^perp s_lam that defines B_m
    assert bernstein_insert(-1, (1,)) == (-1, ())
    for lam in partitions_upto(8):
        size = sum(lam)
        for m in range(-size - 2, size + 3):
            want = oracles.straighten_by_sorting((m,) + lam)
            assert bernstein_insert(m, lam) == want, (m, lam)
            assert straighten((m,) + lam) == want, (m, lam)
            acc = {}
            for a in range(size + 1):
                multiply_h(skew_e(s(*lam), a), m + a, acc, 0, (-1) ** a)
            assert to_func(acc) == (SymFunc() if want is None else
                                    SymFunc.schur(want[1], want[0])), (m, lam)


def test_associativity_random():
    rng = random.Random(12)
    shapes = partitions_upto(5)
    for _ in range(60):
        a, b, c = (SymFunc.schur(rng.choice(shapes)) for _ in range(3))
        assert multiply(multiply(a, b), c) == multiply(a, multiply(b, c))


def test_evaluate():
    assert evaluate(s(1), [(1,), (-1,)], 1) == \
        {(1,): LaurentPoly.const(1), (-1,): LaurentPoly.const(1)}
    assert evaluate(s(1, 1, 1), [(1,), (-1,)], 1) == {}
    assert evaluate(s(1, 1), [(1,), (-1,)], 1) == \
        {(0,): LaurentPoly.const(1)}
    # linear in the function and in the coefficients
    f = s(2).scaled(LaurentPoly.t(1)) + s(1, 1)
    vals = evaluate(f, [(1,), (0,)], 1)
    assert vals[(2,)] == LaurentPoly.t(1)
    assert vals[(1,)] == LaurentPoly.t(1) + LaurentPoly.const(1)


def test_ssyt_contents_kostka():
    # contents of the (2,1) shape in 3 letters: the standard Kostka row
    contents = ssyt_contents((2, 1), 3)
    assert contents[(2, 1, 0)] == 1
    assert contents[(1, 1, 1)] == 2
    assert sum(contents.values()) == 8


def test_symfunc_api():
    f = s(2, 1).scaled(LaurentPoly.t(2)) + s(1)
    assert f.degree() == 3
    assert f.coeff((2, 1)) == LaurentPoly.t(2)
    assert f.coeff((5,)).is_zero()
    assert f.support() == [(1,), (2, 1)]
    assert f.subs_power(2).coeff((2, 1)) == LaurentPoly.t(4)
    assert f.eval_t(1) == {(2, 1): 1, (1,): 1}
    assert (f - f).is_zero()
    assert inner_product(f, s(1)) == LaurentPoly.const(1)
    assert f.transposed().coeff((2, 1)) == LaurentPoly.t(2)
    e = Expansion("vd", f)
    assert e.kind == "vdom"


def test_accumulator_matches_plain_arithmetic():
    t = LaurentPoly.t
    a = t(0, 2) + t(3, -1)
    b = t(-1) + t(2, 5)
    acc = {}
    add_into(acc, (2,), a)
    add_into(acc, (2,), a, 3, -2)
    add_into(acc, (1, 1), b, -1)
    add_into(acc, (1, 1), b * a)        # a non-monomial multiplier
    add_into(acc, (1, 1), t(1, -5), 0, 1)  # cancels one exponent only
    add_into(acc, (3,), b, 2, 4)
    add_into(acc, (3,), b, 2, -4)        # cancels the whole term
    got = to_func(acc)
    want = (SymFunc({(2,): a}) + SymFunc({(2,): a.shift(3) * -2})
            + SymFunc({(1, 1): b.shift(-1) + b * a - t(1, 5)}))
    assert got == want
    assert (3,) not in got.terms
    assert all(v for c in got.terms.values() for v in c.c.values())
    assert to_func({(1,): {0: 0}}).is_zero()


def test_pieri_into_an_accumulator():
    # mult * t^shift times each Pieri move, added in place, is the scaled
    # move; a skew of s[2] - s[1,1] by one cell cancels to zero
    t = LaurentPoly.t
    p = s(2, 1).scaled(t(1) + t(-2, 3)) + s(3) - s(1, 1, 1) + s(2)
    for pieri in (multiply_h, skew_h, skew_e):
        for m in range(-1, 4):
            for shift, mult in ((0, 1), (2, 1), (0, -1), (-3, 4)):
                acc = {}
                pieri(p, m, acc, shift, mult)
                want = pieri(p, m).scaled(t(shift, mult))
                assert to_func(acc) == want, (pieri, m, shift, mult)
    for skew in (skew_h, skew_e):
        acc = {}
        skew(s(2) - s(1, 1), 1, acc, 1, -1)
        assert acc and to_func(acc).is_zero()


def test_skew_by_monomial_and_polynomial_coefficients():
    # skew_by shifts by a monomial coefficient of q and multiplies by any
    # other; both must agree with adjointness to the product, also where
    # an LR number is 2 (s[3,2,1] skewed by s[2,1] at s[2,1])
    t = LaurentPoly.t
    p = s(3, 2, 1).scaled(t(1) + t(0, 2)) + s(4, 2).scaled(t(-1, -1))
    mono, poly = t(2, -3), t(0) + t(1)
    for a, b in ((mono, poly), (poly, mono)):
        q = s(2, 1).scaled(a) + s(1).scaled(b) + s(1, 1).scaled(t(-1))
        got = skew_by(p, q)
        for nu in partitions_upto(5):
            assert got.coeff(nu) == inner_product(
                p, multiply(q, SymFunc.schur(nu))), (a, nu)
