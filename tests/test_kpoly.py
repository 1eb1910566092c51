import pytest

from univchar.core import LaurentPoly
from univchar.schur import SymFunc, multiply, schur_of_vector
from univchar.series import Expansion, from_diamond, to_diamond
from univchar.operators import tilde_b_parabolic
from univchar.exprparse import eval_expr
from univchar.kpoly import (KTable, duality_check, h_row_via_expansion,
                            h_rows, hb_connection, hh_r, hh_r_via_rows,
                            k_via_schur_recurrence, ktable_via_recurrence,
                            single_rectangle_table, singlerow_equivalence)

t = LaurentPoly.t
one = LaurentPoly.const(1)
R_EXAMPLE = ((2, 2), (1,))


def s(*parts):
    return SymFunc.schur(tuple(parts))


def test_h_row_none_reduces():
    p = s(2, 1)
    assert h_rows("none", ((2,),), p) == tilde_b_parabolic((2,), p, 2)


def test_h_row_single_rows():
    # vertical-domino single rows are undeformed on the vacuum
    assert h_rows("vdom", ((3,),), SymFunc.one()) == s(3)
    got = to_diamond(h_rows("hdom", ((2,),), SymFunc.one()), "hdom")
    assert dict(got.func.terms) == {(2,): one, (): t(2)}


def test_h_row_expansion_route():
    for kind in ("box", "vdom", "hdom"):
        for nu in ((2,), (1, 1), (2, 1)):
            p = s(1)
            assert h_row_via_expansion(kind, nu, p) == \
                h_rows(kind, (nu,), p), (kind, nu)


def test_h_row_negative_indices():
    # rows are defined for arbitrary integer vectors
    for kind in ("none", "box", "vdom", "hdom"):
        for nu in ((-1,), (2, -1), (1, -2)):
            got = h_rows(kind, (nu,), s(1))
            want = h_row_via_expansion(kind, nu, s(1))
            assert got == want, (kind, nu)
    # far-negative single rows annihilate
    assert h_rows("vdom", ((-9,),), s(2, 1)).is_zero()


def test_telescoped_matches_rows():
    for rects in ((), ((2,), ()), ((2, 1), (1,)), ((1, 1, 1, 1), (1,), (2,)),
                  R_EXAMPLE):
        for kind in ("none", "box", "vdom", "hdom"):
            assert hh_r(kind, rects).rows == \
                hh_r_via_rows(kind, rects).rows, (kind, rects)


def test_h_rows_telescoped_matches_rows():
    # any index vectors, negative entries included, with and without an
    # operand; s[2] - s[1,1] cancels under a single column skew
    for vectors in (((2, -1),), ((2, -1), (1,)), R_EXAMPLE,
                    ((1,), (2, 2), (1,))):
        for p in (SymFunc.one(), s(1), s(2) - s(1, 1), s(2, 1)):
            for kind in ("none", "box", "vdom", "hdom"):
                want = p
                for nu in reversed(vectors):
                    want = h_rows(kind, (nu,), want)
                assert h_rows(kind, vectors, p) == want, (kind, vectors, p)
    got = eval_expr("H.box([[2,-1],[1]], s[2] - s[1,1])")
    want = h_rows("box", ((2, -1),), h_rows("box", ((1,),), s(2) - s(1, 1)))
    assert got.func == want


def test_empty_factor_is_identity():
    for kind in ("none", "box", "vdom", "hdom"):
        a = hh_r(kind, ((2,), ()))
        b = hh_r(kind, ((2,),))
        assert a.same_rows(b)


def test_worked_example_tables():
    want = {
        "none": {(2, 2, 1): one, (3, 2): t(2)},
        "vdom": {(2, 2, 1): one, (3, 2): t(2), (1, 1, 1): t(2),
                 (2, 1): t(2) + t(4), (1,): t(4) + t(6)},
        "hdom": {(2, 2, 1): one, (3, 2): t(2), (2, 1): t(2) + t(4),
                 (3,): t(4), (1,): t(4) + t(6)},
        "box": {(2, 2, 1): one, (3, 2): t(2), (2, 1, 1): t(1),
                (2, 2): t(1) + t(3), (3, 1): t(3), (1, 1, 1): t(2),
                (2, 1): (t(2) + t(4)) * 2, (3,): t(4),
                (1, 1): t(3) * 2 + t(5), (2,): t(3) + t(5) * 2,
                (1,): (t(4) + t(6)) * 2, (): t(5) + t(7)},
    }
    for kind, rows in want.items():
        assert hh_r_via_rows(kind, R_EXAMPLE).rows == rows, kind
        assert ktable_via_recurrence(kind, R_EXAMPLE).rows == rows, kind


def test_k_via_recurrence_values():
    assert k_via_schur_recurrence("vdom", (1,), R_EXAMPLE) == t(4) + t(6)
    assert k_via_schur_recurrence("hdom", (3,), R_EXAMPLE) == t(4)
    # the Schur kind is supported in one degree only
    assert k_via_schur_recurrence("none", (1,), R_EXAMPLE).is_zero()
    assert k_via_schur_recurrence("none", (3, 2), R_EXAMPLE) == t(2)


def test_operator_vs_recurrence_sweep():
    # one case; the sweep is the verify check kpoly.operator_vs_recurrence
    rects = ((2,), (1, 1))
    for kind in ("none", "box", "vdom", "hdom"):
        assert hh_r_via_rows(kind, rects).same_rows(
            ktable_via_recurrence(kind, rects)), kind


def test_empty_sequence():
    for kind in ("none", "box", "vdom", "hdom"):
        table = hh_r(kind, ())
        assert table.rows == {(): one}


def test_single_rectangle():
    got = single_rectangle_table("hdom", (2, 2))
    assert got.rows == {(2, 2): one, (2,): t(2), (): t(4)}
    got = single_rectangle_table("vdom", (4,))
    assert got.rows == {(4,): one}
    with pytest.raises(ValueError):
        single_rectangle_table("vdom", (2, 1))
    # one rectangle; the sweep is the verify check kpoly.single_rectangle_3x3
    rect = (3, 3)
    for kind in ("none", "box", "vdom", "hdom"):
        assert single_rectangle_table(kind, rect).same_rows(
            ktable_via_recurrence(kind, (rect,))), kind


def test_duality():
    ok, _ = duality_check("vdom", (1,), R_EXAMPLE)
    assert ok
    ok, _ = duality_check("box", (), ((1,), (1,)))
    assert ok
    with pytest.raises(ValueError):
        duality_check("vdom", (1,), ((1,), (2, 2)))
    with pytest.raises(ValueError):
        duality_check("vdom", (1,), ((2, 1),))


def test_hb_connection_displayed():
    # the displayed two-factor decompositions
    ok, rep, _ = hb_connection("vdom", R_EXAMPLE)
    assert ok
    decomp = {tuple(r): terms for r, terms in rep["factor_terms"]}
    f22 = decomp[(2, 2)]
    assert f22[(2, 2)] == "1"
    assert f22[(1, 1)] == "t^2"
    assert f22[(0, 0)] == "t^4"
    assert (2, 0) not in f22
    assert decomp[(1,)][(1,)] == "1"

    ok, rep, _ = hb_connection("hdom", R_EXAMPLE)
    assert ok
    decomp = {tuple(r): terms for r, terms in rep["factor_terms"]}
    f22 = decomp[(2, 2)]
    assert f22[(2, 2)] == "1"
    assert f22[(2, 0)] == "t^2"
    assert f22[(0, 0)] == "t^4"
    assert (1, 1) not in f22

    ok, rep, _ = hb_connection("box", R_EXAMPLE)
    assert ok
    decomp = {tuple(r): terms for r, terms in rep["factor_terms"]}
    f22 = decomp[(2, 2)]
    want = {(2, 2): "1", (2, 1): "t", (1, 1): "t^2", (2, 0): "t^2",
            (1, 0): "t^3", (0, 0): "t^4", (2, -1): "t^3", (1, -1): "t^4",
            (0, -1): "t^5"}
    for gamma, val in want.items():
        assert f22[gamma] == val, gamma
    assert decomp[(1,)][(1,)] == "1"
    assert decomp[(1,)][(0,)] == "t"


def test_hb_connection_sweep():
    # one case; the sweep is the verify check kpoly.hb_connection_sweep
    for kind in ("box", "vdom", "hdom"):
        ok, _, _ = hb_connection(kind, ((2,), (1, 1)))
        assert ok, kind
    with pytest.raises(ValueError):
        hb_connection("vdom", ((1, 1, 1, 1, 1, 1),))


def test_singlerow_equivalence():
    ok, lhs, rhs = singlerow_equivalence((3, 1), (3, 2, 1))
    assert ok
    assert lhs == t(2) + t(4) * 2 + t(6)
    ok, lhs, _ = singlerow_equivalence((2,), (1, 1))
    assert ok and lhs == t(2)
    ok, lhs, _ = singlerow_equivalence((4,), (4,))
    assert ok and lhs == one
    # the sweep is the verify check kpoly.singlerow_equivalence


def test_specializations():
    for rects in [((2, 1), (2,)), ((3,), (1, 1)), ((2, 2), (1,))]:
        flat = tuple(x for r in rects for x in r)
        prod = SymFunc.one()
        for r in rects:
            prod = multiply(prod, SymFunc.schur(r))
        for kind in ("none", "box", "vdom", "hdom"):
            table = ktable_via_recurrence(kind, rects)
            rows0 = {lam: poly.eval_int(0)
                     for lam, poly in table.rows.items() if poly.eval_int(0)}
            st = schur_of_vector(flat)
            want0 = {lam: c.eval_int(1) for lam, c in st.terms.items()}
            assert rows0 == want0, (kind, rects)
            at1 = SymFunc({lam: LaurentPoly.const(poly.eval_int(1))
                           for lam, poly in table.rows.items()})
            assert from_diamond(Expansion(kind, at1)) == prod, (kind, rects)


def test_ktable_json_latex():
    table = hh_r("vdom", R_EXAMPLE)
    again = KTable.from_json(table.to_json())
    assert again.same_rows(table)
    assert again.kind == table.kind and again.rects == table.rects
    tex = table.to_latex()
    assert tex.startswith(r"\begin{tabular}")
    assert "t^{6}" in tex and "(2,2,1)" in tex
    assert table.positivity_report() == []


def test_positivity_report_flags_negative():
    table = KTable("vdom", ((1,),), {(1,): LaurentPoly({1: -1})}, "test")
    assert table.positivity_report()
