import hashlib
import io
import json
import random

import pytest

from univchar.core import (KINDS, LaurentPoly, partition_key, partitions_of,
                           partitions_upto, seq_overlap, seq_weight)
from univchar.schur import SymFunc, multiply, schur_of_vector
from univchar.series import Expansion, from_diamond, to_diamond
from univchar.operators import tilde_b_diamond_parabolic
from univchar.exprparse import eval_expr
from univchar import kpoly
from univchar.kpoly import (KTable, duality_check, h_rows, hh_r,
                            k_via_schur_recurrence)
from univchar.oracles import (h_row_via_expansion, hb_connection,
                              hh_r_via_rows, single_rectangle_table,
                              singlerow_equivalence)
from univchar.verify import dominant_rect_sequences, positivity_report

t = LaurentPoly.t
one = LaurentPoly.const(1)
R_EXAMPLE = ((2, 2), (1,))


def s(*parts):
    return SymFunc.schur(tuple(parts))


def test_h_row_none_reduces():
    p = s(2, 1)
    assert h_rows("none", ((2,),), p) == \
        tilde_b_diamond_parabolic("none", (2,), p, 2)


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
        assert a.rows == b.rows


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
        assert hh_r(kind, R_EXAMPLE).rows == rows, kind


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
        assert hh_r_via_rows(kind, rects).rows == \
            hh_r(kind, rects).rows, kind


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
        assert single_rectangle_table(kind, rect).rows == \
            hh_r(kind, (rect,)).rows, kind


def test_duality():
    ok, _ = duality_check("vdom", (1,), R_EXAMPLE)
    assert ok
    ok, _ = duality_check("box", (), ((1,), (1,)))
    assert ok
    # a rejected sequence or lambda is never memoized: it raises on every
    # call
    for lam, bad in (((1,), ((1,), (2, 2))), ((1,), ((2, 1),)),
                     ((1, 2), R_EXAMPLE), ((-1,), R_EXAMPLE)):
        for _ in range(2):
            with pytest.raises(ValueError):
                duality_check("vdom", lam, bad)
    assert not {(1, 2), (-1,)} & set(kpoly._LAMBDA_CACHE)


def test_duality_memo(monkeypatch):
    want = duality_check("hdom", (2, 1), R_EXAMPLE)
    # a caller mutating a report leaves the memo as it was
    monkeypatch.setattr(kpoly, "_DUALITY_CACHE", {})
    _, report = duality_check("hdom", (2, 1), R_EXAMPLE)
    report["R"][0].append(9)
    report["R"].append([7])
    report["R_transposed"].clear()
    assert duality_check("hdom", (2, 1), R_EXAMPLE) == want
    # lists, a generator and a kind alias give the same answer as tuples,
    # each on a first call, which reads R once
    want = duality_check("vdom", (1,), R_EXAMPLE)
    for kind, rects in (("vd", R_EXAMPLE), ("vdom", [[2, 2], [1]]),
                        ("vdom", (r for r in R_EXAMPLE))):
        monkeypatch.setattr(kpoly, "_DUALITY_CACHE", {})
        assert duality_check(kind, [1], rects) == want, kind
    # so do a list, a trailing zero and a generator for lambda
    want = duality_check("vdom", (2, 1), R_EXAMPLE)
    for lam in ([2, 1], (2, 1, 0), (p for p in (2, 1))):
        monkeypatch.setattr(kpoly, "_LAMBDA_CACHE", {})
        assert duality_check("vdom", lam, R_EXAMPLE) == want, lam


def test_duality_lookups_on_arguments_as_given(monkeypatch):
    # a call looks kind, R and lambda up as given; a generator R, a list R,
    # the alias vd, a list lambda and a trailing zero miss, and fall back to
    # the canonical key, which is the only key stored
    monkeypatch.setattr(kpoly, "_DUALITY_CACHE", {})
    monkeypatch.setattr(kpoly, "_LAMBDA_CACHE", {})
    want = duality_check("vdom", (2, 1), R_EXAMPLE)
    for _ in range(2):
        for kind, rects, lam in (
                ("vdom", (r for r in R_EXAMPLE), (2, 1)),
                ("vdom", [[2, 2], [1]], (2, 1)),
                ("vdom", [(2, 2), (1,)], (2, 1)), ("vd", R_EXAMPLE, (2, 1)),
                ("VDOM", R_EXAMPLE, (2, 1)), ("vdom", R_EXAMPLE, [2, 1]),
                ("vdom", R_EXAMPLE, (2, 1, 0))):
            got = duality_check(kind, lam, rects)
            assert got == want, (kind, lam)
            assert got[1]["R"] is not want[1]["R"]
    for bad in ((1, 2), (-1,)):
        with pytest.raises(ValueError):
            duality_check("vdom", bad, R_EXAMPLE)
    assert set(kpoly._DUALITY_CACHE) == {("vdom", R_EXAMPLE)}
    for kind, rects in kpoly._DUALITY_CACHE:
        assert type(rects) is tuple
        assert all(type(r) is tuple for r in rects)
    assert not {(1, 2), (-1,)} & set(kpoly._LAMBDA_CACHE)
    assert all(type(lam) is tuple for lam in kpoly._LAMBDA_CACHE)
    # a lambda in neither table answers 0 on both sides, at the shift
    # 2 (overlap + |R|) - 2 |lam|, on every call
    shift = 2 * (seq_overlap(R_EXAMPLE) + seq_weight(R_EXAMPLE))
    for lam in ((4, 4), [4, 4], (4, 4, 0)):
        equal, report = duality_check("hdom", lam, R_EXAMPLE)
        assert (equal, report["lhs"], report["rhs"]) == (True, "0", "0")
        assert report["lambda"] == [4, 4]
        assert report["shift"] == shift - 16


def test_duality_sides_differ(monkeypatch):
    # a right-hand side that disagrees is formatted fresh, as the inverse-t
    # image of its row; R_EXAMPLE is its own R', so one table serves both
    lam, lamt = (2, 1), (2, 1)
    tables = kpoly._table_rows(R_EXAMPLE)
    lhs = tables["hdom"][lamt][0]
    for row in (tables["vdom"][lam][0] + t(7), None):
        rows = dict(tables["vdom"])
        if row is None:
            del rows[lam]
        else:
            rows[lam] = (row, str(row))
        monkeypatch.setattr(kpoly, "_TABLE_CACHE",
                            {R_EXAMPLE: {**tables, "vdom": rows}})
        monkeypatch.setattr(kpoly, "_DUALITY_CACHE", {})
        equal, report = duality_check("vdom", lam, R_EXAMPLE)
        assert equal is False
        assert report["lhs"] == str(lhs)
        row = LaurentPoly.zero() if row is None else row
        assert report["rhs"] == str(row.subs_power(-1).shift(report["shift"]))


# sha256 of json.dumps([equal, report], sort_keys=True) over the
# duality.transpose sweep (verify.dominant_rect_sequences(6), the four
# kinds, every lambda), frozen while each coefficient was still read one at
# a time from bb_r
_DUALITY_DIGEST = \
    "28456a954e771e1751cd68fabd37688f6502a7273ed312d6a797934bbd0efd16"


def test_duality_digests_are_frozen():
    h = hashlib.sha256()
    for rects in dominant_rect_sequences(6):
        for kind in KINDS:
            for n in range(seq_weight(rects) + 1):
                for lam in partitions_of(n):
                    h.update(json.dumps(list(duality_check(kind, lam, rects)),
                                        sort_keys=True).encode())
    assert h.hexdigest() == _DUALITY_DIGEST


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
            table = hh_r(kind, rects)
            rows0 = {lam: poly.eval_int(0)
                     for lam, poly in table.rows.items() if poly.eval_int(0)}
            st = schur_of_vector(flat)
            want0 = {lam: c.eval_int(1) for lam, c in st.terms.items()}
            assert rows0 == want0, (kind, rects)
            at1 = SymFunc({lam: LaurentPoly.const(poly.eval_int(1))
                           for lam, poly in table.rows.items()})
            assert from_diamond(Expansion(kind, at1)) == prod, (kind, rects)


def _written(table, latex=True):
    """(JSON text, LaTeX text or None, returned count and first row) of
    KTable.write into in-memory files."""
    text = io.StringIO()
    tex = io.StringIO() if latex else None
    negative = table.write(text, tex)
    return text.getvalue(), tex.getvalue() if latex else None, negative


def _summary(table):
    """What KTable.write returns of positivity_report(table): its count and
    its first row, or None."""
    report = positivity_report(table)
    return len(report), report[0] if report else None


def test_ktable_json_latex():
    table = hh_r("vdom", R_EXAMPLE)
    text, tex, negative = _written(table)
    again = KTable.from_json(json.loads(text))
    assert again.rows == table.rows
    assert again.kind == table.kind and again.rects == table.rects
    assert tex.startswith(r"\begin{tabular}")
    assert "t^{6}" in tex and "(2,2,1)" in tex
    assert negative == (0, None) == _summary(table)
    assert _written(table, latex=False) == (text, None, (0, None))


# Edge tables with the LaTeX the stdlib-era writer (KTable.to_latex, since
# replaced by write) gave them: exponents whose string order differs from
# their numeric order, negative exponents and coefficients, the empty
# partition, no rows, and kind none.
_EDGE_TABLES = [
    (KTable("box", ((1,),), {(2,): LaurentPoly({2: 1, 10: 3})}, "test"),
     "\\begin{tabular}{ll}\n"
     "$\\lambda$ & $K^{\\mathrm{box}}_{\\lambda;R}(t)$ \\\\\\hline\n"
     "$(2)$ & $3t^{10} + t^{2}$ \\\\\n"
     "\\end{tabular}\n"),
    (KTable("vdom", ((1,),),
            {(1,): LaurentPoly({-3: -2, 0: 1, 1: -1}),
             (2, 1): LaurentPoly({0: -1, 5: -1, 11: 12})}, "test"),
     "\\begin{tabular}{ll}\n"
     "$\\lambda$ & $K^{\\mathrm{vdom}}_{\\lambda;R}(t)$ \\\\\\hline\n"
     "$(1)$ & $-t + 1 - 2t^{-3}$ \\\\\n"
     "$(2,1)$ & $12t^{11} - t^{5} - 1$ \\\\\n"
     "\\end{tabular}\n"),
    (KTable("none", (), {(): LaurentPoly({0: 1})}, "test"),
     "\\begin{tabular}{ll}\n"
     "$\\lambda$ & $K^{\\mathrm{none}}_{\\lambda;R}(t)$ \\\\\\hline\n"
     "$()$ & $1$ \\\\\n"
     "\\end{tabular}\n"),
    (KTable("hdom", ((2,),), {}, "test"),
     "\\begin{tabular}{ll}\n"
     "$\\lambda$ & $K^{\\mathrm{hdom}}_{\\lambda;R}(t)$ \\\\\\hline\n"
     "\\end{tabular}\n"),
    (KTable("none", ((1,), (1,)),
            {(2,): LaurentPoly({0: 1, 1: 1}), (1, 1): LaurentPoly({1: 2}),
             (3,): LaurentPoly()}, "recurrence"),
     "\\begin{tabular}{ll}\n"
     "$\\lambda$ & $K^{\\mathrm{none}}_{\\lambda;R}(t)$ \\\\\\hline\n"
     "$(2)$ & $t + 1$ \\\\\n"
     "$(1,1)$ & $2t$ \\\\\n"
     "\\end{tabular}\n"),
]

# sha256 of the stdlib-era LaTeX of the four tables of ((3,3),(2,2),(1,))
_TEX_DIGESTS = {
    "none": "c589023475b19e626acd3186fb4e5bbe9f4bf315f655e6789f1aa6ec2f2ffd1d",
    "box": "c7b0e0474b7bb46809b588fbd17586d089d6fe665f380e4d85c7430f5bc9a52a",
    "vdom": "b3fafd7ddb5cb68d5f255c71b33a8967f4c274b761ec91efc798680bc6e30f3f",
    "hdom": "3c0b5730e3a766ad6f0ed0319e5cc9f9d3bdc96175baab905b441063ce68f3f5",
}


def _stdlib_json(table):
    return json.dumps(table.to_json(), indent=1, sort_keys=True) + "\n"


def test_write_matches_the_stdlib_encoder():
    for table, tex in _EDGE_TABLES:
        text, got, negative = _written(table)
        assert text == _stdlib_json(table), table
        assert got == tex, table
        assert negative == _summary(table), table
    assert '"K": []' in _written(_EDGE_TABLES[3][0])[0]
    assert '"lambda": []' in _written(_EDGE_TABLES[2][0])[0]
    edge = _EDGE_TABLES[1][0]
    assert [lam for lam, _ in positivity_report(edge)] == [(1,), (2, 1)]
    assert _written(edge)[2] == (2, ((1,), edge.rows[(1,)]))
    tables = kpoly.ktables(KINDS, ((3, 3), (2, 2), (1,)))
    for kind, table in tables.items():
        text, tex, negative = _written(table)
        assert text == _stdlib_json(table), kind
        assert hashlib.sha256(tex.encode()).hexdigest() == \
            _TEX_DIGESTS[kind], kind
        assert negative == (0, None), kind


def test_support_is_partition_key_order():
    rng = random.Random(12)
    shapes = [lam for lam in partitions_upto(12) if lam]
    for size in [0, 1, 2, len(shapes)] + [rng.randrange(len(shapes))
                                          for _ in range(20)]:
        rows = rng.sample(shapes, size) + [()]
        table = KTable("none", (), dict.fromkeys(rows, one), "test")
        assert table.support() == sorted(rows, key=partition_key)


def test_positivity_report_flags_negative():
    table = KTable("vdom", ((1,),), {(1,): LaurentPoly({1: -1})}, "test")
    assert positivity_report(table)
