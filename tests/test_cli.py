import hashlib
import json
import os
import subprocess
import sys

import pytest

import univchar
from univchar.cli import main
from univchar.core import LaurentPoly
from univchar.exprparse import (MAX_NESTING, MAX_POWER, MAX_POWER_BITS,
                                EvalError, ParseError, eval_ast, eval_expr,
                                expand_value, format_value, parse)
from univchar.kpoly import KTable
from univchar.oracles import direct_extraction_oracle, hh_r_via_rows
from univchar.schur import Expansion, SymFunc


def test_parse_examples():
    ast = parse("s[2]*s[1]")
    assert ast[0] == "mul"
    with pytest.raises(ParseError):
        parse("s[2,3]")
    ast = parse("kpoly(lambda=[1], R=[[2,2],[1]], kind=vd)")
    assert ast[0] == "call" and ast[2] == "kpoly"
    with pytest.raises(ParseError):
        parse("s[2] +")
    with pytest.raises(ParseError):
        parse("s.bad[1]")
    with pytest.raises(ParseError):
        parse("frob(1)")


def test_eval_examples():
    v = eval_expr("kpoly(lambda=[1], R=[[2,2],[1]], kind=vd)")
    assert v == LaurentPoly.t(4) + LaurentPoly.t(6)
    v = eval_expr("expand(s.hd[4,3,3], basis=none)")
    assert len(v.func.terms) == 10
    v = eval_expr("nl([2],[1],[1])")
    assert v == LaurentPoly.const(1)
    v = eval_expr("s[2]*s[1]")
    assert format_value(v) == "s[3] + s[2,1]"
    with pytest.raises(EvalError):
        eval_expr("s.vd[1] + s.hd[1]")
    with pytest.raises(EvalError):
        eval_expr("kpoly(lambda=[1])")


def test_eval_operator_expressions():
    v = eval_expr("B([3,2])")
    assert format_value(v) == "s[3,2]"
    v = eval_expr("Bt([2,2], s[1])")
    assert v.func == direct_extraction_oracle((2, 2), SymFunc.schur((1,)),
                                              "none", 1)
    v = eval_expr("expand(H.vd([[2,2],[1]]), basis=vd)")
    assert v.coeff((1,)) == LaurentPoly.t(4) + LaurentPoly.t(6)
    v = eval_expr("dual(lambda=[1], kind=vd, degree=3)")
    assert len(v.func.terms) == 3
    v = eval_expr("omega(s.hd[3])")
    assert v.kind == "hdom" and v.coeff((1, 1, 1)) == LaurentPoly.const(1)
    v = eval_expr("skew(s[2,1], s[1])")
    assert format_value(v) == "s[2] + s[1,1]"
    v = eval_expr("t^2*s[1] - s[1]")
    assert v.coeff((1,)) == LaurentPoly.t(2) - LaurentPoly.const(1)


# expression -> frozen printed value: precedence, negation, powers, every
# operator family, every call and the kind tags
EVAL_CORPUS = [
    ('1 + 2*3', '7'),
    ('(1 + 2)*3', '9'),
    ('7 - 2 - 1', '4'),
    ('2*t^2 + t', '2*t^2 + t'),
    ('t^-2*t', 't^-1'),
    ('s[1] + s[1]*s[1]', 's[1] + s[2] + s[1,1]'),
    ('(s[1] + s[1])*s[1]', '(2)*s[2] + (2)*s[1,1]'),
    ('s[2] - s[1] - s[1]', '(-2)*s[1] + s[2]'),
    ('t^2*s[1] - s[1]', '(t^2 - 1)*s[1]'),
    ('s[2]*s[1]*s[1]', 's[4] + (2)*s[3,1] + s[2,2] + s[2,1,1]'),
    ('-s[1]', '(-1)*s[1]'),
    ('--t', 't'),
    ('-(1 + t)*s[1]', '(-t - 1)*s[1]'),
    ('-t^2', '-t^2'),
    ('-s[1]*-s[1]', 's[2] + s[1,1]'),
    ('(1 + t)^3', 't^3 + 3*t^2 + 3*t + 1'),
    ('(2*t)^2', '4*t^2'),
    ('(1 - t)^0', '1'),
    ('t^0', '1'),
    ('e2*h1', 's[2,1] + s[1,1,1]'),
    ('h2 - e2', 's[2] + (-1)*s[1,1]'),
    ('B([3,2])', 's[3,2]'),
    ('B([1,3])', '(-1)*s[2,2]'),
    ('B.vd([2], s[1])', '(-1)*s[1] + s[2,1]'),
    ('Bd.hd([2])', '(-1)*s[] + s[2]'),
    ('Bt([1,1], s[1])', '(t)*s[2,1] + s[1,1,1]'),
    ('Bt([[2],[1]])', '(t)*s[3] + s[2,1]'),
    ('Btd.box([2,1])', 's[] + (-1)*s[2] + (-1)*s[1,1] + s[2,1]'),
    ('Btd([1], s[1])', '(t - 1)*s[] + (t)*s[2] + s[1,1]'),
    ('H.vd([[2,2],[1]])',
     '(t^6 - 2*t^2 + 1)*s[1] + (t^4 - 1)*s[2,1] + (t^2 - 1)*s[1,1,1]'
     ' + (t^2)*s[3,2] + s[2,2,1]'),
    ('H([2,1])', 's[2,1]'),
    ('H.hd([[2,-1]], s[2] - s[1,1])',
     '(t^6 - t^4 - t^2 + 1)*s[1] + (t^4 - 1)*s[2,1]'),
    ('expand(s.hd[2], basis=none)', '(-1)*s[] + s[2]'),
    ('expand(s[2], basis=hd)', 's.hdom[] + s.hdom[2]'),
    ('expand.box(s.vd[1,1])', 's.box[1] + s.box[1,1]'),
    ('skew(s[2,1], s[1])', 's[2] + s[1,1]'),
    ('omega(s.hd[3])', 's.hdom[1,1,1]'),
    ('omega(2*s.vd[2,1] - s.vd[1])', '(-1)*s.vdom[1] + (2)*s.vdom[2,1]'),
    ('dual(lambda=[1], kind=vd, degree=3)', 's[1] + s[2,1] + s[1,1,1]'),
    ('kpoly(lambda=[1], R=[[2,2],[1]], kind=vd)', 't^6 + t^4'),
    ('kpoly.box(lambda=[], R=[[1],[1]])', 't^4 + t^2'),
    ('dpoly(lambda=[1], R=[[2],[1]], kind=none)', '0'),
    ('dpoly(lambda=[1], R=[[2],[1]], kind=hd)', 't'),
    ('dpoly.hd(lambda=[1,1], R=[[3],[2,2],[1]])', 't^5 - t^4 + t^3'),
    # a single factor straightens to zero, or to a sign and a shape
    ('dpoly(lambda=[1], R=[[1,2]])', '0'),
    ('dpoly(lambda=[1,1], R=[[0,2]], kind=none)', '-1'),
    ('nl([2],[1],[1])', '1'),
    ('nl([2,1],[1],[1,1])', '1'),
    ('s.vd[1]*s.vd[1]', 's.vdom[] + s.vdom[2] + s.vdom[1,1]'),
    ('s.cell[1]*s.cell[1,1]', 's.box[1] + s.box[2,1] + s.box[1,1,1]'),
    ('s.hd[2,1]*s.hd[1] - s.hd[1]',
     '(-1)*s.hdom[1] + s.hdom[2] + s.hdom[1,1] + s.hdom[3,1] + s.hdom[2,2]'
     ' + s.hdom[2,1,1]'),
    ('s.hd[1] + 1', 's.hdom[] + s.hdom[1]'),
    ('t*s.box[2] + s.box[]', 's.box[] + (t)*s.box[2]'),
]


def test_parse_eval_golden_corpus():
    for src, want in EVAL_CORPUS:
        assert format_value(eval_ast(parse(src))) == want, src


def test_cli_eval(capsys):
    assert main(["eval", "kpoly(lambda=[1], R=[[2,2],[1]], kind=vd)"]) == 0
    out = capsys.readouterr().out.strip()
    assert out == "t^6 + t^4"
    assert main(["--json", "eval", "t^2"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data == {"type": "poly", "poly": {"2": "1"}}
    # deep fills are past the literal caps here; test_schur keeps them
    for expr in ("h1000*s[1]", "skew(h1000,s[1])"):
        assert main(["eval", expr]) == 2, expr
        capsys.readouterr()


def test_cli_output_forms(tmp_path, capsys):
    assert main(["--json", "table", "-R", "[[1]]", "--kinds", "vdom,none",
                 "--out", str(tmp_path)]) == 0
    assert json.loads(capsys.readouterr().out) == {"written": [
        str(tmp_path / "ktable_vdom.json"), str(tmp_path / "ktable_none.json")]}
    assert main(["--json", "eval", "s.vd[2,1] - t*s.vd[1]"]) == 0
    assert json.loads(capsys.readouterr().out) == {
        "type": "expansion", "basis": "vdom",
        "terms": [{"coeff": {"1": "-1"}, "lambda": [1]},
                  {"coeff": {"0": "1"}, "lambda": [2, 1]}]}
    assert main(["eval", "s[1]-s[1]"]) == 0
    assert capsys.readouterr().out == "0\n"
    for argv in (["kpoly", "--lambda", "[1]", "-R", "[[2,2"],
                 ["kpoly", "--kind", "bogus", "--lambda", "[1]", "-R", "[[1]]"]):
        assert main(argv) == 2, argv
        errors = [line for line in capsys.readouterr().err.splitlines()
                  if "error:" in line]
        assert len(errors) == 1 and \
            errors[0].startswith("univchar kpoly: error: argument "), argv


# eval usage errors: arity, argument types, bases, powers and syntax
@pytest.mark.parametrize("expr, message", [
    ("skew(s[1])", "skew takes two expressions"),
    ("omega(s[1], s[2])", "omega takes one expression"),
    ("expand(s[1], s[2], basis=vd)", "expand takes one expression"),
    ("nl([1],[1])", "nl takes three partitions"),
    ("nl(s[1],[1],[1])", "nl arguments are partitions"),
    ("dual(lambda=[1])", "dual requires degree=<int>"),
    ("expand(s[1], basis=[1])", "basis must be a kind tag"),
    ("kpoly(lambda=[1], R=[[1]], kind=[1])", "kind must be a tag"),
    ("kpoly(R=[[1]])", "missing argument 'lambda'"),
    ("kpoly(lambda=[[1],[2]], R=[[1]])", "'lambda' must be a flat list"),
    ("dpoly(lambda=[1], R=1)", "'R' must be a list of lists"),
    ("skew(s.vd[1], s[1])", "skew acts in the Schur basis"),
    ("s.vd[1]*s[1]", "basis mismatch: vdom vs none (use expand)"),
    ("B([1], s.vd[1])", "operators act on Schur-basis operands"),
    ("s[1]^2", "only scalar powers are supported"),
    ("(1+t)^-1", "negative power of a non-monomial"),
    ("s[1] )", "trailing input ')' (at 5..6)"),
    ("s[1] $", "unexpected character '$' (at 5..6)"),
    ("(s[1]", "expected ')', found end of input (at 5..5)"),
    ("s[1]+", "unexpected token end of input (at 5..5)"),
])
def test_cli_eval_usage_errors(expr, message, capsys):
    assert main(["eval", expr]) == 2
    assert capsys.readouterr().err == "univchar: error: %s\n" % message


def test_cli_expand(capsys):
    assert main(["expand", "--basis", "vd", "s[2]"]) == 0
    assert capsys.readouterr().out.strip() == "s.vdom[2]"


def test_cli_kpoly_dpoly(capsys):
    assert main(["kpoly", "--kind", "vdom", "--lambda", "[1]",
                 "-R", "[[2,2],[1]]"]) == 0
    assert capsys.readouterr().out.strip() == "t^6 + t^4"
    assert main(["dpoly", "--kind", "hdom", "--lambda", "[1,1]",
                 "-R", "[[3],[2,2],[1]]"]) == 0
    assert capsys.readouterr().out.strip() == "t^5 - t^4 + t^3"


def test_cli_usage_errors(tmp_path, capsys):
    assert main(["eval", "s[2,3]"]) == 2
    capsys.readouterr()
    assert main(["kpoly", "--lambda", "[1"]) == 2
    capsys.readouterr()
    # verify runs every suite at one fixed size and takes no size option
    assert main(["verify", "--suite", "kernels", "--max-degree", "6"]) == 2
    capsys.readouterr()
    # an output directory below a regular file is an OS error, not a crash
    blocker = tmp_path / "file"
    blocker.write_text("")
    assert main(["table", "-R", "[[1]]", "--kinds", "vdom",
                 "--out", str(blocker / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("univchar: error: ") and err.count("\n") == 1


def test_cli_power_cap(capsys):
    # one past the cap fails as a usage error; the loop never starts
    assert main(["eval", "(1+t)^%d" % (MAX_POWER + 1)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("univchar: error: ") and err.count("\n") == 1
    assert main(["eval", "(1+t)^%d" % MAX_POWER]) == 0
    assert capsys.readouterr().out.startswith("t^%d + " % MAX_POWER)
    # a power of t stays one monomial at any exponent
    assert main(["eval", "t^100000"]) == 0
    assert capsys.readouterr().out.strip() == "t^100000"
    # the result is bounded, not only the exponent: degree span, then
    # coefficient size
    for expr in ("((1+t)^256)^256", "(%d+t)^256" % 10 ** 60):
        assert main(["eval", expr]) == 2
        err = capsys.readouterr().err
        assert err.startswith("univchar: error: ") and err.count("\n") == 1
    # so is the exponent of t: a literal exponent under the bit cap, raised
    # to a 14433-bit exponent by nested powers, is refused before printing
    expr = "(" * 60 + "t^" + "9" * 4200 + ")^256" * 60
    for argv in (["eval", expr], ["--json", "eval", expr]):
        assert main(argv) == 2, argv[0]
        err = capsys.readouterr().err
        assert err.startswith("univchar: error: ") and err.count("\n") == 1
        assert "exponent" in err


def test_cli_operator_and_literal_caps(capsys):
    # an operator's index vectors and an s[...], hN or eN literal past
    # MAX_TABLE_WEIGHT cells are usage errors, refused before any row
    # (H.box([[1]], h50) took 33.5 s before the cap)
    for expr in ("H.box([[6,6],[5,5],[4,4],[1]])", "B([31])", "s[31]",
                 "B([1], s.vd[16,15])", "Bt([[1,-30]])", "h31", "e31",
                 "H.box([[1]], h50)"):
        assert main(["eval", expr]) == 2, expr
        err = capsys.readouterr().err
        assert err.startswith("univchar: error: ") and err.count("\n") == 1
    # at the cap, cheap inputs still run
    for expr in ("B([30])", "s[30]", "h30"):
        assert main(["eval", expr]) == 0, expr
        assert capsys.readouterr().out.strip() == "s[30]"


def test_cli_nesting_cap(capsys):
    # nesting past the cap is a usage error, not a RecursionError
    for expr in ("(" * 3000 + "1" + ")" * 3000, "-" * 3000 + "1",
                 "(" * (MAX_NESTING + 1) + "1" + ")" * (MAX_NESTING + 1)):
        assert main(["eval", "--", expr]) == 2
        err = capsys.readouterr().err
        assert err.startswith("univchar: error: ") and err.count("\n") == 1
    # at the cap, through the deepest-recursing construct, a call argument
    expr = "omega(" * (MAX_NESTING - 1) + "s[2,1]" + ")" * (MAX_NESTING - 1)
    assert main(["eval", expr]) == 0
    assert capsys.readouterr().out.strip() == "s[2,1]"
    # a long chain is not nesting: it evaluates without deep recursion
    assert main(["eval", "+".join(["t"] * 3000)]) == 0
    assert capsys.readouterr().out.strip() == "3000*t"


def test_cli_unknown_keyword(capsys):
    # a misspelled keyword is a usage error, not a silent default
    assert main(["eval", "kpoly(lambda=[1], R=[[2,2],[1]], kind=vd)"]) == 0
    assert capsys.readouterr().out.strip() == "t^6 + t^4"
    for expr in ("kpoly(lambda=[1], R=[[2,2],[1]], knid=vd)",
                 "dpoly(lambda=[1], R=[[2],[1]], kidn=hd)",
                 "dual(lambda=[1], kind=vd, degree=3, deg=2)",
                 "expand(s[2], basis=vd, kind=hd, bsis=box)",
                 "skew(s[2], s[1], kind=vd)"):
        assert main(["eval", expr]) == 2
        err = capsys.readouterr().err
        assert err.startswith("univchar: error: ") and err.count("\n") == 1


def test_cli_internal_error(monkeypatch, capsys):
    from univchar.operators import InvariantViolation

    def boom(_):
        raise InvariantViolation("test")

    monkeypatch.setattr("univchar.exprparse.eval_expr", boom)
    assert main(["eval", "s[1]"]) == 3
    capsys.readouterr()


def test_cli_unexpected_exception(monkeypatch, capsys):
    # an exception outside the mapped ones is an internal error, not a
    # verification failure, and prints no traceback
    def boom(_):
        raise KeyError("boom")

    monkeypatch.setattr("univchar.exprparse.eval_expr", boom)
    assert main(["eval", "s[1]"]) == 3
    err = capsys.readouterr().err
    assert err == "univchar: internal error: KeyError: 'boom'\n"


def test_cli_value_error_is_internal(monkeypatch, capsys):
    # usage is validated at the edge, so a bare ValueError raised inside a
    # computation is an internal error, not a usage error
    def boom(*_):
        raise ValueError("boom")

    monkeypatch.setattr("univchar.kpoly.k_via_schur_recurrence", boom)
    assert main(["kpoly", "--lambda", "[1]", "-R", "[[1]]"]) == 3
    err = capsys.readouterr().err
    assert err == "univchar: internal error: ValueError: boom\n"


def test_cli_usage_errors_at_the_edge(tmp_path, capsys):
    big = "9" * 4000
    for expr in ("dual(lambda=[1,2], degree=3)",
                 "dual(lambda=[2], degree=1)",
                 "kpoly(lambda=[1,2], R=[[1]])",
                 "kpoly(lambda=[1], R=[[1,-1]])",
                 "dpoly(lambda=[1,2], R=[[1]])",
                 "nl([1,2],[1],[1])",
                 "1" * 5000,
                 "h" + "1" * 5000,
                 big + "*" + big):
        for argv in (["eval", expr], ["--json", "eval", expr]):
            assert main(argv) == 2, argv
            err = capsys.readouterr().err
            assert err.startswith("univchar: error: ") and \
                err.count("\n") == 1, argv
            assert "set_int_max_str_digits" not in err
    for kinds in ("vdom,bogus", "", "vdom,"):
        assert main(["table", "-R", "[[1]]", "--kinds", kinds,
                     "--out", str(tmp_path / "out")]) == 2
        assert "error: argument --kinds" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()
    # a partition is a JSON array of JSON integers and a sequence an array
    # of such arrays: floats, bools, strings and objects are not read by
    # int() into some other partition
    for rects in ("[[2.9,2],[1]]", "[[true],[1]]", '"21"', '{"1": [1]}',
                  '[[1],"2"]', "[[1],2]", "[[[1]]]"):
        for command in ("table", "kpoly", "dpoly"):
            argv = [command, "-R", rects] + (
                ["--kinds", "none", "--out", str(tmp_path / "out")]
                if command == "table" else ["--lambda", "[1]"])
            assert main(argv) == 2, argv
            err = capsys.readouterr().err
            assert err.count("error:") == 1 and \
                "error: argument -R: bad sequence" in err, argv
    for lam in ("[true]", '{"1": 0}', '"21"', "[1.0]", "[2,[1]]", "1"):
        for command in ("kpoly", "dpoly"):
            assert main([command, "--lambda", lam, "-R", "[[2,2],[1]]"]) == 2
            err = capsys.readouterr().err
            assert err.count("error:") == 1 and \
                "error: argument --lambda: bad partition" in err, lam
    assert not (tmp_path / "out").exists()
    # literals and printed coefficients up to the bound are accepted;
    # leading zeros do not count
    top = 2 ** MAX_POWER_BITS - 1
    assert main(["eval", str(top)]) == 0
    assert capsys.readouterr().out.strip() == str(top)
    assert main(["eval", "0" * 5000 + "7"]) == 0
    assert capsys.readouterr().out.strip() == "7"
    for expr in (str(top + 1), "%d*%d" % (top, top)):
        assert main(["eval", expr]) == 2
        assert capsys.readouterr().err.startswith("univchar: error: ")


def test_cli_verify_failure(monkeypatch, capsys):
    monkeypatch.setattr("univchar.verify.run_suite",
                        lambda suite: [("x", False, "boom")])
    assert main(["verify", "--suite", "lr"]) == 1
    out = capsys.readouterr().out
    assert "FAIL" in out


def test_cli_verify_goes_on_past_a_raising_suite(monkeypatch, capsys):
    # a suite that raises is one FAIL with the exception as its detail, the
    # suites after it still run, and verify exits 1, not 3
    from univchar import verify

    def raising():
        raise ValueError("t=0 undefined")

    monkeypatch.setattr(verify, "SUITES", {
        "lr": lambda: [verify.Check("lr.first", True, "", 0.0)],
        "bases": raising,
        "operators": lambda: [verify.Check("operators.last", True, "", 0.0)],
    })
    checks = verify.run_suite("all")
    assert [c[:2] for c in checks] == [("lr.first", True),
                                       ("bases.raised", False),
                                       ("operators.last", True)]
    assert checks[1][2] == "ValueError: t=0 undefined"
    assert main(["verify", "--suite", "all"]) == 1
    out = capsys.readouterr().out
    assert "FAIL bases.raised  [ValueError: t=0 undefined]" in out
    assert "PASS lr.first" in out and "PASS operators.last" in out


def test_cli_verify_pass(capsys):
    assert main(["--json", "verify", "--suite", "kernels"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["failed"] == 0


def test_cli_verify_json_seconds(capsys):
    assert main(["verify", "--suite", "kernels", "--json"]) == 0
    checks = json.loads(capsys.readouterr().out)["checks"]
    assert checks
    for check in checks:
        seconds = check["seconds"]
        assert isinstance(seconds, (int, float)) and seconds >= 0, check


# sha256 of the files of `univchar table -R [[2,2],[1]] --kinds all --latex`,
# frozen from the writer that ran json.dump and KTable.to_latex
TABLE_FILE_DIGESTS = {
    "ktable_none.json":
        "1f7349043f4a6bf7ac3c49860178b398b7c02e7c95ce81a776042feff50f0446",
    "ktable_none.tex":
        "e0ed2c105e1f1066ceaa7f554c758c60e1e8fe9262f8ec5b523feb35d34ae658",
    "ktable_box.json":
        "6587fbc9004635a0b59baf3cb7d0a8ffcc3d1fdda0703f657a49fd4953edb85f",
    "ktable_box.tex":
        "956c07396c164e96b2f4aded387eb0ea58bf73a8874a926fd7ed81a19f359ed6",
    "ktable_vdom.json":
        "15fd3cd85a381288548e57f84423c69d457e33b55b7f8ef197d376f2237cd61c",
    "ktable_vdom.tex":
        "0a0732371305662c3ca2304cda85f6d5b1a5c32a8cff2354b960c625fbbf4dcd",
    "ktable_hdom.json":
        "d1b53675477bf6be053fc50cf9b744506998baf3e89702dbb702f29c1ab1a85f",
    "ktable_hdom.tex":
        "94e32f800125218d2f982f604633929dbe75e11270f59c5c0aa08df7d0fb5e6e",
}


def test_table_command(tmp_path, capsys):
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    for out in (out1, out2):
        assert main(["table", "-R", "[[2,2],[1]]", "--kinds", "all",
                     "--out", str(out), "--latex"]) == 0
        capsys.readouterr()
    assert sorted(os.listdir(out1)) == sorted(TABLE_FILE_DIGESTS)
    for name, digest in TABLE_FILE_DIGESTS.items():
        data = (out1 / name).read_bytes()
        assert data == (out2 / name).read_bytes()
        assert hashlib.sha256(data).hexdigest() == digest, name
    data = json.loads((out1 / "ktable_vdom.json").read_text())
    assert data["kind"] == "vdom"
    assert {"lambda": [1], "poly": {"4": "1", "6": "1"}} in data["K"]
    # every table against the independent row-by-row operator route
    for kind in ("none", "box", "vdom", "hdom"):
        data = json.loads((out1 / ("ktable_%s.json" % kind)).read_text())
        rows = {tuple(rec["lambda"]): LaurentPoly.from_json(rec["poly"])
                for rec in data["K"]}
        assert rows == hh_r_via_rows(kind, ((2, 2), (1,))).rows, kind


def test_table_negative_note(tmp_path, capsys, monkeypatch):
    # the negative rows of a kind are noted on stderr in one line, with
    # their count and the first, and still written
    rows = {(1,): LaurentPoly({1: -1}), (2,): LaurentPoly({0: 1}),
            (1, 1): LaurentPoly({-2: 3})}
    table = KTable("vdom", ((1,), (1,)), rows, "test")
    monkeypatch.setattr("univchar.kpoly.ktables",
                        lambda kinds, rects: {"vdom": table})
    assert main(["table", "-R", "[[1],[1]]", "--kinds", "vdom",
                 "--out", str(tmp_path), "--latex"]) == 0
    captured = capsys.readouterr()
    assert captured.err.splitlines() == [
        "univchar: note: 2 rows with negative data in kind vdom, first at "
        "[1] (-t)"]
    assert captured.out.splitlines() == [
        str(tmp_path / "ktable_vdom.json"), str(tmp_path / "ktable_vdom.tex")]
    data = json.loads((tmp_path / "ktable_vdom.json").read_text())
    assert KTable.from_json(data).same_rows(table)
    assert "$(1)$ & $-t$" in (tmp_path / "ktable_vdom.tex").read_text()


def test_table_weight_cap(tmp_path, capsys):
    # a sequence past either cap is a usage error, raised before any table
    # is computed or any directory made; more factors than the cap are
    # refused however few their cells
    cap = univchar.cli.MAX_TABLE_WEIGHT
    factors = univchar.cli.MAX_TABLE_FACTORS
    out = tmp_path / "out"
    for rects in ("[[%d]]" % (cap + 1), "[[6,6],[5,5],[4,4],[3,3],[2,2],[1]]",
                  json.dumps([[1]] * (factors + 1))):
        assert main(["table", "-R", rects, "--kinds", "none",
                     "--out", str(out)]) == 2
        assert "error: argument -R" in capsys.readouterr().err
    assert not out.exists()
    # and admit a sequence of exactly that many factors
    assert main(["table", "-R", json.dumps([[1]] * factors), "--kinds",
                 "none", "--out", str(tmp_path / "few")]) == 0
    capsys.readouterr()
    # the cap admits a sequence of exactly cap cells
    assert main(["table", "-R", "[[%d]]" % cap, "--kinds", "none",
                 "--out", str(out)]) == 0
    capsys.readouterr()
    data = json.loads((out / "ktable_none.json").read_text())
    assert data["K"] == [{"lambda": [cap], "poly": {"0": "1"}}]


def test_kpoly_dpoly_caps(capsys):
    # kpoly and dpoly read -R under the caps of table, before computing
    for rects in (json.dumps([[1]] * (univchar.cli.MAX_TABLE_FACTORS + 1)),
                  "[[%d]]" % (univchar.cli.MAX_TABLE_WEIGHT + 1)):
        for command in ("kpoly", "dpoly"):
            assert main([command, "--lambda", "[1]", "-R", rects]) == 2
            assert "error: argument -R" in capsys.readouterr().err


def test_table_sequence_caps_live_in_core():
    # one sequence check serves -R and the eval calls: past either cap it
    # raises the usage error that every module reads from core
    from univchar import core, exprparse
    for rects in (((31,),), ((1,),) * 6):
        with pytest.raises(core.EvalError):
            core.check_table_sequence(rects)
    assert core.check_table_sequence(((30,),)) == 30
    assert core.check_table_sequence(((1,),) * 5) == 5
    assert exprparse.EvalError is core.EvalError
    assert exprparse.ParseError is core.ParseError
    assert exprparse.MAX_TABLE_WEIGHT is core.MAX_TABLE_WEIGHT
    assert exprparse.MAX_TABLE_FACTORS is core.MAX_TABLE_FACTORS
    assert univchar.cli.MAX_TABLE_WEIGHT is core.MAX_TABLE_WEIGHT
    assert univchar.cli.MAX_TABLE_FACTORS is core.MAX_TABLE_FACTORS
    assert (core.MAX_TABLE_WEIGHT, core.MAX_TABLE_FACTORS) == (30, 5)


def test_eval_caps(capsys):
    # the eval calls obey the -R caps and refuse a dual degree above the
    # cell cap, as usage errors before computing
    cap = univchar.cli.MAX_TABLE_WEIGHT
    factors = univchar.cli.MAX_TABLE_FACTORS
    for expr in ("dpoly(lambda=[%d], R=[[%d]])" % (cap + 1, cap + 1),
                 "kpoly(lambda=[1], R=%s)" % json.dumps([[1]] * (factors + 1)),
                 "dpoly(lambda=[1], R=%s)" % json.dumps([[1]] * (factors + 1)),
                 "dpoly(lambda=[], R=[[1],[-%d,%d]])" % (cap, cap),
                 "dual(lambda=[1], kind=box, degree=%d)" % (cap + 1)):
        assert main(["eval", expr]) == 2
        err = capsys.readouterr().err
        assert err.startswith("univchar: error: ") and "cap" in err
    # and admit inputs at the caps
    assert main(["eval", "dpoly(lambda=[%d], R=[[%d]])" % (cap, cap)]) == 0
    assert capsys.readouterr().out.strip() == "1"
    assert main(["eval", "kpoly(lambda=%s, R=%s)"
                 % (json.dumps([1] * factors), json.dumps([[1]] * factors))]) == 0
    assert capsys.readouterr().out.strip() == "1"


def test_eval_size_caps(capsys):
    # a product of two expansions, an operator's operand degree plus its
    # vectors' cells and each partition of nl(...) past MAX_TABLE_WEIGHT
    # cells are usage errors, refused before that step is computed; ten
    # factors s[5] took 23.2 s and nl([1],[61],[60]) 9.4 s before the cap
    over = ("*".join(["s[5]"] * 7), "*".join(["s[5]"] * 10),
            "Bt([[1]], s[30])", "Bt([[6,6],[6,6],[6]], s[10,10,10])",
            "nl([31],[1],[30])", "nl([1],[61],[60])", "nl([1],[81],[80])",
            "expand(s[16]*s[15], basis=vdom)",
            "expand(s[10]*s[10]*s[10]*s[10], basis=vdom)")
    argvs = [["eval", expr] for expr in over]
    argvs += [["expand", "--basis", "vdom", expr]
              for expr in ("s[16]*s[15]", "s[15]*s[15]*s[15]*s[15]")]
    for argv in argvs:
        assert main(argv) == 2, argv
        err = capsys.readouterr().err
        assert err.startswith("univchar: error: ") and err.count("\n") == 1
        assert "above the cap of %d" % univchar.cli.MAX_TABLE_WEIGHT in err
    # the one basis change that expand(...) and `univchar expand` share
    with pytest.raises(EvalError):
        expand_value(Expansion("none", SymFunc.schur((31,))), "vdom")
    # at the caps, cheap inputs still run
    for argv in (["eval", "s[10]*s[10]*s[10]"],
                 ["eval", "*".join(["s[5]"] * 6)],
                 ["eval", "expand(s[10]*s[10]*s[10], basis=vdom)"],
                 ["expand", "--basis", "vdom", "s[10]*s[10]*s[10]"],
                 ["eval", "Bt([[1]], s[29])"]):
        assert main(argv) == 0, argv
        capsys.readouterr()
    assert main(["eval", "nl([1],[30],[29])"]) == 0
    assert capsys.readouterr().out.strip() == "1"


def test_table_repeated_kind(tmp_path, capsys):
    # cell is an alias of box: the table is written and listed once
    assert main(["table", "-R", "[[2,2],[1]]", "--kinds", "box,cell",
                 "--out", str(tmp_path)]) == 0
    assert capsys.readouterr().out.splitlines() == \
        [str(tmp_path / "ktable_box.json")]
    assert os.listdir(tmp_path) == ["ktable_box.json"]


def test_table_after_a_usage_error_matches_a_fresh_run(tmp_path, capsys):
    # the parser is built once per process, so a refused call must leave it
    # as a fresh process has it
    argv = ["table", "-R", "[[2,2],[1]]", "--kinds", "all", "--latex",
            "--out"]
    assert main(["table", "-R", "[[2,2],[1]]", "--kinds", "bogus",
                 "--out", str(tmp_path / "bad")]) == 2
    assert main(argv + [str(tmp_path / "here")]) == 0
    capsys.readouterr()
    proc = _run_child("-m", "univchar", *argv, str(tmp_path / "fresh"))
    assert proc.returncode == 0, proc.stderr
    assert not (tmp_path / "bad").exists()
    names = sorted(os.listdir(tmp_path / "fresh"))
    assert names == sorted(TABLE_FILE_DIGESTS)
    assert sorted(os.listdir(tmp_path / "here")) == names
    for name in names:
        assert (tmp_path / "here" / name).read_bytes() == \
            (tmp_path / "fresh" / name).read_bytes(), name


@pytest.mark.parametrize("exc, code, message", [
    (OSError("disk full"), 2, "univchar: error: disk full\n"),
    (RuntimeError("stopped"), 3,
     "univchar: internal error: RuntimeError: stopped\n")])
def test_table_stopped_midway_leaves_no_file_of_its_own(
        tmp_path, monkeypatch, capsys, exc, code, message):
    # the walk of the vdom table raises after three rows: the tables before
    # it stay written, its rows so far were never under its own names, and
    # neither its files nor a temporary one is left
    support = KTable.support
    seen = []

    def walk(table):
        for i, lam in enumerate(support(table)):
            if table.kind == "vdom" and i == 3:
                seen.extend(os.listdir(tmp_path))
                raise exc
            yield lam

    monkeypatch.setattr(KTable, "support", walk)
    assert main(["table", "-R", "[[2,2],[1]]", "--kinds", "box,vdom,hdom",
                 "--latex", "--out", str(tmp_path)]) == code
    assert capsys.readouterr().err == message
    done = ["ktable_box.json", "ktable_box.tex"]
    assert len(seen) > len(done) and set(done) < set(seen)
    assert not {"ktable_vdom.json", "ktable_vdom.tex"} & set(seen)
    assert sorted(os.listdir(tmp_path)) == done


def test_table_empty_sequence(tmp_path, capsys):
    assert main(["table", "-R", "[]", "--kinds", "vdom",
                 "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    data = json.loads((tmp_path / "ktable_vdom.json").read_text())
    assert data["K"] == [{"lambda": [], "poly": {"0": "1"}}]


def _run_child(*args):
    # the child imports the same univchar, installed or not
    src = os.path.dirname(os.path.dirname(univchar.__file__))
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ,
               PYTHONPATH=src + (os.pathsep + path if path else ""))
    return subprocess.run([sys.executable] + list(args),
                          capture_output=True, text=True, env=env)


def test_console_entrypoint():
    proc = _run_child("-m", "univchar.cli", "eval", "nl([2],[1],[1])")
    assert proc.returncode == 0
    assert proc.stdout.strip() == "1"


def test_module_entrypoint():
    proc = _run_child("-m", "univchar", "verify", "--suite", "kernels",
                      "--json")
    assert proc.returncode == 0, proc.stderr
    checks = json.loads(proc.stdout)["checks"]
    assert checks and all(c["pass"] for c in checks)


def test_production_imports_leave_out_the_oracles():
    # the check-only modules are reached from verify and the tests only
    proc = _run_child("-c", "import sys, univchar.cli, univchar.kpoly, "
                      "univchar.operators, univchar.series; "
                      "print(sorted(m for m in ('univchar.oracles', "
                      "'univchar.verify') if m in sys.modules))")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_only_eval_and_expand_load_the_evaluator(tmp_path):
    # table, kpoly, dpoly and verify never parse an expression, so a
    # process that runs one of them leaves exprparse unloaded
    proc = _run_child("-c", "import sys; from univchar.cli import main; "
                      "code = main(['table', '-R', '[[2,2],[1]]', '--out', "
                      "sys.argv[1]]); "
                      "print(code, 'univchar.exprparse' in sys.modules)",
                      str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "0 False"
    assert sorted(os.listdir(tmp_path)) == [
        "ktable_%s.json" % kind for kind in ("box", "hdom", "none", "vdom")]
    proc = _run_child("-m", "univchar", "expand", "--basis", "vd", "s[2,1]")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "s.vdom[1] + s.vdom[2,1]\n"
