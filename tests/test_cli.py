import json
import random
import subprocess
import sys

import pytest

import univchar.cache as cache_mod
import univchar.schur as schur
from univchar.cli import main
from univchar.core import LaurentPoly
from univchar.exprparse import (MAX_POWER, EvalError, ParseError, ast_equal,
                                eval_expr, format_value, parse, print_ast)
from univchar.kpoly import hh_r


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
    assert v.func == eval_expr("Bt([2,2], s[1])").func
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


def _random_ast(rng, depth=0):
    choices = ["int", "t", "schur", "eh"]
    if depth < 2:
        choices += ["add", "mul", "neg", "call", "op"]
    kind = rng.choice(choices)
    span = (0, 0)
    if kind == "int":
        return ("int", span, rng.randrange(0, 9))
    if kind == "t":
        return ("pow", span, ("tvar", span), rng.choice([1, 2, 3, -1]))
    if kind == "schur":
        lam = tuple(sorted((rng.randrange(1, 4)
                            for _ in range(rng.randrange(0, 3))),
                           reverse=True))
        return ("schur", span, rng.choice(["none", "box", "vdom", "hdom"]),
                lam)
    if kind == "eh":
        return ("eh", span, rng.choice("eh"), rng.randrange(1, 4))
    if kind == "add":
        return (rng.choice(["add", "sub"]), span, _random_ast(rng, depth + 1),
                _random_ast(rng, depth + 1))
    if kind == "mul":
        return ("mul", span, _random_ast(rng, depth + 1),
                _random_ast(rng, depth + 1))
    if kind == "neg":
        return ("neg", span, _random_ast(rng, depth + 1))
    if kind == "call":
        lam = ("list", [2, 1])
        return ("call", span, "nl", [lam, ("list", [1]), ("list", [1])], {})
    vec = ("list", [rng.randrange(0, 4), rng.randrange(0, 3)])
    return ("op", span, rng.choice(["B", "Bt"]), None, vec, None)


def test_parse_print_roundtrip_corpus():
    rng = random.Random(31)
    for _ in range(200):
        ast = _random_ast(rng)
        text = print_ast(ast)
        back = parse(text)
        assert ast_equal(back, ast), text
        assert ast_equal(parse(print_ast(back)), back)


def test_cli_eval(capsys):
    assert main(["eval", "kpoly(lambda=[1], R=[[2,2],[1]], kind=vd)"]) == 0
    out = capsys.readouterr().out.strip()
    assert out == "t^6 + t^4"
    assert main(["--json", "eval", "t^2"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data == {"type": "poly", "poly": {"2": "1"}}


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


def test_cli_internal_error(monkeypatch, capsys):
    from univchar.operators import InvariantViolation

    def boom(_):
        raise InvariantViolation("test")

    monkeypatch.setattr("univchar.cli.eval_expr", boom)
    assert main(["eval", "s[1]"]) == 3
    capsys.readouterr()


def test_cli_verify_failure(monkeypatch, capsys):
    monkeypatch.setattr("univchar.verify.run_suite",
                        lambda suite, deg: [("x", False, "boom")])
    assert main(["verify", "--suite", "lr"]) == 1
    out = capsys.readouterr().out
    assert "FAIL" in out


def test_cli_verify_pass(capsys):
    assert main(["--json", "verify", "--suite", "kernels"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["failed"] == 0


def test_table_command(tmp_path, capsys):
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    for out in (out1, out2):
        assert main(["table", "-R", "[[2,2],[1]]", "--kinds", "all",
                     "--out", str(out), "--latex"]) == 0
        capsys.readouterr()
    for kind in ("none", "box", "vdom", "hdom"):
        for ext in ("json", "tex"):
            name = "ktable_%s.%s" % (kind, ext)
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
    data = json.loads((out1 / "ktable_vdom.json").read_text())
    assert data["kind"] == "vdom"
    assert {"lambda": [1], "poly": {"4": "1", "6": "1"}} in data["K"]
    # the box table against the independent row-operator route
    data = json.loads((out1 / "ktable_box.json").read_text())
    rows = {tuple(rec["lambda"]): LaurentPoly.from_json(rec["poly"])
            for rec in data["K"]}
    assert rows == hh_r("box", ((2, 2), (1,))).rows


def test_table_empty_sequence(tmp_path, capsys):
    assert main(["table", "-R", "[]", "--kinds", "vdom",
                 "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    data = json.loads((tmp_path / "ktable_vdom.json").read_text())
    assert data["K"] == [{"lambda": [], "poly": {"0": "1"}}]


def test_cache_roundtrip(tmp_path):
    schur.clear_caches()
    from univchar.schur import _prod_spectrum
    _prod_spectrum((2, 1), (1,))
    _prod_spectrum((3,), (2,))
    path = str(tmp_path / "cache.txt")
    n = cache_mod.save_cache(path)
    assert n > 0
    before = schur.prod_cache_items()
    schur.clear_caches()
    loaded = cache_mod.load_cache(path)
    assert loaded == n
    after = schur.prod_cache_items()
    assert sorted((m, u, tuple(sorted(s.items()))) for m, u, s in before) == \
        sorted((m, u, tuple(sorted(s.items()))) for m, u, s in after)


def test_cache_rejects_corruption(tmp_path):
    schur.clear_caches()
    from univchar.schur import _prod_spectrum
    _prod_spectrum((1,), (1,))
    path = str(tmp_path / "cache.txt")
    cache_mod.save_cache(path)

    warnings = []
    # truncated file: cold cache
    text = open(path).read()
    open(path, "w").write(text.rsplit("#end", 1)[0])
    schur.clear_caches()
    assert cache_mod.load_cache(path, warn=warnings.append) == 0
    assert warnings

    # version mismatch: ignored
    cache_mod.save_cache(path)
    lines = open(path).read().splitlines()
    header = json.loads(lines[0])
    header["format"] = 999
    lines[0] = json.dumps(header)
    open(path, "w").write("\n".join(lines) + "\n")
    schur.clear_caches()
    warnings.clear()
    assert cache_mod.load_cache(path, warn=warnings.append) == 0
    assert any("version" in w for w in warnings)

    # a record violating the size law is rejected with its group
    schur.clear_caches()
    _prod_spectrum((1,), (1,))
    cache_mod.save_cache(path)
    lines = open(path).read().splitlines()
    assert lines[1].startswith("1;1;")
    lines[1] = "1;1;3;1"
    open(path, "w").write("\n".join(lines) + "\n")
    schur.clear_caches()
    warnings.clear()
    accepted = cache_mod.load_cache(path, warn=warnings.append)
    assert any("corrupt record" in w for w in warnings)
    items = {(m, u) for m, u, _ in schur.prod_cache_items()}
    assert ((1,), (1,)) not in items
    schur.clear_caches()


def test_cache_env_and_flag(tmp_path, monkeypatch):
    monkeypatch.setenv("UNIVCHAR_CACHE", str(tmp_path / "env.txt"))
    assert cache_mod.default_cache_path(None) == str(tmp_path / "env.txt")
    assert cache_mod.default_cache_path("x.txt") == "x.txt"
    monkeypatch.delenv("UNIVCHAR_CACHE")
    assert cache_mod.default_cache_path(None) is None


def test_cold_and_warm_runs_match(tmp_path, capsys):
    path = str(tmp_path / "c.txt")
    schur.clear_caches()
    assert main(["--cache", path, "eval", "s[2,1]*s[2,1]"]) == 0
    warm1 = capsys.readouterr().out
    schur.clear_caches()
    assert main(["--cache", path, "eval", "s[2,1]*s[2,1]"]) == 0
    warm2 = capsys.readouterr().out
    assert warm1 == warm2
    schur.clear_caches()


def test_cold_and_warm_verify_outputs_match(tmp_path, capsys):
    path = str(tmp_path / "cache.txt")
    schur.clear_caches()
    assert main(["--cache", path, "--json", "verify",
                 "--suite", "kernels"]) == 0
    cold = capsys.readouterr().out
    schur.clear_caches()
    assert main(["--cache", path, "--json", "verify",
                 "--suite", "kernels"]) == 0
    warm = capsys.readouterr().out
    assert cold == warm
    schur.clear_caches()


def test_console_entrypoint():
    proc = subprocess.run(
        [sys.executable, "-m", "univchar.cli", "eval", "nl([2],[1],[1])"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout.strip() == "1"
