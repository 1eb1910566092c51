"""Expression parser and evaluator for the command line.

Grammar sketch::

    expr    := term (('+'|'-') term)*
    term    := factor ('*' factor)*
    factor  := '-'? atom ('^' '-'? INT)?
    atom    := INT | 't' | 'e'INT | 'h'INT
             | 's' ('.' KIND)? '[' ints ']'
             | NAME ('.' KIND)? '(' args ')'
             | '(' expr ')'

Operator names: B, Bd, Bt, Btd, H (index vector or list of vectors, optional
operand expression).  Calls: expand, skew, omega, dual, kpoly, dpoly, nl.
Partition literals are validated at parse time; every node keeps its source
span for error reporting.
"""

from __future__ import annotations

import math
import re

from .core import _KIND_ALIASES, LaurentPoly, as_partition, canonical_kind
from .schur import Expansion, SymFunc, skew_by
from .series import (change_basis, diamond_product, dual_basis_truncated,
                     newell_littlewood, omega_diamond)


class ParseError(ValueError):
    def __init__(self, msg, span=None):
        self.span = span
        if span is not None:
            msg = "%s (at %d..%d)" % (msg, span[0], span[1])
        super().__init__(msg)


class EvalError(ValueError):
    pass


# largest exponent of a power whose base is not the monomial t, and largest
# degree span (highest minus lowest exponent of t) of such a power's result;
# repeated multiplication of a non-monomial grows without bound in both
MAX_POWER = 256

# largest bit length of an integer literal, of a coefficient a power may
# produce (bounded before any multiplication) and of a printed coefficient
# or exponent of t; below the 4300-digit limit on int <-> str, so that every
# literal parses and every accepted result prints
MAX_POWER_BITS = 14000

# deepest nesting of parentheses, operands, call arguments and negations;
# each level costs a few frames of the recursive-descent parser and of the
# evaluator, and Python stops recursion at 1000 frames by default
MAX_NESTING = 100

# largest total size |R| and number of factors of a sequence R, for the
# command-line `table`, `kpoly` and `dpoly`, the `kpoly(...)` and `dpoly(...)`
# calls and the index vectors of the operators B, Bd, Bt, Btd and H, and
# largest `dual(...)` degree and `s[...]`, `hN` and `eN` literal, where
# H.box([[1]], h50) took 33.5 s.  The cell cap also bounds the sum of the
# degrees of a product of two expansions, the degree of a basis change's
# operand, an operator's operand degree plus its vectors' cells and each
# partition of `nl(...)`: ten factors s[5] took 23.2 s, nl([1],[61],[60])
# 9.4 s, and s[10]*s[10]*s[10] takes 0.13 s.  The benchmark ladder tops out at
# 19 cells in 4 factors, and on ((5,5),(4,4),(3,3),(2,2),(1,)), 29 cells,
# `table --kinds all` takes about 6 s and 78 MB on a 2-vCPU machine.  Time and
# memory grow steeply with both: thirty one-cell factors would need every
# partition of 30, and 22 of them already cost as much as that 29-cell
# sequence.  Of 14 sequences measured at the caps, the slowest is five factors
# (3,2,1), where `table --kinds all` took 25-29 s and 216 MB.  On a diamond
# kind dpoly builds bb_diamond: 1.0 s and 42 MB on the 29-cell sequence, 15 s
# and 192 MB on five (3,2,1); kpoly, and dpoly of kind none, read bb_r: about
# 1.5 s and 57 MB on five (3,2,1) (wall time, peak RSS).  A dual of degree 30
# took 1.7 s and 60 MB, of degree 40 16 s and 394 MB.
MAX_TABLE_WEIGHT = 30
MAX_TABLE_FACTORS = 5


def check_cells(what, cells):
    """Refuse what, of the given number of cells, past MAX_TABLE_WEIGHT."""
    if cells > MAX_TABLE_WEIGHT:
        raise EvalError("%s of %d cells, above the cap of %d"
                        % (what, cells, MAX_TABLE_WEIGHT))


def check_table_sequence(rects):
    """Refuse a sequence R past MAX_TABLE_WEIGHT cells or MAX_TABLE_FACTORS
    factors, and return its cells.  An index vector's cells are the
    absolute values of its entries, which bound the degree of every operand
    its rows reach."""
    cells = sum(abs(x) for r in rects for x in r)
    check_cells("sequence", cells)
    if len(rects) > MAX_TABLE_FACTORS:
        raise EvalError("sequence of %d factors, above the cap of %d"
                        % (len(rects), MAX_TABLE_FACTORS))
    return cells


_TOKEN = re.compile(r"\s*(?:(\d+)|([A-Za-z_][A-Za-z_0-9]*)|(.))")

_PUNCT = set("[](),=+-*^.")


def _literal(digits, span):
    """The value of a decimal literal of at most MAX_POWER_BITS bits."""
    digits = digits.lstrip("0") or "0"
    # d digits make at least (d - 1) * log2(10) bits; the length test comes
    # first, since int() refuses strings past its digit limit
    if (len(digits) - 1) * math.log2(10) < MAX_POWER_BITS:
        value = int(digits)
        if value.bit_length() <= MAX_POWER_BITS:
            return value
    raise ParseError("integer literal longer than %d bits" % MAX_POWER_BITS,
                     span)


def tokenize(src):
    out = []
    pos = 0
    while pos < len(src):
        m = _TOKEN.match(src, pos)
        if not m or m.end() == m.start():
            break
        start = m.start(m.lastindex)
        end = m.end()
        if m.group(1):
            out.append(("int", _literal(m.group(1), (start, end)),
                        (start, end)))
        elif m.group(2):
            out.append(("name", m.group(2), (start, end)))
        else:
            ch = m.group(3)
            if ch not in _PUNCT:
                raise ParseError("unexpected character %r" % ch, (start, end))
            out.append((ch, ch, (start, end)))
        pos = end
    out.append(("end", None, (len(src), len(src))))
    return out


def _shown(tok):
    """A token as an error message names it."""
    return "end of input" if tok[0] == "end" else repr(tok[1])


# AST nodes: tuples (tag, span, *payload)

OP_FAMILIES = ("B", "Bd", "Bt", "Btd", "H")

# call -> the keywords it reads; any other keyword is an error, so that a
# misspelled one cannot fall back to a default
CALL_KEYWORDS = {
    "expand": ("kind", "basis"),
    "skew": (),
    "omega": (),
    "dual": ("lambda", "kind", "degree"),
    "kpoly": ("lambda", "R", "kind"),
    "dpoly": ("lambda", "R", "kind"),
    "nl": (),
}
CALL_NAMES = tuple(CALL_KEYWORDS)


class Parser:
    def __init__(self, src):
        self.src = src
        self.toks = tokenize(src)
        self.i = 0
        self.depth = 0

    def peek(self):
        return self.toks[self.i]

    def next(self):
        t = self.toks[self.i]
        self.i += 1
        return t

    def expect(self, tag):
        t = self.next()
        if t[0] != tag:
            raise ParseError("expected %r, found %s" % (tag, _shown(t)), t[2])
        return t

    def nest(self, delta):
        self.depth += delta
        if self.depth > MAX_NESTING:
            raise ParseError("expression nested deeper than %d"
                             % MAX_NESTING, self.peek()[2])

    def parse(self):
        node = self.expr()
        t = self.peek()
        if t[0] != "end":
            raise ParseError("trailing input %r" % (t[1],), t[2])
        return node

    def expr(self):
        self.nest(1)
        node = self.term()
        while self.peek()[0] in ("+", "-"):
            op = self.next()
            rhs = self.term()
            node = (("add" if op[0] == "+" else "sub"), op[2], node, rhs)
        self.nest(-1)
        return node

    def term(self):
        node = self.factor()
        while self.peek()[0] == "*":
            op = self.next()
            rhs = self.factor()
            node = ("mul", op[2], node, rhs)
        return node

    def factor(self):
        if self.peek()[0] == "-":
            t = self.next()
            self.nest(1)
            node = ("neg", t[2], self.factor())
            self.nest(-1)
            return node
        node = self.atom()
        if self.peek()[0] == "^":
            self.next()
            sign = 1
            if self.peek()[0] == "-":
                self.next()
                sign = -1
            t = self.expect("int")
            node = ("pow", t[2], node, sign * t[1])
        return node

    def atom(self):
        t = self.peek()
        if t[0] == "int":
            self.next()
            return ("int", t[2], t[1])
        if t[0] == "(":
            self.next()
            node = self.expr()
            self.expect(")")
            return node
        if t[0] == "name":
            return self.named()
        raise ParseError("unexpected token %s" % _shown(t), t[2])

    def named(self):
        t = self.next()
        name = t[1]
        if name == "t":
            return ("tvar", t[2])
        m = re.fullmatch(r"([eh])(\d+)", name)
        if m:
            return ("eh", t[2], m.group(1), _literal(m.group(2), t[2]))
        if name == "s" or (name in OP_FAMILIES) or (name in CALL_NAMES):
            kind = None
            if self.peek()[0] == ".":
                self.next()
                kt = self.expect("name")
                try:
                    kind = canonical_kind(kt[1])
                except ValueError:
                    raise ParseError("unknown kind tag %r" % kt[1], kt[2])
            if name == "s":
                self.expect("[")
                lam = self.bracket_list()
                try:
                    lam = as_partition(lam)
                except ValueError as exc:
                    raise ParseError(str(exc), t[2])
                return ("schur", t[2], kind or "none", lam)
            if name in OP_FAMILIES:
                return self.op_apply(name, kind, t[2])
            return self.call(name, kind, t[2])
        raise ParseError("unknown symbol %r" % name, t[2])

    def bracket_list(self):
        """[int, int, ...] already past the open bracket."""
        vals = []
        if self.peek()[0] == "]":
            self.next()
            return vals
        while True:
            sign = 1
            if self.peek()[0] == "-":
                self.next()
                sign = -1
            t = self.expect("int")
            vals.append(sign * t[1])
            t = self.next()
            if t[0] == "]":
                return vals
            if t[0] != ",":
                raise ParseError("expected ',' or ']'", t[2])

    def list_literal(self):
        """A [...] literal: flat integer list or list of lists."""
        self.expect("[")
        if self.peek()[0] == "[":
            out = []
            while True:
                self.expect("[")
                out.append(self.bracket_list())
                t = self.next()
                if t[0] == "]":
                    return ("listlist", out)
                if t[0] != ",":
                    raise ParseError("expected ',' or ']'", t[2])
        out = self.bracket_list()
        return ("list", out)

    def op_apply(self, family, kind, span):
        self.expect("(")
        shape = self.list_literal()
        operand = None
        t = self.next()
        if t[0] == ",":
            operand = self.expr()
            self.expect(")")
        elif t[0] != ")":
            raise ParseError("expected ',' or ')'", t[2])
        return ("op", span, family, kind, shape, operand)

    def call(self, name, kind, span):
        self.expect("(")
        args = []
        kwargs = {}
        if self.peek()[0] != ")":
            while True:
                if (self.peek()[0] == "name"
                        and self.toks[self.i + 1][0] == "="):
                    key = self.next()[1]
                    self.next()
                    kwargs[key] = self.arg_value()
                else:
                    args.append(self.arg_value())
                t = self.next()
                if t[0] == ")":
                    break
                if t[0] != ",":
                    raise ParseError("expected ',' or ')'", t[2])
        else:
            self.next()
        if kind is not None:
            kwargs.setdefault("kind", ("kindtag", kind))
        return ("call", span, name, args, kwargs)

    def arg_value(self):
        t = self.peek()
        if t[0] == "[":
            return self.list_literal()
        if t[0] == "name" and t[1] in _KIND_ALIASES:
            nxt = self.toks[self.i + 1][0]
            if nxt in (",", ")"):
                self.next()
                return ("kindtag", canonical_kind(t[1]))
        return self.expr()


def parse(src):
    """Parse an expression into an AST."""
    return Parser(src).parse()


# ---------------------------------------------------------------------------
# evaluation

def eval_ast(node):
    """Evaluate an AST to an Expansion or a LaurentPoly."""
    tag = node[0]
    if tag == "int":
        return LaurentPoly.const(node[2])
    if tag == "tvar":
        return LaurentPoly.t(1)
    if tag == "eh":
        kind_sym, k = node[2], node[3]
        check_cells("%s%d literal" % (kind_sym, k), k)
        lam = (k,) if kind_sym == "h" else (1,) * k
        return Expansion("none", SymFunc.schur(lam))
    if tag == "schur":
        check_cells("s[...] literal", sum(node[3]))
        return Expansion(node[2], SymFunc.schur(node[3]))
    if tag in _BINARY:
        # a chain a + b - c * d ... parses into a left-deep tree as deep as
        # the chain is long: walk its left spine in a loop, not by recursion
        spine = []
        while node[0] in _BINARY:
            spine.append(node)
            node = node[2]
        value = eval_ast(node)
        for op in reversed(spine):
            value = _BINARY[op[0]](value, eval_ast(op[3]))
        return value
    if tag == "neg":
        return _scale(eval_ast(node[2]), LaurentPoly.const(-1))
    if tag == "pow":
        base = eval_ast(node[2])
        if not isinstance(base, LaurentPoly):
            raise EvalError("only scalar powers are supported")
        n = node[3]
        if base == LaurentPoly.t(1):
            return LaurentPoly.t(n)
        if n < 0:
            raise EvalError("negative power of a non-monomial")
        if n > MAX_POWER:
            raise EvalError("power %d of a non-monomial exceeds %d"
                            % (n, MAX_POWER))
        exps = list(base.c)
        span = n * (max(exps) - min(exps)) if exps else 0
        if span > MAX_POWER:
            raise EvalError("power %d spans %d degrees of t, more than %d"
                            % (n, span, MAX_POWER))
        # (number of terms * largest |coefficient|)^n bounds every
        # coefficient of the result
        bits = n * (max((abs(v) for v in base.c.values()), default=0)
                    .bit_length() + len(exps).bit_length())
        if bits > MAX_POWER_BITS:
            raise EvalError("power %d may reach %d-bit coefficients, more "
                            "than %d" % (n, bits, MAX_POWER_BITS))
        out = LaurentPoly.const(1)
        for _ in range(n):
            out = out * base
        return out
    if tag == "op":
        return _eval_op(node)
    if tag == "call":
        return _eval_call(node)
    raise EvalError("cannot evaluate %r" % (tag,))


def _as_expansion(v, kind="none"):
    if isinstance(v, LaurentPoly):
        return Expansion(kind, SymFunc({(): v}) if v else SymFunc())
    return v


def _add(a, b, sign):
    if isinstance(a, LaurentPoly) and isinstance(b, LaurentPoly):
        return a + b * sign if sign == 1 else a - b
    if isinstance(a, LaurentPoly):
        a = _as_expansion(a, b.kind)
    if isinstance(b, LaurentPoly):
        b = _as_expansion(b, a.kind)
    if a.kind != b.kind:
        raise EvalError("basis mismatch: %s vs %s (use expand)"
                        % (a.kind, b.kind))
    f = a.func + b.func.scaled(sign)
    return Expansion(a.kind, f)


def _scale(v, poly):
    if isinstance(v, LaurentPoly):
        return v * poly
    return Expansion(v.kind, v.func.scaled(poly))


def _mul(a, b):
    if isinstance(a, LaurentPoly) and isinstance(b, LaurentPoly):
        return a * b
    if isinstance(a, LaurentPoly):
        return _scale(b, a)
    if isinstance(b, LaurentPoly):
        return _scale(a, b)
    if a.kind != b.kind:
        raise EvalError("basis mismatch: %s vs %s (use expand)"
                        % (a.kind, b.kind))
    check_cells("product", a.func.degree() + b.func.degree())
    return diamond_product(a, b)


_BINARY = {
    "add": lambda a, b: _add(a, b, 1),
    "sub": lambda a, b: _add(a, b, -1),
    "mul": _mul,
}


def _want_vectors(shape):
    if shape[0] == "list":
        return (tuple(shape[1]),)
    return tuple(tuple(row) for row in shape[1])


def _eval_op(node):
    _, span, family, kind, shape, operand = node
    from .operators import bernstein_diamond_row, tilde_b_diamond_parabolic
    from .kpoly import h_rows
    vectors = _want_vectors(shape)
    cells = check_table_sequence(vectors)
    if operand is None:
        f = SymFunc.one()
    else:
        val = eval_ast(operand)
        val = _as_expansion(val)
        if val.kind != "none":
            raise EvalError("operators act on Schur-basis operands")
        f = val.func
    check_cells("operand and index vectors", f.degree() + cells)
    # a kind tag selects the kind's operator; untagged, the diamond
    # families act as vdom and the others as the Schur kind none
    kind = kind or ("vdom" if family in ("Bd", "Btd") else "none")
    if family == "H":
        return Expansion("none", h_rows(kind, vectors, f))
    for vec in reversed(vectors):
        if family in ("B", "Bd"):
            for r in reversed(vec):
                f = bernstein_diamond_row(kind, r, f)
        else:
            f = tilde_b_diamond_parabolic(kind, vec, f)
    return Expansion("none", f)


def _kw_kind(kwargs, default="none"):
    v = kwargs.get("kind")
    if v is None:
        return default
    if v[0] == "kindtag":
        return v[1]
    raise EvalError("kind must be a tag")


def _kw_list(kwargs, key):
    v = kwargs.get(key)
    if v is None:
        raise EvalError("missing argument %r" % key)
    if v[0] == "list":
        return tuple(v[1])
    raise EvalError("%r must be a flat list" % key)


def _kw_listlist(kwargs, key):
    v = kwargs.get(key)
    if v is None:
        raise EvalError("missing argument %r" % key)
    if v[0] == "listlist":
        return tuple(tuple(r) for r in v[1])
    if v[0] == "list":
        return (tuple(v[1]),)
    raise EvalError("%r must be a list of lists" % key)


def _partition(vals, what):
    try:
        return as_partition(vals)
    except ValueError as exc:
        raise EvalError("%s: %s" % (what, exc))


def _eval_call(node):
    _, span, name, args, kwargs = node
    unknown = sorted(k for k in kwargs if k not in CALL_KEYWORDS[name])
    if unknown:
        raise EvalError("%s takes no keyword %s"
                        % (name, ", ".join(map(repr, unknown))))
    if name == "expand":
        if len(args) != 1:
            raise EvalError("expand takes one expression")
        target = _kw_kind(kwargs, None) or _kw_basis(kwargs)
        return expand_value(eval_ast(args[0]), target)
    if name == "skew":
        if len(args) != 2:
            raise EvalError("skew takes two expressions")
        p = _as_expansion(eval_ast(args[0]))
        q = _as_expansion(eval_ast(args[1]))
        if p.kind != "none" or q.kind != "none":
            raise EvalError("skew acts in the Schur basis")
        return Expansion("none", skew_by(p.func, q.func))
    if name == "omega":
        if len(args) != 1:
            raise EvalError("omega takes one expression")
        return omega_diamond(_as_expansion(eval_ast(args[0])))
    if name == "dual":
        lam = _partition(_kw_list(kwargs, "lambda"), "lambda")
        kind = _kw_kind(kwargs)
        deg = kwargs.get("degree")
        if deg is None or deg[0] != "int":
            raise EvalError("dual requires degree=<int>")
        if deg[2] < sum(lam):
            raise EvalError("dual degree %d is below |lambda| = %d"
                            % (deg[2], sum(lam)))
        if deg[2] > MAX_TABLE_WEIGHT:
            raise EvalError("dual degree %d is above the cap of %d"
                            % (deg[2], MAX_TABLE_WEIGHT))
        return Expansion("none", dual_basis_truncated(lam, kind, deg[2]))
    if name == "kpoly":
        from .kpoly import k_via_schur_recurrence
        lam = _partition(_kw_list(kwargs, "lambda"), "lambda")
        rects = tuple(_partition(r, "R") for r in _kw_listlist(kwargs, "R"))
        check_table_sequence(rects)
        return k_via_schur_recurrence(_kw_kind(kwargs), lam, rects)
    if name == "dpoly":
        from .operators import d_polynomial
        lam = _partition(_kw_list(kwargs, "lambda"), "lambda")
        rects = _kw_listlist(kwargs, "R")
        check_table_sequence(rects)
        return d_polynomial(_kw_kind(kwargs, "vdom"), lam, rects)
    if name == "nl":
        if len(args) != 3:
            raise EvalError("nl takes three partitions")
        shapes = []
        for a in args:
            if a[0] != "list":
                raise EvalError("nl arguments are partitions")
            shapes.append(_partition(a[1], "nl argument"))
            check_cells("nl argument", sum(shapes[-1]))
        return LaurentPoly.const(newell_littlewood(*shapes))


def _kw_basis(kwargs):
    v = kwargs.get("basis")
    if v is None:
        raise EvalError("expand requires basis=<kind>")
    if v[0] == "kindtag":
        return v[1]
    raise EvalError("basis must be a kind tag")


def expand_value(value, basis):
    """An evaluation result in the basis of a kind, for `expand(...)` and
    the `expand` subcommand: a basis change of an operand past
    MAX_TABLE_WEIGHT cells is refused."""
    value = _as_expansion(value)
    check_cells("basis change operand", value.func.degree())
    return change_basis(value, basis)


def eval_expr(src):
    """Parse and evaluate in one step."""
    return eval_ast(parse(src))


def _check_printable(v):
    """Refuse a result with a coefficient or an exponent of t of more than
    MAX_POWER_BITS bits."""
    polys = [v] if isinstance(v, LaurentPoly) else v.func.terms.values()
    for poly in polys:
        for what, ints in (("coefficient", poly.c.values()),
                           ("exponent", poly.c)):
            for c in ints:
                if c.bit_length() > MAX_POWER_BITS:
                    raise EvalError("result has a %d-bit %s, more than %d"
                                    % (c.bit_length(), what, MAX_POWER_BITS))


def format_value(v):
    """Deterministic human-readable rendering of an evaluation result."""
    _check_printable(v)
    if isinstance(v, LaurentPoly):
        return str(v)
    prefix = "s" if v.kind == "none" else "s.%s" % v.kind
    if v.func.is_zero():
        return "0"
    bits = []
    for lam in v.func.support():
        c = v.func.terms[lam]
        name = "%s[%s]" % (prefix, ",".join(str(x) for x in lam))
        if c == LaurentPoly.const(1):
            bits.append(name)
        else:
            bits.append("(%s)*%s" % (c, name))
    return " + ".join(bits)


def value_to_json(v):
    _check_printable(v)
    if isinstance(v, LaurentPoly):
        return {"type": "poly", "poly": v.to_json()}
    return {
        "type": "expansion",
        "basis": v.kind,
        "terms": [{"lambda": list(lam), "coeff": v.func.terms[lam].to_json()}
                  for lam in v.func.support()],
    }
