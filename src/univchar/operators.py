"""Row creation operators for the four bases, their determinantal formulas,
the t-deformed row and parabolic operators, and the deformed products they
generate together with their coefficient polynomials.

Every row operator, plain or deformed and of any kind, is one kernel in two
stages.  The skew stage applies the factors of a generating series to the
operand: each factor skews by the one-column or one-row function of every
degree a, weighs the result by (-1)^a or by t^(a*texp), and moves a net
index shift j up or down by a.  Operands that reach the same shift are
summed before the next factor skews them, so the stage is a map j -> operand
that does not depend on the row index r.  The Pieri stage then sums the
signed products multiply_h(stage[j], r - s + j) over the shifts s of the
kind.

The kernel table is keyed by kind: skew factors, Pieri shifts and the level
weights of the parabolic operators.  The Schur kind is one-sided; box, vdom
and hdom are mirrored, adding the factors of the inverse series with
downward shifts.  The undeformed (Bernstein) kernels are the deformed ones
without their t-weighted one-row factors.  The box and horizontal-domino rows
are the vertical-domino row at r less the same row at r - 1 and r - 2.

The three diamond kinds share one deformed product in diamond coordinates,
the coefficients in the basis of the kind.  There a kind's row is
S+^perp R S-^perp, with S+ and S- its positive and signed series, mutually
inverse, and R its row in the Schur basis.  The vertical-domino row is
R_r(p) = sum_j h_(r+j) stage_j(p).  The coproduct of the positive series
gives S+^perp(h_m g) = sum_k h_(m-k) h_k^perp S+^perp g, and skews commute
with the stage, so the row in diamond coordinates is

    U_r(q) = sum_(j,k) h_(r+j-k) h_k^perp stage_j(q),

with Pieri shift 0.  The box and horizontal-domino positive series carry one
more factor, sum_k h_k and sum_k h_k[p_2] (Macdonald, I.5 Ex. 5), whose
skew turns the Pieri differences h_m - h_(m-1) and h_m - h_(m-2) back into
h_m, so U_r is the same operator for all three kinds.  Its unweighted skews
with step -1, by E(-1/z) in the stage and by H(1/z) in the sum over k,
cancel: f^perp g^perp = (fg)^perp and E(-u) H(u) = 1 (Macdonald, I (2.6)).
So U_r is the type-A stage plus one t-weighted one-row factor with step -1.
bb_diamond runs it from the straightened s_lambda, with no series anywhere;
bb_diamond_r_via_rows keeps each kind's own row chain, seeded by the kind's
basis element, as its oracle.

Parabolic operators compose single rows and correct with the pairwise index
shifts that come from commuting deformed rows past each other; the correction
bookkeeping runs as a small dynamic program over pending index shifts, which
builds each operand's skew stage once, runs the Pieri stage once per index
drop and adds each weighted row in place into the accumulator of its next
pending shifts.  A brute-force multivariate extraction oracle is provided for
cross-checking.
"""

from __future__ import annotations

import itertools

from .core import LaurentPoly, as_partition, canonical_kind
from .schur import (Expansion, SymFunc, add_into, multiply, multiply_h, skew_e,
                    skew_h, straighten, to_func)
from .series import diamond_unit, from_diamond, to_diamond


class InvariantViolation(Exception):
    """An internal exactness invariant failed (e.g. an inexact halving)."""


# ---------------------------------------------------------------------------
# the row kernel

# the kind of the diamond coordinates that box, vdom and hdom share
DIAMOND = "diamond"

# kind -> (skew factors, Pieri shifts, level options).  A skew factor
# (skew, step) skews by the one-column function of degree a, weight (-1)^a,
# when skew is "e", or by the one-row function, weight t^(a*texp), when it is
# "ht" (left out of the undeformed kernels), and adds step * a to the net
# shift.  The rows at Pieri shifts s > 0 are subtracted.  A level option
# (delta, drop) pairs the current parabolic position with one earlier one:
# it moves that one's pending shift by delta and drops the current index by
# drop, with weight (-t^texp)^drop (see _level_weights).
_A = (("e", 1), ("ht", 1))
_MIRRORED = _A + (("e", -1), ("ht", -1))
_A_LEVELS = ((0, 0), (1, 1))
_MIRRORED_LEVELS = _A_LEVELS + ((-1, 1), (0, 2))
_KERNELS = {"none": (_A, (0,), _A_LEVELS),
            "vdom": (_MIRRORED, (0,), _MIRRORED_LEVELS),
            "box": (_MIRRORED, (0, 1), _MIRRORED_LEVELS),
            "hdom": (_MIRRORED, (0, 2), _MIRRORED_LEVELS),
            DIAMOND: (_A + (("ht", -1),), (0,), _MIRRORED_LEVELS)}


def _row_stage(p, kind, texp):
    """Map net shift j -> skewed operand; texp None is the undeformed kernel.

    Skews run over every degree up to the operand's: a sum of Schur terms
    can vanish under one skew and not under a higher one (s[2] - s[1,1]
    under the one-column skews of degree 1 and 2).  Each factor adds its
    weighted skews straight into one accumulator per net shift.
    """
    stage = {0: p}
    for skew, step in _KERNELS[kind][0]:
        if skew == "ht" and texp is None:
            continue
        nxt = {}
        for j, f in stage.items():
            for a in range(f.degree() + 1):
                acc = nxt.setdefault(j + step * a, {})
                if skew == "e":
                    skew_e(f, a, acc, 0, -1 if a % 2 else 1)
                else:
                    skew_h(f, a, acc, a * texp)
        stage = _nonzero_funcs(nxt)
    return stage


def _nonzero_funcs(accs):
    """key -> SymFunc of every accumulator of accs whose sum is not zero."""
    out = {}
    for k, acc in accs.items():
        f = to_func(acc)
        if f:
            out[k] = f
    return out


def _pieri_stage(stage, kind, r):
    """The row at index r from a skew stage: signed sum of multiply_h."""
    acc = {}
    for s in _KERNELS[kind][1]:
        for j, f in stage.items():
            multiply_h(f, r - s + j, acc, 0, -1 if s else 1)
    return to_func(acc)


def _row(r, p, kind, texp):
    return _pieri_stage(_row_stage(p, kind, texp), kind, r)


# ---------------------------------------------------------------------------
# row operators

def bernstein_row(r, p):
    """Add an indexed row in the Schur basis: sum of signed Pieri moves."""
    return _row(r, p, "none", None)


def bernstein_create(nu):
    """Compose row operators along an integer vector, applied to 1."""
    return bernstein_diamond_create("none", nu)


def bernstein_diamond_row(kind, r, p):
    """Row creation operator for the basis of a kind, in the Schur basis."""
    return _row(r, p, canonical_kind(kind), None)


def bernstein_diamond_create(kind, nu):
    """Compose kind row operators along an integer vector, applied to 1."""
    f = SymFunc.one()
    for r in reversed(tuple(nu)):
        f = bernstein_diamond_row(kind, r, f)
        if not f:
            break
    return f


def tilde_b_row(r, p):
    """Deformed row operator for the Schur basis."""
    return _row(r, p, "none", 1)


def tilde_b_diamond_row(kind, r, p):
    """Deformed row operator for the basis of a kind."""
    return _row(r, p, canonical_kind(kind), 1)


# ---------------------------------------------------------------------------
# determinants

def _h(m):
    if m < 0:
        return SymFunc()
    return SymFunc.schur((m,) if m else ())


def _onerow_entry(kind, r):
    """One-row basis element of a kind, expanded in the Schur basis."""
    if kind == "vdom":
        return _h(r)
    if kind == "box":
        return _h(r) - _h(r - 1)
    if kind == "hdom":
        return _h(r) - _h(r - 2)
    raise ValueError(kind)


def _tilde_entry(kind, r):
    """One-row seeds for the second determinant family."""
    if r < 0:
        return SymFunc()
    if kind == "hdom":
        return _h(r)
    out = SymFunc()
    if kind == "vdom":
        for k in range(0, r + 1, 2):
            out = out + _h(r - k)
        return out
    for k in range(r + 1):
        out = out + _h(r - k).scaled((-1) ** k)
    return out


def _bar_entry(kind, r):
    """One-row seeds for the third determinant family."""
    if r < 0:
        return SymFunc()
    if kind == "box":
        return _h(r)
    if kind == "hdom":
        return _h(r) + _h(r - 1)
    out = SymFunc()
    for k in range(r + 1):
        out = out + _h(r - k)
    return out


def sym_det(matrix):
    """Determinant of a square matrix of SymFuncs (column-subset expansion)."""
    n = len(matrix)
    if n == 0:
        return SymFunc.one()
    memo = {}

    def minor(row, colmask):
        if row == n:
            return SymFunc.one()
        key = colmask
        got = memo.get(key)
        if got is not None:
            return got
        acc = SymFunc()
        sign = 1
        for j in range(n):
            bit = 1 << j
            if colmask & bit:
                entry = matrix[row][j]
                if entry:
                    acc = acc + multiply(entry, minor(row + 1, colmask & ~bit)).scaled(sign)
                sign = -sign
        memo[key] = acc
        return acc

    return minor(0, (1 << n) - 1)


def jacobi_trudi(lam):
    """Determinant of one-row functions equal to the Schur function of lam."""
    lam = as_partition(lam)
    n = len(lam)
    matrix = [[_h(lam[i] - (i + 1) + (j + 1)) for j in range(n)]
              for i in range(n)]
    return sym_det(matrix)


def det_diamond(kind, lam, family):
    """One of the three determinantal formulas for the basis of a kind.

    family 'D' halves a determinant of sums of one-row basis elements;
    families 'C' and 'B' use difference patterns with telescoped one-row
    seeds.  The result is returned expanded in the basis of the kind and
    must equal the single basis element at lam.
    """
    kind = canonical_kind(kind)
    if kind == "none":
        raise ValueError("determinant families require a non-Schur kind")
    lam = as_partition(lam)
    f = det_diamond_schur(kind, lam, family)
    return to_diamond(f, kind)


def det_diamond_schur(kind, lam, family):
    """Same determinant, left in the Schur basis."""
    kind = canonical_kind(kind)
    lam = as_partition(lam)
    n = len(lam)
    if n == 0:
        return SymFunc.one()
    if family == "D":
        matrix = [[_onerow_entry(kind, lam[i - 1] - i + j)
                   + _onerow_entry(kind, lam[i - 1] - i - j + 2)
                   for j in range(1, n + 1)] for i in range(1, n + 1)]
        det = sym_det(matrix)
        return _halve_exact(det)
    if family == "C":
        matrix = [[_tilde_entry(kind, lam[i - 1] - i + j)
                   - _tilde_entry(kind, lam[i - 1] - i - j)
                   for j in range(1, n + 1)] for i in range(1, n + 1)]
        return sym_det(matrix)
    if family == "B":
        matrix = [[_bar_entry(kind, lam[i - 1] - i + j)
                   - _bar_entry(kind, lam[i - 1] - i - j + 1)
                   for j in range(1, n + 1)] for i in range(1, n + 1)]
        return sym_det(matrix)
    raise ValueError("unknown determinant family: %r" % (family,))


def _halve_exact(f):
    out = {}
    for lam, poly in f.terms.items():
        half = {}
        for e, v in poly.c.items():
            if v % 2:
                raise InvariantViolation("inexact halving at %r" % (lam,))
            half[e] = v // 2
        out[lam] = LaurentPoly(half)
    return SymFunc(out)


# ---------------------------------------------------------------------------
# parabolic operators

_LEVEL_CACHE = {}   # (p, levels) -> dict ds -> ((drop, count), ...)


def _level_weights(p, levels):
    """Joint pair-correction weights for one parabolic position.

    Maps each vector of pending index shifts for the p earlier positions to
    the pairs (index drop at the current position, number of level choices
    giving it).  Every pair correction is a product of binomials
    1 - t^texp m, each monomial m lowering the current index by one, so a
    level option of drop d takes d of those monomials and weighs
    (-t^texp)^d.  A choice of options thus weighs (-t^texp) to its total
    drop, whatever the choice and the texp; _parabolic_apply applies it.
    """
    key = (p, levels)
    got = _LEVEL_CACHE.get(key)
    if got is not None:
        return got
    joint = {((), 0): 1}
    for _ in range(p):
        nxt = {}
        for (ds, drop), n in joint.items():
            for delta, dr in levels:
                k = (ds + (delta,), drop + dr)
                nxt[k] = nxt.get(k, 0) + n
        joint = nxt
    grouped = {}
    for (ds, drop), n in joint.items():
        grouped.setdefault(ds, []).append((drop, n))
    got = {ds: tuple(lst) for ds, lst in grouped.items()}
    _LEVEL_CACHE[key] = got
    return got


def _parabolic_apply(nu, p, texp, kind):
    """Coefficient extraction for a deformed parabolic operator.

    Processes index positions right to left; the state maps vectors of
    pending index shifts for the unprocessed positions to accumulated
    operands.
    """
    nu = tuple(int(x) for x in nu)
    n = len(nu)
    if n == 0:
        return p
    if n == 1:
        return _row(nu[0], p, kind, texp)
    states = {(0,) * n: p}
    for pos in range(n - 1, -1, -1):
        grouped = _level_weights(pos, _KERNELS[kind][2])
        new_states = {}
        for pending, f in states.items():
            stage = _row_stage(f, kind, texp)
            base = nu[pos] + pending[pos]
            rows = {}
            for ds, drops in grouped.items():
                acc = new_states.setdefault(
                    tuple(pending[i] + ds[i] for i in range(pos)), {})
                for drop, cnt in drops:
                    row = rows.get(drop)
                    if row is None:
                        row = rows[drop] = (
                            _pieri_stage(stage, kind, base - drop).terms,
                            texp * drop)
                    terms, e = row
                    mult = -cnt if drop % 2 else cnt
                    for lam, c in terms.items():
                        add_into(acc, lam, c, e, mult)
        states = _nonzero_funcs(new_states)
        if not states:
            return SymFunc()
    return states[()]


def tilde_b_parabolic(nu, p, texp=1):
    """Deformed parabolic operator for the Schur basis."""
    return _parabolic_apply(nu, p, texp, "none")


def tilde_b_diamond_parabolic(kind, nu, p, texp=1):
    """Deformed parabolic operator for the basis of a kind."""
    return _parabolic_apply(nu, p, texp, canonical_kind(kind))


# ---------------------------------------------------------------------------
# brute-force extraction oracle

def direct_extraction_oracle(nu, p, kind="none", texp=1):
    """Coefficient extraction from the full multivariate generating function.

    Expands the staircase determinant and, for the vertical-domino kind, the
    signed pair product, then sums over all per-variable skew index tuples.
    Exponential in the number of variables; guarded for cross-checks only.
    """
    nu = tuple(int(x) for x in nu)
    kind = canonical_kind(kind)
    n = len(nu)
    if kind == "none":
        if n > 5:
            raise ValueError("oracle limited to 5 variables")
        return _oracle_type_a(nu, p, texp)
    if n > 4:
        raise ValueError("diamond oracle limited to 4 variables")
    if kind == "vdom":
        return _oracle_vdom(nu, p, texp)
    if kind == "box":
        out = SymFunc()
        for shift in itertools.product((0, 1), repeat=n):
            sub = tuple(nu[i] - shift[i] for i in range(n))
            out = out + _oracle_vdom(sub, p, texp).scaled((-1) ** sum(shift))
        return out
    out = SymFunc()
    for shift in itertools.product((0, 1), repeat=n):
        sub = tuple(nu[i] - 2 * shift[i] for i in range(n))
        out = out + _oracle_vdom(sub, p, texp).scaled((-1) ** sum(shift))
    return out


def _nonneg_tuples(length, total_max):
    if length == 0:
        yield ()
        return
    for head in range(total_max + 1):
        for tail in _nonneg_tuples(length - 1, total_max - head):
            yield (head,) + tail


def _oracle_type_a(nu, p, texp):
    n = len(nu)
    deg = p.degree()
    if deg < 0:
        return SymFunc()
    out = SymFunc()
    for w in itertools.permutations(range(1, n + 1)):
        sign = _perm_sign(w)
        for a in _nonneg_tuples(n, deg):
            fa = p
            for ai in a:
                fa = skew_h(fa, ai)
            if fa.is_zero():
                continue
            rest = deg - sum(a)
            for b in _nonneg_tuples(n, rest):
                fab = fa
                for bi in b:
                    fab = skew_e(fab, bi)
                if fab.is_zero():
                    continue
                ms = [nu[i] + (w[i] - (i + 1)) + a[i] + b[i] for i in range(n)]
                if any(m < 0 for m in ms):
                    continue
                g = fab
                for m in ms:
                    g = multiply_h(g, m)
                weight = LaurentPoly.t(sum(a) * texp,
                                       sign * (-1) ** sum(b))
                out = out + g.scaled(weight)
    return out


def _oracle_vdom(nu, p, texp):
    n = len(nu)
    deg = p.degree()
    if deg < 0:
        return SymFunc()
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    out = SymFunc()
    for w in itertools.permutations(range(1, n + 1)):
        wsign = _perm_sign(w)
        for chosen in itertools.chain.from_iterable(
                itertools.combinations(pairs, k) for k in range(len(pairs) + 1)):
            pair_shift = [0] * n
            for i, j in chosen:
                pair_shift[i] += 1
                pair_shift[j] += 1
            psign = (-1) ** len(chosen)
            for quad in _nonneg_tuples(4 * n, deg):
                a = quad[0:n]          # z-negative, t-weighted row skews
                b = quad[n:2 * n]      # z-negative column skews
                e = quad[2 * n:3 * n]  # z-positive, t-weighted row skews
                f = quad[3 * n:]       # z-positive column skews
                g = p
                for i in range(n):
                    if a[i]:
                        g = skew_h(g, a[i])
                    if b[i]:
                        g = skew_e(g, b[i])
                    if e[i]:
                        g = skew_h(g, e[i])
                    if f[i]:
                        g = skew_e(g, f[i])
                    if g.is_zero():
                        break
                if g.is_zero():
                    continue
                ok = True
                ms = []
                for i in range(n):
                    m = (nu[i] - (i + 1 - w[i]) - pair_shift[i]
                         - (e[i] + f[i]) + (a[i] + b[i]))
                    if m < 0:
                        ok = False
                        break
                    ms.append(m)
                if not ok:
                    continue
                for m in ms:
                    g = multiply_h(g, m)
                weight = LaurentPoly.t((sum(a) + sum(e)) * texp,
                                       wsign * psign
                                       * (-1) ** (sum(b) + sum(f)))
                out = out + g.scaled(weight)
    return out


def _perm_sign(w):
    inv = 0
    for i in range(len(w)):
        for j in range(i + 1, len(w)):
            if w[i] > w[j]:
                inv += 1
    return -1 if inv % 2 else 1


# ---------------------------------------------------------------------------
# deformed products over sequences of factors

_BB_CACHE = {}   # (kind or DIAMOND, factors-suffix) -> SymFunc


def bb_r(factors):
    """Deformed product over a sequence of index vectors, Schur basis; at
    the squared deformation it is bb_r(factors).subs_power(2)."""
    return _bb("none", tuple(tuple(f) for f in factors))


def bb_diamond(factors):
    """Deformed product over a sequence of index vectors in the diamond
    coordinates: its coefficients are those in the basis of box, vdom and
    hdom alike."""
    return _bb(DIAMOND, tuple(tuple(f) for f in factors))


def bb_diamond_r(kind, factors):
    """Deformed product over a sequence of index vectors for a kind, in the
    Schur basis."""
    kind = canonical_kind(kind)
    if kind == "none":
        return bb_r(factors)
    return from_diamond(Expansion(kind, bb_diamond(factors)))


def bb_diamond_r_via_rows(kind, factors):
    """bb_diamond_r by the kind's own row chain, seeded by the kind's basis
    element: the verification route for bb_diamond."""
    return _bb(canonical_kind(kind), tuple(tuple(f) for f in factors))


def _bb(kind, factors):
    if not factors:
        return SymFunc.one()
    key = (kind, factors)
    got = _BB_CACHE.get(key)
    if got is not None:
        return got
    if len(factors) == 1:
        # rightmost factor acts on 1: the result is undeformed
        st = straighten(factors[0])
        if st is None:
            out = SymFunc()
        else:
            sign, lam = st
            base = (SymFunc.schur(lam) if kind in ("none", DIAMOND)
                    else diamond_unit(lam, kind))
            out = base.scaled(sign)
    else:
        out = _parabolic_apply(factors[0], _bb(kind, factors[1:]), 1, kind)
    _BB_CACHE[key] = out
    return out


def c_polynomial(lam, factors):
    """Schur coefficient of the type-A deformed product."""
    return bb_r(factors).coeff(lam)


def d_polynomial(kind, lam, factors):
    """Basis coefficient of the deformed product for a kind: one entry of
    the diamond product, the same for box, vdom and hdom, or the Schur
    coefficient for kind none."""
    if canonical_kind(kind) == "none":
        return c_polynomial(lam, factors)
    return bb_diamond(factors).coeff(lam)
