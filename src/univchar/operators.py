"""Row creation operators for the four bases, their determinantal formulas,
the t-deformed row and parabolic operators, and the deformed products they
generate together with their coefficient polynomials.

Every row operator, plain or deformed and of any kind, is one kernel in two
stages.  The skew stage applies the factors of a generating series to the
operand: each factor skews by the one-column or one-row function of every
degree a, weighs the result by (-1)^a or by t^(a*texp), and moves a net
index shift j up or down by a, in one walk of each Schur term's removal
strips of every size (schur._removals) rather than one skew per degree.
Operands that reach the same shift are summed before the next factor skews
them, so the stage is a map j -> operand that does not depend on the row
index r.  Its factors are the t-weighted
one-row skews ("ht") and, for the mirrored kinds, the one-column skews with
step -1 ("e", -1).  The Pieri stage then sums B_(r-s+j) stage[j] over the
shifts s of the kind, with B_m = sum_a (-1)^a h_(m+a) e_a^perp Bernstein's
operator: it is the one-column factor with step +1 that every kind's series
carries, followed by the product with h_(r-s+j), and it sends s_lam to the
straightened s_(m, lam) (Macdonald, I.5 Ex. 29), so each Schur term of the
stage takes one insertion (schur._inserted, the memo of
schur.bernstein_insert) instead of a skew per degree and a Pieri product
whose terms cancel.

The kernel table is keyed by kind: skew factors, Pieri shifts and the level
weights of the parabolic operators.  The Schur kind is one-sided; box, vdom
and hdom are mirrored, adding the factors of the inverse series with
downward shifts.  So each operator has one name that takes the kind, and
kind none, the empty tile, is its Schur case; tilde_b_diamond_parabolic at
one index is the deformed row.  The undeformed (Bernstein) kernels are the
deformed ones without their t-weighted one-row factors.  The box and
horizontal-domino rows are the vertical-domino row at r less the same row
at r - 1 and r - 2.

The three diamond kinds share one deformed product in diamond coordinates,
the coefficients in the basis of the kind.  There a kind's row is
S+^perp R S-^perp, with S+ and S- its positive and signed series, mutually
inverse, and R its row in the Schur basis.  Write stage_j for the skew
stage with the one-column factor of step +1 included; the vertical-domino
row is R_r(p) = sum_j h_(r+j) stage_j(p).  The coproduct of the positive
series gives S+^perp(h_m g) = sum_k h_(m-k) h_k^perp S+^perp g, and skews
commute with the stage, so the row in diamond coordinates is

    U_r(q) = sum_(j,k) h_(r+j-k) h_k^perp stage_j(q),

with Pieri shift 0.  The box and horizontal-domino positive series carry one
more factor, sum_k h_k and sum_k h_k[p_2] (Macdonald, I.5 Ex. 5), whose
skew turns the Pieri differences h_m - h_(m-1) and h_m - h_(m-2) back into
h_m, so U_r is the same operator for all three kinds.  Its unweighted skews
with step -1, by E(-1/z) in the stage and by H(1/z) in the sum over k,
cancel: f^perp g^perp = (fg)^perp and E(-u) H(u) = 1 (Macdonald, I (2.6)).
So U_r is the type-A stage plus one t-weighted one-row factor with step -1.
bb_diamond runs it from the straightened s_lambda, with no series anywhere.

The kernel carries each Schur term's coefficient as one Python int: the
polynomial at t = 2^w (a Kronecker substitution, core.pack), with t^e in
the slot e - low of w bits, low the operand's lowest exponent, or in the
slot low - e, low its highest, for a negative texp.  Every weight is then
a left shift: a strip weight t^(a*texp) shifts by w*a*|texp| bits, a sign
is a negation, a level option is a shift times +-count, and every sum is
one int addition.  A call packs its operand once and decodes balanced
digits once where it returns (core.unpack), with nothing decoded between
stages (_packed).  The one-row sweeps of series pack the same way;
skew_by_series does not, since packing its accumulation was slower.

One width w per call is sound.  The packed int is the image of the ring
map Z[t] -> Z, t -> 2^w, and every step is Z[t]-linear, so the output's
image is right whatever slot overflows midway: only the true output must
fit, and balanced digits read it exactly once each of its coefficients is
below 2^(w-1) in absolute value.  Its L1 norm bounds them all, and it is at
most A * G, with A the operand's L1 norm and G a product over the stages:
each skew factor the largest strip count _most_strips(D) of a partition of
at most D cells, since a term reaches each shape of its strips once; the
Pieri stage the number of Pieri shifts, since it sends a term to at most
one shape per shift; and each parabolic position its summed level counts,
len(levels) ** pos.  D bounds the cells of every term a position meets: it
is the operand's degree plus the sum of max(nu_i, 0) over the positions
already processed.  A row at index m changes a term's size by at most m
(_pieri_stage), and every level option (delta, drop) has delta <= drop,
while the earlier position of a pair is processed after the later one, so
the indices a choice of options uses at the processed positions sum to at
most their nu_i.  A call takes w = bitlength(A * G) + 1 and runs its
kernel once (_packed).

Parabolic operators compose single rows and correct with the pairwise index
shifts that come from commuting deformed rows past each other; the correction
bookkeeping runs as a small dynamic program over pending index shifts, which
builds each operand's skew stage once, runs the Pieri stage once per index
drop and adds each weighted row in place into the accumulator of its next
pending shifts.  The routes that check these operators are in oracles: the
multivariate extraction (direct_extraction_oracle), each kind's own row
chain from its basis element (bb_diamond_r_via_rows), and the vdom table
chain on the VDOM_TABLE kernel (vdom_table_chain).
"""

from __future__ import annotations

from .core import (InvariantViolation, LaurentPoly, as_partition,
                   canonical_kind, pack, unpack)
from .schur import (Expansion, SymFunc, _inserted, _removals, multiply,
                    straighten)
from .series import from_diamond, to_diamond


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
# drop, with weight (-t^texp)^drop (see _level_weights).  VDOM_TABLE is the
# diamond row stage with the type-A levels: at texp 2 its chain from 1 is
# the vdom table (oracles.vdom_table_chain).
_A = (("ht", 1),)
_MIRRORED = _A + (("e", -1), ("ht", -1))
_A_LEVELS = ((0, 0), (1, 1))
_MIRRORED_LEVELS = _A_LEVELS + ((-1, 1), (0, 2))
VDOM_TABLE = "vdom table"
_KERNELS = {"none": (_A, (0,), _A_LEVELS),
            "vdom": (_MIRRORED, (0,), _MIRRORED_LEVELS),
            "box": (_MIRRORED, (0, 1), _MIRRORED_LEVELS),
            "hdom": (_MIRRORED, (0, 2), _MIRRORED_LEVELS),
            DIAMOND: (_A + (("ht", -1),), (0,), _MIRRORED_LEVELS),
            VDOM_TABLE: (_A + (("ht", -1),), (0,), _A_LEVELS)}


def _row_stage(p, kind, texp, w):
    """Map net shift j -> skewed packed operand (lam -> int); texp None is
    the undeformed kernel.

    The stage holds the kind's skew factors but the one-column skews with
    step +1, which the Bernstein insertion of _pieri_stage applies.  A
    factor walks the removal strips of each Schur term once, every size a
    at once (schur._removals), and adds each strip, negated for odd a or
    shifted by w * a * |texp| bits, straight into the accumulator of net
    shift j + step * a.  A term reaches each shape of its strips once, so a
    factor multiplies an L1 norm by at most the largest strip count of its
    partitions (_most_strips).  Terms that cancel stay in the maps as 0,
    and every reader skips them.
    """
    stage = {0: p}
    for skew, step in _KERNELS[kind][0]:
        if skew == "ht" and texp is None:
            continue
        column = skew == "e"
        unit = 0 if column else w * abs(texp)
        nxt = {}
        for j, f in stage.items():
            for lam, n in f.items():
                if not n:
                    continue
                for a, shapes in enumerate(_removals(lam, column)):
                    acc = nxt.setdefault(j + step * a, {})
                    m = -n if column and a % 2 else n << unit * a
                    for nu in shapes:
                        acc[nu] = acc.get(nu, 0) + m
        stage = nxt
    return stage


def _pieri_stage(stage, kind, r):
    """The packed row at index r from a skew stage: the signed sum, over
    the kind's Pieri shifts s, of Bernstein's operator B_(r-s+j) on
    stage[j].  It sends each Schur term to at most one shape per shift, so
    it multiplies an L1 norm by at most the number of shifts.  A shape in
    stage[j] has at least j cells fewer than the term it came from, since
    a factor that removes a cells moves j by at most a, so the row adds at
    most r cells to a term (a negative r removes at least -r).

    B_m = sum_a (-1)^a h_(m+a) e_a^perp, so B_(r-s+j) applies the one-column
    skews with step +1 and the Pieri product in one move, each Schur term
    s_lam going to the straightened s_(m, lam) (schur._inserted).
    """
    acc = {}
    for s in _KERNELS[kind][1]:
        for j, f in stage.items():
            m = r - s + j
            for lam, n in f.items():
                if not n:
                    continue
                got = _inserted(m, lam)
                if got:
                    sign, nu = got
                    acc[nu] = acc.get(nu, 0) + (-n if (sign < 0) != (s > 0)
                                                else n)
    return acc


_MOST_STRIPS = [1]   # d -> largest strip count of a partition of <= d cells


def _most_strips(d):
    """The largest strip count, prod_r (lam_r - lam_(r+1) + 1), of a
    partition of at most d cells: a knapsack over the gaps g_r =
    lam_r - lam_(r+1), each worth g_r + 1 and costing r * g_r cells.  It
    bounds the removal strips of a column too, a conjugate having as many
    cells."""
    while len(_MOST_STRIPS) <= d:
        n = len(_MOST_STRIPS)
        best = [1] * (n + 1)
        for r in range(1, n + 1):
            best = [max(best[c - r * g] * (g + 1) for g in range(c // r + 1))
                    for c in range(n + 1)]
        _MOST_STRIPS.append(best[n])
    return _MOST_STRIPS[d]


def _packed(p, texp, kind, nu, kernel):
    """Run kernel(terms, w) -> lam -> int on p packed in slots of w bits,
    and decode its output once (module docstring).

    w is one bit past A * G, with A the operand's L1 norm and G the factor
    by which the positions nu, right to left, can at most multiply an L1
    norm: per position, the largest strip count of a partition of at most
    D cells for each skew factor, the number of Pieri shifts, and the
    len(levels) ** pos level choices, where D, the operand's degree to
    start with, grows by max(nu[pos], 0) after each position.
    """
    if not p.terms:
        return SymFunc()
    factors, shifts, levels = _KERNELS[kind]
    step = -1 if texp is not None and texp < 0 else 1
    low, norm, degree = None, 0, 0
    for lam, c in p.terms.items():
        for e, v in c.c.items():
            if low is None or e * step < low * step:
                low = e
            norm += abs(v)
        degree = max(degree, sum(lam))
    bound = norm
    for pos in range(len(nu) - 1, -1, -1):
        most = _most_strips(degree)
        for skew, _ in factors:
            if skew == "e" or texp is not None:
                bound *= most
        bound *= len(shifts) * len(levels) ** pos
        degree += max(nu[pos], 0)
    w = bound.bit_length() + 1
    out = kernel({lam: pack(c, w, low, step) for lam, c in p.terms.items()},
                 w)
    f = SymFunc()
    for lam, n in out.items():
        if n:
            f.terms[lam] = unpack(n, w, low, step)
    return f


def _row(r, p, kind, texp):
    def kernel(terms, w):
        return _pieri_stage(_row_stage(terms, kind, texp, w), kind, r)
    return _packed(p, texp, kind, (r,), kernel)


# ---------------------------------------------------------------------------
# row operators

def bernstein_diamond_row(kind, r, p):
    """Row creation operator for the basis of a kind, in the Schur basis.
    Kind none, the empty tile, is the Schur operator: Bernstein's row B_r,
    with B_r s_lam = s_(r, lam) straightened."""
    return _row(r, p, canonical_kind(kind), None)


def bernstein_diamond_create(kind, nu):
    """Compose kind row operators along an integer vector, applied to 1."""
    f = SymFunc.one()
    for r in reversed(tuple(nu)):
        f = bernstein_diamond_row(kind, r, f)
        if not f:
            break
    return f


# ---------------------------------------------------------------------------
# determinants

def _h(m):
    if m < 0:
        return SymFunc()
    return SymFunc.schur((m,) if m else ())


def _onerow_entry(kind, r):
    """One-row basis element of a kind in the Schur basis: the sum of
    h_(r-s) over the kind's Pieri shifts s, subtracted for s > 0 as in
    _pieri_stage."""
    out = SymFunc()
    for s in _KERNELS[kind][1]:
        out = out + _h(r - s).scaled(-1 if s else 1)
    return out


def _seed(kind, r, step):
    """The telescoped one-row seed sum_(j>=0) _onerow_entry(kind, r - step*j)
    of determinant family C (step 2) or B (step 1)."""
    out = SymFunc()
    for m in range(r, -1, -step):
        out = out + _onerow_entry(kind, m)
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
        matrix = [[_seed(kind, lam[i - 1] - i + j, 2)
                   - _seed(kind, lam[i - 1] - i - j, 2)
                   for j in range(1, n + 1)] for i in range(1, n + 1)]
        return sym_det(matrix)
    if family == "B":
        matrix = [[_seed(kind, lam[i - 1] - i + j, 1)
                   - _seed(kind, lam[i - 1] - i - j + 1, 1)
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
    packed operands.  A level option of drop d and count c adds c times the
    row at the index less d, negated for odd d and shifted by w * d * |texp|
    bits, so a position multiplies an L1 norm by at most its stage and
    Pieri factors times its summed level counts, len(levels) ** pos.
    """
    nu = tuple(int(x) for x in nu)
    n = len(nu)
    if n == 0:
        return p
    if n == 1:
        return _row(nu[0], p, kind, texp)
    levels = _KERNELS[kind][2]

    def kernel(terms, w):
        unit = w * abs(texp)
        states = {(0,) * n: terms}
        for pos in range(n - 1, -1, -1):
            grouped = _level_weights(pos, levels)
            new_states = {}
            for pending, f in states.items():
                stage = _row_stage(f, kind, texp, w)
                base = nu[pos] + pending[pos]
                rows = {}
                for ds, drops in grouped.items():
                    acc = new_states.setdefault(
                        tuple(pending[i] + ds[i] for i in range(pos)), {})
                    for drop, cnt in drops:
                        row = rows.get(drop)
                        if row is None:
                            row = rows[drop] = {
                                lam: c << unit * drop for lam, c in
                                _pieri_stage(stage, kind, base - drop).items()
                                if c}
                        mult = -cnt if drop % 2 else cnt
                        for lam, c in row.items():
                            acc[lam] = acc.get(lam, 0) + c * mult
            states = new_states
        return states[()]

    return _packed(p, texp, kind, nu, kernel)


def tilde_b_diamond_parabolic(kind, nu, p, texp=1):
    """Deformed parabolic operator for the basis of a kind.  Kind none (the
    empty tile) is the Schur operator, and one index nu = (r,) gives the
    deformed row at r."""
    return _parabolic_apply(nu, p, texp, canonical_kind(kind))


# ---------------------------------------------------------------------------
# deformed products over sequences of factors

_BB_CACHE = {}   # ("none" or DIAMOND, factors-suffix) -> SymFunc


def bb_r(factors):
    """Deformed product over a sequence of index vectors, Schur basis; at
    the squared deformation it is bb_r(factors).subs_power(2)."""
    return _bb("none", factors)


def bb_diamond(factors):
    """Deformed product over a sequence of index vectors in the diamond
    coordinates: its coefficients are those in the basis of box, vdom and
    hdom alike."""
    return _bb(DIAMOND, factors)


def bb_diamond_r(kind, factors):
    """Deformed product over a sequence of index vectors for a kind, in the
    Schur basis."""
    kind = canonical_kind(kind)
    if kind == "none":
        return bb_r(factors)
    return from_diamond(Expansion(kind, bb_diamond(factors)))


def _bb(kind, factors):
    # the memo is read on the factors as given first: a tuple of tuples
    # equals the key built from it, a list is unhashable, and a generator
    # misses unconsumed
    try:
        got = _BB_CACHE.get((kind, factors))
    except TypeError:
        got = None
    if got is not None:
        return got
    factors = tuple(tuple(f) for f in factors)
    if not factors:
        return SymFunc.one()
    key = (kind, factors)
    got = _BB_CACHE.get(key)
    if got is not None:
        return got
    if len(factors) == 1:
        # rightmost factor acts on 1: the result is undeformed
        st = straighten(factors[0])
        out = SymFunc() if st is None else SymFunc.schur(st[1]).scaled(st[0])
    else:
        out = _parabolic_apply(factors[0], _bb(kind, factors[1:]), 1, kind)
    _BB_CACHE[key] = out
    return out


def d_polynomial(kind, lam, factors):
    """Basis coefficient of the deformed product for a kind: one entry of
    the diamond product, the same for box, vdom and hdom, or the Schur
    coefficient for kind none."""
    if canonical_kind(kind) == "none":
        return bb_r(factors).coeff(lam)
    return bb_diamond(factors).coeff(lam)
