"""Littlewood series for the four tile kinds, the bases they cut out of the
Schur basis, basis changes, Newell-Littlewood coefficients, the transpose
involution on each basis, and truncated dual bases.

Each kind has a positive generating series (all partitions in its tileable
family, coefficient one) and a signed inverse series.  The signed series of
the three kinds are one Frobenius family (Koike-Terada, J. Algebra 107,
1987; Macdonald, I.5 Ex. 9): each strict partition alpha gives the shape
(alpha - 1 | alpha - 1) for box, (alpha - 1 | alpha) for vdom and
(alpha | alpha - 1) for hdom, with sign (-1)^|alpha|.  The series only ever
act through the skewing operator, so they are generated on demand per
degree and memoized.  The signed shapes and signs are validated against
brute-force polynomial expansion in the verification suite.

The positive box series is the vdom seed plus one cell (Macdonald, I.5
Ex. 5): S_box = S_vdom * sum_k h_k, t-scaled termwise, so skewing by it is the
vdom skew followed by one one-row Pieri sweep.  The sparse signed series are
cheaper summed directly than factored, so only this one is factored.  Every
other series skew sums one integer spectrum per Schur term s_lam of the
operand: nu -> sum_mu sign_mu c^lam_{mu,nu} over the series terms mu
contained in lam, memoized per (lam, kind, sign), with the t-scale the shift
t^(|lam| - |nu|).  Basis changes over many small operands (to_diamond,
from_diamond) meet the same lam again and again and read that memo back.

The vdom "+" spectrum is built from that of lam's tail.  With S =
prod_{i<j} (1 - x_i x_j)^-1, the coproduct of S (Koike-Terada 1987;
Macdonald I.5 Ex. 29) gives S^perp (h_n g) = sum_k h_(n-k) S^perp h_k^perp g,
since S has no one-row term but 1 and so fixes every h_j; Bernstein's
operator B_m = sum_a (-1)^a h_(m+a) e_a^perp then gives S^perp B_m =
sum_k B_(m-k) h_k^perp S^perp.  As s_lam = B_(lam_1) s_tail, the spectrum
of lam is one Bernstein insertion per removal strip of each term of the
tail's spectrum, and tails shared across lam (the rows of one table) come
from the memo.  Only vdom "+" goes this way: the box and hdom series of
either sign hold a one-row term past 1, so they do not fix h_j, and the
signed vdom series turns h_k^perp into (-1)^k e_k^perp, a second recursion
that no table needs.  Every other spectrum sums the Littlewood-Richardson
fills of its terms mu, which are not memoized one by one.

The positive hdom series factors too: S_hdom = S_vdom * prod_i (1 - x_i^2)^-1
= S_box * sum_k (-1)^k h_k (the same exercise), so the hdom skew is the box
skew followed by one signed one-row sweep.  skew_by_series does not take that
route: a caller that wants hdom alone would pay the vdom skew and two sweeps
for one direct skew, which was slower on the diamond benchmark workload.
Only the multi-kind tables (kpoly.ktables) use it, when box is built as
well and its skew is already paid for.

A one-row sweep (_one_row_sweep) packs each coefficient polynomial into one
int, t^e in a slot of w bits at e - e_min, so each strip is one integer
addition.  Each monomial of the operand reaches each output term at most
once, so no output coefficient exceeds the sum A of the operand's absolute
coefficients, and w = bitlength(A) + 1 holds every output coefficient as a
balanced digit: the packing is exact, with no overflow to guard.
"""

from __future__ import annotations

from .core import (LaurentPoly, canonical_kind, contains, from_frobenius,
                   intersect, kind_partitions_of, pack, partition_key,
                   partitions_of, partitions_upto, unpack)
from .schur import (_INSERT_CACHE, _INTERN, Expansion, SymFunc, _inserted,
                    _interned, _prod_spectrum, _removals, _skew_spectrum,
                    add_into, multiply, skew_by, to_func)

_SERIES_CACHE = {}   # (kind, sign) -> list per degree of [(partition, +-1)]
_SPECTRUM_CACHE = {}  # (lam, kind, sign) -> tuple of interned (nu, int)


# Frobenius offsets (da, db) of the arms and legs of each kind's signed
# shapes over alpha - 1
_FROBENIUS_OFFSETS = {"box": (0, 0), "vdom": (0, 1), "hdom": (1, 0)}


def _strict_partitions(total, largest):
    """Strictly decreasing tuples of positive parts at most largest, summing
    to total."""
    if total == 0:
        yield ()
        return
    for head in range(min(total, largest), 0, -1):
        for tail in _strict_partitions(total - head, head - 1):
            yield (head,) + tail


def _signed_shapes(kind, n):
    """Signed-series shapes of size n with their integer signs: over strict
    alpha, (alpha - 1 + da | alpha - 1 + db) with sign (-1)^|alpha|, whose
    size is 2|alpha| - (1 - da - db) l(alpha)."""
    if kind == "none":
        return [((), 1)] if n == 0 else []
    da, db = _FROBENIUS_OFFSETS[kind]
    # the size is at least |alpha| and at most 2|alpha|
    return [(from_frobenius(tuple(a - 1 + da for a in alpha),
                            tuple(a - 1 + db for a in alpha)),
             -1 if total % 2 else 1)
            for total in range((n + 1) // 2, n + 1)
            for alpha in _strict_partitions(total, total)
            if 2 * total - (1 - da - db) * len(alpha) == n]


def _series_rows(kind, sign, degree):
    """Per degree up to the given one, the shapes of the series of a
    canonical kind with their integer signs."""
    rows = _SERIES_CACHE.setdefault((kind, sign), [])
    while len(rows) <= degree:
        n = len(rows)
        if sign == "+":
            level = [(lam, 1) for lam in kind_partitions_of(n, kind)]
        elif sign == "-":
            level = sorted(_signed_shapes(kind, n),
                           key=lambda kv: partition_key(kv[0]))
        else:
            raise ValueError("sign must be '+' or '-'")
        rows.append(tuple(level))
    return rows


def series_terms(kind, sign, scale, degree):
    """Terms of the generating series of a kind up to the given degree.

    sign is '+' or '-'; scale is 1 or 't' and multiplies the term at mu by
    t**|mu|.  Returns a list of (partition, LaurentPoly).
    """
    kind = canonical_kind(kind)
    if degree < 0:
        return []
    rows = _series_rows(kind, sign, degree)
    out = []
    for n in range(degree + 1):
        for lam, sgn in rows[n]:
            if scale == "t":
                out.append((lam, LaurentPoly.t(n, sgn)))
            else:
                out.append((lam, LaurentPoly.const(sgn)))
    return out


def skew_by_series(p, kind, sign, scale=1):
    """Apply the adjoint of multiplication by a generating series to p.

    Each term c s_lam of p adds c times the series spectrum of lam, each of
    its entries at nu shifted by t**(|lam| - |nu|) when scale is 't'; the
    positive box series is the vdom skew and one one-row sweep."""
    kind = canonical_kind(kind)
    # kept: summed directly per lambda, box "+" is level with this on small
    # operands but took 2.4 s against 1.0 s on H.box of the ladder's top rung
    if kind == "box" and sign == "+":
        return _one_row_sweep(skew_by_series(p, "vdom", "+", scale), scale)
    scaled = scale == "t"
    acc = {}
    for lam, c in p.terms.items():
        size = sum(lam)
        for nu, k in _series_spectrum(lam, kind, sign):
            add_into(acc, nu, c, size - sum(nu) if scaled else 0, k)
    return to_func(acc)


def _series_spectrum(lam, kind, sign):
    """tuple of (nu, sum over the series terms mu of sign_mu c^lam_{mu,nu}),
    nu with a nonzero sum: the skew of s_lam by the unscaled series of a
    canonical kind.  Memoized per (lam, kind, sign), each entry interned
    (schur._interned).  The vdom "+" spectrum is built from that of lam's
    tail (module docstring), the others from the Littlewood-Richardson
    fills of the terms mu contained in lam, which are not memoized."""
    key = (lam, kind, sign)
    got = _SPECTRUM_CACHE.get(key)
    if got is not None:
        return got
    if kind == "vdom" and sign == "+" and lam:
        # each proper tail of lam, shortest first, from the one below it
        # (S^perp 1 = 1), so a long lam needs no recursion
        got = (((), 1),)
        for i in range(len(lam) - 1, 0, -1):
            tail = (_interned(lam[i:]), kind, sign)
            spec = _SPECTRUM_CACHE.get(tail)
            if spec is None:
                spec = _SPECTRUM_CACHE[tail] = _created(lam[i], got)
            got = spec
        got = _SPECTRUM_CACHE[key] = _created(lam[0], got)
        return got
    size = sum(lam)
    acc = {}
    for row in _series_rows(kind, sign, size)[:size + 1]:
        for mu, sgn in row:
            for nu, k in _skew_spectrum(lam, mu):
                acc[nu] = acc.get(nu, 0) + sgn * k
    got = _SPECTRUM_CACHE[key] = tuple(_interned((_interned(nu), k))
                                       for nu, k in acc.items() if k)
    return got


def _created(m, spectrum):
    """The spectrum of S^perp B_m g from that of S^perp g, S the positive
    vdom series: sum_k B_(m-k) h_k^perp S^perp g."""
    acc = {}
    lookup = _INSERT_CACHE.get
    for nu, c in spectrum:
        for k, shapes in enumerate(_removals(nu, False)):
            j = m - k
            for rho in shapes:
                got = lookup((j, rho))
                if got is None:
                    got = _inserted(j, rho)
                if got:
                    sgn, shape = got
                    acc[shape] = acc.get(shape, 0) + sgn * c
    kept = [kv for kv in acc.items() if kv[1]]
    return tuple(map(_INTERN.setdefault, kept, kept))


def series_coeff(p, kind, lam):
    """The coefficient at lam of skew_by_series(p, kind, '+'), alone, for a
    canonical kind and partition lam: sum_mu <p, s_lam s_mu> over the kind
    partitions mu, that is sum_mu sum_tau p[tau] c^tau_{lam,mu}, so each mu
    with |mu| = |tau| - |lam| for a term tau of p reads the product spectrum
    of lam and mu against the terms of p, which need not be homogeneous."""
    size = sum(lam)
    terms = p.terms
    weights = {}
    for d in {sum(tau) for tau in terms}:
        for mu in kind_partitions_of(d - size, kind):
            for tau, k in _prod_spectrum(lam, mu).items():
                if tau in terms:
                    weights[tau] = weights.get(tau, 0) + k
    total = LaurentPoly.zero()
    for tau, k in weights.items():
        total = total + terms[tau] * k
    return total


def _one_row_sweep(p, scale, sign=1):
    """Skew p by sum_k sign**k h_k, with h_k weighted by t**k when scale is
    't'.  Each coefficient is one packed int (module docstring), and each
    strip of k cells adds it, shifted k slots when scaled."""
    terms = p.terms
    if not terms:
        return SymFunc()
    low = min(min(c.c) for c in terms.values())
    w = sum(abs(v) for c in terms.values() for v in c.c.values()) \
        .bit_length() + 1
    step = w if scale == "t" else 0
    acc = {}
    for lam, c in terms.items():
        n = pack(c, w, low)
        for k, shapes in enumerate(_removals(lam, False)):
            m = (-n if sign < 0 and k % 2 else n) << step * k
            for nu in shapes:
                acc[nu] = acc.get(nu, 0) + m
    out = SymFunc()
    for nu, n in acc.items():
        if n:
            out.terms[nu] = unpack(n, w, low)
    return out


# ---------------------------------------------------------------------------
# the four bases

def to_diamond(p, kind):
    """Expand a Schur-basis SymFunc in the basis of the given kind."""
    kind = canonical_kind(kind)
    if kind == "none":
        return Expansion(kind, p)
    return Expansion(kind, skew_by_series(p, kind, "+"))


def from_diamond(exp):
    """Schur-basis SymFunc of an Expansion."""
    if exp.kind == "none":
        return exp.func
    return skew_by_series(exp.func, exp.kind, "-")


def diamond_unit(lam, kind):
    """The single basis element of a kind, as a Schur-basis SymFunc."""
    return from_diamond(Expansion(kind, SymFunc.schur(lam)))


def change_basis(exp, to_kind):
    """Rewrite an Expansion in the basis of another kind."""
    to_kind = canonical_kind(to_kind)
    if to_kind == exp.kind:
        return Expansion(exp.kind, exp.func)
    return to_diamond(from_diamond(exp), to_kind)


def diamond_product(e1, e2):
    """Product of two Expansions of equal kind, in that basis.

    The three non-Schur bases share the Newell-Littlewood product
    (Koike-Terada, J. Algebra 107, 1987), sum over tau of
    (s_tau^perp f)(s_tau^perp g) on the coefficient functions, so it runs
    on the coefficients alone, with no series and no kind.
    """
    if e1.kind != e2.kind:
        raise ValueError("kind mismatch: %s vs %s" % (e1.kind, e2.kind))
    f, g = e1.func, e2.func
    if e1.kind == "none":
        return Expansion("none", multiply(f, g))
    out = SymFunc()
    for tau in partitions_upto(min(f.degree(), g.degree())):
        s_tau = SymFunc.schur(tau)
        out = out + multiply(skew_by(f, s_tau), skew_by(g, s_tau))
    return Expansion(e1.kind, out)


def omega_diamond(exp):
    """Transpose involution of the basis of a kind: index transpose termwise."""
    return Expansion(exp.kind, exp.func.transposed())


def newell_littlewood(lam, mu, nu):
    """Common structure constant of the three non-Schur bases.

    Computed as the cubic sum of Littlewood-Richardson coefficients over a
    shared inner shape; nonnegative by construction.
    """
    excess = sum(mu) + sum(nu) - sum(lam)
    if excess < 0 or excess % 2:
        return 0
    # tau inside mu and nu leaves both skews nonempty, and every rho, sigma
    # they reach has |rho| + |sigma| = |mu| + |nu| - 2|tau| = |lam|
    cap = intersect(mu, nu)
    total = 0
    for tau in partitions_of(excess // 2):
        if not contains(cap, tau):
            continue
        right = _skew_spectrum(nu, tau)
        for rho, a in _skew_spectrum(mu, tau):
            for sigma, b in right:
                total += a * b * _prod_spectrum(rho, sigma).get(lam, 0)
    return total


def dual_basis_truncated(lam, kind, degree):
    """Degree-truncated dual basis element of a kind, in the Schur basis.

    The dual family lives in the completion of the ring, so a truncation
    degree >= |lam| must be supplied by the caller.
    """
    if degree < sum(lam):
        raise ValueError("truncation degree below |lambda|")
    series = SymFunc(dict(series_terms(kind, "+", 1, degree - sum(lam))))
    return multiply(series, SymFunc.schur(lam))
