"""Littlewood series for the four tile kinds, the bases they cut out of the
Schur basis, basis changes, Newell-Littlewood coefficients, the transpose
involution on each basis, and truncated dual bases.

Each kind has a positive generating series (all partitions in its tileable
family, coefficient one) and a signed inverse series supported on special
Frobenius or self-conjugate shapes.  The series only ever act through the
skewing operator, so they are generated on demand per degree and memoized.
The signed shapes and signs are validated against brute-force polynomial
expansion in the verification suite.

The positive box series is the vdom seed plus one cell (Macdonald, I.5
Ex. 5): S_box = S_vdom * sum_k h_k, t-scaled termwise, so skewing by it is the
vdom skew followed by one one-row Pieri sweep.  The sparse signed series are
cheaper summed directly than factored, so only this one is factored.  Every
other series skew sums one integer spectrum per Schur term s_lam of the
operand: nu -> sum_mu sign_mu c^lam_{mu,nu} over the series terms mu
contained in lam, memoized per (lam, kind, sign), with the t-scale the shift
t^(|lam| - |nu|).  Basis changes over many small operands (to_diamond,
from_diamond) meet the same lam again and again and read that memo back;
a single table skews each lam once.  The Littlewood-Richardson fills behind
a spectrum are not memoized one by one.

The positive hdom series factors too: S_hdom = S_vdom * prod_i (1 - x_i^2)^-1
= S_box * sum_k (-1)^k h_k (the same exercise), so the hdom skew is the box
skew followed by one signed one-row sweep.  skew_by_series does not take that
route: a caller that wants hdom alone would pay the vdom skew and two sweeps
for one direct skew, which was slower on the diamond benchmark workload.
Only the multi-kind tables (kpoly.ktables) use it, when box is built as
well and its skew is already paid for.
"""

from __future__ import annotations

from .core import (LaurentPoly, as_partition, canonical_kind, conjugate,
                   diagonal_size, from_frobenius, kind_partitions_of,
                   partition_key, partitions_upto)
from .schur import (Expansion, SymFunc, _prod_spectrum, _skew_spectrum,
                    add_into, multiply, skew_by, skew_h, to_func)

_SERIES_CACHE = {}   # (kind, sign) -> list per degree of [(partition, +-1)]
_SPECTRUM_CACHE = {}  # (lam, kind, sign) -> tuple of (nu, int)


def _signed_shapes(kind, n):
    """Signed-series shapes of size n with their integer signs."""
    if kind == "none":
        return [((), 1)] if n == 0 else []
    if n == 0:
        return [((), 1)]
    out = []
    if kind == "box":
        # self-conjugate shapes
        for lam in kind_partitions_of(n, "box"):
            if lam == conjugate(lam):
                sign = -1 if ((n + diagonal_size(lam)) // 2) % 2 else 1
                out.append((lam, sign))
        return out
    if n % 2:
        return []
    half = n // 2
    # hook parameters: strictly decreasing alpha with sum(alpha) = n/2
    sign = -1 if half % 2 else 1

    def arms(total, maxv):
        if total == 0:
            yield ()
            return
        for head in range(min(total, maxv), 0, -1):
            for tail in arms(total - head, head - 1):
                yield (head,) + tail

    if kind == "vdom":
        # legs exceed arms by one: shape (a_1,..|a_1+1,..)
        for alpha in arms(half, half):
            a = tuple(x - 1 for x in alpha)
            out.append((from_frobenius(a, alpha), sign))
    else:  # hdom: arms exceed legs by one
        for alpha in arms(half, half):
            b = tuple(x - 1 for x in alpha)
            out.append((from_frobenius(alpha, b), sign))
    return out


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
    canonical kind.  Memoized per (lam, kind, sign); the fills of the
    terms mu contained in lam are not."""
    key = (lam, kind, sign)
    got = _SPECTRUM_CACHE.get(key)
    if got is not None:
        return got
    size = sum(lam)
    acc = {}
    for row in _series_rows(kind, sign, size)[:size + 1]:
        for mu, sgn in row:
            for nu, k in _skew_spectrum(lam, mu):
                acc[nu] = acc.get(nu, 0) + sgn * k
    got = _SPECTRUM_CACHE[key] = tuple(kv for kv in acc.items() if kv[1])
    return got


def series_coeff(p, kind, lam):
    """The coefficient at lam of skew_by_series(p, kind, '+'), alone.

    The skew by the positive series is sum_mu s_mu^perp over the kind
    partitions mu, each with coefficient one.  Its coefficient at lam is
    <sum_mu s_mu^perp p, s_lam> = sum_mu <p, s_lam s_mu>
                                = sum_mu sum_tau p[tau] c^tau_{lam,mu},
    so only the mu with |mu| = |tau| - |lam| for a term tau of p contribute,
    and each reads the Littlewood-Richardson product spectrum of lam and mu
    against the terms of p.  p need not be homogeneous.
    """
    return _series_coeff(p, canonical_kind(kind), as_partition(lam))


def _series_coeff(p, kind, lam):
    """series_coeff for a canonical kind and a canonical partition lam."""
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
    't'."""
    acc = {}
    for k in range(p.degree() + 1):
        skew_h(p, k, acc, k if scale == "t" else 0, sign ** k)
    return to_func(acc)


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
    tsize = excess // 2
    total = 0
    from .core import intersect, partitions_of, contains
    cap = intersect(mu, nu)
    for tau in partitions_of(tsize):
        if not contains(cap, tau):
            continue
        left = dict(_skew_spectrum(mu, tau))
        if not left:
            continue
        right = dict(_skew_spectrum(nu, tau))
        if not right:
            continue
        for rho, a in left.items():
            for sigma, b in right.items():
                if sum(rho) + sum(sigma) != sum(lam):
                    continue
                c = _prod_spectrum(rho, sigma).get(lam, 0)
                if c:
                    total += a * b * c
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
