"""Independent routes used only for cross-validation, in two groups.

The brute-force oracles import only core and share no algorithmic machinery
with the production paths: index vectors are straightened by sorting against
the staircase, Schur coefficients are recovered from monomial expansions by
triangular solves against tableau counts (chains of horizontal strips, each
found by filtering all partitions of its size), products are recomputed
through signed one-row chains, deformed single-row coefficients are regraded
by the charge statistic, and the generating series are re-expanded as
explicit polynomial products in finitely many variables.

The second routes reach the same results by another derivation, but each
shares a production primitive, which its own check anchors:

* direct_extraction_oracle extracts the coefficients of the deformed
  parabolic operators from the full multivariate generating function.  It
  uses schur.skew_h, skew_e and multiply_h, which lr.pieri_vs_lr_spectra
  and lr.monomial_oracle anchor.
* h_row_via_expansion expands one conjugated row into kind parabolics with
  squared deformation.  It uses operators.tilde_b_diamond_parabolic, which
  direct_extraction_oracle anchors, and schur.ssyt_contents, which
  lr.ssyt_contents_vs_kostka anchors.
* hh_r_via_rows applies kpoly.h_rows one rectangle at a time: the row chain
  that kpoly.hh_r telescopes.  Its series skews are series.skew_by_series,
  which bases.skew_by_series_vs_series_terms anchors.
* hb_connection expands every conjugated row into kind parabolics weighted
  by schur.lr_coefficient, which lr.monomial_oracle and lr.chain_oracle
  anchor, and compares the table with kpoly.hh_r.
* singlerow_equivalence compares two production routes on single-row
  sequences: kpoly.k_via_schur_recurrence against operators.d_polynomial at
  the squared deformation.
"""

from __future__ import annotations

import itertools

from .core import (LaurentPoly, as_partition, canonical_kind, conjugate,
                   contains, kind_partitions_of, partitions_of)
from .schur import (SymFunc, lr_coefficient, multiply_h, skew_e, skew_h,
                    ssyt_contents)
from .series import to_diamond
from .operators import d_polynomial, tilde_b_diamond_parabolic
from .kpoly import KTable, h_rows, hh_r, k_via_schur_recurrence

# ---------------------------------------------------------------------------
# truncated polynomial products in n variables

def geometric_product(monomials, degree):
    """Expansion of prod 1/(1-m) over monomials, truncated by total degree.

    monomials are integer exponent tuples; returns dict exponent -> int.
    """
    nvars = len(monomials[0]) if monomials else 0
    out = {(0,) * nvars: 1}
    for mono in monomials:
        step = sum(mono)
        if step <= 0:
            raise ValueError("geometric factors need positive degree")
        acc = dict(out)
        frontier = out
        k = 1
        while k * step <= degree:
            nxt = {}
            for exp, c in frontier.items():
                if sum(exp) + step > degree:
                    continue
                e2 = tuple(exp[i] + mono[i] for i in range(nvars))
                nxt[e2] = c
            for e2, c in nxt.items():
                acc[e2] = acc.get(e2, 0) + c
            frontier = nxt
            k += 1
        out = {e: c for e, c in acc.items() if sum(e) <= degree}
    return out


def alternating_product(monomials, degree, base=None):
    """Expansion of prod (1-m) over monomials, truncated by total degree."""
    nvars = len(monomials[0]) if monomials else 0
    out = base if base is not None else {(0,) * nvars: 1}
    for mono in monomials:
        acc = dict(out)
        for exp, c in out.items():
            e2 = tuple(exp[i] + mono[i] for i in range(nvars))
            if sum(e2) > degree:
                continue
            acc[e2] = acc.get(e2, 0) - c
            if not acc[e2]:
                del acc[e2]
        out = acc
    return out


# ---------------------------------------------------------------------------
# straightening

def _sign(w):
    """(-1) to the number of inversions of the sequence w."""
    n = len(w)
    inversions = sum(w[i] > w[j] for i in range(n) for j in range(i + 1, n))
    return -1 if inversions % 2 else 1


def straighten_by_sorting(nu):
    """Straightening of an integer index vector by sorting: nu plus the
    staircase, sorted, with the sign of its inversions.  Returns None when
    s_nu vanishes, otherwise (sign, lam)."""
    n = len(nu)
    v = [nu[i] + n - 1 - i for i in range(n)]
    if len(set(v)) != n or min(v, default=0) < 0:
        return None
    w = sorted(v, reverse=True)
    lam = tuple(p for p in (w[i] - (n - 1 - i) for i in range(n)) if p)
    # sorting v decreasingly is sorting -v increasingly
    return _sign([-x for x in v]), lam


# ---------------------------------------------------------------------------
# tableau counting and Schur-coefficient extraction

_CHAIN_CACHE = {}
_GROWN_CACHE = {}


def _grown_by_row(shape, s):
    """Shapes mu of size |shape| + s with mu/shape a horizontal strip: mu
    contains shape and gains at most one cell in each column."""
    key = (shape, s)
    got = _GROWN_CACHE.get(key)
    if got is None:
        cols = conjugate(shape)
        cols += (0,) * (sum(shape) + s - len(cols))
        got = _GROWN_CACHE[key] = [
            mu for mu in partitions_of(sum(shape) + s)
            if contains(mu, shape)
            and all(c - cols[j] <= 1 for j, c in enumerate(conjugate(mu)))]
    return got


def hstrip_chain_count(start, target, sizes):
    """Number of chains start -> target adding horizontal strips of the
    given sizes, by dynamic programming over intermediate shapes."""
    frontier = {start: 1}
    for s in sizes:
        if s < 0:
            return 0
        nxt = {}
        for shape, cnt in frontier.items():
            for grown in _grown_by_row(shape, s):
                if contains(target, grown):
                    nxt[grown] = nxt.get(grown, 0) + cnt
        frontier = nxt
        if not frontier:
            return 0
    return frontier.get(target, 0)


def kostka_number(lam, content):
    """Number of semistandard fillings of lam with the given content."""
    # a letter that does not occur adds an empty strip
    key = (lam, tuple(c for c in content if c))
    got = _CHAIN_CACHE.get(key)
    if got is None:
        got = hstrip_chain_count((), lam, key[1])
        _CHAIN_CACHE[key] = got
    return got


def _weak_compositions(n, parts):
    """Tuples of parts nonnegative integers with sum n."""
    if parts == 0:
        if n == 0:
            yield ()
        return
    for first in range(n, -1, -1):
        for rest in _weak_compositions(n - first, parts - 1):
            yield (first,) + rest


def schur_monomials(lam, nvars):
    """Monomial expansion of a Schur polynomial in nvars variables."""
    out = {}
    for exp in _weak_compositions(sum(lam), nvars):
        cnt = kostka_number(lam, exp)
        if cnt:
            out[exp] = cnt
    return out


def schur_expand_from_monomials(poly, nvars):
    """Recover Schur coefficients (for shapes with at most nvars rows) of a
    symmetric polynomial given as dict exponent -> int, by a triangular
    solve against tableau counts at partition exponents."""
    residual = {}
    for exp, c in poly.items():
        key = tuple(sorted(exp, reverse=True))
        if as_partition(key) == tuple(p for p in key if p):
            if all(a >= b for a, b in zip(key, key[1:])):
                lam = tuple(p for p in key if p)
                residual[(sum(lam), lam)] = c
    # only partition exponents are needed; iterate by dominance-compatible order
    coeffs = {}
    items = sorted({lam for (_, lam) in residual},
                   key=lambda l: (sum(l), [-p for p in l]))
    for lam in items:
        if len(lam) > nvars:
            continue
        val = residual.get((sum(lam), lam), 0)
        for mu, c in coeffs.items():
            if sum(mu) == sum(lam) and c:
                val -= c * kostka_number(mu, lam)
        if val:
            coeffs[lam] = val
    return coeffs


def lr_product_oracle(mu, nu, nvars):
    """Schur expansion of a product of two Schur polynomials in nvars
    variables, from monomial dictionaries only."""
    am = schur_monomials(mu, nvars)
    an = schur_monomials(nu, nvars)
    total = sum(mu) + sum(nu)
    point = {}
    targets = [lam for lam in partitions_of(total, max_len=nvars)]
    tset = {tuple(lam) + (0,) * (nvars - len(lam)) for lam in targets}
    for exp, c in am.items():
        for lam in targets:
            pad = tuple(lam) + (0,) * (nvars - len(lam))
            rest = tuple(pad[i] - exp[i] for i in range(nvars))
            if min(rest) < 0:
                continue
            d = an.get(rest)
            if d:
                key = (sum(lam), lam)
                point[key] = point.get(key, 0) + c * d
    poly = {tuple(lam) + (0,) * (nvars - len(lam)): v
            for (_, lam), v in point.items()}
    return schur_expand_from_monomials(poly, nvars)


def lr_coefficient_via_chains(lam, mu, nu):
    """One coefficient through signed one-row chain counts."""
    if sum(lam) != sum(mu) + sum(nu):
        return 0
    n = len(nu)
    if n == 0:
        return 1 if lam == mu else 0
    total = 0
    for w in itertools.permutations(range(n)):
        sizes = tuple(nu[i] - i + w[i] for i in range(n))
        if any(s < 0 for s in sizes):
            continue
        total += _sign(w) * hstrip_chain_count(mu, lam, sizes)
    return total


# ---------------------------------------------------------------------------
# charge statistic

def charge_word(word):
    """Charge of a word whose content is a partition."""
    remaining = list(enumerate(word))
    total = 0
    while remaining:
        # extract one standard subword: rightmost 1, then walk left cyclically
        positions = []
        idx = None
        for k in range(len(remaining) - 1, -1, -1):
            if remaining[k][1] == 1:
                idx = k
                break
        if idx is None:
            raise ValueError("content is not a partition")
        positions.append(idx)
        letter = 2
        cur = idx
        while True:
            found = None
            k = cur - 1
            steps = 0
            while steps < len(remaining):
                if k < 0:
                    k = len(remaining) - 1
                if remaining[k][1] == letter:
                    found = k
                    break
                k -= 1
                steps += 1
            if found is None:
                break
            positions.append(found)
            cur = found
            letter += 1
        chosen = sorted(positions)
        sub = [remaining[k] for k in chosen]
        sub_sorted = sorted(sub, key=lambda pv: pv[1])
        chg = 0
        val = 0
        for i in range(1, len(sub_sorted)):
            if sub_sorted[i][0] > sub_sorted[i - 1][0]:
                val += 1
            chg += val
        total += chg
        for k in sorted(positions, reverse=True):
            del remaining[k]
    return total


def _ssyt_fillings(lam, content):
    """All semistandard fillings of lam with the given content, as rows."""
    n = len(lam)
    counts = list(content)
    rows = [[0] * lam[r] for r in range(n)]
    out = []

    def fill(pos):
        if pos == sum(lam):
            out.append([tuple(r) for r in rows])
            return
        # row-major order
        r, acc = 0, 0
        while pos >= acc + lam[r]:
            acc += lam[r]
            r += 1
        c = pos - acc
        left = rows[r][c - 1] if c > 0 else 1
        above = rows[r - 1][c] + 1 if r > 0 else 1
        lo = max(left, above, 1)
        for v in range(lo, len(counts) + 1):
            if counts[v - 1] <= 0:
                continue
            counts[v - 1] -= 1
            rows[r][c] = v
            fill(pos + 1)
            counts[v - 1] += 1
        rows[r][c] = 0

    fill(0)
    return out


def kostka_foulkes_charge(lam, mu):
    """Charge-graded tableau count: the deformed one-row coefficient oracle."""
    lam = as_partition(lam)
    mu = as_partition(mu)
    if sum(lam) != sum(mu):
        return LaurentPoly.zero()
    out = LaurentPoly.zero()
    for rows in _ssyt_fillings(lam, mu):
        word = []
        for r in range(len(rows) - 1, -1, -1):
            word.extend(rows[r])
        out = out + LaurentPoly.t(charge_word(word))
    return out


# ---------------------------------------------------------------------------
# generating-series and kernel re-expansions

def brute_series_monomials(kind, sign, nvars, degree):
    """The generating series of a kind as an explicit truncated polynomial
    product in nvars variables; returns dict exponent -> int."""
    kind = canonical_kind(kind)
    e = [tuple(1 if k == i else 0 for k in range(nvars)) for i in range(nvars)]

    def pairmono(i, j):
        return tuple(e[i][k] + e[j][k] for k in range(nvars))

    monos = []
    if kind == "none":
        monos = []
    elif kind == "vdom":
        monos = [pairmono(i, j) for i in range(nvars)
                 for j in range(i + 1, nvars)]
    elif kind == "hdom":
        monos = [pairmono(i, j) for i in range(nvars)
                 for j in range(i, nvars)]
    else:
        monos = [pairmono(i, j) for i in range(nvars)
                 for j in range(i + 1, nvars)] + e
    if sign == "+":
        if not monos:
            return {(0,) * nvars: 1}
        return geometric_product(monos, degree)
    out = {(0,) * nvars: 1}
    for m in monos:
        out = alternating_product([m], degree, out)
    return out


def brute_series_schur(kind, sign, degree, nvars=None):
    """Schur coefficients of a generating series via polynomial expansion."""
    if nvars is None:
        nvars = degree
    poly = brute_series_monomials(kind, sign, nvars, degree)
    return schur_expand_from_monomials(poly, nvars)


def kernel_triple_expansion(degree):
    """Truncated expansion of the three-alphabet pairing kernel with two
    generic letters per alphabet; returns dict 6-exponent -> int."""
    # variables: x1 x2 y1 y2 z1 z2
    def unit(i):
        return tuple(1 if k == i else 0 for k in range(6))

    xs, ys, zs = [unit(0), unit(1)], [unit(2), unit(3)], [unit(4), unit(5)]
    monos = []
    for a in xs:
        for b in ys:
            monos.append(tuple(a[k] + b[k] for k in range(6)))
    for a in xs:
        for b in zs:
            monos.append(tuple(a[k] + b[k] for k in range(6)))
    for a in ys:
        for b in zs:
            monos.append(tuple(a[k] + b[k] for k in range(6)))
    return geometric_product(monos, degree)


# ---------------------------------------------------------------------------
# second routes: the multivariate extraction of the deformed parabolics

def direct_extraction_oracle(nu, p, kind="none", texp=1):
    """Coefficient extraction from the full multivariate generating function.

    Expands the staircase determinant and, for the vertical-domino kind, the
    signed pair product, then sums over all per-variable skew index tuples.
    Box and hdom multiply the vertical-domino function by the product of
    1 - z_i^step over the variables, step 1 for box and 2 for hdom.
    Exponential in the number of variables; guarded for cross-checks only.
    """
    nu = tuple(int(x) for x in nu)
    kind = canonical_kind(kind)
    n = len(nu)
    if kind == "none":
        if n > 5:
            raise ValueError("oracle limited to 5 variables")
        return _extraction(nu, p, texp, False)
    if n > 4:
        raise ValueError("diamond oracle limited to 4 variables")
    if kind == "vdom":
        return _extraction(nu, p, texp, True)
    step = 1 if kind == "box" else 2
    out = SymFunc()
    for shift in itertools.product((0, 1), repeat=n):
        sub = tuple(nu[i] - step * shift[i] for i in range(n))
        out = out + _extraction(sub, p, texp, True).scaled((-1) ** sum(shift))
    return out


def _tuples_upto(length, total_max):
    """Tuples of length nonnegative integers with sum at most total_max."""
    return itertools.chain.from_iterable(
        _weak_compositions(s, length) for s in range(total_max + 1))


def _extraction(nu, p, texp, mirrored):
    """The type-A extraction, or the vertical-domino one when mirrored.

    Variable i skews by t-weighted one-row functions (a) and by one-column
    functions (b) at z_i^-1; mirrored, it skews by both at z_i too (e, f),
    and the signed pair product over i < j lowers both indices.
    """
    n = len(nu)
    pairs = ([(i, j) for i in range(n) for j in range(i + 1, n)]
             if mirrored else [])
    out = SymFunc()
    for w in itertools.permutations(range(1, n + 1)):
        wsign = _sign(w)
        for chosen in itertools.chain.from_iterable(
                itertools.combinations(pairs, k)
                for k in range(len(pairs) + 1)):
            pair_shift = [0] * n
            for i, j in chosen:
                pair_shift[i] += 1
                pair_shift[j] += 1
            sign = wsign * (-1) ** len(chosen)
            for quad in _tuples_upto((4 if mirrored else 2) * n, p.degree()):
                quad += (0,) * (4 * n - len(quad))
                a, b = quad[0:n], quad[n:2 * n]
                e, f = quad[2 * n:3 * n], quad[3 * n:]
                ms = [nu[i] + w[i] - (i + 1) - pair_shift[i]
                      - (e[i] + f[i]) + (a[i] + b[i]) for i in range(n)]
                if any(m < 0 for m in ms):
                    continue
                # skews commute: the one-row ones first, then the columns
                g = p
                for skew, sizes in ((skew_h, a + e), (skew_e, b + f)):
                    for k in sizes:
                        if k and g:
                            g = skew(g, k)
                if not g:
                    continue
                for m in ms:
                    g = multiply_h(g, m)
                weight = LaurentPoly.t((sum(a) + sum(e)) * texp,
                                       sign * (-1) ** (sum(b) + sum(f)))
                out = out + g.scaled(weight)
    return out


# ---------------------------------------------------------------------------
# second routes: the deformed rows and tables of kpoly

def h_row_via_expansion(kind, nu, p):
    """Verification route for one deformed row: positive-series expansion
    into kind parabolics with squared deformation."""
    kind = canonical_kind(kind)
    nu = tuple(int(x) for x in nu)
    if kind == "none":
        return tilde_b_diamond_parabolic("none", nu, p, 2)
    n = len(nu)
    size_bound = 2 * (max(p.degree(), 0) + sum(x for x in nu if x > 0)) + 4
    out = SymFunc()
    for m in range(size_bound + 1):
        for lam in kind_partitions_of(m, kind, max_len=n):
            for alpha, cnt in ssyt_contents(lam, n).items():
                alpha = tuple(alpha) + (0,) * (n - len(alpha))
                sub = tuple(nu[i] - alpha[i] for i in range(n))
                g = tilde_b_diamond_parabolic(kind, sub, p, 2)
                if g:
                    out = out + g.scaled(LaurentPoly.t(m, cnt))
    return out


def hh_r_via_rows(kind, rects):
    """Table of a kind over a sequence of partitions, row operator by row
    operator: the verification route for kpoly.hh_r."""
    kind = canonical_kind(kind)
    rects = tuple(as_partition(r) for r in rects)
    f = SymFunc.one()
    for r in reversed(rects):
        f = h_rows(kind, (r,), f)
    rows = dict(to_diamond(f, kind).func.terms)
    return KTable(kind, rects, rows, "operator")


def hb_factor_terms(kind, rect, operand_degree):
    """Decomposition of one conjugated row operator of a kind into deformed
    kind parabolics: maps index vectors to coefficient polynomials.

    Index vectors are weakly decreasing, bounded above by the factor width
    and below by the annihilation radius on the given operand degree.
    """
    kind = canonical_kind(kind)
    rect = as_partition(rect)
    b = len(rect)
    if b == 0:
        return {(): LaurentPoly.const(1)}
    width = rect[0]
    size = sum(rect)
    lower = -(2 * max(operand_degree, 0) + 2)
    terms = {}

    def vectors(i, prev, acc):
        if i == b:
            yield tuple(acc)
            return
        for v in range(prev, lower - 1, -1):
            yield from vectors(i + 1, v, acc + [v])

    for gamma in vectors(0, width, []):
        a = gamma[-1]
        if a > rect[-1]:
            continue
        gsize = sum(gamma)
        need = size - gsize
        if need < 0:
            continue
        shifted_r = as_partition(tuple(x - a for x in rect))
        shifted_g = as_partition(tuple(x - a for x in gamma))
        coeff = LaurentPoly.zero()
        for nu in kind_partitions_of(need, kind, max_len=b):
            k = lr_coefficient(shifted_r, nu, shifted_g)
            if k:
                coeff = coeff + LaurentPoly.t(need, k)
        if coeff:
            terms[gamma] = coeff
    return terms


# longest factor the connection enumerates: the index vectors of
# hb_factor_terms multiply quickly with it
_HB_MAX_FACTOR_LEN = 5


def hb_connection(kind, rects):
    """Cross-check of the two routes to a kind table.

    Builds the table by expanding every conjugated row into deformed kind
    parabolics with squared deformation, then compares against the row
    operator route.  Returns (equal, report, table), where the report
    carries the per-factor decompositions.
    """
    kind = canonical_kind(kind)
    rects = tuple(as_partition(r) for r in rects)
    if any(len(r) > _HB_MAX_FACTOR_LEN for r in rects):
        raise ValueError("factor too long for the connection enumeration")
    f = SymFunc.one()
    factor_terms = []
    for r in reversed(rects):
        terms = hb_factor_terms(kind, r, max(f.degree(), 0))
        factor_terms.append((r, terms))
        acc = SymFunc()
        for gamma, coeff in terms.items():
            g = tilde_b_diamond_parabolic(kind, gamma, f, 2)
            if g:
                acc = acc + g.scaled(coeff)
        f = acc
    lhs = hh_r(kind, rects)
    rhs_rows = dict(to_diamond(f, kind).func.terms)
    rhs = KTable(kind, rects, rhs_rows, "hb-connection")
    report = {
        "kind": kind,
        "R": [list(r) for r in rects],
        "factor_terms": [(list(r), {g: str(c) for g, c in sorted(t.items())})
                         for r, t in reversed(factor_terms)],
        "match": lhs.same_rows(rhs),
    }
    return lhs.same_rows(rhs), report, rhs


def singlerow_equivalence(lam, mu):
    """For single-row factor sequences the vertical-domino table equals the
    deformed-product coefficients at the squared deformation."""
    lam = as_partition(lam)
    mu = as_partition(mu)
    rows = tuple((m,) for m in mu)
    lhs = k_via_schur_recurrence("vdom", lam, rows)
    rhs = d_polynomial("vdom", lam, rows).subs_power(2)
    return lhs == rhs, lhs, rhs
