"""Independent brute-force oracles used only for cross-validation.

Nothing here shares algorithmic machinery with the production paths: Schur
coefficients are recovered from monomial expansions by triangular solves
against tableau counts (chains of horizontal strips, each found by
filtering all partitions of its size), products are recomputed through signed
one-row chains, deformed single-row coefficients are regraded by the charge
statistic, and the generating series are re-expanded as explicit polynomial
products in finitely many variables.
"""

from __future__ import annotations

import itertools

from .core import (LaurentPoly, as_partition, canonical_kind, conjugate,
                   contains, partitions_of)

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
        inv = sum(1 for i in range(n) for j in range(i + 1, n)
                  if w[i] > w[j])
        sign = -1 if inv % 2 else 1
        total += sign * hstrip_chain_count(mu, lam, sizes)
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
