"""Schur-basis arithmetic: Littlewood-Richardson products, skewing operators,
straightening of integer indices, and semistandard-tableau evaluation.

A SymFunc is a finite sparse map partition -> LaurentPoly and is read as a
linear combination of Schur functions (or of the basis named by an Expansion
tag).  Products and skews reduce to Littlewood-Richardson numbers, and one
ballot fill of a skew diagram counts them all (_skew_spectrum).  A
product s_mu s_nu is the skew Schur function of the disconnected diagram
with one factor set above and to the right of the other (Macdonald, I.5),
so its spectrum is a skew spectrum too.  Fills serve products, skew_by,
the Newell-Littlewood sums and the series spectra of every kind and sign
but vdom "+", which series builds by Bernstein insertion and removal
strips instead.  The fill keeps no memo: skews are mostly one-shot, and
the series skews memoize per operand term instead
(series._SPECTRUM_CACHE).  Product spectra are memoized in a module cache
that acts as a pure memo (results never depend on hits).

Bernstein's operator B_m s_lam = s_(m, lam) (Macdonald, I.5 Ex. 29) moves m
past the rows of lam in one pass (bernstein_insert), and straightening an
integer index vector is the right fold of it.

The shapes lam loses by a horizontal or vertical strip come from one
removal pass, every strip size at once, kept as one tuple by size
(_removals, _REMOVAL_CACHE): the row kernel, the one-row sweeps and the vdom
series spectra walk it once per Schur term for the skews of every degree,
and tableau contents read it too, since the cells of a filling's last
letter form a horizontal strip (ssyt_contents).

The removal memo, the insertion memo and series._SPECTRUM_CACHE hold few
distinct shapes many times over, so each shape they store, and each
(nu, k) entry of a series spectrum, is the one object for its value in
_INTERN (_interned).  The insertion memo (_inserted, _INSERT_CACHE) is the
one that the row kernel, the vdom series spectra and straighten all read.
An interned tuple equals the one it replaces, so no result depends on it.

Products, skews and evaluations share one accumulator: a dict
key -> raw {exponent: int} dict, into which add_into adds mult * t^shift * c
in place, and which to_func turns into a SymFunc once, dropping the terms
that cancelled.
"""

from __future__ import annotations

from itertools import product

from .core import (LaurentPoly, P_ONE, as_partition, canonical_kind,
                   coeff_at, conjugate, contains, partition_key)

# ---------------------------------------------------------------------------
# caches (read-mostly; insertion is plain dict assignment, entries are frozen)

_PROD_CACHE = {}    # (mu, nu) -> dict lam -> int
_REMOVAL_CACHE = {}  # (lam, column) -> tuple by size of removed shapes
_CONTENT_CACHE = {}  # (lam, nvars) -> dict content-composition -> count
_INSERT_CACHE = {}   # (m, lam) -> bernstein_insert(m, lam), () if it vanishes
_INTERN = {}         # tuple -> the one stored object equal to it


def _interned(key):
    """The one stored tuple equal to key (key itself the first time)."""
    return _INTERN.setdefault(key, key)


# ---------------------------------------------------------------------------
# removal strips

def _removals(lam, column):
    """The shapes lam loses by a horizontal strip (a vertical one when
    column is set), as a tuple by strip size from 0 to lam_1 (l(lam) for a
    column), each size sorted by partition_key.

    Kept rows lie in lam_r >= nu_r >= lam_{r+1}, so one product pass over
    those intervals yields every size at once.  The last row runs
    innermost, and it is the only kept row that can be empty, so each
    shape is the prefix of the rows above, extended by the last row when
    that is not empty.  Each interval runs downwards, so the pass yields
    each size in decreasing lexicographic order, which is partition_key
    order: only column removals are sorted, after the conjugation.
    """
    key = (lam, column)
    got = _REMOVAL_CACHE.get(key)
    if got is not None:
        return got
    base = conjugate(lam) if column else lam
    full, last = sum(base), (base[-1] if base else 0)
    by_size = [[] for _ in range((base[0] if base else 0) + 1)]
    for v in product(*(range(a, b - 1, -1)
                       for a, b in zip(base, base[1:]))):
        rest = full - sum(v)
        for x in range(last, 0, -1):
            by_size[rest - x].append(v + (x,))
        by_size[rest].append(v)
    if column:
        by_size = [sorted(map(conjugate, shapes), key=partition_key)
                   for shapes in by_size]
    got = _REMOVAL_CACHE[key] = tuple(
        tuple(map(_INTERN.setdefault, shapes, shapes)) for shapes in by_size)
    return got


# ---------------------------------------------------------------------------
# Littlewood-Richardson enumeration

def _prod_spectrum(mu, nu):
    """dict lam -> c^lam_{mu,nu}: the skew spectrum of the larger factor set
    above and to the right of the smaller (Macdonald, I.5).  The top's ballot
    fill is forced, so only the cells of the smaller factor branch."""
    if sum(nu) > sum(mu):
        mu, nu = nu, mu
    key = (mu, nu)
    got = _PROD_CACHE.get(key)
    if got is not None:
        return got
    w = nu[0] if nu else 0
    outer = tuple(p + w for p in mu) + nu
    inner = (w,) * len(mu) if w else ()
    got = _PROD_CACHE[key] = dict(_skew_spectrum(outer, inner))
    return got


def _skew_spectrum(lam, mu):
    """tuple of (nu, c^lam_{mu,nu}) over all nu, in fill order, by one
    ballot fill of lam/mu (empty unless mu is contained in lam); not
    memoized."""
    if not contains(lam, mu):
        return ()
    if lam == mu or not mu:
        # nothing to fill: lam/lam is s_() and lam/() is s_lam
        return (((() if mu else lam), 1),)
    # cells row by row, right to left, with the indices in vals of the right
    # and upper neighbours' letters (or of r + 1 at row ends and 0 on top)
    mup = list(mu) + [0] * (len(lam) - len(mu))
    n = sum(lam) - sum(mup)
    vals = [0] * n + list(range(1, len(lam) + 1)) + [0]
    right, above = [], []
    for r, (a, b) in enumerate(zip(lam, mup)):
        for c in range(a - 1, b - 1, -1):
            i = len(right)
            right.append(i - 1 if c < a - 1 else n + r)
            above.append(i - a + mup[r - 1] if r and c >= mup[r - 1] else -1)
    # backtrack on an explicit stack: a fill is as deep as lam/mu has cells
    counts = [n + 1] + [0] * (len(lam) + 1)  # counts[0] passes letter 1
    out = {}
    i = 0
    while i >= 0:
        v = vals[i]
        if v:
            counts[v] -= 1
            v += 1
        else:
            v = vals[above[i]] + 1
        hi = vals[right[i]]
        while v <= hi and counts[v - 1] <= counts[v]:
            v += 1
        if v > hi:
            vals[i] = 0
            i -= 1
            continue
        vals[i] = v
        counts[v] += 1
        if i + 1 < n:
            i += 1
        else:
            nu = tuple(counts[1:counts.index(0, 1)])
            out[nu] = out.get(nu, 0) + 1
    return tuple(out.items())


def lr_coefficient(lam, mu, nu):
    """The Littlewood-Richardson coefficient c^lam_{mu,nu}."""
    if (sum(lam) != sum(mu) + sum(nu)
            or not contains(lam, mu) or not contains(lam, nu)):
        return 0
    return _prod_spectrum(mu, nu).get(lam, 0)


# ---------------------------------------------------------------------------
# symmetric functions in the Schur basis

class SymFunc:
    """Finite sparse map partition -> LaurentPoly."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms = {}
        if terms:
            for lam, c in terms.items():
                if isinstance(c, int):
                    c = LaurentPoly.const(c)
                if c:
                    self.terms[lam] = c

    @classmethod
    def zero(cls):
        return cls()

    @classmethod
    def one(cls):
        return cls({(): P_ONE})

    @classmethod
    def schur(cls, lam, coeff=P_ONE):
        return cls({as_partition(lam): coeff})

    def is_zero(self):
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if isinstance(other, int):
            return self.terms == ({(): LaurentPoly.const(other)} if other else {})
        return isinstance(other, SymFunc) and self.terms == other.terms

    def __hash__(self):
        return hash(self.freeze())

    def freeze(self):
        """Canonical hashable form, usable as a cache key."""
        return tuple((lam, tuple(sorted(self.terms[lam].c.items())))
                     for lam in sorted(self.terms, key=partition_key))

    def coeff(self, lam):
        return coeff_at(self.terms, lam)

    def degree(self):
        """Max partition size with a nonzero term; -1 when zero."""
        return max((sum(l) for l in self.terms), default=-1)

    def support(self):
        return sorted(self.terms, key=partition_key)

    def __add__(self, other):
        out = dict(self.terms)
        for lam, c in other.terms.items():
            s = out.get(lam)
            s = c if s is None else s + c
            if s:
                out[lam] = s
            else:
                out.pop(lam, None)
        r = SymFunc.__new__(SymFunc)
        r.terms = out
        return r

    def __neg__(self):
        r = SymFunc.__new__(SymFunc)
        r.terms = {lam: -c for lam, c in self.terms.items()}
        return r

    def __sub__(self, other):
        return self + (-other)

    def scaled(self, poly):
        """Multiply every coefficient by a LaurentPoly or int."""
        if isinstance(poly, int):
            poly = LaurentPoly.const(poly)
        if not poly:
            return SymFunc()
        r = SymFunc.__new__(SymFunc)
        r.terms = {lam: c * poly for lam, c in self.terms.items()}
        return r

    def subs_power(self, k):
        """Apply t -> t**k to every coefficient."""
        r = SymFunc.__new__(SymFunc)
        r.terms = {lam: c.subs_power(k) for lam, c in self.terms.items()}
        return r

    def eval_t(self, v):
        """Evaluate t at an integer; returns dict partition -> int."""
        out = {}
        for lam, c in self.terms.items():
            n = c.eval_int(v)
            if n:
                out[lam] = n
        return out

    def transposed(self):
        """Index transpose on every term (the classical degree involution)."""
        r = SymFunc.__new__(SymFunc)
        r.terms = {conjugate(lam): c for lam, c in self.terms.items()}
        return r

    def __mul__(self, other):
        return multiply(self, other)

    def __str__(self):
        if not self.terms:
            return "0"
        bits = []
        for lam in self.support():
            c = self.terms[lam]
            name = "s%r" % (list(lam),)
            if c == P_ONE:
                bits.append(name)
            else:
                bits.append("(%s)*%s" % (c, name))
        return " + ".join(bits)

    __repr__ = __str__


class Expansion:
    """A SymFunc whose terms are read as coefficients of the basis of a kind."""

    __slots__ = ("kind", "func")

    def __init__(self, kind, func):
        self.kind = canonical_kind(kind)
        self.func = func

    def __eq__(self, other):
        return (isinstance(other, Expansion) and self.kind == other.kind
                and self.func == other.func)

    def coeff(self, lam):
        return self.func.coeff(lam)

    def is_zero(self):
        return self.func.is_zero()

    def __repr__(self):
        return "Expansion(%s, %s)" % (self.kind, self.func)


# ---------------------------------------------------------------------------
# products and skews, summed in one accumulator

def add_into(acc, lam, c, shift=0, mult=1):
    """Add mult * t^shift * c at lam into acc, a dict key -> raw
    {exponent: int} dict; c is a LaurentPoly and mult an int."""
    d = acc.get(lam)
    if d is None:
        acc[lam] = ({e + shift: v * mult for e, v in c.c.items()}
                    if shift or mult != 1 else dict(c.c))
    elif shift or mult != 1:
        for e, v in c.c.items():
            e += shift
            d[e] = d.get(e, 0) + v * mult
    else:
        for e, v in c.c.items():
            d[e] = d.get(e, 0) + v


def to_func(acc):
    """The SymFunc of an accumulator, without its zero terms."""
    out = SymFunc()
    terms = out.terms
    for lam, d in acc.items():
        if 0 in d.values():
            d = {e: v for e, v in d.items() if v}
            if not d:
                continue
        c = terms[lam] = LaurentPoly.__new__(LaurentPoly)
        c.c = d
    return out


def multiply(p, q):
    """Product in the Schur basis via Littlewood-Richardson coefficients."""
    acc = {}
    for mu, c1 in p.terms.items():
        for nu, c2 in q.terms.items():
            c = c1 * c2
            for lam, k in _prod_spectrum(mu, nu).items():
                add_into(acc, lam, c, 0, k)
    return to_func(acc)


def skew_by(p, q):
    """Apply the adjoint of multiplication by q to p."""
    acc = {}
    sized = [(lam, sum(lam), c) for lam, c in p.terms.items()]
    for mu, c2 in q.terms.items():
        w = sum(mu)
        # each term v * t^e of q's coefficient is a shift and a multiplier
        monos = tuple(c2.c.items())
        for lam, size, c1 in sized:
            if size < w:
                continue
            spec = _skew_spectrum(lam, mu)
            for e, v in monos:
                for nu, k in spec:
                    add_into(acc, nu, c1, e, v * k)
    return to_func(acc)


def inner_product(p, q):
    """Orthonormal-Schur pairing of two SymFuncs."""
    total = LaurentPoly.zero()
    small, big = (p, q) if len(p.terms) <= len(q.terms) else (q, p)
    for lam, c in small.terms.items():
        d = big.terms.get(lam)
        if d is not None:
            total = total + c * d
    return total


# ---------------------------------------------------------------------------
# straightening

def bernstein_insert(m, lam):
    """Bernstein's operator B_m on s_lam: B_m s_lam = s_(m, lam) (Macdonald,
    I.5 Ex. 29), straightened.

    With k the number of rows i of lam with lam_i - i > m, s_(m, lam) is
    zero when some lam_i - i equals m or when m + k < 0, and otherwise
    (-1)^k s_(lam_1 - 1, ..., lam_k - 1, m + k, lam_(k+1), ...), with the
    zero parts of the case m + k = 0 dropped.  Returns None when it
    vanishes, otherwise (sign, partition).
    """
    k = 0
    for part in lam:
        d = part - k - 1
        if d < m:
            break
        if d == m:
            return None
        k += 1
    if m + k < 0:
        return None
    head = tuple(part - 1 for part in lam[:k])
    if m + k:
        shape = head + (m + k,) + lam[k:]
    else:
        # k is the length of lam, and its rows of one cell become empty
        shape = tuple(filter(None, head))
    return -1 if k % 2 else 1, shape


def _inserted(m, lam):
    """bernstein_insert(m, lam) with an interned shape, or () when it
    vanishes; memoized per (m, lam)."""
    key = (m, lam)
    got = _INSERT_CACHE.get(key)
    if got is None:
        got = bernstein_insert(m, lam)
        got = _INSERT_CACHE[key] = (got[0], _interned(got[1])) if got else ()
    return got


def straighten(nu):
    """Normalize an integer index vector for the Schur family: the right
    fold of bernstein_insert, s_nu = B_(nu_1) ... B_(nu_n) 1.

    Returns None when the indexed function vanishes, otherwise (sign, lam)
    with sign in {1, -1} and lam a partition.
    """
    sign, lam = 1, ()
    for m in reversed(nu):
        got = _inserted(m, lam)
        if not got:
            return None
        s, lam = got
        sign *= s
    return sign, lam


def schur_of_vector(nu):
    """SymFunc of an arbitrary integer index vector, straightened."""
    st = straighten(tuple(nu))
    if st is None:
        return SymFunc()
    sign, lam = st
    return SymFunc.schur(lam, LaurentPoly.const(sign))


# ---------------------------------------------------------------------------
# evaluation on finite alphabets of monomials

def ssyt_contents(lam, nvars):
    """dict content-composition -> number of semistandard fillings of lam in
    nvars letters.

    The cells of the last letter form a horizontal strip lam/nu, so the
    contents of lam are those of each nu that one removal pass reaches in
    one letter fewer, with the strip size appended."""
    key = (lam, nvars)
    got = _CONTENT_CACHE.get(key)
    if got is not None:
        return got
    out = {}
    if not nvars:
        if not lam:
            out[()] = 1
    elif len(lam) <= nvars:
        for m, shapes in enumerate(_removals(lam, False)):
            for nu in shapes:
                for content, cnt in ssyt_contents(nu, nvars - 1).items():
                    content += (m,)
                    out[content] = out.get(content, 0) + cnt
    _CONTENT_CACHE[key] = out
    return out


def evaluate(p, alphabet, nvars):
    """Evaluate a SymFunc on a finite alphabet of Laurent monomials.

    alphabet is a sequence of integer exponent vectors of length nvars; each
    Schur term is expanded over semistandard fillings.  Returns a dict from
    exponent vector to LaurentPoly.
    """
    alphabet = [tuple(a) for a in alphabet]
    acc = {}
    m = len(alphabet)
    for lam, c in p.terms.items():
        for content, cnt in ssyt_contents(lam, m).items():
            exp = [0] * nvars
            for i, mult in enumerate(content):
                if mult:
                    mono = alphabet[i]
                    for k in range(nvars):
                        exp[k] += mult * mono[k]
            add_into(acc, tuple(exp), c, 0, cnt)
    return to_func(acc).terms
