"""Exact scaffolding: partitions, integer Laurent polynomials in t, basis kinds,
and sequences of partitions that index tables, with the usage errors and the
size caps of command-line input.

Partitions are plain tuples of weakly decreasing positive integers (the empty
tuple is the empty partition); trailing zeros are never stored, so equal
partitions have identical representations.  Integer index vectors are plain
tuples that may contain zeros and negative entries.  All arithmetic is exact;
there is no floating point anywhere in the package.
"""

from __future__ import annotations


# ---------------------------------------------------------------------------
# basis kinds

KINDS = ("none", "box", "vdom", "hdom")

_KIND_ALIASES = {
    "none": "none", "empty": "none", "schur": "none",
    "box": "box", "cell": "box",
    "vdom": "vdom", "vd": "vdom",
    "hdom": "hdom", "hd": "hdom",
}

KIND_TRANSPOSE = {"none": "none", "box": "box", "vdom": "hdom", "hdom": "vdom"}


def canonical_kind(k):
    """Normalize a kind tag, accepting the short aliases vd/hd/cell."""
    try:
        return _KIND_ALIASES[k.lower()]
    except (KeyError, AttributeError):
        raise ValueError("unknown kind tag: %r" % (k,))


# ---------------------------------------------------------------------------
# partitions

def as_partition(seq):
    """Validate and canonicalize a partition given as any integer iterable."""
    parts = tuple(int(x) for x in seq)
    for a, b in zip(parts, parts[1:]):
        if a < b:
            raise ValueError("not weakly decreasing: %r" % (parts,))
    if parts and parts[-1] < 0:
        raise ValueError("negative part in %r" % (parts,))
    while parts and parts[-1] == 0:
        parts = parts[:-1]
    return parts


def conjugate(lam):
    """Transpose of a partition (column lengths)."""
    if not lam:
        return ()
    out = []
    for c in range(lam[0]):
        out.append(sum(1 for p in lam if p > c))
    return tuple(out)


def diagonal_size(lam):
    """Number of diagonal cells (i, i) in the diagram."""
    return sum(1 for i, p in enumerate(lam) if p > i)


def frobenius(lam):
    """Frobenius coordinates (arms, legs) of a partition.

    arms[i] = lam[i] - i - 1 counts cells strictly right of the diagonal in
    row i; legs[i] does the same below the diagonal in column i.  Both lists
    are strictly decreasing and nonnegative.
    """
    lamt = conjugate(lam)
    d = diagonal_size(lam)
    arms = tuple(lam[i] - i - 1 for i in range(d))
    legs = tuple(lamt[i] - i - 1 for i in range(d))
    return arms, legs


def from_frobenius(arms, legs):
    """Rebuild the partition with the given Frobenius coordinates."""
    if len(arms) != len(legs):
        raise ValueError("arm/leg length mismatch")
    d = len(arms)
    rows = []
    for i in range(d):
        rows.append(arms[i] + i + 1)
    # column lengths below the diagonal determine the remaining rows
    total_len = (legs[0] + 1) if d else 0
    for r in range(d, total_len):
        rows.append(sum(1 for j in range(d) if legs[j] + j + 1 > r))
    return as_partition(rows)


def contains(lam, mu):
    """Whether mu fits inside lam as a diagram."""
    if len(mu) > len(lam):
        return False
    return all(m <= l for l, m in zip(lam, mu))


def intersect(lam, mu):
    """Entrywise minimum shape of two partitions."""
    return tuple(min(a, b) for a, b in zip(lam, mu))


def rotate_complement(mu, rect):
    """Complement of mu inside the rectangle rect, rotated 180 degrees."""
    if not is_rectangle(rect):
        raise ValueError("not a rectangle: %r" % (rect,))
    rows = len(rect)
    cols = rect[0] if rect else 0
    if len(mu) > rows or (mu and mu[0] > cols):
        raise ValueError("%r does not fit in %d x %d box" % (mu, rows, cols))
    padded = list(mu) + [0] * (rows - len(mu))
    return as_partition(cols - padded[rows - 1 - i] for i in range(rows))


def is_rectangle(lam):
    """True for nonempty partitions with all parts equal."""
    return bool(lam) and all(p == lam[0] for p in lam)


def member_p_kind(lam, kind):
    """Whether lam lies in the tileable family of the given kind."""
    kind = canonical_kind(kind)
    if kind == "none":
        return lam == ()
    if kind == "box":
        return True
    if kind == "hdom":
        return all(p % 2 == 0 for p in lam)
    return all(p % 2 == 0 for p in conjugate(lam))


def partitions_of(n, max_part=None, max_len=None):
    """Generate partitions of n in reverse lexicographic order."""
    if n < 0:
        return
    if n == 0:
        yield ()
        return
    first = n if max_part is None else min(n, max_part)
    if max_len is not None and max_len <= 0:
        return
    rest_len = None if max_len is None else max_len - 1
    for head in range(first, 0, -1):
        for tail in partitions_of(n - head, max_part=head, max_len=rest_len):
            yield (head,) + tail


def partitions_upto(d, max_len=None):
    """All partitions of size 0..d, sorted by the package partition order."""
    out = []
    for n in range(d + 1):
        out.extend(partitions_of(n, max_len=max_len))
    return out


def kind_partitions_of(n, kind, max_len=None):
    """Partitions of n inside the tileable family of the given kind."""
    kind = canonical_kind(kind)
    if kind == "none":
        return [()] if n == 0 else []
    if kind == "box":
        return list(partitions_of(n, max_len=max_len))
    if kind == "hdom":
        if n % 2:
            return []
        return [tuple(2 * p for p in lam)
                for lam in partitions_of(n // 2, max_len=max_len)]
    if n % 2:
        return []
    out = []
    for lam in partitions_of(n // 2):
        mu = conjugate(tuple(2 * p for p in lam))
        if max_len is None or len(mu) <= max_len:
            out.append(mu)
    return sorted(out, key=partition_key)


def partition_key(lam):
    """Total order: degree first, then reverse lexicographic."""
    return (sum(lam), tuple(-p for p in lam))


# ---------------------------------------------------------------------------
# Laurent polynomials in t with integer coefficients

class LaurentPoly:
    """Integer-coefficient Laurent polynomial in one variable t.

    Stored as a dict exponent -> coefficient with no zero values.  Instances
    are treated as immutable; every operation returns a fresh object.
    """

    __slots__ = ("c",)

    def __init__(self, coeffs=None):
        if coeffs:
            self.c = {e: v for e, v in coeffs.items() if v}
        else:
            self.c = {}

    @classmethod
    def zero(cls):
        return cls()

    @classmethod
    def const(cls, n):
        return cls({0: n})

    @classmethod
    def t(cls, exp=1, coeff=1):
        return cls({exp: coeff})

    def is_zero(self):
        return not self.c

    def __bool__(self):
        return bool(self.c)

    def __eq__(self, other):
        if isinstance(other, int):
            return self.c == ({0: other} if other else {})
        return isinstance(other, LaurentPoly) and self.c == other.c

    def __hash__(self):
        return hash(frozenset(self.c.items()))

    def __add__(self, other):
        if isinstance(other, int):
            other = LaurentPoly.const(other)
        out = dict(self.c)
        for e, v in other.c.items():
            w = out.get(e, 0) + v
            if w:
                out[e] = w
            else:
                out.pop(e, None)
        r = LaurentPoly.__new__(LaurentPoly)
        r.c = out
        return r

    __radd__ = __add__

    def __neg__(self):
        r = LaurentPoly.__new__(LaurentPoly)
        r.c = {e: -v for e, v in self.c.items()}
        return r

    def __sub__(self, other):
        if isinstance(other, int):
            other = LaurentPoly.const(other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, int):
            if not other:
                return LaurentPoly()
            r = LaurentPoly.__new__(LaurentPoly)
            r.c = {e: v * other for e, v in self.c.items()}
            return r
        out = {}
        for e1, v1 in self.c.items():
            for e2, v2 in other.c.items():
                e = e1 + e2
                w = out.get(e, 0) + v1 * v2
                if w:
                    out[e] = w
                else:
                    del out[e]
        r = LaurentPoly.__new__(LaurentPoly)
        r.c = out
        return r

    __rmul__ = __mul__

    def shift(self, k):
        """Multiply by t**k."""
        r = LaurentPoly.__new__(LaurentPoly)
        r.c = {e + k: v for e, v in self.c.items()}
        return r

    def subs_power(self, k):
        """The ring map t -> t**k (k may be negative, e.g. -1)."""
        if k == 0:
            raise ValueError("t -> t^0 is not a Laurent substitution")
        r = LaurentPoly.__new__(LaurentPoly)
        r.c = {e * k: v for e, v in self.c.items()}
        return r

    def eval_int(self, v):
        """Evaluate at an integer t = v; v = 0 requires no negative exponents."""
        if v == 0:
            if any(e < 0 for e in self.c):
                raise ValueError("t=0 undefined: negative exponents present")
            return self.c.get(0, 0)
        total = 0
        for e, coeff in self.c.items():
            if e < 0:
                if v not in (1, -1):
                    raise ValueError("t=%d undefined on negative exponents" % v)
                total += coeff * (v ** (-e))
            else:
                total += coeff * (v ** e)
        return total

    def format(self, times="*", power="t^%d"):
        """Highest power first; times follows a coefficient other than 1,
        power renders t^e for e other than 0 and 1."""
        if not self.c:
            return "0"
        bits = []
        for e, v in sorted(self.c.items(), reverse=True):
            if v < 0:
                bits.append(" - ")
                v = -v
            else:
                bits.append(" + ")
            if e == 0:
                bits.append(str(v))
            else:
                if v != 1:
                    bits.append("%d%s" % (v, times))
                bits.append("t" if e == 1 else power % e)
        # every term opens with its sign; the first drops the spaces
        return ("-" if bits[0] == " - " else "") + "".join(bits[1:])

    __str__ = format

    def __repr__(self):
        return "LaurentPoly(%s)" % self

    def to_json(self):
        return {str(e): str(v) for e, v in sorted(self.c.items())}

    @classmethod
    def from_json(cls, obj):
        return cls({int(e): int(v) for e, v in obj.items()})


P_ONE = LaurentPoly.const(1)


def coeff_at(rows, lam):
    """rows[lam] for a dict from partitions to polynomials, zero when lam is
    absent.  lam is looked up as given and validated only on a miss."""
    try:
        got = rows.get(lam)
    except TypeError:   # unhashable, such as a list
        got = None
    if got is None:
        got = rows.get(as_partition(lam), LaurentPoly.zero())
    return got


def pack(c, w, low, step=1):
    """c at t = 2^w, with t^e in the slot (e - low) * step of w bits: the
    ring map Z[t] -> Z of a Kronecker substitution, so sums, negation and
    products by t^k (shifts by w*k*step) commute with it."""
    n = 0
    for e, v in c.c.items():
        n += v << w * ((e - low) * step)
    return n


def unpack(n, w, low, step=1):
    """The LaurentPoly whose packed image is n (pack), read as balanced
    digits in [-2^(w-1), 2^(w-1)): exact whenever every coefficient of the
    packed polynomial has absolute value below 2^(w-1)."""
    if w < 2:
        # digits in [-1, 0] cannot spell a positive n: the loop would not end
        raise ValueError("balanced digits need a width of 2 bits or more")
    # the empty low slots at once: n & -n is n's lowest set bit
    skip = ((n & -n).bit_length() - 1) // w if n else 0
    d, e = {}, low + skip * step
    n >>= w * skip
    half, mask = 1 << (w - 1), (1 << w) - 1
    while n:
        v = n & mask
        if v >= half:
            v -= mask + 1
        if v:
            d[e] = v
        n = (n - v) >> w
        e += step
    c = LaurentPoly.__new__(LaurentPoly)
    c.c = d
    return c


# ---------------------------------------------------------------------------
# sequences of partitions

def seq_weight(rects):
    """Total number of cells |R| of a sequence of partitions."""
    return sum(sum(r) for r in rects)


def seq_overlap(rects):
    """Pairwise overlap ||R|| = sum over i<j of |R_i meet R_j|."""
    total = 0
    for i in range(len(rects)):
        for j in range(i + 1, len(rects)):
            total += sum(intersect(rects[i], rects[j]))
    return total


def is_dominant_seq(rects):
    """Widths weakly decrease along the sequence."""
    widths = [r[0] if r else 0 for r in rects]
    return all(a >= b for a, b in zip(widths, widths[1:]))


def dominant_rearrangement(rects):
    """Sort rectangles into a dominant sequence (widths weakly decreasing)."""
    return tuple(sorted(rects, key=lambda r: (-(r[0] if r else 0), -len(r))))


# ---------------------------------------------------------------------------
# usage errors and the size caps of the command line

class ParseError(ValueError):
    def __init__(self, msg, span=None):
        self.span = span
        if span is not None:
            msg = "%s (at %d..%d)" % (msg, span[0], span[1])
        super().__init__(msg)


class EvalError(ValueError):
    pass


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
