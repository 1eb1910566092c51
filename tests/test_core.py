import random

import pytest

from univchar.core import (KINDS, KIND_TRANSPOSE, LaurentPoly, as_partition,
                           canonical_kind, conjugate, dominant_rearrangement,
                           frobenius, from_frobenius, intersect,
                           is_dominant_seq, is_rectangle, kind_partitions_of,
                           member_p_kind, partition_key, partitions_of,
                           rotate_complement, seq_overlap, seq_weight)


def test_as_partition_canonical():
    assert as_partition([3, 2, 0, 0]) == (3, 2)
    assert as_partition([]) == ()
    assert as_partition((1,)) == (1,)
    with pytest.raises(ValueError):
        as_partition([1, 2])
    with pytest.raises(ValueError):
        as_partition([2, -1])


def test_conjugate_examples():
    assert conjugate(()) == ()
    assert conjugate((4, 3, 3)) == (3, 3, 3, 1)
    assert conjugate((2, 2)) == (2, 2)


def test_conjugate_involution_random():
    rng = random.Random(1)
    by_size = [list(partitions_of(n)) for n in range(31)]
    for _ in range(1000):
        n = rng.randrange(0, 31)
        lam = rng.choice(by_size[n])
        assert conjugate(conjugate(lam)) == lam


def test_frobenius_examples():
    assert frobenius(()) == ((), ())
    assert frobenius((2, 2)) == ((1, 0), (1, 0))
    assert frobenius((3, 1, 1)) == ((2,), (2,))


def test_frobenius_roundtrip():
    for n in range(21):
        for lam in partitions_of(n):
            assert from_frobenius(*frobenius(lam)) == lam


def test_rotate_complement():
    assert rotate_complement((), (3,)) == (3,)
    assert rotate_complement((2,), (3,)) == (1,)
    assert rotate_complement((2, 2), (2, 2)) == ()
    with pytest.raises(ValueError):
        rotate_complement((3,), (2, 2))
    with pytest.raises(ValueError):
        rotate_complement((1,), (2, 1))


def test_member_p_kind():
    assert member_p_kind((2, 2), "vdom")
    assert not member_p_kind((3, 1), "hdom")
    assert not member_p_kind((1,), "none")
    assert member_p_kind((), "none")
    assert member_p_kind((3, 1), "box")
    for n in range(21):
        for lam in partitions_of(n):
            assert member_p_kind(lam, "vdom") == \
                member_p_kind(conjugate(lam), "hdom")


def test_kind_partitions():
    assert kind_partitions_of(2, "vdom") == [(1, 1)]
    assert kind_partitions_of(2, "hdom") == [(2,)]
    assert kind_partitions_of(3, "vdom") == []
    assert set(kind_partitions_of(4, "vdom")) == {(2, 2), (1, 1, 1, 1)}
    assert kind_partitions_of(0, "none") == [()]
    assert kind_partitions_of(1, "none") == []


def test_kind_tags():
    assert canonical_kind("vd") == "vdom"
    assert canonical_kind("cell") == "box"
    assert KIND_TRANSPOSE["vdom"] == "hdom"
    assert KIND_TRANSPOSE["box"] == "box"
    for kind in KINDS:
        assert KIND_TRANSPOSE[KIND_TRANSPOSE[kind]] == kind
    with pytest.raises(ValueError):
        canonical_kind("nope")


def test_partition_order():
    got = sorted(partitions_of(3), key=partition_key)
    assert got == [(3,), (2, 1), (1, 1, 1)]


def test_laurent_arith():
    t = LaurentPoly.t
    p = t(2) + t(0, 3)
    q = t(-1) - t(1)
    assert (p * q).c == {3: -1, 1: -2, -1: 3}
    assert p * LaurentPoly.const(1) == p
    assert (p - p).is_zero()
    assert str(t(5) + t(3) - t(4)) == "t^5 - t^4 + t^3"
    assert p.subs_power(2).c == {4: 1, 0: 3}
    assert t(3).subs_power(-1).c == {-3: 1}
    assert p.eval_int(1) == 4
    assert p.eval_int(0) == 3
    with pytest.raises(ValueError):
        t(-1).eval_int(0)


def test_laurent_format():
    # highest power first, in both renderings; the texts were frozen from
    # the writer that looked each coefficient up after sorting the exponents
    cases = [
        ({}, "0", "0"),
        ({0: -1}, "-1", "-1"),
        ({1: 2}, "2*t", "2t"),
        ({5: -1}, "-t^5", "-t^{5}"),
        ({-3: -2, 0: 1, 1: -1}, "-t + 1 - 2*t^-3", "-t + 1 - 2t^{-3}"),
        ({10: 3, 2: 1, 0: -7}, "3*t^10 + t^2 - 7", "3t^{10} + t^{2} - 7"),
        ({-1: 1}, "t^-1", "t^{-1}"),
    ]
    for coeffs, text, tex in cases:
        p = LaurentPoly(coeffs)
        assert str(p) == p.format() == text
        assert p.format("", "t^{%d}") == tex


def test_laurent_ring_axioms_random():
    rng = random.Random(3)
    for _ in range(50):
        ps = [LaurentPoly({rng.randrange(-4, 5): rng.randrange(-9, 10)
                           for _ in range(4)}) for _ in range(3)]
        p, q, r = ps
        assert (p * q) * r == p * (q * r)
        assert (p + q) * r == p * r + q * r
        assert (p * q).eval_int(1) == p.eval_int(1) * q.eval_int(1)


def test_laurent_json_roundtrip():
    p = LaurentPoly({-2: 3, 0: -1, 5: 10 ** 30})
    assert LaurentPoly.from_json(p.to_json()) == p


def test_sequence_helpers():
    R = ((2, 2), (1,))
    assert seq_weight(R) == 5
    assert seq_overlap(R) == 1
    assert is_dominant_seq(R)
    assert not is_dominant_seq(((1,), (2, 2)))
    assert is_rectangle((2, 2))
    assert not is_rectangle((2, 1))
    assert not is_rectangle(())
    assert intersect((3, 1), (2, 2)) == (2, 1)
    assert dominant_rearrangement(((1,), (3, 3), (2,))) == \
        ((3, 3), (2,), (1,))
    assert seq_overlap(((1,), (1,))) == 1
