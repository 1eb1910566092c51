"""Exact universal characters of the classical groups.

Bases of the symmetric function ring attached to the four tile kinds, their
creation operators and t-deformations, and the deformed character tables.
"""

from .core import (KINDS, KIND_TRANSPOSE, LaurentPoly, as_partition,
                   canonical_kind, conjugate, frobenius, from_frobenius,
                   member_p_kind, partitions_of, rotate_complement)

__all__ = [
    "KINDS", "KIND_TRANSPOSE", "LaurentPoly", "SymFunc", "Expansion",
    "as_partition", "canonical_kind", "conjugate", "frobenius",
    "from_frobenius", "member_p_kind", "partitions_of", "rotate_complement",
    "evaluate", "inner_product", "lr_coefficient", "multiply", "skew_by",
    "straighten",
]


def __getattr__(name):
    # the names of __all__ not taken from core load schur on first use, so
    # a process that computes nothing (`univchar --help`) loads core only
    if name not in __all__:
        raise AttributeError("module univchar has no attribute %r" % name)
    from . import schur
    return getattr(schur, name)
