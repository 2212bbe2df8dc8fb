"""Exact joint-statistic polynomials for inversion sequences.

The package tracks five statistics over the n! inversion sequences of
length n (inversions, entry sum, zeros, repeated-value slack, untouched
top values), sums their joint generating polynomial over frequency
classes, checks it by enumeration and the length-extension recurrence,
and connects the marginals to lattice paths, q-Stirling numbers, and
the normal ordering of (g D_q)^n.  All arithmetic is exact over Python ints.
"""

from .invseq import (
    MAX_BRUTE_LENGTH,
    MAX_ENUM_LENGTH,
    SeqStats,
    brute_joint_poly,
    fixed_freq_poly,
    frequency_vectors,
    inversion_sequences,
    occurrence_counts,
    sequence_stats,
)
from .polyring import VARIABLES, MultiPoly, QLaurent
from .qcalc import d_q, q_binomial, q_factorial, q_int, q_pochhammer_x, t_q
from .recurrence import (
    inv_poly,
    joint_poly,
    next_joint_poly,
    p_factorial,
    product_formula,
    uel_distribution,
)

__all__ = [
    # polynomial substrate
    "MultiPoly", "QLaurent", "VARIABLES",
    # q-calculus
    "q_int", "q_factorial", "q_binomial", "q_pochhammer_x", "d_q", "t_q",
    # inversion sequences
    "SeqStats", "inversion_sequences", "sequence_stats", "occurrence_counts",
    "brute_joint_poly", "fixed_freq_poly", "frequency_vectors",
    "MAX_ENUM_LENGTH", "MAX_BRUTE_LENGTH",
    # recurrence
    "joint_poly", "next_joint_poly", "inv_poly", "product_formula",
    "p_factorial", "uel_distribution",
]

__version__ = "0.1.0"
