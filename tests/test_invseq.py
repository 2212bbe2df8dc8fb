"""Enumeration, statistics, and the fixed-frequency product formula."""

import math
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from invq.identities import permutations
from invq.invseq import (
    SeqStats,
    brute_class_polys,
    brute_joint_poly,
    fixed_freq_poly,
    frequency_vectors,
    inversion_sequences,
    inversions,
    occurrence_counts,
    sequence_stats,
    validate,
)
from invq.polyring import QLaurent
from invq.qcalc import q_binomial, q_factorial


def random_sequences(max_n=8):
    return st.integers(min_value=1, max_value=max_n).flatmap(
        lambda n: st.tuples(*(st.integers(min_value=0, max_value=i)
                              for i in range(n))))


# ------------------------------------------------------------- enumeration

@pytest.mark.parametrize("n", range(1, 8))
def test_counts_are_factorial(n):
    assert sum(1 for _ in inversion_sequences(n)) == math.factorial(n)


def test_enumeration_order_n3():
    assert list(inversion_sequences(3)) == [
        (0, 0, 0), (0, 0, 1), (0, 0, 2),
        (0, 1, 0), (0, 1, 1), (0, 1, 2),
    ]


def test_enumeration_bounds():
    with pytest.raises(ValueError):
        inversion_sequences(0)
    with pytest.raises(ValueError):
        inversion_sequences(13)


def test_validate():
    assert validate([0, 1, 0]) == (0, 1, 0)
    with pytest.raises(ValueError):
        validate([1])
    with pytest.raises(ValueError):
        validate([0, 2])
    with pytest.raises(ValueError):
        validate([])
    for bad in ((0, True), (False,), (0, 1.0), (0, "1")):
        with pytest.raises(ValueError):
            validate(bad)


# -------------------------------------------------------------- statistics

def test_stats_worked_example():
    assert sequence_stats((0, 0, 0, 2, 4, 0, 5)) == SeqStats(
        inv=2, sum=11, noz=4, dist=4, tel=3, uel=1, maxent=5)


def test_stats_small_cases():
    assert sequence_stats((0,)) == SeqStats(0, 0, 1, 1, 0, 0, 0)
    assert sequence_stats((0, 1, 2)) == SeqStats(0, 3, 1, 3, 0, 0, 2)
    assert sequence_stats((0, 0, 0)) == SeqStats(0, 0, 3, 1, 2, 2, 0)
    # one inversion: the 1 before the final 0
    assert sequence_stats((0, 1, 0)) == SeqStats(1, 1, 2, 2, 1, 1, 1)
    # out-of-range and bool entries are refused, as occurrence_counts does
    for bad in ((0, 5), (1,), (0, True)):
        with pytest.raises(ValueError):
            sequence_stats(bad)


@settings(max_examples=100, deadline=None)
@given(random_sequences())
def test_stats_invariants(e):
    n = len(e)
    s = sequence_stats(e)
    assert s.tel == n - s.dist
    assert s.uel == n - s.maxent - 1
    assert 1 <= s.noz <= n
    assert 1 <= s.dist <= n
    # zeros plus one slot per distinct nonzero value never exceeds the length
    assert s.noz + s.dist - 1 <= n
    assert occurrence_counts(e)[0] == s.noz
    assert sum(occurrence_counts(e)) == n


def test_occurrence_counts():
    assert occurrence_counts((0, 0, 2, 2, 4)) == (2, 0, 2, 0, 1)
    # entries outside 0 <= e_i <= i are refused, not counted in a wrong slot
    for bad in ((0, -1), (0, 0, -2), (0, True), (0, 5)):
        with pytest.raises(ValueError):
            occurrence_counts(bad)


@pytest.mark.parametrize("n", range(1, 8))
def test_inversions_mahonian(n):
    # MacMahon: inversions over S_n are distributed as [n]_q!
    assert QLaurent(Counter(map(inversions, permutations(n)))) == q_factorial(n)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(min_value=-2, max_value=3), max_size=9))
def test_inversions_matches_pair_count(w):
    # repeated values tell a strict count from one that counts ties
    pairs = [(a, b) for i, a in enumerate(w) for b in w[i + 1:]]
    assert inversions(w) == sum(1 for a, b in pairs if a > b)


# --------------------------------------------------- joint polynomial brute

def test_brute_joint_matches_golden(golden_polys):
    for n in (1, 2, 3):
        assert brute_joint_poly(n) == golden_polys[n]


# ------------------------------------------------------- fixed frequencies

def test_fixed_freq_worked_examples():
    # all zeros: the single sequence 0000 has no inversions
    assert fixed_freq_poly((4, 0, 0, 0)) == QLaurent.one()
    # n=3, v=(2,1,0): sequences 001 and 010
    assert fixed_freq_poly((2, 1, 0)) == QLaurent({0: 1, 1: 1})
    assert fixed_freq_poly((2, 1, 0)) == q_binomial(2, 1)
    # n=4, v=(2,1,1,0): product qbinom(2,1)*qbinom(2,1)
    assert fixed_freq_poly((2, 1, 1, 0)) == q_binomial(2, 1) * q_binomial(2, 1)


def test_fixed_freq_unrealizable_is_zero():
    # per-value slot capacities are satisfied, but no zeros means the
    # forced e_0 = 0 can never happen; the product formula must vanish
    assert fixed_freq_poly((0, 0, 3, 1, 1)) == QLaurent.zero()
    assert (0, 0, 3, 1, 1) not in brute_class_polys(5)


def test_fixed_freq_input_validation():
    with pytest.raises(ValueError):
        fixed_freq_poly(())
    with pytest.raises(ValueError, match="value 1 fits at most 1 slots"):
        fixed_freq_poly((0, 2))
    with pytest.raises(ValueError):
        fixed_freq_poly((2, -1, 1))
    with pytest.raises(ValueError, match="multiplicities must sum"):
        fixed_freq_poly((2, 2))
    for bad in ((2.0, 0), (True, True), (1, True), (1.0, 1.0)):
        with pytest.raises(ValueError):
            fixed_freq_poly(bad)


@pytest.mark.parametrize("n", range(1, 8))
def test_brute_class_polys_matches_per_class_filter(n):
    classes = brute_class_polys(n)
    keyed = [(occurrence_counts(e), e) for e in inversion_sequences(n)]
    for v, poly in classes.items():
        assert poly == QLaurent(Counter(
            sequence_stats(e).inv for key, e in keyed if key == v)), v
    assert set(classes) <= set(frequency_vectors(n))
    assert sum(poly.evaluate(1) for poly in classes.values()) == math.factorial(n)


def test_brute_class_bounds():
    with pytest.raises(ValueError, match="brute-force bound is length 9"):
        brute_class_polys(10)


@pytest.mark.parametrize("n", range(1, 7))
def test_fixed_freq_sweep_matches_brute(n):
    groups = brute_class_polys(n)
    for v in frequency_vectors(n):
        assert fixed_freq_poly(v) == groups.get(v, QLaurent.zero()), v


def test_frequency_vectors_cover_all_sequences():
    vectors = set(frequency_vectors(5))
    seen = {occurrence_counts(e) for e in inversion_sequences(5)}
    assert seen <= vectors
    # every enumerated vector is valid input
    for v in vectors:
        fixed_freq_poly(v)


def test_class_sizes_sum_to_factorial():
    for n in range(1, 7):
        total = sum(fixed_freq_poly(v).evaluate(1) for v in frequency_vectors(n))
        assert total == math.factorial(n)
