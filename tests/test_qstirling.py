"""q-Stirling families and their inversion-sequence model."""

import pytest

from invq.invseq import inversion_sequences, inversions
from invq.polyring import QLaurent
from invq.qstirling import (
    distinct_nonzero_sequences,
    milne_from_standard,
    star_from_standard,
    stirling2,
    stirling2_q,
    stirling2_q_by_enumeration,
    stirling2_q_milne,
    stirling2_q_star,
)

Q = QLaurent.q_power(1)


def is_distinct_nonzero(e):
    nonzero = [v for v in e if v]
    return len(nonzero) == len(set(nonzero))


def augmented_inversions(e):
    """The defining count: the inversions of e with the values of 1..n-1
    it does not use appended in ascending order."""
    return inversions(e + tuple(v for v in range(1, len(e)) if v not in e))


def zero_marked_sequences(n, k):
    """Members of I_n with exactly k zeros and distinct nonzero entries."""
    if not 1 <= k <= n:
        raise ValueError("need 1 <= k <= n")
    for e in distinct_nonzero_sequences(n):
        if e.count(0) == k:
            yield e


# ------------------------------------------------------------- recurrences

def test_standard_base_and_edges():
    assert stirling2_q(0, 0) == QLaurent.one()
    assert stirling2_q(0, 1) == QLaurent.zero()
    assert stirling2_q(3, 0) == QLaurent.zero()
    assert stirling2_q(3, 4) == QLaurent.zero()
    with pytest.raises(ValueError):
        stirling2_q(-1, 0)


def test_standard_frozen_values():
    assert stirling2_q(2, 1) == QLaurent.one()
    # words 001, 002, 010 carry 0, 1, 1 augmented inversions
    assert stirling2_q(3, 2) == QLaurent({0: 1, 1: 2})
    assert stirling2_q(3, 1) == QLaurent.one()
    assert stirling2_q(3, 3) == QLaurent.one()
    assert stirling2_q(4, 2) == QLaurent({0: 1, 1: 3, 2: 3})


def test_milne_base_and_values():
    assert stirling2_q_milne(1, 1) == QLaurent.one()
    assert stirling2_q_milne(2, 2) == Q
    assert stirling2_q_milne(3, 2) == QLaurent({1: 2, 2: 1})  # q^2 + 2q
    assert stirling2_q_milne(4, 2) == QLaurent({1: 3, 2: 3, 3: 1})
    with pytest.raises(ValueError):
        stirling2_q_milne(0, 0)


def test_star_base_and_values():
    assert stirling2_q_star(0, 0) == QLaurent.one()
    assert stirling2_q_star(3, 2) == QLaurent({0: 2, 1: 1})
    assert stirling2_q_star(4, 3) == QLaurent({0: 3, 1: 2, 2: 1})


def test_classical_collapse():
    assert [stirling2(4, k) for k in range(5)] == [0, 1, 7, 6, 1]
    assert [stirling2(5, k) for k in range(6)] == [0, 1, 15, 25, 10, 1]
    for n in range(1, 9):
        for k in range(n + 1):
            s = stirling2(n, k)
            assert s == stirling2_q_milne(n, k).evaluate(1) if k else s == 0
            assert s == stirling2_q_star(n, k).evaluate(1)


# ------------------------------------------------------------------- model

@pytest.mark.parametrize("n", range(1, 10))
def test_augmented_inversions_lemma(n):
    # aug(e) = inv(e) + sum(e) - m(m+1)/2, m the count of nonzero entries,
    # member by member
    for e in distinct_nonzero_sequences(n):
        m = n - e.count(0)
        assert augmented_inversions(e) == inversions(e) + sum(e) - m * (m + 1) // 2, e


def test_zero_marked_counts():
    # k zeros, distinct nonzeros; q = 1 recovers the set-partition count
    for n in range(1, 8):
        for k in range(1, n + 1):
            count = sum(1 for _ in zero_marked_sequences(n, k))
            assert count == stirling2(n, k)


@pytest.mark.parametrize("n", range(1, 8))
def test_model_matches_recurrence(n):
    for k in range(1, n + 1):
        assert stirling2_q(n, k) == stirling2_q_by_enumeration(n, k)


@pytest.mark.parametrize("n", range(1, 9))
def test_pruned_walk_matches_filtered_enumeration(n):
    # the pruned walk against a filter of the full walk, in order
    full = list(inversion_sequences(n))
    assert list(distinct_nonzero_sequences(n)) == [
        e for e in full if is_distinct_nonzero(e)]
    for k in range(1, n + 1):
        assert list(zero_marked_sequences(n, k)) == [
            e for e in full if e.count(0) == k and is_distinct_nonzero(e)]


def test_enumeration_bound():
    with pytest.raises(ValueError):
        stirling2_q_by_enumeration(10, 3)
    for n, k in ((9, 10), (3, 0)):
        with pytest.raises(ValueError):
            stirling2_q_by_enumeration(n, k)


def test_zero_marked_guards():
    # without a full walk, the pruned walk's own length bound is the guard,
    # checked at the call
    for n in (0, 13):
        with pytest.raises(ValueError, match="length"):
            distinct_nonzero_sequences(n)
    with pytest.raises(ValueError):
        list(zero_marked_sequences(13, 1))
    for k in (0, 4, -1):
        with pytest.raises(ValueError):
            list(zero_marked_sequences(3, k))


# ------------------------------------------------------------- conversions

@pytest.mark.parametrize("n", range(1, 9))
def test_milne_conversion(n):
    for j in range(1, n + 1):
        assert milne_from_standard(n, j) == stirling2_q_milne(n, j)


@pytest.mark.parametrize("n", range(1, 9))
def test_star_conversion(n):
    for k in range(1, n + 1):
        assert star_from_standard(n, k) == stirling2_q_star(n, k)


def test_conversion_is_degree_reflection():
    # q -> 1/q then a pure power shift: the coefficient list reverses
    f = stirling2_q(5, 3)
    g = milne_from_standard(5, 3)
    fc = [f.coefficient(i) for i in range(max(e for e, _ in f.items()) + 1)]
    gc = [g.coefficient(i) for i in range(max(e for e, _ in g.items()) + 1)]
    assert [c for c in fc if c] == [c for c in reversed(gc) if c]
    assert sum(fc) == sum(gc) == stirling2(5, 3)
