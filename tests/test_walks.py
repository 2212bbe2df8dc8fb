"""The enumerations of I_n and of its weakly increasing members, and the
explicit Comtet sum, each against the hand-written walk it replaced, kept
here as the reference."""

import pytest

from invq.invseq import brute_class_polys, inversion_sequences, occurrence_counts
from invq.paths import catalan, weakly_increasing_sequences
from invq.polyring import QLaurent
from invq.qcalc import q_binomial
from invq.qoperator import Factor, SymExpr, comtet_coeff_explicit, g_factor

# ------------------------------------------------------ reference walks


def inversion_sequences_odometer(n):
    e = [0] * n
    while True:
        yield tuple(e)
        i = n - 1
        while i > 0 and e[i] == i:
            e[i] = 0
            i -= 1
        if i <= 0:
            return
        e[i] += 1


def weakly_increasing_odometer(n):
    e = [0] * n
    while True:
        yield tuple(e)
        i = n - 1
        while i > 0 and e[i] == i:
            i -= 1
        if i <= 0:
            return
        e[i:] = [e[i] + 1] * (n - i)


def comtet_coeff_compositions(n, k):
    # sum over compositions (k_1, ..., k_{n-1}) with K_j <= j and
    # K_{n-1} = n - k of prod_j qbinom(j - K_{j-1}, k_j) times the g-word
    target = n - k
    out = {}

    def rec(j, running, word, coeff):
        if j == n:
            if running == target:
                key = tuple(word)
                out[key] = out.get(key, 0) + coeff
            return
        for kj in range(min(j - running, target - running) + 1):
            factor = q_binomial(j - running, kj)
            word.append(Factor("g", kj, running))
            rec(j + 1, running + kj, word, coeff * factor)
            word.pop()

    rec(1, 0, [g_factor()], QLaurent.one())
    return SymExpr._summed(out)


# --------------------------------------------------- exhaustive sweeps

@pytest.mark.parametrize("n", range(1, 9))
def test_inversion_sequences_match_odometer(n):
    assert list(inversion_sequences(n)) == list(inversion_sequences_odometer(n))


@pytest.mark.parametrize("n", range(1, 13))
def test_weakly_increasing_sequences_match_odometer(n):
    assert list(weakly_increasing_sequences(n)) == list(
        weakly_increasing_odometer(n))


@pytest.mark.parametrize("n", range(1, 9))
def test_comtet_coeff_explicit_matches_compositions(n):
    for k in range(1, n + 1):
        assert comtet_coeff_explicit(n, k) == comtet_coeff_compositions(n, k), k


@pytest.mark.parametrize("n", range(1, 9))
def test_classes_are_the_weakly_increasing_vectors(n):
    # sorting an inversion sequence keeps its frequency vector and stays
    # in I_n, so each class met in I_n has one weakly increasing member
    classes = {occurrence_counts(w) for w in weakly_increasing_sequences(n)}
    assert classes == set(brute_class_polys(n))
    assert len(classes) == catalan(n)
