"""Three q-Stirling families and their inversion-sequence model.

stirling2_q is the family with recurrence
    S(n, k) = q^(n-k) S(n-1, k-1) + [k]_q S(n-1, k);
it equals the generating polynomial of the augmented inversion count over
the sequences in I_n with exactly k zeros and pairwise distinct nonzero
entries.  The Milne and Leroux-Medicis variants are related to it by a
q -> 1/q substitution together with an explicit q-power prefactor.
"""

from __future__ import annotations

from collections import Counter
from functools import cache
from itertools import repeat, tee
from operator import countOf
from typing import Iterator

from .invseq import MAX_ENUM_LENGTH, InvSeq, inversions, validate
from .polyring import QLaurent
from .qcalc import q_int

#: guard for `stirling2_q_by_enumeration`, the augmented-inversion walk
MAX_MODEL_LENGTH = 9


@cache
def stirling2_q(n: int, k: int) -> QLaurent:
    """q-Stirling number of the second kind (inversion flavor)."""
    if n < 0:
        raise ValueError("needs n >= 0")
    if n == 0:
        return QLaurent.one() if k == 0 else QLaurent.zero()
    if k < 1 or k > n:
        return QLaurent.zero()
    return (stirling2_q(n - 1, k - 1).times_q_power(n - k)
            + q_int(k) * stirling2_q(n - 1, k))


@cache
def stirling2_q_milne(n: int, k: int) -> QLaurent:
    """Milne's variant: S(n+1, j) = [j] S(n, j) + q^(j-1) S(n, j-1),
    anchored at S(1, 1) = 1."""
    if n < 1:
        raise ValueError("needs n >= 1")
    if k < 1 or k > n:
        return QLaurent.zero()
    if n == 1:
        return QLaurent.one()
    return (q_int(k) * stirling2_q_milne(n - 1, k)
            + stirling2_q_milne(n - 1, k - 1).times_q_power(k - 1))


@cache
def stirling2_q_star(n: int, k: int) -> QLaurent:
    """Leroux-Medicis variant: S(n+1, k) = [k] S(n, k) + S(n, k-1)."""
    if n < 0:
        raise ValueError("needs n >= 0")
    if n == 0:
        return QLaurent.one() if k == 0 else QLaurent.zero()
    if k < 1 or k > n:
        return QLaurent.zero()
    return q_int(k) * stirling2_q_star(n - 1, k) + stirling2_q_star(n - 1, k - 1)


def stirling2(n: int, k: int) -> int:
    """Classical Stirling set number (the q = 1 collapse of all three)."""
    return stirling2_q(n, k).evaluate(1)


# ------------------------------------------------- inversion-sequence model

def distinct_nonzero_sequences(n: int) -> Iterator[InvSeq]:
    """Members of I_n with pairwise distinct nonzero entries, in
    lexicographic order, for n up to MAX_ENUM_LENGTH (checked at the call).

    An odometer over the digits e_1 .. e_{n-1} (digit i runs 0..i, the
    last digit fastest), pruned on the set of values in use: a digit skips
    every value another slot holds, so the walk visits the Bell(n)-many
    members and nothing else.
    """
    if n < 1:
        raise ValueError("length must be >= 1")
    if n > MAX_ENUM_LENGTH:
        raise ValueError(f"length {n} above enumeration bound {MAX_ENUM_LENGTH}")

    def walk() -> Iterator[InvSeq]:
        e = [0] * n
        used = [False] * n  # used[v] for v >= 1: some slot holds v
        while True:
            yield tuple(e)
            i = n - 1
            while i:
                used[e[i]] = False
                v = e[i] + 1
                while v <= i and used[v]:
                    v += 1
                if v <= i:
                    e[i] = v
                    used[v] = True
                    break
                e[i] = 0
                i -= 1
            else:
                return

    return walk()


@cache
def _augmented_by_zero_count(n: int) -> list[QLaurent]:
    """Entry k: the augmented-inversion polynomial of the members with k
    zeros, for every k from one walk: a `Counter` of (zeros, distinct
    values, inversions, sum) over the validated members.  A member without
    exactly m + 1 distinct values, m = n - k, is refused.

    The defining count is the inversions of e with the values of 1..n-1 it
    does not use appended in ascending order.  No word is built: a used
    value u passes the u - 1 - rank(u) appended values below it, so with
    m nonzero entries, aug(e) = inv(e) + sum(e) - m(m+1)/2.

    >>> e = (0, 1, 0, 0, 3, 4, 0, 0)
    >>> inversions(e + (2, 5, 6, 7)), inversions(e) + sum(e) - 3 * 4 // 2
    (10, 10)
    """
    zeros, values, words, sums = tee(map(validate, distinct_nonzero_sequences(n)), 4)
    tally = Counter(zip(map(countOf, zeros, repeat(0)), map(len, map(set, values)),
                        map(inversions, words), map(sum, sums)))
    counts: list[Counter[int]] = [Counter() for _ in range(n + 1)]
    for (k, distinct, inv, total), c in tally.items():
        m = n - k
        if distinct != m + 1:
            raise ValueError("nonzero entries must be pairwise distinct")
        counts[k][inv + total - m * (m + 1) // 2] += c
    return [QLaurent(c) for c in counts]


def stirling2_q_by_enumeration(n: int, k: int) -> QLaurent:
    """Augmented-inversion generating polynomial over the members of
    distinct_nonzero_sequences(n) with exactly k zeros.

    Brute-force oracle for stirling2_q; bounded at n <= MAX_MODEL_LENGTH.
    One walk per n serves every k.
    """
    if n > MAX_MODEL_LENGTH:
        raise ValueError(f"brute-force bound is n <= {MAX_MODEL_LENGTH}")
    if not 1 <= k <= n:
        raise ValueError("need 1 <= k <= n")
    return _augmented_by_zero_count(n)[k]


# ------------------------------------------------------- family conversions

def milne_from_standard(n: int, j: int) -> QLaurent:
    """Milne's variant recovered from stirling2_q by inverting q and
    multiplying by q^((j-1)(2n-j)/2); lands back in the polynomial ring."""
    exp = (j - 1) * (2 * n - j)
    if exp % 2:
        raise AssertionError("prefactor exponent is always even")
    out = stirling2_q(n, j).substitute_q_inverse().times_q_power(exp // 2)
    if not out.is_polynomial():
        raise AssertionError("conversion left the polynomial ring")
    return out


def star_from_standard(n: int, k: int) -> QLaurent:
    """Leroux-Medicis variant recovered from stirling2_q via q -> 1/q and
    the prefactor q^((k-1)(n-k))."""
    out = (stirling2_q(n, k).substitute_q_inverse()
           .times_q_power((k - 1) * (n - k)))
    if not out.is_polynomial():
        raise AssertionError("conversion left the polynomial ring")
    return out
