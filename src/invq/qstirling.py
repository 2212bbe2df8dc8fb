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

from .invseq import inversions
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

@cache
def _augmented_by_zero_count(n: int) -> list[QLaurent]:
    """Entry k: the augmented-inversion polynomial of the members of I_n
    with k zeros and pairwise distinct nonzero entries, for every k from
    one recursive walk with one leaf per member (Bell(n) in all).  It
    carries (zeros, used, inv, total), `used` a bitmask of the nonzero
    values placed: slot i = 1 .. n-1 takes 0, passing every used value, or
    an unused v in 1..i, passing the used values above v.

    The defining count is the inversions of e with the values of 1..n-1 it
    does not use appended in ascending order.  No word is built: a used
    value u passes the u - 1 - rank(u) appended values below it, so with
    m nonzero entries, aug(e) = inv(e) + sum(e) - m(m+1)/2.

    >>> e = (0, 1, 0, 0, 3, 4, 0, 0)
    >>> inversions(e + (2, 5, 6, 7)), inversions(e) + sum(e) - 3 * 4 // 2
    (10, 10)
    """
    if n < 1:
        raise ValueError("length must be >= 1")
    counts: list[Counter[int]] = [Counter() for _ in range(n + 1)]

    def walk(i: int, zeros: int, used: int, inv: int, total: int) -> None:
        if i == n:
            m = n - zeros
            counts[zeros][inv + total - m * (m + 1) // 2] += 1
            return
        walk(i + 1, zeros + 1, used, inv + used.bit_count(), total)
        for v in range(1, i + 1):
            if not used >> v & 1:
                walk(i + 1, zeros, used | 1 << v,
                     inv + (used >> v).bit_count(), total + v)

    walk(1, 1, 0, 0, 0)
    return [QLaurent(c) for c in counts]


def stirling2_q_by_enumeration(n: int, k: int) -> QLaurent:
    """Augmented-inversion generating polynomial over the members of I_n
    with exactly k zeros and pairwise distinct nonzero entries.

    Brute-force oracle for stirling2_q; bounded at n <= MAX_MODEL_LENGTH.
    One walk per n serves every k.
    """
    if type(n) is not int or type(k) is not int:
        raise ValueError("n and k must be ints")
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
