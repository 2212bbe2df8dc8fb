"""Permutation statistics and the classical identity checks tying the
q-Stirling families to the joint Euler-Mahonian polynomial.

Everything here is exact: series appear only as explicitly truncated
polynomials, and every check compares term maps after the documented
truncation degree.
"""

from __future__ import annotations

from collections import Counter
from functools import cache
from itertools import compress, repeat, tee
from itertools import permutations as _permutations
from operator import getitem, gt, sub
from typing import Iterator

from .polyring import MultiPoly, QLaurent
from .qcalc import q_binomial, q_factorial, q_int, q_pochhammer_x
from .qstirling import stirling2_q, stirling2_q_milne

MAX_PERM_LENGTH = 9


def permutations(n: int) -> Iterator[tuple[int, ...]]:
    """S_n in lexicographic one-line notation."""
    if n < 1:
        raise ValueError("needs n >= 1")
    if n > MAX_PERM_LENGTH:
        raise ValueError(f"enumeration bound is n <= {MAX_PERM_LENGTH}")
    return _permutations(range(1, n + 1))


@cache
def euler_mahonian_poly(n: int) -> MultiPoly:
    """sum over S_n of x^descents q^major, by one cached walk of S_n per n.

    Each permutation s gives one list of descent positions,
    compress(range(1, n), map(gt, s, s[1:])), whose length is des(s) and
    whose sum is maj(s); the walk is mapped in C, with no frame per s.

    >>> euler_mahonian_poly(3).marginal("x", 3)
    [1, 4, 1]
    """
    walk, tails = tee(permutations(n))
    descents = map(list, map(compress, repeat(range(1, n)),
                             map(map, repeat(gt), walk,
                                 map(getitem, tails, repeat(slice(1, None))))))
    des, maj = tee(descents)
    return MultiPoly(Counter(zip(map(len, des), repeat(0), repeat(0), repeat(0),
                                 map(sum, maj))))


def eulerian_row(n: int) -> list[int]:
    """Descent distribution of S_n (the q = 1 collapse), k = 0..n-1."""
    return euler_mahonian_poly(n).marginal("x", n)


def max_displacement_counts(n: int) -> list[int]:
    """Permutations of n by max(sigma_i - i), value k = 0..n-1; the walk
    of S_n is mapped in C."""
    counts = Counter(map(max, map(map, repeat(sub), permutations(n),
                                  repeat(range(1, n + 1)))))
    return [counts[k] for k in range(n)]


def _q_falling_product(k: int, j: int) -> QLaurent:
    # [k]_q [k-1]_q ... [k-j+1]_q = qbinom(k, j) [j]_q!, zero for j > k
    return q_binomial(k, j) * q_factorial(j)


# ----------------------------------------------------------------- checks

def _check_x_euler_mahonian(n: int, stirling, first_power) -> bool:
    # sum_j stirling(n, j) x^j (x q^first_power(j); q)_{n-j} [j]_q!
    # == x * EulerMahonian_n
    if not 1 <= n <= 8:
        raise ValueError("supported for 1 <= n <= 8")
    lhs = MultiPoly.sum((stirling(n, j) * q_factorial(j)).to_multipoly()
                        * MultiPoly.monomial(1, ex=j)
                        * q_pochhammer_x(n - j, first_power=first_power(j))
                        for j in range(1, n + 1))
    return lhs == MultiPoly.variable("x") * euler_mahonian_poly(n)


def check_stirling_euler(n: int) -> bool:
    """sum_j stirling2_q(n, j) x^j (x; q)_{n-j} [j]_q!  ==  x * EulerMahonian_n."""
    return _check_x_euler_mahonian(n, stirling2_q, lambda j: 0)


def check_garsia(n: int) -> bool:
    """Milne flavor: sum_j milne(n, j) x^j (x q^(j+1); q)_{n-j} [j]_q!
    equals x * EulerMahonian_n."""
    return _check_x_euler_mahonian(n, stirling2_q_milne, lambda j: j + 1)


def check_qpower(n: int, kmax: int) -> bool:
    """q-power expansion: for every k <= kmax,
    [k]_q^n == sum_j stirling2_q(n, j) [k]_q ... [k-j+1]_q q^((n-j)(k-j))."""
    if n < 1 or kmax < 1:
        raise ValueError("needs n >= 1 and kmax >= 1")
    return all(q_int(k) ** n == QLaurent.sum(
                   (stirling2_q(n, j) * _q_falling_product(k, j)).times_q_power(
                       (n - j) * (k - j))
                   for j in range(1, min(n, k) + 1))
               for k in range(1, kmax + 1))


def _geometric_inverse_pochhammer(n: int, trunc: int) -> MultiPoly:
    # 1 / (x; q)_{n+1} = sum_m qbinom(n + m, m) x^m (the q-binomial theorem,
    # Andrews, The Theory of Partitions, Thm 3.3), truncated to x-degree
    # <= trunc
    return MultiPoly._raw({(m, 0, 0, 0, e): c for m in range(trunc + 1)
                           for e, c in q_binomial(n + m, m).items()})


def _q_power_series(n: int, offset: int, trunc: int) -> MultiPoly:
    # sum_{l=0}^{trunc} [l + offset]_q^n x^l
    return MultiPoly._raw({(ell, 0, 0, 0, e): c for ell in range(trunc + 1)
                           for e, c in (q_int(ell + offset) ** n).items()})


def check_carlitz(n: int, trunc: int) -> bool:
    """Carlitz expansion: (x; q)_{n+1} * sum_{l=0}^{trunc} x^l [l+1]_q^n
    agrees with the Euler-Mahonian polynomial up to x-degree trunc - n - 1."""
    if trunc < n + 2:
        raise ValueError("truncation must be at least n + 2")
    # series terms past the compared degree cannot reach it
    keep = trunc - n - 1
    lhs = (q_pochhammer_x(n + 1) * _q_power_series(n, 1, keep)).truncate(
        "x", keep)
    return lhs == euler_mahonian_poly(n).truncate("x", keep)


def check_eu_ma_operator(n: int, trunc: int) -> bool:
    """(x D_q)^n of the truncated geometric series, i.e.
    sum_l [l]_q^n x^l, agrees with x * EulerMahonian_n / (x; q)_{n+1}
    (the inverse expanded by the q-binomial theorem) up to x-degree
    trunc - n."""
    if trunc < n + 2:
        raise ValueError("truncation must be at least n + 2")
    # each series only to the compared degree; the factor x supplies one
    keep = trunc - n
    rhs = (MultiPoly.variable("x")
           * euler_mahonian_poly(n)
           * _geometric_inverse_pochhammer(n, keep - 1)).truncate("x", keep)
    return _q_power_series(n, 0, keep) == rhs
