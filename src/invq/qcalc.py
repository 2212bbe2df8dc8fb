"""q-integers, q-binomials, and the q-derivative operators acting in x.

Gaussian binomials are built by the additive Pascal recurrence, so no
polynomial division ever happens; the Taylor-style operator t_q likewise
uses the binomial form of D_q^k / [k]_q! directly.
"""

from __future__ import annotations

import math
import sys
from functools import cache, lru_cache

from .polyring import ExpVec, MultiPoly, QLaurent


def q_int(k: int) -> QLaurent:
    """[k]_q = 1 + q + ... + q^(k-1); [0]_q = 0.

    >>> str(q_int(3))
    'q^2 + q + 1'
    """
    if type(k) is not int or k < 0:
        raise ValueError("q-integer needs an int k >= 0")
    return QLaurent._raw({i: 1 for i in range(k)})


# typed, here and on q_binomial: 3.0 or True must miss the cached entry of
# 3 or 1 and reach the int check
@lru_cache(maxsize=None, typed=True)
def q_factorial(k: int) -> QLaurent:
    """[k]_q! = [1]_q [2]_q ... [k]_q, with [0]_q! = 1."""
    if type(k) is not int or k < 0:
        raise ValueError("q-factorial needs an int k >= 0")
    if k == 0:
        return QLaurent.one()
    return q_factorial(k - 1) * q_int(k)


@lru_cache(maxsize=None, typed=True)
def q_binomial(n: int, k: int) -> QLaurent:
    """Gaussian binomial coefficient as a q-polynomial.

    Defined by the Pascal recurrence
    qbinom(n, k) = qbinom(n-1, k-1) + q^k * qbinom(n-1, k),
    which keeps everything division-free.  Out-of-range k gives 0.
    """
    if type(n) is not int or type(k) is not int:
        raise ValueError("q-binomial needs int n and k")
    if n < 0:
        raise ValueError("q-binomial needs n >= 0")
    if k < 0 or k > n:
        return QLaurent.zero()
    if k == 0 or k == n:
        return QLaurent.one()
    return q_binomial(n - 1, k - 1) + q_binomial(n - 1, k).times_q_power(k)


@cache
def q_pascal(n: int, q0: int) -> tuple[tuple[int, ...], ...]:
    """Rows 0..n of the Gaussian binomials at q = q0 as ints: row m lists
    qbinom(m, k) at q0 for k = 0..m, by the same Pascal recurrence as
    `q_binomial`, qbinom(m, k) = qbinom(m-1, k-1) + q0^k qbinom(m-1, k).
    Cached, so the rows are tuples that no caller can change.

    At q0 = 2**(8 * width) the table holds the q-binomials packed, the
    coefficient of q^s in bytes [s * width, (s + 1) * width) (Kronecker
    substitution), so a product of them is one bigint multiply, read back
    with `unpack` (see `slot_width`).

    >>> q_pascal(2, 1 << 64)[2][1] == (1 << 64) + 1  # [2]_q, packed
    True
    """
    if n < 0:
        raise ValueError("q-Pascal table needs n >= 0")
    if n == 0:
        return ((1,),)
    rows = q_pascal(n - 1, q0)  # its rows shared: one new row per cached n
    prev = rows[-1]
    return (*rows, (1, *(prev[k - 1] + q0 ** k * prev[k]
                         for k in range(1, n)), 1))


def slot_width(n: int, scale: int = 1) -> int:
    """Bytes per q-coefficient when packing q-polynomials at
    q = 2**(8 * width) (`q_pascal`): bits(n! * scale) + 1 bits, 8 bytes
    while that fits (n <= 20 at scale 1, read back in one C call),
    else whole bytes.  No slot carries into the next while every
    coefficient met is nonnegative and at most n! * scale.  Products of
    q-binomials summed over classes of I_n, times bound powers at most
    `scale`, keep to that (`invseq.fixed_freq_poly`, `recurrence`'s scan):
    each factor has nonnegative coefficients and constant term 1, so a
    partial product is at most the full one, and the coefficients of a sum
    over I_n sum to n!."""
    bits = (math.factorial(n) * scale).bit_length() + 1
    return 8 if bits <= 64 else (bits + 7) // 8


def unpack(poly: int, width: int) -> list[int]:
    """The q-coefficients of a packed q-polynomial, lowest power first."""
    data = poly.to_bytes(-(-poly.bit_length() // (8 * width)) * width, "little")
    if width == 8 and sys.byteorder == "little":
        # one C call: the bytes read as native 8-byte unsigned ints
        return memoryview(data).cast("Q").tolist()
    from_bytes = int.from_bytes
    return [from_bytes(data[i:i + width], "little")
            for i in range(0, len(data), width)]


def q_pochhammer_x(n: int, first_power: int = 0) -> MultiPoly:
    """(x q^a; q)_n = prod_{i=0}^{n-1} (1 - x q^(a+i)) with a = first_power,
    read off by Cauchy's q-binomial theorem as
    sum_k (-1)^k q^(k(k-1)/2 + a k) qbinom(n, k) x^k."""
    if n < 0:
        raise ValueError("q-Pochhammer needs n >= 0")
    if type(first_power) is not int or first_power < 0:
        raise ValueError("q-Pochhammer needs an int first_power >= 0")
    return MultiPoly._raw({(k, 0, 0, 0, k * (k - 1) // 2 + first_power * k + e):
                           (-1) ** k * c
                           for k in range(n + 1) for e, c in q_binomial(n, k).items()})


def d_q(f: MultiPoly) -> MultiPoly:
    """q-derivative in x: termwise x^a -> [a]_q x^(a-1).

    Constants in x vanish.  Coefficients in y, z, p, q ride along.
    """
    out: dict[ExpVec, int] = {}
    for (ax, ay, az, ap, aq), coeff in f.items():
        if ax == 0:
            continue
        for i in range(ax):  # multiply by [ax]_q
            key = (ax - 1, ay, az, ap, aq + i)
            out[key] = out.get(key, 0) + coeff
    return MultiPoly._summed(out)


def t_q(f: MultiPoly) -> MultiPoly:
    """Termwise x^a -> sum_k qbinom(a, k) x^k.

    This is the finite sum of D_q^k / [k]_q! over k, with the division by
    [k]_q! absorbed into the Gaussian binomial, so it stays in the ring.
    The x-degree never grows.
    """
    out: dict[ExpVec, int] = {}
    for (ax, ay, az, ap, aq), coeff in f.items():
        for k in range(ax + 1):
            for qe, qc in q_binomial(ax, k).items():
                key = (k, ay, az, ap, aq + qe)
                out[key] = out.get(key, 0) + coeff * qc
    return MultiPoly._summed(out)
