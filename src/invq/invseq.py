"""Inversion sequences and the joint distribution of their five statistics.

An inversion sequence of length n is e = (e_0, ..., e_{n-1}) with e_0 = 0
and 0 <= e_i <= i; there are exactly n! of them.  The tracked statistics:

  inv    strict descent pairs i < j with e_i > e_j
  sum    sum of the entries
  noz    number of zero entries
  dist   number of distinct entries
  tel    n - dist (repeated-value slack)
  uel    n - max(e) - 1 (untouched values above the maximum)
  maxent largest entry

The joint generating polynomial over all of I_n assigns
x^noz y^tel z^uel p^sum q^inv to each sequence.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import Counter, defaultdict
from itertools import chain, combinations, compress, product, repeat, starmap
from operator import add, gt, mul
from typing import Iterable, Iterator, NamedTuple, Sequence

from .polyring import MultiPoly, QLaurent
from .qcalc import q_pascal, slot_width, unpack

InvSeq = tuple[int, ...]

#: enumeration guard; 12! is the largest sweep that stays desk-scale
MAX_ENUM_LENGTH = 12

#: guard for whole-I_n polynomial accumulation
MAX_BRUTE_LENGTH = 10

#: guard for `brute_class_polys`, the I_n walk regrouped by frequency class
MAX_CLASS_LENGTH = 9


class SeqStats(NamedTuple):
    inv: int
    sum: int
    noz: int
    dist: int
    tel: int
    uel: int
    maxent: int


def validate(e: Iterable[int]) -> InvSeq:
    """Check the defining bounds and return e as a tuple."""
    e = tuple(e)
    if not e:
        raise ValueError("inversion sequence must be nonempty")
    for i, v in enumerate(e):
        if type(v) is not int or v < 0 or v > i:  # refuses bool too
            raise ValueError(f"entry e_{i}={v!r} violates 0 <= e_i <= i")
    return e


def inversion_sequences(n: int) -> Iterator[InvSeq]:
    """All of I_n in lexicographic order, for n up to MAX_ENUM_LENGTH:
    the product range(1) x range(2) x ... x range(n).  The bounds are
    checked at the call, before any sequence is made."""
    if n < 1:
        raise ValueError("length must be >= 1")
    if n > MAX_ENUM_LENGTH:
        raise ValueError(f"length {n} above enumeration bound {MAX_ENUM_LENGTH}")
    return product(*map(range, range(1, n + 1)))


def inversions(w: Sequence[int]) -> int:
    """Pairs i < j with w_i > w_j, for any word of ints; equal entries
    make no inversion.

    >>> inversions((2, 0, 2, 1, 0))
    6
    """
    return sum(starmap(gt, combinations(w, 2)))


def walk_keys(n: int) -> Iterator[int]:
    """One int key per member of I_n, in `inversion_sequences(n)` order,
    for n up to MAX_ENUM_LENGTH; the bounds are checked at the call.

    A key is code << 7 | inv, where code = sum of 16**v over the entries
    holds the frequency vector one nibble per value: a count is at most
    n <= 12 < 16, and inv at most C(12, 2) = 66 < 128.  A member is a
    prefix p in I_{n-1} followed by a last entry v, and the inversions
    ending at v are the entries of p above it (the inversion table view,
    Knuth, TAOCP Vol. 3, 5.1.1):
    key(p v) = key(p) + (16**v << 7) + (n - 1) - bisect_right(sorted(p), v).
    That step depends on p only through its class, so each prefix class
    gets its step list once per call, mapped in C onto its prefixes' keys.

    >>> [key & 127 for key in walk_keys(3)]
    [0, 0, 0, 1, 0, 0]
    """
    inversion_sequences(n)  # checks the bounds at the call
    if n == 1:
        return iter((1 << 7,))
    top, steps = n - 1, {}

    def members(key: int) -> Iterator[int]:
        code = key >> 7
        step = steps.get(code)
        if step is None:
            entries = [v for v in range(top) for _ in range(code >> 4 * v & 15)]
            step = steps[code] = [(1 << 4 * v + 7) + top - bisect_right(entries, v)
                                  for v in range(n)]
        return map(add, repeat(key), step)

    return chain.from_iterable(map(members, walk_keys(n - 1)))


def sequence_stats(e: Iterable[int]) -> SeqStats:
    """All five statistics (plus dist and maxent) in one pass.

    >>> sequence_stats((0, 0, 0, 2, 4, 0, 5))
    SeqStats(inv=2, sum=11, noz=4, dist=4, tel=3, uel=1, maxent=5)
    """
    e = validate(e)
    n = len(e)
    dist = len(set(e))
    mx = max(e)
    return SeqStats(inversions(e), sum(e), e.count(0), dist, n - dist,
                    n - mx - 1, mx)


def occurrence_counts(e: Iterable[int]) -> tuple[int, ...]:
    """Frequency vector (|e|_0, ..., |e|_{n-1}); |e|_j counts entries equal j."""
    e = validate(e)
    counts = [0] * len(e)
    for v in e:
        counts[v] += 1
    return tuple(counts)


def _class_tally(n: int) -> dict[tuple[int, ...], dict[int, int]]:
    """I_n grouped by frequency vector: {vector: {inv: count}}, from one
    pass (not cached) of `walk_keys(n)`, one Counter of int keys.

    Only the Counter of (class, inv) keys and the tally regrouped from it
    are held, and each class's code is decoded once.  Vectors come in the
    order the walk first meets them."""
    tally: defaultdict[int, dict[int, int]] = defaultdict(dict)
    for key, c in Counter(walk_keys(n)).items():
        tally[key >> 7][key & 127] = c
    return {tuple(code >> 4 * v & 15 for v in range(n)): invs
            for code, invs in tally.items()}


def brute_joint_poly(n: int) -> MultiPoly:
    """Sum of x^noz y^tel z^uel p^sum q^inv over all of I_n, by enumeration:
    the statistics other than inv are read off each frequency vector of
    `_class_tally`.  Classes can share those, so their counts are summed."""
    if n < 1 or n > MAX_BRUTE_LENGTH:
        raise ValueError(f"length must be in 1..{MAX_BRUTE_LENGTH}")
    out: dict[tuple[int, ...], int] = {}
    get = out.get
    for v, invs in _class_tally(n).items():
        used = list(compress(range(n), v))  # the distinct entries, ascending
        stats = (v[0], n - len(used), n - used[-1] - 1, sum(map(mul, range(n), v)))
        for inv, c in invs.items():
            key = (*stats, inv)
            out[key] = get(key, 0) + c
    return MultiPoly._raw(out)


def _validate_counts(counts: Iterable[int]) -> tuple[int, ...]:
    v = tuple(counts)
    n = len(v)
    if n < 1:
        raise ValueError("frequency vector must be nonempty")
    if any(type(c) is not int for c in v):
        raise ValueError("multiplicities must be ints")
    if any(c < 0 for c in v):
        raise ValueError("negative multiplicity")
    if sum(v) != n:
        raise ValueError("multiplicities must sum to the length")
    for j, c in enumerate(v):
        if c > n - j:
            raise ValueError(f"value {j} fits at most {n - j} slots, got {c}")
    return v


def fixed_freq_poly(counts: Iterable[int]) -> QLaurent:
    """Inversion generating polynomial of the sequences with a fixed
    frequency vector, as a product of Gaussian binomials.

    Scanning values from high to low, value j has m_j = n - j - (number of
    entries above j) admissible slots and contributes qbinom(m_j, |e|_j).
    A slot deficit makes some factor vanish, so vectors realized by no
    sequence give 0 rather than an error.

    The factors are packed (`qcalc.q_pascal` at q = 2**(8 * width),
    `qcalc.slot_width`) and multiplied as ints, then unpacked once.
    """
    v = _validate_counts(counts)
    n = len(v)
    width = slot_width(n)
    pascal = q_pascal(n, 1 << 8 * width)
    result = 1
    above = 0  # entries with value > j
    for j in range(n - 1, -1, -1):
        m = n - j - above
        if v[j] > m:
            return QLaurent.zero()
        result *= pascal[m][v[j]]
        above += v[j]
    return QLaurent._summed(dict(enumerate(unpack(result, width))))


def brute_class_polys(n: int) -> dict[tuple[int, ...], QLaurent]:
    """The inversion polynomial of every frequency class met in I_n, read
    off `_class_tally` (oracle path).  Vectors realized by no sequence are
    absent."""
    if n > MAX_CLASS_LENGTH:
        raise ValueError(f"brute-force bound is length {MAX_CLASS_LENGTH}")
    return {v: QLaurent(c) for v, c in _class_tally(n).items()}


def frequency_vectors(n: int) -> Iterator[tuple[int, ...]]:
    """All vectors v with sum(v) = n and v_j <= n - j (value bounds only)."""
    if n < 1:
        raise ValueError("length must be >= 1")

    def rec(j: int, remaining: int, prefix: list[int]) -> Iterator[tuple[int, ...]]:
        if j == n:
            if remaining == 0:
                yield tuple(prefix)
            return
        for c in range(min(remaining, n - j) + 1):
            prefix.append(c)
            yield from rec(j + 1, remaining - c, prefix)
            prefix.pop()

    return rec(0, n, [])
