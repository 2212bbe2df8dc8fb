"""Weakly increasing inversion sequences, lattice paths, and the q = -1 involution.

A weakly increasing inversion sequence corresponds to a lattice path from
(0, 0) to (n, n) staying weakly below the diagonal: read off
E N^(e_1 - e_0) E N^(e_2 - e_1) ... E N^(n - e_{n-1}).  Words are strings
over the alphabet {E, N}; mapping E to an up-step and N to a down-step
turns them into Dyck paths, whose peak/valley/return statistics mirror the
sequence statistics.

The module also hosts the sign-reversing involution behind the q = -1
evaluation of the inversion-count marginal: a backward scan that either
certifies an entry as inert or swaps one adjacent pair and stops.  Its
fixed points are counted by the involution numbers.
"""

from __future__ import annotations

import math
from collections import Counter
from functools import cache
from typing import Callable, Hashable, Iterator, NamedTuple

from .invseq import InvSeq, validate
from .polyring import MultiPoly

LatticePath = str

_SWAP = str.maketrans("EN", "NE")


class DyckStats(NamedTuple):
    peaks: int
    valleys: int
    returns: int
    first_peak_height: int
    last_peak_height: int


# ------------------------------------------------------------- enumeration

def weakly_increasing_sequences(n: int) -> Iterator[InvSeq]:
    """The Catalan-many weakly increasing members of I_n, lexicographically.

    An odometer over the digits e_1 .. e_{n-1}: the last digit runs from
    its current value to its bound n - 1 in an inner loop; then the last
    digit below its bound i steps up, and every digit after it is reset to
    that new value instead of to 0, so only weakly increasing words are
    visited and the carry is scanned once per prefix, not once per word.
    The length is checked at the call, before any sequence is made.
    """
    if n < 1:
        raise ValueError("length must be >= 1")

    def walk() -> Iterator[InvSeq]:
        e = [0] * n
        last = n - 1
        while True:
            for v in range(e[last], n):
                e[last] = v
                yield tuple(e)
            i = last - 1
            while i > 0 and e[i] == i:
                i -= 1
            if i <= 0:
                return
            e[i:] = [e[i] + 1] * (n - i)

    return walk()


def lattice_paths(n: int) -> Iterator[LatticePath]:
    """All E/N words of semilength n weakly below the diagonal, E before N:
    each next word turns the last E that can become an N into one, then
    writes the remaining Es before the Ns.  The semilength is checked at
    the call, before any word is made.

    >>> list(lattice_paths(3))
    ['EEENNN', 'EENENN', 'EENNEN', 'ENEENN', 'ENENEN']
    """
    if n < 1:
        raise ValueError("semilength must be >= 1")

    def walk() -> Iterator[LatticePath]:
        word, last = "E" * n + "N" * n, "EN" * n
        yield word
        while word != last:
            easts = norths = n  # counted before position i as i falls
            i = 2 * n
            while norths >= easts:
                j = word.rfind("E", 0, i)  # the Ns between j and i go at once
                norths -= i - j - 1
                easts -= 1
                i = j
            word = word[:i] + "N" + "E" * (n - easts) + "N" * (n - norths - 1)
            yield word

    return walk()


def validate_path(word: str) -> str:
    """Check the subdiagonal path conditions and return the word."""
    if not isinstance(word, str):
        raise ValueError(f"word must be a str, got {type(word).__name__}")
    if not word or len(word) % 2:
        raise ValueError("word length must be a positive even number")
    easts = norths = 0
    for ch in word:
        if ch == "E":
            easts += 1
        elif ch == "N":
            norths += 1
        else:
            raise ValueError(f"letters must be E or N, got {ch!r}")
        if norths > easts:
            raise ValueError("path crosses the diagonal")
    if easts != norths:
        raise ValueError("path must end on the diagonal")
    return word


# --------------------------------------------------------------- bijection

def path_from_sequence(e: InvSeq) -> LatticePath:
    """E N^(e_1-e_0) E N^(e_2-e_1) ... E N^(n-e_{n-1}) for weakly increasing e.

    >>> path_from_sequence((0, 1, 1, 2))
    'ENEENENN'
    """
    return _path_core(validate(e))


def _path_core(e: InvSeq) -> LatticePath:
    """path_from_sequence of a tuple already known to be in I_n: the
    (i+1)-st E follows i Es and e_i Ns, so it sits at position i + e_i."""
    word = bytearray(b"N" * (2 * len(e)))
    last = 0
    for i, v in enumerate(e):
        if v < last:
            raise ValueError("sequence must be weakly increasing")
        word[i + v] = 69  # ord("E")
        last = v
    return word.decode()


def sequence_from_path(word: LatticePath) -> InvSeq:
    """Inverse reading: e_i is the height (N-count) before the (i+1)-st E.

    >>> sequence_from_path('EENENNEN')
    (0, 0, 1, 3)
    """
    return _sequence_core(validate_path(word))


def _sequence_core(word: LatticePath) -> InvSeq:
    """sequence_from_path of a word already known to be a path."""
    e = []
    norths = 0
    for ch in word:
        if ch == "E":
            e.append(norths)
        else:
            norths += 1
    return tuple(e)


def reverse_swap(word: LatticePath) -> LatticePath:
    """Reverse the word and exchange E with N; an involution on paths.

    >>> reverse_swap('ENEENENN')
    'EENENNEN'
    """
    validate_path(word)
    return word[::-1].translate(_SWAP)


def dyck_stats(word: LatticePath) -> DyckStats:
    """Peak, valley and return statistics of the Dyck view of the word.

    A peak is an EN factor, a valley an NE factor, a return an N-step
    landing on the diagonal (a zero of the running height).  Peak heights
    are measured at the top: the first peak has every E before the first
    N below it, the last peak every N after the last E.
    """
    return DyckStats._make(_dyck_core(validate_path(word)))


def _dyck_core(word: LatticePath) -> tuple[int, int, int, int, int]:
    """The fields of dyck_stats, as a plain tuple, of a word already known
    to be a path."""
    height = returns = 0
    for ch in word:
        if ch == "E":
            height += 1
        else:
            height -= 1
            if not height:
                returns += 1
    return (word.count("EN"), word.count("NE"), returns,
            word.index("N"), len(word) - 1 - word.rindex("E"))


# ---------------------------------------------------- q = -1 sign involution

def sign_reversing_involution(e: InvSeq) -> InvSeq:
    """Backward scan; swap the first non-inert adjacent pair, if any.

    From i = n-1 downward: an entry with e_i = i is inert (step to i-1);
    a repeat e_i = e_{i-1} freezes the pair (jump to i-2); otherwise swap
    e_{i-1} and e_i and stop.  Sequences surviving the whole scan are the
    fixed points.  A swap changes the inversion count by exactly one, so
    the map cancels non-fixed sequences in pairs under q = -1.

    >>> sign_reversing_involution((0, 0, 0, 1))
    (0, 0, 1, 0)
    """
    return _involution_core(validate(e))


def _involution_core(e: InvSeq) -> InvSeq:
    """sign_reversing_involution of a tuple already known to be in I_n."""
    w = list(e)
    i = len(w) - 1
    while i >= 1:
        if w[i] == i:
            i -= 1
            continue
        if w[i] == w[i - 1]:
            i -= 2
            continue
        # e_0 = 0 makes both rules apply at i = 1, so no swap reaches slot 0
        assert i >= 2, "swap would touch the forced leading zero"
        w[i - 1], w[i] = w[i], w[i - 1]
        return tuple(w)
    return e


def involution_number(n: int) -> int:
    """Number of involutions in the symmetric group S_n:
    a(n) = a(n-1) + (n-1) a(n-2), a(0) = a(1) = 1."""
    if n < 0:
        raise ValueError("needs n >= 0")
    prev, cur = 1, 1
    for m in range(2, n + 1):
        prev, cur = cur, cur + (m - 1) * prev
    return cur if n else 1


# ----------------------------------------------------- counting / triangles

def catalan(n: int) -> int:
    """n-th Catalan number C(2n, n) / (n + 1)."""
    if n < 0:
        raise ValueError("needs n >= 0")
    return math.comb(2 * n, n) // (n + 1)


def narayana(n: int, k: int) -> int:
    """Dyck paths of semilength n with exactly k valleys."""
    if n < 1 or k < 0 or k > n - 1:
        return 0
    return math.comb(n, k + 1) * math.comb(n, k) // n


def narayana_row(n: int) -> list[int]:
    return [narayana(n, k) for k in range(n)]


def returns_triangle_row(n: int) -> list[int]:
    """Dyck paths of semilength n by number of returns, k = 1..n: the
    ballot numbers k C(2n - k - 1, n - 1) / n.
    """
    if n < 1:
        raise ValueError("needs n >= 1")
    return [k * math.comb(2 * n - k - 1, n - 1) // n for k in range(1, n + 1)]


@cache
def _dyck_tally(n: int) -> Counter:
    """Paths of semilength n by DyckStats: the one walk the readers below
    share.  The walk builds its members valid, so the unvalidated core
    reads them, and each distinct key becomes a DyckStats once."""
    tally = Counter(map(_dyck_core, lattice_paths(n)))
    return Counter({DyckStats._make(k): c for k, c in tally.items()})


def dyck_distribution(n: int, key: Callable[[DyckStats], Hashable]) -> Counter:
    """Paths of semilength n counted by key(their DyckStats), fresh each
    call: one key per distinct DyckStats, weighted by its path count."""
    out: Counter = Counter()
    for stats, count in _dyck_tally(n).items():
        out[key(stats)] += count
    return out


def peak_height_poly(n: int) -> MultiPoly:
    """sum over paths of x^(first peak height) * z^(last peak height).

    Computed over weakly increasing sequences e: the number of zeros gives
    the first peak height and n - e[-1] (which is uel + 1) the last, so this
    is z * (q = 0 slice of the joint polynomial at y = p = 1).  Symmetric
    in x and z via reverse_swap.
    """
    return MultiPoly(Counter((e.count(0), 0, n - e[-1], 0, 0)
                             for e in weakly_increasing_sequences(n)))
