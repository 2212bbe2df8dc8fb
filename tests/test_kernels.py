"""The per-sequence statistics, the walks of the enumeration oracles and
the packed fixed-frequency product, each against the loop it replaced,
kept here as the reference."""

import math
import sys
from bisect import bisect_right
from collections import Counter, defaultdict

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from invq import invseq, qcalc, recurrence
from invq.identities import euler_mahonian_poly, max_displacement_counts, permutations
from invq.invseq import (
    _validate_counts,
    brute_class_polys,
    brute_joint_poly,
    fixed_freq_poly,
    frequency_vectors,
    inversion_sequences,
    inversions,
    occurrence_counts,
    sequence_stats,
    validate,
    walk_keys,
)
from invq.paths import (
    DyckStats,
    _dyck_core,
    _dyck_tally,
    _path_core,
    catalan,
    dyck_stats,
    lattice_paths,
    path_from_sequence,
    weakly_increasing_sequences,
)
from invq.polyring import MultiPoly, QLaurent
from invq.qcalc import q_binomial, slot_width, unpack
from invq.qstirling import _augmented_by_zero_count, distinct_nonzero_sequences
from invq.recurrence import joint_poly

# ------------------------------------------------------ reference loops


def inversions_loop(w):
    n = len(w)
    inv = 0
    for i in range(n - 1):
        wi = w[i]
        for j in range(i + 1, n):
            if wi > w[j]:
                inv += 1
    return inv


def descent_count_loop(sigma):
    return sum(1 for i in range(len(sigma) - 1) if sigma[i] > sigma[i + 1])


def major_index_loop(sigma):
    return sum(i + 1 for i in range(len(sigma) - 1) if sigma[i] > sigma[i + 1])


def augmented_inversions_loop(e):
    # the defining count: e with the values of 1..n-1 it does not use
    # appended in ascending order, and the inversions of that word
    return inversions_loop(e + tuple(v for v in range(1, len(e)) if v not in e))


def path_from_sequence_loop(e):
    e = validate(e)
    n = len(e)
    if any(e[i] > e[i + 1] for i in range(n - 1)):
        raise ValueError("sequence must be weakly increasing")
    pieces = []
    for i in range(n):
        pieces.append("E")
        nxt = e[i + 1] if i + 1 < n else n
        pieces.append("N" * (nxt - e[i]))
    return "".join(pieces)


def dyck_stats_loop(word):
    # the running height, letter by letter: a peak is an E then an N, read
    # at its top; a valley an N then an E; a return an N landing on 0
    height = peaks = valleys = returns = first_peak = last_peak = 0
    prev = None
    for ch in word:
        if ch == "E":
            if prev == "N":
                valleys += 1
            height += 1
        else:
            if prev == "E":
                peaks += 1
                if peaks == 1:
                    first_peak = height
                last_peak = height
            height -= 1
            if height == 0:
                returns += 1
        prev = ch
    return peaks, valleys, returns, first_peak, last_peak


def fixed_freq_poly_product(counts):
    v = _validate_counts(counts)
    n = len(v)
    result = QLaurent.one()
    above = 0
    for j in range(n - 1, -1, -1):
        m = n - j - above
        if v[j] > m:
            return QLaurent.zero()
        result = result * q_binomial(m, v[j])
        above += v[j]
    return result


def unpack_loop(poly, width):
    data = poly.to_bytes(-(-poly.bit_length() // (8 * width)) * width, "little")
    return [int.from_bytes(data[i:i + width], "little")
            for i in range(0, len(data), width)]


def sorted_items_tuple_key(poly):
    return sorted(poly.items(), key=lambda kv: (sum(kv[0]), kv[0]), reverse=True)


def brute_joint_poly_stats(n):
    return MultiPoly(Counter((s.noz, s.tel, s.uel, s.sum, s.inv)
                             for s in map(sequence_stats, inversion_sequences(n))))


def brute_class_polys_loop(n):
    groups = defaultdict(Counter)
    for e in inversion_sequences(n):
        groups[tuple(sorted(e))][inversions(e)] += 1
    return {occurrence_counts(w): QLaurent(c) for w, c in groups.items()}


def max_displacement_counts_loop(n):
    counts = [0] * n
    for sigma in permutations(n):
        counts[max(v - i for i, v in enumerate(sigma, start=1))] += 1
    return counts


def augmented_by_zero_count_loop(n):
    counts = [Counter() for _ in range(n + 1)]
    for e in distinct_nonzero_sequences(n):
        counts[e.count(0)][augmented_inversions_loop(e)] += 1
    return [QLaurent(c) for c in counts]


def euler_mahonian_poly_loop(n):
    return MultiPoly(Counter((descent_count_loop(sigma), 0, 0, 0,
                              major_index_loop(sigma))
                             for sigma in permutations(n)))


# --------------------------------------------------- exhaustive sweeps

@pytest.mark.parametrize("n", range(1, 9))
def test_inversion_sequence_kernels_match_loops(n):
    for e in inversion_sequences(n):
        assert inversions(e) == inversions_loop(e), e


@pytest.mark.parametrize("n", range(1, 10))
def test_walk_inversions_matches_inversion_counts(n):
    # each key decoded, in walk order: the frequency vector from its
    # nibbles above bit 7 and the prefix-counted inversions from its low
    # 7 bits, against occurrence_counts and the pair counter
    decoded = [(tuple(key >> 4 * v + 7 & 15 for v in range(n)), key & 127)
               for key in walk_keys(n)]
    assert decoded == [(occurrence_counts(e), inversions(e))
                       for e in inversion_sequences(n)]


@pytest.mark.parametrize("n", [0, -1, 13])
def test_walk_inversions_refuses_length_at_the_call(n):
    # the key layout holds up to the bound 12: a count is at most 12 < 16
    # (one nibble) and inv at most C(12, 2) = 66 < 128 (7 bits)
    with pytest.raises(ValueError, match="length"):
        walk_keys(n)


@pytest.mark.parametrize("n", [2, 5, 8])
def test_walk_keys_steps_once_per_prefix_class_per_call(n, monkeypatch):
    # one step list of k + 1 bisects per class of I_k, k < n, on every
    # call: not one per prefix, and none kept from an earlier call
    calls = []

    def counted(entries, v):
        calls.append(v)
        return bisect_right(entries, v)

    monkeypatch.setattr(invseq, "bisect_right", counted)
    for _ in range(2):
        calls.clear()
        assert sum(1 for _ in walk_keys(n)) == math.factorial(n)
        assert len(calls) == sum(catalan(k) * (k + 1) for k in range(1, n))


def test_enumeration_oracles_read_no_class_scan(monkeypatch):
    # the oracles of the class scan and the packed product read neither,
    # under any name a module binds them to
    def refuse(*args, **kwargs):
        raise AssertionError("an enumeration oracle read a route it checks")

    for module in (qcalc, invseq, recurrence):
        for name in ("q_pascal", "_class_scan", "fixed_freq_poly"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, refuse)
    assert brute_joint_poly(6) == brute_joint_poly_stats(6)
    assert brute_class_polys(6) == brute_class_polys_loop(6)


@pytest.mark.parametrize("n", range(1, 9))
def test_brute_joint_poly_matches_sequence_stats(n):
    # classes sharing (noz, tel, uel, sum) must add their counts
    assert brute_joint_poly(n) == brute_joint_poly_stats(n)


@pytest.mark.parametrize("n", range(1, 10))
def test_brute_class_polys_matches_loop(n):
    got, expected = brute_class_polys(n), brute_class_polys_loop(n)
    assert got == expected
    assert list(got) == list(expected)  # the walk's first-met order


@pytest.mark.parametrize("n", range(1, 9))
def test_max_displacement_counts_match_loop(n):
    assert max_displacement_counts(n) == max_displacement_counts_loop(n)


@pytest.mark.parametrize("n", range(1, 10))
def test_augmented_by_zero_count_matches_loop(n):
    assert _augmented_by_zero_count.__wrapped__(n) == \
        augmented_by_zero_count_loop(n)


@pytest.mark.parametrize("n", range(1, 9))
def test_euler_mahonian_poly_matches_loop(n):
    assert euler_mahonian_poly.__wrapped__(n) == euler_mahonian_poly_loop(n)


@pytest.mark.parametrize("n", range(1, 8))
def test_permutation_kernels_match_loops(n):
    for sigma in permutations(n):
        assert inversions(sigma) == inversions_loop(sigma), sigma


@pytest.mark.parametrize("n", range(1, 11))
def test_path_from_sequence_matches_loop(n):
    for e in weakly_increasing_sequences(n):
        assert path_from_sequence(e) == _path_core(e) == \
            path_from_sequence_loop(e), e


@pytest.mark.parametrize("n", range(1, 10))
def test_dyck_core_and_dyck_stats_match_loop(n):
    expected_tally = Counter()
    for w in lattice_paths(n):
        expected = dyck_stats_loop(w)
        assert _dyck_core(w) == expected, w
        stats = dyck_stats(w)
        assert type(stats) is DyckStats and stats == expected, w
        expected_tally[expected] += 1
    tally = _dyck_tally.__wrapped__(n)
    assert all(type(k) is DyckStats for k in tally)
    assert tally == expected_tally
    assert sum(tally.values()) == catalan(n)


# ----------------------------------------------------- random int words

words = st.one_of(st.lists(st.integers(min_value=-4, max_value=4), max_size=20),
                  st.lists(st.integers(min_value=-4, max_value=4),
                           max_size=20).map(tuple))


@settings(max_examples=300, deadline=None)
@given(words)
@example([])
@example((7,))
@example([3, 3, 3])
@example((-1, -2, 5, -2, 0))
def test_word_kernels_match_loops(w):
    assert inversions(w) == inversions_loop(w)


# ------------------------------------------- path_from_sequence errors

def _outcome(fn, e):
    try:
        return fn(e)
    except ValueError as exc:
        return f"ValueError: {exc}"


def test_path_from_sequence_errors_match_loop():
    bad = [(), [], (1,), (0, 2), (0, True), (0, -1), (0, 1.0), (0, 1, 0),
           (0, 0, 2, 1), [0, 1, 2, 0]]
    for n in range(1, 7):
        bad.extend(inversion_sequences(n))  # mostly not weakly increasing
    for e in bad:
        assert _outcome(path_from_sequence, e) == \
            _outcome(path_from_sequence_loop, e), e
    assert _outcome(path_from_sequence, (0, 1, 0)) == \
        "ValueError: sequence must be weakly increasing"
    assert _outcome(path_from_sequence, (0, 2)) == \
        "ValueError: entry e_1=2 violates 0 <= e_i <= i"
    assert _outcome(path_from_sequence, ()) == \
        "ValueError: inversion sequence must be nonempty"


# ------------------------------------------------- packed q-binomials

@pytest.mark.parametrize("n", [*range(1, 10), 21, 22])
def test_fixed_freq_poly_matches_qlaurent_product(n):
    # every frequency vector, unrealizable ones (value 0) included; from
    # n = 21 (9-byte slots) every valid (a, b, c, 0, ..., 0) with a >= 1
    vectors = frequency_vectors(n) if n < 10 else [
        (a, b, n - a - b, *[0] * (n - 3))
        for a in range(1, n + 1) for b in range(n - a + 1) if a + b >= 2]
    assert n < 10 or slot_width(n) == 9
    for v in vectors:
        assert fixed_freq_poly(v) == fixed_freq_poly_product(v), v


@pytest.mark.parametrize("width", range(1, 11))
def test_unpack_matches_loop(width, monkeypatch):
    # width 8 reads through one memoryview on a little-endian host, and is
    # run again as on a big-endian one, through the generic slot loop;
    # zeros inside and a full top slot too
    top = 2 ** (8 * width) - 1
    for byteorder in (sys.byteorder, "big") if width == 8 else (sys.byteorder,):
        monkeypatch.setattr(sys, "byteorder", byteorder)
        for coeffs in ([], [0], [1], [top], [5, 0, 0, top, 1], [0, 3, 0],
                       list(range(1, 40))):
            packed = sum(c << (8 * width * e) for e, c in enumerate(coeffs))
            got = unpack(packed, width)
            assert got == unpack_loop(packed, width), (width, byteorder, coeffs)
            assert type(got) is list and all(type(c) is int for c in got)
            while coeffs and not coeffs[-1]:
                coeffs = coeffs[:-1]
            assert got == coeffs


def test_slot_width_rule():
    # bits(n! * scale) + 1 bits: 8 bytes while they fit, then whole bytes
    for n in range(1, 40):
        for scale in (1, 3 ** 10, 10 ** 30):
            bits = (math.factorial(n) * scale).bit_length() + 1
            width = slot_width(n, scale)
            assert width == (8 if bits <= 64 else -(-bits // 8)), (n, scale)
    assert [slot_width(n) for n in (1, 20, 21, 22)] == [8, 8, 9, 9]


@pytest.mark.parametrize("n", range(1, 13))
def test_fixed_freq_packing_never_carries(n):
    # A carry out of a slot lowers the sum of the unpacked coefficients by
    # a multiple of 2**(8 * width) - 1, so the value at q = 1 matching the
    # class size prod C(m_j, v_j) shows that no coefficient reached
    # 2**(8 * width).  Every realizable vector up to n = 10; beyond, every
    # 23rd and the largest class.
    bound = 2 ** (8 * slot_width(n))
    vectors = [occurrence_counts(e) for e in weakly_increasing_sequences(n)]

    def class_size(v):
        size, above = 1, 0
        for j in range(n - 1, -1, -1):
            size *= math.comb(n - j - above, v[j])
            above += v[j]
        return size

    if n > 10:
        vectors = vectors[::23] + [max(vectors, key=class_size)]
    for v in vectors:
        poly = fixed_freq_poly(v)
        assert poly.evaluate(1) == class_size(v), v
        assert max(c for _, c in poly.items()) < bound


# ------------------------------------------------------ canonical order

@settings(max_examples=150, deadline=None)
@given(st.dictionaries(
    st.tuples(*(st.integers(min_value=0, max_value=4) for _ in range(5))),
    st.integers(min_value=-9, max_value=9), max_size=30))
def test_sorted_items_matches_tuple_key(terms):
    poly = MultiPoly(terms)
    assert poly.sorted_items() == sorted_items_tuple_key(poly)


def test_sorted_items_of_joint_poly():
    poly = joint_poly(8)
    assert poly.sorted_items() == sorted_items_tuple_key(poly)
