"""Path bijection, Dyck statistics, and the q = -1 sign involution."""

import itertools
import math
from collections import Counter
from operator import attrgetter

import pytest

from invq.invseq import frequency_vectors, inversion_sequences, sequence_stats
from invq.paths import (
    DyckStats,
    _dyck_core,
    _path_core,
    _sequence_core,
    catalan,
    dyck_distribution,
    dyck_stats,
    involution_number,
    lattice_paths,
    narayana,
    narayana_row,
    path_from_sequence,
    peak_height_poly,
    returns_triangle_row,
    reverse_swap,
    sequence_from_path,
    sign_reversing_involution,
    validate_path,
    weakly_increasing_sequences,
)
from invq.qstirling import distinct_nonzero_sequences
from invq.recurrence import joint_poly, peak_sum_row

# verbatim worked pairs for the sign involution at n = 4
TAU_PAIRS = {
    (0, 0, 0, 1): (0, 0, 1, 0),
    (0, 0, 0, 2): (0, 0, 2, 0),
    (0, 1, 0, 1): (0, 1, 1, 0),
    (0, 1, 0, 2): (0, 1, 2, 0),
    (0, 0, 2, 1): (0, 0, 1, 2),
    (0, 0, 1, 3): (0, 1, 0, 3),
    (0, 1, 2, 1): (0, 1, 1, 2),
}

TAU_FIXED_N4 = {
    (0, 0, 0, 0), (0, 0, 0, 3), (0, 0, 1, 1), (0, 0, 2, 2), (0, 0, 2, 3),
    (0, 1, 0, 0), (0, 1, 2, 3), (0, 1, 2, 2), (0, 1, 1, 1), (0, 1, 1, 3),
}


# --------------------------------------------------------------- bijection

def test_path_from_sequence_example():
    assert path_from_sequence((0, 1, 1, 2)) == "ENEENENN"


def test_sequence_from_path_example():
    assert sequence_from_path("EENENNEN") == (0, 0, 1, 3)


def test_round_trip_small():
    for n in range(1, 9):
        for e in weakly_increasing_sequences(n):
            assert sequence_from_path(path_from_sequence(e)) == e
        for w in lattice_paths(n):
            assert path_from_sequence(sequence_from_path(w)) == w


def test_counts_are_catalan():
    for n in range(1, 10):
        assert sum(1 for _ in weakly_increasing_sequences(n)) == catalan(n)
        assert sum(1 for _ in lattice_paths(n)) == catalan(n)


@pytest.mark.parametrize("n", range(1, 10))
def test_weakly_increasing_matches_filtered_enumeration(n):
    assert list(weakly_increasing_sequences(n)) == [
        e for e in inversion_sequences(n) if e == tuple(sorted(e))]


@pytest.mark.parametrize("walk", [weakly_increasing_sequences,
                                  lattice_paths, distinct_nonzero_sequences,
                                  frequency_vectors])
@pytest.mark.parametrize("n", [0, -1])
def test_walks_refuse_length_at_the_call(walk, n):
    # the refusal comes from the call itself, with nothing iterated
    with pytest.raises(ValueError, match="length"):
        walk(n)


def _is_path(word):
    try:
        return validate_path(word) == word
    except ValueError:
        return False


@pytest.mark.parametrize("n", range(1, 9))
def test_lattice_paths_match_filtered_words(n):
    # every E/N word that validate_path accepts, in sorted (E < N) order;
    # one word past the end is read, so a walk that never stops fails
    words = ("".join(w) for w in itertools.product("EN", repeat=2 * n))
    expected = sorted(filter(_is_path, words))
    walk = lattice_paths(n)
    assert list(itertools.islice(walk, len(expected) + 1)) == expected


def test_validate_path_rejects():
    for bad in ("EX", "NE", "EENNN", "ENNE", ""):
        with pytest.raises(ValueError):
            validate_path(bad)
    assert validate_path("EN") == "EN"


@pytest.mark.parametrize("word", [["E", "N"], ("E", "N"), b"EN"],
                         ids=["list", "tuple", "bytes"])
@pytest.mark.parametrize("fn", [validate_path, sequence_from_path,
                                reverse_swap, dyck_stats],
                         ids=attrgetter("__name__"))
def test_path_maps_refuse_a_word_that_is_not_a_str(fn, word):
    with pytest.raises(ValueError, match="word must be a str, got "
                       + type(word).__name__):
        fn(word)


def test_non_monotone_sequence_rejected():
    with pytest.raises(ValueError):
        path_from_sequence((0, 1, 0))


def test_cores_match_and_public_maps_validate():
    # the bijection check maps its walks' members with the unvalidated
    # cores; the public maps keep validating outside input
    for n in range(1, 9):
        for e, w in zip(weakly_increasing_sequences(n), lattice_paths(n)):
            assert _path_core(e) == path_from_sequence(e) == w
            assert _sequence_core(w) == sequence_from_path(w) == e
    for bad in ("EX", "NE", "EENNN", "ENNE", "", "EN\n"):
        with pytest.raises(ValueError):
            sequence_from_path(bad)
    for bad in ((0, 2), (1,), (), (0, True), (0, 1, 0)):
        with pytest.raises(ValueError):
            path_from_sequence(bad)


# -------------------------------------------------------------- dyck stats

def test_dyck_stats_worked():
    assert dyck_stats("EENENNEN") == DyckStats(
        peaks=3, valleys=2, returns=2,
        first_peak_height=2, last_peak_height=1)
    assert dyck_stats("EN") == DyckStats(1, 0, 1, 1, 1)
    assert dyck_stats("EEENNN") == DyckStats(1, 0, 1, 3, 3)


def test_dyck_core_matches_and_dyck_stats_validates():
    # the tally reads its walk's members with the unvalidated core; the
    # public dyck_stats keeps validating outside input
    for n in range(1, 10):
        for w in lattice_paths(n):
            assert _dyck_core(w) == dyck_stats(w)
    for bad in ("EX", "NE", "EENNN", "ENNE", "", "EN\n", "NNEE"):
        with pytest.raises(ValueError):
            dyck_stats(bad)


def test_reverse_swap_example_and_involution():
    assert reverse_swap("ENEENENN") == "EENENNEN"
    for n in range(1, 8):
        for w in lattice_paths(n):
            assert reverse_swap(reverse_swap(w)) == w


def test_reverse_swap_exchanges_peak_heights():
    for n in range(1, 8):
        for w in lattice_paths(n):
            s, t = dyck_stats(w), dyck_stats(reverse_swap(w))
            assert (s.first_peak_height, s.last_peak_height) \
                == (t.last_peak_height, t.first_peak_height)
            assert s.peaks == t.peaks


def test_stats_tie_to_sequence_stats():
    # first peak height = number of zeros; last = uel + 1
    for n in range(1, 8):
        for e in weakly_increasing_sequences(n):
            s = sequence_stats(e)
            d = dyck_stats(path_from_sequence(e))
            assert d.first_peak_height == s.noz
            assert d.last_peak_height == s.uel + 1


# ------------------------------------------------------------- involution τ

def test_involution_worked_pairs():
    for e, image in TAU_PAIRS.items():
        assert sign_reversing_involution(e) == image
        assert sign_reversing_involution(image) == e


def involution_fixed_points(n):
    return [e for e in inversion_sequences(n)
            if sign_reversing_involution(e) == e]


def test_involution_fixed_points_n4():
    assert set(involution_fixed_points(4)) == TAU_FIXED_N4
    assert len(TAU_FIXED_N4) == 10


@pytest.mark.parametrize("n", range(1, 8))
def test_involution_properties(n):
    fixed = 0
    for e in inversion_sequences(n):
        image = sign_reversing_involution(e)
        assert sign_reversing_involution(image) == e
        if image == e:
            fixed += 1
        else:
            # paired sequences differ by exactly one inversion
            assert abs(sequence_stats(e).inv - sequence_stats(image).inv) == 1
            assert sorted(e) == sorted(image)
    assert fixed == involution_number(n)


def test_involution_numbers():
    assert [involution_number(n) for n in range(9)] \
        == [1, 1, 2, 4, 10, 26, 76, 232, 764]


# ----------------------------------------------------------------- triangles

def test_catalan_values():
    assert [catalan(n) for n in range(10)] \
        == [1, 1, 2, 5, 14, 42, 132, 429, 1430, 4862]


def test_narayana_rows():
    assert narayana_row(4) == [1, 6, 6, 1]
    assert narayana_row(5) == [1, 10, 20, 10, 1]
    assert narayana(4, 4) == 0 and narayana(0, 0) == 0


def test_returns_triangle_rows():
    assert returns_triangle_row(1) == [1]
    assert returns_triangle_row(2) == [1, 1]
    assert returns_triangle_row(3) == [2, 2, 1]
    assert returns_triangle_row(6) == [42, 42, 28, 14, 5, 1]


def test_returns_closed_form():
    # k-th entry is (k / (2n - k)) * C(2n - k, n)
    for n in range(1, 10):
        row = returns_triangle_row(n)
        for k in range(1, n + 1):
            assert row[k - 1] == k * math.comb(2 * n - k, n) // (2 * n - k)


def test_returns_row_against_catalan():
    # the row sums to C_n, a first return at the end leaves C_{n-1}
    # paths, and only the zigzag path returns n times
    for n in range(1, 41):
        row = returns_triangle_row(n)
        assert len(row) == n
        assert sum(row) == catalan(n)
        assert row[0] == catalan(n - 1)
        assert row[-1] == 1


@pytest.mark.parametrize("n", range(1, 8))
def test_triangle_rows_match_enumeration(n):
    returns = dyck_distribution(n, attrgetter("returns"))
    assert [returns.get(k, 0) for k in range(1, n + 1)] \
        == returns_triangle_row(n)
    valleys = dyck_distribution(n, attrgetter("valleys"))
    assert [valleys.get(k, 0) for k in range(n)] == narayana_row(n)


@pytest.mark.parametrize("n", range(1, 8))
def test_returns_and_first_peak_equidistributed(n):
    assert (dyck_distribution(n, attrgetter("returns"))
            == dyck_distribution(n, attrgetter("first_peak_height")))


@pytest.mark.parametrize("n", range(1, 8))
def test_dyck_distribution_matches_per_path_counts(n):
    for key in (attrgetter("peaks"), attrgetter("returns", "valleys"),
                lambda s: s.first_peak_height - s.last_peak_height, tuple):
        assert dyck_distribution(n, key) == Counter(
            key(dyck_stats(w)) for w in lattice_paths(n))


def test_distributions_are_fresh_copies():
    returns = attrgetter("returns")
    first = dyck_distribution(5, returns)
    expected = Counter(first)
    first[1] += 100
    first[99] = 1
    assert dyck_distribution(5, returns) == expected


def test_peak_sum_rows():
    assert peak_sum_row(2) == [1, 0, 1]
    assert peak_sum_row(3) == [1, 2, 1, 0, 1]
    for n in range(1, 8):
        assert sum(peak_sum_row(n)) == catalan(n)


# --------------------------------------------------------- marginal tie-in

@pytest.mark.parametrize("n", range(1, 8))
def test_peak_height_poly_matches_joint_slice(n):
    z = peak_height_poly(n)
    slice_ = joint_poly(n).eval_partial({"y": 1, "p": 1, "q": 0})
    from invq.polyring import MultiPoly
    assert z == slice_ * MultiPoly.variable("z")


@pytest.mark.parametrize("n", range(1, 8))
def test_peak_height_poly_symmetric(n):
    f = peak_height_poly(n)
    swapped = {}
    for key, coeff in f.items():
        ex, ey, ez, ep, eq = key
        swapped[(ez, ey, ex, ep, eq)] = coeff
    from invq.polyring import MultiPoly
    assert f == MultiPoly(swapped)
