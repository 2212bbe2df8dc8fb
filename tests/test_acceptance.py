"""Acceptance gate: ten end-to-end criteria, one pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the [ACCEPT] lines
and the measured runtimes.  Every criterion is exact (integer polynomial
equality); the time limits are generous sanity bounds, not benchmarks.
"""

import math
import time
from collections import Counter
from contextlib import contextmanager
from operator import attrgetter

from invq.identities import (
    check_carlitz,
    check_eu_ma_operator,
    check_garsia,
    check_qpower,
    check_stirling_euler,
    max_displacement_counts,
)
from invq.invseq import (
    brute_joint_poly,
    fixed_freq_poly,
    frequency_vectors,
    inversion_sequences,
    inversions,
    occurrence_counts,
    sequence_stats,
)
from invq.oeis import expected_values
from invq.paths import (
    catalan,
    dyck_distribution,
    dyck_stats,
    involution_number,
    lattice_paths,
    narayana_row,
    peak_height_poly,
    returns_triangle_row,
    sign_reversing_involution,
    weakly_increasing_sequences,
)
from invq.polyring import MultiPoly, QLaurent
from invq.qoperator import (
    comtet_coeff_explicit,
    comtet_coeff_from_expansion,
    comtet_coeff_recurrence,
    expansion_from_sequences,
    operator_expansion,
    substitute_g,
)
from invq.qstirling import (
    milne_from_standard,
    star_from_standard,
    stirling2_q,
    stirling2_q_milne,
    stirling2_q_star,
)
from invq.recurrence import (
    inv_poly,
    joint_poly,
    p_factorial,
    peak_sum_row,
    product_formula,
    uel_distribution,
)


@contextmanager
def criterion(num: int, label: str, limit: float):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"[ACCEPT] criterion {num:2d} {label}: FAIL")
        raise
    elapsed = time.perf_counter() - start
    print(f"[ACCEPT] criterion {num:2d} {label}: PASS ({elapsed:.2f}s)")
    assert elapsed < limit, f"criterion {num} exceeded {limit}s ({elapsed:.2f}s)"


def test_criterion_01_golden_tables(golden_polys):
    with criterion(1, "golden tables", 1.0):
        for n in (1, 2, 3):
            assert joint_poly(n) == golden_polys[n]
        table = {
            1: {0: 1},
            2: {0: 2},
            3: {1: 1, 0: 5},
            4: {2: 3, 1: 7, 0: 14},
            5: {4: 3, 3: 11, 2: 28, 1: 36, 0: 42},
        }
        for n, terms in table.items():
            assert inv_poly(n) == QLaurent(terms)
        assert [inv_poly(n).evaluate(1) for n in range(1, 6)] \
            == [1, 2, 6, 24, 120]
        assert [inv_poly(n).evaluate(0) for n in range(1, 6)] \
            == [1, 2, 5, 14, 42]
        assert [inv_poly(n).evaluate(-1) for n in range(1, 6)] \
            == [1, 2, 4, 10, 26]


def test_criterion_02_recurrence_vs_enumeration():
    with criterion(2, "recurrence equals enumeration to n=8", 60.0):
        for n in range(1, 9):
            assert joint_poly(n) == brute_joint_poly(n)


def test_criterion_03_product_formula():
    with criterion(3, "product formula to n=9", 5.0):
        for n in range(1, 10):
            projected = joint_poly(n).eval_partial({"y": 1, "z": 1, "q": 1})
            assert projected == product_formula(n)
            assert projected.eval_partial({"x": 1}) == p_factorial(n)


def test_criterion_04_q0_path_suite():
    with criterion(4, "q=0 Catalan/Dyck suite", 30.0):
        for n in range(1, 13):
            assert sum(1 for _ in weakly_increasing_sequences(n)) == catalan(n)
        for n in range(1, 11):
            valleys = dyck_distribution(n, attrgetter("valleys"))
            assert [valleys.get(k, 0) for k in range(n)] == narayana_row(n)
            returns = dyck_distribution(n, attrgetter("returns"))
            assert [returns.get(k, 0) for k in range(1, n + 1)] \
                == returns_triangle_row(n)
            assert returns == dyck_distribution(
                n, attrgetter("first_peak_height"))

            # f_n(x, z): symmetric in x and z
            poly = peak_height_poly(n)
            mirrored = MultiPoly({(ez, ey, ex, ep, eq): c for
                                  (ex, ey, ez, ep, eq), c in poly.items()})
            assert poly == mirrored

            # first+last-peak-height rows, cross-checked between the
            # class scan (peak_sum_row) and the weakly increasing walk
            # inside peak_height_poly
            by_sum: Counter = Counter()
            for key, coeff in poly.items():
                by_sum[key[0] + key[2]] += coeff
            assert peak_sum_row(n) == [by_sum.get(s, 0)
                                       for s in range(2, 2 * n + 1)]
        for n, row in enumerate(expected_values("a114503"), start=1):
            assert peak_sum_row(n) == row


TAU_FIXED_N4 = {
    (0, 0, 0, 0), (0, 0, 0, 3), (0, 0, 1, 1), (0, 0, 2, 2), (0, 0, 2, 3),
    (0, 1, 0, 0), (0, 1, 2, 3), (0, 1, 2, 2), (0, 1, 1, 1), (0, 1, 1, 3),
}


def test_criterion_05_sign_involution():
    with criterion(5, "sign-reversing involution to n=8", 30.0):
        for n in range(1, 9):
            fixed = []
            for e in inversion_sequences(n):
                image = sign_reversing_involution(e)
                assert sign_reversing_involution(image) == e
                if image == e:
                    fixed.append(e)
                else:
                    delta = (sequence_stats(e).inv
                             - sequence_stats(image).inv)
                    assert abs(delta) == 1
            assert len(fixed) == involution_number(n)
            assert inv_poly(n).evaluate(-1) == involution_number(n)
            if n == 4:
                assert set(fixed) == TAU_FIXED_N4


def test_criterion_06_fixed_frequency():
    with criterion(6, "fixed-frequency product to n=8", 60.0):
        for n in range(1, 9):
            observed: dict[tuple[int, ...], dict[int, int]] = {}
            for e in inversion_sequences(n):
                acc = observed.setdefault(occurrence_counts(e), {})
                inv = sequence_stats(e).inv
                acc[inv] = acc.get(inv, 0) + 1
            products = []
            for v in frequency_vectors(n):
                product = fixed_freq_poly(v)
                assert product == QLaurent(observed.get(v, {})), v
                products.append(product)
            # partitioning I_n: the classes must reassemble f_n(q)
            assert QLaurent.sum(products) == inv_poly(n)
            assert set(observed) <= set(frequency_vectors(n))


def test_criterion_07_q_stirling():
    with criterion(7, "q-Stirling model and conversions", 60.0):
        for n in range(1, 10):
            by_zeros: dict[int, dict[int, int]] = {}
            for e in inversion_sequences(n):
                nonzero = [v for v in e if v]
                if len(nonzero) != len(set(nonzero)):
                    continue
                # the defining count: e with the values it does not use
                # appended in ascending order
                unused = tuple(v for v in range(1, n) if v not in e)
                acc = by_zeros.setdefault(e.count(0), {})
                inv = inversions(e + unused)
                acc[inv] = acc.get(inv, 0) + 1
            for k in range(1, n + 1):
                assert stirling2_q(n, k) == QLaurent(by_zeros.get(k, {}))
        for n in range(1, 9):
            for k in range(1, n + 1):
                assert milne_from_standard(n, k) == stirling2_q_milne(n, k)
                assert star_from_standard(n, k) == stirling2_q_star(n, k)
        # classical collapse against the two-term set-number recurrence
        classical = {(0, 0): 1}
        for n in range(1, 11):
            for k in range(n + 1):
                classical[(n, k)] = (classical.get((n - 1, k - 1), 0)
                                     + k * classical.get((n - 1, k), 0))
        for n in range(1, 11):
            for k in range(n + 1):
                assert stirling2_q(n, k).evaluate(1) == classical[(n, k)]
                assert stirling2_q_star(n, k).evaluate(1) == classical[(n, k)]
                if 1 <= k:
                    assert stirling2_q_milne(n, k).evaluate(1) \
                        == classical[(n, k)]


def test_criterion_08_operator_expansion():
    with criterion(8, "operator normal ordering to n=7", 120.0):
        for n in range(1, 8):
            full = operator_expansion(n)
            assert full == expansion_from_sequences(n)
            for k in range(1, n + 1):
                extracted = comtet_coeff_from_expansion(full, k)
                assert extracted == comtet_coeff_explicit(n, k)
                assert extracted == comtet_coeff_recurrence(n, k)
        assert str(operator_expansion(3)) == (
            "g g g f_3 + (q + 1) g g g_1 f_2^(1) + g g g_2 f_1^(2)"
            " + g g_1 g_0^(1) f_2^(1) + g g_1 g_1^(1) f_1^(2)")


def test_criterion_09_identity_checks():
    with criterion(9, "geometric specialization and identity checks", 120.0):
        for n in range(1, 9):
            for k in range(1, n + 1):
                value = substitute_g(comtet_coeff_explicit(n, k))
                assert value == (MultiPoly.monomial(1, ex=k)
                                 * stirling2_q(n, k).to_multipoly())
            assert check_stirling_euler(n)
            if n <= 7:
                assert check_garsia(n)
            assert check_qpower(n, kmax=6)
            if n <= 6:
                assert check_carlitz(n, trunc=n + 8)
                assert check_eu_ma_operator(n, trunc=n + 8)


def test_criterion_10_displacement_marginal():
    with criterion(10, "uel marginal equals displacement rows", 60.0):
        for n in range(1, 9):
            row = uel_distribution(n)
            assert row == list(reversed(max_displacement_counts(n)))
            # closed-form verdict: the index-shifted variant reproduces the
            # rows; the unshifted one does not (fails at n = 2 and 3)
            shifted = [math.factorial(n - j - 1)
                       * ((n - j) ** (j + 1) - (n - j - 1) ** (j + 1))
                       for j in range(n)]
            assert row == shifted
            if n in (2, 3):
                unshifted = [math.factorial(n - j)
                             * ((n - j + 1) ** (j + 1) - (n - j) ** (j + 1))
                             for j in range(n)]
                assert row != unshifted
