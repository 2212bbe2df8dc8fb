"""Euler-Mahonian statistics and the q-Stirling identity checks."""

import math

import pytest

from invq import identities
from invq.identities import (
    check_carlitz,
    check_eu_ma_operator,
    check_garsia,
    check_qpower,
    check_stirling_euler,
    euler_mahonian_poly,
    eulerian_row,
    max_displacement_counts,
    permutations,
    _geometric_inverse_pochhammer,
    _q_falling_product,
)
from invq.polyring import MultiPoly, QLaurent
from invq.qcalc import q_factorial, q_int, q_pochhammer_x


# --------------------------------------------------------------- statistics

def test_permutation_enumeration():
    assert sum(1 for _ in permutations(5)) == 120
    assert next(iter(permutations(3))) == (1, 2, 3)
    with pytest.raises(ValueError):
        permutations(0)
    with pytest.raises(ValueError):
        permutations(10)


def test_euler_mahonian_small():
    # n = 2: identity has no descents, (2,1) has des = maj = 1
    assert euler_mahonian_poly(2) == (
        MultiPoly.one() + MultiPoly.monomial(1, ex=1, eq=1))
    # maj is Mahonian: summing out x leaves [n]_q!
    for n in range(1, 7):
        collapsed = euler_mahonian_poly(n).eval_partial({"x": 1}).as_qlaurent()
        assert collapsed == q_factorial(n)


def test_eulerian_rows():
    assert eulerian_row(1) == [1]
    assert eulerian_row(4) == [1, 11, 11, 1]
    assert eulerian_row(5) == [1, 26, 66, 26, 1]
    for n in range(1, 8):
        assert sum(eulerian_row(n)) == math.factorial(n)


def test_max_displacement_rows():
    assert max_displacement_counts(1) == [1]
    assert max_displacement_counts(4) == [1, 7, 10, 6]
    for n in range(1, 8):
        assert sum(max_displacement_counts(n)) == math.factorial(n)


def test_q_falling_product():
    assert _q_falling_product(3, 0).evaluate(1) == 1
    assert _q_falling_product(3, 2) == q_int(3) * q_int(2)
    assert not _q_falling_product(2, 3)
    assert _q_falling_product(3, 3) == q_factorial(3)
    # against the product of q-integers; for j > k it meets [0]_q = 0
    for k in range(9):
        for j in range(11):
            expected = QLaurent.one()
            for i in range(k, max(k - j, -1), -1):
                expected = expected * q_int(i)
            assert _q_falling_product(k, j) == expected


def test_geometric_inverse_pochhammer_inverts():
    # the q-binomial series times (x; q)_{n+1} is 1 up to the truncation
    for n in range(7):
        for t in range(15):
            series = _geometric_inverse_pochhammer(n, t)
            assert series.truncate("x", t) == series
            assert (q_pochhammer_x(n + 1) * series).truncate("x", t) \
                == MultiPoly.one()


# ------------------------------------------------------------------- checks

@pytest.mark.parametrize("n", range(1, 8))
def test_stirling_euler_identity(n):
    assert check_stirling_euler(n)


@pytest.mark.parametrize("n", range(1, 8))
def test_garsia_identity(n):
    assert check_garsia(n)


def test_qpower_identity():
    for n in range(1, 8):
        assert check_qpower(n, kmax=6)


@pytest.mark.parametrize("n", range(1, 6))
def test_carlitz_identity(n):
    assert check_carlitz(n, trunc=n + 8)


@pytest.mark.parametrize("n", range(1, 6))
def test_operator_series_identity(n):
    assert check_eu_ma_operator(n, trunc=n + 8)


def test_truncation_margin_is_flexible():
    assert check_carlitz(3, trunc=5)
    assert check_carlitz(3, trunc=12)
    with pytest.raises(ValueError):
        check_carlitz(3, trunc=4)
    with pytest.raises(ValueError):
        check_eu_ma_operator(3, trunc=4)


def test_carlitz_negative_control(monkeypatch):
    # a corrupted Euler-Mahonian polynomial must be caught, proving the
    # comparison is not vacuous
    broken = euler_mahonian_poly(3) + MultiPoly.monomial(1, ex=1, eq=1)
    assert check_carlitz(3, trunc=11)
    monkeypatch.setattr(identities, "euler_mahonian_poly", lambda n: broken)
    assert not check_carlitz(3, trunc=11)


def test_check_bounds():
    with pytest.raises(ValueError):
        check_stirling_euler(0)
    with pytest.raises(ValueError):
        check_stirling_euler(9)
    with pytest.raises(ValueError):
        check_garsia(0)
    with pytest.raises(ValueError):
        check_qpower(0, 3)
