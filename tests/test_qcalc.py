"""q-integers, Gaussian binomials, and the two q-operators."""

from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from invq.polyring import MultiPoly, QLaurent
from invq.qcalc import (d_q, q_binomial, q_factorial, q_int, q_pascal,
                        q_pochhammer_x, t_q, unpack)

X = MultiPoly.variable("x")


def binary_word_inversions(n, k):
    """Independent oracle: sum q^(inversions) over 0/1 words, k ones among n."""
    total = {}
    for ones in combinations(range(n), k):
        inv = sum(1 for i in ones for j in range(i + 1, n) if j not in ones)
        total[inv] = total.get(inv, 0) + 1
    return QLaurent(total)


def dilate_x(f):
    """f(qx): termwise x^a gains q^a."""
    return MultiPoly({(a, b, c, d, e + a): coeff
                      for (a, b, c, d, e), coeff in f.items()})


def test_q_int_values():
    assert q_int(0) == QLaurent.zero()
    assert q_int(1) == QLaurent.one()
    assert str(q_int(3)) == "q^2 + q + 1"
    assert q_int(5).evaluate(1) == 5


def test_q_factorial_values():
    assert q_factorial(0) == QLaurent.one()
    assert str(q_factorial(3)) == "q^3 + 2q^2 + 2q + 1"
    assert q_factorial(5).evaluate(1) == 120
    assert q_factorial(6) == q_factorial(5) * q_int(6)


def test_q_binomial_frozen():
    assert q_binomial(4, 2) == QLaurent({4: 1, 3: 1, 2: 2, 1: 1, 0: 1})
    assert q_binomial(5, 0) == QLaurent.one()
    assert q_binomial(3, 5) == QLaurent.zero()
    assert q_binomial(5, -1) == QLaurent.zero()


@pytest.mark.parametrize("n", range(0, 8))
def test_q_binomial_against_word_oracle(n):
    for k in range(n + 1):
        assert q_binomial(n, k) == binary_word_inversions(n, k)


def test_q_binomial_symmetry_and_factorials():
    for n in range(8):
        for k in range(n + 1):
            assert q_binomial(n, k) == q_binomial(n, n - k)
            # division-free check of the factorial quotient form
            assert (q_binomial(n, k) * q_factorial(k) * q_factorial(n - k)
                    == q_factorial(n))


def test_pochhammer_values():
    assert q_pochhammer_x(0) == MultiPoly.one()
    assert q_pochhammer_x(1) == 1 - X
    expected = (1 - X) * (1 - X * MultiPoly.monomial(1, eq=1))
    assert q_pochhammer_x(2) == expected
    shifted = q_pochhammer_x(2, first_power=3)
    assert shifted == (1 - X * MultiPoly.monomial(1, eq=3)) * (
        1 - X * MultiPoly.monomial(1, eq=4))


def test_d_q_monomials(golden_polys):
    assert d_q(MultiPoly.monomial(1, ex=3)) == (
        MultiPoly.monomial(1, ex=2) * q_int(3).to_multipoly())
    assert d_q(MultiPoly.constant(7)) == MultiPoly.zero()
    # d_q F_2 = (1+q) x y z + p
    f2 = golden_polys[2]
    expected = (MultiPoly.monomial(1, ex=1, ey=1, ez=1)
                * (1 + MultiPoly.variable("q"))
                + MultiPoly.variable("p"))
    assert d_q(f2) == expected


def test_t_q_examples():
    # T_q x^2 = x^2 + (1+q) x + 1
    assert t_q(MultiPoly.monomial(1, ex=2)) == (
        MultiPoly.monomial(1, ex=2)
        + (1 + MultiPoly.variable("q")) * X
        + MultiPoly.one())
    assert t_q(MultiPoly.one()) == MultiPoly.one()
    assert t_q(X) == X + 1


def small_x_polys():
    keys = st.tuples(st.integers(min_value=0, max_value=5),
                     st.integers(min_value=0, max_value=2))
    return st.dictionaries(keys, st.integers(min_value=-6, max_value=6),
                           max_size=5).map(
        lambda d: MultiPoly({(a, 0, 0, 0, b): c for (a, b), c in d.items()}))


@settings(max_examples=60, deadline=None)
@given(small_x_polys(), small_x_polys())
def test_d_q_is_linear_and_leibniz(f, g):
    assert d_q(f + g) == d_q(f) + d_q(g)
    # q-Leibniz: D_q(fg) = D_q(f) g + f(qx) D_q(g)
    assert d_q(f * g) == d_q(f) * g + dilate_x(f) * d_q(g)


@settings(max_examples=60, deadline=None)
@given(small_x_polys())
def test_t_q_at_q1_is_binomial_shift(f):
    # at q=1 the transform is x^a -> (x+1)^a
    at_one = t_q(f).eval_partial({"q": 1})
    direct = MultiPoly.zero()
    for key, coeff in f.eval_partial({"q": 1}).items():
        direct = direct + coeff * (X + 1) ** key[0]
    assert at_one == direct


@settings(max_examples=60, deadline=None)
@given(small_x_polys())
def test_t_q_is_linear(f):
    assert t_q(2 * f) == 2 * t_q(f)


@pytest.mark.parametrize("q0", [*range(-3, 4), 1 << 64, 1 << 160])
def test_q_pascal_matches_q_binomial(q0):
    rows = q_pascal(20, q0)
    assert type(rows) is tuple and all(type(row) is tuple for row in rows)
    assert [len(row) for row in rows] == list(range(1, 22))
    for m, row in enumerate(rows):
        assert row == tuple(q_binomial(m, v).evaluate(q0)
                            for v in range(m + 1)), m
    assert all(type(c) is int for row in rows for c in row)
    if q0 in (1 << 64, 1 << 160):  # 8- and 20-byte slots: packed q-binomials
        width = q0.bit_length() // 8
        for m, row in enumerate(rows):
            for v, c in enumerate(row):
                poly = q_binomial(m, v)
                assert unpack(c, width) == [poly.coefficient(e) for e in
                                            range(v * (m - v) + 1)], (m, v)
    assert q_pascal(0, q0) == ((1,),)
    with pytest.raises(ValueError):
        q_pascal(-1, q0)
