"""Class sum and length-extension recurrence for the joint polynomial."""

import math
import re
from functools import cache

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from invq.identities import eulerian_row
from invq.invseq import brute_joint_poly, inversion_sequences, sequence_stats
from invq.paths import catalan, involution_number
from invq.polyring import MultiPoly, QLaurent
from invq.qcalc import q_binomial
from invq.recurrence import (
    inv_poly,
    joint_poly,
    joint_runs,
    next_joint_poly,
    p_factorial,
    product_formula,
    uel_distribution,
)

# frozen marginal table: coefficients of f_n(q), highest power first
INV_TABLE = {
    1: [1],
    2: [2],
    3: [1, 5],
    4: [3, 7, 14],
    5: [3, 11, 28, 36, 42],
}


def test_base_case(golden_polys):
    assert joint_poly(1) == golden_polys[1] == MultiPoly.variable("x")


def test_single_step_reproduces_golden(golden_polys):
    assert next_joint_poly(golden_polys[1], 1) == golden_polys[2]
    assert next_joint_poly(golden_polys[2], 2) == golden_polys[3]


def test_golden_strings(golden_polys):
    assert str(joint_poly(2)) == str(golden_polys[2])
    assert str(joint_poly(3)) == str(golden_polys[3])


def test_joint_poly_from_runs_is_golden(golden_polys):
    for n, poly in golden_polys.items():
        assert joint_poly(n) == poly


@pytest.mark.parametrize("n", range(1, 11))
def test_joint_runs_shape(n):
    # what the fpoly renderer relies on: distinct (ex, ey, ez, ep), x in
    # every monomial, and positive coefficients from q^0 upward that sum
    # to n!, the terms of F_n with nothing dropped
    runs = list(joint_runs(n))
    heads = [run[:4] for run in runs]
    assert len(set(heads)) == len(heads)
    assert min(ex for ex, *_ in heads) >= 1
    assert min(min(cs) for *_, cs in runs) > 0
    assert sum(sum(cs) for *_, cs in runs) == math.factorial(n)
    poly = joint_poly(n)
    assert sum(len(cs) for *_, cs in runs) == poly.term_count()
    for *head, cs in runs:
        assert [poly.coefficient((*head, eq)) for eq in range(len(cs))] == cs


@pytest.mark.parametrize("n", range(1, 7))
def test_recurrence_matches_enumeration(n):
    assert joint_poly(n) == brute_joint_poly(n)


def test_class_sum_matches_recurrence_chain():
    # one t_q pass from F_1 = x; n = 13 is pinned by the term hash in
    # the digest of perfbench's joint13 output
    chain = MultiPoly.variable("x")
    for n in range(1, 13):
        if n > 1:
            chain = next_joint_poly(chain, n - 1)
        assert joint_poly(n) == chain
        assert sum(c for _, c in chain.items()) == math.factorial(n)


def test_packing_bound():
    # the class scan packs each q-coefficient into at least bits(n!) + 1
    # bits: every coefficient of F_n is at most n!, and they sum to n!; it
    # unpacks every slot with no zero filter, so none may be 0; n = 14 is
    # one size past the term hash of joint13
    for n in range(1, 15):
        poly = joint_poly(n)
        coeffs = [c for _, c in poly.items()]
        assert 0 < min(coeffs) and max(coeffs) <= math.factorial(n)
        assert sum(coeffs) == math.factorial(n)
    assert poly.term_count() == 511_084


def test_memo_is_consistent():
    # ask out of order; an earlier, longer call must not change a shorter one
    a = joint_poly(5)
    b = joint_poly(3)
    assert next_joint_poly(next_joint_poly(b, 3), 4) == a


# ------------------------------------------------------------ bound scans

@cache
def full_poly(n):
    return joint_poly(n)


@settings(max_examples=150, deadline=None)
@given(st.integers(min_value=1, max_value=9),
       st.dictionaries(st.sampled_from("xyzpq"),
                       st.integers(min_value=-2, max_value=3)))
# each bound factor once on its own, at a value whose powers all differ
@example(8, {"x": 2})
@example(8, {"y": 2})
@example(8, {"z": 2})
@example(8, {"p": 2})
@example(8, {"q": 2})
# a negative y, z or p with q free is left free in the scan and scaled
# per run; the last one also takes the wide slots
@example(6, {"y": -1, "p": 2})
@example(8, {"p": -1})
@example(8, {"z": -2})
@example(7, {"y": -1000, "p": 100})
def test_bound_scan_matches_eval_partial(n, bind):
    assert joint_poly(n, bind) == full_poly(n).eval_partial(bind)


def test_bound_scan_takes_wide_slots():
    # 7! * 100^21 takes 20-byte slots; 8-byte ones would carry
    for bind in ({"p": 100}, {"y": 1000, "z": 1000}, {"x": -5, "p": 100}):
        assert joint_poly(7, bind) == full_poly(7).eval_partial(bind), bind


@pytest.mark.parametrize("n", range(1, 41))
def test_int_scan_specializations(n):
    # q bound: every state is an int, no packing at any n
    def value(q):
        poly = joint_poly(n, {"x": 1, "y": 1, "z": 1, "p": 1, "q": q})
        return poly.coefficient((0, 0, 0, 0, 0))
    assert value(1) == math.factorial(n)
    assert value(0) == catalan(n)
    assert value(-1) == involution_number(n)


@pytest.mark.parametrize("bind,message", [
    ({"w": 1}, "unknown variable 'w'"),
    ({"x": 1, "Q": 0}, "unknown variable 'Q'"),
    ({"y": 1.0}, "bad value 1.0 for y"),
    ({"q": "0"}, "bad value '0' for q"),
    ({"z": True}, "bad value True for z"),
])
def test_bound_scan_refuses_bad_bindings(bind, message):
    # the same refusal, word for word, as the substitution it replaces
    for route in (lambda: joint_poly(3, bind),
                  lambda: joint_poly(3).eval_partial(bind)):
        with pytest.raises(ValueError, match=re.escape(message)):
            route()


def test_bound_scan_refuses_short_lengths():
    for n in (0, -1):
        with pytest.raises(ValueError, match="length must be >= 1"):
            joint_poly(n, {"q": 1})
        with pytest.raises(ValueError, match="length must be >= 1"):
            inv_poly(n)


# ---------------------------------------------------------------- marginals

@pytest.mark.parametrize("n,coeffs", INV_TABLE.items())
def test_inv_marginal_table(n, coeffs):
    top = len(coeffs) - 1
    assert inv_poly(n) == QLaurent({top - i: c for i, c in enumerate(coeffs)})


@pytest.mark.parametrize("n", range(1, 14))
def test_inv_poly_is_joint_poly_marginal(n):
    # read off the packed class scan; the old definition is the oracle
    assert inv_poly(n) == joint_poly(n).eval_partial(
        {"x": 1, "y": 1, "z": 1, "p": 1}).as_qlaurent()


def test_inv_marginal_evaluations():
    for n in range(1, 9):
        f = inv_poly(n)
        assert f.evaluate(1) == math.factorial(n)
    assert inv_poly(5).evaluate(0) == 42  # Catalan
    assert inv_poly(5).evaluate(-1) == 26  # involutions


def test_inv_poly_strings():
    assert str(inv_poly(3)) == "q + 5"
    assert str(inv_poly(5)) == "3q^4 + 11q^3 + 28q^2 + 36q + 42"


# ----------------------------------------------------------- product formula

@pytest.mark.parametrize("n", range(1, 8))
def test_product_formula_matches_recurrence(n):
    # sum and inv are jointly carried by the x,p specialization
    assert joint_poly(n).eval_partial({"y": 1, "z": 1, "q": 1}) \
        == product_formula(n)


def test_product_formula_shape():
    # n=3: x(x+p)(x+p+p^2)
    x = MultiPoly.variable("x")
    p = MultiPoly.variable("p")
    assert product_formula(3) == x * (x + p) * (x + p + p * p)


def test_p_factorial_is_x1_slice():
    for n in range(1, 8):
        assert product_formula(n).eval_partial({"x": 1}) == p_factorial(n)
    assert p_factorial(3).eval_partial({"p": 1}) == 6


# ------------------------------------------------------------ distributions

def test_eulerian_marginal():
    # grouping by tel recovers the Eulerian numbers
    for n in range(1, 8):
        slice_ = joint_poly(n).eval_partial({"x": 1, "z": 1, "p": 1, "q": 1})
        row = [slice_.coefficient((0, k, 0, 0, 0)) for k in range(n)]
        assert sum(row) == math.factorial(n)  # no y^k with k >= n
        assert row == eulerian_row(n)


def test_uel_distribution_rows():
    assert uel_distribution(1) == [1]
    assert uel_distribution(2) == [1, 1]
    assert uel_distribution(3) == [2, 3, 1]
    assert uel_distribution(4) == [6, 10, 7, 1]


@pytest.mark.parametrize("n", range(1, 8))
def test_uel_distribution_matches_enumeration(n):
    counted = [0] * n
    for e in inversion_sequences(n):
        counted[sequence_stats(e).uel] += 1
    assert uel_distribution(n) == counted


# The count of sequences with uel = j admits a closed form only after an
# index shift: (n-j-1)! * ((n-j)^(j+1) - (n-j-1)^(j+1)).  The unshifted
# variant (n-j)! * ((n-j+1)^(j+1) - (n-j)^(j+1)) over-counts already at n=2.

def shifted_closed_form(n, j):
    m = n - j
    return math.factorial(m - 1) * (m ** (j + 1) - (m - 1) ** (j + 1))


def unshifted_closed_form(n, j):
    m = n - j
    return math.factorial(m) * ((m + 1) ** (j + 1) - m ** (j + 1))


@pytest.mark.parametrize("n", range(1, 9))
def test_shifted_closed_form_matches(n):
    assert uel_distribution(n) == [shifted_closed_form(n, j) for j in range(n)]


def test_unshifted_closed_form_fails_low_rows():
    assert uel_distribution(2) != [unshifted_closed_form(2, j) for j in range(2)]
    assert uel_distribution(3) != [unshifted_closed_form(3, j) for j in range(3)]


# ----------------------------------------------------------------- guards

def test_bounds():
    with pytest.raises(ValueError):
        joint_poly(0)
    with pytest.raises(ValueError):
        next_joint_poly(MultiPoly.variable("x"), 0)


def test_q_binomial_appears_in_f4():
    # the x^2 y z p q coefficient region of F_4 stays consistent with the
    # two-row Pascal recurrence the q-binomials satisfy
    f4 = joint_poly(4)
    assert f4.eval_partial({"x": 1, "y": 1, "z": 1, "p": 1}).as_qlaurent() \
        == inv_poly(4)
    assert q_binomial(4, 2).evaluate(1) == 6
