"""The specializations and path statistics read off directly, each against
the product or letter loop it replaced, kept here as the reference."""

from collections import Counter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from invq.identities import _q_power_series
from invq.invseq import sequence_stats
from invq.paths import (
    DyckStats,
    dyck_stats,
    lattice_paths,
    peak_height_poly,
    reverse_swap,
    validate_path,
    weakly_increasing_sequences,
)
from invq.polyring import MultiPoly, QLaurent
from invq.qcalc import q_int, q_pochhammer_x
from invq.qoperator import (
    SymExpr,
    comtet_coeff_explicit,
    comtet_coeff_from_expansion,
    f_factor,
    g_factor,
    operator_expansion,
    substitute_g,
)

# ------------------------------------------------------ reference loops


def geometric_g_rule(deriv, shift):
    if deriv == 0:
        return MultiPoly.monomial(1, ex=1, eq=shift)
    if deriv == 1:
        return MultiPoly.one()
    return MultiPoly.zero()


def substitute_g_rule(expr):
    def expanded(word, coeff):
        value = coeff.to_multipoly()
        for f in word:
            if f.kind != "g":
                raise ValueError("substitution needs g-only words")
            if not value:
                break
            value = value * geometric_g_rule(f.deriv, f.shift)
        return value
    return MultiPoly.sum(expanded(word, coeff) for word, coeff in expr.items())


def q_pochhammer_x_product(n, first_power=0):
    if n < 0:
        raise ValueError("q-Pochhammer needs n >= 0")
    result = MultiPoly.one()
    x = MultiPoly.variable("x")
    for i in range(n):
        result = result * (1 - x * MultiPoly.monomial(1, eq=first_power + i))
    return result


def q_power_series_products(n, offset, trunc):
    return MultiPoly.sum((q_int(ell + offset) ** n).to_multipoly()
                         * MultiPoly.monomial(1, ex=ell)
                         for ell in range(trunc + 1))


def peak_height_poly_stats(n):
    return MultiPoly(Counter((s.noz, 0, s.uel + 1, 0, 0) for s in
                             map(sequence_stats, weakly_increasing_sequences(n))))


def reverse_swap_loop(word):
    validate_path(word)
    swapped = {"E": "N", "N": "E"}
    return "".join(swapped[ch] for ch in reversed(word))


def dyck_stats_loop(word):
    validate_path(word)
    height = 0
    peaks = valleys = returns = 0
    first_peak = last_peak = 0
    for i, ch in enumerate(word):
        if ch == "E":
            height += 1
            if i and word[i - 1] == "N":
                valleys += 1
        else:
            if word[i - 1] == "E":
                peaks += 1
                last_peak = height
                if peaks == 1:
                    first_peak = height
            height -= 1
            if height == 0:
                returns += 1
    return DyckStats(peaks, valleys, returns, first_peak, last_peak)


def _outcome(fn, *args):
    try:
        return fn(*args)
    except ValueError as exc:
        return f"ValueError: {exc}"


# ------------------------------------------------------- substitute_g

@pytest.mark.parametrize("n", range(1, 10))
def test_substitute_g_matches_rule_on_comtet_coefficients(n):
    for k in range(1, n + 1):
        expr = comtet_coeff_explicit(n, k)
        assert substitute_g(expr) == substitute_g_rule(expr), (n, k)


@pytest.mark.parametrize("n", range(1, 7))
def test_substitute_g_matches_rule_on_stripped_expansion(n):
    full = operator_expansion(n)
    for k in range(0, n + 1):
        expr = comtet_coeff_from_expansion(full, k)
        assert substitute_g(expr) == substitute_g_rule(expr), (n, k)


def test_substitute_g_errors_match_rule():
    g0, g1, f = g_factor(), g_factor(1, 2), f_factor()
    laurent = QLaurent({-1: 1, 2: 3})
    bad = [SymExpr.from_word((f,)), SymExpr.from_word((g0, f)),
           SymExpr.from_word((f, g1)), SymExpr.from_word((g0, g1), laurent),
           SymExpr.from_word((g0, f), laurent),
           SymExpr.from_word((g0,)) + SymExpr.from_word((f,))]
    for expr in bad:
        got = _outcome(substitute_g, expr)
        assert got.startswith("ValueError: "), expr
        assert got == _outcome(substitute_g_rule, expr), expr
    assert _outcome(substitute_g, SymExpr.from_word((f,))) == \
        "ValueError: substitution needs g-only words"
    assert _outcome(substitute_g, SymExpr.from_word((g0,), laurent)) == \
        "ValueError: Laurent part present; not a polynomial in q"


def test_substitute_g_refuses_f_behind_a_dropped_factor():
    # the product form stopped one factor after the one that zeroed the
    # word and never saw an f further on; every factor is checked now
    expr = SymExpr.from_word((g_factor(2, 0), g_factor(), f_factor()))
    assert substitute_g_rule(expr) == MultiPoly.zero()
    with pytest.raises(ValueError, match="g-only"):
        substitute_g(expr)


def test_substitute_g_sums_words():
    expr = (SymExpr.from_word((g_factor(), g_factor(0, 2), g_factor(1, 4)), 3)
            + SymExpr.from_word((g_factor(0, 1), g_factor(0, 1)),
                                QLaurent({0: 1, 1: -2}))
            + SymExpr.from_word((g_factor(3, 0),), 5)
            + SymExpr.from_word((), 7))
    assert substitute_g(expr) == MultiPoly(
        {(2, 0, 0, 0, 2): 4, (2, 0, 0, 0, 3): -2, (0, 0, 0, 0, 0): 7})
    assert substitute_g(expr) == substitute_g_rule(expr)


# ----------------------------------------------------- q_pochhammer_x

def test_q_pochhammer_x_matches_product():
    for n in range(15):
        for a in range(12):
            assert q_pochhammer_x(n, a) == q_pochhammer_x_product(n, a), (n, a)
    assert q_pochhammer_x(3) == q_pochhammer_x_product(3)


def test_q_pochhammer_x_errors():
    for n in (-1, -5):
        assert _outcome(q_pochhammer_x, n) == \
            _outcome(q_pochhammer_x_product, n) == \
            "ValueError: q-Pochhammer needs n >= 0"
    # the product refused these through a bad exponent vector
    for a in (-1, -3, 1.5, None):
        for n in (1, 4):
            with pytest.raises((ValueError, TypeError)):
                q_pochhammer_x_product(n, a)
            assert _outcome(q_pochhammer_x, n, a) == \
                "ValueError: q-Pochhammer needs an int first_power >= 0"


# ------------------------------------------------- the identity series

@pytest.mark.parametrize("n", range(0, 9))
def test_q_power_series_matches_products(n):
    for offset in (0, 1):
        for trunc in range(0, 21):
            assert _q_power_series(n, offset, trunc) == \
                q_power_series_products(n, offset, trunc), (n, offset, trunc)


# ------------------------------------------------------ path statistics

@pytest.mark.parametrize("n", range(1, 11))
def test_peak_height_poly_matches_sequence_stats(n):
    assert peak_height_poly(n) == peak_height_poly_stats(n)


@pytest.mark.parametrize("n", range(1, 11))
def test_path_readings_match_loops(n):
    for word in lattice_paths(n):
        assert dyck_stats(word) == dyck_stats_loop(word), word
        assert reverse_swap(word) == reverse_swap_loop(word), word


@settings(max_examples=300, deadline=None)
@given(st.text(alphabet="ENx", max_size=12))
@example("")
@example("NE")
@example("EEN")
@example("ENx")
@example("EN")
def test_path_reading_errors_match_loops(word):
    assert _outcome(dyck_stats, word) == _outcome(dyck_stats_loop, word)
    assert _outcome(reverse_swap, word) == _outcome(reverse_swap_loop, word)
