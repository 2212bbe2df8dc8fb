"""Normal ordering of (g D_q)^n f and the word-coefficient extraction."""

import math

import pytest

from invq.invseq import fixed_freq_poly, frequency_vectors
from invq.polyring import MultiPoly, QLaurent
from invq.qoperator import (
    Factor,
    SymExpr,
    apply_gdq,
    class_word,
    comtet_coeff_explicit,
    comtet_coeff_from_expansion,
    comtet_coeff_recurrence,
    dq_expr,
    expansion_from_sequences,
    f_factor,
    g_factor,
    operator_expansion,
    substitute_g,
    times_g,
)
from invq.qstirling import stirling2_q
from invq.recurrence import joint_poly

G = g_factor()
ONE = QLaurent.one()


def w(*factors):
    return tuple(factors)


# ------------------------------------------------------------ hand expansions

def test_expansion_n0_and_n1():
    assert operator_expansion(0) == SymExpr.from_word(w(f_factor()))
    assert operator_expansion(1) == SymExpr.from_word(w(G, f_factor(deriv=1)))
    assert str(operator_expansion(1)) == "g f_1"


def test_expansion_n2():
    expected = SymExpr({
        w(G, G, f_factor(deriv=2)): ONE,
        w(G, g_factor(deriv=1), f_factor(deriv=1, shift=1)): ONE,
    })
    assert operator_expansion(2) == expected
    assert str(operator_expansion(2)) == "g g f_2 + g g_1 f_1^(1)"


def test_expansion_n3():
    q1 = QLaurent({0: 1, 1: 1})
    expected = SymExpr({
        w(G, G, G, f_factor(deriv=3)): ONE,
        w(G, G, g_factor(deriv=1), f_factor(deriv=2, shift=1)): q1,
        w(G, G, g_factor(deriv=2), f_factor(deriv=1, shift=2)): ONE,
        w(G, g_factor(deriv=1), g_factor(shift=1),
          f_factor(deriv=2, shift=1)): ONE,
        w(G, g_factor(deriv=1), g_factor(deriv=1, shift=1),
          f_factor(deriv=1, shift=2)): ONE,
    })
    assert operator_expansion(3) == expected


def test_expansion_n3_display():
    assert str(operator_expansion(3)) == (
        "g g g f_3 + (q + 1) g g g_1 f_2^(1) + g g g_2 f_1^(2)"
        " + g g_1 g_0^(1) f_2^(1) + g g_1 g_1^(1) f_1^(2)")


def test_product_rule_scaling():
    # differentiating a shifted factor picks up q^shift
    start = SymExpr.from_word(w(f_factor(shift=2)))
    assert dq_expr(start) == SymExpr.from_word(
        w(f_factor(deriv=1, shift=2)), QLaurent.q_power(2))
    # factors right of the derivative gain one argument scale
    two = dq_expr(SymExpr.from_word(w(g_factor(), f_factor())))
    assert two == SymExpr({
        w(g_factor(deriv=1), f_factor(shift=1)): ONE,
        w(g_factor(), f_factor(deriv=1)): ONE,
    })


# -------------------------------------------------------------- both routes

@pytest.mark.parametrize("n", range(1, 7))
def test_routes_agree_word_for_word(n):
    assert operator_expansion(n) == expansion_from_sequences(n)


def test_class_word():
    word = class_word((2, 1, 1, 0))
    assert str(SymExpr.from_word(word)) == "g g g_1 g_1^(1) f_2^(2)"
    assert dict(operator_expansion(4).items())[word] == fixed_freq_poly((2, 1, 1, 0))


def test_operator_route_reaches_joint_poly():
    # each word of (g D_q)^n f is the class_word of one frequency vector v;
    # its q-coefficient times x^noz y^tel z^uel p^sum, summed, is F_n
    expr = SymExpr.from_word((f_factor(),))
    for n in range(1, 9):
        expr = apply_gdq(expr)
        vectors = list(frequency_vectors(n))
        classes = {class_word(v): v for v in vectors}
        assert len(classes) == len(vectors)  # one class per word
        terms: dict = {}
        for word, coeff in expr.items():
            v = classes[word]
            key = (v[0], sum(c - 1 for c in v if c),
                   n - 1 - max(j for j, c in enumerate(v) if c),
                   sum(j * c for j, c in enumerate(v)))
            for e, c in coeff.items():
                terms[key + (e,)] = terms.get(key + (e,), 0) + c
        assert MultiPoly(terms) == joint_poly(n), n


@pytest.mark.parametrize("n", range(1, 7))
def test_word_shape(n):
    for word, coeff in operator_expansion(n).items():
        assert len(word) == n + 1
        assert word[0] == g_factor()
        assert word[-1].kind == "f"
        assert all(f.kind == "g" for f in word[:-1])
        assert word[1].shift == 0
        # argument scales accumulate the derivative orders left of them
        for i in range(1, n):
            assert word[i + 1].shift == word[i].shift + word[i].deriv
        assert sum(f.deriv for f in word) == n
        assert coeff.is_polynomial()


def test_total_coefficient_mass():
    # coefficients at q = 1 count inversion sequences: n! in total
    for n in range(1, 7):
        total = sum(c.evaluate(1) for _, c in operator_expansion(n).items())
        assert total == math.factorial(n)


# -------------------------------------------------------- coefficient words

def test_coefficient_example_display():
    assert str(comtet_coeff_explicit(3, 2)) == "(q + 1) g g g_1 + g g_1 g_0^(1)"
    assert str(comtet_coeff_explicit(1, 1)) == "g"
    assert str(comtet_coeff_explicit(2, 2)) == "g g"
    assert str(comtet_coeff_explicit(2, 1)) == "g g_1"


@pytest.mark.parametrize("n", range(1, 7))
def test_coefficient_three_ways(n):
    full = operator_expansion(n)
    for k in range(1, n + 1):
        extracted = comtet_coeff_from_expansion(full, k)
        assert extracted == comtet_coeff_explicit(n, k)
        assert extracted == comtet_coeff_recurrence(n, k)


@pytest.mark.parametrize("n", [7, 8])
def test_recurrence_matches_explicit_past_three_way(n):
    # the tabled recurrence at lengths the three-way test does not reach
    for k in range(1, n + 1):
        assert comtet_coeff_recurrence(n, k) == comtet_coeff_explicit(n, k), k


def test_extraction_covers_everything():
    full = operator_expansion(5)
    words = sum(comtet_coeff_from_expansion(full, k).term_count()
                for k in range(1, 6))
    assert words == full.term_count()


# ----------------------------------------------------------- specialization

@pytest.mark.parametrize("n", range(1, 8))
def test_geometric_rule_gives_q_stirling(n):
    for k in range(1, n + 1):
        value = substitute_g(comtet_coeff_explicit(n, k))
        expected = MultiPoly.monomial(1, ex=k) * stirling2_q(n, k).to_multipoly()
        assert value == expected


def test_geometric_rule_values():
    def one_factor(deriv, shift):
        return substitute_g(SymExpr.from_word(w(g_factor(deriv, shift))))
    assert one_factor(0, 0) == MultiPoly.variable("x")
    assert one_factor(0, 3) == MultiPoly.monomial(1, ex=1, eq=3)
    assert one_factor(1, 5) == MultiPoly.one()
    assert one_factor(2, 0) == MultiPoly.zero()


# ------------------------------------------------------------------- errors

def test_error_paths():
    with pytest.raises(ValueError):
        operator_expansion(-1)
    with pytest.raises(ValueError):
        apply_gdq(SymExpr.from_word(w(G)))
    with pytest.raises(ValueError):
        comtet_coeff_from_expansion(SymExpr.from_word(w(G)), 1)
    with pytest.raises(ValueError):
        comtet_coeff_explicit(3, 0)
    with pytest.raises(ValueError):
        comtet_coeff_recurrence(3, 4)
    with pytest.raises(ValueError):
        substitute_g(SymExpr.from_word(w(f_factor())))
    with pytest.raises(ValueError):
        expansion_from_sequences(0)


def test_symexpr_behaves():
    a = SymExpr.from_word(w(G), 2)
    b = SymExpr.from_word(w(G), -2)
    assert not a + b
    assert not a.scale(0)
    assert str(SymExpr.zero()) == "0"
    assert str(a) == "(2) g"
    assert SymExpr({w(G): 0}) == SymExpr.zero()
