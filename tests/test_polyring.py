"""Ring behavior of the sparse polynomial substrate."""

import json

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from invq.polyring import VARIABLES, MultiPoly, QLaurent
from invq.qcalc import d_q, t_q
from invq.qoperator import Factor, SymExpr, dq_expr, f_factor, g_factor

X = MultiPoly.variable("x")
Y = MultiPoly.variable("y")
P = MultiPoly.variable("p")


def small_polys():
    keys = st.tuples(*(st.integers(min_value=0, max_value=3) for _ in range(5)))
    coeffs = st.integers(min_value=-9, max_value=9)
    return st.dictionaries(keys, coeffs, max_size=6).map(MultiPoly)


def signed_polys():
    # exponents 0..1 and coefficients of both signs: sums, products and
    # substitutions of these often cancel terms to zero
    keys = st.tuples(*(st.integers(min_value=0, max_value=1) for _ in range(5)))
    coeffs = st.integers(min_value=-2, max_value=2)
    return st.dictionaries(keys, coeffs, max_size=8).map(MultiPoly)


def int_points():
    return st.tuples(*(st.integers(min_value=-3, max_value=3) for _ in range(5)))


def eval_at(poly, point):
    value = poly.eval_partial(dict(zip(VARIABLES, point)))
    constant = value.coefficient((0, 0, 0, 0, 0))
    assert value == constant  # binding every variable leaves no variable
    return constant


# ------------------------------------------------------- shared term map

@pytest.mark.parametrize("value, negate, foreign", [
    (MultiPoly({(1, 0, 0, 2, 0): 3, (0, 0, 0, 0, 0): -1}), lambda a: -a,
     QLaurent.one()),
    (QLaurent({-1: 2, 3: 5}), lambda a: -a, MultiPoly.one()),
    (SymExpr({(g_factor(), f_factor(1, 2)): QLaurent({0: 1, 2: -4})}),
     lambda a: a.scale(-1), 1),
], ids=["MultiPoly", "QLaurent", "SymExpr"])
def test_term_map_core(value, negate, foreign):
    total = value + negate(value)
    assert not total and total.term_count() == 0
    assert total == type(value).zero()
    with pytest.raises(TypeError):
        value + foreign
    with pytest.raises(TypeError):
        foreign + value
    with pytest.raises(TypeError):
        hash(value)
    cls = type(value)
    assert cls.sum([]) == cls.zero()
    assert cls.sum([value, negate(value)]).term_count() == 0
    a, b, c = value, value + value, negate(value)
    assert cls.sum([a, b, c]) == (a + b) + c
    with pytest.raises(TypeError):
        cls.sum([value, foreign])
    items = value.items()
    assert list(items) == list(items) and len(items) == value.term_count()


# ------------------------------------------------------------ construction

def test_zero_elision_and_equality():
    assert MultiPoly({(1, 0, 0, 0, 0): 0}) == MultiPoly.zero()
    assert X - X == MultiPoly.zero()
    assert not (X - X)
    assert X + 0 == X
    assert not MultiPoly.constant(0)


def test_bad_keys_rejected():
    with pytest.raises(ValueError):
        MultiPoly({(1, 2): 1})
    with pytest.raises(ValueError):
        MultiPoly({(-1, 0, 0, 0, 0): 1})
    with pytest.raises(ValueError):
        MultiPoly.variable("w")
    with pytest.raises(ValueError):
        MultiPoly({(1.5, 0, 0, 0, 0): 1})
    with pytest.raises(ValueError):
        MultiPoly.monomial(1, ex=1.5)
    with pytest.raises(ValueError):
        QLaurent({1.5: 2})
    with pytest.raises(ValueError):
        QLaurent({"3": 1})
    with pytest.raises(ValueError):
        QLaurent.q_power(1.0)
    with pytest.raises(ValueError):
        MultiPoly({(0, 0, 0, 0, 0): 1.5})
    with pytest.raises(ValueError):
        QLaurent({0: 0.5, 1: 2})
    with pytest.raises(ValueError):
        MultiPoly.monomial(2.5, ex=1)
    with pytest.raises(ValueError):
        MultiPoly.constant(1.5)
    with pytest.raises(ValueError):
        QLaurent.q_power(1, 0.5)
    with pytest.raises(ValueError):
        QLaurent.one().times_q_power(0.5)
    with pytest.raises(ValueError):
        SymExpr({(g_factor(),): 1.5})
    with pytest.raises(ValueError):
        SymExpr({(g_factor(),): MultiPoly.one()})
    # every JSON term passes the key and coefficient checks before any sum
    term = {"coeff": 1, "ex": 1, "ey": 0, "ez": 0, "ep": 0, "eq": 0}
    assert MultiPoly.from_json_terms([term, term]) == 2 * X
    assert MultiPoly.from_json_terms([]) == MultiPoly.zero()
    for bad in ([{**term, "coeff": True}], [{**term, "coeff": True}] * 2,
                [{**term, "coeff": "3"}], [{**term, "coeff": 1.0}],
                [term, {**term, "coeff": "3"}], [{**term, "ex": True}],
                [{**term, "eq": -1}], [{**term, "ep": "1"}]):
        with pytest.raises(ValueError):
            MultiPoly.from_json_terms(bad)
    # a word is a tuple of g/f Factors with nonnegative int deriv and shift
    for word in ("ab", (("g", 0, 0),), ("g",), (Factor("h", 0, 0),),
                 (Factor("g", -1, 0),), (g_factor(shift=-1),),
                 (g_factor(True),), (f_factor(0, False),), (g_factor(1.0),),
                 None):
        with pytest.raises(ValueError, match="bad word"):
            SymExpr({word: 1})
        with pytest.raises(ValueError, match="bad word"):
            SymExpr.from_word(word)
    with pytest.raises(ValueError, match="bad word"):
        SymExpr.from_word([g_factor()])
    assert SymExpr.from_word(()) == SymExpr({(): 1})
    # bool is an int subclass, but never a coefficient, exponent or power
    for build in (lambda: MultiPoly.monomial(True, ex=1),
                  lambda: MultiPoly({(True, 0, 0, 0, 0): 1}),
                  lambda: MultiPoly({(0, 0, 0, 0, 0): True}),
                  lambda: MultiPoly.monomial(1, eq=False),
                  lambda: QLaurent({True: 1}),
                  lambda: QLaurent({0: True}),
                  lambda: QLaurent.q_power(True),
                  lambda: QLaurent.q_power(1, True),
                  lambda: QLaurent.one().times_q_power(True),
                  lambda: SymExpr({(g_factor(),): True}),
                  lambda: X.coefficient((True, 0, 0, 0, 0)),
                  lambda: QLaurent.one().coefficient(True),
                  lambda: X ** True):
        with pytest.raises(ValueError):
            build()
    with pytest.raises(TypeError):
        X + True
    assert X != True and QLaurent.one() != True


def test_arithmetic_basics():
    assert X * X == MultiPoly.monomial(1, ex=2)
    assert (P + X) * X == MultiPoly.monomial(1, ex=1, ep=1) + MultiPoly.monomial(1, ex=2)
    assert (X + 1) * (X - 1) == MultiPoly.monomial(1, ex=2) - 1
    assert X ** 0 == MultiPoly.one()
    assert (2 * X) ** 3 == MultiPoly.monomial(8, ex=3)


# -------------------------------------------------------------- rendering

def test_canonical_text(golden_polys):
    assert str(golden_polys[2]) == "x^2*y*z + x*p"
    assert str(MultiPoly.zero()) == "0"
    assert str(MultiPoly.constant(-3)) == "-3"
    assert str(2 * X * Y - 1) == "2*x*y - 1"


def test_canonical_order_is_degree_then_lex(golden_polys):
    texts = [t["coeff"] for t in golden_polys[3].to_json_terms()]
    assert texts == [1] * 6
    keys = [(t["ex"], t["ey"], t["ez"], t["ep"], t["eq"])
            for t in golden_polys[3].to_json_terms()]
    degrees = [sum(k) for k in keys]
    assert degrees == sorted(degrees, reverse=True)


def test_json_round_trip(golden_polys):
    blob = json.dumps(golden_polys[3].to_json_terms())
    assert MultiPoly.from_json_terms(json.loads(blob)) == golden_polys[3]


# ---------------------------------------------------------- substitutions

def test_eval_partial_golden(golden_polys):
    f3 = golden_polys[3]
    bound = f3.eval_partial({"x": 1, "y": 1, "z": 1, "p": 1})
    assert bound.as_qlaurent() == QLaurent({1: 1, 0: 5})  # q + 5
    assert f3.eval_partial({}) == f3
    assert eval_at(f3, (1, 1, 1, 1, 1)) == 6
    with pytest.raises(ValueError):
        f3.eval_partial({"w": 1})
    for bad in (1.5, "2", True, False):
        with pytest.raises(ValueError, match="bad value"):
            f3.eval_partial({"x": bad, "y": 1})


def test_eval_partial_is_partial(golden_polys):
    partial = golden_polys[2].eval_partial({"y": 1, "z": 1, "p": 1})
    assert partial == MultiPoly.monomial(1, ex=2) + X


def test_scaled_shift_examples(golden_polys):
    assert X.scaled_shift(1) == MultiPoly.monomial(1, ex=2)
    # derived by the termwise rule and by p^n x f(x/p); both give the same
    shifted = golden_polys[2].scaled_shift(2)
    expected = (MultiPoly.monomial(1, ex=3, ey=1, ez=1)
                + MultiPoly.monomial(1, ex=2, ep=2))
    assert shifted == expected
    assert MultiPoly.one().scaled_shift(3) == MultiPoly.monomial(1, ex=1, ep=3)


def test_scaled_shift_degree_guard():
    with pytest.raises(ValueError, match="leaves polynomial ring"):
        MultiPoly.monomial(1, ex=2).scaled_shift(1)
    for bad in (-1, 1.5, True):
        with pytest.raises(ValueError, match="shift length"):
            X.scaled_shift(bad)


@settings(max_examples=60, deadline=None)
@given(small_polys(), int_points(), st.integers(min_value=1, max_value=4),
       st.integers(min_value=-3, max_value=3))
def test_scaled_shift_matches_rational_substitution(f, point, n, t):
    # oracle: the shift is p^n * x * f(x/p); evaluate at x = t*p so the
    # substitution stays integral
    _, y0, z0, p0, q0 = point
    if p0 == 0 or any(key[0] > n for key, _ in f.items()):
        return
    x0 = t * p0
    direct = eval_at(f.scaled_shift(n), (x0, y0, z0, p0, q0))
    via_sub = p0 ** n * x0 * eval_at(f, (t, y0, z0, p0, q0))
    assert direct == via_sub


def test_marginal_and_truncate(golden_polys):
    f2 = golden_polys[2]  # x^2*y*z + x*p
    assert f2.marginal("x", 3) == [0, 1, 1]
    assert f2.marginal("x", 5) == [0, 1, 1, 0, 0]
    assert f2.marginal("q", 1) == [2]
    assert MultiPoly.zero().marginal("y", 2) == [0, 0]
    assert MultiPoly.zero().marginal("y", 0) == []
    for short in (2, 0):
        with pytest.raises(ValueError, match="past length"):
            f2.marginal("x", short)
    for bad in (-1, 2.0, True):
        with pytest.raises(ValueError, match="bad length"):
            f2.marginal("x", bad)
    assert f2.truncate("x", 1) == MultiPoly.monomial(1, ex=1, ep=1)
    assert f2.truncate("x", -1) == MultiPoly.zero()


@pytest.mark.parametrize("name", ["w", "X", "", 0, None])
def test_marginal_and_truncate_refuse_unknown_variable(golden_polys, name):
    f2 = golden_polys[2]
    with pytest.raises(ValueError, match=f"unknown variable {name!r}"):
        f2.marginal(name, 3)
    with pytest.raises(ValueError, match=f"unknown variable {name!r}"):
        f2.truncate(name, 1)


@pytest.mark.parametrize("bad", [1.5, 1.0, True, False, "1", None])
def test_truncate_refuses_non_int_max_exp(golden_polys, bad):
    with pytest.raises(ValueError, match="bad max_exp"):
        golden_polys[2].truncate("x", bad)


def marginal_polys():
    # small coefficients cancel; large ones pass 2**64
    keys = st.tuples(*(st.integers(min_value=0, max_value=4) for _ in range(5)))
    coeffs = st.one_of(st.integers(min_value=-3, max_value=3),
                       st.integers(min_value=-2 ** 80, max_value=2 ** 80))
    return st.dictionaries(keys, coeffs, max_size=10).map(MultiPoly)


@settings(max_examples=150, deadline=None)
@given(marginal_polys(), st.sampled_from(VARIABLES),
       st.integers(min_value=1, max_value=3))
@example(MultiPoly.zero(), "x", 1)
def test_marginal_matches_eval_partial(f, name, extra):
    """marginal against eval_partial of the other four variables at 1,
    read coefficient by coefficient."""
    i = VARIABLES.index(name)
    degree = max((key[i] for key, _ in f.items()), default=-1)
    rest = f.eval_partial({v: 1 for v in VARIABLES if v != name})
    length = degree + extra
    expected = [rest.coefficient(tuple(e if j == i else 0 for j in range(5)))
                for e in range(length)]
    assert f.marginal(name, length) == expected
    if f:
        with pytest.raises(ValueError, match="past length"):
            f.marginal(name, degree)


# --------------------------------------------------------- hypothesis ring

@settings(max_examples=80, deadline=None)
@given(small_polys(), small_polys(), small_polys())
def test_ring_axioms(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


@settings(max_examples=60, deadline=None)
@given(small_polys(), small_polys(), int_points())
def test_evaluation_is_a_homomorphism(a, b, point):
    assert eval_at(a + b, point) == eval_at(a, point) + eval_at(b, point)
    assert eval_at(a * b, point) == eval_at(a, point) * eval_at(b, point)


def _stores_no_zero(value):
    return all(c and (not isinstance(c, QLaurent) or _stores_no_zero(c))
               for _, c in value.items())


def _as_words(f):
    # each term c x^a y^b z^d p^e q^k gives two words whose D_q images
    # meet in the word g_{a+1}^(b) f_{d+1}^(e+1) with opposite coefficients
    out = SymExpr.zero()
    for (a, b, d, e, k), c in f.items():
        out = out + SymExpr({
            (g_factor(a, b), f_factor(d + 1, e)): QLaurent.q_power(k, c),
            (g_factor(a + 1, b), f_factor(d, e + 1)):
                QLaurent.q_power(k + b - e - 1, -c)})
    return out


@settings(max_examples=80, deadline=None)
@given(signed_polys(), signed_polys(), st.sampled_from(VARIABLES),
       st.integers(min_value=-1, max_value=1))
def test_results_store_no_zero(a, b, name, value):
    results = [a + b, a - b, a + (b - a), MultiPoly.sum([a, b, -a]), a * b,
               (a - b) * (a + b),
               a.eval_partial({name: value}), d_q(a - b), t_q(a - b),
               dq_expr(_as_words(a - b))]
    assert all(map(_stores_no_zero, results))


# ----------------------------------------------------------------- laurent

def test_qlaurent_basics():
    q = QLaurent.q_power(1)
    assert (1 + q) * (1 + q) == QLaurent({0: 1, 1: 2, 2: 1})
    assert str(QLaurent({4: 3, 3: 11, 2: 28, 1: 36, 0: 42})) \
        == "3q^4 + 11q^3 + 28q^2 + 36q + 42"
    assert (q - 1).evaluate(1) == 0
    assert QLaurent({2: 5, 0: 7}).evaluate(0) == 7
    assert QLaurent({3: 1}).evaluate(-1) == -1


def test_qlaurent_inverse_and_shift():
    f = QLaurent({0: 1, 2: 2})
    g = f.substitute_q_inverse()
    assert g == QLaurent({0: 1, -2: 2})
    assert not g.is_polynomial()
    assert g.times_q_power(2).is_polynomial()
    with pytest.raises(ValueError):
        g.to_multipoly()
    with pytest.raises(ValueError):
        g.evaluate(2)
    assert g.evaluate(1) == 3 and g.evaluate(-1) == 3
    for bad in (0.5, True, False):
        with pytest.raises(ValueError, match="bad value"):
            f.evaluate(bad)


def test_qlaurent_multipoly_bridge():
    f = QLaurent({2: 3, 0: 1})
    assert f.to_multipoly() == MultiPoly.monomial(3, eq=2) + 1
    assert f.to_multipoly().as_qlaurent() == f
    with pytest.raises(ValueError):
        (X + 1).as_qlaurent()
