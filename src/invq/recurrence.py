"""The joint statistic polynomials F_n, summed over frequency classes.

The length-extension recurrence is kept as the oracle: appending a new
entry to an inversion sequence of length n either repeats the fresh maximal
value (the boundary term below) or lands on one of the existing admissible
values; the latter case is captured exactly by the operator t_q together
with the scaled shift x -> x/p, p-degree n.
"""

from __future__ import annotations

from functools import cache

from .polyring import MultiPoly
from .qcalc import q_binomial, t_q

_X = MultiPoly.variable("x")
_Y = MultiPoly.variable("y")
_Z = MultiPoly.variable("z")


def next_joint_poly(current: MultiPoly, n: int) -> MultiPoly:
    """One extension step: the length-(n+1) polynomial from the length-n one."""
    if n < 1:
        raise ValueError("length must be >= 1")
    boundary = (_Z - 1) * MultiPoly.monomial(1, ex=n + 1, ey=n, ez=n - 1)
    return boundary + ((_Y - 1) * current + t_q(current)).scaled_shift(n)


@cache
def joint_poly(n: int) -> MultiPoly:
    """Joint distribution polynomial of length n, memoized.

    A sum over frequency classes, scanning values j = n-1 .. 1 with one
    state per `above`, the entries placed above j.  Taking v >= 1 of the
    m = n - j - above free slots gives qbinom(m, v) y^(v-1) p^(j v), the
    factor `invseq.fixed_freq_poly` states; the first value taken gives
    z^(n-1-j).  Each new state `t` is one `MultiPoly.sum` over its sources
    `above <= t`.  The zeros fill the n - above slots left.
    """
    if n < 1:
        raise ValueError("length must be >= 1")

    def taken(poly, j, above, v):  # v of the free slots of `above` hold j
        if not v:
            return poly
        m = n - j - above
        return poly * (q_binomial(m, v).to_multipoly() * MultiPoly.monomial(
            1, ey=v - 1, ez=0 if above else n - 1 - j, ep=j * v))

    states = [MultiPoly.one()]  # states[above]: polynomial in y, z, p, q
    for j in range(n - 1, 0, -1):
        states = [MultiPoly.sum(taken(states[above], j, above, t - above)
                                for above in range(min(t + 1, len(states))))
                  for t in range(n - j + 1)]
    return MultiPoly.sum(
        poly * MultiPoly.monomial(1, ex=n - above, ey=n - above - 1,
                                  ez=0 if above else n - 1)
        for above, poly in enumerate(states))


def inv_poly(n: int):
    """Inversion-count marginal: everything but q bound to 1."""
    return joint_poly(n).eval_partial(
        {"x": 1, "y": 1, "z": 1, "p": 1}).as_qlaurent()


def product_formula(n: int) -> MultiPoly:
    """Closed product for the (x, p) marginal:
    x * (x + p) * (x + p + p^2) * ... * (x + p + ... + p^(n-1)).
    """
    if n < 1:
        raise ValueError("length must be >= 1")
    result = MultiPoly.one()
    for j in range(n):
        result = result * (_X + MultiPoly._raw(
            {(0, 0, 0, i, 0): 1 for i in range(1, j + 1)}))
    return result


def p_factorial(n: int) -> MultiPoly:
    """[n]_p! = prod_{k=1}^{n} (1 + p + ... + p^(k-1)), the x=1 slice of
    the product formula."""
    if n < 0:
        raise ValueError("needs n >= 0")
    result = MultiPoly.one()
    for k in range(1, n + 1):
        result = result * MultiPoly._raw(
            {(0, 0, 0, i, 0): 1 for i in range(k)})
    return result


def uel_distribution(n: int) -> list[int]:
    """Counts of sequences in I_n by their uel value, from the z-marginal.

    Entry j is the coefficient of z^j in the joint polynomial with
    x = y = p = q = 1.
    """
    marg = joint_poly(n).eval_partial({"x": 1, "y": 1, "p": 1, "q": 1})
    by_z = marg.coefficients_in("z")
    return [by_z[j].constant_value() if j in by_z else 0 for j in range(n)]
