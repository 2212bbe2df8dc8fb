"""The joint statistic polynomials F_n, summed over frequency classes.

The length-extension recurrence is kept as the oracle: appending a new
entry to an inversion sequence of length n either repeats the fresh maximal
value (the boundary term below) or lands on one of the existing admissible
values; the latter case is captured exactly by the operator t_q together
with the scaled shift x -> x/p, p-degree n.
"""

from __future__ import annotations

from .polyring import ExpVec, MultiPoly, QLaurent
from .qcalc import packed_q_binomial, q_factorial, slot_width, t_q, unpack

_X = MultiPoly.variable("x")
_Y = MultiPoly.variable("y")
_Z = MultiPoly.variable("z")


def next_joint_poly(current: MultiPoly, n: int) -> MultiPoly:
    """One extension step: the length-(n+1) polynomial from the length-n one."""
    if n < 1:
        raise ValueError("length must be >= 1")
    boundary = (_Z - 1) * MultiPoly.monomial(1, ex=n + 1, ey=n, ez=n - 1)
    return boundary + ((_Y - 1) * current + t_q(current)).scaled_shift(n)


_State = dict[tuple[int, int, int], int]  # (ey, ez, ep) -> packed q-poly


def _class_scan(n: int) -> tuple[int, list[_State]]:
    """The slot width in bytes and the packed final states of the sum of
    F_n over frequency classes, indexed by `above`.

    Values j = n-1 .. 1 are scanned with one state per `above`, the entries
    placed above j.  Taking v >= 1 of the m = n - j - above free slots
    multiplies by qbinom(m, v) y^(v-1) p^(j v), the factor
    `invseq.fixed_freq_poly` states; the first value taken gives
    z^(n-1-j).  Taking v = 0 passes a state on unchanged, so each target t
    is built in place over states[t], largest t first, while its sources
    above < t are still unchanged.
    """
    if n < 1:
        raise ValueError("length must be >= 1")
    width = slot_width(n)  # see joint_poly
    # every factor the scan takes, fetched before it starts: the cached
    # ints then sit apart from the scan's short-lived ones (peak RSS)
    packed = {(m, v): packed_q_binomial(m, v, width)
              for m in range(1, n) for v in range(1, m + 1)}
    states: list[_State] = [{(0, 0, 0): 1}]
    for j in range(n - 1, 0, -1):
        states.append({})
        for t in range(n - j, 0, -1):
            target = states[t]
            get = target.get
            for above in range(t):
                v = t - above
                b = packed[n - j - above, v]
                dy, dz, dp = v - 1, 0 if above else n - 1 - j, j * v
                for (ey, ez, ep), poly in states[above].items():
                    key = (ey + dy, ez + dz, ep + dp)
                    target[key] = get(key, 0) + poly * b
    return width, states


def joint_poly(n: int) -> MultiPoly:
    """Joint distribution polynomial of length n.

    A sum over frequency classes (`_class_scan`) whose states pack each
    q-polynomial into one int, coefficient of q^s in bytes
    [s * width, (s + 1) * width), so that a step is one bigint multiply by
    a packed q-binomial (Kronecker substitution).  A slot of bits(n!) + 1
    bits, rounded up to whole bytes (`qcalc.slot_width`), never carries
    into the next: taking v = 0 of a value passes a state on unchanged, so
    every coefficient of every product and sum along the scan is a summand
    of a coefficient of F_n, and those are nonnegative and sum to n!.  The
    zeros fill the n - above slots left; each state unpacks straight into
    terms of F_n.
    """
    width, states = _class_scan(n)
    out: dict[ExpVec, int] = {}
    for above, state in enumerate(states):
        ex, dy, dz = n - above, n - above - 1, 0 if above else n - 1
        for (ey, ez, ep), poly in state.items():
            for eq, c in enumerate(unpack(poly, width)):
                if c:
                    out[ex, ey + dy, ez + dz, ep, eq] = c
    return MultiPoly._raw(out)


def inv_poly(n: int) -> QLaurent:
    """Inversion-count marginal: everything but q bound to 1, the sum of
    every packed state of the class scan, unpacked once."""
    width, states = _class_scan(n)
    total = sum(sum(state.values()) for state in states)
    return QLaurent._summed(dict(enumerate(unpack(total, width))))


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
    the product formula: `qcalc.q_factorial(n)` with q^e read as p^e."""
    if n < 0:
        raise ValueError("needs n >= 0")
    return MultiPoly._raw({(0, 0, 0, e, 0): c
                           for e, c in q_factorial(n).items()})


def uel_distribution(n: int) -> list[int]:
    """Counts of sequences in I_n by their uel value, from the z-marginal.

    Entry j is the coefficient of z^j in the joint polynomial with
    x = y = p = q = 1.
    """
    return joint_poly(n).marginal("z", n)
