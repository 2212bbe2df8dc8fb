"""The joint statistic polynomials F_n, summed over frequency classes.

The length-extension recurrence is kept as the oracle: appending a new
entry to an inversion sequence of length n either repeats the fresh maximal
value (the boundary term below) or lands on one of the existing admissible
values; the latter case is captured exactly by the operator t_q together
with the scaled shift x -> x/p, p-degree n.
"""

from __future__ import annotations

from typing import Iterator, Mapping

from .polyring import ExpVec, MultiPoly, QLaurent, check_bindings
from .qcalc import q_factorial, q_pascal, slot_width, t_q, unpack

_X = MultiPoly.variable("x")
_Y = MultiPoly.variable("y")
_Z = MultiPoly.variable("z")
_INV_BIND = {"x": 1, "y": 1, "z": 1, "p": 1}


def next_joint_poly(current: MultiPoly, n: int) -> MultiPoly:
    """One extension step: the length-(n+1) polynomial from the length-n one."""
    if n < 1:
        raise ValueError("length must be >= 1")
    boundary = (_Z - 1) * MultiPoly.monomial(1, ex=n + 1, ey=n, ez=n - 1)
    return boundary + ((_Y - 1) * current + t_q(current)).scaled_shift(n)


_State = dict[int, int]  # folded (ey, ez, ep) key -> packed q-poly or int


def _class_scan(n: int, bind: Mapping[str, int]) -> tuple[int | None, list[_State]]:
    """The slot width in bytes (None with q bound) and the final states of
    the sum of F_n over frequency classes, indexed by `above`.

    Values j = n-1 .. 1 are scanned with one state per `above`, the entries
    placed above j.  Taking v >= 1 of the m = n - j - above free slots
    multiplies by qbinom(m, v) y^(v-1) p^(j v), the factor
    `invseq.fixed_freq_poly` states; the first value taken gives
    z^(n-1-j).  Taking v = 0 passes a state on unchanged, so each target t
    is built in place over states[t], largest t first, while its sources
    above < t are still unchanged.

    A state maps the free exponents among y, z and p, folded into the one
    int (ey * n + ez) * r + ep with r = n(n-1)/2 + 1, to its q-polynomial;
    a bound variable adds 0 to the key and its value to the step factor,
    and a step whose factor is 0 is skipped.  The q-binomials are read off
    one `qcalc.q_pascal` table: at the bound q, so every state is an int,
    or with q free at 2**(8 * width), so every state is its q-polynomial
    packed (which needs every bound value >= 0).
    """
    y0, z0, p0, q0 = map(bind.get, "yzpq")
    r = n * (n - 1) // 2 + 1
    ky = 0 if y0 is not None else n * r
    kz = 0 if z0 is not None else r
    kp = 0 if p0 is not None else 1
    width = None
    if q0 is None:  # packed: bound powers at most y^(n-1) z^(n-1) p^(r-1)
        y1, z1, p1 = (max(bind.get(v, 1), 1) for v in "yzp")
        width = slot_width(n, y1 ** (n - 1) * z1 ** (n - 1) * p1 ** (r - 1))
    pascal = q_pascal(n - 1, 1 << 8 * width if width else q0)
    # every factor the scan takes, made before it starts: the cached
    # ints then sit apart from the scan's short-lived ones (peak RSS)
    factors = {(m, v): pascal[m][v] * (1 if y0 is None else y0 ** (v - 1))
               for m in range(1, n) for v in range(1, m + 1)}
    states: list[_State] = [{0: 1}]
    for j in range(n - 1, 0, -1):
        states.append({})
        pj = 1 if p0 is None else p0 ** j
        zj = 1 if z0 is None else z0 ** (n - 1 - j)
        for t in range(n - j, 0, -1):
            target = states[t]
            get = target.get
            for above in range(t):
                v = t - above
                b = factors[n - j - above, v] * pj ** v
                dk = (v - 1) * ky + j * v * kp
                if not above:  # the first value taken: z^(n-1-j)
                    b *= zj
                    dk += (n - 1 - j) * kz
                if not b:
                    continue
                for key, poly in states[above].items():
                    key += dk
                    target[key] = get(key, 0) + poly * b
    return width, states


def _runs(n: int, bind: Mapping[str, int]) -> Iterator[tuple]:
    """The final class-scan states of F_n with `bind` substituted, one run
    (ex, ey, ez, ep, coeffs) per state entry: coeffs[eq] is the coefficient
    of x^ex y^ey z^ez p^ep q^eq.  The scan substitutes a bound p or q (ep is
    then 0, and a bound q leaves one coefficient); a bound x, y or z keeps
    the exponent the zeros give it, for the caller to scale by.  A p left
    out of `bind` keeps its exponent, which the caller may scale too."""
    width, states = _class_scan(n, bind)
    r = n * (n - 1) // 2 + 1
    for above, state in enumerate(states):
        ex, dy, dz = n - above, n - above - 1, 0 if above else n - 1
        for key, poly in state.items():
            rest, ep = divmod(key, r)
            ey, ez = divmod(rest, n)
            yield (ex, ey + dy, ez + dz, ep,
                   unpack(poly, width) if width else (poly,))


def joint_runs(n: int) -> Iterator[tuple[int, int, int, int, list[int]]]:
    """The terms of F_n as runs (ex, ey, ez, ep, coeffs), one per state of
    the unbound class scan: coeffs lists the coefficients of q^0, q^1, ...
    of x^ex y^ey z^ez p^ep, and all are positive (see joint_poly), and no
    two runs share (ex, ey, ez, ep).  `cli` renders `fpoly N` from them."""
    if n < 1:
        raise ValueError("length must be >= 1")
    return _runs(n, {})


def joint_poly(n: int, bind: Mapping[str, int] | None = None) -> MultiPoly:
    """Joint distribution polynomial of length n, with the variables of
    `bind` substituted by ints (`MultiPoly.eval_partial`, its oracle).

    A sum over frequency classes (`_class_scan`) whose states pack each
    q-polynomial into one int, so that a step is one bigint multiply by a
    packed q-binomial (`qcalc.q_pascal`, `qcalc.slot_width`).  The zeros
    fill the n - above slots left, giving x^(n-above) y^(n-above-1), and
    z^(n-1) when they fill every slot; bound, each of those is a factor of
    the state.  Unbound, each state unpacks straight into terms of F_n: a
    product and a sum of q-polynomials with constant term 1, gap-free
    support and positive coefficients keep all three, so no slot is 0.

    A negative y, z or p with q free cannot be packed: the scan leaves that
    variable free, and its power is a factor of each run, as for a bound x.
    """
    if n < 1:
        raise ValueError("length must be >= 1")
    bind = dict(bind or {})
    check_bindings(bind)
    out: dict[ExpVec, int] = {}
    if not bind:  # distinct terms of F_n, none of them 0
        for ex, ey, ez, ep, cs in joint_runs(n):
            for eq, c in enumerate(cs):
                out[ex, ey, ez, ep, eq] = c
        return MultiPoly._raw(out)
    scan = bind if "q" in bind else {v: b for v, b in bind.items() if b >= 0}
    x0, y0, z0 = map(bind.get, "xyz")
    p0 = None if "p" in scan else bind.get("p")  # the scan left p free
    get = out.get
    for ex, ey, ez, ep, cs in _runs(n, scan):
        scale = 1
        if x0 is not None:
            scale, ex = scale * x0 ** ex, 0
        if y0 is not None:
            scale, ey = scale * y0 ** ey, 0
        if z0 is not None:
            scale, ez = scale * z0 ** ez, 0
        if p0 is not None:
            scale, ep = scale * p0 ** ep, 0
        if not scale:
            continue
        for eq, c in enumerate(cs):
            term = (ex, ey, ez, ep, eq)
            out[term] = get(term, 0) + c * scale
    return MultiPoly._summed(out)


def inv_poly(n: int) -> QLaurent:
    """Inversion-count marginal: everything but q bound to 1."""
    return joint_poly(n, _INV_BIND).as_qlaurent()


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


def tel_distribution(n: int) -> list[int]:
    """Counts of sequences in I_n by their tel value, from the y-marginal:
    the Eulerian numbers, k = 0..n-1 (`identities.eulerian_row`, the
    descents of S_n, is its oracle).
    """
    return joint_poly(n, {"x": 1, "z": 1, "p": 1, "q": 1}).marginal("y", n)


def uel_distribution(n: int) -> list[int]:
    """Counts of sequences in I_n by their uel value, from the z-marginal.

    Entry j is the coefficient of z^j in the joint polynomial with
    x = y = p = q = 1.
    """
    return joint_poly(n, {"x": 1, "y": 1, "p": 1, "q": 1}).marginal("z", n)


def peak_sum_row(n: int) -> list[int]:
    """Paths of semilength n by first plus last peak height (a single peak
    counts twice), as counts for sums 2, 3, ..., 2n.

    Read off the q = 0 slice of F_n at y = p = 1, whose terms are the
    weakly increasing sequences (`paths.peak_height_poly` ties them to the
    paths): the first peak height is noz = a and the last uel + 1 = c + 1,
    so a term x^a z^c counts at sum a + c + 1, index a + c - 1.
    """
    terms = joint_poly(n, {"y": 1, "p": 1, "q": 0}).items()
    row = [0] * (2 * n - 1)
    for (a, _, c, _, _), count in terms:
        row[a + c - 1] += count
    return row
