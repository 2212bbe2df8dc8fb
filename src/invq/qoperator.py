"""Symbolic normal ordering of iterated g * D_q applications.

Words are tuples of factors g_i^(j) or f_i^(j), where i counts how often
the factor has been q-differentiated and (j) means the argument is scaled
by q^j (factor evaluated at x q^j).  The scaling rule
    D_q applied to h_i^(j) yields q^j h_{i+1}^(j)
plus the product rule (every factor right of the differentiated one gains
one argument scale) normal-orders (g D_q)^n f into a combination of such
words with q-polynomial coefficients.

The coefficient of a fixed g-word, with the terminal f factor stripped,
is a q-analog of the Comtet coefficient; it is computed here three ways
(expansion extraction, an explicit Gaussian-binomial sum over the
frequency classes, and a two-term recurrence) and specializes to
x^k * stirling2_q(n, k) under the geometric substitution g = 1/(1 - x)
(substitute_g).
"""

from __future__ import annotations

from typing import Iterator, NamedTuple

from .invseq import brute_class_polys, fixed_freq_poly, occurrence_counts
from .paths import weakly_increasing_sequences
from .polyring import ExpVec, MultiPoly, QLaurent, TermMap


class Factor(NamedTuple):
    kind: str   # "g" or "f"
    deriv: int  # number of q-derivatives taken
    shift: int  # argument scale: factor evaluated at x q^shift


Word = tuple[Factor, ...]


def g_factor(deriv: int = 0, shift: int = 0) -> Factor:
    return Factor("g", deriv, shift)


def f_factor(deriv: int = 0, shift: int = 0) -> Factor:
    return Factor("f", deriv, shift)


def _format_factor(f: Factor) -> str:
    text = f.kind
    if f.kind == "f" or f.deriv or f.shift:
        text += f"_{f.deriv}"
    if f.shift:
        text += f"^({f.shift})"
    return text


class SymExpr(TermMap):
    """Finite combination of words with QLaurent coefficients.

    Zero coefficients are elided; equality is structural.  There is no
    constant word, so int operands are refused; an int coefficient is read
    as a constant QLaurent.  A word of outside input must be a tuple of
    Factors of kind "g" or "f" with nonnegative int deriv and shift.
    """

    __slots__ = ()

    _COEFF = QLaurent

    @staticmethod
    def _key(word) -> Word:
        if type(word) is not tuple or not all(
                type(f) is Factor and f.kind in ("g", "f")
                and type(f.deriv) is int and f.deriv >= 0
                and type(f.shift) is int and f.shift >= 0 for f in word):
            raise ValueError(f"bad word {word!r}")
        return word

    @classmethod
    def _coeff(cls, coeff):
        if type(coeff) is int:
            coeff = QLaurent.constant(coeff)
        return super()._coeff(coeff)

    @classmethod
    def from_word(cls, word: Word, coeff: QLaurent | int = 1) -> "SymExpr":
        return cls._summed({cls._key(word): cls._coeff(coeff)})

    def sorted_items(self) -> list[tuple[Word, QLaurent]]:
        return sorted(self._terms.items())  # words are unique keys

    def scale(self, coeff: QLaurent | int) -> "SymExpr":
        coeff = self._coeff(coeff)
        return SymExpr._summed({w: c * coeff for w, c in self._terms.items()})

    def __str__(self):
        return format_words(self.sorted_items())


def format_words(items: list[tuple[Word, QLaurent]]) -> str:
    """The text of a combination of words from its `sorted_items()`."""
    if not items:
        return "0"
    one = QLaurent.one()
    terms = ((" ".join(map(_format_factor, word)), coeff) for word, coeff in items)
    return " + ".join(body if coeff == one else f"({coeff}) {body}"
                      for body, coeff in terms)


# ------------------------------------------------------------ the operator

def dq_word(word: Word, coeff: QLaurent) -> Iterator[tuple[Word, QLaurent]]:
    """Product rule: differentiate each position, scaling everything to
    its right by one more power of q."""
    for i, f in enumerate(word):
        new = (word[:i]
               + (Factor(f.kind, f.deriv + 1, f.shift),)
               + tuple(Factor(g.kind, g.deriv, g.shift + 1)
                       for g in word[i + 1:]))
        yield new, coeff.times_q_power(f.shift)


def dq_expr(expr: SymExpr) -> SymExpr:
    out: dict[Word, QLaurent] = {}
    for word, coeff in expr.items():
        for new, c in dq_word(word, coeff):
            out[new] = out.get(new, 0) + c
    return SymExpr._summed(out)


def times_g(expr: SymExpr) -> SymExpr:
    """Left-multiply every word by a fresh unscaled g."""
    return SymExpr._raw({(g_factor(),) + w: c for w, c in expr.items()})


def apply_gdq(expr: SymExpr) -> SymExpr:
    """One application of g * D_q.  Every word must end in an f factor."""
    for word, _ in expr.items():
        if not word or word[-1].kind != "f":
            raise ValueError("each word must terminate in an f factor")
    return times_g(dq_expr(expr))


def operator_expansion(n: int) -> SymExpr:
    """(g D_q)^n applied to a bare f, normal-ordered."""
    if n < 0:
        raise ValueError("needs n >= 0")
    expr = SymExpr.from_word((f_factor(),))
    for _ in range(n):
        expr = apply_gdq(expr)
    return expr


def class_word(counts: tuple[int, ...]) -> Word:
    """The word of the frequency class v = counts, with n = len(v):
    g g_{k_1} g_{k_2}^(K_1) ... g_{k_{n-1}}^(K_{n-2}) f_k^(K_{n-1}),
    where k_j = v_{n-j} counts entries equal to n - j, K_j is the running
    sum and k = v_0 is the number of zeros."""
    n = len(counts)
    word = [g_factor()]
    running = 0
    for j in range(1, n):
        kj = counts[n - j]
        word.append(Factor("g", kj, running))
        running += kj
    word.append(Factor("f", counts[0], running))
    return tuple(word)


def expansion_from_sequences(n: int) -> SymExpr:
    """The same normal form assembled directly from inversion sequences:
    each e contributes q^inv(e) times the class_word of its frequency
    vector, summed per class by enumeration."""
    if n < 1:
        raise ValueError("needs n >= 1")
    return SymExpr._summed({class_word(v): poly for v, poly
                            in brute_class_polys(n).items()})


# ----------------------------------------------------- Comtet-style coefficients

def comtet_coeff_from_expansion(expr: SymExpr, k: int) -> SymExpr:
    """Coefficient of the terminal f_k factor inside a full expansion:
    the sub-sum of words ending in f with deriv k, terminal factor stripped."""
    out: dict[Word, QLaurent] = {}
    for word, coeff in expr.items():
        if not word or word[-1].kind != "f":
            raise ValueError("each word must terminate in an f factor")
        if word[-1].deriv == k:
            out[word[:-1]] = coeff
    return SymExpr._raw(out)


def comtet_coeff_explicit(n: int, k: int) -> SymExpr:
    """Explicit form: sum over compositions (k_1, ..., k_{n-1}) with
    K_j <= j and K_{n-1} = n - k of
    prod_j qbinom(j - K_{j-1}, k_j) times the matching g-word.

    Each such composition is a frequency class v with v_0 = k, and its
    product is fixed_freq_poly(v).  The classes met in I_n are exactly
    the frequency vectors of its weakly increasing members (sorting a
    sequence keeps its vector and stays in I_n), so the sum runs over
    those Catalan-many sequences."""
    if not 1 <= k <= n:
        raise ValueError("need 1 <= k <= n")
    classes = (occurrence_counts(w) for w in weakly_increasing_sequences(n)
               if w.count(0) == k)
    return SymExpr._raw({class_word(v)[:-1]: fixed_freq_poly(v)
                         for v in classes})


def comtet_coeff_recurrence(n: int, k: int) -> SymExpr:
    """Two-term recurrence
    L(n+1, k) = g D_q L(n, k) + q^(n-k+1) g L(n, k-1),
    from L(0, 0) = empty word.  Tabled row by row over m, each L(m, j)
    built once, keeping only the j that L(n, k) still needs."""
    if not 1 <= k <= n:
        raise ValueError("need 1 <= k <= n")
    row = {0: SymExpr.from_word(())}  # L(0, j) is 0 for every j != 0
    for m in range(1, n + 1):
        new: dict[int, SymExpr] = {}
        for j in range(max(1, k - n + m), min(m, k) + 1):
            upper, lower = row.get(j), row.get(j - 1)
            result = times_g(dq_expr(upper)) if upper else SymExpr.zero()
            if lower:
                result = result + times_g(lower).scale(
                    QLaurent.q_power(m - j))
            new[j] = result
        row = new
    return row[k]


# --------------------------------------------------------- specializations

def substitute_g(expr: SymExpr) -> MultiPoly:
    """The geometric specialization g = 1/(1 - x), read off each word:
    g_0^(j) -> q^j x, g_1^(j) -> 1 and higher derivatives -> 0, so a word
    with a factor of deriv > 1 drops out and any other gives its
    coefficient times x^a q^b, where a counts its deriv-0 factors and b
    sums their shifts.  Turns Comtet words into x^k stirling2_q.

    Words must be g-only (strip the terminal f first); coefficients must
    be genuine q-polynomials.
    """
    out: dict[ExpVec, int] = {}
    for word, coeff in expr.items():
        terms = coeff.to_multipoly().items()  # refuses a Laurent part
        if any(f.kind != "g" for f in word):
            raise ValueError("substitution needs g-only words")
        if any(f.deriv > 1 for f in word):
            continue
        shifts = [f.shift for f in word if f.deriv == 0]
        a, b = len(shifts), sum(shifts)
        for (*_, e), c in terms:
            key = (a, 0, 0, 0, b + e)
            out[key] = out.get(key, 0) + c
    return MultiPoly._summed(out)
