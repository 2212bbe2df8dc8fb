"""Exact sparse polynomial arithmetic over the fixed variable tuple (x, y, z, p, q).

MultiPoly is the shared substrate for the joint-statistic generating
polynomials: a term map from exponent vectors to nonzero integer
coefficients.  Coefficients are Python ints, so totals like n! stay exact
at any size and every identity check is an equality of term maps.

QLaurent is the one-variable companion for q-only quantities.  It allows
negative exponents, which the q -> 1/q substitutions of the Stirling-family
relations need as an intermediate step.

Both derive from TermMap, the sparse key -> nonzero coefficient map that
also carries qoperator.SymExpr; it owns construction, addition, negation,
subtraction, powers and structural equality.  Each subclass keeps its own
key normalizer, multiplication, substitutions and rendering.

Every operation that builds a term map follows one rule: sum each
coefficient into a plain dict with `out[key] = out.get(key, 0) + c`, then
hand the dict to `TermMap._summed`, which deletes the zero entries once, in
place, and wraps the dict without copying it.  Adding term maps is one
instance of the rule: `TermMap.sum(values)` copies the first operand and
reads each other once into that dict, and `a + b` is its two-operand case,
so a sum of many term maps never copies a growing accumulator.

All three types are immutable: every operation returns a fresh value, so
instances can be shared freely across threads.
"""

from __future__ import annotations

from typing import Iterable, ItemsView, Mapping

VARIABLES = ("x", "y", "z", "p", "q")

# exponent vector, one slot per entry of VARIABLES
ExpVec = tuple[int, int, int, int, int]


def _join_signed(chunks: list[str]) -> str:
    # chunks: the terms in order, each led by " + " or " - "; the first
    # sign becomes "" or "-", then the text is joined once
    if not chunks:
        return "0"
    first = chunks[0]
    chunks[0] = first[3:] if first[1] == "+" else "-" + first[3:]
    return "".join(chunks)


def power_tables(top: int) -> list[list[str]]:
    """For each of VARIABLES, its factor of a monomial's text by exponent
    0 .. top: "", "*x", "*x^2", ...  The text of a monomial is the five
    factors joined, less the leading "*"."""
    return [[""] + [f"*{name}" if e == 1 else f"*{name}^{e}"
                    for e in range(1, top + 1)]
            for name in VARIABLES]


def format_terms(items: list[tuple[ExpVec, int]]) -> str:
    """The canonical text of a polynomial from its `sorted_items()`.

    Each monomial is read from `power_tables` up to the largest exponent,
    so no term formats an exponent of its own.

    >>> format_terms([((2, 0, 0, 0, 1), 3), ((0, 0, 0, 0, 0), -1)])
    '3*x^2*q - 1'
    """
    x, y, z, p, q = power_tables(max((max(key) for key, _ in items), default=0))
    chunks = []
    for (a, b, c, d, e), coeff in items:
        mono = x[a] + y[b] + z[c] + p[d] + q[e]
        sign = " - " if coeff < 0 else " + "
        mag = abs(coeff)
        chunks.append(sign + mono[1:] if mag == 1 and mono
                      else f"{sign}{mag}{mono}")
    return _join_signed(chunks)


def _variable_index(name: str) -> int:
    """The slot of `name` in an exponent vector; refuse an unknown name."""
    if name not in VARIABLES:
        raise ValueError(f"unknown variable {name!r}")
    return VARIABLES.index(name)


def check_bindings(bindings: Mapping[str, int]) -> None:
    """Refuse a binding of an unknown variable or to a value that is not an
    int (a bool included), as every substitution into a MultiPoly does."""
    for name, v in bindings.items():
        _variable_index(name)
        if type(v) is not int:
            raise ValueError(f"bad value {v!r} for {name}")


class TermMap:
    """Sparse map from a key to a nonzero exact coefficient.

    The map is normalized: zero coefficients are never stored and zero is
    the empty map, so structural equality of term maps is equality of
    values.  Each subclass names its key normalizer `_key`, which checks
    and canonicalizes one key of outside input.  A subclass with a
    constant term names its key in `_UNIT`; `one`, `constant` and int
    operands are available only there.  `_coeff` admits a coefficient of
    outside input only if its type is exactly `_COEFF` (int, so never a
    bool; QLaurent for SymExpr, whose `_coeff` first reads an int as a
    constant).
    """

    __slots__ = ("_terms",)

    _UNIT = None
    _COEFF: type = int

    def __init__(self, terms: Mapping | None = None):
        out: dict = {}
        for key, coeff in (terms or {}).items():
            key = self._key(key)
            out[key] = out.get(key, 0) + self._coeff(coeff)
        self._terms = self._summed(out)._terms

    @classmethod
    def _coeff(cls, coeff):
        if type(coeff) is not cls._COEFF:
            raise ValueError(f"bad coefficient {coeff!r}")
        return coeff

    @classmethod
    def _raw(cls, terms: dict):
        # trusted constructor: terms already normalized, ownership transfers
        val = object.__new__(cls)
        val._terms = terms
        return val

    @classmethod
    def _summed(cls, terms: dict):
        """The value of a dict of summed coefficients: its zero entries are
        deleted in place (no second dict), then ownership transfers."""
        for key in [k for k, c in terms.items() if not c]:
            del terms[key]
        return cls._raw(terms)

    @classmethod
    def zero(cls):
        return cls._raw({})

    @classmethod
    def one(cls):
        return cls.constant(1)

    @classmethod
    def constant(cls, c: int):
        if cls._UNIT is None:
            raise TypeError(f"{cls.__name__} has no constant term")
        return cls._summed({cls._UNIT: cls._coeff(c)})

    @classmethod
    def sum(cls, values: Iterable):
        """The sum of term maps of this class, read once each into one dict."""
        out = get = None
        for value in values:
            if not isinstance(value, cls):
                raise TypeError(f"cannot sum {value!r} as {cls.__name__}")
            if out is None:
                # the first operand is copied whole, sharing its coefficients;
                # no hot path sums large temporaries, so that keeps none alive
                out = dict(value._terms)
                get = out.get
                continue
            for key, coeff in value._terms.items():
                out[key] = get(key, 0) + coeff
        return cls._summed({} if out is None else out)

    def items(self) -> ItemsView:
        """The (key, coefficient) pairs, unordered, as a read-only view."""
        return self._terms.items()

    def coefficient(self, key) -> int:
        """The coefficient of one key, checked by `_key`; 0 if absent."""
        return self._terms.get(self._key(key), 0)

    def term_count(self) -> int:
        return len(self._terms)

    # ----------------------------------------------------------- arithmetic

    @classmethod
    def _coerce(cls, other):
        if isinstance(other, cls):
            return other
        if type(other) is int and cls._UNIT is not None:
            return cls.constant(other)
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self.sum((self, other))

    def __neg__(self):
        return self._raw({k: -c for k, c in self._terms.items()})

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __pow__(self, n: int):
        if type(n) is not int or n < 0:
            raise ValueError("exponent must be a nonnegative int")
        result = self.one()
        for _ in range(n):
            result = result * self
        return result

    def __eq__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self._terms == other._terms

    def __bool__(self):
        return bool(self._terms)

    __hash__ = None  # mutable-dict backed; compare structurally only

    def __repr__(self):
        return f"{type(self).__name__}({str(self)!r})"


class MultiPoly(TermMap):
    """Sparse exact polynomial in (x, y, z, p, q), keyed by exponent vector.

    >>> x, p = MultiPoly.variable("x"), MultiPoly.variable("p")
    >>> str((p + x) * x)
    'x^2 + x*p'
    """

    __slots__ = ()

    _UNIT: ExpVec = (0, 0, 0, 0, 0)

    @staticmethod
    def _key(key: Iterable[int]) -> ExpVec:
        key = tuple(key)
        if len(key) != 5 or not all(type(e) is int and e >= 0 for e in key):
            raise ValueError(f"bad exponent vector {key!r}")
        return key

    # ---------------------------------------------------------------- build

    @classmethod
    def variable(cls, name: str) -> "MultiPoly":
        _variable_index(name)
        key = tuple(1 if v == name else 0 for v in VARIABLES)
        return cls._raw({key: 1})

    @classmethod
    def monomial(cls, coeff: int, ex: int = 0, ey: int = 0, ez: int = 0,
                 ep: int = 0, eq: int = 0) -> "MultiPoly":
        return cls._summed({cls._key((ex, ey, ez, ep, eq)): cls._coeff(coeff)})

    # ------------------------------------------------------------ accessors

    def sorted_items(self) -> list[tuple[ExpVec, int]]:
        # canonical order: total degree descending, then exponent vector
        # descending lexicographically (x-heavy terms first).  Two stable
        # sorts: keys are unique, so the first never compares coefficients,
        # and the second keeps that order within each total degree
        items = sorted(self._terms.items(), reverse=True)
        items.sort(key=lambda kv: sum(kv[0]), reverse=True)
        return items

    def marginal(self, name: str, length: int) -> list[int]:
        """Coefficient sums by exponent 0 .. length-1 of `name`, every other
        variable at 1; an exponent >= length is an error, never dropped.

        >>> f = MultiPoly.monomial(3, ex=1, eq=2) + MultiPoly.variable("y")
        >>> f.marginal("x", 2)
        [1, 3]
        """
        i = _variable_index(name)
        if type(length) is not int or length < 0:
            raise ValueError(f"bad length {length!r}")
        row = [0] * length
        for key, coeff in self._terms.items():
            e = key[i]
            if e >= length:
                raise ValueError(f"{name}^{e} lies past length {length}")
            row[e] += coeff
        return row

    # ----------------------------------------------------------- arithmetic

    # named in this class's own namespace too: perfbench/tracer.py wraps
    # the ring operators it finds there
    __add__ = __radd__ = TermMap.__add__

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        a, b = self._terms, other._terms
        if len(a) > len(b):
            a, b = b, a
        out: dict[ExpVec, int] = {}
        get = out.get
        for ka, ca in a.items():
            ax, ay, az, ap, aq = ka
            for kb, cb in b.items():
                key = (ax + kb[0], ay + kb[1], az + kb[2], ap + kb[3], aq + kb[4])
                out[key] = get(key, 0) + ca * cb
        return MultiPoly._summed(out)

    __rmul__ = __mul__

    # -------------------------------------------------------- substitutions

    def eval_partial(self, bindings: Mapping[str, int]) -> "MultiPoly":
        """Substitute integers for a subset of the variables.

        Unbound variables stay symbolic; binding everything yields a
        constant polynomial.  Unknown names and non-int values are errors.
        """
        check_bindings(bindings)
        if not bindings:
            return self
        slots = [(VARIABLES.index(name), v) for name, v in bindings.items()]
        out: dict[ExpVec, int] = {}
        for key, coeff in self._terms.items():
            c = coeff
            newkey = list(key)
            for i, v in slots:
                e = key[i]
                if e:
                    c *= v ** e
                    newkey[i] = 0
            k = tuple(newkey)
            out[k] = out.get(k, 0) + c
        return MultiPoly._summed(out)

    def scaled_shift(self, n: int) -> "MultiPoly":
        """Termwise x^a ... p^d  ->  x^(a+1) ... p^(d+n-a).

        This realizes p^n * x * f(x/p) without leaving the polynomial
        ring; it is the substitution step of the length-extension
        recurrence.  If some term has x-degree above d+n the substitution
        would need a negative p-exponent, which is an error.
        """
        if type(n) is not int or n < 0:
            raise ValueError("shift length must be a nonnegative int")
        out: dict[ExpVec, int] = {}
        for (ax, ay, az, ap, aq), coeff in self._terms.items():
            pe = ap + n - ax
            if pe < 0:
                raise ValueError("substitution leaves polynomial ring")
            out[(ax + 1, ay, az, pe, aq)] = coeff
        return MultiPoly._raw(out)

    def truncate(self, name: str, max_exp: int) -> "MultiPoly":
        """Drop every term whose exponent of `name` exceeds max_exp."""
        i = _variable_index(name)
        if type(max_exp) is not int:  # refuses bool too
            raise ValueError(f"bad max_exp {max_exp!r}")
        return MultiPoly._raw(
            {k: c for k, c in self._terms.items() if k[i] <= max_exp})

    # ------------------------------------------------------------ rendering

    def __str__(self):
        return format_terms(self.sorted_items())

    def to_json_terms(self) -> list[dict]:
        """Canonically ordered list of {"coeff", "ex", "ey", "ez", "ep", "eq"}."""
        return [
            {"coeff": c, "ex": k[0], "ey": k[1], "ez": k[2], "ep": k[3], "eq": k[4]}
            for k, c in self.sorted_items()
        ]

    @classmethod
    def from_json_terms(cls, items: Iterable[Mapping]) -> "MultiPoly":
        """Inverse of to_json_terms; each term passes `_key` and `_coeff`
        before any sum, and repeated exponent vectors add up."""
        return cls.sum(cls.monomial(t["coeff"], t["ex"], t["ey"], t["ez"],
                                    t["ep"], t["eq"]) for t in items)

    def as_qlaurent(self) -> "QLaurent":
        """View a q-only polynomial as a QLaurent; error if x,y,z,p occur."""
        out: dict[int, int] = {}
        for key, coeff in self._terms.items():
            if any(key[:4]):
                raise ValueError("polynomial involves more than q")
            out[key[4]] = coeff
        return QLaurent._raw(out)


class QLaurent(TermMap):
    """Laurent polynomial in q alone, exact integer coefficients.

    >>> str(QLaurent({2: 3, 0: 1}))
    '3q^2 + 1'
    """

    __slots__ = ()

    _UNIT = 0

    @staticmethod
    def _key(e: int) -> int:
        if type(e) is not int:
            raise ValueError(f"bad exponent {e!r}")
        return e

    @classmethod
    def q_power(cls, e: int, coeff: int = 1) -> "QLaurent":
        return cls._summed({cls._key(e): cls._coeff(coeff)})

    # ------------------------------------------------------------ accessors

    def is_polynomial(self) -> bool:
        return all(e >= 0 for e in self._terms)

    # ----------------------------------------------------------- arithmetic

    __add__ = __radd__ = TermMap.__add__

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        out: dict[int, int] = {}
        for ea, ca in self._terms.items():
            for eb, cb in other._terms.items():
                e = ea + eb
                out[e] = out.get(e, 0) + ca * cb
        return QLaurent._summed(out)

    __rmul__ = __mul__

    # -------------------------------------------------------- substitutions

    def times_q_power(self, e: int) -> "QLaurent":
        if type(e) is not int:
            raise ValueError(f"bad exponent {e!r}")
        return QLaurent._raw({k + e: c for k, c in self._terms.items()})

    def substitute_q_inverse(self) -> "QLaurent":
        """q -> 1/q, i.e. negate every exponent."""
        return QLaurent._raw({-k: c for k, c in self._terms.items()})

    def evaluate(self, value: int) -> int:
        """Exact evaluation at an integer q; q=0 needs no negative exponents."""
        if type(value) is not int:
            raise ValueError(f"bad value {value!r} for q")
        total = 0
        for e, c in self._terms.items():
            if e < 0:
                if value in (1, -1):
                    total += c * value ** (-e)
                    continue
                raise ValueError("negative exponent; cannot evaluate away from q=1,-1")
            total += c * value ** e
        return total

    def to_multipoly(self) -> MultiPoly:
        if not self.is_polynomial():
            raise ValueError("Laurent part present; not a polynomial in q")
        return MultiPoly._raw({(0, 0, 0, 0, e): c for e, c in self._terms.items()})

    # ------------------------------------------------------------ rendering

    def __str__(self):
        chunks = []
        for e in sorted(self._terms, reverse=True):
            c = self._terms[e]
            mag = abs(c)
            if e == 0:
                body = str(mag)
            else:
                qpart = "q" if e == 1 else f"q^{e}"
                body = qpart if mag == 1 else f"{mag}{qpart}"
            chunks.append((" - " if c < 0 else " + ") + body)
        return _join_signed(chunks)
