import pytest

from invq.polyring import MultiPoly


def _monomials(entries):
    # entries: (coeff, ex, ey, ez, ep, eq), the arguments of monomial
    return MultiPoly.sum(MultiPoly.monomial(*entry) for entry in entries)


@pytest.fixture(scope="session")
def golden_polys():
    """The three known joint polynomials of lengths 1..3, term by term."""
    return {
        1: _monomials([(1, 1, 0, 0, 0, 0)]),
        2: _monomials([
            (1, 2, 1, 1, 0, 0),   # x^2 y z
            (1, 1, 0, 0, 1, 0),   # x p
        ]),
        3: _monomials([
            (1, 3, 2, 2, 0, 0),   # x^3 y^2 z^2
            (1, 2, 1, 1, 1, 1),   # x^2 y z p q
            (1, 2, 1, 0, 2, 0),   # x^2 y p^2
            (1, 2, 1, 1, 1, 0),   # x^2 y z p
            (1, 1, 1, 1, 2, 0),   # x y z p^2
            (1, 1, 0, 0, 3, 0),   # x p^3
        ]),
    }
