"""The vendored sequence prefixes must match what the library computes."""

import pytest

from invq.identities import eulerian_row, max_displacement_counts
from invq.oeis import STAT_NAMES, expected_entry, expected_values
from invq.paths import (catalan, involution_number, narayana_row,
                        returns_triangle_row)
from invq.recurrence import peak_sum_row


def test_every_entry_is_well_formed():
    for name in STAT_NAMES:
        entry = expected_entry(name)
        assert entry["kind"] in {"sequence", "triangle"}
        assert entry["start"] == 1
        assert entry["values"]
        assert entry["description"]


def test_unknown_name_raises():
    with pytest.raises(KeyError):
        expected_entry("fibonacci")


def test_catalan_prefix():
    values = expected_values("catalan")
    assert values == [catalan(n) for n in range(1, len(values) + 1)]
    assert values[:6] == [1, 2, 5, 14, 42, 132]


def test_involutions_prefix():
    values = expected_values("involutions")
    assert values == [involution_number(n) for n in range(1, len(values) + 1)]
    assert values[:6] == [1, 2, 4, 10, 26, 76]


def test_narayana_rows():
    rows = expected_values("narayana")
    assert rows == [narayana_row(n) for n in range(1, len(rows) + 1)]


def test_returns_rows():
    rows = expected_values("returns")
    assert rows == [returns_triangle_row(n) for n in range(1, len(rows) + 1)]


def test_peak_sum_rows():
    rows = expected_values("a114503")
    assert rows == [peak_sum_row(n) for n in range(1, len(rows) + 1)]


def test_displacement_rows():
    rows = expected_values("a056151")
    assert rows == [max_displacement_counts(n) for n in range(1, len(rows) + 1)]


def test_eulerian_rows():
    rows = expected_values("eulerian")
    assert rows == [eulerian_row(n) for n in range(1, len(rows) + 1)]
