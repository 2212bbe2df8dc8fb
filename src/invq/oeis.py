"""Vendored expected prefixes of the classical counting sequences.

The CLI `sequence` subcommand recomputes every value from the library;
these frozen prefixes only serve as offline fixtures to diff against.
Triangles are stored row by row starting at the row for length 1.
"""

from __future__ import annotations

import json
from functools import cache
from importlib import resources

STAT_NAMES = ("catalan", "narayana", "returns", "a114503", "a056151",
              "involutions", "eulerian")


@cache
def _load() -> dict:
    text = (resources.files("invq") / "data" / "oeis_prefixes.json").read_text()
    return json.loads(text)


def expected_entry(name: str) -> dict:
    data = _load()
    if name not in data:
        raise KeyError(f"no vendored prefix named {name!r}")
    return data[name]


def expected_values(name: str) -> list:
    """The frozen values: a flat list, or a list of rows for triangles."""
    return expected_entry(name)["values"]
