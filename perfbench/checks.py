"""Output checks: an op fails when any of these finds a problem.

* its exit status is not 0;
* its stdout differs from the sha256 digest recorded in ``expected.json``
  at the commit that defined the benchmark (the CLI promises
  byte-identical json and csv, and plain text is deterministic too);
* an invariant fails: coefficient sum n!, the known term counts, the
  ``q=1,0,-1`` columns against n!, Catalan and involution numbers from
  ``invq.oeis``, and ``verify`` reporting ``"ok": true`` with every check.

The invariants restate what a digest mismatch would not explain: if one
fails, the output is wrong, not merely different.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

EXPECTED = json.loads((Path(__file__).parent / "expected.json").read_text())

TERMS = {10: 29_937, 13: 276_517}
VERIFY_CHECKS = 26


def _plain_poly_sum(text: str) -> tuple[int, int]:
    """(terms, coefficient sum) of a rendered polynomial with positive
    coefficients, as ``str(MultiPoly)`` writes it: ``12*x^2*p + x*q``."""
    chunks = text.strip().split(" + ")
    total = 0
    for chunk in chunks:
        head = chunk.split("*", 1)[0]
        total += int(head) if head.isdigit() else 1
    return len(chunks), total


def _joint13(out: str) -> list[str]:
    summary = json.loads(out)
    problems = []
    if summary["terms"] != TERMS[13]:
        problems.append(f"term count {summary['terms']} != {TERMS[13]}")
    if summary["coeff_sum"] != math.factorial(13):
        problems.append("coefficient sum != 13!")
    return problems


def _fpoly_plain(out: str) -> list[str]:
    terms, total = _plain_poly_sum(out)
    problems = []
    if terms != TERMS[10]:
        problems.append(f"term count {terms} != {TERMS[10]}")
    if total != math.factorial(10):
        problems.append("coefficient sum != 10!")
    return problems


def _fpoly_json(out: str) -> list[str]:
    terms = json.loads(out)["result"]["terms"]
    problems = []
    if len(terms) != TERMS[10]:
        problems.append(f"term count {len(terms)} != {TERMS[10]}")
    if sum(t["coeff"] for t in terms) != math.factorial(10):
        problems.append("coefficient sum != 10!")
    return problems


def _fpoly_csv(out: str) -> list[str]:
    rows = out.splitlines()[1:]
    problems = []
    if len(rows) != TERMS[10]:
        problems.append(f"term count {len(rows)} != {TERMS[10]}")
    if sum(int(r.split(",", 1)[0]) for r in rows) != math.factorial(10):
        problems.append("coefficient sum != 10!")
    return problems


def _fpoly_columns(out: str) -> list[str]:
    from invq.oeis import expected_values

    catalan = expected_values("catalan")
    involutions = expected_values("involutions")
    rows = out.splitlines()[1:]
    if len(rows) != 10:
        return [f"{len(rows)} table rows != 10"]
    problems = []
    for n, row in enumerate(rows, start=1):
        cells = row.split()
        got = [int(c) for c in [cells[0]] + cells[-3:]]
        want = [n, math.factorial(n), catalan[n - 1], involutions[n - 1]]
        if got != want:
            problems.append(f"row {n}: n, q=1, q=0, q=-1 = {got} != {want}")
    return problems


def _fpoly_bind(out: str) -> list[str]:
    _, total = _plain_poly_sum(out)
    return [] if total == math.factorial(10) else ["coefficient sum != 10!"]


def _verify(out: str) -> list[str]:
    result = json.loads(out)["result"]
    if result == {"passed": VERIFY_CHECKS, "total": VERIFY_CHECKS, "ok": True}:
        return []
    return [f"verify result {result}, expected {VERIFY_CHECKS}/{VERIFY_CHECKS} ok"]


INVARIANTS = {
    "joint13": _joint13,
    "fpoly10-plain": _fpoly_plain,
    "fpoly10-json": _fpoly_json,
    "fpoly10-csv": _fpoly_csv,
    "fpoly10-columns": _fpoly_columns,
    "fpoly10-bind": _fpoly_bind,
    "verify12-json": _verify,
}


def digest(out: bytes) -> str:
    return hashlib.sha256(out).hexdigest()


def check_output(op: str, code: int, out: bytes) -> list[str]:
    """Every problem found with one op's result; empty means it passed."""
    problems = []
    if code != 0:
        problems.append(f"exit status {code}")
    if digest(out) != EXPECTED[op]["sha256"]:
        problems.append("stdout differs from the recorded sha256")
    try:
        problems += INVARIANTS[op](out.decode())
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        problems.append(f"output does not parse: {exc!r}")
    return problems
