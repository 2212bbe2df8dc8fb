"""The operations the benchmark runs, one per child process.

An op is either a command line, run as ``python -m invq.cli ARGV`` (or,
when traced, through ``invq.cli.main``), or a library call defined here and
run as ``python perfbench/ops.py OP``.  Every op prints to stdout only, and
the harness checks that output against the digest in ``expected.json``.

Each op runs in a fresh interpreter: ``invq.recurrence`` memoizes every
``F_k`` it computes, so a second call in the same process would be a cache
hit that no command-line user ever gets.
"""

from __future__ import annotations

import json
import sys

N_JOINT = 13


def joint13() -> int:
    """``joint_poly(13)`` from scratch, then a one-line summary, no rendering.

    ``term_hash`` is an order-free fingerprint of the term map: the sum of
    CPython's hashes of the (exponent vector, coefficient) pairs.  Hashes of
    int tuples do not depend on PYTHONHASHSEED, so it repeats across runs.
    """
    from invq.recurrence import joint_poly

    poly = joint_poly(N_JOINT)
    terms = list(poly.items())
    print(json.dumps({
        "n": N_JOINT,
        "terms": len(terms),
        "coeff_sum": sum(c for _, c in terms),
        "term_hash": sum(map(hash, terms)) & (2 ** 64 - 1),
    }))
    return 0


#: op id -> CLI argv (run through invq.cli) or None for a library op here
OPS: dict[str, list[str] | None] = {
    "joint13": None,
    "fpoly10-plain": ["fpoly", "10"],
    "fpoly10-json": ["fpoly", "10", "--format", "json"],
    "fpoly10-csv": ["fpoly", "10", "--format", "csv"],
    "fpoly10-columns": ["fpoly", "10", "--columns", "q=1,0,-1"],
    "fpoly10-bind": ["fpoly", "10", "--bind", "y=1,z=1"],
    "verify12-json": ["verify", "all", "12", "--format", "json"],
}

LIBRARY_OPS = {"joint13": joint13}


if __name__ == "__main__":
    sys.exit(LIBRARY_OPS[sys.argv[1]]())
