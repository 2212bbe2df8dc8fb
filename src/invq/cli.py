"""Command line interface: polynomial tables, verification sweeps, exports.

Subcommands

  fpoly N       joint statistic polynomial of length N, optionally bound
  verify SUITE  rerun a module's cross-checks, reporting each one
  sequence STAT classical counting sequences and triangles
  lnk N K       Comtet-style coefficient word combination
  expand N      the normal-ordered operator expansion
  freq COUNTS   fixed-frequency inversion polynomial

Every command is deterministic for a fixed invocation; json and csv output
are byte-identical across runs (the plain verify report carries wall-clock
timings as a human convenience, json/csv never do).  Exit status: 0 on
success, 1 when a verification check fails or the reader closes the
output pipe early, 2 on usage errors such as out-of-range lengths.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import sys
from itertools import accumulate, chain, filterfalse, repeat
from operator import add, itemgetter, sub
from typing import Callable, Iterable

from . import paths, recurrence
from .invseq import fixed_freq_poly
from .polyring import MultiPoly, format_terms, power_tables
from .qoperator import (SymExpr, comtet_coeff_explicit, format_words,
                        operator_expansion)
from .verify import SUITES, run_suite


class UsageError(Exception):
    pass


# Every limit of the command line, with the measured cost that sets it (a
# fresh process, one pinned vCPU, Python 3.11, unless stated); each usage
# message and help string reads its limit from here.
LIMITS = {
    # fpoly enumerates nothing, so N bounds the output and the memory:
    # fpoly 13 --format json writes 42 MB in 0.5 s, peak RSS 31 MB (the
    # scan's), and --bind y=-2 peaks at 46 MB.  At 14, json would write
    # 78 MB in 1.6 s and --bind y=-2 peak at 65 MB (2 vCPUs)
    "fpoly": 13,
    # coefficient digits a --bind output could hold (_output_digits);
    # unbound fpoly 13 is at 137 M.  fpoly 13 --bind y=-2^231,z=-2^231
    # (137 M) writes 35 MB of json in 1.3 s, peak RSS 76 MB; y=-(200 nines)
    # at 11 (763 M) wrote 83 MB in 2.5 s, 124 MB, and at 13 took 9.5 s, 449 MB
    "fpoly_digits": 140_000_000,
    # the largest bound of any verify row (paths.catalan_counts); verify
    # all 12 --format json takes 0.97 s, peak RSS 17.5 MB
    "verify": 12,
    # the identities suite to n = 12 takes 0.40 s at --trunc 40, 1.35 s at
    # 60 and 2.36 s at 80 (in-process)
    "trunc": 40,
    # one bound for every stat, each a closed form or a bound class scan:
    # a056151 or a114503 1..40 --format json takes 0.5-0.65 s, peak RSS
    # 16 MB, and 1.2-1.4 s to 50
    "sequence": 40,
    # lnk 10 1 --format json takes 0.75 s, peak RSS 66 MB; lnk 11 2 would
    # take 3.1 s and peak at 229 MB
    "lnk": 10,
    # expand 9 --format json takes 0.63 s, peak RSS 66 MB; expand 10 would
    # take 4.2 s and peak at 215 MB
    "expand": 9,
    # no cost sets it: freq of any 12 counts takes 0.06 s.  12 is
    # invseq.MAX_ENUM_LENGTH, the largest I_n the package walks
    "freq": 12,
}


# ------------------------------------------------------------- small utils

_INTEGER = re.compile(r"[+-]?[0-9]+")


def _shown(text: str) -> str:
    """`text` quoted for a usage message, cut to a short prefix."""
    return repr(text if len(text) <= 24 else text[:20] + "...")


def integer(text: str) -> int:
    """An optional sign and ASCII digits as an int, for every integer the
    command line takes; int() alone would also read "1_0", " 1 " and
    non-ASCII digits.  Anything else raises argparse.ArgumentTypeError,
    whose message argparse prints as it is, quoting a short prefix of the
    text (for a ValueError it would quote the whole text).  More digits
    than int() reads (`sys.get_int_max_str_digits()`, leading zeros
    included; 0 or no limit at all means none) are a UsageError of their
    own, not a malformed integer."""
    if not _INTEGER.fullmatch(text):
        raise argparse.ArgumentTypeError(f"not an integer: {_shown(text)}")
    limit = getattr(sys, "get_int_max_str_digits", int)()
    digits = len(text.lstrip("+-"))
    if limit and digits > limit:
        raise UsageError(f"integer {_shown(text)} has {digits} digits, past "
                         f"Python's limit of {limit} for reading an int")
    return int(text)


def _parse_bindings(text: str) -> dict[str, int]:
    bindings: dict[str, int] = {}
    for piece in text.split(","):
        if not piece:
            raise UsageError("empty slot in --bind")
        name, _, value = piece.partition("=")
        try:
            value = integer(value)
        except argparse.ArgumentTypeError:
            raise UsageError(
                f"binding {_shown(piece)} is not var=integer") from None
        if name == "all":
            names = "xyzpq"
        elif name in "xyzpq" and len(name) == 1:
            names = name
        else:
            raise UsageError(f"unknown variable {_shown(name)} in --bind")
        for var in names:
            if var in bindings:
                raise UsageError(f"variable {var!r} bound twice in --bind")
            bindings[var] = value
    return bindings


def _parse_columns(text: str) -> list[int]:
    if not text.startswith("q="):
        raise UsageError("--columns expects the form q=1,0,-1")
    try:
        return [integer(v) for v in text[2:].split(",")]
    except argparse.ArgumentTypeError:
        raise UsageError("--columns values must be integers") from None


def _parse_counts(text: str) -> tuple[int, ...]:
    try:
        return tuple(integer(v) for v in text.split(","))
    except argparse.ArgumentTypeError:
        raise UsageError("counts must be comma-separated integers") from None


def _emit(args, command: str, params: dict, result: dict,
          plain_lines: list[str], csv_rows: Iterable[list], checks=()) -> int:
    if args.format == "json":
        print(json.dumps({"command": command, "params": params,
                          "result": result, "checks": list(checks)}, indent=2))
    elif args.format == "csv":
        import csv  # only csv output pays for the import
        csv.writer(sys.stdout, lineterminator="\n").writerows(csv_rows)
    else:
        for line in plain_lines:
            print(line)
    return 0


# ----------------------------------------------------------------- fpoly

# one element of the json terms array, as json.dumps(indent=2) lays out a
# MultiPoly.to_json_terms() entry at that depth of the envelope: the head,
# the coefficient, a part for each of ex, ey, ez and ep, and the eq part,
# which closes the element
_JSON_HEAD = '      {\n        "coeff": '
_JSON_PARTS = (',\n        "ex": %d', ',\n        "ey": %d',
               ',\n        "ez": %d', ',\n        "ep": %d',
               ',\n        "eq": %d\n      }')
_JSON_TERM = _JSON_HEAD + "%d" + "".join(_JSON_PARTS)


def _write_poly_json(command: str, params: dict, text, terms) -> int:
    """Write the bytes json.dumps(indent=2) gives for the envelope of a
    polynomial, whose result is {"text": ..., "terms": [...]}.

    `text` is the pieces of the result's text.  `terms` is the pieces of
    the terms array, each led by the comma and newline that json.dumps puts
    between elements, the elements laid out as `_JSON_TERM`.  The envelope is
    dumped once with "" and [] in their places, and the pieces go into
    those two gaps, so neither is ever one whole string.  The text goes in
    unescaped: a polynomial's text holds only digits, the letters xyzpq,
    "^", "*", "+", "-" and spaces, so json.dumps(text) is '"' + text + '"'.
    """
    envelope = json.dumps({"command": command, "params": params,
                           "result": {"text": "", "terms": []},
                           "checks": []}, indent=2)
    head, _, tail = envelope.rpartition('"terms": []')
    head, _, middle = head.rpartition('"text": ""')
    out = sys.stdout
    out.write(head + '"text": "')
    out.writelines(text)
    out.write('"' + middle + '"terms": [')
    terms = iter(terms)
    first = next(terms, "")
    if first:
        out.write("\n" + first[2:])
        out.writelines(terms)
        out.write("\n    ]" + tail + "\n")
    else:
        out.write("]" + tail + "\n")
    return 0


# the json terms of _emit_poly and every format of _emit_runs are rendered
# and written at most this many terms at a time, so no terms array is one
# string: _emit_runs peaks at the scan's memory, whatever the output's size
_CHUNK = 4096


def _emit_poly(args, command: str, params: dict, poly: MultiPoly) -> int:
    # one sort; each format renders only what it prints
    items = poly.sorted_items()
    if args.format == "csv":
        print("\n".join(["coeff,ex,ey,ez,ep,eq"] + [
            "%d,%d,%d,%d,%d,%d" % (c, a, b, z, d, e)
            for (a, b, z, d, e), c in items]))
        return 0
    # q-only values print in the compact table style (no stars);
    # as_qlaurent is the one q-only test and stops at the first other term
    try:
        text = str(poly.as_qlaurent())
    except ValueError:
        text = format_terms(items)
    if args.format == "plain":
        print(text)
        return 0
    term = ",\n" + _JSON_TERM
    return _write_poly_json(command, params, (text,), ("".join([
        term % (c, a, b, z, d, e)
        for (a, b, z, d, e), c in items[i:i + _CHUNK]])
        for i in range(0, len(items), _CHUNK)))


def _emit_runs(args, command: str, params: dict, runs) -> int:
    """`_emit_poly` of the polynomial whose terms `runs` lists, each run
    (ex, ey, ez, ep, coeffs) with positive coeffs from q^0 upward and with
    x^ex, ex >= 1, in every monomial (`recurrence.joint_runs`).

    The runs are ranked once by (ex, ey, ez, ep), descending.  Within one
    total degree d, eq = d - (ex + ey + ez + ep) is fixed, so the terms of
    degree d in `sorted_items` order are those of the runs in rank order.
    The output is a sweep over the degrees from the top down: a run whose
    q^0 term has degree b has a term of each degree in [b, b + len(coeffs)
    - 1], so it enters the sorted list of active ranks at its top degree
    and leaves it below b.  A degree's block reads its coefficients from
    one flat list and joins its terms, `_CHUNK` at a time, from the
    coefficient's text, texts per run and a text per eq, in C-level maps
    with no Python frame per term; each chunk is written as it is joined.
    No sort key and no term order is built.  `_emit_poly` is its oracle.
    """
    runs = sorted(runs, reverse=True)  # rank order: no two share a head
    lens = list(map(len, map(itemgetter(4), runs)))
    coeffs = list(chain.from_iterable(map(itemgetter(4), runs)))
    columns = [list(map(itemgetter(i), runs)) for i in range(4)]  # ex .. ep
    del runs
    bases = list(map(sum, zip(*columns)))
    # the coefficient of degree d of the run ranked r is coeffs[offs[r] + d]
    offs = list(map(sub, accumulate(lens, initial=0), bases))
    top = max(map(add, bases, lens)) - 1
    entering: list[list[int]] = [[] for _ in range(top + 1)]
    leaving: list[list[int]] = [[] for _ in range(top + 1)]
    for rank, (base, m) in enumerate(zip(bases, lens)):
        entering[base + m - 1].append(rank)
        leaving[base].append(rank)

    def chunks(sep: str, per_run: list[list[str]], per_eq: list[str]):
        # the terms joined by sep, at most _CHUNK at a time, each chunk led
        # by sep: a term is its coefficient's text, the text of its run's
        # rank in each list of per_run, and per_eq[eq]
        active: list[int] = []  # the ranks with a term of degree d, sorted
        for d in range(top, -1, -1):
            if entering[d]:
                active += entering[d]
                active.sort()  # merges two sorted runs
            eq_of_base = per_eq[d::-1]  # the text of eq = d - b at index b
            for i in range(0, len(active), _CHUNK):
                part = active[i:i + _CHUNK]
                yield "".join(chain.from_iterable(zip(
                    repeat(sep),
                    map(str, map(coeffs.__getitem__, map(
                        add, map(offs.__getitem__, part), repeat(d)))),
                    *(map(texts.__getitem__, part) for texts in per_run),
                    map(eq_of_base.__getitem__, map(bases.__getitem__, part)))))
            if leaving[d]:
                active = list(filterfalse(set(leaving[d]).__contains__,
                                          active))

    def text():
        # format_terms writes a coefficient 1 as the bare monomial.  Every
        # coefficient here is positive and every monomial starts with "*x",
        # so " + 1*" marks exactly the terms whose coefficient is 1: any
        # other coefficient has a digit before its "1*", and " + " occurs
        # only between terms.  Every chunk is led by " + ", so the rule
        # holds for each chunk's first term; only the first chunk drops it.
        x, y, z, p, q = power_tables(top)
        monomials = [x[a] + y[b] + z[c] + p[e] for a, b, c, e in zip(*columns)]
        pieces = (chunk.replace(" + 1*", " + ")
                  for chunk in chunks(" + ", [monomials], q))
        yield next(pieces)[3:]
        yield from pieces

    out = sys.stdout
    exponents = range(top + 1)
    if args.format == "csv":
        out.write("coeff,ex,ey,ez,ep,eq")
        out.writelines(chunks(
            "\n", [[",%d,%d,%d,%d," % head for head in zip(*columns)]],
            list(map(str, exponents))))
    elif args.format == "plain":
        out.writelines(text())
    else:
        def terms():
            # built once the text is written.  Each run points at a text in
            # one table per exponent: a json text per run would hold more
            # than the rest of the render.  The head of each term rides on
            # the separator; the writer drops only the ",\n" that leads the
            # first chunk
            *tables, per_eq = [[part % e for e in exponents]
                               for part in _JSON_PARTS]
            yield from chunks(",\n" + _JSON_HEAD, [
                list(map(table.__getitem__, column))
                for table, column in zip(tables, columns)], per_eq)

        return _write_poly_json(command, params, text(), terms())
    out.write("\n")
    return 0


def _top_exponents(n: int) -> dict[str, int]:
    """Each variable's top exponent in F_n: x runs over 1..n, y and z over
    0..n-1, p and q over 0..n(n-1)/2."""
    r = n * (n - 1) // 2
    return {"x": n, "y": n - 1, "z": n - 1, "p": r, "q": r}


def _coefficient_bits(n: int, values: dict[str, int]) -> int:
    """Bits enough for every coefficient of F_n bound to `values`: the
    coefficients of F_n are nonnegative and sum to n!, and a variable bound
    to v multiplies each by at most |v| to its top exponent."""
    return math.factorial(n).bit_length() + sum(
        _top_exponents(n)[name] * abs(v).bit_length()
        for name, v in values.items())


def _output_digits(n: int, values: dict[str, int]) -> int:
    """An upper bound on the coefficient digits of F_n bound to `values`:
    the terms it could keep, the product of the free variables' exponent
    range sizes (n for x, the top exponent + 1 for the others), times the
    decimal digits of 2^_coefficient_bits."""
    terms = math.prod(top + (name != "x")
                      for name, top in _top_exponents(n).items()
                      if name not in values)
    return terms * (_coefficient_bits(n, values) * 30103 // 100000 + 1)


def _check_printable(n: int, option: str, values: dict[str, int]) -> None:
    """Refuse values that could give F_n, bound to them, a coefficient past
    Python's limit on the digits of an int printed in decimal
    (`sys.get_int_max_str_digits()`; 0 or no limit at all means none)."""
    limit = getattr(sys, "get_int_max_str_digits", int)()
    if limit and 1 << _coefficient_bits(n, values) > 10 ** limit:
        raise UsageError(f"{option} values too large: a coefficient of F_{n} "
                         f"could pass {limit} digits, the limit for printing "
                         f"an int")


def cmd_fpoly(args) -> int:
    n = args.n
    if not 1 <= n <= LIMITS["fpoly"]:
        raise UsageError(f"length must be in 1..{LIMITS['fpoly']}")
    bindings = _parse_bindings(",".join(args.bind)) if args.bind else {}
    _check_printable(n, "--bind", bindings)
    if _output_digits(n, bindings) > LIMITS["fpoly_digits"]:
        raise UsageError(f"--bind values too large: the output of fpoly {n} "
                         f"could pass {LIMITS['fpoly_digits']} coefficient "
                         f"digits")

    if args.columns is not None:
        if bindings:
            raise UsageError("--columns already binds x = y = z = p = 1")
        qvalues = _parse_columns(args.columns)
        for v in qvalues:
            _check_printable(n, "--columns", {"q": v})
        header = ["n", "poly"] + [f"q={v}" for v in qvalues]
        rows = []
        for m in range(1, n + 1):
            f = recurrence.inv_poly(m)
            rows.append([m, str(f)] + [f.evaluate(v) for v in qvalues])
        widths = [max(len(str(r[i])) for r in [header] + rows)
                  for i in range(len(header))]
        plain = ["  ".join(str(v).ljust(w) for v, w in zip(r, widths)).rstrip()
                 for r in [header] + rows]
        return _emit(args, "fpoly", {"n": n, "columns": qvalues},
                     {"header": header, "rows": rows}, plain, [header] + rows)

    params = {"n": n, "bind": bindings}
    if not bindings:
        return _emit_runs(args, "fpoly", params, recurrence.joint_runs(n))
    return _emit_poly(args, "fpoly", params, recurrence.joint_poly(n, bindings))


# ----------------------------------------------------------------- verify

def cmd_verify(args) -> int:
    if not 1 <= args.nmax <= LIMITS["verify"]:
        raise UsageError(f"bound must be in 1..{LIMITS['verify']}")
    if args.trunc is not None:
        if args.suite not in ("identities", "all"):
            raise UsageError("--trunc applies only to verify identities and verify all")
        if not 1 <= args.trunc <= LIMITS["trunc"]:
            raise UsageError(f"--trunc must be in 1..{LIMITS['trunc']}")
    results = run_suite(args.suite, args.nmax, args.trunc)
    checks = [{"name": r.name, "pass": r.passed, "detail": r.detail}
              for r in results]
    passed = sum(r.passed for r in results)
    plain = [
        f"{'PASS' if r.passed else 'FAIL'}  {r.name}  ({r.seconds:.2f}s)  {r.detail}"
        for r in results]
    plain.append(f"passed {passed}/{len(results)} checks")
    csv_rows = [["name", "pass", "detail"]] + [
        [r.name, str(r.passed).lower(), r.detail] for r in results]
    _emit(args, "verify",
          {"suite": args.suite, "max_n": args.nmax, "trunc": args.trunc},
          {"passed": passed, "total": len(results), "ok": passed == len(results)},
          plain, csv_rows, checks)
    return 0 if passed == len(results) else 1


# --------------------------------------------------------------- sequence

# stat -> value at one length, in oeis.STAT_NAMES order: a closed form, an
# int recurrence or a marginal of a bound class scan.  None walks S_n or the
# Dyck paths; those walks are the oracles of the verify rows
# recurrence.eulerian_marginal, recurrence.uel_vs_displacement and
# paths.peak_height_poly
SEQUENCES: dict[str, Callable[[int], int | list[int]]] = {
    "catalan": paths.catalan,
    "narayana": paths.narayana_row,
    "returns": paths.returns_triangle_row,
    "a114503": recurrence.peak_sum_row,
    "a056151": lambda n: recurrence.uel_distribution(n)[::-1],
    "involutions": paths.involution_number,
    "eulerian": recurrence.tel_distribution,
}


def cmd_sequence(args) -> int:
    bound = LIMITS["sequence"]
    if not 1 <= args.nmax <= bound:
        raise UsageError(f"bound for {args.stat} must be in 1..{bound}")
    values = list(map(SEQUENCES[args.stat], range(1, args.nmax + 1)))
    if isinstance(values[0], list):
        plain = [" ".join(str(v) for v in row) for row in values]
        csv_rows = values
    else:
        plain = [" ".join(str(v) for v in values)]
        csv_rows = [values]
    return _emit(args, "sequence", {"stat": args.stat, "max_n": args.nmax},
                 {"values": values}, plain, csv_rows)


# -------------------------------------------------------------- lnk/expand

def _emit_expr(args, command: str, params: dict, expr: SymExpr) -> int:
    """`expr` from one sort of its words, building only the format asked for."""
    items = expr.sorted_items()
    if args.format == "csv":
        return _emit(args, command, params, {}, [], chain([["coeff", "word"]], (
            [str(c), " ".join(f"{f.kind}:{f.deriv}:{f.shift}" for f in w)]
            for w, c in items)))
    text = format_words(items)
    words = [{"coeff": [[e, c] for e, c in sorted(coeff.items())],
              "factors": [[f.kind, f.deriv, f.shift] for f in word]}
             for word, coeff in items] if args.format == "json" else []
    return _emit(args, command, params, {"text": text, "words": words}, [text], [])


def cmd_lnk(args) -> int:
    if not 1 <= args.k <= args.n <= LIMITS["lnk"]:
        raise UsageError(f"need 1 <= K <= N <= {LIMITS['lnk']}")
    return _emit_expr(args, "lnk", {"n": args.n, "k": args.k},
                      comtet_coeff_explicit(args.n, args.k))


def cmd_expand(args) -> int:
    if not 1 <= args.n <= LIMITS["expand"]:
        raise UsageError(f"need 1 <= N <= {LIMITS['expand']}")
    return _emit_expr(args, "expand", {"n": args.n},
                      operator_expansion(args.n))


# ------------------------------------------------------------------- freq

def cmd_freq(args) -> int:
    counts = _parse_counts(args.counts)
    if len(counts) > LIMITS["freq"]:
        raise UsageError(f"vectors longer than {LIMITS['freq']} are out of "
                         f"bounds")
    try:
        poly = fixed_freq_poly(counts)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    return _emit_poly(args, "freq", {"counts": list(counts)},
                      poly.to_multipoly())


# ------------------------------------------------------------------ parser

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="invq",
        description="Exact joint-statistic polynomials for inversion sequences.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_format(p):
        p.add_argument("--format", choices=("plain", "json", "csv"),
                       default="plain")

    p = sub.add_parser("fpoly", help="joint statistic polynomial of length "
                                     f"N, 1..{LIMITS['fpoly']}")
    p.add_argument("n", type=integer)
    p.add_argument("--bind", metavar="VAR=INT,...", action="append",
                   help="bind variables, e.g. x=1,y=1 or all=1; repeats merge")
    p.add_argument("--columns", metavar="q=V1,V2,...",
                   help="tabulate the inversion marginal for n = 1..N "
                        "evaluated at the given q values")
    add_format(p)
    p.set_defaults(func=cmd_fpoly)

    p = sub.add_parser("verify", help="rerun a module's cross-checks")
    p.add_argument("suite", choices=tuple(SUITES) + ("all",))
    p.add_argument("nmax", nargs="?", type=integer, default=8)
    p.add_argument("--trunc", type=integer,
                   help="series truncation for the identities suite, "
                        f"1..{LIMITS['trunc']}; each check uses at least "
                        "n + 2")
    add_format(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("sequence", help="classical counting sequences")
    p.add_argument("stat", choices=tuple(SEQUENCES))
    p.add_argument("nmax", nargs="?", type=integer, default=8)
    add_format(p)
    p.set_defaults(func=cmd_sequence)

    p = sub.add_parser("lnk", help="Comtet-style coefficient of f_K at length N")
    p.add_argument("n", type=integer)
    p.add_argument("k", type=integer)
    add_format(p)
    p.set_defaults(func=cmd_lnk)

    p = sub.add_parser("expand", help="normal-ordered (g D_q)^N applied to f")
    p.add_argument("n", type=integer)
    add_format(p)
    p.set_defaults(func=cmd_expand)

    p = sub.add_parser("freq", help="fixed-frequency inversion polynomial")
    p.add_argument("counts", metavar="C0,C1,...")
    add_format(p)
    p.set_defaults(func=cmd_freq)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        # inside the try: integer() raises UsageError past the digit limit
        args = parser.parse_args(argv)
        code = args.func(args)
        sys.stdout.flush()
        return code
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # the reader left early; devnull keeps the final flush from failing
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1


if __name__ == "__main__":
    sys.exit(main())
