"""End-to-end CLI behavior: output text, schema, determinism, exit codes."""

import argparse
import ast
import contextlib
import csv
import hashlib
import io
import json
import os
import shutil
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import invq
from invq import cli, identities, invseq, oeis, paths, recurrence
from invq.cli import LIMITS, SEQUENCES, main
from invq.polyring import VARIABLES, MultiPoly, QLaurent


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


# ------------------------------------------------------------------- fpoly

def test_fpoly_plain(capsys):
    code, out, _ = run(capsys, "fpoly", "2")
    assert code == 0
    assert out == "x^2*y*z + x*p\n"


def test_fpoly_bound_all(capsys):
    code, out, _ = run(capsys, "fpoly", "3", "--bind", "all=1")
    assert code == 0
    assert out.strip() == "6"
    code, out, _ = run(capsys, "fpoly", "3", "--bind", "x=1,y=1,z=1,p=1")
    assert out.strip() == "q + 5"


def test_fpoly_columns_table(capsys):
    code, out, _ = run(capsys, "fpoly", "5", "--columns", "q=1,0,-1")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].split() == ["n", "poly", "q=1", "q=0", "q=-1"]
    assert lines[1].split() == ["1", "1", "1", "1", "1"]
    assert lines[5].split() == ["5", "3q^4", "+", "11q^3", "+", "28q^2",
                                "+", "36q", "+", "42", "120", "42", "26"]


def test_fpoly_columns_csv(capsys):
    code, out, _ = run(capsys, "fpoly", "3", "--columns", "q=1",
                       "--format", "csv")
    assert code == 0
    assert out.splitlines() == ["n,poly,q=1", "1,1,1", "2,2,2", "3,q + 5,6"]


def test_fpoly_json_terms(capsys):
    code, out, _ = run(capsys, "fpoly", "2", "--format", "json")
    payload = json.loads(out)
    assert payload["command"] == "fpoly"
    assert payload["params"] == {"n": 2, "bind": {}}
    assert payload["result"]["text"] == "x^2*y*z + x*p"
    assert payload["result"]["terms"] == [
        {"coeff": 1, "ex": 2, "ey": 1, "ez": 1, "ep": 0, "eq": 0},
        {"coeff": 1, "ex": 1, "ey": 0, "ez": 0, "ep": 1, "eq": 0},
    ]
    assert payload["checks"] == []


def test_fpoly_usage_errors(capsys):
    assert run(capsys, "fpoly", "14") == (
        2, "", "error: length must be in 1..13\n")
    assert run(capsys, "fpoly", "0")[0] == 2
    assert run(capsys, "fpoly", "3", "--bind", "w=1")[0] == 2
    assert run(capsys, "fpoly", "3", "--bind", "x=oops")[0] == 2
    code, _, err = run(capsys, "fpoly", "3", "--bind", "x=1",
                       "--columns", "q=1")
    assert code == 2 and "error:" in err
    for bad in (["--columns", "q=1,,2"], ["--columns", "q="],
                ["--bind", "x=1,x=2"], ["--bind", "all=1,q=0"],
                ["--bind", "x=1,,y=1"], ["--bind", ","], ["--bind", "x=1, "],
                ["--bind", ""], ["--bind", "x=1", "--bind", "x=2"],
                # int() would read these; the command line takes an optional
                # sign and ASCII digits only
                ["--bind", "x=1_0"], ["--bind", "x=\u0663"],
                ["--bind", " x = 1 "], ["--bind", "x= 1"], ["--bind", "x=1 "],
                ["--bind", "x=1, y=1"], ["--bind", "x=+-1"],
                ["--columns", "q=1_0"], ["--columns", "q=\u0663"],
                ["--columns", "q= 1"], ["--columns", "q=1,0 "]):
        code, out, err = run(capsys, "fpoly", "3", *bad)
        assert (code, out) == (2, ""), bad
        assert "error:" in err, bad
    for bad in ("1_0", "\u0663", " 3"):
        with pytest.raises(SystemExit) as exc:
            main(["fpoly", bad])
        assert exc.value.code == 2, bad
        assert "error:" in capsys.readouterr().err, bad
    # a sign is part of an integer
    assert run(capsys, "fpoly", "2", "--bind", "x=+2,y=-1,z=-1")[:2] == (
        0, "2*p + 4\n")
    # repeated --bind options merge into one binding
    merged = run(capsys, "fpoly", "3", "--bind", "x=1", "--bind", "y=1",
                 "--format", "json")
    assert merged[0] == 0
    assert merged == run(capsys, "fpoly", "3", "--bind", "x=1,y=1",
                         "--format", "json")


@pytest.mark.parametrize("bind,message", [
    ("w=1", "unknown variable 'w' in --bind"),
    ("x=oops", "binding 'x=oops' is not var=integer"),
    ("x=1,,y=1", "empty slot in --bind"),
    ("x=1,x=2", "variable 'x' bound twice in --bind"),
    ("all=1,q=0", "variable 'q' bound twice in --bind"),
])
def test_fpoly_bind_error_text(capsys, bind, message):
    assert run(capsys, "fpoly", "9", "--bind", bind) == (
        2, "", f"error: {message}\n")


# --------------------------------------------- rendering, against references

def render_coeffs():
    # small values hit the "1 is not printed" rule; wide ones pass 2**64
    return st.one_of(st.integers(min_value=-3, max_value=3),
                     st.integers(min_value=-2 ** 80, max_value=2 ** 80),
                     st.sampled_from([2 ** 64, -2 ** 64, 2 ** 64 + 1]))


def render_polys():
    # exponents past 9 give multi-digit powers; q-only maps are the values
    # the CLI prints as a QLaurent
    e = st.integers(min_value=0, max_value=12)
    keys = st.tuples(e, e, e, e, e)
    general = st.dictionaries(keys, render_coeffs(), max_size=10)
    q_only = st.dictionaries(e.map(lambda k: (0, 0, 0, 0, k)),
                             render_coeffs(), max_size=6)
    return st.one_of(general, q_only).map(MultiPoly)


def _joined(terms):
    # terms: (sign, body) in order; the first sign is dropped if positive
    if not terms:
        return "0"
    sign, text = terms[0]
    text = ("-" if sign == "-" else "") + text
    for sign, body in terms[1:]:
        text += f" {sign} {body}"
    return text


def reference_text(poly):
    """str(MultiPoly), one term at a time from its exponents."""
    terms = []
    for key, coeff in poly.sorted_items():
        factors = [name if e == 1 else f"{name}^{e}"
                   for name, e in zip(VARIABLES, key) if e]
        if abs(coeff) != 1 or not factors:
            factors.insert(0, str(abs(coeff)))
        terms.append(("-" if coeff < 0 else "+", "*".join(factors)))
    return _joined(terms)


def reference_qtext(f):
    """str(QLaurent), one term at a time, exponents descending."""
    terms = []
    for e in sorted((e for e, _ in f.items()), reverse=True):
        c = f.coefficient(e)
        qpart = "" if e == 0 else "q" if e == 1 else f"q^{e}"
        body = qpart if abs(c) == 1 and qpart else f"{abs(c)}{qpart}"
        terms.append(("-" if c < 0 else "+", body))
    return _joined(terms)


@settings(max_examples=150, deadline=None)
@given(render_polys(),
       st.dictionaries(st.integers(min_value=-12, max_value=12),
                       render_coeffs(), max_size=8).map(QLaurent))
def test_text_matches_reference_renderer(poly, f):
    assert str(poly) == reference_text(poly)
    assert str(f) == reference_qtext(f)


@settings(max_examples=150, deadline=None)
@given(render_polys())
@example(MultiPoly.zero())
def test_poly_output_matches_term_dicts(poly):
    """Every format of a polynomial, against the route through
    to_json_terms(): json.dumps(indent=2) of the envelope, and one csv row
    per term dict."""
    params = {"n": 1, "bind": {"q": -2}}
    support = {name for key, _ in poly.items()
               for name, e in zip(VARIABLES, key) if e}
    shown = poly.as_qlaurent() if support <= {"q"} else poly
    terms = poly.to_json_terms()
    header = ["coeff", "ex", "ey", "ez", "ep", "eq"]
    expected = {
        "json": json.dumps({"command": "fpoly", "params": params,
                            "result": {"text": str(shown), "terms": terms},
                            "checks": []}, indent=2) + "\n",
        "csv": "".join(",".join(str(row[k]) for k in header) + "\n"
                       for row in [dict(zip(header, header))] + terms),
        "plain": str(shown) + "\n",
    }
    for fmt, want in expected.items():
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli._emit_poly(argparse.Namespace(format=fmt), "fpoly",
                                  params, poly)
        assert (code, out.getvalue()) == (0, want), fmt


# ------------------------------------------ the run stream of unbound fpoly

def _printed(emit, fmt, *args):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = emit(argparse.Namespace(format=fmt), "fpoly", *args)
    assert code == 0
    return out.getvalue()


@pytest.mark.parametrize("n", range(1, 11))
def test_fpoly_stream_matches_sorted_route(capsys, n):
    """Unbound fpoly renders the runs of joint_runs; _emit_poly of
    joint_poly, through sorted_items and format_terms, is its oracle."""
    params = {"n": n, "bind": {}}
    for fmt in ("plain", "csv", "json"):
        code, out, _ = run(capsys, "fpoly", str(n), "--format", fmt)
        assert code == 0
        assert out == _printed(cli._emit_poly, fmt, params,
                               recurrence.joint_poly(n)), fmt


class HashSink(io.TextIOBase):
    """A stdout that keeps only the sha256 and the length of what it gets."""

    def __init__(self):
        self.sha256 = hashlib.sha256()
        self.written = 0

    def write(self, text):
        self.sha256.update(text.encode())
        self.written += len(text)
        return len(text)


# n = 11, 12: recorded through _emit_poly(joint_poly(n)) before unbound
# fpoly rendered runs; n = 13: recorded through the whole-string _emit_runs
# before it wrote in chunks (and equal to _emit_poly's digests)
STREAM_SHA256 = {
    (11, "plain"):
        "7691131be116cd7411bd6cf3c7e281307cfc6c02425c111d6b8edfd23d41f59b",
    (11, "csv"):
        "ecd385b31467764ffb02aab6036bfc293bbc693271209d756c700822f28375b2",
    (11, "json"):
        "cfce47cef2ad87055f28626c1c8c38a4a0724ae61659d5131a43b9adc2f350c8",
    (12, "plain"):
        "278ca861aa1978f1721187f334638524a6f439d2f414039f87c831384c3d8c35",
    (12, "csv"):
        "f77947db86ece097e011ef9a5a65175e25055c5d815cd3e0b123eb5d6312c429",
    (12, "json"):
        "48b9963c12f1883c31f4f70a8f229d032a6003cf8b05908efd9784e612ef3e4e",
    (13, "plain"):
        "f2225d06e54ba0f9654326bb53009b2aaa8b01ab9ffc8613affac888112eb72c",
    (13, "csv"):
        "bd410a277a9933cf262bd84ed705a35a1fd66317bb3d1a79315c8dbe7c003c5a",
    (13, "json"):
        "bddf0b6f3276ae02a060e16fab8057cdf5c1d94ff065f0d108d5d578c8e1caf4",
}


@pytest.mark.parametrize("n,fmt", STREAM_SHA256)
def test_stream_golden_past_the_cap(monkeypatch, n, fmt):
    sink = HashSink()
    monkeypatch.setattr(sys, "stdout", sink)
    assert main(["fpoly", str(n), "--format", fmt]) == 0
    assert sink.sha256.hexdigest() == STREAM_SHA256[n, fmt]


class WriteLog(io.TextIOBase):
    """A stdout that keeps each piece written to it."""

    def __init__(self):
        self.pieces = []

    def write(self, text):
        self.pieces.append(text)
        return len(text)


@pytest.mark.parametrize("chunk", [1, 2, 3, 7])
def test_stream_chunk_boundaries(monkeypatch, chunk):
    """Chunks of a few terms put a boundary between most pairs of terms:
    each format must still be _emit_poly's, byte for byte, and no write
    holds more than a chunk of terms."""
    monkeypatch.setattr(cli, "_CHUNK", chunk)
    for n in range(1, 8):
        params = {"n": n, "bind": {}}
        poly = recurrence.joint_poly(n)
        for fmt in ("plain", "csv", "json"):
            assert (_printed(cli._emit_runs, fmt, params,
                             recurrence.joint_runs(n))
                    == _printed(cli._emit_poly, fmt, params, poly)), (n, fmt)
        log = WriteLog()
        with contextlib.redirect_stdout(log):
            cli._emit_runs(argparse.Namespace(format="csv"), "fpoly", params,
                           recurrence.joint_runs(n))
        assert max(piece.count("\n") for piece in log.pieces) <= chunk


def test_stream_memory_is_bounded(monkeypatch):
    """The render holds a chunk of text at a time, not the output: the json
    render's traced peak stays below the 10 MB it writes, and within 25 %
    of the csv render's, whose output is a tenth of the size."""
    runs = list(recurrence.joint_runs(11))
    peak = {}
    for fmt in ("csv", "json"):
        sink = HashSink()
        monkeypatch.setattr(sys, "stdout", sink)
        tracemalloc.start()
        try:
            cli._emit_runs(argparse.Namespace(format=fmt), "fpoly",
                           {"n": 11, "bind": {}}, runs)
            peak[fmt] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sink.sha256.hexdigest() == STREAM_SHA256[11, fmt]
    assert peak["json"] < sink.written
    assert peak["json"] <= 1.25 * peak["csv"]


def test_render_peak_below_runs(monkeypatch):
    """The render holds no whole-polynomial sort key, order or permuted
    list: in every format, its traced peak above the runs it is handed
    stays below the runs' own size."""
    list(recurrence.joint_runs(12))  # the scan's caches, outside the count
    tracemalloc.start()
    try:
        runs = list(recurrence.joint_runs(12))
        size = tracemalloc.get_traced_memory()[0]
        for fmt in ("plain", "csv", "json"):
            sink = HashSink()
            monkeypatch.setattr(sys, "stdout", sink)
            held = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            cli._emit_runs(argparse.Namespace(format=fmt), "fpoly",
                           {"n": 12, "bind": {}}, runs)
            peak = tracemalloc.get_traced_memory()[1] - held
            assert sink.sha256.hexdigest() == STREAM_SHA256[12, fmt]
            assert peak < size, (fmt, peak, size)
    finally:
        tracemalloc.stop()


def stream_runs():
    """Runs of the shape joint_runs gives: distinct (ex, ey, ez, ep) with
    ex >= 1 and positive coefficients from q^0 upward.  Small coefficients
    hit the unit rule, and exponents past 31 fill a 6-bit key field."""
    e = st.integers(min_value=0, max_value=40)
    coeffs = st.lists(st.one_of(st.integers(min_value=1, max_value=12),
                                st.integers(min_value=1, max_value=2 ** 70)),
                      min_size=1, max_size=40)
    return st.dictionaries(st.tuples(st.integers(min_value=1, max_value=40),
                                     e, e, e), coeffs, min_size=1, max_size=12
                           ).map(lambda d: [(*k, cs) for k, cs in d.items()])


@settings(max_examples=150, deadline=None)
@given(stream_runs())
@example([(1, 0, 0, 0, [1])])
# two terms of degree 41 that a 5-bit ep field would swap: (1, 0, 0, 40, 0)
# would read as (1, 0, 1, 8, 0), ahead of (1, 0, 1, 1, 38)
@example([(1, 0, 0, 40, [1]), (1, 0, 1, 1, [1] * 40)])
@example([(2, 0, 0, 0, [11, 1, 21]), (1, 3, 0, 0, [1, 1])])
# no term of degree 2: the sweep's active set empties there, and must
# write no separator for it
@example([(3, 0, 0, 0, [1]), (1, 0, 0, 0, [1])])
def test_stream_matches_sorted_route_on_runs(runs):
    poly = MultiPoly({(*head, eq): c
                      for *head, cs in runs for eq, c in enumerate(cs)})
    params = {"n": 1, "bind": {}}
    for fmt in ("plain", "csv", "json"):
        assert (_printed(cli._emit_runs, fmt, params, runs)
                == _printed(cli._emit_poly, fmt, params, poly)), fmt


@pytest.fixture
def default_int_digits():
    """Python's default limit of 4300 digits on printing an int."""
    if not hasattr(sys, "get_int_max_str_digits"):
        pytest.skip("this Python prints ints of any size")
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    yield
    sys.set_int_max_str_digits(old)


def test_fpoly_refuses_unprintable_values(capsys, default_int_digits):
    # p^3 of a 2001-digit value has over 6000 digits: refused before the
    # scan, where printing it used to raise ValueError (exit 1, traceback)
    big = "1" + "0" * 2000
    for fmt in ("plain", "csv", "json"):
        assert run(capsys, "fpoly", "3", "--bind", f"p={big}",
                   "--format", fmt) == (
            2, "", "error: --bind values too large: a coefficient of F_3 "
                   "could pass 4300 digits, the limit for printing an int\n")
    code, _, err = run(capsys, "fpoly", "10", "--columns", f"q=1,{big}")
    assert code == 2 and "error: --columns values too large" in err
    # p^3 of a 1001-digit value has 3001 digits, and prints
    code, out, _ = run(capsys, "fpoly", "3", "--bind", "p=1" + "0" * 1000,
                       "--format", "csv")
    assert code == 0
    assert out.splitlines()[-1] == "1" + "0" * 3000 + ",1,0,0,0,0"


def _must_not_run(*_):
    raise AssertionError("a route that must not run was called")


def test_fpoly_refuses_oversized_output(capsys, monkeypatch):
    """A binding whose output could pass LIMITS["fpoly_digits"] coefficient
    digits is refused before the scan; a 200-digit y at 11 wrote 83 MB."""
    monkeypatch.setattr(recurrence, "_class_scan", _must_not_run)
    y = "y=-" + "9" * 200
    for n in ("11", "13"):
        for fmt in ("plain", "csv", "json"):
            assert run(capsys, "fpoly", n, "--bind", y, "--format", fmt) == (
                2, "", f"error: --bind values too large: the output of "
                       f"fpoly {n} could pass 140000000 coefficient digits\n")
    # unbound fpoly at its cap, the two bindings the CI bounds, and
    # test_fpoly_refuses_unprintable_values' 3001-digit coefficient fit
    for n, values in ((LIMITS["fpoly"], {}), (13, {"y": -2}),
                      (3, {"p": 10 ** 1000})):
        assert cli._output_digits(n, values) <= LIMITS["fpoly_digits"]


@pytest.mark.parametrize("bind", [{}, {"y": -2}, {"x": 3, "q": -1},
                                  {"p": 10 ** 20}, {"z": 7, "p": -5},
                                  {"x": 2, "y": 2, "z": 2, "p": 2, "q": 2}])
def test_output_digits_bound_the_output(bind):
    for n in range(1, 7):
        digits = sum(len(str(abs(c)))
                     for _, c in recurrence.joint_poly(n, bind).items())
        assert digits <= cli._output_digits(n, bind), n


def test_usage_messages_read_the_limits(capsys, monkeypatch):
    for key, argv, message in (
            ("fpoly", ["fpoly", "4"], "length must be in 1..3"),
            ("verify", ["verify", "paths", "4"], "bound must be in 1..3"),
            ("trunc", ["verify", "identities", "2", "--trunc", "4"],
             "--trunc must be in 1..3"),
            ("sequence", ["sequence", "catalan", "4"],
             "bound for catalan must be in 1..3"),
            ("lnk", ["lnk", "4", "1"], "need 1 <= K <= N <= 3"),
            ("expand", ["expand", "4"], "need 1 <= N <= 3"),
            ("freq", ["freq", "2,1,1,0"],
             "vectors longer than 3 are out of bounds")):
        monkeypatch.setitem(LIMITS, key, 3)
        assert run(capsys, *argv) == (2, "", f"error: {message}\n"), key


def test_integers_past_the_digit_limit(capsys, default_int_digits):
    """int() refuses more than 4300 digits; the command line says so, in a
    short message, instead of calling the value malformed."""
    big = "1" + "0" * 5000
    message = ("error: integer '10000000000000000000...' has 5001 digits, "
               "past Python's limit of 4300 for reading an int\n")
    for argv in (["fpoly", "3", "--bind", f"p={big}"],
                 ["fpoly", "3", "--columns", f"q=1,{big}"],
                 ["freq", f"1,{big}"], ["fpoly", big]):
        assert run(capsys, *argv) == (2, "", message), argv[:3]
    assert len(message) < 200
    # leading zeros count, as they do for int(); a sign does not
    assert run(capsys, "fpoly", "3", "--bind", "p=" + "0" * 4301)[0] == 2
    assert run(capsys, "fpoly", "2", "--bind", "p=-" + "0" * 4299 + "1") == (
        0, "x^2*y*z - x\n", "")
    # a malformed value is quoted by its prefix only
    assert run(capsys, "fpoly", "3", "--bind", f"p={big}x") == (
        2, "", "error: binding 'p=100000000000000000...' is not var=integer\n")


def test_malformed_integer_arguments_are_quoted_short(capsys):
    """argparse's own message for a malformed integer argument quotes the
    whole value; the command line quotes a short prefix."""
    bad = "1_" + "0" * 3000
    for argv in (["fpoly", bad], ["verify", "paths", bad],
                 ["verify", "identities", "3", "--trunc", bad],
                 ["sequence", "catalan", bad], ["lnk", bad, "1"],
                 ["lnk", "3", bad], ["expand", bad]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        err = capsys.readouterr().err
        assert exc.value.code == 2, argv[:2]
        assert "error: argument " in err, argv[:2]
        assert "not an integer: '1_000000000000000000...'" in err, argv[:2]
        assert len(err) < 400, argv[:2]


# ------------------------------------------------------------------ verify

def test_verify_plain_passes(capsys):
    code, out, _ = run(capsys, "verify", "paths", "5")
    assert code == 0
    lines = out.strip().splitlines()
    assert all(line.startswith("PASS") for line in lines[:-1])
    assert lines[-1].startswith("passed ")
    assert lines[-1].endswith("checks")


def test_verify_json_schema_and_determinism(capsys):
    code, first, _ = run(capsys, "verify", "tau", "5", "--format", "json")
    assert code == 0
    _, second, _ = run(capsys, "verify", "tau", "5", "--format", "json")
    assert first == second  # timings never leak into json
    payload = json.loads(first)
    assert payload["command"] == "verify"
    assert payload["result"]["ok"] is True
    assert payload["result"]["passed"] == payload["result"]["total"]
    for check in payload["checks"]:
        assert set(check) == {"name", "pass", "detail"}
        assert check["pass"] is True


def test_verify_csv(capsys):
    code, out, _ = run(capsys, "verify", "freq", "4", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "name,pass,detail"
    assert all(",true," in line for line in lines[1:])


def test_verify_csv_fields_are_quoted(capsys):
    """Each csv row parses into exactly name, pass and detail, and the
    details read back equal to the json ones (they contain commas)."""
    code, out, _ = run(capsys, "verify", "all", "4", "--format", "csv")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    _, text, _ = run(capsys, "verify", "all", "4", "--format", "json")
    checks = json.loads(text)["checks"]
    assert rows == [["name", "pass", "detail"]] + [
        [c["name"], "true", c["detail"]] for c in checks]
    assert any("," in c["detail"] for c in checks)


def test_verify_all(capsys):
    code, out, _ = run(capsys, "verify", "all", "4")
    assert code == 0
    assert "passed" in out.strip().splitlines()[-1]


def test_verify_reports_failing_check(capsys, monkeypatch):
    """A broken identity fails its own check, at its first length only."""
    monkeypatch.setattr("invq.recurrence.product_formula",
                        lambda n: MultiPoly.zero())
    code, out, _ = run(capsys, "verify", "recurrence", "3", "--format", "json")
    payload = json.loads(out)
    assert code == 1 and payload["result"]["ok"] is False
    failed = [c for c in payload["checks"] if not c["pass"]]
    assert [c["name"] for c in failed] == ["recurrence.product_formula"]
    assert failed[0]["detail"].startswith("fails at n = 1; ")
    assert len(payload["checks"]) == 5


def test_verify_reports_raising_check(capsys, monkeypatch):
    """An oracle that raises fails its own check, named in the detail; the
    other rows still print and no traceback escapes."""
    monkeypatch.setattr("invq.verify._stirling2", lambda n, k: n // 0)
    code, out, err = run(capsys, "verify", "stirling", "5")
    assert code == 1
    assert "Traceback" not in err
    rows = out.strip().splitlines()
    assert [row.split()[1] for row in rows[:-1]] == [
        "stirling.sequence_model", "stirling.family_conversions",
        "stirling.classical_collapse"]
    assert rows[0].startswith("PASS") and rows[1].startswith("PASS")
    assert rows[2].startswith("FAIL")
    assert ("fails at n = 0 (ZeroDivisionError: integer division or modulo"
            " by zero); q = 1 collapse") in rows[2]
    assert rows[-1] == "passed 2/3 checks"


def test_verify_usage(capsys):
    assert run(capsys, "verify", "paths", "55")[0] == 2
    # the bound is positional only; argparse refuses any other spelling
    for argv in (["verify", "paths", "5", "--max-n", "6"],
                 ["sequence", "catalan", "--max-n", "6"]):
        with pytest.raises(SystemExit) as exc:
            run(capsys, *argv)
        assert exc.value.code == 2, argv
    with pytest.raises(SystemExit):
        run(capsys, "verify", "nonsense")
    for bad in (["identities", "3", "--trunc", "0"],
                ["all", "3", "--trunc", "-5"],
                ["identities", "3", "--trunc", "41"],
                ["paths", "3", "--trunc", "10"]):
        code, out, err = run(capsys, "verify", *bad)
        assert (code, out) == (2, ""), bad
        assert "error:" in err, bad
    assert run(capsys, "verify", "identities", "3", "--trunc", "1")[0] == 0
    assert run(capsys, "verify", "identities", "1", "--trunc", "40")[0] == 0


# ---------------------------------------------------------------- sequence

def test_sequence_catalan(capsys):
    code, out, _ = run(capsys, "sequence", "catalan", "6")
    assert code == 0
    assert out.strip() == "1 2 5 14 42 132"


def test_sequence_triangle(capsys):
    code, out, _ = run(capsys, "sequence", "narayana", "4")
    assert out.strip().splitlines() == ["1", "1 1", "1 3 1", "1 6 6 1"]


def test_sequence_returns_row(capsys):
    code, out, _ = run(capsys, "sequence", "returns", "6", "--format", "csv")
    assert out.strip().splitlines()[-1] == "42,42,28,14,5,1"


def test_sequence_json(capsys):
    _, out, _ = run(capsys, "sequence", "involutions", "8",
                    "--format", "json")
    payload = json.loads(out)
    assert payload["result"]["values"] == [1, 2, 4, 10, 26, 76, 232, 764]


def test_sequence_bounds(capsys):
    # one bound for every stat
    for stat in SEQUENCES:
        assert run(capsys, "sequence", stat, "40")[0] == 0, stat
        for bad in ("0", "41"):
            assert run(capsys, "sequence", stat, bad) == (
                2, "", f"error: bound for {stat} must be in 1..40\n"), stat


def test_sequence_stats_walk_nothing(capsys, monkeypatch):
    """Every stat reads a closed form or a class scan: with each walk
    raising, and the caches of the walks' readers empty, all seven still
    print their golden json at their old bounds, where eulerian and
    a056151 walked S_n and a114503 the Dyck paths."""
    identities.euler_mahonian_poly.cache_clear()
    paths._dyck_tally.cache_clear()
    for module, walk in ((identities, "permutations"),
                         (paths, "lattice_paths"),
                         (paths, "weakly_increasing_sequences"),
                         (invseq, "inversion_sequences")):
        monkeypatch.setattr(module, walk, _must_not_run)
    commands = [c for c in GOLDEN_SHA256
                if c.startswith("sequence ") and c.endswith(" json")]
    assert sorted(c.split()[1] for c in commands) == sorted(SEQUENCES)
    for command in commands:
        code, out, _ = run(capsys, *command.split())
        assert code == 0, command
        assert (hashlib.sha256(out.encode()).hexdigest()
                == GOLDEN_SHA256[command]), command


# each scan reader of SEQUENCES and the walk it replaced, its oracle
WALKS = {
    "eulerian": identities.eulerian_row,
    "a056151": identities.max_displacement_counts,
    "a114503": lambda n: [paths.dyck_distribution(
        n, lambda s: s.first_peak_height + s.last_peak_height).get(s, 0)
        for s in range(2, 2 * n + 1)],
}


@pytest.mark.parametrize("stat", WALKS)
def test_scan_readers_match_their_walks(stat):
    top = 10 if stat == "a114503" else 9
    for n in range(1, top + 1):
        assert SEQUENCES[stat](n) == WALKS[stat](n), (stat, n)


def test_sequence_table_matches_vendored_prefixes(capsys):
    assert tuple(SEQUENCES) == oeis.STAT_NAMES
    for stat in SEQUENCES:
        prefix = oeis.expected_values(stat)
        m = min(LIMITS["sequence"], len(prefix))
        code, out, _ = run(capsys, "sequence", stat, str(m), "--format", "json")
        assert code == 0
        assert json.loads(out)["result"]["values"] == prefix[:m], stat


# -------------------------------------------------------------- lnk/expand

def test_lnk_display(capsys):
    code, out, _ = run(capsys, "lnk", "3", "2")
    assert code == 0
    assert out.strip() == "(q + 1) g g g_1 + g g_1 g_0^(1)"


def test_lnk_json_words(capsys):
    _, out, _ = run(capsys, "lnk", "2", "1", "--format", "json")
    payload = json.loads(out)
    assert payload["result"]["words"] == [
        {"coeff": [[0, 1]], "factors": [["g", 0, 0], ["g", 1, 0]]},
    ]


def test_expand_display(capsys):
    code, out, _ = run(capsys, "expand", "2")
    assert code == 0
    assert out.strip() == "g g f_2 + g g_1 f_1^(1)"


def test_lnk_expand_bounds(capsys):
    assert run(capsys, "lnk", "3", "4")[0] == 2
    assert run(capsys, "lnk", "11", "2")[0] == 2
    assert run(capsys, "expand", "10")[0] == 2


# -------------------------------------------------------------------- freq

def test_freq_plain(capsys):
    code, out, _ = run(capsys, "freq", "2,1,1,0")
    assert code == 0
    assert out.strip() == "q^2 + 2q + 1"


def test_freq_zero_class(capsys):
    code, out, _ = run(capsys, "freq", "0,0,3,1,1")
    assert code == 0
    assert out.strip() == "0"


def test_freq_csv(capsys):
    _, out, _ = run(capsys, "freq", "2,1,0", "--format", "csv")
    assert out.splitlines() == ["coeff,ex,ey,ez,ep,eq",
                                "1,0,0,0,0,1", "1,0,0,0,0,0"]


def test_freq_usage(capsys):
    for bad in ("0,2", "1,2,x", ",".join(["1"] * 13), "2,,1,0", "2,+-1,0",
                # int() reads each of these as the valid class 2,1,0
                "2,1,0_0", "\u0662,1,0", " 2,1,0", "2,1,0 ", "2, 1,0"):
        code, out, err = run(capsys, "freq", bad)
        assert (code, out) == (2, ""), bad
        assert "error:" in err, bad
    assert run(capsys, "freq", "+2,1,-0")[:2] == (0, "q + 1\n")


# ------------------------------------------------------------ golden bytes

# sha256 of stdout for outputs the benchmark's digests do not cover
GOLDEN_SHA256 = {
    "expand 6":
        "d7e8139ca30263b9a7317320b253c5c415816435189d4f7be06989a4cf016e92",
    "expand 6 --format json":
        "572b18fdf7b109126172673bc7dfbb3c9aa4bf51c4c24ccaa330764045d5368c",
    "lnk 7 3 --format csv":
        "96ef12fd0f105f5ae4d92a3357fd3d1779e31855f4e90fa36208d9f3cf67e917",
    "freq 3,2,1,1,0,0,0 --format json":
        "da035f604194feeb1f75272dbd8a39b251b179ea9acfcf184a0ad2040d268546",
    # re-recorded when csv fields got quoted: the details contain commas
    "verify all 4 --format csv":
        "fb7a0fa07af9bf49d6ca9d1902f8ecdb3141d5b1b1e0defbe424d6f23f6cf722",
    "verify identities 6 --trunc 3 --format json":
        "5ba3fe0d7218063b8d36bc4c6dfecad04cacf271bf68a85540a0ec14befa2889",
    "verify identities 6 --trunc 20 --format json":
        "f140eb871cfbc7a08d4a43694edb2cb15f17a23f0f05ad5140abbc7f66a3bf83",
    "verify operator 8 --format json":
        "bf9fd8a582dd0a7993b3c9b48c4642770d1930f1291ff33eac2e902d20de4840",
    "fpoly 6":
        "5b8881733c85fc89068074051dd71b0d7607ba7ed09de417b4002cacd6788883",
    "fpoly 6 --format json":
        "d603c271b0919db23a3d849300e886e3a779d19d746377d750b9af3aa59908b8",
    "fpoly 6 --format csv":
        "338d50ecd09e8e98c0114a96a714baa160abe4eacc696fce42336c07ece8c8f1",
    "fpoly 6 --bind y=1,z=1 --format csv":
        "d0293e22561cc91933675501bd612e1dae935bfc087a3453b6ef0f8af9ac8fd6",
    "fpoly 5 --columns q=1,0,-1":
        "524215916ff01e9470a0a9ce80fc0b6ba644b37a774fdfb3c33125a7f1cb73fc",
    "fpoly 10":
        "592ecf447dbd3d2ce7bd7caf13cb90fa99a9f04a9de7747aac26114014399e5a",
    "fpoly 10 --format json":
        "70b63a7c4cdbcc2c7da07b0dfad8d702c47fdbfb769ceec11eef7ef54a241bdf",
    "fpoly 10 --format csv":
        "385728a99460876615a822ecc0618cf25da5a35430451b31b67fe98050b4272d",
    "fpoly 10 --bind y=1,z=1 --format json":
        "81d94958d9e7436424e3f9466e06b6a44141ee8a897520358feddfb8c3f5c72b",
    # the zero polynomial: text "0" and an empty terms array
    "fpoly 4 --bind all=0 --format json":
        "d766f49ff7ed4076c582c92d3211e54089fd085d3dfeac91d14aab7be48abf4c",
    # bindings recorded from eval_partial of the full F_n, one per route of
    # the bound class scan: q bound (int states); a negative y with q free
    # (left free in the scan and scaled per run); x and q bound; a value
    # past 1 with q free (the wide slots); x, y, z and p bound to 1
    # (inv_poly's binding)
    "fpoly 8 --bind q=-1 --format json":
        "ed4ce6f3c0581c0521f1118401cb9d6d3c8ac3b29ee6dad25d677d9b5b34c299",
    "fpoly 8 --bind y=-1,p=2 --format csv":
        "cdd9cc196353c72bc08f214e8c37f842845027410ad7ae98c81185c817fe4ece",
    "fpoly 9 --bind x=2,q=0 --format csv":
        "99384a44b4a99a02554d2d682a8f00e79de2624d277d083dacf6e2fa69bdc091",
    "fpoly 9 --bind y=3 --format csv":
        "b45fd61ef7d2f6d33006d05e631903d410d1e5000c7c95dfee6d5e70f01ed585",
    "fpoly 10 --bind x=1,y=1,z=1,p=1 --format json":
        "a8be067a2a98ded17ee09baa3c3594ab8b7e81fba72c98aebcf4bfb1b80ed678",
    # recorded before the oracles' walks were mapped in C: the Eulerian
    # (S_n walk) and max-displacement rows, the augmented-inversion walk
    # and the tau scan
    "sequence eulerian 9 --format json":
        "6b825d8711e5be9b24a9b4f8163373da038277a6fc0b5ae0080d0506ea3b9571",
    "sequence a056151 9 --format json":
        "3bd2f1e1292e04c1c4cab59d46c5024414b5eb9f4a2f597b60d5bcdbf23ae811",
    "verify stirling 9 --format json":
        "65dfbcf4173adaf8a6eb65c45bc3b87f95f2398c039584e5cccfaf11b2107b2f",
    "verify tau 8 --format json":
        "c63906b4568bf6e178b1b20ae78ac2be7d677389aa07611b6f3fe89099501783",
    # recorded before the I_n walks counted inversions from their prefixes
    # and the weakly increasing odometer stepped its last digit in a loop:
    # the enumeration rows, and catalan_counts to n = 12
    "verify recurrence 8 --format json":
        "efa35a979ab69b8575518dd98ed6686dc4087892a0edf1b5b6881d94e9db5a07",
    "verify freq 8 --format json":
        "9e517109164715bb6cbd39ddd2fdd70e05becc43df63b197eea7ccca1b23f64c",
    "verify paths 12 --format json":
        "cf4e9427aa20b1f625a1168789a47bada9446ae3ccf62973b1afb2fc0d9fbf3a",
    # recorded while eulerian and a056151 walked S_n and a114503 the Dyck
    # paths, before every stat read a closed form or a class scan: each
    # stat at its old bound (eulerian and a056151 json are above)
    "sequence catalan 14 --format json":
        "1ec47eb7048724bb8b8b2e409ed2e279852ff3459eb1894edea80a7756f31fa4",
    "sequence catalan 14 --format csv":
        "eea129debc9bd48ed33cb31fbdabfe4ae2b6928f0f258e810a48e248f504ef22",
    "sequence narayana 14 --format json":
        "bd14995f5602dc420dc4bc5ddcaa3f93c28b4d66e5d6675d1f1f8268e431c585",
    "sequence narayana 14 --format csv":
        "37b1430df879eca4b3cc3bdb209e72b5156aba31b94ced4fa69d3f77cc9372b4",
    "sequence returns 14 --format json":
        "2ac113a3944ad2973dffdcc273a1836f1b479655d2be0d6132f41a352311461b",
    "sequence returns 14 --format csv":
        "7f58902e3a053da9a39dad640801d7eb9e4c6a181c5c8f72776736f773f06711",
    "sequence a114503 10 --format json":
        "5052a8ce6070e05f4789ab768d2c4a8c5cf38e2300311abd375b842b846340c6",
    "sequence a114503 10 --format csv":
        "90594d2616b271a41f9c71f9464d976f0ba8993e90c2fc211b283eca4e6081da",
    "sequence a056151 9 --format csv":
        "7648e6b4466b929857ce1eea336071dc532d23735888b95654ff059ddfa558f4",
    "sequence involutions 14 --format json":
        "4ecc243171d8afb19dddcea2a074b4ba7c6a17a13cac2d0bfeff1d3fc2e1b392",
    "sequence involutions 14 --format csv":
        "53fb1ab2ad743907dea765592a9d2cd4df6bc99ac5c30eb0c6c0ef252679b75a",
    "sequence eulerian 9 --format csv":
        "f0bc02f64249e63f98dfc3a0e25456b94351c70102db96753dc253c00c58d668",
    # recorded while a negative y, z or p with q free was still substituted
    # into the full F_n, before the scan left it free and scaled each run
    "fpoly 11 --bind y=-2,p=-1 --format csv":
        "34499926ab705e7ed4e18ccab53022245418c4b539f066ce5c3877ec8db3b5b3",
    "fpoly 9 --bind z=-3 --format json":
        "c42e35e119e985fb206d73059c0315d2997b1006ea6344c0091625923b9c9057",
}


@pytest.mark.parametrize("command", GOLDEN_SHA256)
def test_golden_output(capsys, command):
    code, out, _ = run(capsys, *command.split())
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN_SHA256[command]


# ----------------------------------------------------------------- plumbing

def test_no_subcommand_exits_via_argparse(capsys):
    with pytest.raises(SystemExit):
        main([])


def _declared_console_script():
    """The `invq` entry of `[project.scripts]`, read from pyproject.toml."""
    tomllib = pytest.importorskip("tomllib")
    with open(Path(__file__).resolve().parents[1] / "pyproject.toml", "rb") as fh:
        return tomllib.load(fh)["project"]["scripts"]["invq"]


# The console-script wrapper pip installs for a `module:attr` entry point.
_CONSOLE_SCRIPT = """\
import sys
import {module}
if __name__ == "__main__":
    sys.exit({module}.{attr}())
"""


def _env_importing(*dirs):
    """The environment with `dirs` and this suite's `invq` package in front
    of PYTHONPATH."""
    package_root = str(Path(invq.__file__).resolve().parents[1])
    pythonpath = [*dirs, package_root, os.environ.get("PYTHONPATH", "")]
    return dict(os.environ,
                PYTHONPATH=os.pathsep.join(filter(None, pythonpath)))


def _assert_prints_catalan(command, env=None):
    proc = subprocess.run([*command, "sequence", "catalan", "5"],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "1 2 5 14 42"


def test_console_script_is_installed(tmp_path):
    """The declared `invq` console script runs, installed or not.

    The wrapper pip would install is built from pyproject.toml and run
    against the `invq` package this suite imports; an `invq` found on
    PATH is run as well.
    """
    module, _, attr = _declared_console_script().partition(":")
    script = tmp_path / "invq"
    script.write_text(_CONSOLE_SCRIPT.format(module=module, attr=attr))
    _assert_prints_catalan([sys.executable, str(script)], _env_importing())

    exe = shutil.which("invq")
    if exe:
        _assert_prints_catalan([exe])


def test_package_exports_resolve():
    """`invq.__all__` lists exactly the names `__init__` imports, once each,
    and every one resolves, so a name deleted from its module cannot stay
    in the export list."""
    tree = ast.parse(Path(invq.__file__).read_text())
    imported = [alias.asname or alias.name for node in tree.body
                if isinstance(node, ast.ImportFrom) for alias in node.names]
    assert sorted(invq.__all__) == sorted(imported)
    assert len(set(invq.__all__)) == len(invq.__all__)
    for name in invq.__all__:
        assert hasattr(invq, name), name


def test_perfbench_tracer_installs():
    """perfbench/tracer.py finds every layer it wraps.

    The tracer wraps methods through each class's own namespace, so a
    refactor that moves a traced method into a base class breaks traced
    benchmark runs; this catches it without running the benchmark.
    """
    perfbench = Path(__file__).resolve().parents[1] / "perfbench"
    env = dict(_env_importing(str(perfbench)), PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(
        [sys.executable, "-c", "import tracer; tracer.install(tracer.Tracer())"],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr


def test_closed_pipe_exits_quietly():
    """A reader that leaves early gets exit 1 and no traceback.

    `fpoly 10` prints about 728 KB, far more than a pipe buffer holds,
    so the write after the reader closes must fail.
    """
    proc = subprocess.Popen(
        [sys.executable, "-m", "invq.cli", "fpoly", "10"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=_env_importing())
    assert len(proc.stdout.read(100)) == 100
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=120) == 1
    assert err == b""
