"""Traced child: run one op with invq's layers wrapped, then write the stats.

    python perfbench/tracer.py STATS_JSON OP

The layers are invq's modules.  Before the op runs, the public functions
named in ``CALLS``, ``GENERATORS`` and ``METHODS`` are replaced at their
module (or class) attributes by timing wrappers.  Every other module
attribute that holds the same function object (``recurrence.t_q`` is bound
by ``from .qcalc import t_q``; the package re-exports) is replaced too, so
no call escapes the wrapper.  Nothing under ``src/invq`` is edited.

Each wrapped call is a span.  A span's self time is its duration minus the
time its child spans cover; the wrapper's own bookkeeping is counted in no
span's self time.  Wrapped generators are timed across ``next()``: each
``next()`` is a span, and ``items`` counts what they yield.  The
aggregates cover every span; the span log keeps the first ``SPAN_CAP``
spans of each layer (a ``verify all 12`` run has millions), stays in memory
and is written out with the aggregates when the op ends.

This is one process with one thread and no queue, so no layer waits for
another: there is no waiting time to record.
"""

from __future__ import annotations

import itertools
import json
import sys
import time
from collections import Counter
from pathlib import Path

import ops

clock = time.perf_counter

SPAN_CAP = 200

CALLS = {
    "qcalc.t_q": ("invq.qcalc", "t_q"),
    "recurrence.next_joint_poly": ("invq.recurrence", "next_joint_poly"),
    "recurrence.inv_poly": ("invq.recurrence", "inv_poly"),
    "invseq.sequence_stats": ("invq.invseq", "sequence_stats"),
    "paths.dyck_stats": ("invq.paths", "dyck_stats"),
    "paths.sign_reversing_involution": ("invq.paths", "sign_reversing_involution"),
    "qstirling.stirling2_q_by_enumeration":
        ("invq.qstirling", "stirling2_q_by_enumeration"),
    "qoperator.operator_expansion": ("invq.qoperator", "operator_expansion"),
    "qoperator.expansion_from_sequences":
        ("invq.qoperator", "expansion_from_sequences"),
    "identities.checks": ("invq.identities", "check_stirling_euler",
                          "check_garsia", "check_qpower", "check_carlitz",
                          "check_eu_ma_operator"),
    "verify.run_suite": ("invq.verify", "run_suite"),
    "cli.main": ("invq.cli", "main"),
}

GENERATORS = {
    "invseq.inversion_sequences": ("invq.invseq", "inversion_sequences"),
    "paths.lattice_paths": ("invq.paths", "lattice_paths"),
    "paths.weakly_increasing_sequences":
        ("invq.paths", "weakly_increasing_sequences"),
}

# layer name -> (class, attributes); reflected operators share the layer
METHODS = {
    "polyring.MultiPoly.mul": ("MultiPoly", "__mul__", "__rmul__"),
    "polyring.MultiPoly.add": ("MultiPoly", "__add__", "__radd__"),
    "polyring.MultiPoly.scaled_shift": ("MultiPoly", "scaled_shift"),
    "polyring.MultiPoly.eval_partial": ("MultiPoly", "eval_partial"),
    "polyring.MultiPoly.sorted_items": ("MultiPoly", "sorted_items"),
    "polyring.MultiPoly.str": ("MultiPoly", "__str__"),
    "polyring.MultiPoly.to_json_terms": ("MultiPoly", "to_json_terms"),
    "polyring.QLaurent.mul": ("QLaurent", "__mul__", "__rmul__"),
    "polyring.QLaurent.add": ("QLaurent", "__add__", "__radd__"),
}


class Tracer:
    """Span stack, per-layer aggregates and the capped span log."""

    def __init__(self):
        self.root = [0.0, 0]          # [time covered by child spans, span id]
        self.stack = [self.root]
        self.ids = itertools.count(1)
        self.stats: dict[str, list] = {}   # name -> [calls, self_s, items]
        self.counters: dict[str, Counter] = {}
        self.spans: list[tuple] = []  # (id, parent id, name, start, end)
        self.logged: Counter = Counter()
        self.dropped = 0
        self.step = None              # the open next_joint_poly step

    def stat(self, name: str) -> list:
        if name not in self.stats:
            self.stats[name] = [0, 0.0, 0]
            self.counters[name] = Counter()
        return self.stats[name]

    def _close(self, name, stat, frame, t0, t1):
        # account a finished span; caller pops the frame first
        stat[1] += (t1 - t0) - frame[0]
        if self.logged[name] < SPAN_CAP:
            self.logged[name] += 1
            self.spans.append((frame[1], self.stack[-1][1], name, t0, t1))
        else:
            self.dropped += 1

    def wrap_call(self, name: str, fn, post=None):
        stat = self.stat(name)
        extra = self.counters[name]
        stack, ids, close = self.stack, self.ids, self._close

        def traced(*args, **kwargs):
            t_in = clock()
            frame = [0.0, next(ids)]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                stack.pop()
                raise
            t1 = clock()
            stack.pop()
            stat[0] += 1
            close(name, stat, frame, t0, t1)
            if post is not None:
                post(extra, args, result)
            stack[-1][0] += clock() - t_in
            return result

        traced.__wrapped__ = fn
        return traced

    def wrap_generator(self, name: str, fn):
        stat = self.stat(name)
        stack, ids, close = self.stack, self.ids, self._close

        class TracedIterator:
            __slots__ = ("inner",)

            def __init__(self, inner):
                self.inner = inner

            def __iter__(self):
                return self

            def __next__(self):
                t_in = clock()
                frame = [0.0, next(ids)]
                stack.append(frame)
                t0 = clock()
                try:
                    item = next(self.inner)
                except BaseException:
                    t1 = clock()
                    stack.pop()
                    close(name, stat, frame, t0, t1)
                    stack[-1][0] += clock() - t_in
                    raise
                t1 = clock()
                stack.pop()
                stat[2] += 1
                close(name, stat, frame, t0, t1)
                stack[-1][0] += clock() - t_in
                return item

        def traced(*args, **kwargs):
            stat[0] += 1
            return TracedIterator(fn(*args, **kwargs))

        traced.__wrapped__ = fn
        return traced

    # ------------------------------------------------- counters at boundaries

    def open_step(self, fn):
        """next_joint_poly, remembering F so t_q(F) and (y-1)*F are seen."""
        self.stat("recurrence.next_joint_poly")
        counters = self.counters["recurrence.next_joint_poly"]

        def step(current, n):
            self.step = {"current": current, "t_q": 0, "mul": 0}
            try:
                result = fn(current, n)
            finally:
                seen, self.step = self.step, None
            counters["kept_in"] += seen["t_q"] + seen["mul"]
            counters["kept_out"] += result.term_count()
            return result

        return step

    def _seen_in_step(self, kind, args, result):
        if self.step is not None and any(a is self.step["current"]
                                         for a in args):
            self.step[kind] = result.term_count()

    def post_t_q(self, counters, args, result):
        (poly,) = args
        degrees = Counter(key[0] for key, _ in poly.items())
        counters["terms_in"] += poly.term_count()
        counters["terms_out"] += result.term_count()
        counters["accumulations"] += sum(
            _accumulations(a) * m for a, m in degrees.items())
        self._seen_in_step("t_q", args, result)

    def post_mul(self, counters, args, result):
        counters["terms_out"] += result.term_count()
        self._seen_in_step("mul", args, result)

    def dump(self) -> dict:
        layers = {}
        for name, (calls, self_s, items) in self.stats.items():
            layers[name] = {"calls": calls, "self_s": self_s, "items": items,
                            **self.counters[name]}
        return {"layers": layers, "covered_s": self.root[0],
                "spans": self.spans, "spans_dropped": self.dropped}


_degree_accumulations: dict[int, int] = {}


def _accumulations(a: int) -> int:
    """Accumulations t_q makes for one x^a term: sum_k |qbinom(a, k)|."""
    if a not in _degree_accumulations:
        from invq.qcalc import q_binomial
        _degree_accumulations[a] = sum(
            sum(1 for _ in q_binomial(a, k).items()) for k in range(a + 1))
    return _degree_accumulations[a]


def _terms_out(counters, args, result):
    counters["terms_out"] += result.term_count()


def _eval_partial(counters, args, result):
    counters["terms_in"] += args[0].term_count()
    counters["terms_out"] += result.term_count()


def _str(counters, args, result):
    counters["bytes_out"] += len(result.encode())


def _suite_seconds(counters, args, result):
    # CheckResult.seconds, summed per suite ("recurrence.product_formula")
    for check in result:
        counters[check.name.split(".")[0]] += check.seconds


def _rebind(modules, original, wrapped):
    for module in modules:
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, wrapped)


def install(tracer: Tracer):
    """Wrap every layer; return the imported invq.cli module."""
    import invq.cli
    from invq import polyring, verify

    modules = [m for name, m in sys.modules.items()
               if name == "invq" or name.startswith("invq.")]
    posts = {
        "qcalc.t_q": tracer.post_t_q,
        "verify.run_suite": _suite_seconds,
        "polyring.MultiPoly.mul": tracer.post_mul,
        "polyring.MultiPoly.add": _terms_out,
        "polyring.MultiPoly.scaled_shift": _terms_out,
        "polyring.MultiPoly.eval_partial": _eval_partial,
        "polyring.MultiPoly.str": _str,
    }
    for layer, (module_name, *attrs) in CALLS.items():
        module = sys.modules[module_name]
        for attr in attrs:
            original = getattr(module, attr)
            fn = (tracer.open_step(original)
                  if layer == "recurrence.next_joint_poly" else original)
            _rebind(modules, original,
                    tracer.wrap_call(layer, fn, posts.get(layer)))
    for layer, (module_name, attr) in GENERATORS.items():
        original = getattr(sys.modules[module_name], attr)
        _rebind(modules, original, tracer.wrap_generator(layer, original))
    # suite runners: their own loops are the suite's self time, not cli's
    for suite, original in list(verify.SUITES.items()):
        wrapped = tracer.wrap_call(f"verify.{suite}", original)
        verify.SUITES[suite] = wrapped
        _rebind(modules, original, wrapped)
    for layer, (class_name, *attrs) in METHODS.items():
        cls = getattr(polyring, class_name)
        for attr in attrs:
            setattr(cls, attr, tracer.wrap_call(layer, vars(cls)[attr],
                                                posts.get(layer)))
    if not hasattr(sys.modules["invq.recurrence"].t_q, "__wrapped__"):
        raise RuntimeError("recurrence.t_q escaped the tracer")
    return invq.cli


def main(argv: list[str]) -> int:
    stats_path, op = Path(argv[1]), argv[2]
    tracer = Tracer()
    cli = install(tracer)
    cli_argv = ops.OPS[op]
    if cli_argv is None:
        code = ops.LIBRARY_OPS[op]()
    else:
        code = cli.main(cli_argv)
    sys.stdout.flush()
    stats_path.write_text(json.dumps(tracer.dump()))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv))
