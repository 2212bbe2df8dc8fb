"""Named verification sweeps behind the CLI `verify` subcommand.

Each suite replays the module's defining cross-checks up to a requested
length bound (clamped to each check's own safe bound, so `verify all 12`
never launches a 12! permutation sweep).  Results come back as plain
records; rendering belongs to the CLI.
"""

from __future__ import annotations

import time
from collections import Counter, defaultdict
from dataclasses import dataclass
from typing import Callable, Iterator

from . import identities, invseq, paths, qoperator, qstirling, recurrence
from .polyring import MultiPoly, QLaurent


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str
    seconds: float


class _Suite:
    """Collects timed named checks."""

    def __init__(self):
        self.results: list[CheckResult] = []

    def run(self, name: str, fn: Callable[[], tuple[bool, str]]):
        start = time.perf_counter()
        passed, detail = fn()
        self.results.append(
            CheckResult(name, passed, detail, time.perf_counter() - start))


def _clamp(nmax: int, bound: int) -> int:
    return max(1, min(nmax, bound))


# ------------------------------------------------------------------ suites

def run_recurrence(nmax: int) -> list[CheckResult]:
    s = _Suite()

    def oracle():
        top = _clamp(nmax, 8)
        ok = all(recurrence.joint_poly(n) == invseq.brute_joint_poly(n)
                 for n in range(1, top + 1))
        return ok, f"recurrence vs enumeration, n <= {top}"
    s.run("recurrence.matches_enumeration", oracle)

    def product():
        top = _clamp(nmax, 9)
        ok = True
        for n in range(1, top + 1):
            marg = recurrence.joint_poly(n).eval_partial({"y": 1, "z": 1, "q": 1})
            ok &= marg == recurrence.product_formula(n)
            ok &= marg.eval_partial({"x": 1}) == recurrence.p_factorial(n)
        return ok, f"(x, p) marginal vs closed product, n <= {top}"
    s.run("recurrence.product_formula", product)

    def specials():
        top = _clamp(nmax, 9)
        import math
        ok = True
        for n in range(1, top + 1):
            f = recurrence.inv_poly(n)
            ok &= f.evaluate(1) == math.factorial(n)
            ok &= f.evaluate(0) == paths.catalan(n)
            ok &= f.evaluate(-1) == paths.involution_number(n)
        return ok, f"q = 1, 0, -1 give n!, Catalan, involutions, n <= {top}"
    s.run("recurrence.q_specializations", specials)

    def descents():
        top = _clamp(nmax, 8)
        ok = True
        for n in range(1, top + 1):
            marg = recurrence.joint_poly(n).eval_partial(
                {"x": 1, "z": 1, "p": 1, "q": 1})
            by_y = marg.coefficients_in("y")
            row = [by_y[k].constant_value() if k in by_y else 0
                   for k in range(n)]
            ok &= row == identities.eulerian_row(n)
        return ok, f"y marginal equals the descent distribution, n <= {top}"
    s.run("recurrence.eulerian_marginal", descents)

    def displacement():
        top = _clamp(nmax, 8)
        ok = all(recurrence.uel_distribution(n)
                 == list(reversed(identities.max_displacement_counts(n)))
                 for n in range(1, top + 1))
        return ok, f"z marginal vs max-displacement permutations, n <= {top}"
    s.run("recurrence.uel_vs_displacement", displacement)

    return s.results


def run_paths(nmax: int) -> list[CheckResult]:
    s = _Suite()

    def catalan_counts():
        top = _clamp(nmax, 12)
        ok = all(sum(1 for _ in paths.weakly_increasing_sequences(n))
                 == paths.catalan(n) for n in range(1, top + 1))
        return ok, f"weakly increasing count is Catalan, n <= {top}"
    s.run("paths.catalan_counts", catalan_counts)

    def bijection():
        top = _clamp(nmax, 10)
        ok = True
        for n in range(1, top + 1):
            for w in paths.lattice_paths(n):
                if paths.path_from_sequence(paths.sequence_from_path(w)) != w:
                    return False, f"round trip failed for {w}"
            for e in paths.weakly_increasing_sequences(n):
                if paths.sequence_from_path(paths.path_from_sequence(e)) != e:
                    return False, f"round trip failed for {e}"
        return ok, f"bijection round trips, n <= {top}"
    s.run("paths.bijection_round_trip", bijection)

    def involution():
        top = _clamp(nmax, 8)
        for n in range(1, top + 1):
            for w in paths.lattice_paths(min(n, 7)):
                if paths.reverse_swap(paths.reverse_swap(w)) != w:
                    return False, "reverse_swap not involutive"
                a = paths.dyck_stats(w)
                b = paths.dyck_stats(paths.reverse_swap(w))
                if (a.first_peak_height, a.last_peak_height) != (
                        b.last_peak_height, b.first_peak_height):
                    return False, "peak heights not exchanged"
        return True, f"reverse_swap involution and height exchange, n <= {min(top, 7)}"
    s.run("paths.reverse_swap", involution)

    def triangles():
        top = _clamp(nmax, 10)
        ok = True
        for n in range(1, top + 1):
            row = paths.returns_triangle_row(n)
            brute = paths.returns_distribution(n)
            ok &= row == [brute.get(k, 0) for k in range(1, n + 1)]
            zero_counts = Counter(e.count(0)
                                  for e in paths.weakly_increasing_sequences(n))
            ok &= row == [zero_counts.get(k, 0) for k in range(1, n + 1)]
            valleys = paths.valley_distribution(n)
            ok &= paths.narayana_row(n) == [valleys.get(k, 0) for k in range(n)]
            ok &= paths.first_peak_distribution(n) == brute
        return ok, f"returns / zeros / Narayana / first-peak triangles, n <= {top}"
    s.run("paths.triangles", triangles)

    def peak_poly():
        top = _clamp(nmax, 9)
        ok = True
        for n in range(1, top + 1):
            poly = paths.peak_height_poly(n)
            mirrored = MultiPoly({(k[2], k[1], k[0], k[3], k[4]): c
                                  for k, c in poly.items()})
            ok &= poly == mirrored
            brute = Counter()
            for w in paths.lattice_paths(n):
                st = paths.dyck_stats(w)
                brute[(st.first_peak_height, st.last_peak_height)] += 1
            ok &= poly == MultiPoly(
                {(a, 0, b, 0, 0): c for (a, b), c in brute.items()})
            if n <= 8:
                tie = (MultiPoly.variable("z")
                       * recurrence.joint_poly(n).eval_partial(
                           {"y": 1, "p": 1, "q": 0}))
                ok &= poly == tie
        return ok, f"peak-height polynomial symmetry and q = 0 tie, n <= {top}"
    s.run("paths.peak_height_poly", peak_poly)

    return s.results


def run_tau(nmax: int) -> list[CheckResult]:
    s = _Suite()

    def involutive():
        top = _clamp(nmax, 8)
        for n in range(1, top + 1):
            for e in invseq.inversion_sequences(n):
                image = paths.sign_reversing_involution(e)
                if paths.sign_reversing_involution(image) != e:
                    return False, f"not an involution at {e}"
                if image != e:
                    delta = (invseq.sequence_stats(image).inv
                             - invseq.sequence_stats(e).inv)
                    if abs(delta) != 1:
                        return False, f"inversion change {delta} at {e}"
        return True, f"involution with unit inversion change, n <= {top}"
    s.run("tau.involution", involutive)

    def fixed_points():
        top = _clamp(nmax, 8)
        ok = all(len(paths.involution_fixed_points(n))
                 == paths.involution_number(n) for n in range(1, top + 1))
        return ok, f"fixed points counted by involution numbers, n <= {top}"
    s.run("tau.fixed_point_count", fixed_points)

    def q_minus_one():
        top = _clamp(nmax, 9)
        ok = all(recurrence.inv_poly(n).evaluate(-1)
                 == paths.involution_number(n) for n in range(1, top + 1))
        return ok, f"q = -1 evaluation matches, n <= {top}"
    s.run("tau.q_minus_one", q_minus_one)

    return s.results


def run_freq(nmax: int) -> list[CheckResult]:
    s = _Suite()

    def sweep():
        top = _clamp(nmax, 8)
        for n in range(1, top + 1):
            groups: dict = defaultdict(QLaurent.zero)
            for e in invseq.inversion_sequences(n):
                key = invseq.occurrence_counts(e)
                groups[key] = groups[key] + QLaurent.q_power(
                    invseq.sequence_stats(e).inv)
            total = QLaurent.zero()
            for v in invseq.frequency_vectors(n):
                prod = invseq.fixed_freq_poly(v)
                if prod != groups.get(v, QLaurent.zero()):
                    return False, f"mismatch at n={n}, v={v}"
                total = total + prod
            if total != recurrence.inv_poly(n):
                return False, f"class sum misses the full polynomial at n={n}"
        return True, f"product vs enumeration for every valid vector, n <= {top}"
    s.run("freq.product_vs_enumeration", sweep)

    return s.results


def run_stirling(nmax: int) -> list[CheckResult]:
    s = _Suite()

    def model():
        top = _clamp(nmax, 9)
        ok = all(qstirling.stirling2_q(n, k)
                 == qstirling.stirling2_q_by_enumeration(n, k)
                 for n in range(1, top + 1) for k in range(1, n + 1))
        return ok, f"recurrence vs augmented-inversion enumeration, n <= {top}"
    s.run("stirling.sequence_model", model)

    def conversions():
        top = _clamp(nmax, 10)
        ok = all(qstirling.stirling2_q_milne(n, j)
                 == qstirling.milne_from_standard(n, j)
                 for n in range(1, top + 1) for j in range(1, n + 1))
        ok &= all(qstirling.stirling2_q_star(n, k)
                  == qstirling.star_from_standard(n, k)
                  for n in range(1, top + 1) for k in range(1, n + 1))
        return ok, f"Milne and Leroux-Medicis prefactor relations, n <= {top}"
    s.run("stirling.family_conversions", conversions)

    def classical():
        top = _clamp(nmax, 10)
        def s2(n, k):
            if n == 0:
                return 1 if k == 0 else 0
            if k < 1 or k > n:
                return 0
            return s2(n - 1, k - 1) + k * s2(n - 1, k)
        ok = all(qstirling.stirling2(n, k) == s2(n, k)
                 for n in range(0, top + 1) for k in range(0, n + 1))
        return ok, f"q = 1 collapse to Stirling set numbers, n <= {top}"
    s.run("stirling.classical_collapse", classical)

    return s.results


def run_operator(nmax: int) -> list[CheckResult]:
    s = _Suite()

    def routes():
        top = _clamp(nmax, 7)
        ok = all(qoperator.operator_expansion(n)
                 == qoperator.expansion_from_sequences(n)
                 for n in range(1, top + 1))
        return ok, f"operator route vs sequence route, n <= {top}"
    s.run("operator.expansion_routes", routes)

    def three_way():
        top = _clamp(nmax, 7)
        for n in range(1, top + 1):
            full = qoperator.operator_expansion(n)
            for k in range(1, n + 1):
                a = qoperator.comtet_coeff_from_expansion(full, k)
                b = qoperator.comtet_coeff_explicit(n, k)
                c = qoperator.comtet_coeff_recurrence(n, k)
                if not (a == b == c):
                    return False, f"coefficient mismatch at (n, k) = ({n}, {k})"
        return True, f"extraction, explicit sum, recurrence agree, n <= {top}"
    s.run("operator.coefficient_three_way", three_way)

    def word_shape():
        top = _clamp(nmax, 7)
        for n in range(1, top + 1):
            for word, coeff in qoperator.operator_expansion(n).items():
                if any(c < 0 for _, c in coeff.items()) or not coeff.is_polynomial():
                    return False, "coefficient not a nonnegative q-polynomial"
                *gs, f = word
                if f.kind != "f" or any(g.kind != "g" for g in gs):
                    return False, "word shape broken"
                if sum(g.deriv for g in gs) + f.deriv != n:
                    return False, "derivative budget violated"
                if f.shift != n - f.deriv:
                    return False, "terminal shift mismatch"
        return True, f"word shape and derivative budget, n <= {top}"
    s.run("operator.word_shape", word_shape)

    def specialization():
        top = _clamp(nmax, 8)
        x = MultiPoly.variable("x")
        ok = all(qoperator.substitute_g(qoperator.comtet_coeff_explicit(n, k),
                                        qoperator.G_IS_X)
                 == (x ** k) * qstirling.stirling2_q(n, k).to_multipoly()
                 for n in range(1, top + 1) for k in range(1, n + 1))
        return ok, f"geometric specialization gives x^k stirling2_q, n <= {top}"
    s.run("operator.geometric_specialization", specialization)

    return s.results


def run_identities(nmax: int, trunc: int | None = None) -> list[CheckResult]:
    s = _Suite()

    def margin(n: int) -> int:
        # series checks truncate at n + 8 by default; --trunc overrides
        return max(trunc, n + 2) if trunc is not None else n + 8

    def stirling_euler():
        top = _clamp(nmax, 8)
        ok = all(identities.check_stirling_euler(n) for n in range(1, top + 1))
        return ok, f"Stirling to Euler-Mahonian expansion, n <= {top}"
    s.run("identities.stirling_euler", stirling_euler)

    def garsia():
        top = _clamp(nmax, 7)
        ok = all(identities.check_garsia(n) for n in range(1, top + 1))
        return ok, f"Milne-flavored expansion, n <= {top}"
    s.run("identities.garsia", garsia)

    def qpower():
        top = _clamp(nmax, 8)
        ok = all(identities.check_qpower(n, 6) for n in range(1, top + 1))
        return ok, f"q-power expansion, n <= {top}, k <= 6"
    s.run("identities.q_power", qpower)

    def carlitz():
        top = _clamp(nmax, 6)
        ok = all(identities.check_carlitz(n, margin(n))
                 for n in range(1, top + 1))
        return ok, f"Carlitz series identity, n <= {top}"
    s.run("identities.carlitz", carlitz)

    def operator():
        top = _clamp(nmax, 6)
        ok = all(identities.check_eu_ma_operator(n, margin(n))
                 for n in range(1, top + 1))
        return ok, f"(x D_q)^n on the geometric series, n <= {top}"
    s.run("identities.eu_ma_operator", operator)

    return s.results


SUITES: dict[str, Callable[[int], list[CheckResult]]] = {
    "recurrence": run_recurrence,
    "paths": run_paths,
    "tau": run_tau,
    "freq": run_freq,
    "stirling": run_stirling,
    "operator": run_operator,
    "identities": run_identities,
}


def run_suite(name: str, nmax: int, trunc: int | None = None) -> list[CheckResult]:
    def call(suite_name: str) -> list[CheckResult]:
        if suite_name == "identities":
            return run_identities(nmax, trunc)
        return SUITES[suite_name](nmax)

    if name == "all":
        results = []
        for suite_name in SUITES:
            results.extend(call(suite_name))
        return results
    if name not in SUITES:
        raise KeyError(f"unknown suite {name!r}")
    return call(name)
