"""Named verification sweeps behind the CLI `verify` subcommand.

Each check is one row: a name, its own safe length bound, a detail
template and the identity tested at one length `n`.  A run clamps the
requested bound to each check's bound (so `verify all 12` never launches
a 12! permutation sweep) and stops a check at its first failing `n`;
an exception raised inside a check fails it there.
Results come back as plain records; rendering belongs to the CLI.
"""

from __future__ import annotations

import math
import time
from collections import Counter
from functools import cache, reduce
from itertools import repeat, zip_longest
from operator import attrgetter, countOf
from typing import Callable, NamedTuple

from . import identities, invseq, paths, qoperator, qstirling, recurrence
from .polyring import MultiPoly, QLaurent


class CheckResult(NamedTuple):
    name: str
    passed: bool
    detail: str
    seconds: float


class _Suite:
    """Collects timed named checks, each run for n up to min(nmax, bound)."""

    def __init__(self, nmax: int):
        self.nmax = nmax
        self.results: list[CheckResult] = []

    def check(self, name: str, bound: int, detail: str,
              holds: Callable[[int], bool], first: int = 1):
        """Record whether `holds(n)` is true for every n from `first` to
        the clamped bound; `detail` gets that bound in its `{}`.  An
        exception raised by `holds(n)` fails the check at that n and is
        named in the detail; the run goes on with the next check."""
        start = time.perf_counter()
        top = max(1, min(self.nmax, bound))
        detail = detail.format(top)
        passed = True
        for n in range(first, top + 1):
            try:
                if holds(n):
                    continue
                reason = ""
            except Exception as exc:
                reason = f" ({type(exc).__name__}: {exc})"
            passed, detail = False, f"fails at n = {n}{reason}; {detail}"
            break
        self.results.append(CheckResult(name, passed, detail,
                                        time.perf_counter() - start))


# ------------------------------------------------------------------ suites

def run_recurrence(nmax: int, trunc: int | None = None) -> list[CheckResult]:
    s = _Suite(nmax)
    # both F_n routes: the class sum and the t_q chain from F_1 = x
    s.check("recurrence.matches_enumeration", 8,
            "recurrence vs enumeration, n <= {}",
            lambda n: recurrence.joint_poly(n) == invseq.brute_joint_poly(n)
            == reduce(recurrence.next_joint_poly, range(1, n),
                      MultiPoly.variable("x")))

    def product(n):
        bind = {"y": 1, "z": 1, "q": 1}
        return (recurrence.joint_poly(n, bind) == recurrence.product_formula(n)
                and recurrence.joint_poly(n, {"x": 1, **bind})
                == recurrence.p_factorial(n))
    s.check("recurrence.product_formula", 9,
            "(x, p) marginal vs closed product, n <= {}", product)

    def specials(n):
        f = recurrence.inv_poly(n)
        return (f.evaluate(1) == math.factorial(n)
                and f.evaluate(0) == paths.catalan(n)
                and f.evaluate(-1) == paths.involution_number(n))
    s.check("recurrence.q_specializations", 9,
            "q = 1, 0, -1 give n!, Catalan, involutions, n <= {}", specials)

    s.check("recurrence.eulerian_marginal", 8,
            "y marginal equals the descent distribution, n <= {}",
            lambda n: recurrence.tel_distribution(n)
            == identities.eulerian_row(n))

    s.check("recurrence.uel_vs_displacement", 8,
            "z marginal vs max-displacement permutations, n <= {}",
            lambda n: recurrence.uel_distribution(n)
            == list(reversed(identities.max_displacement_counts(n))))
    return s.results


def run_paths(nmax: int, trunc: int | None = None) -> list[CheckResult]:
    s = _Suite(nmax)

    s.check("paths.catalan_counts", 12,
            "weakly increasing count is Catalan, n <= {}",
            lambda n: countOf(map(len, paths.weakly_increasing_sequences(n)), n)
            == paths.catalan(n))

    def round_trips(n):
        # both walks are lexicographic, so the bijection pairs them in step;
        # a walk that runs short leaves a None, which fails the pair.  The
        # walks build their members valid, so the unvalidated cores map them
        return all(e is not None and paths._path_core(e) == w
                   and paths._sequence_core(w) == e
                   for e, w in zip_longest(paths.weakly_increasing_sequences(n),
                                           paths.lattice_paths(n)))
    s.check("paths.bijection_round_trip", 10,
            "bijection round trips, n <= {}", round_trips)

    def swaps_peaks(w):
        image = paths.reverse_swap(w)
        a, b = paths.dyck_stats(w), paths.dyck_stats(image)
        return (paths.reverse_swap(image) == w
                and (a.first_peak_height, a.last_peak_height)
                == (b.last_peak_height, b.first_peak_height))
    s.check("paths.reverse_swap", 7,
            "reverse_swap involution and height exchange, n <= {}",
            lambda n: all(map(swaps_peaks, paths.lattice_paths(n))))

    def triangles(n):
        row = paths.returns_triangle_row(n)
        brute = paths.dyck_distribution(n, attrgetter("returns"))
        zeros = Counter(map(countOf, paths.weakly_increasing_sequences(n),
                            repeat(0)))
        valleys = paths.dyck_distribution(n, attrgetter("valleys"))
        return (row == [brute.get(k, 0) for k in range(1, n + 1)]
                and row == [zeros.get(k, 0) for k in range(1, n + 1)]
                and paths.narayana_row(n) == [valleys.get(k, 0) for k in range(n)]
                and paths.dyck_distribution(
                    n, attrgetter("first_peak_height")) == brute)
    s.check("paths.triangles", 10,
            "returns / zeros / Narayana / first-peak triangles, n <= {}",
            triangles)

    def peak_poly(n):
        poly = paths.peak_height_poly(n)
        mirrored = MultiPoly({(k[2], k[1], k[0], k[3], k[4]): c
                              for k, c in poly.items()})
        brute = paths.dyck_distribution(
            n, attrgetter("first_peak_height", "last_peak_height"))
        return (poly == mirrored
                and poly == MultiPoly({(a, 0, b, 0, 0): c
                                       for (a, b), c in brute.items()})
                and poly == MultiPoly.variable("z") * recurrence.joint_poly(
                    n, {"y": 1, "p": 1, "q": 0}))
    s.check("paths.peak_height_poly", 9,
            "peak-height polynomial symmetry and q = 0 tie, n <= {}", peak_poly)
    return s.results


def run_tau(nmax: int, trunc: int | None = None) -> list[CheckResult]:
    s = _Suite(nmax)

    # one pass over inversion_sequences(n) per n, shared by the involution
    # and fixed-point checks: (every image passes, number of fixed points).
    # The walk's members are in I_n by construction, so they go to the
    # unvalidated core; every image goes back through the public map,
    # which refuses one outside I_n: that image fails the involution check.
    # A member's inversions come from its prefix (the low bits of its
    # `walk_keys` key), an image's from its pairs (`inversions`): the
    # unit-change test compares two different counters.
    @cache
    def scan(n: int) -> tuple[bool, int]:
        involutive, fixed = True, 0
        for e, key in zip(invseq.inversion_sequences(n), invseq.walk_keys(n)):
            image = paths._involution_core(e)
            if image == e:
                fixed += 1
                continue
            try:
                back = paths.sign_reversing_involution(image)
            except ValueError:
                back = None
            if back != e or abs(invseq.inversions(image) - (key & 127)) != 1:
                involutive = False
        return involutive, fixed

    s.check("tau.involution", 8,
            "involution with unit inversion change, n <= {}",
            lambda n: scan(n)[0])
    s.check("tau.fixed_point_count", 8,
            "fixed points counted by involution numbers, n <= {}",
            lambda n: scan(n)[1] == paths.involution_number(n))
    s.check("tau.q_minus_one", 9, "q = -1 evaluation matches, n <= {}",
            lambda n: recurrence.inv_poly(n).evaluate(-1)
            == paths.involution_number(n))
    return s.results


def run_freq(nmax: int, trunc: int | None = None) -> list[CheckResult]:
    s = _Suite(nmax)

    def classes_sum(n):
        groups = invseq.brute_class_polys(n)
        prods = {v: invseq.fixed_freq_poly(v)
                 for v in invseq.frequency_vectors(n)}
        return (all(prod == groups.get(v, QLaurent.zero())
                    for v, prod in prods.items())
                and QLaurent.sum(prods.values()) == recurrence.inv_poly(n))
    s.check("freq.product_vs_enumeration", 8,
            "product vs enumeration for every valid vector, n <= {}",
            classes_sum)
    return s.results


def _stirling2(n: int, k: int) -> int:
    """Stirling set numbers by the explicit sum
    sum_j (-1)^j C(k, j) (k - j)^n / k!, the q = 1 oracle: it shares
    nothing with the recurrence it checks."""
    return sum((-1) ** j * math.comb(k, j) * (k - j) ** n
               for j in range(k + 1)) // math.factorial(k)


def run_stirling(nmax: int, trunc: int | None = None) -> list[CheckResult]:
    s = _Suite(nmax)
    s.check("stirling.sequence_model", 9,
            "recurrence vs augmented-inversion enumeration, n <= {}",
            lambda n: all(qstirling.stirling2_q(n, k)
                          == qstirling.stirling2_q_by_enumeration(n, k)
                          for k in range(1, n + 1)))
    s.check("stirling.family_conversions", 10,
            "Milne and Leroux-Medicis prefactor relations, n <= {}",
            lambda n: all(qstirling.stirling2_q_milne(n, k)
                          == qstirling.milne_from_standard(n, k)
                          and qstirling.stirling2_q_star(n, k)
                          == qstirling.star_from_standard(n, k)
                          for k in range(1, n + 1)))
    s.check("stirling.classical_collapse", 10,
            "q = 1 collapse to Stirling set numbers, n <= {}",
            lambda n: all(qstirling.stirling2(n, k) == _stirling2(n, k)
                          for k in range(n + 1)),
            first=0)
    return s.results


def run_operator(nmax: int, trunc: int | None = None) -> list[CheckResult]:
    s = _Suite(nmax)
    # one (g D_q)^n expansion per n, read by the three rows below; local,
    # so it is freed when the suite returns.  Each row compares it with
    # routes that do not read it.
    expansion = cache(qoperator.operator_expansion)
    s.check("operator.expansion_routes", 7,
            "operator route vs sequence route, n <= {}",
            lambda n: expansion(n) == qoperator.expansion_from_sequences(n))

    def three_way(n):
        full = expansion(n)
        return all(qoperator.comtet_coeff_from_expansion(full, k)
                   == qoperator.comtet_coeff_explicit(n, k)
                   == qoperator.comtet_coeff_recurrence(n, k)
                   for k in range(1, n + 1))
    s.check("operator.coefficient_three_way", 7,
            "extraction, explicit sum, recurrence agree, n <= {}", three_way)

    def well_shaped(n, word, coeff):
        *gs, f = word
        return (all(c >= 0 for _, c in coeff.items()) and coeff.is_polynomial()
                and f.kind == "f" and all(g.kind == "g" for g in gs)
                and sum(g.deriv for g in gs) + f.deriv == n
                and f.shift == n - f.deriv)
    s.check("operator.word_shape", 7,
            "word shape and derivative budget, n <= {}",
            lambda n: all(well_shaped(n, word, coeff) for word, coeff
                          in expansion(n).items()))

    x = MultiPoly.variable("x")
    s.check("operator.geometric_specialization", 8,
            "geometric specialization gives x^k stirling2_q, n <= {}",
            lambda n: all(qoperator.substitute_g(
                qoperator.comtet_coeff_explicit(n, k))
                == (x ** k) * qstirling.stirling2_q(n, k).to_multipoly()
                for k in range(1, n + 1)))
    return s.results


def run_identities(nmax: int, trunc: int | None = None) -> list[CheckResult]:
    s = _Suite(nmax)

    def margin(n: int) -> int:
        # series checks truncate at n + 8 by default; --trunc overrides
        return max(trunc, n + 2) if trunc is not None else n + 8

    s.check("identities.stirling_euler", 8,
            "Stirling to Euler-Mahonian expansion, n <= {}",
            identities.check_stirling_euler)
    s.check("identities.garsia", 7, "Milne-flavored expansion, n <= {}",
            identities.check_garsia)
    s.check("identities.q_power", 8, "q-power expansion, n <= {}, k <= 6",
            lambda n: identities.check_qpower(n, 6))
    s.check("identities.carlitz", 6, "Carlitz series identity, n <= {}",
            lambda n: identities.check_carlitz(n, margin(n)))
    s.check("identities.eu_ma_operator", 6,
            "(x D_q)^n on the geometric series, n <= {}",
            lambda n: identities.check_eu_ma_operator(n, margin(n)))
    return s.results


SUITES: dict[str, Callable[[int, int | None], list[CheckResult]]] = {
    "recurrence": run_recurrence,
    "paths": run_paths,
    "tau": run_tau,
    "freq": run_freq,
    "stirling": run_stirling,
    "operator": run_operator,
    "identities": run_identities,
}


def run_suite(name: str, nmax: int, trunc: int | None = None) -> list[CheckResult]:
    if name == "all":
        return [r for suite in SUITES.values() for r in suite(nmax, trunc)]
    if name not in SUITES:
        raise KeyError(f"unknown suite {name!r}")
    return SUITES[name](nmax, trunc)
