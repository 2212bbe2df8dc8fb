"""The verification suites themselves must go green at small bounds."""

import math

import pytest

from invq import paths, qoperator, verify
from invq.cli import main
from invq.verify import SUITES, run_suite


def test_suite_names():
    assert set(SUITES) == {"recurrence", "paths", "tau", "freq",
                           "stirling", "operator", "identities"}


@pytest.mark.parametrize("suite", sorted(SUITES))
def test_each_suite_passes(suite):
    results = run_suite(suite, nmax=5)
    assert results
    for r in results:
        assert r.passed, f"{suite}:{r.name}: {r.detail}"
        assert r.name.startswith(f"{suite}.")
        assert r.seconds >= 0
        assert r.name and r.detail


def test_all_runs_every_suite():
    combined = run_suite("all", nmax=4)
    names = [r.name for r in combined]
    assert len(names) == len(set(names))
    per_suite = sum(len(run_suite(s, nmax=4)) for s in SUITES)
    assert len(combined) == per_suite


def test_unknown_suite():
    with pytest.raises(KeyError):
        run_suite("nonsense", nmax=4)


def test_identities_trunc_threads_through():
    results = run_suite("identities", nmax=4, trunc=7)
    assert all(r.passed for r in results)


def test_stirling2_oracle_values():
    # a row of Stirling set numbers, the Bell numbers as row sums, and
    # m^n = sum_k C(m, k) k! S(n, k), maps counted by their image
    assert [verify._stirling2(5, k) for k in range(7)] == [0, 1, 15, 25, 10, 1, 0]
    bell = [1, 1, 2, 5, 15, 52, 203, 877, 4140, 21147, 115975]
    for n, b in enumerate(bell):
        assert sum(verify._stirling2(n, k) for k in range(n + 3)) == b
        for m in range(6):
            assert sum(math.comb(m, k) * math.factorial(k) * verify._stirling2(n, k)
                       for k in range(m + 1)) == m ** n


def test_round_trip_fails_on_a_short_walk(monkeypatch):
    # the paired walk must notice a path missing at the end; the shared
    # Dyck tally is cleared after, so no short walk stays cached
    walk = paths.lattice_paths
    monkeypatch.setattr(paths, "lattice_paths",
                        lambda n: list(walk(n))[:-1])
    try:
        result = next(r for r in run_suite("paths", nmax=5)
                      if r.name == "paths.bijection_round_trip")
    finally:
        paths._dyck_tally.cache_clear()
    assert not result.passed
    assert result.detail.startswith("fails at n = 1;")


def test_raising_check_fails_and_the_run_goes_on(monkeypatch):
    def broken(n, k):
        raise ArithmeticError("oracle broke")
    monkeypatch.setattr(verify, "_stirling2", broken)
    results = run_suite("all", nmax=4)
    failed = [r for r in results if not r.passed]
    assert [r.name for r in failed] == ["stirling.classical_collapse"]
    assert failed[0].detail.startswith(
        "fails at n = 0 (ArithmeticError: oracle broke); ")
    names = [r.name for r in results]
    assert names.index("stirling.classical_collapse") < len(names) - 1


@pytest.mark.parametrize("route, rows", [
    ("expansion_from_sequences", ["operator.expansion_routes"]),
    ("comtet_coeff_recurrence", ["operator.coefficient_three_way"]),
    ("operator_expansion", ["operator.expansion_routes",
                            "operator.coefficient_three_way",
                            "operator.word_shape"]),
], ids=["sequence_route", "recurrence", "shared_expansion"])
def test_operator_rows_fail_on_their_own(monkeypatch, route, rows):
    # the rows read one expansion per n between them; a route negated
    # still fails the rows that read it, and no other (word_shape by its
    # nonnegative coefficients)
    right = getattr(qoperator, route)
    monkeypatch.setattr(qoperator, route, lambda *args: right(*args).scale(-1))
    failed = [r for r in run_suite("operator", nmax=5) if not r.passed]
    assert [r.name for r in failed] == rows
    assert all(r.detail.startswith("fails at n = 1;") for r in failed)


# ------------------------------------------- the validation the walks keep

def _verify(capsys, *argv):
    """Exit status and the failing rows' names of `invq verify ...`, and
    their details; a traceback raises."""
    code = main(["verify", *argv])
    out = capsys.readouterr().out
    failed = [line.split()[1] for line in out.splitlines()
              if line.startswith("FAIL")]
    return code, failed, out


@pytest.mark.parametrize("wrong", [
    # outside I_n: the last entry one past its bound
    lambda image: image[:-1] + (len(image),),
    # outside I_n only by type: True for 1 compares, counts and maps back
    # like 1, so only the public map's validation refuses it
    lambda image: tuple(True if v == 1 else v for v in image),
    # in I_n but not sent back: the all-zero sequence is a fixed point
    lambda image: (0,) * len(image),
], ids=["past_bound", "bool_entry", "not_involutive"])
def test_tau_images_still_validated(monkeypatch, capsys, wrong):
    # the walk hands its own members to the unvalidated core; every image
    # still goes through the public map.  Fixed points stay as they are,
    # so only the involution row fails.
    core = paths._involution_core

    def broken(e):
        image = core(e)
        return image if image == e else wrong(image)
    monkeypatch.setattr(paths, "_involution_core", broken)
    code, failed, _ = _verify(capsys, "tau", "8")
    assert (code, failed) == (1, ["tau.involution"])
