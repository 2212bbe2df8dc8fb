"""The verification suites themselves must go green at small bounds."""

import pytest

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
