import pytest

from hilb3 import poly3


@pytest.fixture
def quotient_builds(monkeypatch):
    """A list that grows by one for every QuotientData built from a Groebner
    basis (each such build finds the standard monomials once; a cached one
    does not).  span_ideal's quotients are read off their parent's and do
    not count."""
    builds = []
    original = poly3.standard_monomials
    monkeypatch.setattr(poly3, "standard_monomials",
                        lambda gb: builds.append(gb) or original(gb))
    return builds


@pytest.fixture
def buchberger_runs(monkeypatch):
    """A list that grows by one, the generator list, for every Buchberger run."""
    runs = []
    original = poly3.buchberger
    monkeypatch.setattr(poly3, "buchberger",
                        lambda gens, track=False: runs.append(gens) or original(gens, track))
    return runs
