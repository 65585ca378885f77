import pytest

from hilb3 import poly3


@pytest.fixture
def quotient_builds(monkeypatch):
    """A list that grows by one for every QuotientData actually built (each
    build finds the standard monomials once; a cached one does not)."""
    builds = []
    original = poly3.standard_monomials
    monkeypatch.setattr(poly3, "standard_monomials",
                        lambda gb: builds.append(gb) or original(gb))
    return builds
