import pytest

from taulab.hecke import EigenformSpec, warm_delta_cache


def _holds(check, **ranges):
    failures = list(check(**ranges))
    assert not failures, failures[:5]


@pytest.fixture(scope="session")
def holds():
    """Run one check of ``taulab.identities`` at the given ranges and assert it yields no FAIL line."""
    return _holds


@pytest.fixture(scope="session")
def delta() -> EigenformSpec:
    return EigenformSpec.delta()


@pytest.fixture(scope="session")
def delta_warm_small(delta) -> EigenformSpec:
    """Built-in form with the series cache warmed to 10^4."""
    warm_delta_cache(10**4)
    return delta


@pytest.fixture(scope="session")
def delta_warm_million(delta) -> EigenformSpec:
    """Built-in form with the series cache warmed to 10^6."""
    warm_delta_cache(10**6)
    return delta
