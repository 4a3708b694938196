import pytest

from taulab.cyclotomic import eval_poly_mod, psi_poly
from taulab.hecke import EigenformSpec, coeff_prime_power, warm_delta_cache


def _holds(check, **ranges):
    failures = list(check(**ranges))
    assert not failures, failures[:5]


@pytest.fixture(scope="session")
def holds():
    """Run one check of ``taulab.identities`` at the given ranges and assert it yields no FAIL line."""
    return _holds


def _deligne_check(f: EigenformSpec, p: int, m: int) -> bool:
    value = coeff_prime_power(f, p, m)
    return value * value <= (m + 1) ** 2 * p ** (m * (f.weight - 1))


@pytest.fixture(scope="session")
def deligne_check():
    """Exact check |a_f(p^m)| <= (m+1) p^(m(k-1)/2), compared by squaring."""
    return _deligne_check


def _psi_soluble_mod_q_squared(q: int) -> bool:
    psi, m = psi_poly(q), q * q
    return any(
        eval_poly_mod(psi, u, v, m) == 0
        for u in range(m)
        for v in range(m)
        if u % q or v % q
    )


@pytest.fixture(scope="session")
def psi_soluble_mod_q_squared():
    """Whether psi_q(u, v) = 0 mod q^2 for some (u, v) not both divisible by q, by trying every pair."""
    return _psi_soluble_mod_q_squared


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
