"""Differential checks of factor.factorize and factor.is_prime against sympy."""

import math
import random

import pytest

from taulab import factor

sympy = pytest.importorskip("sympy")

SEED = 20240531

CARMICHAEL = (
    561, 1105, 1729, 2465, 2821, 6601, 8911, 41041, 825265, 321197185,
    5394826801, 232250619601, 9746347772161,
)
# psi_k: the smallest strong pseudoprime to all of the first k prime bases,
# for k = 1, 2, 3, 4, 5, 6, 7 (= psi_8), 9 (= psi_10 = psi_11), 12, 13
STRONG_PSEUDOPRIMES = (
    2047, 1373653, 25326001, 3215031751, 2152302898747, 3474749660383,
    341550071728321, 3825123056546413051, 318665857834031151167461,
    3317044064679887385961981,
)


def check_factorization(n: int, trial_bound: int, rho_budget: int) -> factor.Factorization:
    """factorize(n) agrees with sympy, completely or as far as it got."""
    f = factor.factorize(n, trial_bound, rho_budget)
    assert f.value() == n
    if f.is_complete:
        assert f.factors == sympy.factorint(abs(n)), n
        return f
    for p, e in f.factors.items():
        assert sympy.isprime(p)
        assert n % p**e == 0 and n % p ** (e + 1)
    assert not sympy.isprime(f.cofactor)
    assert math.gcd(f.cofactor, math.prod(factor.primes_up_to(f.cofactor_floor))) == 1
    return f


def test_random_integers_up_to_2_100():
    rnd = random.Random(SEED)
    complete = 0
    for _ in range(60):
        n = rnd.randrange(2, 2**100)
        assert factor.is_prime(n) == sympy.isprime(n), n
        complete += check_factorization(n, 10**4, 10**5).is_complete
    # most 100-bit integers have no two prime factors above 2^34
    assert complete >= 45


def test_semiprimes_of_40_bit_primes():
    rnd = random.Random(SEED + 1)
    for _ in range(3):
        p, q = (sympy.nextprime(rnd.getrandbits(40) | 1 << 39) for _ in range(2))
        assert factor.is_prime(p) and factor.is_prime(q)
        assert not factor.is_prime(p * q)
        assert check_factorization(p * q, 10**4, 10**8).is_complete


@pytest.mark.parametrize("n", CARMICHAEL + STRONG_PSEUDOPRIMES)
def test_pseudoprimes(n):
    assert factor.is_prime(n) is sympy.isprime(n) is False
    assert check_factorization(n, 10**4, 10**7).is_complete


# is_prime changes its number of Miller-Rabin bases at each psi_k it uses
@pytest.mark.parametrize(
    "center",
    [*STRONG_PSEUDOPRIMES[:-2], STRONG_PSEUDOPRIMES[-2], factor._MR_DETERMINISTIC_LIMIT],
    ids=["psi1", "psi2", "psi3", "psi4", "psi5", "psi6", "psi7", "psi9", "psi12", "limit"],
)
def test_both_sides_of_deterministic_limits(center, monkeypatch):
    # an empty sieve sends every n through Miller-Rabin, even near psi_1
    monkeypatch.setattr(factor, "_sieve_primes", [])
    monkeypatch.setattr(factor, "_sieve_limit", 0)
    window = range(max(2, center - 3000), center + 3000)
    primes = [n for n in window if sympy.isprime(n)]
    assert [n for n in window if factor.is_prime(n)] == primes
    assert min(primes) < center < max(primes)
    rnd = random.Random(SEED + center % 997)
    for n in rnd.sample(window, 20):
        check_factorization(n, 10**4, 10**5)
    # products of primes from both sides straddle the limit
    assert not factor.is_prime(primes[0] * primes[-1])


def smooth_oracle(n: int, cut: int) -> int | None:
    factors = sympy.factorint(n)
    return None if any(p > cut for p in factors) else max(factors, default=1)


def smooth_largest_prime(n: int, cut: int) -> int | None:
    """P(n) from the trial stage at cut when every prime of n is at most cut, else None."""
    f = factor.trial_factor(n, cut)
    if f.is_complete and all(p <= cut for p in f.factors):
        return f.largest_known_prime()
    return None


def test_smooth_largest_prime_edges():
    primes = factor.primes_up_to(10**4)
    # the last prime of a 64-prime block and the first of the next, each +-1
    edges = [primes[64 * k + d] + s for k in (1, 2, 5) for d in (-1, 0) for s in (-1, 0, 1)]
    for cut in [0, 1, 2, 3, 4, *edges]:
        near = [p for p in primes if abs(p - cut) <= 40 or p <= 7]
        below = [p for p in primes if p <= cut]
        cases = [1, *near, *(p * p for p in near), *(p * q for p in near for q in near[:4])]
        if below:
            cases += [math.prod(below[-3:]), below[-1] ** 3 * 2, math.prod(below[:5]) * below[-1]]
        for n in cases:
            assert smooth_largest_prime(n, cut) == smooth_oracle(n, cut), (n, cut)
    # the walk stops at 313, the first prime of block 1, since 313^2 > 997:
    # what is left is the prime 997 itself, still below the cut
    assert smooth_largest_prime(2 * 997, 1000) == 997
    assert smooth_largest_prime(2 * 1009, 1000) is None
    with pytest.raises(ValueError):
        factor.trial_factor(10, -1)


def test_smooth_largest_prime_random():
    rnd = random.Random(SEED + 2)
    primes = factor.primes_up_to(5000)
    for _ in range(2000):
        cut = rnd.choice([rnd.randrange(0, 20), rnd.randrange(0, 5000)])
        n = math.prod(rnd.choices(primes[:rnd.randrange(1, 200)], k=rnd.randrange(0, 6)))
        n *= rnd.choice([1, 1, rnd.randrange(1, 10**6), rnd.randrange(1, 2**48)])
        assert smooth_largest_prime(n, cut) == smooth_oracle(n, cut), (n, cut)
