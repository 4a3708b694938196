import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from taulab import factor


class TestPrimesAndPrimality:
    def test_sieve_small(self):
        assert factor.primes_up_to(20) == [2, 3, 5, 7, 11, 13, 17, 19]
        assert factor.primes_up_to(1) == []

    def test_is_prime_matches_trial_division(self):
        def slow(n):
            if n < 2:
                return False
            d = 2
            while d * d <= n:
                if n % d == 0:
                    return False
                d += 1
            return True

        for n in range(0, 3000):
            assert factor.is_prime(n) == slow(n), n

    def test_is_prime_large(self):
        assert factor.is_prime(2**89 - 1)
        assert not factor.is_prime((2**89 - 1) * (2**61 - 1))
        # strong pseudoprime to base 2 alone
        assert not factor.is_prime(2047)

    def test_sieve_path_matches_miller_rabin(self, monkeypatch):
        window = range(-3, 20000)
        expected = factor.primes_up_to(window[-1])
        assert factor._sieve_limit >= window[-1]
        assert [n for n in window if factor.is_prime(n)] == expected
        # an empty sieve sends the same n through Miller-Rabin
        monkeypatch.setattr(factor, "_sieve_primes", [])
        monkeypatch.setattr(factor, "_sieve_limit", 0)
        assert [n for n in window if factor.is_prime(n)] == expected

    def test_block_products_follow_sieve_growth(self, monkeypatch):
        monkeypatch.setattr(factor, "_sieve_primes", [])
        monkeypatch.setattr(factor, "_sieve_limit", 0)
        monkeypatch.setattr(factor, "_block_products", [])
        size = factor._BLOCK
        for limit in (1024, 2048, 10**5):
            factor.primes_up_to(limit)
            products = factor._block_products
            assert len(products) == len(factor._sieve_primes) // size
            for b, product in enumerate(products):
                assert product == math.prod(factor._sieve_primes[size * b : size * (b + 1)])


def _trial_oracle(n, trial_bound):
    """factorize(n, trial_bound, 0) with one n % p per prime."""
    n = abs(n)
    factors = {}
    if n <= 1:
        return [], 1, 1
    for p in factor.primes_up_to(min(trial_bound, math.isqrt(n) + 1)):
        if p * p > n:
            break
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            factors[p] = e
    if 1 < n <= trial_bound * trial_bound:
        factors[n] = factors.get(n, 0) + 1
        n = 1
    # a zero rho budget still tests primality and perfect powers
    cofactor = 1
    pending = [n] if n > 1 else []
    while pending:
        m = pending.pop()
        if factor.is_prime(m):
            factors[m] = factors.get(m, 0) + 1
        elif (root := factor._perfect_root(m)) is not None:
            pending.extend([root[0]] * root[1])
        else:
            cofactor *= m
    return list(factors.items()), cofactor, trial_bound if cofactor > 1 else 1


def _assert_trial_matches(n, trial_bound):
    f = factor.factorize(n, trial_bound, 0)
    got = (list(f.factors.items()), f.cofactor, f.cofactor_floor)
    assert got == _trial_oracle(n, trial_bound), (n, trial_bound)


class TestBlockTrialDivision:
    """The block-gcd trial stage against one n % p per sieve prime."""

    @given(st.integers(-(2**200), 2**200),
           st.one_of(st.integers(1, 3), st.integers(1, 10**3), st.integers(1, 10**5)))
    @settings(max_examples=300, deadline=None)
    def test_random(self, n, trial_bound):
        _assert_trial_matches(n, trial_bound)

    def test_block_edges(self):
        size = factor._BLOCK
        primes = factor.primes_up_to(10**5)
        firsts = [primes[size * b] for b in range(4)]
        lasts = [primes[size * b + size - 1] for b in range(4)]
        big = 2**89 - 1
        values = [p * q for p in firsts + lasts for q in firsts + lasts]
        values += [p * p for p in firsts] + [p * p * big for p in firsts]
        values += [p**3 * q**2 * big for p, q in zip(firsts, lasts)]
        values += [primes[size * b] ** 2 for b in range(4, 40)]
        bounds = [1, 2, 3, 10**5]
        for k in range(1, 5):
            # trial bounds whose prime count is 64k - 1, 64k and 64k + 1
            bounds += primes[size * k - 2 : size * k + 1]
            values += [math.prod(primes[size * k - 3 : size * k + 2]), primes[size * k] * big]
        for n in values:
            for trial_bound in bounds:
                _assert_trial_matches(n, trial_bound)


    def test_bounds_ending_mid_block(self, monkeypatch):
        # the bound cuts a cached block, and primes just above it divide n: the
        # block's full product sees them, and they must stay in the cofactor
        size = factor._BLOCK
        primes = factor.primes_up_to(10**5)
        big = 2**89 - 1
        cases = []
        for b in (0, 1, 5, 20):
            for j in (1, 17, 40, size - 2):
                i = size * b + j
                assert b < len(factor._block_products)
                lo, at, hi, top = primes[i - 1 : i + 3]  # two at or below the bound, two above
                for n in (lo * at * hi * top, lo * at * hi * top * big, hi**3 * lo,
                          top * big, -(at**2) * hi * top):
                    cases.append((n, at))
        # every block the walk needs is cached, so no product is rebuilt
        monkeypatch.setattr(math, "prod", lambda xs: pytest.fail("block product rebuilt"))
        for n, bound in cases:
            f = factor.trial_factor(n, bound)
            got = (f.sign, f.factors, f.cofactor, f.cofactor_floor)
            assert got == _trial_stage_oracle(n, bound), (n, bound)


def _trial_stage_oracle(n, bound):
    """trial_factor(n, bound) with one n % p per prime up to min(bound, isqrt(|n|) + 1)."""
    sign, n = (1 if n > 0 else -1), abs(n)
    factors = {}
    for p in factor.primes_up_to(min(bound, math.isqrt(n) + 1)):
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            factors[p] = e
    if 1 < n <= bound * bound:
        factors[n] = factors.get(n, 0) + 1
        n = 1
    return sign, factors, n, bound if n > 1 else 1


class TestFactorize:
    def test_conventions(self):
        for n in (0, 1, -1):
            assert factor.factorize(n).largest_known_prime() == 1

    def test_examples(self):
        f = factor.factorize(-1472)
        assert f.sign == -1 and f.factors == {2: 6, 23: 1}
        assert f.largest_known_prime() == 23
        assert factor.factorize(252).factors == {2: 2, 3: 2, 7: 1}
        assert factor.factorize(252).largest_known_prime() == 7

    def test_perfect_powers(self):
        p = 1000003
        assert factor.factorize(p * p, trial_bound=10**3).factors == {p: 2}
        assert factor.factorize(p**3, trial_bound=10**3).factors == {p: 3}

    @given(st.integers(-(10**30), 10**30))
    @settings(max_examples=60, deadline=None)
    def test_round_trip(self, n):
        f = factor.factorize(n, trial_bound=10**4, rho_budget=10**6)
        assert f.value() == n
        for p in f.factors:
            assert factor.is_prime(p)
        if not f.is_complete:
            assert not factor.is_prime(f.cofactor)
            assert f.cofactor > f.cofactor_floor**2

    def test_determinism(self):
        n = 87178291199 * 87178291199 * 1299709
        a = factor.factorize(n)
        b = factor.factorize(n)
        assert a.factors == b.factors

    def test_partial_allowed(self):
        hard = (2**89 - 1) * (2**107 - 1)  # two large primes, rho will give up
        f = factor.factorize(hard, trial_bound=10**3, rho_budget=10**3)
        assert not f.is_complete
        assert (f.cofactor, f.cofactor_floor, f.value()) == (hard, 10**3, hard)
        assert f.largest_known_prime() == 1

    def test_trial_stage_tests_no_primality(self, monkeypatch):
        big = 2**89 - 1

        def forbidden(n):
            raise AssertionError("the trial stage ran a primality test")

        monkeypatch.setattr(factor, "is_prime", forbidden)
        f = factor.trial_factor(-12 * big, 100)
        assert (f.sign, f.factors, f.cofactor, f.cofactor_floor) == (-1, {2: 2, 3: 1}, big, 100)
        # 9973 <= 100^2 has no prime factor up to 100, so it is prime
        assert factor.trial_factor(12 * 9973, 100).factors == {2: 2, 3: 1, 9973: 1}
        # a bound of 0 tries no prime and leaves everything above 1 to the cofactor
        f = factor.trial_factor(12, 0)
        assert (f.factors, f.cofactor, f.cofactor_floor) == ({}, 12, 0)
        assert factor.trial_factor(1, 0).is_complete and factor.trial_factor(0, 0).sign == 0
        with pytest.raises(ValueError):
            factor.trial_factor(9, -1)
        monkeypatch.undo()
        f = factor.split_cofactor(factor.trial_factor(12 * big, 100), 0)
        assert (f.factors, f.cofactor, f.cofactor_floor) == ({2: 2, 3: 1, big: 1}, 1, 1)

    def test_semiprime_within_budget(self):
        a, b = 999999937, 999999893
        f = factor.factorize(a * b, trial_bound=10**4, rho_budget=10**6)
        assert f.factors == {a: 1, b: 1}

    def test_rejects_bad_budgets(self):
        # a negative trial bound once squared into a large one and passed 9 as prime
        with pytest.raises(ValueError):
            factor.factorize(9, trial_bound=-5)
        with pytest.raises(ValueError):
            factor.factorize(9, trial_bound=0)
        with pytest.raises(ValueError):
            factor.factorize(9, rho_budget=-1)

    def test_zero_rho_budget(self):
        big = (2**61 - 1) * (2**89 - 1)
        f = factor.factorize(12 * big, trial_bound=100, rho_budget=0)
        assert f.factors == {2: 2, 3: 1}
        assert f.cofactor == big and f.cofactor_floor == 100
        # the cofactor's primality test still runs without rho
        f = factor.factorize(12 * (2**89 - 1), trial_bound=100, rho_budget=0)
        assert f.factors == {2: 2, 3: 1, 2**89 - 1: 1}

    def test_rho_run_spends_at_most_twice_its_budget(self):
        # the budget is checked between Brent's doubling rounds, so a run
        # may overshoot it, but never past 2 * budget + 2 iterations
        hard = (2**61 - 1) * (2**89 - 1)
        for budget in (1, 2, 3, 5, 64, 127, 128, 129, 1000, 3000, 300000):
            for attempt in (0, 1):
                found, spent = factor._brent_rho(hard, attempt, budget)
                assert found is None
                assert 0 < spent <= 2 * budget + 2, (budget, attempt, spent)
