"""Module invariants at their full stated scales.

These are heavier than the unit tests but lighter than a research run;
the shared series cache keeps the whole file at a few seconds once the
acceptance suite has warmed it.
"""

from math import gcd

from taulab import factor, identities
from taulab.cyclotomic import eval_poly_mod, psi_poly
from taulab.density import DensityQuery, chebotarev_sample, enumerate_density
from taulab.hecke import coeff_prime_power, delta_series_view


def test_series_recursion_consistency_to_million(delta_warm_million, holds):
    holds(identities.series_recursion, limit=10**6)


def test_multiplicativity_to_hundred_thousand(delta_warm_million):
    series = delta_series_view(10**5)
    limit = 10**5
    for a in range(2, 317):
        ta = series[a]
        for b in range(a + 1, limit // a + 1):
            if gcd(a, b) == 1:
                assert series[a * b] == ta * series[b], (a, b)


def test_deligne_sweep(delta_warm_million, deligne_check):
    for p in factor.primes_up_to(10**4):
        for m in range(0, 11):
            assert deligne_check(delta_warm_million, p, m), (p, m)


def test_insolubility_mod_121(psi_soluble_mod_q_squared):
    assert enumerate_density(DensityQuery(11, 11, 2)).match_count == 0
    assert not psi_soluble_mod_q_squared(11)


def test_partials_nonvanishing_all_unit_pairs_mod_q_squared():
    # mirror of the vanishing argument: psi_q has no root mod q^2 on
    # unit-compatible pairs, checked here through direct evaluation for q = 5, 7
    for q in (5, 7):
        psi = psi_poly(q)
        m = q * q
        for u in range(m):
            for v in range(m):
                if u % q == 0 and v % q == 0:
                    continue
                assert eval_poly_mod(psi, u, v, m) != 0, (q, u, v)


def test_chebotarev_band_nonexceptional(delta_warm_million):
    sample = chebotarev_sample(delta_warm_million, 3, 11, 10**6)
    assert sample.within_band(3.0), (sample.frequency, sample.target, sample.sigma)


def test_lucas_matches_recursion_thousand_pairs(delta_warm_small):
    import random

    from taulab.hecke import _coeff_powers

    rnd = random.Random(0)
    primes = factor.primes_up_to(5000)
    for _ in range(1000):
        p = rnd.choice(primes)
        m = rnd.randrange(0, 51)
        prefix = _coeff_powers(delta_warm_small.ap(p), p, 12, m + 1)
        assert coeff_prime_power(delta_warm_small, p, m) == prefix[m], (p, m)


def test_bound_value_oracle_hundred_points():
    import math
    import random

    from taulab.scans import bound_value

    rnd = random.Random(1)
    for _ in range(100):
        p = rnd.randrange(17, 10**7)
        val = float(bound_value(p, epsilon=0.1))
        oracle = math.log(p) ** 0.125 * math.log(math.log(p)) ** 0.275
        assert abs(val - oracle) / oracle < 1e-10, p
        grh = float(bound_value(p, grh_c=2.5))
        grh_oracle = 2.5 * p ** (1 / 14) * math.log(p) ** (2 / 7)
        assert abs(grh - grh_oracle) / grh_oracle < 1e-10, p


def test_record_eisenstein_congruence_modulus(delta_warm_million):
    # Observational, not asserted: at the largest exceptional modulus the
    # empirical frequency lands near twice the generic density (the order-3
    # condition is hit by 2 of 690 residue classes instead of 1 of 690).
    sample = chebotarev_sample(delta_warm_million, 3, 691, 10**6)
    print(
        f"mod-691 frequency at 10^6: {sample.frequency:.6f} "
        f"(generic target {sample.target}, exceptional={sample.exceptional})"
    )
    assert sample.total_primes > 0


def test_record_coefficient_lower_bound_shape(delta_warm_small):
    # Observational: how far |a(p^m)| sits below p^((k-1) m / 2), measured as
    # (m - observed exponent) / log m; the law says this stays bounded.
    import math

    worst = 0.0
    for p in (2, 3, 5, 7, 11, 13):
        for m in range(2, 31):
            value = abs(coeff_prime_power(delta_warm_small, p, m))
            if value == 0:
                continue
            observed = math.log(value) / (5.5 * math.log(p))
            gap = (m - observed) / math.log(m)
            worst = max(worst, gap)
    print(f"largest observed exponent gap / log m: {worst:.3f}")
    assert worst < 10
