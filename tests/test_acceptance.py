"""Acceptance suite: one test per exit criterion, at its stated tolerance.

Each criterion prints one PASS line (visible under ``pytest -s`` or
``-rA``) including its elapsed time; a failure surfaces as a normal
test failure.  Criteria 8a and 8b compare the built-in form's mod-5 and
mod-7 coefficient statistics against the generic density targets; those
moduli are exceptional for this form (classical congruences pin the
residues away from zero), so the observed frequency is exactly 0 and
the two tests fail by design of the underlying arithmetic.  See the
test docstrings.
"""

import time
from fractions import Fraction
from math import gcd

import pytest

from taulab import factor, identities
from taulab.cyclotomic import classify_psi_prime_power, eval_poly, psi_poly
from taulab.density import DensityQuery, chebotarev_sample, enumerate_density
from taulab.hecke import EigenformSpec, delta_series_view, find_first_prime_tau
from taulab.scans import ScanSummary, sato_tate_histogram, scan_rows

X_LARGE = 10**6


def _report(name: str, started: float, limit_s: float, detail: str = ""):
    elapsed = time.time() - started
    print(f"ACCEPTANCE {name}: PASS in {elapsed:.1f}s{' | ' + detail if detail else ''}")
    assert elapsed < limit_s, f"{name} exceeded its {limit_s}s ceiling ({elapsed:.1f}s)"


def test_criterion_01_symbolic_identities(holds):
    started = time.time()
    holds(identities.square_product, n_max=200)
    holds(identities.partial_scaling, q_max=101)
    for q in [p for p in factor.primes_up_to(101) if p % 2]:
        assert psi_poly(q).degree == (q - 1) // 2, q
    _report("01 symbolic identities (n <= 200, partials q <= 101)", started, 60)


def test_criterion_02_discriminant_law(holds):
    started = time.time()
    holds(identities.discriminant_law, qs=(3, 5, 7, 11, 13, 17, 19))
    _report("02 discriminant law (q <= 19)", started, 10)


def test_criterion_03_symmetric_power_laws(holds):
    started = time.time()
    for modulus in (3, 5):
        assert len(identities.invertible_matrices(modulus)) == (modulus**2 - 1) * (modulus**2 - modulus)
    holds(identities.trace_kernel_laws, n_max=8)
    holds(identities.functoriality, seed=0, pairs=1000)
    _report("03 symmetric-power laws (GL2(F3), GL2(F5), n in 2..8; 1000 pairs mod 11)", started, 60)


def test_criterion_04_density_closed_forms(holds):
    started = time.time()
    qs, ells = (3, 5, 7), (2, 3, 5, 7, 11, 13)
    holds(identities.density_closed_forms, qs=qs, ells=ells)
    expected_spot = {(3, 7): Fraction(1, 6), (3, 3): Fraction(3, 8), (5, 7): Fraction(0)}
    for q in qs:
        for ell in ells:
            report = enumerate_density(DensityQuery(q, ell, 1, 12))
            if (q, ell) in expected_spot:
                assert report.delta == expected_spot[(q, ell)], (q, ell)
            if report.class_tally is not None:
                assert sum(report.class_tally.values()) == report.match_count
    _report("04 density closed forms (q in {3,5,7}, ell <= 13, k = 12)", started, 300)


def test_criterion_05_lift_law(holds, psi_soluble_mod_q_squared):
    started = time.time()
    holds(identities.lift_ratio, cases=((3, 5), (3, 7), (5, 11)), budget=3 * 10**8)
    for q in (5, 7):
        # no zero mod q^2 among all pairs, and so no match at level 2
        assert not psi_soluble_mod_q_squared(q), q
        lifted = enumerate_density(DensityQuery(q, q, 2, 12))
        assert lifted.match_count == 0, q
    _report("05 lift law 1/ell and vanishing at q^2 for q in {5,7}", started, 600)


def test_criterion_06_tau_engine(holds):
    started = time.time()
    limit = 63001
    holds(identities.series_recursion, limit=limit)
    series = delta_series_view(limit)
    first = find_first_prime_tau(limit)
    assert first is not None and first[0] == 63001, first
    assert factor.is_prime(abs(first[1]))
    units = [n for n in range(1, limit + 1) if abs(series[n]) == 1]
    assert units == [1]
    _report("06 tau engine to 63001 (recursion, first prime value, unit values)", started, 300)


def test_criterion_07_divisibility_tower(holds):
    started = time.time()
    holds(identities.divisibility_tower, f=EigenformSpec.delta(), p_max=10**3, max_odd=45)
    checked = len(factor.primes_up_to(10**3)) * 22  # n = 1..22, 2n+1 <= 45
    _report("07 divisibility tower (p <= 1000, odd exponents <= 45)", started, 600,
            detail=f"{checked} (p, n) pairs")


@pytest.mark.parametrize(
    "q,d,label",
    [
        (3, 7, "8a"),
        (3, 5, "8b"),
        (5, 11, "8c"),
    ],
)
def test_criterion_08_chebotarev_frequencies(q, d, label, delta_warm_million):
    """Empirical hit frequency within 0.01 of the generic density at x = 10^6.

    For d in {5, 7} the built-in form's coefficients satisfy classical
    congruences mod d that keep a(p^2) away from 0 mod d for every
    prime p, so the empirical frequency is exactly 0 while the generic
    density target is 1/6: these two cases cannot pass and fail here
    deliberately (the report carries the exceptional-modulus flag).
    """
    started = time.time()
    sample = chebotarev_sample(delta_warm_million, q, d, X_LARGE)
    assert sample.target is not None
    deviation = abs(sample.frequency - float(sample.target))
    assert deviation <= 0.01, (
        f"(q={q}, d={d}): empirical {sample.frequency:.5f} vs target "
        f"{sample.target} (deviation {deviation:.5f}, exceptional={sample.exceptional})"
    )
    _report(f"{label} chebotarev frequency at (q={q}, d={d})", started, 900,
            detail=f"freq {sample.frequency:.5f} target {sample.target}")


def test_criterion_09_sato_tate(delta_warm_million):
    started = time.time()
    hist = sato_tate_histogram(delta_warm_million, X_LARGE, bins=20)
    assert abs(sum(hist.expected) - 1.0) < 1e-12
    assert hist.max_deviation <= 0.02, hist.max_deviation
    _report("09 semicircle histogram at x = 10^6", started, 600,
            detail=f"max deviation {hist.max_deviation:.4f}")


def test_criterion_10_threshold_scan(delta_warm_million):
    # the summary as `taulab scan --format json` computes it: verdicts only
    started = time.time()
    summary = ScanSummary.of(scan_rows(
        delta_warm_million,
        2,
        10**4,
        epsilon=0.1,
        trial_bound=10**4,
        rho_budget=3 * 10**5,
        pin=False,
    ))
    assert summary.unknown_count == 0, summary
    assert summary.zero_rows == 0
    assert summary.pass_fraction >= 0.99, summary.pass_fraction
    _report("10 threshold scan (2n = 2, eps = 0.1, x = 10^4)", started, 600,
            detail=summary.to_json())


def test_criterion_11_prime_power_classification_sweep():
    started = time.time()
    checked = 0
    for m in (5, 7, 11):
        psi = psi_poly(m)
        for u in range(-40, 41):
            for v in range(-40, 41):
                if gcd(u, v) != 1:
                    continue
                value = eval_poly(psi, u, v)
                if value == 0:
                    continue
                fac = factor.factorize(abs(value), trial_bound=10**4, rho_budget=10**6)
                assert fac.is_complete, value
                for p in fac.factors:
                    classify_psi_prime_power(m, u, v, p)  # raises on violation
                    checked += 1
    _report("11 prime-power classification sweep (|u|,|v| <= 40, m in {5,7,11})", started, 300,
            detail=f"{checked} prime-power classifications")
