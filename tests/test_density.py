import itertools
import json
import math
import random
import time
import tracemalloc
from fractions import Fraction
from math import gcd

import pytest

from taulab import density, factor
from taulab.density import (
    DEFAULT_ENUM_BUDGET,
    _factor_prime_power,
    DELTA_EXCEPTIONAL_PRIMES,
    DensityQuery,
    LiftReport,
    chebotarev_sample,
    closed_form_density,
    det_constrained_group_order,
    enumerate_density,
    lift_factor,
    unit_power_group_order,
)
from taulab.cyclotomic import eval_poly_mod, psi_poly
from taulab.errors import BudgetExceededError, DataExhaustedError
from taulab.hecke import coeff_prime_power, ingest_table


def per_prime_chebotarev(f, q, d, x):
    """(hits, total, zeros) from psi_q(a_p^2, p^(k-1)) mod d at every prime p <= x off the level."""
    psi = psi_poly(q)
    hits = total = zeros = 0
    for p in factor.primes_up_to(x):
        if d % p == 0 or f.level % p == 0:
            continue
        total += 1
        a = f.ap(p)
        if eval_poly_mod(psi, a * a, pow(p, f.weight - 1, d), d) != 0:
            continue
        if coeff_prime_power(f, p, q - 1) == 0:
            zeros += 1
        else:
            hits += 1
    return hits, total, zeros


def unit_power_subgroup(modulus, exponent):
    """The subgroup {x^exponent : x a unit mod modulus}."""
    return frozenset(
        pow(x, exponent, modulus) for x in range(1, modulus) if gcd(x, modulus) == 1
    )


def enumerate_density_bruteforce(query):
    """Four-loop oracle: literally walk all matrices mod l^n (small moduli)."""
    return bruteforce_match_count(query.q, query.modulus, query.weight)


def bruteforce_match_count(q, m, k=12):
    """The four-loop count mod m for any odd q, composite q included."""
    assert m <= 128, f"brute-force oracle capped at modulus 128, got {m}"
    psi = psi_poly(q)
    dets = unit_power_subgroup(m, k - 1)
    count = 0
    for a, b, c, d in itertools.product(range(m), repeat=4):
        det = (a * d - b * c) % m
        if det in dets and eval_poly_mod(psi, (a + d) ** 2 % m, det, m) == 0:
            count += 1
    return count


def bc_solution_table(ell, n):
    """count_by_valuation[v] = # of (b, c) mod l^n with bc = e, v = val(e).

    Index n stands for e = 0.  For v < n the count is (v+1) phi(l^n);
    for e = 0 it is n phi(l^n) + l^n.
    """
    m = ell**n
    phi = m - m // ell
    return [(v + 1) * phi for v in range(n)] + [n * phi + m]


def fiber_count(t, det, ell, n, bc_table):
    """# of matrices mod l^n with given trace and determinant, summed over a."""
    m = ell**n
    total = 0
    for a in range(m):
        e = (a * (t - a) - det) % m
        v = 0
        while v < n and e % ell == 0:
            e //= ell
            v += 1
        total += bc_table[v]
    return total


def fiber_class(t, det, ell, n):
    """A key on which the fiber size of (t, det) mod l^n depends alone.

    For odd l, a(t-a) - det = D/4 - s^2 with D = t^2 - 4 det and
    s = a - t/2, and s -> u s for a unit u shows that D and u^2 D have
    equal fibers; the unit-square classes of Z/l^n are the valuation
    min(v_l(D), n) and, below n, whether the unit part of D is a square
    mod l (Euler's criterion).  For l = 2 the pair itself is the key.
    """
    if ell == 2:
        return t, det
    m = ell**n
    disc = (t * t - 4 * det) % m
    v = 0
    while v < n and disc % ell == 0:
        disc //= ell
        v += 1
    if v == n:
        return n, 0
    return v, 1 if pow(disc, (ell - 1) // 2, ell) == 1 else -1


def pair_walk_count(query):
    """Pair-walk oracle: every matching (t, det) mod l^n, one fiber sum per class.

    Every residue is tested as a root r of psi_q(X, 1) mod l^n; each unit
    t is visited with det = t^2 / r for each root and kept when det is a
    (k-1)-th power (det^e = 1, e = phi / gcd(phi, k-1)); the kept pairs
    are grouped by fiber_class and each class's fiber is summed over
    every a mod l^n.
    """
    q, ell, n, k, m = query.q, query.ell, query.n, query.weight, query.modulus
    psi = psi_poly(q)
    root_inverses = [pow(r, -1, m) for r in range(m) if eval_poly_mod(psi, r, 1, m) == 0]
    phi = m - m // ell
    e = phi // gcd(phi, k - 1)
    classes = {}
    for t in range(m):
        if t % ell == 0:
            continue
        for r_inv in root_inverses:
            det = t * t * r_inv % m
            if pow(det, e, m) == 1:
                classes.setdefault(fiber_class(t, det, ell, n), [0, t, det])[0] += 1
    bc_table = bc_solution_table(ell, n)
    return sum(c * fiber_count(t, det, ell, n, bc_table) for c, t, det in classes.values())


def root_count_density(q, ell, n=1, k=12):
    """The count's density at any odd q: e traces per root of psi_q(X, 1) mod l^n, times its fiber."""
    *_, roots = density._root_levels(q, ell, n, DEFAULT_ENUM_BUDGET)
    m = ell**n
    phi = m - m // ell
    e = phi // gcd(phi, k - 1)
    count = e * sum(density._fiber(r, ell, n) for r in roots)
    return Fraction(count, det_constrained_group_order(ell, n, k))


def sample_level_one_matches(q, ell, weight=12, limit=3):
    """A few explicit matrices (a, b, c, d) in the level-1 match set."""
    dets = unit_power_subgroup(ell, weight - 1)
    psi = psi_poly(q)
    out = []
    for a, b, c, d in itertools.product(range(ell), repeat=4):
        det = (a * d - b * c) % ell
        if det in dets and eval_poly_mod(psi, (a + d) ** 2, det, ell) == 0:
            out.append((a, b, c, d))
            if len(out) >= limit:
                break
    return out


def hensel_lift_count(q, ell, base_matrix):
    """# of lifts mod l^2 of a level-1 match that stay matches.

    Counts (x, y, z, w) in [0, l)^4 with (a + lx, b + ly, c + lz, d + lw)
    satisfying the congruence mod l^2; the per-matrix lift law says l^3.
    """
    a, b, c, d = base_matrix
    psi = psi_poly(q)
    m2 = ell * ell
    if eval_poly_mod(psi, (a + d) ** 2, a * d - b * c, ell) != 0:
        raise ValueError("base matrix is not a level-1 match")
    count = 0
    for x, w, y, z in itertools.product(range(ell), repeat=4):
        aa, bb, cc, dd = a + ell * x, b + ell * y, c + ell * z, d + ell * w
        if eval_poly_mod(psi, (aa + dd) ** 2, aa * dd - bb * cc, m2) == 0:
            count += 1
    return count


class TestQueryValidation:
    def test_q_must_be_odd_prime(self):
        with pytest.raises(ValueError):
            DensityQuery(4, 7)
        with pytest.raises(ValueError):
            DensityQuery(2, 7)

    def test_ell_must_be_prime(self):
        with pytest.raises(ValueError):
            DensityQuery(3, 8)

    def test_weight_must_be_even(self):
        with pytest.raises(ValueError):
            DensityQuery(3, 7, weight=11)


class TestLevelOne:
    def test_q3_ell7(self):
        r = enumerate_density(DensityQuery(3, 7, 1, 12))
        assert r.match_count == 336
        assert r.group_order == 2016
        assert r.delta == Fraction(1, 6)
        assert r.agrees
        assert r.class_tally["splitSemisimple"] == 336
        assert sum(r.class_tally.values()) == r.match_count

    def test_q3_ell3(self):
        r = enumerate_density(DensityQuery(3, 3, 1, 12))
        assert r.delta == Fraction(3, 8)
        assert r.agrees
        assert r.class_tally["central"] + r.class_tally["nonsemisimple"] == 18

    def test_q5_ell7_vanishes(self):
        r = enumerate_density(DensityQuery(5, 7, 1, 12))
        assert r.match_count == 0
        assert r.agrees

    def test_q3_ell5_nonsplit(self):
        r = enumerate_density(DensityQuery(3, 5, 1, 12))
        assert r.class_tally["nonsplitSemisimple"] == 80
        assert r.delta == Fraction(80, 480) == Fraction(1, 6)

    def test_class_tally_formulas(self):
        # per-type totals follow the split/nonsplit/ramified class counts
        for q in (3, 5, 7):
            for ell in (3, 5, 7, 11, 13):
                r = enumerate_density(DensityQuery(q, ell, 1, 12))
                d = gcd(ell - 1, 11)
                tally = r.class_tally
                if ell % q == 1:
                    assert tally["splitSemisimple"] == (q - 1) * (ell - 1) // (2 * d) * (ell**2 + ell)
                    assert tally["central"] == tally["nonsemisimple"] == tally["nonsplitSemisimple"] == 0
                elif ell % q == q - 1:
                    assert tally["nonsplitSemisimple"] == (q - 1) * (ell - 1) // (2 * d) * (ell**2 - ell)
                    assert tally["central"] == tally["nonsemisimple"] == tally["splitSemisimple"] == 0
                elif ell == q:
                    assert tally["central"] == (q - 1) // d
                    assert tally["nonsemisimple"] == (q - 1) // d * (q**2 - 1)
                    assert tally["splitSemisimple"] == tally["nonsplitSemisimple"] == 0
                else:
                    assert r.match_count == 0

    def test_mod2_cases(self):
        r = enumerate_density(DensityQuery(3, 2, 1, 12))
        assert r.match_count == 2 and r.group_order == 6 and r.delta == Fraction(1, 3)
        assert r.agrees
        for q in (5, 7, 11):
            assert enumerate_density(DensityQuery(q, 2, 1, 12)).match_count == 0

    def test_closed_form_grid(self):
        for q in (3, 5, 7):
            for ell in (2, 3, 5, 7, 11, 13):
                r = enumerate_density(DensityQuery(q, ell, 1, 12))
                assert r.agrees, (q, ell, r.delta, r.closed_form)

    def test_brute_force_oracle(self):
        for q, ell in [(3, 2), (3, 3), (3, 5), (3, 7), (5, 3), (5, 5), (5, 7), (7, 5), (7, 7)]:
            query = DensityQuery(q, ell, 1, 12)
            assert enumerate_density(query).match_count == enumerate_density_bruteforce(query)

    def test_closed_form_at_composite_q_against_brute_force(self):
        # psi_q(X, 1) has phi(q)/2 roots, not (q-1)/2; at l | q no closed form is claimed
        for q, ell in [(9, 17), (9, 19), (9, 7), (9, 2), (9, 3), (15, 3), (15, 5), (21, 3), (21, 7)]:
            want = Fraction(bruteforce_match_count(q, ell), det_constrained_group_order(ell, 1, 12))
            assert root_count_density(q, ell) == want, (q, ell)
            closed = closed_form_density(q, ell)
            assert closed == (None if q % ell == 0 else want), (q, ell, closed, want)
        assert closed_form_density(9, 17) == Fraction(1, 6)
        assert root_count_density(9, 3) == Fraction(3, 8)
        assert root_count_density(15, 5) == Fraction(1, 6)

    def test_closed_form_at_composite_q_against_root_count(self):
        for q, ell in [(9, 37), (15, 29), (15, 31), (21, 43)]:
            for n in (1, 2):
                assert closed_form_density(q, ell, n) == root_count_density(q, ell, n), (q, ell, n)
        assert closed_form_density(9, 37) == Fraction(1, 12)
        assert closed_form_density(15, 29) == Fraction(2, 15)
        for n in (1, 2, 3):
            assert closed_form_density(9, 3, n) is None and closed_form_density(15, 5, n) is None

    def test_weight_independence_at_level_one(self):
        # the unit-power index cancels in the ratio
        for k in (2, 12, 16, 26):
            r = enumerate_density(DensityQuery(3, 7, 1, k))
            assert r.delta == Fraction(1, 6)

    def test_class_tally_against_literal_enumeration(self):
        # classify every matching matrix of GL2(F_l) by the roots of its
        # characteristic polynomial x^2 - tx + det
        for ell in (2, 3, 5, 7, 11):
            for q in (3, 5, 7, 11):
                psi = psi_poly(q)
                for k in (2, 12):
                    dets = unit_power_subgroup(ell, k - 1)
                    tally = dict.fromkeys(
                        ("central", "nonsemisimple", "splitSemisimple", "nonsplitSemisimple"), 0
                    )
                    for a, b, c, d in itertools.product(range(ell), repeat=4):
                        t, det = (a + d) % ell, (a * d - b * c) % ell
                        if det not in dets or eval_poly_mod(psi, t * t, det, ell) != 0:
                            continue
                        roots = sum(1 for x in range(ell) if (x * x - t * x + det) % ell == 0)
                        if b == c == 0 and a == d:
                            tally["central"] += 1
                        elif roots == 1:
                            tally["nonsemisimple"] += 1
                        elif roots == 2:
                            tally["splitSemisimple"] += 1
                        else:
                            tally["nonsplitSemisimple"] += 1
                    r = enumerate_density(DensityQuery(q, ell, 1, k))
                    assert r.class_tally == tally, (q, ell, k)
        assert enumerate_density(DensityQuery(3, 7, 2, 12)).class_tally is None


class TestDetSubgroup:
    def test_power_subgroup_size(self):
        for ell in (3, 5, 7, 11, 13):
            d = gcd(ell - 1, 11)
            assert len(unit_power_subgroup(ell, 11)) == (ell - 1) // d

    def test_square_twist_count(self):
        # for any unit t, the a with a^2 t in the power subgroup number (l-1)/d
        for ell in (5, 7, 11, 13):
            subgroup = unit_power_subgroup(ell, 11)
            d = gcd(ell - 1, 11)
            for t in range(1, ell):
                hits = sum(1 for a in range(1, ell) if (a * a * t) % ell in subgroup)
                assert hits == (ell - 1) // d

    def test_group_orders_match_when_ell_coprime_to_weight_shift(self):
        assert det_constrained_group_order(5, 2, 12) == unit_power_group_order(5, 2, 12)
        assert det_constrained_group_order(7, 2, 12) == unit_power_group_order(7, 2, 12)
        # 11 divides k-1 = 11: the unit-power subgroup shrinks above level 1
        assert det_constrained_group_order(11, 2, 12) < unit_power_group_order(11, 2, 12)

    def test_group_order_against_power_subgroup(self):
        # the closed-form subgroup size phi / gcd(phi, k-1) against the subgroup
        # built residue by residue, with l = 2 and l | k-1 among the cases
        cases = 0
        for ell in (2, 3, 5, 7, 11, 13, 31):
            for n in range(1, 5):
                if ell**n > 40000:
                    continue
                sl2 = ell ** (3 * n - 2) * (ell * ell - 1)
                for k in (2, 4, 6, 8, 12, 14, 16, 24):
                    want = sl2 * len(unit_power_subgroup(ell**n, k - 1))
                    assert det_constrained_group_order(ell, n, k) == want, (ell, n, k)
                    cases += 1
        assert cases == 216


class TestLifts:
    def test_lift_level_two_against_bruteforce(self):
        # every l^n in {4, 8, 9, 16, 25, 27}: l = 2 (every fiber 2^n phi),
        # l = q = 3 (1 - 4/r = -3 of odd valuation), and l = 5
        for q in (3, 5):
            for ell, n in [(2, 2), (2, 3), (3, 2), (2, 4), (5, 2), (3, 3)]:
                query = DensityQuery(q, ell, n, 12)
                assert enumerate_density(query).match_count == enumerate_density_bruteforce(
                    query
                ), (q, ell, n)

    def test_fiber_size_constant_on_discriminant_classes(self):
        # the count sums one fiber per class, so every (t, det) in a class
        # must have the same fiber, matching or not
        for ell, n in [(3, 1), (5, 1), (3, 2), (5, 2), (7, 2), (3, 3)]:
            m = ell**n
            bc_table = bc_solution_table(ell, n)
            fibers = {}
            for det in range(m):
                if det % ell == 0:
                    continue
                for t in range(m):
                    key = fiber_class(t, det, ell, n)
                    fibers.setdefault(key, set()).add(fiber_count(t, det, ell, n, bc_table))
            assert len(fibers) == 2 * n + 1, (ell, n)
            assert all(len(sizes) == 1 for sizes in fibers.values()), (ell, n, fibers)

    def test_fiber_matches_brute_force_at_every_class_of_c(self):
        # _fiber reads the square roots of c = 1 - 4 / r at the level past its
        # valuation; every root r that is a unit reaches every class of c
        # (unit square or not, each valuation below n, and c = 0) except the
        # unit squares mod 3, which are 1 mod 3 and so never 1 - 4 / r
        for ell in (2, 3, 5, 7):
            for n in (1, 2, 3):
                m = ell**n
                bc_table = bc_solution_table(ell, n)
                classes = set()
                for r in range(1, m):
                    if r % ell == 0:
                        continue
                    for t in (1, m - 1):
                        det = t * t * pow(r, -1, m) % m
                        want = fiber_count(t, det, ell, n, bc_table)
                        assert density._fiber(r, ell, n) == want, (ell, n, r, t)
                        classes.add(fiber_class(t, det, ell, n))
                if ell > 2:
                    assert len(classes) == 2 * n + 1 - (ell == 3), (ell, n, classes)

    def test_closed_form_grid_above_level_one(self):
        for q in (3, 5, 7):
            for ell in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31):
                for n in (2, 3):
                    r = enumerate_density(DensityQuery(q, ell, n, 12), budget=10**20)
                    if r.closed_form is not None:
                        assert r.agrees, (q, ell, n, r.delta, r.closed_form)

    def test_q3_ell3_lift_counts_pinned(self):
        # no closed form at powers of 3 for q = 3; 11664 is also the four-loop count mod 27
        for n, match in [(2, 432), (3, 11664)]:
            r = enumerate_density(DensityQuery(3, 3, n, 12))
            assert r.closed_form is None
            assert r.match_count == match

    def test_lift_ratio_one_over_ell(self):
        for q, ell in [(3, 5), (3, 7)]:
            report = lift_factor(q, ell, 12)
            assert report.ratio == Fraction(1, ell)

    def test_lift_at_q_vanishes_above_level_one(self):
        report = lift_factor(5, 5, 12)
        assert report.base.delta == Fraction(5, 24)
        assert report.lifted.match_count == 0
        assert report.ratio == 0

    def test_zero_density_marker(self):
        report = lift_factor(5, 7, 12)
        assert report.base.match_count == 0
        assert report.ratio is None

    @pytest.mark.parametrize("q", (3, 5, 7, 11, 13))
    def test_lift_equals_two_counts(self, q):
        # one root search to l^2 gives the reports, or the budget error, of
        # the counts at l and then l^2: at each count's exact charge and one below
        def outcome(run):
            try:
                return run()
            except BudgetExceededError as exc:
                return str(exc), exc.needed, exc.cap

        refused = 0
        for ell in factor.primes_up_to(1009):
            base, lifted = DensityQuery(q, ell, 1), DensityQuery(q, ell, 2)
            base_charge = outcome(lambda: enumerate_density(base, budget=0))[1]
            over = outcome(lambda: enumerate_density(lifted, budget=base_charge))
            lift_charge = over[1] if isinstance(over, tuple) else base_charge
            for budget in {base_charge - 1, base_charge, lift_charge - 1, lift_charge}:
                got = outcome(lambda: lift_factor(q, ell, budget=budget))
                want = outcome(lambda: LiftReport(enumerate_density(base, budget=budget),
                                                  enumerate_density(lifted, budget=budget)))
                assert got == want, (q, ell, budget)
                refused += isinstance(got, tuple) and "lifting" in got[0]
        assert refused > 0  # some budgets pass the search mod l and stop the lift

    def test_hensel_lift_counts(self):
        for q, ell in [(3, 5), (3, 7)]:
            for base in sample_level_one_matches(q, ell):
                assert hensel_lift_count(q, ell, base) == ell**3

    def test_hensel_rejects_non_match(self):
        with pytest.raises(ValueError):
            hensel_lift_count(3, 7, (1, 0, 0, 1))

    def test_insolubility_mod_q_squared(self):
        # no root of psi_q(X, 1) mod q^2, so no match at level 2, for q = 5 and 7
        assert enumerate_density(DensityQuery(5, 5, 2)).match_count == 0
        assert enumerate_density(DensityQuery(7, 7, 2)).match_count == 0
        assert enumerate_density(DensityQuery(3, 3, 2)).match_count > 0

    @pytest.mark.parametrize("q", [3, 5, 7, 11, 13])
    def test_insolubility_matches_every_pair_mod_q_squared(self, q, psi_soluble_mod_q_squared):
        # a zero with q not dividing v is a root u / v of psi_q(X, 1), and one
        # with q | v is u^((q-1)/2) mod q, nonzero unless q | u; so the count
        # at q^2 vanishes exactly when no pair is a zero
        count = enumerate_density(DensityQuery(q, q, 2)).match_count
        assert (count == 0) == (not psi_soluble_mod_q_squared(q))

    @pytest.mark.parametrize("q", [1, 2, 9, 15])
    def test_insolubility_rejects_q_not_an_odd_prime(self, q):
        with pytest.raises(ValueError, match="q must be an odd prime"):
            DensityQuery(q, q, 2)

    def test_budget_error_carries_requirement(self):
        # the budget counts evaluations of psi_q(X, 1), one word each below
        # 2^64: l for the roots mod l, then l for each root carried to each
        # next level; after the search the levels left are charged at once
        with pytest.raises(BudgetExceededError) as exc:
            enumerate_density(DensityQuery(3, 100000007, 1, 12))
        assert (exc.value.needed, exc.value.cap) == (100000007, DEFAULT_ENUM_BUDGET)
        # mod 121: 11 evaluations mod 11 find 2 roots, and 2 * 11 lift them
        query = DensityQuery(5, 11, 2, 12)
        for budget, needed in [(10, 11), (32, 33)]:
            with pytest.raises(BudgetExceededError) as exc:
                enumerate_density(query, budget=budget)
            assert (exc.value.needed, exc.value.cap) == (needed, budget)
        assert enumerate_density(query, budget=33).delta == Fraction(1, 55)
        # psi_3(X, 1) = X - 1 has one root at every level: l + l per level
        for ell, n, needed in [(10007, 2, 20014), (1009, 2, 2018), (2, 16, 32)]:
            query = DensityQuery(3, ell, n, 12)
            with pytest.raises(BudgetExceededError):
                enumerate_density(query, budget=needed - 1)
            assert enumerate_density(query, budget=needed).agrees

    def test_budget_grows_with_the_size_of_the_numbers(self):
        # mod 7^100000 each evaluation works on about 4400 words, so the
        # lifting is charged far over the default budget and refused after
        # the search mod 7, before any number near 7^n is made
        tracemalloc.start()
        try:
            with pytest.raises(BudgetExceededError) as exc:
                enumerate_density(DensityQuery(3, 7, 10**5))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert exc.value.needed > 10 * DEFAULT_ENUM_BUDGET
        assert peak < 10**4

    def test_counts_past_the_int_str_digit_limit(self):
        # 7^5100 has 4310 digits; the library never turns such a number into
        # a string, so it answers under the interpreter's default limit
        assert enumerate_density(DensityQuery(3, 7, 5100)).agrees

    def test_power_test_against_bruteforce(self):
        # every l^n <= 27, l = 2 up to n = 4 included; each root counts
        # phi / g traces whose det is a (k-1)-th power, g = gcd(phi, k-1).  The oracle
        # depends on k only through the power subgroup, so it runs once per
        # distinct subgroup, and that takes in the g > 1 cases such as
        # l^n = 9 and 27 at k = 4
        proper = 0
        for ell, n in [(2, 1), (2, 2), (2, 3), (2, 4), (3, 1), (3, 2), (3, 3), (5, 1),
                       (5, 2), (7, 1), (11, 1), (13, 1), (17, 1), (19, 1), (23, 1)]:
            m = ell**n
            oracle = {}
            for k in (2, 4, 6, 12):
                query = DensityQuery(3, ell, n, k)
                dets = unit_power_subgroup(m, k - 1)
                if dets not in oracle:
                    oracle[dets] = enumerate_density_bruteforce(query)
                    proper += len(dets) < m - m // ell
                assert enumerate_density(query).match_count == oracle[dets], (ell, n, k)
        assert proper == 8

    def test_walk_keeps_no_residue_table(self):
        # l^n = 10201 residues: a list or dict over them alone passes 10^5 bytes
        query = DensityQuery(3, 101, 2)
        tracemalloc.start()
        try:
            enumerate_density(query)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10**5

    def test_ell_two_count_keeps_nothing_per_pair(self):
        # mod 2^16 there are 2^15 matching pairs per root; the count holds
        # none of them and answers |R| 2^(3n-2)
        tracemalloc.start()
        try:
            report = enumerate_density(DensityQuery(3, 2, 16))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.match_count == 2**46
        assert peak < 10**4

    @pytest.mark.parametrize("q", (3, 5, 7, 11, 13))
    def test_matches_pair_walk(self, q):
        # every l <= 31 and n <= 3 with l^n <= 30000, l = 2 and l = q included,
        # at four weights, two of them (4 and 24) with 3 | k - 1 or 23 | k - 1
        cases = 0
        for ell in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31):
            for n in (1, 2, 3):
                if ell**n > 30000:
                    continue
                for k in (2, 4, 12, 24):
                    query = DensityQuery(q, ell, n, k)
                    want = pair_walk_count(query)
                    assert enumerate_density(query).match_count == want, (q, ell, n, k)
                    cases += 1
        assert cases == 132

    def test_matches_pair_walk_at_ell_two(self):
        # 2^n residues, up to n = 11; only psi_3 has roots mod 2
        for q in (3, 5):
            for n in range(1, 12):
                for k in (2, 12):
                    query = DensityQuery(q, 2, n, k)
                    count = enumerate_density(query).match_count
                    assert count == pair_walk_count(query), (q, n, k)
                    assert count == (2 ** (3 * n - 2) if q == 3 else 0)

    def test_ell_two_level_one_class_tally(self):
        # mod 2 the only matching pair per root is (1, 1): x^2 + x + 1 is
        # irreducible, so its 2 matrices are nonsplit
        for q, roots in [(3, 1), (5, 0), (7, 0)]:
            tally = enumerate_density(DensityQuery(q, 2, 1, 12)).class_tally
            assert tally == {"central": 0, "nonsemisimple": 0, "splitSemisimple": 0,
                             "nonsplitSemisimple": 2 * roots}, q


class TestReports:
    def test_json_schema_keys(self):
        r = enumerate_density(DensityQuery(3, 7, 1, 12))
        payload = json.loads(r.to_json())
        assert set(payload) >= {"query", "matchCount", "groupOrder", "deltaExact", "closedForm", "agrees"}
        assert payload["deltaExact"] == "1/6"
        assert payload["classTally"]["splitSemisimple"] == 336

    def test_exceptional_flag(self):
        assert enumerate_density(DensityQuery(3, 7, 1, 12)).exceptional
        assert not enumerate_density(DensityQuery(5, 11, 1, 12)).exceptional
        assert DELTA_EXCEPTIONAL_PRIMES == {2, 3, 5, 7, 23, 691}


class TestChebotarev:
    def test_requires_minimum_range(self, delta):
        with pytest.raises(ValueError):
            chebotarev_sample(delta, 3, 11, 100)

    def test_nonexceptional_band(self, delta_warm_small):
        sample = chebotarev_sample(delta_warm_small, 3, 11, 10**4)
        assert sample.target == Fraction(1, 12)
        assert not sample.exceptional
        assert abs(sample.frequency - 1 / 12) <= 5 * sample.sigma

    def test_exceptional_flagged_and_zero(self, delta_warm_small):
        for d in (5, 7):
            sample = chebotarev_sample(delta_warm_small, 3, d, 10**4)
            assert sample.exceptional
            assert sample.hits == 0  # the mod-5 and mod-7 coefficient congruences forbid hits

    def test_vanishing_target(self, delta_warm_small):
        sample = chebotarev_sample(delta_warm_small, 5, 7, 10**4)
        assert sample.target == 0
        assert sample.frequency < 0.001

    def test_json_payload(self, delta_warm_small):
        sample = chebotarev_sample(delta_warm_small, 5, 11, 10**4)
        payload = sample.to_json_dict()
        assert payload["empirical"]["total"] == sample.total_primes
        assert payload["target"] == "1/5"

    @pytest.mark.parametrize(
        "q,d",
        [(5, 11), (3, 7), (13, 53), (3, 9), (3, 125), (5, 25), (7, 8), (3, 691), (3, 2), (3, 32)],
    )
    def test_matches_per_prime_evaluation(self, delta, q, d):
        """Oracle: evaluate psi_q(a_p^2, p^(k-1)) mod d at every prime p <= 10^5."""
        x = 10**5
        sample = chebotarev_sample(delta, q, d, x)
        want = per_prime_chebotarev(delta, q, d, x)
        assert (sample.hits, sample.total_primes, sample.zero_excluded) == want

    @pytest.mark.parametrize("q,d", [(3, 7), (5, 11), (3, 25), (5, 9), (3, 8)])
    def test_table_form_matches_per_prime_evaluation(self, tmp_path, q, d):
        """A weight-4 level-15 table: p = 3 and p = 5 divide the level and are skipped."""
        x, weight, level = 2000, 4, 15
        rng = random.Random(d * 100 + q)
        primes = [p for p in factor.primes_up_to(x) if level % p]
        bound = {p: math.isqrt(4 * p ** (weight - 1)) for p in primes}
        entries = {p: rng.randint(-bound[p], bound[p]) for p in primes}
        path = tmp_path / "level15.csv"
        path.write_text("p,a_p\n" + "".join(f"{p},{a}\n" for p, a in entries.items()))
        form = ingest_table(path, weight, level)
        sample = chebotarev_sample(form, q, d, x)
        want = per_prime_chebotarev(form, q, d, x)
        assert want[1] == sum(1 for p in primes if d % p)  # beside the level, only p = ell
        assert (sample.hits, sample.total_primes, sample.zero_excluded) == want
        with pytest.raises(DataExhaustedError):
            chebotarev_sample(form, q, d, 2003)  # the walk past the table's bound

    @pytest.mark.parametrize("q,d", [(5, 11), (3, 7), (3, 125), (3, 32)])
    def test_one_psi_test_per_residue(self, delta_warm_small, monkeypatch, q, d):
        calls = []
        real = density.eval_poly_mod
        monkeypatch.setattr(density, "eval_poly_mod", lambda *a: calls.append(a) or real(*a))
        sample = chebotarev_sample(delta_warm_small, q, d, 10**4)
        assert sample.total_primes > 1000
        assert 0 < len(calls) <= d
        assert len({args[1] for args in calls}) == len(calls)

    def test_no_zero_at_even_exponents(self, delta, tmp_path):
        """Why zero_excluded is always 0: a(p^(q-1)) never vanishes.

        Zeros of a(p^m) need a root-of-unity ratio of Frobenius roots of
        order r in {2, 4, 6} (r = 3 needs p^(k-1) square, so odd k), hence
        odd m.  The small primes where a_p^2 = 2 * 2^(k-1) or 3 * 3^(k-1)
        can occur vanish at m = 3 and m = 5, never at m = q - 1.
        """
        odd_primes = (3, 5, 7, 11, 13)
        for p in (2, 3):
            for q in odd_primes:
                assert coeff_prime_power(delta, p, q - 1) != 0
        path = tmp_path / "weight2.csv"
        path.write_text("2,2\n3,3\n")
        f = ingest_table(path, 2, 1)
        assert f.ap(2) ** 2 == 2 * 2 ** (f.weight - 1)
        assert f.ap(3) ** 2 == 3 * 3 ** (f.weight - 1)
        assert coeff_prime_power(f, 2, 3) == 0
        assert coeff_prime_power(f, 3, 5) == 0
        for p in (2, 3):
            for q in odd_primes:
                assert coeff_prime_power(f, p, q - 1) != 0

    def test_walk_runs_no_primality_tests(self, delta_warm_small, monkeypatch):
        calls = []
        real = factor.is_prime
        monkeypatch.setattr(factor, "is_prime", lambda n: calls.append(n) or real(n))
        counts = []
        for x in (10**3, 10**4):
            calls.clear()
            chebotarev_sample(delta_warm_small, 5, 11, x)
            counts.append(len(calls))
        # only q and the modulus are validated: nothing per walked prime
        assert counts[0] == counts[1] <= 2

    def test_prime_power_decision_matches_factorize(self):
        for d in range(2, 5001):
            factors = factor.factorize(d).factors
            if len(factors) == 1:
                assert _factor_prime_power(d) == next(iter(factors.items())), d
            else:
                with pytest.raises(ValueError, match=f"^modulus {d} is not a prime power$"):
                    _factor_prime_power(d)
        for d in (-7, 0, 1):
            with pytest.raises(ValueError, match=f"^modulus {d} is not a prime power$"):
                _factor_prime_power(d)

    def test_prime_power_decision_factors_nothing(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the prime-power decision called the factorizer")

        monkeypatch.setattr(factor, "factorize", refuse)
        started = time.perf_counter()
        assert _factor_prime_power((2**61 - 1) ** 2) == (2**61 - 1, 2)
        # a 119-bit composite that no rho budget splits quickly
        with pytest.raises(ValueError, match="is not a prime power"):
            _factor_prime_power(537419873285734614188140100631946957)
        assert time.perf_counter() - started < 0.5

    def test_prime_power_modulus_accepted(self, delta_warm_small):
        sample = chebotarev_sample(delta_warm_small, 3, 121, 10**4)
        assert sample.target == closed_form_density(3, 11, 2)
        with pytest.raises(ValueError):
            chebotarev_sample(delta_warm_small, 3, 15, 10**4)
