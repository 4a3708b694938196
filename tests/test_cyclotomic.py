import random
import struct
from math import comb, gcd
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from taulab import factor
from taulab.cyclotomic import (
    BivariatePoly,
    PsiPrimePowerClass,
    _SLOT_CODES,
    _read_slots,
    _slot_size,
    classify_psi_prime_power,
    discriminant,
    dump_poly_line,
    eval_poly,
    eval_poly_mod,
    f_poly,
    geometric_sum_poly,
    multiply_by_x_plus_y,
    partial_derivatives,
    phi_poly,
    psi_poly,
    substitute_square_product,
)

DATA = Path(__file__).parent / "data"

ODD_PRIMES_TO_101 = [p for p in factor.primes_up_to(101) if p % 2]


def binomial_substitute_square_product(p):
    """P((X+Y)^2, XY) as the sum over i of c_i C(2(m-i), j) x^(i+j) at Y = 1.

    The direct binomial expansion, kept as an independent reference for
    the Horner construction in substitute_square_product.
    """
    m = p.degree
    out = [0] * (2 * m + 1)
    for i, c in enumerate(p.coeffs):
        if c == 0:
            continue
        e = m - i
        for j in range(2 * e + 1):
            out[j + i] += c * comb(2 * e, j)
    return BivariatePoly(tuple(reversed(out)))


class TestReadSlots:
    """_read_slots against packs built slot by slot, at every width from 1 to 17 bytes."""

    def test_signed_slot_edges(self):
        rnd = random.Random(11)
        for size in range(1, 18):  # 1, 2, 4, 8 are array item sizes, the rest are read per slot
            half = 1 << (8 * size - 1)
            edges = [-half, -half + 1, -1, 0, 1, half - 1]
            for count in (1, 2, 3, 17):
                coeffs = [rnd.choice(edges + [rnd.randrange(-half, half)]) for _ in range(count)]
                packed = sum(c << 8 * size * j for j, c in enumerate(coeffs))
                assert _read_slots(packed, size, count) == coeffs
            # a run of top-of-range negatives would borrow through every slot
            packed = sum(-half << 8 * size * j for j in range(5))
            assert _read_slots(packed, size, 5) == [-half] * 5

    def test_non_negative_pack_reads_without_the_excess(self):
        rnd = random.Random(12)
        for size in range(1, 18):
            top = (1 << 8 * size) - 1
            coeffs = [0, 1, top, top - 1, 1 << (8 * size - 1)]
            coeffs += [rnd.randrange(top + 1) for _ in range(12)]
            packed = sum(c << 8 * size * j for j, c in enumerate(coeffs))
            assert _read_slots(packed, size, len(coeffs), signed=False) == coeffs

    def test_each_format_has_the_item_size_it_reads(self):
        assert {size for size, _ in _SLOT_CODES} >= {1, 2, 4, 8}
        for (size, signed), code in _SLOT_CODES.items():
            assert struct.calcsize(code) == size
            assert code.islower() == signed

    def test_slot_size_holds_the_bound_and_a_sign_bit(self):
        for bits in range(140):
            bound = (1 << bits) - 1  # the largest bound of this bit length
            size = _slot_size(bound)
            assert bound < 1 << (8 * size - 1)
            # whole bytes: rounded up to an array item size up to 8 bytes, exact above
            need = bits // 8 + 1
            assert size == (next(s for s in (1, 2, 4, 8) if s >= need) if need <= 8 else need)


class TestConstruction:
    def test_phi_small(self):
        assert phi_poly(1).coeffs == (1, -1)
        assert phi_poly(3).coeffs == (1, 1, 1)
        assert phi_poly(12).coeffs == (1, 0, -1, 0, 1)

    def test_phi_rejects_zero(self):
        with pytest.raises(ValueError):
            phi_poly(0)

    def test_psi_small(self):
        assert psi_poly(3).coeffs == (1, -1)
        assert psi_poly(5).coeffs == (1, -3, 1)

    def test_psi_domain(self):
        with pytest.raises(ValueError):
            psi_poly(2)

    def test_f_small(self):
        assert f_poly(3).coeffs == (1, -1)
        assert f_poly(4).coeffs == (1, -2)

    def test_f_domain(self):
        with pytest.raises(ValueError):
            f_poly(2)

    def test_f_equals_psi_at_primes(self):
        for q in ODD_PRIMES_TO_101:
            assert f_poly(q).coeffs == psi_poly(q).coeffs

    def test_f_is_product_of_psi_over_divisors(self):
        # F_n = prod over divisors d >= 3 of n of psi_d (the d = 2 factor
        # is the X+Y in front); checked by degree and by evaluation.
        for n in (6, 9, 10, 12, 15):
            x, y = 19, 7
            prod = 1
            for d in range(3, n + 1):
                if n % d == 0:
                    prod *= eval_poly(psi_poly(d), x, y)
            assert eval_poly(f_poly(n), x, y) == prod

    def test_monic_leading_coefficients(self):
        for n in range(3, 120):
            assert psi_poly(n).coeffs[0] == 1
            assert f_poly(n).coeffs[0] == 1

    def test_degrees(self):
        for n in range(3, 120):
            assert psi_poly(n).degree == phi_poly(n).degree // 2
            assert f_poly(n).degree == (n - 1) // 2


class TestIdentities:
    def test_square_product_identity(self):
        for n in range(3, 80):
            assert substitute_square_product(psi_poly(n)).coeffs == phi_poly(n).coeffs

    def test_geometric_sum_identity(self):
        for n in range(3, 80):
            lhs = substitute_square_product(f_poly(n))
            if n % 2 == 0:
                lhs = multiply_by_x_plus_y(lhs)
            assert lhs.coeffs == geometric_sum_poly(n).coeffs

    def test_substitution_matches_binomial_expansion(self):
        for n in range(3, 201):
            for poly in (psi_poly(n), f_poly(n)):
                assert substitute_square_product(poly) == binomial_substitute_square_product(poly)

    @given(st.lists(st.integers(-10**40, 10**40) | st.sampled_from([0, 1, -1]), min_size=1, max_size=40))
    @settings(max_examples=200, deadline=None)
    def test_substitution_matches_binomial_expansion_random(self, coeffs):
        poly = BivariatePoly(tuple(coeffs))
        assert substitute_square_product(poly) == binomial_substitute_square_product(poly)

    def test_psi_at_4_1_is_the_prime(self):
        for q in ODD_PRIMES_TO_101:
            assert eval_poly(psi_poly(q), 4, 1) == q

    @given(st.integers(-50, 50), st.integers(-50, 50), st.integers(-9, 9), st.integers(3, 40))
    @settings(max_examples=80, deadline=None)
    def test_homogeneous_scaling(self, x, y, lam, n):
        p = psi_poly(n)
        assert eval_poly(p, lam * x, lam * y) == lam**p.degree * eval_poly(p, x, y)


class TestEvaluation:
    def test_eval_examples(self):
        assert eval_poly(psi_poly(3), 4, 1) == 3
        assert eval_poly(psi_poly(5), 4, 1) == 5
        assert eval_poly(psi_poly(7), 0, 0) == 0

    def test_eval_mod_examples(self):
        assert eval_poly_mod(psi_poly(3), 2, 4, 7) == 5
        assert eval_poly_mod(psi_poly(5), 4, 1, 5) == 0

    def test_eval_mod_rejects_tiny_modulus(self):
        with pytest.raises(ValueError):
            eval_poly_mod(psi_poly(3), 1, 1, 1)

    @given(st.integers(-10**6, 10**6), st.integers(-10**6, 10**6), st.integers(2, 10**6))
    @settings(max_examples=100, deadline=None)
    def test_eval_mod_matches_exact(self, x, y, m):
        p = psi_poly(11)
        assert eval_poly_mod(p, x, y, m) == eval_poly(p, x, y) % m


class TestPartials:
    def test_partials_small(self):
        dx, dy = partial_derivatives(psi_poly(3))
        assert dx.coeffs == (1,) and dy.coeffs == (-1,)
        dx, dy = partial_derivatives(psi_poly(5))
        assert dx.coeffs == (2, -3) and dy.coeffs == (-3, 2)

    def test_degree_zero_rejected(self):
        with pytest.raises(ValueError):
            partial_derivatives(BivariatePoly((7,)))

    def test_scaling_identity(self):
        # X dP/dX + Y dP/dY = deg(P) * P, assembled through the poly ops
        for q in ODD_PRIMES_TO_101:
            p = psi_poly(q)
            dx, dy = partial_derivatives(p)
            m = p.degree
            recombined = [0] * (m + 1)
            for i, c in enumerate(dx.coeffs):
                recombined[i] += c  # times X
            for i, c in enumerate(dy.coeffs):
                recombined[i + 1] += c  # times Y
            assert tuple(recombined) == tuple(m * c for c in p.coeffs)
            if q >= 3:
                assert m == (q - 1) // 2

    def test_partials_jointly_nonvanishing_mod_ell(self):
        # at any nontrivial root of psi_q mod ell (ell != q) both partials
        # stay nonzero mod ell
        primes = [p for p in factor.primes_up_to(13)]
        for q in [p for p in primes if p % 2 and p > 2]:
            psi = psi_poly(q)
            dx, dy = partial_derivatives(psi)
            for ell in primes:
                if ell == q:
                    continue
                for u in range(ell):
                    for v in range(ell):
                        if u == 0 and v == 0:
                            continue
                        if eval_poly_mod(psi, u, v, ell) != 0:
                            continue
                        assert eval_poly_mod(dx, u, v, ell) != 0, (q, ell, u, v)
                        assert eval_poly_mod(dy, u, v, ell) != 0, (q, ell, u, v)


class TestDiscriminant:
    def test_examples(self):
        assert discriminant(psi_poly(5)) == 5
        assert discriminant(psi_poly(3)) == 1
        assert abs(discriminant(psi_poly(7))) == 49

    def test_magnitude_law(self):
        for q in (3, 5, 7, 11, 13, 17, 19):
            assert abs(discriminant(psi_poly(q))) == q ** ((q - 3) // 2)

    def test_constant_term_is_unit(self):
        for q in ODD_PRIMES_TO_101:
            assert abs(psi_poly(q).coeffs[-1]) == 1

    def test_zero_poly_rejected(self):
        with pytest.raises(ValueError):
            discriminant(BivariatePoly((0,)))

    def test_quadratic_matches_formula(self):
        # b^2 - 4ac for a few quadratics
        for a, b, c in [(1, -3, 1), (2, 5, -7), (3, 0, 4)]:
            assert discriminant(BivariatePoly((a, b, c))) == b * b - 4 * a * c

    def test_matches_sympy(self):
        sympy = pytest.importorskip("sympy")
        x = sympy.Symbol("x")
        for n in range(3, 41):
            for poly in (psi_poly(n), phi_poly(n), f_poly(n)):
                at_y_1 = sum(c * x ** (poly.degree - i) for i, c in enumerate(poly.coeffs))
                assert discriminant(poly) == sympy.discriminant(at_y_1, x), (n, poly)

    def test_zero_leading_coefficient_rejected(self):
        # p(X, 1) = 3X + 1 has a lower degree than p, whose X^2 coefficient is 0
        with pytest.raises(ValueError):
            discriminant(BivariatePoly((0, 3, 1)))


class TestClassification:
    def test_examples(self):
        assert classify_psi_prime_power(7, 4, 1, 7) == PsiPrimePowerClass.DIVIDES_M
        assert eval_poly(psi_poly(5), 6, 1) == 19
        assert classify_psi_prime_power(5, 6, 1, 19) == PsiPrimePowerClass.PLUS_MINUS_ONE_MOD_M

    def test_domain(self):
        with pytest.raises(ValueError):
            classify_psi_prime_power(6, 3, 2, 5)
        with pytest.raises(ValueError):
            classify_psi_prime_power(5, 4, 2, 3)  # gcd(4, 2) != 1
        with pytest.raises(ValueError):
            classify_psi_prime_power(5, 0, 1, 3)  # 3 does not divide psi_5(0,1) = 1

    def test_small_sweep(self):
        for m in (5, 7):
            for u in range(-12, 13):
                for v in range(-12, 13):
                    if gcd(u, v) != 1:
                        continue
                    value = eval_poly(psi_poly(m), u, v)
                    if value == 0:
                        continue
                    fac = factor.factorize(abs(value))
                    assert fac.is_complete, value
                    for p in fac.factors:
                        classify_psi_prime_power(m, u, v, p)  # must not raise


class TestPrimitiveDivisors:
    def test_lucas_self_divisibility_shape(self):
        # U_n(3, 1): a primitive divisor p of U_n, one dividing no earlier
        # term, has p = +-1 mod n or p | n
        seq = [0, 1, 3]
        while len(seq) < 31:
            seq.append(3 * seq[-1] - seq[-2])
        seen: set[int] = set()
        without = []
        for idx, value in enumerate(seq[1:], start=1):
            fac = factor.factorize(value)
            assert fac.is_complete, value
            primes = set(fac.factors)
            for p in primes - seen:
                assert p % idx in (1, idx - 1) or idx % p == 0, (idx, p)
            if not primes - seen:
                without.append(idx)
            seen |= primes
        # U_n(3, 1) = F_2n, and F_12 = 144 is Carmichael's exception
        assert without == [1, 6]


class TestDumpFormat:
    def test_line_shape(self):
        assert dump_poly_line("PSI", 5) == "PSI 5: 1 -3 1"
        assert dump_poly_line("F", 4) == "F 4: 1 -2"
        with pytest.raises(ValueError):
            dump_poly_line("NOPE", 5)

    def test_golden_file(self):
        golden = (DATA / "psi_golden.txt").read_text().strip().splitlines()
        produced = [dump_poly_line("PSI", q) for q in ODD_PRIMES_TO_101]
        assert produced == golden
