import itertools
from math import comb, gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from taulab.errors import SingularMatrixError
from taulab.rings import (
    ZZ,
    MultiIndexOrbit,
    RingMatrix,
    Zmod,
    is_torsion_scalar,
    sym_pow,
    sym_pow_kernel_test,
    sym_pow_trace,
    sym_pow_via_orbits,
)


def all_invertible(modulus):
    ring = Zmod(modulus)
    for a, b, c, d in itertools.product(range(modulus), repeat=4):
        mat = RingMatrix.make(ring, [[a, b], [c, d]])
        if mat.is_invertible():
            yield mat


def bezout(a, b):
    """(x, y) with a x + b y = 1, for coprime a and b."""
    old_r, r, old_x, x, old_y, y = a, b, 1, 0, 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_x, x = x, old_x - q * x
        old_y, y = y, old_y - q * y
    assert abs(old_r) == 1
    return old_r * old_x, old_r * old_y


def random_invertible(rnd, ring, modulus):
    while True:
        mat = RingMatrix.make(ring, [[rnd.randrange(modulus) for _ in range(2)] for _ in range(2)])
        if mat.is_invertible():
            return mat


class TestRings:
    def test_modulus_validation(self):
        with pytest.raises(ValueError):
            Zmod(1)

    @given(st.integers(2, 500), st.integers(), st.integers(), st.integers())
    def test_mod_ring_axioms(self, m, x, y, z):
        r = Zmod(m)
        x, y, z = r.normalize(x), r.normalize(y), r.normalize(z)
        assert r.add(x, y) == r.add(y, x)
        assert r.mul(x, y) == r.mul(y, x)
        assert r.mul(x, r.add(y, z)) == r.add(r.mul(x, y), r.mul(x, z))
        assert r.mul(r.mul(x, y), z) == r.mul(x, r.mul(y, z))
        assert r.add(x, r.zero) == x
        assert r.mul(x, r.one) == x

    @given(st.integers(-10**6, 10**6), st.integers(-10**6, 10**6))
    def test_integer_ring_axioms(self, x, y):
        assert ZZ.add(x, y) == x + y
        assert ZZ.mul(x, y) == x * y
        assert ZZ.is_unit(x) == (abs(x) == 1)

    def test_invertibility_matches_unit_det(self):
        ring = Zmod(6)
        for a, b, c, d in itertools.product(range(6), repeat=4):
            mat = RingMatrix.make(ring, [[a, b], [c, d]])
            assert mat.is_invertible() == (gcd(a * d - b * c, 6) == 1)

    def test_det_of_known_matrix(self):
        mat = RingMatrix.make(ZZ, [[2, 3], [1, 4]])
        assert mat.det() == 5
        assert RingMatrix.identity(Zmod(7), 4).det() == 1


class TestOrbits:
    def test_orbit_members_and_size(self):
        orbit = MultiIndexOrbit(4, 3)
        members = set(orbit)
        assert members == {v for v in itertools.product((1, 2), repeat=4) if v.count(2) == 2}
        assert orbit.size == comb(4, 2) == len(members)
        assert orbit.base_vector() == (1, 1, 2, 2)

    def test_column_index_range(self):
        with pytest.raises(ValueError):
            MultiIndexOrbit(3, 5)


class TestSymPow:
    def test_degree_one_is_identity_functor(self):
        mat = RingMatrix.make(ZZ, [[3, 5], [1, 2]])
        assert sym_pow(mat, 1).entries == mat.entries

    def test_unipotent_square(self):
        mat = RingMatrix.make(ZZ, [[1, 1], [0, 1]])
        assert sym_pow(mat, 2).entries == ((1, 2, 1), (0, 1, 1), (0, 0, 1))

    def test_torsion_scalar_maps_to_identity(self):
        # 2^3 = 8 = 1 mod 7
        mat = RingMatrix.make(Zmod(7), [[2, 0], [0, 2]])
        assert sym_pow(mat, 3).is_identity()
        assert sym_pow_kernel_test(mat, 3)

    def test_singular_rejected(self):
        with pytest.raises(SingularMatrixError):
            sym_pow(RingMatrix.make(ZZ, [[2, 0], [0, 1]]), 2)
        with pytest.raises(SingularMatrixError):
            sym_pow(RingMatrix.make(Zmod(6), [[2, 0], [0, 1]]), 2)

    def test_degree_zero_rejected(self):
        with pytest.raises(ValueError):
            sym_pow(RingMatrix.identity(ZZ, 2), 0)

    def test_degree_cap(self):
        with pytest.raises(ValueError):
            sym_pow(RingMatrix.identity(ZZ, 2), 33)

    def test_matches_orbit_enumeration_exhaustive_f3(self):
        for mat in all_invertible(3):
            for n in (1, 2, 3, 4, 5):
                assert sym_pow(mat, n).entries == sym_pow_via_orbits(mat, n).entries

    @given(st.integers(0, 10**6))
    @settings(max_examples=60, deadline=None)
    def test_matches_orbit_enumeration_random(self, seed):
        import random

        rnd = random.Random(seed)
        modulus = rnd.choice([4, 5, 7, 8, 9, 12, 25])
        mat = random_invertible(rnd, Zmod(modulus), modulus)
        n = rnd.randrange(1, 9)
        assert sym_pow(mat, n).entries == sym_pow_via_orbits(mat, n).entries

    def test_matches_orbit_enumeration_over_integers(self):
        mat = RingMatrix.make(ZZ, [[3, 7], [2, 5]])  # det 1
        for n in range(1, 7):
            assert sym_pow(mat, n).entries == sym_pow_via_orbits(mat, n).entries

    @given(
        st.tuples(st.integers(-9, 9), st.integers(-9, 9)).filter(lambda ab: gcd(*ab) == 1),
        st.integers(-3, 3),
        st.sampled_from([1, -1]),
        st.integers(1, 12),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_orbit_enumeration_integer_units(self, first_row, shift, sign, n):
        # complete a primitive first row to det 1, shear the second row by a
        # multiple of the first, then give the matrix determinant sign
        a, b = first_row
        x, y = bezout(a, b)
        c, d = -y + shift * a, x + shift * b
        mat = RingMatrix.make(ZZ, [[a, b], [sign * c, sign * d]])
        assert mat.det() == sign
        assert sym_pow(mat, n).entries == sym_pow_via_orbits(mat, n).entries

    def test_monomial_basis_conjugation(self):
        # D * sym_pow(A, n) == P(A, n) * D where P's (i, j) entry is the
        # coefficient of x^(n-i+1) y^(i-1) in (a11 x + a21 y)^(n-j+1) (a12 x + a22 y)^(j-1)
        # and D = diag(C(n,0), ..., C(n,n)).  Both sides stay in the ring, so
        # the check works even when the binomials are not units.
        for modulus, entries in [(6, (1, 2, 3, 5)), (9, (2, 1, 1, 1)), (10, (3, 4, 1, 3))]:
            ring = Zmod(modulus)
            a, b, c, d = entries
            mat = RingMatrix.make(ring, [[a, b], [c, d]])
            if not mat.is_invertible():
                continue
            for n in (2, 3, 4, 5):
                s = sym_pow(mat, n)
                diag = RingMatrix.make(
                    ring,
                    [[comb(n, i) if i == j else 0 for j in range(n + 1)] for i in range(n + 1)],
                )
                p_rows = []
                for i in range(1, n + 2):
                    row = []
                    for j in range(1, n + 2):
                        coeff = 0
                        # expand (a x + c y)^(n-j+1) (b x + d y)^(j-1), take y-degree i-1
                        for g in range(max(0, i - j), min(n - j + 1, i - 1) + 1):
                            h = i - 1 - g
                            coeff += (
                                comb(n - j + 1, g)
                                * comb(j - 1, h)
                                * a ** (n - j + 1 - g)
                                * c**g
                                * b ** (j - 1 - h)
                                * d**h
                            )
                        row.append(coeff)
                    p_rows.append(row)
                p_mat = RingMatrix.make(ring, p_rows)
                assert (diag @ s).entries == (p_mat @ diag).entries

    @given(st.integers(0, 10**9))
    @settings(max_examples=120, deadline=None)
    def test_functoriality_random(self, seed):
        import random

        rnd = random.Random(seed)
        modulus = rnd.choice([3, 5, 7, 11])
        ring = Zmod(modulus)
        x = random_invertible(rnd, ring, modulus)
        y = random_invertible(rnd, ring, modulus)
        n = rnd.randrange(1, 11)
        assert sym_pow(x @ y, n).entries == (sym_pow(x, n) @ sym_pow(y, n)).entries

    def test_result_invertible_and_det_power_law(self):
        # det(Sym^n A) = det(A)^(n(n+1)/2): classical safety net
        for modulus in (5, 7, 9):
            ring = Zmod(modulus)
            import random

            rnd = random.Random(modulus)
            for _ in range(10):
                mat = random_invertible(rnd, ring, modulus)
                for n in (2, 3, 4):
                    s = sym_pow(mat, n)
                    assert s.is_invertible()
                    assert s.det() == ring.pow(mat.det(), n * (n + 1) // 2)


class TestTraceLaw:
    def test_identity_trace(self):
        for n in (2, 3, 4, 7):
            assert sym_pow_trace(RingMatrix.identity(ZZ, 2), n) == n + 1

    def test_unipotent_trace(self):
        mat = RingMatrix.make(ZZ, [[1, 1], [0, 1]])
        assert sym_pow_trace(mat, 2) == 3  # F_3(4, 1) = 4 - 1

    def test_degree_below_two_rejected(self):
        with pytest.raises(ValueError):
            sym_pow_trace(RingMatrix.identity(ZZ, 2), 1)

    def test_exhaustive_f3(self):
        for mat in all_invertible(3):
            for n in range(2, 9):
                assert sym_pow(mat, n).trace() == sym_pow_trace(mat, n)

    def test_f7_spot(self):
        ring = Zmod(7)
        mat = RingMatrix.make(ring, [[2, 4], [1, 0]])  # trace 2, det 3 mod 7
        assert mat.trace() == 2 and mat.det() == 3
        assert sym_pow(mat, 4).trace() == sym_pow_trace(mat, 4)


class TestKernelLaw:
    def test_identity_always_in_kernel(self):
        for n in (1, 2, 5):
            assert sym_pow_kernel_test(RingMatrix.identity(Zmod(9), 2), n)

    def test_unipotent_not_in_kernel(self):
        assert not sym_pow_kernel_test(RingMatrix.make(Zmod(5), [[1, 1], [0, 1]]), 4)

    @pytest.mark.parametrize("modulus", [4, 5, 6, 9])
    def test_exhaustive_kernel_characterization(self, modulus):
        for mat in all_invertible(modulus):
            for n in (2, 3, 4):
                assert sym_pow_kernel_test(mat, n) == is_torsion_scalar(mat, n)

    def test_record_composite_moduli_behavior(self, capsys):
        # Recorded, not asserted: kernel behavior over extra composite moduli.
        mismatches = []
        for modulus in (8, 12):
            for mat in all_invertible(modulus):
                for n in (2, 3):
                    if sym_pow_kernel_test(mat, n) != is_torsion_scalar(mat, n):
                        mismatches.append((modulus, mat.entries, n))
        print(f"kernel characterization over moduli 8 and 12: {len(mismatches)} mismatches")
