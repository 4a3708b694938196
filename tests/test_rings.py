import itertools
import random
from dataclasses import dataclass
from math import comb, gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from taulab.errors import SingularMatrixError
from taulab.identities import invertible_matrices
from taulab.rings import (
    MAX_SYM_DEGREE,
    ZZ,
    RingMatrix,
    Zmod,
    _int_det,
    is_torsion_scalar,
    sym_pow,
    sym_pow_kernel_test,
    sym_pow_trace,
)


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


def binomial_powers(x, y, n, modulus):
    """Coefficient lists of (x + yX)^k for k = 0..n, reduced mod modulus if given."""
    powers = [[1]]
    for _ in range(n):
        prev = powers[-1]
        nxt = [x * prev[0]]
        nxt += [x * hi + y * lo for lo, hi in zip(prev, prev[1:])]
        nxt.append(y * prev[-1])
        if modulus is not None:
            nxt = [v % modulus for v in nxt]
        powers.append(nxt)
    return powers


def convolution_rows(left, right, n, modulus):
    """Rows of Sym^n: row i convolves (a + bX)^(n-i) with (c + dX)^i.

    left and right are binomial_powers tables of the two matrix rows, of
    degree n or more.
    """
    rows = []
    for twos in range(n + 1):
        row = [0] * (n + 1)
        for s, x in enumerate(left[n - twos]):
            if x:
                for t, y in enumerate(right[twos], s):
                    row[t] += x * y
        rows.append(tuple(row) if modulus is None else tuple(e % modulus for e in row))
    return tuple(rows)


def convolution_sym_pow(entries, n, modulus=None):
    """Entries of Sym^n by O(n^3) binomial convolution: the reference for sym_pow.

    Takes the integer entries ((a, b), (c, d)) and does not ask for an
    invertible matrix, so with modulus None it also gives the unreduced
    integer coefficients behind a Z/m power.
    """
    (a, b), (c, d) = entries
    return convolution_rows(binomial_powers(a, b, n, modulus), binomial_powers(c, d, n, modulus),
                            n, modulus)


@dataclass(frozen=True)
class MultiIndexOrbit:
    """The orbit of the j-th standard multi-index under coordinate permutations.

    Members are the vectors in {1,2}^n with exactly j-1 twos; there are
    C(n, j-1) of them.
    """

    n: int
    j: int

    def __post_init__(self):
        if not (1 <= self.j <= self.n + 1):
            raise ValueError(f"column index {self.j} out of range for degree {self.n}")

    def base_vector(self) -> tuple[int, ...]:
        return (1,) * (self.n - self.j + 1) + (2,) * (self.j - 1)

    @property
    def size(self) -> int:
        return comb(self.n, self.j - 1)

    def __iter__(self):
        for two_positions in itertools.combinations(range(self.n), self.j - 1):
            vec = [1] * self.n
            for pos in two_positions:
                vec[pos] = 2
            yield tuple(vec)


def sym_pow_via_orbits(mat: RingMatrix, n: int) -> RingMatrix:
    """Oracle for sym_pow: the literal orbit sum, entry by entry, for small degrees.

    Entry (i, j) sums, over every arrangement s of the j-th standard
    multi-index, the products of a[r_i[u], s[u]] with r_i the i-th one.
    """
    ring = mat.ring
    norm = ring.normalize
    ent = mat.entries
    rows = []
    for i in range(1, n + 2):
        r_i = MultiIndexOrbit(n, i).base_vector()
        row = []
        for j in range(1, n + 2):
            total = 0
            for s in MultiIndexOrbit(n, j):
                prod = 1
                for t_u, s_u in zip(r_i, s):
                    prod = norm(prod * ent[t_u - 1][s_u - 1])
                total = norm(total + prod)
            row.append(total)
        rows.append(tuple(row))
    return RingMatrix(ring, tuple(rows))


class TestRings:
    def test_modulus_validation(self):
        for m in (1, 0, -7):
            with pytest.raises(ValueError, match=f"modulus must be >= 2, got {m}"):
                Zmod(m)
        assert (repr(ZZ), repr(Zmod(7))) == ("ZZ", "Zmod(7)")

    @given(st.integers(2, 500), st.integers(), st.integers())
    def test_mod_ring_axioms(self, m, x, y):
        # matrix code normalizes once at the end, which is sound because
        # normalize is a ring homomorphism onto the canonical range
        r = Zmod(m)
        rx, ry = r.normalize(x), r.normalize(y)
        assert 0 <= rx < m
        assert r.normalize(x + y) == r.normalize(rx + ry)
        assert r.normalize(x * y) == r.normalize(rx * ry)
        assert r.is_unit(rx) == (gcd(x, m) == 1)

    @given(st.integers(-10**6, 10**6))
    def test_integer_ring_axioms(self, x):
        assert ZZ.normalize(x) == x
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

    def test_det_closed_form_matches_bareiss(self):
        rnd = random.Random(2)
        for _ in range(3000):
            span = rnd.choice([1, 3, 10**6, 10**30])
            entries = [[rnd.randint(-span, span) for _ in range(2)] for _ in range(2)]
            if rnd.random() < 0.3:
                entries[0][0] = 0  # Bareiss must swap rows for this pivot
            modulus = rnd.choice([None, 2, 6, 11, 10**9 + 7])
            ring = ZZ if modulus is None else Zmod(modulus)
            mat = RingMatrix.make(ring, entries)
            assert mat.det() == ring.normalize(_int_det(mat.entries))
        for modulus in (None, 5, 12):
            ring = ZZ if modulus is None else Zmod(modulus)
            for b, c, d in itertools.product(range(-2, 3), repeat=3):
                mat = RingMatrix.make(ring, [[0, b], [c, d]])
                assert mat.det() == ring.normalize(_int_det(mat.entries))

    @pytest.mark.parametrize("ring", [ZZ, Zmod(2), Zmod(7), Zmod(10**12)], ids=repr)
    def test_is_identity_under_one_entry_perturbations(self, ring):
        for dim in range(1, 5):
            ident = RingMatrix.identity(ring, dim)
            assert ident.is_identity()
            for i, j in itertools.product(range(dim), repeat=2):
                for delta in (1, -1, 2, 5):
                    rows = [list(r) for r in ident.entries]
                    rows[i][j] += delta
                    mat = RingMatrix.make(ring, rows)
                    assert mat.is_identity() == (mat == ident)

    @pytest.mark.parametrize("modulus", [None, 2, 11, 2**61 - 1])
    def test_product_matches_the_triple_sum(self, modulus):
        rnd = random.Random(modulus)
        ring = ZZ if modulus is None else Zmod(modulus)
        span = 10**20 if modulus is None else modulus
        for dim in range(1, 13):
            # signed entries over ZZ; make() reduces them into [0, m) over Z/mZ
            x, y = ([[rnd.randint(-span, span) for _ in range(dim)] for _ in range(dim)]
                    for _ in range(2))
            expected = [[sum(x[i][k] * y[k][j] for k in range(dim)) for j in range(dim)]
                        for i in range(dim)]
            if modulus is not None:
                expected = [[e % modulus for e in row] for row in expected]
            product = RingMatrix.make(ring, x) @ RingMatrix.make(ring, y)
            assert product.ring == ring
            assert product.entries == tuple(map(tuple, expected))

    def test_product_rejects_a_mismatched_ring_or_dimension(self):
        x = RingMatrix.identity(Zmod(11), 2)
        for other in (RingMatrix.identity(Zmod(7), 2), RingMatrix.identity(ZZ, 2),
                      RingMatrix.identity(Zmod(11), 3)):
            with pytest.raises(ValueError, match="matching ring and dimension"):
                x @ other
            with pytest.raises(ValueError, match="matching ring and dimension"):
                other @ x


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
        # det 1 each; the last four have an entry that fills the bit length of
        # the slot bound |a| + |b|, so the slot must still hold a sign bit
        for rows in ([[3, 5], [1, 2]], [[200, 1], [199, 1]], [[-200, 1], [199, -1]],
                     [[65000, 1], [64999, 1]], [[2**64 + 1, 1], [2**64, 1]]):
            mat = RingMatrix.make(ZZ, rows)
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
        for mat in invertible_matrices(3):
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
                    assert s.det() == pow(mat.det(), n * (n + 1) // 2, modulus)


class TestSymPowReference:
    def test_every_invertible_matrix_mod_2_to_11(self):
        for modulus in range(2, 12):
            tables = {(x, y): binomial_powers(x, y, 8, modulus)
                      for x in range(modulus) for y in range(modulus)}
            for mat in invertible_matrices(modulus):
                (a, b), (c, d) = mat.entries
                for n in range(1, 9):
                    expected = convolution_rows(tables[a, b], tables[c, d], n, modulus)
                    assert sym_pow(mat, n).entries == expected, (mat.entries, n)

    def test_integer_matrices_with_small_entries(self):
        mats = [e for e in itertools.product(range(-6, 7), repeat=4)
                if abs(e[0] * e[3] - e[1] * e[2]) == 1]
        assert any(0 in e for e in mats) and any(min(e) == -6 for e in mats)
        for idx, (a, b, c, d) in enumerate(mats):
            mat = RingMatrix.make(ZZ, [[a, b], [c, d]])
            for n in {1 + idx % MAX_SYM_DEGREE, MAX_SYM_DEGREE - idx % 8}:
                assert sym_pow(mat, n).entries == convolution_sym_pow(mat.entries, n)

    @pytest.mark.parametrize("modulus", [None, 3, 11, 2**61 - 1, 10**30])
    def test_coefficient_at_the_size_bound(self, modulus):
        # a diagonal or antidiagonal matrix has monomial row powers, so its
        # largest unreduced coefficient is exactly +-max(|a|+|b|, |c|+|d|)^n
        ring = ZZ if modulus is None else Zmod(modulus)
        units = (1, -1) if modulus is None else (1, modulus - 1)
        hit_negative = False
        for x, y in itertools.product(units, repeat=2):
            for entries in ([[x, 0], [0, y]], [[0, x], [y, 0]]):
                mat = RingMatrix.make(ring, entries)
                (a, b), (c, d) = mat.entries
                for n in range(1, MAX_SYM_DEGREE + 1):
                    bound = max(abs(a) + abs(b), abs(c) + abs(d)) ** n
                    unreduced = [e for row in convolution_sym_pow(mat.entries, n) for e in row]
                    assert max(map(abs, unreduced)) == bound
                    hit_negative |= -bound in unreduced
                    assert sym_pow(mat, n).entries == convolution_sym_pow(mat.entries, n, modulus)
        assert hit_negative == (modulus is None)


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

    def test_rejects_singular_and_bad_shapes(self):
        with pytest.raises(SingularMatrixError):
            sym_pow_trace(RingMatrix.make(ZZ, [[2, 0], [0, 1]]), 2)
        with pytest.raises(SingularMatrixError):
            sym_pow_trace(RingMatrix.make(Zmod(6), [[2, 0], [0, 1]]), 3)
        with pytest.raises(ValueError):
            sym_pow_trace(RingMatrix.identity(ZZ, 3), 2)
        with pytest.raises(ValueError):
            sym_pow_trace(RingMatrix.identity(ZZ, 2), MAX_SYM_DEGREE + 1)

    def test_matches_sym_pow_over_integers_and_large_moduli(self):
        rnd = random.Random(13)
        for ring in (ZZ, Zmod(12), Zmod(97), Zmod(10**30)):
            checked = 0
            while checked < 40:
                entries = [[rnd.randint(-6, 6) for _ in range(2)] for _ in range(2)]
                mat = RingMatrix.make(ring, entries)
                if not mat.is_invertible():
                    continue
                n = rnd.randint(2, MAX_SYM_DEGREE)
                assert sym_pow(mat, n).trace() == sym_pow_trace(mat, n), (ring, entries, n)
                checked += 1

    def test_exhaustive_f3(self):
        for mat in invertible_matrices(3):
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

    def test_kernel_over_the_integers(self):
        # over Z the only torsion scalars are 1 and -1, and -1 only at even n
        for lam in (1, -1):
            mat = RingMatrix.make(ZZ, [[lam, 0], [0, lam]])
            for n in range(1, 6):
                assert sym_pow_kernel_test(mat, n) == is_torsion_scalar(mat, n) == (lam**n == 1)
        assert not is_torsion_scalar(RingMatrix.make(ZZ, [[1, 1], [0, 1]]), 2)

    @pytest.mark.parametrize("modulus", [4, 5, 6, 9])
    def test_exhaustive_kernel_characterization(self, modulus):
        for mat in invertible_matrices(modulus):
            for n in (2, 3, 4):
                assert sym_pow_kernel_test(mat, n) == is_torsion_scalar(mat, n)

    def test_record_composite_moduli_behavior(self, capsys):
        # Recorded, not asserted: kernel behavior over extra composite moduli.
        mismatches = []
        for modulus in (8, 12):
            for mat in invertible_matrices(modulus):
                for n in (2, 3):
                    if sym_pow_kernel_test(mat, n) != is_torsion_scalar(mat, n):
                        mismatches.append((modulus, mat.entries, n))
        print(f"kernel characterization over moduli 8 and 12: {len(mismatches)} mismatches")
