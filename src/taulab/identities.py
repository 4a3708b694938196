"""The exact identities taulab promises, each written once.

Each check takes its range as keyword arguments, whose defaults are the
ranges ``verify`` uses, and yields one ``FAIL`` line per input where its
law breaks.  ``check.passed`` is the line ``verify`` prints when a check
yields nothing, formatted with the keyword arguments ``verify`` passes.
``divisibility_tower`` is the check ``taulab tower`` runs instead, so it
has no such line.  The acceptance criteria and the test suite call the
same checks at their own ranges.
"""

from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction
from typing import Iterator

from . import cyclotomic, density, factor, hecke, rings


def _passes(text: str):
    def mark(check):
        check.passed = text
        return check

    return mark


@_passes("PASS square-product and geometric-sum identities for n <= {n_max}")
def square_product(*, n_max: int) -> Iterator[str]:
    """psi_n((X+Y)^2, XY) = Phi_n, and (X+Y)^e F_n((X+Y)^2, XY) = (X^n - Y^n)/(X - Y)."""
    for n in range(3, n_max + 1):
        lhs = cyclotomic.substitute_square_product(cyclotomic.psi_poly(n))
        if lhs.coeffs != cyclotomic.phi_poly(n).coeffs:
            yield f"FAIL square-product identity at n={n}"
        rhs = cyclotomic.substitute_square_product(cyclotomic.f_poly(n))
        if n % 2 == 0:
            rhs = cyclotomic.multiply_by_x_plus_y(rhs)
        if rhs.coeffs != cyclotomic.geometric_sum_poly(n).coeffs:
            yield f"FAIL geometric-sum identity at n={n}"


@_passes("PASS partial-derivative scaling identity for odd primes q <= 101")
def partial_scaling(*, q_max: int = 101) -> Iterator[str]:
    """Euler's identity X d(psi_q)/dX + Y d(psi_q)/dY = m psi_q, m = deg psi_q."""
    for q in [p for p in factor.primes_up_to(q_max) if p % 2]:
        psi = cyclotomic.psi_poly(q)
        dx, dy = cyclotomic.partial_derivatives(psi)
        m = psi.degree
        euler = [0] * (m + 1)
        for i, c in enumerate(dx.coeffs):
            euler[i] += c
        for i, c in enumerate(dy.coeffs):
            euler[i + 1] += c
        if euler != [m * c for c in psi.coeffs]:
            yield f"FAIL scaling identity for partials at q={q}"


@_passes("PASS discriminant magnitude law for q <= 19")
def discriminant_law(*, qs=(3, 5, 7, 11, 13, 17, 19)) -> Iterator[str]:
    """|disc psi_q(X, 1)| = q^((q-3)/2), and its value at 0 is a unit."""
    for q in qs:
        psi = cyclotomic.psi_poly(q)
        if abs(cyclotomic.discriminant(psi)) != q ** ((q - 3) // 2) or abs(psi.coeffs[-1]) != 1:
            yield f"FAIL discriminant law at q={q}"


def invertible_matrices(modulus: int) -> list[rings.RingMatrix]:
    """GL2(Z/modulus), in lexicographic order of the entries a, b, c, d."""
    ring = rings.Zmod(modulus)
    mats = (rings.RingMatrix.make(ring, [row[:2], row[2:]])
            for row in itertools.product(range(modulus), repeat=4))
    return [mat for mat in mats if mat.is_invertible()]


@_passes("PASS trace and kernel laws exhaustively mod 3 and mod 5, n <= 5")
def trace_kernel_laws(*, n_max: int = 5) -> Iterator[str]:
    """Trace and kernel laws of Sym^n over GL2(F3) and GL2(F5), n in 2..n_max.

    The trace of Sym^n A is the F-law of tr A and det A, and Sym^n A = I
    exactly when A is a scalar whose n-th power is 1.  Each Sym^n is built once.
    """
    for modulus in (3, 5):
        for mat in invertible_matrices(modulus):
            for n in range(2, n_max + 1):
                power = rings.sym_pow(mat, n)
                if power.trace() != rings.sym_pow_trace(mat, n):
                    yield f"FAIL trace law mod {modulus} at {mat.entries}, n={n}"
                if power.is_identity() != rings.is_torsion_scalar(mat, n):
                    yield f"FAIL kernel law mod {modulus} at {mat.entries}, n={n}"


@_passes("PASS functoriality on 200 seeded random pairs mod 11")
def functoriality(*, seed: int, pairs: int = 200) -> Iterator[str]:
    """Sym^n(XY) = Sym^n(X) Sym^n(Y) on seeded random pairs in GL2(F11), n in 1..10."""
    rnd = random.Random(seed)
    ring = rings.Zmod(11)

    def rand_invertible():
        while True:
            mat = rings.RingMatrix.make(ring, [[rnd.randrange(11) for _ in range(2)] for _ in range(2)])
            if mat.is_invertible():
                return mat

    for _ in range(pairs):
        x, y = rand_invertible(), rand_invertible()
        n = rnd.randrange(1, 11)
        if rings.sym_pow(x @ y, n).entries != (rings.sym_pow(x, n) @ rings.sym_pow(y, n)).entries:
            yield f"FAIL functoriality at {x.entries} * {y.entries}, n={n}"


@_passes("PASS density closed forms for q in {{3,5,7}}, ell <= 13")
def density_closed_forms(*, qs=(3, 5, 7), ells=(2, 3, 5, 7, 11, 13)) -> Iterator[str]:
    """The enumerated level-1 density equals its closed form at weight 12."""
    for q in qs:
        for ell in ells:
            r = density.enumerate_density(density.DensityQuery(q, ell, 1, 12))
            if not r.agrees:
                yield f"FAIL closed form at q={q}, ell={ell}: {r.delta} != {r.closed_form}"


@_passes("PASS lift ratio 1/ell at (3,5) and (3,7)")
def lift_ratio(*, cases=((3, 5), (3, 7)), budget=density.DEFAULT_ENUM_BUDGET) -> Iterator[str]:
    """delta(l^2) / delta(l) = 1/l at weight 12 for each (q, l)."""
    for q, ell in cases:
        r = density.lift_factor(q, ell, 12, budget=budget)
        if r.ratio != Fraction(1, ell):
            yield f"FAIL lift ratio at (q={q}, ell={ell}): {r.ratio}"


@_passes("PASS series agrees with the recursion at all prime powers <= {limit}")
def series_recursion(*, limit: int) -> Iterator[str]:
    """tau(p^m) from the shared series equals the Hecke recursion, for p^m <= limit, m >= 2."""
    series = hecke.delta_series_view(limit)
    delta = hecke.EigenformSpec.delta()
    for p in factor.primes_up_to(math.isqrt(limit)):
        powers = [1]  # p^0, ..., p^m <= limit
        while powers[-1] * p <= limit:
            powers.append(powers[-1] * p)
        values = hecke._coeff_powers(delta.ap(p), p, delta.weight, len(powers))
        for m in range(2, len(powers)):
            if series[powers[m]] != values[m]:
                yield f"FAIL series/recursion mismatch at {p}^{m}"


@_passes("PASS coefficient identity a(p^(q-1)) = psi_q(a(p)^2, p^(k-1)) spot checks")
def psi_coefficients(*, qs=(3, 5, 7), primes=(2, 3, 5, 7, 11, 13)) -> Iterator[str]:
    """a(p^(q-1)) = psi_q(a(p)^2, p^11) for the built-in weight-12 form."""
    delta = hecke.EigenformSpec.delta()
    for q in qs:
        for p in primes:
            lhs = hecke.coeff_prime_power(delta, p, q - 1)
            rhs = cyclotomic.eval_poly(cyclotomic.psi_poly(q), delta.ap(p) ** 2, p**11)
            if lhs != rhs:
                yield f"FAIL trace-polynomial identity at q={q}, p={p}"


def divisibility_tower(*, f: hecke.EigenformSpec, p_max: int, max_odd: int) -> Iterator[str]:
    """a_f(p^(d-1)) divides a_f(p^(2n)) for every divisor d > 1 of 2n+1.

    Runs over the primes p <= p_max that do not divide the level and every
    odd 2n+1 <= max_odd, p first; a zero a_f(p^(d-1)) divides only zero.
    """
    for p, ap in zip(*hecke.prime_coeffs(f, p_max)):
        values = hecke._coeff_powers(ap, p, f.weight, max_odd)
        for odd in range(3, max_odd + 1, 2):
            top = values[odd - 1]
            lowers = [values[d - 1] for d in range(3, odd + 1, 2) if odd % d == 0]
            if any(top % lower if lower else top for lower in lowers):
                yield f"FAIL divisibility tower failed at p={p}, 2n={odd - 1}"
