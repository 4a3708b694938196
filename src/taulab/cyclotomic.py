"""Exact integer construction and calculus of the trace polynomials.

Three homogeneous bivariate families live here, all with roots of the
shape 4*cos^2(pi*j/n):

* ``phi_poly(n)``  -- the homogenized n-th cyclotomic polynomial,
* ``psi_poly(n)``  -- the degree phi(n)/2 polynomial with
  ``phi(X, Y) == psi((X+Y)^2, X*Y)``,
* ``f_poly(n)``    -- the analogue for (X^n - Y^n)/(X - Y), with an
  extra (X+Y) factor when n is even.

Construction never touches complex roots of unity.  F_n is Lucas's
closed form: (X^n - Y^n)/(X - Y) = U_n(P, Q) with P = X + Y, Q = XY, a
sum of signed binomials in P^2 and Q.  psi_n is F_n divided exactly by
psi_d for every divisor 3 <= d < n of n, since (X^n - Y^n)/(X - Y) is
the product of Phi_d over the divisors d > 1 and F_n leaves out
Phi_2 = X + Y.  Phi_n is built separately, by dividing x^n - 1 by the
cyclotomic polynomials of the proper divisors, so the square-product
identity compares two independent constructions.  Everything
downstream (evaluation, partial derivatives, discriminants, prime-power
classification) is exact big-integer arithmetic.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from functools import lru_cache
from math import comb, gcd

from . import factor
from .errors import BudgetExceededError, IdentityViolationError

# the largest index one ``psi`` request may dump alone: see ``dump_poly_lines``
MAX_DUMP_INDEX = 6000


@dataclass(frozen=True)
class BivariatePoly:
    """Homogeneous polynomial sum(c_i * X^(m-i) * Y^i), coeffs c_0..c_m."""

    coeffs: tuple[int, ...]

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1


def _poly_divexact(num: list[int], den: list[int]) -> list[int]:
    """Exact division of dense integer polynomials; raises if inexact."""
    num = list(num)
    dn = len(den) - 1
    lead = den[-1]
    out = [0] * (len(num) - dn)
    for k in range(len(out) - 1, -1, -1):
        q, r = divmod(num[k + dn], lead)
        if r:
            raise ArithmeticError("inexact polynomial division")
        out[k] = q
        if q:
            for j, cd in enumerate(den):
                num[k + j] -= q * cd
    if any(num):
        raise ArithmeticError("nonzero remainder in exact polynomial division")
    return out


@lru_cache(maxsize=None)
def _cyclotomic_univariate(n: int) -> tuple[int, ...]:
    """Coefficients (low-to-high) of the n-th cyclotomic polynomial."""
    # x^n - 1 divided by the cyclotomic polynomials of the proper divisors.
    poly = [-1] + [0] * (n - 1) + [1]
    for d in range(1, n):
        if n % d == 0:
            poly = _poly_divexact(poly, list(_cyclotomic_univariate(d)))
    return tuple(poly)


def phi_poly(n: int) -> BivariatePoly:
    """Homogenized n-th cyclotomic polynomial; degree phi(n).

    Built by cyclotomic division alone, independent of psi_poly, so the
    square-product identity checks one construction against the other.
    """
    if n < 1:
        raise ValueError(f"cyclotomic index must be >= 1, got {n}")
    uni = _cyclotomic_univariate(n)
    # coefficient of x^j homogenizes to X^j Y^(deg-j), stored at index deg-j
    return BivariatePoly(tuple(reversed(uni)))


@lru_cache(maxsize=None)
def f_poly(n: int) -> BivariatePoly:
    """Monic polynomial with (X^n-Y^n)/(X-Y) = (X+Y)^e * F_n((X+Y)^2, XY), e = n mod 2 flipped.

    U_n(P, Q) = sum_k (-1)^k C(n-1-k, k) P^(n-1-2k) Q^k, so the
    X^(m-k) Y^k coefficient of F_n, m = (n-1)//2, is (-1)^k C(n-1-k, k).
    """
    if n < 3:
        raise ValueError(f"F is defined for n >= 3, got {n}")
    return BivariatePoly(tuple((-1) ** k * comb(n - 1 - k, k) for k in range((n - 1) // 2 + 1)))


@lru_cache(maxsize=None)
def psi_poly(n: int) -> BivariatePoly:
    """Monic degree phi(n)/2 polynomial with phi_n(X,Y) = psi_n((X+Y)^2, XY).

    F_n divided by psi_d for every divisor 3 <= d < n of n.  The
    coefficient tuples are read low-to-high in Y at X = 1, where every
    psi_d has a nonzero top coefficient psi_d(0, 1) = +-Phi_d(-1).
    """
    if n < 3:
        raise ValueError(f"psi is defined for n >= 3, got {n}")
    # F_n is only a step here; building it uncached keeps it out of f_poly's cache
    coeffs = list(f_poly.__wrapped__(n).coeffs)
    for d in range(3, n // 2 + 1):
        if n % d == 0:
            coeffs = _poly_divexact(coeffs, list(psi_poly(d).coeffs))
    return BivariatePoly(tuple(coeffs))


def eval_poly(p: BivariatePoly, x: int, y: int) -> int:
    """Exact value sum c_i x^(m-i) y^i."""
    acc = p.coeffs[0]
    ypow = 1
    for c in p.coeffs[1:]:
        ypow *= y
        acc = acc * x + c * ypow
    return acc


def eval_poly_mod(p: BivariatePoly, x: int, y: int, m: int) -> int:
    """eval_poly reduced mod m, with mod-m arithmetic throughout."""
    if m < 2:
        raise ValueError(f"modulus must be >= 2, got {m}")
    x %= m
    y %= m
    acc = p.coeffs[0] % m
    ypow = 1
    for c in p.coeffs[1:]:
        ypow = ypow * y % m
        acc = (acc * x + c * ypow) % m
    return acc


def partial_derivatives(p: BivariatePoly) -> tuple[BivariatePoly, BivariatePoly]:
    """Formal partials (dP/dX, dP/dY); rejects degree-0 input."""
    m = p.degree
    if m < 1:
        raise ValueError("cannot differentiate a degree-0 polynomial")
    dx = tuple(c * (m - i) for i, c in enumerate(p.coeffs[:-1]))
    dy = tuple(c * i for i, c in enumerate(p.coeffs) if i > 0)
    return BivariatePoly(dx), BivariatePoly(dy)


# native integer format by (slot bytes, signed): the slot sizes one memoryview cast reads
_SLOT_CODES = {(memoryview(b"").cast(code).itemsize, code.islower()): code
               for code in "BHILQbhilq"}

# each slot size up to the widest native integer, rounded up to a native size
_NATIVE_SIZE = {k: min(s for s, _ in _SLOT_CODES if s >= k)
                for k in range(1, max(_SLOT_CODES)[0] + 1)}


def _slot_size(bound: int) -> int:
    """Bytes per slot for coefficients of size at most bound, with a sign bit.

    Whole bytes, rounded up to the next native integer size when one is
    that wide, so that _read_slots reads the slots in one cast.
    """
    size = bound.bit_length() // 8 + 1
    return _NATIVE_SIZE.get(size, size)


def _read_slots(packed: int, size: int, count: int, signed: bool = True) -> list[int]:
    """The integers c_0..c_{count-1} with packed = sum c_j 2^(8 size j).

    Slots are whole bytes, so the width is a bit bound rounded up to a
    multiple of 8 (see _slot_size).  A signed pack needs every c_j in
    [-2^(8 size - 1), 2^(8 size - 1)).  Adding the excess
    E = sum_k 2^(8 size - 1) 2^(8 size k), the top bit of every slot, puts
    each slot at c_j + 2^(8 size - 1) in [0, 2^(8 size)), so no slot
    borrows from its neighbour, the rule the decimal series slots follow;
    xor with E then leaves each slot as c_j in two's complement.  A
    non-negative pack (every c_j in [0, 2^(8 size))) skips the excess.
    The bytes are read by one memoryview cast when the slot size is a
    native integer size, and by int.from_bytes per slot otherwise, so
    the cost is linear in the size of the pack.
    """
    if signed:
        excess = int.from_bytes((bytes(size - 1) + b"\x80") * count, "little")
        packed = (packed + excess) ^ excess
    code = _SLOT_CODES.get((size, signed))
    if code is None:
        raw = packed.to_bytes(size * count, "little")
        return [int.from_bytes(raw[at : at + size], "little", signed=signed)
                for at in range(0, len(raw), size)]
    # in the host's byte order each slot reads natively; a big-endian host
    # then holds the slots last one first
    slots = memoryview(packed.to_bytes(size * count, sys.byteorder)).cast(code).tolist()
    if sys.byteorder == "big":
        slots.reverse()
    return slots


def substitute_square_product(p: BivariatePoly) -> BivariatePoly:
    """Expand P((X+Y)^2, XY) exactly as a homogeneous polynomial of degree 2m.

    Computed through the Y=1 slice sum c_i (x+1)^(2(m-i)) x^i, which
    determines the homogeneous result uniquely, by Horner's rule in
    (x+1)^2: H_i = H_(i-1) (x+1)^2 + c_i x^i.  The polynomials are packed
    into one integer at x = 2^K, so each step is three shifts and
    additions, and the result is read back in one pass of K-bit slots,
    K a whole number of bytes.
    """
    m = p.degree
    # (x+1)^(2e) has coefficient sum 4^e, which bounds every output coefficient
    bound = sum(abs(c) << 2 * (m - i) for i, c in enumerate(p.coeffs))
    size = _slot_size(bound)
    width = 8 * size
    acc = 0
    for i, c in enumerate(p.coeffs):
        acc = (acc << 2 * width) + (acc << width + 1) + acc + (c << width * i)
    # coefficient of x^j lifts to X^j Y^(2m-j), stored at index 2m-j
    return BivariatePoly(tuple(reversed(_read_slots(acc, size, 2 * m + 1))))


def geometric_sum_poly(n: int) -> BivariatePoly:
    """The homogeneous polynomial sum_{i<n} X^(n-1-i) Y^i."""
    return BivariatePoly((1,) * n)


def multiply_by_x_plus_y(p: BivariatePoly) -> BivariatePoly:
    m = p.degree
    out = [0] * (m + 2)
    for i, c in enumerate(p.coeffs):
        out[i] += c  # X * X^(m-i) Y^i
        out[i + 1] += c  # Y * X^(m-i) Y^i
    return BivariatePoly(tuple(out))


def _int_det(rows) -> int:
    """Exact determinant of an integer matrix (fraction-free Bareiss)."""
    a = [list(map(int, r)) for r in rows]
    n = len(a)
    if n == 1:
        return a[0][0]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k]:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def discriminant(p: BivariatePoly) -> int:
    """Discriminant of p(X, 1), via its resultant with the X-partial.

    The Sylvester rows are the shifted coefficients of p(X, 1) and of
    dp/dX(X, 1), highest power first.  Degree-1 polynomials return 1 by
    convention; degree 0 and a zero X^m coefficient are rejected.
    """
    m = p.degree
    if m < 1:
        raise ValueError("discriminant needs degree >= 1")
    lead = p.coeffs[0]
    if lead == 0:
        raise ValueError("discriminant needs a nonzero X^m coefficient")
    if m == 1:
        return 1
    dx = list(partial_derivatives(p)[0].coeffs)
    rows = [[0] * i + list(p.coeffs) + [0] * (m - 2 - i) for i in range(m - 1)]
    rows += [[0] * i + dx + [0] * (m - 1 - i) for i in range(m)]
    q, r = divmod((-1) ** (m * (m - 1) // 2) * _int_det(rows), lead)
    if r:
        raise ArithmeticError("resultant not divisible by leading coefficient")
    return q


class PsiPrimePowerClass:
    """Which disjunct of the prime-power divisor law holds."""

    PLUS_MINUS_ONE_MOD_M = "PlusMinusOneModM"
    DIVIDES_M = "DividesM"


def classify_psi_prime_power(m: int, u: int, v: int, p: int) -> str:
    """Classify the prime p dividing psi_m(u, v) for coprime u, v.

    The exact power p^a dividing the value is computed internally.
    Every prime divisor must satisfy p = +-1 (mod m) or p^a | m; a
    counterexample raises IdentityViolationError, which no input with
    m = 5 or m >= 7 should ever trigger.
    """
    if m != 5 and m < 7:
        raise ValueError(f"classification is defined for m = 5 or m >= 7, got {m}")
    if gcd(u, v) != 1:
        raise ValueError(f"u={u} and v={v} must be coprime")
    if not factor.is_prime(p):
        raise ValueError(f"{p} is not prime")
    value = eval_poly(psi_poly(m), u, v)
    if value == 0:
        raise ValueError(f"psi_{m}({u},{v}) = 0 has no prime-power classification")
    value = abs(value)
    if value % p != 0:
        raise ValueError(f"{p} does not divide psi_{m}({u},{v}) = {value}")
    a = 0
    while value % p == 0:
        value //= p
        a += 1
    if p % m in (1, m - 1):
        return PsiPrimePowerClass.PLUS_MINUS_ONE_MOD_M
    if m % p**a == 0:
        return PsiPrimePowerClass.DIVIDES_M
    raise IdentityViolationError(
        f"prime power {p}^{a} divides psi_{m}({u},{v}) but {p} is not +-1 mod {m} "
        f"and {p}^{a} does not divide {m}"
    )


def dump_poly_line(kind: str, n: int) -> str:
    """Golden-file dump format: one line, coefficients of X^(m-i) Y^i in decimal."""
    builders = {"PSI": psi_poly, "PHI": phi_poly, "F": f_poly}
    if kind not in builders:
        raise ValueError(f"unknown polynomial family {kind!r}")
    p = builders[kind](n)
    return f"{kind} {n}: " + " ".join(str(c) for c in p.coeffs)


def dump_poly_lines(kind: str, low: int, high: int) -> str:
    """``dump_poly_line`` for each index low..high, one line each.

    F_n, which psi_n is divided out of, has about n/2 coefficients of up
    to 0.21 n digits, so a request's work is taken as the sum of n^2 over
    its indices.  Past MAX_DUMP_INDEX^2 raise BudgetExceededError before
    any polynomial is built.  An index below 1 is left to its builder,
    which refuses it.
    """
    work = high * (high + 1) * (2 * high + 1) // 6 - (low - 1) * low * (2 * low - 1) // 6
    if low >= 1 and work > MAX_DUMP_INDEX**2:
        raise BudgetExceededError(f"the squares of indices {low}..{high} sum past the cap of "
                                  f"{MAX_DUMP_INDEX}^2", work, MAX_DUMP_INDEX**2)
    return "\n".join(dump_poly_line(kind, n) for n in range(low, high + 1))
