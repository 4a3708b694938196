"""Commutative rings, square matrices over them, and symmetric powers.

A ``Ring`` is the integers (``ZZ``, modulus None) or Z/mZ (``Zmod(m)``,
m >= 2) with canonical representatives in [0, m).  It only normalizes
and tests units: matrix code computes on the canonical integer entries
and normalizes the result, which equals computing in the ring because
reduction mod m is a ring homomorphism.

The symmetric power map sends an invertible 2x2 matrix A to the
(n+1)x(n+1) matrix of the induced automorphism of symmetric n-tensors,
written in the unnormalized orbit-sum basis, so off-diagonal entries
carry binomial multiplicities (Sym^2 of [[a,b],[c,d]] has 2ab in its
first row, not ab).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from .cyclotomic import _int_det, _unpack_signed, eval_poly, f_poly
from .errors import SingularMatrixError

# sym_pow costs n + 1 big-integer products of O(n^2 log(entry)) bits; the
# cap bounds what the CLI prints, (n+1)^2 entries.  Degrees needed in
# practice are q - 1 for small odd primes q.
MAX_SYM_DEGREE = 32


@dataclass(frozen=True)
class Ring:
    """The integers (modulus None) or Z/mZ with canonical representatives in [0, m)."""

    modulus: int | None

    def __post_init__(self):
        if self.modulus is not None and self.modulus < 2:
            raise ValueError(f"modulus must be >= 2, got {self.modulus}")

    def normalize(self, x: int) -> int:
        return int(x) if self.modulus is None else int(x) % self.modulus

    def is_unit(self, x: int) -> bool:
        return x in (1, -1) if self.modulus is None else gcd(x, self.modulus) == 1

    def __repr__(self):
        return "ZZ" if self.modulus is None else f"Zmod({self.modulus})"


ZZ = Ring(None)


def Zmod(m: int) -> Ring:
    return Ring(m)


@dataclass(frozen=True)
class RingMatrix:
    """A square matrix with normalized entries over a fixed ring."""

    ring: Ring
    entries: tuple[tuple[int, ...], ...]

    @staticmethod
    def make(ring, rows) -> "RingMatrix":
        rows = tuple(tuple(ring.normalize(x) for x in r) for r in rows)
        dim = len(rows)
        if dim == 0 or any(len(r) != dim for r in rows):
            raise ValueError("matrix must be square and non-empty")
        return RingMatrix(ring, rows)

    @staticmethod
    def identity(ring, dim: int) -> "RingMatrix":
        return RingMatrix(
            ring, tuple(tuple(1 if i == j else 0 for j in range(dim)) for i in range(dim))
        )

    @property
    def dim(self) -> int:
        return len(self.entries)

    def trace(self):
        return self.ring.normalize(sum(row[i] for i, row in enumerate(self.entries)))

    def det(self):
        """Determinant in the ring: ad - bc at dim 2, fraction-free Bareiss above.

        Entries are canonical integers, so the exact integer determinant
        reduced into the ring is the ring determinant.
        """
        if self.dim == 2:
            (a, b), (c, d) = self.entries
            return self.ring.normalize(a * d - b * c)
        return self.ring.normalize(_int_det(self.entries))

    def is_invertible(self) -> bool:
        return self.ring.is_unit(self.det())

    def is_identity(self) -> bool:
        return all(row[i] == 1 and row.count(0) == len(row) - 1
                   for i, row in enumerate(self.entries))

    def __matmul__(self, other: "RingMatrix") -> "RingMatrix":
        if self.ring != other.ring or self.dim != other.dim:
            raise ValueError("matrix product needs matching ring and dimension")
        r = self.ring
        n = self.dim
        bcols = list(zip(*other.entries))
        rows = tuple(
            tuple(r.normalize(sum(ra[k] * cb[k] for k in range(n))) for cb in bcols)
            for ra in self.entries
        )
        return RingMatrix(r, rows)


def _require_sym_args(a: RingMatrix, n: int):
    """Reject a bad degree or a non-invertible 2x2 matrix; return its determinant."""
    if n < 1:
        raise ValueError(f"symmetric power degree must be >= 1, got {n}")
    if n > MAX_SYM_DEGREE:
        raise ValueError(f"symmetric power degree {n} above supported cap {MAX_SYM_DEGREE}")
    if a.dim != 2:
        raise ValueError(f"symmetric power is defined on 2x2 matrices, got dim {a.dim}")
    det = a.det()
    if not a.ring.is_unit(det):
        raise SingularMatrixError(f"matrix {a.entries} is singular over {a.ring}")
    return det


def sym_pow(mat: RingMatrix, n: int) -> RingMatrix:
    """Symmetric n-th power of an invertible 2x2 matrix.

    Entry (i, j) is the orbit sum over all arrangements s of the j-th
    standard multi-index of the products a[r_i[u], s[u]].  Counting the
    twos of s in each of the two blocks of r_i turns that sum into the
    coefficient of X^(j-1) in (a + bX)^(n-i+1) (c + dX)^(i-1).  Each row
    is that product evaluated at X = 2^K as one big-integer product
    (Kronecker substitution) and read back K bits per coefficient, with
    K wide enough for max(|a|+|b|, |c|+|d|)^n and a sign.  The work is
    done on the canonical integer entries and each entry is normalized
    once; ring operations are homomorphic, so this is the same orbit sum.
    """
    _require_sym_args(mat, n)
    ring = mat.ring
    (a, b), (c, d) = mat.entries
    m = ring.modulus
    # every coefficient of row i is at most (|a|+|b|)^(n-i) (|c|+|d|)^i in size
    width = (max(abs(a) + abs(b), abs(c) + abs(d)) ** n).bit_length() + 2
    left, right = a + (b << width), c + (d << width)
    rows = []
    for twos in range(n + 1):
        row = _unpack_signed(left ** (n - twos) * right**twos, width, n + 1)
        rows.append(tuple(row) if m is None else tuple(e % m for e in row))
    return RingMatrix(ring, tuple(rows))


def sym_pow_trace(mat: RingMatrix, n: int):
    """Trace of sym_pow(mat, n) from the trace and determinant alone.

    Returns tr(A)^e * F_{n+1}(tr(A)^2, det(A)) evaluated in the ring,
    where e is 1 when n+1 is even and 0 otherwise.  The value is formed
    on the canonical integers and normalized once.
    """
    if n < 2:
        raise ValueError(f"trace formula needs degree >= 2, got {n}")
    det = _require_sym_args(mat, n)
    t = mat.trace()
    val = eval_poly(f_poly(n + 1), t * t, det)
    if (n + 1) % 2 == 0:
        val *= t
    return mat.ring.normalize(val)


def sym_pow_kernel_test(mat: RingMatrix, n: int) -> bool:
    """True when the symmetric n-th power of mat is the identity."""
    return sym_pow(mat, n).is_identity()


def is_torsion_scalar(mat: RingMatrix, n: int) -> bool:
    """True when mat equals lambda*I with lambda^n = 1 in the ring."""
    (a, b), (c, d) = mat.entries
    m = mat.ring.modulus
    return b == c == 0 and a == d and (a**n if m is None else pow(a, n, m)) == 1
