"""Coefficients of integer eigenforms at prime powers.

The built-in form is the weight-12 level-1 cusp form whose coefficients
are the tau values; its series comes from the eighth power of the cube
identity sum((-1)^j (2j+1) x^(j(j+1)/2)), computed as one sparse square
(eta^6) followed by two dense squarings (eta^12, then eta^24).  The dense
stage is Kronecker substitution in base 10^w: the signed eta^6 list is
packed once into one big decimal number, a_0 in the lowest w-digit slot,
and squared in the standard library's ``decimal`` module, whose libmpdec
core switches to a number-theoretic transform for large operands.  The
square's low n slots, taken mod 10^(n w), are the ten's complement of
eta^12; eta^12 stays in ``decimal``, is widened slot by slot to the
second width and squared again, and only the low slots of that square
are read back into Python integers.  The context traps every rounding
signal, so each step is exact or raises.

General forms are ingested from CSV tables of a_p values.  The
prime-power coefficient a(p^m) is the Lucas term U_{m+1}(a(p), p^(k-1))
of the weight-k recursion a(p^m) = a(p) a(p^(m-1)) - p^(k-1) a(p^(m-2)).
A single term comes from the doubling ladder in O(log m) products; a
prefix a(p^0), ..., a(p^(count-1)) from one pass of the recursion.
"""

from __future__ import annotations

import csv
import decimal
import math
import struct
import threading
from dataclasses import dataclass, field
from itertools import repeat
from operator import add, sub

from . import factor
from .errors import BudgetExceededError, DataExhaustedError, TableFormatError

DEFAULT_SERIES_CEILING = 10**7
# most decimal digits a single a(p^m) may have: printing is quadratic in
# them, and an answer at the cap prints in about 2 s
MAX_COEFF_DIGITS = 500_000

mpz = int  # read only by the benchmark's environment report (perfbench/run.py)

# Context of the series squarings.  With every rounding-related signal
# trapped, a step that would lose a digit raises instead of returning
# wrong coefficients.
_EXACT = decimal.Context(
    prec=decimal.MAX_PREC,
    Emax=decimal.MAX_EMAX,
    Emin=decimal.MIN_EMIN,
    traps=[decimal.Inexact, decimal.Rounded, decimal.InvalidOperation, decimal.Overflow],
)
_BLOCK = 4096  # slots per string piece while packing and unpacking


def _eta_cube_sparse(out_len: int) -> list[tuple[int, int]]:
    """Nonzero terms (exponent, coefficient) of the cube identity series."""
    terms = []
    j = 0
    while j * (j + 1) // 2 < out_len:
        terms.append((j * (j + 1) // 2, (2 * j + 1) * (1 if j % 2 == 0 else -1)))
        j += 1
    return terms


def _square_sparse(terms: list[tuple[int, int]], out_len: int) -> list[int]:
    out = [0] * out_len
    for i, (e1, c1) in enumerate(terms):
        if 2 * e1 >= out_len:
            break
        out[2 * e1] += c1 * c1
        for e2, c2 in terms[i + 1 :]:
            e = e1 + e2
            if e >= out_len:
                break
            out[e] += 2 * c1 * c2
    return out


# Slot arithmetic.  A series c_0, ..., c_(n-1) packs in base B = 10^w as
# sum c_k B^k, c_0 in the lowest slot.  A packed square is only ever read
# mod B^n, which is the truncated square: the slots from n up are a
# multiple of B^n whatever their signs and sizes.  Mod B^n the signed
# value is a ten's complement; adding B/2 to every slot (the excess E
# below) turns each slot into c_k + B/2, a w-digit string with no borrow
# from its neighbours, provided every c_k lies in [-B/2, B/2).


def _slot_width(bound: int) -> int:
    """Fewest digits w with bound <= 10^w / 2 - 1, so |c| <= bound fits an excess slot."""
    return len(str(2 * bound + 1))


def _excess(n: int, w: int, lead: int = 0) -> decimal.Decimal:
    """E = sum over k < n of (10^w / 2) 10^((w + lead) k), built by doubling.

    Its digit string is n slots of 5 followed by w - 1 zeros, each behind
    lead more zeros; doubling makes it in log n exact additions, several
    times faster than parsing that string.
    """
    step = w + lead
    run, size = decimal.Decimal(10**w // 2), 1  # run holds `size` slots
    total, shift = decimal.Decimal(0), 0
    while n:
        if n & 1:
            total = _EXACT.add(total, run.scaleb(shift, _EXACT))
            shift += size * step
        n >>= 1
        if n:
            run = _EXACT.add(run, run.scaleb(size * step, _EXACT))
            size *= 2
    return total


def _pack(a: list[int], w: int) -> decimal.Decimal:
    """sum a_i 10^(w i), exact, for a list with every a_i in [-10^w / 2, 10^w / 2).

    Each a_i is written as the excess slot a_i + 10^w / 2, a_0 last, and
    subtracting the excess undoes the offset.
    """
    n = len(a)
    half, slot = 10**w // 2, f"%0{w}d".__mod__
    blocks = [
        "".join(map(slot, map(add, reversed(a[i : i + _BLOCK]), repeat(half))))
        for i in range(0, n, _BLOCK)
    ]
    blocks.reverse()  # a_0 ends up in the lowest slot
    digits = "".join(blocks)
    del blocks
    x = decimal.Decimal(digits)
    del digits
    return _EXACT.subtract(x, _excess(n, w))


def _square_low(x: decimal.Decimal, n: int, w: int) -> bytes:
    """Digits of (x^2 + E) mod 10^(n w): slot k holds c_k + 10^w / 2.

    c is the square of the packed series truncated to n terms, and every
    c_k must lie in [-10^w / 2, 10^w / 2).  The top half of the square is
    cut off by exact scaleb / to_integral_value / subtract, so only n w
    digits are ever written out as a string.
    """
    digits = n * w
    t = _EXACT.add(_EXACT.multiply(x, x), _excess(n, w))
    high = t.scaleb(-digits, _EXACT).to_integral_value(decimal.ROUND_DOWN, _EXACT)
    low = _EXACT.subtract(t, high.scaleb(digits, _EXACT))
    del t, high
    return str(low).zfill(digits).encode("ascii")


def _widen(slots: bytes, n: int, w: int, w2: int) -> decimal.Decimal:
    """sum c_k 10^(w2 k) from n excess slots of w <= w2 digits.

    Each slot moves behind w2 - w zeros by w strided copies, so no Python
    object is made per coefficient; subtracting the excess of the moved
    slots leaves the signed value.
    """
    out = bytearray(b"0") * (n * w2)
    for j in range(w):
        out[w2 - w + j :: w2] = slots[j::w]
    x = decimal.Decimal(out.decode("ascii"))
    del out
    return _EXACT.subtract(x, _excess(n, w, w2 - w))


def _unpack(slots: bytes, n: int, w: int) -> list[int]:
    """[c_0, ..., c_(n-1)] from n excess slots of w digits, read block by block."""
    half = 10**w // 2
    out: list[int] = []
    for start in range(0, n, _BLOCK):
        end = min(n, start + _BLOCK)
        block = struct.unpack_from(f"{w}s" * (end - start), slots, (n - end) * w)
        out.extend(map(sub, map(int, reversed(block)), repeat(half)))
    return out


def tau_series(limit: int) -> list[int]:
    """Exact tau values; returned list has result[n] = tau(n), result[0] = 0.

    A limit above DEFAULT_SERIES_CEILING, read at each call, raises
    BudgetExceededError before any work.

    Slot widths, both proved rather than measured:

    * eta^12 uses w1 = _slot_width(sum a_i^2) over the eta^6 coefficients
      a_i: by Cauchy-Schwarz |eta^12_k| <= sum a_i^2 (17 digits at 10^5).
    * eta^24 = Delta / q uses w2 = _slot_width(2 limit^6): Deligne's bound
      |tau(m)| <= d(m) m^(11/2) with d(m) < 2 sqrt(m) (divisors pair up
      about sqrt(m)) gives |tau(m)| < 2 m^6 <= 2 limit^6 (31 digits at
      10^5).  w2 is taken at least w1 so that widening only adds digits.
    """
    if limit < 1:
        raise ValueError(f"series length must be >= 1, got {limit}")
    ceiling = DEFAULT_SERIES_CEILING
    if limit > ceiling:
        raise BudgetExceededError(
            f"series length {limit} above memory ceiling {ceiling}", needed=limit, cap=ceiling
        )
    # each buffer is dropped once consumed: at 10^6 terms they are tens of MB
    eta6 = _square_sparse(_eta_cube_sparse(limit), limit)
    w1 = _slot_width(sum(c * c for c in eta6))
    w2 = max(w1, _slot_width(2 * limit**6))
    x = _pack(eta6, w1)
    del eta6
    eta12 = _square_low(x, limit, w1)
    del x
    x = _widen(eta12, limit, w1, w2)
    del eta12
    series = _unpack(_square_low(x, limit, w2), limit, w2)
    series.insert(0, 0)
    return series


_lock = threading.Lock()
_series: list[int] = [0]


def _tau_upto(n: int) -> list[int]:
    """The shared grow-only tau series, grown to hold index n; safe for concurrent readers."""
    global _series
    if n >= len(_series):
        with _lock:
            if n >= len(_series):
                grown = min(max(2 * (len(_series) - 1), 1024), DEFAULT_SERIES_CEILING)
                _series = tau_series(max(n, grown))  # tau_series refuses n past the ceiling
    return _series


@dataclass(frozen=True)
class CoefficientTable:
    """a_p values for all primes p <= bound with p not dividing the level."""

    bound: int
    entries: dict[int, int] = field(default_factory=dict)

    def ap(self, p: int) -> int:
        if p > self.bound:
            raise DataExhaustedError(f"table covers primes up to {self.bound}, asked for {p}")
        try:
            return self.entries[p]
        except KeyError:
            raise DataExhaustedError(f"no a_p entry for prime {p}") from None


@dataclass(frozen=True)
class EigenformSpec:
    """A weight-k level-N integer eigenform with a coefficient source."""

    weight: int
    level: int
    label: str = ""
    table: CoefficientTable | None = None  # None means the built-in tau form

    def __post_init__(self):
        if self.weight < 2 or self.weight % 2:
            raise ValueError(f"weight must be an even integer >= 2, got {self.weight}")
        if self.level < 1:
            raise ValueError(f"level must be >= 1, got {self.level}")
        if self.table is None and (self.weight, self.level) != (12, 1):
            raise ValueError("the built-in source is the weight-12 level-1 form")

    @staticmethod
    def delta() -> "EigenformSpec":
        return EigenformSpec(weight=12, level=1, label="delta")

    @property
    def is_builtin(self) -> bool:
        return self.table is None

    def _check_prime(self, p: int) -> None:
        """Raise ValueError unless p is a prime not dividing the level."""
        if not factor.is_prime(p):
            raise ValueError(f"{p} is not prime")
        if self.level % p == 0:
            raise ValueError(f"prime {p} divides the level {self.level}")

    def ap(self, p: int) -> int:
        self._check_prime(p)
        if self.table is None:
            return _tau_upto(p)[p]
        return self.table.ap(p)


def _coeff_from_ap(ap: int, p: int, weight: int, m: int) -> int:
    """a(p^m) for m >= 0 from a(p) = ap: the Lucas term U_{m+1}(ap, p^(k-1)).

    Climbs the bits of m + 1 from U_1 = 1, U_2 = ap by the doubling
    identities U_{2j} = U_j (2 U_{j+1} - P U_j) and
    U_{2j+1} = U_{j+1}^2 - Q U_j^2, all in exact integers.
    """
    q = p ** (weight - 1)
    u, u_next = 1, ap  # U_j, U_(j+1) with j = 1
    for bit in bin(m + 1)[3:]:
        u, u_next = u * (2 * u_next - ap * u), u_next * u_next - q * u * u
        if bit == "1":
            u, u_next = u_next, ap * u_next - q * u
    return u


def _coeff_powers(ap: int, p: int, weight: int, count: int) -> list[int]:
    """[a(p^0), ..., a(p^(count-1))] from a(p) = ap, one recursion step per term."""
    q = p ** (weight - 1)
    values = [1, ap][:count]
    while len(values) < count:
        values.append(ap * values[-1] - q * values[-2])
    return values


def coeff_prime_power(f: EigenformSpec, p: int, m: int) -> int:
    """a_f(p^m) by the Lucas doubling ladder; a_f(p^0) = 1.

    One term costs O(log m) products.  Callers that need every term up
    to some m take the prefix from the recursion (``_coeff_powers``).

    Deligne's bound |a(p^m)| <= (m+1) p^(m(k-1)/2) gives the answer at
    most log10(m+1) + m(k-1)/2 log10(p) + 1 digits; past MAX_COEFF_DIGITS
    raise BudgetExceededError before a_p is looked up, since the
    built-in form would build the series up to p first.
    """
    if m < 0:
        raise ValueError(f"exponent must be >= 0, got {m}")
    if m == 0:
        f._check_prime(p)  # a_f(p^0) = 1 needs no a_p, but p must still be a valid prime
        return 1
    # each unit of m adds at least log10(2)/2 > 1/8 digit, so a larger m is
    # refused before it meets a float
    if m > 8 * MAX_COEFF_DIGITS or (
        math.log10(m + 1) + m * (f.weight - 1) / 2 * math.log10(p) + 1 > MAX_COEFF_DIGITS
    ):
        f._check_prime(p)  # a p that is not a valid prime is still bad input
        raise BudgetExceededError(
            f"a({p}^{m}) may have more than {MAX_COEFF_DIGITS} digits", cap=MAX_COEFF_DIGITS
        )
    return _coeff_from_ap(f.ap(p), p, f.weight, m)


def _deligne_ap_ok(a_p: int, p: int, weight: int) -> bool:
    return a_p * a_p <= 4 * p ** (weight - 1)


def ingest_table(path, weight: int, level: int, label: str = "") -> EigenformSpec:
    """Read a CSV table of rows ``p,a_p`` into a validated eigenform.

    Lines starting with ``#`` are comments; a single header line is
    allowed.  Rejects non-prime indices, duplicate primes, entries
    breaking the coefficient bound, and gaps below the largest prime.
    """
    entries: dict[int, int] = {}
    header_allowed = True
    with open(path, newline="", encoding="utf-8") as fh:
        for lineno, row in enumerate(csv.reader(fh), start=1):
            if not row or (row[0].lstrip().startswith("#")):
                continue
            if len(row) != 2:
                raise TableFormatError(f"expected 'p,a_p', got {row!r}", line=lineno)
            cell_p, cell_a = row[0].strip(), row[1].strip()
            try:
                p, a_p = int(cell_p), int(cell_a)
            except ValueError:
                if header_allowed:
                    header_allowed = False
                    continue
                raise TableFormatError(f"non-integer row {row!r}", line=lineno) from None
            header_allowed = False
            if not factor.is_prime(p):
                raise TableFormatError(f"index {p} is not prime", line=lineno)
            if p in entries:
                raise TableFormatError(f"duplicate prime {p}", line=lineno)
            if not _deligne_ap_ok(a_p, p, weight):
                raise TableFormatError(
                    f"|a_{p}| = {abs(a_p)} breaks the coefficient bound for weight {weight}",
                    line=lineno,
                )
            entries[p] = a_p
    if not entries:
        raise TableFormatError("table contains no coefficient rows")
    bound = max(entries)
    missing = [p for p in factor.primes_up_to(bound) if level % p != 0 and p not in entries]
    if missing:
        raise TableFormatError(f"prime {missing[0]} below the table bound {bound} is missing")
    table = CoefficientTable(bound=bound, entries=entries)
    return EigenformSpec(weight=weight, level=level, label=label or str(path), table=table)


def export_table(f: EigenformSpec, path, bound: int) -> None:
    """Write the ``p,a_p`` CSV for the primes p <= bound not dividing N (none if the walk fails)."""
    primes, aps = prime_coeffs(f, bound)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# weight={f.weight} level={f.level} label={f.label}\n")
        fh.write("p,a_p\n")
        fh.writelines(f"{p},{ap}\n" for p, ap in zip(primes, aps))


def warm_delta_cache(limit: int) -> None:
    """Precompute the shared tau series up to limit (idempotent)."""
    _tau_upto(limit)


def delta_series_view(limit: int) -> list[int]:
    """tau(0..limit) from the shared cache (index n holds tau(n))."""
    return _tau_upto(limit)[: limit + 1]


def find_first_prime_tau(limit: int) -> tuple[int, int] | None:
    """Smallest n <= limit with |tau(n)| prime, with the value, else None.

    Tau values are even except at odd squares, so the scan only runs a
    primality test where the value is odd or has absolute value 2.
    """
    series = delta_series_view(limit)
    for n in range(1, limit + 1):
        v = series[n]
        av = abs(v)
        if av % 2 == 0:
            if av == 2:
                return n, v
            continue
        if av > 1 and factor.is_prime(av):
            return n, v
    return None


def prime_coeffs(f: EigenformSpec, x_bound: int) -> tuple[list[int], list[int]]:
    """The primes p <= x_bound not dividing the level, and their a_f(p), as two lists.

    The sieve (``factor.primes_up_to``) already proves the primes prime,
    so unlike ``EigenformSpec.ap`` the walk does not re-test them: a_p is
    read by index from the warm tau series (the built-in form has level
    1), or from the table, whose ``ap`` raises DataExhaustedError past its
    bound.  The series is taken before the sieve runs, so a walk past the
    series ceiling is refused before it sieves.
    """
    if f.table is None:
        series = _tau_upto(x_bound)
        primes = factor.primes_up_to(x_bound)
        return primes, list(map(series.__getitem__, primes))
    primes = [p for p in factor.primes_up_to(x_bound) if f.level % p]
    return primes, list(map(f.table.ap, primes))
