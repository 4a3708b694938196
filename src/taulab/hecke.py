"""Coefficients of integer eigenforms at prime powers.

The built-in form is the weight-12 level-1 cusp form whose coefficients
are the tau values; its series comes from the eighth power of the cube
identity sum((-1)^j (2j+1) x^(j(j+1)/2)), computed as one sparse square
followed by two dense squarings.  Each dense squaring offsets the
coefficients to be non-negative, packs them into one big decimal
number (one fixed-width digit slot per coefficient) and squares it in
the standard library's ``decimal`` module, whose libmpdec core switches
to a number-theoretic transform for large operands.  The context traps
every rounding signal, so the square is exact or raises, and the same
path runs whether or not the optional gmpy2 package is installed.

General forms are ingested from CSV tables of a_p values; prime-power
coefficients then come from the weight-k recursion
a(p^m) = a(p) a(p^(m-1)) - p^(k-1) a(p^(m-2)) or, equivalently, the
Lucas sequence U_{m+1}(a(p), p^(k-1)).
"""

from __future__ import annotations

import csv
import decimal
import threading
from dataclasses import dataclass, field
from itertools import accumulate
from typing import Iterator

from . import factor
from .errors import BudgetExceededError, DataExhaustedError, TableFormatError
from .factor import mpz  # noqa: F401  (kept as hecke.mpz for environment reports)

DEFAULT_SERIES_CEILING = 10**7

# Context of the series squarings.  With every rounding-related signal
# trapped, a square that would lose a digit raises instead of returning
# wrong coefficients.
_EXACT = decimal.Context(
    prec=decimal.MAX_PREC,
    Emax=decimal.MAX_EMAX,
    Emin=decimal.MIN_EMIN,
    traps=[decimal.Inexact, decimal.Rounded, decimal.InvalidOperation, decimal.Overflow],
)
_PACK_CHUNK = 4096  # coefficients joined per string piece while packing


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


def _square_dense(a: list[int]) -> list[int]:
    """Square of a dense integer series, truncated to len(a) terms.

    Each coefficient is offset by B = max|a_i| into [0, 2B] and packed as
    one fixed-width decimal slot, a_0 in the most significant one.  A
    slot of the packed square holds at most len(a) (2B)^2, so it never
    carries into its neighbour; the offset is removed again per slot:
    (a^2)_k = slot_k - 2B (a_0 + ... + a_k) - B^2 (k + 1).
    """
    n = len(a)
    big = max(map(abs, a))
    width = len(str(n * (2 * big) ** 2))
    slot = f"%0{width}d"
    chunks = [
        "".join([slot % (c + big) for c in a[i : i + _PACK_CHUNK]])
        for i in range(0, n, _PACK_CHUNK)
    ]
    # Each buffer is dropped once consumed: at 10^6 terms they are tens of MB.
    packed = "".join(chunks)
    del chunks
    x = decimal.Decimal(packed)
    del packed
    square = _EXACT.multiply(x, x)
    del x
    # Keep the top n of the square's 2n - 1 slots: scaleb moves the point
    # exactly, and to_integral_value drops the low slots without signalling
    # Inexact or Rounded.
    high = square.scaleb(-(n - 1) * width, _EXACT).to_integral_value(decimal.ROUND_DOWN, _EXACT)
    del square
    head = str(high).zfill(n * width)
    del high
    two_big, big_sq = 2 * big, big * big
    return [
        int(head[k * width : (k + 1) * width]) - two_big * prefix - big_sq * (k + 1)
        for k, prefix in enumerate(accumulate(a))
    ]


def tau_series(limit: int, *, ceiling: int = DEFAULT_SERIES_CEILING) -> list[int]:
    """Exact tau values; returned list has result[n] = tau(n), result[0] = 0."""
    if limit < 1:
        raise ValueError(f"series length must be >= 1, got {limit}")
    if limit > ceiling:
        raise BudgetExceededError(
            f"series length {limit} above memory ceiling {ceiling}", needed=limit, cap=ceiling
        )
    series = _square_sparse(_eta_cube_sparse(limit), limit)  # eta^6
    series = _square_dense(series)  # eta^12
    series = _square_dense(series)  # eta^24
    series.insert(0, 0)
    return series


_lock = threading.Lock()
_series: list[int] = [0]


def _tau_upto(n: int, ceiling: int = DEFAULT_SERIES_CEILING) -> list[int]:
    """The shared grow-only tau series, grown to hold index n; safe for concurrent readers."""
    global _series
    if n >= len(_series):
        with _lock:
            if n >= len(_series):
                target = min(max(n, 2 * (len(_series) - 1), 1024), ceiling)
                if target < n:
                    raise BudgetExceededError(
                        f"tau series request {n} above ceiling {ceiling}", needed=n, cap=ceiling
                    )
                _series = tau_series(target, ceiling=ceiling)
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

    def ap(self, p: int) -> int:
        if not factor.is_prime(p):
            raise ValueError(f"{p} is not prime")
        if self.level % p == 0:
            raise ValueError(f"prime {p} divides the level {self.level}")
        if self.table is None:
            return _tau_upto(p)[p]
        return self.table.ap(p)


def _coeff_from_ap(ap: int, p: int, weight: int, m: int) -> int:
    """a(p^m) for m >= 0 from a(p) = ap by the weight-k recursion."""
    if m == 0:
        return 1
    q = p ** (weight - 1)
    prev, cur = 1, ap
    for _ in range(m - 1):
        prev, cur = cur, ap * cur - q * prev
    return cur


def coeff_prime_power(f: EigenformSpec, p: int, m: int) -> int:
    """a_f(p^m) by the weight-k second-order recursion; a_f(p^0) = 1."""
    if m < 0:
        raise ValueError(f"exponent must be >= 0, got {m}")
    if m == 0:
        return 1
    return _coeff_from_ap(f.ap(p), p, f.weight, m)


def coeff_lucas(f: EigenformSpec, p: int, m: int) -> int:
    """a_f(p^m) as the Lucas term U_{m+1}(a_f(p), p^(k-1)).

    Uses the doubling identities U_{2k} = U_k (2 U_{k+1} - P U_k) and
    U_{2k+1} = U_{k+1}^2 - Q U_k^2, all in exact integers.
    """
    if m < 0:
        raise ValueError(f"exponent must be >= 0, got {m}")
    if m == 0:
        return 1
    big_p = f.ap(p)
    big_q = p ** (f.weight - 1)
    target = m + 1
    u, u_next = 0, 1  # U_0, U_1
    for bit in bin(target)[2:]:
        u2 = u * (2 * u_next - big_p * u)
        u2_next = u_next * u_next - big_q * u * u
        if bit == "0":
            u, u_next = u2, u2_next
        else:
            u, u_next = u2_next, big_p * u2_next - big_q * u2
    return u


def deligne_check(f: EigenformSpec, p: int, m: int) -> bool:
    """Exact check |a_f(p^m)| <= (m+1) p^(m(k-1)/2), compared by squaring."""
    value = coeff_prime_power(f, p, m)
    return value * value <= (m + 1) ** 2 * p ** (m * (f.weight - 1))


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
    """Write the ``p,a_p`` CSV for all primes p <= bound, p not dividing N."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# weight={f.weight} level={f.level} label={f.label}\n")
        fh.write("p,a_p\n")
        for p, ap in iter_prime_coeffs(f, bound):
            fh.write(f"{p},{ap}\n")


def warm_delta_cache(limit: int, ceiling: int = DEFAULT_SERIES_CEILING) -> None:
    """Precompute the shared tau series up to limit (idempotent)."""
    _tau_upto(limit, ceiling)


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


def iter_prime_coeffs(f: EigenformSpec, x_bound: int) -> Iterator[tuple[int, int]]:
    """(p, a_f(p)) for primes p <= x_bound not dividing the level.

    The primes come from the sieve (``factor.primes_up_to``), which
    already proves them prime, so unlike ``EigenformSpec.ap`` the walk
    does not re-test them: a_p is read straight from the warm tau series
    (the built-in form has level 1) or from the table, whose ``ap`` still
    raises DataExhaustedError past its bound.
    """
    primes = factor.primes_up_to(x_bound)
    if f.table is None:
        series = _tau_upto(x_bound)
        for p in primes:
            yield p, series[p]
        return
    table, level = f.table, f.level
    for p in primes:
        if level % p:
            yield p, table.ap(p)
