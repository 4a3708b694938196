"""Largest-prime-factor scans and Sato-Tate value histograms.

The headline scan walks primes p and asks whether the largest prime
factor of a_f(p^(2n)) clears a slowly growing threshold.  Rows are
marked ``exact`` (P pinned), ``partial`` (verdict certain, largest
prime not pinned down), or ``unknown`` (verdict undecidable within
budget).

``scan_rows`` produces the rows and ``ScanSummary.of`` folds them into
verdict counts.  Each row runs the trial stage of ``factor`` once, and
the split stage on what it leaves where that is needed.  The CSV pins P
on every row where the rho budget allows: trial division to the trial
bound, then rho, and a composite cofactor left over still clears the
threshold when the trial bound does, since all its primes exceed that
bound.  A summary (the CLI's json output) needs no pinned P.
P(v) > bound holds exactly when v has a prime factor above cut =
floor(bound), so while cut is below the trial bound the trial stage at
cut decides the row; at desk scale cut is 1 (the threshold is below 2
for p up to 10^4) and no prime is tried at all.  Rows with cut at or
above the trial bound get the trial stage at the trial bound, and the
split stage only where that leaves the verdict open.  Both give the
same verdicts.

An ``exact`` row's P is certified by Miller-Rabin (``factor.is_prime``),
which is deterministic below 3.3e24 and uses 30 fixed bases above it, so
a pinned P above 3.3e24 is a strong probable prime, not a proven one.
At 2n = 2 the values pass 3.3e24 from p ~ 170.  A summary row decided
below the trial bound reads ``exact`` only when trial division to cut
factors its value completely (a survivor at most cut^2 is prime), so
its P is proven by trial division alone.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from collections.abc import Iterable, Iterator
from dataclasses import dataclass

import mpmath

from . import factor
from .errors import IdentityViolationError
from .hecke import EigenformSpec, _coeff_from_ap, iter_prime_coeffs

# log log p > 1 from the first prime past e^e, so the threshold is a
# positive real from here on
MIN_SCAN_PRIME = 17

_BOUND_PRECISION_BITS = 80


def bound_value(
    p: int,
    epsilon: float | None = None,
    grh_c: float | None = None,
) -> mpmath.mpf:
    """Threshold value at p, computed with 80-bit working precision.

    Exactly one mode applies:

    * ``epsilon`` given: (log p)^(1/8) (log log p)^(3/8 - epsilon)
    * ``grh_c`` given:  c p^(1/14) (log p)^(2/7)

    epsilon must be finite and >= 0, c finite and > 0.
    """
    if (epsilon is None) == (grh_c is None):
        raise ValueError("pass exactly one of epsilon or grh_c")
    if grh_c is not None and not (math.isfinite(grh_c) and grh_c > 0):
        raise ValueError(f"grh_c must be finite and > 0, got {grh_c}")
    if epsilon is not None and not (math.isfinite(epsilon) and epsilon >= 0):
        raise ValueError(f"epsilon must be finite and >= 0, got {epsilon}")
    if p < MIN_SCAN_PRIME:
        raise ValueError(f"threshold needs p >= {MIN_SCAN_PRIME}, got {p}")
    with mpmath.workprec(_BOUND_PRECISION_BITS):
        lp = mpmath.log(p)
        if epsilon is None:
            return +(mpmath.mpf(grh_c) * mpmath.power(p, mpmath.mpf(1) / 14) * lp ** (mpmath.mpf(2) / 7))
        exp2 = mpmath.mpf(3) / 8 - mpmath.mpf(epsilon)
        return +(lp ** (mpmath.mpf(1) / 8) * mpmath.log(lp) ** exp2)


@dataclass
class ScanRow:
    p: int
    exponent: int
    value: int
    bound: float
    status: str  # exact | partial | unknown
    largest_prime_factor: int | None  # exact P when status == 'exact'
    known_prime_floor: int  # P(value) is at least this; certain even when partial
    passes: bool | None

    def csv_line(self) -> str:
        lpf = self.largest_prime_factor if self.largest_prime_factor is not None else ""
        passes = "" if self.passes is None else str(self.passes).lower()
        return f"{self.p},{self.exponent},{self.value},{lpf},{self.bound!r},{passes},{self.status}"


CSV_HEADER = "p,exponent,value,largest_prime_factor,bound,passes,status"


@dataclass
class ScanSummary:
    total_rows: int
    pass_count: int
    fail_count: int
    unknown_count: int
    zero_rows: int

    @classmethod
    def of(cls, rows: Iterable[ScanRow]) -> ScanSummary:
        """Fold rows into verdict counts (``scan_rows`` raises on a zero value)."""
        counts = Counter(row.passes for row in rows)
        return cls(
            total_rows=sum(counts.values()),
            pass_count=counts[True],
            fail_count=counts[False],
            unknown_count=counts[None],
            zero_rows=0,
        )

    @property
    def pass_fraction(self) -> float:
        decided = self.pass_count + self.fail_count
        return self.pass_count / decided if decided else 0.0

    def to_json(self) -> str:
        return json.dumps(
            {
                "rows": self.total_rows,
                "pass": self.pass_count,
                "fail": self.fail_count,
                "unknown": self.unknown_count,
                "zeroRows": self.zero_rows,
                "passFraction": self.pass_fraction,
            },
            sort_keys=True,
        )


def _row(p: int, two_n: int, value: int, bound: mpmath.mpf, cut: int,
         fac: factor.Factorization) -> ScanRow:
    # an integer exceeds the bound exactly when it exceeds cut = floor(bound)
    if fac.is_complete:
        lpf = fac.largest_known_prime()
        return ScanRow(p, two_n, value, float(bound), "exact", lpf, lpf, lpf > cut)
    # the cofactor left by either stage has no prime factor at or below
    # its floor, so P(value) >= cofactor_floor + 1 unconditionally
    floor = max(fac.largest_known_prime(), fac.cofactor_floor + 1)
    passes = True if floor > cut else None
    status = "partial" if passes is not None else "unknown"
    return ScanRow(p, two_n, value, float(bound), status, None, floor, passes)


def scan_rows(
    f: EigenformSpec,
    two_n: int,
    x_bound: int,
    *,
    epsilon: float | None = 0.1,
    grh_c: float | None = None,
    trial_bound: int = factor.DEFAULT_TRIAL_BOUND,
    rho_budget: int = factor.DEFAULT_RHO_BUDGET,
    pin: bool = True,
) -> Iterator[ScanRow]:
    """One row per prime p in [17, x]: P(a_f(p^(2n))) against the threshold.

    Each row runs the trial stage once.  With ``pin`` it divides by the
    primes up to ``trial_bound`` and the split stage always follows, so P
    is pinned wherever the rho budget allows.  Without it the trial stage
    stops at min(cut, trial_bound), cut = floor(bound), and the split
    stage runs only when the verdict is still open.  Below the trial
    bound that never happens: a cofactor's primes all exceed cut, so the
    row passes.  The verdicts are the same either way.

    A vanishing coefficient would contradict the even-exponent
    nonvanishing law in this range and raises IdentityViolationError.
    """
    if two_n < 2 or two_n % 2:
        raise ValueError(f"exponent must be even and >= 2, got {two_n}")
    if trial_bound < 1:
        raise ValueError(f"trial bound must be >= 1, got {trial_bound}")
    if grh_c is not None:
        epsilon = None
    for p, ap in iter_prime_coeffs(f, x_bound):
        if p < MIN_SCAN_PRIME:
            continue
        value = _coeff_from_ap(ap, p, f.weight, two_n)
        if value == 0:
            raise IdentityViolationError(
                f"a(p^{two_n}) vanished at p={p}: even exponents cannot vanish here"
            )
        bound = bound_value(p, epsilon=epsilon, grh_c=grh_c)
        cut = int(bound)  # the bound is positive, so this is its floor
        fac = factor.trial_factor(abs(value), trial_bound if pin else min(cut, trial_bound))
        row = _row(p, two_n, value, bound, cut, fac)
        if pin or row.passes is None:
            row = _row(p, two_n, value, bound, cut, factor.split_cofactor(fac, rho_budget))
        yield row


def threshold_scan(
    f: EigenformSpec,
    two_n: int,
    x_bound: int,
    epsilon: float | None = 0.1,
    grh_c: float | None = None,
    trial_bound: int = factor.DEFAULT_TRIAL_BOUND,
    rho_budget: int = factor.DEFAULT_RHO_BUDGET,
) -> tuple[list[ScanRow], ScanSummary]:
    """Every pinned row of ``scan_rows`` and their summary."""
    rows = list(scan_rows(f, two_n, x_bound, epsilon=epsilon, grh_c=grh_c,
                          trial_bound=trial_bound, rho_budget=rho_budget, pin=True))
    return rows, ScanSummary.of(rows)


def st_cdf(t: float) -> float:
    """Cumulative semicircle measure of [-1, t]."""
    t = min(1.0, max(-1.0, t))
    return float((mpmath.asin(t) + t * mpmath.sqrt(1 - t * t)) / mpmath.pi + 0.5)


def st_measure(a: float, b: float) -> float:
    """Semicircle measure (2/pi) integral_a^b sqrt(1-t^2) dt."""
    return st_cdf(b) - st_cdf(a)


@dataclass
class SatoTateHistogram:
    bins: int
    x_bound: int
    counts: list[int]
    expected: list[float]
    sample_size: int

    @property
    def max_deviation(self) -> float:
        return max(
            abs(c / self.sample_size - e) for c, e in zip(self.counts, self.expected)
        )

    def to_json_dict(self) -> dict:
        return {
            "bins": self.bins,
            "x": self.x_bound,
            "sampleSize": self.sample_size,
            "counts": self.counts,
            "expected": self.expected,
            "maxDeviation": self.max_deviation,
        }

    def csv_lines(self) -> list[str]:
        width = 2.0 / self.bins
        out = ["bin_low,bin_high,count,frequency,expected"]
        for j, (c, e) in enumerate(zip(self.counts, self.expected)):
            lo, hi = -1 + j * width, -1 + (j + 1) * width
            out.append(f"{lo},{hi},{c},{c / self.sample_size},{e}")
        return out


def sato_tate_histogram(f: EigenformSpec, x_bound: int, bins: int = 20) -> SatoTateHistogram:
    """Histogram of a_f(p)/(2 p^((k-1)/2)) against the semicircle law.

    Every normalized value must land in [-1, 1]; a value outside
    (checked exactly on the integers) raises IdentityViolationError.

    Binning is exact: with lam = a_p / (2 p^((k-1)/2)), (bins * lam)^2 is
    bins^2 a_p^2 / den, so |z| = floor(|bins * lam|) is the integer square
    root of its floor.  For even k, p^(k-1) is not a square, so bins * lam
    is irrational unless a_p = 0, and z = floor(bins * lam) is -|z| - 1
    for a_p < 0.  lam then lies in bin floor((z + bins) / 2) of [-1, 1].
    """
    if x_bound < 10**3:
        raise ValueError(f"x bound must be at least 1000, got {x_bound}")
    if bins < 2:
        raise ValueError(f"need at least 2 bins, got {bins}")
    counts = [0] * bins
    total = 0
    half = f.weight - 1
    for p, ap in iter_prime_coeffs(f, x_bound):
        square, den = ap * ap, 4 * p**half
        if square > den:
            raise IdentityViolationError(f"|a_{p}| exceeds 2 p^((k-1)/2)")
        z = math.isqrt(bins * bins * square // den)
        if ap < 0:
            z = -z - 1
        counts[min((z + bins) // 2, bins - 1)] += 1
        total += 1
    width = 2.0 / bins
    expected = [st_measure(-1 + j * width, -1 + (j + 1) * width) for j in range(bins)]
    return SatoTateHistogram(
        bins=bins, x_bound=x_bound, counts=counts, expected=expected, sample_size=total
    )
