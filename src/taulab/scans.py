"""Largest-prime-factor scans and Sato-Tate value histograms.

The headline scan walks primes p and asks whether the largest prime
factor of a_f(p^(2n)) clears a slowly growing threshold.  Rows are
marked ``exact`` (P pinned), ``partial`` (verdict certain, largest
prime not pinned down), or ``unknown`` (verdict undecidable within
budget).

``scan_rows`` returns the rows as one list, in order of p, and
``ScanSummary.of`` folds them into verdict counts.  Each row runs the
trial stage of ``factor`` once; one split call then takes every row
the trial stage left open, and each of those rows is made again in its
place in the list.  The CSV pins P on every row where the rho budget
allows: trial division to the trial bound, then rho, and a composite
cofactor left over still clears the threshold when the trial bound
does, since all its primes exceed that bound.  A summary (the CLI's
json output) needs no pinned P.
P(v) > bound holds exactly when v has a prime factor above cut =
floor(bound), so while cut is below the trial bound the trial stage at
cut decides the row; at desk scale cut is 1 (the threshold is below 2
for p up to 10^4) and no prime is tried at all.  Rows with cut at or
above the trial bound get the trial stage at the trial bound, and the
split stage only where that leaves the verdict open.  Both give the
same verdicts.

Values, thresholds and the trial stage run in the calling process.  The
one split call runs on every CPU in the process's affinity mask through
``forked.forked_map`` (one forked child per CPU, at most one per open
row, drawing open rows on demand), so ``taskset -c 0`` keeps it to one
core.  Rho's start points depend only on its input, so the rows, and
every byte printed from them, are the same at any CPU count.

An ``exact`` row's P is certified by Miller-Rabin (``factor.is_prime``),
which is deterministic below 3.3e24 and uses 30 fixed bases above it, so
a pinned P above 3.3e24 is a strong probable prime, not a proven one.
At 2n = 2 the values pass 3.3e24 from p ~ 170.  A summary row decided
below the trial bound reads ``exact`` only when trial division to cut
factors its value completely (a survivor at most cut^2 is prime), so
its P is proven by trial division alone.

A verdict needs the threshold only through cut = floor(bound), and both
modes take it from ``_threshold_floor``: the bound in double precision,
decided there unless it lies within a relative 2^-40 of an integer, and
proven in ``decimal`` (``_decimal_floor``) where it does.  A pinned (CSV)
row prints the double nearest the 40-digit ``bound_value``, or past the
largest double that value to 17 digits; a summary row is never printed
and keeps the double.
"""

from __future__ import annotations

import decimal
import json
import math
from collections import Counter
from collections.abc import Iterable
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction
from functools import partial
from typing import ClassVar

from . import factor
from .errors import BudgetExceededError, IdentityViolationError
from .forked import forked_map
from .hecke import EigenformSpec, _coeff_from_ap, prime_coeffs

# log log p > 1 from the first prime past e^e, so the threshold is a
# positive real from here on
MIN_SCAN_PRIME = 17

_BOUND_DIGITS = 40
# the double decides a floor only this far, relatively, from every integer
_FLOOR_MARGIN = 2.0**-40
# a deferred floor's digits double from _BOUND_DIGITS to this (~10240 bits)
_FLOOR_DIGITS_CAP = 3083
MAX_BINS = 10**5  # the most Sato-Tate bins: a histogram's time and memory grow with the count


def _check_mode(epsilon: float | None, grh_c: float | None) -> None:
    """Exactly one threshold mode: epsilon finite and >= 0, or grh_c finite and > 0."""
    if (epsilon is None) == (grh_c is None):
        raise ValueError("pass exactly one of epsilon or grh_c")
    if grh_c is not None and not (math.isfinite(grh_c) and grh_c > 0):
        raise ValueError(f"grh_c must be finite and > 0, got {grh_c}")
    if epsilon is not None and not (math.isfinite(epsilon) and epsilon >= 0):
        raise ValueError(f"epsilon must be finite and >= 0, got {epsilon}")


def bound_value(
    p: int,
    epsilon: float | None = None,
    grh_c: float | None = None,
) -> Decimal:
    """Threshold value at p to 40 significant digits.

    Exactly one mode applies:

    * ``epsilon`` given: (log p)^(1/8) (log log p)^(3/8 - epsilon)
    * ``grh_c`` given:  c p^(1/14) (log p)^(2/7)

    epsilon must be finite and >= 0, c finite and > 0.
    """
    _check_mode(epsilon, grh_c)
    if p < MIN_SCAN_PRIME:
        raise ValueError(f"threshold needs p >= {MIN_SCAN_PRIME}, got {p}")
    return _bound_decimal(p, epsilon, grh_c, _BOUND_DIGITS)


def _bound_decimal(p: int, epsilon: float | None, grh_c: float | None, digits: int) -> Decimal:
    """The threshold at p to ``digits`` digits, whatever the caller's context.

    Each power x^e is exp(e ln x), never ``**``, which ``decimal`` rounds
    correctly only almost always; every step is correctly rounded.
    """
    context = decimal.Context(prec=digits, rounding=decimal.ROUND_HALF_EVEN, Emin=decimal.MIN_EMIN,
                              Emax=decimal.MAX_EMAX, traps=[decimal.InvalidOperation])
    with decimal.localcontext(context):
        lp = Decimal(p).ln()
        if epsilon is None:
            return Decimal(grh_c) * (lp / 14 + 2 * lp.ln() / 7).exp()
        llp = lp.ln()
        return (llp / 8 + (Decimal("0.375") - Decimal(epsilon)) * llp.ln()).exp()


def _margin_floor(b: float | Fraction, margin: float | Fraction) -> int | None:
    """floor(b) when no integer lies between b(1 - margin) and b(1 + margin), else None."""
    low, high = sorted((b * (1 - margin), b * (1 + margin)))
    cut = math.floor(low)
    return cut if cut < low and high < cut + 1 else None


def _threshold_floor(p: int, epsilon: float | None, grh_c: float | None) -> tuple[float, int]:
    """(b, floor(bound)) at p >= 17: the bound in doubles, and its floor, proven.

    b comes from ``math.log`` and ``**``.  Wherever b > 1/2 its relative
    error is below 2^-44, a sixteenth of the 2^-40 margin:

    * each libm call is within a few ulp, and each product half an ulp;
    * rounding the exponents 1/14, 2/7 and 3/8 - epsilon once moves a
      power x^e by a relative |ln x^e| 2^-53, and |ln x^e| < 51 (p^(1/14),
      p a double, is the largest);
    * the epsilon mode's base log log p > 1.04 carries the error of a log
      into x^e times |e|, and |e| < 25.

    Below 1/2 the floor is 0 whatever the error, the bound being positive.
    So when b is finite and [b(1 - 2^-40), b(1 + 2^-40)] holds no
    integer, floor(b) is the bound's floor; otherwise (b overflowed, came
    out 0, or lies that close to an integer) ``_decimal_floor`` proves
    it.  The caller checks the mode.
    """
    lp = math.log(p)
    if epsilon is None:
        b = grh_c * p ** (1 / 14) * lp ** (2 / 7)
    else:
        b = lp ** 0.125 * math.log(lp) ** (0.375 - epsilon)
    if math.isfinite(b):
        cut = _margin_floor(b, _FLOOR_MARGIN)
        if cut is not None:
            return b, cut
    return b, _decimal_floor(p, epsilon, grh_c)


def _decimal_floor(p: int, epsilon: float | None, grh_c: float | None) -> int:
    """floor(bound) at p by ``_bound_decimal`` at D = 40, 80, ..., _FLOOR_DIGITS_CAP digits.

    Each step there is off by a relative u = 5 10^-D at most.  exp turns
    the absolute error of its argument y into a relative one: where the
    bound exceeds 1/2, y is off by 162u in the GRH mode (103u from
    ln(p)/14 < 51 for any sieved p) and by 390u in the epsilon mode (an
    absolute 9.5u in ln(ln(ln p)) > 0.0405 is a relative 235u, on a term
    below 1.6), so b is off by a relative 400u, and the margin test with
    d = 10^(4-D) = 2000u, run exactly in fractions, proves the floor.  A
    b below 1/2 has floor 0, y < -0.69 being off by a tiny fraction of |y|:
    a huge epsilon's b, near 10^(-epsilon/57), never becomes a fraction.
    """
    digits = _BOUND_DIGITS
    while digits <= _FLOOR_DIGITS_CAP:
        b = _bound_decimal(p, epsilon, grh_c, digits)
        if b < Decimal("0.5"):
            return 0
        cut = _margin_floor(Fraction(b), Fraction(1, 10 ** (digits - 4)))
        if cut is not None:
            return cut
        digits = 2 * digits if digits == _FLOOR_DIGITS_CAP else min(2 * digits, _FLOOR_DIGITS_CAP)
    raise BudgetExceededError(f"the threshold at p={p} is within a relative "
                              f"10^{4 - _FLOOR_DIGITS_CAP} of an integer: its floor is not "
                              "decided", digits, _FLOOR_DIGITS_CAP)


@dataclass
class ScanRow:
    p: int
    exponent: int
    value: int
    bound: float | Decimal  # a pinned row's printed bound; a summary row's double b
    status: str  # exact | partial | unknown
    largest_prime_factor: int | None  # exact P when status == 'exact'
    known_prime_floor: int  # P(value) is at least this; certain even when partial
    passes: bool | None

    def csv_line(self) -> str:
        lpf = self.largest_prime_factor if self.largest_prime_factor is not None else ""
        passes = "" if self.passes is None else str(self.passes).lower()
        return f"{self.p},{self.exponent},{self.value},{lpf},{self.bound},{passes},{self.status}"


CSV_HEADER = "p,exponent,value,largest_prime_factor,bound,passes,status"


@dataclass
class ScanSummary:
    total_rows: int
    pass_count: int
    fail_count: int
    unknown_count: int
    zero_rows: ClassVar[int] = 0  # ``scan_rows`` raises on a zero value

    @classmethod
    def of(cls, rows: Iterable[ScanRow]) -> ScanSummary:
        """Fold rows into verdict counts."""
        counts = Counter(row.passes for row in rows)
        return cls(
            total_rows=sum(counts.values()),
            pass_count=counts[True],
            fail_count=counts[False],
            unknown_count=counts[None],
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


def _row(p: int, two_n: int, value: int, bound: float, cut: int,
         fac: factor.Factorization) -> ScanRow:
    # an integer exceeds the bound exactly when it exceeds cut = floor(bound)
    if fac.is_complete:
        lpf = fac.largest_known_prime()
        return ScanRow(p, two_n, value, bound, "exact", lpf, lpf, lpf > cut)
    # the cofactor left by either stage has no prime factor at or below
    # its floor, so P(value) >= cofactor_floor + 1 unconditionally
    floor = max(fac.largest_known_prime(), fac.cofactor_floor + 1)
    passes = True if floor > cut else None
    status = "partial" if passes is not None else "unknown"
    return ScanRow(p, two_n, value, bound, status, None, floor, passes)


def scan_rows(
    f: EigenformSpec,
    two_n: int,
    x_bound: int,
    *,
    epsilon: float | None = 0.1,
    grh_c: float | None = None,
    trial_bound: int = factor.DEFAULT_TRIAL_BOUND,
    rho_budget: int = factor.DEFAULT_RHO_BUDGET,
    pin: bool,
) -> list[ScanRow]:
    """One row per prime p in [17, x], in order of p: P(a_f(p^(2n))) against the threshold.

    Each row runs the trial stage once.  With ``pin`` it divides by the
    primes up to ``trial_bound`` and the split stage always follows, so P
    is pinned wherever the rho budget allows.  Without it the trial stage
    stops at min(cut, trial_bound), cut = floor(bound), and the split
    stage runs only when the verdict is still open.  Below the trial
    bound that never happens: a cofactor's primes all exceed cut, so the
    row passes.  The verdicts are the same either way.

    One pass makes every row after its trial stage and notes the open
    ones; one ``forked_map`` call then splits the open rows across the
    CPUs, and each is made again, in its place, from its split.

    A vanishing coefficient would contradict the even-exponent
    nonvanishing law in this range and raises IdentityViolationError.
    """
    if two_n < 2 or two_n % 2:
        raise ValueError(f"exponent must be even and >= 2, got {two_n}")
    if trial_bound < 1:
        raise ValueError(f"trial bound must be >= 1, got {trial_bound}")
    if rho_budget < 0:
        raise ValueError(f"rho budget must be >= 0, got {rho_budget}")
    if grh_c is not None:
        epsilon = None
    _check_mode(epsilon, grh_c)
    rows: list[ScanRow] = []
    open_rows: list[tuple[int, int, factor.Factorization]] = []  # (index, cut, trial result)
    for p, ap in zip(*prime_coeffs(f, x_bound)):
        if p < MIN_SCAN_PRIME:
            continue
        value = _coeff_from_ap(ap, p, f.weight, two_n)
        if value == 0:
            raise IdentityViolationError(
                f"a(p^{two_n}) vanished at p={p}: even exponents cannot vanish here"
            )
        bound, cut = _threshold_floor(p, epsilon, grh_c)
        if pin:
            printed = bound_value(p, epsilon=epsilon, grh_c=grh_c)
            bound = float(printed)
            if bound == math.inf:  # past the largest double: 17 digits
                bound = decimal.Context(prec=17, rounding=decimal.ROUND_HALF_EVEN).plus(printed)
        fac = factor.trial_factor(abs(value), trial_bound if pin else min(cut, trial_bound))
        row = _row(p, two_n, value, bound, cut, fac)
        if not fac.is_complete and (pin or row.passes is None):
            open_rows.append((len(rows), cut, fac))
        rows.append(row)
    splits = forked_map(partial(factor.split_cofactor, rho_budget=rho_budget),
                        [fac for _, _, fac in open_rows])
    for (i, cut, _), fac in zip(open_rows, splits):
        row = rows[i]
        rows[i] = _row(row.p, two_n, row.value, row.bound, cut, fac)
    return rows


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
    rows = scan_rows(f, two_n, x_bound, epsilon=epsilon, grh_c=grh_c,
                     trial_bound=trial_bound, rho_budget=rho_budget, pin=True)
    return rows, ScanSummary.of(rows)


def st_cdf(t: float) -> float:
    """Cumulative semicircle measure of [-1, t]."""
    t = min(1.0, max(-1.0, t))
    return (math.asin(t) + t * math.sqrt(1 - t * t)) / math.pi + 0.5


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

    lam lies in bin floor((z + bins) / 2) of [-1, 1], z = floor(bins * lam), decided
    in doubles where a margin proves it, else in order by ``_exact_bin``, which raises
    IdentityViolationError past [-1, 1].  Over MAX_BINS bins raise BudgetExceededError.
    """
    if x_bound < 10**3:
        raise ValueError(f"x bound must be at least 1000, got {x_bound}")
    if bins < 2:
        raise ValueError(f"need at least 2 bins, got {bins}")
    if bins > MAX_BINS:
        raise BudgetExceededError(f"{bins} bins is above the cap of {MAX_BINS}", bins, MAX_BINS)
    primes, aps = prime_coeffs(f, x_bound)
    keys = _double_bin_keys(primes, aps, f.weight, bins)
    tally = Counter(keys)
    decided = {key for key in tally if key & 1 and -bins <= key >> 1 < bins}
    counts = [0] * bins
    for key in decided:
        counts[((key >> 1) + bins) // 2] += tally[key]
    if len(decided) < len(tally):
        for p, ap, key in zip(primes, aps, keys):
            if key not in decided:
                counts[_exact_bin(p, ap, f.weight, bins)] += 1
    width = 2.0 / bins
    cdf = [st_cdf(-1 + j * width) for j in range(bins + 1)]  # one st_cdf per edge
    expected = [high - low for low, high in zip(cdf, cdf[1:])]
    return SatoTateHistogram(bins=bins, x_bound=x_bound, counts=counts, expected=expected,
                             sample_size=len(primes))


def _double_bin_keys(primes: list[int], aps: list[int], weight: int, bins: int) -> list[int]:
    """ceil(x) + floor(y) per prime; an odd key 2z + 1 decides floor(bins * lam) = z.

    x, y = t (1 -+ 2^-40), t = bins * lam = (bins / 2) a_p / (sqrt(p) p^e),
    e = (k - 2) / 2, each take seven correctly rounded steps (sqrt(p), p^e
    and a_p to doubles, three products, one quotient) and no libm call, so
    each is within a relative 2^-50 of its exact value and t lies strictly
    between them.  ceil(x) = floor(y) + 1 then says no integer lies in
    [x, y] (t > 0, as in ``_threshold_floor``) or strictly between y and x
    (t < 0): floor(t) = floor(y).  Another odd key has |y - x| >= 1 and |z|
    > 2^37, outside [-bins, bins), the caller's range, in which |t| < bins.
    a_p = 0 and a denominator past the largest double give key 0, a
    subnormal quotient (|t| < 1) keeps its sign, and OverflowError zeroes all.
    """
    ceil, floor, sqrt, e = math.ceil, math.floor, math.sqrt, (weight - 2) // 2
    low, high = bins / 2 * (1 - _FLOOR_MARGIN), bins / 2 * (1 + _FLOOR_MARGIN)
    try:
        return [ceil((s := ap / (sqrt(p) * p**e)) * low) + floor(s * high)
                for p, ap in zip(primes, aps)]
    except OverflowError:
        return [0] * len(primes)


def _exact_bin(p: int, ap: int, weight: int, bins: int) -> int:
    """The bin in integers: |z| = floor(|bins * lam|) is isqrt(bins^2 a_p^2 // 4 p^(k-1)), and
    bins * lam is irrational unless a_p = 0 (p^(k-1) is no square), so z = -|z| - 1 if a_p < 0."""
    square, den = ap * ap, 4 * p ** (weight - 1)
    if square > den:
        raise IdentityViolationError(f"|a_{p}| exceeds 2 p^((k-1)/2)")
    z = math.isqrt(bins * bins * square // den)
    return min(((-z - 1 if ap < 0 else z) + bins) // 2, bins - 1)
