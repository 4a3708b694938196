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

Values, thresholds and the trial stage run in the calling process.  The
split stage runs on every CPU in the process's affinity mask: one
forked child per CPU (at most one per open row) takes every W-th open
row, so ``taskset -c 0`` keeps it to one core.  Rho's start points
depend only on its input, so the rows, and every byte printed from
them, are the same at any CPU count.

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
import os
import pickle
import signal
import threading
from collections import Counter
from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction
from typing import BinaryIO

from . import factor
from .errors import BudgetExceededError, IdentityViolationError
from .hecke import EigenformSpec, _coeff_from_ap, iter_prime_coeffs

# log log p > 1 from the first prime past e^e, so the threshold is a
# positive real from here on
MIN_SCAN_PRIME = 17

_BOUND_DIGITS = 40
# the double decides a floor only this far, relatively, from every integer
_FLOOR_MARGIN = 2.0**-40
# a deferred floor's digits double from _BOUND_DIGITS to this (~10240 bits)
_FLOOR_DIGITS_CAP = 3083


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
    """floor(b) when [b(1 - margin), b(1 + margin)] holds no integer, else None."""
    low, high = b * (1 - margin), b * (1 + margin)
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

    Rows come out in order of p.  Those before the first row the split
    stage must finish go out as they are made; the rest wait until every
    row's trial stage is done and the split stage has run on the open
    rows at once, across the CPUs (``_split_all``).  Only an open row
    keeps its factorization until then.

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
    # rows from the first open one on: a ScanRow, or (p, value, bound, cut)
    # for an open row, whose factorization waits in open_facs
    held: list[ScanRow | tuple[int, int, float, int]] = []
    open_facs: list[factor.Factorization] = []
    for p, ap in iter_prime_coeffs(f, x_bound):
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
            held.append((p, value, bound, cut))
            open_facs.append(fac)
        elif held:
            held.append(row)
        else:
            yield row  # no open row before it, so it goes out at once
    split = iter(_split_all(open_facs, rho_budget))
    for row in held:
        if not isinstance(row, ScanRow):
            p, value, bound, cut = row
            row = _row(p, two_n, value, bound, cut, next(split))
        yield row


def _cpu_count() -> int:
    """CPUs this process may run on: its affinity mask where the OS keeps one."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity masks (macOS, Windows)
        return os.cpu_count() or 1


def _split_all(facs: list[factor.Factorization], rho_budget: int) -> list[factor.Factorization]:
    """``factor.split_cofactor`` on each factorization, split over the CPUs.

    W = min(len(facs), CPUs) forked children run when W >= 2 (see
    ``_split_forked``).  Otherwise the calls run here, as they do where
    there is no fork, where other threads run (a fork copies no thread,
    but may copy a lock one of them holds), or where no pipe or child
    can be made.  Rho depends only on its input, so the results are the
    same at any W.
    """
    workers = min(len(facs), _cpu_count())
    if workers >= 2 and hasattr(os, "fork") and threading.active_count() == 1:
        split = _split_forked(facs, rho_budget, workers)
        if split is not None:
            return split
    return [factor.split_cofactor(fac, rho_budget) for fac in facs]


def _split_forked(facs: list[factor.Factorization], rho_budget: int,
                  workers: int) -> list[factor.Factorization] | None:
    """The split in ``workers`` forked children; None when one cannot be started.

    Child w takes facs w, w + W, ... and sends back, pickled through its
    own pipe, its results or the exception it raised, which is raised
    here.  A child that exits nonzero died before it could answer.
    Every child is reaped before this returns or raises; when a pipe or
    a fork fails (out of descriptors or processes), or this process is
    interrupted, the children are killed first.
    """
    children: list[tuple[int, BinaryIO]] = []
    replies: list[bytes] | None = None
    try:
        for w in range(workers):
            try:
                children.append(_start_worker(facs[w::workers], rho_budget))
            except OSError:
                return None
        replies = [pipe.read() for _, pipe in children]
    finally:
        statuses = _reap(children, stop=replies is None)
    for status in statuses:
        if status:
            raise ChildProcessError(f"split worker exited with status {status}")
    out: list = [None] * len(facs)
    for w, reply in enumerate(replies):
        error, results = pickle.loads(reply)
        if error is not None:
            raise error
        out[w::workers] = results
    return out


def _start_worker(facs: list[factor.Factorization], rho_budget: int) -> tuple[int, BinaryIO]:
    """Fork a child that splits ``facs``; its pid and the read end of its pipe."""
    read_end, write_end = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(read_end)
        os.close(write_end)
        raise
    if pid == 0:
        _split_worker(write_end, facs, rho_budget)
    os.close(write_end)
    return pid, os.fdopen(read_end, "rb")


def _split_worker(write_end: int, facs: list[factor.Factorization], rho_budget: int) -> None:
    """A forked child's whole life: split, pickle (error, results) into the pipe, exit."""
    try:
        try:
            reply = None, [factor.split_cofactor(fac, rho_budget) for fac in facs]
        except BaseException as exc:  # raised again in the parent
            reply = exc, []
        with os.fdopen(write_end, "wb") as pipe:
            pickle.dump(reply, pipe)
        os._exit(0)
    finally:
        os._exit(1)  # the reply could not be sent


def _reap(children: list[tuple[int, BinaryIO]], stop: bool) -> list[int]:
    """Wait for every child, killing it first when ``stop``; their exit statuses.

    SIGINT is held back meanwhile, so a second interrupt cannot cut the
    loop short and leave a child unreaped.
    """
    mask = signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGINT})
    try:
        statuses = []
        for pid, pipe in children:
            pipe.close()
            if stop:
                os.kill(pid, signal.SIGKILL)
            statuses.append(os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]))
        return statuses
    finally:
        signal.pthread_sigmask(signal.SIG_SETMASK, mask)


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
    return (math.asin(t) + t * math.sqrt(1 - t * t)) / math.pi + 0.5


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
