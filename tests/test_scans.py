import decimal
import hashlib
import math
import os
import signal
import subprocess
import sys
import threading
from collections import Counter
from pathlib import Path

import pytest

from taulab import factor, scans
from taulab.cli import EXIT_BUDGET, EXIT_OK, main
from taulab.errors import BudgetExceededError, IdentityViolationError
from taulab.hecke import CoefficientTable, EigenformSpec, coeff_prime_power, ingest_table
from taulab.identities import divisibility_tower
from taulab.scans import (
    CSV_HEADER,
    MIN_SCAN_PRIME,
    ScanRow,
    ScanSummary,
    bound_value,
    sato_tate_histogram,
    scan_rows,
    threshold_scan,
    st_measure,
)

def largest_prime(n):
    """P(n) from sympy, so a pinned P is checked against code other than the scan's."""
    sympy = pytest.importorskip("sympy")
    return max(sympy.factorint(n), default=1)


def isqrt_bin(ap, p, bins):
    """The benchmark's bin oracle: floor(bins * lam) from one integer square root."""
    x, n = bins * ap, 4 * p**11
    root = math.isqrt(x * x // n)
    k = root if x >= 0 else -(root if root * root * n == x * x else root + 1)
    return min(max((k + bins) // 2, 0), bins - 1)


def edge_bin(ap, p, bins):
    """The number of interior edges -1 + 2j/bins at or below lam = ap / (2 p^5.5).

    lam >= e_j exactly when bins * ap >= (2j - bins) * 2 p^5.5: compare signs,
    then the squares bins^2 ap^2 and (2j - bins)^2 4 p^11 as integers.
    """
    u2, scale = (bins * ap) ** 2, 4 * p**11
    count = 0
    for j in range(1, bins):
        v = 2 * j - bins
        if ap >= 0:
            count += v <= 0 or u2 >= v * v * scale
        else:
            count += v < 0 and u2 <= v * v * scale
    return count


def below_edge(p, j, bins):
    """The largest integer a_p below the edge e_j = -1 + 2j/bins, scaled: a_p < e_j * 2 p^5.5.

    Only the middle edge e_j = 0 is reached exactly; every other one is
    irrational, since p^11 is not a square.
    """
    v = 2 * j - bins
    n, d = 4 * v * v * p**11, bins * bins
    root = math.isqrt(n // d)
    return root - (root * root * d == n) if v >= 0 else -root - 1


# (2n, x, threshold, budgets): the GRH constant lifts the threshold above
# the trial bound, so trial division leaves some verdicts open and those
# rows fall back to rho; the scan has pass, fail and unknown rows
SUMMARY_CASES = [
    (2, 400, dict(grh_c=1e7, trial_bound=1000, rho_budget=10**5)),
    (4, 300, dict(epsilon=0.1, trial_bound=10**4, rho_budget=10**5)),
]


class TestBoundValue:
    def test_small_prime_positive(self):
        v = float(bound_value(17, epsilon=0.1))
        assert 0 < v < 1.2

    def test_against_float_oracle(self):
        for p in (17, 101, 4099, 10**6 + 3):
            val = float(bound_value(p, epsilon=0.1))
            oracle = math.log(p) ** 0.125 * math.log(math.log(p)) ** 0.275
            assert abs(val - oracle) / oracle < 1e-10
            grh = float(bound_value(p, grh_c=1.0))
            grh_oracle = p ** (1 / 14) * math.log(p) ** (2 / 7)
            assert abs(grh - grh_oracle) / grh_oracle < 1e-10

    def test_epsilon_zero(self):
        v = float(bound_value(10**6 + 3, epsilon=0.0))
        assert abs(v - 1.9942) < 1e-3

    def test_monotone(self):
        values = [float(bound_value(p, epsilon=0.1)) for p in (17, 19, 101, 1009, 99991)]
        assert values == sorted(values)

    def test_domain(self):
        with pytest.raises(ValueError):
            bound_value(13, epsilon=0.1)
        with pytest.raises(ValueError):
            bound_value(101)
        with pytest.raises(ValueError):
            bound_value(101, epsilon=0.1, grh_c=1.0)
        with pytest.raises(ValueError):
            bound_value(101, epsilon=-0.5)

    @pytest.mark.parametrize("kwargs", [
        dict(grh_c=math.nan), dict(grh_c=math.inf), dict(grh_c=0.0), dict(grh_c=-1.0),
        dict(epsilon=math.nan), dict(epsilon=math.inf),
    ])
    def test_rejects_non_finite_and_non_positive(self, kwargs):
        with pytest.raises(ValueError):
            bound_value(101, **kwargs)


class TestThresholdScan:
    def test_rejects_odd_exponent(self, delta):
        with pytest.raises(ValueError):
            threshold_scan(delta, 3, 100)

    def test_rejects_trial_bound_below_one(self, delta):
        for pin in (False, True):
            with pytest.raises(ValueError):
                next(scan_rows(delta, 2, 100, trial_bound=0, pin=pin))

    def test_rejects_negative_rho_budget(self, delta):
        # checked before any row, whether or not a row reaches the split stage
        for pin in (False, True):
            with pytest.raises(ValueError, match="rho budget"):
                next(scan_rows(delta, 2, 100, rho_budget=-1, pin=pin))

    @pytest.mark.parametrize("kwargs", [dict(epsilon=math.nan), dict(epsilon=None, grh_c=None)])
    def test_rejects_a_bad_threshold_mode_before_any_row(self, delta, kwargs):
        # x = 16 scans no prime, so only the check at the top can raise
        for pin in (False, True):
            with pytest.raises(ValueError):
                list(scan_rows(delta, 2, 16, pin=pin, **kwargs))

    def test_small_scan_all_pass(self, delta_warm_small):
        rows, summary = threshold_scan(
            delta_warm_small, 2, 10**3, epsilon=0.1, trial_bound=10**4, rho_budget=10**5
        )
        assert summary.unknown_count == 0
        assert summary.pass_fraction == 1.0
        assert all(r.p >= MIN_SCAN_PRIME for r in rows)
        # desk-scale thresholds sit below 2, so any odd prime factor clears them
        assert all(r.bound < 3 for r in rows)

    def test_row_semantics(self, delta_warm_small):
        rows, _ = threshold_scan(
            delta_warm_small, 2, 200, epsilon=0.1, trial_bound=10**4, rho_budget=10**5
        )
        for row in rows:
            assert row.value == coeff_prime_power(delta_warm_small, row.p, 2)
            if row.status == "exact":
                assert row.largest_prime_factor == largest_prime(abs(row.value))
                assert row.passes == (row.largest_prime_factor > row.bound)
            else:
                assert row.known_prime_floor > row.bound
                assert row.passes

    def test_csv_shape(self, delta_warm_small):
        rows, _ = threshold_scan(
            delta_warm_small, 2, 100, epsilon=0.1, trial_bound=10**4, rho_budget=10**4
        )
        assert CSV_HEADER.count(",") == 6
        for row in rows:
            assert row.csv_line().count(",") == 6

    def test_grh_mode(self, delta_warm_small):
        rows, summary = threshold_scan(
            delta_warm_small, 2, 300, grh_c=1.0, trial_bound=10**4, rho_budget=10**5
        )
        # thresholds ~ p^(1/14) log(p)^(2/7) stay far below the trial bound
        assert summary.unknown_count == 0
        assert all(r.bound < 20 for r in rows)


class TestSummaryPath:
    @pytest.mark.parametrize("two_n, x_bound, kwargs", SUMMARY_CASES)
    def test_summary_equals_pinned(self, delta_warm_small, two_n, x_bound, kwargs):
        _, pinned = threshold_scan(delta_warm_small, two_n, x_bound, **kwargs)
        summary = ScanSummary.of(scan_rows(delta_warm_small, two_n, x_bound, pin=False, **kwargs))
        assert summary.to_json() == pinned.to_json()

    def test_grh_case_takes_every_branch(self, delta_warm_small):
        two_n, x_bound, kwargs = SUMMARY_CASES[0]
        _, pinned = threshold_scan(delta_warm_small, two_n, x_bound, **kwargs)
        assert pinned.pass_count and pinned.fail_count and pinned.unknown_count
        rows = list(scan_rows(delta_warm_small, two_n, x_bound, pin=False, **kwargs))
        fallback = [r for r in rows if not factor.factorize(
            abs(r.value), kwargs["trial_bound"], 0).is_complete and r.status != "partial"]
        # rho pinned some undecided rows and gave up on others
        assert {r.status for r in fallback} == {"exact", "unknown"}

    def test_unpinned_rows_keep_verdicts(self, delta_warm_small):
        pinned, _ = threshold_scan(delta_warm_small, 2, 300, trial_bound=10**4, rho_budget=10**5)
        rows = list(scan_rows(delta_warm_small, 2, 300, trial_bound=10**4, rho_budget=10**5,
                              pin=False))
        assert [r.passes for r in rows] == [r.passes for r in pinned]
        # desk-scale thresholds: trial division decides every row
        assert {r.status for r in rows} <= {"exact", "partial"}
        assert any(r.status == "partial" for r in rows)
        for row, ref in zip(rows, pinned):
            assert row.known_prime_floor <= (ref.largest_prime_factor or ref.known_prime_floor)

    @pytest.mark.parametrize("cut_71", [189_743, 199_999, 200_000, 205_000])
    def test_grh_grid_around_trial_bound(self, delta_warm_small, capsys, cut_71):
        # P(a(71^2)) = 189743 is its only prime above 1013; c puts floor(bound)
        # at p = 71 on P itself, just below, at, or above the trial bound, so
        # that row fails on the smooth branch or on trial division, and the
        # other rows fall on either side of the trial bound
        trial_bound = 200_000
        grh_c = (cut_71 + 0.5) / float(bound_value(71, grh_c=1.0))
        assert int(bound_value(71, grh_c=grh_c)) == cut_71
        kwargs = dict(grh_c=grh_c, trial_bound=trial_bound, rho_budget=10**6)
        pinned, want = threshold_scan(delta_warm_small, 2, 80, **kwargs)
        rows = list(scan_rows(delta_warm_small, 2, 80, pin=False, **kwargs))
        assert ScanSummary.of(rows).to_json() == want.to_json()
        assert all(ref.status == "exact" for ref in pinned)
        smooth = [(row, ref) for row, ref in zip(rows, pinned) if int(row.bound) < trial_bound]
        assert smooth and (cut_71 < trial_bound) == (71 in [row.p for row, _ in smooth])
        for row, ref in smooth:
            assert row.passes == ref.passes
            if row.status == "exact":
                # a failing row, or a passing one whose survivor is at most cut^2
                assert row.largest_prime_factor == ref.largest_prime_factor
            else:
                assert row.passes and row.status == "partial"
                assert row.bound < row.known_prime_floor <= ref.largest_prime_factor
        failing = [row.p for row in rows if row.passes is False]
        assert 71 in failing
        args = ["scan", "--two-n", "2", "--x-bound", "80", "--grh-c", repr(grh_c),
                "--trial-bound", str(trial_bound), "--rho-budget", str(10**6)]
        code = EXIT_BUDGET if want.unknown_count else EXIT_OK
        for fmt in ("json", "csv"):
            assert main(args + ["--format", fmt]) == code
            captured = capsys.readouterr()
            assert (captured.err if fmt == "csv" else captured.out) == want.to_json() + "\n"

    @pytest.mark.parametrize("pin", [False, True], ids=["summary", "pinned"])
    @pytest.mark.parametrize("two_n, x_bound, kwargs", SUMMARY_CASES)
    def test_one_trial_division_per_row(self, delta_warm_small, monkeypatch, two_n, x_bound,
                                        kwargs, pin):
        calls = []
        real = factor._trial_divide
        monkeypatch.setattr(factor, "_trial_divide", lambda n, *a: calls.append(n) or real(n, *a))
        rows = list(scan_rows(delta_warm_small, two_n, x_bound, pin=pin, **kwargs))
        # every row's value is divided at most once: a row the trial stage
        # leaves open goes on to the split stage, not to a second division
        assert len(calls) <= len(rows)
        assert max(Counter(calls).values()) == 1

    def test_cofactor_above_trial_bound_passes(self, delta_warm_small, capsys):
        # a(17^2) = 842087 * 15936629 and floor(bound) = 100 is the trial
        # bound: with no rho the cofactor stays whole, but its primes are
        # all at least 101 > bound = 100.5, so the row passes unpinned
        kwargs = dict(grh_c=60.961298, trial_bound=100, rho_budget=0)
        for pin in (True, False):
            (row,) = scan_rows(delta_warm_small, 2, 17, pin=pin, **kwargs)
            assert row.value == 842087 * 15936629 and 100 < row.bound < 101
            assert (row.status, row.passes, row.known_prime_floor) == ("partial", True, 101)
        args = ["scan", "--two-n", "2", "--x-bound", "17", "--grh-c", "60.961298",
                "--trial-bound", "100", "--rho-budget", "0"]
        for fmt in ("json", "csv"):
            assert main(args + ["--format", fmt]) == EXIT_OK
            captured = capsys.readouterr()
            assert '"pass": 1' in (captured.err if fmt == "csv" else captured.out)

    def test_fold_counts(self):
        rows = [ScanRow(17, 2, 1, 1.0, "exact", 1, 1, False),
                ScanRow(19, 2, 6, 1.0, "exact", 3, 3, True),
                ScanRow(23, 2, 10**30, 1e9, "unknown", None, 10, None)]
        summary = ScanSummary.of(iter(rows))
        assert (summary.total_rows, summary.pass_count, summary.fail_count,
                summary.unknown_count, summary.zero_rows) == (3, 1, 1, 1, 0)
        assert ScanSummary.of([]).pass_fraction == 0.0


def planted_grh_c(k):
    """A GRH constant that puts the bound at p = 71 within a few ulp of the integer k."""
    return k / float(bound_value(71, grh_c=1.0))


def mpmath_bound(ctx, p, epsilon, grh_c):
    """The threshold at p in an mpmath context, an oracle apart from ``decimal``."""
    lp = ctx.log(p)
    if epsilon is None:
        return ctx.mpf(grh_c) * ctx.mpf(p) ** (ctx.mpf(1) / 14) * lp ** (ctx.mpf(2) / 7)
    return lp ** (ctx.mpf(1) / 8) * ctx.log(lp) ** (ctx.mpf(3) / 8 - ctx.mpf(epsilon))


def mpmath_interval_floor(p, grh_c):
    """floor(bound) at p in the GRH mode from ``mpmath.iv``, from 80 bits until the ends agree."""
    iv = pytest.importorskip("mpmath").iv
    saved = iv.prec
    try:
        for j in range(8):
            iv.prec = 80 * 2**j
            b = mpmath_bound(iv, p, None, grh_c)
            if int(b.a) == int(b.b):  # both ends are positive: int() is their floor
                return int(b.a)
    finally:
        iv.prec = saved
    raise AssertionError(f"no floor at p={p} within 10240 bits")


THRESHOLD_MODES = [
    dict(epsilon=0.0), dict(epsilon=0.1), dict(epsilon=0.375), dict(epsilon=2.0),
    dict(grh_c=2.5), dict(grh_c=1e7),
]
# the primes up to 10^6 whose bound at c = 10^7 the double leaves undecided
DEFERRED_AT_C7 = [186097, 244219, 352949, 526667, 666683, 901787]
PINNED_CSV_2 = ["scan", "--two-n", "2", "--x-bound", "1000", "--eps", "0.1",
                "--trial-bound", "10000", "--rho-budget", "300000", "--format", "csv"]


class TestThresholdFloor:
    """``_threshold_floor``: the floor from a double, proven in ``decimal`` near an integer."""

    @pytest.fixture
    def deferred(self, monkeypatch):
        calls = []
        real = scans._decimal_floor
        monkeypatch.setattr(scans, "_decimal_floor",
                            lambda p, *mode: calls.append(p) or real(p, *mode))
        return calls

    @pytest.mark.parametrize("mode", THRESHOLD_MODES)
    def test_double_floor_matches_bound_value(self, deferred, mode):
        mode = dict(dict(epsilon=None, grh_c=None), **mode)
        for p in factor.primes_up_to(2 * 10**4):
            if p >= MIN_SCAN_PRIME:
                b, cut = scans._threshold_floor(p, **mode)
                want = bound_value(p, **mode)
                assert cut == int(want), p
                assert abs(b - float(want)) <= float(want) * 2.0**-40, p
        assert deferred == []  # the doubles decided every row

    @pytest.mark.parametrize("mode", THRESHOLD_MODES)
    def test_bound_value_matches_mpmath(self, mode):
        mpmath = pytest.importorskip("mpmath")
        mode = dict(dict(epsilon=None, grh_c=None), **mode)
        with mpmath.workprec(80):
            for p in factor.primes_up_to(2 * 10**4):
                if p >= MIN_SCAN_PRIME:
                    want = float(mpmath_bound(mpmath.mp, p, **mode))
                    assert float(bound_value(p, **mode)) == want, p

    @pytest.mark.parametrize("p, k", [(71, 2), (71, 7), (71, 1000)]
                             + [(p, None) for p in DEFERRED_AT_C7])
    def test_deferred_floor_matches_mpmath_intervals(self, deferred, p, k):
        grh_c = 1e7 if k is None else planted_grh_c(k)
        assert scans._threshold_floor(p, None, grh_c)[1] == mpmath_interval_floor(p, grh_c)
        assert deferred == [p]

    @pytest.mark.parametrize("k", [2, 7, 1000])
    def test_near_integer_bound_is_proven_by_intervals(self, deferred, k):
        grh_c = planted_grh_c(k)
        want = bound_value(71, grh_c=grh_c)
        assert abs(want - k) < k * 2.0**-40
        assert scans._threshold_floor(71, None, grh_c)[1] == int(want)
        assert deferred == [71]

    def test_interval_precision_doubles_up_to_the_cap(self, monkeypatch):
        grh_c = planted_grh_c(7)
        want = int(bound_value(71, grh_c=grh_c))
        # from 5 digits the doubling reaches 40, which decides the planted bound
        monkeypatch.setattr(scans, "_BOUND_DIGITS", 5)
        assert scans._decimal_floor(71, None, grh_c) == want
        # 10 digits cannot tell the bound from 7, and 20 is past the cap
        monkeypatch.setattr(scans, "_FLOOR_DIGITS_CAP", 10)
        with pytest.raises(BudgetExceededError):
            scans._decimal_floor(71, None, grh_c)

    def test_threshold_ignores_the_callers_decimal_context(self, delta_warm_small, capsys,
                                                           deferred):
        grh_c = planted_grh_c(7)

        def thresholds():
            return (bound_value(71, epsilon=0.1), bound_value(71, grh_c=grh_c),
                    scans._threshold_floor(71, None, grh_c))

        want = thresholds()
        with decimal.localcontext() as ctx:
            ctx.prec, ctx.rounding = 6, decimal.ROUND_FLOOR
            assert thresholds() == want
            assert main(PINNED_CSV_2) == EXIT_OK
        assert deferred == [71, 71]
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "31b11e465afc9c538871ee959153d7869b001dfb68fea4c2934fc097c3f3fcec")

    def test_undecided_floor_exits_2(self, delta_warm_small, capsys, monkeypatch):
        grh_c = planted_grh_c(7)
        monkeypatch.setattr(scans, "_FLOOR_DIGITS_CAP", 20)
        code = main(["scan", "--two-n", "2", "--x-bound", "80", "--grh-c", repr(grh_c),
                     "--format", "json"])
        assert code == EXIT_BUDGET
        assert "p=71" in capsys.readouterr().err

    def test_overflowing_double_defers(self, delta_warm_small, deferred):
        # c p^(1/14) (log p)^(2/7) passes the largest double at p = 17 and 19
        rows = list(scan_rows(delta_warm_small, 2, 20, grh_c=1.7e308, pin=False))
        assert deferred == [17, 19]
        assert [(r.p, r.passes, r.bound) for r in rows] == [(17, False, math.inf),
                                                            (19, False, math.inf)]
        assert ScanSummary.of(rows).to_json() == (
            '{"fail": 2, "pass": 0, "passFraction": 0.0, "rows": 2, "unknown": 0, "zeroRows": 0}')

    def test_underflowing_bound_floors_to_zero(self, delta_warm_small, deferred):
        # (log log p)^(3/8 - 10^20) is below the smallest double and the
        # smallest Decimal at p = 17 and 19; the bound is positive, so its
        # floor is 0 and both rows pass
        rows = list(scan_rows(delta_warm_small, 2, 20, epsilon=1e20, pin=False))
        assert deferred == [17, 19]
        assert [(r.p, r.passes, r.bound) for r in rows] == [(17, True, 0.0), (19, True, 0.0)]

    def test_tiny_decimal_bound_floors_to_zero(self, delta_warm_small, capsys, deferred):
        # at epsilon = 10^12 the double underflows but the 40-digit bound is
        # about 10^(-1.76 10^10): a floor of 0, decided without its fraction
        rows = list(scan_rows(delta_warm_small, 2, 20, epsilon=1e12, pin=False))
        assert [(r.p, r.passes, r.bound) for r in rows] == [(17, True, 0.0), (19, True, 0.0)]
        assert main(["scan", "--two-n", "2", "--x-bound", "20", "--eps", "1e12",
                     "--format", "csv"]) == EXIT_OK
        assert deferred == [17, 19, 17, 19]
        assert capsys.readouterr().out.splitlines()[1:] == [
            "17,2,13420028104723,15936629,0.0,true,exact",
            "19,2,-2824382481819,941460827273,0.0,true,exact"]

    def test_last_floor_step_runs_at_the_cap(self, monkeypatch):
        grh_c = planted_grh_c(7)
        digits = []
        real = scans._bound_decimal
        monkeypatch.setattr(scans, "_bound_decimal",
                            lambda *args: digits.append(args[-1]) or real(*args))
        monkeypatch.setattr(scans, "_BOUND_DIGITS", 4)
        monkeypatch.setattr(scans, "_FLOOR_DIGITS_CAP", 12)
        with pytest.raises(BudgetExceededError):
            scans._decimal_floor(71, None, grh_c)
        assert digits == [4, 8, 12]

    def test_pinned_bound_past_the_largest_double_prints_17_digits(self, delta_warm_small,
                                                                   capsys):
        # mpmath at 80 bits: 2.8025978278797432209e308 and 2.8562038174385883388e308
        argv = ["scan", "--two-n", "2", "--x-bound", "20", "--grh-c", "1.7e308", "--format", "csv"]
        assert main(argv) == EXIT_OK
        rows = [line.split(",") for line in capsys.readouterr().out.splitlines()[1:]]
        assert [(row[0], row[4]) for row in rows] == [("17", "2.8025978278797432E+308"),
                                                      ("19", "2.8562038174385883E+308")]

    @pytest.mark.parametrize("two_n, x_bound, kwargs", SUMMARY_CASES)
    def test_summary_and_pinned_rows_agree(self, delta_warm_small, two_n, x_bound, kwargs):
        pinned, _ = threshold_scan(delta_warm_small, two_n, x_bound, **kwargs)
        rows = list(scan_rows(delta_warm_small, two_n, x_bound, pin=False, **kwargs))
        assert [r.p for r in rows] == [r.p for r in pinned]
        for row, ref in zip(rows, pinned):
            assert row.passes == ref.passes
            assert abs(row.bound - ref.bound) <= ref.bound * 2.0**-40
            assert int(row.bound) == int(ref.bound)
        if "grh_c" in kwargs:
            # the cut is above the trial bound on every row, so the summary
            # splits every row it cannot close and pins the same P
            assert [r.status for r in rows] == [r.status for r in pinned]


# a pinned CSV and a GRH summary with pass, fail and unknown rows, at small budgets
SPLIT_ARGV = [
    ["scan", "--two-n", "2", "--x-bound", "300", "--trial-bound", "1000",
     "--rho-budget", "20000", "--format", "csv"],
    ["scan", "--two-n", "2", "--x-bound", "400", "--grh-c", "1e7", "--trial-bound", "1000",
     "--rho-budget", "100000", "--format", "json"],
]


def assert_no_children():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class TestSplitWorkers:
    """The split stage runs in forked children, one per CPU, and prints the same at any count."""

    @pytest.fixture(autouse=True)
    def deadline(self):
        def expire(signum, frame):
            raise TimeoutError("the scan and its workers did not finish in 120 s")

        previous = signal.signal(signal.SIGALRM, expire)
        signal.alarm(120)
        yield
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)

    @pytest.fixture
    def forks(self, monkeypatch):
        calls = []
        real = os.fork
        monkeypatch.setattr(os, "fork", lambda: calls.append(1) or real())
        return calls

    @pytest.mark.parametrize("argv", SPLIT_ARGV, ids=["csv", "grh-summary"])
    def test_output_is_the_same_at_any_worker_count(self, delta_warm_small, capsys, monkeypatch,
                                                    forks, argv):
        outcomes = {}
        for cpus in (1, 2, 3):
            monkeypatch.setattr(scans, "_cpu_count", lambda: cpus)
            forks.clear()
            code = main(argv)
            captured = capsys.readouterr()
            outcomes[cpus] = (code, captured.out, captured.err)
            assert len(forks) == (0 if cpus == 1 else cpus)
            assert_no_children()
        assert outcomes[1] == outcomes[2] == outcomes[3]
        assert outcomes[1][0] == (EXIT_OK if argv[-1] == "csv" else EXIT_BUDGET)

    def test_summary_below_the_trial_bound_forks_nothing(self, delta_warm_small, capsys,
                                                         monkeypatch):
        # the benchmark's eps summary: trial division at cut decides every row
        monkeypatch.setattr(os, "fork", lambda: pytest.fail("forked"))
        assert main(["scan", "--two-n", "2", "--x-bound", "1000", "--trial-bound", "10000",
                     "--rho-budget", "300000", "--format", "json"]) == EXIT_OK
        assert '"pass": 162' in capsys.readouterr().out

    def test_other_threads_keep_the_split_in_process(self, delta_warm_small, capsys,
                                                    monkeypatch):
        monkeypatch.setattr(scans, "_cpu_count", lambda: 2)
        monkeypatch.setattr(os, "fork", lambda: pytest.fail("forked beside a thread"))
        release = threading.Event()
        other = threading.Thread(target=release.wait)
        other.start()
        try:
            assert main(SPLIT_ARGV[0]) == EXIT_OK
        finally:
            release.set()
            other.join(10)
        assert not other.is_alive()
        assert capsys.readouterr().out.startswith(CSV_HEADER)

    def test_worker_exception_is_raised_in_the_parent(self, delta_warm_small, monkeypatch):
        monkeypatch.setattr(scans, "_cpu_count", lambda: 2)
        parent = os.getpid()

        def broken(fac, rho_budget):
            assert os.getpid() != parent, "the split ran in the parent"
            raise ValueError("planted split failure")

        monkeypatch.setattr(factor, "split_cofactor", broken)
        with pytest.raises(ValueError, match="planted split failure"):
            threshold_scan(delta_warm_small, 2, 300, trial_bound=1000, rho_budget=20000)
        assert_no_children()

    def test_worker_that_dies_is_reported(self, delta_warm_small, monkeypatch):
        monkeypatch.setattr(scans, "_cpu_count", lambda: 2)
        parent = os.getpid()
        real = factor.split_cofactor

        def dying(fac, rho_budget):
            if os.getpid() != parent:
                os._exit(7)
            return real(fac, rho_budget)

        monkeypatch.setattr(factor, "split_cofactor", dying)
        with pytest.raises(ChildProcessError, match="status 7"):
            threshold_scan(delta_warm_small, 2, 300, trial_bound=1000, rho_budget=20000)
        assert_no_children()

    def test_failed_fork_splits_in_process(self, delta_warm_small, monkeypatch):
        # the first child is started, the second cannot be: it is killed and
        # reaped, and the parent splits every row itself
        monkeypatch.setattr(scans, "_cpu_count", lambda: 1)
        expected, _ = threshold_scan(delta_warm_small, 2, 300, trial_bound=1000, rho_budget=20000)
        monkeypatch.setattr(scans, "_cpu_count", lambda: 2)
        real, forks = os.fork, []

        def second_fails():
            forks.append(1)
            if len(forks) == 2:
                raise OSError(11, "Resource temporarily unavailable")
            return real()

        monkeypatch.setattr(os, "fork", second_fails)
        rows, _ = threshold_scan(delta_warm_small, 2, 300, trial_bound=1000, rho_budget=20000)
        assert rows == expected
        assert len(forks) == 2
        assert_no_children()

    def test_reaping_holds_back_sigint(self, delta_warm_small, monkeypatch):
        # a SIGINT sent while the workers are reaped waits until they all are
        monkeypatch.setattr(scans, "_cpu_count", lambda: 2)
        real_waitpid = os.waitpid
        interrupts = []

        def waitpid(pid, options):
            if not interrupts:
                interrupts.append(1)
                os.kill(os.getpid(), signal.SIGINT)
            return real_waitpid(pid, options)

        monkeypatch.setattr(os, "waitpid", waitpid)
        with pytest.raises(KeyboardInterrupt):
            threshold_scan(delta_warm_small, 2, 300, trial_bound=1000, rho_budget=20000)
        monkeypatch.setattr(os, "waitpid", real_waitpid)
        assert_no_children()

    def test_parent_interrupted_ends_its_workers(self, delta_warm_small, monkeypatch):
        # a parent that stops while its workers run kills and reaps them
        monkeypatch.setattr(scans, "_cpu_count", lambda: 2)
        monkeypatch.setattr(factor, "split_cofactor", lambda fac, budget: os.pause())

        def interrupted(*args):
            raise KeyboardInterrupt

        real_fdopen = os.fdopen

        def fdopen(fd, mode):
            pipe = real_fdopen(fd, mode)
            if mode == "rb":
                pipe.read = interrupted
            return pipe

        monkeypatch.setattr(os, "fdopen", fdopen)
        with pytest.raises(KeyboardInterrupt):
            threshold_scan(delta_warm_small, 2, 300, trial_bound=1000, rho_budget=20000)
        assert_no_children()

    def test_imports_load_no_process_pools(self):
        script = (
            "import sys\n"
            "import taulab.scans, taulab.cli\n"
            "print([m for m in ('multiprocessing', 'concurrent.futures') if m in sys.modules])\n"
        )
        src = str(Path(scans.__file__).parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        env = dict(os.environ, PYTHONPATH=path)
        done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                              text=True, check=True)
        assert done.stdout.splitlines()[-1] == "[]"


class TestDivisibilityTower:
    def test_examples(self, delta, holds):
        # (p, 2n) = (2, 8) has the divisors {3, 9} of 9; (11, 2) only d = 3, self-division
        holds(divisibility_tower, f=delta, p_max=11, max_odd=9)

    def test_explicit_division(self, delta):
        nine = coeff_prime_power(delta, 2, 8)
        three = coeff_prime_power(delta, 2, 2)
        assert nine % three == 0

    def test_sweep_small(self, delta_warm_small, holds):
        holds(divisibility_tower, f=delta_warm_small, p_max=60, max_odd=31)

    def test_odd_exponent_reduction(self, delta_warm_small):
        # a_p divides a(p^(2n-1)): every odd-exponent term of the recursion carries a_p
        for p in factor.primes_up_to(60):
            ap = delta_warm_small.ap(p)
            assert ap != 0
            for n in range(1, 12):
                assert coeff_prime_power(delta_warm_small, p, 2 * n - 1) % ap == 0, (p, n)

    def test_monotone_largest_prime_through_divisors(self, delta_warm_small):
        # P(a(p^(2n))) >= P(a(p^(d-1))) for divisors d of 2n+1
        for p in (2, 3, 5):
            for n in (4, 13):
                odd = 2 * n + 1
                top = largest_prime(abs(coeff_prime_power(delta_warm_small, p, 2 * n)))
                for d in range(3, odd + 1, 2):
                    if odd % d:
                        continue
                    low = largest_prime(abs(coeff_prime_power(delta_warm_small, p, d - 1)))
                    assert top >= low


class TestSatoTate:
    def test_measure_normalization(self):
        assert abs(st_measure(-1, 1) - 1.0) < 1e-12
        # symmetric central bin is the fattest
        assert st_measure(-0.1, 0.1) > st_measure(0.8, 1.0)

    def test_bin_quadrature_sums_to_one(self, delta_warm_small):
        hist = sato_tate_histogram(delta_warm_small, 10**4, bins=20)
        assert abs(sum(hist.expected) - 1.0) < 1e-12
        assert sum(hist.counts) == hist.sample_size

    def test_small_scale_deviation(self, delta_warm_small):
        hist = sato_tate_histogram(delta_warm_small, 10**4, bins=20)
        assert hist.max_deviation <= 0.05

    def test_walk_runs_no_primality_tests(self, delta_warm_small, monkeypatch):
        calls = []
        real = factor.is_prime
        monkeypatch.setattr(factor, "is_prime", lambda n: calls.append(n) or real(n))
        hist = sato_tate_histogram(delta_warm_small, 10**4, bins=20)
        assert hist.sample_size == len(factor.primes_up_to(10**4))
        assert calls == []

    def test_validation(self, delta):
        with pytest.raises(ValueError):
            sato_tate_histogram(delta, 100, 20)
        with pytest.raises(ValueError):
            sato_tate_histogram(delta, 10**4, 1)

    @pytest.mark.parametrize("bins", [3, 7, 20])
    def test_bins_match_exact_oracles(self, delta_warm_small, bins):
        primes = factor.primes_up_to(10**4)
        hist = sato_tate_histogram(delta_warm_small, 10**4, bins=bins)
        for oracle in (isqrt_bin, edge_bin):
            want = [0] * bins
            for p in primes:
                want[oracle(delta_warm_small.ap(p), p, bins)] += 1
            assert hist.counts == want

    @pytest.mark.parametrize("bins", [2, 3, 7, 20])
    def test_planted_values_land_on_their_side_of_each_edge(self, tmp_path, delta_warm_small,
                                                            bins):
        """A weight-12 table to 1000 with a_p = 0 and values one apart across every edge."""
        primes = factor.primes_up_to(1000)
        entries = {p: delta_warm_small.ap(p) for p in primes}
        spare = iter(primes[::-1])
        planted = {next(spare): (0, bins // 2)}
        for j in range(1, bins):  # interior edge j / bins of the way up [-1, 1]
            below, above = next(spare), next(spare)
            planted[below] = (below_edge(below, j, bins), j - 1)
            planted[above] = (below_edge(above, j, bins) + 1, j)
        top, bottom = next(spare), next(spare)
        planted[top] = (below_edge(top, bins, bins), bins - 1)  # just below lam = 1
        planted[bottom] = (-below_edge(bottom, bins, bins), 0)  # just above lam = -1
        want = [0] * bins
        for p in primes:
            if p in planted:
                entries[p], b = planted[p]
            else:
                b = edge_bin(entries[p], p, bins)
            want[b] += 1
        path = tmp_path / "planted.csv"
        path.write_text("".join(f"{p},{a}\n" for p, a in entries.items()))
        hist = sato_tate_histogram(ingest_table(path, 12, 1), 1000, bins=bins)
        assert hist.counts == want

    def test_value_past_the_bound_raises(self):
        entries = {p: 0 for p in factor.primes_up_to(1000)}
        entries[997] = -below_edge(997, 1, 1) - 1
        form = EigenformSpec(12, 1, table=CoefficientTable(bound=1000, entries=entries))
        with pytest.raises(IdentityViolationError):
            sato_tate_histogram(form, 1000, bins=2)

    def test_csv_lines(self, delta_warm_small):
        hist = sato_tate_histogram(delta_warm_small, 10**4, bins=10)
        lines = hist.csv_lines()
        assert lines[0] == "bin_low,bin_high,count,frequency,expected"
        assert len(lines) == 11
