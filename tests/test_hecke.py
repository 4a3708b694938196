import decimal
import threading
from math import comb, gcd, isqrt

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from taulab import factor, hecke, identities
from taulab.cyclotomic import eval_poly, psi_poly
from taulab.errors import BudgetExceededError, DataExhaustedError, TableFormatError
from taulab.hecke import (
    EigenformSpec,
    coeff_prime_power,
    delta_series_view,
    export_table,
    find_first_prime_tau,
    ingest_table,
    prime_coeffs,
    tau_series,
)

FIRST_TAU = [1, -24, 252, -1472, 4830, -6048, -16744, 84480, -113643, -115920]


class TestSeries:
    def test_first_values(self):
        assert tau_series(1)[1:] == [1]
        assert tau_series(5)[1:] == FIRST_TAU[:5]
        assert tau_series(10)[1:] == FIRST_TAU

    def test_against_naive_eta_product(self):
        limit = 150
        coeffs = [0] * (limit + 1)
        coeffs[0] = 1
        for n in range(1, limit + 1):
            for _ in range(24):
                for i in range(limit, n - 1, -1):
                    coeffs[i] -= coeffs[i - n]
        naive = [0] + coeffs[:limit]
        assert tau_series(limit) == naive

    def test_limit_validation(self):
        with pytest.raises(ValueError):
            tau_series(0)

    def test_memory_ceiling(self, monkeypatch):
        monkeypatch.setattr(hecke, "DEFAULT_SERIES_CEILING", 10**5)
        with pytest.raises(BudgetExceededError):
            tau_series(10**5 + 1)

    def test_multiplicativity(self):
        series = delta_series_view(10**4)
        for a in range(2, 100):
            for b in range(a + 1, 10**4 // a + 1):
                if gcd(a, b) == 1:
                    assert series[a * b] == series[a] * series[b], (a, b)

    def test_prime_powers_match_recursion(self, monkeypatch, holds):
        # the shared check, reading one cold build of 5000 terms as the cache
        monkeypatch.setattr(hecke, "_series", tau_series(5000))
        holds(identities.series_recursion, limit=5000)

    def test_tau_width_holds_every_value(self, monkeypatch):
        widths = []
        widen = hecke._widen

        def spy(slots, n, w, w2):
            widths.append(w2)
            return widen(slots, n, w, w2)

        monkeypatch.setattr(hecke, "_widen", spy)
        series = tau_series(10**4)
        (w2,) = widths
        largest = max(map(abs, series))
        # an excess slot of w2 digits holds [-10^w2 / 2, 10^w2 / 2)
        assert len(str(largest)) < w2 and largest <= 10**w2 // 2 - 1

    def test_lossy_context_raises(self, monkeypatch):
        lossy = hecke._EXACT.copy()
        lossy.prec = 8
        monkeypatch.setattr(hecke, "_EXACT", lossy)
        with pytest.raises((decimal.Inexact, decimal.Rounded)):
            tau_series(50)


def _naive_truncated_square(a):
    return [sum(a[i] * a[k - i] for i in range(k + 1)) for k in range(len(a))]


def _square_dense(a):
    """One dense squaring of the series stage, with the data-derived width.

    By Cauchy-Schwarz |(a^2)_k| = |sum a_i a_(k-i)| <= sum a_i^2, so
    slots of _slot_width(sum a_i^2) digits hold every coefficient.
    """
    n = len(a)
    w = hecke._slot_width(sum(c * c for c in a))
    return hecke._unpack(hecke._square_low(hecke._pack(a, w), n, w), n, w)


class TestDenseSquare:
    @given(
        a=st.lists(
            st.one_of(st.integers(-3, 3), st.integers(-(2**200), 2**200)),
            min_size=1,
            max_size=64,
        )
    )
    @example(a=[0])
    @example(a=[0] * 64)
    @example(a=[-(2**200)])
    @example(a=[2**200, -(2**200), 1, 0, -1])
    @example(a=[7] * 64)  # slot 63 of the offset square reaches its bound 64 (2B)^2
    @example(a=[-4, 0])  # offset series [0, 4]: every digit of its square lies past the kept slots
    @settings(max_examples=300, deadline=None)
    def test_matches_naive_convolution(self, a):
        assert _square_dense(a) == _naive_truncated_square(a)

    def test_lossy_context_raises(self, monkeypatch):
        lossy = hecke._EXACT.copy()
        lossy.prec = 8
        monkeypatch.setattr(hecke, "_EXACT", lossy)
        with pytest.raises((decimal.Inexact, decimal.Rounded)):
            _square_dense([3, -1, 4, 1, -5, 9, -2, 6])


def _slot_round_trip(a, w2):
    """The dense stage of tau_series: pack, square-low, widen to w2, square-low, unpack."""
    n = len(a)
    w1 = hecke._slot_width(sum(c * c for c in a))
    low = hecke._square_low(hecke._pack(a, w1), n, w1)
    return hecke._unpack(hecke._square_low(hecke._widen(low, n, w1, w2), n, w2), n, w2)


class TestSlots:
    @given(
        a=st.lists(
            st.one_of(st.integers(-3, 3), st.integers(-(2**64), 2**64)),
            min_size=1,
            max_size=48,
        ),
        extra=st.integers(0, 3),
    )
    @example(a=[-7], extra=0)  # n = 1
    @example(a=[4, 2, 2, 2, 2, 4], extra=0)  # slot 5 of the square is +48 = 10^2 / 2 - 2
    @example(a=[4, 2, 2, -2, -2, -4], extra=0)  # ... and -48
    @example(a=[4, 2, 2, 1, 2, 2, 4], extra=0)  # +49, the top of a two-digit excess slot
    @example(a=[5, 5], extra=0)  # +50 = sum a_i^2 needs a third digit
    @example(a=[-1] * 48, extra=0)  # a packed run of -1
    @example(a=[1] + [-1] * 47, extra=2)  # square 1, -2, -1, 0, 1, ...
    @example(a=[0, 1] + [0] * 28 + [-1] + [0] * 17, extra=0)  # -2 at slot 31, zeros above: a borrow chain to the top
    @example(a=[1] * 47 + [-3], extra=1)  # a negative top slot
    @example(a=[(-1) ** i for i in range(48)], extra=0)  # 1/(1+x): squares alternate in sign
    @settings(max_examples=200, deadline=None)
    def test_round_trip_matches_naive(self, a, extra):
        square = _naive_truncated_square(a)
        fourth = _naive_truncated_square(square)
        w1 = hecke._slot_width(sum(c * c for c in a))
        w2 = max(w1, hecke._slot_width(sum(c * c for c in square))) + extra
        assert _slot_round_trip(a, w2) == fourth

    @pytest.mark.parametrize("n", [4095, 4096, 4097])
    def test_round_trip_across_block_edges(self, n):
        # the quadratic naive square is too slow here; 1/(1+x) squared twice
        # is 1/(1+x)^4, whose coefficients alternate in sign
        a = [(-1) ** i for i in range(n)]
        w2 = hecke._slot_width(sum((k + 1) ** 2 for k in range(n)))
        assert _slot_round_trip(a, w2) == [(-1) ** k * comb(k + 3, 3) for k in range(n)]

    @pytest.mark.parametrize("n", [1, 4095, 4096, 4097])
    def test_unpack_and_widen_read_every_slot(self, n):
        w, w2 = 3, 7
        # both ends of a three-digit excess slot, zero and a borrow
        values = [(-500, 499, 0, -1)[k % 4] for k in range(n)]
        slots = "".join(str(c + 500).zfill(w) for c in reversed(values)).encode()
        assert hecke._unpack(slots, n, w) == values
        packed = 0
        for c in reversed(values):
            packed = packed * 10**w2 + c
        assert int(hecke._widen(slots, n, w, w2)) == packed


class TestDeltaCache:
    def test_warm_honours_ceiling(self, monkeypatch):
        monkeypatch.setattr(hecke, "_series", [0])
        monkeypatch.setattr(hecke, "DEFAULT_SERIES_CEILING", 2000)
        hecke.warm_delta_cache(10)
        assert len(hecke._series) == 1025  # the smallest build
        hecke.warm_delta_cache(1500)
        assert len(hecke._series) == 2001  # doubling stops at the ceiling
        with pytest.raises(BudgetExceededError):
            hecke.warm_delta_cache(2001)
        monkeypatch.setattr(hecke, "DEFAULT_SERIES_CEILING", 500)
        hecke.warm_delta_cache(2000)  # a warm cache serves any index it holds
        with pytest.raises(BudgetExceededError):
            hecke.warm_delta_cache(2001)

    def test_walk_past_the_ceiling_is_refused_before_sieving(self, monkeypatch):
        sieved = []
        real_sieve = factor.primes_up_to
        monkeypatch.setattr(factor, "primes_up_to", lambda n: sieved.append(n) or real_sieve(n))
        with pytest.raises(BudgetExceededError):
            prime_coeffs(EigenformSpec.delta(), hecke.DEFAULT_SERIES_CEILING + 1)
        assert sieved == []


class TestPrimePowers:
    def test_recursion_examples(self, delta):
        assert coeff_prime_power(delta, 2, 2) == -1472
        assert coeff_prime_power(delta, 7, 0) == 1
        tau5 = delta.ap(5)
        assert coeff_prime_power(delta, 5, 4) == eval_poly(psi_poly(5), tau5 * tau5, 5**11)

    def test_series_matches_recursion(self, delta_warm_small, holds):
        holds(identities.series_recursion, limit=10**4)

    def test_level_divisor_rejected(self, delta):
        table_form = EigenformSpec(weight=4, level=6, label="toy", table=_toy_table())
        with pytest.raises(ValueError):
            coeff_prime_power(table_form, 2, 1)

    def test_nonprime_rejected(self, delta):
        with pytest.raises(ValueError):
            coeff_prime_power(delta, 10, 1)

    def test_exponent_zero_checks_the_prime_without_fetching_ap(self, monkeypatch):
        table_form = EigenformSpec(weight=4, level=6, label="toy", table=_toy_table())
        monkeypatch.setattr(hecke, "_tau_upto", lambda n: pytest.fail("series built"))
        monkeypatch.setattr(hecke.CoefficientTable, "ap", lambda *a: pytest.fail("table read"))
        for form, p in ((EigenformSpec.delta(), 10), (EigenformSpec.delta(), 1),
                        (table_form, 2), (table_form, 3)):
            with pytest.raises(ValueError):
                coeff_prime_power(form, p, 0)
        assert coeff_prime_power(EigenformSpec.delta(), 1000003, 0) == 1
        assert coeff_prime_power(table_form, 10**9 + 7, 0) == 1

    def test_lucas_examples(self, delta):
        # single terms from the doubling ladder against the recursion's prefix
        psi5 = eval_poly(psi_poly(5), 252 * 252, 3**11)
        for p, m, want in ((2, 2, -1472), (11, 0, 1), (3, 4, psi5)):
            assert coeff_prime_power(delta, p, m) == want
            assert hecke._coeff_powers(delta.ap(p), p, 12, m + 1)[m] == want

    @given(seed=st.integers(0, 10**6))
    @settings(max_examples=80, deadline=None)
    def test_lucas_matches_recursion(self, delta_warm_small, seed):
        import random

        rnd = random.Random(seed)
        p = rnd.choice(factor.primes_up_to(500))
        m = rnd.randrange(0, 51)
        prefix = hecke._coeff_powers(delta_warm_small.ap(p), p, 12, m + 1)
        assert coeff_prime_power(delta_warm_small, p, m) == prefix[m]

    def test_trace_polynomial_identity(self, delta_warm_small, holds):
        holds(identities.psi_coefficients, qs=(3, 5, 7, 11, 13), primes=factor.primes_up_to(1000))


def _at_powers_of_two(test):
    """Pin the ladder's bit patterns: m = 2^j and 2^j +- 1 for 2^j <= 256."""
    for j in range(9):
        for m in (2**j - 1, 2**j, 2**j + 1):
            test = example(p=2 if j % 2 else 691, weight=2 * j + 2,
                           ap_at=("zero", "high", "low")[j % 3], m=m)(test)
    return test


@_at_powers_of_two
@given(p=st.sampled_from(factor.primes_up_to(1000)), weight=st.sampled_from(range(2, 25, 2)),
       ap_at=st.sampled_from(("zero", "high", "low")) | st.integers(), m=st.integers(0, 300))
@settings(max_examples=150, deadline=None)
def test_ladder_matches_recursion_prefix(p, weight, ap_at, m):
    # the ladder's one term against the recursion's prefix, a_p anywhere in
    # the coefficient bound |a_p| <= 2 p^((k-1)/2), its edges and 0 included
    edge = isqrt(4 * p ** (weight - 1))
    ap = {"zero": 0, "high": edge, "low": -edge}.get(ap_at)
    if ap is None:
        ap = max(-edge, min(edge, ap_at))
    assert hecke._coeff_from_ap(ap, p, weight, m) == hecke._coeff_powers(ap, p, weight, m + 1)[m]


class TestZeroPattern:
    # with a_p = 0 the recursion gives a(p^m) = 0 for odd m and (-p^(k-1))^(m/2) for even m
    def test_symbolic_examples(self):
        assert hecke._coeff_from_ap(0, 2, 12, 3) == 0
        assert hecke._coeff_from_ap(0, 2, 12, 2) == -(2**11)
        assert hecke._coeff_from_ap(0, 3, 12, 4) == 3**22
        assert hecke._coeff_from_ap(-24, 2, 12, 9) != 0

    def test_matches_brute_recursion(self):
        for k in (2, 12, 16):
            q = 101 ** (k - 1)
            prev, cur = 1, 0  # a_p = 0
            for m in range(1, 41):
                expected = 0 if m % 2 else (-q) ** (m // 2)
                assert cur == expected == hecke._coeff_from_ap(0, 101, k, m), (k, m)
                prev, cur = cur, 0 * cur - q * prev


class TestDeligneBound:
    def test_examples(self, delta, deligne_check):
        assert deligne_check(delta, 2, 1)
        assert deligne_check(delta, 13, 0)

    def test_sweep(self, delta_warm_small, deligne_check):
        for p in factor.primes_up_to(2000):
            for m in (1, 2, 5, 10):
                assert deligne_check(delta_warm_small, p, m), (p, m)


def _toy_table():
    from taulab.hecke import CoefficientTable

    return CoefficientTable(bound=7, entries={5: 2, 7: -1})


class TestIngestion:
    def test_round_trip(self, tmp_path, delta_warm_small):
        path = tmp_path / "ap.csv"
        export_table(delta_warm_small, path, 500)
        again = ingest_table(path, 12, 1, label="again")
        for p in factor.primes_up_to(500):
            assert again.ap(p) == delta_warm_small.ap(p)
            assert coeff_prime_power(again, p, 4) == coeff_prime_power(delta_warm_small, p, 4)

    def test_export_past_the_table_bound_writes_nothing(self, tmp_path):
        source = tmp_path / "ap.csv"
        source.write_text("2,-24\n3,252\n")
        path = tmp_path / "out.csv"
        with pytest.raises(DataExhaustedError):
            export_table(ingest_table(source, 12, 1), path, 5)
        assert not path.exists()

    def test_well_formed_three_rows(self, tmp_path):
        path = tmp_path / "three.csv"
        path.write_text("# comment\np,a_p\n2,-24\n3,252\n5,4830\n")
        spec = ingest_table(path, 12, 1)
        assert spec.table.bound == 5
        assert spec.ap(3) == 252

    def test_deligne_violation(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("2,1000000000\n")
        with pytest.raises(TableFormatError, match="coefficient bound"):
            ingest_table(path, 12, 1)

    def test_nonprime_index(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("4,2\n")
        with pytest.raises(TableFormatError, match="not prime"):
            ingest_table(path, 12, 1)

    def test_duplicate_prime(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("2,-24\n2,-24\n")
        with pytest.raises(TableFormatError, match="duplicate"):
            ingest_table(path, 12, 1)

    def test_gap_below_bound(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("2,-24\n5,4830\n")
        with pytest.raises(TableFormatError, match="missing"):
            ingest_table(path, 12, 1)

    def test_parse_error_reports_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("2,-24\nnot,a number\n")
        with pytest.raises(TableFormatError, match="line 2"):
            ingest_table(path, 12, 1)

    def test_exhausted_source(self, tmp_path):
        path = tmp_path / "ap.csv"
        path.write_text("2,-24\n3,252\n")
        spec = ingest_table(path, 12, 1)
        with pytest.raises(DataExhaustedError):
            spec.ap(5)

    def test_builtin_forces_weight_and_level(self):
        with pytest.raises(ValueError):
            EigenformSpec(weight=4, level=1)


class TestPrimeWalk:
    def test_builtin_walk_equals_ap(self, delta_warm_small):
        primes, aps = prime_coeffs(delta_warm_small, 10**4)
        assert primes == factor.primes_up_to(10**4)
        assert aps == [delta_warm_small.ap(p) for p in primes]

    def test_table_walk_skips_level_and_equals_ap(self, tmp_path, delta_warm_small):
        path = tmp_path / "level10.csv"
        rows = [f"{p},{delta_warm_small.ap(p)}" for p in factor.primes_up_to(500) if 10 % p]
        path.write_text("p,a_p\n" + "\n".join(rows) + "\n")
        form = ingest_table(path, 12, 10, label="level10")
        primes, aps = prime_coeffs(form, 500)
        assert primes == [p for p in factor.primes_up_to(500) if 10 % p]
        assert aps == [form.ap(p) for p in primes]
        with pytest.raises(DataExhaustedError):
            prime_coeffs(form, 503)
        with pytest.raises(DataExhaustedError):
            form.ap(503)


class TestPrimeValues:
    def test_no_prime_values_early(self):
        assert find_first_prime_tau(1000) is None

    def test_concurrent_readers(self, delta_warm_small):
        errors = []

        def reader():
            try:
                for p in (2, 3, 5, 7, 11, 997):
                    assert delta_warm_small.ap(p) == delta_series_view(1000)[p]
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        threads = [threading.Thread(target=reader) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
