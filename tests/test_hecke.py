import decimal
import threading
from math import gcd

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from taulab import factor, hecke
from taulab.cyclotomic import eval_poly, psi_poly
from taulab.errors import BudgetExceededError, DataExhaustedError, TableFormatError
from taulab.hecke import (
    EigenformSpec,
    check_apn_zero_pattern,
    coeff_lucas,
    coeff_prime_power,
    deligne_check,
    delta_series_view,
    export_table,
    find_first_prime_tau,
    ingest_table,
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

    def test_memory_ceiling(self):
        with pytest.raises(BudgetExceededError):
            tau_series(10**6, ceiling=10**5)

    def test_multiplicativity(self):
        series = delta_series_view(10**4)
        for a in range(2, 100):
            for b in range(a + 1, 10**4 // a + 1):
                if gcd(a, b) == 1:
                    assert series[a * b] == series[a] * series[b], (a, b)


def _naive_truncated_square(a):
    return [sum(a[i] * a[k - i] for i in range(k + 1)) for k in range(len(a))]


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
        assert hecke._square_dense(a) == _naive_truncated_square(a)

    def test_lossy_context_raises(self, monkeypatch):
        lossy = hecke._EXACT.copy()
        lossy.prec = 8
        monkeypatch.setattr(hecke, "_EXACT", lossy)
        with pytest.raises((decimal.Inexact, decimal.Rounded)):
            hecke._square_dense([3, -1, 4, 1, -5, 9, -2, 6])


class TestDeltaCache:
    def test_warm_honours_ceiling(self, monkeypatch):
        calls = []

        def spy(limit, *, ceiling=hecke.DEFAULT_SERIES_CEILING):
            calls.append((limit, ceiling))
            return [0]

        monkeypatch.setattr(hecke, "tau_series", spy)
        monkeypatch.setattr(hecke, "_delta_cache", hecke._DeltaCache())
        hecke.warm_delta_cache(10**7 + 1, ceiling=2 * 10**7)
        assert calls == [(10**7 + 1, 2 * 10**7)]


class TestPrimePowers:
    def test_recursion_examples(self, delta):
        assert coeff_prime_power(delta, 2, 2) == -1472
        assert coeff_prime_power(delta, 7, 0) == 1
        tau5 = delta.ap(5)
        assert coeff_prime_power(delta, 5, 4) == eval_poly(psi_poly(5), tau5 * tau5, 5**11)

    def test_series_matches_recursion(self, delta_warm_small):
        series = delta_series_view(10**4)
        for p in factor.primes_up_to(100):
            value = p * p
            m = 2
            while value <= 10**4:
                assert series[value] == coeff_prime_power(delta_warm_small, p, m)
                value *= p
                m += 1

    def test_level_divisor_rejected(self, delta):
        table_form = EigenformSpec(weight=4, level=6, label="toy", table=_toy_table())
        with pytest.raises(ValueError):
            coeff_prime_power(table_form, 2, 1)

    def test_nonprime_rejected(self, delta):
        with pytest.raises(ValueError):
            coeff_prime_power(delta, 10, 1)

    def test_lucas_examples(self, delta):
        assert coeff_lucas(delta, 2, 2) == -1472
        assert coeff_lucas(delta, 11, 0) == 1
        assert coeff_lucas(delta, 3, 4) == eval_poly(psi_poly(5), 252 * 252, 3**11)

    @given(seed=st.integers(0, 10**6))
    @settings(max_examples=80, deadline=None)
    def test_lucas_matches_recursion(self, delta_warm_small, seed):
        import random

        rnd = random.Random(seed)
        p = rnd.choice(factor.primes_up_to(500))
        m = rnd.randrange(0, 51)
        assert coeff_lucas(delta_warm_small, p, m) == coeff_prime_power(delta_warm_small, p, m)

    def test_trace_polynomial_identity(self, delta_warm_small):
        for q in (3, 5, 7, 11, 13):
            psi = psi_poly(q)
            for p in factor.primes_up_to(1000):
                lhs = coeff_prime_power(delta_warm_small, p, q - 1)
                ap = delta_warm_small.ap(p)
                assert lhs == eval_poly(psi, ap * ap, p**11), (q, p)


class TestZeroPattern:
    def test_symbolic_examples(self):
        assert check_apn_zero_pattern(0, 12, 3).status == "zero"
        even = check_apn_zero_pattern(0, 12, 2)
        assert even.status == "nonzero" and even.sign == -1 and even.power_exponent == 11
        assert check_apn_zero_pattern(-24, 12, 9).status == "nonzero"

    def test_matches_brute_recursion(self):
        for k in (2, 12, 16):
            q = 101 ** (k - 1)
            prev, cur = 1, 0  # a_p = 0
            for m in range(1, 41):
                pattern = check_apn_zero_pattern(0, k, m)
                assert (cur == 0) == (pattern.status == "zero"), (k, m)
                if pattern.status == "nonzero" and m >= 1:
                    assert cur == pattern.sign * 101**pattern.power_exponent
                prev, cur = cur, 0 * cur - q * prev


class TestDeligneBound:
    def test_examples(self, delta):
        assert deligne_check(delta, 2, 1)
        assert deligne_check(delta, 13, 0)

    def test_sweep(self, delta_warm_small):
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
