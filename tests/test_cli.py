import hashlib
import json
import os
import subprocess
import sys
from decimal import Decimal
from pathlib import Path

import pytest

from taulab import cli, cyclotomic, density, factor, hecke, identities, rings
from taulab.cli import EXIT_BUDGET, EXIT_IDENTITY, EXIT_OK, EXIT_USAGE, main

DATA = Path(__file__).parent / "data"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestTau:
    def test_series_lines(self, capsys):
        code, out, _ = run(capsys, "tau", "--limit", "5")
        assert code == EXIT_OK
        assert out.splitlines() == ["1", "-24", "252", "-1472", "4830"]

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "series.txt"
        code, out, _ = run(capsys, "tau", "--limit", "3", "--out", str(target))
        assert code == EXIT_OK and out == ""
        assert target.read_text().splitlines() == ["1", "-24", "252"]

    def test_find_first_prime(self, capsys):
        code, out, _ = run(capsys, "tau", "--limit", "63001", "--find-first-prime")
        assert code == EXIT_OK and out.strip() == "63001"

    def test_find_first_prime_with_no_prime_value(self, capsys):
        code, out, _ = run(capsys, "tau", "--find-first-prime", "--limit", "100")
        assert code == EXIT_OK and out == "no prime value up to 100\n"


class TestCoeffAndPsi:
    def test_coeff(self, capsys):
        code, out, _ = run(capsys, "coeff", "--p", "2", "--m", "2")
        assert code == EXIT_OK and out.strip() == "-1472"

    def test_values_past_the_int_str_digit_limit(self, capsys):
        # tau(2^3000) has 4967 digits, past the 4300 that Python >= 3.10.7
        # converts to str by default; main lifts the limit for its call only
        get_limit = getattr(sys, "get_int_max_str_digits", lambda: None)
        before = get_limit()
        code, out, _ = run(capsys, "coeff", "--p", "2", "--m", "3000")
        assert code == EXIT_OK and get_limit() == before
        value = hecke.coeff_prime_power(hecke.EigenformSpec.delta(), 2, 3000)
        assert out.strip() == str(Decimal(value))  # Decimal prints digits with no limit
        a = 10**140
        code, out, _ = run(capsys, "sympow", "--n", "32", "--entries", f"{a},{a - 1},1,1")
        assert code == EXIT_OK and get_limit() == before
        assert len(out.split()[0]) > 4300

    @pytest.mark.parametrize("p, m", [(2, 10**7), (1000003, 10**5), (2, 10**400)])
    def test_coeff_past_the_digit_cap_exits_2_before_any_work(self, capsys, monkeypatch, p, m):
        monkeypatch.setattr(hecke, "_tau_upto", lambda n: pytest.fail("series built"))
        code, out, err = run(capsys, "coeff", "--p", str(p), "--m", str(m))
        assert code == EXIT_BUDGET and out == ""
        assert f"more than {hecke.MAX_COEFF_DIGITS} digits" in err
        # a p that is not prime is bad input at any m
        code, _, err = run(capsys, "coeff", "--p", str(p + 2), "--m", str(m))
        assert code == EXIT_USAGE and "is not prime" in err

    def test_psi_dump(self, capsys):
        code, out, _ = run(capsys, "psi", "--n", "5")
        assert code == EXIT_OK and out.strip() == "PSI 5: 1 -3 1"
        code, out, _ = run(capsys, "psi", "--kind", "f", "--n", "4")
        assert out.strip() == "F 4: 1 -2"
        code, out, _ = run(capsys, "psi", "--upto", "6")
        assert len(out.strip().splitlines()) == 4

    @pytest.mark.parametrize("kind, sha256", [
        ("psi", "2cc87e0e787d68df38b2f236643355368e03d2f99c3d1c35e2672297384f88db"),
        ("phi", "cf97365d8ba1074b1d028e59369ab4acd26feea86a47981b8611c0fe75fe22c3"),
        ("f", "42adbe39f587d369bbb1c039ee7d485d0566ba0bbec9c53979ff425b21da48e0"),
    ])
    def test_psi_dump_golden(self, capsys, kind, sha256):
        # sha256 of every coefficient of one family for 3 <= n <= 200
        code, out, _ = run(capsys, "psi", "--kind", kind, "--upto", "200")
        assert code == EXIT_OK
        assert hashlib.sha256(out.encode()).hexdigest() == sha256

    @pytest.mark.parametrize("argv", [["--n", "20000"], ["--kind", "f", "--upto", "3000"]])
    def test_psi_past_the_cap_exits_2_before_any_work(self, capsys, monkeypatch, argv):
        for name in ("psi_poly", "phi_poly", "f_poly"):
            monkeypatch.setattr(cyclotomic, name, lambda n: pytest.fail("polynomial built"))
        code, out, err = run(capsys, "psi", *argv)
        assert code == EXIT_BUDGET and out == ""
        assert f"past the cap of {cyclotomic.MAX_DUMP_INDEX}^2" in err

    # 3^2 + ... + 475^2 is within 6000^2 and adding 476^2 passes it
    @pytest.mark.parametrize("flag, last", [("--n", cyclotomic.MAX_DUMP_INDEX), ("--upto", 475)])
    def test_psi_cap_refuses_from_the_first_index_past_it(self, capsys, monkeypatch, flag, last):
        def squares(top):
            return sum(n * n for n in (range(3, top + 1) if flag == "--upto" else [top]))

        assert squares(last) <= cyclotomic.MAX_DUMP_INDEX**2 < squares(last + 1)
        # a stand-in builder, so the cap is read from the request alone
        monkeypatch.setattr(cyclotomic, "psi_poly", lambda n: cyclotomic.BivariatePoly((1,)))
        code, out, _ = run(capsys, "psi", flag, str(last))
        assert code == EXIT_OK and out.splitlines()[-1] == f"PSI {last}: 1"
        code, out, err = run(capsys, "psi", flag, str(last + 1))
        assert code == EXIT_BUDGET and out == "" and "past the cap" in err

    def test_sympow(self, capsys):
        code, out, _ = run(capsys, "sympow", "--n", "2", "--entries", "1,1,0,1")
        assert code == EXIT_OK
        assert out.splitlines() == ["1 2 1", "0 1 1", "0 0 1"]
        code, out, _ = run(capsys, "sympow", "--n", "2", "--entries", "1,1,0,1",
                           "--mod", "5", "--format", "json")
        assert json.loads(out)["rows"] == [[1, 2, 1], [0, 1, 1], [0, 0, 1]]

    def test_sympow_golden_grid(self, capsys):
        # sha256 of stdout for ZZ and mod 2, 6, 7, 9 at n in {1, 2, 5, 8, 16, 32},
        # text and json, recorded from the per-term orbit-sum implementation
        golden = json.loads((DATA / "sympow_golden.json").read_text())
        assert len(golden) == 96
        for case in golden:
            argv = ["sympow", "--n", str(case["n"]), f"--entries={case['entries']}",
                    "--format", case["format"]]
            if case["mod"]:
                argv += ["--mod", case["mod"]]
            code, out, _ = run(capsys, *argv)
            assert code == case["exit"], argv
            assert hashlib.sha256(out.encode()).hexdigest() == case["sha256"], argv


class TestDensityCommands:
    def test_density_json(self, capsys):
        code, out, _ = run(capsys, "density", "--q", "3", "--ell", "7")
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["deltaExact"] == "1/6" and payload["agrees"] is True

    def test_lift_json(self, capsys):
        code, out, _ = run(capsys, "lift", "--q", "3", "--ell", "5")
        payload = json.loads(out)
        assert code == EXIT_OK and payload["ratio"] == "1/5"

    def test_budget_exit(self, capsys):
        # 10007 evaluations find the root mod 10007 and 10007 more lift it:
        # the default budget answers, and 10^4 stops the search mod 10007
        code, _, _ = run(capsys, "density", "--q", "3", "--ell", "10007", "--n", "2")
        assert code == EXIT_OK
        code, out, err = run(capsys, "density", "--q", "3", "--ell", "10007", "--n", "2",
                             "--budget", "10000")
        assert code == EXIT_BUDGET and out == "" and "budget" in err

    def test_usage_exit(self, capsys):
        code, _, err = run(capsys, "density", "--q", "4", "--ell", "7")
        assert code == EXIT_USAGE and "odd prime" in err

    def test_worker_output_identical(self, capsys):
        _, out1, _ = run(capsys, "density", "--q", "3", "--ell", "3", "--n", "2", "--workers", "1")
        _, out2, _ = run(capsys, "density", "--q", "3", "--ell", "3", "--n", "2", "--workers", "2")
        assert out1 == out2

    def test_workers_validated(self, capsys):
        code, _, err = run(capsys, "density", "--q", "3", "--ell", "5", "--workers", "0")
        assert code == EXIT_USAGE and "--workers" in err

    def test_chebotarev(self, capsys):
        code, out, _ = run(capsys, "chebotarev", "--q", "5", "--d", "11", "--x-bound", "2000")
        payload = json.loads(out)
        assert code == EXIT_OK and payload["target"] == "1/5"

    def test_density_where_the_unit_power_group_order_differs(self, capsys):
        code, out, _ = run(capsys, "density", "--q", "3", "--ell", "11", "--n", "2")
        payload = json.loads(out)
        assert code == EXIT_OK and payload["groupOrder"] == 17569200
        assert payload["unitPowerGroupOrderDiffers"] == 193261200

    def test_chebotarev_with_no_target(self, capsys):
        code, out, _ = run(capsys, "chebotarev", "--q", "3", "--d", "9", "--x-bound", "1000")
        payload = json.loads(out)
        assert code == EXIT_OK and payload["target"] is None
        assert payload["empirical"]["sigma"] == 0.0
        assert (payload["empirical"]["hits"], payload["empirical"]["total"]) == (0, 167)
        sample = density.chebotarev_sample(hecke.EigenformSpec.delta(), 3, 9, 1000)
        assert sample.within_band() is None


class TestScanCommands:
    def test_scan_csv(self, capsys):
        code, out, err = run(
            capsys, "scan", "--two-n", "2", "--x-bound", "200", "--format", "csv",
            "--trial-bound", "10000", "--rho-budget", "10000",
        )
        assert code == EXIT_OK
        lines = out.splitlines()
        assert lines[0] == "p,exponent,value,largest_prime_factor,bound,passes,status"
        assert len(lines) > 20
        assert json.loads(err)["unknown"] == 0

    @pytest.mark.parametrize("argv", [
        ["--two-n", "2", "--x-bound", "300", "--trial-bound", "10000", "--rho-budget", "100000"],
        ["--two-n", "2", "--x-bound", "400", "--grh-c", "1e7", "--trial-bound", "1000",
         "--rho-budget", "100000"],
    ], ids=["decided", "unknown-rows"])
    def test_summary_equals_pinned(self, capsys, argv):
        csv_code, _, pinned = run(capsys, "scan", *argv, "--format", "csv")
        want = EXIT_BUDGET if json.loads(pinned)["unknown"] else EXIT_OK
        assert csv_code == want
        code, out, _ = run(capsys, "scan", *argv, "--format", "json")
        assert (code, out) == (want, pinned)

    def test_scan_golden_default_trial_bound(self, capsys):
        # trial-only rows at the default trial bound of 10^6, recorded from
        # trial division by one n % p per sieve prime
        code, out, err = run(capsys, "scan", "--two-n", "2", "--x-bound", "300",
                             "--format", "csv", "--rho-budget", "0")
        assert code == EXIT_OK
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "f6e1f2f97e0111b23c569693d1074c644548e259a414283c8731cb70fcdc5d84"
        )
        assert err == ('{"fail": 0, "pass": 56, "passFraction": 1.0, "rows": 56, '
                       '"unknown": 0, "zeroRows": 0}\n')

    @pytest.mark.parametrize("flag, value", [("--trial-bound", "-100"), ("--trial-bound", "0"),
                                             ("--rho-budget", "-1")])
    def test_scan_rejects_bad_budgets(self, capsys, flag, value):
        code, out, err = run(capsys, "scan", "--x-bound", "100", flag, value, "--format", "json")
        assert code == EXIT_USAGE and out == "" and flag in err

    @pytest.mark.parametrize("flag, value", [
        ("--grh-c", "nan"), ("--grh-c", "inf"), ("--grh-c", "0"),
        ("--grh-c", "-1"), ("--eps", "nan"), ("--eps", "inf"),
    ])
    def test_scan_rejects_bad_thresholds(self, capsys, flag, value):
        for fmt in ("json", "csv"):
            code, out, err = run(capsys, "scan", "--x-bound", "100", flag, value,
                                 "--format", fmt)
            assert code == EXIT_USAGE and out == "" and flag in err

    def test_scan_rejects_x_bound_below_first_scanned_prime(self, capsys):
        from taulab.scans import MIN_SCAN_PRIME

        for x in ("-5", "1", str(MIN_SCAN_PRIME - 1)):
            for fmt in ("json", "csv"):
                code, out, err = run(capsys, "scan", "--x-bound", x, "--format", fmt)
                assert code == EXIT_USAGE and out == ""
                assert f"--x-bound: must be >= {MIN_SCAN_PRIME}, got {x}" in err
        code, out, _ = run(capsys, "scan", "--x-bound", str(MIN_SCAN_PRIME), "--format", "json")
        assert code == EXIT_OK and json.loads(out)["rows"] == 1

    def test_summary_runs_no_factorization_below_trial_bound(self, capsys, monkeypatch):
        # the benchmark's summary size: every threshold is below 2, so no
        # prime is tried, nothing is tested for primality and the sieve
        # stays as the walk to x left it
        factor.primes_up_to(1000)
        limit = factor._sieve_limit
        sieved = []
        real_sieve = factor.primes_up_to
        monkeypatch.setattr(factor, "primes_up_to", lambda n: sieved.append(n) or real_sieve(n))

        def forbidden(*args, **kwargs):
            raise AssertionError("summary factored a value")

        for name in ("factorize", "is_prime", "_brent_rho"):
            monkeypatch.setattr(factor, name, forbidden)
        code, out, _ = run(capsys, "scan", "--two-n", "2", "--x-bound", "1000",
                           "--trial-bound", "10000", "--format", "json")
        assert (code, json.loads(out)["pass"]) == (EXIT_OK, 162)
        assert max(sieved) <= 1000 and factor._sieve_limit == limit

    def test_tower(self, capsys):
        code, out, _ = run(capsys, "tower", "--p-max", "30", "--max-odd", "9")
        assert code == EXIT_OK and "verified" in out

    def test_tower_with_no_prime_coprime_to_the_level_exits_usage(self, capsys, tmp_path):
        # a valid level-2 table, but the only prime up to 2 divides the level
        table = tmp_path / "level2.csv"
        table.write_text("3,0\n")
        code, out, err = run(capsys, "tower", "--p-max", "2", "--table", str(table),
                             "--weight", "2", "--level", "2")
        assert code == EXIT_USAGE and out == ""
        assert err == "error: no prime up to --p-max 2 is coprime to the level 2\n"
        code, out, _ = run(capsys, "tower", "--p-max", "3", "--table", str(table),
                           "--weight", "2", "--level", "2")
        assert code == EXIT_OK and out == "tower verified on 4 (p, n) pairs\n"

    @pytest.mark.parametrize("max_odd, two_n, shift", [
        ("9", 8, lambda values: 1),  # breaks a(p^2) | a(p^8)
        # keeps a(p^2) | a(p^14) but breaks a(p^4) | a(p^14): every divisor is checked
        ("15", 14, lambda values: values[2]),
    ], ids=["d3", "d5"])
    def test_tower_catches_planted_fault(self, capsys, monkeypatch, max_odd, two_n, shift):
        real = hecke._coeff_powers

        def planted(ap, p, k, count):
            values = real(ap, p, k, count)
            values[two_n] += shift(values)
            return values

        monkeypatch.setattr(hecke, "_coeff_powers", planted)
        code, out, err = run(capsys, "tower", "--p-max", "30", "--max-odd", max_odd)
        assert code == EXIT_IDENTITY and out == ""
        assert err == f"IDENTITY VIOLATION: divisibility tower failed at p=2, 2n={two_n}\n"

    def test_sato_tate(self, capsys):
        code, out, _ = run(capsys, "sato-tate", "--x-bound", "2000", "--bins", "10")
        payload = json.loads(out)
        assert code == EXIT_OK and payload["bins"] == 10
        assert sum(payload["counts"]) == payload["sampleSize"]


class TestVerify:
    def test_identities_suite(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "identities", "--limit", "40")
        assert code == EXIT_OK
        assert "PASS" in out and "FAIL" not in out

    def test_density_suite(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "density")
        assert code == EXIT_OK

    def test_sympow_suite_seeded(self, capsys):
        code1, out1, _ = run(capsys, "verify", "--suite", "sympow", "--seed", "7")
        code2, out2, _ = run(capsys, "verify", "--suite", "sympow", "--seed", "7")
        assert code1 == code2 == EXIT_OK
        assert out1 == out2

    @pytest.mark.parametrize("limit", ["-1", "0", "2", "201", "2000"])
    def test_verify_rejects_limit_out_of_range(self, capsys, limit):
        for suite in ("identities", "tau"):
            code, out, err = run(capsys, "verify", "--suite", suite, "--limit", limit)
            assert code == EXIT_USAGE and out == ""
            assert "[3, 200]" in err and f"got {limit}" in err

    @pytest.mark.parametrize("limit", [3, 200])
    def test_verify_limit_bounds_only_square_product(self, capsys, limit):
        code, out, _ = run(capsys, "verify", "--suite", "all", "--limit", str(limit))
        assert code == EXIT_OK
        assert f"PASS square-product and geometric-sum identities for n <= {limit}" in out
        assert "PASS series agrees with the recursion at all prime powers <= 1000" in out

    def test_verify_golden_grid(self, capsys):
        # sha256 of stdout for every suite at seeds 0, 1, 7 and limits default, 40,
        # 3 (the smallest square-product range) and 2000 (out of range: exit 1,
        # no stdout), recorded from the per-suite verify loops in cli.py
        golden = json.loads((DATA / "verify_golden.json").read_text())
        assert len(golden) == 60
        for case in golden:
            argv = ["verify", "--suite", case["suite"], "--seed", str(case["seed"])]
            if case["limit"] is not None:
                argv += ["--limit", str(case["limit"])]
            code, out, _ = run(capsys, *argv)
            assert code == case["exit"], argv
            assert hashlib.sha256(out.encode()).hexdigest() == case["sha256"], argv


# One planted fault per verify check: (check, suite, module, function, fault),
# where fault(real) returns a stand-in for the function that is wrong at one input.
PLANTED_FAULTS = [
    ("square_product", "identities", cyclotomic, "phi_poly",
     lambda real: lambda n: real(8 if n == 7 else n)),
    ("partial_scaling", "identities", cyclotomic, "partial_derivatives",
     lambda real: lambda p: real(cyclotomic.BivariatePoly(p.coeffs[:-1] + (0,)) if p.degree == 5 else p)),
    ("discriminant_law", "identities", cyclotomic, "discriminant",
     lambda real: lambda f: real(f) + (f.degree == 3)),
    ("trace_kernel_laws", "sympow", rings, "sym_pow_trace",
     lambda real: lambda mat, n: real(mat, n) + (n == 4 and mat.is_identity())),
    ("functoriality", "sympow", rings, "sym_pow",
     lambda real: lambda mat, n: real(mat @ mat if mat.ring.modulus == 11 else mat, n)),
    ("density_closed_forms", "density", density, "closed_form_density",
     lambda real: lambda q, ell, n=1: real(q, ell, n) + ((q, ell) == (5, 11))),
    ("lift_ratio", "density", density, "lift_factor",
     lambda real: lambda q, ell, *a, **kw: real(q, 5 if ell == 7 else ell, *a, **kw)),
    ("series_recursion", "tau", hecke, "_coeff_powers",
     lambda real: lambda ap, p, k, count: [v + ((p, m) == (3, 3))
                                           for m, v in enumerate(real(ap, p, k, count))]),
    ("psi_coefficients", "tau", hecke, "coeff_prime_power",
     lambda real: lambda f, p, m: real(f, p, m) + ((p, m) == (13, 6))),
]


@pytest.mark.parametrize("check, suite, module, name, fault", PLANTED_FAULTS,
                         ids=[fault[0] for fault in PLANTED_FAULTS])
def test_verify_catches_planted_fault(capsys, monkeypatch, check, suite, module, name, fault):
    monkeypatch.setattr(module, name, fault(getattr(module, name)))
    code, out, _ = run(capsys, "verify", "--suite", suite)
    passed = getattr(identities, check).passed.split("{")[0]
    lines = out.splitlines()
    assert code == EXIT_IDENTITY and any(line.startswith("FAIL ") for line in lines)
    assert not any(line.startswith(passed) for line in lines)


class TestFlagsPerCommand:
    @pytest.mark.parametrize("argv", [
        ["density", "--q", "3", "--ell", "7", "--format", "json"],
        ["verify", "--suite", "density", "--format", "json"],
        ["psi", "--n", "5", "--format", "json"],
        ["tower", "--p-max", "30", "--format", "csv"],
        ["tau", "--limit", "5", "--seed", "1"],
        ["lift", "--q", "3", "--ell", "5", "--seed", "1"],
        ["scan", "--x-bound", "100", "--workers", "2"],
        ["chebotarev", "--q", "5", "--d", "11", "--x-bound", "2000", "--workers", "1"],
    ], ids=lambda argv: f"{argv[0]}{argv[-2]}")
    def test_flag_the_command_does_not_read_exits_usage(self, capsys, argv):
        code, out, _ = run(capsys, *argv)
        assert code == EXIT_USAGE and out == ""

    # a choice that printed what another one prints, or picked between two
    # paths to one answer, is gone and exits 1
    @pytest.mark.parametrize("argv", [
        ["coeff", "--p", "2", "--m", "2", "--lucas"],
        ["coeff", "--p", "2", "--m", "2", "--format", "csv"],
        ["sympow", "--n", "2", "--entries", "1,1,0,1", "--format", "csv"],
        ["scan", "--x-bound", "100", "--format", "text"],
        ["sato-tate", "--x-bound", "2000", "--format", "text"],
        ["tau", "--limit", "3", "--format", "json"],
    ], ids=lambda argv: f"{argv[0]} {argv[-1]}")
    def test_removed_choice_exits_usage(self, capsys, argv):
        code, out, _ = run(capsys, *argv)
        assert code == EXIT_USAGE and out == ""

    # every --format value a command accepts prints something the others do
    # not, and the first value is the default
    @pytest.mark.parametrize("argv, formats", [
        (["coeff", "--p", "2", "--m", "2"], ("text", "json")),
        (["sympow", "--n", "2", "--entries", "1,1,0,1"], ("text", "json")),
        (["scan", "--x-bound", "100"], ("json", "csv")),
        (["sato-tate", "--x-bound", "2000", "--bins", "5"], ("json", "csv")),
    ], ids=["coeff", "sympow", "scan", "sato-tate"])
    def test_format_values_print_different_output(self, capsys, argv, formats):
        outputs = []
        for fmt in formats:
            code, out, _ = run(capsys, *argv, "--format", fmt)
            assert code == EXIT_OK
            outputs.append(out)
        assert len(set(outputs)) == len(formats)
        assert run(capsys, *argv)[:2] == (EXIT_OK, outputs[0])

    def test_config_key_the_command_does_not_read(self, capsys, tmp_path):
        cfg = tmp_path / "run.conf"
        cfg.write_text("seed=1\n")
        code, out, _ = run(capsys, "density", "--q", "3", "--ell", "7", "--config", str(cfg))
        assert code == EXIT_USAGE and out == ""

    @pytest.mark.parametrize("argv, config, says", [
        (["chebotarev", "--q", "4", "--d", "11", "--x-bound", "2000"], None,
         "--q: must be an odd prime, got 4"),
        (["lift", "--q", "3", "--ell", "9"], None, "--ell: must be prime, got 9"),
        (["verify", "--suite", "identities"], "limit=2\n", "--limit: must be in [3, 200], got 2"),
        # every value given is checked, also one that a later flag overrides
        (["scan", "--x-bound", "100", "--eps", "0.2"], "eps=-1\n",
         "--eps: must be finite and >= 0, got -1.0"),
        (["density", "--q", "3", "--ell", "7", "--budget", "-1"], None,
         "--budget: must be >= 0, got -1"),
        (["lift", "--q", "3", "--ell", "5", "--budget", "-1"], None,
         "--budget: must be >= 0, got -1"),
        (["tau", "--find-first-prime", "--limit", "-5"], None, "--limit: must be >= 1, got -5"),
        (["psi", "--upto", "2"], None, "--upto: must be >= 3, got 2"),
        # an index no builder takes is bad input, not past the psi cap
        (["psi", "--n", "-20000"], None, "error: psi is defined for n >= 3, got -20000"),
        (["sympow", "--n", "2", "--entries", "1,0,0,1", "--mod", "0"], None,
         "error: modulus must be >= 2, got 0"),
        (["sympow", "--n", "2", "--entries", "1,0,0,1", "--mod", "-7"], None,
         "error: modulus must be >= 2, got -7"),
        (["sympow", "--n", "2", "--entries", "1,2,3"], None,
         "error: --entries must be four comma-separated integers a,b,c,d"),
        (["chebotarev", "--q", "5", "--d", "0", "--x-bound", "2000"], None,
         "error: modulus 0 is not a prime power"),
        (["chebotarev", "--q", "5", "--d", "1", "--x-bound", "2000"], None,
         "error: modulus 1 is not a prime power"),
        (["chebotarev", "--q", "5", "--d", "-11", "--x-bound", "2000"], None,
         "error: modulus -11 is not a prime power"),
        (["chebotarev", "--q", "5", "--d", "12", "--x-bound", "2000"], None,
         "error: modulus 12 is not a prime power"),
        # without --table the form is the built-in one, of weight 12 and level 1
        (["coeff", "--p", "2", "--m", "2", "--weight", "3"], None,
         "error: weight must be an even integer >= 2, got 3"),
        (["coeff", "--p", "2", "--m", "2", "--weight", "4"], None,
         "error: the built-in source is the weight-12 level-1 form"),
        (["scan", "--x-bound", "100", "--level", "2", "--format", "json"], None,
         "error: the built-in source is the weight-12 level-1 form"),
        # a(p^0) = 1 still needs p to be a prime
        (["coeff", "--p", "10", "--m", "0"], None, "error: 10 is not prime"),
        (["coeff", "--p", "1", "--m", "0"], None, "error: 1 is not prime"),
        # a range that checks nothing is bad input, not a vacuous success
        (["tower", "--max-odd", "0"], None, "--max-odd: must be an odd integer >= 3, got 0"),
        # an even bound would run the same pairs as the odd one below it
        (["tower", "--max-odd", "4"], None, "--max-odd: must be an odd integer >= 3, got 4"),
        (["tower", "--p-max", "1"], None, "--p-max: must be >= 2, got 1"),
    ], ids=["chebotarev-q", "lift-ell", "verify-config-limit", "scan-overridden-config-eps",
            "density-budget", "lift-budget", "tau-limit", "psi-upto", "psi-n-20000",
            "sympow-mod0", "sympow-mod-7", "sympow-entries3", "chebotarev-d0", "chebotarev-d1",
            "chebotarev-d-11", "chebotarev-d12", "coeff-weight3", "coeff-weight4", "scan-level2",
            "coeff-p10-m0", "coeff-p1-m0",
            "tower-max-odd0", "tower-max-odd4", "tower-p-max1"])
    def test_flag_checks(self, capsys, tmp_path, argv, config, says):
        if config:
            path = tmp_path / "run.conf"
            path.write_text(config)
            argv = argv + ["--config", str(path)]
        code, out, err = run(capsys, *argv)
        assert code == EXIT_USAGE and out == "" and says in err


class TestConfigFile:
    def test_config_supplies_defaults(self, capsys, tmp_path):
        cfg = tmp_path / "run.conf"
        cfg.write_text("limit=4\n")
        code, out, _ = run(capsys, "tau", "--config", str(cfg))
        assert code == EXIT_OK
        assert out.splitlines() == ["1", "-24", "252", "-1472"]

    def test_flags_override_config(self, capsys, tmp_path):
        cfg = tmp_path / "run.conf"
        cfg.write_text("limit=4\n")
        code, out, _ = run(capsys, "tau", "--config", str(cfg), "--limit", "2")
        assert out.splitlines() == ["1", "-24"]

    def test_missing_config(self, capsys, tmp_path):
        code, _, err = run(capsys, "tau", "--config", str(tmp_path / "nope.conf"))
        assert code == EXIT_USAGE

    def test_keys_are_flag_names(self, capsys, tmp_path):
        cfg = tmp_path / "run.conf"
        cfg.write_text("k = 4\n")
        code, out, _ = run(capsys, "density", "--q", "3", "--ell", "7", f"--config={cfg}")
        assert code == EXIT_OK and json.loads(out)["query"]["k"] == 4
        cfg.write_text("format=json\n")
        code, out, _ = run(capsys, "coeff", "--p", "2", "--m", "2", "--config", str(cfg))
        assert json.loads(out) == {"p": 2, "m": 2, "value": "-1472"}
        cfg.write_text("x_bound=100\neps=-1\n")
        code, _, err = run(capsys, "scan", "--config", str(cfg))
        assert code == EXIT_USAGE and "--eps" in err

    # format=xml runs on coeff, which has a --format, so it is a bad value, not an unknown key
    BAD_ENTRIES = [(["tau"], "limt=4\n"), (["tau"], "limit=four\n"),
                   (["coeff", "--p", "2", "--m", "2"], "format=xml\n"), (["tau"], "limit 4\n")]

    @pytest.mark.parametrize("argv, text", BAD_ENTRIES, ids=[text for _, text in BAD_ENTRIES])
    def test_bad_entries_rejected(self, capsys, tmp_path, argv, text):
        cfg = tmp_path / "run.conf"
        cfg.write_text(text)
        code, out, _ = run(capsys, *argv, "--config", str(cfg))
        assert code == EXIT_USAGE and out == ""


class TestFileErrors:
    def test_missing_table(self, capsys, tmp_path):
        missing = tmp_path / "missing.csv"
        code, out, err = run(capsys, "coeff", "--p", "2", "--m", "2", "--table", str(missing))
        assert (code, out) == (EXIT_USAGE, "")
        assert err.startswith("error: ") and str(missing) in err

    def test_out_in_missing_directory(self, capsys, tmp_path):
        target = tmp_path / "missing-dir" / "x"
        code, out, err = run(capsys, "psi", "--n", "5", "--out", str(target))
        assert (code, out) == (EXIT_USAGE, "")
        assert err.startswith("error: ") and str(target) in err


GOLDEN_TEXT = json.loads((DATA / "cli_golden.json").read_text())


class TestParserText:
    """A call naming a command builds only that command's parser, and prints what the full one does."""

    @pytest.mark.skipif(f"{sys.version_info[0]}.{sys.version_info[1]}" != GOLDEN_TEXT["python"],
                        reason="argparse's help and error text differ between Python versions")
    def test_golden_text(self, capsys, monkeypatch):
        # (exit, stdout, stderr) at COLUMNS=80 for help, usage errors and
        # unreadable config files, recorded from a parser of every command
        monkeypatch.setenv("COLUMNS", str(GOLDEN_TEXT["columns"]))
        for case in GOLDEN_TEXT["cases"]:
            want = (case["exit"], case["stdout"], case["stderr"])
            assert run(capsys, *case["argv"]) == want, case["argv"]

    @pytest.mark.parametrize("argv", [case["argv"] for case in GOLDEN_TEXT["cases"]
                                      if case["argv"] and case["argv"][0] in cli._COMMANDS],
                             ids=" ".join)
    def test_one_command_parser_prints_as_the_full_one(self, capsys, monkeypatch, argv):
        monkeypatch.setenv("COLUMNS", "80")

        def parse(parser):
            try:
                outcome = vars(parser.parse_args(argv))
            except SystemExit as exc:
                outcome = exc.code
            return outcome, capsys.readouterr()

        assert parse(cli.build_parser(argv[0])) == parse(cli.build_parser())

    def test_full_parser_names_the_missing_command(self, capsys):
        code, out, err = run(capsys)
        assert code == EXIT_USAGE and out == ""
        assert err.endswith("error: the following arguments are required: command\n")

    def test_density_loads_no_scan_modules(self):
        # a fresh interpreter: density never imports scans or identities,
        # and tower imports identities but still not scans
        script = (
            "import os, sys\n"
            "from taulab.cli import main\n"
            "assert main(['density', '--q', '3', '--ell', '31', '--n', '2']) == 0\n"
            "lazy = ('taulab.scans', 'taulab.identities')\n"
            "print([name for name in lazy if name in sys.modules])\n"
            "assert main(['tower', '--p-max', '10', '--out', os.devnull]) == 0\n"
            "print([name for name in lazy if name in sys.modules])\n"
        )
        src = str(Path(cli.__file__).parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                              text=True, check=True)
        assert done.stdout.splitlines()[-2:] == ["[]", "['taulab.identities']"]

    def test_commands_load_only_the_standard_library(self):
        # a fresh interpreter without site-packages (-S): verify, pinned CSV
        # scans (one with deferred floors past the largest double) and
        # sato-tate import no module outside the standard library and taulab
        script = (
            "import os, sys\n"
            "before = set(sys.modules)\n"
            "from taulab.cli import main\n"
            "out = ['--out', os.devnull]\n"
            "assert main(['verify', '--suite', 'all'] + out) == 0\n"
            "scan = ['scan', '--two-n', '2', '--format', 'csv'] + out\n"
            "assert main(scan + ['--x-bound', '300', '--trial-bound', '10000']) == 0\n"
            "assert main(scan + ['--x-bound', '20', '--grh-c', '1.7e308']) == 0\n"
            "assert main(['sato-tate'] + out) == 0\n"
            "ours = sys.stdlib_module_names | {'taulab'}\n"
            "print(sorted(m for m in set(sys.modules) - before if m.split('.')[0] not in ours))\n"
        )
        src = str(Path(cli.__file__).parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        done = subprocess.run([sys.executable, "-S", "-c", script], env=env,
                              capture_output=True, text=True, check=True)
        assert done.stdout.splitlines()[-1] == "[]"
