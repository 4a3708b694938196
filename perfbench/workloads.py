"""The benchmark's workloads: set-up, operations and output oracles.

Arithmetic sizes are fixed.  The seed feeds only ``verify --seed`` and
the operation order within each ``algebra`` cycle.  Each operation is
split into ``work`` (the timed call into taulab) and ``check`` (an
untimed comparison against an oracle that returns a problem string, or
None when the output is right).  See RATIONALE.md for why each workload
and size was chosen.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import io
import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, isqrt, prod
from typing import Callable, Iterator

MODULES = ("hecke", "factor", "cyclotomic", "density", "rings", "scans", "cli")

SERIES_N = 100_000
SCAN_BUDGETS = ["--eps", "0.1", "--trial-bound", "10000", "--rho-budget", "300000"]
DENSITY_ARGV = ["density", "--q", "3", "--ell", "31", "--n", "2", "--budget", str(10**12)]
CLASSIFY_MODULI = (5, 7, 11)
CLASSIFY_RANGE = range(-40, 41)

# scan output as taulab 0.1.0 prints it (CSV stdout as sha256 of its UTF-8 bytes)
SCAN_SUMMARY_2 = '{"fail": 0, "pass": 162, "passFraction": 1.0, "rows": 162, "unknown": 0, "zeroRows": 0}\n'
SCAN_SUMMARY_8 = '{"fail": 0, "pass": 19, "passFraction": 1.0, "rows": 19, "unknown": 0, "zeroRows": 0}\n'
SCAN_CSV_2_SHA256 = "31b11e465afc9c538871ee959153d7869b001dfb68fea4c2934fc097c3f3fcec"
SCAN_CSV_8_SHA256 = "e5550396bba034b54ee4b98bcb47233b6f02a3c97aa843e40ecca3f564766880"
# classifications made by acceptance criterion 11 (|u|, |v| <= 40, m in {5, 7, 11})
CLASSIFY_COUNT = 19540


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@dataclass
class Context:
    """Per-process state: the imported taulab modules and cached oracles."""

    seed: int
    m: dict = field(default_factory=dict)
    oracle: dict = field(default_factory=dict)

    def once(self, key: str, compute: Callable[[], object]):
        if key not in self.oracle:
            self.oracle[key] = compute()
        return self.oracle[key]


@dataclass(frozen=True)
class CliRun:
    rc: int
    out: str
    err: str


def run_cli(ctx: Context, argv: list[str]) -> CliRun:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = ctx.m["cli"].main(argv)
    return CliRun(rc, out.getvalue(), err.getvalue())


@dataclass(frozen=True)
class Op:
    name: str
    work: Callable[[Context], object]
    check: Callable[[Context, object], str | None]
    digest: Callable[[object], str]
    parallel: bool = False  # runs worker processes
    group: str | None = None  # operations of one group must print the same; default: own name


def _cli_digest(run: CliRun) -> str:
    return sha256(f"{run.rc}\n{run.out}\n{run.err}")


def _cli_op(name: str, argv: Callable[[Context], list[str]], check, **kw) -> Op:
    return Op(name, lambda ctx: run_cli(ctx, argv(ctx)), check, _cli_digest, **kw)


def _rc_problem(run: CliRun) -> str | None:
    if run.rc != 0:
        return f"exit code {run.rc}: {run.err.strip()[:200]}"
    return None


# --- series -------------------------------------------------------------


def _check_series(ctx: Context, cold: list[int]) -> str | None:
    hecke, factor = ctx.m["hecke"], ctx.m["factor"]
    if cold != hecke.delta_series_view(SERIES_N):
        return "cold series differs from the cached series"
    delta = hecke.EigenformSpec.delta()
    for p in factor.primes_up_to(SERIES_N):
        pm, m = p, 1
        while pm <= SERIES_N:
            if cold[pm] != hecke.coeff_prime_power(delta, p, m):
                return f"series differs from the recursion at {p}^{m}"
            pm *= p
            m += 1
    least = ctx.once("least_prime_factor", _least_prime_factors)
    for n in range(2, SERIES_N + 1):
        p = pa = least[n]
        while n % (pa * p) == 0:
            pa *= p
        if pa != n and cold[n] != cold[pa] * cold[n // pa]:
            return f"series breaks multiplicativity: tau({n}) != tau({pa}) tau({n // pa})"
    return None


def _least_prime_factors() -> list[int]:
    least = list(range(SERIES_N + 1))
    for i in range(2, isqrt(SERIES_N) + 1):
        if least[i] == i:
            for j in range(i * i, SERIES_N + 1, i):
                if least[j] == j:
                    least[j] = i
    return least


def _chebotarev_oracle(ctx: Context) -> tuple[int, int, int]:
    """(hits, total, zero_excluded) for d = 11 | a(p^4), by the recursion mod 11."""
    hecke, factor = ctx.m["hecke"], ctx.m["factor"]
    series = hecke.delta_series_view(SERIES_N)
    delta = hecke.EigenformSpec.delta()
    hits = total = zero = 0
    for p in factor.primes_up_to(SERIES_N):
        if p == 11:
            continue
        total += 1
        ap, q = series[p] % 11, pow(p, 11, 11)
        prev, cur = 1, ap
        for _ in range(3):
            prev, cur = cur, (ap * cur - q * prev) % 11
        if cur:
            continue
        if 6 % p == 0 and hecke.coeff_prime_power(delta, p, 4) == 0:
            zero += 1
        else:
            hits += 1
    return hits, total, zero


def _check_chebotarev(ctx: Context, sample) -> str | None:
    got = (sample.hits, sample.total_primes, sample.zero_excluded)
    want = ctx.once("chebotarev", lambda: _chebotarev_oracle(ctx))
    return None if got == want else f"(hits, total, zeros) {got} != oracle {want}"


def _sato_tate_oracle(ctx: Context) -> list[int]:
    """Bin counts from exact integers: bin = 10 + floor(5 a_p / sqrt(p^11)), 20 bins."""
    hecke, factor = ctx.m["hecke"], ctx.m["factor"]
    series = hecke.delta_series_view(SERIES_N)
    counts = [0] * 20
    for p in factor.primes_up_to(SERIES_N):
        x, n = 5 * series[p], p**11
        root = isqrt(x * x // n)
        k = root if x >= 0 else -(root if root * root * n == x * x else root + 1)
        counts[min(max(10 + k, 0), 19)] += 1
    return counts


def _check_sato_tate(ctx: Context, hist) -> str | None:
    want = ctx.once("sato_tate", lambda: _sato_tate_oracle(ctx))
    if hist.counts != want or hist.sample_size != sum(want):
        return f"bin counts {hist.counts} != exact oracle {want}"
    return None


# --- scan ---------------------------------------------------------------


def _scan_argv(two_n: int, x_bound: int, fmt: str) -> list[str]:
    return ["scan", "--two-n", str(two_n), "--x-bound", str(x_bound), *SCAN_BUDGETS, "--format", fmt]


def _check_scan(out_sha: str | None, summary: str, summary_on_stderr: bool):
    def check(ctx: Context, run: CliRun) -> str | None:
        problem = _rc_problem(run)
        if problem:
            return problem
        if summary_on_stderr:
            if run.err != summary:
                return f"stderr summary {run.err!r} != pinned {summary!r}"
            if sha256(run.out) != out_sha:
                return f"CSV sha256 {sha256(run.out)} != pinned {out_sha}"
        elif run.out != summary:
            return f"summary {run.out!r} != pinned {summary!r}"
        return None

    return check


# --- algebra ------------------------------------------------------------


def _check_verify(ctx: Context, run: CliRun) -> str | None:
    lines = run.out.splitlines()
    bad = [line for line in lines if not line.startswith("PASS")]
    if not lines or bad:
        return f"verify lines not all PASS: {bad[:3]}"
    return _rc_problem(run)


def _check_density(ctx: Context, run: CliRun) -> str | None:
    problem = _rc_problem(run)
    if problem:
        return problem
    report = json.loads(run.out)
    if report["agrees"] is not True:
        return "density report does not agree with its closed form"
    density = ctx.m["density"]
    base = ctx.once(
        "density_base",
        lambda: density.enumerate_density(density.DensityQuery(3, 31, 1, 12)).delta,
    )
    num, den = map(int, report["deltaExact"].split("/"))
    if Fraction(num, den) / base != Fraction(1, 31):
        return f"lift ratio {Fraction(num, den) / base} != 1/31"
    return None


def _classify_sweep(ctx: Context):
    """Acceptance criterion 11: classify every prime dividing psi_m(u, v)."""
    cyclotomic, factor = ctx.m["cyclotomic"], ctx.m["factor"]
    records = []
    for m in CLASSIFY_MODULI:
        psi = cyclotomic.psi_poly(m)
        for u in CLASSIFY_RANGE:
            for v in CLASSIFY_RANGE:
                if gcd(u, v) != 1:
                    continue
                value = cyclotomic.eval_poly(psi, u, v)
                if value == 0:
                    continue
                fac = factor.factorize(abs(value), trial_bound=10**4, rho_budget=10**6)
                classes = [(p, cyclotomic.classify_psi_prime_power(m, u, v, p)) for p in fac.factors]
                records.append((m, abs(value), fac.factors, classes))
    return records


def _check_classify(ctx: Context, records) -> str | None:
    count = sum(len(classes) for _, _, _, classes in records)
    if count != CLASSIFY_COUNT:
        return f"{count} classifications != {CLASSIFY_COUNT}"
    for m, value, factors, classes in records:
        if prod(p**e for p, e in factors.items()) != value:
            return f"factorization of psi_{m} value {value} does not multiply back"
        for p, cls in classes:
            want = "PlusMinusOneModM" if p % m in (1, m - 1) else "DividesM"
            if cls != want or (want == "DividesM" and m % p**factors[p]):
                return f"prime {p} of psi_{m} value {value} classified {cls}"
    return None


OPS = {
    op.name: op
    for op in (
        Op("series_build", lambda ctx: ctx.m["hecke"].tau_series(SERIES_N), _check_series,
           lambda s: sha256(repr(s))),
        Op("chebotarev",
           lambda ctx: ctx.m["density"].chebotarev_sample(
               ctx.m["hecke"].EigenformSpec.delta(), 5, 11, SERIES_N),
           _check_chebotarev, lambda s: sha256(json.dumps(s.to_json_dict(), sort_keys=True))),
        Op("sato_tate",
           lambda ctx: ctx.m["scans"].sato_tate_histogram(
               ctx.m["hecke"].EigenformSpec.delta(), SERIES_N, 20),
           _check_sato_tate, lambda h: sha256(json.dumps(h.to_json_dict(), sort_keys=True))),
        _cli_op("scan_summary", lambda ctx: _scan_argv(2, 1000, "json"),
                _check_scan(None, SCAN_SUMMARY_2, False)),
        _cli_op("scan_csv", lambda ctx: _scan_argv(2, 1000, "csv"),
                _check_scan(SCAN_CSV_2_SHA256, SCAN_SUMMARY_2, True)),
        _cli_op("scan_deep", lambda ctx: _scan_argv(8, 100, "csv"),
                _check_scan(SCAN_CSV_8_SHA256, SCAN_SUMMARY_8, True)),
        _cli_op("verify_all", lambda ctx: ["verify", "--suite", "all", "--seed", str(ctx.seed)],
                _check_verify),
        _cli_op("density_lift", lambda ctx: DENSITY_ARGV + ["--workers", "1"], _check_density),
        _cli_op("density_lift_par", lambda ctx: DENSITY_ARGV + ["--workers", "2"], _check_density,
                parallel=True, group="density_lift"),
        Op("classify_sweep", _classify_sweep, _check_classify, lambda r: sha256(repr(r))),
    )
}


@dataclass(frozen=True)
class Workload:
    name: str
    sieve: int  # primes sieved during set-up
    warm: int  # tau series cached during set-up
    ops: tuple[tuple[str, int], ...]  # (operation, runs per cycle)
    slots: tuple[str, str, str]  # operations reported as op1_s, op2_s, op3_s
    shuffle: bool  # seeded operation order within a cycle

    def cycle(self, rnd: random.Random) -> list[str]:
        """Operation names for one cycle; repeated operations interleave."""
        rounds = max(rep for _, rep in self.ops)
        names = [name for r in range(rounds) for name, rep in self.ops if r < rep]
        if self.shuffle:
            rnd.shuffle(names)
        return names

    def sequence(self, seed: int) -> Iterator[str]:
        """The endless operation sequence of a run: cycle after cycle."""
        rnd = random.Random(seed)
        while True:
            yield from self.cycle(rnd)


WORKLOADS = {
    w.name: w
    for w in (
        Workload("series", SERIES_N, SERIES_N,
                 (("series_build", 1), ("chebotarev", 4), ("sato_tate", 4)),
                 ("series_build", "chebotarev", "sato_tate"), False),
        Workload("scan", 10**4, 1000,
                 (("scan_summary", 1), ("scan_csv", 1), ("scan_deep", 1)),
                 ("scan_summary", "scan_csv", "scan_deep"), False),
        # density_lift_par runs for the --workers byte-identity check only: two
        # workers on two shared cores time too unsteadily to be a metric
        Workload("algebra", 10**4, 1000,
                 (("verify_all", 1), ("density_lift", 1), ("density_lift_par", 1),
                  ("classify_sweep", 1)),
                 ("verify_all", "density_lift", "classify_sweep"), True),
    )
}


def setup(ctx: Context, workload: Workload) -> None:
    """Import taulab, sieve the primes and warm the shared tau series."""
    ctx.m = {name: importlib.import_module(f"taulab.{name}") for name in MODULES}
    ctx.m["factor"].primes_up_to(workload.sieve)
    ctx.m["hecke"].warm_delta_cache(workload.warm)
