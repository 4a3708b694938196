"""Command-line front end: every operation as a subcommand.

Exit codes: 0 success, 1 bad input, 2 a resource budget stopped the
computation or the result is partial, 3 a mathematical identity the
package promises failed (the loudest possible signal).

Identical configurations (including the seed) produce byte-identical
output regardless of worker count.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass, field

from . import cyclotomic, density, factor, hecke, identities, scans
from .errors import (
    BudgetExceededError,
    DataExhaustedError,
    IdentityViolationError,
    PartialFactorizationError,
    TableFormatError,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_BUDGET = 2
EXIT_IDENTITY = 3


@dataclass
class RunConfig:
    """Validated parameters for one invocation."""

    command: str
    q: int | None = None
    ell: int | None = None
    n: int = 1
    weight: int = 12
    level: int = 1
    epsilon: float = 0.1
    grh_c: float | None = None
    x_bound: int = 10**4
    bins: int = 20
    limit: int = 100
    d: int | None = None
    p: int | None = None
    m: int | None = None
    two_n: int = 2
    budget: int = density.DEFAULT_ENUM_BUDGET
    trial_bound: int = factor.DEFAULT_TRIAL_BOUND
    rho_budget: int = factor.DEFAULT_RHO_BUDGET
    table: str | None = None
    out: str | None = None
    fmt: str = "text"
    workers: int = 1
    seed: int = 0
    extra: dict = field(default_factory=dict)

    def validate(self) -> None:
        if self.q is not None and (self.q % 2 == 0 or not factor.is_prime(self.q)):
            raise ValueError(f"--q must be an odd prime, got {self.q}")
        if self.ell is not None and not factor.is_prime(self.ell):
            raise ValueError(f"--ell must be prime, got {self.ell}")
        if self.two_n % 2 or self.two_n < 2:
            raise ValueError(f"--two-n must be even and >= 2, got {self.two_n}")
        if not (math.isfinite(self.epsilon) and self.epsilon >= 0):
            raise ValueError(f"--eps must be finite and >= 0, got {self.epsilon}")
        if self.grh_c is not None and not (math.isfinite(self.grh_c) and self.grh_c > 0):
            raise ValueError(f"--grh-c must be finite and > 0, got {self.grh_c}")
        if self.workers < 1:
            raise ValueError(f"--workers must be >= 1, got {self.workers}")
        if self.trial_bound < 1:
            raise ValueError(f"--trial-bound must be >= 1, got {self.trial_bound}")
        if self.rho_budget < 0:
            raise ValueError(f"--rho-budget must be >= 0, got {self.rho_budget}")

    def form(self) -> hecke.EigenformSpec:
        if self.table:
            return hecke.ingest_table(self.table, self.weight, self.level)
        return hecke.EigenformSpec.delta()


def _emit(cfg: RunConfig, text: str) -> None:
    if cfg.out:
        with open(cfg.out, "w", encoding="utf-8") as fh:
            fh.write(text if text.endswith("\n") else text + "\n")
    else:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")


def _cmd_tau(cfg: RunConfig) -> int:
    if cfg.extra.get("find_first_prime"):
        hit = hecke.find_first_prime_tau(cfg.limit)
        if hit is None:
            _emit(cfg, f"no prime value up to {cfg.limit}")
            return EXIT_OK
        n, value = hit
        _emit(cfg, f"{n}" if cfg.fmt != "json" else json.dumps({"n": n, "value": str(value)}))
        return EXIT_OK
    series = hecke.tau_series(cfg.limit)
    _emit(cfg, "\n".join(str(series[n]) for n in range(1, cfg.limit + 1)))
    return EXIT_OK


def _cmd_coeff(cfg: RunConfig) -> int:
    f = cfg.form()
    fn = hecke.coeff_lucas if cfg.extra.get("lucas") else hecke.coeff_prime_power
    value = fn(f, cfg.p, cfg.m)
    if cfg.fmt == "json":
        _emit(cfg, json.dumps({"p": cfg.p, "m": cfg.m, "value": str(value)}))
    else:
        _emit(cfg, str(value))
    return EXIT_OK


def _cmd_psi(cfg: RunConfig) -> int:
    kind = cfg.extra.get("kind", "PSI").upper()
    upto = cfg.extra.get("upto")
    if upto:
        lines = [cyclotomic.dump_poly_line(kind, n) for n in range(3, upto + 1)]
        _emit(cfg, "\n".join(lines))
    else:
        _emit(cfg, cyclotomic.dump_poly_line(kind, cfg.n))
    return EXIT_OK


def _cmd_sympow(cfg: RunConfig) -> int:
    from .rings import ZZ, RingMatrix, Zmod, sym_pow, sym_pow_trace

    entries = [int(x) for x in cfg.extra["entries"].split(",")]
    if len(entries) != 4:
        raise ValueError("--entries must be four comma-separated integers a,b,c,d")
    ring = Zmod(cfg.extra["mod"]) if cfg.extra.get("mod") else ZZ
    mat = RingMatrix.make(ring, [entries[:2], entries[2:]])
    result = sym_pow(mat, cfg.n)
    if cfg.n >= 2 and result.trace() != sym_pow_trace(mat, cfg.n):
        raise IdentityViolationError("trace law failed for this input")
    if cfg.fmt == "json":
        _emit(cfg, json.dumps({"dim": result.dim, "rows": [list(r) for r in result.entries]}))
    else:
        _emit(cfg, "\n".join(" ".join(str(x) for x in row) for row in result.entries))
    return EXIT_OK


def _cmd_density(cfg: RunConfig) -> int:
    query = density.DensityQuery(cfg.q, cfg.ell, cfg.n, cfg.weight)
    report = density.enumerate_density(query, budget=cfg.budget)
    _emit(cfg, report.to_json())
    return EXIT_OK


def _cmd_lift(cfg: RunConfig) -> int:
    report = density.lift_factor(cfg.q, cfg.ell, cfg.weight, budget=cfg.budget)
    ratio = report.ratio
    payload = {
        "base": report.base.to_json_dict(),
        "lifted": report.lifted.to_json_dict(),
        "ratio": None if ratio is None else f"{ratio.numerator}/{ratio.denominator}",
        "zeroDensity": ratio is None,
    }
    _emit(cfg, json.dumps(payload, indent=2, sort_keys=True))
    return EXIT_OK


def _cmd_chebotarev(cfg: RunConfig) -> int:
    f = cfg.form()
    sample = density.chebotarev_sample(f, cfg.q, cfg.d, cfg.x_bound)
    _emit(cfg, json.dumps(sample.to_json_dict(), indent=2, sort_keys=True))
    return EXIT_OK


def _cmd_scan(cfg: RunConfig) -> int:
    f = cfg.form()
    args = (f, cfg.two_n, cfg.x_bound)
    budgets = dict(
        epsilon=None if cfg.grh_c is not None else cfg.epsilon,
        grh_c=cfg.grh_c,
        trial_bound=cfg.trial_bound,
        rho_budget=cfg.rho_budget,
    )
    if cfg.fmt == "csv":
        rows, summary = scans.threshold_scan(*args, **budgets)
        _emit(cfg, "\n".join([scans.CSV_HEADER] + [r.csv_line() for r in rows]))
        sys.stderr.write(summary.to_json() + "\n")
    else:
        # a summary prints verdict counts only, so each row does only the work its verdict needs
        summary = scans.ScanSummary.of(scans.scan_rows(*args, **budgets, pin=False))
        _emit(cfg, summary.to_json())
    return EXIT_BUDGET if summary.unknown_count else EXIT_OK


def _cmd_tower(cfg: RunConfig) -> int:
    f = cfg.form()
    checked = 0
    for p in factor.primes_up_to(cfg.extra.get("p_max", 100)):
        if f.level % p == 0:
            continue
        for n in range(1, (cfg.extra.get("max_odd", 9) - 1) // 2 + 1):
            if not scans.check_divisibility_tower(f, p, n):
                raise IdentityViolationError(f"divisibility tower failed at p={p}, 2n={2 * n}")
            checked += 1
    _emit(cfg, f"tower verified on {checked} (p, n) pairs")
    return EXIT_OK


def _cmd_sato_tate(cfg: RunConfig) -> int:
    f = cfg.form()
    hist = scans.sato_tate_histogram(f, cfg.x_bound, cfg.bins)
    if cfg.fmt == "csv":
        _emit(cfg, "\n".join(hist.csv_lines()))
    else:
        _emit(cfg, json.dumps(hist.to_json_dict(), indent=2, sort_keys=True))
    return EXIT_OK


def _cmd_verify(cfg: RunConfig) -> int:
    if not 3 <= cfg.limit <= 200:
        raise ValueError(f"--limit for verify must be in [3, 200], got {cfg.limit}")
    suites = {
        "identities": [
            (identities.square_product, {"n_max": cfg.limit}),
            (identities.partial_scaling, {}),
            (identities.discriminant_law, {}),
        ],
        "sympow": [(identities.trace_kernel_laws, {}), (identities.functoriality, {"seed": cfg.seed})],
        "density": [(identities.density_closed_forms, {}), (identities.lift_ratio, {})],
        "tau": [(identities.series_recursion, {"limit": 1000}),
                (identities.psi_coefficients, {})],
    }
    suite = cfg.extra.get("suite", "all")
    lines: list[str] = []
    for name, checks in suites.items():
        if suite in (name, "all"):
            for check, kw in checks:
                lines += list(check(**kw)) or [check.passed.format(**kw)]
    _emit(cfg, "\n".join(lines))
    return EXIT_IDENTITY if any(line.startswith("FAIL") for line in lines) else EXIT_OK


_COMMANDS = {
    "tau": _cmd_tau,
    "coeff": _cmd_coeff,
    "psi": _cmd_psi,
    "sympow": _cmd_sympow,
    "density": _cmd_density,
    "lift": _cmd_lift,
    "chebotarev": _cmd_chebotarev,
    "scan": _cmd_scan,
    "tower": _cmd_tower,
    "sato-tate": _cmd_sato_tate,
    "verify": _cmd_verify,
}


def _add_common(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--out", help="write output to this path instead of stdout")
    sp.add_argument("--format", dest="fmt", choices=("text", "csv", "json"), default="text")
    sp.add_argument("--workers", type=int, default=1,
                    help="accepted for compatibility; never changes results or work")
    sp.add_argument("--seed", type=int, default=0, help="seed for sampled checks")
    sp.add_argument("--config", help="key=value file supplying defaults")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="taulab",
        description="Exact toolkit for eigenform coefficients at prime powers: "
        "series, trace polynomials, symmetric powers, trace-zero densities, and "
        "largest-prime-factor scans.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("tau", help="coefficient series of the built-in weight-12 form")
    p.add_argument("--limit", type=int, default=100)
    p.add_argument("--find-first-prime", action="store_true",
                   help="print the smallest n with |tau(n)| prime instead of the series")
    _add_common(p)

    p = sub.add_parser("coeff", help="a_f(p^m) by recursion or the Lucas ladder")
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--weight", type=int, default=12)
    p.add_argument("--level", type=int, default=1)
    p.add_argument("--table", help="CSV table of a_p values")
    p.add_argument("--lucas", action="store_true", help="use the Lucas ladder path")
    _add_common(p)

    p = sub.add_parser("psi", help="dump trace / cyclotomic polynomial coefficients")
    p.add_argument("--n", type=int, default=5)
    p.add_argument("--kind", choices=("psi", "phi", "f"), default="psi")
    p.add_argument("--upto", type=int, help="dump all indices 3..UPTO")
    _add_common(p)

    p = sub.add_parser("sympow", help="symmetric power of a 2x2 matrix")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--entries", required=True, help="a,b,c,d")
    p.add_argument("--mod", type=int, help="work mod this integer (default: integers)")
    _add_common(p)

    p = sub.add_parser("density", help="trace-zero density over GL2(Z/ell^n) by enumeration")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--ell", type=int, required=True)
    p.add_argument("--n", type=int, default=1)
    p.add_argument("--k", dest="weight", type=int, default=12)
    p.add_argument("--budget", type=int, default=density.DEFAULT_ENUM_BUDGET)
    _add_common(p)

    p = sub.add_parser("lift", help="density ratio between levels ell^2 and ell")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--ell", type=int, required=True)
    p.add_argument("--k", dest="weight", type=int, default=12)
    p.add_argument("--budget", type=int, default=density.DEFAULT_ENUM_BUDGET)
    _add_common(p)

    p = sub.add_parser("chebotarev", help="empirical frequency of d | a_f(p^(q-1))")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--x-bound", type=int, default=10**5)
    p.add_argument("--weight", type=int, default=12)
    p.add_argument("--level", type=int, default=1)
    p.add_argument("--table")
    _add_common(p)

    p = sub.add_parser("scan", help="largest-prime-factor threshold scan over primes")
    p.add_argument("--two-n", type=int, default=2)
    p.add_argument("--eps", dest="epsilon", type=float, default=0.1)
    p.add_argument("--grh-c", type=float, help="use the power-threshold mode with this constant")
    p.add_argument("--x-bound", type=int, default=10**3)
    p.add_argument("--trial-bound", type=int, default=factor.DEFAULT_TRIAL_BOUND,
                   help="largest prime tried by division before rho; json and text "
                   "summaries try only primes up to the threshold's floor while that "
                   "is below TRIAL_BOUND")
    p.add_argument("--rho-budget", type=int, default=factor.DEFAULT_RHO_BUDGET,
                   help="rho iterations per cofactor, checked between Brent's doubling "
                   "rounds, so a run can spend up to 2*BUDGET+2")
    p.add_argument("--weight", type=int, default=12)
    p.add_argument("--level", type=int, default=1)
    p.add_argument("--table")
    _add_common(p)

    p = sub.add_parser("tower", help="verify the prime-power divisibility tower")
    p.add_argument("--p-max", type=int, default=100)
    p.add_argument("--max-odd", type=int, default=9, help="largest odd exponent bound 2n+1")
    p.add_argument("--weight", type=int, default=12)
    p.add_argument("--level", type=int, default=1)
    p.add_argument("--table")
    _add_common(p)

    p = sub.add_parser("sato-tate", help="normalized coefficient histogram vs the semicircle law")
    p.add_argument("--x-bound", type=int, default=10**4)
    p.add_argument("--bins", type=int, default=20)
    p.add_argument("--weight", type=int, default=12)
    p.add_argument("--level", type=int, default=1)
    p.add_argument("--table")
    _add_common(p)

    p = sub.add_parser("verify", help="run built-in identity suites (exit 3 on failure)")
    p.add_argument("--suite", choices=("identities", "sympow", "density", "tau", "all"),
                   default="all")
    p.add_argument("--limit", type=int, default=100,
                   help="check the square-product identities for 3 <= n <= LIMIT, in [3, 200]")
    _add_common(p)

    return parser


def _load_config(path: str) -> dict:
    out = {}
    with open(path, encoding="utf-8") as fh:
        for raw in fh:
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"expected key=value, got {line!r}")
            key, value = line.split("=", 1)
            out[key.strip().replace("_", "-")] = value.strip()
    return out


def _config_from_namespace(ns: argparse.Namespace) -> RunConfig:
    cfg = RunConfig(command=ns.command)
    for key, value in vars(ns).items():
        if key in ("command", "config") or value is None:
            continue
        if hasattr(cfg, key):
            setattr(cfg, key, value)
        else:
            cfg.extra[key] = value
    return cfg


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        ns = parser.parse_args(argv)
        if ns.config:
            # the file's lines become flags just after the subcommand, so explicit flags win
            at = argv.index(ns.command) + 1
            config = [f"--{key}={value}" for key, value in _load_config(ns.config).items()]
            ns = parser.parse_args(argv[:at] + config + argv[at:])
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    except (OSError, ValueError) as exc:
        sys.stderr.write(f"error: bad --config: {exc}\n")
        return EXIT_USAGE
    try:
        cfg = _config_from_namespace(ns)
        cfg.validate()
        return _COMMANDS[cfg.command](cfg)
    except (ValueError, TableFormatError, DataExhaustedError, KeyError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE
    except (BudgetExceededError, PartialFactorizationError) as exc:
        sys.stderr.write(f"budget: {exc}\n")
        return EXIT_BUDGET
    except IdentityViolationError as exc:
        sys.stderr.write(f"IDENTITY VIOLATION: {exc}\n")
        return EXIT_IDENTITY


if __name__ == "__main__":
    raise SystemExit(main())
