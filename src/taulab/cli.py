"""Command-line front end: every operation as a subcommand.

``_COMMANDS`` is the one table of subcommands: each name maps to its
help line, a function that adds its flags and a function that runs it.
A call whose first argument names a command builds only that command's
flags, and the run function imports only the modules it uses, so
``taulab density`` never loads ``scans``.  Any other first
argument (none, ``-h``, a typo) builds every command, for the full help
and error messages.

Exit codes: 0 success, 1 bad input (a file that cannot be read or
written included), 2 a resource budget stopped the computation or the
result is partial, 3 a mathematical identity the package promises
failed (the loudest possible signal).

Identical configurations (including the seed) produce byte-identical
output.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from . import __version__, factor
from .errors import (
    BudgetExceededError,
    DataExhaustedError,
    IdentityViolationError,
    TableFormatError,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_BUDGET = 2
EXIT_IDENTITY = 3


def _checked(convert, rule: str, ok):
    """An argparse type: convert the text, then require ok(value)."""

    def parse(text: str):
        value = convert(text)
        if not ok(value):
            raise argparse.ArgumentTypeError(f"must be {rule}, got {value}")
        return value

    parse.__name__ = convert.__name__  # argparse names it in "invalid int value: ..."
    return parse


def _int_at_least(low: int):
    return _checked(int, f">= {low}", lambda v: v >= low)


# factor.is_prime is looked up at each check, so a patched or traced one is the one called
_ODD_PRIME = _checked(int, "an odd prime", lambda q: q % 2 == 1 and factor.is_prime(q))
_PRIME = _checked(int, "prime", lambda p: factor.is_prime(p))


def _add_common(p: argparse.ArgumentParser, formats: tuple[str, ...] = ()) -> None:
    """--out and --config, and --format with these choices, the first the default."""
    p.add_argument("--out", help="write output to this path instead of stdout")
    if formats:
        p.add_argument("--format", dest="fmt", choices=formats, default=formats[0])
    p.add_argument("--config", help="key=value file supplying defaults")


def _add_form(p: argparse.ArgumentParser) -> None:
    p.add_argument("--weight", type=int, default=12)
    p.add_argument("--level", type=int, default=1)
    p.add_argument("--table", help="CSV table of a_p values")


def _form(ns: argparse.Namespace):
    from . import hecke

    if ns.table:
        return hecke.ingest_table(ns.table, ns.weight, ns.level)
    return hecke.EigenformSpec(ns.weight, ns.level, label="delta")


def _emit(ns: argparse.Namespace, text: str) -> None:
    if ns.out:
        with open(ns.out, "w", encoding="utf-8") as fh:
            fh.write(text if text.endswith("\n") else text + "\n")
    else:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")


def _flags_tau(p: argparse.ArgumentParser) -> None:
    p.add_argument("--limit", type=_int_at_least(1), default=100)
    p.add_argument("--find-first-prime", action="store_true",
                   help="print the smallest n with |tau(n)| prime instead of the series")
    _add_common(p)


def _cmd_tau(ns: argparse.Namespace) -> int:
    from . import hecke

    if ns.find_first_prime:
        hit = hecke.find_first_prime_tau(ns.limit)
        if hit is None:
            _emit(ns, f"no prime value up to {ns.limit}")
            return EXIT_OK
        _emit(ns, str(hit[0]))
        return EXIT_OK
    series = hecke.tau_series(ns.limit)
    _emit(ns, "\n".join(str(series[n]) for n in range(1, ns.limit + 1)))
    return EXIT_OK


def _flags_coeff(p: argparse.ArgumentParser) -> None:
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    _add_form(p)
    _add_common(p, ("text", "json"))


def _cmd_coeff(ns: argparse.Namespace) -> int:
    from . import hecke

    value = hecke.coeff_prime_power(_form(ns), ns.p, ns.m)
    if ns.fmt == "json":
        _emit(ns, json.dumps({"p": ns.p, "m": ns.m, "value": str(value)}))
    else:
        _emit(ns, str(value))
    return EXIT_OK


def _flags_psi(p: argparse.ArgumentParser) -> None:
    p.add_argument("--n", type=int, default=5)
    p.add_argument("--kind", choices=("psi", "phi", "f"), default="psi")
    p.add_argument("--upto", type=_int_at_least(3), help="dump all indices 3..UPTO")
    _add_common(p)


def _cmd_psi(ns: argparse.Namespace) -> int:
    from . import cyclotomic

    low, high = (3, ns.upto) if ns.upto else (ns.n, ns.n)
    _emit(ns, cyclotomic.dump_poly_lines(ns.kind.upper(), low, high))
    return EXIT_OK


def _flags_sympow(p: argparse.ArgumentParser) -> None:
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--entries", required=True, help="a,b,c,d")
    p.add_argument("--mod", type=int, help="work mod this integer (default: integers)")
    _add_common(p, ("text", "json"))


def _cmd_sympow(ns: argparse.Namespace) -> int:
    from .rings import Ring, RingMatrix, sym_pow, sym_pow_trace

    entries = [int(x) for x in ns.entries.split(",")]
    if len(entries) != 4:
        raise ValueError("--entries must be four comma-separated integers a,b,c,d")
    mat = RingMatrix.make(Ring(ns.mod), [entries[:2], entries[2:]])
    result = sym_pow(mat, ns.n)
    if ns.n >= 2 and result.trace() != sym_pow_trace(mat, ns.n):
        raise IdentityViolationError("trace law failed for this input")
    if ns.fmt == "json":
        _emit(ns, json.dumps({"dim": result.dim, "rows": [list(r) for r in result.entries]}))
    else:
        _emit(ns, "\n".join(" ".join(str(x) for x in row) for row in result.entries))
    return EXIT_OK


def _flags_density(p: argparse.ArgumentParser) -> None:
    from .density import DEFAULT_ENUM_BUDGET

    p.add_argument("--q", type=_ODD_PRIME, required=True)
    p.add_argument("--ell", type=_PRIME, required=True)
    p.add_argument("--n", type=int, default=1)
    p.add_argument("--k", dest="weight", type=int, default=12)
    p.add_argument("--budget", type=_int_at_least(0), default=DEFAULT_ENUM_BUDGET,
                   help="most evaluations of psi_q(X, 1) the count may make, each "
                        "weighted by the 64-bit words of its modulus: ell to find its "
                        "roots mod ell, and ell per root lifted to each next level")
    p.add_argument("--workers", type=_int_at_least(1), default=1,
                   help="accepted for compatibility; never changes results or work")
    _add_common(p)


def _cmd_density(ns: argparse.Namespace) -> int:
    from . import density

    query = density.DensityQuery(ns.q, ns.ell, ns.n, ns.weight)
    report = density.enumerate_density(query, budget=ns.budget)
    _emit(ns, report.to_json())
    return EXIT_OK


def _flags_lift(p: argparse.ArgumentParser) -> None:
    from .density import DEFAULT_ENUM_BUDGET

    p.add_argument("--q", type=_ODD_PRIME, required=True)
    p.add_argument("--ell", type=_PRIME, required=True)
    p.add_argument("--k", dest="weight", type=int, default=12)
    p.add_argument("--budget", type=_int_at_least(0), default=DEFAULT_ENUM_BUDGET,
                   help="most evaluations of psi_q(X, 1) each of the two counts may make "
                        "(see density --budget)")
    _add_common(p)


def _cmd_lift(ns: argparse.Namespace) -> int:
    from . import density

    report = density.lift_factor(ns.q, ns.ell, ns.weight, budget=ns.budget)
    ratio = report.ratio
    payload = {
        "base": report.base.to_json_dict(),
        "lifted": report.lifted.to_json_dict(),
        "ratio": None if ratio is None else f"{ratio.numerator}/{ratio.denominator}",
        "zeroDensity": ratio is None,
    }
    _emit(ns, json.dumps(payload, indent=2, sort_keys=True))
    return EXIT_OK


def _flags_chebotarev(p: argparse.ArgumentParser) -> None:
    p.add_argument("--q", type=_ODD_PRIME, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--x-bound", type=int, default=10**5)
    _add_form(p)
    _add_common(p)


def _cmd_chebotarev(ns: argparse.Namespace) -> int:
    from . import density

    f = _form(ns)
    sample = density.chebotarev_sample(f, ns.q, ns.d, ns.x_bound)
    _emit(ns, json.dumps(sample.to_json_dict(), indent=2, sort_keys=True))
    return EXIT_OK


def _flags_scan(p: argparse.ArgumentParser) -> None:
    p.add_argument("--two-n", type=_checked(int, "even and >= 2", lambda v: v >= 2 and v % 2 == 0),
                   default=2)
    p.add_argument("--eps", dest="epsilon", default=0.1,
                   type=_checked(float, "finite and >= 0", lambda v: math.isfinite(v) and v >= 0))
    p.add_argument("--grh-c", type=_checked(float, "finite and > 0",
                                            lambda v: math.isfinite(v) and v > 0),
                   help="use the power-threshold mode with this constant")
    # primes below MIN_SCAN_PRIME are never scanned, so a lower bound scans nothing
    p.add_argument("--x-bound", type=_int_at_least(17), default=10**3)
    p.add_argument("--trial-bound", type=_int_at_least(1),
                   default=factor.DEFAULT_TRIAL_BOUND,
                   help="largest prime tried by division before rho; json summaries "
                   "try only primes up to the threshold's floor while that is below "
                   "TRIAL_BOUND")
    p.add_argument("--rho-budget", type=_int_at_least(0),
                   default=factor.DEFAULT_RHO_BUDGET,
                   help="rho iterations per cofactor, checked between Brent's doubling "
                   "rounds, so a run can spend up to 2*BUDGET+2")
    _add_form(p)
    _add_common(p, ("json", "csv"))


def _cmd_scan(ns: argparse.Namespace) -> int:
    from . import scans

    f = _form(ns)
    args = (f, ns.two_n, ns.x_bound)
    budgets = dict(
        epsilon=ns.epsilon,
        grh_c=ns.grh_c,
        trial_bound=ns.trial_bound,
        rho_budget=ns.rho_budget,
    )
    if ns.fmt == "csv":
        rows, summary = scans.threshold_scan(*args, **budgets)
        _emit(ns, "\n".join([scans.CSV_HEADER] + [r.csv_line() for r in rows]))
        sys.stderr.write(summary.to_json() + "\n")
    else:
        # a summary prints verdict counts only, so each row does only the work its verdict needs
        summary = scans.ScanSummary.of(scans.scan_rows(*args, **budgets, pin=False))
        _emit(ns, summary.to_json())
    return EXIT_BUDGET if summary.unknown_count else EXIT_OK


def _flags_tower(p: argparse.ArgumentParser) -> None:
    # below these bounds the tower would check no (p, n) pair at all
    p.add_argument("--p-max", type=_int_at_least(2), default=100)
    p.add_argument("--max-odd", type=_checked(int, "an odd integer >= 3",
                                              lambda v: v >= 3 and v % 2 == 1),
                   default=9, help="largest odd exponent bound 2n+1")
    _add_form(p)
    _add_common(p)


def _cmd_tower(ns: argparse.Namespace) -> int:
    from . import identities

    f = _form(ns)
    for line in identities.divisibility_tower(f=f, p_max=ns.p_max, max_odd=ns.max_odd):
        raise IdentityViolationError(line.removeprefix("FAIL "))
    primes = sum(1 for p in factor.primes_up_to(ns.p_max) if f.level % p)
    if not primes:
        raise ValueError(f"no prime up to --p-max {ns.p_max} is coprime to the level {f.level}")
    _emit(ns, f"tower verified on {primes * ((ns.max_odd - 1) // 2)} (p, n) pairs")
    return EXIT_OK


def _flags_sato_tate(p: argparse.ArgumentParser) -> None:
    p.add_argument("--x-bound", type=int, default=10**4)
    p.add_argument("--bins", type=int, default=20)
    _add_form(p)
    _add_common(p, ("json", "csv"))


def _cmd_sato_tate(ns: argparse.Namespace) -> int:
    from . import scans

    f = _form(ns)
    hist = scans.sato_tate_histogram(f, ns.x_bound, ns.bins)
    if ns.fmt == "csv":
        _emit(ns, "\n".join(hist.csv_lines()))
    else:
        _emit(ns, json.dumps(hist.to_json_dict(), indent=2, sort_keys=True))
    return EXIT_OK


def _flags_verify(p: argparse.ArgumentParser) -> None:
    p.add_argument("--suite", choices=("identities", "sympow", "density", "tau", "all"),
                   default="all")
    p.add_argument("--limit", type=_checked(int, "in [3, 200]", lambda v: 3 <= v <= 200),
                   default=100,
                   help="check the square-product identities for 3 <= n <= LIMIT, in [3, 200]")
    p.add_argument("--seed", type=int, default=0, help="seed for the sampled functoriality check")
    _add_common(p)


def _cmd_verify(ns: argparse.Namespace) -> int:
    from . import identities

    suites = {
        "identities": [
            (identities.square_product, {"n_max": ns.limit}),
            (identities.partial_scaling, {}),
            (identities.discriminant_law, {}),
        ],
        "sympow": [(identities.trace_kernel_laws, {}), (identities.functoriality, {"seed": ns.seed})],
        "density": [(identities.density_closed_forms, {}), (identities.lift_ratio, {})],
        "tau": [(identities.series_recursion, {"limit": 1000}),
                (identities.psi_coefficients, {})],
    }
    lines: list[str] = []
    for name, checks in suites.items():
        if ns.suite in (name, "all"):
            for check, kw in checks:
                lines += list(check(**kw)) or [check.passed.format(**kw)]
    _emit(ns, "\n".join(lines))
    return EXIT_IDENTITY if any(line.startswith("FAIL") for line in lines) else EXIT_OK


# name -> (help line, function adding its flags, function running it), in help order
_COMMANDS = {
    "tau": ("coefficient series of the built-in weight-12 form", _flags_tau, _cmd_tau),
    "coeff": ("a_f(p^m) by the Lucas ladder", _flags_coeff, _cmd_coeff),
    "psi": ("dump trace / cyclotomic polynomial coefficients", _flags_psi, _cmd_psi),
    "sympow": ("symmetric power of a 2x2 matrix", _flags_sympow, _cmd_sympow),
    "density": ("trace-zero density over GL2(Z/ell^n) by enumeration",
                _flags_density, _cmd_density),
    "lift": ("density ratio between levels ell^2 and ell", _flags_lift, _cmd_lift),
    "chebotarev": ("empirical frequency of d | a_f(p^(q-1))", _flags_chebotarev, _cmd_chebotarev),
    "scan": ("largest-prime-factor threshold scan over primes", _flags_scan, _cmd_scan),
    "tower": ("verify the prime-power divisibility tower", _flags_tower, _cmd_tower),
    "sato-tate": ("normalized coefficient histogram vs the semicircle law",
                  _flags_sato_tate, _cmd_sato_tate),
    "verify": ("run built-in identity suites (exit 3 on failure)", _flags_verify, _cmd_verify),
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser for one subcommand, or for all of them when ``command`` is None.

    A one-command parser still names every command in its usage line, so
    its errors print the same usage as the full parser's.  The full parser
    leaves the metavar unset: it names the positional ``command`` in
    "the following arguments are required".
    """
    parser = argparse.ArgumentParser(
        prog="taulab",
        description="Exact toolkit for eigenform coefficients at prime powers: "
        "series, trace polynomials, symmetric powers, trace-zero densities, and "
        "largest-prime-factor scans.",
    )
    # left out of the usage line, which every usage error repeats
    parser.add_argument("--version", action="version", version=f"taulab {__version__}",
                        help=argparse.SUPPRESS)
    metavar = None if command is None else "{" + ",".join(_COMMANDS) + "}"
    sub = parser.add_subparsers(dest="command", required=True, metavar=metavar)
    for name in _COMMANDS if command is None else (command,):
        help_line, add_flags, _ = _COMMANDS[name]
        add_flags(sub.add_parser(name, help=help_line))
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


def main(argv: list[str] | None = None) -> int:
    # exact answers can pass the 4300-digit int/str conversion limit of
    # Python >= 3.10.7; lift it for this call and put the caller's back
    set_limit = getattr(sys, "set_int_max_str_digits", None)
    if set_limit is None:
        return _main(argv)
    previous = sys.get_int_max_str_digits()
    set_limit(0)
    try:
        return _main(argv)
    finally:
        set_limit(previous)


def _main(argv: list[str] | None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    # a first argument that names a command needs only that command's flags
    parser = build_parser(argv[0] if argv and argv[0] in _COMMANDS else None)
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
        return _COMMANDS[ns.command][2](ns)
    except (OSError, ValueError, TableFormatError, DataExhaustedError, KeyError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE
    except BudgetExceededError as exc:
        sys.stderr.write(f"budget: {exc}\n")
        return EXIT_BUDGET
    except IdentityViolationError as exc:
        sys.stderr.write(f"IDENTITY VIOLATION: {exc}\n")
        return EXIT_IDENTITY


if __name__ == "__main__":
    raise SystemExit(main())
