"""Trace-zero densities over GL2 of finite rings and their empirical check.

The central count: matrices A over Z/l^n Z whose determinant is a
(k-1)-th power of a unit and whose trace and determinant satisfy
psi_q(tr(A)^2, det(A)) = 0 mod l^n.  The density is that count divided
by the order of the full determinant-constrained group.  Closed forms
exist at n = 1 (split by l mod q) and lift by a factor 1/l per level
for l != q.

Enumeration never loops over matrix entries: it walks the matching
(trace, det) pairs and multiplies by the exact fiber size.  psi_q is
homogeneous and every det is a unit, so psi_q(t^2, det) = 0 mod l^n
exactly when t^2 / det lies in R = {r : psi_q(r, 1) = 0 mod l^n}; R is
found once, then each t is visited once with det = t^2 / r for r in R,
keeping no table over the residues.  One fiber sum serves every pair
in a fiber class.  For odd l the fiber size depends only on the class
of the discriminant t^2 - 4 det under unit squares (its l-valuation
capped at n, and below n whether its unit part is a square mod l); for
l = 2 each pair is its own class, and the budget bounds the classes
kept.  At n = 1 the fiber of (t, det) is l^2 - l + l * #{roots of
x^2 - tx + det mod l}, so the fiber sizes also give the conjugacy-type
class tally.  A literal four-loop enumerator is kept as an oracle for
small moduli.

Empirical side: walk primes p <= x and test whether d divides
a_f(p^(q-1)) = psi_q(a_f(p)^2, p^(k-1)).  By the same homogeneity, for
p not dividing d that holds exactly when a_f(p)^2 p^(1-k) mod d is a
root of psi_q(X, 1) mod d, so each prime costs one modular power and a
lookup, and psi_q is evaluated at most once per residue mod d.  The hit
frequency is compared against the density with a binomial noise band.
"""

from __future__ import annotations

import json
from collections.abc import Callable
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from math import gcd

from . import factor
from .cyclotomic import eval_poly_mod, psi_poly
from .errors import BudgetExceededError
from .hecke import EigenformSpec, iter_prime_coeffs

DEFAULT_ENUM_BUDGET = 10**8

# Primes where the built-in weight-12 form has a smaller mod-l image
# than the generic determinant-power shape; density targets there do
# not describe the form's actual coefficient statistics.
DELTA_EXCEPTIONAL_PRIMES = frozenset({2, 3, 5, 7, 23, 691})

_CLASS_KEYS = ("central", "nonsemisimple", "splitSemisimple", "nonsplitSemisimple")


@dataclass(frozen=True)
class DensityQuery:
    q: int
    ell: int
    n: int = 1
    weight: int = 12

    def __post_init__(self):
        if self.q < 3 or self.q % 2 == 0 or not factor.is_prime(self.q):
            raise ValueError(f"q must be an odd prime, got {self.q}")
        if not factor.is_prime(self.ell):
            raise ValueError(f"ell must be prime, got {self.ell}")
        if self.n < 1:
            raise ValueError(f"level exponent must be >= 1, got {self.n}")
        if self.weight < 2 or self.weight % 2:
            raise ValueError(f"weight must be an even integer >= 2, got {self.weight}")

    @property
    def modulus(self) -> int:
        return self.ell**self.n


@dataclass
class DensityReport:
    query: DensityQuery
    match_count: int
    group_order: int
    closed_form: Fraction | None
    class_tally: dict[str, int] | None = None
    exceptional: bool = False
    tl_group_order: int | None = None

    @property
    def delta(self) -> Fraction:
        return Fraction(self.match_count, self.group_order)

    @property
    def agrees(self) -> bool | None:
        if self.closed_form is None:
            return None
        return self.delta == self.closed_form

    def to_json_dict(self, empirical: dict | None = None) -> dict:
        frac = self.delta
        out = {
            "query": {
                "q": self.query.q,
                "ell": self.query.ell,
                "n": self.query.n,
                "k": self.query.weight,
            },
            "matchCount": self.match_count,
            "groupOrder": self.group_order,
            "deltaExact": f"{frac.numerator}/{frac.denominator}",
            "closedForm": None
            if self.closed_form is None
            else f"{self.closed_form.numerator}/{self.closed_form.denominator}",
            "agrees": self.agrees,
            "exceptional": self.exceptional,
        }
        if self.tl_group_order is not None and self.tl_group_order != self.group_order:
            out["unitPowerGroupOrderDiffers"] = self.tl_group_order
        if self.class_tally is not None:
            out["classTally"] = dict(self.class_tally)
        if empirical is not None:
            out["empirical"] = empirical
        return out

    def to_json(self, **kw) -> str:
        return json.dumps(self.to_json_dict(**kw), indent=2, sort_keys=True)


def closed_form_density(q: int, ell: int, n: int = 1, weight: int = 12) -> Fraction | None:
    """The exact density when a closed form is known, else None.

    At level 1: (q-1)/(2(l-1)) when l = 1 mod q, (q-1)/(2(l+1)) when
    l = -1 mod q, q/(q^2-1) when l = q, and 0 otherwise.  Levels n >= 2
    scale by 1/l^(n-1) for l != q; powers of q vanish for q >= 5 and
    have no closed form for q = 3.
    """
    if n == 1:
        if ell == q:
            return Fraction(q, q * q - 1)
        r = ell % q
        if r == 1:
            return Fraction(q - 1, 2 * (ell - 1))
        if r == q - 1:
            return Fraction(q - 1, 2 * (ell + 1))
        return Fraction(0)
    if ell == q:
        return Fraction(0) if q >= 5 else None
    base = closed_form_density(q, ell, 1, weight)
    return base / ell ** (n - 1)


def unit_power_subgroup(modulus: int, exponent: int) -> frozenset[int]:
    """The subgroup {x^exponent : x a unit mod modulus}."""
    return frozenset(
        pow(x, exponent, modulus) for x in range(1, modulus) if gcd(x, modulus) == 1
    )


def det_constrained_group_order(ell: int, n: int, weight: int) -> int:
    """Order of {A in GL2(Z/l^n) : det(A) a (k-1)-th power of a unit}.

    Computed as |SL2(Z/l^n)| times the size of the power subgroup of
    the units, phi / gcd(phi, k-1) with phi = l^(n-1)(l-1): for odd l
    the units are cyclic, and for l = 2 the even weight makes k-1 odd,
    so x -> x^(k-1) is a bijection.  For l not dividing k-1 this equals
    the level-1 order (l^2-1)(l^2-l)/gcd(l-1,k-1) scaled by l^(4(n-1)).
    """
    sl2 = ell ** (3 * n - 2) * (ell * ell - 1)
    phi = ell ** (n - 1) * (ell - 1)
    return sl2 * phi // gcd(phi, weight - 1)


def unit_power_group_order(ell: int, n: int, weight: int) -> int:
    """The level-1 closed form scaled by l^(4(n-1))."""
    d = gcd(ell - 1, weight - 1)
    return ell ** (4 * (n - 1)) * (ell * ell - 1) * (ell * ell - ell) // d


def _fiber_class(t: int, det: int, ell: int, n: int):
    """A key on which the fiber size of (t, det) mod l^n depends alone.

    For odd l, a(t-a) - det = D/4 - s^2 with D = t^2 - 4 det and
    s = a - t/2, and s -> u s for a unit u shows that D and u^2 D have
    equal fibers; the unit-square classes of Z/l^n are the valuation
    min(v_l(D), n) and, below n, whether the unit part of D is a square
    mod l (Euler's criterion).  For l = 2 the pair itself is the key.
    """
    if ell == 2:
        return t, det
    m = ell**n
    disc = (t * t - 4 * det) % m
    v = 0
    while v < n and disc % ell == 0:
        disc //= ell
        v += 1
    if v == n:
        return n, 0
    return v, 1 if pow(disc, (ell - 1) // 2, ell) == 1 else -1


def _psi_root_test(q: int, m: int) -> Callable[[int], bool]:
    """r -> whether psi_q(r, 1) = 0 mod m.

    psi_q is homogeneous, so for a unit v mod m, psi_q(u, v) = 0 mod m
    exactly when u / v mod m passes this test.
    """
    psi = psi_poly(q)
    return lambda r: eval_poly_mod(psi, r, 1, m) == 0


def _match_classes(roots: list[int], ell: int, n: int, k: int, steps: int, budget: int) -> dict:
    """Matching (t, det) pairs mod l^n, as {fiber class: [pairs, first t, its det]}.

    Each unit t is visited once, with det = t^2 / r for each root r of
    psi_q(X, 1) mod l^n (a unit: psi_q(0, 1) = +-1).  det is a (k-1)-th
    power exactly when det^e = 1, e = phi / gcd(phi, k-1), that is when
    t^(2e mod phi) = r^e.  Each new class adds its fiber sum's l^n steps
    to ``steps`` through _charge, so at most budget / l^n are kept.
    """
    m = ell**n
    phi = m - m // ell
    e = phi // gcd(phi, k - 1)
    root_terms = [(pow(r, -1, m), pow(r, e, m)) for r in roots]
    classes: dict = {}
    for t in range(m):
        if t % ell == 0:
            continue  # det = t^2 / r is a unit only for a unit t
        t_power = pow(t, 2 * e % phi, m)
        for r_inv, r_power in root_terms:
            if t_power == r_power:
                det = t * t * r_inv % m
                key = _fiber_class(t, det, ell, n)
                if key not in classes:
                    steps = _charge(steps + m, budget, "the fiber sums")
                    classes[key] = [0, t, det]
                classes[key][0] += 1
    return classes


def _bc_solution_table(ell: int, n: int) -> list[int]:
    """count_by_valuation[v] = # of (b, c) mod l^n with bc = e, v = val(e).

    Index n stands for e = 0.  For v < n the count is (v+1) phi(l^n);
    for e = 0 it is n phi(l^n) + l^n.
    """
    m = ell**n
    phi = m - m // ell
    return [(v + 1) * phi for v in range(n)] + [n * phi + m]


def _fiber_count(t: int, det: int, ell: int, n: int, bc_table: list[int]) -> int:
    """# of matrices mod l^n with given trace and determinant."""
    m = ell**n
    total = 0
    for a in range(m):
        e = (a * (t - a) - det) % m
        v = 0
        while v < n and e % ell == 0:
            e //= ell
            v += 1
        total += bc_table[v]
    return total


def _class_tally(ell: int, fibers: list[tuple[int, int]]) -> dict[str, int]:
    """Per-conjugacy-type tally over GL2(F_l) from (pair count, fiber) per class.

    The fiber of (t, det) mod l is l^2 - l + l * #{roots of
    x^2 - tx + det mod l}.  A double root gives l^2: one central matrix
    and l^2 - 1 nonsemisimple ones; two roots give l^2 + l split
    matrices, none gives l^2 - l nonsplit ones.  This holds for l = 2.
    """
    tally = dict.fromkeys(_CLASS_KEYS, 0)
    for count, fiber in fibers:
        if fiber == ell * ell:
            tally["central"] += count
            tally["nonsemisimple"] += count * (fiber - 1)
        elif fiber > ell * ell:
            tally["splitSemisimple"] += count * fiber
        else:
            tally["nonsplitSemisimple"] += count * fiber
    return tally


def _charge(steps: int, budget: int, stage: str) -> int:
    """``steps``, or BudgetExceededError when it is above ``budget``."""
    if steps > budget:
        raise BudgetExceededError(
            f"{stage} would take the count to {steps} steps, over budget {budget}",
            needed=steps, cap=budget,
        )
    return steps


def enumerate_density(query: DensityQuery, budget: int = DEFAULT_ENUM_BUDGET) -> DensityReport:
    """Exhaustive density report for one (q, l^n, k) query.

    One fiber sum per fiber class, times the matching pairs in it; at
    level 1 the fiber sizes also give the class tally.  ``budget``
    caps the steps the count takes: l^n root evaluations, l^n pair
    tests per root, and l^n per fiber sum.  BudgetExceededError is
    raised before a stage, or a fiber class, would take the steps above it.
    """
    q, ell, n, k, m = query.q, query.ell, query.n, query.weight, query.modulus
    steps = _charge(m, budget, "the root search")
    roots = list(filter(_psi_root_test(q, m), range(m)))
    steps = _charge(steps + m * len(roots), budget, "the pair walk")
    classes = _match_classes(roots, ell, n, k, steps, budget)
    bc_table = _bc_solution_table(ell, n)
    fibers = [(c, _fiber_count(t, det, ell, n, bc_table)) for c, t, det in classes.values()]
    return DensityReport(
        query=query,
        match_count=sum(count * fiber for count, fiber in fibers),
        group_order=det_constrained_group_order(ell, n, k),
        closed_form=closed_form_density(q, ell, n, k),
        class_tally=_class_tally(ell, fibers) if n == 1 else None,
        # the exceptional list belongs to the built-in weight-12 form
        exceptional=k == 12 and ell in DELTA_EXCEPTIONAL_PRIMES,
        tl_group_order=unit_power_group_order(ell, n, k),
    )


def enumerate_density_bruteforce(query: DensityQuery) -> int:
    """Four-loop oracle: literally walk all matrices mod l^n (small moduli)."""
    q, k, m = query.q, query.weight, query.modulus
    if m > 128:
        raise BudgetExceededError(f"brute-force oracle capped at modulus 128, got {m}")
    psi = psi_poly(q)
    dets = unit_power_subgroup(m, k - 1)
    count = 0
    for a in range(m):
        for b in range(m):
            for c in range(m):
                for d in range(m):
                    det = (a * d - b * c) % m
                    if det not in dets:
                        continue
                    t = (a + d) % m
                    if eval_poly_mod(psi, t * t % m, det, m) == 0:
                        count += 1
    return count


@dataclass
class LiftReport:
    base: DensityReport
    lifted: DensityReport

    @property
    def ratio(self) -> Fraction | None:
        """delta(l^2) / delta(l), or None when the base density vanishes."""
        if self.base.match_count == 0:
            return None
        return self.lifted.delta / self.base.delta


def lift_factor(
    q: int, ell: int, weight: int = 12, budget: int = DEFAULT_ENUM_BUDGET
) -> LiftReport:
    """Enumerate the density at l and l^2 and report their ratio.

    A vanishing base density yields ratio None (the zero-density
    marker); otherwise the ratio is exact and equals 1/l in the
    verified range.
    """
    base = enumerate_density(DensityQuery(q, ell, 1, weight), budget=budget)
    lifted = enumerate_density(DensityQuery(q, ell, 2, weight), budget=budget)
    return LiftReport(base, lifted)


@dataclass
class ChebotarevSample:
    """Empirical frequency of d | a_f(p^(q-1)) over primes p <= x."""

    f_label: str
    q: int
    d: int
    x_bound: int
    hits: int
    total_primes: int
    zero_excluded: int
    target: Fraction | None
    exceptional: bool

    @property
    def frequency(self) -> float:
        return self.hits / self.total_primes if self.total_primes else 0.0

    @property
    def sigma(self) -> float:
        """Binomial standard deviation of the hit frequency at the target."""
        if self.target is None or self.total_primes == 0:
            return 0.0
        t = float(self.target)
        return (t * (1 - t) / self.total_primes) ** 0.5

    def within_band(self, sigmas: float = 3.0) -> bool | None:
        if self.target is None:
            return None
        return abs(self.frequency - float(self.target)) <= sigmas * self.sigma

    def to_json_dict(self) -> dict:
        return {
            "form": self.f_label,
            "q": self.q,
            "d": self.d,
            "empirical": {
                "x": self.x_bound,
                "hits": self.hits,
                "total": self.total_primes,
                "freq": self.frequency,
                "sigma": self.sigma,
            },
            "zeroExcluded": self.zero_excluded,
            "target": None
            if self.target is None
            else f"{self.target.numerator}/{self.target.denominator}",
            "exceptional": self.exceptional,
        }


def _factor_prime_power(d: int) -> tuple[int, int]:
    ell = min(factor.factorize(d).factors)
    n = 0
    m = d
    while m % ell == 0:
        m //= ell
        n += 1
    if m != 1:
        raise ValueError(f"modulus {d} is not a prime power")
    return ell, n


def chebotarev_sample(
    f: EigenformSpec, q: int, d: int, x_bound: int
) -> ChebotarevSample:
    """Count primes p <= x with d | a_f(p^(q-1)) and the value nonzero.

    a_f(p^(q-1)) = psi_q(a_f(p)^2, p^(k-1)) is never materialized: p^(k-1)
    is a unit mod d, so d divides it exactly when a_f(p)^2 p^(1-k) mod d
    is a root of psi_q(X, 1) mod d, and each residue is tested once.

    The value is never zero, so ``zero_excluded`` is always 0 (the JSON
    key stays for a stable schema).  a(p^m) = U_(m+1)(a_p, p^(k-1)) is a
    Lucas term, zero only when the ratio of the Frobenius roots is a
    root of unity of order r dividing m + 1, with r in {2, 3, 4, 6}.
    For even k, p^(k-1) is not a square, so r = 3 is impossible and r
    is even; m + 1 = q is odd, so no such r divides it.
    """
    if x_bound < 10**3:
        raise ValueError(f"x bound must be at least 1000, got {x_bound}")
    ell, n = _factor_prime_power(d)
    DensityQuery(q, ell, n, f.weight)  # validates q and ell
    is_root = cache(_psi_root_test(q, d))  # residues mod d repeat across primes
    target = closed_form_density(q, ell, n, f.weight)
    k = f.weight
    hits = 0
    total = 0
    for p, ap in iter_prime_coeffs(f, x_bound):
        if d % p == 0:
            continue
        total += 1
        if is_root(ap * ap * pow(p, 1 - k, d) % d):
            hits += 1
    return ChebotarevSample(
        f_label=f.label or ("builtin" if f.is_builtin else "table"),
        q=q,
        d=d,
        x_bound=x_bound,
        hits=hits,
        total_primes=total,
        zero_excluded=0,
        target=target,
        exceptional=f.is_builtin and ell in DELTA_EXCEPTIONAL_PRIMES,
    )


def psi_insoluble_mod_q_squared(q: int) -> bool:
    """True when psi_q(u, v) = 0 mod q^2 has no solution with gcd(u, v, q) = 1.

    Exhaustive over (u, v) mod q^2; this is what forces the density to
    vanish at every power of q for q >= 5.
    """
    psi = psi_poly(q)
    m = q * q
    for u in range(m):
        for v in range(m):
            if u % q == 0 and v % q == 0:
                continue
            if eval_poly_mod(psi, u, v, m) == 0:
                return False
    return True
