"""Trace-zero densities over GL2 of finite rings and their empirical check.

The central count: matrices A over Z/l^n Z whose determinant is a
(k-1)-th power of a unit and whose trace and determinant satisfy
psi_q(tr(A)^2, det(A)) = 0 mod l^n.  The density is that count divided
by the order of the full determinant-constrained group.  Closed forms
exist at n = 1 (split by l mod q) and lift by a factor 1/l per level
for l != q.

The count is a sum over the roots r of psi_q(X, 1) mod l^n, and it
never visits a trace, a determinant or a matrix entry.  psi_q is
homogeneous and every allowed det is a unit, so psi_q(t^2, det) = 0
mod l^n exactly when t^2 / det is such a root; each root is a unit
(psi_q(0, 1) = +-1), so the matching pairs are (t, t^2 / r) for units
t.  The roots are found mod l by l evaluations and lifted one level at
a time by trying the l candidates above each.  For one root, the t
whose det t^2 / r is a (k-1)-th power number phi / gcd(phi, k-1), and
every such t has the same fiber, the number of matrices with that trace
and determinant, which has a closed form in the square roots of
1 - 4 / r mod l^j.  At n = 1 the fiber of (t, det) is
l^2 - l + l * #{roots of x^2 - tx + det mod l}, so the per-root fibers
also give the conjugacy-type class tally.

Empirical side: walk primes p <= x and test whether d divides
a_f(p^(q-1)) = psi_q(a_f(p)^2, p^(k-1)).  By the same homogeneity, for
p not dividing d that holds exactly when a_f(p)^2 p^(1-k) mod d is a
root of psi_q(X, 1) mod d: one modular power per class of (a_f(p), p)
mod d, and psi_q evaluated at most once per residue mod d.  The hit
frequency is compared against the density with a binomial noise band.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from math import gcd
from typing import ClassVar, Iterator

from . import factor
from .cyclotomic import eval_poly_mod, psi_poly
from .errors import BudgetExceededError
from .hecke import EigenformSpec, prime_coeffs

DEFAULT_ENUM_BUDGET = 10**8

# Primes where the built-in weight-12 form has a smaller mod-l image
# than the generic determinant-power shape; density targets there do
# not describe the form's actual coefficient statistics.
DELTA_EXCEPTIONAL_PRIMES = frozenset({2, 3, 5, 7, 23, 691})

_CLASS_KEYS = ("central", "nonsemisimple", "splitSemisimple", "nonsplitSemisimple")


def _check_q(q: int) -> None:
    if q < 3 or q % 2 == 0 or not factor.is_prime(q):
        raise ValueError(f"q must be an odd prime, got {q}")


@dataclass(frozen=True)
class DensityQuery:
    q: int
    ell: int
    n: int = 1
    weight: int = 12

    def __post_init__(self):
        _check_q(self.q)
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

    def to_json_dict(self) -> dict:
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
        return out

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2, sort_keys=True)


def closed_form_density(q: int, ell: int, n: int = 1) -> Fraction | None:
    """The exact density when a closed form is known, else None.

    psi_q(X, 1) has phi(q)/2 roots over the algebraic closure, and for
    l not dividing q they lie in F_l exactly when l = +-1 mod q.  At
    level 1 that gives phi(q)/(2(l-1)) when l = 1 mod q, phi(q)/(2(l+1))
    when l = -1 mod q, and 0 otherwise; for prime q, l = q gives
    q/(q^2-1).  Levels n >= 2 scale by 1/l^(n-1) for l not dividing q;
    powers of a prime q vanish for q >= 5 and have no closed form for
    q = 3.  For composite q no closed form is known at l | q.

    The density does not depend on the weight k: the match count and the
    group order both carry the factor e = phi / gcd(phi, k-1) of the
    allowed determinants, phi = l^(n-1)(l-1), which cancels.
    """
    if q % ell == 0 and ell != q:
        return None
    if n == 1:
        if ell == q:
            return Fraction(q, q * q - 1)
        phi = sum(1 for i in range(1, q) if gcd(i, q) == 1)
        r = ell % q
        if r == 1:
            return Fraction(phi, 2 * (ell - 1))
        if r == q - 1:
            return Fraction(phi, 2 * (ell + 1))
        return Fraction(0)
    if ell == q:
        return Fraction(0) if q >= 5 else None
    base = closed_form_density(q, ell, 1)
    return base / ell ** (n - 1)


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


def _words(ell: int, lo: int, hi: int) -> int:
    """64-bit words summed over the moduli l^lo, ..., l^hi.

    l^i is taken as 1 + i // per words, with per = 64 // bitlen(l) the
    powers of l that fit in one word: an upper bound on its size for
    l < 2^64.
    """
    per = max(1, 64 // ell.bit_length())

    def below(top: int) -> int:  # sum of i // per over 0 <= i < top
        full = top // per
        return per * full * (full - 1) // 2 + full * (top - full * per)

    return hi - lo + 1 + below(hi + 1) - below(lo)


def _root_levels(q: int, ell: int, n: int, budget: int) -> Iterator[list[int]]:
    """The roots of psi_q(X, 1) mod l, l^2, ..., l^n, one list per level.

    The roots mod l come from l evaluations; each root mod l^j is then
    lifted by evaluating its l candidates r + i l^j mod l^(j+1), which
    holds for repeated roots too, since every root mod l^(j+1) reduces
    to one mod l^j.  Each evaluation is charged the words of its modulus
    (see ``_words``).  Before each level the levels left are charged in
    full at the roots found so far, so a count whose numbers would
    outgrow ``budget`` stops before it works with them.  The first
    check charges the search mod l alone, whatever n is, so a search to
    l^2 makes the checks of the count at l and of the count at l^2.
    """
    psi = psi_poly(q)
    spent = 0
    roots, m = [0], 1  # the one root mod l^0
    for j in range(1, n + 1):
        last = n if j > 1 else 1  # how many roots mod l carry on is unknown before the search
        needed = spent + ell * len(roots) * _words(ell, j, last)
        if needed > budget:
            stage = (f"the root search mod {ell}" if j == 1
                     else f"lifting {len(roots)} roots from level {j - 1} to {n}")
            raise BudgetExceededError(
                f"{stage} would take the count to {needed} word-weighted "
                f"evaluations of psi_q(X, 1), over budget {budget}",
                needed=needed, cap=budget,
            )
        spent += ell * len(roots) * _words(ell, j, j)
        step, m = m, m * ell
        roots = [x for r in roots for x in range(r, m, step) if eval_poly_mod(psi, x, 1, m) == 0]
        yield roots


def _fiber(r: int, ell: int, n: int) -> int:
    """# of matrices mod l^n with trace t and determinant t^2 / r, for any unit t.

    For each a the matrices [[a, b], [c, t - a]] need bc = a(t - a) - det,
    which has (v + 1) phi solutions at valuation v < n and n phi + l^n at
    0.  Summing over a, with N_j the a for which l^j divides
    a(t - a) - det, telescopes to phi (N_0 + ... + N_(n-1)) + l^n N_n.
    For odd l, a(t - a) - det = (t^2 / 4)(c - s^2) with c = 1 - 4 / r and
    s = (2a - t) / t running over every residue with a, so
    N_j = l^(n-j) S_j with S_j = #{s mod l^j : s^2 = c}, whatever t is.
    With v the valuation of c mod l^n, S_j = l^(j // 2) for j <= v and is
    then constant: 2 l^(v // 2) when v is even and c / l^v is a square
    mod l (Euler's criterion), else 0.  So one Horner pass over j sums
    it in O(n) steps on numbers below l^n.  For l = 2, t is odd, so
    a(t - a) is even and det odd: N_j = 0 for j >= 1.
    """
    m = ell**n
    phi = m - m // ell
    if ell == 2:
        return phi * m
    c = (1 - 4 * pow(r, -1, m)) % m
    v, unit = 0, c
    while v < n and unit % ell == 0:
        unit //= ell
        v += 1
    square = v < n and v % 2 == 0 and pow(unit, (ell - 1) // 2, ell) == 1
    far = 2 * ell ** (v // 2) if square else 0  # S_j for j > v
    acc, near = 0, 1  # sum of l^(j-1-i) S_i over i < j; l^(j // 2)
    for j in range(n):
        acc = acc * ell + (near if j <= v else far)
        if j % 2 and j < v:
            near *= ell
    return phi * ell * acc + m * (near if n <= v else far)


def _class_tally(ell: int, fibers: list[tuple[int, int]]) -> dict[str, int]:
    """Per-conjugacy-type tally over GL2(F_l) from (pair count, fiber) per root.

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


def enumerate_density(query: DensityQuery, budget: int = DEFAULT_ENUM_BUDGET) -> DensityReport:
    """Exact density report for one (q, l^n, k) query.

    A sum over the roots r of psi_q(X, 1) mod l^n of the matching
    traces t times their common fiber.  The (k-1)-th powers form a
    subgroup H of the units of index gcd(phi, k-1), which is odd since
    k is even, so squaring permutes the cosets of H and the units t with
    t^2 / r in H make up one coset: e = phi / gcd(phi, k-1) of them for
    every root.  At level 1 the fibers also give the class tally.
    ``budget`` caps the evaluations of psi_q(X, 1), each weighted by the
    64-bit words of its modulus: l for the roots mod l and l per root
    carried to each next level (``_root_levels``).  The fibers take O(n)
    steps per root on numbers below l^n, within a constant of the words
    charged to lift that root, so they are not charged apart.
    """
    for roots in _root_levels(query.q, query.ell, query.n, budget):
        pass  # only the last level counts; the search refuses counts too large to start
    return _report(query, roots)


def _report(query: DensityQuery, roots: list[int]) -> DensityReport:
    """The density report of ``query`` from the roots of psi_q(X, 1) mod l^n."""
    q, ell, n, k = query.q, query.ell, query.n, query.weight
    m = query.modulus
    phi = m - m // ell
    e = phi // gcd(phi, k - 1)
    fibers = [(e, _fiber(r, ell, n)) for r in roots]
    return DensityReport(
        query=query,
        match_count=sum(count * fiber for count, fiber in fibers),
        group_order=det_constrained_group_order(ell, n, k),
        closed_form=closed_form_density(q, ell, n),
        class_tally=_class_tally(ell, fibers) if n == 1 else None,
        # the exceptional list belongs to the built-in weight-12 form
        exceptional=k == 12 and ell in DELTA_EXCEPTIONAL_PRIMES,
        tl_group_order=unit_power_group_order(ell, n, k),
    )


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
    """The density at l and at l^2 and their ratio, from one root search.

    The search to l^2 passes the roots mod l on the way and makes the
    budget checks of both counts, so the report and any budget error
    are those of ``enumerate_density`` at n = 1 and then n = 2.  A
    vanishing base density yields ratio None (the zero-density marker);
    otherwise the ratio is exact and equals 1/l in the verified range.
    """
    base, lifted = DensityQuery(q, ell, 1, weight), DensityQuery(q, ell, 2, weight)
    levels = _root_levels(q, ell, 2, budget)
    return LiftReport(_report(base, next(levels)), _report(lifted, next(levels)))


@dataclass
class ChebotarevSample:
    """Empirical frequency of d | a_f(p^(q-1)) over primes p <= x."""

    f_label: str
    q: int
    d: int
    x_bound: int
    hits: int
    total_primes: int
    zero_excluded: ClassVar[int] = 0  # a(p^(q-1)) never vanishes: see ``chebotarev_sample``
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
    """(ell, n) with ell prime and ell^n = d, found by integer roots without factoring.

    For the largest k with d an exact k-th power r^k, d is a prime power
    exactly when r is prime, so one ``factor.is_prime`` call decides it:
    the test ``factorize`` certifies its primes with.
    """
    if d >= 2:
        for k in range(d.bit_length(), 0, -1):
            r = factor._iroot(d, k)
            if r**k == d:
                if factor.is_prime(r):
                    return r, k
                break
    raise ValueError(f"modulus {d} is not a prime power")


def chebotarev_sample(
    f: EigenformSpec, q: int, d: int, x_bound: int
) -> ChebotarevSample:
    """Count primes p <= x with d | a_f(p^(q-1)) and the value nonzero.

    a_f(p^(q-1)) = psi_q(a_f(p)^2, p^(k-1)) is never materialized: p^(k-1)
    is a unit mod d, so d divides it exactly when a_f(p)^2 p^(1-k) mod d
    is a root of psi_q(X, 1) mod d.  That depends only on the class of
    (a_f(p), p) mod d, so the primes are counted per class, keyed by the
    int (a_f(p) mod d) d + (p mod d), and each class is tested once.

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
    _check_q(q)  # ell is proven prime above, and the form has checked its weight
    psi = psi_poly(q)
    is_root = cache(lambda r: eval_poly_mod(psi, r, 1, d) == 0)  # residues repeat across classes
    target = closed_form_density(q, ell, n)
    classes = Counter(ap % d * d + p % d for p, ap in zip(*prime_coeffs(f, x_bound)))
    hits = total = 0
    for key, count in classes.items():
        a, r = divmod(key, d)
        if r % ell == 0:  # p = ell, whose residue is ell itself when n >= 2
            continue
        total += count
        if is_root(a * a * pow(r, 1 - f.weight, d) % d):
            hits += count
    return ChebotarevSample(
        f_label=f.label or ("builtin" if f.is_builtin else "table"),
        q=q,
        d=d,
        x_bound=x_bound,
        hits=hits,
        total_primes=total,
        target=target,
        exceptional=f.is_builtin and ell in DELTA_EXCEPTIONAL_PRIMES,
    )
