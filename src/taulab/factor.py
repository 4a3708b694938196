"""Integer factorization and primality plumbing.

``factorize`` is two stages.  The trial stage (``trial_factor``) strips
the primes up to a bound by trial division against a cached sieve and
runs no primality test.  It takes the sieve's primes in blocks of 64
and tests each block with one gcd against the block's product, cached
beside the sieve (the batch-gcd idea of Bernstein's product trees);
only a block that shares a factor with the value is divided prime by
prime.  The split stage (``split_cofactor``) splits what is left by a
primality test, perfect-power roots and Brent-cycle Pollard rho,
certifying every reported prime with Miller-Rabin.  Both stages take
explicit budgets; when a composite cofactor survives them the result is
a partial factorization that still knows a lower bound on any prime
hiding in the cofactor.

Rho runs on Python ints and is deterministic: the polynomial constant
and starting point are derived from the input and the attempt counter,
never from a global RNG, so results are identical across runs and
worker layouts.
"""

from __future__ import annotations

import itertools
import math
import threading
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field

DEFAULT_TRIAL_BOUND = 10**6
DEFAULT_RHO_BUDGET = 10**8

# psi_k, the smallest strong pseudoprime to all of the first k prime
# bases (OEIS A014233): Miller-Rabin on the first k primes is
# deterministic below psi_k.  Each pair is (psi_k, k); psi_8 = psi_7 and
# psi_10 = psi_11 = psi_9, so those k are skipped.  The last limit,
# psi_13 = 3.3e24 (bases up to 41), ends the deterministic range.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_DETERMINISTIC_LIMIT = 3317044064679887385961981
_MR_PSI_TABLE = (
    (2047, 1),
    (1373653, 2),
    (25326001, 3),
    (3215031751, 4),
    (2152302898747, 5),
    (3474749660383, 6),
    (341550071728321, 7),
    (3825123056546413051, 9),
    (318665857834031151167461, 12),
    (_MR_DETERMINISTIC_LIMIT, 13),
)
# 30 fixed bases above the deterministic range
_MR_PROBABLE_BASES = _MR_BASES + (
    43, 47, 53, 59, 61, 67, 71, 73, 79, 83, 89, 97, 101, 103, 107, 109, 113
)

# Trial division tests this many consecutive sieve primes with one gcd.
_BLOCK = 64

_sieve_lock = threading.Lock()
_sieve_limit = 0
_sieve_primes: list[int] = []
# _block_products[b] is the product of _sieve_primes[_BLOCK*b : _BLOCK*(b+1)];
# only full blocks are cached, and the list only ever grows.
_block_products: list[int] = []


def primes_up_to(n: int) -> list[int]:
    """Ascending primes <= n, served from a grow-only cached sieve."""
    global _sieve_limit, _sieve_primes
    if n > _sieve_limit:
        with _sieve_lock:
            if n > _sieve_limit:
                limit = max(n, 2 * _sieve_limit, 1 << 10)
                flags = bytearray([1]) * (limit + 1)
                flags[0:2] = b"\x00\x00"
                for i in range(2, math.isqrt(limit) + 1):
                    if flags[i]:
                        flags[i * i :: i] = bytes((limit - i * i) // i + 1)
                primes = list(itertools.compress(range(limit + 1), flags))
                # extend the products before publishing the list and the
                # limit, so a reader that sees the new limit finds them cached
                for b in range(len(_block_products), len(primes) // _BLOCK):
                    _block_products.append(math.prod(primes[_BLOCK * b : _BLOCK * (b + 1)]))
                _sieve_primes = primes
                _sieve_limit = limit
    return _sieve_primes[: bisect_right(_sieve_primes, n)]


def _trial_divide(n: int, bound: int, factors: dict[int, int]) -> int:
    """Divide the sieve primes <= bound out of n; return what is left.

    Primes are tested a block at a time: one gcd of n against the block's
    product, and only a block with a common factor is walked prime by
    prime.  The walk ends at the first block whose smallest prime p has
    p * p above the remaining n, which is then 1 or a prime (the caller's
    survivor rule takes it).  Found primes go into ``factors`` in
    ascending order with full exponents.
    """
    if bound > _sieve_limit:
        primes_up_to(bound)
    # read the list after the limit (see is_prime); a growth racing this call
    # only appends the products of later blocks, and no walk passes the bound
    primes = _sieve_primes
    products = _block_products
    count = bisect_right(primes, bound)
    for start in range(0, count, _BLOCK):
        p = primes[start]
        if p * p > n:
            break
        b = start // _BLOCK
        # a block cut by the bound still takes its cached full product: the
        # walk below stops at the bound, so primes above it stay in n
        if b < len(products):
            g = math.gcd(n, products[b])
        else:
            g = math.gcd(n, math.prod(primes[start:count]))
        if g == 1:
            continue
        # every prime of g at or below the bound lies in this slice
        for p in primes[start : min(start + _BLOCK, count)]:
            if g % p == 0:
                e = 0
                while n % p == 0:
                    n //= p
                    e += 1
                factors[p] = e
                g //= p
                if g == 1:
                    break
    return n


def is_prime(n: int) -> bool:
    """Exact below 3.3e24: a sieve lookup, else Miller-Rabin on few bases.

    Up to the limit of the cached sieve (grown only by `primes_up_to`)
    the answer is a bisection of the sieve's primes.  Above it,
    Miller-Rabin uses the first k prime bases for the smallest k with
    n < psi_k (one base below 2047, two below 1373653, ..., nine below
    3.8e18, twelve below 3.2e23, thirteen below 3.3e24), which is
    deterministic.  Above 3.3e24 it is a strong probable-prime test on
    30 fixed bases, with error below 4^-30 and reproducible.
    """
    if n < 2:
        return False
    # primes_up_to publishes the list before the limit, so the list read
    # after the limit covers it even while another thread grows the sieve
    if n <= _sieve_limit:
        primes = _sieve_primes
        i = bisect_left(primes, n)
        return i < len(primes) and primes[i] == n
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    bases = _MR_PROBABLE_BASES
    for psi, k in _MR_PSI_TABLE:
        if n < psi:
            bases = _MR_BASES[:k]
            break
    for a in bases:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _brent_rho(n: int, attempt: int, budget: int) -> tuple[int | None, int]:
    """One Brent-cycle rho run on odd composite n.

    Returns (factor or None, iterations spent).  Start point and
    constant are derived from (n, attempt) for reproducibility.
    """
    c = 1 + (n + attempt * 2654435761) % (n - 3)
    y = 2 + attempt
    m = 128
    g = 1
    r = 1
    q = 1
    spent = 0
    x = y
    ys = y
    while g == 1 and spent < budget:
        x = y
        for _ in range(r):
            y = (y * y + c) % n
        spent += r
        k = 0
        while k < r and g == 1:
            ys = y
            steps = min(m, r - k)
            for _ in range(steps):
                y = (y * y + c) % n
                q = q * abs(x - y) % n
            spent += steps
            g = math.gcd(q, n)
            k += m
        r <<= 1
    if g == n:
        # batch gcd collapsed; replay one step at a time
        g = 1
        while g == 1:
            ys = (ys * ys + c) % n
            g = math.gcd(abs(x - ys), n)
    if 1 < g < n:
        return g, spent
    return None, spent


def _iroot(n: int, k: int) -> int:
    """Floor of the k-th root, exact for arbitrary size."""
    if k == 2:
        return math.isqrt(n)
    lo, hi = 1, 1 << (n.bit_length() // k + 2)
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if mid**k <= n:
            lo = mid
        else:
            hi = mid - 1
    return lo


def _perfect_root(n: int) -> tuple[int, int] | None:
    """(r, k) with r^k == n for k in {2, 3}, if such a root exists."""
    for k in (2, 3):
        r = _iroot(n, k)
        if r > 1 and r**k == n:
            return r, k
    return None


@dataclass
class Factorization:
    """sign * product(p^e) * cofactor == the input, exactly.

    ``cofactor`` is 1 for a complete factorization; otherwise all of its
    prime factors exceed ``cofactor_floor``.  After the trial stage the
    cofactor may still be prime; after the split stage it is a certified
    composite.
    """

    sign: int
    factors: dict[int, int] = field(default_factory=dict)
    cofactor: int = 1
    cofactor_floor: int = 1

    @property
    def is_complete(self) -> bool:
        return self.cofactor == 1

    def value(self) -> int:
        v = self.sign
        for p, e in self.factors.items():
            v *= p**e
        return v * self.cofactor

    def largest_known_prime(self) -> int:
        return max(self.factors, default=1)


def trial_factor(n: int, bound: int) -> Factorization:
    """The trial stage: divide the primes <= bound out of n.

    Trial division runs over the primes up to min(bound, isqrt(n) + 1) a
    block of 64 at a time: one gcd with the block's product decides
    whether any of them divides n, and the walk stops at the first block
    whose smallest prime squared exceeds what is left of n.  A survivor
    at most bound^2 is then prime; anything else left over becomes the
    cofactor, whose primes all exceed ``cofactor_floor = bound``.  No
    primality test runs.  A bound of 0 tries no prime.
    """
    if bound < 0:
        raise ValueError(f"trial bound must be >= 0, got {bound}")
    if n == 0:
        return Factorization(sign=0)
    result = Factorization(sign=1 if n > 0 else -1)
    n = abs(n)
    if n == 1:
        return result
    n = _trial_divide(n, min(bound, math.isqrt(n) + 1), result.factors)
    if 1 < n <= bound * bound:
        # a survivor of trial division at most bound^2 must be prime
        result.factors[n] = result.factors.get(n, 0) + 1
    elif n > 1:
        result.cofactor, result.cofactor_floor = n, bound
    return result


def split_cofactor(fac: Factorization, rho_budget: int) -> Factorization:
    """The split stage: split the cofactor of ``fac`` into primes, in place.

    Each pending piece gets one primality test, then a perfect square or
    cube root, then Brent rho with a budget of ``rho_budget`` iterations.
    A budget of 0 skips rho: the primality test and the perfect-power
    split still run.  Pieces that resist stay in the cofactor, which is
    then a certified composite whose primes exceed ``cofactor_floor``.
    Returns ``fac``.

    ``rho_budget`` is checked between Brent's doubling rounds, not
    inside them: a round of length r costs 2r iterations and starts
    whenever fewer than ``rho_budget`` have been spent, so one run can
    spend up to 2 * rho_budget + 2 iterations (524286 against 300000).
    """
    if rho_budget < 0:
        raise ValueError(f"rho budget must be >= 0, got {rho_budget}")
    if fac.is_complete:
        return fac
    # a stack of pending cofactors, budget accounted per cofactor
    pending = [fac.cofactor]
    fac.cofactor = 1
    while pending:
        m = pending.pop()
        if is_prime(m):
            fac.factors[m] = fac.factors.get(m, 0) + 1
            continue
        root = _perfect_root(m)
        if root is not None:
            r, k = root
            pending.extend([r] * k)
            continue
        budget = rho_budget
        found = None
        attempt = 0
        while budget > 0 and found is None:
            found, spent = _brent_rho(m, attempt, budget)
            budget -= max(spent, 1)
            attempt += 1
        if found is None:
            fac.cofactor *= m
            continue
        pending.append(found)
        pending.append(m // found)
    if fac.is_complete:
        fac.cofactor_floor = 1
    return fac


def factorize(
    n: int,
    trial_bound: int = DEFAULT_TRIAL_BOUND,
    rho_budget: int = DEFAULT_RHO_BUDGET,
) -> Factorization:
    """Factor n: the trial stage to ``trial_bound``, then the split stage.

    The result is complete when the budgets allow and partial otherwise;
    check ``is_complete``.  0 and +-1 factor into nothing, so their
    largest known prime reads as 1.  A negative ``rho_budget`` raises
    ValueError, as a trial bound below 1 does.
    """
    if trial_bound < 1:
        raise ValueError(f"trial bound must be >= 1, got {trial_bound}")
    return split_cofactor(trial_factor(n, trial_bound), rho_budget)
