"""Integer factorization and primality plumbing.

Strategy per value: strip small primes by trial division against a
cached sieve, then split the remaining cofactor with Brent-cycle
Pollard rho, certifying every reported prime with Miller-Rabin.  Both
stages take explicit budgets; when a composite cofactor survives them
the result is returned (or raised) as a partial factorization that
still knows a lower bound on any prime hiding in the cofactor.

Rho runs are deterministic: the polynomial constant and starting point
are derived from the input and the attempt counter, never from a
global RNG, so results are identical across runs and worker layouts.
"""

from __future__ import annotations

import math
import threading
from bisect import bisect_right
from dataclasses import dataclass, field

from .errors import PartialFactorizationError

try:
    from gmpy2 import gcd as _gcd
    from gmpy2 import mpz
except ImportError:  # gmpy2 is optional (the "gmpy" extra); rho then runs on Python ints
    from math import gcd as _gcd

    mpz = int

DEFAULT_TRIAL_BOUND = 10**6
DEFAULT_RHO_BUDGET = 10**8

# Smallest composite that fools Miller-Rabin on the first 12 prime bases
# is above 3.3e24, so the test is deterministic below that.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_MR_DETERMINISTIC_LIMIT = 3317044064679887385961981
_MR_EXTRA_BASES = tuple(
    p for p in (41, 43, 47, 53, 59, 61, 67, 71, 73, 79, 83, 89, 97, 101, 103, 107, 109, 113)
)

_sieve_lock = threading.Lock()
_sieve_limit = 0
_sieve_primes: list[int] = []


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
                        flags[i * i :: i] = bytearray(len(flags[i * i :: i]))
                _sieve_primes = [i for i in range(limit + 1) if flags[i]]
                _sieve_limit = limit
    return _sieve_primes[: bisect_right(_sieve_primes, n)]


def is_prime(n: int) -> bool:
    """Miller-Rabin: deterministic below 3.3e24, fixed 30 bases above.

    Above the deterministic range this is a strong probable-prime test
    with error below 4^-30, reproducible because the bases are fixed.
    """
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    bases = _MR_BASES if n < _MR_DETERMINISTIC_LIMIT else _MR_BASES + _MR_EXTRA_BASES
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
    n = mpz(n)
    c = mpz(1 + (int(n) + attempt * 2654435761) % (int(n) - 3))
    y = mpz(2 + attempt)
    m = 128
    g = mpz(1)
    r = 1
    q = mpz(1)
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
            g = _gcd(q, n)
            k += m
        r <<= 1
    if g == n:
        # batch gcd collapsed; replay one step at a time
        g = mpz(1)
        while g == 1:
            ys = (ys * ys + c) % n
            g = _gcd(abs(x - ys), n)
    g = int(g)
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

    ``cofactor`` is 1 for a complete factorization; otherwise it is a
    certified composite all of whose prime factors exceed
    ``cofactor_floor``.
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

    def largest_prime(self) -> int:
        if not self.is_complete:
            raise PartialFactorizationError(self)
        return self.largest_known_prime()


def factorize(
    n: int,
    trial_bound: int = DEFAULT_TRIAL_BOUND,
    rho_budget: int = DEFAULT_RHO_BUDGET,
    allow_partial: bool = False,
) -> Factorization:
    """Factor n completely, or raise carrying the partial result.

    Largest-prime conventions: 0 and +-1 factor into nothing, so their
    largest prime factor reads as 1.
    """
    if n == 0:
        return Factorization(sign=0)
    sign = 1 if n > 0 else -1
    n = abs(n)
    result = Factorization(sign=sign)
    if n == 1:
        return result

    for p in primes_up_to(min(trial_bound, math.isqrt(n) + 1)):
        if p * p > n:
            break
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            result.factors[p] = e
    if 1 < n <= trial_bound * trial_bound:
        # survivor of trial division below bound^2 must be prime
        result.factors[n] = result.factors.get(n, 0) + 1
        n = 1
    if n == 1:
        return result

    # rho stage: stack of pending cofactors, budget accounted per cofactor
    pending = [n]
    while pending:
        m = pending.pop()
        if is_prime(m):
            result.factors[m] = result.factors.get(m, 0) + 1
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
            result.cofactor *= m
            continue
        pending.append(found)
        pending.append(m // found)

    if result.cofactor != 1:
        result.cofactor_floor = trial_bound
        if not allow_partial:
            raise PartialFactorizationError(result)
    return result


def largest_prime_factor(
    n: int,
    trial_bound: int = DEFAULT_TRIAL_BOUND,
    rho_budget: int = DEFAULT_RHO_BUDGET,
) -> int:
    """P(n): the largest prime dividing n, with P(0) = P(+-1) = 1."""
    return factorize(n, trial_bound, rho_budget).largest_prime()
