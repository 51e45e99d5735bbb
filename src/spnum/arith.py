"""Exact integer primitives: one prime sieve, primality, factorization,
integer roots.

Everything here works on arbitrary-precision Python ints and never goes
through floating point, so floor/exactness guarantees hold at any size.
The one sieve is a bytearray of prime flags: the trial-division primes are
read off it directly, and `sieve_primes` hands it to numpy, imported on
that call only, so classification, factorization and Pell solving answer
without loading numpy.
"""

from __future__ import annotations

import random
from math import gcd, isqrt
from typing import TYPE_CHECKING, Iterator, NamedTuple

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "Factorization",
    "sieve_primes",
    "is_prime",
    "factorize",
    "ikroot",
]


def _sieve(limit: int) -> bytearray:
    """Prime flags of 0..limit for limit >= 2: byte n is 1 iff n is prime."""
    sieve = bytearray([1]) * (limit + 1)
    sieve[:2] = b"\0\0"
    for p in range(2, isqrt(limit) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytes((limit - p * p) // p + 1)
    return sieve


def sieve_primes(limit: int) -> np.ndarray:
    """All primes <= limit as an int64 array, read off `_sieve`."""
    import numpy as np

    if limit < 2:
        return np.zeros(0, dtype=np.int64)
    return np.flatnonzero(np.frombuffer(_sieve(limit), dtype=bool))

# Deterministic Miller-Rabin witness tiers.  Each entry (bound, bases) is a
# published exhaustively-verified result: testing against `bases` is exact for
# all n < bound, and each tier takes the least known base set for its range.
# Sources: Pomerance-Selfridge-Wagstaff 1980 (2047, 1373653); Jaeschke 1993,
# Math. Comp. 61 (4759123141, 1122004669633, 3474749660383, 341550071728321);
# Jiang-Deng 2014, Math. Comp. 83 (3825123056546413051); Sorenson-Webster
# 2017, Math. Comp. 86 (the last two).  Every base is below the bound of the
# tier before it, so below every n its tier sees.  The last tier covers
# everything below ~3.3e24, far past 2^64.
_MR_TIERS: list[tuple[int, tuple[int, ...]]] = [
    (2_047, (2,)),
    (1_373_653, (2, 3)),
    (4_759_123_141, (2, 7, 61)),
    (1_122_004_669_633, (2, 13, 23, 1662803)),
    (3_474_749_660_383, (2, 3, 5, 7, 11, 13)),
    (341_550_071_728_321, (2, 3, 5, 7, 11, 13, 17)),
    (3_825_123_056_546_413_051, (2, 3, 5, 7, 11, 13, 17, 19, 23)),
    (318_665_857_834_031_151_167_461, (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)),
    (3_317_044_064_679_887_385_961_981, (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)),
]
DETERMINISTIC_PRIME_BOUND = _MR_TIERS[-1][0]

# Rounds of random-base Miller-Rabin above the deterministic bound.  Each
# round has error probability < 1/4, so 64 rounds keep the per-call error
# below 4^-64 = 2^-128.
_MR_RANDOM_ROUNDS = 64


def _mr_witness(n: int, a: int, d: int, s: int) -> bool:
    """True if a witnesses compositeness of n = d*2^s + 1, d odd."""
    x = pow(a, d, n)
    if x == 1 or x == n - 1:
        return False
    for _ in range(s - 1):
        x = x * x % n
        if x == n - 1:
            return False
    return True


def is_prime(n: int) -> bool:
    """Primality test, exact for all n below ``DETERMINISTIC_PRIME_BOUND``.

    Below the bound (~3.3e24 > 2^64) this is a deterministic strong
    pseudoprime test with published witness sets.  Above it, 64 rounds of
    random-base Miller-Rabin give error probability below 2^-128 per call.
    """
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for bound, bases in _MR_TIERS:
        if n < bound:
            return not any(_mr_witness(n, a, d, s) for a in bases)
    rng = random.Random(n)
    for _ in range(_MR_RANDOM_ROUNDS):
        a = rng.randrange(2, n - 1)
        if _mr_witness(n, a, d, s):
            return False
    return True


_TRIAL_PRIMES = [p for p, flag in enumerate(_sieve(999)) if flag]


class Factorization(NamedTuple):
    """Canonical factorization: strictly increasing primes with exponents."""

    value: int
    factors: tuple[tuple[int, int], ...]

    def as_dict(self) -> dict[int, int]:
        return dict(self.factors)

    def recombine(self) -> int:
        out = 1
        for p, e in self.factors:
            out *= p**e
        return out


def _rho_split(n: int) -> int:
    """A nontrivial factor of odd composite n, by Brent's cycle method."""
    if n % 2 == 0:
        return 2
    for c in range(1, 100):
        y, m, g, r, q = 2, 128, 1, 1, 1
        x = ys = y
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(m, r - k)):
                    y = (y * y + c) % n
                    q = q * (x - y) % n  # ±(q·|x - y|) mod n: the same gcd with n
                g = gcd(q, n)
                k += m
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = gcd(x - ys, n)
        if g != n:
            return g
    raise ArithmeticError(f"rho failed to split {n}")  # pragma: no cover


def _prime_divisors(n: int) -> Iterator[tuple[int, int]]:
    """The factoring loop of n > 1: yields (p, e) for each prime power p^e
    exactly dividing n as soon as p is proven, so that a caller needing
    only part of the factorization can stop early.

    Trial division by the primes below 1000 comes first, so every cofactor
    of the loop after it has only prime factors above 1000.
    Each cofactor first loses every prime already found; a perfect square
    is replaced by its root; a composite is set aside, and rho splits it
    only once no other cofactor is waiting, with no second primality test
    if it comes back unchanged.  So n = p*q^2 takes one rho run at most,
    whichever factor rho returns (q, p*q, p or q^2), and none for q^2 alone.
    """
    rest = n  # n without the prime powers yielded so far

    def take(p: int) -> tuple[int, int]:
        nonlocal rest
        e = 0
        while rest % p == 0:
            rest //= p
            e += 1
        return p, e

    for p in _TRIAL_PRIMES:
        if p * p > rest:
            if rest > 1:  # no prime factor below p, so rest is prime
                yield take(rest)
            return
        if rest % p == 0:
            yield take(p)
    found: list[int] = []
    todo, hard = [rest], []  # hard: composite non-square cofactors
    while rest > 1:  # each prime of rest divides a waiting cofactor
        easy = bool(todo)
        m = (todo or hard).pop()
        before = m
        for p in found:
            while m % p == 0:
                m //= p
        if not easy and m == before:
            d = _rho_split(m)
            todo += [m // d, d]  # d, usually the smaller, comes off first
        elif m == 1:
            continue
        elif is_prime(m):
            found.append(m)
            yield take(m)
        elif (r := isqrt(m)) * r == m:
            todo.append(r)
        else:
            hard.append(m)


def factorize(n: int) -> Factorization:
    """Full prime factorization of n >= 2: `_prime_divisors` drained.

    Suited to smooth or moderate inputs, not cryptographic sizes: Brent-rho
    needs about sqrt(q) steps to find a prime factor q above the trial
    division limit.
    """
    if n < 2:
        raise ValueError(f"factorize requires n >= 2, got {n}")
    return Factorization(n, tuple(sorted(_prime_divisors(n))))


def ikroot(n: int, k: int) -> int:
    """floor(n ** (1/k)) by pure integer arithmetic.

    Newton iteration seeded from the bit length, with a final exact
    correction step, so r**k <= n < (r+1)**k always holds.
    """
    if k < 1:
        raise ValueError(f"ikroot requires k >= 1, got {k}")
    if n < 0:
        raise ValueError("ikroot requires n >= 0")
    if k == 1 or n < 2:
        return n
    if k == 2:
        return isqrt(n)
    if n.bit_length() <= k:
        return 1
    r = 1 << ((n.bit_length() + k - 1) // k)
    while True:
        nxt = ((k - 1) * r + n // r ** (k - 1)) // k
        if nxt >= r:
            break
        r = nxt
    while r**k > n:
        r -= 1
    while (r + 1) ** k <= n:
        r += 1
    return r
