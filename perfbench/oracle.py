"""Reference arithmetic for the benchmark's answer checker and pin table.

Nothing here imports spnum: these are independent routes to the answers the
CLI prints, so a wrong answer from the program cannot also be the expected
one.

- ``PiTable``: prime counting by the Lucy_Hedgehog recurrence over the floor
  quotients of n (numpy-vectorised), a different algorithm from the
  library's segmented sieve.
- ``kp_values``: direct enumeration of every p * a^k <= n (numpy), the
  enumeration route the census counts are cross-checked against.
- ``sp_scan``: which values f(x), x <= xmax, are SP numbers, by sieving the
  roots of f modulo each prime (used for the x^2+1 and x^3+1 pins).
"""

from __future__ import annotations

from math import isqrt

import numpy as np

# Published values of pi(10^k), k = 1..10.
PUBLISHED_PI = {
    10**1: 4,
    10**2: 25,
    10**3: 168,
    10**4: 1229,
    10**5: 9592,
    10**6: 78498,
    10**7: 664579,
    10**8: 5761455,
    10**9: 50847534,
    10**10: 455052511,
}

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
# Strong-pseudoprime tests to the bases above are exact below this bound
# (Sorenson and Webster 2015).
MR_EXACT_BOUND = 3_317_044_064_679_887_385_961_981
_MR_EXTRA_BASES = (41, 43, 47, 53, 59, 61, 67, 71, 73, 79, 83, 89, 97, 101)


def is_prime(n: int) -> bool:
    """Miller-Rabin; exact below MR_EXACT_BOUND, 26 fixed bases above it."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    bases = _MR_BASES if n < MR_EXACT_BOUND else _MR_BASES + _MR_EXTRA_BASES
    for a in bases:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def iroot(n: int, k: int) -> int:
    """floor(n ** (1/k)) for n >= 0."""
    if n < 2:
        return n
    r = int(round(n ** (1.0 / k)))
    while r**k > n:
        r -= 1
    while (r + 1) ** k <= n:
        r += 1
    return r


def primes_upto(limit: int) -> np.ndarray:
    """All primes <= limit, int64, by an odd-only sieve."""
    if limit < 2:
        return np.zeros(0, dtype=np.int64)
    odd = np.ones((limit - 1) // 2, dtype=bool)  # odd[i] <-> 2i + 3
    for i in range((isqrt(limit) - 1) // 2):
        if odd[i]:
            p = 2 * i + 3
            odd[(p * p - 3) // 2 :: p] = False
    return np.concatenate(([2], 2 * np.nonzero(odd)[0] + 3)).astype(np.int64)


class PiTable:
    """pi(x) for every floor quotient x = n // m, by Lucy_Hedgehog.

    ``small[v] = pi(v)`` for v <= sqrt(n); ``large[i] = pi(n // i)`` for
    1 <= i <= sqrt(n).  O(n^(3/4)) work, O(sqrt(n)) memory.
    """

    def __init__(self, n: int):
        self.n = n
        r = self.r = isqrt(n)
        small = np.arange(-1, r, dtype=np.int64)  # v - 1 for v = 0..r
        large = np.zeros(r + 1, dtype=np.int64)
        large[1:] = n // np.arange(1, r + 1, dtype=np.int64) - 1
        for p in range(2, r + 1):
            if small[p] == small[p - 1]:
                continue  # p is composite
            sp = small[p - 1]
            lim = min(r, n // (p * p))
            b = min(lim, r // p)
            # right-hand sides are evaluated before the in-place update, so
            # every term reads the table as it stood before this prime
            large[1 : b + 1] -= large[p : b * p + 1 : p] - sp
            if lim > b:
                i = np.arange(b + 1, lim + 1, dtype=np.int64)
                large[b + 1 : lim + 1] -= small[n // (i * p)] - sp
            if p * p <= r:
                v = np.arange(p * p, r + 1, dtype=np.int64)
                small[p * p :] -= small[v // p] - sp
        self.small, self.large = small, large

    def pi(self, x: int) -> int:
        """pi(x) for x a floor quotient n // m of this table's n."""
        if x <= self.r:
            return int(self.small[x])
        return int(self.large[self.n // x])


def kp_count(table: PiTable, k: int) -> int:
    """Count of p * a^k <= n (a >= 2) as the sum over a of pi(n / a^k)."""
    n = table.n
    return sum(table.pi(n // a**k) for a in range(2, iroot(n // 2, k) + 1))


def psp_count(table: PiTable) -> int:
    """Count of p1 * p2^2 <= n as the sum over primes p2 of pi(n / p2^2)."""
    n = table.n
    return sum(table.pi(n // (p * p)) for p in primes_upto(isqrt(n // 2)).tolist())


def kp_values(n: int, k: int, prime_base: bool = False) -> np.ndarray:
    """Every p * a^k <= n with p prime and a >= 2 (a prime if prime_base)."""
    primes = primes_upto(n // 2**k)
    bases = primes if prime_base else np.arange(2, iroot(n // 2, k) + 1)
    parts = []
    for a in bases.tolist():
        m = a**k
        if 2 * m > n:
            break
        parts.append(primes[: np.searchsorted(primes, n // m, side="right")] * m)
    return np.concatenate(parts) if parts else np.zeros(0, dtype=np.int64)


def digit_tally(n: int) -> list[int]:
    """Counts of SP numbers <= n by final decimal digit, by enumeration."""
    return np.bincount(kp_values(n, 2) % 10, minlength=10).tolist()


def sqrt_mod(a: int, p: int) -> int | None:
    """A square root of a modulo the odd prime p, or None (Tonelli-Shanks)."""
    a %= p
    if a == 0:
        return 0
    if pow(a, (p - 1) // 2, p) != 1:
        return None
    q, s = p - 1, 0
    while q % 2 == 0:
        q //= 2
        s += 1
    z = 2
    while pow(z, (p - 1) // 2, p) != p - 1:
        z += 1
    m, c, t, r = s, pow(z, q, p), pow(a, q, p), pow(a, (q + 1) // 2, p)
    while t != 1:
        i, t2 = 0, t
        while t2 != 1:
            t2 = t2 * t2 % p
            i += 1
        b = pow(c, 1 << (m - i - 1), p)
        m, c, t, r = i, b * b % p, t * b * b % p, r * b % p
    return r


def x2p1_roots(p: int) -> set[int]:
    """Roots of x^2 + 1 modulo the prime p."""
    if p == 2:
        return {1}
    s = sqrt_mod(-1, p)
    return set() if s is None else {s, p - s}


def x3p1_roots(p: int) -> set[int]:
    """Roots of x^3 + 1 = (x + 1)(x^2 - x + 1) modulo the prime p."""
    roots = {p - 1}
    if p > 3:
        s = sqrt_mod(-3, p)
        if s is not None:
            inv2 = (p + 1) // 2
            roots |= {(1 + s) * inv2 % p, (1 - s) * inv2 % p}
    return roots


def sp_scan(f, roots, xmax: int, prime_limit: int) -> list[int]:
    """Every x in [1, xmax] with f(x) an SP number (p * a^2, a >= 2).

    Strips each prime <= prime_limit from f(x) along its root classes and
    counts the primes of odd exponent.  ``prime_limit`` must be large enough
    that whatever is left of f(x) afterwards is 1 or a single prime.
    """
    rest = [f(x) for x in range(xmax + 1)]
    odd = [0] * (xmax + 1)
    for p in primes_upto(prime_limit).tolist():
        for r in roots(p):
            for x in range(r, xmax + 1, p):
                v, e = rest[x], 0
                while v % p == 0:
                    v //= p
                    e += 1
                rest[x] = v
                odd[x] += e & 1
    out = []
    for x in range(1, xmax + 1):
        # one prime of odd exponent and some square left over
        if odd[x] + (rest[x] > 1) == 1 and not is_prime(f(x)):
            out.append(x)
    return out


def x2p1_members(xmax: int) -> list[int]:
    """x <= xmax with x^2 + 1 an SP number.  Any prime factor above xmax
    occurs once, since two of them would exceed x^2 + 1."""
    return sp_scan(lambda x: x * x + 1, x2p1_roots, xmax, xmax)


def x3p1_members(xmax: int) -> list[int]:
    """x <= xmax with x^3 + 1 an SP number.  x + 1 is stripped by primes up
    to xmax + 1, and x^2 - x + 1 < x^2 keeps at most one prime above x."""
    return sp_scan(lambda x: x**3 + 1, x3p1_roots, xmax, xmax + 1)
