"""Exact integer primitives: one prime sieve, primality, factorization,
integer roots.

Everything here works on arbitrary-precision Python ints and never goes
through floating point, so floor/exactness guarantees hold at any size.
The one exception is `is_prime` above ``DETERMINISTIC_PRIME_BOUND``
(~3.3e24), where proven Miller-Rabin base sets end: there it is the
Baillie-PSW test, deterministic and proven exact below 2^64, with no
composite known to pass it but none proven not to exist.

Factoring finds every prime below 2^15 by gcd with a product of primes:
those below 1000 from one product built at import, those in (1000, 2^15)
from one built on the first cofactor that would otherwise go to Brent-rho,
with the products of its blocks of 2^10 numbers, which split a gcd holding
two or more of them.

The one sieve is a bytearray of prime flags: the trial-division primes and
the primes of the gcd product are read off it directly, and `sieve_primes`
hands it to numpy, imported on that call only, so classification,
factorization and Pell solving answer without loading numpy.
"""

from __future__ import annotations

import sys
from functools import cache
from math import gcd, isqrt, prod
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
    """Prime flags of odd numbers to limit >= 2: byte i is 1 iff 2i + 1 is prime; byte 0 stands for 2."""
    sieve = bytearray([1]) * ((limit + 1) // 2)
    for p in range(3, isqrt(limit) + 1, 2):
        if sieve[p // 2]:
            sieve[p * p // 2 :: p] = bytes((len(sieve) - 1 - p * p // 2) // p + 1)
    return sieve


def sieve_primes(limit: int) -> np.ndarray:
    """All primes <= limit as an int64 array, read off `_sieve` in place."""
    import numpy as np

    if limit < 2:
        return np.zeros(0, dtype=np.int64)
    primes = np.flatnonzero(np.frombuffer(_sieve(limit), dtype=bool))
    primes *= 2
    primes += 1
    primes[0] = 2
    return primes

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


# Above the deterministic bound: Baillie-PSW (Baillie & Wagstaff 1980,
# Math. Comp. 35), a strong base-2 round followed by a strong Lucas test
# with Selfridge's parameters (Pomerance, Selfridge & Wagstaff 1980, Math.
# Comp. 35): D is the first of 5, -7, 9, -11, ... with Jacobi (D/n) = -1,
# P = 1, Q = (1 - D)/4.  The test is deterministic: it is proven exact below
# 2^64, and no composite is known to pass it, but none is proven not to.


def _jacobi(a: int, n: int) -> int:
    """Jacobi symbol (a/n) for odd n > 0."""
    a %= n
    t = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                t = -t
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            t = -t
        a %= n
    return t if n == 1 else 0


def _strong_lucas(n: int) -> bool:
    """True if odd n > 1, not a square, is a strong Lucas probable prime
    with Selfridge's parameters.  A square has no D with (D/n) = -1, so the
    caller must rule squares out first."""
    D = 5
    while (j := _jacobi(D, n)) != -1:
        if j == 0 and abs(D) < n:  # a factor of D divides n
            return False
        D = -D - 2 if D > 0 else 2 - D
    Q = (1 - D) // 4
    d, s = n + 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    # U_k, V_k, Q^k mod n, from k = 1 up the bits of d:
    # k -> 2k: U = U*V, V = V^2 - 2Q^k; k -> k+1: U = (U + V)/2, V = (D*U + V)/2
    u, v, qk = 1, 1, Q % n
    for bit in bin(d)[3:]:
        u, v, qk = u * v % n, (v * v - 2 * qk) % n, qk * qk % n
        if bit == "1":
            u, v = (u + v) % n, (D * u + v) % n
            u = (u + n if u & 1 else u) >> 1
            v = (v + n if v & 1 else v) >> 1
            qk = qk * Q % n
    if u == 0 or v == 0:
        return True
    for _ in range(s - 1):  # V_{d*2^r} for r = 1 .. s-1
        v, qk = (v * v - 2 * qk) % n, qk * qk % n
        if v == 0:
            return True
    return False


def _bpsw(n: int, d: int, s: int) -> bool:
    """Baillie-PSW for odd n = d*2^s + 1 > 1, d odd: true iff n is a
    strong probable prime to base 2, not a square, and a strong Lucas
    probable prime."""
    if _mr_witness(n, 2, d, s):
        return False
    if isqrt(n) ** 2 == n:
        return False
    return _strong_lucas(n)


_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_SMALL_PRIMORIAL = prod(_SMALL_PRIMES)


def is_prime(n: int) -> bool:
    """Primality test, exact for all n below ``DETERMINISTIC_PRIME_BOUND``.

    One gcd with 2·3·…·37 answers every n with a prime factor up to 37.
    Below the bound (~3.3e24 > 2^64) the rest is a deterministic strong
    pseudoprime test with published witness sets.  Above it, it is the
    Baillie-PSW test (Baillie & Wagstaff 1980): a strong base-2 round, a
    perfect-square guard and a strong Lucas test.  That test is
    deterministic and no composite is known to pass it, but its exactness
    is proven only below 2^64.
    """
    if n < 2:
        return False
    if gcd(n, _SMALL_PRIMORIAL) > 1:
        return n in _SMALL_PRIMES
    s = ((n - 1) & (1 - n)).bit_length() - 1  # the lowest set bit of n - 1
    d = (n - 1) >> s
    for bound, bases in _MR_TIERS:
        if n < bound:
            return not any(_mr_witness(n, a, d, s) for a in bases)
    return _bpsw(n, d, s)


_TRIAL_PRIMES = [max(2, 2 * i + 1) for i, flag in enumerate(_sieve(999)) if flag]
_TRIAL_PRIMORIAL = prod(_TRIAL_PRIMES)
_GCD_TOP = 2**15  # the primes in (1000, _GCD_TOP) are found by gcd before rho
_GCD_BLOCK = 2**10  # the span of each block of (1000, _GCD_TOP) with its own product


@cache
def _gcd_blocks() -> list[int]:
    """The product of the primes of (1000, _GCD_TOP) in each block
    [lo, lo + _GCD_BLOCK), lo = 0, _GCD_BLOCK, ..., read off `_sieve` on first use."""
    flags = _sieve(_GCD_TOP - 1)
    return [prod(2 * i + 1 for i in range(max(500, lo // 2), (lo + _GCD_BLOCK) // 2) if flags[i])
            for lo in range(0, _GCD_TOP, _GCD_BLOCK)]


@cache
def _gcd_primorial() -> int:
    """The product of the primes in (1000, _GCD_TOP), 45530 bits, built on
    first use by a product tree over `_gcd_blocks`."""
    level = _gcd_blocks()
    while len(level) > 1:
        level = [prod(level[i : i + 2]) for i in range(0, len(level), 2)]
    return level[0]


def _gcd_split(g: int) -> list[int]:
    """The primes of g > 1, a product of distinct primes in (1000, _GCD_TOP),
    in ascending order.  Two of them exceed 10^6, so a divisor of g below
    _GCD_TOP is prime, and so is every divisor of g in (1000, _GCD_TOP): the
    gcd h of g with a block's product is 1, one prime, or two or more read
    off the block's odd numbers, and the last prime left is g itself."""
    primes = []
    blocks = zip(range(0, _GCD_TOP, _GCD_BLOCK), _gcd_blocks())
    while g >= _GCD_TOP:  # two or more primes left
        lo, block = next(blocks)
        h = gcd(block, g)
        g //= h
        if h >= _GCD_TOP:
            primes += [d for d in range(max(lo, 1000) + 1, lo + _GCD_BLOCK, 2) if h % d == 0]
        elif h > 1:
            primes.append(h)
    if g > 1:
        primes.append(g)
    return primes


class Factorization(NamedTuple):
    """Canonical factorization: strictly increasing primes with exponents."""

    value: int
    factors: tuple[tuple[int, int], ...]


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


def _odd_power_root(m: int) -> int | None:
    """r if m = r^j for an odd prime j, else None, for m whose prime factors
    all exceed 1000 > 2^9, so that j <= m.bit_length() // 9."""
    top = m.bit_length() // 9
    for j in _TRIAL_PRIMES[1:]:
        if j > top:
            break
        r = ikroot(m, j)
        if r**j == m:
            return r
    return None


def _prime_divisors(n: int) -> Iterator[tuple[int, int]]:
    """The factoring loop of n > 1: yields (p, e) for each prime power p^e
    exactly dividing n as soon as p is proven, so that a caller needing
    only part of the factorization can stop early.

    The primes below 1000 come first, in ascending order: g = gcd(n, their
    product) holds exactly those dividing n, and only g's primes are divided
    out.  Every cofactor of the loop after it has only prime factors above
    1000, so one below 1000^2 is 1 or prime.
    Each cofactor first loses every prime already found; a perfect square
    is replaced by its root; a composite is set aside, and is split only
    once no other cofactor is waiting, with no second primality test if it
    comes back unchanged.  Before the split, a perfect power r^j with j an
    odd prime is replaced by r, since rho needs about sqrt(q) steps on q^3.
    The split is one gcd g with the product of the primes in (1000, 2^15):
    when g > 1 its primes, read off by `_gcd_split`, are proven at once, and
    only a cofactor with g = 1 goes to Brent-rho, so rho sees only primes
    above 2^15.  n = p*q^2 takes one split at most, whichever factor rho
    returns (q, p*q, p or q^2), and none for q^2 or q^3 alone.
    """
    rest = n  # n without the prime powers yielded so far

    def take(p: int) -> tuple[int, int]:
        nonlocal rest
        e = 0
        while rest % p == 0:
            rest //= p
            e += 1
        return p, e

    g = gcd(n, _TRIAL_PRIMORIAL)  # square-free with primes >= p left, so g < p^2 is 1 or prime
    for p in _TRIAL_PRIMES:
        if p * p > g:
            if g > 1:
                yield take(g)
            break
        if g % p == 0:
            g //= p
            yield take(p)
    if 1 < rest < 1000 * 1000:
        yield take(rest)
        return
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
            if root := _odd_power_root(m):
                todo.append(root)
            elif (g := gcd(_gcd_primorial(), m)) > 1:
                for p in _gcd_split(g):
                    found.append(p)
                    yield take(p)
                todo.append(m)  # loses g's primes when popped
            else:
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
    needs about sqrt(q) steps to find a prime factor q above 2^15.
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


def _interpreter_digit_limit() -> int:
    """The interpreter's int-to-str digit limit, 0 where there is none."""
    return getattr(sys, "get_int_max_str_digits", lambda: 0)()


def _reaches_pow10(n: int, e: int) -> bool:
    """n >= 10**e for e >= 0, with 10**e built only when n's bit length
    leaves it open: 3.3219 < log2(10), so n of at most e*3.3219 bits is less."""
    return n.bit_length() > e * 3.3219 and n >= 10**e
