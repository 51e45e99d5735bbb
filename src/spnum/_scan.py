"""Numpy kernels of the two exhaustive scans in `construct`: the windowed
kernel sieve of x^2 + 1 and the trial division of the x^3 + 1 candidates.

They live apart from `construct` so that numpy is loaded only by a scan;
every other construction answers on Python ints alone.
"""

from __future__ import annotations

from math import isqrt

import numpy as np

from .arith import factorize, ikroot, is_prime, sieve_primes

_WINDOW = 1 << 18  # x values sieved at once; a scan with x_max below it runs as one window
_PAIR_CHUNK = 1 << 16  # (x, p) pairs stripped at once by _strip's callers


def _pow_mod(g: int, e: np.ndarray, p: np.ndarray) -> np.ndarray:
    """g**e % p elementwise over int64 arrays, by squaring; exact while
    p**2 < 2**63, far above the primes of any scan budget."""
    out = np.ones_like(p)
    base = np.full_like(p, g) % p
    while e.any():
        out = np.where(e & 1, out * base % p, out)
        base = base * base % p
        e = e >> 1
    return out


def _unity_root(ps: np.ndarray) -> np.ndarray:
    """A square root of -1 (a primitive fourth root of unity) mod every prime
    of ps, each p = 1 (mod 4): w = g^((p-1)/4) for the least base g that
    makes w primitive.  Since w^4 = 1, w is primitive unless
    w^2 = g^((p-1)/2) = 1, i.e. unless g is a square mod p.  So g is the
    least non-square n, which is prime (a product of squares is a square)
    and at most isqrt(p) + 1 (with m = ceil(p/n), mn - p < n is a square, so
    m is not and n <= m < p/n + 1), and only those primes are tried."""
    w = np.zeros_like(ps)
    todo = np.arange(len(ps))
    for g in sieve_primes(isqrt(int(ps.max(initial=0))) + 1).tolist():
        if not todo.size:
            break
        p = ps[todo]
        cand = _pow_mod(g, (p - 1) // 4, p)
        ok = cand * cand % p != 1
        w[todo[ok]] = cand[ok]
        todo = todo[~ok]
    return w


def _x2p1_classes(xmax: int) -> tuple[np.ndarray, np.ndarray]:
    """Classes (p, r), p <= xmax, with p | x^2 + 1 exactly when x = r (mod p):
    (2, 1), and (p, s), (p, p - s) for p = 1 (mod 4) with s^2 = -1 (mod p)."""
    primes = sieve_primes(xmax)
    ps = primes[primes % 4 == 1]
    s = _unity_root(ps)
    return np.concatenate(([2], ps, ps)), np.concatenate(([1], s, ps - s))


def _windows(xmax: int):
    """(lo, int64 array of x = lo..) for consecutive windows covering 0..xmax."""
    for lo in range(0, xmax + 1, _WINDOW):
        yield lo, np.arange(lo, min(lo + _WINDOW, xmax + 1), dtype=np.int64)


def _x2p1_sieve(xmax: int):
    """(x, prime) arrays of the x whose x^2 + 1 _odd_primes marks with one
    prime of odd exponent, per window of x up to xmax."""
    ps, rs = _x2p1_classes(xmax)
    for lo, xs in _windows(xmax):
        count, prime = _odd_primes(xs * xs + 1, lo, ps, rs)
        marked = np.flatnonzero(count == 1)
        yield xs[marked], prime[marked]


def _strip(
    vals: np.ndarray, x: np.ndarray, p: np.ndarray, count: np.ndarray, prime: np.ndarray
) -> None:
    """Divide p out of vals[x] completely, in place, for every pair (x, p)
    with p | vals[x]; where p has odd exponent, count[x] gains 1 and
    prime[x] becomes p.  Each round divides every live pair once, until its
    p no longer divides; .at applies repeated x in turn, and distinct
    primes divide in any order."""
    odd = np.zeros(len(x), dtype=bool)
    live = np.arange(len(x))
    while live.size:
        np.floor_divide.at(vals, x[live], p[live])
        odd[live] ^= True
        live = live[vals[x[live]] % p[live] == 0]
    np.add.at(count, x[odd], 1)
    prime[x[odd]] = p[odd]


def _odd_primes(
    vals: np.ndarray, lo: int, ps: np.ndarray, rs: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Kernel sieve over an int64 array of polynomial values at x = lo, lo + 1, ...

    Every class (ps[i], rs[i]) names a prime p dividing the value at every
    x = r (mod p); p is divided out of those entries completely, in place.
    The caller guarantees that what remains of each value is 1 or a single
    prime.  Returns, per x, the number of primes with odd exponent (the
    remainder included) and one such prime; x is SP iff that count is 1 and
    the prime is not the value itself.
    """
    top = len(vals) - 1
    first = (rs - lo) % ps  # index of the first x = r (mod p) in the window
    per = (top - first) // ps + 1  # 0 when first > top, as first < p
    ends = np.cumsum(per)
    total = int(ends[-1]) if len(ends) else 0
    count = np.zeros(len(vals), dtype=np.int64)
    prime = np.zeros(len(vals), dtype=np.int64)
    for start in range(0, total, _PAIR_CHUNK):
        j = np.arange(start, min(start + _PAIR_CHUNK, total), dtype=np.int64)
        c = np.searchsorted(ends, j, side="right")
        p = ps[c]
        _strip(vals, first[c] + (j - ends[c] + per[c]) * p, p, count, prime)
    rest = vals > 1
    count += rest
    prime[rest] = vals[rest]
    return count, prime


def _trial_odd_primes(vals: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Trial division of an int64 array of values of x^2 - x + 1 (or a third
    of it) by the primes p = 1 (mod 3) up to the cube root of its largest
    entry, in place.  Returns, per entry, the number of those primes with
    odd exponent and one such prime; what is left of each entry has only
    prime factors above the cube root, so it is 1, q, q^2 or q*r."""
    primes = sieve_primes(ikroot(int(vals.max(initial=1)), 3))
    ps = primes[primes % 3 == 1]
    count = np.zeros(len(vals), dtype=np.int64)
    prime = np.zeros(len(vals), dtype=np.int64)
    rows = _PAIR_CHUNK // (len(ps) + 1) + 1  # entries per chunk: about _PAIR_CHUNK pairs
    for lo in range(0, len(vals), rows):
        i, j = np.nonzero(vals[lo : lo + rows, None] % ps == 0)
        _strip(vals, lo + i, ps[j], count, prime)
    return count, prime


def _x3p1_candidates(xmax: int, b_square_xs: list[int]) -> tuple[np.ndarray, np.ndarray]:
    """(x, k) arrays, ascending in x, of the x <= xmax whose x^3 + 1 has
    exactly one prime k of odd exponent, over the three candidate sets of
    `construct.x3p1_scan`; b_square_xs is the third set, where A' = 3(x + 1)
    is factored."""
    t = np.arange(2, isqrt(xmax + 1) + 1, dtype=np.int64)
    t = t[t % 3 != 0]
    s = np.arange(1, isqrt((xmax + 1) // 3) + 1, dtype=np.int64)
    xs = np.concatenate((t * t - 1, 3 * s * s - 1))
    vals = np.concatenate((t**4 - 3 * t * t + 3, 3 * s**4 - 3 * s * s + 1))
    count, prime = _trial_odd_primes(vals)
    root = np.rint(np.sqrt(vals)).astype(np.int64)  # exact: vals < 2^52
    square = root * root == vals
    ks = np.where(count == 1, prime, vals)
    sp = (count == 1) & square
    for i in np.flatnonzero((count == 0) & ~square).tolist():
        sp[i] = is_prime(int(vals[i]))
    xs, ks = xs[sp], ks[sp]
    for x in b_square_xs:
        odd = [p for p, e in factorize(3 * (x + 1)).factors if e % 2]
        if len(odd) == 1:
            xs, ks = np.append(xs, x), np.append(ks, odd[0])
    order = np.argsort(xs)
    return xs[order], ks[order]
