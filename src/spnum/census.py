"""Exact counting and enumeration of p*a^k and p1*p2^2 numbers up to n.

Two independent routes are kept deliberately separate: pair enumeration
(`kp_enumerate`, merging per-base streams of p*a^k products) and the
prime-counting identity (`kp_count`, summing pi(n/a^k)).  They must agree
exactly, and the test suite holds them to that.
"""

from __future__ import annotations

import heapq
from bisect import bisect_right
from dataclasses import dataclass
from math import isqrt, log
from typing import Callable, Iterator

import numpy as np

from . import analytic
from .arith import ikroot
from .classify import KpWitness

__all__ = [
    "CensusRow",
    "DigitCensus",
    "prime_pi",
    "kp_enumerate",
    "kp_count",
    "psp_count",
    "digit_census",
    "census_table",
]

@dataclass(frozen=True)
class CensusRow:
    n: int
    exact: int
    estimate: float
    ratio: float


@dataclass(frozen=True)
class DigitCensus:
    """Counts of SP numbers <= n, indexed by final decimal digit."""

    n: int
    counts: tuple[int, ...]

    def total(self) -> int:
        return sum(self.counts)


def sieve_primes(limit: int) -> np.ndarray:
    """All primes <= limit as an int64 array (plain sieve, fits in memory)."""
    if limit < 2:
        return np.zeros(0, dtype=np.int64)
    mask = np.ones(limit + 1, dtype=bool)
    mask[:2] = False
    for p in range(2, isqrt(limit) + 1):
        if mask[p]:
            mask[p * p :: p] = False
    return np.nonzero(mask)[0].astype(np.int64)


def _pi_table(n: int) -> Callable[[np.ndarray], np.ndarray]:
    """pi(x) for every floor quotient x = n // m of n, by Lucy_Hedgehog.

    Builds ``small[v] = pi(v)`` for v <= r = isqrt(n) and
    ``large[i] = pi(n // i)`` for 1 <= i <= r in O(n^(3/4)) time and
    O(sqrt(n)) memory, and returns a lookup that maps an int64 array of
    floor quotients of n to their prime counts.  Other x give wrong counts.
    """
    r = isqrt(n)
    small = np.arange(-1, r, dtype=np.int64)  # v - 1 integers in [2, v] before sifting
    small[0] = 0
    quot = np.zeros(r + 1, dtype=np.int64)  # quot[i] = n // i; index 0 unused
    quot[1:] = n // np.arange(1, r + 1, dtype=np.int64)
    large = quot - 1

    def sift(p: int) -> None:
        # pi(v) -= pi(v // p) - pi(p - 1) for every quotient v >= p^2, where
        # (n // i) // p is large[i * p] while i * p <= r and small[...] beyond.
        # Each right-hand side is read in full before its in-place update, so
        # every term sees the table as it stood before p.
        sp = small[p - 1]
        lim = min(r, n // (p * p))
        b = min(lim, r // p)
        large[1 : b + 1] -= large[p : b * p + 1 : p] - sp
        large[b + 1 : lim + 1] -= small[quot[b + 1 : lim + 1] // p] - sp
        if p * p <= r:
            # v // p for v = p^2..r is p, p, ..., p + 1, ... (p copies each)
            small[p * p :] -= np.repeat(small[p : r // p + 1], p)[: r + 1 - p * p] - sp

    root = isqrt(r)
    for p in range(2, root + 1):
        if small[p] != small[p - 1]:
            sift(p)
    # small is final once every p <= sqrt(r) is sifted; it marks the rest
    for p in (np.flatnonzero(np.diff(small[root:])) + root + 1).tolist():
        sift(p)

    def lookup(xs: np.ndarray) -> np.ndarray:
        return np.where(xs <= r, small[np.minimum(xs, r)], large[n // np.maximum(xs, r + 1)])

    return lookup


def prime_pi(x: int) -> int:
    """Number of primes <= x, exact, by the floor-quotient table for x."""
    if x < 2:
        return 0
    return int(_pi_table(x)(np.array([x], dtype=np.int64))[0])


def kp_enumerate(n: int, k: int = 2) -> Iterator[KpWitness]:
    """Every KP_k number <= n exactly once, ascending, with its witness.

    One stream per base a emits p*a^k over primes p <= n/a^k; the streams
    are heap-merged.  Decomposition uniqueness makes the union duplicate
    free, so no dedup pass is needed.
    """
    if k < 2:
        raise ValueError(f"kp_enumerate requires k >= 2, got {k}")
    a_max = ikroot(n // 2, k) if n >= 2 else 0
    if a_max < 2:
        return
    primes = sieve_primes(n // 2**k).tolist()

    def stream(a: int) -> Iterator[tuple[int, int, int]]:
        m = a**k
        for p in primes[: bisect_right(primes, n // m)]:
            yield (p * m, p, a)

    for value, p, a in heapq.merge(*(stream(a) for a in range(2, a_max + 1))):
        yield KpWitness(value, k, p, a)


def kp_count(n: int, k: int = 2) -> int:
    """Count of KP_k numbers <= n via the identity sum over a of pi(n/a^k)."""
    if k < 2:
        raise ValueError(f"kp_count requires k >= 2, got {k}")
    a_max = ikroot(n // 2, k) if n >= 2 else 0
    if a_max < 2:
        return 0
    a = np.arange(2, a_max + 1, dtype=np.int64)
    return int(_pi_table(n)(n // a**k).sum())


def psp_count(n: int) -> int:
    """Count of p1*p2^2 numbers <= n via the sum over p2 of pi(n/p2^2).

    The inner pi runs over all primes, so p1 = p2 cases (8 = 2*2^2) are
    counted, matching `psp_decompose`.
    """
    if n < 8:
        return 0
    ps = sieve_primes(isqrt(n // 2))
    return int(_pi_table(n)(n // (ps * ps)).sum())


def digit_census(n: int) -> DigitCensus:
    """Tallies of SP numbers <= n by final decimal digit."""
    counts = [0] * 10
    for w in kp_enumerate(n, 2):
        counts[w.n % 10] += 1
    return DigitCensus(n, tuple(counts))


def census_table(
    checkpoints: list[int], k: int = 2, family: str = "kp"
) -> list[CensusRow]:
    """One CensusRow per checkpoint: exact count, analytic estimate, ratio.

    family "kp" counts p*a^k against the (zeta(k)-1)*n/ln n estimate;
    family "psp" (k = 2 only) counts p1*p2^2 against P(2)*n/ln n.
    """
    fam = family.lower()
    if fam not in ("kp", "psp"):
        raise ValueError(f"family must be 'kp' or 'psp', got {family!r}")
    if fam == "psp" and k != 2:
        raise ValueError("psp census is defined for k = 2 only")
    if any(b < 2 for b in checkpoints):
        raise ValueError("checkpoints must be >= 2")
    if list(checkpoints) != sorted(checkpoints):
        raise ValueError("checkpoints must be ascending")
    rows = []
    for n in checkpoints:
        if fam == "kp":
            exact = kp_count(n, k)
            if n >= 3:
                estimate = analytic.kp_estimate(n, k)
            else:
                # below the estimator's n >= 3 contract; same formula
                estimate = (analytic.zeta(k).value - 1.0) * n / log(n)
        else:
            exact = psp_count(n)
            if n >= 3:
                estimate = analytic.psp_estimate(n)
            else:
                estimate = analytic.prime_zeta(2).value * n / log(n)
        rows.append(CensusRow(n, exact, estimate, exact * log(n) / n))
    return rows
