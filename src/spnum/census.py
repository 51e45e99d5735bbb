"""Exact counting and enumeration of p*a^k and p1*p2^k numbers up to n.

Two independent routes are kept deliberately separate: pair enumeration
(`kp_enumerate`, merging per-base streams of p*a^k products) and the
prime-counting identity (`kp_count`, summing pi(n/a^k); `digit_census`,
summing pi(n/a^2; 10, c) by final digit).  They must agree exactly, and the
test suite holds them to that.
"""

from __future__ import annotations

import heapq
from bisect import bisect_right
from dataclasses import dataclass
from math import isqrt, log
from typing import Callable, Iterator

import numpy as np

from . import analytic
from .arith import ikroot, sieve_primes
from .classify import KpWitness

__all__ = [
    "CensusRow",
    "DigitCensus",
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


def _pi_table(n: int) -> Callable[[np.ndarray], np.ndarray]:
    """pi(x) for every floor quotient x = n // m of n, by Lucy_Hedgehog.

    Builds ``small[v] = pi(v)`` for v <= r = isqrt(n) and
    ``large[i] = pi(n // i)`` for 1 <= i <= r in O(n^(3/4)) time and
    O(sqrt(n)) memory, and returns a lookup that maps an int64 array of
    floor quotients of n to their prime counts.  Other x give wrong counts.

    The primes p <= n^(1/3) are sifted one at a time, in order.  The rest
    (p^3 > n, about 95% of them) are sifted together by `_tail_pairs`: such
    a p writes only large[i] for i <= n // p^2 < p and nothing in small
    (p^2 > r), and it reads large[i * p] with i * p >= p, or small.  So no
    tail prime reads what another writes, and every read already holds its
    final value: large[i * p] is only written by head primes, and
    small[v] = pi(v) for all v once p <= sqrt(r) is sifted.  The tail
    gathers its terms _TAIL_CHUNK pairs at a time and sums them per i with
    `np.add.reduceat`, so its memory stays a few arrays of 2^12 entries.
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
    primes = np.flatnonzero(np.diff(small[root:])) + root + 1
    tail = primes[primes > ikroot(n, 3)]
    for p in primes[: len(primes) - len(tail)].tolist():
        sift(p)
    for lo, starts, p, inner, at in _tail_pairs(n, tail):
        got = np.where(inner, large[at], small[at]) - small[p - 1]
        large[lo : lo + len(starts)] -= np.add.reduceat(got, starts)

    def lookup(xs: np.ndarray) -> np.ndarray:
        return np.where(xs <= r, small[np.minimum(xs, r)], large[n // np.maximum(xs, r + 1)])

    return lookup


_TAIL_CHUNK = 1 << 12  # (i, p) pairs gathered at once by the batched tail


def _tail_pairs(
    n: int, tail: np.ndarray
) -> Iterator[tuple[int, np.ndarray, np.ndarray, np.ndarray, np.ndarray]]:
    """The (i, p) updates of the batched tail, grouped by i, in chunks.

    tail holds the ascending primes with p^3 > n; p updates large[i] for
    i <= n // p^2, so the primes updating large[i] are the prefix of tail
    with p^2 <= n // i.  Pairs are ordered by i, then p, and cut into
    chunks of at most _TAIL_CHUNK pairs (a group may span chunks).  Each
    chunk yields (lo, starts, p, inner, at): its groups update large[lo],
    large[lo + 1], ..., group g starts at pair starts[g], and the pair
    reads pi((n // i) // p) from large[at] where inner, else from small[at].
    """
    if len(tail) == 0:
        return
    r = isqrt(n)
    squares = tail * tail
    i_max = n // int(squares[0])
    per = np.searchsorted(squares, n // np.arange(1, i_max + 1, dtype=np.int64), side="right")
    ends = np.cumsum(per)  # pairs of i = g + 1 are ends[g] - per[g] .. ends[g] - 1
    begins = ends - per
    for a in range(0, int(ends[-1]), _TAIL_CHUNK):
        b = min(a + _TAIL_CHUNK, int(ends[-1]))
        g0 = int(np.searchsorted(ends, a, side="right"))
        g1 = int(np.searchsorted(begins, b, side="left"))
        first = np.maximum(begins[g0:g1], a)
        sizes = np.minimum(ends[g0:g1], b) - first
        t = np.arange(a, b) - np.repeat(begins[g0:g1], sizes)
        p = tail[t]
        k = np.repeat(np.arange(g0 + 1, g1 + 1, dtype=np.int64), sizes) * p
        inner = k <= r  # (n // i) // p = n // k is large[k], else small[n // k]
        yield g0 + 1, first - a, p, inner, np.where(inner, k, n // np.maximum(k, r + 1))


_CLASSES = (1, 3, 7, 9)  # the residues mod 10 of every prime but 2 and 5


def _pi_mod10_table(n: int) -> Callable[[np.ndarray], np.ndarray]:
    """pi(x; 10, c) for c = 1, 3, 7, 9 at every floor quotient x of n.

    `_pi_table` with one row per class: small[j, v] and large[j, i] count
    the primes = _CLASSES[j] (mod 10) up to v and up to n // i.  A number
    = c (mod 10) with least prime factor p is p * m with m = c * p^-1, so
    sifting p moves counts between rows; 2 and 5 divide no member of a
    class and are never sifted.  The lookup maps an int64 array of floor
    quotients of n to a (4, len) array of counts.
    """
    r = isqrt(n)
    classes = np.array(_CLASSES, dtype=np.int64)[:, None]
    # gather[p % 10, j]: the row of the class _CLASSES[j] * p^-1 (mod 10)
    gather = np.zeros((10, 4), dtype=np.intp)
    for q in _CLASSES:
        gather[q] = [_CLASSES.index(c * pow(q, -1, 10) % 10) for c in _CLASSES]

    def initial(v: np.ndarray) -> np.ndarray:
        # integers in [2, v] per class, before sifting; 1 is not counted
        rows = (v - classes + 10) // 10
        rows[0] -= v >= 1
        return rows

    small = initial(np.arange(r + 1, dtype=np.int64))
    quot = np.zeros(r + 1, dtype=np.int64)  # quot[i] = n // i; index 0 unused
    quot[1:] = n // np.arange(1, r + 1, dtype=np.int64)
    large = initial(quot)

    def sift(p: int) -> None:
        # as in _pi_table, with row j reading row g[j]; each right-hand side
        # is gathered (only the columns it needs) before the in-place update
        g = gather[p % 10]
        sp = small[g, p - 1]
        lim = min(r, n // (p * p))
        b = min(lim, r // p)
        large[:, 1 : b + 1] -= large[g, p : b * p + 1 : p] - sp[:, None]
        # the rest reads small only, so one row at a time (a 2-D gather is 2-3x slower)
        idx = quot[b + 1 : lim + 1] // p
        for j, row in enumerate(g.tolist()):
            large[j, b + 1 : lim + 1] -= small[row][idx] - sp[j]
        if p * p <= r:
            head = small[g, p : r // p + 1]
            for j in range(4):
                small[j, p * p :] -= np.repeat(head[j], p)[: r + 1 - p * p] - sp[j]

    root = isqrt(r)
    for p in range(3, root + 1):
        if (small[:, p] != small[:, p - 1]).any():  # p is prime, and not 5
            sift(p)
    total = small.sum(axis=0)  # final: every p <= sqrt(r) is sifted
    primes = np.flatnonzero(np.diff(total[root:])) + root + 1
    tail = primes[primes > ikroot(n, 3)]
    for p in primes[: len(primes) - len(tail)].tolist():
        sift(p)

    # the tail primes (p^3 > n) sift all at once, as in _pi_table
    for lo, starts, p, inner, at in _tail_pairs(n, tail):
        g = gather[p % 10]
        for j in range(4):
            rows = g[:, j]
            got = np.where(inner, large[rows, at], small[rows, at]) - small[rows, p - 1]
            large[j, lo : lo + len(starts)] -= np.add.reduceat(got, starts)

    def lookup(xs: np.ndarray) -> np.ndarray:
        return np.where(xs <= r, small[:, np.minimum(xs, r)], large[:, n // np.maximum(xs, r + 1)])

    return lookup


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


def psp_count(n: int, k: int = 2) -> int:
    """Count of p1*p2^k numbers <= n via the sum over p2 of pi(n/p2^k).

    The inner pi runs over all primes, so p1 = p2 cases (8 = 2*2^2) are
    counted, as the defining form allows.
    """
    if k < 2:
        raise ValueError(f"psp_count requires k >= 2, got {k}")
    ps = sieve_primes(ikroot(n // 2, k) if n >= 2 else 0)
    if len(ps) == 0:
        return 0
    return int(_pi_table(n)(n // ps**k).sum())


def digit_census(n: int) -> DigitCensus:
    """Tallies of SP numbers <= n by final decimal digit.

    The final digit of p * a^2 is (p mod 10) * (a^2 mod 10) mod 10, so
    digit d collects pi(n // a^2; 10, c) over the bases a and classes c
    with c * a^2 = d (mod 10), from one class table for n; p = 2 and p = 5
    add one each where n // a^2 reaches them.
    """
    a_max = isqrt(n // 2) if n >= 2 else 0
    if a_max < 2:
        return DigitCensus(n, (0,) * 10)
    a = np.arange(2, a_max + 1, dtype=np.int64)
    x = n // (a * a)
    # row j: how many primes = residues[j] (mod 10) each base a takes, and the digit they end in
    residues = np.array(_CLASSES + (2, 5), dtype=np.int64)[:, None]
    taken = np.vstack([_pi_mod10_table(n)(x), x >= 2, x >= 5])
    digit = residues * (a * a % 10) % 10
    return DigitCensus(n, tuple(int(taken[digit == d].sum()) for d in range(10)))


def census_table(
    checkpoints: list[int], k: int = 2, family: str = "kp"
) -> list[CensusRow]:
    """One CensusRow per checkpoint: exact count, analytic estimate, ratio.

    family "kp" counts p*a^k against the (zeta(k)-1)*n/ln n estimate;
    family "psp" counts p1*p2^k against P(k)*n/ln n.
    """
    fam = family.lower()
    if fam not in ("kp", "psp"):
        raise ValueError(f"family must be 'kp' or 'psp', got {family!r}")
    if any(b < 2 for b in checkpoints):
        raise ValueError("checkpoints must be >= 2")
    if list(checkpoints) != sorted(checkpoints):
        raise ValueError("checkpoints must be ascending")
    if fam == "kp":
        count, estimate = kp_count, analytic.kp_estimate
    else:
        count, estimate = psp_count, analytic.psp_estimate
    rows = []
    for n in checkpoints:
        exact = count(n, k)
        rows.append(CensusRow(n, exact, estimate(n, k), exact * log(n) / n))
    return rows
