"""Exact counting of p*a^k and p1*p2^k numbers up to n.

The library counts by the prime-counting identity only: a family's members
are m * p, m a divisor (a^k for `kp_count`, p2^k for `psp_count`) and p
prime, so one helper sums pi(n // m), and `digit_census` sums pi(n/a^2; 10, c)
per residue a^2 mod 10.  The independent route, enumerating the members by
a heap merge of per-base streams, is kept in `tests/` as the oracle.
"""

from __future__ import annotations

from math import isqrt, log
from typing import Callable, Iterator, NamedTuple

import numpy as np

from . import analytic
from .arith import ikroot, sieve_primes

__all__ = [
    "CensusRow",
    "DigitCensus",
    "kp_count",
    "psp_count",
    "digit_census",
    "census_table",
]


class CensusRow(NamedTuple):
    n: int
    exact: int
    estimate: float
    ratio: float


class DigitCensus(NamedTuple):
    """Counts of SP numbers <= n, indexed by final decimal digit."""

    n: int
    counts: tuple[int, ...]

    def total(self) -> int:
        return sum(self.counts)


def _kept(r: int, divisors: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The ascending i <= r that are multiples of some divisor, and pos with
    pos[i] = r + 1 + the index of i among them, the column of a table's vals
    that holds large for i (meaningless for any other i).

    Divisors are marked ascending, skipping any that a smaller one already
    covers, so for the a^k of kp_count only the primes a mark.
    """
    mark = np.zeros(r + 1, dtype=bool)
    for d in sorted(set(divisors[divisors <= r].tolist())):
        if not mark[d]:
            mark[d::d] = True
    kept = mark.nonzero()[0]
    pos = np.zeros(r + 1, dtype=np.int32 if 2 * r < 2**31 else np.int64)
    pos[kept] = np.arange(r + 1, r + 1 + len(kept), dtype=pos.dtype)
    return kept, pos


_ROWS = (1, 3, 9, 7)  # the class of each row of a class table: 3^j (mod 10) in row j


# The tables start with the primes 2..13 already sifted: S(v) = #{2 <= m <= v : m is
# prime or has no prime factor <= 13}, the count after Lucy_Hedgehog's first six steps.
# For v >= 13, S(v + _WHEEL) = S(v) + phi(_WHEEL) (Legendre's phi(x, 6) is periodic
# mod the primorial), so one table over [0, _WHEEL + 13) gives S at every v.
_WHEEL_PRIMES = (2, 3, 5, 7, 11, 13)  # the first six primes, never sifted
_WHEEL = 2 * 3 * 5 * 7 * 11 * 13


def _wheel_counts() -> tuple[np.ndarray, np.ndarray]:
    """S(x) per class row (in _ROWS order) and in total, int16, for 0 <= x < _WHEEL + 13."""
    counted = np.ones(_WHEEL + 13, dtype=bool)
    for p in _WHEEL_PRIMES:
        counted[::p] = False
    counted[1] = False
    counted[list(_WHEEL_PRIMES)] = True
    digit = np.arange(_WHEEL + 13, dtype=np.int16) % 10
    digit[~counted] = 0  # a class no counted m is in
    rows = np.empty((4, _WHEEL + 13), dtype=np.int16)
    for row, c in zip(rows, _ROWS):
        np.cumsum(digit == c, dtype=np.int16, out=row)
    return rows, np.cumsum(counted, dtype=np.int16)


_WHEEL_ROWS, _WHEEL_TOTAL = _wheel_counts()
_WHEEL_PHI = 5760  # phi(_WHEEL), the counted m in each period past 13; a quarter per class


_BLOCK = 1 << 16  # table entries (rows x columns) a head prime gathers, or the start fills, at once


def _wheel_start(vals: np.ndarray, r: int, quot: np.ndarray, table: np.ndarray, phi: int) -> None:
    """Fill a table's vals with S(v) before any sifting past 13: small[v] = S(v) for
    v <= r and large[j] = S(quot[j]), in place, from table[..., x] = S(x) for
    x < _WHEEL + 13 (the counts of one class row per row of vals, or the total)."""
    small, large = vals[..., : r + 1], vals[..., r + 1 :]
    small[..., : _WHEEL + 13] = table[..., : r + 1]
    for a in range(_WHEEL + 13, r + 1, _WHEEL):  # small[v] = small[v - _WHEEL] + phi
        b = min(a + _WHEEL, r + 1)
        np.add(small[..., a - _WHEEL : b - _WHEEL], phi, out=small[..., a:b])
    step = max(_BLOCK // table[..., 0].size, 1)
    for a in range(0, len(quot), step):
        v = quot[a : a + step]
        q = (v - 13) // _WHEEL
        np.maximum(q, 0, out=q)  # v < 13 only below n = 169, and reads table[v]
        x = v - q * _WHEEL
        q *= phi
        np.add(table.take(x, axis=-1), q, out=large[..., a : a + step])


_TAIL_ROWS = 256  # a prime p <= n^(1/3) that updates more kept entries stays in the head
_SMALL_PRIMES = sieve_primes(1 << 12)  # the sifting primes of every n < 2^24


def _sifted(n: int, kept: np.ndarray) -> tuple[list, np.ndarray]:
    """The primes 13 < p <= isqrt(n), from one sieve, as (heads, tail).

    heads holds (p, lim, head) for each head prime, ascending: p updates
    large[:lim], the kept i <= n // p^2, and large[:head] are those with
    i * p <= isqrt(n), read back from large (the rest read small).  tail is
    the int64 array of the rest, for `_tail_pairs`: the primes p with
    kept[0] * p^3 > n and p^2 > isqrt(n) (see `_table`), except that one
    with p^3 <= n stays in the head while it updates more than _TAIL_ROWS
    entries, where sifting it alone is the faster route.
    """
    r = isqrt(n)
    if r <= _SMALL_PRIMES[-1]:
        primes = _SMALL_PRIMES[len(_WHEEL_PRIMES) : _SMALL_PRIMES.searchsorted(r, side="right")]
    else:
        primes = sieve_primes(r)[len(_WHEEL_PRIMES) :]
    # with nothing kept there is no large part: only the p^2 <= isqrt(n) that update small stay
    first = int(kept[0]) if len(kept) else n + 1
    lo = primes.searchsorted(max(ikroot(n // first, 3), isqrt(r)), side="right")
    hi = primes.searchsorted(ikroot(n, 3), side="right")
    cube = primes[:hi]  # the primes <= n^(1/3)
    top = n // (cube * cube)  # every kept i is <= r already
    lims = kept.searchsorted(top, side="right")
    split = lo + int((lims[lo:hi] > _TAIL_ROWS).sum())  # lims descend, so a prefix
    heads = kept.searchsorted(np.minimum(top, r // cube)[:split], side="right").tolist()
    return list(zip(primes[:split].tolist(), lims[:split].tolist(), heads)), primes[split:]


# _SHIFT[q]: log_3 of q (mod 10), for q prime to 10; the row of the class c * q^-1
# is the row of c less _SHIFT[q] (mod 4)
_SHIFT = np.array([_ROWS.index(q) if q in _ROWS else 0 for q in range(10)], dtype=np.intp)
_NO_SHIFT = np.zeros(10, dtype=np.intp)  # one row: sifting p moves no counts between rows


def _table(
    n: int, divisors: np.ndarray, wheel: np.ndarray, phi: int, shift: np.ndarray
) -> Callable[[np.ndarray], np.ndarray]:
    """Prime counts at n // m for the divisors m asked for, by Lucy_Hedgehog, in
    rows laid out as data: ``wheel[..., x]`` = S(x) per row for x < _WHEEL + 13
    (1-D `_WHEEL_TOTAL`, or the 4 class rows of `_WHEEL_ROWS`), ``phi`` each
    row's counted m per period, and ``shift[p % 10]`` the row shift of sifting
    p (all zero for one row).  The table holds ``small[..., v]``, the count up
    to v, for v <= r = isqrt(n), and the count up to n // i only for the kept
    i <= r, the multiples of a requested divisor, at column pos[i] (`_kept`),
    in O(n^(3/4)) time and O(sqrt(n)) memory per row.  Its lookup maps an int64
    array of divisors m to the counts at n // m, one row per table row; it is
    right for every multiple of a requested divisor and every m > r, and
    ``divisors=[1]`` keeps every floor quotient.

    Sifting p sets S(v) -= S(v // p) - S(p - 1) for every v >= p^2, each term
    read as the table stood before p.  A number = c (mod 10) with least prime
    factor p is p * m with m = c * p^-1, so a class row reads the row of
    c * p^-1; the rows go in powers-of-3 order (_ROWS), and 3 generates
    (Z/10)^x, so for p = 3^s (mod 10) row j reads row j - s (mod 4), one
    cyclic shift for every column.  The update of large at i reads large at
    i * p (or small), a multiple of d whenever i is, so the kept set is closed
    under it; for an m <= r outside it the lookup reads an entry never built.

    The table starts after the primes 2..13 (`_wheel_start`; 2 and 5 move no
    class counts).  `_sifted` splits the primes 13 < p <= sqrt(n) into a head,
    sifted one at a time, and a tail, sifted together.  A head prime builds one
    index ``at`` into vals (the kept i with i * p <= r read large at
    pos[i * p], the rest small at (n // i) // p) and gathers it _BLOCK entries
    at a time, in column order: a block reads large only at pos[i * p] >
    pos[i], at or past its own columns, which still stand as before p.
    `_shift_sub` subtracts each block, and each block of the small update
    (whose source is read in full first), as at most two row blocks.  A tail
    prime has kept[0] * p^3 > n and p^2 > r: it writes only large at
    i <= n // p^2 < kept[0] * p, nothing in small, and reads small or large at
    i * p >= kept[0] * p, which counts to n // (i * p) < p^2 and so is written
    only by head primes.  So no tail prime reads what another writes, and
    small is final once every p <= sqrt(r) is sifted; kp_count(3 * 10^6)
    sifts 18 primes alone and 245 in the tail (34 alone with a split at
    n^(1/3)).  `_tail_pairs` yields the tail's terms in chunks; each row of a
    pair reads the row its prime's shift names, and `np.add.reduceat` sums
    them per i.
    """
    r = isqrt(n)
    kept, pos = _kept(r, divisors)
    quot = n // kept
    # small and large share one buffer: small = vals[..., : r + 1], large = vals[..., r + 1 :]
    lead = wheel.shape[:-1]  # the shape of the rows: () for one, (4,) for the classes
    vals = np.empty((*lead, r + 1 + len(kept)), dtype=np.int64)
    _wheel_start(vals, r, quot, wheel, phi)
    small, large = vals[..., : r + 1], vals[..., r + 1 :]
    heads, tail = _sifted(n, kept)

    rows = wheel[..., 0].size
    step = max(_BLOCK // rows, 1)  # columns per block
    shifts = shift.tolist()
    # one index buffer for every head prime: a fresh one per prime let the allocator return
    # its pages and fault them in again for the next, a third of the census cap's build time
    idx = np.empty(len(kept), dtype=np.intp)
    for p, lim, head in heads:
        s = shifts[p % 10]
        sp = small[..., p - 1 : p]
        at = idx[:lim]
        at[:head] = pos.take(kept[:head] * p)
        np.floor_divide(quot[head:lim], p, out=at[head:])
        for a in range(0, lim, step):
            b = min(a + step, lim)
            got = vals.take(at[a:b], axis=-1)
            got -= sp
            _shift_sub(large[..., a:b], got, s)
        if p * p <= r:
            # v // p for v = p^2..r is p, p, ..., p + 1, ... (p copies each); part is
            # read in full before small is written, and repeated about step columns at a time
            part = small[..., p : r // p + 1] - sp
            dst = small[..., p * p :]
            each = max(step // p, 1)
            for a in range(0, part.shape[-1], each):
                d = dst[..., a * p : (a + each) * p]
                _shift_sub(d, part[..., a : a + each].repeat(p, axis=-1)[..., : d.shape[-1]], s)

    # where each row reads in the flat vals when a prime p = q (mod 10) sifts, the start of
    # the row its shift names, per tail prime, and that row's count up to p - 1, final by now
    offsets = ((np.arange(rows)[:, None] - shift) % rows * vals.shape[-1]).reshape(*lead, 10)
    offsets = offsets.take(tail % 10, axis=-1)
    below = vals.take(offsets + (tail - 1))
    for lo, starts, t, at in _tail_pairs(n, tail, kept, pos):
        flat = offsets.take(t, axis=-1)
        flat += at
        got = vals.take(flat)
        got -= below.take(t, axis=-1)
        large[..., lo : lo + len(starts)] -= np.add.reduceat(got, starts, axis=-1)

    def lookup(ms: np.ndarray) -> np.ndarray:
        return vals.take(_at(n, r, pos, ms), axis=-1)

    return lookup


def _pi_table(n: int, divisors: np.ndarray) -> Callable[[np.ndarray], np.ndarray]:
    """pi(n // m) for the divisors m asked for (see `_table`)."""
    return _table(n, divisors, _WHEEL_TOTAL, _WHEEL_PHI, _NO_SHIFT)


def _pi_mod10_table(n: int, divisors: np.ndarray) -> Callable[[np.ndarray], np.ndarray]:
    """pi(n // m; 10, c) for c = 1, 3, 9, 7 (_ROWS), one row each (see `_table`)."""
    return _table(n, divisors, _WHEEL_ROWS, _WHEEL_PHI // 4, _SHIFT)


def _shift_sub(dst: np.ndarray, got: np.ndarray, s: int) -> None:
    """dst[j] -= got[j - s] along the first axis (mod its length); s = 0 for one row."""
    if s:
        dst[:s] -= got[-s:]
        dst[s:] -= got[:-s]
    else:
        dst -= got


def _at(n: int, r: int, pos: np.ndarray, ms: np.ndarray) -> np.ndarray:
    """The column of a table's vals that holds the count up to n // m, for each divisor m."""
    at = n // ms
    big = at > r  # then m <= n // (r + 1) <= r, and pi(n // m) is large for m
    at[big] = pos[ms[big]]
    return at


_TAIL_CHUNK = 1 << 12  # (i, p) pairs gathered at once by the batched tail


def _tail_pairs(
    n: int, tail: np.ndarray, kept: np.ndarray, pos: np.ndarray
) -> Iterator[tuple[int, np.ndarray, np.ndarray, np.ndarray]]:
    """The (i, p) updates of the batched tail over the kept i, grouped by i, in chunks.

    tail holds the ascending tail primes of `_sifted`; p updates large[i]
    for i <= n // p^2, so the primes updating large[i] are the prefix of tail
    with p^2 <= n // i.  Only the kept i (a closed set, see `_table`) are
    grouped, so i * p of a kept i is kept too.  Pairs are ordered by i, then
    p, and cut into chunks of at most _TAIL_CHUNK pairs (a group may span
    chunks).  Each chunk yields (lo, starts, t, at): its groups update the
    large entries lo, lo + 1, ..., group g starts at pair starts[g], and the
    pair with p = tail[t] reads the count up to (n // i) // p from a row of
    vals at column at, the table's buffer that holds small[v] at v and
    large[j] at r + 1 + j.
    """
    if len(tail) == 0:
        return
    r = isqrt(n)
    squares = tail * tail
    rows = kept[: kept.searchsorted(n // int(squares[0]), side="right")]
    if len(rows) == 0:
        return
    per = squares.searchsorted(n // rows, side="right")
    ends = per.cumsum()  # pairs of rows[g] are ends[g] - per[g] .. ends[g] - 1
    begins = ends - per
    for a in range(0, int(ends[-1]), _TAIL_CHUNK):
        b = min(a + _TAIL_CHUNK, int(ends[-1]))
        g0 = int(ends.searchsorted(a, side="right"))
        g1 = int(begins.searchsorted(b))
        first = np.maximum(begins[g0:g1], a)
        sizes = np.minimum(ends[g0:g1], b) - first
        t = np.arange(a, b) - begins[g0:g1].repeat(sizes)
        # no other chunk-sized array stays referenced while the caller works
        yield g0, first - a, t, _at(n, r, pos, rows[g0:g1].repeat(sizes) * tail[t])


def _kp_divisors(n: int, k: int) -> np.ndarray:
    """The a^k of the bases a >= 2 with a prime p >= 2 such that p * a^k <= n."""
    a_max = ikroot(n // 2, k) if n >= 2 else 0
    return np.arange(2, a_max + 1, dtype=np.int64) ** k


def _psp_divisors(n: int, k: int) -> np.ndarray:
    """The p2^k of the primes p2 with a prime p1 >= 2 such that p1 * p2^k <= n."""
    return sieve_primes(ikroot(n // 2, k) if n >= 2 else 0) ** k


# each family's divisor builder and estimator; its members are m * p, m a divisor, p prime
_FAMILIES = {
    "kp": (_kp_divisors, analytic.kp_estimate),
    "psp": (_psp_divisors, analytic.psp_estimate),
}


def _divisors(n: int, k: int, family: str) -> np.ndarray:
    """The divisors m of family's members m * p <= n, ascending."""
    if k < 2:
        raise ValueError(f"{family}_count requires k >= 2, got {k}")
    return _FAMILIES[family][0](n, k)


def _count(n: int, k: int, family: str) -> int:
    """Count of family's members <= n: the sum of pi(n // m) over its divisors m."""
    ms = _divisors(n, k, family)
    return int(_pi_table(n, ms)(ms).sum()) if len(ms) else 0


def kp_count(n: int, k: int = 2) -> int:
    """Count of KP_k numbers <= n via the identity sum over a of pi(n/a^k)."""
    return _count(n, k, "kp")


def psp_count(n: int, k: int = 2) -> int:
    """Count of p1*p2^k numbers <= n via the sum over p2 of pi(n/p2^k).

    The inner pi runs over all primes, so p1 = p2 cases (8 = 2*2^2) are
    counted, as the defining form allows.
    """
    return _count(n, k, "psp")


def digit_census(n: int) -> DigitCensus:
    """Tallies of SP numbers <= n by final decimal digit.

    The final digit of p * m is (p mod 10) * (m mod 10) mod 10, so digit d
    collects pi(n // m; 10, c) over the divisors m = a^2 and the classes c
    with c * m = d (mod 10), from one class table for n.  Each class row is
    first summed over the divisors of each residue m mod 10, as are p = 2
    and p = 5, taken once by each m <= n // 2 and each m <= n // 5; only
    those 6 x 10 sums are tallied by digit.  Both sums are `np.bincount`
    weights, exact in float64: each partial sum is an integer below n, and
    n < 2**53 (the CLI caps it at 10**11).
    """
    squares = _kp_divisors(n, 2)
    got = _pi_mod10_table(n, squares)(squares)
    residue = squares % 10
    # taken[j, t]: the primes of class j (_ROWS, then 2 and 5) taken by the m = t (mod 10)
    taken = [np.bincount(residue, weights=row, minlength=10) for row in got] + [
        np.bincount(residue[: squares.searchsorted(n // p, side="right")], minlength=10)
        for p in (2, 5)]
    digit = np.array(_ROWS + (2, 5))[:, None] * np.arange(10) % 10
    tally = np.bincount(digit.ravel(), weights=np.concatenate(taken), minlength=10)
    return DigitCensus(n, tuple(int(c) for c in tally))


def census_table(
    checkpoints: list[int], k: int = 2, family: str = "kp"
) -> list[CensusRow]:
    """One CensusRow per checkpoint: exact count, analytic estimate, ratio.

    family "kp" counts p*a^k against the (zeta(k)-1)*n/ln n estimate;
    family "psp" counts p1*p2^k against P(k)*n/ln n.

    One table for the largest checkpoint N answers every checkpoint c that
    is a floor quotient of N (N // (N // c) == c, as on any power-of-ten
    grid): c // m = N // ((N // c) * m), and (N // c) * m is a multiple of
    m, which is one of N's own divisors, so N's table keeps it.  Other
    checkpoints get their own table.
    """
    if family not in _FAMILIES:
        raise ValueError(f"family must be 'kp' or 'psp', got {family!r}")
    if any(b < 2 for b in checkpoints):
        raise ValueError("checkpoints must be >= 2")
    if list(checkpoints) != sorted(checkpoints):
        raise ValueError("checkpoints must be ascending")
    estimate = _FAMILIES[family][1]
    top = checkpoints[-1] if checkpoints else 0
    # every checkpoint's divisors are the prefix of top's that is <= n // 2
    every = _divisors(top, k, family)
    full = None  # the table for top, built on first use
    rows = []
    for n in checkpoints:
        ms, scale = every[: every.searchsorted(n // 2, side="right")], top // n
        if top // scale == n and len(ms):
            if full is None:
                full = _pi_table(top, every)
            exact = int(full(scale * ms).sum())
        else:
            exact = _count(n, k, family)
        rows.append(CensusRow(n, exact, estimate(n, k), exact * log(n) / n))
    return rows
