"""Exact counting of p*a^k and p1*p2^k numbers up to n.

The library counts by the prime-counting identity only: `kp_count` sums
pi(n/a^k), `psp_count` sums pi(n/p2^k), and `digit_census` sums
pi(n/a^2; 10, c) by final digit.  The independent route, enumerating the
members by a heap merge of per-base streams, is kept in `tests/` as the
oracle these counts must equal exactly.
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
    pos[i] = the index of i among them (meaningless for any other i).

    Divisors are marked ascending, skipping any that a smaller one already
    covers, so for the a^k of kp_count only the primes a mark.
    """
    mark = np.zeros(r + 1, dtype=bool)
    for d in sorted(set(divisors[divisors <= r].tolist())):
        if not mark[d]:
            mark[d::d] = True
    kept = mark.nonzero()[0]
    pos = np.zeros(r + 1, dtype=np.int32 if r < 2**31 else np.int64)
    pos[kept] = np.arange(len(kept), dtype=pos.dtype)
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


def _wheel_start(vals: np.ndarray, r: int, quot: np.ndarray, table: np.ndarray, phi: int) -> None:
    """Fill a table's vals with S(v) before any sifting past 13: small[v] = S(v) for
    v <= r and large[j] = S(quot[j]), in place, from table[..., x] = S(x) for
    x < _WHEEL + 13 (the counts of one class row per row of vals, or the total)."""
    small, large = vals[..., : r + 1], vals[..., r + 1 :]
    small[..., : _WHEEL + 13] = table[..., : r + 1]
    for a in range(_WHEEL + 13, r + 1, _WHEEL):  # small[v] = small[v - _WHEEL] + phi
        b = min(a + _WHEEL, r + 1)
        np.add(small[..., a - _WHEEL : b - _WHEEL], phi, out=small[..., a:b])
    for a in range(0, len(quot), _CHUNK):
        v = quot[a : a + _CHUNK]
        q = (v - 13) // _WHEEL
        np.maximum(q, 0, out=q)  # v < 13 only below n = 169, and reads table[v]
        x = v - q * _WHEEL
        q *= phi
        np.add(table.take(x, axis=-1), q, out=large[..., a : a + _CHUNK])


_TAIL_ROWS = 256  # a prime p <= n^(1/3) that updates more kept entries stays in the head
_SMALL_PRIMES = sieve_primes(1 << 12)  # the sifting primes of every n < 2^24


def _sifted(n: int, kept: np.ndarray) -> tuple[list, np.ndarray]:
    """The primes 13 < p <= isqrt(n), from one sieve, as (heads, tail).

    heads holds (p, lim, head) for each head prime, ascending: p updates
    large[:lim], the kept i <= n // p^2, and large[:head] are those with
    i * p <= isqrt(n), read back from large (the rest read small).  tail is
    the int64 array of the rest, for `_tail_pairs`: the primes p with
    kept[0] * p^3 > n and p^2 > isqrt(n) (see `_pi_table`), except that one
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


def _pi_table(n: int, divisors: np.ndarray) -> Callable[[np.ndarray], np.ndarray]:
    """pi(n // m) for the divisors m asked for, by Lucy_Hedgehog.

    Builds ``small[v] = pi(v)`` for v <= r = isqrt(n), and
    ``large[pos[i]] = pi(n // i)`` only for the i <= r in ``kept``, the
    multiples of a requested divisor, in O(n^(3/4)) time and O(sqrt(n))
    memory.  It returns a lookup that maps an int64 array of divisors m to
    pi(n // m).  The lookup is right for every multiple m of a requested
    divisor and for every m > r; ``divisors=[1]`` keeps every i, the full
    table of every floor quotient.

    The recurrence updates large[i] from large[i * p] (or from small), and
    i * p is a multiple of d whenever i is, so the kept set is closed under
    it and nothing else is computed.  For an m <= r outside it the lookup
    reads an entry that was never built and answers wrong.

    The table starts as it stands after the primes 2..13 (`_wheel_start`).
    `_sifted` splits the primes 13 < p <= sqrt(n) into a head, sifted one
    at a time, in order, and a tail, sifted together by `_tail_pairs`.  A
    tail prime has kept[0] * p^3 > n and p^2 > r, so it writes only large[i]
    for i <= n // p^2 < kept[0] * p and nothing in small, and it reads
    large[i * p] with i * p >= kept[0] * p (every kept i is >= kept[0]), or
    small.  So no tail prime reads what another writes (the least one
    writes the most), and every read already holds what it held before p:
    large[i * p] is only written by head primes and counts to
    n // (i * p) < p^2, and small[v] = pi(v) for all v once p <= sqrt(r) is
    sifted.  For kp_count(3 * 10^6) that sifts 18 primes alone and 245 in
    the tail (a split at n^(1/3) sifted 34 alone).
    The tail gathers its terms _TAIL_CHUNK pairs at a time and sums them per
    i with `np.add.reduceat`, so its memory stays a few arrays of 2^12 entries.
    """
    r = isqrt(n)
    kept, pos = _kept(r, divisors)
    quot = n // kept
    # small and large share one buffer: small[v] = vals[v], large[j] = vals[r + 1 + j]
    vals = np.empty(r + 1 + len(kept), dtype=np.int64)
    _wheel_start(vals, r, quot, _WHEEL_TOTAL, _WHEEL_PHI)
    small, large = vals[: r + 1], vals[r + 1 :]
    heads, tail = _sifted(n, kept)

    for p, lim, head in heads:
        # pi(v) -= pi(v // p) - pi(p - 1) for every quotient v >= p^2.  Each
        # right-hand side is read in full before its in-place update, so
        # every term sees the table as it stood before p.
        sp = small[p - 1]
        large[:head] -= large.take(pos.take(kept[:head] * p)) - sp
        large[head:lim] -= small.take(quot[head:lim] // p) - sp
        if p * p <= r:
            # v // p for v = p^2..r is p, p, ..., p + 1, ... (p copies each)
            drop = np.repeat(small[p : r // p + 1], p)[: r + 1 - p * p]
            drop -= sp
            small[p * p :] -= drop
    for lo, starts, p, at in _tail_pairs(n, tail, kept, pos):
        large[lo : lo + len(starts)] -= np.add.reduceat(vals.take(at) - small[p - 1], starts)

    def lookup(ms: np.ndarray) -> np.ndarray:
        return vals[_at(n, r, pos, ms)]

    return lookup


def _at(n: int, r: int, pos: np.ndarray, ms: np.ndarray) -> np.ndarray:
    """Where a table's vals buffer holds pi(n // m), for each divisor m."""
    at = n // ms
    big = at > r  # then m <= n // (r + 1) <= r, and pi(n // m) is large[pos[m]]
    at[big] = r + 1 + pos[ms[big]]
    return at


_TAIL_CHUNK = 1 << 12  # (i, p) pairs gathered at once by the batched tail


def _tail_pairs(
    n: int, tail: np.ndarray, kept: np.ndarray, pos: np.ndarray
) -> Iterator[tuple[int, np.ndarray, np.ndarray, np.ndarray]]:
    """The (i, p) updates of the batched tail over the kept i, grouped by i, in chunks.

    tail holds the ascending tail primes of `_sifted`; p updates large[i]
    for i <= n // p^2, so the primes updating large[i] are the prefix of tail
    with p^2 <= n // i.  Only the kept i (a closed set, see `_pi_table`) are
    grouped, so i * p of a kept i is kept too.  Pairs are ordered by i, then
    p, and cut into chunks of at most _TAIL_CHUNK pairs (a group may span
    chunks).  Each chunk yields (lo, starts, p, at): its groups update the
    large entries lo, lo + 1, ..., group g starts at pair starts[g], and the
    pair reads pi((n // i) // p) from vals[at], the table's buffer that
    holds small[v] at v and large[j] at r + 1 + j.
    """
    if len(tail) == 0:
        return
    r = isqrt(n)
    squares = tail * tail
    rows = kept[: kept.searchsorted(n // int(squares[0]), side="right")]
    if len(rows) == 0:
        return
    per = np.searchsorted(squares, n // rows, side="right")
    ends = np.cumsum(per)  # pairs of rows[g] are ends[g] - per[g] .. ends[g] - 1
    begins = ends - per
    for a in range(0, int(ends[-1]), _TAIL_CHUNK):
        b = min(a + _TAIL_CHUNK, int(ends[-1]))
        g0 = int(np.searchsorted(ends, a, side="right"))
        g1 = int(np.searchsorted(begins, b, side="left"))
        first = np.maximum(begins[g0:g1], a)
        sizes = np.minimum(ends[g0:g1], b) - first
        # no other chunk-sized array stays referenced while the caller works
        p = tail[np.arange(a, b) - np.repeat(begins[g0:g1], sizes)]
        yield g0, first - a, p, _at(n, r, pos, np.repeat(rows[g0:g1], sizes) * p)


_CHUNK = 1 << 14  # columns of the class table a head prime gathers or repeats at once
# _SHIFT[q]: log_3 of q (mod 10), for q prime to 10; the row of the class c * q^-1
# is the row of c less _SHIFT[q] (mod 4)
_SHIFT = np.array([_ROWS.index(q) if q in _ROWS else 0 for q in range(10)], dtype=np.intp)


def _pi_mod10_table(n: int, divisors: np.ndarray) -> Callable[[np.ndarray], np.ndarray]:
    """pi(n // m; 10, c) for c = 1, 3, 9, 7 (_ROWS) and the divisors m asked for.

    `_pi_table` with one row per class, over the same kept i and with the
    same closure argument (so the lookup is wrong for m outside it):
    small[j, v] and large[j, pos[i]] count the primes = _ROWS[j] (mod 10)
    up to v and up to n // i.  A number = c (mod 10) with least prime
    factor p is p * m with m = c * p^-1, so sifting p moves counts between
    rows.  The table starts as it stands after 2..13, as `_pi_table` does
    (2 and 5 divide no member of a class, so move no counts).  The
    lookup maps an int64 array of divisors m to a (4, len) array of counts,
    one row per class in the order of _ROWS.

    The rows are stored in powers-of-3 order, 3^0, 3^1, 3^2, 3^3 (mod 10):
    3 generates the cyclic group (Z/10)^x, so for p = 3^s (mod 10) the class
    3^j * p^-1 is 3^(j - s), and sifting p updates row j from row j - s
    (mod 4).  The move is a cyclic shift of the rows, the same for every
    column, so each head prime builds one index ``at`` into a row of vals
    (large[:head] reads large at pos[i * p], the rest of large[:lim] reads
    small at (n // i) // p), gathers all four rows with one 2-D ``take``
    per _CHUNK columns, and subtracts each gathered block from large as at
    most two contiguous row blocks, with no per-row permutation.  Blocks go
    in column order: a block reads large only at pos[i * p] > pos[i], at
    or past its own columns, so everything it reads still stands as before
    p.  The small update shifts the same way, after reading its source in
    full.
    """
    r = isqrt(n)
    kept, pos = _kept(r, divisors)
    quot = n // kept
    vals = np.empty((4, r + 1 + len(kept)), dtype=np.int64)
    _wheel_start(vals, r, quot, _WHEEL_ROWS, _WHEEL_PHI // 4)
    small, large = vals[:, : r + 1], vals[:, r + 1 :]
    heads, tail = _sifted(n, kept)

    shifts = _SHIFT.tolist()
    for p, lim, head in heads:
        # pi(v; c) -= pi(v // p; c * p^-1) - pi(p - 1; c * p^-1) for every v >= p^2,
        # every term read as the table stood before p
        s = shifts[p % 10]
        at = np.concatenate([pos.take(kept[:head] * p) + (r + 1), quot[head:lim] // p])
        for a in range(0, lim, _CHUNK):
            got = vals.take(at[a : a + _CHUNK], axis=1)
            got -= small[:, p - 1 : p]
            _shift_sub(large[:, a : a + got.shape[1]], got, s)
        del at  # so the small update's copies do not add to it
        if p * p <= r:
            # v // p for v = p^2..r is p, p, ..., p + 1, ... (p copies each);
            # part is read in full before small is written, and repeated a
            # block of about _CHUNK columns at a time
            part = small[:, p : r // p + 1] - small[:, p - 1 : p]
            dst = small[:, p * p :]
            step = _CHUNK // p + 1
            for a in range(0, part.shape[1], step):
                d = dst[:, a * p : (a + step) * p]
                _shift_sub(d, np.repeat(part[:, a : a + step], p, axis=1)[:, : d.shape[1]], s)

    # the tail primes sift all at once, as in _pi_table; row j of
    # each pair reads row j - s of its prime
    rows = np.arange(4)[:, None]
    width = vals.shape[1]
    for lo, starts, p, at in _tail_pairs(n, tail, kept, pos):
        # flat indices into vals: row j - s of each pair at its column, then at p - 1
        flat = (rows - _SHIFT[p % 10]) % 4 * width
        flat += at
        got = vals.take(flat)
        flat += p - 1 - at
        got -= vals.take(flat)
        large[:, lo : lo + len(starts)] -= np.add.reduceat(got, starts, axis=1)

    def lookup(ms: np.ndarray) -> np.ndarray:
        return vals.take(_at(n, r, pos, ms), axis=1)

    return lookup


def _shift_sub(dst: np.ndarray, got: np.ndarray, s: int) -> None:
    """dst[j] -= got[j - s] for the four rows j (mod 4): two block subtracts."""
    dst[s:] -= got[: 4 - s]
    if s:
        dst[:s] -= got[4 - s :]


def _kp_divisors(n: int, k: int) -> np.ndarray:
    """The a^k of the bases a >= 2 with a prime p >= 2 such that p * a^k <= n."""
    a_max = ikroot(n // 2, k) if n >= 2 else 0
    return np.arange(2, a_max + 1, dtype=np.int64) ** k


def _psp_divisors(n: int, k: int) -> np.ndarray:
    """The p2^k of the primes p2 with a prime p1 >= 2 such that p1 * p2^k <= n."""
    return sieve_primes(ikroot(n // 2, k) if n >= 2 else 0) ** k


def _pi_sum(n: int, divisors: np.ndarray) -> int:
    """The sum of pi(n // m) over the divisors m."""
    if len(divisors) == 0:
        return 0
    return int(_pi_table(n, divisors)(divisors).sum())


def kp_count(n: int, k: int = 2) -> int:
    """Count of KP_k numbers <= n via the identity sum over a of pi(n/a^k)."""
    if k < 2:
        raise ValueError(f"kp_count requires k >= 2, got {k}")
    return _pi_sum(n, _kp_divisors(n, k))


def psp_count(n: int, k: int = 2) -> int:
    """Count of p1*p2^k numbers <= n via the sum over p2 of pi(n/p2^k).

    The inner pi runs over all primes, so p1 = p2 cases (8 = 2*2^2) are
    counted, as the defining form allows.
    """
    if k < 2:
        raise ValueError(f"psp_count requires k >= 2, got {k}")
    return _pi_sum(n, _psp_divisors(n, k))


_RESIDUES = _ROWS + (2, 5)  # every residue mod 10 of a prime, the classes in row order
# _DIGIT[j, t]: the final digit of p * a^2 for p = _RESIDUES[j] and a = t + 2 (mod 10)
_DIGIT = np.array(_RESIDUES)[:, None] * np.arange(2, 12) ** 2 % 10


def digit_census(n: int) -> DigitCensus:
    """Tallies of SP numbers <= n by final decimal digit.

    The final digit of p * a^2 is (p mod 10) * (a^2 mod 10) mod 10, so
    digit d collects pi(n // a^2; 10, c) over the bases a and classes c
    with c * a^2 = d (mod 10), from one class table for n; p = 2 and p = 5
    add one each where n // a^2 reaches them.  a^2 mod 10 follows a mod 10,
    so each row is first summed over the bases of each a mod 10, in one
    exact int64 pass, and only those 6 x 10 sums are tallied by digit.
    """
    squares = _kp_divisors(n, 2)
    bases = len(squares)  # a = 2, 3, ..., bases + 1
    if bases == 0:
        return DigitCensus(n, (0,) * 10)
    got = _pi_mod10_table(n, squares)(squares)  # column c is the base a = c + 2
    # taken[j, t]: the primes = _RESIDUES[j] (mod 10) taken by the bases a = t + 2 (mod 10)
    cut = bases - bases % 10
    taken = np.empty((6, 10), dtype=np.int64)
    taken[:4] = got[:, :cut].reshape(4, -1, 10).sum(axis=1)
    taken[:4, : bases - cut] += got[:, cut:]
    # every base takes p = 2 (a^2 <= n // 2), and the first isqrt(n // 5) - 1 take p = 5;
    # of the first m bases, (m + 9 - t) // 10 have a = t + 2 (mod 10)
    m = np.array([[bases], [max(isqrt(n // 5) - 1, 0)]])
    taken[4:] = (m + 9 - np.arange(10)) // 10
    tally = np.zeros(10, dtype=np.int64)
    np.add.at(tally, _DIGIT, taken)
    return DigitCensus(n, tuple(tally.tolist()))


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
    fam = family.lower()
    if fam not in ("kp", "psp"):
        raise ValueError(f"family must be 'kp' or 'psp', got {family!r}")
    if any(b < 2 for b in checkpoints):
        raise ValueError("checkpoints must be >= 2")
    if list(checkpoints) != sorted(checkpoints):
        raise ValueError("checkpoints must be ascending")
    if k < 2:
        raise ValueError(f"{fam}_count requires k >= 2, got {k}")
    if fam == "kp":
        divisors, estimate = _kp_divisors, analytic.kp_estimate
    else:
        divisors, estimate = _psp_divisors, analytic.psp_estimate
    top = checkpoints[-1] if checkpoints else 0
    full = None  # the table for top, built on first use
    rows = []
    for n in checkpoints:
        ms, scale = divisors(n, k), top // n
        if top // scale == n and len(ms):
            if full is None:
                full = _pi_table(top, divisors(top, k))
            exact = int(full(scale * ms).sum())
        else:
            exact = _pi_sum(n, ms)
        rows.append(CensusRow(n, exact, estimate(n, k), exact * log(n) / n))
    return rows
