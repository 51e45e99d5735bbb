"""Counting routes cross-checked against each other and brute force.

The enumeration route, `kp_enumerate`, lives here: the library counts by
the prime-counting identity only, and the other test modules import this
oracle from here.
"""

import heapq
import random
import re
import tracemalloc
from bisect import bisect_right
from math import gcd, isqrt, log
from typing import Iterator

import numpy as np
import pytest

from spnum import analytic, census
from spnum.arith import ikroot, sieve_primes
from spnum.census import (
    CensusRow,
    DigitCensus,
    _pi_mod10_table,
    _pi_table,
    census_table,
    digit_census,
    kp_count,
    psp_count,
)
from spnum.classify import KpWitness, kp_decompose
from test_classify import psp_decompose


def _prime_mask(x: int) -> bytearray:
    """mask[v] = 1 iff v is prime, for 0 <= v <= x (x >= 1)."""
    mask = bytearray([1]) * (x + 1)
    mask[0:2] = b"\x00\x00"
    for p in range(2, isqrt(x) + 1):
        if mask[p]:
            mask[p * p :: p] = b"\x00" * len(mask[p * p :: p])
    return mask


def _pi_brute(x: int) -> int:
    return sum(_prime_mask(x)) if x >= 2 else 0


ONE = np.array([1], dtype=np.int64)  # the divisors that keep the whole table


def prime_pi(x: int) -> int:
    """Number of primes <= x, read off the full floor-quotient table for x
    (divisors [1]): the library route under test at a single point."""
    if x < 2:
        return 0
    return int(_pi_table(x, ONE)(ONE)[0])


def pi_segmented(xs, segment_size: int = 1 << 20) -> dict[int, int]:
    """pi(x) for every query in xs, in one segmented-sieve pass up to max(xs).

    Test oracle for the library's floor-quotient table: a different
    algorithm, memory O(segment_size + sqrt(max(xs))), practical to ~1e8.
    """
    queries = sorted({int(x) for x in xs})
    out = {x: 0 for x in queries if x < 2}
    queries = [x for x in queries if x >= 2]
    if not queries:
        return out
    top = queries[-1]
    base_mask = _prime_mask(isqrt(top))
    base = [p for p in range(2, len(base_mask)) if base_mask[p]]
    count = 0
    qi = 0
    for lo in range(2, top + 1, segment_size):
        hi = min(lo + segment_size, top + 1)
        seg = np.ones(hi - lo, dtype=bool)
        for p in base:
            start = max(p * p, ((lo + p - 1) // p) * p)
            if start < hi:
                seg[start - lo :: p] = False
        cum = np.cumsum(seg)
        while qi < len(queries) and queries[qi] < hi:
            out[queries[qi]] = count + int(cum[queries[qi] - lo])
            qi += 1
        count += int(cum[-1])
    return out


# Published values of pi(10^k).
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
    10**11: 4118054813,
}


def digit_tally_enumerated(n: int) -> tuple[int, ...]:
    """SP counts <= n by final digit, by enumeration: the test oracle for
    the class-table identity behind `digit_census`."""
    counts = [0] * 10
    for w in kp_enumerate(n, 2):
        counts[w.n % 10] += 1
    return tuple(counts)


# digit_census(n).counts; perfbench/oracle.digit_tally, a separate
# enumeration, gives the same tallies at 10^8 and 10^9.  The 10^11 tally, at
# the CLI cap, is the one the first class table gave, and the row-loop table
# below gives it too.
DIGITS_AT = {
    10**8: (150173, 341025, 677948, 344490, 671649, 377309, 671740, 344347, 678016, 341146),
    10**9: (1226011, 2910749, 5817886, 2921319, 5797707, 3191168, 5797787, 2921642, 5818342,
            2910706),
    10**11: (90239780, 224555976, 455089088, 224674344, 454878169, 244509223, 454877666,
             224671237, 455088242, 224556921),
}


ROW_LOOP_ORDER = (1, 3, 7, 9)  # the oracle's own row order, so it cannot follow the library's


def pi_mod10_table_rows(n: int, divisors: np.ndarray):
    """The class table's earlier route, kept as the oracle of `_pi_mod10_table`:
    it finds the head primes by scanning small for a step in any row, and
    updates large by a 2-D (row, column) gather for the head part and one row
    at a time for the rest.  Same kept i, same tail, same lookup, with its
    rows in ROW_LOOP_ORDER."""
    r = isqrt(n)
    kept, pos = census._kept(r, divisors)
    quot = n // kept
    order = ROW_LOOP_ORDER
    classes = np.array(order, dtype=np.int64)[:, None]
    gather = np.zeros((10, 4), dtype=np.intp)
    for q in order:
        gather[q] = [order.index(c * pow(q, -1, 10) % 10) for c in order]
    v = np.concatenate([np.arange(r + 1, dtype=np.int64), quot])
    vals = (v - classes + 10) // 10
    vals[0] -= v >= 1
    small, large = vals[:, : r + 1], vals[:, r + 1 :]
    cube = ikroot(n, 3)

    def sift(p: int) -> None:
        g = gather[p % 10]
        sp = small[g, p - 1]
        # large[:lim] holds the kept i <= n // p^2, large[:head] those with i * p <= r too
        top = n // (p * p)
        lim = int(kept.searchsorted(top, side="right"))
        head = int(kept.searchsorted(min(top, r // p), side="right"))
        large[:, :head] -= vals[g[:, None], pos[kept[:head] * p]] - sp[:, None]
        idx = quot[head:lim] // p
        for j, row in enumerate(g.tolist()):
            large[j, head:lim] -= small[row][idx] - sp[j]
        if p * p <= r:
            part = small[g, p : r // p + 1]
            for j in range(4):
                drop = np.repeat(part[j], p)[: r + 1 - p * p]
                drop -= sp[j]
                small[j, p * p :] -= drop

    root = isqrt(r)
    for p in range(3, root + 1):
        if (small[:, p] != small[:, p - 1]).any():  # p is prime, and not 5
            sift(p)
    total = small.sum(axis=0)
    primes = (total[root + 1 :] != total[root:-1]).nonzero()[0] + root + 1
    tail = primes[primes > cube]
    for p in primes[: len(primes) - len(tail)].tolist():
        sift(p)
    for lo, starts, t, at in census._tail_pairs(n, tail, kept, pos):
        p = tail[t]
        g = gather[p % 10]
        for j in range(4):
            src = g[:, j]
            got = vals[src, at] - small[src, p - 1]
            large[j, lo : lo + len(starts)] -= np.add.reduceat(got, starts)

    def lookup(ms: np.ndarray) -> np.ndarray:
        return vals[:, census._at(n, r, pos, ms)]

    return lookup


def row_loop_counts(n: int, divisors: np.ndarray, ms: np.ndarray) -> np.ndarray:
    """The row-loop oracle's counts at ms, its rows put in `census._ROWS` order."""
    got = pi_mod10_table_rows(n, divisors)(ms)
    return got[[ROW_LOOP_ORDER.index(c) for c in census._ROWS]]


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


def _kp_mask(limit: int, k: int) -> np.ndarray:
    """Bool mask of KP_k membership for 0..limit by exponent reduction.

    Third, vectorized route: divide out p^k factors for every p with
    p^k <= limit; the residue is prod p^(e mod k), and membership is
    'residue prime and not n itself'.
    """
    res = np.arange(limit + 1, dtype=np.int64)
    for p in sieve_primes(int(limit ** (1.0 / k)) + 1).tolist():
        q = p**k
        if q > limit:
            continue
        while True:
            hit = res % q == 0
            hit[0] = False
            if not hit.any():
                break
            res[hit] //= q
    prime = np.zeros(limit + 1, dtype=bool)
    prime[sieve_primes(limit)] = True
    return prime[res] & (res != np.arange(limit + 1))


def test_prime_pi_examples():
    assert prime_pi(1) == 0
    assert prime_pi(2) == 1
    assert prime_pi(10) == 4
    assert prime_pi(100) == 25
    assert prime_pi(10**6) == 78498


def test_prime_pi_published():
    for x, want in PUBLISHED_PI.items():
        assert prime_pi(x) == want, x


def test_prime_pi_matches_sieve():
    squares = [q for p in (2, 3, 5, 7, 11, 97, 541, 1009) for q in (p * p - 1, p * p, p * p + 1)]
    xs = [0, 1, 2, 3, *squares, 541, 542, 9999, 10**5 + 3, 123457, 999983]
    oracle = pi_segmented(xs)
    for x in xs:
        assert prime_pi(x) == oracle[x] == _pi_brute(x), x


def test_prime_pi_small_segments():
    # a tiny oracle segment size forces many segment crossings
    xs = (0, 1, 2, 100, 101, 102, 997, 1000, 10**4 + 7)
    oracle = pi_segmented(xs, segment_size=101)
    for x in xs:
        assert oracle[x] == prime_pi(x) == _pi_brute(x), x


# n < 8 has no tail prime; p^3 - 1, p^3, p^3 + 1 put p on either side of the
# head/tail split at ikroot(n, 3); for n = q^2 * (q - 1) the least tail prime
# is q and n // (q - 1) = q^2, its last update.
TABLE_NS = (*range(0, 50), 99, 100, 101, 9999, 10**4, 123456, 10**6 + 7,
            *(p**3 + d for p in (2, 3, 5, 7, 11, 101) for d in (-1, 0, 1)),
            *(q * q * (q - 1) for q in (11, 23, 101)))
# (n, tail chunk): chunks of 1 and 3 pairs cross every chunk boundary of the tail
TABLE_CASES = [(n, census._TAIL_CHUNK) for n in TABLE_NS] + [(10**6 + 7, 1), (10**6 + 7, 3)]


def _floor_quotients(n: int) -> list[int]:
    # both halves of the table: quotients v <= isqrt(n) and n // i for i <= isqrt(n)
    return sorted({n // m for m in range(1, isqrt(n) + 2)} | set(range(isqrt(n) + 1)))


def _divisors_of(n: int, quotients: list[int]) -> np.ndarray:
    # a divisor m with n // m == q for each floor quotient q of n (n + 1 for q = 0)
    return np.array([n // q if q else n + 1 for q in quotients], dtype=np.int64)


def test_pi_table_at_every_floor_quotient(monkeypatch):
    for n, chunk in TABLE_CASES:
        monkeypatch.setattr(census, "_TAIL_CHUNK", chunk)
        quotients = _floor_quotients(n)
        got = _pi_table(n, ONE)(_divisors_of(n, quotients)).tolist()
        oracle = pi_segmented(quotients, segment_size=4096)
        assert got == [oracle[q] for q in quotients], (n, chunk)


def test_pi_mod10_table_at_every_floor_quotient(monkeypatch):
    for n, chunk in TABLE_CASES:
        monkeypatch.setattr(census, "_TAIL_CHUNK", chunk)
        quotients = _floor_quotients(n)
        got = _pi_mod10_table(n, ONE)(_divisors_of(n, quotients))
        primes = np.flatnonzero(np.frombuffer(_prime_mask(max(n, 1)), dtype=np.uint8))
        for row, c in zip(got.tolist(), census._ROWS):
            want = np.searchsorted(primes[primes % 10 == c], quotients, side="right")
            assert row == want.tolist(), (n, c, chunk)


# The counts read pi(n // m) from tables that keep only the multiples of the
# divisors m they are asked for; the oracle is the same count read off the
# full table (divisors [1]), which the two tests above hold to exact pi.
FAMILIES = [(f, k) for k in (2, 3, 4) for f in (kp_count, psp_count)]


def _divisors(count, n: int, k: int) -> np.ndarray:
    return (census._kp_divisors if count is kp_count else census._psp_divisors)(n, k)


def _assert_counts_match_full_route(n: int) -> None:
    full = _pi_table(n, ONE)
    for count, k in FAMILIES:
        ms = _divisors(count, n, k)
        assert count(n, k) == int(full(ms).sum()), (count.__name__, n, k)


def _full_route_digits(monkeypatch, ns) -> dict[int, tuple[int, ...]]:
    full_table = census._pi_mod10_table
    with monkeypatch.context() as m:
        m.setattr(census, "_pi_mod10_table", lambda n, divisors: full_table(n, ONE))
        return {n: digit_census(n).counts for n in ns}


def _seeded_bounds(count: int, top: int) -> list[int]:
    # log-uniform in [2, top], so every decade gets its share
    rng = random.Random(20221)
    return sorted(round(2 * (top / 2) ** rng.random()) for _ in range(count))


BIG_BOUNDS = (2**31 - 3, 2**31 + 3, 10**10)


@pytest.mark.parametrize("ns", [range(3001), _seeded_bounds(200, 10**8), BIG_BOUNDS],
                         ids=["every_n_to_3000", "seeded_200_to_1e8", "2^31+-3_and_1e10"])
def test_counts_equal_full_table_route(ns):
    for n in ns:
        _assert_counts_match_full_route(n)


# every n <= 3000 is checked against the full route in test_digit_census_matches_enumeration
@pytest.mark.parametrize("ns", [_seeded_bounds(200, 10**8), BIG_BOUNDS],
                         ids=["seeded_200_to_1e8", "2^31+-3_and_1e10"])
def test_digit_census_equals_full_table_route(monkeypatch, ns):
    want = _full_route_digits(monkeypatch, ns)
    for n in ns:
        assert digit_census(n).counts == want[n], n


def kept_quotient_divisors(n: int, divisors: np.ndarray) -> np.ndarray:
    """An m for every entry a table for divisors keeps: the multiples m <= isqrt(n)
    of a divisor (its large entries) and an m with n // m = v for each v <= isqrt(n)."""
    r = isqrt(n)
    multiples = [np.arange(d, r + 1, d) for d in divisors.tolist() if d <= r]
    return np.unique(np.concatenate([*multiples, _divisors_of(n, range(r + 1))]))


def _assert_class_table_equals_row_loop(n: int) -> None:
    for divisors in (ONE, census._kp_divisors(n, 2)):
        ms = kept_quotient_divisors(n, divisors)
        got = _pi_mod10_table(n, divisors)(ms)
        assert (got == row_loop_counts(n, divisors, ms)).all(), (n, len(divisors))


@pytest.mark.parametrize("ns", [range(3001), [10**k + d for k in range(4, 9) for d in (-1, 0, 1, 7)]],
                         ids=["every_n_to_3000", "1e4_to_1e8_and_offsets"])
def test_pi_mod10_table_equals_row_loop_route(ns):
    for n in ns:
        _assert_class_table_equals_row_loop(n)


BLOCK_NS = [*range(0, 3001, 37), 10**4 + 1, 10**5 - 1, 10**6 + 7]


@pytest.mark.parametrize("chunk", [1, 5, 64])
def test_pi_mod10_table_in_blocks_equals_row_loop_route(monkeypatch, chunk):
    # budgets of a few entries (at least one column of four rows), so a head
    # prime's gather, the small update and the wheel start cross many block
    # edges, as with the real budget the small update does past n = 2^28 and
    # the gathers of digit_census past n of about 1.8 * 10^9
    monkeypatch.setattr(census, "_BLOCK", chunk)
    for n in BLOCK_NS:
        _assert_class_table_equals_row_loop(n)


@pytest.mark.parametrize("budget", [1, 3, 40])
def test_pi_table_in_blocks_equals_exact_pi(monkeypatch, budget):
    # with the real budget the one-row table blocks its small update only past
    # n = 2^32, and its gathers where a head prime updates more than 2^16
    # entries, past n of about 2.8 * 10^10 for kp_count; 40 entries split the
    # head part of the first head primes (the kept i with i * p <= isqrt(n))
    # at 10^6 + 7, and 1 and 3 split every gather and small update
    monkeypatch.setattr(census, "_BLOCK", budget)
    for n in BLOCK_NS:
        quotients = _floor_quotients(n)
        oracle = pi_segmented(quotients, segment_size=4096)
        for divisors in (ONE, census._kp_divisors(n, 2), census._psp_divisors(n, 3)):
            ms = kept_quotient_divisors(n, divisors)
            want = [oracle[v] for v in (n // ms).tolist()]
            assert _pi_table(n, divisors)(ms).tolist() == want, (n, len(divisors))
    heads = census._sifted(10**6 + 7, census._kept(1000, ONE)[0])[0]
    assert any(0 < budget < head for _, _, head in heads)


def test_class_rows_shift_by_the_residue():
    # sifting p moves the count of class c to class c * p^-1 (mod 10): in the
    # table's row order that is the row of c shifted back by p's shift
    row = census._ROWS.index
    for q in (1, 3, 7, 9):
        s = int(census._SHIFT[q])
        for c in (1, 3, 7, 9):
            assert row(c * pow(q, -1, 10) % 10) == (row(c) - s) % 4, (q, c)


def _assert_sift_schedule(n: int, divisors: np.ndarray) -> None:
    r = isqrt(n)
    mask = _prime_mask(max(r, 1))
    primes = [p for p in range(17, r + 1) if mask[p]]  # 2..13 start the table sifted
    kept = sorted({i for d in divisors.tolist() if d <= r for i in range(d, r + 1, d)})
    first = kept[0] if kept else n + 1  # with nothing kept only small is sifted

    def lim(p: int) -> int:
        return bisect_right(kept, n // (p * p))

    def in_tail(p: int) -> bool:
        # the tail reads nothing it writes, and a row range of more than
        # _TAIL_ROWS keeps a prime at or below n^(1/3) in the head
        return (first * p**3 > n and p * p > r
                and (p**3 > n or lim(p) <= census._TAIL_ROWS))

    heads, tail = census._sifted(n, census._kept(r, divisors)[0])
    assert [p for p, _, _ in heads] == [p for p in primes if not in_tail(p)], n
    assert tail.dtype == np.int64 and tail.tolist() == [p for p in primes if in_tail(p)], n
    for p, lim_p, head in heads:
        assert lim_p == lim(p), (n, p)
        assert head == bisect_right(kept, min(n // (p * p), r // p)), (n, p)


# n = c * p^3 - 1, c * p^3 and c * p^3 + 1 put p on either side of the tail's
# start kept[0] * p^3 > n for c = kept[0]: 4 for kp and psp k = 2, 8 for kp
# k = 3 (at p = 1009 the row range keeps p in the head); n = 30030 * m +- 1
# sit beside a period of the wheel start
SPLIT_NS = sorted({c * p**3 + d for c in (4, 8) for p in (17, 19, 101, 1009) for d in (-1, 0, 1)}
                  | {30030 * m + d for m in (1, 2, 7) for d in (-1, 1)})
KEPT_SETS = [(census._kp_divisors, 2), (census._kp_divisors, 3), (census._psp_divisors, 2)]


@pytest.mark.parametrize("modulus", [1, 10])
def test_sift_schedule_is_the_coprime_primes_to_sqrt_n(modulus):
    # both tables sift the same primes past 13: the plain table (modulus 1)
    # and the class table (modulus 10), whose row shifts need p coprime to 10,
    # so 2 and 5 must be among the wheel primes the start already holds
    assert all(p in census._WHEEL_PRIMES for p in (2, 3, 5, 7) if gcd(p, modulus) > 1)
    for n in [*range(3001), 10**6 + 7, 10**10 + 1]:
        for divisors in (ONE, census._kp_divisors(n, 2)):
            heads, tail = census._sifted(n, census._kept(isqrt(n), divisors)[0])
            assert all(gcd(p, modulus) == 1 for p, _, _ in heads), (n, modulus)
            assert all(gcd(p, modulus) == 1 for p in tail.tolist()), (n, modulus)
            _assert_sift_schedule(n, divisors)


def test_sift_schedule_across_the_lowered_split(monkeypatch):
    for n in SPLIT_NS:
        for divisors, k in KEPT_SETS:
            _assert_sift_schedule(n, divisors(n, k))
    # every prime with kept[0] * p^3 > n joins the tail, or none past n^(1/3) does
    for rows in (0, 10**9):
        monkeypatch.setattr(census, "_TAIL_ROWS", rows)
        for n in (4 * 1009**3, 10**8 + 7):
            for divisors, k in KEPT_SETS:
                _assert_sift_schedule(n, divisors(n, k))


def pi_lucy(n: int):
    """pi(n // m) for every m >= 1, by the textbook Lucy_Hedgehog recurrence:
    every prime p <= isqrt(n) sifted alone over every floor quotient, from
    the v - 1 integers in [2, v] (no wheel start, kept set or batched tail).
    The oracle of the tables where pi_segmented would take too long."""
    r = isqrt(n)
    small = np.arange(-1, r, dtype=np.int64)  # small[v] counts up to v
    small[0] = 0
    i = np.arange(1, r + 1, dtype=np.int64)
    large = n // i - 1  # large[i - 1] counts up to n // i
    mask = _prime_mask(max(r, 1))
    for p in (p for p in range(2, r + 1) if mask[p]):
        sp = small[p - 1]
        lim = min(r, n // (p * p))
        ip = i[:lim] * p
        large[:lim] -= np.where(ip <= r, large[np.minimum(ip, r) - 1],
                                small[np.minimum(n // ip, r)]) - sp
        if p * p <= r:
            small[p * p :] -= small[np.arange(p * p, r + 1) // p] - sp

    def lookup(ms: np.ndarray) -> np.ndarray:
        return np.where(ms <= r, large[np.minimum(ms, r) - 1], small[np.minimum(n // ms, r)])

    return lookup


def _pi_oracle(n: int):
    """pi(n // m) for every m >= 1, by a segmented sieve up to 10^7 and pi_lucy past it."""
    if n > 10**7:
        return pi_lucy(n)
    oracle = pi_segmented(_floor_quotients(n))
    return lambda ms: np.array([oracle[v] for v in (n // ms).tolist()], dtype=np.int64)


def _assert_tables_at_every_kept_multiple(n: int, divisors: np.ndarray, oracle) -> None:
    ms = kept_quotient_divisors(n, divisors)
    v = n // ms
    want = oracle(ms)
    assert (_pi_table(n, divisors)(ms) == want).all(), n
    got = _pi_mod10_table(n, divisors)(ms)
    assert (got == row_loop_counts(n, divisors, ms)).all(), n
    assert (got.sum(axis=0) + (v >= 2) + (v >= 5) == want).all(), n


def test_pi_lucy_oracle():
    for n in (1, 2, 3, 10, 99, 10**4 + 1, 4 * 101**3 - 1, 10**7 + 1):
        r = isqrt(n)
        ms = np.unique(np.concatenate([np.arange(1, r + 2), _divisors_of(n, range(r + 1))]))
        oracle = pi_segmented((n // ms).tolist())
        assert pi_lucy(n)(ms).tolist() == [oracle[v] for v in (n // ms).tolist()], n
    assert int(pi_lucy(10**9)(ONE)[0]) == PUBLISHED_PI[10**9]


def test_tables_across_the_lowered_split(monkeypatch):
    whole = census._TAIL_CHUNK
    for n in SPLIT_NS:
        oracle = _pi_oracle(n)
        for chunk in (whole, 1, 3) if n < 10**5 else (whole,):
            # tail chunks of 1 and 3 pairs cross every chunk edge of the lowered tail
            monkeypatch.setattr(census, "_TAIL_CHUNK", chunk)
            for divisors, k in KEPT_SETS:
                _assert_tables_at_every_kept_multiple(n, divisors(n, k), oracle)


def test_tables_where_the_head_keeps_a_long_row_prime():
    # at 10^8 the kp k = 2 kept set starts at 4, so every prime in (292, 464]
    # could join the tail, but those with more than _TAIL_ROWS rows stay in the head
    n = 10**8 + 7
    divisors = census._kp_divisors(n, 2)
    kept = census._kept(isqrt(n), divisors)[0]
    heads, tail = census._sifted(n, kept)
    assert any(4 * p**3 > n and lim > census._TAIL_ROWS for p, lim, _ in heads)
    assert int(tail[0]) ** 3 <= n
    _assert_tables_at_every_kept_multiple(n, divisors, _pi_oracle(n))


def _wheel_brute(vs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """S(v) = #{2 <= m <= v : m is prime or prime to 30030} per class row (in
    the table's row order 1, 3, 9, 7) and in total, by Mobius inclusion-exclusion
    over the divisors d of 3003: the m = c (mod 10) prime to 3003 are
    sum mu(d) #{t <= v // d : t = c / d (mod 10)}."""
    odd = (3, 7, 11, 13)
    rows = []
    for c in census._ROWS:
        count = np.zeros(len(vs), dtype=np.int64)
        for bits in range(16):
            d = 1
            for j, q in enumerate(odd):
                if bits >> j & 1:
                    d *= q
            e = c * pow(d, -1, 10) % 10
            count += (-1) ** bin(bits).count("1") * ((vs // d + 10 - e) // 10)
        count -= (c == 1) * (vs >= 1)  # 1 is not counted
        rows.append(count + sum(vs >= q for q in odd if q % 10 == c))
    rows = np.array(rows)
    return rows, rows.sum(axis=0) + (vs >= 2) + (vs >= 5)


def test_wheel_start_equals_brute_force():
    # the Mobius count holds to a direct sieve at every v <= 2 * 30030 + 13
    top = 2 * census._WHEEL + 13
    every = np.arange(top + 1, dtype=np.int64)
    mask = _prime_mask(top)
    counted = np.array([m >= 2 and (mask[m] == 1 or gcd(m, 30030) == 1) for m in range(top + 1)])
    rows, total = _wheel_brute(every)
    by_class = counted & (every % 10 == np.array(census._ROWS)[:, None])
    assert (rows == np.cumsum(by_class, axis=1)).all()
    assert (total == np.cumsum(counted)).all()
    # every v <= top, v < 13 included, as small and as large entries in
    # blocks; then 10^4 seeded v <= 10^12 as large entries
    rng = random.Random(2024)
    seeded = np.array([rng.randrange(10**12 + 1) for _ in range(10**4)], dtype=np.int64)
    for r, quot in ((top, every), (0, seeded)):
        size = r + 1 + len(quot)
        rows, total = np.empty((4, size), dtype=np.int64), np.empty(size, dtype=np.int64)
        census._wheel_start(rows, r, quot, census._WHEEL_ROWS, census._WHEEL_PHI // 4)
        census._wheel_start(total, r, quot, census._WHEEL_TOTAL, census._WHEEL_PHI)
        want_rows, want_total = _wheel_brute(np.concatenate([every[: r + 1], quot]))
        assert (rows == want_rows).all() and (total == want_total).all(), r


def test_lookup_equals_full_table_at_every_kept_multiple():
    # each divisor d <= isqrt(n) answers at every multiple of d up to isqrt(n)
    for n in (10**4 + 1, 10**6 + 7, 2 * 10**8 + 3):
        r = isqrt(n)
        full, full10 = _pi_table(n, ONE), _pi_mod10_table(n, ONE)
        for divisors in ([4, 9, 25, 49], [8, 27, 125], [2, 3, 5, 7, 11, 13, 97], [r], [1],
                         census._kp_divisors(n, 2), census._psp_divisors(n, 3)):
            ms = np.array(divisors, dtype=np.int64)
            mult = np.unique(np.concatenate([np.arange(d, r + 1, d) for d in ms[ms <= r]]))
            assert (_pi_table(n, ms)(mult) == full(mult)).all(), (n, divisors)
            assert (_pi_mod10_table(n, ms)(mult) == full10(mult)).all(), (n, divisors)


def test_kp_enumerate_examples():
    got = [(w.n, w.p, w.a) for w in kp_enumerate(30, 2)]
    assert got == [(8, 2, 2), (12, 3, 2), (18, 2, 3), (20, 5, 2),
                   (27, 3, 3), (28, 7, 2)]
    assert [w.n for w in kp_enumerate(30, 3)] == [16, 24]
    assert list(kp_enumerate(7, 2)) == []
    assert list(kp_enumerate(0, 2)) == []


def test_kp_enumerate_ascending_valid_witnesses():
    for k in (2, 3):
        values = []
        for w in kp_enumerate(2000, k):
            assert w.k == k and w.p * w.a**k == w.n and w.a >= 2
            assert kp_decompose(w.n, k) == w
            values.append(w.n)
        assert values == sorted(set(values))


def test_kp_enumerate_rejects_bad_k():
    with pytest.raises(ValueError):
        list(kp_enumerate(30, 1))
    with pytest.raises(ValueError):
        kp_count(30, 1)


def test_count_equals_enumeration():
    for n in (10**3, 10**4):
        for k in (2, 3, 4):
            assert kp_count(n, k) == sum(1 for _ in kp_enumerate(n, k)), (n, k)


def test_count_equals_decompose_scan():
    for k in (2, 3):
        scan = sum(1 for n in range(2, 10**4 + 1) if kp_decompose(n, k))
        assert kp_count(10**4, k) == scan, k


def test_count_equals_kernel_scan_1e5():
    for k, expect in ((2, 9036), (3, 2792)):
        mask = _kp_mask(10**5, k)
        assert int(mask.sum()) == expect
        assert kp_count(10**5, k) == expect
        cum = np.cumsum(mask)
        for n in (10**3, 10**4, 10**5):
            assert kp_count(n, k) == int(cum[n]), (n, k)


def test_kp_count_frozen_values():
    assert kp_count(10**10, 2) == 343574817  # the segmented-sieve route's value
    assert kp_count(117, 2) == 25
    assert kp_count(10**3, 2) == 169
    assert kp_count(10**4, 2) == 1230
    assert kp_count(10**3, 3) == 55
    assert kp_count(10**4, 3) == 391
    assert kp_count(7, 2) == 0


def test_kp_count_monotone():
    last = 0
    for n in range(2, 500):
        cur = kp_count(n, 2)
        assert cur >= last
        assert cur - last <= 1  # at most one new member per integer
        last = cur


def test_psp_count_values_and_scan():
    assert psp_count(7) == 0
    assert psp_count(8) == 1
    assert psp_count(11) == 1
    assert psp_count(12) == 2
    assert psp_count(100) == 17
    assert psp_count(10**3) == 112
    running = 0
    for n in range(2, 3001):
        if psp_decompose(n):
            running += 1
        assert psp_count(n) == running, n


def test_psp_below_kp():
    for n in (100, 10**3, 10**4):
        assert psp_count(n) <= kp_count(n, 2)


def test_digit_census_small():
    dc = digit_census(30)
    assert isinstance(dc, DigitCensus)
    assert dc.n == 30
    assert dc.counts == (1, 0, 1, 0, 0, 0, 0, 1, 3, 0)
    assert dc.total() == 6 == kp_count(30, 2)
    assert digit_census(7).counts == (0,) * 10


def test_digit_census_1e5_frozen():
    dc = digit_census(10**5)
    assert dc.counts == (415, 623, 1381, 703, 1200, 808, 1204, 701, 1385, 616)
    assert dc.total() == kp_count(10**5, 2) == 9036


def test_digit_census_matches_enumeration(monkeypatch):
    members = {w.n for w in kp_enumerate(3000, 2)}
    full_route = _full_route_digits(monkeypatch, range(3001))
    counts = [0] * 10
    for n in range(0, 3001):  # the enumeration tally at every bound, one member at a time
        if n in members:
            counts[n % 10] += 1
        assert digit_census(n).counts == tuple(counts) == full_route[n], n
    for n in (10**5, 10**6 + 7):
        assert digit_census(n).counts == digit_tally_enumerated(n), n


def test_digit_census_pinned():
    for n, want in DIGITS_AT.items():
        dc = digit_census(n)
        assert dc.counts == want, n
        assert all(type(c) is int for c in dc.counts), n
        assert dc.total() == kp_count(n, 2), n
    assert digit_census(10**10).total() == kp_count(10**10, 2) == 343574817


def test_kp_count_working_set_at_1e10():
    """The prime-count table's working set at 10^10: the table, its kept
    positions, and one head prime's gathers or the small update's repeat."""
    tracemalloc.start()
    try:
        kp_count(10**10)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4.4 * 2**20, peak


def test_digit_census_working_set_at_1e10():
    """The class table's working set at 10^10: the table, one head prime's
    index, and blocks of census._BLOCK entries gathered or repeated."""
    tracemalloc.start()
    try:
        digit_census(10**10)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8.4 * 2**20, peak


def test_census_table_kp():
    rows = census_table([117, 10**4], 2, "kp")
    assert [r.n for r in rows] == [117, 10**4]
    assert rows[0].exact == 25 and rows[1].exact == 1230
    for r in rows:
        assert isinstance(r, CensusRow)
        assert r.ratio == pytest.approx(r.exact * log(r.n) / r.n)
        assert r.estimate == pytest.approx(analytic.kp_estimate(r.n, 2))
    assert rows[1].ratio == pytest.approx(1.1328716, abs=1e-6)


def test_census_table_shares_the_top_table(monkeypatch):
    grid = [10**6, 10**7, 10**8, 10**9]
    built = []
    table = census._pi_table
    monkeypatch.setattr(census, "_pi_table", lambda n, divisors: built.append(n) or table(n, divisors))
    for family, k, count in (("kp", 2, kp_count), ("kp", 3, kp_count), ("psp", 2, psp_count)):
        built.clear()
        rows = census_table(grid, k, family)
        assert built == [10**9], (family, k)  # every power of ten is a floor quotient of 10^9
        assert [r.exact for r in rows] == [count(c, k) for c in grid], (family, k)
    # 117 = 10^6 // 8547 shares the table for 10^6; 10^4 + 1 and 5 * 10^5 + 1 are no
    # floor quotients of 10^6, so each gets its own
    checkpoints = [117, 10**4 + 1, 5 * 10**5 + 1, 10**6]
    built.clear()
    rows = census_table(checkpoints, 2, "kp")
    assert built == [10**6, 10**4 + 1, 5 * 10**5 + 1]
    assert [r.exact for r in rows] == [kp_count(c, 2) for c in checkpoints]


def test_census_table_psp():
    (row,) = census_table([100], 2, "psp")
    assert row.exact == 17
    assert row.estimate == pytest.approx(analytic.psp_estimate(100))


def test_census_table_small_checkpoint():
    (row,) = census_table([2], 2, "kp")
    assert row.exact == 0 and row.ratio == 0.0
    assert row.estimate == pytest.approx((analytic.zeta(2).value - 1) * 2 / log(2))
    # zeta(k) - 1.0 in floats cancels: its 6th digit is off at k = 35 and all of it lost at k = 60
    for k in (35, 60):
        (row,) = census_table([2], k, "kp")
        excess = sum(j**-k for j in range(2, 40))  # zeta(k) - 1 to double precision
        assert row.estimate == pytest.approx(excess * 2 / log(2), rel=1e-12)


def test_census_table_validation():
    """The full text of every census ValueError."""
    for call, args, text in [
        (census_table, ([10], 1, "kp"), "kp_count requires k >= 2, got 1"),
        (census_table, ([10], 1, "psp"), "psp_count requires k >= 2, got 1"),
        (kp_count, (10, 1), "kp_count requires k >= 2, got 1"),
        (psp_count, (10, 1), "psp_count requires k >= 2, got 1"),
        (census_table, ([10, 5], 2, "kp"), "checkpoints must be ascending"),
        (census_table, ([1, 10], 2, "kp"), "checkpoints must be >= 2"),
        (census_table, ([10], 2, "nope"), "family must be 'kp' or 'psp', got 'nope'"),
        # a family is named as the CLI names it, in lower case
        (census_table, ([10], 2, "KP"), "family must be 'kp' or 'psp', got 'KP'"),
    ]:
        with pytest.raises(ValueError, match=f"^{re.escape(text)}$"):
            call(*args)
