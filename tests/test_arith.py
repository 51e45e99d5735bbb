"""Integer primitives against brute-force oracles."""

import random
import tracemalloc
from itertools import count
from math import isqrt, prod

import numpy as np
import pytest

from spnum import arith
from spnum.arith import (
    DETERMINISTIC_PRIME_BOUND,
    Factorization,
    factorize,
    ikroot,
    is_prime,
)
from spnum.classify import KpWitness, kp_decompose
from spnum.construct import gap_witness


def _sieve(limit: int) -> bytearray:
    mask = bytearray([1]) * (limit + 1)
    mask[0:2] = b"\x00\x00"
    for p in range(2, isqrt(limit) + 1):
        if mask[p]:
            mask[p * p :: p] = b"\x00" * len(mask[p * p :: p])
    return mask


def test_sieve_primes_edges_and_trial_primes():
    assert arith.sieve_primes(0).tolist() == arith.sieve_primes(1).tolist() == []
    assert arith.sieve_primes(2).tolist() == [2]
    assert arith.sieve_primes(3).tolist() == [2, 3]
    got = arith.sieve_primes(1000)
    assert got.dtype == np.int64 == arith.sieve_primes(0).dtype
    mask = _sieve(1000)
    assert got.tolist() == [n for n in range(1001) if mask[n]]
    assert len(got) == 168 and arith._TRIAL_PRIMES == arith.sieve_primes(999).tolist()


def test_sieve_primes_matches_trial_division_to_2000():
    """Every limit, so each p^2 and p^2 - 1 up to 43^2 = 1849 is one."""
    primes: list[int] = []
    for limit in range(2001):
        if limit >= 2 and all(limit % p for p in primes if p * p <= limit):
            primes.append(limit)
        got = arith.sieve_primes(limit)
        assert got.dtype == np.int64 and got.tolist() == primes, limit


def test_sieve_primes_working_set_at_1e7():
    """sieve_primes(10^7) holds the odd numbers' flags (4.8 MiB) and the
    primes (5.1 MiB) read off them in place, and no copy of either."""
    tracemalloc.start()
    try:
        primes = arith.sieve_primes(10**7)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(primes) == 664579 and peak <= 10.5 * 2**20, peak


def test_is_prime_examples():
    assert is_prime(2)
    assert not is_prime(27)
    assert is_prime(211)
    assert not is_prime(0) and not is_prime(1) and not is_prime(-7)


def test_is_prime_matches_sieve_to_1e6():
    limit = 10**6
    mask = _sieve(limit)
    for n in range(limit + 1):
        assert is_prime(n) == bool(mask[n]), n


def test_is_prime_deterministic_bound_documented():
    assert DETERMINISTIC_PRIME_BOUND > 2**64


def test_is_prime_large_inputs():
    m89 = 2**89 - 1  # Mersenne prime, above the deterministic tier bound
    assert m89 > DETERMINISTIC_PRIME_BOUND
    assert is_prime(m89)
    assert not is_prime(m89 + 2)  # divisible by 3
    assert not is_prime((2**31 - 1) * (2**61 - 1))


def test_is_prime_rejects_the_tier_bounds():
    # each is the least strong pseudoprime to the first 12, resp. 13, prime
    # bases (Sorenson-Webster 2015), so the tier below it must not cover it
    psi12 = 399165290221 * 798330580441
    psi13 = 1287836182261 * 2575672364521
    assert (psi12, psi13) == (318665857834031151167461, DETERMINISTIC_PRIME_BOUND)
    assert not is_prime(psi12) and not is_prime(psi13)
    assert dict(factorize(4 * psi12).factors) == {2: 2, 399165290221: 1, 798330580441: 1}


def _odd_part(n: int) -> tuple[int, int]:
    """(d, s) with n = d * 2^s, d odd."""
    d, s = n, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    return d, s


def is_prime_random_bases(n: int) -> bool:
    """The test is_prime ran above DETERMINISTIC_PRIME_BOUND before it took
    Baillie-PSW: 64 rounds of Miller-Rabin with bases drawn from
    random.Random(n), after trial division by the primes to 37."""
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    d, s = _odd_part(n - 1)
    rng = random.Random(n)
    return not any(arith._mr_witness(n, rng.randrange(2, n - 1), d, s) for _ in range(64))


def test_is_prime_matches_random_base_oracle_above_the_bound():
    rng = random.Random(20221)
    bound = DETERMINISTIC_PRIME_BOUND
    sample = [rng.randrange(bound, 10 ** rng.randint(26, 60)) | 1 for _ in range(1500)]
    # primes stepped up to from random starts, with every odd n on the way
    primes = 0
    for _ in range(40):
        n = rng.randrange(bound, 10 ** rng.randint(26, 80)) | 1
        while not is_prime_random_bases(n):
            sample.append(n)
            n += 2
        sample.append(n)
        primes += 1
    # products of two primes of 13-20 digits
    for _ in range(100):
        starts = (rng.randrange(10**12, 10 ** rng.randint(13, 20)) for _ in range(2))
        p, q = (next(filter(is_prime, count(start))) for start in starts)
        if p * q >= bound:
            sample.append(p * q)
    assert sum(map(is_prime_random_bases, sample)) > primes + 20
    assert len(sample) > 2000 and min(sample) >= bound
    for n in sample:
        assert is_prime(n) == is_prime_random_bases(n), n


def test_chernick_carmichael_number_above_the_bound_is_rejected():
    k = 13679106
    n = (6 * k + 1) * (12 * k + 1) * (18 * k + 1)
    assert n == 3317249643051242788534009 > DETERMINISTIC_PRIME_BOUND
    assert all(map(is_prime, (6 * k + 1, 12 * k + 1, 18 * k + 1)))
    assert pow(2, n - 1, n) == 1  # a base-2 Fermat pseudoprime
    assert not is_prime(n) and not is_prime_random_bases(n)


# OEIS A217255: the strong Lucas pseudoprimes (Selfridge's parameters) below 2*10^5
STRONG_LUCAS_PSEUDOPRIMES = [
    5459, 5777, 10877, 16109, 18971, 22499, 24569, 25199, 40309, 58519, 75077,
    97439, 100127, 113573, 115639, 130139, 155819, 158399, 161027, 162133,
    176399, 176471, 189419, 192509, 197801,
]


def test_strong_lucas_accepts_primes_and_exactly_a217255():
    limit = 2 * 10**5
    mask = _sieve(limit)
    accepted = [n for n in range(39, limit + 1, 2)
                if isqrt(n) ** 2 != n and arith._strong_lucas(n)]
    assert [n for n in accepted if not mask[n]] == STRONG_LUCAS_PSEUDOPRIMES
    assert [n for n in accepted if mask[n]] == [n for n in range(39, limit + 1, 2) if mask[n]]


def test_bpsw_rejects_strong_lucas_pseudoprimes():
    for n in STRONG_LUCAS_PSEUDOPRIMES:
        assert not arith._bpsw(n, *_odd_part(n - 1)), n


@pytest.mark.parametrize("n", [1093**2, 3511**2])
def test_bpsw_square_guard_stops_base_2_pseudoprime_squares(monkeypatch, n):
    """1093^2 and 3511^2 (Wieferich squares) pass the strong base-2 round,
    and no D has (D/n) = -1, so only the square guard ends the search."""
    d, s = _odd_part(n - 1)
    assert not arith._mr_witness(n, 2, d, s)
    monkeypatch.setattr(arith, "_jacobi", lambda a, m: pytest.fail("D search on a square"))
    assert not arith._bpsw(n, d, s)


@pytest.mark.parametrize("n, ds", [(5 * 1000003, [5]), (7 * 1000003, [5, -7])])
def test_strong_lucas_stops_at_a_d_sharing_a_factor(monkeypatch, n, ds):
    """(D/n) = 0 with |D| < n proves n composite, before any ladder step."""
    tried = []
    real = arith._jacobi
    monkeypatch.setattr(arith, "_jacobi", lambda a, m: tried.append(a) or real(a, m))
    assert not arith._strong_lucas(n)
    assert tried == ds


def test_jacobi_matches_euler_criterion():
    for p in (3, 5, 7, 11, 13, 1009):
        for a in range(-30, 60):
            euler = pow(a, (p - 1) // 2, p)
            assert arith._jacobi(a, p) == (euler - p if euler > 1 else euler), (a, p)
    # multiplicative in the modulus: (a/15) = (a/3)(a/5)
    for a in range(-30, 60):
        assert arith._jacobi(a, 15) == arith._jacobi(a, 3) * arith._jacobi(a, 5)


def is_prime_12_bases(n: int) -> bool:
    """The strong pseudoprime test to the first 12 prime bases that is_prime
    ran below 318665857834031151167461 before its tiers took the least
    published base sets; exact below that bound (Sorenson-Webster)."""
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    if n < 2:
        return False
    if n in bases:
        return True
    if any(n % p == 0 for p in bases):
        return False
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    return not any(arith._mr_witness(n, a, d, s) for a in bases)


@pytest.mark.parametrize("bound, bases", arith._MR_TIERS)
def test_every_tier_bound_is_a_rejected_strong_pseudoprime(bound, bases):
    """Each tier's bound is a strong pseudoprime to its bases, so the tier
    must stop below it, and is_prime must reject it."""
    d, s = bound - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    assert not any(arith._mr_witness(bound, a, d, s) for a in bases)
    assert not is_prime(bound)


# the tiers that the least base sets brought in, with their bounds' factors
NEW_TIERS = [
    (4759123141, (2, 7, 61), (48781, 97561)),  # Jaeschke 1993
    (1122004669633, (2, 13, 23, 1662803), (611557, 1834669)),  # Jaeschke 1993
    (3825123056546413051, (2, 3, 5, 7, 11, 13, 17, 19, 23),
     (149491, 747451, 34233211)),  # Jiang-Deng 2014
]


@pytest.mark.parametrize("bound, bases, factors", NEW_TIERS)
def test_new_tier_bounds_factor_as_published(bound, bases, factors):
    assert (bound, bases) in arith._MR_TIERS
    assert bound == prod(factors) and all(map(is_prime, factors))


def test_tiers_ascend_with_every_base_below_its_range():
    bounds = [b for b, _ in arith._MR_TIERS]
    assert bounds == sorted(bounds) and bounds[-1] == DETERMINISTIC_PRIME_BOUND
    for (low, _), (_, bases) in zip(arith._MR_TIERS, arith._MR_TIERS[1:]):
        assert max(bases) < low


@pytest.mark.parametrize("bound", [bound for bound, _, _ in NEW_TIERS])
def test_is_prime_matches_12_base_test_in_new_tiers(bound):
    low = max(b for b, _ in arith._MR_TIERS if b < bound)
    rng = random.Random(bound)
    sample = [rng.randrange(low, bound) | 1 for _ in range(3000)]
    # hard composites: products of two primes of about half the size
    half = isqrt(bound)
    for _ in range(100):
        p, q = (next(filter(is_prime_12_bases, range(rng.randrange(half // 4, half), bound)))
                for _ in range(2))
        if low <= p * q < bound:
            sample.append(p * q)
    assert sum(map(is_prime_12_bases, sample)) > 50
    for n in sample:
        assert is_prime(n) == is_prime_12_bases(n), n


def test_factorize_pq_tests_the_deferred_cofactor_once(monkeypatch):
    p, q = 1000003, 10000019
    calls = []
    real = arith.is_prime
    monkeypatch.setattr(arith, "is_prime", lambda n: calls.append(n) or real(n))
    assert dict(factorize(p * q).factors) == {p: 1, q: 1}
    assert calls.count(p * q) == 1
    assert sorted(calls) == [p, q, p * q]


def test_rho_split_divisors_pinned():
    """Brent-rho's factor for a sample of odd and even composites: the same
    divisor whether |x - y| or x - y enters the product."""
    pinned = {
        8051: 97, 10403: 101, 455459: 743, 1000003 * 1000033: 1000033,
        99999989 * 10000019: 10000019, 10000019**2 * 1000003: 1000003,
        2**4 * 1009 * 1013: 2, (10**9 + 7) * (10**9 + 9): 10**9 + 9,
        1009 * 1013 * 1019: 1013 * 1019, 7919 * 104729: 7919,
    }
    assert {n: arith._rho_split(n) for n in pinned} == pinned


def test_prime_divisors_yields_as_it_proves():
    """Trial primes come first with their exponents, then the primes past
    trial division as the cofactor loop proves them."""
    p, q = 1000003, 10000019
    assert list(arith._prime_divisors(2**3 * 3 * 5**2)) == [(2, 3), (3, 1), (5, 2)]
    assert list(arith._prime_divisors(12 * p)) == [(2, 2), (3, 1), (p, 1)]
    events = list(arith._prime_divisors(4 * p * p * q))
    assert events[0] == (2, 2)
    assert sorted(events[1:]) == [(p, 2), (q, 1)]


def test_factorize_examples():
    assert dict(factorize(75).factors) == {3: 1, 5: 2}
    assert dict(factorize(12).factors) == {2: 2, 3: 1}
    assert dict(factorize(1025).factors) == {5: 2, 41: 1}


def test_factorize_domain():
    for bad in (1, 0, -4):
        with pytest.raises(ValueError):
            factorize(bad)


_ORACLE_MASK = _sieve(2**16)
ORACLE_PRIMES = [p for p in range(2**16) if _ORACLE_MASK[p]]


def trial_factors(n: int) -> tuple[tuple[int, int], ...]:
    """The factorization of n >= 2 by the trial loop `arith._prime_divisors`
    ran before its gcds, over the primes below 2^16 in place of those below
    1000: exact for n < 2^32 and for n whose primes all lie below 2^16."""
    out, rest = [], n
    for p in ORACLE_PRIMES:
        if p * p > rest:
            break
        if rest % p == 0:
            e = 0
            while rest % p == 0:
                rest //= p
                e += 1
            out.append((p, e))
    assert rest < ORACLE_PRIMES[-1] ** 2, f"{rest} past the oracle's primes"
    return tuple(out + [(rest, 1)] * (rest > 1))


def test_factorize_and_is_prime_match_trial_loop_to_2e5():
    for n in range(2, 2 * 10**5 + 1):
        expected = trial_factors(n)
        assert factorize(n).factors == expected, n
        assert is_prime(n) == (expected == ((n, 1),)), n
    # the gcd with 2·3·…·37 alone answers these
    small = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    for n in (prod(small), prod(small[1:]), 2 * 37, 37**2):
        assert not is_prime(n), n


def test_factorize_recombines_and_primes_verified():
    for n in range(2, 10**5 + 1):
        f = factorize(n)
        assert f.value == n
        assert prod(p**e for p, e in f.factors) == n
        primes = [p for p, _ in f.factors]
        assert primes == sorted(primes) and len(set(primes)) == len(primes)
        assert all(is_prime(p) for p in primes)
        assert all(e >= 1 for _, e in f.factors)


def test_factorize_large_semiprime_via_rho():
    p, q = 10**9 + 7, 10**9 + 9
    assert dict(factorize(p * q).factors) == {p: 1, q: 1}
    assert dict(factorize(p * p).factors) == {p: 2}


Q = 10000019  # a prime in [10^7, 10^8]: rho needs thousands of steps to find it


def _count_rho(monkeypatch, answers=None):
    """Wrap arith._rho_split in a call counter; `answers` fixes its factor
    for the inputs it names."""
    calls = []
    real = arith._rho_split
    answers = answers or {}

    def counted(n):
        calls.append(n)
        return answers[n] if n in answers else real(n)

    monkeypatch.setattr(arith, "_rho_split", counted)
    return calls


@pytest.mark.parametrize("p, most", [
    (997, 0),  # p < 1000 falls to trial division; q^2 is a perfect square
    (1000003, 1),  # 1000 < p < q
    (99999989, 1),  # p > q
])
def test_factorize_pq2_runs_rho_at_most_once(monkeypatch, p, most):
    calls = _count_rho(monkeypatch)
    assert factorize(p * Q * Q).factors == tuple(sorted({p: 1, Q: 2}.items()))
    assert len(calls) == most


@pytest.mark.parametrize("part", ["q", "pq", "p", "qq"])
def test_factorize_pq2_one_rho_whatever_it_returns(monkeypatch, part):
    p = 1000003
    factor = {"q": Q, "pq": p * Q, "p": p, "qq": Q * Q}[part]
    calls = _count_rho(monkeypatch, {p * Q * Q: factor})
    assert dict(factorize(p * Q * Q).factors) == {p: 1, Q: 2}
    assert calls == [p * Q * Q]


Q20 = 10**19 + 51  # a 20-digit prime: rho would need about 10^10 steps on Q20^j


def test_odd_prime_powers_skip_rho(monkeypatch):
    """An odd prime power past trial division goes to its root, not to rho."""
    assert is_prime(Q20)
    monkeypatch.setattr(arith, "_rho_split", lambda n: pytest.fail(f"rho on {n}"))
    assert kp_decompose(Q20**3, 2) == KpWitness(Q20**3, 2, Q20, Q20)
    assert kp_decompose(Q20**5, 2) == KpWitness(Q20**5, 2, Q20, Q20**2)
    assert dict(factorize(Q20**9).factors) == {Q20: 9}  # root of a root: Q20^3, then Q20
    assert dict(factorize(Q20**15 * 7).factors) == {7: 1, Q20: 15}


def test_composite_root_of_a_cube_is_what_rho_splits(monkeypatch):
    """32771, the least prime above 2^15, is past the gcd's primes, so
    32771^3 * Q20^3 is the cube of a semiprime: rho runs once, on that root
    alone."""
    calls = _count_rho(monkeypatch)
    assert dict(factorize(32771**3 * Q20**3).factors) == {32771: 3, Q20: 3}
    assert calls == [32771 * Q20]


@pytest.mark.parametrize("n, factors, rho", [
    (1009**3 * Q20**3, {1009: 3, Q20: 3}, []),  # the cube's root 1009 * Q20 is split by gcd
    (1013 * Q20, {1013: 1, Q20: 1}, []),
    (32749 * 32771, {32749: 1, 32771: 1}, []),  # the greatest prime below 2^15 and the least above
    (2 * 1009**2 * 1013 * Q20, {2: 1, 1009: 2, 1013: 1, Q20: 1}, []),
    (1009 * 1013 * Q20, {1009: 1, 1013: 1, Q20: 1}, []),
    (1009 * 1013 * 1019, {1009: 1, 1013: 1, 1019: 1}, []),
    (32771 * 32779, {32771: 1, 32779: 1}, [32771 * 32779]),
])
def test_primes_below_2_15_split_off_by_gcd(monkeypatch, n, factors, rho):
    """A cofactor with a prime in (1000, 2^15) needs no rho: one gcd with the
    product of those primes splits it, however many of them it holds.  Rho
    still splits cofactors past 2^15."""
    calls = _count_rho(monkeypatch)
    assert dict(factorize(n).factors) == factors
    assert calls == rho


def test_gcd_split_reads_every_prime_of_the_gcd():
    """Two or more primes in (1000, 2^15), in one block of the product or in
    several (2039 and 2053 straddle 2^11), come back in ascending order, each
    once; one prime is g itself."""
    mask = _sieve(2**15)
    primes = [p for p in range(1001, 2**15) if mask[p]]
    for chosen in (primes[:2], [2039, 2053], primes[:64] + primes[-1:], primes[::97], primes):
        assert arith._gcd_split(prod(chosen)) == chosen
    assert arith._gcd_split(32749) == [32749]


def test_gcd_primorial():
    primorial, mask = arith._gcd_primorial(), _sieve(2**15)
    assert primorial.bit_length() == 45530
    assert primorial == prod(p for p in range(1001, 2**15) if mask[p])


def test_odd_power_root_examples():
    assert arith._odd_power_root(1009**3) == 1009
    assert arith._odd_power_root(1009**7) == 1009
    assert arith._odd_power_root(1009**9) == 1009**3
    assert arith._odd_power_root(1009**2 * 1013) is None
    assert arith._odd_power_root(1009 * 1013) is None
    assert arith._odd_power_root(1009**3 + 2) is None


@pytest.mark.parametrize("x", [
    (10**9 + 7) * (10**9 + 9),  # ODD_COMPOSITE_SF
    4 * (10**9 + 7) * (10**9 + 9),  # NONSQUAREFREE over it
])
def test_gap_witness_factors_x_once(monkeypatch, x):
    """gap_witness reads every case off one factorization of x: one rho run
    splits p*q, and neither x's square-free part nor its smallest prime is
    factored again."""
    calls = _count_rho(monkeypatch)
    assert gap_witness(x).checks() == []
    assert len(calls) == 1


def test_factorization_record():
    f = Factorization(12, ((2, 2), (3, 1)))
    assert dict(f.factors) == {2: 2, 3: 1}
    assert prod(p**e for p, e in f.factors) == 12


def test_ikroot_examples():
    assert ikroot(16, 2) == 4
    assert ikroot(17, 2) == 4
    assert ikroot(3375, 3) == 15


def test_ikroot_floor_property():
    for n in range(10**4 + 1):
        for k in range(2, 6):
            r = ikroot(n, k)
            assert r**k <= n < (r + 1) ** k, (n, k, r)


def test_ikroot_large_and_edges():
    assert ikroot(0, 5) == 0
    assert ikroot(1, 7) == 1
    assert ikroot(10**30, 1) == 10**30
    big = (10**15 + 3) ** 3
    assert ikroot(big, 3) == 10**15 + 3
    assert ikroot(big - 1, 3) == 10**15 + 2
    with pytest.raises(ValueError):
        ikroot(10, 0)
    with pytest.raises(ValueError):
        ikroot(-1, 2)
