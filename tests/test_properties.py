"""Property tests: witness checks round-trip and reject single-field tampering;
the prime-counting routes, the class and one-row prime-count tables, and the
x^2 + 1 / x^3 + 1 kernel sieves agree with their oracles at random sizes;
factorize recovers repeated large primes."""

import sys
from collections import Counter
from math import prod

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from spnum import census  # noqa: E402
from spnum.arith import factorize, is_prime  # noqa: E402
from spnum.census import digit_census, kp_count, psp_count  # noqa: E402
from spnum.classify import SpWitness, kp_decompose, sp_decompose  # noqa: E402
from spnum.construct import gap_witness, x2p1_scan, x3p1_scan  # noqa: E402
from test_arith import ORACLE_PRIMES, trial_factors  # noqa: E402
from test_census import (  # noqa: E402
    ONE,
    digit_tally_enumerated,
    kept_quotient_divisors,
    kp_enumerate,
    pi_segmented,
    prime_pi,
)
from test_classify import kp_decompose_full  # noqa: E402
from test_construct import x2p1_classified, x3p1_classified  # noqa: E402

LIMIT = 10**9


@st.composite
def sp_members(draw):
    """An SP number p*a^2 <= LIMIT, as the witness it was built from."""
    a = draw(st.integers(2, 22360))  # largest a with 2*a^2 <= LIMIT
    p = draw(st.integers(2, LIMIT // (a * a)))
    while not is_prime(p):
        p -= 1
    return SpWitness(p * a * a, p, a)


@given(sp_members())
def test_decompose_roundtrip(w):
    got = sp_decompose(w.n)
    assert got == w
    assert got.checks() == []


@given(
    sp_members(),
    st.sampled_from(["n", "p", "a"]),
    st.integers(-10**6, 10**6).filter(bool),
)
def test_single_field_perturbation_rejected(w, field, delta):
    tampered = w._replace(**{field: getattr(w, field) + delta})
    assert tampered.checks() != []


# primes on both sides of 1000 and of 2^15, where factoring moves from one
# gcd to the next and from the second gcd to rho
NEAR_GCD_BOUNDS = [p for p in ORACLE_PRIMES if 900 < p < 1100 or abs(p - 2**15) < 300]


@settings(max_examples=80, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(NEAR_GCD_BOUNDS), st.integers(1, 3)),
                min_size=1, max_size=4, unique_by=lambda pe: pe[0]))
def test_factorize_matches_trial_loop_near_the_gcd_bounds(powers):
    n = prod(p**e for p, e in powers)
    assert factorize(n).factors == trial_factors(n) == tuple(sorted(powers))
    assert is_prime(n) == (trial_factors(n) == ((n, 1),))


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 10**9))
def test_gap_witness_checks(x):
    """Every x has a witness that checks.  The int-to-str limit is lifted for
    the solve: the Pell pair of a prime x below 10^9 can pass it (x = 227025541
    gives a 56295-bit hi.n), and gap_witness then refuses by name instead."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        w = gap_witness(x)
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)
    assert w.x == x
    assert w.checks() == []


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10**7))
def test_prime_pi_matches_segmented_sieve(x):
    assert prime_pi(x) == pi_segmented([x])[x]


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10**5), st.sampled_from([2, 3]))
def test_counts_match_enumeration(n, k):
    witnesses = list(kp_enumerate(n, k))
    assert kp_count(n, k) == len(witnesses)
    # p1 * p2^k is exactly a KP_k number whose base is prime
    assert psp_count(n, k) == sum(1 for w in witnesses if is_prime(w.a))


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10**6))
def test_digit_census_matches_enumeration(n):
    assert digit_census(n).counts == digit_tally_enumerated(n)


TABLE_DIVISORS = {
    "every quotient": lambda n: ONE,
    "kp k=2": lambda n: census._kp_divisors(n, 2),
    "psp k=2": lambda n: census._psp_divisors(n, 2),
}


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 8).flatmap(lambda k: st.integers(10**k, 10**(k + 1))),  # decades to 10^9
       st.sampled_from(sorted(TABLE_DIVISORS)))
def test_class_counts_sum_to_pi(n, family):
    """The two Lucy_Hedgehog routes agree: at every entry a table keeps, the
    four class counts plus p = 2 and p = 5 are pi."""
    divisors = TABLE_DIVISORS[family](n)
    ms = kept_quotient_divisors(n, divisors)
    x = n // ms
    classes = census._pi_mod10_table(n, divisors)(ms)
    assert (classes.sum(axis=0) + (x >= 2) + (x >= 5) == census._pi_table(n, divisors)(ms)).all()


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10**8))
def test_x2p1_scan_matches_classification(bound):
    assert x2p1_scan(bound) == x2p1_classified(bound)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10**12))
def test_x3p1_scan_matches_classification(bound):
    assert x3p1_scan(bound) == x3p1_classified(bound)


big_primes = st.integers(1000, 10**6).map(
    lambda n: next(m for m in range(n, 2 * n) if is_prime(m)))


@settings(max_examples=40, deadline=None)
@given(big_primes, big_primes, big_primes, st.sampled_from(["q^2", "q^3", "p*q^2*r^2"]))
def test_factorize_repeated_primes_above_trial_cutoff(p, q, r, shape):
    """Cofactors above the trial cutoff that are squares, cubes or carry
    repeated primes next to a single one come back whole and prime."""
    exps = {"q^2": Counter({q: 2}), "q^3": Counter({q: 3}),
            "p*q^2*r^2": Counter({p: 1}) + Counter({q: 2}) + Counter({r: 2})}[shape]
    n = 1
    for f, e in exps.items():
        n *= f**e
    got = factorize(n)
    assert prod(f**e for f, e in got.factors) == n
    assert dict(got.factors) == dict(exps)
    assert [f for f, _ in got.factors] == sorted(exps)
    assert all(is_prime(f) for f, _ in got.factors)


# primes in [10^3, 10^9], log-uniform in size
spread_primes = st.integers(3, 8).flatmap(lambda d: st.integers(10**d, 10 ** (d + 1))).map(
    lambda n: next(m for m in range(n, 2 * n) if is_prime(m)))


@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(spread_primes, st.integers(1, 3)), min_size=2, max_size=4,
                unique_by=lambda pe: pe[0]), st.sampled_from([2, 3]))
def test_kp_decompose_matches_full_factorization(prime_powers, k):
    """Stopping the factorization once the answer is certain gives the
    answer of the complete factorization, for products of large primes."""
    n = 1
    for p, e in prime_powers:
        n *= p**e
    assert kp_decompose(n, k) == kp_decompose_full(n, k)
