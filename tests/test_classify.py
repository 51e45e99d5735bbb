"""Membership tests and decomposition uniqueness for the p * a^k families."""

from dataclasses import dataclass
from math import isqrt

import pytest

from spnum.arith import factorize, ikroot, is_prime
from spnum.classify import KpWitness, SpWitness, kp_decompose, sp_decompose
from test_arith import _count_rho


def kp_decompose_full(n: int, k: int) -> KpWitness | None:
    """The route kp_decompose replaced: factor n completely, then read the
    criterion (one prime of exponent not divisible by k, that exponent
    1 mod k, n not that prime) off the factorization."""
    if n < 4:
        return None
    stray = [(p, e) for p, e in factorize(n).factors if e % k != 0]
    if len(stray) != 1 or stray[0][1] % k != 1:
        return None
    p = stray[0][0]
    if n == p:
        return None
    return KpWitness(n, k, p, ikroot(n // p, k))


@dataclass(frozen=True)
class PspWitness:
    """Certificate n = p1 * p2^2 with both factors prime."""

    n: int
    p1: int
    p2: int


def psp_decompose(n: int) -> PspWitness | None:
    """The (p1, p2) with n = p1 * p2^2, both prime, if n has that form: the
    oracle of census.psp_count.  p1 = p2 is allowed (the smallest case is
    8 = 2 * 2^2), matching the defining form and the census identity."""
    w = sp_decompose(n)
    if w is None or not is_prime(w.a):
        return None
    return PspWitness(n, w.p, w.a)


# first 25 SP numbers; the 25th is 117
GOLDEN_25 = [
    8, 12, 18, 20, 27, 28, 32, 44, 45, 48, 50, 52, 63, 68, 72, 75, 76, 80,
    92, 98, 99, 108, 112, 116, 117,
]


def test_sp_examples():
    assert sp_decompose(75) == SpWitness(75, 3, 5)
    assert sp_decompose(8) == SpWitness(8, 2, 2)
    assert sp_decompose(48) == SpWitness(48, 3, 4)
    assert sp_decompose(36) is None  # both exponents even
    assert sp_decompose(7) is None  # prime
    assert sp_decompose(4) is None  # 1 * 2^2: unit cofactor is not prime
    assert sp_decompose(1) is None and sp_decompose(0) is None


def test_golden_prefix_by_scan():
    found = [n for n in range(2, 118) if sp_decompose(n)]
    assert found == GOLDEN_25
    assert len(found) == 25 and found[-1] == 117
    # prime-power members that are easy to drop by mistake
    assert sp_decompose(32) == SpWitness(32, 2, 4)
    assert sp_decompose(72) == SpWitness(72, 2, 6)


def test_kp_examples():
    assert kp_decompose(24, 3) == KpWitness(24, 3, 3, 2)
    assert kp_decompose(128, 3) == KpWitness(128, 3, 2, 4)
    assert kp_decompose(16, 3) == KpWitness(16, 3, 2, 2)
    assert kp_decompose(32, 3) is None  # 2^5: exponent 5 = 2 mod 3
    assert kp_decompose(64, 3) is None  # exponent 0 mod 3
    assert kp_decompose(48, 4) == KpWitness(48, 4, 3, 2)


def test_kp_rejects_bad_k():
    with pytest.raises(ValueError):
        kp_decompose(24, 1)
    with pytest.raises(ValueError):
        kp_decompose(24, 0)


def test_kp_witness_consistency():
    for n in range(2, 3000):
        for k in (2, 3, 4):
            w = kp_decompose(n, k)
            if w is not None:
                assert w.n == n and w.k == k
                assert is_prime(w.p) and w.a >= 2
                assert w.p * w.a**k == n


def _brute_pairs(n: int, k: int) -> list[tuple[int, int]]:
    out = []
    a = 2
    while a**k <= n:
        q, r = divmod(n, a**k)
        if r == 0 and is_prime(q):
            out.append((q, a))
        a += 1
    return out


def test_kp_uniqueness_and_agreement_to_1e5():
    limit = 10**5
    for k in (2, 3, 4):
        # forward map: every (p, a) product lands on a distinct n
        seen: dict[int, tuple[int, int]] = {}
        a = 2
        while 2 * a**k <= limit:
            step = a**k
            for p in range(2, limit // step + 1):
                if is_prime(p):
                    m = p * step
                    assert m not in seen, (m, k, seen[m], (p, a))
                    seen[m] = (p, a)
            a += 1
        for n in range(2, limit + 1):
            w = kp_decompose(n, k)
            if n in seen:
                pairs = _brute_pairs(n, k)
                assert len(pairs) == 1, (n, k, pairs)
                p, aa = pairs[0]
                assert w == KpWitness(n, k, p, aa)
            else:
                assert w is None, (n, k, w)


@pytest.mark.parametrize("k", [2, 3])
def test_early_exit_matches_enumeration_to_1e6(k):
    """kp_decompose, which stops factoring once certain, against
    the enumeration oracle kp_enumerate, which builds every p*a^k <= 10^6
    from a prime sieve with no factoring.  Below 10^6 the factoring loop ends
    in trial division; the hypothesis property and the rho-count cases reach
    the paths past it."""
    from test_census import kp_enumerate  # test_census imports this module

    limit = 10**6
    members = {w.n: w for w in kp_enumerate(limit, k)}
    for n in range(limit + 1):
        assert kp_decompose(n, k) == members.get(n), n
    assert [kp_decompose(n, k) for n in range(10**4)] == [
        kp_decompose_full(n, k) for n in range(10**4)]


P20, Q20 = 10**19 + 51, 3 * 10**19 + 41  # 20-digit primes: rho on P20 * Q20 never ends


@pytest.mark.parametrize("n, k, p, rho_runs", [
    (3 * P20 * Q20, 2, None, 0),  # stray 3 found by trial; rest = P*Q is no square
    (3 * 5**3 * P20 * Q20, 3, None, 0),  # the same for k = 3
    (4 * 32771 * 1000003, 2, None, 1),  # rest = q*r past 2^15: one rho split finds a stray prime
    (32771 * 1000003 * 10000019, 2, None, 1),  # p*q*r: the first split decides
    (4 * 1009 * 1000003, 2, None, 0),  # rest = q*r, q < 2^15: the gcd splits off q
    (1009 * 1000003 * 10000019, 2, None, 0),
    (7 * (1000003 * P20) ** 2, 2, 7, 0),  # member: stray 7, rest a square
])
def test_kp_decompose_stops_once_certain(monkeypatch, n, k, p, rho_runs):
    calls = _count_rho(monkeypatch)
    assert kp_decompose(n, k) == (p and KpWitness(n, k, p, ikroot(n // p, k)))
    assert len(calls) == rho_runs


def test_psp_examples():
    assert psp_decompose(8) == PspWitness(8, 2, 2)
    assert psp_decompose(12) == PspWitness(12, 3, 2)
    assert psp_decompose(50) == PspWitness(50, 2, 5)
    assert psp_decompose(48) is None  # 3 * 4^2, base 4 not prime
    assert psp_decompose(7) is None


def test_psp_subset_of_sp():
    for n in range(2, 10**4 + 1):
        w = psp_decompose(n)
        if w is not None:
            s = sp_decompose(n)
            assert s is not None
            assert (w.p1, w.p2) == (s.p, s.a)
            assert is_prime(w.p1) and is_prime(w.p2)
        else:
            s = sp_decompose(n)
            if s is not None:
                assert not is_prime(s.a)


def test_every_p_a_square_is_sp():
    primes = [p for p in range(2, 101) if is_prime(p)]
    for p in primes:
        for a in range(2, 101):
            n = p * a * a
            assert sp_decompose(n) == SpWitness(n, p, a), (p, a)


def test_verify_sp_witness_accepts_real_witnesses():
    for n in range(2, 10**4 + 1):
        w = sp_decompose(n)
        if w is not None:
            assert w.checks() == []


def test_verify_sp_witness_equivalent_to_decompose():
    # any claimed (p, a) with p*a^2 == n: valid iff it is the decomposition
    for n in range(2, 2001):
        for a in range(2, isqrt(n) + 1):
            if n % (a * a) == 0:
                claim = SpWitness(n, n // (a * a), a)
                assert (claim.checks() == []) == (sp_decompose(n) == claim)


def test_verify_sp_witness_rejects_tampering():
    assert SpWitness(75, 5, 3).checks()  # swapped roles: 5*9 != 75
    assert SpWitness(76, 3, 5).checks()  # wrong product
    assert SpWitness(100, 4, 5).checks()  # 4 not prime
    assert SpWitness(3, 3, 1).checks()  # a < 2
    assert SpWitness(75, 3, 5).checks() == []


def test_sp_checks_name_failed_invariants():
    assert SpWitness(75, 3, 5).checks() == []
    assert SpWitness(75, 5, 3).checks() == ["n = p·a²"]
    assert SpWitness(100, 4, 5).checks() == ["p prime"]
    assert SpWitness(3, 3, 1).checks() == ["a >= 2"]
    assert SpWitness(12, 12, 1).checks() == ["a >= 2", "p prime"]


def test_witness_str():
    assert str(SpWitness(75, 3, 5)) == "75 = 3 · 5²"
    assert str(KpWitness(7 * 2**10, 10, 7, 2)) == "7168 = 7 · 2¹⁰"
    assert repr(SpWitness(75, 3, 5)) == "SpWitness(n=75, p=3, a=5)"
