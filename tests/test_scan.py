"""The x^2 + 1 kernel sieve of `spnum._scan` against the route it replaced,
and its roots and prime-power classes against Python's pow.

The oracle kernel below strips every prime p <= x_max from x^2 + 1 by
trial rounds: it recomputes each root class's first x in every window, maps
(x, p) pairs back to their class by searchsorted, and finds each root by
trying bases g = 2, 3, 5, ... one power at a time.
"""

import tracemalloc
from math import isqrt

import numpy as np
import pytest

from spnum import _scan, construct
from spnum.arith import factorize, sieve_primes
from test_cli import run

_ORACLE_WINDOW = 1 << 18


def _oracle_unity_root(ps: np.ndarray) -> np.ndarray:
    """g^((p-1)/4) for the least base g whose power is a primitive fourth
    root of unity mod p, trying the primes g <= isqrt(p) + 1 in turn."""
    w = np.zeros_like(ps)
    todo = np.arange(len(ps))
    for g in sieve_primes(isqrt(int(ps.max(initial=0))) + 1).tolist():
        if not todo.size:
            break
        p = ps[todo]
        cand = _scan._pow_mod(g, (p - 1) // 4, p)
        ok = cand * cand % p != 1
        w[todo[ok]] = cand[ok]
        todo = todo[~ok]
    return w


def _odd_primes(vals, lo, ps, rs):
    """Kernel sieve over an int64 array of polynomial values at x = lo, lo + 1, ...:
    every class (ps[i], rs[i]) names a prime p dividing the value at every
    x = r (mod p), stripped completely in place.  Returns, per x, the number
    of primes of odd exponent (a remainder > 1 included) and one of them."""
    top = len(vals) - 1
    first = (rs - lo) % ps
    per = (top - first) // ps + 1
    ends = np.cumsum(per)
    total = int(ends[-1]) if len(ends) else 0
    count = np.zeros(len(vals), dtype=np.int64)
    prime = np.zeros(len(vals), dtype=np.int64)
    for start in range(0, total, 1 << 16):
        j = np.arange(start, min(start + (1 << 16), total), dtype=np.int64)
        c = np.searchsorted(ends, j, side="right")
        p = ps[c]
        _scan._strip(vals, first[c] + (j - ends[c] + per[c]) * p, p, count, prime)
    rest = vals > 1
    count += rest
    prime[rest] = vals[rest]
    return count, prime


def oracle_x2p1_sieve(xmax: int):
    """(x, prime) arrays per window, as `_scan._x2p1_sieve` yields them, by
    stripping the classes (2, 1) and (p, +-s) of every p <= xmax and leaving
    out the x whose x^2 + 1 is that prime itself (a = 1)."""
    primes = sieve_primes(xmax)
    ps = primes[primes % 4 == 1]
    s = _oracle_unity_root(ps)
    ps, rs = np.concatenate(([2], ps, ps)), np.concatenate(([1], s, ps - s))
    for lo in range(0, xmax + 1, _ORACLE_WINDOW):
        xs = np.arange(lo, min(lo + _ORACLE_WINDOW, xmax + 1), dtype=np.int64)
        count, prime = _odd_primes(xs * xs + 1, lo, ps, rs)
        marked = np.flatnonzero((count == 1) & (prime != xs * xs + 1))
        yield xs[marked], prime[marked]


def _marks(sieve, xmax):
    parts = list(sieve(xmax))
    return (np.concatenate([x for x, _ in parts]).tolist(),
            np.concatenate([k for _, k in parts]).tolist())


def test_marks_match_oracle_small():
    for xmax in range(401):
        assert _marks(_scan._x2p1_sieve, xmax) == _marks(oracle_x2p1_sieve, xmax), xmax


@pytest.mark.parametrize("xmax", [10**4, 31622, 10**5, 10**6])
def test_marks_match_oracle(xmax):
    assert _marks(_scan._x2p1_sieve, xmax) == _marks(oracle_x2p1_sieve, xmax)


def test_marks_match_oracle_across_windows(monkeypatch):
    """Classes carried across the boundaries of 8, 31, 123 and 1954 windows
    mark what the oracle marks at x_max = 2·10^6, where the classes whose
    modulus exceeds 2^31 hit once and are never taken again."""
    top = 2 * 10**6
    want = _marks(oracle_x2p1_sieve, top)
    for window in (1 << 18, 1 << 16, 1 << 14, 1 << 10):
        monkeypatch.setattr(_scan, "_WINDOW", window)
        assert _marks(_scan._x2p1_sieve, top) == want, window


def test_marks_match_factorization():
    """x is marked iff x^2 + 1 = p*a^2 with a >= 2: exactly one prime p of
    odd exponent, other than x^2 + 1 itself, and the mark names it.  So
    x = 1 (x^2 + 1 = 2) and the even x with x^2 + 1 prime are never marked,
    at every x_max <= 400 and at 2*10^4."""
    top = 2 * 10**4
    want, prime_values = {}, []
    for x in range(1, top + 1):
        odd = [p for p, e in factorize(x * x + 1).factors if e % 2]
        if odd == [x * x + 1]:
            prime_values.append(x)
        elif len(odd) == 1:
            want[x] = odd[0]
    assert prime_values[:4] == [1, 2, 4, 6] and all(x % 2 == 0 for x in prime_values[1:])
    for xmax in [*range(401), top]:
        got = dict(zip(*_marks(_scan._x2p1_sieve, xmax)))
        assert got == {x: p for x, p in want.items() if x <= xmax}, xmax


def test_least_nonresidue_and_unity_root():
    ps = sieve_primes(10**5)
    ps = ps[ps % 4 == 1]
    gs = _scan._least_nonresidue(ps).tolist()
    roots = _scan._unity_root(ps).tolist()
    small = sieve_primes(isqrt(10**5) + 1).tolist()
    for p, g, s in zip(ps.tolist(), gs, roots):
        assert g == next(q for q in small if pow(q, (p - 1) // 2, p) == p - 1), p
        assert s * s % p == p - 1, p
        assert s == pow(g, (p - 1) // 4, p), p


@pytest.mark.parametrize("xmax", [1, 4, 5, 100, 4999, 10**6])
def test_lifted_classes(xmax):
    """Every class (p^k, r) has p^k | r^2 + 1 and r <= xmax, each p = 1 (mod 4)
    up to xmax has its two classes mod p, and up to xmax = 4999 every root
    <= xmax of every odd prime power is a class."""
    p, r, k = (a.astype(np.int64) for a in _scan._x2p1_classes(xmax))
    m = p**k
    assert np.all((r * r + 1) % m == 0) and np.all(r <= xmax) and np.all(r < m)
    primes = sieve_primes(xmax)
    one = k == 1
    assert sorted(p[one].tolist()) == sorted(2 * primes[primes % 4 == 1].tolist())
    assert len(set(zip(m.tolist(), r.tolist()))) == len(m)
    if xmax < 5000:
        want = set()
        for q in primes[primes % 4 == 1].tolist():
            qk = q
            while qk <= xmax * xmax + 1:
                want |= {(qk, x) for x in range(min(qk, xmax + 1)) if (x * x + 1) % qk == 0}
                qk *= q
        assert set(zip(m.tolist(), r.tolist())) == want


def test_square_test_is_exact_for_every_positive_int64():
    # m^2 near 2^52 and 2^53, where the float64 spacing reaches 1 and 2;
    # m = 3037000499 is the largest root in int64, and 2^63 - 1 rounds up
    # to a root whose square overflows
    rng = np.random.default_rng(20221)
    ms = np.concatenate([np.arange(2**26 - 1000, 2**26 + 1000),
                         np.arange(94906265 - 1000, 94906265 + 1000),
                         rng.integers(2, 3037000500, 10**5), [2, 3037000499]])
    sq = ms * ms
    assert _scan._is_square(sq).all()
    assert not _scan._is_square(sq - 1).any() and not _scan._is_square(sq + 1).any()
    assert not _scan._is_square(np.array([2**63 - 1, 2**63 - 2])).any()


def test_scan_working_set_at_1e9():
    """The sieve's working set at x_max = 31622 holds one window's accumulators
    and a chunk of hits, not every (x, p) pair at once."""
    tracemalloc.start()
    try:
        construct.x2p1_scan(10**9)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.5 * 2**20, peak


def test_cli_bytes_match_oracle_kernel(capsys, monkeypatch):
    """`witness x2p1 --bound B --verify` prints the same bytes and exit code
    with the oracle kernel in place of the sieve, in table and json."""
    bounds = [*range(2, 2001), 10**6, 10**9 + 7]
    argvs = [["witness", "x2p1", "--bound", str(b), "--verify", *fmt]
             for b in bounds for fmt in ([], ["--format", "json"])]
    new = [run(capsys, *argv) for argv in argvs]
    monkeypatch.setattr(_scan, "_x2p1_sieve", oracle_x2p1_sieve)
    assert [run(capsys, *argv) for argv in argvs] == new
