"""Constructive certificates: gaps, quadratic/cubic families, sums."""

import random
import re
from math import isqrt, prod

import numpy as np
import pytest

from spnum import _scan, construct, pell
from spnum.arith import factorize, ikroot, is_prime, sieve_primes
from spnum.classify import SpWitness, sp_decompose
from spnum.construct import (
    BunyakovskyReport,
    GapWitness,
    SumWitness,
    X2p1Witness,
    X3p1ScanWitness,
    between_squares,
    bunyakovsky_report,
    gap_witness,
    sum_decompose,
    x2p1_scan,
    x2p1_stream,
    x3p1_family,
    x3p1_scan,
)
from test_scan import _odd_primes


def test_gap_pinned_cases():
    w1 = gap_witness(1)
    assert (w1.hi, w1.lo, w1.case_tag) == (
        SpWitness(28, 7, 2), SpWitness(27, 3, 3), "UNIT")
    w2 = gap_witness(2)
    assert (w2.hi.n, w2.lo.n, w2.case_tag) == (50, 48, "PRIME")
    w6 = gap_witness(6)
    assert (w6.hi, w6.lo, w6.case_tag) == (
        SpWitness(18, 2, 3), SpWitness(12, 3, 2), "EVEN_COMPOSITE_SF")
    w15 = gap_witness(15)
    assert (w15.hi.n, w15.lo.n, w15.case_tag) == (27, 12, "ODD_COMPOSITE_SF")
    w9 = gap_witness(9)
    assert (w9.hi, w9.lo, w9.case_tag) == (
        SpWitness(252, 7, 6), SpWitness(243, 3, 9), "NONSQUAREFREE")
    assert w9.aux["t"] == 3 and w9.aux["s"] == 1
    w12 = gap_witness(12)
    assert (w12.hi, w12.lo) == (SpWitness(300, 3, 10), SpWitness(288, 2, 12))


def test_gap_prime_case_uses_pell():
    w = gap_witness(7)
    assert w.case_tag == "PRIME"
    sol = w.aux["pell"]
    p = w.aux["p"]
    assert p == 2
    assert sol.x**2 - p * 7 * sol.y**2 == 1
    assert w.hi == SpWitness(7 * sol.x**2, 7, sol.x)
    assert w.lo == SpWitness(p * (7 * sol.y) ** 2, p, 7 * sol.y)


@pytest.mark.parametrize("x", [43997, 4 * 43997, 9 * 43997], ids=["prime", "4·prime", "9·prime"])
def test_gap_pell_solve_stops_at_a_digit_limit(x, monkeypatch):
    """The PRIME case's Pell solve stops once M reaches 10**limit, limit the
    interpreter's, M having 347 digits here; below it the pair is built
    whatever its size, as for 10000019, whose hi.n has 6064 digits and M
    3029.  A limit under 640 is one the interpreter refuses to set, so
    pell's reading of it is patched."""
    m = gap_witness(43997).aux["pell"].x
    digits = len(str(m))
    built = gap_witness(x)
    monkeypatch.setattr(pell, "_interpreter_digit_limit", lambda: digits - 1)
    with pytest.raises(pell.DigitLimitError, match=f"more than {digits - 1} digits"):
        gap_witness(x)
    monkeypatch.setattr(pell, "_interpreter_digit_limit", lambda: digits)
    assert gap_witness(x) == built
    monkeypatch.undo()
    assert gap_witness(10000019).checks() == []


@pytest.mark.skipif(not pell._interpreter_digit_limit(), reason="no int-to-str digit limit")
def test_library_gap_witness_stops_at_the_digit_limit(monkeypatch):
    """The library call, like `spnum witness gap`, stops the solve for the
    prime 1000000000039 at the interpreter's limit, long before the walk's
    step budget, here cut to 2·10**4 so that a solve without the stop is
    refused by that budget at once."""
    monkeypatch.setattr(pell, "_PERIOD_STEPS", 2 * 10**4)
    with pytest.raises(pell.DigitLimitError, match="D=2000000000078 has more than"):
        gap_witness(1000000000039)


def test_gap_roundtrip_and_case_tags():
    """The case tag follows x = t^2*s, s square-free, with t read off
    factorize(x); a NONSQUAREFREE witness carries that t and s."""
    for x in range(1, 601):
        w = gap_witness(x)
        assert isinstance(w, GapWitness) and w.x == x
        assert w.checks() == [], x
        t = prod(p ** (e // 2) for p, e in factorize(x).factors) if x > 1 else 1
        if t > 1:
            expect = "NONSQUAREFREE"
            s = w.aux["s"]
            assert w.aux["t"] == t and t * t * s == x, x
            assert s == 1 or all(e == 1 for _, e in factorize(s).factors), x
            assert w.aux["inner"] == gap_witness(s), x
        elif x == 1:
            expect = "UNIT"
        elif is_prime(x):
            expect = "PRIME"
        elif x % 2:
            expect = "ODD_COMPOSITE_SF"
        else:
            expect = "EVEN_COMPOSITE_SF"
        assert w.case_tag == expect, x


def test_gap_rejects_tampering():
    w = gap_witness(6)
    # wrong difference, both members still valid
    assert w._replace(x=5).checks()
    assert w._replace(hi=SpWitness(20, 5, 2)).checks()
    # difference and product hold, but the claimed prime is composite
    fake = GapWitness(4, SpWitness(16, 4, 2), SpWitness(12, 3, 2),
                      "EVEN_COMPOSITE_SF", {})
    assert fake.checks()
    # product holds with a unit base
    assert w._replace(lo=SpWitness(12, 12, 1)).checks()
    with pytest.raises(ValueError):
        gap_witness(0)


# per witness type: (a real witness, [(a one-field tamper, the names it must fail)])
TAMPER_CASES = {
    "GapWitness": (lambda: gap_witness(6), [({"x": 5}, ["hi.n - lo.n = x"])]),
    "X2p1Witness": (lambda: x2p1_stream(1)[0], [({"x": 8}, ["sp.n = x²+1"])]),
    "BetweenSquaresWitness": (
        lambda: between_squares(10), [({"x": 12}, ["x² < sp.n < (x+2)²"])]),
    "SumWitness": (
        lambda: sum_decompose(sp_decompose(50)), [({"u": 3}, ["q = u² + v²"])]),
    "X3p1Witness": (lambda: x3p1_family(2)[0], [
        ({"sp": SpWitness(28, 7, 3)}, ["curve y = sp.p·sp.a", "sp.n = p·a²"]),
        ({"t": 3}, ["x = t²-1", "f_t = t⁴-3t²+3 = sp.p"]),
        ({"x": 4}, ["x = t²-1", "curve x = x"]),
        ({"f_t": 11}, ["f_t = t⁴-3t²+3 = sp.p"]),
    ]),
    "X3p1ScanWitness": (lambda: x3p1_scan(28)[0], [
        ({"curve_point": (7, 3, 15)}, ["curve y = sp.p·sp.a", "y² = p·x³ + p"]),
        ({"x": 4}, ["curve x = x"]),
    ]),
}


@pytest.mark.parametrize(
    "name", [n for n in construct.__all__ if n.endswith("Witness")])
def test_witness_checks_name_the_tampered_invariant(name):
    make, tampers = TAMPER_CASES[name]  # every witness type needs a case
    w = make()
    assert type(w).__name__ == name
    assert w.checks() == []
    for change, expect in tampers:
        assert w._replace(**change).checks() == expect, change


def test_witness_checks_prefix_member_invariants():
    w = gap_witness(6)
    assert w._replace(lo=SpWitness(12, 12, 1)).checks() == [
        "lo.a >= 2", "lo.p prime"]
    w = sum_decompose(sp_decompose(50))
    assert w._replace(part2=SpWitness(32, 2, 5)).checks() == [
        "part2.n = p·a²"]
    assert w._replace(part2=SpWitness(50, 2, 5)).checks() == [
        "part1.n + part2.n = input.n"]


def test_gap_lines_scaled_case():
    assert gap_witness(9).lines() == [
        "gap 9: 252 - 243 = 9  [case NONSQUAREFREE]",
        "  hi: 252 = 7 · 6²",
        "  lo: 243 = 3 · 9²",
        "  scaled by t=3 from gap 1",
    ]


def test_x2p1_scan():
    got = x2p1_scan(1100)
    assert [w.sp.n for w in got] == [50, 325, 1025]
    assert [w.x for w in got] == [7, 18, 32]
    for w in got:
        assert w.x**2 + 1 == w.sp.n
        assert sp_decompose(w.sp.n) == w.sp
    assert [w.sp.n for w in x2p1_scan(50)] == [50]
    assert x2p1_scan(49) == []


@pytest.mark.parametrize("kind, kernel, x, claim, failed", [
    ("x2p1", "_x2p1_sieve", 7, 5, "sp.n = p·a²"),  # 50 = 2·5², claimed as 5·3²
    ("x3p1", "_x3p1_candidates", 3, 4,  # 28 = 7·2², claimed as 4·2²
     "y² = p·x³ + p; sp.n = p·a²; sp.p prime"),
    ("x3p1", "_x3p1_candidates", 3, 28, "sp.a >= 2; sp.p prime"),  # 28 claimed as 28·1²
])
def test_scan_with_a_bad_witness_raises(monkeypatch, kind, kernel, x, claim, failed):
    """A kernel that names the wrong prime makes the scan raise, naming the
    failed checks, instead of answering."""
    real = getattr(_scan, kernel)

    def wrong(*args):
        out = real(*args)
        batches = [out] if kind == "x3p1" else out  # x3p1 adds its undecided flags
        fixed = [(xs, np.where(xs == x, claim, ks), *rest) for xs, ks, *rest in batches]
        return fixed[0] if kind == "x3p1" else iter(fixed)

    monkeypatch.setattr(_scan, kernel, wrong)
    with pytest.raises(AssertionError, match=re.escape(f"scan failed at x={x}: {failed}")):
        getattr(construct, f"{kind}_scan")(1100)


def test_x3p1_scan_raises_when_a_decided_candidate_fails_its_prime(monkeypatch):
    """Only a candidate the kernel left undecided may fail "sp.p prime" and be
    dropped.  x = 23 is decided (its A' = 72 is factored): claiming 12168 as
    8·39² fails only that check, and the scan raises."""
    real = _scan._x3p1_candidates

    def wrong(*args):
        xs, ks, undecided = real(*args)
        return xs, np.where(xs == 23, 8, ks), undecided

    monkeypatch.setattr(_scan, "_x3p1_candidates", wrong)
    with pytest.raises(AssertionError, match=re.escape("scan failed at x=23: sp.p prime")):
        construct.x3p1_scan(23**3 + 1)


def x2p1_classified(bound):
    """The per-x route the kernel sieve replaced: sp_decompose(x^2 + 1) for each x."""
    return [X2p1Witness(x, sp) for x in range(1, isqrt(max(bound - 1, 0)) + 1)
            if (sp := sp_decompose(x * x + 1))]


def x3p1_classified(bound):
    """The per-x route for x^3 + 1: sp_decompose(x^3 + 1) for each x."""
    out = []
    x = 1
    while x**3 + 1 <= bound:
        sp = sp_decompose(x**3 + 1)
        if sp is not None:
            out.append(X3p1ScanWitness(x, sp, (sp.p, x, sp.p * sp.a)))
        x += 1
    return out


def test_x2p1_scan_matches_classification():
    every = x2p1_classified(10**9)
    assert len(every) == 476
    assert x2p1_scan(10**9) == every
    assert x2p1_scan(544629723) == [w for w in every if w.sp.n <= 544629723]
    for bound in range(3001):
        assert x2p1_scan(bound) == [w for w in every if w.sp.n <= bound], bound


def test_x3p1_scan_matches_classification():
    every = x3p1_classified(2000**3 + 2)
    for bound in range(3001):
        assert x3p1_scan(bound) == [w for w in every if w.sp.n <= bound], bound
    for x in range(1, 2001):
        expect = [w for w in every if w.x <= x]
        assert x3p1_scan(x**3 + 1) == expect, x
        assert x3p1_scan(x**3 + 2) == expect, x


def test_x2p1_stream():
    got = x2p1_stream(4)
    assert [w.sp.n for w in got] == [50, 1682, 57122, 1940450]
    for w in got:
        assert w.sp.p == 2
        assert w.x**2 + 1 == 2 * w.sp.a**2 == w.sp.n
        assert w.sp.checks() == []
    assert x2p1_stream(0) == []
    with pytest.raises(ValueError):
        x2p1_stream(-1)


def test_x2p1_stream_subset_of_scan():
    scanned = {w.sp.n: w.sp for w in x2p1_scan(60000)}
    for w in x2p1_stream(3):
        assert scanned[w.sp.n] == w.sp


def test_between_squares_examples():
    w = between_squares(1)
    assert (w.n, w.sp) == (2, SpWitness(8, 2, 2))
    assert between_squares(4).sp.n == 18
    assert between_squares(10).sp.n == 128
    with pytest.raises(ValueError):
        between_squares(0)


def test_between_squares_strict_and_minimal():
    for x in range(1, 20001):
        w = between_squares(x)
        m = w.sp.n
        assert m == 2 * w.n**2
        assert x * x < m < (x + 2) ** 2, x
        assert w.sp.checks() == []
        assert w.n == 2 or 2 * (w.n - 1) ** 2 <= x * x, x


def test_sum_decompose_examples():
    w = sum_decompose(sp_decompose(50))
    assert isinstance(w, SumWitness)
    assert (w.q, w.u, w.v) == (5, 2, 1)
    assert (w.part1.n, w.part2.n) == (18, 32)
    w = sum_decompose(sp_decompose(325))
    assert (w.part1.n, w.part2.n) == (117, 208)
    assert sum_decompose(sp_decompose(45)) is None  # base 3: no q = 1 mod 4
    assert sum_decompose(sp_decompose(8)) is None


def test_sum_decompose_all_small_sp():
    for n in range(2, 2001):
        sp = sp_decompose(n)
        if sp is None:
            continue
        w = sum_decompose(sp)
        has_q = any(f % 4 == 1 and is_prime(f) for f in range(2, sp.a + 1)
                    if sp.a % f == 0)
        assert (w is not None) == has_q, n
        if w is None:
            continue
        assert w.u > w.v >= 1 and w.u**2 + w.v**2 == w.q
        assert w.q % 4 == 1 and is_prime(w.q) and sp.a % w.q == 0
        assert w.part1.n + w.part2.n == n
        assert w.part1.checks() == w.part2.checks() == []
        assert w.part1.p == w.part2.p == sp.p


def two_squares_by_descent(q: int) -> tuple[int, int]:
    """q = u^2 + v^2 with u > v >= 1, walking u down from isqrt(q): the
    library's route before Hermite-Serret, whose time grows as sqrt(q)."""
    u, v = isqrt(q), 0
    while 2 * u * u > q:
        w = q - u * u
        v = isqrt(w)
        if v >= 1 and v * v == w:
            return u, v
        u -= 1
    raise AssertionError(f"no two-squares representation of {q}")


def test_sum_decompose_matches_descent_below_1e5():
    primes = [q for q in sieve_primes(10**5).tolist() if q % 4 == 1]
    assert len(primes) == 4783
    for q in primes:
        w = sum_decompose(SpWitness(2 * q * q, 2, q))
        assert (w.q, w.u, w.v) == (q, *two_squares_by_descent(q)), q


def test_sum_decompose_large_primes():
    """Above 10^5 u > v >= 1 with u^2 + v^2 = q pins the answer: a prime has
    one such representation."""
    rng = random.Random(26)
    for digits in (7, 12, 20, 30, 41, 60):
        for _ in range(4):
            q = rng.randrange(10 ** (digits - 1), 10**digits) | 1
            while not (q % 4 == 1 and is_prime(q)):
                q += 2
            w = sum_decompose(SpWitness(3 * q * q, 3, q))
            assert w.q == q and w.u > w.v >= 1 and w.u**2 + w.v**2 == q, q
            assert w.checks() == []


def test_sum_decompose_rejects_bad_witness():
    with pytest.raises(ValueError):
        sum_decompose(SpWitness(50, 2, 4))
    with pytest.raises(ValueError):
        sum_decompose(SpWitness(100, 4, 5))


def test_x3p1_family():
    fam = x3p1_family(4)
    assert [(w.t, w.x, w.f_t, w.sp.n) for w in fam] == [
        (2, 3, 7, 28), (4, 15, 211, 3376)]
    for w in fam:
        assert w.x == w.t**2 - 1
        assert w.x**3 + 1 == w.f_t * w.t**2 == w.sp.n
        assert w.sp == SpWitness(w.sp.n, w.f_t, w.t)
        assert w.sp.checks() == []
        p, x, y = w.curve_point
        assert y * y == p * x**3 + p
    with pytest.raises(ValueError):
        x3p1_family(1)


def test_x3p1_family_frozen_t_list():
    ts = [w.t for w in x3p1_family(100)]
    assert ts == [2, 4, 8, 11, 13, 14, 17, 20, 28, 29, 31, 32, 38, 43, 50,
                  59, 62, 70, 71, 76, 85, 91]


def test_x3p1_scan_small():
    got = x3p1_scan(28)
    assert len(got) == 1
    (w,) = got
    assert isinstance(w, X3p1ScanWitness)
    assert (w.x, w.sp, w.curve_point) == (3, SpWitness(28, 7, 2), (7, 3, 14))
    assert x3p1_scan(27) == []
    assert x3p1_scan(1) == []


def test_x3p1_scan_matches_naive():
    by_x = {w.x: w for w in x3p1_scan(300**3 + 1)}
    expect_x = []
    for x in range(1, 301):
        sp = sp_decompose(x**3 + 1)
        if sp is not None:
            expect_x.append(x)
            assert by_x[x].sp == sp, x
            p, xx, y = by_x[x].curve_point
            assert (p, xx) == (sp.p, x) and y == sp.p * sp.a
            assert y * y == p * x**3 + p
    assert sorted(by_x) == expect_x
    assert expect_x == [3, 11, 15, 23, 63, 74, 120, 146, 168, 191, 195,
                        242, 288]


def test_x3p1_family_contained_in_scan():
    fam = x3p1_family(17)
    top = max(w.x for w in fam)
    by_x = {w.x: w.sp for w in x3p1_scan(top**3 + 1)}
    for w in fam:
        assert by_x[w.x] == w.sp


@pytest.mark.parametrize("order", [4])
def test_unity_root_uses_the_least_working_base(order):
    """g^((p-1)/order) for the least quadratic non-residue g, found one
    prime at a time with Python's pow."""
    ps = sieve_primes(10**4)
    ps = ps[ps % order == 1]
    got = _scan._unity_root(ps).tolist()
    for p, w in zip(ps.tolist(), got):
        g = next(g for g in range(2, p) if pow(g, (p - 1) // 2, p) != 1)
        assert w == pow(g, (p - 1) // order, p), p


@pytest.mark.parametrize("window", [1, 7, 4096])
def test_scans_agree_across_window_sizes(monkeypatch, window):
    """An x^2 + 1 scan split into windows of any size finds what one default
    window finds: the first x of each class follows the window offset."""
    default = [x2p1_scan(b) for b in range(3001)]
    big = x2p1_scan(10**9)
    monkeypatch.setattr(_scan, "_WINDOW", window)
    assert [x2p1_scan(b) for b in range(3001)] == default
    assert x2p1_scan(10**9) == big


def _cube_root_of_unity(ps):
    """A primitive cube root of unity mod every prime p = 1 (mod 3) of ps:
    g^((p-1)/3) for the least base g = 2, 3, ... where that is not 1."""
    w = np.zeros_like(ps)
    todo = np.arange(len(ps))
    g = 2
    while todo.size:
        p = ps[todo]
        cand = _scan._pow_mod(g, (p - 1) // 3, p)
        ok = cand != 1
        w[todo[ok]] = cand[ok]
        todo = todo[~ok]
        g += 1
    return w


def x3p1_kernel_scan(bound):
    """The route x3p1_scan replaced: a kernel sieve of x^2 - x + 1 at every
    x <= x_max, in windows.  Its prime divisors p = 1 (mod 3) divide it
    exactly at the primitive sixth roots of unity -w, -w^2 mod p; for
    x = 2 (mod 3) its one 3 is moved onto x + 1.  Where x + 1 is a square
    the sieve's count decides; where x^2 - x + 1 is one, x + 1 is factored."""
    if bound < 2:
        return []
    xmax = ikroot(bound - 1, 3)
    primes = sieve_primes(xmax)
    ps = primes[primes % 3 == 1]
    w = _cube_root_of_unity(ps)
    ps, rs = np.concatenate((ps, ps)), np.concatenate((ps - w, ps - w * w % ps))
    out = []
    for lo, xs in _scan._windows(xmax):
        a, b = xs + 1, xs * xs - xs + 1
        at_2 = (2 - lo) % 3  # index of the first x = 2 (mod 3)
        a[at_2::3] *= 3
        b[at_2::3] //= 3
        root = np.rint(np.sqrt(a)).astype(np.int64)
        a_square = root * root == a
        b_count, b_prime = _odd_primes(b, lo, ps, rs)
        count = np.where(a_square, b_count, 2)
        prime = np.where(a_square, b_prime, 0)
        for i in np.flatnonzero(~a_square & (b_count == 0)).tolist():
            odd = [p for p, e in factorize(int(a[i])).factors if e % 2]
            count[i], prime[i] = len(odd), odd[0]
        marked = np.flatnonzero((count == 1) & (xs != 1))  # x = 1 marks the prime 2 = x^3 + 1
        out += [X3p1ScanWitness(x, sp, (sp.p, x, sp.p * sp.a))
                for x, sp in construct._members(xs[marked], prime[marked], lambda x: x**3 + 1)]
    return out


def test_x3p1_scan_matches_kernel_route():
    old = x3p1_kernel_scan((2 * 10**6) ** 3 + 1)
    assert len(old) == 317
    assert x3p1_scan((2 * 10**6) ** 3 + 1) == old
    below = [w for w in old if w.x <= 10**6]
    assert len(below) == 243
    assert x3p1_scan(10**18 + 1) == below
    assert x3p1_kernel_scan(3000) == x3p1_scan(3000) == x3p1_classified(3000)


def test_b_square_xs_by_brute_force():
    """The Pell-generated x are exactly the x <= 10^6 with (x^2 - x + 1)/3 a
    square, and x^2 - x + 1 itself is a square only at x = 0 and 1."""
    x = np.arange(10**6 + 1, dtype=np.int64)
    b = x * x - x + 1

    def square(v):
        r = np.rint(np.sqrt(v)).astype(np.int64)  # exact: v < 2^52
        return r * r == v

    third = b % 3 == 0
    assert _scan._b_square_xs(10**6) == x[third][square(b[third] // 3)].tolist()
    assert _scan._b_square_xs(10**6) == [2, 23, 314, 4367, 60818, 847079]
    assert x[square(b)].tolist() == [0, 1]


def test_trial_odd_primes_cofactors():
    """The primes 103 and 109 (both 1 mod 3) lie above the cube root of every
    entry, so trial division leaves them as the cofactor R: q^2 after an odd
    trial prime (SP-shaped), q*r alone (two odd primes, not SP), a prime
    after an odd trial prime (two, not SP), and q^2 alone (none)."""
    vals = np.array([7 * 103**2, 103 * 109, 7**2 * 13 * 103, 103**2], dtype=np.int64)
    count, prime = _scan._trial_odd_primes(vals)
    assert count.tolist() == [1, 0, 1, 0]
    assert prime.tolist() == [7, 0, 13, 0]
    assert vals.tolist() == [103**2, 103 * 109, 103, 103**2]
    # a scan candidate with R = q*r: x = 169^2 - 1 and x^2 - x + 1 = 12763 * 63907
    x = 28560
    assert factorize(x * x - x + 1).factors == ((12763, 1), (63907, 1))
    assert sp_decompose(x**3 + 1) is None
    assert x not in {w.x for w in x3p1_scan(x**3 + 1)}


def test_bunyakovsky_report():
    r = bunyakovsky_report()
    assert isinstance(r, BunyakovskyReport)
    assert r.polynomial == "t^4 - 3*t^2 + 3"
    assert r.leading_coefficient == 1 and r.leading_positive
    assert r.rational_root_candidates == (-3, -1, 1, 3)
    assert not r.has_rational_root and not r.has_quadratic_split
    assert r.irreducible
    assert r.identity_checked
    assert (r.f2, r.f3, r.gcd_f2_f3) == (7, 57, 1)
    assert r.running_gcd == ((1, 1),)
    assert r.fixed_divisor_free
    assert r.variant_polynomial == "t^4 - 3*t^2 + 1"
    assert r.variant_gcd_f2_f3 == 5
    assert not r.variant_irreducible
