"""End-to-end acceptance gates.

Each test covers one numbered criterion and prints a single PASS/FAIL line
(visible with `pytest -s` or on failure); the assertion carries the same
text.  Criteria with runtime budgets measure wall time and fail if over.
"""

import os
import subprocess
import sys
import time
from fractions import Fraction
from functools import lru_cache
from math import isqrt
from pathlib import Path

import numpy as np

import spnum
from spnum import _scan, analytic, census, construct, pell
from spnum.arith import factorize, sieve_primes
from spnum.classify import SpWitness, sp_decompose
from test_census import kp_enumerate
from test_pell import chakravala

GOLDEN_25 = [
    8, 12, 18, 20, 27, 28, 32, 44, 45, 48, 50, 52, 63, 68, 72, 75, 76, 80,
    92, 98, 99, 108, 112, 116, 117,
]

KP_COUNTS = {
    (10**3, 2): 169, (10**4, 2): 1230, (10**5, 2): 9036, (10**6, 2): 69179,
    (10**3, 3): 55, (10**4, 3): 391, (10**5, 3): 2792, (10**6, 3): 21249,
}
KP2_AT = {10**4: 1230, 10**5: 9036, 10**6: 69179, 10**7: 553539}
PSP_AT = {10**4: 769, 10**5: 5637, 10**6: 43889, 10**7: 357613}
DIGITS_1E9 = (1226011, 2910749, 5817886, 2921319, 5797707, 3191168, 5797787, 2921642,
              5818342, 2910706)


def _report(num: int, desc: str, ok: bool, elapsed: float | None = None,
            budget: float | None = None) -> None:
    if budget is not None:
        ok = ok and elapsed < budget
        desc = f"{desc} ({elapsed:.1f}s < {budget:.0f}s)"
    line = f"[criterion {num:2d}] {'PASS' if ok else 'FAIL'}: {desc}"
    print(line)
    assert ok, line


@lru_cache(maxsize=None)
def _prime_zeta2_direct() -> float:
    """P(2) by direct summation over all primes below 1e8 (tail < 1e-9)."""
    ps = sieve_primes(10**8).astype(np.float64)
    return float(np.sum(1.0 / (ps * ps)))


def test_criterion_01_golden_list():
    t0 = time.perf_counter()
    scanned = [n for n in range(2, 118) if sp_decompose(n)]
    merged = [w.n for w in kp_enumerate(117, 2)]
    ok = scanned == GOLDEN_25 and merged == GOLDEN_25
    _report(1, "first 25 SP numbers match on both enumeration routes",
            ok, time.perf_counter() - t0, 1.0)


def test_criterion_02_census_identity():
    t0 = time.perf_counter()
    ok = True
    for n in (10**3, 10**4, 10**5, 10**6):
        for k in (2, 3):
            ident = census.kp_count(n, k)
            enum = sum(1 for _ in kp_enumerate(n, k))
            ok = ok and ident == enum == KP_COUNTS[(n, k)]
    _report(2, "prime-pi identity equals enumeration at 1e3..1e6, k=2,3",
            ok, time.perf_counter() - t0, 60.0)


def test_criterion_03_kp2_ratio_trend():
    t0 = time.perf_counter()
    rows = census.census_table(sorted(KP2_AT), 2, "kp")
    target = analytic.zeta(2).value - 1.0
    gaps = [abs(r.ratio - target) for r in rows]
    ok = (
        [r.exact for r in rows] == [KP2_AT[r.n] for r in rows]
        and all(a > b for a, b in zip(gaps, gaps[1:]))
        and gaps[-1] < gaps[0]
    )
    _report(3, "SP ratio n=1e4..1e7 moves monotonically toward zeta(2)-1",
            ok, time.perf_counter() - t0, 300.0)


def test_criterion_04_psp_ratio_trend():
    t0 = time.perf_counter()
    two_method = abs(analytic.prime_zeta(2).value - _prime_zeta2_direct())
    rows = census.census_table(sorted(PSP_AT), 2, "psp")
    target = analytic.prime_zeta(2).value
    gaps = [abs(r.ratio - target) for r in rows]
    ok = (
        two_method <= 1e-8
        and [r.exact for r in rows] == [PSP_AT[r.n] for r in rows]
        and all(a > b for a, b in zip(gaps, gaps[1:]))
    )
    _report(4, "PSP ratio moves monotonically toward P(2), two-method "
               f"agreement {two_method:.1e} <= 1e-8",
            ok, time.perf_counter() - t0, 300.0)


def test_criterion_05_x2p1_family():
    t0 = time.perf_counter()
    scanned = [w.sp.n for w in construct.x2p1_scan(1100)]
    stream = construct.x2p1_stream(4)
    ok = scanned == [50, 325, 1025] and all(
        w.x**2 + 1 == 2 * w.sp.a**2 and w.sp.checks() == []
        for w in stream
    )
    _report(5, "x^2+1 scan to 1100 gives {50, 325, 1025}; Pell stream "
               "members satisfy m^2+1 = 2n^2 exactly",
            ok, time.perf_counter() - t0, 1.0)


def test_criterion_06_gap_witnesses():
    t0 = time.perf_counter()
    ok = True
    for x in range(1, 1001):
        w = construct.gap_witness(x)
        ok = ok and w.checks() == []
    w1 = construct.gap_witness(1)
    w6 = construct.gap_witness(6)
    ok = ok and (w1.hi, w1.lo) == (SpWitness(28, 7, 2), SpWitness(27, 3, 3))
    ok = ok and (w6.hi, w6.lo) == (SpWitness(18, 2, 3), SpWitness(12, 3, 2))
    _report(6, "gap witnesses verify for x=1..1000; (28,27) at x=1, "
               "(18,12) at x=6",
            ok, time.perf_counter() - t0, 30.0)


def test_criterion_07_pell_stress():
    t0 = time.perf_counter()
    s61 = pell.fundamental_solution(61)
    ok = (s61.x, s61.y) == (1766319049, 226153980)
    for d in range(2, 101):
        if isqrt(d) ** 2 == d:
            continue
        ok = ok and pell.fundamental_solution(d) == chakravala(d)
    _report(7, "D=61 fundamental solution exact; the continued-fraction walk "
               "matches the chakravala oracle for all non-square D <= 100",
            ok, time.perf_counter() - t0, 5.0)


def test_criterion_08_between_squares():
    t0 = time.perf_counter()
    ok = True
    for x in range(1, 10**5 + 1):
        w = construct.between_squares(x)
        ok = ok and x * x < w.sp.n < (x + 2) ** 2 and w.sp.n == 2 * w.n**2
        ok = ok and w.sp.checks() == []
    _report(8, "2n^2 witness strictly between x^2 and (x+2)^2 for "
               "x=1..1e5",
            ok, time.perf_counter() - t0, 5.0)


def test_criterion_09_sum_decomposition():
    t0 = time.perf_counter()
    w50 = construct.sum_decompose(sp_decompose(50))
    w325 = construct.sum_decompose(sp_decompose(325))
    ok = (w50.part1.n, w50.part2.n) == (18, 32)
    ok = ok and (w325.part1.n, w325.part2.n) == (117, 208)
    count = 0
    for n in range(2, 10**4 + 1):
        sp = sp_decompose(n)
        if sp is None:
            continue
        has_q = any(p % 4 == 1 for p, _ in factorize(sp.a).factors)
        w = construct.sum_decompose(sp)
        if not has_q:
            ok = ok and w is None
            continue
        count += 1
        ok = ok and w is not None and w.part1.n + w.part2.n == n
        # independent classifier must reproduce both parts exactly
        ok = ok and sp_decompose(w.part1.n) == w.part1
        ok = ok and sp_decompose(w.part2.n) == w.part2
    ok = ok and count > 100
    _report(9, f"sum split re-verified by the classifier for all {count} "
               "eligible SP numbers <= 1e4 (incl. 50 and 325)",
            ok, time.perf_counter() - t0, 30.0)


def test_criterion_10_x3p1_census():
    t0 = time.perf_counter()
    witnesses = construct.x3p1_scan((10**6) ** 3 + 1)
    ok = len(witnesses) >= 25
    for w in witnesses:
        p, x, y = w.curve_point
        ok = ok and y * y == p * x**3 + p and w.sp.n == x**3 + 1
    by_x = {w.x: w.sp for w in witnesses}
    for fam in construct.x3p1_family(100):
        ok = ok and by_x.get(fam.x) == fam.sp
    _report(10, f"x^3+1 scan to x=1e6 found {len(witnesses)} >= 25 "
                "witnesses, curve identity exact, t<=100 family contained",
            ok, time.perf_counter() - t0, 600.0)


def test_criterion_11_bunyakovsky_report():
    rep = construct.bunyakovsky_report()
    ok = (
        rep.gcd_f2_f3 == 1
        and rep.irreducible
        and rep.identity_checked
        and rep.fixed_divisor_free
        and rep.variant_gcd_f2_f3 == 5
        and not rep.variant_irreducible
    )
    _report(11, "t^4-3t^2+3 passes gcd/irreducibility checks; the +1 "
                "variant is flagged (gcd 5, reducible)", ok)


def test_criterion_12_analytic_self_checks():
    z2 = analytic.zeta(2).value
    d_plain = abs(analytic.hurwitz_zeta2(1).value - z2)
    d_half = abs(analytic.hurwitz_zeta2(Fraction(1, 2)).value - 3 * z2)
    d_p2 = abs(analytic.prime_zeta(2).value - _prime_zeta2_direct())
    ok = d_plain <= 1e-10 and d_half <= 1e-10 and d_p2 <= 1e-8
    _report(12, f"hurwitz(1)=zeta(2) ({d_plain:.1e}), "
                f"hurwitz(1/2)=3*zeta(2) ({d_half:.1e}), "
                f"prime zeta two-method ({d_p2:.1e})", ok)


def test_criterion_13_digit_census_by_identity():
    t0 = time.perf_counter()
    dc = census.digit_census(10**9)
    ok = dc.counts == DIGITS_1E9 and dc.total() == census.kp_count(10**9, 2)
    _report(13, "digit tally at 1e9 from the per-class prime counts matches the "
                "enumeration pin and sums to kp_count",
            ok, time.perf_counter() - t0, 5.0)


def test_criterion_14_x2p1_scan_by_kernel_sieve():
    t0 = time.perf_counter()
    witnesses = construct.x2p1_scan(10**11)
    ok = len(witnesses) == 3431 and all(not w.checks() for w in witnesses)
    _report(14, f"x^2+1 kernel sieve to 1e11 found {len(witnesses)} = 3431 witnesses, "
                "every one passes checks()",
            ok, time.perf_counter() - t0, 5.0)


def test_criterion_15_kp_count_by_batched_tail():
    t0 = time.perf_counter()
    got = census.kp_count(10**11)
    _report(15, f"kp_count(1e11) = {got} = 3053140646, the digit census total at 1e11, "
                "with the tail primes sifted in batches",
            got == 3053140646, time.perf_counter() - t0, 5.0)


def test_criterion_16_scans_to_2e6_in_windows(monkeypatch):
    t0 = time.perf_counter()
    top = 2 * 10**6
    marks = []
    for window in (1 << 18, 1 << 16):  # 8 windows of 2^18, then 31 of 2^16
        monkeypatch.setattr(_scan, "_WINDOW", window)
        parts = list(_scan._x2p1_sieve(top))
        marks.append([np.concatenate([part[i] for part in parts]) for i in (0, 1)])
    same = all(np.array_equal(a, b) for a, b in zip(*marks))
    # the kernel marks only SP numbers x^2 + 1 (a >= 2), so every mark is a member
    found = [len(marks[0][0]), len(construct.x3p1_scan(top**3 + 1))]
    _report(16, f"scans to x = 2e6 find {found[0]} = 17705 SP numbers x^2+1, the same "
                f"in kernel-sieve windows of 2^18 and 2^16, and {found[1]} = 317 SP numbers x^3+1",
            found == [17705, 317] and same, time.perf_counter() - t0, 5.0)


def test_criterion_17_classify_starts_without_numpy():
    t0 = time.perf_counter()
    src = str(Path(spnum.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = ("import sys; from spnum.cli import main; rc = main(['classify', '75']); "
            "print(rc, 'numpy' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=60, env=env)
    _report(17, f"classify 75 in a fresh interpreter prints {proc.stdout.splitlines()[:1]} "
                "= ['75 = 3 · 5²'] and exits 0 without loading numpy",
            proc.stdout == "75 = 3 · 5²\n0 False\n", time.perf_counter() - t0, 5.0)
