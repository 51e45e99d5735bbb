"""Series constants: closed forms, direct-sum windows, certified bounds."""

import sys
from fractions import Fraction
from math import isfinite, log, nextafter, pi

import numpy as np
import pytest

from spnum.analytic import (
    Estimate,
    digit1_bracket,
    digit1_estimate,
    hurwitz_zeta2,
    kp_estimate,
    prime_zeta,
    psp_estimate,
    zeta,
)
from spnum.arith import sieve_primes


def test_zeta_closed_forms():
    for k, exact in ((2, pi**2 / 6), (4, pi**4 / 90), (6, pi**6 / 945)):
        z = zeta(k)
        assert isinstance(z, Estimate)
        assert abs(z.value - exact) <= z.abs_error_bound + 1e-15
        assert abs(z.value - exact) < 1e-12


def test_zeta_frozen_and_bounds():
    assert zeta(3).value == pytest.approx(1.202056903159594, abs=2e-15)
    for k in range(2, 60):
        z = zeta(k)
        assert 0.0 <= z.abs_error_bound <= 1e-12
        # the 2^-k excess underflows past one ulp of 1.0 around k = 53
        assert z.value > 1.0 if k <= 50 else z.value >= 1.0


def test_zeta_direct_sum_window():
    # independent route: numpy partial sum plus integral bracket on the tail
    n = 10**7
    j = np.arange(2, n, dtype=np.float64)
    s2 = float(np.sum(1.0 / (j * j)))
    assert zeta(2).value - 1.0 == pytest.approx(s2 + 1.0 / n, abs=1e-11)
    n3 = 10**6
    j3 = np.arange(2, n3, dtype=np.float64)
    s3 = float(np.sum(j3**-3.0))
    assert zeta(3).value - 1.0 == pytest.approx(s3 + 0.5 / n3**2, abs=1e-11)


def test_zeta_monotone_in_k():
    vals = [zeta(k).value for k in range(2, 31)]
    assert vals == sorted(vals, reverse=True)
    assert vals[-1] == pytest.approx(1.0, abs=1e-8)


def test_zeta_domain():
    for bad in (1, 0, -3):
        with pytest.raises(ValueError):
            zeta(bad)
    with pytest.raises(ValueError):
        prime_zeta(1)


def test_zeta_and_prime_zeta_past_float_underflow():
    """From k = 1075 every term j^-k rounds to 0.0, so zeta(k) - 1 and P(k)
    answer 0.0 with the bound 2^-1070, also where 2^-k has no float
    exponent at all (k = 10^400 once raised OverflowError)."""
    assert zeta(1074) == Estimate(1.0, 2.0**-1070 + 2.0**-52)
    assert prime_zeta(1074) == Estimate(2.0**-1074, 2.0**-1070)
    for k in (1075, 10**400):
        assert zeta(k) == Estimate(1.0, 2.0**-1070 + 2.0**-52)
        assert prime_zeta(k) == Estimate(0.0, 2.0**-1070)


def test_prime_zeta_frozen():
    assert prime_zeta(2).value == pytest.approx(0.452247420041065, abs=5e-12)
    assert prime_zeta(4).value == pytest.approx(0.076993139764247, abs=5e-12)
    for k in range(2, 40):
        assert prime_zeta(k).abs_error_bound <= 1e-10


def test_prime_zeta_direct_sum_window():
    ps = sieve_primes(10**6).astype(np.float64)
    s = float(np.sum(1.0 / (ps * ps)))
    # tail over primes > 1e6 is positive and below the all-integers tail 1e-6
    assert s < prime_zeta(2).value < s + 1e-6
    s3 = float(np.sum(ps**-3.0))
    assert s3 < prime_zeta(3).value < s3 + 1e-11


def test_prime_zeta_leading_terms():
    for k in range(2, 26):
        diff = prime_zeta(k).value - 2.0**-k - 3.0**-k
        assert -1e-15 < diff < 4.0 ** (1 - k) + 1e-15, k


def test_prime_zeta_monotone_in_k():
    vals = [prime_zeta(k).value for k in range(2, 31)]
    assert vals == sorted(vals, reverse=True)


def test_hurwitz_identities():
    z2 = zeta(2).value
    assert hurwitz_zeta2(1).value == pytest.approx(z2, abs=1e-10)
    assert hurwitz_zeta2(Fraction(1, 2)).value == pytest.approx(3 * z2, abs=1e-10)
    quarters = sum(hurwitz_zeta2(Fraction(r, 4)).value for r in (1, 2, 3, 4))
    assert quarters == pytest.approx(16 * z2, abs=1e-9)
    tenths = sum(hurwitz_zeta2(Fraction(r, 10)).value for r in range(1, 11))
    assert tenths == pytest.approx(100 * z2, abs=1e-8)


def test_hurwitz_frozen_values():
    assert hurwitz_zeta2(Fraction(1, 10)).value == pytest.approx(
        101.433299150793, abs=1e-9)
    assert hurwitz_zeta2(Fraction(3, 10)).value == pytest.approx(
        12.245364546108, abs=1e-9)
    assert hurwitz_zeta2(Fraction(7, 10)).value == pytest.approx(
        2.834049156695, abs=1e-9)
    assert hurwitz_zeta2(Fraction(9, 10)).value == pytest.approx(
        1.922539959477, abs=1e-9)


def test_hurwitz_direct_sum_window():
    n = 10**7
    j = np.arange(n, dtype=np.float64)
    s = float(np.sum((j + 0.1) ** -2.0))
    assert hurwitz_zeta2(Fraction(1, 10)).value == pytest.approx(
        s + 1.0 / n, abs=1e-9)


def test_hurwitz_bound_and_domain():
    for r in range(1, 11):
        h = hurwitz_zeta2(Fraction(r, 10))
        assert h.abs_error_bound <= 1e-10
    for bad in (0, -1, Fraction(11, 10), 1.5, 10**400, -(10**400), Fraction(1, 10**400)):
        with pytest.raises(ValueError):
            hurwitz_zeta2(bad)


def test_hurwitz_refuses_q_whose_inverse_square_passes_the_float_range():
    """zeta(2, q) > q^-2, so the least q that answers is the least float whose
    q^-2 is finite; the float below it, 1e-160 and 1e-300 are refused by name."""
    def overflows(q: float) -> bool:
        try:
            q**-2.0
        except OverflowError:
            return True
        return False

    least = sys.float_info.max**-0.5
    while not overflows(nextafter(least, 0)):
        least = nextafter(least, 0)
    while overflows(least):
        least = nextafter(least, 1)
    h = hurwitz_zeta2(Fraction(least))
    assert isfinite(h.value) and h.value >= least**-2.0
    for bad in (Fraction(nextafter(least, 0)), Fraction(1, 10**160), Fraction(1, 10**300)):
        with pytest.raises(ValueError, match=r"q\^-2 within the float range"):
            hurwitz_zeta2(bad)


def test_kp_estimate():
    assert kp_estimate(20, 2) == pytest.approx(4.306, abs=5e-4)
    expect = (zeta(3).value - 1.0) * 1000 / log(1000)
    assert kp_estimate(1000, 3) == pytest.approx(expect, rel=1e-12)
    assert kp_estimate(100, 50) < 1e-12
    with pytest.raises(ValueError):
        kp_estimate(1, 2)


def test_psp_and_pkp_estimates():
    for n in (10, 1000, 10**6):
        assert 0 < psp_estimate(n) < kp_estimate(n, 2)
        assert psp_estimate(n, 2) == psp_estimate(n)
        assert psp_estimate(n, 3) < psp_estimate(n, 2)
        assert psp_estimate(n, 3) == pytest.approx(prime_zeta(3).value * n / log(n), rel=1e-12)
    with pytest.raises(ValueError):
        psp_estimate(1)


def test_digit1_bracket_and_estimate():
    br = digit1_bracket()
    assert br.value == pytest.approx(18.435252813072, abs=1e-9)
    assert br.abs_error_bound <= 1e-9
    expect = br.value / 400.0 * 10**5 / log(10**5)
    assert digit1_estimate(10**5) == pytest.approx(expect, rel=1e-12)
    assert digit1_estimate(10**5) == pytest.approx(400.316, abs=0.001)
    with pytest.raises(ValueError):
        digit1_estimate(1)
