"""Zeta-family constants and the asymptotic estimators built on them.

Every series evaluation returns an Estimate carrying a certified absolute
error bound: truncation bound from an enveloping alternating tail (the
Euler-Maclaurin correction terms for x^-s alternate and decrease, so the
first omitted term bounds the remainder) plus a float rounding allowance.
All logs are natural.
"""

from __future__ import annotations

import sys
from fractions import Fraction
from functools import lru_cache
from math import factorial, fsum, log, log1p
from typing import NamedTuple

from .arith import factorize

__all__ = [
    "Estimate",
    "zeta",
    "prime_zeta",
    "hurwitz_zeta2",
    "kp_estimate",
    "psp_estimate",
    "digit1_estimate",
    "digit1_bracket",
]

_EPS = sys.float_info.epsilon

# B_{2i}/(2i)! for i = 1..5, exact: _em_tail sums four terms, the fifth bounds them
_EM_COEFF = [
    Fraction(b) / factorial(2 * i)
    for i, b in enumerate(
        [Fraction(1, 6), Fraction(-1, 30), Fraction(1, 42), Fraction(-1, 30), Fraction(5, 66)],
        start=1,
    )
]


class Estimate(NamedTuple):
    """A float value with a certified absolute error bound."""

    value: float
    abs_error_bound: float


def _em_tail(s: float, t: float) -> tuple[float, float]:
    """(sum_{m>=0} (t+m)^-s, truncation bound), by Euler-Maclaurin.

    Valid for s > 1, t >= 1.  The correction series for x^-s envelopes the
    remainder, so the magnitude of the first omitted term, the last of
    _EM_COEFF, is a true bound.
    """
    pieces = [t ** (1.0 - s) / (s - 1.0), 0.5 * t**-s]
    poch = s
    power = t ** (-s - 1.0)
    for i, coeff in enumerate(_EM_COEFF[:-1], start=1):
        pieces.append(float(coeff) * poch * power)
        poch *= (s + 2 * i - 1) * (s + 2 * i)
        power *= t**-2.0
    trunc = abs(float(_EM_COEFF[-1])) * poch * power
    return fsum(pieces), trunc


@lru_cache(maxsize=None)
def _zeta_excess(k: int) -> Estimate:
    """zeta(k) - 1 = sum_{j>=2} j^-k, computed without cancellation."""
    if k >= 1075:
        # every term is at most 2^-1075 and rounds to 0.0, as does the sum's
        # float; the sum itself is below 2^-1070
        return Estimate(0.0, 2.0**-1070)
    if k >= 20:
        # terms fall off by 2^-k per step; a short head plus the integral
        # tail bound past j=40 is already far below any target
        head = [float(j) ** -k for j in range(2, 41)]
        val = fsum(head)
        trunc = 40.0 ** (1 - k) / (k - 1)
        bound = trunc + 4 * _EPS * val
        if k > 1070:
            bound = max(bound, 2.0**-1070)  # head may underflow to 0.0
        return Estimate(val, bound)
    m = 200
    head = [float(j) ** -k for j in range(2, m)]
    tail, trunc = _em_tail(float(k), float(m))
    val = fsum(head + [tail])
    return Estimate(val, trunc + 4 * _EPS * (val + 1.0))


def zeta(k: int) -> Estimate:
    """zeta(k) for integer k >= 2, absolute error below 1e-12."""
    if k < 2:
        raise ValueError(f"zeta requires k >= 2, got {k}")
    ex = _zeta_excess(k)
    return Estimate(1.0 + ex.value, ex.abs_error_bound + _EPS)


def _mobius(m: int) -> int:
    if m == 1:
        return 1
    fs = factorize(m).factors
    if any(e > 1 for _, e in fs):
        return 0
    return -1 if len(fs) % 2 else 1


@lru_cache(maxsize=None)
def prime_zeta(k: int) -> Estimate:
    """P(k) = sum over primes of p^-k, absolute error below 1e-10.

    Evaluated by the Moebius inversion P(k) = sum_m mu(m)/m * ln zeta(mk),
    with ln zeta computed as log1p of the cancellation-free excess.  The
    dropped tail past m = M is below 6 * 2^-(M+1)k since
    zeta(s) - 1 < 3 * 2^-s for s >= 3.
    """
    if k < 2:
        raise ValueError(f"prime_zeta requires k >= 2, got {k}")
    if k >= 1075:
        return _zeta_excess(k)  # 0 < P(k) < zeta(k) - 1, and both round to 0.0
    terms = []
    err = 0.0
    m = 0
    while True:
        m += 1
        ex = _zeta_excess(m * k)
        mu = _mobius(m)
        if mu:
            t = mu * log1p(ex.value) / m
            terms.append(t)
            err += (ex.abs_error_bound + 2 * _EPS * abs(t)) / m
        if ex.value < 1e-17:
            break
    tail = 6.0 * 2.0 ** (-(m + 1) * k)
    val = fsum(terms)
    return Estimate(val, err + tail + 4 * _EPS * abs(val))


def hurwitz_zeta2(q) -> Estimate:
    """zeta(2, q) = sum_{j>=0} (j+q)^-2 for rational q in (0, 1].

    Absolute error below 1e-10 (in practice ~1e-13: Euler-Maclaurin tail
    past 200 head terms).
    """
    # exact q first: float(q) overflows past 1e308; a q that rounds to 0.0 is refused too
    qf = float(q) if 0 < q <= 1 else 0.0
    if not qf > 0.0:
        raise ValueError(f"hurwitz_zeta2 requires 0 < q <= 1, got {q}")
    try:
        first = qf**-2.0  # the j = 0 term: zeta(2, q) exceeds it
    except OverflowError:
        raise ValueError(f"hurwitz_zeta2 requires q^-2 within the float range, got {q}") from None
    m = 200
    head = [first] + [(j + qf) ** -2.0 for j in range(1, m)]
    tail, trunc = _em_tail(2.0, m + qf)
    val = fsum(head + [tail])
    return Estimate(val, trunc + 8 * _EPS * val)


def _per_log(n: int) -> float:
    if n < 2:
        raise ValueError(f"estimators require n >= 2, got {n}")
    return n / log(n)


def kp_estimate(n: int, k: int = 2) -> float:
    """(zeta(k) - 1) * n / ln n, the KP_k count estimator."""
    return _zeta_excess(k).value * _per_log(n)


def psp_estimate(n: int, k: int = 2) -> float:
    """P(k) * n / ln n, the p1*p2^k count estimator."""
    return prime_zeta(k).value * _per_log(n)


@lru_cache(maxsize=None)
def digit1_bracket() -> Estimate:
    """zeta(2,1/10) + zeta(2,9/10) + zeta(2,3/10) + zeta(2,7/10) - 100.

    100 * sum of 1/a^2 over the bases a = 1, 3, 7, 9 (mod 10), whose
    squares end in 1 or 9; the 100 removed is the j = 0 term (1/10)^-2 of
    zeta(2, 1/10), the base a = 1 that SP numbers exclude.
    """
    parts = [hurwitz_zeta2(Fraction(r, 10)) for r in (1, 9, 3, 7)]
    val = fsum([p.value for p in parts] + [-100.0])
    bound = fsum(p.abs_error_bound for p in parts) + 4 * _EPS * abs(val)
    return Estimate(val, bound)


def digit1_estimate(n: int) -> float:
    """Estimator for the count of SP numbers <= n with final digit 1:
    (1/400) * (n / ln n) * (zeta(2,1/10) + zeta(2,9/10) + zeta(2,3/10)
    + zeta(2,7/10) - 100).  Each base a coprime to 10 takes the primes of
    the one class (of four) that makes p * a^2 end in 1."""
    return digit1_bracket().value / 400.0 * _per_log(n)
