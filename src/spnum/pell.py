"""Pell equation x^2 - D*y^2 = +-1: chakravala solver, continued-fraction
solver, and Brahmagupta composition.

Two independent solving routes are kept side by side on purpose:
`fundamental_solution` runs the chakravala iteration, `cf_fundamental`
rebuilds the same answer from the continued fraction of sqrt(D).  Tests
pin them against each other.

Streams take the one solve of stream_start: solution_stream(stream_start(13, 1), 3).
Both solves read the interpreter's int-to-str limit themselves and stop with
DigitLimitError once x reaches 10**limit, an x that could not be printed, and
with StepBudgetError past their step budgets; the -1 one answers D = 0 or
3 (mod 4), or D with a prime factor p = 3 (mod 4) below 1000, at once by gcd.
"""

from __future__ import annotations

from math import gcd, inf, isqrt, log10, prod, sqrt
from typing import NamedTuple

from .arith import _TRIAL_PRIMES, _interpreter_digit_limit, _reaches_pow10

__all__ = [
    "PellSolution",
    "NoSolutionError",
    "DigitLimitError",
    "StepBudgetError",
    "fundamental_solution",
    "negative_fundamental",
    "cf_fundamental",
    "compose",
    "stream_start",
    "solution_stream",
    "stream_log10",
]


class PellSolution(NamedTuple):
    """Solution of x^2 - D*y^2 = norm, norm in {+1, -1}."""

    D: int
    x: int
    y: int
    norm: int


class NoSolutionError(ValueError):
    """x^2 - D*y^2 = -1 has no integer solution: an answer, not a bad input."""


class DigitLimitError(OverflowError):
    """The fundamental solution's x would have more digits than the
    interpreter's int-to-str limit, so it could not be printed."""


class StepBudgetError(ValueError):
    """A solve took more steps than its budget allows: a refused input, named
    by the budget it passed."""


def _check_d(d: int) -> None:
    if d < 2 or isqrt(d) ** 2 == d:
        raise ValueError(f"D must be a non-square integer >= 2, got {d}")


# chakravala's steps before it is refused; with the interpreter's default
# digit limit, the digit stop ends every solve thousands of steps sooner
_CHAKRAVALA_STEPS = 10**6


def fundamental_solution(d: int) -> PellSolution:
    """Minimal positive solution of x^2 - D*y^2 = 1, by chakravala.

    From the triple (a, b, k) with a^2 - D*b^2 = k, each step picks the
    scaling integer m with a + b*m divisible by |k|, minimizing |m^2 - D|
    (ties broken toward smaller m), and maps to
    ((a*m + D*b)/|k|, (a + b*m)/|k|, (m^2 - D)/k).  The first return to
    k = 1 is the fundamental solution.

    The iterates a grow at every step up to that x, so the solve stops with
    DigitLimitError once a reaches 10**limit, limit the interpreter's
    int-to-str limit, an x that could not be printed: a period of millions
    of steps then ends after a few thousand.  An interpreter with no limit
    (0) never stops there; past _CHAKRAVALA_STEPS steps the solve is refused
    with StepBudgetError.

    The admissible m are those = -m_prev (mod |k|), m_prev the previous
    step's m (0 before the first): with m = -m_prev + t*k,
    a + b*m = k*(b*t - b_prev*sign(k_prev)), so no modular inverse of b
    is needed.
    """
    _check_d(d)
    s = isqrt(d)
    digit_limit = _interpreter_digit_limit()
    a, b, k, m = 1, 0, 1, 0
    for _ in range(_CHAKRAVALA_STEPS):
        kk = abs(k)
        base = -m % kk
        c1 = base + kk * max(0, (s - base) // kk)
        m = min(
            (mm for mm in (c1 - kk, c1, c1 + kk) if mm >= 1),
            key=lambda mm: (abs(mm * mm - d), mm),
        )
        a, b, k = (a * m + d * b) // kk, (a + b * m) // kk, (m * m - d) // k
        if digit_limit and _reaches_pow10(a, digit_limit):
            raise DigitLimitError(
                f"the fundamental solution for D={d} has more than {digit_limit} digits")
        if k == 1:
            return PellSolution(d, a, b, 1)
    raise StepBudgetError(
        f"chakravala did not reach the fundamental solution for D={d} within "
        f"{_CHAKRAVALA_STEPS} steps, its step budget")


def _cf_period(d: int, digit_limit: int = 0, steps: float = inf) -> tuple[bool, int, int]:
    """CF expansion of sqrt(d): (the period is odd, h, k) where h/k is the
    convergent just before the period closes, so h^2 - d*k^2 = -1 for an odd
    period and +1 for an even one.  h and k stop growing once h reaches a
    nonzero 10**digit_limit, and the walk goes on in the small m, q, a alone;
    a period of more than `steps` quotients is refused with StepBudgetError."""
    a0 = isqrt(d)

    def growing(h: int) -> bool:
        return not (digit_limit and _reaches_pow10(h, digit_limit))

    grow = growing(a0)
    m, q, a = 0, 1, a0
    h_prev, h = 1, a0
    k_prev, k = 0, 1
    n = 1  # partial quotients of the period so far, a0 included
    while True:
        m = q * a - m
        q = (d - m * m) // q
        a = (a0 + m) // q
        if a == 2 * a0:
            return n % 2 == 1, h, k
        n += 1
        if n > steps:
            raise StepBudgetError(
                f"the continued fraction of sqrt({d}) has a period of more than {steps} "
                "steps, the walk's budget (every D <= 10**12 fits within it)")
        if grow:
            h_prev, h = h, a * h + h_prev
            k_prev, k = k, a * k + k_prev
            grow = growing(h)


# public also because perfbench/checker.py checks every pell reply against it
def cf_fundamental(d: int) -> PellSolution:
    """Minimal solution of x^2 - D*y^2 = 1 via the periodic continued
    fraction of sqrt(D); independent of the chakravala route, and with
    neither digit limit nor step budget."""
    _check_d(d)
    odd, h, k = _cf_period(d)
    if odd:
        # odd period: the period-end convergent has norm -1; square it
        h, k = h * h + d * k * k, 2 * h * k
    return PellSolution(d, h, k, 1)


# Cohn (Pacific J. Math. 71, 1977): the period of sqrt(D) is shorter than
# 0.72*sqrt(D)*ln(D) for D > 7, which is below 2*10**7 for every D <= 10**12
_PERIOD_STEPS = 2 * 10**7
# the trial primes p = 3 (mod 4): x^2 = -1 has no root mod any of them
_NO_MINUS_1_ROOT = prod(p for p in _TRIAL_PRIMES if p % 4 == 3)


def negative_fundamental(d: int) -> PellSolution | None:
    """Minimal positive solution of x^2 - D*y^2 = -1, or None.

    None at once for D = 0 or 3 (mod 4): x^2 + 1 is 1 or 2 mod 4, D*y^2 never;
    and for D with a trial prime p = 3 (mod 4), p < 1000, among its factors:
    x^2 = -1 has no root mod such a p.
    Otherwise solvable exactly when the continued fraction of sqrt(D) has
    odd period, in which case the convergent closing the first period is the
    minimal solution.  The interpreter's int-to-str limit stops it as it
    stops fundamental_solution: an odd period whose x reaches 10**limit
    raises DigitLimitError, though the walk still sees the whole period.  It
    is refused with StepBudgetError past _PERIOD_STEPS steps.
    """
    _check_d(d)
    if d % 4 in (0, 3) or gcd(d, _NO_MINUS_1_ROOT) > 1:
        return None
    digit_limit = _interpreter_digit_limit()
    odd, h, k = _cf_period(d, digit_limit, _PERIOD_STEPS)
    if not odd:
        return None
    if digit_limit and _reaches_pow10(h, digit_limit):
        raise DigitLimitError(
            f"the minimal -1 solution for D={d} has more than {digit_limit} digits")
    return PellSolution(d, h, k, -1)


def compose(s1: PellSolution, s2: PellSolution) -> PellSolution:
    """Brahmagupta composition; norms multiply."""
    if s1.D != s2.D:
        raise ValueError(f"cannot compose solutions for D={s1.D} and D={s2.D}")
    d = s1.D
    return PellSolution(
        d,
        s1.x * s2.x + d * s1.y * s2.y,
        s1.x * s2.y + s1.y * s2.x,
        s1.norm * s2.norm,
    )


def stream_start(d: int, norm: int) -> tuple[PellSolution, PellSolution]:
    """(first solution of the stream for norm, fundamental +1 solution), the
    one solve that solution_stream and stream_log10 take.  For norm -1 it is
    negative_fundamental's walk, under the same digit limit as chakravala's:
    the unit is the minimal -1 solution squared, as in cf_fundamental."""
    if norm not in (1, -1):
        raise ValueError(f"norm must be +1 or -1, got {norm}")
    if norm == 1:
        fund = fundamental_solution(d)
        return fund, fund
    neg = negative_fundamental(d)
    if neg is None:
        raise NoSolutionError(f"x^2 - {d}*y^2 = -1 has no integer solution")
    return neg, compose(neg, neg)


def solution_stream(start: tuple[PellSolution, PellSolution], count: int) -> list[PellSolution]:
    """The `count` smallest solutions of x^2 - D*y^2 = norm, ascending in x:
    start = stream_start(D, norm)'s first, composed with its unit again and again."""
    if count < 0:
        raise ValueError(f"count must be >= 0, got {count}")
    cur, fund = start
    out = []
    for _ in range(count):
        out.append(cur)
        cur = compose(cur, fund)
    return out


def _log10_unit(s: PellSolution) -> float:
    """log10(x + y*sqrt(D)), from x alone since D*y^2 = x^2 - norm."""
    return log10(s.x) + log10(1 + sqrt(1 - s.norm / (s.x * s.x)))


def stream_log10(start: tuple[PellSolution, PellSolution], count: int) -> float:
    """A lower bound on log10 of the largest x of solution_stream(start,
    count), without composing; -inf when count < 1.

    The last solution's unit u = x + y*sqrt(D) is the first one's times
    the fundamental unit to the power count - 1, and x >= (u - 1)/2 >= u/4
    since u >= 1 + sqrt(2).  The float sum is shrunk by a relative 1e-12,
    far above its rounding error, and count is capped at 10^9 so that it
    stays finite; both keep it a lower bound.
    """
    if count < 1:
        return -inf
    first, fund = start
    steps = min(count, 10**9) - 1
    return (_log10_unit(first) + steps * _log10_unit(fund)) * (1 - 1e-12) - log10(4)
