"""Pell equation x^2 - D*y^2 = +-1: one continued-fraction walk solves both
norms, and Brahmagupta composition builds the streams.

Streams take the one solve of stream_start: solution_stream(stream_start(13, 1), 3),
and stream_last of the same pair and count, its last solution alone in O(log count) compositions.
Both solves and stream_last read the interpreter's int-to-str limit themselves;
the solves stop with arith's DigitLimitError once x reaches 10**limit, an x that
could not be printed, and with StepBudgetError past _PERIOD_STEPS quotients; the
-1 one answers D = 0 or 3 (mod 4), or D with a prime factor p = 3 (mod 4) below 1000, at once.
"""

from __future__ import annotations

from math import gcd, inf, isqrt, prod
from typing import NamedTuple

from .arith import _TRIAL_PRIMES, DigitLimitError, _interpreter_digit_limit, _reaches_pow10

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
    "stream_last",
]


class PellSolution(NamedTuple):
    """Solution of x^2 - D*y^2 = norm, norm in {+1, -1}."""

    D: int
    x: int
    y: int
    norm: int


class NoSolutionError(ValueError):
    """x^2 - D*y^2 = -1 has no integer solution: an answer, not a bad input."""


class StepBudgetError(ValueError):
    """A solve took more steps than its budget allows: a refused input, named
    by the budget it passed."""


def _check_d(d: int) -> None:
    if d < 2 or isqrt(d) ** 2 == d:
        raise ValueError(f"D must be a non-square integer >= 2, got {d}")


# Cohn (Pacific J. Math. 71, 1977): the period of sqrt(D) is shorter than
# 0.72*sqrt(D)*ln(D) for D > 7, which is below 2*10**7 for every D <= 10**12
_PERIOD_STEPS = 2 * 10**7
# the trial primes p = 3 (mod 4): x^2 = -1 has no root mod any of them
_NO_MINUS_1_ROOT = prod(p for p in _TRIAL_PRIMES if p % 4 == 3)


def _cf_period(d: int, digit_limit: int = 0, steps: float = inf,
               stop: str = "") -> tuple[bool, int, int]:
    """CF expansion of sqrt(d): (the period is odd, h, k) where h/k is the
    convergent just before the period closes, so h^2 - d*k^2 = -1 for an odd
    period and +1 for an even one.  Once h reaches a nonzero 10**digit_limit
    the walk raises DigitLimitError naming `stop`, when given, since the +1
    solution's x >= h; without it h and k stop growing and the walk goes on
    in the small m, q, a alone, for the period's parity.  A period of more
    than `steps` quotients is refused with StepBudgetError."""
    a0 = isqrt(d)

    def growing(h: int) -> bool:
        if digit_limit and _reaches_pow10(h, digit_limit):
            if stop:
                raise DigitLimitError(stop, digit_limit)
            return False
        return True

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


def _unit(d: int, odd: bool, h: int, k: int) -> PellSolution:
    """The +1 solution from the period-closing convergent h/k: h/k itself for
    an even period, squared for an odd one, whose h/k has norm -1."""
    if odd:
        h, k = h * h + d * k * k, 2 * h * k
    return PellSolution(d, h, k, 1)


def fundamental_solution(d: int) -> PellSolution:
    """Minimal positive solution of x^2 - D*y^2 = 1, by _cf_period.  Its
    convergents grow up to x, so it stops with DigitLimitError once one
    reaches 10**limit, limit the interpreter's int-to-str limit: a period of
    millions of quotients ends after a few thousand.  With no limit (0), a
    period past _PERIOD_STEPS quotients is refused with StepBudgetError."""
    _check_d(d)
    digit_limit = _interpreter_digit_limit()
    what = f"the fundamental solution for D={d}"
    sol = _unit(d, *_cf_period(d, digit_limit, _PERIOD_STEPS, what))
    if digit_limit and _reaches_pow10(sol.x, digit_limit):
        raise DigitLimitError(what, digit_limit)
    return sol


# public also because perfbench/checker.py checks every pell reply against it
def cf_fundamental(d: int) -> PellSolution:
    """fundamental_solution with neither digit limit nor step budget."""
    _check_d(d)
    return _unit(d, *_cf_period(d))


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
        raise DigitLimitError(f"the minimal -1 solution for D={d}", digit_limit)
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
    one solve that solution_stream and stream_last take.  For norm -1 it is
    negative_fundamental's walk alone: the unit is the minimal -1 solution
    squared, as fundamental_solution squares an odd period's convergent."""
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


def stream_last(start: tuple[PellSolution, PellSolution], count: int) -> PellSolution | None:
    """solution_stream(start, count)[-1] alone: the first times the unit to the
    power count - 1, by square-and-multiply in O(log count) compositions.  None
    once one factor's x reaches 10**limit, the int-to-str limit: composing x >= 1,
    y >= 0 gives an x at least the product of the two, so the last x is no less."""
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    limit = _interpreter_digit_limit()
    last, power = start
    steps = count - 1
    # while steps are left, power or a square of it is a factor still to come
    while not (limit and _reaches_pow10(max(last.x, steps and power.x), limit)):
        if not steps:
            return last
        if steps % 2:
            last = compose(last, power)
        if steps := steps // 2:
            power = compose(power, power)
    return None
