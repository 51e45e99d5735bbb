"""Pell equation x^2 - D*y^2 = +-1: chakravala solver, continued-fraction
solver, and Brahmagupta composition.

Two independent solving routes are kept side by side on purpose:
`fundamental_solution` runs the chakravala iteration, `cf_fundamental`
rebuilds the same answer from the continued fraction of sqrt(D).  Tests
pin them against each other.
"""

from __future__ import annotations

from math import inf, isqrt, log10, sqrt
from typing import NamedTuple

__all__ = [
    "PellSolution",
    "NoSolutionError",
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


def _check_d(d: int) -> None:
    if d < 2 or isqrt(d) ** 2 == d:
        raise ValueError(f"D must be a non-square integer >= 2, got {d}")


def fundamental_solution(d: int) -> PellSolution:
    """Minimal positive solution of x^2 - D*y^2 = 1, by chakravala.

    From the triple (a, b, k) with a^2 - D*b^2 = k, each step picks the
    scaling integer m with a + b*m divisible by |k|, minimizing |m^2 - D|
    (ties broken toward smaller m), and maps to
    ((a*m + D*b)/|k|, (a + b*m)/|k|, (m^2 - D)/k).  The first return to
    k = 1 is the fundamental solution.
    """
    _check_d(d)
    s = isqrt(d)
    a, b, k = 1, 0, 1
    for _ in range(10**6):
        kk = abs(k)
        if b == 0:
            base = 0
        else:
            base = (-a * pow(b, -1, kk)) % kk
        c1 = base + kk * max(0, (s - base) // kk)
        m = min(
            (mm for mm in (c1 - kk, c1, c1 + kk) if mm >= 1),
            key=lambda mm: (abs(mm * mm - d), mm),
        )
        a, b, k = (a * m + d * b) // kk, (a + b * m) // kk, (m * m - d) // k
        if k == 1:
            return PellSolution(d, a, b, 1)
    raise ArithmeticError(f"chakravala did not converge for D={d}")  # pragma: no cover


def _cf_period(d: int) -> tuple[list[int], int, int]:
    """CF expansion of sqrt(d): (partial quotients of one full period
    including a0, h, k) where h/k is the convergent just before the period
    closes, so h^2 - d*k^2 = (-1)^period_length."""
    a0 = isqrt(d)
    quots = [a0]
    m, q, a = 0, 1, a0
    h_prev, h = 1, a0
    k_prev, k = 0, 1
    while a != 2 * a0:
        m = q * a - m
        q = (d - m * m) // q
        a = (a0 + m) // q
        if a == 2 * a0:
            break
        quots.append(a)
        h_prev, h = h, a * h + h_prev
        k_prev, k = k, a * k + k_prev
    return quots, h, k


def cf_fundamental(d: int) -> PellSolution:
    """Minimal solution of x^2 - D*y^2 = 1 via the periodic continued
    fraction of sqrt(D); independent of the chakravala route."""
    _check_d(d)
    quots, h, k = _cf_period(d)
    if len(quots) % 2 == 1:
        # odd period: the period-end convergent has norm -1; square it
        h, k = h * h + d * k * k, 2 * h * k
    return PellSolution(d, h, k, 1)


def negative_fundamental(d: int) -> PellSolution | None:
    """Minimal positive solution of x^2 - D*y^2 = -1, or None.

    Solvable exactly when the continued fraction of sqrt(D) has odd period,
    in which case the convergent closing the first period is the minimal
    solution.
    """
    _check_d(d)
    quots, h, k = _cf_period(d)
    if len(quots) % 2 == 0:
        return None
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
    """(first solution of the stream for norm, fundamental +1 solution).

    solution_stream and stream_log10 solve it themselves unless handed it,
    so a caller that needs both solves once.  For norm -1 the one solve is
    the continued fraction: the fundamental unit is the minimal -1 solution
    squared, as in cf_fundamental."""
    if norm not in (1, -1):
        raise ValueError(f"norm must be +1 or -1, got {norm}")
    if norm == 1:
        fund = fundamental_solution(d)
        return fund, fund
    neg = negative_fundamental(d)
    if neg is None:
        raise NoSolutionError(f"x^2 - {d}*y^2 = -1 has no integer solution")
    return neg, compose(neg, neg)


def solution_stream(
    d: int, norm: int, count: int, start: tuple[PellSolution, PellSolution] | None = None
) -> list[PellSolution]:
    """The `count` smallest solutions of x^2 - D*y^2 = norm, ascending in x,
    generated by repeated composition with the fundamental +1 solution;
    start is stream_start(d, norm), solved here when not given."""
    if count < 0:
        raise ValueError(f"count must be >= 0, got {count}")
    cur, fund = start or stream_start(d, norm)
    out = []
    for _ in range(count):
        out.append(cur)
        cur = compose(cur, fund)
    return out


def _log10_unit(s: PellSolution) -> float:
    """log10(x + y*sqrt(D)), from x alone since D*y^2 = x^2 - norm."""
    return log10(s.x) + log10(1 + sqrt(1 - s.norm / (s.x * s.x)))


def stream_log10(
    d: int, norm: int, count: int, start: tuple[PellSolution, PellSolution] | None = None
) -> float:
    """A lower bound on log10 of the largest x of solution_stream(d, norm,
    count), without composing; -inf when count < 1.  start is as for
    solution_stream.

    The last solution's unit u = x + y*sqrt(D) is the first one's times
    the fundamental unit to the power count - 1, and x >= (u - 1)/2 >= u/4
    since u >= 1 + sqrt(2).  The float sum is shrunk by a relative 1e-12,
    far above its rounding error, and count is capped at 10^9 so that it
    stays finite; both keep it a lower bound.
    """
    if count < 1:
        return -inf
    first, fund = start or stream_start(d, norm)
    steps = min(count, 10**9) - 1
    return (_log10_unit(first) + steps * _log10_unit(fund)) * (1 - 1e-12) - log10(4)
