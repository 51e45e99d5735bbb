"""Pell equation solver against brute-force minimal solutions."""

import random
import sys
from math import inf, isqrt, log10

import pytest

from spnum import pell
from spnum.pell import (
    DigitLimitError,
    NoSolutionError,
    PellSolution,
    cf_fundamental,
    compose,
    fundamental_solution,
    negative_fundamental,
    solution_stream,
    stream_log10,
    stream_start,
)


def _is_square(n: int) -> bool:
    return n >= 0 and isqrt(n) ** 2 == n


def _brute_fundamental(d: int, norm: int, y_cap: int) -> PellSolution | None:
    for y in range(1, y_cap + 1):
        t = d * y * y + norm
        if _is_square(t):
            return PellSolution(d, isqrt(t), y, norm)
    return None


def test_examples():
    assert fundamental_solution(2) == PellSolution(2, 3, 2, 1)
    assert fundamental_solution(6) == PellSolution(6, 5, 2, 1)
    assert fundamental_solution(61) == PellSolution(61, 1766319049, 226153980, 1)


def test_negative_examples():
    assert negative_fundamental(2) == PellSolution(2, 1, 1, -1)
    assert negative_fundamental(5) == PellSolution(5, 2, 1, -1)
    assert negative_fundamental(3) is None
    assert negative_fundamental(61) is not None


def test_solutions_satisfy_equation():
    for d in range(2, 101):
        if _is_square(d):
            continue
        s = fundamental_solution(d)
        assert s.x * s.x - d * s.y * s.y == 1
        assert s.x >= 2 and s.y >= 1 and s.norm == 1
        neg = negative_fundamental(d)
        if neg is not None:
            assert neg.x * neg.x - d * neg.y * neg.y == -1


def test_minimality_brute_force():
    for d in range(2, 51):
        if _is_square(d):
            continue
        assert fundamental_solution(d) == _brute_fundamental(d, 1, 5000), d
        neg = negative_fundamental(d)
        assert neg == _brute_fundamental(d, -1, 5000), d


def test_chakravala_agrees_with_continued_fraction():
    for d in range(2, 101):
        if _is_square(d):
            continue
        assert fundamental_solution(d) == cf_fundamental(d), d


def test_chakravala_agrees_with_continued_fraction_to_1e6():
    rng = random.Random(26)
    for d in [*range(101, 2001), *sorted(rng.sample(range(2001, 10**6), 200))]:
        if not _is_square(d):
            assert fundamental_solution(d) == cf_fundamental(d), d


_SETS_DIGIT_LIMIT = pytest.mark.skipif(
    not hasattr(sys, "set_int_max_str_digits"), reason="no int-to-str digit limit to set")


@pytest.fixture
def set_digit_limit():
    """sys.set_int_max_str_digits, the interpreter's limit restored after the test."""
    default = sys.get_int_max_str_digits()
    yield sys.set_int_max_str_digits
    sys.set_int_max_str_digits(default)


def _digit_limit(monkeypatch, limit: int) -> None:
    """Make pell read `limit` as the interpreter's int-to-str limit, which
    the interpreter itself refuses to set between 1 and 639."""
    monkeypatch.setattr(pell, "_interpreter_digit_limit", lambda: limit)


@_SETS_DIGIT_LIMIT
def test_chakravala_stops_exactly_when_x_reaches_the_digit_limit(set_digit_limit):
    """Under the interpreter's least digit limit, 640, the solve stops exactly
    for the D whose fundamental x reaches 10**640: none up to 10**4 (the
    largest x there has 212 digits), 19 of the D in [3·10**5, 302000].  For
    each of those 19, a limit one below the digit count of its x stops the
    solve, and a limit of that count returns x."""
    stopped = []
    set_digit_limit(640)
    for d in [*range(2, 10**4 + 1), *range(300000, 302001)]:
        if _is_square(d):
            continue
        x = cf_fundamental(d).x
        if x >= 10**640:
            with pytest.raises(DigitLimitError, match=f"D={d} has more than 640 digits"):
                fundamental_solution(d)
            stopped.append((d, x))
        else:
            assert fundamental_solution(d).x == x, d
    assert len(stopped) == 19 and stopped[0][0] > 10**4
    set_digit_limit(0)
    for d, x, digits in [(d, x, len(str(x))) for d, x in stopped]:
        set_digit_limit(digits - 1)
        with pytest.raises(DigitLimitError):
            fundamental_solution(d)
        set_digit_limit(digits)
        assert fundamental_solution(d).x == x, d


@_SETS_DIGIT_LIMIT
def test_chakravala_without_a_digit_limit_runs_to_the_end(set_digit_limit, monkeypatch):
    """A limit of 0, set for the interpreter or read from one that has no
    limit to get, means no limit."""
    d, x = 301669, cf_fundamental(301669).x  # x has 1360 digits
    set_digit_limit(1359)
    with pytest.raises(DigitLimitError):
        fundamental_solution(d)
    _digit_limit(monkeypatch, 0)
    assert fundamental_solution(d).x == x
    monkeypatch.undo()
    set_digit_limit(0)
    assert fundamental_solution(d).x == x
    assert fundamental_solution(61) == PellSolution(61, 1766319049, 226153980, 1)


def test_domain_errors():
    for bad in (4, 9, 100, 1, 0, -2):
        with pytest.raises(ValueError):
            fundamental_solution(bad)
        with pytest.raises(ValueError):
            negative_fundamental(bad)


def test_compose():
    a = PellSolution(2, 7, 5, -1)
    b = PellSolution(2, 3, 2, 1)
    assert compose(a, b) == PellSolution(2, 41, 29, -1)
    assert compose(b, b) == PellSolution(2, 17, 12, 1)
    ident = PellSolution(2, 1, 0, 1)
    assert compose(a, ident) == a
    with pytest.raises(ValueError):
        compose(a, PellSolution(3, 2, 1, 1))


def test_compose_norm_law():
    for d in (2, 5, 13):
        fund = fundamental_solution(d)
        neg = negative_fundamental(d)
        cur = neg
        for _ in range(4):
            nxt = compose(cur, fund)
            assert nxt.x * nxt.x - d * nxt.y * nxt.y == nxt.norm == cur.norm
            cur = nxt
        twice = compose(neg, neg)
        assert twice.norm == 1
        assert twice.x * twice.x - d * twice.y * twice.y == 1


def test_negative_solution_squared_is_the_fundamental_solution():
    """stream_start(d, -1) takes its unit as the -1 solution squared; the
    chakravala route must give the same unit for every such D."""
    solvable = 0
    for d in range(2, 20001):
        neg = None if _is_square(d) else negative_fundamental(d)
        if neg is not None:
            solvable += 1
            assert compose(neg, neg) == fundamental_solution(d), d
    assert solvable == 2524


def test_stream_start_negative_norm_skips_chakravala(monkeypatch):
    def boom(d):
        raise AssertionError("chakravala run for a -1 stream")

    monkeypatch.setattr(pell, "fundamental_solution", boom)
    assert stream_start(13, -1) == (PellSolution(13, 18, 5, -1), PellSolution(13, 649, 180, 1))
    with pytest.raises(NoSolutionError):
        stream_start(3, -1)


def test_solution_stream():
    assert [(s.x, s.y) for s in solution_stream(stream_start(2, -1), 3)] == [
        (1, 1), (7, 5), (41, 29)]
    assert [(s.x, s.y) for s in solution_stream(stream_start(2, 1), 2)] == [(3, 2), (17, 12)]
    assert [(s.x, s.y) for s in solution_stream(stream_start(6, 1), 1)] == [(5, 2)]
    assert solution_stream(stream_start(2, 1), 0) == []


def test_solution_stream_structure():
    for d, norm in ((3, 1), (61, 1), (5, -1), (13, -1)):
        sols = solution_stream(stream_start(d, norm), 5)
        assert len(sols) == 5
        xs = [s.x for s in sols]
        assert xs == sorted(xs) and len(set(xs)) == 5
        for s in sols:
            assert s.x * s.x - d * s.y * s.y == norm
        fund = fundamental_solution(d)
        for prev, nxt in zip(sols, sols[1:]):
            assert compose(prev, fund) == nxt


def test_solution_stream_unsolvable():
    with pytest.raises(NoSolutionError):
        stream_start(3, -1)
    with pytest.raises(ValueError, match="norm must be"):
        stream_start(2, 5)
    with pytest.raises(ValueError, match="count must be"):
        solution_stream(stream_start(2, 1), -1)


def test_stream_log10_is_a_tight_lower_bound():
    """Below log10 of every x of the stream, by less than log10(4) + 0.01."""
    for d, norm in ((2, 1), (2, -1), (3, 1), (5, -1), (61, 1), (61, -1), (94, 1), (999999, 1)):
        start = stream_start(d, norm)
        sols = solution_stream(start, 40)
        for count, s in enumerate(sols, 1):
            lb = stream_log10(start, count)
            assert 0 <= log10(s.x) - lb < log10(4) + 0.01, (d, norm, count)
    start = stream_start(2, 1)
    assert stream_log10(start, 0) == stream_log10(start, -1) == -inf
    assert stream_log10(start, 10**30) == stream_log10(start, 10**9)


def test_negative_norm_mod_4_rule_answers_without_walking(monkeypatch):
    """x^2 + 1 is 1 or 2 mod 4, and x^2 = -1 has no root mod a prime p = 3 (mod 4),
    so no D = 0 or 3 (mod 4) and no D with such a factor p < 1000 has a -1 solution;
    the walk is not run for them, and its even period agrees for every such D <= 10**4."""
    small = [p for p in range(3, 1000, 4) if all(p % q for q in range(2, isqrt(p) + 1))]
    ruled = [d for d in range(3, 10**4 + 1) if not _is_square(d)
             and (d % 4 in (0, 3) or any(d % p == 0 for p in small))]
    assert [d for d in ruled if pell._cf_period(d)[0]] == []
    monkeypatch.setattr(pell, "_cf_period", lambda *args: pytest.fail("walked"))
    assert [d for d in ruled if negative_fundamental(d) is not None] == []
    # 10000000000000000061 = 67·79·18307·103200291611 is 1 (mod 4), with a period past
    # the walk's budget
    for d in (1000000000039, 10**40 + 3, 10000000000000000061, 983 * (10**30 + 3)):
        assert negative_fundamental(d) is None
    with pytest.raises(NoSolutionError):
        stream_start(1000000000039, -1)


def test_period_parity_survives_the_stopped_convergents():
    """Under a 3-digit limit h and k stop growing, yet the walk's parity is
    that of the whole period, for every non-square D <= 2·10**4."""
    stopped = 0
    for d in range(2, 2 * 10**4 + 1):
        if _is_square(d):
            continue
        odd, h, k = pell._cf_period(d)
        short = pell._cf_period(d, 3)
        assert short[0] == odd, d
        if h >= 1000:
            stopped += 1
            assert 1000 <= short[1] <= h and short[2] <= k, d
        else:
            assert short[1:] == (h, k), d
    assert stopped > 10**4


def test_negative_norm_stops_exactly_when_x_reaches_the_digit_limit(monkeypatch):
    """As for chakravala: a limit one below the digit count L of the minimal
    -1 solution's x refuses it, a limit of L answers it; an even period
    answers None under any limit."""
    for d in (2, 13, 61, 4909, 99961, 1000033):  # x of 1 to 602 digits
        _digit_limit(monkeypatch, 0)
        neg = negative_fundamental(d)
        digits = len(str(neg.x))
        if digits > 1:
            _digit_limit(monkeypatch, digits - 1)
            with pytest.raises(DigitLimitError, match=f"D={d} has more than {digits - 1} digits"):
                negative_fundamental(d)
        _digit_limit(monkeypatch, digits)
        assert negative_fundamental(d) == neg, d
    _digit_limit(monkeypatch, 1)
    assert negative_fundamental(34) is None  # even period, (35, 6) its +1 solution


def test_negative_norm_walk_budget_refused_by_name(monkeypatch):
    """A period of exactly the budget's length answers, one longer is refused;
    cf_fundamental, the benchmark's oracle, walks without a budget."""
    monkeypatch.setattr(pell, "_PERIOD_STEPS", 141)  # the period of sqrt(4909)
    neg = negative_fundamental(4909)
    _digit_limit(monkeypatch, 0)
    assert negative_fundamental(4909) == neg
    monkeypatch.setattr(pell, "_PERIOD_STEPS", 140)
    with pytest.raises(ValueError, match=r"sqrt\(4909\) has a period of more than 140 steps"):
        negative_fundamental(4909)
    assert cf_fundamental(4909) == fundamental_solution(4909)
