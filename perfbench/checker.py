"""Answer checker: is one CLI response right for its request?

``check(request, rc, out, err)`` returns None for a correct response and a
one-line reason otherwise.  It runs after the timed passes, never inside
them.  Expected answers come from the request's construction, from
``pins.json`` or from ``oracle``; Pell answers are also compared with the
library's continued-fraction route ``spnum.pell.cf_fundamental``, which the
CLI never calls.
"""

from __future__ import annotations

import csv
import importlib
import io
import json
import re
from math import log

import oracle
from workloads import PINS

_SUP_DIGITS = "⁰¹²³⁴⁵⁶⁷⁸⁹"
_SUP = str.maketrans("0123456789", _SUP_DIGITS)
_SP = rf"(\d+) = (\d+) · (\d+)([{_SUP_DIGITS}]+)"


# zeta(2) - 1, zeta(3) - 1 and the prime zeta P(2): the census estimate is
# constant * n / ln n, printed to 6 significant digits.
_CENSUS_CONSTANT = {"kp2": 0.6449340668482264, "kp3": 0.2020569031595943,
                    "psp": 0.4522474200410654}


class Mismatch(Exception):
    """A response that differs from the expected answer."""


def _need(cond: bool, what: str) -> None:
    if not cond:
        raise Mismatch(what)


def _match(pattern: str, line: str) -> tuple[int, ...]:
    m = re.fullmatch(pattern, line)
    _need(m is not None, f"unexpected line {line[:80]!r}")
    return tuple(int(g) if g.isdecimal() else g for g in m.groups())


def _sp(line: str, prefix: str = "") -> tuple[int, int, int]:
    """(n, p, a) from 'n = p · a²', checked as a valid SP certificate."""
    n, p, a, sup = _match(re.escape(prefix) + _SP, line)
    _need(sup == "²", f"exponent {sup} in an SP line")
    _need(a >= 2 and n == p * a * a and oracle.is_prime(p), f"bad SP certificate {n}")
    return n, p, a


def check(request: dict, rc: int | None, out: str, err: str) -> str | None:
    expect = request["expect"]
    try:
        _CHECKS[expect["kind"]](expect, rc, out, err)
    except (Mismatch, ValueError, KeyError, IndexError, TypeError) as exc:
        # malformed output (unparsable JSON, short table) is a wrong answer too
        return f"{' '.join(request['argv'])[:120]}: {type(exc).__name__}: {exc}"
    return None


def _lines(out: str) -> list[str]:
    return out.rstrip("\n").split("\n") if out else []


def _table_rows(fmt: str, out: str, columns: tuple[str, ...]) -> list[dict]:
    """Rows of a census/digits response: the given leading columns, with
    integer cells as ints and the rest as printed."""
    if fmt == "json":
        rows = json.loads(out)["results"]
    elif fmt == "csv":
        rows = list(csv.DictReader(io.StringIO(out)))
    else:
        lines = _lines(out)
        _need(lines[0].split()[:len(columns)] == list(columns), f"bad table header {lines[0]!r}")
        rows = [dict(zip(columns, line.split())) for line in lines[1:]
                if not line.startswith("total")]
    return [{c: int(v) if str(v).isdecimal() else v for c, v in ((c, r[c]) for c in columns)}
            for r in rows]


def _six_digits(printed, want: float) -> bool:
    """printed is want rounded to 6 significant digits (with slack for a
    different floating-point evaluation order near a rounding boundary)."""
    return any(float(f"{w:.6g}") == float(printed) for w in (want * (1 - 1e-12), want, want * (1 + 1e-12)))


def _census(e: dict, rc, out: str, err: str) -> None:
    _need(rc == 0, f"exit {rc}")
    rows = _table_rows(e["format"], out, ("n", "exact", "estimate", "ratio"))
    got = [[r["n"], r["exact"]] for r in rows]
    _need(got == e["rows"], f"counts {got} != pinned {e['rows']}")
    for r in rows:
        n, per_log = r["n"], r["n"] / log(r["n"])
        for name, want in (("estimate", _CENSUS_CONSTANT[e["family"]] * per_log),
                           ("ratio", r["exact"] / per_log)):
            _need(_six_digits(r[name], want), f"{name} {r[name]} at n={n}, expected {want:.6g}")


def _digit_oracle(n: int) -> tuple[int, tuple[int, ...]]:
    return oracle.kp_count(oracle.PiTable(n), 2), tuple(oracle.digit_tally(n))


def _digits(e: dict, rc, out: str, err: str) -> None:
    _need(rc == 0, f"exit {rc}")
    counts = [r["count"] for r in _table_rows(e["format"], out, ("digit", "count"))]
    total, tally = _digit_oracle(e["n"])
    _need(sum(counts) == total, f"tally sums to {sum(counts)}, kp_count(n, 2) = {total}")
    _need(tuple(counts) == tally, f"tally {counts} != enumeration {list(tally)}")
    if e["format"] == "table":
        _need(_lines(out)[-1].split() == ["total", str(total)], "bad total line")


def _classify(e: dict, rc, out: str, err: str) -> None:
    n, k, member = e["n"], e["k"], e["p"] is not None
    _need(rc == (0 if member else 1), f"exit {rc}")
    if e["format"] == "json":
        got = json.loads(out)["results"]
        want = [{"n": n, "k": k, "p": e["p"], "a": e["a"]}] if member else []
        _need(got == want, f"results {got} != {want}")
    elif member:
        want = f"{n} = {e['p']} · {e['a']}{str(k).translate(_SUP)}"
        _need(out == want + "\n", f"printed {out.strip()[:80]!r}, built as {want!r}")
    else:
        _need(out == f"{n} is not a KP_{k} number\n", f"printed {out.strip()[:80]!r}")


def _verified(lines: list[str], per_witness: int) -> list[list[str]]:
    """Split `--verify` output into per-witness line groups, each of at
    least per_witness lines and closed by a PASS verdict."""
    groups, cur = [], []
    for line in lines:
        if line.startswith("  verify: "):
            _need(line == "  verify: PASS", f"verifier said {line.strip()!r}")
            _need(len(cur) >= per_witness, "verify line without a witness")
            groups.append(cur)
            cur = []
        else:
            cur.append(line)
    _need(not cur, "witness without a verify line")
    return groups


def _single(out: str, per_witness: int) -> list[str]:
    groups = _verified(_lines(out), per_witness)
    _need(len(groups) == 1, f"{len(groups)} witnesses, expected one")
    return groups[0]


def _gap(e: dict, rc, out: str, err: str) -> None:
    _need(rc == 0, f"exit {rc}")
    lines = _single(out, 3)
    x, hi, lo, gx, _tag = _match(r"gap (\d+): (\d+) - (\d+) = (\d+)  \[case (\w+)\]", lines[0])
    h = _sp(lines[1], "  hi: ")
    l_ = _sp(lines[2], "  lo: ")
    _need(x == gx == e["x"] and (h[0], l_[0]) == (hi, lo), "header disagrees with members")
    _need(h[0] - l_[0] == x, f"difference {h[0] - l_[0]} != {x}")
    for extra in lines[3:]:
        if extra.startswith("  pell:"):
            d, px, py = _match(r"  pell: D=(\d+) \(x, y\) = \((\d+), (\d+)\)", extra)
            _need(px * px - d * py * py == 1, "pell line fails x² - D·y² = 1")
        else:
            t, s = _match(r"  scaled by t=(\d+) from gap (\d+)", extra)
            _need(t * t * s == x and t >= 2, f"gap {x} is not {t}² · {s}")


def _sum(e: dict, rc, out: str, err: str) -> None:
    if not e["member"]:
        _need(rc == 1 and out == "" and "no prime factor = 1 (mod 4)" in err,
              f"exit {rc} for a square base without a prime = 1 (mod 4)")
        return
    _need(rc == 0, f"exit {rc}")
    lines = _single(out, 3)
    n, n1, n2, q, u, v = _match(r"(\d+) = (\d+) \+ (\d+)  \[q=(\d+) = (\d+)² \+ (\d+)²\]", lines[0])
    p1 = _sp(lines[1], "  part1: ")
    p2 = _sp(lines[2], "  part2: ")
    _need(n == e["n"] and (p1[0], p2[0]) == (n1, n2), "header disagrees with parts")
    _need(n1 + n2 == n, f"{n1} + {n2} != {n}")
    _need(q == u * u + v * v and q % 4 == 1 and oracle.is_prime(q) and e["a"] % q == 0,
          f"q={q} is not a prime = 1 (mod 4) dividing the square base")
    _need(p1[1] == p2[1] == e["p"], "parts use another prime")


def _between(e: dict, rc, out: str, err: str) -> None:
    _need(rc == 0, f"exit {rc}")
    (line,) = _single(out, 1)
    x, lo, sp, hi = _match(r"x=(\d+): (\d+) < (.+) < (\d+)", line)
    n, p, a = _sp(sp)
    _need(x == e["x"] and lo == x * x and hi == (x + 2) ** 2 and lo < n < hi and p == 2,
          f"{n} is not 2·m² strictly between {x}² and {x + 2}²")


def _scan(kind: str, e: dict, rc, out: str) -> None:
    _need(rc == 0, f"exit {rc}")
    pinned = PINS[kind]
    power = 2 if kind == "x2p1" else 3
    _need(e["bound"] <= PINS[f"{kind}_xmax"] ** power + 1, "bound beyond the pinned range")
    want = [x for x in pinned if x**power + 1 <= e["bound"]]
    got = []
    for (line,) in _verified(_lines(out), 1):
        if kind == "x2p1":
            x, rest = _match(r"x=(\d+): (.*)", line)
            n, p, a = _sp(rest)
        else:
            x, rest, cp, cx, cy = _match(r"x=(\d+): (.*)  curve \(p, x, y\) = \((\d+), (\d+), (\d+)\)", line)
            n, p, a = _sp(rest)
            _need(cp == p and cx == x and cy == p * a and cy * cy == p * x**3 + p,
                  f"bad curve point at x={x}")
        _need(n == x**power + 1, f"{n} != x^{power} + 1 at x={x}")
        got.append(x)
    _need(got == want, f"{len(got)} witnesses, {len(want)} pinned")


def _pell(e: dict, rc, out: str, err: str) -> None:
    _need(rc == 0, f"exit {rc}")
    d = e["D"]
    sols = [_match(rf"x=(\d+) y=(\d+)  \[x² - {d}·y² = \+1\]", line) for line in _lines(out)]
    _need(len(sols) == e["count"], f"{len(sols)} solutions, asked for {e['count']}")
    for x, y in sols:
        _need(x * x - d * y * y == 1, f"({x}, {y}) fails x² - {d}·y² = 1")
    cf = importlib.import_module("spnum.pell").cf_fundamental(d)
    _need(sols[0] == (cf.x, cf.y), "fundamental solution differs from cf_fundamental")
    x1, y1 = sols[0]
    for (x, y), nxt in zip(sols, sols[1:]):
        _need(nxt == (x * x1 + d * y * y1, x * y1 + y * x1), "solution stream is not the composition")


_CHECKS = {
    "census": _census,
    "digits": _digits,
    "classify": _classify,
    "gap": _gap,
    "sum": _sum,
    "between": _between,
    "x2p1": lambda e, rc, out, err: _scan("x2p1", e, rc, out),
    "x3p1": lambda e, rc, out, err: _scan("x3p1", e, rc, out),
    "pell": _pell,
}
