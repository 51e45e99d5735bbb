"""Command-line front end: classification, censuses, digit tallies, witness
generation with independent re-verification, Pell solving, and the analytic
constants.

A command builds only the parser it runs, and imports only what it runs:
`census`, `construct`, `analytic`, `pell`, `json`, `decimal` and `fractions`
in the commands that use them, numpy in a census, digit table or --bound scan.

Output is deterministic: stable ordering and fixed float formatting
(6 significant digits in census/digit tables, 12 for the analytic
constants).  Exit codes: 0 success/membership, 1 honest negative
(non-member, unsolvable, precondition failure), 2 usage errors.  A command
returns its exit code and reply lines, and `main` alone writes them, once,
after the command has finished, so a reply that fails to render leaves
stdout empty.  A command refuses an input by raising ValueError; `main`
alone prints it as `error: …` on stderr and returns 2.
"""

from __future__ import annotations

import argparse
import functools
import sys
from typing import Callable

from .arith import _interpreter_digit_limit, _reaches_pow10
from .classify import kp_decompose, sp_decompose

# The prime-count tables hold pi at v <= r = isqrt(bound), an int32 position map of r entries,
# and four int64 entries per kept index, the multiples of some a^k (0.39·r of them at k = 2).
MAX_CENSUS_BOUND = 10**12  # up to 2.7·isqrt(bound) int64 entries; kp_count's traced peak 31.7 MiB
MAX_DIGITS_BOUND = 10**11  # class table, 4 rows: 6.9·isqrt(bound) int64 entries; peak 24.9 MiB
MAX_SCAN_X = 10**7  # x2p1/x3p1 --bound: x2p1 sieves every x <= it in windows; x3p1 about 1.6·sqrt(it) x
MAX_FAMILY_T = 10**5  # x3p1 --t-max: one is_prime per t (2.0 s at the cap)


def _fmt6(x: float) -> str:
    return f"{x:.6g}"


class _NotAnInteger(argparse.ArgumentTypeError, ValueError):
    """A malformed integer: a usage error when argparse parses the argument,
    an `error: …` from main when a command parses the text itself."""


class _PastDigitLimit(Exception):
    """An input past the interpreter's int-to-str limit, refused before it is
    printed; not a ValueError, which argparse would turn into a usage message."""

    def __init__(self, what: str, limit: int) -> None:
        super().__init__(f"{what} has more than {limit} digits, the interpreter's "
                         "int-to-str limit, which PYTHONINTMAXSTRDIGITS sets")


def _nat(text: str) -> int:
    """Integer argument, accepting scientific notation like 1e6.  Plain ASCII
    digits are read by int(); other text, and digits int() refuses (past the
    digit limit), by Decimal, which refuses a value past the limit by name."""
    if text.isascii() and text.isdigit():
        try:
            return int(text)
        except ValueError:
            pass
    from decimal import Decimal, InvalidOperation

    try:
        d = Decimal(text)
    except InvalidOperation:
        raise _NotAnInteger(f"not a number: {text!r}")
    if not d.is_finite():
        raise _NotAnInteger(f"not a finite number: {text!r}")
    if d != d.to_integral_value():
        raise _NotAnInteger(f"not an integer: {text!r}")
    limit = _interpreter_digit_limit()
    if limit and d and d.adjusted() >= limit:
        raise _PastDigitLimit("an integer argument", limit)
    return int(d)


def _decimal(text: str):
    """(mantissa, exponent) of a finite decimal's text, or None: the mantissa
    read by Decimal, the exponent by int(), which unlike Decimal reads one
    past 10**18."""
    import re
    from decimal import Decimal, InvalidOperation

    parts = re.fullmatch(r"\s*([^\seE]*)(?:[eE]([-+]?\d+(?:_\d+)*))?\s*", text)
    try:
        mantissa = Decimal(parts[1])
    except (TypeError, InvalidOperation):  # no match, or no number
        return None
    return (mantissa, int(parts[2] or 0)) if mantissa.is_finite() else None


def _rational(text: str):
    """The Fraction that text writes, refused by name when its reduced
    numerator or denominator reaches 10**limit.  The text alone refuses it
    unbuilt when it shows a side of a/b with more than limit digits, which
    int() refuses anyway, or a nonzero decimal >= 10**limit or < 10**-limit;
    a zero decimal is 0 at once, so no 10**|exponent| is built."""
    from fractions import Fraction

    limit = _interpreter_digit_limit()
    num, slash, den = text.partition("/")
    if slash:
        past = max(sum(map(str.isdecimal, num)), sum(map(str.isdecimal, den))) > limit
    elif decimal := _decimal(text):
        mantissa, exponent = decimal
        if not mantissa:
            return Fraction(0)
        past = not -limit <= mantissa.adjusted() + exponent < limit
    else:
        past = False
    if limit and past:
        raise _PastDigitLimit("the value's numerator or denominator", limit)
    try:
        q = Fraction(text)
    except ZeroDivisionError:  # a zero denominator, as in "1/0"
        raise ValueError(f"zero denominator: {text!r}") from None
    if limit and _reaches_pow10(max(abs(q.numerator), q.denominator), limit):
        raise _PastDigitLimit("the value's numerator or denominator", limit)
    return q


def _plain(obj):
    """A record or dict as a dict and a list or tuple as a list, recursively."""
    if hasattr(obj, "_asdict"):
        obj = obj._asdict()
    if isinstance(obj, dict):
        return {key: _plain(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(value) for value in obj]
    return obj


def _json_text(command: str, parameters: dict, results: list) -> str:
    import json

    return json.dumps({"command": command, "parameters": parameters, "results": _plain(results)},
                      indent=2)


def _check_budget(arg: str, value: int, cap: int, budget: str, why: str, remedy: str) -> None:
    """Refuse `arg value` past cap: it exceeds the `budget` budget, `why`
    gives the cap and its cost, and `remedy` the constant that sets the cap."""
    if value > cap:
        raise ValueError(f"{arg} {value} exceeds the {budget} budget ({why}); "
                         f"raise {remedy} to spare")


def _check_digit_limit(refused: str, value: int, what: str, past: Callable[[int], bool]) -> None:
    """Refuse `refused value` (an option or command and its argument) when
    past(limit) holds: the largest integer of its reply, `what`, certainly has
    more digits than the interpreter's int-to-str limit."""
    limit = _interpreter_digit_limit()
    if limit and past(limit):
        raise ValueError(
            f"{refused} {value} exceeds the digit budget: {what} would have more "
            f"than {limit} digits, past the interpreter's int-to-str limit ({limit} digits), "
            "which PYTHONINTMAXSTRDIGITS sets")


# ---------------------------------------------------------------- classify


def cmd_classify(args: argparse.Namespace) -> tuple[int, list[str]]:
    n, k = args.n, args.k
    if k < 2:
        raise ValueError(f"k must be >= 2, got {k}")
    w = kp_decompose(n, k)
    rc = 0 if w else 1
    if args.format == "json":
        return rc, [_json_text("classify", {"n": n, "k": k}, [w] if w else [])]
    return rc, [str(w) if w else f"{n} is not a KP_{k} number"]


# ------------------------------------------------------------------ census


def _parse_checkpoints(text: str) -> list[int]:
    return [_nat(part) for part in text.split(",") if part]


def cmd_census(args: argparse.Namespace) -> tuple[int, list[str]]:
    bound = args.bound
    if bound < 2:
        raise ValueError(f"bound must be >= 2, got {bound}")
    _check_budget("bound", bound, MAX_CENSUS_BOUND, "prime-count table",
                  f"{MAX_CENSUS_BOUND}; the table holds up to 2.7·isqrt(bound) int64 entries",
                  "MAX_CENSUS_BOUND only with memory")
    checkpoints = args.checkpoints if args.checkpoints is not None else [bound]
    if not checkpoints:
        raise ValueError("--checkpoints names no bound")
    if any(c < 2 or c > bound for c in checkpoints) or checkpoints != sorted(checkpoints):
        raise ValueError("checkpoints must be ascending and within [2, bound]")
    from . import census

    rows = census.census_table(checkpoints, args.k, args.family)
    if args.format == "json":
        params = {"bound": bound, "k": args.k, "family": args.family, "checkpoints": checkpoints}
        return 0, [_json_text("census", params, [
            r._replace(estimate=float(_fmt6(r.estimate)), ratio=float(_fmt6(r.ratio)))
            for r in rows])]
    if args.format == "csv":
        return 0, ["n,exact,estimate,ratio"] + [
            f"{r.n},{r.exact},{_fmt6(r.estimate)},{_fmt6(r.ratio)}" for r in rows]
    # columns widen only for values that would overflow them (n = 10^12, counts >= 10^10)
    wn = max([12] + [len(str(r.n)) for r in rows])
    we = max([10] + [len(str(r.exact)) for r in rows])
    return 0, [f"{'n':>{wn}} {'exact':>{we}} {'estimate':>12} {'ratio':>10}"] + [
        f"{r.n:>{wn}} {r.exact:>{we}} {_fmt6(r.estimate):>12} {_fmt6(r.ratio):>10}" for r in rows]


# ------------------------------------------------------------------ digits


def cmd_digits(args: argparse.Namespace) -> tuple[int, list[str]]:
    bound = args.bound
    if bound < 2:
        raise ValueError(f"bound must be >= 2, got {bound}")
    _check_budget("bound", bound, MAX_DIGITS_BOUND, "class prime-count table",
                  f"{MAX_DIGITS_BOUND}; the table holds 6.9·isqrt(bound) int64 entries",
                  "MAX_DIGITS_BOUND only with memory")
    from . import analytic, census

    dc = census.digit_census(bound)
    est = analytic.digit1_estimate(bound) if bound >= 3 else None
    if args.format == "json":
        results = []
        for digit, count in enumerate(dc.counts):
            row = {"digit": digit, "count": count}
            if digit == 1 and est is not None:
                row["estimate"] = float(_fmt6(est))
            results.append(row)
        return 0, [_json_text("digits", {"bound": bound}, results)]
    if args.format == "csv":
        return 0, ["digit,count"] + [f"{digit},{count}" for digit, count in enumerate(dc.counts)]
    lines = [f"{'digit':>5} {'count':>10}"]
    for digit, count in enumerate(dc.counts):
        suffix = f"  (estimate {_fmt6(est)})" if digit == 1 and est is not None else ""
        lines.append(f"{digit:>5} {count:>10}{suffix}")
    return 0, lines + [f"total {dc.total():>10}"]


# ----------------------------------------------------------------- witness


def cmd_witness(args: argparse.Namespace) -> tuple[int, list[str]]:
    from . import construct, pell

    kind = args.kind
    # a --bound scan returns only witnesses that passed checks()
    scanned = vars(args).get("bound") is not None
    witnesses: list
    if scanned:  # x2p1 or x3p1 --bound: every x^power + 1 up to the bound
        power, cost = ((2, "the kernel sieve runs over x in windows, its time growing with x")
                       if kind == "x2p1" else
                       (3, "the candidate scan trial-divides about 1.6·√x_max values"))
        cap = MAX_SCAN_X**power + 1
        _check_budget("bound", args.bound, cap, f"{kind} scan",
                      f"x <= {MAX_SCAN_X}, so bound <= {cap}; {cost}", "MAX_SCAN_X only with time")
        witnesses = getattr(construct, f"{kind}_scan")(args.bound)
    elif kind == "gap":
        try:
            w = construct.gap_witness(args.x)
        except pell.DigitLimitError:  # the Pell x = M alone passed the limit, and hi.n >= M
            w = None
        # hi.n is the pair's largest integer; a prime gap's Pell pair can pass the digit limit
        _check_digit_limit("gap", args.x, "the pair's larger member hi.n",
                           lambda limit: w is None or _reaches_pow10(w.hi.n, limit))
        witnesses = [w]
    elif kind == "x2p1":
        # n = x^2 + 1 of the last member, x running over the x^2 - 2y^2 = -1 stream after (1, 1)
        start = pell.stream_start(2, -1)
        _check_digit_limit("--count", args.count, "the last n = x²+1",
                           lambda limit: 2 * pell.stream_log10(start, args.count + 1) >= limit)
        witnesses = construct.x2p1_stream(args.count, start)
        # the bound can fall short by up to log10 4, so the composed n decides
        _check_digit_limit("--count", args.count, "the last n = x²+1",
                           lambda limit: witnesses and _reaches_pow10(witnesses[-1].sp.n, limit))
    elif kind == "between-squares":
        # (x + 2)^2 is the reply's largest integer; an x < 1 is refused by between_squares
        _check_digit_limit("between-squares", args.x, "the bound (x+2)²",
                           lambda limit: _reaches_pow10((max(args.x, 0) + 2) ** 2, limit))
        witnesses = [construct.between_squares(args.x)]
    elif kind == "sum":
        sp = sp_decompose(args.n)
        if sp is None:
            print(f"{args.n} is not an SP number", file=sys.stderr)
            return 1, []
        w = construct.sum_decompose(sp)
        if w is None:
            print(f"no prime factor = 1 (mod 4) in the square base {sp.a}", file=sys.stderr)
            return 1, []
        witnesses = [w]
    else:  # x3p1
        _check_budget("--t-max", args.t_max, MAX_FAMILY_T, "x3p1 family",
                      f"{MAX_FAMILY_T}; one primality test per t", "MAX_FAMILY_T only with time")
        witnesses = construct.x3p1_family(args.t_max)
    failed = [[] if scanned else w.checks() for w in witnesses] if args.verify else None
    rc = 1 if failed is not None and any(failed) else 0
    if args.format == "json":
        results = []
        for i, w in enumerate(witnesses):
            entry = w._asdict()
            if failed is not None:
                entry["verified"] = not failed[i]
            results.append(entry)
        params = {
            key: value
            for key, value in vars(args).items()
            if key in ("x", "n", "count", "bound", "t_max", "verify") and value is not None
        }
        return rc, [_json_text(f"witness {kind}", params, results)]
    lines = []
    for i, w in enumerate(witnesses):
        lines += w.lines()
        if failed is not None:
            lines.append(
                f"  verify: FAIL ({'; '.join(failed[i])})" if failed[i] else "  verify: PASS")
    return rc, lines


# -------------------------------------------------------------------- pell


def cmd_pell(args: argparse.Namespace) -> tuple[int, list[str]]:
    from . import pell

    # one solve serves the digit budget and the stream; a negative count is
    # refused by solution_stream without a solve
    try:
        start = pell.stream_start(args.D, args.norm) if args.count >= 0 else None
    except pell.NoSolutionError as exc:
        print(exc, file=sys.stderr)
        return 1, []
    except pell.DigitLimitError:  # the first x alone passed the limit
        start = None
    # a lower bound on the last x's log10 refuses the stream before it is composed
    _check_digit_limit("--count", args.count, "the last x", lambda limit: args.count > 0 and (
        start is None or pell.stream_log10(start, args.count) >= limit))
    sols = pell.solution_stream(start, args.count) if args.count else []
    # the bound can fall short by up to log10 4, so the composed x decides
    _check_digit_limit("--count", args.count, "the last x",
                       lambda limit: sols and _reaches_pow10(sols[-1].x, limit))
    if args.format == "json":
        params = {"D": args.D, "norm": args.norm, "count": args.count}
        return 0, [_json_text("pell", params, sols)]
    return 0, [f"x={s.x} y={s.y}  [x² - {s.D}·y² = {s.norm:+d}]" for s in sols]


# ---------------------------------------------------------------- estimate


def cmd_estimate(args: argparse.Namespace) -> tuple[int, list[str]]:
    from . import analytic

    if args.what == "zeta":
        k = _nat(args.value)
        est, label = analytic.zeta(k), f"zeta({k})"
    elif args.what == "prime-zeta":
        k = _nat(args.value)
        est, label = analytic.prime_zeta(k), f"P({k})"
    else:
        q = _rational(args.value)
        est, label = analytic.hurwitz_zeta2(q), f"zeta(2, {q})"
    if args.format == "json":
        return 0, [_json_text(
            "estimate",
            {"what": args.what, "value": args.value},
            [{"label": label, "value": float(f"{est.value:.12g}"),
              "abs_error_bound": float(_fmt6(est.abs_error_bound))}],
        )]
    return 0, [f"{label} = {est.value:.12g}  (abs error <= {_fmt6(est.abs_error_bound)})"]


# ------------------------------------------------------- bunyakovsky-report


def cmd_bunyakovsky(args: argparse.Namespace) -> tuple[int, list[str]]:
    from . import construct

    rep = construct.bunyakovsky_report()
    if args.format == "json":
        return 0, [_json_text("bunyakovsky-report", {}, [rep])]
    return 0, [
        f"polynomial           {rep.polynomial}",
        f"leading coefficient  {rep.leading_coefficient} (positive: {rep.leading_positive})",
        f"rational roots       none among {list(rep.rational_root_candidates)}"
        if not rep.has_rational_root else "rational roots       FOUND",
        f"quadratic split      {'none' if not rep.has_quadratic_split else 'FOUND'}",
        f"irreducible          {rep.irreducible}",
        f"identity t²·f(t) = (t²-1)³+1 verified: {rep.identity_checked}",
        f"f(2), f(3)           {rep.f2}, {rep.f3}  gcd = {rep.gcd_f2_f3}",
        f"running gcd          {list(rep.running_gcd)} -> no fixed prime divisor: "
        f"{rep.fixed_divisor_free}",
        f"variant {rep.variant_polynomial}: gcd(g(2), g(3)) = {rep.variant_gcd_f2_f3}, "
        f"irreducible: {rep.variant_irreducible}  [fails both -> constant term 3 confirmed]",
    ]


# -------------------------------------------------------------------- main


_NAT, _K = {"type": _nat}, {"--k": {"type": int, "default": 2}}
_JSON = {"--format": {"choices": ("table", "json"), "default": "table"}}
_CSV = {"--format": {"choices": ("table", "json", "csv"), "default": "table"}}
_KIND = {"--verify": {"action": "store_true",  # every witness kind ends with these two
                      "help": "re-check each witness with the independent verifier"}, **_JSON}
_SCAN = {"--bound": {**_NAT, "help": "scan all forms up to bound instead"}, **_KIND}

# Every command, declared once: its words -> (help, handler, its arguments in order, each
# name with its add_argument keywords).  A path without a handler groups the paths below it.
_COMMANDS: dict[tuple[str, ...], tuple[str, Callable | None, dict[str, dict]]] = {
    ("classify",): ("decompose n as p·aᵏ if possible", cmd_classify, {"n": _NAT, **_K, **_JSON}),
    ("census",): ("exact counts vs analytic estimate", cmd_census, {
        "bound": _NAT, **_K, "--family": {"choices": ("kp", "psp"), "default": "kp"},
        "--checkpoints": {"type": _parse_checkpoints}, **_CSV}),
    ("digits",): ("SP counts by final decimal digit", cmd_digits, {"bound": _NAT, **_CSV}),
    ("witness",): ("construct certified witnesses", None, {}),
    ("witness", "gap"): ("pair of SP numbers differing by x", cmd_witness, {"x": _NAT, **_KIND}),
    ("witness", "x2p1"): ("SP numbers of the form x²+1", cmd_witness, {
        "--count": {"type": _nat, "default": 3, "help": "Pell-family members (default)"}, **_SCAN}),
    ("witness", "between-squares"): ("SP number 2n² in (x², (x+2)²)", cmd_witness,
                                     {"x": _NAT, **_KIND}),
    ("witness", "sum"): ("split an SP number into two SP numbers", cmd_witness,
                         {"n": _NAT, **_KIND}),
    ("witness", "x3p1"): ("SP numbers of the form x³+1", cmd_witness, {"--t-max": {
        "type": _nat, "default": 10, "help": "parametric family up to t (default)"}, **_SCAN}),
    ("pell",): ("solve x² - D·y² = ±1", cmd_pell, {
        "D": _NAT, "--norm": {"type": int, "choices": (1, -1), "default": 1},
        "--count": {"type": _nat, "default": 1}, **_JSON}),
    ("estimate",): ("zeta-family constants with error bounds", cmd_estimate, {
        "what": {"choices": ("zeta", "prime-zeta", "hurwitz")},
        "value": {"help": "integer k for zeta/prime-zeta, rational q for hurwitz"}, **_JSON}),
    ("bunyakovsky-report",): ("prime-generating checks for t⁴-3t²+3", cmd_bunyakovsky, _JSON),
}


@functools.cache
def _command_parser(path: tuple[str, ...]) -> argparse.ArgumentParser:
    """One command's parser, named as in the full tree, built on its first request."""
    _, handler, arguments = _COMMANDS[path]
    parser = argparse.ArgumentParser(prog="spnum " + " ".join(path))
    for name, options in arguments.items():
        parser.add_argument(name, **options)
    parser.set_defaults(func=handler)
    return parser


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The full spnum tree, built from the table on the first request that no
    command parser serves, and reused by every later one."""
    ap = argparse.ArgumentParser(prog="spnum", description="SP (p·a²), KP_k (p·aᵏ) and PSP "
                                 "(p₁·p₂²) numbers: classify, count, estimate, and construct "
                                 "certified witnesses.")
    groups = {(): ap.add_subparsers(dest="command", required=True)}
    for path, (help_text, handler, _) in _COMMANDS.items():
        # a command takes its arguments, help action included, from its own parser
        p = groups[path[:-1]].add_parser(path[-1], help=help_text, add_help=not handler,
                                         parents=[_command_parser(path)] if handler else [])
        if not handler:
            groups[path] = p.add_subparsers(dest="kind", required=True)
    return ap


def _parse(argv: list[str]) -> argparse.Namespace:
    """argv parsed by the parser of the command its leading words name, into the
    namespace the full tree would start, so vars() keeps its key order.  Help, a
    bare or unknown command and an argument left unparsed go to the full tree."""
    for path in (tuple(argv[:2]), tuple(argv[:1])):
        if path in _COMMANDS and _COMMANDS[path][1]:
            start = argparse.Namespace(**dict(zip(("command", "kind"), path)))
            args, rest = _command_parser(path).parse_known_args(argv[len(path):], start)
            if not rest:
                return args
    return _build_parser().parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    try:
        args = _parse(sys.argv[1:] if argv is None else argv)
        rc, lines = args.func(args)
    except (ValueError, _PastDigitLimit) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    sys.stdout.write("".join(line + "\n" for line in lines))
    return rc


if __name__ == "__main__":
    sys.exit(main())
