"""Certificate-producing constructors: gap pairs, the x^2 + 1 and x^3 + 1
families, between-squares witnesses, and two-term sum decompositions.

Every constructor returns a witness object carrying all the data a third
party needs to re-check it: its checks() name the failed invariants through
`classify` only, never trusting the construction path; its lines() render it.
The two exhaustive scans run their numpy kernels from `_scan`, imported on
the first scan, so the other constructions never load numpy.
"""

from __future__ import annotations

from math import gcd, isqrt, prod
from typing import TYPE_CHECKING, Callable, Collection, NamedTuple

from .arith import factorize, ikroot, is_prime
from .arith import sieve_primes  # noqa: F401  (the tracer test in perfbench/ reads it here)
from .classify import SpWitness, _failed
from .pell import PellSolution, fundamental_solution, solution_stream, stream_start

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "GapWitness",
    "X2p1Witness",
    "BetweenSquaresWitness",
    "SumWitness",
    "X3p1Witness",
    "X3p1ScanWitness",
    "BunyakovskyReport",
    "gap_witness",
    "x2p1_stream",
    "x2p1_scan",
    "between_squares",
    "sum_decompose",
    "x3p1_family",
    "x3p1_scan",
    "bunyakovsky_report",
]


def _curve_checks(x0: int, sp: SpWitness, curve_point: tuple[int, int, int]) -> list[str]:
    """Shared by both x^3 + 1 witness types: the curve point (p, x, y)
    matches x0 and sp and lies on y^2 = p*x^3 + p."""
    p, x, y = curve_point
    return _failed({
        "curve x = x": x == x0,
        "sp.n = x³+1": sp.n == x**3 + 1,
        "curve p = sp.p": p == sp.p,
        "curve y = sp.p·sp.a": y == sp.p * sp.a,
        "y² = p·x³ + p": y * y == p * x**3 + p,
    }, sp=sp)


class GapWitness(NamedTuple):
    """Pair of SP numbers with hi.n - lo.n = x, plus construction data."""

    x: int
    hi: SpWitness
    lo: SpWitness
    case_tag: str
    aux: dict

    def checks(self) -> list[str]:
        """Names of the failed invariants, empty iff valid.  Ignores the
        constructor's case data and never factors the Pell-sized PRIME-case
        members."""
        return _failed({"hi.n - lo.n = x": self.hi.n - self.lo.n == self.x}, hi=self.hi, lo=self.lo)

    def lines(self) -> list[str]:
        lines = [
            f"gap {self.x}: {self.hi.n} - {self.lo.n} = {self.x}  [case {self.case_tag}]",
            f"  hi: {self.hi}",
            f"  lo: {self.lo}",
        ]
        if self.case_tag == "PRIME":
            s = self.aux["pell"]
            lines.append(f"  pell: D={s.D} (x, y) = ({s.x}, {s.y})")
        if self.case_tag == "NONSQUAREFREE":
            lines.append(f"  scaled by t={self.aux['t']} from gap {self.aux['s']}")
        return lines


class X2p1Witness(NamedTuple):
    """SP number of the form x^2 + 1."""

    x: int
    sp: SpWitness

    def checks(self) -> list[str]:
        return _failed({"sp.n = x²+1": self.sp.n == self.x**2 + 1}, sp=self.sp)

    def lines(self) -> list[str]:
        return [f"x={self.x}: {self.sp}"]


class BetweenSquaresWitness(NamedTuple):
    """SP number 2n^2 strictly between x^2 and (x+2)^2."""

    x: int
    n: int
    sp: SpWitness

    def checks(self) -> list[str]:
        return _failed({
            "sp.n = 2·n²": self.sp.n == 2 * self.n**2,
            "x² < sp.n < (x+2)²": self.x**2 < self.sp.n < (self.x + 2) ** 2,
        }, sp=self.sp)

    def lines(self) -> list[str]:
        return [f"x={self.x}: {self.x**2} < {self.sp} < {(self.x + 2) ** 2}"]


class SumWitness(NamedTuple):
    """Split of an SP number into a sum of two SP numbers via a two-squares
    representation of a prime q = 1 (mod 4) dividing the square base."""

    input: SpWitness
    q: int
    u: int
    v: int
    part1: SpWitness
    part2: SpWitness

    def checks(self) -> list[str]:
        return _failed({
            "part1.n + part2.n = input.n": self.part1.n + self.part2.n == self.input.n,
            "q = u² + v²": self.q == self.u**2 + self.v**2,
            "q ≡ 1 (mod 4)": self.q % 4 == 1,
            "q | input.a": self.input.a % self.q == 0,
        }, input=self.input, part1=self.part1, part2=self.part2)

    def lines(self) -> list[str]:
        return [
            f"{self.input.n} = {self.part1.n} + {self.part2.n}"
            f"  [q={self.q} = {self.u}² + {self.v}²]",
            f"  part1: {self.part1}",
            f"  part2: {self.part2}",
        ]


class X3p1Witness(NamedTuple):
    """Member of the parametric family x = t^2 - 1 with f(t) = t^4 - 3t^2 + 3
    prime: x^3 + 1 = f(t) * t^2 is SP, and (x, f(t)*t) sits on y^2 = p*x^3 + p."""

    t: int
    x: int
    f_t: int
    sp: SpWitness
    curve_point: tuple[int, int, int]

    def checks(self) -> list[str]:
        return _failed({
            "x = t²-1": self.x == self.t**2 - 1,
            "f_t = t⁴-3t²+3 = sp.p": self.f_t == _f(self.t) == self.sp.p,
        }) + _curve_checks(self.x, self.sp, self.curve_point)

    def lines(self) -> list[str]:
        p, x, y = self.curve_point
        return [f"x={x}: t={self.t} {self.sp}  curve (p, x, y) = ({p}, {x}, {y})"]


class X3p1ScanWitness(NamedTuple):
    """SP number x^3 + 1 found by exhaustive scan, with its curve point
    (p, x, y = p*a) on y^2 = p*x^3 + p."""

    x: int
    sp: SpWitness
    curve_point: tuple[int, int, int]

    def checks(self) -> list[str]:
        return _curve_checks(self.x, self.sp, self.curve_point)

    def lines(self) -> list[str]:
        p, x, y = self.curve_point
        return [f"x={x}: {self.sp}  curve (p, x, y) = ({p}, {x}, {y})"]


def gap_witness(x: int) -> GapWitness:
    """A certified pair of SP numbers differing by exactly x, for any x >= 1.

    Every case is read off one factorization x = t^2*s, s square-free:
      UNIT              x = 1: the pair (28, 27).
      PRIME             x prime: pick the smallest prime p != x, solve
                        M^2 - (p*x)*N^2 = 1; then x*M^2 - p*(x*N)^2 = x.
      ODD_COMPOSITE_SF  x odd composite square-free: x = p1*(2k+1) off the
                        smallest prime factor; p1*(k+1)^2 - p1*k^2 = x.
      EVEN_COMPOSITE_SF x even composite square-free: x = 2*(2k+1);
                        2*(k+1)^2 - 2*k^2 = x, except x = 6 -> (18, 12)
                        since k = 1 would put a 1 in the square base.
      NONSQUAREFREE     t >= 2: the pair of s, from the primes of s already
                        found (s = 1 gives the UNIT pair), both members
                        scaled by t^2.

    The PRIME case raises pell.DigitLimitError when fundamental_solution
    does: M could not be printed, so neither could hi.n = x*M^2 (times t^2).
    """
    if x < 1:
        raise ValueError(f"gap_witness requires x >= 1, got {x}")
    factors = factorize(x).factors if x > 1 else ()
    t = prod(p ** (e // 2) for p, e in factors)
    primes = [p for p, e in factors if e % 2]
    s = prod(primes)
    inner = _squarefree_gap(s, primes)
    if t == 1:
        return inner
    hi = SpWitness(inner.hi.n * t * t, inner.hi.p, inner.hi.a * t)
    lo = SpWitness(inner.lo.n * t * t, inner.lo.p, inner.lo.a * t)
    return GapWitness(x, hi, lo, "NONSQUAREFREE", {"t": t, "s": s, "inner": inner})


def _squarefree_gap(x: int, primes: list[int]) -> GapWitness:
    """gap_witness of square-free x, whose ascending prime factors are `primes`."""
    if x == 1:
        return GapWitness(1, SpWitness(28, 7, 2), SpWitness(27, 3, 3), "UNIT", {})
    if len(primes) == 1:
        p = 3 if x == 2 else 2
        sol = fundamental_solution(p * x)
        hi = SpWitness(x * sol.x**2, x, sol.x)
        lo = SpWitness(p * (x * sol.y) ** 2, p, x * sol.y)
        return GapWitness(x, hi, lo, "PRIME", {"p": p, "pell": sol})
    if x % 2 == 0:
        if x == 6:
            return GapWitness(
                6, SpWitness(18, 2, 3), SpWitness(12, 3, 2), "EVEN_COMPOSITE_SF", {"k": 1}
            )
        k = (x // 2 - 1) // 2
        hi = SpWitness(2 * (k + 1) ** 2, 2, k + 1)
        lo = SpWitness(2 * k * k, 2, k)
        return GapWitness(x, hi, lo, "EVEN_COMPOSITE_SF", {"k": k})
    p1 = primes[0]
    k = (x // p1 - 1) // 2
    hi = SpWitness(p1 * (k + 1) ** 2, p1, k + 1)
    lo = SpWitness(p1 * k * k, p1, k)
    return GapWitness(x, hi, lo, "ODD_COMPOSITE_SF", {"p1": p1, "k": k})


def x2p1_stream(
    count: int, start: tuple[PellSolution, PellSolution] | None = None
) -> list[X2p1Witness]:
    """First `count` members of the Pell family of SP numbers m^2 + 1 = 2n^2:
    solutions of m^2 - 2n^2 = -1 with n >= 2, ascending.  start is
    stream_start(2, -1), solved here when the caller has not."""
    if count < 0:
        raise ValueError(f"count must be >= 0, got {count}")
    # drop (1, 1): n = 1 gives 2, whose square base would be 1
    sols = solution_stream(start or stream_start(2, -1), count + 1)[1:]
    return [X2p1Witness(s.x, SpWitness(s.x**2 + 1, 2, s.y)) for s in sols]


def x2p1_scan(bound: int) -> list[X2p1Witness]:
    """Every SP number of the form x^2 + 1 up to bound (any prime, not only
    the Pell subfamily), by a kernel sieve over x = 1..x_max in windows.

    A prime p divides x^2 + 1 exactly when p = 2 and x is odd, or
    p = 1 (mod 4) and x = +-sqrt(-1) (mod p).  Stripping those classes for
    every p <= x_max leaves 1 or one prime > x_max, since two such primes
    would exceed (x_max + 1)^2 > x^2 + 1.  Every witness returned has
    passed its checks().
    """
    if bound < 2:
        return []
    from . import _scan

    return _checked([
        X2p1Witness(x, sp)
        for xs, ks in _scan._x2p1_sieve(isqrt(bound - 1))
        for x, sp in _members(xs, ks, lambda x: x * x + 1)
    ])


def between_squares(x: int) -> BetweenSquaresWitness:
    """The smallest SP number of the form 2n^2 strictly between x^2 and
    (x+2)^2; exists for every x >= 1."""
    if x < 1:
        raise ValueError(f"between_squares requires x >= 1, got {x}")
    n = max(2, isqrt(x * x // 2) + 1)
    m = 2 * n * n
    if not (x * x < m < (x + 2) ** 2):
        raise AssertionError(f"no 2n^2 strictly between {x}^2 and {x + 2}^2")
    return BetweenSquaresWitness(x, n, SpWitness(m, 2, n))


def sum_decompose(sp: SpWitness) -> SumWitness | None:
    """Split p*a^2 into a sum of two SP numbers when a has a prime factor
    q = 1 (mod 4); otherwise None.

    With q = u^2 + v^2 and (X, Y) = (u^2 - v^2, 2uv), q^2 = X^2 + Y^2, so
    writing a = scale*q gives p*(scale*X)^2 + p*(scale*Y)^2 = p*a^2.  Both
    X and Y exceed 1, so both parts are genuine SP numbers.

    q = u^2 + v^2 (u > v) by Hermite-Serret: for the least c with
    c^((q-1)/2) = -1 (mod q), r = c^((q-1)/4) is a square root of -1, and
    Euclid's algorithm on (q, r) reaches u as its first remainder with
    u^2 < q.
    """
    if sp.checks():
        raise ValueError(f"invalid SP witness {sp!r}")
    q = next((f for f, _ in factorize(sp.a).factors if f % 4 == 1), None)
    if q is None:
        return None
    scale = sp.a // q
    for c in range(2, q):
        t = pow(c, (q - 1) // 2, q)
        if t != 1:
            break
    if t != q - 1:
        raise AssertionError(f"no two-squares representation of {q}: it is not prime")
    big, u = q, pow(c, (q - 1) // 4, q)
    while u * u > q:
        big, u = u, big % u
    v = isqrt(q - u * u)
    big_x, big_y = u * u - v * v, 2 * u * v
    part1 = SpWitness(sp.p * (scale * big_x) ** 2, sp.p, scale * big_x)
    part2 = SpWitness(sp.p * (scale * big_y) ** 2, sp.p, scale * big_y)
    if part1.n + part2.n != sp.n:
        raise AssertionError("sum identity failed")  # pragma: no cover
    return SumWitness(sp, q, u, v, part1, part2)


def _f(t: int) -> int:
    return t**4 - 3 * t**2 + 3


def x3p1_family(t_max: int) -> list[X3p1Witness]:
    """Members of the parametric family for t in [2, t_max]: whenever
    f(t) = t^4 - 3t^2 + 3 is prime, (t^2-1)^3 + 1 = f(t)*t^2 is SP."""
    if t_max < 2:
        raise ValueError(f"x3p1_family requires t_max >= 2, got {t_max}")
    out = []
    for t in range(2, t_max + 1):
        f = _f(t)
        if is_prime(f):
            x = t * t - 1
            if x**3 + 1 != f * t * t:
                raise AssertionError("family identity failed")  # pragma: no cover
            out.append(X3p1Witness(t, x, f, SpWitness(f * t * t, f, t), (f, x, f * t)))
    return out


def _members(
    xs: np.ndarray, ks: np.ndarray, poly: Callable[[int], int]
) -> list[tuple[int, SpWitness]]:
    """(x, the SP witness n = k*a^2 the scan claims for n = poly(x)) for every
    x of xs, with its one prime k of odd exponent from ks.  Built on Python
    ints, so no value is bounded by int64, and not yet checked: each scan
    passes its witnesses through `_checked`, so a claim of n = k (a = 1)
    raises."""
    return [(x, SpWitness(n := poly(x), k, isqrt(n // k)))
            for x, k in zip(xs.tolist(), ks.tolist())]


def _checked(witnesses: list, undecided: Collection[int] = ()) -> list:
    """The witnesses of a scan that pass their own checks(), so a faulty
    scan raises instead of answering, and --verify can report the pass
    without proving each prime again.  A witness whose x is in undecided
    names a k the scan did not prove prime: failing only "sp.p prime", it
    is no member and is dropped.  Any other failure raises."""
    out = []
    for w in witnesses:
        if not (failed := w.checks()):
            out.append(w)
        elif w.x not in undecided or failed != ["sp.p prime"]:
            raise AssertionError(f"scan failed at x={w.x}: {'; '.join(failed)}")
    return out


def x3p1_scan(bound: int) -> list[X3p1ScanWitness]:
    """All x with x^3 + 1 <= bound and x^3 + 1 an SP number.

    Works on the split x^3 + 1 = A*B, A = x + 1 and B = x^2 - x + 1.
    gcd(A, B) divides 3: for x = 2 (mod 3), B holds exactly one 3, which is
    moved onto A (A' = 3(x + 1), B' = B/3).  Then the two parts are
    coprime, x^3 + 1 is SP iff exactly one prime has odd exponent in them,
    and so one part must be a perfect square.  That leaves three candidate
    sets, about 1.6*sqrt(x_max) x in all, which `_scan._x3p1_candidates`
    builds:

      x = t^2 - 1, 3 ∤ t:  A = t^2 and B = t^4 - 3t^2 + 3 (the family
                           polynomial f(t) of x3p1_family);
      x = 3s^2 - 1:        A' = 9s^2 and B' = 3s^4 - 3s^2 + 1;
      B or B' a square:    B = m^2 only at x = 0 and 1 ((2x - 1)^2 + 3 =
                           (2m)^2), where x^3 + 1 is 1 or the prime 2;
                           B' = m^2 at x = (X + 1)/2 for X^2 - 12m^2 = -3,
                           i.e. (X, m) = (3, 1) and its images under
                           (X, m) -> (7X + 24m, 2X + 7m): x = 2, 23, 314,
                           4367, 60818, ...  There A' is factored.

    For the first two sets B (or B') < (x_max + 1)^2 is trial-divided by the
    primes p = 1 (mod 3) up to its cube root (every other prime divisor of
    x^2 - x + 1 is 3).  What is left, R, is 1, q, q^2 or q*r, so the x is SP
    iff the trial part has one prime of odd exponent and R is 1 or a square,
    or it has none and R is prime.  That last case is left to the witness's
    checks(), which prove R prime once, or drop the x when R fails only that
    check.  Every witness returned has passed its checks().
    """
    if bound < 2:
        return []
    from . import _scan

    xmax = ikroot(bound - 1, 3)
    xs, ks, undecided = _scan._x3p1_candidates(xmax)
    return _checked([
        X3p1ScanWitness(x, w, (w.p, x, w.p * w.a))
        for x, w in _members(xs, ks, lambda x: x**3 + 1)
    ], set(xs[undecided].tolist()))


class BunyakovskyReport(NamedTuple):
    """Checks that f(t) = t^4 - 3t^2 + 3 meets the Bunyakovsky conditions,
    with the constant-term variant t^4 - 3t^2 + 1 reported alongside.

    The constant 3 is pinned by the identity (t^2-1)^3 + 1 = t^2 * f(t);
    the variant fails irreducibility (it splits as (t^2+t-1)(t^2-t-1)) and
    has gcd(g(2), g(3)) = 5, so the two are cleanly distinguished.
    """

    polynomial: str
    leading_coefficient: int
    leading_positive: bool
    rational_root_candidates: tuple[int, ...]
    has_rational_root: bool
    has_quadratic_split: bool
    irreducible: bool
    identity_checked: bool
    f2: int
    f3: int
    gcd_f2_f3: int
    running_gcd: tuple[tuple[int, int], ...]
    fixed_divisor_free: bool
    variant_polynomial: str
    variant_gcd_f2_f3: int
    variant_irreducible: bool


def _even_quartic_split(q: int, r: int) -> tuple[bool, bool]:
    """(has rational root, splits into integer quadratics) for t^4 + q*t^2 + r.

    Any monic integer factorization is (t^2+at+b)(t^2+ct+d) with c = -a
    (cubic term) and a(d-b) = 0 (linear term), so it is enough to scan
    divisor pairs b*d = r with either a = 0 and b + d = q, or b = d and
    a^2 = 2b - q.
    """
    candidates = set()
    for d in range(1, abs(r) + 1):
        if r % d == 0:
            candidates.update((d, -d))
    has_root = any(c**4 + q * c * c + r == 0 for c in sorted(candidates))
    has_split = False
    for b in sorted(candidates):
        d = r // b
        if b + d == q:
            has_split = True
        if b == d:
            aa = 2 * b - q
            if aa > 0 and isqrt(aa) ** 2 == aa:
                has_split = True
    return has_root, has_split


def bunyakovsky_report() -> BunyakovskyReport:
    """Bunyakovsky-condition report for f(t) = t^4 - 3t^2 + 3: positive
    leading coefficient, irreducibility over the rationals, and absence of
    a fixed prime divisor via running gcds of f(1), f(2), ..."""
    has_root, has_split = _even_quartic_split(-3, 3)
    var_root, var_split = _even_quartic_split(-3, 1)
    identity_ok = all((t * t - 1) ** 3 + 1 == t * t * _f(t) for t in range(2, 51))
    trace = []
    g = 0
    m = 0
    while g != 1:
        m += 1
        g = gcd(g, _f(m))
        trace.append((m, g))
    variant_gcd = gcd(2**4 - 3 * 4 + 1, 3**4 - 3 * 9 + 1)
    return BunyakovskyReport(
        polynomial="t^4 - 3*t^2 + 3",
        leading_coefficient=1,
        leading_positive=True,
        rational_root_candidates=(-3, -1, 1, 3),
        has_rational_root=has_root,
        has_quadratic_split=has_split,
        irreducible=not (has_root or has_split),
        identity_checked=identity_ok,
        f2=_f(2),
        f3=_f(3),
        gcd_f2_f3=gcd(_f(2), _f(3)),
        running_gcd=tuple(trace),
        fixed_divisor_free=trace[-1][1] == 1,
        variant_polynomial="t^4 - 3*t^2 + 1",
        variant_gcd_f2_f3=variant_gcd,
        variant_irreducible=not (var_root or var_split),
    )
