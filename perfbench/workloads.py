"""Seeded request streams for the three workloads.

Each generator returns a list of requests ``{"argv": [...], "expect": {...}}``.
The program only ever sees ``argv``; ``expect`` tells the checker what a
correct response is (or how to work it out).  The same seed gives the same
list, byte for byte, as serialised by ``dump``.

Sizes are drawn stratified: the log range is cut into c equal slices, one
per request, and request i draws its log-size uniformly from the middle half
of slice i.  So every seed covers the range evenly and the stream as a whole
is log-uniform, while the few requests at the top of the range, which set
the pass time and the p90, move only by a quarter slice either way from seed
to seed (a whole-slice draw spread census p90 by 8% across seeds).
"""

from __future__ import annotations

import json
import random
from math import isqrt, log10
from pathlib import Path

import oracle

PINS = json.loads(Path(__file__).with_name("pins.json").read_text())

WORKLOADS = ("census", "digits", "witness")

CENSUS_REQUESTS = 100
CENSUS_FAMILIES = ("kp2", "kp3", "psp")
CENSUS_FAMILY_ARGS = {"kp2": [], "kp3": ["--k", "3"], "psp": ["--family", "psp"]}
CENSUS_CHECKPOINT_EVERY = 3  # one family block in three asks for checkpoints

DIGITS_REQUESTS = 100
# Guard: `spnum digits` has no input budget.  It sieves to n/4, turns the
# primes into a Python list and heap-merges one stream per square base, so
# its memory grows with n (about 10^10 would need more than 7 GB).  10^7 is
# the largest bound the seed code answers in a couple of seconds.
DIGITS_MIN, DIGITS_MAX = 10**3, 10**7

# Guard: `arith._rho_split` has no iteration limit and needs about sqrt(q)
# steps to find a prime factor q.  Every prime the generator puts into a
# classify/sum input that trial division (primes < 1000) does not remove is
# at most RHO_FACTOR_MAX, except the one largest prime factor, which rho
# never has to find.  That bounds rho at about 3 * 10^4 steps per split.
RHO_FACTOR_MAX = 10**9
TRIAL_LIMIT = 1000

# Witness mix: 60% classify, the rest witness/pell requests.  The scans are
# a fifth of the stream, so the p90 falls among them.  Each kind is
# stratified on its own; with 30 x3p1 scans the largest one, which sets the
# peak RSS, scans to between x = 84000 and 94000 on every seed.  A pass takes a few
# seconds, so a run makes several and reports their median.
WITNESS_MIX = {
    "classify_sp": 32,  # p * a^2, p <= 10^12, a smooth
    "classify_sp_big": 16,  # p * a^2, p above 3.3e24: is_prime's random-base path
    "classify_kp3": 20,  # p * a^3, --k 3
    "classify_rho": 24,  # p * q^2, q prime in [10^7, 10^8]: Brent-rho
    "classify_pq": 15,  # non-member p * q
    "classify_pqr": 13,  # non-member p * q * r
    "gap": 12,
    "sum": 8,
    "sum_none": 2,  # square base has no prime = 1 (mod 4): honest exit 1
    "between": 5,
    "x2p1": 12,
    "x3p1": 30,
    "pell": 11,
}
X2P1_BOUND = (10**4, 10**9)
X3P1_X = (10**2, 10**5)  # bound = x^3 + 1, so up to about 10^15
GAP_X = (1, 10**6)
BETWEEN_X = (1, 10**12)
PELL_D = (2, 10**6)
PELL_COUNT_MAX = 4


def dump(requests: list[dict]) -> bytes:
    """Canonical serialisation of a request list."""
    return json.dumps(requests, sort_keys=True, separators=(",", ":")).encode()


def generate(workload: str, seed: int) -> list[dict]:
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(f"{workload}:{seed}")
    return {"census": _census, "digits": _digits, "witness": _witness}[workload](rng)


def _stratified(rng: random.Random, count: int, lo: float, hi: float) -> list[int]:
    """count integers covering [lo, hi] log-uniformly, one per equal log
    slice, each drawn from the middle half of its slice."""
    ratio = hi / lo
    return [round(lo * ratio ** ((i + 0.25 + 0.5 * rng.random()) / count)) for i in range(count)]


def _rand_prime(rng: random.Random, lo: int, hi: int) -> int:
    """A prime drawn log-uniformly from [lo, hi)."""
    while True:
        n = round(lo * (hi / lo) ** rng.random())
        while not oracle.is_prime(n):
            n += 1
        if n < hi:
            return n


def _rand_prime_where(rng: random.Random, lo: int, hi: int, keep) -> int:
    while True:
        p = _rand_prime(rng, lo, hi)
        if keep(p):
            return p


def _smooth(rng: random.Random, factors: int, limit: int = TRIAL_LIMIT) -> int:
    """A product of `factors` primes below limit (found by trial division)."""
    a = 1
    for _ in range(factors):
        a *= _rand_prime(rng, 2, limit)
    return a


# ------------------------------------------------------------------ census


def _census(rng: random.Random) -> list[dict]:
    grid = PINS["census"]["grid"]
    per = len(grid) // CENSUS_REQUESTS
    decade = round((len(grid) - 1) / log10(grid[-1] / grid[0]))  # grid steps per factor 10
    out = []
    for i in range(CENSUS_REQUESTS):
        top = i * per + per // 4 + rng.randrange(max(1, per // 2))  # middle half of the slice
        # Families and checkpoints follow the stratum, not the seed: a kp3
        # census costs less than half a kp2 or psp one at the same bound, so
        # a seed that put kp3 on every top stratum would look like a speed-up.
        fam = CENSUS_FAMILIES[i % len(CENSUS_FAMILIES)]
        points = [top]
        if (i // len(CENSUS_FAMILIES)) % CENSUS_CHECKPOINT_EVERY == 0:
            # checkpoints a factor 10, 100, ... below the bound add about 11%
            points = [top - decade * j for j in range(rng.randint(1, 3), 0, -1)
                      if top >= decade * j] + [top]
        fmt = rng.choice(("table", "json", "csv"))
        argv = ["census", str(grid[top]), *CENSUS_FAMILY_ARGS[fam]]
        if len(points) > 1:
            argv += ["--checkpoints", ",".join(str(grid[j]) for j in points)]
        argv += ["--format", fmt]
        rows = [[grid[j], PINS["census"][fam][j]] for j in points]
        out.append({"argv": argv, "expect": {"kind": "census", "family": fam, "format": fmt,
                                             "rows": rows}})
    rng.shuffle(out)
    return out


# ------------------------------------------------------------------ digits


def _digits(rng: random.Random) -> list[dict]:
    out = []
    for n in _stratified(rng, DIGITS_REQUESTS, DIGITS_MIN, DIGITS_MAX):
        fmt = rng.choice(("table", "json", "csv"))
        out.append({"argv": ["digits", str(n), "--format", fmt],
                    "expect": {"kind": "digits", "format": fmt, "n": n}})
    rng.shuffle(out)
    return out


# ----------------------------------------------------------------- witness


def _classify(n: int, k: int, p: int | None, a: int | None, rng: random.Random) -> dict:
    fmt = rng.choice(("table", "json"))
    argv = ["classify", str(n)] + (["--k", str(k)] if k != 2 else []) + ["--format", fmt]
    return {"argv": argv,
            "expect": {"kind": "classify", "format": fmt, "n": n, "k": k, "p": p, "a": a}}


def _witness_requests(kind: str, count: int, rng: random.Random) -> list[dict]:
    out = []
    if kind == "classify_sp":
        for p in (_rand_prime(rng, 2, 10**12) for _ in range(count)):
            a = _smooth(rng, rng.randint(1, 4))
            if rng.random() < 0.5:
                a *= _rand_prime(rng, TRIAL_LIMIT, 10**6)
            out.append(_classify(p * a * a, 2, p, a, rng))
    elif kind == "classify_sp_big":
        for _ in range(count):
            p = _rand_prime(rng, oracle.MR_EXACT_BOUND + 1, 10**30)
            a = _smooth(rng, rng.randint(1, 4))
            if rng.random() < 0.5:
                a *= _rand_prime(rng, 10**6, 10**7)
            out.append(_classify(p * a * a, 2, p, a, rng))
    elif kind == "classify_kp3":
        for _ in range(count):
            p = _rand_prime(rng, 2, 10**12)
            a = _smooth(rng, rng.randint(1, 3))
            if rng.random() < 0.5:
                a *= _rand_prime(rng, TRIAL_LIMIT, 10**6)
            out.append(_classify(p * a**3, 3, p, a, rng))
    elif kind == "classify_rho":
        for q in _stratified(rng, count, 10**7, 10**8):
            q = _rand_prime(rng, q, q + q // 100)
            p = _rand_prime(rng, 2, RHO_FACTOR_MAX)
            out.append(_classify(p * q * q, 2, p, q, rng))
    elif kind in ("classify_pq", "classify_pqr"):
        for _ in range(count):
            primes: set[int] = set()
            while len(primes) < (2 if kind == "classify_pq" else 3):
                primes.add(_rand_prime(rng, TRIAL_LIMIT, RHO_FACTOR_MAX))
            n = 1
            for p in primes:
                n *= p
            out.append(_classify(n, 2, None, None, rng))
    elif kind == "gap":
        for x in _stratified(rng, count, *GAP_X):
            out.append({"argv": ["witness", "gap", str(x), "--verify"],
                        "expect": {"kind": "gap", "x": x}})
    elif kind in ("sum", "sum_none"):
        for _ in range(count):
            p = _rand_prime(rng, 2, RHO_FACTOR_MAX)
            if kind == "sum":
                a = _rand_prime_where(rng, 5, 10**6, lambda q: q % 4 == 1)
                a *= _smooth(rng, rng.randint(0, 3))
            else:
                a = 1
                for _ in range(rng.randint(1, 4)):
                    a *= _rand_prime_where(rng, 2, 10**6, lambda f: f % 4 != 1)
            out.append({"argv": ["witness", "sum", str(p * a * a), "--verify"],
                        "expect": {"kind": "sum", "n": p * a * a, "p": p, "a": a,
                                   "member": kind == "sum"}})
    elif kind == "between":
        for x in _stratified(rng, count, *BETWEEN_X):
            out.append({"argv": ["witness", "between-squares", str(x), "--verify"],
                        "expect": {"kind": "between", "x": x}})
    elif kind == "x2p1":
        for bound in _stratified(rng, count, *X2P1_BOUND):
            out.append({"argv": ["witness", "x2p1", "--bound", str(bound), "--verify"],
                        "expect": {"kind": "x2p1", "bound": bound}})
    elif kind == "x3p1":
        for x in _stratified(rng, count, *X3P1_X):
            bound = x**3 + 1
            out.append({"argv": ["witness", "x3p1", "--bound", str(bound), "--verify"],
                        "expect": {"kind": "x3p1", "bound": bound}})
    elif kind == "pell":
        for d in _stratified(rng, count, *PELL_D):
            if isqrt(d) ** 2 == d:
                d += 1
            c = rng.randint(1, PELL_COUNT_MAX)
            out.append({"argv": ["pell", str(d), "--count", str(c)],
                        "expect": {"kind": "pell", "D": d, "count": c}})
    else:
        raise ValueError(kind)
    return out


def _witness(rng: random.Random) -> list[dict]:
    out = []
    for kind, count in WITNESS_MIX.items():
        out += _witness_requests(kind, count, rng)
    rng.shuffle(out)
    return out
