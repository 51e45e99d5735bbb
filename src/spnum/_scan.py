"""Numpy kernels of the two exhaustive scans in `construct`: the windowed
kernel sieve of x^2 + 1 and the trial division of the x^3 + 1 candidates.

Both kernels return only members, x with value k*a^2 for a prime k and
a >= 2 (never a = 1), or x^3 + 1 candidates whose k the witness gate
`construct._checked` proves prime or drops.

They live apart from `construct` so that numpy is loaded only by a scan;
every other construction answers on Python ints alone.
"""

from __future__ import annotations

from math import isqrt

import numpy as np

from .arith import factorize, ikroot, sieve_primes

_WINDOW = 1 << 16  # x values sieved at once; a scan with x_max below it runs as one window
_HIT_CHUNK = 1 << 13  # class hits divided out at once, up to the class crossing a multiple of it
_PAIR_CHUNK = 1 << 16  # (x, p) pairs stripped at once by _trial_odd_primes


def _pow_mod(g: int | np.ndarray, e: np.ndarray, p: np.ndarray) -> np.ndarray:
    """g**e % p elementwise over int64 arrays, by squaring; exact while
    p**2 < 2**63, far above the primes of any scan budget."""
    out = np.ones_like(p)
    base = np.full_like(p, g) % p
    while e.any():
        out = np.where(e & 1, out * base % p, out)
        base = base * base % p
        e = e >> 1
    return out


def _least_nonresidue(ps: np.ndarray) -> np.ndarray:
    """The least quadratic non-residue g mod every prime p = 1 (mod 4) of ps.

    g is prime, as a product of residues is a residue, and at most
    isqrt(p) + 1 (with m = ceil(p/g), mg - p < g is a residue, so m is not
    and g <= m < p/g + 1).  For p = 1 (mod 4), 2 is a residue iff
    p = 1 (mod 8), and by quadratic reciprocity an odd prime q is one mod p
    iff p mod q is one mod q.  So g = 2 iff p = 5 (mod 8), and otherwise g
    is the first odd prime q at which p mod q falls off q's table of
    residues."""
    g = np.where(ps % 8 == 5, 2, 0)
    todo = np.flatnonzero(g == 0)
    for q in sieve_primes(isqrt(int(ps.max(initial=0))) + 1)[1:].tolist():
        if not todo.size:
            break
        residue = np.zeros(q, dtype=bool)
        residue[np.arange(q) ** 2 % q] = True
        found = ~residue[ps[todo] % q]
        g[todo[found]] = q
        todo = todo[~found]
    return g


def _unity_root(ps: np.ndarray) -> np.ndarray:
    """A square root of -1 mod every prime of ps, each p = 1 (mod 4):
    s = g^((p-1)/4) for g the least non-residue, so s^2 = g^((p-1)/2) = -1
    by Euler's criterion.  One vectorised power serves every p."""
    return _pow_mod(_least_nonresidue(ps), (ps - 1) // 4, ps)


def _x2p1_classes(xmax: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Classes (p, r, k) of x^2 + 1 over x <= xmax, as int32 p and r and
    int8 k (xmax < 2^31): every odd prime power p^k divides x^2 + 1 exactly
    when x = r (mod p^k) for one of its classes, whose least such x, r, is
    at most xmax.  Primes p = 3 (mod 4) never divide x^2 + 1, and 2 is left
    to the caller: it divides x^2 + 1 exactly once for odd x and not at all
    for even x.

    Each p = 1 (mod 4) up to xmax has the classes +-s (mod p), with
    s = _unity_root(p).  A root r of x^2 + 1 mod m = p^k lifts to the root
    r + m*t mod m*p, with t = (r^2 + 1)/m * r * (p + 1)/2 (mod p), since
    (2r)^-1 = -r*(p + 1)/2 (mod p) when r^2 = -1; the roots mod m*p are then
    +-(r + m*t), each kept if its least value is at most xmax.  No root mod
    m*p is at most xmax unless one mod m is, and m*p <= r^2 + 1 <= xmax^2 + 1
    for such a root, so the lifts stop there and stay in int64."""
    primes = sieve_primes(xmax)
    p = primes[primes % 4 == 1]
    del primes  # before the powers and lifts: 5 MiB off the peak RSS of a scan at the cap
    s = _unity_root(p)
    ps, rs, ks = [p, p], [s, p - s], [1, 1]
    m, r, k = p, np.minimum(s, p - s), 1  # per prime, p^k and its least root
    while True:
        go = (r <= xmax) & (m <= (xmax * xmax + 1) // p)
        p, m, r = p[go], m[go], r[go]
        if not p.size:
            break
        t = (r * r + 1) // m % p * (r % p) % p * ((p + 1) // 2) % p
        m, r, k = m * p, r + m * t, k + 1
        r = np.minimum(r, m - r)
        for root in (r, m - r):
            keep = root <= xmax
            ps.append(p[keep]), rs.append(root[keep]), ks.append(k)
    return (np.concatenate(ps, dtype=np.int32, casting="same_kind"),
            np.concatenate(rs, dtype=np.int32, casting="same_kind"),
            np.repeat(np.array(ks, dtype=np.int8), [len(a) for a in ps]))


def _windows(xmax: int):
    """(lo, int64 array of x = lo..) for consecutive windows covering 0..xmax."""
    for lo in range(0, xmax + 1, _WINDOW):
        yield lo, np.arange(lo, min(lo + _WINDOW, xmax + 1), dtype=np.int64)


def _x2p1_marks(
    xs: np.ndarray, p: np.ndarray, k: np.ndarray, first: np.ndarray, m: np.ndarray, n: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """(x, prime) of the x of one window xs whose x^2 + 1 has exactly one
    prime of odd exponent and is not that prime itself (a >= 2), given the
    classes that hit it: p^k = m, hit n times, first at xs[first].

    Each x keeps its cofactor rem, starting at x^2 + 1 with the one 2 of odd
    x taken out, and each hit of a class p^k divides rem by p once.  x lies
    in exactly v_p(x^2 + 1) classes of p, one per k, so once every class has
    hit, rem holds no prime <= x_max, and it is 1 or a single prime > x_max:
    two such primes would exceed (x_max + 1)^2 > x^2 + 1.  The hit of p^k
    adds (-1)^(k+1) to x's count and that times p to its sum, so each p adds
    1 and p to them iff its exponent is odd.  x is marked iff
    count + (rem > 1) == 1, with the prime rem if rem > 1 and else the sum,
    unless that prime is x^2 + 1 itself, exact in int64 for x below 3*10^9."""
    count = xs & 1
    rem = xs * xs
    rem += 1
    rem >>= count
    total = 2 * count
    sign = np.where(k % 2 == 1, 1, -1)
    start = np.cumsum(n) - n  # index of each class's first hit in the window's list
    jump = first.copy()  # from the last hit of the class before to the first of this one
    jump[1:] -= first[:-1] + (n[:-1] - 1) * m[:-1]
    chunk = start // _HIT_CHUNK  # a new chunk starts where this changes
    cuts = [0, *(np.flatnonzero(chunk[1:] != chunk[:-1]) + 1).tolist(), len(n)] if len(n) else [0]
    for a, b in zip(cuts, cuts[1:]):
        reps = n[a:b]
        hit = np.repeat(m[a:b], reps)  # steps between successive hits, summed below
        hit[start[a:b] - start[a]] = jump[a:b]
        hit[0] = first[a]
        np.cumsum(hit, out=hit)
        q = np.repeat(p[a:b], reps)
        np.floor_divide.at(rem, hit, q)
        s = np.repeat(sign[a:b], reps)
        np.add.at(count, hit, s)
        np.add.at(total, hit, s * q)
    rest = rem > 1
    marked = (count + rest == 1).nonzero()[0]
    xs, prime = xs[marked], np.where(rest, rem, total)[marked]
    keep = prime != xs * xs + 1
    return xs[keep], prime[keep]


def _x2p1_sieve(xmax: int):
    """(x, prime) arrays of the x whose x^2 + 1 is prime * a^2 with a >= 2,
    and that prime, per window of x up to xmax, by `_x2p1_marks` over the
    classes of `_x2p1_classes`.

    Every class carries its next hit r from window to window, and each
    window takes the classes whose next hit falls in it, so it divides once
    per hit, with no trial division.  A class with no hit left carries
    xmax + 1, past every window, so r stays int32."""
    p, r, k = _x2p1_classes(xmax)
    for lo, xs in _windows(xmax):
        c = np.flatnonzero(r <= xs[-1])
        pc, kc, rc = p[c].astype(np.int64), k[c], r[c].astype(np.int64)
        mc = pc**kc
        n = (xs[-1] - rc) // mc + 1  # hits of each class in this window, as rc <= xs[-1]
        yield _x2p1_marks(xs, pc, kc, rc - lo, mc, n)
        r[c] = np.minimum(rc + n * mc, xmax + 1)


def _strip(
    vals: np.ndarray, x: np.ndarray, p: np.ndarray, count: np.ndarray, prime: np.ndarray
) -> None:
    """Divide p out of vals[x] completely, in place, for every pair (x, p)
    with p | vals[x]; where p has odd exponent, count[x] gains 1 and
    prime[x] becomes p.  Each round divides every live pair once, until its
    p no longer divides; .at applies repeated x in turn, and distinct
    primes divide in any order."""
    odd = np.zeros(len(x), dtype=bool)
    live = np.arange(len(x))
    while live.size:
        np.floor_divide.at(vals, x[live], p[live])
        odd[live] ^= True
        live = live[vals[x[live]] % p[live] == 0]
    np.add.at(count, x[odd], 1)
    prime[x[odd]] = p[odd]


def _trial_odd_primes(vals: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Trial division of an int64 array of values of x^2 - x + 1 (or a third
    of it) by the primes p = 1 (mod 3) up to the cube root of its largest
    entry, in place.  Returns, per entry, the number of those primes with
    odd exponent and one such prime; what is left of each entry has only
    prime factors above the cube root, so it is 1, q, q^2 or q*r."""
    primes = sieve_primes(ikroot(int(vals.max(initial=1)), 3))
    ps = primes[primes % 3 == 1]
    count = np.zeros(len(vals), dtype=np.int64)
    prime = np.zeros(len(vals), dtype=np.int64)
    rows = _PAIR_CHUNK // (len(ps) + 1) + 1  # entries per chunk: about _PAIR_CHUNK pairs
    for lo in range(0, len(vals), rows):
        i, j = np.nonzero(vals[lo : lo + rows, None] % ps == 0)
        _strip(vals, lo + i, ps[j], count, prime)
    return count, prime


def _is_square(vals: np.ndarray) -> np.ndarray:
    """Which entries of a positive int64 array are perfect squares.

    Exact for every positive int64: a square m^2 has m <= 3037000499, and
    the float sqrt of float(m^2) is within 10^-6 of m, so rint gives m back.
    A non-square never equals root^2, which wraps negative if it overflows."""
    root = np.rint(np.sqrt(vals)).astype(np.int64)
    return root * root == vals


def _b_square_xs(xmax: int) -> list[int]:
    """The x in [2, xmax] with (x^2 - x + 1)/3 a square m^2: x = (X + 1)/2
    for X^2 - 12m^2 = -3.  X = 3v turns that into (2m)^2 - 3v^2 = 1, whose
    solutions with 2m even are the odd powers of 2 + sqrt(3), so all of
    them come from (X, m) = (3, 1) by (X, m) -> (7X + 24m, 2X + 7m)."""
    out = []
    big_x, m = 3, 1
    while (x := (big_x + 1) // 2) <= xmax:
        out.append(x)
        big_x, m = 7 * big_x + 24 * m, 2 * big_x + 7 * m
    return out


def _x3p1_candidates(xmax: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(x, k, undecided) arrays, ascending in x, of the x <= xmax whose
    x^3 + 1 has exactly one prime k of odd exponent, or may have, over the
    three candidate sets of `construct.x3p1_scan`, the third from
    `_b_square_xs`, where A' = 3(x + 1) is factored.

    An x whose trial part has no prime of odd exponent and whose rest R is
    no square is a member iff R is prime.  Its R is returned as k with
    undecided set, and left for the witness's own checks() to prove, so no
    prime is proven twice; every other x returned is a member."""
    t = np.arange(2, isqrt(xmax + 1) + 1, dtype=np.int64)
    t = t[t % 3 != 0]
    s = np.arange(1, isqrt((xmax + 1) // 3) + 1, dtype=np.int64)
    xs = np.concatenate((t * t - 1, 3 * s * s - 1))
    vals = np.concatenate((t**4 - 3 * t * t + 3, 3 * s**4 - 3 * s * s + 1))
    count, prime = _trial_odd_primes(vals)
    square = _is_square(vals)
    undecided = (count == 0) & ~square
    keep = ((count == 1) & square) | undecided
    xs, ks, undecided = xs[keep], np.where(count == 1, prime, vals)[keep], undecided[keep]
    for x in _b_square_xs(xmax):
        odd = [p for p, e in factorize(3 * (x + 1)).factors if e % 2]
        if len(odd) == 1:
            xs, ks, undecided = np.append(xs, x), np.append(ks, odd[0]), np.append(undecided, False)
    order = np.argsort(xs)
    return xs[order], ks[order], undecided[order]
