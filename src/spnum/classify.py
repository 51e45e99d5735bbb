"""Recognition and unique decomposition of p*a^2 and p*a^k numbers.

An SP number is p*a^2 with p prime and a >= 2; KP_k generalizes the square
to a k-th power.  Each decomposition, when it exists, is unique, so the
witness types below carry the full certificate.
"""

from __future__ import annotations

from typing import NamedTuple

from .arith import _prime_divisors, ikroot, is_prime

__all__ = [
    "SpWitness",
    "KpWitness",
    "sp_decompose",
    "kp_decompose",
]

_SUP = str.maketrans("0123456789", "⁰¹²³⁴⁵⁶⁷⁸⁹")


def _failed(conditions: dict[str, bool], **parts: SpWitness) -> list[str]:
    """What every checks() returns: the names of the false conditions, then
    the failed checks of each SP part prefixed by its field (e.g. "hi.p prime")."""
    return [name for name, ok in conditions.items() if not ok] + [
        f"{field}.{name}" for field, sp in parts.items() for name in sp.checks()
    ]


class SpWitness(NamedTuple):
    """Certificate n = p * a^2 with p prime, a >= 2."""

    n: int
    p: int
    a: int

    def checks(self) -> list[str]:
        """Names of the failed invariants, empty iff valid, which by uniqueness
        of the decomposition means sp_decompose(n) == self.  Never factors n, so
        it stays cheap for hundred-digit square bases (Pell-built gap pairs)."""
        return _failed({"a >= 2": self.a >= 2, "n = p·a²": self.n == self.p * self.a**2,
                        "p prime": is_prime(self.p)})

    def __str__(self) -> str:
        return f"{self.n} = {self.p} · {self.a}²"


class KpWitness(NamedTuple):
    """Certificate n = p * a^k with p prime, a >= 2, k >= 2."""

    n: int
    k: int
    p: int
    a: int

    def __str__(self) -> str:
        return f"{self.n} = {self.p} · {self.a}{str(self.k).translate(_SUP)}"


def kp_decompose(n: int, k: int) -> KpWitness | None:
    """The unique (p, a) with n = p*a^k, p prime, a >= 2, if it exists.

    Criterion, read off the factorization: exactly one prime has exponent
    not divisible by k, that exponent is 1 mod k, and n is not p itself.
    The stray prime is forced to be p and a is then the exact k-th root of
    n/p, which makes the decomposition unique.

    n is factored only until the answer is certain.  Let rest be the part
    of n not yet factored: coprime to the primes found, so its exponents are
    n's.  At the first stray prime p, n is a member iff p's exponent is
    1 mod k, rest is a perfect k-th power and n != p.
    """
    if k < 2:
        raise ValueError(f"kp_decompose requires k >= 2, got {k}")
    if n < 4:
        return None
    rest = n
    for p, e in _prime_divisors(n):
        rest //= p**e
        if e % k == 0:
            continue
        if e % k != 1 or ikroot(rest, k) ** k != rest:
            return None
        if n == p:
            return None
        return KpWitness(n, k, p, ikroot(n // p, k))
    return None


def sp_decompose(n: int) -> SpWitness | None:
    """The unique (p, a) with n = p * a^2, a >= 2, if n is an SP number."""
    w = kp_decompose(n, 2)
    if w is None:
        return None
    return SpWitness(w.n, w.p, w.a)
