"""Exact p-adic integer helpers: valuations, Morita Gamma, Wilson primes.

Everything in this module is plain arbitrary-precision integer arithmetic.
p-adic membership statements ("x is in m*Z_p") are decided by comparing
valuations; no truncated p-adic expansions are ever used.
"""
from __future__ import annotations

import math
from typing import Union

INFINITY = math.inf

Valuation = Union[int, float]  # int, or math.inf for the valuation of 0

factorial = math.factorial

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_PSI_13 = 3317044064679887385961981  # the least composite _MR_BASES all pass


def binomial(n: int, k: int) -> int:
    """Exact binomial coefficient, 0 when k > n."""
    if n < 0 or k < 0:
        raise ValueError("binomial requires n, k >= 0")
    return math.comb(n, k)


def is_prime(n: int) -> bool:
    """Deterministic primality test, exact for every n below psi_13.

    Miller-Rabin with the first 13 primes as bases, which prove every
    composite below psi_13 composite (Sorenson and Webster, Math. Comp. 86,
    2017); the first 12 alone pass psi_12 = 318665857834031151167461. An n
    of at least psi_13 that no base proves composite raises ValueError.
    """
    if n < 2:
        return False
    for q in _MR_BASES:
        if n % q == 0:
            return n == q
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    if n >= _PSI_13:
        raise ValueError(f"cannot certify {n} prime")
    return True


class PadicContext:
    """A prime p together with p-adic helpers.

    Immutable after construction; safe to share across threads.
    """

    __slots__ = ("p",)

    def __init__(self, p: int):
        if p < 2 or not is_prime(p):
            raise ValueError(f"p must be prime, got {p}")
        object.__setattr__(self, "p", p)

    def __setattr__(self, name, value):
        raise AttributeError("PadicContext is immutable")

    def __repr__(self):
        return f"PadicContext(p={self.p})"

    def __eq__(self, other):
        return isinstance(other, PadicContext) and other.p == self.p

    def __hash__(self):
        return hash(("PadicContext", self.p))

    def vp(self, x: int) -> Valuation:
        """p-adic valuation of x; math.inf for x = 0."""
        if x == 0:
            return INFINITY
        p = self.p
        v = 0
        while x % p == 0:
            x //= p
            v += 1
        return v

    def in_mZp(self, x: int, m: int) -> bool:
        """True iff x lies in the ideal m*Z_p, i.e. vp(x) >= vp(m).

        The prime-to-p part of m is a unit in Z_p and is ignored.
        """
        if m == 0:
            raise ValueError("m must be nonzero")
        return self.vp(x) >= self.vp(m)

    def morita_gamma(self, n: int) -> int:
        """Morita Gamma at a positive integer: (-1)^n * prod of j < n with p∤j."""
        if n < 1:
            raise ValueError("morita_gamma requires n >= 1")
        return -self.morita_gamma_ratio(n, 1)

    def morita_gamma_ratio(self, a: int, b: int) -> int:
        """Exact integer value of morita_gamma(a) / morita_gamma(b), a >= b >= 1.

        Equals (-1)^(a-b) times the product of the p-coprime integers in [b, a).
        """
        if not 1 <= b <= a:
            raise ValueError("need 1 <= b <= a")
        prod = 1
        for j in range(b, a):
            if j % self.p:
                prod *= j
        return -prod if (a - b) % 2 else prod

    def wilson_quotient_test(self) -> bool:
        """True iff p is a Wilson prime: (p-1)! = -1 (mod p^2)."""
        if self.p == 2:
            raise ValueError("Wilson test requires p >= 3")
        p2 = self.p * self.p
        f = 1
        for j in range(2, self.p):
            f = f * j % p2
        return f == p2 - 1
