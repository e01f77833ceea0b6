"""Cycle types of the symmetric group S_n and its cycle-indicator polynomial.

The indicator of S_n lives in Z[X_1..X_n]; its term for the cycle type
(m_1,...,m_n) (m_i cycles of length i, sum of i*m_i = n) has coefficient
n! / prod_i i^m_i * m_i!.

Three independent construction routes are provided:

* :func:`cycle_indicator` -- the production route, via the recurrence
  C_m = sum_{j<m} ((m-1)!/j!) * X_{m-j} * C_j, memoized.
* :func:`cycle_indicator_direct` -- sum over enumerated cycle types.
* :func:`cycle_indicator_via_determinant` -- cofactor expansion of the
  m x m matrix with X_i down the first column and -1..-(m-1) above the
  diagonal (small m only).
* :func:`cycle_indicator_via_egf` -- truncated exponential generating
  function over exact rationals.
"""
from __future__ import annotations

import threading
from dataclasses import dataclass
from fractions import Fraction
from math import factorial, prod
from typing import Iterator, Tuple

from .polyring import KERNEL_BACKEND, MultiPoly, _kernels  # noqa: F401

DETERMINANT_BOUND_DEFAULT = 8


@dataclass(frozen=True)
class CycleType:
    """Multiplicity vector (m_1,...,m_n) of one conjugacy class of S_n."""

    n: int
    m: Tuple[int, ...]

    def __post_init__(self):
        if self.n < 1 or len(self.m) != self.n:
            raise ValueError("m must have length n >= 1")
        if any(x < 0 for x in self.m):
            raise ValueError("multiplicities must be nonnegative")
        if sum(i * x for i, x in enumerate(self.m, start=1)) != self.n:
            raise ValueError("sum of i*m_i must equal n")


def partitions_desc(n: int) -> Iterator[Tuple[int, ...]]:
    """Partitions of n as non-increasing tuples, largest first part first."""
    if n == 0:
        yield ()
        return

    def rec(remaining: int, cap: int, prefix: tuple):
        if remaining == 0:
            yield prefix
            return
        for part in range(min(cap, remaining), 0, -1):
            yield from rec(remaining - part, part, prefix + (part,))

    yield from rec(n, n, ())


def enumerate_cycle_types(n: int) -> Iterator[CycleType]:
    """All cycle types of S_n, one per partition, largest-part-descending order."""
    if n < 1:
        raise ValueError("n must be >= 1")
    for parts in partitions_desc(n):
        m = [0] * n
        for part in parts:
            m[part - 1] += 1
        yield CycleType(n, tuple(m))


def partition_count(n: int) -> int:
    """p(n) by Euler's pentagonal-number recurrence (enumeration oracle)."""
    p = [1] + [0] * n
    for m in range(1, n + 1):
        total = 0
        k = 1
        while True:
            g1 = k * (3 * k - 1) // 2
            g2 = k * (3 * k + 1) // 2
            if g1 > m and g2 > m:
                break
            sign = -1 if k % 2 == 0 else 1
            if g1 <= m:
                total += sign * p[m - g1]
            if g2 <= m:
                total += sign * p[m - g2]
            k += 1
        p[m] = total
    return p[n]


def coefficient(ct: CycleType) -> int:
    """n! / prod_i i^m_i * m_i!, exact; integrality is checked."""
    denom = prod(
        i**x * factorial(x) for i, x in enumerate(ct.m, start=1) if x
    )
    num = factorial(ct.n)
    q, r = divmod(num, denom)
    if r:
        raise ArithmeticError(f"non-integral cycle-indicator coefficient for {ct}")
    return q


def coefficient_raw(n: int, m: Tuple[int, ...]) -> int:
    """Coefficient for a multiplicity vector without constructing a CycleType.

    Returns 0 when the vector is not a valid cycle type of n (infeasible
    class, e.g. negative or mismatched total).
    """
    if any(x < 0 for x in m):
        return 0
    if sum(i * x for i, x in enumerate(m, start=1)) != n:
        return 0
    denom = prod(i**x * factorial(x) for i, x in enumerate(m, start=1) if x)
    q, r = divmod(factorial(n), denom)
    if r:
        raise ArithmeticError(f"non-integral cycle-indicator coefficient for {m}")
    return q


_cache_lock = threading.Lock()
_indicator_cache: list = [MultiPoly.one()]  # C_0, C_1, ... as computed


def cycle_indicator(n: int) -> MultiPoly:
    """C_n via the memoized recurrence C_m = sum_j ((m-1)!/j!) X_{m-j} C_j."""
    if n < 0:
        raise ValueError("n must be >= 0")
    with _cache_lock:
        while len(_indicator_cache) <= n:
            m = len(_indicator_cache)
            fact = factorial(m - 1)
            acc: dict = {}
            for j in range(m):
                scale, rem = divmod(fact, factorial(j))
                if rem:
                    raise ArithmeticError(f"{m - 1}! is not divisible by {j}!")
                _kernels.shift_accumulate(
                    acc, _indicator_cache[j].terms, m - j - 1, scale
                )
            _indicator_cache.append(MultiPoly(acc, _raw=True))
        return _indicator_cache[n]


def cycle_indicator_direct(n: int) -> MultiPoly:
    """C_n as the explicit sum over cycle types (test oracle)."""
    if n == 0:
        return MultiPoly.one()
    terms = {}
    for ct in enumerate_cycle_types(n):
        e = tuple(ct.m)
        while e and e[-1] == 0:
            e = e[:-1]
        terms[e] = coefficient(ct)
    return MultiPoly(terms, _raw=True)


def _det(mat) -> MultiPoly:
    size = len(mat)
    if size == 1:
        return mat[0][0]
    total = MultiPoly.zero()
    # expand along the first row: only two nonzero entries by construction
    for col in range(size):
        a = mat[0][col]
        if a.is_zero():
            continue
        minor = [row[:col] + row[col + 1 :] for row in mat[1:]]
        cof = _det(minor)
        total = total + (a * cof if col % 2 == 0 else -(a * cof))
    return total


def cycle_indicator_via_determinant(
    m: int, bound: int = DETERMINANT_BOUND_DEFAULT
) -> MultiPoly:
    """C_m as the determinant with X_i down the first column, -j superdiagonal.

    Cofactor expansion; refuse m above the configured bound.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    if m > bound:
        raise ValueError(
            f"determinant route limited to m <= {bound}; "
            "use cycle_indicator() for larger m"
        )
    mat = []
    for i in range(1, m + 1):
        row = []
        for j in range(1, m + 1):
            if j <= i:
                row.append(MultiPoly.variable(i - j + 1))
            elif j == i + 1:
                row.append(MultiPoly.constant(-i))
            else:
                row.append(MultiPoly.zero())
        mat.append(row)
    return _det(mat)


def cycle_indicator_via_egf(n: int) -> MultiPoly:
    """C_n as n! times the t^n coefficient of exp(sum_i X_i t^i / i).

    Exact-rational truncated series route; integrality is checked.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    # e_0 = 1; m * e_m = sum_{k=1..m} X_k * e_{m-k}   (from E' = A'E)
    e: list = [{(): Fraction(1)}]
    for m in range(1, n + 1):
        acc: dict = {}
        for k in range(1, m + 1):
            for exps, c in e[m - k].items():
                if len(exps) >= k:
                    enew = exps[: k - 1] + (exps[k - 1] + 1,) + exps[k:]
                else:
                    enew = exps + (0,) * (k - 1 - len(exps)) + (1,)
                acc[enew] = acc.get(enew, Fraction(0)) + c
        e.append({k2: v / m for k2, v in acc.items() if v})
    nf = factorial(n)
    terms = {}
    for exps, c in e[n].items():
        val = c * nf
        if val.denominator != 1:
            raise ArithmeticError("EGF route produced a non-integer")
        terms[exps] = int(val)
    return MultiPoly(terms)
