"""Cycle types of the symmetric group S_n and its cycle-indicator polynomial.

The indicator of S_n lives in Z[X_1..X_n]; its term for the cycle type
(m_1,...,m_n) (m_i cycles of length i, sum of i*m_i = n) has coefficient
n! / prod_i i^m_i * m_i!.

A :class:`CycleType` holds its class twice: densely as ``m`` and sparsely
as ``parts``, the pairs (i, m_i) with m_i > 0, largest part first.
:func:`enumerate_cycle_types` visits the classes in reverse-lexicographic
order of their partitions (n first, 1^n last), stepping from one class to
the next in multiplicity form; :func:`coefficient` evaluates the closed
formula over ``parts``.

Four independent construction routes are provided:

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
from dataclasses import dataclass, field
from fractions import Fraction
from math import factorial
from typing import Iterable, Iterator, Tuple

from .polyring import MultiPoly, _shift_accumulate

DETERMINANT_BOUND_DEFAULT = 8


@dataclass(frozen=True, slots=True)
class CycleType:
    """Multiplicity vector (m_1,...,m_n) of one conjugacy class of S_n.

    ``parts`` is derived from ``m`` and takes no part in equality or hashing.
    """

    n: int
    m: Tuple[int, ...]
    parts: Tuple[Tuple[int, int], ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.n < 1 or len(self.m) != self.n:
            raise ValueError("m must have length n >= 1")
        if any(x < 0 for x in self.m):
            raise ValueError("multiplicities must be nonnegative")
        if sum(i * x for i, x in enumerate(self.m, start=1)) != self.n:
            raise ValueError("sum of i*m_i must equal n")
        m = self.m
        parts = tuple((i, m[i - 1]) for i in range(self.n, 0, -1) if m[i - 1])
        object.__setattr__(self, "parts", parts)


def enumerate_cycle_types(n: int) -> Iterator[CycleType]:
    """All cycle types of S_n, in reverse-lexicographic order of their partitions.

    The successor of a partition in this order (Knuth, TAOCP 4A, 7.2.1.4)
    strips its 1s, lowers one copy of the smallest part k > 1, and refills
    the freed amount with parts k-1 and one smaller remainder. The step runs
    on stacks of distinct parts and their multiplicities, largest first; the
    classes it yields are not revalidated.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    ks = [n]  # distinct parts, largest first
    cs = [1]  # their multiplicities
    dense = [0] * n
    dense[n - 1] = 1
    new, put = object.__new__, object.__setattr__
    while True:
        ct = new(CycleType)
        put(ct, "n", n)
        put(ct, "m", tuple(dense))
        put(ct, "parts", tuple(zip(ks, cs)))
        yield ct
        if ks[-1] == 1:
            ks.pop()
            freed = cs.pop()
            dense[0] = 0
            if not ks:
                return
        else:
            freed = 0
        k = ks[-1]
        if cs[-1] == 1:
            ks.pop()
            cs.pop()
        else:
            cs[-1] -= 1
        dense[k - 1] -= 1
        # every slot below k is empty now
        q, s = divmod(freed + k, k - 1)
        ks.append(k - 1)
        cs.append(q)
        dense[k - 2] = q
        if s:
            ks.append(s)
            cs.append(1)
            dense[s - 1] = 1


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


def _closed_form(n: int, parts: Iterable[Tuple[int, int]]) -> int:
    """n! / prod i^m_i * m_i! over the pairs (i, m_i); 0 if they are no class of n."""
    denom = 1
    total = 0
    for i, x in parts:
        if x < 0:
            return 0
        total += i * x
        denom *= i**x * factorial(x)
    if total != n:
        return 0
    q, r = divmod(factorial(n), denom)
    if r:
        raise ArithmeticError(f"non-integral cycle-indicator coefficient for {parts}")
    return q


def coefficient(ct: CycleType) -> int:
    """n! / prod_i i^m_i * m_i!, exact, from ``ct.parts``; integrality is checked."""
    c = _closed_form(ct.n, ct.parts)
    if not c:
        raise ArithmeticError(f"{ct} is not a cycle type of S_{ct.n}")
    return c


def coefficient_raw(n: int, m: Tuple[int, ...]) -> int:
    """Coefficient for a multiplicity vector without constructing a CycleType.

    Returns 0 when the vector is not a valid cycle type of n (infeasible
    class, e.g. negative or mismatched total).
    """
    return _closed_form(n, [(i, x) for i, x in enumerate(m, start=1) if x])


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
                _shift_accumulate(acc, _indicator_cache[j], m - j, scale)
            _indicator_cache.append(MultiPoly(acc, _raw=True))
        return _indicator_cache[n]


def cycle_indicator_direct(n: int) -> MultiPoly:
    """C_n as the explicit sum over cycle types (test oracle)."""
    if n == 0:
        return MultiPoly.one()
    return MultiPoly({ct.m: coefficient(ct) for ct in enumerate_cycle_types(n)})


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
