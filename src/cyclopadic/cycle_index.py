"""Cycle types of the symmetric group S_n and its cycle-indicator polynomial.

The indicator of S_n lives in Z[X_1..X_n]; its term for the cycle type
(m_1,...,m_n) (m_i cycles of length i, sum of i*m_i = n) has coefficient
n! / prod_i i^m_i * m_i!, the size of the class.

The package has one partition successor step, in :func:`class_sizes`. It
visits the classes in reverse-lexicographic order of their partitions (n
first, 1^n last) on a stack of the pairs (i, m_i), largest part first, and
yields each class as those ``parts`` with its size n!/z. Beside the pairs it
keeps the prefix products of the weights i^m_i * m_i! and the prefix sums of
i * m_i, so a class costs a few multiplications and one division of n!.
Every class is checked with ``ArithmeticError``, which survives ``python -O``:
its part sum must be n, and n!/z must be an integer.
:func:`enumerate_cycle_types` is a view of the full stream that wraps each
class as a :class:`CycleType`, which holds the class twice: densely as ``m``
and sparsely as ``parts``.

The coefficient checkers read the stream with a ``prune`` predicate. Each
refill of the step starts at a node, a prefix of pairs and a rest to fill
with smaller parts; the classes below a node are consecutive in the stream.
A node the predicate clears is counted, from :func:`partition_table`, and
not visited. A stream that runs to its end checks, again with
``ArithmeticError``, that the classes it yielded and counted are p(n) by
Euler's recurrence (:func:`partition_count`). The partition table and the
list of p(n) are each one module-level table, shared by every call and
grown in place when a larger n is asked for, so a run computes each entry
once.

:func:`class_size` is the one closed-form routine: n!/z for a class given by
its pairs (i, m_i), in any order. The checkers call it for the single classes
they name, and :func:`coefficient` calls it on the ``parts`` of a
``CycleType``; the tests hold the stream to it.

:func:`cycle_indicator` is the one production route to C_n: memoized per n,
it reads the stream of :func:`class_sizes` and makes one term per class, its
size the coefficient. :func:`cycle_indicator_mod` is C_n mod q, for the
polynomial checkers, which decide their compares mod q = p^e: its rows up to
p are C_m reduced, except row p at q = p, which has two terms in closed form,
and the rows past p follow the shifted-sum recurrence mod q, which keeps
only the classes whose size q does not divide, and reads no class stream.
The test oracles in ``tests/oracles.py`` build C_n over Z by independent
routes (the shifted-sum recurrence, the determinant and the truncated EGF),
and by the sum over :func:`enumerate_cycle_types`, which reads the same
stream.
"""
from __future__ import annotations

import threading
from itertools import accumulate
from math import factorial
from typing import Callable, Iterable, Iterator, List, Optional, Tuple

from .polyring import SLOT_BITS, MultiPoly, _check_degree


class CycleType:
    """Multiplicity vector (m_1,...,m_n) of one conjugacy class of S_n.

    Immutable. ``parts`` is derived from ``m`` and takes no part in equality,
    hashing or the repr.
    """

    __slots__ = ("n", "m", "parts")

    def __init__(self, n: int, m: Tuple[int, ...]):
        if n < 1:
            raise ValueError(f"n must be >= 1, got {n}")
        if len(m) != n:
            raise ValueError(f"m must have n = {n} entries, got {len(m)}")
        if any(x < 0 for x in m):
            raise ValueError("multiplicities must be nonnegative")
        if sum(i * x for i, x in enumerate(m, start=1)) != n:
            raise ValueError("sum of i*m_i must equal n")
        parts = tuple((i, m[i - 1]) for i in range(n, 0, -1) if m[i - 1])
        put = object.__setattr__
        put(self, "n", n)
        put(self, "m", m)
        put(self, "parts", parts)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.n, self.m) == (other.n, other.m)

    def __hash__(self):
        return hash((self.n, self.m))

    def __repr__(self) -> str:
        return f"CycleType(n={self.n!r}, m={self.m!r})"

    def __reduce__(self):
        return CycleType, (self.n, self.m)


Prune = Callable[[List[Tuple[int, int]], int, int, int], bool]


def class_sizes(
    n: int, prune: Optional[Prune] = None
) -> Iterator[Tuple[Tuple[Tuple[int, int], ...], int]]:
    """(parts, n!/z) for every class of S_n, in reverse-lexicographic order.

    ``parts`` is the class as pairs (i, m_i) with m_i > 0, largest part
    first, and z = prod_i i^m_i * m_i! its centralizer order. The successor
    of a partition in this order (Knuth, TAOCP 4A, 7.2.1.4) strips its 1s,
    lowers one copy of the smallest part k > 1, and refills the freed amount
    greedily with parts below k: parts k-1, then one smaller remainder. The
    step runs on a stack of the pairs (i, m_i), largest part first, and
    carries two more stacks beside it: the prefix products of the weights
    i^m_i * m_i! and the prefix sums of i * m_i. A class then costs a few
    multiplications and one division of n!; n! and the weights are computed
    once per call.

    Each fill starts at a node: the pairs fixed so far, whose parts are all
    at least k, and a rest to fill with parts below k. The classes below the
    node are the pairs plus a partition of the rest into parts below k, and
    they come one after another in this order. With ``prune``, each node
    is first offered to ``prune(pairs, z, rest, count)``: z is the product
    of the pairs' weights and count the number of classes below, read from
    :func:`partition_table`. If it returns True, those classes are counted
    and not yielded, and the step goes on as if the last of them, the pairs
    plus 1^rest, had been yielded. ``pairs`` is the step's own stack: read
    it during the call only.

    Each class is checked before it is yielded, with ``ArithmeticError``: its
    part sum must be n and its size n!/z an integer. A stream that runs to
    its end raises ``ArithmeticError`` unless its classes yielded plus
    counted are p(n) by :func:`partition_count`.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    order = factorial(n)
    weight = [()]  # weight[i][x] = i^x * x!
    for i in range(1, n + 1):
        row = [1]
        for x in range(1, n // i + 1):
            row.append(row[-1] * i * x)
        weight.append(row)
    below = partition_table(n) if prune is not None else None
    parts: List[Tuple[int, int]] = []
    dens = [1]  # dens[j]: product of the weights of the first j pairs
    sums = [0]  # sums[j]: sum of i * m_i over the first j pairs
    yielded = counted = 0
    rest, k = n, n + 1
    while True:
        while True:
            if prune is not None:
                count = below[rest][k - 1]
                if prune(parts, dens[-1], rest, count):
                    counted += count
                    break
            if not rest:
                if sums[-1] != n:
                    raise ArithmeticError(
                        f"{tuple(parts)} is not a cycle type of S_{n}"
                    )
                size, rem = divmod(order, dens[-1])
                if rem:
                    raise ArithmeticError(
                        f"non-integral cycle-indicator coefficient for {tuple(parts)}"
                    )
                yielded += 1
                yield tuple(parts), size
                break
            k = min(k - 1, rest)
            x, rest = divmod(rest, k)
            parts.append((k, x))
            dens.append(dens[-1] * weight[k][x])
            sums.append(sums[-1] + k * x)
        # the successor of parts plus 1^rest
        if parts and parts[-1][0] == 1:
            rest += parts.pop()[1]
            dens.pop()
            sums.pop()
        if not parts:
            break
        k, x = parts[-1]
        rest += k
        if x == 1:
            parts.pop()
            dens.pop()
            sums.pop()
        else:
            x -= 1
            parts[-1] = (k, x)
            dens[-1] = dens[-2] * weight[k][x]
            sums[-1] = sums[-2] + k * x
    if yielded + counted != partition_count(n):
        raise ArithmeticError(
            f"{yielded} classes of S_{n} yielded and {counted} counted, "
            f"not p({n}) = {partition_count(n)}"
        )


_table_lock = threading.Lock()
# t[m][j] = the number of partitions of m into parts <= j, grown in place:
# every row runs to the same last index, len(_partitions) - 1
_partitions: List[List[int]] = [[1]]
# p(0), p(1), ... by Euler's recurrence, grown in place
_euler: List[int] = [1]


def partition_table(n: int) -> List[List[int]]:
    """t with t[m][j] = the number of partitions of m into parts <= j, for
    0 <= m, j <= n at least.

    The table is shared and grown in place when a larger n is asked for, so
    its rows may run past n; entries at or below an earlier n do not change.
    A partition of m into parts <= j has no part j, or is one part j more
    than a partition of m - j into parts <= j: t[m][j] = t[m][j-1] +
    t[m-j][j]. Parts past m add nothing: t[m][j] = t[m][m] for j > m.
    """
    t = _partitions
    if n >= len(t):
        with _table_lock:
            size = len(t) - 1
            if n > size:
                for row in t:
                    row += [row[-1]] * (n - size)
                for m in range(size + 1, n + 1):
                    row = list(accumulate((t[m - j][j] for j in range(1, m + 1)),
                                          initial=0))
                    row += [row[-1]] * (n - m)
                    t.append(row)
    return t


def multiplicity_vector(n: int, parts: Iterable[Tuple[int, int]]) -> List[int]:
    """The dense (m_1, ..., m_n) of a class of S_n given by its pairs (i, m_i)."""
    m = [0] * n
    for i, x in parts:
        m[i - 1] = x
    return m


def enumerate_cycle_types(n: int) -> Iterator[CycleType]:
    """All cycle types of S_n, in the order of :func:`class_sizes`.

    The classes come from the step of :func:`class_sizes` and are not
    revalidated by ``CycleType``.
    """
    new, put = object.__new__, object.__setattr__
    for parts, _ in class_sizes(n):
        ct = new(CycleType)
        put(ct, "n", n)
        put(ct, "m", tuple(multiplicity_vector(n, parts)))
        put(ct, "parts", parts)
        yield ct


def partition_count(n: int) -> int:
    """p(n) by Euler's pentagonal-number recurrence (enumeration oracle), from
    one list of p(0), p(1), ... shared by every call and grown as needed."""
    if n < 0:
        raise ValueError("n must be >= 0")
    p = _euler
    if n >= len(p):
        with _table_lock:
            for m in range(len(p), n + 1):
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
                p.append(total)
    return p[n]


def class_size(n: int, parts: Iterable[Tuple[int, int]]) -> int:
    """n! / prod i^m_i * m_i! over the distinct pairs (i, m_i), in any order;
    0 if they are no class of n. Integrality is checked."""
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
    c = class_size(ct.n, ct.parts)
    if not c:
        raise ArithmeticError(f"{ct} is not a cycle type of S_{ct.n}")
    return c


_cache_lock = threading.Lock()
# n -> C_n, for each n asked for
_indicator_cache: dict = {0: MultiPoly.one()}


def cycle_indicator(n: int) -> MultiPoly:
    """C_n, memoized: one term per class of :func:`class_sizes`, whose size
    is its coefficient. C_n is refused with ``ArithmeticError``, and not
    cached, unless the sizes sum to n!."""
    if n < 0:
        raise ValueError("n must be >= 0")
    # slot 0 of a term of C_n holds its number of cycles, at most n
    _check_degree(n)
    with _cache_lock:
        if n not in _indicator_cache:
            terms = {}
            for parts, size in class_sizes(n):
                key = 0
                for i, x in parts:
                    key += (x << SLOT_BITS * i) + x
                terms[key] = size
            if sum(terms.values()) != factorial(n):
                raise ArithmeticError(f"the class sizes of S_{n} do not sum to {n}!")
            _indicator_cache[n] = MultiPoly(terms, _raw=True)
        return _indicator_cache[n]


_residue_lock = threading.Lock()
# q -> {m: C_m mod q} for the rows built so far
_residue_cache: dict = {}


def _reduced(terms: dict, q: int) -> MultiPoly:
    """The polynomial of terms with every coefficient reduced into [0, q)
    and the zeros dropped."""
    return MultiPoly({k: r for k, c in terms.items() if (r := c % q)}, _raw=True)


def cycle_indicator_mod(n: int, q: int) -> MultiPoly:
    """C_n with every coefficient reduced into [0, q) and the zeros dropped,
    memoized for each q >= 2.

    For p the least prime factor of q, a row m < p is cycle_indicator(m)
    reduced: no class of S_m has a size that p divides, so residues would
    drop nothing there. So is row p, unless q = p: then it is
    X_1^p + (p-1)! X_p reduced, as p divides the size of every other class
    of S_p. A row m > p follows the shifted-sum recurrence
    C_m = sum_k (m-1)!/(m-k)! X_k C_{m-k}, which divides nothing and so
    runs mod q. The sum stops at the first k whose falling factorial is 0
    mod q, as every later one is its multiple, so the rows up to p are
    reduced only where a sum reaches them: at q = p, row p alone. The
    residue caches have their own lock; cycle_indicator takes
    ``_cache_lock``.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    if q < 2:
        raise ValueError(f"q must be >= 2, got {q}")
    _check_degree(n)
    with _residue_lock:
        rows = _residue_cache.setdefault(q, {})
        # p, or n if p is larger: the rows up to n are then all exact
        p = next((d for d in range(2, n + 1) if not q % d), n)

        def row(m: int) -> MultiPoly:
            if m not in rows:
                if m == q:  # then q = p is prime
                    terms = {q | q << SLOT_BITS: 1,
                             1 | 1 << SLOT_BITS * q: factorial(q - 1)}
                else:
                    terms = cycle_indicator(m).terms
                rows[m] = _reduced(terms, q)
            return rows[m]

        for m in range(p + 1, n + 1):
            if m in rows:
                continue
            acc: dict = {}
            get = acc.get
            falling = 1  # (m-1)!/(m-k)! mod q
            for k in range(1, m + 1):
                step = 1 | 1 << SLOT_BITS * k
                for key, c in row(m - k).terms.items():
                    key += step
                    acc[key] = get(key, 0) + falling * c
                falling = falling * (m - k) % q
                if not falling:
                    break
            rows[m] = _reduced(acc, q)
        return row(n)
