"""Independent construction routes for the cycle indicator C_n (test oracles).

The package builds C_n one term per cycle type (``cycle_indicator``); the
routes here share none of that code and are compared against it:

* :func:`cycle_indicators_by_recurrence` -- the shifted-sum recurrence
  C_m = sum_{j<m} ((m-1)!/j!) * X_{m-j} * C_j, through MultiPoly arithmetic.
* :func:`cycle_indicator_direct` -- sum over enumerated cycle types.
* :func:`cycle_indicator_via_determinant` -- cofactor expansion of the
  m x m matrix with X_i down the first column and -1..-(m-1) above the
  diagonal (small m only).
* :func:`cycle_indicator_via_egf` -- truncated exponential generating
  function over exact rationals.
"""
from fractions import Fraction
from math import factorial

from cyclopadic.cycle_index import coefficient, enumerate_cycle_types
from cyclopadic.polyring import MultiPoly

DETERMINANT_BOUND_DEFAULT = 8


def cycle_indicators_by_recurrence(n: int) -> list:
    """[C_0, ..., C_n] by C_m = sum_{j<m} ((m-1)!/j!) X_{m-j} C_j."""
    table = [MultiPoly.one()]
    for m in range(1, n + 1):
        acc = MultiPoly.zero()
        for j in range(m):
            scale, rem = divmod(factorial(m - 1), factorial(j))
            if rem:
                raise ArithmeticError(f"{m - 1}! is not divisible by {j}!")
            acc = acc + scale * (MultiPoly.variable(m - j) * table[j])
        table.append(acc)
    return table


def cycle_indicator_direct(n: int) -> MultiPoly:
    """C_n as the explicit sum over cycle types."""
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
