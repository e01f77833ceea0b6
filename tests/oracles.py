"""Independent construction routes for C_n and the Meixner polynomials (test oracles).

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

The package builds Q_n and Q_n* by binomial convolution of integer EGF
coefficients (``cyclopadic.meixner``); three routes here are compared with it:

* :func:`meixner_by_rational_series` -- the literal EGFs
  (1+t^2)^(-1/2) exp(X arctan t) and exp(X arctan t), as power series
  truncated at t^n whose t-coefficients are polynomials in X over Q; n! times
  each coefficient is checked to be integral.
* :func:`meixner_qstar_by_substitution` -- C_n at x_i = 0 for even i and
  x_i = (-1)^((i-1)/2) X for odd i.
* :func:`meixner_q_recurrence`, :func:`meixner_qstar_recurrence` -- the
  three-term recurrences, from the differential relations of the EGFs,
  (1+t^2) F' = (X - t) F for Q and (1+t^2) F' = X F for Q*.
"""
from dataclasses import dataclass
from fractions import Fraction
from math import factorial
from typing import List, Sequence, Tuple

from cyclopadic.cycle_index import coefficient, cycle_indicator, enumerate_cycle_types
from cyclopadic.polyring import MultiPoly, UniPoly, substitute_univariate

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


QPoly = Tuple[Fraction, ...]  # univariate polynomial over Q, index = degree

_ZERO: QPoly = ()


def _trim(c) -> QPoly:
    c = list(c)
    while c and c[-1] == 0:
        c.pop()
    return tuple(c)


def _padd(a: QPoly, b: QPoly) -> QPoly:
    n = max(len(a), len(b))
    return _trim(
        (a[d] if d < len(a) else 0) + (b[d] if d < len(b) else 0)
        for d in range(n)
    )


def _pmul(a: QPoly, b: QPoly) -> QPoly:
    if not a or not b:
        return _ZERO
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return _trim(out)


def _pscale(a: QPoly, s: Fraction) -> QPoly:
    if not s:
        return _ZERO
    return tuple(x * s for x in a)


@dataclass(frozen=True)
class RationalSeries:
    """Power series in t truncated at degree N, with QPoly coefficients."""

    coeffs: Tuple[QPoly, ...]

    @property
    def truncation(self) -> int:
        return len(self.coeffs) - 1

    def __getitem__(self, n: int) -> QPoly:
        return self.coeffs[n]

    @classmethod
    def from_rationals(cls, vals: Sequence[Fraction]) -> "RationalSeries":
        return cls(tuple(_trim((Fraction(v),)) for v in vals))

    @classmethod
    def zero(cls, trunc: int) -> "RationalSeries":
        return cls((_ZERO,) * (trunc + 1))

    def scaled_by_x(self) -> "RationalSeries":
        """Multiply every t-coefficient by the variable X."""
        return RationalSeries(
            tuple((Fraction(0),) + c if c else _ZERO for c in self.coeffs)
        )


def rational_arctan(trunc: int) -> RationalSeries:
    """arctan t = sum_{k>=0} (-1)^k t^(2k+1)/(2k+1), truncated."""
    vals = [Fraction(0)] * (trunc + 1)
    for k in range(0, (trunc - 1) // 2 + 1 if trunc >= 1 else 0):
        vals[2 * k + 1] = Fraction((-1) ** k, 2 * k + 1)
    return RationalSeries.from_rationals(vals)


def rational_one_plus_t2(trunc: int) -> RationalSeries:
    vals = [Fraction(0)] * (trunc + 1)
    vals[0] = Fraction(1)
    if trunc >= 2:
        vals[2] = Fraction(1)
    return RationalSeries.from_rationals(vals)


def rational_mul(a: RationalSeries, b: RationalSeries) -> RationalSeries:
    """Product, truncated at min of the two truncation degrees."""
    n = min(a.truncation, b.truncation)
    out = []
    for m in range(n + 1):
        acc: QPoly = _ZERO
        for j in range(m + 1):
            cj, dk = a.coeffs[j], b.coeffs[m - j]
            if cj and dk:
                acc = _padd(acc, _pmul(cj, dk))
        out.append(acc)
    return RationalSeries(tuple(out))


def rational_exp(a: RationalSeries) -> RationalSeries:
    """exp of a series with zero constant term.

    Uses the ODE E' = A'E: n*e_n = sum_{k=1..n} k*a_k*e_{n-k}.
    """
    if a.coeffs[0]:
        raise ValueError("rational_exp requires zero constant term")
    n = a.truncation
    e: list = [(Fraction(1),)]
    for m in range(1, n + 1):
        acc: QPoly = _ZERO
        for k in range(1, m + 1):
            ak = a.coeffs[k]
            if ak and e[m - k]:
                acc = _padd(acc, _pscale(_pmul(ak, e[m - k]), Fraction(k)))
        e.append(_pscale(acc, Fraction(1, m)))
    return RationalSeries(tuple(e))


def rational_pow(s: RationalSeries, a: Fraction) -> RationalSeries:
    """s^a for a series with constant term 1 and rational exponent a.

    Uses s*f' = a*s'*f: n*f_n = sum_{j=1..n} (a*j - (n-j)) * s_j * f_{n-j}.
    """
    if s.coeffs[0] != (Fraction(1),):
        raise ValueError("rational_pow requires constant term 1")
    n = s.truncation
    f: list = [(Fraction(1),)]
    for m in range(1, n + 1):
        acc: QPoly = _ZERO
        for j in range(1, m + 1):
            sj = s.coeffs[j]
            if sj and f[m - j]:
                w = a * j - (m - j)
                if w:
                    acc = _padd(acc, _pscale(_pmul(sj, f[m - j]), Fraction(w)))
        f.append(_pscale(acc, Fraction(1, m)))
    return RationalSeries(tuple(f))


def rational_inv_sqrt(s: RationalSeries) -> RationalSeries:
    """s^(-1/2) for a series with constant term 1."""
    return rational_pow(s, Fraction(-1, 2))


def _to_unipoly(qcoeffs: QPoly, scale: int) -> UniPoly:
    out = []
    for c in qcoeffs:
        v = Fraction(c) * scale
        if v.denominator != 1:
            raise ArithmeticError("Meixner series produced a non-integer")
        out.append(int(v))
    return UniPoly(out)


def meixner_by_rational_series(n: int) -> Tuple[List[UniPoly], List[UniPoly]]:
    """[Q_0, ..., Q_n] and [Q*_0, ..., Q*_n] from their EGFs over Q."""
    g = rational_exp(rational_arctan(n).scaled_by_x())
    f = rational_mul(rational_inv_sqrt(rational_one_plus_t2(n)), g)
    return (
        [_to_unipoly(f[k], factorial(k)) for k in range(n + 1)],
        [_to_unipoly(g[k], factorial(k)) for k in range(n + 1)],
    )


def meixner_qstar_by_substitution(n: int) -> UniPoly:
    """Q_n* as C_n at x_i = 0 (even i), x_i = (-1)^((i-1)/2) X (odd i)."""
    if n == 0:
        return UniPoly.constant(1)
    x = UniPoly.x()
    images = {
        i: UniPoly() if i % 2 == 0 else (-1) ** ((i - 1) // 2) * x
        for i in range(1, n + 1)
    }
    return substitute_univariate(cycle_indicator(n), images)


def meixner_q_recurrence(nmax: int) -> List[UniPoly]:
    """Q_0..Q_nmax via Q_{m+1} = X Q_m - m^2 Q_{m-1}."""
    x = UniPoly.x()
    qs = [UniPoly.constant(1)]
    if nmax >= 1:
        qs.append(x)
    for m in range(1, nmax):
        qs.append(x * qs[m] - m * m * qs[m - 1])
    return qs[: nmax + 1]


def meixner_qstar_recurrence(nmax: int) -> List[UniPoly]:
    """Q*_0..Q*_nmax via Q*_{m+1} = X Q*_m - m(m-1) Q*_{m-1}."""
    x = UniPoly.x()
    qs = [UniPoly.constant(1)]
    if nmax >= 1:
        qs.append(x)
    for m in range(1, nmax):
        qs.append(x * qs[m] - m * (m - 1) * qs[m - 1])
    return qs[: nmax + 1]
