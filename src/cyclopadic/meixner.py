"""Meixner polynomials Q_n and the auxiliary Q_n*, with their congruences.

Q_n is defined only through its exponential generating function
(1+t^2)^(-1/2) * exp(X arctan t); the truncated exact-rational series is
therefore the source of truth here. Q_n* drops the (1+t^2)^(-1/2) factor and
also arises by substituting x_i = 0 (even i), x_i = (-1)^((i-1)/2) X (odd i)
into the cycle indicator C_n; both routes are implemented and cross-checked.

Recurrence fast paths (derived from the EGF differential relation
(1+t^2) F' = (X - t) F) are provided for benchmarks; tests pin them
coefficient-for-coefficient to the series route.
"""
from __future__ import annotations

import threading
from fractions import Fraction
from math import factorial
from typing import List, Optional

from .cycle_index import cycle_indicator
from .padic import PadicContext
from .polyring import UniPoly, substitute_univariate
from .reports import CongruenceReport, Mutation
from .series import (
    series_arctan,
    series_exp,
    series_inv_sqrt,
    series_mul,
    series_one_plus_t2,
)


def _to_unipoly(qcoeffs, scale: int) -> UniPoly:
    out = []
    for c in qcoeffs:
        v = Fraction(c) * scale
        if v.denominator != 1:
            raise ArithmeticError("Meixner series produced a non-integer")
        out.append(int(v))
    return UniPoly(out)


_lock = threading.Lock()
_q_cache: List[UniPoly] = []
_qstar_cache: List[UniPoly] = []


def _extend_series_caches(n: int) -> None:
    global _q_cache, _qstar_cache
    if len(_q_cache) > n:
        return
    # recompute the whole prefix, growing geometrically to amortize extensions
    trunc = max(n, 2 * (len(_q_cache) - 1), 8)
    x_arctan = series_arctan(trunc).scaled_by_x()
    g = series_exp(x_arctan)
    f = series_mul(series_inv_sqrt(series_one_plus_t2(trunc)), g)
    _qstar_cache = [_to_unipoly(g[k], factorial(k)) for k in range(trunc + 1)]
    _q_cache = [_to_unipoly(f[k], factorial(k)) for k in range(trunc + 1)]


def meixner_q(n: int) -> UniPoly:
    """Q_n from the truncated EGF (exact rationals, integrality checked)."""
    if n < 0:
        raise ValueError("n must be >= 0")
    with _lock:
        _extend_series_caches(n)
        return _q_cache[n]


# above this, substituting into C_n is slower than the series (C_n has p(n)
# terms, ~5.6k at n=30); the two routes are pinned equal below the crossover
_QSTAR_SUBSTITUTION_MAX = 30


def meixner_qstar(n: int) -> UniPoly:
    """Q_n* by substituting the arctan images into the cycle indicator C_n.

    Falls back to the (definitional) EGF series route above the crossover
    where the partition count makes C_n too large to be worth building.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    if n == 0:
        return UniPoly.constant(1)
    if n > _QSTAR_SUBSTITUTION_MAX:
        return meixner_qstar_series(n)
    x = UniPoly.x()
    images = {}
    for i in range(1, n + 1):
        if i % 2 == 0:
            images[i] = UniPoly()
        else:
            images[i] = (-1) ** ((i - 1) // 2) * x
    return substitute_univariate(cycle_indicator(n), images)


def meixner_qstar_series(n: int) -> UniPoly:
    """Q_n* from the truncated EGF exp(X arctan t) (cross-route oracle)."""
    if n < 0:
        raise ValueError("n must be >= 0")
    with _lock:
        _extend_series_caches(n)
        return _qstar_cache[n]


def meixner_q_recurrence(nmax: int) -> List[UniPoly]:
    """Q_0..Q_nmax via Q_{m+1} = X Q_m - m^2 Q_{m-1} (validated fast path)."""
    x = UniPoly.x()
    qs = [UniPoly.constant(1)]
    if nmax >= 1:
        qs.append(x)
    for m in range(1, nmax):
        qs.append(x * qs[m] - m * m * qs[m - 1])
    return qs[: nmax + 1]


def meixner_qstar_recurrence(nmax: int) -> List[UniPoly]:
    """Q*_0..Q*_nmax via Q*_{m+1} = X Q*_m - m(m-1) Q*_{m-1} (fast path)."""
    x = UniPoly.x()
    qs = [UniPoly.constant(1)]
    if nmax >= 1:
        qs.append(x)
    for m in range(1, nmax):
        qs.append(x * qs[m] - m * (m - 1) * qs[m - 1])
    return qs[: nmax + 1]


def _mutate_unipoly(poly: UniPoly, mutation: Optional[Mutation]) -> UniPoly:
    if mutation is None:
        return poly
    coeffs = list(poly.coeffs) or [0]
    idx = mutation.index % len(coeffs)
    coeffs[idx] += mutation.delta
    return UniPoly(coeffs)


def _compare_unipolys(
    report: CongruenceReport,
    lhs: UniPoly,
    rhs: UniPoly,
    modulus: int,
    ctx: PadicContext,
    tag: str = "",
) -> None:
    req = ctx.vp(modulus)
    diff = lhs - rhs
    report.instances += max(len(lhs.coeffs), len(rhs.coeffs))
    for d, c in enumerate(diff.coeffs):
        if c and ctx.vp(c) < req:
            instance = {"degree": d}
            if tag:
                instance["form"] = tag
            report.add_violation(instance, c, modulus, ctx.vp(c), req)


def _require_odd(ctx: PadicContext) -> None:
    if ctx.p == 2:
        raise ValueError("this congruence is stated for odd p only")


def check_junod_qstar_q(
    n: int, ctx: PadicContext, mutation: Optional[Mutation] = None
) -> CongruenceReport:
    """Q*_{np} = Q_{np} (mod np Z_p[X])."""
    _require_odd(ctx)
    p = ctx.p
    modulus = n * p
    report = CongruenceReport(
        "meixner-qstar-q", {"p": p, "n": n, "modulus": modulus}
    )
    lhs = _mutate_unipoly(meixner_qstar(n * p), mutation)
    _compare_unipolys(report, lhs, meixner_q(n * p), modulus, ctx)
    return report


def check_junod_qp(
    ctx: PadicContext, mutation: Optional[Mutation] = None
) -> CongruenceReport:
    """Q_p = X^p - (-1)^((p-1)/2) X (mod p Z_p[X])."""
    _require_odd(ctx)
    p = ctx.p
    report = CongruenceReport("meixner-qp", {"p": p, "modulus": p})
    x = UniPoly.x()
    target = x**p - (-1) ** ((p - 1) // 2) * x
    lhs = _mutate_unipoly(meixner_q(p), mutation)
    _compare_unipolys(report, lhs, target, p, ctx)
    return report


def check_corollary2(
    n: int, ctx: PadicContext, mutation: Optional[Mutation] = None
) -> CongruenceReport:
    """Q_{np} = Q_p^n = (X^p - (-1)^((p-1)/2) X)^n (mod np Z_p[X])."""
    _require_odd(ctx)
    p = ctx.p
    modulus = n * p
    report = CongruenceReport(
        "corollary2", {"p": p, "n": n, "modulus": modulus}
    )
    lhs = _mutate_unipoly(meixner_q(n * p), mutation)
    x = UniPoly.x()
    _compare_unipolys(report, lhs, meixner_q(p) ** n, modulus, ctx, tag="qp-power")
    closed = (x**p - (-1) ** ((p - 1) // 2) * x) ** n
    _compare_unipolys(report, lhs, closed, modulus, ctx, tag="closed-form")
    return report
