"""Meixner polynomials Q_n and the auxiliary Q_n*, with their congruences.

Q_n is defined through its exponential generating function
(1+t^2)^(-1/2) * exp(X arctan t), and Q_n* through exp(X arctan t) alone. Both
are built here from those EGFs over Z[X] (see :mod:`.series`), one degree at a
time, into one cache that ``meixner_q`` and ``meixner_qstar`` both read.

The tests hold this route equal to independent ones in ``tests/oracles.py``:
the three-term recurrences, a rational-series oracle and the substitution of
the arctan images into the cycle indicator C_n.
"""
from __future__ import annotations

import threading
from math import factorial
from typing import List, Optional

from .congruences import compare_polys
from .padic import PadicContext
from .polyring import UniPoly
from .reports import CongruenceReport, Mutation
from .series import series_exp, series_mul

_lock = threading.Lock()
# EGF coefficients, index = degree in t, of X arctan t, of (1+t^2)^(-1/2), of
# Q* = exp(X arctan t) and of Q = (1+t^2)^(-1/2) Q*; all four have one length
_x_arctan: List[UniPoly] = []
_inv_sqrt: List[UniPoly] = []
_qstar_cache: List[UniPoly] = []
_q_cache: List[UniPoly] = []


def _extend_caches(n: int) -> None:
    """Append the degrees up to n that the caches lack."""
    for k in range(len(_x_arctan), n + 1):
        if k % 2:
            # X arctan t = sum_j (-1)^j X t^(2j+1) / (2j+1): a_k = (-1)^j (k-1)! X
            _x_arctan.append(UniPoly((0, (-1) ** (k // 2) * factorial(k - 1))))
            _inv_sqrt.append(UniPoly())
        else:
            _x_arctan.append(UniPoly())
            # (1+t^2)^(-1/2): b_0 = 1, b_2j = (-1)^j ((2j-1)!!)^2 = -(2j-1)^2 b_2j-2
            b = -(k - 1) ** 2 * _inv_sqrt[k - 2] if k else UniPoly.constant(1)
            _inv_sqrt.append(b)
    series_exp(_x_arctan, _qstar_cache)
    series_mul(_inv_sqrt, _qstar_cache, _q_cache)


def meixner_q(n: int) -> UniPoly:
    """Q_n from the EGF (1+t^2)^(-1/2) exp(X arctan t)."""
    if n < 0:
        raise ValueError("n must be >= 0")
    with _lock:
        _extend_caches(n)
        return _q_cache[n]


def meixner_qstar(n: int) -> UniPoly:
    """Q_n* from the EGF exp(X arctan t)."""
    if n < 0:
        raise ValueError("n must be >= 0")
    with _lock:
        _extend_caches(n)
        return _qstar_cache[n]


def _mutate_unipoly(poly: UniPoly, mutation: Optional[Mutation]) -> UniPoly:
    if mutation is None:
        return poly
    coeffs = list(poly.coeffs) or [0]
    idx = mutation.index % len(coeffs)
    coeffs[idx] += mutation.delta
    return UniPoly(coeffs)


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
    compare_polys(report, lhs, meixner_q(n * p), modulus, ctx)
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
    compare_polys(report, lhs, target, p, ctx)
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
    compare_polys(report, lhs, meixner_q(p) ** n, modulus, ctx, tag="qp-power")
    closed = (x**p - (-1) ** ((p - 1) // 2) * x) ** n
    compare_polys(report, lhs, closed, modulus, ctx, tag="closed-form")
    return report
