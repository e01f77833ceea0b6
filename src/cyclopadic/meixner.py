"""Meixner polynomials Q_n and the auxiliary Q_n*, with their congruences.

Q_n and Q_n* have the exponential generating functions
(1+t^2)^(-1/2) exp(X arctan t) and exp(X arctan t), whose differential
relations (1+t^2) F' = (X - t) F and (1+t^2) F' = X F give the division-free
recurrences Q_{m+1} = X Q_m - m^2 Q_{m-1} and Q*_{m+1} = X Q*_m - m(m-1)
Q*_{m-1} from Q_0 = Q*_0 = 1 and Q_1 = Q*_1 = X. Two caches grow by them
together over Z[X], one degree at a time, to the largest degree asked for.

The tests hold this route equal to the integer EGF route (:mod:`.series`),
a rational series and the substitution into C_n, in ``tests/oracles.py``.
"""
from __future__ import annotations

import threading
from typing import List, Optional, Tuple

from .congruences import compare_polys
from .padic import PadicContext
from .polyring import UniPoly
from .reports import CongruenceReport

_lock = threading.Lock()
# Q_n and Q*_n, index = n; both caches have one length
_q_cache: List[UniPoly] = []
_qstar_cache: List[UniPoly] = []


def _extend_caches(n: int) -> None:
    """Append the degrees up to n that the caches lack."""
    x, q, qs = UniPoly.x(), _q_cache, _qstar_cache
    for k in range(len(q), n + 1):
        if k < 2:
            q.append(x if k else UniPoly.constant(1))
            qs.append(q[k])
        else:
            m = k - 1
            q.append(x * q[m] - m * m * q[m - 1])
            qs.append(x * qs[m] - m * (m - 1) * qs[m - 1])


def meixner_q(n: int) -> UniPoly:
    """Q_n, the coefficient of t^n/n! in (1+t^2)^(-1/2) exp(X arctan t)."""
    if n < 0:
        raise ValueError("n must be >= 0")
    with _lock:
        _extend_caches(n)
        return _q_cache[n]


def meixner_qstar(n: int) -> UniPoly:
    """Q_n*, the coefficient of t^n/n! in exp(X arctan t)."""
    if n < 0:
        raise ValueError("n must be >= 0")
    with _lock:
        _extend_caches(n)
        return _qstar_cache[n]


def _require_odd(ctx: PadicContext) -> None:
    if ctx.p == 2:
        raise ValueError("this congruence is stated for odd p only")


def check_junod_qstar_q(
    n: int, ctx: PadicContext, mutation: Optional[Tuple[int, int]] = None
) -> CongruenceReport:
    """Q*_{np} = Q_{np} (mod np Z_p[X])."""
    _require_odd(ctx)
    p = ctx.p
    modulus = n * p
    report = CongruenceReport(
        "meixner-qstar-q", {"p": p, "n": n, "modulus": modulus}, mutation=mutation
    )
    compare_polys(report, meixner_qstar(n * p), meixner_q(n * p), modulus, ctx)
    return report


def check_junod_qp(
    ctx: PadicContext, mutation: Optional[Tuple[int, int]] = None
) -> CongruenceReport:
    """Q_p = X^p - (-1)^((p-1)/2) X (mod p Z_p[X])."""
    _require_odd(ctx)
    p = ctx.p
    report = CongruenceReport("meixner-qp", {"p": p, "modulus": p}, mutation=mutation)
    x = UniPoly.x()
    target = x**p - (-1) ** ((p - 1) // 2) * x
    compare_polys(report, meixner_q(p), target, p, ctx)
    return report


def check_corollary2(
    n: int, ctx: PadicContext, mutation: Optional[Tuple[int, int]] = None
) -> CongruenceReport:
    """Q_{np} = Q_p^n = (X^p - (-1)^((p-1)/2) X)^n (mod np Z_p[X])."""
    _require_odd(ctx)
    p = ctx.p
    modulus = n * p
    report = CongruenceReport(
        "corollary2", {"p": p, "n": n, "modulus": modulus}, mutation=mutation
    )
    lhs = meixner_q(n * p)
    x = UniPoly.x()
    compare_polys(report, lhs, meixner_q(p) ** n, modulus, ctx, tag="qp-power")
    closed = (x**p - (-1) ** ((p - 1) // 2) * x) ** n
    compare_polys(report, lhs, closed, modulus, ctx, tag="closed-form")
    return report
