"""Exponential generating functions over Z[X], extended one degree at a time.

A series A(t) = sum_k a_k t^k / k! is held as the list [a_0, a_1, ...] of its
EGF coefficients a_k = k! [t^k] A, each a :class:`UniPoly`. The product and the
exponential of EGFs are binomial convolutions (Flajolet & Sedgewick, *Analytic
Combinatorics*, ch. II), so each coefficient is a sum of integer polynomials
times binomial coefficients: nothing is divided and nothing is truncated.

Both operations take the list they extend and append only the degrees it
lacks, so a cache built on them grows to exactly the degree asked for.
"""
from __future__ import annotations

from math import comb
from typing import List

from .polyring import UniPoly

Series = List[UniPoly]  # EGF coefficients, index = degree in t


def _convolution(a: Series, b: Series, m: int, lo: int) -> UniPoly:
    """sum_{k=lo..m} C(m - lo, k - lo) * a_k * b_{m-k}."""
    out: list = []
    for k in range(lo, m + 1):
        x, y = a[k].coeffs, b[m - k].coeffs
        if not (x and y):
            continue
        if len(out) < len(x) + len(y) - 1:
            out.extend([0] * (len(x) + len(y) - 1 - len(out)))
        w = comb(m - lo, k - lo)
        for i, xi in enumerate(x):
            if xi:
                wx = w * xi
                for j, yj in enumerate(y):
                    out[i + j] += wx * yj
    return UniPoly(out)


def series_mul(a: Series, b: Series, out: Series) -> Series:
    """Extend out = A*B through the degrees both a and b have.

    c_m = sum_{k=0..m} C(m, k) a_k b_{m-k}.
    """
    for m in range(len(out), min(len(a), len(b))):
        out.append(_convolution(a, b, m, 0))
    return out


def series_exp(a: Series, out: Series) -> Series:
    """Extend out = exp(A) through the degrees a has; A needs a_0 = 0.

    From exp(A)' = A' exp(A): g_0 = 1, g_m = sum_{k=1..m} C(m-1, k-1) a_k g_{m-k}.
    """
    if a and not a[0].is_zero():
        raise ValueError("series_exp requires zero constant term")
    for m in range(len(out), len(a)):
        out.append(_convolution(a, out, m, 1) if m else UniPoly.constant(1))
    return out
