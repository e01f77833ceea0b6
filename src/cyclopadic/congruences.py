"""Executable checkers for the cycle-indicator congruences.

Each checker sweeps its full instance space exactly (no sampling, except the
explicitly seeded random lemma test) and returns a CongruenceReport whose
violations carry enough witness data to be actionable without a rerun.

Coefficient-level checkers recompute coefficients from the closed formula
rather than reading them out of the constructed polynomial, so the
coefficient checks and the polynomial builder fail independently.
"""
from __future__ import annotations

import random
from typing import Optional, Tuple

from .cycle_index import (
    coefficient,
    coefficient_raw,
    cycle_indicator,
    enumerate_cycle_types,
)
from .padic import PadicContext, binomial
from .polyring import MultiPoly
from .reports import CongruenceReport, Mutation, MutationTap


def n_star(n: int) -> int:
    """n/2 for even n, n for odd n: the sharpened modulus factor."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return n // 2 if n % 2 == 0 else n


def _mutate_poly(poly: MultiPoly, mutation: Optional[Mutation]) -> MultiPoly:
    """Perturb one coefficient of poly (by sorted-term index), for fault injection."""
    if mutation is None:
        return poly
    terms = poly.sorted_terms()
    if not terms:
        return poly + MultiPoly.constant(mutation.delta)
    e, _ = terms[mutation.index % len(terms)]
    return poly + MultiPoly.monomial(e, mutation.delta)


def _compare_polys(
    report: CongruenceReport,
    lhs: MultiPoly,
    rhs: MultiPoly,
    modulus: int,
    ctx: PadicContext,
    tag: str = "",
) -> None:
    req = ctx.vp(modulus)
    report.instances += max(len(lhs), len(rhs))
    for e, c in (lhs - rhs).nondivisible_terms(ctx.p**req):
        instance = {"exponents": list(e)}
        if tag:
            instance["form"] = tag
        report.add_violation(instance, c, modulus, ctx.vp(c), req)


def _carlitz_branch(
    parts: Tuple[Tuple[int, int], ...], p: int
) -> Tuple[bool, int, int]:
    """(pure 1/p class?, m_1, m_p) of a class given by its parts, largest first."""
    mult = dict(parts)
    m1 = mult.get(1, 0)
    mp = mult.get(p, 0)
    return len(mult) == (m1 > 0) + (mp > 0), m1, mp


def _coeff_congruence_report(
    name: str,
    n: int,
    ctx: PadicContext,
    modulus: int,
    sign: int,
    mutation: Optional[Mutation],
) -> CongruenceReport:
    """c_np(m) = sign^m_p * C(n, m_p) on pure 1/p classes, 0 elsewhere, mod modulus."""
    p = ctx.p
    report = CongruenceReport(name, {"p": p, "n": n, "modulus": modulus})
    req = ctx.vp(modulus)
    q = p**req
    tap = MutationTap(mutation)
    for ct in enumerate_cycle_types(n * p):
        pure, _, mp = _carlitz_branch(ct.parts, p)
        c = tap.tap(coefficient(ct))
        expected = sign**mp * binomial(n, mp) if pure else 0
        report.instances += 1
        diff = c - expected
        if diff % q:
            report.add_violation(
                {"cycle_type": list(ct.m), "branch": 1 if pure else 2},
                diff,
                modulus,
                ctx.vp(diff),
                req,
            )
    return report


def check_carlitz_coeff(
    n: int, ctx: PadicContext, mutation: Optional[Mutation] = None
) -> CongruenceReport:
    """Carlitz's coefficient congruence mod p over all cycle types of np."""
    return _coeff_congruence_report("carlitz-coeff", n, ctx, ctx.p, -1, mutation)


def check_prop_coeff(
    n: int, ctx: PadicContext, mutation: Optional[Mutation] = None
) -> CongruenceReport:
    """Strengthened coefficient congruences mod n*p over all cycle types of np."""
    return _coeff_congruence_report(
        "prop-coeff", n, ctx, n_star(n) * ctx.p, (-1) ** ctx.p, mutation
    )


def _poly_congruence_report(
    name: str,
    r: int,
    n: int,
    ctx: PadicContext,
    modulus: int,
    mutation: Optional[Mutation],
    cross_check_sign_form: bool,
) -> CongruenceReport:
    p = ctx.p
    report = CongruenceReport(
        name, {"p": p, "n": n, "r": r, "modulus": modulus}
    )
    lhs = _mutate_poly(cycle_indicator(r + n * p), mutation)
    cr = cycle_indicator(r)
    x1p = MultiPoly.variable(1) ** p
    xp = MultiPoly.variable(p)
    rhs = (x1p - xp) ** n * cr
    _compare_polys(report, lhs, rhs, modulus, ctx)
    if cross_check_sign_form:
        rhs2 = (x1p + (-1) ** p * xp) ** n * cr
        _compare_polys(report, lhs, rhs2, modulus, ctx, tag="signed")
    return report


def check_carlitz_poly(
    r: int, n: int, ctx: PadicContext, mutation: Optional[Mutation] = None
) -> CongruenceReport:
    """Carlitz: C_{r+np} = (X_1^p - X_p)^n C_r (mod p Z_p[X])."""
    if r < 0 or n < 1:
        raise ValueError("need r >= 0 and n >= 1")
    return _poly_congruence_report(
        "carlitz-poly", r, n, ctx, ctx.p, mutation, cross_check_sign_form=False
    )


def check_prop_poly(
    r: int, n: int, ctx: PadicContext, mutation: Optional[Mutation] = None
) -> CongruenceReport:
    """Strengthened form mod n*p, plus the (X_1^p + (-1)^p X_p)^n variant."""
    if r < 0 or n < 1:
        raise ValueError("need r >= 0 and n >= 1")
    return _poly_congruence_report(
        "prop-poly",
        r,
        n,
        ctx,
        n_star(n) * ctx.p,
        mutation,
        cross_check_sign_form=True,
    )


def check_corollary1(
    r: int, n: int, ctx: PadicContext, mutation: Optional[Mutation] = None
) -> CongruenceReport:
    """Both branches of the corollary over all cycle types of r+np, mod n*p."""
    p = ctx.p
    if not 1 <= r <= p - 1:
        raise ValueError("corollary requires 1 <= r <= p-1")
    modulus = n_star(n) * p
    report = CongruenceReport(
        "corollary1", {"p": p, "n": n, "r": r, "modulus": modulus}
    )
    req = ctx.vp(modulus)
    q = p**req
    tap = MutationTap(mutation)
    rhs_infeasible = 0
    for ct in enumerate_cycle_types(r + n * p):
        _, m1, mp = _carlitz_branch(ct.parts, p)
        c = tap.tap(coefficient(ct))
        if mp <= n and m1 >= p * (n - mp):
            cr = coefficient_raw(r, (m1 + p * mp - n * p,) + ct.m[1:r])
            if not cr:
                rhs_infeasible += 1
            expected = (-1) ** (p * mp) * binomial(n, mp) * cr
            branch = "a"
        else:
            expected = 0
            branch = "b"
        report.instances += 1
        diff = c - expected
        if diff % q:
            report.add_violation(
                {"cycle_type": list(ct.m), "branch": branch},
                diff,
                modulus,
                ctx.vp(diff),
                req,
            )
    if rhs_infeasible:
        report.params["rhs_infeasible"] = rhs_infeasible
    return report


def _two_part_vector(total: int, m1: int, p: int, mp: int) -> Tuple[int, ...]:
    m = [0] * total
    if m1:
        m[0] = m1
    if mp:
        m[p - 1] = mp
    return tuple(m)


def check_remark1(
    r: int, n: int, ctx: PadicContext, mutation: Optional[Mutation] = None
) -> CongruenceReport:
    """c_{r+np}(m_1,..,m_p,..) = c_{np}(m_1-r,..,m_p,..) (mod n*p) on 1/p classes."""
    p = ctx.p
    if not 1 <= r <= p - 1:
        raise ValueError("remark requires 1 <= r <= p-1")
    modulus = n_star(n) * p
    report = CongruenceReport(
        "remark1", {"p": p, "n": n, "r": r, "modulus": modulus}
    )
    tap = MutationTap(mutation)
    for mp in range(0, n + 1):
        m1 = r + n * p - p * mp
        lhs = tap.tap(
            coefficient_raw(r + n * p, _two_part_vector(r + n * p, m1, p, mp))
        )
        rhs = coefficient_raw(n * p, _two_part_vector(n * p, m1 - r, p, mp))
        report.instances += 1
        diff = lhs - rhs
        if not ctx.in_mZp(diff, modulus):
            report.add_violation(
                {"m1": m1, "mp": mp},
                diff,
                modulus,
                ctx.vp(diff),
                ctx.vp(modulus),
            )
    return report


def _random_poly(rng: random.Random) -> MultiPoly:
    terms = {}
    for _ in range(rng.randint(1, 3)):
        e = tuple(rng.randint(0, 2) for _ in range(rng.randint(1, 3)))
        terms[e] = terms.get(e, 0) + rng.randint(-5, 5)
    return MultiPoly(terms)


def check_junod_lemma(
    trials: int,
    seed: int,
    ctx: PadicContext,
    mutation: Optional[Mutation] = None,
) -> CongruenceReport:
    """Randomized lemma test: m in pZ, a = b (mod m) implies a^n = b^n (mod mn).

    Instances live in the commutative ring Z[X_1,X_2,X_3]; the seed is
    recorded so any run is reproducible.
    """
    p = ctx.p
    report = CongruenceReport(
        "junod-lemma", {"p": p, "trials": trials}, seed=seed
    )
    rng = random.Random(seed)
    for trial in range(trials):
        alpha = _random_poly(rng)
        gamma = _random_poly(rng)
        m = p * rng.randint(1, 20)
        n = rng.randint(1, 12)
        beta = alpha + m * gamma
        modulus = m * n
        lhs = _mutate_poly(alpha**n, mutation if trial == 0 else None)
        report.instances += 1
        req = ctx.vp(modulus)
        bad = (lhs - beta**n).nondivisible_terms(p**req)
        if bad:
            e, c = bad[0]
            report.add_violation(
                {"trial": trial, "m": m, "n": n, "exponents": list(e)},
                c,
                modulus,
                ctx.vp(c),
                req,
            )
    return report


def check_formula_gamma_ratio(
    n: int, ctx: PadicContext, mutation: Optional[Mutation] = None
) -> CongruenceReport:
    """Exact Gamma-ratio identity for pure 1/p classes, plus equal valuations.

    c_np(m_1,0,..,m_p,..) = (-1)^(p*m_p) C(n,m_p) Gamma_p(np+1)/Gamma_p(m_1+1)
    as integers, and vp(c_np) = vp(C(n,m_p)).
    """
    p = ctx.p
    report = CongruenceReport("gamma-ratio", {"p": p, "n": n})
    tap = MutationTap(mutation)
    for mp in range(0, n + 1):
        m1 = n * p - p * mp
        c = tap.tap(coefficient_raw(n * p, _two_part_vector(n * p, m1, p, mp)))
        ratio = ctx.morita_gamma_ratio(n * p + 1, m1 + 1)
        expected = (-1) ** (p * mp) * binomial(n, mp) * ratio
        report.instances += 1
        if c != expected:
            report.add_violation(
                {"mp": mp, "m1": m1, "kind": "exact-identity"},
                c - expected,
                0,
                ctx.vp(c - expected),
                "exact",
            )
        elif ctx.vp(c) != ctx.vp(binomial(n, mp)):
            report.add_violation(
                {"mp": mp, "m1": m1, "kind": "valuation"},
                c,
                0,
                ctx.vp(c),
                ctx.vp(binomial(n, mp)),
            )
    return report


def check_wilson_sharpness(
    n: int, ctx: PadicContext, mutation: Optional[Mutation] = None
) -> CongruenceReport:
    """Sharpness of the coefficient congruence at m_p = 1.

    For odd p with n in pZ, D = c_np - (-1)^p * n has vp(D) = vp(n) + 1
    exactly when p is not a Wilson prime, and vp(D) >= vp(n) + 2 when it is.
    """
    p = ctx.p
    if p == 2:
        raise ValueError("sharpness check requires odd p")
    if n % p != 0:
        raise ValueError("sharpness check requires n in pZ")
    wilson = ctx.wilson_quotient_test()
    report = CongruenceReport(
        "wilson-sharpness", {"p": p, "n": n, "wilson_prime": wilson}
    )
    tap = MutationTap(mutation)
    c = tap.tap(coefficient_raw(n * p, _two_part_vector(n * p, n * p - p, p, 1)))
    d = c - (-1) ** p * n
    v = ctx.vp(d)
    vn = ctx.vp(n)
    report.instances = 1
    if wilson:
        if not v >= vn + 2:
            report.add_violation(
                {"mp": 1, "kind": "wilson-prime-bound"}, d, 0, v, vn + 2
            )
    else:
        if v != vn + 1:
            report.add_violation(
                {"mp": 1, "kind": "sharpness"}, d, 0, v, vn + 1
            )
    return report


# -- sweep wrappers for the scalar p-adic identities -----------------------


def report_gamma_identity(
    m: int, ctx: PadicContext, mutation: Optional[Mutation] = None
) -> CongruenceReport:
    """Exact factorial/Gamma identity (mp)! = (-1)^(pm+1) Gamma_p(pm+1) m! p^m."""
    from .padic import check_gamma_identity

    report = CongruenceReport("gamma-identity", {"p": ctx.p, "m": m})
    res = check_gamma_identity(m, ctx)
    tap = MutationTap(mutation)
    lhs = tap.tap(res.details["lhs"])
    report.instances = 1
    if lhs != res.details["rhs"]:
        report.add_violation(
            {"m": m}, lhs - res.details["rhs"], 0, 0, "exact"
        )
    return report


def report_gamma_congruence(
    m: int, ctx: PadicContext, mutation: Optional[Mutation] = None
) -> CongruenceReport:
    """Valuation bound on Gamma_p(pm+1) + 1."""
    p = ctx.p
    report = CongruenceReport("gamma-congruence", {"p": p, "m": m})
    tap = MutationTap(mutation)
    g1 = tap.tap(ctx.morita_gamma(p * m + 1) + 1)
    observed = ctx.vp(g1)
    required = ctx.vp(p * m) - ctx.vp(2)
    report.instances = 1
    if observed < required:
        report.add_violation({"m": m}, g1, p * m, observed, required)
    return report


def report_binomial_lift(
    n: int, ctx: PadicContext, mutation: Optional[Mutation] = None
) -> CongruenceReport:
    """Both binomial lifting congruences for all m in [0, n]."""
    p = ctx.p
    report = CongruenceReport("binomial-lift", {"p": p, "n": n})
    tap = MutationTap(mutation)
    vnp = ctx.vp(n * p)
    for m in range(0, n + 1):
        diff = tap.tap(binomial(n * p, p * m)) - binomial(n, m)
        second = p * m * binomial(n, m)
        report.instances += 1
        if ctx.vp(diff) < vnp:
            report.add_violation(
                {"m": m, "kind": "binom-diff"}, diff, n * p, ctx.vp(diff), vnp
            )
        if ctx.vp(second) < vnp:
            report.add_violation(
                {"m": m, "kind": "pm-binom"}, second, n * p, ctx.vp(second), vnp
            )
    return report
