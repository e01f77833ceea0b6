"""Executable checkers for the cycle-indicator congruences.

Each checker sweeps its full instance space exactly (no sampling, except the
explicitly seeded random lemma test) and returns a CongruenceReport whose
violations carry enough witness data to be actionable without a rerun.

Coefficient-level checkers recompute coefficients from the closed formula
rather than reading them out of the constructed polynomial, so the
coefficient checks and the polynomial builder fail independently.
carlitz-coeff, prop-coeff and corollary1 are one walk over the classes of
r + np from ``cycle_index.class_sizes``, the coefficient form of
C_{r+np} = (X_1^p + sign X_p)^n C_r: a class with m_1 + p*m_p >= np has
c = sign^m_p C(n, m_p) c_r(m_1 + p*m_p - np, m_2, .., m_r), every other class
c = 0. At r = 0 that is the Proposition (c_0 = 1 on the pure 1/p classes),
at 1 <= r <= p-1 Corollary 1. The walk reads m_1 and m_p from the pairs
(i, m_i), largest part first, and passes the class of r to
``cycle_index.class_size`` as pairs; it builds the dense multiplicity vector
only for a witness. The other checkers name single classes by their pairs.

The walk visits only the classes that a valuation bound does not clear: it
counts the rest as instances, each proved to expect 0 and to have a size
divisible by p^vp(modulus) (see ``_class_walk``). Where p | n that leaves
the n + 1 pure 1/p classes of prop-coeff, out of p(np). A subtree that
holds the ``--mutate`` index is visited, so every report, clean or
mutated, is the one a visit of all p(N) classes gives.

carlitz-poly and prop-poly compare C_N with (X_1^p -+ X_p)^n C_r mod
m*Z_p, and reduction mod q = p^vp(m) is a ring map, so residues decide the
compare exactly (``compare_indicator``). C_N mod q comes from the
division-free recurrence of ``cycle_index.cycle_indicator_mod``, and the
right-hand side, at most (n+1)*p(r) terms, is built over Z.
``polyring.congruence_witnesses`` decides the compare, as it does every
polynomial compare; a witness's residue difference c lifts to the exact one
as c + s - (s mod q), s the ``class_size`` of its class. A mutated compare
places its fault at the i-th term of C_N in graded revlex order, which
``_indicator_key`` unranks from partition counts: no compare builds C_N
over Z. The instances are still the p(N) terms of C_N, and the reports are
those of the exact compare.
"""
from __future__ import annotations

import random
import threading
from functools import lru_cache
from math import comb
from typing import Optional, Tuple

from .cycle_index import (
    class_size,
    class_sizes,
    cycle_indicator,
    cycle_indicator_mod,
    multiplicity_vector,
    partition_count,
)
from .padic import PadicContext, binomial, factorial
from .polyring import SLOT_BITS, MultiPoly, Poly, UniPoly, congruence_witnesses
from .reports import CongruenceReport


def n_star(n: int) -> int:
    """n/2 for even n, n for odd n: the sharpened modulus factor."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return n // 2 if n % 2 == 0 else n


def _perturb(poly: Poly, like: Poly, hit: Optional[Tuple[int, int]]) -> Poly:
    """poly, or for a report's hit (i, delta) poly plus delta at the place of
    like's i-th coefficient in witness order (the constant term if like is 0)."""
    if hit is None:
        return poly
    i, delta = hit
    if isinstance(poly, UniPoly):
        return poly + UniPoly([0] * i + [delta])
    terms = like.sorted_terms()
    return poly + MultiPoly.monomial(terms[i][0] if terms else (), delta)


def _add_witnesses(report: CongruenceReport, bad: list, modulus: int,
                   ctx: PadicContext, tag: str) -> None:
    """One violation per (place, difference, required vp) of bad, tagged
    with ``form`` if tag is given."""
    for place, c, req in bad:
        report.add_violation(dict(place, form=tag) if tag else place, c, modulus,
                             ctx, req)


def compare_polys(
    report: CongruenceReport,
    lhs: Poly,
    rhs: Poly,
    modulus: int,
    ctx: PadicContext,
    tag: str = "",
) -> None:
    """Compare two MultiPolys or two UniPolys coefficientwise mod modulus*Z_p.

    Counts the longer operand's coefficients as instances and adds one
    violation per coefficient that differs, tagged with ``form`` if given.
    """
    size = len if isinstance(lhs, MultiPoly) else (lambda u: len(u.coeffs))
    longer = lhs if size(lhs) >= size(rhs) else rhs
    hit = report.count(size(longer))
    _add_witnesses(report, congruence_witnesses(_perturb(lhs, longer, hit), rhs,
                                                modulus, ctx), modulus, ctx, tag)


@lru_cache(maxsize=None)
def _partitions_into(s: int, c: int, j: int) -> int:
    """The number of partitions of s into exactly c parts, each at most j:
    those with no part j, and those with one part j more than a partition
    of s - j into c - 1 parts."""
    if c <= 0 or s < c or s > c * j:
        return int(s == c == 0)
    return _partitions_into(s, c, j - 1) + _partitions_into(s - j, c - 1, j)


def _indicator_key(n: int, i: int) -> int:
    """The key of C_n's i-th term in witness order (graded revlex), for
    0 <= i < p(n): more cycles first, then ascending (m_n, ..., m_2).

    A block of c cycles holds _partitions_into(n, c, n) classes, and the
    classes of s into c parts <= j with m_j = x come before those with
    m_j = x + 1, _partitions_into(s - x*j, c - x, j - 1) of them.
    """
    c = n
    while i >= (count := _partitions_into(n, c, n)):
        i -= count
        c -= 1
    key, s = c, n
    for j in range(n, 1, -1):
        x = 0
        while i >= (count := _partitions_into(s - x * j, c - x, j - 1)):
            i -= count
            x += 1
        key += x << SLOT_BITS * j
        s -= x * j
        c -= x
    return key + (c << SLOT_BITS)


def compare_indicator(
    report: CongruenceReport,
    n: int,
    rhs: MultiPoly,
    modulus: int,
    ctx: PadicContext,
    tag: str = "",
    clean: Optional[list] = None,
) -> Optional[list]:
    """``compare_polys(report, cycle_indicator(n), rhs, modulus, ctx, tag)``
    for a rhs whose terms are classes of n, decided on residues.

    Reduction mod q = p^vp(modulus) is a ring map, so C_n and rhs agree mod
    modulus*Z_p at a class exactly where ``cycle_indicator_mod(n, q)`` and
    rhs do, and ``congruence_witnesses`` decides that. C_n's p(n) terms are
    counted as instances; a nonzero mutation delta is added to the residues
    at the key of C_n's i-th term in witness order, ``_indicator_key(n, i)``.
    A witness's residue is s mod q (+ delta), s = ``class_size(n, class)``,
    so c + s - (s mod q) lifts its difference c to the exact one.
    ``clean``, what an earlier call on the same n, rhs and modulus returned,
    is taken for the witnesses unless the mutation lands here. Returns the
    witnesses of the unperturbed operands, or None if the mutation landed
    here.
    """
    hit = report.count(partition_count(n))
    if hit is None and clean is not None:
        bad = clean
    else:
        q = ctx.p ** ctx.vp(modulus)
        lhs = cycle_indicator_mod(n, q)
        if hit and hit[1]:
            lhs += MultiPoly({_indicator_key(n, hit[0]): hit[1]}, _raw=True)
        bad = []
        for place, c, req in congruence_witnesses(lhs, rhs, modulus, ctx):
            s = class_size(n, enumerate(place["exponents"], 1))
            bad.append((place, c + s - s % q, req))
    _add_witnesses(report, bad, modulus, ctx, tag)
    return None if hit else bad


_vp_lock = threading.Lock()
# p -> [vp(0!), vp(1!), ...], grown in place
_factorial_vps: dict = {}


def _factorial_valuations(p: int, n: int) -> list:
    """[vp(0!), vp(1!), ..., vp(n!)] and perhaps more: one list per p, shared
    by every call and grown as needed."""
    vps = _factorial_vps.get(p)
    if vps is None or n >= len(vps):
        with _vp_lock:
            vps = _factorial_vps.setdefault(p, [0])
            for m in range(len(vps), n + 1):
                v, k = vps[-1], m
                while not k % p:
                    k //= p
                    v += 1
                vps.append(v)
    return vps


def _class_walk(
    name: str,
    r: int,
    n: int,
    ctx: PadicContext,
    modulus: int,
    sign: int,
    branches: tuple,
    mutation: Optional[Tuple[int, int]],
) -> CongruenceReport:
    """Every class of N = r + np against its expected coefficient, mod modulus.

    A class with m_1 + p*m_p >= np takes the first branch label and expects
    sign^m_p * C(n, m_p) * c_r(m_1 + p*m_p - np, m_2, .., m_r); any other
    class takes the second and expects 0.

    The walk counts the classes below a node of ``class_sizes`` (pairs pi of
    parts >= k and a rest R to fill with parts below k), without visiting
    them, when it proves that each expects 0 and has a size divisible by
    p^req. ``report.skip`` refuses a node that holds the mutation index,
    and the walk goes down into it. A class below is pi plus a class rho of
    R, so z = z_pi * z_rho, and its size N!/z is N!/(z_pi * R!) times the
    integer R!/z_rho: its vp is at least vp(N!) - vp(z_pi) - vp(R!), which
    at R = 0 is exact. Its parts other than 1 and p sum to at least those of
    pi; past r, the class takes the second branch.

    That sum is tested first, in a plain loop. The bound is at least req
    exactly when vp(z_pi) <= vp(N!) - vp(R!) - req, that is when
    p^(vp(N!) - vp(R!) - req + 1) does not divide z_pi: one remainder per
    node, with the powers computed once per walk for every R and vp(m!) read
    from ``_factorial_valuations``.
    """
    p = ctx.p
    params = {"p": p, "n": n, "modulus": modulus}
    if r:
        params["r"] = r
    report = CongruenceReport(name, params, mutation=mutation)
    req = ctx.vp(modulus)
    q = p**req
    a, b = branches
    big_n = r + n * p
    vfact = _factorial_valuations(p, big_n)
    # where vp(N!) - vp(R!) - req is negative no z passes, and z % 1 is 0
    divisor = [p ** max(vfact[big_n] - vfact[rest] - req + 1, 0)
               for rest in range(big_n + 1)]

    def clears(pairs, z, rest, count):
        s = 0
        for i, x in pairs:
            if i != 1 and i != p:
                s += i * x
        return s > r and z % divisor[rest] != 0 and report.skip(count)

    for parts, c in class_sizes(big_n, clears):
        c = report.tap(c)
        # the first branch leaves the parts other than 1 and p a sum of at
        # most r < p, so it needs a largest part k <= p; k = p has m_p <= n
        k, mp = parts[0]
        expected = 0
        if k <= p:
            if k < p:
                mp = 0
            i, m1 = parts[-1]
            if i != 1:
                m1 = 0
            if m1 >= p * (n - mp):
                rest = [(i, x) for i, x in parts if 1 < i < p]
                cr = class_size(r, [(1, m1 + p * (mp - n)), *rest])
                expected = sign**mp * binomial(n, mp) * cr
        diff = c - expected
        if diff % q:
            # the first branch expects a nonzero value: C(n, m_p), c_r > 0
            report.add_violation(
                {"cycle_type": multiplicity_vector(big_n, parts),
                 "branch": a if expected else b},
                diff,
                modulus,
                ctx,
                req,
            )
    return report


def check_carlitz_coeff(
    n: int, ctx: PadicContext, mutation: Optional[Tuple[int, int]] = None
) -> CongruenceReport:
    """Carlitz's coefficient congruence mod p over all cycle types of np."""
    return _class_walk("carlitz-coeff", 0, n, ctx, ctx.p, -1, (1, 2), mutation)


def check_prop_coeff(
    n: int, ctx: PadicContext, mutation: Optional[Tuple[int, int]] = None
) -> CongruenceReport:
    """Strengthened coefficient congruences mod n*p over all cycle types of np."""
    return _class_walk(
        "prop-coeff", 0, n, ctx, n_star(n) * ctx.p, (-1) ** ctx.p, (1, 2), mutation
    )


def _poly_congruence_report(
    name: str,
    r: int,
    n: int,
    ctx: PadicContext,
    mutation: Optional[Tuple[int, int]],
    strengthened: bool,
) -> CongruenceReport:
    """Carlitz's form mod p, or the strengthened one mod n*p and its signed
    variant."""
    if r < 0 or n < 1:
        raise ValueError("need r >= 0 and n >= 1")
    p = ctx.p
    modulus = n_star(n) * p if strengthened else p
    report = CongruenceReport(
        name, {"p": p, "n": n, "r": r, "modulus": modulus}, mutation=mutation
    )
    big_n = r + n * p
    cr = cycle_indicator(r)
    x1p = MultiPoly.variable(1) ** p
    xp = MultiPoly.variable(p)
    rhs = (x1p - xp) ** n * cr
    clean = compare_indicator(report, big_n, rhs, modulus, ctx)
    if strengthened:
        if p % 2:  # X_1^p + (-1)^p X_p is X_1^p - X_p: the same compare again
            compare_indicator(report, big_n, rhs, modulus, ctx, tag="signed",
                              clean=clean)
        else:
            rhs2 = (x1p + xp) ** n * cr
            compare_indicator(report, big_n, rhs2, modulus, ctx, tag="signed")
    return report


def check_carlitz_poly(
    r: int, n: int, ctx: PadicContext, mutation: Optional[Tuple[int, int]] = None
) -> CongruenceReport:
    """Carlitz: C_{r+np} = (X_1^p - X_p)^n C_r (mod p Z_p[X])."""
    return _poly_congruence_report("carlitz-poly", r, n, ctx, mutation, False)


def check_prop_poly(
    r: int, n: int, ctx: PadicContext, mutation: Optional[Tuple[int, int]] = None
) -> CongruenceReport:
    """Strengthened form mod n*p, plus the (X_1^p + (-1)^p X_p)^n variant."""
    return _poly_congruence_report("prop-poly", r, n, ctx, mutation, True)


def check_corollary1(
    r: int, n: int, ctx: PadicContext, mutation: Optional[Tuple[int, int]] = None
) -> CongruenceReport:
    """Both branches of the corollary over all cycle types of r+np, mod n*p."""
    if not 1 <= r <= ctx.p - 1:
        raise ValueError("corollary requires 1 <= r <= p-1")
    return _class_walk(
        "corollary1", r, n, ctx, n_star(n) * ctx.p, (-1) ** ctx.p, ("a", "b"),
        mutation,
    )


def check_remark1(
    r: int, n: int, ctx: PadicContext, mutation: Optional[Tuple[int, int]] = None
) -> CongruenceReport:
    """c_{r+np}(m_1,..,m_p,..) = c_{np}(m_1-r,..,m_p,..) (mod n*p) on 1/p classes."""
    p = ctx.p
    if not 1 <= r <= p - 1:
        raise ValueError("remark requires 1 <= r <= p-1")
    modulus = n_star(n) * p
    report = CongruenceReport(
        "remark1", {"p": p, "n": n, "r": r, "modulus": modulus},
        mutation=mutation,
    )
    req = ctx.vp(modulus)
    q = p**req
    for mp in range(0, n + 1):
        m1 = r + n * p - p * mp
        lhs = report.tap(class_size(r + n * p, ((p, mp), (1, m1))))
        rhs = class_size(n * p, ((p, mp), (1, m1 - r)))
        diff = lhs - rhs
        if diff % q:
            report.add_violation({"m1": m1, "mp": mp}, diff, modulus, ctx, req)
    return report


def _junod_draws(rng: random.Random) -> tuple:
    """One trial's draws, the same at every p: the terms of a and gamma, the
    k of m = p*k and the exponent n.

    Each integer is ``rng.randint``'s for its range, drawn by randint's own
    rule: bits of the width's bit length, drawn again until below the width.
    The widths are constants: 3 (2 bits) for a term count, a variable count
    and an exponent, 11 (4 bits) for a coefficient in -5..5, 20 (5 bits) for
    k and 12 (4 bits) for n.
    """
    bits = rng.getrandbits
    alpha, gamma = {}, {}
    for terms in (alpha, gamma):  # 1 to 3 terms in up to 3 variables
        while (count := bits(2)) > 2:
            pass
        for _ in range(count + 1):
            while (length := bits(2)) > 2:
                pass
            e = []
            for _ in range(length + 1):
                while (x := bits(2)) > 2:
                    pass
                e.append(x)
            while (c := bits(4)) > 10:
                pass
            key = tuple(e)
            terms[key] = terms.get(key, 0) + c - 5
    while (k := bits(5)) > 19:
        pass
    while (n := bits(4)) > 11:
        pass
    return alpha, gamma, k + 1, n + 1


def _row_vanishes(n: int, moduli: dict) -> bool:
    """Whether C(n, j)*m^j = 0 (mod q) for every j = 1..n, at each prime's
    q -> m.

    For b = a + m*gamma, b^n - a^n is the sum over j = 1..n of
    C(n, j)*m^j a^(n-j) gamma^j, so where every term of that row is 0 mod q,
    a^n = b^n (mod q) holds for every a and gamma: the row vanishes exactly
    where the universal instance (A + m*G)^n = A^n (mod q) holds.
    """
    return all(comb(n, j) * pow(m, j, q) % q == 0
               for q, m in moduli.items() for j in range(1, n + 1))


def junod_lemma_trials(
    trials: int,
    seed: int,
    ctxs: list,
    mutation: Optional[Tuple[int, int]] = None,
) -> list:
    """Randomized lemma test: m in pZ, a = b (mod m) implies a^n = b^n (mod
    mn), at every prime of ctxs: one report per prime, in the order of ctxs.

    Instances live in the commutative ring Z[X_1,X_2,X_3], one per trial. A
    trial draws a, gamma, k and n once, and at each p compares a^n with b^n,
    b = a + m*gamma and m = p*k, mod m*n, which their residues mod q_p =
    p^vp(m*n) decide. By the binomial theorem the row of ``_row_vanishes``
    for (k, n) decides them all, once per (k, n) of the run: vp(C(n, j)*m^j)
    >= vp(m*n) for every j >= 1 and p | m, so the row vanishes and no
    polynomial is built. Only a trial whose row does not vanish (a context
    that asks more than the lemma gives) or that the mutation names builds
    a^n and each b^n over Z, and is decided prime by prime on those exact
    operands; a mutation perturbs the leading term of its a^n. The seed is
    recorded so any run is reproducible.
    """
    rng = random.Random(seed)
    reports = [
        CongruenceReport("junod-lemma", {"p": ctx.p, "trials": trials}, seed=seed,
                         mutation=mutation)
        for ctx in ctxs
    ]
    hits = [report.count(trials) for report in reports]  # the same at every p
    mutated, delta = hits[0] if hits and hits[0] else (-1, 0)
    rows: dict = {}  # (k, n) -> whether its row vanishes
    for trial in range(trials):
        alpha_terms, gamma_terms, k, n = _junod_draws(rng)
        vanishes = rows.get((k, n))
        if vanishes is None:
            vanishes = rows[k, n] = _row_vanishes(
                n, {ctx.p ** ctx.vp(ctx.p * k * n): ctx.p * k for ctx in ctxs})
        if vanishes and trial != mutated:
            continue
        alpha, gamma = MultiPoly(alpha_terms), MultiPoly(gamma_terms)
        power = alpha**n
        if trial == mutated:
            power = _perturb(power, power, (0, delta))
        for ctx, report in zip(ctxs, reports):
            m = ctx.p * k
            bad = congruence_witnesses(power, (alpha + m * gamma) ** n, m * n, ctx)
            for place, c, req in bad[:1]:
                report.add_violation(dict(place, trial=trial, m=m, n=n), c, m * n,
                                     ctx, req)
    return reports


def check_formula_gamma_ratio(
    n: int, ctx: PadicContext, mutation: Optional[Tuple[int, int]] = None
) -> CongruenceReport:
    """Exact Gamma-ratio identity for pure 1/p classes, plus equal valuations.

    c_np(m_1,0,..,m_p,..) = (-1)^(p*m_p) C(n,m_p) Gamma_p(np+1)/Gamma_p(m_1+1)
    as integers, and vp(c_np) = vp(C(n,m_p)).
    """
    p = ctx.p
    report = CongruenceReport("gamma-ratio", {"p": p, "n": n}, mutation=mutation)
    for mp in range(0, n + 1):
        m1 = n * p - p * mp
        c = report.tap(class_size(n * p, ((p, mp), (1, m1))))
        ratio = ctx.morita_gamma_ratio(n * p + 1, m1 + 1)
        expected = (-1) ** (p * mp) * binomial(n, mp) * ratio
        if c != expected:
            report.add_violation(
                {"mp": mp, "m1": m1, "kind": "exact-identity"},
                c - expected,
                0,
                ctx,
                "exact",
            )
        elif ctx.vp(c) != ctx.vp(binomial(n, mp)):
            report.add_violation(
                {"mp": mp, "m1": m1, "kind": "valuation"},
                c,
                0,
                ctx,
                ctx.vp(binomial(n, mp)),
            )
    return report


def check_wilson_sharpness(
    n: int, ctx: PadicContext, mutation: Optional[Tuple[int, int]] = None
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
        "wilson-sharpness", {"p": p, "n": n, "wilson_prime": wilson},
        mutation=mutation,
    )
    c = report.tap(class_size(n * p, ((p, 1), (1, n * p - p))))
    d = c - (-1) ** p * n
    v = ctx.vp(d)
    vn = ctx.vp(n)
    if wilson and not v >= vn + 2:
        report.add_violation({"mp": 1, "kind": "wilson-prime-bound"}, d, 0, ctx, vn + 2)
    elif not wilson and v != vn + 1:
        report.add_violation({"mp": 1, "kind": "sharpness"}, d, 0, ctx, vn + 1)
    return report


# -- the scalar p-adic identities ------------------------------------------


def report_gamma_identity(
    m: int, ctx: PadicContext, mutation: Optional[Tuple[int, int]] = None
) -> CongruenceReport:
    """Exact factorial/Gamma identity (mp)! = (-1)^(pm+1) Gamma_p(pm+1) m! p^m."""
    if m < 0:
        raise ValueError("m must be >= 0")
    p = ctx.p
    report = CongruenceReport("gamma-identity", {"p": p, "m": m}, mutation=mutation)
    lhs = report.tap(factorial(m * p))
    rhs = (-1) ** (p * m + 1) * ctx.morita_gamma(p * m + 1) * factorial(m) * p**m
    if lhs != rhs:
        report.add_violation({"m": m}, lhs - rhs, 0, ctx, "exact")
    return report


def report_gamma_congruence(
    m: int, ctx: PadicContext, mutation: Optional[Tuple[int, int]] = None
) -> CongruenceReport:
    """Valuation bound on Gamma_p(pm+1) + 1."""
    p = ctx.p
    report = CongruenceReport("gamma-congruence", {"p": p, "m": m}, mutation=mutation)
    g1 = report.tap(ctx.morita_gamma(p * m + 1) + 1)
    required = ctx.vp(p * m) - ctx.vp(2)
    if ctx.vp(g1) < required:
        report.add_violation({"m": m}, g1, p * m, ctx, required)
    return report


def report_binomial_lift(
    n: int, ctx: PadicContext, mutation: Optional[Tuple[int, int]] = None
) -> CongruenceReport:
    """Both binomial lifting congruences for all m in [0, n]."""
    p = ctx.p
    report = CongruenceReport("binomial-lift", {"p": p, "n": n}, mutation=mutation)
    vnp = ctx.vp(n * p)
    for m in range(0, n + 1):
        diff = report.tap(binomial(n * p, p * m)) - binomial(n, m)
        second = p * m * binomial(n, m)
        for kind, value in (("binom-diff", diff), ("pm-binom", second)):
            if ctx.vp(value) < vnp:
                report.add_violation({"m": m, "kind": kind}, value, n * p, ctx, vnp)
    return report
