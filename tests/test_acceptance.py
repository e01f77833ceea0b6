"""Acceptance suite: every criterion is exact pass/fail on big integers.

Each test prints one line so a full run reads as a checklist:

    pytest tests/test_acceptance.py -s
"""
import itertools
import json
import math

import pytest

from cyclopadic import congruences as cg
from cyclopadic import meixner as mx
from cyclopadic.cli import main
from cyclopadic.cycle_index import (
    coefficient,
    cycle_indicator,
    enumerate_cycle_types,
    partition_count,
)
from cyclopadic.padic import PadicContext, is_prime
from cyclopadic.polyring import UniPoly, substitute_univariate
from oracles import (
    cycle_indicator_direct,
    cycle_indicator_via_determinant,
    cycle_indicator_via_egf,
    meixner_by_integer_egf,
    meixner_by_rational_series,
    meixner_qstar_by_substitution,
)


def _announce(num, label, reports=None):
    count = sum(r.instances for r in reports) if reports else None
    suffix = f" ({count} instances)" if count is not None else ""
    print(f"ACCEPTANCE {num:2d}: PASS  {label}{suffix}")


def _assert_all_pass(reports):
    bad = [r for r in reports if not r.passed]
    assert not bad, "\n".join(r.to_json() for r in bad)


def _grid(primes, cap, r_lo=0):
    for p in primes:
        for n in itertools.count(1):
            if r_lo + n * p > cap:
                break
            for r in range(r_lo, p):
                if r + n * p <= cap:
                    yield p, n, r


def test_criterion_01_proposition_poly_sweep():
    reports = [
        cg.check_prop_poly(r, n, PadicContext(p))
        for p, n, r in _grid((3, 5, 7), 36)
    ]
    _assert_all_pass(reports)
    _announce(1, "C_{r+np} = (X1^p - Xp)^n C_r (mod n*p), grid r+np <= 36", reports)


def test_criterion_02_proposition_coeff_sweep():
    reports = []
    for p in (3, 5, 7):
        ctx = PadicContext(p)
        for n in range(1, 36 // p + 1):
            reports.append(cg.check_prop_coeff(n, ctx))
    _assert_all_pass(reports)
    _announce(2, "coefficient congruences mod n*p, np <= 36", reports)


def test_criterion_03_carlitz_baseline_and_implication():
    coeff_reports = []
    for p in (3, 5, 7):
        ctx = PadicContext(p)
        for n in range(1, 36 // p + 1):
            weak = cg.check_carlitz_coeff(n, ctx)
            strong = cg.check_prop_coeff(n, ctx)
            coeff_reports.append(weak)
            # mod-n*p pass must imply the mod-p pass, instance by instance
            weak_keys = {json.dumps(v["instance"]) for v in weak.violations}
            strong_keys = {json.dumps(v["instance"]) for v in strong.violations}
            assert weak_keys <= strong_keys
    poly_reports = [
        cg.check_carlitz_poly(r, n, PadicContext(p))
        for p, n, r in _grid((3, 5, 7), 36)
    ]
    _assert_all_pass(coeff_reports + poly_reports)
    _announce(3, "Carlitz baseline mod p + implication ladder",
              coeff_reports + poly_reports)


def test_criterion_04_corollary1_and_remark1():
    reports = []
    for p, n, r in _grid((3, 5), 32, r_lo=1):
        ctx = PadicContext(p)
        reports.append(cg.check_corollary1(r, n, ctx))
        reports.append(cg.check_remark1(r, n, ctx))
    _assert_all_pass(reports)
    _announce(4, "Corollary branches (a)/(b) + Remark, r+np <= 32", reports)


def test_criterion_05_corollary2_junod_conjecture():
    reports = []
    for p in (3, 5, 7, 11):
        ctx = PadicContext(p)
        reports.append(mx.check_junod_qp(ctx))
        for n in range(1, 66 // p + 1):
            reports.append(mx.check_corollary2(n, ctx))
            reports.append(mx.check_junod_qstar_q(n, ctx))
    _assert_all_pass(reports)
    _announce(5, "Q_{np} = Q_p^n = (X^p -(-1)^((p-1)/2) X)^n (mod np), np <= 66",
              reports)


def test_criterion_06_section2_identities():
    reports = []
    for p in (3, 5, 7):
        ctx = PadicContext(p)
        for m in range(0, 13):
            assert cg.report_gamma_identity(m, ctx).passed
        for n in range(1, 201):
            reports.append(cg.report_binomial_lift(n, ctx))
    for p in range(3, 201, 2):
        if not is_prime(p):
            continue
        ctx = PadicContext(p)
        for m in range(1, 200 // p + 1):
            reports.append(cg.report_gamma_congruence(m, ctx))
    for p in (3, 5, 7):
        ctx = PadicContext(p)
        for n in range(1, 13):
            reports.append(cg.check_formula_gamma_ratio(n, ctx))
    _assert_all_pass(reports)
    _announce(6, "factorial/Gamma identity, Gamma+1 bound, binomial lift, "
                 "Gamma ratio", reports)


def test_criterion_07_wilson_sharpness():
    ctx3 = PadicContext(3)
    for n in (3, 9):
        report = cg.check_wilson_sharpness(n, ctx3)
        assert report.passed and not report.params["wilson_prime"]
    for p in (5, 13):
        ctx = PadicContext(p)
        assert ctx.wilson_quotient_test()
        report = cg.check_wilson_sharpness(p, ctx)
        assert report.passed and report.params["wilson_prime"]
    _announce(7, "vp sharpness: +1 exactly off Wilson primes, >= +2 on them")


def test_criterion_08_cross_route_oracles():
    for n in range(0, 26):
        assert cycle_indicator(n) == cycle_indicator_direct(n)
    for m in range(1, 9):
        assert cycle_indicator_via_determinant(m) == cycle_indicator(m)
    for n in range(0, 13):
        assert cycle_indicator_via_egf(n) == cycle_indicator(n)
    for n in range(1, 26):
        total = sum(coefficient(ct) for ct in enumerate_cycle_types(n))
        assert total == math.factorial(n)
    x = UniPoly.x()
    for n in range(1, 16):
        collapsed = substitute_univariate(
            cycle_indicator(n), {i: x for i in range(1, n + 1)}
        )
        rising = UniPoly.constant(1)
        for k in range(n):
            rising = rising * (x + k)
        assert collapsed == rising
    for n in range(1, 8):
        tally = {}
        for perm in itertools.permutations(range(n)):
            seen = [False] * n
            m = [0] * n
            for start in range(n):
                if not seen[start]:
                    j, length = start, 0
                    while not seen[j]:
                        seen[j] = True
                        j = perm[j]
                        length += 1
                    m[length - 1] += 1
            tally[tuple(m)] = tally.get(tuple(m), 0) + 1
        for ct in enumerate_cycle_types(n):
            assert coefficient(ct) == tally[ct.m]
    _announce(8, "recurrence = direct = determinant = EGF; group-order and "
                 "rising-factorial checksums; permutation census")


def test_criterion_09_meixner_routes():
    qs, stars = meixner_by_rational_series(24)
    for n in range(0, 25):
        assert meixner_qstar_by_substitution(n) == mx.meixner_qstar(n) == stars[n]
        q = mx.meixner_q(n)
        assert q == qs[n] and q.degree() == n and q.coeffs[-1] == 1
    egf_q, egf_star = meixner_by_integer_egf(24)
    for n in range(0, 25):
        assert egf_q[n].to_json() == mx.meixner_q(n).to_json()
        assert egf_star[n].to_json() == mx.meixner_qstar(n).to_json()
    _announce(9, "Q* substitution = rational series = recurrence; Q integral+"
                 "monic; integer EGF byte-identical, n <= 24")


def test_criterion_10_junod_lemma_property():
    seed = 20230101
    reports = []
    for p in (3, 5):
        ctx = PadicContext(p)
        first = cg.junod_lemma_trials(500, seed, [ctx])[0]
        again = cg.junod_lemma_trials(500, seed, [ctx])[0]
        assert first.to_json() == again.to_json()
        assert first.seed == seed
        reports.append(first)
    _assert_all_pass(reports)
    _announce(10, "500 seeded random ring instances per prime, rerun-stable",
              reports)


@pytest.mark.parametrize(
    "checker,extra",
    [
        ("carlitz-coeff", []),
        ("carlitz-poly", []),
        ("prop-coeff", []),
        ("prop-poly", []),
        ("corollary1", []),
        ("remark1", []),
        ("junod-lemma", ["--trials", "5"]),
        ("gamma-identity", []),
        ("gamma-congruence", []),
        ("binomial-lift", []),
        ("gamma-ratio", []),
        ("wilson-sharpness", []),
        ("meixner-qstar-q", []),
        ("meixner-qp", []),
        ("corollary2", []),
    ],
)
def test_criterion_11_mutation_harness(checker, extra, tmp_path):
    out = tmp_path / "report.ndjson"
    clean = main(
        ["verify", checker, "--primes", "3", "--n-max", "2",
         "--degree-cap", "12", "--out", str(out)] + extra
    )
    assert clean == 0
    mutated = main(
        ["verify", checker, "--primes", "3", "--n-max", "2",
         "--degree-cap", "12", "--mutate", "0:1", "--out", str(out)] + extra
    )
    assert mutated == 1, f"{checker} failed to detect a perturbed coefficient"
    reports = [json.loads(line) for line in out.read_text().splitlines()]
    witnesses = [v for r in reports for v in r["violations"]]
    assert witnesses and all(
        v["observed_vp"] != v["required_vp"] or v["required_vp"] == "exact"
        for v in witnesses
    )
    if checker == "corollary2":
        _announce(11, "one detected mutation (with witness) per checker")


def test_criterion_12_thread_determinism(tmp_path):
    args = ["verify", "all", "--primes", "3,5", "--n-max", "2",
            "--degree-cap", "16", "--trials", "50"]
    out1 = tmp_path / "t1.ndjson"
    outn = tmp_path / "tn.ndjson"
    assert main(args + ["--threads", "1", "--out", str(out1)]) == 0
    assert main(args + ["--threads", "8", "--out", str(outn)]) == 0
    assert out1.read_bytes() == outn.read_bytes()
    _announce(12, "verify all: 1-thread and 8-thread reports byte-identical")


@pytest.mark.parametrize("p,n", [(11, 11), (5, 25), (3, 27)])
def test_criterion_13_meixner_where_p_divides_n(p, n):
    # mod np Z_p is mod p Z_p when p does not divide n; where it does, the
    # paper says more than the mod-p congruence: the modulus is p^(1+vp(n))
    ctx = PadicContext(p)
    reports = [mx.check_corollary2(n, ctx), mx.check_junod_qstar_q(n, ctx)]
    _assert_all_pass(reports)
    required = 1 + ctx.vp(n)
    assert all(ctx.vp(r.params["modulus"]) == required for r in reports)
    _announce(13, f"Q_np = Q_p^n and Q*_np = Q_np (mod {p}^{required}) at "
                  f"p = {p}, n = {n}", reports)


@pytest.mark.parametrize("p,n", [(7, 7), (11, 11), (5, 25), (3, 27)])
def test_criterion_14_coefficients_where_p_divides_n(p, n):
    # beyond the CLI's p(N) guard: the walk counts the classes that the
    # valuation bound clears, so instances are still all p(N) classes
    ctx = PadicContext(p)
    reports = [cg.check_prop_coeff(n, ctx), cg.check_carlitz_coeff(n, ctx)]
    if (p, n) == (7, 7):
        reports += [cg.check_corollary1(r, n, ctx) for r in range(1, 7)]
    elif (p, n) == (11, 11):
        reports.append(cg.check_corollary1(10, n, ctx))
    _assert_all_pass(reports)
    for report in reports:
        assert report.instances == partition_count(report.params.get("r", 0) + n * p)
    required = 1 + ctx.vp(n)
    assert ctx.vp(reports[0].params["modulus"]) == required
    _announce(14, f"coefficient congruences mod {p}^{required} over all "
                  f"p(N) classes at p = {p}, n = {n}", reports)
