import json
import math
import pickle
import random

import pytest

from cyclopadic import congruences as cg
from cyclopadic import cycle_index as ci
from cyclopadic.cli import CHECKER_TABLE, UsageError, build_all_tasks, verify_spec
from cyclopadic.cycle_index import (
    CycleType,
    class_size,
    class_sizes,
    coefficient,
    enumerate_cycle_types,
    multiplicity_vector,
    partition_count,
)
from cyclopadic.padic import PadicContext
from cyclopadic.polyring import MultiPoly, congruence_witnesses
from cyclopadic.reports import CongruenceReport
from oracles import power_mod


@pytest.fixture(scope="module")
def ctx3():
    return PadicContext(3)


@pytest.fixture(scope="module")
def ctx5():
    return PadicContext(5)


class _Stricter(PadicContext):
    """A context that asks one more power of p than the lemma gives."""

    def vp(self, x):
        return super().vp(x) + 1


class TestNStar:
    def test_values(self):
        assert cg.n_star(1) == 1
        assert cg.n_star(2) == 1
        assert cg.n_star(3) == 3
        assert cg.n_star(4) == 2

    def test_doubling_invariant(self):
        for n in range(1, 50):
            assert 2 * cg.n_star(n) in (n, 2 * n)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            cg.n_star(0)


class TestCarlitz:
    def test_coeff_hand_values_p3_n1(self, ctx3):
        # the three cycle types of S_3: checked by hand in both branches
        assert class_size(3, ((3, 1),)) == 2  # 2 = -C(1,1) mod 3
        assert class_size(3, ((2, 1), (1, 1))) == 3  # else branch, 0 mod 3
        assert class_size(3, ((1, 3),)) == 1  # (-1)^0 C(1,0)
        assert cg.check_carlitz_coeff(1, ctx3).passed

    @pytest.mark.parametrize("n", range(1, 6))
    def test_coeff_sweep(self, n, ctx3):
        assert cg.check_carlitz_coeff(n, ctx3).passed

    def test_poly_r0_n1(self, ctx3):
        # C_3 - (X_1^3 - X_3) = 3 X_1 X_2 + 3 X_3, divisible by 3
        assert cg.check_carlitz_poly(0, 1, ctx3).passed

    def test_poly_p2(self):
        assert cg.check_carlitz_poly(1, 1, PadicContext(2)).passed

    def test_poly_invalid_args(self, ctx3):
        with pytest.raises(ValueError):
            cg.check_carlitz_poly(-1, 1, ctx3)
        with pytest.raises(ValueError):
            cg.check_carlitz_poly(0, 0, ctx3)


class TestProposition:
    def test_coeff_n2_equals_carlitz_modulus(self, ctx3):
        report = cg.check_prop_coeff(2, ctx3)
        assert report.passed and report.params["modulus"] == 3

    def test_coeff_n3_modulus9(self, ctx3):
        report = cg.check_prop_coeff(3, ctx3)
        assert report.passed and report.params["modulus"] == 9
        assert report.instances == 30  # p(9) cycle types

    def test_coeff_sign_example_p5_n5(self, ctx5):
        # class m_5=1, m_1=20: c = -5 = (-1)^5 C(5,1) (mod 25)
        c = class_size(25, ((5, 1), (1, 20)))
        assert (c + 5) % 25 == 0
        assert cg.check_prop_coeff(5, ctx5).passed

    def test_poly_examples(self, ctx3):
        assert cg.check_prop_poly(0, 2, ctx3).passed
        assert cg.check_prop_poly(1, 3, ctx3).passed

    def test_poly_n1_agrees_with_carlitz(self, ctx5):
        a = cg.check_prop_poly(2, 1, ctx5)
        b = cg.check_carlitz_poly(2, 1, ctx5)
        assert a.params["modulus"] == b.params["modulus"] == 5
        assert a.passed == b.passed

    def test_implication_ladder(self, ctx3):
        # anything passing mod n*p must pass mod p: compare violation sets
        for n in (2, 3, 4):
            strong = cg.check_prop_coeff(n, ctx3)
            weak = cg.check_carlitz_coeff(n, ctx3)
            strong_keys = {str(v["instance"]) for v in strong.violations}
            weak_keys = {str(v["instance"]) for v in weak.violations}
            assert weak_keys <= strong_keys

    def test_sign_conventions_agree_for_odd_p(self):
        for p in (3, 5, 7, 11):
            for mp in range(6):
                assert (-1) ** mp == (-1) ** (p * mp)


class TestCorollary1:
    def test_hand_values_p3_n1_r1(self, ctx3):
        assert class_size(4, ((1, 4),)) == 1
        assert class_size(4, ((3, 1), (1, 1))) == 8  # = -1 mod 3
        assert class_size(4, ((2, 2),)) == 3  # branch (b), 0 mod 3
        assert cg.check_corollary1(1, 1, ctx3).passed

    @pytest.mark.parametrize("p,r,n", [(3, 1, 2), (3, 2, 3), (5, 1, 1), (5, 4, 2)])
    def test_sweeps(self, p, r, n):
        assert cg.check_corollary1(r, n, PadicContext(p)).passed

    def test_r_out_of_range(self, ctx3):
        with pytest.raises(ValueError):
            cg.check_corollary1(0, 1, ctx3)
        with pytest.raises(ValueError):
            cg.check_corollary1(3, 1, ctx3)


class TestRemark1:
    def test_mp_zero_is_trivial(self, ctx3):
        report = cg.check_remark1(1, 1, ctx3)
        assert report.passed

    @pytest.mark.parametrize("p,r,n", [(3, 1, 2), (3, 2, 4), (5, 2, 2), (5, 3, 3)])
    def test_sweeps(self, p, r, n):
        assert cg.check_remark1(r, n, PadicContext(p)).passed

    def test_example_p3_n2_r1(self, ctx3):
        lhs = class_size(7, ((3, 1), (1, 4)))
        rhs = class_size(6, ((3, 1), (1, 3)))
        assert (lhs - rhs) % 3 == 0
        assert cg.check_remark1(1, 2, ctx3).passed


class TestJunodLemma:
    def test_binomial_expansion_case(self, ctx3):
        # (X+3)^3 - X^3 = 9X^2 + 27X + 27, all coefficients in 9Z
        from cyclopadic.polyring import MultiPoly, congruent_mod

        x = MultiPoly.variable(1)
        ok, _ = congruent_mod((x + 3) ** 3, x**3, 9, ctx3)
        assert ok

    def test_seeded_run_stable(self, ctx3):
        a = cg.junod_lemma_trials(50, 1234, [ctx3])[0]
        b = cg.junod_lemma_trials(50, 1234, [ctx3])[0]
        assert a.passed and b.passed
        assert a.to_json() == b.to_json()
        assert a.seed == 1234

    def test_500_trials(self, ctx3, ctx5):
        assert cg.junod_lemma_trials(500, 0, [ctx3])[0].passed
        assert cg.junod_lemma_trials(500, 0, [ctx5])[0].passed

    @pytest.mark.parametrize("index", [None, 0, 12, 13, 39, 40])
    def test_primes_at_once_are_the_one_prime_runs(self, index):
        # a run at three primes at once gives each prime the report of a run
        # at that prime alone, clean or mutated at trial index
        ctxs = [PadicContext(p) for p in (3, 5, 7)]
        mutation = None if index is None else (index, 1)
        alone = [cg.junod_lemma_trials(40, 9, [ctx], mutation)[0] for ctx in ctxs]
        hit = [index] if index is not None and index < 40 else []
        assert [[v["instance"]["trial"] for v in r.violations] for r in alone] == [hit] * 3
        together = cg.junod_lemma_trials(40, 9, ctxs, mutation)
        assert [r.to_json() for r in together] == [r.to_json() for r in alone]

    def test_only_a_failing_trial_builds_exact_witnesses(self, monkeypatch):
        # the binomial row decides a trial; the exact compare runs only for a
        # trial that fails, once at each prime
        ctxs = [PadicContext(p) for p in (3, 5, 7, 11)]
        calls = []
        witnesses = cg.congruence_witnesses
        monkeypatch.setattr(
            cg, "congruence_witnesses",
            lambda a, b, m, ctx: calls.append(ctx.p) or witnesses(a, b, m, ctx),
        )
        reports = cg.junod_lemma_trials(60, 2, ctxs)
        assert calls == [] and all(r.passed for r in reports)
        for index in (0, 17, 59):
            calls.clear()
            reports = cg.junod_lemma_trials(60, 2, ctxs, (index, 1))
            assert calls == [3, 5, 7, 11]
            assert [[v["instance"]["trial"] for v in r.violations]
                    for r in reports] == [[index]] * 4

    def test_a_clean_run_builds_no_polynomial(self, monkeypatch):
        # every row of a clean run vanishes, so no MultiPoly is built and none
        # is raised to a power; a mutated trial builds its exact operands
        built, powered = [], []
        init, power = MultiPoly.__init__, MultiPoly.__pow__
        monkeypatch.setattr(MultiPoly, "__init__",
                            lambda *a, **kw: built.append(1) or init(*a, **kw))
        monkeypatch.setattr(MultiPoly, "__pow__",
                            lambda *a: powered.append(1) or power(*a))
        ctxs = [PadicContext(p) for p in (3, 5, 7)]
        reports = cg.junod_lemma_trials(500, 0, ctxs)
        assert all(r.passed and r.instances == 500 for r in reports)
        assert (built, powered) == ([], [])
        cg.junod_lemma_trials(500, 0, ctxs, (250, 1))
        assert built and len(powered) == 1 + len(ctxs)

    def test_a_delta_that_some_q_p_divide_holds_at_those_p_alone(self):
        # a mutated trial skips the binomial row and is decided prime by
        # prime: a delta that is a multiple of some q_p's holds at exactly
        # those p
        primes = (3, 5, 7)
        ctxs = [PadicContext(p) for p in primes]
        rng = random.Random(11)
        for trial in range(24):
            _, _, k, n = cg._junod_draws(rng)
            q = {p: p ** ctx.vp(p * k * n) for p, ctx in zip(primes, ctxs)}
            for held in [(3,), (5,), (7,), (3, 5), (3, 5, 7)]:
                delta = math.prod(q[p] for p in held)
                reports = cg.junod_lemma_trials(24, 11, ctxs, (trial, delta))
                for p, report in zip(primes, reports):
                    assert report.instances == 24
                    flagged = [v["instance"]["trial"] for v in report.violations]
                    assert flagged == ([] if p in held else [trial])

    def test_the_combined_compare_fails_at_one_prime(self, monkeypatch):
        # a context that asks one more power of 5 than the lemma gives makes
        # real failures at 5 alone: no row vanishes, every trial is decided on
        # its exact operands, and exactly the trials whose a^n - b^n misses
        # 5^(e+1) reach the report at 5
        powered = []
        power = MultiPoly.__pow__
        monkeypatch.setattr(MultiPoly, "__pow__",
                            lambda *a: powered.append(1) or power(*a))
        ctxs = [PadicContext(3), _Stricter(5), PadicContext(7)]
        reports = cg.junod_lemma_trials(40, 6, ctxs)
        assert powered
        five = PadicContext(5)
        rng, expected = random.Random(6), []
        for trial in range(40):
            alpha_terms, gamma_terms, k, n = cg._junod_draws(rng)
            alpha = MultiPoly(alpha_terms)
            diff = alpha**n - (alpha + 5 * k * MultiPoly(gamma_terms)) ** n
            if any(five.vp(c) <= five.vp(5 * k * n) for c in diff.terms.values()):
                expected.append(trial)
        assert 0 < len(expected) < 40
        assert reports[0].passed and reports[2].passed
        assert [v["instance"]["trial"] for v in reports[1].violations] == expected

    @pytest.mark.parametrize("stricter", [False, True], ids=["exact", "stricter"])
    def test_the_row_decides_as_the_compare_mod_q(self, stricter):
        # on every trial of seeds 0..9, a vanishing binomial row implies the
        # compare pow(a, n, Q) == pow(a + M*gamma, n, Q) that decided every
        # trial before it, with Q and M built here prime by prime (Garner's
        # CRT). Every row vanishes at the exact contexts; none does at the
        # stricter one, where j = 1 gives C(n, 1)*m = m*n, so every trial is
        # decided on its exact operands. The reports flag exactly the trials
        # that fail the compare (every seed at the exact contexts; seed 0 at
        # the stricter one)
        primes = (2, 3, 5, 7, 11, 13)
        ctxs = [_Stricter(p) if stricter and p == 5 else PadicContext(p)
                for p in primes]
        for seed in range(10):
            rng, failed = random.Random(seed), []
            for trial in range(500):
                alpha_terms, gamma_terms, k, n = cg._junod_draws(rng)
                big_q, big_m = 1, 0
                for ctx in ctxs:
                    q = ctx.p ** ctx.vp(ctx.p * k * n)
                    big_m += big_q * ((ctx.p * k - big_m) * pow(big_q, -1, q) % q)
                    big_q *= q
                moduli = {ctx.p ** ctx.vp(ctx.p * k * n): ctx.p * k for ctx in ctxs}
                assert cg._row_vanishes(n, moduli) != stricter
                alpha, gamma = MultiPoly(alpha_terms), MultiPoly(gamma_terms)
                if (power_mod(alpha, n, big_q)
                        != power_mod(alpha + big_m * gamma, n, big_q)):
                    failed.append(trial)
            assert (failed != []) == stricter
            if seed and stricter:
                continue
            reports = cg.junod_lemma_trials(500, seed, ctxs)
            flagged = [[v["instance"]["trial"] for v in r.violations] for r in reports]
            assert flagged == [failed if p == 5 else [] for p in primes]

    def test_the_row_is_the_universal_instance(self):
        # for m = p*k, (A + m*G)^n = A^n (mod q = p^vp(m*n)) in Z[A, G] holds
        # exactly where the row vanishes, since its terms are C(n, j)*m^j
        # A^(n-j) G^j. It holds at all 1,440 points p <= 13, k <= 20, n <= 12
        # that the trials draw from; with m = 1, 2 or 4 at p = 3, which p does
        # not divide, and n = 3 or 9, the row does not vanish and neither
        # does the polynomial compare hold
        a, g = MultiPoly.variable(1), MultiPoly.variable(2)

        def row_and_compare(p, m, n):
            q = p ** PadicContext(p).vp(m * n)
            compare = power_mod(a, n, q) == power_mod(a + m * g, n, q)
            return cg._row_vanishes(n, {q: m}), compare

        points = [(p, p * k, n) for p in (2, 3, 5, 7, 11, 13)
                  for k in range(1, 21) for n in range(1, 13)]
        assert len(points) == 1440
        assert all(row_and_compare(*point) == (True, True) for point in points)
        for m in (1, 2, 4):
            for n in (3, 9):
                assert row_and_compare(3, m, n) == (False, False)

    def test_draws_follow_randint(self):
        # the getrandbits draw is randint's, and leaves the stream where
        # randint does: every width _junod_draws uses, 1 and powers of 2
        ranges = [(1, 3), (0, 2), (-5, 5), (1, 20), (1, 12), (4, 4), (0, 0),
                  (0, 1), (-2, 1), (1, 8), (-8, 7), (0, 1023), (3, 2**40 + 2)]
        for seed in range(250):
            ours, theirs = random.Random(seed), random.Random(seed)
            for lo, hi in ranges * 3:
                assert cg._randint(ours.getrandbits, lo, hi) == theirs.randint(lo, hi)
            assert ours.getstate() == theirs.getstate()

    def test_trial_draws_are_the_randint_stream(self):
        def randint_draws(rng):
            polys = []
            for _ in range(2):
                terms = {}
                for _ in range(rng.randint(1, 3)):
                    e = tuple(rng.randint(0, 2) for _ in range(rng.randint(1, 3)))
                    terms[e] = terms.get(e, 0) + rng.randint(-5, 5)
                polys.append(terms)
            return (*polys, rng.randint(1, 20), rng.randint(1, 12))

        for seed in range(200):
            ours, theirs = random.Random(seed), random.Random(seed)
            for _ in range(5):
                assert cg._junod_draws(ours) == randint_draws(theirs)
            assert ours.getstate() == theirs.getstate()

    def test_a_prime_given_twice_gets_two_equal_reports(self, ctx3):
        # the row takes each prime's q once, and each context gets its own
        # report
        for mutation in (None, (7, 1)):
            alone = cg.junod_lemma_trials(20, 1, [ctx3], mutation)[0]
            twice = cg.junod_lemma_trials(20, 1, [ctx3, ctx3], mutation)
            assert [r.to_json() for r in twice] == [alone.to_json()] * 2


class TestGammaRatio:
    def test_hand_example_p3_n2(self, ctx3):
        # c_6(3,0,1) = 40 = (-1)^3 * C(2,1) * (-20)
        assert class_size(6, ((3, 1), (1, 3))) == 40
        assert ctx3.morita_gamma_ratio(7, 4) == -20
        assert cg.check_formula_gamma_ratio(2, ctx3).passed

    @pytest.mark.parametrize("p,n", [(3, 1), (3, 6), (5, 5), (7, 2)])
    def test_sweeps(self, p, n):
        assert cg.check_formula_gamma_ratio(n, PadicContext(p)).passed


class TestWilsonSharpness:
    def test_p3_exact(self, ctx3):
        # c_9(6,0,1,...) = 168; D = 171 = 9*19 has vp exactly 2
        assert class_size(9, ((3, 1), (1, 6))) == 168
        report = cg.check_wilson_sharpness(3, ctx3)
        assert report.passed and not report.params["wilson_prime"]

    def test_wilson_primes_gain_a_power(self):
        for p in (5, 13):
            report = cg.check_wilson_sharpness(p, PadicContext(p))
            assert report.passed and report.params["wilson_prime"]

    def test_preconditions(self, ctx3):
        with pytest.raises(ValueError):
            cg.check_wilson_sharpness(4, ctx3)  # n not in pZ
        with pytest.raises(ValueError):
            cg.check_wilson_sharpness(2, PadicContext(2))


class TestMutationDetection:
    def test_coeff_checker_catches_perturbation(self, ctx3):
        report = cg.check_prop_coeff(3, ctx3, mutation=(4, 1))
        assert not report.passed
        assert len(report.violations) == 1
        assert report.violations[0]["observed_vp"] == 0

    def test_poly_checker_catches_perturbation(self, ctx3):
        report = cg.check_prop_poly(1, 3, ctx3, mutation=(2, 1))
        assert not report.passed
        wit = report.violations[0]
        assert wit["observed_vp"] == 0 and wit["required_vp"] == 2

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_prop_poly_mutated_in_either_form(self, p):
        # at odd p the signed form is the first form's compare reused; it must
        # report what two compares of separately built polynomials report
        ctx = PadicContext(p)
        for r, n in ((0, 1), (1, 2), (p - 1, 2)):
            modulus = cg.n_star(n) * p
            lhs = ci.cycle_indicator(r + n * p)
            cr = ci.cycle_indicator(r)
            x1p = MultiPoly.variable(1) ** p
            xp = MultiPoly.variable(p)
            size = max(len(lhs), len((x1p - xp) ** n * cr))
            for index in (None, 0, size - 1, size, 2 * size - 1, 2 * size):
                mutation = None if index is None else (index, 1)
                expected = CongruenceReport(
                    "prop-poly", {"p": p, "n": n, "r": r, "modulus": modulus},
                    mutation=mutation,
                )
                cg.compare_polys(expected, lhs, (x1p - xp) ** n * cr, modulus, ctx)
                cg.compare_polys(expected, lhs, (x1p + (-1) ** p * xp) ** n * cr,
                                 modulus, ctx, tag="signed")
                report = cg.check_prop_poly(r, n, ctx, mutation)
                assert report.to_json() == expected.to_json()
                if p == 2:  # the theorem is for odd p; p = 2 has violations
                    continue
                forms = [v["instance"].get("form") for v in report.violations]
                if index is None or index >= 2 * size:
                    assert forms == []
                else:
                    assert forms == [None if index < size else "signed"]

    def test_junod_lemma_mutation_is_two_sided(self, ctx3, ctx5):
        # m <= 20p and n <= 12 keep the required valuation vp(m*n) below 10
        for ctx in (ctx3, ctx5):
            assert cg.junod_lemma_trials(50, 0, [ctx], (0, ctx.p**10))[0].passed
            report = cg.junod_lemma_trials(50, 0, [ctx], (0, 1))[0]
            assert [v["instance"]["trial"] for v in report.violations] == [0]

    def test_negative_index_refused(self, ctx3):
        with pytest.raises(ValueError):
            CongruenceReport("x", {"p": 3}, mutation=(-1, 1))
        for mutation in ((-1, 1), (-30, 1)):
            with pytest.raises(ValueError):
                cg.report_gamma_identity(2, ctx3, mutation)
            with pytest.raises(ValueError):
                cg.junod_lemma_trials(20, 0, [ctx3], mutation)
        with pytest.raises(UsageError) as info:
            verify_spec(["carlitz-coeff", "--mutate=-1:1"])
        assert str(info.value) == "malformed --mutate '-1:1'"

    def test_every_scalar_checker_catches_perturbation(self, ctx3):
        mut = (0, 1)
        assert not cg.report_gamma_identity(2, ctx3, mut).passed
        assert not cg.report_gamma_congruence(3, ctx3, mut).passed
        assert not cg.report_binomial_lift(3, ctx3, mut).passed
        assert not cg.check_formula_gamma_ratio(2, ctx3, mut).passed
        assert not cg.check_wilson_sharpness(3, ctx3, mut).passed


# (checker, arguments before ctx, degree N swept) for a grid with p = 3 and 5;
# at n = p the modulus of prop-coeff and corollary1 is p^2
COEFF_SWEEPS = [
    (cg.check_carlitz_coeff, lambda p: (3,), lambda p: 3 * p),
    (cg.check_prop_coeff, lambda p: (p,), lambda p: p * p),
    (cg.check_corollary1, lambda p: (1, p), lambda p: 1 + p * p),
]


# every (p, n, r) of `verify prop-poly --primes 2,3,5,7 --n-max 6 --degree-cap 24`
POLY_POINTS = [key[1:] for (key,), _ in build_all_tasks(verify_spec(
    ["prop-poly", "--primes", "2,3,5,7", "--allow-p2", "--n-max", "6",
     "--degree-cap", "24"]))]


class TestResidueCompare:
    """compare_indicator decides C_N against a right-hand side on residues
    mod p^vp(modulus); it must give what the exact compare gives."""

    @staticmethod
    def forms(p, n, r):
        """(X_1^p - X_p)^n C_r, the theorem's, and (X_1^p + X_p)^n C_r, which
        is false at odd p and the signed form at p = 2."""
        x1p, xp = MultiPoly.variable(1) ** p, MultiPoly.variable(p)
        cr = ci.cycle_indicator(r)
        return (x1p - xp) ** n * cr, (x1p + xp) ** n * cr

    @staticmethod
    def compare(route, lhs, rhs, p, n, r, modulus, mutation=None):
        """The report's JSON, and the witnesses compare_indicator returns."""
        ctx = PadicContext(p)
        report = CongruenceReport(
            "prop-poly", {"p": p, "n": n, "r": r, "modulus": modulus},
            mutation=mutation)
        if route == "residue":
            bad = cg.compare_indicator(report, r + n * p, rhs, modulus, ctx)
        else:
            cg.compare_polys(report, lhs, rhs, modulus, ctx)
            bad = None if mutation else congruence_witnesses(lhs, rhs, modulus, ctx)
        return report.to_json(), bad

    @pytest.mark.parametrize("p, n, r", POLY_POINTS)
    def test_perturbed_rhs_sound_both_ways(self, p, n, r):
        modulus = cg.n_star(n) * p
        lhs = ci.cycle_indicator(r + n * p)
        # a class of C_N that neither form has, if there is one
        spare = [e for e, _ in lhs.sorted_terms()
                 if not any(f.coefficient(e) for f in self.forms(p, n, r))][:1]
        for true_form, rhs in zip((p > 2, False), self.forms(p, n, r)):
            _, clean = got = self.compare("residue", lhs, rhs, p, n, r, modulus)
            assert got == self.compare("exact", lhs, rhs, p, n, r, modulus)
            assert not clean if true_form else p == 2 or clean
            clean_places = [w[0]["exponents"] for w in clean]
            keys = [e for e, _ in rhs.sorted_terms()]
            for exps in (keys[0], keys[-1], *spare):
                for delta in (1, modulus):
                    bumped = rhs + MultiPoly.monomial(exps, delta)
                    got = self.compare("residue", lhs, bumped, p, n, r, modulus)
                    assert got == self.compare("exact", lhs, bumped, p, n, r,
                                               modulus)
                    places = [w[0]["exponents"] for w in got[1]]
                    key = list(exps)
                    if delta == modulus:  # no fault: the same places
                        assert places == clean_places
                    else:  # a fault at key, flagged unless key failed before
                        assert ([e for e in places if e != key]
                                == [e for e in clean_places if e != key])
                        assert key in places or key in clean_places
                        if true_form:
                            assert places == [key]

    @pytest.mark.parametrize("p, n, r", POLY_POINTS)
    def test_mutated_lhs_sound_both_ways(self, p, n, r):
        modulus = cg.n_star(n) * p
        lhs = ci.cycle_indicator(r + n * p)
        size = partition_count(r + n * p)
        rhs = self.forms(p, n, r)[0]
        for index in (0, size // 2, size - 1, size):
            for delta in (1, modulus):
                mutation = (index, delta)
                text, _ = self.compare("residue", lhs, rhs, p, n, r, modulus,
                                       mutation)
                assert text == self.compare("exact", lhs, rhs, p, n, r, modulus,
                                            mutation)[0]
                if p > 2:
                    flagged = json.loads(text)["violations"]
                    assert len(flagged) == (delta == 1 and index < size)


class TestCoeffMutationTwoSided:
    @pytest.mark.parametrize("p", [3, 5])
    @pytest.mark.parametrize("check,args,degree", COEFF_SWEEPS)
    def test_boundary_delta(self, check, args, degree, p):
        ctx = PadicContext(p)
        clean = check(*args(p), ctx)
        assert clean.passed
        modulus = clean.params["modulus"]
        req = ctx.vp(modulus)
        assert req == (1 if check is cg.check_carlitz_coeff else 2)
        classes = [ct.m for ct in enumerate_cycle_types(degree(p))]
        assert clean.instances == len(classes)
        for index in (0, 1, len(classes) // 2, len(classes) - 1):
            # a multiple of p^req is no fault at any class
            assert check(*args(p), ctx, (index, p**req)).passed
            assert check(*args(p), ctx, (index, -(p**req))).passed
            report = check(*args(p), ctx, (index, p ** (req - 1)))
            assert len(report.violations) == 1
            v = report.violations[0]
            assert v["instance"]["cycle_type"] == list(classes[index])
            assert v["required_modulus"] == modulus
            assert (v["observed_vp"], v["required_vp"]) == (req - 1, req)

    @pytest.mark.parametrize("p", [3, 5])
    def test_remark1_boundary_delta(self, p):
        ctx = PadicContext(p)
        r, n = 1, p
        clean = cg.check_remark1(r, n, ctx)
        assert clean.passed and clean.instances == n + 1
        modulus = clean.params["modulus"]
        req = ctx.vp(modulus)
        assert req == 2
        for mp in (0, 1, n):
            assert cg.check_remark1(r, n, ctx, (mp, p**req)).passed
            assert cg.check_remark1(r, n, ctx, (mp, -(p**req))).passed
            report = cg.check_remark1(r, n, ctx, (mp, p ** (req - 1)))
            assert len(report.violations) == 1
            v = report.violations[0]
            assert v["instance"] == {"m1": r + n * p - p * mp, "mp": mp}
            assert v["required_modulus"] == modulus
            assert (v["observed_vp"], v["required_vp"]) == (req - 1, req)


# (checker, sign, branch labels) of the one class walk: carlitz-coeff and
# prop-coeff at r = 0, corollary1 at 1 <= r <= p-1
CLASS_WALKS = [
    (cg.check_carlitz_coeff, lambda p: -1, (1, 2)),
    (cg.check_prop_coeff, lambda p: (-1) ** p, (1, 2)),
    (cg.check_corollary1, lambda p: (-1) ** p, ("a", "b")),
]
WALK_IDS = ["carlitz-coeff", "prop-coeff", "corollary1"]


def walk_points(check, p, top):
    """(r, n, arguments before ctx) of every grid point with r + np <= top."""
    for r in range(1, p) if check is cg.check_corollary1 else (0,):
        for n in range(1, (top - r) // p + 1):
            yield r, n, ((r, n) if r else (n,))


def expected_by_cycle_type(m, p, n, r, sign):
    """(first branch?, expected coefficient) of the class m of r + np, by the
    CycleType route."""
    m1, mp = m[0], m[p - 1]
    if m1 + p * mp < n * p:
        return False, 0
    rest = (m1 + p * mp - n * p, *m[1:r])
    cr = coefficient(CycleType(r, rest)) if r else 1
    return True, sign(p) ** mp * math.comb(n, mp) * cr


@pytest.mark.parametrize("p", [2, 3, 5])
@pytest.mark.parametrize("check, sign, branches", CLASS_WALKS, ids=WALK_IDS)
def test_class_walk_expects_every_class_of_the_cycle_type_route(
    check, sign, branches, p
):
    # every grid point with r + np <= 12: a delta of 1 at class i is flagged
    # there alone, with the branch and the expected value that the
    # CycleType route gives that class
    ctx = PadicContext(p)
    for r, n, args in walk_points(check, p, 12):
        for i, ct in enumerate(enumerate_cycle_types(r + n * p)):
            report = check(*args, ctx, (i, 1))
            assert len(report.violations) == 1
            v = report.violations[0]
            first, expected = expected_by_cycle_type(ct.m, p, n, r, sign)
            assert v["instance"] == {
                "cycle_type": list(ct.m),
                "branch": branches[0] if first else branches[1],
            }
            assert v["difference"] == str(coefficient(ct) + 1 - expected)


@pytest.fixture
def visited(monkeypatch):
    """The classes that the class walks' stream yields, in order."""
    seen = []

    def recording(n, prune=None):
        for item in class_sizes(n, prune):
            seen.append(item[0])
            yield item

    monkeypatch.setattr(cg, "class_sizes", recording)
    return seen


class TestPrunedWalk:
    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    @pytest.mark.parametrize("check", [c for c, _, _ in CLASS_WALKS], ids=WALK_IDS)
    def test_every_class_not_visited_expects_0_and_clears_the_modulus(
        self, check, p, visited
    ):
        # the lemma, against the full stream at every point with r + np <= 30
        ctx = PadicContext(p)
        for r, n, args in walk_points(check, p, 30):
            visited.clear()
            report = check(*args, ctx)
            assert report.passed
            req = ctx.vp(report.params["modulus"])
            seen = set(visited)
            assert len(seen) == len(visited)
            skipped = 0
            for parts, c in class_sizes(r + n * p):
                if parts not in seen:
                    skipped += 1
                    m = dict(parts)
                    assert m.get(1, 0) + p * m.get(p, 0) < n * p
                    assert ctx.vp(c) >= req
            assert len(seen) + skipped == report.instances
            assert report.instances == partition_count(r + n * p)

    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    @pytest.mark.parametrize("check, sign, branches", CLASS_WALKS, ids=WALK_IDS)
    def test_a_modulus_too_strong_is_refuted_as_by_the_full_stream(
        self, check, sign, branches, p, monkeypatch
    ):
        # a claim the classes do not all meet: with the modulus times p and
        # p^2 the walk must flag what a walk over the full stream flags, so
        # the bound clears no class whose vp falls short
        ctx = PadicContext(p)
        refuted = 0
        for r, n, args in walk_points(check, p, 24):
            modulus = check(*args, ctx).params["modulus"]
            for stronger in (modulus * p, modulus * p * p):
                def walk():
                    return cg._class_walk(check.__name__, r, n, ctx, stronger,
                                          sign(p), branches, None)

                pruned = walk()
                with monkeypatch.context() as m:
                    m.setattr(cg, "class_sizes", lambda N, prune=None: class_sizes(N))
                    full = walk()
                assert pruned.to_json_obj() == full.to_json_obj()
                refuted += len(full.violations)
        assert refuted

    def test_instances_are_p_of_N(self):
        # every point with np <= 60: prop-coeff and carlitz-coeff at each
        # prime up to 59, corollary1 at each r for p <= 13
        for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59):
            ctx = PadicContext(p)
            for n in range(1, 60 // p + 1):
                total = partition_count(n * p)
                assert cg.check_prop_coeff(n, ctx).instances == total
                assert cg.check_carlitz_coeff(n, ctx).instances == total
                if p <= 13:
                    for r in range(1, p):
                        report = cg.check_corollary1(r, n, ctx)
                        assert report.instances == partition_count(r + n * p)

    def test_prop_coeff_visits_the_pure_classes_alone(self, visited):
        # where p | n every class outside {1, p} is cleared by the bound
        for p, n in ((3, 9), (5, 5), (7, 7)):
            visited.clear()
            report = cg.check_prop_coeff(n, PadicContext(p))
            assert report.passed
            pure = [tuple((i, x) for i, x in ((p, mp), (1, n * p - p * mp)) if x)
                    for mp in range(n, -1, -1)]
            assert visited == pure

    @pytest.mark.parametrize("n", [12, 13])
    @pytest.mark.parametrize("check, sign, branches", CLASS_WALKS, ids=WALK_IDS)
    def test_mutation_in_a_pruned_subtree_is_found(self, check, sign, branches, n):
        # the violation at each index is that of the unpruned stream's class
        # there; an index past the classes injects nothing
        p = 3
        ctx = PadicContext(p)
        for r in (1, 2) if check is cg.check_corollary1 else (0,):
            args = (r, n) if r else (n,)
            clean = check(*args, ctx)
            modulus = clean.params["modulus"]
            req = ctx.vp(modulus)
            stream = list(class_sizes(r + n * p))
            total = len(stream)
            assert clean.passed and clean.instances == total
            for index in (0, 1, total // 3, total // 2, total - 1, 20000, total):
                report = check(*args, ctx, (index, 1))
                assert report.instances == total
                if index >= total:  # p(36) = 17,977 is below 20,000
                    assert report.to_json_obj() == clean.to_json_obj()
                    continue
                parts, c = stream[index]
                m = multiplicity_vector(r + n * p, parts)
                first, expected = expected_by_cycle_type(m, p, n, r, sign)
                diff = c + 1 - expected
                assert report.violations == [{
                    "instance": {"cycle_type": m,
                                 "branch": branches[0] if first else branches[1]},
                    "difference": str(diff),
                    "required_modulus": modulus,
                    "observed_vp": ctx.vp(diff),
                    "required_vp": req,
                }]
                assert check(*args, ctx, (index, p**req)).passed

    @pytest.mark.parametrize("check", [c for c, _, _ in CLASS_WALKS], ids=WALK_IDS)
    def test_miscounting_table_is_refused(self, check, monkeypatch):
        table = ci.partition_table

        def off_by_one(n):
            return [[count + 1 for count in row] for row in table(n)]

        monkeypatch.setattr(ci, "partition_table", off_by_one)
        args = (1, 3) if check is cg.check_corollary1 else (3,)
        with pytest.raises(ArithmeticError, match="counted"):
            check(*args, PadicContext(3))


class TestScalarMutationTwoSided:
    @pytest.mark.parametrize("p", [3, 5])
    def test_gamma_ratio_flags_every_nonzero_delta(self, p):
        ctx = PadicContext(p)
        n = p
        clean = cg.check_formula_gamma_ratio(n, ctx)
        assert clean.passed and clean.instances == n + 1
        for mp in (0, 1, n):
            for delta in (1, -1, p**3, -(p**5)):
                report = cg.check_formula_gamma_ratio(n, ctx, (mp, delta))
                assert len(report.violations) == 1
                v = report.violations[0]
                assert v["instance"] == {"mp": mp, "m1": n * p - p * mp,
                                         "kind": "exact-identity"}
                assert v["difference"] == str(delta)
                assert (v["observed_vp"], v["required_vp"]) == (ctx.vp(delta), "exact")

    @pytest.mark.parametrize("p", [3, 5])
    def test_gamma_identity_flags_every_nonzero_delta(self, p):
        ctx = PadicContext(p)
        for m in (0, 1, p):
            assert cg.report_gamma_identity(m, ctx).instances == 1
            for delta in (1, -1, p**3, -(p**5)):
                report = cg.report_gamma_identity(m, ctx, (0, delta))
                assert len(report.violations) == 1
                v = report.violations[0]
                assert v["instance"] == {"m": m} and v["difference"] == str(delta)
                assert (v["observed_vp"], v["required_vp"]) == (ctx.vp(delta), "exact")

    @pytest.mark.parametrize("p", [3, 5])
    def test_gamma_congruence_boundary_delta(self, p):
        ctx = PadicContext(p)
        m = p
        clean = cg.report_gamma_congruence(m, ctx)
        assert clean.passed and clean.instances == 1
        req = ctx.vp(p * m)
        assert req == 2
        assert cg.report_gamma_congruence(m, ctx, (0, p**req)).passed
        assert cg.report_gamma_congruence(m, ctx, (0, -(p**req))).passed
        report = cg.report_gamma_congruence(m, ctx, (0, p ** (req - 1)))
        assert len(report.violations) == 1
        v = report.violations[0]
        assert v["instance"] == {"m": m} and v["required_modulus"] == p * m
        assert (v["observed_vp"], v["required_vp"]) == (req - 1, req)

    @pytest.mark.parametrize("p", [3, 5])
    def test_binomial_lift_boundary_delta(self, p):
        ctx = PadicContext(p)
        n = p
        clean = cg.report_binomial_lift(n, ctx)
        assert clean.passed and clean.instances == n + 1
        req = ctx.vp(n * p)
        assert req == 2
        for m in (0, 1, n):
            assert cg.report_binomial_lift(n, ctx, (m, p**req)).passed
            assert cg.report_binomial_lift(n, ctx, (m, -(p**req))).passed
            report = cg.report_binomial_lift(n, ctx, (m, p ** (req - 1)))
            assert len(report.violations) == 1
            v = report.violations[0]
            assert v["instance"] == {"m": m, "kind": "binom-diff"}
            assert v["required_modulus"] == n * p
            assert (v["observed_vp"], v["required_vp"]) == (req - 1, req)

    # 3 is not a Wilson prime: vp(D) = vp(n) + 1 exactly; 5 is one:
    # vp(D) >= vp(n) + 2
    @pytest.mark.parametrize("p, kind, req", [(3, "sharpness", 2),
                                              (5, "wilson-prime-bound", 3)])
    def test_wilson_sharpness_boundary_delta(self, p, kind, req):
        ctx = PadicContext(p)
        n = p
        clean = cg.check_wilson_sharpness(n, ctx)
        assert clean.passed and clean.instances == 1
        # the sharpness condition is an equality, kept by a delta of
        # valuation above req; the Wilson-prime bound is also kept by p^req
        keep = [p ** (req + 1), -(p ** (req + 1))]
        if kind == "wilson-prime-bound":
            keep += [p**req, -(p**req)]
        for delta in keep:
            assert cg.check_wilson_sharpness(n, ctx, (0, delta)).passed
        report = cg.check_wilson_sharpness(n, ctx, (0, p ** (req - 1)))
        assert len(report.violations) == 1
        v = report.violations[0]
        assert v["instance"] == {"mp": 1, "kind": kind}
        assert (v["observed_vp"], v["required_vp"]) == (req - 1, req)

    def test_junod_lemma_at_a_later_trial(self, ctx3, ctx5):
        # m <= 20p and n <= 12 keep the required valuation vp(m*n) below 10
        for ctx in (ctx3, ctx5):
            for trial in (7, 49):
                keep = (trial, ctx.p**10)
                assert cg.junod_lemma_trials(50, 0, [ctx], keep)[0].passed
                report = cg.junod_lemma_trials(50, 0, [ctx], (trial, 1))[0]
                assert [v["instance"]["trial"] for v in report.violations] == [trial]
                assert report.violations[0]["observed_vp"] == 0


@pytest.mark.parametrize("checker", [row.name for row in CHECKER_TABLE])
def test_index_past_the_instances_injects_nothing(checker):
    # one job per task, and junod-lemma's trials in one job at both primes
    jobs = build_all_tasks(verify_spec([checker, "--primes", "3,5", "--n-max", "2",
                                        "--degree-cap", "12", "--trials", "20"]))
    assert jobs
    for _, thunk in jobs:
        fn, args = thunk.func, thunk.args[:-1]

        def reports(mutation):
            result = fn(*args, mutation)
            return result if isinstance(result, list) else [result]

        for i, clean in enumerate(reports(None)):
            assert clean.passed and clean.instances > 0
            for index in (clean.instances, clean.instances + 1000):
                mutated = reports((index, 1))[i]
                assert mutated.to_json_obj() == clean.to_json_obj()
            # the last instance is still reached
            assert not reports((clean.instances - 1, 1))[i].passed
            # sound both ways at every instance: a delta of 1 is flagged once,
            # a delta of the modulus that violation names is not flagged. The
            # exact checks name none: gamma-identity and gamma-ratio flag any
            # delta, and wilson-sharpness keeps vp(D) under p^(vp(n) + 2)
            p, modulus = clean.params["p"], clean.params.get("modulus")
            for index in range(clean.instances):
                (violation,) = reports((index, 1))[i].violations
                keep = violation["required_modulus"]
                assert keep == (modulus or keep)
                if keep:
                    assert reports((index, keep))[i].passed
                elif checker == "wilson-sharpness":
                    vn = PadicContext(p).vp(clean.params["n"])
                    assert reports((index, p ** (vn + 2)))[i].passed
                else:
                    assert checker in ("gamma-identity", "gamma-ratio")
                    assert len(reports((index, p**10))[i].violations) == 1


class TestReportShape:
    def test_json_schema_fields(self, ctx3):
        report = cg.check_prop_coeff(2, ctx3)
        obj = report.to_json_obj()
        assert set(obj) >= {"checker", "params", "instances", "violations"}
        assert obj["violations"] == []

    def test_violation_fields(self, ctx3):
        report = cg.check_prop_coeff(3, ctx3, mutation=(0, 1))
        v = report.violations[0]
        assert set(v) == {
            "instance",
            "difference",
            "required_modulus",
            "observed_vp",
            "required_vp",
        }

    def test_integers_past_2_to_the_53_are_strings(self, ctx3):
        # a JSON reader that parses numbers as doubles rounds 2**53 + 1, so
        # past 2**53 params, the seed, required_modulus and an instance's
        # integer fields are written as decimal strings, as a difference is
        big, edge = 2**53 + 1, -(2**53)
        for n, shown in ((big, str(big)), (edge, edge)):
            report = CongruenceReport("x", {"p": 3, "n": n}, seed=n)
            report.add_violation({"m": n, "e": [1, 2], "form": "signed"}, 1, n,
                                 ctx3, 1)
            obj = json.loads(report.to_json())
            assert obj["params"]["n"] == obj["seed"] == shown
            assert obj["violations"] == [{
                "instance": {"m": shown, "e": [1, 2], "form": "signed"},
                "difference": "1", "required_modulus": shown,
                "observed_vp": 0, "required_vp": 1}]

    def test_text_mode(self, ctx3):
        report = cg.check_prop_coeff(2, ctx3)
        assert report.to_text().startswith("PASS")

    def test_report_pickles_with_its_violations(self, ctx3):
        r = CongruenceReport("x", {"p": 3, "n": 2}, seed=5, advisory=True,
                             mutation=(1, 1))
        assert r.tap(0) == 0 and r.tap(0) == 1
        r.add_violation({"i": 1}, 1, 9, ctx3, 2)
        copied = pickle.loads(pickle.dumps(r))
        assert copied == r and copied.to_json() == r.to_json()
        assert copied.mutation == r.mutation
        assert copied.violations == r.violations and copied.instances == 2
        # the mutation takes no part in equality, the repr or the JSON
        assert r == CongruenceReport("x", {"p": 3, "n": 2}, 2, r.violations, 5,
                                     None, True)
        assert "mutation" not in repr(r) and "mutation" not in r.to_json()
        a, b = CongruenceReport("x", {}), CongruenceReport("x", {})
        assert a.violations == [] and a.violations is not b.violations

    def test_report_is_dataclass_roundtrippable(self):
        r = CongruenceReport("x", {"p": 3})
        r.add_violation({"i": 1}, -3, 9, PadicContext(3), 2)
        assert not r.passed
        assert r.to_json_obj()["violations"][0]["difference"] == "-3"
