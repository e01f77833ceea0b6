import pytest

from cyclopadic import congruences as cg
from cyclopadic.cycle_index import coefficient_raw, enumerate_cycle_types
from cyclopadic.padic import PadicContext
from cyclopadic.reports import CongruenceReport, Mutation


@pytest.fixture(scope="module")
def ctx3():
    return PadicContext(3)


@pytest.fixture(scope="module")
def ctx5():
    return PadicContext(5)


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
        assert coefficient_raw(3, (0, 0, 1)) == 2  # 2 = -C(1,1) mod 3
        assert coefficient_raw(3, (1, 1, 0)) == 3  # else branch, 0 mod 3
        assert coefficient_raw(3, (3, 0, 0)) == 1  # (-1)^0 C(1,0)
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
        c = coefficient_raw(25, cg._two_part_vector(25, 20, 5, 1))
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
        assert coefficient_raw(4, (4, 0, 0, 0)) == 1
        assert coefficient_raw(4, (1, 0, 1, 0)) == 8  # = -1 mod 3
        assert coefficient_raw(4, (0, 2, 0, 0)) == 3  # branch (b), 0 mod 3
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
        lhs = coefficient_raw(7, cg._two_part_vector(7, 4, 3, 1))
        rhs = coefficient_raw(6, cg._two_part_vector(6, 3, 3, 1))
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
        a = cg.check_junod_lemma(50, 1234, ctx3)
        b = cg.check_junod_lemma(50, 1234, ctx3)
        assert a.passed and b.passed
        assert a.to_json() == b.to_json()
        assert a.seed == 1234

    def test_500_trials(self, ctx3, ctx5):
        assert cg.check_junod_lemma(500, 0, ctx3).passed
        assert cg.check_junod_lemma(500, 0, ctx5).passed


class TestGammaRatio:
    def test_hand_example_p3_n2(self, ctx3):
        # c_6(3,0,1) = 40 = (-1)^3 * C(2,1) * (-20)
        assert coefficient_raw(6, (3, 0, 1, 0, 0, 0)) == 40
        assert ctx3.morita_gamma_ratio(7, 4) == -20
        assert cg.check_formula_gamma_ratio(2, ctx3).passed

    @pytest.mark.parametrize("p,n", [(3, 1), (3, 6), (5, 5), (7, 2)])
    def test_sweeps(self, p, n):
        assert cg.check_formula_gamma_ratio(n, PadicContext(p)).passed


class TestWilsonSharpness:
    def test_p3_exact(self, ctx3):
        # c_9(6,0,1,...) = 168; D = 171 = 9*19 has vp exactly 2
        assert coefficient_raw(9, cg._two_part_vector(9, 6, 3, 1)) == 168
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
        report = cg.check_prop_coeff(3, ctx3, mutation=Mutation(4, 1))
        assert not report.passed
        assert len(report.violations) == 1
        assert report.violations[0]["observed_vp"] == 0

    def test_poly_checker_catches_perturbation(self, ctx3):
        report = cg.check_prop_poly(1, 3, ctx3, mutation=Mutation(2, 1))
        assert not report.passed
        wit = report.violations[0]
        assert wit["observed_vp"] == 0 and wit["required_vp"] == 2

    def test_junod_lemma_mutation_is_two_sided(self, ctx3, ctx5):
        # m <= 20p and n <= 12 keep the required valuation vp(m*n) below 10
        for ctx in (ctx3, ctx5):
            assert cg.check_junod_lemma(50, 0, ctx, Mutation(0, ctx.p**10)).passed
            report = cg.check_junod_lemma(50, 0, ctx, Mutation(0, 1))
            assert [v["instance"]["trial"] for v in report.violations] == [0]

    def test_every_scalar_checker_catches_perturbation(self, ctx3):
        mut = Mutation(0, 1)
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
            assert check(*args(p), ctx, Mutation(index, p**req)).passed
            assert check(*args(p), ctx, Mutation(index, -(p**req))).passed
            report = check(*args(p), ctx, Mutation(index, p ** (req - 1)))
            assert len(report.violations) == 1
            v = report.violations[0]
            assert v["instance"]["cycle_type"] == list(classes[index])
            assert v["required_modulus"] == modulus
            assert (v["observed_vp"], v["required_vp"]) == (req - 1, req)


class TestReportShape:
    def test_json_schema_fields(self, ctx3):
        report = cg.check_prop_coeff(2, ctx3)
        obj = report.to_json_obj()
        assert set(obj) >= {"checker", "params", "instances", "violations"}
        assert obj["violations"] == []

    def test_violation_fields(self, ctx3):
        report = cg.check_prop_coeff(3, ctx3, mutation=Mutation(0, 1))
        v = report.violations[0]
        assert set(v) == {
            "instance",
            "difference",
            "required_modulus",
            "observed_vp",
            "required_vp",
        }

    def test_text_mode(self, ctx3):
        report = cg.check_prop_coeff(2, ctx3)
        assert report.to_text().startswith("PASS")

    def test_report_is_dataclass_roundtrippable(self):
        r = CongruenceReport("x", {"p": 3})
        r.add_violation({"i": 1}, -3, 9, 1, 2)
        assert not r.passed
        assert r.to_json_obj()["violations"][0]["difference"] == "-3"
