import math

import pytest

from cyclopadic import congruences as cg
from cyclopadic import cycle_index as ci
from cyclopadic.cli import CHECKER_TABLE, SweepSpec, build_all_tasks
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
from cyclopadic.polyring import MultiPoly
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
        a = cg.check_junod_lemma(50, 1234, ctx3)
        b = cg.check_junod_lemma(50, 1234, ctx3)
        assert a.passed and b.passed
        assert a.to_json() == b.to_json()
        assert a.seed == 1234

    def test_500_trials(self, ctx3, ctx5):
        assert cg.check_junod_lemma(500, 0, ctx3).passed
        assert cg.check_junod_lemma(500, 0, ctx5).passed

    @pytest.mark.parametrize("index", [None, 0, 12, 13, 39, 40])
    def test_slices_join_to_the_whole_run(self, index):
        # slices of 0..39 at three primes at once, joined in order, are the
        # one-prime reports of all 40 trials, clean or mutated at trial index
        ctxs = [PadicContext(p) for p in (3, 5, 7)]
        mutation = None if index is None else Mutation(index, 1)
        alone = [cg.check_junod_lemma(40, 9, ctx, mutation) for ctx in ctxs]
        hit = [index] if index is not None and index < 40 else []
        assert [[v["instance"]["trial"] for v in r.violations] for r in alone] == [hit] * 3
        for cuts in [(), (1,), (13,), (5, 6, 30), (0, 0, 40)]:
            bounds = [0, *cuts, 40]
            joined = None
            for start, stop in zip(bounds, bounds[1:]):
                part = cg.junod_lemma_trials(
                    start, stop, 40, 9, ctxs,
                    mutation and mutation.shifted(start, stop))
                if joined is None:
                    joined = part
                else:
                    for whole, later in zip(joined, part):
                        whole.extend(later)
            assert [r.to_json() for r in joined] == [r.to_json() for r in alone]

    def test_a_slice_replays_the_draws_before_it(self, ctx3):
        whole = cg.check_junod_lemma(30, 5, ctx3, Mutation(20, 1))
        (tail,) = cg.junod_lemma_trials(20, 30, 30, 5, [ctx3], Mutation(0, 1))
        assert tail.instances == 10
        assert tail.violations == whole.violations


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
        report = cg.check_prop_coeff(3, ctx3, mutation=Mutation(4, 1))
        assert not report.passed
        assert len(report.violations) == 1
        assert report.violations[0]["observed_vp"] == 0

    def test_poly_checker_catches_perturbation(self, ctx3):
        report = cg.check_prop_poly(1, 3, ctx3, mutation=Mutation(2, 1))
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
                mutation = None if index is None else Mutation(index, 1)
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
            assert cg.check_junod_lemma(50, 0, ctx, Mutation(0, ctx.p**10)).passed
            report = cg.check_junod_lemma(50, 0, ctx, Mutation(0, 1))
            assert [v["instance"]["trial"] for v in report.violations] == [0]

    def test_negative_index_refused(self):
        with pytest.raises(ValueError):
            Mutation(-1, 1)
        with pytest.raises(ValueError):
            Mutation.parse("-1:1")

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
            assert cg.check_remark1(r, n, ctx, Mutation(mp, p**req)).passed
            assert cg.check_remark1(r, n, ctx, Mutation(mp, -(p**req))).passed
            report = cg.check_remark1(r, n, ctx, Mutation(mp, p ** (req - 1)))
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
            report = check(*args, ctx, Mutation(i, 1))
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
                report = check(*args, ctx, Mutation(index, 1))
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
                assert check(*args, ctx, Mutation(index, p**req)).passed

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
                report = cg.check_formula_gamma_ratio(n, ctx, Mutation(mp, delta))
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
                report = cg.report_gamma_identity(m, ctx, Mutation(0, delta))
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
        assert cg.report_gamma_congruence(m, ctx, Mutation(0, p**req)).passed
        assert cg.report_gamma_congruence(m, ctx, Mutation(0, -(p**req))).passed
        report = cg.report_gamma_congruence(m, ctx, Mutation(0, p ** (req - 1)))
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
            assert cg.report_binomial_lift(n, ctx, Mutation(m, p**req)).passed
            assert cg.report_binomial_lift(n, ctx, Mutation(m, -(p**req))).passed
            report = cg.report_binomial_lift(n, ctx, Mutation(m, p ** (req - 1)))
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
            assert cg.check_wilson_sharpness(n, ctx, Mutation(0, delta)).passed
        report = cg.check_wilson_sharpness(n, ctx, Mutation(0, p ** (req - 1)))
        assert len(report.violations) == 1
        v = report.violations[0]
        assert v["instance"] == {"mp": 1, "kind": kind}
        assert (v["observed_vp"], v["required_vp"]) == (req - 1, req)

    def test_junod_lemma_at_a_later_trial(self, ctx3, ctx5):
        # m <= 20p and n <= 12 keep the required valuation vp(m*n) below 10
        for ctx in (ctx3, ctx5):
            for trial in (7, 49):
                keep = Mutation(trial, ctx.p**10)
                assert cg.check_junod_lemma(50, 0, ctx, keep).passed
                report = cg.check_junod_lemma(50, 0, ctx, Mutation(trial, 1))
                assert [v["instance"]["trial"] for v in report.violations] == [trial]
                assert report.violations[0]["observed_vp"] == 0


@pytest.mark.parametrize("checker", [row.name for row in CHECKER_TABLE])
def test_index_past_the_instances_injects_nothing(checker):
    spec = SweepSpec(checker, [3, 5], n_max=2, degree_cap=12, trials=20)
    tasks = build_all_tasks(spec)
    assert tasks
    for _, thunk, _ in tasks:
        fn, args = thunk.func, thunk.args[:-1]
        clean = fn(*args, None)
        assert clean.passed and clean.instances > 0
        for index in (clean.instances, clean.instances + 1000):
            mutated = fn(*args, Mutation(index, 1))
            assert mutated.to_json_obj() == clean.to_json_obj()
        # the last instance is still reached
        assert not fn(*args, Mutation(clean.instances - 1, 1)).passed


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

    def test_shifted_mutation(self):
        m = Mutation(7, 2)
        assert m.shifted(0, 8) == m
        assert m.shifted(7, 9) == Mutation(0, 2)
        assert m.shifted(3, 7) is None and m.shifted(8, 20) is None
        assert m.shifted(7, 7) is None

    def test_extend_appends_the_later_instances(self, ctx3):
        first = CongruenceReport("x", {"p": 3}, instances=2)
        first.add_violation({"i": 1}, 1, 9, ctx3, 2)
        later = CongruenceReport("x", {"p": 3}, instances=3)
        later.add_violation({"i": 4}, 2, 9, ctx3, 2)
        first.extend(later)
        assert first.instances == 5
        assert [v["instance"]["i"] for v in first.violations] == [1, 4]
        assert first.elapsed_ms is None
        first.elapsed_ms, later.elapsed_ms = 4, 6
        first.extend(later)
        assert first.elapsed_ms == 10

    def test_report_is_dataclass_roundtrippable(self):
        r = CongruenceReport("x", {"p": 3})
        r.add_violation({"i": 1}, -3, 9, PadicContext(3), 2)
        assert not r.passed
        assert r.to_json_obj()["violations"][0]["difference"] == "-3"
