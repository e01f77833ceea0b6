import math

import pytest
from hypothesis import given, strategies as st

from cyclopadic.congruences import report_gamma_identity
from cyclopadic.padic import INFINITY, PadicContext, binomial, factorial, is_prime
from oracles import (
    ValuedInt,
    check_binomial_lift,
    check_gamma_congruence,
    in_mZp,
    morita_gamma_range,
)


@pytest.fixture(scope="module")
def ctx3():
    return PadicContext(3)


class TestPrimality:
    def test_small(self):
        primes = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47}
        for n in range(50):
            assert is_prime(n) == (n in primes)

    def test_known_composites(self):
        # Carmichael numbers and a strong-pseudoprime favorite
        for n in (561, 1105, 1729, 25326001, 3215031751):
            assert not is_prime(n)
        assert is_prime(2**31 - 1)

    def test_exact_below_psi13(self):
        # psi_12, the least strong pseudoprime to the first 12 prime bases,
        # is caught by base 41; psi_13 passes all 13 bases and is refused
        psi12 = 318665857834031151167461
        assert psi12 == 399165290221 * 798330580441
        assert not is_prime(psi12)
        assert is_prime(2**61 - 1)
        assert not is_prime(2**61 + 1) and not is_prime(2**89 + 1)
        for n in (3317044064679887385961981, 2**89 - 1):
            with pytest.raises(ValueError, match=f"cannot certify {n} prime"):
                is_prime(n)

    def test_context_rejects_nonprime(self):
        for bad in (0, 1, 4, 9, 15):
            with pytest.raises(ValueError):
                PadicContext(bad)


class TestValuation:
    def test_zero_is_infinite(self, ctx3):
        assert ctx3.vp(0) == INFINITY

    def test_examples(self, ctx3):
        assert ctx3.vp(18) == 2
        assert ctx3.vp(5) == 0
        assert ctx3.vp(-27) == 3

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_legendre_formula_oracle(self, p):
        # vp(n!) must match Legendre's sum floor(n/p^i)
        ctx = PadicContext(p)
        for n in range(0, 501):
            legendre = 0
            q = p
            while q <= n:
                legendre += n // q
                q *= p
            assert ctx.vp(factorial(n)) == legendre

    @given(
        st.integers(min_value=-(10**9), max_value=10**9).filter(lambda x: x != 0),
        st.integers(min_value=-(10**9), max_value=10**9).filter(lambda x: x != 0),
    )
    def test_multiplicativity_and_ultrametric(self, x, y):
        ctx = PadicContext(3)
        assert ctx.vp(x * y) == ctx.vp(x) + ctx.vp(y)
        if x + y != 0:
            vs = min(ctx.vp(x), ctx.vp(y))
            assert ctx.vp(x + y) >= vs
            if ctx.vp(x) != ctx.vp(y):
                assert ctx.vp(x + y) == vs


class TestIdealMembership:
    def test_prime_to_p_part_is_unit(self):
        ctx = PadicContext(5)
        assert not in_mZp(ctx, 6, 15)
        assert in_mZp(ctx, 10, 15)

    def test_zero_in_every_ideal(self, ctx3):
        for m in (1, 3, 9, 14, -6):
            assert in_mZp(ctx3, 0, m)

    def test_m_zero_rejected(self, ctx3):
        with pytest.raises(ValueError):
            in_mZp(ctx3, 1, 0)


class TestMoritaGamma:
    def test_base_values(self):
        ctx = PadicContext(5)
        assert ctx.morita_gamma(1) == -1
        assert ctx.morita_gamma(2) == 1
        assert ctx.morita_gamma(6) == 24  # 1*2*3*4 with sign (-1)^6

    def test_rejects_nonpositive(self, ctx3):
        with pytest.raises(ValueError):
            ctx3.morita_gamma(0)

    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    def test_functional_equation(self, p):
        # Gamma(n+1) = -n*Gamma(n) when p does not divide n, else -Gamma(n)
        ctx = PadicContext(p)
        prev = None
        for n, g in morita_gamma_range(ctx, 10**4):
            if prev is not None:
                m = n - 1
                expected = -m * prev if m % p else -prev
                assert g == expected
            prev = g

    def test_range_matches_direct(self, ctx3):
        for n, g in morita_gamma_range(ctx3, 60):
            assert g == ctx3.morita_gamma(n)

    def test_ratio(self, ctx3):
        for a in range(1, 40):
            for b in range(1, a + 1):
                num = ctx3.morita_gamma(a)
                den = ctx3.morita_gamma(b)
                assert den * ctx3.morita_gamma_ratio(a, b) == num

    @pytest.mark.parametrize("p", [3, 5, 7])
    def test_factorial_identity_exact(self, p):
        # (mp)! = (-1)^(pm+1) * Gamma_p(pm+1) * m! * p^m, exactly
        ctx = PadicContext(p)
        for m in range(0, 13):
            report = report_gamma_identity(m, ctx)
            assert report.passed, report.violations


class TestWilson:
    def test_known_wilson_primes(self):
        assert PadicContext(5).wilson_quotient_test()
        assert PadicContext(13).wilson_quotient_test()
        assert PadicContext(563).wilson_quotient_test()

    def test_non_wilson(self):
        for p in (3, 7, 11, 17, 19):
            assert not PadicContext(p).wilson_quotient_test()

    def test_p2_rejected(self):
        with pytest.raises(ValueError):
            PadicContext(2).wilson_quotient_test()


class TestBinomial:
    def test_trivial(self):
        assert factorial(0) == 1
        assert binomial(6, 2) == 15
        assert binomial(3, 7) == 0

    def test_factorial_ratio_oracle(self):
        for n in range(61):
            for k in range(n + 1):
                assert binomial(n, k) == factorial(n) // (
                    factorial(k) * factorial(n - k)
                )

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            binomial(-1, 0)


class TestScalarChecks:
    def test_gamma_congruence_examples(self):
        assert check_gamma_congruence(1, PadicContext(5)).passed
        res = check_gamma_congruence(3, PadicContext(3))
        assert res.passed and res.details["required_vp"] == 2

    def test_binomial_lift_identity_case(self):
        for p in (3, 5, 7):
            assert check_binomial_lift(1, 0, PadicContext(p)).passed

    def test_binomial_lift_example(self):
        # p=3, n=6, m=2: vp(C(18,6)-C(6,2)) = vp(18549) >= vp(18) = 2
        ctx = PadicContext(3)
        assert binomial(18, 6) - binomial(6, 2) == 18549
        res = check_binomial_lift(6, 2, ctx)
        assert res.passed
        assert res.details["required_vp"] == 2

    def test_binomial_lift_exhaustive_n25_p5(self):
        ctx = PadicContext(5)
        for m in range(26):
            assert check_binomial_lift(25, m, ctx).passed


def test_valued_int():
    ctx = PadicContext(3)
    v = ValuedInt.of(18, ctx)
    assert (v.value, v.vp) == (18, 2)
    assert ValuedInt.of(0, ctx).vp == INFINITY


def test_context_immutable():
    ctx = PadicContext(3)
    with pytest.raises(AttributeError):
        ctx.p = 5
    assert ctx == PadicContext(3) and hash(ctx) == hash(PadicContext(3))
    assert not math.isnan(hash(ctx))
