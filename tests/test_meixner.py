import os
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor

import pytest

import cyclopadic
from cyclopadic import meixner as mx
from cyclopadic.meixner import (
    check_corollary2,
    check_junod_qp,
    check_junod_qstar_q,
    meixner_q,
    meixner_qstar,
)
from cyclopadic.padic import PadicContext
from cyclopadic.polyring import UniPoly
from cyclopadic.reports import Mutation
from oracles import (
    meixner_by_rational_series,
    meixner_q_recurrence,
    meixner_qstar_by_substitution,
    meixner_qstar_recurrence,
)

X = UniPoly.x()


def empty_caches(monkeypatch):
    for name in ("_x_arctan", "_inv_sqrt", "_qstar_cache", "_q_cache"):
        monkeypatch.setattr(mx, name, [])


class TestConstruction:
    def test_base_cases(self):
        assert meixner_qstar(0) == UniPoly.constant(1)
        assert meixner_qstar(1) == X
        assert meixner_q(0) == UniPoly.constant(1)
        assert meixner_q(1) == X

    def test_q2(self):
        assert meixner_q(2) == X**2 - 1

    def test_q3star(self):
        assert meixner_qstar(3) == X**3 - 2 * X

    @pytest.mark.parametrize("n", range(0, 31))
    def test_qstar_substitution_equals_series(self, n):
        assert meixner_qstar_by_substitution(n) == meixner_qstar(n)

    @pytest.mark.parametrize("n", range(0, 25))
    def test_monic_and_degree(self, n):
        for poly in (meixner_q(n), meixner_qstar(n)):
            assert poly.degree() == n
            assert poly.coeffs[-1] == 1

    @pytest.mark.parametrize("n", range(0, 25))
    def test_parity(self, n):
        # EGF is invariant under (X, t) -> (-X, -t)
        for poly in (meixner_q(n), meixner_qstar(n)):
            for d, c in enumerate(poly.coeffs):
                if (d - n) % 2:
                    assert c == 0

    def test_recurrence_fast_paths_match_series(self):
        assert [meixner_q(n) for n in range(201)] == meixner_q_recurrence(200)
        stars = meixner_qstar_recurrence(200)
        assert [meixner_qstar(n) for n in range(201)] == stars

    def test_integer_route_equals_rational_oracle(self):
        qs, stars = meixner_by_rational_series(66)
        assert [meixner_q(n) for n in range(67)] == qs
        assert [meixner_qstar(n) for n in range(67)] == stars

    def test_out_of_order_requests_build_only_what_is_asked(self, monkeypatch):
        ascending = [(meixner_q(n), meixner_qstar(n)) for n in range(101)]
        for order in ((100, 5, 66), (5, 66, 3)):
            empty_caches(monkeypatch)
            highest = 0
            for n in order:
                assert (meixner_q(n), meixner_qstar(n)) == ascending[n]
                highest = max(highest, n)
                assert len(mx._q_cache) == len(mx._qstar_cache) == highest + 1

    def test_concurrent_requests_share_one_cache(self, monkeypatch):
        order = [60, 3, 45, 17, 59, 0, 31, 60] * 4
        expected = [(meixner_q(n), meixner_qstar(n)) for n in order]
        empty_caches(monkeypatch)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(8) as pool:
                futures = [pool.submit(lambda n: (meixner_q(n), meixner_qstar(n)), n)
                           for n in order]
                got = [f.result(timeout=60) for f in futures]
        finally:
            sys.setswitchinterval(interval)
        assert got == expected
        assert len(mx._x_arctan) == len(mx._q_cache) == len(mx._qstar_cache) == 61

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            meixner_q(-1)

    def test_integrality_check_survives_optimize(self):
        # under `python -O` an assert would vanish: 1/2 would truncate to 0,
        # a packed degree slot would carry into the X_1 slot, and a floored
        # cycle-indicator quotient or a class size n!/z that is no integer
        # would go unnoticed
        cases = [
            (
                "from fractions import Fraction\n"
                "import oracles\n"
                "oracles._to_unipoly([Fraction(1, 2)], 1)\n",
                "ArithmeticError: Meixner series produced a non-integer",
            ),
            (
                "from cyclopadic.polyring import MultiPoly\n"
                "MultiPoly.variable(1) ** 2**16\n",
                "OverflowError: total degree 65536 exceeds the packed limit",
            ),
            (
                "from cyclopadic import cycle_index\n"
                "from cyclopadic.polyring import MultiPoly\n"
                "terms = dict(cycle_index.cycle_indicator(7).terms)\n"
                "terms[next(iter(terms))] += 1\n"
                "cycle_index._indicator_cache[7] = MultiPoly(terms, _raw=True)\n"
                "cycle_index.cycle_indicator(8)\n",
                "ArithmeticError: non-integral cycle-indicator coefficient in C_8",
            ),
            (
                "import math\n"
                "from cyclopadic import cycle_index\n"
                "cycle_index.factorial = lambda k: math.factorial(k) + 1\n"
                "list(cycle_index.class_sizes(6))\n",
                "ArithmeticError: non-integral cycle-indicator coefficient for "
                "((6, 1),)",
            ),
        ]
        src = os.path.dirname(os.path.dirname(cyclopadic.__file__))
        tests = os.path.dirname(os.path.abspath(__file__))
        for script, expected in cases:
            proc = subprocess.run(
                [sys.executable, "-O", "-c", script],
                env=dict(os.environ, PYTHONPATH=os.pathsep.join([src, tests])),
                capture_output=True, text=True, timeout=60,
            )
            assert expected in proc.stderr


class TestCongruences:
    def test_qstar_q_p3(self):
        assert check_junod_qstar_q(1, PadicContext(3)).passed

    def test_qstar_q_modulus9(self):
        report = check_junod_qstar_q(3, PadicContext(3))
        assert report.passed and report.params["modulus"] == 9

    def test_qstar_q_p5_n2(self):
        assert check_junod_qstar_q(2, PadicContext(5)).passed

    def test_qp_examples(self):
        # Q_3 = X^3 + X (mod 3), Q_5 = X^5 - X (mod 5), Q_7 = X^7 + X (mod 7)
        for p in (3, 5, 7):
            assert check_junod_qp(PadicContext(p)).passed

    def test_qp_sign_convention(self):
        assert meixner_q(3) == X**3 - 5 * X  # -5 = +1 mod 3

    def test_corollary2_small(self):
        assert check_corollary2(1, PadicContext(3)).passed
        assert check_corollary2(3, PadicContext(3)).passed
        assert check_corollary2(2, PadicContext(5)).passed

    def test_p2_rejected(self):
        ctx2 = PadicContext(2)
        with pytest.raises(ValueError):
            check_junod_qp(ctx2)
        with pytest.raises(ValueError):
            check_junod_qstar_q(1, ctx2)
        with pytest.raises(ValueError):
            check_corollary2(1, ctx2)

    def test_corollary2_valuations_dominate_qp(self):
        # every bound asserted at modulus np is at least the mod-p bound
        ctx = PadicContext(3)
        rep_np = check_corollary2(3, ctx)
        rep_p = check_junod_qp(ctx)
        assert rep_np.passed and rep_p.passed
        assert rep_np.params["modulus"] % rep_p.params["modulus"] == 0


# (checker, arguments before ctx, degree of the mutated polynomial) at p;
# at n = p the modulus np of corollary2 and meixner-qstar-q is p^2
MEIXNER_CHECKS = [
    (check_corollary2, lambda p: (p,), lambda p: p * p),
    (check_junod_qstar_q, lambda p: (p,), lambda p: p * p),
    (check_junod_qp, lambda p: (), lambda p: p),
]


class TestMutationTwoSided:
    @pytest.mark.parametrize("p", [3, 5])
    @pytest.mark.parametrize("check,args,degree", MEIXNER_CHECKS)
    def test_boundary_delta(self, check, args, degree, p):
        ctx = PadicContext(p)
        clean = check(*args(p), ctx)
        assert clean.passed
        modulus = clean.params["modulus"]
        req = ctx.vp(modulus)
        assert req == (1 if check is check_junod_qp else 2)
        # corollary2 compares the mutated Q_np with two right-hand sides, so
        # the tapped degree is flagged once in each form
        forms = ["qp-power", "closed-form"] if check is check_corollary2 else [None]
        for index in (0, 1, degree(p)):
            # a multiple of p^req is no fault at any degree
            assert check(*args(p), ctx, Mutation(index, p**req)).passed
            assert check(*args(p), ctx, Mutation(index, -(p**req))).passed
            report = check(*args(p), ctx, Mutation(index, p ** (req - 1)))
            assert [v["instance"].get("form") for v in report.violations] == forms
            for v in report.violations:
                assert v["instance"]["degree"] == index
                assert v["required_modulus"] == modulus
                assert (v["observed_vp"], v["required_vp"]) == (req - 1, req)
