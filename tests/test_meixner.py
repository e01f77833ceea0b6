import os
import subprocess
import sys

import pytest

import cyclopadic
from cyclopadic.meixner import (
    check_corollary2,
    check_junod_qp,
    check_junod_qstar_q,
    meixner_q,
    meixner_q_recurrence,
    meixner_qstar,
    meixner_qstar_recurrence,
    meixner_qstar_series,
)
from cyclopadic.padic import PadicContext
from cyclopadic.polyring import UniPoly

X = UniPoly.x()


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

    @pytest.mark.parametrize("n", range(0, 25))
    def test_qstar_substitution_equals_series(self, n):
        assert meixner_qstar(n) == meixner_qstar_series(n)

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
        qs = meixner_q_recurrence(24)
        stars = meixner_qstar_recurrence(24)
        for n in range(25):
            assert qs[n] == meixner_q(n)
            assert stars[n] == meixner_qstar_series(n)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            meixner_q(-1)

    def test_integrality_check_survives_optimize(self):
        # under `python -O` an assert would vanish and 1/2 would truncate to 0
        script = (
            "from fractions import Fraction\n"
            "from cyclopadic import meixner\n"
            "meixner._to_unipoly([Fraction(1, 2)], 1)\n"
        )
        src = os.path.dirname(os.path.dirname(cyclopadic.__file__))
        proc = subprocess.run(
            [sys.executable, "-O", "-c", script],
            env=dict(os.environ, PYTHONPATH=src),
            capture_output=True, text=True, timeout=60,
        )
        assert "ArithmeticError: Meixner series produced a non-integer" in proc.stderr


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
