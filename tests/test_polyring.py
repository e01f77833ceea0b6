import json

import pytest
from hypothesis import given, settings, strategies as st

from cyclopadic.padic import PadicContext
from cyclopadic.polyring import (
    MAX_DEGREE,
    MultiPoly,
    UniPoly,
    _shift_accumulate,
    congruent_mod,
    substitute_univariate,
)

X1 = MultiPoly.variable(1)
X2 = MultiPoly.variable(2)
X3 = MultiPoly.variable(3)


exponents = st.tuples(*[st.integers(min_value=0, max_value=3)] * 3)
coeffs = st.integers(min_value=-20, max_value=20)
polys = st.dictionaries(exponents, coeffs, max_size=5).map(MultiPoly)


# -- tuple-keyed reference: exponent tuples without trailing zeros ----------


def ref_canonical(e) -> tuple:
    e = tuple(e)
    while e and e[-1] == 0:
        e = e[:-1]
    return e


def ref_grevlex_key(e: tuple, nvars: int):
    # ascending sort with this key = descending graded revlex
    padded = e + (0,) * (nvars - len(e))
    return (-sum(e), tuple(reversed(padded)))


def ref_mul(a: dict, b: dict) -> dict:
    out = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            n = max(len(ea), len(eb))
            e = tuple(
                (ea[i] if i < len(ea) else 0) + (eb[i] if i < len(eb) else 0)
                for i in range(n)
            )
            out[e] = out.get(e, 0) + ca * cb
    return {e: c for e, c in out.items() if c}


def ref_add_scaled(acc: dict, src: dict, scale: int) -> dict:
    out = dict(acc)
    for e, c in src.items():
        out[e] = out.get(e, 0) + scale * c
    return {e: c for e, c in out.items() if c}


def ref_shift(src: dict, var: int, scale: int) -> dict:
    """scale * X_var * src."""
    out = {}
    for e, c in src.items():
        padded = list(e) + [0] * (var - len(e))
        padded[var - 1] += 1
        out[tuple(padded)] = scale * c
    return {e: c for e, c in out.items() if c}


def view(poly: MultiPoly) -> dict:
    """The public exponent-tuple view of a polynomial's terms."""
    return dict(poly.sorted_terms())


# polynomials in up to five variables, so operands differ in nvars
ref_exponents = st.lists(st.integers(min_value=0, max_value=3), max_size=5).map(
    ref_canonical
)
ref_terms = st.dictionaries(
    ref_exponents, st.integers(min_value=-20, max_value=20).filter(bool), max_size=6
)


class TestMultiPolyBasics:
    def test_additive_identity(self):
        p = X1**2 + 3 * X2
        assert p + MultiPoly.zero() == p
        assert p - p == MultiPoly.zero()

    def test_scalar_mul(self):
        assert 3 * (X1 + X2) == MultiPoly({(1,): 3, (0, 1): 3})

    def test_mul_identity_and_difference_of_squares(self):
        p = X1**2 + X2
        assert p * MultiPoly.one() == p
        assert (X1 - X2) * (X1 + X2) == X1**2 - X2**2

    def test_pow_base_cases(self):
        p = X1**3 - X3
        assert p**0 == MultiPoly.one()
        assert (X1 - X3) ** 2 == X1**2 - 2 * X1 * X3 + X3**2

    def test_pow_matches_repeated_mul(self):
        p = X1**3 - X3
        acc = MultiPoly.one()
        for n in range(9):
            assert p**n == acc
            acc = acc * p
        assert (p**2).coefficient((3, 0, 1)) == -2

    def test_pow_negative_rejected(self):
        with pytest.raises(ValueError):
            X1 ** (-1)

    def test_canonical_no_trailing_zeros(self):
        p = MultiPoly({(1, 0, 0): 2, (0, 0, 0): 5})
        assert p.sorted_terms() == [((1,), 2), ((), 5)]
        assert p.nvars == 1
        assert p == MultiPoly({(1,): 2, (): 5})
        assert p.coefficient((1, 0, 0, 0)) == p.coefficient((1,)) == 2

    def test_trailing_zero_collisions_are_summed(self):
        assert MultiPoly({(1, 0): 2, (1,): 3}) == 5 * X1
        assert MultiPoly({(1, 0): 2, (1,): -2}) == MultiPoly.zero()
        assert MultiPoly({(1, 0): 2, (1,): -2, (0, 1): 4}).sorted_terms() == [
            ((0, 1), 4)
        ]

    def test_json_terms_that_collide_are_summed(self):
        obj = {"vars": 2, "terms": [[[1, 0], "2"], [[1], "3"], [[0, 1], "-1"]]}
        p = MultiPoly.from_json_obj(obj)
        assert p == 5 * X1 - X2
        assert MultiPoly.from_json_obj(json.loads(p.to_json())) == p
        cancel = {"vars": 2, "terms": [[[1, 0], "2"], [[1], "-2"]]}
        assert MultiPoly.from_json_obj(cancel).is_zero()

    def test_grevlex_order(self):
        p = X1**2 + X1 * X2 + X2**2 + X1 * X3 + X3 + MultiPoly.one()
        exps = [e for e, _ in p.sorted_terms()]
        assert exps == [(2,), (1, 1), (0, 2), (1, 0, 1), (0, 0, 1), ()]

    def test_json_roundtrip(self):
        p = X1**3 - 2 * X1 * X3 + 7
        obj = json.loads(p.to_json())
        assert obj["vars"] == 3
        assert MultiPoly.from_json_obj(obj) == p

    def test_immutability(self):
        with pytest.raises(AttributeError):
            X1.terms = {}


class TestRingAxioms:
    @settings(max_examples=200)
    @given(polys, polys, polys)
    def test_axioms(self, a, b, c):
        assert a + b == b + a
        assert (a + b) + c == a + (b + c)
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c


class TestKernelParity:
    """The packed-key kernel against the tuple-keyed reference above."""

    @settings(max_examples=150)
    @given(ref_terms, ref_terms)
    def test_mul_matches_reference(self, a, b):
        assert view(MultiPoly(a) * MultiPoly(b)) == ref_mul(a, b)

    @settings(max_examples=150)
    @given(ref_terms, ref_terms, st.integers(min_value=-3, max_value=3))
    def test_add_scaled_matches_reference(self, a, b, s):
        pa, pb = MultiPoly(a), MultiPoly(b)
        assert view(pa + s * pb) == ref_add_scaled(a, b, s)
        assert view(pa - pb) == ref_add_scaled(a, b, -1)

    @settings(max_examples=150)
    @given(ref_terms, ref_terms, st.integers(min_value=1, max_value=6),
           st.integers(min_value=1, max_value=6),
           st.integers(min_value=-9, max_value=9))
    def test_shift_accumulate_matches_reference(self, a, b, va, vb, s):
        # one step of the C_n recurrence: acc += s X_va a + X_vb b
        acc = {}
        _shift_accumulate(acc, MultiPoly(a), va, s)
        _shift_accumulate(acc, MultiPoly(b), vb, 1)
        expected = ref_add_scaled(ref_shift(a, va, s), ref_shift(b, vb, 1), 1)
        assert view(MultiPoly(acc, _raw=True)) == expected

    @settings(max_examples=150)
    @given(ref_terms)
    def test_sorted_terms_match_reference_order(self, a):
        nvars = max((len(e) for e in a), default=0)
        expected = sorted(a.items(), key=lambda t: ref_grevlex_key(t[0], nvars))
        poly = MultiPoly(a)
        assert poly.sorted_terms() == expected
        assert poly.nvars == nvars


class TestPackedLimits:
    def test_degree_limit_is_exact(self):
        top = X1**MAX_DEGREE
        assert top.sorted_terms() == [((MAX_DEGREE,), 1)]
        assert top.total_degree() == MAX_DEGREE
        assert (X2 ** (MAX_DEGREE - 1) * X1).coefficient((1, MAX_DEGREE - 1)) == 1

    def test_power_past_limit_raises(self):
        with pytest.raises(OverflowError):
            X1 ** 2**16

    def test_product_past_limit_raises(self):
        a = MultiPoly.monomial((0, 40000))
        b = MultiPoly.monomial((30000,)) + 1
        with pytest.raises(OverflowError):
            a * b

    def test_shift_past_limit_raises(self):
        with pytest.raises(OverflowError):
            _shift_accumulate({}, MultiPoly.monomial((0, MAX_DEGREE)), 3, 1)

    def test_packing_rejects_bad_exponents(self):
        with pytest.raises(OverflowError):
            MultiPoly.monomial((2**16,))
        with pytest.raises(OverflowError):
            MultiPoly.monomial((MAX_DEGREE, 1))
        with pytest.raises(ValueError):
            MultiPoly.monomial((1, -1))


class TestUniPoly:
    def test_basics(self):
        x = UniPoly.x()
        p = x**2 - 1
        assert p.coeffs == (-1, 0, 1)
        assert p(3) == 8
        assert p.degree() == 2
        assert UniPoly().degree() == -1

    def test_arithmetic(self):
        x = UniPoly.x()
        assert (x + 1) * (x - 1) == x**2 - 1
        assert (x**3 - 2 * x) - (x**3) == -2 * x
        assert 2 - x == UniPoly((2, -1))

    def test_json_roundtrip(self):
        p = UniPoly((-1, 0, 1))
        obj = json.loads(p.to_json())
        assert obj == {"coeffs": ["-1", "0", "1"]}
        assert UniPoly.from_json_obj(obj) == p


class TestSubstitution:
    def test_identity(self):
        assert substitute_univariate(X1, {1: UniPoly.x()}) == UniPoly.x()

    def test_c3_example(self):
        # C_3 = X1^3 + 3 X1 X2 + 2 X3 at x1=X, x2=0, x3=-X gives X^3 - 2X
        c3 = X1**3 + 3 * X1 * X2 + 2 * X3
        x = UniPoly.x()
        out = substitute_univariate(c3, {1: x, 2: UniPoly(), 3: -x})
        assert out == x**3 - 2 * x

    def test_missing_image_rejected(self):
        with pytest.raises(ValueError):
            substitute_univariate(X1 * X2, {1: UniPoly.x()})


class TestCongruentMod:
    def test_reflexive(self):
        ctx = PadicContext(3)
        p = X1**2 + 5 * X2
        ok, wit = congruent_mod(p, p, 9, ctx)
        assert ok and wit is None

    def test_unit_modulus_part_ignored(self):
        ctx = PadicContext(3)
        ok, _ = congruent_mod(X1**2, X1**2 + 3 * X2, 3, ctx)
        assert ok

    def test_witness(self):
        ctx = PadicContext(3)
        ok, wit = congruent_mod(X1**2, X1**2 + 3 * X2, 9, ctx)
        assert not ok
        assert wit["exponents"] == [0, 1]
        assert wit["difference"] == -3
        assert wit["observed_vp"] == 1 and wit["required_vp"] == 2

    def test_unipoly_witness(self):
        ctx = PadicContext(3)
        ok, wit = congruent_mod(UniPoly((0, 3)), UniPoly((0, 0, 9)), 9, ctx)
        assert not ok and wit["degree"] == 1

    @pytest.mark.parametrize("p,m", [(3, 3), (3, 18), (5, 250), (7, 4 * 7**3)])
    def test_perturbation_at_the_modulus_boundary(self, p, m):
        # p**req * X1 is a multiple of m in Z_p[X]; p**(req-1) * X1 is not
        ctx = PadicContext(p)
        req = ctx.vp(m)
        a = (X1 + 2 * X2) ** 3 + 5
        assert congruent_mod(a, a + p**req * X1, m, ctx) == (True, None)
        ok, wit = congruent_mod(a, a + p ** (req - 1) * X1, m, ctx)
        assert not ok
        assert wit == {
            "exponents": [1],
            "difference": -(p ** (req - 1)),
            "observed_vp": req - 1,
            "required_vp": req,
        }

    def test_zero_modulus_rejected(self):
        with pytest.raises(ValueError):
            congruent_mod(X1, X1, 0, PadicContext(3))

    def test_mixed_kinds_rejected(self):
        with pytest.raises(TypeError):
            congruent_mod(X1, UniPoly.x(), 3, PadicContext(3))

    @settings(max_examples=100)
    @given(polys, polys, polys, st.integers(min_value=1, max_value=4))
    def test_ideal_properties(self, a, b, c, e):
        # symmetry, shift to zero, and closure under add / poly multiply
        ctx = PadicContext(3)
        m = 3**e
        ok = congruent_mod(a, b, m, ctx)[0]
        assert ok == congruent_mod(b, a, m, ctx)[0]
        assert ok == congruent_mod(a - b, MultiPoly.zero(), m, ctx)[0]
        if ok:
            assert congruent_mod(a + c, b + c, m, ctx)[0]
            assert congruent_mod(a * c, b * c, m, ctx)[0]
