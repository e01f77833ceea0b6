import json

import pytest
from hypothesis import given, settings, strategies as st

from cyclopadic import cycle_index, polyring
from cyclopadic.cycle_index import cycle_indicator
from cyclopadic.padic import PadicContext
from cyclopadic.polyring import (
    MAX_DEGREE,
    MultiPoly,
    UniPoly,
    congruent_mod,
    substitute_univariate,
)
from oracles import (
    multipoly_from_json_obj,
    power_mod,
    reduced_mod,
    unipoly_from_json_obj,
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
        p = multipoly_from_json_obj(obj)
        assert p == 5 * X1 - X2
        assert multipoly_from_json_obj(json.loads(p.to_json())) == p
        cancel = {"vars": 2, "terms": [[[1, 0], "2"], [[1], "-2"]]}
        assert multipoly_from_json_obj(cancel).is_zero()

    @pytest.mark.parametrize("terms", [
        {},
        {(): -4},
        {(3, 0, 1): 2, (0, 0, 0, 7): -(10**40), (): 1},
        # exponents whose slots are UTF-16 surrogates or the largest slot value
        {(0xD800,): 1, (5, 0xDBFF): -2, (0, 0, 0xDC00): 3, (0xDFFF, 1): 4},
        {(5, 0xDBFF): -2},  # a high surrogate in the last slot
        {(0, 0xD800): 7, (0xDBFF,): 1},
        {(0, MAX_DEGREE): 1, (MAX_DEGREE - 9, 0, 0, 9): 5},
    ], ids=["zero", "constant", "mixed", "surrogates", "last-high", "high-pair",
            "top-slot"])
    def test_json_text_matches_dumps(self, terms):
        p = MultiPoly(terms)
        k = p.nvars
        rows = [[list(e) + [0] * (k - len(e)), str(c)] for e, c in p.sorted_terms()]
        expected = json.dumps({"vars": k, "terms": rows}, separators=(",", ":"))
        assert p.to_json() == "".join(p.json_chunks()) == expected
        assert p.to_json_obj() == json.loads(expected)

    def test_grevlex_order(self):
        p = X1**2 + X1 * X2 + X2**2 + X1 * X3 + X3 + MultiPoly.one()
        exps = [e for e, _ in p.sorted_terms()]
        assert exps == [(2,), (1, 1), (0, 2), (1, 0, 1), (0, 0, 1), ()]

    def test_json_roundtrip(self):
        p = X1**3 - 2 * X1 * X3 + 7
        obj = json.loads(p.to_json())
        assert obj["vars"] == 3
        assert multipoly_from_json_obj(obj) == p

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
    @given(ref_terms)
    def test_sorted_terms_match_reference_order(self, a):
        nvars = max((len(e) for e in a), default=0)
        expected = sorted(a.items(), key=lambda t: ref_grevlex_key(t[0], nvars))
        poly = MultiPoly(a)
        assert poly.sorted_terms() == expected
        assert poly.nvars == nvars


def power_oracle(base: MultiPoly, n: int) -> MultiPoly:
    acc = MultiPoly.one()
    for _ in range(n):
        acc = acc * base
    return acc


pow_exponents = st.lists(st.integers(min_value=0, max_value=3), max_size=4).map(
    ref_canonical
)
pow_coeffs = st.one_of(
    st.integers(min_value=-9, max_value=9),
    st.integers(min_value=-(2**70), max_value=2**70),
).filter(bool)
pow_bases = st.dictionaries(pow_exponents, pow_coeffs, min_size=1, max_size=6).map(
    MultiPoly
)


# fixed bases: sparse and dense, univariate and in three variables, with
# negative coefficients and with a square whose terms cancel
FIXED_BASES = [
    3 * X1**2 * X3 - 7 * X2 + 5 * X1 * X2 * X3**2 + 1,
    sum((i + 1) * X1**i for i in range(11)),
    X1 + 2 * X2 - X3,
    X1**2 - 2 * X2**2 + 2 * X1 * X2,
    -4 * X1 + 9 * X2 - 1,
    X1 - 5 * X2,
    -(X1 + X2 + X3) * 4,
    X1 + 2 * X2 + 3 * X3,
]


class TestPower:
    """P**n, squared and multiplied on the product kernel, against repeated *."""

    @pytest.mark.parametrize("base", FIXED_BASES)
    def test_fixed_base_matches_repeated_mul(self, base):
        for n in range(13):
            power = base**n
            assert power == power_oracle(base, n)
            assert all(power.terms.values())

    @pytest.mark.parametrize(
        "base, n, pairs",
        [
            (sum((i + 1) * X1**i for i in range(11)), 12, 5605),
            (3 * X1**2 * X3 - 7 * X2 + 5 * X1 * X2 * X3**2 + 1, 4, 151),
            (X1 + 2 * X2 - X3, 7, 216),
        ],
    )
    def test_squaring_forms_the_counted_pairs(self, monkeypatch, base, n, pairs):
        # the term pairs the squaring loop forms, counted by hand for a dense
        # univariate base and two collision-free sparse ones
        formed = []
        mul = polyring._mul_terms
        monkeypatch.setattr(
            polyring, "_mul_terms",
            lambda a, b: formed.append(len(a) * len(b)) or mul(a, b),
        )
        power = base**n
        assert sum(formed) == pairs
        assert power == power_oracle(base, n)

    @pytest.mark.parametrize("n", [-1, 2.0, "3"])
    def test_an_exponent_that_is_not_a_natural_number_is_refused(self, n):
        with pytest.raises(ValueError, match="exponent"):
            (X1 + 1) ** n

    @pytest.mark.parametrize("q", [7, 3**40])
    def test_there_is_no_power_mod_q(self, q):
        # residues mod q come from cycle_indicator_mod and the tests' oracles
        with pytest.raises(TypeError):
            pow(X1 + 1, 3, q)

    @settings(max_examples=120, deadline=None)
    @given(pow_bases, st.integers(min_value=0, max_value=12))
    def test_matches_repeated_mul(self, base, n):
        power = base**n
        assert power == power_oracle(base, n)
        assert all(power.terms.values())

    @settings(max_examples=60, deadline=None)
    @given(pow_bases, st.integers(min_value=0, max_value=12),
           st.integers(min_value=1, max_value=10**6))
    def test_power_reduced_mod_q_is_the_reduced_power(self, base, n, q):
        # reduction mod q is a ring map, which the compares mod q rely on
        assert reduced_mod(base**n, q) == power_mod(base, n, q)

    def test_many_term_base(self):
        base = cycle_indicator(22)
        assert len(base) == 1002
        assert base**2 == base * base

    def test_trivial_bases_and_exponents(self):
        zero = MultiPoly.zero()
        assert zero**0 == MultiPoly.one()
        assert zero**1 == zero**7 == zero
        assert MultiPoly.constant(-2) ** 5 == MultiPoly.constant(-32)
        assert MultiPoly.constant(3) ** 0 == MultiPoly.one()
        p = X1**2 - 4 * X2 * X3
        assert p**0 == MultiPoly.one() and p**1 == p
        assert (-5 * X1 * X2**3) ** 3 == -125 * X1**3 * X2**9

    def test_cancelled_terms_are_not_stored(self):
        # 2 * (X1^2)(-2 X2^2) + (2 X1 X2)^2 = 0 at X1^2 X2^2
        base = X1**2 - 2 * X2**2 + 2 * X1 * X2
        square = base**2
        assert square == power_oracle(base, 2)
        assert square.coefficient((2, 2)) == 0
        assert all(square.terms.values()) and len(square) == 4


class TestPowerMod:
    """The tests' power_mod(P, n, q) is P**n with every coefficient reduced
    into [0, q), and reduced_mod agrees with cycle_index's reduction."""

    @staticmethod
    def check(base, n, q):
        power = power_mod(base, n, q)
        assert power == reduced_mod(power_oracle(base, n), q)
        assert all(0 < c < q for c in power.terms.values())

    def test_fixed_points(self):
        sparse, dense = FIXED_BASES[0], FIXED_BASES[1]
        for q in (1, 7, 36, 10**30):
            self.check(sparse, 12, q)
            self.check(dense, 12, q)

    def test_negative_and_single_term_bases(self):
        for q in (1, 2, 6, 27, 1000):
            for base in (-X1, -3 * X1 * X2**2, X1 - 5 * X2, -(X1 + X2 + X3) * 4,
                         MultiPoly.constant(-7), MultiPoly.zero()):
                for n in range(6):
                    self.check(base, n, q)
        assert power_mod(-2 * X1, 3, 8) == MultiPoly.zero()  # -8 X1^3 = 0 mod 8
        assert power_mod(-2 * X1, 3, 9) == X1**3  # -8 = 1 mod 9

    def test_exponents_zero_and_one_reduce(self):
        base = -4 * X1 + 9 * X2 - 1
        assert power_mod(base, 0, 5) == MultiPoly.one()
        assert power_mod(base, 0, 1) == MultiPoly.zero()
        assert power_mod(base, 1, 3) == 2 * X1 + 2
        assert power_mod(base, 1, 1) == MultiPoly.zero()
        assert power_mod(base, 1, 10**9) == reduced_mod(base, 10**9)

    def test_composite_modulus(self):
        # mod 12 the residues mod 4 and mod 3 both survive
        base = X1 + 2 * X2 + 3 * X3
        for n in range(1, 9):
            power = power_mod(base, n, 12)
            assert reduced_mod(power, 4) == power_mod(base, n, 4)
            assert reduced_mod(power, 3) == power_mod(base, n, 3)
            self.check(base, n, 12)

    @pytest.mark.parametrize("q", [1, 2, 9, 12, 125, 3**40])
    def test_cycle_index_reduction_matches_the_oracle(self, q):
        for base in (*FIXED_BASES, -X1, MultiPoly.constant(-7),
                     MultiPoly.zero(), cycle_indicator(10)):
            reduced = cycle_index._reduced(base.terms, q)
            assert reduced == reduced_mod(base, q)
            assert all(0 < c < q for c in reduced.terms.values())


class TestPackedLimits:
    def test_degree_limit_is_exact(self):
        top = X1**MAX_DEGREE
        assert top.sorted_terms() == [((MAX_DEGREE,), 1)]
        assert top.total_degree() == MAX_DEGREE
        assert (X2 ** (MAX_DEGREE - 1) * X1).coefficient((1, MAX_DEGREE - 1)) == 1

    def test_power_past_limit_raises(self):
        with pytest.raises(OverflowError):
            X1 ** 2**16
        with pytest.raises(OverflowError):
            (X1 * X2) ** 32768
        with pytest.raises(OverflowError):
            (X1**32767 + X2**32768) ** 2
        assert ((X1 * X2) ** 32767).total_degree() == MAX_DEGREE - 1
        assert len((X1**32767 + X2**32767) ** 2) == 3

    def test_product_past_limit_raises(self):
        a = MultiPoly.monomial((0, 40000))
        b = MultiPoly.monomial((30000,)) + 1
        with pytest.raises(OverflowError):
            a * b

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
        assert unipoly_from_json_obj(obj) == p


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
        x = UniPoly.x()
        u = (x + 2) ** 3 + 5
        assert congruent_mod(u, u + p**req * x, m, ctx) == (True, None)
        assert congruent_mod(u, u + p ** (req - 1) * x, m, ctx) == (False, {
            "degree": 1,
            "difference": -(p ** (req - 1)),
            "observed_vp": req - 1,
            "required_vp": req,
        })

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
