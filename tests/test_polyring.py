import json
import math

import pytest
from hypothesis import given, settings, strategies as st

from cyclopadic import polyring
from cyclopadic.cycle_index import cycle_indicator
from cyclopadic.padic import PadicContext
from cyclopadic.polyring import (
    MAX_DEGREE,
    MultiPoly,
    UniPoly,
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


class TestPower:
    """P**n, by the multinomial expansion or by squaring, against repeated *."""

    @settings(max_examples=120, deadline=None)
    @given(pow_bases, st.integers(min_value=0, max_value=12))
    def test_matches_repeated_mul(self, base, n):
        power = base**n
        assert power == power_oracle(base, n)
        assert all(power.terms.values())

    def test_sparse_base_is_expanded(self, monkeypatch):
        calls = []
        expand = polyring._multinomial_power
        monkeypatch.setattr(
            polyring, "_multinomial_power",
            lambda terms, n: calls.append(n) or expand(terms, n),
        )
        base = 3 * X1**2 * X3 - 7 * X2 + 5 * X1 * X2 * X3**2 + 1
        assert base**12 == power_oracle(base, 12)
        assert calls == [12]

    def test_dense_base_falls_back_to_squaring(self, monkeypatch):
        def refuse(terms, n):
            raise AssertionError("a dense base is not expanded")

        monkeypatch.setattr(polyring, "_multinomial_power", refuse)
        base = sum((i + 1) * X1**i for i in range(11))
        assert len(base) == 11
        assert base**12 == power_oracle(base, 12)

    def test_many_term_base(self, monkeypatch):
        # 1002 terms: the expansion walks its compositions without recursion,
        # and __pow__ squares the base, whose pairs are fewer than twice
        # the expansion's steps
        base = cycle_indicator(22)
        assert len(base) == 1002
        square = base * base
        assert polyring._multinomial_power(base.terms, 2) == square.terms

        def refuse(terms, n):
            raise AssertionError("a many-term base at n = 2 is not expanded")

        monkeypatch.setattr(polyring, "_multinomial_power", refuse)
        assert base**2 == square

    @pytest.mark.parametrize(
        "base, n, pairs",
        [
            (sum((i + 1) * X1**i for i in range(11)), 12, 5605),
            (3 * X1**2 * X3 - 7 * X2 + 5 * X1 * X2 * X3**2 + 1, 4, 151),
            (X1 + 2 * X2 - X3, 7, 216),
        ],
    )
    def test_pair_bound_is_exact_without_collisions(
        self, monkeypatch, base, n, pairs
    ):
        # dense univariate and collision-free sparse bases: the bound is the
        # number of term pairs the squaring loop forms
        terms = base.terms
        assert polyring._squaring_pairs(len(terms), polyring._tops(terms), n) == pairs
        formed = []
        mul = polyring._mul_terms
        monkeypatch.setattr(
            polyring, "_mul_terms",
            lambda a, b: formed.append(len(a) * len(b)) or mul(a, b),
        )
        monkeypatch.setattr(polyring, "_expands", lambda s, n, tops: False)
        power = base**n
        assert sum(formed) == pairs
        assert power == power_oracle(base, n)

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
        assert polyring._multinomial_power(base.terms, 2) == square.terms


def choice_rule(base: MultiPoly, n: int) -> bool:
    """__pow__'s kernel rule, unmemoized, with the top exponents read from
    the public exponent view: True for the expansion, False for squaring."""
    exps = [e for e, _ in base.sorted_terms()]
    tops = tuple(max(e[i] if i < len(e) else 0 for e in exps)
                 for i in range(max(map(len, exps))))
    s = len(base)
    steps = math.comb(n + s - 1, s - 1) + math.comb(n + s - 2, s - 2)
    return 2 * steps <= polyring._squaring_pairs(s, tops, n)


# the fixed bases of TestPower and TestModularPower
CHOICE_BASES = [
    3 * X1**2 * X3 - 7 * X2 + 5 * X1 * X2 * X3**2 + 1,
    sum((i + 1) * X1**i for i in range(11)),
    X1 + 2 * X2 - X3,
    X1**2 - 2 * X2**2 + 2 * X1 * X2,
    -4 * X1 + 9 * X2 - 1,
    X1 - 5 * X2,
    -(X1 + X2 + X3) * 4,
    X1 + 2 * X2 + 3 * X3,
]


class TestKernelChoice:
    """__pow__ reads its kernel from a memo keyed by (s, n, the sorted nonzero
    top exponents)."""

    @staticmethod
    def check(base, n):
        expected = choice_rule(base, n)
        # base with its variables in reverse order and X_1 unused: its top
        # exponents permuted and padded with a zero, the same rule and memo key
        terms = base.sorted_terms()
        width = max(len(e) for e, _ in terms)
        moved = MultiPoly({
            (0, *(e[i] if i < len(e) else 0 for i in reversed(range(width)))): c
            for e, c in terms
        })
        assert choice_rule(moved, n) == expected
        key = (len(base), n, polyring._tops(base.terms))
        assert polyring._tops(moved.terms) == key[2]
        assert polyring._expands(*key) == expected
        hits = polyring._expands.cache_info().hits
        assert polyring._expands(*key) == expected  # now from the memo
        assert polyring._expands.cache_info().hits == hits + 1

    @pytest.mark.parametrize("base", CHOICE_BASES)
    def test_memo_matches_the_rule_on_the_fixed_bases(self, base):
        polyring._expands.cache_clear()
        for n in range(2, 13):
            self.check(base, n)
        self.check(cycle_indicator(22), 2)

    @settings(max_examples=120, deadline=None)
    @given(pow_bases.filter(lambda b: len(b) >= 2),
           st.integers(min_value=2, max_value=12))
    def test_memo_matches_the_rule(self, base, n):
        self.check(base, n)

    def test_power_follows_the_choice(self, monkeypatch):
        # the expansion runs exactly where the rule picks it
        expand = polyring._multinomial_power
        calls = []
        monkeypatch.setattr(
            polyring, "_multinomial_power",
            lambda terms, n, *mod: calls.append(n) or expand(terms, n, *mod),
        )
        for base in CHOICE_BASES:
            for n in range(2, 13):
                calls.clear()
                assert base**n == power_oracle(base, n)
                assert calls == ([n] if choice_rule(base, n) else [])


def reduced_oracle(power: MultiPoly, q: int) -> MultiPoly:
    """power with each coefficient reduced into [0, q), zeros dropped."""
    return MultiPoly({e: c % q for e, c in power.sorted_terms()})


moduli = st.one_of(
    st.sampled_from([1, 2, 9, 12, 125, 3**40]),
    st.integers(min_value=1, max_value=10**6),
)


class TestModularPower:
    """pow(P, n, q) is P**n with every coefficient reduced into [0, q)."""

    @staticmethod
    def check(base, n, q):
        power = pow(base, n, q)
        assert power == reduced_oracle(power_oracle(base, n), q)
        assert all(0 < c < q for c in power.terms.values())

    @settings(max_examples=120, deadline=None)
    @given(pow_bases, st.integers(min_value=0, max_value=12), moduli)
    def test_matches_the_reduced_power(self, base, n, q):
        self.check(base, n, q)

    @settings(max_examples=60, deadline=None)
    @given(pow_bases.filter(lambda b: len(b) >= 2),
           st.integers(min_value=2, max_value=10), moduli)
    def test_expansion_path(self, base, n, q):
        # the expansion, forced by patching the kernel choice (a memoized
        # choice would not see a patched cost), reduces as it walks
        calls = []
        expand = polyring._multinomial_power
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(polyring, "_expands", lambda s, n, tops: True)
            mp.setattr(
                polyring, "_multinomial_power",
                lambda terms, n, *mod: calls.append(mod) or expand(terms, n, *mod),
            )
            self.check(base, n, q)
        reduced = reduced_oracle(base, q)
        assert calls == ([(q,)] if len(reduced) >= 2 else [])

    @settings(max_examples=60, deadline=None)
    @given(pow_bases, st.integers(min_value=2, max_value=10), moduli)
    def test_squaring_path(self, base, n, q):
        # squaring, forced by patching the kernel choice, reduces each product
        def refuse(terms, n, *mod):
            raise AssertionError("the kernel choice forced squaring")

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(polyring, "_multinomial_power", refuse)
            mp.setattr(polyring, "_expands", lambda s, n, tops: False)
            self.check(base, n, q)

    def test_both_paths_at_fixed_points(self, monkeypatch):
        # a sparse base is expanded and a dense one squared, as over Z
        sparse = 3 * X1**2 * X3 - 7 * X2 + 5 * X1 * X2 * X3**2 + 1
        dense = sum((i + 1) * X1**i for i in range(11))
        expanded = []
        expand = polyring._multinomial_power
        monkeypatch.setattr(
            polyring, "_multinomial_power",
            lambda terms, n, *mod: expanded.append(len(terms))
            or expand(terms, n, *mod),
        )
        for q in (1, 7, 36, 10**30):
            self.check(sparse, 12, q)
            self.check(dense, 12, q)
        # q = 1 reduces every base to 0, and q = 7 drops the sparse -7 X2
        assert expanded == [3, 4, 4]

    def test_negative_and_single_term_bases(self):
        for q in (1, 2, 6, 27, 1000):
            for base in (-X1, -3 * X1 * X2**2, X1 - 5 * X2, -(X1 + X2 + X3) * 4,
                         MultiPoly.constant(-7), MultiPoly.zero()):
                for n in range(6):
                    self.check(base, n, q)
        assert pow(-2 * X1, 3, 8) == MultiPoly.zero()  # -8 X1^3 = 0 mod 8
        assert pow(-2 * X1, 3, 9) == X1**3  # -8 = 1 mod 9

    def test_exponents_zero_and_one_reduce(self):
        base = -4 * X1 + 9 * X2 - 1
        assert pow(base, 0, 5) == MultiPoly.one()
        assert pow(base, 0, 1) == MultiPoly.zero()
        assert pow(base, 1, 3) == 2 * X1 + 2
        assert pow(base, 1, 1) == MultiPoly.zero()
        assert pow(base, 1, 10**9) == reduced_oracle(base, 10**9)

    def test_composite_modulus(self):
        # mod 12 the residues mod 4 and mod 3 both survive
        base = X1 + 2 * X2 + 3 * X3
        for n in range(1, 9):
            power = pow(base, n, 12)
            assert pow(power, 1, 4) == pow(base, n, 4)
            assert pow(power, 1, 3) == pow(base, n, 3)
            self.check(base, n, 12)

    @pytest.mark.parametrize("q", [0, -1, -12, 2.0, "3"])
    def test_a_modulus_that_is_not_a_positive_int_is_refused(self, q):
        with pytest.raises(ValueError, match="modulus"):
            pow(X1 + 1, 3, q)


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
