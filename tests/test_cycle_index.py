import itertools
import json
import math
import pathlib
import pickle
import random

import pytest

from cyclopadic import cycle_index
from cyclopadic.cycle_index import (
    CycleType,
    class_sizes,
    class_size,
    coefficient,
    cycle_indicator,
    cycle_indicator_mod,
    enumerate_cycle_types,
    multiplicity_vector,
    partition_count,
)
from cyclopadic.padic import is_prime
from cyclopadic.polyring import MultiPoly, UniPoly, substitute_univariate
from oracles import (
    cycle_indicator_direct,
    cycle_indicator_via_determinant,
    cycle_indicator_via_egf,
    cycle_indicators_by_recurrence,
    reduced_mod,
)

GOLDEN = pathlib.Path(__file__).parent / "golden"


@pytest.fixture(scope="module")
def recurrence_table():
    return cycle_indicators_by_recurrence(30)


def partitions_desc(n):
    """Partitions of n as non-increasing tuples, largest first part first.

    Recursive, prefix by prefix: the enumeration oracle for the successor
    step of enumerate_cycle_types.
    """
    if n == 0:
        yield ()
        return

    def rec(remaining, cap, prefix):
        if remaining == 0:
            yield prefix
            return
        for part in range(min(cap, remaining), 0, -1):
            yield from rec(remaining - part, part, prefix + (part,))

    yield from rec(n, n, ())


def multiplicities(n, parts):
    m = [0] * n
    for part in parts:
        m[part - 1] += 1
    return tuple(m)


@pytest.fixture(scope="module", params=range(1, 41))
def recursive_classes(request):
    """(n, the classes of n from the recursive oracle as CycleTypes, in its
    order), built once per n for the enumeration and class-size sweeps; pytest
    runs the tests of one n together and drops it before the next."""
    n = request.param
    return n, [CycleType(n, multiplicities(n, parts)) for parts in partitions_desc(n)]


class TestEnumeration:
    def test_n1(self):
        assert [ct.m for ct in enumerate_cycle_types(1)] == [(1,)]

    def test_n3_order(self):
        # largest part descending: 3, then 2+1, then 1+1+1
        assert [ct.m for ct in enumerate_cycle_types(3)] == [
            (0, 0, 1),
            (1, 1, 0),
            (3, 0, 0),
        ]

    @pytest.mark.parametrize("n", [1, 2, 5, 9, 14, 20])
    def test_count_is_partition_number(self, n):
        assert sum(1 for _ in enumerate_cycle_types(n)) == partition_count(n)

    def test_count_40(self):
        assert partition_count(40) == 37338
        assert sum(1 for _ in partitions_desc(40)) == 37338

    def test_known_partition_numbers(self):
        known = {0: 1, 1: 1, 5: 7, 10: 42, 36: 17977, 50: 204226}
        for n, p in known.items():
            assert partition_count(n) == p

    def test_matches_recursive_oracle(self, recursive_classes):
        n, expected = recursive_classes
        yielded = list(enumerate_cycle_types(n))
        assert [ct.m for ct in yielded] == [built.m for built in expected]
        for ct, built in zip(yielded, expected):
            assert ct.n == n
            assert ct.parts == tuple(
                (i, ct.m[i - 1]) for i in range(n, 0, -1) if ct.m[i - 1]
            )
            assert ct == built and hash(ct) == hash(built)
            assert ct.parts == built.parts

    def test_parts_largest_first(self):
        assert CycleType(6, (2, 0, 0, 1, 0, 0)).parts == ((4, 1), (1, 2))
        assert [ct.parts for ct in enumerate_cycle_types(4)] == [
            ((4, 1),),
            ((3, 1), (1, 1)),
            ((2, 2),),
            ((2, 1), (1, 2)),
            ((1, 4),),
        ]

    def test_parts_outside_equality(self):
        ct = CycleType(3, (1, 1, 0))
        assert "parts" not in repr(ct)
        assert {ct: 1}[CycleType(3, (1, 1, 0))] == 1
        copied = pickle.loads(pickle.dumps(list(enumerate_cycle_types(3))[1]))
        assert copied == ct and copied.parts == ct.parts

    def test_cycle_type_is_immutable_value(self):
        ct = CycleType(4, (2, 1, 0, 0))
        for name in ("n", "m", "parts", "other"):
            with pytest.raises(AttributeError):
                setattr(ct, name, 1)
        with pytest.raises(AttributeError):
            del ct.m
        same = CycleType(4, (2, 1, 0, 0))
        assert ct == same and hash(ct) == hash(same) and ct is not same
        assert ct != CycleType(4, (0, 2, 0, 0)) and ct != (4, (2, 1, 0, 0))
        assert repr(ct) == "CycleType(n=4, m=(2, 1, 0, 0))"
        copied = pickle.loads(pickle.dumps(ct))
        assert copied == ct and copied.parts == ((2, 1), (1, 2))

    def test_invalid_cycle_type_rejected(self):
        with pytest.raises(ValueError):
            CycleType(3, (1, 1, 1))
        with pytest.raises(ValueError):
            CycleType(2, (2,))


class TestCoefficient:
    def test_identity_class(self):
        for n in (1, 4, 9):
            assert coefficient(CycleType(n, (n,) + (0,) * (n - 1))) == 1

    def test_direct_formula_example(self):
        assert coefficient(CycleType(3, (1, 1, 0))) == 3

    def test_single_n_cycle(self):
        import math

        for n in range(2, 12):
            ct = CycleType(n, (0,) * (n - 1) + (1,))
            assert coefficient(ct) == math.factorial(n - 1)

    def test_raw_infeasible_is_zero(self):
        assert class_size(3, ((1, 1),)) == 0
        assert class_size(3, ((1, -1), (2, 2))) == 0
        assert class_size(3, ((2, 1), (1, 1))) == 3
        assert class_size(3, ((1, 1), (2, 1))) == 3
        assert class_size(4, ((1, -2), (2, 3))) == 0

    @pytest.mark.parametrize("n", [1, 6, 12, 20])
    def test_coefficient_matches_raw(self, n):
        for ct in enumerate_cycle_types(n):
            assert coefficient(ct) == class_size(n, enumerate(ct.m, start=1)) > 0

    def test_class_whose_parts_disagree_is_refused(self):
        # a class the enumerator got wrong must not read as coefficient 0
        ct = next(enumerate_cycle_types(3))
        object.__setattr__(ct, "parts", ((2, 1),))
        with pytest.raises(ArithmeticError, match="not a cycle type"):
            coefficient(ct)

    @pytest.mark.parametrize("n", range(1, 8))
    def test_brute_force_census(self, n):
        # explicit cycle-type tally over all n! permutations
        tally = {}
        for perm in itertools.permutations(range(n)):
            seen = [False] * n
            m = [0] * n
            for start in range(n):
                if seen[start]:
                    continue
                length = 0
                j = start
                while not seen[j]:
                    seen[j] = True
                    j = perm[j]
                    length += 1
                m[length - 1] += 1
            tally[tuple(m)] = tally.get(tuple(m), 0) + 1
        for ct in enumerate_cycle_types(n):
            assert coefficient(ct) == tally[ct.m]
        assert len(tally) == partition_count(n)


class TestClassSizes:
    def test_matches_closed_form_over_recursive_oracle(self, recursive_classes):
        n, classes = recursive_classes
        expected = [(ct.parts, coefficient(ct)) for ct in classes]
        stream = list(class_sizes(n))
        assert stream == expected
        assert len(stream) == partition_count(n)
        assert sum(c for _, c in stream) == math.factorial(n)

    def test_multiplicity_vector(self):
        assert multiplicity_vector(6, ((4, 1), (1, 2))) == [2, 0, 0, 1, 0, 0]
        for parts, _ in class_sizes(7):
            assert CycleType(7, tuple(multiplicity_vector(7, parts))).parts == parts

    def test_n_below_one_rejected(self):
        with pytest.raises(ValueError):
            next(class_sizes(0))

    @pytest.mark.parametrize("n", [2, 6, 13])
    def test_off_by_one_factorial_is_refused(self, n, monkeypatch):
        # (n! + 1) / n is no integer, so the first class, (n), is refused
        monkeypatch.setattr(cycle_index, "factorial", lambda k: math.factorial(k) + 1)
        with pytest.raises(ArithmeticError, match=rf"non-integral .* \(\({n}, 1\),\)"):
            next(class_sizes(n))


def counted_by_parts(top):
    """t[m][j], the partitions of m into parts <= j for m, j <= top, counted
    part size by part size: allowing part j adds the counts of m - j."""
    counts = [1] + [0] * top
    columns = [counts[:]]
    for j in range(1, top + 1):
        for m in range(j, top + 1):
            counts[m] += counts[m - j]
        columns.append(counts[:])
    return [[columns[j][m] for j in range(top + 1)] for m in range(top + 1)]


ORDERS = {
    "ascending": list(range(81)),
    "descending": list(range(80, -1, -1)),
    "shuffled": random.Random(37).sample(range(81), 81),
}


class TestSharedTables:
    @pytest.mark.parametrize("order", ORDERS)
    def test_partition_table_grows_to_the_fresh_table(self, order, monkeypatch):
        # one table, grown in place: asked in any order, its entries at or
        # below n are those of a table counted afresh, and earlier entries
        # do not move
        monkeypatch.setattr(cycle_index, "_partitions", [[1]])
        fresh = counted_by_parts(80)
        shared = cycle_index.partition_table(0)
        for n in ORDERS[order]:
            table = cycle_index.partition_table(n)
            assert table is shared and len(table) > n
            assert all(len(row) == len(table) for row in table)
            assert [row[: n + 1] for row in table[: n + 1]] == [
                row[: n + 1] for row in fresh[: n + 1]]

    @pytest.mark.parametrize("order", ORDERS)
    def test_partition_count_in_any_order(self, order, monkeypatch):
        monkeypatch.setattr(cycle_index, "_euler", [1])
        fresh = counted_by_parts(80)
        for n in ORDERS[order]:
            assert partition_count(n) == fresh[n][n]

    def test_known_values_asked_largest_first(self, monkeypatch):
        monkeypatch.setattr(cycle_index, "_euler", [1])
        assert partition_count(200) == 3_972_999_029_388
        assert partition_count(100) == 190_569_292
        assert partition_count(46) == 105_558
        monkeypatch.setattr(cycle_index, "_euler", [1])
        assert partition_count(100) == 190_569_292
        assert partition_count(200) == 3_972_999_029_388

    def test_negative_n_is_refused(self):
        with pytest.raises(ValueError):
            partition_count(-1)


class TestIndicatorRoutes:
    def test_base_cases(self):
        assert cycle_indicator(0) == MultiPoly.one()
        assert cycle_indicator(1) == MultiPoly.variable(1)

    def test_small_values(self):
        x1, x2, x3 = (MultiPoly.variable(i) for i in (1, 2, 3))
        assert cycle_indicator(2) == x1**2 + x2
        assert cycle_indicator(3) == x1**3 + 3 * x1 * x2 + 2 * x3

    @pytest.mark.parametrize("n", range(0, 31))
    def test_recurrence_equals_direct(self, n, recurrence_table):
        built = cycle_indicator(n)
        assert built == recurrence_table[n]
        assert built == cycle_indicator_direct(n)

    @pytest.mark.parametrize("n", range(0, 37))
    def test_one_term_per_class_summing_to_group_order(self, n):
        built = cycle_indicator(n)
        assert len(built) == partition_count(n)
        assert sum(built.terms.values()) == math.factorial(n)

    def test_cache_state_does_not_change_the_result(self, monkeypatch):
        monkeypatch.setattr(cycle_index, "_indicator_cache", {0: MultiPoly.one()})
        fresh = cycle_indicator(25)
        monkeypatch.setattr(cycle_index, "_indicator_cache", {0: MultiPoly.one()})
        cycle_indicator(7)
        assert cycle_indicator(25) == fresh == cycle_indicator_direct(25)

    @pytest.mark.parametrize("at", [0, 11, 21])  # the first, a middle, the last class
    def test_a_class_size_one_off_is_refused(self, at, monkeypatch):
        cache = {0: MultiPoly.one()}
        monkeypatch.setattr(cycle_index, "_indicator_cache", cache)
        sizes = cycle_index.class_sizes

        def one_off(n):
            for i, (parts, size) in enumerate(sizes(n)):
                yield parts, size + (i == at)

        monkeypatch.setattr(cycle_index, "class_sizes", one_off)
        with pytest.raises(ArithmeticError, match=r"S_8 do not sum to 8!"):
            cycle_indicator(8)
        assert list(cache) == [0]

    def test_degree_past_limit_refused_before_building(self):
        built = len(cycle_index._indicator_cache)
        with pytest.raises(OverflowError, match="65536"):
            cycle_indicator(2**16)
        assert len(cycle_index._indicator_cache) == built

    @pytest.mark.parametrize("m", range(1, 9))
    def test_determinant_route(self, m):
        assert cycle_indicator_via_determinant(m) == cycle_indicator(m)

    def test_determinant_bound_enforced(self):
        with pytest.raises(ValueError, match="determinant route"):
            cycle_indicator_via_determinant(9)
        assert cycle_indicator_via_determinant(9, bound=9) == cycle_indicator(9)

    @pytest.mark.parametrize("n", range(0, 13))
    def test_egf_route(self, n):
        assert cycle_indicator_via_egf(n) == cycle_indicator(n)

    @pytest.mark.parametrize("n", range(1, 26))
    def test_coefficients_sum_to_group_order(self, n):
        import math

        total = sum(coefficient(ct) for ct in enumerate_cycle_types(n))
        assert total == math.factorial(n)

    @pytest.mark.parametrize("n", range(1, 16))
    def test_rising_factorial_checksum(self, n):
        # all X_i := x collapses C_n to x(x+1)...(x+n-1)
        x = UniPoly.x()
        images = {i: x for i in range(1, n + 1)}
        collapsed = substitute_univariate(cycle_indicator(n), images)
        rising = UniPoly.constant(1)
        for k in range(n):
            rising = rising * (x + k)
        assert collapsed == rising

    def test_all_ones_substitution_gives_group_order(self):
        import math

        for n in range(1, 8):
            one = UniPoly.constant(1)
            images = {i: one for i in range(1, n + 1)}
            val = substitute_univariate(cycle_indicator(n), images)
            assert val == UniPoly.constant(math.factorial(n))


RESIDUE_MODULI = [2, 4, 8, 3, 9, 27, 81, 5, 25, 7, 49, 11, 17, 19, 23, 29, 43]


class TestResidueRows:
    @pytest.mark.parametrize("q", RESIDUE_MODULI)
    def test_rows_equal_the_exact_ones_reduced(self, q, recurrence_table):
        for m in range(46):
            row = cycle_indicator_mod(m, q)
            assert row.terms == reduced_mod(cycle_indicator(m), q).terms
            if m <= 30:  # the shifted-sum recurrence over Z
                assert row.terms == reduced_mod(recurrence_table[m], q).terms

    @pytest.mark.parametrize("p", [p for p in range(2, 44) if is_prime(p)])
    def test_row_p_at_q_p_is_the_exact_one_reduced(self, p, monkeypatch):
        monkeypatch.setattr(cycle_index, "_residue_cache", {})
        assert cycle_indicator_mod(p, p) == reduced_mod(cycle_indicator(p), p)

    def test_row_q_at_a_prime_q_reads_no_exact_row_q(self, monkeypatch):
        asked = []
        exact = cycle_index.cycle_indicator
        monkeypatch.setattr(cycle_index, "_residue_cache", {})
        monkeypatch.setattr(cycle_index, "cycle_indicator",
                            lambda m: asked.append(m) or exact(m))
        for q in (2, 3, 5, 7, 11, 13, 43):
            cycle_indicator_mod(45, q)
            cycle_indicator_mod(q, q)
        assert asked == []

    @pytest.mark.parametrize("q", [9, 7, 43])
    def test_cache_state_does_not_change_the_rows(self, q, monkeypatch):
        # rows up to p are reduced only where a sum reaches them, so a cache
        # filled downwards or upwards must give the same rows
        monkeypatch.setattr(cycle_index, "_residue_cache", {})
        down = [cycle_indicator_mod(m, q) for m in range(45, -1, -1)][::-1]
        monkeypatch.setattr(cycle_index, "_residue_cache", {})
        assert [cycle_indicator_mod(m, q) for m in range(46)] == down

    def test_q_must_be_at_least_2(self):
        for q in (1, 0, -3):
            with pytest.raises(ValueError, match="q must be >= 2"):
                cycle_indicator_mod(5, q)
        with pytest.raises(ValueError, match="n must be >= 0"):
            cycle_indicator_mod(-1, 3)


class TestGoldenFiles:
    @pytest.mark.parametrize("n", range(0, 11))
    def test_matches_golden(self, n):
        expected = json.loads((GOLDEN / f"cycle_index_{n:02d}.json").read_text())
        assert cycle_indicator(n).to_json_obj() == expected
