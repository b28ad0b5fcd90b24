import itertools
import random
from fractions import Fraction

import pytest

from kpzlab.cumulants import (
    CumulantTable,
    IndexKey,
    SizeLimitError,
    bell_number,
    cumulants_from_moments,
    diagram_formula,
    diagram_formula_bruteforce,
    iter_partitions,
    iter_wick_partitions,
    moments_from_cumulants,
    wick_expand,
)

BELL = [1, 1, 2, 5, 15, 52, 203, 877, 4140]


def random_table(keys, rng, centred=False):
    """Cumulant table with random small rationals on every subset."""
    table = CumulantTable(centred=centred)
    keys = sorted(keys)
    for r in range(1, len(keys) + 1):
        for combo in itertools.combinations(keys, r):
            if centred and r == 1:
                continue
            table.set(combo, Fraction(rng.randint(-6, 6), rng.randint(1, 4)))
    return table


def moment_oracle_from_table(table):
    return lambda subset: moments_from_cumulants(table, subset)


class TestPartitions:
    def test_bell_numbers(self):
        for n in range(len(BELL)):
            assert bell_number(n) == BELL[n]

    def test_three_elements(self):
        parts = list(iter_partitions({1, 2, 3}))
        assert len(parts) == 5

    def test_singleton(self):
        parts = list(iter_partitions({1}))
        assert len(parts) == 1
        assert parts[0].blocks == (frozenset({1}),)

    def test_four_elements_exhaustive(self):
        parts = list(iter_partitions({1, 2, 3, 4}))
        assert len(parts) == 15
        # each partition covers the ground set and appears exactly once
        seen = set()
        for p in parts:
            assert p.ground_set == frozenset({1, 2, 3, 4})
            key = frozenset(p.blocks)
            assert key not in seen
            seen.add(key)

    def test_counts_match_bell(self):
        for n in range(7):
            assert len(list(iter_partitions(range(n)))) == BELL[n]

    def test_cap(self):
        with pytest.raises(SizeLimitError):
            list(iter_partitions(range(13)))


class TestCumulantInversion:
    def test_pair_cumulant_of_centred_is_covariance(self):
        cov = Fraction(3, 7)
        moments = {frozenset(): Fraction(1), frozenset({1}): Fraction(0),
                   frozenset({2}): Fraction(0), frozenset({1, 2}): cov}
        assert cumulants_from_moments(lambda s: moments[s], {1, 2}) == cov

    def test_third_cumulant_of_centred_is_third_moment(self):
        # all blocks in lower partitions contain a vanishing first cumulant
        rng = random.Random(11)
        m3 = Fraction(5, 3)
        moments = {frozenset(s): Fraction(rng.randint(-3, 3))
                   for s in [(1, 2), (1, 3), (2, 3)]}
        moments[frozenset({1, 2, 3})] = m3
        for k in (1, 2, 3):
            moments[frozenset({k})] = Fraction(0)
        assert cumulants_from_moments(lambda s: moments[s], {1, 2, 3}) == m3

    def test_bernoulli_fourth_cumulant(self):
        # X = +-1/2 with equal probability: E X^{2k} = 4^{-k}, odd moments 0.
        # kappa_4 = E X^4 - 3 (E X^2)^2 = 1/16 - 3/16 = -1/8.
        def oracle(subset):
            n = len(subset)
            if n % 2:
                return Fraction(0)
            return Fraction(1, 4 ** (n // 2))

        keys = [IndexKey(copy=1, slot=i) for i in range(1, 5)]
        assert cumulants_from_moments(oracle, keys) == Fraction(-1, 8)

    def test_round_trip_exact(self):
        rng = random.Random(7)
        for trial in range(8):
            n = rng.randint(1, 5)
            keys = list(range(n))
            table = random_table(keys, rng)
            oracle = moment_oracle_from_table(table)
            rebuilt = CumulantTable.from_moment_oracle(oracle, keys)
            for r in range(1, n + 1):
                for combo in itertools.combinations(keys, r):
                    assert rebuilt.get(combo) == table.get(combo)

    def test_gaussian_wick_theorem(self):
        # only pair cumulants: E[X^4] = sum over 3 pairings = 3 c^2
        c = Fraction(2, 5)
        table = CumulantTable(centred=True)
        for pair in itertools.combinations(range(1, 5), 2):
            table.set(pair, c)
        for r in (3, 4):
            for combo in itertools.combinations(range(1, 5), r):
                table.set(combo, Fraction(0))
        assert moments_from_cumulants(table, {1, 2, 3, 4}) == 3 * c * c

    def test_centred_first_moment(self):
        table = CumulantTable(centred=True)
        assert moments_from_cumulants(table, {1}) == 0


class TestWickProducts:
    def test_single_variable(self):
        exp = wick_expand({1})
        # :X_1: = X_1 - kappa_1; for centred tables the kappa term evaluates to 0
        assert {t.monomial for t in exp.terms} == {frozenset({1}), frozenset()}

    def test_pair_structure(self):
        exp = wick_expand({1, 2})
        by_monomial = {t.monomial: t for t in exp.terms}
        full = by_monomial[frozenset({1, 2})]
        assert full.coefficient == 1 and full.cumulant_factors == ()

        table = CumulantTable(centred=True)
        table.set({1, 2}, Fraction(4, 3))
        # :X1 X2: = X1 X2 - E[X1 X2] for centred variables
        assert exp.expectation(table) == 0

    def test_triple_against_hand_expansion(self):
        rng = random.Random(3)
        table = random_table([1, 2, 3], rng, centred=True)
        exp = wick_expand({1, 2, 3})
        assert exp.expectation(table) == 0
        # plug in explicit numbers: E[:X1X2X3:] = m123 - sum_i m_i kappa_jk - kappa_123
        # vanishes because centred implies m123 = kappa_123 and m_i = 0.

    def test_expectation_vanishes_up_to_five(self):
        rng = random.Random(5)
        for n in range(1, 6):
            table = random_table(range(n), rng, centred=False)
            # add first cumulants too: non-centred tables
            exp = wick_expand(range(n))
            assert exp.expectation(table) == 0


class TestWickPartitions:
    def test_one_slot_two_copies(self):
        parts = list(iter_wick_partitions(1, 2))
        assert len(parts) == 1
        assert parts[0].blocks == (frozenset({IndexKey(1, 1), IndexKey(2, 1)}),)

    def test_two_by_two(self):
        parts = list(iter_wick_partitions(2, 2))
        assert len(parts) == 3
        sizes = sorted(sorted(len(b) for b in p) for p in parts)
        assert sizes == [[2, 2], [2, 2], [4]]

    def test_single_copy_empty(self):
        assert list(iter_wick_partitions(2, 1)) == []

    def test_matches_filtering(self):
        for m, p in [(1, 3), (2, 2), (2, 3), (3, 2)]:
            keys = [IndexKey(copy=k, slot=i)
                    for k in range(1, p + 1) for i in range(1, m + 1)]
            direct = {frozenset(pt.blocks) for pt in iter_wick_partitions(m, p)}
            filtered = set()
            for pt in iter_partitions(keys):
                ok = all(
                    len(b) >= 2 and len({key.copy for key in b}) >= 2
                    for b in pt.blocks
                )
                if ok:
                    filtered.add(frozenset(pt.blocks))
            assert direct == filtered


class TestDiagramFormula:
    def test_single_partition_case(self):
        table = CumulantTable(centred=True)
        value = Fraction(9, 2)
        table.set({IndexKey(1, 1), IndexKey(2, 1)}, value)
        assert diagram_formula(table, 1, 2) == value

    def test_gaussian_two_by_two(self):
        # all four variables are the same Gaussian with variance sigma^2:
        # the two cross pairings contribute 2 sigma^4
        sigma2 = Fraction(3, 2)
        table = CumulantTable(centred=True)
        keys = [IndexKey(copy=k, slot=i) for k in (1, 2) for i in (1, 2)]
        for pair in itertools.combinations(keys, 2):
            table.set(pair, sigma2)
        for r in (3, 4):
            for combo in itertools.combinations(keys, r):
                table.set(combo, Fraction(0))
        assert diagram_formula(table, 2, 2) == 2 * sigma2 * sigma2

    def test_gaussian_excludes_same_copy_pairs(self):
        # distinct variances across copies: result must only use cross pairs
        table = CumulantTable(centred=True)
        keys = [IndexKey(copy=k, slot=i) for k in (1, 2) for i in (1, 2)]
        values = {}
        rng = random.Random(13)
        for pair in itertools.combinations(keys, 2):
            v = Fraction(rng.randint(1, 9), 2)
            values[frozenset(pair)] = v
            table.set(pair, v)
        for r in (3, 4):
            for combo in itertools.combinations(keys, r):
                table.set(combo, Fraction(0))
        a1, a2 = IndexKey(1, 1), IndexKey(1, 2)
        b1, b2 = IndexKey(2, 1), IndexKey(2, 2)
        expected = (
            values[frozenset({a1, b1})] * values[frozenset({a2, b2})]
            + values[frozenset({a1, b2})] * values[frozenset({a2, b1})]
        )
        assert diagram_formula(table, 2, 2) == expected

    @pytest.mark.parametrize("m,p", [(1, 2), (1, 3), (1, 4), (2, 2), (2, 3), (2, 4)])
    def test_matches_bruteforce_exactly(self, m, p):
        rng = random.Random(100 * m + p)
        keys = [IndexKey(copy=k, slot=i)
                for k in range(1, p + 1) for i in range(1, m + 1)]
        table = random_table(keys, rng, centred=True)
        assert diagram_formula(table, m, p) == diagram_formula_bruteforce(table, m, p)
