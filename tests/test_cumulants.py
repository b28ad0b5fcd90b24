import functools
import itertools
import random
from fractions import Fraction
from math import prod

import pytest

from kpzlab.cumulants import GROUND_SET_CAP, IndexKey, SizeLimitError, iter_wick_partitions

BELL = [1, 1, 2, 5, 15, 52, 203, 877, 4140]

# Brute-force oracle for the diagram formula: Wick products are expanded by
# their defining recursion and expectations are taken through the
# moment/cumulant relation.  A cumulant table is a plain dict
# {frozenset of keys: Fraction} with an entry for every subset it is asked for.


def iter_partitions(ground):
    """Every partition of ``ground`` once, as a tuple of frozenset blocks."""
    elements = tuple(ground)
    if len(elements) > GROUND_SET_CAP:
        raise SizeLimitError(f"{len(elements)} elements exceed the cap {GROUND_SET_CAP}")
    if not elements:
        yield ()
        return
    first = elements[0]
    for pi in iter_partitions(elements[1:]):
        yield (frozenset({first}),) + pi
        for i, block in enumerate(pi):
            yield pi[:i] + (block | {first},) + pi[i + 1:]


def moments_from_cumulants(table, ground):
    """E[X^ground] as the partition sum of cumulant products."""
    return sum(prod(table[block] for block in pi) for pi in iter_partitions(ground))


@functools.cache
def wick_expand(ground: frozenset) -> tuple:
    """``:X_ground:`` as terms ``(c, B, blocks)``, each ``c X^B prod kappa(blocks)``.

    Solves ``X^A = sum_{B subset A} :X_B: sum_{pi partition of A\\B} prod
    kappa(pi)`` for ``:X_A:``, smallest subsets first.
    """
    terms = {(ground, frozenset()): Fraction(1)}
    for r in range(len(ground)):
        for B in map(frozenset, itertools.combinations(ground, r)):
            for c, mono, kappas in wick_expand(B):
                for pi in iter_partitions(ground - B):
                    key = (mono, kappas | frozenset(pi))
                    terms[key] = terms.get(key, 0) - c
    return tuple((c, mono, kappas) for (mono, kappas), c in terms.items())


def wick_expectation(expansions, table):
    """E[prod_k :X_{B_k}:] for disjoint ``B_k``, multiplied out term by term."""
    total = 0
    for combo in itertools.product(*expansions):
        value = moments_from_cumulants(table, frozenset().union(*(m for _, m, _ in combo)))
        for c, _, kappas in combo:
            value *= c * prod(table[block] for block in kappas)
        total += value
    return total


def random_table(keys, rng, centred=False):
    """Random small rationals on every subset; 0 on singletons if centred."""
    keys = sorted(keys)
    return {frozenset(combo): Fraction(0) if centred and r == 1
            else Fraction(rng.randint(-6, 6), rng.randint(1, 4))
            for r in range(1, len(keys) + 1)
            for combo in itertools.combinations(keys, r)}


def grid(m, p):
    return [IndexKey(copy=k, slot=i) for k in range(1, p + 1) for i in range(1, m + 1)]


class TestPartitions:
    def test_three_elements(self):
        parts = list(iter_partitions({1, 2, 3}))
        assert len(parts) == 5

    def test_singleton(self):
        assert list(iter_partitions({1})) == [(frozenset({1}),)]

    def test_four_elements_exhaustive(self):
        parts = list(iter_partitions({1, 2, 3, 4}))
        assert len(parts) == 15
        # each partition covers the ground set and appears exactly once
        assert all(frozenset().union(*p) == frozenset({1, 2, 3, 4}) for p in parts)
        assert len({frozenset(p) for p in parts}) == 15

    def test_counts_match_bell(self):
        for n in range(7):
            assert len(list(iter_partitions(range(n)))) == BELL[n]

    def test_cap(self):
        with pytest.raises(SizeLimitError):
            list(iter_partitions(range(13)))


class TestCumulantInversion:
    def test_gaussian_wick_theorem(self):
        # only pair cumulants: E[X^4] = sum over 3 pairings = 3 c^2
        c = Fraction(2, 5)
        table = {frozenset(s): c if r == 2 else Fraction(0)
                 for r in range(1, 5) for s in itertools.combinations(range(1, 5), r)}
        assert moments_from_cumulants(table, {1, 2, 3, 4}) == 3 * c * c

    def test_centred_first_moment(self):
        c = Fraction(4, 3)
        table = {frozenset({1}): Fraction(0), frozenset({2}): Fraction(0),
                 frozenset({1, 2}): c}
        assert moments_from_cumulants(table, set()) == 1
        assert moments_from_cumulants(table, {1}) == 0
        assert moments_from_cumulants(table, {1, 2}) == c


class TestWickProducts:
    def test_single_variable(self):
        # :X_1: = X_1 - kappa_1; for centred tables the kappa term evaluates to 0
        assert {mono for _, mono, _ in wick_expand(frozenset({1}))} == \
            {frozenset({1}), frozenset()}

    def test_pair_structure(self):
        terms = wick_expand(frozenset({1, 2}))
        assert [(c, kappas) for c, mono, kappas in terms if mono == {1, 2}] == \
            [(1, frozenset())]
        table = {frozenset({1}): Fraction(0), frozenset({2}): Fraction(0),
                 frozenset({1, 2}): Fraction(4, 3)}
        # :X1 X2: = X1 X2 - E[X1 X2] for centred variables
        assert wick_expectation([terms], table) == 0

    def test_triple_against_hand_expansion(self):
        rng = random.Random(3)
        table = random_table([1, 2, 3], rng, centred=True)
        # E[:X1X2X3:] = m123 - sum_i m_i kappa_jk - kappa_123 vanishes
        # because centred implies m123 = kappa_123 and m_i = 0.
        assert wick_expectation([wick_expand(frozenset({1, 2, 3}))], table) == 0

    def test_expectation_vanishes_up_to_five(self):
        rng = random.Random(5)
        for n in range(1, 6):
            # non-centred tables: first cumulants too
            table = random_table(range(n), rng, centred=False)
            assert wick_expectation([wick_expand(frozenset(range(n)))], table) == 0


class TestWickPartitions:
    def test_one_slot_two_copies(self):
        parts = list(iter_wick_partitions(1, 2))
        assert len(parts) == 1
        assert parts == [((IndexKey(1, 1), IndexKey(2, 1)),)]

    def test_two_by_two(self):
        parts = list(iter_wick_partitions(2, 2))
        assert len(parts) == 3
        sizes = sorted(sorted(len(b) for b in p) for p in parts)
        assert sizes == [[2, 2], [2, 2], [4]]

    def test_single_copy_empty(self):
        assert list(iter_wick_partitions(2, 1)) == []

    def test_matches_filtering(self):
        # every grid of at most 9 slots, where the deficit pruning cuts
        for m, p in [(m, p) for p in range(2, 10) for m in range(1, 9 // p + 1)]:
            parts = list(iter_wick_partitions(m, p))
            direct = [frozenset(map(frozenset, pt)) for pt in parts]
            filtered = {
                frozenset(pi) for pi in iter_partitions(grid(m, p))
                if all(len({key.copy for key in b}) >= 2 for b in pi)
            }
            assert len(direct) == len(set(direct))
            assert set(direct) == filtered
            # each key once; restricted-growth order: keys in grid order
            # within a block, blocks in the order of their first keys
            assert all(sum(map(len, pt)) == m * p for pt in parts)
            assert all(list(b) == sorted(b) for pt in parts for b in pt)
            assert all([b[0] for b in pt] == sorted(b[0] for b in pt) for pt in parts)

    def test_size_cap_fails_fast(self):
        for m, p in [(4, 4), (13, 1), (1, 13), (5, 3)]:
            it = iter_wick_partitions(m, p)
            with pytest.raises(SizeLimitError, match=f"{m} slots x {p} copies"):
                next(it)
        for m, p in [(4, 3), (3, 4), (6, 2), (2, 6)]:
            assert next(iter_wick_partitions(m, p))


class TestDiagramFormula:
    def test_single_partition_case(self):
        value = Fraction(9, 2)
        table = {frozenset({IndexKey(1, 1), IndexKey(2, 1)}): value}
        assert sum(prod(table[frozenset(b)] for b in pi)
                   for pi in iter_wick_partitions(1, 2)) == value

    def test_gaussian_two_by_two(self):
        # all four variables are the same Gaussian with variance sigma^2:
        # the two cross pairings contribute 2 sigma^4
        sigma2 = Fraction(3, 2)
        table = {frozenset(s): sigma2 if r == 2 else Fraction(0)
                 for r in range(2, 5) for s in itertools.combinations(grid(2, 2), r)}
        assert sum(prod(table[frozenset(b)] for b in pi)
                   for pi in iter_wick_partitions(2, 2)) == 2 * sigma2 * sigma2

    def test_gaussian_excludes_same_copy_pairs(self):
        # distinct variances across copies: result must only use cross pairs
        rng = random.Random(13)
        table = {frozenset(s): Fraction(rng.randint(1, 9), 2) if r == 2 else Fraction(0)
                 for r in range(2, 5) for s in itertools.combinations(grid(2, 2), r)}
        a1, a2 = IndexKey(1, 1), IndexKey(1, 2)
        b1, b2 = IndexKey(2, 1), IndexKey(2, 2)
        expected = (
            table[frozenset({a1, b1})] * table[frozenset({a2, b2})]
            + table[frozenset({a1, b2})] * table[frozenset({a2, b1})]
        )
        assert sum(prod(table[frozenset(b)] for b in pi)
                   for pi in iter_wick_partitions(2, 2)) == expected

    @pytest.mark.parametrize("m,p", [(1, 2), (1, 3), (1, 4), (2, 2), (2, 3), (2, 4)])
    def test_matches_bruteforce_exactly(self, m, p):
        rng = random.Random(100 * m + p)
        table = random_table(grid(m, p), rng, centred=True)
        diagram = sum(prod(table[frozenset(b)] for b in pi) for pi in iter_wick_partitions(m, p))
        factors = [wick_expand(frozenset(IndexKey(k, i) for i in range(1, m + 1)))
                   for k in range(1, p + 1)]
        assert diagram == wick_expectation(factors, table)
