"""Exact combinatorics of set partitions, joint cumulants and Wick products.

Everything in this module is exact: coefficients are ``fractions.Fraction``
and identities (moment/cumulant inversion, vanishing expectations of Wick
products, the diagram formula) hold with zero tolerance.  Floating point
enters only if a caller supplies a float-valued cumulant table.

Conventions.  A collection of random variables is indexed by hashable keys;
for the diagram formula the keys are ``IndexKey(copy, slot)`` pairs, where
``copy`` numbers the Wick factors of a product and ``slot`` numbers the
variables inside one factor.  Moments and cumulants are linked by

    E[X^B] = sum over partitions pi of B of prod_{A in pi} kappa(A)

and the Wick product ``:X_A:`` is defined by the recursion

    X^A = sum_{B subset A} :X_B: sum_{pi partition of A\\B} prod kappa(.)

so that E[:X_A:] = 0 for every non-empty A.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Hashable, Iterable, Iterator, NamedTuple, Sequence

__all__ = [
    "IndexKey",
    "SetPartition",
    "CumulantTable",
    "WickTerm",
    "WickExpansion",
    "SizeLimitError",
    "IncompleteTableError",
    "GROUND_SET_CAP",
    "bell_number",
    "iter_partitions",
    "cumulants_from_moments",
    "moments_from_cumulants",
    "wick_expand",
    "wick_expectation",
    "iter_wick_partitions",
    "diagram_formula",
    "diagram_formula_bruteforce",
]

#: Hard cap on the ground set size for full partition enumerations.
#: Bell(12) ~ 4.2e6 is the largest enumeration we ever allow.
GROUND_SET_CAP = 12


class SizeLimitError(ValueError):
    """Raised when a partition enumeration would exceed the ground-set cap."""


class IncompleteTableError(KeyError):
    """Raised when a cumulant table has no entry for a requested subset."""


class IndexKey(NamedTuple):
    """Index of one variable slot inside one copy of a Wick factor."""

    copy: int
    slot: int


def _sort_key(x: Hashable):
    # Deterministic order for mixed ground sets (ints, strings, IndexKeys).
    return (str(type(x)), repr(x))


@dataclass(frozen=True)
class SetPartition:
    """A partition of a finite set into non-empty disjoint blocks."""

    blocks: tuple[frozenset, ...]

    def __post_init__(self) -> None:
        seen: set = set()
        for block in self.blocks:
            if not block:
                raise ValueError("partition blocks must be non-empty")
            if seen & block:
                raise ValueError("partition blocks must be disjoint")
            seen |= block

    @property
    def ground_set(self) -> frozenset:
        return frozenset().union(*self.blocks) if self.blocks else frozenset()

    def __len__(self) -> int:
        return len(self.blocks)

    def __iter__(self) -> Iterator[frozenset]:
        return iter(self.blocks)


def bell_number(n: int) -> int:
    """Number of partitions of an n-element set (Bell triangle recurrence)."""
    if n < 0:
        raise ValueError("n must be >= 0")
    row = [1]
    for _ in range(n):
        nxt = [row[-1]]
        for value in row:
            nxt.append(nxt[-1] + value)
        row = nxt
    return row[0]


def iter_partitions(ground: Iterable[Hashable]) -> Iterator[SetPartition]:
    """Yield every partition of ``ground`` exactly once, in a fixed order.

    Enumeration is by restricted-growth strings over the sorted element
    list, so the order is reproducible across runs.
    """
    elements = sorted(set(ground), key=_sort_key)
    n = len(elements)
    if n > GROUND_SET_CAP:
        raise SizeLimitError(
            f"ground set of size {n} exceeds the enumeration cap {GROUND_SET_CAP}"
        )
    if n == 0:
        yield SetPartition(())
        return

    # rgs[i] = index of the block containing elements[i]; rgs[i] <= max(rgs[:i]) + 1
    rgs = [0] * n

    def emit() -> SetPartition:
        nblocks = max(rgs) + 1
        blocks: list[list] = [[] for _ in range(nblocks)]
        for i, b in enumerate(rgs):
            blocks[b].append(elements[i])
        return SetPartition(tuple(frozenset(b) for b in blocks))

    while True:
        yield emit()
        # advance the restricted-growth string
        i = n - 1
        while i > 0:
            cap = max(rgs[:i]) + 1
            if rgs[i] < cap:
                rgs[i] += 1
                for j in range(i + 1, n):
                    rgs[j] = 0
                break
            i -= 1
        else:
            return


class CumulantTable:
    """Joint cumulants indexed by subsets of variable keys.

    The table stores one value per unordered subset; lookups are symmetric
    by construction.  ``centred=True`` declares all first cumulants to be
    zero without storing them.
    """

    def __init__(self, centred: bool = True) -> None:
        self.centred = centred
        self._values: dict[frozenset, Fraction | float] = {}

    def set(self, keys: Iterable[Hashable], value) -> None:
        self._values[frozenset(keys)] = value

    def get(self, keys: Iterable[Hashable]):
        subset = frozenset(keys)
        if subset in self._values:
            return self._values[subset]
        if self.centred and len(subset) == 1:
            return Fraction(0)
        raise IncompleteTableError(f"no cumulant stored for {sorted(map(repr, subset))}")

    def __contains__(self, keys) -> bool:
        subset = frozenset(keys)
        return subset in self._values or (self.centred and len(subset) == 1)

    @staticmethod
    def from_moment_oracle(
        moment_oracle: Callable[[frozenset], "Fraction | float"],
        ground: Iterable[Hashable],
        centred: bool = False,
    ) -> "CumulantTable":
        """Tabulate all cumulants of ``ground`` from a moment oracle."""
        table = CumulantTable(centred=centred)
        elements = sorted(set(ground), key=_sort_key)
        for r in range(1, len(elements) + 1):
            for combo in itertools.combinations(elements, r):
                table.set(combo, cumulants_from_moments(moment_oracle, combo))
        return table


def cumulants_from_moments(
    moment_oracle: Callable[[frozenset], "Fraction | float"],
    B: Iterable[Hashable],
) -> "Fraction | float":
    """Joint cumulant of the variables in ``B`` from their mixed moments.

    Inverts the moment/cumulant relation by induction on ``|B|``: the
    partition into the single block ``B`` is split off and every other
    partition contributes a product of lower-order cumulants.
    """
    ground = frozenset(B)
    cache: dict[frozenset, Fraction | float] = {}

    def kappa(subset: frozenset):
        if subset in cache:
            return cache[subset]
        value = moment_oracle(subset)
        for pi in iter_partitions(subset):
            if len(pi) == 1:
                continue
            term = 1
            for block in pi:
                term = term * kappa(block)
            value = value - term
        cache[subset] = value
        return value

    return kappa(ground)


def moments_from_cumulants(table: CumulantTable, B: Iterable[Hashable]):
    """E[X^B] as the partition sum of cumulant products."""
    ground = frozenset(B)
    if not ground:
        return Fraction(1)
    total = Fraction(0)
    for pi in iter_partitions(ground):
        term = 1
        for block in pi:
            term = term * table.get(block)
        total = total + term
    return total


@dataclass(frozen=True)
class WickTerm:
    """One term ``coefficient * X^monomial * prod_j kappa(factor_j)``."""

    monomial: frozenset
    coefficient: Fraction
    cumulant_factors: tuple[frozenset, ...]


@dataclass(frozen=True)
class WickExpansion:
    """The Wick product ``:X_ground:`` written in ordinary products."""

    ground: frozenset
    terms: tuple[WickTerm, ...]

    def expectation(self, table: CumulantTable):
        """Evaluate E[:X_ground:] through the moment/cumulant relation."""
        total = Fraction(0)
        for term in self.terms:
            value = term.coefficient * moments_from_cumulants(table, term.monomial)
            for factor in term.cumulant_factors:
                value = value * table.get(factor)
            total = total + value
        return total


def wick_expand(ground: Iterable[Hashable]) -> WickExpansion:
    """Solve the Wick recursion for ``:X_ground:`` symbolically.

    Returns a combination of terms ``c * X^B * prod kappa(A_j)`` in which
    the ``A_j`` partition ``ground \\ B``; the coefficients are the ones
    forced by the recursion (signed integers).
    """
    elements = frozenset(ground)
    if len(elements) > GROUND_SET_CAP:
        raise SizeLimitError(
            f"ground set of size {len(elements)} exceeds the cap {GROUND_SET_CAP}"
        )
    cache: dict[frozenset, dict[tuple[frozenset, tuple[frozenset, ...]], Fraction]] = {}

    def expand(subset: frozenset) -> dict:
        if subset in cache:
            return cache[subset]
        # :X_A: = X^A - sum_{B proper subset of A} :X_B: sum_pi prod kappa
        acc: dict[tuple[frozenset, tuple[frozenset, ...]], Fraction] = {
            (subset, ()): Fraction(1)
        }
        items = sorted(subset, key=_sort_key)
        for r in range(len(items)):
            for combo in itertools.combinations(items, r):
                B = frozenset(combo)
                rest = subset - B
                inner = expand(B)
                for pi in iter_partitions(rest):
                    factors = tuple(sorted(pi, key=lambda b: min(map(_sort_key, b))))
                    for (mono, kappas), coeff in inner.items():
                        key = (mono, tuple(sorted(kappas + factors,
                                                  key=lambda b: min(map(_sort_key, b)))))
                        acc[key] = acc.get(key, Fraction(0)) - coeff
        acc = {k: v for k, v in acc.items() if v != 0}
        cache[subset] = acc
        return acc

    raw = expand(elements)
    terms = tuple(
        WickTerm(monomial=mono, coefficient=coeff, cumulant_factors=kappas)
        for (mono, kappas), coeff in sorted(
            raw.items(),
            key=lambda kv: (len(kv[0][0]), sorted(map(_sort_key, kv[0][0])),
                            [sorted(map(_sort_key, f)) for f in kv[0][1]]),
        )
    )
    return WickExpansion(ground=elements, terms=terms)


def wick_expectation(expansions: Sequence[WickExpansion], table: CumulantTable):
    """E[prod_k :X_{B_k}:] for disjoint ground sets, by brute force.

    Multiplies the expansions out term by term and takes expectations of
    the resulting ordinary monomials through ``moments_from_cumulants``.
    Serves as the independent oracle for ``diagram_formula``.
    """
    grounds = [e.ground for e in expansions]
    for a, b in itertools.combinations(grounds, 2):
        if a & b:
            raise ValueError("Wick factors must have disjoint ground sets")
    total = Fraction(0)
    for combo in itertools.product(*(e.terms for e in expansions)):
        coeff = Fraction(1)
        monomial: frozenset = frozenset()
        factors: list[frozenset] = []
        for term in combo:
            coeff = coeff * term.coefficient
            monomial = monomial | term.monomial
            factors.extend(term.cumulant_factors)
        value = coeff * moments_from_cumulants(table, monomial)
        for f in factors:
            value = value * table.get(f)
        total = total + value
    return total


def iter_wick_partitions(
    m: int, p: int, D: Iterable[IndexKey] | None = None
) -> Iterator[SetPartition]:
    """Partitions in which every block mixes at least two copy indices.

    These are exactly the partitions surviving in the diagram formula:
    no block may consist of variables from a single Wick factor (in
    particular no singletons).  ``D`` defaults to the full grid
    ``{(copy, slot): 1 <= copy <= p, 1 <= slot <= m}``.
    """
    if m < 1 or p < 1:
        raise ValueError("m and p must be >= 1")
    if D is None:
        keys = [IndexKey(copy=k, slot=i) for k in range(1, p + 1) for i in range(1, m + 1)]
    else:
        keys = sorted(set(D), key=_sort_key)
        for key in keys:
            if not (1 <= key.slot <= m and 1 <= key.copy <= p):
                raise ValueError(f"index {key} outside the {m} x {p} grid")
    n = len(keys)
    if n > GROUND_SET_CAP:
        raise SizeLimitError(f"grid of size {n} exceeds the cap {GROUND_SET_CAP}")
    if n == 0:
        yield SetPartition(())
        return

    copies = [k.copy for k in keys]

    # Depth-first over restricted-growth assignments with pruning: a block
    # whose members all share one copy index must still grow; it can only
    # do so from elements not yet placed.
    blocks: list[list[int]] = []       # element positions per block
    needy: list[bool] = []             # block currently single-copy?

    def rec(i: int) -> Iterator[SetPartition]:
        if i == n:
            if not any(needy):
                yield SetPartition(tuple(
                    frozenset(keys[j] for j in blk) for blk in blocks
                ))
            return
        remaining = n - i
        deficit = sum(needy)
        # each needy block needs at least one future element; opening a new
        # block adds one more mouth to feed
        if deficit > remaining:
            return
        for b in range(len(blocks)):
            was_needy = needy[b]
            blocks[b].append(i)
            needy[b] = was_needy and copies[blocks[b][0]] == copies[i]
            yield from rec(i + 1)
            blocks[b].pop()
            needy[b] = was_needy
        if deficit + 1 <= remaining - 1:
            blocks.append([i])
            needy.append(True)
            yield from rec(i + 1)
            blocks.pop()
            needy.pop()

    yield from rec(0)


def diagram_formula(table: CumulantTable, m: int, p: int):
    """E[prod_{k<=p} :prod_{i<=m} X_(i,k):] as a sum over mixing partitions."""
    total = Fraction(0)
    for pi in iter_wick_partitions(m, p):
        term = 1
        for block in pi:
            term = term * table.get(block)
        total = total + term
    return total


def diagram_formula_bruteforce(table: CumulantTable, m: int, p: int):
    """Same expectation computed without the diagram formula (oracle)."""
    expansions = [
        wick_expand(IndexKey(copy=k, slot=i) for i in range(1, m + 1))
        for k in range(1, p + 1)
    ]
    return wick_expectation(expansions, table)
