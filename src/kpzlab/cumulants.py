"""The partitions that survive the diagram formula.

The expectation of a product of ``p`` Wick products, each of ``m``
variables, is a sum over partitions of the ``m * p`` variables of products
of joint cumulants, one per block.  A block lying inside one Wick factor
cancels against that factor's Wick subtraction, so only the partitions
whose every block mixes at least two factors survive:

    E[prod_{k<=p} :prod_{i<=m} X_(i,k):] = sum over mixing pi of prod_{A in pi} kappa(A)

``iter_wick_partitions`` enumerates exactly those partitions, indexing the
variables by ``IndexKey(copy, slot)``: ``copy`` numbers the Wick factors
and ``slot`` the variables inside one factor.  A partition is a tuple of
blocks, each a tuple of keys in grid order (copy first, then slot), and
the blocks come in the order of their first keys.  Contractions of graphs
(``graphs.iter_contractions``) glue external vertices along them.
"""

from __future__ import annotations

import numbers
from typing import Iterator, NamedTuple

__all__ = [
    "IndexKey",
    "SizeLimitError",
    "GROUND_SET_CAP",
    "iter_wick_partitions",
]

#: Hard cap on the number of variables a partition enumeration may take.
GROUND_SET_CAP = 12


class SizeLimitError(ValueError):
    """Raised when a partition enumeration would exceed the ground-set cap."""


class IndexKey(NamedTuple):
    """Index of one variable slot inside one copy of a Wick factor."""

    copy: int
    slot: int


def _check_count(name: str, value) -> None:
    """Raise ``ValueError`` unless ``value`` is an integer."""
    if not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")


def iter_wick_partitions(m: int, p: int) -> Iterator[tuple[tuple[IndexKey, ...], ...]]:
    """Partitions of the ``m x p`` grid in which every block mixes copies.

    These are exactly the partitions surviving in the diagram formula:
    no block may consist of variables from a single Wick factor (in
    particular no singletons).  Each is a tuple of blocks in restricted-
    growth order, each block a tuple of keys in grid order.  A count that
    is not an integer raises ``ValueError`` on the first ``next()``.
    """
    _check_count("m", m)
    _check_count("p", p)
    if m < 1 or p < 1:
        raise ValueError("m and p must be >= 1")
    keys = [IndexKey(copy=k, slot=i) for k in range(1, p + 1) for i in range(1, m + 1)]
    n = len(keys)
    if n > GROUND_SET_CAP:
        raise SizeLimitError(
            f"{m} slots x {p} copies = {n} exceeds the cap {GROUND_SET_CAP}"
        )

    copies = [k.copy for k in keys]

    # Depth-first over restricted-growth assignments with pruning: a block
    # whose members all share one copy index must still grow; it can only
    # do so from elements not yet placed.
    blocks: list[list[int]] = []       # element positions per block
    needy: list[bool] = []             # block currently single-copy?

    def rec(i: int) -> Iterator[tuple]:
        if i == n:
            if not any(needy):
                yield tuple(tuple(keys[j] for j in blk) for blk in blocks)
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
