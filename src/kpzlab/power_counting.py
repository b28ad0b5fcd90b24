"""Scale allocation rules and the divergence/decay conditions on graphs.

On a partial graph ``H`` the local condition (A) bounds every subgraph's
internal label weight, after the neighbour-count corrections ``c_e``, and
the decay condition (B) bounds from below the label weight meeting every
subgraph that avoids the star set.  On a contracted graph the glued
vertices first donate their collapse factor to incident edges through an
allocation rule, and the resulting labels ``a_e`` must satisfy the same
two kinds of inequalities subset by subset.

All four conditions read one exact integer scan.  A graph's labels ``q +
r*delta`` are scaled to a common denominator and merged per vertex pair;
one zeta transform of the int64 rows gives the weight inside every vertex
subset (bitmask), and the weight meeting a subset is the total less the
weight inside its complement.  Each condition is then a mask predicate on
these rows, with one "not strictly below" and one "not strictly above"
test.  Weights that could leave int64 raise ``OverflowError``; a scan of
more than ``SUBSET_WORK_CAP`` work items raises ``cumulants.SizeLimitError``
before anything is built.  Conditions A and B report every failing subset,
sorted by (size, names); ``check_contracted`` reports the smallest failing
subset of each condition, and builds what the contractions of one source
graph share once, into a cached template that holds no results.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, lcm
from typing import Sequence

import numpy as np

from .cumulants import SizeLimitError, _check_count
from .graphs import (
    ContractedGraph,
    LabelValue,
    PartialGraph,
    ZERO_LABEL,
    iter_contractions,
)

__all__ = [
    "S_DIM",
    "UnsupportedConfigurationError",
    "KPZAllocationRule",
    "kpz_allocation",
    "allocation_assignment",
    "Witness",
    "ConditionReport",
    "c_e_weight_value",
    "check_condition_A",
    "check_condition_B",
    "homogeneity_exponent",
    "check_contracted",
    "check_admissible",
    "SUBSET_WORK_CAP",
]

#: A single contracted-graph subset scan may cost at most 2**24 work items
#: (2**nv subsets times nv zeta steps), so at most 19 vertices.
SUBSET_WORK_CAP = 2 ** 24

_INT64_MAX = int(np.iinfo(np.int64).max)

#: The effective dimension |s| = 2 + 1 of the parabolic scaling s = (2, 1)
#: in one space dimension.
S_DIM = Fraction(3)


class UnsupportedConfigurationError(ValueError):
    """Raised for vertex configurations the allocation rule cannot handle."""


class KPZAllocationRule:
    """Per-vertex distribution of the collapse factor onto incident edges.

    Vertices of degree two give nothing away.  A degree-three vertex with a
    double edge puts everything on the double edge; every other vertex
    spreads its factor evenly.
    """

    def group_values(self, multiplicities: Sequence[int]) -> tuple[Fraction, ...]:
        """Per-edge value for each neighbour group of an ex-vertex.

        ``multiplicities[i]`` is the number of parallel edges to the i-th
        distinct neighbour; the return value is parallel to it.  The values
        depend on the tuple alone and are computed once per tuple.
        """
        return self._values(tuple(multiplicities))

    @staticmethod
    @functools.cache
    def _values(mults: tuple[int, ...]) -> tuple[Fraction, ...]:
        deg = sum(mults)
        if deg < 2:
            raise UnsupportedConfigurationError("glued vertices have degree >= 2")
        if deg == 2:
            return tuple(Fraction(0) for _ in mults)
        if deg == 3:
            if len(mults) == 3:
                return tuple(S_DIM / 6 for _ in mults)
            if sorted(mults) == [1, 2]:
                return tuple(S_DIM / 4 if m == 2 else Fraction(0) for m in mults)
            raise UnsupportedConfigurationError(
                "degree-3 vertex with a triple edge is not supported"
            )
        even = Fraction(deg - 2, 2) * S_DIM / deg
        return tuple(even for _ in mults)


def kpz_allocation(
    G: ContractedGraph, v: str, rule: KPZAllocationRule
) -> dict[int, Fraction]:
    """Allocation values for the edges at ex-vertex ``v`` of ``G``.

    Returns ``{edge index in G.edge_list(): value}``.
    """
    edges = G.edge_list()
    groups: dict[str, list[int]] = {}
    for i, e in enumerate(edges):
        if e.touches(v):
            groups.setdefault(e.v if e.u == v else e.u, []).append(i)
    if not groups:
        raise KeyError(f"{v!r} is not a vertex of the contracted graph")
    order = sorted(groups)
    values = rule.group_values([len(groups[n]) for n in order])
    out: dict[int, Fraction] = {}
    for neighbour, value in zip(order, values):
        for i in groups[neighbour]:
            out[i] = value
    return out


def allocation_assignment(
    G: ContractedGraph, rule: KPZAllocationRule
) -> dict[tuple[str, int], Fraction]:
    """Full map (ex-vertex, edge index) -> allocation value."""
    out: dict[tuple[str, int], Fraction] = {}
    for v in G.ex_vertices:
        for i, value in kpz_allocation(G, v, rule).items():
            out[(v, i)] = value
    return out


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Witness:
    subset: tuple[str, ...]
    lhs: LabelValue
    rhs: LabelValue
    condition: str

    def to_record(self) -> dict:
        return {
            "subset": list(self.subset),
            "lhs": str(self.lhs),
            "rhs": str(self.rhs),
            "condition": self.condition,
        }


@dataclass(frozen=True)
class ConditionReport:
    graph: str
    condition: str
    verdict: bool
    exponent: LabelValue | None = None
    witnesses: tuple[Witness, ...] = ()

    def to_record(self) -> dict:
        rec = {
            "graph": self.graph,
            "condition": self.condition,
            "verdict": "pass" if self.verdict else "fail",
            "exponent": None if self.exponent is None else str(self.exponent),
            "witnesses": [w.to_record() for w in self.witnesses],
        }
        return rec


# ---------------------------------------------------------------------------
# Subgraph corrections c_e on a partial graph
# ---------------------------------------------------------------------------

def c_e_weight_value(n_ext: int, same_neighbour: bool, contains_origin: bool) -> Fraction:
    """Closed-form per-edge correction for a subgraph with ``n_ext`` externals."""
    if contains_origin:
        return S_DIM / 2
    if n_ext <= 1:
        return Fraction(0)
    if n_ext == 2:
        return S_DIM / 4 if same_neighbour else S_DIM / 6
    return S_DIM * Fraction(n_ext - 1, 2 * (n_ext + 1))


# ---------------------------------------------------------------------------
# Integer subset scans
# ---------------------------------------------------------------------------

def _check_scan_size(nv: int) -> None:
    """Refuse a scan of more than ``SUBSET_WORK_CAP`` work items."""
    if (1 << nv) * nv > SUBSET_WORK_CAP:
        raise SizeLimitError(
            f"subset scan on {nv} vertices exceeds the work cap {SUBSET_WORK_CAP}"
        )


def _scan(nv: int, denom: int, merged: dict[int, Sequence[int]], slack: int):
    """The integer subset scan of a graph's merged edges, shared by all four conditions.

    ``merged`` maps each edge's two-vertex mask to its integer rows (q, r
    and any extra row) at the common denominator ``denom``.  Unless the q
    row's absolute sum plus ``slack`` (what a condition may subtract from
    it), the r row's and ``|s| * nv`` fit in int64 it raises
    ``OverflowError``.  Returns every mask, its size, its inside rows (one
    zeta pass) and its meeting (q, r) rows: the total less the rows inside
    its complement ``2**nv - 1 - m``, read by reversing.
    """
    rows = list(zip(*merged.values()))
    if max(sum(map(abs, rows[0])) + slack, sum(map(abs, rows[1])),
           int(S_DIM * denom) * nv) > _INT64_MAX:
        raise OverflowError(
            f"labels scaled by their common denominator {denom} overflow int64"
        )
    inside = np.zeros((len(rows), 1 << nv), dtype=np.int64)
    inside[:, list(merged)] = rows
    # subset-sum (zeta) transform of all rows at once: a row's length is a
    # multiple of every block, so the blocks never straddle two rows
    for bit in range(nv):
        view = inside.reshape(-1, 2, 1 << bit)
        view[:, 1] += view[:, 0]
    masks = np.arange(1 << nv, dtype=np.int64)
    return (masks, np.bitwise_count(masks).astype(np.int64), inside,
            inside[:2, -1:] - inside[:2, ::-1])


def _not_below(q: np.ndarray, r: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Where ``q + r*delta`` is not strictly below ``rhs``."""
    return (q > rhs) | ((q == rhs) & (r >= 0))


def _not_above(q: np.ndarray, r: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Where ``q + r*delta`` is not strictly above ``rhs``."""
    return (q < rhs) | ((q == rhs) & (r <= 0))


def _witness(mask: int, names: Sequence[str], lhs_q: np.ndarray, lhs_r: np.ndarray,
             rhs: np.ndarray, denom: int, condition: str) -> Witness:
    """The failing subset ``mask``, its vertices in bit order, with both sides."""
    return Witness(
        tuple(name for i, name in enumerate(names) if mask >> i & 1),
        LabelValue(Fraction(int(lhs_q[mask]), denom), Fraction(int(lhs_r[mask]), denom)),
        LabelValue.coerce(Fraction(int(rhs[mask]), denom)),
        condition,
    )


def _partial_scan(H: PartialGraph, values: Sequence[Fraction]):
    """The integer subset scan of ``H``, shared by conditions A and B.

    Vertex ``i`` is ``names[i]``, the names in sorted order, so a mask
    lists its subset as a witness reports it.  Labels and ``values`` are
    scaled to their common denominator ``denom``.  Returns ``names``,
    ``denom``, the scaled values, every mask, and per mask its size, its
    internals, its externals, its (q, r, count) inside rows (the label
    weight inside it and the externals whose one edge lies inside it) and
    its meeting (q, r) rows.  A scan of more than ``SUBSET_WORK_CAP`` work
    items raises ``SizeLimitError`` before anything is built; unless the
    label sums less the largest value once per external, and ``|s| *
    #vertices``, fit in int64 it raises ``OverflowError``.
    """
    names = tuple(sorted(H.vertex_ids))
    nv = len(names)
    _check_scan_size(nv)
    bit = {v: 1 << i for i, v in enumerate(names)}
    kinds = H.kind_map
    denom = lcm(*(x.denominator for e in H.edges for x in (e.label.q, e.label.r)),
                *(x.denominator for x in values))
    merged: dict[int, list[int]] = {}  # parallel edges share a mask
    for e in H.edges:
        sums = merged.setdefault(bit[e.u] | bit[e.v], [0, 0, 0])
        sums[0] += int(e.label.q * denom)
        sums[1] += int(e.label.r * denom)
        sums[2] += "external" in (kinds[e.u], kinds[e.v])
    scaled = [int(x * denom) for x in values]
    masks, sizes, inside, meet = _scan(nv, denom, merged, max(scaled) * len(H.external_ids))
    counts = [np.bitwise_count(masks & sum(bit[v] for v in vs)).astype(np.int64)
              for vs in (H.internal_ids, H.external_ids)]
    return names, denom, scaled, masks, sizes, *counts, inside, meet


# ---------------------------------------------------------------------------
# Conditions on a partial graph
# ---------------------------------------------------------------------------

def _partial_report(H: PartialGraph, condition: str, bad: np.ndarray, names, lhs_q: np.ndarray,
                    lhs_r: np.ndarray, rhs: np.ndarray, denom: int) -> ConditionReport:
    """Every failing subset as a witness, sorted by (size, names)."""
    witnesses = [_witness(int(m), names, lhs_q, lhs_r, rhs, denom, condition)
                 for m in np.flatnonzero(bad)]
    witnesses.sort(key=lambda w: (len(w.subset), w.subset))
    return ConditionReport(H.name, condition, not witnesses, homogeneity_exponent(H),
                           tuple(witnesses))


def check_condition_A(H: PartialGraph) -> ConditionReport:
    """Local integrability condition over all subgraphs of ``H``.

    For every subset with at least two vertices and an internal vertex,
    the corrected internal label weight must stay strictly below
    ``|s| * (#internal - [subset inside internal part])``.  The correction
    of a subset ``S`` is ``c_e_weight_value(#externals in S, same
    neighbour, origin in S)`` on each external edge inside ``S``.

    One integer zeta scan gives, for every subset at once, the label
    weight inside it and the number of externals whose edge lies inside
    it; the correction is that number times the subset's ``c_e`` value.
    Every failing subset is a witness, its vertices sorted by name, and
    the witnesses are sorted by (size, names).  A graph of more than
    ``SUBSET_WORK_CAP`` work items raises ``SizeLimitError`` before the
    scan, and labels whose scaled sums leave int64 raise ``OverflowError``.
    """
    n_ext = len(H.external_ids)
    # every c_e case, at index n + (n_ext + 1) * (same + 2 * origin)
    cases = [(n, same, origin) for origin in (False, True) for same in (False, True)
             for n in range(n_ext + 1)]
    names, denom, c_e, masks, sizes, n_in, n_ex, (inside_q, inside_r, kept), _ = \
        _partial_scan(H, [c_e_weight_value(*case) for case in cases])
    bit = {v: 1 << i for i, v in enumerate(names)}
    neighbour = {v: H.incident(v)[0].other(v) for v in H.external_ids}
    pairs = [bit[a] | bit[b] for a, b in itertools.combinations(H.external_ids, 2)
             if neighbour[a] == neighbour[b]]
    same = np.isin(masks & sum(bit[v] for v in H.external_ids), pairs)
    origin = (masks & bit[H.origin]) != 0
    lhs_q = inside_q - np.array(c_e)[n_ex + (n_ext + 1) * (same + 2 * origin)] * kept
    rhs = int(S_DIM * denom) * (n_in - (n_in == sizes))
    bad = (sizes >= 2) & (n_in > 0) & _not_below(lhs_q, inside_r, rhs)
    return _partial_report(H, "local-integrability", bad, names, lhs_q, inside_r, rhs, denom)


def check_condition_B(H: PartialGraph) -> ConditionReport:
    """Large-scale decay condition over subgraphs avoiding the star set.

    Every non-empty subset of ``H`` minus the origin and star vertex must
    meet edges of total label weight strictly above
    ``|s| * (#internal + #external / 2)``.

    One integer zeta scan gives every subset's inside weight; the weight
    meeting a subset is the total less the weight inside its complement.
    Witnesses, size cap and int64 guard are those of ``check_condition_A``.
    """
    names, denom, (half_s,), masks, sizes, n_in, n_ex, _, (meet_q, meet_r) = \
        _partial_scan(H, [S_DIM / 2])
    rhs = half_s * (2 * n_in + n_ex)
    starred = sum(1 << names.index(v) for v in (H.origin, H.star))
    bad = ((masks & starred) == 0) & (sizes >= 1) & _not_above(meet_q, meet_r, rhs)
    return _partial_report(H, "large-scale-decay", bad, names, meet_q, meet_r, rhs, denom)


def homogeneity_exponent(H: PartialGraph) -> LabelValue:
    """The scaling exponent ``|s| (|ext|/2 + |in \\ star|) - sum of labels``."""
    n_ext = len(H.external_ids)
    n_in_free = len(H.internal_ids) - 1  # the star vertex does not count
    total = H.label_sum()
    return LabelValue.coerce(S_DIM * (Fraction(n_ext, 2) + n_in_free)) - total


# ---------------------------------------------------------------------------
# Contracted-graph checker
# ---------------------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class _SourceTemplate:
    """What every contraction of ``p`` copies of ``source`` shares.

    Vertex ``i`` of a contraction is ``names[i]`` for ``i < len(names)``
    (the origin, then the internals copy by copy) and the ex-vertex
    ``x{i - len(names)}`` beyond.  Labels are integers at the common
    denominator ``denom`` of the source's labels.
    """

    source: PartialGraph
    names: tuple[str, ...]
    #: position of ``names[i]`` in ``sorted(names)``
    rank: tuple[int, ...]
    star_mask: int
    denom: int
    #: (pair bit, q, r) of the internal edges of all copies, parallel ones merged
    inner: tuple[tuple[int, int, int], ...]
    #: (copy, external id) -> (neighbour's index, q, r) of the slot's edge
    slots: dict[tuple[int, str], tuple[int, int, int]]
    #: glued class -> its neighbour profile, filled by :func:`_class_profile`
    profiles: dict[frozenset, tuple] = field(default_factory=dict)


#: Templates by ``(id(source), p)``.  Each keeps its source alive, so no
#: other graph can take that id while it is cached.  A template holds a few
#: hundred integers and the profiles of at most ``_PROFILE_CACHE_SIZE``
#: glued classes; beyond ``_TEMPLATE_CACHE_SIZE`` the oldest is dropped.
_TEMPLATES: dict[tuple[int, int], _SourceTemplate] = {}
_TEMPLATE_CACHE_SIZE = 256
_PROFILE_CACHE_SIZE = 2 ** 12


def _template(H: PartialGraph, p: int) -> _SourceTemplate:
    key = (id(H), p)
    t = _TEMPLATES.get(key)
    if t is None:
        if len(_TEMPLATES) >= _TEMPLATE_CACHE_SIZE:
            del _TEMPLATES[next(iter(_TEMPLATES))]
        t = _TEMPLATES[key] = _build_template(H, p)
    return t


def _build_template(H: PartialGraph, p: int) -> _SourceTemplate:
    kinds = H.kind_map
    internals = H.internal_ids
    index = {(k, H.origin): 0 for k in range(1, p + 1)}
    names = [ContractedGraph.ORIGIN]
    for k in range(1, p + 1):
        for v in internals:
            index[(k, v)] = len(names)
            names.append(ContractedGraph.in_vertex(k, v))
    denom = lcm(*(x.denominator for e in H.edges for x in (e.label.q, e.label.r)))
    inner: dict[int, list[int]] = {}
    slots: dict[tuple[int, str], tuple[int, int, int]] = {}
    for k in range(1, p + 1):
        for e in H.edges:
            q = e.label.q.numerator * (denom // e.label.q.denominator)
            r = e.label.r.numerator * (denom // e.label.r.denominator)
            if kinds[e.u] == "external" or kinds[e.v] == "external":
                ext, other = (e.u, e.v) if kinds[e.u] == "external" else (e.v, e.u)
                slots[(k, ext)] = (index[(k, other)], q, r)
            else:
                bit = (1 << index[(k, e.u)]) | (1 << index[(k, e.v)])
                merged = inner.setdefault(bit, [0, 0])
                merged[0] += q
                merged[1] += r
    position = {name: i for i, name in enumerate(sorted(names))}
    return _SourceTemplate(
        source=H,
        names=tuple(names),
        rank=tuple(position[name] for name in names),
        star_mask=1 | sum(1 << index[(k, H.star)] for k in range(1, p + 1)),
        denom=denom,
        inner=tuple((bit, q, r) for bit, (q, r) in inner.items()),
        slots=slots,
    )


def _class_profile(t: _SourceTemplate, cls: frozenset):
    """A glued class's slots grouped by neighbour: ``(counts, groups)``.

    ``groups`` maps each neighbour's index to its (edge count, q sum, r
    sum), in the order of the neighbours' names, and ``counts`` lists the
    edge counts in that order.  It depends on the class and the template
    alone, so it is built once per template; a full table is emptied first.
    """
    profile = t.profiles.get(cls)
    if profile is None:
        groups: dict[int, tuple[int, int, int]] = {}
        for slot in cls:
            n, q, r = t.slots[slot]
            count, q_sum, r_sum = groups.get(n, (0, 0, 0))
            groups[n] = (count + 1, q_sum + q, r_sum + r)
        groups = {n: groups[n] for n in sorted(groups, key=t.rank.__getitem__)}
        if len(t.profiles) >= _PROFILE_CACHE_SIZE:
            t.profiles.clear()
        profile = t.profiles[cls] = (tuple(count for count, _, _ in groups.values()), groups)
    return profile


def check_contracted(G: ContractedGraph, rule: KPZAllocationRule) -> ConditionReport:
    """Both subset conditions on the merged contracted graph.

    Edge weights are ``a_e = m_e - b_e`` for edges at a glued vertex (with
    the rule's allocation) and ``a_e = m_e`` otherwise; parallel edges merge
    by summing.  Also reports the total scaling exponent
    ``alpha = |s| |V \\ V_star| - sum a_e``.

    Everything but the gluing is shared by the contractions of one source
    graph at one ``p``, so it is built once into a cached template: the
    vertex layout, the internal edges of all copies merged into integer
    (q, r) sums at the common denominator of the source's labels, and for
    every external slot its neighbour and integer label.  The cache holds
    only this structure, never a result; each glued class's slots grouped
    by neighbour join it the first time the class is met.  A call takes the
    rule's values group by group in the order of the neighbours' names (the
    values ``kpz_allocation`` gives), and rescales every merged weight to
    the lowest denominator that makes them all integers.  Both conditions
    then read the shared subset scan.  A scan of more than
    ``SUBSET_WORK_CAP`` work items raises ``SizeLimitError`` before
    anything is built, and weights that leave int64 raise
    ``OverflowError``.
    """
    H, p, classes = G.source, G.p, G.classes
    n_fixed = 1 + p * len(H.internal_ids)
    nv = n_fixed + len(classes)
    _check_scan_size(nv)
    t = _template(H, p)
    # as many slots as the template, and no slot in two classes
    if (sum(map(len, classes)) != len(t.slots)
            or len(frozenset().union(*classes)) != len(t.slots)):
        raise KeyError(f"the classes of {H.name}[p={p}] do not glue every external once")
    # (pair bit, edge count, q and r at t.denom, rule's value) per merged ex-edge
    ex_edges = []
    denom = t.denom
    for i, cls in enumerate(classes):
        counts, groups = _class_profile(t, cls)
        x = 1 << (n_fixed + i)
        for (n, sums), value in zip(groups.items(), rule.group_values(counts)):
            ex_edges.append((x | 1 << n, *sums, value))
            denom = lcm(denom, value.denominator)
    k = denom // t.denom
    merged = {bit: (q * k, r * k) for bit, q, r in t.inner}
    for bit, count, q, r, b in ex_edges:
        merged[bit] = (q * k - count * b.numerator * (denom // b.denominator), r * k)
    common = gcd(denom, *itertools.chain.from_iterable(merged.values()))
    if common > 1:
        denom //= common
        merged = {bit: (q // common, r // common) for bit, (q, r) in merged.items()}
    masks, sizes, (inside_q, inside_r), (meet_q, meet_r) = _scan(nv, denom, merged, 0)
    s_scaled = int(S_DIM * denom)
    names = t.names + G.ex_vertices
    witnesses: list[Witness] = []

    def smallest(bad: np.ndarray) -> int:
        order = np.flatnonzero(bad)
        return int(order[np.argmin(sizes[order])])

    # condition 1: strict upper bound on interior weight, |S| >= 2
    rhs1 = s_scaled * (sizes - 1)
    bad1 = (sizes >= 2) & _not_below(inside_q, inside_r, rhs1)
    if bad1.any():
        witnesses.append(_witness(smallest(bad1), names, inside_q, inside_r, rhs1, denom,
                                  "glued-local-integrability"))
    # condition 2: strict lower bound on meeting weight, S avoiding the stars
    rhs2 = s_scaled * sizes
    bad2 = ((masks & t.star_mask) == 0) & (sizes >= 1) & _not_above(meet_q, meet_r, rhs2)
    if bad2.any():
        witnesses.append(_witness(smallest(bad2), names, meet_q, meet_r, rhs2, denom,
                                  "glued-large-scale-decay"))

    n_free = nv - (1 + p)  # the origin and each copy's star are starred
    alpha = LabelValue(Fraction(s_scaled * n_free - int(inside_q[-1]), denom),
                       Fraction(-int(inside_r[-1]), denom))
    return ConditionReport(
        graph=f"{H.name}[p={p}]",
        condition="glued-graph",
        verdict=not witnesses,
        exponent=alpha,
        witnesses=tuple(sorted(witnesses, key=lambda w: (len(w.subset), w.subset))),
    )


# ---------------------------------------------------------------------------
# Admissibility of an allocation rule
# ---------------------------------------------------------------------------

def _profile_checks(rule: KPZAllocationRule, mults: tuple[int, ...]) -> list[str]:
    """Budget identity and subset floor for one vertex profile."""
    failures = []
    values = rule.group_values(mults)
    deg = sum(mults)
    total = sum(m * v for m, v in zip(mults, values))
    if total != Fraction(deg - 2, 2) * S_DIM:
        failures.append(f"budget identity fails on profile {mults}")
    per_edge = sorted(v for m, v in zip(mults, values) for _ in range(m))
    prefix = Fraction(0)
    for a in range(1, deg + 1):
        prefix += per_edge[a - 1]
        if prefix < Fraction(a - 2, 2) * S_DIM:
            failures.append(f"subset floor fails on profile {mults} at size {a}")
            break
    return failures


def _pair_checks(rule: KPZAllocationRule, counts: list[tuple[int, int]]) -> list[str]:
    """Monotonicity and transfer bound for merging two vertex profiles.

    ``counts`` holds (edges from v1, edges from v2) per shared neighbour
    key; merging adds them.
    """
    failures = []
    m1 = tuple(c1 for c1, _ in counts if c1 > 0)
    m2 = tuple(c2 for _, c2 in counts if c2 > 0)
    merged = tuple(c1 + c2 for c1, c2 in counts)
    try:
        v1 = rule.group_values(m1)
        v2 = rule.group_values(m2)
        vm = rule.group_values(merged)
    except UnsupportedConfigurationError:
        return [f"unsupported configuration in merge {counts}"]
    i1 = iter(v1)
    i2 = iter(v2)
    transfer = Fraction(0)
    for (c1, c2), bm in zip(counts, vm):
        b1 = next(i1) if c1 > 0 else None
        b2 = next(i2) if c2 > 0 else None
        for count, b in ((c1, b1), (c2, b2)):
            if count > 0:
                if bm < b:
                    failures.append(f"monotonicity fails on merge {counts}")
                    return failures
                transfer += count * max(Fraction(0), bm - b)
    # the worst subset pair takes every edge whose value increased
    if transfer > S_DIM:
        failures.append(f"transfer bound fails on merge {counts}")
    return failures


def check_admissible(
    rule: KPZAllocationRule, H: PartialGraph, p_max: int = 3
) -> ConditionReport:
    """Admissibility of the allocation rule over all gluings of ``H``.

    For every contraction with ``2 <= p <= p_max`` this verifies, for every
    glued vertex, the budget identity and the subset floor, and for every
    single pairwise identification of glued vertices the monotonicity and
    transfer bound.  The checks depend only on local edge-multiplicity
    profiles, so the scan over all contractions is exact but fast: each
    glued class's profile is read from the template ``check_contracted``
    shares, a class or ordered class pair met before is skipped, and each
    distinct profile and pair of counts is checked once.  ``p_max < 2``
    raises ``ValueError``: it leaves no gluing; so does a ``p_max`` that is
    not an integer.
    """
    _check_count("p_max", p_max)
    if p_max < 2:
        raise ValueError("admissibility needs p_max >= 2")
    failures: list[str] = []
    seen_single: set = set()
    seen_pair: set = set()
    n_contractions = 0
    for p in range(2, p_max + 1):
        t = _template(H, p)
        known: set = set()  # classes and ordered class pairs already checked
        for G in iter_contractions(H, p):
            n_contractions += 1
            for cls in G.classes:
                if cls in known:
                    continue
                known.add(cls)
                key = tuple(sorted(_class_profile(t, cls)[0]))
                if key in seen_single:
                    continue
                seen_single.add(key)
                failures.extend(_profile_checks(rule, key))
            for pair in itertools.combinations(G.classes, 2):
                if pair in known:
                    continue
                known.add(pair)
                g1, g2 = (_class_profile(t, cls)[1] for cls in pair)
                counts = tuple(sorted((g1[n][0] if n in g1 else 0, g2[n][0] if n in g2 else 0)
                                      for n in g1.keys() | g2.keys()))
                if counts in seen_pair:
                    continue
                seen_pair.add(counts)
                failures.extend(_pair_checks(rule, list(counts)))
    witnesses = tuple(
        Witness((msg,), ZERO_LABEL, ZERO_LABEL, "admissibility") for msg in failures
    )
    return ConditionReport(
        graph=H.name,
        condition=f"allocation-admissibility[p<={p_max}, {n_contractions} gluings]",
        verdict=not failures,
        exponent=None,
        witnesses=witnesses,
    )
