"""Scale allocation rules and the divergence/decay conditions on graphs.

Two families of checks live here.  On a partial graph ``H`` the local
condition bounds every subgraph's internal label weight (after the
neighbour-count corrections ``c_e``) and the global condition bounds the
label weight of every subgraph avoiding the star set from below.  On a
contracted graph, the glued vertices first donate their collapse factor to
incident edges through an allocation rule; the resulting labels ``a_e``
must satisfy the same two kinds of inequalities subset by subset.

All verdicts are exact: label arithmetic is rational in ``q + r*delta``
and subset scans on contracted graphs run on integer-scaled numpy arrays.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Sequence

import numpy as np

from .graphs import (
    ContractedGraph,
    LabelValue,
    PartialGraph,
    ZERO_LABEL,
    edge_sets,
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
    "c_e_weights",
    "c_e_weight_value",
    "check_condition_A",
    "check_condition_B",
    "homogeneity_exponent",
    "check_contracted",
    "check_admissible",
    "SUBSET_WORK_CAP",
]

#: A single contracted-graph subset scan may cost at most 2**24 work items.
SUBSET_WORK_CAP = 2 ** 24

#: The effective dimension |s| = 2 + 1 of the parabolic scaling s = (2, 1)
#: in one space dimension.
S_DIM = Fraction(3)


class UnsupportedConfigurationError(ValueError):
    """Raised for vertex configurations the allocation rule cannot handle."""


def _class_profile(cls: frozenset, H: PartialGraph) -> dict:
    """Edge multiplicities of a glued class, keyed by (copy, neighbour)."""
    neighbour = {v: H.incident(v)[0].other(v) for v in H.external_ids}
    profile: dict[tuple[int, str], int] = {}
    for copy, ext in cls:
        key = (copy, neighbour[ext])
        profile[key] = profile.get(key, 0) + 1
    return profile


class KPZAllocationRule:
    """Per-vertex distribution of the collapse factor onto incident edges.

    Vertices of degree two give nothing away.  A degree-three vertex with a
    double edge puts everything on the double edge; every other vertex
    spreads its factor evenly.
    """

    def group_values(self, multiplicities: Sequence[int]) -> tuple[Fraction, ...]:
        """Per-edge value for each neighbour group of an ex-vertex.

        ``multiplicities[i]`` is the number of parallel edges to the i-th
        distinct neighbour; the return value is parallel to it.
        """
        mults = tuple(multiplicities)
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


def c_e_weights(H: PartialGraph, S: Iterable[str]) -> dict[int, Fraction]:
    """Corrections ``c_e`` for the subset ``S``, keyed by edge index.

    Nonzero only on external edges of the externals inside ``S``.
    """
    subset = set(S)
    ext_in = [v for v in H.external_ids if v in subset]
    out = {i: Fraction(0) for i in range(len(H.edges))}
    if not ext_in:
        return out
    neighbours = {v: H.incident(v)[0].other(v) for v in ext_in}
    n = len(ext_in)
    same = n == 2 and len(set(neighbours.values())) == 1
    value = c_e_weight_value(n, same, H.origin in subset)
    for i, e in enumerate(H.edges):
        if any(e.touches(v) for v in ext_in):
            out[i] = value
    return out


# ---------------------------------------------------------------------------
# Conditions on a partial graph
# ---------------------------------------------------------------------------

def _subsets(items: Sequence[str]) -> Iterator[tuple[str, ...]]:
    for r in range(len(items) + 1):
        yield from itertools.combinations(items, r)


def check_condition_A(H: PartialGraph) -> ConditionReport:
    """Local integrability condition over all subgraphs of ``H``.

    For every subset with at least two vertices and an internal vertex,
    the corrected internal label weight must stay strictly below
    ``|s| * (#internal - [subset inside internal part])``.
    """
    internals = set(H.internal_ids)
    witnesses: list[Witness] = []
    for subset in _subsets(H.vertex_ids):
        sub = set(subset)
        if len(sub) < 2 or not (sub & internals):
            continue
        inside, _ = edge_sets(H, sub)
        ce = c_e_weights(H, sub)
        index = {id(e): i for i, e in enumerate(H.edges)}
        lhs = ZERO_LABEL
        for e in inside:
            lhs = lhs + e.label - ce[index[id(e)]]
        n_in = len(sub & internals) - (1 if sub <= internals else 0)
        rhs = LabelValue.coerce(S_DIM * n_in)
        if not (lhs < rhs):
            witnesses.append(Witness(tuple(sorted(sub)), lhs, rhs, "local-integrability"))
    witnesses.sort(key=lambda w: (len(w.subset), w.subset))
    return ConditionReport(
        graph=H.name,
        condition="local-integrability",
        verdict=not witnesses,
        exponent=homogeneity_exponent(H),
        witnesses=tuple(witnesses),
    )


def check_condition_B(H: PartialGraph) -> ConditionReport:
    """Large-scale decay condition over subgraphs avoiding the star set.

    Every non-empty subset of ``H`` minus the origin and star vertex must
    meet edges of total label weight strictly above
    ``|s| * (#internal + #external / 2)``.
    """
    internals = set(H.internal_ids)
    externals = set(H.external_ids)
    allowed = [v for v in H.vertex_ids if v not in (H.origin, H.star)]
    witnesses: list[Witness] = []
    for subset in _subsets(allowed):
        if not subset:
            continue
        sub = set(subset)
        _, meeting = edge_sets(H, sub)
        lhs = ZERO_LABEL
        for e in meeting:
            lhs = lhs + e.label
        rhs = LabelValue.coerce(
            S_DIM * (len(sub & internals) + Fraction(len(sub & externals), 2))
        )
        if not (lhs > rhs):
            witnesses.append(Witness(tuple(sorted(sub)), lhs, rhs, "large-scale-decay"))
    witnesses.sort(key=lambda w: (len(w.subset), w.subset))
    return ConditionReport(
        graph=H.name,
        condition="large-scale-decay",
        verdict=not witnesses,
        exponent=homogeneity_exponent(H),
        witnesses=tuple(witnesses),
    )


def homogeneity_exponent(H: PartialGraph) -> LabelValue:
    """The scaling exponent ``|s| (|ext|/2 + |in \\ star|) - sum of labels``."""
    n_ext = len(H.external_ids)
    n_in_free = len(H.internal_ids) - 1  # the star vertex does not count
    total = H.label_sum()
    return LabelValue.coerce(S_DIM * (Fraction(n_ext, 2) + n_in_free)) - total


# ---------------------------------------------------------------------------
# Contracted-graph checker
# ---------------------------------------------------------------------------

def _scaled_int_labels(
    labels: Sequence[tuple[Fraction, Fraction]], bound: Fraction = Fraction(0)
) -> tuple[np.ndarray, np.ndarray, int]:
    """Common-denominator integer encoding of (q, r) label parts.

    The denominator is an exact Python integer.  Raises ``OverflowError``
    unless every subset sum of the scaled parts, and ``bound`` scaled,
    fits in int64.
    """
    from math import lcm
    denom = lcm(*(x.denominator for pair in labels for x in pair))
    q = [a.numerator * (denom // a.denominator) for a, _ in labels]
    r = [b.numerator * (denom // b.denominator) for _, b in labels]
    largest = max(sum(map(abs, q)), sum(map(abs, r)), abs(bound) * denom)
    if largest > np.iinfo(np.int64).max:
        raise OverflowError(
            f"labels scaled by their common denominator {denom} overflow int64"
        )
    return np.array(q, dtype=np.int64), np.array(r, dtype=np.int64), denom


def _zeta_edge_sums(nv: int, edges: Sequence[tuple[int, int]],
                    values: np.ndarray) -> np.ndarray:
    """For every vertex subset S (bitmask), the sum over edges inside S."""
    out = np.zeros(1 << nv, dtype=np.int64)
    for (a, b), val in zip(edges, values):
        out[(1 << a) | (1 << b)] += val
    # subset-sum (zeta) transform
    for bit in range(nv):
        step = 1 << bit
        view = out.reshape(-1, 2 * step)
        view[:, step:] += view[:, :step]
    return out


def check_contracted(G: ContractedGraph, rule: KPZAllocationRule) -> ConditionReport:
    """Both subset conditions on the merged contracted graph.

    Edge weights are ``a_e = m_e - b_e`` for edges at a glued vertex (with
    the rule's allocation) and ``a_e = m_e`` otherwise; multi-edges merge
    by summing.  Also reports the total scaling exponent
    ``alpha = |s| |V \\ V_star| - sum a_e``.

    One pass over ``G.edge_list()`` merges parallel edges into exact (q, r)
    sums keyed by vertex indices (a distinguished edge only with another
    distinguished edge) and groups the edges at each ex-vertex by
    neighbour; the rule's values for each group, the same values that
    ``kpz_allocation`` gives those edges, are then subtracted from the
    merged sums.  The merged
    labels are scaled to integers and every vertex subset is scanned at once.
    """
    vertices = G.vertex_ids
    nv = len(vertices)
    if (1 << nv) * max(1, nv) > SUBSET_WORK_CAP:
        raise ValueError(
            f"subset scan on {nv} vertices exceeds the work cap {SUBSET_WORK_CAP}"
        )
    vindex = {v: i for i, v in enumerate(vertices)}
    groups: dict[str, dict[str, list]] = {v: {} for v in G.ex_vertices}
    merged: dict[tuple[int, int, bool], list[Fraction]] = {}
    for e in G.edge_list():
        a, b = vindex[e.u], vindex[e.v]
        key = (min(a, b), max(a, b), e.kind == "distinguished")
        if key in merged:
            merged[key][0] += e.label.q
            merged[key][1] += e.label.r
        else:
            merged[key] = [e.label.q, e.label.r]
        for v, w in ((e.u, e.v), (e.v, e.u)):
            if v in groups:
                groups[v].setdefault(w, []).append(key)
    for by_neighbour in groups.values():
        order = sorted(by_neighbour)
        values = rule.group_values([len(by_neighbour[n]) for n in order])
        for neighbour, value in zip(order, values):
            for key in by_neighbour[neighbour]:
                merged[key][0] -= value

    pairs = [(a, b) for a, b, _ in merged]
    q, r, denom = _scaled_int_labels(list(merged.values()), S_DIM * nv)

    inside_q = _zeta_edge_sums(nv, pairs, q)
    inside_r = _zeta_edge_sums(nv, pairs, r)
    total_q, total_r = int(q.sum()), int(r.sum())

    masks = np.arange(1 << nv, dtype=np.uint64)
    sizes = np.bitwise_count(masks).astype(np.int64)
    s_scaled = int(S_DIM * denom)

    witnesses: list[Witness] = []

    def subset_names(mask: int) -> tuple[str, ...]:
        return tuple(vertices[i] for i in range(nv) if mask >> i & 1)

    def label_of(qv: int, rv: int) -> LabelValue:
        return LabelValue(Fraction(qv, denom), Fraction(rv, denom))

    # condition 1: strict upper bound on interior weight, |S| >= 2
    rhs1 = s_scaled * (sizes - 1)
    bad1 = (sizes >= 2) & (
        (inside_q > rhs1) | ((inside_q == rhs1) & (inside_r >= 0))
    )
    if bad1.any():
        order = np.flatnonzero(bad1)
        best = order[np.argmin(sizes[order])]
        witnesses.append(Witness(
            subset_names(int(best)),
            label_of(int(inside_q[best]), int(inside_r[best])),
            LabelValue.coerce(Fraction(int(rhs1[best]), denom)),
            "glued-local-integrability",
        ))

    # condition 2: strict lower bound on meeting weight, S avoiding the stars
    star_mask = 0
    for v in G.star_set:
        star_mask |= 1 << vindex[v]
    comp = (~masks) & np.uint64((1 << nv) - 1)
    meet_q = total_q - inside_q[comp]
    meet_r = total_r - inside_r[comp]
    rhs2 = s_scaled * sizes
    eligible = ((masks & np.uint64(star_mask)) == 0) & (sizes >= 1)
    bad2 = eligible & ((meet_q < rhs2) | ((meet_q == rhs2) & (meet_r <= 0)))
    if bad2.any():
        order = np.flatnonzero(bad2)
        best = order[np.argmin(sizes[order])]
        witnesses.append(Witness(
            subset_names(int(best)),
            label_of(int(meet_q[best]), int(meet_r[best])),
            LabelValue.coerce(Fraction(int(rhs2[best]), denom)),
            "glued-large-scale-decay",
        ))

    n_free = nv - len(G.star_set)
    alpha = LabelValue.coerce(S_DIM * n_free) - label_of(total_q, total_r)
    return ConditionReport(
        graph=f"{G.source.name}[p={G.p}]",
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
    profiles, which are cached, so the scan over all contractions is exact
    but fast.
    """
    failures: list[str] = []
    seen_single: set = set()
    seen_pair: set = set()
    n_contractions = 0
    for p in range(2, p_max + 1):
        for G in iter_contractions(H, p):
            n_contractions += 1
            profiles = [_class_profile(cls, H) for cls in G.classes]
            for prof in profiles:
                key = tuple(sorted(prof.values()))
                if key in seen_single:
                    continue
                seen_single.add(key)
                failures.extend(_profile_checks(rule, key))
            for p1, p2 in itertools.combinations(profiles, 2):
                keys = sorted(set(p1) | set(p2))
                counts = tuple(sorted((p1.get(k, 0), p2.get(k, 0)) for k in keys))
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
