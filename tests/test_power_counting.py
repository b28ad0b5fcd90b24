import itertools
import random
import time
from fractions import Fraction
from math import lcm

import numpy as np
import pytest

from kpzlab import power_counting
from kpzlab.cumulants import SizeLimitError
from kpzlab.graphs import (
    ContractedGraph,
    GraphEdge,
    LabelValue,
    PartialGraph,
    iter_contractions,
    parse_partial_graph,
)
from kpzlab.power_counting import (
    S_DIM,
    SUBSET_WORK_CAP,
    ConditionReport,
    KPZAllocationRule,
    UnsupportedConfigurationError,
    Witness,
    allocation_assignment,
    c_e_weight_value,
    check_admissible,
    check_condition_A,
    check_condition_B,
    check_contracted,
    homogeneity_exponent,
    kpz_allocation,
)
from kpzlab.symbols import SUPPORTED_SYMBOLS, graph_catalog

PAIR_SOURCE = """\
graph pair
vertex 0 origin
vertex u star
vertex v1 external
vertex v2 external
star-edge 0 u
edge u v1 label 2+1d
edge u v2 label 2+1d
"""

CHAIN_SOURCE = """\
graph chain
vertex 0 origin
vertex u star
vertex w internal
vertex a1 external
vertex a2 external
vertex a3 external
star-edge 0 u
edge u w label 2+1d
edge u a1 label 2+1d
edge w a2 label 2+1d
edge w a3 label 2+1d
"""

MARGINAL_SOURCE = """\
graph marginal
vertex 0 origin
vertex u star
vertex v1 external
vertex v2 external
star-edge 0 u
edge u v1 label 3/2
edge u v2 label 2+1d
"""


def ends(edge):
    """The endpoints of a contracted graph's edge, as a set."""
    return frozenset((edge.u, edge.v))


@pytest.fixture
def pair():
    return parse_partial_graph(PAIR_SOURCE)


@pytest.fixture
def chain():
    return parse_partial_graph(CHAIN_SOURCE)


class BrokenRule(KPZAllocationRule):
    """Deliberately bad: dumps the whole budget on the first edge group."""

    def group_values(self, multiplicities):
        mults = tuple(multiplicities)
        deg = sum(mults)
        if deg == 2:
            return tuple(Fraction(0) for _ in mults)
        budget = Fraction(deg - 2, 2) * S_DIM
        values = [Fraction(0)] * len(mults)
        values[0] = budget / mults[0]
        return tuple(values)


class Recording:
    """Passes each call on to ``rule`` and keeps its multiplicities."""

    def __init__(self, rule):
        self.rule = rule
        self.calls = []

    def group_values(self, multiplicities):
        self.calls.append(tuple(multiplicities))
        return self.rule.group_values(multiplicities)


class NoAllocation(KPZAllocationRule):
    """Allocates nothing: the checks then read the raw labels, the control
    showing what the allocation repairs."""

    def group_values(self, multiplicities):
        return tuple(Fraction(0) for _ in multiplicities)


class TestAllocation:
    def test_even_allocation_degree_four(self, pair):
        full = [c for c in iter_contractions(pair, 2) if len(c.classes) == 1][0]
        values = kpz_allocation(full, full.ex_vertices[0], KPZAllocationRule())
        assert sorted(values.values()) == [Fraction(3, 4)] * 4

    def test_degree_two_zero(self, pair):
        cons = list(iter_contractions(pair, 2))
        cross = [c for c in cons if len(c.classes) == 2][0]
        for v in cross.ex_vertices:
            assert set(kpz_allocation(cross, v, KPZAllocationRule()).values()) == {Fraction(0)}

    def test_divergence_priority(self, chain):
        # glue copy-1 a2,a3 (same internal neighbour) with one external of copy 2
        cons = list(iter_contractions(chain, 2))
        target = None
        for c in cons:
            for i, cls in enumerate(c.classes):
                if (1, "a2") in cls and (1, "a3") in cls and len(cls) == 3:
                    target = (c, c.ex_vertex(i), cls)
        assert target is not None
        G, v, cls = target
        values = kpz_allocation(G, v, KPZAllocationRule())
        by_value = sorted(values.values())
        assert by_value == [Fraction(0), Fraction(3, 4), Fraction(3, 4)]
        # the zero sits on the single edge, the 3/4 on the double pair
        edges = G.edge_list()
        doubles = [i for i in values
                   if sum(1 for j in values if ends(edges[j]) == ends(edges[i])) == 2]
        assert all(values[i] == Fraction(3, 4) for i in doubles)

    def test_triple_edge_unsupported(self):
        rule = KPZAllocationRule()
        with pytest.raises(UnsupportedConfigurationError):
            rule.group_values((3,))

    def test_budget_identity(self):
        rule = KPZAllocationRule()
        for mults in [(1, 1), (2,), (1, 1, 1), (2, 1), (2, 2), (1, 1, 1, 1),
                      (3, 2), (2, 2, 2), (4, 3, 1)]:
            deg = sum(mults)
            values = rule.group_values(mults)
            total = sum(m * v for m, v in zip(mults, values))
            assert total == Fraction(deg - 2, 2) * 3


def c_e_weight_raw_infimum(H, S, p_cap=4):
    """Slow cross-check of ``c_e``: infimum of the KPZ rule's value over gluings.

    Considers every way of gluing the externals of ``S`` (living in copy 1)
    with extra externals from up to ``p_cap - 1`` further copies, subject
    to the leftover externals still admitting a valid gluing, and returns
    the smallest value the rule assigns to the edges of ``S``'s externals.
    Only meaningful when the subset avoids the origin.
    """
    rule = KPZAllocationRule()
    subset = set(S)
    ext_in = [v for v in H.external_ids if v in subset]
    if not ext_in:
        return Fraction(0)
    neighbour = {v: H.incident(v)[0].other(v) for v in H.external_ids}
    # multiplicities of the fixed part of the class, grouped by neighbour
    base: dict[str, int] = {}
    for v in ext_in:
        base[neighbour[v]] = base.get(neighbour[v], 0) + 1
    # How many externals H offers per neighbour (for the extra copies).
    offer: dict[str, int] = {}
    for v in H.external_ids:
        offer[neighbour[v]] = offer.get(neighbour[v], 0) + 1
    names = sorted(offer)
    m = len(H.external_ids)

    best = None
    for p in range(2, p_cap + 1):
        # per extra copy, choose how many externals of each neighbour join
        choices = itertools.product(
            *[
                itertools.product(*[range(offer[n] + 1) for n in names])
                for _ in range(p - 1)
            ]
        )
        for combo in choices:
            k = sum(sum(c) for c in combo)
            if k < 1:
                continue
            leftover = (p - 1) * m - k + (m - len(ext_in))
            copies_left = sum(1 for c in combo if sum(c) < m)
            if m > len(ext_in):
                copies_left += 1
            if leftover == 1 or (leftover >= 2 and copies_left < 2):
                continue
            mults = list(base.values())
            for c in combo:
                mults.extend(v for v in c if v > 0)
            try:
                values = rule.group_values(mults)
            except UnsupportedConfigurationError:
                continue
            worst_here = min(values[: len(base)])
            best = worst_here if best is None else min(best, worst_here)
    if best is None:
        raise ValueError("no valid gluing found; increase p_cap")
    return best


class TestSubgraphWeights:
    def test_pair_full_subset(self, pair):
        weights = c_e_weights(pair, {"u", "v1", "v2"})
        ext_edges = [i for i, e in enumerate(pair.edges) if not e.distinguished]
        assert all(weights[i] == Fraction(3, 4) for i in ext_edges)

    def test_chain_three_externals(self, chain):
        weights = c_e_weights(chain, {"u", "w", "a1", "a2", "a3"})
        nonzero = sorted(v for v in weights.values() if v)
        assert nonzero == [Fraction(3, 4)] * 3  # 3/2 - 3/4

    def test_origin_subset(self, pair):
        weights = c_e_weights(pair, {"0", "u", "v1"})
        assert max(weights.values()) == Fraction(3, 2)

    def test_two_distinct_neighbours(self, chain):
        weights = c_e_weights(chain, {"a1", "a2"})
        nonzero = {v for v in weights.values() if v}
        assert nonzero == {Fraction(1, 2)}

    def test_single_external_zero(self, chain):
        weights = c_e_weights(chain, {"a1", "u"})
        assert set(weights.values()) == {Fraction(0)}

    def test_closed_form_matches_min_formula(self):
        s = Fraction(3)
        for n in range(3, 7):
            closed = c_e_weight_value(n, False, False)
            candidates = [Fraction(n + k - 2, 2) * s / (n + k) for k in range(1, 30)]
            assert closed == min(candidates)

    def test_raw_infimum_agrees(self, pair, chain):
        for H, subset in [(pair, {"u", "v1", "v2"}), (chain, {"a2", "a3"}),
                          (chain, {"a1", "a2", "a3"}), (chain, {"a1"})]:
            ext = [v for v in H.external_ids if v in subset]
            n = len(ext)
            neighbours = {H.incident(v)[0].other(v) for v in ext}
            same = n == 2 and len(neighbours) == 1
            closed = c_e_weight_value(n, same, False)
            raw = c_e_weight_raw_infimum(H, subset, p_cap=3)
            assert raw == closed


# ---------------------------------------------------------------------------
# Fraction oracle for the partial-graph conditions: one subset at a time
# ---------------------------------------------------------------------------

def edge_sets(graph, S):
    """``(E0, E)``: edges entirely inside ``S`` and edges meeting ``S``."""
    subset = set(S)
    known = set(graph.vertex_ids)
    for v in subset:
        if v not in known:
            raise KeyError(f"unknown vertex {v!r}")
    inside = []
    meeting = []
    for e in graph.edges:
        ends = e.endpoints()
        if ends & subset:
            meeting.append(e)
            if ends <= subset:
                inside.append(e)
    return tuple(inside), tuple(meeting)


def c_e_weights(H, S):
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


def subsets(items):
    for r in range(len(items) + 1):
        yield from itertools.combinations(items, r)


def local_values(H, subset):
    """(lhs, rhs) of the local condition on ``subset``: corrected inside labels."""
    sub = set(subset)
    inside, _ = edge_sets(H, sub)
    ce = c_e_weights(H, sub)
    lhs = sum((e.label - ce[i] for i, e in enumerate(H.edges) if e in inside),
              LabelValue())
    internals = set(H.internal_ids)
    return lhs, LabelValue.coerce(S_DIM * (len(sub & internals) - (sub <= internals)))


def decay_values(H, subset):
    """(lhs, rhs) of the decay condition on ``subset``: labels meeting it."""
    sub = set(subset)
    _, meeting = edge_sets(H, sub)
    n_in, n_ex = len(sub & set(H.internal_ids)), len(sub & set(H.external_ids))
    return (sum((e.label for e in meeting), LabelValue()),
            LabelValue.coerce(S_DIM * (n_in + Fraction(n_ex, 2))))


def oracle_partial_report(H, condition, candidates, values, fails):
    """Every failing subset among ``candidates`` as a witness, by (size, names)."""
    witnesses = []
    for sub in candidates:
        lhs, rhs = values(H, sub)
        if fails(lhs, rhs):
            witnesses.append(Witness(tuple(sorted(sub)), lhs, rhs, condition))
    witnesses.sort(key=lambda w: (len(w.subset), w.subset))
    return ConditionReport(graph=H.name, condition=condition, verdict=not witnesses,
                           exponent=homogeneity_exponent(H), witnesses=tuple(witnesses))


def oracle_condition_A(H):
    internals = set(H.internal_ids)
    return oracle_partial_report(
        H, "local-integrability",
        [s for s in subsets(H.vertex_ids) if len(s) >= 2 and internals & set(s)],
        local_values, lambda lhs, rhs: not lhs < rhs)


def oracle_condition_B(H):
    allowed = [v for v in H.vertex_ids if v not in (H.origin, H.star)]
    return oracle_partial_report(
        H, "large-scale-decay", [s for s in subsets(allowed) if s],
        decay_values, lambda lhs, rhs: not lhs > rhs)


def relabelled(H, rng, shift):
    """``H`` with fresh vertex names, shuffled declarations and edge ends.

    With ``shift``, every label but the star edge's moves by a random
    multiple of 1/4 and of delta (a label it would zero stays).
    """
    pool = [a + b for a in "0auvwx" for b in ["", *"0auvwx"]]
    name = dict(zip(H.vertex_ids, rng.sample(pool, len(H.kinds))))
    kinds = [(name[v], k) for v, k in H.kinds]
    edges = []
    for e in H.edges:
        u, v = (name[e.u], name[e.v])[::rng.choice((1, -1))]
        label = e.label
        if shift and not e.distinguished:
            moved = label + LabelValue(Fraction(rng.randint(-4, 4), 4), rng.randint(-1, 1))
            label = label if moved.is_zero() else moved
        edges.append(GraphEdge(u, v, label, e.distinguished))
    rng.shuffle(kinds)
    rng.shuffle(edges)
    return PartialGraph(name=H.name, kinds=tuple(kinds), edges=tuple(edges))


class TestEdgeSets:
    def test_inside_and_meeting(self, pair):
        e0, e = edge_sets(pair, {"u", "v1"})
        assert {frozenset((x.u, x.v)) for x in e0} == {frozenset(("u", "v1"))}
        assert len(e) == 3

    def test_empty_subset(self, pair):
        assert edge_sets(pair, set()) == ((), ())

    def test_chain_externals(self, chain):
        e0, e = edge_sets(chain, {"a1", "a2", "a3"})
        assert e0 == ()
        assert len(e) == 3

    def test_unknown_vertex(self, pair):
        with pytest.raises(KeyError):
            edge_sets(pair, {"nope"})


class TestConditionsOnPartialGraphs:
    def test_pair_condition_A_values(self, pair):
        assert check_condition_A(pair).verdict
        assert local_values(pair, {"u", "v1"}) == (LabelValue(2, 1), LabelValue(3, 0))
        assert local_values(pair, {"u", "v1", "v2"}) == \
            (LabelValue(Fraction(5, 2), 2), LabelValue(3, 0))

    def test_pair_condition_B_values(self, pair):
        assert check_condition_B(pair).verdict
        assert decay_values(pair, {"v1"}) == \
            (LabelValue(2, 1), LabelValue(Fraction(3, 2), 0))
        assert decay_values(pair, {"v1", "v2"}) == (LabelValue(4, 2), LabelValue(3, 0))

    def test_chain_condition_A_full_subset(self, chain):
        assert check_condition_A(chain).verdict
        lhs, rhs = local_values(chain, {"a1", "a2", "a3", "u", "w"})
        assert lhs == LabelValue(Fraction(23, 4), 4)  # 8 + 4d - (3/4)*3
        assert rhs == LabelValue(6, 0)

    def test_strictness_failure(self):
        g = parse_partial_graph(MARGINAL_SOURCE)
        report = check_condition_B(g)
        assert not report.verdict
        assert report.witnesses[0].subset == ("v1",)
        assert report.witnesses[0].lhs == LabelValue(Fraction(3, 2), 0)

    def test_exponents(self, pair, chain):
        assert homogeneity_exponent(pair) == LabelValue(-1, -2)
        assert homogeneity_exponent(chain) == LabelValue(Fraction(-1, 2), -4)

    def test_reduced_graph_exponent(self):
        src = """\
graph reduced
vertex 0 origin
vertex u star
vertex a1 external
star-edge 0 u
edge u a1 label 2+1d
"""
        g = parse_partial_graph(src)
        assert homogeneity_exponent(g) == LabelValue(Fraction(-1, 2), -1)

    def test_matches_fraction_oracle(self, pair, chain):
        # every report field (verdict, exponent, each witness's subset, lhs,
        # rhs and condition, and the witness order) equals the subset-by-subset
        # Fraction scan, on the catalog and on renamed copies whose sorted
        # name order differs, half of them with shifted labels
        graphs = [pair, chain, parse_partial_graph(MARGINAL_SOURCE)]
        graphs += list(catalog_graphs().values())
        rng = random.Random(22)
        cases = graphs + [relabelled(H, rng, shift=i % 2) for H in graphs for i in range(28)]
        failing = multiple = 0
        for H in cases:
            for check, oracle in ((check_condition_A, oracle_condition_A),
                                  (check_condition_B, oracle_condition_B)):
                report = check(H)
                assert report == oracle(H), H
                failing += not report.verdict
                multiple += len(report.witnesses) > 1
        assert len(cases) - len(graphs) >= 600
        assert 0 < multiple < failing < 2 * len(cases)

    def test_scan_cap_fails_fast(self):
        # a 30-vertex chain is 2**30 subsets: refused before anything is built
        lines = ["graph long-chain", "vertex 0 origin", "vertex u star", "star-edge 0 u",
                 "vertex a external", "edge w27 a label 2+1d"]
        previous = "u"
        for i in range(1, 28):
            lines += [f"vertex w{i} internal", f"edge {previous} w{i} label 2+1d"]
            previous = f"w{i}"
        H = parse_partial_graph("\n".join(lines) + "\n")
        assert len(H.vertex_ids) == 30
        for check in (check_condition_A, check_condition_B):
            start = time.perf_counter()
            with pytest.raises(SizeLimitError,
                               match=f"30 vertices exceeds the work cap {SUBSET_WORK_CAP}"):
                check(H)
            assert time.perf_counter() - start < 1.0

    def test_int64_overflow_raises(self):
        # each label fits, but their subset sum does not
        wide = parse_partial_graph(PAIR_SOURCE.replace("2+1d", str(2**62)))
        for check in (check_condition_A, check_condition_B):
            with pytest.raises(OverflowError):
                check(wide)
        # an exact large denominator that fits
        fine = parse_partial_graph(
            PAIR_SOURCE.replace("u v1 label 2+1d", "u v1 label 1/1099511627777"))
        assert check_condition_A(fine) == oracle_condition_A(fine)
        assert check_condition_B(fine) == oracle_condition_B(fine)


def reference_merged_weights(G, rule):
    """Weights m_e - b_e summed over parallel edges; keys (ends, distinguished)."""
    alloc = allocation_assignment(G, rule)
    merged = {}
    for i, e in enumerate(G.edge_list()):
        b = sum((alloc.get((v, i), Fraction(0)) for v in (e.u, e.v)), Fraction(0))
        key = (ends(e), e.kind == "distinguished")
        merged[key] = merged.get(key, LabelValue()) + e.label - b
    return merged


def merged_sums(merged, sub):
    """Total merged weight inside ``sub`` and meeting it."""
    inside = sum((w for (ends, _), w in merged.items() if ends <= sub), LabelValue())
    meeting = sum((w for (ends, _), w in merged.items() if ends & sub), LabelValue())
    return inside, meeting


def reference_contracted_check(G, rule):
    """Slow exact reference for check_contracted (pure Fractions)."""
    merged = reference_merged_weights(G, rule)
    vertices = G.vertex_ids
    s = Fraction(3)
    ok = True
    for r in range(2, len(vertices) + 1):
        for sub in itertools.combinations(vertices, r):
            inside, _ = merged_sums(merged, set(sub))
            if not (inside < LabelValue.coerce(s * (len(sub) - 1))):
                ok = False
    allowed = [v for v in vertices if v not in G.star_set]
    for r in range(1, len(allowed) + 1):
        for sub in itertools.combinations(allowed, r):
            _, meeting = merged_sums(merged, set(sub))
            if not (meeting > LabelValue.coerce(s * len(sub))):
                ok = False
    return ok


def oracle_scaled_int_labels(labels, bound):
    """Common-denominator int64 encoding of merged (q, r) parts.

    Raises ``OverflowError`` unless every subset sum and ``bound`` scaled
    fit in int64.
    """
    denom = lcm(*(x.denominator for pair in labels for x in pair))
    q = [a.numerator * (denom // a.denominator) for a, _ in labels]
    r = [b.numerator * (denom // b.denominator) for _, b in labels]
    if max(sum(map(abs, q)), sum(map(abs, r)), abs(bound) * denom) > np.iinfo(np.int64).max:
        raise OverflowError(f"labels scaled by their common denominator {denom} overflow int64")
    return np.array(q, dtype=np.int64), np.array(r, dtype=np.int64), denom


def oracle_zeta_edge_sums(nv, edges, values):
    """For every vertex subset (bitmask), the sum over edges inside it."""
    out = np.zeros(1 << nv, dtype=np.int64)
    for (a, b), val in zip(edges, values):
        out[(1 << a) | (1 << b)] += val
    for bit in range(nv):
        step = 1 << bit
        view = out.reshape(-1, 2 * step)
        view[:, step:] += view[:, :step]
    return out


def oracle_check_contracted(G, *rules):
    """``check_contracted`` by the merge over ``G.edge_list()``: one report per rule.

    Parallel edges merge into exact Fraction sums keyed by vertex indices,
    each rule's values are subtracted group by group, and q and r are
    scanned in two separate zeta passes.  The rules share the merge.
    """
    vertices = G.vertex_ids
    vindex = {v: i for i, v in enumerate(vertices)}
    groups = {v: {} for v in G.ex_vertices}
    labels = {}
    for e in G.edge_list():
        a, b = vindex[e.u], vindex[e.v]
        key = (min(a, b), max(a, b), e.kind == "distinguished")
        sums = labels.setdefault(key, [Fraction(0), Fraction(0)])
        sums[0] += e.label.q
        sums[1] += e.label.r
        for v, w in ((e.u, e.v), (e.v, e.u)):
            if v in groups:
                groups[v].setdefault(w, []).append(key)
    reports = []
    for rule in rules:
        merged = {key: list(sums) for key, sums in labels.items()}
        for by_neighbour in groups.values():
            order = sorted(by_neighbour)
            values = rule.group_values([len(by_neighbour[n]) for n in order])
            for neighbour, value in zip(order, values):
                for key in by_neighbour[neighbour]:
                    merged[key][0] -= value
        reports.append(oracle_scan(G, vindex, merged))
    return reports


def oracle_scan(G, vindex, merged):
    """Both subset conditions on merged Fraction weights, by two zeta passes."""
    vertices = G.vertex_ids
    nv = len(vertices)
    pairs = [(a, b) for a, b, _ in merged]
    q, r, denom = oracle_scaled_int_labels(list(merged.values()), S_DIM * nv)
    inside_q = oracle_zeta_edge_sums(nv, pairs, q)
    inside_r = oracle_zeta_edge_sums(nv, pairs, r)
    total_q, total_r = int(q.sum()), int(r.sum())
    masks = np.arange(1 << nv, dtype=np.uint64)
    sizes = np.bitwise_count(masks).astype(np.int64)
    s_scaled = int(S_DIM * denom)

    def witness(bad, lhs_q, lhs_r, rhs, condition):
        order = np.flatnonzero(bad)
        best = int(order[np.argmin(sizes[order])])
        return Witness(
            tuple(vertices[i] for i in range(nv) if best >> i & 1),
            LabelValue(Fraction(int(lhs_q[best]), denom), Fraction(int(lhs_r[best]), denom)),
            LabelValue.coerce(Fraction(int(rhs[best]), denom)),
            condition,
        )

    witnesses = []
    rhs1 = s_scaled * (sizes - 1)
    bad1 = (sizes >= 2) & ((inside_q > rhs1) | ((inside_q == rhs1) & (inside_r >= 0)))
    if bad1.any():
        witnesses.append(witness(bad1, inside_q, inside_r, rhs1, "glued-local-integrability"))
    star_mask = sum(1 << vindex[v] for v in G.star_set)
    comp = (~masks) & np.uint64((1 << nv) - 1)
    meet_q = total_q - inside_q[comp]
    meet_r = total_r - inside_r[comp]
    rhs2 = s_scaled * sizes
    eligible = ((masks & np.uint64(star_mask)) == 0) & (sizes >= 1)
    bad2 = eligible & ((meet_q < rhs2) | ((meet_q == rhs2) & (meet_r <= 0)))
    if bad2.any():
        witnesses.append(witness(bad2, meet_q, meet_r, rhs2, "glued-large-scale-decay"))
    n_free = nv - len(G.star_set)
    alpha = LabelValue.coerce(S_DIM * n_free) - LabelValue(
        Fraction(total_q, denom), Fraction(total_r, denom))
    return ConditionReport(
        graph=f"{G.source.name}[p={G.p}]",
        condition="glued-graph",
        verdict=not witnesses,
        exponent=alpha,
        witnesses=tuple(sorted(witnesses, key=lambda w: (len(w.subset), w.subset))),
    )


def catalog_graphs():
    return {entry.graph.name: entry.graph
            for tau in SUPPORTED_SYMBOLS for entry in graph_catalog(tau)}


class TestContractedChecker:
    def test_full_gluing_passes_with_rule(self, pair):
        full = [c for c in iter_contractions(pair, 2) if len(c.classes) == 1][0]
        report = check_contracted(full, KPZAllocationRule())
        assert report.verdict
        # alpha = p * alpha_bar(H)
        assert report.exponent == LabelValue(-2, -4)

    def test_full_gluing_fails_without_rule(self, pair):
        full = [c for c in iter_contractions(pair, 2) if len(c.classes) == 1][0]
        report = check_contracted(full, NoAllocation())
        assert not report.verdict
        w = report.witnesses[0]
        assert w.lhs == LabelValue(4, 2)
        assert w.rhs == LabelValue(3, 0)
        assert len(w.subset) == 2

    def test_chain_full_gluing_fails_without_rule(self, chain):
        full = [c for c in iter_contractions(chain, 2) if len(c.classes) == 1][0]
        assert not check_contracted(full, NoAllocation()).verdict
        assert check_contracted(full, KPZAllocationRule()).verdict

    def test_alpha_scales_with_p(self, pair, chain):
        for H in (pair, chain):
            alpha_bar = homogeneity_exponent(H)
            for p in (2, 3):
                for G in iter_contractions(H, p):
                    report = check_contracted(G, KPZAllocationRule())
                    assert report.exponent == p * alpha_bar

    def test_matches_reference_implementation(self, pair, chain):
        catalog = catalog_graphs()
        # the marginal graph is the one whose gluings fail the decay condition
        graphs = [pair, chain, parse_partial_graph(MARGINAL_SOURCE)] + list(catalog.values())
        s = Fraction(3)
        checked = 0
        conditions = set()
        for H in graphs:
            for p in (2, 3):
                if 2 + p * len(H.internal_ids) > 8:
                    continue  # every contraction has more than 8 vertices
                for G in iter_contractions(H, p):
                    if len(G.vertex_ids) > 8:
                        continue
                    for rule in (KPZAllocationRule(), NoAllocation()):
                        report = check_contracted(G, rule)
                        assert report.verdict == reference_contracted_check(G, rule)
                        checked += 1
                        if report.verdict:
                            continue
                        merged = reference_merged_weights(G, rule)
                        for w in report.witnesses:
                            conditions.add(w.condition)
                            inside, meeting = merged_sums(merged, set(w.subset))
                            local = w.condition == "glued-local-integrability"
                            assert w.lhs == (inside if local else meeting)
                            size = len(w.subset) - 1 if local else len(w.subset)
                            assert w.rhs == LabelValue.coerce(s * size)
        assert checked > 400
        assert conditions == {"glued-local-integrability", "glued-large-scale-decay"}

    def test_matches_edge_list_oracle(self, pair, chain):
        # every report field (verdict, exponent, witness subsets, lhs, rhs)
        # equals the merge over edge_list() with two zeta passes, and the
        # rule gets the same calls: one per ex-vertex, groups in the order
        # of the neighbours' names
        marginal = parse_partial_graph(MARGINAL_SOURCE)
        # internals declared out of name order: index order is not name order
        unsorted = parse_partial_graph(CHAIN_SOURCE.replace(" w", " b"))
        cases = [(H, 2) for H in catalog_graphs().values()] + [(unsorted, 2)]
        cases += [(H, 3) for H in (pair, chain, marginal)]
        checked = failing = 0
        rules = (KPZAllocationRule(), NoAllocation())
        for H, p in cases:
            for G in iter_contractions(H, p):
                heard = [Recording(rule) for rule in rules]
                expected = oracle_check_contracted(G, *heard)
                for rule, want, oracle_rule in zip(rules, expected, heard):
                    recording = Recording(rule)
                    report = check_contracted(G, recording)
                    assert report == want, (H.name, p, G.classes)
                    assert recording.calls == oracle_rule.calls
                    checked += 1
                    failing += not report.verdict
        assert checked == 2 * 3325 and 0 < failing < checked

    def test_template_per_source_object(self):
        # same name and structure, other labels: each graph gets its own
        # template, so a cached one never serves the other
        first = parse_partial_graph(PAIR_SOURCE)
        second = parse_partial_graph(PAIR_SOURCE.replace("u v2 label 2+1d", "u v2 label 5/3"))
        assert first.name == second.name and first != second
        for _ in range(2):
            for H in (first, second, first):
                for G in iter_contractions(H, 2):
                    assert [check_contracted(G, NoAllocation())] == \
                        oracle_check_contracted(G, NoAllocation())
        assert power_counting._template(first, 2) is not power_counting._template(second, 2)
        # an emptied cache rebuilds the same reports
        full = [G for G in iter_contractions(second, 3) if len(G.classes) == 1][0]
        before = check_contracted(full, KPZAllocationRule())
        power_counting._TEMPLATES.clear()
        assert check_contracted(full, KPZAllocationRule()) == before

    def test_classes_must_glue_every_external(self, pair):
        full = [G for G in iter_contractions(pair, 2) if len(G.classes) == 1][0]
        partial = ContractedGraph(source=pair, p=2, classes=(frozenset(
            slot for slot in full.classes[0] if slot != (2, "v2")),))
        # as many slots as the template, but (1, v1) glued twice and (1, v2) never
        overlapping = ContractedGraph(source=pair, p=2, classes=(
            frozenset({(1, "v1"), (2, "v1")}), frozenset({(1, "v1"), (2, "v2")})))
        for G in (partial, overlapping, ContractedGraph(source=pair, p=2, classes=())):
            with pytest.raises(KeyError):
                G.edge_list()
            with pytest.raises(KeyError, match="do not glue every external"):
                check_contracted(G, KPZAllocationRule())

    def test_subset_cap_fails_fast(self):
        H = catalog_graphs()["quad-chain/flat-remainder"]
        power_counting._TEMPLATES.clear()
        G = next(iter_contractions(H, 5))
        assert (1 << 21) * 21 > SUBSET_WORK_CAP
        with pytest.raises(SizeLimitError, match=f"21 vertices exceeds the work cap {SUBSET_WORK_CAP}"):
            check_contracted(G, KPZAllocationRule())
        assert not power_counting._TEMPLATES  # refused before any template was built
        assert issubclass(SizeLimitError, ValueError)

    def test_int64_overflow_raises(self):
        # (label list, expect OverflowError) on one star with one external
        # per label, at p = 2
        def graph(labels):
            lines = ["graph wide", "vertex 0 origin", "vertex u star", "star-edge 0 u"]
            for i, label in enumerate(labels):
                lines += [f"vertex v{i} external", f"edge u v{i} label {label}"]
            return parse_partial_graph("\n".join(lines) + "\n")

        cases = [
            # common denominator 3 (2**80 - 1) beyond int64
            (["1/1099511627777", "1/1099511627775", "7/3"], True),
            # each label fits, but their subset sum does not
            ([str(2**62), str(2**62)], True),
            # the labels fit, but |s| * #vertices scaled by 2**61 does not
            (["1/2305843009213693952", "1"], True),
            # an exact large denominator that fits
            (["1/1099511627777", "1/2-1d"], False),
            # under the rule the full gluing's weights 2**61 - 3/2 fit only
            # at their lowest common denominator, 2
            ([str(2**60), str(2**60)], False),
        ]
        for labels, overflows in cases:
            for G in iter_contractions(graph(labels), 2):
                for rule in (NoAllocation(), KPZAllocationRule()):
                    if overflows:
                        with pytest.raises(OverflowError):
                            check_contracted(G, rule)
                    else:
                        assert [check_contracted(G, rule)] == oracle_check_contracted(G, rule)

    def test_all_small_contractions_pass(self, pair, chain):
        for H in (pair, chain):
            for p in (2, 3):
                for G in iter_contractions(H, p):
                    assert check_contracted(G, KPZAllocationRule()).verdict


def oracle_check_admissible(rule, H, p_max):
    """``check_admissible`` read from each contraction's own edge list."""
    failures, seen_single, seen_pair, n_contractions = [], set(), set(), 0
    for p in range(2, p_max + 1):
        for G in iter_contractions(H, p):
            n_contractions += 1
            edges = G.edge_list()
            profiles = []
            for v in G.ex_vertices:
                profile: dict[str, int] = {}
                for e in edges:
                    if e.touches(v):
                        other = e.v if e.u == v else e.u
                        profile[other] = profile.get(other, 0) + 1
                profiles.append(profile)
            for profile in profiles:
                key = tuple(sorted(profile.values()))
                if key not in seen_single:
                    seen_single.add(key)
                    failures += power_counting._profile_checks(rule, key)
            for p1, p2 in itertools.combinations(profiles, 2):
                counts = tuple(sorted((p1.get(k, 0), p2.get(k, 0))
                                      for k in p1.keys() | p2.keys()))
                if counts not in seen_pair:
                    seen_pair.add(counts)
                    failures += power_counting._pair_checks(rule, list(counts))
    return ConditionReport(
        H.name, f"allocation-admissibility[p<={p_max}, {n_contractions} gluings]",
        not failures, None,
        tuple(Witness((m,), LabelValue(0), LabelValue(0), "admissibility") for m in failures))


class TestAdmissibility:
    @pytest.mark.parametrize("rule", [KPZAllocationRule(), BrokenRule()],
                             ids=["kpz", "broken"])
    def test_catalog_reports_match_the_edge_list_oracle(self, rule):
        # the class profiles come from the templates check_contracted
        # shares; p = 3 where a graph has at most 3 externals (at most
        # 2,186 gluings), as in the certify benchmark
        catalog = catalog_graphs()
        assert len(catalog) == 19
        broken = 0
        for H in catalog.values():
            p_max = 3 if len(H.external_ids) <= 3 else 2
            report = check_admissible(rule, H, p_max)
            assert report == oracle_check_admissible(rule, H, p_max)
            broken += not report.verdict
        assert (broken > 0) == isinstance(rule, BrokenRule)

    def test_kpz_rule_admissible(self, pair, chain):
        for H in (pair, chain):
            report = check_admissible(KPZAllocationRule(), H, p_max=3)
            assert report.verdict, [str(w.subset) for w in report.witnesses]

    @pytest.mark.parametrize("p_max", [1, 0])
    def test_p_max_below_two_rejected(self, pair, p_max):
        # no p >= 2 is left, so there is no gluing to check
        with pytest.raises(ValueError, match="p_max >= 2"):
            check_admissible(KPZAllocationRule(), pair, p_max=p_max)

    def test_broken_rule_fails_subset_floor(self, pair):
        report = check_admissible(BrokenRule(), pair, p_max=3)
        assert not report.verdict
        assert any("subset floor" in w.subset[0] for w in report.witnesses)

    def test_transfer_bound_tight_for_two_pairs(self, chain):
        # merging two degree-2 glued vertices transfers exactly |s|
        rule = KPZAllocationRule()
        counts = [(1, 0), (1, 0), (0, 1), (0, 1)]
        v1 = rule.group_values((1, 1))
        v2 = rule.group_values((1, 1))
        vm = rule.group_values((1, 1, 1, 1))
        transfer = sum(vm) - sum(v1) - sum(v2)
        assert transfer == Fraction(3)

    def test_rule_respects_decay_cap(self):
        rule = KPZAllocationRule()
        for mults in [(1, 1), (2, 1), (1, 1, 1), (2, 2), (1, 1, 1, 1, 1), (6, 6)]:
            assert all(v <= S_DIM / 2 for v in rule.group_values(mults))
