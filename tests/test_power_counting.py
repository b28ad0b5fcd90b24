import itertools
from fractions import Fraction

import pytest

from kpzlab.graphs import (
    LabelValue,
    edge_sets,
    iter_contractions,
    parse_partial_graph,
)
from kpzlab.power_counting import (
    S_DIM,
    KPZAllocationRule,
    UnsupportedConfigurationError,
    allocation_assignment,
    c_e_weight_value,
    c_e_weights,
    check_admissible,
    check_condition_A,
    check_condition_B,
    check_contracted,
    homogeneity_exponent,
    _scaled_int_labels,
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
                   if sum(1 for j in values if edges[j].endpoints() == edges[i].endpoints()) == 2]
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


def reference_merged_weights(G, rule):
    """Weights m_e - b_e summed over parallel edges; keys (ends, distinguished)."""
    alloc = allocation_assignment(G, rule)
    merged = {}
    for i, e in enumerate(G.edge_list()):
        b = sum((alloc.get((v, i), Fraction(0)) for v in (e.u, e.v)), Fraction(0))
        key = (e.endpoints(), e.kind == "distinguished")
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
        catalog = {entry.graph.name: entry.graph
                   for tau in SUPPORTED_SYMBOLS for entry in graph_catalog(tau)}
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

    def test_int64_overflow_raises(self):
        huge = [(Fraction(1, 2**40 + 1), Fraction(0)),
                (Fraction(1, 2**40 - 1), Fraction(0)),
                (Fraction(7, 3), Fraction(0))]
        with pytest.raises(OverflowError):
            _scaled_int_labels(huge)
        # each part fits, but their subset sum does not
        with pytest.raises(OverflowError):
            _scaled_int_labels([(Fraction(2**62), Fraction(0))] * 2)
        with pytest.raises(OverflowError):
            _scaled_int_labels([(Fraction(1), Fraction(0))], bound=Fraction(2**63))
        q, r, denom = _scaled_int_labels(huge[:1] + [(Fraction(1, 2), Fraction(-1))])
        assert denom == 2 * (2**40 + 1)
        assert q.tolist() == [2, 2**40 + 1] and r.tolist() == [0, -denom]
        src = """\
graph wide
vertex 0 origin
vertex u star
vertex v1 external
vertex v2 external
vertex v3 external
star-edge 0 u
edge u v1 label 1/1099511627777
edge u v2 label 1/1099511627775
edge u v3 label 7/3
"""
        for G in iter_contractions(parse_partial_graph(src), 2):
            with pytest.raises(OverflowError):
                check_contracted(G, NoAllocation())

    def test_all_small_contractions_pass(self, pair, chain):
        for H in (pair, chain):
            for p in (2, 3):
                for G in iter_contractions(H, p):
                    assert check_contracted(G, KPZAllocationRule()).verdict


class TestAdmissibility:
    def test_kpz_rule_admissible(self, pair, chain):
        for H in (pair, chain):
            report = check_admissible(KPZAllocationRule(), H, p_max=3)
            assert report.verdict, [str(w.subset) for w in report.witnesses]

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
