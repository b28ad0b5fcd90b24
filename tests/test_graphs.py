import itertools
import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from kpzlab import graphs
from kpzlab.cumulants import SizeLimitError, iter_wick_partitions
from kpzlab.graphs import (
    ContractedGraph,
    GraphEdge,
    GraphParseError,
    LabelValue,
    PartialGraph,
    automorphisms,
    canonical_key,
    iter_contractions,
    parse_partial_graph,
)
from kpzlab.symbols import SUPPORTED_SYMBOLS, graph_catalog

PAIR_SOURCE = """\
# two kernel legs from one internal vertex
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


def contracted_degree(graph, vertex):
    """Degree of ``vertex`` in a contracted graph, counting multi-edges."""
    return sum(1 for e in graph.edge_list() if e.touches(vertex))


@pytest.fixture
def pair_graph():
    return parse_partial_graph(PAIR_SOURCE)


@pytest.fixture
def chain_graph():
    return parse_partial_graph(CHAIN_SOURCE)


class TestLabelValue:
    def test_parse_forms(self):
        assert LabelValue.parse("2") == LabelValue(2, 0)
        assert LabelValue.parse("2+1d") == LabelValue(2, 1)
        assert LabelValue.parse("5/2-1d") == LabelValue(Fraction(5, 2), -1)
        assert LabelValue.parse("12/5") == LabelValue(Fraction(12, 5), 0)
        assert LabelValue.parse("1d") == LabelValue(0, 1)
        assert LabelValue.parse("0") == LabelValue(0, 0)
        assert LabelValue.parse("3+2d") == LabelValue(3, 2)
        # an exponent's sign does not split q from r
        assert LabelValue.parse("1e-3d") == LabelValue(0, Fraction(1, 1000))
        assert LabelValue.parse("2+1e-3d") == LabelValue(2, Fraction(1, 1000))
        assert LabelValue.parse("1e-3+1d") == LabelValue(Fraction(1, 1000), 1)

    def test_str_round_trip(self):
        rng = random.Random(2)
        for _ in range(50):
            val = LabelValue(Fraction(rng.randint(-9, 9), rng.randint(1, 6)),
                             Fraction(rng.randint(-5, 5)))
            assert LabelValue.parse(str(val)) == val

    def test_ordering(self):
        # 2 + delta < 3 for all small delta, but 2 + delta > 2
        assert LabelValue(2, 1) < LabelValue(3, 0)
        assert not (LabelValue(2, 1) < LabelValue(2, 0))
        assert LabelValue(2, 0) < LabelValue(2, 1)
        assert LabelValue(2, -1) < LabelValue(2, 0)

    def test_arithmetic(self):
        a = LabelValue(2, 1)
        assert a + a == LabelValue(4, 2)
        assert a - LabelValue(Fraction(3, 4), 0) == LabelValue(Fraction(5, 4), 1)
        assert 2 * a == LabelValue(4, 2)
        assert (a + 1).q == 3

    def test_eval(self):
        assert LabelValue(2, 1).eval_at(Fraction(1, 800)) == Fraction(1601, 800)


class TestParser:
    def test_pair_graph_shape(self, pair_graph):
        assert len(pair_graph.external_ids) == 2
        assert len(pair_graph.internal_ids) == 1
        assert pair_graph.star == "u"
        assert pair_graph.degree("u") == 3

    def test_chain_graph_shape(self, chain_graph):
        assert len(chain_graph.external_ids) == 3
        assert len(chain_graph.internal_ids) == 2

    def test_zero_label_rejected(self):
        bad = PAIR_SOURCE.replace("edge u v2 label 2+1d", "edge u v2 label 0")
        with pytest.raises(GraphParseError, match="label 0"):
            parse_partial_graph(bad)

    def test_syntax_error_carries_line(self):
        bad = "graph g\nvertex 0 origin\nvertex u star\nedgy u 0\n"
        with pytest.raises(GraphParseError, match="line 4"):
            parse_partial_graph(bad)

    def test_external_degree_enforced(self):
        bad = PAIR_SOURCE + "edge v1 v2 label 1+1d\n"
        with pytest.raises(GraphParseError, match="degree 1"):
            parse_partial_graph(bad)

    def test_missing_star_edge(self):
        bad = "graph g\nvertex 0 origin\nvertex u star\nedge 0 u label 2\n"
        with pytest.raises(GraphParseError, match="star-edge"):
            parse_partial_graph(bad)

    def test_disconnected_rejected(self):
        bad = """\
graph g
vertex 0 origin
vertex u star
vertex a internal
vertex b internal
star-edge 0 u
edge 0 u label 1+0d
"""
        # a, b unreachable and degree-0; degree error fires first
        with pytest.raises(GraphParseError):
            parse_partial_graph(bad)

    def test_round_trip_after_renaming(self, chain_graph):
        renamed = (CHAIN_SOURCE.replace("a1", "zz1").replace("a2", "qq")
                   .replace("w", "mid"))
        assert canonical_key(parse_partial_graph(renamed)) == canonical_key(chain_graph)


class TestContractions:
    def test_pair_p2_count(self, pair_graph):
        cons = list(iter_contractions(pair_graph, 2))
        assert len(cons) == len(list(iter_wick_partitions(2, 2))) == 3

    def test_counts_match_partitions(self, pair_graph, chain_graph):
        for g, m in [(pair_graph, 2), (chain_graph, 3)]:
            for p in (2, 3):
                assert len(list(iter_contractions(g, p))) == \
                    len(list(iter_wick_partitions(m, p)))

    def test_classes_match_partitions_and_are_shared(self, chain_graph):
        ext = chain_graph.external_ids
        first = list(iter_contractions(chain_graph, 3))
        assert [c.classes for c in first] == [
            tuple(frozenset((k.copy, ext[k.slot - 1]) for k in block) for block in blocks)
            for blocks in iter_wick_partitions(3, 3)
        ]
        second = list(iter_contractions(chain_graph, 3))
        assert first == second
        for a, b in zip(first, second):
            assert a.classes is b.classes
            assert all(x is y for x, y in zip(a.classes, b.classes))

    def test_classes_follow_declaration_order(self):
        # slot i is the i-th declared external, so with externals declared
        # out of name order the classes still come in the blocks' order
        declared = ("a3", "a1", "a2")
        H = parse_partial_graph("".join(
            line for line in CHAIN_SOURCE.splitlines(keepends=True)
            if not line.endswith("external\n"))
            + "".join(f"vertex {v} external\n" for v in declared))
        assert H.external_ids == declared
        assert [c.classes for c in iter_contractions(H, 3)] == [
            tuple(frozenset((k.copy, declared[k.slot - 1]) for k in block) for block in blocks)
            for blocks in iter_wick_partitions(3, 3)
        ]

    def test_gluings_do_not_depend_on_the_hash_seed(self):
        # classes are frozensets, so an order taken from set iteration would
        # change with PYTHONHASHSEED; the gluings and the checks on them may not
        code = (
            "import json\n"
            "from kpzlab.graphs import iter_contractions\n"
            "from kpzlab.power_counting import KPZAllocationRule, check_contracted\n"
            "from kpzlab.symbols import QUAD_SPLIT, graph_catalog\n"
            "H = next(e.graph for e in graph_catalog(QUAD_SPLIT)\n"
            "         if e.graph.name == 'quad-split/loop')\n"
            "rows = [([sorted(c) for c in G.classes],\n"
            "         check_contracted(G, KPZAllocationRule()).to_record())\n"
            "        for G in iter_contractions(H, 3)]\n"
            "print(json.dumps(rows))\n"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(graphs.__file__).resolve().parents[1]))
        runs = [json.loads(subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, check=True,
            env=dict(env, PYTHONHASHSEED=seed)).stdout) for seed in ("0", "1")]
        assert len(runs[0]) == len(list(iter_wick_partitions(2, 3)))
        assert runs[0] == runs[1]

    def test_single_external_graph(self):
        src = """\
graph reduced
vertex 0 origin
vertex u star
vertex a1 external
star-edge 0 u
edge u a1 label 2+1d
"""
        g = parse_partial_graph(src)
        cons = list(iter_contractions(g, 2))
        assert len(cons) == 1
        assert cons[0].classes == (frozenset({(1, "a1"), (2, "a1")}),)

    def test_slot_cap_fails_fast(self, chain_graph):
        quad = parse_partial_graph(CHAIN_SOURCE.replace("graph chain", "graph quad")
                                   + "vertex a4 external\nedge u a4 label 2+1d\n")
        it = iter_contractions(quad, 4)
        with pytest.raises(SizeLimitError, match="4 slots x 4 copies = 16"):
            next(it)
        # 12 slots are within the cap
        assert next(iter_contractions(quad, 3)).classes
        assert next(iter_contractions(chain_graph, 4)).classes

    def test_full_identification_multigraph(self, pair_graph):
        cons = list(iter_contractions(pair_graph, 2))
        full = [c for c in cons if len(c.classes) == 1][0]
        ex = full.ex_vertices[0]
        assert contracted_degree(full, ex) == 4
        # in-vertex degrees match the source internal degrees
        for v in full.in_vertices:
            assert contracted_degree(full, v) == 3

    def test_degrees_equal_class_sizes(self, chain_graph):
        for c in iter_contractions(chain_graph, 2):
            for i, cls in enumerate(c.classes):
                assert contracted_degree(c, c.ex_vertex(i)) == len(cls)

    def test_no_edge_between_ex_vertices(self, chain_graph):
        for c in iter_contractions(chain_graph, 3):
            ex = set(c.ex_vertices)
            for e in c.edge_list():
                assert not (e.u in ex and e.v in ex)

    def test_float_p_rejected_with_and_without_externals(self, chain_graph):
        (flat,) = [entry.graph for tau in SUPPORTED_SYMBOLS for entry in graph_catalog(tau)
                   if entry.graph.name == "quad-chain/flat-remainder"]
        assert not flat.external_ids
        for H in (flat, chain_graph):
            with pytest.raises(ValueError, match="p must be an integer, got 2.5"):
                next(iter_contractions(H, 2.5))

    def test_interning_tables_are_bounded(self, pair_graph, chain_graph, monkeypatch):
        cases = [(pair_graph, 4), (chain_graph, 2), (chain_graph, 3)]
        want = [c for H, p in cases for c in iter_contractions(H, p)]
        monkeypatch.setattr(graphs, "_INTERNED_MAX", 50)
        monkeypatch.setattr(graphs, "_GLUINGS", {})
        monkeypatch.setattr(graphs, "_GLUED_CLASSES", {})
        got = []
        for H, p in cases:
            for c in iter_contractions(H, p):
                assert len(graphs._GLUINGS) <= 50 and len(graphs._GLUED_CLASSES) <= 50
                got.append(c)
        assert len(got) > 50 * 50 and got == want


def permutation_automorphisms(H):
    """Every kind-respecting vertex permutation that maps the edge multiset onto itself."""
    by_kind = {}
    for v, k in sorted(H.kinds):
        by_kind.setdefault(k, []).append(v)
    edges = sorted((tuple(sorted((e.u, e.v))), str(e.label), e.distinguished) for e in H.edges)
    out = []
    for combo in itertools.product(*(itertools.permutations(vs) for vs in by_kind.values())):
        mapping = {v: w for vs, perm in zip(by_kind.values(), combo) for v, w in zip(vs, perm)}
        mapped = sorted((tuple(sorted((mapping[e.u], mapping[e.v]))), str(e.label), e.distinguished)
                        for e in H.edges)
        if mapped == edges:
            out.append(mapping)
    return out


def renamed(H, rng):
    """``H`` with fresh vertex names drawn so that their sorted order is another one."""
    pool = [a + b for a in "0auvwx" for b in ["", *"0auvwx"]]
    name = dict(zip(H.vertex_ids, rng.sample(pool, len(H.kinds))))
    while sorted(H.vertex_ids, key=name.get) == sorted(H.vertex_ids):
        name = dict(zip(H.vertex_ids, rng.sample(pool, len(H.kinds))))
    return PartialGraph(
        name=H.name,
        kinds=tuple((name[v], k) for v, k in H.kinds),
        edges=tuple(GraphEdge(name[e.u], name[e.v], e.label, e.distinguished) for e in H.edges),
    )


class TestIsomorphism:
    def test_automorphisms_match_permutation_scan(self, pair_graph, chain_graph):
        # the search's automorphisms, as a set of maps, equal the brute-force
        # scan on every catalog graph and on renamed copies
        catalog = [entry.graph for tau in SUPPORTED_SYMBOLS for entry in graph_catalog(tau)]
        rng = random.Random(5)
        cases = [pair_graph, chain_graph] + catalog
        cases += [renamed(H, rng) for H in cases for _ in range(3)]
        nontrivial = 0
        for H in cases:
            found = automorphisms(H)
            want = permutation_automorphisms(H)
            assert found[0] == {v: v for v in H.vertex_ids}
            assert len(found) == len({frozenset(m.items()) for m in found})
            assert {frozenset(m.items()) for m in found} == {frozenset(m.items()) for m in want}
            nontrivial += len(want) > 1
        assert len(catalog) == 19 and nontrivial > 0

    def test_automorphisms_pair(self, pair_graph):
        # swapping the two externals is the only non-trivial symmetry
        assert len(automorphisms(pair_graph)) == 2

    def test_automorphisms_chain(self, chain_graph):
        # swap a2 and a3 only
        assert len(automorphisms(chain_graph)) == 2

    def test_canonical_separates(self, pair_graph, chain_graph):
        assert canonical_key(pair_graph) != canonical_key(chain_graph)

    def test_canonical_on_contractions(self, pair_graph):
        cons = list(iter_contractions(pair_graph, 2))
        keys = [canonical_key(c) for c in cons]
        # the two cross pairings are isomorphic; the full gluing is not
        assert len(set(keys)) == 2
