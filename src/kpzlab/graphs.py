"""Labelled partial graphs, their text format, and Wick contractions.

A partial graph has a distinguished origin vertex ``0``, a star vertex
joined to the origin by the unique edge with label exactly ``0``, internal
vertices of degree >= 2 and external vertices of degree 1.  Edge labels are
exact values ``q + r*delta`` for an infinitesimal ``delta > 0``; all
comparisons are lexicographic in ``(q, r)`` and therefore decide every
strict inequality "for all sufficiently small delta" with no floating
point involved.

Contracting ``p`` copies of a partial graph glues external vertices across
copies (every glued class must meet at least two copies) and produces a
labelled multigraph, whose parallel edges the power-counting checks merge
by summing their labels.  The text format is line oriented::

    graph <name>
    vertex <id> origin|star|internal|external
    star-edge <origin-id> <star-id>
    edge <id> <id> label <q>[+<r>d]
    # comment

Labels like ``2+1d`` mean ``2 + delta``; ``5/2-1d`` means ``5/2 - delta``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator

from .cumulants import _check_count, iter_wick_partitions

__all__ = [
    "LabelValue",
    "GraphEdge",
    "PartialGraph",
    "ContractionEdge",
    "ContractedGraph",
    "GraphParseError",
    "parse_partial_graph",
    "iter_contractions",
    "automorphisms",
    "canonical_key",
]


def _as_fraction(x) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


@dataclass(frozen=True)
class LabelValue:
    """Exact value ``q + r*delta`` with lexicographic comparisons."""

    q: Fraction = Fraction(0)
    r: Fraction = Fraction(0)

    def __post_init__(self):
        object.__setattr__(self, "q", _as_fraction(self.q))
        object.__setattr__(self, "r", _as_fraction(self.r))

    # -- algebra ---------------------------------------------------------
    def __add__(self, other: "LabelValue | int | Fraction") -> "LabelValue":
        other = LabelValue.coerce(other)
        return LabelValue(self.q + other.q, self.r + other.r)

    __radd__ = __add__

    def __sub__(self, other: "LabelValue | int | Fraction") -> "LabelValue":
        other = LabelValue.coerce(other)
        return LabelValue(self.q - other.q, self.r - other.r)

    def __rsub__(self, other) -> "LabelValue":
        return LabelValue.coerce(other) - self

    def __neg__(self) -> "LabelValue":
        return LabelValue(-self.q, -self.r)

    def __mul__(self, scalar) -> "LabelValue":
        scalar = _as_fraction(scalar)
        return LabelValue(self.q * scalar, self.r * scalar)

    __rmul__ = __mul__

    # -- order (q first, then the delta coefficient) ----------------------
    def _key(self) -> tuple[Fraction, Fraction]:
        return (self.q, self.r)

    def __lt__(self, other) -> bool:
        return self._key() < LabelValue.coerce(other)._key()

    def __le__(self, other) -> bool:
        return self._key() <= LabelValue.coerce(other)._key()

    def __gt__(self, other) -> bool:
        return self._key() > LabelValue.coerce(other)._key()

    def __ge__(self, other) -> bool:
        return self._key() >= LabelValue.coerce(other)._key()

    def is_zero(self) -> bool:
        return self.q == 0 and self.r == 0

    def eval_at(self, delta: Fraction) -> Fraction:
        """Numeric value once the infinitesimal is pinned to a rational."""
        return self.q + self.r * _as_fraction(delta)

    @staticmethod
    def coerce(value) -> "LabelValue":
        if isinstance(value, LabelValue):
            return value
        return LabelValue(_as_fraction(value), Fraction(0))

    @staticmethod
    def parse(text: str) -> "LabelValue":
        """Parse ``<q>``, ``<q>+<r>d`` or ``<q>-<r>d``; each part may have an exponent."""
        body = text.strip().replace(" ", "")
        if not body:
            raise ValueError("empty label")
        # split off a trailing ...±...d part if present
        if body.endswith("d"):
            core = body[:-1]
            # find the sign that separates q from r (skip a leading sign
            # and an exponent's sign)
            for pos in range(len(core) - 1, 0, -1):
                if core[pos] in "+-" and core[pos - 1] not in "+-/eE":
                    q_part, sign, r_part = core[:pos], core[pos], core[pos + 1 :]
                    break
            else:
                # pure delta multiple, e.g. "1d" or "-1d"
                q_part, sign, r_part = "0", "+", core
            r = Fraction(r_part if r_part else "1")
            if sign == "-":
                r = -r
            return LabelValue(Fraction(q_part), r)
        return LabelValue(Fraction(body), Fraction(0))

    def __str__(self) -> str:
        if self.r == 0:
            return str(self.q)
        sign = "+" if self.r > 0 else "-"
        return f"{self.q}{sign}{abs(self.r)}d"

    def __repr__(self) -> str:
        return f"LabelValue({self})"


ZERO_LABEL = LabelValue()


@dataclass(frozen=True)
class GraphEdge:
    """Undirected labelled edge; ``distinguished`` marks the star edge."""

    u: str
    v: str
    label: LabelValue
    distinguished: bool = False

    def endpoints(self) -> frozenset:
        return frozenset((self.u, self.v))

    def touches(self, vertex: str) -> bool:
        return vertex == self.u or vertex == self.v

    def other(self, vertex: str) -> str:
        if vertex == self.u:
            return self.v
        if vertex == self.v:
            return self.u
        raise KeyError(vertex)


class GraphParseError(ValueError):
    """Syntax or invariant error in a graph description document."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        prefix = f"line {line}: " if line is not None else ""
        super().__init__(prefix + message)


@dataclass(frozen=True)
class PartialGraph:
    """Connected labelled graph with origin, star edge, and typed vertices."""

    name: str
    kinds: tuple[tuple[str, str], ...]  # (vertex id, kind) in declaration order
    edges: tuple[GraphEdge, ...]

    # -- views -------------------------------------------------------------
    @property
    def kind_map(self) -> dict[str, str]:
        return dict(self.kinds)

    @property
    def vertex_ids(self) -> tuple[str, ...]:
        return tuple(v for v, _ in self.kinds)

    @property
    def origin(self) -> str:
        return next(v for v, k in self.kinds if k == "origin")

    @property
    def star(self) -> str:
        return next(v for v, k in self.kinds if k == "star")

    @property
    def external_ids(self) -> tuple[str, ...]:
        return tuple(v for v, k in self.kinds if k == "external")

    @property
    def internal_ids(self) -> tuple[str, ...]:
        """Internal vertices; the star vertex counts as internal."""
        return tuple(v for v, k in self.kinds if k in ("internal", "star"))

    def degree(self, vertex: str) -> int:
        return sum(1 for e in self.edges if e.touches(vertex))

    def incident(self, vertex: str) -> tuple[GraphEdge, ...]:
        return tuple(e for e in self.edges if e.touches(vertex))

    def label_sum(self) -> LabelValue:
        total = ZERO_LABEL
        for e in self.edges:
            total = total + e.label
        return total

    # -- construction ------------------------------------------------------
    def __post_init__(self):
        kind_map = self.kind_map
        valid = {"origin", "star", "internal", "external"}
        for v, k in self.kinds:
            if k not in valid:
                raise GraphParseError(f"unknown vertex kind {k!r} for {v!r}")
        origins = [v for v, k in self.kinds if k == "origin"]
        stars = [v for v, k in self.kinds if k == "star"]
        if len(origins) != 1:
            raise GraphParseError(f"need exactly one origin vertex, got {len(origins)}")
        if len(stars) != 1:
            raise GraphParseError(f"need exactly one star vertex, got {len(stars)}")
        for e in self.edges:
            for end in (e.u, e.v):
                if end not in kind_map:
                    raise GraphParseError(f"edge endpoint {end!r} is not a declared vertex")
            if e.u == e.v:
                raise GraphParseError(f"self-loop at {e.u!r} not allowed")
        dist = [e for e in self.edges if e.distinguished]
        if len(dist) != 1:
            raise GraphParseError("need exactly one star-edge")
        star_edge = dist[0]
        if star_edge.endpoints() != frozenset((origins[0], stars[0])):
            raise GraphParseError("star-edge must join the origin to the star vertex")
        if not star_edge.label.is_zero():
            raise GraphParseError("the star-edge label must be exactly 0")
        for e in self.edges:
            if not e.distinguished and e.label.is_zero():
                raise GraphParseError(
                    f"label 0 on edge {e.u!r}-{e.v!r}: only the star-edge carries label 0"
                )
        for v, k in self.kinds:
            d = self.degree(v)
            if k == "external" and d != 1:
                raise GraphParseError(f"external vertex {v!r} must have degree 1, got {d}")
            if k in ("internal", "star") and d < 2:
                raise GraphParseError(f"internal vertex {v!r} must have degree >= 2, got {d}")
        # connectivity
        if self.kinds:
            seen = {self.kinds[0][0]}
            frontier = [self.kinds[0][0]]
            while frontier:
                cur = frontier.pop()
                for e in self.incident(cur):
                    nxt = e.other(cur)
                    if nxt not in seen:
                        seen.add(nxt)
                        frontier.append(nxt)
            if len(seen) != len(self.kinds):
                raise GraphParseError("graph is not connected")


def parse_partial_graph(text: str) -> PartialGraph:
    """Parse a graph description document into a validated PartialGraph."""
    name: str | None = None
    kinds: list[tuple[str, str]] = []
    edges: list[GraphEdge] = []
    star_edge: tuple[str, str] | None = None
    declared: set[str] = set()

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        directive = tokens[0]
        try:
            if directive == "graph":
                if len(tokens) != 2:
                    raise GraphParseError("expected: graph <name>", lineno)
                if name is not None:
                    raise GraphParseError("duplicate graph directive", lineno)
                name = tokens[1]
            elif directive == "vertex":
                if len(tokens) != 3:
                    raise GraphParseError("expected: vertex <id> <kind>", lineno)
                vid, kind = tokens[1], tokens[2]
                if vid in declared:
                    raise GraphParseError(f"duplicate vertex {vid!r}", lineno)
                declared.add(vid)
                kinds.append((vid, kind))
            elif directive == "edge":
                if len(tokens) != 5 or tokens[3] != "label":
                    raise GraphParseError("expected: edge <id> <id> label <value>", lineno)
                try:
                    label = LabelValue.parse(tokens[4])
                except (ValueError, ZeroDivisionError) as exc:
                    raise GraphParseError(f"bad label {tokens[4]!r}: {exc}", lineno)
                edges.append(GraphEdge(tokens[1], tokens[2], label))
            elif directive == "star-edge":
                if len(tokens) != 3:
                    raise GraphParseError("expected: star-edge <origin-id> <star-id>", lineno)
                if star_edge is not None:
                    raise GraphParseError("duplicate star-edge", lineno)
                star_edge = (tokens[1], tokens[2])
            else:
                raise GraphParseError(f"unknown directive {directive!r}", lineno)
        except GraphParseError:
            raise
        except Exception as exc:  # defensive: wrap with position info
            raise GraphParseError(str(exc), lineno)

    if name is None:
        raise GraphParseError("missing graph directive")
    if star_edge is None:
        raise GraphParseError("missing star-edge directive")
    edges.append(GraphEdge(star_edge[0], star_edge[1], ZERO_LABEL, distinguished=True))
    try:
        return PartialGraph(name=name, kinds=tuple(kinds), edges=tuple(edges))
    except GraphParseError:
        raise
    except ValueError as exc:
        raise GraphParseError(str(exc))


# ---------------------------------------------------------------------------
# Wick contractions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ContractionEdge:
    """Edge of a contracted graph, tagged with its copy of origin."""

    u: str
    v: str
    label: LabelValue
    kind: str  # "distinguished" | "internal" | "external"
    copy: int

    def touches(self, vertex: str) -> bool:
        return vertex == self.u or vertex == self.v


@dataclass(frozen=True, slots=True)
class ContractedGraph:
    """Multigraph obtained by gluing the externals of ``p`` copies of ``H``."""

    source: PartialGraph
    p: int
    classes: tuple[frozenset, ...]  # frozensets of (copy, external id)

    ORIGIN = "0"

    @staticmethod
    def in_vertex(copy: int, vid: str) -> str:
        return f"copy{copy}.{vid}"

    def ex_vertex(self, index: int) -> str:
        return f"x{index}"

    @property
    def in_vertices(self) -> tuple[str, ...]:
        return tuple(
            self.in_vertex(k, vid)
            for k in range(1, self.p + 1)
            for vid in self.source.internal_ids
        )

    @property
    def ex_vertices(self) -> tuple[str, ...]:
        return tuple(self.ex_vertex(i) for i in range(len(self.classes)))

    @property
    def vertex_ids(self) -> tuple[str, ...]:
        return (self.ORIGIN,) + self.in_vertices + self.ex_vertices

    @property
    def star_set(self) -> tuple[str, ...]:
        return (self.ORIGIN,) + tuple(
            self.in_vertex(k, self.source.star) for k in range(1, self.p + 1)
        )

    def edge_list(self) -> tuple[ContractionEdge, ...]:
        kind_map = self.source.kind_map
        glued = {slot: self.ex_vertex(i)
                 for i, cls in enumerate(self.classes) for slot in cls}

        def image(copy: int, vid: str) -> str:
            kind = kind_map[vid]
            if kind == "origin":
                return self.ORIGIN
            if kind == "external":
                if (copy, vid) not in glued:
                    raise KeyError(f"external ({copy}, {vid}) not in any class")
                return glued[(copy, vid)]
            return self.in_vertex(copy, vid)

        out = []
        for copy in range(1, self.p + 1):
            for e in self.source.edges:
                if e.distinguished:
                    kind = "distinguished"
                elif kind_map[e.u] == "external" or kind_map[e.v] == "external":
                    kind = "external"
                else:
                    kind = "internal"
                out.append(ContractionEdge(
                    u=image(copy, e.u),
                    v=image(copy, e.v),
                    label=e.label,
                    kind=kind,
                    copy=copy,
                ))
        return tuple(out)


#: One object per distinct glued class, and one per distinct tuple of them,
#: shared by every contraction that has it, including those of later
#: enumerations.  A certify round interns 2,631 gluings and 738 classes,
#: which every later round shares; enumerating ``square/main`` at p = 6
#: alone interned 484k gluings, about 60 MB.  Both tables are emptied
#: before a gluing would take either past ``_INTERNED_MAX`` entries.
_GLUED_CLASSES: dict[frozenset, frozenset] = {}
_GLUINGS: dict[tuple, tuple] = {}
_INTERNED_MAX = 2 ** 16


def iter_contractions(H: PartialGraph, p: int) -> Iterator[ContractedGraph]:
    """All Wick contractions of ``p`` copies of ``H``.

    One contraction per admissible gluing of the external vertices; glued
    classes must contain externals from at least two distinct copies.
    Isomorphic duplicates are not removed.  The classes of a gluing come
    in the order of ``iter_wick_partitions``' blocks: by their first
    ``(copy, slot)``, where ``slot`` numbers the externals in declaration
    order.  More than ``cumulants.GROUND_SET_CAP`` external slots over all
    copies raise ``SizeLimitError`` on the first ``next()``, and a ``p``
    that is not an integer ``ValueError``.
    """
    _check_count("p", p)
    if p < 2:
        raise ValueError("contractions need p >= 2")
    ext = H.external_ids
    if not ext:
        yield ContractedGraph(source=H, p=p, classes=())
        return
    for blocks in iter_wick_partitions(len(ext), p):
        if (len(_GLUINGS) >= _INTERNED_MAX
                or len(_GLUED_CLASSES) + len(blocks) > _INTERNED_MAX):
            _GLUINGS.clear()
            _GLUED_CLASSES.clear()
        classes = []
        for block in blocks:
            cls = frozenset((key.copy, ext[key.slot - 1]) for key in block)
            classes.append(_GLUED_CLASSES.setdefault(cls, cls))
        gluing = tuple(classes)
        yield ContractedGraph(source=H, p=p, classes=_GLUINGS.setdefault(gluing, gluing))


# ---------------------------------------------------------------------------
# Isomorphism machinery: one search gives canonical keys and automorphisms
# ---------------------------------------------------------------------------

def _graph_data(graph) -> tuple[dict, list]:
    """Uniform (vertex colour, edge record) view for the iso machinery."""
    if isinstance(graph, PartialGraph):
        colors = {v: k for v, k in graph.kinds}
        edges = [(e.u, e.v, (str(e.label), e.distinguished)) for e in graph.edges]
    elif isinstance(graph, ContractedGraph):
        colors = {ContractedGraph.ORIGIN: "origin"}
        star_names = set(graph.star_set) - {ContractedGraph.ORIGIN}
        for v in graph.in_vertices:
            colors[v] = "star" if v in star_names else "in"
        for v in graph.ex_vertices:
            colors[v] = "ex"
        edges = [(e.u, e.v, (str(e.label), e.kind == "distinguished"))
                 for e in graph.edge_list()]
    else:
        raise TypeError(f"unsupported graph type {type(graph)!r}")
    return colors, edges


def _search(graph) -> tuple[tuple, list[list]]:
    """The least leaf encoding of the isomorphism search, and every leaf order reaching it.

    Refinement-plus-individualisation from the vertex kinds; the branch
    step tries every vertex of the first ambiguous colour class.  A leaf
    order lists the vertices by their (discrete) colours.
    """
    colors, edges = _graph_data(graph)
    vertices = sorted(colors)
    incident: dict[str, list] = {v: [] for v in vertices}
    for u, v, key in edges:
        incident[u].append((key, v))
        incident[v].append((key, u))

    def refine(col: dict) -> dict:
        while True:
            sig = {
                v: (col[v], tuple(sorted((key, col[w]) for key, w in incident[v])))
                for v in vertices
            }
            ranks = {s: i for i, s in enumerate(sorted(set(sig.values())))}
            new = {v: ranks[sig[v]] for v in vertices}
            if len(set(new.values())) == len(set(col.values())):
                # stable: but keep the (stable) integer colours
                return new
            col = new

    def encode(order: list) -> tuple:
        index = {v: i for i, v in enumerate(order)}
        rec = sorted(
            (min(index[u], index[v]), max(index[u], index[v]), key)
            for u, v, key in edges
        )
        return (tuple(colors[v] for v in order), tuple(rec))

    found: list = [None]  # the least encoding so far, then every order reaching it

    def search(col: dict) -> None:
        groups: dict[int, list] = {}
        for v in vertices:
            groups.setdefault(col[v], []).append(v)
        ambiguous = [c for c, vs in groups.items() if len(vs) > 1]
        if not ambiguous:
            order = sorted(vertices, key=lambda v: col[v])
            enc = encode(order)
            if found[0] is None or enc < found[0]:
                found[:] = [enc]
            if enc == found[0]:
                found.append(order)
            return
        target = min(ambiguous)
        fresh = max(col.values()) + 1
        for v in sorted(groups[target]):
            child = dict(col)
            child[v] = fresh
            search(refine(child))

    kinds = sorted(set(colors.values()))
    search(refine({v: kinds.index(colors[v]) for v in vertices}))
    return found[0], found[1:]


def canonical_key(graph) -> tuple:
    """A canonical encoding equal for two graphs iff they are isomorphic.

    Isomorphisms must preserve vertex kinds, edge labels, edge multiplicity
    and the star-edge flag.  Exact: the least leaf encoding of the search.
    """
    return _search(graph)[0]


def automorphisms(graph: PartialGraph) -> list[dict]:
    """All label/kind/star-preserving vertex bijections of a partial graph, identity first.

    Refinement and individualisation commute with automorphisms, so each
    automorphism maps the first leaf order of the search that reaches the
    least encoding onto exactly one such order, and each such order gives
    one automorphism: the map from the first order onto it.
    """
    orders = _search(graph)[1]
    return [dict(zip(orders[0], order)) for order in orders]
