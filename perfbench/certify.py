"""Workload ``certify``: the exact half alone.

One round builds the symbol set, certifies the six supported symbols,
checks every contraction of every catalog graph for each p in ``P_SET``
under the KPZ allocation rule, and checks the rule's admissibility on each
graph.  A (graph, p) pair is planned when its number of gluings, counted
here in closed form, is at most ``MAX_GLUINGS``: the 4-external graphs at
p=3 have millions.  The seed only shuffles the order of the checks, since
the exact half has no random input.

One more check is planned on purpose: ``quad-chain/flat-remainder`` at
p=5 has 21 merged vertices and ``check_contracted`` refuses it above its
subset-scan work cap.  It is counted as a failed operation until the scan
is replaced by a polynomial method.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import comb

from kpzlab import graphs, power_counting, symbols

P_SET = (2, 3)
MAX_GLUINGS = 2500
CAPPED = ("quad-chain/flat-remainder", 5)
#: Contractions with at most this many merged vertices are re-checked by
#: a brute-force Fraction scan.
BRUTE_FORCE_MAX_VERTICES = 8
S = Fraction(3)  # |s| for the KPZ scaling (2, 1)


# ---------------------------------------------------------------------------
# Independent counts and scans
# ---------------------------------------------------------------------------

def stirling2(n: int, k: int) -> int:
    table = [[1] + [0] * k] + [[0] * (k + 1) for _ in range(n)]
    for i in range(1, n + 1):
        for j in range(1, k + 1):
            table[i][j] = j * table[i - 1][j] + table[i - 1][j - 1]
    return table[n][k]


def bell(n: int) -> int:
    return sum(stirling2(n, k) for k in range(n + 1))


def gluing_count(m: int, p: int) -> int:
    """Set partitions of p groups of m slots with no block inside one group.

    Inclusion-exclusion over families F of disjoint one-group blocks:
    sum_F (-1)^|F| Bell(n - |cup F|); per group the families covering r
    slots in j blocks number C(m, r) S(r, j).
    """
    group = [comb(m, r) * sum((-1) ** j * stirling2(r, j) for j in range(r + 1))
             for r in range(m + 1)]
    poly = [1]
    for _ in range(p):
        poly = [sum(poly[i] * group[r - i] for i in range(len(poly)) if 0 <= r - i <= m)
                for r in range(len(poly) + m)]
    return sum(c * bell(m * p - r) for r, c in enumerate(poly))


def brute_force_verdict(G, rule) -> bool:
    """Both glued-graph conditions by a plain scan over vertex subsets.

    Weights are ``m_e - b_e`` with the rule's allocation, multi-edges are
    merged by summing, and labels compare lexicographically in (q, r).
    """
    alloc = power_counting.allocation_assignment(G, rule)
    merged: dict = {}
    for i, e in enumerate(G.edge_list()):
        b = alloc.get((e.u, i), 0) + alloc.get((e.v, i), 0)
        key = (frozenset((e.u, e.v)), e.kind == "distinguished")
        q, r = merged.get(key, (Fraction(0), Fraction(0)))
        merged[key] = (q + e.label.q - b, r + e.label.r)
    vertices = list(G.vertex_ids)
    stars = set(G.star_set)
    for mask in range(1, 1 << len(vertices)):
        sub = {v for i, v in enumerate(vertices) if mask >> i & 1}
        inside = [w for (ends, _), w in merged.items() if ends <= sub]
        meeting = [w for (ends, _), w in merged.items() if ends & sub]
        if len(sub) >= 2:
            lhs = (sum(w[0] for w in inside), sum(w[1] for w in inside))
            if not lhs < (S * (len(sub) - 1), 0):
                return False
        if not sub & stars:
            lhs = (sum(w[0] for w in meeting), sum(w[1] for w in meeting))
            if not lhs > (S * len(sub), 0):
                return False
    return True


def own_homogeneity(tau) -> tuple[Fraction, Fraction]:
    """Homogeneity (q, r) of a symbol tree: the noise is -3/2 - kbar."""
    if tau.kind == "noise":
        return Fraction(-3, 2), Fraction(-1)
    if tau.kind == "poly":
        return Fraction(2 * tau.power[0] + tau.power[1]), Fraction(0)
    if tau.kind in ("heat", "dheat"):
        q, r = own_homogeneity(tau.args[0])
        return q + (2 if tau.kind == "heat" else 1), r
    parts = [own_homogeneity(f) for f in tau.args]
    return sum(p[0] for p in parts), sum(p[1] for p in parts)


# ---------------------------------------------------------------------------
# Workload
# ---------------------------------------------------------------------------

def setup(seed: int) -> dict:
    rule = power_counting.KPZAllocationRule()
    catalog = {
        entry.graph.name: entry.graph
        for tau in symbols.SUPPORTED_SYMBOLS if tau != symbols.XI
        for entry in symbols.graph_catalog(tau)
    }
    plan = [(name, p) for name, H in catalog.items() for p in P_SET
            if gluing_count(len(H.external_ids), p) <= MAX_GLUINGS]
    p_max = {name: max(p for n, p in plan if n == name) for name in catalog}
    rng = random.Random(seed)
    rng.shuffle(plan)
    supported = list(symbols.SUPPORTED_SYMBOLS)
    rng.shuffle(supported)
    return {"rule": rule, "catalog": catalog, "plan": plan + [CAPPED],
            "p_max": p_max, "symbols": supported}


def run_round(state: dict) -> dict:
    rule, catalog = state["rule"], state["catalog"]
    symbol_set = symbols.build_symbol_set()
    certified = [symbols.certify_symbol(tau) for tau in state["symbols"]]
    checked: dict = {}   # (graph, p) -> [(contraction, verdict or None if refused)]
    for name, p in state["plan"]:
        rows = checked.setdefault((name, p), [])
        for G in graphs.iter_contractions(catalog[name], p):
            try:
                rows.append((G, power_counting.check_contracted(G, rule).verdict))
            except ValueError:
                if (name, p) != CAPPED:
                    raise
                rows.append((G, None))
    admissible = {name: power_counting.check_admissible(rule, H, state["p_max"][name])
                  for name, H in catalog.items()}
    rows = [ok for group in checked.values() for _, ok in group]
    return {
        "symbol_set": symbol_set,
        "certified": certified,
        "checked": checked,
        "admissible": admissible,
        "ops": 1 + len(certified) + len(rows) + len(admissible),
        "failed": rows.count(None),
    }


def check(state: dict, results: list) -> list[str]:
    problems = []
    first = results[0]
    kbar = symbols.KAPPA_BAR
    hom = [own_homogeneity(tau) for tau, _ in first["symbol_set"]]
    values = [q + r * kbar for q, r in hom]
    for (tau, label), (q, r), v in zip(first["symbol_set"], hom, values):
        if (label.q, label.r) != (q, r) or not v < 2:
            problems.append(f"symbol {tau}: homogeneity {label} against ({q}, {r})")
    if values != sorted(values):
        problems.append("symbol set is not sorted by homogeneity")
    listed = {tau for tau, _ in first["symbol_set"]}
    problems += [f"supported symbol {tau} missing from the symbol set"
                 for tau in symbols.SUPPORTED_SYMBOLS if tau not in listed]

    for res in results:
        for report in res["certified"]:
            margins = [e.margin for e in report.entries]
            if not report.verdict or not all(
                    isinstance(m, Fraction) and m > 0 for m in margins):
                problems.append(f"{report.symbol} not certified: margins {margins}")
        for (name, p), rows in res["checked"].items():
            expected = gluing_count(len(state["catalog"][name].external_ids), p)
            if len(rows) != expected:
                problems.append(f"{name} p={p}: {len(rows)} contractions, "
                                f"{expected} gluings counted")
            problems += [f"{name} p={p}: contraction {G.classes} fails"
                         for G, ok in rows if ok is False]
        problems += [f"{name}: allocation rule not admissible"
                     for name, report in res["admissible"].items() if not report.verdict]

    small = [(G, ok) for rows in first["checked"].values() for G, ok in rows
             if ok is not None and len(G.vertex_ids) <= BRUTE_FORCE_MAX_VERTICES]
    problems += [f"brute-force scan disagrees on {G.source.name} p={G.p} {G.classes}"
                 for G, ok in small if brute_force_verdict(G, state["rule"]) != ok]
    if not small:
        problems.append("no contraction small enough for the brute-force scan")
    return problems


def extras(state: dict, result: dict) -> dict:
    """Isomorphism classes per checked contraction (what orbit enumeration saves)."""
    rows = [(key, G) for key, group in result["checked"].items()
            for G, ok in group if ok is not None]
    classes = {(key, graphs.canonical_key(G)) for key, G in rows}
    return {"graphs.distinct_ratio": len(classes) / len(rows)}
