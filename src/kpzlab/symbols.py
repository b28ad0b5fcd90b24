"""Formal symbols for the KPZ solution expansion and their renormalisation.

Symbols are trees built from the noise symbol, polynomials ``X^k``, two
integration operators (heat convolution and its space derivative) and a
commutative product.  Homogeneities live in the basis ``q + r*kbar`` for
the small positive regularity shift ``kbar``; they are carried exactly as
:class:`~kpzlab.graphs.LabelValue` pairs.

The renormalisation group acting here is the five-parameter family
``M = exp(-sum_i ell_i L_i)``, each generator contracting one fixed tree
to the unit symbol; the second generator acts by substitution and is the
only one with a non-trivial square.  The module also carries the catalog
of labelled bound graphs for the moment estimates of each symbol, and the
certification routine that runs both subset conditions on every catalog
graph and reports the scaling margin.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction

from .graphs import LabelValue, PartialGraph, parse_partial_graph
from .power_counting import (
    S_DIM,
    check_condition_A,
    check_condition_B,
    homogeneity_exponent,
)

__all__ = [
    "Symbol",
    "XI",
    "ONE",
    "ZERO",
    "PSI",
    "SQUARE",
    "DERIV_SQUARE",
    "INCREMENT_PAIR",
    "TRIPLE",
    "QUAD_CHAIN",
    "QUAD_SPLIT",
    "SUPPORTED_SYMBOLS",
    "poly",
    "integ",
    "dinteg",
    "product",
    "homogeneity",
    "build_symbol_set",
    "apply_generator",
    "generator_targets",
    "apply_renorm_map",
    "renormalised_coefficients",
    "CatalogEntry",
    "graph_catalog",
    "CertifyEntry",
    "CertifyReport",
    "certify_symbol",
    "KAPPA_BAR",
    "DELTA",
    "ETA",
]

#: Pinned exact parameters: regularity shift, label infinitesimal, and the
#: exponent used by the kernel-increment splits.  They satisfy
#: delta < eta, 4*delta < eta and delta < kbar/8.
KAPPA_BAR = Fraction(1, 100)
DELTA = Fraction(1, 800)
ETA = Fraction(1, 10)


# ---------------------------------------------------------------------------
# Symbols
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Symbol:
    """Canonical tree symbol; build through the module constructors."""

    kind: str  # "zero" | "noise" | "poly" | "heat" | "dheat" | "prod"
    power: tuple[int, int] = (0, 0)
    args: tuple["Symbol", ...] = ()
    # the homogeneity, computed once from the children's stored values
    hom: LabelValue | None = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.kind == "zero":
            hom = None
        elif self.kind == "noise":
            hom = LabelValue(Fraction(-3, 2), Fraction(-1))
        elif self.kind == "poly":
            hom = LabelValue(Fraction(2 * self.power[0] + self.power[1]), Fraction(0))
        elif self.kind == "heat":
            hom = self.args[0].hom + 2
        elif self.kind == "dheat":
            hom = self.args[0].hom + 1
        else:
            hom = LabelValue()
            for f in self.args:
                hom = hom + f.hom
        object.__setattr__(self, "hom", hom)

    def sort_key(self):
        return (self.kind, self.power, tuple(a.sort_key() for a in self.args))

    def is_zero(self) -> bool:
        return self.kind == "zero"

    def is_one(self) -> bool:
        return self.kind == "poly" and self.power == (0, 0)

    def factors(self) -> tuple["Symbol", ...]:
        if self.kind == "prod":
            return self.args
        if self.is_one():
            return ()
        return (self,)

    def __str__(self) -> str:
        if self.kind == "zero":
            return "0"
        if self.kind == "noise":
            return "Xi"
        if self.kind == "poly":
            k0, k1 = self.power
            if (k0, k1) == (0, 0):
                return "1"
            parts = []
            if k0:
                parts.append("X0" + (f"^{k0}" if k0 > 1 else ""))
            if k1:
                parts.append("X1" + (f"^{k1}" if k1 > 1 else ""))
            return "*".join(parts)
        if self.kind == "heat":
            return f"I({self.args[0]})"
        if self.kind == "dheat":
            return f"Ip({self.args[0]})"
        groups = []
        for factor, copies in itertools.groupby(self.args):
            n = len(list(copies))
            base = str(factor)
            if factor.kind == "prod" or (factor.kind == "poly" and "*" in base):
                base = f"({base})"
            groups.append(base + (f"^{n}" if n > 1 else ""))
        return "*".join(groups)

    __repr__ = __str__


ZERO = Symbol("zero")
XI = Symbol("noise")


def poly(k0: int = 0, k1: int = 0) -> Symbol:
    if k0 < 0 or k1 < 0:
        raise ValueError("polynomial exponents must be non-negative")
    return Symbol("poly", power=(k0, k1))


ONE = poly(0, 0)


def integ(tau: Symbol) -> Symbol:
    """Heat-kernel integration; annihilates polynomials."""
    if tau.is_zero() or tau.kind == "poly":
        return ZERO
    return Symbol("heat", args=(tau,))


def dinteg(tau: Symbol) -> Symbol:
    """Differentiated heat-kernel integration; annihilates polynomials."""
    if tau.is_zero() or tau.kind == "poly":
        return ZERO
    return Symbol("dheat", args=(tau,))


def product(*taus: Symbol) -> Symbol:
    factors: list[Symbol] = []
    k0 = k1 = 0
    for tau in taus:
        if tau.is_zero():
            return ZERO
        for f in tau.factors():
            if f.kind == "poly":
                k0 += f.power[0]
                k1 += f.power[1]
            else:
                factors.append(f)
    if k0 or k1:
        factors.append(poly(k0, k1))
    if not factors:
        return ONE
    if len(factors) == 1:
        return factors[0]
    factors.sort(key=lambda s: s.sort_key())
    return Symbol("prod", args=tuple(factors))


PSI = dinteg(XI)
SQUARE = product(PSI, PSI)
DERIV_SQUARE = dinteg(SQUARE)
INCREMENT_PAIR = product(PSI, dinteg(PSI))
TRIPLE = product(PSI, DERIV_SQUARE)
QUAD_CHAIN = product(PSI, dinteg(TRIPLE))
QUAD_SPLIT = product(DERIV_SQUARE, DERIV_SQUARE)

#: The renormalised objects whose moment bounds the catalog certifies.
SUPPORTED_SYMBOLS = (XI, SQUARE, TRIPLE, INCREMENT_PAIR, QUAD_SPLIT, QUAD_CHAIN)


def homogeneity(tau: Symbol) -> LabelValue:
    """Exact homogeneity ``q + r*kbar`` (the ``r`` part counts noises).

    The noise has ``-3/2 - kbar``, ``X^k`` has ``2 k0 + k1``, the two
    integrations add 2 and 1 and a product adds its factors.  Each symbol
    computes its value once, when it is built, from its children's stored
    values, so this is a lookup with no recursion.
    """
    if tau.is_zero():
        raise ValueError("the zero symbol has no homogeneity")
    return tau.hom


def _hom_value(tau: Symbol) -> Fraction:
    return homogeneity(tau).eval_at(KAPPA_BAR)


def build_symbol_set() -> list[tuple[Symbol, LabelValue]]:
    """All symbols of homogeneity below ``sigma = 2``, closed under the rules.

    Homogeneities are compared at ``KAPPA_BAR``.  The closure rules:
    products of two derivative-sector symbols feed the right-hand-side
    sector, which in turn feeds both integration maps.  Derivative-sector
    symbols are materialised slightly beyond ``sigma`` so that products
    with the most negative element cannot be missed.  Only finitely many
    symbols lie below these bounds (the equation is subcritical), so the
    worklist empties.

    Worklist invariant: every product of two current derivative-sector
    members below the bound is in the right-hand-side sector, and every
    right-hand-side symbol whose integration images are not yet added is
    on the worklist.  A new derivative-sector member is multiplied only
    with the members present when it enters, itself included, so each
    unordered pair is formed once.
    """
    sigma = Fraction(2)
    psi_hom = -Fraction(1, 2) - KAPPA_BAR
    up_bound = sigma - psi_hom  # products with Psi may still land below sigma

    def polys_below(bound: Fraction) -> list[Symbol]:
        out = []
        k0 = 0
        while 2 * k0 < bound:
            k1 = 0
            while 2 * k0 + k1 < bound:
                out.append(poly(k0, k1))
                k1 += 1
            k0 += 1
        return out

    u_prime = {a: _hom_value(a) for a in polys_below(up_bound)}
    v_set = {XI} | {
        product(a, b)
        for (a, ha), (b, hb) in itertools.combinations_with_replacement(u_prime.items(), 2)
        if ha + hb < up_bound
    }
    u_set = set(polys_below(sigma))
    work = list(v_set)
    while work:
        tau = work.pop()
        img = integ(tau)
        if not img.is_zero() and _hom_value(img) < sigma:
            u_set.add(img)
        img = dinteg(tau)
        if img.is_zero() or img in u_prime or (h := _hom_value(img)) >= up_bound:
            continue
        u_prime[img] = h
        for b, hb in u_prime.items():
            if h + hb < up_bound and (new := product(img, b)) not in v_set:
                v_set.add(new)
                work.append(new)

    everything = {
        tau
        for tau in u_set | v_set | u_prime.keys()
        if _hom_value(tau) < sigma
    }
    return sorted(
        ((tau, homogeneity(tau)) for tau in everything),
        key=lambda pair: (pair[1].eval_at(KAPPA_BAR), str(pair[0])),
    )


# ---------------------------------------------------------------------------
# Renormalisation group generators
# ---------------------------------------------------------------------------

def generator_targets() -> dict[int, Symbol]:
    return {1: SQUARE, 2: INCREMENT_PAIR, 3: TRIPLE, 4: QUAD_CHAIN, 5: QUAD_SPLIT}


def _substitution_images(tau: Symbol) -> dict[Symbol, int]:
    """All ways of contracting one increment-pair pattern inside ``tau``.

    The pattern removes one bare-noise-derivative factor together with one
    such factor inside a sibling derivative-integral, splicing the rest of
    that integrand up one level.
    """
    out: dict[Symbol, int] = {}
    fs = tau.factors()
    if not fs:
        return out

    def add(sym: Symbol, count: int) -> None:
        out[sym] = out.get(sym, 0) + count

    n_psi = sum(1 for f in fs if f == PSI)
    for j, f in enumerate(fs):
        if f.kind != "dheat":
            continue
        inner = f.args[0].factors()
        inner_psi = sum(1 for g in inner if g == PSI)
        top_psi = n_psi - (1 if f == PSI else 0)
        if top_psi >= 1 and inner_psi >= 1:
            # consume one top-level Psi, unwrap f, drop one inner Psi
            rest_top = list(fs)
            rest_top.remove(PSI)
            rest_top.pop(rest_top.index(f))
            remainder = list(inner)
            remainder.remove(PSI)
            add(product(*(rest_top + remainder)), top_psi * inner_psi)

    # recurse inside integration operators, one factor at a time
    for j, f in enumerate(fs):
        if f.kind in ("heat", "dheat"):
            rebuild = integ if f.kind == "heat" else dinteg
            for sym, count in _substitution_images(f.args[0]).items():
                new_factor = rebuild(sym)
                if new_factor.is_zero():
                    continue  # integration of a polynomial vanishes
                replaced = list(fs)
                replaced[j] = new_factor
                add(product(*replaced), count)
    return out


def apply_generator(i: int, tau: Symbol) -> dict[Symbol, Fraction]:
    """The i-th contraction generator as a linear combination of symbols."""
    if i not in (1, 2, 3, 4, 5):
        raise ValueError("generator index must be in 1..5")
    if tau.is_zero():
        return {}
    if i == 2:
        return {sym: Fraction(count) for sym, count in _substitution_images(tau).items()}
    return {ONE: Fraction(1)} if tau == generator_targets()[i] else {}


def _apply_sum_of_generators(ell: tuple, combo: dict) -> dict:
    out: dict[Symbol, object] = {}
    for tau, coeff in combo.items():
        for i, li in enumerate(ell, start=1):
            if li == 0:
                continue
            for sym, c in apply_generator(i, tau).items():
                out[sym] = out.get(sym, 0) + coeff * li * c
    return {k: v for k, v in out.items() if v != 0}


def apply_renorm_map(ell: tuple, combo: dict) -> dict:
    """``exp(-sum ell_i L_i)`` on a linear combination of symbols.

    ``ell`` holds the five constants ``ell_1 .. ell_5`` of the contraction
    generators; any other length raises ``ValueError``.  Every generator
    removes noises from a symbol, so the generator sum is nilpotent and
    the exponential series terminates.
    """
    if len(ell) != 5:
        raise ValueError(f"want five constants ell_1 .. ell_5, got {ell!r}")
    total: dict[Symbol, object] = dict(combo)
    current = _apply_sum_of_generators(ell, combo)
    sign = 1
    factorial = 1
    order = 0
    while current:
        order += 1
        sign = -sign
        factorial *= order
        for sym, c in current.items():
            total[sym] = total.get(sym, 0) + sign * c / factorial
        current = _apply_sum_of_generators(ell, current)
    return {k: v for k, v in total.items() if v != 0}


def renormalised_coefficients(ell: tuple, lam) -> tuple:
    """Transport and constant counterterms of the renormalised equation.

    Derived from the generator action on the expansion of the quadratic
    right-hand side: the unit-symbol coefficient gives the constant term
    and the bare-noise-derivative coefficient gives the transport term.
    The solver uses the same map in closed form, with the same arguments,
    ``sim.renormalised_coefficients_closed_form``.
    """
    rhs = {
        SQUARE: lam,
        TRIPLE: 2 * lam ** 2,
        QUAD_SPLIT: lam ** 3,
        QUAD_CHAIN: 4 * lam ** 3,
    }
    image = apply_renorm_map(ell, rhs)
    transport = image.get(PSI, 0)
    constant = image.get(ONE, 0)
    return transport, constant


# ---------------------------------------------------------------------------
# Catalog of bound graphs
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CatalogEntry:
    """One labelled graph bounding the moments of one symbol."""

    symbol: Symbol
    graph: PartialGraph
    multiplicity: int = 1
    lambda_power_per_copy: Fraction = Fraction(0)
    eps_leftover: LabelValue = LabelValue()
    tag: str = ""

    @property
    def vanishing(self) -> bool:
        return not self.eps_leftover.is_zero()


_ETA_COMP = str(Fraction(5, 2) - ETA)   # the far-side split label 5/2 - eta
_ETA_STR = str(ETA)

#: Each supported symbol's entries, their graphs parsed once at import.
_CATALOG: dict[Symbol, list[CatalogEntry]] = {}


def _entry(symbol, text, mult=1, lam=Fraction(0), leftover=LabelValue(), tag=""):
    _CATALOG.setdefault(symbol, []).append(
        CatalogEntry(symbol, parse_partial_graph(text), mult, lam, leftover, tag))


HALF = Fraction(1, 2)

_entry(SQUARE, """\
graph square/main
vertex 0 origin
vertex u star
vertex v1 external
vertex v2 external
star-edge 0 u
edge u v1 label 2+1d
edge u v2 label 2+1d
""", 1, Fraction(0), LabelValue(), "pair covariance chain")

_entry(TRIPLE, """\
graph triple/main
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
""", 1, Fraction(0), LabelValue(), "three-noise chain")

_entry(TRIPLE, """\
graph triple/reduced
vertex 0 origin
vertex u star
vertex a1 external
star-edge 0 u
edge u a1 label 2+1d
""", 2, Fraction(0), LabelValue(), "pair-contraction remainder after kernel reduction")

_entry(INCREMENT_PAIR, """\
graph increment-pair/near
vertex 0 origin
vertex u star
vertex v1 external
vertex v2 external
star-edge 0 u
edge u v1 label 3/2+1d
edge u v2 label 2+1d
""", 1, HALF, LabelValue(), "increment bounded by the far kernel")

_entry(INCREMENT_PAIR, f"""\
graph increment-pair/far
vertex 0 origin
vertex u star
vertex w internal
vertex v1 external
vertex v2 external
star-edge 0 u
edge 0 w label {_ETA_COMP}
edge w v1 label 2+1d
edge u v2 label 2+1d
edge u w label {_ETA_STR}
""", 1, HALF, LabelValue(), "increment bounded by the base-point kernel")

_entry(QUAD_SPLIT, """\
graph quad-split/main
vertex 0 origin
vertex m star
vertex l internal
vertex r internal
vertex v1 external
vertex v2 external
vertex v3 external
vertex v4 external
star-edge 0 m
edge m l label 2+1d
edge m r label 2+1d
edge l v1 label 2+1d
edge l v2 label 2+1d
edge r v3 label 2+1d
edge r v4 label 2+1d
""", 1, Fraction(0), LabelValue(), "four free noises")

_entry(QUAD_SPLIT, """\
graph quad-split/loop
vertex 0 origin
vertex m star
vertex l internal
vertex r internal
vertex v1 external
vertex v4 external
star-edge 0 m
edge m l label 2+1d
edge m r label 2+1d
edge l v1 label 2+1d
edge l r label 1+1d
edge r v4 label 2+1d
""", 4, Fraction(0), LabelValue(), "one pair contracted across the split")

_entry(QUAD_SPLIT, """\
graph quad-split/residual
vertex 0 origin
vertex m star
vertex v1 external
star-edge 0 m
edge m v1 label 2-1d
""", 4, Fraction(0), LabelValue(Fraction(1, 2), -1),
       "third-cumulant remainder; scale factor left over")

_entry(QUAD_CHAIN, """\
graph quad-chain/near
vertex 0 origin
vertex u star
vertex w1 internal
vertex w2 internal
vertex v1 external
vertex v2 external
vertex v3 external
vertex v4 external
star-edge 0 u
edge u w1 label 5/2+1d
edge w1 w2 label 2+1d
edge w2 v3 label 2+1d
edge w2 v4 label 2+1d
edge w1 v2 label 2+1d
edge u v1 label 2+1d
""", 1, HALF, LabelValue(), "four free noises, increment near side")

_entry(QUAD_CHAIN, f"""\
graph quad-chain/far
vertex 0 origin
vertex u star
vertex w1 internal
vertex w2 internal
vertex v1 external
vertex v2 external
vertex v3 external
vertex v4 external
star-edge 0 u
edge 0 w1 label {_ETA_COMP}
edge w1 w2 label 2+1d
edge w2 v3 label 2+1d
edge w2 v4 label 2+1d
edge w1 v2 label 2+1d
edge u v1 label 2+1d
edge u w1 label {_ETA_STR}
""", 1, HALF, LabelValue(), "four free noises, increment far side")

_entry(QUAD_CHAIN, """\
graph quad-chain/second
vertex 0 origin
vertex m star
vertex r internal
vertex a1 external
vertex a2 external
star-edge 0 m
edge m r label 2+1d
edge r a1 label 2+1d
edge r a2 label 2+1d
""", 1, Fraction(0), LabelValue(), "reduced kernel swallowed the inner pair")

_entry(QUAD_CHAIN, """\
graph quad-chain/third
vertex 0 origin
vertex u star
vertex w1 internal
vertex w2 internal
vertex v1 external
vertex v2 external
star-edge 0 u
edge 0 w1 label 2+1d
edge w1 w2 label 2+1d
edge w2 v1 label 2+1d
edge w2 v2 label 2+1d
edge u w1 label 1+1d
""", 1, Fraction(0), LabelValue(), "inner pair integrated against the covariance")

_entry(QUAD_CHAIN, """\
graph quad-chain/incr-near
vertex 0 origin
vertex u star
vertex v1 external
vertex v2 external
star-edge 0 u
edge u v1 label 3/2+1d
edge u v2 label 2+1d
""", 2, HALF, LabelValue(), "reduced kernel then increment, near side")

_entry(QUAD_CHAIN, f"""\
graph quad-chain/incr-far
vertex 0 origin
vertex u star
vertex w internal
vertex v1 external
vertex v2 external
star-edge 0 u
edge 0 w label {_ETA_COMP}
edge w v1 label 2+1d
edge u v2 label 2+1d
edge u w label {_ETA_STR}
""", 2, HALF, LabelValue(), "reduced kernel then increment, far side")

_entry(QUAD_CHAIN, """\
graph quad-chain/fifth-inner
vertex 0 origin
vertex u star
vertex w internal
vertex r internal
vertex v1 external
vertex v2 external
star-edge 0 u
edge u w label 1+1d
edge w r label 2+1d
edge w v1 label 2+1d
edge r v2 label 2+1d
edge r u label 2+1d
""", 2, Fraction(0), LabelValue(), "increment split, inner kernel kept")

_entry(QUAD_CHAIN, """\
graph quad-chain/fifth-outer
vertex 0 origin
vertex u star
vertex w internal
vertex r internal
vertex v1 external
vertex v2 external
star-edge 0 u
edge u w label 1+1d
edge w r label 2+1d
edge w v1 label 2+1d
edge r v2 label 2+1d
edge r 0 label 2+1d
""", 2, Fraction(0), LabelValue(), "increment split, outer kernel kept")

_entry(QUAD_CHAIN, """\
graph quad-chain/skew-local
vertex 0 origin
vertex u star
vertex v1 external
star-edge 0 u
edge u v1 label 2+1d
""", 1, Fraction(0), LabelValue(Fraction(1, 2), -1),
       "third-cumulant remainder, local part")

_entry(QUAD_CHAIN, """\
graph quad-chain/skew-chain
vertex 0 origin
vertex u star
vertex w internal
vertex v1 external
star-edge 0 u
edge 0 w label 2+1d
edge w v1 label 2+1d
edge u w label 1+1d
""", 2, Fraction(0), LabelValue(Fraction(1, 2), -1),
       "third-cumulant remainder, chain part")

_entry(QUAD_CHAIN, """\
graph quad-chain/flat-remainder
vertex 0 origin
vertex b star
vertex m internal
vertex t internal
vertex c internal
star-edge 0 b
edge 0 m label 2
edge m t label 2
edge c m label 2
edge c b label 2
edge c t label 2-1d
""", 1, Fraction(0), LabelValue(1, -1),
       "deterministic fourth-cumulant remainder after cancellation")

_CATALOG[XI] = []  # handled by direct scaling of the cumulant bound


def graph_catalog(tau: Symbol) -> list[CatalogEntry]:
    """The labelled bound graphs attached to one supported symbol."""
    if tau not in _CATALOG:
        raise KeyError(f"no catalog for symbol {tau}")
    return list(_CATALOG[tau])


# ---------------------------------------------------------------------------
# Certification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CertifyEntry:
    graph: str
    conditions_pass: bool
    alpha: LabelValue
    lambda_power: Fraction
    eps_leftover: LabelValue
    margin: Fraction
    vanishing: bool
    tag: str

    def to_record(self) -> dict:
        return {
            "graph": self.graph,
            "conditions": "pass" if self.conditions_pass else "fail",
            "alpha": str(self.alpha),
            "lambda_power": str(self.lambda_power),
            "eps_leftover": str(self.eps_leftover),
            "margin": str(self.margin),
            "vanishing": self.vanishing,
            "tag": self.tag,
        }


@dataclass(frozen=True)
class CertifyReport:
    symbol: str
    homogeneity: LabelValue
    verdict: bool
    margin: Fraction
    entries: tuple[CertifyEntry, ...]

    def to_record(self) -> dict:
        return {
            "symbol": self.symbol,
            "homogeneity": str(self.homogeneity),
            "verdict": "pass" if self.verdict else "fail",
            "margin": str(self.margin),
            "entries": [e.to_record() for e in self.entries],
        }


def certify_symbol(tau: Symbol) -> CertifyReport:
    """Run both subset conditions on every catalog graph of ``tau``.

    The per-entry margin is the numeric gap, at the pinned parameter
    values, between the achieved exponent (graph exponent plus coupling
    power plus any unconsumed scale factor) and the symbol homogeneity; a
    certified symbol has every graph passing and every margin positive.
    """
    hom = homogeneity(tau)
    hom_value = hom.eval_at(KAPPA_BAR)
    if tau == XI:
        # plain cumulant scaling; exponent -|s|/2 against -3/2 - kbar
        alpha = LabelValue(-S_DIM / 2, Fraction(0))
        margin = alpha.q - hom_value
        entry = CertifyEntry(
            graph="noise/direct-scaling",
            conditions_pass=True,
            alpha=alpha,
            lambda_power=Fraction(0),
            eps_leftover=LabelValue(),
            margin=margin,
            vanishing=False,
            tag="no graph: single-cumulant scaling bound",
        )
        return CertifyReport(str(tau), hom, margin > 0, margin, (entry,))

    entries: list[CertifyEntry] = []
    for cat in graph_catalog(tau):
        rep_a = check_condition_A(cat.graph)
        rep_b = check_condition_B(cat.graph)
        alpha = homogeneity_exponent(cat.graph)
        achieved = (
            alpha.eval_at(DELTA)
            + cat.lambda_power_per_copy
            + cat.eps_leftover.eval_at(DELTA)
        )
        margin = achieved - hom_value
        entries.append(CertifyEntry(
            graph=cat.graph.name,
            conditions_pass=rep_a.verdict and rep_b.verdict,
            alpha=alpha,
            lambda_power=cat.lambda_power_per_copy,
            eps_leftover=cat.eps_leftover,
            margin=margin,
            vanishing=cat.vanishing,
            tag=cat.tag,
        ))
    verdict = all(e.conditions_pass for e in entries) and all(
        e.margin > 0 for e in entries
    )
    margin = min(e.margin for e in entries)
    return CertifyReport(str(tau), hom, verdict, margin, tuple(entries))
