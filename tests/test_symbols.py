import itertools
import random
from fractions import Fraction

import pytest

from kpzlab import sim
from kpzlab.graphs import LabelValue
from kpzlab.symbols import (
    DELTA,
    DERIV_SQUARE,
    ETA,
    INCREMENT_PAIR,
    KAPPA_BAR,
    ONE,
    PSI,
    QUAD_CHAIN,
    QUAD_SPLIT,
    SQUARE,
    SUPPORTED_SYMBOLS,
    TRIPLE,
    XI,
    apply_generator,
    apply_renorm_map,
    Symbol,
    build_symbol_set,
    certify_symbol,
    dinteg,
    graph_catalog,
    homogeneity,
    integ,
    poly,
    product,
    renormalised_coefficients,
)


class TestSymbolAlgebra:
    def test_products_commute(self):
        a = product(PSI, DERIV_SQUARE)
        b = product(DERIV_SQUARE, PSI)
        assert a == b == TRIPLE

    def test_integration_kills_polynomials(self):
        assert integ(poly(1, 0)).is_zero()
        assert dinteg(poly(0, 2)).is_zero()
        assert product(PSI, integ(poly(0, 1))).is_zero()

    def test_unit_absorbed(self):
        assert product(PSI, ONE) == PSI
        assert product(ONE, ONE) == ONE

    def test_poly_products_add_exponents(self):
        assert product(poly(1, 0), poly(0, 2)) == poly(1, 2)


class TestHomogeneity:
    def test_noise(self):
        assert homogeneity(XI) == LabelValue(Fraction(-3, 2), -1)

    def test_listed_values(self):
        assert homogeneity(SQUARE) == LabelValue(-1, -2)
        assert homogeneity(TRIPLE) == LabelValue(Fraction(-1, 2), -3)
        assert homogeneity(PSI) == LabelValue(Fraction(-1, 2), -1)
        assert homogeneity(QUAD_SPLIT) == LabelValue(0, -4)
        assert homogeneity(QUAD_CHAIN) == LabelValue(0, -4)
        assert homogeneity(INCREMENT_PAIR) == LabelValue(0, -2)
        assert homogeneity(DERIV_SQUARE) == LabelValue(0, -2)

    def test_polynomial_degrees(self):
        assert homogeneity(poly(1, 1)) == LabelValue(3, 0)
        assert homogeneity(poly(0, 1)) == LabelValue(1, 0)

    def test_equal_symbols_built_separately(self):
        def build():
            psi = dinteg(XI)
            return product(psi, dinteg(product(psi, dinteg(product(psi, psi)))))

        a, b = build(), build()
        assert a == b and a is not b and hash(a) == hash(b)
        assert a == QUAD_CHAIN
        assert homogeneity(a) == homogeneity(b) == homogeneity(QUAD_CHAIN)
        assert product(poly(1, 0), poly(0, 2)) == poly(1, 2)
        assert homogeneity(product(poly(1, 0), poly(0, 2))) == homogeneity(poly(1, 2))

    def test_additive_and_shifts(self):
        rng = random.Random(17)
        pool = [XI, PSI, SQUARE, DERIV_SQUARE, TRIPLE, poly(0, 1)]
        for _ in range(30):
            a, b = rng.choice(pool), rng.choice(pool)
            assert homogeneity(product(a, b)) == homogeneity(a) + homogeneity(b)
            if not integ(a).is_zero():
                assert homogeneity(integ(a)) == homogeneity(a) + 2
                assert homogeneity(dinteg(a)) == homogeneity(a) + 1


class TestSymbolSet:
    def test_negative_sector_exact(self):
        negatives = {tau for tau, hom in build_symbol_set() if hom.eval_at(KAPPA_BAR) < 0}
        assert negatives == {
            XI, PSI, SQUARE, DERIV_SQUARE, INCREMENT_PAIR,
            TRIPLE, QUAD_SPLIT, QUAD_CHAIN,
        }

    def test_closure_contains_unit_and_x1(self):
        symbols = {tau for tau, _ in build_symbol_set()}
        assert ONE in symbols
        assert poly(0, 1) in symbols

    def test_homs_reported_consistently(self):
        # homogeneity() reads the value each symbol stored when it was
        # built, so the set is also checked against an own recursion
        for tau, hom in build_symbol_set():
            assert hom == homogeneity(tau)
            assert (hom.q, hom.r) == oracle_homogeneity(tau), tau

    def test_worklist_matches_round_based_closure(self):
        expected = round_based_symbol_set()
        assert len(expected) == 226
        assert build_symbol_set() == expected


def round_based_symbol_set():
    """The closure as a least fixed point computed in rounds: each round
    forms every pair product of the derivative sector again, then applies
    both integration maps to the whole right-hand-side sector, until a
    round adds nothing."""
    sigma = Fraction(2)
    up_bound = sigma + Fraction(1, 2) + KAPPA_BAR

    def value(tau):
        return homogeneity(tau).eval_at(KAPPA_BAR)

    def polys_below(bound):
        out = []
        k0 = 0
        while 2 * k0 < bound:
            k1 = 0
            while 2 * k0 + k1 < bound:
                out.append(poly(k0, k1))
                k1 += 1
            k0 += 1
        return out

    u_prime = set(polys_below(up_bound))
    v_set = {XI}
    u_set = set(polys_below(sigma))
    grew = True
    while grew:
        ranked = [(a, value(a)) for a in sorted(u_prime, key=Symbol.sort_key)]
        new_v = {
            product(a, b)
            for (a, ha), (b, hb) in itertools.combinations_with_replacement(ranked, 2)
            if ha + hb < up_bound
        }
        grew = len(new_v - v_set) > 0
        v_set |= new_v
        new_up = set()
        new_u = set()
        for tau in v_set:
            img = dinteg(tau)
            if not img.is_zero() and value(img) < up_bound:
                new_up.add(img)
            img = integ(tau)
            if not img.is_zero() and value(img) < sigma:
                new_u.add(img)
        grew = grew or (new_up - u_prime) or (new_u - u_set)
        u_prime |= new_up
        u_set |= new_u

    everything = {tau for tau in u_set | u_prime | v_set if value(tau) < sigma}
    return sorted(
        ((tau, homogeneity(tau)) for tau in everything),
        key=lambda pair: (pair[1].eval_at(KAPPA_BAR), str(pair[0])),
    )


def oracle_homogeneity(tau) -> tuple[Fraction, Fraction]:
    """Homogeneity (q, r) of a symbol tree, ``r`` counting -kbar per noise."""
    if tau.kind == "noise":
        return Fraction(-3, 2), Fraction(-1)
    if tau.kind == "poly":
        k0, k1 = tau.power
        return Fraction(2 * k0 + k1), Fraction(0)
    if tau.kind in ("heat", "dheat"):
        q, r = oracle_homogeneity(tau.args[0])
        return q + (2 if tau.kind == "heat" else 1), r
    assert tau.kind == "prod"
    parts = [oracle_homogeneity(f) for f in tau.args]
    return sum(q for q, _ in parts), sum(r for _, r in parts)


class TestGenerators:
    def test_l2_on_triple(self):
        assert apply_generator(2, TRIPLE) == {PSI: 2}

    def test_l2_on_quad_chain(self):
        assert apply_generator(2, QUAD_CHAIN) == {INCREMENT_PAIR: 2, DERIV_SQUARE: 1}

    def test_l2_on_increment_pair(self):
        assert apply_generator(2, INCREMENT_PAIR) == {ONE: 1}

    def test_l2_elsewhere_zero(self):
        assert apply_generator(2, SQUARE) == {}
        assert apply_generator(2, DERIV_SQUARE) == {}
        assert apply_generator(2, QUAD_SPLIT) == {}

    def test_pointlike_generators(self):
        assert apply_generator(1, TRIPLE) == {}
        assert apply_generator(1, SQUARE) == {ONE: 1}
        assert apply_generator(3, TRIPLE) == {ONE: 1}
        assert apply_generator(4, QUAD_CHAIN) == {ONE: 1}
        assert apply_generator(5, QUAD_SPLIT) == {ONE: 1}

    def test_homogeneity_drop(self):
        # each nonzero image drops homogeneity by the target's homogeneity
        from kpzlab.symbols import generator_targets
        for i, target in generator_targets().items():
            for tau in SUPPORTED_SYMBOLS[1:]:
                for sym, _ in apply_generator(i, tau).items():
                    assert homogeneity(sym) == homogeneity(tau) - homogeneity(target)

    def test_nilpotency(self):
        ell = (1, 1, 1, 1, 1)
        for tau in SUPPORTED_SYMBOLS[1:]:
            combo = {tau: Fraction(1)}
            for _ in range(3):
                from kpzlab.symbols import _apply_sum_of_generators
                combo = _apply_sum_of_generators(ell, combo)
            assert combo == {}


class TestRenormalisedEquation:
    def test_zero_map(self):
        assert renormalised_coefficients((0,) * 5, Fraction(1)) == (0, 0)

    def test_unit_constants(self):
        transport, constant = renormalised_coefficients((1, 1, 1, 1, 1), Fraction(1))
        assert transport == -4
        assert constant == -4  # -(1 + 2 + 4 + 1) + 4

    def test_transport_tracks_ell2(self):
        chat = Fraction(3, 7)
        lam = Fraction(2)
        transport, _ = renormalised_coefficients((0, chat, 0, 0, 0), lam)
        assert transport == -4 * lam ** 2 * chat

    def test_matches_closed_form_randomised(self):
        rng = random.Random(23)
        for _ in range(20):
            ell = tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(5))
            lam = Fraction(rng.randint(-3, 3), rng.randint(1, 2))
            # the two routes take the same arguments
            assert renormalised_coefficients(ell, lam) == \
                sim.renormalised_coefficients_closed_form(ell, lam)

    def test_quadratic_term_from_second_generator(self):
        # the square of the substitution generator produces + 4 lam^3 ell2^2
        ell = (0, Fraction(1, 3), 0, 0, 0)
        lam = Fraction(1)
        image = apply_renorm_map(ell, {QUAD_CHAIN: 4 * lam ** 3})
        assert image.get(ONE, 0) == 4 * lam ** 3 * Fraction(1, 9)

    @pytest.mark.parametrize("ell", [(1, 1, 1, 1), (1, 1, 1, 1, 1, 1), ()])
    def test_other_than_five_constants_rejected(self, ell):
        # without the check a four-tuple would read as ell5 = 0
        with pytest.raises(ValueError, match="five constants"):
            apply_renorm_map(ell, {SQUARE: 1})
        with pytest.raises(ValueError, match="five constants"):
            renormalised_coefficients(ell, Fraction(1))


class TestCatalog:
    def test_square_catalog(self):
        entries = graph_catalog(SQUARE)
        assert len(entries) == 1
        assert entries[0].multiplicity == 1
        assert entries[0].lambda_power_per_copy == 0
        assert not entries[0].vanishing
        assert len(entries[0].graph.external_ids) == 2
        assert len(entries[0].graph.internal_ids) == 1

    def test_triple_catalog(self):
        entries = graph_catalog(TRIPLE)
        assert [len(e.graph.external_ids) for e in entries] == [3, 1]
        assert entries[1].multiplicity == 2

    def test_quad_split_catalog(self):
        entries = graph_catalog(QUAD_SPLIT)
        assert len(entries) == 3
        assert [e.vanishing for e in entries] == [False, False, True]
        assert entries[2].eps_leftover == LabelValue(Fraction(1, 2), -1)

    def test_increment_pair_lambda_power(self):
        entries = graph_catalog(INCREMENT_PAIR)
        assert all(e.lambda_power_per_copy == Fraction(1, 2) for e in entries)
        labels = sorted(str(e.label) for e in entries[0].graph.edges)
        assert "3/2+1d" in labels

    def test_noise_catalog_empty(self):
        assert graph_catalog(XI) == []

    def test_graphs_parsed_once(self):
        for tau in SUPPORTED_SYMBOLS:
            first, second = graph_catalog(tau), graph_catalog(tau)
            assert first is not second
            assert all(a.graph is b.graph for a, b in zip(first, second, strict=True))
        # a caller's list is its own
        graph_catalog(SQUARE).clear()
        assert len(graph_catalog(SQUARE)) == 1

    def test_quad_chain_catalog_size(self):
        entries = graph_catalog(QUAD_CHAIN)
        assert len(entries) == 11
        assert sum(1 for e in entries if e.vanishing) == 3


class TestCertification:
    def test_square_margin(self):
        report = certify_symbol(SQUARE)
        assert report.verdict
        assert report.margin == 2 * KAPPA_BAR - 2 * DELTA
        assert report.entries[0].alpha == LabelValue(-1, -2)

    def test_increment_pair_margins(self):
        report = certify_symbol(INCREMENT_PAIR)
        assert report.verdict
        for entry in report.entries:
            assert entry.alpha == LabelValue(Fraction(-1, 2), -2)
        assert report.margin == 2 * KAPPA_BAR - 2 * DELTA

    def test_all_supported_symbols_pass(self):
        for tau in SUPPORTED_SYMBOLS:
            report = certify_symbol(tau)
            assert report.verdict, f"{tau} failed certification"
            assert report.margin > 0

    def test_vanishing_entries_flagged(self):
        report = certify_symbol(QUAD_CHAIN)
        flagged = [e for e in report.entries if e.vanishing]
        assert len(flagged) == 3
        for e in flagged:
            assert e.eps_leftover.eval_at(DELTA) > 0

    def test_parameter_constraints(self):
        assert DELTA < ETA
        assert 4 * DELTA < ETA
        # delta at most kbar/8 keeps every certification margin positive
        assert DELTA <= KAPPA_BAR / 8
        assert 2 * KAPPA_BAR - 2 * DELTA > 0
        assert 4 * KAPPA_BAR - 6 * DELTA > 0
