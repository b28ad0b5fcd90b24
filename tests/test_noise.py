import math

import numpy as np
import pytest

from kpzlab import noise
from kpzlab.noise import (
    BumpSampler,
    BumpTerm,
    FieldSample,
    GridSpec,
    PairingWindows,
    PoissonNoiseModel,
    clt_check,
    default_asymmetric_model,
    default_even_model,
    empirical_cumulants,
    eta_inner_products,
    exact_poisson_cumulant,
    joint_second_cumulants,
    load_field,
    make_test_functions,
    mollify,
    pair_field,
    sample_field,
    sample_pairings,
    save_field,
    smooth_bump,
    smooth_bump_dx,
)


class TestBumps:
    def test_support(self):
        assert smooth_bump(np.array([-1.0, 1.0, 2.0])).tolist() == [0, 0, 0]
        assert smooth_bump(0.0) == pytest.approx(math.exp(-1.0))

    def test_derivative_finite_difference(self):
        u = np.linspace(-0.95, 0.95, 41)
        h = 1e-6
        fd = (smooth_bump(u + h) - smooth_bump(u - h)) / (2 * h)
        assert np.allclose(smooth_bump_dx(u), fd, atol=1e-6)

    def test_sampler_pdf_is_exact_for_its_samples(self):
        sampler = BumpSampler(smooth_bump, bins=256)
        rng = np.random.default_rng(0)
        x = sampler.sample(rng, 200_000)
        # histogram of samples matches the reported density
        hist, edges = np.histogram(x, bins=64, range=(-1, 1), density=True)
        mids = 0.5 * (edges[:-1] + edges[1:])
        assert np.allclose(hist, sampler.pdf(mids), atol=0.05)

    def test_sampler_mass(self):
        sampler = BumpSampler(smooth_bump)
        from kpzlab.noise import BUMP_MASS
        assert sampler.total_mass == pytest.approx(BUMP_MASS, rel=1e-6)


class TestModel:
    def test_normalisation(self):
        model = default_even_model(mu=2.0)
        # integral of the covariance must be exactly one:
        # mu E[a^2] (int phi)^2 = 1
        assert model.mu * model.mark_moment(2) * model.int_phi ** 2 == \
            pytest.approx(1.0, rel=1e-12)

    def test_kappa2_integral_is_one(self):
        model = default_even_model()
        s = np.linspace(-1.2, 1.2, 161)
        y = np.linspace(-1.2, 1.2, 161)
        vals = model.kappa2(s[:, None], y[None, :])
        integral = vals.sum() * (s[1] - s[0]) * (y[1] - y[0])
        assert integral == pytest.approx(1.0, abs=2e-3)

    def test_parity_flags(self):
        assert default_even_model().x_even
        assert not default_asymmetric_model().x_even

    def test_asymmetric_covariance(self):
        model = default_asymmetric_model()
        v1 = model.kappa2(np.array(0.15), np.array(0.15))
        v2 = model.kappa2(np.array(0.15), np.array(-0.15))
        assert abs(v1 - v2) > 1e-3  # genuinely x-asymmetric at fixed t

    def test_even_covariance_symmetric(self):
        model = default_even_model()
        y = np.linspace(-0.9, 0.9, 11)
        s = np.full_like(y, 0.2)
        assert np.allclose(model.kappa2(s, y), model.kappa2(s, -y), atol=1e-14)

    def test_dphi_sampler_reconstructs_convolution(self):
        # E[sign * A * g(v)] = int g dphi/dx for a smooth test g
        model = default_asymmetric_model()
        rng = np.random.default_rng(3)
        t, x, sign = model.sample_dphi(rng, 400_000)
        g = np.cos(2.1 * t + 0.4) * np.sin(1.3 * x)
        est = np.mean(sign * g) * model.abs_dphi_mass

        tt = np.linspace(-0.5, 0.5, 301)
        xx = np.linspace(-0.5, 0.5, 301)
        vals = model.dphi_dx(tt[:, None], xx[None, :]) * \
            np.cos(2.1 * tt[:, None] + 0.4) * np.sin(1.3 * xx[None, :])
        exact = vals.sum() * (tt[1] - tt[0]) * (xx[1] - xx[0])
        assert est == pytest.approx(exact, abs=3e-3)


class TestFieldSampling:
    def make_grid(self, eps, T=0.05):
        nx = int(math.ceil(8 / eps / 64) * 64)
        nt = int(math.ceil(T / (eps * eps / 8))) + 1
        return GridSpec(0.0, T, nt, nx)

    def test_under_resolved_grid_rejected(self):
        model = default_even_model()
        with pytest.raises(ValueError, match="too coarse"):
            sample_field(model, 0.1, GridSpec(0.0, 0.05, 200, 16), seed=1)

    def test_empty_cloud_is_zero(self):
        model = PoissonNoiseModel([BumpTerm(1.0, 0.0, 0.5, 0.0, 0.5)], mu=1e-9)
        eps = 0.1
        grid = self.make_grid(eps)
        sample = sample_field(model, eps, grid, seed=4)
        # with (almost surely) no points the centred field is a tiny constant
        assert np.ptp(sample.values) == 0.0

    def test_spatial_mean_near_zero(self):
        model = default_even_model()
        eps = 0.1
        grid = self.make_grid(eps, T=0.08)
        means = [
            sample_field(model, eps, grid, seed=s).values.mean()
            for s in range(12)
        ]
        # centred: ensemble average of space-time means ~ 0
        assert abs(np.mean(means)) < 3 * np.std(means) / math.sqrt(len(means)) + 0.05

    def test_periodicity_and_determinism(self):
        model = default_even_model()
        eps = 0.1
        grid = self.make_grid(eps)
        s1 = sample_field(model, eps, grid, seed=11)
        s2 = sample_field(model, eps, grid, seed=11)
        assert np.array_equal(s1.values, s2.values)
        s3 = sample_field(model, eps, grid, seed=12)
        assert not np.array_equal(s1.values, s3.values)

    def test_finite_range_decorrelation(self):
        # empirical correlation at rescaled distance > 2 eps is pure noise
        model = default_even_model()
        eps = 0.1
        grid = self.make_grid(eps, T=0.08)
        prods_near = []
        prods_far = []
        for s in range(30):
            v = sample_field(model, eps, grid, seed=100 + s).values
            mid = v.shape[0] // 2
            prods_near.append(np.mean(v[mid] * np.roll(v[mid], 1)))
            prods_far.append(np.mean(v[mid] * np.roll(v[mid], v.shape[1] // 2)))
        near = np.mean(prods_near)
        far = np.mean(prods_far)
        err = np.std(prods_far, ddof=1) / math.sqrt(len(prods_far))
        assert near > 10 * abs(err)        # adjacent cells strongly correlated
        assert abs(far) < 4 * err + 1e-12  # half a period away: independent

    def test_save_load_round_trip(self, tmp_path):
        model = default_even_model()
        eps = 0.1
        grid = self.make_grid(eps)
        sample = sample_field(model, eps, grid, seed=5)
        path = tmp_path / "field.bin"
        save_field(sample, path)
        loaded = load_field(path)
        assert np.array_equal(loaded.values, sample.values)
        assert loaded.grid == sample.grid
        assert loaded.model_hash == sample.model_hash


class TestMollify:
    def test_constant_unchanged(self):
        grid = GridSpec(0.0, 0.05, 41, 128)
        sample = FieldSample(np.full((41, 128), 2.5), grid, 0.1, 0, 0.0, "x")
        out = mollify(sample, eps_bar=0.05)
        assert np.allclose(out.values, 2.5, atol=1e-14)

    def test_variance_does_not_increase(self):
        model = default_even_model()
        eps = 0.1
        nx = 128
        nt = int(math.ceil(0.05 / (eps * eps / 8))) + 1
        grid = GridSpec(0.0, 0.05, nt, nx)
        sample = sample_field(model, eps, grid, seed=3)
        out = mollify(sample, eps_bar=0.06)
        assert out.values.var() <= sample.values.var()

    def test_scale_below_grid_rejected(self):
        grid = GridSpec(0.0, 0.05, 41, 128)
        sample = FieldSample(np.zeros((41, 128)), grid, 0.1, 0, 0.0, "x")
        with pytest.raises(ValueError):
            mollify(sample, eps_bar=1e-4)


class TestOraclesAndEstimates:
    def test_k2_oracle_matches_gram(self):
        # kappa_2(zeta_eps(eta)) -> <eta, eta> as eps -> 0
        model = default_even_model()
        eta_cos, _ = make_test_functions((0.02, 0.18))
        for eps, tol in [(0.05, 0.05), (0.025, 0.02)]:
            k2 = exact_poisson_cumulant(model, 2, eta_cos, eps, (0.02, 0.18))
            assert k2 == pytest.approx(1.0, abs=tol)

    def test_k3_parity_zero(self):
        # x-even bump against an x-odd test function: odd cumulants vanish
        model = default_even_model()
        _, eta_sin = make_test_functions((0.02, 0.18))
        k3 = exact_poisson_cumulant(model, 3, eta_sin, 0.05, (0.02, 0.18))
        assert abs(k3) < 1e-10

    def test_empirical_matches_oracle_k2(self):
        model = default_even_model()
        eps = 0.05
        eta_cos, eta_sin = make_test_functions((0.02, 0.18))
        w = PairingWindows(model, eps, [eta_cos], (0.02, 0.18))
        draws = sample_pairings(model, eps, w, 3000, seed=21)
        est = empirical_cumulants(draws[:, 0], 2)
        exact = w.exact_cumulant(2, 0)
        assert abs(est.estimate - exact) <= 3 * est.stderr

    def test_empirical_matches_oracle_k3(self):
        model = default_even_model()
        eps = 0.1
        eta_cos, _ = make_test_functions((0.02, 0.18))
        w = PairingWindows(model, eps, [eta_cos], (0.02, 0.18))
        draws = sample_pairings(model, eps, w, 4000, seed=22)
        est = empirical_cumulants(draws[:, 0], 3)
        exact = w.exact_cumulant(3, 0)
        assert abs(est.estimate - exact) <= 3 * est.stderr
        # int cos^3 over a period vanishes: kappa_3 is rounding, kappa_4 is not
        assert abs(exact) < 1e-12
        assert w.exact_cumulant(4, 0) > 0

    def test_bernoulli_fourth_cumulant(self):
        rng = np.random.default_rng(9)
        x = rng.choice([-0.5, 0.5], size=200_000)
        est = empirical_cumulants(x, 4)
        assert abs(est.estimate - (-0.125)) <= 3 * est.stderr

    def test_gaussian_third_cumulant_zero(self):
        rng = np.random.default_rng(10)
        est = empirical_cumulants(rng.standard_normal(100_000), 3)
        assert abs(est.estimate) <= 3 * est.stderr

    def test_field_grid_pairing_matches_window_pairing(self):
        # the two sampling routes agree in distribution; check second moments
        model = default_even_model()
        eps = 0.1
        T = 0.3
        nx = int(math.ceil(8 / eps / 64) * 64)
        nt = int(math.ceil(T / (eps * eps / 8))) + 1
        grid = GridSpec(0.0, T, nt, nx)
        eta_cos, _ = make_test_functions((0.05, 0.25))
        vals = np.array([
            pair_field(sample_field(model, eps, grid, seed=500 + i), eta_cos)
            for i in range(100)
        ])
        w = PairingWindows(model, eps, [eta_cos], (0.05, 0.25))
        exact = w.exact_cumulant(2, 0)
        est = empirical_cumulants(vals, 2, n_batches=10)
        assert abs(est.estimate - exact) <= 4 * est.stderr

    def test_window_mean_subtraction(self):
        model = default_even_model()
        eps = 0.05
        eta_cos, eta_sin = make_test_functions((0.02, 0.18))
        w = PairingWindows(model, eps, [eta_cos, eta_sin], (0.02, 0.18))
        draws = sample_pairings(model, eps, w, 2000, seed=30)
        for j in range(2):
            est = empirical_cumulants(draws[:, j], 1)
            assert abs(est.estimate) <= 4 * est.stderr

    def test_orthonormal_gram(self):
        etas = make_test_functions((0.02, 0.18))
        gram = eta_inner_products(list(etas), (0.02, 0.18))
        assert np.allclose(gram, np.eye(2), atol=1e-3)


def gauss_legendre_window(model, eps, eta, s, y, v_h, nodes=64):
    """Pairing window at points ``(s, y)`` by a product Gauss-Legendre rule
    over each bump term, independent of the windows' grid and taps."""
    g, wg = np.polynomial.legendre.leggauss(nodes)
    out = np.zeros(np.broadcast(s, y).shape)
    for term in model.terms:
        v = term.x_center + term.x_halfwidth * g
        wv = smooth_bump(g) * wg * term.x_halfwidth
        wu = smooth_bump(g) * wg * term.t_halfwidth * term.amplitude
        for gu, cu in zip(g, wu):
            tt = eps ** 2 * (s[..., None] + term.t_center + term.t_halfwidth * gu)
            xx = np.mod(eps * (y[..., None] + v) + v_h * tt, 1.0)
            out += cu * eps ** 1.5 * (eta(tt, xx) @ wv)
    return out


class TestPairingWindows:
    @pytest.mark.parametrize("make_model", [default_even_model, default_asymmetric_model])
    @pytest.mark.parametrize("v_h", [0.0, 0.7])
    def test_matches_gauss_legendre_oracle(self, make_model, v_h):
        model = make_model()
        eps = 0.2
        etas = make_test_functions((0.02, 0.18))
        w = PairingWindows(model, eps, etas, (0.02, 0.18), v_h)
        s, y = np.meshgrid(w.s_grid[::7], w.y_grid[::7], indexing="ij")
        for j, eta in enumerate(etas):
            ref = gauss_legendre_window(model, eps, eta, s, y, v_h)
            err = np.abs(w.windows[j][::7, ::7] - ref).max() / np.abs(ref).max()
            assert err <= 1e-5

    @pytest.mark.parametrize("make_model", [default_even_model, default_asymmetric_model])
    def test_constant_eta_integrated_exactly(self, make_model):
        model = make_model()
        eps = 0.2
        w = PairingWindows(model, eps, [lambda t, x: np.ones(np.broadcast(t, x).shape)],
                           (0.02, 0.18), v_h=0.7)
        assert np.allclose(w.windows[0], eps ** 1.5 * model.int_phi, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("eps", [0.29, 0.3, 0.31])
    def test_y_grid_tiles_strip(self, eps):
        model = default_even_model()
        eta_cos, _ = make_test_functions((0.02, 0.18))
        w = PairingWindows(model, eps, [eta_cos], (0.02, 0.18))
        assert len(w.y_grid) * w.dy == pytest.approx(1 / eps, rel=1e-14)
        # reference: periodic trapezoid rule in y on a grid that tiles by construction
        n_ref = 64
        s, y = np.meshgrid(w.s_grid, np.arange(n_ref) / (eps * n_ref), indexing="ij")
        ref = gauss_legendre_window(model, eps, eta_cos, s, y, 0.0)
        k2_ref = model.mu * model.mark_moment(2) * np.sum(ref ** 2) * w.ds / (eps * n_ref)
        assert w.exact_cumulant(2, 0) == pytest.approx(k2_ref, rel=1e-5)


class TestCltCheck:
    def test_one_window_set_per_scale(self, monkeypatch):
        model = default_even_model()
        eps_list, t_window, seed = (0.2, 0.1, 0.05), (0.02, 0.18), 5
        built = []

        class CountedWindows(PairingWindows):
            def __init__(self, model, eps, *args, **kwargs):
                built.append(eps)
                super().__init__(model, eps, *args, **kwargs)

        monkeypatch.setattr(noise, "PairingWindows", CountedWindows)
        report = clt_check(model, eps_list, n_samples=2000, seed=seed, t_window=t_window)
        assert sorted(built) == sorted(eps_list)

        # the finest scale's rows, drawn on windows built for eta_cos alone
        eta_cos, _ = make_test_functions(t_window)
        w = PairingWindows(model, 0.05, [eta_cos], t_window)
        draws = sample_pairings(model, 0.05, w, 200, seed + 3)
        for key, n in (("third_cumulant", 3), ("fourth_cumulant", 4)):
            est = empirical_cumulants(draws[:, 0], n)
            exact = w.exact_cumulant(n, 0)
            assert report[key][-1] == {
                "eps": 0.05,
                "exact": exact,
                "empirical": est.estimate,
                "stderr": est.stderr,
                "consistent": bool(abs(est.estimate - exact) <= 3.0 * est.stderr),
            }

        # kappa_4 ~ eps^3; the exact kappa_3 of a cosine is rounding
        assert all(row["exact"] > 0 for row in report["fourth_cumulant"])
        assert all(abs(row["exact"]) < 1e-12 for row in report["third_cumulant"])
        assert abs(report["fourth_cumulant_exponent"] - 3.0) <= 0.2
