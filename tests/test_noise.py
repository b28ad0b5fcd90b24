import math
import tracemalloc

import numpy as np
import pytest

from kpzlab import noise
from kpzlab.noise import (
    BumpTerm,
    GridSpec,
    PairingWindows,
    PoissonNoiseModel,
    clt_check,
    default_asymmetric_model,
    default_even_model,
    draw_cloud,
    empirical_cumulants,
    field_from_cloud,
    joint_second_cumulants,
    make_test_functions,
    sample_field,
    sample_pairings,
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


@pytest.mark.parametrize("n, a, b", [(30, 0.0, 1e-3), (30, 0.3, 0.6), (13, 0.0, 1.0),
                                     (24, -1.0, 1.0), (200, -1.0, 1.0)])
def test_gauss_legendre_rule_is_cached_and_read_only(n, a, b):
    x, w = np.polynomial.legendre.leggauss(n)
    want = (0.5 * (b - a) * x + 0.5 * (a + b), 0.5 * (b - a) * w)
    got = noise._gauss_legendre(n, a, b)
    assert all(np.array_equal(g, v) for g, v in zip(got, want))
    # a caller may write into what it gets without touching the cache
    for arr in got:
        arr[:] = 7.0
    again = noise._gauss_legendre(n, a, b)
    assert all(np.array_equal(g, v) for g, v in zip(again, want))
    base = noise._legendre_nodes(n)
    assert noise._legendre_nodes(n) is base
    assert not any(arr.flags.writeable for arr in base)


def test_bump_masses_are_the_200_node_sums():
    # the masses are written out as literals; these are the sums they stand for
    u, w = noise._gauss_legendre(200, -1.0, 1.0)
    assert noise.BUMP_MASS == float(np.sum(smooth_bump(u) * w))
    assert noise._BUMP_SQUARE_MASS == float(np.sum(smooth_bump(u) ** 2 * w))


class TestModel:
    def test_normalisation(self):
        model = PoissonNoiseModel(default_even_model().terms, mu=2.0)
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

    @pytest.mark.parametrize("terms, kwargs, match", [
        ([BumpTerm(1.0, 0.0, 0.5, 0.0, 0.5)], {"marks": ((1.0, 0.0),)}, "E\\[a\\^2\\]"),
        ([BumpTerm(1.0, 0.0, 0.5, 0.0, 0.5)], {"mu": float("nan")}, "intensity"),
        ([BumpTerm(1.0, 0.0, -0.5, 0.0, -0.5)], {}, "half-widths"),
        ([BumpTerm(math.nan, 0.0, 0.5, 0.0, 0.5)], {}, "finite"),
        ([BumpTerm(1.0, math.nan, 0.5, 0.0, 0.5)], {}, "finite"),
        ([BumpTerm(1.0, 0.0, 0.5, 0.0, 0.5)], {"marks": ((0.5, 1.0), (0.5, math.inf))}, "finite"),
        ([BumpTerm(1.0, 0.0, 0.5, 0.0, math.inf)], {}, "finite"),
        ([BumpTerm(1.0, 0.0, 0.5, 0.0, 0.5)], {"marks": ((math.nan, 1.0), (1.0, 1.0))}, "finite"),
    ], ids=["zero-marks", "nan-intensity", "negative-half-widths", "nan-amplitude",
            "nan-centre", "inf-mark", "inf-half-width", "nan-probability"])
    def test_bad_model_raises_value_error(self, terms, kwargs, match):
        # zero marks, a NaN intensity and negative half-widths whose product
        # still gives the bump a positive integral; a NaN amplitude, a NaN
        # centre, an infinite mark and an infinite half-width gave an all-NaN
        # model, t_reach = nan, zero amplitudes and int_phi = nan, and a NaN
        # probability passes the distribution check
        with pytest.raises(ValueError, match=match):
            PoissonNoiseModel(terms, **kwargs)


class TestFieldSampling:
    def make_grid(self, eps, T=0.05):
        nx = int(math.ceil(8 / eps / 64) * 64)
        nt = int(math.ceil(T / (eps * eps / 8))) + 1
        return GridSpec(T, nt, nx)

    @pytest.mark.parametrize("T, nt, nx", [
        (0.0, 10, 8), (-1.0, 10, 8), (math.nan, 10, 8), (math.inf, 10, 8),
        (0.05, 1, 8), (0.05, 0, 8), (0.05, 10, 0), (0.05, 10.5, 8), (0.05, 10, 8.0),
    ])
    def test_degenerate_grid_rejected(self, T, nt, nx):
        # nt = 1 and nx = 0 divided by zero in dt and dx; a T that is not
        # finite and positive gave negative or nan times; a count that is
        # not an integer was accepted and failed later inside numpy
        with pytest.raises(ValueError):
            GridSpec(T, nt, nx)

    def test_under_resolved_grid_rejected(self):
        model = default_even_model()
        with pytest.raises(ValueError, match="too coarse"):
            sample_field(model, 0.1, GridSpec(0.05, 200, 16), seed=1)

    @pytest.mark.parametrize("builder, eps, v_h", [
        ("field_from_cloud", 0.1, math.nan), ("field_from_cloud", 0.1, math.inf),
        ("field_from_cloud", 0.1, -math.inf), ("field_from_cloud", math.nan, 0.0),
        ("field_from_cloud", math.inf, 0.0), ("sample_field", math.nan, 0.0),
        ("sample_field", math.inf, 0.0), ("PairingWindows", 0.2, math.nan),
        ("PairingWindows", 0.2, math.inf),
    ])
    def test_bad_eps_or_v_h_rejected_before_any_work(self, monkeypatch, builder, eps, v_h):
        # a non-finite v_h gave a field of finite garbage with a cast warning,
        # or all-NaN windows; eps = nan failed to convert to an integer and
        # eps = inf divided by zero
        model = default_even_model()
        grid = self.make_grid(0.1)
        cloud = draw_cloud(model, np.random.default_rng(0), 0.1, grid.T)
        eta_cos, _ = make_test_functions((0.02, 0.18))

        def no_work(*args, **kwargs):
            raise AssertionError("work was done before the inputs were checked")

        monkeypatch.setattr(noise, "draw_cloud", no_work)
        monkeypatch.setattr(PoissonNoiseModel, "phi", no_work)
        build = {
            "field_from_cloud": lambda: field_from_cloud(model, eps, grid, cloud, v_h),
            "sample_field": lambda: sample_field(model, eps, grid, seed=1),
            "PairingWindows": lambda: PairingWindows(model, eps, [no_work], (0.02, 0.18), v_h),
        }[builder]
        match = "v_h must be finite" if math.isfinite(eps) else "eps must be finite and positive"
        with pytest.raises(ValueError, match=match):
            build()

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


class TestDrawCloud:
    @pytest.mark.parametrize("eps, T, match", [
        (0.0, 0.05, "eps"), (-0.1, 0.05, "eps"), (math.nan, 0.05, "eps"),
        (math.inf, 0.05, "eps"), (0.1, 0.0, "T"), (0.1, -1.0, "T"),
        (0.1, math.nan, "T"), (0.1, math.inf, "T"),
    ])
    def test_bad_scale_or_horizon_rejected_before_any_draw(self, eps, T, match):
        class NoDraws:
            def __getattr__(self, name):
                raise AssertionError("a draw was made before the inputs were checked")

        with pytest.raises(ValueError, match=f"{match} must be finite and positive"):
            draw_cloud(default_even_model(), NoDraws(), eps, T)

    @pytest.mark.parametrize("make_model, eps, T", [
        (default_even_model, 0.2, 0.05), (default_even_model, 0.1, 0.03),
        (default_asymmetric_model, 0.15, 0.04),
    ])
    def test_field_keeps_every_drawn_point(self, monkeypatch, make_model, eps, T):
        # the filter of field_from_cloud reads the box draw_cloud draws on:
        # every drawn point reaches phi, and points just outside do not
        model = make_model()
        grid = GridSpec(T, int(math.ceil(T / (eps * eps / 8))) + 1, 512)
        s, y, a = draw_cloud(model, np.random.default_rng(9), eps, T)
        assert len(s) > 15
        outside = ([-model.t_reach - 1e-9, 0.0, T / eps ** 2 + model.t_reach + 1e-9],
                   [0.0, 0.5 / eps + 1e-9, 0.0])
        cloud = (np.append(s, outside[0]), np.append(y, outside[1]), np.append(a, [1.0] * 3))
        seen, phi = [], model.phi

        def counted(t, x):
            seen.append(len(t))
            return phi(t, x)

        monkeypatch.setattr(model, "phi", counted)
        field_from_cloud(model, eps, grid, cloud)
        assert sum(seen) == len(s)

    def test_marks_keep_the_choice_stream(self):
        # the cdf inversion draws one uniform per mark, as rng.choice did
        model = PoissonNoiseModel(default_asymmetric_model().terms, mu=2.0, marks=TWO_MARKS)
        eps, T = 0.2, 0.05
        got = draw_cloud(model, np.random.default_rng(4), eps, T)
        rng = np.random.default_rng(4)
        t_lo, t_hi, half_width = -model.t_reach, T / eps ** 2 + model.t_reach, 0.5 / eps
        n = rng.poisson(model.mu * (t_hi - t_lo) * 2 * half_width)
        s = rng.uniform(t_lo, t_hi, n)
        y = rng.uniform(-half_width, half_width, n)
        probs, amps = np.array(TWO_MARKS).T
        a = amps[rng.choice(len(amps), size=n, p=probs)]
        assert n > 15 and len(set(a)) == 2
        assert all(np.array_equal(g, w) for g, w in zip(got, (s, y, a)))


def add_at_field(model, eps, grid, cloud, v_h):
    """``field_from_cloud`` as first written: every point's bump scattered
    onto the grid by ``np.add.at``, point after point, in one pass."""
    s_all, y_all, a_all = cloud
    keep = ((s_all >= -model.t_reach) & (s_all <= grid.T / eps ** 2 + model.t_reach)
            & (np.abs(y_all) <= 0.5 / eps))
    s, y, a = s_all[keep], y_all[keep], a_all[keep]
    values = np.zeros((grid.nt, grid.nx))
    t_hat, dt_hat, dx_hat = grid.times() / eps ** 2, grid.dt / eps ** 2, grid.dx / eps
    shift = v_h * grid.times() / eps
    n_rows = int(2 * model.t_reach / dt_hat) + 2
    n_cols = int(2 * model.x_reach / dx_hat) + 2
    i0 = np.ceil((s - model.t_reach - t_hat[0]) / dt_hat).astype(int)
    rows = i0[:, None] + np.arange(n_rows)[None, :]
    valid = (rows >= 0) & (rows < grid.nt)
    rows = np.clip(rows, 0, grid.nt - 1)
    pos = (y[:, None] + shift[rows]) / dx_hat
    cols = np.ceil(pos - model.x_reach / dx_hat).astype(int)[:, :, None] + np.arange(n_cols)
    vals = (a[:, None, None] * model.phi((t_hat[rows] - s[:, None])[:, :, None],
                                         cols * dx_hat - pos[:, :, None] * dx_hat)
            * valid[:, :, None])
    np.add.at(values, (rows[:, :, None], np.mod(cols, grid.nx)), vals)
    mean = model.mu * model.mark_moment(1) * model.int_phi
    return (values - mean) * eps ** (-1.5)


@pytest.mark.parametrize("make_model,eps,v_h", [
    (default_even_model, 0.2, 0.0), (default_even_model, 0.1, 0.0),
    (default_asymmetric_model, 0.1, 0.0), (default_asymmetric_model, 0.2, 0.7),
])
def test_field_matches_the_add_at_scatter_bit_for_bit(make_model, eps, v_h):
    # every cell's terms are added in the order of the point-by-point scatter
    model = make_model()
    grid = GridSpec(0.15, int(math.ceil(0.15 / (eps * eps / 8))) + 1, 512)
    cloud = draw_cloud(model, np.random.default_rng(5), eps, grid.T)
    assert len(cloud[0]) > 15
    got = field_from_cloud(model, eps, grid, cloud, v_h).values
    want = add_at_field(model, eps, grid, cloud, v_h)
    assert np.any(want != want[0, 0])
    assert np.array_equal(got, want)


@pytest.mark.parametrize("v_h", [0.0, 0.7])
def test_multi_chunk_field_matches_the_add_at_scatter(monkeypatch, v_h):
    # at 25 times the even model's intensity a cloud holds several chunks of
    # points, and each chunk is scattered straight onto the grid in point
    # order: the point-by-point scatter's sums, bit for bit
    even, eps = default_even_model(), 0.2
    model = PoissonNoiseModel(even.terms, mu=25.0, marks=even.marks)
    grid = GridSpec(0.15, int(math.ceil(0.15 / (eps * eps / 8))) + 1, 512)
    cloud = draw_cloud(model, np.random.default_rng(6), eps, grid.T)
    chunks, add = [], np.add

    class CountingAdd:
        def at(self, *args):
            chunks.append(args[1].size)
            return add.at(*args)

        def __call__(self, *args, **kwargs):
            return add(*args, **kwargs)

        def __getattr__(self, name):
            return getattr(add, name)

    monkeypatch.setattr(np, "add", CountingAdd())
    got = field_from_cloud(model, eps, grid, cloud, v_h).values
    monkeypatch.undo()
    assert len(chunks) >= 3
    want = add_at_field(model, eps, grid, cloud, v_h)
    assert np.array_equal(got, want)


def pair_field(sample, eta):
    """Grid quadrature of ``<field, eta>`` (trapezoid in t, periodic in x)."""
    tt = sample.grid.times()[:, None]
    xx = sample.grid.dx * np.arange(sample.grid.nx)[None, :]
    weights = np.full(sample.grid.nt, sample.grid.dt)
    weights[0] *= 0.5
    weights[-1] *= 0.5
    return float(np.sum(
        sample.values * eta(tt, xx) * weights[:, None] * sample.grid.dx
    ))


class TestOraclesAndEstimates:
    def test_k2_oracle_matches_gram(self):
        # kappa_2(zeta_eps(eta)) -> <eta, eta> as eps -> 0
        model = default_even_model()
        eta_cos, _ = make_test_functions((0.02, 0.18))
        for eps, tol in [(0.05, 0.05), (0.025, 0.02)]:
            k2 = PairingWindows(model, eps, [eta_cos], (0.02, 0.18)).exact_cumulant(2)
            assert k2 == pytest.approx(1.0, abs=tol)

    def test_k3_parity_zero(self):
        # x-even bump against an x-odd test function: odd cumulants vanish
        model = default_even_model()
        _, eta_sin = make_test_functions((0.02, 0.18))
        k3 = PairingWindows(model, 0.05, [eta_sin], (0.02, 0.18)).exact_cumulant(3)
        assert abs(k3) < 1e-10

    def test_empirical_matches_oracle_k2(self):
        model = default_even_model()
        eps = 0.05
        eta_cos, eta_sin = make_test_functions((0.02, 0.18))
        w = PairingWindows(model, eps, [eta_cos], (0.02, 0.18))
        draws = sample_pairings(w, 3000, seed=21)
        estimate, stderr = empirical_cumulants(draws[:, 0], 2)
        exact = w.exact_cumulant(2, 0)
        assert abs(estimate - exact) <= 3 * stderr

    def test_empirical_matches_oracle_k3(self):
        model = default_even_model()
        eps = 0.1
        eta_cos, _ = make_test_functions((0.02, 0.18))
        w = PairingWindows(model, eps, [eta_cos], (0.02, 0.18))
        draws = sample_pairings(w, 4000, seed=22)
        estimate, stderr = empirical_cumulants(draws[:, 0], 3)
        exact = w.exact_cumulant(3, 0)
        assert abs(estimate - exact) <= 3 * stderr
        # int cos^3 over a period vanishes: kappa_3 is rounding, kappa_4 is not
        assert abs(exact) < 1e-12
        assert w.exact_cumulant(4, 0) > 0

    def test_bernoulli_fourth_cumulant(self):
        rng = np.random.default_rng(9)
        x = rng.choice([-0.5, 0.5], size=200_000)
        estimate, stderr = empirical_cumulants(x, 4)
        assert abs(estimate - (-0.125)) <= 3 * stderr

    def test_gaussian_third_cumulant_zero(self):
        rng = np.random.default_rng(10)
        estimate, stderr = empirical_cumulants(rng.standard_normal(100_000), 3)
        assert abs(estimate) <= 3 * stderr

    def test_field_grid_pairing_matches_window_pairing(self):
        # the two sampling routes agree in distribution; check second moments
        model = default_even_model()
        eps = 0.1
        T = 0.3
        nx = int(math.ceil(8 / eps / 64) * 64)
        nt = int(math.ceil(T / (eps * eps / 8))) + 1
        grid = GridSpec(T, nt, nx)
        eta_cos, _ = make_test_functions((0.05, 0.25))
        vals = np.array([
            pair_field(sample_field(model, eps, grid, seed=500 + i), eta_cos)
            for i in range(100)
        ])
        w = PairingWindows(model, eps, [eta_cos], (0.05, 0.25))
        exact = w.exact_cumulant(2, 0)
        estimate, stderr = empirical_cumulants(vals, 2)
        assert abs(estimate - exact) <= 4 * stderr

    def test_window_mean_subtraction(self):
        model = default_even_model()
        eps = 0.05
        eta_cos, eta_sin = make_test_functions((0.02, 0.18))
        w = PairingWindows(model, eps, [eta_cos, eta_sin], (0.02, 0.18))
        draws = sample_pairings(w, 2000, seed=30)
        for j in range(2):
            estimate, stderr = empirical_cumulants(draws[:, j], 1)
            assert abs(estimate) <= 4 * stderr

    def test_orthonormal_gram(self):
        # oracle: the trapezoid rule on a 400 x 256 grid, independent of the
        # 200-node rule that normalises the pair; both are spectrally exact
        # for a smooth compactly supported time factor and a trigonometric
        # space factor, so the Gram is the identity to rounding
        t_window = (0.02, 0.18)
        pad = 0.2 * (t_window[1] - t_window[0])
        tt = np.linspace(t_window[0] - pad, t_window[1] + pad, 400)[:, None]
        xx = (np.arange(256) / 256)[None, :]
        vals = [eta(tt, xx) for eta in make_test_functions(t_window)]
        gram = np.array([[np.sum(a * b) * (tt[1, 0] - tt[0, 0]) / 256 for b in vals]
                         for a in vals])
        assert np.allclose(gram, np.eye(2), rtol=0, atol=1e-12)


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

    @pytest.mark.parametrize("power", [1, 2, 3, 4])
    def test_window_integral_matches_pow_form(self, power):
        # exact_cumulant takes the powers of Campbell's int W^n by
        # multiplication; the shifted cosine gives a window with negative
        # entries, where numpy's W ** n is slow, and odd powers that do not
        # cancel, and two marks give E[a^n] != 1
        eta_cos, _ = make_test_functions((0.02, 0.18))
        model = PoissonNoiseModel(default_even_model().terms, mu=1.5, marks=TWO_MARKS)
        w = PairingWindows(model, 0.2,
                           [lambda t, x: eta_cos(t, x) + 0.5 * eta_cos(t, 0.0)], (0.02, 0.18))
        W = w.windows[0]
        assert W.min() < 0 < W.max()
        integral = float(np.sum(W ** power) * w.ds * w.dy)
        assert abs(integral) > 1e-6
        want = model.mu * model.mark_moment(power) * integral
        assert w.exact_cumulant(power, 0) == pytest.approx(want, rel=1e-13, abs=0)
        with pytest.raises(ValueError):
            w.exact_cumulant(0, 0)

    def test_any_iterable_of_test_functions(self):
        # an iterator was used up by allocating the windows, so none were
        # filled and the windows held uninitialised memory
        model = default_even_model()
        etas = make_test_functions((0.02, 0.18))
        want = PairingWindows(model, 0.2, list(etas), (0.02, 0.18)).windows
        for given in (tuple(etas), iter(etas)):
            got = PairingWindows(model, 0.2, given, (0.02, 0.18)).windows
            assert len(got) == 2
            assert all(np.array_equal(g, w) for g, w in zip(got, want))

    @pytest.mark.parametrize("make_model", [default_even_model, default_asymmetric_model])
    def test_row_blocks_do_not_change_the_windows(self, monkeypatch, make_model):
        # a pass carries its last len(taps_s) - 2 rows of G to the next, so
        # every block size evaluates each test function on each point of G
        # once and gives the windows of G built whole
        model = make_model()
        etas = make_test_functions((0.02, 0.18))
        seen = [0, 0]

        def counted(j):
            def eta(t, x):
                seen[j] += np.broadcast(t, x).size
                return etas[j](t, x)
            return eta

        blocks = (1, 7, noise.WINDOW_ROW_BLOCK, 10 ** 9)
        monkeypatch.setattr(noise, "WINDOW_ROW_BLOCK", 10 ** 9)  # G built whole
        whole = PairingWindows(model, 0.2, etas, (0.02, 0.18), v_h=0.7)
        n_s, n_y = len(whole.s_grid), len(whole.y_grid)
        assert n_s > 2 * blocks[2]
        g_points = sum((2 * n_s - 1 + 2 * math.ceil(t.t_halfwidth / (whole.ds / 2)))
                       * (2 * n_y - 1 + 2 * math.ceil(t.x_halfwidth / (whole.dy / 2)))
                       for t in model.terms)
        for block in blocks:
            monkeypatch.setattr(noise, "WINDOW_ROW_BLOCK", block)
            seen[:] = [0, 0]
            got = PairingWindows(model, 0.2, [counted(0), counted(1)], (0.02, 0.18),
                                 v_h=0.7).windows
            assert seen == [g_points, g_points]
            assert all(np.array_equal(a, b) for a, b in zip(got, whole.windows))

    def test_build_memory_is_bounded(self):
        # passes of WINDOW_ROW_BLOCK window rows keep the scratch next to the
        # windows themselves (5.1 MiB) small; passes of 128 rows that
        # evaluated their halo rows again took 4.5 MiB
        model = default_even_model()
        etas = make_test_functions((0.02, 0.18))
        tracemalloc.start()
        try:
            w = PairingWindows(model, 0.05, etas, (0.02, 0.18))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - sum(W.nbytes for W in w.windows) <= 3 * 2 ** 20

    @pytest.mark.parametrize("eps,t_support", [
        (0.0, (0.02, 0.18)), (-0.1, (0.02, 0.18)), (math.nan, (0.02, 0.18)),
        (math.inf, (0.02, 0.18)), (0.2, (0.18, 0.02)), (0.2, (0.1, 0.1)),
        (0.2, (math.nan, 0.18)), (0.2, (0.02, math.inf)),
    ])
    def test_bad_scale_or_support_rejected(self, eps, t_support):
        # eps = 0 divided by zero, a negative eps asked for negative
        # dimensions, a NaN one failed to convert to an integer and a
        # decreasing support raised IndexError
        eta_cos, _ = make_test_functions((0.02, 0.18))
        with pytest.raises(ValueError, match="eps|t_support"):
            PairingWindows(default_even_model(), eps, [eta_cos], t_support)

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


def fancy_index_interpolate(w, j, s, y):
    """The bilinear interpolation written with 2-d fancy indexing."""
    Wv = w.windows[j]
    fs = (s - w.s_grid[0]) / w.ds
    fy = np.mod(y, w.strip) / w.dy
    i0 = np.clip(np.floor(fs).astype(int), 0, len(w.s_grid) - 2)
    j0 = np.floor(fy).astype(int) % len(w.y_grid)
    j1 = (j0 + 1) % len(w.y_grid)
    as_ = np.clip(fs - i0, 0.0, 1.0)
    ay = fy - np.floor(fy)
    out = (
        Wv[i0, j0] * (1 - as_) * (1 - ay)
        + Wv[i0 + 1, j0] * as_ * (1 - ay)
        + Wv[i0, j1] * (1 - as_) * ay
        + Wv[i0 + 1, j1] * as_ * ay
    )
    out[(fs < 0) | (fs > len(w.s_grid) - 1)] = 0.0
    return out


class TestInterpolate:
    @pytest.fixture(scope="class")
    def windows(self):
        etas = make_test_functions((0.02, 0.18))
        return PairingWindows(default_asymmetric_model(), 0.2, etas, (0.02, 0.18), v_h=0.7)

    def test_nodes_midpoints_wrap_and_outside(self, windows):
        w = windows
        for j, Wv in enumerate(w.windows):
            tol = 1e-12 * np.abs(Wv).max()
            s, y = np.meshgrid(w.s_grid, w.y_grid, indexing="ij")
            assert np.allclose(w.interpolate([j], s, y)[..., 0], Wv, rtol=0, atol=tol)
            # cell midpoints: the mean of the four corners
            s_mid, y_mid = np.meshgrid(w.s_grid[:-1] + w.ds / 2, w.y_grid[:-1] + w.dy / 2,
                                       indexing="ij")
            corners = (Wv[:-1, :-1] + Wv[1:, :-1] + Wv[:-1, 1:] + Wv[1:, 1:]) / 4
            assert np.allclose(w.interpolate([j], s_mid, y_mid)[..., 0], corners,
                               rtol=0, atol=tol)
            # across y = strip the last column is joined to the first
            y_seam = np.full(len(w.s_grid), w.strip - w.dy / 2)
            seam = (Wv[:, -1] + Wv[:, 0]) / 2
            for shift in (0.0, w.strip, -2 * w.strip):
                assert np.allclose(w.interpolate([j], w.s_grid, y_seam + shift)[..., 0],
                                   seam, rtol=0, atol=tol)
            outside = np.array([w.s_grid[0] - 1e-9, w.s_grid[0] - 3.0,
                                w.s_grid[-1] + 1e-9, w.s_grid[-1] + 3.0])
            assert w.interpolate([j], outside, np.full(4, w.strip / 3))[..., 0].tolist() \
                == [0.0] * 4

    def test_column_by_row_matches_meshgrid_bit_for_bit(self, windows):
        w = windows
        # past both ends of the s grid, and y over several strips either side
        s = np.linspace(w.s_grid[0] - 2.0, w.s_grid[-1] + 2.0, 301)
        y = np.linspace(-2.5 * w.strip, 2.5 * w.strip, 257)
        s_mesh, y_mesh = np.meshgrid(s, y, indexing="ij")
        outside = (s < w.s_grid[0]) | (s > w.s_grid[-1])
        assert outside.any() and (~outside).any()
        for j in range(2):
            got = w.interpolate([j], s[:, None], y[None, :])[..., 0]
            want = w.interpolate([j], s_mesh, y_mesh)[..., 0]
            assert np.array_equal(got, want)
            assert np.all(got[outside] == 0.0) and np.any(got[~outside] != 0.0)

    def test_matches_fancy_indexing_bit_for_bit(self, windows):
        rng = np.random.default_rng(8)
        s = rng.uniform(windows.s_grid[0] - 1.0, windows.s_grid[-1] + 1.0, 50_000)
        y = rng.uniform(-3 * windows.strip, 3 * windows.strip, 50_000)
        for j in range(2):
            assert np.array_equal(windows.interpolate([j], s, y)[..., 0],
                                  fancy_index_interpolate(windows, j, s, y))

    def test_edges_of_both_grids_match_fancy_indexing_bit_for_bit(self, windows):
        w = windows
        strip = w.strip
        assert np.mod(-1e-300, strip) == strip  # a y that wraps onto the seam
        y_edges = [0.0, strip, -strip, np.nextafter(strip, 0.0), -1e-300, 7.5 * strip,
                   -0.3 * w.dy]
        s_lo, s_hi = w.s_grid[0], w.s_grid[-1]
        s = np.array([s_lo, s_hi, s_lo - 1e-9, s_hi + 1e-9, s_lo + 0.3 * w.ds,
                      0.5 * (s_lo + s_hi)])
        outside = (s < s_lo) | (s > s_hi)
        assert outside.sum() == 2
        # each y alone, so no other point decides whether the call wraps y
        for y in [np.full(len(s), y_edge) for y_edge in y_edges] + [np.resize(y_edges, len(s))]:
            for j in range(2):
                got = w.interpolate([j], s, y)[..., 0]
                assert np.array_equal(got, fancy_index_interpolate(w, j, s, y))
                assert np.all(got[outside] == 0.0)

    def test_window_sequence_equals_stacked_single_windows(self, windows):
        w = windows
        s = np.linspace(w.s_grid[0] - 2.0, w.s_grid[-1] + 2.0, 101)
        y = np.linspace(-2.5 * w.strip, 2.5 * w.strip, 67)
        s_mesh, y_mesh = np.meshgrid(s, y, indexing="ij")
        for s_in, y_in in ((s_mesh, y_mesh), (s[:, None], y[None, :])):
            single = [w.interpolate([j], s_in, y_in)[..., 0] for j in range(2)]
            for js in ((0, 1), [1, 0], (1,)):
                got = w.interpolate(js, s_in, y_in)
                assert got.shape == (len(s), len(y), len(js))
                assert np.array_equal(got, np.stack([single[j] for j in js], axis=-1))


TWO_MARKS = ((0.3, -1.0), (0.7, 2.0))


class TestSamplePairings:
    @pytest.mark.parametrize("mu", [2.0, 0.006])
    def test_point_blocks_do_not_change_the_draws(self, monkeypatch, mu):
        model = PoissonNoiseModel([BumpTerm(1.0, 0.0, 0.5, 0.0, 0.5)], mu=mu, marks=TWO_MARKS)
        eps = 0.1
        w = PairingWindows(model, eps, list(make_test_functions((0.02, 0.18))), (0.02, 0.18))
        n = 400
        # at mu = 2 the default block splits the rows; at mu = 0.006 many are empty
        lam = mu * (w.s_grid[-1] - w.s_grid[0]) * w.strip
        assert n * lam > 2 * noise.POINT_BLOCK or math.exp(-lam) > 0.3
        default = sample_pairings(w, n, seed=4)
        for block in (1, 37, 10 ** 9):
            monkeypatch.setattr(noise, "POINT_BLOCK", block)
            assert np.array_equal(sample_pairings(w, n, seed=4), default)

    def test_matches_one_interpolation_per_window(self, monkeypatch):
        # skew bump, two marks and a shear, in blocks of a few rows each
        model = PoissonNoiseModel(default_asymmetric_model().terms, mu=1.0, marks=TWO_MARKS)
        eps, n, seed = 0.2, 60, 3
        w = PairingWindows(model, eps, list(make_test_functions((0.02, 0.18))),
                           (0.02, 0.18), v_h=0.7)
        monkeypatch.setattr(noise, "POINT_BLOCK", 50)
        got = sample_pairings(w, n, seed)

        # the documented stream: all counts, then each point's s, y and mark uniforms
        rng = np.random.default_rng(np.random.SeedSequence([seed, 0xC10D]))
        s_lo, s_hi = w.s_grid[0], w.s_grid[-1]
        counts = rng.poisson(model.mu * (s_hi - s_lo) * w.strip, n)
        assert counts.max() < noise.POINT_BLOCK < counts.sum() and counts.min() > 0
        u = rng.random((counts.sum(), 3))
        s = s_lo + (s_hi - s_lo) * u[:, 0]
        y = w.strip * u[:, 1]
        cdf = np.cumsum([p for p, _ in model.marks])
        cdf[-1] = 1.0
        a = np.array([amp for _, amp in model.marks])[np.searchsorted(cdf, u[:, 2], "right")]
        # one sum per row, in the order reduceat adds (not np.sum's pairwise one)
        offsets = np.cumsum(counts) - counts
        want = np.empty((n, 2))
        for j in range(2):
            values = a * w.interpolate([j], s, y)[..., 0]
            mean = w.exact_cumulant(1, j)
            want[:, j] = np.add.reduceat(values, offsets) - mean
        assert np.array_equal(got, want)

    def test_marked_cumulants_match_exact(self):
        # the time bump alone: constant in x, so kappa_3 = mu E[a^3] int W^3 is not 0
        model = PoissonNoiseModel([BumpTerm(1.0, 0.0, 0.5, 0.0, 0.5)], mu=2.0, marks=TWO_MARKS)
        eps = 0.2
        eta_cos, _ = make_test_functions((0.02, 0.18))

        def bump(t, x):  # eta_cos at x = 0, where its cosine is exactly 1
            return eta_cos(t, np.zeros(np.shape(x)))

        w = PairingWindows(model, eps, [bump], (0.02, 0.18))
        draws = sample_pairings(w, 10_000, seed=0)
        for n in (2, 3):
            estimate, stderr = empirical_cumulants(draws[:, 0], n)
            exact = w.exact_cumulant(n, 0)
            assert abs(estimate - exact) <= 3 * stderr
        assert w.exact_cumulant(3, 0) > 3 * stderr

    def test_memory_is_bounded(self):
        model = default_even_model()
        eps = 0.05
        w = PairingWindows(model, eps, list(make_test_functions((0.02, 0.18))), (0.02, 0.18))
        tracemalloc.start()
        try:
            sample_pairings(w, 4000, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # blocks of POINT_BLOCK = 2^14 points peak at about 2.2 MiB; blocks
        # of 2^16 took 8.7 MiB
        assert peak <= 4 * 2 ** 20


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
        draws = sample_pairings(w, 200, seed + 3)
        for key, n in (("third_cumulant", 3), ("fourth_cumulant", 4)):
            estimate, stderr = empirical_cumulants(draws[:, 0], n)
            exact = w.exact_cumulant(n, 0)
            assert report[key][-1] == {
                "eps": 0.05,
                "exact": exact,
                "empirical": estimate,
                "stderr": stderr,
                "consistent": bool(abs(estimate - exact) <= 3.0 * stderr),
            }

        # kappa_4 ~ eps^3; the exact kappa_3 of a cosine is rounding
        assert all(row["exact"] > 0 for row in report["fourth_cumulant"])
        assert all(abs(row["exact"]) < 1e-12 for row in report["third_cumulant"])
        # the eps^2-corrected fit gives 3.019; a plain slope gave 2.875
        assert abs(report["fourth_cumulant_exponent"] - 3.0) <= 0.03

    def test_block_sizes_do_not_change_the_report(self, monkeypatch):
        # POINT_BLOCK and WINDOW_ROW_BLOCK set the memory used, never the numbers
        model = default_even_model()
        args = (model, (0.2, 0.1, 0.05))
        kwargs = dict(n_samples=1000, seed=3, t_window=(0.02, 0.18))
        want = clt_check(*args, **kwargs)
        for point_block, row_block in ((1, 1), (10 ** 9, 10 ** 9)):
            monkeypatch.setattr(noise, "POINT_BLOCK", point_block)
            monkeypatch.setattr(noise, "WINDOW_ROW_BLOCK", row_block)
            assert clt_check(*args, **kwargs) == want

    def test_exponent_approaches_three_on_finer_scales(self, monkeypatch):
        # the exponent rests on exact cumulants only, so the draws are stubbed
        monkeypatch.setattr(noise, "sample_pairings",
                            lambda w, n, seed: np.zeros((n, len(w.windows))))
        report = clt_check(default_even_model(), (0.1, 0.05, 0.025), n_samples=200)
        assert abs(report["fourth_cumulant_exponent"] - 3.0) <= 0.005

    def test_fewer_than_100_samples_rejected(self, monkeypatch):
        # batches of one row gave a nan stderr and covariance_ok False; the
        # floor is checked before any window is built
        def no_windows(*args):
            raise AssertionError("a PairingWindows was built")

        monkeypatch.setattr(noise, "PairingWindows", no_windows)
        with pytest.raises(ValueError, match="100 samples"):
            clt_check(default_even_model(), (0.2, 0.1, 0.05), n_samples=30)
        with pytest.raises(ValueError, match="100 samples"):
            joint_second_cumulants(np.zeros((99, 2)))

    @pytest.mark.parametrize("eps_list", [(0.2, 0.1), (0.2, 0.1, 0.1)])
    def test_fewer_than_three_scales_rejected(self, eps_list):
        with pytest.raises(ValueError, match="3 distinct scales"):
            clt_check(default_even_model(), eps_list)

    @pytest.mark.parametrize("t_window", [
        (0.1, 0.1), (0.18, 0.02), (0.02, math.nan), (math.nan, 0.18), (0.02, math.inf),
        (-math.inf, 0.18),
    ])
    @pytest.mark.parametrize("build", [
        make_test_functions,
        lambda t_window: clt_check(default_even_model(), (0.2, 0.1, 0.05), t_window=t_window),
    ], ids=["make_test_functions", "clt_check"])
    def test_bad_window_rejected(self, build, t_window):
        # an empty window divided by zero, a reversed one took the root of a
        # negative norm, and a NaN one returned NaN functions; the message
        # named t_support, which is PairingWindows' argument, not theirs
        with pytest.raises(ValueError, match="^t_window must be finite and increasing"):
            build(t_window)
