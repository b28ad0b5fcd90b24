import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from kpzlab import sim
from kpzlab.noise import (
    BumpTerm,
    FieldSample,
    GridSpec,
    PoissonNoiseModel,
    default_asymmetric_model,
    default_even_model,
    draw_cloud,
    field_from_cloud,
    sample_field,
)

ELL = (0.3, 0.1, 0.7, -0.2, 0.05)


def small_config(**kw):
    base = dict(lam=1.0, eps=0.2, n_x=32, T=0.02)
    base.update(kw)
    return sim.SimConfig(**base)


def fields(model, config, seeds):
    """One field per seed, drawn in the config's frame."""
    grid = sim.noise_grid_for(config)
    eps = config.eps
    return [field_from_cloud(model, eps, grid,
                             draw_cloud(model, np.random.default_rng(s), eps, grid.T),
                             config.v_h)
            for s in seeds]


def stepped_renormalised(config, samples, h0):
    """The semi-implicit step of dh = h'' + lam h'^2 - v_h h' + f - v_v at
    dt = ``config.step``, as first written: neighbours by ``take``, fresh
    temporaries every step and the forcing row looked up at every step.
    The production solver's splitting converges to it as ``n_x`` grows."""
    n_x, dt = config.n_x, config.step
    dx = 1.0 / n_x
    mult = sim._implicit_multiplier(n_x, dt)
    coarse = np.stack([sim._coarse_noise(s, config) for s in samples], axis=1)
    dt_noise = samples[0].grid.dt
    cells = np.arange(n_x)
    right, left = (cells + 1) % n_x, (cells - 1) % n_x
    h = np.broadcast_to(h0, (len(samples), n_x))
    for step in range(config.n_steps):
        force = coarse[min(int(step * dt / dt_noise), len(coarse) - 1)]
        grad = (h.take(right, axis=-1) - h.take(left, axis=-1)) / (2.0 * dx)
        rhs = h + dt * (config.lam * grad ** 2 - config.v_h * grad - config.v_v + force)
        h = np.fft.irfft(np.fft.rfft(rhs, axis=-1) * mult, n=n_x, axis=-1)
    return h


def split_renormalised(config, samples, h0):
    """The Strang step as first written: every sub-step of ``SPLIT_STEPS``
    config steps takes half the linear flow, the forcing of each config
    step in turn and the other half, each half its own transform pair."""
    n_x, dt, lam = config.n_x, config.step, config.lam
    k = np.arange(n_x // 2 + 1)
    k[-1] = 0  # the Nyquist mode is not transported
    coarse = np.stack([sim._coarse_noise(s, config) for s in samples], axis=1)
    dt_noise = samples[0].grid.dt

    def half(u, steps):
        flow = (sim._implicit_multiplier(n_x, dt) ** (steps / 2)
                * np.exp(-1j * math.pi * k * config.v_h * steps * dt))
        return np.fft.irfft(np.fft.rfft(u, axis=-1) * flow, n=n_x, axis=-1)

    h = np.broadcast_to(h0, (len(samples), n_x))
    u = np.exp(lam * h) if lam else h
    for start in range(0, config.n_steps, sim.SPLIT_STEPS):
        steps = range(start, min(start + sim.SPLIT_STEPS, config.n_steps))
        u = half(u, len(steps))
        total = 0.0
        for step in steps:
            force = coarse[min(int(step * dt / dt_noise), len(coarse) - 1)]
            total = total + dt * (force - config.v_v)
        u = u * np.exp(lam * total) if lam else u + total
        u = half(u, len(steps))
    return np.log(u) / lam if lam else u


def stepped_hopf_cole(config, seeds):
    """The explicit Ito step as first written, one ``(n_x,)`` normal draw
    per member and config step from the member's own stream.  The split
    reference converges to it as ``n_x`` grows; for ``lam != 0`` it asserts
    positivity at every step, which it can lose on coarse grids."""
    n_x, dt, lam = config.n_x, config.step, config.lam
    dx = 1.0 / n_x
    amp = math.sqrt(dt / dx)
    rngs = [np.random.default_rng(np.random.SeedSequence([s, 0xADD])) for s in seeds]
    cells = np.arange(n_x)
    right, left = (cells + 1) % n_x, (cells - 1) % n_x
    z = np.full((len(seeds), n_x), 1.0 if lam else 0.0)
    for _ in range(config.n_steps):
        xi = np.stack([rng.standard_normal(n_x) for rng in rngs])
        lap = (z.take(right, axis=1) - 2 * z + z.take(left, axis=1)) / (dx * dx)
        z = z + dt * lap + (lam * z * amp * xi if lam else amp * xi)
        if lam and z.min() <= 0.0:
            raise ArithmeticError("the explicit step lost positivity")
    return np.log(z) / lam if lam else z


def split_hopf_cole(config, seeds):
    """The reference's Strang step as first written: half the implicit flow,
    the Ito-exact factor ``exp(lam S - m lam^2 amp^2 / 2)`` of one normal
    draw per member and sub-step of ``m`` config steps, ``S = sqrt(m) amp
    xi`` (or ``S`` added at ``lam = 0``), and the other half, each half its
    own transform pair."""
    n_x, dt, lam = config.n_x, config.step, config.lam
    amp = math.sqrt(dt * n_x)
    rngs = [np.random.default_rng(np.random.SeedSequence([s, 0xADD])) for s in seeds]

    def half(u, steps):
        flow = sim._implicit_multiplier(n_x, dt) ** (steps / 2)
        return np.fft.irfft(np.fft.rfft(u, axis=-1) * flow, n=n_x, axis=-1)

    u = np.full((len(seeds), n_x), 1.0 if lam else 0.0)
    for start in range(0, config.n_steps, sim.SPLIT_STEPS):
        m = min(sim.SPLIT_STEPS, config.n_steps - start)
        u = half(u, m)
        increment = math.sqrt(m) * amp * np.stack([rng.standard_normal(n_x) for rng in rngs])
        u = u * np.exp(lam * increment - m * lam ** 2 * amp ** 2 / 2) if lam else u + increment
        u = half(u, m)
    return np.log(u) / lam if lam else u


def mode_powers(config, ks):
    """``E|h_k(T)|^2 / n_x^2`` of the explicit and the split reference at
    ``lam = 0``, from flat.  Both are linear in the noise, so each is the
    white noise's variance ``amp^2 n_x`` per config step times a geometric
    sum of the scheme's multiplier of mode ``k``: ``1 - dt sigma_k`` per
    config step, and ``M_k^m`` per sub-step of ``m`` config steps, whose
    noise lands after the first half."""
    n_x, dt, n_steps = config.n_x, config.step, config.n_steps
    variance = dt  # amp^2 n_x per config step, over n_x^2
    ks = np.asarray(ks)
    explicit_factor = 1.0 - dt * 4 * n_x ** 2 * np.sin(math.pi * ks / n_x) ** 2
    explicit = variance * np.sum(explicit_factor[:, None] ** (2 * np.arange(n_steps)), axis=1)
    lengths = np.diff(np.arange(0, n_steps, sim.SPLIT_STEPS), append=n_steps)
    remaining = np.cumsum(lengths[::-1])[::-1]  # config steps from each sub-step on
    multiplier = sim._implicit_multiplier(n_x, dt)[ks]
    split = variance * np.sum(lengths * multiplier[:, None] ** (2 * remaining - lengths), axis=1)
    return explicit, split


def resampled_statistics(ensemble_a, ensemble_b, n_bootstrap, seed):
    """``compare_statistics`` as first written: one resample at a time, the
    two-point covariance summed along the diagonals of the Gram matrix."""
    def stats(ensemble):
        mean = ensemble.mean(axis=0)
        centred = ensemble - mean
        n_x = ensemble.shape[1]
        cells = np.arange(n_x)
        shifts = (cells[None, :] - cells[:n_x // 2, None]) % n_x
        cov = (centred.T @ centred)[cells, shifts].sum(axis=1) / centred.size
        return mean, ensemble.var(axis=0, ddof=1), cov, ensemble[:, 0]

    def distances(a, b):
        sa, sb = stats(a), stats(b)
        out = dict(zip(("mean_profile", "variance_profile", "two_point"),
                       (float(np.sqrt(np.mean((u - v) ** 2))) for u, v in zip(sa, sb))))
        xs = np.sort(np.concatenate([sa[3], sb[3]]))
        cdf_a = np.searchsorted(np.sort(sa[3]), xs, side="right") / len(a)
        cdf_b = np.searchsorted(np.sort(sb[3]), xs, side="right") / len(b)
        out["one_point_ks"] = float(np.max(np.abs(cdf_a - cdf_b)))
        return out

    rng = np.random.default_rng(np.random.SeedSequence([seed, 0xB007]))
    boots = []
    for _ in range(n_bootstrap):
        ia = rng.integers(0, len(ensemble_a), len(ensemble_a))
        ib = rng.integers(0, len(ensemble_b), len(ensemble_b))
        boots.append(distances(ensemble_a[ia], ensemble_b[ib]))
    return {"distances": distances(ensemble_a, ensemble_b),
            "bootstrap_stderr": {k: float(np.std([b[k] for b in boots], ddof=1))
                                 for k in boots[0]}}


class TestBatches:
    def test_renormalised_batch_matches_single_solves(self):
        model = default_asymmetric_model()
        config = small_config(ell=ELL, v_h=0.3, lam=0.8)
        samples = fields(model, config, (1, 2, 3))
        batch = sim.solve_renormalised(config, iter(samples))
        assert batch.final.shape == (3, config.n_x)
        for b, sample in enumerate(samples):
            single = sim.solve_renormalised(config, sample)
            assert single.final.shape == (config.n_x,)
            assert np.array_equal(batch.final[b], single.final)

    def test_renormalised_batch_shares_one_h0(self):
        model = default_even_model()
        config = small_config()
        x = np.arange(config.n_x) / config.n_x
        h0 = 0.1 * np.sin(2 * math.pi * x)
        samples = fields(model, config, (4, 5))
        batch = sim.solve_renormalised(config, samples, h0)
        from_zero = sim.solve_renormalised(config, samples)
        # every member starts from h0, not from the flat profile
        assert not np.allclose(batch.final, from_zero.final)
        for b, sample in enumerate(samples):
            single = sim.solve_renormalised(config, sample, h0)
            assert np.array_equal(batch.final[b], single.final)
        quiet = sim.solve_renormalised(config, None, h0)
        assert quiet.final.shape == (config.n_x,)
        # h0 is one profile: a stack of them, or one of another length, is refused
        for bad in ([h0, h0], h0[:-1], 0.0):
            with pytest.raises(ValueError, match="h0 has shape"):
                sim.solve_renormalised(config, None, bad)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_h0_refused_before_the_batches(self, bad, monkeypatch):
        # it blew up "at t=0" once the batches were built
        config = small_config()
        batches = (fields(default_even_model(), config, (1,)), sim.WhiteNoise([11]))
        h0 = np.zeros(config.n_x)
        h0[3] = bad

        def no_batch(*args):
            raise AssertionError("a batch was built")

        monkeypatch.setattr(sim, "_batch", no_batch)
        for batch in batches:
            with pytest.raises(ValueError, match="h0 must be finite"):
                sim.solve_renormalised(config, batch, h0)

    @pytest.mark.parametrize("lam", [0.7, 0.0])
    def test_hopf_cole_batch_matches_single_solves(self, lam):
        config = small_config(lam=lam)
        batch = sim.solve_renormalised(config, sim.WhiteNoise([11, 12, 13]))
        assert batch.final.shape == (3, config.n_x)
        for b, seed in enumerate((11, 12, 13)):
            single = sim.solve_renormalised(config, sim.WhiteNoise([seed]))
            assert single.final.shape == (1, config.n_x)
            assert np.array_equal(batch.final[b], single.final[0])

    def test_normal_blocks_do_not_change_the_draws(self, monkeypatch):
        config = small_config(lam=0.7)
        whole = sim.solve_renormalised(config, sim.WhiteNoise([11, 12])).final
        # four sub-steps per block, with a shorter block at the end
        monkeypatch.setattr(sim, "NORMAL_BLOCK_BYTES", 8 * 2 * config.n_x * 4)
        assert math.ceil(config.n_steps / sim.SPLIT_STEPS) % 4 != 0
        again = sim.solve_renormalised(config, sim.WhiteNoise([11, 12])).final
        assert np.array_equal(again, whole)

    def test_ensembles_match_member_loops(self):
        # a batch of fields made from clouds as they arrive and a WhiteNoise
        # batch, solved together, give each member's own solve
        model = default_even_model()
        config = small_config(ell=ELL, v_h=0.2)
        grid = sim.noise_grid_for(config)
        rng = np.random.default_rng(0)
        clouds = [draw_cloud(model, rng, config.eps, config.T) for _ in range(3)]
        by_cloud, reference = sim.solve_renormalised(
            [config, config],
            [(field_from_cloud(model, config.eps, grid, c, config.v_h) for c in clouds),
             sim.WhiteNoise([21, 22])])
        assert by_cloud.final.shape == (3, config.n_x)
        for m in range(3):
            noise = field_from_cloud(model, config.eps, grid, clouds[m], config.v_h)
            assert np.array_equal(by_cloud.final[m],
                                  sim.solve_renormalised(config, noise).final)
        assert reference.final.shape == (2, config.n_x)
        for m, seed in enumerate((21, 22)):
            assert np.array_equal(reference.final[m],
                                  sim.solve_renormalised(config, sim.WhiteNoise([seed])).final[0])

    def test_mismatched_or_empty_batches_rejected(self):
        model = default_even_model()
        config = small_config()
        samples = fields(model, config, (1, 2))
        with pytest.raises(ValueError, match="empty"):
            sim.solve_renormalised(config, [])
        # a WhiteNoise batch checks its seeds when made: an int failed at
        # len(), and floats or a negative seed only at the first draw
        for seeds in ([], 7, [1.5], [-1], "abc", [[1, 2]], np.ones(3)):
            with pytest.raises(ValueError, match="non-empty sequence of non-negative int"):
                sim.WhiteNoise(seeds)
        grid = sim.noise_grid_for(config)
        finer = sample_field(model, config.eps, GridSpec(grid.T, grid.nt, 2 * grid.nx), 3)
        with pytest.raises(ValueError, match="different noise grids"):
            sim.solve_renormalised(config, samples + [finer])
        other = fields(model, small_config(eps=0.1), (3,))
        with pytest.raises(ValueError, match="does not match"):
            sim.solve_renormalised(config, other + samples)
        # a field drawn in another frame cannot drive this one
        skewed = fields(model, small_config(v_h=0.7), (3,))
        with pytest.raises(ValueError, match="does not match"):
            sim.solve_renormalised(config, skewed[0])

    def test_config_batch_matches_separate_solves(self):
        model = default_asymmetric_model()
        configs = [small_config(eps=0.2, lam=0.8, ell=ELL, v_h=0.3),
                   small_config(eps=0.1, lam=0.0, ell=(0.1, 0.0, 0.2, 0.0, 0.0), v_h=-0.2),
                   small_config(eps=0.1, lam=0.8, ell=ELL, v_h=-0.2)]
        noises = [fields(model, configs[0], (1, 2, 3)), fields(model, configs[1], (4, 5)),
                  fields(model, configs[2], (6,))[0]]
        x = np.arange(configs[0].n_x) / configs[0].n_x
        h0 = 0.1 * np.cos(2 * math.pi * x)
        batch = sim.solve_renormalised(configs, [iter(noises[0]), noises[1], noises[2]], h0)
        assert [t.final.shape for t in batch] == [(3, 32), (2, 32), (32,)]
        for config, noise, trajectory in zip(configs, noises, batch):
            single = sim.solve_renormalised(config, noise, h0)
            assert trajectory.config == config
            assert np.array_equal(trajectory.final, single.final)

    def test_config_batch_of_ensembles_matches_per_config_calls(self):
        # fields of shared clouds at two scales and reference members at two
        # couplings, in one solve, match one solve per config
        model = default_asymmetric_model()
        configs = [small_config(eps=0.2, lam=0.8, ell=ELL, v_h=0.3),
                   small_config(eps=0.1, lam=0.0, v_h=0.3),
                   small_config(lam=0.7, ell=ELL, v_h=0.5), small_config(lam=0.0)]
        rng = np.random.default_rng(1)
        clouds = [draw_cloud(model, rng, 0.1, 0.02) for _ in range(3)]

        def batch(config):
            grid = sim.noise_grid_for(config)
            return [field_from_cloud(model, config.eps, grid, cloud, config.v_h)
                    for cloud in clouds]

        batches = [batch(configs[0]), batch(configs[1]),
                   sim.WhiteNoise([11, 12]), sim.WhiteNoise([13])]
        joint = sim.solve_renormalised(configs, batches)
        assert [t.final.shape for t in joint] == [(3, 32), (3, 32), (2, 32), (1, 32)]
        for config, noise, trajectory in zip(configs, batches, joint):
            assert np.array_equal(trajectory.final,
                                  sim.solve_renormalised(config, noise).final)
        # a white-noise member has no transport and no ell: v_h and ell of
        # its config are not read
        alone = sim.solve_renormalised(small_config(lam=0.7), sim.WhiteNoise([11, 12]))
        assert np.array_equal(joint[2].final, alone.final)

    def test_config_batch_needs_one_grid_and_horizon(self):
        model = default_even_model()
        config = small_config()
        samples = fields(model, config, (1,))
        for other in (small_config(n_x=64), small_config(T=0.04)):
            with pytest.raises(ValueError, match="n_x or T"):
                sim.solve_renormalised([config, other],
                                       [samples, fields(model, other, (2,))])
        with pytest.raises(ValueError, match="one batch of fields per"):
            sim.solve_renormalised([config, config], [samples])
        with pytest.raises(ValueError, match="one batch of fields per"):
            sim.solve_renormalised([], [])


class TestAgainstSteppedOracles:
    # the production loops reorder the same arithmetic, so they agree with
    # the oracles to rounding: well inside this relative tolerance, and far
    # from the 1e-3 a forcing row taken one step early or late would give
    RTOL = 1e-10

    def test_renormalised_matches_the_stepped_loop(self):
        # at T = 0.021 a noise row lasts 17.6 config steps, so rows change
        # inside sub-steps; at T = 0.02 it would last exactly 21
        model = default_asymmetric_model()
        configs = [small_config(eps=0.2, lam=0.8, ell=ELL, v_h=0.3, T=0.021),
                   small_config(eps=0.1, lam=-1.3, ell=ELL, v_h=-0.2, T=0.021),
                   small_config(eps=0.1, lam=0.0, ell=ELL, v_h=0.5, T=0.021)]
        x = np.arange(32) / 32
        h0 = 0.1 * np.cos(2 * math.pi * x)
        noises = [fields(model, configs[0], (1, 2, 3)), fields(model, configs[1], (4, 5)),
                  fields(model, configs[2], (6,))]
        batch = sim.solve_renormalised(configs, noises, h0)
        for config, samples, trajectory in zip(configs, noises, batch):
            rows_per_step = samples[0].grid.dt / config.step
            assert rows_per_step != round(rows_per_step)
            want = split_renormalised(config, samples, h0)
            scale = np.max(np.abs(want))
            assert scale > 0.05
            np.testing.assert_allclose(trajectory.final, want, rtol=0, atol=self.RTOL * scale)

    @pytest.mark.parametrize("lam", [0.7, 0.0, -0.5])
    def test_hopf_cole_matches_the_stepped_loop(self, lam):
        config = small_config(lam=lam)
        want = split_hopf_cole(config, [11, 12, 13])
        got = sim.solve_renormalised(config, sim.WhiteNoise([11, 12, 13])).final
        np.testing.assert_allclose(got, want, rtol=0, atol=self.RTOL * np.max(np.abs(want)))

    @pytest.mark.parametrize("n_x,budget", [(64, 5e-3), (128, 1e-3)])
    def test_split_reference_keeps_the_explicit_mode_powers(self, n_x, budget):
        # at lam = 0 the split and the explicit reference have the same law
        # up to their multipliers: mode powers within 0.5 % for k <= 4 at
        # n_x = 64 (0.38 % at k = 4) and 0.1 % at n_x = 128 (0.027 %)
        config = sim.SimConfig(lam=0.0, eps=0.2, n_x=n_x, T=0.15)
        explicit, split = mode_powers(config, [1, 2, 3, 4])
        assert np.all(np.abs(split / explicit - 1) <= budget)
        # and the gap is no rounding effect: it grows with the mode
        assert np.all(np.diff(np.abs(split / explicit - 1)) > 0)

    def test_reference_mode_powers_match_their_sums(self):
        # Monte Carlo at lam = 0: each scheme's mode powers P_1..P_4 lie
        # within 3 stderr of its own geometric sum
        config = sim.SimConfig(lam=0.0, eps=0.2, n_x=64, T=0.05)
        ks = [1, 2, 3, 4]
        seeds = list(range(64))
        for sums, heights in zip(mode_powers(config, ks),
                                 (stepped_hopf_cole(config, seeds),
                                  sim.solve_renormalised(config, sim.WhiteNoise(seeds)).final)):
            power = np.abs(np.fft.rfft(heights, axis=-1)[:, ks]) ** 2 / config.n_x ** 2
            stderr = power.std(axis=0, ddof=1) / math.sqrt(len(seeds))
            assert np.all(np.abs(power.mean(axis=0) - sums) <= 3 * stderr)

    def test_renormalised_tends_to_the_semi_implicit_scheme(self):
        # the splitting and the semi-implicit dx^2/4 scheme discretise one
        # equation; the gap of their mean heights is second order in dx
        # (4.08 and 4.03 per doubling here), and it is no rounding effect
        model = default_even_model()
        gaps = []
        for n_x in (32, 64, 128):
            config = sim.SimConfig(lam=1.0, eps=0.2, n_x=n_x, T=0.05)
            samples = fields(model, config, (1, 2, 3, 4))
            split = sim.solve_renormalised(config, samples).final
            gaps.append(abs(np.mean(split - stepped_renormalised(config, samples, 0.0))))
        assert gaps[-1] > 1e-5
        for coarse, fine in zip(gaps, gaps[1:]):
            assert 3.0 < coarse / fine < 5.0

    def test_four_steps_per_split_keep_the_budget(self, monkeypatch):
        # budget: four config steps per sub-step move no height by more than
        # 0.005 from one step per sub-step, under 1 % of the heights and a
        # fifth of the gap to the semi-implicit scheme, on the skew model at
        # eps = 0.2, n_x = 64 (0.0024 measured, a ninth of that gap).  The
        # error is second order in the sub-step, so the gap of two steps per
        # sub-step is about a fifth of the gap of four (15 against 3)
        model = default_asymmetric_model()
        config = sim.SimConfig(lam=1.0, eps=0.2, n_x=64, T=0.05)
        samples = fields(model, config, (1, 2, 3, 4))
        finals = {}
        for steps in (4, 2, 1):
            monkeypatch.setattr(sim, "SPLIT_STEPS", steps)
            finals[steps] = sim.solve_renormalised(config, samples).final
        four, two = (np.max(np.abs(finals[m] - finals[1])) for m in (4, 2))
        assert four <= 0.005
        assert four <= 0.01 * np.max(np.abs(finals[1]))
        assert 5 * four <= np.max(np.abs(finals[1] - stepped_renormalised(config, samples, 0.0)))
        assert 3.5 < four / two < 6.5

    @pytest.mark.parametrize("block_bytes", [1 << 20, 8 * (7 + 5) * 16 * 3])
    def test_bootstrap_matches_the_resample_loop(self, monkeypatch, block_bytes):
        # the small budget gives three resamples per block, the last one short
        monkeypatch.setattr(sim, "BOOTSTRAP_BLOCK_BYTES", block_bytes)
        rng = np.random.default_rng(5)
        a = rng.standard_normal((7, 16)).cumsum(axis=1)
        b = 1.3 * rng.standard_normal((5, 16)).cumsum(axis=1)
        got = sim.compare_statistics(a, b, n_bootstrap=50, seed=4)
        want = resampled_statistics(a, b, 50, 4)
        for part in ("distances", "bootstrap_stderr"):
            assert got[part].keys() == want[part].keys()
            for key, value in want[part].items():
                assert value > 0
                assert abs(got[part][key] - value) <= self.RTOL * value, (part, key)


class TestFailures:
    def test_one_blowing_member_fails_the_batch(self):
        model = default_even_model()
        config = small_config()
        samples = fields(model, config, (1, 2, 3))
        for healthy in samples:
            sim.solve_renormalised(config, healthy)
        bad = FieldSample(samples[1].values * 1e12, samples[1].grid, samples[1].eps, 0.0)
        with pytest.raises(sim.BlowupError):
            sim.solve_renormalised(config, [samples[0], bad, samples[2]])

    @pytest.mark.parametrize("lam,scale,fill", [(-1.3, 1e12, 0.0), (-1.3, 0.0, 1e12),
                                                (0.0, 1e12, 0.0)],
                             ids=["overflow", "underflow", "additive"])
    def test_blowup_is_raised_at_the_bad_row(self, lam, scale, fill):
        # one row of one member's field becomes scale * row + fill.  At
        # lam = -1.3, exp(lam S) overflows where the scaled row is negative,
        # or underflows to 0 at every cell under the constant fill, which
        # leaves a finite u = 0 that only the positivity check sees; at
        # lam = 0 the heights pass BLOWUP_THRESHOLD.  Each time the check in
        # the first sub-step the row forces raises, alone and inside a
        # config batch alike, also beside a batch on the coarser eps = 0.2
        # noise grid, whose rows change at other sub-steps
        model = default_even_model()
        config = small_config(lam=lam, eps=0.1)
        good, spoilt = fields(model, config, (1, 2))
        row = 3
        values = spoilt.values.copy()
        values[row] = scale * values[row] + fill
        bad = FieldSample(values, spoilt.grid, spoilt.eps, spoilt.v_h)
        sim.solve_renormalised(config, [good, spoilt])
        with pytest.raises(sim.BlowupError) as alone:
            sim.solve_renormalised(config, bad)
        coarser = small_config(lam=0.8, eps=0.2)
        for partner, partner_noise in ((small_config(lam=0.8, eps=0.1), [good]),
                                       (coarser, fields(model, coarser, (3,)))):
            with pytest.raises(sim.BlowupError) as batch:
                sim.solve_renormalised([partner, config], [partner_noise, [good, bad]])
            assert batch.value.time == alone.value.time
        t_row = row * spoilt.grid.dt
        assert abs(alone.value.time - t_row) < (sim.SPLIT_STEPS + 1) * config.step

    def test_member_that_loses_positivity_explicitly_ends_finite(self):
        # seed 1 drives the explicit step below zero at lam = 2, n_x = 16;
        # every power of the implicit multiplier is entrywise positive, so
        # the split reference keeps it, alone and inside a batch
        config = sim.SimConfig(lam=2.0, eps=0.2, n_x=16, T=0.05)
        with pytest.raises(ArithmeticError, match="positivity"):
            stepped_hopf_cole(config, [1])
        alone = sim.solve_renormalised(config, sim.WhiteNoise([1])).final
        batch = sim.solve_renormalised(config, sim.WhiteNoise([0, 1, 2])).final
        assert np.all(np.isfinite(batch))
        assert np.array_equal(batch[1], alone[0])

    @pytest.mark.parametrize("lam", [0.7, 0.0])
    def test_non_finite_reference_member_fails_at_its_block(self, monkeypatch, lam):
        # one NaN in seed 12's normals at sub-step 5 spoils its member, and
        # the check at the last sub-step of the block raises: the byte budget
        # gives four sub-steps per block to three members (sub-step 7) and
        # twelve to one (sub-step 11)
        config = small_config(lam=lam)
        spoilt_row, spoilt_seed = 5, 12
        real_rng = np.random.default_rng

        class Spoilt:
            def __init__(self, rng):
                self.rng, self.drawn = rng, 0

            def standard_normal(self, out):
                self.rng.standard_normal(out=out)
                if 0 <= spoilt_row - self.drawn < len(out):
                    out[spoilt_row - self.drawn, 5] = math.nan
                self.drawn += len(out)

        def rng(seed):
            spoilt = list(seed.entropy) == [spoilt_seed, 0xADD]
            return Spoilt(real_rng(seed)) if spoilt else real_rng(seed)

        monkeypatch.setattr(sim, "NORMAL_BLOCK_BYTES", 8 * 3 * config.n_x * 4)
        monkeypatch.setattr(np.random, "default_rng", rng)
        starts = np.arange(0, config.n_steps, sim.SPLIT_STEPS)
        assert len(starts) == 21
        sim.solve_renormalised(config, sim.WhiteNoise([11, 13]))
        with pytest.raises(sim.BlowupError) as batch:
            sim.solve_renormalised(config, sim.WhiteNoise([11, spoilt_seed, 13]))
        assert batch.value.time == starts[7] * config.step
        with pytest.raises(sim.BlowupError) as alone:
            sim.solve_renormalised(config, sim.WhiteNoise([spoilt_seed]))
        assert alone.value.time == starts[11] * config.step
        # beside a field batch the check of a fresh field row comes first
        # (sub-step 5 here), but no check before the NaN's sub-step sees it
        field = sample_field(default_even_model(), 0.2, sim.noise_grid_for(config), 1)
        with pytest.raises(sim.BlowupError) as joint:
            sim.solve_renormalised([small_config(), config],
                                   [field, sim.WhiteNoise([11, spoilt_seed, 13])])
        assert starts[spoilt_row] * config.step <= joint.value.time < batch.value.time

    @pytest.mark.parametrize("eps_list,n_members,constants", [
        ((), 3, {}), ((0.2,), 1, {0.2: ELL}), ((0.2, 0.1), 3, {0.2: ELL}),
        ((0.2,), 3, {0.2: ELL[:4]}), ((0.2,), 3, {0.2: ELL + (0.0,)}),
        ((0.2,), 3, {0.2: (math.nan,) + ELL[1:]}), ((0.2,), 3, {0.2: ELL[:2] + (math.inf,) + ELL[3:]}),
        ((0.2,), 3, {0.2: 0.3}), ((0.2,), 3, {0.2: "abcde"}),
    ], ids=["no-scale", "one-member", "missing-scale", "four-constants", "six-constants",
            "nan-constant", "inf-constant", "scalar-constants", "string-constants"])
    def test_bad_study_input_fails_before_any_work(self, monkeypatch, eps_list, n_members,
                                                   constants):
        # these gave a KeyError after the reference solve, a ValueError after
        # every solve, or an unpacking error in the counterterm closed form
        def no_work(*args, **kwargs):
            raise AssertionError("work began before the input was checked")

        monkeypatch.setattr(sim, "draw_cloud", no_work)
        monkeypatch.setattr(sim, "_solve_forced", no_work)
        with pytest.raises(ValueError):
            sim.convergence_study(default_even_model(), eps_list, constants,
                                  n_members=n_members, n_x=32, T=0.02)


class TestExactBehaviour:
    def test_fourier_mode_decays_by_implicit_euler_factor(self):
        config = sim.SimConfig(lam=0.0, eps=0.2, n_x=64, T=0.02)
        x = np.arange(config.n_x) / config.n_x
        mode = 3
        h0 = np.cos(2 * math.pi * mode * x)
        final = sim.solve_renormalised(config, None, h0).final
        symbol = 4 * config.n_x ** 2 * math.sin(math.pi * mode / config.n_x) ** 2
        decay = (1.0 / (1.0 + config.step * symbol)) ** config.n_steps
        assert decay < 0.5
        assert np.max(np.abs(final - decay * h0)) < 1e-12

    @pytest.mark.parametrize("lam, height", [(1.0, 710.0), (1.0, -750.0), (0.5, 1500.0),
                                             (0.0, 2e6)])
    def test_flat_start_outside_exp_range_stays_put(self, lam, height):
        # exp(lam h0) overflows or underflows to 0, which was reported as a
        # blow-up at t = 0; the equation is invariant under h -> h + c.  At
        # lam = 0 the check read |h| beyond BLOWUP_THRESHOLD, not |h - c|
        config = small_config(lam=lam)
        final = sim.solve_renormalised(config, None, np.full(config.n_x, height)).final
        assert np.allclose(final, height, rtol=1e-15, atol=0)

    def test_constant_counterterm_shifts_a_config_batch_exactly(self):
        # ell3 changes no gradient and passes the Fourier multiplier's
        # zero mode unchanged, so it moves every height by 2 lam^2 ell3 T
        lam = 0.8
        full = small_config(lam=lam, ell=ELL, v_h=0.3)
        control = small_config(lam=lam, ell=ELL[:2] + (0.0,) + ELL[3:], v_h=0.3)
        samples = fields(default_asymmetric_model(), full, (1, 2, 3))
        with_ell3, without = sim.solve_renormalised([full, control], [samples, samples])
        gap = without.final - with_ell3.final
        assert np.allclose(gap, 2 * lam ** 2 * ELL[2] * full.T, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("lam", [0.8, 0.0])
    def test_mirror_marks_give_exact_negatives(self, lam):
        # one cloud draw with the marks (p, a) and with the mirror law
        # (p, -a) gives exactly negated fields, and with ell = 0 and v_h = 0
        # the equation maps (lam, field, h) to (-lam, -field, -h)
        skew = default_asymmetric_model()
        marks = ((0.9, 0.5), (0.1, 2.5))
        law, mirror = (PoissonNoiseModel(skew.terms, marks=m, name="skew-bump")
                       for m in (marks, tuple((p, -a) for p, a in marks)))
        configs = [small_config(lam=lam), small_config(lam=-lam)]
        noises = [fields(law, configs[0], (1, 2, 3)), fields(mirror, configs[1], (1, 2, 3))]
        for sample, mirrored in zip(*noises):
            assert np.array_equal(mirrored.values, -sample.values)
        plus, minus = sim.solve_renormalised(configs, noises)
        assert np.max(np.abs(plus.final)) > 0.05
        assert np.array_equal(minus.final, -plus.final)

    def test_one_transform_pair_per_sub_step(self, monkeypatch):
        # both solvers take n_steps / SPLIT_STEPS + 1 rfft and irfft calls per
        # solve, whatever the batch, and a study solves its reference and
        # every scale in one of them
        model = default_asymmetric_model()
        configs = [small_config(lam=0.8, ell=ELL, v_h=0.3), small_config(lam=0.0, v_h=0.3)]
        noises = [fields(model, c, (1, 2)) for c in configs]
        calls = {"rfft": 0, "irfft": 0}
        for name in calls:
            def counted(*args, _name=name, _f=getattr(np.fft, name), **kw):
                calls[_name] += 1
                return _f(*args, **kw)
            monkeypatch.setattr(np.fft, name, counted)
        want = configs[0].n_steps // sim.SPLIT_STEPS + 1
        for solve in (lambda: sim.solve_renormalised(configs, noises),
                      lambda: sim.solve_renormalised(configs[0], noises[0][0]),
                      lambda: sim.solve_renormalised(configs[0], sim.WhiteNoise([11, 12, 13])),
                      lambda: sim.solve_renormalised(configs[1], sim.WhiteNoise([11])),
                      lambda: sim.solve_renormalised(configs, [noises[0], sim.WhiteNoise([11])])):
            calls.update(rfft=0, irfft=0)
            solve()
            assert calls == {"rfft": want, "irfft": want}
        # the statistics take transforms too, so count only the solver's
        solves, real_solve = [], sim._solve_forced

        def counted_solve(*args):
            calls.update(rfft=0, irfft=0)
            final = real_solve(*args)
            solves.append(dict(calls))
            return final

        monkeypatch.setattr(sim, "_solve_forced", counted_solve)
        sim.convergence_study(model, (0.2, 0.1), {0.2: ELL, 0.1: ELL}, n_members=2,
                              n_x=32, T=0.02, lam=0.8)
        assert solves == [{"rfft": want, "irfft": want}]

    def test_study_rows_match_separate_solves(self):
        # the one joint solve of a study gives the rows of a reference solve
        # and one solve per scale on the same seeds and clouds; the transport
        # of ELL makes v_h != 0, so the reference rows take the phase factor 1
        model = default_even_model()
        eps_list, n_members, lam, seed = (0.2, 0.1), 3, 0.8, 5
        study = sim.convergence_study(model, eps_list, {0.2: ELL, 0.1: ELL},
                                      n_members=n_members, n_x=32, T=0.02, lam=lam,
                                      master_seed=seed)
        children = np.random.SeedSequence([seed, 0xC10]).spawn(n_members)
        clouds = [draw_cloud(model, np.random.default_rng(child), 0.1, 0.02)
                  for child in children]
        seeds = [int(np.random.SeedSequence([seed, 7, m]).generate_state(1)[0])
                 for m in range(n_members)]
        reference = sim.solve_renormalised(small_config(eps=0.1, lam=lam),
                                           sim.WhiteNoise(seeds)).final
        rows = []
        for eps in eps_list:
            v_h = -sim.renormalised_coefficients_closed_form(ELL, lam)[0]
            config = small_config(eps=eps, lam=lam, ell=ELL, v_h=v_h)
            assert config.v_h != 0
            grid = sim.noise_grid_for(config)
            ensemble = sim.solve_renormalised(
                config, [field_from_cloud(model, eps, grid, cloud, v_h) for cloud in clouds]).final
            rows.append({"eps": eps, **sim.compare_statistics(ensemble, reference, seed=seed)})
        assert study["rows"] == rows

    def test_default_step_is_stable_and_ends_at_T(self):
        # the step has no other source, so nothing else enforces these; the
        # sub-steps are whole and as many as the largest step <= dx^2/4
        # that divides T would give, so no solve takes more FFT calls
        for n_x in (16, 32, 64, 128, 256, 512):
            for T in (0.02, 0.15, 0.25, 1 / 3):
                config = sim.SimConfig(n_x=n_x, T=T)
                assert config.step <= (1.0 / n_x) ** 2 / 4, (n_x, T)
                assert abs(config.n_steps * config.step - T) <= 4 * math.ulp(T), (n_x, T)
                assert config.n_steps % sim.SPLIT_STEPS == 0, (n_x, T)
                steps = math.ceil(T / ((1.0 / n_x) ** 2 / 4))
                assert (config.n_steps // sim.SPLIT_STEPS
                        == math.ceil(steps / sim.SPLIT_STEPS)), (n_x, T)

    def test_noise_grid_covers_the_solver_grid(self):
        # 512 noise cells at eps = 0.2 on every solver grid up to 512; a
        # 1,024-cell solver grid once raised "noise grid must be a multiple
        # of the solver grid"
        for n_x in (16, 64, 512):
            assert sim.noise_grid_for(small_config(n_x=n_x)).nx == 512
        config = small_config(n_x=1024, T=0.002)
        grid = sim.noise_grid_for(config)
        assert grid.nx == 1024
        final = sim.solve_renormalised(
            config, sample_field(default_even_model(), config.eps, grid, 1)).final
        assert final.shape == (1024,)
        assert np.all(np.isfinite(final)) and np.max(np.abs(final)) > 0

    def test_hopf_cole_tends_to_additive_linearly_in_lam(self):
        additive = sim.solve_renormalised(sim.SimConfig(lam=0.0, eps=0.2, n_x=32, T=0.05),
                                          sim.WhiteNoise([21])).final
        gaps = []
        for lam in (0.2, 0.1, 0.05):
            config = sim.SimConfig(lam=lam, eps=0.2, n_x=32, T=0.05)
            hc = sim.solve_renormalised(config, sim.WhiteNoise([21])).final
            gaps.append(np.sqrt(np.mean((hc - additive) ** 2)))
        scale = np.sqrt(np.mean(additive ** 2))
        assert gaps[0] < 0.2 * scale
        for coarse, fine in zip(gaps, gaps[1:]):
            assert 1.7 < coarse / fine < 2.3

    def test_counterterms_follow_the_closed_form(self):
        for lam in (0.3, 0.7, 1.0, 1.3, 2.9):
            config = sim.SimConfig(lam=lam, ell=ELL)
            l1, l2, l3, l4, l5 = ELL
            by_hand = (lam * l1 + 2 * lam ** 2 * l3 + 4 * lam ** 3 * l4
                       + lam ** 3 * l5 - 4 * lam ** 3 * l2 ** 2)
            assert config.v_v == by_hand
            transport, _ = sim.renormalised_coefficients_closed_form(ELL, lam)
            assert -transport == 4 * lam * lam * l2

    @pytest.mark.parametrize("bad", [
        dict(T=-1.0), dict(T=0.0), dict(T=math.nan), dict(T=math.inf),
        dict(eps=0.0), dict(eps=-0.1), dict(eps=math.nan), dict(eps=math.inf),
        dict(lam=math.nan), dict(lam=-math.inf), dict(n_x=0), dict(n_x=1), dict(n_x=48),
        dict(n_x=256.0),
        dict(v_h=math.nan), dict(v_h=math.inf), dict(ell=(0.0, math.nan, 0.0, 0.0, 0.0)),
        dict(ell=(math.inf,) + (0.0,) * 4), dict(ell=(0.0,) * 4), dict(ell=(0.0,) * 6),
    ], ids=lambda bad: "-".join(f"{k}={v}" for k, v in bad.items()))
    def test_degenerate_config_rejected(self, bad):
        # T=-1 gave n_steps=-4096 and returned h0 as the final heights;
        # T=0 and n_x=0 divided by zero; eps=0 doubled the noise grid until
        # an OverflowError; a non-finite v_h or a NaN in ell blew up at t=0
        # in the solver, and four constants failed at the first v_v read;
        # n_x = 256.0 raised TypeError from its power-of-two test
        with pytest.raises(ValueError):
            sim.SimConfig(**bad)

    def test_solve_imports_nothing_from_the_exact_half(self):
        # the counterterms are closed-form arithmetic, so a solve with
        # non-zero ell needs none of the exact half's modules
        code = (
            "import sys\n"
            "from kpzlab import sim\n"
            "config = sim.SimConfig(n_x=16, T=0.01, ell=(0.3, 0.1, 0.7, -0.2, 0.05))\n"
            "assert config.v_v != 0\n"
            "sim.solve_renormalised(config, None)\n"
            "print(*sorted(sys.modules))\n"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(sim.__file__).resolve().parents[1]))
        loaded = set(subprocess.run([sys.executable, "-c", code], capture_output=True,
                                    text=True, env=env, check=True).stdout.split())
        assert "kpzlab.sim" in loaded
        exact_half = {f"kpzlab.{name}"
                      for name in ("symbols", "graphs", "power_counting", "cumulants")}
        assert not exact_half & loaded


class TestStatistics:
    @pytest.mark.parametrize("n_members,n_x", [(5, 16), (40, 64), (7, 32)])
    def test_two_point_matches_roll_loop(self, n_members, n_x):
        rng = np.random.default_rng(n_x)
        ensemble = rng.standard_normal((n_members, n_x)).cumsum(axis=1)
        centred = ensemble - ensemble.mean(axis=0)
        loop = np.array([np.mean(centred * np.roll(centred, r, axis=1))
                         for r in range(n_x // 2)])
        cov = sim._profile_stats(ensemble)["cov"]
        assert np.max(np.abs(cov - loop)) <= 1e-12 * np.max(np.abs(loop))

    @pytest.mark.parametrize("members,n_bootstrap", [((6, 1), 200), ((1, 6), 200),
                                                     ((6, 6), 1), ((6, 6), 0),
                                                     (((16,), 6), 200), ((6, (2, 6, 16)), 200)])
    def test_too_few_members_or_resamples_rejected(self, members, n_bootstrap):
        # the bootstrap stderr was NaN here, with a degrees-of-freedom
        # warning; a lone member's (n_x,) heights gave an IndexError and a
        # stack of ensembles a concatenation error
        rng = np.random.default_rng(2)
        a, b = (rng.standard_normal(m if isinstance(m, tuple) else (m, 16)) for m in members)
        with pytest.raises(ValueError, match="two or more"):
            sim.compare_statistics(a, b, n_bootstrap=n_bootstrap)

    def test_identical_ensembles_have_zero_distance(self):
        ensemble = np.random.default_rng(3).standard_normal((6, 16))
        comp = sim.compare_statistics(ensemble, ensemble, n_bootstrap=5)
        assert all(v == 0.0 for v in comp["distances"].values())


class TestNoiseSplit:
    @pytest.mark.parametrize("model", [
        default_even_model(),
        default_asymmetric_model(),
        PoissonNoiseModel([BumpTerm(1.0, 0.0, 0.5, 0.0, 0.5)], mu=2.0,
                          marks=((0.3, -1.0), (0.7, 2.0))),
    ])
    @pytest.mark.parametrize("v_h", [0.0])  # sample_field draws in the rest frame
    def test_sample_field_is_draw_then_evaluate(self, model, v_h):
        eps = 0.2
        grid = sim.noise_grid_for(small_config(eps=eps))
        sample = sample_field(model, eps, grid, 17)
        rng = np.random.default_rng(np.random.SeedSequence([17, 0xF1E1D]))
        cloud = draw_cloud(model, rng, eps, grid.T)
        assert np.array_equal(sample.values,
                              field_from_cloud(model, eps, grid, cloud, v_h).values)
