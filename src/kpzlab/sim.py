"""Interface growth on the circle: the counterterm equation and the log-transform reference.

Two equations are solved here, on one step loop.  The renormalised equation
``dh = h'' + lam h'^2 - v_h h' + f - v_v``, driven by a sampled shot-noise
field ``f``, is with smooth noise exactly the log-transform of the linear
equation ``dz = z'' - v_h z' + lam (f - v_v) z`` for ``z = exp(lam h)``
(Bertini and Giacomin, Comm. Math. Phys. 183:571, 1997).  So it is stepped
in ``z`` by Strang splitting (SIAM J. Numer. Anal. 5:506, 1968): diffusion
and transport as one Fourier multiplier, the forcing as a pointwise
exponential, and ``h`` itself, with additive forcing, at ``lam = 0``.  The
reference is the Hopf-Cole solution ``log(z) / lam`` of the multiplicative
stochastic heat equation ``dz = z'' + lam z xi`` in the Ito sense, with
discretised space-time white noise ``xi``.  It is the same equation forced
by one normal row per member and sub-step, with no transport: its Ito
correction is a constant counterterm, and at ``lam = 0`` it is the additive
equation.

``solve_renormalised`` integrates one ``(B, n_x)`` array of members.  The
members may come from several configurations that share ``n_x`` and ``T``
(noise scales, couplings, counterterms), each with its own batch: sampled
fields, or a ``WhiteNoise`` batch of reference members.  So the reference
is one more batch of the one loop, and a study solves its reference and
every scale in one loop.

Both run on the config step ``dt <= dx^2/4`` and take ``SPLIT_STEPS`` of
them per sub-step: an inverse and a forward FFT and a few elementwise
NumPy calls on the whole batch.  Every operation is elementwise or acts row
by row, so a member's result does not depend on its batch (see
``_solve_forced`` for why there is no matmul).

The comparison machinery is distributional: ensemble statistics (mean and
variance profiles, two-point covariance, a one-point empirical law) with
bootstrap errors computed for all resamples at once, and the
scale-convergence study that drives them across a list of noise scales.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import partial
from typing import Iterable, Sequence

import numpy as np

from .noise import (FieldSample, GridSpec, PoissonNoiseModel, _check_count, _check_scale,
                    draw_cloud, field_from_cloud)

__all__ = [
    "SimConfig",
    "Trajectory",
    "WhiteNoise",
    "BlowupError",
    "renormalised_coefficients_closed_form",
    "solve_renormalised",
    "compare_statistics",
    "convergence_study",
    "noise_grid_for",
]

BLOWUP_THRESHOLD = 1e6
#: Config steps per splitting sub-step of both solvers.
SPLIT_STEPS = 4
#: Byte budget of one block of the reference's normals, one row per member
#: and sub-step, shared by all members; the reference is checked for
#: blow-up once per block.
NORMAL_BLOCK_BYTES = 1 << 20
#: Byte budget of one block of resampled ensembles in the bootstrap.
BOOTSTRAP_BLOCK_BYTES = 1 << 20


class BlowupError(RuntimeError):
    def __init__(self, t):
        self.time = t
        super().__init__(f"solution blew up at t={t:.6g}: exp(lam (h - mean h0)) not "
                         f"finite and positive, or |h - mean h0| beyond "
                         f"{BLOWUP_THRESHOLD:g} at lam = 0")


def renormalised_coefficients_closed_form(ell: Sequence, lam) -> tuple:
    """(transport, constant) counterterms of the five ``ell`` at coupling ``lam``.

    The generator derivation of the exact half gives the same two numbers.
    """
    ell1, ell2, ell3, ell4, ell5 = ell
    transport = -4 * lam ** 2 * ell2
    constant = (
        -(lam * ell1 + 2 * lam ** 2 * ell3
          + 4 * lam ** 3 * ell4 + lam ** 3 * ell5)
        + 4 * lam ** 3 * ell2 ** 2
    )
    return transport, constant


@dataclass(frozen=True)
class SimConfig:
    """Discretisation and physics parameters for one run.

    Raises ``ValueError`` unless ``lam``, ``v_h`` and the five ``ell`` are
    finite, ``eps`` and ``T`` are finite and positive, and ``n_x`` is an
    integer power of two, at least 2.
    """

    lam: float = 1.0
    eps: float = 0.1
    n_x: int = 256
    T: float = 0.25
    ell: tuple[float, float, float, float, float] = (0.0,) * 5
    v_h: float = 0.0

    def __post_init__(self):
        if not math.isfinite(self.lam):
            raise ValueError(f"lam must be finite, got {self.lam}")
        _check_scale(self.eps, self.v_h)
        if not 0 < self.T < math.inf:
            raise ValueError(f"T must be finite and positive, got {self.T}")
        if not isinstance(self.n_x, numbers.Integral) or self.n_x < 2 \
                or self.n_x & (self.n_x - 1):
            raise ValueError(f"n_x must be a power of two >= 2, got {self.n_x!r}")
        if len(self.ell) != 5 or not all(math.isfinite(e) for e in self.ell):
            raise ValueError(f"ell must be five finite constants, got {self.ell}")

    @property
    def step(self) -> float:
        """The config step: the largest ``<= dx^2/4`` that divides ``T`` into
        whole sub-steps of ``SPLIT_STEPS`` config steps each.

        That is ``T / (SPLIT_STEPS * ceil(T / (SPLIT_STEPS * dx^2/4)))``, so
        ``n_steps`` is a multiple of ``SPLIT_STEPS`` and every sub-step of
        both solvers has the same length.  The linear flow of a solve is the
        implicit multiplier of this step raised to ``n_steps``.  The
        renormalised solver reads its noise rows at each config step; the
        reference draws one normal row per sub-step, with the variance of the
        white noise over its config steps.
        """
        dx = 1.0 / self.n_x
        sub_steps = math.ceil(self.T / (SPLIT_STEPS * dx * dx / 4.0))
        return self.T / (SPLIT_STEPS * sub_steps)

    @property
    def n_steps(self) -> int:
        return int(round(self.T / self.step))

    @property
    def v_v(self) -> float:
        return -renormalised_coefficients_closed_form(self.ell, self.lam)[1]


@dataclass
class Trajectory:
    """The heights at ``T`` of a run: ``(n_x,)``, or ``(B, n_x)`` for a batch."""

    final: np.ndarray
    config: SimConfig


@dataclass(frozen=True)
class WhiteNoise:
    """A batch of Hopf-Cole reference members for ``solve_renormalised``.

    The reference is ``log(z) / lam`` for the Ito equation ``dz = z'' + lam z
    xi`` from flat, with discretised space-time white noise ``xi``, or at
    ``lam = 0`` the additive equation ``dh = h'' + xi``: one member per seed,
    each on its own normal stream ``SeedSequence([seed, 0xADD])``.  Its
    configuration gives ``n_x``, ``T`` and ``lam``; ``ell`` and ``v_h`` are
    not read, and there is no transport.  A sub-step of ``m = SPLIT_STEPS``
    config steps multiplies ``z`` between its two half flows by the Ito-exact
    factor ``exp(lam sqrt(m) amp xi - m lam^2 amp^2 / 2)``, with one
    standard-normal row ``xi`` per member and ``amp^2 = dt / dx``: the Ito
    correction is the constant counterterm ``v_v = lam / (2 dx)``.  The
    implicit multiplier ``M = (I - dt Laplacian)^-1`` inverts a nonsingular
    M-matrix, so every power of it is entrywise positive and ``z`` stays
    positive.  The seeds must be a non-empty sequence of non-negative ints.
    """

    seeds: Sequence[int]

    def __post_init__(self):
        if not (isinstance(self.seeds, (Sequence, np.ndarray)) and len(self.seeds)
                and all(isinstance(s, numbers.Integral) and s >= 0 for s in self.seeds)):
            raise ValueError("want a non-empty sequence of non-negative int seeds, "
                             f"got {self.seeds!r}")


def noise_grid_for(config: SimConfig) -> GridSpec:
    """Noise grid resolving the bump at the configured scale.

    It has at least 512 cells and at least the solver's ``n_x``, doubled
    until ``dx <= eps/8``, and time slices no further apart than
    ``eps^2/8``.  Both counts are powers of two, so the solver grid divides
    it.
    """
    eps = config.eps
    nx_noise = max(512, config.n_x)
    while 1.0 / nx_noise > eps / 8:
        nx_noise *= 2
    nt = int(math.ceil(config.T / (eps * eps / 8.0))) + 1
    return GridSpec(config.T, nt, nx_noise)


def _implicit_multiplier(n_x: int, dt: float) -> np.ndarray:
    dx = 1.0 / n_x
    k = np.arange(n_x // 2 + 1)
    lap = (2.0 * np.cos(2.0 * math.pi * k / n_x) - 2.0) / (dx * dx)
    return 1.0 / (1.0 - dt * lap)


def _coarse_noise(sample: FieldSample, config: SimConfig) -> np.ndarray:
    """Cell-average the noise rows onto the solver grid."""
    if (abs(sample.grid.T - config.T) > 1e-12 or sample.eps != config.eps
            or sample.v_h != config.v_h):
        raise ValueError("noise sample does not match the configuration")
    values = sample.values
    n_x = config.n_x
    factor = values.shape[1] // n_x
    if factor * n_x != values.shape[1]:
        raise ValueError("noise grid must be a multiple of the solver grid")
    return values.reshape(values.shape[0], n_x, factor).mean(axis=2)


def _solve_forced(
    config: SimConfig,
    lam: np.ndarray,
    v_h: np.ndarray,
    mul: np.ndarray,
    add: np.ndarray,
    checks: Iterable[bool],
    h0: np.ndarray,
) -> np.ndarray:
    """Strang splitting of a ``(B, n_x)`` batch; the final heights.

    ``lam`` and ``v_h`` are ``(B, 1)`` member columns, ``h0`` is the start
    profile of every member, and ``config`` supplies only the grid and the
    step.  A member with ``lam != 0`` is stepped in ``u = exp(lam (h - c))``
    for ``c`` the mean of ``h0``, which solves the linear equation ``du =
    u'' - v_h u' + lam (f - v_v) u``: the equation is invariant under ``h
    -> h + c``, and the shift keeps a flat start of any height in ``exp``'s
    range.  A member with ``lam = 0`` is stepped in ``u = h``.  A sub-step
    of ``m = SPLIT_STEPS`` config steps is ``u <- M^(m/2) (A M^(m/2) u +
    B)``.  ``M`` is the implicit multiplier of one config step times the
    exact transport phase ``exp(-2 pi i k v_h dt)`` (1 at the Nyquist mode,
    which the lattice cannot shift), so the linear part of a solve is
    exactly ``M^n_steps``.

    ``mul`` and ``add`` are the ``(B, n_x)`` buffers of ``A`` and ``B``: with
    a member's increment ``S`` over the sub-step, ``A = exp(lam S)`` and
    ``B = 0``, or ``A = 1`` and ``B = S`` at ``lam = 0``.  Each batch's
    generator (``_field_rows``, ``_normal_rows``) keeps its own row block of
    both current, and ``checks`` advances every generator once per sub-step
    and yields whether any of them asks for a check.

    Consecutive half powers merge, so a sub-step is one irfft, a multiply
    if some member has ``lam != 0``, an add if some member has ``lam = 0``,
    one rfft and one multiply on preallocated buffers.  Where a check is
    asked, and at the end, a ``lam != 0`` member's ``u`` must be finite and
    positive, and a ``lam = 0`` member's finite and at most
    ``BLOWUP_THRESHOLD`` from ``c``, or ``BlowupError`` is raised at that
    sub-step's time.  The whole batch is checked wherever any batch asks,
    so a blown reference member may be reported at an earlier check in a
    joint batch than alone.  Every operation acts elementwise or row by
    row, so each member is integrated bit for bit as it would be alone; a
    dense circulant matmul would be faster, but BLAS gives rows that change
    with the batch size.
    """
    n_x = config.n_x
    dt = config.step
    k = np.arange(n_x // 2 + 1)
    k[-1] = 0  # the Nyquist mode is a standing wave on the lattice: no transport
    mult = _implicit_multiplier(n_x, dt)

    def flow(p):
        """``M^p``: ``p`` config steps of diffusion and transport."""
        power = mult ** p
        return power * np.exp(-2j * math.pi * k * v_h * (p * dt)) if v_h.any() else power

    hopf = lam != 0
    mul = mul if hopf.any() else None  # A = 1 throughout
    add = None if hopf.all() else add  # B = 0 throughout
    half = flow(SPLIT_STEPS / 2)
    between = flow(SPLIT_STEPS)  # the merged halves of two sub-steps
    n_sub = config.n_steps // SPLIT_STEPS
    with np.errstate(over="ignore", invalid="ignore"):
        c = h0.mean()
        u = np.where(hopf, np.exp(lam * (h0 - c)), h0)
        spectrum = np.fft.rfft(u, axis=-1) * half
        for j, check in enumerate(checks):
            np.fft.irfft(spectrum, n=n_x, axis=-1, out=u)
            if mul is not None:
                u *= mul
            if add is not None:
                u += add
            if check and _blown(u, hopf, c):
                raise BlowupError(j * SPLIT_STEPS * dt)
            np.fft.rfft(u, axis=-1, out=spectrum)
            spectrum *= between if j < n_sub - 1 else half
        np.fft.irfft(spectrum, n=n_x, axis=-1, out=u)
        if _blown(u, hopf, c):
            raise BlowupError(config.T)
    rows = hopf[:, 0]
    u[rows] = np.log(u[rows]) / lam[rows] + c
    return u


def _field_rows(config: SimConfig, coarse: np.ndarray, dt_noise: float,
                mul: np.ndarray, add: np.ndarray):
    """Keep a field batch's rows of ``A`` (``mul``) or ``B`` (``add``) current.

    ``coarse`` holds the batch's cell-averaged noise rows, ``(rows, B_g,
    n_x)``, ``dt_noise`` apart; at config step ``s`` they force by row
    ``min(int(s * dt / dt_noise), rows - 1)``, so a sub-step's increment
    is ``S = dt (F - m v_v)`` for its rows ``F`` summed.  The block is
    formed again only at the sub-steps whose rows differ from the previous
    sub-step's, and the generator yields per sub-step whether it did so,
    which is where the batch is checked; in between the block is left as it
    is.
    """
    dt, lam = config.step, config.lam
    times = np.arange(config.n_steps) * dt
    # the rows of each sub-step, one line of SPLIT_STEPS per sub-step
    windows = np.minimum((times / dt_noise).astype(np.int64),
                         len(coarse) - 1).reshape(-1, SPLIT_STEPS)
    fresh = np.ones(len(windows), dtype=bool)
    fresh[1:] = (windows[1:] != windows[:-1]).any(axis=1)
    for j, check in enumerate(fresh.tolist()):
        if check:
            total = sum(coarse[r] for r in windows[j].tolist())
            total -= SPLIT_STEPS * config.v_v
            total *= dt
            if lam:
                np.exp(lam * total, out=mul)
            else:
                add[...] = total
        yield check


def _blown(u: np.ndarray, hopf: np.ndarray, c: float) -> bool:
    """Some ``exp(lam (h - c))`` row not finite and positive, or some ``h``
    row not finite or more than ``BLOWUP_THRESHOLD`` from ``c``."""
    return bool(np.any(np.where(hopf, u <= 0.0, np.abs(u - c) > BLOWUP_THRESHOLD)
                       | ~np.isfinite(u)))


def _normal_rows(config: SimConfig, seeds: Sequence[int], mul: np.ndarray, add: np.ndarray):
    """Keep a ``WhiteNoise`` batch's rows of ``A`` (``mul``) or ``B`` (``add``) current.

    Each sub-step's rows are ``exp(lam S)``, or ``S`` at ``lam = 0``, with
    ``S = sqrt(m) amp xi - m dt v_v``, so that ``exp(lam S)`` is the Ito
    factor of ``WhiteNoise``.  Each member's stream fills a block of k rows at once, which yields the same
    numbers as k separate ``(n_x,)`` draws, and the block is turned into
    rows elementwise, so they do not depend on k.  The generator asks for a
    check at each block's last sub-step: alone, the batch is checked once
    per ``NORMAL_BLOCK_BYTES`` of normals and at the end.
    """
    n_x, dt, lam = config.n_x, config.step, config.lam
    n_sub = config.n_steps // SPLIT_STEPS
    scale = math.sqrt(SPLIT_STEPS * dt * n_x)
    counterterm = SPLIT_STEPS * dt * (lam * n_x / 2)
    rngs = [np.random.default_rng(np.random.SeedSequence([s, 0xADD])) for s in seeds]
    k = max(1, NORMAL_BLOCK_BYTES // (8 * len(rngs) * n_x))
    block = np.empty((len(rngs), k, n_x))
    target = mul if lam else add
    for lo in range(0, n_sub, k):
        rows = min(k, n_sub - lo)
        for rng, draws in zip(rngs, block):
            rng.standard_normal(out=draws[:rows])
        increments = block[:, :rows]
        increments *= scale
        if lam:
            increments -= counterterm
            increments *= lam
            np.exp(increments, out=increments)
        for j in range(rows):
            target[...] = block[:, j]
            yield j == rows - 1


def _batch(config: SimConfig, noise):
    """One config's ``(rows, B_g, lone)``.

    ``rows(mul, add)`` starts the generator of the batch's row block,
    ``B_g`` is its member count, and a lone member (one ``FieldSample``, or
    no noise, a zero field of one row) keeps no member axis in its heights.
    """
    if isinstance(noise, WhiteNoise):
        return partial(_normal_rows, config, noise.seeds), len(noise.seeds), False
    if noise is None:
        return partial(_field_rows, config, np.zeros((1, 1, config.n_x)), config.T), 1, True
    if isinstance(noise, FieldSample):
        coarse = _coarse_noise(noise, config)[:, None]
        return partial(_field_rows, config, coarse, noise.grid.dt), 1, True
    grid, members = None, []
    for sample in noise:
        if grid is not None and sample.grid != grid:
            raise ValueError("batch members have different noise grids")
        grid = sample.grid
        members.append(_coarse_noise(sample, config))
        del sample  # drop the fine field before the next one is made
    if not members:
        raise ValueError("empty batch")
    return partial(_field_rows, config, np.stack(members, axis=1), grid.dt), len(members), False


def solve_renormalised(
    config: SimConfig | Sequence[SimConfig],
    noise: FieldSample | Iterable | WhiteNoise | None,
    h0: np.ndarray | None = None,
) -> Trajectory | list[Trajectory]:
    """Integrate the counterterm equation driven by sampled fields or white noise.

    For one ``config``, ``noise`` is one ``FieldSample`` or an iterable of
    them, one per member.  A batch of B members is integrated as one
    ``(B, n_x)`` array and ``final`` gains a member axis.  Each field is
    cell-averaged onto the solver grid as it arrives, so one fine field at
    most is held at a time.  The noise is piecewise constant between its
    own time slices; ``noise=None`` runs the deterministic part only.
    ``noise`` may also be a ``WhiteNoise`` batch: the Hopf-Cole reference,
    one member per seed.

    For a sequence of configs sharing ``n_x`` and ``T``, ``noise`` holds one
    such batch per config, and every member of every config is integrated
    in one step loop, each with its own coupling, counterterms and noise
    grid: one solve, one transform pair per sub-step, however many batches
    and of whichever kind.  The result is one ``Trajectory`` per config,
    each equal to the config's own solve.  ``h0`` is the start of every
    member, one finite profile of shape ``(n_x,)``; any other shape or a
    value that is not finite raises ``ValueError``.
    """
    single = isinstance(config, SimConfig)
    configs = [config] if single else list(config)
    batches = [noise] if single else list(noise)
    if not configs or len(batches) != len(configs):
        raise ValueError("want one batch of fields per configuration")
    n_x, T = configs[0].n_x, configs[0].T
    if any(c.n_x != n_x or c.T != T for c in configs):
        raise ValueError("configurations differ in n_x or T")
    h0 = np.zeros(n_x) if h0 is None else np.asarray(h0, dtype=float)
    if h0.shape != (n_x,):
        raise ValueError(f"h0 has shape {h0.shape}, want one profile of shape ({n_x},)")
    if not np.all(np.isfinite(h0)):
        raise ValueError("h0 must be finite")
    rows, sizes, lone = zip(*(_batch(c, b) for c, b in zip(configs, batches)))
    edges = np.cumsum((0,) + sizes)

    def column(values):
        return np.repeat(values, sizes)[:, None]

    lam = column([c.lam for c in configs])
    v_h = column([0.0 if isinstance(b, WhiteNoise) else c.v_h
                  for c, b in zip(configs, batches)])
    mul, add = np.ones((edges[-1], n_x)), np.zeros((edges[-1], n_x))
    checks = map(any, zip(*(start(mul[lo:hi], add[lo:hi])
                            for start, lo, hi in zip(rows, edges, edges[1:]))))
    final = _solve_forced(configs[0], lam, v_h, mul, add, checks, h0)
    out = [Trajectory(h[0] if one else h, c) for c, one, h
           in zip(configs, lone, np.split(final, edges[1:-1]))]
    return out[0] if single else out


# ---------------------------------------------------------------------------
# Ensemble comparison
# ---------------------------------------------------------------------------

def _profile_stats(ensemble: np.ndarray) -> dict:
    """Statistics of ``(..., m, n_x)`` ensembles, keeping the leading axes.

    ``cov[r]`` averages ``c[i] c[i - r]`` over members and cells for the
    centred members ``c``: the circular autocorrelation, read from the
    summed power spectrum.
    """
    mean = ensemble.mean(axis=-2)
    var = ensemble.var(axis=-2, ddof=1)
    centred = ensemble - mean[..., None, :]
    m, n_x = ensemble.shape[-2:]
    power = (np.abs(np.fft.rfft(centred, axis=-1)) ** 2).sum(axis=-2)
    cov = np.fft.irfft(power, n=n_x, axis=-1)[..., :n_x // 2] / (m * n_x)
    return {"mean": mean, "var": var, "cov": cov, "point": ensemble[..., 0]}


def _distances(a: np.ndarray, b: np.ndarray) -> dict:
    """Distances between the statistics of ``(..., m, n_x)`` ensembles ``a`` and ``b``."""
    sa, sb = _profile_stats(a), _profile_stats(b)

    def rms(key):
        return np.sqrt(np.mean((sa[key] - sb[key]) ** 2, axis=-1))

    # empirical laws at cell 0, compared at every value either sample takes
    pa, pb = sa["point"], sb["point"]
    xs = np.concatenate([pa, pb], axis=-1)[..., :, None]
    cdf_a = (pa[..., None, :] <= xs).mean(axis=-1)
    cdf_b = (pb[..., None, :] <= xs).mean(axis=-1)
    return {"mean_profile": rms("mean"), "variance_profile": rms("var"),
            "two_point": rms("cov"),
            "one_point_ks": np.max(np.abs(cdf_a - cdf_b), axis=-1)}


def compare_statistics(
    ensemble_a: np.ndarray,
    ensemble_b: np.ndarray,
    n_bootstrap: int = 200,
    seed: int = 0,
) -> dict:
    """Distances between ensemble statistics with bootstrap errors.

    Observables: mean profile, variance profile, two-point covariance
    (RMS distances over space) and the Kolmogorov distance of the height
    law at a fixed point.  Both ensembles are ``(m, n_x)`` arrays of two
    members or more and ``n_bootstrap`` is an integer of two or more, or no
    stderr exists; other input raises ``ValueError``.

    The resample indices come from one draw of shape ``(R, na + nb)``;
    row r holds resample r's indices into ``a`` then ``b``, the same
    numbers as one draw per resample and ensemble.  Every resample's
    statistics are computed at once on
    ``(R, m, n_x)`` stacks, R resamples per block of at most
    ``BOOTSTRAP_BLOCK_BYTES``.
    """
    if np.ndim(ensemble_a) != 2 or np.ndim(ensemble_b) != 2:
        raise ValueError(f"want (m, n_x) ensembles of two or more members, got shapes "
                         f"{np.shape(ensemble_a)} and {np.shape(ensemble_b)}")
    if ensemble_a.shape[1] != ensemble_b.shape[1]:
        raise ValueError("ensembles live on different grids")
    _check_count("n_bootstrap", n_bootstrap)
    na, nb = len(ensemble_a), len(ensemble_b)
    if min(na, nb) < 2 or n_bootstrap < 2:
        raise ValueError(f"want two or more members and resamples, got {na} and "
                         f"{nb} members and {n_bootstrap} resamples")
    base = {k: float(v) for k, v in _distances(ensemble_a, ensemble_b).items()}
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0xB007]))
    rows = rng.integers(0, np.repeat([na, nb], [na, nb]), (n_bootstrap, na + nb))
    ia, ib = rows[:, :na], rows[:, na:]
    per_block = max(1, BOOTSTRAP_BLOCK_BYTES // (8 * (na + nb) * ensemble_a.shape[1]))
    blocks = [_distances(ensemble_a[ia[lo:lo + per_block]], ensemble_b[ib[lo:lo + per_block]])
              for lo in range(0, n_bootstrap, per_block)]
    boots = {k: np.concatenate([blk[k] for blk in blocks]) for k in base}
    return {
        "distances": base,
        "bootstrap_stderr": {k: float(np.std(v, ddof=1)) for k, v in boots.items()},
    }


def convergence_study(
    model: PoissonNoiseModel,
    eps_list: Sequence[float],
    constants: dict,
    n_members: int = 200,
    n_x: int = 256,
    T: float = 0.25,
    lam: float = 1.0,
    master_seed: int = 0,
) -> dict:
    """Distances to the log-transform reference across noise scales.

    ``constants[eps]`` supplies the five counterterms per scale.  Member
    clouds, drawn at the finest scale, are shared across scales (coupling),
    and the reference ensemble, ``n_members`` ``WhiteNoise`` members on
    seeds drawn from ``master_seed``, is drawn once.  The reference and
    every scale are solved in one ``solve_renormalised`` call (they share
    ``n_x`` and ``T``), and the distances are expected to weakly decrease
    as the scale refines.  Bad input (no scale, a member count that is not
    an integer of two or more, a scale without five finite counterterms)
    raises ``ValueError`` before any cloud is drawn.
    """
    if not len(eps_list):
        raise ValueError("want one noise scale or more")
    _check_count("n_members", n_members)
    if n_members < 2:
        raise ValueError(f"want two or more members, got {n_members}")
    eps_list = sorted(eps_list, reverse=True)
    configs = []
    for eps in eps_list:
        if eps not in constants:
            raise ValueError(f"no counterterms for eps={eps}")
        ell = np.asarray(constants[eps], dtype=float)
        if ell.shape != (5,) or not np.isfinite(ell).all():
            raise ValueError(f"want five finite counterterms for eps={eps}, "
                             f"got {constants[eps]!r}")
        ell = tuple(ell.tolist())
        transport, _ = renormalised_coefficients_closed_form(ell, lam)
        configs.append(SimConfig(lam=lam, eps=eps, n_x=n_x, T=T, ell=ell, v_h=-transport))
    eps_min = eps_list[-1]
    ref_config = SimConfig(lam=lam, eps=eps_min, n_x=n_x, T=T)

    rng_master = np.random.SeedSequence([master_seed, 0xC10])
    clouds = [draw_cloud(model, np.random.default_rng(child), eps_min, T)
              for child in rng_master.spawn(n_members)]

    def fields(c: SimConfig):
        grid = noise_grid_for(c)
        return (field_from_cloud(model, c.eps, grid, cloud, c.v_h) for cloud in clouds)

    seeds = [int(np.random.SeedSequence([master_seed, 7, m]).generate_state(1)[0])
             for m in range(n_members)]
    *ensembles, reference = (t.final for t in solve_renormalised(
        [*configs, ref_config], [*map(fields, configs), WhiteNoise(seeds)]))
    rows = [{"eps": eps, **compare_statistics(ensemble, reference, seed=master_seed)}
            for eps, ensemble in zip(eps_list, ensembles)]

    def weakly_decreasing(key):
        vals = [r["distances"][key] for r in rows]
        return all(a >= b for a, b in zip(vals, vals[1:]))

    return {
        "rows": rows,
        "mean_profile_decreasing": weakly_decreasing("mean_profile"),
        "variance_profile_decreasing": weakly_decreasing("variance_profile"),
    }

