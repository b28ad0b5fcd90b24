"""Poisson shot-noise fields: generation, rescaling, and cumulant oracles.

The noise is a centred moving average of a Poisson cloud: smooth compactly
supported bumps dropped at unit-intensity Poisson points (optionally with
amplitude marks), normalised so the covariance integrates to one.  The
periodised field lives on a strip of width ``1/eps`` extended periodically;
after parabolic rescaling it is a field on the unit circle.

Every cumulant of such a field is an explicit integral (a power of the
window obtained by pairing the test function with the bump), so empirical
statistics can always be checked against exact quadrature values.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
import numbers
from dataclasses import astuple, dataclass
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "smooth_bump",
    "smooth_bump_dx",
    "BumpTerm",
    "PoissonNoiseModel",
    "default_even_model",
    "default_asymmetric_model",
    "GridSpec",
    "FieldSample",
    "draw_cloud",
    "field_from_cloud",
    "sample_field",
    "PairingWindows",
    "sample_pairings",
    "empirical_cumulants",
    "joint_second_cumulants",
    "clt_check",
    "make_test_functions",
]


# ---------------------------------------------------------------------------
# Smooth bumps and the Poisson noise model
# ---------------------------------------------------------------------------

def smooth_bump(u):
    """The standard compactly supported bump exp(-1/(1-u^2)) on |u| < 1."""
    u = np.asarray(u, dtype=float)
    out = np.zeros_like(u)
    inside = np.abs(u) < 1
    ui = u[inside]
    out[inside] = np.exp(-1.0 / (1.0 - ui * ui))
    return out


def smooth_bump_dx(u):
    """Derivative of :func:`smooth_bump`."""
    u = np.asarray(u, dtype=float)
    out = np.zeros_like(u)
    inside = np.abs(u) < 1
    ui = u[inside]
    denom = 1.0 - ui * ui
    out[inside] = np.exp(-1.0 / denom) * (-2.0 * ui / denom ** 2)
    return out


@functools.cache
def _legendre_nodes(n: int):
    """The ``n``-point Gauss-Legendre rule on [-1, 1], computed once, read-only."""
    x, w = np.polynomial.legendre.leggauss(n)
    x.flags.writeable = False
    w.flags.writeable = False
    return x, w


def _gauss_legendre(n: int, a: float, b: float):
    """The ``n``-point Gauss-Legendre rule on [a, b], as new arrays."""
    x, w = _legendre_nodes(n)
    return 0.5 * (b - a) * x + 0.5 * (a + b), 0.5 * (b - a) * w


@dataclass(frozen=True)
class BumpTerm:
    """One product bump ``amp * bump((t-tc)/th) * bump((x-xc)/xh)``."""

    amplitude: float
    t_center: float
    t_halfwidth: float
    x_center: float
    x_halfwidth: float

    def value(self, t, x):
        return (
            self.amplitude
            * smooth_bump((np.asarray(t) - self.t_center) / self.t_halfwidth)
            * smooth_bump((np.asarray(x) - self.x_center) / self.x_halfwidth)
        )


#: 1-d masses of the standard bump and of its square: the 200-node
#: Gauss-Legendre sums, written out so that importing builds no rule.
BUMP_MASS = 0.443993816168082
_BUMP_SQUARE_MASS = 0.133086120844995


class PoissonNoiseModel:
    """Centred Poisson moving average with unit integrated covariance.

    ``terms`` describe the bump shape; ``mu`` is the cloud intensity per
    unit space-time volume; ``marks`` is a finite amplitude law given as
    (probability, amplitude) pairs.  On construction the amplitudes are
    rescaled so that ``mu * E[a^2] * (int phi)^2 = 1``.
    """

    def __init__(
        self,
        terms: Sequence[BumpTerm],
        mu: float = 1.0,
        marks: Sequence[tuple[float, float]] = ((1.0, 1.0),),
        name: str = "custom",
    ):
        if not 0 < mu < math.inf:
            raise ValueError("intensity must be finite and positive")
        if not (np.isfinite([astuple(t) for t in terms]).all()
                and np.isfinite(np.asarray(marks, dtype=float)).all()):
            raise ValueError("bump terms and marks must be finite")
        probs = np.array([p for p, _ in marks], dtype=float)
        if abs(probs.sum() - 1.0) > 1e-12 or (probs < 0).any():
            raise ValueError("mark probabilities must be a distribution")
        if not all(t.t_halfwidth > 0 and t.x_halfwidth > 0 for t in terms):
            raise ValueError("bump half-widths must be positive")
        raw_int = sum(
            t.amplitude * t.t_halfwidth * t.x_halfwidth * BUMP_MASS ** 2
            for t in terms
        )
        if raw_int <= 0:
            raise ValueError("the bump must have positive integral")
        m2 = sum(p * a * a for p, a in marks)
        if not m2 > 0:
            raise ValueError("the marks must have E[a^2] > 0")
        scale = 1.0 / math.sqrt(mu * m2) / raw_int
        self.terms = tuple(
            BumpTerm(t.amplitude * scale, t.t_center, t.t_halfwidth,
                     t.x_center, t.x_halfwidth)
            for t in terms
        )
        self.mu = float(mu)
        self.marks = tuple((float(p), float(a)) for p, a in marks)
        self._amps = np.array([a for _, a in self.marks])
        self._cdf = np.cumsum([p for p, _ in self.marks])
        self._cdf[-1] = 1.0  # a rounded sum below 1 would index past the marks
        self.name = name
        self.int_phi = raw_int * scale
        self.t_reach = max(abs(t.t_center) + t.t_halfwidth for t in self.terms)
        self.x_reach = max(abs(t.x_center) + t.x_halfwidth for t in self.terms)

    # -- basic evaluators --------------------------------------------------
    def phi(self, t, x):
        total = np.zeros(np.broadcast(np.asarray(t), np.asarray(x)).shape)
        for term in self.terms:
            total = total + term.value(t, x)
        return total

    def mark_moment(self, n: int) -> float:
        return sum(p * a ** n for p, a in self.marks)

    def _marks_at(self, u: np.ndarray) -> np.ndarray:
        """Marks at uniforms ``u`` in [0, 1): the cdf inverted, as ``Generator.choice`` does."""
        return self._amps[np.searchsorted(self._cdf, u, "right")]

    @property
    def x_even(self) -> bool:
        """True when the bump is even in space (then the covariance is too)."""
        for term in self.terms:
            mirrored = any(
                abs(o.x_center + term.x_center) < 1e-12
                and o.x_halfwidth == term.x_halfwidth
                and o.t_center == term.t_center
                and o.t_halfwidth == term.t_halfwidth
                and o.amplitude == term.amplitude
                for o in self.terms
            )
            if not mirrored:
                return False
        return True

    def describe(self) -> dict:
        return {
            "name": self.name,
            "mu": self.mu,
            "marks": [list(m) for m in self.marks],
            "terms": [
                [t.amplitude, t.t_center, t.t_halfwidth, t.x_center, t.x_halfwidth]
                for t in self.terms
            ],
        }

    def model_hash(self) -> str:
        payload = json.dumps(self.describe(), sort_keys=True).encode()
        return hashlib.sha256(payload).hexdigest()[:16]

    # -- exact covariance --------------------------------------------------
    def kappa2(self, s, y):
        """Covariance ``kappa_2(s, y) = mu E[a^2] (phi * phi~)(s, y)``.

        Evaluated by per-term 1-d correlation quadratures (64 Gauss-Legendre
        nodes); broadcast over numpy inputs.
        """
        s = np.asarray(s, dtype=float)
        y = np.asarray(y, dtype=float)
        xg, wg = _gauss_legendre(64, -1.0, 1.0)
        out = np.zeros(np.broadcast(s, y).shape)
        for t1 in self.terms:
            for t2 in self.terms:
                ut = t1.t_center + t1.t_halfwidth * xg
                ux = t1.x_center + t1.x_halfwidth * xg
                bt1 = smooth_bump(xg) * wg * t1.t_halfwidth
                bx1 = smooth_bump(xg) * wg * t1.x_halfwidth
                ct = np.tensordot(
                    smooth_bump((ut + s[..., None] - t2.t_center)
                                / t2.t_halfwidth),
                    bt1, axes=([-1], [0]),
                )
                cx = np.tensordot(
                    smooth_bump((ux + y[..., None] - t2.x_center)
                                / t2.x_halfwidth),
                    bx1, axes=([-1], [0]),
                )
                out = out + t1.amplitude * t2.amplitude * ct * cx
        return self.mu * self.mark_moment(2) * out


def default_even_model() -> PoissonNoiseModel:
    """The bundled space-even model: a single centred product bump."""
    return PoissonNoiseModel([BumpTerm(1.0, 0.0, 0.5, 0.0, 0.5)], name="even-bump")


def default_asymmetric_model() -> PoissonNoiseModel:
    """A space-asymmetric model: two bumps shifted along a diagonal.

    The covariance of a single product bump is always even in space, so
    asymmetry requires correlating the time and space offsets.
    """
    return PoissonNoiseModel(
        [
            BumpTerm(1.0, -0.10, 0.15, -0.10, 0.15),
            BumpTerm(1.0, 0.10, 0.15, 0.10, 0.15),
        ],
        name="skew-bump",
    )


# ---------------------------------------------------------------------------
# Field samples on a grid
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GridSpec:
    """Space-time grid on [0, T] x [0, 1) with uniform steps.

    Raises ``ValueError`` unless ``T`` is finite and positive and the counts
    are integers with ``nt >= 2`` and ``nx >= 1``.
    """

    T: float
    nt: int
    nx: int

    def __post_init__(self):
        if not 0 < self.T < math.inf:
            raise ValueError(f"horizon T must be finite and positive, got {self.T}")
        if not isinstance(self.nt, numbers.Integral) or self.nt < 2:
            raise ValueError(f"need an integer nt >= 2 time slices, got {self.nt!r}")
        if not isinstance(self.nx, numbers.Integral) or self.nx < 1:
            raise ValueError(f"need an integer nx >= 1 cells, got {self.nx!r}")

    @property
    def dt(self) -> float:
        return self.T / (self.nt - 1)

    @property
    def dx(self) -> float:
        return 1.0 / self.nx

    def times(self) -> np.ndarray:
        return self.dt * np.arange(self.nt)


@dataclass
class FieldSample:
    """One draw of the rescaled periodised field on a grid.

    ``eps`` is the noise scale and ``v_h`` the transport speed of the frame
    the field was drawn in; a solver driven by the field checks both.
    """

    values: np.ndarray  # (nt, nx)
    grid: GridSpec
    eps: float
    v_h: float


def _cloud_box(model: PoissonNoiseModel, eps: float, T: float):
    """``(t_lo, t_hi, half_width)`` of the cloud points a field on ``[0, T]``
    at scale ``eps`` reads: see :func:`draw_cloud`."""
    return -model.t_reach, T / eps ** 2 + model.t_reach, 0.5 / eps


def draw_cloud(model: PoissonNoiseModel, rng: np.random.Generator, eps: float, T: float):
    """A marked Poisson cloud ``(s, y, a)`` on the box a field on ``[0, T]`` at
    scale ``eps`` reads: the times ``[-t_reach, T / eps^2 + t_reach]``, whose
    bumps reach the rescaled span, and the strip ``|y| <= 1 / (2 eps)``.

    Restricting a uniform cloud to a smaller box is again uniform, so a cloud
    drawn at the finest scale feeds fields at every coarser one with the same
    ``T``.  The stream holds the count, the ``s``, the ``y`` and, for a law of
    several marks, one uniform per point.  Raises ``ValueError``, before any
    draw, unless ``eps`` and ``T`` are finite and positive.
    """
    _check_scale(eps)
    if not 0 < T < math.inf:
        raise ValueError(f"T must be finite and positive, got {T}")
    t_lo, t_hi, half_width = _cloud_box(model, eps, T)
    area = (t_hi - t_lo) * 2 * half_width
    n_pts = rng.poisson(model.mu * area)
    s = rng.uniform(t_lo, t_hi, n_pts)
    y = rng.uniform(-half_width, half_width, n_pts)
    one_mark = len(model.marks) == 1
    a = np.full(n_pts, model.marks[0][1]) if one_mark else model._marks_at(rng.random(n_pts))
    return s, y, a


def _check_scale(eps: float, v_h: float = 0.0) -> None:
    """Raise ``ValueError`` unless ``eps`` is finite and positive and ``v_h``
    is finite."""
    if not 0 < eps < math.inf:
        raise ValueError(f"eps must be finite and positive, got {eps!r}")
    if not math.isfinite(v_h):
        raise ValueError(f"v_h must be finite, got {v_h!r}")


def _check_count(name: str, value) -> None:
    """Raise ``ValueError`` unless ``value`` is an integer."""
    if not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")


def field_from_cloud(
    model: PoissonNoiseModel,
    eps: float,
    grid: GridSpec,
    cloud,
    v_h: float = 0.0,
) -> FieldSample:
    """Evaluate the rescaled field of a cloud on the grid.

    Only the points in the box that :func:`draw_cloud` draws at ``(eps,
    grid.T)`` are used, and the strip is extended periodically.  The grid
    must resolve the bump (``dx <= eps/8`` and ``dt <= eps^2/8``).  Each
    chunk of points is scattered straight onto the grid by ``np.add.at``, in
    point order, so any cloud gives the sums of a point-by-point scatter bit
    for bit.

    Raises ``ValueError``, before any work, unless ``eps`` is finite and
    positive and ``v_h`` is finite.
    """
    _check_scale(eps, v_h)
    if grid.dx > eps / 8 + 1e-12:
        raise ValueError(f"grid dx={grid.dx:.5g} too coarse for eps={eps}")
    if grid.dt > eps * eps / 8 + 1e-12:
        raise ValueError(f"grid dt={grid.dt:.5g} too coarse for eps={eps}")

    s_all, y_all, a_all = cloud
    t_lo, t_hi, half_width = _cloud_box(model, eps, grid.T)
    keep = (s_all >= t_lo) & (s_all <= t_hi) & (np.abs(y_all) <= half_width)
    s, y, a = s_all[keep], y_all[keep], a_all[keep]

    values = np.zeros((grid.nt, grid.nx))
    t_hat = grid.times() / eps ** 2
    dt_hat = grid.dt / eps ** 2
    dx_hat = grid.dx / eps
    # x_hat of column j at row i is j*dx_hat - shift_i; columns wrap mod nx,
    # which is exactly the strip periodisation since nx * dx_hat = 1/eps
    shift = (v_h * grid.times()) / eps

    n_rows = int(2 * model.t_reach / dt_hat) + 2
    n_cols = int(2 * model.x_reach / dx_hat) + 2
    # a chunk builds several float and int temporaries of chunk * n_rows *
    # n_cols stencil cells; 2^14 of them keeps each at 128 KB, in cache and
    # on the heap, and the per-chunk NumPy calls are still few next to the
    # elementwise work
    chunk = max(1, (1 << 14) // max(1, n_rows * n_cols))
    for start in range(0, len(s), chunk):
        sl = slice(start, start + chunk)
        sc, yc, ac = s[sl], y[sl], a[sl]
        i0 = np.ceil((sc - model.t_reach - t_hat[0]) / dt_hat).astype(int)
        rows = i0[:, None] + np.arange(n_rows)[None, :]
        valid_r = (rows >= 0) & (rows < grid.nt)
        rows_c = np.clip(rows, 0, grid.nt - 1)
        dt_vals = t_hat[rows_c] - sc[:, None]
        # the point's position in column units within each row's frame
        pos = (yc[:, None] + shift[rows_c]) / dx_hat
        j0 = np.ceil(pos - model.x_reach / dx_hat).astype(int)
        cols = j0[:, :, None] + np.arange(n_cols)[None, None, :]
        dx_vals = cols * dx_hat - pos[:, :, None] * dx_hat
        vals = (
            ac[:, None, None]
            * model.phi(dt_vals[:, :, None], dx_vals)
            * valid_r[:, :, None]
        )
        flat = rows_c[:, :, None] * grid.nx + np.mod(cols, grid.nx)
        np.add.at(values.reshape(-1), flat.ravel(), vals.ravel())  # a view of values

    mean = model.mu * model.mark_moment(1) * model.int_phi
    values = (values - mean) * eps ** (-1.5)
    return FieldSample(values=values, grid=grid, eps=eps, v_h=v_h)


def sample_field(
    model: PoissonNoiseModel,
    eps: float,
    grid: GridSpec,
    seed: int,
) -> FieldSample:
    """Draw the rescaled field on the grid from a periodised Poisson cloud.

    The field is ``field_from_cloud`` of ``draw_cloud(model, rng, eps,
    grid.T)`` on the stream ``SeedSequence([seed, 0xF1E1D])``, so the cloud
    is the box the field reads; it is in the rest frame (``v_h = 0``).
    Raises ``ValueError``, before any work, unless ``eps`` is finite and
    positive.
    """
    _check_scale(eps)
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0xF1E1D]))
    return field_from_cloud(model, eps, grid, draw_cloud(model, rng, eps, grid.T))


# ---------------------------------------------------------------------------
# Exact pairing windows and the fast sampling path
# ---------------------------------------------------------------------------

#: Cloud points per block of :func:`sample_pairings`, the 2^14 budget of
#: :func:`field_from_cloud`'s chunks.  A block's point-sized arrays, about
#: 140 bytes a point in all (2.2 MiB, tracemalloc), stay in cache, and glibc
#: serves them from its heap, so a steady block maps no fresh pages.  At eps
#: = 0.05 with two windows and 4,000 samples, a call took 0.38 s in blocks of
#: 2^13 points, 0.35 s in blocks of 2^14 or 2^15 and 0.44 s in blocks of
#: 2^16 (medians of 6 on a shared 2-vCPU x86 host), and a steady call
#: faulted about 170, 290, 5,200 and 17,200 pages.  It sets the memory
#: used, never the numbers.
POINT_BLOCK = 1 << 14

#: Window grid cells per narrowest bump half-width, in s and in y.
WINDOW_RESOLUTION = 8

#: Window rows of :class:`PairingWindows` built per pass.  A pass evaluates
#: the test functions only on the rows of the half-spacing grid G that no
#: earlier pass did and carries the rest over, so G is never held whole (11
#: MB per array for the even model at eps = 0.05) and each row of it is
#: evaluated once whatever the pass size.  There, next to the two windows'
#: 5.1 MiB, passes of 32 rows keep 2.1 MiB of scratch, 64 rows 3.5 MiB and
#: 128 rows 6.2 MiB (tracemalloc), and all three build in 0.08 s.  It sets
#: the memory used, never the work or the numbers.
WINDOW_ROW_BLOCK = 32


def _bump_taps(halfwidth: float, step: float) -> np.ndarray:
    """Taps of ``bump(u / halfwidth)`` at ``u = k * step`` for ``|k| <= K``.

    ``K * step`` reaches past the support, where the bump and all its
    derivatives vanish, so these are trapezoid weights; they are scaled to
    sum to the exact mass ``halfwidth * BUMP_MASS``.
    """
    reach = math.ceil(halfwidth / step)
    taps = smooth_bump(np.arange(-reach, reach + 1) * step / halfwidth)
    return taps * (halfwidth * BUMP_MASS / taps.sum())


def _correlate_halved(values: np.ndarray, taps: np.ndarray, axis: int) -> np.ndarray:
    """``out[i] = sum_k taps[k] * values[2 i + k]`` along ``axis``."""
    windows = np.lib.stride_tricks.sliding_window_view(values, len(taps), axis=axis)
    every_other = [slice(None)] * values.ndim
    every_other[axis] = slice(None, None, 2)
    return windows[tuple(every_other)] @ taps


class PairingWindows:
    """Windows ``W_j(s, y)`` pairing test functions with the moving bump.

    ``W_j(s, y)`` is the contribution of a unit cloud point at unscaled
    position ``(s, y)`` to ``zeta_eps(eta_j)``.  All cumulants of the
    pairings are ``mu E[a^n] int W^n``; sampling reduces to interpolating
    the windows at Poisson points.

    Quadrature: a bump term ``amp * bump_t(u) * bump_x(v)`` contributes
    ``eps^{3/2} amp int int bump_t(u) bump_x(v) G(s + u, y + v) du dv`` with
    ``G(sigma, y) = eta(eps^2 sigma, eps y + v_h eps^2 sigma mod 1)``.  The
    shear depends on ``sigma`` alone, so for every ``v_h`` the window is a
    separable correlation of ``G`` with the bump.  ``G`` is evaluated per
    term on a grid of half the window spacing, offset by the term's centre
    and extended by its half-widths.  The 1-d bump taps (:func:`_bump_taps`)
    are applied along y, then along s, in passes of :data:`WINDOW_ROW_BLOCK`
    window rows.  Window rows ``[lo, hi)`` read the y-correlated rows ``[2
    lo, 2 hi + len(taps_s) - 2)`` of ``G``, and the last ``len(taps_s) - 2``
    of them are carried to the next pass, so each test function sees each
    point of ``G`` once and every window is the same bits as with ``G``
    built whole.  The taps sum to the exact bump mass, so ``eta = 1`` gives
    ``eps^{3/2} int phi`` to rounding.  Against a 64-node Gauss-Legendre
    product rule at eps = 0.2 and ``v_h`` = 0 or 0.7, the largest window
    error relative to the largest window value is 2.7e-7 for
    :func:`default_even_model` and 2.7e-8 for
    :func:`default_asymmetric_model`.

    The y grid tiles the periodic strip ``[0, 1/eps)``: ``n_y`` cells of
    width ``dy = (1/eps) / n_y``, the fewest no wider than ``min_hx /
    WINDOW_RESOLUTION``; the s grid has spacing ``min_ht / WINDOW_RESOLUTION``.

    Raises ``ValueError``, before any work, unless ``eps`` is finite and
    positive, ``v_h`` is finite and ``t_support`` is finite and increasing.
    """

    def __init__(
        self,
        model: PoissonNoiseModel,
        eps: float,
        etas: Sequence[Callable],
        t_support: tuple[float, float],
        v_h: float = 0.0,
    ):
        _check_scale(eps, v_h)
        if not -math.inf < t_support[0] < t_support[1] < math.inf:
            raise ValueError(f"t_support must be finite and increasing, got {t_support}")
        etas = tuple(etas)  # read more than once: to allocate and to fill
        self.model = model
        self.eps = eps
        self.v_h = v_h
        W = 1.0 / eps
        min_ht = min(t.t_halfwidth for t in model.terms)
        min_hx = min(t.x_halfwidth for t in model.terms)
        ds = min_ht / WINDOW_RESOLUTION
        n_y = math.ceil(W / (min_hx / WINDOW_RESOLUTION))
        s_lo = t_support[0] / eps ** 2 - model.t_reach
        s_hi = t_support[1] / eps ** 2 + model.t_reach
        self.s_grid = np.arange(s_lo, s_hi + ds, ds)
        self.y_grid = np.arange(n_y) * (W / n_y)
        self.ds = ds
        self.dy = W / n_y
        self.strip = W

        prefactor = eps ** 1.5  # eps^{-3/2} amplitude times the eps^3 Jacobian
        n_s = len(self.s_grid)
        n_pass = min(WINDOW_ROW_BLOCK, n_s)
        sheared = []  # per term: weight, taps, the sigma and y points of G, row buffers
        for term in model.terms:
            taps_s = _bump_taps(term.t_halfwidth, ds / 2)
            taps_y = _bump_taps(term.x_halfwidth, self.dy / 2)
            reach_s, reach_y = len(taps_s) // 2, len(taps_y) // 2
            sigma = (self.s_grid[0] + term.t_center
                     + ds / 2 * np.arange(-reach_s, 2 * n_s - 1 + reach_s))
            y = term.x_center + self.dy / 2 * np.arange(-reach_y, 2 * n_y - 1 + reach_y)
            # per test function, the y-correlated rows of G that one pass reads
            rows = [np.empty((2 * n_pass - 2 + len(taps_s), n_y)) for _ in etas]
            sheared.append((term.amplitude * prefactor, taps_s, taps_y, sigma, y, rows))
        # window rows [lo, hi) read G's rows [2 lo, 2 hi + halo), halo =
        # len(taps_s) - 2; the first halo of them were the previous pass's last
        self.windows = [np.empty((n_s, n_y)) for _ in etas]
        for lo in range(0, n_s, n_pass):
            hi = min(lo + n_pass, n_s)
            parts = [[] for _ in etas]
            for weight, taps_s, taps_y, sigma, y, rows in sheared:
                halo = len(taps_s) - 2
                carried = halo if lo else 0
                tt = eps ** 2 * sigma[2 * lo + carried:2 * hi + halo, None]
                xx = np.mod(eps * y[None, :] + v_h * tt, 1.0)
                for part, buf, eta in zip(parts, rows, etas):
                    if lo:
                        buf[:halo] = buf[2 * n_pass:2 * n_pass + halo]
                    buf[carried:2 * (hi - lo) + halo] = _correlate_halved(eta(tt, xx), taps_y, 1)
                    part.append(weight * _correlate_halved(buf[:2 * (hi - lo) + halo], taps_s, 0))
            for window, part in zip(self.windows, parts):
                window[lo:hi] = sum(part)

    def interpolate(self, js: Sequence[int], s: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Bilinear interpolation of the windows ``js`` at cloud points.

        Periodic in y with period :attr:`strip`; zero for ``s`` outside
        ``[s_grid[0], s_grid[-1]]``.  ``s`` and ``y`` broadcast against
        each other, and the result has one trailing column per index in
        ``js``.  One call finds the points' cells and weights once and
        shares them across its windows; each window's column is the same
        bits as a call for it alone.  Its scratch grows with the points of
        one call: about 90 bytes a point for two windows, the result
        included.  :func:`sample_pairings` calls it once per block of
        :data:`POINT_BLOCK` points.
        """
        n_s, n_y = len(self.s_grid), len(self.y_grid)
        s, y = np.broadcast_arrays(s, y)
        # drawn points lie in [0, strip), where np.mod is the identity
        if y.size and (y.min() < 0 or y.max() >= self.strip):
            y = np.mod(y, self.strip)
        fs = s - self.s_grid[0]
        fs /= self.ds
        outside = (fs < 0) | (fs > n_s - 1)
        # astype truncates: the floor where fs >= 0, and cell 0 after the clip below it
        i0 = fs.astype(int)
        np.clip(i0, 0, n_s - 2, out=i0)
        as_ = np.subtract(fs, i0, out=fs)
        np.clip(as_, 0.0, 1.0, out=as_)
        bs = 1 - as_
        ay = y / self.dy
        j0 = ay.astype(int)  # the floor: y >= 0
        ay -= j0
        by = 1 - ay
        # a y just below strip can round up to cell n_y, which is cell 0
        np.subtract(j0, n_y, out=j0, where=j0 >= n_y)
        j1 = j0 + 1
        np.subtract(j1, n_y, out=j1, where=j1 >= n_y)
        # flat indices of the four corners; one 1-d take each is cheaper
        # than 2-d fancy indexing
        i0 *= n_y
        k00 = np.add(j0, i0, out=j0)
        k01 = np.add(j1, i0, out=j1)
        k10 = np.add(k00, n_y, out=i0)
        corners = ((k10, as_, by), (k01, bs, ay), (k01 + n_y, as_, ay))
        out = np.empty((len(js),) + fs.shape)
        term = np.empty(fs.shape)
        for column, index in zip(out, js):
            # W00 (1 - a_s)(1 - a_y) + W10 a_s (1 - a_y) + ..., in that order;
            # mode "clip" takes without a buffer, and every index is in range
            Wv = self.windows[index].ravel()
            Wv.take(k00, out=column, mode="clip")
            column *= bs
            column *= by
            for k, weight_s, weight_y in corners:
                Wv.take(k, out=term, mode="clip")
                term *= weight_s
                term *= weight_y
                column += term
            column[outside] = 0.0
        return np.moveaxis(out, 0, -1)

    def exact_cumulant(self, n: int, j: int = 0) -> float:
        """The ``n``-th cumulant of the pairing with ``eta_j``, for ``n >= 1``.

        Campbell's formula gives ``mu E[a^n] int W_j^n``; the integral is the
        grid's cell sum.  The power is taken by multiplication: numpy's ``W
        ** 3`` and ``W ** 4`` take a slow path for negative entries, 24 ms
        each on the eps = 0.05 window (1,041 x 320) on a 2-vCPU x86 host,
        against under 1 ms.
        """
        _check_count("n", n)
        if n < 1:
            raise ValueError(f"cumulant order must be at least 1, got {n!r}")
        Wn = functools.reduce(np.multiply, [self.windows[j]] * n)
        return self.model.mu * self.model.mark_moment(n) * float(np.sum(Wn) * self.ds * self.dy)


def sample_pairings(windows: PairingWindows, n_samples: int, seed: int) -> np.ndarray:
    """Matrix of pairings ``zeta_eps(eta_j)`` over independent cloud draws.

    The model and the scale are those the windows were built for.  Row
    ``i`` is one cloud on ``[s_grid[0], s_grid[-1]] x [0, strip)``.
    The random stream holds the ``n_samples`` Poisson point counts first,
    then, point by point in row order, the point's uniforms: ``s``, ``y``
    and, when the model has more than one mark, the mark's.  Rows are
    processed in blocks of whole rows holding at most :data:`POINT_BLOCK`
    points (always at least one row), so the block size sets the memory
    used and never the numbers.  Each block makes one
    :meth:`PairingWindows.interpolate` call for all windows, which finds
    the points' cells and weights once and shares them across the windows.
    Column ``j`` is centred by ``windows.exact_cumulant(1, j)``.

    In cache-sized blocks the sampling faults almost no pages: a steady
    :func:`clt_check` round of the ``clt`` benchmark (eps down to 0.05,
    4,000 samples) took about 10,500 minor faults with blocks of 2^16
    points and passes of 128 window rows, and about 3,960 with 2^14 and 32;
    the rest are the eps = 0.05 windows and the powers of
    :meth:`PairingWindows.exact_cumulant`, both allocated anew each round.
    """
    _check_count("n_samples", n_samples)
    model = windows.model
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0xC10D]))
    s_lo, s_hi = windows.s_grid[0], windows.s_grid[-1]
    lam = model.mu * (s_hi - s_lo) * windows.strip
    one_mark = len(model.marks) == 1
    n_eta = len(windows.windows)
    means = np.array([windows.exact_cumulant(1, j) for j in range(n_eta)])

    counts = rng.poisson(lam, n_samples)
    ends = np.cumsum(counts)
    out = np.empty((n_samples, n_eta))
    start = 0
    while start < n_samples:
        first = int(ends[start - 1]) if start else 0
        stop = max(start + 1, int(np.searchsorted(ends, first + POINT_BLOCK, "right")))
        u = rng.random((int(ends[stop - 1]) - first, 2 if one_mark else 3))
        s = s_lo + (s_hi - s_lo) * u[:, 0]
        y = windows.strip * u[:, 1]
        a = model.marks[0][1] if one_mark else model._marks_at(u[:, 2])
        # reduceat over the rows that hold points: their offsets increase strictly
        filled = counts[start:stop] > 0
        offsets = (ends[start:stop] - counts[start:stop] - first)[filled]
        sums = np.zeros((stop - start, n_eta))
        values = windows.interpolate(tuple(range(n_eta)), s, y)
        for j in range(n_eta):
            sums[filled, j] = np.add.reduceat(a * values[:, j], offsets)
        out[start:stop] = sums - means
        start = stop
    return out


# ---------------------------------------------------------------------------
# Empirical cumulants
# ---------------------------------------------------------------------------

def _k_statistic(x: np.ndarray, order: int) -> float:
    n = len(x)
    mean = x.mean()
    d = x - mean
    m2 = np.mean(d ** 2)
    if order == 1:
        return float(mean)
    if order == 2:
        return float(n / (n - 1) * m2)
    if order == 3:
        m3 = np.mean(d ** 3)
        return float(n * n * m3 / ((n - 1) * (n - 2)))
    if order == 4:
        m4 = np.mean(d ** 4)
        return float(
            n * n * ((n + 1) * m4 - 3 * (n - 1) * m2 ** 2)
            / ((n - 1) * (n - 2) * (n - 3))
        )
    raise ValueError("cumulant estimates implemented for orders 1..4")


def _check_batchable(n_samples: int) -> None:
    if n_samples < 100:
        raise ValueError("need at least 100 samples")


def _batch_means(x: np.ndarray, statistic: Callable):
    """``statistic`` of the rows of ``x`` and its batch-means standard error
    over 20 consecutive batches of ``len(x) // 20`` rows."""
    n_batches = 20
    _check_batchable(len(x))
    batch = len(x) // n_batches
    stack = np.stack([statistic(x[i * batch: (i + 1) * batch]) for i in range(n_batches)])
    return statistic(x), stack.std(axis=0, ddof=1) / math.sqrt(n_batches)


def empirical_cumulants(samples: np.ndarray, order: int) -> tuple[float, float]:
    """k-statistic cumulant estimate and its batch-means standard error."""
    x = np.asarray(samples, dtype=float).ravel()
    if order > 4:
        raise ValueError("cumulant estimates implemented up to order 4")
    value, stderr = _batch_means(x, lambda b: _k_statistic(b, order))
    return value, float(stderr)


def joint_second_cumulants(samples: np.ndarray):
    """Covariance matrix of pairing columns with batch-means errors."""
    x = np.asarray(samples, dtype=float)
    k = x.shape[1]
    return _batch_means(x, lambda b: np.cov(b, rowvar=False, ddof=1).reshape(k, k))


# ---------------------------------------------------------------------------
# Test functions and the empirical central-limit report
# ---------------------------------------------------------------------------

def make_test_functions(
    t_window: tuple[float, float] = (0.02, 0.18)
) -> tuple[Callable, Callable]:
    """L2-orthonormal smooth pair, by construction: an L2-normalised time bump
    times ``sqrt(2)`` cos / sin of ``2 pi x``."""
    t_lo, t_hi = t_window
    if not -math.inf < t_lo < t_hi < math.inf:
        raise ValueError(f"t_window must be finite and increasing, got {t_window}")
    mid = 0.5 * (t_lo + t_hi)
    half = 0.5 * (t_hi - t_lo)
    amp = 1.0 / math.sqrt(_BUMP_SQUARE_MASS * half)

    def f(t):
        return amp * smooth_bump((np.asarray(t) - mid) / half)

    def eta_cos(t, x):
        return f(t) * math.sqrt(2.0) * np.cos(2 * math.pi * np.asarray(x))

    def eta_sin(t, x):
        return f(t) * math.sqrt(2.0) * np.sin(2 * math.pi * np.asarray(x))

    return eta_cos, eta_sin


def clt_check(
    model: PoissonNoiseModel,
    eps_list: Sequence[float],
    n_samples: int = 10_000,
    seed: int = 7,
    t_window: tuple[float, float] = (0.02, 0.18),
) -> dict:
    """Empirical central-limit report for the rescaled field.

    At the smallest scale the covariance of the pairings against the
    orthonormal pair of :func:`make_test_functions` is compared, within
    three batch-means standard errors, with its Gram matrix, the identity
    (the report's ``gram``).  Across the scale list the third and fourth
    cumulants of the first test function are compared with their exact
    values, and the decay exponent of the exact fourth cumulant decides the
    verdict: ``kappa_n ~ eps^{3n/2 - 3}``, so 3 for ``n = 4``.  The bump's
    smoothing corrects ``kappa_4`` at order ``eps^2`` (``kappa_4 / eps^3``
    is 12.41, 14.38, 14.76 and 14.85 on the even model at eps = 0.2, 0.1,
    0.05 and 0.025), so ``log kappa_4`` is fitted on ``(1, log eps,
    eps^2)``, which needs at least three distinct scales; a plain log-log
    slope gives 2.79 on (0.2, 0.1).

    The third cumulant cannot decide it.  The first test function is a time
    bump times ``cos(2 pi x)``, so each window row ``W(s, .)`` is a smoothed
    cosine over whole periods of the strip, and ``int cos^3`` over a period
    vanishes: the exact ``kappa_3 = mu E[a^3] int W^3`` is zero up to
    rounding.  The exact ``kappa_4 = mu E[a^4] int W^4`` is strictly
    positive.  One set of windows is built per scale; the finest scale's
    first window serves both the covariance and the cumulant draws.
    """
    _check_count("n_samples", n_samples)
    _check_batchable(n_samples)
    if len(set(eps_list)) < 3:
        raise ValueError(f"need at least 3 distinct scales, got {list(eps_list)}")
    etas = make_test_functions(t_window)
    gram = np.eye(len(etas))

    eps_fine = min(eps_list)
    windows = PairingWindows(model, eps_fine, etas, t_window)
    pairings = sample_pairings(windows, n_samples, seed)
    cov, cov_err = joint_second_cumulants(pairings)

    orders = (3, 4)
    rows = {n: [] for n in orders}
    for i, eps in enumerate(sorted(eps_list, reverse=True)):
        # sample_pairings draws the same cloud whatever the number of
        # windows, so column 0 matches windows built for eta_cos alone
        w = windows if eps == eps_fine else PairingWindows(model, eps, etas[:1], t_window)
        draws = sample_pairings(w, max(200, n_samples // 10), seed + 1 + i)
        for n in orders:
            exact = w.exact_cumulant(n, 0)
            estimate, stderr = empirical_cumulants(draws[:, 0], n)
            rows[n].append({
                "eps": eps,
                "exact": exact,
                "empirical": estimate,
                "stderr": stderr,
                "consistent": bool(abs(estimate - exact) <= 3.0 * stderr),
            })

    eps_arr = np.array([row["eps"] for row in rows[4]])
    k4 = np.array([row["exact"] for row in rows[4]])
    design = np.stack([np.ones_like(eps_arr), np.log(eps_arr), eps_arr ** 2], axis=1)
    slope = np.linalg.lstsq(design, np.log(k4), rcond=None)[0][1]

    report = {
        "eps_fine": eps_fine,
        "n_samples": n_samples,
        "covariance": cov.tolist(),
        "covariance_stderr": cov_err.tolist(),
        "gram": gram.tolist(),
        "covariance_ok": bool(np.all(np.abs(cov - gram) <= 3.0 * cov_err + 1e-12)),
        "third_cumulant": rows[3],
        "fourth_cumulant": rows[4],
        "fourth_cumulant_exponent": float(slope),
    }
    report["verdict"] = bool(
        report["covariance_ok"]
        and abs(report["fourth_cumulant_exponent"] - 3.0) <= 0.2
    )
    return report
