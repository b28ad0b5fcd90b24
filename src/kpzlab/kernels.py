"""Truncated heat kernel and the renormalisation constants.

The kernel agrees with the heat kernel inside the parabolic ball of radius
``PLATEAU`` = 1/2, is supported in the ball of radius ``SUPPORT`` = 1
(forward in time), and carries a smooth even correction in the annulus,
clipped by a mask of step widths ``MASK_IN``, ``MASK_OUT`` and ``MASK_T``
and tuned so that integrals against ``{1, t, x^2}`` vanish (``x`` vanishes
by parity).  This geometry is fixed: every step of the build assumes it.

Every renormalisation constant is a space-time graph integral: products of
differentiated-kernel edges and covariance/cumulant insertions.  For the
Poisson noise model each cumulant insertion unfolds, by the Campbell
formula, into bump legs; after integrating each leg variable by parts the
leg becomes a bounded kernel, and after rescaling every integration
variable parabolically all powers of the scale come out in closed form.
What remains is a fixed-dimensional integral evaluated by importance
sampling from exactly-known parabolic proposal densities.  Every leg is
read from a tabulated bump-smeared kernel (``LegTable``), so the legs add
no noise to the estimates.
"""

from __future__ import annotations

import functools
import math
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from .noise import (PoissonNoiseModel, smooth_bump, smooth_bump_dx, _check_count,
                    _check_scale, _gauss_legendre)

__all__ = [
    "parabolic_norm",
    "TruncatedKernel",
    "build_truncated_kernel",
    "Diagram",
    "DIAGRAMS",
    "evaluate_diagram",
    "compute_constant",
    "chat_fixed_point",
    "c0_exact_limit",
]


def parabolic_norm(t, x):
    """The anisotropic norm ``(t^2 + x^4)^(1/4)``.

    ``x^4`` is taken as ``(x^2)^2``: numpy's ``x ** 4`` takes a slow path
    for negative ``x``, about 85 ns a point on a 2-vCPU x86 host against 8.
    """
    t = np.asarray(t, dtype=float)
    x2 = np.square(np.asarray(x, dtype=float))
    return (t * t + x2 * x2) ** 0.25


#: Below this ``exp(-1/v)`` underflows to exactly 0, and so do the step and
#: its derivative: the steps' band starts here.
_STEP_FLOOR = 1 / 745.14


def _smooth_step(v, slope=False):
    """C-infinity step ``a / (a + b)``, ``a = exp(-1/v)``, ``b = exp(-1/(1-v))``.

    The result is exactly 0.0 for ``v <= _STEP_FLOOR`` and exactly 1.0 for
    ``v >= 1``, so the exponentials are taken only between; NaN stays NaN.
    With ``slope``, also returns the derivative from the same band and the
    same two exponentials: exactly 0.0 off (``_STEP_FLOOR``, 1) and at NaN.
    """
    v = np.asarray(v, dtype=float)
    flat = v.ravel()
    out = (flat >= 1).astype(float)
    band = np.flatnonzero(~((flat <= _STEP_FLOOR) | (flat >= 1)))  # NaN is in it
    u = flat[band]
    a = np.exp(-1.0 / u)
    b = np.exp(-1.0 / (1.0 - u))
    out[band] = a / (a + b)
    if not slope:
        return out.reshape(v.shape)
    ap = a / u ** 2
    bp = -b / (1.0 - u) ** 2
    d = np.zeros(flat.shape)
    d[band] = np.where(np.isnan(u), 0.0, (ap * b - a * bp) / (a + b) ** 2)
    return out.reshape(v.shape), d.reshape(v.shape)


#: The parabolic radii of the cutoff: the kernel is the heat kernel where
#: ``rho <= PLATEAU`` and vanishes where ``rho >= SUPPORT``.
PLATEAU = 0.5
SUPPORT = 1.0
#: Widths of the correction mask's inner, outer and small-time steps.
MASK_IN = 0.010
MASK_OUT = 0.012
MASK_T = 0.008
#: Powers ``(p, q)`` of the touch-up terms ``t^p x^(2q)``.
TOUCH_UP_POWERS = (
    (0, 0), (1, 0), (2, 0), (3, 0),
    (0, 1), (1, 1), (2, 1),
    (0, 2), (1, 2),
    (0, 3),
)
#: The annulus shape's spline is padded with zeros out to ``t``, ``|x| =
#: SHAPE_BOX``; the kernel's support lies inside this box.
SHAPE_BOX = 1.02


def _chi(rho, slope=False):
    """The cutoff: 1 for ``rho <= PLATEAU``, 0 for ``rho >= SUPPORT``; with
    ``slope``, also its derivative in ``rho``."""
    got = _smooth_step((SUPPORT - rho) / (SUPPORT - PLATEAU), slope)
    if not slope:
        return got
    return got[0], -got[1] / (SUPPORT - PLATEAU)


def _cut_heat_dx(t, x, rho):
    """Space derivative of the cut heat kernel ``G * chi(rho)`` at ``t > 0``.

    ``G`` and ``d_x G`` share one Gaussian.  ``x^3`` is taken as
    ``x * x * x``: numpy's ``x ** 3`` takes a slow path for negative ``x``,
    about 70 ns a point on a 2-vCPU x86 host against 1.
    """
    with np.errstate(over="ignore"):
        slope = -x / (2 * t)
        gauss = np.exp(-x ** 2 / (4 * t))
    slope = np.where(np.isinf(slope), 0.0, slope)  # where the Gaussian is 0
    root = np.sqrt(4 * math.pi * t)
    rr = np.where(rho > 0, rho, 1.0)  # rho is 0 where t * t and x^4 underflow
    cut, cut_d = _chi(rho, slope=True)
    return slope * gauss / root * cut + gauss / root * cut_d * (x * x * x / rr ** 3)


def _is_tensor_grid(t, x):
    """A column ``t`` of shape (n, 1) and a row ``x`` of shape (1, m), in any order."""
    return t.ndim == 2 and x.ndim == 2 and t.shape[1] == 1 and x.shape[0] == 1


def _defined(t, x):
    """``t`` and ``x`` as float arrays; NaN raises ``ValueError``."""
    t = np.asarray(t, dtype=float)
    x = np.asarray(x, dtype=float)
    if np.isnan(t).any() or np.isnan(x).any():
        raise ValueError("the kernel is not defined at NaN t or x")
    return t, x


def _on_live_points(t, x, f):
    """``f(t, x, rho)`` at the live points, and 0 elsewhere.

    The inputs are broadcast and flattened, and ``f`` takes only the points
    with ``t > 0`` and ``rho < SUPPORT``: every part of the kernel is
    exactly 0 elsewhere.  So an infinite ``t`` or ``x`` gives 0.
    """
    tt, xx = np.broadcast_arrays(t, x)
    shape = tt.shape
    tt, xx = tt.ravel(), xx.ravel()
    with np.errstate(over="ignore"):  # rho = inf is off the support
        rho = parabolic_norm(tt, xx)
    live = np.flatnonzero((tt > 0) & (rho < SUPPORT))
    out = np.zeros(rho.size)
    out[live] = f(tt[live], xx[live], rho[live])
    return out.reshape(shape)


def _on_support(t, x, f):
    """``f(t, x, rho)`` where the kernel can be non-zero, and 0 elsewhere,
    for an ``f`` even in x down to the last bit.

    On a tensor grid (see ``_is_tensor_grid``) the support block is the rows
    with ``0 < t < SUPPORT^2`` and the columns with ``|x| < SUPPORT``, and
    ``f`` takes its rows as a column and each distinct ``|x|`` among its
    columns once, as a sorted row; the result is copied back to every
    column.  Any other input goes to ``_on_live_points``.  Either way ``f``
    sees only points inside ``SHAPE_BOX``.  NaN raises ``ValueError``.
    """
    t, x = _defined(t, x)
    if not _is_tensor_grid(t, x):
        return _on_live_points(t, x, f)
    rows = (t[:, 0] > 0) & (t[:, 0] < SUPPORT ** 2)
    cols = np.flatnonzero(np.abs(x[0]) < SUPPORT)
    out = np.zeros((len(rows), x.shape[1]))
    if rows.any() and cols.size:
        mags, back = np.unique(np.abs(x[0, cols]), return_inverse=True)
        tb, xb = t[rows], mags[None, :]
        out[np.ix_(rows, cols)] = f(tb, xb, parabolic_norm(tb, xb))[:, back]
    return out


@dataclass(frozen=True)
class TruncatedKernel:
    """Compactly supported kernel agreeing with the heat kernel near 0.

    The annulus correction has two parts: a smooth tabulated shape (the
    energy-optimal annulus content, a bicubic spline padded with zeros out
    to the box ``SHAPE_BOX``, clipped by the mask) and a small polynomial touch-up,
    one coefficient of ``corrections`` per term of ``TOUCH_UP_POWERS``,
    enforcing the moment identities exactly.

    ``value`` is the kernel and ``dx`` its space derivative, the edge kernel
    of every graph integral.  Support: with ``rho`` the parabolic norm, both
    are exactly 0 where ``t <= 0`` (the heat kernel and the mask's time step
    vanish) or ``rho >= SUPPORT`` (the cutoff and the mask's outer step
    vanish); the correction is exactly 0 where ``rho <= PLATEAU`` as well.
    ``value`` and ``correction``, even in x down to the last bit, each hand
    one formula in ``(t, x, rho)`` to ``_on_support``, which evaluates it on
    a tensor grid's support block once per distinct ``|x|``, or else on the
    live points only, and gives 0 elsewhere.  ``dx``, odd in x, hands its
    formula to ``_on_live_points`` for any input, and adds the correction's
    derivative only on its live points with ``rho > PLATEAU``.  The shape is
    read only there.  Each smooth step of the cutoff and the mask is taken
    once per point: with ``slope``, ``_smooth_step`` returns the step's
    derivative from the same exponentials, and ``_chi`` and ``_mask_parts``
    pass the flag through.
    """

    corrections: tuple[float, ...]
    #: the annulus shape: the not-a-knot bicubic spline through the
    #: quadratic program's solution on the symmetrised grid, with blocks
    #: for ``x >= 0``
    shape: "_BlockSpline"

    # -- the annulus mask ---------------------------------------------------
    @staticmethod
    def _mask_parts(t, rho, slope=False):
        """The mask's inner, outer and small-time steps; the last is taken of
        the unbroadcast ``t``, so a tensor grid pays for one column of it.
        With ``slope``, also the inner and outer steps' derivatives in
        ``rho``, each from the same call as its step."""
        a = _smooth_step((rho - PLATEAU) / MASK_IN, slope)
        b = _smooth_step((SUPPORT - rho) / MASK_OUT, slope)
        c = _smooth_step(t / MASK_T)
        if not slope:
            return a, b, c
        return a[0], b[0], c, a[1] / MASK_IN, -b[1] / MASK_OUT

    # -- the annulus shape ---------------------------------------------------
    def _shape_eval(self, t, x, dx=False):
        """The annulus shape (with ``dx``, also its x-derivative) at support
        points that ``_on_support`` has picked.

        The shape's cell blocks cover ``x >= 0`` (151 x 220 cells, 4.3 MB),
        and every input is read through ``|x|`` and the shape's evenness.
        A 2-D input is a tensor grid's support block, read by the blocks'
        separable grid evaluation, about 1 ms for a 32 x 2,860 block on a
        2-vCPU x86 host.  A 1-D input is read point by point: the shape and
        its x-derivative together take about 0.2 us a point.
        """
        if t.ndim == 2:
            return self.shape.grid(t[:, 0], np.abs(x[0]))
        got = self.shape(t, np.abs(x), dx)
        return (got[0], got[1] * np.sign(x)) if dx else got

    # -- the correction --------------------------------------------------------
    @functools.cached_property
    def _touch_up_tables(self) -> tuple[np.ndarray, np.ndarray]:
        """The touch-ups' coefficients ``c[q, p]`` of ``t^p x^(2q)``, and those
        of their x-derivative over x, ``2 (q + 1) c[q + 1, p]``."""
        c = np.zeros((1 + max(q for _, q in TOUCH_UP_POWERS),
                      1 + max(p for p, _ in TOUCH_UP_POWERS)))
        for coeff, (p, q) in zip(self.corrections, TOUCH_UP_POWERS):
            c[q, p] = coeff
        return c, 2 * np.arange(1, len(c))[:, None] * c[1:]

    @staticmethod
    def _touch_ups(t, x, table):
        """``sum_q (sum_p table[q, p] t^p) x^(2q)`` by Horner's rule in t and
        in x^2.  The inner sums are taken of the unbroadcast t, so a tensor
        grid pays for one column of them, and the full-size sum is updated in
        place."""
        x2 = x * x
        total = np.zeros(np.broadcast(t, x).shape)
        for row in table[::-1]:
            total *= x2
            total += np.polynomial.polynomial.polyval(t, row)
        return total

    def _correction_at(self, t, x, rho):
        """The correction at ``t``, ``x`` of parabolic norm ``rho``; its
        full-size temporaries are updated in place."""
        mask, b, c = self._mask_parts(t, rho)
        mask *= b
        mask *= c
        total = self._shape_eval(t, x)
        total += self._touch_ups(t, x, self._touch_up_tables[0])
        total *= mask
        return total

    def correction(self, t, x):
        return _on_support(t, x, self._correction_at)

    def _correction_dx_at(self, t, x, rho):
        """The correction's x-derivative at ``t``, ``x`` of parabolic norm ``rho``."""
        table, table_dx = self._touch_up_tables
        poly, poly_dx = self._shape_eval(t, x, dx=True)
        poly += self._touch_ups(t, x, table)
        poly_dx += x * self._touch_ups(t, x, table_dx)
        a, b, c, da, db = self._mask_parts(t, rho, slope=True)
        rr = np.where(rho > 0, rho, 1.0)
        mask_dx = (da * b + a * db) * c * (x * x * x / rr ** 3)
        return poly_dx * (a * b * c) + poly * mask_dx

    def value(self, t, x):
        """The kernel, with one parabolic norm for the cutoff and the mask.

        At tiny ``t`` the Gaussian's exponent may overflow to -inf; the
        Gaussian is then exactly 0, and so is the kernel: no value is NaN.
        """
        def formula(t, x, rho):
            with np.errstate(over="ignore"):
                heat = np.exp(-x ** 2 / (4 * t))
            heat /= np.sqrt(4 * math.pi * t)
            heat *= _chi(rho)
            heat += self._correction_at(t, x, rho)
            return heat

        return _on_support(t, x, formula)

    def dx(self, t, x):
        """Space derivative (the edge kernel of all the graph integrals).

        The correction's part is taken only where also ``rho > PLATEAU``;
        its shape and x-derivative are read together from the shape's cell
        blocks.
        """
        def formula(t, x, rho):
            out = _cut_heat_dx(t, x, rho)
            ring = rho > PLATEAU
            out[ring] += self._correction_dx_at(t[ring], x[ring], rho[ring])
            return out

        return _on_live_points(*_defined(t, x), formula)


def _plateau_moments():
    """Integrals of the cut heat kernel against {1, t, x^2}.

    Written as the closed-form moments of the full heat kernel on the unit
    time interval minus the smooth deficit ``int G (1 - chi) Q``; near the
    time origin the deficit integrand vanishes faster than any power, so
    panelled Gauss quadrature is accurate to near machine precision.
    """
    closed = np.array([1.0, 0.5, 1.0])  # moments of G*1_{0<t<1} for {1,t,x^2}
    deficit = np.zeros(3)
    t_edges = np.concatenate([[0.0], np.geomspace(1e-3, 1.0, 25)])
    x_edges = [0.0, 0.3, 0.6, 0.9, 1.2, 2.0, 4.0, 8.0, 14.0]
    for tlo, thi in zip(t_edges[:-1], t_edges[1:]):
        tg, wt = _gauss_legendre(30, tlo, thi)
        for xlo, xhi in zip(x_edges[:-1], x_edges[1:]):
            xg, wx = _gauss_legendre(30, xlo, xhi)
            tt = tg[:, None]
            xx = xg[None, :]
            g = np.exp(-xx ** 2 / (4 * tt)) / np.sqrt(4 * math.pi * tt)
            omc = 1.0 - _chi(parabolic_norm(tt, xx))
            base = 2.0 * g * omc * wt[:, None] * wx[None, :]  # even in x
            deficit[0] += np.sum(base)
            deficit[1] += np.sum(base * tt)
            deficit[2] += np.sum(base * xx ** 2)
    return closed - deficit


def _optimal_annulus_shape(target, nt: int = 150, nx: int = 220) -> "_BlockSpline":
    """Energy-optimal annulus content as a bicubic spline.

    Minimises ``int (d_x K)^2`` over corrections supported in the annulus,
    subject to the three moment constraints (the correction's moments are
    ``target``, the negated plateau moments), by a finite-difference
    quadratic program on the ``nt`` x ``nx`` cells of ``x >= 0``; the
    discrete solution is interpolated on a symmetrised grid.  Evenness in
    space is built in through the reflection at x = 0.

    Each difference joins two x-neighbours of one time slice, so the
    program's matrix Q is one tridiagonal block per slice, and a cell
    outside the annulus stands as an identity row.  One Thomas sweep along
    x, over all slices at once, gives ``Q^-1 [-b, L^T]``; the constraints'
    multipliers then solve a 3 x 3 Schur complement.
    """
    t_cells = (np.arange(nt) + 0.5) / nt
    x_cells = (np.arange(nx) + 0.5) * 1.01 / nx
    dt_c = 1.0 / nt
    dx_c = x_cells[1] - x_cells[0]
    T, X = np.meshgrid(t_cells, x_cells, indexing="ij")
    rho = parabolic_norm(T, X)
    # solve on a slightly shrunken annulus so the support mask barely bites
    allowed = (rho > PLATEAU + MASK_IN) & (rho < SUPPORT - MASK_OUT) & (T > MASK_T)

    # One difference per cell edge between x cells j and j + 1 with an
    # allowed cell on either side; a cell outside the annulus is 0.  The
    # edge at x = 0 is the even reflection and carries no derivative
    # penalty; the last cell's outer edge has no right neighbour.
    w = 2.0 * dt_c * dx_c  # the weight of each edge and of each cell
    scale = w / dx_c ** 2
    diag = np.where(allowed, scale, 1.0)
    diag[:, 1:] += np.where(allowed[:, 1:], scale, 0.0)
    off = np.where(allowed[:, 1:] & allowed[:, :-1], -scale, 0.0)  # (j, j + 1)
    te, xe = t_cells[:, None], (x_cells + dx_c / 2)[None, :]
    a = _cut_heat_dx(te, xe, parabolic_norm(te, xe))  # d_x of the cut heat kernel per edge
    b = -a
    b[:, 1:] += a[:, :-1]
    b *= w / dx_c
    L = w * np.stack([np.ones_like(T), T, X ** 2]) * allowed
    rhs = np.concatenate([-np.where(allowed, b, 0.0)[None], L]).T  # (nx, nt, 4)
    zero = np.zeros((nt, 1))
    sol = _thomas(np.hstack([zero, off]).T[..., None], diag.T[..., None],
                  np.hstack([off, zero]).T[..., None], rhs).T
    free, per_row = sol[0], sol[1:]  # Q^-1 (-b) and Q^-1 L^T
    schur = np.einsum("kij,lij->kl", L, per_row)
    lam = np.linalg.solve(schur, np.einsum("kij,ij->k", L, free) - target)
    values = free - np.einsum("k,kij->ij", lam, per_row)

    # pad with explicit zeros and mirror in x so the interpolant is even
    t_grid = np.concatenate([[-0.02, 0.0], t_cells, [1.0, SHAPE_BOX]])
    x_grid = np.concatenate([[-SHAPE_BOX], -x_cells[::-1], x_cells, [SHAPE_BOX]])
    data = np.zeros((nt + 4, 2 * nx + 2))
    data[2:-2, nx + 1:-1] = values
    data[2:-2, 1:nx + 1] = values[:, ::-1]
    return _BlockSpline(t_grid, x_grid, data, x_from=0.0)


def _thomas(lower, diag, upper, rhs):
    """Solve tridiagonal systems along axis 0 by the Thomas algorithm, in
    place: the float array ``rhs`` becomes the solution ``y``.

    Row ``i`` reads ``lower[i] y[i-1] + diag[i] y[i] + upper[i] y[i+1] =
    rhs[i]``; the coefficients broadcast against ``rhs``, whose trailing
    axes are independent systems.  There is no pivoting: the annulus
    program's blocks are positive definite, and the not-a-knot systems are
    diagonally dominant apart from their end rows.
    """
    y = rhs
    pivots = [diag[0]]
    for i in range(1, len(y)):
        f = lower[i] / pivots[-1]
        pivots.append(diag[i] - f * upper[i - 1])
        y[i] -= f * y[i - 1]
    y[-1] /= pivots[-1]
    for i in range(len(y) - 2, -1, -1):
        y[i] -= upper[i] * y[i + 1]
        y[i] /= pivots[i]
    return y


def _knot_cells(shape: "_BlockSpline", n_sub: int):
    """Gauss nodes and weights on the knot cells of the annulus shape.

    Returns ``(tmid, twgt, xmid, xwgt)``: an ``n_sub``-point rule on every
    cell between consecutive knots of the shape's blocks, in t over the
    whole knot span and in x from 0 (the kernel is even in x) to the last
    knot: 151 x 220 cells of the 150 x 220 program.  Each cell carries one
    polynomial piece of the spline, so only the mask limits the accuracy.
    There is no knot at x = 0: the first x cell is the positive half of the
    piece that straddles it.
    """
    g, w = _gauss_legendre(n_sub, 0.0, 1.0)

    def cells(knots):
        width = np.diff(knots)[:, None]
        return (knots[:-1, None] + width * g).ravel(), (width * w).ravel()

    xk = shape.x_knots
    return cells(shape.t_knots) + cells(np.concatenate([[0.0], xk[xk > 0.0]]))


#: t nodes per tensor-grid block of the knot-cell quadrature.  Each full-size
#: temporary of a 32 x 2,860 block takes 0.73 MB, within a 2 MB L2 cache.  At
#: 256 rows it took 5.9 MB, the build was 20-40 % slower on a 2-vCPU x86
#: host, and OpenBLAS split each block's contraction over its threads, which
#: changed the touch-up coefficients' last bits with the thread count; at 32
#: and 64 rows they are the same under 1, 2 and 4 threads.  glibc serves an
#: array from a mapping of its own, faulted in anew each time, unless it is
#: below the largest such array yet freed, and hands the top of its heap
#: back to the system once that reaches twice this size; the build takes
#: 8,300 page faults at 32 rows and 9,800 at 64.
KNOT_CELL_BLOCK = 32


def _touch_up_system(shape, cells):
    """The masked shape's moments and the touch-up matrix, in one walk.

    Returns the moments against ``{1, t, x^2}`` of the correction with no
    touch-up, and the (3, len(TOUCH_UP_POWERS)) moments of the masked
    touch-up terms ``t^p x^(2q)``.  Each tensor grid of ``KNOT_CELL_BLOCK``
    t nodes evaluates the mask and the shape once for both, and each
    product, even in x, is contracted with the doubled x weights times the
    even powers of x.  The knot cells lie within the shape's knots, and the
    mask is exactly 0 off the kernel's support.
    """
    tmid, twgt, xmid, xwgt = cells
    proj = (2.0 * xwgt)[:, None] * xmid[:, None] ** (
        2 * np.arange(max(q for _, q in TOUCH_UP_POWERS) + 2))
    plain_proj = np.ascontiguousarray(proj[:, :2])
    plain, touch_up = [], []
    for i in range(0, len(tmid), KNOT_CELL_BLOCK):
        t = tmid[i:i + KNOT_CELL_BLOCK, None]
        a, b, c = TruncatedKernel._mask_parts(t, parabolic_norm(t, xmid[None, :]))
        mask = a * b * c
        plain.append((shape.grid(t[:, 0], xmid) * mask) @ plain_proj)
        touch_up.append(mask @ proj)

    def moments(rows, powers):
        rows = np.vstack(rows)
        return np.array([[(twgt * tmid ** p) @ rows[:, q],
                          (twgt * tmid ** (p + 1)) @ rows[:, q],
                          (twgt * tmid ** p) @ rows[:, q + 1]]
                         for p, q in powers]).T

    return moments(plain, ((0, 0),))[:, 0], moments(touch_up, TOUCH_UP_POWERS)


@functools.cache
def build_truncated_kernel() -> TruncatedKernel:
    """Construct the kernel once: cutoff, optimal annulus shape, exact moments.

    The energy-optimal annulus shape nearly annihilates the moments; a
    small polynomial touch-up (solved on exact knot-aligned quadratures of
    the actual interpolated shape) removes the residual exactly, so the
    moment identities hold to quadrature precision.

    The build has three passes: the plateau moments by panelled Gauss
    rules; the annulus quadratic program; and one walk over the 1,963 x
    2,860 knot-cell points, in blocks of ``KNOT_CELL_BLOCK`` t nodes, that
    evaluates the mask and the shape once per block for both the residual
    and the touch-up matrix.  The solve is checked by the residual of the
    system it solved; that the finished kernel's correction reproduces the
    solved moments on the same points is a test.  The mask's steps take
    exponentials only in their thin bands.  The quadratic program is solved
    by a Thomas sweep and a 3 x 3 Schur complement, the shape is fitted by
    one 1-D not-a-knot solve per axis straight into its cell blocks, and
    the blocks are read on tensor grids, all with numpy alone.  On a 2-vCPU
    x86 host the build takes 0.19-0.3 s, under one OpenBLAS thread or two,
    and peaks near 52 MB of resident memory, numpy's import included.
    """
    target = -_plateau_moments()
    shape = _optimal_annulus_shape(target)
    shape_moments, L = _touch_up_system(shape, _knot_cells(shape, 13))
    # the touch-up moments are on the same knot-aligned quadrature as the
    # shape's, so a single linear solve lands the residual
    coeff, *_ = np.linalg.lstsq(L, target - shape_moments, rcond=None)
    if not np.max(np.abs(target - (shape_moments + L @ coeff))) <= 1e-10:
        raise ValueError("moment solve did not converge")
    return TruncatedKernel(tuple(float(c) for c in coeff), shape)


# ---------------------------------------------------------------------------
# Parabolic proposal densities with exactly known pdfs
# ---------------------------------------------------------------------------

# The base density is ``|x| exp(-x^2/4t) / (8 t^{3/2})`` on ``t in (0,1]``
# (exactly the shape of the differentiated heat kernel, normalised); each
# scaled copy is symmetrised in the sign of ``t``.  A flat component on the
# parabolic box of each scale keeps the density bounded away from zero
# wherever the kernels live.  ``evaluate_diagram`` mixes the copies at the
# ``dyadic_scales`` with equal weights.  Both sampling and the density are
# exact, so importance weights are unbiased.

#: Share of each single-scale density spent on the flat component.
FLAT_FRACTION = 0.25


def _sample_single_scale(rng: np.random.Generator, s: np.ndarray) -> np.ndarray:
    """Draw offsets from the single-scale parabolic density, per-sample scales."""
    n = len(s)
    t = rng.random(n) ** 2 * s ** 2
    t *= np.where(rng.random(n) < 0.5, 1.0, -1.0)
    e = rng.exponential(size=n)
    x = np.sqrt(4 * np.abs(t) * e) * np.where(rng.random(n) < 0.5, 1.0, -1.0)
    flat = np.flatnonzero(rng.random(n) < FLAT_FRACTION)
    if len(flat):
        sf = 1.5 * s[flat]
        t[flat] = sf ** 2 * rng.uniform(-1, 1, len(flat))
        x[flat] = sf * rng.uniform(-1, 1, len(flat))
    return np.stack([t, x], axis=1)


def _pdf_scales(pts: np.ndarray, scales: np.ndarray) -> np.ndarray:
    """Density of :func:`_sample_single_scale` at each of ``scales``.

    Returns one row per scale, each of shape ``pts.shape[:-1]``.  The scales
    are powers of two, so ``x / s`` and ``t / s^2`` are exact rescalings and
    the exponent ``x^2 / 4t`` of the parabolic part is the same number at
    every scale: its exponential is taken once per point, and each row is
    the single-scale density bit for bit.
    """
    t = np.abs(pts[..., 0]).ravel()
    ax = np.abs(pts[..., 1]).ravel()
    # the parabolic part is zero off 0 < t <= s^2
    live = np.flatnonzero((t > 0) & (t <= scales[-1] ** 2))
    gauss = np.zeros(t.size)
    gauss[live] = np.exp(-ax[live] * ax[live] / (4 * t[live]))
    rows = np.empty((len(scales), t.size))
    for row, s in zip(rows, scales):
        sf = 1.5 * s
        flat = (t <= sf ** 2) & (ax <= sf)
        np.multiply(flat, FLAT_FRACTION * (1.0 / (4 * sf ** 3)), out=row)
        ok = np.flatnonzero((t > 0) & (t <= s * s))
        tt = t[ok] / s ** 2
        dens = ax[ok] / s * gauss[ok] / (8 * tt ** 1.5)
        row[ok] += (1 - FLAT_FRACTION) * 0.5 * dens / s ** 3
    return rows.reshape((len(scales),) + pts.shape[:-1])


def _mixture_pdf(plan, pos: dict[str, np.ndarray], scales: np.ndarray) -> np.ndarray:
    """Proposal density of ``evaluate_diagram`` at the sampled positions.

    The equal-weight mixture over ``scales`` of the product over the plan's
    variables of the mean over each variable's anchors.
    """
    term = np.full((len(scales), len(pos["0"])), 1.0 / len(scales))
    for var, (first, *others) in plan:
        dens = _pdf_scales(pos[var] - pos[first], scales)
        for a in others:
            dens += _pdf_scales(pos[var] - pos[a], scales)
        dens /= 1 + len(others)
        term *= dens
    return term.sum(axis=0)


def dyadic_scales(eps: float) -> list[float]:
    """Scales 1, 2, 4, ... covering the rescaled kernel support."""
    top = max(1.0, 2.0 / eps)
    n = int(math.ceil(math.log2(top))) + 1
    return [2.0 ** j for j in range(n)]


# ---------------------------------------------------------------------------
# Diagram descriptions of the renormalisation constants
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Diagram:
    """A constant as vertices, directed kernel edges, and cumulant legs.

    Kernel edges ``(end, start)`` contribute ``K'(pos[end] - pos[start])``;
    a blob of order n has a centre variable and n legs, each contributing
    the bump-smeared kernel at ``pos[target] - centre``.

    The sampling ``plan`` lists, for each integration variable, the anchor
    variables whose neighbourhoods carry the integrand's mass.  It is
    derived from the graph: each vertex, in declaration order, is anchored
    at the variables placed before it (``"0"`` first) that share a kernel
    edge or a blob with it, in placement order, so each vertex must share
    one with an earlier variable; then each blob centre ``w{b}`` is
    anchored at its distinct targets, in order.  ``evaluate_diagram``
    divides by the exact density of whatever plan it samples, so any plan
    gives an unbiased estimate; the plan only shapes the variance.
    """

    name: str
    vertices: tuple[str, ...]
    kernel_edges: tuple[tuple[str, str], ...]
    blobs: tuple[tuple[int, tuple[str, ...]], ...]

    @functools.cached_property
    def plan(self) -> tuple[tuple[str, tuple[str, ...]], ...]:
        links = [set(edge) for edge in self.kernel_edges] \
            + [set(targets) for _, targets in self.blobs]
        placed, plan = ["0"], []
        for v in self.vertices:
            plan.append((v, tuple(p for p in placed
                                  if any({v, p} <= link for link in links))))
            placed.append(v)
        return tuple(plan) + tuple((f"w{b}", tuple(dict.fromkeys(targets)))
                                   for b, (_, targets) in enumerate(self.blobs))

    @property
    def eps_power(self) -> float:
        n_blobs = len(self.blobs)
        n_legs = sum(order for order, _ in self.blobs)
        n_vars = len(self.vertices) + n_blobs
        return -3 * n_blobs + 3 * n_vars - 2 * len(self.kernel_edges) - 0.5 * n_legs


DIAGRAMS: dict[str, Diagram] = {
    "C0": Diagram(
        name="C0",
        vertices=(),
        kernel_edges=(),
        blobs=((2, ("0", "0")),),
    ),
    "chat": Diagram(
        name="chat",
        vertices=("y",),
        kernel_edges=(("0", "y"),),
        blobs=((2, ("0", "y")),),
    ),
    "C1": Diagram(
        name="C1",
        vertices=("y",),
        kernel_edges=(("0", "y"),),
        blobs=((3, ("0", "y", "y")),),
    ),
    "C21": Diagram(
        name="C21",
        vertices=("m", "t"),
        kernel_edges=(("0", "m"), ("m", "t")),
        blobs=((2, ("0", "t")), (2, ("t", "m"))),
    ),
    "C22": Diagram(
        name="C22",
        vertices=("m", "t"),
        kernel_edges=(("0", "m"), ("m", "t")),
        blobs=((4, ("m", "0", "t", "t")),),
    ),
    "C31": Diagram(
        name="C31",
        vertices=("l", "r"),
        kernel_edges=(("0", "l"), ("0", "r")),
        blobs=((2, ("l", "r")), (2, ("l", "r"))),
    ),
    "C32": Diagram(
        name="C32",
        vertices=("l", "r"),
        kernel_edges=(("0", "l"), ("0", "r")),
        blobs=((4, ("l", "r", "l", "r")),),
    ),
}


#: Gauss-Legendre nodes per bump axis of the leg table's smearing integral.
LEG_QUAD_NODES = 24


class LegTable:
    """Tabulated bump-smeared kernel ``(K * d_x phi)`` in rescaled units.

    A bicubic spline on a graded grid (step 0.08 out to |t|, |x| = 4, then
    growing by 1.1 per node) of values computed by ``LEG_QUAD_NODES``-point
    Gauss rules in each of the bump's variables s and y.  K vanishes for
    s >= t, so rows after a bump term's time support share one s-rule on the
    whole bump, and rows inside it integrate s over [s_lo, t] only, in
    sigma = sqrt(t - s), where the kernel's small-time peak ``1/sigma`` meets
    ``ds = 2 sigma dsigma``.  After the support each s node makes one kernel
    call, on a tensor grid whose row holds ``x - y`` for every y node, and
    contracts it with the y weights.  The x axis and the y rule are
    symmetric, so for an unsheared term centred at x = 0 the row's columns
    come in mirror pairs, and the kernel reads each pair once (see
    ``_on_support``).  Inside the support each y node evaluates the kernel
    on one sigma column for all support rows, a tensor grid with the x row,
    and unsheared mirrored y nodes are read in pairs, one call for both;
    with a shear the x-shift varies along that column, so it is evaluated
    point by point, with the annulus shape read from its cell blocks.  At
    eps = 0.25 on a 2-vCPU x86 host the build takes about 0.13-0.18 s for
    ``default_even_model``, 0.25-0.3 s for it at shear 0.3, and 0.45-0.55 s
    for ``default_asymmetric_model``, at shear 0 or 0.3.

    Accuracy at eps = 0.25, against a 400-node product rule split at s = t:
    for ``default_even_model`` the probes (0.3, 0.2), (0, 0.3), (-0.3, 0.2)
    and (0.1, 0.1) inside the support are within 0.2 %, and five probes
    after it within 0.7 %.  At the table's nodes the quadrature is within
    0.3 % for both bundled models, sheared or not, wherever the leg exceeds
    1 % of its peak.  Between nodes the spline's step limits the table
    where the leg varies on the bump's scale: inside the support of the
    skew model's bumps (half-width 0.15) points are up to 41 % off, and
    near t = PLATEAU^2 / eps^2 = 4, where the kernel's annulus correction
    switches on and the step has grown to 0.4, up to 6 % (even model) and
    44 % (skew model) off, relative to the leg there.

    ``spline`` is the not-a-knot bicubic interpolant of the node values,
    fitted straight into its cell blocks (``_BlockSpline``, 1.8 MB at eps =
    0.25); ``ev`` reads it there, about 110 ns a point on a 2-vCPU x86 host.

    Raises ``ValueError``, before any work, unless ``eps`` is finite and
    positive and ``shear`` is finite.
    """

    def __init__(self, model: PoissonNoiseModel, kernel: TruncatedKernel,
                 eps: float, shear: float = 0.0):
        _check_scale(eps)
        if not math.isfinite(shear):
            raise ValueError(f"shear must be finite, got {shear!r}")
        t_max = 1.0 / eps ** 2 + model.t_reach + 1.0
        x_max = 1.0 / eps + model.x_reach + 1.0
        t_axis = _graded_axis(4.0, t_max, 0.08, 1.10)
        x_axis = _graded_axis(4.0, x_max, 0.08, 1.10)
        values = _leg_node_values(model, kernel, eps, shear, t_axis, x_axis)
        self.spline = _BlockSpline(t_axis, x_axis, values, x_from=-np.inf)
        self.t_max = t_max
        self.x_max = x_max

    def ev(self, pts: np.ndarray) -> np.ndarray:
        """The spline at ``pts[..., :2] = (t, x)``, zero off the box."""
        t = pts[..., 0].ravel()
        x = pts[..., 1].ravel()
        inside = np.flatnonzero((np.abs(t) <= self.t_max) & (np.abs(x) <= self.x_max))
        out = np.zeros(t.shape)
        out[inside] = self.spline(t[inside], x[inside])
        return out.reshape(pts.shape[:-1])


def _leg_node_values(model: PoissonNoiseModel, kernel: TruncatedKernel, eps: float,
                     shear: float, t_axis: np.ndarray, x_axis: np.ndarray) -> np.ndarray:
    """The leg table's values at the nodes ``t_axis`` x ``x_axis`` (see ``LegTable``)."""
    g, w = _gauss_legendre(LEG_QUAD_NODES, -1.0, 1.0)
    u, wu = _gauss_legendre(LEG_QUAD_NODES, 0.0, 1.0)
    values = np.zeros((len(t_axis), len(x_axis)))
    for term in model.terms:
        s_lo = term.t_center - term.t_halfwidth
        s_hi = term.t_center + term.t_halfwidth
        y_nodes = term.x_center + term.x_halfwidth * g
        y_w = smooth_bump_dx(g) * w  # d/dx of bump((x-c)/h) integrates /h * h
        # rows after the support: one s-rule on the whole bump
        s_nodes = term.t_center + term.t_halfwidth * g
        s_w = smooth_bump(g) * w * term.t_halfwidth * term.amplitude
        after = t_axis >= s_hi
        for sn, sw in zip(s_nodes, s_w):
            # K(t, .) vanishes unless 0 < t < SUPPORT^2 (rho >= sqrt t)
            tt = eps ** 2 * (t_axis - sn)
            rows = after & (tt > 0) & (tt < SUPPORT ** 2)
            # one row of x - y for all y nodes: a tensor grid with the rows
            xs = (x_axis[None, :] - (y_nodes[:, None] + shear * sn)).reshape(1, -1)
            k = kernel.value(tt[rows, None], eps * xs)
            values[rows] += sw * eps * np.einsum(
                "y,ryx->rx", y_w, k.reshape(len(k), len(y_nodes), -1))
        # rows inside the support: s = t - sigma^2 on [s_lo, t]; all rows
        # share one sigma column, so an unsheared call is a tensor grid
        inside = np.flatnonzero((t_axis > s_lo) & (t_axis < s_hi))
        reach = np.sqrt(t_axis[inside] - s_lo)[:, None]
        sigma = reach * u
        s = t_axis[inside, None] - sigma ** 2
        weight = eps * term.amplitude * 2.0 * sigma * reach * wu \
            * smooth_bump((s - term.t_center) / term.t_halfwidth)
        tau = (eps * sigma.reshape(-1, 1)) ** 2
        shift = shear * s.reshape(-1, 1) if shear else 0.0
        # unsheared, the columns x - y_m and x - y_(23-m) of mirrored y nodes
        # hold the same |x| values: one call reads both
        n_y = len(y_nodes)
        mirrored = not shear and np.array_equal(y_nodes, -y_nodes[::-1])
        contr = [None] * n_y
        for m in range((n_y + 1) // 2 if mirrored else n_y):
            pair = [m, n_y - 1 - m] if mirrored and 2 * m < n_y - 1 else [m]
            k = kernel.value(tau, eps * np.hstack([x_axis[None, :] - (y_nodes[i] + shift)
                                                   for i in pair]))
            for i, part in zip(pair, np.hsplit(k, len(pair))):
                contr[i] = np.einsum("rk,rkx->rx", weight,
                                     np.ascontiguousarray(part).reshape(*sigma.shape, -1))
        for yw, c in zip(y_w, contr):
            values[inside] += yw * c
    return values


class _BlockSpline:
    """The bicubic spline interpolating ``values`` on the nodes ``t_nodes`` x
    ``x_nodes``, read from local coefficients, one 4x4 block per knot cell.

    The spline is the not-a-knot interpolant: the knots on each axis are its
    nodes without the second and the second-to-last, as in FITPACK's
    interpolating fit.  It is fitted by one 1-D not-a-knot solve per axis
    (``_not_a_knot_pieces``), first along t and then along x; the nodes and
    values are kept.  Blocks cover every t cell and the x cells from the one
    holding ``x_from`` on (``t_knots`` and ``x_knots`` are their knots);
    points must lie within those cells.  The fit along x solves for the
    slopes at every node but forms the pieces of the kept cells only, and
    writes them straight into the one block array: the annulus shape's
    half-line blocks (151 x 220 cells, 4.3 MB) are not formed at full
    width and copied.

    A call reads flat points: an O(1) cell lookup per axis (``_CellLookup``)
    and a Horner evaluation of the point's block, about 110 ns a point on a
    2-vCPU x86 host; the x-derivative comes from the same gathered
    coefficients.  ``grid`` reads a tensor grid.
    """

    def __init__(self, t_nodes: np.ndarray, x_nodes: np.ndarray, values: np.ndarray,
                 x_from: float):
        self.t_nodes, self.x_nodes, self.values = t_nodes, x_nodes, values
        t_knots, x_knots = (np.delete(nodes, [1, -2]) for nodes in (t_nodes, x_nodes))
        first = max(np.searchsorted(x_knots, x_from, "right") - 1, 0)
        self.t_knots, self.x_knots = t_knots, x_knots[first:]
        self._t_cells = _CellLookup(self.t_knots)
        self._x_cells = _CellLookup(self.x_knots)
        # entry [n, m, i, j] is the coefficient of (t - t_knots[i])^m
        # (x - x_knots[j])^n on cell (i, j); the fit along t gives [m, i, x node]
        along_t = np.empty((4, len(t_knots) - 1, len(x_nodes)))
        _not_a_knot_pieces(t_nodes, values, along_t)
        blocks = np.empty((4, 4, len(t_knots) - 1, len(self.x_knots) - 1))
        _not_a_knot_pieces(x_nodes, np.moveaxis(along_t, 2, 0), blocks.transpose(0, 3, 1, 2))
        self._blocks = blocks.reshape(4, 4, -1)  # cell (i, j) at i * (x cells) + j

    def __call__(self, t: np.ndarray, x: np.ndarray, dx: bool = False):
        """The spline at flat points ``(t, x)``; with ``dx``, also its x-derivative."""
        i, ht = self._t_cells(t)
        j, hx = self._x_cells(x)
        cell = i * len(self._x_cells.left) + j
        # Horner in x for each power of t, then in t; one power of x's
        # coefficients is gathered at a time
        a = np.take(self._blocks[3], cell, axis=1)
        slope = 3.0 * a if dx else None
        a *= hx
        for n in (2, 1):
            b = np.take(self._blocks[n], cell, axis=1)
            a += b
            a *= hx
            if dx:
                slope *= hx
                slope += n * b
        a += np.take(self._blocks[0], cell, axis=1)
        value = ((a[3] * ht + a[2]) * ht + a[1]) * ht + a[0]
        if not dx:
            return value
        return value, ((slope[3] * ht + slope[2]) * ht + slope[1]) * ht + slope[0]

    def grid(self, t: np.ndarray, x: np.ndarray) -> np.ndarray:
        """The spline on the tensor grid of the flat axes ``t`` and ``x``.

        Separable Horner on the blocks of the cells that hold grid nodes:
        along one axis for every node of it and every cell of the other
        axis, then along the other axis.  Each pass gathers whole rows.
        Going along x first costs about ``16 * (t cells) * len(x)``, and
        along t first ``len(t) * (16 * (x cells) + len(x))`` with the
        result's transpose; the cheaper order is taken.  A kernel-build
        block (32 t nodes in up to 4 cells by 2,860 x nodes) goes along x first;
        a leg-table row block (58 t nodes in 47 cells by 1,163 distinct
        ``|x|``) along t first.  The temporaries are one gathered power the
        size of the (len(t), len(x)) result and the first pass's four
        coefficients per node and cell: 0.05M values on a build block
        against its 0.09M results.
        """
        i, ht = self._t_cells(t)
        j, hx = self._x_cells(x)
        t_cells, i = np.unique(i, return_inverse=True)
        x_cells, j = np.unique(j, return_inverse=True)
        blocks = self._blocks.reshape(4, 4, len(self._t_cells.left), -1)
        blocks = blocks[:, :, t_cells[:, None], x_cells]  # (n, m, t cell, x cell)
        if 16 * len(t_cells) * len(x) <= len(t) * (16 * len(x_cells) + len(x)):
            along_x = _horner_rows(blocks.transpose(0, 3, 1, 2), j, hx[:, None, None])
            return _horner_rows(along_x.transpose(1, 2, 0), i, ht[:, None])
        along_t = _horner_rows(blocks.transpose(1, 2, 0, 3), i, ht[:, None, None])
        return _horner_rows(along_t.transpose(1, 2, 0), j, hx[:, None]).T


def _horner_rows(coeffs: np.ndarray, rows: np.ndarray, h: np.ndarray) -> np.ndarray:
    """``sum_k coeffs[k, rows] * h^k`` by Horner's rule, for k < 4, taking
    whole rows of each ``coeffs[k]``; ``h`` broadcasts against the rows."""
    out = np.take(coeffs[3], rows, axis=0)
    for k in (2, 1, 0):
        out *= h
        out += np.take(coeffs[k], rows, axis=0)
    return out


def _not_a_knot_pieces(nodes: np.ndarray, values: np.ndarray, out: np.ndarray) -> None:
    """Local coefficients of the not-a-knot cubic interpolant along axis 0,
    written into ``out``.

    ``values`` holds one column of node values per trailing index.  Entry
    ``[k, i, ...]`` of ``out`` is the coefficient of ``(v - knot)^k`` on the
    i-th of the last ``out.shape[1]`` knot cells, where the knots are the
    nodes without the second and the second-to-last.  The node slopes solve
    the tridiagonal system of C2 continuity with a continuous third
    derivative at the second and second-to-last nodes, over every node; each
    node interval is then a cubic Hermite piece, taken only for the cells
    ``out`` keeps, and the first and last knot cells take the pieces of
    their first node intervals.
    """
    h = np.diff(nodes).reshape((-1,) + (1,) * (values.ndim - 1))
    slope = np.diff(values, axis=0) / h
    # the end rows are the not-a-knot conditions, the others C2 continuity
    reach_0, reach_1 = h[0] + h[1], h[-1] + h[-2]
    lower = np.concatenate([h[:1], h[1:], reach_1[None]])
    diag = np.concatenate([h[1:2], 2.0 * (h[:-1] + h[1:]), h[-2:-1]])
    upper = np.concatenate([reach_0[None], h[:-1], h[:1]])
    s = np.empty((len(nodes),) + values.shape[1:])  # the right side, then the slopes
    s[0] = ((h[0] + 2.0 * reach_0) * h[1] * slope[0] + h[0] ** 2 * slope[1]) / reach_0
    s[1:-1] = 3.0 * (h[1:] * slope[:-1] + h[:-1] * slope[1:])
    s[-1] = (h[-1] ** 2 * slope[-2] + (2.0 * reach_1 + h[-1]) * h[-2] * slope[-1]) / reach_1
    _thomas(lower, diag, upper, s)
    keep = np.r_[0, 2:len(h) - 1][len(h) - 2 - out.shape[1]:]
    out[0], out[1] = values[keep], s[keep]
    h, slope, s0, s1 = h[keep], slope[keep], out[1], s[keep + 1]
    out[2] = (3.0 * slope - 2.0 * s0 - s1) / h
    out[3] = (s0 + s1 - 2.0 * slope) / (h * h)


class _CellLookup:
    """Knot cell of each point on one axis in O(1): a uniform bin table and
    one comparison.

    Bins are half the narrowest cell wide, and each bin records the cell
    holding a point a quarter bin below its left end.  A bin widened by that
    margin holds at most one knot, so a point's cell is its bin's cell or
    the next one, even where rounding puts it in the neighbouring bin.
    Points must lie within the knots.
    """

    def __init__(self, knots: np.ndarray):
        step = 0.5 * np.min(np.diff(knots))
        bins = knots[0] + step * np.arange(int((knots[-1] - knots[0]) / step) + 2)
        self.cell = np.clip(np.searchsorted(knots, bins - 0.25 * step, "right") - 1,
                            0, len(knots) - 2)
        self.left = knots[:-1]
        # the last cell is closed on the right
        self.right = np.append(knots[1:-1], np.inf)
        self.origin = knots[0]
        self.per_bin = 1.0 / step

    def __call__(self, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Cell indices and offsets from the cells' left knots."""
        i = self.cell[((v - self.origin) * self.per_bin).astype(np.intp)]
        i += v >= self.right[i]
        return i, v - self.left[i]


def _graded_axis(inner: float, outer: float, step: float, ratio: float) -> np.ndarray:
    """Symmetric axis: uniform core, geometrically graded tails."""
    core = np.arange(0.0, inner, step)
    tail = [inner]
    while tail[-1] < outer:
        tail.append(tail[-1] * ratio)
    pos = np.concatenate([core, tail])
    return np.concatenate([-pos[::-1][:-1], pos])


#: Leg tables kept per process, by ``(id(kernel), model_hash, eps, shear)``.
#: Each entry keeps its kernel alive, so no other kernel can take that id
#: while it is cached.  ``chat_fixed_point`` shears the frame anew at every
#: iterate, so an unbounded cache would keep one table per iterate.
LEG_TABLE_CACHE_SIZE = 8
_LEG_TABLE_CACHE: OrderedDict = OrderedDict()


def get_leg_table(model: PoissonNoiseModel, kernel: TruncatedKernel,
                  eps: float, shear: float = 0.0) -> LegTable:
    """The cached leg table; the least recently used one is evicted."""
    key = (id(kernel), model.model_hash(), float(eps), round(float(shear), 12))
    if key in _LEG_TABLE_CACHE:
        _LEG_TABLE_CACHE.move_to_end(key)
    else:
        _LEG_TABLE_CACHE[key] = (kernel, LegTable(model, kernel, eps, shear))
        while len(_LEG_TABLE_CACHE) > LEG_TABLE_CACHE_SIZE:
            _LEG_TABLE_CACHE.popitem(last=False)
    return _LEG_TABLE_CACHE[key][1]


#: Samples drawn at once by ``evaluate_diagram``.
MC_CHUNK_SIZE = 500_000
#: Samples weighed at once by ``evaluate_diagram``.  A block's scratch holds
#: a row per scale; at 25,000 samples a ``constants`` process peaks near
#: 59 MB, against 64 MB when each 50,000-sample chunk is weighed whole.
PDF_BLOCK = 25_000


def evaluate_diagram(
    diagram: Diagram,
    model: PoissonNoiseModel,
    kernel: TruncatedKernel,
    eps: float,
    budget: int = 1_000_000,
    seed: int = 0,
    v_h: float = 0.0,
) -> tuple[float, float]:
    """Monte-Carlo value and standard error of one constant's integral.

    All integration variables are parabolically rescaled, so the scale
    dependence is an exact prefactor and the sampled integrand is order
    one.  For a space-even model with no frame shift (``v_h = 0``) a
    diagram whose kernel edges and legs number an odd count is zero by
    parity, and ``(0, 0)`` is returned without sampling.  Each distinct leg
    is read from the ``LegTable`` once per sample.

    Raises ``ValueError``, before any work, unless ``eps`` is finite and
    positive, ``budget`` is an integer of at least 2, the fewest samples
    that give a stderr, and ``v_h`` is finite.
    """
    import zlib

    _check_scale(eps, v_h)
    _check_count("budget", budget)
    if budget < 2:
        raise ValueError(f"budget must be at least 2 samples, got {budget!r}")
    rng = np.random.default_rng(
        np.random.SeedSequence([seed, zlib.crc32(diagram.name.encode())])
    )
    n_legs = sum(order for order, _ in diagram.blobs)

    # Spatial parity: every kernel edge and, for a space-even bump with no
    # frame shift, every leg is odd in space, so when edges + legs is odd
    # the integrand is odd under the flip x -> -x and integrates to zero.
    if model.x_even and v_h == 0.0 and (len(diagram.kernel_edges) + n_legs) % 2 == 1:
        return 0.0, 0.0

    shear = v_h * eps
    table = get_leg_table(model, kernel, eps, shear)

    prefactor = model.mu ** len(diagram.blobs) * eps ** diagram.eps_power
    for order, _ in diagram.blobs:
        prefactor *= model.mark_moment(order)

    scales = np.array(dyadic_scales(eps))
    n_scales = len(scales)

    sums = 0.0
    sq_sums = 0.0
    count = 0
    remaining = budget
    while remaining > 0:
        n = min(MC_CHUNK_SIZE, remaining)
        remaining -= n
        # one scale per sample, shared by every variable: coherent clusters
        # at any scale (the source of logarithmic divergences) are covered
        s_arr = scales[rng.integers(0, n_scales, size=n)]
        # one array holds the chunk's positions, a row per variable: as the
        # largest array freed it keeps glibc's heap mapped (see KNOT_CELL_BLOCK)
        pos = dict(zip(["0"] + [var for var, _ in diagram.plan],
                       np.zeros((1 + len(diagram.plan), n, 2))))
        for var, anchor_names in diagram.plan:
            pick = rng.integers(0, len(anchor_names), size=n)
            anchors = [pos[a] for a in anchor_names]
            pos[var][:] = _sample_single_scale(rng, s_arr)
            # a lone anchor takes no gather
            pos[var] += anchors[0] if len(anchors) == 1 else np.choose(pick[:, None], anchors)
        w = np.zeros(n)
        for lo in range(0, n, PDF_BLOCK):
            at = {name: p[lo:lo + PDF_BLOCK] for name, p in pos.items()}
            q = _mixture_pdf(diagram.plan, at, scales)
            vals = np.ones(len(q))
            for end, start in diagram.kernel_edges:
                t, x = (at[end] - at[start]).T
                vals = vals * (eps ** 2 * kernel.dx(eps ** 2 * t, eps * x))
            for b, (order, targets) in enumerate(diagram.blobs):
                centre = at[f"w{b}"]
                # a target listed twice is one leg, read once
                legs = {t: table.ev(at[t] - centre) for t in dict.fromkeys(targets)}
                for target in targets:
                    vals = vals * legs[target]
            ok = q > 0
            w[lo:lo + PDF_BLOCK][ok] = vals[ok] / q[ok]
        sums += w.sum()
        sq_sums += (w * w).sum()
        count += n

    mean = sums / count
    var = max(sq_sums / count - mean * mean, 0.0)
    stderr = math.sqrt(var / count)
    return prefactor * mean, abs(prefactor) * stderr


CONSTANT_NAMES = ("C0", "C1", "C21", "C22", "C31", "C32")


def compute_constant(
    name: str,
    model: PoissonNoiseModel,
    kernel: TruncatedKernel,
    eps: float,
    mc_budget: int = 1_000_000,
    seed: int = 0,
    v_h: float = 0.0,
    chat: float = 0.0,
) -> tuple[float, float]:
    """One renormalisation constant at one scale: (value, stderr).

    The first logarithmic constant subtracts ``chat^2 / 2`` as part of its
    definition; pass the converged fixed point (zero for space-even noise).
    """
    if name not in CONSTANT_NAMES:
        raise KeyError(f"unknown constant {name!r}; choose from {CONSTANT_NAMES}")
    _check_count("mc_budget", mc_budget)
    value, err = evaluate_diagram(
        DIAGRAMS[name], model, kernel, eps, mc_budget, seed, v_h
    )
    if name == "C21":
        value -= 0.5 * chat * chat
    return value, err


def chat_fixed_point(
    model: PoissonNoiseModel,
    kernel: TruncatedKernel,
    eps: float,
    lam: float = 1.0,
    mc_budget: int = 400_000,
    seed: int = 0,
    tol: float = 1e-6,
    max_iter: int = 50,
) -> tuple[float, int]:
    """Solve ``c = F_eps(c)`` where the map shears the frame by ``4 lam^2 c``.

    Common random numbers across iterations (the same seed regenerates the
    same sample paths) make the iteration a deterministic contraction of a
    fixed Monte-Carlo approximation of the map.  Raises ``ValueError``,
    before any work, unless ``tol`` is finite and positive and ``max_iter``
    is an integer of at least 1, and ``RuntimeError`` if no iterate is
    within ``tol`` of the last.
    """
    if not 0 < tol < math.inf:
        raise ValueError(f"tol must be finite and positive, got {tol!r}")
    _check_count("max_iter", max_iter)
    if max_iter < 1:
        raise ValueError(f"max_iter must be at least 1, got {max_iter!r}")
    c = 0.0
    for iteration in range(1, max_iter + 1):
        nxt, _ = evaluate_diagram(
            DIAGRAMS["chat"], model, kernel, eps, mc_budget, seed,
            v_h=4.0 * lam * lam * c,
        )
        if abs(nxt - c) < tol:
            return nxt, iteration
        c = nxt
    raise RuntimeError(f"no fixed point within {max_iter} iterations")


# ---------------------------------------------------------------------------
# Exact small-scale limit of the first constant (independent quadrature)
# ---------------------------------------------------------------------------

def c0_exact_limit(model: PoissonNoiseModel) -> float:
    """Limit of ``eps * C0`` by direct quadrature.

    Integrating the squared space-derivative chain of the full heat kernel
    in closed form collapses the four-dimensional integral to
    ``(1/2) int P(|s|, y) kappa_2(s, y) ds dy``; the remaining
    two-dimensional integral is regularised by ``s = sigma^2`` and taken
    by a 120 x 200 Gauss-Legendre product rule in ``(sigma, y)``.
    """
    S = 2.0 * model.t_reach
    Y = 2.0 * model.x_reach
    sig, wsig = _gauss_legendre(120, 0.0, math.sqrt(S))
    y, wy = _gauss_legendre(200, -Y, Y)
    ss = sig[:, None] ** 2
    yy = y[None, :]
    gauss = np.exp(-(yy ** 2) / (4 * ss)) / math.sqrt(math.pi)
    k2 = model.kappa2(ss, yy) + model.kappa2(-ss, yy)
    integral = np.sum(gauss * k2 * wsig[:, None] * wy[None, :])
    return 0.5 * integral

