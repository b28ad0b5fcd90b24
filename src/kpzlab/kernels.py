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

from .noise import PoissonNoiseModel, smooth_bump, smooth_bump_dx, _gauss_legendre

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


def _smooth_step(v):
    """C-infinity step ``a / (a + b)``, ``a = exp(-1/v)``, ``b = exp(-1/(1-v))``.

    The result is exactly 0.0 for ``v <= _STEP_FLOOR`` and exactly 1.0 for
    ``v >= 1``, so the exponentials are taken only between; NaN stays NaN.
    """
    v = np.asarray(v, dtype=float)
    flat = v.ravel()
    out = (flat >= 1).astype(float)
    band = np.flatnonzero(~((flat <= _STEP_FLOOR) | (flat >= 1)))
    u = flat[band]
    a = np.exp(-1.0 / u)
    b = np.exp(-1.0 / (1.0 - u))
    out[band] = a / (a + b)
    return out.reshape(v.shape)


def _smooth_step_d(v):
    """Derivative of :func:`_smooth_step`: exactly 0.0 off
    (``_STEP_FLOOR``, 1), where the exponentials are not taken."""
    v = np.asarray(v, dtype=float)
    flat = v.ravel()
    out = np.zeros(flat.shape)
    band = np.flatnonzero((flat > _STEP_FLOOR) & (flat < 1))
    u = flat[band]
    a = np.exp(-1.0 / u)
    b = np.exp(-1.0 / (1.0 - u))
    ap = a / u ** 2
    bp = -b / (1.0 - u) ** 2
    out[band] = (ap * b - a * bp) / (a + b) ** 2
    return out.reshape(v.shape)


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
#: The annulus shape is zero off ``0 <= t <= SHAPE_BOX``, ``|x| <= SHAPE_BOX``:
#: its spline is padded with zeros out to this box.
SHAPE_BOX = 1.02


def _chi(rho):
    """The cutoff: 1 for ``rho <= PLATEAU``, 0 for ``rho >= SUPPORT``."""
    return _smooth_step((SUPPORT - rho) / (SUPPORT - PLATEAU))


def _chi_d(rho):
    return -_smooth_step_d((SUPPORT - rho) / (SUPPORT - PLATEAU)) / (SUPPORT - PLATEAU)


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
    return slope * gauss / root * _chi(rho) \
        + gauss / root * _chi_d(rho) * (x * x * x / rr ** 3)


def _is_tensor_grid(t, x):
    """A sorted column ``t`` of shape (n, 1) and a sorted row ``x`` (1, m)."""
    return (t.ndim == 2 and x.ndim == 2 and t.shape[1] == 1 and x.shape[0] == 1
            and np.all(np.diff(t[:, 0]) >= 0) and np.all(np.diff(x[0]) >= 0))


def _on_support(t, x, f):
    """``f(t, x, rho)`` where the kernel can be non-zero, and 0 elsewhere.

    Every part of the kernel is exactly 0 where ``t <= 0`` or ``rho >=
    SUPPORT``.  On a sorted tensor grid (see ``_is_tensor_grid``) ``f``
    takes the grid's block ``0 < t < SUPPORT^2``, ``|x| < SUPPORT``, as a
    column and a row; any other input is broadcast and flattened, and ``f``
    takes only the points with ``t > 0`` and ``rho < SUPPORT``.  So an
    infinite ``t`` or ``x`` gives 0, and NaN raises ``ValueError``.
    """
    t = np.asarray(t, dtype=float)
    x = np.asarray(x, dtype=float)
    if np.isnan(t).any() or np.isnan(x).any():
        raise ValueError("the kernel is not defined at NaN t or x")
    if _is_tensor_grid(t, x):
        tc, xr = t[:, 0], x[0]
        rows = slice(np.searchsorted(tc, 0.0, "right"), np.searchsorted(tc, SUPPORT ** 2))
        cols = slice(np.searchsorted(xr, -SUPPORT, "right"), np.searchsorted(xr, SUPPORT))
        out = np.zeros((len(tc), len(xr)))
        if rows.start < rows.stop and cols.start < cols.stop:
            tb, xb = t[rows], x[:, cols]
            out[rows, cols] = f(tb, xb, parabolic_norm(tb, xb))
        return out
    tt, xx = np.broadcast_arrays(t, x)
    with np.errstate(over="ignore"):  # rho = inf is off the support
        rho = parabolic_norm(tt, xx).ravel()
    shape = tt.shape
    tt, xx = tt.ravel(), xx.ravel()
    live = np.flatnonzero((tt > 0) & (rho < SUPPORT))
    out = np.zeros(rho.size)
    out[live] = f(tt[live], xx[live], rho[live])
    return out.reshape(shape)


@dataclass(frozen=True)
class TruncatedKernel:
    """Compactly supported kernel agreeing with the heat kernel near 0.

    The annulus correction has two parts: a smooth tabulated shape (the
    energy-optimal annulus content, a bicubic spline that is zero off the
    box ``SHAPE_BOX``, clipped by the mask) and a small polynomial touch-up,
    one coefficient of ``corrections`` per term of ``TOUCH_UP_POWERS``,
    enforcing the moment identities exactly.

    ``value`` is the kernel and ``dx`` its space derivative, the edge kernel
    of every graph integral.  Support: with ``rho`` the parabolic norm, both
    are exactly 0 where ``t <= 0`` (the heat kernel and the mask's time step
    vanish) or ``rho >= SUPPORT`` (the cutoff and the mask's outer step
    vanish); the correction is exactly 0 where ``rho <= PLATEAU`` as well.
    ``value``, ``correction``, ``correction_dx`` and ``dx`` each hand one
    formula in ``(t, x, rho)`` to ``_on_support``, which evaluates it on a
    sorted tensor grid's support block, or else on the live points only,
    and gives 0 elsewhere; ``dx`` adds the correction's derivative only on
    its live points with ``rho > PLATEAU``.
    """

    corrections: tuple[float, ...]
    shape: object  # bicubic spline on the symmetrised grid

    # -- the annulus mask and its x-derivative ------------------------------
    @staticmethod
    def _mask_parts(t, rho):
        """The mask's inner, outer and small-time steps; the last is taken of
        the unbroadcast ``t``, so a tensor grid pays for one column of it."""
        a = _smooth_step((rho - PLATEAU) / MASK_IN)
        b = _smooth_step((SUPPORT - rho) / MASK_OUT)
        c = _smooth_step(t / MASK_T)
        return a, b, c

    def mask(self, t, x):
        t = np.asarray(t, dtype=float)
        a, b, c = self._mask_parts(t, parabolic_norm(t, x))
        return a * b * c

    def _mask_and_dx(self, t, x, rho):
        """The mask and its x-derivative at ``t > 0``, from one evaluation of
        the mask's parts."""
        a, b, c = self._mask_parts(t, rho)
        da = _smooth_step_d((rho - PLATEAU) / MASK_IN) / MASK_IN
        db = -_smooth_step_d((SUPPORT - rho) / MASK_OUT) / MASK_OUT
        rr = np.where(rho > 0, rho, 1.0)
        drho_dx = x * x * x / rr ** 3
        return a * b * c, (da * b + a * db) * c * drho_dx

    # -- the annulus shape ---------------------------------------------------
    @functools.cached_property
    def _shape_blocks(self) -> "_BlockSpline":
        """The shape's cell blocks for ``x >= 0`` (the shape is even in x):
        151 x 220 cells, 4.3 MB, built at the first point evaluation."""
        return _BlockSpline(self.shape, x_from=0.0)

    def _shape_eval(self, t, x, dx=False):
        """The annulus shape (with ``dx``, also its x-derivative), zero off its box.

        On a sorted tensor grid (see ``_is_tensor_grid``) the shape itself is
        evaluated on its in-box block by FITPACK's separable B-spline bases.
        Every other input, and every derivative, is read point by point from
        the shape's cell blocks, on the points inside the box only, through
        ``|x|`` and the shape's evenness.  On a 2-vCPU x86 host the shape and
        its x-derivative together take about 0.2 us a point that way, and
        about 0.9 us by two calls of FITPACK's point evaluation ``shape.ev``,
        which stays only as the tests' oracle.
        """
        if not dx and _is_tensor_grid(t, x):
            out = np.zeros(np.broadcast(t, x).shape)
            tc, xr = t[:, 0], x[0]
            i0, i1 = np.searchsorted(tc, 0.0), np.searchsorted(tc, SHAPE_BOX, "right")
            j0 = np.searchsorted(xr, -SHAPE_BOX)
            j1 = np.searchsorted(xr, SHAPE_BOX, "right")
            if i0 < i1 and j0 < j1:
                out[i0:i1, j0:j1] = self.shape(tc[i0:i1], xr[j0:j1])
            return out
        shape = np.broadcast(t, x).shape
        tt, xx = (a.ravel() for a in np.broadcast_arrays(t, x))
        inside = np.flatnonzero((tt >= 0) & (tt <= SHAPE_BOX) & (np.abs(xx) <= SHAPE_BOX))
        xi = xx[inside]
        got = self._shape_blocks(tt[inside], np.abs(xi), dx)
        out = np.zeros(tt.size)
        out[inside] = got[0] if dx else got
        if not dx:
            return out.reshape(shape)
        out_dx = np.zeros(tt.size)
        out_dx[inside] = got[1] * np.sign(xi)
        return out.reshape(shape), out_dx.reshape(shape)

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
        place: the kernel build passes blocks of 0.7M points."""
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
        mask, mask_dx = self._mask_and_dx(t, x, rho)
        return poly_dx * mask + poly * mask_dx

    def correction_dx(self, t, x):
        return _on_support(t, x, self._correction_dx_at)

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
            t, x = np.broadcast_arrays(t, x)  # a tensor-grid block is a column and a row
            out = _cut_heat_dx(t, x, rho)
            ring = rho > PLATEAU
            out[ring] += self._correction_dx_at(t[ring], x[ring], rho[ring])
            return out

        return _on_support(t, x, formula)


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


def _optimal_annulus_shape(target, nt: int = 150, nx: int = 220):
    """Energy-optimal annulus content as a bicubic spline.

    Minimises ``int (d_x K)^2`` over corrections supported in the annulus,
    subject to the three moment constraints (the correction's moments are
    ``target``, the negated plateau moments), by a finite-difference
    quadratic program per time slice (slices couple only through the
    constraints); the discrete solution is interpolated on a symmetrised
    grid.  Evenness in space is built in through the reflection at x = 0.
    """
    import scipy.sparse as sp
    from scipy.interpolate import RectBivariateSpline
    from scipy.sparse.linalg import spsolve

    t_cells = (np.arange(nt) + 0.5) / nt
    x_cells = (np.arange(nx) + 0.5) * 1.01 / nx
    dt_c = 1.0 / nt
    dx_c = x_cells[1] - x_cells[0]
    T, X = np.meshgrid(t_cells, x_cells, indexing="ij")
    rho = parabolic_norm(T, X)
    # solve on a slightly shrunken annulus so the support mask barely bites
    allowed = (rho > PLATEAU + MASK_IN) & (rho < SUPPORT - MASK_OUT) & (T > MASK_T)
    idx = -np.ones((nt, nx), dtype=int)
    ids = np.flatnonzero(allowed.ravel())
    idx.ravel()[ids] = np.arange(len(ids))
    n = len(ids)

    # One difference row per cell edge (i, j) between x cells j and j + 1
    # with an allowed cell on either side, in row-major order.  The edge at
    # x = 0 is the even reflection and carries no derivative penalty; the
    # last cell's outer edge has no right neighbour.
    right = np.hstack([allowed[:, 1:], np.zeros((nt, 1), dtype=bool)])
    edge = allowed | right
    r_cnt = int(edge.sum())
    ok = np.stack([right, allowed], axis=-1)[edge]  # (right, left) per row
    cols = np.stack([np.roll(idx, -1, axis=1), idx], axis=-1)[edge][ok]
    rows = np.broadcast_to(np.arange(r_cnt)[:, None], ok.shape)[ok]
    vals = np.broadcast_to([1.0 / dx_c, -1.0 / dx_c], ok.shape)[ok]
    D_op = sp.csr_matrix((vals, (rows, cols)), shape=(r_cnt, n))
    w_edge = 2.0 * dt_c * dx_c
    te, xe = np.broadcast_arrays(t_cells[:, None], (x_cells + dx_c / 2)[None, :])
    avec = _cut_heat_dx(te, xe, parabolic_norm(te, xe))[edge]
    Q = (D_op.T @ D_op) * w_edge
    b = (D_op.T @ avec) * w_edge

    cell_w = 2.0 * dt_c * dx_c
    tt_f = T.ravel()[ids]
    xx_f = X.ravel()[ids]
    L = np.stack([np.full(n, cell_w), cell_w * tt_f, cell_w * xx_f ** 2])

    KKT = sp.bmat([[Q, sp.csr_matrix(L).T], [sp.csr_matrix(L), None]],
                  format="csc")
    sol = spsolve(KKT, np.concatenate([-b, target]))
    c = sol[:n]

    values = np.zeros((nt, nx))
    values.ravel()[np.ravel_multi_index(np.unravel_index(ids, (nt, nx)), (nt, nx))] = c
    # pad with explicit zeros and mirror in x so the interpolant is even
    t_grid = np.concatenate([[-0.02, 0.0], t_cells, [1.0, SHAPE_BOX]])
    data = np.vstack([np.zeros((2, nx)), values, np.zeros((2, nx))])
    x_grid = np.concatenate([-x_cells[::-1], x_cells])
    data = np.hstack([data[:, ::-1], data])
    x_grid = np.concatenate([[-SHAPE_BOX], x_grid, [SHAPE_BOX]])
    data = np.hstack([np.zeros((data.shape[0], 1)), data,
                      np.zeros((data.shape[0], 1))])
    return RectBivariateSpline(t_grid, x_grid, data, kx=3, ky=3, s=0)


def _knot_cells(shape, n_sub: int):
    """Gauss nodes and weights on the knot cells of the annulus shape.

    Returns ``(tmid, twgt, xmid, xwgt)``: an ``n_sub``-point rule on every
    cell between consecutive spline knots, in t over the whole knot span and
    in x from 0 (the kernel is even in x) to the last knot.  Each cell
    carries one polynomial piece of the spline, so only the mask limits the
    accuracy.  There is no knot at x = 0: the first x cell is the positive
    half of the piece that straddles it.
    """
    g, w = _gauss_legendre(n_sub, 0.0, 1.0)

    def cells(knots):
        width = np.diff(knots)[:, None]
        return (knots[:-1, None] + width * g).ravel(), (width * w).ravel()

    tk = np.unique(shape.get_knots()[0])
    xk = np.unique(shape.get_knots()[1])
    return cells(tk) + cells(np.concatenate([[0.0], xk[xk > 0.0]]))


#: t nodes per tensor-grid block of the knot-cell quadrature: the whole grid
#: has about 5.6M points, and each full-size temporary of the mask would take
#: 45 MB.
KNOT_CELL_BLOCK = 256


def _knot_cell_moments(f, cells, *powers):
    """``int t^p g(t, x) x^(2q) * {1, t, x^2}`` on the knot cells.

    ``f(t, x)`` returns a tuple of arrays ``g``, and ``powers`` holds one
    list of ``(p, q)`` per array; the result holds one (3, len(list)) array
    per ``g``, one column per ``(p, q)``.  Each ``g`` is even in x, so the
    half-line rule is doubled.  ``f`` is called once per tensor grid of
    ``KNOT_CELL_BLOCK`` t nodes, and each ``g`` is contracted at once with
    the x weights times the even powers of x.
    """
    tmid, twgt, xmid, xwgt = cells
    projs = [(2.0 * xwgt)[:, None] * xmid[:, None] ** (2 * np.arange(max(q for _, q in pq) + 2))
             for pq in powers]
    rows = [[] for _ in powers]
    for i in range(0, len(tmid), KNOT_CELL_BLOCK):
        gs = f(tmid[i:i + KNOT_CELL_BLOCK, None], xmid[None, :])
        for acc, g, proj in zip(rows, gs, projs):
            acc.append(g @ proj)
    return [np.array([[(twgt * tmid ** p) @ r[:, q],
                       (twgt * tmid ** (p + 1)) @ r[:, q],
                       (twgt * tmid ** p) @ r[:, q + 1]]
                      for p, q in pq]).T
            for pq, r in zip(powers, map(np.vstack, rows))]


def _touch_up_system(shape, cells):
    """The masked shape's moments and the touch-up matrix, in one walk.

    Returns the moments against ``{1, t, x^2}`` of the correction with no
    touch-up, and the (3, len(TOUCH_UP_POWERS)) moments of the masked
    touch-up terms ``t^p x^(2q)``.  Each block evaluates the mask and the
    shape once for both.
    """
    raw = TruncatedKernel((0.0,) * len(TOUCH_UP_POWERS), shape)

    def masked_shape_and_mask(t, x):
        mask = raw.mask(t, x)
        return raw._shape_eval(t, x) * mask, mask

    plain, touch_up = _knot_cell_moments(masked_shape_and_mask, cells,
                                         ((0, 0),), TOUCH_UP_POWERS)
    return plain[:, 0], touch_up


@functools.cache
def build_truncated_kernel() -> TruncatedKernel:
    """Construct the kernel once: cutoff, optimal annulus shape, exact moments.

    The energy-optimal annulus shape nearly annihilates the moments; a
    small polynomial touch-up (solved on exact knot-aligned quadratures of
    the actual interpolated shape) removes the residual exactly, so the
    moment identities hold to quadrature precision.

    The build has four passes: the plateau moments by panelled Gauss rules;
    the annulus quadratic program; one walk over the 1,963 x 2,860 knot-cell
    points that evaluates the mask and the shape once per block for both the
    residual and the touch-up matrix; and, after the solve, one evaluation
    of the finished kernel's correction on the same points to check the
    moments, on the support block of each tensor grid only, with the
    touch-ups summed by Horner's rule.  The mask's steps take exponentials
    only in their thin bands.  The shape is read by FITPACK on tensor grids
    throughout; its cell blocks are built later, at the first point
    evaluation.  On a 2-vCPU x86 host the build takes 0.6-0.8 s once scipy's
    sparse and interpolation modules are imported; their first import, which
    the build makes, adds 0.5-0.7 s.
    """
    target = -_plateau_moments()
    shape = _optimal_annulus_shape(target)
    cells = _knot_cells(shape, 13)
    shape_moments, L = _touch_up_system(shape, cells)
    # the touch-up moments are on the same knot-aligned quadrature as the
    # shape's, so a single linear solve lands the residual
    coeff, *_ = np.linalg.lstsq(L, target - shape_moments, rcond=None)
    kernel = TruncatedKernel(tuple(float(c) for c in coeff), shape)
    (moments,) = _knot_cell_moments(lambda t, x: (kernel.correction(t, x),),
                                    cells, ((0, 0),))
    check = target - moments[:, 0]
    if np.max(np.abs(check)) > 1e-10:
        raise ValueError("moment solve did not converge")
    return kernel


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


#: Samples per block of ``_mixture_pdf``: its arrays hold one row per scale,
#: so a block of them stays near 4 MB at the 7 scales of eps = 1/32.
PDF_BLOCK = 65_536


def _mixture_pdf(plan, pos: dict[str, np.ndarray], scales: np.ndarray) -> np.ndarray:
    """Proposal density of ``evaluate_diagram`` at the sampled positions.

    The equal-weight mixture over ``scales`` of the product over the plan's
    variables of the mean over each variable's anchors, taken over blocks
    of ``PDF_BLOCK`` samples.
    """
    q = np.empty(len(pos["0"]))
    for lo in range(0, len(q), PDF_BLOCK):
        at = {name: p[lo:lo + PDF_BLOCK] for name, p in pos.items()}
        term = np.full((len(scales), len(at["0"])), 1.0 / len(scales))
        for var, (first, *others) in plan:
            dens = _pdf_scales(at[var] - at[first], scales)
            for a in others:
                dens += _pdf_scales(at[var] - at[a], scales)
            dens /= 1 + len(others)
            term *= dens
        q[lo:lo + PDF_BLOCK] = term.sum(axis=0)
    return q


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
    the bump-smeared kernel at ``pos[target] - centre``.  The sampling plan
    lists, for each integration variable, the anchor variables whose
    neighbourhoods carry the integrand's mass.
    """

    name: str
    vertices: tuple[str, ...]
    kernel_edges: tuple[tuple[str, str], ...]
    blobs: tuple[tuple[int, tuple[str, ...]], ...]
    plan: tuple[tuple[str, tuple[str, ...]], ...]

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
        plan=(("w0", ("0",)),),
    ),
    "chat": Diagram(
        name="chat",
        vertices=("y",),
        kernel_edges=(("0", "y"),),
        blobs=((2, ("0", "y")),),
        plan=(("y", ("0",)), ("w0", ("0", "y"))),
    ),
    "C1": Diagram(
        name="C1",
        vertices=("y",),
        kernel_edges=(("0", "y"),),
        blobs=((3, ("0", "y", "y")),),
        plan=(("y", ("0",)), ("w0", ("0", "y"))),
    ),
    "C21": Diagram(
        name="C21",
        vertices=("m", "t"),
        kernel_edges=(("0", "m"), ("m", "t")),
        blobs=((2, ("0", "t")), (2, ("t", "m"))),
        plan=(
            ("m", ("0",)),
            ("t", ("0", "m")),
            ("w0", ("0", "t")),
            ("w1", ("t", "m")),
        ),
    ),
    "C22": Diagram(
        name="C22",
        vertices=("m", "t"),
        kernel_edges=(("0", "m"), ("m", "t")),
        blobs=((4, ("m", "0", "t", "t")),),
        plan=(("m", ("0",)), ("t", ("0", "m")), ("w0", ("m", "0", "t"))),
    ),
    "C31": Diagram(
        name="C31",
        vertices=("l", "r"),
        kernel_edges=(("0", "l"), ("0", "r")),
        blobs=((2, ("l", "r")), (2, ("l", "r"))),
        plan=(
            ("l", ("0",)),
            ("r", ("0", "l")),
            ("w0", ("l", "r")),
            ("w1", ("l", "r")),
        ),
    ),
    "C32": Diagram(
        name="C32",
        vertices=("l", "r"),
        kernel_edges=(("0", "l"), ("0", "r")),
        blobs=((4, ("l", "r", "l", "r")),),
        plan=(("l", ("0",)), ("r", ("0", "l")), ("w0", ("l", "r"))),
    ),
}


def _khat2(kernel: TruncatedKernel, eps: float, pts: np.ndarray) -> np.ndarray:
    return eps ** 2 * kernel.dx(eps ** 2 * pts[:, 0], eps * pts[:, 1])


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
    call, on a tensor grid whose sorted row holds ``x - y`` for every y node,
    and contracts it with the y weights.  Inside the support each y node
    evaluates the kernel on one sorted sigma column for all support rows;
    with a shear the x-shift varies along that column, so it is evaluated
    point by point, with the annulus shape read from its cell blocks.  At
    eps = 0.25 on a 2-vCPU x86 host the build takes
    about 0.3-0.4 s for ``default_even_model`` and 0.6-0.7 s for
    ``default_asymmetric_model`` at shear 0.3.

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

    ``spline`` is FITPACK's fit.  ``ev`` does not call FITPACK, whose
    point evaluation restarts a knot scan at every point (about 400 ns a
    point): it reads the same spline from its cell blocks (``_BlockSpline``,
    1.8 MB at eps = 0.25), about 110 ns a point on a 2-vCPU x86 host.  The
    two agree to rounding.
    """

    def __init__(self, model: PoissonNoiseModel, kernel: TruncatedKernel,
                 eps: float, shear: float = 0.0):
        from scipy.interpolate import RectBivariateSpline

        t_max = 1.0 / eps ** 2 + model.t_reach + 1.0
        x_max = 1.0 / eps + model.x_reach + 1.0
        t_axis = _graded_axis(4.0, t_max, 0.08, 1.10)
        x_axis = _graded_axis(4.0, x_max, 0.08, 1.10)
        values = _leg_node_values(model, kernel, eps, shear, t_axis, x_axis)
        self.spline = RectBivariateSpline(t_axis, x_axis, values, kx=3, ky=3)
        self.t_max = t_max
        self.x_max = x_max
        self._blocks = _BlockSpline(self.spline, x_from=-np.inf)

    def ev(self, pts: np.ndarray) -> np.ndarray:
        """The spline at ``pts[..., :2] = (t, x)``, zero off the box."""
        t = pts[..., 0].ravel()
        x = pts[..., 1].ravel()
        inside = np.flatnonzero((np.abs(t) <= self.t_max) & (np.abs(x) <= self.x_max))
        out = np.zeros(t.shape)
        out[inside] = self._blocks(t[inside], x[inside])
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
            # one row of x - y for all y nodes, sorted into a tensor grid
            xs = (x_axis[None, :] - (y_nodes[:, None] + shear * sn)).ravel()
            order = np.argsort(xs)
            k = np.empty((np.count_nonzero(rows), xs.size))
            k[:, order] = kernel.value(tt[rows, None], eps * xs[None, order])
            values[rows] += sw * eps * np.einsum(
                "y,ryx->rx", y_w, k.reshape(len(k), len(y_nodes), -1))
        # rows inside the support: s = t - sigma^2 on [s_lo, t]; all rows
        # share one sigma column, sorted so an unsheared call is a tensor grid
        inside = np.flatnonzero((t_axis > s_lo) & (t_axis < s_hi))
        reach = np.sqrt(t_axis[inside] - s_lo)[:, None]
        sigma = reach * u
        s = t_axis[inside, None] - sigma ** 2
        weight = eps * term.amplitude * 2.0 * sigma * reach * wu \
            * smooth_bump((s - term.t_center) / term.t_halfwidth)
        order = np.argsort(sigma, axis=None)
        tau = (eps * sigma.ravel()[order, None]) ** 2
        shift = shear * s.ravel()[order, None] if shear else 0.0
        for yn, yw in zip(y_nodes, y_w):
            xs = x_axis[None, :] - (yn + shift)
            k = np.empty((sigma.size, len(x_axis)))
            k[order] = kernel.value(tau, eps * xs)
            values[inside] += yw * np.einsum(
                "rk,rkx->rx", weight, k.reshape(*sigma.shape, -1))
    return values


class _BlockSpline:
    """A bicubic spline read from local coefficients, one 4x4 block per knot cell.

    FITPACK's point evaluation restarts a knot scan at every point (400-560
    ns a point).  Here each point takes an O(1) cell lookup per axis
    (``_CellLookup``) and a Horner evaluation of its cell's block (about 110
    ns a point on a 2-vCPU x86 host); the x-derivative comes from the same
    gathered coefficients.  It agrees with FITPACK to rounding.  Blocks
    cover every t cell and the x cells from the one holding ``x_from`` on;
    points must lie within those cells.
    """

    def __init__(self, spline, x_from: float):
        t_knots, x_knots = (np.unique(k) for k in spline.get_knots())
        x_knots = x_knots[max(np.searchsorted(x_knots, x_from, "right") - 1, 0):]
        self._t_cells = _CellLookup(t_knots)
        self._x_cells = _CellLookup(x_knots)
        self._blocks = _bicubic_blocks(spline, t_knots, x_knots)

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


def _bicubic_blocks(spline, t_knots: np.ndarray, x_knots: np.ndarray) -> np.ndarray:
    """Local coefficients of a bicubic spline, one 4x4 block per knot cell.

    Entry ``[n, m, i * (len(x_knots) - 1) + j]`` is the coefficient of
    ``(t - t_knots[i])^m (x - x_knots[j])^n`` on cell ``(i, j)``: the Taylor
    coefficients of the cell's polynomial piece at its lower corner, from
    the spline's derivatives there, first along t and then along x.
    """
    from scipy.interpolate import BSpline

    tk, xk, c = spline.tck
    c = c.reshape(len(tk) - 4, len(xk) - 4)
    factorial = (1.0, 1.0, 2.0, 6.0)
    # (m, t cell, x coefficient), then (n, x cell, m, t cell)
    along_t = np.stack([BSpline(tk, c, 3)(t_knots[:-1], nu=m) / factorial[m]
                        for m in range(4)])
    along_x = BSpline(xk, np.moveaxis(along_t, 2, 0), 3)
    blocks = np.stack([along_x(x_knots[:-1], nu=n) / factorial[n] for n in range(4)])
    return np.ascontiguousarray(blocks.transpose(0, 2, 3, 1).reshape(4, 4, -1))


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


#: Samples drawn and weighted at once by ``evaluate_diagram``.
MC_CHUNK_SIZE = 500_000


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

    Raises ``ValueError`` unless ``eps`` is finite and positive, ``budget``
    is at least 2, the fewest samples that give a stderr, and ``v_h`` is
    finite.
    """
    import zlib

    if not (math.isfinite(eps) and eps > 0):
        raise ValueError(f"eps must be finite and positive, got {eps!r}")
    if budget < 2:
        raise ValueError(f"budget must be at least 2 samples, got {budget!r}")
    if not math.isfinite(v_h):
        raise ValueError(f"v_h must be finite, got {v_h!r}")
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
        pos: dict[str, np.ndarray] = {"0": np.zeros((n, 2))}
        for var, anchor_names in diagram.plan:
            anchors = [pos[a] for a in anchor_names]
            pick = rng.integers(0, len(anchors), size=n)
            base = anchors[0].copy()
            for i in range(1, len(anchors)):
                sel = pick == i
                base[sel] = anchors[i][sel]
            pos[var] = base + _sample_single_scale(rng, s_arr)
        q_total = _mixture_pdf(diagram.plan, pos, scales)

        vals = np.ones(n)
        for end, start in diagram.kernel_edges:
            vals = vals * _khat2(kernel, eps, pos[end] - pos[start])
        for b, (order, targets) in enumerate(diagram.blobs):
            centre = pos[f"w{b}"]
            # a target listed twice is one leg, read once
            legs = {t: table.ev(pos[t] - centre) for t in dict.fromkeys(targets)}
            for target in targets:
                vals = vals * legs[target]

        ok = q_total > 0
        w = np.zeros(n)
        w[ok] = vals[ok] / q_total[ok]
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
    fixed Monte-Carlo approximation of the map.
    """
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

