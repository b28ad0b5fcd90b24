from collections import OrderedDict
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.interpolate import RectBivariateSpline
from scipy.sparse.linalg import spsolve

from kpzlab import kernels
from kpzlab.noise import (_gauss_legendre, default_asymmetric_model,
                          default_even_model, smooth_bump, smooth_bump_dx)


@pytest.fixture(scope="module")
def kernel():
    return kernels.build_truncated_kernel()


# Both axes cross the edges of the kernel's support (t = 0, t = 1, |x| = 1)
# and of the annulus shape's box (t = 1.02, |x| = 1.02).
T_AXIS = np.linspace(-0.05, 1.08, 57)
X_AXIS = np.linspace(-1.1, 1.1, 71)
TENSOR_METHODS = ["value", "correction"]


def _pointwise(kernel, method, t, x):
    tt, xx = np.broadcast_arrays(t, x)
    return getattr(kernel, method)(tt.ravel(), xx.ravel()).reshape(tt.shape)


@pytest.mark.parametrize("method", TENSOR_METHODS)
def test_tensor_grid_matches_pointwise(kernel, method, monkeypatch):
    t, x = T_AXIS[:, None], X_AXIS[None, :]
    want = _pointwise(kernel, method, t, x)

    def no_pointwise(*args, **kwargs):
        raise AssertionError("a tensor grid was evaluated point by point")

    # points would go through FITPACK's ``ev`` or through the cell blocks
    monkeypatch.setattr(kernel.shape, "ev", no_pointwise)
    monkeypatch.setattr(kernels._BlockSpline, "__call__", no_pointwise)
    got = getattr(kernel, method)(t, x)
    scale = np.max(np.abs(want))
    assert scale > 0 and np.count_nonzero(want) > want.size // 10
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12 * scale)


@pytest.mark.parametrize("method", TENSOR_METHODS + ["correction_dx", "dx"])
def test_non_monotone_axis_falls_back_to_pointwise(kernel, method):
    # the spline's grid evaluation rejects unsorted axes, so only the
    # pointwise route can give these values
    t = np.random.default_rng(3).permutation(T_AXIS)[:, None]
    x = X_AXIS[None, :]
    want = _pointwise(kernel, method, t, x)
    np.testing.assert_allclose(getattr(kernel, method)(t, x), want, rtol=1e-12,
                               atol=1e-12 * np.max(np.abs(want)))


# The heat kernel and its x-derivative, 0 where t <= 0: the oracles of the
# kernel's cut heat part.  At tiny positive t, -x^2/(4t) and -x/(2t) may
# overflow to -inf; the Gaussian is then exactly 0, and no value is NaN.

def heat_kernel(t, x):
    tt, xx = np.broadcast_arrays(np.asarray(t, dtype=float), np.asarray(x, dtype=float))
    pos = tt > 0
    out = np.zeros(tt.shape)
    with np.errstate(over="ignore"):
        out[pos] = np.exp(-xx[pos] ** 2 / (4 * tt[pos])) / np.sqrt(4 * np.pi * tt[pos])
    return out


def heat_kernel_dx(t, x):
    tt, xx = np.broadcast_arrays(np.asarray(t, dtype=float), np.asarray(x, dtype=float))
    pos = tt > 0
    tp, xp = tt[pos], xx[pos]
    with np.errstate(over="ignore"):
        slope = -xp / (2 * tp)
        gauss = np.exp(-xp ** 2 / (4 * tp))
    slope[np.isinf(slope)] = 0.0  # where the Gaussian is 0
    out = np.zeros(tt.shape)
    out[pos] = slope * gauss / np.sqrt(4 * np.pi * tp)
    return out


def _dense_dx(kernel, t, x):
    """``dx`` with every term evaluated at every point."""
    rho = kernels.parabolic_norm(t, x)
    rr = np.where(rho > 0, rho, 1.0)
    return (heat_kernel_dx(t, x) * kernels._chi(rho)
            + heat_kernel(t, x) * kernels._chi_d(rho) * (x * x * x / rr ** 3)
            + kernel._correction_dx_at(t, x, rho))


def test_dx_is_the_x_derivative_of_value(kernel):
    rng = np.random.default_rng(4)
    t = 1.0 - rng.uniform(0.0, 0.99, 4000)  # (0.01, 1]
    x = rng.uniform(-1.0, 1.0, 4000)
    h = 1e-6
    central = (kernel.value(t, x + h) - kernel.value(t, x - h)) / (2 * h)
    got = kernel.dx(t, x)
    assert np.max(np.abs(got)) > 5.0
    np.testing.assert_allclose(got, central, rtol=0, atol=1e-6)


def test_tiny_positive_times_give_exact_zeros(kernel):
    # -x^2/(4t), -x/(2t) and the mask's -1/u overflow at these t: the
    # Gaussian and the steps are exactly 0 there, and no value is NaN
    t = np.array([1e-310, 1e-310, 1e-312, 1e-320, 5e-324])
    x = np.array([0.7, 0.0, 0.0, 1e-10, -0.2])
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        heat = heat_kernel(t, x)
        assert np.all(heat_kernel_dx(t, x) == 0.0)
        assert np.all(kernel.dx(t, x) == 0.0)
        assert np.array_equal(kernel.value(t, x), heat)
    assert np.all(heat[[0, 3, 4]] == 0.0) and np.all(heat[1:3] > 0)


def _record_formula(monkeypatch, name):
    """Patch the private formula ``name`` of ``TruncatedKernel`` to record the
    points and norms it is handed; returns the list of records."""
    seen = []
    formula = getattr(kernels.TruncatedKernel, name)

    def recording(self, t, x, rho):
        seen.append((t.copy(), x.copy(), rho.copy()))
        return formula(self, t, x, rho)

    monkeypatch.setattr(kernels.TruncatedKernel, name, recording)
    return seen


def test_dx_on_points_evaluates_only_the_support(kernel, monkeypatch):
    rng = np.random.default_rng(11)
    t = rng.uniform(-0.3, 1.3, 3000)
    x = rng.uniform(-1.3, 1.3, 3000)
    # t = 0, t = 1, rho = 0.5, rho = 1, |x| = 1, negative t, far outside
    edges = np.array([(0.0, 0.0), (0.0, 0.3), (0.0, -1.0), (1.0, 0.0),
                      (1.0, 0.2), (0.25, 0.0), (0.0, 0.5), (0.0, 1.0),
                      (0.6, 0.8 ** 0.5), (0.5, 1.0), (0.5, -1.0), (-0.2, 0.1),
                      (-1e3, 0.0), (1e3, 50.0), (1e-300, 0.0), (4.0, -9.0)])
    t = np.concatenate([edges[:, 0], t])
    x = np.concatenate([edges[:, 1], x])
    want = _dense_dx(kernel, t, x)

    seen = _record_formula(monkeypatch, "_correction_dx_at")
    got = kernel.dx(t, x)
    assert np.array_equal(got, want)

    rho = kernels.parabolic_norm(t, x)
    ring = (t > 0) & (rho > kernels.PLATEAU) & (rho < kernels.SUPPORT)
    ((ct, cx, cr),) = seen
    assert np.array_equal(ct, t[ring]) and np.array_equal(cx, x[ring])
    assert np.array_equal(cr, rho[ring])
    assert np.all(got[(t <= 0) | (rho >= kernels.SUPPORT)] == 0.0)
    assert np.count_nonzero(got) > len(t) // 5
    # broadcast and scalar inputs take the same route
    assert np.array_equal(kernel.dx(t[None, :20], x[None, :20]), got[None, :20])
    scalar = kernel.dx(0.6, 0.3)
    assert np.ndim(scalar) == 0 and scalar != 0
    assert scalar == _dense_dx(kernel, np.array([0.6]), np.array([0.3]))[0]


def test_value_and_correction_on_points_evaluate_only_the_support(kernel, monkeypatch):
    rng = np.random.default_rng(13)
    t = rng.uniform(-0.3, 1.3, 3000)
    x = rng.uniform(-1.3, 1.3, 3000)
    # t = 0, rho = 1, |x| = 1, negative t, far outside
    edges = np.array([(0.0, 0.0), (0.0, 0.4), (0.0, -1.0), (1.0, 0.0), (0.6, 0.8 ** 0.5),
                      (0.5, 1.0), (0.5, -1.0), (-0.2, 0.1), (1e3, 50.0)])
    t = np.concatenate([edges[:, 0], t])
    x = np.concatenate([edges[:, 1], x])
    rho = kernels.parabolic_norm(t, x)
    live = (t > 0) & (rho < kernels.SUPPORT)
    correction = kernel._correction_at(t, x, rho)
    wants = {"value": heat_kernel(t, x) * kernels._chi(rho) + correction,
             "correction": correction}

    seen = _record_formula(monkeypatch, "_correction_at")
    for method, want in wants.items():
        seen.clear()
        got = getattr(kernel, method)(t, x)
        assert np.array_equal(got, want)
        ((ct, cx, cr),) = seen
        assert np.array_equal(ct, t[live]) and np.array_equal(cx, x[live])
        assert np.array_equal(cr, rho[live])
        assert np.all(got[~live] == 0.0)
        assert np.count_nonzero(got) > len(t) // 5


@pytest.mark.parametrize("method", TENSOR_METHODS + ["correction_dx", "dx"])
def test_infinite_points_give_zero_and_nan_raises(kernel, method):
    f = getattr(kernel, method)
    inf, nan = np.inf, np.nan
    t = np.array([inf, -inf, 0.5, 0.5, inf, -inf, 1e200, 0.5, 0.5])
    x = np.array([0.0, 0.3, inf, -inf, inf, -inf, 0.1, 1e200, 0.2])
    got = f(t, x)
    assert np.all(got[:-1] == 0.0) and got[-1] != 0.0
    # a sorted tensor grid with infinite ends: only its one finite point is live
    grid = f(np.array([[-inf], [0.5], [inf]]), np.array([[-inf, 0.2, inf]]))
    np.testing.assert_allclose(grid, np.diag([0.0, got[-1], 0.0]), rtol=1e-12, atol=0)
    for bad_t, bad_x in [(nan, 0.2), (0.5, nan), (np.array([0.5, nan]), 0.2),
                         (np.array([[nan]]), np.array([[0.2]])),
                         (np.array([[0.1], [nan], [0.5]]), np.array([[0.2]]))]:
        with pytest.raises(ValueError):
            f(bad_t, bad_x)


def test_shape_blocks_match_fitpack(kernel):
    """Point evaluations of the annulus shape and of its x-derivative read the
    shape's cell blocks for x >= 0 through its evenness.  They agree with
    FITPACK's ``ev`` to rounding, not bit for bit: at random points, at every
    knot, 1e-9 either side of each cell edge and on the box's edges.  Off the
    box both are 0."""
    box = kernels.SHAPE_BOX
    t_knots, x_knots = (np.unique(k) for k in kernel.shape.get_knots())
    step = 1e-9
    t_edges = np.concatenate([t_knots - step, t_knots + step])
    x_edges = np.concatenate([x_knots - step, x_knots + step])
    grids = [np.meshgrid(t_knots, x_knots), np.meshgrid(t_edges, x_edges),
             np.meshgrid(t_knots, [box, -box, 0.0]), np.meshgrid([0.0, box], x_knots)]
    rng = np.random.default_rng(12)
    t = np.concatenate([rng.uniform(-0.1, 1.1, 4000)] + [g[0].ravel() for g in grids])
    x = np.concatenate([rng.uniform(-1.1, 1.1, 4000)] + [g[1].ravel() for g in grids])
    value, slope = kernel._shape_eval(t, x, dx=True)
    assert np.array_equal(kernel._shape_eval(t, x), value)
    inside = (t >= 0) & (t <= box) & (np.abs(x) <= box)
    assert 0 < inside[:4000].sum() < 4000 and inside[4000 + t_knots.size * x_knots.size:].any()
    for got, dy in ((value, 0), (slope, 1)):
        want = kernel.shape.ev(t[inside], x[inside], dy=dy)
        scale = np.max(np.abs(want))
        assert scale > 1.0
        np.testing.assert_allclose(got[inside], want, rtol=0, atol=1e-12 * scale)
        assert np.all(got[~inside] == 0.0)


def _loop_annulus_shape(nt, nx):
    """The annulus quadratic program with its difference operator built by a
    scalar loop over cell edges, one cut heat kernel call per edge."""
    t_cells = (np.arange(nt) + 0.5) / nt
    x_cells = (np.arange(nx) + 0.5) * 1.01 / nx
    dt_c = 1.0 / nt
    dx_c = x_cells[1] - x_cells[0]
    T, X = np.meshgrid(t_cells, x_cells, indexing="ij")
    rho = kernels.parabolic_norm(T, X)
    allowed = (rho > kernels.PLATEAU + kernels.MASK_IN) & \
        (rho < kernels.SUPPORT - kernels.MASK_OUT) & (T > kernels.MASK_T)
    idx = -np.ones((nt, nx), dtype=int)
    ids = np.flatnonzero(allowed.ravel())
    idx.ravel()[ids] = np.arange(len(ids))
    n = len(ids)

    rows, cols, vals, avals = [], [], [], []
    r_cnt = 0
    for i in range(nt):
        for j in range(1, nx + 1):
            left = idx[i, j - 1] if allowed[i, j - 1] else -1
            right = idx[i, j] if (j < nx and allowed[i, j]) else -1
            if left < 0 and right < 0:
                continue
            xm = x_cells[j - 1] + dx_c / 2
            if right >= 0:
                rows.append(r_cnt)
                cols.append(right)
                vals.append(1.0 / dx_c)
            if left >= 0:
                rows.append(r_cnt)
                cols.append(left)
                vals.append(-1.0 / dx_c)
            ti, xi = np.array(t_cells[i]), np.array(xm)
            rho_i = kernels.parabolic_norm(ti, xi)
            avals.append(float(kernels._cut_heat_dx(ti, xi, rho_i)))
            r_cnt += 1
    D_op = sp.csr_matrix((vals, (rows, cols)), shape=(r_cnt, n))
    w_edge = 2.0 * dt_c * dx_c
    Q = (D_op.T @ D_op) * w_edge
    b = (D_op.T @ np.array(avals)) * w_edge

    target = -kernels._plateau_moments()
    L = np.stack([np.full(n, w_edge), w_edge * T.ravel()[ids],
                  w_edge * X.ravel()[ids] ** 2])
    KKT = sp.bmat([[Q, sp.csr_matrix(L).T], [sp.csr_matrix(L), None]],
                  format="csc")
    c = spsolve(KKT, np.concatenate([-b, target]))[:n]

    values = np.zeros((nt, nx))
    values.ravel()[ids] = c
    t_grid = np.concatenate([[-0.02, 0.0], t_cells, [1.0, 1.02]])
    data = np.vstack([np.zeros((2, nx)), values, np.zeros((2, nx))])
    x_grid = np.concatenate([[-1.02], -x_cells[::-1], x_cells, [1.02]])
    data = np.hstack([np.zeros((data.shape[0], 1)), data[:, ::-1], data,
                      np.zeros((data.shape[0], 1))])
    return RectBivariateSpline(t_grid, x_grid, data, kx=3, ky=3, s=0)


def test_optimal_annulus_shape_matches_edge_loop():
    target = -kernels._plateau_moments()
    got = kernels._optimal_annulus_shape(target, nt=30, nx=44).get_coeffs()
    want = _loop_annulus_shape(30, 44).get_coeffs()
    assert np.count_nonzero(want) > 100
    np.testing.assert_allclose(got, want, rtol=1e-10,
                               atol=1e-12 * np.max(np.abs(want)))


def _dense_smooth_step(v):
    """The step with both exponentials taken at every point."""
    v = np.asarray(v, dtype=float)
    a = np.zeros_like(v)
    b = np.zeros_like(v)
    pos = v > 0
    a[pos] = np.exp(-1.0 / v[pos])
    neg = v < 1
    b[neg] = np.exp(-1.0 / (1.0 - v[neg]))
    return a / (a + b)


def _dense_smooth_step_d(v):
    """The step's derivative with both exponentials taken at every point."""
    v = np.asarray(v, dtype=float)
    a = np.zeros_like(v)
    ap = np.zeros_like(v)
    b = np.zeros_like(v)
    bp = np.zeros_like(v)
    pos = v > 0
    a[pos] = np.exp(-1.0 / v[pos])
    ap[pos] = a[pos] / v[pos] ** 2
    neg = v < 1
    b[neg] = np.exp(-1.0 / (1.0 - v[neg]))
    bp[neg] = -b[neg] / (1.0 - v[neg]) ** 2
    denom = (a + b) ** 2
    out = np.zeros_like(v)
    ok = denom > 0
    out[ok] = (ap[ok] * b[ok] - a[ok] * bp[ok]) / denom[ok]
    return out


STEP_POINTS = np.concatenate([
    [0.0, -0.0, 1.0, 5e-324, 1e-300, 1e-3, 0.5, 1 - 2.0 ** -53, 1 + 2.0 ** -52,
     -5e-324, 1e300, -1e300, np.inf, -np.inf, np.nan],
    np.linspace(-0.5, 1.5, 401),
])


@pytest.mark.parametrize("step, dense", [(kernels._smooth_step, _dense_smooth_step),
                                         (kernels._smooth_step_d, _dense_smooth_step_d)])
def test_banded_steps_match_dense_form(step, dense):
    # In the dense form 1 / 5e-324 overflows and, in the derivative, 0 / 0
    # gives NaN at tiny positive v.  The banded form takes no exponential
    # below _STEP_FLOOR, where exp(-1/v) is 0, and returns exact 0 there.
    def want_of(v):
        with np.errstate(over="ignore", invalid="ignore"):
            want = dense(v)
        return np.where(np.isnan(want) & ~np.isnan(v), 0.0, want)

    with np.errstate(over="raise", invalid="raise", divide="raise"):
        for v in (STEP_POINTS, STEP_POINTS.reshape(8, -1), STEP_POINTS[:0]):
            got, want = step(v), want_of(v)
            assert got.shape == want.shape
            np.testing.assert_array_equal(got, want, strict=True)
            # exact zeros keep their sign bits (a NaN's sign is not kept)
            num = ~np.isnan(want)
            assert np.array_equal(np.signbit(got[num]), np.signbit(want[num]))
        for v in (0.3, 1e-3, 0.99, -2.0, 1.0, np.array(0.3), np.array(7.0)):
            got = step(v)
            assert np.ndim(got) == 0 and got == want_of(np.array([v]))[0]
    inside = (STEP_POINTS > 0.01) & (STEP_POINTS < 0.99)
    assert np.count_nonzero(step(STEP_POINTS[inside])) == np.count_nonzero(inside) > 100


def _two_pass_knot_cell_moments(f, cells, powers=((0, 0),)):
    """``int t^p f(t, x) x^(2q) * {1, t, x^2}`` on the knot cells, one
    column per ``(p, q)``, by a walk over the blocks of its own."""
    tmid, twgt, xmid, xwgt = cells
    x_pow = 2 * np.arange(max(q for _, q in powers) + 2)
    proj = (2.0 * xwgt)[:, None] * xmid[:, None] ** x_pow
    rows = np.vstack([f(tmid[i:i + kernels.KNOT_CELL_BLOCK, None], xmid[None, :]) @ proj
                      for i in range(0, len(tmid), kernels.KNOT_CELL_BLOCK)])
    return np.array([[(twgt * tmid ** p) @ rows[:, q],
                      (twgt * tmid ** (p + 1)) @ rows[:, q],
                      (twgt * tmid ** p) @ rows[:, q + 1]]
                     for p, q in powers]).T


def test_touch_up_system_matches_two_pass_route(kernel):
    cells = kernels._knot_cells(kernel.shape, 3)
    assert len(cells[0]) > kernels.KNOT_CELL_BLOCK  # more than one block
    raw = kernels.TruncatedKernel((0.0,) * len(kernels.TOUCH_UP_POWERS), kernel.shape)
    shape_moments, touch_up = kernels._touch_up_system(kernel.shape, cells)
    want = _two_pass_knot_cell_moments(raw.correction, cells)[:, 0]
    assert np.array_equal(shape_moments, want) and np.all(want != 0)
    assert np.array_equal(touch_up, _two_pass_knot_cell_moments(
        raw.mask, cells, kernels.TOUCH_UP_POWERS))
    assert touch_up.shape == (3, len(kernels.TOUCH_UP_POWERS))
    # the post-solve check's pass on the finished kernel
    (check,) = kernels._knot_cell_moments(lambda t, x: (kernel.correction(t, x),),
                                          cells, ((0, 0),))
    assert np.array_equal(check, _two_pass_knot_cell_moments(kernel.correction, cells))


def _panels(lo, hi, n_panels, nodes):
    edges = np.linspace(lo, hi, n_panels + 1)
    pts, wts = zip(*(_gauss_legendre(nodes, a, b) for a, b in zip(edges[:-1], edges[1:])))
    return np.concatenate(pts), np.concatenate(wts)


def test_kernel_moment_identities(kernel):
    """``int K * {1, t, x^2} = 0`` by a quadrature of its own.

    The cut heat part ``K - correction`` is integrated in ``u = x / (2 sqrt t)``,
    in which its small-time peak is the fixed Gaussian ``exp(-u^2)``; the
    correction is integrated in (t, x) on [0, 1.02]^2.  Both are even in x.
    """
    t, wt = _panels(0.0, 1.0, 64, 10)
    u, wu = _panels(0.0, 7.0, 28, 10)
    T = t[:, None]
    X = 2.0 * np.sqrt(T) * u[None, :]
    W = 2.0 * np.outer(wt, wu) * 2.0 * np.sqrt(T)
    heat = (kernel.value(T, X) - kernel.correction(T, X)) * W
    tc, wc = _panels(0.0, 1.02, 136, 10)
    Tc, Xc = tc[:, None], tc[None, :]
    corr = kernel.correction(Tc, Xc) * 2.0 * np.outer(wc, wc)
    moments = [np.sum(heat) + np.sum(corr),
               np.sum(heat * T) + np.sum(corr * Tc),
               np.sum(heat * X ** 2) + np.sum(corr * Xc ** 2)]
    # the heat part alone carries order-one moments, so the sums test the
    # correction's cancellation
    assert abs(np.sum(heat)) > 0.1
    assert np.max(np.abs(moments)) <= 1e-6, moments


EPS = 0.25


def _reference_leg(model, kernel, t, x, shear=0.0, nodes=400):
    """``eps int int phi_t(s) d_y phi_x(y) K(eps^2 (t - s), eps (x - y - shear s))``
    by a ``nodes``-point Gauss-Legendre product rule per bump term.

    K vanishes for s >= t, so where t lies inside a term's time support the
    s-rule covers only [s_lo, t], in sigma = sqrt(t - s): the kernel's
    small-time peak ``1/sigma`` is then cancelled by ``ds = 2 sigma dsigma``.
    """
    g, w = np.polynomial.legendre.leggauss(nodes)
    total = 0.0
    for term in model.terms:
        s_lo = term.t_center - term.t_halfwidth
        if t <= s_lo:
            continue
        if t >= term.t_center + term.t_halfwidth:
            s = term.t_center + term.t_halfwidth * g
            ws = smooth_bump(g) * w * term.t_halfwidth
        else:
            reach = np.sqrt(t - s_lo)
            sigma = reach * (g + 1.0) / 2.0
            s = t - sigma ** 2
            ws = smooth_bump((s - term.t_center) / term.t_halfwidth) \
                * 2.0 * sigma * reach / 2.0 * w
        y = term.x_center + term.x_halfwidth * g
        wy = smooth_bump_dx(g) * w
        values = kernel.value(EPS ** 2 * (t - s[:, None]),
                              EPS * (x - y[None, :] - shear * s[:, None]))
        total += EPS * term.amplitude * float(ws @ values @ wy)
    return total


@pytest.fixture(scope="module")
def leg_table(kernel):
    return kernels.LegTable(default_even_model(), kernel, EPS)


@pytest.fixture(scope="module")
def sheared_leg_table(kernel):
    """The skew model's table in a frame sheared by 0.3, as
    ``chat_fixed_point`` builds it."""
    return kernels.LegTable(default_asymmetric_model(), kernel, EPS, 0.3)


def test_leg_table_odd_and_matches_product_rule(kernel, leg_table):
    model = default_even_model()
    table = leg_table
    # four probes inside the bump's time support |s| <= t_reach, where the
    # kernel switches on at s = t, and five after it
    probes = np.array([(0.3, 0.2), (0.0, 0.3), (-0.3, 0.2), (0.1, 0.1),
                       (0.8, 0.3), (1.0, 0.5), (2.0, 1.0), (5.0, 2.0), (9.0, -1.5)])
    assert np.all(np.abs(probes[:4, 0]) < model.t_reach)
    assert np.all(probes[4:, 0] > model.t_reach)
    got = table.ev(probes)
    mirrored = table.ev(probes * np.array([1.0, -1.0]))
    np.testing.assert_allclose(mirrored, -got, rtol=1e-9, atol=1e-15)
    want = np.array([_reference_leg(model, kernel, t, x) for t, x in probes])
    assert np.all(np.abs(want) > 1e-4)
    np.testing.assert_allclose(got, want, rtol=0.01)


def test_sheared_leg_table_matches_product_rule(kernel, sheared_leg_table):
    """The sheared skew table inside and after each term's support.

    The probes are table nodes, where the spline returns the quadrature
    itself.  Between nodes the spline's step (0.08) is coarse for these
    bumps of half-width 0.15: at (0.1, 0.1) it is 41 % off.
    """
    model = default_asymmetric_model()
    shear = 0.3
    table = sheared_leg_table
    # the terms' time supports are [-0.25, 0.05] and [-0.05, 0.25]
    probes = np.array([(-0.16, 0.0), (-0.08, -0.08), (-0.08, 0.16),  # inside the first
                       (0.0, 0.0), (0.0, 0.16),                       # inside both
                       (0.08, -0.08), (0.16, 0.16), (0.16, 0.32),     # after the first
                       (0.32, 0.32), (0.96, 0.48), (2.0, -1.04)])     # after both
    assert [(term.t_center, term.t_halfwidth) for term in model.terms] == \
        [(-0.1, 0.15), (0.1, 0.15)]
    t_nodes, x_nodes = (np.unique(k) for k in table.spline.get_knots())
    assert np.all(np.min(np.abs(probes[:, :1] - t_nodes), axis=1) < 1e-9)
    assert np.all(np.min(np.abs(probes[:, 1:] - x_nodes), axis=1) < 1e-9)
    got = table.ev(probes)
    want = np.array([_reference_leg(model, kernel, t, x, shear) for t, x in probes])
    assert np.all(np.abs(want) > 1e-2)
    np.testing.assert_allclose(got, want, rtol=0.01)


def test_unsheared_leg_table_keeps_the_tensor_grid_path(kernel, monkeypatch):
    def no_pointwise(*args, **kwargs):
        raise AssertionError("the leg table evaluated the kernel point by point")

    # points would go through FITPACK's ``ev`` or through the cell blocks
    monkeypatch.setattr(kernel.shape, "ev", no_pointwise)
    monkeypatch.setattr(kernels._BlockSpline, "__call__", no_pointwise)
    table = kernels.LegTable(default_asymmetric_model(), kernel, 0.5)
    monkeypatch.undo()  # the table itself reads its cell blocks
    assert np.all(np.isfinite(table.ev(np.array([(0.0, 0.1), (1.0, 0.5)]))))


def _per_node_leg_values(model, kernel, eps, shear, t_axis, x_axis):
    """The leg table's node values with one kernel call per (s, y) node pair
    after each term's time support and one per y node inside it."""
    g, w = _gauss_legendre(kernels.LEG_QUAD_NODES, -1.0, 1.0)
    u, wu = _gauss_legendre(kernels.LEG_QUAD_NODES, 0.0, 1.0)
    values = np.zeros((len(t_axis), len(x_axis)))
    for term in model.terms:
        s_lo = term.t_center - term.t_halfwidth
        s_hi = term.t_center + term.t_halfwidth
        y_nodes = term.x_center + term.x_halfwidth * g
        y_w = smooth_bump_dx(g) * w
        s_nodes = term.t_center + term.t_halfwidth * g
        s_w = smooth_bump(g) * w * term.t_halfwidth * term.amplitude
        after = t_axis >= s_hi
        for sn, sw in zip(s_nodes, s_w):
            tt = eps ** 2 * (t_axis - sn)
            rows = after & (tt > 0) & (tt < kernels.SUPPORT ** 2)
            block = np.zeros((len(t_axis), len(x_axis)))
            for yn, yw in zip(y_nodes, y_w):
                xs = x_axis[None, :] - (yn + shear * sn)
                block[rows] += yw * kernel.value(tt[rows, None], eps * xs)
            values += sw * eps * block
        inside = np.flatnonzero((t_axis > s_lo) & (t_axis < s_hi))
        reach = np.sqrt(t_axis[inside] - s_lo)[:, None]
        sigma = reach * u
        s = t_axis[inside, None] - sigma ** 2
        weight = eps * term.amplitude * 2.0 * sigma * reach * wu \
            * smooth_bump((s - term.t_center) / term.t_halfwidth)
        for yn, yw in zip(y_nodes, y_w):
            k = kernel.value((eps * sigma[..., None]) ** 2,
                             eps * (x_axis - (yn + shear * s[..., None])))
            values[inside] += yw * np.einsum("rk,rkx->rx", weight, k)
    return values


@pytest.mark.parametrize("make_model, shear", [(default_even_model, 0.0),
                                               (default_asymmetric_model, 0.3)])
def test_leg_node_values_match_per_node_loop(kernel, make_model, shear):
    """One kernel call per s node on a sorted tensor grid covering every y
    node gives the per-node loop's values to rounding."""
    model = make_model()
    t_axis = kernels._graded_axis(4.0, 1.0 / EPS ** 2 + model.t_reach + 1.0, 0.08, 1.10)
    x_axis = kernels._graded_axis(4.0, 1.0 / EPS + model.x_reach + 1.0, 0.08, 1.10)
    got = kernels._leg_node_values(model, kernel, EPS, shear, t_axis, x_axis)
    want = _per_node_leg_values(model, kernel, EPS, shear, t_axis, x_axis)
    scale = np.max(np.abs(want))
    assert scale > 0.1 and np.count_nonzero(want) > want.size // 3
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-13 * scale)


def test_leg_table_ev_is_the_spline_inside_its_box(leg_table, sheared_leg_table):
    """``ev`` reads the FITPACK spline from its own cell coefficients, so it
    agrees with ``spline.ev`` to rounding, not bit for bit: at random
    points, at every knot, just either side of each cell edge and on the
    box's four edges.  Off the box it is 0."""
    rng = np.random.default_rng(5)
    for table in (leg_table, sheared_leg_table):
        t_knots, x_knots = (np.unique(k) for k in table.spline.tck[:2])
        t_knots = t_knots[np.abs(t_knots) <= table.t_max]
        x_knots = x_knots[np.abs(x_knots) <= table.x_max]
        step = 1e-9
        t_edges = np.concatenate([t_knots - step, t_knots + step])
        x_edges = np.concatenate([x_knots - step, x_knots + step])
        t_edges = t_edges[np.abs(t_edges) <= table.t_max]
        x_edges = x_edges[np.abs(x_edges) <= table.x_max]
        box_t = [table.t_max, -table.t_max, 0.0, 0.0]
        box_x = [0.0, 0.0, table.x_max, -table.x_max]
        grids = [np.meshgrid(t_knots, x_knots), np.meshgrid(t_edges, x_edges),
                 np.meshgrid(t_knots, [table.x_max, -table.x_max]),
                 np.meshgrid([table.t_max, -table.t_max], x_knots)]
        t = np.concatenate([rng.uniform(-1.3, 1.3, 4000) * table.t_max, box_t]
                           + [g[0].ravel() for g in grids])
        x = np.concatenate([rng.uniform(-1.3, 1.3, 4000) * table.x_max, box_x]
                           + [g[1].ravel() for g in grids])
        got = table.ev(np.stack([t, x], axis=1))
        inside = (np.abs(t) <= table.t_max) & (np.abs(x) <= table.x_max)
        assert inside[4000:].all() and 0 < inside[:4000].sum() < 4000
        scale = np.max(np.abs(table.spline(t_knots, x_knots)))
        np.testing.assert_allclose(got[inside], table.spline.ev(t[inside], x[inside]),
                                   rtol=0, atol=1e-12 * scale)
        assert np.all(got[~inside] == 0.0)
        if table is leg_table:  # the even model's table is odd in x
            mirrored = table.ev(np.stack([t, -x], axis=1))
            np.testing.assert_allclose(mirrored, -got, rtol=1e-9, atol=1e-15)
    assert leg_table.ev(np.zeros((3, 5, 2))).shape == (3, 5)


def test_leg_table_cache_evicts_least_recently_used(monkeypatch):
    built = []

    class StubTable:
        def __init__(self, model, kernel, eps, shear):
            built.append(shear)

    monkeypatch.setattr(kernels, "LegTable", StubTable)
    monkeypatch.setattr(kernels, "_LEG_TABLE_CACHE", OrderedDict())
    model = default_even_model()
    size = kernels.LEG_TABLE_CACHE_SIZE
    shears = [0.1 * i for i in range(size + 3)]
    kernel = SimpleNamespace()
    first = kernels.get_leg_table(model, kernel, EPS, shears[0])
    for shear in shears[1:size]:
        kernels.get_leg_table(model, kernel, EPS, shear)
    # a hit refreshes the first table, so the second is now the oldest
    assert kernels.get_leg_table(model, kernel, EPS, shears[0]) is first
    for shear in shears[size:]:
        kernels.get_leg_table(model, kernel, EPS, shear)
    cache = kernels._LEG_TABLE_CACHE
    assert len(cache) == size and len(built) == len(shears)
    kept = {key[-1] for key in cache}
    assert kept == {round(s, 12) for s in [shears[0]] + shears[4:]}
    cache.clear()
    assert not cache


def test_leg_table_cache_keys_on_the_kernel(monkeypatch):
    built = []

    class StubTable:
        def __init__(self, model, kernel, eps, shear):
            built.append(kernel)

    monkeypatch.setattr(kernels, "LegTable", StubTable)
    monkeypatch.setattr(kernels, "_LEG_TABLE_CACHE", OrderedDict())
    model = default_even_model()
    first, second = SimpleNamespace(), SimpleNamespace()
    a = kernels.get_leg_table(model, first, EPS)
    b = kernels.get_leg_table(model, second, EPS)
    assert a is not b and [id(k) for k in built] == [id(first), id(second)]
    assert kernels.get_leg_table(model, first, EPS) is a
    assert kernels.get_leg_table(model, second, EPS) is b
    assert len(built) == 2
    # each entry keeps its kernel alive, so its id cannot be taken by another
    assert {id(entry[0]) for entry in kernels._LEG_TABLE_CACHE.values()} \
        == {id(first), id(second)}


def test_c0_levels_off_at_its_exact_limit(kernel):
    """C0 = A / eps + B + o(1) with ``A = c0_exact_limit``: the remainder B
    agrees between the two finest scales within 4 combined stderr."""
    model = default_even_model()
    a = kernels.c0_exact_limit(model)
    rows = [(eps, *kernels.compute_constant("C0", model, kernel, eps,
                                            mc_budget=200_000, seed=1))
            for eps in (0.0625, 0.03125)]
    (e1, c1, s1), (e2, c2, s2) = rows
    b1, b2 = c1 - a / e1, c2 - a / e2
    assert 0.3 < a < 0.35
    assert 0 < s1 < 0.1 and 0 < s2 < 0.1
    assert abs(b1 - b2) <= 4.0 * np.hypot(s1, s2), rows
    # the divergent part dominates: B is order one against A/eps ~ 5 and 10
    assert 0.5 < b1 < 3.0 and 0.5 < b2 < 3.0


def _dense_pdf_single_scale(pts, s, flat_fraction=0.25):
    """The proposal density with every term evaluated at every point."""
    t, x = np.abs(pts[..., 0]), pts[..., 1]
    ts, xs = t / s ** 2, x / s
    ok = (ts > 0) & (ts <= 1.0)
    tt = np.where(ok, ts, 1.0)
    dens = np.where(ok, np.abs(xs) * np.exp(-xs * xs / (4 * tt)) / (8 * tt ** 1.5),
                    0.0)
    sf = 1.5 * s
    flat = np.where((t <= sf ** 2) & (np.abs(x) <= sf), 1.0 / (4 * sf ** 3), 0.0)
    return (1 - flat_fraction) * 0.5 * dens / s ** 3 + flat_fraction * flat


@pytest.mark.parametrize("s", [1.0, 2.0, 8.0])
def test_proposal_density_matches_dense_form(s):
    """Every scale's row of the density, which takes one exponential per
    point for all scales, is the dense single-scale form bit for bit."""
    rng = np.random.default_rng(7)
    pts = rng.normal(size=(20_000, 2)) * np.array([2.0 * s * s, 2.0 * s])
    # t = 0; t / s^2 = 1 for both signs of t and just past it; the flat
    # box's corner; x = 0
    pts[:6] = [(0.0, 0.3), (s * s, 0.5), (-s * s, 0.5),
               (np.nextafter(s * s, np.inf), 0.5), (2.25 * s * s, 1.5 * s),
               (0.5 * s * s, 0.0)]
    scales = np.array([1.0, 2.0, 4.0, 8.0])
    rows = kernels._pdf_scales(pts, scales)
    grid = pts[:600].reshape(20, 30, 2)
    grid_rows = kernels._pdf_scales(grid, scales)
    assert rows.shape == (4, len(pts)) and grid_rows.shape == (4, 20, 30)
    for k, scale in enumerate(scales):
        assert np.array_equal(rows[k], _dense_pdf_single_scale(pts, scale))
        assert np.array_equal(grid_rows[k], _dense_pdf_single_scale(grid, scale))
    row = rows[list(scales).index(s)]
    assert 0 < np.count_nonzero(row) < len(pts)


@pytest.mark.parametrize("name, reads", [("C0", 1), ("C1", 2), ("C21", 4),
                                         ("C22", 3), ("C31", 4), ("C32", 2)])
def test_each_distinct_leg_is_read_once_per_chunk(kernel, leg_table, monkeypatch,
                                                  name, reads):
    """A blob that lists a target twice (C0's ``(0, 0)``, C1's ``(0, y, y)``,
    C22's ``(m, 0, t, t)``, C32's ``(l, r, l, r)``) reads that leg once."""
    calls = []
    ev = kernels.LegTable.ev

    def counting_ev(self, pts):
        calls.append(pts.shape[:-1])
        return ev(self, pts)

    monkeypatch.setattr(kernels, "MC_CHUNK_SIZE", 300)
    monkeypatch.setattr(kernels, "get_leg_table", lambda *args: leg_table)
    monkeypatch.setattr(kernels.LegTable, "ev", counting_ev)
    value, err = kernels.compute_constant(name, default_even_model(), kernel, EPS,
                                          mc_budget=600, seed=0)
    assert calls == [(300,)] * (2 * reads)
    assert np.isfinite(value) and err > 0


def test_proposal_density_blocks_leave_the_estimate_unchanged(kernel, leg_table,
                                                              monkeypatch):
    monkeypatch.setattr(kernels, "get_leg_table", lambda *args: leg_table)
    args = (kernels.DIAGRAMS["C22"], default_even_model(), kernel, EPS, 600)
    whole = kernels.evaluate_diagram(*args)
    monkeypatch.setattr(kernels, "PDF_BLOCK", 250)  # two full blocks and a part
    assert kernels.evaluate_diagram(*args) == whole


@pytest.mark.parametrize("eps, budget, v_h", [
    pytest.param(0.25, 0, 0.0, id="0.25-0"), pytest.param(0.25, 1, 0.0, id="0.25-1"),
    pytest.param(-0.25, 1000, 0.0, id="-0.25-1000"),
    pytest.param(float("nan"), 1000, 0.0, id="nan-1000"),
    (0.25, 1000, float("nan")), (0.25, 1000, float("inf")), (0.25, 1000, -float("inf"))])
def test_bad_eps_or_budget_raises_value_error(kernel, eps, budget, v_h):
    model = default_even_model()
    with pytest.raises(ValueError):
        kernels.evaluate_diagram(kernels.DIAGRAMS["C0"], model, kernel, eps, budget,
                                 v_h=v_h)
    with pytest.raises(ValueError):
        kernels.compute_constant("C0", model, kernel, eps, mc_budget=budget, v_h=v_h)
    # the first iterate shears by 4 lam^2 * 0, which is NaN for a non-finite lam
    with pytest.raises(ValueError):
        kernels.chat_fixed_point(model, kernel, eps, lam=v_h or 1.0, mc_budget=budget)


def test_chat_fixed_point_on_skew_model(kernel):
    """The fixed point ``c = F(c)`` of the sheared ``chat`` diagram agrees with
    one independent evaluation of ``F`` at ``v_h = 4 c``."""
    model = default_asymmetric_model()
    c, iterations = kernels.chat_fixed_point(model, kernel, 0.25,
                                             mc_budget=100_000, seed=0)
    value, err = kernels.evaluate_diagram(kernels.DIAGRAMS["chat"], model,
                                          kernel, 0.25, 100_000, seed=1,
                                          v_h=4.0 * c)
    assert 1 < iterations < 10
    assert np.isfinite(c) and 0 < err < 0.1
    # both estimates have the same budget, so the same stderr
    assert abs(c - value) <= 4.0 * np.sqrt(2.0) * err, (c, value, err)
