import numpy as np

from kpzlab import kernels
from kpzlab.noise import _gauss_legendre, default_even_model


def test_smeared_theta_matches_double_loop(monkeypatch):
    def theta_stub(z, kernel):
        z = np.asarray(z, dtype=float)
        return np.exp(-z[..., 0] ** 2 - 3.0 * z[..., 1] ** 2) * (1.0 + z[..., 1])

    monkeypatch.setattr(kernels, "theta_from_table", theta_stub)
    model = default_even_model()
    eps = 0.3
    pts = np.array([[0.0, 0.0], [0.4, -0.7], [-1.1, 0.25]])
    got = kernels._smeared_theta(model, None, eps, pts)

    tg, wt = _gauss_legendre(12, -2.0 * model.t_reach, 2.0 * model.t_reach)
    xg, wx = _gauss_legendre(20, -2.0 * model.x_reach, 2.0 * model.x_reach)
    k2 = [[float(model.kappa2(t, x)) for x in xg] for t in tg]
    want = np.zeros(len(pts))
    for p, (ps, py) in enumerate(pts):
        for i in range(len(tg)):
            for j in range(len(xg)):
                z = np.array([eps ** 2 * (ps - tg[i]), eps * (py - xg[j])])
                want[p] -= theta_stub(z, None) * k2[i][j] * wt[i] * wx[j]
    assert np.allclose(got, want, rtol=1e-12, atol=1e-15)
    assert np.all(np.abs(want) > 1e-3)
