"""Workload ``clt``: the noise layer's pairing windows and Poisson sampling.

One round runs ``clt_check`` on the space-even model at scales down to
eps=0.05: exact pairing windows at each scale, Poisson cloud draws
interpolated on them, and empirical cumulants.  No kernel and no solver
run here.  Every round repeats the same seed.  The report's ``verdict`` is
not used: it fits a decay exponent to exact third cumulants that are zero
up to rounding.
"""

from __future__ import annotations

import numpy as np

from kpzlab import noise

EPS_LIST = (0.2, 0.1, 0.05)
N_SAMPLES = 4000
T_WINDOW = (0.02, 0.18)
K_SIGMA = 5.0
#: kappa_2 of a pairing differs from <eta, eta> by the bump's smoothing,
#: which is O(eps^2); checked at the two coarse scales, where windows are cheap.
KAPPA2_EPS = (0.2, 0.1)
KAPPA2_TOL = 3.0  # |kappa_2 - <eta, eta>| <= KAPPA2_TOL * eps^2


def gram(etas) -> np.ndarray:
    """Gram matrix of the test functions: Gauss-Legendre in t over the time
    window (the time factor is supported in it) and the periodic trapezoid
    rule in x, exact for the trigonometric space factor."""
    g, w = np.polynomial.legendre.leggauss(64)
    lo, hi = T_WINDOW
    t = (lo + hi) / 2 + (hi - lo) / 2 * g
    wt = (hi - lo) / 2 * w
    x = np.arange(64) / 64
    values = [eta(t[:, None], x[None, :]) for eta in etas]
    return np.array([[float(wt @ (a * b).mean(axis=1)) for b in values] for a in values])


def setup(seed: int) -> dict:
    return {"model": noise.default_even_model(), "seed": seed}


def run_round(state: dict) -> dict:
    report = noise.clt_check(state["model"], EPS_LIST, n_samples=N_SAMPLES,
                             seed=state["seed"], t_window=T_WINDOW)
    return {"report": report, "ops": 1 + len(EPS_LIST), "failed": 0}


def check(state: dict, results: list) -> list[str]:
    problems = []
    etas = noise.make_test_functions(T_WINDOW)
    inner = gram(etas)
    for res in results:
        report = res["report"]
        cov = np.array(report["covariance"])
        err = np.array(report["covariance_stderr"])
        if np.any(np.abs(cov - inner) > K_SIGMA * err):
            problems.append(f"pairing covariance {cov.tolist()} against Gram "
                            f"{inner.tolist()} with stderr {err.tolist()}")
        for row in report["third_cumulant"]:
            if not abs(row["empirical"]) <= K_SIGMA * row["stderr"]:
                problems.append(f"eps={row['eps']}: empirical kappa_3 "
                                f"{row['empirical']} ± {row['stderr']} is not 0")
        if report != results[0]["report"]:
            problems.append("a round with the same seed gave another report")
    for eps in KAPPA2_EPS:
        windows = noise.PairingWindows(state["model"], eps, etas[:1], T_WINDOW)
        kappa2 = windows.exact_cumulant(2, 0)
        if not abs(kappa2 - inner[0, 0]) <= KAPPA2_TOL * eps ** 2:
            problems.append(f"eps={eps}: exact kappa_2 {kappa2} against "
                            f"<eta, eta> {inner[0, 0]}")
    return problems


def extras(state: dict, result: dict) -> dict:
    return {}
