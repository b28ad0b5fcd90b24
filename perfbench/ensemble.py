"""Workload ``ensemble``: the solver against the Hopf-Cole reference.

One round runs ``convergence_study`` on the space-even model: member clouds
shared across the two scales, a Hopf-Cole reference ensemble, and the
distance statistics.  The grid (n_x=128, T=0.15, dt=dx^2/4) makes one
renormalised member take about a second.  The counterterms are zeros: no
code maps the constants to the five ell yet, and on the even model ell only
shifts every height by a spatial constant, which the centred statistics
checked here do not see.  Every round repeats the same master seed.
"""

from __future__ import annotations

import math

import numpy as np

from kpzlab import noise, sim

EPS_LIST = (0.2, 0.1)
N_MEMBERS = 6
N_X = 128
T = 0.15
LAM = 1.0
#: Distances of centred statistics stay within this many bootstrap stderr.
#: An RMS distance between two noisy profiles is biased upward by about its
#: own spread, so the bound is loose; it catches gross errors only.
K_BOOT = 6.0
T_CHECK = 0.02
ELL3 = 0.7
MODE = 3


def setup(seed: int) -> dict:
    return {"model": noise.default_even_model(), "seed": seed}


def run_round(state: dict) -> dict:
    zeros = {eps: (0.0,) * 5 for eps in EPS_LIST}
    study = sim.convergence_study(state["model"], EPS_LIST, zeros,
                                  n_members=N_MEMBERS, n_x=N_X, T=T, lam=LAM,
                                  master_seed=state["seed"])
    return {"study": study,
            "ops": N_MEMBERS * (len(EPS_LIST) + 1) + len(EPS_LIST),
            "failed": 0}


def check(state: dict, results: list) -> list[str]:
    problems = []
    for res in results:
        for row in res["study"]["rows"]:
            for key in ("variance_profile", "two_point"):
                d, err = row["distances"][key], row["bootstrap_stderr"][key]
                if not d <= K_BOOT * err:
                    problems.append(f"eps={row['eps']} {key}: distance {d} "
                                    f"> {K_BOOT} x stderr {err}")
        if res["study"]["rows"] != results[0]["study"]["rows"]:
            problems.append("a round with the same seed gave other distances")

    # a constant counterterm ell3 lowers every height by 2 lam^2 ell3 T
    eps = EPS_LIST[0]
    base = sim.SimConfig(lam=LAM, eps=eps, n_x=N_X, T=T_CHECK)
    shifted = sim.SimConfig(lam=LAM, eps=eps, n_x=N_X, T=T_CHECK,
                            ell=(0.0, 0.0, ELL3, 0.0, 0.0))
    field = noise.sample_field(state["model"], eps, sim.noise_grid_for(base),
                               state["seed"])
    gap = sim.solve_renormalised(shifted, field).final \
        - sim.solve_renormalised(base, field).final
    expected = -2 * LAM ** 2 * ELL3 * T_CHECK
    if np.max(np.abs(gap - expected)) > 1e-9:
        problems.append(f"ell3 shift {gap.min()}..{gap.max()}, expected {expected}")

    # at lam=0 without noise a Fourier mode decays by the implicit-Euler factor
    heat = sim.SimConfig(lam=0.0, eps=eps, n_x=N_X, T=T_CHECK)
    x = np.arange(N_X) / N_X
    h0 = np.cos(2 * math.pi * MODE * x)
    final = sim.solve_renormalised(heat, None, h0).final
    symbol = 4 * N_X ** 2 * math.sin(math.pi * MODE / N_X) ** 2
    decay = (1.0 / (1.0 + heat.step * symbol)) ** heat.n_steps
    if np.max(np.abs(final - decay * h0)) > 1e-10:
        problems.append(f"mode {MODE} decays to {final.max()}, expected {decay}")
    return problems


def extras(state: dict, result: dict) -> dict:
    steps = sim.SimConfig(lam=LAM, eps=min(EPS_LIST), n_x=N_X, T=T).n_steps
    return {
        "sim.steps_per_member": steps,
        "sim.renormalised_member_steps": N_MEMBERS * len(EPS_LIST) * steps,
        "sim.hopf_cole_member_steps": N_MEMBERS * steps,
    }
