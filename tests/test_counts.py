"""Count arguments of both halves take integers only.

A float count used to get past the range checks and fail deep inside numpy
or ``range`` with ``TypeError``, some only after a leg table, a cloud or a
set of windows had been built.  Each call here must raise ``ValueError``
naming its argument before any of those is built; numpy integers pass.
"""

import numpy as np
import pytest

from kpzlab import kernels, noise, sim
from kpzlab.cumulants import iter_wick_partitions
from kpzlab.power_counting import KPZAllocationRule, check_admissible
from kpzlab.symbols import SQUARE, graph_catalog

MODEL = noise.default_even_model()
ENSEMBLE = np.random.default_rng(0).standard_normal((6, 16))

CALLS = [
    pytest.param("budget", lambda w: kernels.evaluate_diagram(
        kernels.DIAGRAMS["C0"], MODEL, None, 0.25, budget=2.5), id="evaluate_diagram"),
    pytest.param("mc_budget", lambda w: kernels.compute_constant(
        "C0", MODEL, None, 0.25, mc_budget=100.0), id="compute_constant"),
    pytest.param("max_iter", lambda w: kernels.chat_fixed_point(
        MODEL, None, 0.25, max_iter=2.0), id="chat_fixed_point"),
    pytest.param("n_samples", lambda w: noise.sample_pairings(w, 10.0, 1),
                 id="sample_pairings"),
    pytest.param("n_samples", lambda w: noise.clt_check(
        MODEL, (0.4, 0.3, 0.2), n_samples=300.0), id="clt_check"),
    pytest.param("n", lambda w: w.exact_cumulant(2.0), id="exact_cumulant"),
    pytest.param("n_bootstrap", lambda w: sim.compare_statistics(
        ENSEMBLE, ENSEMBLE, n_bootstrap=10.0), id="compare_statistics"),
    pytest.param("n_members", lambda w: sim.convergence_study(
        MODEL, [0.4], {0.4: (0.0,) * 5}, n_members=3.0, n_x=16, T=0.01),
        id="convergence_study"),
    pytest.param("p_max", lambda w: check_admissible(
        KPZAllocationRule(), graph_catalog(SQUARE)[0].graph, p_max=2.0), id="check_admissible"),
    pytest.param("m", lambda w: next(iter_wick_partitions(1.5, 2)), id="iter_wick_partitions"),
]


@pytest.fixture(scope="module")
def windows():
    return noise.PairingWindows(MODEL, 0.4, noise.make_test_functions()[:1], (0.02, 0.18))


@pytest.mark.parametrize("name, call", CALLS)
def test_float_count_rejected_before_any_work(monkeypatch, windows, name, call):
    def built(*args, **kwargs):
        raise AssertionError("work was done before the count was checked")

    monkeypatch.setattr(kernels.LegTable, "__init__", built)
    monkeypatch.setattr(noise.PairingWindows, "__init__", built)
    monkeypatch.setattr(sim, "draw_cloud", built)
    with pytest.raises(ValueError, match=f"^{name} must be an integer"):
        call(windows)


def test_numpy_integers_pass(windows):
    assert windows.exact_cumulant(np.int64(2)) == windows.exact_cumulant(2)
    assert len(list(iter_wick_partitions(np.int32(2), np.int64(2)))) == 3
    assert noise.sample_pairings(windows, np.int64(3), 1).shape == (3, 1)
