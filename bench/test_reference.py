"""Tests of the benchmark's own checks: python3 -m pytest bench -q"""

import math
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import reference as ref  # noqa: E402
from ordrobust import (  # noqa: E402
    Dataset, LossSpec, ObjectiveCore, Prior, WlbConfig, get_link, wlb_sample,
)

KINDS = ("loglik", "dp", "gamma_general", "gamma_synthetic")


@pytest.mark.parametrize("link", ["probit", "loglog"])
@pytest.mark.parametrize("kind", KINDS)
def test_objective_matches_objective_core(kind, link):
    rng = np.random.default_rng(31)
    n, p, M = 40, 2, 4
    data = Dataset(y=rng.integers(1, M + 1, n), X=rng.normal(0, 1.5, (n, p)),
                   n_categories=M)
    tuning = 0.0 if kind == "loglik" else 0.4
    core = ObjectiveCore(LossSpec(kind, tuning), data, Prior(), get_link(link))
    for _ in range(20):
        u = np.concatenate([rng.normal(0, 1, p), [rng.normal(-1, 1)],
                            rng.normal(0, 0.5, M - 2)])
        w = rng.dirichlet(np.ones(n))
        got = ref.objective(kind, tuning, u, data.X, data.y, w, link)
        assert got == pytest.approx(core.value(u, w), rel=1e-10, abs=1e-10)


def _loglog_fit():
    rng = np.random.default_rng(5)
    n = 80
    X = rng.normal(0, 1, (n, 2))
    z = X @ np.array([1.0, -0.5]) - np.log(-np.log(rng.random(n)))
    y = 1 + (z[:, None] > np.array([-0.5, 0.8])[None, :]).sum(axis=1)
    data = Dataset(y=y, X=X, n_categories=3, column_names=("a", "b"))
    fit = wlb_sample(LossSpec("dp", 0.5), data, Prior(), get_link("loglog"),
                     WlbConfig(n_draws=3, seed=11))
    rows = [
        {"draw": str(b), "status": str(flag),
         **{nm: repr(float(v)) for nm, v in zip(fit.param_names, th.as_vector())}}
        for b, (th, flag) in enumerate(zip(fit.draws, fit.convergence_flags))
    ]
    return data, rows


def test_draws_at_their_optimum_pass_and_a_nudged_draw_fails():
    data, rows = _loglog_fit()
    args = (["a", "b"], "dp", 0.5, 11, data.X, data.y, "loglog", [0, 1, 2])
    assert ref.check_draws(rows, *args) == 3
    rows[1]["a"] = repr(float(rows[1]["a"]) + 0.05)
    with pytest.raises(ref.CheckError, match="draw 1"):
        ref.check_draws(rows, *args)


def _sweep_rows(loglik_drift):
    rows = []
    for loss in ("loglik", "dp", "gamma-syn", "gamma-gen"):
        for om in (0.0, 5.0, 10.0, 20.0, 50.0):
            drift = loglik_drift(om) if loss == "loglik" else 0.05
            rows.append({"loss": loss, "tuning": "" if loss == "loglik" else "0.5",
                         "omega": repr(om), "drift": repr(drift),
                         "mc_se": "0.02", "n_failed": "0"})
    return rows


def test_sweep_check_rejects_flattened_loglik_drift():
    robust, omegas = ("dp", "gamma-syn", "gamma-gen"), (0.0, 5.0, 10.0, 20.0, 50.0)
    ref.check_sweep(_sweep_rows(lambda om: 0.05 + 0.01 * om), robust, omegas)
    with pytest.raises(ref.CheckError, match="loglik"):
        ref.check_sweep(_sweep_rows(lambda om: 0.3), robust, omegas)


def _index_rows(ll, dp):
    return [{"loss": loss, "tuning": tun, "unit": str(i), "index": repr(float(v)),
             "affinity": repr(math.cos(v))}
            for loss, tun, vals in (("loglik", "", ll), ("dp", "0.5", dp))
            for i, v in enumerate(vals)]


def test_index_check_rejects_dp_index_equal_to_loglik():
    n, bad = 12, [3, 7]
    ll = np.full(n, 0.05)
    ll[bad] = 1.2
    dp = np.full(n, 0.04)
    dp[bad] = 1e-4
    ref.check_index(_index_rows(ll, dp), n, bad)
    with pytest.raises(ref.CheckError, match="dp index"):
        ref.check_index(_index_rows(ll, ll), n, bad)
