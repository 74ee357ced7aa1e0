"""Acceptance checklist: one test per release criterion.

Every test measures its own wall time against the criterion's budget
and records a single PASS/FAIL line through criterion_recorder; the
lines are re-emitted together at the end of the run.  Fixtures are
desk-scale versions of the full studies (those stay flag-reachable
through the command line; see README).
"""

import math
import time

import numpy as np
import pytest

from ordrobust import (
    Contamination,
    Dataset,
    LINKS,
    LossSpec,
    ObjectiveCore,
    PosteriorDraws,
    Prior,
    Theta,
    WlbConfig,
    autocorrelation,
    category_probs,
    fisher_rao_index,
    get_link,
    minimize,
    posterior_robustness_sweep,
    robustness_report,
    score_estimates,
    simulate_contaminated,
    simulate_grid,
    summarize,
    unconstrained_to_theta,
    unit_dp_loss,
    unit_gamma_loss,
    weighted_objective,
    weighted_objective_gradient,
    wlb_sample,
)
import ordrobust.wlb as wlb_module

import oracles

PROBIT = get_link("probit")
PRIOR = Prior()
ROBUST_KINDS = ("dp", "gamma_synthetic", "gamma_general")
ALL_KINDS = ("loglik",) + ROBUST_KINDS


def derived_seed(entropy, key):
    ss = np.random.SeedSequence(entropy=entropy, spawn_key=key)
    return int(ss.generate_state(1, np.uint64)[0])


def random_theta(rng, p, M):
    beta = rng.normal(0, 1, p)
    d1 = rng.normal(0, 1)
    gaps = np.exp(rng.normal(0, 0.5, M - 2))
    delta = d1 + np.concatenate([[0.0], np.cumsum(gaps)])
    return Theta(beta=beta, delta=delta)


def mild_instance(rng):
    n = int(rng.integers(2, 7))
    p = int(rng.integers(1, 3))
    M = int(rng.integers(2, 5))
    data = Dataset(
        y=rng.integers(1, M + 1, size=n),
        X=rng.uniform(-1, 1, size=(n, p)),
        n_categories=M,
    )
    u = np.concatenate(
        [rng.normal(0, 0.4, p), [rng.normal(-0.8, 0.3)], rng.normal(0, 0.3, M - 2)]
    )
    w = rng.standard_exponential(n)
    return data, u, w / w.sum()


def test_criterion_1_normalization(criterion_recorder):
    t0 = time.perf_counter()
    rng = np.random.default_rng(101)
    worst = 0.0
    for name in LINKS:
        link = get_link(name)
        for _ in range(1000):
            p = int(rng.integers(1, 4))
            M = int(rng.integers(2, 6))
            theta = random_theta(rng, p, M)
            x = rng.normal(0, 2, p)
            probs = category_probs(theta, x, link)
            assert probs.shape == (M,)
            assert np.all(probs >= 0)
            worst = max(worst, abs(float(probs.sum()) - 1.0))
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-10 and elapsed < 1.0
    criterion_recorder(
        1, "category probabilities sum to one across links",
        ok, f"worst |sum-1| = {worst:.2e}, {elapsed:.2f}s < 1s",
    )
    assert worst < 1e-10
    assert elapsed < 1.0


def test_criterion_2_vanishing_tuning_reduction(criterion_recorder):
    t0 = time.perf_counter()
    fix = np.random.default_rng(42)
    n, M = 4, 3
    data = Dataset(
        y=fix.integers(1, M + 1, size=n),
        X=fix.uniform(-0.3, 0.3, size=(n, 2)),
        n_categories=M,
    )
    w = np.full(n, 1.0 / n)
    ll = ObjectiveCore(LossSpec(kind="loglik"), data, PRIOR, PROBIT)
    cores = {
        kind: ObjectiveCore(LossSpec(kind=kind, tuning=1e-4), data, PRIOR, PROBIT)
        for kind in ROBUST_KINDS
    }
    rng = np.random.default_rng(202)

    def draw_point():
        return np.concatenate([
            rng.normal(0, 0.2, 2),
            [rng.normal(-0.55, 0.1)],
            rng.normal(0.1, 0.1, M - 2),
        ])

    worst = {kind: 0.0 for kind in ROBUST_KINDS}
    for _ in range(100):
        u1, u2 = draw_point(), draw_point()
        d_ll = ll.value(u1, w) - ll.value(u2, w)
        for kind, core in cores.items():
            gap = abs((core.value(u1, w) - core.value(u2, w)) - d_ll)
            worst[kind] = max(worst[kind], gap)
    elapsed = time.perf_counter() - t0
    overall = max(worst.values())
    ok = overall < 1e-3 and elapsed < 5.0
    criterion_recorder(
        2, "objectives at vanishing tuning reduce to the log-likelihood",
        ok,
        "worst diff gap = " + ", ".join(
            f"{k}:{v:.2e}" for k, v in worst.items()
        ) + f", {elapsed:.2f}s < 5s",
    )
    assert overall < 1e-3
    assert elapsed < 5.0


def test_criterion_3_outlier_loss_limits(criterion_recorder):
    theta = Theta(beta=[1.0], delta=[-1.0, 1.0])
    worst_dp = 0.0
    worst_gamma = 0.0
    cases = [(np.array([40.0]), 1), (np.array([-40.0]), 3)]
    for x, y in cases:
        for tuning in (0.3, 0.5, 1.0):
            r_dp = unit_dp_loss(theta, x, y, tuning, PROBIT)
            worst_dp = max(worst_dp, abs(r_dp - (-1.0 / (1.0 + tuning))))
            r_g = unit_gamma_loss(theta, x, y, tuning, PROBIT)
            worst_gamma = max(worst_gamma, abs(r_g))
    ok = worst_dp < 1e-8 and worst_gamma < 1e-12
    criterion_recorder(
        3, "per-unit losses reach their outlier limits",
        ok,
        f"|r_dp + 1/(1+a)| <= {worst_dp:.2e} (tol 1e-8), "
        f"|r_gamma| <= {worst_gamma:.2e} (tol 1e-12)",
    )
    assert worst_dp < 1e-8
    assert worst_gamma < 1e-12


def test_criterion_4_gradients_match_finite_differences(criterion_recorder):
    t0 = time.perf_counter()
    rng = np.random.default_rng(404)
    worst = 0.0
    worst_at = ""
    for kind in ALL_KINDS:
        for name in LINKS:
            link = get_link(name)
            for _ in range(100):
                data, u, w = mild_instance(rng)
                t = 0.0 if kind == "loglik" else float(rng.uniform(0.2, 1.0))
                spec = LossSpec(kind=kind, tuning=t)
                got = weighted_objective_gradient(spec, u, data, w, PRIOR, link)
                want = oracles.fd_gradient(
                    lambda v: weighted_objective(spec, v, data, w, PRIOR, link),
                    u,
                )
                rel = float(np.linalg.norm(got - want)) / max(
                    float(np.linalg.norm(want)), 1e-12
                )
                if rel > worst:
                    worst, worst_at = rel, f"{kind}/{name}"
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-5 and elapsed < 30.0
    criterion_recorder(
        4, "analytic gradients match central finite differences",
        ok,
        f"worst rel err = {worst:.2e} at {worst_at} "
        f"(tol 1e-5), {elapsed:.1f}s < 30s",
    )
    assert worst < 1e-5
    assert elapsed < 30.0


def test_criterion_5_draw_independence(criterion_recorder):
    t0 = time.perf_counter()
    data = simulate_grid(seed=0)
    worst = 0.0
    worst_at = ""
    for kind, tuning, seed in (("loglik", 0.0, 1001), ("dp", 0.5, 1002)):
        fit = wlb_sample(
            LossSpec(kind=kind, tuning=tuning), data, PRIOR, PROBIT,
            WlbConfig(n_draws=500, seed=seed),
        )
        m = fit.matrix()
        assert fit.n_failed == 0
        for j in range(m.shape[1]):
            rho = abs(float(autocorrelation(m[:, j], 1)[0]))
            if rho > worst:
                worst, worst_at = rho, f"{kind}[{fit.param_names[j]}]"
    elapsed = time.perf_counter() - t0
    ok = worst < 0.1 and elapsed < 120.0
    criterion_recorder(
        5, "bootstrap draws show no serial correlation",
        ok,
        f"B=500, worst |rho1| = {worst:.3f} at {worst_at} "
        f"(tol 0.1), {elapsed:.1f}s < 2min",
    )
    assert worst < 0.1
    assert elapsed < 120.0


def test_criterion_6_posterior_drift_flattens(criterion_recorder):
    t0 = time.perf_counter()
    rng = np.random.default_rng(606)
    n = 100
    x = rng.normal(0, 1, n)
    z = x + rng.normal(0, 1, n)
    y = 1 + (z > -1.0).astype(int) + (z > 1.0).astype(int)
    data = Dataset(y=y, X=x[:, None], n_categories=3)
    unit = next(i for i in range(n) if y[i] == 2 and abs(x[i]) < 0.3)
    specs = [
        LossSpec(kind="loglik"),
        LossSpec(kind="dp", tuning=0.5),
        LossSpec(kind="gamma_synthetic", tuning=0.5),
        LossSpec(kind="gamma_general", tuning=0.5),
    ]
    contamination = Contamination(
        unit=unit, covariate=0, direction=1, omegas=(0.0, 5.0, 10.0, 20.0, 50.0)
    )
    rows = posterior_robustness_sweep(
        data, specs, contamination, PRIOR, PROBIT,
        WlbConfig(n_draws=300, seed=607),
    )
    gaps = {}
    for si, spec in enumerate(specs):
        cell = {r.omega: r for r in rows[si * 5:(si + 1) * 5]}
        d5, d50 = cell[5.0], cell[50.0]
        se = math.sqrt(d5.mc_se ** 2 + d50.mc_se ** 2)
        gaps[spec.kind] = (d50.drift - d5.drift) / se
    elapsed = time.perf_counter() - t0
    robust_ok = all(abs(gaps[k]) <= 3.0 for k in ROBUST_KINDS)
    loglik_ok = gaps["loglik"] > 5.0
    ok = robust_ok and loglik_ok and elapsed < 600.0
    criterion_recorder(
        6, "posterior drift flattens under robust losses, diverges under loglik",
        ok,
        "drift(50)-drift(5) in MC SEs: " + ", ".join(
            f"{k}:{v:+.2f}" for k, v in gaps.items()
        ) + f" (robust tol 3, loglik floor 5), {elapsed:.1f}s < 10min",
    )
    for kind in ROBUST_KINDS:
        assert abs(gaps[kind]) <= 3.0
    assert gaps["loglik"] > 5.0
    assert elapsed < 600.0


def test_criterion_7_index_flags_heterogeneous_units(criterion_recorder):
    t0 = time.perf_counter()
    base = simulate_grid(seed=0)
    X = base.X.copy()
    y = base.y.copy()
    candidates = [i for i in range(base.n) if y[i] == 1 and X[i, 0] < -2.0]
    planted = candidates[:5]
    for i, t in zip(planted, (3.8, 3.9, 4.0, 4.1, 4.2)):
        X[i, 0] = t
    data = Dataset(y=y, X=X, n_categories=4)
    specs = {
        "loglik": LossSpec(kind="loglik"),
        "dp": LossSpec(kind="dp", tuning=0.5),
        "gamma_synthetic": LossSpec(kind="gamma_synthetic", tuning=0.5),
        "gamma_general": LossSpec(kind="gamma_general", tuning=0.5),
    }
    index = {}
    for name, spec in specs.items():
        fit = wlb_sample(spec, data, PRIOR, PROBIT,
                         WlbConfig(n_draws=300, seed=708))
        index[name] = robustness_report(fit, data).index
    ll = index["loglik"]
    top5 = set(np.argsort(ll)[-5:].tolist())
    conforming = np.array([ll[i] for i in range(data.n) if i not in set(planted)])
    separation = min(ll[i] for i in planted) / float(np.median(conforming))
    worst_ratio = max(
        index[name][i] / ll[i]
        for name in ("dp", "gamma_synthetic", "gamma_general")
        for i in planted
    )
    elapsed = time.perf_counter() - t0
    ok = (top5 == set(planted) and worst_ratio < 0.10
          and separation >= 5.0 and elapsed < 600.0)
    criterion_recorder(
        7, "robustness index isolates heterogeneous units",
        ok,
        f"top-5 identified: {top5 == set(planted)}, robust/loglik index "
        f"ratio <= {worst_ratio:.3f} (tol 0.10), separation = "
        f"{separation:.1f}x (floor 5x), {elapsed:.1f}s < 10min",
    )
    assert top5 == set(planted)
    assert worst_ratio < 0.10
    assert separation >= 5.0
    assert elapsed < 600.0


@pytest.fixture(scope="module")
def contaminated_study():
    """Shared replicated study for the coverage and MSE criteria.

    20 replicates of the contaminated design (rho = 0.2, n = 200,
    normal error, probit fit), B = 300 draws per fit, for the
    likelihood and the two tuned robust posteriors.
    """
    t0 = time.perf_counter()
    reps, n, B = 20, 200, 300
    specs = {
        "loglik": LossSpec(kind="loglik"),
        "dp": LossSpec(kind="dp", tuning=0.3),
        "gamma_general": LossSpec(kind="gamma_general", tuning=0.3),
    }
    collected = {name: ([], []) for name in specs}
    truth = None
    for rep in range(reps):
        data, truth = simulate_contaminated(
            rho=0.2, error="normal", n=n, seed=derived_seed(808, (rep, 0))
        )
        for sj, (name, spec) in enumerate(specs.items()):
            fit = wlb_sample(
                spec, data, PRIOR, PROBIT,
                WlbConfig(n_draws=B, seed=derived_seed(808, (rep, 1 + sj))),
            )
            table = summarize(fit, 0.95)
            est = Theta(beta=table.mean[:data.p], delta=table.mean[data.p:])
            ests, cis = collected[name]
            ests.append(est)
            cis.append(np.column_stack([table.lower, table.upper]))
    out = {}
    for name in specs:
        ests, cis = collected[name]
        scores = score_estimates(ests, cis, truth)
        out[name] = {
            "cp_beta_pct": 100.0 * float(scores["cp_beta"].mean()),
            "mean_log_mse_beta": float(np.log(scores["mse_beta"]).mean()),
        }
    out["elapsed"] = time.perf_counter() - t0
    return out


def test_criterion_8_coverage_under_contamination(
    contaminated_study, criterion_recorder
):
    study = contaminated_study
    cp_ll = study["loglik"]["cp_beta_pct"]
    cp_dp = study["dp"]["cp_beta_pct"]
    cp_gg = study["gamma_general"]["cp_beta_pct"]
    elapsed = study["elapsed"]
    ok = cp_ll < 50.0 and cp_dp > 85.0 and cp_gg > 85.0 and elapsed < 1800.0
    criterion_recorder(
        8, "contaminated-data coverage collapses for loglik, holds for robust",
        ok,
        f"beta CP%: loglik={cp_ll:.1f} (< 50), dp(0.3)={cp_dp:.1f} (> 85), "
        f"gamma-gen(0.3)={cp_gg:.1f} (> 85), {elapsed:.0f}s < 30min",
    )
    assert cp_ll < 50.0
    assert cp_dp > 85.0
    assert cp_gg > 85.0
    assert elapsed < 1800.0


def test_criterion_9_mse_gap_under_contamination(
    contaminated_study, criterion_recorder
):
    study = contaminated_study
    m_ll = study["loglik"]["mean_log_mse_beta"]
    gap_dp = m_ll - study["dp"]["mean_log_mse_beta"]
    gap_gg = m_ll - study["gamma_general"]["mean_log_mse_beta"]
    ok = gap_dp >= 1.0 and gap_gg >= 1.0
    criterion_recorder(
        9, "robust posteriors cut contaminated-data MSE by an e-factor",
        ok,
        f"mean log-MSE(beta) gap vs loglik: dp(0.3)={gap_dp:.2f}, "
        f"gamma-gen(0.3)={gap_gg:.2f} (floor 1.0)",
    )
    assert gap_dp >= 1.0
    assert gap_gg >= 1.0


def test_criterion_10_oracle_equivalences(criterion_recorder):
    # (a) weighted objective against the direct-evaluation oracle
    rng = np.random.default_rng(1010)
    link_cycle = tuple(LINKS)
    worst_obj = 0.0
    for trial in range(50):
        kind = ALL_KINDS[trial % 4]
        link = get_link(link_cycle[trial % len(link_cycle)])
        data, u, w = mild_instance(rng)
        t = 0.0 if kind == "loglik" else float(rng.uniform(0.2, 1.2))
        spec = LossSpec(kind=kind, tuning=t)
        got = weighted_objective(spec, u, data, w, PRIOR, link)
        want = oracles.direct_weighted_objective(
            kind, t, 1.0, u, data.X, data.y, w, 10.0, 10.0, link
        )
        worst_obj = max(worst_obj, abs(got - want) / max(1.0, abs(want)))

    # (b) robustness index against the discrete-atom brute force
    data = Dataset(
        y=[1, 2, 3, 2], X=[[0.4], [-0.2], [0.7], [0.1]], n_categories=3
    )
    atoms = [
        Theta(beta=[0.2 * (k + 1)], delta=[-1.0 + 0.1 * k, 1.0])
        for k in range(5)
    ]
    counts = (10, 20, 40, 20, 10)
    thetas = []
    for atom, c in zip(atoms, counts):
        thetas.extend([atom] * c)
    spec = LossSpec(kind="dp", tuning=0.5)
    pd = PosteriorDraws(
        values=np.array([t.as_vector() for t in thetas]),
        spec=spec,
        link=PROBIT,
        seed=0,
        convergence_flags=np.array(["converged"] * 100),
        param_names=("x1", "delta1", "delta2"),
    )
    worst_idx = 0.0
    for i in range(data.n):
        got = fisher_rao_index(pd, data, i)
        ells = []
        for atom, c in zip(atoms, counts):
            probs = oracles.direct_category_probs(
                PROBIT, atom.beta, atom.delta, data.X[i]
            )
            ells.extend([-oracles.direct_unit_dp(probs, int(data.y[i]), 0.5)] * c)
        num = sum(math.exp(l / 2.0) for l in ells) / 100.0
        den = math.sqrt(sum(math.exp(l) for l in ells) / 100.0)
        want = math.acos(min(num / den, 1.0))
        worst_idx = max(worst_idx, abs(got - want))

    # (c) the optimizer against exhaustive grid search
    rng2 = np.random.default_rng(7)
    n = 30
    xcol = rng2.normal(0, 1, n)
    z = 1.1 * xcol + rng2.normal(0, 1, n)
    yb = 1 + (z > 0.3).astype(int)
    data2 = Dataset(y=yb, X=xcol[:, None], n_categories=2)
    core2 = ObjectiveCore(LossSpec(kind="loglik"), data2, PRIOR, PROBIT)
    res = minimize(
        lambda u: core2.value_and_grad(u, np.full(data2.n, 1.0 / data2.n)),
        wlb_module._initial_point(data2, PROBIT), 500, 1e-9)
    got2 = unconstrained_to_theta(res.x, data2.p).as_vector()
    coarse = np.arange(-3.0, 3.0, 0.01)
    rough = oracles.grid_search_two_param(data2.X, data2.y, coarse, coarse, 10.0)
    fine_b = np.arange(rough[0] - 0.02, rough[0] + 0.02, 1e-3)
    fine_d = np.arange(rough[1] - 0.02, rough[1] + 0.02, 1e-3)
    want2 = oracles.grid_search_two_param(data2.X, data2.y, fine_b, fine_d, 10.0)
    grid_gap = float(np.max(np.abs(got2 - want2)))

    ok = worst_obj < 1e-12 and worst_idx < 1e-6 and grid_gap <= 1e-3
    criterion_recorder(
        10, "library results match independent oracles",
        ok,
        f"objective rel gap = {worst_obj:.1e} (tol 1e-12), index gap = "
        f"{worst_idx:.1e} (tol 1e-6), optimizer vs grid = {grid_gap:.1e} "
        f"(tol 1e-3)",
    )
    assert worst_obj < 1e-12
    assert worst_idx < 1e-6
    assert grid_gap <= 1e-3
