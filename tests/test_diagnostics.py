"""Summaries, per-unit robustness indices, sweeps, scoring, autocorrelation."""

import math
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

from ordrobust import (
    ConstantSeriesError,
    Contamination,
    ContractError,
    Dataset,
    LossSpec,
    PosteriorDraws,
    Prior,
    Theta,
    UnstableIndexError,
    WlbConfig,
    autocorrelation,
    fisher_rao_index,
    get_link,
    posterior_robustness_sweep,
    robustness_report,
    score_estimates,
    simulate_contaminated,
    simulate_study,
    summarize,
    wlb_sample,
)
import ordrobust.diagnostics as diag_module

import oracles

PROBIT = get_link("probit")


def fake_draws(values, flags=None):
    """PosteriorDraws whose first parameter runs through the values."""
    rows = np.array([[float(v), 0.0] for v in values])
    if flags is None:
        flags = ["converged"] * len(rows)
    return PosteriorDraws(
        values=rows,
        spec=LossSpec(kind="loglik"),
        link=PROBIT,
        seed=0,
        convergence_flags=np.array(flags),
        param_names=("x1", "delta1"),
    )


def small_fit(rng, kind="loglik", tuning=0.0, n=30, B=40, seed=5):
    X = rng.normal(0, 1, size=(n, 1))
    z = 0.9 * X[:, 0] + rng.normal(0, 1, n)
    y = 1 + (z > -0.7).astype(int) + (z > 0.7).astype(int)
    data = Dataset(y=y, X=X, n_categories=3)
    spec = LossSpec(kind=kind, tuning=tuning)
    fit = wlb_sample(spec, data, Prior(), PROBIT, WlbConfig(n_draws=B, seed=seed))
    return data, spec, fit


class TestSummarize:
    def test_linear_sequence(self):
        pd = fake_draws(range(1, 101))
        tab = summarize(pd, level=0.95)
        assert_allclose(tab.mean[0], 50.5, rtol=1e-15)
        assert_allclose(tab.median[0], 50.5, rtol=1e-15)
        assert_allclose(tab.lower[0], 3.475, rtol=1e-12)
        assert_allclose(tab.upper[0], 97.525, rtol=1e-12)
        assert tab.n_used == 100
        assert tab.n_failed == 0

    def test_constant_draws(self):
        tab = summarize(fake_draws([2.5] * 10))
        assert tab.sd[0] == 0.0
        assert tab.lower[0] == tab.upper[0] == tab.mean[0] == 2.5

    def test_permutation_invariance(self):
        rng = np.random.default_rng(31)
        vals = rng.normal(0, 1, 40)
        a = summarize(fake_draws(vals))
        b = summarize(fake_draws(rng.permutation(vals)))
        for field in ("mean", "median", "sd", "lower", "upper"):
            assert_allclose(getattr(a, field), getattr(b, field), rtol=1e-12)

    def test_failed_draws_excluded(self):
        pd = fake_draws([1.0, 500.0, 3.0],
                        flags=["converged", "failed", "converged"])
        tab = summarize(pd)
        assert tab.n_used == 2
        assert tab.n_failed == 1
        assert_allclose(tab.mean[0], 2.0, rtol=1e-15)

    def test_too_few_usable(self):
        pd = fake_draws([1.0, 2.0], flags=["converged", "failed"])
        with pytest.raises(ContractError, match="usable"):
            summarize(pd)

    def test_level_validated(self):
        pd = fake_draws([1.0, 2.0, 3.0])
        for level in (0.0, 1.0, 1.3, -0.5):
            with pytest.raises(ContractError, match="level"):
                summarize(pd, level=level)

    def test_rows_generator(self):
        tab = summarize(fake_draws([1.0, 2.0, 3.0]))
        rows = list(tab.rows())
        assert [r[0] for r in rows] == ["x1", "delta1"]
        assert_allclose(rows[0][1], 2.0, rtol=1e-15)


class TestFisherRaoIndex:
    def test_identical_draws_have_zero_index(self):
        data = Dataset(y=[1, 2, 3], X=[[0.1], [0.2], [-0.3]], n_categories=3)
        pd = PosteriorDraws(
            values=np.tile([0.5, -1.0, 1.0], (6, 1)),
            spec=LossSpec(kind="dp", tuning=0.5),
            link=PROBIT,
            seed=0,
            convergence_flags=np.array(["converged"] * 6),
            param_names=("x1", "delta1", "delta2"),
        )
        for i in range(3):
            got = fisher_rao_index(pd, data, pd.spec, Prior(), PROBIT, i)
            # affinity 1 up to log-sum-exp roundoff; arccos near 1 maps
            # ulp noise to sqrt scale
            assert got < 1e-7

    def test_five_atom_oracle(self):
        # the posterior is collapsed onto five known atoms, so both the
        # affinity and the angle have a direct finite-sum form
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
        for i in range(data.n):
            got = fisher_rao_index(pd, data, spec, Prior(), PROBIT, i)
            ells = []
            for atom, c in zip(atoms, counts):
                probs = oracles.direct_category_probs(
                    PROBIT, atom.beta, atom.delta, data.X[i]
                )
                ell = -oracles.direct_unit_dp(probs, int(data.y[i]), 0.5)
                ells.extend([ell] * c)
            num = sum(math.exp(l / 2.0) for l in ells) / 100.0
            den = math.sqrt(sum(math.exp(l) for l in ells) / 100.0)
            want = math.acos(min(num / den, 1.0))
            assert abs(got - want) < 1e-6

    def test_bounds(self):
        rng = np.random.default_rng(33)
        data, spec, fit = small_fit(rng, kind="gamma_general", tuning=0.5)
        rep = robustness_report(fit, data, spec, Prior(), PROBIT)
        assert np.all(rep.affinity > 0.0)
        assert np.all(rep.affinity <= 1.0)
        assert np.all(rep.index >= 0.0)
        assert np.all(rep.index <= np.pi / 2.0)

    def test_needs_two_usable_draws(self):
        data = Dataset(y=[1, 2], X=[[0.0], [0.1]], n_categories=2)
        pd = fake_draws([0.5], flags=["converged"])
        with pytest.raises(ContractError, match="usable"):
            fisher_rao_index(pd, data, pd.spec, Prior(), PROBIT, 0)

    def test_unstable_ratios_raise(self, monkeypatch):
        data = Dataset(y=[1, 2], X=[[0.0], [0.1]], n_categories=2)
        pd = fake_draws([0.4, 0.5, 0.6])

        def broken(spec, P, obs):
            return np.full(obs.size, np.nan)

        monkeypatch.setattr(diag_module, "_loo_log_ratios", broken)
        with pytest.raises(UnstableIndexError, match="non-finite"):
            fisher_rao_index(pd, data, pd.spec, Prior(), PROBIT, 0)

    @pytest.mark.parametrize("i", [2, -1])
    def test_unit_outside_range(self, i):
        # -1 would otherwise read the last unit's row of the table
        data = Dataset(y=[1, 2], X=[[0.0], [0.1]], n_categories=2)
        pd = fake_draws([0.4, 0.5, 0.6])
        with pytest.raises(ContractError, match=f"unit index {i} outside 0..1"):
            fisher_rao_index(pd, data, pd.spec, Prior(), PROBIT, i)


class TestRobustnessReport:
    def test_matches_per_unit_index(self):
        rng = np.random.default_rng(34)
        cases = [
            ("loglik", 0.0),
            ("dp", 0.5),
            ("gamma_synthetic", 0.5),
            ("gamma_general", 0.5),
        ]
        data, _, fit = small_fit(rng, n=12, B=20, seed=6)
        for kind, tuning in cases:
            spec = LossSpec(kind=kind, tuning=tuning)
            rep = robustness_report(fit, data, spec, Prior(), PROBIT)
            assert rep.index.shape == (12,)
            for i in range(12):
                want = fisher_rao_index(fit, data, spec, Prior(), PROBIT, i)
                assert rep.index[i] == want

    def test_affinities_match_per_unit_loop(self):
        # more units than one logsumexp block, with some non-finite
        # ratios; the reference drops them unit by unit in plain math
        rng = np.random.default_rng(35)
        ell = rng.normal(-3.0, 2.0, size=(300, 40))
        ell[rng.uniform(size=ell.shape) < 0.1] = -np.inf
        ell[5, :3] = np.nan
        got = diag_module._affinities(ell, np.arange(300))
        for i in range(300):
            kept = [v for v in ell[i] if math.isfinite(v)]
            num = sum(math.exp(v / 2.0) for v in kept) / len(kept)
            den = math.sqrt(sum(math.exp(v) for v in kept) / len(kept))
            assert got[i] == pytest.approx(min(num / den, 1.0), rel=1e-13)
        ell[[7, 200]] = 0.0
        ell[[7, 200], :21] = np.inf
        with pytest.raises(UnstableIndexError, match="unit 7: 21 of 40"):
            diag_module._affinities(ell, np.arange(300))

    def test_dominating_unit_raises(self):
        # one unit holds the entire synthetic loss sum; removing it
        # leaves log(0), so every draw's ratio is non-finite
        data = Dataset(
            y=[2, 2, 2], X=[[40.0], [-40.0], [-41.0]], n_categories=2
        )

        def draws(betas):
            return PosteriorDraws(
                values=np.array([[b, 0.0] for b in betas]),
                spec=LossSpec(kind="gamma_synthetic", tuning=1.5),
                link=PROBIT,
                seed=0,
                convergence_flags=np.array(["converged"] * len(betas)),
                param_names=("x1", "delta1"),
            )

        pd = draws([1.0] * 4)
        with np.errstate(divide="ignore"):
            with pytest.raises(UnstableIndexError):
                robustness_report(pd, data, pd.spec, Prior(), PROBIT)
        # the log(0) behind it does not leak a RuntimeWarning first
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(UnstableIndexError):
                robustness_report(pd, data, pd.spec, Prior(), PROBIT)
            # the per-unit path applies the same policy
            with pytest.raises(UnstableIndexError):
                fisher_rao_index(pd, data, pd.spec, Prior(), PROBIT, 0)

        # one dominated draw of four: both paths drop its ratio and
        # average over the three identical draws left
        pd = draws([1.0, 0.01, 0.01, 0.01])
        rep = robustness_report(pd, data, pd.spec, Prior(), PROBIT)
        assert rep.index[0] == 0.0
        assert fisher_rao_index(pd, data, pd.spec, Prior(), PROBIT, 0) == 0.0


class TestContaminationSpec:
    def test_validation(self):
        with pytest.raises(ContractError, match="direction"):
            Contamination(unit=0, covariate=0, direction=0, omegas=(0.0, 1.0))
        with pytest.raises(ContractError, match="start at 0"):
            Contamination(unit=0, covariate=0, direction=1, omegas=(1.0, 2.0))
        with pytest.raises(ContractError, match="increasing"):
            Contamination(unit=0, covariate=0, direction=1,
                          omegas=(0.0, 2.0, 1.0))
        with pytest.raises(ContractError, match="start at 0"):
            Contamination(unit=0, covariate=0, direction=1, omegas=())

    def test_coercion(self):
        c = Contamination(unit=0, covariate=0, direction=-1, omegas=(0, 5, 10))
        assert c.omegas == (0.0, 5.0, 10.0)


@pytest.fixture(scope="module")
def sweep_setup():
    rng = np.random.default_rng(35)
    n = 40
    X = rng.normal(0, 1, size=(n, 1))
    z = 0.9 * X[:, 0] + rng.normal(0, 1, n)
    y = 1 + (z > -0.7).astype(int) + (z > 0.7).astype(int)
    data = Dataset(y=y, X=X, n_categories=3)
    specs = [LossSpec(kind="loglik"), LossSpec(kind="dp", tuning=0.5)]
    contamination = Contamination(
        unit=3, covariate=0, direction=1, omegas=(0.0, 4.0)
    )
    config = WlbConfig(n_draws=25, seed=11)
    rows = posterior_robustness_sweep(
        data, specs, contamination, Prior(), PROBIT, config
    )
    return data, specs, contamination, config, rows


class TestSweep:
    def test_structure(self, sweep_setup):
        _, specs, contamination, _, rows = sweep_setup
        assert len(rows) == 4
        assert [(r.loss, r.omega) for r in rows] == [
            ("loglik", 0.0), ("loglik", 4.0), ("dp", 0.0), ("dp", 4.0),
        ]
        assert rows[2].tuning == 0.5
        for r in rows:
            assert r.drift >= 0.0
            assert r.mc_se > 0.0
            assert r.n_failed == 0

    def test_deterministic(self, sweep_setup):
        data, specs, contamination, config, rows = sweep_setup
        again = posterior_robustness_sweep(
            data, specs, contamination, Prior(), PROBIT, config
        )
        assert again == rows

    def test_worker_count_does_not_change_rows(self, sweep_setup):
        # every reference and cell fit shares one two-process pool
        from dataclasses import replace

        data, specs, contamination, config, rows = sweep_setup
        pooled = posterior_robustness_sweep(
            data, specs, contamination, Prior(), PROBIT,
            replace(config, workers=2),
        )
        assert config.workers == 1
        assert pooled == rows

    def test_cell_reproducible_from_derived_seeds(self, sweep_setup):
        # the first row's drift can be rebuilt from two standalone fits
        # with the documented per-cell seed derivation
        from dataclasses import replace

        data, specs, contamination, config, rows = sweep_setup

        def derived(seed, key):
            ss = np.random.SeedSequence(entropy=seed, spawn_key=key)
            return int(ss.generate_state(1, np.uint64)[0])

        u = contamination.unit
        data_ref = Dataset(
            y=np.delete(data.y, u),
            X=np.delete(data.X, u, axis=0),
            n_categories=data.n_categories,
        )
        ref = wlb_sample(
            specs[0], data_ref, Prior(), PROBIT,
            replace(config, seed=derived(config.seed, (0, 0))),
        )
        cell = wlb_sample(
            specs[0], data, Prior(), PROBIT,
            replace(config, seed=derived(config.seed, (0, 1))),
        )
        drift = float(np.linalg.norm(
            cell.matrix().mean(axis=0) - ref.matrix().mean(axis=0)
        ))
        assert_allclose(rows[0].drift, drift, rtol=1e-12)

    def test_unit_bounds_checked(self, sweep_setup):
        data, specs, _, config, _ = sweep_setup
        bad = Contamination(unit=data.n, covariate=0, direction=1,
                            omegas=(0.0, 1.0))
        with pytest.raises(ContractError, match="unit"):
            posterior_robustness_sweep(data, specs, bad, Prior(), PROBIT,
                                       config)


@pytest.fixture(scope="module")
def study_setup():
    specs = [LossSpec(kind="loglik"), LossSpec(kind="dp", tuning=0.5)]
    config = WlbConfig(n_draws=8, seed=21)
    cells = simulate_study("normal", [0.0, 0.3], 60, 3, specs, Prior(),
                           PROBIT, config)
    return specs, config, cells


class TestSimulateStudy:
    def test_structure(self, study_setup):
        specs, _, cells = study_setup
        assert [(c.rho, c.spec) for c in cells] == [
            (0.0, specs[0]), (0.0, specs[1]), (0.3, specs[0]), (0.3, specs[1]),
        ]
        for c in cells:
            for scores in (c.mse_beta, c.mse_delta, c.cp_beta, c.cp_delta):
                assert scores.shape == (3,)

    def test_cell_reproducible_from_derived_seeds(self, study_setup):
        # the last cell rebuilt from standalone fits with the documented
        # per-replicate seed derivation
        from dataclasses import replace

        specs, config, cells = study_setup

        def derived(seed, key):
            ss = np.random.SeedSequence(entropy=seed, spawn_key=key)
            return int(ss.generate_state(1, np.uint64)[0])

        ests, cis = [], []
        for rep in range(3):
            data, truth = simulate_contaminated(
                0.3, "normal", 60, derived(config.seed, (1, rep, 0)))
            fit = wlb_sample(specs[1], data, Prior(), PROBIT,
                             replace(config, seed=derived(config.seed,
                                                          (1, rep, 2))))
            table = summarize(fit)
            ests.append(Theta(beta=table.mean[:3], delta=table.mean[3:]))
            cis.append(np.column_stack([table.lower, table.upper]))
        want = score_estimates(ests, cis, truth)
        for key, scores in want.items():
            assert np.array_equal(getattr(cells[-1], key), scores), key

    @pytest.mark.parametrize("kwargs,match", [
        ({"rhos": [0.2, 0.7]}, "rho must lie"),
        ({"rhos": [0.2, 0.20]}, "--rho names 0.2 more than once"),
        ({"rhos": []}, "--rho needs at least one value"),
        ({"reps": 1}, "--reps must be at least 2"),
        ({"level": 1.0}, "level must be in"),
        ({"n": 10}, "n must be at least 50"),
        ({"error": "cauchy"}, "unknown error"),
    ], ids=["rho-range", "rho-repeated", "rho-empty", "reps", "level", "n",
            "error"])
    def test_arguments_checked_before_any_fit(self, monkeypatch, kwargs,
                                              match):
        def no_fits(*args):
            raise AssertionError("fitted before checking its arguments")

        monkeypatch.setattr(diag_module, "wlb_sample_batch", no_fits)
        args = dict(error="normal", rhos=[0.2], n=60, reps=2,
                    specs=[LossSpec(kind="loglik")], prior=Prior(),
                    link=PROBIT, config=WlbConfig(n_draws=5, seed=0))
        args.update(kwargs)
        with pytest.raises(ContractError, match=match):
            simulate_study(**args)


class TestScoreEstimates:
    def setup_method(self):
        self.truth = Theta(beta=[1.0, -0.5], delta=[-1.0, 1.0])

    def wide_intervals(self, R):
        d = 4
        ci = np.column_stack([np.full(d, -100.0), np.full(d, 100.0)])
        return [ci.copy() for _ in range(R)]

    def test_exact_estimates(self):
        ests = [self.truth] * 3
        out = score_estimates(ests, self.wide_intervals(3), self.truth)
        assert_allclose(out["mse_beta"], 0.0, rtol=0)
        assert_allclose(out["mse_delta"], 0.0, rtol=0)
        assert_allclose(out["cp_beta"], 1.0, rtol=0)
        assert_allclose(out["cp_delta"], 1.0, rtol=0)

    def test_unit_error_in_beta_only(self):
        est = Theta(beta=[2.0, 0.5], delta=[-1.0, 1.0])
        out = score_estimates([est], self.wide_intervals(1), self.truth)
        assert_allclose(out["mse_beta"][0], 1.0, rtol=1e-15)
        assert_allclose(out["mse_delta"][0], 0.0, rtol=0)

    def test_partial_coverage(self):
        miss = np.column_stack([np.full(4, 50.0), np.full(4, 60.0)])
        intervals = self.wide_intervals(3)
        intervals[2] = miss
        out = score_estimates([self.truth] * 3, intervals, self.truth)
        assert_allclose(out["cp_beta"].mean(), 2.0 / 3.0, rtol=1e-15)
        assert_allclose(out["cp_delta"].mean(), 2.0 / 3.0, rtol=1e-15)

    def test_random_case_against_direct_loops(self):
        rng = np.random.default_rng(36)
        R = 12
        tv = self.truth.as_vector()
        ests, intervals = [], []
        for _ in range(R):
            v = tv + rng.normal(0, 0.5, 4)
            ests.append(Theta(beta=v[:2], delta=np.sort(v[2:])))
            mid = tv + rng.normal(0, 0.5, 4)
            half = rng.uniform(0.1, 2.0, 4)
            intervals.append(np.column_stack([mid - half, mid + half]))
        out = score_estimates(ests, intervals, self.truth)
        for r in range(R):
            v = ests[r].as_vector()
            ci = intervals[r]
            assert_allclose(out["mse_beta"][r],
                            np.mean((v[:2] - tv[:2]) ** 2), rtol=1e-12)
            assert_allclose(out["mse_delta"][r],
                            np.mean((v[2:] - tv[2:]) ** 2), rtol=1e-12)
            inside = (ci[:, 0] <= tv) & (tv <= ci[:, 1])
            assert out["cp_beta"][r] == inside[:2].mean()
            assert out["cp_delta"][r] == inside[2:].mean()

    def test_validation(self):
        with pytest.raises(ContractError, match="equal length"):
            score_estimates([self.truth], self.wide_intervals(2), self.truth)
        bad_est = Theta(beta=[1.0], delta=[0.0])
        with pytest.raises(ContractError, match="parameters"):
            score_estimates([bad_est], self.wide_intervals(1), self.truth)
        with pytest.raises(ContractError, match="shape"):
            score_estimates([self.truth], [np.zeros((3, 2))], self.truth)


class TestAutocorrelation:
    def test_iid_noise_near_zero(self):
        rng = np.random.default_rng(37)
        x = rng.standard_normal(10_000)
        assert abs(autocorrelation(x, 1)[0]) < 0.03

    def test_ar1(self):
        rng = np.random.default_rng(38)
        B = 20_000
        x = np.empty(B)
        x[0] = rng.standard_normal()
        for t in range(1, B):
            x[t] = 0.9 * x[t - 1] + rng.standard_normal()
        rho = autocorrelation(x, 2)
        assert 0.85 < rho[0] < 0.95
        assert 0.72 < rho[1] < 0.90

    def test_alternating_series(self):
        B = 1000
        x = np.tile([1.0, -1.0], B // 2)
        rho1 = autocorrelation(x, 1)[0]
        assert_allclose(rho1, -1.0, atol=2.0 / B)

    def test_constant_series(self):
        with pytest.raises(ConstantSeriesError):
            autocorrelation(np.full(50, 3.3), 1)

    def test_argument_validation(self):
        x = np.arange(10.0)
        with pytest.raises(ContractError, match="max_lag"):
            autocorrelation(x, 0)
        with pytest.raises(ContractError, match="length"):
            autocorrelation(x, 10)
        with pytest.raises(ContractError, match="one-dimensional"):
            autocorrelation(np.zeros((5, 2)), 1)

    def test_output_shape(self):
        rng = np.random.default_rng(39)
        assert autocorrelation(rng.standard_normal(100), 5).shape == (5,)
