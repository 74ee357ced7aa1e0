"""Dirichlet weights, the BFGS minimizer, and the bootstrap sampler."""

import multiprocessing
from concurrent.futures import Future
from dataclasses import replace

import numpy as np
import pytest
from numpy.testing import assert_allclose

from ordrobust import (
    ContractError,
    Dataset,
    LossSpec,
    MinimizeResult,
    ObjectiveCore,
    PosteriorDraws,
    Prior,
    SamplingFailureError,
    WlbConfig,
    autocorrelation,
    get_link,
    minimize,
    minimize_block,
    sample_dirichlet_uniform,
    simulate_contaminated,
    simulate_grid,
    unconstrained_to_theta,
    wlb_sample,
    wlb_sample_batch,
)
import ordrobust.wlb as wlb_module
from ordrobust.diagnostics import _derived_seed

import oracles

PROBIT = get_link("probit")


def toy_data(rng, n=30, p=1, M=3):
    X = rng.normal(0, 1, size=(n, p))
    eta = X @ np.full(p, 0.8)
    z = eta + rng.normal(0, 1, n)
    cuts = np.linspace(-1.0, 1.0, M - 1)
    y = 1 + np.sum(z[:, None] > cuts[None, :], axis=1)
    return Dataset(y=y, X=X, n_categories=M)


def quadratic():
    c = np.array([1.5, -2.0, 0.25])
    return lambda x: (float(np.sum((x - c) ** 2)), 2.0 * (x - c))


def rosenbrock():
    def fg(v):
        x, y = v
        return float((1 - x) ** 2 + 100.0 * (y - x * x) ** 2), np.array([
            -2.0 * (1 - x) - 400.0 * x * (y - x * x),
            200.0 * (y - x * x),
        ])

    return fg


def exact_newton_quadratic():
    """A quadratic with its inverse Hessian; one Newton step from x0."""
    A = np.array([[4.0, 1.0, 0.0], [1.0, 3.0, 0.5], [0.0, 0.5, 2.0]])
    c = np.array([1.0, -2.0, 0.5])

    def fg(x):
        r = x - c
        return float(0.5 * r @ A @ r), A @ r

    return fg, np.array([5.0, 5.0, -5.0]), np.linalg.inv(A), c


def counted(fn):
    """fn with a call counter in its .calls attribute."""
    def wrapper(x):
        wrapper.calls += 1
        return fn(x)
    wrapper.calls = 0
    return wrapper


class TestConfig:
    def test_validation(self):
        with pytest.raises(ContractError):
            WlbConfig(n_draws=0, seed=1)
        with pytest.raises(ContractError):
            WlbConfig(n_draws=10, seed=-1)
        with pytest.raises(ContractError):
            WlbConfig(n_draws=10, seed=1, workers=0)


class TestDirichletWeights:
    def test_single_unit(self):
        rng = np.random.default_rng(0)
        assert_allclose(sample_dirichlet_uniform(1, rng), [1.0], rtol=0)

    def test_sums_to_one(self):
        rng = np.random.default_rng(1)
        for n in (2, 5, 50, 400):
            w = sample_dirichlet_uniform(n, rng)
            assert w.shape == (n,)
            assert np.all(w >= 0)
            assert abs(w.sum() - 1.0) < 1e-12

    def test_dimension_validated(self):
        rng = np.random.default_rng(2)
        with pytest.raises(ContractError):
            sample_dirichlet_uniform(0, rng)

    def test_two_unit_marginal_is_uniform(self):
        # with two units the first weight is exactly Uniform(0, 1)
        rng = np.random.default_rng(3)
        firsts = np.array(
            [sample_dirichlet_uniform(2, rng)[0] for _ in range(100_000)]
        )
        assert oracles.ks_statistic_uniform(firsts) < 0.01

    def test_coordinate_means(self):
        rng = np.random.default_rng(4)
        n, B = 100, 10_000
        total = np.zeros(n)
        for _ in range(B):
            total += sample_dirichlet_uniform(n, rng)
        means = total / B
        # each weight vector sums to one, so the coordinate means do too
        assert abs(means.sum() - 1.0) < 1e-12
        se = np.sqrt((1.0 / n) * (1.0 - 1.0 / n) / (n + 1.0) / B)
        assert np.max(np.abs(means - 1.0 / n)) < 3.0 * se


class TestMinimize:
    def test_quadratic(self):
        c = np.array([1.5, -2.0, 0.25])
        res = minimize(
            lambda x: (float(np.sum((x - c) ** 2)), 2.0 * (x - c)),
            np.zeros(3),
        )
        assert res.status == "converged"
        assert_allclose(res.x, c, atol=1e-8)
        assert res.grad_norm <= 1e-6

    def test_rosenbrock(self):
        res = minimize(rosenbrock(), np.array([-1.2, 1.0]), 2000, 1e-9)
        assert res.status == "converged"
        assert_allclose(res.x, [1.0, 1.0], atol=1e-5)

    def test_never_increases(self):
        c = np.array([3.0, -4.0])

        def fun(x):
            return float(np.sum((x - c) ** 2))

        x0 = np.array([10.0, 10.0])
        res = minimize(lambda x: (fun(x), 2.0 * (x - c)), x0, 3, 1e-14)
        assert res.fun <= fun(x0)

    def test_tolerates_infinite_region(self):
        # the objective is +inf past a wall; backtracking must shrink
        # the step until the trial point is finite again.  There is no
        # gradient past the wall, so minimize must not read it there.
        c = np.array([1.4, 0.0])

        def fg(x):
            if x[0] > 1.5:
                return np.inf, None
            return float(np.sum((x - c) ** 2)), 2.0 * (x - c)

        res = minimize(fg, np.array([0.0, 3.0]))
        assert res.status == "converged"
        assert_allclose(res.x, c, atol=1e-6)

    def test_nonfinite_start_fails_cleanly(self):
        res = minimize(lambda x: (float(np.nan), np.zeros(2)), np.zeros(2))
        assert res.status == "failed"
        assert res.n_iters == 0

    def test_budget_exhaustion_reported(self):
        res = minimize(rosenbrock(), np.array([-1.2, 1.0]), 3, 1e-12)
        assert res.status == "max_iters"
        assert res.n_iters == 3

    @pytest.mark.parametrize("problem, x0", [
        (quadratic, [0.0, 0.0, 0.0]), (rosenbrock, [-1.2, 1.0]),
    ], ids=["quadratic", "rosenbrock"])
    def test_evaluation_counts(self, problem, x0):
        fg = counted(problem())
        res = minimize(fg, np.array(x0), 2000, 1e-9)
        assert res.status == "converged"
        assert res.n_evals == fg.calls
        assert res.n_evals >= res.n_iters + 1

    def test_exact_inverse_hessian_takes_one_newton_step(self):
        fg, x0, H0, c = exact_newton_quadratic()
        res = minimize(fg, x0, H0=H0)
        assert res.status == "converged"
        assert res.n_iters == 1
        assert_allclose(res.x, c, atol=1e-10)
        assert res.inv_hessian is not None

    def test_convergence_on_the_last_allowed_step(self):
        # the one allowed step lands on the optimum: that is converged,
        # not an exhausted budget
        fg, x0, H0, c = exact_newton_quadratic()
        res = minimize(fg, x0, max_iters=1, H0=H0)
        assert res.status == "converged"
        assert res.n_iters == 1
        assert res.grad_norm <= 1e-6
        assert_allclose(res.x, c, atol=1e-10)

    def test_approximate_wolfe_step_and_lowest_iterate(self):
        # away from x0 the value sits 1e-13 above f(x0), below what
        # Armijo can resolve, while the gradient still points at 0
        def fg(x):
            return (1.0 if x[0] == 1.0 else 1.0 + 1e-13), x.copy()

        res = minimize(fg, np.array([1.0]), max_iters=2)
        assert res.status == "converged"
        assert res.n_iters == 1
        assert res.x[0] == 0.0
        # stopped after an uphill step that does not converge, it
        # returns the lower start
        def fg_off(x):
            f, g = fg(x)
            return f, g + (0.0 if x[0] == 1.0 else 0.1)

        capped = minimize(fg_off, np.array([1.0]), max_iters=1)
        assert capped.status == "max_iters"
        assert capped.x[0] == 1.0
        assert capped.fun == 1.0
        assert capped.grad_norm == 1.0


def contract_problems():
    """(fg, x0) of the TestMinimize problems, each padded to 3 coordinates.

    The extra coordinates carry zero gradient, so every problem keeps its
    own path; the wall returns (inf, None) past x = 1.5.
    """
    def pad(fg, m):
        def padded(x):
            f, g = fg(x[:m])
            return f, None if g is None else np.concatenate([g, np.zeros(3 - m)])
        return padded

    c_wall = np.array([1.4, 0.0])

    def wall(x):
        if x[0] > 1.5:
            return np.inf, None
        return float(np.sum((x - c_wall) ** 2)), 2.0 * (x - c_wall)

    def wolfe(x):
        return (1.0 if x[0] == 1.0 else 1.0 + 1e-13), x.copy()

    def wolfe_off(x):
        f, g = wolfe(x)
        return f, g + (0.0 if x[0] == 1.0 else 0.1)

    return [
        (quadratic(), np.zeros(3)),
        (pad(rosenbrock(), 2), np.array([-1.2, 1.0, 0.0])),
        (pad(wall, 2), np.array([0.0, 3.0, 0.0])),
        (lambda x: (float(np.nan), np.zeros(3)), np.zeros(3)),
        (pad(wolfe, 1), np.array([1.0, 0.0, 0.0])),
        (pad(wolfe_off, 1), np.array([1.0, 0.0, 0.0])),
    ]


class TestMinimizeBlock:
    """minimize_block applies minimize's contract to every row alone."""

    @staticmethod
    def block_fg(problems):
        def fg(X, rows):
            ids = np.arange(len(problems))[rows]
            F = np.empty(len(ids))
            G = np.full(X.shape, np.nan)
            for j, r in enumerate(ids):
                f, g = problems[r][0](X[j])
                F[j] = f
                if np.isfinite(f):
                    G[j] = g
            return F, G
        return fg

    @pytest.mark.parametrize("max_iters, grad_tol, H0", [
        (2000, 1e-9, None), (1, 1e-6, None), (3, 1e-12, None),
        # indefinite: the quadratic's first direction is uphill and
        # resets to steepest descent, Rosenbrock's is not
        (2000, 1e-9, np.diag([1.0, -1.0, 1.0])),
    ], ids=["converge", "max_iters_1", "max_iters_3", "indefinite_H0"])
    def test_rows_match_lone_minimizations(self, max_iters, grad_tol, H0):
        problems = contract_problems()
        X0 = np.array([x0 for _, x0 in problems])
        block = minimize_block(self.block_fg(problems), X0, max_iters,
                               grad_tol, H0)
        statuses = []
        for (fg, x0), got in zip(problems, block):
            alone = minimize(fg, x0, max_iters, grad_tol, H0)
            assert got.status == alone.status
            assert_allclose(got.x, alone.x, rtol=0, atol=0)
            assert got.fun == alone.fun or (np.isnan(got.fun) and np.isnan(alone.fun))
            assert got.n_iters == alone.n_iters
            assert got.n_evals == alone.n_evals
            assert got.grad_norm == alone.grad_norm
            statuses.append(got.status)
        # the block mixes exits: every row finishes on its own terms
        assert statuses[3] == "failed"
        if max_iters == 2000 and H0 is None:
            assert statuses[:3] == ["converged"] * 3
            assert statuses[5] == "converged"  # the approximate Wolfe step
        if max_iters == 1:
            assert statuses[5] == "max_iters" and block[5].x[0] == 1.0

    def test_h0_rows_and_reordering(self):
        # a shared H0 seeds every row, and a row's result does not
        # depend on its position or on the rows around it
        fg1, x0, H0, c = exact_newton_quadratic()
        problems = [(fg1, x0), (fg1, x0 + 1.0), (quadratic(), np.zeros(3))]
        X0 = np.array([x for _, x in problems])
        fwd = minimize_block(self.block_fg(problems), X0, H0=H0)
        rev = minimize_block(self.block_fg(problems[::-1]), X0[::-1], H0=H0)
        for a, b in zip(fwd, rev[::-1]):
            assert a.status == b.status and a.n_evals == b.n_evals
            assert_allclose(a.x, b.x, rtol=0, atol=0)
            assert_allclose(a.inv_hessian, b.inv_hessian, rtol=0, atol=0)
        assert fwd[0].n_iters == 1 and fwd[1].n_iters == 1
        assert_allclose(fwd[0].x, c, atol=1e-10)


class TestStallRegression:
    """Draws that stalled at the floating-point floor under Armijo alone.

    Rep 0 of the criterion-8/9 design.  With Armijo backtracking only,
    loglik draw 14 (seed 0) ran to the 500-iteration cap at |g| = 1.3e-6,
    and gamma_general(0.3) draws 53 and 56 did the same; each then
    needed a restart.
    """

    @pytest.fixture(scope="class")
    def data(self):
        data, _truth = simulate_contaminated(0.2, "normal", 200,
                                             _derived_seed(808, (0, 0)))
        return data

    def test_floor_draw_converges_from_cold_start(self, data):
        core = ObjectiveCore(LossSpec(kind="loglik"), data, Prior(), PROBIT)
        rng = np.random.default_rng(
            np.random.SeedSequence(entropy=0, spawn_key=(14,)))
        w = sample_dirichlet_uniform(data.n, rng)
        res = minimize(
            lambda u: core.value_and_grad(u, w),
            wlb_module._initial_point(data, PROBIT),
        )
        assert res.status == "converged"
        assert res.grad_norm <= 1e-6
        assert res.n_iters < 250

    @pytest.mark.parametrize("spec", [
        LossSpec(kind="loglik"), LossSpec(kind="gamma_general", tuning=0.3),
    ], ids=["loglik", "gamma_general"])
    def test_every_draw_converges_first_time(self, data, spec):
        fit = wlb_sample(spec, data, Prior(), PROBIT,
                         WlbConfig(n_draws=100, seed=0))
        assert set(fit.convergence_flags.tolist()) == {"converged"}


class TestAgainstGridSearch:
    def test_penalized_fit_matches_brute_force(self):
        # one covariate, two categories: the whole posterior mode
        # surface is 2-d, so an erf-based exhaustive search can locate
        # it independently of both the objective code and the optimizer
        rng = np.random.default_rng(7)
        n = 30
        x = rng.normal(0, 1, n)
        z = 1.1 * x + rng.normal(0, 1, n)
        y = 1 + (z > 0.3).astype(int)
        data = Dataset(y=y, X=x[:, None], n_categories=2)

        core = ObjectiveCore(LossSpec(kind="loglik"), data, Prior(), PROBIT)
        res = minimize(
            lambda u: core.value_and_grad(u, np.full(data.n, 1.0 / data.n)),
            wlb_module._initial_point(data, PROBIT), 500, 1e-9)
        got = unconstrained_to_theta(res.x, data.p).as_vector()

        coarse_b = np.arange(-3.0, 3.0, 0.01)
        coarse_d = np.arange(-3.0, 3.0, 0.01)
        rough = oracles.grid_search_two_param(data.X, data.y, coarse_b,
                                              coarse_d, 10.0)
        fine_b = np.arange(rough[0] - 0.02, rough[0] + 0.02, 1e-3)
        fine_d = np.arange(rough[1] - 0.02, rough[1] + 0.02, 1e-3)
        want = oracles.grid_search_two_param(data.X, data.y, fine_b,
                                             fine_d, 10.0)
        assert_allclose(got, want, atol=1e-3)


class TestWlbSample:
    def test_seed_determinism(self):
        rng = np.random.default_rng(10)
        data = toy_data(rng, n=25)
        cfg = WlbConfig(n_draws=6, seed=77)
        a = wlb_sample(LossSpec(kind="loglik"), data, Prior(), PROBIT, cfg)
        b = wlb_sample(LossSpec(kind="loglik"), data, Prior(), PROBIT, cfg)
        assert_allclose(a.matrix(only_ok=False), b.matrix(only_ok=False),
                        rtol=0, atol=0)
        assert a.convergence_flags.tolist() == b.convergence_flags.tolist()

    def test_worker_count_does_not_change_draws(self):
        self._check_worker_count(LossSpec(kind="loglik"))

    def test_worker_count_does_not_change_draws_gamma_general(self):
        # the shared start and its inverse Hessian cross the pool
        self._check_worker_count(LossSpec(kind="gamma_general", tuning=0.5))

    @staticmethod
    def _check_worker_count(spec):
        rng = np.random.default_rng(11)
        data = toy_data(rng, n=20)
        serial = wlb_sample(
            spec, data, Prior(), PROBIT,
            WlbConfig(n_draws=8, seed=13, workers=1),
        )
        parallel = wlb_sample(
            spec, data, Prior(), PROBIT,
            WlbConfig(n_draws=8, seed=13, workers=2),
        )
        assert_allclose(serial.matrix(only_ok=False),
                        parallel.matrix(only_ok=False), rtol=0, atol=0)
        assert serial.convergence_flags.tolist() == \
            parallel.convergence_flags.tolist()

    def test_cutpoints_ordered_in_every_draw(self):
        rng = np.random.default_rng(12)
        data = toy_data(rng, n=40, M=4)
        fit = wlb_sample(
            LossSpec(kind="gamma_general", tuning=0.5), data, Prior(), PROBIT,
            WlbConfig(n_draws=40, seed=14),
        )
        for theta in fit.draws:
            assert np.all(np.diff(theta.delta) > 0)

    def test_param_names(self):
        rng = np.random.default_rng(15)
        data = toy_data(rng, n=20, p=2, M=3)
        fit = wlb_sample(
            LossSpec(kind="loglik"), data, Prior(), PROBIT,
            WlbConfig(n_draws=2, seed=1),
        )
        assert fit.param_names == ("x1", "x2", "delta1", "delta2")

    def test_missing_category_warns_but_runs(self):
        rng = np.random.default_rng(16)
        X = rng.normal(0, 1, size=(30, 1))
        y = np.where(X[:, 0] > 0, 3, 1)  # category 2 never observed
        data = Dataset(y=y, X=X, n_categories=3)
        with pytest.warns(UserWarning, match="never observed"):
            fit = wlb_sample(
                LossSpec(kind="loglik"), data, Prior(), PROBIT,
                WlbConfig(n_draws=4, seed=2),
            )
        assert fit.n_draws == 4
        for theta in fit.draws:
            assert np.all(np.diff(theta.delta) > 0)

    def test_posterior_tracks_grid_truth(self):
        data = simulate_grid(seed=3)
        fit = wlb_sample(
            LossSpec(kind="loglik"), data, Prior(), PROBIT,
            WlbConfig(n_draws=64, seed=21),
        )
        m = fit.matrix()
        mean, sd = m[:, 0].mean(), m[:, 0].std(ddof=1)
        assert abs(mean - 0.7) < 3.0 * sd

    def test_draw_sequence_uncorrelated(self):
        # draws come from independent weight streams, so any lag-1
        # correlation is pure noise of order 1/sqrt(B)
        rng = np.random.default_rng(17)
        data = toy_data(rng, n=40)
        fit = wlb_sample(
            LossSpec(kind="loglik"), data, Prior(), PROBIT,
            WlbConfig(n_draws=300, seed=22),
        )
        m = fit.matrix()
        for j in range(m.shape[1]):
            rho = autocorrelation(m[:, j], max_lag=1)[0]
            assert abs(rho) < 0.2

    def test_failure_rate_guard(self, monkeypatch):
        rng = np.random.default_rng(18)
        data = toy_data(rng, n=40)

        def always_fail(fg, X0, max_iters=500, grad_tol=1e-6, H0=None):
            return [MinimizeResult(x0, np.inf, "failed", 0, np.inf)
                    for x0 in np.asarray(X0, dtype=float)]

        monkeypatch.setattr(wlb_module, "minimize_block", always_fail)
        with pytest.raises(SamplingFailureError, match="loglik"):
            wlb_sample(
                LossSpec(kind="loglik"), data, Prior(), PROBIT,
                WlbConfig(n_draws=10, seed=3),
            )

    def test_one_minimization_per_draw(self, monkeypatch):
        # Every draw row reports max_iters at a known iterate; the draw
        # keeps that iterate and that flag, and no other row is minimized.
        rng = np.random.default_rng(19)
        data = toy_data(rng, n=40)
        real = wlb_module.minimize_block
        calls = []  # one (x0, H0) per minimized row

        def stub(fg, X0, max_iters=500, grad_tol=1e-6, H0=None):
            X0 = np.asarray(X0, dtype=float)
            first = not calls
            calls.extend((x0, H0) for x0 in X0)
            if first:  # the shared equal-weights start
                return real(fg, X0, max_iters, grad_tol, H0)
            return [MinimizeResult(x0 + 0.25, 1.0, "max_iters", max_iters, 1.0)
                    for x0 in X0]

        monkeypatch.setattr(wlb_module, "minimize_block", stub)
        fit = wlb_sample(
            LossSpec(kind="loglik"), data, Prior(), PROBIT,
            WlbConfig(n_draws=6, seed=4),
        )
        draw_calls = calls[1:]
        assert len(draw_calls) == 6
        assert fit.convergence_flags.tolist() == ["max_iters"] * 6
        for theta, (x0, H0) in zip(fit.draws, draw_calls):
            assert H0 is not None
            want = unconstrained_to_theta(x0 + 0.25, data.p).as_vector()
            assert_allclose(theta.as_vector(), want, rtol=0, atol=0)

    @pytest.mark.parametrize("spec", [
        LossSpec(kind="loglik"), LossSpec(kind="dp", tuning=0.5),
        LossSpec(kind="gamma_general", tuning=0.5),
        LossSpec(kind="gamma_synthetic", tuning=0.5),
    ], ids=["loglik", "dp", "gamma_general", "gamma_synthetic"])
    def test_block_size_does_not_change_draws(self, monkeypatch, spec):
        # Draws are minimized in lock step, a block at a time; a draw's
        # bits must not depend on the block it shares, whether that
        # comes from the element budget or from the worker count.
        # p = 3, so eta and the gradient's X-products sum several terms
        # per unit: a BLAS product across the rows could round them
        # differently for different block sizes.
        data = toy_data(np.random.default_rng(23), n=30, p=3)
        per_row = data.n * data.n_categories
        config = WlbConfig(n_draws=23, seed=31)

        def fit(budget, workers=1):
            monkeypatch.setattr(wlb_module, "_BLOCK_ELEMENTS", budget)
            return wlb_sample(spec, data, Prior(), PROBIT,
                              replace(config, workers=workers))

        whole = fit(23 * per_row)
        assert wlb_module._block_size(
            ObjectiveCore(spec, data, Prior(), PROBIT)) == 23
        others = [fit(1), fit(7 * per_row)]
        others += [fit(wlb_module._BLOCK_ELEMENTS, w) for w in (1, 2, 3)]
        for other in others:
            assert_allclose(other.matrix(only_ok=False),
                            whole.matrix(only_ok=False), rtol=0, atol=0)
            assert other.convergence_flags.tolist() == \
                whole.convergence_flags.tolist()
        assert multiprocessing.active_children() == []

    def test_draw_chunk_is_one_solve_in_full_passes(self, monkeypatch):
        # One worker: the 23 draws are one minimize_block call.  Each of
        # its rounds splits the live rows into passes of the budget's 7
        # rows, all full but the last, however many rows have finished.
        data = toy_data(np.random.default_rng(23), n=30, p=3)
        monkeypatch.setattr(wlb_module, "_BLOCK_ELEMENTS",
                            7 * data.n * data.n_categories)
        passes = []  # rows of every objective pass, serial fits included
        real_pass = ObjectiveCore.block_value_and_grad

        def spy_pass(core, U, W):
            passes.append(len(U))
            return real_pass(core, U, W)

        solves, rounds = [], []  # draw solves; (k, pass rows) per fg call
        real_block = wlb_module.minimize_block

        def spy_block(fg, X0, *args, **kwargs):
            if len(X0) == 1:  # a serial fit
                return real_block(fg, X0, *args, **kwargs)
            solves.append(len(X0))

            def counted_fg(X, rows):
                before = len(passes)
                out = fg(X, rows)
                rounds.append((len(X), passes[before:]))
                return out

            return real_block(counted_fg, X0, *args, **kwargs)

        monkeypatch.setattr(ObjectiveCore, "block_value_and_grad", spy_pass)
        monkeypatch.setattr(wlb_module, "minimize_block", spy_block)
        wlb_sample(LossSpec(kind="dp", tuning=0.5), data, Prior(), PROBIT,
                   WlbConfig(n_draws=23, seed=31))
        assert solves == [23]
        assert max(passes) == 7
        assert rounds[0][0] == 23 and min(k for k, _ in rounds) < 7
        for k, widths in rounds:
            assert len(widths) == -(-k // 7)
            assert widths == [7] * (k // 7) + [k % 7] * (k % 7 > 0)

    def test_failed_draws_excluded_from_matrix(self):
        pd = PosteriorDraws(
            values=np.array([[0.1, 0.0], [0.2, 0.1], [9.0, 2.0]]),
            spec=LossSpec(kind="loglik"),
            link=PROBIT,
            seed=0,
            convergence_flags=np.array(["converged", "max_iters", "failed"]),
            param_names=("x1", "delta1"),
        )
        assert pd.n_failed == 1
        assert pd.matrix().shape == (2, 2)
        assert pd.matrix(only_ok=False).shape == (3, 2)
        assert_allclose(pd.matrix()[1], [0.2, 0.1], rtol=0)

    def test_storage_decode_floors_only_broken_rows(self):
        # A failed draw's best iterate may carry a log gap so negative
        # that exp underflows to 0 (tied cutpoints); storage floors its
        # gaps at 1e-12.  A tiny gap that decodes cleanly keeps its bits.
        data = toy_data(np.random.default_rng(3))
        x_tiny = np.array([0.5, -0.3, np.log(1e-13)])
        x_underflow = np.array([0.4, 0.2, -800.0])
        X = np.array([x_tiny] * 9 + [x_underflow])
        flags = np.array(["converged"] * 9 + ["failed"])
        job = (LossSpec(kind="loglik"), data, WlbConfig(n_draws=10, seed=0))
        fit = wlb_module._assemble(
            job, PROBIT, [(X[:4], flags[:4]), (X[4:], flags[4:])])
        m = fit.matrix(only_ok=False)
        assert np.array_equal(m[0], unconstrained_to_theta(x_tiny, 1).as_vector())
        assert np.array_equal(m[9], [0.4, 0.2, 0.2 + 1e-12])
        assert np.all(np.diff(fit.draws[9].delta) > 0)


def fails_on_wide_fits(real):
    """minimize_block that fails every row of a 4-parameter problem."""
    def stub(fg, X0, max_iters=500, grad_tol=1e-6, H0=None):
        X0 = np.asarray(X0, dtype=float)
        if X0.shape[1] == 4:
            return [MinimizeResult(x0, np.inf, "failed", 0, np.inf)
                    for x0 in X0]
        return real(fg, X0, max_iters, grad_tol, H0)
    return stub


def raises_in_wide_draws(real):
    """minimize_block that raises in the draws of a 4-parameter problem.

    The serial fits are one-row blocks, so the preparation still runs;
    the two-worker toy jobs give draw blocks of three rows.
    """
    def stub(fg, X0, max_iters=500, grad_tol=1e-6, H0=None):
        if np.shape(X0)[1] == 4 and np.shape(X0)[0] > 1:
            raise FloatingPointError("draw stub raised")
        return real(fg, X0, max_iters, grad_tol, H0)
    return stub


BATCH_STUBS = pytest.mark.parametrize("stub, error", [
    (fails_on_wide_fits, SamplingFailureError),
    (raises_in_wide_draws, FloatingPointError),
], ids=["failed_draws", "worker_exception"])


def batch_jobs(p_per_fit):
    """One two-worker loglik job per entry p: p coefficients and two
    cutpoints, so p=2 marks the 4-parameter fit the stubs single out."""
    rng = np.random.default_rng(19)
    return [
        (LossSpec(kind="loglik"), toy_data(rng, n=30, p=p),
         WlbConfig(n_draws=6, seed=40 + k, workers=2))
        for k, p in enumerate(p_per_fit)
    ]


class _LazyFuture(Future):
    """Runs its call the first time its result is asked for."""

    def __init__(self, fn, args):
        super().__init__()
        self._call = (fn, args)

    def result(self, timeout=None):
        if not self.done() and self.set_running_or_notify_cancel():
            fn, args = self._call
            try:
                self.set_result(fn(*args))
            except Exception as e:
                self.set_exception(e)
        return super().result(timeout)


class InlineExecutor:
    """A stand-in for ProcessPoolExecutor that starts no processes."""

    def __init__(self, max_workers):
        self.max_workers = max_workers
        self.futures = []
        self.shutdowns = []

    def submit(self, fn, *args):
        fut = _LazyFuture(fn, args)
        self.futures.append(fut)
        return fut

    def shutdown(self, wait=True, *, cancel_futures=False):
        self.shutdowns.append(cancel_futures)
        if cancel_futures:
            for fut in self.futures:
                fut.cancel()


@pytest.fixture
def inline_pools(monkeypatch):
    """Every executor wlb builds, each an InlineExecutor."""
    built = []

    def build(max_workers):
        built.append(InlineExecutor(max_workers))
        return built[-1]

    monkeypatch.setattr(wlb_module, "ProcessPoolExecutor", build)
    return built


class TestBatch:
    def test_one_executor_sized_by_workers_and_largest_fit(self, inline_pools):
        jobs = [
            (LossSpec(kind="loglik"), toy_data(np.random.default_rng(20), n=25),
             WlbConfig(n_draws=3, seed=5, workers=1)),
            (LossSpec(kind="dp", tuning=0.5),
             toy_data(np.random.default_rng(21), n=25),
             WlbConfig(n_draws=5, seed=6, workers=1)),
        ]
        serial = wlb_sample_batch(jobs, Prior(), PROBIT)
        assert inline_pools == []  # one worker builds no executor
        for workers, expected in [(4, 4), (8, 5)]:
            del inline_pools[:]
            fits = wlb_sample_batch([(s, d, replace(c, workers=workers))
                                     for s, d, c in jobs], Prior(), PROBIT)
            assert [pool.max_workers for pool in inline_pools] == [expected]
            # each fit keeps its own min(workers, B) chunks
            assert len(inline_pools[0].futures) == 3 + min(workers, 5)
            for a, b in zip(serial, fits):
                assert_allclose(a.matrix(only_ok=False),
                                b.matrix(only_ok=False), rtol=0, atol=0)
                assert a.convergence_flags.tolist() == \
                    b.convergence_flags.tolist()

    def test_batch_equals_separate_fits(self):
        jobs = batch_jobs([1, 2, 1])
        fits = wlb_sample_batch(jobs, Prior(), PROBIT)
        assert len(fits) == 3
        for (spec, data, config), fit in zip(jobs, fits):
            alone = wlb_sample(spec, data, Prior(), PROBIT,
                               replace(config, workers=1))
            assert_allclose(alone.matrix(only_ok=False),
                            fit.matrix(only_ok=False), rtol=0, atol=0)
            assert fit.seed == config.seed
        assert multiprocessing.active_children() == []

    @BATCH_STUBS
    def test_error_matches_single_fit(self, monkeypatch, recorded_pools,
                                      stub, error):
        monkeypatch.setattr(wlb_module, "minimize_block",
                            stub(wlb_module.minimize_block))
        jobs = batch_jobs([1, 2])
        spec, data, config = jobs[1]
        with pytest.raises(error) as alone:
            wlb_sample(spec, data, Prior(), PROBIT, config)
        with pytest.raises(error) as batch:
            wlb_sample_batch(jobs, Prior(), PROBIT)
        assert str(batch.value) == str(alone.value)
        assert len(recorded_pools) == 2
        # no chunk is left queued or running, and no worker outlives the call
        for pool in recorded_pools:
            assert all(fut.done() for fut in pool.futures)
        assert multiprocessing.active_children() == []

    @BATCH_STUBS
    def test_error_cancels_pending_chunks(self, monkeypatch, inline_pools,
                                          stub, error):
        monkeypatch.setattr(wlb_module, "minimize_block",
                            stub(wlb_module.minimize_block))
        with pytest.raises(error):
            wlb_sample_batch(batch_jobs([1, 2, 1]), Prior(), PROBIT)
        (pool,) = inline_pools
        assert pool.shutdowns == [True]
        # chunks 0-1 fit 1, 2-3 the failing fit 2, 4-5 fit 3
        ran = [not fut.cancelled() for fut in pool.futures]
        if error is SamplingFailureError:
            assert ran == [True, True, True, True, False, False]
        else:
            assert ran == [True, True, True, False, False, False]


class NegatedQuadratic:
    """A stand-in core whose objective is -x.x / 2: gradient -x."""

    n, M = 10, 2

    def block_value_and_grad(self, U, W):
        return -0.5 * np.sum(U * U, axis=1), -U


class TestSeededSerialFits:
    def test_fd_hessian_matches_oracle_second_differences(self):
        data = toy_data(np.random.default_rng(31), n=30, p=2, M=3)
        core = ObjectiveCore(LossSpec(kind="loglik"), data, Prior(), PROBIT)
        w = np.full(data.n, 1.0 / data.n)
        res = minimize(lambda u: core.value_and_grad(u, w),
                       wlb_module._initial_point(data, PROBIT))
        assert res.status == "converged"
        x, d, h = res.x, res.x.size, 1e-4

        def f(u):
            return oracles.direct_weighted_objective(
                "loglik", 0.0, 1.0, u, data.X, data.y, w, 10.0, 10.0, PROBIT)

        E = np.eye(d) * h
        want = np.array([[(f(x + E[j] + E[k]) - f(x + E[j] - E[k])
                           - f(x - E[j] + E[k]) + f(x - E[j] - E[k])) / (4 * h * h)
                          for k in range(d)] for j in range(d)])
        got = wlb_module._fd_hessian(core, x, w)
        assert np.array_equal(got, got.T)
        assert np.max(np.abs(got - want)) <= 1e-4 * np.max(np.abs(want))

    def test_fd_hessian_blocks_no_wider_than_a_draw_block(self):
        # n * M = 5000 elements: blocks of 3 rows, 12 rows to pass
        data = toy_data(np.random.default_rng(33), n=1000, p=2, M=5)
        core = ObjectiveCore(LossSpec(kind="dp", tuning=0.3), data, Prior(),
                             PROBIT)
        widths = []
        real = core.block_value_and_grad

        def spy(U, W):
            widths.append(len(U))
            return real(U, W)

        core.block_value_and_grad = spy
        x = wlb_module._initial_point(data, PROBIT)
        wlb_module._fd_hessian(core, x, np.full(data.n, 1.0 / data.n))
        assert sum(widths) == 2 * x.size
        assert max(widths) == wlb_module._block_size(core) < 2 * x.size

    def test_not_positive_definite_keeps_identity_start(self, monkeypatch):
        seen = []

        def record(fg, x0, H0=None):
            seen.append(H0)
            return "fit"

        monkeypatch.setattr(wlb_module, "minimize", record)
        assert wlb_module._seeded_fit(NegatedQuadratic(), np.ones(3)) == "fit"
        assert seen == [None]

    def test_seeded_shared_start_matches_identity_start(self):
        # rep 0 of the criterion-8/9 design
        data, _ = simulate_contaminated(0.2, "normal", 200,
                                        _derived_seed(808, (0, 0)))
        w = np.full(data.n, 1.0 / data.n)
        for spec in (LossSpec(kind="loglik"), LossSpec(kind="dp", tuning=0.3),
                     LossSpec(kind="gamma_general", tuning=0.3)):
            core = ObjectiveCore(spec, data, Prior(), PROBIT)
            x_init = wlb_module._initial_point(data, PROBIT)
            if spec.kind != "loglik":
                x_init = wlb_module._pilot_init(data, Prior(), PROBIT, x_init)
            x_start, H0 = wlb_module._shared_start(core, x_init)
            cold = minimize(lambda u: core.value_and_grad(u, w), x_init)
            assert cold.status == "converged" and H0 is not None
            assert_allclose(x_start, cold.x, rtol=0, atol=1e-6)

    def test_batch_fits_one_pilot_per_dataset(self, monkeypatch):
        data = toy_data(np.random.default_rng(32), n=40, p=2)
        data = replace(data, X=np.vstack([data.X[:-1], [[40.0, 0.0]]]))
        jobs = [(spec, data, WlbConfig(n_draws=6, seed=50 + k))
                for k, spec in enumerate([
                    LossSpec(kind="dp", tuning=0.5),
                    LossSpec(kind="gamma_synthetic", tuning=0.5),
                    LossSpec(kind="gamma_general", tuning=0.5)])]
        alone = [wlb_sample(spec, d, Prior(), PROBIT, config)
                 for spec, d, config in jobs]
        pilots = []
        real = wlb_module._pilot_init

        def counted_pilot(*args):
            pilots.append(real(*args))
            return pilots[-1]

        monkeypatch.setattr(wlb_module, "_pilot_init", counted_pilot)
        fits = wlb_sample_batch(jobs, Prior(), PROBIT)
        assert len(pilots) == 1
        # the high-leverage row is trimmed, so the pilot is a real fit
        assert not np.array_equal(pilots[0],
                                  wlb_module._initial_point(data, PROBIT))
        for a, b in zip(alone, fits):
            assert np.array_equal(a.values, b.values)
            assert a.convergence_flags.tolist() == b.convergence_flags.tolist()


class TestCoverageSanity:
    def test_clean_data_intervals_cover_truth(self):
        # small replication of the calibration property: on clean data
        # the 95% intervals for the regression coefficients should
        # cover the generating values most of the time
        truth = np.array([2.5, 1.2, 0.7])
        hits = 0
        checks = 0
        for rep in range(8):
            data, _truth = simulate_contaminated(rho=0.0, error="normal",
                                                 n=200, seed=100 + rep)
            fit = wlb_sample(
                LossSpec(kind="loglik"), data, Prior(), PROBIT,
                WlbConfig(n_draws=50, seed=500 + rep),
            )
            m = fit.matrix()
            lo = np.quantile(m[:, :3], 0.025, axis=0)
            hi = np.quantile(m[:, :3], 0.975, axis=0)
            hits += int(np.sum((truth >= lo) & (truth <= hi)))
            checks += 3
        assert hits / checks >= 0.7
