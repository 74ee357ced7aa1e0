"""Per-unit losses, weighted objectives, prior, gradients, kernel ratios."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from ordrobust import (
    LINKS,
    PROB_FLOOR,
    ContractError,
    Dataset,
    DegenerateObjectiveError,
    LossSpec,
    ObjectiveCore,
    Prior,
    Theta,
    category_probs,
    get_link,
    log_prior,
    minimize,
    unconstrained_to_theta,
    unit_dp_loss,
    unit_gamma_loss,
    weighted_objective,
    weighted_objective_gradient,
)

from ordrobust.losses import _loo_log_ratios, _observed_index

import oracles

PROBIT = get_link("probit")
LOGIT = get_link("logit")
ROBUST_KINDS = ("dp", "gamma_synthetic", "gamma_general")


def small_instance(rng, n=None, mild=True):
    """Dataset plus a parameter point with moderate probabilities."""
    n = int(rng.integers(2, 7)) if n is None else n
    p = int(rng.integers(1, 3))
    M = int(rng.integers(2, 5))
    X = rng.uniform(-1, 1, size=(n, p))
    y = rng.integers(1, M + 1, size=n)
    data = Dataset(y=y, X=X, n_categories=M)
    sd = 0.4 if mild else 3.0
    u = np.concatenate(
        [rng.normal(0, sd, p), [rng.normal(-0.8, 0.3)], rng.normal(0, 0.3, M - 2)]
    )
    return data, u


class TestSpecValidation:
    def test_unknown_kind(self):
        with pytest.raises(ContractError, match="loss kind"):
            LossSpec(kind="huber", tuning=0.5)

    def test_robust_kinds_need_positive_tuning(self):
        for kind in ROBUST_KINDS:
            with pytest.raises(ContractError, match="tuning"):
                LossSpec(kind=kind)
            with pytest.raises(ContractError, match="tuning"):
                LossSpec(kind=kind, tuning=-0.1)

    def test_loglik_ignores_tuning(self):
        assert LossSpec(kind="loglik").tuning == 0.0

    def test_learning_rate_positive(self):
        with pytest.raises(ContractError):
            LossSpec(kind="dp", tuning=0.5, learning_rate=0.0)

    def test_prior_sds_positive(self):
        with pytest.raises(ContractError):
            Prior(sd_beta=0.0)
        with pytest.raises(ContractError):
            Prior(sd_cut=-1.0)

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_nonfinite_values_rejected(self, bad):
        for kind in ROBUST_KINDS:
            with pytest.raises(ContractError, match="finite tuning"):
                LossSpec(kind=kind, tuning=bad)
        with pytest.raises(ContractError, match="learning_rate"):
            LossSpec(kind="loglik", learning_rate=bad)
        with pytest.raises(ContractError, match="finite and positive"):
            Prior(sd_beta=bad)
        with pytest.raises(ContractError, match="finite and positive"):
            Prior(sd_cut=bad)


class TestUnitLosses:
    def setup_method(self):
        self.theta = Theta(beta=[0.0], delta=[-1.0, 1.0])
        self.x = np.array([0.0])

    def test_dp_symmetric_triple(self):
        got = unit_dp_loss(self.theta, self.x, 2, 1.0, PROBIT)
        probs = oracles.direct_category_probs(
            PROBIT, [0.0], [-1.0, 1.0], self.x
        )
        assert_allclose(got, oracles.direct_unit_dp(probs, 2, 1.0), rtol=1e-12)
        assert_allclose(got, 0.42446, atol=1e-4)

    def test_gamma_symmetric_triple(self):
        got = unit_gamma_loss(self.theta, self.x, 2, 1.0, PROBIT)
        probs = oracles.direct_category_probs(
            PROBIT, [0.0], [-1.0, 1.0], self.x
        )
        assert_allclose(got, oracles.direct_unit_gamma(probs, 2, 1.0), rtol=1e-12)
        assert_allclose(got, 0.94999, atol=5e-4)

    def test_gamma_uniform_two_category(self):
        th = Theta(beta=[0.0], delta=[0.0])
        got = unit_gamma_loss(th, np.array([2.0]), 1, 1.0, LOGIT)
        assert_allclose(got, 1.0 / np.sqrt(2.0), rtol=1e-12)
        assert_allclose(
            unit_gamma_loss(th, np.array([2.0]), 2, 1.0, LOGIT), got, rtol=1e-12
        )

    def test_dp_bounds(self):
        rng = np.random.default_rng(21)
        for _ in range(300):
            p = int(rng.integers(1, 3))
            M = int(rng.integers(2, 5))
            beta = rng.normal(0, 5, p)
            delta = np.sort(rng.normal(0, 3, M - 1))
            if M > 2 and np.any(np.diff(delta) <= 0):
                continue
            th = Theta(beta=beta, delta=delta)
            x = rng.normal(0, 3, p)
            y = int(rng.integers(1, M + 1))
            alpha = float(rng.uniform(0.1, 2.0))
            r = unit_dp_loss(th, x, y, alpha, PROBIT)
            assert -1.0 / (1.0 + alpha) - 1e-9 <= r <= 1.0 / alpha + 1e-9

    def test_gamma_bounds(self):
        rng = np.random.default_rng(22)
        for _ in range(300):
            beta = rng.normal(0, 5, 1)
            delta = np.sort(rng.normal(0, 3, 2))
            if delta[1] - delta[0] <= 0:
                continue
            th = Theta(beta=beta, delta=delta)
            x = rng.normal(0, 3, 1)
            y = int(rng.integers(1, 4))
            gamma = float(rng.uniform(0.1, 2.0))
            r = unit_gamma_loss(th, x, y, gamma, PROBIT)
            assert 0.0 <= r <= 1.0 / gamma + 1e-9

    def test_dp_outlier_limit(self):
        # observed category probability pushed to the floor
        th = Theta(beta=[1.0], delta=[-1.0, 1.0])
        x = np.array([40.0])
        for alpha in (0.3, 0.5, 1.0):
            r = unit_dp_loss(th, x, 1, alpha, PROBIT)
            assert abs(r - (-1.0 / (1.0 + alpha))) < 1e-8

    def test_gamma_outlier_limit(self):
        th = Theta(beta=[1.0], delta=[-1.0, 1.0])
        for gamma in (0.3, 0.5, 1.0):
            assert abs(unit_gamma_loss(th, np.array([40.0]), 1, gamma, PROBIT)) < 1e-12
            assert abs(unit_gamma_loss(th, np.array([-40.0]), 3, gamma, PROBIT)) < 1e-12

    def test_dp_small_alpha_matches_log_density_differences(self):
        th_a = Theta(beta=[0.4], delta=[-1.0, 1.0])
        th_b = Theta(beta=[-0.2], delta=[-0.8, 1.2])
        x = np.array([0.5])
        d_dp = unit_dp_loss(th_a, x, 2, 1e-6, PROBIT) - unit_dp_loss(
            th_b, x, 2, 1e-6, PROBIT
        )
        fa = category_probs(th_a, x, PROBIT)[1]
        fb = category_probs(th_b, x, PROBIT)[1]
        assert abs(d_dp - (np.log(fa) - np.log(fb))) < 1e-4

    def test_tuning_sign_checked(self):
        with pytest.raises(ContractError):
            unit_dp_loss(self.theta, self.x, 1, 0.0, PROBIT)
        with pytest.raises(ContractError):
            unit_gamma_loss(self.theta, self.x, 1, -0.5, PROBIT)

    def test_category_range_checked(self):
        with pytest.raises(ContractError, match="category"):
            unit_dp_loss(self.theta, self.x, 4, 0.5, PROBIT)


class TestLogPrior:
    def test_value_at_origin(self):
        th = Theta(beta=[0.0, 0.0], delta=[0.0, 1.0, 2.0])  # u = 0 everywhere
        got = log_prior(th, Prior())
        d = 2 + 3
        assert_allclose(got, d * np.log(1.0 / (10.0 * np.sqrt(2 * np.pi))),
                        rtol=1e-12)

    def test_doubling_beta_sd(self):
        th = Theta(beta=[0.0, 0.0, 0.0], delta=[0.0])
        base = log_prior(th, Prior(sd_beta=10.0))
        wide = log_prior(th, Prior(sd_beta=20.0))
        assert_allclose(wide - base, -3 * np.log(2.0), rtol=1e-12)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(23)
        beta = rng.normal(0, 2, 4)
        th = Theta(beta=beta, delta=[-1.0, 0.5])
        perm = rng.permutation(4)
        th2 = Theta(beta=beta[perm], delta=[-1.0, 0.5])
        assert_allclose(log_prior(th, Prior()), log_prior(th2, Prior()), rtol=1e-12)

    def test_matches_closed_form(self):
        # the constant term and the precisions are computed once per
        # prior; the value is the textbook normal log density
        rng = np.random.default_rng(29)
        for sd_beta, sd_cut in [(10.0, 10.0), (2.5, 0.7), (0.3, 40.0)]:
            beta = rng.normal(0, 2, 3)
            delta = np.cumsum(rng.uniform(0.2, 1.5, 4)) - 2.0
            th = Theta(beta=beta, delta=delta)
            ub = beta
            uc = np.concatenate([delta[:1], np.log(np.diff(delta))])
            log_sqrt_2pi = 0.5 * np.log(2.0 * np.pi)
            want = (-0.5 * float(ub @ ub) / sd_beta**2
                    - ub.size * (np.log(sd_beta) + log_sqrt_2pi)
                    - 0.5 * float(uc @ uc) / sd_cut**2
                    - uc.size * (np.log(sd_cut) + log_sqrt_2pi))
            got = log_prior(th, Prior(sd_beta=sd_beta, sd_cut=sd_cut))
            assert_allclose(got, want, rtol=1e-14)


class TestWeightedObjective:
    def test_weight_validation(self):
        data = Dataset(y=[1, 2], X=[[0.0], [1.0]], n_categories=2)
        u = np.array([0.0, 0.0])
        spec = LossSpec(kind="loglik")
        with pytest.raises(ContractError, match="sum to 1"):
            weighted_objective(spec, u, data, [0.9, 0.2], Prior(), PROBIT)
        with pytest.raises(ContractError, match="nonnegative"):
            weighted_objective(spec, u, data, [1.2, -0.2], Prior(), PROBIT)
        with pytest.raises(ContractError, match="shape"):
            weighted_objective(spec, u, data, [1.0], Prior(), PROBIT)

    def test_equal_weights_loglik_is_negative_log_posterior(self):
        rng = np.random.default_rng(24)
        data, u = small_instance(rng, n=5)
        w = np.full(5, 0.2)
        got = weighted_objective(LossSpec(kind="loglik"), u, data, w,
                                 Prior(), PROBIT)
        theta = unconstrained_to_theta(u, data.p)
        P = category_probs(theta, data.X, PROBIT)
        f = P[np.arange(5), data.y - 1]
        want = -np.log(f).sum() - log_prior(theta, Prior())
        assert_allclose(got, want, rtol=1e-12)

    def test_single_unit_gamma_general(self):
        data = Dataset(y=[2], X=[[0.3]], n_categories=3)
        u = np.array([0.5, -1.0, 0.2])
        got = weighted_objective(
            LossSpec(kind="gamma_general", tuning=0.7), u, data, [1.0],
            Prior(), PROBIT,
        )
        theta = unconstrained_to_theta(u, 1)
        r1 = unit_gamma_loss(theta, data.X[0], 2, 0.7, PROBIT)
        assert_allclose(got, -r1 - log_prior(theta, Prior()), rtol=1e-12)

    def test_two_unit_dp_against_direct_oracle(self):
        data = Dataset(y=[1, 3], X=[[0.4], [-0.6]], n_categories=3)
        u = np.array([0.9, -0.7, 0.1])
        w = np.array([0.35, 0.65])
        got = weighted_objective(LossSpec(kind="dp", tuning=0.5), u, data, w,
                                 Prior(), PROBIT)
        want = oracles.direct_weighted_objective(
            "dp", 0.5, 1.0, u, data.X, data.y, w, 10.0, 10.0, PROBIT
        )
        assert_allclose(got, want, rtol=1e-12, atol=1e-12)

    def test_oracle_agreement_all_kinds(self):
        rng = np.random.default_rng(25)
        for trial in range(24):
            kind = ("loglik",) + ROBUST_KINDS
            kind = kind[trial % 4]
            data, u = small_instance(rng)
            w = rng.standard_exponential(data.n)
            w = w / w.sum()
            t = float(rng.uniform(0.2, 1.2))
            spec = LossSpec(kind=kind, tuning=0.0 if kind == "loglik" else t)
            got = weighted_objective(spec, u, data, w, Prior(), PROBIT)
            want = oracles.direct_weighted_objective(
                kind, spec.tuning, 1.0, u, data.X, data.y, w, 10.0, 10.0, PROBIT
            )
            assert_allclose(got, want, rtol=1e-12, atol=1e-12)

    # Smallest shift of the linear predictor that puts a tail category at
    # the probability floor: 40 sd for probit, further out for the
    # heavier exponential tails, and a Cauchy tail only near 1e300.
    FLOOR_SHIFT = {"probit": 40.0, "logit": 800.0, "loglog": 800.0,
                   "cloglog": 800.0, "cauchit": 1e300}

    def floored_instance(self, rng, name):
        """small_instance plus two units observed in a category whose
        probability sits at the floor: category 1 far above the
        cutpoints and category M far below them."""
        data, u = small_instance(rng)
        u[0] = 1.0
        shift = self.FLOOR_SHIFT[name]
        extra = np.zeros((2, data.p))
        extra[:, 0] = [shift, -shift]
        M = data.n_categories
        floored = Dataset(y=np.concatenate([data.y, [1, M]]),
                          X=np.vstack([data.X, extra]), n_categories=M)
        return floored, u

    @pytest.mark.parametrize("name", sorted(LINKS))
    def test_oracle_agreement_all_links(self, name):
        link = get_link(name)
        rng = np.random.default_rng(31)
        for trial in range(12):
            kind = (("loglik",) + ROBUST_KINDS)[trial % 4]
            data, u = self.floored_instance(rng, name)
            theta = unconstrained_to_theta(u, data.p)
            P = category_probs(theta, data.X, link)
            f = P[np.arange(data.n), data.y - 1]
            assert np.count_nonzero(f == PROB_FLOOR) >= 1
            w = rng.standard_exponential(data.n)
            w = w / w.sum()
            t = float(rng.uniform(0.2, 1.2))
            spec = LossSpec(kind=kind, tuning=0.0 if kind == "loglik" else t)
            got = weighted_objective(spec, u, data, w, Prior(), link)
            want = oracles.direct_weighted_objective(
                kind, spec.tuning, 1.0, u, data.X, data.y, w, 10.0, 10.0, link
            )
            assert_allclose(got, want, rtol=1e-12, atol=1e-12)
            grad = weighted_objective_gradient(spec, u, data, w, Prior(), link)
            fd = oracles.fd_gradient(
                lambda v: oracles.direct_weighted_objective(
                    kind, spec.tuning, 1.0, v, data.X, data.y, w, 10.0, 10.0,
                    link),
                u,
            )
            denom = max(float(np.linalg.norm(fd)), 1e-12)
            assert float(np.linalg.norm(grad - fd)) / denom < 1e-5

    @pytest.mark.parametrize("name", sorted(LINKS))
    def test_block_pass_matches_oracle(self, name):
        # one block of six rows, each with its own parameters and
        # weights, every kind; floored units keep f at the floor in
        # every row; learning rate 2 on loglik and gamma_synthetic
        link = get_link(name)
        rng = np.random.default_rng(37)
        for kind, lr in zip(("loglik",) + ROBUST_KINDS, (2.0, 1.0, 2.0, 1.0)):
            data, u = self.floored_instance(rng, name)
            B = 6
            U = u + rng.normal(0, 0.05, size=(B, u.size))
            # beta_1 >= its floored value keeps those units at the floor
            U[:, 0] = u[0] + np.abs(U[:, 0] - u[0])
            W = rng.standard_exponential((B, data.n))
            W /= W.sum(axis=1, keepdims=True)
            t = float(rng.uniform(0.2, 1.2))
            spec = LossSpec(kind=kind, tuning=0.0 if kind == "loglik" else t,
                            learning_rate=lr)
            core = ObjectiveCore(spec, data, Prior(), link)
            values, grads = core.block_value_and_grad(U, W)
            assert values.shape == (B,) and grads.shape == (B, u.size)
            for b in range(B):
                theta = unconstrained_to_theta(U[b], data.p)
                P = category_probs(theta, data.X, link)
                f = P[np.arange(data.n), data.y - 1]
                assert np.count_nonzero(f == PROB_FLOOR) >= 1

                def oracle(v, b=b):
                    return oracles.direct_weighted_objective(
                        kind, spec.tuning, lr, v, data.X, data.y, W[b],
                        10.0, 10.0, link)

                assert_allclose(values[b], oracle(U[b]), rtol=1e-12, atol=1e-12)
                fd = oracles.fd_gradient(oracle, U[b])
                denom = max(float(np.linalg.norm(fd)), 1e-12)
                assert float(np.linalg.norm(grads[b] - fd)) / denom < 1e-5
                # the one-row pass is the same row of the block
                v1, g1 = core.value_and_grad(U[b], W[b])
                assert v1 == values[b]
                assert_allclose(g1, grads[b], rtol=0, atol=0)

    def test_block_shape_validated(self):
        rng = np.random.default_rng(38)
        data, u = small_instance(rng, n=4)
        core = ObjectiveCore(LossSpec(kind="loglik"), data, Prior(), PROBIT)
        W = np.full((2, 4), 0.25)
        with pytest.raises(ContractError, match="block"):
            core.block_value_and_grad(np.tile(u, (3, 1)), W)
        with pytest.raises(ContractError, match="block"):
            core.block_value_and_grad(u, W[:1])

    @pytest.mark.parametrize("kind", ("loglik",) + ROBUST_KINDS)
    def test_calls_change_no_state(self, kind):
        # blocks of 7, 3 and 11 rows on one core: no attribute is added,
        # rebound or written, and each row equals a fresh core's one-row
        # pass bit for bit
        rng = np.random.default_rng(39)
        M = 4
        X = rng.uniform(-1, 1, size=(9, 2))
        y = np.concatenate([np.arange(1, M + 1), rng.integers(1, M + 1, 5)])
        data = Dataset(y=y, X=X, n_categories=M)
        spec = LossSpec(kind=kind, tuning=0.0 if kind == "loglik" else 0.4)
        core = ObjectiveCore(spec, data, Prior(), PROBIT)
        before = {k: (v, v.copy() if isinstance(v, np.ndarray) else None)
                  for k, v in vars(core).items()}
        u = np.array([0.3, -0.2, -0.8, -0.1, 0.2])
        for B in (7, 3, 11):
            U = u + rng.normal(0, 0.1, size=(B, u.size))
            W = rng.standard_exponential((B, data.n))
            W /= W.sum(axis=1, keepdims=True)
            values, grads = core.block_value_and_grad(U, W)
            for b in range(B):
                fresh = ObjectiveCore(spec, data, Prior(), PROBIT)
                v1, g1 = fresh.value_and_grad(U[b], W[b])
                assert v1 == values[b]
                assert_allclose(g1, grads[b], rtol=0, atol=0)
        after = vars(core)
        assert after.keys() == before.keys()
        for k, (v, copy) in before.items():
            assert after[k] is v
            if copy is not None:
                np.testing.assert_array_equal(v, copy)

    def test_gamma_synthetic_degenerate(self):
        # every unit's observed probability at the floor and a tuning
        # large enough that f**tuning underflows: the weighted loss sum
        # vanishes and the log has no finite value
        data = Dataset(y=[2, 2], X=[[-40.0], [-41.0]], n_categories=2)
        u = np.array([1.5, 0.0])
        with pytest.raises(DegenerateObjectiveError):
            weighted_objective(
                LossSpec(kind="gamma_synthetic", tuning=1.5), u, data,
                [0.5, 0.5], Prior(), PROBIT,
            )

    def test_learning_rate_scales_loss_only(self):
        rng = np.random.default_rng(26)
        data, u = small_instance(rng, n=4)
        w = np.full(4, 0.25)
        lp = log_prior(unconstrained_to_theta(u, data.p), Prior())
        for kind in ("loglik",) + ROBUST_KINDS:
            t = 0.0 if kind == "loglik" else 0.5
            v1 = weighted_objective(LossSpec(kind=kind, tuning=t), u, data, w,
                                    Prior(), PROBIT)
            v2 = weighted_objective(
                LossSpec(kind=kind, tuning=t, learning_rate=2.0), u, data, w,
                Prior(), PROBIT,
            )
            assert_allclose(v2, 2.0 * v1 + lp, rtol=1e-10)

    def test_zero_weight_unit_is_inert(self):
        # a unit carrying weight 0 contributes nothing: changing its
        # response and covariates moves neither value nor gradient
        rng = np.random.default_rng(27)
        X = rng.uniform(-1, 1, size=(4, 2))
        y = np.array([1, 2, 3, 2])
        X2 = X.copy()
        X2[0] = [0.9, -0.9]
        y2 = y.copy()
        y2[0] = 3
        u = np.concatenate([rng.normal(0, 0.5, 2), [-0.8, 0.1]])
        w = np.array([0.0, 0.3, 0.4, 0.3])
        for kind in ("dp", "gamma_general"):
            spec = LossSpec(kind=kind, tuning=0.6)
            a = Dataset(y=y, X=X, n_categories=3)
            b = Dataset(y=y2, X=X2, n_categories=3)
            assert weighted_objective(spec, u, a, w, Prior(), PROBIT) == \
                weighted_objective(spec, u, b, w, Prior(), PROBIT)
            ga = weighted_objective_gradient(spec, u, a, w, Prior(), PROBIT)
            gb = weighted_objective_gradient(spec, u, b, w, Prior(), PROBIT)
            assert_allclose(ga, gb, rtol=0, atol=0)

    def test_core_wrapper_agreement(self):
        # value() is the first element of value_and_grad(), which
        # minimize calls; the public wrappers must agree exactly
        rng = np.random.default_rng(28)
        data, u = small_instance(rng, n=5)
        w = np.full(5, 0.2)
        for kind in ("loglik",) + ROBUST_KINDS:
            spec = LossSpec(kind=kind, tuning=0.0 if kind == "loglik" else 0.5)
            core = ObjectiveCore(spec, data, Prior(), PROBIT)
            assert weighted_objective(spec, u, data, w, Prior(), PROBIT) == \
                core.value(u, w)
            v, g = core.value_and_grad(u, w)
            assert v == core.value(u, w)
            assert_allclose(
                g,
                weighted_objective_gradient(spec, u, data, w, Prior(), PROBIT),
                rtol=0, atol=0,
            )


class TestGradients:
    def test_matches_central_differences(self):
        rng = np.random.default_rng(29)
        for kind in ("loglik",) + ROBUST_KINDS:
            for name in ("probit", "logit", "cauchit"):
                link = get_link(name)
                for _ in range(5):
                    data, u = small_instance(rng)
                    w = rng.standard_exponential(data.n)
                    w = w / w.sum()
                    t = 0.0 if kind == "loglik" else float(rng.uniform(0.2, 1.0))
                    spec = LossSpec(kind=kind, tuning=t)
                    got = weighted_objective_gradient(spec, u, data, w,
                                                      Prior(), link)
                    want = oracles.fd_gradient(
                        lambda v: weighted_objective(spec, v, data, w,
                                                     Prior(), link), u
                    )
                    denom = max(float(np.linalg.norm(want)), 1e-12)
                    assert float(np.linalg.norm(got - want)) / denom < 1e-5

    def test_gradient_norm_small_at_minimum(self):
        rng = np.random.default_rng(30)
        data, u0 = small_instance(rng, n=20)
        w = np.full(20, 0.05)
        spec = LossSpec(kind="dp", tuning=0.5)
        core = ObjectiveCore(spec, data, Prior(), PROBIT)
        res = minimize(lambda v: core.value_and_grad(v, w), u0, 500, 1e-7)
        assert res.status == "converged"
        g = weighted_objective_gradient(spec, res.x, data, w, Prior(), PROBIT)
        assert float(np.linalg.norm(g)) <= 1e-7


class TestLooLogRatio:
    def make_toy(self):
        data = Dataset(y=[1, 2, 3], X=[[0.2], [-0.4], [0.9]], n_categories=3)
        theta = Theta(beta=[0.8], delta=[-0.9, 0.7])
        return data, theta

    def ratios(self, spec, theta, data):
        """Every unit's ratio from the category-major probability table."""
        P = category_probs(theta, data.X, PROBIT).T
        with np.errstate(divide="ignore", invalid="ignore"):
            return _loo_log_ratios(spec, P, _observed_index(data))

    def test_loglik_is_negative_log_density(self):
        data, theta = self.make_toy()
        got = self.ratios(LossSpec(kind="loglik"), theta, data)
        for i in range(3):
            f = category_probs(theta, data.X[i], PROBIT)[data.y[i] - 1]
            assert_allclose(got[i], -np.log(f), rtol=1e-12)

    def test_additive_kinds_are_negative_unit_losses(self):
        data, theta = self.make_toy()
        dp = self.ratios(LossSpec(kind="dp", tuning=0.5), theta, data)
        gg = self.ratios(LossSpec(kind="gamma_general", tuning=0.5), theta,
                         data)
        for i in range(3):
            want = -unit_dp_loss(theta, data.X[i], int(data.y[i]), 0.5, PROBIT)
            assert_allclose(dp[i], want, rtol=1e-12)
            want = -unit_gamma_loss(theta, data.X[i], int(data.y[i]), 0.5, PROBIT)
            assert_allclose(gg[i], want, rtol=1e-12)

    def test_gamma_synthetic_against_kernel_oracle(self):
        data, theta = self.make_toy()
        got = self.ratios(LossSpec(kind="gamma_synthetic", tuning=0.5), theta,
                          data)
        for i in range(3):
            want = oracles.direct_loo_log_ratio(
                "gamma_synthetic", 0.5, theta, data.X, data.y, i, PROBIT
            )
            assert_allclose(got[i], want, rtol=1e-12)

    def test_gamma_synthetic_dominating_unit_is_nonfinite(self):
        # unit 0 holds the entire synthetic loss sum, so removing it
        # leaves log(0); removing either other unit changes nothing
        data = Dataset(
            y=[2, 2, 2], X=[[40.0], [-40.0], [-41.0]], n_categories=2
        )
        theta = Theta(beta=[1.0], delta=[0.0])
        spec = LossSpec(kind="gamma_synthetic", tuning=1.5)
        got = self.ratios(spec, theta, data)
        assert not np.isfinite(got[0])
        assert got[1] == 0.0


class TestObjectiveInvariants:
    def test_vanishing_tuning_reduces_to_log_likelihood(self):
        # the deviation of the objective differences from log-likelihood
        # differences is of order tuning * sum_i (log f_i)^2, so the
        # fixture keeps n small and every category probability moderate
        rng = np.random.default_rng(42)
        n, M = 4, 3
        X = rng.uniform(-0.3, 0.3, size=(n, 2))
        y = rng.integers(1, M + 1, size=n)
        data = Dataset(y=y, X=X, n_categories=M)
        w = np.full(n, 1.0 / n)
        ll = ObjectiveCore(LossSpec(kind="loglik"), data, Prior(), PROBIT)
        cores = {
            kind: ObjectiveCore(LossSpec(kind=kind, tuning=1e-4), data,
                                Prior(), PROBIT)
            for kind in ROBUST_KINDS
        }

        def draw_point():
            return np.concatenate([
                rng.normal(0, 0.2, 2),
                [rng.normal(-0.55, 0.1)],
                rng.normal(0.1, 0.1, M - 2),
            ])

        worst = 0.0
        for _ in range(50):
            u1, u2 = draw_point(), draw_point()
            d_ll = ll.value(u1, w) - ll.value(u2, w)
            for core in cores.values():
                gap = abs((core.value(u1, w) - core.value(u2, w)) - d_ll)
                worst = max(worst, gap)
        assert worst < 1e-3

    def test_summed_losses_bounded(self):
        rng = np.random.default_rng(43)
        for _ in range(40):
            n = int(rng.integers(2, 8))
            data = Dataset(
                y=rng.integers(1, 4, size=n),
                X=rng.normal(0, 2, size=(n, 1)),
                n_categories=3,
            )
            beta = rng.normal(0, 10, 1)
            delta = np.sort(rng.normal(0, 5, 2))
            if delta[1] - delta[0] <= 0:
                continue
            theta = Theta(beta=beta, delta=delta)
            alpha = float(rng.uniform(0.1, 1.5))
            gamma = float(rng.uniform(0.1, 1.5))
            s_dp = sum(
                unit_dp_loss(theta, data.X[i], int(data.y[i]), alpha, PROBIT)
                for i in range(n)
            )
            s_g = sum(
                unit_gamma_loss(theta, data.X[i], int(data.y[i]), gamma, PROBIT)
                for i in range(n)
            )
            assert abs(s_dp) <= n * max(1.0 / alpha, 1.0 / (1.0 + alpha)) + 1e-9
            assert -1e-12 <= s_g <= n / gamma + 1e-9

    def test_outlier_shift_of_full_objectives(self):
        # dragging one unit's covariate to the outlier regime moves the
        # dp objective by exactly the unit's loss limit, contributes
        # nothing to the gamma objectives, and blows up the likelihood
        rng = np.random.default_rng(44)
        n = 6
        data = Dataset(
            y=np.array([1, 2, 3, 2, 1, 3]),
            X=rng.normal(0, 1, size=(n, 1)),
            n_categories=3,
        )
        X_out = data.X.copy()
        X_out[0, 0] = 40.0  # unit 0 has y = 1, latent index +40
        data_out = Dataset(y=data.y, X=X_out, n_categories=3)
        u = np.array([1.0, -1.0, np.log(2.0)])
        w = np.full(n, 1.0 / n)
        prior = Prior()
        for alpha in (0.3, 0.5):
            spec = LossSpec(kind="dp", tuning=alpha)
            v0 = weighted_objective(spec, u, data, w, prior, PROBIT)
            v1 = weighted_objective(spec, u, data_out, w, prior, PROBIT)
            r0 = unit_dp_loss(
                Theta(beta=[1.0], delta=[-1.0, 1.0]), data.X[0], 1, alpha,
                PROBIT,
            )
            # unit 0's loss moves from r0 to its limit -1/(1+alpha)
            want = -n * (1.0 / n) * (-1.0 / (1.0 + alpha) - r0)
            assert abs((v1 - v0) - want) < 1e-8
        for kind in ("gamma_general",):
            spec = LossSpec(kind=kind, tuning=0.5)
            v0 = weighted_objective(spec, u, data, w, prior, PROBIT)
            v1 = weighted_objective(spec, u, data_out, w, prior, PROBIT)
            r0 = unit_gamma_loss(
                Theta(beta=[1.0], delta=[-1.0, 1.0]), data.X[0], 1, 0.5, PROBIT
            )
            want = -n * (1.0 / n) * (0.0 - r0)
            assert abs((v1 - v0) - want) < 1e-8
        ll0 = weighted_objective(LossSpec(kind="loglik"), u, data, w, prior,
                                 PROBIT)
        ll1 = weighted_objective(LossSpec(kind="loglik"), u, data_out, w,
                                 prior, PROBIT)
        assert ll1 - ll0 > 100.0
