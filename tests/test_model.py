"""Parameter containers, the ordering transform, probabilities, residuals."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from ordrobust import (
    LINKS,
    ContractError,
    Dataset,
    PROB_FLOOR,
    Theta,
    category_probs,
    generalized_residuals,
    get_link,
    theta_to_unconstrained,
    unconstrained_to_theta,
)
from ordrobust.model import _observed_cells, _probs_from_args

import oracles

PROBIT = get_link("probit")
LOGIT = get_link("logit")


def random_theta(rng, p=None, M=None):
    p = int(rng.integers(1, 5)) if p is None else p
    M = int(rng.integers(2, 7)) if M is None else M
    beta = rng.normal(0, 2, p)
    delta = np.sort(rng.normal(0, 2, M - 1))
    while M > 2 and np.any(np.diff(delta) <= 1e-8):
        delta = np.sort(rng.normal(0, 2, M - 1))
    return Theta(beta=beta, delta=delta)


class TestTheta:
    def test_rejects_unordered_cutpoints(self):
        with pytest.raises(ContractError, match="increasing"):
            Theta(beta=[1.0], delta=[0.5, 0.5])
        with pytest.raises(ContractError, match="increasing"):
            Theta(beta=[1.0], delta=[1.0, -1.0])

    def test_rejects_nonfinite(self):
        with pytest.raises(ContractError, match="finite"):
            Theta(beta=[np.inf], delta=[0.0])
        with pytest.raises(ContractError, match="finite"):
            Theta(beta=[0.0], delta=[np.nan, 1.0])

    def test_needs_one_cutpoint(self):
        with pytest.raises(ContractError):
            Theta(beta=[1.0], delta=[])

    def test_vector_layout(self):
        th = Theta(beta=[1.0, 2.0], delta=[-1.0, 1.0])
        assert th.n_categories == 3
        assert_allclose(th.as_vector(), [1.0, 2.0, -1.0, 1.0])


class TestDataset:
    def test_label_range_checked(self):
        with pytest.raises(ContractError, match="labels"):
            Dataset(y=[1, 4], X=[[0.0], [1.0]], n_categories=3)
        with pytest.raises(ContractError, match="labels"):
            Dataset(y=[0, 2], X=[[0.0], [1.0]], n_categories=3)

    def test_rejects_constant_column(self):
        with pytest.raises(ContractError, match="constant"):
            Dataset(y=[1, 2], X=[[1.0, 0.0], [1.0, 1.0]], n_categories=2)

    def test_constant_column_named_in_error(self):
        with pytest.raises(ContractError, match="'iota'"):
            Dataset(y=[1, 2], X=[[2.0, 0.0], [2.0, 1.0]], n_categories=2,
                    column_names=("iota", "z"))

    def test_rejects_fractional_labels(self):
        with pytest.raises(ContractError, match="integer"):
            Dataset(y=[1.0, 1.5], X=[[0.0], [1.0]], n_categories=2)

    def test_whole_float_labels_accepted(self):
        data = Dataset(y=[1.0, 2.0], X=[[0.0], [1.0]], n_categories=2)
        assert data.y.dtype.kind == "i"

    def test_default_column_names(self):
        data = Dataset(y=[1, 2], X=[[0.0, 3.0], [1.0, 4.0]], n_categories=2)
        assert data.column_names == ("x1", "x2")

    def test_column_name_length_checked(self):
        with pytest.raises(ContractError, match="column_names"):
            Dataset(y=[1, 2], X=[[0.0], [1.0]], n_categories=2,
                    column_names=("a", "b"))

    def test_cutpoint_names_reserved(self):
        with pytest.raises(ContractError, match="'delta2'"):
            Dataset(y=[1, 2], X=[[0.0, 3.0], [1.0, 4.0]], n_categories=2,
                    column_names=("delta_t", "delta2"))

    def test_shape_checks(self):
        with pytest.raises(ContractError):
            Dataset(y=[[1], [2]], X=[[0.0], [1.0]], n_categories=2)
        with pytest.raises(ContractError):
            Dataset(y=[1, 2, 2], X=[[0.0], [1.0]], n_categories=2)
        with pytest.raises(ContractError, match="two categories"):
            Dataset(y=[1, 1], X=[[0.0], [1.0]], n_categories=1)


class TestTransform:
    def test_gap_construction(self):
        th = unconstrained_to_theta(
            np.array([0.3, -1.6, np.log(1.6), np.log(1.6)]), n_beta=1
        )
        assert_allclose(th.delta, [-1.6, 0.0, 1.6], atol=1e-12)

    def test_round_trip_published_cutpoints(self):
        th = Theta(beta=[2.5, 1.2, 0.7], delta=[-3.0, -0.7, 1.6, 3.9])
        back = unconstrained_to_theta(theta_to_unconstrained(th), n_beta=3)
        assert_allclose(back.beta, th.beta, atol=1e-12)
        assert_allclose(back.delta, th.delta, atol=1e-12)

    def test_two_category_degenerate(self):
        th = Theta(beta=[1.0], delta=[0.4])
        u = theta_to_unconstrained(th)
        assert u.size == 2
        assert_allclose(unconstrained_to_theta(u, 1).delta, [0.4])

    def test_round_trip_random(self):
        rng = np.random.default_rng(3)
        for _ in range(1000):
            th = random_theta(rng)
            u = theta_to_unconstrained(th)
            back = unconstrained_to_theta(u, th.beta.size)
            assert_allclose(back.beta, th.beta, atol=1e-12)
            assert_allclose(back.delta, th.delta, atol=1e-12)

    def test_ordering_always_holds(self):
        rng = np.random.default_rng(4)
        for _ in range(200):
            u = rng.normal(0, 3, 5)
            th = unconstrained_to_theta(u, n_beta=2)
            assert np.all(np.diff(th.delta) > 0)

    def test_input_validation(self):
        with pytest.raises(ContractError):
            unconstrained_to_theta(np.zeros((2, 2)), 1)
        with pytest.raises(ContractError):
            unconstrained_to_theta(np.zeros(2), 2)


class TestCategoryProbs:
    def test_symmetric_probit_triple(self):
        th = Theta(beta=[0.0], delta=[-1.0, 1.0])
        P = category_probs(th, np.array([0.7]), PROBIT)
        want = [
            oracles.normal_cdf(-1.0),
            oracles.normal_cdf(1.0) - oracles.normal_cdf(-1.0),
            oracles.normal_sf(1.0),
        ]
        assert_allclose(P, want, rtol=1e-12)
        assert_allclose(P, [0.15866, 0.68269, 0.15866], atol=5e-6)

    def test_two_category_logit_split(self):
        th = Theta(beta=[0.0], delta=[0.0])
        P = category_probs(th, np.array([1.3]), LOGIT)
        assert_allclose(P, [0.5, 0.5], rtol=1e-15)

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(5)
        for _ in range(1000):
            name = ("probit", "logit", "loglog", "cloglog", "cauchit")[
                int(rng.integers(5))
            ]
            th = random_theta(rng)
            x = rng.normal(0, 2, th.beta.size)
            P = category_probs(th, x, get_link(name))
            assert abs(P.sum() - 1.0) < 1e-10

    def test_matrix_form_matches_rows(self):
        rng = np.random.default_rng(6)
        th = random_theta(rng, p=2, M=4)
        X = rng.normal(0, 1, (7, 2))
        P = category_probs(th, X, PROBIT)
        for i in range(7):
            assert_allclose(P[i], category_probs(th, X[i], PROBIT), rtol=1e-12)

    def test_clamp_floor(self):
        th = Theta(beta=[1.0], delta=[-1.0, 1.0])
        P = category_probs(th, np.array([60.0]), PROBIT)
        assert np.all(P >= PROB_FLOOR)
        assert_allclose(P.max(), 1.0, atol=1e-12)

    def test_tail_difference_avoids_cancellation(self):
        # both cutpoint arguments deep in the upper tail: the middle
        # category's probability must come out positive and accurate,
        # not as a difference of two values rounded to 1
        th = Theta(beta=[1.0], delta=[8.5, 9.0])
        P = category_probs(th, np.array([0.0]), PROBIT)
        want = 0.5 * (
            oracles.erfc_cf(8.5 / np.sqrt(2.0)) - oracles.erfc_cf(9.0 / np.sqrt(2.0))
        )
        assert P[1] > 0
        assert_allclose(P[1], want, rtol=1e-10)

    def test_dimension_mismatch(self):
        th = Theta(beta=[1.0, 2.0], delta=[0.0])
        with pytest.raises(ContractError, match="covariates"):
            category_probs(th, np.array([1.0]), PROBIT)


class TestObservedCells:
    """The two-cutpoint evaluation against the full probability table."""

    @staticmethod
    def units(rng, M):
        # every category, including the unbounded first and last, at
        # moderate and extreme linear predictors
        eta = np.concatenate([rng.normal(0, 2, 60),
                              [0.0, 40.0, -40.0, 800.0, -800.0]])
        c = np.concatenate([np.arange(60) % M, [0, 0, M - 1, 0, M - 1]])
        return eta, c

    @pytest.mark.parametrize("name", sorted(LINKS))
    def test_equal_to_full_table(self, name):
        link = get_link(name)
        rng = np.random.default_rng(41)
        delta = np.array([-1.7, -0.3, 0.4, 2.2])
        eta, c = self.units(rng, delta.size + 1)
        theta = Theta(beta=[1.0], delta=delta)
        P = category_probs(theta, eta[:, None], link)
        rows = np.arange(eta.size)
        f, g_hi, g_lo = _observed_cells(delta, eta, c, link)
        assert_allclose(f, P[rows, c], rtol=0, atol=0)
        pad = np.concatenate([[-np.inf], delta, [np.inf]])
        want_hi = np.where(c < delta.size, link.pdf(pad[c + 1] - eta), 0.0)
        want_lo = np.where(c > 0, link.pdf(pad[c] - eta), 0.0)
        assert_allclose(g_hi, want_hi, rtol=0, atol=0)
        assert_allclose(g_lo, want_lo, rtol=0, atol=0)
        assert np.all(g_hi[c == delta.size] == 0.0)
        assert np.all(g_lo[c == 0] == 0.0)

    @pytest.mark.parametrize("name", sorted(LINKS))
    def test_tied_and_infinite_cutpoints(self, name):
        # the optimizer's decoding may tie cutpoints (an underflowed gap)
        # or push the last ones to +inf (an overflowed gap)
        link = get_link(name)
        rng = np.random.default_rng(42)
        delta = np.array([-0.5, -0.5, 1.0, np.inf, np.inf])
        K = delta.size
        eta, c = self.units(rng, K + 1)
        P, g = _probs_from_args(delta[:, None] - eta, link)
        gpad = np.vstack([np.zeros(eta.size), g, np.zeros(eta.size)])
        rows = np.arange(eta.size)
        f, g_hi, g_lo = _observed_cells(delta, eta, c, link)
        assert_allclose(f, P[c, rows], rtol=0, atol=0)
        assert_allclose(g_hi, gpad[c + 1, rows], rtol=0, atol=0)
        assert_allclose(g_lo, gpad[c, rows], rtol=0, atol=0)
        assert np.all(f >= PROB_FLOOR)


class TestGeneralizedResiduals:
    def test_zero_at_symmetric_midpoint(self):
        th = Theta(beta=[0.0], delta=[-1.0, 1.0])
        data = Dataset(y=[2, 1], X=[[0.0], [2.0]], n_categories=3)
        res = generalized_residuals(th, data, PROBIT)
        assert abs(res[0]) < 1e-12

    def test_symmetric_links_vanish_at_band_midpoint(self):
        rng = np.random.default_rng(8)
        for name in ("probit", "logit", "cauchit"):
            link = get_link(name)
            for _ in range(50):
                d1 = rng.normal(-1, 0.5)
                d2 = d1 + rng.uniform(0.5, 2.0)
                mid = 0.5 * (d1 + d2)
                th = Theta(beta=[1.0], delta=[d1, d2])
                data = Dataset(
                    y=[2, 1], X=[[mid], [mid - 3.0]], n_categories=3
                )
                res = generalized_residuals(th, data, link)
                assert abs(res[0]) < 1e-12

    def test_shifted_value_against_normal_oracle(self):
        th = Theta(beta=[0.5], delta=[-1.0, 1.0])
        data = Dataset(y=[2, 1], X=[[1.0], [0.0]], n_categories=3)
        res = generalized_residuals(th, data, PROBIT)
        num = oracles.normal_pdf(0.5) - oracles.normal_pdf(-1.5)
        den = oracles.normal_cdf(0.5) - oracles.normal_cdf(-1.5)
        assert_allclose(res[0], -num / den, rtol=1e-12)
        assert_allclose(res[0], -0.3563, atol=1e-4)

    def test_boundary_categories_use_zero_density(self):
        th = Theta(beta=[1.0], delta=[-0.5, 0.5])
        data = Dataset(y=[3, 1], X=[[0.2], [-0.2]], n_categories=3)
        res = generalized_residuals(th, data, PROBIT)
        # top category: e = -(0 - g(d2 - eta)) / sf(d2 - eta) > 0
        a = 0.5 - 0.2
        assert_allclose(res[0], oracles.normal_pdf(a) / oracles.normal_sf(a),
                        rtol=1e-12)
        # bottom category: e = -g(d1 - eta) / cdf(d1 - eta) < 0
        b = -0.5 + 0.2
        assert_allclose(res[1], -oracles.normal_pdf(b) / oracles.normal_cdf(b),
                        rtol=1e-12)

    def test_outlying_unit_flagged(self):
        th = Theta(beta=[1.0], delta=[-1.0, 1.0])
        data = Dataset(y=[1, 2], X=[[6.0], [0.0]], n_categories=3)
        res = generalized_residuals(th, data, PROBIT)
        assert abs(res[0]) > 5.0
        assert abs(res[1]) < 0.1

    def test_mismatch_errors(self):
        th = Theta(beta=[1.0], delta=[0.0])
        data = Dataset(y=[1, 2], X=[[0.0, 1.0], [1.0, 0.0]], n_categories=2)
        with pytest.raises(ContractError):
            generalized_residuals(th, data, PROBIT)
        th2 = Theta(beta=[1.0, 0.0], delta=[0.0, 1.0])
        with pytest.raises(ContractError, match="category count"):
            generalized_residuals(th2, data, PROBIT)
