"""CSV preprocessing, level scoring, and the synthetic generators."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from ordrobust import (
    ContractError,
    Dataset,
    LossSpec,
    ObjectiveCore,
    PreprocessError,
    PreprocessSpec,
    Prior,
    Theta,
    generalized_residuals,
    get_link,
    inject_outlier,
    likert_sigma,
    load_csv,
    minimize,
    simulate_contaminated,
    simulate_grid,
    unconstrained_to_theta,
)
import ordrobust.wlb as wlb_module

import oracles

PROBIT = get_link("probit")


def write_csv(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


class TestPreprocessSpec:
    def test_edges_validation(self):
        with pytest.raises(ContractError, match="nonempty"):
            PreprocessSpec(response="y", edges=())
        with pytest.raises(ContractError, match="increasing"):
            PreprocessSpec(response="y", edges=(1.0, 1.0))

    def test_unknown_action(self):
        with pytest.raises(ContractError, match="unknown action"):
            PreprocessSpec(response="y", columns={"x": "winsorize"})

    def test_response_cannot_have_action(self):
        with pytest.raises(ContractError, match="response"):
            PreprocessSpec(response="y", columns={"y": "standardize"})

    def test_from_mapping(self):
        spec = PreprocessSpec.from_mapping(
            {"response": "y", "edges": [1, 2], "columns": {"x": "standardize"}}
        )
        assert spec.response == "y"
        assert spec.edges == (1.0, 2.0)
        assert spec.columns == {"x": "standardize"}

    def test_from_mapping_validation(self):
        with pytest.raises(ContractError, match="JSON object"):
            PreprocessSpec.from_mapping(["y"])
        with pytest.raises(ContractError, match="unknown preprocess keys"):
            PreprocessSpec.from_mapping({"response": "y", "weights": []})
        with pytest.raises(ContractError, match="'response'"):
            PreprocessSpec.from_mapping({"columns": {}})


class TestLoadCsv:
    def test_standardize(self, tmp_path):
        path = write_csv(tmp_path, "y,x\n1,1\n2,2\n3,3\n")
        data = load_csv(path, PreprocessSpec(response="y",
                                             columns={"x": "standardize"}))
        want = np.array([-1.0, 0.0, 1.0]) * np.sqrt(1.5)
        assert_allclose(data.X[:, 0], want, rtol=1e-12)
        assert_allclose(data.X[:, 0], [-1.2247, 0.0, 1.2247], atol=1e-4)
        assert data.column_names == ("x",)
        assert data.n_categories == 3

    def test_dummy_code_drops_first_level(self, tmp_path):
        path = write_csv(tmp_path, "y,g\n1,a\n2,b\n1,c\n2,a\n")
        data = load_csv(path, PreprocessSpec(response="y",
                                             columns={"g": "dummy_code"}))
        assert data.column_names == ("g=b", "g=c")
        assert_allclose(data.X[:, 0], [0.0, 1.0, 0.0, 0.0], rtol=0)
        assert_allclose(data.X[:, 1], [0.0, 0.0, 1.0, 0.0], rtol=0)

    def test_binning_edges(self, tmp_path):
        path = write_csv(
            tmp_path, "score,x\n5,0\n15,1\n25,2\n35,3\n45,4\n"
        )
        data = load_csv(
            path, PreprocessSpec(response="score", edges=(10, 20, 30, 40))
        )
        assert data.y.tolist() == [1, 2, 3, 4, 5]
        assert data.n_categories == 5

    def test_integer_response_path(self, tmp_path):
        path = write_csv(tmp_path, "y,x\n2,0.5\n1,-0.5\n3,1.5\n")
        data = load_csv(path, PreprocessSpec(response="y"))
        assert data.y.tolist() == [2, 1, 3]
        assert data.n_categories == 3
        # passthrough leaves values untouched
        assert_allclose(data.X[:, 0], [0.5, -0.5, 1.5], rtol=0)

    def test_fractional_label_rejected(self, tmp_path):
        path = write_csv(tmp_path, "y,x\n1.5,0\n2,1\n")
        with pytest.raises(PreprocessError, match="integer labels"):
            load_csv(path, PreprocessSpec(response="y"))

    def test_labels_must_start_at_one(self, tmp_path):
        path = write_csv(tmp_path, "y,x\n0,0\n1,1\n")
        with pytest.raises(PreprocessError, match="start at 1"):
            load_csv(path, PreprocessSpec(response="y"))

    def test_missing_cell_named(self, tmp_path):
        path = write_csv(tmp_path, "y,x\n1,0\n2,\n")
        with pytest.raises(PreprocessError, match="line 3, column 'x'"):
            load_csv(path, PreprocessSpec(response="y"))

    def test_non_numeric_named(self, tmp_path):
        path = write_csv(tmp_path, "y,x\n1,0\n2,oops\n")
        with pytest.raises(PreprocessError, match="line 3, column 'x'"):
            load_csv(path, PreprocessSpec(response="y"))

    def test_ragged_row(self, tmp_path):
        path = write_csv(tmp_path, "y,x\n1,0\n2,1,9\n")
        with pytest.raises(PreprocessError, match="line 3"):
            load_csv(path, PreprocessSpec(response="y"))

    def test_empty_file(self, tmp_path):
        path = write_csv(tmp_path, "")
        with pytest.raises(PreprocessError, match="empty file"):
            load_csv(path, PreprocessSpec(response="y"))

    def test_header_only(self, tmp_path):
        path = write_csv(tmp_path, "y,x\n")
        with pytest.raises(PreprocessError, match="no data rows"):
            load_csv(path, PreprocessSpec(response="y"))

    def test_repeated_header_name_rejected(self, tmp_path):
        # the second x would replace the first, and the design repeat it
        path = write_csv(tmp_path, "y,x,x\n1,0.5,-0.5\n2,1.5,-1.5\n")
        with pytest.raises(PreprocessError, match="column 'x' more than once"):
            load_csv(path, PreprocessSpec(response="y"))

    def test_response_not_in_header(self, tmp_path):
        path = write_csv(tmp_path, "a,x\n1,0\n")
        with pytest.raises(ContractError, match="response column"):
            load_csv(path, PreprocessSpec(response="y"))

    def test_spec_column_not_in_header(self, tmp_path):
        path = write_csv(tmp_path, "y,x\n1,0\n2,1\n")
        with pytest.raises(ContractError, match="'z'"):
            load_csv(path, PreprocessSpec(response="y",
                                          columns={"z": "standardize"}))

    def test_constant_column_cannot_standardize(self, tmp_path):
        path = write_csv(tmp_path, "y,x\n1,7\n2,7\n")
        with pytest.raises(PreprocessError, match="constant"):
            load_csv(path, PreprocessSpec(response="y",
                                          columns={"x": "standardize"}))

    def test_dummy_needs_two_levels(self, tmp_path):
        path = write_csv(tmp_path, "y,g,x\n1,a,0\n2,a,1\n")
        with pytest.raises(PreprocessError, match="two levels"):
            load_csv(path, PreprocessSpec(response="y",
                                          columns={"g": "dummy_code"}))

    def test_no_covariates_left(self, tmp_path):
        path = write_csv(tmp_path, "y\n1\n2\n")
        with pytest.raises(PreprocessError, match="no covariate"):
            load_csv(path, PreprocessSpec(response="y"))

    def test_likert_column(self, tmp_path):
        rows = ["y,q"]
        levels = [1] * 2 + [2] * 5 + [3] * 3
        for k, lev in enumerate(levels):
            rows.append(f"{1 + k % 2},{lev}")
        path = write_csv(tmp_path, "\n".join(rows) + "\n")
        data = load_csv(path, PreprocessSpec(response="y",
                                             columns={"q": "likert_sigma"}))
        scores = likert_sigma(np.array([2, 5, 3]))
        want = np.array([scores[lev - 1] for lev in levels])
        assert_allclose(data.X[:, 0], want, rtol=1e-12)

    def test_likert_needs_integer_levels(self, tmp_path):
        path = write_csv(tmp_path, "y,q\n1,1.5\n2,2\n")
        with pytest.raises(PreprocessError, match="integer levels"):
            load_csv(path, PreprocessSpec(response="y",
                                          columns={"q": "likert_sigma"}))


class TestLikertSigma:
    def test_two_equal_counts(self):
        got = likert_sigma([50, 50])
        phi0 = 1.0 / np.sqrt(2.0 * np.pi)
        assert_allclose(got, [-2.0 * phi0, 2.0 * phi0], rtol=1e-12)
        assert_allclose(got, [-0.7979, 0.7979], atol=1e-4)

    def test_antisymmetry(self):
        counts = np.array([5, 25, 40, 30])
        a = likert_sigma(counts)
        b = likert_sigma(counts[::-1])
        assert_allclose(a, -b[::-1], rtol=1e-10, atol=1e-12)

    def test_against_quadrature(self):
        counts = np.array([10, 20, 30, 40])
        got = likert_sigma(counts)
        want = oracles.trunc_normal_band_means(counts)
        assert_allclose(got, want, atol=1e-10)

    def test_count_weighted_mean_zero(self):
        rng = np.random.default_rng(51)
        for _ in range(20):
            counts = rng.integers(1, 50, size=int(rng.integers(2, 7)))
            s = likert_sigma(counts)
            assert abs(float(counts @ s) / counts.sum()) < 1e-10
            assert np.all(np.diff(s) > 0)

    def test_zero_count_rejected(self):
        with pytest.raises(PreprocessError, match="count"):
            likert_sigma([10, 0, 5])

    def test_shape_validation(self):
        with pytest.raises(ContractError):
            likert_sigma([7])
        with pytest.raises(ContractError):
            likert_sigma(np.ones((2, 2)))


class TestSimulateGrid:
    def test_grid_layout(self):
        data = simulate_grid(seed=0)
        assert data.n == 201
        assert data.X[0, 0] == -5.0
        assert data.X[-1, 0] == 5.0
        assert_allclose(np.diff(data.X[:, 0]), 0.05, rtol=1e-12)
        assert data.column_names == ("x",)
        assert data.n_categories == 4

    def test_deterministic_when_noise_off(self):
        data = simulate_grid(epsilon=0.0)
        # x = 3.0 sits at index 160; z = 2.1 exceeds the last cutpoint
        assert data.X[160, 0] == 3.0
        assert data.y[160] == 4
        # x = 0 gives z = 0, not above the middle cutpoint (strict)
        assert data.y[100] == 2

    def test_constant_epsilon_shifts_everything(self):
        data = simulate_grid(epsilon=10.0)
        assert np.all(data.y == 4)

    def test_all_categories_populated(self):
        for seed in range(10):
            data = simulate_grid(seed=seed)
            counts = np.bincount(data.y, minlength=5)[1:]
            assert np.all(counts >= 0.05 * data.n)

    def test_seed_determinism(self):
        a = simulate_grid(seed=7)
        b = simulate_grid(seed=7)
        c = simulate_grid(seed=8)
        assert np.array_equal(a.y, b.y)
        assert not np.array_equal(a.y, c.y)

    def test_link_accepts_instance(self):
        a = simulate_grid(link="logit", seed=2)
        b = simulate_grid(link=get_link("logit"), seed=2)
        assert np.array_equal(a.y, b.y)

    def test_delta_validated(self):
        with pytest.raises(ContractError, match="increasing"):
            simulate_grid(delta=(1.0, 0.5))


class TestSimulateContaminated:
    def test_truth_and_layout(self):
        data, truth = simulate_contaminated(rho=0.2, error="logistic",
                                            n=200, seed=1)
        assert_allclose(truth.beta, [2.5, 1.2, 0.7], rtol=0)
        assert_allclose(truth.delta, [-3.3, -0.8, 1.7, 4.2], rtol=0)
        assert data.n_categories == 5
        assert data.column_names == ("x", "d", "xd")
        assert_allclose(data.X[:, 2], data.X[:, 0] * data.X[:, 1], rtol=0)

    def test_clean_design_when_rho_zero(self):
        data, _ = simulate_contaminated(rho=0.0, error="normal", n=10_000,
                                        seed=2)
        x = data.X[:, 0]
        assert np.max(np.abs(x)) < 8.0
        assert abs(x.mean()) < 0.05
        assert abs(x.std() - 1.0) < 0.05
        d = data.X[:, 1]
        assert set(np.unique(d).tolist()) <= {0.0, 1.0}
        assert abs(d.mean() - 0.25) < 0.02

    def test_contamination_fraction(self):
        data, _ = simulate_contaminated(rho=0.2, error="normal", n=10_000,
                                        seed=3)
        frac = float(np.mean(data.X[:, 0] > 10.0))
        assert abs(frac - 0.2) < 0.02

    def test_response_ignores_recorded_shift(self):
        # the same seed with and without contamination must give the
        # same responses: y is generated before the record is corrupted
        a, _ = simulate_contaminated(rho=0.0, error="normal", n=500, seed=4)
        b, _ = simulate_contaminated(rho=0.5, error="normal", n=500, seed=4)
        assert np.array_equal(a.y, b.y)
        shifted = b.X[:, 0] - a.X[:, 0]
        assert set(np.round(shifted, 12).tolist()) <= {0.0, 20.0}

    def test_category_frequencies_match_quadrature(self):
        # marginal category probabilities by Gauss-Hermite integration
        # over x, exact summation over d, for the normal error model
        n = 20_000
        data, truth = simulate_contaminated(rho=0.0, error="normal", n=n,
                                            seed=5)
        nodes, weights = np.polynomial.hermite_e.hermegauss(200)
        weights = weights / np.sqrt(2.0 * np.pi)
        probs = np.zeros(5)
        for d, wd in ((0.0, 0.75), (1.0, 0.25)):
            eta = 2.5 * nodes + 1.2 * d + 0.7 * nodes * d
            edges = np.concatenate([[-np.inf], truth.delta, [np.inf]])

            def band_cdf(edge, eta=eta):
                if edge == -np.inf:
                    return np.zeros(eta.size)
                if edge == np.inf:
                    return np.ones(eta.size)
                return np.array([oracles.normal_cdf(t) for t in edge - eta])

            for m in range(5):
                upper = band_cdf(edges[m + 1])
                lower = band_cdf(edges[m])
                probs[m] += wd * float(weights @ (upper - lower))
        assert_allclose(probs.sum(), 1.0, atol=1e-10)
        counts = np.bincount(data.y, minlength=6)[1:]
        chi2 = float(np.sum((counts - n * probs) ** 2 / (n * probs)))
        assert chi2 < 18.47  # 0.999 quantile, 4 degrees of freedom

    def test_gumbel_error_path(self):
        data, truth = simulate_contaminated(rho=0.0, error="gumbel", n=5000,
                                            seed=6)
        assert_allclose(truth.delta, [-2.9, 1.0, 2.9, 4.8], rtol=0)
        assert np.all(np.bincount(data.y, minlength=6)[1:] > 0)

    def test_validation(self):
        with pytest.raises(ContractError, match="rho"):
            simulate_contaminated(rho=-0.1, error="normal", n=100, seed=0)
        with pytest.raises(ContractError, match="rho"):
            simulate_contaminated(rho=0.6, error="normal", n=100, seed=0)
        with pytest.raises(ContractError, match="n must"):
            simulate_contaminated(rho=0.1, error="normal", n=49, seed=0)
        with pytest.raises(ContractError, match="laplace"):
            simulate_contaminated(rho=0.1, error="laplace", n=100, seed=0)


class TestInjectOutlier:
    def setup_method(self):
        rng = np.random.default_rng(52)
        self.data = Dataset(
            y=rng.integers(1, 4, size=8),
            X=rng.normal(0, 1, size=(8, 2)),
            n_categories=3,
        )

    def test_zero_shift_copies(self):
        out = inject_outlier(self.data, 2, 1, 1, 0.0)
        assert_allclose(out.X, self.data.X, rtol=0)
        assert np.array_equal(out.y, self.data.y)
        out.X[0, 0] = 99.0
        assert self.data.X[0, 0] != 99.0

    def test_single_cell_shifted(self):
        out = inject_outlier(self.data, 3, 0, 1, 5.0)
        diff = out.X - self.data.X
        assert diff[3, 0] == -5.0
        diff[3, 0] = 0.0
        assert np.all(diff == 0.0)
        down = inject_outlier(self.data, 3, 0, -1, 5.0)
        assert (down.X - self.data.X)[3, 0] == 5.0

    def test_composition(self):
        a = inject_outlier(inject_outlier(self.data, 1, 0, 1, 3.0), 1, 0, 1, 4.0)
        b = inject_outlier(self.data, 1, 0, 1, 7.0)
        assert_allclose(a.X, b.X, rtol=0)

    def test_validation(self):
        with pytest.raises(ContractError, match="unit"):
            inject_outlier(self.data, 8, 0, 1, 1.0)
        with pytest.raises(ContractError, match="covariate"):
            inject_outlier(self.data, 0, 2, 1, 1.0)
        with pytest.raises(ContractError, match="b must"):
            inject_outlier(self.data, 0, 0, 2, 1.0)
        with pytest.raises(ContractError, match="omega"):
            inject_outlier(self.data, 0, 0, 1, -1.0)

    def test_residual_grows_with_omega(self):
        # fit once on clean data, then drag one unit: its generalized
        # residual must move monotonically in the drag direction
        data = simulate_grid(seed=9)
        core = ObjectiveCore(LossSpec(kind="loglik"), data, Prior(), PROBIT)
        res = minimize(
            lambda u: core.value_and_grad(u, np.full(data.n, 1.0 / data.n)),
            wlb_module._initial_point(data, PROBIT), 500, 1e-6)
        theta_hat = unconstrained_to_theta(res.x, data.p)
        unit = 100
        values = []
        for omega in (0.0, 5.0, 10.0):
            shifted = inject_outlier(data, unit, 0, 1, omega)
            res = generalized_residuals(theta_hat, shifted, PROBIT)
            values.append(res[unit])
        assert values[0] < values[1] < values[2]
        assert values[2] > 3.0
