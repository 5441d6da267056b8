import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from oracles import brute_force_svr_dual, masked_scan_smo, rbf, three_temporary_rbf_kernel

import gaitreg.baselines as baselines
from gaitreg import (
    ButterworthFilter,
    SynthConfig,
    generate,
    linear_fit,
    linear_predict,
    svr_fit,
    svr_predict,
)
from gaitreg.baselines import (
    _KERNEL_BLOCK_ROWS,
    DEFAULT_SVR_MAX_UPDATES,
    fit_svr_baseline,
    grid_search_svr,
    linear_factor,
    linear_fit_factored,
    predict_svr_baseline,
    rbf_kernel,
)
from gaitreg.errors import ConfigError, TrainError
from gaitreg.preprocessing import (
    apply_normalization,
    feature_rows,
    fit_normalization,
    scaling_matrix,
    trial_features,
)
from gaitreg.rng import SplitMix64


class TestLinearFit:
    def test_exact_affine_recovery(self):
        stream = SplitMix64(1)
        x = stream.uniform_block(180).reshape(30, 6)
        w = np.arange(12).reshape(2, 6) - 5.0
        y = x @ w.T + np.array([2.0, -1.0])
        model = linear_fit(x, y)
        residual = linear_predict(model, x) - y
        assert np.abs(residual).max() < 1e-9
        assert np.abs(model.weights - w).max() < 1e-8

    def test_two_point_line(self):
        model = linear_fit(np.array([[0.0], [1.0]]), np.array([0.0, 2.0]))
        assert model.weights[0, 0] == pytest.approx(2.0, abs=1e-12)
        assert model.intercept[0] == pytest.approx(0.0, abs=1e-12)

    def test_constant_target_on_centered_design(self):
        stream = SplitMix64(2)
        x = stream.normal_block(120).reshape(20, 6)
        x -= x.mean(axis=0)
        model = linear_fit(x, np.ones(20))
        assert model.intercept[0] == pytest.approx(1.0, abs=1e-10)
        assert np.abs(model.weights).max() < 1e-10

    def test_residual_orthogonality(self):
        stream = SplitMix64(3)
        x = stream.uniform_block(300).reshape(50, 6)
        y = stream.normal_block(100, 0.0, 4.0).reshape(50, 2)
        model = linear_fit(x, y)
        residual = linear_predict(model, x) - y
        design = np.column_stack([x, np.ones(50)])
        assert np.abs(design.T @ residual).max() < 1e-8

    def test_rank_deficient_warns_minimum_norm(self):
        x = np.zeros((10, 6))
        x[:, 0] = np.arange(10.0)
        x[:, 1] = 2.0 * np.arange(10.0)  # collinear
        with pytest.warns(UserWarning, match="rank-deficient"):
            model = linear_fit(x, np.arange(10.0))
        assert np.all(np.isfinite(model.weights))

    def test_lapack_failure_raises_train_error(self):
        x = SplitMix64(4).uniform_block(60).reshape(10, 6)
        x[3, 2] = np.nan
        with pytest.raises(TrainError, match=r"least squares failed on a \(10, 7\) design"):
            linear_fit(x, np.arange(10.0))

    def test_bit_identical_to_lstsq_with_default_rcond(self):
        stream = SplitMix64(5)
        x = stream.uniform_block(240).reshape(40, 6)
        y = stream.normal_block(80, 0.0, 4.0).reshape(40, 2)
        model = linear_fit(x, y)
        coef = np.linalg.lstsq(np.column_stack([x, np.ones(40)]), y, rcond=None)[0]
        assert np.array_equal(model.weights, coef[:-1].T)
        assert np.array_equal(model.intercept, coef[-1])


def split_blocks(x, y, sizes):
    bounds = np.cumsum([0, *sizes])
    return [(x[a:b], y[a:b]) for a, b in zip(bounds[:-1], bounds[1:])]


class TestLinearFitFactored:
    SIZES = (16, 23, 40, 17)

    def _problem(self, seed):
        stream = SplitMix64(seed)
        n = sum(self.SIZES)
        x = stream.uniform_block(6 * n).reshape(n, 6) * 12.0 - 3.0
        y = stream.normal_block(2 * n, 0.0, 4.0).reshape(n, 2)
        return x, y

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_matches_linear_fit_on_the_scaled_rows(self, seed):
        x, y = self._problem(seed)
        params = fit_normalization(x[:30])  # rows beyond 30 fall outside [0, 1]
        factors = np.stack([linear_factor(xb, yb) for xb, yb in split_blocks(x, y, self.SIZES)])
        assert factors.shape == (len(self.SIZES), 7, 9)
        model = linear_fit_factored(factors, len(x), scaling_matrix(params))
        reference = linear_fit(apply_normalization(x, params), y)
        for got, want in ((model.weights, reference.weights),
                          (model.intercept, reference.intercept)):
            np.testing.assert_allclose(got, want, rtol=1e-10, atol=1e-10 * np.abs(want).max())

    def test_degenerate_column_warns_as_linear_fit_does(self):
        x, y = self._problem(4)
        x[:, 2] = 5.0
        params = fit_normalization(x)
        factors = np.stack([linear_factor(xb, yb) for xb, yb in split_blocks(x, y, self.SIZES)])
        with pytest.warns(UserWarning, match=r"rank-deficient design \(rank 6 < 7\)"):
            model = linear_fit_factored(factors, len(x), scaling_matrix(params))
        with pytest.warns(UserWarning, match=r"rank-deficient design \(rank 6 < 7\)"):
            reference = linear_fit(apply_normalization(x, params), y)
        assert np.abs(model.weights[:, 2]).max() < 1e-12  # the minimum-norm share
        np.testing.assert_allclose(model.weights, reference.weights, rtol=1e-10, atol=1e-12)

    def test_lapack_failure_raises_train_error_naming_the_rows(self):
        x, y = self._problem(5)
        x[3, 2] = np.nan
        factors = np.stack([linear_factor(xb, yb) for xb, yb in split_blocks(x, y, self.SIZES)])
        with pytest.raises(TrainError, match=r"least squares failed on a \(96, 7\) design"):
            linear_fit_factored(factors, len(x), np.eye(7))


class TestSvrFit:
    def test_single_point_within_tube(self):
        model = svr_fit(np.array([[0.3, 0.7]]), np.array([1.5]), c=5.0, epsilon=0.2, gamma=1.0)
        pred = svr_predict(model, np.array([0.3, 0.7]))
        assert abs(pred - 1.5) <= 0.2 + 1e-9
        assert model.converged

    def test_dual_matches_brute_force_on_small_problems(self):
        # acceptance-grade check: 10 random problems, SMO within 1e-3 of a
        # projected-gradient solve of the identical dual
        rng = np.random.default_rng(7)
        for _ in range(10):
            n = int(rng.integers(5, 9))
            x = rng.normal(size=(n, 2))
            y = 2.0 * rng.normal(size=n)
            model = svr_fit(x, y, c=10.0, epsilon=0.1, gamma=1.0)
            reference = brute_force_svr_dual(x, y, 10.0, 0.1, 1.0)
            assert model.converged
            assert abs(model.dual_objective - reference) < 1e-3

    def test_wide_tube_gives_zero_coefficients(self):
        x = np.linspace(0, 1, 6)[:, None]
        y = np.array([0.0, 0.1, -0.1, 0.05, 0.02, -0.06])
        model = svr_fit(x, y, c=10.0, epsilon=1.0, gamma=1.0)
        assert np.all(model.coef == 0.0)
        assert model.n_updates == 0
        # mean-like bias: midpoint of the initial KKT bounds
        assert model.bias == pytest.approx((y.max() + y.min()) / 2.0, abs=1e-12)
        assert np.all(svr_predict(model, x) == model.bias)

    def test_kkt_conditions_at_convergence(self):
        rng = np.random.default_rng(11)
        x = rng.normal(size=(25, 3))
        y = np.sin(x[:, 0]) + 0.2 * rng.normal(size=25)
        c, eps = 10.0, 0.1
        model = svr_fit(x, y, c=c, epsilon=eps, gamma=0.5)
        assert model.converged
        pred = svr_predict(model, x)
        tol = 1e-3
        for beta, err in zip(model.coef, np.abs(pred - y)):
            if beta == 0.0:
                assert err <= eps + tol
            elif abs(beta) >= c * (1.0 - 1e-9):
                assert err >= eps - tol
            else:
                assert err == pytest.approx(eps, abs=tol)

    def test_equality_constraint_and_box(self):
        rng = np.random.default_rng(12)
        x = rng.normal(size=(40, 2))
        y = x[:, 0] ** 2 + rng.normal(size=40)
        model = svr_fit(x, y, c=2.0, epsilon=0.05, gamma=1.0)
        assert abs(model.coef.sum()) < 1e-6
        assert np.abs(model.coef).max() <= 2.0 + 1e-12

    def test_iteration_cap_flags_nonconvergence(self):
        rng = np.random.default_rng(13)
        x = rng.normal(size=(60, 3))
        y = rng.normal(size=60)
        with pytest.warns(RuntimeWarning, match="update cap"):
            model = svr_fit(x, y, c=100.0, epsilon=0.0, gamma=2.0, max_updates=5)
        assert not model.converged
        assert model.n_updates == 5

    def test_converged_fit_emits_no_warning(self):
        rng = np.random.default_rng(13)
        x = rng.normal(size=(60, 3))
        y = rng.normal(size=60)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            model = svr_fit(x, y, c=10.0, epsilon=0.1, gamma=0.5)
        assert model.converged

    @given(
        n=st.integers(1, 30),
        d=st.integers(1, 4),
        c=st.floats(0.1, 100.0),
        epsilon=st.floats(0.0, 1.0),
        gamma=st.floats(0.05, 5.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_random_problems_converge_to_kkt(self, n, d, c, epsilon, gamma, seed):
        rng = np.random.default_rng(seed)
        x = rng.uniform(-2.0, 2.0, size=(n, d))
        y = 2.0 * rng.normal(size=n)
        tol = 1e-3
        model = svr_fit(x, y, c=c, epsilon=epsilon, gamma=gamma, tol=tol)
        assert model.converged
        assert abs(model.coef.sum()) < 1e-6
        assert np.abs(model.coef).max() <= c
        # the bias lies within the final bounds, so every residual meets its
        # KKT condition to tol; 1e-9 absorbs the rounding of the maintained gradient
        slack = tol + 1e-9
        err = np.abs(svr_predict(model, x) - y)
        for beta, e in zip(np.abs(model.coef), err):
            if beta <= 1e-12 * c:
                assert e <= epsilon + slack
            elif beta >= c * (1.0 - 1e-9):
                assert e >= epsilon - slack
            else:
                assert abs(e - epsilon) <= slack

    @pytest.mark.parametrize(
        "n, d, copies, params",
        [
            (40, 2, 1, dict(c=10.0, epsilon=0.05, gamma=0.5)),
            (90, 4, 1, dict(c=0.5, epsilon=0.05, gamma=0.25)),
            (150, 6, 1, dict(c=3.0, epsilon=0.05, gamma=1.0 / 6.0)),
            (20, 3, 3, dict(c=2.0, epsilon=0.1, gamma=0.5)),  # equal rows: ties in c0
            (50, 3, 1, dict(c=100.0, epsilon=0.0, gamma=2.0, max_updates=5)),
            (50, 3, 1, dict(c=10.0, epsilon=0.0, gamma=0.5)),
            (50, 3, 1, dict(c=10.0, epsilon=10.0, gamma=0.5)),  # no update
            (1, 3, 1, dict(c=5.0, epsilon=0.2, gamma=1.0)),
        ],
        ids=[
            "random-a",
            "random-b",
            "random-c",
            "duplicated-rows",
            "capped",
            "epsilon-zero",
            "wide-tube",
            "single-row",
        ],
    )
    def test_bit_identical_to_masked_scan_reference(self, n, d, copies, params):
        rng = np.random.default_rng(21)
        x = rng.normal(size=(n, d))
        y = np.sin(x.sum(axis=1)) + 0.3 * rng.normal(size=n)
        x, y = np.tile(x, (copies, 1)), np.tile(y, copies)
        params = {"tol": 1e-3, "max_updates": 100_000, **params}
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # the capped case warns
            model = svr_fit(x, y, **params)
        coef, bias, n_updates, converged = masked_scan_smo(x, y, **params)
        assert np.array_equal(model.coef, coef)
        assert model.bias == bias
        assert model.n_updates == n_updates
        assert model.converged == converged == (params["max_updates"] > 5)


class TestDefaultScale:
    @staticmethod
    @pytest.fixture(scope="class")
    def fold0(default_config, default_dataset):
        """Default fold 0's scaled inputs and standardized targets (trials 1-40)."""
        filt = ButterworthFilter.design(
            default_config.cutoff_hz,
            default_dataset.trials[0].sample_rate_hz,
            default_config.filter_order,
        )
        x, y, bounds = feature_rows(default_dataset, filt, default_config.filter_targets)
        # fold 0: every trial but the first
        x, y = x[bounds[1] :], y[bounds[1] :]
        x = apply_normalization(x, fit_normalization(x))
        return x, (y - y.mean(axis=0)) / y.std(axis=0)

    @pytest.mark.parametrize("target", [0, 1], ids=["theta", "tau"])
    def test_fold0_converges_under_the_default_cap(self, default_config, fold0, target):
        x, y = fold0
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # the cap warning fails the test
            model = svr_fit(
                x,
                y[:, target],
                default_config.svr_c,
                default_config.svr_epsilon,
                default_config.svr_gamma,
            )
        assert model.converged
        assert model.n_updates < DEFAULT_SVR_MAX_UPDATES


class TestSvrPredict:
    def test_lone_support_vector(self):
        model = svr_fit(np.array([[0.0], [10.0]]), np.array([0.0, 3.0]), c=5.0, epsilon=0.1, gamma=1.0)
        # prediction at a support vector equals coef * k(x,x) + contributions
        for xi, yi in zip([0.0, 10.0], [0.0, 3.0]):
            assert abs(svr_predict(model, np.array([xi])) - yi) <= 0.1 + 1e-6

    def test_matches_independent_kernel_sum(self):
        rng = np.random.default_rng(14)
        x = rng.normal(size=(15, 4))
        y = np.cos(x).sum(axis=1)
        model = svr_fit(x, y, c=10.0, epsilon=0.05, gamma=0.25)
        probe = rng.normal(size=4)
        expected = model.bias + sum(
            coef * rbf(sv, probe, model.gamma)
            for coef, sv in zip(model.support_coef, model.support_vectors)
        )
        assert svr_predict(model, probe) == pytest.approx(expected, abs=1e-12)


class TestKernel:
    def test_rbf_matrix_is_positive_semidefinite(self):
        rng = np.random.default_rng(15)
        x = rng.normal(size=(30, 6))
        kernel = rbf_kernel(x, x, 1.0 / 6.0)
        assert np.abs(kernel - kernel.T).max() < 1e-15
        np.linalg.cholesky(kernel + 1e-10 * np.eye(30))  # raises if not PSD

    def test_in_place_build_is_bit_identical_on_fold_rows(self, small_config, small_dataset):
        # one operand for both sides, as in training: numpy's symmetric product
        filt = ButterworthFilter.design(
            small_config.cutoff_hz,
            small_dataset.trials[0].sample_rate_hz,
            small_config.filter_order,
        )
        x, _, bounds = feature_rows(small_dataset, filt, small_config.filter_targets)
        x = x[bounds[1] :]  # fold 0: every trial but the first
        x = apply_normalization(x, fit_normalization(x))
        assert len(x) > 3 * _KERNEL_BLOCK_ROWS
        gamma = 1.0 / x.shape[1]
        assert np.array_equal(rbf_kernel(x, x, gamma), three_temporary_rbf_kernel(x, x, gamma))

    @pytest.mark.parametrize("rows", [1, _KERNEL_BLOCK_ROWS, 2 * _KERNEL_BLOCK_ROWS + 44])
    def test_in_place_build_is_bit_identical_on_distinct_operands(self, rows):
        rng = np.random.default_rng(17)
        a = rng.normal(size=(rows, 6))
        b = rng.normal(size=(257, 6))
        assert np.array_equal(rbf_kernel(a, b, 0.4), three_temporary_rbf_kernel(a, b, 0.4))

    def test_build_holds_the_result_and_one_small_block(self):
        n = 1500
        x = np.random.default_rng(19).normal(size=(n, 6))
        tracemalloc.start()
        try:
            rbf_kernel(x, x, 1.0 / 6.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # n x n result, a 16-row block and the two norm vectors fit; a 128-row block does not
        assert peak < n * n * 8 + 32 * n * 8


class TestStandardizedBaseline:
    def test_round_trip_scales(self):
        rng = np.random.default_rng(16)
        x = rng.uniform(size=(60, 6))
        y = np.column_stack([40.0 * x[:, 0] - 10.0, 5.0 * x[:, 3] + 100.0])
        baseline = fit_svr_baseline(x, y, c=10.0, epsilon=0.01, gamma=None)
        pred = predict_svr_baseline(baseline, x)
        assert np.abs(pred - y).max() < 2.0  # de-standardized to raw units

    def test_shared_kernel_fits_equal_standalone_fits(self):
        rng = np.random.default_rng(18)
        x = rng.uniform(size=(120, 6))
        y = np.column_stack([np.sin(4.0 * x[:, 0]), x[:, 1] * x[:, 2]])
        baseline = fit_svr_baseline(x, y, c=10.0, epsilon=0.01, gamma=None)
        for d, model in enumerate(baseline.models):
            target = (y[:, d] - baseline.y_mean[d]) / baseline.y_std[d]
            alone = svr_fit(x, target, c=10.0, epsilon=0.01)
            assert model.n_updates > 0
            assert np.array_equal(model.coef, alone.coef)
            assert model.bias == alone.bias
            assert model.n_updates == alone.n_updates

    def test_fit_holds_one_n_by_n_array(self):
        n = 1500
        rng = np.random.default_rng(19)
        x = rng.uniform(size=(n, 6))
        y = np.column_stack([np.sin(4.0 * x[:, 0]), x[:, 1] * x[:, 2]])
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)  # capped: memory, not the fit
                fit_svr_baseline(x, y, max_updates=50)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # two kernels, or one built through n x n temporaries, reach 2-3 n^2 * 8
        assert peak < 1.25 * n * n * 8

    def test_mismatched_targets_refused_before_the_kernel_build(self, monkeypatch):
        def no_build(*args):
            raise AssertionError("kernel built for an unusable fit")

        monkeypatch.setattr(baselines, "rbf_kernel", no_build)
        with pytest.raises(ConfigError, match="need matching x"):
            fit_svr_baseline(np.zeros((6, 2)), np.zeros((5, 2)))

    @pytest.mark.parametrize("shape", [(5, 5), (6, 5), (36,)])
    def test_kernel_of_wrong_shape_refused(self, shape):
        x = np.linspace(0.0, 1.0, 12).reshape(6, 2)
        with pytest.raises(ConfigError, match=r"kernel of shape .* given for 6 training rows"):
            svr_fit(x, x[:, 0], kernel=np.zeros(shape))

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    @pytest.mark.parametrize("name", ["c", "epsilon", "gamma"])
    def test_non_finite_setting_refused_naming_the_value(self, name, value):
        # each of these used to run to the update cap and return non-finite coefs
        named = {
            "c": f"C={value}",
            "epsilon": f"epsilon={value}",
            "gamma": f"gamma must be positive and finite, got {value}",
        }[name]
        x = np.linspace(0.0, 1.0, 60).reshape(30, 2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no cap or invalid-value warning first
            with pytest.raises(ConfigError, match=named):
                svr_fit(x, np.sin(4.0 * x[:, 0]), max_updates=500, **{name: value})


class TestGridSearch:
    @staticmethod
    @pytest.fixture(scope="class")
    def linear_blocks():
        config = SynthConfig(
            seed=77,
            trials_per_mode={"NormalWalk": 6},
            samples_per_trial=60,
            noise_std_deg=0.2,
            linear_mode=True,
        )
        dataset = generate(config)
        filt = ButterworthFilter.design(6.0, 200.0, 4)
        blocks = [trial_features(t, filt, filter_targets=False) for t in dataset]
        params = fit_normalization(np.concatenate([b[0] for b in blocks]))
        return [(apply_normalization(x, params), y) for x, y in blocks]

    @staticmethod
    def _mean_rmse(blocks, fit_fn, predict_fn, n_folds=2):
        scores = []
        for k in range(n_folds):
            train = [b for t, b in enumerate(blocks) if t % n_folds != k]
            held = blocks[k::n_folds]
            model = fit_fn(
                np.concatenate([x for x, _ in train]), np.concatenate([y for _, y in train])
            )
            pred = predict_fn(model, np.concatenate([x for x, _ in held]))
            err = pred - np.concatenate([y for _, y in held])
            scores.append(float(np.sqrt(np.mean(err**2))))
        return float(np.mean(scores))

    def test_singleton_grid(self, linear_blocks):
        best, _, _ = grid_search_svr(linear_blocks, [3.0], [0.1], [0.5], n_folds=2)
        assert best == (3.0, 0.1, 0.5)

    def test_tie_breaks_lexicographically(self, linear_blocks):
        # duplicated values in the grid force exact score ties
        best, _, _ = grid_search_svr(linear_blocks, [2.0, 2.0], [0.1], [0.5, 0.5], n_folds=2)
        assert best == (2.0, 0.1, 0.5)

    def test_selected_model_close_to_linear_oracle(self, linear_blocks):
        # on affine data the exact-fit linear model bounds what any
        # reasonable grid-selected SVR should achieve (same fold protocol)
        best, _, _ = grid_search_svr(
            linear_blocks, [1.0, 10.0, 100.0], [0.01, 0.1], [1.0 / 6.0, 1.0], n_folds=2
        )
        lin_rmse = self._mean_rmse(linear_blocks, linear_fit, linear_predict)
        svr_rmse = self._mean_rmse(
            linear_blocks,
            lambda x, y: fit_svr_baseline(x, y, *best),
            predict_svr_baseline,
        )
        assert svr_rmse <= 2.0 * lin_rmse

    def test_counts_fits_and_capped_fits(self, linear_blocks):
        # 2 triples x 2 folds x 2 targets; one update cannot reach tol
        with pytest.warns(RuntimeWarning, match="update cap"):
            _, fits, capped = grid_search_svr(
                linear_blocks, [1.0, 10.0], [0.1], [0.5], n_folds=2, max_updates=1
            )
        assert (fits, capped) == (8, 8)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            _, fits, capped = grid_search_svr(linear_blocks, [1.0, 10.0], [0.1], [0.5], n_folds=2)
        assert (fits, capped) == (8, 0)

    def test_empty_grid_rejected(self, linear_blocks):
        with pytest.raises(ConfigError, match="non-empty"):
            grid_search_svr(linear_blocks, [], [0.1], [1.0])
