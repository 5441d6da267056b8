import json
from math import sqrt

import numpy as np
import pytest

from gaitreg import emit_report, r2_score, rmse, run_loocv
from gaitreg.data import GaitDataset
from gaitreg.errors import ConfigError, MetricError
from gaitreg.evaluation import FoldResult, phase_mae_curve, summary_csv_text
from gaitreg.rng import SplitMix64


class TestR2:
    def test_perfect_fit(self):
        assert r2_score([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]) == 1.0

    def test_mean_predictor_scores_zero(self):
        y = np.array([1.0, 2.0, 3.0, 4.0])
        assert r2_score(y, np.full(4, y.mean())) == 0.0

    def test_hand_case_half(self):
        # SS_res = 1, SS_tot = 2
        assert r2_score([1.0, 2.0, 3.0], [1.0, 2.0, 2.0]) == 0.5

    def test_constant_target_rejected(self):
        with pytest.raises(MetricError, match="constant"):
            r2_score([2.0, 2.0, 2.0], [1.0, 2.0, 3.0])

    def test_filtered_constant_rejected(self):
        # the filter's rounding noise leaves SS_tot ~ 1e-26, not exactly 0
        from gaitreg import ButterworthFilter, lowpass_zero_phase

        y = lowpass_zero_phase(np.full(60, 12.3), ButterworthFilter.design(6.0, 200.0, 4))
        assert 0.0 < float(np.sum((y - y.mean()) ** 2)) < 1e-20
        with pytest.raises(MetricError, match="constant"):
            r2_score(y, np.full(60, 12.0))

    def test_affine_invariance(self):
        stream = SplitMix64(5)
        for _ in range(100):
            y = stream.normal_block(20, 0.0, 3.0)
            pred = y + stream.normal_block(20, 0.0, 1.0)
            scale = stream.uniform() * 4 + 0.5
            shift = stream.normal() * 10
            base = r2_score(y, pred)
            mapped = r2_score(scale * y + shift, scale * pred + shift)
            assert mapped == pytest.approx(base, abs=1e-12)


class TestRmse:
    def test_zero_for_perfect(self):
        assert rmse([1.0, 2.0], [1.0, 2.0]) == 0.0

    def test_hand_case(self):
        assert rmse([0.0, 0.0], [3.0, 4.0]) == pytest.approx(sqrt(12.5), abs=1e-12)

    def test_constant_offset(self):
        y = np.arange(10.0)
        assert rmse(y, y - 2.5) == pytest.approx(2.5, abs=1e-12)

    def test_scale_equivariance(self):
        stream = SplitMix64(6)
        y = stream.normal_block(30)
        pred = stream.normal_block(30)
        assert rmse(3.0 * y, 3.0 * pred) == pytest.approx(3.0 * rmse(y, pred), rel=1e-12)


def make_fold(trial_id, err_theta, err_tau, n=50):
    phase = np.linspace(0.0, 100.0, n)
    y_true = np.column_stack([np.sin(phase / 15.0), np.cos(phase / 20.0)])
    y_pred = y_true + np.array([err_theta, err_tau])
    return FoldResult(
        trial_id=trial_id,
        mode="NormalWalk",
        r2={"theta": 1.0, "tau": 1.0},
        rmse={"theta": abs(err_theta), "tau": abs(err_tau)},
        y_true=y_true,
        y_pred=y_pred,
    )


class TestPhaseCurve:
    def test_perfect_predictions_zero_curve(self):
        grid, mae, se = phase_mae_curve([make_fold("a", 0.0, 0.0)])
        assert grid.shape == (101,)
        assert np.all(mae == 0.0) and np.all(se == 0.0)

    def test_single_trial_constant_error(self):
        _, mae, se = phase_mae_curve([make_fold("a", 2.0, 0.0)])
        assert np.allclose(mae[:, 0], 2.0, atol=1e-12)
        assert np.all(se == 0.0)

    def test_two_trials_hand_computed_se(self):
        # errors 1 and 3 everywhere: mean 2, sd sqrt(2), se sqrt(2)/sqrt(2) = 1
        _, mae, se = phase_mae_curve([make_fold("a", 1.0, 1.0), make_fold("b", 3.0, 3.0)])
        assert np.allclose(mae, 2.0, atol=1e-12)
        assert np.allclose(se, 1.0, atol=1e-12)

    def test_custom_bin_count(self):
        grid, mae, _ = phase_mae_curve([make_fold("a", 1.0, 0.0)], n_bins=11)
        assert grid.shape == (11,) and mae.shape == (11, 2)


class TestRunLoocv:
    def test_fold_counts_and_coverage(self, small_dataset, small_config):
        report = run_loocv(small_dataset, "linear", small_config)
        assert len(report.folds) == len(small_dataset)
        assert sorted(f.trial_id for f in report.folds) == sorted(small_dataset.trial_ids)
        assert report.pooled_rows == small_dataset.total_rows()
        assert [s.n_trials for s in report.modes.values()] == [2, 2, 2, 2, 2]
        assert report.missing_modes == []

    def test_deterministic_across_runs(self, small_dataset, small_config):
        a = run_loocv(small_dataset, "mlp", small_config)
        b = run_loocv(small_dataset, "mlp", small_config)
        assert json.dumps(_as_json(a), sort_keys=True) == json.dumps(_as_json(b), sort_keys=True)

    def test_linear_recovery_per_fold(self, small_config):
        from gaitreg import generate

        config = small_config.with_overrides(
            {"linear_mode": True, "noise_std_deg": 0.0, "filter_targets": False}
        )
        dataset = generate(config.synth_config())
        report = run_loocv(dataset, "linear", config)
        for fold in report.folds:
            assert fold.r2["theta"] >= 0.999
            assert fold.r2["tau"] >= 0.999

    def test_unknown_model_rejected(self, small_dataset, small_config):
        with pytest.raises(ConfigError, match="model spec"):
            run_loocv(small_dataset, "boosting", small_config)

    def test_missing_mode_noted(self, small_dataset, small_config):
        subset = GaitDataset(
            tuple(t for t in small_dataset if t.mode.name != "SlopeDescent")
        )
        report = run_loocv(subset, "linear", small_config)
        assert report.missing_modes == ["SlopeDescent"]
        assert "SlopeDescent" not in report.modes
        assert "SlopeDescent" not in summary_csv_text(report)

    def test_paper_faithful_norm_changes_results(self, small_dataset, small_config):
        default = run_loocv(small_dataset, "linear", small_config)
        pooled = run_loocv(
            small_dataset, "linear", small_config.with_overrides({"paper_faithful_norm": True})
        )
        assert default.folds[0].rmse != pooled.folds[0].rmse

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_failed_fold_reports_fold_id(self, small_dataset, small_config):
        from gaitreg.errors import TrainError

        diverging = small_config.with_overrides({"learning_rate": 1e9})
        with pytest.raises(TrainError, match="fold 0"):
            run_loocv(small_dataset, "mlp", diverging)

    def test_svr_grid_config_selects_and_echoes(self, small_dataset, small_config, monkeypatch):
        import gaitreg.evaluation as evaluation
        import gaitreg.preprocessing as preprocessing

        calls = []
        original = preprocessing.feature_blocks

        def counting(trials, *args):
            trials = list(trials)
            calls.append([t.trial_id for t in trials])
            return original(trials, *args)

        # the grid search must reuse the LOO blocks, not filter trials again
        monkeypatch.setattr(evaluation, "feature_blocks", counting)
        monkeypatch.setattr(preprocessing, "feature_blocks", counting)
        config = small_config.with_overrides(
            {
                "svr_grid_c": [1.0, 10.0],
                "svr_grid_epsilon": [0.05],
                "svr_grid_gamma": [1.0 / 6.0],
                "svr_grid_folds": 2,
                "svr_max_updates": 500,
            }
        )
        report = run_loocv(small_dataset, "svr", config)
        assert report.config["svr_c"] in (1.0, 10.0)
        assert report.config["svr_epsilon"] == 0.05
        assert report.config["svr_grid_c"] == [1.0, 10.0]
        assert calls == [list(small_dataset.trial_ids)]

    def test_fold_scaling_from_trial_extrema_matches_fit(self, small_dataset, small_config):
        from gaitreg.evaluation import _fold_params
        from gaitreg.preprocessing import ButterworthFilter, feature_blocks, fit_normalization

        filt = ButterworthFilter.design(small_config.cutoff_hz, 200.0, small_config.filter_order)
        inputs = [x for x, _ in feature_blocks(small_dataset, filt)]
        mins = np.array([x.min(axis=0) for x in inputs])
        maxs = np.array([x.max(axis=0) for x in inputs])
        for k in range(len(inputs)):
            fitted = fit_normalization(np.concatenate(inputs[:k] + inputs[k + 1 :]))
            params = _fold_params(mins, maxs, k)
            assert np.array_equal(params.mins, fitted.mins)
            assert np.array_equal(params.maxs, fitted.maxs)

    def test_partial_grid_rejected(self, small_config):
        with pytest.raises(ConfigError, match="together"):
            small_config.with_overrides({"svr_grid_c": [1.0]})

    def test_pooling_consistency_of_phase_curves(self):
        # with identical phase grids, the mean of per-trial curves equals the
        # curve of the per-bin mean error (linearity of interpolation)
        folds = [make_fold("a", 1.0, 0.5), make_fold("b", 3.0, 1.5), make_fold("c", 0.5, 2.0)]
        grid, mae, _ = phase_mae_curve(folds)
        pooled_err = np.mean([np.abs(f.y_pred - f.y_true) for f in folds], axis=0)
        direct = np.column_stack(
            [np.interp(grid, np.linspace(0, 100, 50), pooled_err[:, t]) for t in range(2)]
        )
        assert np.abs(mae - direct).max() < 1e-12


def _as_json(report):
    from gaitreg.evaluation import report_to_dict

    return report_to_dict(report)


class TestEmitReport:
    @staticmethod
    @pytest.fixture(scope="class")
    def report(small_dataset, small_config):
        return run_loocv(small_dataset, "linear", small_config)

    def test_file_count_contract(self, report, tmp_path):
        written = emit_report(report, tmp_path)
        names = sorted(p.name for p in written)
        svgs = [n for n in names if n.endswith(".svg")]
        assert len(svgs) == 10  # 2 targets x 5 modes
        assert "report.json" in names and "summary.csv" in names

    def test_summary_csv_layout(self, report):
        lines = summary_csv_text(report).splitlines()
        assert lines[0] == "mode,target,r2_mean,r2_sd,rmse_mean,rmse_sd"
        assert len(lines) == 1 + 10
        assert lines[1].startswith("NormalWalk,theta,")
        assert lines[2].startswith("NormalWalk,tau,")

    def test_json_schema_fields(self, report, tmp_path):
        emit_report(report, tmp_path)
        data = json.loads((tmp_path / "report.json").read_text())
        assert set(data) == {
            "config", "model_spec", "folds", "modes", "pooled", "pooled_rows", "missing_modes",
        }
        fold = data["folds"][0]
        assert set(fold) == {"trial_id", "mode", "r2", "rmse"}
        assert set(fold["r2"]) == {"theta", "tau"}
        mode = data["modes"]["NormalWalk"]
        assert set(mode["phase_mae"]) == {"theta", "tau", "se_theta", "se_tau"}
        assert len(mode["phase_mae"]["theta"]) == report.config["phase_bins"]
