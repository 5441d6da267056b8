import dataclasses
import json
import pickle
import subprocess
import sys
import warnings
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

    def test_huge_constant_target_rejected_without_overflow(self):
        # the constant test used to square 1e-10 * max|y|, a Python float that overflows
        with pytest.raises(MetricError, match="constant"):
            r2_score(np.full(5, 1e200), np.zeros(5))

    def test_affine_invariance(self):
        stream = SplitMix64(5)
        for _ in range(100):
            y = stream.normal_block(20, 0.0, 3.0)
            pred = y + stream.normal_block(20, 0.0, 1.0)
            scale = stream.uniform_block(1)[0] * 4 + 0.5
            shift = stream.normal_block(1)[0] * 10
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
        mae, se = phase_mae_curve([make_fold("a", 0.0, 0.0)])
        assert mae.shape == (101, 2)
        assert np.all(mae == 0.0) and np.all(se == 0.0)

    def test_single_trial_constant_error(self):
        mae, se = phase_mae_curve([make_fold("a", 2.0, 0.0)])
        assert np.allclose(mae[:, 0], 2.0, atol=1e-12)
        assert np.all(se == 0.0)

    def test_two_trials_hand_computed_se(self):
        # errors 1 and 3 everywhere: mean 2, sd sqrt(2), se sqrt(2)/sqrt(2) = 1
        mae, se = phase_mae_curve([make_fold("a", 1.0, 1.0), make_fold("b", 3.0, 3.0)])
        assert np.allclose(mae, 2.0, atol=1e-12)
        assert np.allclose(se, 1.0, atol=1e-12)

    def test_custom_bin_count(self):
        mae, se = phase_mae_curve([make_fold("a", 1.0, 0.0)], n_bins=11)
        assert mae.shape == se.shape == (11, 2)


class TestRunLoocv:
    def test_fold_counts_and_coverage(self, small_dataset, small_config):
        report = run_loocv(small_dataset, "linear", small_config)
        assert len(report.folds) == len(small_dataset)
        assert sorted(f.trial_id for f in report.folds) == sorted(small_dataset.trial_ids)
        assert report.pooled_rows == small_dataset.total_rows()
        assert [s["n_trials"] for s in report.modes.values()] == [2, 2, 2, 2, 2]
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
        subset = GaitDataset(tuple(t for t in small_dataset if t.mode != "SlopeDescent"))
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

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_linear_factor_overflow_names_its_trial(self, small_dataset, small_config, monkeypatch):
        import gaitreg.evaluation as evaluation
        from gaitreg.errors import TrainError

        original = evaluation.feature_rows

        def huge(*args):
            x, y, bounds = original(*args)
            x = x.copy()
            x[bounds[2] : bounds[3], 0] = 1e308  # finite, but its column norm is not
            return x, y, bounds

        monkeypatch.setattr(evaluation, "feature_rows", huge)
        trial_id = small_dataset.trials[2].trial_id
        with pytest.raises(TrainError, match=f"trial '{trial_id}': its least-squares factor"):
            run_loocv(small_dataset, "linear", small_config)

    def test_svr_grid_config_selects_and_echoes(self, small_dataset, small_config, monkeypatch):
        import gaitreg.evaluation as evaluation
        import gaitreg.preprocessing as preprocessing

        calls = []
        original = preprocessing.feature_rows

        def counting(trials, *args):
            trials = list(trials)
            calls.append([t.trial_id for t in trials])
            return original(trials, *args)

        # the grid search must reuse the LOO rows, not filter trials again
        monkeypatch.setattr(evaluation, "feature_rows", counting)
        monkeypatch.setattr(preprocessing, "feature_rows", counting)
        config = small_config.with_overrides(
            {
                "svr_grid_c": [1.0, 10.0],
                "svr_grid_epsilon": [0.05],
                "svr_grid_gamma": [1.0 / 6.0],
                "svr_grid_folds": 2,
                "svr_max_updates": 500,
            }
        )
        with pytest.warns(RuntimeWarning, match="update cap"):
            report = run_loocv(small_dataset, "svr", config)
        assert report.config["svr_c"] in (1.0, 10.0)
        assert report.config["svr_epsilon"] == 0.05
        assert report.config["svr_grid_c"] == [1.0, 10.0]
        assert calls == [list(small_dataset.trial_ids)]
        # 2 triples x 2 folds x 2 targets, some stopped by the 500-update cap
        grid = _as_json(report)["svr_grid"]
        assert grid["fits"] == 8 and 0 < grid["capped_fits"] <= 8

    @pytest.mark.parametrize("paper_faithful_norm", [False, True])
    def test_fold_training_rows_match_concatenated_blocks(
        self, small_dataset, small_config, monkeypatch, paper_faithful_norm
    ):
        import gaitreg.evaluation as evaluation
        from gaitreg.preprocessing import apply_normalization, feature_rows, fit_normalization

        config = small_config.with_overrides({"paper_faithful_norm": paper_faithful_norm})
        seen = {}
        original = evaluation._fit_predict

        def capturing(model_spec, cfg, fold_idx, x_train, y_train, x_test):
            seen[fold_idx] = (x_train.copy(), y_train.copy(), x_test, x_train.flags.c_contiguous)
            return original(model_spec, cfg, fold_idx, x_train, y_train, x_test)

        scalings = []
        original_matrix = evaluation.scaling_matrix

        def recording(params):
            scalings.append(params)
            return original_matrix(params)

        monkeypatch.setattr(evaluation, "_fit_predict", capturing)
        monkeypatch.setattr(evaluation, "scaling_matrix", recording)
        run_loocv(small_dataset, "mlp", config)
        # a linear fold reads no training rows, but is scaled by the same fit
        run_loocv(small_dataset, "linear", config)
        x_all, y_all, bounds = feature_rows(small_dataset, config.cutoff_hz, config.filter_order)
        blocks = [(x_all[a:b], y_all[a:b]) for a, b in zip(bounds, bounds[1:])]
        assert len({len(x) for x, _ in blocks}) > 1  # trials of unequal length
        pooled = fit_normalization(np.concatenate([x for x, _ in blocks]))
        assert sorted(seen) == list(range(len(blocks)))
        assert len(scalings) == len(blocks)
        for k, (x_held, _) in enumerate(blocks):
            others = blocks[:k] + blocks[k + 1 :]
            x_raw = np.concatenate([x for x, _ in others])
            # scaling fitted on the training rows themselves, or on every row
            params = pooled if paper_faithful_norm else fit_normalization(x_raw)
            x_train, y_train, x_test, contiguous = seen[k]
            assert np.array_equal(x_train, apply_normalization(x_raw, params))
            assert np.array_equal(y_train, np.concatenate([y for _, y in others]))
            assert np.array_equal(x_test, apply_normalization(x_held, params))
            assert contiguous
            assert np.array_equal(scalings[k], params)

    def test_pool_workers_bounded_by_chunks(self, small_dataset, small_config, monkeypatch):
        import concurrent.futures

        workers = []

        class InProcessPool:
            """Records max_workers and maps in this process, so no process starts."""

            def __init__(self, max_workers):
                workers.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables, **kwargs):
                return map(fn, *iterables)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessPool)
        five = GaitDataset(small_dataset.trials[:5])
        serial = _as_json(run_loocv(five, "mlp", small_config))
        for jobs, chunks in ((64, 5), (3, 3), (2, 2)):
            pooled = _as_json(run_loocv(five, "mlp", small_config, jobs=jobs))
            assert workers[-1] == chunks
            assert pooled == serial
        assert len(workers) == 3

    def test_one_chunk_run_never_loads_the_process_pool(self):
        code = (
            "import sys\n"
            "from gaitreg import RunConfig, generate, run_loocv\n"
            "config = RunConfig.from_dict({'samples_per_trial': 48, 'trials_per_mode': "
            "{'NormalWalk': 2, 'StairAscent': 1, 'StairDescent': 1, 'SlopeAscent': 1, "
            "'SlopeDescent': 1}})\n"
            "dataset = generate(config.synth_config())\n"
            "run_loocv(dataset, 'linear', config, jobs=1)\n"
            "run_loocv(dataset, 'linear', config, jobs=2)\n"
            "print(sorted(m for m in sys.modules if m.startswith("
            "('concurrent.futures.process', 'multiprocessing'))))\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, check=True
        )
        assert proc.stdout.strip() == "[]"

    def test_linear_folds_never_start_a_pool(self, small_dataset, small_config, monkeypatch):
        import concurrent.futures

        def refuse(*args, **kwargs):
            raise AssertionError("a linear run built a ProcessPoolExecutor")

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", refuse)
        serial = _as_json(run_loocv(small_dataset, "linear", small_config))
        for jobs in (2, 64):
            assert _as_json(run_loocv(small_dataset, "linear", small_config, jobs=jobs)) == serial

    @pytest.mark.parametrize("model", ["mlp", "svr"])
    def test_run_calls_no_eigen_solver(self, small_dataset, small_config, monkeypatch, model):
        def eigen_solver(*args, **kwargs):
            raise AssertionError("eigen-solver called")

        monkeypatch.setattr(np, "roots", eigen_solver)
        monkeypatch.setattr(np.linalg, "eigvals", eigen_solver)
        report = run_loocv(GaitDataset(small_dataset.trials[:2]), model, small_config)
        assert len(report.folds) == 2

    def test_uneven_chunks_give_identical_reports(self, small_dataset, small_config, tmp_path):
        # 5 folds over 3 workers run as chunks of 2, 2 and 1
        five = GaitDataset(small_dataset.trials[:5])
        trees = {}
        for jobs in (1, 3):
            out = tmp_path / f"jobs{jobs}"
            emit_report(run_loocv(five, "mlp", small_config, jobs=jobs), out)
            trees[jobs] = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
        assert trees[1] == trees[3]

    @pytest.mark.parametrize("constant_column", [False, True])
    @pytest.mark.parametrize("paper_faithful_norm", [False, True])
    def test_linear_folds_match_linear_fit_on_the_scaled_rows(
        self, small_dataset, small_config, monkeypatch, paper_faithful_norm, constant_column
    ):
        import gaitreg.evaluation as evaluation
        from gaitreg import linear_fit, linear_predict
        from gaitreg.preprocessing import apply_normalization, fit_normalization

        original = evaluation.feature_rows

        def flattened(*args):
            x, y, bounds = original(*args)
            x = x.copy()
            x[:, 2] = 5.0  # the same value in every trial: a degenerate column
            return x, y, bounds

        if constant_column:
            monkeypatch.setattr(evaluation, "feature_rows", flattened)
        config = small_config.with_overrides({"paper_faithful_norm": paper_faithful_norm})
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            report = run_loocv(small_dataset, "linear", config)
        x_all, y_all, bounds = evaluation.feature_rows(
            small_dataset, config.cutoff_hz, config.filter_order, config.filter_targets
        )
        blocks = [(x_all[a:b], y_all[a:b]) for a, b in zip(bounds, bounds[1:])]
        pooled = fit_normalization(x_all)
        expected_warnings = []
        for k, fold in enumerate(report.folds):
            others = blocks[:k] + blocks[k + 1 :]
            x_raw = np.concatenate([x for x, _ in others])
            params = pooled if paper_faithful_norm else fit_normalization(x_raw)
            with warnings.catch_warnings(record=True) as reference_caught:
                warnings.simplefilter("always")
                model = linear_fit(
                    apply_normalization(x_raw, params), np.concatenate([y for _, y in others])
                )
            expected_warnings += [str(w.message) for w in reference_caught]
            want = linear_predict(model, apply_normalization(blocks[k][0], params))
            np.testing.assert_allclose(
                fold.y_pred, want, rtol=1e-10, atol=1e-10 * np.abs(want).max()
            )
        assert [str(w.message) for w in caught] == expected_warnings
        assert len(expected_warnings) == (len(blocks) if constant_column else 0)

    @pytest.mark.filterwarnings("ignore:SMO stopped at the update cap")
    @pytest.mark.parametrize("model", ["linear", "mlp", "svr"])
    def test_held_out_rows_leave_their_fold_bit_identical(
        self, small_dataset, small_config, monkeypatch, model
    ):
        import gaitreg.evaluation as evaluation

        fit_name = {"linear": "linear_fit_factored", "mlp": "train", "svr": "fit_svr_baseline"}
        original_fit = getattr(evaluation, fit_name[model])
        original_chunk = evaluation._run_chunk

        def folds(trials, config):
            """Per fold: y_pred, the fitted parameters at the fit call, and the scaling record."""
            fits, scalings = [], []

            def fitting(*args, **kwargs):
                result = original_fit(*args, **kwargs)
                fits.append(pickle.dumps(result[0] if model == "mlp" else result))
                return result

            def chunk(payload, indices):
                scalings.extend(pickle.dumps(payload[3][k][4]) for k in indices)
                return original_chunk(payload, indices)

            monkeypatch.setattr(evaluation, fit_name[model], fitting)
            monkeypatch.setattr(evaluation, "_run_chunk", chunk)
            report = run_loocv(GaitDataset(trials), model, config)
            return [f.y_pred.tobytes() for f in report.folds], fits, scalings

        k = 3
        trials = small_dataset.trials[:6]
        trial = trials[k]
        new_targets = dataclasses.replace(
            trial,
            samples=np.column_stack(
                [trial.theta_hip, trial.theta_knee, trial.theta_ankle + 1.0, trial.tau_ankle - 2.0]
            ),
        )
        new_inputs = dataclasses.replace(
            trial,
            samples=np.column_stack(
                [trial.theta_hip * 1.5 + 4.0, trial.theta_knee[::-1], trial.theta_ankle,
                 trial.tau_ankle]
            ),
        )

        def moved(before, changed, config):
            """Whether fold k's (y_pred, fit, scaling) move, and whether every other fold's do."""
            after = folds(trials[:k] + (changed,) + trials[k + 1 :], config)
            at_k = [b[k] != a[k] for b, a in zip(before, after)]
            others = [all(b[j] != a[j] for j in range(len(trials)) if j != k)
                      for b, a in zip(before, after)]
            return at_k, others

        config = small_config.with_overrides({"epochs": 2})
        before = folds(trials, config)
        at_k, others = moved(before, new_targets, config)
        assert not at_k[0] and others[0]  # y_pred
        at_k, others = moved(before, new_inputs, config)
        assert at_k[1:] == [False, False] and others[1]  # fitted parameters, scaling
        # control: a scaling fitted on every trial leaks the held-out trial's extrema
        leaky = config.with_overrides({"paper_faithful_norm": True})
        at_k, _ = moved(folds(trials, leaky), new_inputs, leaky)
        assert at_k[2]

    def test_single_trial_rejected(self, small_dataset, small_config):
        with pytest.raises(ConfigError, match="at least 2 trials, got 1"):
            run_loocv(GaitDataset(small_dataset.trials[:1]), "linear", small_config)

    def test_partial_grid_rejected(self, small_config):
        with pytest.raises(ConfigError, match="together"):
            small_config.with_overrides({"svr_grid_c": [1.0]})

    def test_pooling_consistency_of_phase_curves(self):
        # with identical phase grids, the mean of per-trial curves equals the
        # curve of the per-bin mean error (linearity of interpolation)
        folds = [make_fold("a", 1.0, 0.5), make_fold("b", 3.0, 1.5), make_fold("c", 0.5, 2.0)]
        mae, _ = phase_mae_curve(folds)
        grid = np.linspace(0.0, 100.0, 101)
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

    def test_json_modes_are_the_report_modes(self, report, tmp_path):
        emit_report(report, tmp_path)
        data = json.loads((tmp_path / "report.json").read_text())
        assert data["modes"] == report.modes

    def test_non_finite_number_refused_before_anything_is_written(self, report, tmp_path):
        # run_loocv refuses non-finite metrics; json.dumps(allow_nan=False) is the last guard
        broken = dataclasses.replace(report, pooled={"r2": {"theta": float("nan")}})
        with pytest.raises(ValueError, match="not JSON compliant"):
            emit_report(broken, tmp_path / "out")
        assert not (tmp_path / "out" / "report.json").exists()

    def test_written_names_are_report_file_names(self, report, tmp_path):
        from gaitreg.evaluation import report_file_names

        written = [p.name for p in emit_report(report, tmp_path)]
        assert written == report_file_names(report.modes)
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(written)

    def test_foreign_entry_refused_before_anything_is_written(self, report, tmp_path):
        (tmp_path / "phase_mae_Jogging_tau.svg").write_text("stale")
        (tmp_path / "notes").mkdir()
        refused = r"holds 2 entries this run would not write, e\.g\. 'notes'"
        with pytest.raises(ConfigError, match=refused):
            emit_report(report, tmp_path)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["notes", "phase_mae_Jogging_tau.svg"]

    def test_same_report_again_into_its_directory(self, report, tmp_path):
        first = {p.name: p.read_bytes() for p in emit_report(report, tmp_path)}
        second = {p.name: p.read_bytes() for p in emit_report(report, tmp_path)}
        assert first == second
