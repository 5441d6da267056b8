"""Metrics, the leave-one-out driver, and report emission.

Scores are computed per held-out trial and then averaged within each
locomotion mode (matching error bars that show inter-trial spread), with
pooled-over-all-rows values reported alongside.  Phase-resolved mean
absolute error curves resample each trial's |error| onto a common 0..100%
grid before averaging across trials.
"""

from __future__ import annotations

import json
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .baselines import (
    fit_svr_baseline,
    grid_search_svr,
    linear_fit,
    linear_predict,
    predict_svr_baseline,
)
from .config import RunConfig
from .data import GaitDataset, LocomotionMode, loo_splits
from .errors import ConfigError, MetricError, PipelineError
from .ioutil import atomic_write_text
from .mlp import forward, init, train
from .preprocessing import (
    ButterworthFilter,
    NormalizationParams,
    apply_normalization,
    feature_blocks,
)
# not called here; bound so perfbench/tracer.py can patch them by name
from .preprocessing import fit_normalization, trial_features  # noqa: F401
from .rng import derive_seed
from .svgplot import band_plot_svg

MODEL_SPECS = ("mlp", "linear", "svr")

TARGET_KEYS = ("theta", "tau")

STANCE_SWING_BOUNDARY = 60.0  # percent of the gait cycle


def r2_score(y: np.ndarray, y_pred: np.ndarray) -> float:
    """Coefficient of determination, 1 - SS_res / SS_tot."""
    y = np.asarray(y, dtype=np.float64).ravel()
    y_pred = np.asarray(y_pred, dtype=np.float64).ravel()
    if len(y) != len(y_pred) or len(y) < 2:
        raise MetricError(f"need two equal-length sequences of >= 2 values, got {len(y)}")
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    # a filtered constant keeps rounding noise, so zero is judged on y's scale
    if ss_tot <= len(y) * (1e-10 * float(np.abs(y).max())) ** 2:
        raise MetricError("R^2 is undefined for a constant target sequence")
    return 1.0 - float(np.sum((y - y_pred) ** 2)) / ss_tot


def rmse(y: np.ndarray, y_pred: np.ndarray) -> float:
    y = np.asarray(y, dtype=np.float64).ravel()
    y_pred = np.asarray(y_pred, dtype=np.float64).ravel()
    if len(y) != len(y_pred) or len(y) < 1:
        raise MetricError(f"need two equal-length non-empty sequences, got {len(y)}")
    return float(np.sqrt(np.mean((y - y_pred) ** 2)))


@dataclass
class FoldResult:
    """Held-out metrics and (n, 2) target sequences for one LOO fold."""

    trial_id: str
    mode: str
    r2: dict[str, float]
    rmse: dict[str, float]
    y_true: np.ndarray
    y_pred: np.ndarray


def phase_mae_curve(
    folds: Sequence[FoldResult], n_bins: int = 101
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(grid, mae, se): per-bin mean |error| across trials with standard error.

    Each fold's |error| sequence, its samples evenly spread over 0..100%
    phase, is linearly resampled onto n_bins points; mae and se have shape
    (n_bins, 2) for the two targets.  With a single trial the standard
    error is zero.
    """
    if not folds:
        raise ConfigError("phase_mae_curve needs at least one fold")
    grid = np.linspace(0.0, 100.0, n_bins)
    per_trial = []
    for fold in folds:
        err = np.abs(fold.y_pred - fold.y_true)
        phase = np.linspace(0.0, 100.0, len(err))
        per_trial.append(
            np.column_stack([np.interp(grid, phase, err[:, t]) for t in range(2)])
        )
    stack = np.stack(per_trial)  # (n_trials, n_bins, 2)
    mae = stack.mean(axis=0)
    if len(folds) > 1:
        se = stack.std(axis=0, ddof=1) / np.sqrt(len(folds))
    else:
        se = np.zeros_like(mae)
    return grid, mae, se


@dataclass
class ModeSummary:
    n_trials: int
    r2_mean: dict[str, float]
    r2_sd: dict[str, float]
    rmse_mean: dict[str, float]
    rmse_sd: dict[str, float]
    phase_mae: dict[str, np.ndarray]  # keys theta, tau
    phase_se: dict[str, np.ndarray]


@dataclass
class EvalReport:
    config: dict
    model_spec: str
    folds: list[FoldResult]
    modes: dict[str, ModeSummary]
    pooled: dict[str, dict[str, float]]
    pooled_rows: int
    missing_modes: list[str]


def _fit_predict(model_spec: str, config: RunConfig, fold_idx: int, x_train, y_train, x_test):
    if model_spec == "mlp":
        model = init(config.layer_dims, derive_seed(config.init_seed, fold_idx))
        tcfg = config.train_config(shuffle_seed=derive_seed(config.shuffle_seed, fold_idx))
        train(model, x_train, y_train, tcfg)
        return forward(model, x_test)
    if model_spec == "linear":
        return linear_predict(linear_fit(x_train, y_train), x_test)
    if model_spec == "svr":
        baseline = fit_svr_baseline(
            x_train,
            y_train,
            c=config.svr_c,
            epsilon=config.svr_epsilon,
            gamma=config.svr_gamma,
            tol=config.svr_tol,
            max_updates=config.svr_max_updates,
        )
        return predict_svr_baseline(baseline, x_test)
    raise ConfigError(f"unknown model spec {model_spec!r}; choose from {MODEL_SPECS}")


def _fold_params(mins: np.ndarray, maxs: np.ndarray, fold_idx: int) -> NormalizationParams:
    """fit_normalization of every trial's rows but fold_idx's, from per-trial extrema."""
    keep = np.arange(len(mins)) != fold_idx
    return NormalizationParams(mins[keep].min(axis=0), maxs[keep].max(axis=0))


def _run_fold(payload, fold_idx: int) -> FoldResult:
    trials, blocks, mins, maxs, pooled_params, model_spec, config = payload
    trial_id, mode = trials[fold_idx]
    try:
        train_blocks = [b for t, b in enumerate(blocks) if t != fold_idx]
        x_raw = np.concatenate([b[0] for b in train_blocks])
        y_train = np.concatenate([b[1] for b in train_blocks])
        if config.paper_faithful_norm:
            params = pooled_params
        else:
            params = _fold_params(mins, maxs, fold_idx)
        x_train = apply_normalization(x_raw, params)
        x_test = apply_normalization(blocks[fold_idx][0], params)
        y_test = blocks[fold_idx][1]
        y_pred = _fit_predict(model_spec, config, fold_idx, x_train, y_train, x_test)
        r2 = {k: r2_score(y_test[:, t], y_pred[:, t]) for t, k in enumerate(TARGET_KEYS)}
        err = {k: rmse(y_test[:, t], y_pred[:, t]) for t, k in enumerate(TARGET_KEYS)}
    except PipelineError as exc:
        raise type(exc)(f"fold {fold_idx} (held-out {trial_id!r}): {exc}") from None
    return FoldResult(
        trial_id=trial_id, mode=mode, r2=r2, rmse=err, y_true=y_test, y_pred=y_pred
    )


def run_loocv(
    dataset: GaitDataset, model_spec: str, config: RunConfig, jobs: int = 1
) -> EvalReport:
    """Train/evaluate one model spec across every leave-one-out fold.

    Every trial is filtered in one batched pass (feature_blocks) and the
    unscaled blocks are shared by all folds.  Min-max scaling is fitted per
    fold on the training trials only, or on the pooled data when
    config.paper_faithful_norm is set; either way it comes from each
    trial's column mins and maxes, computed once, so a fold's fit costs
    O(trials) instead of O(rows) and gives fit_normalization's exact bits.
    The optional SVR grid search runs before LOO on the same per-trial
    blocks under pooled scaling, so every held-out trial influences the
    chosen hyperparameters.  Results are deterministic for fixed seeds and
    independent of the job count.
    """
    if model_spec not in MODEL_SPECS:
        raise ConfigError(f"unknown model spec {model_spec!r}; choose from {MODEL_SPECS}")
    if jobs < 1:
        raise ConfigError(f"jobs must be >= 1, got {jobs}")
    loo_splits(dataset)  # validates >= 2 trials
    base_filter = ButterworthFilter.design(
        config.cutoff_hz, dataset.trials[0].sample_rate_hz, config.filter_order
    )
    blocks = feature_blocks(dataset, base_filter, config.filter_targets)
    mins = np.array([x.min(axis=0) for x, _ in blocks])
    maxs = np.array([x.max(axis=0) for x, _ in blocks])
    grid = model_spec == "svr" and config.svr_grid_c is not None
    pooled_params = None
    if config.paper_faithful_norm or grid:
        pooled_params = NormalizationParams(mins.min(axis=0), maxs.max(axis=0))
    if grid:
        c, epsilon, gamma = grid_search_svr(
            [(apply_normalization(x, pooled_params), y) for x, y in blocks],
            config.svr_grid_c,
            config.svr_grid_epsilon,
            config.svr_grid_gamma,
            n_folds=config.svr_grid_folds,
            tol=config.svr_tol,
            max_updates=config.svr_max_updates,
        )
        # the folds, and the report's config echo, use the chosen values
        config = config.with_overrides({"svr_c": c, "svr_epsilon": epsilon, "svr_gamma": gamma})
    # each fold reads only the held-out trial's id and mode, not the dataset
    trials = [(t.trial_id, t.mode.name) for t in dataset]
    payload = (trials, blocks, mins, maxs, pooled_params, model_spec, config)

    n = len(dataset)
    indices = range(n)
    if jobs > 1:
        # one contiguous chunk of folds per worker: pickle then stores the
        # shared payload once per chunk instead of once per fold
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            folds = list(pool.map(_run_fold, [payload] * n, indices, chunksize=-(-n // jobs)))
    else:
        folds = [_run_fold(payload, i) for i in indices]

    modes: dict[str, ModeSummary] = {}
    for mode in LocomotionMode:
        mode_folds = sorted(
            (f for f in folds if f.mode == mode.name), key=lambda f: f.trial_id
        )
        if not mode_folds:
            continue
        _, mae, se = phase_mae_curve(mode_folds, config.phase_bins)
        r2s = {k: np.array([f.r2[k] for f in mode_folds]) for k in TARGET_KEYS}
        rmses = {k: np.array([f.rmse[k] for f in mode_folds]) for k in TARGET_KEYS}
        modes[mode.name] = ModeSummary(
            n_trials=len(mode_folds),
            r2_mean={k: float(v.mean()) for k, v in r2s.items()},
            r2_sd={k: float(v.std(ddof=1)) if len(v) > 1 else 0.0 for k, v in r2s.items()},
            rmse_mean={k: float(v.mean()) for k, v in rmses.items()},
            rmse_sd={k: float(v.std(ddof=1)) if len(v) > 1 else 0.0 for k, v in rmses.items()},
            phase_mae={k: mae[:, t] for t, k in enumerate(TARGET_KEYS)},
            phase_se={k: se[:, t] for t, k in enumerate(TARGET_KEYS)},
        )

    y_true_all = np.concatenate([f.y_true for f in folds])
    y_pred_all = np.concatenate([f.y_pred for f in folds])
    pooled = {
        "r2": {k: r2_score(y_true_all[:, t], y_pred_all[:, t]) for t, k in enumerate(TARGET_KEYS)},
        "rmse": {k: rmse(y_true_all[:, t], y_pred_all[:, t]) for t, k in enumerate(TARGET_KEYS)},
    }
    return EvalReport(
        config=config.to_dict(),
        model_spec=model_spec,
        folds=folds,
        modes=modes,
        pooled=pooled,
        pooled_rows=dataset.total_rows(),
        missing_modes=[m.name for m in LocomotionMode if m.name not in modes],
    )


def report_to_dict(report: EvalReport) -> dict:
    return {
        "config": report.config,
        "model_spec": report.model_spec,
        "folds": [
            {"trial_id": f.trial_id, "mode": f.mode, "r2": f.r2, "rmse": f.rmse}
            for f in report.folds
        ],
        "modes": {
            name: {
                "n_trials": s.n_trials,
                "r2_mean": s.r2_mean,
                "r2_sd": s.r2_sd,
                "rmse_mean": s.rmse_mean,
                "rmse_sd": s.rmse_sd,
                "phase_mae": {
                    "theta": s.phase_mae["theta"].tolist(),
                    "tau": s.phase_mae["tau"].tolist(),
                    "se_theta": s.phase_se["theta"].tolist(),
                    "se_tau": s.phase_se["tau"].tolist(),
                },
            }
            for name, s in report.modes.items()
        },
        "pooled": report.pooled,
        "pooled_rows": report.pooled_rows,
        "missing_modes": report.missing_modes,
    }


def summary_csv_text(report: EvalReport) -> str:
    lines = ["mode,target,r2_mean,r2_sd,rmse_mean,rmse_sd"]
    for mode in LocomotionMode:
        summary = report.modes.get(mode.name)
        if summary is None:
            continue
        for key in TARGET_KEYS:
            lines.append(
                f"{mode.name},{key},{summary.r2_mean[key]!r},{summary.r2_sd[key]!r},"
                f"{summary.rmse_mean[key]!r},{summary.rmse_sd[key]!r}"
            )
    return "\n".join(lines) + "\n"


def emit_report(report: EvalReport, out_dir: str | Path) -> list[Path]:
    """Write report.json, summary.csv, and one phase-MAE SVG per mode/target."""
    out_dir = Path(out_dir)
    written = [
        atomic_write_text(
            out_dir / "report.json",
            json.dumps(report_to_dict(report), indent=2, sort_keys=True) + "\n",
        ),
        atomic_write_text(out_dir / "summary.csv", summary_csv_text(report)),
    ]
    units = {"theta": "MAE (deg)", "tau": "MAE (Nm)"}
    titles = {"theta": "ankle angle", "tau": "ankle moment"}
    for mode in LocomotionMode:
        summary = report.modes.get(mode.name)
        if summary is None:
            continue
        grid = np.linspace(0.0, 100.0, len(summary.phase_mae["theta"]))
        for key in TARGET_KEYS:
            svg = band_plot_svg(
                grid,
                summary.phase_mae[key],
                summary.phase_se[key],
                title=f"{mode.name}: {titles[key]} error vs gait phase",
                x_label="gait phase (%)",
                y_label=units[key],
                divider_x=STANCE_SWING_BOUNDARY,
            )
            written.append(atomic_write_text(out_dir / f"phase_mae_{mode.name}_{key}.svg", svg))
    return written
