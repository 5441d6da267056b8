"""Metrics, the leave-one-out driver, and report emission.

Scores are computed per held-out trial and then averaged within each
locomotion mode (matching error bars that show inter-trial spread), with
pooled-over-all-rows values reported alongside.  Phase-resolved mean
absolute error curves resample each trial's |error| onto a common 0..100%
grid before averaging across trials.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .baselines import (
    fit_svr_baseline,
    grid_search_svr,
    linear_factor,
    linear_fit_factored,
    linear_predict,
    predict_svr_baseline,
)
from .config import RunConfig
from .data import MODES, GaitDataset
from .errors import ConfigError, MetricError, PipelineError, TrainError
from .ioutil import atomic_write_text, refuse_foreign_entries
from .mlp import forward, init, train
from .preprocessing import apply_normalization, feature_rows, fit_normalization, scaling_matrix
# not called here; bound so perfbench/tracer.py can patch them by name
from .baselines import linear_fit  # noqa: F401
from .data import loo_splits  # noqa: F401
from .preprocessing import trial_features  # noqa: F401
from .rng import derive_seed
from .svgplot import band_plot_svg

MODEL_SPECS = ("mlp", "linear", "svr")

TARGET_KEYS = ("theta", "tau")


def r2_score(y: np.ndarray, y_pred: np.ndarray) -> float:
    """Coefficient of determination, 1 - SS_res / SS_tot."""
    y = np.asarray(y, dtype=np.float64).ravel()
    y_pred = np.asarray(y_pred, dtype=np.float64).ravel()
    if len(y) != len(y_pred) or len(y) < 2:
        raise MetricError(f"need two equal-length sequences of >= 2 values, got {len(y)}")
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    # a filtered constant keeps rounding noise, so zero is judged on y's (unsquared) scale
    scale = float(np.abs(y).max())
    if ss_tot == 0.0 or ss_tot / scale / scale <= len(y) * 1e-20:
        raise MetricError("R^2 is undefined for a constant target sequence")
    return 1.0 - float(np.sum((y - y_pred) ** 2)) / ss_tot


def rmse(y: np.ndarray, y_pred: np.ndarray) -> float:
    y = np.asarray(y, dtype=np.float64).ravel()
    y_pred = np.asarray(y_pred, dtype=np.float64).ravel()
    if len(y) != len(y_pred) or len(y) < 1:
        raise MetricError(f"need two equal-length non-empty sequences, got {len(y)}")
    return float(np.sqrt(np.mean((y - y_pred) ** 2)))


@np.errstate(over="ignore", invalid="ignore")  # a square that overflows is refused below
def _scores(y: np.ndarray, y_pred: np.ndarray) -> tuple[dict[str, float], dict[str, float]]:
    """(r2, rmse) of each target column; an undefined or non-finite score is a MetricError."""
    scores = {"r2": {}, "rmse": {}}
    for name, metric in (("r2", r2_score), ("rmse", rmse)):
        for t, key in enumerate(TARGET_KEYS):
            try:
                value = scores[name][key] = metric(y[:, t], y_pred[:, t])
            except MetricError as exc:
                raise MetricError(f"{name} of target {key}: {exc}") from None
            if not math.isfinite(value):
                raise MetricError(f"{name} of target {key} is {value}")
    return scores["r2"], scores["rmse"]


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
) -> tuple[np.ndarray, np.ndarray]:
    """(mae, se): per-bin mean |error| across trials with standard error.

    Each fold's |error| sequence, its samples evenly spread over 0..100%
    phase, is linearly resampled onto n_bins points spread the same way;
    mae and se have shape (n_bins, 2) for the two targets.  With a single
    trial the standard error is zero.
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
    se = stack.std(axis=0, ddof=1) / np.sqrt(len(folds)) if len(folds) > 1 else np.zeros_like(mae)
    return mae, se


@dataclass
class EvalReport:
    config: dict
    model_spec: str
    folds: list[FoldResult]
    # report.json's per-mode entries, in mode order: n_trials, the r2_/rmse_
    # mean and sd per target, and phase_mae's theta, tau, se_theta, se_tau lists
    modes: dict[str, dict]
    pooled: dict[str, dict[str, float]]
    pooled_rows: int
    missing_modes: list[str]
    svr_grid: dict[str, int] | None = None  # SMO fit counts of the grid search, if run


def _fit_predict(model_spec: str, config: RunConfig, fold_idx: int, x_train, y_train, x_test):
    if model_spec == "mlp":
        model = init(config.layer_dims, derive_seed(config.init_seed, fold_idx))
        tcfg = config.train_config(shuffle_seed=derive_seed(config.shuffle_seed, fold_idx))
        train(model, x_train, y_train, tcfg)
        return forward(model, x_test)
    baseline = fit_svr_baseline(  # run_loocv has checked model_spec
        x_train,
        y_train,
        c=config.svr_c,
        epsilon=config.svr_epsilon,
        gamma=config.svr_gamma,
        tol=config.svr_tol,
        max_updates=config.svr_max_updates,
    )
    return predict_svr_baseline(baseline, x_test)


def _run_chunk(payload, indices: Sequence[int]) -> list[FoldResult]:
    """Score the folds in indices.

    A linear fold (factors given) reads no training rows: it solves from
    the other trials' linear_factor stacks, scaled by its scaling_matrix.
    An MLP or SVR fold concatenates the other trials' rows and scales them
    in place.
    """
    x_all, y_all, factors, records, model_spec, config = payload
    folds = []
    for fold_idx in indices:
        trial_id, mode, start, end, params = records[fold_idx]
        try:
            x_test = apply_normalization(x_all[start:end], params)
            y_test = y_all[start:end]
            if factors is not None:
                others = np.concatenate([factors[:fold_idx], factors[fold_idx + 1 :]])
                rows = len(x_all) - (end - start)
                model = linear_fit_factored(others, rows, scaling_matrix(params))
                y_pred = linear_predict(model, x_test)
            else:
                x_train = np.concatenate([x_all[:start], x_all[end:]])
                y_train = np.concatenate([y_all[:start], y_all[end:]])
                apply_normalization(x_train, params, out=x_train)
                y_pred = _fit_predict(model_spec, config, fold_idx, x_train, y_train, x_test)
            r2, err = _scores(y_test, y_pred)
        except PipelineError as exc:
            raise type(exc)(f"fold {fold_idx} (held-out {trial_id!r}): {exc}") from None
        folds.append(
            FoldResult(trial_id=trial_id, mode=mode, r2=r2, rmse=err, y_true=y_test, y_pred=y_pred)
        )
    return folds


def run_loocv(
    dataset: GaitDataset, model_spec: str, config: RunConfig, jobs: int = 1
) -> EvalReport:
    """Train/evaluate one model spec across every leave-one-out fold.

    Every trial is filtered and differentiated in one batched pass
    (feature_rows, which designs the config's low-pass for each sample
    rate), which returns the unscaled rows of all trials already stacked,
    with the trial boundaries; the folds read those arrays.  Each
    fold gets one record, (trial_id, mode, start, end, params): the
    held-out trial and its row span, and the min-max scaling that
    fit_normalization fits here on the training trials only (on all trials
    when config.paper_faithful_norm is set).  Each trial's column mins and
    maxs are taken once (reduceat), and a fold's fit reads the other
    trials' min and max rows: min and max are exact, so the bits are those
    of a fit on the training rows.  For the linear model
    each trial's unscaled block is also factored once (linear_factor, a
    7 x 9 [R | Q'y]), and a fold solves from the other trials' factors
    times its scaling matrix (linear_fit_factored): it reads no training
    rows, and its coefficients differ from a per-fold lstsq on the scaled
    rows in the last places only.  Linear folds all run in this process,
    at any jobs; MLP and SVR folds run in contiguous chunks, one per
    worker (all of them in one chunk at jobs=1).  The optional SVR grid
    search runs before LOO on the same stacked rows and boundaries under
    the pooled scaling, so every held-out trial influences the chosen
    hyperparameters; report.json then records its fit counts.  A
    non-finite fold or pooled metric is a MetricError.  Results are
    deterministic for fixed seeds and independent of the job count.
    """
    if model_spec not in MODEL_SPECS:
        raise ConfigError(f"unknown model spec {model_spec!r}; choose from {MODEL_SPECS}")
    if jobs < 1:
        raise ConfigError(f"jobs must be >= 1, got {jobs}")
    if len(dataset) < 2:
        raise ConfigError(f"leave-one-out needs at least 2 trials, got {len(dataset)}")
    x_all, y_all, bounds = feature_rows(
        dataset, config.cutoff_hz, config.filter_order, config.filter_targets
    )
    spans = list(zip(bounds, bounds[1:]))
    mins = np.minimum.reduceat(x_all, bounds[:-1])
    maxs = np.maximum.reduceat(x_all, bounds[:-1])
    extrema = np.concatenate([mins, maxs])
    pooled_params = fit_normalization(extrema)
    svr_grid = None
    if model_spec == "svr" and config.svr_grid_c is not None:
        (c, epsilon, gamma), fits, capped = grid_search_svr(
            apply_normalization(x_all, pooled_params),
            y_all,
            bounds,
            config.svr_grid_c,
            config.svr_grid_epsilon,
            config.svr_grid_gamma,
            n_folds=config.svr_grid_folds,
            tol=config.svr_tol,
            max_updates=config.svr_max_updates,
        )
        svr_grid = {"fits": fits, "capped_fits": capped}
        # the folds, and the report's config echo, use the chosen values
        config = config.with_overrides({"svr_c": c, "svr_epsilon": epsilon, "svr_gamma": gamma})
    records = []
    for k, (trial, (start, end)) in enumerate(zip(dataset, spans)):
        params = pooled_params
        if not config.paper_faithful_norm:
            params = fit_normalization(np.delete(extrema, [k, len(dataset) + k], axis=0))
        records.append((trial.trial_id, trial.mode, start, end, params))
    factors = None
    if model_spec == "linear":
        factors = np.stack([linear_factor(x_all[a:b], y_all[a:b]) for a, b in spans])
        overflowed = ~np.isfinite(factors).all(axis=(1, 2))
        if overflowed.any():
            raise TrainError(f"trial {dataset.trials[overflowed.argmax()].trial_id!r}: "
                             "its least-squares factor overflows float64")
    payload = (x_all, y_all, factors, records, model_spec, config)

    n = len(dataset)
    # linear folds are cheaper than forking a worker and pickling its payload
    size = n if factors is not None else -(-n // jobs)
    chunks = [range(s, min(s + size, n)) for s in range(0, n, size)]
    if len(chunks) > 1:
        # imported here, so that a one-chunk run never loads multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        # a fork-started pool starts every worker at once, so one per chunk
        with ProcessPoolExecutor(max_workers=len(chunks)) as pool:
            done = pool.map(_run_chunk, [payload] * len(chunks), chunks)
            folds = [fold for chunk in done for fold in chunk]
    else:
        folds = _run_chunk(payload, chunks[0])

    modes = {}
    for mode in MODES:
        mode_folds = sorted((f for f in folds if f.mode == mode), key=lambda f: f.trial_id)
        if not mode_folds:
            continue
        mae, se = phase_mae_curve(mode_folds, config.phase_bins)
        summary = modes[mode] = {"n_trials": len(mode_folds)}
        for metric in ("r2", "rmse"):
            values = {k: np.array([getattr(f, metric)[k] for f in mode_folds]) for k in TARGET_KEYS}
            summary[f"{metric}_mean"] = {k: float(v.mean()) for k, v in values.items()}
            summary[f"{metric}_sd"] = {
                k: float(v.std(ddof=1)) if len(v) > 1 else 0.0 for k, v in values.items()
            }
        summary["phase_mae"] = {
            "theta": mae[:, 0].tolist(),
            "tau": mae[:, 1].tolist(),
            "se_theta": se[:, 0].tolist(),
            "se_tau": se[:, 1].tolist(),
        }

    # folds come back in dataset order and each y_true is its slice of y_all
    y_pred_all = np.concatenate([f.y_pred for f in folds])
    try:
        r2, err = _scores(y_all, y_pred_all)
    except MetricError as exc:
        raise MetricError(f"pooled over every fold: {exc}") from None
    return EvalReport(
        config=config.to_dict(),
        model_spec=model_spec,
        folds=folds,
        modes=modes,
        pooled={"r2": r2, "rmse": err},
        pooled_rows=dataset.total_rows(),
        missing_modes=[m for m in MODES if m not in modes],
        svr_grid=svr_grid,
    )


def report_to_dict(report: EvalReport) -> dict:
    out = {
        "config": report.config,
        "model_spec": report.model_spec,
        "folds": [
            {"trial_id": f.trial_id, "mode": f.mode, "r2": f.r2, "rmse": f.rmse}
            for f in report.folds
        ],
        "modes": report.modes,
        "pooled": report.pooled,
        "pooled_rows": report.pooled_rows,
        "missing_modes": report.missing_modes,
    }
    if report.svr_grid is not None:
        out["svr_grid"] = report.svr_grid
    return out


def summary_csv_text(report: EvalReport) -> str:
    stats = ("r2_mean", "r2_sd", "rmse_mean", "rmse_sd")
    lines = [",".join(("mode", "target") + stats)]
    for name, summary in report.modes.items():
        for key in TARGET_KEYS:
            lines.append(",".join([name, key] + [repr(summary[s][key]) for s in stats]))
    return "\n".join(lines) + "\n"


def report_file_names(modes: Sequence[str]) -> list[str]:
    """The names emit_report writes for a report over these modes, in its order."""
    svgs = [f"phase_mae_{name}_{key}.svg" for name in modes for key in TARGET_KEYS]
    return ["report.json", "summary.csv", *svgs]


def emit_report(report: EvalReport, out_dir: str | Path) -> list[Path]:
    """Write report.json, summary.csv, and one phase-MAE SVG per mode/target.

    An out_dir that holds any other entry is a ConfigError, raised before
    anything is written (ioutil.refuse_foreign_entries).
    """
    out_dir = Path(out_dir)
    names = report_file_names(report.modes)
    refuse_foreign_entries(out_dir, names)
    written = [
        atomic_write_text(
            out_dir / "report.json",
            json.dumps(report_to_dict(report), indent=2, sort_keys=True, allow_nan=False) + "\n",
        ),
        atomic_write_text(out_dir / "summary.csv", summary_csv_text(report)),
    ]
    labels = {"theta": ("ankle angle", "MAE (deg)"), "tau": ("ankle moment", "MAE (Nm)")}
    svg_names = iter(names[2:])  # one per mode and target, in the order of these loops
    for name, summary in report.modes.items():
        curves = summary["phase_mae"]
        for key in TARGET_KEYS:
            target, y_label = labels[key]
            title = f"{name}: {target} error vs gait phase"
            svg = band_plot_svg(curves[key], curves[f"se_{key}"], title, y_label)
            written.append(atomic_write_text(out_dir / next(svg_names), svg))
    return written
