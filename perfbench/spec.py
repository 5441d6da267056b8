"""Workloads and metric definitions of the leave-one-out benchmark.

Every metric carries the layer it belongs to and, for per-layer metrics,
the end-to-end metric and workloads it is expected to move.  On every
workload not listed in ``on`` the prediction is no change.  The smoke mode
of run.py checks that BENCHMARK.json lists exactly these names, units and
directions.
"""

from __future__ import annotations

from dataclasses import dataclass

MODES = ("NormalWalk", "StairAscent", "StairDescent", "SlopeAscent", "SlopeDescent")

# The seed to use while writing a change; README.md names the seed that
# confirms a claim on inputs that played no part in writing it.
DEV_SEED = 1


@dataclass(frozen=True)
class Workload:
    """Timed repetitions run at --jobs 1; with `pool_jobs`, the process pool too.

    At --jobs 2 the pool runs three processes, the parent pickling every task
    and two workers, and hands each task over a pipe in 64 KiB pieces; on
    a 2-core host its wall time follows the scheduler and the other tenants
    more than the program.  So it is timed in the traced run only, without a
    bound; the untraced run checks its output.
    """

    model: str
    trials_per_mode: int
    toy_trials_per_mode: int
    why: str
    pool_jobs: int = 0


WORKLOADS = {
    "loo_mlp": Workload(
        model="mlp",
        trials_per_mode=1,
        toy_trials_per_mode=1,
        why="shared MLP at --jobs 1 on 5 trials: time goes to mlp SGD steps and rng "
        "permutations, none to SVR or the process pool",
    ),
    "loo_svr": Workload(
        model="svr",
        trials_per_mode=1,
        toy_trials_per_mode=1,
        why="SMO-SVR at --jobs 1 on 5 trials, small enough that every fit converges: "
        "time goes to baselines kernel builds and SMO updates, none to mlp",
    ),
    "loo_linear": Workload(
        model="linear",
        trials_per_mode=20,
        toy_trials_per_mode=2,
        why="least squares at --jobs 1 on 100 trials: cheap fits, so data loading, filtering "
        "and scaling dominate; the --jobs 2 pool path is checked, and timed when traced",
        pool_jobs=2,
    ),
}

ALL = tuple(WORKLOADS)


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    layer: str
    moves: str
    on: tuple
    what: str


def _m(name, unit, better, moves, on, what):
    layer = name.split(".")[0] if "." in name else "end_to_end"
    return Metric(name, unit, better, layer, moves, tuple(on), what)


# Bounds of the end-to-end metrics live in BENCHMARK.json only.
END_TO_END = (
    _m("setup_s", "s", "lower", "", ALL,
       "median export_dataset time for the workload's trial directory (gaitreg synth)"),
    _m("loocv_s", "s", "lower", "", ALL,
       "median load_dataset_dir + run_loocv + emit_report time (gaitreg loocv)"),
    _m("peak_rss_mb", "MB", "lower", "", ALL,
       "median peak RSS of the workload process at --jobs 1"),
    _m("worst_mode_r2", "1", "higher", "", ALL,
       "lowest per-mode mean R^2 over the five modes and both targets"),
    _m("pooled_r2_theta", "1", "higher", "", ALL, 'report.pooled["r2"]["theta"]'),
    _m("pooled_r2_tau", "1", "higher", "", ALL, 'report.pooled["r2"]["tau"]'),
)

_MLP = ("loo_mlp",)
_SVR = ("loo_svr",)
_LIN = ("loo_linear",)
_SETUP_LOOCV = "setup_s, loocv_s"

PER_LAYER = (
    _m("mlp.train_s", "s", "lower", "loocv_s", _MLP, "time inside mlp.train"),
    _m("mlp.sgd_steps", "count", "lower", "loocv_s", _MLP, "loss_and_gradient calls"),
    _m("mlp.step_us", "us", "lower", "loocv_s", _MLP,
       "mlp self time of train per SGD step (permutations excluded)"),
    _m("mlp.step_flops", "flop", "lower", "loocv_s", _MLP,
       "computed matmul flops of one full-batch SGD step"),
    _m("mlp.forward_s", "s", "lower", "loocv_s", _MLP, "held-out forward passes"),
    _m("mlp.step_us_b16", "us", "lower", "loocv_s", _MLP,
       "probe: one batch-16 loss_and_gradient + sgd_step on default fold 0"),
    _m("mlp.self_s", "s", "lower", "loocv_s", _MLP, "mlp self time"),
    _m("rng.permutation_s", "s", "lower", "loocv_s", _MLP, "SplitMix64.permutation time"),
    _m("rng.permutation_calls", "count", "lower", "loocv_s", _MLP,
       "SplitMix64.permutation calls"),
    _m("rng.self_s", "s", "lower", "loocv_s", _MLP, "rng self time"),
    _m("baselines.svr_fit_s", "s", "lower", "loocv_s, worst_mode_r2", _SVR, "svr_fit time"),
    _m("baselines.smo_updates", "count", "lower", "loocv_s, worst_mode_r2", _SVR,
       "SMO updates summed over fits"),
    _m("baselines.update_us", "us", "lower", "loocv_s, worst_mode_r2", _SVR,
       "svr_fit self time (kernel build excluded) per SMO update"),
    _m("baselines.converged_ratio", "1", "higher", "loocv_s, worst_mode_r2", _SVR,
       "converged fits over fits"),
    _m("baselines.update_us_n4900", "us", "lower", "loocv_s, worst_mode_r2", _SVR,
       "probe: per-update svr_fit time on default fold 0 under a fixed update cap"),
    _m("baselines.kernel_s", "s", "lower", "loocv_s, peak_rss_mb", _SVR,
       "training-kernel rbf_kernel time"),
    _m("baselines.kernel_builds", "count", "lower", "loocv_s, peak_rss_mb", _SVR,
       "training-kernel builds"),
    _m("baselines.kernel_bytes", "B", "lower", "loocv_s, peak_rss_mb", _SVR,
       "computed n^2 * 8 summed over training-kernel builds"),
    _m("baselines.distinct_kernel_ratio", "1", "higher", "loocv_s, peak_rss_mb", _SVR,
       "distinct (x, gamma) over training-kernel builds"),
    _m("baselines.svr_predict_s", "s", "lower", "loocv_s", _SVR + _LIN,
       "predict_svr_baseline time"),
    _m("baselines.linear_fit_s", "s", "lower", "loocv_s", _SVR + _LIN, "linear_fit time"),
    _m("baselines.self_s", "s", "lower", "loocv_s", _SVR + _LIN, "baselines self time"),
    _m("preprocessing.trial_features_s", "s", "lower", "loocv_s", _LIN,
       "trial_features time"),
    _m("preprocessing.filter_samples", "count", "lower", "loocv_s", _LIN,
       "samples passed to lowpass_zero_phase"),
    _m("preprocessing.normalize_s", "s", "lower", "loocv_s", _LIN,
       "fit_normalization + apply_normalization time"),
    _m("preprocessing.normalize_rows", "count", "lower", "loocv_s", _LIN,
       "rows passed to fit_normalization and apply_normalization"),
    _m("preprocessing.self_s", "s", "lower", "loocv_s", _LIN, "preprocessing self time"),
    _m("data.load_s", "s", "lower", "loocv_s", _LIN, "load_dataset_dir time"),
    _m("data.rows", "count", "lower", "loocv_s", _LIN, "rows loaded"),
    _m("data.csv_bytes", "B", "lower", "loocv_s", _LIN, "trial CSV bytes loaded"),
    _m("data.self_s", "s", "lower", "loocv_s", _LIN, "data self time"),
    _m("evaluation.run_loocv_s", "s", "lower", "loocv_s", ALL, "run_loocv time"),
    _m("evaluation.self_s", "s", "lower", "loocv_s", ALL, "evaluation self time"),
    _m("evaluation.folds", "count", "lower", "loocv_s", ALL, "folds scored"),
    _m("evaluation.emit_s", "s", "lower", "loocv_s", ALL, "emit_report time"),
    # The pool path is not timed end to end (see Workload), so these move no bounded metric.
    _m("evaluation.ipc_bytes", "B", "lower", "", _LIN,
       "computed pickled (dataset, blocks, ...) payload times folds at --jobs 2; "
       "0 without a pool"),
    _m("evaluation.pool_loocv_s", "s", "lower", "", _LIN,
       "untraced --jobs 2 loocv_s; 0 without a pool"),
    _m("evaluation.pool_speedup", "1", "higher", "", _LIN,
       "untraced --jobs 1 loocv_s over --jobs 2 loocv_s; 0 without a pool"),
    _m("synth.generate_s", "s", "lower", "setup_s", ALL, "synth.generate time"),
    _m("svgplot.render_s", "s", "lower", "loocv_s", ALL,
       "band_plot_svg time, which is all of svgplot's self time"),
    _m("ioutil.write_s", "s", "lower", _SETUP_LOOCV, ALL, "atomic_write_text time"),
    _m("ioutil.bytes_written", "B", "lower", _SETUP_LOOCV, ALL, "bytes atomic_write_text wrote"),
    _m("ioutil.self_s", "s", "lower", "loocv_s", ALL, "ioutil self time"),
    _m("trace.loocv_s", "s", "lower", "loocv_s", ALL,
       "traced loocv_s at --jobs 1; the layers' self times add up to it"),
    _m("trace.overhead_s", "s", "lower", "", ALL,
       "traced minus untraced loocv_s, both at --jobs 1"),
)

# Layers whose self times partition the traced loocv_s.
LOOCV_LAYERS = ("data", "preprocessing", "mlp", "rng", "baselines", "evaluation",
                "svgplot", "ioutil")
