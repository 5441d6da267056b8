"""One measured process of the benchmark; run.py starts it, never a user.

    worker.py setup  --seed S --trials-per-mode N --out DIR
    worker.py loocv  --seed S --trials-per-mode N --model M --jobs J --data DIR --out DIR
                     [--setup-out DIR --setup-seconds T]
    worker.py traced --seed S --trials-per-mode N --model M --ipc-jobs J --data DIR --out DIR
                     --spans FILE
    worker.py probes --seed S --trials-per-mode N [--toy]

Each prints one JSON object on stdout.  gaitreg is imported from the
``src`` directory that run.py puts on PYTHONPATH.
"""

from __future__ import annotations

import argparse
import json
import os
import pickle
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import numpy as np  # noqa: E402

import gaitreg  # noqa: E402
from gaitreg import baselines, data, evaluation, mlp, synth  # noqa: E402
from gaitreg.config import RunConfig  # noqa: E402
from gaitreg.preprocessing import (  # noqa: E402
    ButterworthFilter,
    apply_normalization,
    fit_normalization,
    trial_features,
)
from spec import MODES  # noqa: E402
from tracer import ROOT_LOOCV, ROOT_SETUP, Tracer, installed  # noqa: E402

# Update caps of the default-scale SMO probe: both stop at their cap on
# default fold 0, so the difference of the two loop times is pure updates.
PROBE_CAPS = (500, 4500)
PROBE_STEP_BLOCKS = 15
PROBE_STEP_BLOCK = 100


def _config(args) -> RunConfig:
    """The default RunConfig except for the seed and the dataset size."""
    return RunConfig(seed=args.seed, trials_per_mode={m: args.trials_per_mode for m in MODES})


def _environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "gaitreg": gaitreg.__file__,
    }


def _peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    workers = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + workers) / 1024.0


def _setups(config: RunConfig, out_root: str, seconds: float) -> list:
    """Times of export_dataset into fresh directories 0, 1, ... for at least `seconds`."""
    times = []
    while not times or sum(times) < seconds:
        start = time.perf_counter()
        synth.export_dataset(config.synth_config(), Path(out_root) / str(len(times)))
        times.append(time.perf_counter() - start)
    return times


def cmd_setup(args) -> dict:
    _setups(_config(args), args.out, 0.0)
    return {"env": _environment()}


def _loocv(args, config, jobs):
    dataset = data.load_dataset_dir(args.data)
    report = evaluation.run_loocv(dataset, args.model, config, jobs=jobs)
    evaluation.emit_report(report, args.out)
    return dataset, report


def cmd_loocv(args) -> dict:
    """One timed loocv; then, if asked, set-up samples, after the peak RSS is read.

    Taking set-up samples in every repetition spreads them over the whole run,
    so that a few seconds of a slower machine do not decide setup_s.
    """
    config = _config(args)
    start = time.perf_counter()
    _loocv(args, config, args.jobs)
    result = {"loocv_s": time.perf_counter() - start, "peak_rss_mb": _peak_rss_mb()}
    if args.setup_out:
        result["setup_s"] = _setups(config, args.setup_out, args.setup_seconds)
    return result


def _step_flops(config: RunConfig) -> int:
    """Matmul flops of one full-batch step: forward, weight grads, back-propagated deltas."""
    dims = config.layer_dims
    pairs = [a * b for a, b in zip(dims[:-1], dims[1:])]
    return 2 * config.batch_size * (2 * sum(pairs) + sum(pairs[1:]))


def cmd_traced(args) -> dict:
    """Set up and run the workload once at --jobs 1 with every layer traced."""
    config = _config(args)
    tracer = Tracer()
    with installed(tracer):
        with tracer.root(ROOT_SETUP):
            synth.export_dataset(config.synth_config(), args.data)
        with tracer.root(ROOT_LOOCV):
            dataset, report = _loocv(args, config, 1)
    ipc_bytes = 0
    if args.ipc_jobs > 1:
        # what run_loocv hands each pool task: the dataset plus every trial's blocks
        filt = ButterworthFilter.design(
            config.cutoff_hz, dataset.trials[0].sample_rate_hz, config.filter_order
        )
        blocks = [trial_features(t, filt, config.filter_targets) for t in dataset]
        svr_params = (config.svr_c, config.svr_epsilon, config.svr_gamma)
        payload = (dataset, blocks, None, args.model, config, svr_params)
        ipc_bytes = len(pickle.dumps(payload)) * len(report.folds)
    tracer.dump(args.spans, {"step_flops": _step_flops(config), "ipc_bytes": ipc_bytes})
    return {"spans": args.spans}


def _fold0(config: RunConfig):
    """Normalized inputs and targets of fold 0's training trials."""
    dataset = synth.generate(config.synth_config())
    filt = ButterworthFilter.design(
        config.cutoff_hz, dataset.trials[0].sample_rate_hz, config.filter_order
    )
    blocks = [trial_features(t, filt, config.filter_targets) for t in dataset.trials[1:]]
    x_raw = np.concatenate([b[0] for b in blocks])
    y = np.concatenate([b[1] for b in blocks])
    return apply_normalization(x_raw, fit_normalization(x_raw)), y


def _smo_loop_s(x, y, config, cap) -> tuple[float, int]:
    """svr_fit wall time minus its kernel build, and the updates it made."""
    kernel_s = []
    build = baselines.rbf_kernel

    def timed(*a, **k):
        start = time.perf_counter()
        out = build(*a, **k)
        kernel_s.append(time.perf_counter() - start)
        return out

    baselines.rbf_kernel = timed
    try:
        start = time.perf_counter()
        model = baselines.svr_fit(
            x, y, config.svr_c, config.svr_epsilon, config.svr_gamma, config.svr_tol, cap
        )
        elapsed = time.perf_counter() - start
    finally:
        baselines.rbf_kernel = build
    return elapsed - sum(kernel_s), model.n_updates


def cmd_probes(args) -> dict:
    """Default-scale inner-loop probes; --toy uses the workload's own size."""
    config = _config(args) if args.toy else RunConfig(seed=args.seed)
    x, y = _fold0(config)
    y0 = (y[:, 0] - y[:, 0].mean()) / y[:, 0].std()
    (lo_s, lo_n), (hi_s, hi_n) = (_smo_loop_s(x, y0, config, cap) for cap in PROBE_CAPS)
    if hi_n <= lo_n:
        raise RuntimeError(f"SMO probe made no extra updates ({lo_n} -> {hi_n})")
    update_us = (hi_s - lo_s) / (hi_n - lo_n) * 1e6

    model = mlp.init(config.layer_dims, config.init_seed)
    state = mlp.OptimizerState.zeros_like(model)
    tcfg = config.train_config()
    xb, yb = x[:16], y[:16]
    per_step = []
    for block in range(PROBE_STEP_BLOCKS + 1):
        start = time.perf_counter()
        for _ in range(PROBE_STEP_BLOCK):
            _, grads = mlp.loss_and_gradient(model, xb, yb, tcfg.l2_penalty)
            mlp.sgd_step(model, state, grads, tcfg)
        if block:  # the first block warms up
            per_step.append((time.perf_counter() - start) / PROBE_STEP_BLOCK)
    return {
        "baselines.update_us_n4900": update_us,
        "probe_rows": int(x.shape[0]),
        "probe_updates": [lo_n, hi_n],
        "mlp.step_us_b16": statistics.median(per_step) * 1e6,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="worker.py")
    parser.add_argument("command", choices=("setup", "loocv", "traced", "probes"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trials-per-mode", type=int, required=True)
    parser.add_argument("--model")
    parser.add_argument("--jobs", type=int, default=1)
    parser.add_argument("--ipc-jobs", type=int, default=1)
    parser.add_argument("--data")
    parser.add_argument("--out")
    parser.add_argument("--spans")
    parser.add_argument("--setup-out")
    parser.add_argument("--setup-seconds", type=float, default=0.0)
    parser.add_argument("--toy", action="store_true")
    args = parser.parse_args(argv)
    command = {"setup": cmd_setup, "loocv": cmd_loocv, "traced": cmd_traced,
               "probes": cmd_probes}[args.command]
    print(json.dumps(command(args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
