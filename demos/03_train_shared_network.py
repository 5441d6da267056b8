"""Train the shared network and evaluate it with leave-one-out splits.

One [6, 100, 100, 100, 2] rectifier network serves all five locomotion
modes at once: no mode classifier, no per-mode heads.  Each LOO fold
trains on every other trial and predicts the held-out one; per-trial
R^2/RMSE are averaged within modes.

This demo shrinks the dataset (3 trials per mode, 80-sample cycles) so it
finishes in under a minute; drop the overrides for the full-size run.

Run from the repository root:  python demos/03_train_shared_network.py
"""

from gaitreg import RunConfig, emit_report, generate, run_loocv

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
    }
)
dataset = generate(config.synth_config())
print(f"dataset: {len(dataset)} trials, {dataset.total_rows()} rows")
print("running leave-one-out cross-validation of the shared network ...")

report = run_loocv(dataset, "mlp", config)

print(f"\n{'mode':<14} {'R2 angle':>10} {'R2 moment':>10} {'RMSE deg':>10} {'RMSE Nm':>9}")
for mode, summary in report.modes.items():
    print(
        f"{mode:<14} {summary['r2_mean']['theta']:>10.3f} {summary['r2_mean']['tau']:>10.3f} "
        f"{summary['rmse_mean']['theta']:>10.2f} {summary['rmse_mean']['tau']:>9.2f}"
    )
print(f"\npooled over all held-out rows: R2 angle {report.pooled['r2']['theta']:.3f}, "
      f"R2 moment {report.pooled['r2']['tau']:.3f}")

paths = emit_report(report, "demos/output/mlp_report")
print(f"\nwrote {len(paths)} report files (JSON, CSV, phase-error SVGs) to demos/output/mlp_report")
print("the SVGs show per-mode |error| vs gait phase with the stance/swing divider at 60%")
