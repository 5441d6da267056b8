"""Generate a synthetic gait dataset and look at what is in it.

The generator produces one-cycle trials of hip/knee/ankle angles plus
ankle moment for five locomotion modes.  Ankle targets are constructed
from the hip/knee states, so a regressor that sees only hip and knee
features has everything it needs to predict the ankle side.

Run from the repository root:  python demos/01_synthetic_gait_dataset.py
"""

import numpy as np

from gaitreg import SynthConfig, generate, ground_truth
from gaitreg.synth import export_dataset

config = SynthConfig()  # 10/8/8/8/7 trials per mode, 122-sample cycles, seed 20240
dataset = generate(config)

print(f"{len(dataset)} trials, {dataset.total_rows()} rows total\n")
print(f"{'mode':<14} {'trials':>6} {'hip range (deg)':>18} {'tau range (Nm)':>16}")
for mode, count in dataset.counts_by_mode().items():
    hips = np.concatenate([t.theta_hip for t in dataset if t.mode == mode])
    taus = np.concatenate([t.tau_ankle for t in dataset if t.mode == mode])
    print(
        f"{mode:<14} {count:>6} "
        f"{hips.min():>8.1f}..{hips.max():<8.1f} "
        f"{taus.min():>7.1f}..{taus.max():<7.1f}"
    )

# Trials jitter in duration (speed) while always spanning one closed cycle.
lengths = sorted({t.n_samples for t in dataset})
print(f"\nper-trial sample counts: {lengths}")

# Stored angles carry measurement noise; the analytic ground truth does not.
trial = dataset.trials[0]
clean_theta, clean_tau = ground_truth(trial.trial_id, config)
noise = trial.theta_ankle - clean_theta
print(f"\n{trial.trial_id}: measured-vs-truth ankle angle noise std = {noise.std():.3f} deg")
swing = np.linspace(0.0, 1.0, trial.n_samples) > 0.6
print(f"moment during swing is exactly zero: {bool(np.all(clean_tau[swing] == 0.0))}")

# The same dataset can be written out as one CSV per trial; export_dataset
# returns the manifest (the CLI's synth also saves it as manifest.json).
manifest = export_dataset(config, "demos/output/trials")
print(f"\nwrote {len(manifest['trial_ids'])} trial CSVs to demos/output/trials")
