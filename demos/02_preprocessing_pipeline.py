"""Walk through the preprocessing stages feeding the regressors.

Stages: zero-phase Butterworth low-pass (order 4, 6 Hz), numerical
differentiation of the filtered hip/knee angles (velocities, then
accelerations), and min-max scaling of the six input columns to the
training range [0, 1].

Run from the repository root:  python demos/02_preprocessing_pipeline.py
"""

from math import pi, tan

import numpy as np

from gaitreg import (
    ButterworthFilter,
    SynthConfig,
    build_features,
    generate,
    spectral_energy_fraction,
)
from gaitreg.preprocessing import (
    apply_normalization,
    fit_normalization,
    trial_features,
)

FS = 200.0
filt = ButterworthFilter.design(cutoff_hz=6.0, sample_rate_hz=FS, order=4)

# The designed cascade is an exact Butterworth response along the
# pre-warped frequency axis of the bilinear transform.
print("filter magnitude response (single pass):")
print(f"{'f (Hz)':>8} {'designed':>10} {'analytic':>10}")
for freq in (1.0, 3.0, 6.0, 10.0, 20.0, 50.0):
    warped = tan(pi * freq / FS) / tan(pi * 6.0 / FS)
    analytic = (1.0 + warped**8) ** -0.5
    print(f"{freq:>8.1f} {filt.magnitude(freq):>10.6f} {analytic:>10.6f}")

# Generated kinematics are band-limited: nearly all energy sits below 6 Hz,
# which is what justifies the 6 Hz cutoff.
dataset = generate(SynthConfig())
fractions = [
    spectral_energy_fraction(t.theta_hip, t.sample_rate_hz, 6.0) for t in dataset
]
print(f"\nhip-angle energy fraction below 6 Hz: min {min(fractions):.4f} over {len(fractions)} trials")

# build_features assembles the 6-column input matrix and the 2-column targets.
inputs, targets = build_features(dataset, filt)
print(f"\nfeature matrix: {inputs.shape}, targets: {targets.shape}")
print("columns: theta_hip, dtheta_hip, ddtheta_hip, theta_knee, dtheta_knee, ddtheta_knee")
print(f"training inputs span [{inputs.min():.3f}, {inputs.max():.3f}]")

# Held-out scaling, as in every leave-one-out fold of run_loocv: fit the
# min-max range on the training trials' unnormalized features only, then
# apply it to the held-out trial, whose values may legitimately fall
# outside [0, 1] and are not clamped.
train_rows = np.concatenate([trial_features(t, filt)[0] for t in dataset.trials[1:]])
held_rows = trial_features(dataset.trials[0], filt)[0]
params = fit_normalization(train_rows)
held_scaled = apply_normalization(held_rows, params)
print(
    f"held-out trial inputs span [{held_scaled.min():.3f}, "
    f"{held_scaled.max():.3f}] under the training fold's scaling"
)
