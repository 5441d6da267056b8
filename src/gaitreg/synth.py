"""Deterministic synthetic gait generator.

Hip and knee angles are truncated Fourier series (3 harmonics) over gait
phase phi in [0, 1], sampled on a closed cycle (first and last sample both
at heel contact), with per-mode coefficient tables so the five modes are
genuinely different tasks.  Ankle targets are constructed from the hip and
knee states, which makes "ankle is predictable from hip/knee" true by
construction:

    theta_ankle = g_mode(theta_hip, theta_knee, dtheta_hip, dtheta_knee)
    tau_ankle   = stance_window(phi) * h_mode(same states)

g and h are fixed smooth maps (linear + product + sinusoid terms, scaled
per mode; tables below); stance_window ramps smoothly to zero before 60%
phase, so the moment is exactly zero in swing.  Per-trial duration and
amplitude jitter plus measurement noise come from the splitmix64 streams
in gaitreg.rng, seeded only from (seed, mode, trial index).

In linear_mode both targets are instead one global affine function of the
six pipeline features (filtered angles and their numerical derivatives,
default filter: order 4, 6 Hz cutoff), so an exact least-squares fit can
recover them to machine precision on noise-free data.  generate builds
every noise-free trial first and reads their features from one
feature_rows pass, the pipeline's own, which designs that filter for the
synthetic sample rate; ground_truth runs the same map on its one trial,
with the same bits.  The noise is drawn after the targets and added to
the three angle columns only, so the moment's swing zeros keep their sign.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from math import pi
from pathlib import Path
import numpy as np

from .data import MIN_TRIAL_SAMPLES, MODES, GaitDataset, GaitTrial, write_trial_csv
from .errors import ConfigError, PipelineError
from .ioutil import refuse_non_directory
from .preprocessing import DEFAULT_CUTOFF_HZ, DEFAULT_FILTER_ORDER, feature_rows
from .rng import SplitMix64, derive_seed

SYNTH_SAMPLE_RATE_HZ = 200.0

# fractional per-trial jitter of the harmonic amplitudes (a/b coefficients)
AMPLITUDE_JITTER = 0.04

DEFAULT_TRIALS_PER_MODE = {
    "NormalWalk": 10,
    "StairAscent": 8,
    "StairDescent": 8,
    "SlopeAscent": 8,
    "SlopeDescent": 7,
}

# Fourier tables, degrees: (a0, (a1, a2, a3), (b1, b2, b3)) with
# theta(phi) = a0 + sum_k a_k cos(2 pi k phi) + b_k sin(2 pi k phi).
HIP_SHAPES = {
    "NormalWalk": (8.0, (22.0, 3.0, 1.2), (6.0, -2.0, 0.8)),
    "StairAscent": (20.0, (26.0, 5.0, 1.5), (2.0, -3.5, 1.0)),
    "StairDescent": (-2.0, (14.0, 4.5, 0.8), (9.0, 1.5, 1.2)),
    "SlopeAscent": (14.0, (24.0, 4.0, 1.0), (5.0, -2.5, 0.6)),
    "SlopeDescent": (3.0, (15.0, 2.5, 0.9), (7.0, -1.0, 1.1)),
}

KNEE_SHAPES = {
    "NormalWalk": (28.0, (-18.0, 9.0, 2.0), (14.0, 5.0, -1.5)),
    "StairAscent": (42.0, (-26.0, 7.0, 2.5), (18.0, 2.5, -2.0)),
    "StairDescent": (36.0, (-28.0, 12.0, 3.0), (4.0, 7.0, -2.5)),
    "SlopeAscent": (32.0, (-21.0, 8.0, 1.8), (16.0, 4.0, -1.0)),
    "SlopeDescent": (24.0, (-15.0, 11.0, 2.2), (9.0, 6.0, -1.8)),
}

# Ankle-angle map g, degrees:
#   g = c0 + c1*uh + c2*uk + c3*vh + c4*vk + c5*uh*uk + c6*sin(1.7*uh - 1.1*uk + c7)
# with dimensionless states uh = theta_hip/30, uk = theta_knee/40,
# vh = dtheta_hip/300, vk = dtheta_knee/400.
ANKLE_COEF = {
    "NormalWalk": (-3.0, 6.0, -5.0, 2.5, -2.0, 3.5, 4.0, 0.3),
    "StairAscent": (-2.5, 6.6, -5.5, 2.2, -2.2, 3.8, 4.4, 0.8),
    "StairDescent": (-3.6, 5.4, -4.5, 2.8, -1.8, 3.2, 3.6, -0.2),
    "SlopeAscent": (-2.8, 6.3, -5.2, 2.4, -2.1, 3.6, 4.2, 0.5),
    "SlopeDescent": (-3.3, 5.7, -4.8, 2.6, -1.9, 3.3, 3.8, 0.0),
}

# Moment map h, newton-meters (before the stance window):
#   h = d0 + d1*uh + d2*uk + d3*vh + d4*vk + d5*uh*uk + d6*sin(1.3*uk + 0.9*uh + d7)
TAU_COEF = {
    "NormalWalk": (-20.0, -10.0, 7.0, -4.0, 3.0, -6.0, 8.0, 0.4),
    "StairAscent": (-22.0, -11.0, 7.7, -3.6, 3.3, -6.6, 8.8, 0.9),
    "StairDescent": (-18.0, -9.0, 6.3, -4.4, 2.7, -5.4, 7.2, -0.1),
    "SlopeAscent": (-21.0, -10.5, 7.4, -3.8, 3.2, -6.3, 8.4, 0.6),
    "SlopeDescent": (-19.0, -9.5, 6.6, -4.2, 2.9, -5.7, 7.6, 0.1),
}

# linear_mode global affine map on the UNnormalized pipeline features
# [theta_hip, dtheta_hip, ddtheta_hip, theta_knee, dtheta_knee, ddtheta_knee]
LINEAR_WEIGHTS = np.array(
    [
        [0.30, 0.020, 0.0010, -0.25, -0.015, 0.0008],
        [-0.50, -0.030, -0.0020, 0.35, 0.020, -0.0010],
    ]
)
LINEAR_INTERCEPT = np.array([-3.0, -8.0])

# stance window: 1 until 45% phase, cosine ramp down, exactly 0 from 60%
STANCE_END = 0.6
RAMP_START = 0.45


@dataclass(frozen=True)
class SynthConfig:
    """Knobs of the generator; everything else is fixed by the tables above."""

    seed: int = 20240
    trials_per_mode: dict[str, int] = field(default_factory=DEFAULT_TRIALS_PER_MODE.copy)
    samples_per_trial: int = 122
    noise_std_deg: float = 0.25
    speed_jitter: float = 0.05
    linear_mode: bool = False

    def __post_init__(self):
        counts = dict(self.trials_per_mode)
        for name, count in counts.items():
            if name not in MODES:
                raise ConfigError(f"trials_per_mode key {name!r} is not a locomotion mode name")
            if count < 1:
                raise ConfigError(f"trials_per_mode[{name}] must be >= 1, got {count}")
        object.__setattr__(self, "trials_per_mode", counts)
        if self.samples_per_trial < MIN_TRIAL_SAMPLES:
            raise ConfigError(
                f"samples_per_trial must be >= {MIN_TRIAL_SAMPLES}, got {self.samples_per_trial}"
            )
        if self.noise_std_deg < 0.0:
            raise ConfigError(f"noise_std_deg must be >= 0, got {self.noise_std_deg}")
        if not 0.0 <= self.speed_jitter < 0.5:
            raise ConfigError(f"speed_jitter must be in [0, 0.5), got {self.speed_jitter}")


def _series(phi: np.ndarray, shape, scale: float) -> tuple[np.ndarray, np.ndarray]:
    """A Fourier table's series with scaled harmonic amplitudes, and its phi-derivative."""
    a0, a, b = shape
    value = np.full_like(phi, a0)
    slope = np.zeros_like(phi)
    for k in range(1, 4):
        ak, bk = scale * a[k - 1], scale * b[k - 1]
        w = 2.0 * pi * k * phi
        cos_w, sin_w = np.cos(w), np.sin(w)
        value += ak * cos_w + bk * sin_w
        slope += 2.0 * pi * k * (-ak * sin_w + bk * cos_w)
    return value, slope


def stance_window(phi: np.ndarray) -> np.ndarray:
    """Smooth 1 -> 0 ramp over phase: 1 below 45%, exactly 0 from 60%."""
    phi = np.asarray(phi, dtype=np.float64)
    ramp = 0.5 * (1.0 + np.cos(pi * (phi - RAMP_START) / (STANCE_END - RAMP_START)))
    out = np.where(phi <= RAMP_START, 1.0, np.where(phi >= STANCE_END, 0.0, ramp))
    return out


def _state_map(c, uh, uk, vh, vk, w_hip, w_knee):
    """c0 + c1*uh + c2*uk + c3*vh + c4*vk + c5*uh*uk + c6*sin(w_hip*uh + w_knee*uk + c7)."""
    return (
        c[0]
        + c[1] * uh
        + c[2] * uk
        + c[3] * vh
        + c[4] * vk
        + c[5] * uh * uk
        + c[6] * np.sin(w_hip * uh + w_knee * uk + c[7])
    )


def _trial(config: SynthConfig, mode: str, index: int) -> tuple[GaitTrial, SplitMix64]:
    """One trial before noise, with the analytic targets, and its stream.

    Draw order per trial: duration, hip amplitude, knee amplitude, then the
    noise, which the caller draws from the returned stream.
    """
    stream = SplitMix64(derive_seed(config.seed, MODES.index(mode), index))
    u_dur, u_hip, u_knee = stream.uniform_block(3)
    n = int(round(config.samples_per_trial * (1.0 + config.speed_jitter * (2.0 * u_dur - 1.0))))
    n = max(MIN_TRIAL_SAMPLES, n)
    phi = np.linspace(0.0, 1.0, n)
    duration = (n - 1) / SYNTH_SAMPLE_RATE_HZ
    hip, hip_slope = _series(phi, HIP_SHAPES[mode], 1.0 + AMPLITUDE_JITTER * (2.0 * u_hip - 1.0))
    knee, knee_slope = _series(
        phi, KNEE_SHAPES[mode], 1.0 + AMPLITUDE_JITTER * (2.0 * u_knee - 1.0)
    )
    hip_vel, knee_vel = hip_slope / duration, knee_slope / duration
    states = (hip / 30.0, knee / 40.0, hip_vel / 300.0, knee_vel / 400.0)
    theta_ankle = _state_map(ANKLE_COEF[mode], *states, 1.7, -1.1)
    tau_ankle = stance_window(phi) * _state_map(TAU_COEF[mode], *states, 0.9, 1.3)
    samples = np.column_stack((hip, knee, theta_ankle, tau_ankle))
    return GaitTrial(f"{mode}_{index:02d}", mode, SYNTH_SAMPLE_RATE_HZ, samples), stream


def _linear_targets(trials: list[GaitTrial]) -> list[GaitTrial]:
    """The trials with both targets replaced by the linear_mode map of their feature_rows."""
    inputs, _, bounds = feature_rows(
        trials, DEFAULT_CUTOFF_HZ, DEFAULT_FILTER_ORDER, filter_targets=False
    )
    mapped = []
    for trial, start, end in zip(trials, bounds, bounds[1:]):
        samples = trial.samples.copy()
        samples[:, 2:] = inputs[start:end] @ LINEAR_WEIGHTS.T + LINEAR_INTERCEPT
        mapped.append(replace(trial, samples=samples))
    return mapped


def generate(config: SynthConfig) -> GaitDataset:
    """Generate the full dataset; identical config gives identical output."""
    counts = config.trials_per_mode
    drawn = [_trial(config, mode, i) for mode in MODES for i in range(counts.get(mode, 0))]
    trials = [trial for trial, _ in drawn]
    if config.linear_mode:
        trials = _linear_targets(trials)
    if config.noise_std_deg > 0.0:
        for i, (trial, (_, stream)) in enumerate(zip(trials, drawn)):
            noise = stream.normal_block(3 * trial.n_samples, 0.0, config.noise_std_deg)
            samples = trial.samples.copy()
            samples[:, :3] += noise.reshape(3, -1).T
            trials[i] = replace(trial, samples=samples)
    return GaitDataset(tuple(trials))


def ground_truth(trial_id: str, config: SynthConfig) -> tuple[np.ndarray, np.ndarray]:
    """Noise-free (theta_ankle, tau_ankle) of a generated trial, as generate builds them."""
    mode, _, idx_str = trial_id.rpartition("_")
    if mode not in MODES or not idx_str.isdecimal():
        raise PipelineError(f"unknown trial_id {trial_id!r}")
    index = int(idx_str)
    count = config.trials_per_mode.get(mode, 0)
    if index >= count:
        raise PipelineError(
            f"trial_id {trial_id!r} not produced by this config ({count} trials for {mode})"
        )
    trial, _ = _trial(config, mode, index)
    if config.linear_mode:
        [trial] = _linear_targets([trial])
    return trial.theta_ankle, trial.tau_ankle


def export_dataset(config: SynthConfig, out_dir: str | Path) -> dict:
    """Write one CSV per trial and return the manifest (the CLI saves it as manifest.json).

    A *.csv in out_dir that this config does not produce would load as one
    more trial, so it is a ConfigError, raised before anything is written.
    So is an out_dir that is not a directory, raised before generating.
    """
    out_dir = Path(out_dir)
    refuse_non_directory(out_dir)
    dataset = generate(config)
    stale = sorted(p.name for p in out_dir.glob("*.csv") if p.stem not in dataset.trial_ids)
    if stale:
        raise ConfigError(f"{out_dir} holds {len(stale)} CSV(s) of other trials, e.g. {stale[0]}")
    for trial in dataset:
        write_trial_csv(trial, out_dir / f"{trial.trial_id}.csv")
    manifest = {
        "seed": config.seed,
        "trial_ids": list(dataset.trial_ids),
        "modes": [t.mode for t in dataset],
        "total_rows": dataset.total_rows(),
    }
    return manifest
