"""Signal preprocessing: low-pass filtering, differentiation, scaling.

The input vector fed to every regressor is, per time step,

    [theta_hip, dtheta_hip, ddtheta_hip, theta_knee, dtheta_knee, ddtheta_knee]

built by low-pass filtering the measured angles, differentiating the
filtered hip/knee angles twice, and min-max scaling each column to the
training fold's [0, 1] range.  Targets stay in degrees and newton-meters.

All zero-phase filtering goes through one batched core: every signal that
shares a sample rate is reflect-padded into a column of one matrix, and
the recurrence steps down all columns a row at a time, so a whole dataset
costs one Python-level loop per pass instead of one per signal, with the
same bits as filtering each signal alone.  feature_blocks builds every
trial's unscaled blocks this way; run_loocv then fits each fold's min-max
scaling from the trials' own column extrema, which is exact because min
and max are.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from math import cos, pi, sin, tan
from typing import Iterable

import numpy as np

from .data import GaitDataset, GaitTrial
from .errors import ConfigError, PreprocessError

FEATURE_NAMES = (
    "theta_hip",
    "dtheta_hip",
    "ddtheta_hip",
    "theta_knee",
    "dtheta_knee",
    "ddtheta_knee",
)


@dataclass(frozen=True)
class ButterworthFilter:
    """Low-pass Butterworth cascade of second-order sections.

    Sections are (b0, b1, b2, a1, a2) with a0 normalized to 1, derived by
    the bilinear transform with the cutoff pre-warped so the -3 dB point
    lands exactly on cutoff_hz.  Odd orders append one first-order section
    (b2 = a2 = 0).
    """

    order: int
    cutoff_hz: float
    sample_rate_hz: float
    sections: tuple[tuple[float, float, float, float, float], ...]

    @classmethod
    def design(
        cls, cutoff_hz: float = 6.0, sample_rate_hz: float = 200.0, order: int = 4
    ) -> "ButterworthFilter":
        if order < 1:
            raise ConfigError(f"filter order must be >= 1, got {order}")
        if not 0.0 < cutoff_hz < sample_rate_hz / 2.0:
            raise ConfigError(
                f"cutoff {cutoff_hz} Hz must lie in (0, {sample_rate_hz / 2.0}) "
                f"for sample rate {sample_rate_hz} Hz"
            )
        fs = float(sample_rate_hz)
        wc = 2.0 * fs * tan(pi * cutoff_hz / fs)  # pre-warped analog cutoff, rad/s
        k = 2.0 * fs
        sections = []
        for m in range(order // 2):
            # conjugate analog pole pair: s^2 + a1a*s + wc^2, a1a = 2*wc*sin(phi)
            phi = (2 * m + 1) * pi / (2 * order)
            a1a = 2.0 * wc * sin(phi)
            den0 = k * k + a1a * k + wc * wc
            sections.append(
                (
                    wc * wc / den0,
                    2.0 * wc * wc / den0,
                    wc * wc / den0,
                    (2.0 * wc * wc - 2.0 * k * k) / den0,
                    (k * k - a1a * k + wc * wc) / den0,
                )
            )
        if order % 2:
            den0 = k + wc
            sections.append((wc / den0, wc / den0, 0.0, (wc - k) / den0, 0.0))
        filt = cls(order, float(cutoff_hz), fs, tuple(sections))
        filt._validate()
        return filt

    def _validate(self):
        for i, (b0, b1, b2, a1, a2) in enumerate(self.sections):
            poles = np.roots([1.0, a1, a2])
            if np.any(np.abs(poles) >= 1.0):
                raise ConfigError(f"section {i} is unstable: pole magnitudes {np.abs(poles)}")
        dc = self.magnitude(0.0)
        if abs(dc - 1.0) > 1e-9:
            raise ConfigError(f"cascade DC gain {dc} deviates from 1")

    def with_sample_rate(self, sample_rate_hz: float) -> "ButterworthFilter":
        if sample_rate_hz == self.sample_rate_hz:
            return self
        return ButterworthFilter.design(self.cutoff_hz, sample_rate_hz, self.order)

    def magnitude(self, freq_hz: float) -> float:
        """Single-pass |H| of the cascade at a digital frequency."""
        w = 2.0 * pi * freq_hz / self.sample_rate_hz
        z = complex(cos(w), -sin(w))  # z^-1 on the unit circle
        h = 1.0 + 0.0j
        for b0, b1, b2, a1, a2 in self.sections:
            h *= (b0 + b1 * z + b2 * z * z) / (1.0 + a1 * z + a2 * z * z)
        return abs(h)


def _sosfilt_rows(sections, x: np.ndarray) -> np.ndarray:
    """Apply the cascade causally down every column (direct form II transposed).

    Each section starts every column in its step-response steady state for
    the column's first sample, so a constant signal passes through exactly
    unchanged.  Row i is one time step of all columns at once; each column
    sees the same scalar arithmetic, in the same order, as a one-signal loop.
    """
    y = x
    for b0, b1, b2, a1, a2 in sections:
        gain = (b0 + b1 + b2) / (1.0 + a1 + a2)
        s1 = (gain - b0) * y[0]
        s2 = (b2 - a2 * gain) * y[0]
        out = np.empty_like(y)
        for xi, yi in zip(y, out):
            np.multiply(b0, xi, out=yi)
            yi += s1
            s1 = b1 * xi - a1 * yi + s2
            s2 = b2 * xi - a2 * yi
        y = out
    return y


def _zero_phase(signals, filt: ButterworthFilter) -> list[np.ndarray]:
    """lowpass_zero_phase of every signal, in one batched pass per direction.

    The reflect-padded signals become the columns of one left-aligned
    (L, m) matrix with zero-filled tails.  The backward pass reverses each
    column's own valid prefix with a gather, filters, and gathers back.
    Rows past a column's length carry junk that is never read.
    """
    pad = 3 * filt.order
    padded = []
    for signal in signals:
        x = np.asarray(signal, dtype=np.float64)
        if x.ndim != 1 or len(x) < pad:
            raise PreprocessError(
                f"signal of length {len(x)} too short to filter; need >= {pad} (3 x order)"
            )
        padded.append(np.concatenate([x[pad - 1 :: -1], x, x[-1 : -pad - 1 : -1]]))
    lens = np.array([len(p) for p in padded])
    y = np.zeros((lens.max(), len(padded)))
    for col, p in enumerate(padded):
        y[: len(p), col] = p
    rows = np.arange(len(y))[:, None]
    cols = np.arange(len(padded))
    rev = np.where(rows < lens, lens - 1 - rows, rows)
    y = _sosfilt_rows(filt.sections, y)
    y = _sosfilt_rows(filt.sections, y[rev, cols])[rev, cols].T.copy()
    return [y[col, pad : n - pad] for col, n in enumerate(lens)]


def lowpass_zero_phase(signal: np.ndarray, filt: ButterworthFilter) -> np.ndarray:
    """Zero-phase low-pass: pad, filter forward, reverse, filter, reverse, trim.

    Edges are handled by reflection (edge sample included) of length
    3 * order on each side, removed after the two passes.
    """
    return _zero_phase([signal], filt)[0]


def differentiate(signal: np.ndarray, dt: float) -> np.ndarray:
    """Central differences inside, one-sided first-order at the two ends."""
    x = np.asarray(signal, dtype=np.float64)
    if len(x) < 3:
        raise PreprocessError(f"need at least 3 samples to differentiate, got {len(x)}")
    if not dt > 0.0:
        raise PreprocessError(f"dt must be positive, got {dt}")
    return np.gradient(x, dt, edge_order=1)


@dataclass(frozen=True)
class NormalizationParams:
    """Per-column min/max fitted on training rows only."""

    mins: np.ndarray
    maxs: np.ndarray

    def __post_init__(self):
        mins = np.asarray(self.mins, dtype=np.float64)
        maxs = np.asarray(self.maxs, dtype=np.float64)
        if mins.shape != maxs.shape or mins.ndim != 1:
            raise ConfigError("mins and maxs must be 1-D arrays of equal length")
        if np.any(maxs < mins):
            raise ConfigError("max < min in normalization parameters")
        object.__setattr__(self, "mins", mins)
        object.__setattr__(self, "maxs", maxs)

    @property
    def degenerate(self) -> np.ndarray:
        """Mask of constant (zero-range) columns."""
        return self.maxs == self.mins


def fit_normalization(rows: np.ndarray) -> NormalizationParams:
    rows = np.asarray(rows, dtype=np.float64)
    if rows.ndim != 2 or rows.shape[0] < 2:
        raise PreprocessError(f"need a 2-D matrix with >= 2 rows, got shape {rows.shape}")
    return NormalizationParams(rows.min(axis=0), rows.max(axis=0))


def apply_normalization(rows: np.ndarray, params: NormalizationParams) -> np.ndarray:
    """(x - min) / (max - min) per column; out-of-range values are NOT clamped.

    Degenerate (constant) columns map to 0.0 everywhere.
    """
    rows = np.asarray(rows, dtype=np.float64)
    if rows.ndim != 2 or rows.shape[1] != len(params.mins):
        raise PreprocessError(
            f"expected shape (n, {len(params.mins)}), got {rows.shape}"
        )
    span = params.maxs - params.mins
    safe = np.where(params.degenerate, 1.0, span)
    out = (rows - params.mins) / safe
    out[:, params.degenerate] = 0.0
    return out


def spectral_energy_fraction(
    signal: np.ndarray, sample_rate_hz: float, threshold_hz: float
) -> float:
    """Fraction of squared DFT magnitude at (folded) frequencies <= threshold.

    The mean is removed first.  The transform is a direct O(n^2) DFT; the
    sequences here are a few hundred samples, so clarity wins over an FFT.
    """
    x = np.asarray(signal, dtype=np.float64)
    if len(x) < 8:
        raise PreprocessError(f"need at least 8 samples, got {len(x)}")
    nyquist = sample_rate_hz / 2.0
    if threshold_hz > nyquist:
        warnings.warn(
            f"threshold {threshold_hz} Hz above Nyquist {nyquist} Hz; returning 1.0",
            stacklevel=2,
        )
        return 1.0
    x = x - x.mean()
    n = len(x)
    k = np.arange(n)
    dft = np.exp(-2j * np.pi * np.outer(k, k) / n) @ x
    power = np.abs(dft) ** 2
    folded_hz = np.minimum(k, n - k) * (sample_rate_hz / n)
    total = power.sum()
    if total == 0.0:
        return 1.0
    return float(power[folded_hz <= threshold_hz].sum() / total)


@dataclass(frozen=True)
class FeatureDataset:
    """Row-per-timestep features and targets, trials stacked in dataset order.

    inputs:   (n, 6) feature matrix, min-max scaled over these rows
    targets:  (n, 2) [theta_ankle_deg, tau_ankle_Nm], never normalized
    """

    inputs: np.ndarray
    targets: np.ndarray

    @property
    def n_rows(self) -> int:
        return self.inputs.shape[0]


def _input_columns(hip: np.ndarray, knee: np.ndarray, dt: float) -> np.ndarray:
    """The (n, 6) unnormalized input columns from the filtered angles."""
    hip_v = differentiate(hip, dt)
    hip_a = differentiate(hip_v, dt)
    knee_v = differentiate(knee, dt)
    knee_a = differentiate(knee_v, dt)
    return np.column_stack([hip, hip_v, hip_a, knee, knee_v, knee_a])


def input_features(
    theta_hip: np.ndarray,
    theta_knee: np.ndarray,
    filt: ButterworthFilter,
    sample_rate_hz: float,
) -> np.ndarray:
    """The (n, 6) unnormalized input columns, in FEATURE_NAMES order.

    filt must already be designed for sample_rate_hz.
    """
    hip, knee = _zero_phase([theta_hip, theta_knee], filt)
    return _input_columns(hip, knee, 1.0 / sample_rate_hz)


def feature_blocks(
    trials: Iterable[GaitTrial], filt: ButterworthFilter, filter_targets: bool = True
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Unnormalized (inputs, targets) per trial, in the order given.

    Trials sharing a sample rate are filtered together in one batched
    zero-phase pass, with filt redesigned once per rate.
    """
    trials = list(trials)
    by_rate: dict[float, list[int]] = {}
    for i, trial in enumerate(trials):
        by_rate.setdefault(trial.sample_rate_hz, []).append(i)
    width = 4 if filter_targets else 2
    blocks: list = [None] * len(trials)
    for rate, members in by_rate.items():
        signals = []
        for i in members:
            t = trials[i]
            signals += [t.theta_hip, t.theta_knee, t.theta_ankle, t.tau_ankle][:width]
        filtered = iter(_zero_phase(signals, filt.with_sample_rate(rate)))
        for i in members:
            inputs = _input_columns(next(filtered), next(filtered), 1.0 / rate)
            if filter_targets:
                targets = np.column_stack([next(filtered), next(filtered)])
            else:
                targets = np.column_stack([trials[i].theta_ankle, trials[i].tau_ankle])
            blocks[i] = (inputs, targets)
    return blocks


def trial_features(
    trial: GaitTrial, filt: ButterworthFilter, filter_targets: bool = True
) -> tuple[np.ndarray, np.ndarray]:
    """Unnormalized (inputs, targets) for a single trial."""
    return feature_blocks([trial], filt, filter_targets)[0]


def build_features(
    dataset: GaitDataset, filt: ButterworthFilter, filter_targets: bool = True
) -> FeatureDataset:
    """Stack every trial's feature_blocks rows into one matrix scaled over them.

    run_loocv works on the per-trial blocks directly and fits the scaling
    per fold; this whole-dataset view serves library callers and demos.
    """
    blocks = feature_blocks(dataset, filt, filter_targets)
    inputs = np.concatenate([b[0] for b in blocks])
    return FeatureDataset(
        inputs=apply_normalization(inputs, fit_normalization(inputs)),
        targets=np.concatenate([b[1] for b in blocks]),
    )
