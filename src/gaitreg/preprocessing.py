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
same bits as filtering each signal alone.  feature_rows builds every
trial's unscaled rows this way into one stack and differentiates the
filtered angles of all trials in one pass over it (np.gradient's central
differences, one-sided at each trial's ends).  It is the one place input
rows are built: run_loocv, trial_features, build_features and synth's
linear_mode targets all read it.  run_loocv then fits each fold's min-max
scaling from the trials' own column extrema, which is exact because min
and max are.
"""

from __future__ import annotations

import cmath
import warnings
from dataclasses import dataclass
from math import cos, pi, sin, tan
from typing import Iterable

import numpy as np

from .data import GaitDataset, GaitTrial
from .errors import ConfigError, PreprocessError

# the run's default low-pass filter; synth's linear_mode targets use it too
DEFAULT_CUTOFF_HZ = 6.0
DEFAULT_FILTER_ORDER = 4


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
    def design(cls, cutoff_hz: float, sample_rate_hz: float, order: int) -> "ButterworthFilter":
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
        """Raise ConfigError unless every section is stable and the DC gain is 1.

        A section's poles are the roots of z^2 + a1 z + a2, and a real
        quadratic has both roots strictly inside the unit circle iff
        |a2| < 1 and |a1| < 1 + a2 (Jury, Theory and Application of the
        z-Transform Method, 1964).  Checking these two inequalities needs
        no root finder, so no design calls an eigen-solver (numpy's roots
        solves its companion matrix with LAPACK's).  Stability is checked
        first: a section with a pole at z = 1 has 1 + a1 + a2 = 0, which
        the DC gain would divide by.  The closed-form roots are computed
        only to report a rejected section.
        """
        for i, (b0, b1, b2, a1, a2) in enumerate(self.sections):
            if not (abs(a2) < 1.0 and abs(a1) < 1.0 + a2):
                root = cmath.sqrt(a1 * a1 - 4.0 * a2)
                mags = [abs((-a1 + root) / 2.0), abs((-a1 - root) / 2.0)]
                raise ConfigError(
                    f"section {i} is unstable: a1 {a1}, a2 {a2} fail |a2| < 1, "
                    f"|a1| < 1 + a2 (pole magnitudes {mags})"
                )
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


def _zero_phase(signals, filt: ButterworthFilter, width: int = 1) -> np.ndarray:
    """lowpass_zero_phase of every signal, in one batched pass per direction.

    signals come in runs of width equal-length signals; the result stacks
    each run's filtered samples as rows of width columns, so it has shape
    (total run length, width).  The reflect-padded signals become the
    columns of one left-aligned (L, m) matrix, gathered from their
    concatenation in one step.  The backward pass reverses each column's
    own padded prefix with a gather, and one last gather reads every run's
    trimmed samples back in forward order.  Rows past a column's padded
    length carry junk that is never read.
    """
    pad = 3 * filt.order
    xs = []
    for i, signal in enumerate(signals):
        x = np.asarray(signal, dtype=np.float64)
        if x.ndim != 1:
            raise PreprocessError(f"signal must be 1-D, got shape {x.shape}")
        if len(x) < pad:
            raise PreprocessError(
                f"signal of length {len(x)} too short to filter; need >= {pad} (3 x order)"
            )
        if i % width and len(x) != len(xs[-1]):
            raise PreprocessError(
                f"signals filtered as one block need equal lengths, got {len(xs[-1])} and {len(x)}"
            )
        xs.append(x)
    n = np.array([len(x) for x in xs])
    m = len(xs)
    padded = n + 2 * pad
    rows = np.arange(padded.max())[:, None]
    # each gather's (L, m) index matrix is built in place and freed before
    # the pass that follows, so a pass holds three (L, m) matrices at most
    at = 2 * n + pad - 1 - rows  # each padded row's sample, reflected at both ends
    np.minimum(at, np.maximum(rows - pad, pad - 1 - rows), out=at)
    np.maximum(at, 0, out=at)
    at += np.cumsum(n) - n
    y = np.concatenate(xs).take(at)
    del at
    y = _sosfilt_rows(filt.sections, y)
    rev = padded - 1 - rows
    np.copyto(rev, rows, where=rows >= padded)
    rev *= m  # flat index into the C-ordered matrix: row * m + column
    rev += np.arange(m)
    y = y.take(rev)
    del rev
    y = _sosfilt_rows(filt.sections, y)
    # sample j of a run of length r sits at reversed row r + pad - 1 - j; as
    # stacked row s of a run whose rows end before row e, at e + pad - 1 - s
    runs = n[::width]
    ends = np.cumsum(runs)
    rev_rows = np.repeat(ends + pad - 1, runs) - np.arange(ends[-1])
    run_cols = np.repeat(np.arange(0, m, width), runs)
    return y.take((rev_rows * m + run_cols)[:, None] + np.arange(width))


def lowpass_zero_phase(signal: np.ndarray, filt: ButterworthFilter) -> np.ndarray:
    """Zero-phase low-pass: pad, filter forward, reverse, filter, reverse, trim.

    Edges are handled by reflection (edge sample included) of length
    3 * order on each side, removed after the two passes.
    """
    return _zero_phase([signal], filt)[:, 0]


def _gradient(f: np.ndarray, bounds, dt: np.ndarray, out: np.ndarray) -> np.ndarray:
    """np.gradient(edge_order=1) of every segment bounds[i]:bounds[i + 1] of f, into out.

    Central differences run down the whole stack in one pass, then each
    segment's first and last rows are rewritten one-sided.  dt holds each
    row's sample spacing, broadcast against f.  These are np.gradient's
    expressions, so the bits are np.gradient's.
    """
    bounds = np.asarray(bounds)
    first, last = bounds[:-1], bounds[1:] - 1
    np.subtract(f[2:], f[:-2], out=out[1:-1])
    out[1:-1] /= 2.0 * dt[1:-1]
    out[first] = (f[first + 1] - f[first]) / dt[first]
    out[last] = (f[last] - f[last - 1]) / dt[last]
    return out


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


def apply_normalization(
    rows: np.ndarray, params: NormalizationParams, out: np.ndarray | None = None
) -> np.ndarray:
    """(x - min) / (max - min) per column; out-of-range values are NOT clamped.

    Degenerate (constant) columns map to 0.0 everywhere.  The result goes
    to out when given (which may be rows itself, scaling them in place),
    else to a new array; both routes run the same operations in the same
    order, so they give the same bits.
    """
    rows = np.asarray(rows, dtype=np.float64)
    if rows.ndim != 2 or rows.shape[1] != len(params.mins):
        raise PreprocessError(
            f"expected shape (n, {len(params.mins)}), got {rows.shape}"
        )
    span = params.maxs - params.mins
    safe = np.where(params.degenerate, 1.0, span)
    out = np.subtract(rows, params.mins, out=out)
    out /= safe
    out[:, params.degenerate] = 0.0
    return out


def scaling_matrix(params: NormalizationParams) -> np.ndarray:
    """(d + 1, d + 1) matrix S with [x, 1] @ S == [apply_normalization(x, params), 1].

    Column c of S holds 1/span on the diagonal and -min/span in the last
    (intercept) row; a degenerate column is all zeros, as
    apply_normalization maps it to 0.  The product equals the scaled rows
    up to rounding, not bit for bit.
    """
    d = len(params.mins)
    live = np.flatnonzero(~params.degenerate)
    span = params.maxs[live] - params.mins[live]
    out = np.zeros((d + 1, d + 1))
    out[live, live] = 1.0 / span
    out[d, live] = -params.mins[live] / span
    out[d, d] = 1.0
    return out


def spectral_energy_fraction(
    signal: np.ndarray, sample_rate_hz: float, threshold_hz: float
) -> float:
    """Fraction of squared DFT magnitude at (folded) frequencies <= threshold.

    The mean is removed first; the spectrum is numpy's FFT.
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
    power = np.abs(np.fft.fft(x)) ** 2
    folded_hz = np.minimum(k, n - k) * (sample_rate_hz / n)
    total = power.sum()
    if total == 0.0:
        return 1.0
    return float(power[folded_hz <= threshold_hz].sum() / total)


def feature_rows(
    trials: Iterable[GaitTrial], filt: ButterworthFilter, filter_targets: bool = True
) -> tuple[np.ndarray, np.ndarray, list[int]]:
    """(inputs, targets, bounds): every trial's unnormalized rows, stacked in the order given.

    inputs is (n, 6) and targets (n, 2); trial i owns rows bounds[i] to
    bounds[i + 1].  Trials sharing a sample rate are filtered together in
    one batched zero-phase pass, with filt redesigned once per rate, and
    the filtered angles of all trials are differentiated in one pass.  A
    trial too short for filt's padding, or the first trial at a rate too
    slow for its cutoff, is named in the error.
    """
    trials = list(trials)
    pad = 3 * filt.order
    short = next((t for t in trials if t.n_samples < pad), None)
    if short is not None:
        raise PreprocessError(
            f"trial {short.trial_id!r}: signal of length {short.n_samples} too short to "
            f"filter; need >= {pad} (3 x order)"
        )
    lengths = [t.n_samples for t in trials]
    bounds = np.cumsum([0] + lengths).tolist()
    rates = np.repeat([t.sample_rate_hz for t in trials], lengths)
    width = 4 if filter_targets else 2
    filtered = np.empty((bounds[-1], width))
    for rate in dict.fromkeys(t.sample_rate_hz for t in trials):
        group = [t for t in trials if t.sample_rate_hz == rate]
        try:
            rate_filt = filt.with_sample_rate(rate)
        except ConfigError as exc:
            raise ConfigError(f"trial {group[0].trial_id!r}: {exc}") from None
        signals = []
        for t in group:
            signals += [t.theta_hip, t.theta_knee, t.theta_ankle, t.tau_ankle][:width]
        filtered[rates == rate] = _zero_phase(signals, rate_filt, width)
    # [theta, dtheta, ddtheta] per joint, each trial differentiated on its own
    inputs = np.empty((bounds[-1], 6))
    inputs[:, 0::3] = filtered[:, :2]
    dt = (1.0 / rates)[:, None]
    _gradient(inputs[:, 0::3], bounds, dt, out=inputs[:, 1::3])
    _gradient(inputs[:, 1::3], bounds, dt, out=inputs[:, 2::3])
    if filter_targets:
        targets = filtered[:, 2:].copy()
    else:
        targets = np.column_stack(
            [np.concatenate([t.theta_ankle for t in trials]),
             np.concatenate([t.tau_ankle for t in trials])]
        )
    return inputs, targets, bounds


def trial_features(
    trial: GaitTrial, filt: ButterworthFilter, filter_targets: bool = True
) -> tuple[np.ndarray, np.ndarray]:
    """Unnormalized (inputs, targets) for a single trial: feature_rows of [trial]."""
    inputs, targets, _ = feature_rows([trial], filt, filter_targets)
    return inputs, targets


def build_features(
    dataset: GaitDataset, filt: ButterworthFilter, filter_targets: bool = True
) -> tuple[np.ndarray, np.ndarray]:
    """(inputs, targets) of every trial's feature_rows, stacked in dataset order.

    inputs is the (n, 6) matrix min-max scaled over these rows; targets,
    (n, 2) [theta_ankle_deg, tau_ankle_Nm], are never scaled.  run_loocv
    works on the unscaled stack directly and fits the scaling per fold;
    this whole-dataset view serves library callers and demos.
    """
    inputs, targets, _ = feature_rows(dataset, filt, filter_targets)
    return apply_normalization(inputs, fit_normalization(inputs)), targets
