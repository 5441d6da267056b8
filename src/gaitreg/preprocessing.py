"""Signal preprocessing: low-pass filtering, differentiation, scaling.

The input vector fed to every regressor is, per time step,

    [theta_hip, dtheta_hip, ddtheta_hip, theta_knee, dtheta_knee, ddtheta_knee]

built by low-pass filtering the measured angles, differentiating the
filtered hip/knee angles twice, and min-max scaling each column to the
training fold's [0, 1] range.  Targets stay in degrees and newton-meters.

All zero-phase filtering goes through one batched core: it reflect-pads
each (n, w) block of samples into its own columns of one matrix and
steps the recurrence down all columns a row at a time, in place, so a
whole dataset costs one Python-level loop per pass instead of one per
signal, with the same bits as filtering each signal alone.  feature_rows
designs the low-pass once per sample rate from a cutoff and an order,
copies each trial's filtered block, returned in time order, into one
stack of rows, drops the matrix, and differentiates the filtered angles
of all trials in one pass over the stack (np.gradient's central
differences, one-sided at each trial's ends).  It is the one place input
rows are built: run_loocv, trial_features and synth's linear_mode targets
all read it.  A min-max scaling is the (2, d) array of its column minima
and maxima (fit_normalization); run_loocv fits each fold's from the
trials' own column extrema, which is exact because min and max are.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from math import cos, pi, sin, tan
from typing import Iterable

import numpy as np

from .data import GaitTrial
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
        quadratic has both roots strictly inside the unit circle iff the
        Jury margins 1 - |a2| and 1 + a2 - |a1| are both positive (Jury,
        Theory and Application of the z-Transform Method, 1964).  Checking
        them needs no root finder, so no design calls an eigen-solver
        (numpy's roots solves its companion matrix with LAPACK's), and a
        rejected section is reported by its margins.  Stability is checked
        first: a section with a pole at z = 1 has 1 + a1 + a2 = 0, which
        the DC gain would divide by.
        """
        for i, (b0, b1, b2, a1, a2) in enumerate(self.sections):
            margins = (1.0 - abs(a2), 1.0 + a2 - abs(a1))
            if min(margins) <= 0.0:
                raise ConfigError(
                    f"section {i} is unstable: a1 {a1}, a2 {a2} give Jury margins 1 - |a2| = "
                    f"{margins[0]} and 1 + a2 - |a1| = {margins[1]}; both must be > 0"
                )
        dc = self.magnitude(0.0)
        if abs(dc - 1.0) > 1e-9:
            raise ConfigError(f"cascade DC gain {dc} deviates from 1")

    def magnitude(self, freq_hz: float) -> float:
        """Single-pass |H| of the cascade at a digital frequency."""
        w = 2.0 * pi * freq_hz / self.sample_rate_hz
        z = complex(cos(w), -sin(w))  # z^-1 on the unit circle
        h = 1.0 + 0.0j
        for b0, b1, b2, a1, a2 in self.sections:
            h *= (b0 + b1 * z + b2 * z * z) / (1.0 + a1 * z + a2 * z * z)
        return abs(h)


def _sosfilt_rows(sections, y: np.ndarray) -> None:
    """Apply the cascade causally down every column of y, in place (direct form II transposed).

    Each section starts every column in its step-response steady state for
    the column's first sample, so a constant signal passes through exactly
    unchanged.  Row i is one time step of all columns at once; each column
    sees the same scalar arithmetic, in the same order, as a one-signal
    loop.  A row's output goes to one row buffer and then over the row,
    once the state update has read its input, so no matrix is allocated.
    """
    buf = np.empty(y.shape[1])
    for b0, b1, b2, a1, a2 in sections:
        gain = (b0 + b1 + b2) / (1.0 + a1 + a2)
        s1 = (gain - b0) * y[0]
        s2 = (b2 - a2 * gain) * y[0]
        for xi in y:
            np.multiply(b0, xi, out=buf)
            buf += s1
            s1 = b1 * xi - a1 * buf + s2
            s2 = b2 * xi - a2 * buf
            xi[:] = buf


def _zero_phase(blocks, filt: ButterworthFilter) -> list[np.ndarray]:
    """lowpass_zero_phase of each column of each (n, w) block, in one batched pass per direction.

    Each block is reflect-padded by pad = 3 * order (n >= pad) into its own
    columns of one top-aligned matrix.  The matrix is filtered in place,
    each block's padded prefix is reversed, and the matrix is filtered
    again.  Each block's filtered samples are returned in time order, as a
    view of the matrix.  Rows past a block's padded length stay zero.
    """
    pad = 3 * filt.order
    ends = np.cumsum([b.shape[1] for b in blocks])
    y = np.zeros((max(map(len, blocks)) + 2 * pad, ends[-1]))
    padded = [y[: len(b) + 2 * pad, end - b.shape[1] : end] for b, end in zip(blocks, ends)]
    for block, cols in zip(blocks, padded):
        cols[:pad] = block[pad - 1 :: -1]  # reflections include the edge sample
        cols[pad:-pad] = block
        cols[-pad:] = block[: -pad - 1 : -1]
    _sosfilt_rows(filt.sections, y)
    for cols in padded:
        cols[:] = cols[::-1]
    _sosfilt_rows(filt.sections, y)
    # the second pass ran backwards in time: sample i sits at row n + pad - 1 - i
    return [cols[-pad - 1 : pad - 1 : -1] for cols in padded]


def _checked_signal(signal, min_length: int) -> np.ndarray:
    """signal as 1-D float64 of >= min_length samples, all finite; else a PreprocessError."""
    x = np.asarray(signal, dtype=np.float64)
    if x.ndim != 1:
        raise PreprocessError(f"signal must be 1-D, got shape {x.shape}")
    if len(x) < min_length:
        raise PreprocessError(f"signal of length {len(x)} is too short; need >= {min_length}")
    finite = np.isfinite(x)
    if not finite.all():
        index = int(finite.argmin())
        raise PreprocessError(f"signal sample {index} is not finite ({x[index]})")
    return x


@np.errstate(over="ignore", invalid="ignore")  # an overflow is refused at the end
def lowpass_zero_phase(signal: np.ndarray, filt: ButterworthFilter) -> np.ndarray:
    """Zero-phase low-pass: pad, filter forward, reverse, filter, reverse, trim.

    Edges are handled by reflection (edge sample included) of length
    3 * order on each side, removed after the two passes.  Fewer samples
    than that, a non-finite one or a result that overflows: PreprocessError.
    """
    x = _checked_signal(signal, 3 * filt.order)
    [y] = _zero_phase([x[:, None]], filt)
    if not np.isfinite(y).all():
        raise PreprocessError("filtered signal overflows float64")
    return y[:, 0]


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


def fit_normalization(rows: np.ndarray) -> np.ndarray:
    """Min-max scaling fitted on training rows: the (2, d) stack of column minima and maxima."""
    rows = np.asarray(rows, dtype=np.float64)
    if rows.ndim != 2 or rows.shape[0] < 2:
        raise PreprocessError(f"need a 2-D matrix with >= 2 rows, got shape {rows.shape}")
    return np.stack([rows.min(axis=0), rows.max(axis=0)])


def apply_normalization(
    rows: np.ndarray, params: np.ndarray, out: np.ndarray | None = None
) -> np.ndarray:
    """(x - min) / (max - min) per column; out-of-range values are NOT clamped.

    params is fit_normalization's (2, d) [min; max].  Constant columns
    (max == min) map to 0.0 everywhere.  The result goes to out when given
    (which may be rows itself, scaling them in place), else to a new array;
    both routes run the same operations in the same order, so they give
    the same bits.
    """
    rows = np.asarray(rows, dtype=np.float64)
    lo, hi = params
    if rows.ndim != 2 or rows.shape[1] != len(lo):
        raise PreprocessError(f"expected shape (n, {len(lo)}), got {rows.shape}")
    constant = hi == lo
    safe = np.where(constant, 1.0, hi - lo)
    out = np.subtract(rows, lo, out=out)
    out /= safe
    out[:, constant] = 0.0
    return out


def scaling_matrix(params: np.ndarray) -> np.ndarray:
    """(d + 1, d + 1) matrix S with [x, 1] @ S == [apply_normalization(x, params), 1].

    Column c of S holds 1/span on the diagonal and -min/span in the last
    (intercept) row; a constant column is all zeros, as
    apply_normalization maps it to 0.  The product equals the scaled rows
    up to rounding, not bit for bit.
    """
    lo, hi = params
    d = len(lo)
    live = np.flatnonzero(hi != lo)
    span = hi[live] - lo[live]
    out = np.zeros((d + 1, d + 1))
    out[live, live] = 1.0 / span
    out[d, live] = -lo[live] / span
    out[d, d] = 1.0
    return out


@np.errstate(over="ignore", invalid="ignore")  # an overflow is refused below
def spectral_energy_fraction(
    signal: np.ndarray, sample_rate_hz: float, threshold_hz: float
) -> float:
    """Fraction of squared DFT magnitude at (folded) frequencies <= threshold.

    The mean is removed first; the spectrum is numpy's FFT.  Fewer than 8
    samples, a non-finite one or an energy that overflows: PreprocessError.
    """
    x = _checked_signal(signal, 8)
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
    if not np.isfinite(total):
        raise PreprocessError("signal's spectral energy overflows float64")
    if total == 0.0:
        return 1.0
    return float(power[folded_hz <= threshold_hz].sum() / total)


@np.errstate(over="ignore", invalid="ignore")  # an overflow is refused at the end
def feature_rows(
    trials: Iterable[GaitTrial], cutoff_hz: float, order: int, filter_targets: bool = True
) -> tuple[np.ndarray, np.ndarray, list[int]]:
    """(inputs, targets, bounds): every trial's unnormalized rows, stacked in the order given.

    inputs is (n, 6) and targets (n, 2); trial i owns rows bounds[i] to
    bounds[i + 1].  The low-pass is designed here, once per sample rate,
    and the trials sharing a rate are filtered together in one batched
    zero-phase pass, whose matrix each trial's rows are copied out of; the
    filtered angles of all trials are then differentiated in one pass.
    Beside the outputs, the call holds one padded matrix at a time.  A
    trial too short for the filter's padding, the first trial at a rate the
    design refuses, and the trial of largest magnitude when a value or the
    range of all values overflows are named; a finite overall range keeps
    every column's scaling finite.
    """
    trials = list(trials)
    pad = 3 * order
    short = next((t for t in trials if t.n_samples < pad), None)
    if short is not None:
        raise PreprocessError(
            f"trial {short.trial_id!r}: signal of length {short.n_samples} too short to "
            f"filter; need >= {pad} (3 x order)"
        )
    lengths = [t.n_samples for t in trials]
    bounds = np.cumsum([0] + lengths).tolist()
    width = 4 if filter_targets else 2
    inputs = np.empty((bounds[-1], 6))
    targets = np.empty((bounds[-1], 2))
    for rate in dict.fromkeys(t.sample_rate_hz for t in trials):
        group = [i for i, t in enumerate(trials) if t.sample_rate_hz == rate]
        try:
            filt = ButterworthFilter.design(cutoff_hz, rate, order)
        except ConfigError as exc:
            raise ConfigError(f"trial {trials[group[0]].trial_id!r}: {exc}") from None
        filtered = _zero_phase([trials[i].samples[:, :width] for i in group], filt)
        for i, rows in zip(group, filtered):
            a, b = bounds[i], bounds[i + 1]
            inputs[a:b, 0::3] = rows[:, :2]
            targets[a:b] = rows[:, 2:] if filter_targets else trials[i].samples[:, 2:]
        del filtered, rows  # so at most one matrix is alive, and none while differentiating
    # [theta, dtheta, ddtheta] per joint, each trial differentiated on its own
    dt = (1.0 / np.repeat([t.sample_rate_hz for t in trials], lengths))[:, None]
    _gradient(inputs[:, 0::3], bounds, dt, out=inputs[:, 1::3])
    _gradient(inputs[:, 1::3], bounds, dt, out=inputs[:, 2::3])
    if not all(np.isfinite(a.max() - a.min()) for a in (inputs, targets)):
        size = np.maximum(np.abs(inputs).max(axis=1), np.abs(targets).max(axis=1))
        big = trials[np.searchsorted(bounds, size.argmax(), side="right") - 1]
        raise PreprocessError(f"trial {big.trial_id!r}: a feature value or range overflows float64")
    return inputs, targets, bounds


def trial_features(
    trial: GaitTrial, filt: ButterworthFilter, filter_targets: bool = True
) -> tuple[np.ndarray, np.ndarray]:
    """Unnormalized (inputs, targets) of one trial: feature_rows at filt's cutoff and order."""
    inputs, targets, _ = feature_rows([trial], filt.cutoff_hz, filt.order, filter_targets)
    return inputs, targets
