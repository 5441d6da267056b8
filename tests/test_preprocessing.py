import re
import tracemalloc
from math import pi

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from oracles import (
    butterworth_warped_magnitude,
    dft_energy_fraction,
    loop_trial_features,
    loop_zero_phase,
    sosfilt_loop,
)

from gaitreg import ButterworthFilter, lowpass_zero_phase, spectral_energy_fraction
from gaitreg.errors import ConfigError, PreprocessError
from gaitreg.preprocessing import (
    _zero_phase,
    apply_normalization,
    feature_rows,
    fit_normalization,
    scaling_matrix,
    trial_features,
)
from gaitreg.rng import SplitMix64, derive_seed
from gaitreg.synth import SynthConfig, generate
from gaitreg.data import MODES, GaitDataset, GaitTrial

FS = 200.0


@pytest.fixture(scope="module")
def filt():
    return ButterworthFilter.design(6.0, FS, 4)


def steady_amplitude(signal, freq, fs):
    """Least-squares sine/cosine projection over the middle half."""
    n = len(signal)
    mid = slice(n // 4, 3 * n // 4)
    t = np.arange(n)[mid] / fs
    basis = np.column_stack([np.sin(2 * pi * freq * t), np.cos(2 * pi * freq * t)])
    coef, *_ = np.linalg.lstsq(basis, signal[mid], rcond=None)
    return float(np.hypot(*coef))


class TestFilterDesign:
    def test_cascade_structure(self, filt):
        assert filt.order == 4
        assert len(filt.sections) == 2

    def test_dc_gain_is_one(self, filt):
        assert abs(filt.magnitude(0.0) - 1.0) < 1e-9

    def test_sections_stable(self, filt):
        for _, _, _, a1, a2 in filt.sections:
            assert np.all(np.abs(np.roots([1.0, a1, a2])) < 1.0)

    def test_magnitude_matches_analytic_butterworth(self, filt):
        # exact identity along the pre-warped frequency axis of the bilinear design
        for freq in np.linspace(0.5, 95.0, 20):
            expected = butterworth_warped_magnitude(freq, 6.0, FS, 4)
            assert abs(filt.magnitude(freq) - expected) < 1e-6

    def test_odd_order_design(self):
        f3 = ButterworthFilter.design(6.0, FS, 3)
        assert len(f3.sections) == 2
        assert f3.sections[-1][2] == 0.0 and f3.sections[-1][4] == 0.0
        for freq in (1.0, 6.0, 20.0, 60.0):
            expected = butterworth_warped_magnitude(freq, 6.0, FS, 3)
            assert abs(f3.magnitude(freq) - expected) < 1e-6

    @pytest.mark.parametrize("order", range(1, 9))
    def test_magnitude_matches_scipy_sos_response(self, order):
        signal = pytest.importorskip("scipy.signal")
        for cutoff, fs in ((6.0, 200.0), (1.5, 100.0), (40.0, 1000.0), (20.0, 60.0)):
            filt = ButterworthFilter.design(cutoff, fs, order)
            freqs = np.linspace(0.0, 0.49 * fs, 50)
            sos = signal.butter(order, cutoff, output="sos", fs=fs)
            _, h = signal.sosfreqz(sos, worN=freqs, fs=fs)
            mine = np.array([filt.magnitude(f) for f in freqs])
            assert np.abs(mine - np.abs(h)).max() < 1e-9

    @given(
        order=st.integers(1, 8),
        cutoff_frac=st.floats(0.001, 0.499),
        fs=st.floats(1.0, 1e4),
    )
    def test_random_designs_have_unit_dc_gain(self, order, cutoff_frac, fs):
        filt = ButterworthFilter.design(cutoff_frac * fs, fs, order)
        dc = 1.0
        for b0, b1, b2, a1, a2 in filt.sections:  # H(z) at z = 1
            dc *= (b0 + b1 + b2) / (1.0 + a1 + a2)
        assert abs(dc - 1.0) <= 1e-9
        assert abs(filt.magnitude(0.0) - 1.0) <= 1e-9

    def test_cutoff_above_nyquist_rejected(self):
        with pytest.raises(ConfigError, match="cutoff"):
            ButterworthFilter.design(120.0, FS, 4)

    @pytest.mark.parametrize("order", range(1, 11))
    def test_extreme_cutoffs_design_or_raise_config_error(self, order):
        # a pole rounded onto z = 1 zeroes the DC gain's denominator, so stability goes first
        cutoffs = np.concatenate(
            [np.geomspace(1e-14, FS / 4, 200), FS / 2 - np.geomspace(1e-13, FS / 4, 200)]
        )
        for cutoff in cutoffs:
            try:
                filt = ButterworthFilter.design(float(cutoff), FS, order)
            except ConfigError:
                continue
            assert abs(filt.magnitude(0.0) - 1.0) <= 1e-9


def section_filter(*sections):
    """A hand-built cascade; each (a1, a2) gets b0 = 1 + a1 + a2, so its DC gain is 1."""
    return ButterworthFilter(
        2 * len(sections), 6.0, FS, tuple((1.0 + a1 + a2, 0.0, 0.0, a1, a2) for a1, a2 in sections)
    )


class TestStabilityCheck:
    @settings(max_examples=300)
    @given(a1=st.floats(-3.0, 3.0), a2=st.floats(-2.0, 2.0))
    def test_verdict_matches_the_roots(self, a1, a2):
        magnitudes = np.abs(np.roots([1.0, a1, a2]))
        assume(np.all(np.abs(magnitudes - 1.0) >= 1e-9))
        filt = section_filter((a1, a2))
        if np.all(magnitudes < 1.0):
            filt._validate()
        else:
            with pytest.raises(ConfigError, match="section 0 is unstable"):
                filt._validate()

    @pytest.mark.parametrize(
        "a1, a2",
        [
            # a2 = 1: a conjugate pair on the circle; a2 = -1: poles at +-1 when a1 = 0
            (0.0, 1.0), (1.5, 1.0), (-1.5, 1.0), (0.0, -1.0),
            # a1 = +-(1 + a2): a pole at z = -1 or z = 1
            (0.5, -0.5), (-0.5, -0.5), (1.0, 0.0), (-1.0, 0.0), (1.5, 0.5), (-1.5, 0.5),
        ],
    )
    def test_poles_on_the_circle_are_rejected(self, a1, a2):
        with pytest.raises(ConfigError, match="section 0 is unstable"):
            section_filter((a1, a2))._validate()

    def test_unstable_cascade_names_its_section(self, filt):
        a1, a2 = filt.sections[0][3:]
        cascade = section_filter((a1, a2), (a1, a2), (-0.5, 1.5))
        with pytest.raises(ConfigError, match=r"section 2 is unstable: .*1 - \|a2\| = -0\.5 "):
            cascade._validate()

    @pytest.mark.parametrize("rate", [100.0, 200.0, 1000.0])
    def test_design_calls_no_eigen_solver(self, monkeypatch, rate):
        def eigen_solver(*args, **kwargs):
            raise AssertionError("eigen-solver called")

        monkeypatch.setattr(np, "roots", eigen_solver)
        monkeypatch.setattr(np.linalg, "eigvals", eigen_solver)
        for order in range(1, 11):
            ButterworthFilter.design(6.0, rate, order)


class TestZeroPhaseFilter:
    def test_constant_passes_unchanged(self, filt):
        out = lowpass_zero_phase(np.full(100, 3.7), filt)
        assert np.abs(out - 3.7).max() < 1e-9

    def test_cutoff_sine_attenuated_to_half(self, filt):
        # |H(fc)|^2 = 1/2: one pass gives 1/sqrt(2), the two passes square it
        t = np.arange(800) / FS
        out = lowpass_zero_phase(np.sin(2 * pi * 6.0 * t), filt)
        assert steady_amplitude(out, 6.0, FS) == pytest.approx(0.5, abs=0.02)

    def test_stopband_sine_blocked(self, filt):
        t = np.arange(800) / FS
        out = lowpass_zero_phase(np.sin(2 * pi * 30.0 * t), filt)
        n = len(out)
        assert np.abs(out[n // 4 : 3 * n // 4]).max() < 1e-4

    def test_linearity(self, filt):
        stream = np.random.default_rng(0)
        a = stream.standard_normal(150)
        b = stream.standard_normal(150)
        lhs = lowpass_zero_phase(2.5 * a - 1.3 * b, filt)
        rhs = 2.5 * lowpass_zero_phase(a, filt) - 1.3 * lowpass_zero_phase(b, filt)
        assert np.abs(lhs - rhs).max() < 1e-9

    def test_symmetric_input_gives_symmetric_output(self, filt):
        # compactly supported symmetric bump: edge transients vanish
        t = np.linspace(0.0, 4.0, 801)
        bump = 10.0 * np.exp(-0.5 * ((t - 2.0) / 0.05) ** 2)
        out = lowpass_zero_phase(bump, filt)
        assert np.abs(out - out[::-1]).max() < 1e-6

    def test_minimum_length_boundary(self, filt):
        lowpass_zero_phase(np.ones(12), filt)  # 3 x order is allowed
        with pytest.raises(PreprocessError, match="12"):
            lowpass_zero_phase(np.ones(11), filt)

    @pytest.mark.parametrize("shape", [(), (20, 2)])
    def test_signal_that_is_not_1d_rejected_with_its_shape(self, filt, shape):
        with pytest.raises(PreprocessError, match=re.escape(f"1-D, got shape {shape}")):
            lowpass_zero_phase(np.ones(shape), filt)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_sample_refused_naming_its_index(self, filt, bad):
        x = np.ones(40)
        x[[17, 30]] = bad
        message = re.escape(f"signal sample 17 is not finite ({bad})")
        with pytest.raises(PreprocessError, match=message):
            lowpass_zero_phase(x, filt)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_result_refused(self, filt):
        with pytest.raises(PreprocessError, match="filtered signal overflows float64"):
            lowpass_zero_phase(np.resize([1e308, -1e308], 40), filt)

    @pytest.mark.parametrize("order", [1, 3, 4])
    def test_minimum_length_reflects_whole_signal_at_both_ends(self, order):
        # at len == 3 x order each pad is the whole signal reversed
        filt = ButterworthFilter.design(6.0, FS, order)
        x = np.random.default_rng(order).standard_normal(3 * order)
        padded = np.concatenate([x[::-1], x, x[::-1]])
        y = sosfilt_loop(filt.sections, padded)
        y = sosfilt_loop(filt.sections, y[::-1])[::-1]
        assert np.array_equal(lowpass_zero_phase(x, filt), y[len(x) : 2 * len(x)])


def two_rate_dataset():
    stream = np.random.default_rng(5)
    trials = []
    for i, (rate, n) in enumerate([(200.0, 40), (100.0, 33), (200.0, 57), (100.0, 16)]):
        columns = np.cumsum(stream.standard_normal((4, n)), axis=1)
        trials.append(GaitTrial(f"t{i}", "NormalWalk", rate, np.column_stack(columns)))
    return GaitDataset(tuple(trials))


def trial_blocks(trials, filt, filter_targets=True):
    """Each trial's (inputs, targets): its row slice of feature_rows."""
    inputs, targets, bounds = feature_rows(trials, filt.cutoff_hz, filt.order, filter_targets)
    return [(inputs[a:b], targets[a:b]) for a, b in zip(bounds, bounds[1:])]


class TestBatchedFilter:
    """The batched zero-phase pass against the per-signal loop, bit for bit."""

    @pytest.mark.parametrize("filter_targets", [True, False])
    def test_default_trials_match_loop(self, default_dataset, filt, filter_targets):
        blocks = trial_blocks(default_dataset, filt, filter_targets)
        assert len(blocks) == len(default_dataset) == 41
        for trial, (inputs, targets) in zip(default_dataset, blocks):
            ref_inputs, ref_targets = loop_trial_features(
                trial, filt.sections, filt.order, filter_targets
            )
            assert np.array_equal(inputs, ref_inputs)
            assert np.array_equal(targets, ref_targets)

    @pytest.mark.parametrize("order", [3, 4])
    def test_ragged_lengths_match_loop(self, order):
        # odd orders end in a first-order section; 3 x order is the shortest
        filt = ButterworthFilter.design(6.0, FS, order)
        stream = np.random.default_rng(order)
        lengths = [3 * order, 3 * order + 1, 50, 3 * order + 2, 121]
        blocks = [np.cumsum(stream.standard_normal((n, 2)), axis=0) for n in lengths]
        for x, y in zip(blocks, _zero_phase(blocks, filt)):
            ref = np.column_stack([loop_zero_phase(filt.sections, c, order) for c in x.T])
            assert np.array_equal(y, ref)

    def test_two_sample_rates_keep_dataset_order(self, filt):
        dataset = two_rate_dataset()
        blocks = trial_blocks(dataset, filt)
        for trial, (inputs, targets) in zip(dataset, blocks):
            rate_filt = ButterworthFilter.design(filt.cutoff_hz, trial.sample_rate_hz, filt.order)
            ref_inputs, ref_targets = loop_trial_features(trial, rate_filt.sections, 4)
            assert inputs.shape[0] == trial.n_samples
            assert np.array_equal(inputs, ref_inputs)
            assert np.array_equal(targets, ref_targets)

    @given(
        order=st.integers(1, 6),
        cutoff_frac=st.floats(0.01, 0.45),
        fs=st.sampled_from([60.0, 100.0, 200.0, 1000.0]),
        extra=st.lists(st.integers(0, 40), min_size=1, max_size=6),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_random_filters_and_lengths_match_loop(self, order, cutoff_frac, fs, extra, seed):
        filt = ButterworthFilter.design(cutoff_frac * fs, fs, order)
        stream = np.random.default_rng(seed)
        blocks = [stream.standard_normal((3 * order + k, 1 + k % 3)) * 10.0 for k in extra]
        for x, y in zip(blocks, _zero_phase(blocks, filt)):
            ref = np.column_stack([loop_zero_phase(filt.sections, c, order) for c in x.T])
            assert np.array_equal(y, ref)


class TestDerivatives:
    def test_derivative_columns_are_np_gradient_per_trial(self, filt):
        # each trial is differentiated on its own, at its own sample rate
        dataset = two_rate_dataset()
        inputs, _, bounds = feature_rows(dataset, filt.cutoff_hz, filt.order)
        for trial, a, b in zip(dataset, bounds, bounds[1:]):
            dt = 1.0 / trial.sample_rate_hz
            for angle in (0, 3):
                x, v, acc = inputs[a:b, angle : angle + 3].T
                assert np.array_equal(v, np.gradient(x, dt, edge_order=1))
                assert np.array_equal(acc, np.gradient(v, dt, edge_order=1))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize(
        "hips",
        [
            (0.0, 1e308),  # b's derivatives overflow
            (1.7e308, -1.5e308),  # finite values, but the column's range overflows
        ],
    )
    def test_overflow_is_refused_naming_the_largest_trial(self, filt, hips):
        phase = np.linspace(0.0, 2.0 * pi, 48)
        fast = np.sin(phase)
        trials = [
            GaitTrial(name, "NormalWalk", FS, np.column_stack(
                [hip * fast if name == "b" else np.full(48, hip), fast, np.cos(phase), fast]
            ))
            for name, hip in zip("ab", hips)
        ]
        largest = "ab"[int(abs(hips[1]) > abs(hips[0]))]
        with pytest.raises(PreprocessError, match=f"trial '{largest}': a feature value or range"):
            feature_rows(trials, filt.cutoff_hz, filt.order)


class TestNormalization:
    def test_fit_min_max(self):
        params = fit_normalization(np.array([[2.0, 0.0], [4.0, 0.5], [6.0, 1.0]]))
        assert params.tolist() == [[2.0, 0.0], [6.0, 1.0]]

    def test_unit_interval_identity(self):
        rows = np.array([[0.0], [0.25], [1.0]])
        out = apply_normalization(rows, fit_normalization(rows))
        assert np.array_equal(out, rows)

    def test_value_eight_with_range_two_six(self):
        params = np.array([[2.0], [6.0]])
        assert apply_normalization(np.array([[8.0]]), params)[0, 0] == 1.5
        assert apply_normalization(np.array([[2.0]]), params)[0, 0] == 0.0

    def test_training_rows_stay_in_unit_interval(self):
        rows = np.random.default_rng(1).normal(size=(50, 6)) * 40
        out = apply_normalization(rows, fit_normalization(rows))
        assert out.min() >= 0.0 and out.max() <= 1.0

    def test_held_out_rows_not_clamped(self):
        params = np.array([[0.0], [1.0]])
        out = apply_normalization(np.array([[2.0], [-1.0]]), params)
        assert out.ravel().tolist() == [2.0, -1.0]

    def test_degenerate_columns_map_to_zero(self):
        rows = np.array([[1.0, 5.0], [1.0, 7.0]])
        lo, hi = params = fit_normalization(rows)
        assert (hi == lo).tolist() == [True, False]
        out = apply_normalization(np.array([[3.0, 6.0]]), params)
        assert out[0, 0] == 0.0 and out[0, 1] == 0.5

    def test_in_place_scaling_is_bit_identical(self):
        rows = np.random.default_rng(3).normal(size=(40, 6)) * 30 + 5
        rows[:, 2] = 4.0
        params = fit_normalization(rows[:25])
        expected = apply_normalization(rows, params)
        out = rows.copy()
        assert apply_normalization(out, params, out=out) is out
        assert np.array_equal(out, expected) and np.all(out[:, 2] == 0.0)

    def test_scaling_matrix_scales_the_affine_design(self):
        rows = np.random.default_rng(4).normal(size=(40, 6)) * 30 + 5
        rows[:, 2] = 4.0
        params = fit_normalization(rows[:25])
        s = scaling_matrix(params)
        design = np.column_stack([rows, np.ones(40)]) @ s
        expected = apply_normalization(rows, params)
        assert np.abs(design[:, :6] - expected).max() < 1e-13
        assert np.all(design[:, 2] == 0.0) and np.all(design[:, 6] == 1.0)
        assert np.all(s[:, 2] == 0.0) and s[6, 6] == 1.0

    def test_two_identical_rows_all_degenerate(self):
        lo, hi = fit_normalization(np.tile([[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]], (2, 1)))
        assert (hi == lo).all()

    def test_inverse_roundtrip(self):
        rows = np.random.default_rng(2).normal(size=(30, 6)) * 25 + 3
        lo, hi = params = fit_normalization(rows)
        back = apply_normalization(rows, params) * (hi - lo) + lo
        assert np.abs(back - rows).max() < 1e-12

    @given(
        rows=st.integers(2, 40).flatmap(
            lambda n: arrays(np.float64, (n, 6), elements=st.floats(-1e6, 1e6))
        ),
        flat=st.lists(st.booleans(), min_size=6, max_size=6),
    )
    def test_round_trip_unit_interval_and_degenerate_columns(self, rows, flat):
        rows[:, flat] = rows[0, flat]
        lo, hi = params = fit_normalization(rows)
        out = apply_normalization(rows, params)
        degenerate = hi == lo
        assert degenerate[flat].all()
        assert np.all(out[:, degenerate] == 0.0)
        assert out.min() >= 0.0 and out.max() <= 1.0
        back = out * (hi - lo) + lo
        scale = max(1.0, float(np.abs(rows).max()))
        assert np.abs(back - rows).max() <= 1e-12 * scale


class TestSpectralEnergy:
    def test_tone_below_threshold(self):
        t = np.arange(400) / FS
        frac = spectral_energy_fraction(np.sin(2 * pi * 3.0 * t), FS, 6.0)
        assert frac >= 0.999

    def test_tone_above_threshold(self):
        t = np.arange(400) / FS
        frac = spectral_energy_fraction(np.sin(2 * pi * 10.0 * t), FS, 6.0)
        assert frac <= 0.001

    def test_nyquist_threshold_is_total_energy(self):
        x = np.random.default_rng(3).standard_normal(256)
        assert spectral_energy_fraction(x, FS, FS / 2) == 1.0

    def test_above_nyquist_warns_and_returns_one(self):
        with pytest.warns(UserWarning, match="Nyquist"):
            assert spectral_energy_fraction(np.ones(16), FS, 150.0) == 1.0

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_sample_refused_naming_its_index(self, bad):
        x = np.ones(40)
        x[9] = bad
        message = re.escape(f"signal sample 9 is not finite ({bad})")
        with pytest.raises(PreprocessError, match=message):
            spectral_energy_fraction(x, FS, 6.0)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_energy_refused(self):
        t = np.arange(122) / FS
        with pytest.raises(PreprocessError, match="spectral energy overflows float64"):
            spectral_energy_fraction(1e307 * np.sin(2 * pi * 3.0 * t), FS, 6.0)

    def test_matches_direct_dft_reference(self):
        x = np.random.default_rng(4).standard_normal(200)
        mine = spectral_energy_fraction(x, FS, 17.0)
        ref = dft_energy_fraction(x, FS, 17.0)
        assert mine == pytest.approx(ref, abs=1e-9)


class TestFeatureStack:
    def test_shape_contract(self, small_dataset, filt):
        inputs, targets, _ = feature_rows(small_dataset, filt.cutoff_hz, filt.order)
        inputs = apply_normalization(inputs, fit_normalization(inputs))
        assert inputs.shape == (small_dataset.total_rows(), 6)
        assert targets.shape == (small_dataset.total_rows(), 2)
        assert inputs.min() >= 0.0 and inputs.max() <= 1.0

    def test_trial_features_per_trial(self, small_dataset, filt):
        _, stacked_targets, _ = feature_rows(small_dataset, filt.cutoff_hz, filt.order)
        targets = []
        for trial in small_dataset:
            inputs, trial_targets = trial_features(trial, filt)
            assert inputs.shape == (trial.n_samples, 6)
            assert trial_targets.shape == (trial.n_samples, 2)
            targets.append(trial_targets)
        # feature_rows stacks the trials' rows in dataset order
        assert np.array_equal(stacked_targets, np.concatenate(targets))

    def test_filter_holds_one_padded_matrix_beside_the_outputs(self, filt):
        # 100 trials at one rate: one (L, 400) matrix, L the longest trial plus both pads
        dataset = generate(SynthConfig(trials_per_mode={mode: 20 for mode in MODES}))
        tracemalloc.start()
        try:
            inputs, targets, _ = feature_rows(dataset, filt.cutoff_hz, filt.order)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        matrix = (max(t.n_samples for t in dataset) + 6 * filt.order) * 4 * len(dataset) * 8
        # a second matrix, or the matrix kept alive while differentiating, does not fit
        assert peak < inputs.nbytes + targets.nbytes + 1.25 * matrix

    def test_velocity_matches_analytic_derivative(self, filt):
        # slow synthetic trial: the filter passes it, so the numerical
        # velocity must track the closed-form Fourier derivative on interior
        # points (margin 150 keeps clear of the filter's edge transients,
        # which decay like |pole|^k with |pole| ~ 0.915 at this cutoff)
        config = SynthConfig(
            trials_per_mode={"NormalWalk": 1},
            samples_per_trial=1200,
            noise_std_deg=0.0,
            speed_jitter=0.0,
        )
        trial = generate(config).trials[0]
        from gaitreg.synth import AMPLITUDE_JITTER, HIP_SHAPES, _series

        # the trial's hip amplitude draw: second of duration, hip, knee
        mode = "NormalWalk"
        u_hip = SplitMix64(derive_seed(config.seed, MODES.index(mode), 0)).uniform_block(3)[1]
        phi = np.linspace(0.0, 1.0, trial.n_samples)
        duration = (trial.n_samples - 1) / trial.sample_rate_hz
        _, slope = _series(phi, HIP_SHAPES[mode], 1.0 + AMPLITUDE_JITTER * (2.0 * u_hip - 1.0))
        analytic = slope / duration
        numeric = trial_features(trial, filt)[0][:, 1]
        assert np.abs(numeric[150:-150] - analytic[150:-150]).max() < 1e-2
