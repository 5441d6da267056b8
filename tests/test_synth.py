import itertools

import numpy as np
import pytest

from gaitreg import (
    ButterworthFilter,
    SynthConfig,
    build_features,
    generate,
    ground_truth,
    linear_fit,
    linear_predict,
    spectral_energy_fraction,
)
from gaitreg.data import MODES
from gaitreg.errors import ConfigError, PipelineError
from gaitreg.preprocessing import input_features
from gaitreg.synth import LINEAR_INTERCEPT, LINEAR_WEIGHTS


def resample(trial_signal, n_points=101):
    phase = np.linspace(0.0, 100.0, len(trial_signal))
    return np.interp(np.linspace(0.0, 100.0, n_points), phase, trial_signal)


class TestDeterminism:
    def test_same_config_bit_identical(self):
        config = SynthConfig(seed=555)
        a = generate(config)
        b = generate(config)
        for ta, tb in zip(a, b):
            assert ta.trial_id == tb.trial_id
            assert np.array_equal(ta.theta_hip, tb.theta_hip)
            assert np.array_equal(ta.theta_knee, tb.theta_knee)
            assert np.array_equal(ta.theta_ankle, tb.theta_ankle)
            assert np.array_equal(ta.tau_ankle, tb.tau_ankle)

    def test_different_seeds_differ(self):
        a = generate(SynthConfig(seed=1))
        b = generate(SynthConfig(seed=2))
        assert not np.array_equal(a.trials[0].theta_hip, b.trials[0].theta_hip)


class TestDefaultShape:
    def test_trial_counts(self, default_dataset):
        assert default_dataset.counts_by_mode() == {
            "NormalWalk": 10,
            "StairAscent": 8,
            "StairDescent": 8,
            "SlopeAscent": 8,
            "SlopeDescent": 7,
        }
        assert len(default_dataset) == 41

    def test_trial_counts_are_keyed_by_mode_name(self):
        dataset = generate(SynthConfig(trials_per_mode={"NormalWalk": 2}))
        assert dataset.trial_ids == ("NormalWalk_00", "NormalWalk_01")
        with pytest.raises(ConfigError, match="not a locomotion mode name"):
            SynthConfig(trials_per_mode={0: 2})

    def test_total_rows_near_5002(self, default_dataset):
        # 41 x 122 = 5002 before per-trial duration jitter; the seeded
        # default lands on 4998 (frozen: the generator is deterministic)
        rows = default_dataset.total_rows()
        assert rows == 4998
        assert abs(rows - 41 * 122) <= 41 * 122 * 0.05

    def test_speed_jitter_varies_lengths(self, default_dataset):
        lengths = {t.n_samples for t in default_dataset}
        assert len(lengths) > 1
        assert all(abs(n - 122) <= 0.05 * 122 + 1 for n in lengths)


class TestGroundTruth:
    def test_zero_noise_targets_equal_ground_truth(self):
        config = SynthConfig(noise_std_deg=0.0)
        dataset = generate(config)
        for trial in dataset.trials[:5]:
            theta, tau = ground_truth(trial.trial_id, config)
            assert np.array_equal(theta, trial.theta_ankle)
            assert np.array_equal(tau, trial.tau_ankle)

    def test_ground_truth_invariant_to_noise(self):
        a = ground_truth("NormalWalk_03", SynthConfig(noise_std_deg=0.0))
        b = ground_truth("NormalWalk_03", SynthConfig(noise_std_deg=2.0))
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])

    def test_swing_moment_exactly_zero(self):
        config = SynthConfig(noise_std_deg=0.0)
        for trial in generate(config):
            phi = np.linspace(0.0, 1.0, trial.n_samples)
            assert np.all(trial.tau_ankle[phi > 0.6] == 0.0)
            assert np.any(trial.tau_ankle[phi < 0.4] != 0.0)

    def test_unknown_trial_id_rejected(self):
        config = SynthConfig()
        with pytest.raises(PipelineError, match="unknown trial_id"):
            ground_truth("Sprinting_00", config)
        with pytest.raises(PipelineError, match="not produced"):
            ground_truth("NormalWalk_99", config)


class TestTrajectoryProperties:
    def test_cycles_are_closed(self):
        for trial in generate(SynthConfig(noise_std_deg=0.0)):
            assert abs(trial.theta_hip[0] - trial.theta_hip[-1]) < 1e-6
            assert abs(trial.theta_knee[0] - trial.theta_knee[-1]) < 1e-6
            assert abs(trial.theta_ankle[0] - trial.theta_ankle[-1]) < 1e-6

    def test_mode_average_hip_trajectories_separated(self):
        dataset = generate(SynthConfig(noise_std_deg=0.0))
        averages = {}
        for mode in MODES:
            curves = [resample(t.theta_hip) for t in dataset if t.mode == mode]
            averages[mode] = np.mean(curves, axis=0)
        distances = [
            np.sqrt(np.mean((averages[a] - averages[b]) ** 2))
            for a, b in itertools.combinations(MODES, 2)
        ]
        assert np.mean(distances) > 5.0
        assert min(distances) > 5.0

    def test_spectral_premise(self, default_dataset):
        # every kinematic signal keeps >= 95% of its energy below 6 Hz
        for trial in default_dataset:
            for signal in (trial.theta_hip, trial.theta_knee, trial.theta_ankle):
                frac = spectral_energy_fraction(signal, trial.sample_rate_hz, 6.0)
                assert frac >= 0.95


class TestLinearMode:
    def test_exact_affine_recovery(self):
        config = SynthConfig(noise_std_deg=0.0, linear_mode=True)
        dataset = generate(config)
        filt = ButterworthFilter.design(6.0, 200.0, 4)
        inputs, targets = build_features(dataset, filt, filter_targets=False)
        model = linear_fit(inputs, targets)
        residual = linear_predict(model, inputs) - targets
        assert np.abs(residual).max() < 1e-9

    def test_targets_are_the_pipeline_features_mapped(self):
        # the generator builds its targets from the same input_features the
        # pipeline uses, so they match bit for bit, not just to a tolerance
        dataset = generate(SynthConfig(noise_std_deg=0.0, linear_mode=True))
        filt = ButterworthFilter.design(6.0, 200.0, 4)
        for trial in dataset:
            features = input_features(trial.theta_hip, trial.theta_knee, filt, trial.sample_rate_hz)
            expected = features @ LINEAR_WEIGHTS.T + LINEAR_INTERCEPT
            assert np.array_equal(np.column_stack([trial.theta_ankle, trial.tau_ankle]), expected)

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            SynthConfig(noise_std_deg=-1.0)
        with pytest.raises(ConfigError):
            SynthConfig(speed_jitter=0.7)
        with pytest.raises(ConfigError):
            SynthConfig(trials_per_mode={"NormalWalk": 0})
        with pytest.raises(ConfigError):
            SynthConfig(samples_per_trial=8)
