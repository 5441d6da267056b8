"""Acceptance suite: one test per numbered exit criterion.

Each test enforces its criterion at the stated tolerance and prints one
PASS line (visible with pytest -s); any failure fails the suite.
"""

import json
import subprocess
import sys
import time
from math import pi, sqrt

import numpy as np
import pytest
from oracles import brute_force_svr_dual, butterworth_warped_magnitude

from gaitreg import (
    ButterworthFilter,
    RunConfig,
    build_features,
    generate,
    linear_fit,
    linear_predict,
    loo_splits,
    lowpass_zero_phase,
    r2_score,
    rmse,
    run_loocv,
    spectral_energy_fraction,
    svr_fit,
    svr_predict,
)
from gaitreg.mlp import gradient_check, init
from gaitreg.rng import SplitMix64, derive_seed

FS = 200.0


@pytest.fixture(scope="module")
def mlp_default_report(default_dataset, default_config):
    """Full 41-fold MLP LOO on the default synthetic dataset (criteria 7, 10)."""
    start = time.perf_counter()
    report = run_loocv(default_dataset, "mlp", default_config)
    report.runtime_s = time.perf_counter() - start
    return report


def test_criterion_1_gradient_check():
    model = init((6, 100, 100, 100, 2), 13)
    stream = SplitMix64(derive_seed(13, 1))
    x = stream.uniform_block(8 * 6).reshape(8, 6)
    y = stream.normal_block(8 * 2, 0.0, 10.0).reshape(8, 2)
    start = time.perf_counter()
    passed, max_rel = gradient_check(model, x, y, 1e-2, samples_per_tensor=50, seed=7)
    elapsed = time.perf_counter() - start
    assert passed, f"max relative error {max_rel:.3e} >= 1e-4"
    assert elapsed < 10.0, f"gradient check took {elapsed:.1f}s"
    print(f"\nACCEPTANCE 1 PASS: gradcheck max_rel_err={max_rel:.3e} in {elapsed:.2f}s")


def test_criterion_2_filter_response():
    filt = ButterworthFilter.design(6.0, FS, 4)
    # exact Butterworth magnitude along the pre-warped axis of the bilinear design
    worst = 0.0
    for freq in np.linspace(0.5, 95.0, 20):
        worst = max(worst, abs(filt.magnitude(freq) - butterworth_warped_magnitude(freq, 6.0, FS, 4)))
    assert worst < 1e-6, f"magnitude deviation {worst:.2e}"
    t = np.arange(1200) / FS
    out = lowpass_zero_phase(np.sin(2 * pi * 6.0 * t), filt)
    mid = slice(300, 900)
    basis = np.column_stack([np.sin(2 * pi * 6.0 * t[mid]), np.cos(2 * pi * 6.0 * t[mid])])
    coef, *_ = np.linalg.lstsq(basis, out[mid], rcond=None)
    amplitude = float(np.hypot(*coef))
    assert abs(amplitude - 0.5) <= 0.02, f"6 Hz amplitude {amplitude}"
    print(f"ACCEPTANCE 2 PASS: |H| dev {worst:.1e}; 6 Hz zero-phase amplitude {amplitude:.4f}")


def test_criterion_3_metric_hand_cases():
    assert r2_score([1.0, 2.0, 3.0], [1.0, 2.0, 2.0]) == 0.5
    assert abs(rmse([0.0, 0.0], [3.0, 4.0]) - sqrt(12.5)) < 1e-12
    stream = SplitMix64(99)
    for _ in range(100):
        y = stream.normal_block(25, 0.0, 3.0)
        pred = y + stream.normal_block(25, 0.0, 1.0)
        scale = stream.uniform_block(1)[0] * 5 + 0.1
        shift = stream.normal_block(1)[0] * 20
        assert abs(r2_score(scale * y + shift, scale * pred + shift) - r2_score(y, pred)) < 1e-12
    print("ACCEPTANCE 3 PASS: r2=0.5 exact, rmse=sqrt(12.5), affine invariance x100")


def test_criterion_4_loo_protocol(default_dataset):
    splits = loo_splits(default_dataset)
    assert len(splits) == 41
    assert default_dataset.counts_by_mode() == {
        "NormalWalk": 10,
        "StairAscent": 8,
        "StairDescent": 8,
        "SlopeAscent": 8,
        "SlopeDescent": 7,
    }
    held = sorted(h.trial_id for h, _ in splits)
    assert held == sorted(default_dataset.trial_ids)
    for h, train in splits:
        assert h.trial_id not in train.trial_ids
        assert len(train) == 40
    print("ACCEPTANCE 4 PASS: 41 folds, per-mode counts 10/8/8/8/7, exact coverage")


def test_criterion_5_linear_recovery():
    config = RunConfig.from_dict(
        {"linear_mode": True, "noise_std_deg": 0.0, "filter_targets": False}
    )
    dataset = generate(config.synth_config())
    report = run_loocv(dataset, "linear", config)
    worst = min(min(f.r2["theta"], f.r2["tau"]) for f in report.folds)
    assert worst >= 0.999, f"worst per-fold R^2 {worst}"
    filt = ButterworthFilter.design(6.0, FS, 4)
    inputs, targets = build_features(dataset, filt, filter_targets=False)
    model = linear_fit(inputs, targets)
    residual = linear_predict(model, inputs) - targets
    design = np.column_stack([inputs, np.ones(len(inputs))])
    ortho = float(np.abs(design.T @ residual).max())
    assert ortho < 1e-8, f"residual orthogonality {ortho:.2e}"
    print(f"ACCEPTANCE 5 PASS: worst fold R^2 {worst:.6f}, ||X'r||_inf {ortho:.1e}")


def test_criterion_6_svr_against_brute_force():
    rng = np.random.default_rng(7)
    worst_gap = 0.0
    for _ in range(10):
        n = int(rng.integers(5, 9))
        x = rng.normal(size=(n, 2))
        y = 2.0 * rng.normal(size=n)
        c, eps, gamma = 10.0, 0.1, 1.0
        model = svr_fit(x, y, c=c, epsilon=eps, gamma=gamma)
        reference = brute_force_svr_dual(x, y, c, eps, gamma)
        worst_gap = max(worst_gap, abs(model.dual_objective - reference))
        assert abs(model.dual_objective - reference) < 1e-3
        pred = svr_predict(model, x)
        tol = 1e-3
        for beta, err in zip(model.coef, np.abs(pred - y)):
            if beta == 0.0:
                assert err <= eps + tol
            elif abs(beta) >= c * (1.0 - 1e-9):
                assert err >= eps - tol
            else:
                assert abs(err - eps) <= tol
    print(f"ACCEPTANCE 6 PASS: 10 problems, worst dual gap {worst_gap:.2e}, KKT at 1e-3")


def test_criterion_7_shared_model_per_mode_r2(mlp_default_report):
    report = mlp_default_report
    assert report.runtime_s < 600.0, f"LOO runtime {report.runtime_s:.0f}s"
    lines = []
    for mode, summary in report.modes.items():
        for key in ("theta", "tau"):
            mean_r2 = summary["r2_mean"][key]
            assert mean_r2 >= 0.90, f"{mode}/{key} mean R^2 {mean_r2:.3f} < 0.90"
        r2 = summary["r2_mean"]
        lines.append(f"{mode} R2 theta={r2['theta']:.3f} tau={r2['tau']:.3f}")
    print(f"ACCEPTANCE 7 PASS ({report.runtime_s:.0f}s): " + "; ".join(lines))


def test_criterion_8_determinism(tmp_path):
    config = {
        "trials_per_mode": {
            "NormalWalk": 2, "StairAscent": 2, "StairDescent": 2,
            "SlopeAscent": 2, "SlopeDescent": 2,
        },
        "samples_per_trial": 48,
        "epochs": 2,
        "svr_max_updates": 1000,
    }
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(config))

    def cli(*args):
        proc = subprocess.run(
            [sys.executable, "-m", "gaitreg", *args], capture_output=True, text=True
        )
        assert proc.returncode == 0, proc.stderr
        return proc

    def tree(root):
        from pathlib import Path

        return {
            p.relative_to(root).as_posix(): p.read_bytes()
            for p in sorted(Path(root).rglob("*")) if p.is_file()
        }

    cli("synth", "--config", str(cfg), "--out", str(tmp_path / "data"))
    cli("compare", "--config", str(cfg), "--data", str(tmp_path / "data"),
        "--out", str(tmp_path / "a"), "--jobs", "1")
    cli("compare", "--config", str(cfg), "--data", str(tmp_path / "data"),
        "--out", str(tmp_path / "b"), "--jobs", "1")
    cli("compare", "--config", str(cfg), "--data", str(tmp_path / "data"),
        "--out", str(tmp_path / "c"), "--jobs", "4")
    ta, tb, tc = tree(tmp_path / "a"), tree(tmp_path / "b"), tree(tmp_path / "c")
    assert ta == tb, "repeat compare runs differ"
    assert ta == tc, "--jobs 4 differs from --jobs 1"
    n_files = len(ta)
    assert n_files == 3 * 12 + 1  # three model report sets + merged table
    print(f"ACCEPTANCE 8 PASS: {n_files} output files byte-identical across runs and job counts")


def test_criterion_9_spectral_premise(default_dataset):
    worst = 1.0
    for trial in default_dataset:
        for signal in (trial.theta_hip, trial.theta_knee, trial.theta_ankle):
            worst = min(worst, spectral_energy_fraction(signal, trial.sample_rate_hz, 6.0))
    assert worst >= 0.95, f"worst spectral fraction {worst:.4f}"
    print(f"ACCEPTANCE 9 PASS: worst kinematic energy fraction <= 6 Hz is {worst:.4f}")


def test_criterion_10_swing_moment_error(mlp_default_report, default_config):
    grid = np.linspace(0.0, 100.0, default_config.phase_bins)
    swing = grid > 60.0
    worst = 0.0
    for mode, summary in mlp_default_report.modes.items():
        swing_mae = float(np.asarray(summary["phase_mae"]["tau"])[swing].mean())
        worst = max(worst, swing_mae)
        assert swing_mae < 1.0, f"{mode} swing tau MAE {swing_mae:.3f} Nm"
    print(f"ACCEPTANCE 10 PASS: worst per-mode swing-phase tau MAE {worst:.3f} Nm")


def test_compare_example_mlp_within_margin_of_svr():
    # reduced scale: trial counts 3/3/3/3/3 and 100-sample trials keep the
    # SVR fits tractable on one desktop core
    config = RunConfig.from_dict(
        {
            "trials_per_mode": {
                "NormalWalk": 3, "StairAscent": 3, "StairDescent": 3,
                "SlopeAscent": 3, "SlopeDescent": 3,
            },
            "samples_per_trial": 100,
        }
    )
    dataset = generate(config.synth_config())
    mlp_report = run_loocv(dataset, "mlp", config)
    svr_report = run_loocv(dataset, "svr", config)

    def overall_mean(report):
        return float(np.mean([
            [s["r2_mean"]["theta"], s["r2_mean"]["tau"]] for s in report.modes.values()
        ]))

    mlp_mean = overall_mean(mlp_report)
    svr_mean = overall_mean(svr_report)
    assert mlp_mean >= svr_mean - 0.05, f"mlp {mlp_mean:.3f} vs svr {svr_mean:.3f}"
    print(f"COMPARE EXAMPLE PASS: mean R^2 mlp={mlp_mean:.3f} svr={svr_mean:.3f}")
