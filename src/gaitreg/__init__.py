"""Continuous prediction of ankle angle and moment from hip/knee kinematics.

A single shared regressor (feed-forward network, plus linear and RBF-SVR
baselines) serves five locomotion modes without a mode classifier.  The
package covers the whole offline pipeline: synthetic trial generation,
low-pass filtering and differentiation, min-max feature scaling,
leave-one-out evaluation, and report/plot emission.

__all__ holds the entry points the demos and the README use; every other
name is imported from its submodule (gaitreg.data, gaitreg.preprocessing,
gaitreg.mlp, ...).
"""

__version__ = "0.1.0"

CONFIG_SCHEMA_VERSION = 1

from .baselines import linear_fit, linear_predict, svr_fit, svr_predict
from .config import RunConfig
from .data import loo_splits
from .evaluation import emit_report, r2_score, rmse, run_loocv
from .preprocessing import ButterworthFilter, lowpass_zero_phase, spectral_energy_fraction
from .synth import SynthConfig, generate, ground_truth

__all__ = [
    "ButterworthFilter",
    "RunConfig",
    "SynthConfig",
    "emit_report",
    "generate",
    "ground_truth",
    "linear_fit",
    "linear_predict",
    "loo_splits",
    "lowpass_zero_phase",
    "r2_score",
    "rmse",
    "run_loocv",
    "spectral_energy_fraction",
    "svr_fit",
    "svr_predict",
]
