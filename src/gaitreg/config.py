"""Flat run configuration: one JSON file drives the whole pipeline.

Every stochastic choice is pinned by an explicit seed in the config (no
wall-clock defaults), so rerunning a config byte-reproduces all outputs.
Unknown keys are rejected rather than ignored.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Any, Optional

from .baselines import (
    DEFAULT_SVR_C,
    DEFAULT_SVR_EPSILON,
    DEFAULT_SVR_MAX_UPDATES,
    DEFAULT_SVR_TOL,
)
from .data import LocomotionMode
from .errors import ConfigError
from .mlp import DEFAULT_LAYER_DIMS, TrainConfig
from .synth import DEFAULT_TRIALS_PER_MODE, SynthConfig


def _default_trials() -> dict:
    return {mode.name: count for mode, count in DEFAULT_TRIALS_PER_MODE.items()}


@dataclass(frozen=True)
class RunConfig:
    # synthetic data
    seed: int = SynthConfig.seed
    trials_per_mode: dict = field(default_factory=_default_trials)
    samples_per_trial: int = SynthConfig.samples_per_trial
    noise_std_deg: float = SynthConfig.noise_std_deg
    speed_jitter: float = SynthConfig.speed_jitter
    linear_mode: bool = SynthConfig.linear_mode
    # preprocessing
    filter_order: int = 4
    cutoff_hz: float = 6.0
    filter_targets: bool = True
    paper_faithful_norm: bool = False
    # shared network
    layer_dims: tuple = DEFAULT_LAYER_DIMS
    epochs: int = TrainConfig.epochs
    learning_rate: float = TrainConfig.learning_rate
    momentum: float = TrainConfig.momentum
    l2_penalty: float = TrainConfig.l2_penalty
    batch_size: int = TrainConfig.batch_size
    init_seed: int = 4183
    shuffle_seed: int = TrainConfig.shuffle_seed
    # SVR baseline; the svr_grid_* lists, when set, trigger a grid search
    # over trial-level folds that overrides the scalar values.  It runs
    # before LOO on the run's per-trial blocks under pooled min-max scaling,
    # so each held-out trial influences the hyperparameters its fold uses.
    svr_c: float = DEFAULT_SVR_C
    svr_epsilon: float = DEFAULT_SVR_EPSILON
    svr_gamma: Optional[float] = None  # None -> 1 / n_features
    svr_tol: float = DEFAULT_SVR_TOL
    svr_max_updates: int = DEFAULT_SVR_MAX_UPDATES
    svr_grid_c: Optional[list] = None
    svr_grid_epsilon: Optional[list] = None
    svr_grid_gamma: Optional[list] = None
    svr_grid_folds: int = 3
    # evaluation
    phase_bins: int = 101

    def __post_init__(self):
        trials = dict(self.trials_per_mode)
        for name in trials:
            if name not in LocomotionMode.__members__:
                raise ConfigError(f"trials_per_mode key {name!r} is not a locomotion mode")
        object.__setattr__(self, "trials_per_mode", trials)
        object.__setattr__(self, "layer_dims", tuple(int(d) for d in self.layer_dims))
        if self.phase_bins < 2:
            raise ConfigError(f"phase_bins must be >= 2, got {self.phase_bins}")
        grids = (self.svr_grid_c, self.svr_grid_epsilon, self.svr_grid_gamma)
        if any(g is not None for g in grids) and not all(g for g in grids):
            raise ConfigError(
                "svr_grid_c, svr_grid_epsilon, and svr_grid_gamma must be set "
                "together as non-empty lists"
            )
        # delegate range checks to the dataclasses that use the values
        self.synth_config()
        self.train_config()

    @classmethod
    def from_dict(cls, data: dict) -> "RunConfig":
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(data) - known)
        if unknown:
            raise ConfigError(f"unknown config keys: {unknown}")
        return cls(**data)

    @classmethod
    def from_file(cls, path: str | Path) -> "RunConfig":
        with open(path, "r", encoding="utf-8") as fh:
            try:
                data = json.load(fh)
            except json.JSONDecodeError as exc:
                raise ConfigError(f"{path}: invalid JSON: {exc}") from None
        if not isinstance(data, dict):
            raise ConfigError(f"{path}: config must be a JSON object")
        return cls.from_dict(data)

    def with_overrides(self, overrides: dict[str, Any]) -> "RunConfig":
        merged = self.to_dict()
        merged.update(overrides)
        return RunConfig.from_dict(merged)

    def to_dict(self) -> dict:
        out = {}
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, tuple):
                value = list(value)
            elif isinstance(value, dict):
                value = dict(value)
            out[f.name] = value
        return out

    def synth_config(self) -> SynthConfig:
        return SynthConfig(
            seed=self.seed,
            trials_per_mode={
                LocomotionMode[name]: count for name, count in self.trials_per_mode.items()
            },
            samples_per_trial=self.samples_per_trial,
            noise_std_deg=self.noise_std_deg,
            speed_jitter=self.speed_jitter,
            linear_mode=self.linear_mode,
        )

    def train_config(self, shuffle_seed: Optional[int] = None) -> TrainConfig:
        return TrainConfig(
            epochs=self.epochs,
            learning_rate=self.learning_rate,
            momentum=self.momentum,
            l2_penalty=self.l2_penalty,
            batch_size=self.batch_size,
            shuffle_seed=self.shuffle_seed if shuffle_seed is None else shuffle_seed,
        )
