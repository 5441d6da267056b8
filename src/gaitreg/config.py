"""Flat run configuration: one JSON file drives the whole pipeline.

Every stochastic choice is pinned by an explicit seed in the config (no
wall-clock defaults), so rerunning a config byte-reproduces all outputs.
Unknown keys and values of the wrong type are rejected, never ignored or coerced.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass, field, fields
from itertools import product
from pathlib import Path
from typing import Any, Optional, Union, get_args, get_origin, get_type_hints

from .baselines import (
    DEFAULT_SVR_C,
    DEFAULT_SVR_EPSILON,
    DEFAULT_SVR_MAX_UPDATES,
    DEFAULT_SVR_TOL,
    check_svr_settings,
)
from .errors import ConfigError
from .mlp import DEFAULT_LAYER_DIMS, TrainConfig
from .preprocessing import DEFAULT_CUTOFF_HZ, DEFAULT_FILTER_ORDER
from .synth import DEFAULT_TRIALS_PER_MODE, SynthConfig

# the JSON types each declared field type admits; bool is never a number
_TYPES = {bool: bool, int: int, float: (int, float), dict: dict, list: list, tuple: (list, tuple)}


def _admits(hint, value) -> bool:
    base, args = get_origin(hint) or hint, get_args(hint)
    if base is Union:  # Optional[X] also admits null
        return value is None or _admits(args[0], value)
    if isinstance(value, bool) != (base is bool) or not isinstance(value, _TYPES[base]):
        return False
    if base in (dict, list, tuple):  # dict[str, V] checks values, list[E] or tuple[E, ...] items
        entries, entry_hint = (value.values(), args[1]) if base is dict else (value, args[0])
        return all(_admits(entry_hint, v) for v in entries)
    return base is not float or abs(value) <= sys.float_info.max  # finite; NaN compares false


@dataclass(frozen=True)
class RunConfig:
    # synthetic data
    seed: int = SynthConfig.seed
    trials_per_mode: dict[str, int] = field(default_factory=DEFAULT_TRIALS_PER_MODE.copy)
    samples_per_trial: int = SynthConfig.samples_per_trial
    noise_std_deg: float = SynthConfig.noise_std_deg
    speed_jitter: float = SynthConfig.speed_jitter
    linear_mode: bool = SynthConfig.linear_mode
    # preprocessing
    filter_order: int = DEFAULT_FILTER_ORDER
    cutoff_hz: float = DEFAULT_CUTOFF_HZ
    filter_targets: bool = True
    paper_faithful_norm: bool = False
    # shared network
    layer_dims: tuple[int, ...] = DEFAULT_LAYER_DIMS
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
    svr_grid_c: Optional[list[float]] = None
    svr_grid_epsilon: Optional[list[float]] = None
    svr_grid_gamma: Optional[list[float]] = None
    svr_grid_folds: int = 3
    # evaluation
    phase_bins: int = 101

    def __post_init__(self):
        hints = get_type_hints(RunConfig)
        for f in fields(self):
            if not _admits(hints[f.name], getattr(self, f.name)):
                raise ConfigError(f"{f.name} must be {f.type}, got {getattr(self, f.name)!r}")
        object.__setattr__(self, "trials_per_mode", dict(self.trials_per_mode))
        dims = self.layer_dims  # the six input features in, angle and moment out
        if len(dims) < 2 or dims[0] != 6 or dims[-1] != 2 or min(dims) < 1:
            raise ConfigError(f"layer_dims must be >= 2 positive sizes from 6 to 2, got {dims}")
        if self.phase_bins < 2:
            raise ConfigError(f"phase_bins must be >= 2, got {self.phase_bins}")
        grids = (self.svr_grid_c, self.svr_grid_epsilon, self.svr_grid_gamma)
        if any(g is not None for g in grids) and not all(g for g in grids):
            raise ConfigError(
                "svr_grid_c, svr_grid_epsilon, and svr_grid_gamma must be set "
                "together as non-empty lists"
            )
        if self.svr_grid_folds < 2:
            raise ConfigError(f"svr_grid_folds must be >= 2, got {self.svr_grid_folds}")
        # an unusable SMO setting fails here, before any model is fitted
        grid = product(*grids) if self.svr_grid_c is not None else ()
        for c, epsilon, gamma in [(self.svr_c, self.svr_epsilon, self.svr_gamma), *grid]:
            check_svr_settings(c, epsilon, gamma, self.svr_tol, self.svr_max_updates)
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
        try:
            data = json.loads(Path(path).read_text(encoding="utf-8"))
        except (OSError, ValueError) as exc:  # unreadable, not UTF-8, or not JSON
            raise ConfigError(f"{path}: cannot read a JSON config: {exc}") from None
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

    def _build(self, cls, **replaced):
        """cls from this config's fields of the same names, except those replaced."""
        return cls(**{f.name: getattr(self, f.name) for f in fields(cls)} | replaced)

    def synth_config(self) -> SynthConfig:
        return self._build(SynthConfig)

    def train_config(self, shuffle_seed: Optional[int] = None) -> TrainConfig:
        seed = self.shuffle_seed if shuffle_seed is None else shuffle_seed
        return self._build(TrainConfig, shuffle_seed=seed)
