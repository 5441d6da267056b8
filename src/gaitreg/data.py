"""Gait trial containers, trial CSV interchange, and leave-one-out splitting.

A trial is one gait cycle (heel contact to ipsilateral heel contact) of
hip/knee/ankle angles plus ankle moment, sampled uniformly.  Angles are
degrees, moments newton-meters; files carry no unit metadata beyond the
fixed header.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path
from typing import Iterator, Sequence

import numpy as np

from .errors import ConfigError, ParseError, PipelineError
from .ioutil import atomic_write_text

MIN_TRIAL_SAMPLES = 16

CSV_HEADER = "time_s,theta_hip_deg,theta_knee_deg,theta_ankle_deg,tau_ankle_Nm"


class LocomotionMode(Enum):
    """The five terrain/task categories a trial can belong to."""

    NormalWalk = 0
    StairAscent = 1
    StairDescent = 2
    SlopeAscent = 3
    SlopeDescent = 4

    @classmethod
    def parse(cls, name: str) -> "LocomotionMode":
        """Exact, case-sensitive variant lookup."""
        try:
            return cls[name]
        except KeyError:
            raise ParseError(f"unknown locomotion mode {name!r}") from None


def _as_readonly(values: Sequence[float], name: str) -> np.ndarray:
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim != 1:
        raise ConfigError(f"{name} must be one-dimensional")
    arr = arr.copy()
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class GaitTrial:
    """One gait cycle of joint time series; immutable after construction."""

    trial_id: str
    mode: LocomotionMode
    sample_rate_hz: float
    theta_hip: np.ndarray
    theta_knee: np.ndarray
    theta_ankle: np.ndarray
    tau_ankle: np.ndarray

    def __post_init__(self):
        for name in ("theta_hip", "theta_knee", "theta_ankle", "tau_ankle"):
            column = _as_readonly(getattr(self, name), name)
            finite = np.isfinite(column)
            if not finite.all():
                index = int(finite.argmin())
                raise ConfigError(
                    f"trial {self.trial_id!r}: {name} sample {index} is not finite "
                    f"({column[index]})"
                )
            object.__setattr__(self, name, column)
        n = len(self.theta_hip)
        for name in ("theta_knee", "theta_ankle", "tau_ankle"):
            if len(getattr(self, name)) != n:
                raise ConfigError(
                    f"trial {self.trial_id!r}: column length mismatch: "
                    f"theta_hip has {n} samples, {name} has {len(getattr(self, name))}"
                )
        if n < MIN_TRIAL_SAMPLES:
            raise ConfigError(
                f"trial {self.trial_id!r} has {n} samples; need at least {MIN_TRIAL_SAMPLES}"
            )
        if not (self.sample_rate_hz > 0.0 and np.isfinite(self.sample_rate_hz)):
            raise ConfigError(f"trial {self.trial_id!r}: sample_rate_hz must be positive")
        object.__setattr__(self, "sample_rate_hz", float(self.sample_rate_hz))
        if not self.trial_id:
            raise ConfigError("trial_id must be non-empty")

    @property
    def n_samples(self) -> int:
        return len(self.theta_hip)


@dataclass(frozen=True)
class GaitDataset:
    """Ordered collection of trials with unique ids."""

    trials: tuple[GaitTrial, ...] = field(default_factory=tuple)

    def __post_init__(self):
        object.__setattr__(self, "trials", tuple(self.trials))
        if not self.trials:
            raise ConfigError("dataset must contain at least one trial")
        ids = [t.trial_id for t in self.trials]
        if len(set(ids)) != len(ids):
            dupes = sorted({i for i in ids if ids.count(i) > 1})
            raise ConfigError(f"duplicate trial_ids: {dupes}")

    def __len__(self) -> int:
        return len(self.trials)

    def __iter__(self) -> Iterator[GaitTrial]:
        return iter(self.trials)

    @property
    def trial_ids(self) -> tuple[str, ...]:
        return tuple(t.trial_id for t in self.trials)

    def total_rows(self) -> int:
        return sum(t.n_samples for t in self.trials)

    def counts_by_mode(self) -> dict[LocomotionMode, int]:
        counts = {m: 0 for m in LocomotionMode}
        for t in self.trials:
            counts[t.mode] += 1
        return {m: c for m, c in counts.items() if c > 0}


def loo_splits(dataset: GaitDataset) -> list[tuple[GaitTrial, GaitDataset]]:
    """All leave-one-out splits, one per trial, in dataset order.

    Each split pairs the held-out trial with a dataset of the remaining
    trials; the union of the two always equals the input dataset.
    """
    if len(dataset) < 2:
        raise ConfigError(f"leave-one-out needs at least 2 trials, got {len(dataset)}")
    splits = []
    for i, held in enumerate(dataset.trials):
        rest = dataset.trials[:i] + dataset.trials[i + 1 :]
        splits.append((held, GaitDataset(rest)))
    return splits


def _parse_meta_line(line: str, path: Path) -> tuple[str, LocomotionMode, float]:
    if not line.startswith("#"):
        raise ParseError(f"{path}: line 1 must start with '#' metadata, got {line[:40]!r}")
    body = line[1:].strip()
    parts = body.split(",")
    if len(parts) != 3:
        raise ParseError(f"{path}: line 1 must have 3 comma-separated fields, got {len(parts)}")
    keys = ("trial_id", "mode", "sample_rate_hz")
    values = {}
    for part, expect in zip(parts, keys):
        if "=" not in part:
            raise ParseError(f"{path}: line 1 field {part!r} is not key=value")
        key, _, value = part.partition("=")
        if key.strip() != expect:
            raise ParseError(f"{path}: line 1 expected key {expect!r}, got {key.strip()!r}")
        values[expect] = value.strip()
    try:
        mode = LocomotionMode.parse(values["mode"])
    except ParseError as exc:
        raise ParseError(f"{path}: line 1 {exc}") from None
    try:
        fs = float(values["sample_rate_hz"])
    except ValueError:
        raise ParseError(
            f"{path}: line 1 sample_rate_hz {values['sample_rate_hz']!r} is not numeric"
        ) from None
    if not (fs > 0.0 and np.isfinite(fs)):
        raise ParseError(f"{path}: line 1 sample_rate_hz {fs!r} must be positive and finite")
    return values["trial_id"], mode, fs


def load_trial_csv(path: str | Path) -> GaitTrial:
    """Read one trial file; raises ParseError naming the offending row/column."""
    path = Path(path)
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: byte {exc.start} is not valid UTF-8") from None
    if len(lines) < 3:
        raise ParseError(f"{path}: file needs a metadata line, a header, and data rows")
    trial_id, mode, fs = _parse_meta_line(lines[0], path)
    if lines[1] != CSV_HEADER:
        raise ParseError(f"{path}: line 2 header must be {CSV_HEADER!r}, got {lines[1]!r}")
    columns = CSV_HEADER.split(",")
    rows = []
    linenos = []
    for lineno, line in enumerate(lines[2:], start=3):
        if not line:
            continue
        cells = line.split(",")
        if len(cells) != 5:
            raise ParseError(
                f"{path}: row {lineno}: column length mismatch: expected 5 values, got {len(cells)}"
            )
        parsed = []
        for col, cell in zip(columns, cells):
            try:
                parsed.append(float(cell))
            except ValueError:
                raise ParseError(
                    f"{path}: row {lineno}, column {col!r}: non-numeric cell {cell!r}"
                ) from None
        rows.append(parsed)
        linenos.append(lineno)
    data = np.asarray(rows, dtype=np.float64)
    finite = np.isfinite(data)
    if not finite.all():
        row, col = np.argwhere(~finite)[0]
        raise ParseError(
            f"{path}: row {linenos[row]}, column {columns[col]!r}: "
            f"non-finite value {float(data[row, col])!r}"
        )
    expected_t = np.arange(len(data)) / fs
    if not np.allclose(data[:, 0], expected_t, rtol=0.0, atol=1e-9 + 1e-9 / fs):
        bad = int(np.argmax(np.abs(data[:, 0] - expected_t)))
        raise ParseError(
            f"{path}: row {linenos[bad]}: time_s {float(data[bad, 0])!r} deviates from "
            f"uniform spacing 1/{fs} starting at 0"
        )
    try:
        return GaitTrial(
            trial_id=trial_id,
            mode=mode,
            sample_rate_hz=fs,
            theta_hip=data[:, 1],
            theta_knee=data[:, 2],
            theta_ankle=data[:, 3],
            tau_ankle=data[:, 4],
        )
    except ConfigError as exc:
        raise ParseError(f"{path}: {exc}") from None


def trial_csv_text(trial: GaitTrial) -> str:
    """Render a trial to CSV text; floats use repr so reload is exact."""
    out = [
        f"# trial_id={trial.trial_id},mode={trial.mode.name},"
        f"sample_rate_hz={float(trial.sample_rate_hz)!r}",
        CSV_HEADER,
    ]
    fs = trial.sample_rate_hz
    cols = (trial.theta_hip, trial.theta_knee, trial.theta_ankle, trial.tau_ankle)
    for i, row in enumerate(zip(*(col.tolist() for col in cols))):
        out.append(f"{i / fs!r},{','.join(map(repr, row))}")
    return "\n".join(out) + "\n"


def write_trial_csv(trial: GaitTrial, path: str | Path) -> Path:
    if "," in trial.trial_id or "\n" in trial.trial_id:
        raise ConfigError(f"trial_id {trial.trial_id!r} cannot contain ',' or newlines")
    return atomic_write_text(path, trial_csv_text(trial))


def load_dataset_dir(directory: str | Path) -> GaitDataset:
    """Load every *.csv in a directory (sorted by filename) as one dataset.

    A trial_id used by two files is a ParseError naming both.
    """
    directory = Path(directory)
    paths = sorted(directory.glob("*.csv"))
    if not paths:
        raise PipelineError(f"no trials found in {directory}")
    first_path = {}
    trials = []
    for path in paths:
        trial = load_trial_csv(path)
        other = first_path.get(trial.trial_id)
        if other is not None:
            raise ParseError(f"{path}: trial_id {trial.trial_id!r} is already used by {other}")
        first_path[trial.trial_id] = path
        trials.append(trial)
    return GaitDataset(tuple(trials))
