"""Gait trial containers, trial CSV interchange, and leave-one-out splitting.

A trial is one gait cycle (heel contact to ipsilateral heel contact) of
hip/knee/ankle angles plus ankle moment, sampled together and uniformly:
one (n, 4) matrix, a column per COLUMNS name.  Angles are degrees,
moments newton-meters; files carry no unit metadata beyond the fixed header.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain
from numbers import Real
from pathlib import Path
from typing import Iterator

import numpy as np

from .errors import ConfigError, ParseError, PipelineError
from .ioutil import atomic_write_text

MIN_TRIAL_SAMPLES = 16

CSV_HEADER = "time_s,theta_hip_deg,theta_knee_deg,theta_ankle_deg,tau_ankle_Nm"

# a trial's sample columns, in the CSV's order after time_s
COLUMNS = ("theta_hip", "theta_knee", "theta_ankle", "tau_ankle")


# the five terrain/task categories a trial can belong to, in report order
MODES = ("NormalWalk", "StairAscent", "StairDescent", "SlopeAscent", "SlopeDescent")


def _column(k: int) -> property:
    return property(lambda trial: trial.samples[:, k], doc=f"Read-only view of samples[:, {k}].")


@dataclass(frozen=True)
class GaitTrial:
    """One immutable gait cycle: a MODES name and a read-only copy of its finite (n, 4) samples."""

    trial_id: str
    mode: str
    sample_rate_hz: float
    samples: np.ndarray

    theta_hip = _column(0)
    theta_knee = _column(1)
    theta_ankle = _column(2)
    tau_ankle = _column(3)

    def __post_init__(self):
        if self.mode not in MODES:
            raise ConfigError(f"trial {self.trial_id!r}: unknown locomotion mode {self.mode!r}")
        try:
            samples = np.array(self.samples, dtype=np.float64)
        except (TypeError, ValueError):  # ragged rows or a cell that is not a number
            raise ConfigError(
                f"trial {self.trial_id!r}: samples are not an (n, 4) matrix of numbers"
            ) from None
        if samples.ndim != 2 or samples.shape[1] != len(COLUMNS):
            raise ConfigError(
                f"trial {self.trial_id!r}: samples of shape {samples.shape} are not (n, 4)"
            )
        finite = np.isfinite(samples)
        if not finite.all():
            col, index = np.argwhere(~finite.T)[0]  # column-major: the first bad column is named
            raise ConfigError(
                f"trial {self.trial_id!r}: {COLUMNS[col]} sample {index} is not finite "
                f"({samples[index, col]})"
            )
        n = len(samples)
        if n < MIN_TRIAL_SAMPLES:
            raise ConfigError(
                f"trial {self.trial_id!r} has {n} samples; need at least {MIN_TRIAL_SAMPLES}"
            )
        samples.flags.writeable = False
        object.__setattr__(self, "samples", samples)
        rate = self.sample_rate_hz
        if not (isinstance(rate, Real) and rate > 0.0 and np.isfinite(rate)):
            raise ConfigError(f"trial {self.trial_id!r}: sample_rate_hz must be a positive "
                              f"finite number, got {rate!r}")
        object.__setattr__(self, "sample_rate_hz", float(rate))
        if not isinstance(self.trial_id, str):
            raise ConfigError(f"trial_id {self.trial_id!r} is not a string")
        if not self.trial_id:
            raise ConfigError("trial_id must be non-empty")

    @property
    def n_samples(self) -> int:
        return len(self.samples)


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

    def counts_by_mode(self) -> dict[str, int]:
        """Trial count per mode name, in MODES order; absent modes are left out."""
        counts = [(m, sum(t.mode == m for t in self.trials)) for m in MODES]
        return {m: c for m, c in counts if c > 0}


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


def _parse_meta_line(line: str, path: Path) -> tuple[str, str, float]:
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
    if values["mode"] not in MODES:
        raise ParseError(f"{path}: line 1 unknown locomotion mode {values['mode']!r}")
    try:
        fs = float(values["sample_rate_hz"])
    except ValueError:
        raise ParseError(
            f"{path}: line 1 sample_rate_hz {values['sample_rate_hz']!r} is not numeric"
        ) from None
    if not (fs > 0.0 and np.isfinite(fs)):
        raise ParseError(f"{path}: line 1 sample_rate_hz {fs!r} must be positive and finite")
    return values["trial_id"], values["mode"], fs


def _first_bad_row(path: Path, lines: list[str], columns) -> ParseError:
    """The error for the first data row that is not len(columns) numeric cells."""
    for lineno, line in _data_lines(lines):
        cells = line.split(",")
        if len(cells) != len(columns):
            return ParseError(
                f"{path}: row {lineno}: column length mismatch: "
                f"expected {len(columns)} values, got {len(cells)}"
            )
        for col, cell in zip(columns, cells):
            try:
                float(cell)
            except ValueError:
                return ParseError(
                    f"{path}: row {lineno}, column {col!r}: non-numeric cell {cell!r}"
                )
    return ParseError(f"{path}: file has no data rows")


def _data_lines(lines: list[str]) -> list[tuple[int, str]]:
    """(1-based line number, text) of every non-blank data line."""
    return [(n, line) for n, line in enumerate(lines[2:], start=3) if line]


def load_trial_csv(path: str | Path) -> GaitTrial:
    """Read one trial file; raises ParseError naming the offending row/column.

    The data rows are parsed flat: one C-level pass checks that every row
    has len(columns) cells, and the cells of all rows are converted in one
    np.array call.  Line numbers are built only when a row is rejected.
    """
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
    rows = [line.split(",") for line in lines[2:] if line]
    if set(map(len, rows)) != {len(columns)}:
        raise _first_bad_row(path, lines, columns)
    try:
        # numpy parses each str with float(), so spellings and bits are float()'s
        data = np.array(list(chain.from_iterable(rows)), dtype=np.float64)
    except ValueError:
        raise _first_bad_row(path, lines, columns) from None
    data = data.reshape(-1, len(columns))
    finite = np.isfinite(data)
    if not finite.all():
        row, col = np.argwhere(~finite)[0]
        raise ParseError(
            f"{path}: row {_data_lines(lines)[row][0]}, column {columns[col]!r}: "
            f"non-finite value {float(data[row, col])!r}"
        )
    with np.errstate(over="ignore"):  # an infinite expected time fails the check below
        expected_t = np.arange(len(data)) / fs
    deviation = np.abs(data[:, 0] - expected_t)
    bad = int(deviation.argmax())
    # allclose(rtol=0): an infinite expected time matches no finite cell
    if not (deviation[bad] <= 1e-9 + 1e-9 / fs and np.isfinite(expected_t[-1])):
        raise ParseError(
            f"{path}: row {_data_lines(lines)[bad][0]}: time_s {float(data[bad, 0])!r} "
            f"deviates from uniform spacing 1/{fs} starting at 0"
        )
    try:
        return GaitTrial(trial_id, mode, fs, data[:, 1:])
    except ConfigError as exc:
        raise ParseError(f"{path}: {exc}") from None


def trial_csv_text(trial: GaitTrial) -> str:
    """Render a trial to CSV text; floats use repr so reload is exact."""
    out = [
        f"# trial_id={trial.trial_id},mode={trial.mode},"
        f"sample_rate_hz={float(trial.sample_rate_hz)!r}",
        CSV_HEADER,
    ]
    fs = trial.sample_rate_hz
    for i, row in enumerate(trial.samples.tolist()):
        out.append(f"{i / fs!r},{','.join(map(repr, row))}")
    return "\n".join(out) + "\n"


def write_trial_csv(trial: GaitTrial, path: str | Path) -> Path:
    """Write a trial as CSV; refuses any trial that load_trial_csv could not read back."""
    trial_id = trial.trial_id
    if "," in trial_id or trial_id.splitlines() != [trial_id]:
        raise ConfigError(f"trial_id {trial_id!r} cannot contain ',' or line breaks")
    if trial_id != trial_id.strip():
        raise ConfigError(f"trial_id {trial_id!r} cannot start or end with whitespace")
    try:
        trial_id.encode("utf-8")
    except UnicodeEncodeError:
        raise ConfigError(f"trial_id {trial_id!r} is not encodable as UTF-8") from None
    if not np.isfinite((trial.n_samples - 1) / trial.sample_rate_hz):
        raise ConfigError(
            f"trial {trial_id!r}: sample_rate_hz {trial.sample_rate_hz!r} gives a non-finite time"
        )
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
