import numpy as np
import pytest

from gaitreg import loo_splits
from gaitreg.data import (
    GaitDataset,
    GaitTrial,
    LocomotionMode,
    load_dataset_dir,
    load_trial_csv,
    trial_csv_text,
    write_trial_csv,
)
from gaitreg.errors import ConfigError, ParseError, PipelineError


def make_trial(trial_id="t0", mode=LocomotionMode.NormalWalk, n=120, fs=200.0):
    t = np.arange(n) / fs
    return GaitTrial(
        trial_id=trial_id,
        mode=mode,
        sample_rate_hz=fs,
        theta_hip=10 * np.sin(2 * np.pi * t),
        theta_knee=20 + 5 * np.cos(2 * np.pi * t),
        theta_ankle=np.linspace(-5, 5, n),
        tau_ankle=np.linspace(0, -30, n),
    )


def write_csv_text(path, text):
    path.write_text(text)
    return path


class TestGaitTrial:
    def test_valid_construction(self):
        trial = make_trial()
        assert trial.n_samples == 120

    def test_length_mismatch_rejected(self):
        with pytest.raises(ConfigError, match="column length mismatch"):
            GaitTrial(
                trial_id="bad",
                mode=LocomotionMode.NormalWalk,
                sample_rate_hz=200.0,
                theta_hip=np.zeros(120),
                theta_knee=np.zeros(119),
                theta_ankle=np.zeros(120),
                tau_ankle=np.zeros(120),
            )

    def test_too_short_rejected(self):
        with pytest.raises(ConfigError, match="at least 16"):
            make_trial(n=15)

    @pytest.mark.parametrize("column", ["theta_hip", "theta_knee", "theta_ankle", "tau_ankle"])
    def test_non_finite_sample_names_trial_column_and_index(self, column):
        names = ("theta_hip", "theta_knee", "theta_ankle", "tau_ankle")
        columns = {name: np.zeros(40) for name in names}
        columns[column][[7, 30]] = [np.nan, np.inf]
        with pytest.raises(ConfigError, match=f"trial 'bad': {column} sample 7 is not finite"):
            GaitTrial("bad", LocomotionMode.NormalWalk, 200.0, **columns)

    def test_arrays_are_immutable(self):
        trial = make_trial()
        with pytest.raises(ValueError):
            trial.theta_hip[0] = 99.0


class TestDataset:
    def test_duplicate_ids_rejected(self):
        with pytest.raises(ConfigError, match="duplicate"):
            GaitDataset((make_trial("a"), make_trial("a")))

    def test_counts_by_mode(self):
        ds = GaitDataset(
            (
                make_trial("a", LocomotionMode.NormalWalk),
                make_trial("b", LocomotionMode.StairAscent),
                make_trial("c", LocomotionMode.StairAscent),
            )
        )
        assert ds.counts_by_mode() == {
            LocomotionMode.NormalWalk: 1,
            LocomotionMode.StairAscent: 2,
        }


class TestCsvRoundTrip:
    def test_well_formed_file_loads(self, tmp_path):
        trial = make_trial(n=120)
        path = write_trial_csv(trial, tmp_path / "t0.csv")
        loaded = load_trial_csv(path)
        assert loaded.trial_id == "t0"
        assert loaded.mode is LocomotionMode.NormalWalk
        assert loaded.n_samples == 120
        assert np.array_equal(loaded.theta_hip, trial.theta_hip)
        assert np.array_equal(loaded.tau_ankle, trial.tau_ankle)

    def test_write_load_write_is_bit_identical(self, tmp_path):
        trial = make_trial()
        text = trial_csv_text(trial)
        path = write_csv_text(tmp_path / "t.csv", text)
        assert trial_csv_text(load_trial_csv(path)) == text

    def test_rows_render_each_sample_with_repr(self):
        awkward = np.resize([-0.0, 5e-324, 1e300, 0.1 + 0.2], 20)
        cols = [awkward, awkward[::-1], np.roll(awkward, 1), np.roll(awkward, 2)]
        trial = GaitTrial("odd", LocomotionMode.StairAscent, 100.0, *cols)
        rows = trial_csv_text(trial).splitlines()[2:]
        assert rows == [
            ",".join([repr(i / 100.0)] + [repr(float(col[i])) for col in cols])
            for i in range(20)
        ]
        assert rows[1] == "0.01,5e-324,1e+300,-0.0,0.30000000000000004"

    def test_unknown_mode_rejected(self, tmp_path):
        text = trial_csv_text(make_trial()).replace("mode=NormalWalk", "mode=Jogging")
        path = write_csv_text(tmp_path / "bad.csv", text)
        with pytest.raises(ParseError, match="unknown locomotion mode"):
            load_trial_csv(path)

    def test_short_row_names_row(self, tmp_path):
        lines = trial_csv_text(make_trial()).splitlines()
        lines[10] = ",".join(lines[10].split(",")[:4])  # drop one cell in row 11
        path = write_csv_text(tmp_path / "bad.csv", "\n".join(lines))
        with pytest.raises(ParseError, match="row 11.*column length mismatch"):
            load_trial_csv(path)

    def test_non_numeric_cell_names_row_and_column(self, tmp_path):
        lines = trial_csv_text(make_trial()).splitlines()
        cells = lines[5].split(",")
        cells[2] = "oops"
        lines[5] = ",".join(cells)
        path = write_csv_text(tmp_path / "bad.csv", "\n".join(lines))
        with pytest.raises(ParseError, match="row 6.*theta_knee_deg.*oops"):
            load_trial_csv(path)

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
    def test_non_finite_cell_names_row_and_column(self, tmp_path, cell):
        lines = trial_csv_text(make_trial()).splitlines()
        cells = lines[5].split(",")
        cells[4] = cell
        lines[5] = ",".join(cells)
        path = write_csv_text(tmp_path / "bad.csv", "\n".join(lines))
        with pytest.raises(ParseError, match=f"bad.csv: row 6, column 'tau_ankle_Nm'.*{cell}"):
            load_trial_csv(path)

    def test_bad_header_rejected(self, tmp_path):
        lines = trial_csv_text(make_trial()).splitlines()
        lines[1] = "time,hip,knee,ankle,tau"
        path = write_csv_text(tmp_path / "bad.csv", "\n".join(lines))
        with pytest.raises(ParseError, match="header"):
            load_trial_csv(path)

    def test_non_uniform_time_rejected(self, tmp_path):
        lines = trial_csv_text(make_trial()).splitlines()
        cells = lines[7].split(",")
        cells[0] = "0.5"
        lines[7] = ",".join(cells)
        path = write_csv_text(tmp_path / "bad.csv", "\n".join(lines))
        with pytest.raises(ParseError, match="uniform spacing"):
            load_trial_csv(path)

    def test_non_utf8_file_names_path(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_bytes(trial_csv_text(make_trial()).encode("utf-8") + b"\xff\n")
        with pytest.raises(ParseError, match="bad.csv: byte .* not valid UTF-8"):
            load_trial_csv(path)

    @pytest.mark.parametrize("rate", ["0.0", "-200.0", "nan", "inf"])
    def test_unusable_sample_rate_names_path(self, tmp_path, rate):
        text = trial_csv_text(make_trial()).replace("rate_hz=200.0", f"rate_hz={rate}")
        path = write_csv_text(tmp_path / "bad.csv", text)
        with pytest.raises(ParseError, match="bad.csv: line 1 sample_rate_hz .* positive"):
            load_trial_csv(path)

    def test_duplicate_ids_across_files_name_both(self, tmp_path):
        write_trial_csv(make_trial("a"), tmp_path / "a.csv")
        write_trial_csv(make_trial("a"), tmp_path / "b.csv")
        with pytest.raises(ParseError, match="b.csv: trial_id 'a' is already used by .*a.csv"):
            load_dataset_dir(tmp_path)

    def test_load_dataset_dir_sorted_and_empty(self, tmp_path):
        write_trial_csv(make_trial("b"), tmp_path / "b.csv")
        write_trial_csv(make_trial("a"), tmp_path / "a.csv")
        ds = load_dataset_dir(tmp_path)
        assert ds.trial_ids == ("a", "b")
        with pytest.raises(PipelineError, match="no trials found"):
            load_dataset_dir(tmp_path / "missing")


class TestLooSplits:
    def test_two_trials_swap(self):
        ds = GaitDataset((make_trial("a"), make_trial("b")))
        splits = loo_splits(ds)
        assert len(splits) == 2
        assert splits[0][0].trial_id == "a" and splits[0][1].trial_ids == ("b",)
        assert splits[1][0].trial_id == "b" and splits[1][1].trial_ids == ("a",)

    def test_single_trial_rejected(self):
        with pytest.raises(ConfigError, match="at least 2"):
            loo_splits(GaitDataset((make_trial("a"),)))

    def test_partition_family_property(self, small_dataset):
        splits = loo_splits(small_dataset)
        assert len(splits) == len(small_dataset)
        held_ids = []
        for held, train in splits:
            held_ids.append(held.trial_id)
            assert len(train) == len(small_dataset) - 1
            assert held.trial_id not in train.trial_ids
            assert sorted(train.trial_ids + (held.trial_id,)) == sorted(
                small_dataset.trial_ids
            )
        # exact coverage: each trial held out exactly once
        assert sorted(held_ids) == sorted(small_dataset.trial_ids)

    def test_default_dataset_has_41_splits(self, default_dataset):
        assert len(loo_splits(default_dataset)) == 41
