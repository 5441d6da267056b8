import re

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from gaitreg import loo_splits
from gaitreg.data import (
    COLUMNS,
    MIN_TRIAL_SAMPLES,
    MODES,
    GaitDataset,
    GaitTrial,
    load_dataset_dir,
    load_trial_csv,
    trial_csv_text,
    write_trial_csv,
)
from gaitreg.errors import ConfigError, ParseError, PipelineError


def make_trial(trial_id="t0", mode="NormalWalk", n=120, fs=200.0):
    t = np.arange(n) / fs
    samples = np.column_stack(
        [
            10 * np.sin(2 * np.pi * t),
            20 + 5 * np.cos(2 * np.pi * t),
            np.linspace(-5, 5, n),
            np.linspace(0, -30, n),
        ]
    )
    return GaitTrial(trial_id=trial_id, mode=mode, sample_rate_hz=fs, samples=samples)


def write_csv_text(path, text):
    path.write_text(text)
    return path


FINITE = st.floats(allow_nan=False, allow_infinity=False)
SAMPLE_COLUMNS = st.integers(MIN_TRIAL_SAMPLES, 40).flatmap(
    lambda n: st.lists(st.lists(FINITE, min_size=n, max_size=n), min_size=4, max_size=4)
)
ZEROS = [[0.0] * MIN_TRIAL_SAMPLES] * 4


class TestGaitTrial:
    def test_valid_construction(self):
        trial = make_trial()
        assert trial.n_samples == 120

    @pytest.mark.parametrize("shape", [(120, 3), (120,), (120, 5)])
    def test_samples_that_are_not_n_by_4_rejected_naming_the_shape(self, shape):
        with pytest.raises(ConfigError, match=re.escape(f"trial 'bad': samples of shape {shape}")):
            GaitTrial("bad", "NormalWalk", 200.0, np.zeros(shape))

    def test_columns_are_views_of_the_samples_in_csv_order(self):
        trial = make_trial()
        assert COLUMNS == ("theta_hip", "theta_knee", "theta_ankle", "tau_ankle")
        for k, name in enumerate(COLUMNS):
            column = getattr(trial, name)
            assert np.shares_memory(column, trial.samples)
            assert np.array_equal(column, trial.samples[:, k])

    def test_too_short_rejected(self):
        with pytest.raises(ConfigError, match="at least 16"):
            make_trial(n=15)

    @pytest.mark.parametrize("column", ["theta_hip", "theta_knee", "theta_ankle", "tau_ankle"])
    def test_non_finite_sample_names_trial_column_and_index(self, column):
        # columns are scanned in order, so a later column's earlier NaN is not the one named
        k = COLUMNS.index(column)
        samples = np.zeros((40, 4))
        samples[[7, 30], k] = [np.nan, np.inf]
        samples[2, k + 1 :] = np.nan
        with pytest.raises(ConfigError, match=f"trial 'bad': {column} sample 7 is not finite"):
            GaitTrial("bad", "NormalWalk", 200.0, samples)

    @pytest.mark.parametrize("mode", ["Jogging", "normalwalk", 0])
    def test_unknown_mode_rejected_naming_trial_and_mode(self, mode):
        with pytest.raises(ConfigError, match=f"trial 'a': unknown locomotion mode {mode!r}"):
            make_trial("a", mode)

    @pytest.mark.parametrize(
        "samples",
        [
            [[1, 2, 3, 4]] * 16 + [[1, 2]],
            [[1, 2, 3, 4]] * 15 + [[1, 2, "three", 4]],
            [[1, 2, 3, 4]] * 15 + [[1, 2, {}, 4]],
        ],
        ids=["ragged", "non-numeric-str", "non-numeric-object"],
    )
    def test_samples_that_are_not_a_matrix_of_numbers_rejected_naming_trial(self, samples):
        with pytest.raises(ConfigError, match=r"trial 'bad': samples are not an \(n, 4\) matrix"):
            GaitTrial("bad", "NormalWalk", 200.0, samples)

    @pytest.mark.parametrize("rate", ["abc", "200", None, 0.0, -1.0, np.inf, np.nan])
    def test_rate_that_is_not_a_positive_number_rejected_naming_trial(self, rate):
        with pytest.raises(
            ConfigError,
            match=re.escape(f"trial 'bad': sample_rate_hz must be a positive finite number, "
                            f"got {rate!r}"),
        ):
            GaitTrial("bad", "NormalWalk", rate, np.zeros((16, 4)))

    @pytest.mark.parametrize("trial_id", [123, None, b"t0"])
    def test_trial_id_that_is_not_a_string_rejected(self, trial_id):
        with pytest.raises(ConfigError, match=re.escape(f"trial_id {trial_id!r} is not a string")):
            GaitTrial(trial_id, "NormalWalk", 200.0, np.zeros((16, 4)))

    def test_arrays_are_immutable(self):
        trial = make_trial()
        with pytest.raises(ValueError):
            trial.theta_hip[0] = 99.0
        with pytest.raises(ValueError):
            trial.samples[0, 3] = 99.0

    def test_samples_are_a_copy(self):
        samples = make_trial().samples.copy()
        trial = GaitTrial("t", "NormalWalk", 200.0, samples)
        samples[0, 0] = 99.0
        assert trial.theta_hip[0] != 99.0


class TestDataset:
    def test_duplicate_ids_rejected(self):
        with pytest.raises(ConfigError, match="duplicate"):
            GaitDataset((make_trial("a"), make_trial("a")))

    def test_counts_by_mode(self):
        ds = GaitDataset(
            (
                make_trial("a", "NormalWalk"),
                make_trial("b", "StairAscent"),
                make_trial("c", "StairAscent"),
            )
        )
        assert ds.counts_by_mode() == {
            "NormalWalk": 1,
            "StairAscent": 2,
        }


class TestCsvRoundTrip:
    def test_well_formed_file_loads(self, tmp_path):
        trial = make_trial(n=120)
        path = write_trial_csv(trial, tmp_path / "t0.csv")
        loaded = load_trial_csv(path)
        assert loaded.trial_id == "t0"
        assert loaded.mode == "NormalWalk"
        assert loaded.n_samples == 120
        assert np.array_equal(loaded.theta_hip, trial.theta_hip)
        assert np.array_equal(loaded.tau_ankle, trial.tau_ankle)

    def test_write_load_write_is_bit_identical(self, tmp_path):
        trial = make_trial()
        text = trial_csv_text(trial)
        path = write_csv_text(tmp_path / "t.csv", text)
        assert trial_csv_text(load_trial_csv(path)) == text

    @example(trial_id=" x", mode="NormalWalk", columns=ZEROS, rate=200.0)
    @example(trial_id="a\rb", mode="NormalWalk", columns=ZEROS, rate=200.0)
    @example(trial_id="a\u2028b", mode="NormalWalk", columns=ZEROS, rate=200.0)
    @example(trial_id="a\ud800", mode="NormalWalk", columns=ZEROS, rate=200.0)
    @settings(suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(
        trial_id=st.text(min_size=1, max_size=12),
        mode=st.sampled_from(MODES),
        columns=SAMPLE_COLUMNS,
        rate=st.floats(min_value=0.0, exclude_min=True, allow_infinity=False),
    )
    def test_write_then_load_is_bit_identical_or_refused(
        self, tmp_path, trial_id, mode, columns, rate
    ):
        trial = GaitTrial(trial_id, mode, rate, np.column_stack(columns))
        path = tmp_path / "t.csv"
        try:
            write_trial_csv(trial, path)
        except ConfigError:
            return
        loaded = load_trial_csv(path)
        assert (loaded.trial_id, loaded.mode, loaded.sample_rate_hz) == (trial_id, mode, rate)
        assert loaded.samples.tobytes() == trial.samples.tobytes()

    @pytest.mark.parametrize(
        "trial_id", ["a,b", "a\nb", "a\rb", "a\fb", "a\u2028b", " pad ", "a\ud800"]
    )
    def test_unreadable_trial_id_refused_by_name(self, tmp_path, trial_id):
        with pytest.raises(ConfigError, match=re.escape(repr(trial_id))):
            write_trial_csv(make_trial(trial_id), tmp_path / "t.csv")
        assert not (tmp_path / "t.csv").exists()

    def test_rate_with_non_finite_times_refused(self, tmp_path):
        trial = GaitTrial("x", "NormalWalk", 1e-310, np.column_stack(ZEROS))
        with pytest.raises(ConfigError, match="sample_rate_hz 1e-310"):
            write_trial_csv(trial, tmp_path / "t.csv")

    def test_rows_render_each_sample_with_repr(self):
        awkward = np.resize([-0.0, 5e-324, 1e300, 0.1 + 0.2], 20)
        cols = [awkward, awkward[::-1], np.roll(awkward, 1), np.roll(awkward, 2)]
        trial = GaitTrial("odd", "StairAscent", 100.0, np.column_stack(cols))
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

    @pytest.mark.parametrize(
        "first, second, named",
        [
            ("short", "word", "row 6: column length mismatch: expected 5 values, got 4"),
            ("word", "short", "row 6, column 'theta_knee_deg': non-numeric cell 'oops'"),
            ("long", "word", "row 6: column length mismatch: expected 5 values, got 6"),
            # 4 + 6 cells fill two rows' worth: the widths are checked row by row
            ("short", "long", "row 6: column length mismatch: expected 5 values, got 4"),
        ],
    )
    def test_first_bad_row_is_named_whatever_follows(self, tmp_path, first, second, named):
        lines = trial_csv_text(make_trial()).splitlines()
        for index, fault in ((5, first), (9, second)):
            cells = lines[index].split(",")
            if fault == "short":
                cells = cells[:4]
            elif fault == "long":
                cells.append("1.0")
            else:
                cells[2] = "oops"
            lines[index] = ",".join(cells)
        path = write_csv_text(tmp_path / "bad.csv", "\n".join(lines))
        with pytest.raises(ParseError) as exc:
            load_trial_csv(path)
        assert str(exc.value) == f"{path}: {named}"

    def test_every_row_short_names_the_first(self, tmp_path):
        lines = trial_csv_text(make_trial()).splitlines()
        lines[2:] = [",".join(line.split(",")[:4]) for line in lines[2:]]
        path = write_csv_text(tmp_path / "bad.csv", "\n".join(lines))
        with pytest.raises(ParseError, match="row 3: column length mismatch.*got 4"):
            load_trial_csv(path)

    def test_file_without_data_rows_rejected(self, tmp_path):
        lines = trial_csv_text(make_trial()).splitlines()[:2]
        path = write_csv_text(tmp_path / "bad.csv", "\n".join(lines + ["", ""]) + "\n")
        with pytest.raises(ParseError, match="bad.csv: file has no data rows"):
            load_trial_csv(path)

    @pytest.mark.parametrize(
        "spelling", [" 2.5", "2.5 ", "\t2.5", "1_0", "+.5", "5.", "1e-400", "١٢"]
    )
    def test_spellings_float_accepts_load_as_float_reads_them(self, tmp_path, spelling):
        lines = trial_csv_text(make_trial()).splitlines()
        cells = lines[5].split(",")
        cells[3] = spelling
        lines[5] = ",".join(cells)
        loaded = load_trial_csv(write_csv_text(tmp_path / "odd.csv", "\n".join(lines)))
        assert loaded.theta_ankle[3] == float(spelling)

    @pytest.mark.parametrize("spelling", ["", " ", "0x10", "1__0", "_1", "1d5", "1j", "True"])
    def test_spellings_float_rejects_name_row_and_column(self, tmp_path, spelling):
        lines = trial_csv_text(make_trial()).splitlines()
        cells = lines[5].split(",")
        cells[3] = spelling
        lines[5] = ",".join(cells)
        path = write_csv_text(tmp_path / "bad.csv", "\n".join(lines))
        with pytest.raises(ParseError) as exc:
            load_trial_csv(path)
        assert str(exc.value) == (
            f"{path}: row 6, column 'theta_ankle_deg': non-numeric cell {spelling!r}"
        )

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

    @pytest.mark.filterwarnings("error")
    def test_sample_rate_whose_times_overflow_rejected(self, tmp_path):
        # 1e-9 / fs overflows too, so only the infinite expected times can fail the check;
        # the overflow itself is expected and must not warn
        text = trial_csv_text(make_trial()).replace("rate_hz=200.0", "rate_hz=5e-324")
        path = write_csv_text(tmp_path / "bad.csv", text)
        with pytest.raises(ParseError, match="bad.csv: row 4: time_s 0.005 deviates"):
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
