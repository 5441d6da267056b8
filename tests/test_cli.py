import json
import re
import shutil
import subprocess
import sys
import tempfile
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from gaitreg import RunConfig, cli
from gaitreg.data import MODES, GaitTrial, write_trial_csv
from gaitreg.mlp import init
from gaitreg.rng import SplitMix64, derive_seed

SMALL_CFG = {
    "trials_per_mode": {
        "NormalWalk": 2,
        "StairAscent": 2,
        "StairDescent": 2,
        "SlopeAscent": 2,
        "SlopeDescent": 2,
    },
    "samples_per_trial": 48,
    "epochs": 2,
    "svr_max_updates": 1000,
}


def run_cli(*args, check=False, umask=-1):
    proc = subprocess.run(
        [sys.executable, "-m", "gaitreg", *args], capture_output=True, text=True, umask=umask
    )
    if check and proc.returncode != 0:
        raise AssertionError(f"cli failed ({proc.returncode}): {proc.stderr}")
    return proc


def write_cfg(tmp_path, extra=None):
    cfg = dict(SMALL_CFG)
    if extra:
        cfg.update(extra)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return path


def read_tree(root):
    return {
        p.relative_to(root).as_posix(): p.read_bytes()
        for p in sorted(Path(root).rglob("*"))
        if p.is_file()
    }


@pytest.fixture(scope="module")
def synth_dir(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("cli")
    cfg = write_cfg(tmp)
    run_cli("synth", "--config", str(cfg), "--out", str(tmp / "data"), check=True)
    return tmp


class TestVersion:
    def test_version_string(self):
        proc = run_cli("--version")
        assert proc.returncode == 0
        assert "gaitreg 0.1.0" in proc.stdout
        assert "config-schema 1" in proc.stdout


class TestSynth:
    def test_writes_trials_and_manifest(self, synth_dir):
        data = synth_dir / "data"
        csvs = sorted(p.name for p in data.glob("*.csv"))
        assert len(csvs) == 10
        manifest = json.loads((data / "manifest.json").read_text())
        assert sorted(manifest["trial_ids"]) == [p[:-4] for p in csvs]
        assert set(manifest) == {"seed", "trial_ids", "modes", "total_rows"}

    def test_rerun_is_byte_identical(self, synth_dir):
        cfg = synth_dir / "config.json"
        run_cli("synth", "--config", str(cfg), "--out", str(synth_dir / "data2"), check=True)
        assert read_tree(synth_dir / "data") == read_tree(synth_dir / "data2")

    def test_trials_of_another_config_in_out_exit_2_and_nothing_written(self, tmp_path):
        cfg, data = write_cfg(tmp_path), tmp_path / "data"
        run_cli("synth", "--config", str(cfg), "--out", str(data), check=True)
        before = read_tree(data)
        one_each = json.dumps({mode: 1 for mode in SMALL_CFG["trials_per_mode"]})
        proc = run_cli(
            "synth", "--config", str(cfg), "--override", f"trials_per_mode={one_each}",
            "--out", str(data),
        )
        assert proc.returncode == 2
        assert proc.stderr.splitlines() == [
            f"error: {data} holds 5 CSV(s) of other trials, e.g. NormalWalk_01.csv"
        ]
        assert read_tree(data) == before
        # the same config again into the same directory rewrites the same bytes
        run_cli("synth", "--config", str(cfg), "--out", str(data), check=True)
        assert read_tree(data) == before

    @pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)])
    def test_outputs_get_the_mode_open_gives_under_the_umask(self, tmp_path, umask, mode):
        cfg, data = write_cfg(tmp_path), tmp_path / "data"
        run_cli("synth", "--config", str(cfg), "--out", str(data), check=True, umask=umask)
        written = sorted(data.iterdir())
        assert len(written) == 11  # ten trial CSVs and manifest.json
        assert {p.stat().st_mode & 0o777 for p in written} == {mode}

    def test_outputs_get_the_umask_in_force_when_written(self, tmp_path):
        # the umask changes after gaitreg is imported, as a host program may do
        code = (
            "import os, sys\n"
            "from gaitreg.ioutil import atomic_write_text\n"
            "os.umask(0o077)\n"
            "atomic_write_text(sys.argv[1], 'x')\n"
        )
        out = tmp_path / "out.txt"
        subprocess.run([sys.executable, "-c", code, str(out)], check=True, umask=0o022)
        assert out.stat().st_mode & 0o777 == 0o600

    def test_import_and_write_never_set_the_umask(self, tmp_path):
        code = (
            "import os, sys\n"
            "def refuse(mask):\n"
            "    raise AssertionError('os.umask called')\n"
            "os.umask = refuse\n"
            "import gaitreg\n"
            "from gaitreg.ioutil import atomic_write_text\n"
            "atomic_write_text(sys.argv[1], 'x')\n"
        )
        out = tmp_path / "out.txt"
        subprocess.run([sys.executable, "-c", code, str(out)], check=True, umask=0o022)
        assert out.read_text() == "x"
        assert out.stat().st_mode & 0o777 == 0o644

    def test_missing_out_is_usage_error(self):
        proc = run_cli("synth")
        assert proc.returncode == 2

    def test_unknown_config_key_is_config_error(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"learning_rte": 0.1}))
        proc = run_cli("synth", "--config", str(bad), "--out", str(tmp_path / "d"))
        assert proc.returncode == 2
        assert "unknown config keys" in proc.stderr

    def test_default_config_writes_41_trials(self, tmp_path):
        run_cli("synth", "--out", str(tmp_path / "full"), check=True)
        assert len(list((tmp_path / "full").glob("*.csv"))) == 41


class TestLoocv:
    def test_mlp_end_to_end(self, synth_dir, tmp_path):
        cfg = synth_dir / "config.json"
        proc = run_cli(
            "loocv", "--config", str(cfg), "--data", str(synth_dir / "data"),
            "--model", "mlp", "--out", str(tmp_path / "rep"), check=True,
        )
        assert "10 folds" in proc.stdout
        report = json.loads((tmp_path / "rep" / "report.json").read_text())
        assert len(report["folds"]) == 10

    def test_linear_mode_recovery_via_cli(self, tmp_path):
        cfg = write_cfg(
            tmp_path, {"linear_mode": True, "noise_std_deg": 0.0, "filter_targets": False}
        )
        run_cli("synth", "--config", str(cfg), "--out", str(tmp_path / "lin"), check=True)
        run_cli(
            "loocv", "--config", str(cfg), "--data", str(tmp_path / "lin"),
            "--model", "linear", "--out", str(tmp_path / "rep"), check=True,
        )
        lines = (tmp_path / "rep" / "summary.csv").read_text().splitlines()[1:]
        for line in lines:
            r2_mean = float(line.split(",")[2])
            assert r2_mean >= 0.999

    def test_empty_data_dir_fails_with_code_1(self, tmp_path):
        (tmp_path / "empty").mkdir()
        proc = run_cli(
            "loocv", "--data", str(tmp_path / "empty"), "--model", "mlp",
            "--out", str(tmp_path / "rep"),
        )
        assert proc.returncode == 1
        assert "no trials found" in proc.stderr

    def test_nan_cell_fails_with_one_error_line(self, synth_dir, tmp_path):
        data = tmp_path / "data"
        shutil.copytree(synth_dir / "data", data)
        path = sorted(data.glob("*.csv"))[0]
        lines = path.read_text().splitlines()
        cells = lines[5].split(",")
        cells[1] = "nan"
        lines[5] = ",".join(cells)
        path.write_text("\n".join(lines) + "\n")
        proc = run_cli(
            "loocv", "--data", str(data), "--model", "linear", "--out", str(tmp_path / "rep"),
        )
        assert proc.returncode == 1
        [line] = proc.stderr.splitlines()
        assert line.startswith("error: ") and "row 6, column 'theta_hip_deg'" in line

    @pytest.mark.parametrize("mutation", ["non_utf8", "zero_rate", "unknown_mode", "duplicate_id"])
    def test_bad_trial_file_fails_with_one_error_line_naming_it(
        self, synth_dir, tmp_path, mutation
    ):
        data = tmp_path / "data"
        shutil.copytree(synth_dir / "data", data)
        first, second = sorted(data.glob("*.csv"))[:2]
        text = second.read_text()
        meta = text.splitlines()[0]
        if mutation == "non_utf8":
            second.write_bytes(text.encode("utf-8") + b"\xff\n")
        elif mutation == "zero_rate":
            fs = meta.rpartition("=")[2]
            second.write_text(text.replace(meta, meta.replace(f"={fs}", "=0.0"), 1))
        elif mutation == "unknown_mode":
            mode = meta.split(",")[1]
            second.write_text(text.replace(mode, "mode=Jogging", 1))
        else:
            first_id = first.read_text().split(",")[0]
            second.write_text(text.replace(meta.split(",")[0], first_id, 1))
        proc = run_cli(
            "loocv", "--data", str(data), "--model", "linear", "--out", str(tmp_path / "rep"),
        )
        assert proc.returncode == 1
        [line] = proc.stderr.splitlines()
        assert line.startswith("error: ") and second.name in line

    def test_constant_moment_trial_fails_its_fold_by_name(self, synth_dir, tmp_path):
        # the filtered constant keeps rounding noise; its R^2 is undefined
        data = tmp_path / "data"
        shutil.copytree(synth_dir / "data", data)
        path = sorted(data.glob("*.csv"))[1]
        lines = path.read_text().splitlines()
        for i in range(2, len(lines)):
            cells = lines[i].split(",")
            cells[4] = "12.3"
            lines[i] = ",".join(cells)
        path.write_text("\n".join(lines) + "\n")
        proc = run_cli(
            "loocv", "--data", str(data), "--model", "linear", "--out", str(tmp_path / "rep"),
        )
        assert proc.returncode == 1
        [line] = proc.stderr.splitlines()
        assert line.startswith("error: fold 1 ") and repr(path.stem) in line
        assert "r2 of target tau: R^2 is undefined for a constant target" in line

    def test_reused_out_of_a_run_with_more_modes_exits_2_and_nothing_written(
        self, synth_dir, tmp_path
    ):
        data, out = tmp_path / "data", tmp_path / "r"
        shutil.copytree(synth_dir / "data", data)
        args = ("loocv", "--config", str(synth_dir / "config.json"), "--data", str(data),
                "--model", "linear", "--out", str(out))
        run_cli(*args, check=True)
        before = read_tree(out)
        for path in data.glob("StairDescent_*.csv"):
            path.unlink()
        proc = run_cli(*args)
        assert proc.returncode == 2
        assert proc.stderr.splitlines() == [
            f"error: {out} holds 2 entries this run would not write, "
            "e.g. 'phase_mae_StairDescent_tau.svg'; use an empty or new directory"
        ]
        assert read_tree(out) == before

    def test_same_run_again_into_its_out_succeeds(self, synth_dir, tmp_path):
        args = ("loocv", "--config", str(synth_dir / "config.json"),
                "--data", str(synth_dir / "data"), "--model", "linear",
                "--out", str(tmp_path / "r"))
        run_cli(*args, check=True)
        before = read_tree(tmp_path / "r")
        run_cli(*args, check=True)
        assert read_tree(tmp_path / "r") == before

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_jobs_below_one_is_config_error(self, synth_dir, tmp_path, jobs):
        proc = run_cli(
            "loocv", "--data", str(synth_dir / "data"), "--model", "linear",
            "--out", str(tmp_path / "rep"), "--jobs", jobs,
        )
        assert proc.returncode == 2
        assert proc.stderr.splitlines() == [f"error: jobs must be >= 1, got {jobs}"]

    def test_jobs_parallel_output_identical(self, synth_dir, tmp_path):
        cfg = synth_dir / "config.json"
        for jobs, out in (("1", "rep1"), ("2", "rep2")):
            run_cli(
                "loocv", "--config", str(cfg), "--data", str(synth_dir / "data"),
                "--model", "mlp", "--out", str(tmp_path / out), "--jobs", jobs,
                check=True,
            )
        assert read_tree(tmp_path / "rep1") == read_tree(tmp_path / "rep2")

    def test_override_flag_wins_over_config(self, synth_dir, tmp_path):
        cfg = synth_dir / "config.json"
        run_cli(
            "loocv", "--config", str(cfg), "--data", str(synth_dir / "data"),
            "--model", "linear", "--out", str(tmp_path / "rep"),
            "--override", "phase_bins=21", check=True,
        )
        report = json.loads((tmp_path / "rep" / "report.json").read_text())
        assert report["config"]["phase_bins"] == 21
        assert len(report["modes"]["NormalWalk"]["phase_mae"]["theta"]) == 21


# the JSON values of each type, and the types each declared field type admits
JSON_KINDS = {
    "null": st.none(),
    "bool": st.booleans(),
    "int": st.integers(),
    "float": st.floats(),
    "str": st.text(max_size=4),
    "list": st.lists(st.integers(), max_size=3),
    "dict": st.dictionaries(st.text(max_size=3), st.integers(), max_size=2),
}
ADMITTED_KINDS = {
    "bool": {"bool"},
    "int": {"int"},
    "float": {"int", "float"},
    "Optional[float]": {"null", "int", "float"},
    "Optional[list[float]]": {"null", "list"},
    "tuple[int, ...]": {"list"},
    "dict[str, int]": {"dict"},
}


@pytest.fixture(scope="module")
def fuzz_data(tmp_path_factory):
    # three short trials keep each fuzzed leave-one-out run to milliseconds
    data = tmp_path_factory.mktemp("fuzz") / "data"
    trials = {"NormalWalk": 1, "StairAscent": 1, "SlopeDescent": 1}
    assert cli.main([
        "synth", "--out", str(data), "--override", f"trials_per_mode={json.dumps(trials)}",
        "--override", "samples_per_trial=48",
    ]) == 0
    return data


def main_in_process(capsys, *args):
    """cli.main's exit code and its stderr lines; an escaping exception fails the test."""
    code = cli.main(list(args))
    return code, capsys.readouterr().err.splitlines()


class TestConfigBoundary:
    @pytest.mark.parametrize(
        "argv",
        [
            ["synth", "--seed", "7"],
            ["synth", "--linear-mode"],
            ["synth", "--noise-std-deg", "0"],
            ["loocv", "--model", "linear", "--data", "d", "--paper-faithful-norm"],
            ["compare", "--data", "d", "--paper-faithful-norm"],
        ],
    )
    def test_alias_flags_are_gone(self, tmp_path, argv):
        with pytest.raises(SystemExit) as exc:
            cli.main([*argv, "--out", str(tmp_path / "out")])
        assert exc.value.code == 2

    @pytest.mark.parametrize(
        "override, key",
        [
            ("seed=abc", "'seed'"),
            ("seed=true", "seed"),
            ("epochs=2.5", "epochs"),
            ("filter_order=2.5", "filter_order"),
            ("filter_order=0", "filter_order must be >= 1, got 0"),
            ('cutoff_hz="6"', "cutoff_hz"),
            ("cutoff_hz=NaN", "cutoff_hz"),
            ("cutoff_hz=0", "cutoff_hz must be > 0, got 0"),
            ("layer_dims=[5,10,2]", "layer_dims"),
            ("layer_dims=[6,10,3]", "layer_dims"),
            ('trials_per_mode={"NormalWalk": 1.0}', "trials_per_mode"),
            ('svr_gamma="auto"', "svr_gamma"),
        ],
    )
    def test_bad_override_exits_2_naming_the_key(self, capsys, tmp_path, override, key):
        code, err = main_in_process(
            capsys, "synth", "--out", str(tmp_path / "out"), "--override", override
        )
        assert code == 2
        [line] = err
        assert line.startswith("error: ") and key in line
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("model", ["linear", "mlp", "svr"])
    def test_huge_phase_bins_exits_2_before_the_data_is_read(self, capsys, tmp_path, model):
        # a 1e8-bin phase curve per fold used to run past a minute or exhaust memory
        code, err = main_in_process(
            capsys, "loocv", "--data", str(tmp_path / "absent"), "--model", model,
            "--out", str(tmp_path / "rep"), "--override", "phase_bins=100000000",
        )
        assert code == 2
        assert err == ["error: phase_bins must be 2 to 10000, got 100000000"]
        assert not (tmp_path / "rep").exists()

    def test_non_utf8_config_exits_2_naming_the_file(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_bytes(b'{"seed": 1, "note": "\xff"}')
        code, err = main_in_process(
            capsys, "synth", "--config", str(bad), "--out", str(tmp_path / "out")
        )
        assert code == 2
        [line] = err
        assert line.startswith("error: ") and str(bad) in line

    @pytest.mark.parametrize("kind", ["missing", "directory"])
    def test_unreadable_config_path_exits_2_naming_it(self, capsys, tmp_path, kind):
        path = tmp_path / "config.json"
        if kind == "directory":
            path.mkdir()
        code, err = main_in_process(
            capsys, "synth", "--config", str(path), "--out", str(tmp_path / "out")
        )
        assert code == 2
        [line] = err
        assert line.startswith("error: ") and str(path) in line
        assert not (tmp_path / "out").exists()

    @settings(suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_override_of_another_json_type_exits_2(self, capsys, tmp_path, data):
        f = data.draw(st.sampled_from(fields(RunConfig)))
        kind = data.draw(st.sampled_from(sorted(set(JSON_KINDS) - ADMITTED_KINDS[f.type])))
        value = data.draw(JSON_KINDS[kind])
        code, err = main_in_process(
            capsys, "synth", "--out", str(tmp_path / "out"),
            "--override", f"{f.name}={json.dumps(value)}",
        )
        assert code == 2
        [line] = err
        assert line.startswith("error: ") and f.name in line

    @settings(suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(edits=st.lists(
        st.tuples(
            st.sampled_from(["replace", "insert", "delete"]),
            st.integers(0, 10**6),
            st.integers(0, 255),
        ),
        min_size=1,
        max_size=3,
    ))
    def test_byte_edits_of_a_trial_csv_fail_cleanly(self, capsys, tmp_path, fuzz_data, edits):
        work = Path(tempfile.mkdtemp(dir=tmp_path))
        data = work / "data"
        shutil.copytree(fuzz_data, data)
        path = sorted(data.glob("*.csv"))[0]
        raw = bytearray(path.read_bytes())
        for op, where, byte in edits:
            i = where % len(raw)
            if op == "replace":
                raw[i] = byte
            elif op == "insert":
                raw.insert(i, byte)
            else:
                del raw[i]
        path.write_bytes(bytes(raw))
        code, err = main_in_process(
            capsys, "loocv", "--data", str(data), "--model", "linear", "--out", str(work / "rep")
        )
        assert code in (0, 1, 2)
        if code:
            [line] = err
            assert line.startswith("error: ")

    @pytest.mark.parametrize(
        "override, named",
        [
            ("svr_tol=-1", "tol must be positive and finite, got -1"),
            ("svr_tol=0", "tol must be positive and finite, got 0"),
            ("svr_max_updates=0", "max_updates must be >= 1, got 0"),
        ],
    )
    def test_unusable_smo_setting_exits_2_naming_the_value(
        self, capsys, tmp_path, fuzz_data, override, named
    ):
        code, err = main_in_process(
            capsys, "loocv", "--data", str(fuzz_data), "--model", "svr",
            "--out", str(tmp_path / "rep"), "--override", override,
        )
        assert code == 2
        [line] = err
        assert line.startswith("error: ") and named in line

    @pytest.mark.parametrize(
        "overrides, named",
        [
            (["svr_c=-1"], "C=-1"),
            (["svr_gamma=0"], "gamma must be positive and finite, got 0"),
            (
                ["svr_grid_c=[1, -2]", "svr_grid_epsilon=[0.1]", "svr_grid_gamma=[1]"],
                "C=-2",
            ),
            (
                ["svr_grid_c=[1]", "svr_grid_epsilon=[0.1]", "svr_grid_gamma=[1]",
                 "svr_grid_folds=1"],
                "svr_grid_folds must be >= 2, got 1",
            ),
        ],
    )
    def test_compare_with_unusable_svr_setting_exits_2_before_any_fit(
        self, capsys, tmp_path, fuzz_data, overrides, named
    ):
        args = [arg for o in overrides for arg in ("--override", o)]
        code, err = main_in_process(
            capsys, "compare", "--data", str(fuzz_data), "--out", str(tmp_path / "out"), *args
        )
        assert code == 2
        [line] = err
        assert line.startswith("error: ") and named in line
        assert not (tmp_path / "out").exists()

    def test_diverging_mlp_prints_only_its_error_line(self, tmp_path, fuzz_data):
        # a subprocess, so numpy's warnings reach stderr instead of pytest's recorder
        proc = run_cli(
            "loocv", "--data", str(fuzz_data), "--model", "mlp", "--out", str(tmp_path / "rep"),
            "--override", "learning_rate=1e308",
        )
        assert proc.returncode == 1
        [line] = proc.stderr.splitlines()
        assert line.startswith("error: ") and "training diverged at epoch" in line


@pytest.fixture(scope="module")
def one_per_mode(tmp_path_factory):
    data = tmp_path_factory.mktemp("one_per_mode") / "data"
    trials = {mode: 1 for mode in MODES}
    assert cli.main(
        ["synth", "--out", str(data), "--override", f"trials_per_mode={json.dumps(trials)}"]
    ) == 0
    return data


def scale_trial(source, data, trial, columns, factor):
    """Copy the trial CSVs in source to data, with some data columns of one trial times factor."""
    shutil.copytree(source, data)
    path = sorted(data.glob("*.csv"))[trial]
    meta, header, *rows = path.read_text().splitlines()
    for i, row in enumerate(rows):
        time_s, *cells = row.split(",")
        cells = [repr(float(v) * factor) if c in columns else v for c, v in enumerate(cells)]
        rows[i] = ",".join([time_s, *cells])
    path.write_text("\n".join([meta, header, *rows]) + "\n")


def refuse_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


class TestNonFiniteMetrics:
    # numpy's RuntimeWarnings used to reach stderr ahead of the error line
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("factor", [1e300, 1e200, 1e160])
    @pytest.mark.parametrize("model", ["linear", "mlp", "svr"])
    def test_huge_trial_exits_1_naming_fold_target_and_metric(
        self, capsys, tmp_path, one_per_mode, model, factor
    ):
        # one trial's four data columns times factor: its R^2 used to overflow a
        # Python float (1e200) or reach report.json as NaN and Infinity (1e160)
        data = tmp_path / "data"
        scale_trial(one_per_mode, data, 0, range(4), factor)
        code, err = main_in_process(
            capsys, "loocv", "--data", str(data), "--model", model,
            "--out", str(tmp_path / "rep"), "--override", "epochs=2",
        )
        assert code == 1
        [line] = err
        assert re.fullmatch(r"error: fold \d+ \(held-out '\w+'\): (r2|rmse) of target "
                            r"(theta|tau) is (nan|-?inf)", line)
        assert "Traceback" not in line
        assert not (tmp_path / "rep" / "report.json").exists()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @settings(max_examples=30, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(
        model=st.sampled_from(["linear", "mlp", "svr"]),
        trial=st.integers(0, len(MODES) - 1),
        columns=st.sets(st.integers(0, 3), min_size=1),
        factor=st.sampled_from([0.0, 5e-324, -5e-324, 1e-300, -1e-300, 1e308])
        | st.integers(-307, 308).map(lambda k: float(f"1e{k}")),
    )
    def test_any_scale_of_a_trial_exits_cleanly(
        self, capsys, tmp_path, one_per_mode, model, trial, columns, factor
    ):
        # a run may succeed or fail, but a failure is one error line, no
        # RuntimeWarning comes first, and a report holds no NaN or Infinity
        run = Path(tempfile.mkdtemp(dir=tmp_path))
        scale_trial(one_per_mode, run / "data", trial, columns, factor)
        code, err = main_in_process(
            capsys, "loocv", "--data", str(run / "data"), "--model", model,
            "--out", str(run / "rep"), "--override", "epochs=2",
        )
        assert code in (0, 1, 2)
        if code:
            [line] = err
            assert line.startswith("error: ")
        report = run / "rep" / "report.json"
        if code == 0 or report.exists():
            json.loads(report.read_text(), parse_constant=refuse_constant)


def edit_trial(source, data, trial, edit, row, other, byte):
    """Copy the trial CSVs in source to data, with one trial's rows or bytes edited.

    edit drops the data row at index row, duplicates it, or swaps it with
    another row; "byte" overwrites the file's byte at offset row with byte,
    which is never valid UTF-8 there.
    """
    shutil.copytree(source, data)
    path = sorted(data.glob("*.csv"))[trial]
    if edit == "byte":
        raw = path.read_bytes()
        at = row % len(raw)
        path.write_bytes(raw[:at] + bytes([byte]) + raw[at + 1 :])
        return
    meta, header, *rows = path.read_text().splitlines()
    i = min(row, len(rows) - 1)  # large draws drop, duplicate or swap the last row
    if edit == "drop":
        del rows[i]
    elif edit == "duplicate":
        rows.insert(i, rows[i])
    else:
        j = (i + 1 + other % (len(rows) - 1)) % len(rows)  # never i
        rows[i], rows[j] = rows[j], rows[i]
    path.write_text("\n".join([meta, header, *rows]) + "\n")


def assert_every_model_exits_cleanly(capsys, data, out, *overrides):
    """Run loocv of each model on data with epochs=2 and overrides, each in process.

    Each run exits 0, 1 or 2; a failure prints exactly one error: line;
    stderr holds no Traceback or RuntimeWarning; and any report.json
    written parses without NaN or Infinity.
    """
    args = [arg for o in ("epochs=2", *overrides) for arg in ("--override", o)]
    for model in ("linear", "mlp", "svr"):
        code, err = main_in_process(
            capsys, "loocv", "--data", str(data), "--model", model, "--out", str(out / model), *args
        )
        assert code in (0, 1, 2)
        assert not any("Traceback" in line or "RuntimeWarning" in line for line in err)
        if code:
            [line] = err
            assert line.startswith("error: ")
        report = out / model / "report.json"
        if code == 0 or report.exists():
            json.loads(report.read_text(), parse_constant=refuse_constant)


class TestEditedRows:
    # each example runs every model, so each edit reaches each model
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("edit", ["drop", "duplicate", "swap", "byte"])
    @settings(max_examples=5, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(
        trial=st.integers(0, len(MODES) - 1),
        row=st.integers(0, 20_000),
        other=st.integers(0, 1_000),
        byte=st.sampled_from([0x80, 0xC3, 0xFF]),
    )
    def test_a_dropped_duplicated_or_swapped_row_or_a_bad_byte_exits_cleanly(
        self, capsys, tmp_path, one_per_mode, edit, trial, row, other, byte
    ):
        run = Path(tempfile.mkdtemp(dir=tmp_path))
        edit_trial(one_per_mode, run / "data", trial, edit, row, other, byte)
        assert_every_model_exits_cleanly(capsys, run / "data", run)


def edit_head(source, data, trial, line, edit, k, value):
    """Copy the trial CSVs in source to data, with line 1 or 2 of one trial edited.

    Line 1 is the metadata, "# " and key=value fields; line 2 the column
    header.  edit drops field k of the line, repeats it, or swaps it with
    the field before it; sets it to value (for metadata, the text after
    its '='); appends value as an extra field; puts a byte-order mark
    before the line; or puts trailing spaces after it.
    """
    shutil.copytree(source, data)
    path = sorted(data.glob("*.csv"))[trial]
    lines = path.read_text().splitlines()
    prefix = "# " if line == 1 else ""
    fields = lines[line - 1].removeprefix(prefix).split(",")
    k %= len(fields)
    if edit == "drop":
        del fields[k]
    elif edit == "repeat":
        fields.insert(k, fields[k])
    elif edit == "swap":
        fields[k - 1], fields[k] = fields[k], fields[k - 1]
    elif edit == "set":
        fields[k] = f"{fields[k].partition('=')[0]}={value}" if line == 1 else value
    elif edit == "extra":
        fields.append(value)
    text = prefix + ",".join(fields)
    lines[line - 1] = {"bom": "\ufeff" + text, "spaces": text + "  "}.get(edit, text)
    path.write_text("\n".join(lines) + "\n")


class TestEditedHead:
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @settings(max_examples=20, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(
        trial=st.integers(0, len(MODES) - 1),
        line=st.sampled_from([1, 2]),
        edit=st.sampled_from(["drop", "repeat", "swap", "set", "extra", "bom", "spaces"]),
        k=st.integers(0, 4),
        # a mode outside MODES, unusable sample rates, and two valid values
        value=st.sampled_from(["Running", "0", "-1", "nan", "inf", "1e-320", "1e308",
                               "200 Hz", "", "NormalWalk", "200.0"]),
    )
    def test_an_edited_metadata_or_header_line_exits_cleanly(
        self, capsys, tmp_path, one_per_mode, trial, line, edit, k, value
    ):
        run = Path(tempfile.mkdtemp(dir=tmp_path))
        edit_head(one_per_mode, run / "data", trial, line, edit, k, value)
        assert_every_model_exits_cleanly(capsys, run / "data", run)


# every RunConfig field's override values: in range, within sizes that keep
# an example small, and the out-of-range values its check names
SMALL_FLOATS = [-1.0, 0.0, 1e-300, 1e-3, 0.5, 10.0, 1e300]
FIELD_VALUES = {
    "seed": st.integers(-1, 2**64),
    "trials_per_mode": st.dictionaries(
        st.sampled_from([*MODES, "Running"]), st.integers(-1, 2), max_size=3
    ),
    "samples_per_trial": st.integers(-1, 512),
    "noise_std_deg": st.sampled_from(SMALL_FLOATS),
    "speed_jitter": st.sampled_from([-0.1, 0.0, 0.05, 0.49, 0.5]),
    "linear_mode": st.booleans(),
    "filter_order": st.integers(-1, 12),
    "cutoff_hz": st.sampled_from([*SMALL_FLOATS, 6, 99.0, 100.0]),
    "filter_targets": st.booleans(),
    "paper_faithful_norm": st.booleans(),
    "layer_dims": st.lists(st.integers(0, 32), max_size=3).map(lambda h: [6, *h, 2])
    | st.lists(st.integers(-1, 32), max_size=4),
    "epochs": st.integers(-1, 2),
    "learning_rate": st.sampled_from(SMALL_FLOATS),
    "momentum": st.sampled_from([-0.1, 0.0, 0.9, 1.0]),
    "l2_penalty": st.sampled_from(SMALL_FLOATS),
    "batch_size": st.integers(-1, 64),
    "init_seed": st.integers(-1, 2**64),
    "shuffle_seed": st.integers(-1, 2**64),
    "svr_c": st.sampled_from(SMALL_FLOATS),
    "svr_epsilon": st.sampled_from(SMALL_FLOATS),
    "svr_gamma": st.none() | st.sampled_from(SMALL_FLOATS),
    "svr_tol": st.sampled_from(SMALL_FLOATS),
    "svr_max_updates": st.integers(-1, 2_000),
    "svr_grid_c": st.none() | st.lists(st.sampled_from(SMALL_FLOATS), max_size=2),
    "svr_grid_epsilon": st.none() | st.lists(st.sampled_from(SMALL_FLOATS), max_size=2),
    "svr_grid_gamma": st.none() | st.lists(st.sampled_from(SMALL_FLOATS), max_size=2),
    "svr_grid_folds": st.integers(-1, 4),
    "phase_bins": st.integers(-1, 1_000) | st.sampled_from([10_001, 100_000_000]),
}


class TestOverrides:
    def test_every_field_has_override_values(self):
        assert sorted(FIELD_VALUES) == sorted(f.name for f in fields(RunConfig))

    # a capped SMO fit warns by design; numpy's RuntimeWarnings fail the example
    @pytest.mark.filterwarnings("ignore:SMO stopped at the update cap:RuntimeWarning")
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @settings(max_examples=20, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_overrides_of_any_field_exit_cleanly(self, capsys, tmp_path, data):
        # synth runs with the overrides too, so its fields reach the models
        names = data.draw(st.lists(st.sampled_from(sorted(FIELD_VALUES)), min_size=1,
                                   max_size=3, unique=True))
        overrides = [f"{n}={json.dumps(data.draw(FIELD_VALUES[n], label=n))}" for n in names]
        if "trials_per_mode" not in names:
            overrides.insert(0, f"trials_per_mode={json.dumps({m: 1 for m in MODES})}")
        run = Path(tempfile.mkdtemp(dir=tmp_path))
        args = [arg for o in overrides for arg in ("--override", o)]
        code, err = main_in_process(capsys, "synth", "--out", str(run / "data"), *args)
        assert code in (0, 2)
        if code:
            [line] = err
            assert line.startswith("error: ")
            (run / "data").mkdir(exist_ok=True)  # loocv then fails on the config first
        assert_every_model_exits_cleanly(capsys, run / "data", run, *overrides)


def write_trials(directory, specs):
    """One trial CSV per (trial_id, sample_rate_hz, n_samples) spec."""
    directory.mkdir()
    for trial_id, rate, n in specs:
        phase = np.linspace(0.0, 2.0 * np.pi, n)
        samples = np.column_stack([np.sin(phase + k) for k in range(4)])
        write_trial_csv(
            GaitTrial(trial_id, "NormalWalk", rate, samples), directory / f"{trial_id}.csv"
        )
    return directory


class TestFilterErrorsNameTheTrial:
    @pytest.mark.parametrize("slow", [("a",), ("b", "c")])
    def test_rate_below_twice_the_cutoff_exits_2_naming_its_first_trial(self, tmp_path, slow):
        specs = [(t, 10.0 if t in slow else 200.0, 48) for t in "abc"]
        data = write_trials(tmp_path / "data", specs)
        proc = run_cli(
            "loocv", "--data", str(data), "--model", "linear", "--out", str(tmp_path / "rep"),
        )
        assert proc.returncode == 2
        assert proc.stderr.splitlines() == [
            f"error: trial '{slow[0]}': cutoff 6.0 Hz must lie in (0, 5.0) "
            "for sample rate 10.0 Hz"
        ]

    def test_pole_rounded_onto_z_1_exits_2_naming_trial_and_section(self, tmp_path):
        # at 1e-7 Hz the design rounds a pole onto z = 1, where the DC gain divides by zero
        data = write_trials(tmp_path / "data", [(t, 200.0, 48) for t in "abc"])
        proc = run_cli(
            "loocv", "--data", str(data), "--model", "linear", "--out", str(tmp_path / "rep"),
            "--override", "cutoff_hz=1e-7",
        )
        assert proc.returncode == 2
        [line] = proc.stderr.splitlines()
        assert line.startswith("error: trial 'a': section 0 is unstable: ")
        assert not (tmp_path / "rep").exists()

    def test_trial_too_short_for_the_filter_exits_1_naming_it(self, tmp_path):
        specs = [("a", 200.0, 48), ("b", 200.0, 16), ("c", 200.0, 48)]
        data = write_trials(tmp_path / "data", specs)
        proc = run_cli(
            "loocv", "--data", str(data), "--model", "linear", "--out", str(tmp_path / "rep"),
            "--override", "filter_order=8",
        )
        assert proc.returncode == 1
        assert proc.stderr.splitlines() == [
            "error: trial 'b': signal of length 16 too short to filter; need >= 24 (3 x order)"
        ]


class TestGradcheck:
    def test_pass_and_exit_zero(self):
        proc = run_cli("gradcheck", "--seed", "11")
        assert proc.returncode == 0
        assert proc.stdout.startswith("PASS max_rel_err=")

    def test_repeated_runs_print_identical_value(self):
        a = run_cli("gradcheck", "--seed", "11").stdout
        b = run_cli("gradcheck", "--seed", "11").stdout
        assert a == b

    @pytest.mark.parametrize("seed", [3, 20, 34, 53, 55])
    def test_seeds_with_a_probe_across_a_rectifier_kink_pass(self, capsys, seed):
        # each batch has a hidden pre-activation within one step of 0; those probes are skipped
        assert cli.main(["gradcheck", "--seed", str(seed)]) == 0
        assert capsys.readouterr().out.startswith("PASS max_rel_err=")

    def test_injected_sign_flip_fails(self, monkeypatch):
        # mutation sanity: corrupt one analytic gradient entry, expect FAIL
        import gaitreg.mlp as mlp_module

        true_fn = mlp_module.loss_and_gradient

        def corrupted(model, x, y, l2):
            loss, (gw, gb) = true_fn(model, x, y, l2)
            gw = [g.copy() for g in gw]
            gw[0][0, 0] = -gw[0][0, 0] - 1.0
            return loss, (gw, gb)

        model = init((6, 10, 2), 1)
        stream = SplitMix64(derive_seed(1, 1))
        x = stream.uniform_block(48).reshape(8, 6)
        y = stream.normal_block(16, 0.0, 10.0).reshape(8, 2)
        monkeypatch.setattr(mlp_module, "loss_and_gradient", corrupted)
        passed, max_rel = mlp_module.gradient_check(model, x, y, 1e-2, seed=2)
        assert not passed
        assert max_rel > 1e-4


class TestCompare:
    @staticmethod
    @pytest.fixture(scope="class")
    def compare_out(synth_dir, tmp_path_factory):
        out = tmp_path_factory.mktemp("cmp")
        cfg = synth_dir / "config.json"
        run_cli(
            "compare", "--config", str(cfg), "--data", str(synth_dir / "data"),
            "--out", str(out), check=True,
        )
        return out

    @pytest.mark.parametrize("entry", ["notes.txt", "linear/notes.txt", "svr/phase_mae_x.svg"])
    def test_foreign_entry_in_out_exits_2_before_any_fit(self, synth_dir, tmp_path, entry):
        out = tmp_path / "out"
        (out / entry).parent.mkdir(parents=True, exist_ok=True)
        (out / entry).write_text("stale")
        before = sorted(p.relative_to(out).as_posix() for p in out.rglob("*"))
        proc = run_cli(
            "compare", "--config", str(synth_dir / "config.json"),
            "--data", str(synth_dir / "data"), "--out", str(out),
        )
        assert proc.returncode == 2
        [line] = proc.stderr.splitlines()
        assert line.startswith("error: ") and repr(entry.rpartition("/")[2]) in line
        assert sorted(p.relative_to(out).as_posix() for p in out.rglob("*")) == before

    def test_merged_table_has_three_model_blocks(self, compare_out):
        lines = (compare_out / "comparison.csv").read_text().splitlines()
        assert lines[0] == "model,mode,target,r2_mean,r2_sd,rmse_mean,rmse_sd"
        assert len(lines) == 1 + 3 * 10
        models = [line.split(",")[0] for line in lines[1:]]
        assert models == ["mlp"] * 10 + ["linear"] * 10 + ["svr"] * 10

    def test_identical_fold_order_across_models(self, compare_out):
        orders = []
        for spec in ("mlp", "linear", "svr"):
            report = json.loads((compare_out / spec / "report.json").read_text())
            orders.append([f["trial_id"] for f in report["folds"]])
        assert orders[0] == orders[1] == orders[2]


@pytest.mark.parametrize("nested", [False, True])
@pytest.mark.parametrize("command", ["synth", "loocv", "compare"])
def test_out_that_is_not_a_directory_exits_2_before_any_work(
    synth_dir, tmp_path, monkeypatch, capsys, command, nested
):
    import gaitreg.synth as synth

    def forbidden(*args, **kwargs):
        raise AssertionError("generated or fitted despite an unusable --out")

    monkeypatch.setattr(cli, "run_loocv", forbidden)
    monkeypatch.setattr(synth, "generate", forbidden)
    blocker = tmp_path / "out"
    blocker.write_text("a file, not a directory")
    out = blocker / "run" if nested else blocker
    args = [command, "--config", str(synth_dir / "config.json"), "--out", str(out)]
    if command != "synth":
        args += ["--data", str(synth_dir / "data")]
    if command == "loocv":
        args += ["--model", "linear"]
    assert cli.main(args) == 2
    assert capsys.readouterr().err.splitlines() == [
        f"error: {out} cannot be an output directory: {blocker} exists and is not a directory"
    ]
    assert sorted(tmp_path.iterdir()) == [blocker]
    assert blocker.read_text() == "a file, not a directory"
