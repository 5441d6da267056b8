import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

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


def run_cli(*args, check=False):
    proc = subprocess.run(
        [sys.executable, "-m", "gaitreg", *args], capture_output=True, text=True
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
        assert "constant target" in line

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
                "--model", "linear", "--out", str(tmp_path / out), "--jobs", jobs,
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


class TestGradcheck:
    def test_pass_and_exit_zero(self):
        proc = run_cli("gradcheck", "--seed", "11")
        assert proc.returncode == 0
        assert proc.stdout.startswith("PASS max_rel_err=")

    def test_repeated_runs_print_identical_value(self):
        a = run_cli("gradcheck", "--seed", "11").stdout
        b = run_cli("gradcheck", "--seed", "11").stdout
        assert a == b

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
