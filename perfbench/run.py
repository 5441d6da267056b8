"""Benchmark of the gaitreg leave-one-out pipeline.

Run from the root of a checkout that holds ``src/gaitreg``:

    python3 perfbench/run.py --workload loo_mlp --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 40
    python3 perfbench/run.py --smoke

One run generates the workload's trials with the synthetic generator, then
repeats what ``gaitreg loocv`` runs, each repetition in a fresh worker
process, until ``--seconds`` are used, set-up included (at least three
repetitions).  After its timed part, each repetition also times the
generator for a quarter second (``setup_s``).  Every repetition's report
tree must be byte-identical to the first one's, hold every fold and only
finite R^2.  Repetitions run at ``--jobs 1``; on a workload with a process
pool, an untimed ``--jobs 2`` run's tree must match them too.  Every
generated copy must equal the trial directory.  A repetition that fails
counts in ``failed`` and does not stop the run.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` reports the
per-layer metrics, from worker processes that trace every layer at
``--jobs 1``, beside untraced repetitions for the tracing overhead and, at
``--jobs 2``, the pool's time, and the default-scale probes.  The last line
of standard output is one JSON object: correct, attempted, failed and
metrics.

``--workload all`` prints every end-to-end metric of every workload with its
unit and sample count.  ``--smoke`` runs every workload once at toy size,
traced and untraced, and checks that every metric of spec.py is emitted and
that BENCHMARK.json lists the same metrics.  Workers run with BLAS pinned to
one thread; all files go to ``.perfbench_work/`` in the checkout and are
removed at exit.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from spec import DEV_SEED, END_TO_END, LOOCV_LAYERS, PER_LAYER, WORKLOADS, Workload  # noqa: E402
from tracer import layer_metrics  # noqa: E402

MIN_REPS = 3
SETUP_SECONDS_PER_REP = 0.25
DEADLINE_S = 170.0
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
UNITS = {m.name: m.unit for m in END_TO_END + PER_LAYER}


def tree_digest(path: Path) -> dict:
    return {
        p.relative_to(path).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(path.rglob("*"))
        if p.is_file()
    }


def report_problem(out_dir: Path, trial_ids: list) -> str | None:
    """Why a report tree is not a complete, finite LOO report, or None."""
    report = json.loads((out_dir / "report.json").read_text(encoding="utf-8"))
    folds = sorted(f["trial_id"] for f in report["folds"])
    if folds != sorted(trial_ids):
        return f"folds {folds} do not match trials {sorted(trial_ids)}"
    if report["missing_modes"]:
        return f"modes missing from the report: {report['missing_modes']}"
    values = [v for f in report["folds"] for v in f["r2"].values()]
    values += [v for m in report["modes"].values() for v in m["r2_mean"].values()]
    values += list(report["pooled"]["r2"].values())
    if not all(math.isfinite(v) for v in values):
        return "a non-finite R^2 in report.json"
    return None


def accuracy(out_dir: Path) -> dict:
    report = json.loads((out_dir / "report.json").read_text(encoding="utf-8"))
    return {
        "worst_mode_r2": min(m["r2_mean"][k] for m in report["modes"].values()
                             for k in ("theta", "tau")),
        "pooled_r2_theta": report["pooled"]["r2"]["theta"],
        "pooled_r2_tau": report["pooled"]["r2"]["tau"],
    }


class Run:
    """One benchmark run of one workload: its worker processes and checks."""

    def __init__(self, root: Path, name: str, seed: int, seconds: float, toy: bool):
        self.name = name
        self.workload: Workload = WORKLOADS[name]
        self.seed = seed
        self.seconds = seconds
        self.toy = toy
        self.min_reps = 1 if toy else MIN_REPS
        self.per_mode = self.workload.toy_trials_per_mode if toy else self.workload.trials_per_mode
        self.root = root
        self.work = root / ".perfbench_work" / f"{name}-{seed}-{os.getpid()}"
        self.started = time.monotonic()
        self.attempted = 0
        self.failed = 0
        self.reference = None
        self.accuracy = {}
        self.trial_ids = None
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"), TMPDIR=str(self.work),
                        PYTHONDONTWRITEBYTECODE="1", **BLAS_ENV)

    def elapsed(self) -> float:
        return time.monotonic() - self.started

    def fail(self, what: str) -> None:
        self.failed += 1
        print(f"FAILED {what}", flush=True)

    def worker(self, command: str, *args: str) -> dict | None:
        """Run worker.py in its own process group; its JSON, or None if it failed."""
        self.attempted += 1
        cmd = [sys.executable, str(HERE / "worker.py"), command, "--seed", str(self.seed),
               "--trials-per-mode", str(self.per_mode), *args]
        proc = subprocess.Popen(cmd, cwd=self.root, env=self.env, stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, text=True, start_new_session=True)
        try:
            out, err = proc.communicate(timeout=max(1.0, DEADLINE_S - self.elapsed()))
        except BaseException as exc:  # a timeout, or SIGTERM / Ctrl-C: the group dies too
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            if not isinstance(exc, subprocess.TimeoutExpired):
                raise
            self.fail(f"{command}: timed out")
            return None
        if proc.returncode != 0:
            tail = err.strip().splitlines()[-1:] or ["no message"]
            self.fail(f"{command}: exit {proc.returncode}: {tail[0]}")
            return None
        try:
            return json.loads(out.strip().splitlines()[-1])
        except (IndexError, json.JSONDecodeError):
            self.fail(f"{command}: printed no result")
            return None

    def setup(self) -> None:
        """Generate the workload's trial directory once."""
        out = self.work / "setup"
        result = self.worker("setup", "--out", str(out))
        if result is None:
            raise SystemExit(f"perfbench: setup of {self.name} failed")
        print("env " + json.dumps(result["env"], sort_keys=True), flush=True)
        self.data = out / "0"
        self.data_digest = tree_digest(self.data)
        self.trial_ids = [Path(p).stem for p in self.data_digest]

    def check_setups(self, out: Path, count: int, label: str) -> None:
        """Every set-up copy must equal the workload's trial directory."""
        bad = [k for k in range(count) if tree_digest(out / str(k)) != self.data_digest]
        if bad:
            self.fail(f"{label}: set-up copies {bad} differ from the trial directory")
        shutil.rmtree(out, ignore_errors=True)

    def check_tree(self, out_dir: Path, label: str) -> bool:
        """Compare a report tree with the reference, which the first tree becomes."""
        try:
            problem = report_problem(out_dir, self.trial_ids)
        except (OSError, ValueError, KeyError, TypeError) as exc:
            problem = f"unreadable report.json: {exc!r}"
        digest = tree_digest(out_dir)
        if problem is None and self.reference is not None and digest != self.reference:
            problem = "report tree differs from the first repetition's"
        if problem is not None:
            self.fail(f"{label}: {problem}")
            return False
        if self.reference is None:
            self.reference = digest
            self.accuracy = accuracy(out_dir)
        return True

    def loocv(self, label: str, jobs: int, setups: bool = False) -> dict | None:
        """One repetition; with `setups`, it also takes set-up samples."""
        out = self.work / label
        extra = []
        if setups:
            extra = ["--setup-out", str(self.work / f"{label}.setup"),
                     "--setup-seconds", str(0.0 if self.toy else SETUP_SECONDS_PER_REP)]
        result = self.worker("loocv", "--model", self.workload.model, "--jobs", str(jobs),
                             "--data", str(self.data), "--out", str(out), *extra)
        ok = result is not None and self.check_tree(out, label)
        shutil.rmtree(out, ignore_errors=True)
        if ok and setups:
            self.check_setups(self.work / f"{label}.setup", len(result["setup_s"]), label)
        if ok:
            print(f"{label}: jobs={jobs} loocv_s={result['loocv_s']:.4f} "
                  f"peak_rss_mb={result['peak_rss_mb']:.1f}", flush=True)
        return result if ok else None

    def traced(self, label: str) -> dict | None:
        out = self.work / label
        spans = self.work / f"{label}.spans.json"
        result = self.worker("traced", "--model", self.workload.model,
                             "--ipc-jobs", str(self.workload.pool_jobs),
                             "--data", str(self.work / f"{label}.data"), "--out", str(out),
                             "--spans", str(spans))
        ok = result is not None and self.check_tree(out, label)
        shutil.rmtree(out, ignore_errors=True)
        shutil.rmtree(self.work / f"{label}.data", ignore_errors=True)
        if not ok:
            return None
        metrics = layer_metrics(json.loads(spans.read_text(encoding="utf-8")))
        print(f"{label}: traced loocv_s={metrics['trace.loocv_s']:.4f}", flush=True)
        return metrics

    def more(self, done: int, durations: list) -> bool:
        """Whether another repetition fits in --seconds, set-up included (min_reps always)."""
        if done < self.min_reps:
            return self.elapsed() < DEADLINE_S - 30
        return self.elapsed() + statistics.median(durations) <= self.seconds

    def end_to_end(self) -> tuple[dict, dict]:
        pool_jobs = self.workload.pool_jobs
        self.setup()
        if pool_jobs:
            self.loocv(f"check_jobs{pool_jobs}", pool_jobs)
        got = {"setup_s": [], "loocv_s": [], "peak_rss_mb": []}
        durations = []
        while self.more(len(durations), durations):
            start = time.monotonic()
            result = self.loocv(f"rep{len(durations)}", 1, setups=True)
            durations.append(time.monotonic() - start)
            if result is not None:
                got["setup_s"] += result["setup_s"]
                got["loocv_s"].append(result["loocv_s"])
                got["peak_rss_mb"].append(result["peak_rss_mb"])
        values = {k: statistics.median(v) for k, v in got.items() if v}
        samples = {k: len(v) for k, v in got.items() if v}
        values.update(self.accuracy)
        samples.update(dict.fromkeys(self.accuracy, 1))
        return values, samples

    def per_layer(self) -> tuple[dict, dict]:
        self.setup()
        probes = self.worker("probes", *(["--toy"] if self.toy else []))
        if probes is not None:
            print(f"probes: rows={probes['probe_rows']} updates={probes['probe_updates']}",
                  flush=True)
        pool_jobs = self.workload.pool_jobs
        untraced, untraced_pool, traced, durations = [], [], [], []
        while self.more(len(durations), durations):
            start = time.monotonic()
            rep = len(durations)
            result = self.loocv(f"untraced{rep}", 1)
            if result is not None:
                untraced.append(result["loocv_s"])
            if pool_jobs:
                result = self.loocv(f"untraced_jobs{pool_jobs}_{rep}", pool_jobs)
                if result is not None:
                    untraced_pool.append(result["loocv_s"])
            result = self.traced(f"traced{rep}")
            if result is not None:
                traced.append(result)
            durations.append(time.monotonic() - start)
        values = {}
        for m in PER_LAYER:
            if m.name.endswith(".self_s") and m.layer in LOOCV_LAYERS:
                per_rep = [t.get(m.name, 0.0) for t in traced]
            else:
                per_rep = [t[m.name] for t in traced if m.name in t]
            if per_rep:
                values[m.name] = statistics.median(per_rep)
        for t in traced:
            parts = sum(t.get(f"{layer}.self_s", 0.0) for layer in LOOCV_LAYERS)
            gap = t["trace.loocv_s"] - parts - t["trace.root_self_s"]
            if abs(gap) > 1e-6 or t.get("evaluation.self_s", 0.0) < 0.0:
                self.fail(f"trace: self times do not add up (gap {gap:.3g} s)")
            print(f"trace check: layer self times {parts:.4f} s + benchmark glue "
                  f"{t['trace.root_self_s']:.6f} s = traced loocv_s {t['trace.loocv_s']:.4f} s",
                  flush=True)
        if traced and untraced:
            values["trace.overhead_s"] = values["trace.loocv_s"] - statistics.median(untraced)
        values["evaluation.pool_loocv_s"] = values["evaluation.pool_speedup"] = 0.0
        if untraced and untraced_pool:
            values["evaluation.pool_loocv_s"] = statistics.median(untraced_pool)
            values["evaluation.pool_speedup"] = (
                statistics.median(untraced) / values["evaluation.pool_loocv_s"]
            )
        samples = {k: len(traced) for k in values}
        samples["evaluation.pool_loocv_s"] = samples["evaluation.pool_speedup"] = len(untraced_pool)
        if probes is not None:
            for key in ("baselines.update_us_n4900", "mlp.step_us_b16"):
                values[key], samples[key] = probes[key], 1
        return values, samples

    def execute(self, trace: bool) -> dict:
        print(f"perfbench workload={self.name} seed={self.seed} seconds={self.seconds} "
              f"trace={int(trace)} model={self.workload.model} "
              f"pool_jobs={self.workload.pool_jobs} "
              f"trials_per_mode={self.per_mode}", flush=True)
        try:
            values, samples = self.per_layer() if trace else self.end_to_end()
        finally:
            shutil.rmtree(self.work, ignore_errors=True)
            with contextlib.suppress(OSError):
                self.work.parent.rmdir()  # only when no other run is using it
        names = [m.name for m in (PER_LAYER if trace else END_TO_END)]
        missing = [name for name in names if name not in values]
        for name in names:
            if name in missing:
                print(f"MISSING metric {name}: no repetition measured it", flush=True)
                values[name], samples[name] = 0.0, 0
            print(f"  {name:34s} {values[name]:>16.6g} {UNITS[name]:6s} "
                  f"samples={samples[name]}", flush=True)
        print(f"  failed_ratio {self.failed}/{self.attempted}", flush=True)
        return {
            "correct": self.failed == 0 and not missing,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {n: {"value": values[n], "unit": UNITS[n]} for n in names},
        }


def check_benchmark_json(root: Path) -> list:
    """Differences between BENCHMARK.json and spec.py, as messages."""
    doc = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    problems = []
    for key, metrics in (("end_to_end", END_TO_END), ("per_layer", PER_LAYER)):
        listed = {(m["name"], m["unit"], m["better"]) for m in doc[key]}
        wanted = {(m.name, m.unit, m.better) for m in metrics}
        problems += [f"{key}: BENCHMARK.json lacks {x}" for x in sorted(wanted - listed)]
        problems += [f"{key}: spec.py lacks {x}" for x in sorted(listed - wanted)]
    if [(w["name"], w["why"]) for w in doc["workloads"]] != [
        (name, w.why) for name, w in WORKLOADS.items()
    ]:
        problems.append("workloads or their reasons differ between BENCHMARK.json and spec.py")
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"), default="all")
    parser.add_argument("--seed", type=int, default=DEV_SEED)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="every workload once at toy size, traced and untraced")
    args = parser.parse_args(argv)
    # exit through the finally blocks, which stop the workers and remove the work directory
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    root = Path.cwd()
    if not (root / "src" / "gaitreg" / "__init__.py").is_file():
        print(f"perfbench: {root} holds no src/gaitreg; run from a gaitreg checkout",
              file=sys.stderr)
        return 2
    if args.smoke:
        problems = check_benchmark_json(root)
        for name in WORKLOADS:
            for trace in (False, True):
                result = Run(root, name, args.seed, 0.0, toy=True).execute(trace)
                if not result["correct"]:
                    problems.append(f"{name} trace={int(trace)}: a repetition failed")
        for problem in problems:
            print(f"SMOKE FAILED {problem}")
        print("smoke: ok" if not problems else "smoke: failed")
        return 1 if problems else 0
    if args.workload == "all":
        failed = attempted = 0
        for name in WORKLOADS:
            result = Run(root, name, args.seed, args.seconds, toy=False).execute(bool(args.trace))
            failed += result["failed"]
            attempted += result["attempted"]
        print(f"failed_ratio {failed / attempted:.6g} ({failed}/{attempted})")
        return 0
    result = Run(root, args.workload, args.seed, args.seconds, toy=False).execute(bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
