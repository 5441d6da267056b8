"""The benchmark must still find every gaitreg name it reads or patches.

perfbench/tracer.py replaces functions where their callers look them up
(for example ``grid_search_svr`` and ``trial_features`` inside
``gaitreg.evaluation``), and perfbench/worker.py calls some internals
directly (its inner-loop probe times ``mlp.loss_and_gradient`` and
``mlp.sgd_step``).  A refactor that unbinds one of those names breaks the
benchmark; these tests make it break the suite too, and so does a smoke
run of the whole benchmark.
"""

import ast
import importlib
import importlib.util
import subprocess
import sys
from pathlib import Path

import numpy as np

import gaitreg.baselines as baselines
import gaitreg.evaluation as evaluation

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
TRACER = PERFBENCH / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def gaitreg_reads(path):
    """(dotted gaitreg object, attribute) pairs a source file reads."""
    tree = ast.parse(path.read_text())
    aliases, reads = {}, set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "gaitreg":
                    aliases[alias.asname or alias.name] = alias.name
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "gaitreg":
            for alias in node.names:
                reads.add((node.module, alias.name))
                aliases[alias.asname or alias.name] = f"{node.module}.{alias.name}"
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in aliases
        ):
            reads.add((aliases[node.value.id], node.attr))
    return reads


def resolve(dotted):
    parts = dotted.split(".")
    obj = importlib.import_module(parts[0])
    for i, part in enumerate(parts[1:], start=2):
        obj = getattr(obj, part, None) or importlib.import_module(".".join(parts[:i]))
    return obj


def test_gaitreg_binds_every_name_the_benchmark_reads():
    reads = set().union(*(gaitreg_reads(path) for path in sorted(PERFBENCH.glob("*.py"))))
    probe = {("gaitreg.mlp", name) for name in
             ("init", "loss_and_gradient", "sgd_step", "OptimizerState")}
    assert probe <= reads
    missing = sorted(f"{owner}.{name}" for owner, name in reads
                     if not hasattr(resolve(owner), name))
    assert not missing, f"perfbench reads names gaitreg no longer binds: {missing}"


def test_tracer_installs_and_restores_its_hooks():
    tracer = load_tracer()
    names = ("grid_search_svr", "trial_features", "fit_normalization")
    originals = {name: getattr(evaluation, name) for name in names}
    with tracer.installed(tracer.Tracer()):
        for name, fn in originals.items():
            assert getattr(evaluation, name).__wrapped__ is fn
    for name, fn in originals.items():
        assert getattr(evaluation, name) is fn


def test_tracer_sees_one_kernel_build_and_both_smo_fits_of_an_svr_fold():
    tracer = load_tracer()
    rng = np.random.default_rng(3)
    x = rng.uniform(size=(60, 6))
    y = np.column_stack([np.sin(4.0 * x[:, 0]), x[:, 1] * x[:, 2]])
    run = tracer.Tracer()
    with tracer.installed(run), run.root(tracer.ROOT_LOOCV):
        baselines.fit_svr_baseline(x, y)
    doc = {"spans": run.spans, "counters": run.counters, "step_flops": 0, "ipc_bytes": 0}
    metrics = tracer.layer_metrics(doc)
    assert sum(span[0] == "baselines.svr_fit" for span in run.spans) == 2
    assert metrics["baselines.kernel_builds"] == 1
    assert metrics["baselines.distinct_kernel_ratio"] == 1.0
    assert metrics["baselines.smo_updates"] > 0


def test_traced_loocv_spans_every_fold_scaling_fit(small_dataset, small_config):
    tracer = load_tracer()
    run = tracer.Tracer()
    with tracer.installed(run):
        report = evaluation.run_loocv(small_dataset, "linear", small_config)
    [loocv] = [i for i, span in enumerate(run.spans) if span[0] == "evaluation.run_loocv"]
    fits = [span for span in run.spans if span[0] == "preprocessing.fit_normalization"]
    # one fit per fold and the pooled one, all made by run_loocv itself
    assert len(fits) == len(report.folds) + 1
    assert all(span[3] == loocv for span in fits)


def test_benchmark_smoke_run_passes():
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--smoke"],
        cwd=PERFBENCH.parent, capture_output=True, text=True, timeout=300,
    )
    assert proc.stdout.splitlines()[-1] == "smoke: ok", proc.stdout[-2000:] + proc.stderr[-2000:]
