"""The benchmark must still find every gaitreg name it reads or patches.

perfbench/tracer.py replaces functions where their callers look them up
(for example ``grid_search_svr`` and ``trial_features`` inside
``gaitreg.evaluation``), and perfbench/worker.py calls some internals
directly (its inner-loop probe times ``mlp.loss_and_gradient`` and
``mlp.sgd_step``).  A refactor that unbinds one of those names breaks the
benchmark; these tests make it break the suite too.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

import gaitreg.evaluation as evaluation

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
TRACER = PERFBENCH / "tracer.py"


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
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    originals = {name: getattr(evaluation, name) for name in ("grid_search_svr", "trial_features")}
    with tracer.installed(tracer.Tracer()):
        for name, fn in originals.items():
            assert getattr(evaluation, name).__wrapped__ is fn
    for name, fn in originals.items():
        assert getattr(evaluation, name) is fn
