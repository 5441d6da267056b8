"""The package's public surface: what ``gaitreg`` exports, the demos, and
the CLI flags the README shows.

``gaitreg.__all__`` is the set of entry points the demos and the README
use; everything else is imported from its submodule.  Demos 01 and 02 run
in about a second each and are checked here; demos 03 and 04 run full
leave-one-out evaluations (about a minute each) and stay manual.
"""

import argparse
import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import gaitreg
from gaitreg import cli

ROOT = Path(__file__).resolve().parents[1]

PUBLIC_NAMES = [
    "ButterworthFilter",
    "RunConfig",
    "SynthConfig",
    "emit_report",
    "generate",
    "ground_truth",
    "linear_fit",
    "linear_predict",
    "loo_splits",
    "lowpass_zero_phase",
    "r2_score",
    "rmse",
    "run_loocv",
    "spectral_energy_fraction",
    "svr_fit",
    "svr_predict",
]


def test_all_lists_exactly_the_public_entry_points():
    assert sorted(gaitreg.__all__) == PUBLIC_NAMES
    for name in PUBLIC_NAMES:
        assert callable(getattr(gaitreg, name)), name


def referenced_names(path):
    """Every name a module reads, bare or as an attribute; imports alone do not count."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return {
        node.id if isinstance(node, ast.Name) else node.attr
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute))
    }


def public_defs(path):
    """(qualified name, name) of each public function, and each public method or property."""
    body = ast.parse(path.read_text(encoding="utf-8")).body
    classes = [node for node in body if isinstance(node, ast.ClassDef)]
    scopes = [(path.stem, body), *((f"{path.stem}.{c.name}", c.body) for c in classes)]
    return [
        (f"{scope}.{node.name}", node.name)
        for scope, nodes in scopes
        for node in nodes
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")
    ]


def test_every_public_function_has_a_caller_outside_tests():
    # a function, method or property that only tests call is dead code; give it a
    # caller or delete it
    package = sorted(Path(gaitreg.__file__).parent.glob("*.py"))
    callers = [*package, *(ROOT / "demos").glob("*.py"), *(ROOT / "perfbench").glob("*.py")]
    used = set().union(*map(referenced_names, callers))
    defined = [pair for path in package for pair in public_defs(path)]
    assert any(qualified.count(".") == 2 for qualified, _ in defined)  # methods are checked
    assert [qualified for qualified, name in defined if name not in used] == []


@pytest.mark.parametrize(
    "demo", ["01_synthetic_gait_dataset.py", "02_preprocessing_pipeline.py"]
)
def test_fast_demo_runs(demo, tmp_path):
    # the demos write relative to the working directory, so they run in
    # tmp_path and find the package through an absolute path
    src = str(Path(gaitreg.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / demo)],
        cwd=tmp_path,
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr


def test_import_calls_no_eigen_solver():
    # numpy's roots solves a companion matrix with LAPACK's eigen-solver,
    # whose workspace a filter design at import would keep for the whole run
    code = (
        "import numpy\n"
        "def eigen_solver(*args, **kwargs):\n"
        "    raise AssertionError('eigen-solver called')\n"
        "numpy.roots = numpy.linalg.eigvals = eigen_solver\n"
        "import gaitreg\n"
    )
    src = str(Path(gaitreg.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr


def test_every_flag_the_readme_shows_is_accepted():
    # every --flag inside backticks, inline or fenced, so README cannot advertise a removed flag
    spans = re.findall(r"`([^`]*)`", (ROOT / "README.md").read_text(encoding="utf-8"))
    shown = {f for span in spans for f in re.findall(r"(?<![\w-])--[a-z][a-z-]*", span)}
    parser = cli.build_parser()
    [subparsers] = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    accepted = {
        option
        for p in (parser, *subparsers.choices.values())
        for action in p._actions
        for option in action.option_strings
    }
    assert shown, "no flags found in README.md"
    assert sorted(shown - accepted) == []
