"""The benchmark's tracer must still find every gaitreg name it patches.

perfbench/tracer.py replaces functions where their callers look them up
(for example ``grid_search_svr`` and ``trial_features`` inside
``gaitreg.evaluation``).  A refactor that unbinds one of those names
breaks the benchmark; this test makes it break the suite too.
"""

import importlib.util
from pathlib import Path

import gaitreg.evaluation as evaluation

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


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
