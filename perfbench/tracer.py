"""Spans around calls into gaitreg's modules, and the per-layer metrics.

A span is (name, start, end, parent, run id, attrs); its layer is the part
of the name before the first dot, which is a module of ``src/gaitreg``.
Spans stay in memory and are written out once, when the traced process
ends.  Calls a module makes to its own functions are counted, not spanned,
except ``rbf_kernel``, whose time the baselines metrics need.

Wrappers have to replace the names where the caller looks them up:
evaluation binds its callees with ``from ... import``, so they are replaced
inside ``gaitreg.evaluation``; ``svr_fit``, ``svr_predict`` and
``rbf_kernel`` inside ``gaitreg.baselines``; ``loss_and_gradient`` inside
``gaitreg.mlp``; and ``SplitMix64.permutation`` on the class.  This module
imports no gaitreg code at import time, so run.py can use the metric
functions without it.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

ROOT_SETUP = "bench.setup"
ROOT_LOOCV = "bench.loocv"


class Tracer:
    """Collects spans and counters for one traced process; its pid is the run id."""

    def __init__(self):
        self.run_id = os.getpid()
        self.spans: list[list] = []  # [name, start, end, parent, run, attrs]
        self.counters: Counter = Counter()
        self._stack: list[int] = []

    def wrap(self, name, fn, note=None):
        """fn, recording one span per call; note(args, kwargs, result) -> attrs."""
        spans, stack, clock, run_id = self.spans, self._stack, time.perf_counter, self.run_id

        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, run_id, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if note is not None:
                rec[5] = note(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def count(self, name, fn, amount=lambda args, kwargs: 1):
        """fn, adding amount(args, kwargs) to counter name on each call."""
        counters = self.counters

        def counted(*args, **kwargs):
            counters[name] += amount(args, kwargs)
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    @contextmanager
    def root(self, name):
        rec = [name, 0.0, 0.0, -1, self.run_id, None]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = time.perf_counter()
        try:
            yield
        finally:
            rec[2] = time.perf_counter()
            self._stack.pop()

    def dump(self, path, extra: dict) -> None:
        doc = {"spans": self.spans, "counters": dict(self.counters), **extra}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)


def _kernel_note(args, kwargs, result):
    a, b, gamma = args
    if a is not b:
        return {"train": False}
    key = hashlib.sha1(a.tobytes()).hexdigest() + repr(float(gamma))
    return {"train": True, "n": int(a.shape[0]), "key": key}


@contextmanager
def installed(tracer: Tracer):
    """Replace gaitreg's public functions with traced ones for the block."""
    import gaitreg.baselines as baselines
    import gaitreg.data as data
    import gaitreg.evaluation as evaluation
    import gaitreg.mlp as mlp
    import gaitreg.preprocessing as preprocessing
    import gaitreg.rng as rng
    import gaitreg.synth as synth

    w = tracer.wrap

    def rows(args, kwargs, result):
        return {"rows": len(args[0])}

    def written(args, kwargs, result):
        return {"bytes": len(args[1].encode("utf-8"))}

    def loaded(args, kwargs, result):
        return {"rows": result.n_samples, "bytes": os.path.getsize(args[0])}

    def fitted(args, kwargs, result):
        return {"updates": result.n_updates, "converged": bool(result.converged)}

    def folds(args, kwargs, result):
        return {"folds": len(result.folds)}

    atomic = w("ioutil.atomic_write_text", evaluation.atomic_write_text, written)
    patches = [
        (synth, "export_dataset", w("synth.export_dataset", synth.export_dataset)),
        (synth, "generate", w("synth.generate", synth.generate)),
        (synth, "write_trial_csv", w("data.write_trial_csv", synth.write_trial_csv)),
        (data, "atomic_write_text", atomic),
        (data, "load_dataset_dir", w("data.load_dataset_dir", data.load_dataset_dir)),
        (data, "load_trial_csv", w("data.load_trial_csv", data.load_trial_csv, loaded)),
        (evaluation, "run_loocv", w("evaluation.run_loocv", evaluation.run_loocv, folds)),
        (evaluation, "emit_report", w("evaluation.emit_report", evaluation.emit_report)),
        (evaluation, "atomic_write_text", atomic),
        (evaluation, "loo_splits", w("data.loo_splits", evaluation.loo_splits)),
        (evaluation, "band_plot_svg", w("svgplot.band_plot_svg", evaluation.band_plot_svg)),
        (evaluation, "derive_seed", w("rng.derive_seed", evaluation.derive_seed)),
        (evaluation, "init", w("mlp.init", evaluation.init)),
        (evaluation, "train", w("mlp.train", evaluation.train)),
        (evaluation, "forward", w("mlp.forward", evaluation.forward)),
        (evaluation, "linear_fit", w("baselines.linear_fit", evaluation.linear_fit)),
        (evaluation, "linear_predict", w("baselines.linear_predict", evaluation.linear_predict)),
        (evaluation, "fit_svr_baseline",
         w("baselines.fit_svr_baseline", evaluation.fit_svr_baseline)),
        (evaluation, "predict_svr_baseline",
         w("baselines.predict_svr_baseline", evaluation.predict_svr_baseline)),
        (evaluation, "grid_search_svr",
         w("baselines.grid_search_svr", evaluation.grid_search_svr)),
        (evaluation, "trial_features",
         w("preprocessing.trial_features", evaluation.trial_features)),
        (evaluation, "fit_normalization",
         w("preprocessing.fit_normalization", evaluation.fit_normalization, rows)),
        (evaluation, "apply_normalization",
         w("preprocessing.apply_normalization", evaluation.apply_normalization, rows)),
        (preprocessing, "lowpass_zero_phase",
         tracer.count("preprocessing.filter_samples", preprocessing.lowpass_zero_phase,
                      lambda args, kwargs: len(args[0]))),
        (baselines, "svr_fit", w("baselines.svr_fit", baselines.svr_fit, fitted)),
        (baselines, "svr_predict", w("baselines.svr_predict", baselines.svr_predict)),
        (baselines, "rbf_kernel", w("baselines.rbf_kernel", baselines.rbf_kernel, _kernel_note)),
        (mlp, "loss_and_gradient", tracer.count("mlp.sgd_steps", mlp.loss_and_gradient)),
        (rng.SplitMix64, "permutation", w("rng.permutation", rng.SplitMix64.permutation)),
    ]
    design = preprocessing.ButterworthFilter.__dict__["design"]
    patches.append((preprocessing.ButterworthFilter, "design",
                    classmethod(w("preprocessing.design", design.__func__))))
    saved = [(owner, attr, owner.__dict__[attr]) for owner, attr, _ in patches]
    try:
        for owner, attr, new in patches:
            setattr(owner, attr, new)
        yield
    finally:
        for owner, attr, old in reversed(saved):
            setattr(owner, attr, old)


def layer_metrics(doc: dict) -> dict:
    """Per-layer metrics of one traced process from its dumped spans."""
    spans = doc["spans"]
    counters = doc["counters"]
    dur = [end - start for _, start, end, _, _, _ in spans]
    child = [0.0] * len(spans)
    for i, span in enumerate(spans):
        if span[3] >= 0:
            child[span[3]] += dur[i]
    own = [d - c for d, c in zip(dur, child)]
    root = list(range(len(spans)))
    for i, span in enumerate(spans):
        if span[3] >= 0:
            root[i] = root[span[3]]
    by_name = defaultdict(list)
    for i, span in enumerate(spans):
        by_name[span[0]].append(i)

    def total(name):
        return math.fsum(dur[i] for i in by_name[name])

    def attrs(name):
        return [spans[i][5] for i in by_name[name]]

    loocv_root = by_name[ROOT_LOOCV][0]
    self_by_layer = defaultdict(float)
    for i, span in enumerate(spans):
        if root[i] == loocv_root and i != loocv_root:
            self_by_layer[span[0].split(".")[0]] += own[i]

    steps = counters.get("mlp.sgd_steps", 0)
    train_self = math.fsum(own[i] for i in by_name["mlp.train"])
    fits = attrs("baselines.svr_fit")
    updates = sum(a["updates"] for a in fits)
    fit_self = math.fsum(own[i] for i in by_name["baselines.svr_fit"])
    kernels = [(i, spans[i][5]) for i in by_name["baselines.rbf_kernel"]]
    builds = [(i, a) for i, a in kernels if a["train"]]

    out = {
        "mlp.train_s": total("mlp.train"),
        "mlp.sgd_steps": steps,
        "mlp.step_us": train_self / steps * 1e6 if steps else 0.0,
        "mlp.step_flops": doc["step_flops"],
        "mlp.forward_s": total("mlp.forward"),
        "rng.permutation_s": total("rng.permutation"),
        "rng.permutation_calls": len(by_name["rng.permutation"]),
        "baselines.svr_fit_s": total("baselines.svr_fit"),
        "baselines.smo_updates": updates,
        "baselines.update_us": fit_self / updates * 1e6 if updates else 0.0,
        "baselines.converged_ratio":
            sum(a["converged"] for a in fits) / len(fits) if fits else 0.0,
        "baselines.kernel_s": math.fsum(dur[i] for i, _ in builds),
        "baselines.kernel_builds": len(builds),
        "baselines.kernel_bytes": sum(a["n"] ** 2 * 8 for _, a in builds),
        "baselines.distinct_kernel_ratio":
            len({a["key"] for _, a in builds}) / len(builds) if builds else 0.0,
        "baselines.svr_predict_s": total("baselines.predict_svr_baseline"),
        "baselines.linear_fit_s": total("baselines.linear_fit"),
        "preprocessing.trial_features_s": total("preprocessing.trial_features"),
        "preprocessing.filter_samples": counters.get("preprocessing.filter_samples", 0),
        "preprocessing.normalize_s":
            total("preprocessing.fit_normalization") + total("preprocessing.apply_normalization"),
        "preprocessing.normalize_rows": sum(
            a["rows"] for name in ("preprocessing.fit_normalization",
                                   "preprocessing.apply_normalization")
            for a in attrs(name)
        ),
        "data.load_s": total("data.load_dataset_dir"),
        "data.rows": sum(a["rows"] for a in attrs("data.load_trial_csv")),
        "data.csv_bytes": sum(a["bytes"] for a in attrs("data.load_trial_csv")),
        "evaluation.run_loocv_s": total("evaluation.run_loocv"),
        "evaluation.folds": sum(a["folds"] for a in attrs("evaluation.run_loocv")),
        "evaluation.emit_s": total("evaluation.emit_report"),
        "evaluation.ipc_bytes": doc["ipc_bytes"],
        "synth.generate_s": total("synth.generate"),
        "svgplot.render_s": total("svgplot.band_plot_svg"),
        "ioutil.write_s": total("ioutil.atomic_write_text"),
        "ioutil.bytes_written": sum(a["bytes"] for a in attrs("ioutil.atomic_write_text")),
        "trace.loocv_s": dur[loocv_root],
        "trace.root_self_s": own[loocv_root],
    }
    for layer, value in self_by_layer.items():
        out[f"{layer}.self_s"] = value
    return out
