"""Command-line entry point.

Subcommands: synth (write trial CSVs + manifest), loocv (leave-one-out run
of one model), gradcheck (finite-difference verification of the network
gradients), compare (all three models through the same splits).  Run
settings come only from --config FILE and --override KEY=JSON (repeatable).
Exit codes: 0 success, 1 runtime/data failure, 2 usage or config error.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import CONFIG_SCHEMA_VERSION, __version__
from .config import RunConfig
from .data import load_dataset_dir
from .errors import ConfigError, PipelineError
from .evaluation import (
    MODEL_SPECS,
    emit_report,
    report_file_names,
    run_loocv,
    summary_csv_text,
)
from .ioutil import atomic_write_text, refuse_foreign_entries
from .mlp import GRADCHECK_THRESHOLD, gradient_check, init
from .rng import SplitMix64, derive_seed
from .synth import export_dataset


def _parse_override(text: str) -> tuple[str, object]:
    if "=" not in text:
        raise ConfigError(f"override {text!r} must be KEY=JSON")
    key, _, raw = text.partition("=")
    try:
        return key, json.loads(raw)
    except json.JSONDecodeError:
        raise ConfigError(f"override {key!r}: value {raw!r} is not JSON") from None


def _load_config(args) -> RunConfig:
    config = RunConfig.from_file(args.config) if args.config else RunConfig()
    return config.with_overrides(dict(_parse_override(item) for item in args.override or []))


def _cmd_synth(args) -> int:
    config = _load_config(args)
    manifest = export_dataset(config.synth_config(), args.out)
    atomic_write_text(
        Path(args.out) / "manifest.json", json.dumps(manifest, indent=2, sort_keys=True) + "\n"
    )
    print(f"wrote {len(manifest['trial_ids'])} trials to {args.out}")
    return 0


def _cmd_loocv(args) -> int:
    config = _load_config(args)
    dataset = load_dataset_dir(args.data)
    # refused before the folds run, not after (emit_report checks again)
    refuse_foreign_entries(args.out, report_file_names(dataset.counts_by_mode()))
    report = run_loocv(dataset, args.model, config, jobs=args.jobs)
    emit_report(report, args.out)
    print(f"{args.model}: {len(report.folds)} folds, reports in {args.out}")
    return 0


def _cmd_gradcheck(args) -> int:
    model = init(init_seed=args.seed)
    stream = SplitMix64(derive_seed(args.seed, 1))
    x = stream.uniform_block(8 * 6).reshape(8, 6)
    y = stream.normal_block(8 * 2, 0.0, 10.0).reshape(8, 2)
    passed, max_rel = gradient_check(model, x, y, l2_penalty=1e-2, seed=derive_seed(args.seed, 2))
    status = "PASS" if passed else "FAIL"
    print(f"{status} max_rel_err={max_rel:.6e} (threshold {GRADCHECK_THRESHOLD:.1e})")
    return 0 if passed else 1


def _cmd_compare(args) -> int:
    config = _load_config(args)
    dataset = load_dataset_dir(args.data)
    out_dir = Path(args.out)
    refuse_foreign_entries(out_dir, [*MODEL_SPECS, "comparison.csv"])
    for spec in MODEL_SPECS:
        refuse_foreign_entries(out_dir / spec, report_file_names(dataset.counts_by_mode()))
    merged = []
    for spec in MODEL_SPECS:
        report = run_loocv(dataset, spec, config, jobs=args.jobs)
        emit_report(report, out_dir / spec)
        header, *rows = summary_csv_text(report).splitlines()
        merged += [f"{spec},{row}" for row in rows]
    atomic_write_text(out_dir / "comparison.csv", "\n".join([f"model,{header}", *merged]) + "\n")
    print(f"compared {list(MODEL_SPECS)} over {len(dataset)} folds; table in {out_dir}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gaitreg",
        description="Shared ankle angle/moment regression across locomotion modes",
    )
    parser.add_argument(
        "--version",
        action="version",
        version=f"gaitreg {__version__} (config-schema {CONFIG_SCHEMA_VERSION})",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, data=False):
        p.add_argument("--config", help="JSON run-config file")
        p.add_argument(
            "--override",
            action="append",
            metavar="KEY=JSON",
            help="override a config key (JSON value); repeatable, wins over --config",
        )
        if data:
            p.add_argument("--data", required=True, help="directory of trial CSVs")
            p.add_argument("--jobs", type=int, default=1, help="parallel fold workers")

    p_synth = sub.add_parser("synth", help="generate synthetic trial CSVs + manifest")
    add_common(p_synth)
    p_synth.add_argument("--out", required=True, help="output directory")
    p_synth.set_defaults(func=_cmd_synth)

    p_loocv = sub.add_parser("loocv", help="leave-one-out evaluation of one model")
    add_common(p_loocv, data=True)
    p_loocv.add_argument("--model", required=True, choices=MODEL_SPECS)
    p_loocv.add_argument("--out", required=True, help="report output directory")
    p_loocv.set_defaults(func=_cmd_loocv)

    p_grad = sub.add_parser("gradcheck", help="finite-difference gradient verification")
    p_grad.add_argument("--seed", type=int, default=11)
    p_grad.set_defaults(func=_cmd_gradcheck)

    p_cmp = sub.add_parser("compare", help="run mlp, linear, and svr through shared splits")
    add_common(p_cmp, data=True)
    p_cmp.add_argument("--out", required=True, help="output directory")
    p_cmp.set_defaults(func=_cmd_compare)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (PipelineError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
