"""Command-line entry points.

Exit codes: 0 on success, 2 when the inputs are invalid (bad config, bad
arguments, missing files), 1 when a run fails after validation.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace

from ..errors import ValidationError
from ..groups import default_loss, parse_group, real_field, rounding_rule
from ..predictions import DEFAULT_SAMPLES, predict_sync_loss, z2_mismatch_exact
from .config import parse_sweep_config, parse_universality_config
from .report import (load_sweep_report, write_sweep_csv, write_sweep_json,
                     write_universality_csv, write_universality_json)
from .svgplot import write_sweep_svg
from .sweep import run_sweep
from .universality import run_universality_config


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spikesim",
        description="Spiked-matrix synchronization experiments and limit predictions.")
    sub = parser.add_subparsers(dest="command", required=True)

    sweep = sub.add_parser("sweep", help="run a theta sweep from a config file")
    sweep.add_argument("config")
    sweep.add_argument("--seed", type=int, default=None,
                       help="override master_seed from the config")
    sweep.add_argument("--out-dir", default=None,
                       help="override out_dir from the config")
    sweep.add_argument("--format", choices=("csv", "json", "both"), default="both")
    sweep.add_argument("--workers", type=int, default=1)

    univ = sub.add_parser("universality",
                          help="run an ensemble A/B comparison from a config file")
    univ.add_argument("config")
    univ.add_argument("--seed", type=int, default=None)
    univ.add_argument("--out-dir", default=None)
    univ.add_argument("--format", choices=("csv", "json", "both"), default="both")
    univ.add_argument("--workers", type=int, default=1)

    predict = sub.add_parser("predict", help="evaluate the limit prediction once")
    predict.add_argument("--group", required=True, help="Z/L or U(1)")
    predict.add_argument("--theta", type=float, required=True)
    predict.add_argument("--samples", type=int, default=DEFAULT_SAMPLES)
    predict.add_argument("--seed", type=int, default=0)

    plot = sub.add_parser("plot", help="render sweep report JSON files to SVG")
    plot.add_argument("reports", nargs="+", metavar="report.json")
    plot.add_argument("--out", default=None,
                      help="output SVG path (needed for more than one report)")
    return parser


def _override(config, args):
    """Apply the --seed and --out-dir overrides to a sweep or universality config."""
    if args.seed is not None:
        config = replace(config, master_seed=args.seed)
    if args.out_dir is not None:
        config = replace(config, out_dir=args.out_dir)
    return config


# (--format choice, file name, writer); None is written under every choice
SWEEP_OUTPUTS = (("csv", "report.csv", write_sweep_csv),
                 ("json", "report.json", write_sweep_json),
                 (None, "report.svg", write_sweep_svg))
UNIVERSALITY_OUTPUTS = (("csv", "universality.csv", write_universality_csv),
                        ("json", "universality.json", write_universality_json))


def _emit(report, outputs, out_dir: str, fmt: str, lines) -> int:
    """Write the outputs that --format selects into out_dir, then print the
    run's summary lines and each path written."""
    os.makedirs(out_dir, exist_ok=True)
    written = []
    for kind, name, write in outputs:
        if kind is None or fmt in (kind, "both"):
            path = os.path.join(out_dir, name)
            write(report, path)
            written.append(path)
    for line in lines:
        print(line)
    for path in written:
        print(f"wrote {path}")
    return 0


def _cmd_sweep(args) -> int:
    config = _override(parse_sweep_config(args.config), args)
    report = run_sweep(config, workers=args.workers)
    lines = [f"theta={s.theta:g} empirical={s.empirical_mean:.4f}"
             f"(std {s.empirical_std:.4f}) "
             f"predicted={s.prediction_mean:.4f}"
             f"(stderr {s.prediction_stderr:.1e})" for s in report.summaries]
    return _emit(report, SWEEP_OUTPUTS, config.out_dir, args.format, lines)


def _cmd_universality(args) -> int:
    config = _override(parse_universality_config(args.config), args)
    report = run_universality_config(config, workers=args.workers)
    line = (f"pairs={len(report.pairs)} max|diff|={report.max_abs_diff:.5f} "
            f"max sigma={report.max_sigma:.2f}")
    return _emit(report, UNIVERSALITY_OUTPUTS, config.out_dir, args.format, [line])


def _cmd_predict(args) -> int:
    group = parse_group(args.group)
    estimate = predict_sync_loss(group, args.theta, n_samples=args.samples,
                                 seed=args.seed)
    print(f"{group} {default_loss(group)} {rounding_rule(group)} theta={args.theta:g}")
    print(f"mean={estimate.mean!r} stderr={estimate.stderr!r} "
          f"n_samples={estimate.n_samples}")
    if real_field(group):
        print(f"closed_form={z2_mismatch_exact(args.theta)!r}")
    return 0


def _cmd_plot(args) -> int:
    out = args.out
    if out is None:
        # beside its one report; an overlay has no report of its own
        if len(args.reports) > 1:
            raise ValidationError("plotting more than one report needs --out")
        base, _ = os.path.splitext(args.reports[0])
        out = base + ".svg"
    reports = [load_sweep_report(path) for path in args.reports]
    write_sweep_svg(reports, out)
    print(f"wrote {out}")
    return 0


_COMMANDS = {"sweep": _cmd_sweep, "universality": _cmd_universality,
             "predict": _cmd_predict, "plot": _cmd_plot}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (ValidationError, ValueError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # runtime failure after validation
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
