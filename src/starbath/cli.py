"""Command-line interface.

Exit codes: 0 on success, 2 on configuration errors, 3 when the validate
job reports a failed invariant.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace

from .config import JOBS, PIVN_MODES, ConfigError, ExperimentConfig, load_config, parse_grid
from .harness import JOB_INPUTS, run_job

# N and grid flags by the config field they set; a job refuses those it does not read
_JOB_FLAGS = {"n_modes": "--n", "n_list": "--n-list", "times_us": "--grid"}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="starbath",
        description=(
            "Exact covariance dynamics and thermodynamics of one oscillator "
            "coupled to a finite star-configured bath; jobs emit CSV data "
            "plus a JSON manifest"
        ),
    )
    sub = parser.add_subparsers(dest="job", required=True, metavar="|".join(JOBS))
    for job in JOBS:
        p = sub.add_parser(job, help=f"run the {job} job")
        p.add_argument("--config", help="JSON config file (unknown keys rejected)")
        p.add_argument("--out", dest="out_dir", help="output directory")
        p.add_argument("--n", dest="n_modes", type=int, help="number of bath modes N")
        p.add_argument("--n-list", help="comma-separated N values for multi-N jobs, e.g. 1000,2000,4000")
        p.add_argument("--grid", dest="times_us", help="time grid start:end:points in microseconds")
        p.add_argument("--pivn-mode", choices=PIVN_MODES, help="Pi_vN evaluation mode")
        p.add_argument("--eta", type=float, help="bath coupling strength")
        p.add_argument("--window", dest="mode_window_mhz", type=float, help="per-mode window half-width in MHz")
        p.add_argument("--seed", type=int, help="seed for the validate suite")
    return parser


def _config_from_args(args: argparse.Namespace) -> ExperimentConfig:
    overrides = {name: value for name, value in vars(args).items() if value is not None}  # dest = field
    path = overrides.pop("config", None)
    reads = JOB_INPUTS[args.job]
    unread = [flag for name, flag in _JOB_FLAGS.items() if name in overrides and name not in reads]
    if unread:
        fields = ", ".join(reads) or "no N or times"
        raise ConfigError(f"{args.job} takes no {', '.join(unread)}; it reads {fields}")
    if args.n_list is not None:
        try:
            overrides["n_list"] = [int(part) for part in args.n_list.split(",") if part]
        except ValueError as exc:
            raise ConfigError(f"bad --n-list {args.n_list!r}: {exc}") from exc
    if args.times_us is not None:
        overrides["times_us"] = parse_grid(args.times_us)
    cfg = load_config(path) if path else ExperimentConfig()
    return replace(cfg, **overrides)


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = _config_from_args(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    result = run_job(cfg)
    if cfg.job == "validate":
        report = result["report"]
        for check in report["checks"]:
            status = "pass" if check["passed"] else "FAIL"
            print(
                f"[{status}] {check['module']}.{check['name']}: "
                f"residual={check['residual']:.3e} tolerance={check['tolerance']:.3e}"
                + (f" ({check['note']})" if check["note"] else "")
            )
        if not report["passed"]:
            print("validation failed", file=sys.stderr)
            return 3
        print("validation passed")
    else:
        for path in [*result["files"], result["manifest"]]:
            print(f"wrote {path}")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
