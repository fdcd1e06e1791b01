"""Command-line interface.

Exit codes: 0 on success, 2 on configuration errors, 3 when the validate
job reports a failed invariant.
"""

from __future__ import annotations

import argparse
import sys

from .config import JOBS, PIVN_MODES, ConfigError, ExperimentConfig, load_config, parse_grid
from .harness import run_job


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
        p.add_argument("--out", help="output directory")
        p.add_argument("--n", type=int, help="number of bath modes N")
        p.add_argument(
            "--n-list",
            help="comma-separated list of N values for multi-N jobs, e.g. 1000,2000,4000",
        )
        p.add_argument("--grid", help="time grid start:end:points in microseconds")
        p.add_argument("--pivn-mode", choices=PIVN_MODES, help="Pi_vN evaluation mode")
        p.add_argument("--eta", type=float, help="bath coupling strength")
        p.add_argument("--window", type=float, help="per-mode window half-width in MHz")
        p.add_argument("--seed", type=int, help="seed for the validate suite")
    return parser


def _config_from_args(args: argparse.Namespace) -> ExperimentConfig:
    cfg = load_config(args.config) if args.config else ExperimentConfig()
    overrides: dict = {"job": args.job}
    if args.out is not None:
        overrides["out_dir"] = args.out
    if args.n is not None:
        overrides["n_modes"] = args.n
    if args.n_list is not None:
        try:
            overrides["n_list"] = [int(part) for part in args.n_list.split(",") if part]
        except ValueError as exc:
            raise ConfigError(f"bad --n-list {args.n_list!r}: {exc}") from exc
    if args.grid is not None:
        start, end, points = parse_grid(args.grid)
        # an explicit --grid displaces any times list from the file
        overrides.update(grid_start_us=start, grid_end_us=end, grid_points=points, times_us=None)
    if args.pivn_mode is not None:
        overrides["pivn_mode"] = args.pivn_mode
    if args.eta is not None:
        overrides["eta"] = args.eta
    if args.window is not None:
        overrides["mode_window_mhz"] = args.window
    if args.seed is not None:
        overrides["seed"] = args.seed
    return cfg.with_overrides(**overrides)


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
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
