"""Command-line interface: ``starbath JOB [flags]``, one parser for every job.

Exit codes: 0 on success, 2 on configuration errors (an unusable --out too),
3 when a residual in the validate job's checks table exceeds its tolerance.
"""

from __future__ import annotations

import argparse
import functools
import sys

from .config import JOB_INPUTS, JOBS, PIVN_MODES, ConfigError, ExperimentConfig, load_config, parse_grid
from .harness import run_job

# Flags that set one config field each, keyed by that field; a job refuses
# every one whose field is not in its JOB_INPUTS
_FIELD_FLAGS = {
    "n_modes": ("--n", {"type": int, "help": "number of bath modes N"}),
    "n_list": ("--n-list", {"help": "comma-separated N values for multi-N jobs, e.g. 1000,2000,4000"}),
    "times_us": ("--grid", {"help": "time grid start:end:points in microseconds"}),
    "pivn_mode": ("--pivn-mode", {"choices": PIVN_MODES, "help": "Pi_vN evaluation mode"}),
    "eta": ("--eta", {"type": float, "help": "bath coupling strength"}),
    "mode_window_mhz": ("--window", {"type": float, "help": "per-mode window half-width in MHz"}),
}


@functools.cache  # built once per process: parsing leaves the parser as it was
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="starbath",
        description=(
            "Exact covariance dynamics and thermodynamics of one oscillator "
            "coupled to a finite star-configured bath; jobs emit CSV data "
            "plus a JSON manifest"
        ),
    )
    parser.add_argument("job", choices=JOBS, metavar="|".join(JOBS), help="the job to run")
    parser.add_argument("--config", help="JSON config file (unknown keys rejected)")
    parser.add_argument("--out", dest="out_dir", help="output directory")
    for name, (flag, kwargs) in _FIELD_FLAGS.items():
        parser.add_argument(flag, dest=name, **kwargs)
    return parser


def _config_from_args(args: argparse.Namespace) -> ExperimentConfig:
    overrides = {name: value for name, value in vars(args).items() if value is not None}  # dest = field
    path = overrides.pop("config", None)
    reads = JOB_INPUTS[args.job]
    unread = [flag for name, (flag, _) in _FIELD_FLAGS.items() if name in overrides and name not in reads]
    if unread:
        raise ConfigError(f"{args.job} takes no {', '.join(unread)}; it reads {', '.join(reads)}")
    if args.n_list is not None:
        try:
            overrides["n_list"] = [int(part) for part in args.n_list.split(",") if part]
        except ValueError as exc:
            raise ConfigError(f"bad --n-list {args.n_list!r}: {exc}") from exc
    if args.times_us is not None:
        overrides["times_us"] = parse_grid(args.times_us)
    return load_config(path, **overrides) if path else ExperimentConfig(**overrides)


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        result = run_job(_config_from_args(args))
    except (ConfigError, FileExistsError, IsADirectoryError, NotADirectoryError, PermissionError) as exc:
        # the OSErrors: an unusable --out, or a directory where an output file goes
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    for path in [*result["files"], result["manifest"]]:
        print(f"wrote {path}")
    checks = result["tables"].get("checks")
    if checks is None:
        return 0
    failed = [name for name, residual, tolerance in checks.rows if not residual <= tolerance]  # nan fails
    for name, residual, tolerance in checks.rows:
        status = "FAIL" if name in failed else "pass"
        print(f"[{status}] {name}: residual={residual:.3e} tolerance={tolerance:.3e}")
    if failed:
        print(f"validation failed: {', '.join(failed)}", file=sys.stderr)
        return 3
    print("validation passed")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
