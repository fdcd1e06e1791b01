import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import starbath
from starbath import checks
from starbath.cli import _build_parser, _config_from_args, main
from starbath.config import JOBS

MULTI_N_JOBS = {"fig1", "fig3", "fig5", "fig6", "sweep-n"}
# the N and grid flags each job reads; it refuses the others
JOB_FLAGS = {
    **{job: {"--n", "--grid"} for job in ("simulate", "fig2", "fig4")},
    **{job: {"--n-list", "--grid"} for job in ("fig1", "fig3", "fig5")},
    **{job: {"--n-list"} for job in ("fig6", "sweep-n")},
    "validate": set(),
}
FLAG_VALUES = {"--n": "16", "--n-list": "8,16,32", "--grid": "0:0.5:3"}


def test_simulate_roundtrip(tmp_path, capsys):
    rc = main(["simulate", "--n", "8", "--grid", "0:1:3", "--out", str(tmp_path)])
    assert rc == 0
    assert (tmp_path / "simulate.csv").exists()
    assert "simulate.csv" in capsys.readouterr().out


def test_config_file_with_cli_override(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"n_modes": 8, "times_us": [0.0, 1.0]}))
    rc = main(
        ["fig2", "--config", str(cfg_path), "--out", str(tmp_path / "out"), "--grid", "0:2:4"]
    )
    assert rc == 0
    data = (tmp_path / "out" / "fig2_fluxes.csv").read_bytes()
    assert data.count(b"\r\n") == 5  # header + 4 rows from the CLI grid, not the file's times


@pytest.mark.parametrize("job", [job for job in JOBS if job != "validate"])
def test_job_matrix_manifest_lists_written_files(tmp_path, capsys, job):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(
        json.dumps(
            {
                "n_modes": 16,
                "n_list": [8, 16, 32],
                "times_us": [0.0, 0.25, 0.5],
                "sweep_times_us": [0.0, 0.25],
                "mode_window_mhz": 20.0,
            }
        )
    )
    out = tmp_path / "out"
    assert main([job, "--config", str(cfg_path), "--out", str(out)]) == 0
    *written, last = [line.removeprefix("wrote ") for line in capsys.readouterr().out.splitlines()]
    (manifest_path,) = out.glob("*_manifest.json")
    assert last == str(manifest_path)
    manifest = json.loads(manifest_path.read_text())
    assert [str(out / name) for name in manifest["files"]] == written
    assert sorted(manifest["files"]) == sorted(p.name for p in out.glob("*.csv"))
    if job in MULTI_N_JOBS:
        assert sorted(manifest["derived"]) == ["N16", "N32", "N8"]
        assert manifest["parameters"]["n_list"] == [8, 16, 32]
    else:
        assert "Gamma_per_s" in manifest["derived"]
        assert "n_list" not in manifest["parameters"]


def test_config_with_removed_emit_modes_exits_2(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"emit_modes": True}))
    assert main(["simulate", "--config", str(cfg_path)]) == 2
    assert "emit_modes" in capsys.readouterr().err


def test_config_with_removed_oracle_cap_exits_2(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"oracle_cap": 64}))
    assert main(["validate", "--config", str(cfg_path), "--out", str(tmp_path / "out")]) == 2
    assert "oracle_cap" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "args, file_values",
    [
        (["--eta", "nan"], None),
        (["--grid", "0:inf:3"], None),
        (["--window", "nan"], None),
        (["--grid", "0:1:-1"], None),
        ([], {"times_us": [0.0, float("nan")]}),
        ([], {"T_A0_uk": float("nan")}),
        ([], {"omega1_mhz": float("inf")}),
        ([], {"n_list": [8.5, 16, 32]}),
        (["--grid", "0:1:3", "--eta", "1e300"], None),
        (["--n", "1"], {"n_list": [8, 16, 32]}),  # the job runs n_modes, whatever n_list holds
    ],
)
def test_non_finite_or_out_of_range_exits_2(tmp_path, capsys, args, file_values):
    out = tmp_path / "out"
    argv = ["simulate", "--n", "8", "--out", str(out), *args]
    if file_values is not None:
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(file_values))  # writes NaN/Infinity, which json reads back
        argv += ["--config", str(cfg_path)]
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("config error:")
    assert not out.exists()


@pytest.mark.parametrize(
    "values", [{"grid_start_us": 0.0}, {"grid_end_us": 1.0}, {"grid_points": 2.5}, {"grid_points": True}]
)
def test_removed_grid_fields_exit_2(tmp_path, capsys, values):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(values))
    out = tmp_path / "out"
    assert main(["simulate", "--n", "8", "--config", str(cfg_path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: unknown config keys") and next(iter(values)) in err
    assert not out.exists()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "args, file_values, name",
    [
        ([], {"times_us": "0,1"}, "times_us"),
        ([], {"times_us": [[0.0, 1.0]]}, "times_us"),
        ([], {"times_us": None}, "times_us"),
        (["--grid", "0:inf:3"], None, "times_us"),
        ([], {"sweep_times_us": ["a"]}, "sweep_times_us"),
    ],
)
def test_bad_time_list_names_its_field(tmp_path, capsys, args, file_values, name):
    out = tmp_path / "out"
    argv = ["simulate", "--n", "8", "--out", str(out), *args]
    if file_values is not None:
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(file_values))
        argv += ["--config", str(cfg_path)]
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith(f"config error: {name}: ")
    assert not out.exists()


def test_grid_flag_equals_times_us_file(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"times_us": [0.0, 0.5, 1.0, 1.5, 2.0]}))
    assert main(["simulate", "--n", "8", "--grid", "0:2:5", "--out", str(tmp_path / "flag")]) == 0
    assert main(["simulate", "--n", "8", "--config", str(cfg_path), "--out", str(tmp_path / "file")]) == 0
    for name in ("simulate.csv", "simulate_manifest.json"):
        assert (tmp_path / "flag" / name).read_bytes() == (tmp_path / "file" / name).read_bytes()


@pytest.mark.parametrize("flag", FLAG_VALUES)
@pytest.mark.parametrize("job", JOBS)
def test_n_and_grid_flags_per_job(tmp_path, capsys, job, flag):
    argv = [job, flag, FLAG_VALUES[flag], "--out", str(tmp_path / "out")]
    if flag in JOB_FLAGS[job]:
        assert _config_from_args(_build_parser().parse_args(argv)).job == job
    else:
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {job} takes no {flag}")
        assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["fig1", "--n", "64", "--grid", "0:10:3"],
        ["simulate", "--n-list", "32,64"],
        ["sweep-n", "--n-list", "8,16,32", "--grid", "0:5:3"],
    ],
)
def test_ignored_flag_combinations_exit_2(tmp_path, capsys, argv):
    assert main([*argv, "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err.startswith("config error:")
    assert not (tmp_path / "out").exists()


def test_readme_examples_parse():
    readme = Path(__file__).resolve().parents[1] / "README.md"
    examples = [
        shlex.split(line.partition("#")[0])[1:]
        for line in readme.read_text().splitlines()
        if line.startswith("starbath ")
    ]
    assert len(examples) >= len(JOBS)
    for argv in examples:
        assert _config_from_args(_build_parser().parse_args(argv)).job == argv[0]


def test_runtime_imports_no_scipy(tmp_path):
    code = (
        "import sys\n"
        "import starbath, starbath.checks, starbath.cli\n"
        f"assert starbath.cli.main(['simulate', '--n', '8', '--grid', '0:1:3', '--out', {str(tmp_path)!r}]) == 0\n"
        "loaded = sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy')\n"
        "assert not loaded, loaded\n"
    )
    src = str(Path(starbath.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "simulate.csv").exists()


def test_bad_config_exits_2(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"mystery": 1}))
    rc = main(["simulate", "--config", str(cfg_path)])
    assert rc == 2
    assert "mystery" in capsys.readouterr().err


def test_bad_n_list_exits_2(tmp_path):
    assert main(["sweep-n", "--n-list", "8,notanumber", "--out", str(tmp_path)]) == 2


def test_short_sweep_exits_2(tmp_path):
    assert main(["sweep-n", "--n-list", "8,16", "--out", str(tmp_path)]) == 2


def test_validate_green_exits_0(tmp_path, capsys):
    rc = main(["validate", "--out", str(tmp_path)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "validation passed" in out
    assert "[pass]" in out


def test_validate_failure_exits_3(tmp_path, monkeypatch, capsys):
    broken = checks.CheckResult(
        module="evolve", name="forced", residual=1.0, tolerance=1e-9, passed=False
    )
    monkeypatch.setattr(checks, "default_suite", lambda **kwargs: [broken])
    rc = main(["validate", "--out", str(tmp_path)])
    assert rc == 3
    captured = capsys.readouterr()
    assert "[FAIL] evolve.forced" in captured.out
    assert "validation failed" in captured.err
    report = json.loads((tmp_path / "validate_report.json").read_text())
    assert report["passed"] is False
