import argparse
import importlib.util
import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import starbath
from starbath import evolve, harness
from starbath.cli import _build_parser, _config_from_args, main
from starbath.config import JOB_INPUTS, JOBS

MULTI_N_JOBS = {"fig1", "fig3", "fig5", "sweep-n"}
# the field flags each job reads; it refuses the others
JOB_FLAGS = {
    "simulate": {"--n", "--grid", "--pivn-mode", "--eta"},
    "fig1": {"--n-list", "--grid", "--eta"},
    "fig2": {"--n", "--grid", "--eta"},
    "fig3": {"--n-list", "--grid", "--pivn-mode", "--eta"},
    "fig4": {"--n", "--grid", "--window", "--eta"},
    "fig5": {"--n-list", "--grid", "--window", "--eta"},
    "sweep-n": {"--n-list", "--eta"},
    "validate": {"--n", "--grid", "--eta"},
}
FLAG_VALUES = {
    "--n": "16",
    "--n-list": "8,16,32",
    "--grid": "0:0.5:3",
    "--pivn-mode": "exact",
    "--eta": "0.002",
    "--window": "0.3",
    "--seed": "5",  # no job takes it: argparse refuses it as unknown
}
# the config field and parsed value each FLAG_VALUES entry gives
FLAG_FIELDS = {
    "--n": ("n_modes", 16),
    "--n-list": ("n_list", "8,16,32"),
    "--grid": ("times_us", "0:0.5:3"),
    "--pivn-mode": ("pivn_mode", "exact"),
    "--eta": ("eta", 0.002),
    "--window": ("mode_window_mhz", 0.3),
}

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


@pytest.mark.parametrize("job", JOBS)
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
    lines = capsys.readouterr().out.splitlines()
    *written, last = [line.removeprefix("wrote ") for line in lines if line.startswith("wrote ")]
    (manifest_path,) = out.glob("*_manifest.json")
    assert last == str(manifest_path)
    manifest = json.loads(manifest_path.read_text())
    assert [str(out / name) for name in manifest["files"]] == written
    assert sorted(manifest["files"]) == sorted(p.name for p in out.glob("*.csv"))
    assert sorted(manifest["parameters"]) == sorted(JOB_INPUTS[job])
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


def test_config_with_removed_seed_exits_2(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"seed": 0}))
    assert main(["validate", "--config", str(cfg_path), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err.startswith("config error: unknown config keys: seed")
    assert not (tmp_path / "out").exists()


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
    argv = ["fig4", "--n", "8", "--out", str(out), *args]  # fig4 takes every flag used here
    if file_values is not None:
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(file_values))  # writes NaN/Infinity, which json reads back
        argv += ["--config", str(cfg_path)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "takes no" not in err
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
        # past the exact range of the phases: max time x (max(w1, w_max) + 2 |g|) >= 2^31 2 pi
        (["--grid", "0:1e9:3"], None, "times_us"),
        (["sweep-n", "--n-list", "8,16,32"], {"sweep_times_us": [100.0, 1e9]}, "sweep_times_us"),
    ],
)
def test_bad_time_list_names_its_field(tmp_path, capsys, args, file_values, name):
    out = tmp_path / "out"
    if not args or args[0].startswith("--"):  # simulate unless the case names its job
        args = ["simulate", "--n", "8", *args]
    argv = [*args, "--out", str(out)]
    if file_values is not None:
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(file_values))
        argv += ["--config", str(cfg_path)]
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith(f"config error: {name}: ")
    assert not out.exists()


@pytest.mark.parametrize(
    "values, name",
    [
        ({"eta": True}, "eta"),
        ({"times_us": [0, True, 2]}, "times_us"),
        ({"n_modes": True}, "n_modes"),
        ({"T_A0_uk": "10"}, "T_A0_uk"),
        ({"n_list": [8, "16", 32]}, "n_list"),
        ({"sweep_times_us": [100.0, False]}, "sweep_times_us"),
        ({"out_dir": 5}, "out_dir"),
        ({"out_dir": ["a"]}, "out_dir"),
        ({"pivn_mode": 1}, "pivn_mode"),
    ],
)
def test_wrong_type_in_field_exits_2(tmp_path, capsys, values, name):
    # the output directory comes from the file, so a bad out_dir there is read
    out = tmp_path / "out"
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"out_dir": str(out)} | values))
    assert main(["validate", "--config", str(cfg_path)]) == 2
    assert capsys.readouterr().err.startswith(f"config error: {name}: expected ")
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
    """A job takes exactly the field flags of the fields it reads."""
    argv = [job, flag, FLAG_VALUES[flag], "--out", str(tmp_path / "out")]
    if flag in JOB_FLAGS[job]:
        assert _config_from_args(_build_parser().parse_args(argv)).job == job
    elif flag == "--seed":
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments: --seed" in capsys.readouterr().err
    else:
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {job} takes no {flag}")
        assert not (tmp_path / "out").exists()


def test_one_parser_namespaces():
    """One parser for every job: each (job, flag) pair parses to the same
    Namespace whether the flag comes after the job name or before it."""
    parser = _build_parser()
    assert parser._subparsers is None  # no per-job subparsers
    unset = dict.fromkeys(["config", "out_dir", *(name for name, _ in FLAG_FIELDS.values())])
    assert parser.parse_args(["sweep-n"]) == argparse.Namespace(job="sweep-n", **unset)
    for job, flags in JOB_FLAGS.items():
        for flag in flags:
            name, value = FLAG_FIELDS[flag]
            expected = argparse.Namespace(**unset | {"job": job, "out_dir": "o", name: value})
            assert parser.parse_args([job, flag, FLAG_VALUES[flag], "--out", "o"]) == expected
            assert parser.parse_args([flag, FLAG_VALUES[flag], "--out", "o", job]) == expected


def test_repeated_main_calls_keep_the_flag_rules(tmp_path, capsys):
    """The parser is built once per process; each call still applies its own job's flag rules."""
    assert _build_parser() is _build_parser()
    for _ in range(2):
        assert main(["fig1", "--n", "8", "--out", str(tmp_path / "refused")]) == 2
        assert capsys.readouterr().err.startswith("config error: fig1 takes no --n")
        assert main(["simulate", "--n", "8", "--grid", "0:1:3", "--out", str(tmp_path / "simulate")]) == 0
        assert main(["fig1", "--n-list", "8,16", "--grid", "0:1:3", "--out", str(tmp_path / "fig1")]) == 0
        assert main(["simulate", "--n-list", "8,16", "--out", str(tmp_path / "refused")]) == 2
        assert capsys.readouterr().err.startswith("config error: simulate takes no --n-list")
    assert not (tmp_path / "refused").exists()


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


def test_benchmark_argv_is_accepted(tmp_path, monkeypatch):
    """Every benchmark workload's CLI arguments, full size and warm-up, pass the flag rules."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)  # dataclasses look their module up there
    spec.loader.exec_module(workloads)
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"times_us": workloads.warmup_grid(workloads.DEFAULT_SEED)}))
    for w in workloads.WORKLOADS.values():
        for n_values in (w.n_values, (workloads.WARMUP_N,)):
            argv = w.argv(n_values, str(config), str(tmp_path / "out"))
            cfg = _config_from_args(_build_parser().parse_args(argv))
            assert (cfg.job, cfg.n_list or [cfg.n_modes]) == (w.job, list(n_values))


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
        "import starbath, starbath.cli\n"
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


def test_unusable_out_exits_2_before_any_evaluation(tmp_path, monkeypatch, capsys):
    # an --out under a file, or naming one, is a config error found before
    # the job builds its first mode basis
    def refuse(model):
        raise AssertionError("evaluation started with an unusable --out")

    monkeypatch.setattr(harness, "mode_basis", refuse)
    blocker = tmp_path / "file"
    blocker.write_text("")
    for out in (blocker / "x", blocker):
        assert main(["fig1", "--n-list", "64", "--grid", "0:10:3", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and str(blocker) in err


def test_directory_at_an_output_file_exits_2(tmp_path, capsys):
    # the job runs, then finds a directory where simulate.csv goes
    (tmp_path / "simulate.csv").mkdir()
    assert main(["simulate", "--n", "8", "--grid", "0:1:3", "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and "simulate.csv" in err and "Traceback" not in err


def test_config_field_the_job_does_not_read_is_not_checked(tmp_path, capsys):
    # fig1 never reads the window, so an out-of-range one in its file is left alone
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"mode_window_mhz": -1, "n_modes": 1}))
    out = tmp_path / "out"
    assert main(["fig1", "--n-list", "8,16", "--grid", "0:1:3", "--config", str(cfg_path), "--out", str(out)]) == 0
    assert (out / "fig1_manifest.json").exists()
    capsys.readouterr()
    assert main(["fig4", "--n", "8", "--grid", "0:1:3", "--config", str(cfg_path), "--out", str(out / "fig4")]) == 2
    assert capsys.readouterr().err.startswith("config error: mode_window_mhz must be positive and finite")
    assert not (out / "fig4").exists()


@pytest.mark.parametrize(
    "text, message",
    [(None, "cannot read config file"), ("{", "is not valid JSON"), ("[1, 2]", "must contain a JSON object")],
    ids=["missing", "invalid_json", "array"],
)
def test_unloadable_config_exits_2(tmp_path, capsys, text, message):
    cfg_path = tmp_path / "cfg.json"
    if text is not None:
        cfg_path.write_text(text)
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(cfg_path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and message in err
    assert not out.exists()


_BIG = "1" + "0" * 400  # an integer beyond the range of a float


@pytest.mark.parametrize(
    "job, flags, text, message",
    [
        ("simulate", ["--n", _BIG], None, "n_modes: integer too large for a float"),
        ("fig1", ["--n-list", f"100,{_BIG}"], None, "n_list: integer too large for a float"),
        ("simulate", [], f'{{"eta": {_BIG}}}', "eta: integer too large for a float"),
        ("simulate", [], f'{{"times_us": [0, {_BIG}]}}', "times_us: integer too large for a float"),
        ("fig5", [], f'{{"mode_window_mhz": {_BIG}}}', "mode_window_mhz: integer too large for a float"),
        # past Python's 4300-digit limit json.loads itself refuses the number
        ("simulate", [], '{"eta": 1' + "0" * 5000 + "}", "is not valid JSON"),
    ],
    ids=["n", "n_list", "eta", "times_us", "mode_window_mhz", "json_digit_limit"],
)
def test_integer_beyond_float_exits_2(tmp_path, capsys, job, flags, text, message):
    if text is not None:
        (tmp_path / "cfg.json").write_text(text)
        flags = [*flags, "--config", str(tmp_path / "cfg.json")]
    out = tmp_path / "out"
    assert main([job, *flags, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and message in err
    assert not out.exists()


def test_bad_n_list_exits_2(tmp_path):
    assert main(["sweep-n", "--n-list", "8,notanumber", "--out", str(tmp_path)]) == 2


def test_short_sweep_exits_2(tmp_path):
    assert main(["sweep-n", "--n-list", "8,16", "--out", str(tmp_path)]) == 2


def test_validate_green_exits_0(tmp_path, capsys):
    assert main(["validate", "--n", "64", "--grid", "0:10:5", "--out", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    checks = (tmp_path / "validate_checks.csv").read_text().splitlines()[1:]
    assert checks and out.count("[pass]") == len(checks) and "[FAIL]" not in out
    assert out.endswith("validation passed\n")
    manifest = json.loads((tmp_path / "validate_manifest.json").read_text())
    assert manifest["files"] == ["validate_checks.csv"]
    assert list(manifest["parameters"]) == sorted(JOB_INPUTS["validate"])
    assert manifest["parameters"]["n_modes"] == 64 and len(manifest["parameters"]["times_us"]) == 5


def test_validate_cold_bath_exits_3(tmp_path, capsys):
    # T_A0 = 1 uK, T_B0 = 3 uK: roundoff takes the evolved c_j below 1
    # (min c - 1 = -1e-15), which the simulate job refuses with a ValueError
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"T_A0_uk": 1.0, "T_B0_uk": 3.0, "n_modes": 200}))
    argv = ["validate", "--config", str(cfg_path), "--grid", "0:60:61", "--out", str(tmp_path / "out")]
    assert main(argv) == 3
    captured = capsys.readouterr()
    assert "[FAIL] coefficient_floor" in captured.out
    assert captured.err.startswith("validation failed: coefficient_floor")
    assert "Traceback" not in captured.err
    assert (tmp_path / "out" / "validate_manifest.json").exists()


def test_validate_catches_corrupted_cross_terms(tmp_path, monkeypatch, capsys):
    evaluate = evolve.evaluate

    def sign_flipped(*args, **kwargs):
        c, x = evaluate(*args, **kwargs)
        return c, None if x is None else -x

    monkeypatch.setattr(evolve, "evaluate", sign_flipped)
    assert main(["validate", "--n", "64", "--grid", "0:10:5", "--out", str(tmp_path)]) == 3
    captured = capsys.readouterr()
    assert "[FAIL] oracle_equivalence_N64" in captured.out
    assert "validation failed: oracle_equivalence_N64" in captured.err
