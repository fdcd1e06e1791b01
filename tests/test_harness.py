import csv
import json
import re
from dataclasses import fields, replace

import numpy as np
import pytest

import starbath as sb
from starbath.config import JOB_INPUTS, JOBS, ConfigError, ExperimentConfig, load_config, parse_grid
from starbath.constants import KB, UK, US
from starbath.evolve import phase_time_limit
from starbath.harness import _Run, _sweep_curves, affine_fit, proportional_fit, run_job
from starbath.table import ResultTable, write_manifest

from invariants import flux_finite_difference_residual


FLOAT_FIELDS = [f.name for f in fields(ExperimentConfig) if f.type == "float"]


def grid(end_us: float, points: int = 4) -> list[float]:
    """``times_us`` of ``points`` even steps from 0 to ``end_us``."""
    return np.linspace(0.0, end_us, points).tolist()


def tiny_cfg(tmp_path, **kwargs) -> ExperimentConfig:
    defaults = dict(n_modes=16, times_us=grid(3.0), out_dir=str(tmp_path))
    defaults.update(kwargs)
    return ExperimentConfig(**defaults)


class TestConfig:
    def test_defaults_valid(self):
        ExperimentConfig()

    def test_rejects_unknown_keys(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"n_modes": 8, "bogus_knob": 1}))
        with pytest.raises(ConfigError, match="bogus_knob"):
            load_config(path)

    def test_rejects_unknown_overrides(self, tmp_path):
        # an override that names no field is refused as the file's keys are
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"n_modes": 8}))
        with pytest.raises(ConfigError, match="bogus"):
            load_config(path, bogus=1)

    def test_loads_known_keys(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"n_modes": 8, "eta": 2e-3, "job": "fig2"}))
        cfg = load_config(path)
        assert cfg.n_modes == 8 and cfg.eta == 2e-3 and cfg.job == "fig2"

    def test_rejects_bad_values(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(job="fig9")
        with pytest.raises(ConfigError):
            ExperimentConfig(pivn_mode="sometimes")
        with pytest.raises(ConfigError):
            ExperimentConfig(job="fig1", n_list=[400, 200])
        with pytest.raises(ConfigError, match="strictly"):
            ExperimentConfig(job="fig1", n_list=[200, 200, 400])
        with pytest.raises(ConfigError):
            ExperimentConfig(times_us=[3.0, 1.0])
        with pytest.raises(ConfigError, match="times_us"):
            ExperimentConfig(times_us=[])

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(eta=-1e-3),
            dict(omega1_mhz=0.0),
            dict(omega_c_mhz=-3.0),
            dict(omega_min_mhz=0.0),
            dict(omega_min_mhz=20.0, omega_max_mhz=4.0),
            dict(T_A0_uk=0.0),
            dict(T_B0_uk=-50.0),
            dict(n_modes=1),
            dict(n_modes=1, n_list=[8, 16, 32]),
            dict(job="fig1", n_list=[1, 8, 16]),
            dict(job="fig1", n_list=[]),
            dict(times_us=[[0.0, 1.0]]),
            dict(job="sweep-n", sweep_times_us=[2.0, 1.0]),
            dict(times_us=[-1.0, 1.0]),
            dict(job="sweep-n", sweep_times_us=[]),
            dict(job="fig4", mode_window_mhz=0.0),
            dict(n_modes=8.5),
            dict(n_list=[8.5, 16, 32]),
            dict(eta=1e300),
        ],
    )
    def test_rejects_out_of_range_values(self, kwargs):
        with pytest.raises(ConfigError):
            ExperimentConfig(**kwargs)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
    @pytest.mark.parametrize("name", FLOAT_FIELDS)
    def test_rejects_non_finite_floats(self, name, value):
        with pytest.raises(ConfigError):
            ExperimentConfig(job="fig4", **{name: value})  # fig4 reads every float field

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    @pytest.mark.parametrize("name", ["times_us", "sweep_times_us"])
    def test_rejects_non_finite_times(self, name, value):
        job = "simulate" if name == "times_us" else "sweep-n"  # a job that reads the list
        with pytest.raises(ConfigError, match="finite"):
            ExperimentConfig(job=job, **{name: [0.0, value]})

    @pytest.mark.parametrize("job", JOBS)
    def test_checks_only_the_fields_the_job_reads(self, job):
        # every field out of range; only a field the job reads may be refused
        bad = dict(
            eta=-1.0, n_modes=1, n_list=[1], times_us=[], sweep_times_us=[], pivn_mode="x", mode_window_mhz=-1.0
        )
        for name, value in bad.items():
            if name in JOB_INPUTS[job]:
                with pytest.raises(ConfigError):
                    ExperimentConfig(job=job, **{name: value})
            else:
                ExperimentConfig(job=job, **{name: value})
        unread = {name: value for name, value in bad.items() if name not in JOB_INPUTS[job]}
        assert ExperimentConfig(job=job, **unread).job == job

    @pytest.mark.parametrize(
        "job, numpy_values, python_values",
        [
            ("fig1", {"n_list": np.array([8, 16])}, {"n_list": [8, 16]}),
            ("sweep-n", {"n_list": np.array([8, 16, 32])}, {"n_list": [8, 16, 32]}),
            ("simulate", {"n_modes": np.int64(16)}, {"n_modes": 16}),
            ("simulate", {"eta": np.float32(1e-3)}, {"eta": float(np.float32(1e-3))}),
            ("fig5", {"times_us": np.array(grid(0.2))}, {"times_us": grid(0.2)}),
            ("simulate", {"times_us": [0, np.float64(0.1), np.int64(1)]}, {"times_us": [0, 0.1, 1]}),
        ],
        ids=["fig1_n_list", "sweep_n_list", "n_modes_int64", "eta_float32", "fig5_times", "mixed_list"],
    )
    def test_numpy_values_write_what_python_values_write(self, tmp_path, job, numpy_values, python_values):
        # numpy scalars and arrays are stored as the Python values they hold: an
        # array n_list has no truth value, a numpy integer has no JSON form and a
        # float32 eta would carry Gamma and the couplings in float32.  Python ints
        # in float fields stay ints, as a JSON file gives them
        written, stored = [], []
        for name, values in (("numpy", numpy_values), ("python", python_values)):
            out = tmp_path / name
            cfg = tiny_cfg(out, **({"job": job, "times_us": grid(0.2), "sweep_times_us": [0.1, 0.2]} | values))
            run_job(cfg)
            written.append({path.name: path.read_bytes() for path in sorted(out.iterdir())})
            stored.append({key: repr(getattr(cfg, key)) for key in values})
        assert written[0] == written[1] and len(written[0]) >= 2
        assert stored[0] == stored[1]

    def test_parse_grid(self):
        assert parse_grid("0:1200:121") == np.linspace(0.0, 1200.0, 121).tolist()
        assert parse_grid("0:2:3") == [0.0, 1.0, 2.0]
        for bad in ("0:1200", "a:b:c", "0:1:2.5", "0:1:-1"):
            with pytest.raises(ConfigError):
                parse_grid(bad)

    def test_default_times_are_the_production_grid(self):
        times = ExperimentConfig().times()
        assert times.tobytes() == (np.linspace(0.0, 1200.0, 121) * US).tobytes()

    def test_times_stop_below_the_phase_time_limit(self):
        # config caps the grid with evolve's own limit: just below it passes, at it is refused
        cfg = ExperimentConfig(n_modes=8, times_us=[0.0, 1.0])
        limit = phase_time_limit(sb.discretize_ohmic_bath(cfg.bath_spec(8), cfg.omega1)) / US
        ExperimentConfig(n_modes=8, times_us=[0.0, float(np.nextafter(limit, 0.0))])
        with pytest.raises(ConfigError, match=re.escape(f"times_us: times must stay below {limit:.6g} us at N = 8")):
            ExperimentConfig(n_modes=8, times_us=[0.0, limit])

    def test_times_in_seconds(self):
        cfg = ExperimentConfig(times_us=[0.0, 10.0])
        np.testing.assert_allclose(cfg.times(), [0.0, 10e-6])


class TestResultTable:
    def test_rfc4180_bytes(self, tmp_path):
        table = ResultTable.from_columns({"t[us]": [0.0, 1.0], "v[1]": [1.25, -3.0]})
        path = table.write_csv(tmp_path / "t.csv")
        raw = path.read_bytes()
        assert raw == b"t[us],v[1]\r\n0.0,1.25\r\n1.0,-3.0\r\n"

    def test_round_trip_column(self):
        table = ResultTable.from_columns({"a[1]": np.array([0.5, 1.5])})
        np.testing.assert_allclose(table.column("a[1]"), [0.5, 1.5])

    def test_from_columns_bytes(self, tmp_path):
        table = ResultTable.from_columns({"N[1]": 8, "t[us]": np.array([0.0, 1.0]), "v[1]": [1.25, -3.0]})
        assert table.rows == [(8, 0.0, 1.25), (8, 1.0, -3.0)]
        raw = table.write_csv(tmp_path / "t.csv").read_bytes()
        assert raw == b"N[1],t[us],v[1]\r\n8,0.0,1.25\r\n8,1.0,-3.0\r\n"

    def test_special_float_bytes(self, tmp_path):
        values = [float("nan"), -0.0, 1e16, 5e-324]
        table = ResultTable.from_columns({"i[1]": np.arange(4), "v[1]": np.array(values)})
        raw = table.write_csv(tmp_path / "t.csv").read_bytes()
        assert raw == b"i[1],v[1]\r\n0,nan\r\n1,-0.0\r\n2,1e+16\r\n3,5e-324\r\n"

    def test_bytes_match_the_csv_module(self, tmp_path, monkeypatch):
        # the column writer against csv.writer on the same rows; -0.0 next to
        # 0.0 fails a writer that tells floats apart by value, not by bits.
        # Blocks of 3 rows split the 14 rows, with values repeated across blocks
        big, tiny, inf = 1.7976931348623157e308, 5e-324, float("inf")
        v = [0.25, -0.0, 0.0, float("nan"), inf, -inf, tiny, big, 0.25, -0.0, 1e16, 0.0, -big, 0.25]
        n = len(v)
        table = ResultTable.from_columns({
            "v[1]": np.array(v),
            "k[1]": np.array([-3, 7, -3, 0, 2**62, -(2**63)] * 2 + [7, -3], dtype=np.int64),
            "flag": np.arange(n) % 3 == 0,
            "name": [f"x{i % 4}" for i in range(n)],
            "N[1]": 12,
            "s[1]": -0.0,
        })
        empty = ResultTable.from_columns({"t[us]": np.empty(0), "N[1]": np.empty(0, dtype=int)})
        for key, t in (("full", table), ("empty", empty)):
            expected = tmp_path / f"{key}_expected.csv"
            with open(expected, "w", newline="") as fh:
                csv.writer(fh, dialect="excel").writerows([list(t.data), *t.rows])
            for block_rows in (3, 512):
                monkeypatch.setattr("starbath.table._BLOCK_ROWS", block_rows)
                assert t.write_csv(tmp_path / f"{key}.csv").read_bytes() == expected.read_bytes()
        assert len(table.rows) == n and empty.rows == []
        assert b"\r\n-0.0,7,False,x1,12,-0.0\r\n0.0,-3,False,x2,12,-0.0\r\n" in (tmp_path / "full.csv").read_bytes()

    def test_refuses_cells_csv_would_quote(self, tmp_path):
        for columns, name in (
            ({"a,b[1]": [1.0]}, "a,b[1]"),
            ({"t[us]": [0.0, 1.0], "check": ["ok", 'say "hi"']}, "check"),
            ({"check": ["two\nlines"]}, "check"),
            ({"check": ["cr\r"]}, "check"),
        ):
            with pytest.raises(ValueError, match=re.escape(repr(name))):
                ResultTable.from_columns(columns).write_csv(tmp_path / "t.csv")

    def test_manifest_refuses_non_finite_values(self, tmp_path):
        for value in (float("inf"), float("nan")):
            with pytest.raises(ValueError):
                write_manifest(tmp_path / "m.json", {"files": [], "parameters": {}, "derived": {"x": value}})

    def test_rejects_ragged_row(self):
        with pytest.raises(ValueError):
            ResultTable.from_columns({"a[1]": [1.0, 2.0], "b[1]": [1.0, 2.0, 3.0]})


class TestSimulateJob:
    def test_tiny_run_rows_and_invariants(self, tmp_path):
        cfg = tiny_cfg(tmp_path, n_modes=2, times_us=grid(1.0, 3))
        with pytest.warns(RuntimeWarning, match="recurrence"):
            result = run_job(cfg)
        table = result["tables"]["simulate"]
        assert len(table.rows) == 3
        # flux sum rule row by row
        total = table.column("dEA_dt[J/s]") + table.column("dEB_dt[J/s]") + table.column("dEI_dt[J/s]")
        scale = np.abs(table.column("dEA_dt[J/s]")).max() or 1.0
        assert np.max(np.abs(total)) <= 1e-12 * scale
        assert table.column("Pi_tot[kB/ms]")[0] == 0.0
        assert (tmp_path / "simulate_manifest.json").exists()

    def test_recurrence_warning_names_the_caller(self, tmp_path):
        # the warning points at the line that called run_job, not inside the harness
        cfg = tiny_cfg(tmp_path, n_modes=8, times_us=[0.0, 100.0])
        with pytest.warns(RuntimeWarning, match="recurrence time") as record:
            run_job(cfg)
        assert [w.filename for w in record] == [__file__]

    def test_decoupled_bath_gives_valid_manifest_and_frozen_state(self, tmp_path):
        # eta = 0: Gamma = 0, so the relaxation time is recorded as null, and
        # nothing evolves: no entropy production, no flux, c_1 constant
        cfg = tiny_cfg(tmp_path, eta=0.0, n_modes=40, times_us=grid(10.0, 41))
        result = run_job(cfg)

        def refuse(name):
            raise ValueError(f"non-finite JSON constant {name}")

        manifest = json.loads(result["manifest"].read_text(), parse_constant=refuse)
        assert manifest["derived"]["relaxation_time_us"] is None
        table = result["tables"]["simulate"]
        for name in ("Pi_tot[kB/ms]", "dS_tot[kB]", "dEA_dt[J/s]", "dEB_dt[J/s]", "dEI_dt[J/s]"):
            assert np.all(table.column(name) == 0.0), name
        c1 = table.column("sigma11_exact[1]")
        assert np.all(c1 == c1[0])
        assert c1[0] == manifest["derived"]["sigma11_initial"]

    def test_simulate_at_32000(self, tmp_path):
        # every bath row at N = 32000 on [0, 400] us, far below t1 = 10 ms:
        # the fluxes keep their sum rule, the basis its sum rule and Newton
        # step, and the total entropy does not fall below its initial value
        cfg = tiny_cfg(tmp_path, n_modes=32000, times_us=grid(400.0, 5))
        result = run_job(cfg)
        table = result["tables"]["simulate"]
        fluxes = [table.column(f"dE{part}_dt[J/s]") for part in "ABI"]
        assert np.max(np.abs(sum(fluxes))) <= 1e-12 * np.max(np.abs(fluxes))
        s_tot = table.column("S_tot[kB]")
        assert table.column("t[us]")[0] == 0.0 and np.all(s_tot >= s_tot[0])
        derived = json.loads(result["manifest"].read_text())["derived"]
        assert derived["weight_sum_residual"] <= 1e-12
        assert derived["newton_step"] <= 1e-12

    @pytest.mark.xfail(strict=True, raises=ValueError, reason="cold baths: evolved c_j falls below 1")
    def test_cold_bath_simulate(self, tmp_path):
        # T_A0 = 1 uK, T_B0 = 3 uK: the roundoff floor of the evolved
        # coefficients c_j ~ 1 + 2 nbar exceeds nbar, so totals refuses c < 1
        cfg = tiny_cfg(tmp_path, n_modes=200, T_A0_uk=1.0, T_B0_uk=3.0, times_us=grid(60.0, 61))
        table = run_job(cfg)["tables"]["simulate"]
        assert np.all(table.column("sigma11_exact[1]") >= 1.0)

    @pytest.mark.xfail(strict=True, raises=ValueError, reason="cold baths: initial c_j - 1 below BOUNDARY_EPS")
    def test_cold_top_mode_simulate(self, tmp_path):
        # T_B0 = 5 uK on the default band: the top bath mode starts at
        # c - 1 = 1.1e-13, below BOUNDARY_EPS, so totals refuses the run at
        # t = 0; at 10 uK (c - 1 = 4.6e-7) the same run passes
        cfg = tiny_cfg(tmp_path, n_modes=64, T_B0_uk=5.0, times_us=grid(2.0, 3))
        table = run_job(cfg)["tables"]["simulate"]
        assert np.all(np.isfinite(table.column("Pi_tot[kB/ms]")))

    def test_deterministic_bytes(self, tmp_path):
        cfg1 = tiny_cfg(tmp_path / "a", times_us=grid(0.5))
        cfg2 = tiny_cfg(tmp_path / "b", times_us=grid(0.5))
        first = run_job(cfg1)["files"][0].read_bytes()
        second = run_job(cfg2)["files"][0].read_bytes()
        assert first == second

    def test_manifest_contents(self, tmp_path):
        cfg = tiny_cfg(tmp_path, times_us=np.asarray(grid(0.5)))  # the config accepts an array grid
        run_job(cfg)
        manifest = json.loads((tmp_path / "simulate_manifest.json").read_text())
        assert manifest["files"] == ["simulate.csv"]
        assert manifest["parameters"]["times_us"] == grid(0.5)
        derived = manifest["derived"]
        for key in ("delta_omega_rad_per_s", "Gamma_per_s", "recurrence_time_us", "nbar", "evaluation_path"):
            assert key in derived
        assert derived["weight_sum_residual"] <= 1e-12
        assert derived["newton_step"] <= 1e-12


class TestFigureJobs:
    def test_fig1_files(self, tmp_path):
        cfg = tiny_cfg(tmp_path, job="fig1", n_list=[8, 16], times_us=grid(0.5))
        result = run_job(cfg)
        names = [p.name for p in result["files"]]
        assert names == ["fig1_sigma11_N8.csv", "fig1_sigma11_N16.csv", "fig1_sigma11_gksl.csv"]
        manifest = json.loads((tmp_path / "fig1_manifest.json").read_text())
        assert manifest["files"] == names

    def test_fig1_above_n8000(self, tmp_path):
        # N = 16000 over [0, 200] us, well inside t1 = 5033 us: c_1 follows
        # the closed form to criterion 01's 2%, and the refined basis keeps
        # its sum rule and Newton step at roundoff
        cfg = tiny_cfg(tmp_path, job="fig1", n_list=[16000], times_us=grid(200.0, 5))
        tables = run_job(cfg)["tables"]
        c1 = tables["N16000"].column("sigma11_exact[1]")
        gksl = tables["gksl"].column("sigma11_gksl[1]")
        assert np.max(np.abs(c1 - gksl) / gksl) <= 0.02
        derived = json.loads((tmp_path / "fig1_manifest.json").read_text())["derived"]["N16000"]
        assert derived["weight_sum_residual"] <= 1e-12
        assert derived["newton_step"] <= 1e-12

    def test_fig2_flux_sum(self, tmp_path):
        cfg = tiny_cfg(tmp_path, job="fig2", times_us=grid(0.5))
        table = run_job(cfg)["tables"]["fluxes"]
        total = table.column("dEA_dt[J/s]") + table.column("dEB_dt[J/s]") + table.column("dEI_dt[J/s]")
        scale = max(np.abs(table.column("dEA_dt[J/s]")).max(), 1e-300)
        assert np.max(np.abs(total)) <= 1e-12 * scale

    def test_fig3_per_n_files_and_derived(self, tmp_path):
        cfg = tiny_cfg(tmp_path, job="fig3", n_list=[8, 16, 32], times_us=grid(0.5))
        result = run_job(cfg)
        names = ["fig3_rates_N8.csv", "fig3_rates_N16.csv", "fig3_rates_N32.csv"]
        assert [p.name for p in result["files"]] == names
        assert list(result["tables"]) == ["N8", "N16", "N32"]
        manifest = json.loads((tmp_path / "fig3_manifest.json").read_text())
        assert manifest["files"] == names
        assert manifest["parameters"]["n_list"] == [8, 16, 32]
        assert list(manifest["derived"]) == ["N16", "N32", "N8"]  # sorted keys
        assert manifest["derived"]["N16"]["delta_omega_rad_per_s"] == pytest.approx(19.974e6 / 15)
        for table in result["tables"].values():
            assert table.column("Pi_tot[kB/ms]")[0] == 0.0

    def test_fig4_and_fig5_windows(self, tmp_path):
        cfg = tiny_cfg(tmp_path, job="fig4", n_list=[16], mode_window_mhz=20.0, times_us=grid(0.5))
        r4 = run_job(cfg)
        assert set(r4["tables"]["system"].data) == {"t[us]", "T_A_exact[uK]", "T_A_gksl[uK]"}
        assert len(r4["tables"]["bath"].rows) == 16 * len(cfg.times_us)
        r5 = run_job(replace(cfg, job="fig5"))
        assert len(r5["tables"]["N16"].rows) == 16 * len(cfg.times_us)

    def test_fig5_single_n_mode_fluxes_sum_to_bath_flux(self, tmp_path):
        # a window over the whole bath: the per-mode fluxes add up to the
        # simulate job's dE_B/dt and the temperatures match fig4's bath table
        cfg = tiny_cfg(tmp_path, job="fig5", n_list=[16], mode_window_mhz=20.0, times_us=grid(0.5))
        modes = run_job(cfg)["tables"]["N16"]
        assert (tmp_path / "fig5_modes_N16.csv").exists()
        assert list(modes.data) == ["j[1]", "omega_j[MHz]", "t[us]", "T_j[uK]", "dEj_dt[J/s]"]
        assert modes.column("j[1]").tolist() == np.repeat(np.arange(2, 18), len(cfg.times_us)).tolist()
        flux = modes.column("dEj_dt[J/s]").reshape(16, len(cfg.times_us)).sum(axis=0)
        sim = run_job(replace(cfg, job="simulate"))["tables"]["simulate"]
        dEB = sim.column("dEB_dt[J/s]")
        np.testing.assert_allclose(flux, dEB, rtol=1e-12, atol=1e-12 * np.abs(dEB).max())
        bath = run_job(replace(cfg, job="fig4"))["tables"]["bath"]
        np.testing.assert_array_equal(bath.column("T_j[uK]"), modes.column("T_j[uK]"))

    def test_specialised_jobs_write_the_full_evaluation_bits(self, tmp_path):
        # fig1, fig2, fig4 and fig5 evaluate the system row, the cross terms or
        # a mode window alone; each column they share with simulate (or fig4
        # with fig5) holds the same bits
        cfg = tiny_cfg(tmp_path, n_modes=24, n_list=[24], mode_window_mhz=3.0, pivn_mode="exact", times_us=grid(5.0, 7))

        def tables(job):
            return run_job(replace(cfg, job=job, out_dir=str(tmp_path / job)))["tables"]

        sim = tables("simulate")["simulate"].data
        fig2 = tables("fig2")["fluxes"].data
        fig3 = tables("fig3")["N24"].data
        checks = [(fig2, name) for name in ("dEA_dt[J/s]", "dEB_dt[J/s]", "dEI_dt[J/s]")]
        checks += [(tables("fig1")["N24"].data, "sigma11_exact[1]"), (fig3, "Pi_tot[kB/ms]"), (fig3, "Pi_vN[kB/ms]")]
        for table, name in checks:
            assert np.array_equal(table[name], sim[name]), name
        fig4, modes = tables("fig4"), tables("fig5")["N24"].data
        assert 0 < len(modes["j[1]"]) < 24 * len(cfg.times_us) and modes["j[1]"][0] > 2  # a window inside the bath
        for name in ("j[1]", "omega_j[MHz]", "t[us]", "T_j[uK]"):
            assert np.array_equal(fig4["bath"].data[name], modes[name]), name
        _, T_A = sb.inverse_temperature(sim["sigma11_exact[1]"], cfg.omega1)
        assert np.array_equal(fig4["system"].data["T_A_exact[uK]"], T_A / UK)


    @pytest.mark.parametrize("pivn_mode", ["gksl", "exact"])
    def test_pivn_is_scored_on_the_configured_sigma11(self, tmp_path, pivn_mode):
        # simulate and fig3 write Pi_vN of the closed-form c_1 in gksl mode
        # and of the written exact c_1 in exact mode, bit for bit
        cfg = tiny_cfg(tmp_path, n_modes=24, n_list=[24], pivn_mode=pivn_mode, times_us=grid(5.0, 7))
        init = cfg.initial_temperatures()
        params = sb.GkslParams(
            omega1=cfg.omega1, Gamma=sb.relaxation_rate(cfg.bath_spec(24), cfg.omega1), T_A0=init.T_A0, T_B0=init.T_B0
        )

        def written(job, name):
            run_job(replace(cfg, job=job, out_dir=str(tmp_path / job)))
            with open(tmp_path / job / name, newline="") as fh:
                header, *rows = csv.reader(fh)
            return {col: np.array([float(row[i]) for row in rows]) for i, col in enumerate(header)}

        sim = written("simulate", "simulate.csv")
        fig3 = written("fig3", "fig3_rates_N24.csv")
        c1 = sim["sigma11_exact[1]"] if pivn_mode == "exact" else sb.gksl_sigma11(params, cfg.times())
        expected = sb.von_neumann_epr(params, c1) / KB * 1e-3
        assert not np.array_equal(sim["sigma11_exact[1]"], sim["sigma11_gksl[1]"])  # the modes differ here
        for table in (sim, fig3):
            assert np.array_equal(table["Pi_vN[kB/ms]"], expected)


class TestSweepJob:
    def test_rejects_short_n_list(self, tmp_path):
        cfg = tiny_cfg(tmp_path, n_list=[8, 16])  # fine for a job that is no sweep
        with pytest.raises(ConfigError, match="at least 3"):
            tiny_cfg(tmp_path, job="sweep-n", n_list=[8, 16])
        with pytest.raises(ConfigError, match="at least 3"):
            replace(cfg, job="sweep-n")

    def test_zero_time_rows_vanish(self, tmp_path):
        cfg = tiny_cfg(tmp_path, job="sweep-n", n_list=[8, 16, 32], sweep_times_us=[0.0])
        result = run_job(cfg)
        gaps = result["tables"]["sweep"].column("ep_gap[kB]")
        np.testing.assert_allclose(gaps, 0.0, atol=1e-15)
        fit = result["fits"]["t_us=0"]["proportional"]
        assert fit["r2"] == 1.0  # degenerate all-zero fit treated as perfect

    def test_sweep_n_writes_its_files_and_fits(self, tmp_path):
        cfg = tiny_cfg(tmp_path, job="sweep-n", n_list=[8, 16, 32], sweep_times_us=[0.0, 0.2, 0.4])
        sweep = run_job(cfg)
        assert [p.name for p in sweep["files"]] == ["sweep_n.csv"]
        assert sweep["manifest"] == tmp_path / "sweep_n_manifest.json"
        manifest = json.loads(sweep["manifest"].read_text())
        assert sorted(manifest) == ["derived", "files", "fits", "parameters"]
        assert manifest["fits"] == sweep["fits"]
        assert list(sweep["fits"]) == ["t_us=0", "t_us=0.2", "t_us=0.4"]
        table = sweep["tables"]["sweep"]
        assert table.column("N[1]").tolist() == [8] * 3 + [16] * 3 + [32] * 3

    def test_stacks_each_n_column_by_column(self, tmp_path):
        # the N column stays integer across the stacked per-N tables; the
        # default sweep times lie beyond t1 at these N
        cfg = tiny_cfg(tmp_path, job="sweep-n", n_list=[100, 200, 300])
        with pytest.warns(RuntimeWarning, match="recurrence"):
            result = run_job(cfg)
        table = result["tables"]["sweep"]
        np.testing.assert_array_equal(table.column("N[1]"), np.repeat([100, 200, 300], 4))
        lines = result["files"][0].read_text().splitlines()
        assert lines[0].split(",")[0] == "N[1]"
        assert [line.split(",")[0] for line in lines[1:]] == [str(n) for n in (100, 200, 300) for _ in range(4)]
        with pytest.warns(RuntimeWarning, match="recurrence"):
            per_n = [_sweep_curves(_Run(cfg, n, cfg.sweep_times()))["sweep"][1].rows for n in cfg.n_list]
        assert table.rows == [row for rows in per_n for row in rows]

    def test_close_times_keep_distinct_fits(self, tmp_path):
        # 1.0000001 and 1.0000002 agree to 6 significant digits
        cfg = tiny_cfg(tmp_path, job="sweep-n", n_list=[8, 16, 32], sweep_times_us=[1.0000001, 1.0000002, 2.0])
        assert list(run_job(cfg)["fits"]) == ["t_us=1.0000001", "t_us=1.0000002", "t_us=2"]

    def test_fit_helpers(self):
        x = np.array([1.0, 0.5, 0.25])
        prop = proportional_fit(x, 3.0 * x)
        assert prop["slope"] == pytest.approx(3.0) and prop["r2"] == pytest.approx(1.0)
        aff = affine_fit(x, 2.0 * x + 1.0)
        assert aff["slope"] == pytest.approx(2.0)
        assert aff["intercept"] == pytest.approx(1.0)
        assert aff["r2"] == pytest.approx(1.0)


class TestValidateJob:
    def test_sign_flip_in_cross_terms_is_caught(self):
        # corrupting x must blow up the flux-vs-finite-difference residual
        cfg = ExperimentConfig(n_modes=64)
        model = sb.discretize_ohmic_bath(cfg.bath_spec(), cfg.omega1)
        init = cfg.initial_temperatures()
        basis = sb.mode_basis(model)
        t = 20e-6
        clean = flux_finite_difference_residual(basis, init, t)
        corrupted = flux_finite_difference_residual(
            basis, init, t, x_override=-sb.snapshot_series(basis, init, [t]).at(0).x
        )
        assert clean <= 1e-6
        assert corrupted > 1e-2
