import json
import math
from dataclasses import fields
from typing import NamedTuple

import numpy as np
import pytest

import starbath as sb
from starbath import HBAR, KB
from starbath.checks import flux_sum_residual
from starbath.evolve import CovarianceSnapshot
from starbath.thermo import (
    BOUNDARY_EPS,
    entropy_kb,
    inverse_temperature,
    log_coth_ratio,
    mean_energy,
    ThermoRecord,
    total_epr,
    totals,
)

from highprec import REFERENCE
from invariants import (
    entropy_energy_slope_residual,
    epr_finite_difference_residual,
    epr_rearrangement_residual,
    flux_finite_difference_residual,
    partition_function,
    random_star_model,
    random_temperatures,
    thermo_consistency_residual,
)

C_EQ = REFERENCE["sigma11_equilibrium"]  # coth at 4 MHz, 50 uK


class TestMeanEnergy:
    def test_vacuum(self):
        assert mean_energy(1.0, 4e6) == pytest.approx(HBAR * 4e6 / 2, rel=1e-15)

    def test_equilibrium_value(self):
        assert mean_energy(C_EQ, 4e6) == pytest.approx(REFERENCE["energy_equilibrium_J"], rel=1e-12)

    def test_linear_in_c(self):
        e1, e2 = mean_energy(2.0, 4e6), mean_energy(4.0, 4e6)
        assert (e2 - e1) / 2.0 == pytest.approx(HBAR * 4e6 / 2, rel=1e-14)

    def test_rejects_unphysical(self):
        with pytest.raises(ValueError):
            mean_energy(0.999, 4e6)


class TestInverseTemperature:
    @pytest.mark.parametrize("temp", [10e-6, 50e-6, 1e-3])
    def test_round_trip(self, temp):
        c = sb.thermal_coefficient(4e6, temp)
        beta, T = inverse_temperature(c, 4e6)
        assert T == pytest.approx(temp, rel=1e-12)
        assert beta == pytest.approx(1.0 / (KB * temp), rel=1e-12)

    def test_spec_values(self):
        _, t_hot = inverse_temperature(3.3742, 4e6)
        _, t_cold = inverse_temperature(1.0989, 4e6)
        assert t_hot == pytest.approx(50e-6, rel=1e-4)
        assert t_cold == pytest.approx(10e-6, rel=1e-4)

    def test_boundary_is_flagged_zero(self):
        beta, T = inverse_temperature(1.0 + 1e-13, 4e6)
        assert T == 0.0 and math.isinf(beta)
        beta, T = inverse_temperature(1.0, 4e6)
        assert T == 0.0 and math.isinf(beta)

    def test_rejects_below_one(self):
        with pytest.raises(ValueError):
            inverse_temperature(0.5, 4e6)


class TestPartitionAndFreeEnergy:
    def test_sqrt5(self):
        assert partition_function(math.sqrt(5.0)) == pytest.approx(1.0, rel=1e-14)

    def test_boundary(self):
        assert partition_function(1.0) == 0.0
        assert partition_function(1.0 + 1e-14) < 1e-6

    def test_equilibrium_value(self):
        assert partition_function(C_EQ) == pytest.approx(
            REFERENCE["partition_function_equilibrium"], rel=1e-12
        )

    @pytest.mark.parametrize("temp", [10e-6, 50e-6, 200e-6])
    def test_cross_check_with_trace_formula(self, temp):
        # Z from the coefficient against the geometric series form
        c = sb.thermal_coefficient(4e6, temp)
        beta_h_omega = HBAR * 4e6 / (KB * temp)
        series = math.exp(-beta_h_omega / 2) / (1.0 - math.exp(-beta_h_omega))
        assert partition_function(c) == pytest.approx(series, rel=1e-12)


class TestEntropy:
    def test_third_law_boundary(self):
        assert entropy_kb(1.0) == 0.0

    def test_equilibrium_value(self):
        assert entropy_kb(C_EQ) == pytest.approx(REFERENCE["entropy_equilibrium_kb"], rel=1e-12)

    @pytest.mark.parametrize("c", [1.01, 2.0, 5.0, 50.0])
    def test_strictly_increasing(self, c):
        assert entropy_kb(c + 1e-6) > entropy_kb(c)

    def test_matches_occupation_form(self):
        # (nbar+1) ln(nbar+1) - nbar ln(nbar) with nbar = (c-1)/2
        for c in (1.001, 1.5, 3.3742, 40.0):
            nbar = (c - 1.0) / 2.0
            expected = (nbar + 1) * math.log(nbar + 1) - nbar * math.log(nbar)
            assert entropy_kb(c) == pytest.approx(expected, rel=1e-12)

    def test_third_law_ladder_monotone(self):
        ladder = 1.0 + np.logspace(-10, 0, 51)
        values = entropy_kb(ladder)
        assert np.all(np.diff(values) > 0)
        assert values[0] < 2e-9

    def test_rejects_unphysical(self):
        with pytest.raises(ValueError):
            entropy_kb(0.99)


class TestConsistency:
    def test_consistency_square(self):
        # S from the x ln x form against (E - F)/T over the physical range
        ladder = 1.0 + np.logspace(-5, 2, 36)
        assert thermo_consistency_residual(ladder) <= 1e-10

    def test_entropy_energy_slope(self):
        for c in (1.2, 2.7, 10.0):
            assert entropy_energy_slope_residual(c) <= 1e-6


def evolved_record(n=48, t=20e-6, seed=5):
    rng = np.random.default_rng(seed)
    model, _ = random_star_model(rng, n)
    init = random_temperatures(rng)
    basis = sb.mode_basis(model)
    baseline = sb.snapshot_series(basis, init, [0.0]).at(0)
    snap = sb.snapshot_series(basis, init, [t]).at(0)
    return model, basis, init, baseline, snap


class TestFluxesAndTotals:
    def test_fluxes_vanish_initially(self):
        model, _, init, baseline, _ = evolved_record()
        fx = sb.fluxes_from_cross_terms(baseline.x, model)
        assert fx.dEA_dt == 0.0 and fx.dEB_dt == 0.0 and fx.dEI_dt == 0.0
        assert total_epr(baseline) == 0.0

    def test_flux_sum_rule(self):
        model, _, init, _, snap = evolved_record()
        assert flux_sum_residual(snap) <= 1e-12

    def test_flux_matches_finite_difference(self):
        cfg = sb.ExperimentConfig(n_modes=128)
        model = sb.discretize_ohmic_bath(cfg.bath_spec(), cfg.omega1)
        basis = sb.mode_basis(model)
        assert flux_finite_difference_residual(basis, cfg.initial_temperatures(), 20e-6) <= 1e-6

    def test_epr_rearrangement(self):
        model, _, init, _, snap = evolved_record()
        assert epr_rearrangement_residual(snap) <= 1e-12

    def test_epr_matches_entropy_finite_difference(self):
        # Pi_tot against the central difference of S_tot, N = 512 at t = 100 us, dt = 1 ns
        cfg = sb.ExperimentConfig(n_modes=512)
        basis = sb.mode_basis(sb.discretize_ohmic_bath(cfg.bath_spec(), cfg.omega1))
        assert epr_finite_difference_residual(basis, cfg.initial_temperatures(), 100e-6) <= 1e-4

    def test_interaction_flux_negligible(self):
        # weak coupling: the interaction flux stays a few percent of the
        # system flux once the transient has passed
        cfg = sb.ExperimentConfig(n_modes=512)
        model = sb.discretize_ohmic_bath(cfg.bath_spec(), cfg.omega1)
        basis = sb.mode_basis(model)
        c0 = sb.initial_coefficients(basis.frequencies, cfg.initial_temperatures())
        xs = sb.evaluate(basis, c0, np.linspace(5e-6, 150e-6, 16))[1]
        fx = sb.fluxes_from_cross_terms(xs, model)
        assert fx.dEI_dt.shape == (16,)
        assert np.all(np.abs(fx.dEI_dt) <= 0.1 * np.abs(fx.dEA_dt))

    def test_epr_rejects_boundary(self):
        model, _, init, _, snap = evolved_record()
        frozen = np.array(snap.c)
        frozen[3] = 1.0 + BOUNDARY_EPS / 2
        bad = CovarianceSnapshot(time=snap.time, c=frozen, x=snap.x, model=model)
        with pytest.raises(ValueError, match="boundary"):
            total_epr(bad)

    def test_totals_relative_to_self_is_zero(self):
        model, _, init, baseline, _ = evolved_record()
        rec = totals(baseline, baseline)
        assert rec.dS_tot == 0.0
        assert rec.Pi_tot == 0.0
        assert rec.S_tot == pytest.approx(float(np.sum(KB * entropy_kb(baseline.c))), rel=1e-14)

    def test_totals_additivity(self):
        model, _, init, baseline, snap = evolved_record()
        rec = totals(snap, baseline)
        assert rec.S_tot == pytest.approx(float(np.sum(rec.entropies)), rel=1e-14)
        assert rec.entropies.shape == (model.n_modes + 1,)

    def test_totals_model_mismatch(self):
        model, basis, init, baseline, snap = evolved_record()
        other_model, _ = random_star_model(np.random.default_rng(99), 48)
        other = CovarianceSnapshot(time=0.0, c=baseline.c, x=baseline.x, model=other_model)
        with pytest.raises(ValueError, match="different model"):
            totals(snap, other)

    def test_totals_size_mismatch(self):
        # a snapshot's width is its model's, so totals never meets a baseline
        # of another size on the same model: the constructor refuses it
        model, _, _, baseline, _ = evolved_record()
        with pytest.raises(ValueError, match="N\\+1 coefficients"):
            CovarianceSnapshot(time=0.0, c=baseline.c[:-1], x=baseline.x[:-1], model=model)

    def test_totals_requires_t0_baseline(self):
        model, basis, init, baseline, snap = evolved_record()
        with pytest.raises(ValueError, match="t = 0"):
            totals(baseline, snap)

    def test_log_coth_ratio_boundary(self):
        assert math.isinf(log_coth_ratio(1.0))
        assert log_coth_ratio(3.0) == pytest.approx(math.log(2.0), rel=1e-14)

    def test_grid_totals_match_one_time_totals_bit_for_bit(self):
        # one totals call on a grid snapshot gives, row by row, exactly the
        # record of each one-time snapshot (built positionally, as a caller
        # holding 1-d data would)
        model, basis, init, _, _ = evolved_record()
        series = sb.snapshot_series(basis, init, np.linspace(0.0, 40e-6, 9))
        grid = totals(series, series.at(0))
        assert grid.S_tot.shape == (9,) and grid.mode_fluxes.shape == (9, model.n_modes)
        for i in range(9):
            one = totals(CovarianceSnapshot(series.time[i], series.c[i], series.x[i], model), series.at(0))
            for f in fields(ThermoRecord):
                assert np.array_equal(getattr(grid, f.name)[i], getattr(one, f.name)), f.name
            assert isinstance(one.Pi_tot, float) and isinstance(one.time, float)


class _Inputs(NamedTuple):
    """Arguments of the one-time contract cases: a grid, or its element k."""

    p: sb.GkslParams
    t: float | np.ndarray
    omega: float | np.ndarray
    c: float | np.ndarray  # off the c = 1 boundary
    cold: float | np.ndarray  # at the boundary for k = 0, 1
    snap: CovarianceSnapshot
    rec: ThermoRecord


ONE_TIME_CASES = {
    "thermal_coefficient": lambda v: sb.thermal_coefficient(v.omega, v.p.T_B0),
    "gksl_sigma11": lambda v: sb.gksl_sigma11(v.p, v.t),
    "von_neumann_epr": lambda v: sb.von_neumann_epr(v.p, sb.gksl_sigma11(v.p, v.t)),
    "von_neumann_epr_of_series": lambda v: sb.von_neumann_epr(v.p, v.snap.c[..., 0]),
    "log_coth_ratio": lambda v: log_coth_ratio(v.c),
    "mean_energy": lambda v: mean_energy(v.c, v.omega),
    "inverse_temperature_beta": lambda v: inverse_temperature(v.c, v.omega)[0],
    "inverse_temperature_T": lambda v: inverse_temperature(v.c, v.omega)[1],
    "entropy_kb": lambda v: entropy_kb(v.c),
    "inverse_temperature_beta_at_1": lambda v: inverse_temperature(v.cold, v.omega)[0],
    "inverse_temperature_T_at_1": lambda v: inverse_temperature(v.cold, v.omega)[1],
    "entropy_kb_at_1": lambda v: entropy_kb(v.cold),
    **{f"totals_{name}": (lambda v, name=name: getattr(v.rec, name))
       for name in ("S_tot", "dS_tot", "Pi_tot", "dEA_dt", "dEB_dt", "dEI_dt")},
    "epr_difference": lambda v: sb.epr_difference(v.rec, v.p),
}


@pytest.fixture(scope="module")
def contract_inputs() -> tuple[_Inputs, list[_Inputs]]:
    model, basis, init, _, _ = evolved_record()
    p = sb.GkslParams(omega1=model.omega1, Gamma=1e4, T_A0=init.T_A0, T_B0=init.T_B0)
    t = np.array([0.0, 5e-6, 20e-6, 40e-6])
    omega = model.frequencies[:4]
    c = np.array([1.5, C_EQ, 10.0, 40.0])
    cold = np.array([1.0, 1.0 + 1e-13, 1.0 + 1e-6, 3.0])
    series = sb.snapshot_series(basis, init, t)
    grid = _Inputs(p, t, omega, c, cold, series, totals(series, series.at(0)))
    ones = [
        _Inputs(p, t[k], omega[k], c[k], cold[k], series.at(k), totals(series.at(k), series.at(0)))
        for k in range(len(t))
    ]
    return grid, ones


@pytest.mark.parametrize("name", ONE_TIME_CASES)
def test_one_time_result_is_the_grid_element(contract_inputs, name):
    # a one-time call returns a float that json writes as float(v) does, and
    # that equals, bit for bit, the matching element of the grid call
    grid, ones = contract_inputs
    case = ONE_TIME_CASES[name]
    values = case(grid)
    for k, one in enumerate(ones):
        v = case(one)
        assert isinstance(v, float), (k, type(v))
        assert json.dumps(v) == json.dumps(float(v))
        assert np.asarray(v).tobytes() == np.asarray(values)[k].tobytes(), k
