import numpy as np
import pytest

import starbath as sb
from starbath import KB
from starbath.checks import pivn_nonnegativity_floor
from starbath.gksl import (
    GkslParams,
    ep_difference,
    epr_difference,
    gksl_sigma11,
    gksl_system_temperature,
    von_neumann_ep,
    von_neumann_epr,
    von_neumann_epr_from_fluxes,
)
from starbath.thermo import entropy, inverse_temperature, mean_energy, totals

from highprec import REFERENCE
from invariants import epr_identity_residual, random_star_model


@pytest.fixture(scope="module")
def params() -> GkslParams:
    return GkslParams(
        omega1=4e6, Gamma=REFERENCE["Gamma_per_s"], T_A0=10e-6, T_B0=50e-6
    )


class TestSigma11:
    def test_initial_and_asymptotic(self, params):
        assert gksl_sigma11(params, 0.0) == pytest.approx(REFERENCE["sigma11_initial"], rel=1e-12)
        assert gksl_sigma11(params, 1.0) == pytest.approx(
            REFERENCE["sigma11_equilibrium"], rel=1e-12
        )

    def test_one_relaxation_time(self, params):
        t = 1.0 / (2.0 * params.Gamma)
        assert gksl_sigma11(params, t) == pytest.approx(
            REFERENCE["sigma11_one_relaxation_time"], rel=1e-12
        )

    def test_monotone_when_heating(self, params):
        ts = np.linspace(0, 1e-3, 300)
        series = gksl_sigma11(params, ts)
        assert np.all(np.diff(series) > 0)
        assert series[0] < series[-1] < params.coth_b

    def test_equilibrated_temperature(self, params):
        assert gksl_system_temperature(params, 10.0) == pytest.approx(50e-6, rel=1e-9)


class TestVonNeumannRate:
    def test_zero_when_equilibrated(self):
        p = GkslParams(omega1=4e6, Gamma=3000.0, T_A0=50e-6, T_B0=50e-6)
        assert von_neumann_epr(p, 0.0) == 0.0

    def test_initial_value(self, params):
        assert von_neumann_epr(params, 0.0) / KB == pytest.approx(
            REFERENCE["pivn_initial_kb_per_s"], rel=1e-12
        )

    def test_nonnegative_on_grid(self, params):
        assert pivn_nonnegativity_floor(params, np.linspace(0, 1500e-6, 777)) >= -1e-15

    def test_exact_mode_requires_series(self, params):
        # the given series must align with the time grid
        with pytest.raises(ValueError, match="align"):
            von_neumann_epr(params, np.array([0.0, 1e-6]), np.array([1.2, 1.3, 1.4]))
        with pytest.raises(ValueError, match="align"):
            von_neumann_epr(params, 0.0, np.array([1.2]))

    def test_exact_mode_consumes_series(self, params):
        ts = np.array([0.0, 100e-6])
        c1 = np.asarray(gksl_sigma11(params, ts))
        np.testing.assert_array_equal(von_neumann_epr(params, ts, c1), von_neumann_epr(params, ts))
        # an exact series that differs from the closed form is the one used
        shifted = c1 + 0.05
        assert np.all(von_neumann_epr(params, ts, shifted) != von_neumann_epr(params, ts))
        _, T_A = inverse_temperature(shifted, params.omega1)
        rate = sb.HBAR * params.omega1 * params.Gamma
        expected = rate * (1 / params.T_B0 - 1 / T_A) * (shifted - params.coth_b)
        np.testing.assert_allclose(von_neumann_epr(params, ts, shifted), expected, rtol=1e-14)


class TestVonNeumannProduction:
    def test_zero_at_time_zero(self, params):
        ts = np.linspace(0, 400e-6, 5)
        c1 = np.asarray(gksl_sigma11(params, ts))
        S_A = entropy(c1)
        E_A = mean_energy(c1, params.omega1)
        assert von_neumann_ep(params, S_A, E_A)[0] == 0.0

    def test_integral_of_rate_closed_form(self, params):
        # dS_vN must equal the time integral of Pi_vN; trapezoid on a fine
        # grid agrees to 1e-3 relative.
        ts = np.linspace(0, 400e-6, 4001)
        c1 = np.asarray(gksl_sigma11(params, ts))
        S_A = entropy(c1)
        E_A = mean_energy(c1, params.omega1)
        produced = von_neumann_ep(params, S_A, E_A)[-1]
        integrated = np.trapezoid(np.asarray(von_neumann_epr(params, ts)), ts)
        assert integrated == pytest.approx(produced, rel=1e-3)

    def test_integral_of_rate_exact_series(self):
        # same cross-check on the exact dynamics of a mid-sized bath, with
        # the rate in its defining flux form (dE_B = -dE_A weak coupling)
        cfg = sb.ExperimentConfig(n_modes=512)
        spec = cfg.bath_spec()
        model = sb.discretize_ohmic_bath(spec, cfg.omega1)
        init = cfg.initial_temperatures()
        p = GkslParams(
            omega1=cfg.omega1,
            Gamma=sb.relaxation_rate(spec, cfg.omega1),
            T_A0=init.T_A0,
            T_B0=init.T_B0,
        )
        basis = sb.mode_basis(model)
        ts = np.linspace(0, 100e-6, 801)
        series = sb.snapshot_series(basis, init, ts)
        c1, xs = series.c[:, 0], series.x
        dEA = sb.HBAR * model.omega1 * xs @ model.bath_couplings
        _, T_A = inverse_temperature(c1, model.omega1)
        rate = von_neumann_epr_from_fluxes(T_A, dEA, -dEA, p.T_B0)
        produced = von_neumann_ep(p, entropy(c1), mean_energy(c1, model.omega1))[-1]
        assert np.trapezoid(rate, ts) == pytest.approx(produced, rel=1e-3)


@pytest.fixture(scope="module")
def evolved():
    rng = np.random.default_rng(11)
    model, spec = random_star_model(rng, 96)
    init = sb.InitialTemperatures(T_A0=8e-6, T_B0=60e-6)
    p = GkslParams(
        omega1=model.omega1,
        Gamma=sb.relaxation_rate(spec, model.omega1),
        T_A0=init.T_A0,
        T_B0=init.T_B0,
    )
    basis = sb.mode_basis(model)
    series = sb.snapshot_series(basis, init, [0.0, 5e-6, 15e-6, 30e-6])
    return p, totals(series, series.at(0)), series


class TestDifferences:
    def test_zero_at_time_zero(self, evolved):
        p, record, series = evolved
        assert epr_difference(record, p)[0] == 0.0
        assert epr_difference(totals(series.at(0), series.at(0)), p) == 0.0
        assert ep_difference(record, p)[0] == 0.0

    def test_rate_gap_identity(self, evolved):
        # flux-form Pi_vN minus Pi_tot equals the closed gap formula
        p, _, series = evolved
        for i in range(1, len(series.time)):
            assert epr_identity_residual(totals(series.at(i), series.at(0)), p) <= 1e-10

    def test_production_gap_matches_direct_difference(self, evolved):
        p, record, _ = evolved
        gaps = ep_difference(record, p)
        S_A, E_A = record.entropies[:, 0], record.energies[:, 0]
        for i, gap in enumerate(gaps):
            ds_vn = (S_A[i] - S_A[0]) - (E_A[i] - E_A[0]) / p.T_B0
            assert gap == pytest.approx(ds_vn - record.dS_tot[i], abs=1e-12 * KB + abs(ds_vn) * 1e-10)

    def test_baseline_required(self, evolved):
        p, _, series = evolved
        late = sb.CovarianceSnapshot(series.time[1:], series.c[1:], series.x[1:], series.model)
        for record in (totals(late, series.at(0)), totals(series.at(1), series.at(0))):
            with pytest.raises(ValueError, match="baseline"):
                ep_difference(record, p)

    def test_params_validation(self):
        with pytest.raises(ValueError):
            GkslParams(omega1=-1.0, Gamma=1.0, T_A0=1e-5, T_B0=1e-5)
        with pytest.raises(ValueError):
            GkslParams(omega1=1.0, Gamma=-1.0, T_A0=1e-5, T_B0=1e-5)
        with pytest.raises(ValueError):
            GkslParams(omega1=1.0, Gamma=1.0, T_A0=0.0, T_B0=1e-5)
