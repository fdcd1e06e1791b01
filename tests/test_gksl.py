import numpy as np
import pytest

import starbath as sb
from starbath import KB
from starbath.gksl import (
    GkslParams,
    ep_difference,
    epr_difference,
    gksl_sigma11,
    von_neumann_ep,
    von_neumann_epr,
)
from starbath.thermo import inverse_temperature, totals

from highprec import REFERENCE
from invariants import epr_identity_residual, random_star_model, von_neumann_epr_from_fluxes


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
        _, T_A = inverse_temperature(gksl_sigma11(params, 10.0), params.omega1)
        assert T_A == pytest.approx(50e-6, rel=1e-9)


class TestVonNeumannRate:
    def test_zero_when_equilibrated(self):
        p = GkslParams(omega1=4e6, Gamma=3000.0, T_A0=50e-6, T_B0=50e-6)
        assert von_neumann_epr(p, gksl_sigma11(p, 0.0)) == 0.0

    def test_initial_value(self, params):
        assert von_neumann_epr(params, gksl_sigma11(params, 0.0)) / KB == pytest.approx(
            REFERENCE["pivn_initial_kb_per_s"], rel=1e-12
        )

    def test_nonnegative_on_grid(self, params):
        c1 = gksl_sigma11(params, np.linspace(0, 1500e-6, 777))
        assert np.min(von_neumann_epr(params, c1)) / KB >= -1e-15

    def test_exact_mode_consumes_series(self, params):
        # a series that differs from the closed form is the one scored
        c1 = np.asarray(gksl_sigma11(params, np.array([0.0, 100e-6])))
        shifted = c1 + 0.05
        assert np.all(von_neumann_epr(params, shifted) != von_neumann_epr(params, c1))
        _, T_A = inverse_temperature(shifted, params.omega1)
        rate = sb.HBAR * params.omega1 * params.Gamma
        expected = rate * (1 / params.T_B0 - 1 / T_A) * (shifted - params.coth_b)
        np.testing.assert_allclose(von_neumann_epr(params, shifted), expected, rtol=1e-14)


def closed_form_record(p: GkslParams, ts: np.ndarray) -> sb.ThermoRecord:
    """Thermo record, against its first time, of a snapshot whose system
    coefficient follows the closed form while eight bath modes stay at T_B0
    with zero cross terms."""
    model = sb.discretize_ohmic_bath(sb.ExperimentConfig(n_modes=8).bath_spec(), p.omega1)
    c = np.empty((len(ts), model.n_modes + 1))
    c[:, 0] = gksl_sigma11(p, ts)
    c[:, 1:] = sb.thermal_coefficient(model.bath_omegas, p.T_B0)
    series = sb.CovarianceSnapshot(ts, c, np.zeros((len(ts), model.n_modes)), model)
    return totals(series, series.at(0))


class TestVonNeumannProduction:
    def test_zero_at_time_zero(self, params):
        record = closed_form_record(params, np.linspace(0, 400e-6, 5))
        assert von_neumann_ep(params, record)[0] == 0.0

    def test_integral_of_rate_closed_form(self, params):
        # dS_vN must equal the time integral of Pi_vN; trapezoid on a fine
        # grid agrees to 1e-3 relative.
        ts = np.linspace(0, 400e-6, 4001)
        produced = von_neumann_ep(params, closed_form_record(params, ts))[-1]
        integrated = np.trapezoid(von_neumann_epr(params, gksl_sigma11(params, ts)), ts)
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
        produced = von_neumann_ep(p, totals(series, series.at(0)))[-1]
        assert np.trapezoid(rate, ts) == pytest.approx(produced, rel=1e-3)

    def test_rejects_misaligned_series(self, evolved):
        # von_neumann_ep reads the baseline the record carries, so a grid that
        # omits t = 0 stays aligned with it: its rows equal those of the grid
        # that starts at t = 0, bit for bit; a baseline of another model is
        # refused when the record is built
        p, record, series = evolved
        late = totals(series.at(slice(1, None)), series.at(0))
        assert np.array_equal(von_neumann_ep(p, late), von_neumann_ep(p, record)[1:])
        other_model, _ = random_star_model(np.random.default_rng(99), 48)
        other = sb.CovarianceSnapshot(0.0, series.c[0, :49], series.x[0, :48], other_model)
        with pytest.raises(ValueError, match="different model"):
            totals(series, other)


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
        # ep_difference reads the t = 0 baseline the record carries, so a grid
        # that omits t = 0 gives the rows of the grid that starts there, bit
        # for bit; a record against a later time cannot be built (test_thermo's
        # one-time contract cases cover a record of one time)
        p, record, series = evolved
        late = totals(series.at(slice(1, None)), series.at(0))
        assert np.array_equal(ep_difference(late, p), ep_difference(record, p)[1:])
        with pytest.raises(ValueError, match="baseline"):
            totals(series.at(slice(1, None)), series.at(1))

    def test_params_validation(self):
        with pytest.raises(ValueError):
            GkslParams(omega1=-1.0, Gamma=1.0, T_A0=1e-5, T_B0=1e-5)
        with pytest.raises(ValueError):
            GkslParams(omega1=1.0, Gamma=-1.0, T_A0=1e-5, T_B0=1e-5)
        with pytest.raises(ValueError):
            GkslParams(omega1=1.0, Gamma=1.0, T_A0=0.0, T_B0=1e-5)
