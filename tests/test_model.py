import math

import mpmath
import numpy as np
import pytest

from starbath import (
    HBAR,
    ExperimentConfig,
    KB,
    OhmicBathSpec,
    StarModel,
    discretize_ohmic_bath,
    mean_occupation,
    recurrence_time,
    relaxation_rate,
    thermal_coefficient,
)
from starbath.oracle import arrowhead_matrix

from highprec import REFERENCE
from invariants import (
    coupling_integral_error,
    coupling_sum_rule_residual,
    ohmic_window_integral,
    random_star_model,
    tensor_expansion_residual,
)


def production_spec(n_modes: int) -> OhmicBathSpec:
    return OhmicBathSpec(eta=1e-3, omega_c=3e6, omega_min=0.026e6, omega_max=20e6, n_modes=n_modes)


class TestDiscretization:
    def test_production_grid(self):
        model = discretize_ohmic_bath(production_spec(4000), 4e6)
        assert model.delta_omega == pytest.approx(REFERENCE["delta_omega_rad_per_s"], rel=1e-12)
        assert model.bath_omegas[0] == pytest.approx(0.026e6, rel=1e-14)
        assert model.bath_omegas[-1] == pytest.approx(20e6, rel=1e-12)

    def test_coupling_rule(self):
        spec = production_spec(4000)
        model = discretize_ohmic_bath(spec, 4e6)
        expected = np.sqrt(
            spec.eta * spec.delta_omega * model.bath_omegas * np.exp(-model.bath_omegas / spec.omega_c)
        )
        np.testing.assert_allclose(model.bath_couplings, expected, rtol=1e-14)

    def test_resonant_coupling_value(self):
        # the mode at exactly 4 MHz (present for N = 4000 up to grid rounding)
        model = discretize_ohmic_bath(production_spec(4000), 4e6)
        k = np.argmin(np.abs(model.bath_omegas - 4e6))
        g = math.sqrt(1e-3 * model.delta_omega * 4e6 * math.exp(-4.0 / 3.0))
        assert g == pytest.approx(REFERENCE["coupling_at_resonance_rad_per_s"], rel=1e-10)
        assert model.bath_couplings[k] == pytest.approx(g, rel=1e-3)

    def test_zero_coupling_strength(self):
        spec = OhmicBathSpec(eta=0.0, omega_c=3e6, omega_min=1e5, omega_max=1e7, n_modes=64)
        model = discretize_ohmic_bath(spec, 4e6)
        assert np.all(model.bath_couplings == 0.0)

    def test_rejects_small_bath(self):
        with pytest.raises(ValueError):
            OhmicBathSpec(eta=1e-3, omega_c=3e6, omega_min=1e5, omega_max=1e7, n_modes=1)

    @pytest.mark.parametrize("n_modes", [8.5, 16.0, "16"])
    def test_rejects_non_integral_n(self, n_modes):
        with pytest.raises(ValueError, match="integer"):
            OhmicBathSpec(eta=1e-3, omega_c=3e6, omega_min=1e5, omega_max=1e7, n_modes=n_modes)

    def test_rejects_overflowing_couplings(self):
        # eta * dw * w_max = 1e300 * 1.4e6 * 1e7 overflows, so every g_j would be inf
        with pytest.raises(ValueError, match="couplings overflow"):
            OhmicBathSpec(eta=1e300, omega_c=3e6, omega_min=1e5, omega_max=1e7, n_modes=8)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            OhmicBathSpec(eta=float("nan"), omega_c=3e6, omega_min=1e5, omega_max=1e7, n_modes=8)
        with pytest.raises(ValueError):
            discretize_ohmic_bath(production_spec(8), float("inf"))

    def test_sum_rule_exact(self):
        spec = production_spec(512)
        model = discretize_ohmic_bath(spec, 4e6)
        assert coupling_sum_rule_residual(model, spec) <= 1e-13

    @pytest.mark.parametrize("n", [128, 4000])
    def test_window_integral_matches_quadrature(self, n):
        spec = ExperimentConfig(n_modes=n).bath_spec()
        half = 0.5 * spec.delta_omega
        with mpmath.workdps(40):
            eta, omega_c = mpmath.mpf(spec.eta), mpmath.mpf(spec.omega_c)
            window = [mpmath.mpf(spec.omega_min - half), mpmath.mpf(spec.omega_max + half)]
            reference = mpmath.quad(lambda w: eta * w * mpmath.exp(-w / omega_c), window)
            assert abs(ohmic_window_integral(spec) / reference - 1) <= 1e-14

    def test_integral_convergence_quadratic(self):
        err_n = coupling_integral_error(production_spec(128), 4e6)
        err_2n = coupling_integral_error(production_spec(256), 4e6)
        assert 3.0 < err_n / err_2n < 5.0


class TestStarModelInvariants:
    @pytest.mark.skipif(np.finfo(np.longdouble).eps > 1e-18, reason="needs extended-precision longdouble")
    @pytest.mark.parametrize("n", [5000, 6500, 16000, 100000])
    def test_production_bath_above_4000_is_uniform(self, n):
        # the production bath is exactly uniform, w_j = w_0 + j dw, and
        # bath_omegas rounds it to within 1 ulp (N = 2000: tests/test_accuracy.py)
        spec = ExperimentConfig(n_modes=n).bath_spec()
        model = discretize_ohmic_bath(spec, 4e6)
        assert model.n_modes == n
        assert (model.omega_min, model.delta_omega) == (spec.omega_min, spec.delta_omega)
        exact = np.longdouble(model.omega_min) + np.arange(n) * np.longdouble(model.delta_omega)
        ulps = np.abs(model.bath_omegas - exact) / np.spacing(model.bath_omegas)
        assert np.max(ulps) <= 1.0
        assert abs(model.bath_omegas[-1] - spec.omega_max) <= 4 * np.spacing(spec.omega_max)
        # t1 = 2 pi / dw, as from the spacing of the end frequencies
        span = (model.bath_omegas[-1] - model.bath_omegas[0]) / (n - 1)
        assert recurrence_time(model) == pytest.approx(2 * math.pi / span, rel=1e-15)

    @pytest.mark.parametrize(
        "omega_min,delta_omega,couplings",
        [
            (float("nan"), 1e6, [1.0, 1.0]),
            (float("inf"), 1e6, [1.0, 1.0]),
            (0.0, 1e6, [1.0, 1.0]),
            (1e6, float("nan"), [1.0, 1.0]),
            (1e6, float("inf"), [1.0, 1.0]),
            (1e6, 0.0, [1.0, 1.0]),
            (1e6, -1e6, [1.0, 1.0]),
            (1e6, 1e6, [1.0]),
            (1e6, 1e6, [[1.0, 1.0]]),
            (1e6, 1e6, [1.0, -1.0]),
            (1e6, 1e6, [1.0, float("nan")]),
            (1e6, 1e306, [1.0] * 1000),
        ],
        ids=[
            "nan_omega_min", "inf_omega_min", "zero_omega_min", "nan_step", "inf_step", "zero_step",
            "negative_step", "one_coupling", "2d_couplings", "negative_coupling", "nan_coupling", "overflow",
        ],
    )
    def test_rejects_bad_bath(self, omega_min, delta_omega, couplings):
        with pytest.raises(ValueError):
            StarModel(4e6, omega_min, delta_omega, np.array(couplings))

    def test_rejects_negative_frequency(self):
        with pytest.raises(ValueError, match="omega_min"):
            StarModel(omega1=4e6, omega_min=-1e6, delta_omega=2e6, bath_couplings=np.ones(2))
        with pytest.raises(ValueError, match="omega1"):
            StarModel(omega1=-4e6, omega_min=1e6, delta_omega=2e6, bath_couplings=np.ones(2))

    def test_arrays_read_only(self):
        g = np.ones(8)
        model = StarModel(4e6, 1e6, 2e6, g)
        for arr in (model.bath_omegas, model.bath_couplings):
            with pytest.raises(ValueError):
                arr[0] = 0.0
        g[0] = 2.0  # the model holds its own copy; the caller's array stays writable
        assert model.bath_couplings[0] == 1.0
        np.testing.assert_array_equal(model.bath_omegas, 1e6 + 2e6 * np.arange(8))

    def test_equality(self):
        a = discretize_ohmic_bath(production_spec(8), 4e6)
        b = discretize_ohmic_bath(production_spec(8), 4e6)
        c = discretize_ohmic_bath(production_spec(9), 4e6)
        assert a == b
        assert a != c
        assert (a == 3) is False  # not a StarModel: Python falls back to identity


class TestRelaxationRate:
    def test_production_value(self):
        assert relaxation_rate(production_spec(4000), 4e6) == pytest.approx(REFERENCE["Gamma_per_s"], rel=1e-12)

    def test_zero_eta(self):
        spec = OhmicBathSpec(eta=0.0, omega_c=3e6, omega_min=1e5, omega_max=1e7, n_modes=16)
        assert relaxation_rate(spec, 4e6) == 0.0

    def test_large_cutoff_limit(self):
        spec = OhmicBathSpec(eta=1e-3, omega_c=1e15, omega_min=1e5, omega_max=1e7, n_modes=16)
        assert relaxation_rate(spec, 4e6) == pytest.approx(math.pi * 1e-3 * 4e6, rel=1e-6)

    def test_independent_of_n(self):
        assert relaxation_rate(production_spec(16), 4e6) == relaxation_rate(production_spec(4000), 4e6)

    def test_rejects_bad_omega1(self):
        for omega1 in (0.0, -4e6, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="omega1"):
                relaxation_rate(production_spec(16), omega1)

    def test_rejects_overflowing_rate(self):
        # finite couplings (eta * dw * w_max ~ 4e298), but pi * eta * omega1 overflows
        spec = OhmicBathSpec(eta=1e290, omega_c=3e6, omega_min=0.026e6, omega_max=20e6, n_modes=10**6)
        with pytest.raises(ValueError, match="rate overflows"):
            relaxation_rate(spec, 1e19)


class TestMeanOccupation:
    def test_production_value(self):
        assert mean_occupation(4e6, 50e-6) == pytest.approx(REFERENCE["nbar"], rel=1e-12)

    def test_zero_temperature_limit(self):
        assert mean_occupation(4e6, 1e-9) < 1e-300

    @pytest.mark.parametrize("omega,temp", [(4e6, 50e-6), (0.5e6, 10e-6), (20e6, 80e-6)])
    def test_coth_identity(self, omega, temp):
        nbar = mean_occupation(omega, temp)
        coth = 1.0 / math.tanh(HBAR * omega / (2 * KB * temp))
        assert 2 * nbar + 1 == pytest.approx(coth, rel=1e-12)
        assert thermal_coefficient(omega, temp) == pytest.approx(coth, rel=1e-14)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            mean_occupation(4e6, 0.0)
        with pytest.raises(ValueError):
            mean_occupation(-1e6, 1e-5)
        with pytest.raises(ValueError, match="omega"):
            thermal_coefficient([4e6, 0.0], 1e-5)
        with pytest.raises(ValueError, match="temperature"):
            thermal_coefficient(4e6, -1e-5)


class TestRecurrenceTime:
    def test_production_value(self):
        model = discretize_ohmic_bath(production_spec(4000), 4e6)
        assert recurrence_time(model) / 1e-6 == pytest.approx(
            REFERENCE["recurrence_time_us"], rel=1e-12
        )

    def test_doubling_modes_doubles_t1(self):
        t_4000 = recurrence_time(discretize_ohmic_bath(production_spec(4000), 4e6))
        t_8000 = recurrence_time(discretize_ohmic_bath(production_spec(8000), 4e6))
        assert t_8000 / t_4000 == pytest.approx(2.0, rel=1e-3)

    def test_doubling_range_halves_t1(self):
        narrow = OhmicBathSpec(eta=1e-3, omega_c=3e6, omega_min=1e5, omega_max=10e6, n_modes=100)
        wide = OhmicBathSpec(eta=1e-3, omega_c=3e6, omega_min=1e5, omega_max=19.9e6, n_modes=100)
        t_narrow = recurrence_time(discretize_ohmic_bath(narrow, 4e6))
        t_wide = recurrence_time(discretize_ohmic_bath(wide, 4e6))
        assert t_wide / t_narrow == pytest.approx(9.9e6 / 19.8e6, rel=1e-12)

    def test_spacing_identity(self):
        model = discretize_ohmic_bath(production_spec(777), 4e6)
        assert recurrence_time(model) * model.delta_omega == pytest.approx(
            2 * math.pi, rel=1e-14
        )


class TestReducedHamiltonian:
    def test_two_mode_analytic_eigenvalues(self):
        # a second, uncoupled bath mode (a star needs two) keeps its bare frequency
        w1, w2, w3, g = 4e6, 6e6, 9e6, 2e5
        model = StarModel(omega1=w1, omega_min=w2, delta_omega=w3 - w2, bath_couplings=np.array([g, 0.0]))
        eigs = np.linalg.eigvalsh(arrowhead_matrix(model))
        mid, split = (w1 + w2) / 2, math.hypot((w1 - w2) / 2, g)
        np.testing.assert_allclose(eigs, [mid - split, mid + split, w3], rtol=1e-14)

    def test_decoupled_eigenvalues_are_bare(self):
        spec = OhmicBathSpec(eta=0.0, omega_c=3e6, omega_min=1e5, omega_max=1e7, n_modes=32)
        model = discretize_ohmic_bath(spec, 4e6)
        eigs = np.linalg.eigvalsh(arrowhead_matrix(model))
        np.testing.assert_allclose(eigs, np.sort(model.frequencies), rtol=1e-14)

    def test_arrowhead_structure(self):
        model = discretize_ohmic_bath(production_spec(16), 4e6)
        h = arrowhead_matrix(model)
        assert np.array_equal(h, h.T)
        assert np.array_equal(np.diag(h), model.frequencies)
        assert np.array_equal(h[0, 1:], model.bath_couplings)
        interior = h[1:, 1:]
        assert np.all(interior[~np.eye(16, dtype=bool)] == 0.0)

    def test_tensor_expansion_matches_full_matrix(self, rng):
        model, _ = random_star_model(rng, 3)
        assert tensor_expansion_residual(model) == 0.0
