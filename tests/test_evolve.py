import tracemalloc

import numpy as np
import pytest

import starbath as sb
from starbath.checks import (
    energy_conservation_residual,
    gibbs_block_residual,
    oracle_equivalence_residual,
    orthonormality_residual,
    positivity_floor,
    random_star_model,
    random_temperatures,
    reconstruction_residual,
    unitarity_residual,
)
from starbath import evolve
from starbath.evolve import initial_coefficients
from starbath.harness import derived_constants
from starbath.oracle import arrowhead_matrix, dense_oracle_at, initial_covariance_diagonal


def small_setup(seed=3, n=12):
    rng = np.random.default_rng(seed)
    model, _ = random_star_model(rng, n)
    init = random_temperatures(rng)
    return model, init, rng


class TestDiagonalize:
    def test_orthonormal_and_reconstructs(self, rng):
        model, _ = random_star_model(rng, 16)
        basis = sb.mode_basis(model)
        assert orthonormality_residual(basis) <= 1e-10
        assert reconstruction_residual(basis) <= 1e-9

    def test_eigenvalues_ascending(self, rng):
        model, _ = random_star_model(rng, 24)
        basis = sb.mode_basis(model)
        assert np.all(np.diff(basis.eigenvalues) >= 0)

    def test_decoupled_bath_is_deflated(self):
        spec = sb.OhmicBathSpec(eta=0.0, omega_c=3e6, omega_min=1e5, omega_max=1e7, n_modes=9)
        model = sb.discretize_ohmic_bath(spec, 4e6)
        basis = sb.mode_basis(model)
        np.testing.assert_allclose(basis.eigenvalues, np.sort(model.frequencies), rtol=1e-14)
        init = sb.InitialTemperatures(T_A0=10e-6, T_B0=50e-6)
        c0 = initial_coefficients(model.frequencies, init)
        c, x = sb.evaluate(basis, c0, [0.0, 3e-6, 40e-6])
        np.testing.assert_allclose(c, np.broadcast_to(c0, c.shape), rtol=1e-15)
        assert np.all(x == 0.0)

    def test_partially_decoupled_matches_oracle(self, rng):
        model, _ = random_star_model(rng, 14)
        g = model.bath_couplings.copy()
        g[[0, 5, 6, 13]] = 0.0
        model = sb.StarModel(omega1=model.omega1, bath_omegas=model.bath_omegas, bath_couplings=g)
        init = random_temperatures(rng)
        basis = sb.mode_basis(model)
        assert np.count_nonzero(basis.weights) == model.n_modes + 1 - 4
        assert orthonormality_residual(basis) <= 1e-10
        assert reconstruction_residual(basis) <= 1e-9
        assert oracle_equivalence_residual(model, init, rng.uniform(0, 40e-6, size=6)) <= 1e-9

    def test_weak_couplings_converge(self):
        # couplings just above the deflation threshold put roots ~1e-24 from
        # their poles, far below the absolute error of the starting eigenvalues
        model, _ = random_star_model(np.random.default_rng(3), 40)
        g = model.bath_couplings.copy()
        g[::3] = 1e-8
        g[[1, 20]] = [3e-6, 1e-3]
        model = sb.StarModel(omega1=model.omega1, bath_omegas=model.bath_omegas, bath_couplings=g)
        basis = sb.mode_basis(model)
        assert basis.newton_step <= 1e-12
        assert np.all(basis.weights > 0)
        assert orthonormality_residual(basis) <= 1e-10
        assert reconstruction_residual(basis) <= 1e-9

    @pytest.mark.parametrize("omega1", [0.05e6, 4e6, 30e6], ids=["below", "inside", "above"])
    @pytest.mark.parametrize("couplings", ["ohmic", "weak", "partly_zero", "alternate_zero"])
    def test_eigenvalues_match_dense_solver(self, omega1, couplings, monkeypatch):
        spec = sb.OhmicBathSpec(eta=1e-3, omega_c=3e6, omega_min=0.1e6, omega_max=20e6, n_modes=48)
        model = sb.discretize_ohmic_bath(spec, omega1)
        g = model.bath_couplings.copy()
        if couplings == "weak":
            g[::3] = 1e-8
        elif couplings == "partly_zero":
            g[[0, 5, 6, 47]] = 0.0
        elif couplings == "alternate_zero":
            g[1::2] = 0.0
        model = sb.StarModel(omega1=omega1, bath_omegas=model.bath_omegas, bath_couplings=g)
        tables, direct = [], []
        build, secular = evolve._comb, evolve._secular

        def recording_build(bath_w, g2):
            tables.append(len(g2))
            return build(bath_w, g2)

        def recording(offset, shifts, poles, comb):
            nearest = poles + np.rint(shifts / comb[0])
            direct.append(np.count_nonzero((nearest < 0) | (nearest >= model.n_modes)))
            return secular(offset, shifts, poles, comb)

        monkeypatch.setattr(evolve, "_comb", recording_build)
        monkeypatch.setattr(evolve, "_secular", recording)
        h = arrowhead_matrix(model)
        basis = sb.mode_basis(model)
        atol = 64 * np.finfo(float).eps * np.linalg.norm(h, 2)
        np.testing.assert_allclose(basis.eigenvalues, np.linalg.eigvalsh(h), rtol=0, atol=atol)
        # quadratic convergence leaves a roundoff-sized step, not the stopping tolerance
        assert basis.newton_step <= 1e-14
        # one far-field table over the whole grid, deflated modes included; only
        # the two outer roots can lie beyond the grid and take the direct sum
        assert tables == [48]
        assert max(direct) <= 2

    @pytest.mark.skipif(np.finfo(np.longdouble).eps > 1e-18, reason="needs extended-precision longdouble")
    @pytest.mark.parametrize("bath", ["uniform", "jittered"])
    def test_secular_sums_match_extended_precision(self, production, bath):
        # f and f' at off-root shifts against the direct sum in longdouble,
        # relative to the sum of the magnitudes of their terms; the O(N^2)
        # float64 GEMV this path replaced reaches 2e-15 to 4e-15 on f'
        model = production.model(2000)
        w, g2 = model.bath_omegas, model.bath_couplings**2
        rng = np.random.default_rng(7)
        if bath == "jittered":  # per-step spacing jitter at StarModel's 1e-12 limit
            steps = model.delta_omega * (1.0 + 0.999e-12 * rng.uniform(-1.0, 1.0, len(w) - 1))
            w = w[0] + np.concatenate(([0.0], np.cumsum(steps)))
            model = sb.StarModel(omega1=model.omega1, bath_omegas=w, bath_couplings=model.bath_couplings)
        comb = evolve._comb(w, g2)
        shifts = rng.choice([-1.0, 1.0], len(w)) * rng.uniform(0.05, 0.95, len(w)) * comb[0]
        offset = w - model.omega1
        f, fp = evolve._secular(offset, shifts, np.arange(len(w)), comb)
        L = np.longdouble
        for rows in np.array_split(np.arange(len(w)), 8):
            den = (w[rows, None].astype(L) - w.astype(L)) + shifts[rows, None].astype(L)
            terms = g2.astype(L) / den
            f_ref = offset[rows].astype(L) + shifts[rows] - terms.sum(axis=1)
            f_abs = np.abs(offset[rows]) + np.abs(shifts[rows]) + np.abs(terms).sum(axis=1)
            fp_ref = 1 + (terms / den).sum(axis=1)
            assert np.max(np.abs(f[rows] - f_ref) / f_abs) <= 1e-15
            assert np.max(np.abs(fp[rows] - fp_ref) / fp_ref) <= 1e-15

    def test_secular_row_passes_at_production_size(self, production, monkeypatch):
        # the midpoint cot-model start saves 1.6 of the 6.0 passes over all
        # roots that a start at the middle of the half-bracket takes
        model = production.model(4000)
        rows = []
        secular = evolve._secular

        def counting(offset, shifts, *args):
            rows.append(len(shifts))
            return secular(offset, shifts, *args)

        monkeypatch.setattr(evolve, "_secular", counting)
        basis = sb.mode_basis(model)
        assert basis.newton_step <= 1e-14
        assert sum(rows) / (model.n_modes + 1) < 4.5

    def test_production_basis_allocates_no_dense_matrix(self, production):
        model = production.model(4000)
        tracemalloc.start()
        try:
            sb.mode_basis(model)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the dense (N+1)^2 matrix alone is 122 MiB; the far-field tables and
        # their FFT scratch plus O(N) vectors measure 2.1 MiB
        assert peak <= 3 * 2**20

    def test_production_basis_far_above_8000(self, production):
        derived = derived_constants(production.basis(10000), production.params(10000))
        assert derived["weight_sum_residual"] <= 1e-12
        assert derived["newton_step"] <= 1e-12

    def test_production_basis_at_100000(self, production):
        basis = production.basis(100000)
        derived = derived_constants(basis, production.params(100000))
        l, w = basis.eigenvalues, basis.model.bath_omegas
        assert np.all(l[:-1] < w) and np.all(w < l[1:])  # strict interlacing
        assert derived["weight_sum_residual"] <= 1e-12
        assert derived["newton_step"] <= 1e-14


class TestSnapshots:
    def test_initial_snapshot(self):
        model, init, _ = small_setup()
        basis = sb.mode_basis(model)
        snap = sb.snapshot_series(basis, init, [0.0]).at(0)
        c0 = initial_coefficients(basis.frequencies, init)
        np.testing.assert_allclose(snap.c, c0, rtol=1e-12)
        np.testing.assert_allclose(snap.x, 0.0, atol=1e-12 * c0.max())
        assert np.all(snap.c >= 1.0)

    def test_initial_coefficients_are_coth(self):
        model, init, _ = small_setup()
        c0 = initial_coefficients(model.frequencies, init)
        assert c0[0] == pytest.approx(sb.thermal_coefficient(model.omega1, init.T_A0), rel=1e-14)
        np.testing.assert_allclose(
            c0[1:], sb.thermal_coefficient(model.bath_omegas, init.T_B0), rtol=1e-14
        )

    def test_series_matches_pointwise_bit_for_bit(self):
        model, init, _ = small_setup()
        basis = sb.mode_basis(model)
        t = 17.3e-6
        coarse = sb.snapshot_series(basis, init, [0.0, t])
        fine = sb.snapshot_series(basis, init, [0.0, t / 3, t / 2, t])
        assert coarse.c.shape == (2, model.n_modes + 1) and fine.x.shape == (4, model.n_modes)
        assert np.array_equal(coarse.c[1], fine.c[3])
        assert np.array_equal(coarse.x[1], fine.x[3])
        point = fine.at(3)
        assert point.time == t and np.array_equal(point.c, fine.c[3])

    def test_series_validation(self):
        model, init, _ = small_setup()
        basis = sb.mode_basis(model)
        with pytest.raises(ValueError):
            sb.snapshot_series(basis, init, [2e-6, 1e-6])
        with pytest.raises(ValueError):
            sb.snapshot_series(basis, init, [-1e-9])
        for grid in ([np.nan], [np.inf], [0.0, np.inf], [1e-6, np.nan, 2e-6]):
            with pytest.raises(ValueError, match="finite"):
                sb.snapshot_series(basis, init, grid)
        series = sb.snapshot_series(basis, init, [0.0, 1e-6])
        for time, c, x in (
            ([0.0, 1e-6], series.c[:, :-1], series.x),  # one coefficient short
            ([0.0, 1e-6], series.c, series.x[:1]),  # cross terms at one time only
            (0.0, series.c, series.x),  # grid data at a single time
        ):
            with pytest.raises(ValueError):
                sb.CovarianceSnapshot(time, c, x, model)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_convex_envelope_and_unitarity(self, seed):
        model, init, rng = small_setup(seed=seed, n=20)
        basis = sb.mode_basis(model)
        c0 = initial_coefficients(basis.frequencies, init)
        for t in rng.uniform(0, 40e-6, size=4):
            snap = sb.snapshot_series(basis, init, [t]).at(0)
            assert snap.c.min() >= c0.min() - 1e-9
            assert snap.c.max() <= c0.max() + 1e-9
            assert unitarity_residual(basis, t) <= 1e-9

    def test_fast_paths_match_full_snapshot(self):
        model, init, _ = small_setup(n=24)
        basis = sb.mode_basis(model)
        times = np.array([0.0, 3e-6, 11e-6])
        c0 = initial_coefficients(basis.frequencies, init)
        series = sb.snapshot_series(basis, init, times)
        c1 = sb.evaluate(basis, c0, times, [0], cross=False)[0][:, 0]
        xs = sb.evaluate(basis, c0, times, range(1, basis.dimension))[1]
        window = sb.evaluate(basis, c0, times, range(5, 11), cross=False)[0]
        np.testing.assert_allclose(c1, series.c[:, 0], rtol=1e-13, atol=0)
        np.testing.assert_allclose(xs, series.x, rtol=1e-12, atol=1e-15)
        np.testing.assert_allclose(window, series.c[:, 5:11], rtol=1e-13)


class TestEvaluate:
    @pytest.fixture()
    def setup(self, rng):
        model, _ = random_star_model(rng, 63)
        init = random_temperatures(rng)
        basis = sb.mode_basis(model)
        c0 = initial_coefficients(basis.frequencies, init)
        return basis, c0, np.array([0.0, 2.5e-6, 13.7e-6, 13.7e-6, 31e-6])

    def test_row_window_matches_full_diagonal(self, setup):
        basis, c0, times = setup
        c, x = sb.evaluate(basis, c0, times)
        assert c.shape == x.shape == (len(times), basis.dimension)
        assert np.all(x[:, 0] == 0.0)
        for rows in (range(5, 17), [0], [40, 3, 0, 40], range(3, 3)):
            cw, xw = sb.evaluate(basis, c0, times, rows)
            np.testing.assert_allclose(cw, c[:, list(rows)], rtol=1e-13)
            np.testing.assert_allclose(xw, x[:, list(rows)], rtol=1e-12, atol=1e-15 * np.abs(x).max())
        cw, xw = sb.evaluate(basis, c0, times, [7], cross=False)
        assert xw is None and np.allclose(cw[:, 0], c[:, 7], rtol=1e-13)

    def test_batch_matches_per_time_calls(self, setup):
        basis, c0, times = setup
        c, x = sb.evaluate(basis, c0, times)
        for i, t in enumerate(times):
            ci, xi = sb.evaluate(basis, c0, [t])
            np.testing.assert_allclose(ci[0], c[i], rtol=1e-13)
            np.testing.assert_allclose(xi[0], x[i], rtol=1e-12, atol=1e-15 * np.abs(x).max())

    def test_block_size_invariance(self, setup, monkeypatch):
        basis, c0, times = setup
        c, x = sb.evaluate(basis, c0, times, range(2, 50))
        for block_bytes in (1, 8 * 7 * 64, 8 * 1000 * 64):
            monkeypatch.setattr(evolve, "_BLOCK_BYTES", block_bytes)
            cb, xb = sb.evaluate(basis, c0, times, range(2, 50))
            np.testing.assert_allclose(cb, c, rtol=1e-13)
            np.testing.assert_allclose(xb, x, rtol=1e-12, atol=1e-15 * np.abs(x).max())

    def test_rejects_bad_rows_and_inputs(self, setup):
        basis, c0, times = setup
        for rows in ([basis.dimension], [-1], [1.5], [[1, 2]]):
            with pytest.raises(ValueError):
                sb.evaluate(basis, c0, times, rows)
        with pytest.raises(ValueError):
            sb.evaluate(basis, c0[1:], times)
        for grid in ([np.nan], [0.0, np.inf], [1e-6, np.nan, 2e-6], [-np.inf, 0.0]):
            with pytest.raises(ValueError, match="finite"):
                sb.evaluate(basis, c0, grid)

    def test_series_scratch_is_one_panel(self, production):
        # N=2000, T=10: the two panel loops share one ~8 MiB buffer; with a
        # fresh N^2/4-sized temporary per block the peak was 33.9 MiB
        basis = production.basis(2000)
        tracemalloc.start()
        try:
            sb.snapshot_series(basis, production.init, np.linspace(0.0, 100e-6, 10))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 16 * 2**20


class TestDenseOracle:
    def test_identity_at_time_zero(self):
        model, init, _ = small_setup()
        dense = dense_oracle_at(model, init, 0.0)
        np.testing.assert_allclose(dense.V, np.eye(2 * (model.n_modes + 1)), atol=1e-12)
        np.testing.assert_allclose(
            np.diag(dense.sigma), initial_covariance_diagonal(model, init), rtol=1e-12
        )
        assert np.max(np.abs(dense.sigma - np.diag(np.diag(dense.sigma)))) < 1e-12

    def test_symplectic_and_block_structure(self):
        model, init, rng = small_setup(seed=9)
        for t in rng.uniform(0, 30e-6, size=3):
            dense = dense_oracle_at(model, init, t)
            assert dense.symplectic_defect() <= 1e-9
            assert gibbs_block_residual(dense) <= 1e-10
            assert positivity_floor(dense) >= -1e-9

    def test_rejects_above_cap(self):
        model, init, _ = small_setup(n=24)
        with pytest.raises(ValueError, match="cap"):
            dense_oracle_at(model, init, 1e-6, oracle_cap=16)

    def test_energy_conservation(self, rng):
        model, _ = random_star_model(rng, 32)
        init = random_temperatures(rng)
        times = rng.uniform(0, 40e-6, size=4)
        assert energy_conservation_residual(model, init, times) <= 1e-9

    def test_reduced_path_matches_oracle(self, rng):
        model, _ = random_star_model(rng, 16)
        init = random_temperatures(rng)
        times = rng.uniform(0, 40e-6, size=6)
        assert oracle_equivalence_residual(model, init, times) <= 1e-9

    def test_full_energy_matches_reduced_parts(self):
        # (hbar/4) Tr(H sigma) decomposes into mode energies plus the
        # position-position cross terms; check against the reduced snapshot.
        model, init, _ = small_setup(n=10)
        basis = sb.mode_basis(model)
        t = 7.7e-6
        dense = dense_oracle_at(model, init, t)
        snap = sb.snapshot_series(basis, init, [t]).at(0)
        mode_energy = float(np.sum(0.5 * sb.HBAR * model.frequencies * snap.c))
        # interaction part from the dense sigma: hbar * sum_j g_j sigma_{1,2j-1}
        sigma_pos = dense.sigma[0, 2::2]
        interaction = sb.HBAR * float(np.sum(model.bath_couplings * sigma_pos))
        assert dense.total_energy() == pytest.approx(mode_energy + interaction, rel=1e-12)
