import math
import os
import subprocess
import sys

import numpy as np
import pytest

import starbath as sb
from starbath import evolve
from starbath.checks import oracle_equivalence_residual, unitarity_residual
from starbath.cli import main
from starbath.config import ExperimentConfig
from starbath.constants import MHZ
from starbath.evolve import initial_coefficients
from starbath.harness import derived_constants
from starbath.oracle import arrowhead_matrix, dense_oracle_at, dense_oracle_series

from invariants import (
    energy_conservation_residual,
    gibbs_block_residual,
    orthonormality_residual,
    positivity_floor,
    random_star_model,
    random_temperatures,
    reconstruction_residual,
    symplectic_defect,
    symplectic_oracle_series,
    total_energy,
    traced_peak,
)


def small_setup(seed=3, n=12):
    rng = np.random.default_rng(seed)
    model, _ = random_star_model(rng, n)
    init = random_temperatures(rng)
    return model, init, rng


def coupling_variant(omega1, couplings):
    """An N = 48 Ohmic bath with ``omega1`` below, inside or above the band and
    its couplings as they are, partly tiny or partly zero (deflated)."""
    spec = sb.OhmicBathSpec(eta=1e-3, omega_c=3e6, omega_min=0.1e6, omega_max=20e6, n_modes=48)
    model = sb.discretize_ohmic_bath(spec, omega1)
    g = model.bath_couplings.copy()
    if couplings == "weak":
        g[::3] = 1e-8
    elif couplings == "partly_zero":
        g[[0, 5, 6, 47]] = 0.0
    elif couplings == "alternate_zero":
        g[1::2] = 0.0
    return with_couplings(model, g)


def with_couplings(model, g):
    """``model`` on the same bath with the couplings ``g``."""
    return sb.StarModel(model.omega1, model.omega_min, model.delta_omega, g)


def reference_case(case):
    """The default bath at N = ``case``, or, for "partly_decoupled", an
    N = 14 random bath with four zero couplings; with its temperatures."""
    if case == "partly_decoupled":
        model, init, _ = small_setup(n=14)
        g = model.bath_couplings.copy()
        g[[0, 5, 6, 13]] = 0.0
        return with_couplings(model, g), init
    cfg = ExperimentConfig(n_modes=case)
    return sb.discretize_ohmic_bath(cfg.bath_spec(), cfg.omega1), cfg.initial_temperatures()


def production_bath(production, bath):
    """The N = 2000 production model, or, when ``bath`` is "partly_deflated",
    that model with zero couplings at both band edges, in a run of three and
    at every 97th mode."""
    model = production.model(2000)
    if bath == "partly_deflated":
        g = model.bath_couplings.copy()
        g[[0, 1, 700, 701, 702, 1999]] = 0.0
        g[50::97] = 0.0
        model = with_couplings(model, g)
    return model


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
        model = with_couplings(model, g)
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
        model = with_couplings(model, g)
        basis = sb.mode_basis(model)
        assert basis.newton_step <= 1e-12
        assert np.all(basis.weights > 0)
        assert orthonormality_residual(basis) <= 1e-10
        assert reconstruction_residual(basis) <= 1e-9

    @pytest.mark.parametrize("omega1", [0.05e6, 4e6, 30e6], ids=["below", "inside", "above"])
    @pytest.mark.parametrize("couplings", ["ohmic", "weak", "partly_zero", "alternate_zero"])
    def test_eigenvalues_match_dense_solver(self, omega1, couplings, monkeypatch):
        model = coupling_variant(omega1, couplings)
        tables, direct = [], []
        build, secular = evolve._comb, evolve._secular

        def recording_build(step, g2):
            tables.append(len(g2))
            return build(step, g2)

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
    @pytest.mark.parametrize("bath", ["uniform", "partly_deflated"])
    def test_secular_sums_match_extended_precision(self, production, bath):
        # f and f' at off-root shifts against the direct sum in longdouble on
        # the exactly uniform bath, relative to the sum of the magnitudes of
        # their terms; the O(N^2) float64 GEMV this path replaced reaches
        # 2e-15 to 4e-15 on f'
        rng = np.random.default_rng(7)
        model = production_bath(production, bath)
        w, g2, step = model.bath_omegas, model.bath_couplings**2, model.delta_omega
        comb = evolve._comb(step, g2)
        shifts = rng.choice([-1.0, 1.0], len(w)) * rng.uniform(0.05, 0.95, len(w)) * step
        offset = w - model.omega1
        f, fp = evolve._secular(offset, shifts, np.arange(len(w)), comb)
        L, j = np.longdouble, np.arange(len(w))
        for rows in np.array_split(j, 8):
            den = L(step) * (rows[:, None] - j) + shifts[rows, None].astype(L)
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
        with traced_peak() as memory:
            sb.mode_basis(model)
        # the dense (N+1)^2 matrix alone is 122 MiB; the far-field tables and
        # their FFT scratch plus O(N) vectors measure 2.1 MiB
        assert memory.peak <= 3 * 2**20

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
            (0.0, series.c[0, :2], series.x[0, :1]),  # a one-mode star's data on this model
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
        # the specialised evaluations the jobs run give the full evaluation's bits
        c1, x1 = sb.evaluate(basis, c0, times, (0, 0))
        xs = sb.evaluate(basis, c0, times)[1]
        cw, xw = sb.evaluate(basis, c0, times, (4, 10))
        assert np.array_equal(c1[:, 0], series.c[:, 0]) and x1.shape == (len(times), 0)
        assert np.array_equal(xs, series.x)
        assert np.array_equal(cw[:, 0], series.c[:, 0])
        assert np.array_equal(cw[:, 1:], series.c[:, 5:11])
        assert np.array_equal(xw, series.x[:, 4:10])


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
        # spans of bath modes: a window, none, one ending at the last mode and an
        # empty one inside the bath; the system row comes first in c
        c, x = sb.evaluate(basis, c0, times)
        assert c.shape == (len(times), basis.dimension) and x.shape == (len(times), basis.dimension - 1)
        for lo, hi in ((4, 16), (0, 0), (39, 59), (3, 3)):
            cw, xw = sb.evaluate(basis, c0, times, (lo, hi))
            assert cw.shape == (len(times), 1 + hi - lo) and xw.shape == (len(times), hi - lo)
            np.testing.assert_allclose(cw[:, 0], c[:, 0], rtol=1e-13)
            np.testing.assert_allclose(cw[:, 1:], c[:, 1 + lo : 1 + hi], rtol=1e-13)
            np.testing.assert_allclose(xw, x[:, lo:hi], rtol=1e-12, atol=1e-15 * np.abs(x).max())
        cw, xw = sb.evaluate(basis, c0, times, (6, 7))
        assert xw.shape == (len(times), 1) and np.allclose(cw[:, 1], c[:, 7], rtol=1e-13)
        np.testing.assert_allclose(xw[:, 0], x[:, 6], rtol=1e-12, atol=1e-15 * np.abs(x).max())

    def test_batch_matches_per_time_calls(self, setup):
        basis, c0, times = setup
        c, x = sb.evaluate(basis, c0, times)
        for i, t in enumerate(times):
            ci, xi = sb.evaluate(basis, c0, [t])
            np.testing.assert_allclose(ci[0], c[i], rtol=1e-13)
            np.testing.assert_allclose(xi[0], x[i], rtol=1e-12, atol=1e-15 * np.abs(x).max())

    def test_chunk_size_invariance(self, setup, monkeypatch):
        # FFT chunks of rows, chunks of times and groups of cell blocks change
        # no bit of the result.  The kernel sums take 1 time per chunk, then
        # 1 + 2 + 2 of the 5 times, then 2 + 3, then all 5, and in the last case
        # the resolvent sums take chunks of 2 + 2 + 1 times; the span of bath
        # modes 39-58 starts B at its second block of targets, and the system
        # row's x keeps its (T, 0) shape
        basis, c0, times = setup
        n = len(basis.couplings)
        cases = ((1, 8, 1), (48 * n, 1, 2**22), (8 * 7 * 64, 3, 2**22), (2**24, 64, 2**30), (1, 1, 2**22))
        for bath in ((1, 49), (39, 59), (0, 0), None):
            monkeypatch.setattr(evolve, "_CHUNK_BYTES", 2**19)
            monkeypatch.setattr(evolve, "_FFT_ROWS", 8)
            monkeypatch.setattr(evolve, "_FFT_BYTES", 2**22)
            c, x = sb.evaluate(basis, c0, times, bath)
            for chunk_bytes, fft_rows, fft_bytes in cases:
                monkeypatch.setattr(evolve, "_CHUNK_BYTES", chunk_bytes)
                monkeypatch.setattr(evolve, "_FFT_ROWS", fft_rows)
                monkeypatch.setattr(evolve, "_FFT_BYTES", fft_bytes)
                cb, xb = sb.evaluate(basis, c0, times, bath)
                assert np.array_equal(cb, c) and np.array_equal(xb, x)

    def test_rows_that_keep_c0_skip_the_resolvent_sums(self, setup, monkeypatch, tmp_path):
        # with every coupling zero no mode moves: c0 and +0.0 cross terms
        # without any resolvent work, for every span; fig5 with an empty mode
        # window, whose system row does read them, writes header-only maps
        basis, c0, times = setup
        out = tmp_path / "fig5"
        assert main(["fig5", "--n-list", "100,200", "--window", "1e-9", "--grid", "0:20:5", "--out", str(out)]) == 0
        for n in (100, 200):
            assert (out / f"fig5_modes_N{n}.csv").read_text().count("\n") == 1
        decoupled = sb.mode_basis(with_couplings(basis.model, np.zeros(basis.model.n_modes)))

        def refuse(*args):
            raise AssertionError("resolvent sums formed for a decoupled bath")

        monkeypatch.setattr(evolve, "_resolvents", refuse)
        for lo, hi in ((0, 0), (3, 9), (0, basis.model.n_modes)):
            c, x = sb.evaluate(decoupled, c0, times, (lo, hi))
            assert np.array_equal(c, np.broadcast_to(c0[np.r_[0, 1 + lo : 1 + hi]], c.shape))
            assert x.shape == (len(times), hi - lo) and not np.any(x) and not np.any(np.signbit(x))

    def test_deflated_modes_inside_the_span(self, setup):
        # the span of bath modes 3 ... 7 starts and ends on a deflated mode: the
        # formulas run over the whole span, and only its coupled columns are
        # written, so the deflated ones keep c0 and +0.0 cross terms and the
        # coupled ones match the all-modes result
        basis, c0, times = setup
        deflated = basis.model.bath_couplings.copy()
        deflated[[3, 7]] = 0.0
        basis_d = sb.mode_basis(with_couplings(basis.model, deflated))
        c, x = sb.evaluate(basis_d, c0, times)
        cw, xw = sb.evaluate(basis_d, c0, times, (3, 8))
        for j in (0, 4):  # bath modes 3 and 7
            assert np.all(cw[:, 1 + j] == c0[4 + j]) and np.all(xw[:, j] == 0.0) and not np.any(np.signbit(xw[:, j]))
        np.testing.assert_allclose(cw[:, [0, 2, 3, 4]], c[:, [0, 5, 6, 7]], rtol=1e-13)
        np.testing.assert_allclose(xw[:, 1:4], x[:, 4:7], rtol=1e-12, atol=1e-15 * np.abs(x).max())

    @pytest.mark.parametrize("case", ["system_row", "window", "all_rows", "partly_deflated"])
    def test_time_local(self, production, case):
        # each time's c and x depend on that time alone: on 80 times at
        # N = 2000 (resolvent chunks of 32 + 32 + 16 times) every bit equals
        # the two halves' (chunks of 24 + 16 each), evaluated apart
        model = production_bath(production, "partly_deflated" if case == "partly_deflated" else "uniform")
        basis = sb.mode_basis(model)
        window = np.flatnonzero(np.abs(model.bath_omegas - model.omega1) <= 0.4 * MHZ)
        bath = {"system_row": (0, 0), "window": (window[0], window[-1] + 1)}.get(case)
        c0 = initial_coefficients(basis.frequencies, production.init)
        times = np.linspace(0.0, 400e-6, 80)
        c, x = sb.evaluate(basis, c0, times, bath)
        halves = [sb.evaluate(basis, c0, half, bath) for half in np.split(times, 2)]
        assert np.array_equal(c, np.concatenate([h[0] for h in halves]))
        assert np.array_equal(x, np.concatenate([h[1] for h in halves]))

    def test_system_row_peak_does_not_grow_with_times(self, production):
        # a system row at N = 16000 over 401 times: chunks of 16 times keep the
        # traced peak at 12.9 MiB, 106 x 8 N bytes, plus the output, whatever
        # the number of times; the bound is 10% above that (122 x with the
        # Lagrange weights stored in the plan).  The (2T, N) charges and sums
        # of all 401 times at once took 205 MB alone
        basis = production.basis(16000)
        times = np.linspace(0.0, 400e-6, 401)
        c0 = initial_coefficients(basis.frequencies, production.init)
        with traced_peak() as memory:
            c, _ = sb.evaluate(basis, c0, times, (0, 0))
        assert memory.peak <= 117 * 8 * basis.dimension + c.nbytes

    def test_system_row_runs_no_bath_row_kernel_sums(self, production, monkeypatch):
        # the span (0, 0) takes one rfft for the resolvent plan's kernel
        # spectrum, then, in each chunk of T times, one rfft and one irfft per
        # group of _FFT_ROWS of its 2T real rows of A: the bath rows' kernel
        # spectra and sums K and L never run.  At N = 2000 _FFT_BYTES caps no
        # group, so the counts follow from the chunk sizes alone
        basis = production.basis(2000)
        c0 = initial_coefficients(basis.frequencies, production.init)
        size = evolve._fft_size(2 * len(basis.couplings) + evolve._SPREAD - 1)
        assert 8 * size * evolve._FFT_ROWS <= evolve._FFT_BYTES
        calls, chunks = {"rfft": 0, "irfft": 0}, []

        def counted(name, fft):
            def call(*args, **kwargs):
                calls[name] += 1
                return fft(*args, **kwargs)

            return call

        for name in calls:
            monkeypatch.setattr(np.fft, name, counted(name, getattr(np.fft, name)))
        phases = evolve._phases
        monkeypatch.setattr(evolve, "_phases", lambda times, *args: chunks.append(len(times)) or phases(times, *args))
        for nt in (31, 121):
            calls.update(rfft=0, irfft=0)
            chunks.clear()
            sb.evaluate(basis, c0, np.linspace(0.0, 400e-6, nt), (0, 0))
            groups = sum(-(-2 * k // evolve._FFT_ROWS) for k in chunks)
            assert sum(chunks) == nt
            assert calls == {"rfft": 1 + groups, "irfft": groups}
        assert len(chunks) > 1  # the 121 times take several chunks

    def test_system_row_scratch_at_4000(self, production):
        # fig1's system row at N = 4000 over 31 times, in chunks of 16 and 15
        # times: the phases go straight into a chunk's (2T, N) charges and the
        # node charges replace them, and the spreading's groups take half a
        # scratch budget, so the traced peak measures 3.38 MiB, 3.57 x 8 T N
        # bytes, and the bound is 10% above that (4.16 x with a whole budget
        # each for the spreading's band and products, 7.16 x with all 31
        # times at once, 13.7 x with complex (T, N) phase factors beside the
        # charges)
        basis = production.basis(4000)
        times = np.linspace(0.0, 400e-6, 31)
        c0 = initial_coefficients(basis.frequencies, production.init)
        with traced_peak() as memory:
            sb.evaluate(basis, c0, times, (0, 0))
        assert memory.peak <= 3.93 * 8 * len(times) * basis.dimension

    @pytest.mark.parametrize(
        "n, window, bound",
        [
            # every mode with cross terms: the resolvent sums come in chunks of
            # 16 + 16 + 9 times and the bath rows read them as real rows and
            # stream their kernel sums by sub-chunks of 8 times, whose source
            # rows form in the FFT buffer, so the traced peak measures 6.54 x
            # 8 T N bytes (7.08 x with a (3 x 8, N) source block per sub-chunk,
            # 7.47 x with the Lagrange weights stored in the plan, 10.09 x with
            # the resolvent sums of all 41 times at once); a full (1 + 3T, N)
            # source array or full K and L would break it
            (16000, None, 7.2),
            # fig5's 0.4 MHz window, 120 modes and the system row, in chunks of 24 + 17 times:
            # 4.15 x (4.34 x with a whole budget each for the spreading's band and products,
            # 4.55 x with the weights stored, 6.42 x at once), with B over only the window's
            # blocks; a full-width B would break it
            (3000, 0.4e6, 4.56),
        ],
        ids=["all_rows_16000", "fig5_window_3000"],  # ids that stay when a bound tightens
    )
    def test_bath_row_scratch(self, production, n, window, bound):
        # 41 times; each bound is 10% above the measured peak
        basis = production.basis(n)
        model = basis.model
        bath = None
        if window is not None:
            modes = np.flatnonzero(np.abs(model.bath_omegas - model.omega1) <= window)
            bath = (modes[0], modes[-1] + 1)
        times = np.linspace(0.0, 400e-6, 41)
        c0 = initial_coefficients(basis.frequencies, production.init)
        with traced_peak() as memory:
            sb.evaluate(basis, c0, times, bath)
        assert memory.peak <= bound * 8 * len(times) * basis.dimension

    @pytest.mark.parametrize("n, nt, bath", [(4000, 31, (0, 0)), (2000, 10, None)], ids=["system_row", "all_rows"])
    def test_stages_take_their_own_budget(self, production, monkeypatch, n, nt, bath):
        # every call of the spreading and of the FFT correlations in a whole
        # evaluate, traced above what is held at its entry, stays within its
        # stage's budget plus numpy's ufunc buffers (at most 3 x getbufsize()
        # doubles, which an in-place add of strided views takes): the
        # spreading's band and products take _CHUNK_BYTES / 2 (with the
        # buffers measured 0.76-0.83 x that; 2.2-2.7 x with a whole
        # _CHUNK_BYTES each for band and products), a correlation its (rows
        # per call, FFT length) buffer, its spectrum and, with two outputs,
        # their product, plus two source rows of scratch (measured 0.23-0.97 x;
        # a (3 x 8, N) source block formed inside the bath rows' call took 1.41 x)
        basis = production.basis(n)
        c0 = initial_coefficients(basis.frequencies, production.init)
        spread, correlate, ratios = evolve._spread, evolve._correlate, {"spread": [], "correlate": []}
        ufunc = 3 * 8 * np.getbufsize()

        def traced_spread(zc, weights):
            with traced_peak() as memory:
                spread(zc, weights)
            ratios["spread"].append(memory.peak / (evolve._CHUNK_BYTES // 2 + ufunc))

        def traced_correlate(fill, count, outs, plan):
            with traced_peak() as memory:
                correlate(fill, count, outs, plan)
            _, width, size, rows, _ = plan
            spectra = 1 + sum(out is not None for out, *_ in outs) // 2  # and the product, with two outputs
            budget = 8 * min(count, rows) * (size + spectra * 2 * (size // 2 + 1)) + 2 * 8 * width
            ratios["correlate"].append(memory.peak / (budget + ufunc))

        monkeypatch.setattr(evolve, "_spread", traced_spread)
        monkeypatch.setattr(evolve, "_correlate", traced_correlate)
        with traced_peak():
            sb.evaluate(basis, c0, np.linspace(0.0, 400e-6, nt), bath)
        assert len(ratios["spread"]) >= 1 and len(ratios["correlate"]) >= len(ratios["spread"])
        assert max(ratios["spread"]) <= 1.0 and max(ratios["correlate"]) <= 1.0

    def test_rejects_bad_rows_and_inputs(self, setup):
        basis, c0, times = setup
        n = basis.dimension - 1
        for bath in ((-1, 3), (5, 4), (0, n + 1), (0, 1.5), (np.float64(2), 4), (1, 2, 3), (3,), 3, [[1, 2]]):
            with pytest.raises(ValueError, match="span"):
                sb.evaluate(basis, c0, times, bath)
        with pytest.raises(ValueError):
            sb.evaluate(basis, c0[1:], times)
        for grid in ([np.nan], [0.0, np.inf], [1e-6, np.nan, 2e-6], [-np.inf, 0.0]):
            with pytest.raises(ValueError, match="finite"):
                sb.evaluate(basis, c0, grid)

    def test_system_row_bits_do_not_depend_on_blas_threads(self):
        # a system row at N = 50000 over 41 times, in chunks of 16 + 16 + 9
        # times: a BLAS GEMV over the last chunk's 18 rows of sums splits them
        # between 2 threads at an odd row and changes the last bits of c_1
        script = (
            "import sys, numpy as np, starbath as sb\n"
            "cfg = sb.ExperimentConfig(n_modes=50000)\n"
            "basis = sb.mode_basis(sb.discretize_ohmic_bath(cfg.bath_spec(), cfg.omega1))\n"
            "c0 = sb.initial_coefficients(basis.frequencies, cfg.initial_temperatures())\n"
            "c, _ = sb.evaluate(basis, c0, np.linspace(0.0, 400e-6, 41), (0, 0))\n"
            "sys.stdout.write(c.tobytes().hex())\n"
        )
        src = os.path.dirname(os.path.dirname(sb.__file__))
        path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
        c = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=path)
            run = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True)
            c.append(np.frombuffer(bytes.fromhex(run.stdout)))
        assert len(c[0]) == 41 and np.array_equal(c[0], c[1])

    def test_series_scratch_is_one_panel(self, production):
        # N=2000, T=10: the kernel and resolvent correlations need only
        # chunk-sized buffers besides the O(T N) sums, the kernel sums' source
        # rows form in the FFT buffer, and the resolvent plan goes before the
        # last chunk's bath rows: the traced peak measures 2.56 MiB and the
        # bound is 10% above it (2.87 MiB with a (3T, N) source block and the
        # spreading's whole-budget band and products, 3.24 MiB before the
        # resolvent sums were split into a plan and a per-chunk apply).  A
        # complex (T, N) copy of A or B (about 0.6 MiB each), an ~8 MiB kernel
        # panel or an N^2/4-sized temporary would break it
        basis = production.basis(2000)
        with traced_peak() as memory:
            sb.snapshot_series(basis, production.init, np.linspace(0.0, 100e-6, 10))
        assert memory.peak <= 2.82 * 2**20


def extended_phases(times, *terms):
    """exp(-i t (sum of ``terms``)) in longdouble, times as rows: each t term
    is Dekker's exact hi + lo, and the phase the product of exp(-i hi) for
    every hi and exp(-i (sum of the lo)), each from longdouble cos and sin."""
    L, t = np.longdouble, times[:, None]
    z, rest = L(1), L(0)
    for term in terms:
        hi, lo = evolve._two_product(t, term)
        z = z * (np.cos(L(hi)) - 1j * np.sin(L(hi)))
        rest = rest + L(lo)
    return z * (np.cos(rest) - 1j * np.sin(rest))


needs_longdouble = pytest.mark.skipif(np.finfo(np.longdouble).eps > 1e-18, reason="needs extended-precision longdouble")


@needs_longdouble
class TestKernelSums:
    """Sums with powers of ``_correlate``'s one kernel family,
    K(lag) = scale/(lag + shift) beyond a gap, as its three callers use it."""

    @pytest.mark.parametrize(
        "bath,case",
        [
            ("uniform", "fig5_window"),
            ("uniform", "low_edge"),
            ("uniform", "high_edge"),
            ("uniform", "single"),
            ("uniform", "scattered"),
            ("uniform", "all"),
            ("partly_deflated", "all"),
            ("uniform", "resolvent"),
            ("uniform", "secular"),
        ],
    )
    def test_match_extended_precision(self, production, bath, case):
        # At N = 2000 against the direct sums in longdouble on the exactly
        # uniform bath.  The bath-row cases take K_j = sum_{m != j} R_m/(w_m - w_j)^2
        # and L_j = sum_{m != j} W_m/(w_m - w_j) at the requested rows; the
        # resolvent case 1/(w_node - w_j) and its square from charges on the
        # half-integer nodes (shift 8.5, no gap); the secular case the Taylor
        # tables' lag^-p, p = 1 ... 14, beyond 8 lags.  FFT roundoff scales
        # with the norms of the row and of the kernel, not with the sum at the
        # target: relative to their product the error measures 1.0e-17 to
        # 6.5e-17 in every bath-row case, 3.9e-17 to 4.2e-17 in the resolvent
        # case and 1.4e-17 to 1.1e-16 in the secular case (p = 1 and 2 the
        # largest), but relative to the sum of the magnitudes of the terms
        # from 4e-17 (a single row) to 4e-14 (the high band edge, where R is
        # small).
        model = production_bath(production, bath)
        w1, g, n, step = model.omega1, model.bath_couplings, model.n_modes, model.delta_omega
        nt, rng, L = 3, np.random.default_rng(11), np.longdouble
        if case == "resolvent":
            sources = rng.uniform(-1.0, 1.0, (2 * nt, n + 16))
            kernel, targets, powers = (-1.0 / step, 8.5, -1), np.arange(n), [(1, 0, 2 * nt), (2, 0, 2 * nt)]
        elif case == "secular":
            sources = (g * g)[None, :]
            kernel, targets, powers = (1.0, 0.0, 8), np.arange(n), [(p, 0, 1) for p in range(1, 15)]
        else:
            targets = {
                "fig5_window": np.flatnonzero(np.abs(model.bath_omegas - w1) <= 0.4 * MHZ),
                "low_edge": np.arange(0, 60),
                "high_edge": np.arange(n - 60, n),
                "single": np.array([411]),
                "scattered": np.array([40, 3, 0, 40]),
                "all": np.flatnonzero(g),
            }[case]
            assert np.all(g[targets] > 0)
            wv = g * g * rng.uniform(1.0, 3.0, n)  # zero at deflated modes, as in ``evaluate``
            sources = np.concatenate(
                (wv[None, :], wv * rng.uniform(0.0, 1.0, (nt, n)), wv * rng.uniform(-1.0, 1.0, (2 * nt, n)))
            )
            kernel, powers = (-1.0 / step, 0.0, 0), [(1, 1 + nt, 2 * nt), (2, 0, 1 + 3 * nt)]
        lo, hi = int(targets.min()), int(targets.max()) + 1  # the span of the targets
        plan = evolve._kernel_spectra(sources.shape[1], lo, hi, [p for p, *_ in powers], *kernel)
        scale, shift, gap = kernel
        lag = targets - np.arange(sources.shape[1])[:, None]
        inv = np.zeros(lag.shape, dtype=L)  # with the exact scale -1/step
        np.divide(L(1) if scale == 1.0 else -1 / L(step), lag + L(shift), out=inv, where=np.abs(lag) > gap)
        kp, power = np.ones_like(inv), 0
        for p, first, count in powers:  # in ascending powers
            source = sources[first : first + count]  # a row offset is a slice of the sources
            got = np.zeros((count, hi - lo))
            evolve._correlate(lambda r0, r1, rows: np.copyto(rows, source[r0:r1]), count, [(got, p, lo)], plan)
            while power < p:
                kp, power = kp * inv, power + 1
            err = np.abs(got[:, targets - lo] - source.astype(L) @ kp).astype(float)
            norms = np.linalg.norm(source, axis=1)[:, None] * np.linalg.norm(kp.astype(float), axis=0)
            assert np.max(err / norms) <= 2e-16


class TestPhases:
    @needs_longdouble
    def test_match_extended_precision(self, production):
        # z_k = exp(-i (w_p + d_k) t) at every live root of the N = 1e5 bath,
        # for times up to t1 = 2 pi/dw and one just inside the exact range of
        # the reduction, against longdouble cosines and sines of the exact
        # products of t with w_p and d_k: at most 2.5e-16 at every time.  The
        # former two complex exponentials of w_p t and (lo + d_k t) measured
        # 4.1e-16 up to t1 and 6.6e-12 at the last time, where d_k t rounds
        basis = production.basis(100000)
        live = np.flatnonzero(basis.weights)
        pole_w = basis.frequencies[1 + basis.poles[live]]
        shifts = basis.pole_residuals[live] + basis.shifts[live]
        t1 = 2 * np.pi / basis.model.delta_omega
        times = np.r_[np.linspace(0.0, t1, 5), evolve._PHASE_RANGE / basis.eigenvalues[-1] * (1 - 1e-12)]
        z = np.empty((len(times), 2, len(live)))
        evolve._phases(times, pole_w, shifts, np.ones(len(live)), z)
        ref = extended_phases(times, pole_w, shifts)
        err = np.maximum(np.abs(z[:, 0] - ref.real), np.abs(z[:, 1] - ref.imag)).astype(float)
        assert np.max(err) <= 1e-15

    def test_range_limit(self):
        # w_p t is reduced exactly only below 2^31 2 pi; evaluate refuses later times
        basis = sb.mode_basis(coupling_variant(4e6, "full"))
        c0 = np.ones(basis.dimension)
        limit = evolve._PHASE_RANGE / basis.eigenvalues[-1]
        c, _ = sb.evaluate(basis, c0, [0.0, limit * (1 - 1e-12)], (0, 0))
        assert np.all(np.isfinite(c))
        with pytest.raises(ValueError, match=r"below 2\^31 \* 2 pi"):
            sb.evaluate(basis, c0, [0.0, limit * (1 + 1e-12)], (0, 0))


class TestResolventSums:
    @needs_longdouble
    @pytest.mark.parametrize("bath", ["uniform", "partly_deflated"])
    def test_match_extended_precision(self, production, bath):
        # U_11 and A_j, B_j at every coupled bath mode against the direct sums
        # in longdouble on the exactly uniform bath, z_k formed in longdouble
        # too, from one plan applied to the first time and then to the rest.
        # Measured relative to the sum of the magnitudes of the terms:
        # A 9.0e-14 (uniform) and 7.2e-14 (partly deflated), B 7.9e-16 and
        # 9.0e-16; FFT roundoff is spread over all modes, so it shows most
        # relative to the small terms far from the weight peak at omega_1.
        # Relative to max |A|, max |B|: A 2.8e-16 and 3.5e-16, B 4.2e-16 and
        # 4.2e-16.  U_11 (sum of weights 1): 8.4e-17 and 1.4e-16.  The bounds
        # are about 3x the largest.
        model = production_bath(production, bath)
        basis = sb.mode_basis(model)
        step, L = model.delta_omega, np.longdouble
        live = np.flatnonzero(basis.weights)
        p, d = basis.poles[live], basis.shifts[live]
        times = np.array([0.0, 137e-6, 411e-6, 600e-6])
        zl = L(basis.weights[live]) * extended_phases(times, model.bath_omegas[p], basis.pole_residuals[live], d)
        coupled = np.flatnonzero(model.bath_couplings)
        apply = evolve._resolvents(basis, 0, model.n_modes)  # one plan, applied to two chunks of times
        amp, A, B = map(np.concatenate, zip(apply(times[:1]), apply(times[1:])))
        A, B = A[0::2, coupled] + 1j * A[1::2, coupled], B[0::2, coupled] + 1j * B[1::2, coupled]
        assert np.max(np.abs(amp - zl.sum(axis=1)).astype(float)) <= 5e-16
        z = np.abs(zl).astype(float)
        err, size = np.empty((2, *A.shape)), np.empty((2, *A.shape))
        for cols in np.array_split(np.arange(len(coupled)), 8):
            inv = 1 / (L(step) * (p[:, None] - coupled[cols]) + d[:, None].astype(L))
            for i, (got, power) in enumerate(((A, inv), (B, inv * inv))):
                err[i][:, cols] = np.abs(got[:, cols] - zl @ power).astype(float)
                size[i][:, cols] = z @ np.abs(power).astype(float)
        assert np.max(err[0] / size[0]) <= 3e-13 and np.max(err[0]) <= 1.2e-15 * np.max(np.abs(A))
        assert np.max(err[1] / size[1]) <= 3e-15 and np.max(err[1]) <= 1.5e-15 * np.max(np.abs(B))

    def test_lagrange_weights_bit_identical_to_cumulative_products(self, rng):
        # the in-place prefix and suffix products along the rows give every
        # bit of the weights of the cumulative-product formula, and the
        # columns of empty cells hold +0.0
        P = evolve._SPREAD
        u = np.r_[rng.uniform(-0.5, 0.5, 1000), -0.5, 0.0, 0.5 - 2**-53]
        empty = rng.random(len(u)) < 0.2
        diff = u - (np.arange(P) - P // 2)[:, None]
        left, right = np.ones_like(diff), np.ones_like(diff)
        left[1:] = np.cumprod(diff[:-1], axis=0)
        right[:-1] = np.cumprod(diff[:0:-1], axis=0)[::-1]
        scale = [(-1) ** (P - 1 - i) * math.factorial(i) * math.factorial(P - 1 - i) for i in range(P)]
        expected = left * right / np.array(scale, dtype=float)[:, None]
        expected[:, empty] = 0.0
        weights = evolve._lagrange_weights(u, empty)
        assert weights.shape == (P, len(u)) and weights.flags.c_contiguous
        assert np.array_equal(weights, expected)
        assert np.any(empty) and not np.any(np.signbit(weights[:, empty]))

    def test_lagrange_weights_scratch_is_one_column(self, rng):
        # the suffix products run in the result's first row, one offset-long
        # vector: at 1e5 offsets, a tenth of them empty, the traced peak
        # measures 1.06 x the result's bytes (2.06 x with a (_SPREAD, K)
        # suffix table beside it)
        u = rng.uniform(-0.5, 0.5, 100000)
        empty = rng.random(len(u)) < 0.1
        with traced_peak() as memory:
            weights = evolve._lagrange_weights(u, empty)
        assert memory.peak <= 1.1 * weights.nbytes

    @pytest.mark.parametrize("span", ["system", "all"])
    def test_plan_holds_no_weight_table(self, production, span):
        # the plan keeps the cell map, phase data, target index and kernel
        # spectra, not the (_SPREAD, cells) Lagrange weights or their
        # offsets, which each apply forms and drops: at N = 16000 it holds
        # 8.09 x 8N bytes for the system row and 10.10 x for all modes
        # (24.16 x and 26.17 x with the weights stored).  The bounds are
        # 10% above
        basis = production.basis(16000)
        n = basis.dimension
        hi, bound = (0, 8.9) if span == "system" else (n - 1, 11.11)
        with traced_peak() as memory:
            apply = evolve._resolvents(basis, 0, hi)
        assert callable(apply)
        assert memory.held <= bound * 8 * n

    @pytest.mark.parametrize("omega1", [0.05e6, 4e6, 30e6], ids=["below", "inside", "above"])
    @pytest.mark.parametrize("couplings", ["weak", "partly_zero", "alternate_zero"])
    def test_evaluate_matches_dense_oracle(self, omega1, couplings, rng):
        model = coupling_variant(omega1, couplings)
        basis = sb.mode_basis(model)
        # above the band the top root lies beyond the bath's cells and takes the direct sum
        live = np.flatnonzero(basis.weights)
        cells = basis.poles[live] + np.ceil(basis.shifts[live] / model.delta_omega)
        assert np.any(cells > model.n_modes) == (omega1 > model.bath_omegas[-1])
        times = rng.uniform(0, 40e-6, size=6)
        init = random_temperatures(rng)
        assert oracle_equivalence_residual(model, init, times) <= 1e-9

    def test_roots_beyond_both_band_edges_match_dense_oracle(self, rng, monkeypatch):
        # the system mode above the band and strong couplings at its lower
        # edge put a root beyond each end of cells 0 ... N, which take the
        # plan's direct sums; all modes with cross terms and a span of modes,
        # each over the whole grid at once and in chunks of 2 + 2 + 2 times
        spec = sb.OhmicBathSpec(eta=1e-3, omega_c=3e6, omega_min=5e6, omega_max=20e6, n_modes=48)
        model = sb.discretize_ohmic_bath(spec, 30e6)
        g = model.bath_couplings.copy()
        g[:2] = 3e6
        model = with_couplings(model, g)
        basis = sb.mode_basis(model)
        live = np.flatnonzero(basis.weights)
        cells = basis.poles[live] + np.ceil(basis.shifts[live] / model.delta_omega)
        assert np.any(cells < 0) and np.any(cells > model.n_modes)
        init = random_temperatures(rng)
        times = np.sort(rng.uniform(0, 40e-6, size=6))
        dense = dense_oracle_series(model, init, times)
        c_ref = np.array([d.diagonal_coefficients() for d in dense])
        x_ref = np.array([d.cross_terms() for d in dense])
        c0 = initial_coefficients(basis.frequencies, init)
        for split in (False, True):
            if split:
                monkeypatch.setattr(evolve, "_CHUNK_BYTES", 1)
                monkeypatch.setattr(evolve, "_FFT_ROWS", 1)
            for lo, hi in ((0, model.n_modes), (19, 35)):
                c, x = sb.evaluate(basis, c0, times, (lo, hi))
                assert np.max(np.abs(c - c_ref[:, np.r_[0, 1 + lo : 1 + hi]])) <= 1e-9
                assert np.max(np.abs(x - x_ref[:, lo:hi])) <= 1e-9

    def test_system_row_at_100000(self, production):
        # 41 times on [0, 400] us, far below t1 = 31 ms: c_1 follows the closed
        # form to criterion 01's 2% (measured 0.13%), and the traced peak
        # measures 69.6 MiB, 2.22 x 8 T N bytes, for 3 chunks of 16, 16 and 9
        # times, each with its (2T, N) node charges and sums, and the FFT
        # buffers (4.91 x with all 41 times at once; 74.1 MiB, 2.37 x, with
        # the Lagrange weights stored in the plan).  The bound is 10% above
        # that
        basis = production.basis(100000)
        times = np.linspace(0.0, 400e-6, 41)
        c0 = initial_coefficients(basis.frequencies, production.init)
        with traced_peak() as memory:
            c, _ = sb.evaluate(basis, c0, times, (0, 0))
        gksl = sb.gksl_sigma11(production.params(100000), times)
        assert np.max(np.abs(c[:, 0] - gksl) / gksl) <= 0.02
        assert memory.peak <= 2.45 * 8 * len(times) * basis.dimension


class TestDenseOracle:
    def test_identity_at_time_zero(self):
        model, init, _ = small_setup()
        dense = symplectic_oracle_series(model, init, [0.0])[0]
        np.testing.assert_allclose(dense.V, np.eye(2 * (model.n_modes + 1)), atol=1e-12)
        np.testing.assert_allclose(
            np.diag(dense.sigma), np.repeat(initial_coefficients(model.frequencies, init), 2), rtol=1e-12
        )
        assert np.max(np.abs(dense.sigma - np.diag(np.diag(dense.sigma)))) < 1e-12

    def test_symplectic_and_block_structure(self):
        model, init, rng = small_setup(seed=9)
        for dense in symplectic_oracle_series(model, init, rng.uniform(0, 30e-6, size=3)):
            assert symplectic_defect(dense) <= 1e-9
            assert gibbs_block_residual(dense) <= 1e-10
            assert positivity_floor(dense) >= -1e-9

    def test_rejects_above_cap(self):
        model, init, _ = small_setup(n=24)
        with pytest.raises(ValueError, match="cap"):
            dense_oracle_at(model, init, 1e-6, oracle_cap=16)

    def test_rejects_negative_time(self):
        model, init, _ = small_setup()
        with pytest.raises(ValueError, match="non-negative"):
            dense_oracle_at(model, init, -1e-6)

    @pytest.mark.parametrize("t", [math.nan, math.inf], ids=["nan", "inf"])
    def test_rejects_non_finite_time(self, t):
        model, init, _ = small_setup()
        with pytest.raises(ValueError, match="finite"):
            dense_oracle_at(model, init, t)

    @pytest.mark.parametrize("case", [16, 48, 64, "partly_decoupled"])
    def test_mode_space_matches_quadrature_build_and_evaluate(self, case):
        # 11 times on [0, 0.9 t1].  At t = 0, U = Q Q^T is real, so x is
        # exactly 0; c matched c0 to 3.2e-15 relative.  Measured maxima
        # against the 2(N+1) build: 2.8e-13 relative in c (N = 64) and
        # 1.2e-12 of max |x| in x (partly decoupled); against evaluate:
        # 3.9e-15 relative in c (N = 48) and 1.1e-13 of max |x| (N = 16).
        # The bounds are 3 to 5 times above
        model, init = reference_case(case)
        c0 = initial_coefficients(model.frequencies, init)
        times = np.linspace(0.0, 0.9 * sb.recurrence_time(model), 11)
        dense = dense_oracle_series(model, init, times)
        c = np.array([d.diagonal_coefficients() for d in dense])
        x = np.array([d.cross_terms() for d in dense])
        assert np.max(np.abs(c[0] - c0) / c0) <= 1e-14
        assert np.all(x[0] == 0.0)
        quadrature = symplectic_oracle_series(model, init, times)
        c_sym = np.array([d.diagonal_coefficients() for d in quadrature])
        x_sym = np.array([d.cross_terms() for d in quadrature])
        c_eval, x_eval = sb.evaluate(sb.mode_basis(model), c0, times, (0, model.n_modes))
        x_scale = np.max(np.abs(x))
        assert np.max(np.abs(c - c_sym) / c) <= 1e-12
        assert np.max(np.abs(x - x_sym)) <= 5e-12 * x_scale
        assert np.max(np.abs(c - c_eval) / c) <= 2e-14
        assert np.max(np.abs(x - x_eval)) <= 5e-13 * x_scale

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
        dense = symplectic_oracle_series(model, init, [t])[0]
        snap = sb.snapshot_series(basis, init, [t]).at(0)
        mode_energy = float(np.sum(0.5 * sb.HBAR * model.frequencies * snap.c))
        # interaction part from the dense sigma: hbar * sum_j g_j sigma_{1,2j-1}
        sigma_pos = dense.sigma[0, 2::2]
        interaction = sb.HBAR * float(np.sum(model.bath_couplings * sigma_pos))
        assert total_energy(dense) == pytest.approx(mode_energy + interaction, rel=1e-12)
