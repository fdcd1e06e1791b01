"""Accuracy of the batched closed-form evaluation against an extended-precision
reference on the production bath.

The reference repeats the arrowhead closed form in ``np.longdouble`` on the
model's exactly uniform bath w_0 + j dw, formed in longdouble: its own pole
assignment, shifted secular Newton iterations to 1e-18, and every
propagator entry U_jm formed pairwise, so the m-sums need no kernel split.
The bounds sit between what the shifted-pole representation reaches and
what eigenvalue differences taken from plain ``eigvalsh`` output give
(x about 6e-11 of max |x|, dE_I/dt up to 4e-9 relative), so losing the
shifted representation fails this test.  The x bound also needs the exact
poles w_0 + p dw: with the rounded ``bath_omegas[p]`` in the secular offsets
and the phases, x is off by 6.6e-14 of max |x|; with the exact poles,
2.3e-15 (c 2.2e-15, dE_I/dt 1.6e-12 relative).
"""

import numpy as np
import pytest

import starbath as sb
from starbath.evolve import evaluate, initial_coefficients
from starbath.oracle import arrowhead_matrix

LD = np.longdouble
EXTENDED = bool(np.finfo(LD).eps <= 1e-18)
pytestmark = pytest.mark.skipif(not EXTENDED, reason="np.longdouble is not extended precision here")

N = 2000
TIMES = (137e-6, 411e-6)


def reference(model: sb.StarModel, c0: np.ndarray, times) -> tuple[np.ndarray, np.ndarray]:
    """c_j(t) and x_j(t) in extended precision, of shapes (len(times), N+1)
    and (len(times), N)."""
    n = model.n_modes
    w = LD(model.omega_min) + np.arange(n) * LD(model.delta_omega)  # the exactly uniform bath
    assert np.max(np.abs(model.bath_omegas - w) / np.spacing(model.bath_omegas)) <= 1.0  # rounded to 1 ulp
    w1, g = LD(model.omega1), model.bath_couplings.astype(LD)
    g2 = g * g
    guess = np.linalg.eigvalsh(arrowhead_matrix(model))
    # interlacing: eigenvalue k lies between bath frequencies k-1 and k
    k = np.arange(n + 1)
    left, right = np.clip(k - 1, 0, n - 1), np.clip(k, 0, n - 1)
    nearer_left = (k == n) | ((k > 0) & (guess - model.bath_omegas[left] <= model.bath_omegas[right] - guess))
    poles = np.where(nearer_left, left, right)
    wp = w[poles]
    gap = wp[:, None] - w[None, :]
    delta = guess.astype(LD) - wp
    for _ in range(20):
        inv = 1 / (gap + delta[:, None])
        f = (wp - w1) + delta - inv @ g2
        fp = 1 + (inv * inv) @ g2
        step = f / fp
        delta -= step
        if np.max(np.abs(step / delta)) < 1e-18:
            break
    else:
        raise AssertionError("extended-precision Newton did not converge")
    inv = 1 / (gap + delta[:, None])  # 1/(l_k - w_j)
    weight = 1 / (1 + (inv * inv) @ g2)  # Q_1k^2
    lam = wp + delta

    c0 = c0.astype(LD)
    cs, xs = [], []
    for t in times:
        phase = lam * LD(t)
        z = weight * (np.cos(phase) - 1j * np.sin(phase)).astype(np.clongdouble)
        A = z @ inv
        B = z @ (inv * inv)
        row0 = np.concatenate(([z.sum()], g * A))  # U_1m
        v = c0 * row0.conj()
        c, x = [c0[0] * np.abs(row0[0]) ** 2 + c0[1:] @ np.abs(row0[1:]) ** 2], []
        for lo in range(0, n, 250):
            j = np.arange(lo, min(lo + 250, n))
            dw = w[j, None] - w[None, :]
            dw[np.arange(len(j)), j] = 1
            U = np.empty((len(j), n + 1), dtype=np.clongdouble)  # rows U_jm, m = 1..N+1
            U[:, 0] = row0[1 + j]
            U[:, 1:] = g[j, None] * g[None, :] * (A[j, None] - A[None, :]) / dw
            U[np.arange(len(j)), 1 + j] = g2[j] * B[j]
            c.extend((np.abs(U) ** 2) @ c0)
            x.extend((U @ v).imag)
        cs.append(c)
        xs.append(x)
    return np.array(cs), np.array(xs)


def interaction_flux(model: sb.StarModel, x) -> np.ndarray:
    """dE_I/dt / hbar = sum_j (w_j - w_1) g_j x_j over the bath rows."""
    return x @ ((model.bath_omegas - model.omega1) * model.bath_couplings).astype(x.dtype)


def test_production_bath_matches_extended_precision():
    cfg = sb.ExperimentConfig(n_modes=N)
    model = sb.discretize_ohmic_bath(cfg.bath_spec(), cfg.omega1)
    c0 = initial_coefficients(model.frequencies, cfg.initial_temperatures())
    c, x = evaluate(sb.mode_basis(model), c0, TIMES)
    c_ref, x_ref = reference(model, c0, TIMES)

    c_err = float(np.max(np.abs(c - c_ref) / c_ref))
    x_err = float(np.max(np.max(np.abs(x - x_ref), axis=1) / np.max(np.abs(x_ref), axis=1)))
    de_ref = interaction_flux(model, x_ref)
    de_err = float(np.max(np.abs(interaction_flux(model, x) - de_ref) / np.abs(de_ref)))
    assert c_err <= 1e-13
    assert x_err <= 1e-14
    assert de_err <= 1e-11
