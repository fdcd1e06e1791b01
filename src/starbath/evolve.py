"""Exact unitary evolution of the Gaussian covariance data.

The full quadrature matrices carry a 2x2-identity block structure, so the
dynamics closes on the (N+1)-dimensional mode space.  With the propagator
U(t) = Q exp(-iLt) Q^T of the reduced arrowhead matrix, the surviving
covariance data are

    c_j(t) = sum_m |U_jm|^2 c_m(0)                   (diagonal coefficients)
    x_j(t) = Im sum_m c_m(0) conj(U_1m) U_mj         (system-bath cross terms)

evaluated exactly at each output time; no time-stepping error accumulates.

The arrowhead eigenvectors have the closed form Q_jk = g_j Q_1k / (l_k - w_j)
(Gu & Eisenstat, SIAM J. Matrix Anal. Appl. 16 (1995)).  With
z_k = Q_1k^2 exp(-i l_k t), A_j = sum_k z_k/(l_k - w_j) and
B_j = sum_k z_k/(l_k - w_j)^2 this gives U_11 = sum_k z_k, U_1j = g_j A_j,
U_jj = g_j^2 B_j and U_jm = g_j g_m (A_j - A_m)/(w_j - w_m), so the m-sums
reduce to products with the kernels 1/(w_j - w_m)^2 and 1/(w_m - w_j): a
whole time grid costs O(T N^2).  The eigenvalues interlace the bath
frequencies; each is the secular-equation root in its own bracket, kept as
its nearest bath pole plus a shift, l_k = w_p + d_k, found in that shifted
variable, so the small differences l_k - w_j keep full relative accuracy.
Its secular sums add the poles near each root exactly and the rest from Taylor
tables built by FFT on the uniform bath, so the basis costs O(N log N).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .model import StarModel, thermal_coefficient

__all__ = [
    "EVALUATION_PATH",
    "InitialTemperatures",
    "ModeBasis",
    "CovarianceSnapshot",
    "mode_basis",
    "initial_coefficients",
    "evaluate",
    "snapshot_series",
    "validated_grid",
]

EVALUATION_PATH = "arrowhead closed form: shifted secular Newton, near-field plus FFT far-field sums, blocked resolvent GEMMs"

# Secular sums: bath poles beyond _NEAR spacings of the grid point nearest the
# root take _TAYLOR_TERMS terms in the root's offset from that point, at most
# half a spacing or 1/18 of their distance, so truncation leaves < 18^-14 *
# 18/17 < 3e-18 of each.  The panels of ``evaluate`` feed GEMMs, which block
# for the cache themselves and run best on wide panels.
_NEAR, _TAYLOR_TERMS = 8, 14
_BLOCK_BYTES = 8 * 2**20
# Newton stops once a step moves the shift by at most this relative amount;
# convergence is quadratic, so the step taken leaves an error near its square.
_NEWTON_TOL = 1e-12
_NEWTON_MAX_STEPS = 100


@dataclass(frozen=True)
class InitialTemperatures:
    """Initial Gibbs temperatures of the system (T_A0) and the bath (T_B0)."""

    T_A0: float
    T_B0: float

    def __post_init__(self) -> None:
        if not (0 < self.T_A0 < np.inf and 0 < self.T_B0 < np.inf):
            raise ValueError("initial temperatures must be positive and finite")


@dataclass(frozen=True, eq=False)
class ModeBasis:
    """Closed-form spectral data of ``model``'s reduced arrowhead matrix.

    Eigenvalue k is l_k = w_p + d_k with p = ``poles[k]`` (a bath index) and
    d_k = ``shifts[k]``; ``weights[k]`` is Q_1k^2, whose eigenvector has the
    bath components Q_jk = g_j Q_1k / (l_k - w_j).  A bath mode with zero (or
    negligible, then stored as 0 in ``couplings``) coupling is deflated: its
    eigenvalue is its own frequency, with shift 0 and weight 0.
    ``newton_step`` is the largest relative secular Newton step left at the
    final shifts.  Immutable and shared read-only.
    """

    poles: np.ndarray
    shifts: np.ndarray
    weights: np.ndarray
    couplings: np.ndarray  # bath couplings of the diagonalized matrix
    model: StarModel
    newton_step: float = 0.0
    frequencies: np.ndarray = field(init=False)  # bare oscillator frequencies, system first
    eigenvalues: np.ndarray = field(init=False)  # ascending

    def __post_init__(self) -> None:
        object.__setattr__(self, "poles", np.ascontiguousarray(self.poles, dtype=np.intp))
        for name in ("shifts", "weights", "couplings"):
            object.__setattr__(self, name, np.ascontiguousarray(getattr(self, name), dtype=np.float64))
        object.__setattr__(self, "frequencies", self.model.frequencies)
        object.__setattr__(self, "eigenvalues", self.frequencies[1 + self.poles] + self.shifts)
        for name in ("poles", "shifts", "weights", "frequencies", "couplings", "eigenvalues"):
            getattr(self, name).setflags(write=False)

    @property
    def dimension(self) -> int:
        return len(self.frequencies)


@dataclass(frozen=True, eq=False)
class CovarianceSnapshot:
    """Reduced covariance data of ``model``: the N+1 diagonal coefficients
    c_j(t) and the N system-bath cross terms x_j(t) = sigma_{1,2j}(t).

    Oscillators run along the last axis.  At one time ``time`` is a scalar
    and ``c``, ``x`` are 1-d; on a grid ``time`` has shape (T,) and ``c``,
    ``x`` have shapes (T, N+1) and (T, N).
    """

    time: float | np.ndarray
    c: np.ndarray
    x: np.ndarray
    model: StarModel

    def __post_init__(self) -> None:
        time = np.array(self.time, dtype=np.float64)
        object.__setattr__(self, "time", float(time) if time.ndim == 0 else time)
        for name in ("c", "x"):
            arr = np.ascontiguousarray(getattr(self, name), dtype=np.float64)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        shape = time.shape
        if len(shape) > 1 or self.c.ndim != len(shape) + 1 or self.c.shape[:-1] != shape:
            raise ValueError("expected N+1 coefficients at each time")
        if self.x.shape != (*shape, self.c.shape[-1] - 1):
            raise ValueError("expected one cross term per bath mode at each time")
        time.setflags(write=False)

    def at(self, i: int) -> "CovarianceSnapshot":
        """The one-time snapshot at grid index ``i``."""
        return CovarianceSnapshot(self.time[i], self.c[i], self.x[i], self.model)


def _row_blocks(n_rows: int, n_cols: int, budget: int) -> tuple[list[slice], int]:
    """Row slices whose (rows x n_cols) float64 blocks fit ``budget`` bytes
    (one row at least), and the element count of the largest block."""
    step = max(1, budget // (8 * max(n_cols, 1)))
    blocks = [slice(lo, min(lo + step, n_rows)) for lo in range(0, n_rows, step)]
    return blocks, min(step, n_rows) * n_cols


def _panel(buffer: np.ndarray, rows: int, cols: int) -> np.ndarray:
    """A C-ordered (rows, cols) view of the front of ``buffer``."""
    return buffer[: rows * cols].reshape(rows, cols)


def _comb(bath_w, g2):
    """The uniform bath of the secular sums: spacing, frequencies and g2 padded
    by _NEAR points at each end, where, as at deflated modes, w = inf and g2 = 0
    (so their terms vanish); grid rounding eps_j = (w_j - w_0)/step - j; tables
    D_n[q] = sum over |q - j| > _NEAR of g2_j ((q-j)^-(n+1) + (n+1) eps_j (q-j)^-(n+2)).
    With v = -(l - w_0)/step + q, far term j is g2_j/(step (q - j - v - eps_j)), so
    to first order in eps their sum is sum_n D_n[q] v^n / step.  Each D_n is a
    Toeplitz product over the grid, done by FFT one term at a time."""
    n = len(bath_w)
    step = (bath_w[-1] - bath_w[0]) / (n - 1)
    jh, jl = _two_product(np.arange(n, dtype=float), step)  # j*step and w_j - w_0 exactly
    dh = bath_w - bath_w[0]
    eps = ((dh - jh) + (((bath_w - dh) - bath_w[0]) - jl)) / step
    size = 1 << (2 * n - 2).bit_length()  # >= 2N - 1: no lag wraps onto another
    lag = np.fft.fftfreq(size, 1.0 / size)
    inv = np.divide(1.0, lag, out=np.zeros(size), where=(np.abs(lag) > _NEAR) & (np.abs(lag) < n))
    weights = np.fft.rfft(np.stack((g2, g2 * eps)), size)
    kernel, spectrum = inv.copy(), np.fft.rfft(inv)
    taylor = np.empty((_TAYLOR_TERMS, n))
    for t in range(_TAYLOR_TERMS):
        kernel *= inv
        following = np.fft.rfft(kernel)
        taylor[t] = np.fft.irfft(weights[0] * spectrum + (t + 1) * weights[1] * following, size)[:n]
        spectrum = following
    w = np.pad(np.where(g2 > 0, bath_w, np.inf), _NEAR, constant_values=np.inf)
    return step, w, np.pad(g2, _NEAR), eps, taylor


def _secular(offset, shifts, poles, comb):
    """Secular function f(d) = (w_p - w_1) + d - sum_j g_j^2/((w_p - w_j) + d)
    and its derivative at roots with bath poles ``poles``: near-field plus far-field
    Taylor sums about each root's nearest grid point, direct sums beyond the grid."""
    step, w, g2, eps, taylor = comb
    f, fp = offset + shifts, np.ones(len(shifts))
    nearest = poles + np.rint(shifts / step)
    fast = (nearest >= 0) & (nearest < len(eps))
    q, p, d = nearest[fast].astype(np.intp), poles[fast], shifts[fast]
    near, dnear = np.zeros((2, len(q)))
    pole_w = w[p + _NEAR]
    for i in range(2 * _NEAR + 1):  # the exact shifted differences, as in the direct sum
        inv = 1.0 / ((pole_w - w[q + i]) + d)
        term = g2[q + i] * inv
        near += term
        dnear += term * inv
    v = -((p - q) + (eps[p] + d / step))
    far, dfar = taylor[-1, q], np.zeros(len(q))
    for coef in taylor[-2::-1]:  # Horner for the sum and its v-derivative
        dfar = dfar * v + far
        far = far * v + coef[q]
    f[fast] -= near + far / step
    fp[fast] += dnear + dfar / step**2
    for k in np.flatnonzero(~fast):
        inv = 1.0 / ((w[poles[k] + _NEAR] - w) + shifts[k])
        f[k] -= inv @ g2
        fp[k] += np.square(inv) @ g2
    return f, fp


def _refine(w1, bath_w, g):
    """Pole indices, shifts, weights and the largest relative Newton step
    left at the final shifts, for the arrowhead matrix with diagonal
    (w1, bath_w) and arm g, bath_w uniform and g zero only at deflated modes.

    Eigenvalue k lies in the interlacing interval of coupled modes k-1 and k;
    the sign of the secular function at its midpoint picks the half holding
    the root, and so the pole (as LAPACK dlaed4 does).  Between two poles of
    a uniform comb f ~ S - K cot(pi u), u the position in the interval, with
    S = f and K = (f' - 1) width/pi at the midpoint (cot = 0 there); the root
    of that model starts the shift d from the pole when it lies strictly
    inside the root's half, else (and in the two outer intervals) the middle
    of the half does.  d is refined by Newton steps on the secular equation
    times d, which removes the pole at d = 0; a step that leaves the sign
    bracket is replaced by bisection.
    """
    active = np.flatnonzero(g)
    aw, m = bath_w[active], len(active)
    radius = 2.0 * float(np.linalg.norm(g))
    lo = np.concatenate(([min(w1, aw[0]) - radius], aw))
    hi = np.concatenate((aw, [max(w1, aw[-1]) + radius]))
    half = 0.5 * (hi - lo)
    left = np.arange(-1, m)
    comb = _comb(bath_w, g * g)
    ends = active[np.clip(left, 0, m - 1)]  # each midpoint as a shift from a finite endpoint
    f, fp = _secular(bath_w[ends] - w1, np.where(left >= 0, half, -half), ends, comb)
    poles = active[np.clip(np.where(f > 0, left, left + 1), 0, m - 1)]
    pole_w = bath_w[poles]
    a, b = lo - pole_w, hi - pole_w  # sign bracket of the shift, narrowed to the root's half
    a, b = np.where(f < 0, a + half, a), np.where(f > 0, b - half, b)
    # the cot model's root, as a shift from the pole: +-(width/pi) atan2(K, |S|)
    scale = (hi - lo) / np.pi
    seed = np.sign(f) * scale * np.arctan2((fp - 1.0) * scale, np.abs(f))
    inner = (left >= 0) & (left < m - 1) & (seed > a) & (seed < b)
    shifts = np.where(inner, seed, 0.5 * (a + b))
    offset = pole_w - w1

    steps = np.zeros(m + 1)  # relative size of each shift's latest step
    todo = np.arange(m + 1)
    for _ in range(_NEWTON_MAX_STEPS):
        d = shifts[todo]
        f, fp = _secular(offset[todo], d, poles[todo], comb)
        a[todo] = np.where(f < 0, d, a[todo])
        b[todo] = np.where(f > 0, d, b[todo])
        new = d - d * f / (f + d * fp)  # Newton on d*f(d), smooth at the pole
        stray = ~((new > a[todo]) & (new < b[todo])) & (new != d)  # catches 0/0; a zero step has converged
        new[stray] = 0.5 * (a[todo] + b[todo])[stray]
        steps[todo] = np.abs(new - d) / np.abs(new)
        shifts[todo] = new
        todo = todo[steps[todo] > _NEWTON_TOL]
        if len(todo) == 0:
            break
    f, fp = _secular(offset, shifts, poles, comb)
    return poles, shifts, 1.0 / fp, float(np.max(np.abs(f / fp / shifts)))


def mode_basis(model: StarModel) -> ModeBasis:
    """Closed-form spectral data of ``model``'s reduced arrowhead matrix.

    Each eigenvalue is found on the secular equation from its interlacing
    bracket, in the shifted-pole representation, with exact near-field plus
    FFT-built far-field secular sums: O(N log N) time (0.015 s at N = 4000,
    0.5 s at N = 100000 on 2 x86_64 cores) and O(N) memory; neither the
    dense matrix nor its eigenvectors are formed.  Couplings at or below the
    double-precision resolution of the matrix are deflated."""
    w1, bath_w = model.omega1, model.bath_omegas
    g = model.bath_couplings
    scale = max(w1, float(bath_w[-1])) + float(np.linalg.norm(g))
    g = np.where(np.abs(g) > np.finfo(float).eps * scale, g, 0.0)
    active = np.flatnonzero(g)

    # slot 0 and the slots of coupled modes hold the refined eigenvalues; a
    # deflated bath mode keeps its bare frequency: own pole, shift 0, weight 0
    n = len(bath_w)
    poles, shifts, weights, step = np.arange(-1, n), np.zeros(n + 1), np.zeros(n + 1), 0.0
    if len(active):
        live = np.r_[0, 1 + active]
        poles[live], shifts[live], weights[live], step = _refine(w1, bath_w, g)
    else:
        poles[0] = np.argmin(np.abs(bath_w - w1))
        shifts[0], weights[0] = w1 - bath_w[poles[0]], 1.0
    order = np.argsort(bath_w[poles] + shifts, kind="stable")
    return ModeBasis(poles[order], shifts[order], weights[order], g, model, newton_step=step)


def initial_coefficients(frequencies: np.ndarray, init: InitialTemperatures) -> np.ndarray:
    """Initial diagonal coefficients c_m(0): the system mode at T_A0,
    every bath mode at T_B0, all cross terms zero."""
    temperatures = np.full(len(frequencies), init.T_B0)
    temperatures[0] = init.T_A0
    return thermal_coefficient(frequencies, temperatures)


def _phase_factors(times, pole_w, shifts):
    """exp(-i (w_p + d_k) t), grid times as rows.

    w_p t is carried as its rounded value plus the exact rounding error
    (Dekker's product), so the phase keeps the accuracy of the shifts instead
    of losing the ulp of l_k t (about 1e-13 rad at the production late times).
    """
    t = times[:, None]
    hi, lo = _two_product(t, pole_w)
    return np.exp(-1j * hi) * np.exp(-1j * (lo + t * shifts))


def _two_product(a, b):
    """a*b as the rounded product and its exact rounding error (Dekker)."""
    hi = a * b
    (ah, al), (bh, bl) = _halves(a), _halves(b)
    return hi, ((ah * bh - hi) + ah * bl + al * bh) + al * bl


def _halves(a):
    """Veltkamp split into two non-overlapping halves of the mantissa."""
    high = 134217729.0 * a  # 2**27 + 1
    high -= high - a
    return high, a - high


def validated_grid(times) -> np.ndarray:
    """``times`` as a float array; ValueError unless it is a non-empty 1-d
    sequence of finite, non-negative, ascending numbers."""
    grid = np.asarray(times, dtype=float)
    if grid.ndim != 1 or len(grid) == 0:
        raise ValueError("time grid must be a non-empty 1-d sequence")
    if not np.all(np.isfinite(grid)):
        raise ValueError("time grid must be finite")
    if grid[0] < 0:
        raise ValueError("time grid must be non-negative")
    if np.any(np.diff(grid) < 0):
        raise ValueError("time grid must be sorted ascending")
    return grid


def evaluate(
    basis: ModeBasis,
    c0: np.ndarray,
    times,
    rows=None,
    cross: bool = True,
) -> tuple[np.ndarray, np.ndarray | None]:
    """Covariance data for every time of the ascending grid in one batch.

    ``c0`` holds the N+1 initial diagonal coefficients (system first) and
    ``rows`` selects oscillator indices (0 is the system; default all).
    Returns ``(c, x)``, each of shape (len(times), len(rows)): the diagonal
    coefficients c_j(t) and the cross terms x_j(t) = sigma_{1,2j}(t), which
    vanish identically on the system row; ``x`` is None when ``cross`` is
    false.  Costs O(N^2 + T N^2) time and O(T N) memory beyond one scratch
    panel of at most about 8 MiB (a single row or column when one is
    larger), which the resolvent and the kernel blocks share.
    """
    grid = validated_grid(times)
    n = basis.dimension
    c0 = np.asarray(c0, dtype=float)
    if c0.shape != (n,):
        raise ValueError(f"expected {n} initial coefficients")
    rows = np.arange(n) if rows is None else np.asarray(rows)
    if rows.size == 0:
        rows = rows.astype(np.intp)
    if rows.ndim != 1 or rows.dtype.kind not in "iu" or np.any((rows < 0) | (rows >= n)):
        raise ValueError(f"rows must be a 1-d sequence of oscillator indices in [0, {n})")
    nt = len(grid)

    w, g = basis.frequencies[1:], basis.couplings
    active = np.flatnonzero(g)
    live = np.flatnonzero(basis.weights)
    pole_w, shifts = w[basis.poles[live]], basis.shifts[live]
    z = basis.weights[live] * _phase_factors(grid, pole_w, shifts)
    zz = np.concatenate((z.real, z.imag))  # real GEMM operand, (2T, K)
    system_amp = z.sum(axis=1)  # U_11

    # requested rows of coupled bath modes, as positions into ``active``
    slot = np.full(n, -1)
    slot[1 + active] = np.arange(len(active))
    out_rows = np.flatnonzero(slot[rows] >= 0)
    act_rows = slot[rows[out_rows]]

    # one scratch panel holds the largest block of both loops below
    wa, ga = w[active], g[active]
    res_blocks, res_size = _row_blocks(len(active), len(live), _BLOCK_BYTES)
    ker_blocks, ker_size = _row_blocks(len(act_rows), len(active), _BLOCK_BYTES)
    panel = np.empty(max(res_size, ker_size))

    # resolvent sums A_j over all coupled modes, B_j over the requested ones
    A = np.empty((2 * nt, len(active)))
    B = np.empty((2 * nt, len(act_rows)))
    for s in res_blocks:
        inv = _panel(panel, len(live), s.stop - s.start)  # 1/((w_p - w_j) + d_k)
        np.subtract(pole_w[:, None], wa[s], out=inv)
        inv += shifts[:, None]
        np.reciprocal(inv, out=inv)
        A[:, s] = zz @ inv
        hit = np.flatnonzero((act_rows >= s.start) & (act_rows < s.stop))
        if len(hit):
            B[:, hit] = (zz @ np.square(inv, out=inv))[:, act_rows[hit] - s.start]
    A = A[:nt] + 1j * A[nt:]
    B = B[:nt] + 1j * B[nt:]

    c = np.broadcast_to(c0[rows], (nt, len(rows))).copy()  # deflated rows keep c0
    x = np.zeros((nt, len(rows))) if cross else None
    wv = ga * ga * c0[1 + active]
    sys_rows = np.flatnonzero(rows == 0)
    if len(sys_rows) and len(active):  # with no coupled mode the system keeps c0 too
        c[:, sys_rows] = (np.abs(system_amp) ** 2 * c0[0] + (np.abs(A) ** 2) @ wv)[:, None]
    if len(act_rows) == 0:
        return c, x

    W = wv * A
    R = np.concatenate((wv[None, :], wv * np.abs(A) ** 2, W.real, W.imag))  # (1 + 3T, M)
    KR = np.empty((len(R), len(act_rows)))
    LR = np.empty((2 * nt, len(act_rows))) if cross else None
    for s in ker_blocks:
        j = act_rows[s]
        L = _panel(panel, len(j), len(active))
        np.subtract(wa, wa[j, None], out=L)
        L[np.arange(len(j)), j] = np.inf  # zero diagonal in both kernels
        np.reciprocal(L, out=L)  # 1/(w_m - w_j)
        if cross:
            LR[:, s] = R[1 + nt :] @ L.T
        KR[:, s] = R @ np.square(L, out=L).T

    Aj, gj, c0j = A[:, act_rows], ga[act_rows], c0[1 + active[act_rows]]
    KW2 = KR[1 + nt : 1 + 2 * nt] + 1j * KR[1 + 2 * nt :]
    c[:, out_rows] = gj**2 * (
        np.abs(Aj) ** 2 * (KR[0] + c0[0])
        + KR[1 : 1 + nt]
        - 2.0 * (Aj * KW2.conj()).real
        + gj**2 * np.abs(B) ** 2 * c0j
    )
    if cross:
        LW2 = LR[:nt] + 1j * LR[nt:]
        x[:, out_rows] = gj * (
            c0[0] * system_amp.conj()[:, None] * Aj
            + gj**2 * c0j * Aj.conj() * B
            - Aj * LW2.conj()
        ).imag
    return c, x


def snapshot_series(basis: ModeBasis, init: InitialTemperatures, times) -> CovarianceSnapshot:
    """One grid snapshot of the ascending ``times``, from one batched
    evaluation."""
    c, x = evaluate(basis, initial_coefficients(basis.frequencies, init), times)
    return CovarianceSnapshot(times, c, x[:, 1:], basis.model)
