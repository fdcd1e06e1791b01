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
reduce to products with the kernels 1/(w_j - w_m)^2 and 1/(w_m - w_j).  The
bath is exactly uniform, w_j = w_0 + j dw, so these kernels are Toeplitz in
the bath index and the sums are FFT correlations, O(T N log N) for all rows
together.  The resolvent sums take O(T N log N) too: Lagrange weights spread
each eigenvalue onto the uniform bath grid, an FFT per time and power
correlates those charges with the kernel, and the eigenvalues near each
target are summed exactly (after Dutt & Rokhlin's nonequispaced FFT, SIAM J.
Sci. Comput. 14 (1993)).  The eigenvalues interlace the bath frequencies;
each is the secular-equation root in its own bracket, kept as its nearest
bath pole plus a shift, l_k = w_p + d_k, found in that shifted variable, so
the small differences l_k - w_j = dw (p - j) + d_k keep full relative
accuracy; the pole w_p = w_0 + p dw is exact, carried as the rounded bath
frequency plus its rounding residual.  Its secular sums add the poles near
each root exactly and the rest from Taylor tables built by FFT on the
uniform bath, so the basis costs O(N log N).  All three kinds of sum share
one FFT Toeplitz correlation and one kernel family: powers of 1/(w_m - w_j),
up to a scale, a half-cell shift and an excluded near band.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from itertools import accumulate, repeat

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
    "phase_time_limit",
]

EVALUATION_PATH = (
    "arrowhead closed form on the exactly uniform bath: shifted secular Newton; secular and resolvent sums as "
    "exact near field plus FFT far field; bath-row kernel sums as FFT Toeplitz correlations"
)

# Secular sums: bath poles beyond _NEAR spacings of the grid point nearest the
# root take _TAYLOR_TERMS terms in the root's offset from that point, at most
# half a spacing or 1/18 of their distance, so truncation leaves < 18^-14 *
# 18/17 < 3e-18 of each.
_NEAR, _TAYLOR_TERMS = 8, 14
# Resolvent sums: each root is spread by Lagrange weights onto the _SPREAD
# half-integer grid nodes around its cell; the cells within _BAND of a target
# are summed exactly instead, in blocks of _CELLS targets.  Interpolating
# 1/(x - y) on 16 unit-spaced nodes leaves |prod(x - node) / prod(y - node)|
# < 4.2e-17 of each term whose target is more than 32 cells from the root's.
_SPREAD, _BAND, _CELLS = 16, 32, 32
# Groups of near-band blocks take about _CHUNK_BYTES and of spreading blocks
# half that, so they stay in the cache.  The FFT correlations take _FFT_ROWS
# rows per call, the fastest count on 2 x86_64 cores from length 4000 to
# 64000 (one row per call made them 20-40% slower, 16 rows 10% and 32 rows
# 30%; with 2 rows a full evaluate at N = 16000-32000 took 8-10% longer),
# but no more than fit _FFT_BYTES per buffer: at N = 100000 a system row
# with 8 rows per call peaks 50 MiB above its 2.
_CHUNK_BYTES = 2**19
_FFT_ROWS, _FFT_BYTES = 8, 2**22
# Newton stops once a step moves the shift by at most this relative amount;
# convergence is quadratic, so the step taken leaves an error near its square.
_NEWTON_TOL = 1e-12
_NEWTON_MAX_STEPS = 100
# Phases: 2 pi = sum(_TWO_PI) to 3.4e-31 (Cody & Waite's split); the first two
# parts carry 22 significant bits, so n times either is exact for |n| <= 2^31
# and an angle below _PHASE_RANGE reduces by n 2 pi to the roundoff of the
# last part.
_TWO_PI = tuple(map(float.fromhex, ("0x1.921fb8p+2", "-0x1.5dde98p-21", "0x1.8469898cc517p-46")))
_PHASE_RANGE = 2.0**31 * 2 * math.pi


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

    Eigenvalue k is l_k = w_p + d_k with p = ``poles[k]`` (a bath index),
    w_p = w_0 + p dw the exact pole and d_k = ``shifts[k]``; ``weights[k]``
    is Q_1k^2, whose eigenvector has the bath components
    Q_jk = g_j Q_1k / (l_k - w_j).  ``pole_residuals[k]`` is w_p less its
    rounded ``bath_omegas[p]``.  A bath mode with zero (or negligible, then
    stored as 0 in ``couplings``) coupling is deflated: its eigenvalue is its
    own frequency, with shift 0 and weight 0.
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
    pole_residuals: np.ndarray = field(init=False)
    eigenvalues: np.ndarray = field(init=False)  # ascending

    def __post_init__(self) -> None:
        object.__setattr__(self, "poles", np.ascontiguousarray(self.poles, dtype=np.intp))
        for name in ("shifts", "weights", "couplings"):
            object.__setattr__(self, name, np.ascontiguousarray(getattr(self, name), dtype=np.float64))
        object.__setattr__(self, "frequencies", self.model.frequencies)
        object.__setattr__(self, "pole_residuals", _pole_residuals(self.model)[self.poles])
        eigenvalues = self.frequencies[1 + self.poles] + (self.pole_residuals + self.shifts)
        object.__setattr__(self, "eigenvalues", eigenvalues)
        for name in ("poles", "shifts", "weights", "frequencies", "couplings", "pole_residuals", "eigenvalues"):
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
        if len(shape) > 1 or self.c.shape != (*shape, self.model.n_modes + 1):
            raise ValueError("expected N+1 coefficients at each time")
        if self.x.shape != (*shape, self.model.n_modes):
            raise ValueError("expected one cross term per bath mode at each time")
        time.setflags(write=False)

    def at(self, i: int) -> "CovarianceSnapshot":
        """The one-time snapshot at grid index ``i``."""
        return CovarianceSnapshot(self.time[i], self.c[i], self.x[i], self.model)


def _pole_residuals(model):
    """(w_0 + j dw) - bath_omegas[j] for every bath index j, exact up to its
    own rounding: Dekker's product splits j dw into hi + lo, and as
    bath_omegas[j] is the rounded sum w_0 + hi of two positive terms,
    Fast2Sum gives that sum's rounding error."""
    hi, lo = _two_product(np.arange(model.n_modes, dtype=float), model.delta_omega)
    big, small = np.maximum(model.omega_min, hi), np.minimum(model.omega_min, hi)
    return (small - (model.bath_omegas - big)) + lo


def _comb(step, g2):
    """The uniform bath of the secular sums: spacing, bath indices and g2 padded
    by _NEAR points at each end, where, as at deflated modes, the index is inf
    and g2 = 0 (so their terms vanish); tables D_n[q] = sum over |q - j| > _NEAR
    of g2_j (q - j)^-(n+1).  With v = -(l - w_0)/step + q, far term j is
    g2_j/(step (q - j - v)), so their sum is sum_n D_n[q] v^n / step.  Each D_n
    is a Toeplitz correlation over the grid."""
    n = len(g2)
    taylor = np.zeros((_TAYLOR_TERMS, n))
    plan = _kernel_spectra(n, 0, n, range(1, _TAYLOR_TERMS + 1), 1.0, gap=_NEAR)
    outs = [(taylor[t : t + 1], t + 1, 0) for t in range(_TAYLOR_TERMS)]
    _correlate(lambda r0, r1, rows: np.copyto(rows, g2), 1, outs, plan)
    index = np.pad(np.where(g2 > 0, np.arange(n), np.inf), _NEAR, constant_values=np.inf)
    return step, index, np.pad(g2, _NEAR), taylor


def _secular(offset, shifts, poles, comb):
    """Secular function f(d) = (w_p - w_1) + d - sum_j g_j^2/(step (p - j) + d)
    and its derivative at roots with bath poles ``poles``: near-field plus far-field
    Taylor sums about each root's nearest grid point, direct sums beyond the grid."""
    step, index, g2, taylor = comb
    f, fp = offset + shifts, np.ones(len(shifts))
    nearest = poles + np.rint(shifts / step)
    fast = (nearest >= 0) & (nearest < taylor.shape[1])
    q, p, d = nearest[fast].astype(np.intp), poles[fast], shifts[fast]
    near, dnear = np.zeros((2, len(q)))
    for i in range(2 * _NEAR + 1):  # the exact shifted differences, as in the direct sum
        inv = 1.0 / (step * (p - index[q + i]) + d)
        term = g2[q + i] * inv
        near += term
        dnear += term * inv
    v = -((p - q) + d / step)
    far, dfar = taylor[-1, q], np.zeros(len(q))
    for coef in taylor[-2::-1]:  # Horner for the sum and its v-derivative
        dfar = dfar * v + far
        far = far * v + coef[q]
    f[fast] -= near + far / step
    fp[fast] += dnear + dfar / step**2
    for k in np.flatnonzero(~fast):
        inv = 1.0 / (step * (poles[k] - index) + shifts[k])
        f[k] -= inv @ g2
        fp[k] += np.square(inv) @ g2
    return f, fp


def _refine(w1, bath_w, residuals, step, g):
    """Pole indices, shifts, weights and the largest relative Newton step
    left at the final shifts, for the arrowhead matrix with diagonal
    (w1, bath_w + residuals) and arm g, the bath exactly uniform with
    spacing ``step`` and g zero only at deflated modes.

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
    comb = _comb(step, g * g)
    ends = active[np.clip(left, 0, m - 1)]  # each midpoint as a shift from a finite endpoint
    f, fp = _secular((bath_w[ends] - w1) + residuals[ends], np.where(left >= 0, half, -half), ends, comb)
    poles = active[np.clip(np.where(f > 0, left, left + 1), 0, m - 1)]
    pole_w = bath_w[poles]
    a, b = lo - pole_w, hi - pole_w  # sign bracket of the shift, narrowed to the root's half
    a, b = np.where(f < 0, a + half, a), np.where(f > 0, b - half, b)
    # the cot model's root, as a shift from the pole: +-(width/pi) atan2(K, |S|)
    scale = (hi - lo) / np.pi
    seed = np.sign(f) * scale * np.arctan2((fp - 1.0) * scale, np.abs(f))
    inner = (left >= 0) & (left < m - 1) & (seed > a) & (seed < b)
    shifts = np.where(inner, seed, 0.5 * (a + b))
    offset = (pole_w - w1) + residuals[poles]

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
    0.27 s at N = 100000 on 2 x86_64 cores) and O(N) memory; neither the
    dense matrix nor its eigenvectors are formed.  Couplings at or below the
    double-precision resolution of the matrix are deflated."""
    w1, bath_w = model.omega1, model.bath_omegas
    g = model.bath_couplings
    scale = max(w1, float(bath_w[-1])) + float(np.linalg.norm(g))
    g = np.where(np.abs(g) > np.finfo(float).eps * scale, g, 0.0)
    active = np.flatnonzero(g)

    # slot 0 and the slots of coupled modes hold the refined eigenvalues; a
    # deflated bath mode keeps its bare frequency: own pole, shift 0, weight 0
    n, residuals = len(bath_w), _pole_residuals(model)
    poles, shifts, weights, step = np.arange(-1, n), np.zeros(n + 1), np.zeros(n + 1), 0.0
    if len(active):
        live = np.r_[0, 1 + active]
        poles[live], shifts[live], weights[live], step = _refine(w1, bath_w, residuals, model.delta_omega, g)
    else:
        poles[0] = np.argmin(np.abs(bath_w - w1))
        shifts[0], weights[0] = (w1 - bath_w[poles[0]]) - residuals[poles[0]], 1.0
    order = np.argsort(bath_w[poles] + (residuals[poles] + shifts), kind="stable")
    return ModeBasis(poles[order], shifts[order], weights[order], g, model, newton_step=step)


def initial_coefficients(frequencies: np.ndarray, init: InitialTemperatures) -> np.ndarray:
    """Initial diagonal coefficients c_m(0): the system mode at T_A0,
    every bath mode at T_B0, all cross terms zero."""
    temperatures = np.full(len(frequencies), init.T_B0)
    temperatures[0] = init.T_A0
    return thermal_coefficient(frequencies, temperatures)


def _phases(times, pole_w, shifts, weights, out):
    """Fills ``out`` (T, 2, K) with the real and imaginary parts of
    z_k = weights_k exp(-i (w_p + d_k) t) for the rounded poles ``pole_w``
    and the shifts d_k counted from them, chunks of times at a time.

    The angle is t l + t e, where l = w_p + d_k rounded and e its exact
    rounding error (Knuth's two-sum); t l is carried as its rounded value hi
    plus the exact rounding error (Dekker's product), so the phase keeps the
    accuracy of the shifts instead of losing the ulp of l t (about 1e-13 rad
    at the production late times).  hi is reduced by n 2 pi in three parts
    (Cody & Waite), the first two exact while hi < _PHASE_RANGE, and one
    cosine and one sine of the reduced angle give z_k.  The angle is formed
    in the real rows of ``out`` and n in the imaginary ones, so the scratch
    is hi, lo and the temporaries of their product, about six (rows, K)
    arrays: about _CHUNK_BYTES (530 KiB at N = 4000).
    """
    c1, c2, c3 = _TWO_PI
    freq = pole_w + shifts
    err = freq - pole_w
    err = (pole_w - (freq - err)) + (shifts - err)
    rows = max(1, _CHUNK_BYTES // (48 * len(freq)))
    for t0 in range(0, len(times), rows):
        t = times[t0 : t0 + rows, None]
        angle, n = out[t0 : t0 + rows, 0], out[t0 : t0 + rows, 1]  # minus the angle, for exp(-i angle)
        hi, lo = _two_product(t, freq)
        np.rint(np.multiply(hi, 1 / (2 * np.pi), out=n), out=n)
        np.multiply(n, c1, out=angle)
        angle -= hi
        angle += np.multiply(n, c2, out=hi)
        lo += np.multiply(t, err, out=hi)
        n *= c3
        n -= lo
        angle += n  # (n c1 - hi) + n c2 + (n c3 - (lo + t err))
        np.multiply(np.sin(angle, out=n), weights, out=n)
        np.multiply(np.cos(angle, out=angle), weights, out=angle)


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


def _fft_size(n):
    """The smallest 2^a 3^b 5^c >= n: the FFT runs fast at these lengths, and
    large powers of 2 alone run slowly in the cache."""
    best, p5 = 1 << (n - 1).bit_length(), 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            best = min(best, p35 << (-(-n // p35) - 1).bit_length())
            p35 *= 3
        p5 *= 5
    return best


def _lagrange_weights(u, empty):
    """Lagrange weights at offsets ``u`` (K,) on the _SPREAD unit-spaced nodes
    -_SPREAD//2 ... _SPREAD - 1 - _SPREAD//2, as (_SPREAD, K), 0 where ``empty``;
    each is the product over the other nodes: prefix products in the rows of
    the result times suffix products run from the right in its first row."""
    nodes = np.arange(_SPREAD) - _SPREAD // 2
    weights = np.ones((_SPREAD, len(u)))
    for i in range(1, _SPREAD):
        np.multiply(weights[i - 1], u - nodes[i - 1], out=weights[i])
    suffix = weights[0]  # its prefix product is 1: the running suffix product
    for i in range(_SPREAD - 1, 0, -1):
        weights[i] *= suffix
        suffix *= u - nodes[i]
    scale = [(-1) ** (_SPREAD - 1 - i) * math.factorial(i) * math.factorial(_SPREAD - 1 - i) for i in range(_SPREAD)]
    weights /= np.array(scale, dtype=float)[:, None]
    weights[:, empty] = 0.0
    return weights


def _resolvents(basis, lo, hi):
    """The plan of the resolvent sums, formed once per evaluate from what
    does not depend on time; returns its apply, ``apply(times)``, which
    gives, at those times, U_11 = sum_k z_k, as (T,) complex, and the
    resolvent sums at every bath mode j, A_j = sum_k z_k/(l_k - w_j) over
    the live roots, z_k = Q_1k^2 exp(-i l_k t), and B_j = sum_k
    z_k/(l_k - w_j)^2 on the bath indices lo ... hi - 1 (none: B is None),
    each with the real and imaginary parts of time t in rows 2t and 2t+1,
    the one layout evaluate reads.  Both are finite at deflated modes, whose
    columns evaluate leaves at c0 and zero cross terms.  Each time's sums
    depend on that time alone, so the times may come in chunks.

    In spacing units root k sits at x_k = p + d_k/step, in the cell
    (m_k - 1, m_k) with m_k = p + ceil(d_k/step), and target j at j;
    interlacing leaves at most one live root in a cell.  The plan, about
    8 x 8N bytes (10 x with B over all modes), holds the cell map: each
    root's column of the charges, its phase data (pole, shift and weight)
    and its pole and shift by cell; the target index; the far-field kernel
    spectra; and the direct-sum matrices of the roots beyond cells 0 ... N.
    Per chunk of times, one pass of ``_phases`` writes each z_k straight
    into its cell's charge rows.  The cells within _BAND of a target take
    the exact shifted differences step (p - j) + d_k: a time-independent
    correction, exact minus grid value, rebuilt per chunk and applied as
    block GEMMs of _CELLS targets (``_near_band``).  The far field comes
    from the charges that the Lagrange weights of each root's offset from
    its cell's centre put on the half-integer nodes around the cell, formed
    in place of the cell charges (``_spread``): node k sits at
    k - _SPREAD//2 - 1/2, so per row FFTs correlate them with
    1/(w_node - w_j)^p = (-1/(step (lag + _SPREAD//2 + 1/2)))^p at the lags
    j - k, p = 1 (A) or 2 (B).  The roots beyond the cells take the direct
    sum.  An apply to T times holds the (2T, N) charges and sums A, B over
    only the target blocks that meet the span (returned as a view of the
    span), the (_SPREAD, cells) weights, formed per apply and dropped before
    the FFTs, and scratch buffers of about _CHUNK_BYTES each besides those."""
    n, step = len(basis.couplings), basis.model.delta_omega
    R, W = _BAND, _CELLS
    live = np.flatnonzero(basis.weights)
    p, d = basis.poles[live], basis.shifts[live]
    m = p + np.clip(np.ceil(d / step), -n - 2, n + 2).astype(np.intp)
    inside = (m >= 0) & (m <= n)
    outer = np.flatnonzero(~inside)

    # cells -R ... nb W + R - 1 in blocks of W, empty ones at index -inf with
    # weight 0, so their exact and grid values vanish; one empty block for the
    # node charges' overhang; then the roots beyond the cells.  Targets padded
    # to nb W, deflated and padding ones at index +inf, whose (unread) exact
    # values vanish too
    nb = -(-n // W)
    cells = -(-(nb * W + 2 * R) // W) * W
    col = np.where(inside, m + R, cells + W + np.cumsum(~inside) - 1)
    pole_w, shift, weight = np.zeros((3, cells + W + len(outer)))
    pole_w[col], shift[col], weight[col] = basis.frequencies[1 + p], basis.pole_residuals[live] + d, basis.weights[live]

    cell_p, cell_d = np.full(cells, -np.inf), np.zeros(cells)
    cell_p[col[inside]], cell_d[col[inside]] = p[inside], d[inside]
    index = np.full(nb * W, np.inf)
    index[:n] = np.where(basis.couplings != 0, np.arange(n), np.inf)
    first = lo // W
    stop = -(-hi // W) if hi > lo else first  # the blocks of B
    kernel = (-1.0 / step, _SPREAD // 2 + 0.5)  # scale and shift: see _kernel_spectra
    plan = _kernel_spectra(n + _SPREAD, 0, n, (1,) if hi == lo else (1, 2), *kernel)
    inv = 1.0 / (step * (p[outer, None] - index[:n]) + d[outer, None])
    inv2 = np.square(inv[:, lo:hi])

    def apply(times):
        nt = len(times)
        zc = np.empty((nt, 2, len(pole_w)))
        _phases(times, pole_w, shift, weight, zc)
        sums = zc.sum(axis=2)
        amp = sums[:, 0] + 1j * sums[:, 1]
        zc = zc.reshape(2 * nt, -1)
        A = np.empty((2 * nt, nb * W))
        B = np.empty((2 * nt, (stop - first) * W)) if hi > lo else None
        weights = _lagrange_weights((cell_p - np.arange(-R, cells - R)) + 0.5 + cell_d / step, cell_p == -np.inf)
        _near_band(zc[:, :cells], weights, cell_p, cell_d, index, step, *kernel, ((A, 1, 0, nb), (B, 2, first, stop)))
        _spread(zc[:, : cells + W], weights)
        del weights  # before the FFT buffers
        B = None if B is None else B[:, lo - first * W : hi - first * W]
        nodes = zc[:, R : R + n + _SPREAD]
        _correlate(lambda r0, r1, rows: np.copyto(rows, nodes[r0:r1]), 2 * nt, [(A[:, :n], 1, 0), (B, 2, lo)], plan)
        if len(outer):
            zo = zc[:, cells + W :]
            A[:, :n] += zo @ inv
            if B is not None:
                B += zo @ inv2
        return amp, A[:, :n], B

    return apply


def _near_band(zc, weights, cell_p, cell_d, index, step, scale, shift, outs):
    """Writes the near band of the resolvent sums into each (out, power,
    first, stop) of ``outs``, for the target blocks first ... stop - 1 (none
    when out is None), whose first target is column 0 of out: block b meets
    cells bW - R ... bW + W + R - 1 (span) of the charges ``zc``; row c of
    the table weights.T @ kernel (weights: (P, cells)) holds cell c's grid
    values at the offsets cell - target = R + W - 1 ... -(R + W - 1), read
    for each block as a strided view; the block GEMMs write straight into
    out.  Grid values are ``_correlate``'s, so the band takes off what the
    far field adds; a group's table and exact values take about _CHUNK_BYTES."""
    P, R, W = _SPREAD, _BAND, _CELLS
    nb = len(index) // W
    span, lags = W + 2 * R, 2 * (R + W) - 1
    inv = scale / ((np.arange(lags) - (R + W - 1) - np.arange(P)[:, None]) + shift)  # at lag target - node
    window, strided = np.lib.stride_tricks.sliding_window_view, np.lib.stride_tricks.as_strided
    charges = window(zc, span, axis=1)[:, ::W].transpose(1, 0, 2)  # (nb, 2T, span)
    near_p, near_d = window(cell_p, span)[::W, :, None], window(cell_d, span)[::W, :, None]
    group = min(nb, max(1, (_CHUNK_BYTES // 8 - 2 * R * lags) // (W * (lags + span))))  # table and exact
    table = np.empty((group * W + 2 * R, lags))
    row, col = table.strides
    exact = np.empty((group, span, W))
    for out, power, first, stop in outs:
        kernel = inv if power == 1 else inv * inv
        for b0 in range(first, stop, group):
            g = min(group, stop - b0)
            blk, tgt = slice(b0, b0 + g), slice(b0 * W, (b0 + g) * W)
            tab = np.matmul(weights[:, b0 * W : (b0 + g) * W + 2 * R].T, kernel, out=table[: g * W + 2 * R])
            grid = strided(tab[0, lags - W :], (g, span, W), (W * row, row - col, col))
            diff = np.subtract(near_p[blk], index[tgt].reshape(g, 1, W), out=exact[:g])
            diff *= step
            diff += near_d[blk]
            np.reciprocal(diff, out=diff)
            if power == 2:
                np.square(diff, out=diff)
            diff -= grid
            at = out[:, (b0 - first) * W : (b0 - first + g) * W]
            np.matmul(charges[blk], diff, out=at.reshape(len(zc), g, W).transpose(1, 0, 2))


def _spread(zc, weights):
    """Replaces the cell charges ``zc`` (rows, cells + W) by node charges:
    cell c spreads by column c of ``weights`` (P, cells) onto nodes c ...
    c + P - 1, as block GEMMs of W cells.  Groups of blocks run from the top
    down, so each reads its own cells before writing its nodes, and its
    overhang adds onto the nodes of the group above; the last block of
    ``zc`` must hold zeros.  A group's band and products take _CHUNK_BYTES / 2
    together, so the spreading stays below the near band's scratch."""
    P, W = _SPREAD, _CELLS
    rows, blocks = len(zc), weights.shape[1] // W
    group = min(blocks, max(1, _CHUNK_BYTES // (16 * (W + P - 1) * (W + rows))))
    spread = np.zeros((group, W, W + P - 1))  # row s of block c holds its P weights from column s on
    band = np.lib.stride_tricks.as_strided(
        spread, (group, W, P), (spread.strides[0], sum(spread.strides[1:]), spread.strides[2]), writeable=True
    )
    part = np.empty((group, rows, W + P - 1))
    nodes = zc.reshape(rows, blocks + 1, W)
    for c0 in reversed(range(0, blocks, group)):
        g = min(group, blocks - c0)
        band[:g] = weights[:, c0 * W : (c0 + g) * W].reshape(P, g, W).transpose(1, 2, 0)
        np.matmul(nodes[:, c0 : c0 + g].transpose(1, 0, 2), spread[:g], out=part[:g])
        nodes[:, c0 : c0 + g] = part[:g, :, :W].transpose(1, 0, 2)
        nodes[:, c0 + 1 : c0 + g + 1, : P - 1] += part[:g, :, W:].transpose(1, 0, 2)


def _kernel_spectra(width, lo, hi, powers, scale, shift=0.0, gap=-1):
    """The plan of ``_correlate``, formed once per caller: the kernel
    K(lag) = scale/(lag + shift) at integer lags |lag| > gap, else 0 (gap -1:
    none), for sources ``width`` columns wide and the span of targets
    lo ... hi - 1.  The FFT length covers the width plus the span, so no lag
    wraps onto another; the powers come by repeated products, and only the
    spectra of those in ``powers`` are kept.  Returns (lo, width, size, rows,
    spectra): the first target, the source width, the FFT length, the rows
    per FFT call (at most _FFT_ROWS and _FFT_BYTES) and the spectra by power."""
    size = _fft_size(width + hi - 1 - lo)
    lag = np.arange(lo, lo + size)
    lag[hi - lo :] -= size  # position (t - s - lo) mod size holds lag t - s
    inv = np.divide(scale, lag + shift, out=np.zeros(size), where=np.abs(lag) > gap)
    kernels = enumerate(accumulate(repeat(inv, max(powers)), np.multiply), 1)  # inv, inv * inv, ... one at a time
    spectra = {p: np.fft.rfft(k) for p, k in kernels if p in powers}
    return lo, width, size, min(_FFT_ROWS, max(1, _FFT_BYTES // (8 * size))), spectra


def _correlate(fill, count, outs, plan):
    """Toeplitz correlations by real FFTs with the kernel spectra of ``plan``
    (see ``_kernel_spectra``) of ``count`` source rows, which ``fill(r0, r1,
    rows)`` writes, rows r0 ... r1 - 1, into ``rows`` (r1 - r0, width).  For
    each (out, p, start) of ``outs`` (out None: skipped), adds to row i of
    ``out``, at each target t = start + c of its columns c, the sum over the
    columns s of source[i, s] K(t - s)^p.  Chunks of the plan's rows are
    filled straight into one reused zero-padded buffer, where the inverse
    FFTs write their sums too (the padding is zeroed again per chunk); with
    one output the product is formed in the spectrum.  So the scratch is two
    or three (rows, FFT length) buffers, 1.0 MiB for the resolvent sums of a
    system row at N = 4000, and what ``fill`` takes."""
    lo, width, size, rows, spectra = plan
    outs = [o for o in outs if o[0] is not None]
    chunk = min(count, rows)
    buffer = np.empty((chunk, size))
    spectrum = np.empty((chunk, size // 2 + 1), dtype=complex)
    product = spectrum if len(outs) == 1 else np.empty_like(spectrum)  # one output: in place
    for r0 in range(0, count, chunk):
        k = min(chunk, count - r0)
        fill(r0, r0 + k, buffer[:k, :width])
        buffer[:k, width:] = 0.0  # the zero padding, which the sums overwrote
        np.fft.rfft(buffer[:k], out=spectrum[:k])
        for out, p, start in outs:
            b = min(len(out) - r0, k)
            if b <= 0:
                continue
            np.multiply(spectrum[:b], spectra[p], out=product[:b])
            np.fft.irfft(product[:b], size, out=buffer[:b])
            out[r0 : r0 + b] += buffer[:b, start - lo : start - lo + out.shape[1]]


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


def phase_time_limit(model: StarModel) -> float:
    """Time (s) below which every eigenfrequency's phase stays in the exact
    range 2^31 2 pi of the phase reduction, from the bound
    max(omega1, top bath frequency) + 2 |g| on the eigenfrequencies, whose
    2 |g| is the radius ``_refine`` brackets the outer roots with."""
    top = max(model.omega1, float(model.bath_omegas[-1])) + 2.0 * float(np.linalg.norm(model.bath_couplings))
    return _PHASE_RANGE / top


def evaluate(
    basis: ModeBasis,
    c0: np.ndarray,
    times,
    bath=None,
) -> tuple[np.ndarray, np.ndarray]:
    """Covariance data for every time of the ascending grid in one batch.

    ``c0`` holds the N+1 initial diagonal coefficients (system first) and
    ``bath = (lo, hi)`` selects the span of bath indices lo ... hi - 1
    (default (0, N): every mode; (0, 0): the system row alone).  Returns
    ``(c, x)``: the diagonal coefficients c_j(t) of the system and the span,
    shape (len(times), 1 + hi - lo), system first, and the cross terms
    x_j(t) = sigma_{1,2j}(t) of the span, shape (len(times), hi - lo), which
    is (len(times), 0) for the system row.  Deflated modes keep c0 and +0.0
    cross terms.  Costs O(T N log N) time: the resolvent sums correlate over
    the whole bath, and the kernel sums and formulas run over the span, with
    FFTs whose length covers N plus the span, so a window of modes costs
    about half of all modes.  Memory is O(N) beyond the output c and x, all
    real, whatever T is: the resolvent plan is formed once, and one loop over
    chunks of times applies it, runs the bath rows' kernel sums and formulas
    and reduces the system row, each chunk's arrays taking about _CHUNK_BYTES
    per (chunk, N) array and going before the next chunk's are formed.  The
    phases go straight into a chunk's (2T, N) charges, which the far field
    reuses for its node charges; c and x read its (2T, N) sums in that
    layout, and the kernel sums form their rows in the FFT buffer and their
    sums by sub-chunks of times, so each chunk peaks at its charges and sums
    plus one scratch budget (README lists the traced peaks).  Each chunk
    forms the Lagrange weights and the near band, 3 ms at N = 4000.
    ValueError once the last time times the top eigenfrequency reaches
    2^31 2 pi (phase range).
    """
    grid = validated_grid(times)
    n = basis.dimension
    c0 = np.asarray(c0, dtype=float)
    if c0.shape != (n,):
        raise ValueError(f"expected {n} initial coefficients")
    try:
        lo, hi = (0, n - 1) if bath is None else map(operator.index, bath)
        if not 0 <= lo <= hi < n:
            raise ValueError
    except (TypeError, ValueError):
        raise ValueError(f"bath must be a span (lo, hi) of integers with 0 <= lo <= hi <= {n - 1}") from None
    nt = len(grid)

    top = basis.eigenvalues[-1]
    if grid[-1] * top >= _PHASE_RANGE:
        raise ValueError(
            f"max eigenfrequency x max time must stay below 2^31 * 2 pi = {_PHASE_RANGE:.6g} rad, the exact range "
            f"of the phase reduction: times below {_PHASE_RANGE / top:.6g} s for this model"
        )
    g = basis.couplings
    c = np.broadcast_to(c0[np.r_[0, 1 + lo : 1 + hi]], (nt, 1 + hi - lo)).copy()  # deflated modes keep c0
    x = np.zeros((nt, hi - lo))
    if not np.any(g):  # no mode moves from c0
        return c, x

    # U_11, resolvent sums A_j over the bath and B_j over the span, as real rows (see _resolvents);
    # the weights wv vanish at deflated modes, so no sum reads A_j there, and the formulas'
    # columns of deflated modes go unwritten
    resolvents = _resolvents(basis, lo, hi)
    wv = g * g * c0[1:]
    if hi > lo:
        plan = _kernel_spectra(len(g), lo, hi, (1, 2), -1.0 / basis.model.delta_omega, gap=0)
        # the kernel sums take sub-chunks of a chunk's times whose 3 rows each fill whole FFT calls,
        # about _CHUNK_BYTES of rows
        per_call = plan[3]
        span = per_call * max(1, _CHUNK_BYTES // (24 * len(g) * per_call))
        gj, c0j, coupled = g[lo:hi], c0[1 + lo : 1 + hi], g[lo:hi] != 0
        # K0_j = c0_1 + sum_{m != j} wv_m/(w_m - w_j)^2, the same at every time
        K0 = np.zeros((1, hi - lo))
        _correlate(lambda r0, r1, rows: np.copyto(rows, wv), 1, [(K0, 2, lo)], plan)
        K0 = K0[0] + c0[0]

    def chunk(t0, t1):
        """c and x at the times t0 ... t1 - 1, from one apply of the resolvent plan."""
        nonlocal resolvents
        system_amp, A, B = resolvents(grid[t0:t1])
        if t1 == nt:
            resolvents = None  # the last chunk's bath rows run without the plan
        for s0 in range(0, t1 - t0, span) if hi > lo else ():
            s1 = min(s0 + span, t1 - t0)
            k, ts = s1 - s0, slice(2 * s0, 2 * s1)

            def sources(r0, r1, rows):  # rows r0 ... r1 - 1 of R = (wv A, wv |A|^2), in the FFT buffer
                At, wide = A[ts], max(min(r1, 2 * k) - r0, 0)
                np.multiply(At[r0 : r0 + wide], wv, out=rows[:wide])
                for r in range(r0 + wide - 2 * k, r1 - 2 * k):  # wv |A|^2 at time r, two rows of scratch
                    row = np.multiply(At[2 * r], wv, out=rows[r + 2 * k - r0])
                    row *= At[2 * r]
                    row += At[2 * r + 1] * wv * At[2 * r + 1]

            # wv A interleaved as A is; K_j = sum_{m != j} R_m/(w_m - w_j)^2 of every row and
            # L_j = sum_{m != j} (wv A)_m/(w_m - w_j)
            K, L = np.zeros((3 * k, hi - lo)), np.zeros((2 * k, hi - lo))
            _correlate(sources, 3 * k, [(K, 2, lo), (L, 1, lo)], plan)

            # a, b: the real and imaginary rows of A_j, interleaved in B and in K, L of wv A as in A
            a, b, Bt = A[ts][0::2, lo:hi], A[ts][1::2, lo:hi], B[ts]
            cs = gj**2 * (
                (a * a + b * b) * K0
                + K[2 * k :]
                - 2.0 * (a * K[0 : 2 * k : 2] + b * K[1 : 2 * k : 2])
                + gj**2 * (Bt[0::2] ** 2 + Bt[1::2] ** 2) * c0j
            )
            np.copyto(c[t0 + s0 : t0 + s1, 1:], cs, where=coupled)
            u_r, u_i = system_amp.real[s0:s1, None], system_amp.imag[s0:s1, None]
            xs = gj * (
                c0[0] * (u_r * b - u_i * a)
                + gj**2 * c0j * (a * Bt[1::2] - b * Bt[0::2])
                - (b * L[0::2] - a * L[1::2])
            )
            np.copyto(x[t0 + s0 : t0 + s1], xs, where=coupled)
        # sum_j wv_j |A_j|^2 over the real and imaginary rows, in place and without BLAS, whose GEMV
        # splits rows between threads and so gives bits that depend on the thread count
        a2 = np.multiply(np.square(A, out=A), wv, out=A).sum(axis=1)
        c[t0:t1, 0] = np.abs(system_amp) ** 2 * c0[0] + (a2[0::2] + a2[1::2])

    # the fewest chunks of times with about _CHUNK_BYTES per (chunk, N) array at most, but at least
    # 2 _FFT_ROWS times, as each chunk rebuilds the near band (as costly as applying about 4 times);
    # sizes balanced in whole _FFT_ROWS times keep the FFT calls full
    most = max(2 * _FFT_ROWS, _CHUNK_BYTES // (8 * len(g)))
    size = _FFT_ROWS * -(-nt // (_FFT_ROWS * -(-nt // most)))
    for t0 in range(0, nt, size):
        chunk(t0, min(t0 + size, nt))  # releases the chunk's A and B before the next forms its own
    return c, x


def snapshot_series(basis: ModeBasis, init: InitialTemperatures, times) -> CovarianceSnapshot:
    """One grid snapshot of the ascending ``times``, from one batched
    evaluation."""
    c, x = evaluate(basis, initial_coefficients(basis.frequencies, init), times)
    return CovarianceSnapshot(times, c, x, basis.model)
