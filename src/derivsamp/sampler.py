"""Sampling operator S_W and frame/consistency checks.

S_W reconstructs from weighted derivative samples W^{-i} f^{(i)}((a+rho l)/W)
by combining them with the reconstruction kernels:

    (S_W f)(t) = sum_l sum_i W^{-i} f^{(i)}((a + rho l)/W) Theta_i(W t - rho l).

Internally the double sum collapses to a spline in the W-dilated space: the
samples are convolved once with the (real) kernel coefficients, giving
coefficients over the refined lattice (rho k + j), then evaluated as a single
B-spline series by `bspline_series`.  For f already in the spline space and
W=1 this returns f exactly.  `approx_error` measures ||S_W f - f||_p.  A
sample grid holds at most _MAX_POINTS nodes, checked before any array.

The frame constants solve the eigenvalues of Psi* Psi at the points of
`circle_values`, read as it returns them, points on the last axis.

On f = sum_k c_k Q_m(. - k) both sides of the sampling inequality are
quadratic forms in c: ||f||^2 = c^T G c with the Gram matrix G, and the
sample energy sum_{i,l} |f^{(i)}(a + rho l)|^2 = c^T M c with M built from
the symbol's exact coefficients.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bspline import _check_range, bspline_series, exact_lattice_values, riesz_lower_bound
from .kernel import KernelTable, _l_range
from .laurent import circle_values
from .symbol import Kappa, build_symbol

__all__ = [
    "SplineElement",
    "SampleGrid",
    "SampleNodeError",
    "grid_for_window",
    "take_samples",
    "apply_sw",
    "approx_error",
    "BoundsReport",
    "frame_bounds",
    "SamplingInequalityReport",
    "verify_sampling_inequality",
]


@dataclass(frozen=True)
class SplineElement:
    """Compactly supported element sum_k coeffs[k - k0] Q_m(t - k), a signal
    like `signals.SignalSpec`: eval(i, t) is its i-th derivative."""

    m: int
    k0: int
    coeffs: np.ndarray

    special_points = ()  # no jump declared to the local-modulus search

    def __post_init__(self):
        _check_range("knot k0", self.k0, -math.inf, integer=True)
        object.__setattr__(self, "coeffs", np.asarray(self.coeffs, dtype=float))

    @property
    def support_hint(self) -> tuple[float, float]:
        return (self.k0, self.k0 + len(self.coeffs) - 1 + self.m)

    def eval(self, i: int, t):
        return bspline_series(self.m, i, self.coeffs, self.k0, t)

    def l2_norm(self) -> float:
        """L2 norm sqrt(c^T G c) on the B-spline Gram matrix G."""
        c = self.coeffs
        return math.sqrt(float(c @ _gram(self.m, len(c)) @ c))


def _gram(m: int, n: int) -> np.ndarray:
    """G[j, k] = <Q_m(. - j), Q_m(. - k)> = Q_2m(m + j - k) for 0 <= j, k < n,
    the B-spline autocorrelation, each value rounded once from exact."""
    nums, dens = exact_lattice_values(2 * m, 0, 0)
    q2m = [t / dens[0] for t in nums[0]] + [0.0]
    lag = m + np.subtract.outer(np.arange(n), np.arange(n))
    # Q_2m(p) for 0 <= p < 2m; clipping sends every lag outside onto a zero
    # (Q_2m(0) = 0 below, the appended 0 above)
    return np.take(q2m, lag, mode="clip")


# Most sample nodes a SampleGrid holds, and most quadrature points
# approx_error takes: tests and benchmark use at most a few thousand of
# either, and 2^22 nodes at rho = 5 are 168 MB of samples.
_MAX_POINTS = 1 << 22


@dataclass(frozen=True)
class SampleGrid:
    """Sample nodes (a + rho l)/W for l in [l_lo, l_hi]; raises ArgumentError,
    before any array exists, unless 0 < W < inf and l_lo <= l_hi are
    integers at most _MAX_POINTS - 1 apart."""

    kappa: Kappa
    W: float
    l_lo: int
    l_hi: int

    def __post_init__(self):
        _check_range("dilation W", self.W, 0, open_lo=True)
        # an integer count >= 1 needs integer ends l_lo <= l_hi
        _check_range("sample count l_hi - l_lo + 1", self.l_hi - self.l_lo + 1, 1, _MAX_POINTS,
                     integer=True, got=f"W={self.W!r}, l_lo={self.l_lo!r}, l_hi={self.l_hi!r}")

    def nodes(self) -> np.ndarray:
        k = self.kappa
        return (float(k.a) + k.rho * np.arange(self.l_lo, self.l_hi + 1)) / self.W


def grid_for_window(
    kappa: Kappa, W: float, t_lo: float, t_hi: float, table: KernelTable
) -> SampleGrid:
    return SampleGrid(kappa, W, *_l_range(table, W, t_lo, t_hi))


class SampleNodeError(ValueError):
    """A sample node, or a reference point of approx_error, falls where the
    signal has no finite value."""


def _eval_finite(f, i: int, ts: np.ndarray, W: float, what: str, advice: str = "") -> np.ndarray:
    """f.eval(i, ts) as floats.  A non-finite value, as at a point where the
    signal is undefined, raises SampleNodeError naming its t, the channel
    and W."""
    vals = np.asarray(f.eval(i, ts), dtype=float)
    bad = ~np.isfinite(vals)
    if bad.any():
        raise SampleNodeError(
            f"{what} hits undefined point t={float(ts[bad][0])} of channel {i} "
            f"(W={W}): non-finite{advice}"
        )
    return vals


def take_samples(f, grid: SampleGrid) -> np.ndarray:
    """Derivative samples f.eval(i, node), shape (len(nodes), rho), of any signal
    (a SignalSpec, a SplineElement).  A non-finite sample raises
    SampleNodeError."""
    nodes = grid.nodes()
    advice = "; pick an irrational dilation such as W = 3*sqrt(7)"
    cols = [_eval_finite(f, i, nodes, grid.W, "sample node", advice) for i in range(grid.kappa.rho)]
    return np.stack(cols, axis=1)


def apply_sw(samples: np.ndarray, grid: SampleGrid, table: KernelTable, t):
    """Evaluate S_W at t; raises ArgumentError if some t is not finite, and
    ValueError if the table is for another configuration, the samples are
    not of shape (L, rho), or the sample range cannot reach some t.  An
    empty t gives an empty array of its shape."""
    kappa = grid.kappa
    if table.kappa != kappa:
        raise ValueError(
            f"kernel table for {table.kappa} does not match the sample grid's {kappa}"
        )
    rho, v = kappa.rho, table.radius
    n_samples = samples.shape[0]
    if samples.shape != (n_samples, rho):
        raise ValueError(f"samples must have shape (L, {rho})")
    x = np.asarray(t, dtype=float)
    if x.size == 0:
        return np.empty(x.shape)
    need_lo, need_hi = _l_range(table, grid.W, float(np.min(x)), float(np.max(x)))
    if need_lo < grid.l_lo or need_hi > grid.l_hi:
        raise ValueError(
            f"sample range l in [{grid.l_lo}, {grid.l_hi}] insufficient for the "
            f"requested window: need l in [{need_lo}, {need_hi}]"
        )
    # S_W f(t) = sum_n e[n] Q_m(W t - rho (l_lo - V) - n)
    e = np.zeros(rho * (n_samples + 2 * v))
    for j in range(rho):
        for i in range(rho):
            e[j::rho] += grid.W ** (-i) * np.convolve(samples[:, i], table.coeffs[j, i, :])
    return bspline_series(kappa.m, 0, e, rho * (grid.l_lo - v), grid.W * x)


# approx_error measures over the signal's support window widened by this
# much on each side.
_PAD = 1.0


def approx_error(table: KernelTable, f, w: float, p: float = 2.0, grid_n: int = 2000) -> float:
    """L^p distance between the reconstruction at dilation w, with the
    table's configuration, and the signal over its support window padded by
    _PAD (full sample coverage inside), by midpoint quadrature on grid_n
    points.  Raises ArgumentError unless p is finite and >= 1, grid_n is an
    integer in [1, _MAX_POINTS], w is positive and finite and its sample
    grid holds at most _MAX_POINTS nodes, all before any array exists, and
    SampleNodeError if a sample or a reference value of the signal is not
    finite."""
    _check_range("p", p, 1)
    _check_range("grid_n", grid_n, 1, _MAX_POINTS, integer=True)
    lo, hi = f.support_hint
    lo, hi = lo - _PAD, hi + _PAD
    grid = grid_for_window(table.kappa, w, lo, hi, table)
    samples = take_samples(f, grid)
    step = (hi - lo) / grid_n
    ts = lo + step * (np.arange(grid_n) + 0.5)
    vals = apply_sw(samples, grid, table, ts)
    ref = _eval_finite(f, 0, ts, w, "reference point")
    return float((step * np.sum(np.abs(vals - ref) ** p)) ** (1.0 / p))


@dataclass(frozen=True)
class BoundsReport:
    kappa: Kappa
    lower: float  # inf_t lambda_min(Psi* Psi)
    upper: float  # sup_t lambda_max(Psi* Psi)
    upper_frame: float  # upper * pi^{2m-1} / (2^{2m-1} K_{2m-1})


# Grid size in t of the frame constants, unless a caller asks for another.
_FRAME_GRID_N = 1024
# Largest grid_n that frame_bounds takes, 16 times the largest that tests use
# (4096): circle_values allocates grid_n rho^2 slots before anything else
# could refuse.
_FRAME_MAX_GRID_N = 1 << 16
# The frame constants solve eigenvalues exactly on every this-many-th point
# of the half circle (and its last point) before screening the rest.
# Chosen from 16, 32 and 64 by paired timings of frame_bounds over the
# benchmark's certify rounds: the screen costs the same at any step, and
# the points it keeps are few, so fewer coarse points solve less.
_FRAME_COARSE_STEP = 64


def frame_bounds(kappa: Kappa, grid_n: int = _FRAME_GRID_N) -> BoundsReport:
    """Frame constants of the sampling inequality from the symbol's singular
    values on the grid of grid_n points of the circle, read at the points
    of `circle_values`.

    Eigenvalues of G = Psi* Psi, formed by np.matmul, are solved on every
    _FRAME_COARSE_STEP-th of those points and the last one, giving lo >= A
    and hi <= B.  An LDL^H test that G - (lo + s) I and (hi - s) I - G are
    positive definite, s = 1e-12 hi, on a Gram summed row by row, rules out
    most other points, and only the rest are formed by np.matmul and solved.
    A ruled-out point cannot hold an extreme, so A and B are the same floats
    as from every point's eigenvalues.  A symbol of monomial columns is
    solved at z = 1 alone, its A and B those of C^T C whatever grid_n (see
    _frame_bounds).

    Raises ArgumentError, before any array exists, unless grid_n is an
    integer in [64, _FRAME_MAX_GRID_N]."""
    _check_range("grid_n", grid_n, 64, _FRAME_MAX_GRID_N, integer=True)
    return _frame_bounds(kappa, build_symbol(kappa), grid_n)


def _positive_definite(h: np.ndarray) -> np.ndarray:
    """Whether each matrix of the stack h (..., r, r) is positive definite:
    LDL^H elimination without pivoting, all r pivots > 0 (Sylvester).  Reads
    the lower triangle and real diagonal, as eigvalsh does; overwrites h."""
    ok = np.ones(h.shape[:-2], dtype=bool)
    for k in range(h.shape[-1]):
        pivot = h[..., k, k].real
        ok &= pivot > 0
        col = h[..., k + 1 :, k]
        # a failed matrix is decided: scale it by 1, never by 1 / pivot <= 0
        row = col.conj() * (1.0 / np.where(ok, pivot, 1.0))[..., None]
        h[..., k + 1 :, k + 1 :] -= col[..., :, None] * row[..., None, :]
    return ok


def _gram_eigvalsh(psi: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of Psi* Psi at each point of psi (r, r, points),
    one row per point."""
    p = np.moveaxis(psi, -1, 0)
    return np.linalg.eigvalsh(np.matmul(p.conj().transpose(0, 2, 1), p))


def _screened_eigvalsh(psi: np.ndarray) -> np.ndarray:
    """Eigenvalues of Psi* Psi at the points of psi (r, r, points) that can
    hold an extreme (see frame_bounds): np.matmul and eigvalsh on the
    coarse points and the points the screen keeps, one LDL^H screen over
    every point on a row-summed Gram."""
    r, n = psi.shape[1:]
    coarse = np.zeros(n, dtype=bool)
    coarse[::_FRAME_COARSE_STEP] = coarse[-1] = True
    lam = _gram_eigvalsh(psi[..., coarse])
    lo, hi = lam[:, 0].min(), lam[:, -1].max()
    # np.matmul and eigvalsh handle each matrix of a stack on its own, so a
    # point's eigenvalues are the same floats in any subset.  The screen's
    # Gram sum_k conj(Psi[k, i]) Psi[k, j] is summed in another order and
    # differs from np.matmul's by O(r^2 u hi), which the margin s absorbs, as
    # it absorbs the LDL^H test's backward error (Higham, Accuracy and
    # Stability of Numerical Algorithms, 2002, ch. 10).  A point passing both
    # tests has lambda_min >= lo + s - O(r^2 u hi) > lo and lambda_max <=
    # hi - s + O(r^2 u hi) < hi, also as eigvalsh rounds them, so it can
    # hold neither extreme and A, B equal the full stack's.
    s = 1e-12 * hi
    # G - (lo + s) I and (hi - s) I - G in the two halves of one buffer,
    # points on the last axis, as in psi, so that every step runs along
    # contiguous memory.  The halves do not interleave, so numpy copies
    # neither when one is read into the other; the second holds each row's
    # product until G is done.
    shifted = np.empty((2, r, r, n), dtype=psi.dtype)
    gram, term = shifted
    np.multiply(psi[0].conj()[:, None], psi[0], out=gram)
    for k in range(1, r):
        gram += np.multiply(psi[k].conj()[:, None], psi[k], out=term)
    np.negative(gram, out=term)
    diag = shifted.reshape(2, r * r, n)[:, :: r + 1]
    diag[0] -= lo + s
    diag[1] += hi - s
    ok = _positive_definite(shifted.transpose(0, 3, 1, 2))
    rest = ~((ok[0] & ok[1]) | coarse)
    if rest.any():
        lam = np.concatenate([lam, _gram_eigvalsh(psi[..., rest])])
    return lam


def _monomial_columns(rows) -> bool:
    """Whether every column of the symbol is one power of z times constants."""
    return all(
        len({p.low for p in col if p.coeffs}) <= 1 and all(len(p.coeffs) <= 1 for p in col)
        for col in zip(*rows)
    )


def _frame_bounds(kappa: Kappa, rows, grid_n: int) -> BoundsReport:
    """Frame constants on the half circle of grid_n points (see frame_bounds).
    When every column of the symbol is one monomial, Psi(z) = C diag(z^k_j),
    Psi* Psi = D* C^T C D with D unitary has the spectrum of C^T C at every
    point, and the one-point grid holds Psi(1) = C exactly."""
    lam = (_gram_eigvalsh(circle_values(rows, 1)) if _monomial_columns(rows)
           else _screened_eigvalsh(circle_values(rows, grid_n)))
    lower = float(lam[:, 0].min())
    upper = float(lam[:, -1].max())
    return BoundsReport(kappa, lower, upper, upper / riesz_lower_bound(kappa.m))


# Random elements of the sampling-inequality check have this many coefficients.
_TRIAL_LEN = 30


def _sample_matrix(rows, n: int) -> np.ndarray:
    """B with rows (i, l) and columns k, B[(i, l), k] = Q_m^(i)(a + rho l - k),
    for 0 <= k < n and every l whose node meets some Q_m(. - k).

    Entry rows[i][j] of the symbol holds Q_m^(i)(a + rho e - j) at z^e, so
    column k = rho s + j is that coefficient list placed at l = e + s.
    """
    rho = len(rows)
    polys = [p for row in rows for p in row if not p.is_zero]
    l_lo = min(p.low for p in polys)
    n_l = max(p.high for p in polys) + (n - 1) // rho - l_lo + 1
    b = np.zeros((rho, n_l, n))
    for i in range(rho):
        for j in range(rho):
            p = rows[i][j]
            vals = [c / p.den for c in p.coeffs]
            for k in range(j, n, rho):
                top = p.low + k // rho - l_lo
                b[i, top : top + len(vals), k] = vals
    return b.reshape(rho * n_l, n)


@dataclass(frozen=True)
class SamplingInequalityReport:
    kappa: Kappa
    n_trials: int
    min_ratio: float
    max_ratio: float
    lower: float
    upper_frame: float
    violations: int
    eig_min: float  # extreme generalized eigenvalues of (M, G): the
    eig_max: float  # sharp constants over all elements of the trial length


def verify_sampling_inequality(
    kappa: Kappa,
    n_trials: int = 200,
    seed: int = 1030,
) -> SamplingInequalityReport:
    """Check lower ||f||^2 <= sum_{i,l} |f^(i)(a + rho l)|^2 <= upper_frame ||f||^2
    on n_trials random f = sum_k c_k Q_m(. - k), 0 <= k < 30, c_k uniform in
    [-1, 1], as ratios c^T M c / c^T G c with M = B^T B (`_sample_matrix`);
    the generalized eigenvalues of (M, G) bound every such ratio.  Raises
    ArgumentError unless n_trials is a positive integer."""
    _check_range("n_trials", n_trials, 1, integer=True)
    rows = build_symbol(kappa)
    bounds = _frame_bounds(kappa, rows, _FRAME_GRID_N)
    gram = _gram(kappa.m, _TRIAL_LEN)
    b = _sample_matrix(rows, _TRIAL_LEN)
    energy = b.T @ b
    c = np.random.default_rng(seed).uniform(-1.0, 1.0, (n_trials, _TRIAL_LEN))
    ratios = np.einsum("tj,jk,tk->t", c, energy, c) / np.einsum("tj,jk,tk->t", c, gram, c)
    inside = (bounds.lower - 1e-9 <= ratios) & (ratios <= bounds.upper_frame + 1e-9)
    chol_inv = np.linalg.inv(np.linalg.cholesky(gram))
    eig = np.linalg.eigvalsh(chol_inv @ energy @ chol_inv.T)
    return SamplingInequalityReport(
        kappa, n_trials, float(ratios.min()), float(ratios.max()),
        bounds.lower, bounds.upper_frame, int(np.count_nonzero(~inside)),
        float(eig[0]), float(eig[-1]),
    )
