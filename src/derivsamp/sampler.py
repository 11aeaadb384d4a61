"""Sampling operator S_W and frame/consistency checks.

S_W reconstructs from weighted derivative samples W^{-i} f^{(i)}((a+rho l)/W)
by combining them with the reconstruction kernels:

    (S_W f)(t) = sum_l sum_i W^{-i} f^{(i)}((a + rho l)/W) Theta_i(W t - rho l).

Internally the double sum collapses to a spline in the W-dilated space: the
samples are convolved once with the (real) kernel coefficients, giving
coefficients over the refined lattice (rho k + j), then evaluated as a single
B-spline series by `bspline_series`.  For f already in the spline space and
W=1 this returns f exactly.  `approx_error` measures ||S_W f - f||_p.

On f = sum_k c_k Q_m(. - k) both sides of the sampling inequality are
quadratic forms in c: ||f||^2 = c^T G c with the Gram matrix G, and the
sample energy sum_{i,l} |f^{(i)}(a + rho l)|^2 = c^T M c with M built from
the symbol's exact coefficients.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bspline import bspline_series, exact_lattice_values, riesz_lower_bound
from .kernel import KernelTable, _l_range
from .laurent import circle_values
from .symbol import Kappa, SymbolMatrix, build_symbol

__all__ = [
    "SplineElement",
    "SampleGrid",
    "SampleNodeError",
    "grid_for_window",
    "take_samples",
    "sw_spline_coeffs",
    "apply_sw",
    "approx_error",
    "BoundsReport",
    "frame_bounds",
    "SamplingInequalityReport",
    "verify_sampling_inequality",
]


@dataclass(frozen=True)
class SplineElement:
    """Compactly supported element sum_k coeffs[k - k0] Q_m(t - k)."""

    m: int
    k0: int
    coeffs: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "coeffs", np.asarray(self.coeffs, dtype=float))

    @property
    def support(self) -> tuple[float, float]:
        return (self.k0, self.k0 + len(self.coeffs) - 1 + self.m)

    def eval(self, t, deriv: int = 0):
        return bspline_series(self.m, deriv, self.coeffs, self.k0, t)

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


@dataclass(frozen=True)
class SampleGrid:
    """Sample nodes (a + rho l)/W for l in [l_lo, l_hi]."""

    kappa: Kappa
    W: float
    l_lo: int
    l_hi: int

    def __post_init__(self):
        if not 0 < self.W < math.inf:
            raise ValueError(f"dilation W must be positive and finite, got W={self.W!r}")
        if self.l_hi < self.l_lo:
            raise ValueError("empty sample range")

    @property
    def ls(self) -> np.ndarray:
        return np.arange(self.l_lo, self.l_hi + 1)

    def nodes(self) -> np.ndarray:
        k = self.kappa
        return (float(k.a) + k.rho * self.ls) / self.W


def grid_for_window(
    kappa: Kappa, W: float, t_lo: float, t_hi: float, table: KernelTable
) -> SampleGrid:
    return SampleGrid(kappa, W, *_l_range(table, W, t_lo, t_hi))


class SampleNodeError(ValueError):
    """A sample node falls where the signal has no finite value."""


def take_samples(f, grid: SampleGrid) -> np.ndarray:
    """Derivative samples f^{(i)}(node), shape (len(ls), rho).

    Accepts a SplineElement or any signal object with eval(i, t) /
    undefined_points(i); a node at a declared undefined point, or a
    non-finite sample, raises SampleNodeError.
    """
    kappa = grid.kappa
    nodes = grid.nodes()
    cols = []
    if isinstance(f, SplineElement):
        for i in range(kappa.rho):
            cols.append(f.eval(nodes, deriv=i))
    else:
        for i in range(kappa.rho):
            for pt in f.undefined_points(i):
                d = np.min(np.abs(nodes - pt))
                if d < 1e-12 * max(1.0, abs(pt)):
                    raise SampleNodeError(
                        f"sample node hits undefined point t={pt} of channel {i} "
                        f"(W={grid.W}); pick an irrational dilation such as W = 3*sqrt(7)"
                    )
            vals = np.asarray(f.eval(i, nodes), dtype=float)
            if np.any(~np.isfinite(vals)):
                raise SampleNodeError(f"channel {i} returned non-finite sample values")
            cols.append(vals)
    return np.stack(cols, axis=1)


def sw_spline_coeffs(
    samples: np.ndarray, grid: SampleGrid, table: KernelTable
) -> tuple[int, np.ndarray]:
    """Collapse samples to coefficients over the refined lattice: returns
    (n_lo, e) with S_W f(t) = sum_n e[n - n_lo] Q_m(W t - n).  Raises
    ValueError if the grid and the table are for different configurations."""
    kappa = grid.kappa
    if table.kappa != kappa:
        raise ValueError(
            f"kernel table for {table.kappa} does not match the sample grid's {kappa}"
        )
    rho, v = kappa.rho, table.radius
    n_samples = samples.shape[0]
    if samples.shape != (n_samples, rho):
        raise ValueError(f"samples must have shape (L, {rho})")
    k_len = n_samples + 2 * v
    e = np.zeros(rho * k_len)
    for j in range(rho):
        for i in range(rho):
            e[j::rho] += grid.W ** (-i) * np.convolve(samples[:, i], table.coeffs[j, i, :])
    return rho * (grid.l_lo - v), e


def apply_sw(samples: np.ndarray, grid: SampleGrid, table: KernelTable, t):
    """Evaluate S_W at t; raises if the table is for another configuration
    or the sample range cannot reach some t."""
    kappa = grid.kappa
    n_lo, e = sw_spline_coeffs(samples, grid, table)
    x = np.asarray(t, dtype=float)
    need_lo, need_hi = _l_range(table, grid.W, float(np.min(x)), float(np.max(x)))
    if need_lo < grid.l_lo or need_hi > grid.l_hi:
        raise ValueError(
            f"sample range l in [{grid.l_lo}, {grid.l_hi}] insufficient for the "
            f"requested window: need l in [{need_lo}, {need_hi}]"
        )
    return bspline_series(kappa.m, 0, e, n_lo, grid.W * x)


# approx_error measures over the signal's support window widened by this
# much on each side.
_PAD = 1.0


def approx_error(table: KernelTable, f, w: float, p: float = 2.0, grid_n: int = 2000) -> float:
    """L^p distance between the reconstruction at dilation w, with the
    table's configuration, and the signal over its support window padded by
    _PAD (full sample coverage inside), by midpoint quadrature on grid_n
    points.  Raises ValueError unless p is finite and >= 1 and grid_n is an
    integer >= 1."""
    if not (1 <= p < math.inf):
        raise ValueError(f"need finite p >= 1, got p={p}")
    if not isinstance(grid_n, (int, np.integer)) or grid_n < 1:
        raise ValueError(f"grid_n must be an integer >= 1, got {grid_n!r}")
    lo, hi = f.support_hint
    lo, hi = lo - _PAD, hi + _PAD
    grid = grid_for_window(table.kappa, w, lo, hi, table)
    samples = take_samples(f, grid)
    step = (hi - lo) / grid_n
    ts = lo + step * (np.arange(grid_n) + 0.5)
    vals = apply_sw(samples, grid, table, ts)
    ref = np.asarray(f.eval(0, ts), dtype=float)
    return float((step * np.sum(np.abs(vals - ref) ** p)) ** (1.0 / p))


@dataclass(frozen=True)
class BoundsReport:
    kappa: Kappa
    lower: float  # inf_t lambda_min(Psi* Psi)
    upper: float  # sup_t lambda_max(Psi* Psi)
    upper_frame: float  # upper * pi^{2m-1} / (2^{2m-1} K_{2m-1})


# Grid size in t of the frame constants, unless a caller asks for another.
_FRAME_GRID_N = 1024
# The frame constants solve eigenvalues exactly on every this-many-th point
# of the half circle (and its last point) before screening the rest.
_FRAME_COARSE_STEP = 16


def frame_bounds(kappa: Kappa, grid_n: int = _FRAME_GRID_N) -> BoundsReport:
    """Frame constants of the sampling inequality from the symbol's singular
    values on the grid t = s / grid_n of the circle.  The symbol is real, so
    Psi(1 - t) = conj Psi(t) has the same singular values, and the points
    with t in [0, 1/2] (s <= grid_n // 2, odd grid_n included) give the
    extremes of the whole grid.

    Eigenvalues of G = Psi* Psi are solved on every 16th of those points
    and the last one, giving lo >= A and hi <= B.  An LDL^H test that
    G - (lo + s) I and (hi - s) I - G are positive definite, s = 1e-12 hi,
    rules out most other points, and only the rest are solved.  A ruled-out
    point cannot hold an extreme, so A and B are the same floats as from
    every point's eigenvalues.

    Raises ValueError unless grid_n is an integer >= 64."""
    if not isinstance(grid_n, (int, np.integer)) or grid_n < 64:
        raise ValueError(f"grid_n must be an integer >= 64, got {grid_n!r}")
    return _frame_bounds(build_symbol(kappa), grid_n)


def _positive_definite(h: np.ndarray) -> np.ndarray:
    """Whether each matrix of the stack h (N, r, r) is positive definite:
    LDL^H elimination without pivoting, all r pivots > 0 (Sylvester).  Reads
    the lower triangle and real diagonal, as eigvalsh does; overwrites h."""
    ok = np.ones(h.shape[0], dtype=bool)
    for k in range(h.shape[1]):
        pivot = h[:, k, k].real
        ok &= pivot > 0
        col = h[:, k + 1 :, k]
        # a failed matrix is decided: divide it by 1, never by a pivot <= 0
        row = col.conj() / np.where(ok, pivot, 1.0)[:, None]
        h[:, k + 1 :, k + 1 :] -= col[:, :, None] * row[:, None, :]
    return ok


def _frame_bounds(sym: SymbolMatrix, grid_n: int) -> BoundsReport:
    psi = circle_values(sym.entries, grid_n)
    gram = np.matmul(psi.conj().transpose(0, 2, 1), psi)
    coarse = np.zeros(len(gram), dtype=bool)
    coarse[::_FRAME_COARSE_STEP] = coarse[-1] = True
    lam = np.linalg.eigvalsh(gram[coarse])
    lo, hi = lam[:, 0].min(), lam[:, -1].max()
    # eigvalsh solves each matrix of a stack on its own, so a point's
    # eigenvalues are the same floats in any subset.  A point passing both
    # tests has lambda_min >= lo + s - O(r^2 u |G|) > lo and lambda_max <=
    # hi - s + O(r^2 u |G|) < hi, also as eigvalsh rounds them, so it can hold
    # neither extreme and A, B equal the full stack's.  A flat spectrum (Q3)
    # passes nowhere and every point is solved.
    s = 1e-12 * hi
    eye = np.eye(gram.shape[1])
    # one buffer for both shifted stacks, points on the last axis so that
    # every elimination step runs along contiguous memory
    shifted = np.empty(gram.shape[1:] + gram.shape[:1], dtype=gram.dtype).transpose(2, 0, 1)
    inside = _positive_definite(np.subtract(gram, (lo + s) * eye, out=shifted))
    inside &= _positive_definite(np.subtract((hi - s) * eye, gram, out=shifted))
    rest = ~(inside | coarse)
    if rest.any():
        lam = np.concatenate([lam, np.linalg.eigvalsh(gram[rest])])
    lower = float(lam[:, 0].min())
    upper = float(lam[:, -1].max())
    return BoundsReport(sym.kappa, lower, upper, upper / riesz_lower_bound(sym.kappa.m))


# Random elements of the sampling-inequality check have this many coefficients.
_TRIAL_LEN = 30


def _sample_matrix(sym: SymbolMatrix, n: int) -> np.ndarray:
    """B with rows (i, l) and columns k, B[(i, l), k] = Q_m^(i)(a + rho l - k),
    for 0 <= k < n and every l whose node meets some Q_m(. - k).

    Entry [i][j] of the symbol holds Q_m^(i)(a + rho e - j) at z^e, so column
    k = rho s + j is that coefficient list placed at l = e + s.
    """
    rho = sym.kappa.rho
    polys = [p for row in sym.entries for p in row if not p.is_zero]
    l_lo = min(p.low for p in polys)
    n_l = max(p.high for p in polys) + (n - 1) // rho - l_lo + 1
    b = np.zeros((rho, n_l, n))
    for i in range(rho):
        for j in range(rho):
            p = sym.entries[i][j]
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
    ValueError unless n_trials is a positive integer."""
    if not isinstance(n_trials, (int, np.integer)) or n_trials < 1:
        raise ValueError(f"n_trials must be a positive integer, got {n_trials!r}")
    sym = build_symbol(kappa)
    bounds = _frame_bounds(sym, _FRAME_GRID_N)
    gram = _gram(kappa.m, _TRIAL_LEN)
    b = _sample_matrix(sym, _TRIAL_LEN)
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
