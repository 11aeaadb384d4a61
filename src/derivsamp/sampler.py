"""Sampling operator S_W and frame/consistency checks.

S_W reconstructs from weighted derivative samples W^{-i} f^{(i)}((a+rho l)/W)
by combining them with the reconstruction kernels:

    (S_W f)(t) = sum_l sum_i W^{-i} f^{(i)}((a + rho l)/W) Theta_i(W t - rho l).

Internally the double sum collapses to a spline in the W-dilated space: the
samples are convolved once with the (real) kernel coefficients, giving
coefficients over the refined lattice (rho k + j), then evaluated as a single
B-spline series by `bspline_series`.  For f already in the spline space and
W=1 this returns f exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bspline import bspline_series, riesz_lower_bound
from .kernel import KernelTable
from .symbol import Kappa, build_symbol

__all__ = [
    "SplineElement",
    "SampleGrid",
    "required_l_range",
    "grid_for_window",
    "take_samples",
    "sw_spline_coeffs",
    "apply_sw",
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
        """Exact L2 norm: per-knot-interval Gauss-Legendre with m nodes
        (integrand is piecewise polynomial of degree 2m-2)."""
        xs, ws = np.polynomial.legendre.leggauss(self.m)
        lo, hi = self.support
        acc = 0.0
        for j in range(int(lo), int(math.ceil(hi))):
            tt = j + (xs + 1.0) / 2.0
            acc += float(np.sum(ws / 2.0 * self.eval(tt) ** 2))
        return math.sqrt(acc)


@dataclass(frozen=True)
class SampleGrid:
    """Sample nodes (a + rho l)/W for l in [l_lo, l_hi]."""

    kappa: Kappa
    W: float
    l_lo: int
    l_hi: int

    def __post_init__(self):
        if self.W <= 0:
            raise ValueError("dilation W must be positive")
        if self.l_hi < self.l_lo:
            raise ValueError("empty sample range")

    @property
    def ls(self) -> np.ndarray:
        return np.arange(self.l_lo, self.l_hi + 1)

    def nodes(self) -> np.ndarray:
        k = self.kappa
        return (float(k.a) + k.rho * self.ls) / self.W


def required_l_range(
    kappa: Kappa, W: float, t_lo: float, t_hi: float, radius: int
) -> tuple[int, int]:
    """Smallest l-range whose kernels reach every t in [t_lo, t_hi]."""
    lo, hi = -kappa.rho * radius, kappa.rho * radius + kappa.rho - 1 + kappa.m
    return (
        math.floor((W * t_lo - hi) / kappa.rho),
        math.ceil((W * t_hi - lo) / kappa.rho),
    )


def grid_for_window(
    kappa: Kappa, W: float, t_lo: float, t_hi: float, table: KernelTable
) -> SampleGrid:
    l_lo, l_hi = required_l_range(kappa, W, t_lo, t_hi, table.radius)
    return SampleGrid(kappa, W, l_lo, l_hi)


def take_samples(f, grid: SampleGrid) -> np.ndarray:
    """Derivative samples f^{(i)}(node), shape (len(ls), rho).

    Accepts a SplineElement or any signal object with eval(i, t) /
    undefined_points(i); sampling at a declared undefined point is an error.
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
                    raise ValueError(
                        f"sample node hits undefined point t={pt} of channel {i} "
                        f"(W={grid.W}); choose W avoiding the lattice"
                    )
            vals = np.asarray(f.eval(i, nodes), dtype=float)
            if np.any(~np.isfinite(vals)):
                raise ValueError(f"channel {i} returned non-finite sample values")
            cols.append(vals)
    return np.stack(cols, axis=1)


def sw_spline_coeffs(
    samples: np.ndarray, grid: SampleGrid, table: KernelTable
) -> tuple[int, np.ndarray]:
    """Collapse samples to coefficients over the refined lattice: returns
    (n_lo, e) with S_W f(t) = sum_n e[n - n_lo] Q_m(W t - n)."""
    kappa = grid.kappa
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
    """Evaluate S_W at t; raises if the sample range cannot reach some t."""
    kappa = grid.kappa
    x = np.asarray(t, dtype=float)
    need_lo, need_hi = required_l_range(
        kappa, grid.W, float(np.min(x)), float(np.max(x)), table.radius
    )
    if need_lo < grid.l_lo or need_hi > grid.l_hi:
        raise ValueError(
            f"sample range l in [{grid.l_lo}, {grid.l_hi}] insufficient for the "
            f"requested window: need l in [{need_lo}, {need_hi}]"
        )
    n_lo, e = sw_spline_coeffs(samples, grid, table)
    return bspline_series(kappa.m, 0, e, n_lo, grid.W * x)


@dataclass(frozen=True)
class BoundsReport:
    kappa: Kappa
    lower: float  # inf_t lambda_min(Psi* Psi)
    upper: float  # sup_t lambda_max(Psi* Psi)
    upper_frame: float  # upper * pi^{2m-1} / (2^{2m-1} K_{2m-1})


def frame_bounds(kappa: Kappa, grid_n: int = 1024) -> BoundsReport:
    """Frame constants of the sampling inequality from the symbol's singular
    values over a uniform grid in t."""
    if grid_n < 64:
        raise ValueError("grid_n too small")
    sym = build_symbol(kappa)
    ts = np.arange(grid_n) / grid_n
    psi = sym.eval_grid(ts)
    gram = np.matmul(psi.conj().transpose(0, 2, 1), psi)
    lam = np.linalg.eigvalsh(gram)
    lower = float(lam[:, 0].min())
    upper = float(lam[:, -1].max())
    return BoundsReport(kappa, lower, upper, upper / riesz_lower_bound(kappa.m))


@dataclass(frozen=True)
class SamplingInequalityReport:
    kappa: Kappa
    n_trials: int
    min_ratio: float
    max_ratio: float
    lower: float
    upper_frame: float
    violations: int


def verify_sampling_inequality(
    kappa: Kappa,
    n_trials: int = 200,
    seed: int = 1030,
    support_len: int = 30,
) -> SamplingInequalityReport:
    """Monte-Carlo check that sum_{i,l} |f^{(i)}(a + rho l)|^2 / ||f||_2^2
    stays inside [lower, upper_frame] for random spline elements."""
    bounds = frame_bounds(kappa)
    rng = np.random.default_rng(seed)
    rho, a = kappa.rho, float(kappa.a)
    lo_ratio, hi_ratio = math.inf, -math.inf
    violations = 0
    for _ in range(n_trials):
        coeffs = rng.uniform(-1.0, 1.0, support_len)
        f = SplineElement(kappa.m, 0, coeffs)
        s_lo, s_hi = f.support
        l_lo = math.floor((s_lo - a) / rho) - 1
        l_hi = math.ceil((s_hi - a) / rho) + 1
        nodes = (a + rho * np.arange(l_lo, l_hi + 1)).astype(float)
        num = sum(float(np.sum(f.eval(nodes, deriv=i) ** 2)) for i in range(rho))
        ratio = num / f.l2_norm() ** 2
        lo_ratio = min(lo_ratio, ratio)
        hi_ratio = max(hi_ratio, ratio)
        if not (bounds.lower - 1e-9 <= ratio <= bounds.upper_frame + 1e-9):
            violations += 1
    return SamplingInequalityReport(
        kappa, n_trials, lo_ratio, hi_ratio, bounds.lower, bounds.upper_frame, violations
    )
