"""Reconstruction kernels Theta_i for derivative sampling.

The inverse symbol Psi^{-1} has Fourier coefficients c^{ji}(v) decaying
geometrically; the kernels are the finite-bandwidth combinations

    Theta_i(t) = sum_v sum_j c^{ji}(v) Q_m(t - rho v - j).

The coefficients are one inverse real FFT of the matrix inverses at the
points of `circle_values`, so the table is real by construction; n is
doubled until the coefficients that halving the grid would alias onto the
kept ones sit below the requested tolerance.  Each Theta_i is then one
B-spline series with coefficient c^{ji}(v) at knot rho v + j.
The kernels reproduce polynomials up to the configuration's order; both the
time-domain and Fourier-domain (Strang-Fix) forms of that moment condition
are provided.  The Fourier form holds for every degree: it reads derivatives
of any order of e^{2 pi i a xi} Theta_i^ = Q_m^ S_i, S_i the exponential sum
of channel i's series coefficients on knots measured from the shift a, by
Leibniz from the derivatives of Q_m^ (`bspline._q_hat_derivs`), and undoes
the shift with one unit phase.  The channels share their knots, so one
matrix product gives every S_i^(k); the few numbers after it are summed on
Python scalars.  `reproducing_order` decides the order in the time domain.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .bspline import _TWO_PI_I, _check_range, _int_power, _q_hat_derivs, _show, bspline_series
from .laurent import circle_values
from .symbol import Kappa, NotCISError, check_cis

__all__ = [
    "KernelTable",
    "inv_symbol_coeffs",
    "theta_eval",
    "theta_support",
    "ReproducingReport",
    "reproducing_order",
    "moment_check_fourier",
]


@dataclass(frozen=True)
class KernelTable:
    """Fourier coefficients of Psi^{-1}: coeffs[j, i, V + v] = c^{ji}(v),
    |v| <= V; tail_bound bounds the discarded coefficient mass."""

    kappa: Kappa
    radius: int
    coeffs: np.ndarray  # float64, shape (rho, rho, 2*radius + 1)
    tail_bound: float


def inv_symbol_coeffs(kappa: Kappa, tol: float = 1e-12) -> KernelTable:
    """Fourier coefficients of the inverse symbol, |coeff| resolved to tol.

    One grid of n points, n = 256 doubled up to 8192 until the coefficients
    within 32 of the Nyquist index n/2 are below tol.  They are what a grid
    of n/2 points, c_{n/2}(v) = c_n(v) + c_n(v + n/2), would alias onto
    |v| <= 32.  Psi is inverted at the n/2 + 1 points of `circle_values`,
    and np.fft.irfft of the inverses gives the real c(v).

    Raises ArgumentError unless tol is positive and finite, NotCISError if
    kappa is not certified CIS (the inverse symbol would be unbounded), and
    ArithmeticError if n = 8192 does not converge.
    """
    _check_range("tol", tol, 0, open_lo=True)
    report = check_cis(kappa)
    if not report.is_cis:
        raise NotCISError(kappa)
    rho, rows = kappa.rho, report.symbol

    n = 256
    while True:
        inv = np.linalg.inv(np.moveaxis(circle_values(rows, n), -1, 0))  # entry [s, j, i]
        spec = np.fft.irfft(inv, n, axis=0)  # index v mod n
        mags = np.max(np.abs(spec), axis=(1, 2))
        alias = float(mags[n // 2 - 32 : n // 2 + 33].max())
        if alias < tol:
            break
        if n >= 8192:
            raise ArithmeticError(
                f"inverse-symbol coefficients did not converge for {kappa} "
                f"(alias band magnitude {alias:.3e} at n={n})"
            )
        n *= 2

    # fold[v] = max |c(+-v)|; the radius stays within cap + 1
    cap = n // 3
    fold = np.maximum(mags[: cap + 2], mags[-np.arange(cap + 2) % n])
    above = np.flatnonzero(fold[1:cap] >= tol)
    radius = int(above[-1]) + 1 if above.size else 1

    def tail_estimate(v0: int) -> float:
        peak = float(fold[v0])
        back = max(float(fold[abs(v0 - 3)]), 1e-300)
        ratio = (max(peak, 1e-300) / back) ** (1.0 / 3.0)
        ratio = min(max(ratio, 1e-3), 0.95)
        return 10.0 * rho * peak * ratio / (1.0 - ratio)

    while radius < cap and tail_estimate(radius) >= tol and fold[radius] > 0:
        radius += 2
    tail_bound = tail_estimate(radius)

    window = spec[np.arange(-radius, radius + 1) % n]  # (2V+1, j, i)
    coeffs = np.transpose(window, (1, 2, 0)).copy()
    return KernelTable(kappa, radius, coeffs, tail_bound)


def theta_support(table: KernelTable) -> tuple[float, float]:
    """Interval outside of which every Theta_i vanishes."""
    rho, m = table.kappa.rho, table.kappa.m
    return (-rho * table.radius, rho * table.radius + rho - 1 + m)


def _l_range(table: KernelTable, W: float, t_lo: float, t_hi: float) -> tuple[int, int]:
    """Smallest l-range (l_lo, l_hi) whose kernels Theta_i(W t - rho l)
    reach every t in [t_lo, t_hi]; raises ArgumentError unless 0 < W < inf
    and the window has finite ends t_lo <= t_hi whose reach W t is finite."""
    _check_range("dilation W", W, 0, open_lo=True)
    got = f"t_lo={_show(t_lo)}, t_hi={_show(t_hi)} (W={W!r})"
    for end in (t_lo, t_hi):  # before t_hi - t_lo: 1.0 - 10**400 raises OverflowError
        _check_range("finite ends", end, -math.inf, got=got)
    _check_range("finite ends with a width t_hi - t_lo", t_hi - t_lo, 0, got=got)
    lo, hi = theta_support(table)
    rho = table.kappa.rho
    l_lo, l_hi = (W * t_lo - hi) / rho, (W * t_hi - lo) / rho
    # finite ends whose reach W t overflows give an infinite or NaN span
    _check_range("finite ends with a reach l_hi - l_lo", l_hi - l_lo, 0, got=got)
    return math.floor(l_lo), math.ceil(l_hi)


def theta_eval(table: KernelTable, i: int, t, deriv: int = 0):
    """Evaluate Theta_i (or a derivative) at t."""
    kappa = table.kappa
    _check_range("channel i", i, 0, kappa.rho - 1, integer=True)
    c, k0 = _theta_series(table)
    return bspline_series(kappa.m, deriv, c[i], k0, t)


def _theta_series(table: KernelTable) -> tuple[np.ndarray, int]:
    """(c, k0) with Theta_i(t) = sum_n c[i, n] Q_m(t - k0 - n): row i holds
    the coefficients c^{ji}(v) interleaved, so that c[i, n] sits at knot
    rho v + j = k0 + n."""
    rho = table.kappa.rho
    return table.coeffs.transpose(1, 2, 0).reshape(rho, -1), -rho * table.radius


@dataclass(frozen=True)
class ReproducingReport:
    kappa: Kappa
    order: int
    residuals: tuple[float, ...]  # per polynomial degree 0.._REPRODUCING_MAX
    tol: float


# reproducing_order checks the polynomial degrees up to this one, each
# against this relative tolerance.
_REPRODUCING_MAX = 6
_REPRODUCING_TOL = 1e-8


def reproducing_order(table: KernelTable) -> ReproducingReport:
    """Largest r <= _REPRODUCING_MAX such that sum_i C(n,i) i! sum_l
    (a+rho l-t)^{n-i} Theta_i(t-rho l) = delta_{n0} holds to
    _REPRODUCING_TOL for all n <= r, checked on a 64-point grid over one
    period [0, rho), with every l whose kernels reach it; -1 if degree 0
    fails.

    residuals[n] is relative: max_t |sum - delta_{n0}| over max_t of the same
    sum of |terms|.  The terms grow with the kernel radius and with n, and
    so does their roundoff, which an absolute tol would read as failure.
    The powers (a + rho l - t)^e are repeated products (_int_power).
    """
    kappa = table.kappa
    rho, a = kappa.rho, float(kappa.a)
    ts = np.arange(64) / 64 * rho
    l_lo, l_hi = _l_range(table, 1.0, 0.0, rho)
    ls = np.arange(l_lo, l_hi + 1)[:, None]
    theta = [theta_eval(table, i, ts - rho * ls) for i in range(rho)]  # (l, t) each
    dist = a + rho * ls - ts
    powers = [_int_power(dist, e) for e in range(_REPRODUCING_MAX + 1)]
    residuals = []
    for n in range(_REPRODUCING_MAX + 1):
        terms = np.stack([
            math.comb(n, i) * math.factorial(i) * powers[n - i] * theta[i]
            for i in range(min(n, rho - 1) + 1)
        ])
        acc = terms.sum(axis=(0, 1)) - (1.0 if n == 0 else 0.0)
        scale = np.abs(terms).sum(axis=(0, 1))
        residuals.append(float(np.max(np.abs(acc)) / np.max(scale)))
    order = -1
    for n, res in enumerate(residuals):
        if res <= _REPRODUCING_TOL:
            order = n
        else:
            break
    return ReproducingReport(kappa, order, tuple(residuals), _REPRODUCING_TOL)


def moment_check_fourier(table: KernelTable, n: int, l: int) -> complex:
    """Residual of the degree-n moment condition in Fourier form at frequency
    xi = l/rho: e^{-2 pi i a xi} sum_i C(n,i) i! (2 pi i)^{i-n}
    D^{n-i}[e^{2 pi i a xi} Theta_i^](xi) - rho delta_{l0} delta_{n0}, for any
    degree n >= 0; raises ArgumentError unless n >= 0 and l are integers.

    e^{2 pi i a xi} Theta_i^(xi) = Q_m^(xi) S_i(xi), S_i(xi) = sum_n c[n]
    e^{-2 pi i w_n xi} with the knots measured from the sample shift,
    w_n = k0 + n - a, and the k-th derivative of S_i weights each term by
    (-2 pi i w_n)^k.  Every channel's series has the same knots w_n, so one
    product (c * e) @ vander gives S_i^(k)(xi) for every channel i at once.
    Leibniz and the sum above then take a few dozen numbers, on Python
    complex numbers, where each operation costs less than a numpy call does.
    """
    _check_range("moment degree n", n, 0, integer=True)
    _check_range("lattice frequency l", l, -math.inf, integer=True)
    kappa = table.kappa
    rho, a = kappa.rho, float(kappa.a)
    xi = l / rho
    i_max = min(n, rho - 1)
    q = _q_hat_derivs(kappa.m, n, xi)
    c, k0 = _theta_series(table)
    z = -_TWO_PI_I * (k0 + np.arange(c.shape[1]) - a)  # -2 pi i w_n
    s = ((c[: i_max + 1] * np.exp(z * xi)) @ np.vander(z, n + 1, increasing=True)).tolist()
    acc = 0j
    for i in range(i_max + 1):
        k = n - i
        leibniz = sum(math.comb(k, j) * q[j] * s[i][k - j] for j in range(k + 1))
        acc += math.comb(n, i) * math.factorial(i) * _TWO_PI_I ** -k * leibniz
    return acc * cmath.exp(-_TWO_PI_I * a * xi) - (rho if n == 0 and l == 0 else 0)
