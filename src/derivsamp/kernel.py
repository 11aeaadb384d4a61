"""Reconstruction kernels Theta_i for derivative sampling.

The inverse symbol Psi^{-1} has Fourier coefficients c^{ji}(v) decaying
geometrically; the kernels are the finite-bandwidth combinations

    Theta_i(t) = sum_v sum_j c^{ji}(v) Q_m(t - rho v - j).

The symbol has rational coefficients, so Psi^{-1}(conj z) = conj Psi^{-1}(z)
and every c^{ji}(v) is real.  Coefficients are extracted by one inverse
real FFT from matrix inverses on the half grid z = exp(2 pi i s / n),
0 <= s <= n/2, of the circle (`circle_values`), which determines the rest,
so the table is real by construction; n is doubled until the coefficients
that halving the grid would alias onto the kept ones sit below the
requested tolerance.  Each Theta_i is then one B-spline series with
coefficient c^{ji}(v) at knot rho v + j.
The kernels reproduce polynomials up to the configuration's order; both the
time-domain and Fourier-domain (Strang-Fix) forms of that moment condition
are provided.  The Fourier form holds for every degree: it reads derivatives
of any order of Theta_i^ = Q_m^ S, S the exponential sum of the series
coefficients, by Leibniz from `fourier_q_derivs`.  `reproducing_order`
decides the order in the time domain.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bspline import bspline_series, fourier_q_derivs
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

_TWO_PI_I = 2j * math.pi


@dataclass(frozen=True)
class KernelTable:
    """Fourier coefficients of Psi^{-1}: coeffs[j, i, V + v] = c^{ji}(v),
    |v| <= V; tail_bound bounds the discarded coefficient mass."""

    kappa: Kappa
    radius: int
    coeffs: np.ndarray  # float64, shape (rho, rho, 2*radius + 1)
    tail_bound: float

    def coeff(self, j: int, i: int, v: int) -> float:
        """c^{ji}(v): 0.0 past the radius; raises ValueError unless j and i
        are in [0, rho)."""
        rho = self.kappa.rho
        if not (0 <= j < rho and 0 <= i < rho):
            raise ValueError(f"index (j, i) = ({j}, {i}) out of range for rho={rho}")
        if abs(v) > self.radius:
            return 0.0
        return float(self.coeffs[j, i, self.radius + v])

    def to_csv(self) -> str:
        k = self.kappa
        lines = [
            f"# derivsamp v1,a={k.a},m={k.m},radius={self.radius},"
            f"rho={k.rho},tail_bound={self.tail_bound!r}",
            "j,i,v,re,im",
        ]
        for j in range(k.rho):
            for i in range(k.rho):
                for v in range(-self.radius, self.radius + 1):
                    lines.append(f"{j},{i},{v},{self.coeff(j, i, v)!r},0.0")
        return "\n".join(lines) + "\n"


def inv_symbol_coeffs(kappa: Kappa, tol: float = 1e-12) -> KernelTable:
    """Fourier coefficients of the inverse symbol, |coeff| resolved to tol.

    One grid of n points, n = 256 doubled up to 8192 until the coefficients
    within 32 of the Nyquist index n/2 are below tol.  They are what a grid
    of n/2 points, c_{n/2}(v) = c_n(v) + c_n(v + n/2), would alias onto
    |v| <= 32.  Psi is inverted on the n/2 + 1 points s <= n/2 only, and
    np.fft.irfft of the conjugated inverses gives the real c(v) of the
    whole grid.

    Raises NotCISError if kappa is not certified CIS (the inverse symbol
    would be unbounded), and ArithmeticError if n = 8192 does not converge.
    """
    report = check_cis(kappa)
    if not report.is_cis:
        raise NotCISError(kappa)
    rho, entries = kappa.rho, report.symbol.entries

    n = 256
    while True:
        inv = np.linalg.inv(circle_values(entries, n))  # (n//2 + 1, rho, rho), entry [s, j, i]
        # c(v) = (1/n) sum_s inv_s z_s^-v over the whole grid, which is real
        # and, inv on s > n/2 being the conjugate, the irfft of conj(inv)
        spec = np.fft.irfft(inv.conj(), n, axis=0)  # index v mod n
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
    reach every t in [t_lo, t_hi]; raises ValueError unless 0 < W < inf."""
    if not 0 < W < math.inf:
        raise ValueError(f"dilation W must be positive and finite, got W={W!r}")
    lo, hi = theta_support(table)
    rho = table.kappa.rho
    return math.floor((W * t_lo - hi) / rho), math.ceil((W * t_hi - lo) / rho)


def theta_eval(table: KernelTable, i: int, t, deriv: int = 0):
    """Evaluate Theta_i (or a derivative) at t."""
    kappa = table.kappa
    if not 0 <= i < kappa.rho:
        raise ValueError(f"channel {i} out of range for rho={kappa.rho}")
    return bspline_series(kappa.m, deriv, *_theta_series(table, i), t)


def _theta_series(table: KernelTable, i: int) -> tuple[np.ndarray, int]:
    """(c, k0) with Theta_i(t) = sum_n c[n] Q_m(t - k0 - n): the coefficients
    c^{ji}(v) interleaved, so that c[n] sits at knot rho v + j = k0 + n."""
    return table.coeffs[:, i, :].T.ravel(), -table.kappa.rho * table.radius


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
    """
    kappa = table.kappa
    rho, a = kappa.rho, float(kappa.a)
    ts = np.arange(64) / 64 * rho
    l_lo, l_hi = _l_range(table, 1.0, 0.0, rho)
    ls = np.arange(l_lo, l_hi + 1)[:, None]
    theta = [theta_eval(table, i, ts - rho * ls) for i in range(rho)]  # (l, t) each
    dist = a + rho * ls - ts
    residuals = []
    for n in range(_REPRODUCING_MAX + 1):
        terms = np.stack([
            math.comb(n, i) * math.factorial(i) * dist ** (n - i) * theta[i]
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


def _theta_hat_derivs(table: KernelTable, i: int, q: np.ndarray, xi: float) -> list[complex]:
    """Theta_i^ and its first d derivatives at xi, given q = [Q_m^, ...,
    Q_m^(d)] at xi: Leibniz on the expansion Theta_i^(xi) = Q_m^(xi) S(xi),
    S(xi) = sum_n c[n] e^{-2 pi i w_n xi}, w_n = k0 + n, whose k-th
    derivative weights each term by (-2 pi i w_n)^k."""
    c, k0 = _theta_series(table, i)
    z = -_TWO_PI_I * (k0 + np.arange(len(c)))  # -2 pi i w_n
    s = (c * np.exp(z * xi)) @ np.vander(z, len(q), increasing=True)  # S^(k)
    return [
        complex(sum(math.comb(k, j) * q[j] * s[k - j] for j in range(k + 1)))
        for k in range(len(q))
    ]


def moment_check_fourier(table: KernelTable, n: int, l: int) -> complex:
    """Residual of the degree-n moment condition in Fourier form at frequency
    l/rho: sum_i C(n,i) i! sum_u C(n-i,u) a^u (2 pi i)^{u+i-n}
    Theta_i^[(n-i-u)](l/rho) - rho delta_{l0} delta_{n0}, for any degree
    n >= 0."""
    if not isinstance(n, (int, np.integer)) or n < 0:
        raise ValueError(f"moment degree must be a nonnegative integer, got {n!r}")
    kappa = table.kappa
    rho, a = kappa.rho, float(kappa.a)
    xi = l / rho
    q = fourier_q_derivs(kappa.m, n, xi)
    acc = 0j
    for i in range(min(n, rho - 1) + 1):
        theta = _theta_hat_derivs(table, i, q[: n - i + 1], xi)
        for u in range(n - i + 1):
            acc += (
                math.comb(n, i)
                * math.factorial(i)
                * math.comb(n - i, u)
                * a ** u
                * _TWO_PI_I ** (u + i - n)
                * theta[n - i - u]
            )
    if n == 0 and l == 0:
        acc -= rho
    return acc
