"""Reconstruction kernels Theta_i for derivative sampling.

The inverse symbol Psi^{-1} has Fourier coefficients c^{ji}(v) decaying
geometrically; the kernels are the finite-bandwidth combinations

    Theta_i(t) = sum_v sum_j c^{ji}(v) Q_m(t - rho v - j).

Coefficients are extracted by FFT from matrix inverses on the full grid
z = exp(2 pi i s / n), 0 <= s < n, of the circle (`circle_values`), with n
doubled until aliasing sits below the requested tolerance.
The symbol has rational coefficients, so Psi^{-1}(conj z) = conj Psi^{-1}(z)
and every c^{ji}(v) is real: the table stores the real part, after checking
once that the imaginary part dropped is below 1e-10 + tail_bound.  Each
Theta_i is then one B-spline series with coefficient c^{ji}(v) at knot
rho v + j.
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
from fractions import Fraction

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
        if abs(v) > self.radius:
            return 0.0
        return float(self.coeffs[j, i, self.radius + v])

    def to_csv(self, path=None) -> str:
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
        text = "\n".join(lines) + "\n"
        if path is not None:
            with open(path, "w", newline="") as fh:
                fh.write(text)
        return text

    @staticmethod
    def from_csv(path) -> "KernelTable":
        with open(path) as fh:
            line = fh.readline()
            if not line.startswith("# derivsamp v1,"):
                raise ValueError(f"not a derivsamp kernel file: {path}")
            # tolerate extra leading comment lines (CLI dumps prepend a config
            # header); the metadata line is the one carrying the radius
            meta = None
            while line.startswith("#"):
                if line.startswith("# derivsamp v1,"):
                    fields = dict(
                        kv.split("=", 1)
                        for kv in line.strip()[2:].split(",")[1:]
                        if "=" in kv
                    )
                    if "radius" in fields:
                        meta = fields
                line = fh.readline()
            if meta is None:
                raise ValueError(f"{path}: missing kernel metadata header")
            cols = line.strip()
            if cols != "j,i,v,re,im":
                raise ValueError(f"unexpected column header {cols!r}")
            kappa = Kappa(int(meta["m"]), Fraction(meta["a"]), int(meta["rho"]))
            radius = int(meta["radius"])
            tail_bound = float(meta["tail_bound"])
            coeffs = np.zeros((kappa.rho, kappa.rho, 2 * radius + 1))
            for line in fh:
                j, i, v, re, im = line.strip().split(",")
                if abs(float(im)) > 1e-10 + tail_bound:
                    raise ValueError(f"{path}: coefficient ({j},{i},{v}) is not real: im={im}")
                coeffs[int(j), int(i), radius + int(v)] = float(re)
        return KernelTable(kappa, radius, coeffs, tail_bound)


def inv_symbol_coeffs(
    kappa: Kappa,
    tol: float = 1e-12,
    min_radius: int | None = None,
) -> KernelTable:
    """Fourier coefficients of the inverse symbol, |coeff| resolved to tol.

    Raises NotCISError if kappa is not certified CIS (the inverse symbol
    would be unbounded), and ArithmeticError if grid refinement fails to
    converge or the imaginary part dropped from the real table exceeds
    1e-10 + tail_bound.
    """
    report = check_cis(kappa)
    if not report.is_cis:
        raise NotCISError(kappa)
    sym = report.symbol
    rho = kappa.rho

    n = 128
    prev_slice = None
    while True:
        inv = np.linalg.inv(circle_values(sym.entries, n))  # (n, rho, rho), entry [s, j, i]
        spec = np.fft.fft(inv, axis=0) / n  # index v mod n
        mags = np.max(np.abs(spec), axis=(1, 2))
        nyquist = float(mags[n // 2 - 2 : n // 2 + 3].max())
        probe = min(32, n // 4)
        cur_slice = np.stack([spec[v % n] for v in range(-probe, probe + 1)])
        agree = (
            prev_slice is not None
            and prev_slice.shape == cur_slice.shape
            and float(np.max(np.abs(cur_slice - prev_slice))) < tol
        )
        if nyquist < tol and agree:
            break
        prev_slice = cur_slice
        if n >= 8192:
            raise ArithmeticError(
                f"inverse-symbol coefficients did not converge for {kappa} "
                f"(nyquist magnitude {nyquist:.3e} at n={n})"
            )
        n *= 2

    def mag(v: int) -> float:
        return float(mags[v % n])

    adaptive = 1
    for v in range(1, n // 3):
        if mag(v) >= tol or mag(-v) >= tol:
            adaptive = v
    radius = max(adaptive, min_radius or 1)

    def tail_estimate(v0: int) -> float:
        peak = max(mag(v0), mag(-v0))
        back = max(mag(v0 - 3), mag(-(v0 - 3)), 1e-300)
        ratio = (max(peak, 1e-300) / back) ** (1.0 / 3.0)
        ratio = min(max(ratio, 1e-3), 0.95)
        return 10.0 * rho * peak * ratio / (1.0 - ratio)

    while radius < n // 3 and tail_estimate(radius) >= tol and max(mag(radius), mag(-radius)) > 0:
        radius += 2
    tail_bound = tail_estimate(radius)

    stacked = np.stack([spec[v % n] for v in range(-radius, radius + 1)])  # (2V+1, j, i)
    residue = float(np.max(np.abs(stacked.imag)))
    if residue > 1e-10 + tail_bound:
        raise ArithmeticError(
            f"inverse-symbol coefficients of {kappa} not real: imaginary residue {residue:.3e}"
        )
    coeffs = np.transpose(stacked.real, (1, 2, 0)).copy()
    return KernelTable(kappa, radius, coeffs, tail_bound)


def theta_support(table: KernelTable) -> tuple[float, float]:
    """Interval outside of which every Theta_i vanishes."""
    rho, m = table.kappa.rho, table.kappa.m
    return (-rho * table.radius, rho * table.radius + rho - 1 + m)


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
    residuals: tuple[float, ...]  # per polynomial degree 0..r_max
    tol: float


def _kernel_l_range(table: KernelTable) -> range:
    rho, m = table.kappa.rho, table.kappa.m
    lo, hi = theta_support(table)
    # t in [0, rho): Theta_i(t - rho l) != 0 needs t - rho l in [lo, hi]
    return range(math.floor(-hi / rho) - 1, math.ceil((rho - lo) / rho) + 1)


def reproducing_order(table: KernelTable, r_max: int = 6, tol: float = 1e-8) -> ReproducingReport:
    """Largest r such that sum_i C(n,i) i! sum_l (a+rho l-t)^{n-i}
    Theta_i(t-rho l) = delta_{n0} holds to tol for all n <= r, checked on a
    64-point grid over one period [0, rho).

    residuals[n] is relative: max_t |sum - delta_{n0}| over max_t of the same
    sum of |terms|.  The terms grow with the kernel radius and with n, and
    so does their roundoff, which an absolute tol would read as failure.
    """
    kappa = table.kappa
    rho, a = kappa.rho, float(kappa.a)
    ts = np.arange(64) / 64 * rho
    ls = np.array(_kernel_l_range(table))[:, None]
    theta = [theta_eval(table, i, ts - rho * ls) for i in range(rho)]  # (l, t) each
    dist = a + rho * ls - ts
    residuals = []
    for n in range(r_max + 1):
        terms = np.stack([
            math.comb(n, i) * math.factorial(i) * dist ** (n - i) * theta[i]
            for i in range(min(n, rho - 1) + 1)
        ])
        acc = terms.sum(axis=(0, 1)) - (1.0 if n == 0 else 0.0)
        scale = np.abs(terms).sum(axis=(0, 1))
        residuals.append(float(np.max(np.abs(acc)) / np.max(scale)))
    order = -1
    for n, res in enumerate(residuals):
        if res <= tol:
            order = n
        else:
            break
    return ReproducingReport(kappa, order, tuple(residuals), tol)


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
