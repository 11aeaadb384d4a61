"""Reference computations for the benchmark's checks, written apart from derivsamp.

Nothing here imports derivsamp.  B-spline values come from the truncated-power
form, expanded exactly over the rationals into one polynomial piece per knot
interval and evaluated in float by Horner's rule; derivsamp evaluates B-splines
by the Cox-de Boor recurrence and by a separate exact routine.  The symbol
matrix, its determinant, its inverse and the frame constants are built from
these values with plain numpy.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction

import numpy as np


def _binom_poly(shift: int, power: int) -> list[Fraction]:
    """Coefficients of (u + shift)^power in u, lowest degree first."""
    return [Fraction(math.comb(power, d) * shift ** (power - d)) for d in range(power + 1)]


def _derivative(poly: list, k: int) -> list:
    """Coefficients of the k-th derivative, lowest degree first."""
    for _ in range(k):
        poly = [d * poly[d] for d in range(1, len(poly))]
    return poly


class BSpline:
    """Q_m, the B-spline of order m with knots 0, 1, ..., m, and its derivatives.

    On [s, s+1] the truncated-power sum
    Q_m(x) = sum_{j<=s} (-1)^j C(m, j) (x - j)^(m-1) / (m-1)!
    is a polynomial in u = x - s; its coefficients are kept exactly and once in
    float, one row per interval.
    """

    def __init__(self, m: int):
        self.m = m
        deg = m - 1
        self.exact = []
        for s in range(m):
            acc = [Fraction(0)] * (deg + 1)
            for j in range(s + 1):
                sign = (-1) ** j * math.comb(m, j)
                for d, c in enumerate(_binom_poly(s - j, deg)):
                    acc[d] += sign * c
            self.exact.append([c / math.factorial(deg) for c in acc])
        self._float = {}

    def _pieces(self, k: int) -> np.ndarray:
        """Float coefficients of the k-th derivative, shape (m, m - k)."""
        if k not in self._float:
            self._float[k] = np.array([[float(c) for c in _derivative(poly, k)] for poly in self.exact])
        return self._float[k]

    def value_exact(self, k: int, x: Fraction) -> Fraction:
        """k-th derivative at a rational point (k <= m - 2, where it is continuous)."""
        x = Fraction(x)
        if x <= 0 or x >= self.m:
            return Fraction(0)
        s = math.floor(x)
        u = x - s
        return sum(c * u**d for d, c in enumerate(_derivative(self.exact[s], k)))

    def __call__(self, k: int, x) -> np.ndarray:
        """k-th derivative at float points x (any shape); 0 outside (0, m)."""
        x = np.asarray(x, dtype=float)
        pieces = self._pieces(k)
        s = np.floor(x)
        inside = (x >= 0.0) & (x < self.m)
        idx = np.where(inside, s, 0).astype(int)
        u = x - s
        out = np.zeros(x.shape)
        for d in range(pieces.shape[1] - 1, -1, -1):
            out = out * u + pieces[idx, d]
        return np.where(inside, out, 0.0)


@functools.lru_cache(maxsize=None)
def bspline(m: int) -> BSpline:
    return BSpline(m)


def spline_series(m: int, k: int, coeffs, knots, x) -> np.ndarray:
    """k-th derivative of sum_n coeffs[n] Q_m(x - knots[n]) at x."""
    q = bspline(m)
    x = np.asarray(x, dtype=float)
    order = np.argsort(knots)
    knots = np.asarray(knots, dtype=float)[order]
    coeffs = np.asarray(coeffs, dtype=float)[order]
    out = np.zeros(x.shape)
    # Only the knots with x - knot in (0, m) contribute.
    lo = np.searchsorted(knots, x - q.m, side="left")
    hi = np.searchsorted(knots, x, side="right")
    width = int(np.max(hi - lo)) if x.size else 0
    for r in range(width):
        n = lo + r
        ok = n < hi
        nn = np.where(ok, n, 0)
        out += np.where(ok, coeffs[nn] * q(k, x - knots[nn]), 0.0)
    return out


# --- symbol of a configuration ---------------------------------------------


class Symbol:
    """Psi^{ij}(z) = sum_k Q_m^{(i)}(a + rho k - j) z^k for kappa = (Q_m, a, rho)."""

    def __init__(self, m: int, a: Fraction, rho: int):
        self.m, self.a, self.rho = m, Fraction(a), rho
        q = bspline(m)
        self.k_lo = math.floor(-self.a / rho) - 1
        self.k_hi = math.ceil((m + rho - self.a) / rho) + 1
        ks = range(self.k_lo, self.k_hi + 1)
        # coeffs[i, j, k - k_lo]
        self.coeffs = np.array(
            [
                [[float(q.value_exact(i, self.a + rho * k - j)) for k in ks] for j in range(rho)]
                for i in range(rho)
            ]
        )

    def on_circle(self, n: int) -> np.ndarray:
        """Psi at z = exp(2 pi i t), t = 0, 1/n, ..., (n-1)/n; shape (n, rho, rho)."""
        ts = np.arange(n) / n
        z = np.exp(2j * math.pi * ts)
        powers = z[:, None] ** np.arange(self.k_lo, self.k_hi + 1)[None, :]
        return np.einsum("ijk,tk->tij", self.coeffs, powers)

    def det_root_margin(self) -> float:
        """min | |zeta| - 1 | over the zeros zeta of det Psi; 0 if det Psi == 0."""
        span = self.rho * (self.k_hi - self.k_lo)
        n = 1 << (span + 1).bit_length()
        dets = np.linalg.det(self.on_circle(n))
        # det Psi(z) z^(-rho k_lo) is an ordinary polynomial of degree <= span.
        ts = np.arange(n) / n
        poly = np.fft.fft(dets * np.exp(-2j * math.pi * self.rho * self.k_lo * ts)) / n
        c = poly.real[: span + 1]
        scale = np.max(np.abs(self.coeffs)) ** self.rho
        nz = np.nonzero(np.abs(c) > 1e-13 * scale)[0]
        if len(nz) == 0:
            return 0.0
        c = c[nz[0] : nz[-1] + 1]
        if len(c) == 1:
            return math.inf
        roots = np.roots(c[::-1])
        return float(np.min(np.abs(np.abs(roots) - 1.0)))

    def extreme_eigs(self, n: int = 1024) -> tuple[float, float]:
        """(min, max) over t = j/n of the eigenvalues of Psi* Psi."""
        psi = self.on_circle(n)
        lam = np.linalg.eigvalsh(np.matmul(psi.conj().transpose(0, 2, 1), psi))
        return float(lam[:, 0].min()), float(lam[:, -1].max())


def inverse_residual(sym: Symbol, coeffs: np.ndarray) -> float:
    """max_t |Psi(z) K(z) - I| with K(z)[j, i] = sum_v coeffs[j, i, V + v] z^v."""
    rho = sym.rho
    radius = (coeffs.shape[2] - 1) // 2
    n = 1 << (2 * radius + 1).bit_length()
    n = max(n, 256)
    wrapped = np.zeros((rho, rho, n), dtype=complex)
    for vi, v in enumerate(range(-radius, radius + 1)):
        wrapped[:, :, v % n] += coeffs[:, :, vi]
    kz = np.fft.ifft(wrapped, axis=2) * n  # K at t = j/n
    prod = np.einsum("tij,jlt->til", sym.on_circle(n), kz)
    return float(np.max(np.abs(prod - np.eye(rho))))


def krein_favard(r: int) -> float:
    """K_r = (4/pi) sum_k (-1)^(k(r+1)) / (2k+1)^(r+1), summed directly."""
    k = np.arange(200000, dtype=float)
    terms = (-1.0) ** (k * (r + 1)) / (2.0 * k + 1.0) ** (r + 1)
    return float(4.0 / math.pi * np.sum(terms[::-1]))


def upper_frame(m: int, upper: float) -> float:
    """upper * pi^(2m-1) / (2^(2m-1) K_(2m-1)), the sampling inequality's upper constant."""
    return upper * math.pi ** (2 * m - 1) / (2.0 ** (2 * m - 1) * krein_favard(2 * m - 1))


# --- reference signals -------------------------------------------------------


def f1(t):
    t = np.asarray(t, dtype=float)
    return np.exp(-t * t / 4.0) * np.sin(2.0 * math.pi * t)


def f2(t):
    t = np.asarray(t, dtype=float)
    return np.where(np.abs(t) <= 3.0, np.sin(math.pi * t) ** 2, 0.0)


def f3(t):
    t = np.asarray(t, dtype=float)
    return np.where((t > -1.5) & (t < 3.0), -0.5 * t**3 + 2.0, 0.0)


# Jumps of f3: |f3(-1.5+)| = 3.6875 and |f3(3-)| = 11.5.
F3_JUMPS = (3.6875, 11.5)

REFERENCE = {"f1": f1, "f2": f2, "f3": f3}


def fit_slope(xs, ys) -> float:
    """Least-squares slope of log(ys) against log(xs)."""
    return float(np.polyfit(np.log(np.asarray(xs, float)), np.log(np.asarray(ys, float)), 1)[0])
