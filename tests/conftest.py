"""Shared fixtures, oracles and checks: kernel tables are comparatively
expensive to build, so the three worked configurations are session-scoped;
exact B-spline values and the pp-form pieces come from the truncated-power
formula, independent of the library's Cox-de Boor triangle; spline norms
have a Gauss-Legendre reference, independent of the library's Gram matrix;
the unit-circle verdict
has a Fraction reference, independent of the library's integer
pseudo-remainders; the pp-form series evaluator has a per-piece Horner
reference; the symbol's frame extremes and the certificate's minimum
modulus have full-circle references (pointwise `eval_unit` and `polyval`),
independent of the library's half-circle FFT evaluator; the derivatives of
Q_m^ at 0 have exact Fraction moments of Q_m as reference, independent of
the library's Taylor series; the lattice search of the local modulus has a
one-pass-per-k reference, independent of the library's single-pass r = 1
identity and reused buffers; the inverse-symbol table has the two-grid
reference that compares each grid with the one before it, against the
library's alias band on one grid; the exact layer has the Fraction
reference it replaced (`FracPoly`, with the ring arithmetic the library no
longer carries, and `fraction_path`), against the library's integer
numerators over one denominator per row; the Fourier-domain moment
residual has a knot-by-knot, channel-by-channel reference, against the
library's one product over the interleaved rows of every channel.  Kernel
tables are read back from CSV by `kernel_table_from_csv`.  Point evaluations of Laurent polynomials, the
local modulus at one x, the time-domain moment residual, random spline
elements, the Fourier transform of Q_m, single finite differences, the
maximal-density determinant check, one-coefficient B-spline series, the
symbol determinant and the exact combinatorial identities behind the
maximal-density case are test helpers here, built on the library's public
API."""

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
import pytest

from derivsamp import kernel, sampler
from derivsamp.bspline import _pieces, _q_hat_derivs, _triangle, _zigzag, bspline_series
from derivsamp.kernel import KernelTable, inv_symbol_coeffs, theta_eval, theta_support
from derivsamp.laurent import (
    CircleCertificate,
    LaurentPoly,
    circle_values,
    laurent_det,
)
from derivsamp.sampler import SplineElement
from derivsamp.smoothness import _check_search, _moduli_batch, tau_modulus
from derivsamp.symbol import CisReport, Kappa, NotCISError, build_symbol, check_cis

KAPPA_Q3 = Kappa(3, 0, 2)
KAPPA_Q4 = Kappa(4, 0, 3)
KAPPA_Q4H = Kappa(4, Fraction(1, 2), 2)


def eval_q_exact(m: int, t) -> Fraction:
    """Q_m(t) by the truncated-power formula, exact rational arithmetic."""
    t = Fraction(t)
    if t < 0 or t >= m:
        return Fraction(0)
    acc = Fraction(0)
    for j in range(m + 1):
        x = t - j
        # 0^0 = 1 here: the m = 1 box is right-continuous at its knots
        if x > 0 or (x == 0 and m == 1):
            acc += (-1) ** j * math.comb(m, j) * x ** (m - 1)
    return acc / math.factorial(m - 1)


def eval_q_deriv_exact(m: int, k: int, t) -> Fraction:
    """Q_m^(k)(t) = sum_r (-1)^r C(k,r) Q_{m-k}(t-r), exact (k <= m-2)."""
    t = Fraction(t)
    return sum(
        ((-1) ** r * math.comb(k, r) * eval_q_exact(m - k, t - r) for r in range(k + 1)),
        Fraction(0),
    )


def pieces_reference(m: int, deriv: int) -> np.ndarray:
    """The library's `_pieces` from the truncated-power form
    Q_m^(d)(t) = sum_j (-1)^j C(m,j) (t-j)_+^e / e!, e = m-1-d, expanded
    exactly over Fraction and rounded once, independent of the Cox-de Boor
    triangle."""
    e = m - 1 - deriv
    rows = []
    for p in range(m):
        row = [Fraction(0)] * (e + 1)
        for j in range(p + 1):
            w = (-1) ** j * math.comb(m, j)
            for k in range(e + 1):
                row[k] += w * math.comb(e, k) * Fraction(p - j) ** (e - k)
        rows.append([float(c / math.factorial(e)) for c in row])
    return np.array(rows)


def bspline_series_pieces(m: int, deriv: int, coeffs, k0: int, x) -> np.ndarray:
    """sum_n coeffs[n] Q_m^(deriv)(x - k0 - n) by the per-piece Horner loop:
    the point x meets the m translates with n = floor(x) - k0 - p, one per
    piece p, and each piece is one Horner pass over the array."""
    arr = np.asarray(x, dtype=float)
    pieces = _pieces(m, deriv)
    # zero-padded so that every out-of-range index clips onto a zero
    padded = np.concatenate(([0.0], np.asarray(coeffs, dtype=float), [0.0]))
    base = np.floor(arr)
    u = arr - base
    first = base.astype(np.int64) - (int(k0) - 1)
    out = np.zeros(arr.shape)
    for p, poly in enumerate(pieces):
        val = np.full(arr.shape, poly[-1])
        for c in poly[-2::-1]:
            val *= u
            val += c
        out += padded.take(first - p, mode="clip") * val
    return out


def eval_q(m: int, t):
    """Evaluate Q_m at t (scalar or ndarray).

    Right-continuous at knots for m=1 (indicator of [0,1)); continuous for m>=2.
    """
    return bspline_series(m, 0, (1.0,), 0, t)


def eval_q_deriv(m: int, k: int, t):
    """k-th derivative of Q_m at t, for k <= m-2."""
    return bspline_series(m, k, (1.0,), 0, t)


def det_symbol(kappa: Kappa) -> LaurentPoly:
    """Exact determinant of the symbol matrix of kappa."""
    return laurent_det(build_symbol(kappa))


def fourier_q(m: int, xi: float) -> complex:
    """Fourier transform of Q_m at xi, the derivative of order 0."""
    return _q_hat_derivs(m, 0, xi)[0]


def uniform_sum_moments(m: int, k_max: int) -> list[Fraction]:
    """E[(U_1 + ... + U_m)^k] for k <= k_max, U_j independent uniform on
    [0, 1) (the density of the sum is Q_m), exact: binomial convolution of
    E[U^j] = 1/(j+1), one factor at a time."""
    unif = [Fraction(1, j + 1) for j in range(k_max + 1)]
    mom = [Fraction(1)] + [Fraction(0)] * k_max
    for _ in range(m):
        mom = [
            sum(math.comb(k, j) * mom[j] * unif[k - j] for j in range(k + 1))
            for k in range(k_max + 1)
        ]
    return mom


def finite_diff(f, r: int, h: float, t: float) -> float:
    """Forward difference sum_{j=0}^r (-1)^{r-j} C(r,j) f(t + j h)."""
    if r < 1:
        raise ValueError("difference order must be >= 1")
    vals = np.asarray(f(t + h * np.arange(r + 1)), dtype=float)
    if np.any(~np.isfinite(vals)):
        raise ValueError(f"f undefined at a difference node near t={t}")
    signs = np.array([(-1.0) ** (r - j) * math.comb(r, j) for j in range(r + 1)])
    return float(np.dot(signs, vals))


def pascal_det_check(m: int) -> bool:
    """For kappa = (Q_m, 0, m-1) the k=1 Fourier coefficient matrix
    A[i][j] = Q_m^{(i)}(m-1-j) = sum_r (-1)^r C(i,r) Q_{m-i}(m-1-j-r) must
    have determinant 1."""
    if m < 2:
        raise ValueError("need m >= 2")
    nums, dens = _triangle(m, 0, 1, m - 2)
    mat = [[LaurentPoly.make(0, [row[m - 1 - j]], den) for j in range(m - 1)]
           for row, den in zip(nums, dens)]
    return laurent_det(mat) == LaurentPoly(0, (1,))


def _binom(mu: int, j: int) -> int:
    """C(mu, j), taken as 0 for j > mu >= 0, mu < 0 or j < 0."""
    if mu < 0 or j < 0 or j > mu:
        return 0
    return math.comb(mu, j)


def ruiz_sum(n: int, l: int, t) -> Fraction:
    """sum_r (-1)^r C(n,r) (t-r)^l; equals 0 for l < n and n! for l = n."""
    t = Fraction(t)
    return sum((-1) ** r * math.comb(n, r) * (t - r) ** l for r in range(n + 1))


def binom_convolution_sum(n: int, l: int, k: int) -> int:
    """sum_r (-1)^r C(n,r) C(k-r,l) with C(mu,j) = 0 for j > mu >= 0 or mu < 0;
    equals 0 for l < n and 1 for l = n, provided k >= n."""
    return sum((-1) ** r * math.comb(n, r) * _binom(k - r, l) for r in range(n + 1))


def spline_pascal_sum(m: int, i: int, l: int) -> Fraction:
    """sum_j C(j,l) sum_r (-1)^r C(i,r) Q_{m-i}(m-1-j-r) over j = 0..m-2,
    the inner sum being Q_m^{(i)}(m-1-j); equals 0 for l < i and 1 for l = i."""
    nums, dens = _triangle(m, 0, 1, i)
    return Fraction(sum(_binom(j, l) * nums[i][m - 1 - j] for j in range(m - 1)), dens[i])


def check_identity_lemmas(n_max: int = 12, m_max: int = 10, seed: int = 7) -> bool:
    """Exact verification of the three combinatorial identities over the
    stated ranges (random rational t for the first)."""
    rng = np.random.default_rng(seed)
    for n in range(n_max + 1):
        for l in range(n + 1):
            t = Fraction(int(rng.integers(-50, 50)), int(rng.integers(1, 20)))
            v = ruiz_sum(n, l, t)
            if l < n and v != 0:
                return False
            if l == n and v != math.factorial(n):
                return False
    for n in range(n_max + 1):
        for k in range(n, n_max + 3):
            for l in range(n + 1):
                v = binom_convolution_sum(n, l, k)
                if l < n and v != 0:
                    return False
                if l == n and v != 1:
                    return False
    for m in range(2, m_max + 1):
        for i in range(m - 1):
            for l in range(i + 1):
                v = spline_pascal_sum(m, i, l)
                if l < i and v != 0:
                    return False
                if l == i and v != 1:
                    return False
    return True


def l2_norm_gram(f: SplineElement) -> float:
    """L2 norm sqrt(c^T G c) on the library's B-spline Gram matrix G."""
    c = f.coeffs
    return math.sqrt(float(c @ sampler._gram(f.m, len(c)) @ c))


def l2_norm_quadrature(f: SplineElement) -> float:
    """L2 norm by per-knot-interval Gauss-Legendre with m nodes (the
    integrand is piecewise polynomial of degree 2m-2, so this is exact up to
    rounding)."""
    xs, ws = np.polynomial.legendre.leggauss(f.m)
    lo, hi = f.support_hint
    acc = 0.0
    for j in range(int(lo), int(math.ceil(hi))):
        tt = j + (xs + 1.0) / 2.0
        acc += float(np.sum(ws / 2.0 * f.eval(0, tt) ** 2))
    return math.sqrt(acc)


def random_spline(m: int, support_len: int, seed: int) -> SplineElement:
    """Deterministic random element of the integer-shift spline space."""
    rng = np.random.default_rng(seed)
    return SplineElement(m, 0, rng.uniform(-1.0, 1.0, support_len))


def eval_complex(p, z: complex) -> complex:
    """Value of the LaurentPoly p at a complex z."""
    acc = 0j
    for c in reversed(p.coeffs):
        acc = acc * z + c / p.den
    return acc * z ** p.low


def eval_unit(p, t: float) -> complex:
    """Value of the LaurentPoly p at z = exp(2 pi i t)."""
    return eval_complex(p, cmath.exp(2j * math.pi * t))


def frame_extremes_reference(sym, n: int) -> tuple[float, float]:
    """Smallest and largest eigenvalue of Psi* Psi over the full grid
    t = s / n, 0 <= s < n, each entry of Psi(t) from eval_unit."""
    psi = np.array([
        [[eval_unit(p, s / n) for p in row] for row in sym] for s in range(n)
    ])
    lam = np.linalg.eigvalsh(np.matmul(psi.conj().transpose(0, 2, 1), psi))
    return float(lam[:, 0].min()), float(lam[:, -1].max())


def circle_min_modulus_reference(p, n: int = 4096) -> float:
    """Smallest |p| over the full grid z = exp(2 pi i s / n), 0 <= s < n,
    by numpy polyval (|z^low| = 1 drops the Laurent shift)."""
    z = np.exp(2j * math.pi * np.arange(n) / n)
    c = np.asarray([x / p.den for x in p.coeffs])
    return float(np.abs(np.polynomial.polynomial.polyval(z, c)).min())


def eval_exact(p, z) -> Fraction:
    """Exact value of the LaurentPoly p at a rational z (z != 0 when low < 0)."""
    z = Fraction(z)
    return _eval(p.coeffs, z) * z ** p.low / p.den


def local_modulus(f, r: int, x: float, delta: float, search_n: int = 64) -> float:
    """The library's lattice-search estimate of the local modulus at one x."""
    _check_search(r, delta, search_n)
    return float(_moduli_batch(f, r, np.array([float(x)]), float(delta), search_n)[0])


def lattice_moduli_reference(f, signs, offsets, xs, search_n: int) -> np.ndarray:
    """Largest |Delta_{kg}^r f| on the lattice of each window by one pass per
    k: sum_j c_j F[i + j k] left to right in fresh arrays, |.| and a NaN-
    skipping column maximum, folded into a running maximum from 0."""
    r = len(signs) - 1
    last = len(offsets) - 1
    lattice = offsets[:, None] + xs[None, :]
    vals = np.asarray(f(lattice.ravel()), dtype=float).reshape(lattice.shape)
    vals[~np.isfinite(vals)] = np.nan
    out = np.zeros(len(xs))
    for k in range(1, search_n):
        n = last - r * k + 1
        diff = signs[0] * vals[:n]
        for j in range(1, r + 1):
            diff += signs[j] * vals[j * k : j * k + n]
        np.abs(diff, out=diff)
        out = np.fmax(out, np.fmax.reduce(diff, axis=0))
    return out


def inv_symbol_coeffs_reference(kappa: Kappa, tol: float = 1e-12) -> KernelTable:
    """Inverse-symbol table by two grids per step: n doubles from 128 until
    the Nyquist coefficients n/2 +- 2 are below tol and the coefficients
    |v| <= 32 agree with the previous grid's to tol; then the same radius
    search and tail estimate as the library, one coefficient at a time.
    Each grid's coefficients come as the library's do, from inverses on the
    half circle and one irfft, so the tables compare byte for byte."""
    report = check_cis(kappa)
    if not report.is_cis:
        raise NotCISError(kappa)
    sym = report.symbol
    rho = kappa.rho

    n = 128
    prev_slice = None
    while True:
        inv = np.linalg.inv(np.moveaxis(circle_values(sym, n), -1, 0))
        spec = np.fft.irfft(inv, n, axis=0)
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
            raise ArithmeticError(f"no convergence for {kappa} at n={n}")
        n *= 2

    def mag(v: int) -> float:
        return float(mags[v % n])

    radius = 1
    for v in range(1, n // 3):
        if mag(v) >= tol or mag(-v) >= tol:
            radius = v

    def tail_estimate(v0: int) -> float:
        peak = max(mag(v0), mag(-v0))
        back = max(mag(v0 - 3), mag(-(v0 - 3)), 1e-300)
        ratio = (max(peak, 1e-300) / back) ** (1.0 / 3.0)
        ratio = min(max(ratio, 1e-3), 0.95)
        return 10.0 * rho * peak * ratio / (1.0 - ratio)

    while radius < n // 3 and tail_estimate(radius) >= tol and max(mag(radius), mag(-radius)) > 0:
        radius += 2
    tail_bound = tail_estimate(radius)

    stacked = np.stack([spec[v % n] for v in range(-radius, radius + 1)])
    coeffs = np.transpose(stacked, (1, 2, 0)).copy()
    return KernelTable(kappa, radius, coeffs, tail_bound)


def coeff(table: KernelTable, j: int, i: int, v: int) -> float:
    """c^{ji}(v) of a kernel table, 0.0 past its radius."""
    if abs(v) > table.radius:
        return 0.0
    return float(table.coeffs[j, i, table.radius + v])


def moment_check_time(table, n: int, t: float) -> float:
    """Residual of the degree-n time-domain moment condition at t:
    sum_i C(n,i) i! sum_l (a + rho l - t)^{n-i} Theta_i(t - rho l) - delta_{n0}."""
    kappa = table.kappa
    rho, a = kappa.rho, float(kappa.a)
    lo, hi = theta_support(table)
    ls = range(math.floor((t - hi) / rho) - 1, math.ceil((t - lo) / rho) + 2)
    acc = 0.0
    for i in range(min(n, rho - 1) + 1):
        w = math.comb(n, i) * math.factorial(i)
        for l in ls:
            acc += w * (a + rho * l - t) ** (n - i) * theta_eval(table, i, t - rho * l)
    return acc - (1.0 if n == 0 else 0.0)


def moment_check_fourier_reference(table, n: int, l: int) -> complex:
    """Residual of the degree-n Fourier-domain moment condition at l/rho,
    knot by knot and channel by channel on Python complex numbers: S_i^(k)
    sums c^{ji}(v) (-2 pi i w)^k e^{-2 pi i w xi} over the knots w = rho v + j,
    Theta_i^(k) follows by Leibniz with Q_m^ from `_q_hat_derivs`, then
    sum_i C(n,i) i! sum_u C(n-i,u) a^u (2 pi i)^{u+i-n} Theta_i^[(n-i-u)]
    - rho delta_{l0} delta_{n0}; independent of the library's interleaved
    rows and its one product over every channel."""
    kappa = table.kappa
    rho, a, radius = kappa.rho, float(kappa.a), table.radius
    xi = l / rho
    q = _q_hat_derivs(kappa.m, n, xi)
    acc = 0j
    for i in range(min(n, rho - 1) + 1):
        s = [0j] * (n + 1)
        for j in range(rho):
            for v in range(-radius, radius + 1):
                z = -2j * math.pi * (rho * v + j)
                term = float(table.coeffs[j, i, radius + v]) * cmath.exp(z * xi)
                for k in range(n + 1):
                    s[k] += term * z ** k
        theta = [sum(math.comb(k, j) * q[j] * s[k - j] for j in range(k + 1)) for k in range(n + 1)]
        for u in range(n - i + 1):
            acc += (
                math.comb(n, i) * math.factorial(i) * math.comb(n - i, u) * a ** u
                * (2j * math.pi) ** (u + i - n) * theta[n - i - u]
            )
    return acc - (rho if n == 0 and l == 0 else 0)


@pytest.fixture(scope="session")
def table_q3():
    return inv_symbol_coeffs(KAPPA_Q3, tol=1e-12)


@pytest.fixture(scope="session")
def table_q4():
    return inv_symbol_coeffs(KAPPA_Q4, tol=1e-12)


@pytest.fixture(scope="session")
def table_q4h():
    # tol = 1e-13 keeps the slowly decaying coefficients testable to 1e-10
    # out to |v| = 13 (radius 15)
    return inv_symbol_coeffs(KAPPA_Q4H, tol=1e-13)


def tau_scaling_check(
    f, r: int, delta: float, lam: float, p: float,
    domain: tuple[float, float] | None = None,
) -> bool:
    """tau_r(f; lam*delta)_p <= (2(lam+1))^{r+1} tau_r(f; delta)_p, with 5%
    slack absorbing the lattice search's bias on the two sides."""
    if lam <= 0:
        raise ValueError("lambda must be positive")
    if domain is None:
        lo, hi = f.spec.support_hint
        domain = (lo - r * delta * max(1.0, lam), hi + r * delta * max(1.0, lam))
    big = tau_modulus(f, r, lam * delta, p, domain=domain).value
    small = tau_modulus(f, r, delta, p, domain=domain).value
    return big <= (2.0 * (lam + 1.0)) ** (r + 1) * small * 1.05 + 1e-300


def discrete_norm(samples: np.ndarray, grid, p: float) -> float:
    """Weighted sample-sequence norm ((rho/W) sum |s|^p)^{1/p}."""
    if p < 1:
        raise ValueError("p must be >= 1")
    w = grid.kappa.rho / grid.W
    return float((w * np.sum(np.abs(samples) ** p)) ** (1.0 / p))


# ---------------------------------------------------------------------------
# Fraction reference for the unit-circle verdict: gcd with the reversed
# polynomial, x = z + 1/z and a Sturm count, every remainder an exact
# rational remainder.  Polynomials are coefficient lists, constant term first.
# ---------------------------------------------------------------------------


def _eval(p, x: Fraction) -> Fraction:
    """Horner value of the coefficient list p (constant term first) at x."""
    acc = Fraction(0)
    for c in reversed(p):
        acc = acc * x + c
    return acc


def _rem(a: list, b: list) -> list:
    """Remainder of a modulo b (b[-1] != 0), trailing zeros stripped."""
    a = list(a)
    while len(a) >= len(b):
        f = a[-1] / b[-1]
        if f:
            off = len(a) - len(b)
            for j, c in enumerate(b):
                a[off + j] -= f * c
        a.pop()
    while a and a[-1] == 0:
        a.pop()
    return a


def _gcd(a: list, b: list) -> list:
    """Monic gcd of two nonzero polynomials."""
    while b:
        a, b = b, _rem(a, b)
        if b:
            b = [c / b[-1] for c in b]
    return [c / a[-1] for c in a]


def _sign_changes(seq: list, x: Fraction) -> int:
    signs = [v > 0 for v in (_eval(p, x) for p in seq) if v != 0]
    return sum(s != t for s, t in zip(signs, signs[1:]))


def _sturm_roots(h: list, lo: int, hi: int) -> int:
    """Number of distinct roots of h in (lo, hi); h(lo) and h(hi) nonzero."""
    seq = [h, [k * c for k, c in enumerate(h)][1:]]
    while len(seq[-1]) > 1:
        r = _rem(seq[-2], seq[-1])
        if not r:
            break
        # dividing by |leading coefficient| keeps every sign
        seq.append([-c / abs(r[-1]) for c in r])
    return _sign_changes(seq, Fraction(lo)) - _sign_changes(seq, Fraction(hi))


def vanishes_on_circle_reference(q: list) -> bool:
    """Exact test whether the polynomial q (q[0] != 0) has a zero on |z| = 1."""
    g = _gcd(q, q[::-1])
    if len(g) == 1:
        return False
    if _eval(g, Fraction(1)) == 0 or _eval(g, Fraction(-1)) == 0:
        return True
    k = (len(g) - 1) // 2
    # h = g_k + sum_j g_{k+j} D_j(x) with D_j(z + 1/z) = z^j + z^-j
    h = [g[k]] + [Fraction(0)] * k
    d_prev, d = [2], [0, 1]
    for j in range(1, k + 1):
        for i, c in enumerate(d):
            h[i] += g[k + j] * c
        d_prev, d = d, [x - y for x, y in zip([0] + d, d_prev + [0, 0])]
    return _sturm_roots(h, -2, 2) > 0


# ---------------------------------------------------------------------------
# Fraction reference for the exact layer: Laurent polynomials with Fraction
# coefficients and their ring, and the Fraction path the library's integer
# form replaced, in which every symbol value is a Fraction and every float is
# float(Fraction).  Its determinant is a cofactor expansion in the ring.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FracPoly:
    """sum_k coeffs[k - low] * z^k over Fraction; normalized like
    LaurentPoly, so == compares values."""

    low: int
    coeffs: tuple[Fraction, ...]

    @staticmethod
    def make(low: int, coeffs) -> "FracPoly":
        cs = [Fraction(c) for c in coeffs]
        lead = 0
        while cs and cs[-1] == 0:
            cs.pop()
        while cs and cs[0] == 0:
            cs.pop(0)
            lead += 1
        if not cs:
            return FracPoly(0, ())
        return FracPoly(low + lead, tuple(cs))

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def high(self) -> int:
        return self.low + len(self.coeffs) - 1

    def coeff(self, k: int) -> Fraction:
        if self.is_zero or k < self.low or k > self.high:
            return Fraction(0)
        return self.coeffs[k - self.low]

    def __add__(self, other: "FracPoly") -> "FracPoly":
        if self.is_zero:
            return other
        if other.is_zero:
            return self
        lo = min(self.low, other.low)
        hi = max(self.high, other.high)
        return FracPoly.make(lo, [self.coeff(k) + other.coeff(k) for k in range(lo, hi + 1)])

    def __neg__(self) -> "FracPoly":
        return FracPoly(self.low, tuple(-c for c in self.coeffs))

    def __sub__(self, other: "FracPoly") -> "FracPoly":
        return self + (-other)

    def __mul__(self, other: "FracPoly") -> "FracPoly":
        if self.is_zero or other.is_zero:
            return ZERO
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return FracPoly.make(self.low + other.low, out)

    def scale(self, c) -> "FracPoly":
        return FracPoly.make(self.low, [Fraction(c) * a for a in self.coeffs])

    def shift(self, k: int) -> "FracPoly":
        """Multiply by z^k."""
        return self if self.is_zero else FracPoly(self.low + k, self.coeffs)

    def __str__(self) -> str:
        if self.is_zero:
            return "0"
        parts = []
        for k in range(self.high, self.low - 1, -1):
            c = self.coeff(k)
            if c == 0:
                continue
            mag = abs(c)
            if k == 0:
                body = str(mag)
            else:
                zp = "z" if k == 1 else f"z^{k}"
                body = zp if mag == 1 else f"{mag}{zp}"
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(parts)


ZERO = FracPoly(0, ())
ONE = FracPoly(0, (Fraction(1),))
Z = FracPoly(1, (Fraction(1),))


def to_laurent(p: FracPoly) -> LaurentPoly:
    """p as the library's integer numerators over the lcm of its
    denominators."""
    den = math.lcm(*(c.denominator for c in p.coeffs))
    return LaurentPoly(p.low, tuple(c.numerator * (den // c.denominator) for c in p.coeffs), den)


def to_frac(p: LaurentPoly) -> FracPoly:
    return FracPoly(p.low, tuple(Fraction(c, p.den) for c in p.coeffs))


def lp(low: int, coeffs) -> LaurentPoly:
    """The LaurentPoly sum_k coeffs[k - low] z^k of rational coefficients."""
    return to_laurent(FracPoly.make(low, coeffs))


def frac_symbol(kappa: Kappa) -> tuple[tuple[FracPoly, ...], ...]:
    """The symbol's rows with every entry a FracPoly: the same values, each
    held as one Fraction."""
    return tuple(tuple(to_frac(p) for p in row) for row in build_symbol(kappa))


def frac_det(mat) -> FracPoly:
    """Determinant of a square FracPoly matrix by cofactor expansion along
    the first row, independent of the library's Bareiss elimination."""
    n = len(mat)
    if n == 0:
        return ONE
    acc = ZERO
    for j in range(n):
        minor = [row[:j] + row[j + 1 :] for row in mat[1:]]
        term = mat[0][j] * frac_det(minor)
        acc = acc + term if j % 2 == 0 else acc - term
    return acc


def frac_circle_values(p, n: int) -> np.ndarray:
    """circle_values of a FracPoly or a matrix of them, each coefficient
    float(Fraction)."""
    polys = np.asarray(p, dtype=object)
    idx, vals = [], []
    for col, q in enumerate(polys.flat):
        idx += [col * n + k % n for k in range(q.low, q.low + len(q.coeffs))]
        vals += map(float, q.coeffs)
    slots = np.bincount(np.array(idx, dtype=np.intp), vals, minlength=polys.size * n)
    values = np.fft.rfft(slots.reshape(polys.size, n))
    return values.reshape(polys.shape + (n // 2 + 1,))


def frac_certificate(p: FracPoly, verdict: str) -> CircleCertificate:
    """The certificate's float diagnostics from float(Fraction)."""
    grid_n = 4096
    vals = np.abs(frac_circle_values(p.shift(-p.low), grid_n))
    imin = int(np.argmin(vals))
    c = [float(x) for x in p.coeffs]
    root_margin = math.inf
    if len(c) > 1:
        root_margin = float(np.min(np.abs(np.abs(np.roots(c[::-1])) - 1.0)))
    return CircleCertificate(float(vals[imin]), imin / grid_n, root_margin, verdict)


def fraction_path(kappa: Kappa) -> dict:
    """Everything the exact layer feeds, on the Fraction path: the symbol,
    its determinant, the verdict and certificate, and the kernel table and
    frame constants from the library's float code with the Fraction symbol
    and float(Fraction) values patched in."""
    sym = frac_symbol(kappa)
    det = frac_det([list(row) for row in sym])
    is_cis = not det.is_zero and not vanishes_on_circle_reference(list(det.coeffs))
    verdict = "nonvanishing" if is_cis else "vanishing"
    cert = frac_certificate(det, verdict) if not det.is_zero else CircleCertificate(0.0, 0.0, 0.0, verdict)
    out = {"symbol": sym, "det": det, "is_cis": is_cis, "certificate": cert}
    if is_cis:
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(kernel, "check_cis", lambda k: CisReport(k, sym, det, is_cis))
            mp.setattr(kernel, "circle_values", frac_circle_values)
            mp.setattr(sampler, "build_symbol", lambda k: sym)
            mp.setattr(sampler, "circle_values", frac_circle_values)
            mp.setattr(sampler, "riesz_lower_bound",
                       lambda m: float(Fraction(_zigzag(2 * m - 1), math.factorial(2 * m - 1))))
            out["table"] = kernel.inv_symbol_coeffs(kappa)
            out["bounds"] = sampler.frame_bounds(kappa)
    return out


def kernel_table_from_csv(path) -> KernelTable:
    """Read a table written by `derivsamp kernel-dump`: the CLI's header,
    then the table's metadata line, `j,i,v,c` and the rows."""
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
        if cols != "j,i,v,c":
            raise ValueError(f"unexpected column header {cols!r}")
        kappa = Kappa(int(meta["m"]), Fraction(meta["a"]), int(meta["rho"]))
        radius = int(meta["radius"])
        tail_bound = float(meta["tail_bound"])
        coeffs = np.zeros((kappa.rho, kappa.rho, 2 * radius + 1))
        for line in fh:
            j, i, v, c = line.strip().split(",")
            coeffs[int(j), int(i), radius + int(v)] = float(c)
    return KernelTable(kappa, radius, coeffs, tail_bound)
