"""Shared fixtures, oracles and checks: kernel tables are comparatively
expensive to build, so the three worked configurations are session-scoped;
exact B-spline values come from the truncated-power formula, independent of
the library's Cox-de Boor triangle; spline norms have a Gauss-Legendre
reference, independent of the library's Gram matrix; the unit-circle verdict
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
library's alias band on one grid.  Point evaluations of Laurent polynomials, the
local modulus at one x, the time-domain moment residual, random spline
elements, the Fourier transform of Q_m, single finite differences, the
maximal-density determinant check, one-coefficient B-spline series, the
symbol determinant and the exact combinatorial identities behind the
maximal-density case are test helpers here, built on the library's public
API."""

import cmath
import math
from fractions import Fraction

import numpy as np
import pytest

from derivsamp.bspline import _pieces, bspline_series, exact_lattice_values, fourier_q_derivs
from derivsamp.kernel import KernelTable, inv_symbol_coeffs, theta_eval, theta_support
from derivsamp.laurent import ONE, LaurentPoly, circle_values, laurent_det
from derivsamp.sampler import SplineElement
from derivsamp.smoothness import _check_search, _moduli_batch, tau_modulus
from derivsamp.symbol import Kappa, NotCISError, build_symbol, check_cis

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
    return laurent_det(build_symbol(kappa).entries)


def fourier_q(m: int, xi: float) -> complex:
    """Fourier transform of Q_m at xi, the derivative of order 0."""
    return fourier_q_derivs(m, 0, xi)[0]


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
    vals = exact_lattice_values(m, 0, m - 2)
    mat = [[LaurentPoly.make(0, [row[m - 1 - j]]) for j in range(m - 1)] for row in vals]
    return laurent_det(mat) == ONE


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
    vals = exact_lattice_values(m, 0, i)[i]
    return sum((_binom(j, l) * vals[m - 1 - j] for j in range(m - 1)), Fraction(0))


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


def l2_norm_quadrature(f: SplineElement) -> float:
    """L2 norm by per-knot-interval Gauss-Legendre with m nodes (the
    integrand is piecewise polynomial of degree 2m-2, so this is exact up to
    rounding)."""
    xs, ws = np.polynomial.legendre.leggauss(f.m)
    lo, hi = f.support
    acc = 0.0
    for j in range(int(lo), int(math.ceil(hi))):
        tt = j + (xs + 1.0) / 2.0
        acc += float(np.sum(ws / 2.0 * f.eval(tt) ** 2))
    return math.sqrt(acc)


def random_spline(m: int, support_len: int, seed: int) -> SplineElement:
    """Deterministic random element of the integer-shift spline space."""
    rng = np.random.default_rng(seed)
    return SplineElement(m, 0, rng.uniform(-1.0, 1.0, support_len))


def eval_complex(p, z: complex) -> complex:
    """Value of the LaurentPoly p at a complex z."""
    acc = 0j
    for c in reversed(p.coeffs):
        acc = acc * z + complex(float(c))
    return acc * z ** p.low


def eval_unit(p, t: float) -> complex:
    """Value of the LaurentPoly p at z = exp(2 pi i t)."""
    return eval_complex(p, cmath.exp(2j * math.pi * t))


def frame_extremes_reference(sym, n: int) -> tuple[float, float]:
    """Smallest and largest eigenvalue of Psi* Psi over the full grid
    t = s / n, 0 <= s < n, each entry of Psi(t) from eval_unit."""
    psi = np.array([
        [[eval_unit(p, s / n) for p in row] for row in sym.entries] for s in range(n)
    ])
    lam = np.linalg.eigvalsh(np.matmul(psi.conj().transpose(0, 2, 1), psi))
    return float(lam[:, 0].min()), float(lam[:, -1].max())


def circle_min_modulus_reference(p, n: int = 4096) -> float:
    """Smallest |p| over the full grid z = exp(2 pi i s / n), 0 <= s < n,
    by numpy polyval (|z^low| = 1 drops the Laurent shift)."""
    z = np.exp(2j * math.pi * np.arange(n) / n)
    c = np.asarray([float(x) for x in p.coeffs])
    return float(np.abs(np.polynomial.polynomial.polyval(z, c)).min())


def eval_exact(p, z) -> Fraction:
    """Exact value of the LaurentPoly p at a rational z (z != 0 when low < 0)."""
    z = Fraction(z)
    return _eval(p.coeffs, z) * z ** p.low


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


def inv_symbol_coeffs_reference(kappa: Kappa, tol: float = 1e-12, min_radius=None) -> KernelTable:
    """Inverse-symbol table by two grids per step: n doubles from 128 until
    the Nyquist coefficients n/2 +- 2 are below tol and the coefficients
    |v| <= 32 agree with the previous grid's to tol; then the same radius
    search and tail estimate as the library, one coefficient at a time."""
    report = check_cis(kappa)
    if not report.is_cis:
        raise NotCISError(kappa)
    sym = report.symbol
    rho = kappa.rho

    n = 128
    prev_slice = None
    while True:
        inv = np.linalg.inv(circle_values(sym.entries, n))
        spec = np.fft.fft(inv, axis=0) / n
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

    stacked = np.stack([spec[v % n] for v in range(-radius, radius + 1)])
    coeffs = np.transpose(stacked.real, (1, 2, 0)).copy()
    return KernelTable(kappa, radius, coeffs, tail_bound)


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


@pytest.fixture(scope="session")
def table_q3():
    return inv_symbol_coeffs(KAPPA_Q3, tol=1e-12)


@pytest.fixture(scope="session")
def table_q4():
    return inv_symbol_coeffs(KAPPA_Q4, tol=1e-12)


@pytest.fixture(scope="session")
def table_q4h():
    # Wider radius keeps the slowly decaying coefficients testable to 1e-10.
    return inv_symbol_coeffs(KAPPA_Q4H, tol=1e-13, min_radius=24)


def tau_scaling_check(
    f, r: int, delta: float, lam: float, p: float,
    domain: tuple[float, float] | None = None,
) -> bool:
    """tau_r(f; lam*delta)_p <= (2(lam+1))^{r+1} tau_r(f; delta)_p, with 5%
    slack absorbing the lattice search's bias on the two sides."""
    if lam <= 0:
        raise ValueError("lambda must be positive")
    if domain is None:
        lo, hi = getattr(f, "spec", f).support_hint
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
