"""Cardinal B-splines: evaluation, derivatives, Fourier transforms, Riesz bounds.

Q_m denotes the B-spline of order m with knots 0, 1, ..., m (support [0, m]).
Every float evaluation goes through one primitive, `bspline_series`, which
sums a finite series sum_n c_n Q_m^(d)(x - k0 - n).  On each knot interval
[p, p+1) the function Q_m^(d) is a polynomial in the local variable
u = x - floor(x); the m pieces are expanded exactly over Fraction from the
truncated-power form and converted to float once per (m, d).  A series is
folded into its piecewise-polynomial (pp) form first, one polynomial of
degree m-1-d per knot interval, so that each point costs one gather and one
Horner pass (de Boor, A Practical Guide to Splines, ch. X).  Exact rational
values on a shifted integer lattice, Q_m^(i)(u + p), come from one Cox-de
Boor triangle on integer numerators over the common denominator
(m-1)! q^(m-1) of u = s/q, with one Fraction built per returned value
(`exact_lattice_values`).
Fourier transforms use the convention f^(w) = int f(t) exp(-2 pi i w t) dt,
so Q_m^(xi) = ((1-e^{-2 pi i xi})/(2 pi i xi))^m; `fourier_q_derivs` gives
its derivatives of every order.
"""

from __future__ import annotations

import cmath
import functools
import math
from fractions import Fraction

import numpy as np

__all__ = [
    "bspline_series",
    "exact_lattice_values",
    "fourier_q_derivs",
    "krein_favard",
    "riesz_lower_bound",
]

_TWO_PI_I = 2j * math.pi


def _check_order(m: int) -> None:
    if not isinstance(m, (int, np.integer)) or m < 1:
        raise ValueError(f"spline order must be a positive integer, got {m!r}")


def _check_deriv_order(m: int, k: int) -> None:
    if not isinstance(k, (int, np.integer)) or k < 0:
        raise ValueError(f"derivative order must be a nonnegative integer, got {k!r}")
    if k > 0 and k > m - 2:
        raise ValueError(
            f"derivative order {k} not available for Q_{m}: need k <= m-2 "
            "(higher derivatives are not continuous)"
        )


@functools.lru_cache(maxsize=None)
def _pieces(m: int, deriv: int) -> np.ndarray:
    """pieces[p, k]: coefficient of u^k in Q_m^(deriv)(p + u), 0 <= u < 1.

    From the truncated-power form Q_m^(d)(t) = sum_j (-1)^j C(m,j)
    (t-j)_+^e / e!, e = m-1-d, expanded exactly and rounded once.  For m=1
    the single piece is 1, so Q_1 is right-continuous at its knots.
    """
    e = m - 1 - deriv
    rows = []
    for p in range(m):
        row = [Fraction(0)] * (e + 1)
        for j in range(p + 1):
            w = (-1) ** j * math.comb(m, j)
            for k in range(e + 1):
                row[k] += w * math.comb(e, k) * Fraction(p - j) ** (e - k)
        rows.append([float(c / math.factorial(e)) for c in row])
    out = np.array(rows)
    out.flags.writeable = False
    return out


def bspline_series(m: int, deriv: int, coeffs, k0: int, x):
    """sum_n coeffs[n] Q_m^(deriv)(x - k0 - n) at x (scalar or ndarray).

    pp-form (de Boor, A Practical Guide to Splines, ch. X): on the knot
    interval [k0 + j, k0 + j + 1) the series is sum_k pp[k, 1 + j] u^k with
    pp[k, 1 + j] = sum_p coeffs[j - p] pieces[p, k], one convolution per
    power k.  Each point then costs one Horner pass of degree m-1-deriv,
    gathering its interval's coefficient at every step.
    """
    _check_order(m)
    _check_deriv_order(m, deriv)
    arr = np.asarray(x, dtype=float)
    pieces = _pieces(m, deriv)
    c = np.asarray(coeffs, dtype=float)
    # zero columns at both ends: every point outside the support clips onto
    # one; mode="clip" also bounds the meaningless index of a NaN point
    pp = np.zeros((pieces.shape[1], len(c) + m + 1))
    if len(c):
        for k, col in enumerate(pieces.T):
            pp[k, 1:-1] = np.convolve(c, col)
    base = np.floor(arr)
    u = arr - base
    idx = np.clip(base - (int(k0) - 1), 0, len(c) + m).astype(np.intp)
    out = pp[-1].take(idx, mode="clip")
    for row in pp[-2::-1]:
        out *= u
        out += row.take(idx, mode="clip")
    return float(out) if arr.ndim == 0 else out


def exact_lattice_values(m: int, u, d_max: int) -> list[list[Fraction]]:
    """vals[i][p] = Q_m^(i)(u + p) exactly, for 0 <= p < m and i <= d_max.

    u = s/q is a rational in [0, 1).  One Cox-de Boor triangle on the integer
    numerators T_n(p) = (n-1)! q^(n-1) Q_n(u + p), n <= m: the recurrence
    Q_n(x) = (x Q_{n-1}(x) + (n-x) Q_{n-1}(x-1)) / (n-1) becomes
    T_n(p) = (s + qp) T_{n-1}(p) + (qn - s - qp) T_{n-1}(p-1), started at the
    right-continuous Q_1.  Then Q_m^(i) = Delta^i Q_{m-i}, the i-th backward
    difference in p, taken on the integers and divided once per value.
    """
    _check_order(m)
    _check_deriv_order(m, d_max)
    u = Fraction(u)
    if not 0 <= u < 1:
        raise ValueError(f"lattice offset must lie in [0, 1), got {u}")
    s, q = u.numerator, u.denominator
    qx = [s + q * p for p in range(m)]  # q (u + p)
    row = [1] + [0] * (m - 1)  # T_1
    rows = {1: row}
    for n in range(2, m + 1):
        row = [
            x * t + (q * n - x) * t_left
            for x, t, t_left in zip(qx, row, [0] + row[:-1])
        ]
        rows[n] = row
    vals = []
    for i in range(d_max + 1):
        diff = rows[m - i]
        for _ in range(i):
            diff = [t - t_left for t, t_left in zip(diff, [0] + diff[:-1])]
        den = math.factorial(m - i - 1) * q ** (m - i - 1)
        vals.append([Fraction(t, den) for t in diff])
    return vals


# ---------------------------------------------------------------------------
# Fourier transform of Q_m and its derivatives of every order.
#
# Q_m^ = Phi^m with Phi(xi) = (1 - e^{-2 pi i xi}) / (2 pi i xi) = G(c xi),
# c = -2 pi i and G(x) = (e^x - 1)/x = int_0^1 e^{xs} ds, so that
# G^(k)(x) = int_0^1 s^k e^{xs} ds.  Integration by parts gives
# G^(k) = (e^x - k G^(k-1)) / x, which loses a factor k/|x| per step; below
# |x| = 2 the Taylor series sum_j x^j / (j! (j+k+1)) is used instead.
# ---------------------------------------------------------------------------

_C = -_TWO_PI_I  # so that Phi(xi) = G(_C * xi)
_SERIES_RADIUS = 2.0  # |c xi| below this -> series (|xi| < 1/pi)
_SERIES_J = np.arange(27)  # terms decay factorially: 2^27/27! < 1e-20


def fourier_q_derivs(m: int, r: int, xi: float) -> np.ndarray:
    """[Q_m^(xi), Q_m^'(xi), ..., Q_m^(r)(xi)], any r >= 0.

    The Taylor coefficients Phi^(k)(xi)/k! = c^k G^(k)(c xi)/k! are raised to
    the m-th power by m truncated series products, with no division, so
    the integer zeros of Phi stay zeros of every derivative below m.  Just
    above |xi| = 1/pi the recurrence amplifies roundoff by up to r!/2^r:
    about 1e-12 relative for r <= 11, 1e-8 at r = 14.
    """
    _check_order(m)
    if not isinstance(r, (int, np.integer)) or r < 0:
        raise ValueError(f"derivative order must be a nonnegative integer, got {r!r}")
    x = _C * float(xi)
    k = np.arange(r + 1)
    if abs(x) < _SERIES_RADIUS:
        terms = np.cumprod(np.concatenate(([1.0], x / _SERIES_J[1:])))  # x^j / j!
        g = terms @ (1.0 / (_SERIES_J[:, None] + k + 1.0))
    else:
        e = cmath.exp(x)
        g = np.empty(r + 1, dtype=complex)
        g[0] = (e - 1.0) / x
        for j in range(1, r + 1):
            g[j] = (e - j * g[j - 1]) / x
    fact = np.cumprod(np.maximum(k, 1), dtype=float)  # k!
    phi = _C ** k * g / fact
    series = np.zeros(r + 1, dtype=complex)
    series[0] = 1.0
    for _ in range(m):
        series = np.convolve(series, phi)[: r + 1]
    return series * fact


# ---------------------------------------------------------------------------
# Krein-Favard constants K_r = (4/pi) sum_{v>=0} (-1)^{v(r+1)} / (2v+1)^{r+1}
# in closed form K_r = A_r pi^r / (2^r r!), A_r the zigzag (up/down) numbers,
# and the Riesz lower bound 2^{2m-1} K_{2m-1} / pi^{2m-1} = A_{2m-1}/(2m-1)!
# of the Q_m basis.
# ---------------------------------------------------------------------------


def _zigzag(r: int) -> int:
    """A_r by the Seidel-Entringer boustrophedon: row n holds E(n, 0..n) with
    E(n, k) = E(n, k-1) + E(n-1, n-k), and A_n = E(n, n)."""
    row = [1]
    for _ in range(r):
        new = [0]
        for v in reversed(row):
            new.append(new[-1] + v)
        row = new
    return row[-1]


def krein_favard(r: int) -> float:
    """Krein-Favard constant K_r."""
    if not isinstance(r, (int, np.integer)) or r < 0:
        raise ValueError(f"index must be a nonnegative integer, got {r!r}")
    return float(Fraction(_zigzag(r), 2 ** r * math.factorial(r))) * math.pi ** r


def riesz_lower_bound(m: int) -> float:
    """Lower Riesz bound A_{2m-1} / (2m-1)! of the shifted Q_m basis, rounded
    once from the exact rational (upper bound is 1 by partition of unity)."""
    _check_order(m)
    return float(Fraction(_zigzag(2 * m - 1), math.factorial(2 * m - 1)))
