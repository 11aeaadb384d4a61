"""Cardinal B-splines: evaluation, derivatives, Fourier transforms, Riesz bounds.

Q_m denotes the B-spline of order m with knots 0, 1, ..., m (support [0, m]).
Every float evaluation goes through one primitive, `bspline_series`, which
sums a finite series sum_n c_n Q_m^(d)(x - k0 - n).  On each knot interval
[p, p+1) the function Q_m^(d) is a polynomial in the local variable
u = x - floor(x).  Exact rational values on a shifted integer lattice,
Q_m^(i)(u + p), come from one Cox-de Boor triangle on integer numerators
over the common denominator (m-1)! q^(m-1) of u = s/q, and are returned as
integer numerators over one denominator per derivative order
(`exact_lattice_values`).  The same triangle at u = 0 gives the m pieces:
their Taylor coefficients at the knots, rounded once per (m, d).  A series
is folded into its piecewise-polynomial (pp) form first, one polynomial of
degree m-1-d per knot interval, so that each point costs one Horner pass
with a gather per step (de Boor, A Practical Guide to Splines, ch. X).  The
pass runs over cache-sized blocks of points (Lam, Rothberg & Wolf, ASPLOS
1991); it is pointwise, so the blocks change no value.
Fourier transforms use the convention f^(w) = int f(t) exp(-2 pi i w t) dt,
so Q_m^(xi) = ((1-e^{-2 pi i xi})/(2 pi i xi))^m; `fourier_q_derivs` gives
its derivatives of every order.
`_check_range` is the package's one check of a caller-supplied number: every
library function that takes a number with an admissible range calls it
before any work, and it raises `ArgumentError`.  `_int_power` is its one
integer power of an array, by repeated products, so that those bytes do not
depend on the SIMD code numpy dispatches to.
"""

from __future__ import annotations

import cmath
import functools
import itertools
import math
from fractions import Fraction

import numpy as np

__all__ = [
    "ArgumentError",
    "bspline_series",
    "exact_lattice_values",
    "fourier_q_derivs",
    "riesz_lower_bound",
]

_TWO_PI_I = 2j * math.pi


class ArgumentError(ValueError):
    """A number passed to the library lies outside its admissible range."""


def _check_range(what: str, value, lo, hi=math.inf, *, integer=False, open_lo=False,
                 open_hi=False, got=None) -> None:
    """Raise ArgumentError, "need {what} in {interval}, got {got}", unless
    value lies in the interval from lo to hi.  An integer range takes only a
    Python or numpy integer and is closed; a float range is closed at each
    end unless flagged open or infinite, and NaN lies in none.  got
    defaults to "name=value", name the last word of what."""
    open_lo = open_lo or lo == -math.inf
    open_hi = open_hi or hi == math.inf
    if integer:
        if isinstance(value, (int, np.integer)) and lo <= value <= hi:
            return
    elif (lo < value if open_lo else lo <= value) and (value < hi if open_hi else value <= hi):
        return
    interval = f"{'(' if open_lo else '['}{lo}, {hi}{')' if open_hi else ']'}"
    raise ArgumentError(
        f"need {'an integer ' if integer else ''}{what} in {interval}, "
        f"got {got or f'{what.split()[-1]}={value!r}'}"
    )


def _int_power(x, k: int) -> np.ndarray:
    """x^k of a float array for an integer k >= 0, as a new array: x^0 is
    ones (NaN included), x^1 a copy of x, and x^j = x^(j-1) * x, one rounded
    product per step, so the relative error is at most (k-1) u (Higham,
    Accuracy and Stability of Numerical Algorithms, 2002, sec. 3.1).  The
    products round the same on every host.  numpy's pow of a negative base
    does not: its bytes follow the SIMD code it dispatches to, and under
    AVX-512 it took 70-156 ns per element where x*x*x took 1-1.5 ns."""
    x = np.asarray(x, dtype=float)
    if k == 0:
        return np.ones_like(x)
    out = x.copy()
    for _ in range(k - 1):
        out *= x
    return out


def _check_order(m: int, deriv: int = 0) -> None:
    """Q_m needs an integer order m >= 1; its derivative of order deriv is
    continuous for deriv <= m - 2, and deriv = 0 is plain evaluation."""
    _check_range("spline order m", m, 1, integer=True)
    _check_range("Q_m derivative order k", deriv, 0, max(0, m - 2), integer=True)


@functools.lru_cache(maxsize=None)
def _pieces(m: int, deriv: int) -> np.ndarray:
    """pieces[p, k]: coefficient of u^k in Q_m^(deriv)(p + u), 0 <= u < 1.

    The Taylor coefficient Q_m^(deriv+k)(p) / k! at the knot, read off the
    Cox-de Boor triangle at u = 0 and rounded once (int / int).  The top
    order m-1 is the right-continuous step Delta^(m-1) Q_1, so for m=1 the
    single piece is 1 and Q_1 is right-continuous at its knots.
    """
    nums, dens = _triangle(m, 0, 1, m - 1)
    out = np.array([
        [nums[deriv + k][p] / (dens[deriv + k] * math.factorial(k)) for k in range(m - deriv)]
        for p in range(m)
    ])
    out.flags.writeable = False
    return out


# Points per block of the Horner pass: each array of a block is 64 kB and
# stays in L2, where a 10^5-point input went through memory once per step.
# Chosen from 2^12, 2^13 and 2^14 by paired benchmark runs
# (BENCH_blocked_series.json).
_BLOCK_POINTS = 1 << 13


def bspline_series(m: int, deriv: int, coeffs, k0: int, x):
    """sum_n coeffs[n] Q_m^(deriv)(x - k0 - n) at x (scalar or ndarray).

    pp-form (de Boor, A Practical Guide to Splines, ch. X): on the knot
    interval [k0 + j, k0 + j + 1) the series is sum_k pp[k, 1 + j] u^k with
    pp[k, 1 + j] = sum_p coeffs[j - p] pieces[p, k], one convolution per
    power k, folded once per call.  Each point then costs one Horner pass of
    degree m-1-deriv, gathering its interval's coefficient at every step.
    The points go through that pass in blocks of _BLOCK_POINTS; a point's
    arithmetic does not depend on its block, so the blocks change no value.
    Points outside the support, +-inf included, give exactly 0.0, and NaN
    points give NaN.
    """
    _check_order(m, deriv)
    _check_range("knot k0", k0, -math.inf, integer=True)
    arr = np.asarray(x, dtype=float)
    if arr.ndim == 0:
        return float(bspline_series(m, deriv, coeffs, k0, arr.reshape(1))[0])
    pieces = _pieces(m, deriv)
    c = np.asarray(coeffs, dtype=float)
    # columns 0 and n are zero, for points below and above the support; a NaN
    # point lands on column n + 1, whose top entry is NaN, so its Horner pass
    # starts at NaN
    n = len(c) + m
    pp = np.zeros((pieces.shape[1], n + 2))
    if len(c):
        pp[:, 1:n] = [np.convolve(c, col) for col in pieces.T]
    pp[-1, -1] = np.nan
    lo = float(k0 - 1)
    out = np.empty(arr.shape)
    xs, outs = arr.reshape(-1), out.reshape(-1)
    for s in range(0, arr.size, _BLOCK_POINTS):
        _horner(pp, lo, xs[s : s + _BLOCK_POINTS], outs[s : s + _BLOCK_POINTS])
    return out


def _horner(pp: np.ndarray, lo: float, x: np.ndarray, out: np.ndarray) -> None:
    """Write into out the pp-form's values at the points x, both of one
    shape, where column 0 of pp is the knot interval [lo, lo + 1)."""
    hi = lo + (pp.shape[1] - 2)
    x = np.maximum(x, lo)  # +-inf onto a zero column, NaN stays
    np.minimum(x, hi, out=x)
    base = np.floor(x)
    u = np.subtract(x, base, out=x)
    # NaN onto the last column; every index is then in range, and mode="clip"
    # only spares take its bounds check and its copy of out
    np.fmin(base, hi + 1.0, out=base)
    base -= lo
    idx = base.astype(np.intp)
    pp[-1].take(idx, mode="clip", out=out)
    for row in pp[-2::-1]:
        out *= u
        out += row.take(idx, mode="clip")


def exact_lattice_values(m: int, u, d_max: int) -> tuple[list[list[int]], list[int]]:
    """(nums, dens) with Q_m^(i)(u + p) = nums[i][p] / dens[i] exactly, for
    0 <= p < m and i <= d_max; dens[i] = (m-i-1)! q^(m-i-1).

    u = s/q is a rational in [0, 1).  The numerators are not reduced against
    their denominator.
    """
    _check_order(m, d_max)
    if not isinstance(u, Fraction):
        u = Fraction(u)
    _check_range("lattice offset u", u, 0, 1, open_hi=True)
    return _triangle(m, u.numerator, u.denominator, d_max)


def _triangle(m: int, s: int, q: int, d_max: int) -> tuple[list[list[int]], list[int]]:
    """`exact_lattice_values` at u = s/q, unchecked; d_max may be m-1.

    One Cox-de Boor triangle on the integer numerators
    T_n(p) = (n-1)! q^(n-1) Q_n(u + p), n <= m: the recurrence
    Q_n(x) = (x Q_{n-1}(x) + (n-x) Q_{n-1}(x-1)) / (n-1) becomes
    T_n(p) = (s + qp) T_{n-1}(p) + (qn - s - qp) T_{n-1}(p-1), started at the
    right-continuous Q_1.  Q_n vanishes on [n, inf), so row T_n is held on
    its support p < n alone.  Then Q_m^(i) = Delta^i Q_{m-i}, the i-th
    backward difference in p, taken on the integers, each difference one
    zero-padded place longer, up to p < m; for i = m-1 that is the
    right-continuous step.
    """
    qx = [s + q * p for p in range(m)]  # q (u + p)
    row = [1]  # T_1 on p < 1
    rows = [None, row]
    for n in range(2, m + 1):
        qn = q * n
        row = [x * t + (qn - x) * t_left for x, t, t_left in zip(qx, row + [0], [0] + row)]
        rows.append(row)
    nums, dens = [], []
    for i in range(d_max + 1):
        diff = rows[m - i]
        for _ in range(i):
            diff = [t - t_left for t, t_left in zip(diff + [0], [0] + diff)]
        nums.append(diff)
        dens.append(math.factorial(m - i - 1) * q ** (m - i - 1))
    return nums, dens


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
    _check_range("derivative order r", r, 0, integer=True)
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
# The Riesz lower bound 2^{2m-1} K_{2m-1} / pi^{2m-1} of the Q_m basis, with
# the Krein-Favard constant K_r = (4/pi) sum_{v>=0} (-1)^{v(r+1)} / (2v+1)^{r+1}
# in closed form K_r = A_r pi^r / (2^r r!), A_r the zigzag (up/down)
# numbers: the bound is A_{2m-1} / (2m-1)!.
# ---------------------------------------------------------------------------


def _zigzag(r: int) -> int:
    """A_r by the Seidel-Entringer boustrophedon: row n holds E(n, 0..n) with
    E(n, k) = E(n, k-1) + E(n-1, n-k), and A_n = E(n, n)."""
    row = [1]
    for _ in range(r):
        row = [0, *itertools.accumulate(reversed(row))]
    return row[-1]


def riesz_lower_bound(m: int) -> float:
    """Lower Riesz bound A_{2m-1} / (2m-1)! of the shifted Q_m basis, rounded
    once from the exact rational (upper bound is 1 by partition of unity)."""
    _check_order(m)
    return _zigzag(2 * m - 1) / math.factorial(2 * m - 1)
