"""Finite differences, local/averaged moduli of smoothness, and order fitting.

The local modulus

    omega_r(f; x; delta) = sup { |Delta_h^r f(t)| : t, t + r h in [x - r delta/2, x + r delta/2] }

is estimated on one lattice per window: step g = delta/(search_n - 1), with
both window ends on the lattice.  f is evaluated once per lattice point; every
difference Delta_{kg}^r f(t) with t and t + r k g on the lattice is then an
index shift of those values, and the largest |difference| is the estimate.
For r = 1 every pair of lattice points is such a difference, so the estimate
is max F - min F, one pass over the window's values.  For r >= 2 each step k
is summed into one reused buffer, in an order that rounds exactly as the
left-to-right sum_j c_j F[i + j k] does, and folded into a running maximum.
A lattice misses jump suprema, so points just either side of a signal's
known discontinuities (its special_points) join the candidate t, paired with
every h = k g; the reported value is still a lower estimate of the true sup.
The averaged modulus tau_r(f; delta)_p is the L^p norm of
x -> omega_r(f; x; delta), computed by midpoint quadrature.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bspline import _check_range

__all__ = [
    "TauEstimate",
    "tau_modulus",
    "fit_order",
]

_JUMP_EPS = 1e-9
# Most lattice points (or jump-mask entries) that one block of windows holds:
# 2 MB per float array.  `derivsamp tau --r R` on its default delta ladder
# ran 1.06 (R = 2) to 1.25 (R = 1) times as fast as with 2^20 (8 MB per
# array; Python 3.11, numpy 2.4, 2 shared vCPUs).  2^16 was faster still
# there, but it splits the benchmark's tau calls (at most about 1.4e5 points
# at delta >= 0.07, one block here) and slowed that workload by 5 %.  The
# values are the same at every block size.
_BLOCK_ELEMENTS = 1 << 18
# Most quadrature cells and lattice steps per window that tau_modulus takes:
# tests, CLI defaults and benchmark use at most 7712 cells (f1, delta 0.025)
# and search_n = 64; 2^22 cells is f1 down to delta = 4.6e-5.
_MAX_CELLS = 1 << 22
_MAX_SEARCH_N = 1 << 13
# Largest difference order r: the binomial signs comb(r, j) are exact floats
# up to r = 56 (comb(57, 28) > 2^53), which the exact rounding of
# _lattice_moduli needs, and _jump_points builds 16 (r + 1) candidates per
# special point.
_MAX_ORDER = 56


def _jump_points(f, r: int, delta: float) -> np.ndarray:
    """Absolute t-candidates just either side of each known discontinuity."""
    # Geometric h-subset keeps the candidate count small; a difference
    # straddling a jump at any admissible h already attains the jump size.
    hsub = delta * 0.5 ** np.arange(8)
    xi = np.asarray(f.special_points, dtype=float)
    starts = xi[:, None, None] - np.arange(r + 1)[:, None] * hsub  # (xi, j, h)
    # not np.unique: it imports numpy.ma on its first call, and np.sort maps
    # its SIMD sort code; each adds to peak memory (0.7 and 0.1 MB)
    return np.array(sorted(set(np.ravel([starts - _JUMP_EPS, starts + _JUMP_EPS]).tolist())))


def _moduli_batch(f, r: int, xs: np.ndarray, delta: float, search_n: int, jumps=None) -> np.ndarray:
    """omega_r(f; x; delta) for each x; jumps is _jump_points(f, r, delta),
    built here when not given.

    The window of x has r(search_n - 1) + 1 lattice points F[0..last], and
    Delta_{kg}^r f at point i is sum_j c_j F[i + j k] for i + r k <= last.
    Differences that touch an undefined (non-finite) value of f are skipped.
    The lattices, and the jump-candidate masks, go through in blocks of at
    most _BLOCK_ELEMENTS entries; f is pointwise, so the blocks change no value.
    """
    signs = np.array([(-1.0) ** (r - j) * math.comb(r, j) for j in range(r + 1)])
    half = r * delta / 2.0
    offsets = np.linspace(-half, half, r * (search_n - 1) + 1)
    out = np.empty(len(xs))
    block = max(1, _BLOCK_ELEMENTS // len(offsets))
    for start in range(0, len(xs), block):
        x = xs[start : start + block]
        out[start : start + block] = _lattice_moduli(f, signs, offsets, x, search_n)
    if jumps is None:
        jumps = _jump_points(f, r, delta)
    if len(jumps):
        hs = np.linspace(0.0, delta, search_n)
        # One (t, h) difference table per call; each x masks it by its window.
        nodes = jumps[:, None] + hs[None, :] * np.arange(r + 1)[:, None, None]
        fn = np.asarray(f(nodes.ravel()), dtype=float).reshape(nodes.shape)
        table = np.abs(np.einsum("j,jab->ab", signs, fn))
        table[~np.isfinite(table)] = 0.0
        # Only windows that hold a candidate t need the (x, t, h) mask.
        hit = np.flatnonzero(
            np.searchsorted(jumps, xs + half + 1e-15, side="right")
            > np.searchsorted(jumps, xs - half - 1e-15, side="left")
        )
        block = max(1, _BLOCK_ELEMENTS // table.size)
        for start in range(0, len(hit), block):
            idx = hit[start : start + block]
            x = xs[idx][:, None, None]
            ok = (jumps[None, :, None] >= x - half - 1e-15) & (
                jumps[None, :, None] + r * hs[None, None, :] <= x + half + 1e-15
            )
            out[idx] = np.maximum(out[idx], np.where(ok, table[None], 0.0).max(axis=(1, 2)))
    return out


def _lattice_moduli(f, signs: np.ndarray, offsets: np.ndarray, xs: np.ndarray, search_n: int):
    """Largest |Delta_{kg}^r f| on the lattice of each window, 1 <= k < search_n.

    Differences that touch an undefined value are skipped; a window with no
    defined difference gets 0.  For r = 1 every pair of lattice points
    (i, i + k) is searched, and rounding is monotone, so the largest
    |F[i + k] - F[i]| is exactly fl(max F - min F) over the defined values:
    one pass instead of one per k.  For r >= 2 each k's difference goes into
    one reused buffer as term 1 plus term 0, then the other terms in order.
    That rounds exactly as sum_j c_j F[i + j k] left to right: addition
    commutes, a factor c_j = +-1 is exact, and a + (-c) is a - c.
    """
    r = len(signs) - 1
    last = len(offsets) - 1
    # Row i holds lattice point i of every window, so each shift is a
    # contiguous block of rows.
    lattice = (offsets[:, None] + xs[None, :]).ravel()
    vals = np.asarray(f(lattice), dtype=float).reshape(len(offsets), len(xs))
    del lattice
    vals[~np.isfinite(vals)] = np.nan
    # fmax/fmin skip NaN, so a difference touching an undefined value drops
    # out; a window with none left is NaN here and 0 after the last fmax.
    if r == 1:
        spread = np.fmax.reduce(vals, axis=0) - np.fmin.reduce(vals, axis=0)
        # |.| keeps +0.0 should fmax and fmin break a tie of signed zeros apart
        return np.fmax(np.abs(spread, out=spread), 0.0)
    # top[i] is the largest |difference| at point i so far; k = 1 fills it.
    top = np.empty((last - r + 1, len(xs)))
    buf = np.empty((last - 2 * r + 1, len(xs)))
    term = np.empty_like(top) if r >= 3 else None  # c_j = +-1 needs none
    for k in range(1, search_n):  # h = 0 gives a zero difference
        n = last - r * k + 1
        diff = top if k == 1 else buf[:n]
        np.multiply(vals[k : k + n], signs[1], out=diff)
        for j in (0, *range(2, r + 1)):
            v, c = vals[j * k : j * k + n], signs[j]
            if c == 1.0:
                diff += v
            elif c == -1.0:
                diff -= v
            else:
                diff += np.multiply(v, c, out=term[:n])
        np.abs(diff, out=diff)
        if k > 1:
            np.fmax(top[:n], diff, out=top[:n])
    return np.fmax(np.fmax.reduce(top, axis=0), 0.0)


def _check_search(r: int, delta: float, search_n: int) -> None:
    _check_range("order r", r, 1, _MAX_ORDER, integer=True)
    _check_range("delta", delta, 0, open_lo=True)
    _check_range("search_n", search_n, 64, _MAX_SEARCH_N, integer=True)


@dataclass(frozen=True)
class TauEstimate:
    r: int
    p: float
    delta: float
    value: float
    grid_meta: dict


def tau_modulus(
    f,
    r: int,
    delta: float,
    p: float,
    domain: tuple[float, float] | None = None,
    search_n: int = 64,
) -> TauEstimate:
    """Averaged modulus tau_r(f; delta)_p: midpoint L^p quadrature of the
    local modulus over domain, by default f's support_hint widened by
    r delta on each side, on the fewest equal cells no wider than delta/8
    (grid_meta["quad_step"] is their width).  Raises ArgumentError, before
    any array is built, unless r is an integer in [1, _MAX_ORDER], delta is
    positive and finite, search_n is an integer in [64, _MAX_SEARCH_N], p
    is finite and >= 1, the domain is finite with lo < hi, and that grid
    has at most _MAX_CELLS cells."""
    _check_search(r, delta, search_n)
    _check_range("p", p, 1)
    if domain is None:
        lo, hi = f.spec.support_hint
        domain = (lo - r * delta, hi + r * delta)
    lo, hi = float(domain[0]), float(domain[1])
    _check_range("finite domain width hi - lo", hi - lo, 0, open_lo=True, got=f"domain={domain!r}")
    cells = (hi - lo) / (delta / 8.0) if delta / 8.0 > 0 else math.inf
    _check_range(f"a count of delta/8 cells on {(lo, hi)!r}", cells, 0, _MAX_CELLS,
                 got=f"delta={delta!r}")
    n = max(1, math.ceil(cells))
    step = (hi - lo) / n
    xs = lo + step * (np.arange(n) + 0.5)
    jumps = _jump_points(f, r, float(delta))
    om = _moduli_batch(f, r, xs, float(delta), search_n, jumps)
    value = float((step * np.sum(om**p)) ** (1.0 / p))
    lattice_n = r * (search_n - 1) + 1
    f_evals = n * lattice_n + len(jumps) * search_n * (r + 1)
    meta = {
        "search_n": search_n,
        "quad_step": step,
        "domain": (lo, hi),
        "lattice_n": lattice_n,
        "f_evals": f_evals,
    }
    return TauEstimate(r, p, float(delta), value, meta)


def fit_order(pairs) -> tuple[float, float]:
    """Least-squares slope of log(value) vs log(scale), with r^2 goodness."""
    pairs = list(pairs)
    if len(pairs) < 4:
        raise ValueError("need at least 4 (scale, value) pairs")
    scales = np.array([float(s) for s, _ in pairs])
    values = np.array([float(v) for _, v in pairs])
    if np.any(scales <= 0) or np.any(values <= 0):
        raise ValueError("scales and values must be positive for log-log fit")
    lx, ly = np.log(scales), np.log(values)
    slope, intercept = np.polyfit(lx, ly, 1)
    resid = ly - (slope * lx + intercept)
    ss_tot = float(np.sum((ly - ly.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0 else 1.0 - float(np.sum(resid**2)) / ss_tot
    return float(slope), r2

