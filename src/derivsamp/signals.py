"""Catalog of test signals with analytic derivatives and their singular points.

Three reference signals with progressively worse smoothness:

  f1  e^{-t^2/4} sin(2 pi t)      entire, rapidly decaying
  f2  sin^2(pi t) on |t| <= 3     C^1, second derivative jumps at +-3
  f3  -t^3/2 + 2 on (-1.5, 3)     discontinuous at the window ends

plus constant/monomial probes.  Each signal knows its derivative channels
and its special points, the known discontinuities: every derivative channel
is undefined there, and the local-modulus search adds their two sides to its
candidates.  Integer powers of t are repeated products (bspline's
_int_power), so f3, the t^3 term of f1''' and the monomials have the same
bytes on every host.  read_signal_csv reads a signal's channels from a CSV
table.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bspline import _check_range, _int_power

__all__ = [
    "SignalSpec",
    "channel",
    "catalog",
    "get_signal",
    "constant_signal",
    "monomial_signal",
    "read_signal_csv",
]

_TWO_PI = 2.0 * math.pi


class SignalSpec:
    """Immutable signal with derivative channels eval(i, t).

    Derivative channels i >= 1 return NaN exactly at the special points;
    one-sided values are returned arbitrarily close to them.  The value
    channel stays defined there.
    """

    def __init__(self, id, evals, support_hint, special_points=()):
        self.id = id
        self._evals = dict(evals)
        self.max_deriv = max(self._evals)
        self.support_hint = (float(support_hint[0]), float(support_hint[1]))
        self.special_points = tuple(sorted(special_points))

    def __repr__(self):
        return f"SignalSpec({self.id!r}, max_deriv={self.max_deriv})"

    def eval(self, i, t):
        _check_range("channel i", i, 0, self.max_deriv, integer=True,
                     got=f"i={i!r} (signal {self.id!r})")
        x = np.asarray(t, dtype=float)
        scalar = x.ndim == 0
        out = np.asarray(self._evals[i](np.atleast_1d(x)), dtype=float).copy()
        if i >= 1:
            for pt in self.special_points:
                out[np.abs(np.atleast_1d(x) - pt) <= 1e-12 * max(1.0, abs(pt))] = np.nan
        return float(out[0]) if scalar else out.reshape(x.shape)


@dataclass(frozen=True)
class channel:
    """Single derivative channel as a plain callable (for modulus routines)."""

    spec: SignalSpec
    i: int = 0

    def __call__(self, t):
        return self.spec.eval(self.i, t)

    @property
    def special_points(self) -> tuple[float, ...]:
        return self.spec.special_points


def _f1_evals():
    def d0(t):
        return np.exp(-t * t / 4.0) * np.sin(_TWO_PI * t)

    def d1(t):
        e = np.exp(-t * t / 4.0)
        return e * (-(t / 2.0) * np.sin(_TWO_PI * t) + _TWO_PI * np.cos(_TWO_PI * t))

    def d2(t):
        e = np.exp(-t * t / 4.0)
        s, c = np.sin(_TWO_PI * t), np.cos(_TWO_PI * t)
        return e * ((t * t / 4.0 - 0.5 - 4.0 * math.pi**2) * s - _TWO_PI * t * c)

    def d3(t):
        e = np.exp(-t * t / 4.0)
        s, c = np.sin(_TWO_PI * t), np.cos(_TWO_PI * t)
        return e * (
            (-_int_power(t, 3) / 8.0 + (0.75 + 6.0 * math.pi**2) * t) * s
            + (1.5 * math.pi * t * t - 3.0 * math.pi - 8.0 * math.pi**3) * c
        )

    return {0: d0, 1: d1, 2: d2, 3: d3}


def _f2_evals():
    def d0(t):
        return np.where(np.abs(t) <= 3.0, np.sin(math.pi * t) ** 2, 0.0)

    def d1(t):
        return np.where(np.abs(t) < 3.0, math.pi * np.sin(_TWO_PI * t), 0.0)

    def d2(t):
        return np.where(np.abs(t) < 3.0, 2.0 * math.pi**2 * np.cos(_TWO_PI * t), 0.0)

    return {0: d0, 1: d1, 2: d2}


def _f3_evals():
    def inside(t):
        return (t > -1.5) & (t < 3.0)

    evals = {0: lambda t: np.where(inside(t), -0.5 * _int_power(t, 3) + 2.0, 0.0)}
    for i, g in ((1, lambda t: -1.5 * t**2), (2, lambda t: -3.0 * t),
                 (3, lambda t: -3.0 + 0.0 * t)):
        evals[i] = (lambda gg: lambda t: np.where(inside(t), gg(t), 0.0))(g)
    return evals


def constant_signal() -> SignalSpec:
    evals = {0: lambda t: np.full_like(t, 1.0)}
    for i in range(1, 4):
        evals[i] = lambda t: np.zeros_like(t)
    return SignalSpec("const", evals, (-8.0, 8.0))


def monomial_signal(n: int) -> SignalSpec:
    """t^n with exact derivative channels 0..3 (unbounded; probe use only)."""
    _check_range("degree n", n, 0, integer=True)

    def make(i):
        if i > n:
            return lambda t: np.zeros_like(t)
        coef = math.perm(n, i)
        return lambda t: coef * _int_power(t, n - i)

    return SignalSpec(f"t^{n}", {i: make(i) for i in range(4)}, (-4.0, 4.0))


def catalog() -> list[SignalSpec]:
    return [
        SignalSpec("f1", _f1_evals(), (-12.0, 12.0)),
        SignalSpec("f2", _f2_evals(), (-3.0, 3.0), special_points=(-3.0, 3.0)),
        SignalSpec("f3", _f3_evals(), (-1.5, 3.0), special_points=(-1.5, 3.0)),
        constant_signal(),
        monomial_signal(1),
        monomial_signal(2),
    ]


def get_signal(id: str) -> SignalSpec:
    for spec in catalog():
        if spec.id == id:
            return spec
    raise KeyError(f"unknown signal {id!r}")


def read_signal_csv(path: str) -> SignalSpec:
    """Signal given by a CSV table of derivative values.

    Format: optional '#' comment lines, a header row t,f,f1,...,f<k>, then
    numeric rows of the same width, with at least 2 rows and distinct, finite
    t.  A value cell may be nan, which marks the channel undefined at that
    node.  Each channel takes the value of the nearest node (the lower one on
    a tie); there is no interpolation, so the sample grid must essentially
    match the tabulated nodes.  Raises ValueError for a malformed table.
    """
    with open(path, encoding="utf-8") as fh:
        lines = [ln.strip() for ln in fh]
    rows = [ln.split(",") for ln in lines if ln and not ln.startswith("#")]
    if not rows or rows[0][0].strip() != "t" or len(rows[0]) < 2:
        raise ValueError("expected a header row t,f[,f1,...]")
    width = len(rows[0])
    if any(len(row) != width for row in rows):
        raise ValueError(f"every row needs the header's {width} cells")
    data = np.array([[float(c) for c in row] for row in rows[1:]]).reshape(-1, width)
    data = data[np.argsort(data[:, 0])]
    ts = data[:, 0]
    if len(ts) < 2 or not np.all(np.isfinite(ts)) or np.any(ts[1:] == ts[:-1]):
        raise ValueError("the t column needs at least 2 distinct, finite values")

    def nearest(col):
        def ev(x):
            idx = np.clip(np.searchsorted(ts, x), 1, len(ts) - 1)
            return col[np.where(x - ts[idx - 1] <= ts[idx] - x, idx - 1, idx)]

        return ev

    evals = {i: nearest(data[:, i + 1]) for i in range(width - 1)}
    return SignalSpec(path, evals, (ts[0], ts[-1]))
