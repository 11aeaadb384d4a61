"""Catalog of test signals with analytic derivatives and their singular points.

Three reference signals with progressively worse smoothness:

  f1  e^{-t^2/4} sin(2 pi t)      entire, rapidly decaying
  f2  sin^2(pi t) on |t| <= 3     C^1, second derivative jumps at +-3
  f3  -t^3/2 + 2 on (-1.5, 3)     discontinuous at the window ends

plus constant/monomial probes.  Each signal knows its derivative channels,
the points where a channel is undefined, and its special points, the known
discontinuities whose two sides the local-modulus search adds to its
candidates.  A TabulatedSignal reads its channels from a CSV table instead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "SignalSpec",
    "channel",
    "catalog",
    "get_signal",
    "constant_signal",
    "monomial_signal",
    "TabulatedSignal",
]

_TWO_PI = 2.0 * math.pi


class SignalSpec:
    """Immutable signal with derivative channels eval(i, t).

    Channels return NaN exactly at declared undefined points; one-sided
    values are returned arbitrarily close to them.
    """

    def __init__(self, id, evals, support_hint, undefined=None, special_points=()):
        self.id = id
        self._evals = dict(evals)
        self.max_deriv = max(self._evals)
        self.support_hint = (float(support_hint[0]), float(support_hint[1]))
        self._undefined = {i: tuple(p) for i, p in (undefined or {}).items()}
        self.special_points = tuple(sorted(special_points))

    def __repr__(self):
        return f"SignalSpec({self.id!r}, max_deriv={self.max_deriv})"

    def eval(self, i, t):
        if i not in self._evals:
            raise ValueError(f"signal {self.id!r} has no derivative channel {i}")
        x = np.asarray(t, dtype=float)
        scalar = x.ndim == 0
        out = np.asarray(self._evals[i](np.atleast_1d(x)), dtype=float).copy()
        for pt in self._undefined.get(i, ()):
            out[np.abs(np.atleast_1d(x) - pt) <= 1e-12 * max(1.0, abs(pt))] = np.nan
        return float(out[0]) if scalar else out.reshape(x.shape)

    def undefined_points(self, i) -> tuple[float, ...]:
        return self._undefined.get(i, ())


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
            (-(t**3) / 8.0 + (0.75 + 6.0 * math.pi**2) * t) * s
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

    evals = {0: lambda t: np.where(inside(t), -0.5 * t**3 + 2.0, 0.0)}
    for i, g in ((1, lambda t: -1.5 * t**2), (2, lambda t: -3.0 * t),
                 (3, lambda t: -3.0 + 0.0 * t)):
        evals[i] = (lambda gg: lambda t: np.where(inside(t), gg(t), 0.0))(g)
    return evals


def constant_signal(value: float = 1.0) -> SignalSpec:
    evals = {0: lambda t: np.full_like(t, float(value))}
    for i in range(1, 4):
        evals[i] = lambda t: np.zeros_like(t)
    return SignalSpec("const", evals, (-8.0, 8.0))


def monomial_signal(n: int, half_width: float = 4.0) -> SignalSpec:
    """t^n with exact derivative channels 0..3 (unbounded; probe use only)."""
    if n < 0:
        raise ValueError("degree must be nonnegative")

    def make(i):
        if i > n:
            return lambda t: np.zeros_like(t)
        coef = math.perm(n, i)
        return lambda t: coef * t ** (n - i)

    return SignalSpec(f"t^{n}", {i: make(i) for i in range(4)},
                      (-half_width, half_width))


def catalog() -> list[SignalSpec]:
    jump23 = {i: (-3.0, 3.0) for i in (1, 2)}
    jump3 = {i: (-1.5, 3.0) for i in (1, 2, 3)}
    return [
        SignalSpec("f1", _f1_evals(), (-12.0, 12.0)),
        SignalSpec("f2", _f2_evals(), (-3.0, 3.0), undefined=jump23,
                   special_points=(-3.0, 3.0)),
        SignalSpec("f3", _f3_evals(), (-1.5, 3.0), undefined=jump3,
                   special_points=(-1.5, 3.0)),
        constant_signal(),
        monomial_signal(1),
        monomial_signal(2),
    ]


def get_signal(id: str) -> SignalSpec:
    for spec in catalog():
        if spec.id == id:
            return spec
    raise KeyError(f"unknown signal {id!r}")


class TabulatedSignal:
    """Signal given by a CSV table of derivative values.

    Format: optional '#' comment lines, a header row t,f,f1,...,f<k>, then
    numeric rows of the same width.  Sampling is nearest-node only; no
    interpolation is done, so the sample grid must essentially match the
    tabulated nodes.
    """

    special_points: tuple[float, ...] = ()

    def __init__(self, ts: np.ndarray, cols: np.ndarray):
        order = np.argsort(ts)
        self.ts = np.asarray(ts, dtype=float)[order]
        self.cols = np.asarray(cols, dtype=float)[order]
        if len(self.ts) < 2:
            raise ValueError("tabulated signal needs at least 2 rows")
        self.max_deriv = self.cols.shape[1] - 1
        self.support_hint = (float(self.ts[0]), float(self.ts[-1]))

    @classmethod
    def from_csv(cls, path: str) -> "TabulatedSignal":
        with open(path, encoding="utf-8") as fh:
            lines = [ln.strip() for ln in fh]
        rows = [ln.split(",") for ln in lines if ln and not ln.startswith("#")]
        if not rows or rows[0][0].strip() != "t":
            raise ValueError("expected header row starting with 't'")
        width = len(rows[0])
        if any(len(row) != width for row in rows):
            raise ValueError(f"every row needs the header's {width} cells")
        data = np.array([[float(c) for c in row] for row in rows[1:]]).reshape(-1, width)
        return cls(data[:, 0], data[:, 1:])

    def undefined_points(self, i: int) -> tuple[float, ...]:
        return ()

    def eval(self, i: int, t):
        if not 0 <= i <= self.max_deriv:
            raise ValueError(f"tabulated signal has no channel {i}")
        x = np.atleast_1d(np.asarray(t, dtype=float))
        idx = np.searchsorted(self.ts, x)
        idx = np.clip(idx, 1, len(self.ts) - 1)
        left_closer = (x - self.ts[idx - 1]) <= (self.ts[idx] - x)
        nearest = np.where(left_closer, idx - 1, idx)
        vals = self.cols[nearest, i]
        return float(vals[0]) if np.ndim(t) == 0 else vals
