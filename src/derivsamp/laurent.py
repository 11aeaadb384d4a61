"""Laurent polynomials with exact rational coefficients.

Used for symbol matrices of the sampling problem: ring arithmetic, exact
determinants (cofactor / fraction-free Bareiss), and numeric certificates
that a polynomial does or does not vanish on the unit circle.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "LaurentPoly",
    "ZERO",
    "ONE",
    "Z",
    "laurent_det",
    "divexact",
    "CircleCertificate",
    "roots_unit_circle",
]

_GRID_N = 4096


@dataclass(frozen=True)
class LaurentPoly:
    """sum_k coeffs[k - low] * z^k, coefficients exact Fractions.

    Normalized: zero polynomial has low == 0 and empty coeffs; otherwise the
    first and last stored coefficients are nonzero.
    """

    low: int
    coeffs: tuple[Fraction, ...]

    @staticmethod
    def make(low: int, coeffs: Iterable) -> "LaurentPoly":
        cs = [Fraction(c) for c in coeffs]
        lead = 0
        while cs and cs[-1] == 0:
            cs.pop()
        while cs and cs[0] == 0:
            cs.pop(0)
            lead += 1
        if not cs:
            return LaurentPoly(0, ())
        return LaurentPoly(low + lead, tuple(cs))

    @staticmethod
    def from_terms(terms: Iterable[tuple[int, object]]) -> "LaurentPoly":
        d: dict[int, Fraction] = {}
        for k, c in terms:
            d[k] = d.get(k, Fraction(0)) + Fraction(c)
        if not d:
            return LaurentPoly(0, ())
        lo, hi = min(d), max(d)
        return LaurentPoly.make(lo, [d.get(k, Fraction(0)) for k in range(lo, hi + 1)])

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def high(self) -> int:
        if self.is_zero:
            raise ValueError("zero polynomial has no degree")
        return self.low + len(self.coeffs) - 1

    def coeff(self, k: int) -> Fraction:
        if self.is_zero or k < self.low or k > self.high:
            return Fraction(0)
        return self.coeffs[k - self.low]

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        if self.is_zero:
            return other
        if other.is_zero:
            return self
        lo = min(self.low, other.low)
        hi = max(self.high, other.high)
        return LaurentPoly.make(
            lo, [self.coeff(k) + other.coeff(k) for k in range(lo, hi + 1)]
        )

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly(self.low, tuple(-c for c in self.coeffs))

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        return self + (-other)

    def __mul__(self, other: "LaurentPoly") -> "LaurentPoly":
        if self.is_zero or other.is_zero:
            return ZERO
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return LaurentPoly.make(self.low + other.low, out)

    def scale(self, c) -> "LaurentPoly":
        c = Fraction(c)
        if c == 0 or self.is_zero:
            return ZERO
        return LaurentPoly(self.low, tuple(c * a for a in self.coeffs))

    def shift(self, k: int) -> "LaurentPoly":
        """Multiply by z^k."""
        if self.is_zero:
            return ZERO
        return LaurentPoly(self.low + k, self.coeffs)

    def eval_complex(self, z: complex) -> complex:
        if self.is_zero:
            return 0j
        acc = 0j
        for c in reversed(self.coeffs):
            acc = acc * z + complex(float(c))
        return acc * z ** self.low

    def eval_unit(self, t: float) -> complex:
        """Value at z = exp(2 pi i t)."""
        return self.eval_complex(cmath.exp(2j * math.pi * t))

    def eval_exact(self, z) -> Fraction:
        """Exact value at a rational z (z != 0 when low < 0)."""
        z = Fraction(z)
        if self.is_zero:
            return Fraction(0)
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * z + c
        return acc * z ** self.low

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


ZERO = LaurentPoly(0, ())
ONE = LaurentPoly(0, (Fraction(1),))
Z = LaurentPoly(1, (Fraction(1),))


def divexact(num: LaurentPoly, den: LaurentPoly) -> LaurentPoly:
    """Exact division in the Laurent ring; raises if den does not divide num."""
    if den.is_zero:
        raise ZeroDivisionError("division by zero polynomial")
    if num.is_zero:
        return ZERO
    a = list(num.coeffs)
    b = list(den.coeffs)
    if len(a) < len(b):
        raise ValueError(f"{den} does not divide {num}")
    # ascending-order synthetic division; b[0] != 0 after normalization
    q = [Fraction(0)] * (len(a) - len(b) + 1)
    for i in range(len(q)):
        q[i] = a[i] / b[0]
        if q[i] != 0:
            for j, bc in enumerate(b):
                a[i + j] -= q[i] * bc
    if any(c != 0 for c in a):
        raise ValueError(f"{den} does not divide {num}")
    return LaurentPoly.make(num.low - den.low, q)


def laurent_det(mat: Sequence[Sequence[LaurentPoly]]) -> LaurentPoly:
    """Exact determinant of a square matrix of Laurent polynomials.

    Cofactor expansion for n <= 4, fraction-free Bareiss elimination above
    (divisions in Bareiss are exact in an integral domain).
    """
    n = len(mat)
    if any(len(row) != n for row in mat):
        raise ValueError("matrix is not square")
    if n == 0:
        return ONE
    if n <= 4:
        return _det_cofactor([list(row) for row in mat])
    return _det_bareiss([list(row) for row in mat])


def _det_cofactor(m: list[list[LaurentPoly]]) -> LaurentPoly:
    n = len(m)
    if n == 1:
        return m[0][0]
    if n == 2:
        return m[0][0] * m[1][1] - m[0][1] * m[1][0]
    acc = ZERO
    for j in range(n):
        if m[0][j].is_zero:
            continue
        minor = [[m[i][k] for k in range(n) if k != j] for i in range(1, n)]
        term = m[0][j] * _det_cofactor(minor)
        acc = acc + term if j % 2 == 0 else acc - term
    return acc


def _det_bareiss(m: list[list[LaurentPoly]]) -> LaurentPoly:
    n = len(m)
    sign = 1
    prev = ONE
    for k in range(n - 1):
        if m[k][k].is_zero:
            swap = next((i for i in range(k + 1, n) if not m[i][k].is_zero), None)
            if swap is None:
                return ZERO
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = divexact(m[i][j] * m[k][k] - m[i][k] * m[k][j], prev)
            m[i][k] = ZERO
        prev = m[k][k]
    det = m[n - 1][n - 1]
    return det if sign == 1 else -det


# ---------------------------------------------------------------------------
# Unit-circle certificates
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CircleCertificate:
    """Numeric evidence about zeros of a Laurent polynomial on |z| = 1.

    verdict is one of "nonvanishing", "vanishing", "inconclusive":
    nonvanishing iff every root stays more than tol away from the circle in
    modulus; a root within tol of the circle gives "vanishing" when decisive
    (exact root at z = +-1, machine-level margin, or the grid minimum
    witnesses the zero), otherwise "inconclusive".
    """

    min_modulus: float
    argmin_t: float
    root_margin: float
    verdict: str


def roots_unit_circle(p: LaurentPoly, tol: float = 1e-9) -> CircleCertificate:
    """Locate roots of p relative to |z| = 1 and certify (non)vanishing."""
    if p.is_zero:
        raise ValueError("zero polynomial vanishes identically")
    c = [float(x) for x in p.coeffs]
    ts = np.arange(_GRID_N) / _GRID_N
    z = np.exp(2j * math.pi * ts)
    vals = np.abs(np.polynomial.polynomial.polyval(z, np.asarray(c)))
    imin = int(np.argmin(vals))
    min_modulus = float(vals[imin])
    argmin_t = float(ts[imin])
    scale = max(abs(x) for x in c)

    # exact check at z = +-1 first: catches the (1 -+ z) factors that carry
    # huge companion matrices past float accuracy
    exact_root_at = None
    for zr, tr in ((1, 0.0), (-1, 0.5)):
        if p.eval_exact(zr) == 0:
            exact_root_at = tr
            break
    if exact_root_at is not None:
        return CircleCertificate(min_modulus, argmin_t, 0.0, "vanishing")

    deg = len(c) - 1
    if deg == 0:
        return CircleCertificate(min_modulus, argmin_t, math.inf, "nonvanishing")
    roots = np.roots(np.asarray(c[::-1]))
    # polish roots near the circle: companion eigenvalues lose digits when the
    # coefficient range is large
    cs = np.asarray(c)
    dcs = cs[1:] * np.arange(1, deg + 1)
    for idx, r in enumerate(roots):
        if abs(abs(r) - 1.0) < 1e-3:
            for _ in range(4):
                fv = np.polynomial.polynomial.polyval(r, cs)
                dv = np.polynomial.polynomial.polyval(r, dcs)
                if dv == 0:
                    break
                r = r - fv / dv
            roots[idx] = r
    root_margin = float(np.min(np.abs(np.abs(roots) - 1.0)))

    if root_margin > tol:
        verdict = "nonvanishing"
    elif root_margin <= max(1e-12, 1e-12 * scale) or min_modulus >= tol:
        # margin at machine level, or all grid values clear tol: the root
        # location itself is the decisive witness
        verdict = "vanishing"
    else:
        # root within tol of the circle and the grid dips below tol, but
        # neither witness is decisive
        verdict = "inconclusive"
    return CircleCertificate(min_modulus, argmin_t, root_margin, verdict)

