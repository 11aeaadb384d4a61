"""Symbol matrices for derivative sampling on B-spline spaces.

For a configuration kappa = (m, a, rho) the symbol is the rho x rho matrix of
Laurent polynomials

    Psi^{ij}(z) = sum_k Q_m^{(i)}(a + rho k - j) z^k,   0 <= i, j < rho,

built here with exact rational coefficients.  Every node a + rho k - j
has the fractional part u = a - floor(a), so every coefficient is one of the
m values Q_m^{(i)}(u + p), 0 <= p < m, read off one exact Cox-de Boor
triangle (`bspline._triangle`) as an integer numerator over one
denominator per derivative order i: row i of the symbol is integer Laurent
polynomials over that denominator.  Invertibility of Psi on the unit circle
is equivalent to stable reconstruction from samples of f, f', ...,
f^{(rho-1)} on (a + rho Z); `check_cis` decides it exactly from the
determinant's integer numerators.  It is the one place that decides CIS:
the kernel build calls it too, while the factored tables read the
determinant alone.  The certificate's float diagnostics (grid minimum of
|det| and root margin) are computed only when a report's `certificate` is
read.  Float values of the symbol on the circle, for the frame constants
and the inverse-symbol coefficients, come from `laurent.circle_values`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .bspline import _check_range, _show, _triangle
from .laurent import (
    CircleCertificate,
    LaurentPoly,
    _certificate,
    _vanishes_on_circle,
    laurent_det,
)

__all__ = [
    "Kappa",
    "CisReport",
    "ScanRow",
    "build_symbol",
    "NotCISError",
    "check_cis",
    "table_polynomial",
    "scan_assumption1",
    "predicted_cis_shift",
]


@dataclass(frozen=True)
class Kappa:
    """Sampling configuration: spline order m, shift a in [0, rho), density rho.

    rho derivative channels 0..rho-1 are sampled on the lattice a + rho Z.
    Requires m > rho so that channel rho-1 uses a continuous derivative.
    m and rho may be numpy integers; they are stored as int.
    """

    m: int
    a: Fraction
    rho: int

    def __post_init__(self):
        _check_range("density rho", self.rho, 1, integer=True)
        _check_range("spline order m", self.m, self.rho + 1, integer=True,
                     got=f"m={_show(self.m)}, rho={self.rho!r}")
        object.__setattr__(self, "m", int(self.m))
        object.__setattr__(self, "rho", int(self.rho))
        object.__setattr__(self, "a", Fraction(self.a))
        _check_range("shift a", self.a, 0, self.rho, open_hi=True, got=f"a={_show(self.a, str)}")

    def __str__(self) -> str:
        return f"(Q_{self.m}, a={self.a}, rho={self.rho})"


def build_symbol(kappa: Kappa) -> tuple[tuple[LaurentPoly, ...], ...]:
    """Exact symbol of kappa as its rows: entry [i][j] is Psi^{ij}, and row
    i has one denominator."""
    m, a, rho = kappa.m, kappa.a, kappa.rho
    # Kappa has checked m > rho >= 1 and 0 <= a < rho; u = a - shift keeps
    # a's denominator, in lowest terms
    shift = a.numerator // a.denominator
    nums, dens = _triangle(m, a.numerator - shift * a.denominator, a.denominator, rho - 1)
    # node a + rho k - j = u + p with p = shift + rho k - j; the support
    # needs 0 <= p < m, and column j starts at the least k with p >= 0
    k_lo = [-((shift - j) // rho) for j in range(rho)]
    p0 = [shift + rho * k - j for j, k in enumerate(k_lo)]
    return tuple(
        tuple(LaurentPoly.make(k, num[p::rho], den) for k, p in zip(k_lo, p0))
        for num, den in zip(nums, dens)
    )


@dataclass(frozen=True)
class CisReport:
    kappa: Kappa
    symbol: tuple[tuple[LaurentPoly, ...], ...]  # build_symbol(kappa)
    det: LaurentPoly
    is_cis: bool

    @cached_property
    def certificate(self) -> CircleCertificate:
        """The verdict with its float diagnostics, computed when first read."""
        if self.det.is_zero:
            return CircleCertificate(0.0, 0.0, 0.0, "vanishing")
        return _certificate(self.det, "nonvanishing" if self.is_cis else "vanishing")


class NotCISError(ValueError):
    """kappa is not CIS: det Psi vanishes on |z| = 1, an exact verdict."""

    def __init__(self, kappa: Kappa):
        super().__init__(f"{kappa} is not a stable sampling configuration: det vanishes on |z|=1")


def check_cis(kappa: Kappa) -> CisReport:
    """Decide exactly whether kappa admits stable reconstruction (det Psi
    nonzero on the circle); the report keeps the symbol it decided on."""
    sym = build_symbol(kappa)
    det = laurent_det(sym)
    return CisReport(kappa, sym, det, not det.is_zero and not _vanishes_on_circle(det))


# --- factored determinant tables for rho = 2, a in {0, 1/2} ----------------

# The published tables fix an overall orientation of the factored polynomial
# per row; the determinant itself carries the opposite sign for some m in the
# half-shift family.  _TABLE_SIGN[(a_is_half, m)] converts det/(prefactor z^e)
# to the published orientation; values established against exact determinants.
_TABLE_SIGN: dict[tuple[bool, int], int] = {
    (True, 3): -1,
    (True, 4): -1,
    (True, 6): -1,
    (True, 8): -1,
}


def table_polynomial(kappa: Kappa) -> LaurentPoly:
    """Factor det Psi as prefactor * z^e * P(z) for rho = 2, a in {0, 1/2}
    and return P with integer coefficients (published orientation).

    a = 0:   det = 2^{m-2} / ((m-1)! (m-2)!) * z^2 * P_{m-3}(z)
    a = 1/2: det = 6 / ((m-1)! (m-2)! 2^{2m-3}) * z * P~_{m-2}(z)
    """
    m, a, rho = kappa.m, kappa.a, kappa.rho
    if rho != 2 or a not in (Fraction(0), Fraction(1, 2)):
        raise ValueError(f"no table factorization for {kappa}")
    det = laurent_det(build_symbol(kappa))
    # prefactor = pref_num / pref_den
    if a == 0:
        pref_num, pref_den = 2 ** (m - 2), math.factorial(m - 1) * math.factorial(m - 2)
        e = 2
    else:
        pref_num, pref_den = 6, math.factorial(m - 1) * math.factorial(m - 2) * 2 ** (2 * m - 3)
        e = 1
    quotient = LaurentPoly(det.low - e, tuple(pref_den * c for c in det.coeffs), det.den * pref_num)
    if quotient.is_zero or quotient.low != 0:
        raise ValueError(
            f"determinant of {kappa} does not factor as prefactor * z^{e} * P(z): "
            f"det = {det}"
        )
    if any(c % quotient.den for c in quotient.coeffs):
        raise ValueError(
            f"factor polynomial for {kappa} has non-integer coefficients: {quotient}"
        )
    sign = _TABLE_SIGN.get((a == Fraction(1, 2), m), 1)
    return LaurentPoly(0, tuple(sign * c // quotient.den for c in quotient.coeffs))


# --- shift-placement rule scan ---------------------------------------------


def predicted_cis_shift(m: int, rho: int) -> Fraction:
    """Conjectured unique a in {0, 1/2} giving CIS for (Q_m, a, rho), by the
    parity law: the a with 2a + m - rho odd.  The conjecture is that det Psi
    vanishes on the circle exactly when 2a + m - rho is an even integer."""
    return Fraction((m + rho + 1) % 2, 2)


@dataclass(frozen=True)
class ScanRow:
    m: int
    a: Fraction
    rho: int
    is_cis: bool
    predicted: bool
    agree: bool


def scan_assumption1(m_max: int, rho_max: int) -> list[ScanRow]:
    """Exhaustive CIS scan over 2 <= rho <= rho_max, rho < m <= m_max,
    a in {0, 1/2}, compared against the predicted shift placement."""
    rows = []
    for rho in range(2, rho_max + 1):
        for m in range(rho + 1, m_max + 1):
            for a in (Fraction(0), Fraction(1, 2)):
                is_cis = check_cis(Kappa(m, a, rho)).is_cis
                predicted = a == predicted_cis_shift(m, rho)
                rows.append(ScanRow(m, a, rho, is_cis, predicted, is_cis == predicted))
    return rows

