"""Symbol matrices for derivative sampling on B-spline spaces.

For a configuration kappa = (m, a, rho) the symbol is the rho x rho matrix of
Laurent polynomials

    Psi^{ij}(z) = sum_k Q_m^{(i)}(a + rho k - j) z^k,   0 <= i, j < rho,

built here with exact rational coefficients.  Every node a + rho k - j
has the fractional part u = a - floor(a), so every coefficient is one of the
m values Q_m^{(i)}(u + p), 0 <= p < m, read off one exact Cox-de Boor
triangle (`exact_lattice_values`).  Invertibility of Psi on the unit circle
is equivalent to stable reconstruction from samples of f, f', ...,
f^{(rho-1)} on (a + rho Z); `check_cis` decides it exactly from the
determinant's rational coefficients.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .bspline import exact_lattice_values
from .laurent import (
    CircleCertificate,
    LaurentPoly,
    laurent_det,
    roots_unit_circle,
)

__all__ = [
    "Kappa",
    "SymbolMatrix",
    "CisReport",
    "ScanRow",
    "build_symbol",
    "det_symbol",
    "check_cis",
    "table_polynomial",
    "scan_assumption1",
    "predicted_cis_shift",
    "ruiz_sum",
    "binom_convolution_sum",
    "spline_pascal_sum",
    "check_identity_lemmas",
]


@dataclass(frozen=True)
class Kappa:
    """Sampling configuration: spline order m, shift a in [0, rho), density rho.

    rho derivative channels 0..rho-1 are sampled on the lattice a + rho Z.
    Requires m > rho so that channel rho-1 uses a continuous derivative.
    """

    m: int
    a: Fraction
    rho: int

    def __post_init__(self):
        if not isinstance(self.m, int) or not isinstance(self.rho, int):
            raise ValueError("m and rho must be integers")
        if self.rho < 1:
            raise ValueError(f"rho must be >= 1, got {self.rho}")
        if self.m <= self.rho:
            raise ValueError(f"need m > rho, got m={self.m}, rho={self.rho}")
        object.__setattr__(self, "a", Fraction(self.a))
        if not 0 <= self.a < self.rho:
            raise ValueError(f"shift a must lie in [0, rho), got {self.a}")

    def __str__(self) -> str:
        return f"(Q_{self.m}, a={self.a}, rho={self.rho})"


@dataclass(frozen=True)
class SymbolMatrix:
    kappa: Kappa
    entries: tuple[tuple[LaurentPoly, ...], ...]  # [i][j]

    def eval_grid(self, t: np.ndarray) -> np.ndarray:
        """Evaluate at z = exp(2 pi i t); returns array (len(t), rho, rho)."""
        t = np.asarray(t, dtype=float)
        rho = self.kappa.rho
        z = np.exp(2j * math.pi * t)
        out = np.empty(t.shape + (rho, rho), dtype=complex)
        for i in range(rho):
            for j in range(rho):
                p = self.entries[i][j]
                if p.is_zero:
                    out[..., i, j] = 0.0
                else:
                    c = np.asarray([float(x) for x in p.coeffs])
                    out[..., i, j] = np.polynomial.polynomial.polyval(z, c) * z ** p.low
        return out


def build_symbol(kappa: Kappa) -> SymbolMatrix:
    """Exact symbol matrix of kappa."""
    m, a, rho = kappa.m, kappa.a, kappa.rho
    shift = math.floor(a)
    vals = exact_lattice_values(m, a - shift, rho - 1)
    rows = []
    for i in range(rho):
        row = []
        for j in range(rho):
            # node a + rho k - j = u + p with p = shift + rho k - j; the
            # support needs 0 <= p < m, and k_lo is the least k with p >= 0
            k_lo = -((shift - j) // rho)
            p0 = shift + rho * k_lo - j
            row.append(LaurentPoly.make(k_lo, vals[i][p0::rho]))
        rows.append(tuple(row))
    return SymbolMatrix(kappa, tuple(rows))


def det_symbol(kappa: Kappa) -> LaurentPoly:
    return laurent_det(build_symbol(kappa).entries)


@dataclass(frozen=True)
class CisReport:
    kappa: Kappa
    symbol: SymbolMatrix
    det: LaurentPoly
    certificate: CircleCertificate
    is_cis: bool


def check_cis(kappa: Kappa) -> CisReport:
    """Certify whether kappa admits stable reconstruction (det Psi nonzero on
    the circle); the report keeps the symbol it certified."""
    sym = build_symbol(kappa)
    det = laurent_det(sym.entries)
    if det.is_zero:
        cert = CircleCertificate(0.0, 0.0, 0.0, "vanishing")
    else:
        cert = roots_unit_circle(det)
    return CisReport(kappa, sym, det, cert, cert.verdict == "nonvanishing")


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
    det = det_symbol(kappa)
    if a == 0:
        pref = Fraction(2 ** (m - 2), math.factorial(m - 1) * math.factorial(m - 2))
        e = 2
    else:
        pref = Fraction(6, math.factorial(m - 1) * math.factorial(m - 2) * 2 ** (2 * m - 3))
        e = 1
    quotient = det.scale(1 / pref).shift(-e)
    if quotient.is_zero or quotient.low != 0:
        raise ValueError(
            f"determinant of {kappa} does not factor as prefactor * z^{e} * P(z): "
            f"det = {det}"
        )
    if any(c.denominator != 1 for c in quotient.coeffs):
        raise ValueError(
            f"factor polynomial for {kappa} has non-integer coefficients: {quotient}"
        )
    sign = _TABLE_SIGN.get((a == Fraction(1, 2), m), 1)
    return quotient if sign == 1 else -quotient


# --- shift-placement rule scan ---------------------------------------------


def predicted_cis_shift(m: int, rho: int) -> Fraction:
    """Conjectured unique a in {0, 1/2} giving CIS for (Q_m, a, rho):
    <(rho+1)/2> for even m, <rho/2> for odd m (<x> = fractional part)."""
    if m % 2 == 0:
        return Fraction(rho + 1, 2) % 1
    return Fraction(rho, 2) % 1


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


# --- exact identities behind the maximal-density case ----------------------


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
