"""Shared fixtures, oracles and checks: kernel tables are comparatively
expensive to build, so the three worked configurations are session-scoped;
exact B-spline values come from the truncated-power formula, independent of
the library's Cox-de Boor triangle."""

import math
from fractions import Fraction

import pytest

from derivsamp.kernel import inv_symbol_coeffs
from derivsamp.smoothness import tau_modulus
from derivsamp.symbol import Kappa

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
