"""Exact Laurent polynomials (integer numerators over one denominator),
determinants, the unit-circle zero certificate, and the Fraction ring of the
test reference."""

import math
from fractions import Fraction

import numpy as np
import pytest

from derivsamp.laurent import (
    LaurentPoly,
    _certificate,
    _coprime_to_reverse,
    _gcd,
    _vanishes_on_circle,
    circle_values,
    laurent_det,
)
from derivsamp.symbol import Kappa, build_symbol

from conftest import (
    ONE,
    ZERO,
    Z,
    FracPoly,
    circle_min_modulus_reference,
    det_symbol,
    eval_complex,
    eval_exact,
    eval_unit,
    frac_det,
    lp,
    to_frac,
    to_laurent,
    vanishes_on_circle_reference,
)


def _random_poly(rng) -> FracPoly:
    low = int(rng.integers(-4, 5))
    n = int(rng.integers(1, 7))
    coeffs = [
        Fraction(int(rng.integers(-9, 10)), int(rng.integers(1, 10)))
        for _ in range(n)
    ]
    return FracPoly.make(low, coeffs)


def test_ring_axioms():
    rng = np.random.default_rng(21)
    for _ in range(500):
        a, b, c = (_random_poly(rng) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + ZERO == a
        assert a * ONE == a
        assert a - a == ZERO


def test_shift_and_scale():
    rng = np.random.default_rng(22)
    for _ in range(50):
        a = _random_poly(rng)
        assert a.shift(3) == a * Z * Z * Z
        assert a.scale(Fraction(2)) == a + a
        assert a.shift(2).shift(-2) == a


def test_evaluation_homomorphism():
    rng = np.random.default_rng(23)
    for _ in range(100):
        a, b = _random_poly(rng), _random_poly(rng)
        t = float(rng.uniform(0, 1))
        z = complex(math.cos(2 * math.pi * t), math.sin(2 * math.pi * t))
        lhs = eval_complex(to_laurent(a * b), z)
        rhs = eval_complex(to_laurent(a), z) * eval_complex(to_laurent(b), z)
        assert abs(lhs - rhs) <= 1e-9 * (1 + abs(rhs))
        assert abs(eval_unit(to_laurent(a), t) - eval_complex(to_laurent(a), z)) <= 1e-10 * (1 + abs(lhs))


def test_eval_exact_rational():
    p = lp(-1, [Fraction(1, 2), Fraction(0), Fraction(3)])
    z = Fraction(2, 3)
    # (1/2) z^-1 + 3 z = 3/4 + 2
    assert eval_exact(p, z) == Fraction(3, 4) + Fraction(2)


def test_coeff_accessors():
    p = LaurentPoly.make(-2, [10, 0, -2], 2)
    assert p.low == -2 and p.high == 0
    assert p.coeffs == (10, 0, -2) and p.den == 2
    # normalization strips zero fringes
    q = LaurentPoly.make(0, [0, 1, 0])
    assert q.low == 1 and q.coeffs == (1,) and q.den == 1
    assert LaurentPoly.make(3, [0, 0], 5).is_zero
    # == and hash compare values: 10/2 z^-2 - 2/2 = 5 z^-2 - 1
    same = LaurentPoly(-2, (5, 0, -1))
    assert p == same and hash(p) == hash(same)
    assert p != LaurentPoly(-2, (5, 0, 1)) and p != p.shift(1)
    assert LaurentPoly(0, (), 3) == LaurentPoly(0, ())
    assert str(p) == "-1 + 5z^-2" and str(LaurentPoly(1, (-3, 4), 6)) == "2/3z^2 - 1/2z"


def test_circle_values_rejects_bad_grid():
    p = LaurentPoly(0, (1, 2))
    for n in (0, -4, 2.5):
        with pytest.raises(ValueError, match="grid size"):
            circle_values(p, n)


def test_coefficient_floats_are_rounded_once():
    # int / int rounds correctly, so each value is the float(Fraction) of
    # the parent's Fraction coefficients, numerators past 2^53 included
    for c, den in ((1, 3), (-(7**25), 6), (3**40 + 1, 3**33 * 2**7), (2**80 + 1, 5**30)):
        got = circle_values(LaurentPoly(0, (c,), den), 1)
        assert got.real.tobytes() == np.array([float(Fraction(c, den))]).tobytes()


def _frac_matrix(rng, n):
    return [
        [
            FracPoly.make(
                int(rng.integers(-1, 2)),
                [Fraction(int(rng.integers(-4, 5))) for _ in range(int(rng.integers(1, 3)))],
            )
            for _ in range(n)
        ]
        for _ in range(n)
    ]


def _det(mat) -> FracPoly:
    """laurent_det of a FracPoly matrix, back in the ring."""
    return to_frac(laurent_det([[to_laurent(p) for p in row] for row in mat]))


def test_determinant_against_cofactor_oracle():
    rng = np.random.default_rng(25)
    for n in (1, 2, 3, 4, 5):
        for _ in range(8):
            mat = _frac_matrix(rng, n)
            assert _det(mat) == frac_det(mat)
        # rational coefficients with unlike denominators in every row
        mat = [[_random_poly(rng) for _ in range(n)] for _ in range(n)]
        assert _det(mat) == frac_det(mat)
    # symbol matrices: one denominator per row, rho = 2..5
    for m, a, rho in ((5, Fraction(1, 3), 2), (6, Fraction(5, 6), 3),
                      (7, Fraction(2, 5), 4), (8, Fraction(7, 4), 5)):
        mat = [list(row) for row in build_symbol(Kappa(m, a, rho))]
        want = frac_det([[to_frac(p) for p in row] for row in mat])
        assert not want.is_zero
        det = laurent_det(mat)
        assert to_frac(det) == want
        # the product of the row denominators, with no rescale
        assert det.den == math.prod(row[0].den for row in mat)
        # a zero pivot forces a row swap
        mat[0][0] = LaurentPoly(0, (), mat[0][0].den)
        assert to_frac(laurent_det(mat)) == frac_det([[to_frac(p) for p in row] for row in mat])
        # an all-zero row
        mat[1] = [LaurentPoly(0, ())] * rho
        assert laurent_det(mat).is_zero
    assert laurent_det([]) == LaurentPoly(0, (1,))


def test_determinant_columns_with_unlike_least_exponents():
    # column 0 spans z^-3..z^1, column 1 z^2..z^5, column 2 z^-1..z^0
    p = FracPoly.make
    mat = [
        [p(-3, [1, 0, Fraction(1, 2)]), p(2, [3, 1]), p(-1, [2, -1])],
        [p(1, [Fraction(-1, 3)]), p(4, [1, 0, 2]), p(0, [Fraction(5, 7)])],
        [p(-2, [4, 1, 0, 0, 1]), p(5, [-2]), p(-1, [1])],
    ]
    want = frac_det(mat)
    assert not want.is_zero
    assert _det(mat) == want
    rng = np.random.default_rng(27)
    for n in (2, 3, 4):
        for _ in range(6):
            mat = [[_random_poly(rng).shift(int(rng.integers(-6, 7))) for _ in range(n)]
                   for _ in range(n)]
            assert _det(mat) == frac_det(mat)


def test_determinant_all_zero_column():
    rng = np.random.default_rng(28)
    for n in (1, 2, 3, 4):
        for col in range(n):
            mat = _frac_matrix(rng, n)
            for row in mat:
                row[col] = ZERO
            det = laurent_det([[to_laurent(p) for p in row] for row in mat])
            assert det.is_zero and det == LaurentPoly(0, ())


def test_determinant_row_swap_flips_sign():
    rng = np.random.default_rng(26)
    mat = _frac_matrix(rng, 4)
    swapped = [mat[1], mat[0]] + mat[2:]
    assert _det(swapped) == -_det(mat)


def test_determinant_triangular():
    d = [FracPoly.make(1, [Fraction(k + 2)]) for k in range(3)]
    mat = [
        [d[0], Z, ONE],
        [ZERO, d[1], Z],
        [ZERO, ZERO, d[2]],
    ]
    assert _det(mat) == d[0] * d[1] * d[2]


def test_determinant_packed_digits():
    # laurent_det packs each entry into its value at 2^K and unpacks the
    # determinant's coefficients as balanced base-2^K digits
    big = 2**70
    rng = np.random.default_rng(32)
    mixed = 0
    for n in (2, 3):
        for _ in range(10):
            # mixed signs near +-2^70: the determinant's negative coefficients
            # borrow from the digit above
            mat = [[FracPoly.make(int(rng.integers(-2, 3)),
                                  [Fraction(int(rng.choice([-1, 1])) * (big + int(rng.integers(-9, 10))))
                                   for _ in range(int(rng.integers(1, 4)))])
                    for _ in range(n)] for _ in range(n)]
            want = frac_det(mat)
            assert not want.is_zero
            mixed += min(want.coeffs) < 0 < max(want.coeffs)
            assert _det(mat) == want
    assert mixed >= 10
    # every entry nonzero, determinant zero: row 2 is row 0 times a
    # polynomial plus row 1, and a 2 x 2 one cancels the same way
    p = FracPoly.make
    r = [p(-1, [3, -big]), p(2, [Fraction(1, 7), 5]), p(0, [big + 1, 0, -2])]
    s = [p(1, [-4]), p(-2, [2, 2, Fraction(-5, 3)]), p(0, [1, 1])]
    f = p(-1, [2, 0, -1])
    mat = [r, s, [f * x + y for x, y in zip(r, s)]]
    assert all(not e.is_zero for row in mat for e in row)
    assert frac_det(mat).is_zero and _det(mat).is_zero
    assert _det([r[:2], [f * x for x in r[:2]]]).is_zero
    # unlike denominators within every row
    mat = [[p(0, [Fraction(1, 3), Fraction(-5, 4)]), p(1, [Fraction(7, 10)])],
           [p(-1, [Fraction(2, 9), Fraction(1, 6)]), p(0, [Fraction(-3, 8), big])]]
    assert _det(mat) == frac_det(mat)
    # 1 x 1: the entry itself, over its own denominator; 0 x 0: one
    q = LaurentPoly(-3, (-(big + 1), 0, big - 5), 6)
    det = laurent_det([[q]])
    assert (det.low, det.coeffs, det.den) == (q.low, q.coeffs, q.den)
    assert to_frac(laurent_det([[to_laurent(r[1])]])) == r[1]
    empty = laurent_det([])
    assert (empty.low, empty.coeffs, empty.den) == (0, (1,), 1)


def test_determinant_zero_entries_in_shifted_columns():
    # a zero entry is held at exponent 0, below a column whose least
    # exponent is positive: it enters the packed matrix as 0, never shifted
    # by a negative number of places
    p = FracPoly.make
    mat = [[p(2, [1]), ZERO], [ZERO, p(3, [1])]]
    assert _det(mat) == p(5, [1]) == frac_det(mat)
    # a zero that carries its row's denominator, as the symbol's do
    det = laurent_det([[LaurentPoly(2, (3,), 7), LaurentPoly(0, (), 7)],
                       [LaurentPoly(0, (), 5), LaurentPoly(3, (2, 1), 5)]])
    assert to_frac(det) == p(5, [Fraction(6, 35), Fraction(3, 35)])
    # 3 x 3: least exponents 2, 1 and 4, a zero in every column, and rows
    # whose entries have unlike denominators
    mat = [
        [p(2, [Fraction(1, 3), 2]), ZERO, p(4, [Fraction(-5, 6)])],
        [ZERO, p(1, [Fraction(7, 4), 0, 1]), p(5, [3, Fraction(1, 2)])],
        [p(3, [Fraction(-2, 5)]), p(2, [Fraction(1, 9)]), ZERO],
    ]
    want = frac_det(mat)
    assert not want.is_zero
    assert _det(mat) == want


def _poly_from_roots(roots, scale=Fraction(1)) -> LaurentPoly:
    p = ONE.scale(scale)
    for r in roots:
        if isinstance(r, tuple):  # conjugate pair r = (radius, cos_angle)
            rad, c = r
            p = p * FracPoly.make(
                0,
                [Fraction(rad) ** 2, -2 * Fraction(c) * Fraction(rad), Fraction(1)],
            )
        else:
            p = p * FracPoly.make(0, [-Fraction(r), Fraction(1)])
    return to_laurent(p)


def _certify(p: LaurentPoly):
    """The certificate of the nonzero p, as `CisReport.certificate` builds
    it for a determinant: the exact verdict and its float diagnostics."""
    return _certificate(p, "vanishing" if _vanishes_on_circle(p) else "nonvanishing")


def test_circle_certificate_detects_on_circle_roots():
    rng = np.random.default_rng(27)
    for _ in range(25):
        # one exact root at z = 1 or z = -1 plus off-circle noise roots
        on = 1 if rng.integers(2) else -1
        noise = [(Fraction(3, 2), Fraction(int(rng.integers(-5, 6)), 10))]
        p = _poly_from_roots([on] + noise)
        cert = _certify(p)
        assert cert.verdict == "vanishing"
        assert cert.min_modulus <= 1e-9
    # conjugate pair exactly on the circle (float cosine, still machine-close)
    for k in (1, 7, 100):
        c = Fraction(math.cos(2 * math.pi * k / 4096))
        p = lp(0, [Fraction(1), -2 * c, Fraction(1)])
        cert = _certify(p)
        assert cert.verdict == "vanishing"
    # double conjugate pair on the circle, (z^2 - 6/5 z + 1)^2
    pair = (Fraction(1), Fraction(3, 5))
    assert _certify(_poly_from_roots([pair, pair])).verdict == "vanishing"


def test_circle_certificate_clears_off_circle_roots():
    rng = np.random.default_rng(28)
    for _ in range(25):
        roots = []
        for _ in range(int(rng.integers(1, 4))):
            rad = Fraction(9, 10) if rng.integers(2) else Fraction(11, 10)
            roots.append((rad, Fraction(int(rng.integers(-9, 10)), 10)))
        p = _poly_from_roots(roots)
        cert = _certify(p)
        assert cert.verdict == "nonvanishing"
        assert cert.min_modulus > 0
        assert cert.root_margin > 1e-3
    # roots 1e-10 and 1e-13 off the circle, closer than float roots resolve
    for eps in (Fraction(1, 10**10), Fraction(1, 10**13)):
        r = 1 + eps
        for roots in ([r, 1 / r], [(r, Fraction(3, 5))]):
            assert _certify(_poly_from_roots(roots)).verdict == "nonvanishing"


def test_circle_certificate_monomial():
    # z^k never vanishes on the circle
    cert = _certify(to_laurent(Z * Z))
    assert cert.verdict == "nonvanishing"
    assert cert.min_modulus == pytest.approx(1.0, abs=1e-12)


def test_circle_certificate_min_modulus_matches_full_grid():
    # off-circle roots as above, random Laurent polynomials, and symbol
    # determinants; the half-circle minimum equals the full 4096-point one
    rng = np.random.default_rng(30)
    polys = []
    for _ in range(25):
        roots = []
        for _ in range(int(rng.integers(1, 4))):
            rad = Fraction(9, 10) if rng.integers(2) else Fraction(11, 10)
            roots.append((rad, Fraction(int(rng.integers(-9, 10)), 10)))
        polys.append(_poly_from_roots(roots))
    polys += [to_laurent(_random_poly(rng)) for _ in range(25)]
    polys += [det_symbol(kappa) for kappa in (
        Kappa(4, Fraction(1, 2), 2), Kappa(7, Fraction(1, 3), 2),
        Kappa(12, Fraction(1, 3), 2), Kappa(12, Fraction(2, 5), 5),
    )]
    for p in polys:
        cert = _certify(p)
        assert cert.verdict == "nonvanishing", str(p)
        want = circle_min_modulus_reference(p)
        assert cert.min_modulus == pytest.approx(want, rel=1e-12, abs=0), str(p)
        # the point w_s = exp(-2 pi i argmin_t) of circle_values, s <= n/2
        assert 0 <= cert.argmin_t <= 0.5
        assert abs(eval_unit(p, -cert.argmin_t)) == pytest.approx(cert.min_modulus, rel=1e-12)


def test_dominant_coeff_sufficient_condition():
    strong = lp(0, [Fraction(1), Fraction(-10), Fraction(1)])
    assert _certify(strong).verdict == "nonvanishing"


def _reference_verdict(p: LaurentPoly) -> str:
    return "vanishing" if vanishes_on_circle_reference(list(to_frac(p).coeffs)) else "nonvanishing"


def _random_rational(rng, deg: int, gap: bool = False) -> FracPoly:
    """Degree-deg polynomial with random nonzero rational coefficients, the
    leading one of random sign; with gap, the two coefficients below the
    leading one are zero (deg >= 3)."""
    coeffs = []
    for k in range(deg + 1):
        num = int(rng.integers(1, 10)) * (1 if rng.integers(2) else -1)
        coeffs.append(Fraction(num, int(rng.integers(1, 8))))
    if gap:
        coeffs[deg - 2 : deg] = [Fraction(0), Fraction(0)]
    return FracPoly.make(0, coeffs)


def test_circle_certificate_matches_fraction_oracle():
    # determinants from the certify grid (rho 2-5, m <= 12, q <= 6)
    rng = np.random.default_rng(29)
    verdicts = set()
    for _ in range(40):
        rho = int(rng.integers(2, 6))
        m = int(rng.integers(rho + 1, 13))
        q = int(rng.integers(1, 7))
        a = Fraction(int(rng.integers(0, rho * q)), q)
        det = det_symbol(Kappa(m, a, rho))
        verdict = _certify(det).verdict
        assert verdict == _reference_verdict(det), (m, a, rho)
        verdicts.add(verdict)
    assert verdicts == {"vanishing", "nonvanishing"}
    # random rational polynomials: plain; with a self-reciprocal factor
    # z^k h(z + 1/z), where h lacks the two terms below its leading one, so
    # the Sturm sequence of h drops two degrees from h' to the next remainder
    # (an odd pseudo-remainder exponent); and that times an on-circle factor
    # z^2 - 2cz + 1 with |c| < 1
    x = FracPoly.make(-1, [Fraction(1), Fraction(0), Fraction(1)])
    counts = {"vanishing": 0, "nonvanishing": 0}
    for trial in range(300):
        p = _random_rational(rng, int(rng.integers(0, 6)))
        kind = trial % 3
        if kind >= 1:
            h = _random_rational(rng, int(rng.integers(3, 7)), gap=True)
            g, xj = ZERO, ONE
            for c in h.coeffs:
                g, xj = g + xj.scale(c), xj * x
            p = p * g
        if kind == 2:
            den = int(rng.integers(2, 12))
            c = Fraction(int(rng.integers(1 - den, den)), den)
            p = p * FracPoly.make(0, [Fraction(1), -2 * c, Fraction(1)])
        p = to_laurent(p.shift(int(rng.integers(-3, 4))))
        want = _reference_verdict(p)
        assert _certify(p).verdict == want, str(p)
        counts[want] += 1
    assert min(counts.values()) >= 50


def test_integer_gcd_step_on_certify_grid():
    # every determinant of the certify grid (rho 2-5, m <= 12, q <= 6): the
    # one integer gcd never claims q coprime to its reverse where their
    # polynomial gcd has positive degree, and it decides every determinant
    # that is neither palindromic nor anti-palindromic
    decided = 0
    for rho in (2, 3, 4, 5):
        shifts = sorted({Fraction(p, q) for q in range(1, 7) for p in range(rho * q)})
        for m in range(rho + 1, 13):
            for a in shifts:
                q = list(det_symbol(Kappa(m, a, rho)).coeffs)
                rev = q[::-1]
                if _coprime_to_reverse(q):
                    assert len(_gcd(q, rev)) == 1, (m, a, rho)
                    decided += 1
                else:
                    assert q in (rev, [-c for c in rev]), (m, a, rho)
    # the 1140 asymmetric determinants and the 14 monomials of 1368
    assert decided == 1154


def test_integer_gcd_step_falls_through():
    # (z - 2)(2z - 1)(z + 3): the reciprocal pair 2, 1/2 is a common factor
    # with the reverse, off the circle
    p = LaurentPoly.make(0, [6, -13, 1, 2])
    assert not _coprime_to_reverse(list(p.coeffs))
    assert not _vanishes_on_circle(p)
    assert _reference_verdict(p) == "nonvanishing"
    # (z^2 - z + 1)(z + 3): zeros e^{+-i pi/3}, on the circle but off +-1, so
    # the Sturm count decides
    p = LaurentPoly.make(0, [3, -2, 2, 1])
    assert not _coprime_to_reverse(list(p.coeffs))
    assert all(sum(c * z**k for k, c in enumerate(p.coeffs)) for z in (1, -1))
    assert _vanishes_on_circle(p)
    assert _reference_verdict(p) == "vanishing"


def test_integer_gcd_step_is_sound_on_random_polynomials():
    # seeded products of palindromes z^2 + c z + 1 (zeros on or off the
    # circle), zeros at +-1, factors with coefficients above 2^60 and small
    # random ones: a True must mean that q and its reverse are coprime
    rng = np.random.default_rng(43)
    seen = {True: 0, False: 0}
    big_true = 0
    for _ in range(400):
        q = FracPoly.make(0, [int(rng.choice([-1, 1])) * int(rng.integers(1, 10))])
        for _ in range(int(rng.integers(1, 5))):
            kind = int(rng.integers(4))
            if kind == 0:
                f = [1, int(rng.integers(-4, 5)), 1]
            elif kind == 1:
                f = [int(rng.choice([-1, 1])), 1]
            elif kind == 2:
                f = [int(rng.choice([-1, 1])) * ((1 << 61) + int(rng.integers(0, 1 << 40)))
                     for _ in range(int(rng.integers(2, 4)))]
            else:
                f = [int(rng.integers(1, 9)) * int(rng.choice([-1, 1]))
                     for _ in range(int(rng.integers(2, 4)))]
            q = q * FracPoly.make(0, f)
        q = list(to_laurent(q).coeffs)
        got = _coprime_to_reverse(q)
        if got:
            assert len(_gcd(q, q[::-1])) == 1, q
            big_true += max(map(abs, q)) > 1 << 60
        seen[got] += 1
    assert min(seen.values()) >= 50, seen
    assert big_true >= 20
