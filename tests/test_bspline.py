"""B-spline evaluation, derivatives, Fourier transform, and the classical
constants, checked against independent oracles."""

import functools
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest

from derivsamp.bspline import (
    _BLOCK_POINTS,
    _int_power,
    _pieces,
    _triangle,
    bspline_series,
    exact_lattice_values,
    fourier_q_derivs,
    riesz_lower_bound,
)

from conftest import (
    bspline_series_pieces,
    eval_q,
    eval_q_deriv,
    eval_q_deriv_exact,
    fourier_q,
    pieces_reference,
    uniform_sum_moments,
)


def test_eval_matches_truncated_power_oracle():
    # every derivative order k <= m-2 (k = 0 for m <= 2), at random eighths
    # and at every integer knot of the support and just beyond it
    rng = np.random.default_rng(11)
    for m in range(1, 13):
        ts = [Fraction(int(rng.integers(-2 * 8, (m + 2) * 8)), 8) for _ in range(34)]
        ts += [Fraction(k) for k in range(-1, m + 2)]
        for k in range(max(1, m - 1)):
            got = eval_q_deriv(m, k, np.array([float(t) for t in ts]))
            for t, g in zip(ts, got):
                want = float(eval_q_deriv_exact(m, k, t))
                assert abs(g - want) <= 1e-14 * max(1.0, abs(want)), (m, k, t)


def test_series_matches_exact_oracle():
    # random series of 1-40 coefficients, every derivative order, at random
    # eighths and at every integer knot of the support and beyond it; exact
    # zeros outside the support [k0, k0 + n - 1 + m)
    rng = np.random.default_rng(12)
    for m in range(1, 13):
        for deriv in range(max(1, m - 1)):
            n, k0 = int(rng.integers(1, 41)), int(rng.integers(-20, 21))
            c = rng.uniform(-1.0, 1.0, n)
            hi = k0 + n - 1 + m
            ts = [Fraction(int(v), 8) for v in rng.integers(8 * (k0 - 3), 8 * (hi + 3), 20)]
            ts += [Fraction(k) for k in range(k0 - 2, hi + 3)]
            got = bspline_series(m, deriv, c, k0, np.array([float(t) for t in ts]))
            tol = 1e-13 * float(np.sum(np.abs(c)))
            exact = functools.lru_cache(None)(lambda s: eval_q_deriv_exact(m, deriv, s))
            for t, g in zip(ts, got):
                if t < k0 or t >= hi:
                    assert g == 0.0, (m, deriv, t)
                    continue
                # only the translates with 0 <= t - k0 - j < m meet t
                js = range(max(0, math.floor(t) - k0 - m + 1), min(n, math.floor(t) - k0 + 1))
                want = sum(Fraction(c[j]) * exact(t - k0 - j) for j in js)
                assert abs(g - float(want)) <= tol, (m, deriv, t)
    c = rng.uniform(-1.0, 1.0, 7)
    scalar = bspline_series(5, 2, c, -3, 1.25)
    assert type(scalar) is float
    grid = rng.uniform(-5.0, 10.0, (4, 6))
    vals = bspline_series(5, 2, c, -3, grid)
    assert vals.shape == grid.shape
    assert np.array_equal(vals.ravel(), bspline_series(5, 2, c, -3, grid.ravel()))
    assert bspline_series(5, 2, c, -3, 1.25) == bspline_series(5, 2, c, -3, np.array([1.25]))[0]


def test_series_matches_per_piece_reference():
    # reconstruct-sized inputs: 10^5 sorted points across about 4000
    # coefficients and past both ends of the support
    rng = np.random.default_rng(16)
    worst = 0.0
    for m in range(3, 10):
        c = rng.uniform(-1.0, 1.0, 4000)
        x = np.sort(rng.uniform(-2010.0, 2010.0, 100_000))
        for deriv in (0, m - 2):
            got = bspline_series(m, deriv, c, -2000, x)
            want = bspline_series_pieces(m, deriv, c, -2000, x)
            worst = max(worst, float(np.max(np.abs(got - want))) / float(np.sum(np.abs(c))))
    print(f"pp-form vs per-piece: max |difference| / sum|c| = {worst:.3e}")
    assert worst <= 1e-13, worst


def test_series_blocks_match_split_calls():
    # the points go through in blocks of _BLOCK_POINTS: any split of the
    # input gives the same bytes, signed zeros and NaN included
    B = _BLOCK_POINTS
    rng = np.random.default_rng(17)
    c = rng.uniform(-1.0, 1.0, 300)
    c[::7] = -0.0
    for m, deriv in ((1, 0), (4, 0), (4, 2), (7, 3)):
        for n in (0, 1, B - 1, B, B + 1, 3 * B + 17):
            # unsorted, past both ends of the support [-50, 250 + m), on
            # knots, at signed zeros and at non-finite points
            x = rng.uniform(-60.0, 260.0, n)
            x[::5] = np.round(x[::5])
            x[3::11] = -0.0
            x[4::13] = rng.choice([np.inf, -np.inf, np.nan], len(x[4::13]))
            got = bspline_series(m, deriv, c, -50, x)
            cuts = [0, *sorted({min(n, k) for k in (1, B // 2 + 3, B + 5, 2 * B + 11)}), n]
            parts = [bspline_series(m, deriv, c, -50, x[a:b]) for a, b in zip(cuts, cuts[1:])]
            assert got.shape == x.shape
            assert got.tobytes() == np.concatenate([np.empty(0), *parts]).tobytes(), (m, deriv, n)
        x = rng.uniform(-60.0, 260.0, (3, B + 9))
        got = bspline_series(m, deriv, c, -50, x)
        assert got.shape == x.shape
        assert got.tobytes() == bspline_series(m, deriv, c, -50, x.ravel()).tobytes()
        assert got.T.tobytes() == bspline_series(m, deriv, c, -50, x.T).tobytes()
        scalar = bspline_series(m, deriv, c, -50, float(x[1, 2]))
        assert type(scalar) is float
        assert np.float64(scalar).tobytes() == got[1, 2].tobytes()


def test_series_non_finite_points():
    # +-inf lies outside every support: exactly +0.0; NaN gives NaN; no
    # RuntimeWarning, in one block or several
    rng = np.random.default_rng(18)
    c = rng.uniform(-1.0, 1.0, 40)
    for m in range(1, 8):
        for deriv in range(max(1, m - 1)):
            for n in (3, _BLOCK_POINTS + 3):
                x = np.resize([np.inf, -np.inf, np.nan, 2.5], n)
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    got = bspline_series(m, deriv, c, 0, x)
                    finite = bspline_series(m, deriv, c, 0, x[3::4])
                assert got[0::4].tobytes() == np.zeros(len(got[0::4])).tobytes()
                assert got[1::4].tobytes() == np.zeros(len(got[1::4])).tobytes()
                assert np.isnan(got[2::4]).all()
                assert got[3::4].tobytes() == finite.tobytes()
            assert np.float64(bspline_series(m, deriv, c, 0, np.inf)).tobytes() == np.float64(0.0).tobytes()
            assert math.isnan(bspline_series(m, deriv, c, 0, math.nan))


def test_int_power_against_fraction_powers():
    rng = np.random.default_rng(34)
    x = np.concatenate([rng.uniform(-4.0, 4.0, 200), rng.uniform(-1e6, 1e6, 50)])
    for k in range(11):
        got = _int_power(x, k)
        for xv, gv in zip(x, got):
            exact = Fraction(float(xv)) ** k
            err = abs(Fraction(float(gv)) - exact)
            assert err <= max(k - 1, 0) * Fraction(math.ulp(float(exact))), (xv, k)
    # dyadic bases whose powers fit in 53 bits are exact, either sign
    for num, den in ((1, 2), (3, 2), (11, 4), (7, 8), (13, 16), (3, 1)):
        for sign in (1, -1):
            base = sign * num / den
            for k in range(11):
                if num**k < 2**53:
                    assert _int_power(np.array([base]), k)[0] == Fraction(sign * num, den) ** k


def test_int_power_non_finite_and_signed_zero_like_pow():
    x = np.array([np.nan, np.inf, -np.inf, -0.0, 0.0, -1.0, 1.0])
    for k in range(8):
        got, want = _int_power(x, k), x**k
        assert np.array_equal(got, want, equal_nan=True), k
        assert np.array_equal(np.signbit(got), np.signbit(want)), k
    assert _int_power(x, 0)[0] == 1.0  # NaN^0, as for **
    assert _int_power(np.ones((2, 3)), 3).shape == (2, 3)
    y = np.array([-2.0, 3.0])
    _int_power(y, 1)[0] = 5.0  # a new array, also for k = 1
    assert y.tolist() == [-2.0, 3.0]


def test_pieces_match_truncated_power_expansion():
    # one rounding of the same exact rational: byte-identical, signed zeros
    # included, for every order and derivative
    for m in range(1, 21):
        for deriv in range(max(1, m - 1)):
            got, want = _pieces(m, deriv), pieces_reference(m, deriv)
            assert got.shape == want.shape == (m, m - deriv), (m, deriv)
            assert got.tobytes() == want.tobytes(), (m, deriv)
    assert _pieces(1, 0).tolist() == [[1.0]]


def test_eval_exact_is_exact():
    # the Cox-de Boor triangle against the truncated-power oracle at every
    # lattice point u + p of the support, every derivative order i <= m-2
    shifts = sorted({Fraction(p, q) for q in range(1, 7) for p in range(q)})
    for m in range(1, 13):
        d_max = max(0, m - 2)
        for u in shifts:
            nums, dens = exact_lattice_values(m, u, d_max)
            assert len(nums) == len(dens) == d_max + 1
            for i, (row, den) in enumerate(zip(nums, dens)):
                assert den == math.factorial(m - i - 1) * u.denominator ** (m - i - 1)
                got = [Fraction(t, den) for t in row]
                assert got == [eval_q_deriv_exact(m, i, u + p) for p in range(m)], (m, i, u)
    with pytest.raises(ValueError):
        exact_lattice_values(4, Fraction(1), 0)
    with pytest.raises(ValueError):
        exact_lattice_values(4, 0, 3)


def _cox_de_boor_reference(m: int, u: Fraction, d_max: int) -> list[list[Fraction]]:
    """Q_m^(i)(u + p) for 0 <= p < m and i <= d_max over Fraction: the
    Cox-de Boor recurrence on the lattice points u + p of each support,
    from the right-continuous Q_1, then
    Q_m^(i) = sum_r (-1)^r C(i, r) Q_{m-i}(. - r)."""
    q = {1: {0: Fraction(1)}}  # q[n][p] = Q_n(u + p), 0 <= p < n
    for n in range(2, m + 1):
        prev = q[n - 1]
        q[n] = {p: ((u + p) * prev.get(p, 0) + (n - u - p) * prev.get(p - 1, 0)) / (n - 1)
                for p in range(n)}
    return [
        [sum((-1) ** r * math.comb(i, r) * q[m - i].get(p - r, 0) for r in range(i + 1))
         for p in range(m)]
        for i in range(d_max + 1)
    ]


def test_triangle_matches_fraction_cox_de_boor():
    # every s/q with q <= 7, unreduced ones included, and d_max = m - 1, the
    # path of _pieces, whose top order is the right-continuous step
    for m in range(1, 15):
        for q in range(1, 8):
            for s in range(q):
                nums, dens = _triangle(m, s, q, m - 1)
                assert [len(row) for row in nums] == [m] * m
                assert dens == [math.factorial(m - i - 1) * q ** (m - i - 1) for i in range(m)]
                got = [[Fraction(t, den) for t in row] for row, den in zip(nums, dens)]
                assert got == _cox_de_boor_reference(m, Fraction(s, q), m - 1), (m, s, q)


def test_spot_values():
    assert eval_q(3, 1.0) == pytest.approx(0.5, abs=1e-15)
    assert eval_q(3, 2.0) == pytest.approx(0.5, abs=1e-15)
    assert eval_q(3, 1.5) == pytest.approx(0.75, abs=1e-15)
    assert eval_q(4, 2.0) == pytest.approx(2.0 / 3.0, abs=1e-15)
    assert eval_q(2, 1.0) == pytest.approx(1.0, abs=1e-15)
    assert eval_q(1, 0.5) == 1.0
    assert eval_q(5, -0.3) == 0.0 and eval_q(5, 5.2) == 0.0


def test_symmetry_about_midpoint():
    rng = np.random.default_rng(13)
    for m in range(2, 7):
        ts = rng.uniform(-1, m + 1, 50)
        assert np.allclose(eval_q(m, ts), eval_q(m, m - ts), atol=1e-14)


def test_partition_of_unity():
    rng = np.random.default_rng(14)
    for m in range(1, 7):
        ts = rng.uniform(-3, 3, 100)
        total = sum(eval_q(m, ts - k) for k in range(-10, 15))
        assert np.allclose(total, 1.0, atol=1e-12)


def test_vectorized_matches_scalar():
    ts = np.linspace(-0.5, 4.5, 23)
    vec = eval_q(4, ts)
    assert vec.shape == ts.shape
    for t, v in zip(ts, vec):
        assert eval_q(4, float(t)) == v


def test_derivative_matches_central_differences():
    rng = np.random.default_rng(15)
    h = 1e-6
    for m in (3, 4, 5, 6):
        for k in range(1, m - 1):
            ts = rng.uniform(0.1, m - 0.1, 40)
            # keep away from knots where Q^{(k)} may be only one-sided smooth
            ts = ts[np.abs(ts - np.round(ts)) > 1e-2]
            fd = (eval_q_deriv(m, k - 1, ts + h) - eval_q_deriv(m, k - 1, ts - h)) / (2 * h)
            assert np.max(np.abs(fd - eval_q_deriv(m, k, ts))) < 1e-7


def test_derivative_spot_values():
    # Q_3' is piecewise linear: slope 1 on (0,1), -2t+3 on (1,2), t-3 on (2,3)
    assert eval_q_deriv(3, 1, 1.0) == pytest.approx(1.0, abs=1e-14)
    assert eval_q_deriv(3, 1, 2.0) == pytest.approx(-1.0, abs=1e-14)
    assert eval_q_deriv(4, 1, 2.0) == pytest.approx(0.0, abs=1e-14)
    assert eval_q_deriv(4, 2, 2.0) == pytest.approx(-2.0, abs=1e-14)


def test_derivative_order_validation():
    with pytest.raises(ValueError):
        eval_q_deriv(3, 2, 1.0)  # only k <= m-2 defined classically
    with pytest.raises(ValueError):
        eval_q_deriv(4, 3, 1.0)
    with pytest.raises(ValueError):
        eval_q(0, 0.5)
    # order 0 is plain evaluation, allowed for every m
    assert eval_q_deriv(1, 0, 0.5) == 1.0


def _fourier_oracle(m: int, xi: float, r: int = 0) -> complex:
    """Gauss-Legendre quadrature of the defining integral of the r-th
    derivative, int Q_m(t) (-2 pi i t)^r e^{-2 pi i xi t} dt."""
    xs, ws = np.polynomial.legendre.leggauss(24)
    acc = 0j
    for k in range(m):
        t = k + (xs + 1.0) / 2.0
        vals = eval_q(m, t) * (-2j * math.pi * t) ** r * np.exp(-2j * math.pi * xi * t)
        acc += complex(np.sum(ws / 2.0 * vals))
    return acc


def test_fourier_against_quadrature():
    for m in (2, 3, 4):
        for xi in (0.0, 0.5, -0.3, 1.25):
            assert abs(fourier_q(m, xi) - _fourier_oracle(m, xi)) < 1e-12


def test_fourier_at_zero_and_integers():
    for m in range(1, 8):
        assert fourier_q(m, 0.0) == pytest.approx(1.0, abs=1e-15)
    # at nonzero integers the transform vanishes (unit-shift orthogonality)
    for m in (2, 3, 4):
        for xi in (1.0, -1.0, 2.0):
            assert abs(fourier_q(m, xi)) < 1e-14


def test_fourier_derivative_goldens():
    pi = math.pi
    q3, q4 = fourier_q_derivs(3, 2, 0.0), fourier_q_derivs(4, 3, 0.0)
    assert abs(q3[1] - (-3j * pi)) < 1e-12
    assert abs(q3[2] - (-10 * pi**2)) < 1e-11
    assert abs(q4[1] - (-4j * pi)) < 1e-12
    assert abs(q4[2] - (-52 * pi**2 / 3)) < 1e-11
    assert abs(q4[3] - (80j * pi**3)) < 1e-10


def test_fourier_derivative_against_differences():
    h = 1e-5
    for m in (3, 4):
        for xi in (0.37, -1.21):
            fd = (fourier_q(m, xi + h) - fourier_q(m, xi - h)) / (2 * h)
            assert abs(fd - fourier_q_derivs(m, 1, xi)[1]) < 1e-7


def test_fourier_derivatives_at_zero_are_moments():
    # Q_m is the density of U_1 + ... + U_m, so the k-th derivative of its
    # transform at 0 is (-2 pi i)^k E[(U_1 + ... + U_m)^k]
    for m in range(1, 13):
        got = fourier_q_derivs(m, 8, 0.0)
        for k, mom in enumerate(uniform_sum_moments(m, 8)):
            want = (-2j * math.pi) ** k * float(mom)
            assert abs(got[k] - want) <= 1e-12 * abs(want), (m, k)


def test_fourier_derivatives_against_quadrature():
    # across the Taylor-series range |xi| < 1/pi, where the integration-by-
    # parts recurrence would lose a factor k/|2 pi xi| per order, and just
    # beyond it; the quadrature has no cancellation at these xi
    for m in (1, 2, 4, 8):
        for xi in (0.003, 0.02, 0.1, 0.2, 0.3, -0.31, 0.33, 0.5):
            got = fourier_q_derivs(m, 8, xi)
            for r in range(9):
                want = _fourier_oracle(m, xi, r)
                assert abs(got[r] - want) <= 1e-12 * abs(want), (m, xi, r)


def test_fourier_derivatives_vanish_at_integers():
    # Q_m^ = Phi^m and Phi has simple zeros at the nonzero integers, so every
    # derivative below order m vanishes there, and order m does not
    for m in range(1, 9):
        for xi in (1.0, -1.0, 2.0):
            got = fourier_q_derivs(m, m, xi)
            for k in range(m):
                assert abs(got[k]) <= 1e-14 * (2 * math.pi) ** k, (m, xi, k)
            assert abs(got[m]) >= 1e-6 * (2 * math.pi) ** m


def test_fourier_derivatives_across_series_switch():
    # the series serves |xi| < 1/pi and the recurrence the rest: on each side
    # a central difference of order r - 1 matches order r, and the two
    # branches agree where they meet
    h = 1e-5
    for m in (1, 3, 6):
        for xi in (1 / math.pi - 1e-3, 1 / math.pi + 1e-3):
            mid = fourier_q_derivs(m, 6, xi)
            lo, hi = fourier_q_derivs(m, 6, xi - h), fourier_q_derivs(m, 6, xi + h)
            for r in range(1, 7):
                fd = (hi[r - 1] - lo[r - 1]) / (2 * h)
                assert abs(fd - mid[r]) <= 1e-7 * abs(mid[r]), (m, xi, r)
        below = fourier_q_derivs(m, 6, 1 / math.pi - 1e-12)
        above = fourier_q_derivs(m, 6, 1 / math.pi + 1e-12)
        assert np.all(np.abs(below - above) <= 1e-9 * np.abs(above)), m


def test_fourier_derivatives_reject_bad_order():
    for r in (-1, 1.5):
        with pytest.raises(ValueError):
            fourier_q_derivs(3, r, 0.0)


def _kf_oracle(m: int) -> float:
    n = 2_000_000
    nu = np.arange(n)
    terms = (-1.0) ** (nu * (m + 1)) / (2.0 * nu + 1.0) ** (m + 1)
    s = float(np.sum(terms))
    if m % 2 == 0:
        # alternating series: average consecutive partial sums
        s_minus = s - float(terms[-1])
        s = 0.5 * (s + s_minus)
    else:
        # monotone series: midpoint-rule tail integral, error O(n^-(m+2))
        s += (2.0 * n) ** (-m) / (2.0 * m)
    return 4.0 / math.pi * s


def test_riesz_lower_bound_against_krein_favard_series():
    # the bound is 2^(2m-1) K_(2m-1) / pi^(2m-1), K_r from its defining series
    for m in range(1, 11):
        r = 2 * m - 1
        want = 2.0**r * _kf_oracle(r) / math.pi**r
        assert riesz_lower_bound(m) == pytest.approx(want, rel=1e-12, abs=0), m


def test_riesz_lower_bound_values():
    assert riesz_lower_bound(1) == pytest.approx(1.0, abs=1e-14)
    assert riesz_lower_bound(3) == pytest.approx(2.0 / 15.0, abs=1e-14)
    for m, (p, q) in enumerate(((1, 1), (1, 3), (2, 15), (17, 315)), start=1):
        assert riesz_lower_bound(m) == float(Fraction(p, q))
    vals = [riesz_lower_bound(m) for m in range(1, 9)]
    assert all(0 < b <= 1 + 1e-12 for b in vals)
    assert all(vals[i + 1] < vals[i] for i in range(len(vals) - 1))
