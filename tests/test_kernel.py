"""Inverse-symbol coefficient tables, reconstruction kernels Theta_i, moment
conditions, and the CSV round trip."""

import math
from fractions import Fraction

import numpy as np
import pytest

from derivsamp.bspline import ArgumentError
from derivsamp.kernel import (
    inv_symbol_coeffs,
    moment_check_fourier,
    reproducing_order,
    theta_eval,
    theta_support,
)
from derivsamp.symbol import Kappa, NotCISError, build_symbol, check_cis

from derivsamp.cli import main

from conftest import (
    coeff,
    eval_q,
    eval_unit,
    inv_symbol_coeffs_reference,
    kernel_table_from_csv,
    moment_check_fourier_reference,
    moment_check_time,
)


def test_rejects_unstable_configuration():
    with pytest.raises(NotCISError):
        inv_symbol_coeffs(Kappa(4, Fraction(0), 2))


def test_kernel_build_that_does_not_converge_raises():
    # Q25's coefficients decay so slowly that the alias band still reads
    # about 1.9e-11 at the last grid, n = 8192
    with pytest.raises(ArithmeticError, match="did not converge .* at n=8192"):
        inv_symbol_coeffs(Kappa(25, Fraction(0), 2))


def test_kernel_decision_is_check_cis():
    # det Psi vanishes on |z| = 1 exactly when 2a + m - rho is an even integer
    for rho in (2, 3):
        shifts = {Fraction(p, q) for q in range(1, 5) for p in range(rho * q)}
        for m in range(rho + 1, 8):
            for a in sorted(shifts):
                kappa = Kappa(m, a, rho)
                is_cis = check_cis(kappa).is_cis
                assert is_cis == ((2 * a + m - rho) % 2 != 0), kappa
                if is_cis:
                    inv_symbol_coeffs(kappa)
                else:
                    with pytest.raises(NotCISError):
                        inv_symbol_coeffs(kappa)


@pytest.mark.parametrize(
    "m, a, rho, tol, radius",
    [
        # every round of the certify benchmark runs these six; tail_bound > tol
        (9, Fraction(1, 3), 2, 1e-12, None),
        (10, Fraction(5, 6), 2, 1e-12, None),
        (12, Fraction(1, 3), 3, 1e-12, None),
        (8, Fraction(2, 5), 3, 1e-12, None),
        (11, Fraction(2, 5), 4, 1e-12, None),
        (12, Fraction(2, 5), 5, 1e-12, None),
        # stops at n = 512
        (12, Fraction(7, 5), 3, 1e-12, None),
        (17, Fraction(0), 2, 1e-12, None),
        # the table_q4h fixture, whose tests read |v| <= 13
        (4, Fraction(1, 2), 2, 1e-13, 15),
    ],
)
def test_one_grid_matches_two_grid_reference(m, a, rho, tol, radius):
    kappa = Kappa(m, a, rho)
    got = inv_symbol_coeffs(kappa, tol=tol)
    want = inv_symbol_coeffs_reference(kappa, tol=tol)
    assert got.radius == want.radius
    assert radius is None or got.radius == radius
    assert got.tail_bound == want.tail_bound
    assert got.coeffs.tobytes() == want.coeffs.tobytes()


# The configurations of the benchmark's `verify` and `reconstruct` workloads.
BENCH_TABLE_KAPPAS = tuple(
    Kappa(m, Fraction(a), rho)
    for m, a, rho in (
        (3, 0, 2), (4, "1/2", 2), (4, 0, 3), (5, 0, 2), (6, "1/2", 2), (5, "1/2", 3),
        (5, 0, 4), (7, 0, 2), (8, "1/2", 2), (9, 0, 2),
    )
)


def _full_circle_table(kappa: Kappa, tol: float = 1e-12) -> tuple[int, np.ndarray]:
    """(radius, coeffs[j, i, V + v]) from Psi at every point s < n of the
    grid, each entry by eval_unit, inverted pointwise and transformed by one
    complex FFT over all n points; n, the radius and the tail estimate follow
    the library's rules, one coefficient at a time."""
    entries = build_symbol(kappa)
    n = 256
    while True:
        psi = np.array([[[eval_unit(p, s / n) for p in row] for row in entries] for s in range(n)])
        spec = np.fft.fft(np.linalg.inv(psi), axis=0) / n
        mags = np.max(np.abs(spec), axis=(1, 2))
        if max(mags[v % n] for v in range(n // 2 - 32, n // 2 + 33)) < tol:
            break
        n *= 2

    def mag(v: int) -> float:
        return max(mags[v % n], mags[-v % n])

    def tail(v0: int) -> float:
        ratio = (max(mag(v0), 1e-300) / max(mag(v0 - 3), 1e-300)) ** (1.0 / 3.0)
        ratio = min(max(ratio, 1e-3), 0.95)
        return 10.0 * kappa.rho * mag(v0) * ratio / (1.0 - ratio)

    radius = max([v for v in range(1, n // 3) if mag(v) >= tol], default=1)
    while radius < n // 3 and tail(radius) >= tol and mag(radius) > 0:
        radius += 2
    window = np.stack([spec[v % n] for v in range(-radius, radius + 1)])
    return radius, np.transpose(window, (1, 2, 0))


@pytest.mark.parametrize("kappa", BENCH_TABLE_KAPPAS, ids=str)
def test_half_circle_table_matches_full_circle_reference(kappa):
    # the half-circle inversion and its irfft against pointwise values on
    # the whole circle and a complex FFT, whose imaginary parts must vanish too
    table = inv_symbol_coeffs(kappa)
    radius, coeffs = _full_circle_table(kappa)
    assert table.radius == radius
    assert float(np.max(np.abs(table.coeffs - coeffs))) <= 1e-13


def test_cubic_interpolation_table_at_rho_1():
    # Kappa(4, 0, 1) is cubic-spline interpolation: Psi(z) = z^2 (z^-1 + 4 +
    # z) / 6, so c(v) = sqrt(3) (sqrt(3) - 2)^|v + 2| in closed form (Unser,
    # Aldroubi & Eden 1993)
    table = inv_symbol_coeffs(Kappa(4, Fraction(0), 1))
    assert table.radius == 25 and table.coeffs.shape == (1, 1, 51)
    r = math.sqrt(3.0) - 2.0
    want = math.sqrt(3.0) * r ** np.abs(np.arange(-25, 26) + 2)
    # within one ulp of sqrt(3), 2.2e-16
    assert float(np.max(np.abs(table.coeffs[0, 0] - want))) <= 2.3e-16
    # the reported tail bounds the mass beyond the radius, 4.5e-14 here
    far = np.concatenate([np.arange(-2000, -25), np.arange(26, 2000)])
    discarded = float(np.sum(math.sqrt(3.0) * np.abs(r) ** np.abs(far + 2)))
    assert discarded <= table.tail_bound < 1e-12


def test_q3_coefficients_golden(table_q3):
    t = table_q3
    # the symbol has rational coefficients, so the table is real
    assert t.coeffs.dtype == np.float64
    # the inverse symbol is a Laurent polynomial here: one nonzero column
    assert coeff(t, 0, 0, -1) == pytest.approx(1.0, abs=1e-12)
    assert coeff(t, 1, 0, -1) == pytest.approx(1.0, abs=1e-12)
    assert coeff(t, 0, 1, -1) == pytest.approx(-0.5, abs=1e-12)
    assert coeff(t, 1, 1, -1) == pytest.approx(0.5, abs=1e-12)
    for v in range(-t.radius, t.radius + 1):
        for j in range(2):
            for i in range(2):
                if v != -1:
                    assert abs(coeff(t, j, i, v)) <= 1e-12
    assert t.tail_bound <= 1e-10


def test_q3_theta_closed_form(table_q3):
    ts = np.linspace(-4.0, 8.0, 241)
    want0 = np.asarray([eval_q(3, t + 2) + eval_q(3, t + 1) for t in ts])
    want1 = np.asarray([-0.5 * eval_q(3, t + 2) + 0.5 * eval_q(3, t + 1) for t in ts])
    assert np.max(np.abs(theta_eval(table_q3, 0, ts) - want0)) <= 1e-12
    assert np.max(np.abs(theta_eval(table_q3, 1, ts) - want1)) <= 1e-12


def test_q4_coefficients_golden(table_q4):
    t = table_q4
    want = [
        [1.0, -1.0, 1.0 / 3.0],
        [1.0, 0.0, -1.0 / 6.0],
        [1.0, 1.0, 1.0 / 3.0],
    ]
    for j in range(3):
        for i in range(3):
            assert coeff(t, j, i, -1) == pytest.approx(want[j][i], abs=1e-12)
    for v in range(-t.radius, t.radius + 1):
        if v == -1:
            continue
        assert float(np.max(np.abs(t.coeffs[:, :, t.radius + v]))) <= 1e-12


def test_q4_half_shift_closed_form(table_q4h):
    t = table_q4h
    r = (19.0 - 4.0 * math.sqrt(22.0)) / 3.0
    s = 1.0 - r * r

    def c00(n):
        return 8.0 * r / (3.0 * s) * (5.0 * r ** abs(n + 1) - r ** abs(n))

    def c01(n):
        return -4.0 * r / (9.0 * s) * (23.0 * r ** abs(n + 1) + r ** abs(n))

    def c10(n):
        return -8.0 * r / (3.0 * s) * (r ** abs(n + 2) - 5.0 * r ** abs(n + 1))

    def c11(n):
        return 4.0 * r / (9.0 * s) * (r ** abs(n + 2) + 23.0 * r ** abs(n + 1))

    for n in range(-10, 11):
        assert coeff(t, 0, 0, n) == pytest.approx(c00(n), abs=1e-10)
        assert coeff(t, 0, 1, n) == pytest.approx(c01(n), abs=1e-10)
        assert coeff(t, 1, 0, n) == pytest.approx(c10(n), abs=1e-10)
        assert coeff(t, 1, 1, n) == pytest.approx(c11(n), abs=1e-10)


def test_q4_half_shift_decay_rate(table_q4h):
    t = table_q4h
    r = (19.0 - 4.0 * math.sqrt(22.0)) / 3.0
    # geometric decay at rate r, read off far from the center; the ratio at
    # n needs c(n + 1) to 1 %, and c(13) = -6.5e-16 carries roundoff errors
    # up to 3.5e-17, about one ulp of the peak 0.13, so n stops at 11
    for n in (5, 8, 11):
        ratio = abs(coeff(t, 0, 0, n + 1)) / abs(coeff(t, 0, 0, n))
        assert ratio == pytest.approx(r, abs=1e-3)
    assert t.tail_bound <= 1e-9


def test_theta_vanishes_outside_support(table_q3, table_q4h):
    for table in (table_q3, table_q4h):
        lo, hi = theta_support(table)
        pts = np.asarray([lo - 0.5, lo - 3.0, hi + 0.5, hi + 3.0])
        for i in range(table.kappa.rho):
            assert np.max(np.abs(theta_eval(table, i, pts))) == 0.0


def test_reproducing_orders(table_q3, table_q4, table_q4h):
    # (6, 1/2, 2) reproduces degree m-1 = 5, which an absolute residual lost
    # to roundoff (its degree-5 terms sum to about 4e2 in absolute value)
    table_q6h = inv_symbol_coeffs(Kappa(6, Fraction(1, 2), 2), tol=1e-12)
    for table, want in ((table_q3, 2), (table_q4, 3), (table_q4h, 3), (table_q6h, 5)):
        rep = reproducing_order(table)
        assert rep.order == want
        # the next degree has to fail decisively, not marginally
        assert rep.residuals[want + 1] >= 100 * rep.tol


def test_moment_residuals_time_domain(table_q3, table_q4):
    for table in (table_q3, table_q4):
        order = reproducing_order(table).order
        for n in range(order + 1):
            for t in (0.1, 0.9, 1.57):
                assert abs(moment_check_time(table, n, t)) <= 1e-8


def test_moment_residuals_fourier_domain(table_q3, table_q4, table_q4h):
    # with one channel (cubic interpolation at rho = 1) and with four
    table_q4r1 = inv_symbol_coeffs(Kappa(4, Fraction(0), 1), tol=1e-12)
    table_q5r4 = inv_symbol_coeffs(Kappa(5, Fraction(0), 4), tol=1e-12)
    for table in (table_q3, table_q4, table_q4h, table_q4r1, table_q5r4):
        order = reproducing_order(table).order
        rho = table.kappa.rho
        for n in range(order + 1):
            for l in range(rho):
                assert abs(moment_check_fourier(table, n, l)) <= 1e-7, (
                    table.kappa,
                    n,
                    l,
                )


def test_moment_fourier_detects_failure(table_q3):
    # degree 3 is beyond the reproducing order of the Q_3 kernel
    vals = [abs(moment_check_fourier(table_q3, 3, l)) for l in range(2)]
    assert max(vals) > 1e-3


def test_moment_fourier_beyond_degree_three():
    # (5, 0, 2) reproduces degree 4 = m - 1 and fails at degree 5
    table = inv_symbol_coeffs(Kappa(5, Fraction(0), 2), tol=1e-12)
    for n in range(5):
        for l in range(2):
            assert abs(moment_check_fourier(table, n, l)) <= 1e-7, (n, l)
    assert max(abs(moment_check_fourier(table, 5, l)) for l in range(2)) > 1e-3


def test_moment_fourier_residual_values(table_q3, table_q4h):
    # one degree beyond each reproducing order the residuals read 0.129
    # (Q3, l = 1), 0.052 ((5, 0, 2), l = 1) and 0.033 ((4, 0, 1)), and about
    # 0 elsewhere; every value matches the knot-by-knot reference, so a
    # channel or knot taken from the wrong place in the table would show.
    # The shifted configurations (4, 1/2, 2) and (5, 1/2, 3) also catch a
    # wrong or missing phase e^{-2 pi i a xi}, or knots not measured from a.
    cases = (
        (table_q3, 3),
        (inv_symbol_coeffs(Kappa(5, Fraction(0), 2), tol=1e-12), 5),
        (inv_symbol_coeffs(Kappa(4, Fraction(0), 1), tol=1e-12), 4),
        (table_q4h, 4),
        (inv_symbol_coeffs(Kappa(5, Fraction(1, 2), 3), tol=1e-12), 5),
    )
    for table, n in cases:
        for l in range(table.kappa.rho):
            got = moment_check_fourier(table, n, l)
            want = moment_check_fourier_reference(table, n, l)
            bound = 1e-9 * abs(want) if abs(want) > 1e-3 else 1e-9
            assert abs(got - want) <= bound, (table.kappa, n, l, got, want)


def test_moment_fourier_rejects_bad_degree(table_q3):
    # a negative degree has no moment condition, and a frequency l/rho off
    # the lattice none to check; neither must read as a pass or a failure
    for n, l in ((-1, 0), (-2, 1), (1.5, 0), (1, 0.5), (1, 1e300), (1, math.nan)):
        with pytest.raises(ValueError):
            moment_check_fourier(table_q3, n, l)


def test_csv_roundtrip(tmp_path, table_q4h):
    path = tmp_path / "kernel.csv"
    # the fixture's (4, 1/2, 2) at its tol, through the CLI that writes the format
    argv = ["kernel-dump", "--m", "4", "--a", "1/2", "--rho", "2", "--tol", "1e-13"]
    assert main([*argv, "--out", str(path)]) == 0
    back = kernel_table_from_csv(path)
    assert back.kappa == table_q4h.kappa
    assert back.radius == table_q4h.radius
    assert back.tail_bound == table_q4h.tail_bound
    assert np.array_equal(back.coeffs, table_q4h.coeffs)


def test_csv_rejects_foreign_file(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("j,i,v,c\n0,0,0,1.0\n")
    with pytest.raises(ValueError):
        kernel_table_from_csv(p)


def test_theta_channel_range(table_q3):
    with pytest.raises(ValueError):
        theta_eval(table_q3, 2, 0.5)
    # a fractional channel lies inside [0, rho) but indexes no kernel
    with pytest.raises(ArgumentError, match="channel i .*got i=0.5"):
        theta_eval(table_q3, 0.5, np.array([0.5, 1.0]))


def test_tol_must_be_positive_and_finite():
    # an infinite tol returned a table with no error; NaN and 0 ran the
    # n-doubling loop to its end before failing on the alias band
    for tol in (math.inf, math.nan, 0.0, -1e-12):
        with pytest.raises(ArgumentError, match=f"tol={tol!r}"):
            inv_symbol_coeffs(Kappa(3, 0, 2), tol=tol)
