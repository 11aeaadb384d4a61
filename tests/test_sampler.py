"""Spline elements, sample grids, the sampling operator, frame bounds, and
the sampling inequality."""

import math
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest

from derivsamp import sampler
from derivsamp.bspline import ArgumentError, bspline_series
from derivsamp.kernel import moment_check_fourier, theta_eval
from derivsamp.laurent import circle_values
from derivsamp.sampler import (
    _TRIAL_LEN,
    _gram,
    _sample_matrix,
    SampleGrid,
    SampleNodeError,
    SplineElement,
    _positive_definite,
    apply_sw,
    approx_error,
    frame_bounds,
    grid_for_window,
    take_samples,
    verify_sampling_inequality,
)
from derivsamp.signals import channel, get_signal, monomial_signal
from derivsamp.smoothness import tau_modulus
from derivsamp.symbol import Kappa, build_symbol, check_cis

from conftest import (
    KAPPA_Q3,
    KAPPA_Q4,
    KAPPA_Q4H,
    discrete_norm,
    eval_q_deriv,
    frame_extremes_reference,
    l2_norm_gram,
    l2_norm_quadrature,
    random_spline,
)

# The configurations of the benchmark's `verify` workload.
VERIFY_KAPPAS = tuple(
    Kappa(m, Fraction(a), rho)
    for m, a, rho in (
        (3, 0, 2), (4, "1/2", 2), (4, 0, 3), (5, 0, 2), (6, "1/2", 2), (5, "1/2", 3), (5, 0, 4)
    )
)


def test_spline_element_eval_matches_direct_sum():
    rng = np.random.default_rng(41)
    for m in (2, 3, 4):
        coeffs = rng.uniform(-1.0, 1.0, 9)
        f = SplineElement(m, -3, coeffs)
        ts = rng.uniform(-6.0, 10.0, 40)
        for deriv in range(min(2, m - 1)):
            direct = sum(
                c * eval_q_deriv(m, deriv, ts - (-3 + k)) for k, c in enumerate(coeffs)
            )
            assert np.max(np.abs(f.eval(deriv, ts) - direct)) <= 1e-12


def test_spline_element_support_and_outside():
    f = SplineElement(3, 2, np.ones(4))
    assert f.support_hint == (2.0, 8.0)
    assert f.eval(0, 1.9) == 0.0 and f.eval(0, 8.1) == 0.0


def test_l2_norm_single_bumps():
    # ||Q_3||^2 = 11/20, ||Q_4||^2 = 151/315
    assert l2_norm_gram(SplineElement(3, 0, [1.0])) ** 2 == pytest.approx(11.0 / 20.0, abs=1e-12)
    assert l2_norm_gram(SplineElement(4, 0, [1.0])) ** 2 == pytest.approx(151.0 / 315.0, abs=1e-12)


def test_l2_norm_matches_riemann():
    f = random_spline(4, 12, seed=5)
    lo, hi = f.support_hint
    ts = np.linspace(lo, hi, 400_001)
    riemann = math.sqrt(np.trapezoid(f.eval(0, ts) ** 2, ts))
    assert l2_norm_gram(f) == pytest.approx(riemann, rel=1e-8)


def test_gram_matches_quadrature():
    rng = np.random.default_rng(8)
    for m in range(1, 9):
        bump = l2_norm_quadrature(SplineElement(m, 0, [1.0])) ** 2
        assert _gram(m, 5)[2, 2] == pytest.approx(bump, rel=1e-14)
        for _ in range(5):
            n = int(rng.integers(1, 40))
            f = SplineElement(m, int(rng.integers(-5, 5)), rng.uniform(-1.0, 1.0, n))
            assert l2_norm_gram(f) == pytest.approx(l2_norm_quadrature(f), rel=1e-13), m


def test_sample_matrix_matches_direct_sums():
    rng = np.random.default_rng(9)
    for kappa in VERIFY_KAPPAS:
        a, rho = float(kappa.a), kappa.rho
        b = _sample_matrix(build_symbol(kappa), 17)
        energy = b.T @ b
        # a node range wider than every support, so no sample is missed
        nodes = a + rho * np.arange(-5, 17 + kappa.m)
        for _ in range(5):
            c = rng.uniform(-1.0, 1.0, 17)
            direct = sum(
                float(np.sum(bspline_series(kappa.m, i, c, 0, nodes) ** 2)) for i in range(rho)
            )
            assert c @ energy @ c == pytest.approx(direct, rel=1e-13), kappa


def test_sampling_inequality_ratios_match_direct_trials():
    # the trials drawn one element at a time, sampled by the series primitive
    # and normed by quadrature, give the report's ratios
    for kappa in VERIFY_KAPPAS:
        rep = verify_sampling_inequality(kappa, n_trials=20, seed=11)
        rng = np.random.default_rng(11)
        a, rho = float(kappa.a), kappa.rho
        nodes = a + rho * np.arange(-5, _TRIAL_LEN + kappa.m)
        ratios = []
        for _ in range(20):
            c = rng.uniform(-1.0, 1.0, _TRIAL_LEN)
            num = sum(
                float(np.sum(bspline_series(kappa.m, i, c, 0, nodes) ** 2)) for i in range(rho)
            )
            ratios.append(num / l2_norm_quadrature(SplineElement(kappa.m, 0, c)) ** 2)
        assert rep.min_ratio == pytest.approx(min(ratios), rel=1e-13)
        assert rep.max_ratio == pytest.approx(max(ratios), rel=1e-13)


def test_grid_validation():
    with pytest.raises(ValueError):
        SampleGrid(KAPPA_Q3, 0.0, 0, 4)
    with pytest.raises(ValueError):
        SampleGrid(KAPPA_Q3, 1.0, 4, 0)
    g = SampleGrid(KAPPA_Q4H, 2.0, -1, 2)
    assert np.allclose(g.nodes(), (0.5 + 2.0 * np.arange(-1, 3)) / 2.0)


def test_dilation_must_be_positive_and_finite(table_q3):
    # an infinite W would put every node at 0.0 and overflow the kernel reach
    f1 = get_signal("f1")
    for w in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(ValueError, match="dilation W"):
            SampleGrid(KAPPA_Q3, w, 0, 3)
        with pytest.raises(ValueError, match="dilation W"):
            grid_for_window(KAPPA_Q3, w, -1.0, 1.0, table_q3)
        with pytest.raises(ValueError, match="dilation W"):
            approx_error(table_q3, f1, w)


def test_knot_offset_must_be_integer():
    # int(k0) used to evaluate k0 = 0.5 as 0, while support_hint said (0.5, 3.5)
    with pytest.raises(ArgumentError, match="k0=0.5"):
        bspline_series(3, 0, [1.0], 0.5, np.array([1.0]))
    with pytest.raises(ArgumentError, match="k0=0.5"):
        SplineElement(3, 0.5, [1.0])
    assert SplineElement(3, np.int64(-2), [1.0]).support_hint == (-2, 1)


def test_take_samples_single_bump(table_q3):
    g = SampleGrid(KAPPA_Q3, 1.0, 0, 2)
    s = take_samples(SplineElement(3, 0, [1.0]), g)
    # node t = 2 at l = 1: (Q_3(2), Q_3'(2)) = (1/2, -1)
    assert s[1, 0] == pytest.approx(0.5, abs=1e-14)
    assert s[1, 1] == pytest.approx(-1.0, abs=1e-14)


def test_take_samples_refuses_undefined_nodes():
    f3 = get_signal("f3")
    kappa = KAPPA_Q3
    # W = 4 puts the node lattice l/2 right on the jump at t = 3
    g = SampleGrid(kappa, 4.0, 0, 8)
    with pytest.raises(SampleNodeError, match="undefined point t=3"):
        take_samples(f3, g)
    # an undeclared non-finite value at a node is refused the same way
    holey = SimpleNamespace(eval=lambda i, t: np.where(np.isclose(t, 2.0), np.nan, 1.0))
    with pytest.raises(SampleNodeError, match="non-finite"):
        take_samples(holey, SampleGrid(kappa, 1.0, 0, 3))
    # an irrational dilation misses every rational special point
    g2 = SampleGrid(kappa, 3.0 * math.sqrt(7.0), 0, 8)
    s = take_samples(f3, g2)
    assert np.all(np.isfinite(s))


def test_reconstruction_of_space_elements(table_q3, table_q4, table_q4h):
    rng = np.random.default_rng(42)
    for table in (table_q3, table_q4, table_q4h):
        kappa = table.kappa
        for trial in range(5):
            f = SplineElement(kappa.m, 0, rng.uniform(-1.0, 1.0, 12))
            lo, hi = f.support_hint
            grid = grid_for_window(kappa, 1.0, lo, hi, table)
            samples = take_samples(f, grid)
            ts = np.linspace(lo, hi, 500)
            err = np.max(np.abs(apply_sw(samples, grid, table, ts) - f.eval(0, ts)))
            assert err <= 1e-10, (kappa, trial, err)
            # approx_error reaches the element through eval(i, t) and support_hint
            assert approx_error(table, f, 1.0) <= 1e-10, (kappa, trial)


def test_reconstruction_dilation_covariance(table_q4):
    # g(t) = h(W t) is sampled at (a + rho l)/W with g^(i) = W^i h^(i)(W .)
    kappa = table_q4.kappa
    w = 4.0
    h = random_spline(4, 10, seed=9)
    lo, hi = h.support_hint
    grid = grid_for_window(kappa, w, lo / w, hi / w, table_q4)
    nodes = grid.nodes()
    samples = np.stack(
        [w**i * h.eval(i, w * nodes) for i in range(kappa.rho)], axis=1
    )
    ts = np.linspace(lo / w, hi / w, 400)
    err = np.max(np.abs(apply_sw(samples, grid, table_q4, ts) - h.eval(0, w * ts)))
    assert err <= 1e-10


def test_polynomial_reproduction(table_q3, table_q4, table_q4h):
    w = 4.0
    for table, top in ((table_q3, 2), (table_q4, 3), (table_q4h, 3)):
        kappa = table.kappa
        for n in range(top + 1):
            f = monomial_signal(n)
            lo, hi = (-8.0, 8.0)
            grid = grid_for_window(kappa, w, lo, hi, table)
            samples = take_samples(f, grid)
            ts = np.linspace(lo, hi, 700)
            err = np.max(np.abs(apply_sw(samples, grid, table, ts) - ts**n))
            assert err <= 1e-7, (kappa, n, err)


def test_constant_reproduction_wide_window(table_q3):
    f = monomial_signal(0)
    grid = grid_for_window(KAPPA_Q3, 4.0, -50.0, 50.0, table_q3)
    samples = take_samples(f, grid)
    ts = np.linspace(-50.0, 50.0, 2000)
    assert np.max(np.abs(apply_sw(samples, grid, table_q3, ts) - 1.0)) <= 1e-9


def test_apply_sw_coverage_error(table_q3):
    f = SplineElement(3, 0, np.ones(6))
    grid = grid_for_window(KAPPA_Q3, 1.0, 0.0, 5.0, table_q3)
    samples = take_samples(f, grid)
    with pytest.raises(ValueError, match="insufficient"):
        apply_sw(samples, grid, table_q3, np.asarray([0.0, 40.0]))


def test_apply_sw_empty_t(table_q3):
    grid = grid_for_window(KAPPA_Q3, 1.0, 0.0, 5.0, table_q3)
    samples = take_samples(SplineElement(3, 0, np.ones(6)), grid)
    for shape in ((0,), (0, 3), (2, 0)):
        got = apply_sw(samples, grid, table_q3, np.empty(shape))
        assert isinstance(got, np.ndarray) and got.shape == shape


def test_window_must_be_finite_and_ordered(table_q3):
    grid = grid_for_window(KAPPA_Q3, 1.0, 0.0, 5.0, table_q3)
    samples = take_samples(SplineElement(3, 0, np.ones(6)), grid)
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match=f"t_lo={bad!r}"):
            grid_for_window(KAPPA_Q3, 4.0, bad, 1.0, table_q3)
        with pytest.raises(ValueError, match=f"t_hi={bad!r}"):
            grid_for_window(KAPPA_Q3, 4.0, 0.0, bad, table_q3)
        with pytest.raises(ValueError, match="finite ends"):
            apply_sw(samples, grid, table_q3, np.array([1.0, bad, 2.0]))
    with pytest.raises(ValueError, match="t_lo=2.0, t_hi=1.0"):
        grid_for_window(KAPPA_Q3, 4.0, 2.0, 1.0, table_q3)
    # finite ends whose reach W t overflows
    with pytest.raises(ValueError, match="finite ends"):
        grid_for_window(KAPPA_Q3, 4.0, -1e308, 1.0, table_q3)


def test_table_for_another_kappa_is_rejected(table_q4h):
    # same rho, so the sample shapes alone cannot tell the tables apart
    grid = grid_for_window(KAPPA_Q3, 1.0, 0.0, 5.0, table_q4h)
    samples = take_samples(SplineElement(3, 0, np.ones(6)), grid)
    with pytest.raises(ValueError, match="does not match"):
        apply_sw(samples, grid, table_q4h, np.linspace(0.0, 5.0, 11))


def test_required_l_range_brackets_support(table_q3):
    grid = grid_for_window(KAPPA_Q3, 2.0, -1.0, 1.0, table_q3)
    l_lo, l_hi = grid.l_lo, grid.l_hi
    # kernels reaching [-1, 1] under W = 2 need l covering [W t - hi, W t - lo]
    assert l_lo <= (2.0 * -1.0 - (2 * 3 + 2 - 1 + 3)) / 2
    assert l_hi >= (2.0 * 1.0 + 2 * 3) / 2


def test_sw_coeffs_shape_and_base(table_q3):
    # one unit sample at (l, i) collapses to W^-i Theta_i(W t - rho l), so the
    # collapsed coefficients sit at their lattice base for every channel
    w, ts = 2.0, np.linspace(-1.0, 1.0, 41)
    grid = grid_for_window(KAPPA_Q3, w, -1.0, 1.0, table_q3)
    n = grid.l_hi - grid.l_lo + 1
    for l, i in ((grid.l_lo, 0), (0, 1), (1, 0), (grid.l_hi, 1)):
        samples = np.zeros((n, 2))
        samples[l - grid.l_lo, i] = 1.0
        want = w ** (-i) * theta_eval(table_q3, i, w * ts - 2 * l)
        np.testing.assert_allclose(apply_sw(samples, grid, table_q3, ts), want, rtol=0, atol=1e-13)
    with pytest.raises(ValueError, match=r"samples must have shape \(L, 2\)"):
        apply_sw(np.zeros((n, 3)), grid, table_q3, ts)


def test_discrete_norm():
    grid = SampleGrid(KAPPA_Q3, 1.0, 0, 19)
    assert discrete_norm(np.zeros((20, 2)), grid, 2.0) == 0.0
    assert discrete_norm(np.ones((20, 1)), grid, 2.0) == pytest.approx(
        math.sqrt(40.0), abs=1e-12
    )
    assert discrete_norm(np.ones((20, 2)), grid, 1.0) == pytest.approx(80.0, abs=1e-12)
    with pytest.raises(ValueError):
        discrete_norm(np.ones((4, 2)), grid, 0.5)


def test_frame_bounds_q3_golden():
    b = frame_bounds(KAPPA_Q3)
    assert b.lower == pytest.approx(0.5, abs=1e-12)
    assert b.upper == pytest.approx(2.0, abs=1e-12)
    assert b.upper_frame == pytest.approx(15.0, abs=1e-9)


def test_frame_bounds_q3_t_independent():
    # the 129 points s <= 128 of a 257-point grid, on the last axis
    sym = build_symbol(KAPPA_Q3)
    psi = circle_values(sym, 257)
    assert psi.shape == (2, 2, 129)
    psi = np.moveaxis(psi, -1, 0)
    gram = np.matmul(psi.conj().transpose(0, 2, 1), psi)
    lam = np.linalg.eigvalsh(gram)
    assert float(np.ptp(lam[:, 0])) <= 1e-12
    assert float(np.ptp(lam[:, 1])) <= 1e-12


def test_frame_bounds_half_circle_matches_full_circle():
    # the points s <= n//2 give the extremes of the whole grid, odd n included
    for kappa in (KAPPA_Q3, KAPPA_Q4, KAPPA_Q4H, Kappa(7, Fraction(1, 3), 2),
                  Kappa(6, Fraction(1, 2), 4), Kappa(8, Fraction(0), 5)):
        sym = build_symbol(kappa)
        for n in (64, 1024, 1025):
            b = frame_bounds(kappa, grid_n=n)
            lo, hi = frame_extremes_reference(sym, n)
            assert b.lower == pytest.approx(lo, rel=1e-12, abs=0), (kappa, n)
            assert b.upper == pytest.approx(hi, rel=1e-12, abs=0), (kappa, n)


def _full_stack_eigvalsh(sym, n: int) -> np.ndarray:
    """Eigenvalues of Psi* Psi with eigvalsh on every half-circle point of
    circle_values, one row per point: the frame constants' input without a
    screen."""
    psi = np.moveaxis(circle_values(sym, n), -1, 0)
    return np.linalg.eigvalsh(np.matmul(psi.conj().transpose(0, 2, 1), psi))


def _full_stack_extremes(sym, n: int) -> tuple[float, float]:
    lam = _full_stack_eigvalsh(sym, n)
    return float(lam[:, 0].min()), float(lam[:, -1].max())


# The benchmark's certify grid: rho 2-5, m <= 12, shifts p/q with q <= 6.
CERTIFY_GRID = sorted({
    (m, Fraction(p, q), rho)
    for rho in range(2, 6)
    for m in range(rho + 1, 13)
    for q in range(1, 7)
    for p in range(rho * q)
})


def test_frame_bounds_screen_keeps_full_stack_extremes():
    # a seeded sample of the certify grid, less its symbols of monomial
    # columns (solved at z = 1 alone), plus the non-CIS (4, 0, 2), Q4H
    # (minimum between the screen's coarse points) and (12, 2/5, 5) (both
    # extremes on the last half-circle point)
    rng = np.random.default_rng(19)
    kappas = [Kappa(*CERTIFY_GRID[i]) for i in rng.choice(len(CERTIFY_GRID), 12, replace=False)]
    kappas = [k for k in kappas if not sampler._monomial_columns(build_symbol(k))]
    kappas += [Kappa(4, Fraction(0), 2), KAPPA_Q4H, Kappa(12, Fraction(2, 5), 5)]
    assert any(not check_cis(k).is_cis for k in kappas)
    for kappa in kappas:
        sym = build_symbol(kappa)
        for n in (64, 65, 1000, 1024, 1025, 4096):
            b = frame_bounds(kappa, grid_n=n)
            assert (b.lower, b.upper) == _full_stack_extremes(sym, n), (kappa, n)


def test_frame_bounds_solves_few_points(monkeypatch):
    # both eigvalsh and the np.matmul Gram see only the points solved, so a
    # product over the whole stack cannot come back unnoticed
    rows = {"eigvalsh": [], "matmul": []}
    eigvalsh, matmul = np.linalg.eigvalsh, np.matmul

    def counting_eigvalsh(h):
        rows["eigvalsh"].append(len(h))
        return eigvalsh(h)

    def counting_matmul(a, b):
        rows["matmul"].append(len(a))
        return matmul(a, b)

    monkeypatch.setattr(np.linalg, "eigvalsh", counting_eigvalsh)
    monkeypatch.setattr(np, "matmul", counting_matmul)
    frame_bounds(Kappa(12, Fraction(2, 5), 5), grid_n=1024)
    for name, counts in rows.items():
        assert 0 < sum(counts) <= 64, (name, counts)  # of the 513 half-circle points


def test_frame_bounds_skips_screen_on_monomial_columns(monkeypatch):
    # m = rho + 1 with an integer shift puts one monomial in each column of
    # the symbol, Psi(z) = C diag(z^k_j), whose spectrum is that of C^T C at
    # every point: eigvalsh solves the one matrix Psi(1)* Psi(1), which every
    # grid holds at s = 0, and the screen never runs.  Q4H's columns are not
    # monomials and it is still screened.
    monomial = [Kappa(*k) for k in CERTIFY_GRID if sampler._monomial_columns(build_symbol(Kappa(*k)))]
    assert len(monomial) == 14
    assert {KAPPA_Q3, KAPPA_Q4, Kappa(5, Fraction(0), 4)} <= set(monomial)
    calls, solved = [], []
    screen, eigvalsh = sampler._positive_definite, np.linalg.eigvalsh

    def counting_screen(h):
        calls.append(h.shape)
        return screen(h)

    def counting_eigvalsh(h):
        solved.append(len(h))
        return eigvalsh(h)

    monkeypatch.setattr(sampler, "_positive_definite", counting_screen)
    monkeypatch.setattr(np.linalg, "eigvalsh", counting_eigvalsh)
    for kappa in monomial:
        sym = build_symbol(kappa)
        for n in (64, 1024, 4096):
            lam = _full_stack_eigvalsh(sym, n)
            solved.clear()
            b = frame_bounds(kappa, grid_n=n)
            assert solved == [1], (kappa, n)
            assert (b.lower, b.upper) == (lam[0, 0], lam[0, -1]), (kappa, n)
            lo, hi = float(lam[:, 0].min()), float(lam[:, -1].max())
            assert lo <= b.lower <= lo * (1 + 1e-12), (kappa, n)
            assert hi * (1 - 1e-12) <= b.upper <= hi, (kappa, n)
    b = frame_bounds(KAPPA_Q3)
    assert (b.lower, b.upper, b.upper_frame) == (0.5, 2.0, 15.0)
    for kappa in (KAPPA_Q3, KAPPA_Q4, Kappa(5, Fraction(0), 4)):
        verify_sampling_inequality(kappa, n_trials=10)
    assert calls == []
    frame_bounds(KAPPA_Q4H)
    assert len(calls) == 1


def test_positive_definite_matches_eigvalsh():
    rng = np.random.default_rng(7)
    for r in (1, 2, 3, 5):
        x = rng.standard_normal((200, r, r)) + 1j * rng.standard_normal((200, r, r))
        h = np.matmul(x, x.conj().transpose(0, 2, 1))
        # shifts around the spectrum make about half of the stack indefinite
        h -= rng.uniform(0.0, 2.0, (200, 1, 1)) * np.linalg.eigvalsh(h)[:, :1, None] * np.eye(r)
        expected = np.linalg.eigvalsh(h)[:, 0] > 0
        assert 0 < expected.sum() < len(h)
        assert (_positive_definite(h.copy()) == expected).all(), r
        # leading axes are a stack too, as the frame constants' two screens
        assert (_positive_definite(h.reshape(2, 100, r, r).copy()) == expected.reshape(2, 100)).all()
    special = np.array([
        [[1, 1j, 0], [-1j, 1, 0], [0, 0, 1]],  # singular: the second pivot is 0
        [[2, 1j, 0], [-1j, 2, 1], [0, 1, -1]],  # pivots 2, 3/2, -5/3
        [[2, 1j, 0], [-1j, 2, 1], [0, 1, 1]],  # pivots 2, 3/2, 1/3
    ])
    assert _positive_definite(special).tolist() == [False, False, True]


def test_frame_bounds_exact_at_rho_1():
    # Kappa(4, 0, 1) has the scalar symbol Psi(z) = (z + 4 z^2 + z^3) / 6,
    # whose modulus runs from |Psi(-1)| = 1/3 to |Psi(1)| = 1, both grid
    # points: A = 1/9 and B = 1 exactly
    b = frame_bounds(Kappa(4, Fraction(0), 1))
    assert (b.lower, b.upper) == (1.0 / 9.0, 1.0)


def test_frame_bounds_at_rho_1_are_extreme_moduli():
    # at rho = 1, Psi* Psi = |Psi|^2: for every CIS m from 3 to 14, A and B
    # are the extreme squared moduli of the symbol on the grid, the same floats
    kappas = [Kappa(m, a, 1) for m in range(3, 15) for a in (Fraction(0), Fraction(1, 2))]
    kappas = [k for k in kappas if check_cis(k).is_cis]
    assert len(kappas) == 12
    for kappa in kappas:
        v = circle_values(build_symbol(kappa), 1024)
        sq = (np.conj(v) * v).real
        b = frame_bounds(kappa)
        assert (b.lower, b.upper) == (float(sq.min()), float(sq.max())), kappa


def test_frame_bounds_q4_golden():
    b = frame_bounds(KAPPA_Q4)
    assert b.lower == pytest.approx(0.32382502232009336, abs=1e-10)
    assert b.upper == pytest.approx(6.176174977679905, abs=1e-10)


def test_frame_bounds_validation():
    with pytest.raises(ValueError):
        frame_bounds(KAPPA_Q3, grid_n=16)
    with pytest.raises(ValueError, match="integer"):
        frame_bounds(KAPPA_Q3, 100.5)


def test_frame_bounds_bounds_its_grid(monkeypatch):
    # numpy and the circle evaluator are swapped for stand-ins that build no
    # array: a grid_n past the cap must raise ValueError before any array,
    # also for Q3, whose monomial columns are solved at z = 1 alone, and one
    # at the cap gets Q4H through to circle_values
    cap = sampler._FRAME_MAX_GRID_N
    reached = []

    def no_circle_values(rows, n):
        reached.append(n)
        raise LookupError("circle_values reached")

    monkeypatch.setattr(sampler, "np", SimpleNamespace())
    monkeypatch.setattr(sampler, "circle_values", no_circle_values)
    for kappa in (KAPPA_Q3, KAPPA_Q4H):
        with pytest.raises(ValueError, match="grid_n"):
            frame_bounds(kappa, grid_n=cap + 1)
    assert reached == []
    with pytest.raises(LookupError):
        frame_bounds(KAPPA_Q4H, grid_n=cap)
    assert reached == [cap]


def test_sample_grid_and_approx_error_bound_their_points(table_q3, monkeypatch):
    # numpy is swapped for a namespace that builds no array: a dilation one
    # node past the bound, or a grid_n past it, must raise ValueError before
    # any array, and at the bound approx_error gets through to its first
    # array, which raises AttributeError here
    cap, v = sampler._MAX_POINTS, table_q3.radius
    f = SplineElement(3, 0, np.ones(4))
    monkeypatch.setattr(sampler, "np", SimpleNamespace())
    # at rho = 2 the window [0, 1] takes 2V + 3 + ceil(W / 2) nodes
    w = 2.0 * (cap - 2 * v - 3)
    grid = grid_for_window(KAPPA_Q3, w, 0.0, 1.0, table_q3)
    assert grid.l_hi - grid.l_lo + 1 == cap
    with pytest.raises(ValueError, match=r"sample count .* got W=8\d+\.0, "):
        grid_for_window(KAPPA_Q3, w + 1.0, 0.0, 1.0, table_q3)
    for past in ({"w": 1e20}, {"w": 1e300}, {"w": 4.0, "grid_n": cap + 1}):
        with pytest.raises(ValueError, match="^need"):
            approx_error(table_q3, f, **{"grid_n": 100, **past})
    with pytest.raises(AttributeError):
        approx_error(table_q3, f, 4.0, grid_n=cap)


def test_approx_error_rejects_non_integer_grid(table_q3):
    f1 = get_signal("f1")
    for grid_n in (10.5, 0):
        with pytest.raises(ValueError, match="grid_n"):
            approx_error(table_q3, f1, 8.0, grid_n=grid_n)


def test_sampling_inequality_rejects_no_trials():
    for n_trials in (0, -3, 2.5):
        with pytest.raises(ValueError, match="n_trials"):
            verify_sampling_inequality(KAPPA_Q3, n_trials=n_trials)


def test_sampling_inequality_no_violations():
    for kappa in VERIFY_KAPPAS:
        rep = verify_sampling_inequality(kappa, n_trials=50)
        assert rep.violations == 0
        # the generalized eigenvalues of (M, G) bracket every trial ratio
        assert (
            rep.lower - 1e-9 <= rep.eig_min <= rep.min_ratio
            <= rep.max_ratio <= rep.eig_max <= rep.upper_frame + 1e-9
        ), kappa
        bounds = frame_bounds(kappa)
        assert (rep.lower, rep.upper_frame) == (bounds.lower, bounds.upper_frame), kappa
    rep = verify_sampling_inequality(KAPPA_Q3)
    assert round(rep.eig_min, 3) == 0.502 and round(rep.eig_max, 2) == 14.77


def test_sampling_inequality_builds_one_symbol(monkeypatch):
    built = []

    def counting_build_symbol(kappa):
        built.append(kappa)
        return build_symbol(kappa)

    monkeypatch.setattr(sampler, "build_symbol", counting_build_symbol)
    rep = verify_sampling_inequality(KAPPA_Q4H, n_trials=10)
    assert built == [KAPPA_Q4H]
    bounds = frame_bounds(KAPPA_Q4H)
    assert (rep.lower, rep.upper_frame) == (bounds.lower, bounds.upper_frame)


def sw_boundedness_probe(kappa, table, w_list, f, p: float = 2.0):
    """Ratio of reconstruction norm to sample norm across dilations,
    W -> ||S_W f||_p / ||samples||_{l^p}; a stable configuration keeps it
    bounded uniformly in W."""
    lo, hi = f.support_hint
    ratios = {}
    for w in w_list:
        margin = (kappa.m + kappa.rho * (table.radius + 1)) / w + 1.0
        grid = grid_for_window(kappa, w, lo - margin, hi + margin, table)
        samples = take_samples(f, grid)
        step = min(kappa.rho / (8.0 * w), 0.02)
        ts = np.arange(lo - margin, hi + margin, step)
        vals = apply_sw(samples, grid, table, ts)
        num = float((step * np.sum(np.abs(vals) ** p)) ** (1.0 / p))
        den = discrete_norm(samples, grid, p)
        ratios[float(w)] = num / den
    return SimpleNamespace(ratios=ratios, max_ratio=max(ratios.values()))


def test_boundedness_probe_stays_flat(table_q3):
    f1 = get_signal("f1")
    probe = sw_boundedness_probe(KAPPA_Q3, table_q3, [1.0, 2.0, 4.0, 8.0, 16.0, 32.0], f1)
    vals = list(probe.ratios.values())
    assert all(v > 0 and np.isfinite(v) for v in vals)
    assert max(vals) / min(vals) <= 10.0
    assert probe.max_ratio == max(vals)


@pytest.mark.parametrize(
    "call",
    [
        lambda t: moment_check_fourier(t, 1, 10**400),
        lambda t: tau_modulus(channel(get_signal("f3"), 0), 2, 10**400, 2.0),
        lambda t: tau_modulus(channel(get_signal("f3"), 0), 2, 0.1, 10**400),
        lambda t: tau_modulus(channel(get_signal("f3"), 0), 2, 0.1, 2.0, domain=(0, 10**400)),
        lambda t: approx_error(t, get_signal("f1"), 10**400),
        lambda t: grid_for_window(t.kappa, 10**400, 0.0, 1.0, t),
        lambda t: grid_for_window(t.kappa, 10**5000, 0.0, 1.0, t),
        lambda t: grid_for_window(t.kappa, 1.0, -(10**400), 1.0, t),
        lambda t: grid_for_window(t.kappa, 1.0, 0.0, 10**400, t),
        lambda t: SampleGrid(t.kappa, 1.0, -(10**5000), 0),
        lambda t: Kappa(10**5000, 0, 2),
    ],
    ids=["moment-l", "tau-delta", "tau-p", "tau-domain-hi", "approx-w", "grid-W",
         "grid-W-5001-digits", "grid-t_lo", "grid-t_hi", "grid-l_lo-5001-digits",
         "kappa-m-5001-digits"],
)
def test_integers_past_the_float_range_are_argument_errors(table_q3, call):
    # an int compares with every float bound, but float() of 10**400
    # overflows, so it lies in no range; past 4300 digits repr() raises
    # (Python 3.11+), and the message still builds
    with pytest.raises(ArgumentError, match="^need "):
        call(table_q3)
