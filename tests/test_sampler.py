"""Spline elements, sample grids, the sampling operator, frame bounds, and
the sampling inequality."""

import math
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest

from derivsamp.bspline import eval_q_deriv
from derivsamp.sampler import (
    SampleGrid,
    SplineElement,
    apply_sw,
    frame_bounds,
    grid_for_window,
    required_l_range,
    sw_spline_coeffs,
    take_samples,
    verify_sampling_inequality,
)
from derivsamp.signals import get_signal, monomial_signal, random_spline
from derivsamp.symbol import Kappa

from conftest import KAPPA_Q3, KAPPA_Q4, KAPPA_Q4H, discrete_norm


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
            assert np.max(np.abs(f.eval(ts, deriv=deriv) - direct)) <= 1e-12


def test_spline_element_support_and_outside():
    f = SplineElement(3, 2, np.ones(4))
    assert f.support == (2.0, 8.0)
    assert f.eval(1.9) == 0.0 and f.eval(8.1) == 0.0


def test_l2_norm_single_bumps():
    # ||Q_3||^2 = 11/20, ||Q_4||^2 = 151/315
    assert SplineElement(3, 0, [1.0]).l2_norm() ** 2 == pytest.approx(11.0 / 20.0, abs=1e-12)
    assert SplineElement(4, 0, [1.0]).l2_norm() ** 2 == pytest.approx(151.0 / 315.0, abs=1e-12)


def test_l2_norm_matches_riemann():
    f = random_spline(4, 12, seed=5)
    lo, hi = f.support
    ts = np.linspace(lo, hi, 400_001)
    riemann = math.sqrt(np.trapezoid(f.eval(ts) ** 2, ts))
    assert f.l2_norm() == pytest.approx(riemann, rel=1e-8)


def test_grid_validation():
    with pytest.raises(ValueError):
        SampleGrid(KAPPA_Q3, 0.0, 0, 4)
    with pytest.raises(ValueError):
        SampleGrid(KAPPA_Q3, 1.0, 4, 0)
    g = SampleGrid(KAPPA_Q4H, 2.0, -1, 2)
    assert np.allclose(g.nodes(), (0.5 + 2.0 * np.arange(-1, 3)) / 2.0)


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
    with pytest.raises(ValueError, match="undefined point t=3"):
        take_samples(f3, g)
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
            lo, hi = f.support
            grid = grid_for_window(kappa, 1.0, lo, hi, table)
            samples = take_samples(f, grid)
            ts = np.linspace(lo, hi, 500)
            err = np.max(np.abs(apply_sw(samples, grid, table, ts) - f.eval(ts)))
            assert err <= 1e-10, (kappa, trial, err)


def test_reconstruction_dilation_covariance(table_q4):
    # g(t) = h(W t) is sampled at (a + rho l)/W with g^(i) = W^i h^(i)(W .)
    kappa = table_q4.kappa
    w = 4.0
    h = random_spline(4, 10, seed=9)
    lo, hi = h.support
    grid = grid_for_window(kappa, w, lo / w, hi / w, table_q4)
    nodes = grid.nodes()
    samples = np.stack(
        [w**i * h.eval(w * nodes, deriv=i) for i in range(kappa.rho)], axis=1
    )
    ts = np.linspace(lo / w, hi / w, 400)
    err = np.max(np.abs(apply_sw(samples, grid, table_q4, ts) - h.eval(w * ts)))
    assert err <= 1e-10


def test_polynomial_reproduction(table_q3, table_q4, table_q4h):
    w = 4.0
    for table, top in ((table_q3, 2), (table_q4, 3), (table_q4h, 3)):
        kappa = table.kappa
        for n in range(top + 1):
            f = monomial_signal(n, half_width=60.0)
            lo, hi = (-8.0, 8.0)
            grid = grid_for_window(kappa, w, lo, hi, table)
            samples = take_samples(f, grid)
            ts = np.linspace(lo, hi, 700)
            err = np.max(np.abs(apply_sw(samples, grid, table, ts) - ts**n))
            assert err <= 1e-7, (kappa, n, err)


def test_constant_reproduction_wide_window(table_q3):
    f = monomial_signal(0, half_width=60.0)
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


def test_required_l_range_brackets_support(table_q3):
    l_lo, l_hi = required_l_range(KAPPA_Q3, 2.0, -1.0, 1.0, table_q3.radius)
    # kernels reaching [-1, 1] under W = 2 need l covering [W t - hi, W t - lo]
    assert l_lo <= (2.0 * -1.0 - (2 * 3 + 2 - 1 + 3)) / 2
    assert l_hi >= (2.0 * 1.0 + 2 * 3) / 2


def test_sw_coeffs_shape_and_base(table_q3):
    grid = SampleGrid(KAPPA_Q3, 1.0, -2, 5)
    samples = np.zeros((8, 2))
    n_lo, e = sw_spline_coeffs(samples, grid, table_q3)
    assert n_lo == 2 * (-2 - table_q3.radius)
    assert e.shape == (2 * (8 + 2 * table_q3.radius),)
    with pytest.raises(ValueError):
        sw_spline_coeffs(np.zeros((8, 3)), grid, table_q3)


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
    from derivsamp.symbol import build_symbol

    sym = build_symbol(KAPPA_Q3)
    ts = np.arange(257) / 257
    psi = sym.eval_grid(ts)
    gram = np.matmul(psi.conj().transpose(0, 2, 1), psi)
    lam = np.linalg.eigvalsh(gram)
    assert float(np.ptp(lam[:, 0])) <= 1e-12
    assert float(np.ptp(lam[:, 1])) <= 1e-12


def test_frame_bounds_q4_golden():
    b = frame_bounds(KAPPA_Q4)
    assert b.lower == pytest.approx(0.32382502232009336, abs=1e-10)
    assert b.upper == pytest.approx(6.176174977679905, abs=1e-10)


def test_frame_bounds_validation():
    with pytest.raises(ValueError):
        frame_bounds(KAPPA_Q3, grid_n=16)


def test_sampling_inequality_no_violations():
    for kappa in (KAPPA_Q3, KAPPA_Q4):
        rep = verify_sampling_inequality(kappa, n_trials=50)
        assert rep.violations == 0
        assert rep.lower - 1e-9 <= rep.min_ratio
        assert rep.max_ratio <= rep.upper_frame + 1e-9


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
