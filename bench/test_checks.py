"""The benchmark's checkers reject results corrupted the way plausible bugs would.

    python3 -m pytest -q bench/test_checks.py

Each test builds a real result with derivsamp, checks that the checker
accepts it, corrupts it, and checks that the checker rejects the corruption.
"""

import math
import sys
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import derivsamp as ds  # noqa: E402
from derivsamp.smoothness import _moduli_batch  # noqa: E402

import workloads as wl  # noqa: E402
from layers import TOL  # noqa: E402


@pytest.fixture(scope="module")
def table_q3():
    return ds.inv_symbol_coeffs(ds.Kappa(3, Fraction(0), 2), tol=TOL)


def test_reconstruct_rejects_scaled_derivative_samples(table_q3):
    kappa = table_q3.kappa
    w = 5 * wl.SQRT7
    sig = wl.DilatedSpline(3, np.random.default_rng(0).uniform(-1, 1, wl.SPLINE_LEN), w)
    grid = ds.grid_for_window(kappa, w, *sig.window, table_q3)
    samples = ds.take_samples(sig, grid)
    npts = 5000
    dense = np.linspace(*sig.window, npts)
    nodes = grid.nodes()
    nodes = nodes[(nodes >= sig.window[0]) & (nodes <= sig.window[1])]
    pts = np.concatenate([dense, nodes])

    def check(s):
        out = (grid, s, ds.apply_sw(s, grid, table_q3, pts), npts)
        truth = lambda t: sig.eval(0, t)  # noqa: E731
        return wl.check_reconstruct((3, "0", 2), "spline", w, sig.window, truth, out, {})

    assert check(samples) is False
    bad = samples.copy()
    bad[:, 1:] *= 1.01
    with pytest.raises(wl.CheckError):
        check(bad)


def test_verify_rejects_scaled_derivative_values(table_q3):
    lo, hi = ds.theta_support(table_q3)
    nodes = np.arange(math.floor(lo / 2) - 1, math.ceil(hi / 2) + 2) * 2.0
    pts = np.sort(np.concatenate([np.random.default_rng(1).uniform(lo, hi, 500), nodes]))
    vals = ds.theta_eval(table_q3, 1, pts, deriv=1)
    assert wl.check_theta(table_q3, 1, 1, pts, nodes, vals) is False
    with pytest.raises(wl.CheckError):
        wl.check_theta(table_q3, 1, 1, pts, nodes, 1.01 * vals)


def test_certify_rejects_perturbed_kernel_coefficient():
    kappa = ds.Kappa(4, Fraction(1, 2), 2)
    report = ds.check_cis(kappa)
    table = ds.inv_symbol_coeffs(kappa, tol=TOL)
    bounds = ds.frame_bounds(kappa)
    assert wl.check_certify(kappa, report, table, bounds) is False
    coeffs = table.coeffs.copy()
    coeffs[1, 0, table.radius + 2] += 1e-6
    with pytest.raises(wl.CheckError):
        wl.check_certify(kappa, report, replace(table, coeffs=coeffs), bounds)


def test_certify_flags_tail_over_tolerance():
    m, a, rho = wl.CERTIFY_FAILING[0]
    kappa = ds.Kappa(m, Fraction(a), rho)
    out = (ds.check_cis(kappa), ds.inv_symbol_coeffs(kappa, tol=TOL), ds.frame_bounds(kappa))
    assert wl.check_certify(kappa, *out) is True


def _tau_half_exponent(f, r, delta, p, domain):
    """tau_modulus with the quadrature exponent p/2 in place of p."""
    est = ds.tau_modulus(f, r, delta, p, domain=domain)
    lo, hi = est.grid_meta["domain"]
    step = est.grid_meta["quad_step"]
    n = round((hi - lo) / step)
    xs = lo + step * (np.arange(n) + 0.5)
    om = _moduli_batch(f, r, xs, delta, 64)
    return replace(est, value=float((step * np.sum(om ** (p / 2))) ** (1.0 / p)))


@pytest.mark.parametrize(
    "sid, r, domain",
    [("t^2", 2, wl.PROBE_DOMAIN), ("f3", 1, None)],
)
def test_smoothness_rejects_half_quadrature_exponent(sid, r, domain):
    ch = ds.channel(ds.get_signal(sid), 0)
    delta, p = 0.2, wl.P
    case = (sid, 0, r)
    est = ds.tau_modulus(ch, r, delta, p, domain=domain)
    assert wl.check_tau(case, "full", est, {}) is False
    with pytest.raises(wl.CheckError):
        wl.check_tau(case, "full", _tau_half_exponent(ch, r, delta, p, domain), {})
