"""Finite differences, local and averaged moduli of smoothness, the lattice
search against a brute-force (t, h) grid search, scaling inequalities, and
log-log order fits."""

import math

import numpy as np
import pytest

from derivsamp import smoothness
from derivsamp.sampler import SampleGrid, take_samples
from derivsamp.signals import channel, constant_signal, get_signal, monomial_signal
from derivsamp.smoothness import fit_order, tau_modulus
from derivsamp.symbol import Kappa

from conftest import (
    discrete_norm,
    finite_diff,
    lattice_moduli_reference,
    local_modulus,
    tau_scaling_check,
)


def test_finite_diff_basics():
    ident = lambda t: np.asarray(t, dtype=float)
    assert finite_diff(ident, 1, 0.25, 3.0) == pytest.approx(0.25, abs=1e-15)
    sq = lambda t: np.asarray(t, dtype=float) ** 2
    assert finite_diff(sq, 2, 0.1, -1.7) == pytest.approx(2 * 0.1**2, abs=1e-13)
    assert finite_diff(sq, 3, 0.1, 0.3) == pytest.approx(0.0, abs=1e-12)
    with pytest.raises(ValueError):
        finite_diff(ident, 0, 0.1, 0.0)


def test_finite_diff_rejects_undefined_nodes():
    ch = channel(get_signal("f2"), 1)
    with pytest.raises(ValueError):
        finite_diff(ch, 1, 0.01, 3.0 - 0.01)  # second node lands on t = 3


def test_difference_annihilates_low_degree():
    rng = np.random.default_rng(61)
    for r in (1, 2, 3, 4):
        for d in range(r):
            coeffs = rng.uniform(-2.0, 2.0, d + 1)
            poly = lambda t: np.polyval(coeffs, np.asarray(t, dtype=float))
            for _ in range(25):
                t = float(rng.uniform(-5.0, 5.0))
                h = float(rng.uniform(0.01, 0.5))
                assert abs(finite_diff(poly, r, h, t)) <= 1e-9


def test_local_modulus_trivials():
    lin = lambda t: np.asarray(t, dtype=float)
    assert local_modulus(lin, 1, 0.0, 0.0) == 0.0
    # best first difference of the identity over h <= delta is exactly delta
    assert local_modulus(lin, 1, 2.0, 0.3) == pytest.approx(0.3, abs=1e-12)
    with pytest.raises(ValueError):
        local_modulus(lin, 0, 0.0, 0.1)
    with pytest.raises(ValueError):
        local_modulus(lin, 1, 0.0, -0.1)
    with pytest.raises(ValueError):
        local_modulus(lin, 1, 0.0, 0.1, search_n=16)


def test_local_modulus_window_ends_exact():
    # the sup of |Delta_h^r t^r| = r! h^r sits at h = delta, t at the window's
    # left end and t + r h at its right end: both ends must be searched
    for x in (math.sqrt(2.0), -math.pi / 3.0, math.e):
        for delta in (0.3, 0.05):
            for r in (1, 2, 3):
                got = local_modulus(channel(monomial_signal(r), 0), r, x, delta)
                assert got == pytest.approx(math.factorial(r) * delta**r, rel=1e-9)


def _grid_oracle(f, r, x, delta, search_n=64):
    """Brute-force (t, h) grid search: search_n t-offsets across the window
    and search_n steps h in [0, delta], plus t just either side of each jump."""
    half = r * delta / 2.0
    ts = list(x + np.linspace(-half, half, search_n))
    for xi in getattr(f, "special_points", ()):
        for j in range(r + 1):
            for h in delta * 0.5 ** np.arange(8):
                ts.extend((xi - j * h - 1e-9, xi - j * h + 1e-9))
    t = np.array(ts)[:, None]
    h = np.linspace(0.0, delta, search_n)[None, :]
    signs = [(-1.0) ** (r - j) * math.comb(r, j) for j in range(r + 1)]
    acc = np.abs(sum(c * f(t + j * h) for j, c in enumerate(signs)))
    bad = (t < x - half - 1e-15) | (t + r * h > x + half + 1e-15)
    acc[bad | ~np.isfinite(acc)] = 0.0
    return float(acc.max())


def test_local_modulus_contains_grid_search():
    # every (t, h) pair of the grid search is a lattice pair, so the lattice
    # estimate can only be larger, up to rounding
    rng = np.random.default_rng(2024)
    for sid, i in (("f1", 0), ("f2", 1), ("f3", 0), ("f3", 1)):
        ch = channel(get_signal(sid), i)
        lo, hi = ch.spec.support_hint
        near = [xi + s for xi in ch.special_points for s in rng.uniform(-0.3, 0.3, 3)]
        for x in [*rng.uniform(lo - 0.5, hi + 0.5, 4), *near]:
            for r in (1, 2, 3):
                for delta in (0.2, 0.05):
                    want = _grid_oracle(ch, r, x, delta)
                    got = local_modulus(ch, r, x, delta)
                    assert got >= want - 1e-12 * max(1.0, abs(want))


def test_local_modulus_sees_jump():
    ch = channel(get_signal("f3"), 0)
    # first difference straddling t = 3 attains the full jump height 11.5
    val = local_modulus(ch, 1, 3.0, 0.05)
    assert val >= 11.5 - 1e-6
    # far from the jump the cubic is smooth: modulus ~ |f'| delta
    val_smooth = local_modulus(ch, 1, 0.5, 0.01)
    assert val_smooth <= 0.02


def test_local_modulus_monotone_in_delta():
    ch = channel(get_signal("f1"), 0)
    vals = [local_modulus(ch, 2, 0.3, d) for d in (0.02, 0.04, 0.08, 0.16)]
    for a, b in zip(vals, vals[1:]):
        assert a <= b + 1e-12


def test_blocked_lattice_is_bytewise_unblocked(monkeypatch):
    # f is pointwise, so splitting the windows into blocks changes no value
    cases = [("f1", 0, 2), ("f2", 1, 2), ("f3", 0, 1), ("f3", 1, 3)]
    full = {}
    for sid, i, r in cases:
        ch = channel(get_signal(sid), i)
        lo, hi = ch.spec.support_hint
        xs = np.linspace(lo - 0.5, hi + 0.5, 301)
        full[sid, i, r] = (smoothness._moduli_batch(ch, r, xs, 0.1, 64),
                           tau_modulus(ch, r, 0.1, 2.0).value)
    # several windows per lattice block, one window per jump-mask block
    monkeypatch.setattr(smoothness, "_BLOCK_ELEMENTS", 2000)
    for sid, i, r in cases:
        ch = channel(get_signal(sid), i)
        lo, hi = ch.spec.support_hint
        xs = np.linspace(lo - 0.5, hi + 0.5, 301)
        om, value = full[sid, i, r]
        assert np.array_equal(smoothness._moduli_batch(ch, r, xs, 0.1, 64), om)
        assert tau_modulus(ch, r, 0.1, 2.0).value == value


def _holed(t):
    """A smooth signal with a hole wider than any window tested, an interval
    of +inf values and scattered single undefined points."""
    t = np.asarray(t, dtype=float)
    out = np.sin(3.0 * t) + 0.5 * t
    out[np.abs(t) < 0.6] = np.nan
    out[np.abs(t - 1.3) < 0.02] = np.inf
    out[np.round(t * 97.0) % 5 == 0] = np.nan
    return out


def _signed_zeros(t):
    """+0.0 right of 0, -0.0 elsewhere: every difference is a signed zero."""
    return np.where(np.asarray(t, dtype=float) > 0.0, 0.0, -0.0)


def _search_cases(r):
    """(f, xs, delta): catalog channels with xs that put lattice points on
    their undefined points, the holed signal, the constant signal and the
    signed zeros."""
    cases = []
    for sid, i in (("f1", 0), ("f2", 0), ("f2", 1), ("f2", 2), ("f3", 0), ("f3", 1)):
        ch = channel(get_signal(sid), i)
        lo, hi = ch.spec.support_hint
        for delta in (0.1, 0.037):
            half = r * delta / 2.0
            near = [pt + s for pt in ch.spec.undefined_points(i) for s in (0.0, -half, half)]
            cases.append((ch, np.array([*np.linspace(lo - 0.5, hi + 0.5, 97), *near]), delta))
    cases.append((_holed, np.linspace(-2.0, 2.0, 301), 0.1))
    cases.append((channel(constant_signal(), 0), np.linspace(-1.0, 1.0, 41), 0.1))
    cases.append((_signed_zeros, np.linspace(-1.0, 1.0, 41), 0.1))
    return cases


@pytest.mark.parametrize("r", [1, 2, 3, 4, 5])
def test_lattice_search_bytewise_reference(monkeypatch, r):
    # the single r = 1 pass and the reused r >= 2 buffers give the bytes of
    # one pass per k, signed zeros included, in any blocking of the windows
    cases = _search_cases(r)

    def run():
        return [smoothness._moduli_batch(f, r, xs, delta, 64) for f, xs, delta in cases]

    with monkeypatch.context() as m:
        m.setattr(smoothness, "_lattice_moduli", lattice_moduli_reference)
        want = run()
    got = run()
    monkeypatch.setattr(smoothness, "_BLOCK_ELEMENTS", 3000)
    for w, g, b in zip(want, got, run()):
        assert g.tobytes() == w.tobytes()
        assert b.tobytes() == w.tobytes()
        assert not np.signbit(g).any()


def test_tau_modulus_zero_for_constant():
    ch = channel(constant_signal(), 0)
    est = tau_modulus(ch, 2, 0.1, 2.0)
    assert est.value == 0.0
    assert est.r == 2 and est.p == 2.0 and est.delta == 0.1


def test_tau_modulus_lp_norm_closed_form():
    # Delta_h^2 t^2 = 2 h^2, so omega_2(t^2; x; delta) = 2 delta^2 at every x
    # and tau_2(t^2; delta)_p = 2 delta^2 L^(1/p) on a domain of length L = 2
    ch = channel(monomial_signal(2), 0)
    for p in (1.0, 2.0):
        for delta in (0.2, 0.1, 0.05, 0.025):
            got = tau_modulus(ch, 2, delta, p, domain=(-1.0, 1.0)).value
            assert got == pytest.approx(2.0 * delta**2 * 2.0 ** (1.0 / p), rel=1e-9)


def test_tau_modulus_validation():
    ch = channel(get_signal("f1"), 0)
    with pytest.raises(ValueError):
        tau_modulus(ch, 2, 0.1, 0.5)
    with pytest.raises(ValueError):
        tau_modulus(ch, 0, 0.1, 2.0)
    with pytest.raises(ValueError):
        tau_modulus(ch, 2, -0.1, 2.0)
    with pytest.raises(ValueError):
        tau_modulus(ch, 2, 0.0, 2.0)
    with pytest.raises(ValueError):
        tau_modulus(ch, 2, 0.1, 2.0, search_n=1)
    # a non-integer search_n is refused before numpy sees it, even when whole
    for search_n in (64.5, 64.0):
        with pytest.raises(ValueError, match="integer search_n"):
            tau_modulus(ch, 2, 0.1, 2.0, search_n=search_n)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"p": math.inf},
        {"p": math.nan},
        {"domain": (1.0, 0.0)},
        {"domain": (0.0, math.inf)},
        {"domain": (math.nan, 1.0)},
        {"delta": math.nan},
        {"delta": math.inf},
        {"r": 1.5},
    ],
    ids=lambda kw: "-".join(f"{k}={v}" for k, v in kw.items()),
)
def test_tau_modulus_rejects_out_of_range(kwargs):
    # the ranges the CLI enforces on its flags, raised by the library itself
    args = {"r": 2, "delta": 0.1, "p": 2.0, **kwargs}
    with pytest.raises(ValueError, match="^need"):
        tau_modulus(channel(get_signal("f1"), 0), **args)


def test_tau_modulus_counts_evaluations():
    spec = get_signal("f3")
    sizes = []

    def f(t):
        sizes.append(np.size(t))
        return spec.eval(0, t)

    f.special_points = spec.special_points
    est = tau_modulus(f, 1, 0.1, 2.0, domain=(2.875, 3.125))
    # 20 windows (cells of delta/8) of 64 lattice points; 36 jump candidates
    # (-1.5 and 3 +- 1e-9, and 8 steps h back from each), each paired with
    # 64 h and 2 nodes
    assert est.grid_meta["quad_step"] == 0.0125
    assert est.grid_meta["lattice_n"] == 64
    assert est.grid_meta["f_evals"] == 20 * 64 + 36 * 64 * 2 == sum(sizes)
    est = tau_modulus(f, 2, 0.1, 2.0, domain=(2.875, 3.125))
    assert est.grid_meta["lattice_n"] == 127


def test_tau_scaling_inequality():
    assert tau_scaling_check(channel(get_signal("f1"), 0), 2, 0.1, 2.0, 2.0)
    assert tau_scaling_check(channel(get_signal("f3"), 0), 1, 0.05, 3.0, 2.0)


def test_fit_order_trivial_and_errors():
    pairs = [(s, 3.0 * s * s) for s in (0.1, 0.2, 0.4, 0.8)]
    slope, r2 = fit_order(pairs)
    assert slope == pytest.approx(2.0, abs=1e-12)
    assert r2 == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(ValueError):
        fit_order(pairs[:3])
    with pytest.raises(ValueError):
        fit_order([(0.1, 1.0), (0.2, -1.0), (0.4, 1.0), (0.8, 1.0)])


def test_smooth_signal_tau_decays():
    # tau_1 of a C^1 signal must scale at least close to delta^1
    ch = channel(get_signal("f1"), 0)
    deltas = (0.4, 0.2, 0.1, 0.05)
    vals = [tau_modulus(ch, 1, d, 2.0).value for d in deltas]
    slope, _ = fit_order(zip(deltas, vals))
    assert slope >= 0.7


def test_discrete_norm_bounded_by_channel_norms():
    # (rho/W sum |f^{(i)}(node)|^2)^{1/2} against sum_i (||f^{(i)}|| +
    # step ||f^{(i+1)}||), the Riemann-sum comparison that motivates the
    # weighting
    f1 = get_signal("f1")
    kappa = Kappa(3, 0, 2)
    w = 4.0
    grid = SampleGrid(kappa, w, -24, 24)
    samples = take_samples(f1, grid)
    got = discrete_norm(samples, grid, 2.0)
    ts = np.linspace(-12.0, 12.0, 48_001)
    norms = [
        math.sqrt(np.trapezoid(f1.eval(i, ts) ** 2, ts)) for i in range(3)
    ]
    step = kappa.rho / w
    bound = sum(norms[i] + step * norms[i + 1] for i in range(2))
    assert got <= bound * 1.05
