"""Signal catalog: derivative consistency, undefined and special points, and
the probe-signal constructors."""

import math

import numpy as np
import pytest

from derivsamp.bspline import riesz_lower_bound
from derivsamp.signals import (
    catalog,
    channel,
    constant_signal,
    get_signal,
    monomial_signal,
)

from conftest import random_spline


def _interior_points(spec, i, rng, n=200):
    lo, hi = spec.support_hint
    pts = rng.uniform(lo + 0.05, hi - 0.05, n)
    avoid = set(spec.undefined_points(i)) | set(spec.undefined_points(i + 1))
    for q in avoid:
        pts = pts[np.abs(pts - q) > 1e-2]
    return pts


def test_derivative_channels_consistent():
    rng = np.random.default_rng(51)
    h = 1e-5
    for spec in catalog():
        for i in range(spec.max_deriv):
            pts = _interior_points(spec, i, rng)
            fd = (spec.eval(i, pts + h) - spec.eval(i, pts - h)) / (2.0 * h)
            want = spec.eval(i + 1, pts)
            scale = 1.0 + np.abs(want)
            assert np.max(np.abs(fd - want) / scale) <= 1e-5, (spec.id, i)


def test_golden_values():
    f1, f2, f3 = get_signal("f1"), get_signal("f2"), get_signal("f3")
    assert f1.eval(0, 0.0) == pytest.approx(0.0, abs=1e-15)
    assert f1.eval(1, 0.0) == pytest.approx(2.0 * math.pi, abs=1e-14)
    assert f2.eval(0, 0.5) == pytest.approx(1.0, abs=1e-14)
    assert f2.eval(0, 4.0) == 0.0
    assert f3.eval(0, 0.0) == pytest.approx(2.0, abs=1e-15)
    assert f3.eval(0, 3.0 - 1e-9) == pytest.approx(-11.5, abs=1e-7)
    assert f3.eval(0, 3.0) == 0.0  # value channel is defined (zero) at the edge
    assert f3.eval(0, -1.5) == 0.0


def test_undefined_points_return_nan():
    f2, f3 = get_signal("f2"), get_signal("f3")
    for i in (1, 2):
        assert math.isnan(f2.eval(i, 3.0))
        assert math.isnan(f2.eval(i, -3.0))
    for i in (1, 2, 3):
        assert math.isnan(f3.eval(i, 3.0))
        assert math.isnan(f3.eval(i, -1.5))
    arr = f3.eval(1, np.asarray([0.0, 3.0, 1.0]))
    assert np.isnan(arr[1]) and np.isfinite(arr[0]) and np.isfinite(arr[2])


def test_undefined_points_metadata():
    f1, f2, f3 = get_signal("f1"), get_signal("f2"), get_signal("f3")
    assert f1.undefined_points(0) == ()
    assert f2.undefined_points(0) == ()
    assert f2.undefined_points(1) == (-3.0, 3.0)
    assert f3.undefined_points(2) == (-1.5, 3.0)
    assert f2.special_points == (-3.0, 3.0)
    assert f3.special_points == (-1.5, 3.0)


def test_missing_channel_raises():
    with pytest.raises(ValueError):
        get_signal("f2").eval(3, 0.0)


def test_catalog_and_lookup():
    ids = [s.id for s in catalog()]
    assert ids == ["f1", "f2", "f3", "const", "t^1", "t^2"]
    assert get_signal("f3").id == "f3"
    with pytest.raises(KeyError):
        get_signal("f9")


def test_constant_and_monomial_channels():
    c = constant_signal(2.5)
    assert c.eval(0, 1.7) == 2.5
    assert c.eval(1, 1.7) == 0.0
    m3 = monomial_signal(3)
    ts = np.asarray([-1.3, 0.4, 2.0])
    assert np.allclose(m3.eval(0, ts), ts**3)
    assert np.allclose(m3.eval(1, ts), 3.0 * ts**2)
    assert np.allclose(m3.eval(2, ts), 6.0 * ts)
    assert np.allclose(m3.eval(3, ts), 6.0)
    assert np.allclose(monomial_signal(1).eval(2, ts), 0.0)
    with pytest.raises(ValueError):
        monomial_signal(-1)


def test_channel_adapter():
    f2 = get_signal("f2")
    ch = channel(f2, 1)
    assert ch(0.25) == f2.eval(1, 0.25)
    assert ch.special_points == f2.special_points
    arr = ch(np.asarray([0.1, 0.2]))
    assert arr.shape == (2,)


def test_random_spline_deterministic_and_riesz_bracketed():
    a = random_spline(3, 10, seed=77)
    b = random_spline(3, 10, seed=77)
    assert np.array_equal(a.coeffs, b.coeffs)
    for m in (2, 3, 4):
        for seed in range(20):
            f = random_spline(m, 15, seed=seed)
            ss = float(np.sum(np.asarray(f.coeffs) ** 2))
            n2 = f.l2_norm() ** 2
            assert riesz_lower_bound(m) * ss - 1e-9 <= n2 <= ss + 1e-9, (m, seed)
