"""Signal catalog: derivative consistency, undefined and special points, and
the probe-signal constructors."""

import math
import os
import subprocess
import sys

import numpy as np
import pytest

import derivsamp
from derivsamp.bspline import riesz_lower_bound
from derivsamp.signals import (
    SignalSpec,
    catalog,
    channel,
    constant_signal,
    get_signal,
    monomial_signal,
)

from conftest import l2_norm_gram, random_spline


def _interior_points(spec, rng, n=200):
    lo, hi = spec.support_hint
    pts = rng.uniform(lo + 0.05, hi - 0.05, n)
    for q in spec.special_points:
        pts = pts[np.abs(pts - q) > 1e-2]
    return pts


def test_derivative_channels_consistent():
    rng = np.random.default_rng(51)
    h = 1e-5
    for spec in catalog():
        for i in range(spec.max_deriv):
            pts = _interior_points(spec, rng)
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
    # a channel is NaN only at its own declared points: the value channels of
    # f2 and f3 stay defined at the special points, and f1 has none
    f1, f2, f3 = get_signal("f1"), get_signal("f2"), get_signal("f3")
    pts = np.asarray([-3.0, -1.5, 3.0])
    assert np.isfinite(f1.eval(0, pts)).all() and np.isfinite(f2.eval(0, pts)).all()
    assert np.isnan(f2.eval(1, pts)).tolist() == [True, False, True]
    assert np.isnan(f3.eval(2, pts)).tolist() == [False, True, True]
    assert f1.special_points == ()
    assert f2.special_points == (-3.0, 3.0)
    assert f3.special_points == (-1.5, 3.0)


def test_missing_channel_raises():
    with pytest.raises(ValueError):
        get_signal("f2").eval(3, 0.0)


def test_channel_keys_without_a_gap():
    # eval reads channel i as the key i: a missing order is refused up front,
    # where eval(1, t) would pass the range check and find no channel
    with pytest.raises(ValueError, match=r"signal 'gap' .*\[2\] fall outside 0\.\.1"):
        SignalSpec("gap", {0: np.sin, 2: np.cos}, (0.0, 1.0))
    with pytest.raises(ValueError, match=r"\['d1'\]"):
        SignalSpec("named", {0: np.sin, "d1": np.cos}, (0.0, 1.0))
    spec = SignalSpec("ok", {1: np.cos, 0: np.sin}, (0.0, 1.0))
    assert spec.max_deriv == 1 and spec.eval(1, 0.0) == 1.0


def test_catalog_and_lookup():
    ids = [s.id for s in catalog()]
    assert ids == ["f1", "f2", "f3", "const", "t^1", "t^2"]
    assert get_signal("f3").id == "f3"
    with pytest.raises(KeyError):
        get_signal("f9")


def test_constant_and_monomial_channels():
    c = constant_signal()
    assert c.eval(0, 1.7) == 1.0
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
            n2 = l2_norm_gram(f) ** 2
            assert riesz_lower_bound(m) * ss - 1e-9 <= n2 <= ss + 1e-9, (m, seed)


def test_integer_powers_independent_of_simd_dispatch():
    # f3 and the monomials take their powers as products, whose bytes do not
    # depend on the SIMD code numpy dispatches to; numpy's pow of a negative
    # base does.  One run disables the AVX-512 targets this numpy lists (on a
    # host without them both runs coincide).  f1 is left out: np.exp's bytes
    # follow the dispatch.
    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:  # numpy 1.x
        from numpy.core import _multiarray_umath as umath
    avx512 = [n for n in umath.__cpu_dispatch__ if n.startswith("AVX512") or n == "X86_V4"]
    code = (
        "import hashlib, numpy as np\n"
        "from derivsamp.signals import get_signal, monomial_signal\n"
        "t = np.linspace(-2.0, 3.5, 4001)\n"
        "h = hashlib.sha256(get_signal('f3').eval(0, t).tobytes())\n"
        "for i in range(4):\n"
        "    h.update(monomial_signal(5).eval(i, t).tobytes())\n"
        "print(h.hexdigest())\n"
    )
    env = {k: v for k, v in os.environ.items() if k != "NPY_DISABLE_CPU_FEATURES"}
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [os.path.dirname(os.path.dirname(derivsamp.__file__)), env.get("PYTHONPATH")])
    )
    digests = []
    for disabled in ((), avx512):
        run_env = dict(env, NPY_DISABLE_CPU_FEATURES=" ".join(disabled)) if disabled else env
        proc = subprocess.run([sys.executable, "-c", code], env=run_env, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        digests.append(proc.stdout.strip())
    assert digests[0] == digests[1], avx512
