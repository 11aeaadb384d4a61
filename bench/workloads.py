"""The benchmark's four workloads: inputs from a seed, operations, and checks.

A workload builds its inputs and the kernel tables it needs in its
constructor (that is the set-up the benchmark times), then hands out one
round: a fixed list of operations for its seed.  A run repeats whole rounds.
Each operation makes the library calls one user request would make; its
`check` compares the outputs with `oracle` or with a property the method
must have, raises `CheckError` on a wrong output, and returns True when the
operation failed its own contract (a kernel table whose `tail_bound`
exceeds the requested tolerance).  `end_round` runs the checks that need a
whole round, such as fitted orders.
"""

from __future__ import annotations

import functools
import hashlib
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable

import numpy as np

import oracle
from layers import TOL, CountingChannel


class CheckError(AssertionError):
    """An output of the program is wrong."""


def require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckError(message)


@dataclass
class Op:
    kind: str
    label: str
    run: Callable[[], Any]
    check: Callable[[Any], bool]


class Workload:
    name = ""

    def round(self) -> list[Op]:
        raise NotImplementedError

    def warmup(self) -> list[Op]:
        """One operation of each kind, run untimed before the first round."""
        seen, out = set(), []
        for op in self.round():
            if op.kind not in seen:
                seen.add(op.kind)
                out.append(op)
        return out

    def end_round(self) -> None:
        """Checks over a whole round; raises CheckError."""


# --- certify -----------------------------------------------------------------

CERTIFY_RHO = (2, 3, 4, 5)
CERTIFY_M_MAX = 12
CERTIFY_Q_MAX = 6

# Every CIS configuration of the certify grid whose table comes back with
# tail_bound > 1e-12 (a full scan, rho 2-5, m <= 12, q <= 6): the radius search
# in inv_symbol_coeffs stops at its n // 3 cap without refining n.  The seeded
# draw leaves these out, and every round runs CERTIFY_FAILING instead, so the
# failed share of a run does not depend on the seed.
KNOWN_TAIL_FAILURES = frozenset(
    [(5, "2/5", 2), (9, "1/3", 2), (9, "2/3", 2), (9, "4/3", 2), (9, "5/3", 2)]
    + [(10, a, 2) for a in ("4/5", "9/5", "1/6", "5/6", "7/6", "11/6")]
    + [(11, a, 2) for a in ("2/5", "3/5", "7/5", "8/5")]
    + [(12, a, 2) for a in ("3/4", "1/5", "4/5", "6/5", "9/5")]
    + [(8, a, 3) for a in ("2/5", "3/5", "7/5", "8/5", "12/5", "13/5")]
    + [(12, "1/3", 3), (12, "4/3", 3)]
    + [(11, a, 4) for a in ("2/5", "3/5", "7/5", "8/5", "12/5", "13/5", "17/5", "18/5")]
    + [(12, a, 5) for a in ("2/5", "7/5", "12/5", "17/5")]
)

# Run in every round; each fails today (tail_bound 2.4e-11, 5.5e-10, 1.2e-12,
# 9.6e-12, 6.8e-11 and 1.6e-12 at tol = 1e-12).
CERTIFY_FAILING = (
    (9, "1/3", 2),
    (10, "5/6", 2),
    (12, "1/3", 3),
    (8, "2/5", 3),
    (11, "2/5", 4),
    (12, "2/5", 5),
)


def certify_shifts(rho: int) -> list[Fraction]:
    """Shifts p/q in [0, rho) with q <= CERTIFY_Q_MAX, each once."""
    return sorted({Fraction(p, q) for q in range(1, CERTIFY_Q_MAX + 1) for p in range(rho * q)})


def vanishing_shift(m: int, a: Fraction, rho: int) -> bool:
    """Whether det Psi has a zero on |z| = 1: exactly when 2a + m - rho is an
    even integer, as a full scan of the certify grid finds without exception."""
    return (2 * a + m - rho) % 2 == 0


class Certify(Workload):
    """One operation qualifies one configuration: check_cis, then, when the
    verdict is CIS, inv_symbol_coeffs and frame_bounds."""

    name = "certify"

    def __init__(self, seed: int, ds, calls):
        self.calls = calls
        rng = np.random.default_rng(seed)
        picked = []
        # One stable shift per stratum (rho, m) and one vanishing shift per
        # rho: every seed draws the same mix of sizes and verdicts, so the cost
        # of a round depends little on the seed, and a round stays short
        # enough to repeat some twenty times in a run.
        for rho in CERTIFY_RHO:
            vanishing = []
            for m in range(rho + 1, CERTIFY_M_MAX + 1):
                shifts = certify_shifts(rho)
                vanishing += [(m, a, rho) for a in shifts if vanishing_shift(m, a, rho)]
                pool = [a for a in shifts if not vanishing_shift(m, a, rho) and (m, str(a), rho) not in KNOWN_TAIL_FAILURES]
                picked.append((m, pool[rng.integers(len(pool))], rho))
            picked.append(vanishing[rng.integers(len(vanishing))])
        picked += [(m, Fraction(a), rho) for m, a, rho in CERTIFY_FAILING]
        self.kappas = [ds.Kappa(m, a, rho) for m, a, rho in (picked[i] for i in rng.permutation(len(picked)))]

    def _qualify(self, kappa):
        report = self.calls.check_cis(kappa)
        if not report.is_cis:
            return report, None, None
        table = self.calls.inv_symbol_coeffs(kappa, tol=TOL)
        return report, table, self.calls.frame_bounds(kappa)

    def _op(self, kappa) -> Op:
        return Op("qualify", str(kappa), lambda: self._qualify(kappa), lambda out: check_certify(kappa, *out))

    def round(self) -> list[Op]:
        return [self._op(k) for k in self.kappas]


@functools.lru_cache(maxsize=None)
def certify_reference(m: int, a: Fraction, rho: int):
    """Reference symbol, the distance of its determinant's zeros from |z| = 1,
    and its frame constants; computed once per configuration."""
    sym = oracle.Symbol(m, a, rho)
    lo, hi = sym.extreme_eigs()
    return sym, sym.det_root_margin(), lo, hi, oracle.upper_frame(m, hi)


def check_certify(kappa, report, table, bounds) -> bool:
    sym, margin, lo, hi, uf = certify_reference(kappa.m, kappa.a, kappa.rho)
    if report.is_cis:
        require(margin > 1e-3, f"{kappa}: verdict CIS but det has a zero {margin:.2e} from |z|=1")
    else:
        require(margin < 1e-6, f"{kappa}: verdict not CIS but det zeros are {margin:.2e} from |z|=1")
        return False
    resid = oracle.inverse_residual(sym, table.coeffs)
    require(resid <= 1e-9, f"{kappa}: symbol times kernel table is off the identity by {resid:.2e}")
    require(0 < bounds.lower <= bounds.upper, f"{kappa}: frame bounds not 0 < A <= B")
    require(abs(bounds.lower - lo) <= 1e-9 * lo, f"{kappa}: A={bounds.lower!r}, reference {lo!r}")
    require(abs(bounds.upper - hi) <= 1e-9 * hi, f"{kappa}: B={bounds.upper!r}, reference {hi!r}")
    require(abs(bounds.upper_frame - uf) <= 1e-9 * uf, f"{kappa}: upper frame {bounds.upper_frame!r}, reference {uf!r}")
    return table.tail_bound > TOL


# --- verify ------------------------------------------------------------------

VERIFY_CONFIGS = (
    (3, "0", 2),
    (4, "1/2", 2),
    (4, "0", 3),
    (5, "0", 2),
    (6, "1/2", 2),
    (5, "1/2", 3),
    (5, "0", 4),
)
# reproducing_order takes 0.15 to 0.8 s in one call on (4,1/2,2), (5,0,2),
# (6,1/2,2) and (5,1/2,3); it runs on the other three, so that a round stays
# short enough to repeat some twenty times in a run.
REPRODUCING_CONFIGS = ((3, "0", 2), (4, "0", 3), (5, "0", 4))
VERIFY_THETA_POINTS = 2048
VERIFY_TRIALS = 4


class Verify(Workload):
    """One operation is one kernel check on a small CIS configuration."""

    name = "verify"

    def __init__(self, seed: int, ds, calls):
        self.calls = calls
        rng = np.random.default_rng(seed)
        tables = [calls.inv_symbol_coeffs(ds.Kappa(m, Fraction(a), rho), tol=TOL) for m, a, rho in VERIFY_CONFIGS]
        self.plan = []
        for table in tables:
            k = table.kappa
            lo, hi = ds.theta_support(table)
            nodes = float(k.a) + k.rho * np.arange(math.floor((lo - 1) / k.rho), math.ceil((hi + 1) / k.rho) + 1)
            thetas = [
                (i, d, np.sort(np.concatenate([rng.uniform(lo, hi, VERIFY_THETA_POINTS - len(nodes)), nodes])), nodes)
                for i in range(k.rho)
                for d in range(k.rho)
            ]
            moments = [(n, int(rng.integers(0, k.rho))) for n in range(min(3, k.m - 1) + 1)]
            self.plan.append((table, thetas, moments, int(rng.integers(1, 2**31))))
        self._theta_refs = {}

    def _theta_ref(self, table, i, d, pts):
        """Reference Theta values for one theta_eval operation, computed once."""
        key = (table.kappa, i, d)
        if key not in self._theta_refs:
            self._theta_refs[key] = theta_reference(table, i, d, pts)
        return self._theta_refs[key]

    def round(self) -> list[Op]:
        c = self.calls
        ops = []
        for table, thetas, moments, vsi_seed in self.plan:
            k = table.kappa
            if (k.m, str(k.a), k.rho) in REPRODUCING_CONFIGS:
                ops.append(Op("reproducing_order", str(k), lambda t=table: c.reproducing_order(t), check_reproducing))
            for n, l in moments:
                ops.append(
                    Op(
                        "moment_check_fourier",
                        f"{k} n={n} l={l}",
                        lambda t=table, n=n, l=l: c.moment_check_fourier(t, n, l),
                        lambda res, k=k, n=n: check_moment(k, n, res),
                    )
                )
            for i, d, pts, nodes in thetas:
                ops.append(
                    Op(
                        "theta_eval",
                        f"{k} i={i} d={d}",
                        lambda t=table, i=i, d=d, pts=pts: c.theta_eval(t, i, pts, deriv=d),
                        lambda vals, t=table, i=i, d=d, pts=pts, nodes=nodes: check_theta(
                            t, i, d, pts, nodes, vals, self._theta_ref(t, i, d, pts)
                        ),
                    )
                )
            ops.append(
                Op(
                    "verify_sampling_inequality",
                    str(k),
                    lambda k=k, s=vsi_seed: c.verify_sampling_inequality(k, n_trials=VERIFY_TRIALS, seed=s),
                    lambda rep: check_inequality(rep),
                )
            )
        return ops


def check_reproducing(rep) -> bool:
    worst = max(rep.residuals[:3])
    require(worst < 1e-8, f"{rep.kappa}: reproduction residual {worst:.2e} for degree <= 2")
    require(rep.order >= 2, f"{rep.kappa}: reproducing order {rep.order} < 2")
    return False


def theta_reference(table, i: int, d: int, pts) -> np.ndarray:
    """Theta_i^(d)(t) = sum_{v,j} c^{ji}(v) Q_m^(d)(t - rho v - j) from the reference B-spline."""
    k = table.kappa
    vs = np.arange(-table.radius, table.radius + 1)
    knots = np.concatenate([k.rho * vs + j for j in range(k.rho)])
    coeffs = np.concatenate([table.coeffs[j, i, :].real for j in range(k.rho)])
    return oracle.spline_series(k.m, d, coeffs, knots, pts)


def check_moment(kappa, n: int, residual) -> bool:
    require(abs(residual) <= 1e-7, f"{kappa}: Fourier moment {n} residual {abs(residual):.2e}")
    return False


def check_theta(table, i: int, d: int, pts, nodes, vals, ref=None) -> bool:
    k = table.kappa
    vals = np.asarray(vals)
    at = np.searchsorted(pts, nodes)
    want = np.where((nodes == float(k.a)) & (i == d), 1.0, 0.0)
    err = float(np.max(np.abs(vals[at] - want)))
    require(err <= 1e-9, f"{k}: Theta_{i}^({d}) at the sample nodes is off delta by {err:.2e}")
    if ref is None:
        ref = theta_reference(table, i, d, pts)
    err = float(np.max(np.abs(vals - ref)))
    require(err <= 1e-9 * max(1.0, float(np.max(np.abs(ref)))), f"{k}: Theta_{i}^({d}) off the reference by {err:.2e}")
    return False


def check_inequality(rep) -> bool:
    k = rep.kappa
    _, _, lower, _, upper_frame = certify_reference(k.m, k.a, k.rho)
    require(rep.violations == 0, f"{k}: {rep.violations} sampling-inequality violations")
    require(abs(rep.lower - lower) <= 1e-9 * lower, f"{k}: A={rep.lower!r}, reference {lower!r}")
    require(abs(rep.upper_frame - upper_frame) <= 1e-9 * upper_frame, f"{k}: upper frame {rep.upper_frame!r}, reference {upper_frame!r}")
    require(
        lower * (1 - 1e-9) <= rep.min_ratio <= rep.max_ratio <= upper_frame * (1 + 1e-9),
        f"{k}: ratios [{rep.min_ratio}, {rep.max_ratio}] outside [{lower}, {upper_frame}]",
    )
    return False


# --- reconstruct -------------------------------------------------------------

RECONSTRUCT_CONFIGS = (
    (3, "0", 2),
    (4, "1/2", 2),
    (5, "0", 2),
    (6, "1/2", 2),
    (7, "0", 2),
    (8, "1/2", 2),
    (9, "0", 2),
    (4, "0", 3),
)
# Criterion 7's floors on the f1 order; these configurations sweep f1 over a
# ladder W = N0 sqrt(7) * (1, 2, 4, 8).
F1_ORDER_FLOORS = {(3, "0", 2): 1.7, (4, "0", 3): 2.7}
RECONSTRUCT_POINTS = (10_000, 20_000, 50_000, 100_000)
WINDOWS = {"f1": (-6.0, 6.0), "f2": (-4.0, 4.0), "f3": (-2.5, 4.0)}
SPLINE_LEN = 12
SQRT7 = math.sqrt(7.0)


class DilatedSpline:
    """t -> s(W t) with s = sum_k c_k Q_m(. - k), an element of the W-dilated space."""

    def __init__(self, m: int, coeffs, w: float):
        self.m, self.coeffs, self.w = m, np.asarray(coeffs, float), w
        self.knots = np.arange(len(self.coeffs), dtype=float)
        self.window = (0.0, (len(self.coeffs) + m) / w)

    def eval(self, i: int, t):
        x = self.w * np.asarray(t, dtype=float)
        return self.w**i * oracle.spline_series(self.m, i, self.coeffs, self.knots, x)

    def undefined_points(self, i: int):
        return ()


class Reconstruct(Workload):
    """One operation samples one signal at W = N sqrt(7) and evaluates S_W on
    a dense grid; the kernel tables are built at set-up."""

    name = "reconstruct"

    def __init__(self, seed: int, ds, calls):
        self.calls = calls
        rng = np.random.default_rng(seed)
        tables = {cfg: calls.inv_symbol_coeffs(ds.Kappa(cfg[0], Fraction(cfg[1]), cfg[2]), tol=TOL) for cfg in RECONSTRUCT_CONFIGS}
        signals = {sid: ds.get_signal(sid) for sid in WINDOWS}
        self.plan = []
        for cfg, table in tables.items():
            m = cfg[0]
            items = []
            if cfg in F1_ORDER_FLOORS:
                n0 = int(rng.integers(2, 5))
                items += [("f1", n0 * s) for s in (1, 2, 4, 8)]
            draws = iter(rng.choice(np.arange(1, 65), size=6, replace=False))
            items += [(sid, int(next(draws))) for sid in ("f1", "f2", "f3") if not (sid == "f1" and cfg in F1_ORDER_FLOORS)]
            items += [("spline", int(next(draws))) for _ in range(2)]
            # A fixed multiset of point counts per configuration, assigned by the seed.
            counts = [RECONSTRUCT_POINTS[j % len(RECONSTRUCT_POINTS)] for j in range(len(items))]
            counts = [counts[j] for j in rng.permutation(len(counts))]
            for (sid, n), npts in zip(items, counts):
                w = n * SQRT7
                if sid == "spline":
                    sig = DilatedSpline(m, rng.uniform(-1.0, 1.0, SPLINE_LEN), w)
                    window, truth = sig.window, (lambda t, s=sig: s.eval(0, t))
                else:
                    sig, window, truth = signals[sid], WINDOWS[sid], oracle.REFERENCE[sid]
                self.plan.append((cfg, table, sid, n, w, sig, window, truth, npts))
        self.f1_errors: dict[tuple, float] = {}  # (configuration, W) -> L2 error of f1
        self._verified: dict[tuple, bytes] = {}

    def _reconstruct(self, table, w, sig, window, npts):
        c = self.calls
        grid = c.grid_for_window(table.kappa, w, window[0], window[1], table)
        samples = c.take_samples(sig, grid)
        dense = np.linspace(window[0], window[1], npts)
        nodes = grid.nodes()
        nodes = nodes[(nodes >= window[0]) & (nodes <= window[1])]
        return grid, samples, c.apply_sw(samples, grid, table, np.concatenate([dense, nodes])), npts

    def round(self) -> list[Op]:
        ops = []
        for cfg, table, sid, n, w, sig, window, truth, npts in self.plan:
            ops.append(
                Op(
                    "sample_reconstruct",
                    f"{table.kappa} {sid} W={n}*sqrt(7) points={npts}",
                    lambda t=table, w=w, s=sig, win=window, p=npts: self._reconstruct(t, w, s, win, p),
                    lambda out, cfg=cfg, sid=sid, w=w, win=window, truth=truth: self._check(cfg, sid, w, win, truth, out),
                )
            )
        return ops

    def _check(self, cfg, sid, w, window, truth, out) -> bool:
        # A later round's output is checked by comparing it with the first
        # round's, which passed the full check: the reference values of every
        # operation, kept instead, would add tens of MB to peak_rss_mb.
        key = (cfg, sid, w)
        digest = hashlib.sha256(out[2].tobytes()).digest()
        if self._verified.get(key) == digest:
            return False
        failed = check_reconstruct(cfg, sid, w, window, truth, out, self.f1_errors)
        self._verified[key] = digest
        return failed

    def end_round(self) -> None:
        for cfg, floor in F1_ORDER_FLOORS.items():
            pairs = sorted((w, err) for (c, w), err in self.f1_errors.items() if c == cfg)
            require(len(pairs) == 4, f"{cfg}: {len(pairs)} of the 4 f1 errors to fit")
            order = -oracle.fit_slope(*zip(*pairs))
            require(order >= floor, f"{cfg}: f1 order {order:.3f} below the floor {floor}")


def check_reconstruct(cfg, sid, w, window, truth, out, f1_errors) -> bool:
    grid, _, rec, npts = out
    ref = truth(np.linspace(window[0], window[1], npts))
    scale = max(1.0, float(np.max(np.abs(ref))))
    nodes = grid.nodes()
    nodes = nodes[(nodes >= window[0]) & (nodes <= window[1])]
    err = float(np.max(np.abs(rec[npts:] - truth(nodes)))) if len(nodes) else 0.0
    require(err <= 1e-9 * scale, f"{cfg} {sid} W={w:.4f}: S_W f differs from f at a sample node by {err:.2e}")
    diff = rec[:npts] - ref
    if sid == "spline":
        err = float(np.max(np.abs(diff)))
        require(err <= 1e-9 * scale, f"{cfg} W={w:.4f}: in-space spline reproduced only to {err:.2e}")
    if sid == "f1" and cfg in F1_ORDER_FLOORS:
        step = (window[1] - window[0]) / (npts - 1)
        f1_errors[(cfg, w)] = math.sqrt(step * float(np.sum(diff**2)))
    return False


# --- smoothness --------------------------------------------------------------

P = 2.0
# Delta ladders as powers k of 2^(-1/2): delta = delta0 * 2^(-k/2), so every
# ladder lies in [0.07, 0.2], where a round stays short enough to repeat.
# delta0 is drawn by the seed from [0.1995, 0.2], so that the cost of a round
# barely depends on the seed.
LADDERS = {"one": (0,), "two": (0, 1), "three": (0, 1, 2), "four": (0, 1, 2, 3)}
# (signal, channel, r, ladder, domain); a domain of None is the full support.
PROBE_DOMAIN = (-1.0, 1.0)
SMOOTHNESS_CASES = (
    ("t^2", 0, 2, "three", PROBE_DOMAIN),
    ("f3", 0, 1, "three", None),
    ("f3", 0, 2, "two", None),
    ("f3", 1, 1, "four", None),
    ("f2", 0, 1, "two", None),
    ("f2", 0, 2, "two", None),
    ("f2", 1, 1, "two", None),
    ("f2", 1, 2, "three", None),
    ("f2", 2, 1, "two", None),
    ("f2", 2, 2, "one", None),
    ("f1", 0, 1, "one", None),
    ("f1", 0, 2, "one", None),
)
# Criterion 8's bands on fitted exponents: (signal, channel, r) -> (centre, half width).
BANDS = {("f3", 0, 1): (0.5, 0.15), ("f3", 1, 1): (0.5, 0.15)}
# tau_2(f2') splits into kink windows (band 1.5 +- 0.3) and bulk (2.0 +- 0.3).
KINK_CASE = ("f2", 1, 2)


class Smoothness(Workload):
    """One operation is one tau_modulus call at p = 2."""

    name = "smoothness"

    def __init__(self, seed: int, ds, calls):
        self.calls = calls
        rng = np.random.default_rng(seed)
        delta0 = 0.2 - 0.0005 * float(rng.uniform())
        tracer = calls.tracer
        self.plan = []
        for sid, i, r, ladder, domain in SMOOTHNESS_CASES:
            ch = ds.channel(ds.get_signal(sid), i)
            if tracer is not None:
                ch = CountingChannel(ch, tracer.counts)
            case = (sid, i, r)
            for d in (delta0 * 2.0 ** (-k / 2) for k in LADDERS[ladder]):
                self.plan.append((case, ch, d, domain, "full"))
                if case == KINK_CASE:
                    reach = r * d / 2.0
                    lo, hi = ch.spec.support_hint
                    cuts = [lo - r * d, *(x0 + s * reach for x0 in ch.special_points for s in (-1, 1)), hi + r * d]
                    for a, b in zip(cuts, cuts[1:]):
                        part = "kink" if any(a < x0 < b for x0 in ch.special_points) else "bulk"
                        self.plan.append((case, ch, d, (a, b), part))
        self.values: dict = {}

    def round(self) -> list[Op]:
        self.values = {}
        c = self.calls
        ops = []
        for case, ch, d, domain, part in self.plan:
            ops.append(
                Op(
                    "tau_modulus",
                    f"tau_{case[2]}({case[0]}^({case[1]}); {d:.4f}) {part}",
                    lambda ch=ch, r=case[2], d=d, dom=domain: c.tau_modulus(ch, r, d, P, domain=dom),
                    lambda est, case=case, part=part: check_tau(case, part, est, self.values),
                )
            )
        return ops

    def end_round(self) -> None:
        check_tau_round(self.values)


def check_tau(case, part, est, values) -> bool:
    sid, i, r = case
    d, v = est.delta, est.value
    require(math.isfinite(v) and v >= 0, f"tau_{r}({sid}^({i}); {d}) = {v}")
    if sid == "t^2":
        # Delta_h^2 t^2 = 2 h^2, so omega_2 = 2 delta^2 at every x.
        want = 2.0 * d * d * (PROBE_DOMAIN[1] - PROBE_DOMAIN[0]) ** (1.0 / P)
        require(abs(v - want) <= 1e-6 * want, f"tau_2(t^2; {d}) = {v!r}, closed form {want!r}")
    if sid == "f3" and i == 0:
        # A window holding a jump of size J has omega >= J (up to the grid);
        # such windows cover a set of measure r delta around each jump.
        bound = (0.8 * r * d * sum(j**P for j in oracle.F3_JUMPS)) ** (1.0 / P)
        require(v >= bound, f"tau_{r}(f3; {d}) = {v!r} below the jump bound {bound!r}")
    values.setdefault((case, part), []).append((d, v))
    return False


def check_tau_round(values) -> None:
    for (case, part), pairs in values.items():
        if part != "full":
            continue
        pairs = sorted(pairs)
        for (d0, v0), (d1, v1) in zip(pairs, pairs[1:]):
            require(v1 >= v0, f"tau{case} decreases from {v0!r} at delta {d0} to {v1!r} at delta {d1}")
        if case in BANDS:
            centre, half = BANDS[case]
            slope = oracle.fit_slope(*zip(*pairs))
            require(abs(slope - centre) <= half, f"tau{case}: fitted exponent {slope:.3f} outside {centre}+-{half}")
    full = dict(values[(KINK_CASE, "full")])
    kink = _sum_parts(values[(KINK_CASE, "kink")])
    bulk = _sum_parts(values[(KINK_CASE, "bulk")])
    for d, v in full.items():
        err = abs(kink[d] + bulk[d] - v**P) / v**P
        require(err <= 1e-3, f"tau{KINK_CASE} at delta {d}: kink and bulk recombine only to {err:.1e}")
    for name, parts, (centre, half) in (("kink", kink, (1.5, 0.3)), ("bulk", bulk, (2.0, 0.3))):
        ds = sorted(parts)
        slope = oracle.fit_slope(ds, [parts[d] ** (1.0 / P) for d in ds])
        require(abs(slope - centre) <= half, f"tau{KINK_CASE} {name} exponent {slope:.3f} outside {centre}+-{half}")


def _sum_parts(pairs) -> dict:
    """delta -> sum of tau^p over the domain pieces."""
    out: dict = {}
    for d, v in pairs:
        out[d] = out.get(d, 0.0) + v**P
    return out


WORKLOADS = {w.name: w for w in (Certify, Verify, Reconstruct, Smoothness)}
