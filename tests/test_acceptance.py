"""End-to-end acceptance checks.

Each test prints exactly one `criterion N PASS/FAIL (...)` line with the
measured quantities, then asserts.  Criterion 7 fits the `f3` rate on a
phase-locked ladder `W = sqrt(7) + P k`, because the jump-layer error
prefactor depends on each jump's phase against the sample lattice and drifts
slowly along `N sqrt(7)`.  Criterion 8 splits `tau_2(f2'; delta)_2` into its
kink and bulk parts, because the bulk's `delta^2` term hides the kink's
`delta^(3/2)` on any affordable delta ladder.
"""

import math
import time
from fractions import Fraction

import numpy as np

from derivsamp.cli import main
from derivsamp.kernel import (
    moment_check_fourier,
    reproducing_order,
)
from derivsamp.laurent import LaurentPoly
from derivsamp.sampler import (
    SplineElement,
    apply_sw,
    approx_error,
    frame_bounds,
    grid_for_window,
    take_samples,
    verify_sampling_inequality,
)
from derivsamp.signals import channel, get_signal
from derivsamp.smoothness import fit_order, tau_modulus
from derivsamp.symbol import (
    Kappa,
    build_symbol,
    check_cis,
    predicted_cis_shift,
    scan_assumption1,
    table_polynomial,
)

from conftest import (
    KAPPA_Q3,
    KAPPA_Q4,
    KAPPA_Q4H,
    check_identity_lemmas,
    det_symbol,
    eval_exact,
    moment_check_time,
    pascal_det_check,
    tau_scaling_check,
)


def _report(n: int, ok: bool, details: str) -> None:
    print(f"criterion {n} {'PASS' if ok else 'FAIL'} ({details})")
    assert ok, f"criterion {n}: {details}"


# frozen factor-table coefficients, ascending in z
_T1 = {
    3: [1],
    4: [1, -1],
    5: [1, -8, 1],
    6: [1, -39, 39, -1],
    7: [1, -154, 666, -154, 1],
    8: [1, -545, 7750, -7750, 545, -1],
    9: [1, -1812, 72759, -227576, 72759, -1812, 1],
}
_T2 = {
    3: [1, -1],
    4: [3, -38, 3],
    5: [-9, 827, -827, 9],
    6: [27, -14636, 80418, -14636, 27],
    7: [-81, 236885, -5082730, 5082730, -236885, 81],
    8: [243, -3681170, 257727933, -927852092, 257727933, -3681170, 243],
    9: [
        -729,
        56136143,
        -11523750189,
        120065730155,
        -120065730155,
        11523750189,
        -56136143,
        729,
    ],
}


def test_criterion_01_tables_cli(tmp_path):
    out = tmp_path / "tables.csv"
    t0 = time.perf_counter()
    code = main(["tables", "--out", str(out)])
    elapsed = time.perf_counter() - t0
    got = {}
    for line in out.read_text().splitlines()[2:]:
        cells = line.split(",")
        tid, m = int(cells[0]), int(cells[1])
        got[(tid, m)] = [int(c) for c in cells[3:]]
    want = {(1, m): row for m, row in _T1.items()}
    want.update({(2, m): row for m, row in _T2.items()})
    ok = code == 0 and got == want and elapsed < 2.0
    _report(1, ok, f"exit={code}, rows={len(got)}/14 exact, {elapsed:.2f}s")


def test_criterion_02_symbols_and_kernels(table_q3, table_q4h):
    def L(low, *cs):
        return LaurentPoly.make(low, [Fraction(c) for c in cs])

    sym = build_symbol(KAPPA_Q3)
    psi_ok = (
        sym.entries[0][0] == L(1, Fraction(1, 2))
        and sym.entries[0][1] == L(1, Fraction(1, 2))
        and sym.entries[1][0] == L(1, -1)
        and sym.entries[1][1] == L(1, 1)
    )
    q4 = build_symbol(KAPPA_Q4)
    want4 = [
        [Fraction(1, 6), Fraction(2, 3), Fraction(1, 6)],
        [Fraction(-1, 2), Fraction(0), Fraction(1, 2)],
        [Fraction(1), Fraction(-2), Fraction(1)],
    ]
    psi_ok = psi_ok and all(
        q4.entries[i][j] == L(1, want4[i][j]) for i in range(3) for j in range(3)
    )
    det_ok = det_symbol(KAPPA_Q4H) == LaurentPoly.make(
        1, [Fraction(-3, 64), Fraction(19, 32), Fraction(-3, 64)]
    )

    kern_err = max(
        abs(table_q3.coeff(0, 0, -1) - 1.0),
        abs(table_q3.coeff(1, 0, -1) - 1.0),
        abs(table_q3.coeff(0, 1, -1) + 0.5),
        abs(table_q3.coeff(1, 1, -1) - 0.5),
    )
    r = (19.0 - 4.0 * math.sqrt(22.0)) / 3.0
    s = 1.0 - r * r
    closed = {
        (0, 0): lambda n: 8.0 * r / (3.0 * s) * (5.0 * r ** abs(n + 1) - r ** abs(n)),
        (0, 1): lambda n: -4.0 * r / (9.0 * s) * (23.0 * r ** abs(n + 1) + r ** abs(n)),
        (1, 0): lambda n: -8.0 * r / (3.0 * s) * (r ** abs(n + 2) - 5.0 * r ** abs(n + 1)),
        (1, 1): lambda n: 4.0 * r / (9.0 * s) * (r ** abs(n + 2) + 23.0 * r ** abs(n + 1)),
    }
    half_err = max(
        abs(table_q4h.coeff(j, i, n) - fn(n))
        for (j, i), fn in closed.items()
        for n in range(-10, 11)
    )
    ok = psi_ok and det_ok and kern_err <= 1e-10 and half_err <= 1e-10
    _report(
        2,
        ok,
        f"symbols exact={psi_ok}, half-shift det exact={det_ok}, "
        f"kernel errs {kern_err:.1e}/{half_err:.1e}",
    )


def test_criterion_03_frame_bounds_and_inequality():
    b = frame_bounds(KAPPA_Q3)
    bounds_ok = (
        abs(b.lower - 0.5) <= 1e-12
        and abs(b.upper - 2.0) <= 1e-12
        and abs(b.upper_frame - 15.0) <= 1e-9
    )
    rep = verify_sampling_inequality(KAPPA_Q3, n_trials=200)
    # the generalized eigenvalues of (M, G) bracket every sampled ratio and
    # sit inside the frame bounds
    bracket_ok = (
        rep.lower - 1e-9 <= rep.eig_min <= rep.min_ratio
        <= rep.max_ratio <= rep.eig_max <= rep.upper_frame + 1e-9
    )
    ok = bounds_ok and rep.violations == 0 and bracket_ok
    _report(
        3,
        ok,
        f"A={b.lower!r}, B={b.upper!r}, upper={b.upper_frame!r}, "
        f"ratios [{rep.min_ratio:.3f}, {rep.max_ratio:.3f}], "
        f"eigen-extremes [{rep.eig_min:.4f}, {rep.eig_max:.3f}], "
        f"violations={rep.violations}/200",
    )


def test_criterion_04_maximal_density_exact():
    monomial_ok = all(
        det_symbol(Kappa(m, Fraction(0), m - 1))
        == LaurentPoly.make(m - 1, [Fraction(1)])
        for m in range(2, 11)
    )
    pascal_ok = all(pascal_det_check(m) for m in range(2, 11))
    lemmas_ok = check_identity_lemmas()
    ok = monomial_ok and pascal_ok and lemmas_ok
    _report(
        4,
        ok,
        f"det=z^(m-1) m=2..10: {monomial_ok}, pascal dets: {pascal_ok}, "
        f"identity lemmas: {lemmas_ok}",
    )


def test_criterion_05_space_element_reconstruction(table_q3, table_q4, table_q4h):
    rng = np.random.default_rng(1030)
    worst = 0.0
    for table in (table_q3, table_q4, table_q4h):
        kappa = table.kappa
        for _ in range(50):
            f = SplineElement(kappa.m, 0, rng.uniform(-1.0, 1.0, 12))
            lo, hi = f.support
            grid = grid_for_window(kappa, 1.0, lo, hi, table)
            samples = take_samples(f, grid)
            ts = np.linspace(lo, hi, 2000)
            err = float(np.max(np.abs(apply_sw(samples, grid, table, ts) - f.eval(ts))))
            worst = max(worst, err)
    ok = worst <= 1e-9
    _report(5, ok, f"150 random space elements, worst error {worst:.2e}")


def test_criterion_06_reproducing_orders(table_q3, table_q4, table_q4h):
    orders = {}
    margins_ok = True
    moment_worst = 0.0
    for table, want in ((table_q3, 2), (table_q4, 3), (table_q4h, 3)):
        rep = reproducing_order(table)
        orders[str(table.kappa)] = rep.order
        margins_ok = margins_ok and rep.residuals[want + 1] >= 100 * rep.tol
        for n in range(rep.order + 1):
            for t in (0.3, 1.1):
                moment_worst = max(moment_worst, abs(moment_check_time(table, n, t)))
            for l in range(table.kappa.rho):
                moment_worst = max(moment_worst, abs(moment_check_fourier(table, n, l)))
    got = list(orders.values())
    ok = got == [2, 3, 3] and margins_ok and moment_worst <= 1e-7
    _report(
        6,
        ok,
        f"orders={got} want [2, 3, 3], failing-degree margin ok={margins_ok}, "
        f"worst moment residual {moment_worst:.1e}",
    )


def test_criterion_07_approximation_rates(table_q3, table_q4):
    f1 = get_signal("f1")
    ws = [4.0, 8.0, 16.0, 32.0]
    details = []
    ok = True
    for table, floor in ((table_q3, 1.7), (table_q4, 2.7)):
        kappa = table.kappa
        errs = [approx_error(kappa, table, f1, w) for w in ws]
        slope, r2 = fit_order(zip(ws, errs))
        order = -slope
        details.append(f"f1/{kappa}: order={order:.3f} (>= {floor}), r2={r2:.4f}")
        ok = ok and order >= floor and r2 >= 0.98

    # Near a jump at x0 the L^2 error is J W^(-1/2) F(theta), where the
    # prefactor F depends on the jump's phase theta = frac((W x0 - a)/rho)
    # against the sample lattice.  Stepping W by the least integer P with
    # P x0 / rho integral for every jump holds all phases fixed, so the fit
    # sees the W^(-1/2) envelope rather than a drift of F.  The offset
    # sqrt(7) keeps the dilations irrational.
    f3 = get_signal("f3")
    period = math.lcm(
        *((Fraction(x0) / KAPPA_Q3.rho).denominator for x0 in f3.special_points)
    )
    ks = (1, 3, 6, 8)
    ws3 = [math.sqrt(7.0) + period * k for k in ks]
    errs3 = [approx_error(KAPPA_Q3, table_q3, f3, w) for w in ws3]
    slope3, r23 = fit_order(zip(ws3, errs3))
    order3 = -slope3
    scaled = ", ".join(f"{e * math.sqrt(w):.3f}" for w, e in zip(ws3, errs3))
    details.append(
        f"f3/{KAPPA_Q3}: W=sqrt(7)+{period}k, k in {ks}, "
        f"err*sqrt(W)=[{scaled}], order={order3:.3f} (band 0.5+-0.2), r2={r23:.4f}"
    )
    ok = ok and abs(order3 - 0.5) <= 0.2 and r23 >= 0.98
    _report(7, ok, "; ".join(details))


def test_criterion_08_tau_rates():
    deltas = [0.2, 0.1, 0.05, 0.025]
    cases = [
        # (signal, channel, r, center, halfwidth)
        ("f1", 0, 2, 2.0, 0.3),
        ("f3", 0, 1, 0.5, 0.15),
        ("f3", 1, 1, 0.5, 0.15),
    ]
    details = []
    ok = True
    for sid, i, r, center, half in cases:
        ch = channel(get_signal(sid), i)
        vals = [tau_modulus(ch, r, d, 2.0).value for d in deltas]
        slope, _ = fit_order(zip(deltas, vals))
        hit = abs(slope - center) <= half
        details.append(f"tau_{r}({sid}^({i}))_2: {slope:.3f} (band {center}+-{half})")
        ok = ok and hit

    # tau_2(f2'; delta)_2 is a kink term ~ delta^(3/2) plus a smooth bulk
    # term ~ delta^2 that dominates until delta ~ 0.004, far below the
    # ladder.  omega(x) depends only on f on [x - r delta/2, x + r delta/2],
    # so tau^p splits exactly at x0 +- r delta/2 for each kink x0 into the
    # kink windows and the rest, where f2' is smooth (and omega vanishes
    # beyond the support).  Each part is fitted against its own exponent.
    ch = channel(get_signal("f2"), 1)
    r, p = 2, 2.0
    full, kink, bulk = [], [], []
    recombine_err = 0.0
    for d in deltas:
        est = tau_modulus(ch, r, d, p)
        lo, hi = est.grid_meta["domain"]
        reach = r * d / 2.0
        cuts = [lo, *(x0 + s * reach for x0 in ch.special_points for s in (-1, 1)), hi]
        kink_p = bulk_p = 0.0
        for a, b in zip(cuts, cuts[1:]):
            part = tau_modulus(ch, r, d, p, domain=(a, b)).value ** p
            if any(a < x0 < b for x0 in ch.special_points):
                kink_p += part
            else:
                bulk_p += part
        full.append(est.value)
        kink.append(kink_p ** (1.0 / p))
        bulk.append(bulk_p ** (1.0 / p))
        recombine_err = max(
            recombine_err, abs(kink_p + bulk_p - est.value**p) / est.value**p
        )
    kink_slope, _ = fit_order(zip(deltas, kink))
    bulk_slope, _ = fit_order(zip(deltas, bulk))
    full_slope, _ = fit_order(zip(deltas, full))
    details.append(
        f"tau_{r}(f2^(1))_2: kink {kink_slope:.3f} (band 1.5+-0.3), "
        f"bulk {bulk_slope:.3f} (band 2.0+-0.3), full {full_slope:.3f}, "
        f"parts recombine to {recombine_err:.1e} (<= 1e-3)"
    )
    ok = (
        ok
        and abs(kink_slope - 1.5) <= 0.3
        and abs(bulk_slope - 2.0) <= 0.3
        and recombine_err <= 1e-3
    )

    combos = [
        ("f2", 0, 1, 0.10, 2.0),
        ("f2", 0, 2, 0.08, 1.5),
        ("f2", 0, 2, 0.10, 3.0),
        ("f2", 1, 1, 0.05, 2.0),
        ("f2", 1, 2, 0.10, 2.0),
        ("f2", 1, 3, 0.08, 1.5),
        ("f3", 0, 1, 0.05, 3.0),
        ("f3", 0, 1, 0.10, 1.5),
        ("f3", 0, 2, 0.08, 2.0),
        ("f3", 1, 1, 0.10, 2.0),
        ("f3", 1, 2, 0.05, 1.5),
        ("f3", 1, 3, 0.10, 2.0),
        ("f3", 2, 1, 0.08, 3.0),
        ("f3", 2, 2, 0.10, 1.5),
        ("const", 0, 2, 0.10, 2.0),
        ("f2", 2, 1, 0.05, 2.0),
        ("f2", 2, 2, 0.08, 3.0),
        ("f1", 0, 1, 0.10, 2.0),
        ("f1", 0, 2, 0.08, 1.5),
        ("f1", 1, 1, 0.10, 3.0),
    ]
    scale_fail = 0
    for sid, i, r, d, lam in combos:
        if not tau_scaling_check(channel(get_signal(sid), i), r, d, lam, 2.0):
            scale_fail += 1
    details.append(f"scaling inequality {len(combos) - scale_fail}/{len(combos)}")
    ok = ok and scale_fail == 0
    _report(8, ok, "; ".join(details))


def test_criterion_09_shift_placement_scan():
    rows = scan_assumption1(9, 4)
    r2 = [r for r in rows if r.rho == 2]
    r2_ok = all(r.agree for r in r2)
    factor_ok = True
    for r in r2:
        p = table_polynomial(Kappa(r.m, r.a, 2))
        vanishes = eval_exact(p, 1) == 0
        factor_ok = factor_ok and (vanishes == (not r.is_cis))
    others = [r for r in rows if r.rho > 2]
    disagreements = [f"(m={r.m},a={r.a},rho={r.rho})" for r in others if not r.agree]
    completed = len(rows) == len(r2) + len(others) and len(others) == 22
    ok = r2_ok and factor_ok and completed
    note = f"higher-rho disagreements: {', '.join(disagreements) or 'none'}"
    _report(
        9,
        ok,
        f"rho=2 verdicts match prediction: {r2_ok}, (1-z)-factor consistency: "
        f"{factor_ok}, rho=3,4 rows={len(others)}; {note}",
    )


def test_criterion_10_cli_determinism(tmp_path):
    configs = [
        ["tables"],
        ["check", "--m", "4", "--a", "1/2", "--rho", "2"],
        ["kernel-dump", "--m", "3", "--rho", "2"],
        ["approx", "--m", "3", "--rho", "2", "--signal", "f1",
         "--W", "4,8,16,32", "--grid-n", "400"],
        ["tau", "--signal", "f1", "--deriv", "0", "--r", "2",
         "--delta", "0.4,0.2,0.1,0.05"],
        ["scan", "--m-max", "6", "--rho-max", "3"],
        ["bounds", "--m", "4", "--a", "1/2", "--rho", "2"],
    ]
    identical = True
    codes_ok = True
    for run in ("a", "b"):
        d = tmp_path / run
        d.mkdir()
        for k, cfg in enumerate(configs):
            code = main(cfg + ["--out", str(d / f"{k}.csv")])
            codes_ok = codes_ok and code == 0
    for k in range(len(configs)):
        if (tmp_path / "a" / f"{k}.csv").read_bytes() != (
            tmp_path / "b" / f"{k}.csv"
        ).read_bytes():
            identical = False
    ok = codes_ok and identical
    _report(
        10,
        ok,
        f"{len(configs)} subcommands, exit codes ok={codes_ok}, "
        f"repeat runs byte-identical={identical}",
    )
