"""Command-line harness emitting reproducible CSV artifacts.

Every output is CSV (comma separators, '.' decimals, LF endings, UTF-8) whose
first line starts with "# derivsamp v1," followed by the sorted run
configuration, so artifacts are self-describing.  Identical configurations
produce byte-identical files: floats are serialized with repr (shortest
round-trip form) and all row orders are fixed.

Exit codes: 0 success (and CIS where relevant), 1 mathematical negative
(not CIS; the certificate is exact), 2 usage error (including a dilation
whose sample nodes hit a point where the signal is undefined), 3 numerical
failure of a kernel build or of a reconstruction.
"""

from __future__ import annotations

import argparse
import math
import re
import sys
from fractions import Fraction

import numpy as np

from .kernel import KernelTable, inv_symbol_coeffs
from .sampler import SampleNodeError, apply_sw, frame_bounds, grid_for_window, take_samples
from .signals import channel, get_signal
from .smoothness import fit_order, tau_modulus
from .symbol import Kappa, check_cis, scan_assumption1, table_polynomial

__all__ = ["main", "TabulatedSignal", "approx_error"]

_SQRT7 = math.sqrt(7.0)
# approx_error measures over the signal's support window widened by this
# much on each side.
_PAD = 1.0


class _UsageError(Exception):
    pass


def _cell(x) -> str:
    if isinstance(x, bool):
        return str(x)
    if isinstance(x, float):
        # repr(float(.)) also normalizes numpy scalar reprs
        return repr(float(x))
    if isinstance(x, Fraction):
        return str(x)
    return str(x)


def parse_w_list(text: str) -> list[float]:
    """Comma list of dilations; token "N*sqrt(7)" selects irrational nodes
    that avoid rational non-differentiability points."""
    out = []
    for tok in text.split(","):
        tok = tok.strip()
        if not tok:
            continue
        hit = re.fullmatch(r"(\d+(?:\.\d+)?)\s*\*\s*sqrt\(7\)", tok)
        if hit:
            out.append(float(hit.group(1)) * _SQRT7)
            continue
        try:
            out.append(float(tok))
        except ValueError:
            raise _UsageError(f"bad --W token {tok!r}: use a number or N*sqrt(7)")
    if not out:
        raise _UsageError("--W list is empty")
    return out


def _parse_kappa(args) -> Kappa:
    try:
        return Kappa(args.m, Fraction(args.a), args.rho)
    except (ValueError, ZeroDivisionError) as exc:
        raise _UsageError(f"invalid kappa: {exc}")


def _config(args) -> dict:
    skip = {"func", "out"}
    return {k: v for k, v in vars(args).items() if k not in skip and v is not None}


def _emit(args, columns: str, rows, footer=()) -> None:
    cfg = ",".join(f"{k}={_cell(v)}" for k, v in sorted(_config(args).items()))
    lines = [f"# derivsamp v1,{cfg}", columns]
    lines.extend(",".join(_cell(x) for x in row) for row in rows)
    lines.extend(footer)
    _write(args, "\n".join(lines) + "\n")


def _write(args, text: str) -> None:
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


class TabulatedSignal:
    """Signal given by a CSV table of derivative values.

    Format: optional '#' comment lines, a header row t,f,f1,...,f<k>, then
    numeric rows.  Sampling is nearest-node only; no interpolation is done,
    so the sample grid must essentially match the tabulated nodes.
    """

    special_points: tuple[float, ...] = ()

    def __init__(self, ts: np.ndarray, cols: np.ndarray):
        order = np.argsort(ts)
        self.ts = np.asarray(ts, dtype=float)[order]
        self.cols = np.asarray(cols, dtype=float)[order]
        if len(self.ts) < 2:
            raise _UsageError("tabulated signal needs at least 2 rows")
        self.max_deriv = self.cols.shape[1] - 1
        self.support_hint = (float(self.ts[0]), float(self.ts[-1]))

    @classmethod
    def from_csv(cls, path: str) -> "TabulatedSignal":
        rows = []
        with open(path, encoding="utf-8") as fh:
            for line in fh:
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                rows.append(line.split(","))
        if not rows or rows[0][0].strip() != "t":
            raise _UsageError(f"{path}: expected header row starting with 't'")
        data = np.array([[float(c) for c in r] for r in rows[1:]])
        return cls(data[:, 0], data[:, 1:])

    def undefined_points(self, i: int) -> tuple[float, ...]:
        return ()

    def eval(self, i: int, t):
        if not 0 <= i <= self.max_deriv:
            raise ValueError(f"tabulated signal has no channel {i}")
        x = np.atleast_1d(np.asarray(t, dtype=float))
        idx = np.searchsorted(self.ts, x)
        idx = np.clip(idx, 1, len(self.ts) - 1)
        left_closer = (x - self.ts[idx - 1]) <= (self.ts[idx] - x)
        nearest = np.where(left_closer, idx - 1, idx)
        vals = self.cols[nearest, i]
        return float(vals[0]) if np.ndim(t) == 0 else vals


def _load_signal(args, rho: int):
    if getattr(args, "signal_csv", None):
        f = TabulatedSignal.from_csv(args.signal_csv)
    else:
        try:
            f = get_signal(args.signal)
        except KeyError as exc:
            raise _UsageError(str(exc))
    if f.max_deriv < rho - 1:
        raise _UsageError(
            f"signal provides derivatives up to {f.max_deriv}, need {rho - 1}"
        )
    return f


def approx_error(
    kappa: Kappa,
    table: KernelTable,
    f,
    w: float,
    p: float = 2.0,
    grid_n: int = 2000,
) -> float:
    """L^p distance between the reconstruction at dilation w and the signal,
    over its support window padded by _PAD (full sample coverage inside)."""
    lo, hi = f.support_hint
    lo, hi = lo - _PAD, hi + _PAD
    grid = grid_for_window(kappa, w, lo, hi, table)
    samples = take_samples(f, grid)
    step = (hi - lo) / grid_n
    ts = lo + step * (np.arange(grid_n) + 0.5)
    vals = apply_sw(samples, grid, table, ts)
    ref = np.asarray(f.eval(0, ts), dtype=float)
    return float((step * np.sum(np.abs(vals - ref) ** p)) ** (1.0 / p))


def _fit_footer(pairs, negate: bool = False) -> list[str]:
    # Fit needs >= 4 points; shorter sweeps just omit the footer.
    if len(pairs) < 4 or any(v <= 0 for _, v in pairs):
        return []
    slope, r2 = fit_order(pairs)
    if negate:
        slope = -slope
    return [f"# fit,slope={slope!r},r2={r2!r}"]


def _build_kernel(kappa: Kappa, tol: float):
    """Kernel table with exit-code-bearing failures."""
    try:
        return inv_symbol_coeffs(kappa, tol=tol), 0
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return None, 1
    except ArithmeticError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return None, 3


def cmd_tables(args) -> int:
    rows = []
    for table_id, a in ((1, Fraction(0)), (2, Fraction(1, 2))):
        for m in range(3, 10):
            poly = table_polynomial(Kappa(m, a, 2))
            coeffs = [int(c) for c in poly.coeffs]
            rows.append((table_id, m, len(coeffs) - 1, *coeffs))
    _emit(args, "table_id,m,degree,coefficients", rows)
    return 0


def cmd_check(args) -> int:
    kappa = _parse_kappa(args)
    report = check_cis(kappa)
    cert = report.certificate
    rows = [
        ("m", kappa.m),
        ("a", kappa.a),
        ("rho", kappa.rho),
        ("det", str(report.det)),
        ("min_modulus", cert.min_modulus),
        ("argmin_t", cert.argmin_t),
        ("root_margin", cert.root_margin),
        ("verdict", cert.verdict),
        ("is_cis", report.is_cis),
    ]
    if report.is_cis:
        b = frame_bounds(kappa, args.grid_n)
        rows += [("A", b.lower), ("B", b.upper), ("upper_frame", b.upper_frame)]
    _emit(args, "key,value", rows)
    return 0 if report.is_cis else 1


def cmd_kernel_dump(args) -> int:
    kappa = _parse_kappa(args)
    table, code = _build_kernel(kappa, args.tol)
    if table is None:
        return code
    cfg = ",".join(f"{k}={_cell(v)}" for k, v in sorted(_config(args).items()))
    _write(args, f"# derivsamp v1,{cfg}\n" + table.to_csv())
    return 0


def cmd_approx(args) -> int:
    kappa = _parse_kappa(args)
    ws = parse_w_list(args.W)
    f = _load_signal(args, kappa.rho)
    table, code = _build_kernel(kappa, args.tol)
    if table is None:
        return code
    rows = []
    for w in ws:
        try:
            err = approx_error(kappa, table, f, w, p=args.p, grid_n=args.grid_n)
        except SampleNodeError as exc:
            raise _UsageError(
                f"{exc}; pick an irrational dilation (e.g. --W 3*sqrt(7))"
            )
        except (ValueError, ArithmeticError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 3
        rows.append((w, err, math.log10(w), math.log10(err) if err > 0 else -math.inf))
    footer = _fit_footer([(w, e) for w, e, _, _ in rows], negate=True)
    _emit(args, "W,error,log10W,log10err", rows, footer)
    return 0


def cmd_tau(args) -> int:
    try:
        deltas = [float(tok) for tok in args.delta.split(",") if tok.strip()]
    except ValueError:
        raise _UsageError(f"bad --delta list {args.delta!r}")
    if not deltas:
        raise _UsageError("--delta list is empty")
    if not all(0.0 < d < math.inf for d in deltas):
        raise _UsageError("--delta values must be positive and finite")
    f = _load_signal(args, args.deriv + 1)
    ch = channel(f, args.deriv)
    rows = []
    for d in deltas:
        try:
            est = tau_modulus(ch, args.r, d, args.p, search_n=args.grid_n)
        except ValueError as exc:
            raise _UsageError(str(exc))
        rows.append((d, est.value, math.log10(d),
                     math.log10(est.value) if est.value > 0 else -math.inf))
    footer = _fit_footer([(d, v) for d, v, _, _ in rows])
    _emit(args, "delta,tau,log10delta,log10tau", rows, footer)
    return 0


def cmd_scan(args) -> int:
    rows = [
        (r.m, r.rho, r.a, r.is_cis, r.predicted, r.agree)
        for r in scan_assumption1(args.m_max, args.rho_max)
    ]
    _emit(args, "m,rho,a,is_cis,predicted_cis,agrees", rows)
    return 0


def cmd_bounds(args) -> int:
    kappa = _parse_kappa(args)
    report = check_cis(kappa)
    if not report.is_cis:
        print(f"error: kappa is not completely interpolating", file=sys.stderr)
        return 1
    b = frame_bounds(kappa, args.grid_n)
    rows = [
        ("m", kappa.m),
        ("a", kappa.a),
        ("rho", kappa.rho),
        ("A", b.lower),
        ("B", b.upper),
        ("upper_frame", b.upper_frame),
    ]
    _emit(args, "key,value", rows)
    return 0


def _add_kappa_flags(p) -> None:
    p.add_argument("--m", type=int, required=True, help="spline order")
    p.add_argument("--a", default="0", help="sample-set shift, rational 'p/q'")
    p.add_argument("--rho", type=int, required=True, help="derivative multiplicity")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="derivsamp",
        description="Derivative sampling in spline spaces: tables, kernels, "
        "reconstruction experiments, smoothness moduli.",
    )
    sub = ap.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("tables", help="coefficient tables of the determinant factor polynomials")
    p.add_argument("--out")
    p.set_defaults(func=cmd_tables)

    p = sub.add_parser("check", help="certify a configuration (det, circle certificate, bounds)")
    _add_kappa_flags(p)
    p.add_argument("--grid-n", type=int, default=1024)
    p.add_argument("--out")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("kernel-dump", help="reconstruction kernel coefficient table as CSV")
    _add_kappa_flags(p)
    p.add_argument("--tol", type=float, default=1e-12)
    p.add_argument("--out")
    p.set_defaults(func=cmd_kernel_dump)

    p = sub.add_parser("approx", help="reconstruction error sweep over dilations W")
    _add_kappa_flags(p)
    p.add_argument("--W", required=True, help="comma list; token N*sqrt(7) allowed")
    p.add_argument("--p", type=float, default=2.0)
    p.add_argument("--signal", default="f1")
    p.add_argument("--signal-csv", dest="signal_csv")
    p.add_argument("--tol", type=float, default=1e-12)
    p.add_argument("--grid-n", type=int, default=2000)
    p.add_argument("--out")
    p.set_defaults(func=cmd_approx)

    p = sub.add_parser("tau", help="averaged smoothness modulus over a delta ladder")
    p.add_argument("--signal", default="f1")
    p.add_argument("--signal-csv", dest="signal_csv")
    p.add_argument("--deriv", type=int, default=0, help="derivative channel of the signal")
    p.add_argument("--r", type=int, default=2, help="difference order")
    p.add_argument("--p", type=float, default=2.0)
    p.add_argument("--delta", default="0.2,0.1,0.05,0.025", help="comma list")
    p.add_argument("--grid-n", type=int, default=64,
                   help="lattice steps per delta in each window (>= 64)")
    p.add_argument("--out")
    p.set_defaults(func=cmd_tau)

    p = sub.add_parser("scan", help="shift-placement conjecture audit over (m, rho, a)")
    p.add_argument("--m-max", type=int, default=9)
    p.add_argument("--rho-max", type=int, default=4)
    p.add_argument("--out")
    p.set_defaults(func=cmd_scan)

    p = sub.add_parser("bounds", help="frame constants of the sampling inequality")
    _add_kappa_flags(p)
    p.add_argument("--grid-n", type=int, default=1024)
    p.add_argument("--out")
    p.set_defaults(func=cmd_bounds)

    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        return args.func(args)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
