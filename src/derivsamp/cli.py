"""Command-line harness emitting reproducible CSV artifacts.

Every output is CSV (comma separators, '.' decimals, LF endings, UTF-8) whose
first line starts with "# derivsamp v1," followed by the sorted run
configuration, so artifacts are self-describing (`kernel-dump` adds a second
such line, the table's metadata).  Identical configurations
produce byte-identical files: floats are serialized with repr (shortest
round-trip form) and all row orders are fixed.

The library checks ranges; the CLI parses and maps exit codes.  This module
parses arguments, formats CSV, and maps exceptions to exit codes in one
place, main(): 0 success; 1 unstable configuration (NotCISError, an exact
verdict); 2 usage error, including a number out of its range
(ArgumentError), a malformed --signal-csv, --signal given together with
--signal-csv, an unwritable --out, and sample nodes or approx reference
points where the signal is undefined (SampleNodeError); 3 any other
ValueError or ArithmeticError, a numerical failure, or a MemoryError.
"""

from __future__ import annotations

import argparse
import math
import re
import sys
from fractions import Fraction

from .bspline import ArgumentError
from .kernel import inv_symbol_coeffs
from .sampler import SampleNodeError, approx_error, frame_bounds
from .signals import catalog, channel, get_signal, read_signal_csv
from .smoothness import fit_order, tau_modulus
from .symbol import Kappa, NotCISError, check_cis, scan_assumption1, table_polynomial

__all__ = ["main"]


class _UsageError(Exception):
    """Bad user input that the CLI itself rejects.  Not a ValueError, which
    main() reads as a numerical failure."""


def _cell(x) -> str:
    # repr(float(.)) also normalizes numpy scalar reprs
    return repr(float(x)) if isinstance(x, float) else str(x)


def _numbers(text: str, flag: str, token=float) -> list[float]:
    """Comma list of numbers; empty items are skipped.  The list flags stay
    text in args, so the CSV header records them as typed."""
    out = []
    for tok in filter(None, (t.strip() for t in text.split(","))):
        try:
            out.append(token(tok))
        except ValueError:
            raise _UsageError(f"bad {flag} item {tok!r}") from None
    if not out:
        raise _UsageError(f"{flag} list is empty")
    return out


def _w_token(tok: str) -> float:
    hit = re.fullmatch(r"(\d+(?:\.\d+)?)\s*\*\s*sqrt\(7\)", tok)
    return float(hit.group(1)) * math.sqrt(7.0) if hit else float(tok)


def parse_w_list(text: str) -> list[float]:
    """Comma list of dilations; token "N*sqrt(7)" selects irrational nodes
    that avoid rational non-differentiability points."""
    return _numbers(text, "--W", _w_token)


def _parse_kappa(args) -> Kappa:
    try:
        return Kappa(args.m, Fraction(args.a), args.rho)
    except (ValueError, ZeroDivisionError) as exc:
        raise _UsageError(f"invalid kappa: {exc}") from None


def _header(args) -> str:
    """The "# derivsamp v1," line: every flag but --out, sorted by name."""
    cfg = sorted((k, v) for k, v in vars(args).items()
                 if k not in ("func", "out") and v is not None)
    return "# derivsamp v1," + ",".join(f"{k}={_cell(v)}" for k, v in cfg)


def _emit(args, columns: str, rows, footer=()) -> None:
    """Write the header, columns (every line above the rows), rows, footer."""
    lines = [_header(args), columns]
    lines.extend(",".join(_cell(x) for x in row) for row in rows)
    lines.extend(footer)
    text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _load_signal(args, rho: int):
    """The signal the run reads.  --signal defaults to f1 only when no
    --signal-csv is given, so the header names the one signal read."""
    if args.signal_csv:
        if args.signal:
            raise _UsageError("pass either --signal or --signal-csv, not both")
        try:
            f = read_signal_csv(args.signal_csv)
        except ValueError as exc:
            raise _UsageError(f"--signal-csv {args.signal_csv}: {exc}") from None
    else:
        args.signal = args.signal or "f1"
        f = get_signal(args.signal)
    if f.max_deriv < rho - 1:
        raise _UsageError(
            f"signal provides derivatives up to {f.max_deriv}, need {rho - 1}"
        )
    return f


def _fit_footer(pairs, negate: bool = False) -> list[str]:
    # Fit needs >= 4 points; shorter sweeps just omit the footer.
    if len(pairs) < 4 or any(v <= 0 for _, v in pairs):
        return []
    slope, r2 = fit_order(pairs)
    if negate:
        slope = -slope
    return [f"# fit,slope={slope!r},r2={r2!r}"]


def cmd_tables(args) -> None:
    rows = []
    for table_id, a in ((1, Fraction(0)), (2, Fraction(1, 2))):
        for m in range(3, 10):
            poly = table_polynomial(Kappa(m, a, 2))
            rows.append((table_id, m, poly.high, *poly.coeffs))
    _emit(args, "table_id,m,degree,coefficients", rows)


def _bounds_rows(kappa: Kappa, grid_n: int) -> list[tuple]:
    b = frame_bounds(kappa, grid_n)
    return [("A", b.lower), ("B", b.upper), ("upper_frame", b.upper_frame)]


def cmd_check(args) -> None:
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
        rows += _bounds_rows(kappa, args.grid_n)
    _emit(args, "key,value", rows)
    if not report.is_cis:
        raise NotCISError(kappa)


def cmd_kernel_dump(args) -> None:
    table = inv_symbol_coeffs(_parse_kappa(args), tol=args.tol)
    k, radius = table.kappa, table.radius
    meta = (f"# derivsamp v1,a={k.a},m={k.m},radius={radius},rho={k.rho},"
            f"tail_bound={_cell(table.tail_bound)}")
    rows = [(j, i, n - radius, c) for j in range(k.rho) for i in range(k.rho)
            for n, c in enumerate(table.coeffs[j, i].tolist())]
    _emit(args, meta + "\nj,i,v,c", rows)


def cmd_approx(args) -> None:
    ws = parse_w_list(args.W)
    kappa = _parse_kappa(args)
    f = _load_signal(args, kappa.rho)
    table = inv_symbol_coeffs(kappa, tol=args.tol)
    rows = []
    for w in ws:
        err = approx_error(table, f, w, p=args.p, grid_n=args.grid_n)
        rows.append((w, err, math.log10(w), math.log10(err) if err > 0 else -math.inf))
    footer = _fit_footer([(w, e) for w, e, _, _ in rows], negate=True)
    _emit(args, "W,error,log10W,log10err", rows, footer)


def cmd_tau(args) -> None:
    deltas = _numbers(args.delta, "--delta")
    ch = channel(_load_signal(args, args.deriv + 1), args.deriv)
    rows = []
    for d in deltas:
        est = tau_modulus(ch, args.r, d, args.p, search_n=args.grid_n)
        rows.append((d, est.value, math.log10(d),
                     math.log10(est.value) if est.value > 0 else -math.inf))
    footer = _fit_footer([(d, v) for d, v, _, _ in rows])
    _emit(args, "delta,tau,log10delta,log10tau", rows, footer)


def cmd_scan(args) -> None:
    rows = [
        (r.m, r.rho, r.a, r.is_cis, r.predicted, r.agree)
        for r in scan_assumption1(args.m_max, args.rho_max)
    ]
    _emit(args, "m,rho,a,is_cis,predicted_cis,agrees", rows)


def cmd_bounds(args) -> None:
    kappa = _parse_kappa(args)
    if not check_cis(kappa).is_cis:
        raise NotCISError(kappa)
    rows = [("m", kappa.m), ("a", kappa.a), ("rho", kappa.rho)]
    _emit(args, "key,value", rows + _bounds_rows(kappa, args.grid_n))


def _add_kappa_flags(p) -> None:
    p.add_argument("--m", type=int, required=True, help="spline order")
    p.add_argument("--a", default="0", help="sample-set shift, rational 'p/q'")
    p.add_argument("--rho", type=int, required=True, help="derivative multiplicity")


def _add_signal_flags(p) -> None:
    p.add_argument("--signal", choices=[s.id for s in catalog()], help="catalog signal (default f1)")
    p.add_argument("--signal-csv", dest="signal_csv")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="derivsamp",
        description="Derivative sampling in spline spaces: tables, kernels, "
        "reconstruction experiments, smoothness moduli.",
    )
    sub = ap.add_subparsers(dest="subcommand", required=True)
    out = argparse.ArgumentParser(add_help=False)
    out.add_argument("--out")

    p = sub.add_parser("tables", parents=[out],
                       help="coefficient tables of the determinant factor polynomials")
    p.set_defaults(func=cmd_tables)

    p = sub.add_parser("check", parents=[out],
                       help="certify a configuration (det, circle certificate, bounds)")
    _add_kappa_flags(p)
    p.add_argument("--grid-n", type=int, default=1024)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("kernel-dump", parents=[out],
                       help="reconstruction kernel coefficient table as CSV")
    _add_kappa_flags(p)
    p.add_argument("--tol", type=float, default=1e-12)
    p.set_defaults(func=cmd_kernel_dump)

    p = sub.add_parser("approx", parents=[out], help="reconstruction error sweep over dilations W")
    _add_kappa_flags(p)
    p.add_argument("--W", required=True, help="comma list; token N*sqrt(7) allowed")
    p.add_argument("--p", type=float, default=2.0)
    _add_signal_flags(p)
    p.add_argument("--tol", type=float, default=1e-12)
    p.add_argument("--grid-n", type=int, default=2000)
    p.set_defaults(func=cmd_approx)

    p = sub.add_parser("tau", parents=[out], help="averaged smoothness modulus over a delta ladder")
    _add_signal_flags(p)
    p.add_argument("--deriv", type=int, default=0, help="derivative channel of the signal")
    p.add_argument("--r", type=int, default=2, help="difference order")
    p.add_argument("--p", type=float, default=2.0)
    p.add_argument("--delta", default="0.2,0.1,0.05,0.025", help="comma list")
    p.add_argument("--grid-n", type=int, default=64,
                   help="lattice steps per delta in each window (>= 64)")
    p.set_defaults(func=cmd_tau)

    p = sub.add_parser("scan", parents=[out],
                       help="shift-placement conjecture audit over (m, rho, a)")
    p.add_argument("--m-max", type=int, default=9)
    p.add_argument("--rho-max", type=int, default=4)
    p.set_defaults(func=cmd_scan)

    p = sub.add_parser("bounds", parents=[out], help="frame constants of the sampling inequality")
    _add_kappa_flags(p)
    p.add_argument("--grid-n", type=int, default=1024)
    p.set_defaults(func=cmd_bounds)

    return ap


def _fail(exc: Exception, code: int) -> int:
    print(f"error: {exc}", file=sys.stderr)
    return code


def main(argv=None) -> int:
    """Run one subcommand; the one place that turns a failure into an exit
    code.  ArgumentError, SampleNodeError and NotCISError are ValueErrors,
    so they are matched before the numerical class."""
    try:
        args = build_parser().parse_args(argv)
        args.func(args)
        return 0
    except SystemExit as exc:  # argparse: --help, or its own usage error
        return 0 if exc.code in (0, None) else 2
    except (_UsageError, ArgumentError, SampleNodeError, OSError) as exc:
        return _fail(exc, 2)
    except NotCISError as exc:
        return _fail(exc, 1)
    except (ValueError, ArithmeticError, MemoryError) as exc:
        return _fail(exc, 3)


if __name__ == "__main__":
    sys.exit(main())
