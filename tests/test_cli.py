"""Command-line interface: exit codes, output format, W-list parsing,
tabulated-signal input, and the package version."""

import math
import re
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import derivsamp
from derivsamp import cli, sampler, smoothness
from derivsamp.cli import _UsageError, main, parse_w_list
from derivsamp.signals import read_signal_csv

from conftest import coeff, kernel_table_from_csv


def test_exit_codes(tmp_path):
    assert main(["tables", "--out", str(tmp_path / "t.csv")]) == 0
    assert main(["check", "--m", "3", "--rho", "2", "--out", str(tmp_path / "c.csv")]) == 0
    assert main(["check", "--m", "4", "--rho", "2", "--out", str(tmp_path / "c2.csv")]) == 1
    assert main(["check", "--m", "2", "--rho", "2"]) == 2  # needs m > rho
    assert main(["check", "--m", "4", "--a", "x", "--rho", "2"]) == 2
    assert main(["bounds", "--m", "4", "--rho", "2"]) == 1
    assert main(["kernel-dump", "--m", "4", "--rho", "2"]) == 1
    assert main(["scan", "--m-max", "5", "--rho-max", "2",
                 "--out", str(tmp_path / "s.csv")]) == 0
    assert main(["no-such-command"]) == 2
    assert main(["tables", "--out", str(tmp_path / "nodir" / "t.csv")]) == 2


def test_tables_frozen_rows(capsys):
    assert main(["tables"]) == 0
    out = capsys.readouterr().out
    lines = out.splitlines()
    assert lines[0].startswith("# derivsamp v1,")
    assert lines[1] == "table_id,m,degree,coefficients"
    assert "1,7,4,1,-154,666,-154,1" in lines
    assert "2,3,1,1,-1" in lines
    assert "1,9,6,1,-1812,72759,-227576,72759,-1812,1" in lines


def test_check_output_fields(capsys):
    assert main(["check", "--m", "3", "--rho", "2"]) == 0
    out = capsys.readouterr().out
    assert "is_cis,True" in out
    assert "verdict,nonvanishing" in out
    assert "upper_frame," in out


def test_parse_w_list():
    assert parse_w_list("4") == [4.0]
    assert parse_w_list("1,2.5, 8") == [1.0, 2.5, 8.0]
    got = parse_w_list("3*sqrt(7)")
    assert got == [3.0 * math.sqrt(7.0)]
    assert parse_w_list("2, 1.5*sqrt(7)") == [2.0, 1.5 * math.sqrt(7.0)]
    with pytest.raises(_UsageError):
        parse_w_list("abc")
    with pytest.raises(_UsageError):
        parse_w_list("")


def test_approx_bad_w_token_exit_code():
    assert main(["approx", "--m", "3", "--rho", "2", "--W", "oops"]) == 2


def test_approx_rational_w_on_f3_is_usage_error(tmp_path, capsys):
    # W = 4 sample lattice hits the f3 jump at t = 3 exactly
    code = main(["approx", "--m", "3", "--rho", "2", "--signal", "f3",
                 "--W", "4", "--out", str(tmp_path / "a.csv")])
    assert code == 2
    err = capsys.readouterr().err
    assert "undefined point" in err and "irrational dilation" in err


def test_approx_internal_failure_is_numerical_exit(monkeypatch, capsys):
    # a failure past sampling is the program's fault, not a usage error
    def broken(*args, **kwargs):
        raise ValueError("sample range insufficient for the requested window")

    monkeypatch.setattr(sampler, "apply_sw", broken)
    code = main(["approx", "--m", "3", "--rho", "2", "--signal", "f1",
                 "--W", "4", "--grid-n", "100"])
    assert code == 3
    err = capsys.readouterr().err
    assert "insufficient" in err and "irrational" not in err


def test_kernel_build_that_does_not_converge_is_numerical_exit(capsys):
    assert main(["kernel-dump", "--m", "25", "--rho", "2"]) == 3
    assert "did not converge" in capsys.readouterr().err


def test_memory_error_is_numerical_exit(monkeypatch, capsys):
    def exhausted(*args, **kwargs):
        raise MemoryError("Unable to allocate")

    monkeypatch.setattr(cli, "tau_modulus", exhausted)
    assert main(["tau", "--delta", "0.1"]) == 3
    assert capsys.readouterr().err == "error: Unable to allocate\n"


def test_approx_unknown_signal():
    assert main(["approx", "--m", "3", "--rho", "2", "--W", "4",
                 "--signal", "f9"]) == 2


def test_approx_sweep_with_fit(tmp_path):
    out = tmp_path / "a.csv"
    code = main(["approx", "--m", "3", "--rho", "2", "--signal", "f1",
                 "--W", "2,4,8,16", "--grid-n", "400", "--out", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("# derivsamp v1,")
    assert lines[1] == "W,error,log10W,log10err"
    rows = [ln.split(",") for ln in lines[2:-1]]
    assert [float(r[0]) for r in rows] == [2.0, 4.0, 8.0, 16.0]
    errs = [float(r[1]) for r in rows]
    assert errs[-1] < errs[0]  # refinement helps
    fit = lines[-1]
    assert fit.startswith("# fit,slope=")
    slope = float(fit.split("slope=")[1].split(",")[0])
    assert slope > 1.0  # decay order, positive by convention


def test_kernel_dump_roundtrip(tmp_path):
    out = tmp_path / "k.csv"
    assert main(["kernel-dump", "--m", "3", "--rho", "2", "--out", str(out)]) == 0
    text = out.read_text()
    assert text.startswith("# derivsamp v1,")
    table = kernel_table_from_csv(out)
    assert table.kappa.m == 3 and table.kappa.rho == 2
    assert coeff(table, 0, 0, -1) == pytest.approx(1.0, abs=1e-12)


def test_tau_ladder(tmp_path):
    out = tmp_path / "tau.csv"
    code = main(["tau", "--signal", "f3", "--deriv", "0", "--r", "1",
                 "--delta", "0.2,0.1,0.05,0.025", "--out", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[1] == "delta,tau,log10delta,log10tau"
    assert lines[-1].startswith("# fit,slope=")
    slope = float(lines[-1].split("slope=")[1].split(",")[0])
    assert 0.2 <= slope <= 0.8  # tau_1(f3) ~ delta^{1/2}


def test_tau_bad_delta():
    assert main(["tau", "--delta", "nope"]) == 2
    assert main(["tau", "--delta", ""]) == 2
    for bad in ("0", "-0.1", "nan", "0.1,inf"):
        assert main(["tau", "--delta", bad]) == 2


@pytest.mark.parametrize(
    "flags", [["--r", "0"], ["--p", "0.5"], ["--grid-n", "0"], ["--grid-n", "16"]]
)
def test_tau_argument_contract(flags, capsys):
    assert main(["tau", "--delta", "0.1", *flags]) == 2
    assert capsys.readouterr().err.startswith("error: ")


_KAPPA = ["--m", "3", "--a", "0", "--rho", "2"]


@pytest.mark.parametrize("argv, named, stub", [
    pytest.param(["tau", "--r", "0"], "r=0", True, id="tau-r-0"),
    pytest.param(["tau", "--r", "57"], "r=57", True, id="tau-r-57"),
    pytest.param(["tau", "--r", "1000000000"], "r=1000000000", True, id="tau-r-1e9"),
    pytest.param(["tau", "--grid-n", "16"], "search_n=16", True, id="tau-grid-n-16"),
    pytest.param(["tau", "--grid-n", "8193"], "search_n=8193", True, id="tau-grid-n-8193"),
    pytest.param(["tau", "--p", "0.5"], "p=0.5", True, id="tau-p-0.5"),
    # f1 at delta = 1e-9 would need 1.92e11 quadrature cells
    pytest.param(["tau", "--delta", "1e-9"], "delta=1e-09", True, id="tau-delta-1e-9"),
    # the channel is checked where the signal is read, past the first arrays
    pytest.param(["tau", "--deriv", "-1"], "i=-1", False, id="tau-deriv-minus-1"),
    pytest.param(["check", *_KAPPA, "--grid-n", "10"], "grid_n=10", True, id="check-grid-n-10"),
    pytest.param(["check", *_KAPPA, "--grid-n", "65537"], "grid_n=65537", True,
                 id="check-grid-n-65537"),
    pytest.param(["bounds", *_KAPPA, "--grid-n", "10"], "grid_n=10", True, id="bounds-grid-n-10"),
    pytest.param(["bounds", *_KAPPA, "--grid-n", "65537"], "grid_n=65537", True,
                 id="bounds-grid-n-65537"),
    pytest.param(["approx", *_KAPPA, "--W", "4", "--grid-n", "0"], "grid_n=0", True,
                 id="approx-grid-n-0"),
    pytest.param(["approx", *_KAPPA, "--W", "4", "--grid-n", "10000000000"], "grid_n=10000000000",
                 True, id="approx-grid-n-1e10"),
    pytest.param(["approx", *_KAPPA, "--W", "-4"], "W=-4.0", True, id="approx-W-minus-4"),
    # a sample grid of about 6.5e19 and 6.5e299 nodes
    pytest.param(["approx", *_KAPPA, "--W", "1e20"], "W=1e+20", True, id="approx-W-1e20"),
    pytest.param(["approx", *_KAPPA, "--W", "1e300"], "W=1e+300", True, id="approx-W-1e300"),
    pytest.param(["kernel-dump", *_KAPPA, "--tol", "0"], "tol=0.0", True, id="kernel-dump-tol-0"),
])
def test_range_flag_ends_are_usage_errors(argv, named, stub, monkeypatch, capsys):
    # the library owns every range, at both ends: a value past either end is
    # a usage error naming the value.  Where the library refuses before any
    # array, the numpy of the modules that would build the large ones is
    # swapped for a namespace that builds none.
    if stub:
        monkeypatch.setattr(smoothness, "np", SimpleNamespace())
        monkeypatch.setattr(sampler, "np", SimpleNamespace())
    assert main(argv) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: need ") and named in lines[0]


_APPROX = ["approx", "--m", "3", "--rho", "2"]
_BAD_CELL = "t,f\n0.0,1.0\n0.5,abc\n1.0,2.0\n"
_RAGGED = "t,f\n0.0,1.0\n0.5\n1.0,2.0\n"
# two value columns, so that approx at rho = 2 gets as far as the t column
_INF_T = "t,f,f1\n0.0,1.0,0.0\n0.5,1.5,0.0\ninf,2.0,0.0\n"
_NAN_T = "t,f,f1\nnan,1.0,0.0\n0.5,1.5,0.0\n1.0,2.0,0.0\n"
_REPEATED_T = "t,f,f1\n0.0,1.0,0.0\n0.5,1.5,0.0\n0.5,1.7,0.0\n1.0,2.0,0.0\n"
_GOOD = "t,f,f1\n0.0,1.0,0.0\n0.5,1.5,0.0\n1.0,2.0,0.0\n"
# f undefined at t = 0.5: the nodes at W = 2 are the integers and miss it,
# but the error quadrature's reference values near 0.5 read it
_NAN_VALUE = "t,f,f1\n0.0,1.0,0.0\n0.5,nan,0.0\n1.0,2.0,0.0\n"


@pytest.mark.parametrize("argv, table", [
    pytest.param(["check", "--m", "3", "--rho", "2", "--grid-n", "10"], None, id="check-grid-n"),
    pytest.param(["bounds", "--m", "3", "--rho", "2", "--grid-n", "10"], None, id="bounds-grid-n"),
    pytest.param(["tau"], _BAD_CELL, id="tau-csv-cell"),
    pytest.param(["tau"], _RAGGED, id="tau-csv-ragged"),
    pytest.param([*_APPROX, "--W", "4"], _BAD_CELL, id="approx-csv-cell"),
    pytest.param([*_APPROX, "--W", "4"], _RAGGED, id="approx-csv-ragged"),
    pytest.param(["tau"], _INF_T, id="tau-csv-inf-t"),
    pytest.param([*_APPROX, "--W", "4"], _INF_T, id="approx-csv-inf-t"),
    pytest.param([*_APPROX, "--W", "4"], _NAN_T, id="approx-csv-nan-t"),
    pytest.param(["tau"], _REPEATED_T, id="tau-csv-repeated-t"),
    pytest.param([*_APPROX, "--W", "4"], _REPEATED_T, id="approx-csv-repeated-t"),
    pytest.param([*_APPROX, "--W", "2"], _NAN_VALUE, id="approx-csv-nan-reference"),
    pytest.param(["tau", "--signal", "f2"], _GOOD, id="tau-signal-and-csv"),
    pytest.param([*_APPROX, "--W", "4", "--signal", "f1"], _GOOD, id="approx-signal-and-csv"),
    pytest.param([*_APPROX, "--W", "4", "--grid-n", "0"], None, id="approx-grid-n"),
    pytest.param([*_APPROX, "--W", "4", "--p", "0"], None, id="approx-p"),
    pytest.param([*_APPROX, "--W", "0"], None, id="approx-W-zero"),
    pytest.param([*_APPROX, "--W", "-4"], None, id="approx-W-negative"),
    pytest.param(["kernel-dump", "--m", "3", "--rho", "2", "--tol", "0"], None, id="tol-zero"),
    pytest.param(["kernel-dump", "--m", "3", "--rho", "2", "--tol", "nan"], None, id="tol-nan"),
])
def test_bad_input_is_usage_error(argv, table, tmp_path, capsys):
    if table is not None:
        path = tmp_path / "sig.csv"
        path.write_text(table)
        argv = [*argv, "--signal-csv", str(path)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")


def test_header_names_the_signal_read(tmp_path):
    path = tmp_path / "sig.csv"
    path.write_text(_GOOD)
    for argv, read in (([*_APPROX, "--W", "4", "--signal-csv", str(path)], f"signal_csv={path}"),
                       (["tau", "--signal-csv", str(path)], f"signal_csv={path}"),
                       ([*_APPROX, "--W", "4"], "signal=f1"),
                       (["tau", "--signal", "f2"], "signal=f2")):
        out = tmp_path / "out.csv"
        assert main([*argv, "--out", str(out)]) == 0
        header = out.read_text().splitlines()[0].split(",")
        assert [kv for kv in header if kv.startswith("signal")] == [read], argv


def test_tabulated_signal_eval(tmp_path):
    p = tmp_path / "sig.csv"
    ts = np.linspace(-2.0, 2.0, 81)
    lines = ["# comment", "t,f,f1"]
    for t in ts:
        lines.append(f"{float(t)!r},{float(t**2)!r},{float(2*t)!r}")
    p.write_text("\n".join(lines) + "\n")
    f = read_signal_csv(str(p))
    assert f.max_deriv == 1
    assert f.support_hint == (-2.0, 2.0)
    assert f.special_points == ()
    # nearest-node lookup, no interpolation
    assert f.eval(0, 1.0) == pytest.approx(1.0, abs=1e-12)
    assert f.eval(0, 1.01) == pytest.approx(1.0, abs=1e-12)
    assert f.eval(1, -0.5) == pytest.approx(-1.0, abs=1e-12)
    with pytest.raises(ValueError):
        f.eval(2, 0.0)


def test_tabulated_signal_missing_header(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("0.0,1.0\n0.5,2.0\n")
    with pytest.raises(ValueError):
        read_signal_csv(str(p))
    assert main(["tau", "--signal-csv", str(p)]) == 2


def test_tau_with_tabulated_signal(tmp_path):
    p = tmp_path / "sig.csv"
    ts = np.linspace(-1.0, 1.0, 2001)
    rows = ["t,f"] + [f"{float(t)!r},{float(abs(t))!r}" for t in ts]
    p.write_text("\n".join(rows) + "\n")
    out = tmp_path / "tau.csv"
    code = main(["tau", "--signal-csv", str(p), "--r", "1",
                 "--delta", "0.1,0.05", "--out", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 4  # header, columns, two rows, no fit footer


def test_deterministic_output(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for path in (a, b):
        assert main(["check", "--m", "4", "--a", "1/2", "--rho", "2",
                     "--out", str(path)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_version_matches_pyproject():
    text = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text()
    declared = re.search(r'^version = "([^"]+)"', text, re.M).group(1)
    assert derivsamp.__version__ == declared
