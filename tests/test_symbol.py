"""Symbol matrices, their determinants, the factored coefficient tables, the
stability certificate, and the exact combinatorial identities."""

import math
from fractions import Fraction

import numpy as np
import pytest

from derivsamp import laurent, symbol
from derivsamp.cli import main
from derivsamp.kernel import inv_symbol_coeffs
from derivsamp.laurent import circle_values
from derivsamp.sampler import frame_bounds
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
    binom_convolution_sum,
    check_identity_lemmas,
    det_symbol,
    eval_exact,
    eval_q_deriv_exact,
    eval_unit,
    frac_circle_values,
    fraction_path,
    lp,
    pascal_det_check,
    ruiz_sum,
    spline_pascal_sum,
    to_frac,
)


def L(low, *cs):
    return lp(low, cs)


def test_kappa_validation():
    with pytest.raises(ValueError):
        Kappa(3, Fraction(0), 0)
    with pytest.raises(ValueError):
        Kappa(2, Fraction(0), 2)
    with pytest.raises(ValueError):
        Kappa(4, Fraction(5, 2), 2)
    with pytest.raises(ValueError):
        Kappa(4, Fraction(-1, 2), 2)
    k = Kappa(4, 1, 2)
    assert isinstance(k.a, Fraction) and k.a == 1


def test_kappa_takes_numpy_integers():
    k = Kappa(np.int64(3), 0, np.int32(2))
    assert type(k.m) is int and type(k.rho) is int
    assert k == Kappa(3, 0, 2) and hash(k) == hash(Kappa(3, 0, 2))
    for m, rho in ((3.0, 2), (3, 2.0)):
        with pytest.raises(ValueError, match="integer"):
            Kappa(m, 0, rho)


def test_symbol_entries_q3():
    sym = build_symbol(KAPPA_Q3)
    assert sym[0][0] == L(1, Fraction(1, 2))
    assert sym[0][1] == L(1, Fraction(1, 2))
    assert sym[1][0] == L(1, -1)
    assert sym[1][1] == L(1, 1)
    assert det_symbol(KAPPA_Q3) == L(2, 1)


def test_symbol_entries_q4():
    sym = build_symbol(KAPPA_Q4)
    want = [
        [Fraction(1, 6), Fraction(2, 3), Fraction(1, 6)],
        [Fraction(-1, 2), Fraction(0), Fraction(1, 2)],
        [Fraction(1), Fraction(-2), Fraction(1)],
    ]
    for i in range(3):
        for j in range(3):
            assert sym[i][j] == L(1, want[i][j])


def test_symbol_entries_match_oracle():
    # Psi^{ij} = sum_k Q_m^{(i)}(a + rho k - j) z^k with each coefficient from
    # the truncated-power oracle; a + rho k - j in (0, m) needs -1 < k <= m.
    # A seeded subsample of the grid rho 2..5, rho < m <= 12, a = p/q, q <= 6.
    rng = np.random.default_rng(31)
    for rho in (2, 3, 4, 5):
        shifts = sorted({Fraction(p, q) for q in range(1, 7) for p in range(rho * q)})
        for m in range(rho + 1, 13):
            for n in rng.choice(len(shifts), size=3, replace=False):
                a = shifts[n]
                sym = build_symbol(Kappa(m, a, rho))
                for i in range(rho):
                    for j in range(rho):
                        want = lp(
                            -1,
                            [eval_q_deriv_exact(m, i, a + rho * k - j) for k in range(-1, m + 1)],
                        )
                        assert sym[i][j] == want, (m, a, rho, i, j)


def test_symbol_circle_values_matches_unit_eval():
    # the n//2 + 1 points w_s = exp(-2 pi i s/n), s <= n/2, of each grid, on
    # the last axis, odd n included; (12, 1/3, 2) has entries of 6
    # coefficients and a determinant of 11, so for n <= 5 the entries'
    # coefficients wrap mod n, and for n <= 9 the determinant's
    wide = Kappa(12, Fraction(1, 3), 2)
    assert len(build_symbol(wide)[0][0].coeffs) == 6
    assert len(det_symbol(wide).coeffs) == 11
    for kappa in (KAPPA_Q3, KAPPA_Q4, KAPPA_Q4H, wide, Kappa(12, Fraction(2, 5), 5)):
        sym = build_symbol(kappa)
        det = det_symbol(kappa)
        for n in (1, 2, 5, 9, 64):
            grid = circle_values(sym, n)
            assert grid.shape == (kappa.rho, kappa.rho, n // 2 + 1)
            dvals = circle_values(det, n)
            assert dvals.shape == (n // 2 + 1,)
            for s in range(n // 2 + 1):
                assert abs(dvals[s] - eval_unit(det, -s / n)) <= 1e-12
                for i in range(kappa.rho):
                    for j in range(kappa.rho):
                        want = eval_unit(sym[i][j], -s / n)
                        assert abs(grid[i, j, s] - want) <= 1e-12


def test_maximal_density_determinant_is_monomial():
    for m in range(2, 11):
        assert det_symbol(Kappa(m, Fraction(0), m - 1)) == L(m - 1, 1)


def test_pascal_det_check():
    for m in range(2, 11):
        assert pascal_det_check(m)
    with pytest.raises(ValueError):
        pascal_det_check(1)


# factored determinant tables for rho = 2; coefficients ascending in z
_TABLE_A0 = {
    3: (1,),
    4: (1, -1),
    5: (1, -8, 1),
    6: (1, -39, 39, -1),
    7: (1, -154, 666, -154, 1),
    8: (1, -545, 7750, -7750, 545, -1),
    9: (1, -1812, 72759, -227576, 72759, -1812, 1),
}

_TABLE_AH = {
    3: (1, -1),
    4: (3, -38, 3),
    5: (-9, 827, -827, 9),
    6: (27, -14636, 80418, -14636, 27),
    7: (-81, 236885, -5082730, 5082730, -236885, 81),
    8: (243, -3681170, 257727933, -927852092, 257727933, -3681170, 243),
    9: (
        -729,
        56136143,
        -11523750189,
        120065730155,
        -120065730155,
        11523750189,
        -56136143,
        729,
    ),
}


def test_table_polynomials_zero_shift():
    for m, row in _TABLE_A0.items():
        p = table_polynomial(Kappa(m, Fraction(0), 2))
        assert p == L(0, *row), f"m={m}"


def test_table_polynomials_half_shift():
    for m, row in _TABLE_AH.items():
        p = table_polynomial(Kappa(m, Fraction(1, 2), 2))
        assert p == L(0, *row), f"m={m}"


def test_table_polynomial_rejects_other_configs():
    with pytest.raises(ValueError):
        table_polynomial(Kappa(4, Fraction(0), 3))
    with pytest.raises(ValueError):
        table_polynomial(Kappa(4, Fraction(1, 4), 2))


def test_table_factorization_reconstructs_determinant():
    # prefactor * z^e * P(z) must reproduce det exactly
    for m in (3, 4, 5, 6, 7):
        det = det_symbol(Kappa(m, Fraction(0), 2))
        pref = Fraction(2 ** (m - 2), math.factorial(m - 1) * math.factorial(m - 2))
        p = to_frac(table_polynomial(Kappa(m, Fraction(0), 2)))
        assert to_frac(det) in (p.scale(pref).shift(2), (-p).scale(pref).shift(2))
    for m in (3, 4, 5, 6):
        det = det_symbol(Kappa(m, Fraction(1, 2), 2))
        pref = Fraction(6, math.factorial(m - 1) * math.factorial(m - 2) * 2 ** (2 * m - 3))
        p = to_frac(table_polynomial(Kappa(m, Fraction(1, 2), 2)))
        assert to_frac(det) in (p.scale(pref).shift(1), (-p).scale(pref).shift(1))


def test_cis_verdicts():
    assert check_cis(KAPPA_Q3).is_cis
    assert check_cis(KAPPA_Q4H).is_cis
    assert check_cis(KAPPA_Q4).is_cis
    assert not check_cis(Kappa(4, Fraction(0), 2)).is_cis
    assert not check_cis(Kappa(5, Fraction(1, 2), 2)).is_cis


def test_cis_exactly_when_shift_rule_allows():
    # det Psi vanishes on |z| = 1 exactly when 2a + m - rho is an even integer
    for rho in (2, 3):
        shifts = {Fraction(p, q) for q in range(1, 7) for p in range(rho * q)}
        for m in range(rho + 1, 10):
            for a in sorted(shifts):
                vanishing = (2 * a + m - rho) % 2 == 0
                assert check_cis(Kappa(m, a, rho)).is_cis != vanishing, (m, a, rho)


def test_shift_rule_at_rho_1():
    # the parity law at rho = 1: CIS exactly when 2a + m - 1 is odd
    for m in range(2, 21):
        for a in (Fraction(0), Fraction(1, 2)):
            assert check_cis(Kappa(m, a, 1)).is_cis == ((2 * a + m - 1) % 2 == 1), (m, a)


def _eulerian(n: int) -> list[int]:
    """Eulerian numbers A(n, k), 0 <= k < n: permutations of n with k descents."""
    return [
        sum((-1) ** j * math.comb(n + 1, j) * (k + 1 - j) ** n for j in range(k + 1))
        for k in range(n)
    ]


def test_determinant_at_rho_1_is_euler_frobenius():
    # at rho = 1 and a = 0 the symbol is the scalar sum_k Q_m(k) z^k, which
    # is z E_{m-1}(z) / (m-1)!, E_{m-1} the Euler-Frobenius polynomial
    for m in range(2, 12):
        want = laurent.LaurentPoly(1, tuple(_eulerian(m - 1)), math.factorial(m - 1))
        assert laurent.laurent_det(build_symbol(Kappa(m, Fraction(0), 1))) == want, m


def test_non_cis_determinant_vanishes_at_unit_root():
    # the factor table shows exactly which of z = +-1 kills the determinant
    assert eval_exact(det_symbol(Kappa(4, Fraction(0), 2)), 1) == 0
    assert eval_exact(det_symbol(Kappa(5, Fraction(1, 2), 2)), 1) == 0
    assert eval_exact(det_symbol(KAPPA_Q3), 1) != 0


def test_predicted_cis_shift():
    assert predicted_cis_shift(3, 2) == 0
    assert predicted_cis_shift(4, 2) == Fraction(1, 2)
    assert predicted_cis_shift(5, 2) == 0
    assert predicted_cis_shift(4, 3) == 0
    assert predicted_cis_shift(5, 3) == Fraction(1, 2)
    assert predicted_cis_shift(6, 4) == Fraction(1, 2)
    assert predicted_cis_shift(7, 4) == 0


def test_scan_rho2_matches_prediction():
    rows = [r for r in scan_assumption1(9, 2) if r.rho == 2]
    assert len(rows) == 14  # m = 3..9, two shifts each
    for r in rows:
        assert r.agree, f"mismatch at {r}"
        assert r.is_cis == (r.a == predicted_cis_shift(r.m, r.rho))


def test_scan_rho3_completes():
    rows = [r for r in scan_assumption1(6, 3) if r.rho == 3]
    assert len(rows) == 6  # m = 4..6, two shifts each
    for r in rows:
        assert isinstance(r.is_cis, bool)
        assert r.agree == (r.is_cis == r.predicted)


# --- exact identity lemmas ---------------------------------------------------


def test_ruiz_sum_small_cases():
    # n = 2, l = 2: t^2 - 2(t-1)^2 + (t-2)^2 = 2 for every t
    for t in (Fraction(0), Fraction(7, 3), Fraction(-5, 2)):
        assert ruiz_sum(2, 2, t) == 2
        assert ruiz_sum(2, 1, t) == 0
        assert ruiz_sum(2, 0, t) == 0
    assert ruiz_sum(0, 0, Fraction(9)) == 1
    assert ruiz_sum(3, 3, Fraction(1, 7)) == 6


def test_binom_convolution_sum_direct():
    def oracle(n, l, k):
        acc = 0
        for r in range(n + 1):
            mu = k - r
            acc += (-1) ** r * math.comb(n, r) * (math.comb(mu, l) if 0 <= l <= mu else 0)
        return acc

    for n in range(5):
        for k in range(n, n + 4):
            for l in range(n + 1):
                v = binom_convolution_sum(n, l, k)
                assert v == oracle(n, l, k)
                assert v == (1 if l == n else 0)


def test_spline_pascal_sum_delta():
    for m in range(2, 8):
        for i in range(m - 1):
            for l in range(i + 1):
                assert spline_pascal_sum(m, i, l) == (1 if l == i else 0)


def test_identity_lemmas_sweep():
    assert check_identity_lemmas()


# The configurations whose tables stop above tol (bench/workloads.py
# CERTIFY_FAILING), and Q17, the widest table the tests build.
_FAILING_TABLES = ((9, "1/3", 2), (10, "5/6", 2), (12, "1/3", 3),
                   (8, "2/5", 3), (11, "2/5", 4), (12, "2/5", 5))


def test_certificate_is_computed_only_when_read(monkeypatch, tmp_path):
    # the verdict needs no float diagnostics: with them refused, the kernel
    # build, the scan and `bounds` still run
    def refuse(det, verdict):
        raise AssertionError("certificate computed but never read")

    monkeypatch.setattr(symbol, "_certificate", refuse)
    inv_symbol_coeffs(KAPPA_Q3)
    scan_assumption1(6, 3)
    assert main(["bounds", "--m", "3", "--rho", "2", "--out", str(tmp_path / "b.csv")]) == 0
    # `check` prints the certificate rows: one computation per report
    calls = []

    def counted(det, verdict):
        calls.append(verdict)
        return laurent._certificate(det, verdict)

    monkeypatch.setattr(symbol, "_certificate", counted)
    assert main(["check", "--m", "3", "--rho", "2", "--out", str(tmp_path / "c.csv")]) == 0
    assert main(["check", "--m", "4", "--rho", "2", "--out", str(tmp_path / "n.csv")]) == 1
    assert calls == ["nonvanishing", "vanishing"]


def test_exact_layer_matches_fraction_path():
    # integer numerators over one denominator per row give the bytes of the
    # Fraction path on a seeded sample of the certify grid (rho 2-5, m <= 12,
    # q <= 6), both verdicts included
    rng = np.random.default_rng(47)
    kappas = []
    for rho in (2, 3, 4, 5):
        shifts = sorted({Fraction(p, q) for q in range(1, 7) for p in range(rho * q)})
        for m in rng.choice(np.arange(rho + 1, 13), size=3, replace=False):
            kappas.append(Kappa(int(m), shifts[rng.integers(len(shifts))], rho))
    kappas += [Kappa(m, Fraction(a), rho) for m, a, rho in _FAILING_TABLES]
    kappas.append(Kappa(17, Fraction(0), 2))
    verdicts = set()
    for kappa in kappas:
        want = fraction_path(kappa)
        got = check_cis(kappa)
        assert got.is_cis == want["is_cis"], kappa
        assert str(got.det) == str(want["det"]), kappa
        assert got.certificate == want["certificate"], kappa
        for n in (256, 1024):
            assert (circle_values(got.symbol, n).tobytes()
                    == frac_circle_values(want["symbol"], n).tobytes()), kappa
        verdicts.add(got.is_cis)
        if not got.is_cis:
            continue
        table, ref = inv_symbol_coeffs(kappa), want["table"]
        assert (table.radius, table.tail_bound) == (ref.radius, ref.tail_bound), kappa
        assert table.coeffs.tobytes() == ref.coeffs.tobytes(), kappa
        assert frame_bounds(kappa) == want["bounds"], kappa
    assert verdicts == {True, False}
