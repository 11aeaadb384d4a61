"""Laurent polynomials with exact rational coefficients, stored as integer
numerators over one denominator.

Used for symbol matrices of the sampling problem: exact determinants, the
exact certificate behind `symbol.check_cis` that a polynomial does or does
not vanish on the unit circle, with float diagnostics of how close its
zeros come to the circle (read through `CisReport.certificate`), and
`circle_values`, the one float evaluator of a Laurent polynomial or matrix
on a uniform grid of the circle: one real FFT of its coefficients, the
points on the last axis.  Both exact algorithms run on the integer
numerators alone, constant term first, and both evaluate an integer
polynomial at a Kronecker point x = 2^K by shifts, acc = (acc << K) + c
(`_pack`): the determinant packs each entry so, scaled to its row's lcm
and shifted up by its exponent above its column's least one, runs
fraction-free Bareiss elimination on those integers, over the product of
the row denominators, and reads the coefficients back as balanced base-2^K
digits with a mask and a shift; the certificate first takes one integer gcd
of the polynomial's and its reverse's values at x = 2^K >=
2 + 2 max|coefficient|, and a gcd of at most x/2 proves the two coprime
(the bound of GCDHEU, Char, Geddes & Gonnet, J. Symbolic Comput. 1989), so
no zero lies on the circle; otherwise it takes their polynomial gcd,
substitutes x = z + 1/z and counts roots with a Sturm sequence, all
by sign-correct primitive pseudo-remainders.  Every float coefficient is
numerator / den, which Python rounds correctly, as float(Fraction) does.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .bspline import _check_range

__all__ = [
    "LaurentPoly",
    "laurent_det",
    "circle_values",
    "CircleCertificate",
]

_GRID_N = 4096


def _eval(p: Sequence, x):
    """Horner value of the coefficient list p (constant term first) at x."""
    acc = 0
    for c in reversed(p):
        acc = acc * x + c
    return acc


def _pack(p: Sequence[int], K: int) -> int:
    """Value at x = 2^K of the integer coefficient list p (constant term
    first): Kronecker substitution, Horner by shifts."""
    acc = 0
    for c in reversed(p):
        acc = (acc << K) + c
    return acc


@dataclass(frozen=True, eq=False)
class LaurentPoly:
    """sum_k (coeffs[k - low] / den) * z^k: integer numerators over one
    positive integer denominator.

    Normalized: zero polynomial has low == 0 and empty coeffs; otherwise the
    first and last stored numerators are nonzero.  Numerators and den are
    not reduced by their common factor, so == and hash compare the exact
    rational values.
    """

    low: int
    coeffs: tuple[int, ...]
    den: int = 1

    @staticmethod
    def make(low: int, coeffs: Sequence[int], den: int = 1) -> "LaurentPoly":
        start, stop = 0, len(coeffs)
        while stop and coeffs[stop - 1] == 0:
            stop -= 1
        while start < stop and coeffs[start] == 0:
            start += 1
        if start == stop:
            return LaurentPoly(0, (), den)
        return LaurentPoly(low + start, tuple(coeffs[start:stop]), den)

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def high(self) -> int:
        if self.is_zero:
            raise ValueError("zero polynomial has no degree")
        return self.low + len(self.coeffs) - 1

    def __eq__(self, other) -> bool:
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return (self.low, len(self.coeffs)) == (other.low, len(other.coeffs)) and all(
            a * other.den == b * self.den for a, b in zip(self.coeffs, other.coeffs)
        )

    def __hash__(self) -> int:
        g = math.gcd(self.den, *self.coeffs)
        return hash((self.low, self.den // g, tuple(c // g for c in self.coeffs)))

    def shift(self, k: int) -> "LaurentPoly":
        """Multiply by z^k."""
        if self.is_zero:
            return self
        return LaurentPoly(self.low + k, self.coeffs, self.den)

    def __str__(self) -> str:
        if self.is_zero:
            return "0"
        parts = []
        for k in range(self.high, self.low - 1, -1):
            c = self.coeffs[k - self.low]
            if c == 0:
                continue
            g = math.gcd(c, self.den)
            mag = str(abs(c) // g) if self.den == g else f"{abs(c) // g}/{self.den // g}"
            if k == 0:
                body = mag
            else:
                zp = "z" if k == 1 else f"z^{k}"
                body = zp if mag == "1" else f"{mag}{zp}"
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(parts)


def circle_values(p, n: int) -> np.ndarray:
    """Values at w_s = exp(-2 pi i s / n), 0 <= s <= n//2, of a LaurentPoly
    or a nested sequence of them (a matrix); complex array of shape p's
    shape + (n//2 + 1,), points last.  Raises ArgumentError unless n is a
    positive integer.

    w_s^n = 1, so each coefficient c_k adds into slot k mod n, and p(w_s) is
    the forward DFT of the real slots at s (the DFT identity behind the
    trapezoidal rule; Trefethen & Weideman, SIAM Rev. 2014), one real FFT
    along the last axis.  The coefficients are real, so p(w_{n-s}) =
    conj p(w_s): the points s <= n/2 determine the whole grid, with every
    modulus and singular value on it.
    """
    _check_range("grid size n", n, 1, integer=True)
    polys = np.asarray(p, dtype=object)
    idx, vals = [], []
    for col, q in enumerate(polys.flat):
        # c_k goes to slots[col, k mod n] of the row-major (size, n) array
        idx += [col * n + k % n for k in range(q.low, q.low + len(q.coeffs))]
        vals += [c / q.den for c in q.coeffs]
    slots = np.bincount(np.array(idx, dtype=np.intp), vals, minlength=polys.size * n)
    values = np.fft.rfft(slots.reshape(polys.size, n))
    return values.reshape(polys.shape + (n // 2 + 1,))


def laurent_det(mat: Sequence[Sequence[LaurentPoly]]) -> LaurentPoly:
    """Exact determinant of a square matrix of Laurent polynomials.

    Column j is multiplied by z^-l_j, l_j its least exponent, so that every
    entry is an integer polynomial; the determinant is z^(sum l_j) times
    theirs.  A row whose entries share one denominator (every symbol row)
    enters as it is; other entries are brought to the lcm of their row's
    denominators.  Kronecker substitution (Harvey, J. Symbolic Comput. 2009)
    packs each integer polynomial into its value at x = 2^K, fraction-free
    Bareiss elimination (Bareiss, Math. Comp. 1968) runs on those integers,
    its divisions exact, and the determinant's coefficients are the
    balanced base-2^K digits of its value.  The result is an integer
    polynomial over the product of the row denominators.
    """
    n = len(mat)
    if any(len(row) != n for row in mat):
        raise ValueError("matrix is not square")
    if n == 0:
        return LaurentPoly(0, (1,))
    lows = [min([p.low for p in col if p.coeffs], default=0) for col in zip(*mat)]
    # Entry p of row i and column j enters as its numerators times s / p.den,
    # s the lcm of the row's denominators, packed by `_pack` and shifted up
    # by p.low - l_j >= 0 places; a zero entry is 0.  A minor is a sum over
    # permutations of one entry per row, so each of its coefficients is at
    # most bound, the product over rows of the row's summed absolute
    # coefficients (each at least 1, so K >= 2), and bound < 2^(K-1).  With
    # digits in [-2^(K-1), 2^(K-1)) an integer has one base-2^K expansion
    # only: the determinant's value at x = 2^K gives back its coefficients,
    # and every value Bareiss meets, a minor, is zero only if its polynomial
    # is, so pivots and row swaps are those of the polynomials.
    lcms, bound = [], 1
    for row in mat:
        s = math.lcm(*[p.den for p in row])
        lcms.append(s)
        bound *= max(1, sum([s // p.den * sum(map(abs, p.coeffs)) for p in row]))
    K = bound.bit_length() + 1
    m = [
        [s // p.den * (_pack(p.coeffs, K) << K * (p.low - l)) if p.coeffs else 0
         for p, l in zip(row, lows)]
        for s, row in zip(lcms, mat)
    ]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if not m[k][k]:
            swap = next((i for i in range(k + 1, n) if m[i][k]), None)
            if swap is None:
                return LaurentPoly(0, ())
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        pivot = m[k][k]
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * pivot - m[i][k] * m[k][j]) // prev
        prev = pivot
    value = sign * m[n - 1][n - 1]
    # balanced digit d = ((value + half) mod 2^K) - half, and
    # (value - d) / 2^K = (value + half) >> K
    half, mask = 1 << (K - 1), (1 << K) - 1
    coeffs = []
    while value:
        coeffs.append(((value + half) & mask) - half)
        value = (value + half) >> K
    return LaurentPoly.make(sum(lows), coeffs, math.prod(lcms))


# ---------------------------------------------------------------------------
# Unit-circle certificate
#
# The verdict is decided over the integers.  q has real coefficients, so a
# zero z of q on |z| = 1 is also a zero of its reverse z^n q(1/z) =
# z^n conj(q(z)), hence of g = gcd(q, reverse(q)).  g divides its own reverse
# up to a sign; when g(1) != 0 and g(-1) != 0 it is self-reciprocal of even
# degree 2k and g(z) = z^k h(z + 1/z).  A zero z = e^{i theta} != +-1 of g
# gives the real root x = 2 cos(theta) of h in (-2, 2); a zero off the circle
# gives either a non-real x or a real x with |x| > 2.  A Sturm sequence counts
# the roots of h in (-2, 2).  Remainders are primitive pseudo-remainders
# (Brown, J. ACM 1971), sign-corrected so that each is a positive multiple of
# the true remainder, which is all a Sturm sequence needs.  Polynomials below
# are lists of ints, constant term first.
# ---------------------------------------------------------------------------


def _prem(a: list[int], b: list[int]) -> list[int]:
    """Positive multiple of the remainder of a modulo b (b[-1] != 0), with
    content 1: the pseudo-remainder lc(b)^e a mod b, e = deg a - deg b + 1,
    negated when lc(b)^e < 0, over its content; trailing zeros stripped."""
    lb = b[-1]
    e = 0
    while len(a) >= len(b):
        f, off = a[-1], len(a) - len(b)
        a = [lb * c for c in a[:-1]]
        for j, c in enumerate(b[:-1]):
            a[off + j] -= f * c
        e += 1
    while a and a[-1] == 0:
        a.pop()
    if not a:
        return a
    if lb < 0 and e % 2:
        a = [-c for c in a]
    g = math.gcd(*a)
    return [c // g for c in a]


def _gcd(a: list[int], b: list[int]) -> list[int]:
    """gcd of two nonzero polynomials, up to a constant factor."""
    while b:
        a, b = b, _prem(a, b)
    return a


def _sign_changes(seq: list, x: int) -> int:
    signs = [v > 0 for v in (_eval(p, x) for p in seq) if v != 0]
    return sum(s != t for s, t in zip(signs, signs[1:]))


def _sturm_roots(h: list[int], lo: int, hi: int) -> int:
    """Number of distinct roots of h in (lo, hi); h(lo) and h(hi) nonzero."""
    seq = [h, [k * c for k, c in enumerate(h)][1:]]
    while len(seq[-1]) > 1:
        r = _prem(seq[-2], seq[-1])
        if not r:
            break
        seq.append([-c for c in r])
    return _sign_changes(seq, lo) - _sign_changes(seq, hi)


def _coprime_to_reverse(q: list[int]) -> bool:
    """True only if gcd(q, reverse q) = 1, for q with nonzero end
    coefficients; one integer gcd, after the heuristic gcd GCDHEU (Char,
    Geddes & Gonnet, J. Symbolic Comput. 1989).

    At x = 2^K >= 2 + 2 max|q_k|, a common factor g of positive degree has
    its roots among those of q, inside Cauchy's bound |zeta| < 1 + max|q_k|
    <= x/2, so |g(x)| > x/2.  Taken primitive, g divides q and reverse q
    over the integers (Gauss's lemma), so g(x) divides the nonzero
    gamma = gcd(q(x), reverse q(x)).  |gamma| <= x/2 leaves no such g; a
    False proves nothing.
    """
    K = (max(map(abs, q)) + 1).bit_length() + 1
    return math.gcd(_pack(q, K), _pack(q[::-1], K)) <= 1 << (K - 1)


def _vanishes_on_circle(p: LaurentPoly) -> bool:
    """Exact test whether the nonzero Laurent polynomial p has a zero on
    |z| = 1, on its integer numerators q.  One integer gcd at a Kronecker
    point x >= 2 + 2 max|q_k| decides first when its value is at most x/2,
    which proves q coprime to its reverse (GCDHEU's bound, see
    `_coprime_to_reverse`), as it does for every asymmetric symbol
    determinant; otherwise the remainder sequence and Sturm count decide."""
    q = list(p.coeffs)
    if _coprime_to_reverse(q):
        return False
    g = _gcd(q, q[::-1])
    if len(g) == 1:
        return False
    if _eval(g, 1) == 0 or _eval(g, -1) == 0:
        return True
    k = (len(g) - 1) // 2
    # h = g_k + sum_j g_{k+j} D_j(x) with D_j(z + 1/z) = z^j + z^-j
    h = [g[k]] + [0] * k
    d_prev, d = [2], [0, 1]
    for j in range(1, k + 1):
        for i, c in enumerate(d):
            h[i] += g[k + j] * c
        d_prev, d = d, [x - y for x, y in zip([0] + d, d_prev + [0, 0])]
    return _sturm_roots(h, -2, 2) > 0


@dataclass(frozen=True)
class CircleCertificate:
    """Whether a Laurent polynomial has a zero on |z| = 1, with float
    diagnostics.

    verdict is "vanishing" or "nonvanishing", decided exactly over the
    integer numerators.  min_modulus is the smallest modulus of p over
    `circle_values(p, 4096)`, and argmin_t = s/4096 in [0, 1/2] is the
    position of its point w_s.  root_margin is the smallest distance
    | |r| - 1 | over the roots r computed by np.roots (inf for a
    monomial).  The diagnostics do not enter the verdict.
    """

    min_modulus: float
    argmin_t: float
    root_margin: float
    verdict: str


def _certificate(p: LaurentPoly, verdict: str) -> CircleCertificate:
    """The float diagnostics of the nonzero p around its exact verdict."""
    # |z^low| = 1: dropping the shift leaves a monomial's slot at 0, so its
    # modulus comes out exactly constant and argmin_t is 0
    vals = np.abs(circle_values(p.shift(-p.low), _GRID_N))
    imin = int(np.argmin(vals))
    c = [x / p.den for x in p.coeffs]
    root_margin = math.inf
    if len(c) > 1:
        root_margin = float(np.min(np.abs(np.abs(np.roots(c[::-1])) - 1.0)))
    return CircleCertificate(float(vals[imin]), imin / _GRID_N, root_margin, verdict)
