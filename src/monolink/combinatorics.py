"""Exact integer/rational combinatorial kernel.

Rising factorials, binomial coefficients extended to negative arguments,
constant-argument Jacobi values, terminating hypergeometric sums, the
big triple-sum identity and the Segre-inversion sweep, all over
arbitrary-precision integers and fractions.  No floating point anywhere.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from itertools import chain
from operator import lshift, mul, ne
from typing import Iterable

from ._value import Value
from .errors import DivisionByZeroPochhammer, InputError


def pochhammer(r: int, ell: int) -> int:
    """Rising factorial (r)_ell = r(r+1)...(r+ell-1), with (r)_0 = 1."""
    if ell < 0:
        raise InputError("pochhammer length must be non-negative")
    out = 1
    for i in range(ell):
        out *= r + i
    return out


@lru_cache(maxsize=None)
def ext_binomial(r: int, ell: int) -> int:
    """Binomial coefficient C(r, ell) for any integer r, zero for ell < 0.

    For negative upper index this is the usual extension
    (-1)^ell * C(ell - r - 1, ell), equal to (-1)^ell (-r)_ell / ell!.
    """
    if ell < 0:
        return 0
    if r >= 0:
        return math.comb(r, ell) if ell <= r else 0
    return -math.comb(ell - r - 1, ell) if ell & 1 else math.comb(ell - r - 1, ell)


class JacobiParams(Value):
    """Integer parameter triple (a, b, d) of a constant-argument Jacobi value."""

    a: int
    b: int
    d: int

    def __init__(self, a: int, b: int, d: int) -> None:
        if d < 0:
            raise InputError("Jacobi degree d must be non-negative")
        vars(self).update(a=a, b=b, d=d)


def _pow2_jacobi_at_zero(a: int, b: int, d: int) -> int:
    """The integer 2^d P^(a,b)_d(0) = sum_v (-1)^(d-v) C(d+a,v) C(d+b,d-v)."""
    total = 0
    for v in range(d + 1):
        term = ext_binomial(d + a, v) * ext_binomial(d + b, d - v)
        total += -term if (d - v) & 1 else term
    return total


@lru_cache(maxsize=None)
def _jacobi_at_zero(a: int, b: int, d: int) -> Fraction:
    return Fraction(_pow2_jacobi_at_zero(a, b, d), 1 << d)


def jacobi_at_zero(p: JacobiParams) -> Fraction:
    """Value at zero: 2^-d sum_v C(d+a,v) C(d+b,d-v) (-1)^(d-v); 1 when d = 0."""
    return _jacobi_at_zero(p.a, p.b, p.d)


def jacobi_general(p: JacobiParams, zeta: Fraction) -> Fraction:
    """Full two-binomial sum at an arbitrary rational argument.

    Uses the convention 0^0 = 1, so the d = 0 value is 1 for any argument.
    """
    zeta = Fraction(zeta)
    total = Fraction(0)
    for v in range(p.d + 1):
        c = ext_binomial(p.d + p.a, v) * ext_binomial(p.d + p.b, p.d - v)
        if c:
            total += c * (zeta - 1) ** (p.d - v) * (zeta + 1) ** v
    return total / (1 << p.d)


def hypergeometric_terminating(d: int, n: int, c: int, z: Fraction) -> Fraction:
    """Terminating 2F1(-d, n; c; z) = sum_{u<=d} (-d)_u (n)_u / ((c)_u u!) z^u.

    Raises DivisionByZeroPochhammer when (c)_u vanishes under a term whose
    numerator does not: a degenerate parameter choice with no finite value.
    """
    if d < 0:
        raise InputError("termination order d must be non-negative")
    z = Fraction(z)
    total = Fraction(1)
    num = 1  # (-d)_u (n)_u
    den = 1  # (c)_u u!
    zpow = Fraction(1)
    for u in range(1, d + 1):
        num *= (-d + u - 1) * (n + u - 1)
        den *= (c + u - 1) * u
        zpow *= z
        if den == 0:
            if num != 0:
                raise DivisionByZeroPochhammer(
                    f"(c)_u = 0 at u={u} for c={c} with nonzero numerator"
                )
            break  # all later terms also carry the zero numerator factor
        total += Fraction(num, den) * zpow
    return total


def jacobi_via_hypergeometric(p: JacobiParams) -> Fraction:
    """Constant-argument Jacobi value through the 2F1(1/2) route.

    P(0) = ((-b-d)_d / d!) * 2F1(-d, a+b+d+1; b+1; 1/2).  Only valid when
    the denominator Pochhammer never degenerates; the two-binomial sum is
    the canonical evaluator and never divides.
    """
    hg = hypergeometric_terminating(p.d, p.a + p.b + p.d + 1, p.b + 1, Fraction(1, 2))
    return Fraction(pochhammer(-p.b - p.d, p.d), math.factorial(p.d)) * hg


def segre_constants(M: int, N: int, js: Iterable[int]) -> list[int]:
    """[S_j for j in js], S_j(M, N) = sum_{k<=j} 2^k C(M,k) C(N,j-k): the k-sums."""
    row = []
    for j in js:
        s_j = 0
        for k in range(j + 1):
            bm = ext_binomial(M, k)
            if not bm:
                break  # C(M, k) = 0 for k > M >= 0
            s_j += (bm * ext_binomial(N, j - k)) << k
        row.append(s_j)
    return row


def _triple_weights(A: int, v: int, d: int) -> list[int]:
    """[T_0..T_d], T_j = 2^(d-j) sum_i (-1)^(i+j) C(A-v,i) C(d+3-v-i-j, d-i-j)."""
    weights = []
    for j in range(d + 1):
        n, t_j = d - j, 0
        for i in range(n + 1):
            bi = ext_binomial(A - v, i)
            if not bi:
                break  # C(A-v, i) = 0 for i > A-v >= 0
            bj = ext_binomial(n + 3 - v - i, n - i)  # positive, as v <= 3
            t_j += -bi * bj if (i + j) & 1 else bi * bj
        weights.append(t_j << n)
    return weights


def triple_sum_lhs(A: int, M: int, N: int, d: int, v: int) -> int:
    """Literal evaluation of the triple sum

        sum_{i<=d} sum_{j<=d-i} sum_{k<=j} (-1)^(i+j) 2^(d-j+k)
            C(A-v,i) C(d+3-v-i-j, d-i-j) C(M,k) C(N,j-k)

    with no algebraic simplification (a binomial's zero tail is skipped):
    the same finite sum of exact integers, grouped by distributivity as
    sum_j S_j T_j, one call per factor row: the i-sums T_0..T_d =
    `_triple_weights(A, v, d)`, the k-sums `segre_constants(M, N, 0..d)`.

    The one implementation of the Segre-weighted nested sum for one tuple,
    called by the benchmark's identity-sweep cases and by the raw
    link-pairing oracle, which reads each of its six term-family weights
    from it at (M, N) = (-n', -n'') and the family's own (A, v).
    `triple_sum_sweep` forms the same rows, each once, and packs T over A.
    """
    if d < 0:
        raise InputError("d must be non-negative")
    if v not in (0, 1, 2, 3):
        raise InputError("v must lie in 0..3")
    return sum(map(mul, _triple_weights(A, v, d), segre_constants(M, N, range(d + 1))))


def triple_sum_sweep(
    a_range: tuple[int, int], mn_bound: int, d_max: int
) -> tuple[int, int]:
    """(tuples checked, mismatches) of the triple-sum identity

        triple_sum_lhs(A, M, N, d, v) = 2^d P^(3-N-A-M, A+M-4-d)_d(0)

    over a_range[0] <= A <= a_range[1], |M|, |N| <= mn_bound,
    0 <= d <= d_max and v in 0..3; InputError when the box is empty, as a
    sweep of nothing proves nothing.  S_0..S_dmax are formed once per
    (M, N), T once per (A, v, d) and the int 2^d P(0) once per (A + M, N, d).

    One big-int dot product checks a row of A's: slot i (w bits) holds
    A = a_min + i in col[v][j] = sum_i T_j(A, v, d) << w*i and in want =
    sum_i 2^d P(0) << w*i; row (M, N, d, v) holds iff sum_j S_j col[v][j]
    == want.  Exact: top = max((d+1) max|S_j| max|T_j|, max|2^d P(0)|) and
    w = top.bit_length() + 2 keep each slot of the packed difference below
    2^(w-1) in size, so were it zero with a slot nonzero, its lowest nonzero
    slot would be a multiple of 2^w.  A differing row is recounted per tuple.
    """
    n_a, mn = max(a_range[1] - a_range[0] + 1, 0), range(-mn_bound, mn_bound + 1)
    s_rows = {(M, N): segre_constants(M, N, range(d_max + 1)) for M in mn for N in mn}
    s_top = max(map(abs, chain.from_iterable(s_rows.values())), default=0)
    ams = range(a_range[0] - mn_bound, a_range[1] + mn_bound + 1)  # A + M
    count = bad = 0
    for d in range(d_max + 1):
        t_rows = [[_triple_weights(a_range[0] + i, v, d) for i in range(n_a)] for v in range(4)]
        rhs = {N: [_pow2_jacobi_at_zero(3 - N - am, am - 4 - d, d) for am in ams] for N in mn}
        t_top = max(map(abs, chain.from_iterable(chain.from_iterable(t_rows))), default=0)
        r_top = max(map(abs, chain.from_iterable(rhs.values())), default=0)
        w = max((d + 1) * s_top * t_top, r_top).bit_length() + 2
        shifts = range(0, w * n_a, w)
        cols = [[sum(map(lshift, c, shifts)) for c in zip(*rows)] for rows in t_rows]
        for (M, N), s_row in s_rows.items():
            r = rhs[N][M + mn_bound : M + mn_bound + n_a]
            want = sum(map(lshift, r, shifts))
            for rows, col in zip(t_rows, cols):
                count += n_a
                if sum(map(mul, s_row, col)) != want:
                    bad += sum(sum(map(mul, s_row, t)) != x for t, x in zip(rows, r))
    if count == 0:
        raise InputError("the triple-sum sweep box is empty")
    return count, bad


def _segre_inverse_series(n_prime: int, n_dblprime: int, p: int) -> list[int]:
    """[c_0..c_p] of 1/((1+2mu)^n' (1+mu)^n'') on integer lists, exact as every
    factor has constant term 1; entry q is the same for every truncation p >= q."""
    chern = [1] + [0] * p
    for slope, power in ((2, n_prime), (1, n_dblprime)):
        # times (1 + slope mu) top coefficient first, or divided by it bottom first
        step, order = (slope, range(p, 0, -1)) if power > 0 else (-slope, range(1, p + 1))
        for _ in range(abs(power)):
            for i in order:
                chern[i] += step * chern[i - 1]
    inverse = [1]
    for k in range(1, p + 1):
        inverse.append(-sum(chern[j] * inverse[k - j] for j in range(1, k + 1)))
    return inverse


def segre_inversion_sweep() -> tuple[int, int]:
    """(tuples checked, mismatches) of the Segre coefficients S_p(-n', -n'')
    against the inverse series of (1+2mu)^n' (1+mu)^n'' over |n'|, |n''| <= 5,
    0 <= p <= 10: one inverse series per (n', n'') at p = 10, compared entry
    by entry with the row `segre_constants(-n', -n'', range(11))`."""
    count = bad = 0
    for n1 in range(-5, 6):
        for n2 in range(-5, 6):
            series = _segre_inverse_series(n1, n2, 10)
            count += len(series)
            bad += sum(map(ne, series, segre_constants(-n1, -n2, range(11))))
    return count, bad


def vandermonde_check(m: int, n: int, p: int) -> bool:
    """True iff sum_j C(m,j) C(n,p-j) = C(m+n,p) with extended binomials."""
    if p < 0:
        raise InputError("p must be non-negative")
    lhs = sum(ext_binomial(m, j) * ext_binomial(n, p - j) for j in range(p + 1))
    return lhs == ext_binomial(m + n, p)
