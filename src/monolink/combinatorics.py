"""Exact integer/rational combinatorial kernel.

Rising factorials, binomial coefficients extended to negative arguments,
constant-argument Jacobi values, terminating hypergeometric sums, and the
big triple-sum identity, all over arbitrary-precision integers and
fractions.  No floating point anywhere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .errors import DivisionByZeroPochhammer, InputError

__all__ = [
    "JacobiParams",
    "pochhammer",
    "ext_binomial",
    "jacobi_at_zero",
    "jacobi_general",
    "jacobi_via_hypergeometric",
    "hypergeometric_terminating",
    "triple_sum_lhs",
    "triple_sum_sweep",
    "vandermonde_check",
]


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


@dataclass(frozen=True)
class JacobiParams:
    """Integer parameter triple (a, b, d) of a constant-argument Jacobi value."""

    a: int
    b: int
    d: int

    def __post_init__(self) -> None:
        if self.d < 0:
            raise InputError("Jacobi degree d must be non-negative")


@lru_cache(maxsize=None)
def _jacobi_at_zero(a: int, b: int, d: int) -> Fraction:
    total = 0
    for v in range(d + 1):
        term = ext_binomial(d + a, v) * ext_binomial(d + b, d - v)
        total += -term if (d - v) & 1 else term
    return Fraction(total, 1 << d)


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


def triple_sum_lhs(A: int, M: int, N: int, d: int, v: int) -> Fraction:
    """Literal evaluation of the triple sum

        sum_{i<=d} sum_{j<=d-i} sum_{k<=j} (-1)^(i+j) 2^(d-j+k)
            C(A-v,i) C(d+3-v-i-j, d-i-j) C(M,k) C(N,j-k)

    with no algebraic simplification (zero factors are merely skipped).
    The sums run j outside i, so each Segre coefficient
    S_j = sum_k 2^k C(M,k) C(N,j-k) is formed once, not once per i: a
    reordering of the same finite sum of exact integers, O(d^2) lookups
    instead of O(d^3).

    The one implementation of the Segre-weighted nested sum.  Its callers:
    `triple_sum_sweep`, the benchmark's identity-sweep cases, and the raw
    link-pairing oracle, which reads each of its six term-family weights
    from it at (M, N) = (-n', -n'') and the family's own (A, v).
    """
    if d < 0:
        raise InputError("d must be non-negative")
    if v not in (0, 1, 2, 3):
        raise InputError("v must lie in 0..3")
    total = 0
    for j in range(d + 1):
        s_j = 0
        for k in range(j + 1):
            bm = ext_binomial(M, k)
            if bm:
                bn = ext_binomial(N, j - k)
                if bn:
                    s_j += (bm * bn) << k
        if not s_j:
            continue
        for i in range(d - j + 1):
            bi = ext_binomial(A - v, i)
            if not bi:
                continue
            bj = ext_binomial(d + 3 - v - i - j, d - i - j)
            if bj:
                term = (bi * bj * s_j) << (d - j)
                total += -term if (i + j) & 1 else term
    return Fraction(total)


def triple_sum_sweep(
    a_range: tuple[int, int], mn_bound: int, d_max: int
) -> tuple[int, int]:
    """(tuples checked, mismatches) of the triple-sum identity

        triple_sum_lhs(A, M, N, d, v) = 2^d P^(3-N-A-M, A+M-4-d)_d(0)

    over a_range[0] <= A <= a_range[1], |M|, |N| <= mn_bound,
    0 <= d <= d_max and v in 0..3.  Raises InputError when the box is
    empty: a sweep of nothing proves nothing.
    """
    count = bad = 0
    for A in range(a_range[0], a_range[1] + 1):
        for M in range(-mn_bound, mn_bound + 1):
            for N in range(-mn_bound, mn_bound + 1):
                for d in range(d_max + 1):
                    jac = JacobiParams(3 - N - A - M, A + M - 4 - d, d)
                    rhs = jacobi_at_zero(jac) * 2**d
                    for v in range(4):
                        count += 1
                        if triple_sum_lhs(A, M, N, d, v) != rhs:
                            bad += 1
    if count == 0:
        raise InputError("the triple-sum sweep box is empty")
    return count, bad


def vandermonde_check(m: int, n: int, p: int) -> bool:
    """True iff sum_j C(m,j) C(n,p-j) = C(m+n,p) with extended binomials."""
    if p < 0:
        raise InputError("p must be non-negative")
    lhs = sum(ext_binomial(m, j) * ext_binomial(n, p - j) for j in range(p + 1))
    return lhs == ext_binomial(m + n, p)
