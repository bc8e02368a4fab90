from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from monolink.combinatorics import (
    JacobiParams,
    ext_binomial,
    hypergeometric_terminating,
    jacobi_at_zero,
    jacobi_general,
    jacobi_via_hypergeometric,
    pochhammer,
    triple_sum_lhs,
    vandermonde_check,
)
from monolink.errors import DivisionByZeroPochhammer


def test_pochhammer_basic():
    assert pochhammer(3, 2) == 12
    assert pochhammer(7, 0) == 1
    assert pochhammer(-5, 0) == 1
    assert pochhammer(-2, 3) == 0  # hits the factor (-2+2)


def test_pochhammer_rejects_negative_length():
    with pytest.raises(ValueError):
        pochhammer(1, -1)


@given(st.integers(-10, 10), st.integers(0, 10))
def test_pochhammer_reflection(r, ell):
    assert pochhammer(r, ell) == (-1) ** ell * pochhammer(1 - r - ell, ell)


def test_ext_binomial_values():
    assert ext_binomial(4, 2) == 6
    assert ext_binomial(-2, 3) == -4  # (-2)(-3)(-4)/3!
    assert ext_binomial(5, -1) == 0
    assert ext_binomial(3, 7) == 0
    assert ext_binomial(-1, 4) == 1


@given(st.integers(-12, 12), st.integers(0, 10))
def test_ext_binomial_matches_pochhammer_form(r, ell):
    import math

    assert ext_binomial(r, ell) * math.factorial(ell) == (-1) ** ell * pochhammer(
        -r, ell
    )


def test_jacobi_at_zero_degree_zero_is_one():
    for a in (-3, 0, 5):
        for b in (-2, 1, 7):
            assert jacobi_at_zero(JacobiParams(a, b, 0)) == 1


def test_jacobi_at_zero_values():
    assert jacobi_at_zero(JacobiParams(1, 1, 1)) == 0
    assert jacobi_at_zero(JacobiParams(0, 0, 2)) == Fraction(-1, 2)  # Legendre P2(0)


def test_jacobi_params_rejects_negative_degree():
    with pytest.raises(ValueError):
        JacobiParams(0, 0, -1)


def test_jacobi_general_values():
    assert jacobi_general(JacobiParams(2, -5, 0), Fraction(7, 3)) == 1
    assert jacobi_general(JacobiParams(1, 1, 1), Fraction(1)) == 2
    assert jacobi_general(JacobiParams(0, 0, 1), Fraction(0)) == 0


@given(st.integers(-4, 4), st.integers(-4, 4), st.integers(0, 5))
def test_jacobi_general_at_zero_matches(a, b, d):
    p = JacobiParams(a, b, d)
    assert jacobi_general(p, Fraction(0)) == jacobi_at_zero(p)


def test_hypergeometric_values():
    assert hypergeometric_terminating(0, 3, 9, Fraction(1, 7)) == 1
    assert hypergeometric_terminating(1, -1, 1, Fraction(1, 2)) == Fraction(3, 2)
    assert hypergeometric_terminating(2, 0, 5, Fraction(1, 2)) == 1


def test_hypergeometric_degenerate_raises():
    with pytest.raises(DivisionByZeroPochhammer):
        hypergeometric_terminating(1, 1, 0, Fraction(1, 2))


def test_hypergeometric_zero_numerator_masks_zero_denominator():
    # (n)_u = 0 before (c)_u vanishes, so the sum terminates harmlessly.
    assert hypergeometric_terminating(3, 0, -1, Fraction(1, 2)) == 1


def test_jacobi_via_hypergeometric_route():
    # Valid wherever the denominator Pochhammer stays nonzero.
    for a in range(-2, 4):
        for b in range(0, 4):
            for d in range(0, 5):
                p = JacobiParams(a, b, d)
                assert jacobi_via_hypergeometric(p) == jacobi_at_zero(p)


def test_triple_sum_degenerate_cases():
    assert triple_sum_lhs(4, 0, 0, 0, 0) == 1
    assert triple_sum_lhs(-3, 2, -1, 0, 3) == 1
    with pytest.raises(ValueError):
        triple_sum_lhs(0, 0, 0, 0, 4)
    with pytest.raises(ValueError):
        triple_sum_lhs(0, 0, 0, -1, 0)


def test_triple_sum_example_against_jacobi():
    value = triple_sum_lhs(4, 0, 0, 1, 0)
    assert value == 2 * jacobi_at_zero(JacobiParams(-1, -1, 1))


@given(
    st.integers(-4, 6),
    st.integers(-4, 4),
    st.integers(-4, 4),
    st.integers(0, 5),
    st.integers(0, 3),
)
def test_triple_sum_identity_sample(A, M, N, d, v):
    rhs = Fraction(2**d) * jacobi_at_zero(JacobiParams(3 - N - A - M, A + M - 4 - d, d))
    assert triple_sum_lhs(A, M, N, d, v) == rhs


def _binomial(r, ell):
    """C(r, ell) = r(r-1)...(r-ell+1)/ell! for any integer r, 0 for ell < 0."""
    if ell < 0:
        return 0
    num = den = 1
    for t in range(ell):
        num *= r - t
        den *= t + 1
    return num // den


def _triple_sum_oracle(A, M, N, d, v):
    # The docstring's sum term by term, i outside j outside k, no skips.
    return sum(
        (-1) ** (i + j)
        * 2 ** (d - j + k)
        * _binomial(A - v, i)
        * _binomial(d + 3 - v - i - j, d - i - j)
        * _binomial(M, k)
        * _binomial(N, j - k)
        for i in range(d + 1)
        for j in range(d - i + 1)
        for k in range(j + 1)
    )


def test_triple_sum_matches_literal_oracle():
    # Every v and the degrees 0, 1, 2, 5, 8 over a stride of the
    # fuzz-identities box A in [-6, 10], |M|, |N| <= 6, edges included.
    for A in range(-6, 11, 4):
        for M in range(-6, 7, 3):
            for N in range(-6, 7, 3):
                for d in (0, 1, 2, 5, 8):
                    for v in range(4):
                        got = triple_sum_lhs(A, M, N, d, v)
                        assert got == _triple_sum_oracle(A, M, N, d, v), (A, M, N, d, v)


def test_two_power_collapse_when_defined():
    # (-2)^d (4-A-M)_d / (A+M-3-d)_d = 2^d whenever the denominator is nonzero.
    for A in range(-5, 6):
        for M in range(-5, 6):
            for d in range(0, 6):
                den = pochhammer(A + M - 3 - d, d)
                if den == 0:
                    continue
                num = (-2) ** d * pochhammer(4 - A - M, d)
                assert Fraction(num, den) == 2**d


def test_vandermonde_examples():
    assert vandermonde_check(2, 2, 2)
    assert vandermonde_check(-1, -1, 3)
    assert vandermonde_check(9, -4, 0)


@given(st.integers(-8, 8), st.integers(-8, 8), st.integers(0, 8))
def test_vandermonde_property(m, n, p):
    assert vandermonde_check(m, n, p)


@given(st.integers(0, 6), st.integers(0, 3), st.integers(0, 6), st.integers(0, 6))
def test_binomial_reversal(d, v, i, j):
    if d - i - j < 0:
        return
    lhs = ext_binomial(d + 3 - v - i - j, d - i - j)
    assert lhs == (-1) ** (d - i - j) * ext_binomial(v - 4, d - i - j)
