from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import given, strategies as st

from monolink import combinatorics
from monolink.combinatorics import (
    JacobiParams,
    ext_binomial,
    hypergeometric_terminating,
    jacobi_at_zero,
    jacobi_general,
    jacobi_via_hypergeometric,
    pochhammer,
    triple_sum_lhs,
    triple_sum_sweep,
    vandermonde_check,
)
from monolink.errors import DivisionByZeroPochhammer, InputError


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
    # Every v and every degree 0..8 over a stride of the fuzz-identities box
    # A in [-6, 10], |M|, |N| <= 6, edges included; the sum is a plain int.
    for A in range(-6, 11, 4):
        for M in range(-6, 7, 3):
            for N in range(-6, 7, 3):
                for d in range(9):
                    for v in range(4):
                        got = triple_sum_lhs(A, M, N, d, v)
                        assert type(got) is int, (A, M, N, d, v)
                        assert got == _triple_sum_oracle(A, M, N, d, v), (A, M, N, d, v)


def _brute_force_sweep(a_range, mn_bound, d_max):
    # One triple_sum_lhs call per tuple, the right side read through the module.
    count = bad = 0
    for A in range(a_range[0], a_range[1] + 1):
        for M in range(-mn_bound, mn_bound + 1):
            for N in range(-mn_bound, mn_bound + 1):
                for d in range(d_max + 1):
                    jac = JacobiParams(3 - N - A - M, A + M - 4 - d, d)
                    rhs = 2**d * combinatorics.jacobi_at_zero(jac)
                    for v in range(4):
                        count += 1
                        bad += triple_sum_lhs(A, M, N, d, v) != rhs
    return count, bad


# The last three boxes: one A (a single packed slot), mn_bound = 0, and d = 8
# with dot products of both signs (-3 to 14,318,591).  Only these three have
# negative dot products, whose packed slots borrow from their neighbours.
SWEEP_BOXES = [
    ((-2, 2), 1, 3),
    ((-6, -5), 2, 5),
    ((4, 4), 0, 8),
    ((3, 3), 2, 4),
    ((-3, 5), 0, 6),
    ((-6, 4), 1, 8),
]


@pytest.mark.parametrize("a_range, mn_bound, d_max", SWEEP_BOXES)
def test_triple_sum_sweep_matches_brute_force(a_range, mn_bound, d_max):
    count, bad = triple_sum_sweep(a_range, mn_bound, d_max)
    assert (count, bad) == _brute_force_sweep(a_range, mn_bound, d_max)
    n_a = a_range[1] - a_range[0] + 1
    assert count == n_a * (2 * mn_bound + 1) ** 2 * (d_max + 1) * 4
    assert bad == 0


def _shift_jacobi(monkeypatch, shifts):
    # Add shifts[(A, M, N, d)] to 2^d P(0) at that tuple's Jacobi triple, in
    # `_pow2_jacobi_at_zero`, which the sweep reads directly and the brute
    # force's `jacobi_at_zero` reads through the cached `_jacobi_at_zero`; that
    # cache is swapped for an empty one that lives only inside the patch.
    by_triple = {
        (3 - N - A - M, A + M - 4 - d, d): delta for (A, M, N, d), delta in shifts.items()
    }
    real = combinatorics._pow2_jacobi_at_zero

    def shifted(a, b, d):
        return real(a, b, d) + by_triple.get((a, b, d), 0)

    monkeypatch.setattr(combinatorics, "_pow2_jacobi_at_zero", shifted)
    fresh = lru_cache(maxsize=None)(combinatorics._jacobi_at_zero.__wrapped__)
    monkeypatch.setattr(combinatorics, "_jacobi_at_zero", fresh)


@pytest.mark.parametrize("a_range, mn_bound, d_max", SWEEP_BOXES)
def test_triple_sum_sweep_counts_a_wrong_right_side(monkeypatch, a_range, mn_bound, d_max):
    # Shift 2^d P(0) by one at one tuple: the box corner (a_min, -mn_bound,
    # -mn_bound, d_max), packed slot 0 of its rows; an interior A at
    # (M, N, d) = (0, mn_bound, d_max // 2); and a_max, the top slot, at
    # (mn_bound, 0, d_max).  Each time the sweep must count exactly the
    # mismatches the brute force counts, and some.
    a_min, a_max = a_range
    for where in [
        (a_min, -mn_bound, -mn_bound, d_max),
        ((a_min + a_max) // 2, 0, mn_bound, d_max // 2),
        (a_max, mn_bound, 0, d_max),
    ]:
        with monkeypatch.context() as m:
            _shift_jacobi(m, {where: 1})
            count, bad = triple_sum_sweep(a_range, mn_bound, d_max)
            assert bad > 0, where
            assert (count, bad) == _brute_force_sweep(a_range, mn_bound, d_max), where


def test_triple_sum_sweep_counts_a_carry_across_slots(monkeypatch):
    # Lower 2^d P(0) by 2^k at (A, M, N, d) and raise it by one at
    # (A + 1, M, N, d), adjacent slots of the same packed rows: the packed
    # difference 2^k - 2^w * 1 vanishes when k equals the slot width w, so
    # a fixed width would miss one k; the sweep sizes w from the box's values.
    a_range, mn_bound, d_max = (-2, 2), 1, 3
    for k in range(1, 80):
        with monkeypatch.context() as m:
            _shift_jacobi(m, {(-1, 0, 1, 3): -(2**k), (0, 0, 1, 3): 1})
            count, bad = triple_sum_sweep(a_range, mn_bound, d_max)
            assert bad > 0, k
            assert (count, bad) == _brute_force_sweep(a_range, mn_bound, d_max), k


def test_integer_right_side_on_the_default_box():
    # Every (a, b, d) = (3-N-A-M, A+M-4-d, d) of the fuzz-identities default
    # box (-6 <= A <= 10, |M|, |N| <= 6, d <= 8), negative a and b included:
    # the integer sum equals 2^d P(0) by the independent full two-binomial
    # sum at zeta = 0, which divides by 2^d itself.
    triples = {
        (3 - N - A - M, A + M - 4 - d, d)
        for A in range(-6, 11)
        for M in range(-6, 7)
        for N in range(-6, 7)
        for d in range(9)
    }
    assert min(a for a, _, _ in triples) < 0 and min(b for _, b, _ in triples) < 0
    for a, b, d in triples:
        value = combinatorics._pow2_jacobi_at_zero(a, b, d)
        assert type(value) is int
        assert value == 2**d * jacobi_general(JacobiParams(a, b, d), 0), (a, b, d)


@pytest.mark.parametrize(
    "a_range, mn_bound, d_max",
    [((0, 3), 2, -1), ((1, 0), 2, 3), ((0, 3), -1, 3)],
    ids=["d_max=-1", "a_min>a_max", "mn_bound=-1"],
)
def test_triple_sum_sweep_rejects_empty_box(a_range, mn_bound, d_max):
    with pytest.raises(InputError):
        triple_sum_sweep(a_range, mn_bound, d_max)


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
