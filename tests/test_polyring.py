import sys
import types
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import example, given, strategies as st

from monolink.errors import DimensionMismatch, InputError, NonzeroConstantTerm
from monolink.lattice import CohomologyClass, IntersectionForm, blow_up, pair
from monolink.polyring import (
    TruncatedPolynomial,
    _power_table,
    _sum_of_powers,
    constant,
    linear_form,
    quadratic_form,
    variable,
    zero,
)

from conftest import elliptic_fixture, hyperbolic_gram


def h1(bound=4, nvars=2):
    return variable(0, nvars, bound)


def h2(bound=4, nvars=2):
    return variable(1, nvars, bound)


def small_polys(nvars=2, bound=4):
    coeff = st.fractions(
        min_value=-3, max_value=3, max_denominator=4
    )
    expo = st.tuples(*(st.integers(0, 2) for _ in range(nvars)))
    return st.dictionaries(expo, coeff, max_size=4).map(
        lambda terms: TruncatedPolynomial(nvars, bound, terms)
    )


# An independent oracle for the kernel: plain {expo: Fraction} dicts, with
# terms above the bound dropped.
def ref_clean(terms, bound):
    return {e: c for e, c in terms.items() if c and sum(e) <= bound}


def ref_add(p, q, bound):
    out = dict(p)
    for e, c in q.items():
        out[e] = out.get(e, 0) + c
    return ref_clean(out, bound)


def ref_mul(p, q, bound):
    out = {}
    for e1, c1 in p.items():
        for e2, c2 in q.items():
            e = tuple(a + b for a, b in zip(e1, e2))
            out[e] = out.get(e, 0) + c1 * c2
    return ref_clean(out, bound)


def ref_exp(p, nvars, bound):
    out = term = {(0,) * nvars: Fraction(1)}
    for k in range(1, bound + 1):
        term = {e: c / k for e, c in ref_mul(term, p, bound).items()}
        out = ref_add(out, term, bound)
    return out


def ref_pow(p, n, nvars, bound):
    out = {(0,) * nvars: Fraction(1)}
    for _ in range(n):
        out = ref_mul(out, p, bound)
    return ref_clean(out, bound)


def exponents(key, nvars):
    """The exponent tuple of a sparse key: the power of x_i is key.count(i)."""
    return tuple(key.count(i) for i in range(nvars))


def as_fractions(p):
    return {exponents(key, p.nvars): Fraction(c, p.den) for key, c in p.terms.items()}


def assert_canonical(p):
    assert all(type(c) is int and c for c in p.terms.values())
    assert p.den > 0 and gcd(p.den, *p.terms.values()) == 1
    assert p.den == 1 or not p.is_zero()
    # Every key is a sparse key: its indices non-decreasing, each a variable,
    # and as many as its degree, which is within the bound.
    for key in p.terms:
        assert type(key) is tuple and list(key) == sorted(key)
        assert all(i in range(p.nvars) for i in key) and len(key) <= p.bound


def fraction_dicts(nvars=3):
    coeff = st.fractions(min_value=-40, max_value=40, max_denominator=36)
    expo = st.tuples(*(st.integers(0, 3) for _ in range(nvars)))
    return st.dictionaries(expo, coeff, max_size=6)


@given(
    fraction_dicts(),
    fraction_dicts(),
    st.fractions(min_value=-9, max_value=9, max_denominator=30),
    st.integers(0, 5),
    st.integers(0, 5),
)
def test_kernel_matches_fraction_oracle(p_in, q_in, k, bound, d):
    p_ref, q_ref = ref_clean(p_in, bound), ref_clean(q_in, bound)
    p = TruncatedPolynomial(3, bound, p_in)
    q = TruncatedPolynomial(3, bound, q_in)
    neg_q = {e: -c for e, c in q_ref.items()}
    nonconstant = p - constant(p.constant_term(), 3, bound)
    cases = [
        (p, p_ref),
        (p + q, ref_add(p_ref, q_ref, bound)),
        (p - q, ref_add(p_ref, neg_q, bound)),
        (p * q, ref_mul(p_ref, q_ref, bound)),
        (k * p, ref_clean({e: k * c for e, c in p_ref.items()}, bound)),
        (nonconstant.exp_series(), ref_exp(as_fractions(nonconstant), 3, bound)),
        (p.truncate(d), ref_clean(p_ref, d)),
        (p.homogeneous_part(d), {e: c for e, c in p_ref.items() if sum(e) == d}),
    ]
    for got, want in cases:
        assert as_fractions(got) == want
        assert_canonical(got)


@given(
    st.integers(1, 4).flatmap(lambda nv: st.tuples(st.just(nv), fraction_dicts(nv))),
    st.integers(0, 7),
    st.integers(0, 7),
)
def test_pow_and_exp_match_fraction_oracle(nv_terms, n, bound):
    nvars, terms = nv_terms
    ref = ref_clean(terms, bound)
    p = TruncatedPolynomial(nvars, bound, terms)
    nonconstant = p - constant(p.constant_term(), nvars, bound)
    for got, want in (
        (p**n, ref_pow(ref, n, nvars, bound)),
        (nonconstant.exp_series(), ref_exp(as_fractions(nonconstant), nvars, bound)),
    ):
        assert as_fractions(got) == want
        assert_canonical(got)


_HALF_X_PLUS_Y = {(0, 0): Fraction(1, 2), (1, 0): Fraction(-1, 3), (0, 1): Fraction(5, 4)}


@given(
    st.lists(
        st.tuples(
            fraction_dicts(2),
            st.integers(0, 5),
            st.none() | fraction_dicts(2),
            st.integers(-9, 9),
            st.integers(1, 12),
        ),
        min_size=1,
        max_size=3,
    ),
    st.integers(0, 6),
)
@example([({(1, 0): 2, (0, 1): Fraction(-1, 3)}, n, None, 3, 4) for n in range(6)], 5)
@example(
    [
        ({(0, 0): Fraction(1, 2), (1, 1): 3}, n, _HALF_X_PLUS_Y, -5, 6)
        for n in range(6)
    ],
    6,
)
def test_sum_of_powers_matches_fraction_oracle(walk_inputs, bound):
    # Walks (p, n, f, num, den) with mixed n, f None (for 1) or a polynomial
    # with several terms, a denominator and a constant term: the sum of
    # num/den f p^n, truncated at bound, each base p tabulated past n.
    walks, want = [], {}
    for p_in, n, f_in, num, den in walk_inputs:
        f = None if f_in is None else TruncatedPolynomial(2, bound, f_in)
        table = _power_table(TruncatedPolynomial(2, bound, p_in), n + 2)
        walks.append((table, n, f, num, den))
        term = ref_pow(ref_clean(p_in, bound), n, 2, bound)
        if f_in is not None:
            term = ref_mul(ref_clean(f_in, bound), term, bound)
        want = ref_add(want, {e: Fraction(num, den) * c for e, c in term.items()}, bound)
    got = _sum_of_powers(2, bound, walks)
    assert as_fractions(got) == want
    assert_canonical(got)


@pytest.mark.parametrize("n", range(8))
def test_pow_with_constant_term_cut_midway(n):
    # (1/2 - x/3 + 2y^2)^n truncated at degree 3: the bound cuts the power
    # midway, the constant term takes any share of n, and den = 6^n before
    # lowest terms.
    terms = {(0, 0): Fraction(1, 2), (1, 0): Fraction(-1, 3), (0, 2): Fraction(2)}
    got = TruncatedPolynomial(2, 3, terms) ** n
    assert as_fractions(got) == ref_pow(terms, n, 2, 3)
    assert_canonical(got)


def test_zero_and_constant():
    z = zero(3, 5)
    assert z.is_zero()
    one = constant(1, 3, 5)
    assert one.constant_term() == 1
    assert (z + one) == one


def test_truncation_drops_high_degrees():
    p = h1(bound=2)
    assert (p * p * p).is_zero()  # h1^3 at bound 2
    sq = (h1() + h2()) * (h1() + h2())
    expected = TruncatedPolynomial(
        2, 4, {(2, 0): 1, (1, 1): 2, (0, 2): 1}
    )
    assert sq.truncate(2) == expected.truncate(2)


def test_mul_requires_matching_variables():
    with pytest.raises(DimensionMismatch):
        h1(nvars=2) * variable(0, 3, 4)


def test_variable_index_out_of_range():
    for i in (-1, 3, 5):
        with pytest.raises(InputError, match="outside 0..2"):
            variable(i, 3, 2)
    assert variable(2, 3, 2).render() == "h3"


def test_min_bound_semantics():
    a = h1(bound=5)
    b = h1(bound=2)
    assert (a * b).bound == 2
    assert (a + b).bound == 2


def test_identity_and_scaling():
    p = 3 * h1() + Fraction(1, 2) * h2()
    assert p * constant(1, 2, 4) == p
    assert (2 * p).coefficient((1, 0)) == 6


def test_pow_and_negative_pow():
    p = constant(1, 1, 6) + variable(0, 1, 6)
    assert (p**3).coefficient((2,)) == 3
    inv = p**-1
    assert inv.coefficient((3,)) == -1  # geometric series signs
    assert (p * inv) == constant(1, 1, 6)


def test_exp_series():
    assert zero(2, 4).exp_series() == constant(1, 2, 4)
    e = h1(bound=2).exp_series()
    assert e == TruncatedPolynomial(2, 2, {(0, 0): 1, (1, 0): 1, (2, 0): Fraction(1, 2)})
    with pytest.raises(NonzeroConstantTerm):
        constant(1, 2, 4).exp_series()


def test_exp_of_quadratic_on_hyperbolic_form():
    form = IntersectionForm(hyperbolic_gram(1))
    q = quadratic_form(form, 2)
    assert q == TruncatedPolynomial(2, 2, {(1, 1): 2})
    e = (Fraction(1, 2) * q).exp_series()
    assert e == TruncatedPolynomial(2, 2, {(0, 0): 1, (1, 1): 1})


@given(small_polys(), small_polys())
def test_exp_multiplicativity(p, q):
    p = p - constant(p.constant_term(), 2, 4)
    q = q - constant(q.constant_term(), 2, 4)
    assert (p + q).exp_series() == p.exp_series() * q.exp_series()


@given(small_polys(), small_polys(), small_polys())
def test_ring_axioms(p, q, r):
    assert (p * q) * r == p * (q * r)
    assert p * (q + r) == p * q + p * r
    assert p * q == q * p


def test_homogeneous_parts_resum():
    p = constant(1, 2, 4) + h1() + h1() * h2()
    assert p.homogeneous_part(2) == h1() * h2()
    assert p.homogeneous_part(7).is_zero()
    resum = zero(2, 4)
    for d in range(5):
        resum = resum + p.homogeneous_part(d)
    assert resum == p
    # The one-pass split gives the same parts, empty past the top degree.
    assert p.homogeneous_parts(range(8)) == [p.homogeneous_part(d) for d in range(8)]
    assert p.homogeneous_parts(range(2, 4)) == [h1() * h2(), zero(2, 4)]
    assert p.homogeneous_parts(range(0)) == []


def test_linear_form_examples():
    form = IntersectionForm(hyperbolic_gram(1))
    assert linear_form(CohomologyClass((0, 0)), form, 3).is_zero()
    lf = linear_form(CohomologyClass((1, 0)), form, 3)
    assert lf == variable(1, 2, 3)
    blown, e = blow_up(form)
    lfe = linear_form(e, blown, 3)
    assert lfe == -1 * variable(2, 3, 3)


def test_quadratic_form_examples():
    neg = IntersectionForm([[-1]])
    assert quadratic_form(neg, 2) == TruncatedPolynomial(1, 2, {(2,): -1})


@given(st.tuples(st.integers(-3, 3), st.integers(-3, 3)))
def test_evaluation_matches_lattice(hvec):
    form = IntersectionForm(hyperbolic_gram(1))
    K = CohomologyClass((2, -1))
    H = CohomologyClass(hvec)
    lf = linear_form(K, form, 3)
    qf = quadratic_form(form, 3)
    assert lf.evaluate(hvec) == pair(form, K, H)
    assert qf.evaluate(hvec) == pair(form, H, H)


def test_render_deterministic():
    p = h1() * h1() - 2 * (h1() * h2()) + constant(Fraction(1, 2), 2, 4)
    assert p.render() == "1/2 + h1^2 - 2*h1*h2"
    assert zero(2, 2).render() == "0"
    q = TruncatedPolynomial(2, 4, {(0, 0): -1, (1, 0): 1, (0, 2): -1, (2, 1): Fraction(-3, 4)})
    assert q.render() == "-1 + h1 - h2^2 - 3/4*h1^2*h2"
    assert p.digest() == p.digest()


@pytest.mark.parametrize("builtin", ["_sha256", "_sha2", None])
def test_digest_is_the_sha256_of_the_text(monkeypatch, builtin):
    # The builtin sha256 of this Python (`_sha256` to 3.11, `_sha2` from
    # 3.12) hashes the rendered text; with both blocked, `hashlib` does.
    # Either way the digest is the first 12 hex digits of its sha256.
    import hashlib

    p = TruncatedPolynomial(3, 4, {(1, 0, 2): Fraction(-3, 4), (0, 1, 0): 5, (0, 0, 0): 1})
    text = p.render().encode("utf-8")
    hashed = []
    if builtin is not None:
        module = pytest.importorskip(builtin)
        spy = types.SimpleNamespace(sha256=lambda data: hashed.append(data) or module.sha256(data))
        monkeypatch.setitem(sys.modules, builtin, spy)
    for other in {"_sha256", "_sha2"} - {builtin}:
        monkeypatch.setitem(sys.modules, other, None)
    assert p.digest() == hashlib.sha256(text).hexdigest()[:12]
    assert hashed == ([] if builtin is None else [text])


def parse_rendered(text, nvars):
    """[(exponents, coefficient)] in the order the text lists its terms.

    Reads `render`'s format token by token and asserts it is canonical: a
    positive coefficient in lowest terms, written first and only when it
    is not 1 or the term is a constant; each variable at most once, with a
    written exponent only when it is at least 2."""
    if text == "0":
        return []
    tokens = text.split(" ")
    assert len(tokens) % 2 == 1
    head = tokens[0]
    signed = [("-", head[1:]) if head.startswith("-") else ("+", head)]
    signed += zip(tokens[1::2], tokens[2::2])
    terms = []
    for sign, body in signed:
        assert sign in ("+", "-")
        factors = body.split("*")
        coeff, expo = Fraction(1), [0] * nvars
        if not factors[0].startswith("h"):
            coeff = Fraction(factors[0])
            assert str(coeff) == factors[0] and coeff > 0
            assert coeff != 1 or len(factors) == 1
            factors = factors[1:]
        for factor in factors:
            name, caret, power = factor.partition("^")
            i = int(name[1:]) - 1
            assert name == f"h{i + 1}" and 0 <= i < nvars and expo[i] == 0
            expo[i] = int(power) if caret else 1
            assert expo[i] >= 2 or not caret
        terms.append((tuple(expo), -coeff if sign == "-" else coeff))
    return terms


@st.composite
def render_cases(draw):
    nvars, bound = draw(st.integers(1, 4)), draw(st.integers(0, 4))
    coeff = st.one_of(
        st.sampled_from([1, -1, Fraction(1), Fraction(-1)]),
        st.integers(-5, 5),
        st.fractions(min_value=-3, max_value=3, max_denominator=6),
    )
    expo = st.tuples(*(st.integers(0, 3) for _ in range(nvars)))
    return TruncatedPolynomial(nvars, bound, draw(st.dictionaries(expo, coeff, max_size=6)))


@given(render_cases())
@example(zero(1, 0))
@example(TruncatedPolynomial(2, 4, {(0, 0): -1, (1, 0): 1, (0, 2): -1, (2, 1): Fraction(-3, 4)}))
@example(TruncatedPolynomial(3, 4, {(0, 1, 0): -1, (0, 0, 0): 1, (1, 0, 3): Fraction(5, 2)}))
@example(TruncatedPolynomial(1, 2, {(2,): Fraction(-1, 3)}))
@example(TruncatedPolynomial(2, 600, {(1, 0): 1, (300, 0): -2, (44, 256): 3, (256, 44): Fraction(1, 3)}))
def test_render_round_trips_in_graded_lex_order(p):
    terms = parse_rendered(p.render(), p.nvars)
    assert TruncatedPolynomial(p.nvars, p.bound, dict(terms)) == p
    assert len(terms) == len(p.terms)
    # Ascending total degree; within a degree, exponent tuples descending.
    for (e, _), (f, _) in zip(terms, terms[1:]):
        assert sum(e) < sum(f) or (sum(e) == sum(f) and e > f)


def test_rejects_bad_exponent_length():
    with pytest.raises(DimensionMismatch):
        TruncatedPolynomial(2, 3, {(1,): Fraction(1)})


def test_rejects_bad_exponents_before_truncating():
    # Every exponent is checked before the bound drops a term: a wrong-length
    # one above the bound is an error, not a truncated term, and a negative
    # one is never a term.
    with pytest.raises(DimensionMismatch):
        TruncatedPolynomial(2, 2, {(5, 0, 0): 1})
    with pytest.raises(DimensionMismatch):
        TruncatedPolynomial(2, 2, {(1,): 0})
    with pytest.raises(InputError):
        TruncatedPolynomial(2, 3, {(-1, 2): 1})
    with pytest.raises(InputError):
        TruncatedPolynomial(2, 1, {(-1, 5): 1})
    assert TruncatedPolynomial(2, 2, {(3, 0): 1, (1, 1): 0}).is_zero()


@pytest.mark.parametrize(
    "expo", [(1.5, 0), (1.0, 1), (Fraction(1), 0), (True, 0), (0, False), ("a", 0), 7]
)
def test_rejects_exponents_that_are_not_ints(expo):
    # Every exponent goes through the lattice's integer rule: a float,
    # Fraction or bool entry, even one equal to an int, is an input error,
    # and so is a str entry or a key that is not a tuple at all.
    with pytest.raises(InputError, match="exponents must be integers"):
        TruncatedPolynomial(2, 3, {expo: 2})


BAD_EXPONENTS = [
    ((1.0, 0), InputError, "exponents must be integers"),
    ((True, 0), InputError, "exponents must be integers"),
    ((1,), DimensionMismatch, "exponent length"),
    ((1, 0, 0), DimensionMismatch, "exponent length"),
    ((-1, 0), InputError, "negative exponent"),
]


@pytest.mark.parametrize("expo, error, match", BAD_EXPONENTS)
def test_constructor_and_coefficient_share_the_exponent_rule(expo, error, match):
    # `coefficient` validates its exponent as the constructor does: a bool
    # or float entry is not read as the int it equals, and a short tuple is
    # not read as the key of a long one.
    p = TruncatedPolynomial(2, 3, {(1, 0): 5})
    with pytest.raises(error, match=match):
        TruncatedPolynomial(2, 3, {expo: 1})
    with pytest.raises(error, match=match):
        p.coefficient(expo)
    assert p.coefficient((1, 0)) == 5 and p.coefficient((0, 1)) == 0


def test_rank_58_forms_have_sparse_keys():
    # E(5)'s forms as the verify pipeline builds them: one index per degree,
    # never an exponent tuple of the rank's length.
    fx = elliptic_fixture(5)
    form = fx.manifold.form
    assert form.rank == 58
    classes = [fx.lam] + [s.c1 for s in fx.manifold.basic_classes]
    forms = [(linear_form(c, form, 3), {1}) for c in classes]
    for p, degrees in forms + [(quadratic_form(form, 3), {2})]:
        assert_canonical(p)
        assert p.degrees() == degrees


def test_rejects_inexact_scalars():
    # A float is never rounded into a coefficient: 0.1 would become
    # 3602879701896397/36028797018963968.
    p = h1()
    for make in (
        lambda: TruncatedPolynomial(1, 1, {(1,): 0.1}),
        lambda: 0.5 * p,
        lambda: p * 0.5,
        lambda: constant(0.1, 1, 1),
        lambda: p.evaluate((0.5, 1)),
    ):
        with pytest.raises(InputError, match="not an int or a Fraction"):
            make()
    assert p * Fraction(1, 2) == Fraction(1, 2) * p == TruncatedPolynomial(
        2, 4, {(1, 0): Fraction(1, 2)}
    )


@given(small_polys(), st.lists(st.fractions(max_denominator=5), min_size=2, max_size=2))
def test_evaluate_at_rational_points(p, point):
    want = sum(
        (
            p.coefficient(e) * point[0] ** e[0] * point[1] ** e[1]
            for e in (exponents(key, 2) for key in p.terms)
        ),
        Fraction(0),
    )
    assert p.evaluate(point) == want


def test_evaluate_wrong_length():
    with pytest.raises(DimensionMismatch):
        h1().evaluate((1,))
