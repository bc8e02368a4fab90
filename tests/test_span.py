"""Span: series computed in the linear forms of a few classes and Q(h),
expanded to the h-basis, against the same series built in the h-basis."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from monolink.errors import DimensionMismatch, InputError
from monolink.lattice import CohomologyClass, IntersectionForm
from monolink.polyring import (
    Span,
    TruncatedPolynomial,
    constant,
    linear_form,
    quadratic_form,
)

from conftest import hyperbolic_gram

BOUND = st.integers(1, 4)


def block_form(blocks):
    """Orthogonal sum of H and <+-1> blocks."""
    size = sum(2 if b == "H" else 1 for b in blocks)
    gram = [[0] * size for _ in range(size)]
    i = 0
    for b in blocks:
        if b == "H":
            gram[i][i + 1] = gram[i + 1][i] = 1
            i += 2
        else:
            gram[i][i] = b
            i += 1
    return IntersectionForm(gram)


@st.composite
def forms(draw):
    blocks = draw(
        st.lists(st.sampled_from(["H", 1, -1]), min_size=1, max_size=6).filter(
            lambda bs: 1 <= sum(2 if b == "H" else 1 for b in bs) <= 6
        )
    )
    return block_form(blocks)


@st.composite
def class_lists(draw, rank):
    """Zero, random and dependent classes; sometimes a full basis (k = rank)."""
    small = st.lists(st.integers(-2, 2), min_size=rank, max_size=rank)
    classes = []
    for kind in draw(st.lists(st.sampled_from(["zero", "random", "dependent"]), max_size=4)):
        if kind == "zero":
            classes.append(CohomologyClass.zero(rank))
        elif kind == "random" or not classes:
            classes.append(CohomologyClass(draw(small)))
        else:
            a, b = draw(st.integers(-2, 2)), draw(st.integers(-2, 2))
            u, v = draw(st.sampled_from(classes)), draw(st.sampled_from(classes))
            classes.append(a * u + b * v)
    if draw(st.booleans()):
        classes += [CohomologyClass.basis_vector(i, rank) for i in range(rank)]
    return classes


def expressions(n_classes):
    coeffs = st.lists(st.integers(-2, 2), min_size=n_classes, max_size=n_classes)
    scalars = st.fractions(min_value=-2, max_value=2, max_denominator=3)
    lin = coeffs.map(lambda c: ("lin", c))
    quad = st.just(("quad",))
    leaves = st.one_of(
        lin,
        lin,
        quad,
        quad,
        scalars.map(lambda q: ("const", q)),
        coeffs.map(lambda c: ("lin_split", c)),
    )

    def extend(inner):
        return st.one_of(
            st.tuples(st.sampled_from(["add", "sub", "mul"]), inner, inner),
            st.tuples(st.sampled_from(["add", "mul"]), inner, inner),
            st.tuples(st.just("scale"), scalars, inner),
            st.tuples(st.just("pow"), inner, st.integers(0, 3)),
            st.tuples(st.just("exp"), inner),
            st.tuples(st.just("hom"), inner, st.integers(0, 4)),
            st.tuples(st.just("trunc"), inner, st.integers(0, 4)),
        )

    return st.recursive(leaves, extend, max_leaves=6)


def build(expr, classes, lin, quad, const):
    """Evaluate `expr` with `lin(v)`, `quad()` and `const(c)` as its leaves."""

    def combo(c):
        v = CohomologyClass.zero(classes[0].rank)
        for ci, cls in zip(c, classes):
            v = v + ci * cls
        return v

    def ev(e):
        op = e[0]
        if op == "lin":
            return lin(combo(e[1]))
        if op == "quad":
            return quad()
        if op == "const":
            return const(e[1])
        if op == "lin_split":  # zero by linearity
            out = lin(combo(e[1]))
            for ci, cls in zip(e[1], classes):
                out = out - ci * lin(cls)
            return out
        if op == "add":
            return ev(e[1]) + ev(e[2])
        if op == "sub":
            return ev(e[1]) - ev(e[2])
        if op == "mul":
            return ev(e[1]) * ev(e[2])
        if op == "scale":
            return e[1] * ev(e[2])
        if op == "pow":
            return ev(e[1]) ** e[2]
        if op == "exp":
            p = ev(e[1])
            return (p - const(p.constant_term())).exp_series()
        if op == "hom":
            return ev(e[1]).homogeneous_part(e[2])
        if op == "trunc":
            return ev(e[1]).truncate(e[2])
        raise AssertionError(op)

    return ev(expr)


@settings(max_examples=150)
@given(st.data())
def test_span_expansion_matches_full_ring(data):
    form = data.draw(forms())
    classes = data.draw(class_lists(form.rank))
    if not classes:
        classes = [CohomologyClass.zero(form.rank)]
    expr = data.draw(expressions(len(classes)))
    # The same expression plus <v,h> + Q(h), so that small draws which
    # collapse to constants still carry a linear and a quadratic part.
    n = len(classes)
    lin = ("lin", data.draw(st.lists(st.integers(-2, 2), min_size=n, max_size=n)))
    bound = data.draw(BOUND)
    span = Span(form, classes)
    for e in (expr, ("add", expr, ("add", lin, ("quad",)))):
        reduced = build(
            e,
            classes,
            lambda v: span.linear(v, bound),
            lambda: span.quadratic(bound),
            lambda c: constant(c, span.nvars, bound),
        )
        full = build(
            e,
            classes,
            lambda v: linear_form(v, form, bound),
            lambda: quadratic_form(form, bound),
            lambda c: constant(c, form.rank, bound),
        )
        assert reduced.nvars == span.nvars
        assert span.expand(reduced) == full
        assert reduced.is_zero() == full.is_zero()


def test_span_picks_independent_classes():
    form = IntersectionForm(hyperbolic_gram(2))
    a = CohomologyClass((1, 2, 0, 0))
    b = CohomologyClass((0, 0, 1, -1))
    span = Span(form, [CohomologyClass.zero(4), a, 2 * a, b, a - 3 * b])
    assert span.basis == [a, b]
    assert span.nvars == 4  # x1, x2, u, v
    assert span.linear(a - 3 * b, 2) == TruncatedPolynomial(
        4, 2, {(1, 0, 0, 0): 1, (0, 1, 0, 0): -3}
    )
    assert span.quadratic(2) == TruncatedPolynomial(4, 2, {(0, 0, 1, 1): 1})


def ref_span_coefficients(classes):
    """(basis, coefficients): the classes independent of the earlier ones,
    in order, and each class's coefficients in them, by Fraction
    Gauss-Jordan elimination on [v_1 .. v_k | cls]."""
    basis, coefficients = [], []
    for cls in classes:
        k = len(basis)
        aug = [[Fraction(v.coords[r]) for v in basis] + [Fraction(cls.coords[r])]
               for r in range(cls.rank)]
        row = 0
        for col in range(k):
            piv = next(r for r in range(row, len(aug)) if aug[r][col])
            aug[row], aug[piv] = aug[piv], aug[row]
            aug[row] = [x / aug[row][col] for x in aug[row]]
            for r in range(len(aug)):
                if r != row and aug[r][col]:
                    aug[r] = [x - aug[r][col] * y for x, y in zip(aug[r], aug[row])]
            row += 1
        if any(aug[r][k] for r in range(row, len(aug))):
            basis.append(cls)
            coefficients.append([Fraction(0)] * k + [Fraction(1)])
        else:
            coefficients.append([aug[r][k] for r in range(k)])
    return basis, coefficients


@st.composite
def rational_combination_lists(draw, rank):
    """Random classes, then classes (a u + b v)/g with g the gcd of the
    coordinates of a u + b v, so their coefficients are rational."""
    small = st.lists(st.integers(-3, 3), min_size=rank, max_size=rank)
    classes = [CohomologyClass(draw(small)) for _ in range(draw(st.integers(1, 3)))]
    for _ in range(draw(st.integers(1, 3))):
        a, b = draw(st.integers(-3, 3)), draw(st.integers(-3, 3))
        u, v = draw(st.sampled_from(classes)), draw(st.sampled_from(classes))
        w = a * u + b * v
        g = math.gcd(*w.coords) or 1
        classes.append(CohomologyClass(x // g for x in w.coords))
    return classes


@given(st.data())
def test_span_linear_matches_fraction_gauss_jordan(data):
    form = data.draw(forms())
    classes = data.draw(rational_combination_lists(form.rank))
    span = Span(form, classes)
    basis, coefficients = ref_span_coefficients(classes)
    assert span.basis == basis
    for cls, coeffs in zip(classes, coefficients):
        lin = span.linear(cls, 1)
        if span.full_rank:  # the variables are h itself
            assert lin == linear_form(cls, form, 1)
            continue
        want = [coeffs[i] if i < len(coeffs) else 0 for i in range(len(basis))]
        assert [lin.coefficient(tuple(int(j == i) for j in range(span.nvars)))
                for i in range(len(basis))] == want
        assert len(lin.terms) == sum(1 for c in want if c)


def test_span_linear_of_a_half_sum():
    form = IntersectionForm(hyperbolic_gram(2))
    v1, v2 = CohomologyClass((1, 1, 2, 0)), CohomologyClass((1, -1, 0, 2))
    half = CohomologyClass((1, 0, 1, 1))  # (v1 + v2)/2
    span = Span(form, [v1, v2, half])
    assert span.basis == [v1, v2]
    assert span.linear(half, 1) == TruncatedPolynomial(
        4, 1, {(1, 0, 0, 0): Fraction(1, 2), (0, 1, 0, 0): Fraction(1, 2)}
    )


def test_span_full_rank_is_the_h_basis():
    # Basis (1,2), (0,1) of H: the span's variables are h1, h2 themselves.
    form = IntersectionForm(hyperbolic_gram(1))
    a, b = CohomologyClass((1, 2)), CohomologyClass((0, 1))
    span = Span(form, [a, b])
    assert span.full_rank and span.nvars == 2
    for cls in (a, b, a - 3 * b, CohomologyClass((5, -7))):
        assert span.linear(cls, 3) == linear_form(cls, form, 3)
        assert span.linear(cls, 2, b) == linear_form(cls - b, form, 2)
    assert span.quadratic(3) == quadratic_form(form, 3)
    p = span.linear(a, 3) ** 2 + Fraction(1, 3) * span.quadratic(3)
    assert span.expand(p) is p


def test_span_rejects_what_it_cannot_express():
    form = IntersectionForm(hyperbolic_gram(2))
    span = Span(form, [CohomologyClass((1, 0, 0, 0))])
    with pytest.raises(InputError, match="not in the span"):
        span.linear(CohomologyClass((0, 1, 0, 0)), 2)
    with pytest.raises(InputError, match="not a power of Q"):
        span.expand(TruncatedPolynomial(3, 2, {(0, 1, 0): Fraction(1)}))
    with pytest.raises(DimensionMismatch):
        span.expand(TruncatedPolynomial(4, 2, {}))


def test_span_linear_is_linear_and_rejects_every_time():
    form = IntersectionForm(hyperbolic_gram(3))
    a = CohomologyClass((1, 2, 0, 0, 0, 0))
    b = CohomologyClass((0, 0, 1, -1, 0, 0))
    span = Span(form, [a, b])
    for x, y in ((a, b), (3 * a, -2 * b), (a - b, a + 2 * b), (b, b)):
        assert span.linear(x - y, 3) == span.linear(x, 3) - span.linear(y, 3)
        assert span.linear(x - y, 3) == span.linear(x, 3) - span.linear(y, 3)
    outside = CohomologyClass((0, 1, 0, 0, 0, 0))
    for _ in range(2):
        with pytest.raises(InputError, match="not in the span"):
            span.linear(outside, 2)
        with pytest.raises(InputError, match="not in the span"):
            span.linear(a + outside, 2)
