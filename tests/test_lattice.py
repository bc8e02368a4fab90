import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from monolink.errors import DimensionMismatch, InputError, NotDivisible, SearchExhausted
from monolink.lattice import (
    CohomologyClass,
    IntersectionForm,
    blow_up,
    find_hyperbolic_pair,
    is_characteristic,
    is_good,
    lambda_candidates,
    orthogonal_complement,
    pair,
    square,
    _signature_counts,
)

from conftest import hyperbolic_gram


def _rank_over_q(rows):
    m = [[Fraction(x) for x in row] for row in rows]
    rank = 0
    cols = len(m[0]) if m else 0
    row = 0
    for col in range(cols):
        piv = next((r for r in range(row, len(m)) if m[r][col] != 0), None)
        if piv is None:
            continue
        m[row], m[piv] = m[piv], m[row]
        for r in range(len(m)):
            if r != row and m[r][col] != 0:
                f = m[r][col] / m[row][col]
                m[r] = [a - f * b for a, b in zip(m[r], m[row])]
        rank += 1
        row += 1
    return rank


def test_form_construction_checks():
    with pytest.raises(ValueError):
        IntersectionForm([[0, 1], [2, 0]])  # not symmetric
    with pytest.raises(ValueError):
        IntersectionForm([[0, 0], [0, 1]])  # degenerate
    with pytest.raises(ValueError):
        IntersectionForm([[0, 1], [1, 0]], b_plus=2)  # wrong inertia
    with pytest.raises(DimensionMismatch):
        IntersectionForm([[0, 1, 0], [1, 0, 0]])


def test_non_integral_entries_raise_instead_of_truncating():
    # A non-integral entry raises; it is never truncated toward zero.
    with pytest.raises(InputError):
        CohomologyClass([1.7, 2.2])
    with pytest.raises(InputError):
        0.5 * CohomologyClass([3, 4])
    with pytest.raises(InputError):
        CohomologyClass([Fraction(1, 2), 0])
    with pytest.raises(InputError):
        IntersectionForm([[1.5]])
    assert (-2) * CohomologyClass([3, 4]) == CohomologyClass((-6, -8))
    assert IntersectionForm([[1]]).gram == ((1,),)


@pytest.mark.parametrize("coords", [(True, 0), (0, False), 7], ids=repr)
def test_bool_or_non_iterable_class_raises_instead_of_coercing(coords):
    with pytest.raises(InputError, match="class coordinates must be integers"):
        CohomologyClass(coords)


@pytest.mark.parametrize("gram", [[[True, 0], [0, -1]], [5, 6], 7, None], ids=repr)
def test_bool_entry_or_non_iterable_row_raises_instead_of_coercing(gram):
    with pytest.raises(InputError, match="gram entries must be integers"):
        IntersectionForm(gram)


@pytest.mark.parametrize("b_plus", [True, 1.0], ids=repr)
def test_bool_or_non_integer_b_plus_raises_instead_of_coercing(b_plus):
    with pytest.raises(InputError, match="b_plus must be integers"):
        IntersectionForm([[1]], b_plus=b_plus)


def test_signature(form_h, k3):
    assert form_h.b_plus == 1 and form_h.b_minus == 1
    assert k3.manifold.form.b_plus == 3
    assert k3.manifold.form.b_minus == 19


def test_pair_examples(form_h, k3):
    a = CohomologyClass((1, 0))
    b = CohomologyClass((0, 1))
    assert pair(form_h, a, b) == 1
    assert pair(form_h, a, a) == 0
    zero = CohomologyClass.zero(22)
    assert pair(k3.manifold.form, zero, zero) == 0
    with pytest.raises(DimensionMismatch):
        pair(form_h, a, CohomologyClass((1, 0, 0)))


def test_square_parity_follows_diagonal(k3, e3):
    # x.x = sum_i gram_ii x_i^2 (mod 2): even forms have even squares only.
    for fx in (k3, e3):
        form = fx.manifold.form
        for probe in range(5):
            coords = tuple((probe * i + i * i) % 3 - 1 for i in range(form.rank))
            x = CohomologyClass(coords)
            diag = sum(form.gram[i][i] * coords[i] * coords[i] for i in range(form.rank))
            assert (square(form, x) - diag) % 2 == 0


def test_pair_symmetric_bilinear(form_h):
    u = CohomologyClass((3, -2))
    v = CohomologyClass((1, 5))
    w = CohomologyClass((-4, 7))
    assert pair(form_h, u, v) == pair(form_h, v, u)
    assert pair(form_h, u + w, v) == pair(form_h, u, v) + pair(form_h, w, v)


def test_is_characteristic(form_h, k3):
    assert is_characteristic(k3.manifold.form, CohomologyClass.zero(22))
    assert is_characteristic(form_h, CohomologyClass((0, 0)))
    odd = IntersectionForm([[1]])
    assert is_characteristic(odd, CohomologyClass((1,)))
    assert not is_characteristic(odd, CohomologyClass((0,)))


def test_is_good():
    assert is_good(CohomologyClass((1, 0, 0)))
    assert not is_good(CohomologyClass((0, 0, 0)))
    assert not is_good(CohomologyClass((2, 4, 6)))


def test_orthogonal_complement_full_and_empty(form_h):
    full = orthogonal_complement(form_h, [CohomologyClass.zero(2)])
    assert len(full) == 2
    nothing = orthogonal_complement(
        form_h, [CohomologyClass((1, 0)), CohomologyClass((0, 1))]
    )
    assert nothing == []


def test_orthogonal_complement_isotropic_line(form_h):
    basis = orthogonal_complement(form_h, [CohomologyClass((1, 0))])
    assert len(basis) == 1
    (gen,) = basis
    assert pair(form_h, gen, CohomologyClass((1, 0))) == 0
    assert gen.coords in ((1, 0), (-1, 0))


def test_orthogonal_complement_rank_and_orthogonality(e3):
    form = e3.manifold.form
    K = e3.manifold.basic_classes[0].c1
    basis = orthogonal_complement(form, [K])
    constraint = [form.apply(K)]
    assert len(basis) == form.rank - _rank_over_q(constraint)
    assert all(pair(form, v, K) == 0 for v in basis)
    # the output really is a basis: its coordinate matrix has full rank
    assert _rank_over_q([list(v.coords) for v in basis]) == len(basis)


def test_find_hyperbolic_pair_in_h_block():
    form = IntersectionForm(hyperbolic_gram(1))
    basis = orthogonal_complement(form, [CohomologyClass.zero(2)])
    e1, e2 = find_hyperbolic_pair(form, basis)
    assert square(form, e1) == 0
    assert square(form, e2) == 0
    assert pair(form, e1, e2) == 1


def test_find_hyperbolic_pair_negative_definite():
    form = IntersectionForm([[-1, 0], [0, -1]])
    with pytest.raises(SearchExhausted):
        find_hyperbolic_pair(form, orthogonal_complement(form, []))


def test_find_hyperbolic_pair_k3(k3):
    form = k3.manifold.form
    basis = orthogonal_complement(form, [CohomologyClass.zero(22)])
    e1, e2 = find_hyperbolic_pair(form, basis)
    assert square(form, e1) == 0 and square(form, e2) == 0
    assert pair(form, e1, e2) == 1


def test_find_hyperbolic_pair_in_basic_class_complement(e3):
    form = e3.manifold.form
    K = e3.manifold.basic_classes[0].c1
    basis = orthogonal_complement(form, [K])
    e1, e2 = find_hyperbolic_pair(form, basis)
    assert square(form, e1) == 0 and square(form, e2) == 0
    assert pair(form, e1, e2) == 1
    assert pair(form, e1, K) == 0 and pair(form, e2, K) == 0


def test_find_hyperbolic_pair_odd_diagonal_needs_support_three():
    # <1> + 2<-1> contains a hyperbolic pair but only on three coordinates.
    form = IntersectionForm([[1, 0, 0], [0, -1, 0], [0, 0, -1]])
    basis = orthogonal_complement(form, [])
    e1, e2 = find_hyperbolic_pair(form, basis)
    assert square(form, e1) == 0 and square(form, e2) == 0
    assert pair(form, e1, e2) == 1


def test_lambda_candidates_squares(form_h):
    e1 = CohomologyClass((1, 0))
    e2 = CohomologyClass((0, 1))
    lam0, lam1 = lambda_candidates(e1, e2, chi=24, sigma=-16)
    assert lam0.coords == (1, -4)
    assert lam1.coords == (1, -2)
    assert square(form_h, lam0) == -8
    assert square(form_h, lam1) == -4
    assert all((a - b) % 2 == 0 for a, b in zip(lam0.coords, lam1.coords))
    with pytest.raises(NotDivisible):
        lambda_candidates(e1, e2, chi=5, sigma=0)


def test_lambda_candidates_k3_value(form_h):
    # chi + sigma = 8: lam1^2 = 4 - (chi+sigma) = -4
    _, lam1 = lambda_candidates(
        CohomologyClass((1, 0)), CohomologyClass((0, 1)), 24, -16
    )
    assert square(form_h, lam1) == 4 - (24 - 16)


def test_blow_up(form_h):
    blown, e = blow_up(form_h)
    assert blown.gram == ((0, 1, 0), (1, 0, 0), (0, 0, -1))
    assert square(blown, e) == -1
    assert pair(blown, e, CohomologyClass((1, 0, 0))) == 0
    assert (blown.b_plus, blown.b_minus) == (form_h.b_plus, form_h.b_minus + 1)


# -- sparse pairing against the dense sum -----------------------------------

ENTRY = st.one_of(st.just(0), st.integers(-3, 3))  # about half zeros


@st.composite
def unimodular(draw, n):
    """A product of up to 12 elementary column operations e_j += c e_i: few
    keep a matrix sparse, many make it dense."""
    if n == 1:
        return [[draw(st.sampled_from([1, -1]))]]
    p = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(draw(st.integers(0, 12))):
        i, j = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
        c = draw(st.integers(-2, 2))
        for row in p:
            row[j] += c * row[i]
    return p


def congruent(g, p):
    """P^T G P."""
    n = len(g)
    return [
        [sum(p[k][i] * g[k][l] * p[l][j] for k in range(n) for l in range(n))
         for j in range(n)]
        for i in range(n)
    ]


@st.composite
def symmetric(draw, n):
    g = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            g[i][j] = g[j][i] = draw(ENTRY)
    return g


@st.composite
def sparse_and_dense_forms(draw):
    """P^T G0 P with G0 an orthogonal sum of <d> and [[a, 1], [1, 0]] blocks
    (nondegenerate) and P unimodular: zero diagonals, one-entry rows and
    dense rows all occur."""
    blocks = draw(st.lists(st.one_of(
        st.tuples(st.just(1), st.sampled_from([-3, -2, -1, 1, 2, 3])),
        st.tuples(st.just(2), st.integers(-2, 2)),
    ), min_size=1, max_size=6).filter(lambda bs: sum(b[0] for b in bs) <= 8))
    n = sum(b[0] for b in blocks)
    g0 = [[0] * n for _ in range(n)]
    i = 0
    for size, a in blocks:
        g0[i][i] = a
        if size == 2:
            g0[i][i + 1] = g0[i + 1][i] = 1
        i += size
    return congruent(g0, draw(unimodular(n)))


@given(st.data())
def test_pair_square_apply_match_dense_sums(data):
    gram = data.draw(sparse_and_dense_forms())
    n = len(gram)
    form = IntersectionForm(gram)
    classes = st.one_of(st.just([0] * n), st.lists(ENTRY, min_size=n, max_size=n))
    a, b = CohomologyClass(data.draw(classes)), CohomologyClass(data.draw(classes))

    def dense(x, y):
        return sum(x.coords[i] * gram[i][j] * y.coords[j] for i in range(n) for j in range(n))

    assert pair(form, a, b) == pair(form, b, a) == dense(a, b)
    assert square(form, a) == dense(a, a)
    assert form.apply(a) == tuple(
        dense(a, CohomologyClass.basis_vector(j, n)) for j in range(n)
    )


@given(st.data())
def test_signature_counts_invariant_under_congruence(data):
    # Sylvester's law of inertia, degenerate matrices included.
    n = data.draw(st.integers(1, 8))
    g = data.draw(symmetric(n))
    assert _signature_counts(congruent(g, data.draw(unimodular(n)))) == _signature_counts(g)


def test_signature_counts_of_dense_rank_40_form():
    # P = L U with unit lower and upper triangular L, U: dense and unimodular.
    rng = random.Random(40)
    n, p = 40, 17

    def unit_lower():
        return [[int(i == j) if j >= i else rng.choice((-1, 0, 1)) for j in range(n)]
                for i in range(n)]

    low, up = unit_lower(), unit_lower()
    P = [[sum(low[i][k] * up[j][k] for k in range(n)) for j in range(n)] for i in range(n)]
    signs = [1] * p + [-1] * (n - p)
    g = [[sum(s * P[k][i] * P[k][j] for k, s in enumerate(signs)) for j in range(n)]
         for i in range(n)]
    assert sum(1 for row in g for x in row if x) > 0.9 * n * n
    assert _signature_counts(g) == (p, n - p, 0)


def test_forms_from_equal_grams_are_equal(e3):
    gram = e3.manifold.form.gram
    a = IntersectionForm(gram)
    b = IntersectionForm([list(row) for row in gram])
    assert a == b == e3.manifold.form
    assert hash(a) == hash(b) == hash(e3.manifold.form)
    assert a != IntersectionForm([[0, 1], [1, 0]])
