import pytest

from monolink.errors import (
    EmptySupport,
    HypothesisViolated,
    InputError,
    NegativeDimension,
    NotDivisible,
)
from monolink.lattice import CohomologyClass, IntersectionForm, is_characteristic, square
from monolink.manifold import (
    FourManifoldData,
    SpincData,
    SpinuData,
    blow_up_manifold,
    blow_up_spinc,
    blow_up_spinu,
    c1_squared,
    c_of_X,
    degree_parity_ok,
    dim_sw,
    dims_asd,
    holomorphic_euler,
    level,
    normal_indices,
    orientation_sign,
    r_and_i,
    require_odd_b_plus,
)

from conftest import hyperbolic_gram


@pytest.fixture
def s2xs2():
    return FourManifoldData(
        "S2xS2", chi=4, sigma=0, form=IntersectionForm(hyperbolic_gram(1))
    )


def _k3_spinu(k3):
    lam = k3.lam
    return SpinuData(c1=lam, p1=-8, w=k3.w)


def test_characteristic_numbers(k3, e3, s2xs2):
    assert c1_squared(k3.manifold) == 0
    assert c1_squared(s2xs2) == 8
    assert holomorphic_euler(k3.manifold) == 2
    assert c_of_X(k3.manifold) == 2
    assert c_of_X(e3.manifold) == 3


def test_c_of_x_is_chi_h_minus_c1_squared(k3, e3, e5):
    # -(7chi+11sigma)/4 = (chi+sigma)/4 - (2chi+3sigma) holds identically.
    for fx in (k3, e3, e5):
        X = fx.manifold
        assert c_of_X(X) == holomorphic_euler(X) - c1_squared(X)


def test_c_of_x_not_divisible():
    X = FourManifoldData.__new__(FourManifoldData)
    object.__setattr__(X, "chi", 5)
    object.__setattr__(X, "sigma", 0)
    with pytest.raises(NotDivisible):
        holomorphic_euler(X)


def test_chi_sigma_congruence_enforced():
    with pytest.raises(ValueError):
        FourManifoldData("bad", chi=5, sigma=0, form=IntersectionForm([[1]]))


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda form: FourManifoldData("x", True, 0, form), "chi and sigma"),
        (lambda form: FourManifoldData("x", 2.0, 2, form), "chi and sigma"),
        (lambda form: SpincData(CohomologyClass((0, 0)), sw=True), "sw and moment"),
        (lambda form: SpincData(CohomologyClass((0, 0)), 1, moment=2.5), "sw and moment"),
    ],
    ids=["true-as-chi", "float-as-chi", "true-as-sw", "fraction-as-moment"],
)
def test_bool_or_non_integer_scalar_raises_instead_of_coercing(form_h, build, message):
    with pytest.raises(InputError, match=f"{message} must be integers"):
        build(form_h)


def test_basic_class_characteristic_enforced(form_h):
    odd = SpincData(CohomologyClass((1, 0)), sw=1)
    with pytest.raises(ValueError):
        FourManifoldData("bad", chi=4, sigma=0, form=form_h, basic_classes=(odd,))


def test_repeated_basic_class_rejected(form_h):
    # Both sides of the Witten check are linear in SW, so a class listed
    # twice would pass verify with its invariant counted twice.
    s = SpincData(CohomologyClass((0, 0)), sw=1)
    with pytest.raises(InputError, match=r"basic class \(0, 0\) is repeated"):
        FourManifoldData("twice", chi=4, sigma=0, form=form_h, basic_classes=(s, s))


def test_dims_asd_k3(k3):
    t = _k3_spinu(k3)
    d_a, n_a = dims_asd(k3.manifold, t)
    assert (d_a, n_a) == (4, 1)


def test_dim_sw(k3, e3):
    assert dim_sw(k3.manifold, k3.manifold.basic_classes[0]) == 0
    for s in e3.manifold.basic_classes:
        assert dim_sw(e3.manifold, s) == 0


def test_dim_sw_simple_type(k3, e3, e5):
    for fx in (k3, e3, e5):
        assert fx.manifold.is_simple_type()
        for s in fx.manifold.basic_classes:
            assert dim_sw(fx.manifold, s) == 0


def test_dim_sw_negative_raises(form_h):
    X = FourManifoldData("tiny", chi=4, sigma=0, form=form_h)
    bad = SpincData(CohomologyClass((2, 2)), sw=1)  # c1^2 = 8 < 2chi+3sigma? no: equals
    assert dim_sw(X, bad) == 0
    worse = SpincData(CohomologyClass((0, 2)), sw=1)  # c1^2 = 0, d_s = -2
    with pytest.raises(NegativeDimension):
        dim_sw(X, worse)


def test_normal_indices_and_dim_relation(k3):
    X = k3.manifold
    s = X.basic_classes[0]
    t_split = SpinuData(c1=k3.lam, p1=square(X.form, s.c1 - k3.lam), w=k3.w)
    n1, n2 = normal_indices(X, t_split, s)
    assert (n1, n2) == (0, 0)
    d_a, n_a = dims_asd(X, t_split)
    assert d_a + 2 * n_a == 2 * (n1 + n2) + dim_sw(X, s)


def test_normal_indices_cross_check_na(k3):
    # n' = d_a(t')/2 - 4 + (chi+sigma)/4 for the ambient structure.
    X = k3.manifold
    s = X.basic_classes[0]
    t_prime = _k3_spinu(k3)
    t_split = SpinuData(c1=t_prime.c1, p1=t_prime.p1 + 4, w=t_prime.w)
    n1, _ = normal_indices(X, t_split, s)
    d_a, _ = dims_asd(X, t_prime)
    assert n1 == d_a // 2 - 4 + (X.chi + X.sigma) // 4


def test_level(k3):
    X = k3.manifold
    s = X.basic_classes[0]
    t_prime = _k3_spinu(k3)
    assert level(X, t_prime, s) == 1
    t_split = SpinuData(c1=k3.lam, p1=square(X.form, s.c1 - k3.lam), w=k3.w)
    assert level(X, t_split, s) == 0


def test_r_and_i_k3(k3):
    X = k3.manifold
    info = r_and_i(X, k3.lam, X.basic_classes)
    assert info.r_min == -2
    assert info.i_value == 6
    assert info.per_class == (-2,)
    # for simple type with lam orthogonal to the support: i + r = 2 c(X)
    assert info.i_value + info.r_min == 2 * c_of_X(X)


def test_r_and_i_empty_support(k3):
    with pytest.raises(EmptySupport):
        r_and_i(k3.manifold, k3.lam, ())


def test_degree_parity(k3):
    X = k3.manifold
    w = k3.w
    assert degree_parity_ok(X, w, 4)
    assert degree_parity_ok(X, w, 12)
    assert not degree_parity_ok(X, w, 6)
    assert not degree_parity_ok(X, w, 0)


def test_orientation_sign_identity(k3):
    X = k3.manifold
    s = X.basic_classes[0]
    t = _k3_spinu(k3)
    # w = c1(L) = c1(t) - c1(s) makes the exponent zero
    w_match = t.c1 - s.c1
    assert orientation_sign(X, w_match, t, s) == 1
    assert orientation_sign(X, k3.w, t, s) == 1  # (w - lam)^2/4 = 0 here too


def test_orientation_blow_up_parity(k3):
    X = k3.manifold
    s = X.basic_classes[0]
    t = _k3_spinu(k3)
    X_blown, e = blow_up_manifold(X)
    t_blown = blow_up_spinu(t)
    s_plus = blow_up_spinc(s, 1, X, X_blown)
    s_minus = blow_up_spinc(s, 0, X, X_blown)
    base = orientation_sign(X, t.w, t, s)
    assert orientation_sign(X_blown, t_blown.w, t_blown, s_plus) == -base
    assert orientation_sign(X_blown, t_blown.w, t_blown, s_minus) == base


def test_blow_up_manifold(k3):
    X = k3.manifold
    X_blown, e = blow_up_manifold(X)
    assert (X_blown.chi, X_blown.sigma) == (X.chi + 1, X.sigma - 1)
    assert square(X_blown.form, e) == -1
    assert c1_squared(X_blown) == c1_squared(X) - 1


def test_blow_up_spinc(k3):
    X = k3.manifold
    X_blown, e = blow_up_manifold(X)
    s = X.basic_classes[0]
    s_plus = blow_up_spinc(s, 1, X, X_blown)
    s_minus = blow_up_spinc(s, 0, X, X_blown)
    assert s_plus.c1.coords[-1] == 1
    assert s_minus.c1.coords[-1] == -1
    assert s_plus.sw == s.sw and s_minus.sw == s.sw
    assert dim_sw(X_blown, s_plus) == dim_sw(X, s)
    assert is_characteristic(X_blown.form, s_plus.c1)
    assert is_characteristic(X_blown.form, s_minus.c1)
    # k = 2 drops the dimension by k(k-1) = 2: negative here, invariant zeroed
    s_far = blow_up_spinc(s, 2, X, X_blown)
    assert s_far.sw == 0


def test_blow_up_spinu(k3):
    X = k3.manifold
    t = _k3_spinu(k3)
    X_blown, e = blow_up_manifold(X)
    t_blown = blow_up_spinu(t)
    assert t_blown.p1 == t.p1 - 1
    assert t_blown.w.coords[-1] == 1
    _, n_a = dims_asd(X, t)
    _, n_a_blown = dims_asd(X_blown, t_blown)
    assert n_a == n_a_blown
    s = X.basic_classes[0]
    for k in (1, 0):
        s_pm = blow_up_spinc(s, k, X, X_blown)
        assert level(X_blown, t_blown, s_pm) == level(X, t, s)
    # w + e is always good mod 2
    assert t_blown.w.coords[-1] % 2 == 1


def test_require_odd_b_plus(s2xs2, k3):
    require_odd_b_plus(k3.manifold)
    with pytest.raises(HypothesisViolated):
        require_odd_b_plus(s2xs2)
