import time
from fractions import Fraction
from math import factorial

import pytest

from monolink import lattice, manifold, polyring, witten
from monolink.cli import load_catalog_fixture, load_fixture
from monolink.errors import (
    BoundTooHigh,
    EmptySupport,
    HypothesisViolated,
    InputError,
    NotCongruent,
    NotDivisible,
)
from monolink.lattice import CohomologyClass, pair, square
from monolink.manifold import FourManifoldData, SpincData, c_of_X, degree_parity_ok, r_and_i
from monolink.polyring import linear_form, quadratic_form
from monolink.witten import (
    assemble_donaldson_series,
    donaldson_moment,
    sign_change_check,
    sw_series,
    sw_vanishing_check,
    verify_witten,
)

from conftest import FIGURE_EIGHT, TREFOIL, blow_up_fixture, elliptic_fixture
from test_cli_golden import broken


def _basis(i, rank):
    return CohomologyClass.basis_vector(i, rank)


def test_sw_series_k3_is_one(k3):
    X = k3.manifold
    series = sw_series(X, k3.w, 3)
    assert series.render() == "1"


def test_sw_series_empty_support(k3):
    X = k3.manifold
    stripped = type(X)(X.name, X.chi, X.sigma, X.form, ())
    assert sw_series(stripped, k3.w, 3).is_zero()


def test_sw_series_parity(e3):
    # -w^2 - (3/4)(chi+sigma) is odd for this fixture, so the series is odd.
    X = e3.manifold
    w2 = square(X.form, e3.w)
    assert (-w2 - 3 * (X.chi + X.sigma) // 4) % 2 == 1
    series = sw_series(X, e3.w, 4)
    for d in (0, 2, 4):
        assert series.homogeneous_part(d).is_zero()
    assert not series.homogeneous_part(1).is_zero()


def test_sw_vanishing_check_k3(k3):
    X = k3.manifold
    assert sw_vanishing_check(X, k3.w, 1)  # <0, h> = 0
    assert not sw_vanishing_check(X, k3.w, 0)  # boundary degree c-2
    with pytest.raises(InputError):  # polyring.zero refuses a negative bound
        sw_vanishing_check(X, k3.w, -1)


def test_sw_vanishing_check_e3(e3):
    X = e3.manifold
    c = c_of_X(X)
    for d in range(5):
        expected = (d < c - 2) or ((d - c) % 2 != 0)
        assert sw_vanishing_check(X, e3.w, d) == expected


def test_verify_vanishing_rows_match_power_sum_oracle(k3, e3):
    for fx in (k3, e3):
        X = fx.manifold
        details = {cid: detail for cid, _, detail in verify_witten(X, fx.w, fx.lam).checks}
        for d in range(c_of_X(X) + 2):
            actual = details[f"vanishing.d{d}"].split()[1]
            assert actual == f"actual_zero={sw_vanishing_check(X, fx.w, d)}", (X.name, d)
        assert f"vanishing.d{c_of_X(X) + 2}" not in details


def test_donaldson_moment_k3_examples(k3):
    X = k3.manifold
    q = quadratic_form(X.form, 2)
    assert donaldson_moment(X, k3.w, k3.lam, 2, 0) == q
    point = donaldson_moment(X, k3.w, k3.lam, 2, 1)
    assert point.render() == "2"


def test_donaldson_moment_parity_zero(k3):
    X = k3.manifold
    # 2*delta = 8 fails the mod-8 rule, so the invariant is zero by fiat.
    assert donaldson_moment(X, k3.w, k3.lam, 4, 1).is_zero()
    assert donaldson_moment(X, k3.w, k3.lam, 4, 0).is_zero()


def test_donaldson_moment_hypothesis_errors(k3):
    X = k3.manifold
    with pytest.raises(HypothesisViolated):
        donaldson_moment(X, k3.w, k3.lam, 6, 1)  # parity holds, wrong level
    bad_w = k3.w + _basis(0, 22)
    with pytest.raises(HypothesisViolated):
        donaldson_moment(X, bad_w, k3.lam, 2, 0)  # w - lam not characteristic
    with pytest.raises(HypothesisViolated):
        donaldson_moment(X, k3.w, k3.lam, 2, 3)  # m out of range


def test_donaldson_moment_odd_sigma_minus_w_squared_is_not_divisible(e3):
    # Adding the (-1)-class e10 to both w and lam keeps w - lam characteristic
    # but makes w^2 = -11 odd, so the level-one sign (-1)^((sigma - w^2)/2)
    # has no integer exponent.
    X = e3.manifold
    e10 = _basis(10, X.form.rank)
    with pytest.raises(NotDivisible, match=r"^sigma - w\^2 = -13/2 is not an integer$"):
        donaldson_moment(X, e3.w + e10, e3.lam + e10, 2, 0)


def test_donaldson_moment_mixed_levels():
    # Two basic classes on 3H: the zero class bounds a level-one stratum,
    # the even class (2,2,...) a level-zero one (its r value equals delta).
    # Expected values worked out by hand from the two-sum formula:
    #   D(h^2) = Q - <c2-lam, h>^2   and   D(x) = 3.
    from monolink.lattice import IntersectionForm
    from monolink.manifold import FourManifoldData, SpincData, dim_sw, r_and_i

    from conftest import hyperbolic_gram

    form = IntersectionForm(hyperbolic_gram(3))
    s1 = SpincData(CohomologyClass((0,) * 6), sw=1)
    s2 = SpincData(CohomologyClass((2, 2, 0, 0, 0, 0)), sw=2, moment=7)
    X = FourManifoldData("mixed", chi=24, sigma=-16, form=form, basic_classes=(s1, s2))
    lam = CohomologyClass((1, 2, 1, -4, 0, 0))
    assert square(X.form, lam) == -4
    info = r_and_i(X, lam, X.basic_classes)
    assert info.per_class == (-2, 2)
    assert info.r_min == -2 and info.i_value == 6
    assert dim_sw(X, s2) == 2
    w = lam
    got = donaldson_moment(X, w, lam, 2, 0)
    q = quadratic_form(X.form, 2)
    lf = linear_form(s2.c1 - lam, X.form, 2)
    assert got == q - lf * lf
    point = donaldson_moment(X, w, lam, 2, 1)
    assert point.render() == "3"


def test_donaldson_moment_empty_support(k3):
    # The degree rule is checked before r(lam), which needs a supported class.
    X = k3.manifold
    stripped = type(X)(X.name, X.chi, X.sigma, X.form, ())
    assert donaldson_moment(stripped, k3.w, k3.lam, 4, 0).is_zero()
    with pytest.raises(EmptySupport):
        donaldson_moment(stripped, k3.w, k3.lam, 2, 0)


def test_catalog_identities_are_level_one_moments(k3, e3, e5):
    # verify_witten's hypotheses put every basic class at r = c-4 and lam at
    # i = c+4, so the degree c-2 and c identities are the moments at delta = c.
    for fx in (k3, e3, e5):
        X = fx.manifold
        c = c_of_X(X)
        info = r_and_i(X, fx.lam, X.basic_classes)
        assert info.r_min + 4 == c
        assert info.i_value == c + 4


def test_moment_sum_order_independent(e3):
    X = e3.manifold
    reordered = type(X)(
        X.name, X.chi, X.sigma, X.form, tuple(reversed(X.basic_classes))
    )
    a = donaldson_moment(X, e3.w, e3.lam, 3, 0)
    b = donaldson_moment(reordered, e3.w, e3.lam, 3, 0)
    assert a == b


def test_assemble_k3_matches_gaussian(k3):
    X = k3.manifold
    series = assemble_donaldson_series(X, k3.w, k3.lam, 3)
    q = quadratic_form(X.form, 3)
    gauss = (Fraction(1, 2) * q).exp_series()
    assert series == gauss
    with pytest.raises(BoundTooHigh):
        assemble_donaldson_series(X, k3.w, k3.lam, 4)


def test_assemble_low_degrees_vanish(e3):
    X = e3.manifold
    c = c_of_X(X)
    series = assemble_donaldson_series(X, e3.w, e3.lam, c + 1)
    for d in range(c - 2):
        assert series.homogeneous_part(d).is_zero()


def test_verify_witten_k3(k3):
    report = verify_witten(k3.manifold, k3.w, k3.lam, attributes=k3.attributes)
    assert report.passed
    assert report.c == 2
    ok = {cid: ok for cid, ok, _ in report.checks}
    for cid in ("congruence.low_degree", "congruence.witten", "coefficient.point_class",
                "coefficient.top"):
        assert ok[cid], cid


def test_verify_witten_e3(e3):
    report = verify_witten(e3.manifold, e3.w, e3.lam, attributes=e3.attributes)
    assert report.passed
    assert report.c == 3


def test_low_degree_fails_on_a_low_sw_term_that_both_series_share(monkeypatch, e5):
    # Add Q(h), of degree 2 < c - 2 = 3, to SW and 2^(2-c) e^(Q/2) Q(h) to
    # the Donaldson series: lhs - rhs stays empty, so only SW's own degrees
    # show that both series have a term below c - 2.
    X = e5.manifold
    c = c_of_X(X)
    sw_series_, assemble = witten._sw_series, witten._assemble_donaldson_series

    def sw_plus(span, signed, bound):
        return sw_series_(span, signed, bound) + span.quadratic(bound)

    def lhs_plus(span, moments, bound):
        qf = span.quadratic(bound)
        shared = Fraction(1, 2 ** (c - 2)) * ((Fraction(1, 2) * qf).exp_series() * qf)
        return assemble(span, moments, bound) + shared

    monkeypatch.setattr(witten, "_sw_series", sw_plus)
    monkeypatch.setattr(witten, "_assemble_donaldson_series", lhs_plus)
    report = verify_witten(X, e5.w, e5.lam, attributes=e5.attributes)
    assert c == 5 and (report.lhs - report.rhs).is_zero()
    ok = {cid: ok for cid, ok, _ in report.checks}
    assert ok["congruence.witten"] and not ok["congruence.low_degree"]


def test_verify_hypothesis_failures(k3):
    X = k3.manifold
    with pytest.raises(HypothesisViolated, match="effective"):
        verify_witten(X, k3.w, k3.lam, attributes={"effective": False})
    bad_w = k3.w + _basis(0, 22)
    with pytest.raises(HypothesisViolated, match="characteristic"):
        verify_witten(X, bad_w, k3.lam)
    bad_lam = CohomologyClass((1, -1) + (0,) * 20)  # square -2, wrong value
    with pytest.raises(HypothesisViolated, match="lam"):
        verify_witten(X, k3.w, bad_lam)
    with pytest.raises(HypothesisViolated, match="no basic classes"):
        verify_witten(FourManifoldData(X.name, X.chi, X.sigma, X.form), k3.w, k3.lam)
    # c1 = 2(e1 + f1) has square 8, while every class of a simple-type K3
    # has square 2 chi + 3 sigma = 0.
    extra = SpincData(2 * (_basis(0, 22) + _basis(1, 22)), sw=1)
    with pytest.raises(HypothesisViolated, match="not of simple type"):
        with_extra = FourManifoldData(
            X.name, X.chi, X.sigma, X.form, X.basic_classes + (extra,)
        )
        verify_witten(with_extra, k3.w, k3.lam)


def test_verify_requires_odd_b_plus(e3):
    from monolink.lattice import IntersectionForm
    from monolink.manifold import FourManifoldData

    from conftest import hyperbolic_gram

    flat = FourManifoldData("flat", 4, 0, IntersectionForm(hyperbolic_gram(1)), ())
    with pytest.raises(HypothesisViolated):
        verify_witten(flat, CohomologyClass((0, 0)), CohomologyClass((0, 0)))


def test_report_check_lines_deterministic(k3):
    r1 = verify_witten(k3.manifold, k3.w, k3.lam)
    r2 = verify_witten(k3.manifold, k3.w, k3.lam)
    lines = list(r1.check_lines())
    assert lines == list(r2.check_lines())
    assert [cid for cid, _, _ in lines] == [cid for cid, _, _ in r1.checks] == [
        "congruence.low_degree", "degree.0", "degree.1", "degree.2", "degree.3",
        "congruence.witten", "coefficient.point_class", "coefficient.top",
        "vanishing.d0", "vanishing.d1", "vanishing.d2", "vanishing.d3",
    ]
    assert all(isinstance(detail, str) for _, _, detail in lines)


@pytest.mark.parametrize(
    "name, blow_ups, broken_sign",
    [("k3", 0, False), ("e3", 0, False), ("e5", 0, False), ("e3", 0, True), ("e5", 0, True),
     ("e3", 1, False), ("e5", 1, False)],
)
def test_passed_reads_every_check_and_renders_nothing(
    count_calls, monkeypatch, request, tmp_path, name, blow_ups, broken_sign
):
    # Deciding the report neither expands nor renders a polynomial, and it
    # never splits either stored series into degrees: the only split is the
    # monopole series' two parts that the coefficient identities compare.
    if broken_sign:
        fx = load_fixture(broken(name, tmp_path))
    else:
        fx = blow_up_fixture(request.getfixturevalue(name), blow_ups)
    calls = count_calls(polyring.Span, "expand", "render_expanded", "render")
    count_calls(polyring.TruncatedPolynomial, "render")
    split, parts = [], polyring.TruncatedPolynomial.homogeneous_parts

    def splitting(self, degrees):
        split.append((self, len(degrees)))
        return parts(self, degrees)

    monkeypatch.setattr(polyring.TruncatedPolynomial, "homogeneous_parts", splitting)
    report = verify_witten(fx.manifold, fx.w, fx.lam, attributes=fx.attributes)
    passed = report.passed
    assert not calls
    assert [n for _, n in split] == [2]
    assert split[0][0] is not report.lhs and split[0][0] is not report.rhs
    assert passed == all(ok for _, ok, _ in report.check_lines())
    assert passed is not broken_sign


def test_sign_change_trivial_and_even(k3):
    X = k3.manifold
    assert sign_change_check(X, k3.w, k3.w, k3.lam)
    shifted = k3.w + 2 * _basis(1, 22)
    assert sign_change_check(X, k3.w, shifted, k3.lam)


def test_sign_change_odd_square(e3):
    # shifting by twice a square-one class flips the series sign
    X = e3.manifold
    x = _basis(8, 34)
    assert square(X.form, x) == 1
    w_prime = e3.w + 2 * x
    assert sign_change_check(X, e3.w, w_prime, e3.lam)
    lhs = assemble_donaldson_series(X, w_prime, e3.lam, 3)
    rhs = assemble_donaldson_series(X, e3.w, e3.lam, 3)
    assert lhs == -1 * rhs
    assert not lhs.is_zero()


def test_sign_change_requires_congruence(k3):
    with pytest.raises(NotCongruent):
        sign_change_check(k3.manifold, k3.w, k3.w + _basis(0, 22), k3.lam)


def test_verify_passes_on_twice_blown_up_catalog(e3, e5):
    # X # 2 CP2bar: c rises by 2, the support quadruples, and the series
    # carry larger denominators (2^(2-c), 1/e!) than any catalog fixture.
    for fx in (e3, e5):
        blown = blow_up_fixture(fx, 2)
        X = blown.manifold
        assert len(X.support()) == 4 * len(fx.manifold.support())
        report = verify_witten(X, blown.w, blown.lam, attributes=blown.attributes)
        assert report.c == c_of_X(fx.manifold) + 2
        assert report.passed


def test_verify_passes_on_thrice_blown_up_catalog_within_budget(e3, e5):
    # X # 3 CP2bar: c rises by 3 and the support grows eightfold, to 32
    # classes on e5, whose level-one moments are the largest in the suite.
    start = time.monotonic()
    for fx in (e3, e5):
        blown = blow_up_fixture(fx, 3)
        X = blown.manifold
        assert len(X.support()) == 8 * len(fx.manifold.support())
        report = verify_witten(X, blown.w, blown.lam, attributes=blown.attributes)
        assert report.c == c_of_X(fx.manifold) + 3
        assert report.passed
    elapsed = time.monotonic() - start
    assert elapsed < 5.0, f"took {elapsed:.2f}s (budget 5s)"


def test_verify_products_stay_in_the_span(monkeypatch, e3, e5):
    # verify_witten computes in the span of the support and lam (k = 2, so
    # x1, x2, u, v): a product in the full 34- or 14-variable ring is a
    # fallback to the slow route.
    from monolink.polyring import TruncatedPolynomial

    seen = []
    original = TruncatedPolynomial.__mul__

    def mul(self, other):
        if isinstance(other, TruncatedPolynomial):
            seen.append(self.nvars)
        return original(self, other)

    monkeypatch.setattr(TruncatedPolynomial, "__mul__", mul)
    for fx in (e3, e5):
        seen.clear()
        report = verify_witten(fx.manifold, fx.w, fx.lam, attributes=fx.attributes)
        assert report.passed
        assert seen and max(seen) <= 4, (fx.manifold.name, max(seen))


def test_verify_computes_each_moment_once(count_calls, e3, e5):
    # The assembly and both coefficient identities read one moment table,
    # each of whose entries streams once: the two level-one moments at
    # delta = c, on e5 the level-zero one at delta = 1, and one r(lam).
    calls = count_calls(witten, "_sum_of_powers")
    count_calls(manifold, "r_and_i")
    for fx, entries in ((e3, 2), (e5, 3)):
        calls.clear()
        report = verify_witten(fx.manifold, fx.w, fx.lam, attributes=fx.attributes)
        assert report.passed
        assert calls["_sum_of_powers"] == entries, (fx.manifold.name, calls)
        assert calls["r_and_i"] == 1, (fx.manifold.name, calls)


def test_verify_tabulates_each_class_once(count_calls, k3, e3, e5):
    # One power table of <c1 - lam, h> per class serves the level-zero walks
    # and every bracket walk of every entry, and the series is assembled
    # once, in one pass over the table's entries.
    calls = count_calls(polyring, "_power_table")
    count_calls(witten, "_assemble_donaldson_series")
    for fx, classes in ((k3, 1), (e3, 2), (e5, 4)):
        calls.clear()
        report = verify_witten(fx.manifold, fx.w, fx.lam, attributes=fx.attributes)
        assert report.passed
        assert len(fx.manifold.support()) == classes
        assert calls["_power_table"] == classes, (fx.manifold.name, calls)
        assert calls["_assemble_donaldson_series"] == 1, (fx.manifold.name, calls)


@pytest.mark.parametrize(
    "name, blow_ups", [("k3", 0), ("e3", 0), ("e5", 0), ("e3", 1), ("e3", 2), ("e5", 1), ("e5", 2)]
)
def test_rows_read_from_entries_match_the_assembled_series(request, name, blow_ups):
    fx = blow_up_fixture(request.getfixturevalue(name), blow_ups)
    X, w, lam = fx.manifold, fx.w, fx.lam
    report = verify_witten(X, w, lam, attributes=fx.attributes)
    assert report.passed
    bound = report.c + 1
    span = witten._span(X, lam)
    moments = witten._moments(
        span, X, w, lam, witten._signed_support(X, w), witten._series_keys(X, bound)
    )
    series = witten._assemble_donaldson_series(span, moments, bound)
    # The series' weighting, written out here once more as its oracle.
    weighted = polyring.zero(span.nvars, bound)
    for (delta, m), moment in moments.items():
        scale = Fraction(1, factorial(delta - 2 * m) * 2**m)
        weighted = weighted + scale * moment.truncate(bound)
    assert series == weighted
    rows = {cid: detail for cid, _, detail in report.checks if cid.startswith("degree.")}
    assert list(rows) == [f"degree.{e}" for e in range(bound + 1)]
    assert report.lhs == series
    for e in range(bound + 1):
        assert rows[f"degree.{e}"] == e
        assert report.lhs.homogeneous_part(e) == series.homogeneous_part(e), (X.name, e)


def test_donaldson_moment_derives_r_and_i_once(count_calls, e3):
    # The public checks derive r(lam) and check w - lam characteristic; the
    # moment table reads that report instead of deriving both again.
    calls = count_calls(manifold, "r_and_i")
    assert not donaldson_moment(e3.manifold, e3.w, e3.lam, 3, 0).is_zero()
    assert calls["r_and_i"] == 1, calls


def test_verify_derives_each_invariant_once(count_calls, k3, e3, e5):
    # w^2, w - lam, r(lam, c1), the degree rule and each class's d_s are
    # derived once per check, and the characteristic condition, simple type
    # and lam's orthogonality to the support are checked by verify_witten
    # only: the moment table reads its r_and_i report as vouching for them.
    # Every square is a pair, so pair counts both.
    calls = count_calls(lattice, "pair", "is_characteristic")
    count_calls(manifold, "degree_parity_ok", "dim_sw")
    for fx, most in ((k3, 8), (e3, 13), (e5, 23)):
        calls.clear()
        report = verify_witten(fx.manifold, fx.w, fx.lam, attributes=fx.attributes)
        assert report.passed
        assert calls["pair"] <= most, (fx.manifold.name, calls)
        assert calls["dim_sw"] == len(fx.manifold.support()), (fx.manifold.name, calls)
        assert calls["is_characteristic"] == 1, (fx.manifold.name, calls)
        assert calls["degree_parity_ok"] == 0, (fx.manifold.name, calls)


def test_degree_residue_matches_the_parity_rule(k3, e3, e5):
    # degree_parity_ok is the oracle of the residue the moment table uses.
    for fx in (k3, e3, e5):
        X = fx.manifold
        for w in (fx.w, fx.w + _basis(0, X.form.rank)):
            residue = witten._degree_residue(X, square(X.form, w))
            for delta in range(-4, 13):
                assert (delta % 4 == residue) == degree_parity_ok(X, w, 2 * delta)


def test_level_zero_moment_needs_lam_orthogonal_to_the_support():
    # lam.c1 = 2 puts the class at r = r(lam), the level-zero formula, whose
    # derivation needs lam orthogonal to the support.
    from monolink.lattice import IntersectionForm
    from monolink.manifold import FourManifoldData, SpincData

    from conftest import hyperbolic_gram

    form = IntersectionForm(hyperbolic_gram(3))
    s = SpincData(CohomologyClass((2, 0, 0, 0, 0, 0)), sw=1)
    X = FourManifoldData("3H", chi=24, sigma=-16, form=form, basic_classes=(s,))
    lam = CohomologyClass((-2, 1, 0, 0, 0, 0))
    assert square(form, lam) == -4 and pair(form, lam, s.c1) == 2
    with pytest.raises(HypothesisViolated, match="not orthogonal"):
        assemble_donaldson_series(X, lam, lam, 3)
    with pytest.raises(HypothesisViolated, match="not orthogonal"):
        sign_change_check(X, lam, lam + 2 * _basis(1, 6), lam)


def test_verify_reduces_each_class_once_and_never_expands(count_calls, e3, e5):
    # One Span serves the whole check: each class of the support and lam is
    # row-reduced once, at construction, and every <c1(s) - lam, h> is a
    # difference of those; a passing check never goes back to the h-basis,
    # so the h-basis factors <v_i, h> and Q(h) are never built.
    from monolink.polyring import Span

    calls = count_calls(Span, "_reduce", "expand")
    count_calls(polyring, "linear_form", "quadratic_form")
    for fx in (e3, e5):
        calls.clear()
        X = fx.manifold
        report = verify_witten(X, fx.w, fx.lam, attributes=fx.attributes)
        assert report.passed
        classes = {s.c1.coords for s in X.support()} | {fx.lam.coords}
        assert calls["_reduce"] <= len(classes), (X.name, calls)
        assert calls["expand"] == calls["linear_form"] == calls["quadratic_form"] == 0, (
            X.name,
            calls,
        )


@pytest.mark.parametrize(
    "n, blow_ups",
    [(n, 0) for n in range(2, 13)] + [(n, 1) for n in range(2, 9)],
    ids=[str(n) for n in range(2, 13)] + [f"{n}-blown-up" for n in range(2, 9)],
)
def test_verify_passes_on_the_honest_elliptic_surface(n, blow_ups):
    fx = blow_up_fixture(elliptic_fixture(n), blow_ups)
    X = fx.manifold
    assert X.b2 == 12 * n - 2 + blow_ups and c_of_X(X) == n + blow_ups
    assert verify_witten(X, fx.w, fx.lam, attributes=fx.attributes).passed


@pytest.mark.parametrize("n, k", [(n, k) for n in range(4, 8) for k in range(n - 1)])
def test_verify_fails_when_one_elliptic_sw_value_is_raised_by_one(n, k):
    fx = elliptic_fixture(n)
    X = fx.manifold
    classes = list(X.basic_classes)
    classes[k] = SpincData(classes[k].c1, classes[k].sw + 1)
    raised = FourManifoldData(X.name, X.chi, X.sigma, X.form, tuple(classes))
    assert not verify_witten(raised, fx.w, fx.lam, attributes=fx.attributes).passed


KNOTS = {"trefoil": TREFOIL, "figure-eight": FIGURE_EIGHT}


@pytest.mark.parametrize("knot", KNOTS)
@pytest.mark.parametrize("n", range(3, 7))
def test_verify_passes_on_knot_surgery(n, knot):
    fx = elliptic_fixture(n, KNOTS[knot])
    X = fx.manifold
    assert len(X.basic_classes) == n + 1  # (t - 1/t)^(n-2) Delta(t^2) spans t^-n .. t^n
    assert verify_witten(X, fx.w, fx.lam, attributes=fx.attributes).passed


@pytest.mark.parametrize("knot", KNOTS)
@pytest.mark.parametrize("n", range(3, 7))
def test_verify_fails_when_one_knot_surgery_sw_value_is_raised_by_one(n, knot):
    fx = elliptic_fixture(n, KNOTS[knot])
    X = fx.manifold
    for k, s in enumerate(X.basic_classes):
        classes = list(X.basic_classes)
        classes[k] = SpincData(s.c1, s.sw + 1)
        raised = FourManifoldData(X.name, X.chi, X.sigma, X.form, tuple(classes))
        assert not verify_witten(raised, fx.w, fx.lam, attributes=fx.attributes).passed, k


def _raised(fx, k):
    """fx with the SW value of its k-th basic class raised by 1."""
    X = fx.manifold
    classes = list(X.basic_classes)
    classes[k] = SpincData(classes[k].c1, classes[k].sw + 1)
    raised = FourManifoldData(X.name, X.chi, X.sigma, X.form, tuple(classes))
    return type(fx)(raised, fx.w, fx.lam, fx.attributes)


VERDICT_CASES = {
    **{name: lambda name=name: load_catalog_fixture(name) for name in ("k3", "e3", "e5")},
    **{f"E({n})": lambda n=n: elliptic_fixture(n) for n in range(2, 13)},
    **{
        f"E({n})_{knot}": lambda n=n, knot=knot: elliptic_fixture(n, KNOTS[knot])
        for n in range(3, 7)
        for knot in KNOTS
    },
    **{f"E({n})#CP2bar": lambda n=n: blow_up_fixture(elliptic_fixture(n), 1) for n in range(2, 9)},
    **{
        f"E({n})+1@{k}": lambda n=n, k=k: _raised(elliptic_fixture(n), k)
        for n in range(4, 8)
        for k in range(n - 1)
    },
}


def _verdicts_from_the_stored_series(X, w, lam, report):
    """Each row's ok, read again part by part: the report's two stored series
    split into degrees and compared with `==` and `is_zero`, the monopole
    series recovered from the right side as 2^(c-2) e^(-Q/2) rhs, and the
    coefficient identities' moments built on their own."""
    c, span, degrees = report.c, report.span, range(report.c + 2)
    lhs, rhs = report.lhs.homogeneous_parts(degrees), report.rhs.homogeneous_parts(degrees)
    qf = span.quadratic(c + 1)
    sw = Fraction(2) ** (c - 2) * ((Fraction(-1, 2) * qf).exp_series() * report.rhs)
    sw_parts = sw.homogeneous_parts(degrees)
    low = all(lhs[e].is_zero() and rhs[e].is_zero() for e in range(c - 2))
    ok = {"congruence.low_degree": low}
    ok.update((f"degree.{e}", lhs[e] == rhs[e]) for e in degrees)
    ok["congruence.witten"] = all(lhs[e] == rhs[e] for e in degrees)
    point = witten._donaldson_moment(X, w, lam, c, 1)[1]
    top = witten._donaldson_moment(X, w, lam, c, 0)[1]
    ok["coefficient.point_class"] = point == (
        Fraction(2) ** (3 - c) * factorial(c - 2) * sw_parts[c - 2]
    )
    ok["coefficient.top"] = top == Fraction(2) ** (2 - c) * factorial(c) * (
        sw_parts[c] + Fraction(1, 2) * (qf * sw_parts[c - 2])
    )
    for d in degrees:
        ok[f"vanishing.d{d}"] = sw_parts[d].is_zero() or not (d < c - 2 or (d - c) % 2 != 0)
    return ok


@pytest.mark.parametrize("name", VERDICT_CASES)
def test_each_verdict_equals_the_per_degree_comparison_of_the_stored_series(name):
    fx = VERDICT_CASES[name]()
    X, w, lam = fx.manifold, fx.w, fx.lam
    report = verify_witten(X, w, lam, attributes=fx.attributes)
    oracle = _verdicts_from_the_stored_series(X, w, lam, report)
    assert [(cid, ok) for cid, ok, _ in report.checks] == list(oracle.items())
    assert report.passed is not ("+1@" in name)
