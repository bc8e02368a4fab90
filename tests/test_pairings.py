import io
from fractions import Fraction
from math import comb
from pathlib import Path

import pytest

from monolink import combinatorics, lattice, manifold, pairings, polyring, witten
from monolink.cli import main
from monolink.combinatorics import JacobiParams, jacobi_at_zero
from monolink.errors import HypothesisViolated, JacobiZeroDivide, MissingMoment, NotDivisible
from monolink.lattice import CohomologyClass, pair, square
from monolink.manifold import (
    SpincData,
    SpinuData,
    c1_squared,
    dim_sw,
    holomorphic_euler,
    level,
    r_and_i,
)
from monolink.pairings import (
    PairingInput,
    SegreInput,
    _bracket_class,
    _bracket_walks,
    b0_coefficient,
    blow_up_pairing_closed,
    blow_up_pairing_polarized,
    instanton_pairing,
    link_pairing_closed,
    link_pairing_raw,
    s_constants,
    segre_coefficient,
    segre_coefficient_by_inversion,
)
from monolink.polyring import (
    Span, TruncatedPolynomial, _power_table, _sum_of_powers, quadratic_form
)

from conftest import eta_for, max_delta

GOLDEN = Path(__file__).parent / "golden" / "pairings_golden.txt"


def test_segre_examples():
    assert segre_coefficient(SegreInput(3, -2, 0)) == 1
    assert segre_coefficient(SegreInput(1, 0, 2)) == 4  # inverse of (1+2mu)
    assert s_constants(0, 1, 1) == -1
    assert s_constants(2, -1, 1) == segre_coefficient(SegreInput(2, -1, 1))


def test_segre_inversion_oracle_sample():
    for n1 in (-3, 0, 2):
        for n2 in (-2, 1, 4):
            for p in range(6):
                assert segre_coefficient_by_inversion(n1, n2, p) == segre_coefficient(
                    SegreInput(n1, n2, p)
                )


def test_segre_inversion_sweep_counts_a_wrong_low_degree(monkeypatch):
    # Entry j = 4 < 10 of the (n', n'') = (-3, 2) row of Segre constants off
    # by one: the sweep reads every degree of its one series per (n', n''),
    # not only the top one.
    real = combinatorics.segre_constants

    def shifted(M, N, js):
        row = real(M, N, js)
        if (M, N) == (3, -2):
            row[4] += 1
        return row

    monkeypatch.setattr(combinatorics, "segre_constants", shifted)
    assert combinatorics.segre_inversion_sweep() == (1331, 1)


def test_segre_oracle_is_an_entry_of_the_sweep_series():
    # The sweep builds one series per (n', n'') at p = 10; the public oracle
    # truncates at its own p, which leaves every lower entry unchanged.
    for n1 in range(-5, 6):
        for n2 in range(-5, 6):
            series = combinatorics._segre_inverse_series(n1, n2, 10)
            assert len(series) == 11
            for p in range(11):
                assert segre_coefficient_by_inversion(n1, n2, p) == series[p], (n1, n2, p)


def test_instanton_pairing_table(k3):
    X = k3.manifold
    s = X.basic_classes[0]
    t = SpinuData(c1=k3.lam, p1=-8, w=k3.w)
    assert instanton_pairing("nu_x", X, t, s).constant_term() == 2
    nu3 = instanton_pairing("nu3", X, t, s)
    assert nu3.constant_term() == 6 * (-4) + 0  # 6(c1(s)-c1(t'))^2 + 2c1^2(X)
    nu2h = instanton_pairing("nu2_h", X, t, s, bound=1)
    h = (1,) + (0,) * 21
    assert nu2h.evaluate(h) == -4 * (-(-2))  # -4<c1(s)-c1(t'), h> = -4 * 2
    nua = instanton_pairing("nu_alpha_h", X, t, s, alpha=t.c1, bound=1)
    assert nua.evaluate(h) == 2 * (-2)
    with pytest.raises(ValueError):
        instanton_pairing("bogus", X, t, s)
    with pytest.raises(ValueError):
        instanton_pairing("nu_alpha_h", X, t, s)


def _fixture_input(fx, delta=2, m=0, h=None):
    """The pairing input of a catalog fixture's first basic class, with t'
    and eta built as `cli._pairing_inputs` builds them."""
    X = fx.manifold
    s = X.basic_classes[0]
    t = SpinuData(c1=fx.lam, p1=square(X.form, s.c1 - fx.lam) - 4, w=fx.w)
    if h is None:
        h = CohomologyClass((1, 1) + (0,) * (X.form.rank - 2))
    return PairingInput(X=X, t_prime=t, s=s, delta=delta, m=m, eta=eta_for(X, t, delta), h=h)


def test_pairing_input_validation(k3):
    X = k3.manifold
    s = X.basic_classes[0]
    t = SpinuData(c1=k3.lam, p1=-8, w=k3.w)
    h = CohomologyClass.zero(22)
    with pytest.raises(HypothesisViolated):
        PairingInput(X=X, t_prime=t, s=s, delta=2, m=2, eta=0, h=h)  # m too big
    with pytest.raises(HypothesisViolated):
        PairingInput(X=X, t_prime=t, s=s, delta=2, m=0, eta=5, h=h)  # bad dims
    t_wrong_level = SpinuData(c1=k3.lam, p1=-4, w=k3.w)
    with pytest.raises(HypothesisViolated):
        PairingInput(X=X, t_prime=t_wrong_level, s=s, delta=2, m=0, eta=0, h=h)


def test_pairing_input_rejects_odd_d_s_as_the_moment_layer_does(monkeypatch, k3):
    # No real input gets here: on a unimodular form a characteristic c1 has
    # c1^2 = sigma (mod 8), so d_s = (c1^2 - 2 chi - 3 sigma)/4 is even.  An odd
    # d_s raises what `witten._level_one_classes`' `_exact_div(d_s, 2, "d_s")`
    # raises; a negative one stays a hypothesis of the pairing.
    inp = _fixture_input(k3)
    fields = {key: getattr(inp, key) for key in ("X", "t_prime", "s", "delta", "m", "eta", "h")}
    with pytest.raises(NotDivisible) as moment_layer:
        manifold._exact_div(3, 2, "d_s")
    monkeypatch.setattr(pairings, "dim_sw", lambda X, s: 3)
    with pytest.raises(NotDivisible) as pairing:
        PairingInput(**fields)
    assert str(pairing.value) == str(moment_layer.value) == "d_s = 3/2 is not an integer"
    monkeypatch.setattr(pairings, "dim_sw", lambda X, s: -2)
    with pytest.raises(HypothesisViolated):
        PairingInput(**fields)


def test_k3_closed_is_minus_quadratic_form(k3):
    inp = _fixture_input(k3)
    out = link_pairing_closed(inp)
    assert out.polynomial == -1 * quadratic_form(k3.manifold.form, 2)
    raw = link_pairing_raw(inp)
    assert raw.polynomial == out.polynomial
    assert raw.at_h == out.at_h


def test_k3_simple_type_bracket_degenerations(k3):
    # d_s = 0 forces P = 1, so b0 collapses to 2(delta-2m).
    inp = _fixture_input(k3)
    assert b0_coefficient(inp) == 4
    inp_m1 = _fixture_input(k3, m=1)
    closed = link_pairing_closed(inp_m1)
    # delta-2m = 0: bracket reduces to a0 alone
    assert closed.polynomial == closed.polynomial.homogeneous_part(0)
    assert link_pairing_raw(inp_m1).polynomial == closed.polynomial


def test_missing_moment_raises(synthetic_setups):
    X, t, s = synthetic_setups["ds2"]
    s_no_moment = SpincData(s.c1, sw=s.sw, moment=None)
    X2 = type(X)(X.name, X.chi, X.sigma, X.form, (s_no_moment,))
    h = CohomologyClass((1, 0, 0, 0, 0, 0))
    inp = PairingInput(
        X=X2, t_prime=t, s=s_no_moment, delta=2, m=0, eta=eta_for(X2, t, 2), h=h
    )
    with pytest.raises(MissingMoment):
        link_pairing_closed(inp)


def _grid_inputs(synthetic_setups, k3, e3, e5):
    """Admissible inputs spanning d_s in {0,2,4,6,8,12} and delta-2m in
    {0,1,2,3}."""
    inputs = []
    h6 = CohomologyClass((1, 1, 1, 1, 0, 0))
    for key in ("ds0", "ds2", "ds4", "ds6", "ds8", "ds12"):
        X, t, s = synthetic_setups[key]
        top = max_delta(X, t)
        for delta in range(0, top + 1):
            for m in range(0, delta // 2 + 1):
                if delta - 2 * m > 3:
                    continue
                inputs.append(
                    PairingInput(
                        X=X, t_prime=t, s=s, delta=delta, m=m,
                        eta=top - delta, h=h6,
                    )
                )
    for fx, hvec in (
        (k3, (1, 1) + (0,) * 20),
        (e3, (1, 1) + (0,) * 31 + (1,)),
        (e5, (1, 1) + (0,) * 11 + (1,)),
    ):
        X = fx.manifold
        for s in X.basic_classes:
            p1 = square(X.form, s.c1 - fx.lam) - 4
            t = SpinuData(c1=fx.lam, p1=p1, w=fx.w)
            top = max_delta(X, t)
            for delta in range(0, top + 1):
                for m in range(0, delta // 2 + 1):
                    if delta - 2 * m > 3:
                        continue
                    inputs.append(
                        PairingInput(
                            X=X, t_prime=t, s=s, delta=delta, m=m,
                            eta=top - delta, h=CohomologyClass(hvec),
                        )
                    )
    return inputs


def test_closed_equals_raw_on_grid(synthetic_setups, k3, e3, e5):
    inputs = _grid_inputs(synthetic_setups, k3, e3, e5)
    assert len(inputs) >= 50
    spanned_ds = {dim_sw(inp.X, inp.s) for inp in inputs}
    spanned_n = {inp.delta - 2 * inp.m for inp in inputs}
    assert spanned_ds >= {0, 2, 4, 6, 8, 12}
    assert spanned_n >= {0, 1, 2, 3}
    for inp in inputs:
        closed = link_pairing_closed(inp)
        raw = link_pairing_raw(inp)
        assert closed.polynomial == raw.polynomial, (
            inp.X.name, inp.delta, inp.m
        )
        assert closed.at_h == raw.at_h


def test_raw_oracle_is_independent(count_calls, synthetic_setups, k3, e3, e5):
    # The nested-sum oracle shares none of the closed route's machinery: no
    # bracket walks or classes, no Jacobi value and no Span.  It may use
    # comb, powers and _sum_of_powers, as any ring computation does.
    inputs = _grid_inputs(synthetic_setups, k3, e3, e5)
    calls = count_calls(pairings, "_bracket_walks", "_bracket_class", "_bracket_closed")
    count_calls(combinatorics, "jacobi_at_zero", "_pow2_jacobi_at_zero")
    count_calls(Span, "__init__")
    for inp in inputs:
        link_pairing_raw(inp)
    assert not calls, calls


def _bracket_reference(X, span, c1, t, n, m, k, jac):
    """The three-term bracket sum with <beta,h>^deg, ^(deg-1) and ^(deg-2),
    multiplied out with ring products."""
    beta = c1 - t
    P, P1 = jacobi_at_zero(jac), jacobi_at_zero(JacobiParams(jac.a - 1, jac.b + 1, jac.d))
    deg = n - k
    bf = span.linear(c1, deg) - span.linear(t, deg)
    a0 = 3 * square(X.form, beta) + c1_squared(X) + 4 * (n - m - comb(k + 1, 2))
    value = (a0 * P + 2 * pair(X.form, beta, t) * P1) * bf**deg
    if deg >= 1:
        value += (2 * deg * P1) * (bf ** (deg - 1) * span.linear(t, deg))
    if deg >= 2:
        value += (4 * comb(deg, 2) * P) * (bf ** (deg - 2) * span.quadratic(deg))
    return value


def _streamed_bracket(X, span, c1, t, n, m, k, jac):
    """The bracket as the closed routes build it: one `_sum_of_powers` over
    `_bracket_walks` for beta = c1 - t, of bound n - k, divided by 2^d to
    turn the walks' p = 2^d P units into the reference's P units."""
    beta = c1 - t
    bf = _power_table(span.linear(c1, 1, t), n - k)
    cls = _bracket_class(
        bf, square(X.form, beta), pair(X.form, beta, t), jac.a, jac.b, jac.d
    )
    forms = None, span.linear(t, 2), span.quadratic(2)
    walks = _bracket_walks(cls, forms, c1_squared(X), n, m, k, 1, 1 << jac.d)
    return _sum_of_powers(span.nvars, n - k, walks)


def _bracket_grid(X, span, c1, t, jac):
    return {
        (n, m, k): _bracket_reference(X, span, c1, t, n, m, k, jac)
        for n in range(7)
        for m in range(2)
        for k in range(min(n, 2) + 1)
    }


def test_level_one_bracket_powers_beta_once(count_calls, synthetic_setups):
    # The bracket generates each of its powers <beta,h>^deg, ^(deg-1) and
    # ^(deg-2) once, as a walk shifted by the terms of <t,h> and Q(h), so it
    # multiplies no two polynomials; its value is the three-term sum.
    X, t_prime, s = synthetic_setups["ds2"]
    c1, t = s.c1, t_prime.c1
    span = Span(X.form, (c1, t))
    jac = JacobiParams(2, -3, 1)
    assert jacobi_at_zero(jac) and jacobi_at_zero(JacobiParams(1, -2, 1))
    expected = _bracket_grid(X, span, c1, t, jac)
    calls = count_calls(TruncatedPolynomial, "__mul__", "__pow__")
    for (n, m, k), value in expected.items():
        calls.clear()
        assert _streamed_bracket(X, span, c1, t, n, m, k, jac) == value
        assert calls["__mul__"] == calls["__pow__"] == 0, (n, m, k, calls)


def test_level_one_bracket_carries_span_denominators():
    # The catalog's spans have k < rank and t a basis class, so Q(h) = u*v
    # and <t,h> = x_t.  Here the streamed bracket must carry denominators:
    # on 2H the span of v1, v2 is not full rank and (v1 + v2)/2 has
    # coordinates (1/2, 1/2), as t or as c1.  On H the span is full rank,
    # its variables are h itself and every form has den 1.
    from monolink.lattice import IntersectionForm
    from monolink.manifold import FourManifoldData

    from conftest import hyperbolic_gram

    jac = JacobiParams(2, -3, 1)
    for rank in (2, 4):
        form = IntersectionForm(hyperbolic_gram(rank // 2))
        X = FourManifoldData(f"{rank // 2}H", chi=4, sigma=0, form=form)
        v1 = CohomologyClass((1, 1) + (0,) * (rank - 2))
        v2 = CohomologyClass((1, -1) + (0,) * (rank - 2))
        half = CohomologyClass((1, 0) + (0,) * (rank - 2))  # (v1 + v2)/2
        span = Span(form, (v1, v2, half))
        assert span.basis == [v1, v2] and span.full_rank == (rank == 2)
        assert span.linear(half, 1).den == (1 if rank == 2 else 2)
        assert span.quadratic(2).den == 1
        for c1, t in ((v1, half), (half, v2), (v1, v2)):
            for (n, m, k), value in _bracket_grid(X, span, c1, t, jac).items():
                assert _streamed_bracket(X, span, c1, t, n, m, k, jac) == value, (
                    rank, c1.coords, t.coords, n, m, k
                )


def test_pairing_input_derives_level_one_data_once(count_calls):
    # The input is checked when it is built; the closed, raw, blown-up and
    # polarized routes only read its d, Jacobi triple and normal indices.
    calls = count_calls(manifold, "normal_indices", "dims_asd", "dim_sw")
    count_calls(lattice, "pair")
    argv = ["pairing", "k3", "--delta", "2", "--m", "0", "--oracle", "--blowup-k", "2"]
    assert main(argv, out=io.StringIO()) == 0
    assert calls["normal_indices"] == 1
    assert calls["dims_asd"] <= 2
    assert calls["dim_sw"] <= 4
    assert calls["pair"] <= 31


def test_stored_jacobi_triple_matches_the_moment_layer(monkeypatch, k3, e3, e5):
    # At delta = r(lam)+4 and t' = (lam, -delta - 3 chi_h, w) a level-one
    # class's pairing input stores (n_a - d, -d - chi_h, d), n_a =
    # (i(lam) - delta)/4: the triple the Donaldson moment derives for that
    # class's bracket, which it tells apart by the power table of <c1 - lam,
    # h> it walks.
    seen = []

    def frozen(table):
        den, items = table
        return den, tuple((d, tuple(steps)) for d, steps in items)

    bracket_class = witten._bracket_class

    def spy(bf, beta2, beta_t, a, b, d):
        seen.append((bf, JacobiParams(a, b, d)))
        return bracket_class(bf, beta2, beta_t, a, b, d)

    monkeypatch.setattr(witten, "_bracket_class", spy)
    for fx in (k3, e3, e5):
        X = fx.manifold
        info = r_and_i(X, fx.lam, X.basic_classes)
        delta, chi_h = info.r_min + 4, holomorphic_euler(X)
        n_a = (info.i_value - delta) // 4
        t = SpinuData(c1=fx.lam, p1=-delta - 3 * chi_h, w=fx.w)
        level_one = [s for s in X.support() if level(X, t, s) == 1]
        assert level_one
        span = witten._span(X, fx.lam)
        for m in range(delta // 2 + 1):
            c1_of = {
                frozen(_power_table(span.linear(s.c1, 1, fx.lam), delta - 2 * m)): s.c1
                for s in X.support()
            }
            seen.clear()
            witten.donaldson_moment(X, fx.w, fx.lam, delta, m)
            by_c1 = {c1_of[frozen(bf)]: jac for bf, jac in seen}
            assert len(by_c1) == len(seen)
            assert set(by_c1) == {s.c1 for s in level_one}
            for s in level_one:
                inp = PairingInput(
                    X=X, t_prime=t, s=s, delta=delta, m=m,
                    eta=eta_for(X, t, delta), h=fx.lam,
                )
                d = inp.d
                assert inp.jacobi == JacobiParams(n_a - d, -d - chi_h, d)
                assert by_c1[s.c1] == inp.jacobi


def test_pairing_homogeneity_and_sign_law(synthetic_setups):
    X, t, s = synthetic_setups["ds2"]
    h = CohomologyClass((1, 2, 0, 1, 0, 0))
    top = max_delta(X, t)
    for delta in range(2, top + 1):
        out = link_pairing_closed(
            PairingInput(X=X, t_prime=t, s=s, delta=delta, m=0, eta=top - delta, h=h)
        )
        n = delta
        for expo in out.polynomial.terms:
            assert sum(expo) == n
        # scaling h by a rational scales the value by lambda^n
        lam_scale = Fraction(3, 2)
        scaled = out.polynomial.evaluate([lam_scale * c for c in h.coords])
        assert scaled == lam_scale**n * out.at_h


def test_jacobi_zero_divide_reserved_for_ratio_queries():
    # Engineered so the common Jacobi value vanishes: n' = 2, n'' = 3,
    # delta = 9, eta = 0, d = 2 give (a, b) = (-1, 1) and P^{-1,1}_2(0) = 0.
    # The ratio query raises; both pairing routes stay finite and agree.
    from conftest import make_level_one_setup

    X, t, s = make_level_one_setup(
        name="jacobi-zero",
        c1_coords=(2, 0, 2, 4, 0, 0),
        lam_coords=(1, 10, 0, 0, 0, 0),
        chi=12,
        sigma=-8,
        moment=2,
    )
    h = CohomologyClass((1, 1, 1, 0, 0, 0))
    inp = PairingInput(X=X, t_prime=t, s=s, delta=9, m=3, eta=0, h=h)
    with pytest.raises(JacobiZeroDivide):
        b0_coefficient(inp)
    closed = link_pairing_closed(inp)
    raw = link_pairing_raw(inp)
    assert closed.polynomial == raw.polynomial
    assert not closed.polynomial.is_zero()


# (setup, delta, m) of the blow-up checks; delta None is the synthetic
# setup's largest admissible delta (eta = 0).
BLOW_UP_GRID = (
    ("ds0", None, 0),
    ("ds2", 2, 0),
    ("ds2", 3, 0),
    ("ds2", 4, 0),
    ("ds2", 4, 1),
    ("ds4", None, 0),
    ("k3", 2, 0),
    ("k3", 2, 1),
    ("e3", 3, 1),
    ("e5", 4, 0),
    ("e5", 5, 2),
)


@pytest.fixture
def blow_up_inputs(synthetic_setups, k3, e3, e5):
    catalog = {"k3": k3, "e3": e3, "e5": e5}
    h6 = CohomologyClass((1, 1, 0, 1, 0, 0))
    inputs = []
    for key, delta, m in BLOW_UP_GRID:
        if key in catalog:
            inputs.append(_fixture_input(catalog[key], delta=delta, m=m))
            continue
        X, t, s = synthetic_setups[key]
        top = max_delta(X, t)
        delta = top if delta is None else delta
        inputs.append(PairingInput(X=X, t_prime=t, s=s, delta=delta, m=m, eta=top - delta, h=h6))
    return inputs


def test_blow_up_parity_and_polarization(blow_up_inputs):
    for inp in blow_up_inputs:
        for k in (0, 1, 2, 3, 4):
            closed = blow_up_pairing_closed(inp, k)
            polarized = blow_up_pairing_polarized(inp, k)
            label = (inp.X.name, inp.delta, inp.m, k)
            assert closed.polynomial == polarized.polynomial, label
            assert closed.at_h == polarized.at_h, label
            if k % 2 == 1:
                assert closed.polynomial.is_zero()
                assert polarized.polynomial.is_zero()
            elif k == 0:
                assert not polarized.polynomial.is_zero(), label


def test_blow_up_oracle_is_independent(count_calls, blow_up_inputs):
    # The polarization oracle shares none of the closed route's machinery:
    # no bracket walks or Jacobi integers, no Span, no composition walk or
    # polynomial power, and no binomial coefficient counting the slots.
    calls = count_calls(pairings, "_bracket_walks", "_bracket_class", "comb")
    count_calls(combinatorics, "_pow2_jacobi_at_zero")
    count_calls(polyring, "_sum_of_powers")
    count_calls(TruncatedPolynomial, "__pow__")
    count_calls(Span, "__init__")
    for inp in blow_up_inputs:
        for k in (0, 1, 2, 3, 4):
            blow_up_pairing_polarized(inp, k)
    assert not calls, calls


def test_closed_routes_scale_no_polynomial(count_calls, synthetic_setups, k3):
    # Both closed routes fold the sign, the power of 2, the moment and the
    # orientation sign into the bracket's walks, so neither makes a scalar
    # pass over a polynomial; they walk in the h-basis, so they build no
    # Span and multiply no two polynomials.
    X, t, s = synthetic_setups["ds2"]
    h6 = CohomologyClass((1, 1, 0, 1, 0, 0))
    top = max_delta(X, t)
    cases = [_fixture_input(k3, delta=2, m=0), _fixture_input(k3, delta=2, m=1)] + [
        PairingInput(X=X, t_prime=t, s=s, delta=delta, m=0, eta=top - delta, h=h6)
        for delta in (2, 3, 4)
    ]
    calls = count_calls(TruncatedPolynomial, "__rmul__", "__mul__")
    count_calls(Span, "__init__")
    for inp in cases:
        calls.clear()
        assert not link_pairing_closed(inp).polynomial.is_zero()
        for k in (0, 2, 4):
            blow_up_pairing_closed(inp, k)
        assert not calls, (inp.X.name, inp.delta, inp.m, calls)


def test_blow_up_reduces_to_base_at_k_zero(k3):
    inp = _fixture_input(k3, delta=2, m=0)
    base = link_pairing_closed(inp)
    blown = blow_up_pairing_closed(inp, 0)
    # orientation sign for this fixture is +1, and the K3 moment equals sw
    assert blown.polynomial == base.polynomial


def golden_lines(k3, e3) -> list[str]:
    """The lines of `golden/pairings_golden.txt`: every fixture pairing of k3
    and e3, each checked closed against raw.  Run this file as a script to
    print them."""
    lines = []
    h22 = CohomologyClass((1,) * 22)
    h34 = CohomologyClass((1,) * 34)
    for label, fx, hvec in (("k3", k3, h22), ("e3", e3, h34)):
        X = fx.manifold
        for si, s in enumerate(X.basic_classes):
            p1 = square(X.form, s.c1 - fx.lam) - 4
            t = SpinuData(c1=fx.lam, p1=p1, w=fx.w)
            top = max_delta(X, t)
            for delta in range(0, top + 1):
                for m in range(0, delta // 2 + 1):
                    inp = PairingInput(
                        X=X, t_prime=t, s=s, delta=delta, m=m,
                        eta=top - delta, h=hvec,
                    )
                    closed = link_pairing_closed(inp)
                    raw = link_pairing_raw(inp)
                    assert closed.polynomial == raw.polynomial
                    lines.append(
                        f"{label} s{si} delta={delta} m={m} eta={top - delta} "
                        f"value={closed.at_h} digest={closed.polynomial.digest()}"
                    )
    return lines


def test_golden_pairing_values(k3, e3):
    expected = GOLDEN.read_text(encoding="utf-8")  # a missing golden fails
    assert expected == "\n".join(golden_lines(k3, e3)) + "\n"


if __name__ == "__main__":
    from monolink.cli import load_catalog_fixture

    k3, e3 = load_catalog_fixture("k3"), load_catalog_fixture("e3")
    print("\n".join(golden_lines(k3, e3)))
