"""Acceptance suite: every criterion is an exact-equality check (tolerance
zero) with its stated runtime budget, printing one PASS/FAIL line each."""

import io
import time
from fractions import Fraction

from monolink.cli import main
from monolink.combinatorics import triple_sum_sweep
from monolink.lattice import CohomologyClass, square
from monolink.manifold import (
    SpinuData,
    c_of_X,
    dim_sw,
    dims_asd,
    level,
    normal_indices,
    r_and_i,
)
from monolink.pairings import (
    PairingInput,
    blow_up_pairing_closed,
    blow_up_pairing_polarized,
    link_pairing_closed,
    link_pairing_raw,
    segre_inversion_sweep,
)
from monolink.polyring import quadratic_form
from monolink.witten import (
    assemble_donaldson_series,
    sign_change_check,
    sw_vanishing_check,
    verify_witten,
)

from conftest import max_delta
from test_pairings import _grid_inputs


def _report(criterion: str, ok: bool, elapsed: float, budget: float, detail: str):
    status = "PASS" if ok and elapsed < budget else "FAIL"
    print(
        f"ACCEPTANCE {criterion} {status} elapsed={elapsed:.2f}s "
        f"budget={budget:.0f}s {detail}"
    )
    assert ok, f"{criterion}: {detail}"
    assert elapsed < budget, f"{criterion}: took {elapsed:.2f}s (budget {budget}s)"


def test_criterion_1_combinatorial_identity_sweep():
    start = time.monotonic()
    count, mismatches = triple_sum_sweep((-6, 10), 6, 8)
    _report(
        "1.triple-sum-identity",
        mismatches == 0 and count == 103_428,
        time.monotonic() - start,
        10.0,
        f"tuples={count} mismatches={mismatches}",
    )


def test_criterion_2_segre_oracle():
    start = time.monotonic()
    count, mismatches = segre_inversion_sweep()
    _report(
        "2.segre-oracle",
        mismatches == 0 and count == 1_331,
        time.monotonic() - start,
        1.0,
        f"tuples={count} mismatches={mismatches}",
    )


def test_criterion_3_closed_vs_raw_grid(synthetic_setups, k3, e3, e5):
    start = time.monotonic()
    inputs = _grid_inputs(synthetic_setups, k3, e3, e5)
    spans_ds = {dim_sw(inp.X, inp.s) for inp in inputs}
    spans_n = {inp.delta - 2 * inp.m for inp in inputs}
    bad = 0
    for inp in inputs:
        closed = link_pairing_closed(inp)
        raw = link_pairing_raw(inp)
        if closed.polynomial != raw.polynomial or closed.at_h != raw.at_h:
            bad += 1
    ok = (
        bad == 0
        and len(inputs) >= 50
        and spans_ds >= {0, 2, 4, 6, 8, 12}
        and spans_n >= {0, 1, 2, 3}
    )
    _report(
        "3.closed-vs-raw",
        ok,
        time.monotonic() - start,
        10.0,
        f"inputs={len(inputs)} mismatches={bad} d_s={sorted(spans_ds)}",
    )


def test_criterion_4_blow_up_parity(synthetic_setups, k3):
    start = time.monotonic()
    X, t, s = synthetic_setups["ds2"]
    h = CohomologyClass((1, 1, 0, 1, 0, 0))
    top = max_delta(X, t)
    cases = [
        PairingInput(X=X, t_prime=t, s=s, delta=d, m=m, eta=top - d, h=h)
        for d, m in ((2, 0), (3, 0), (4, 0), (4, 1))
    ]
    Xk, sk = k3.manifold, k3.manifold.basic_classes[0]
    tk = SpinuData(c1=k3.lam, p1=-8, w=k3.w)
    cases.append(
        PairingInput(
            X=Xk, t_prime=tk, s=sk, delta=2, m=0, eta=0,
            h=CohomologyClass((1, 1) + (0,) * 20),
        )
    )
    bad = 0
    for inp in cases:
        for k in (0, 1, 2, 3):
            closed = blow_up_pairing_closed(inp, k)
            polarized = blow_up_pairing_polarized(inp, k)
            if closed.polynomial != polarized.polynomial:
                bad += 1
            if k % 2 == 1 and not (
                closed.polynomial.is_zero() and polarized.polynomial.is_zero()
            ):
                bad += 1
    _report(
        "4.blow-up-parity",
        bad == 0,
        time.monotonic() - start,
        5.0,
        f"cases={len(cases)} k=0..3 mismatches={bad}",
    )


def test_criterion_5_k3_end_to_end(k3):
    start = time.monotonic()
    X = k3.manifold
    report = verify_witten(X, k3.w, k3.lam, attributes=k3.attributes)
    from monolink.witten import donaldson_moment

    q = quadratic_form(X.form, 2)
    moment_ok = donaldson_moment(X, k3.w, k3.lam, 2, 0) == q
    point = donaldson_moment(X, k3.w, k3.lam, 2, 1)
    point_ok = point.render() == "2"  # 2^(3-c) * sum = 2 for this fixture
    series = assemble_donaldson_series(X, k3.w, k3.lam, 3)
    gauss = (Fraction(1, 2) * quadratic_form(X.form, 3)).exp_series()
    ok = (
        report.passed
        and report.c == 2
        and report.congruence_low
        and moment_ok
        and point_ok
        and series == gauss
    )
    _report(
        "5.k3-end-to-end",
        ok,
        time.monotonic() - start,
        5.0,
        f"c={report.c} D(h^2)=Q:{moment_ok} D(x)=2:{point_ok} series=exp(Q/2):{series == gauss}",
    )


def test_criterion_6_e3_end_to_end(e3):
    start = time.monotonic()
    X = e3.manifold
    c = c_of_X(X)
    report = verify_witten(X, e3.w, e3.lam, attributes=e3.attributes)
    series = assemble_donaldson_series(X, e3.w, e3.lam, c + 1)
    low_ok = all(series.homogeneous_part(d).is_zero() for d in range(max(c - 2, 0)))
    vanish_ok = True
    for d in range(c + 2):
        if d < 1 or (d - c) % 2 != 0:
            vanish_ok = vanish_ok and sw_vanishing_check(X, e3.w, d)
    ok = report.passed and report.c == 3 and low_ok and vanish_ok
    _report(
        "6.e3-end-to-end",
        ok,
        time.monotonic() - start,
        10.0,
        f"c={report.c} low_degrees_zero={low_ok} vanishing={vanish_ok}",
    )


def test_criterion_7_structural_identities(k3, e3, e5):
    start = time.monotonic()
    failures = []
    shift_index = {"K3": 1, "E(3)": 8, "E(5)": 6}
    for fx in (k3, e3, e5):
        X = fx.manifold
        lam = fx.lam
        info = r_and_i(X, lam, X.basic_classes)
        delta = info.r_min + 4
        p1 = -delta - 3 * (X.chi + X.sigma) // 4
        t_prime = SpinuData(c1=lam, p1=p1, w=fx.w)
        d_a, n_a = dims_asd(X, t_prime)
        if n_a != (info.i_value - delta) // 4:
            failures.append(f"{X.name}: n_a != (i-delta)/4")
        if 1 - n_a - delta != 1 - Fraction(info.i_value, 4) - Fraction(3 * delta, 4):
            failures.append(f"{X.name}: power-of-two exponent identity")
        for s, r_s in zip(X.basic_classes, info.per_class):
            if level(X, t_prime, s) * 4 != delta - r_s:
                failures.append(f"{X.name}: level != (delta - r)/4")
            t_split = SpinuData(c1=lam, p1=square(X.form, s.c1 - lam), w=fx.w)
            da_s, na_s = dims_asd(X, t_split)
            n1, n2 = normal_indices(X, t_split, s)
            if da_s + 2 * na_s != 2 * (n1 + n2) + dim_sw(X, s):
                failures.append(f"{X.name}: dim M_t != 2 n_s + d_s")
        i = shift_index[X.name]
        pairs = [
            fx.w,
            fx.w + 2 * CohomologyClass.basis_vector(i, X.b2),
            fx.w + 2 * CohomologyClass.basis_vector(0, X.b2),
        ]
        for w_prime in pairs:
            if not sign_change_check(X, fx.w, w_prime, lam):
                failures.append(f"{X.name}: sign change vs {w_prime.coords[:4]}")
    _report(
        "7.structural-identities",
        not failures,
        time.monotonic() - start,
        30.0,
        f"failures={failures if failures else 'none'}",
    )


def test_criterion_8_determinism():
    start = time.monotonic()
    outputs = []
    for _ in range(2):
        buf = io.StringIO()
        for argv in (
            ["catalog"],
            ["verify", "k3"],
            ["pairing", "k3", "--delta", "2", "--m", "0", "--oracle", "--blowup-k", "2"],
            ["fuzz-identities", "--a-min", "-3", "--a-max", "3", "--mn-bound", "2",
             "--d-max", "3"],
        ):
            code = main(argv, out=buf)
            buf.write(f"EXIT {code}\n")
        outputs.append(buf.getvalue())
    ok = outputs[0] == outputs[1] and "FAIL" not in outputs[0]
    _report(
        "8.determinism",
        ok,
        time.monotonic() - start,
        30.0,
        f"bytes={len(outputs[0])} identical={outputs[0] == outputs[1]}",
    )
