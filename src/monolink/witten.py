"""Series aggregation and the low-degree conjecture verifier.

Builds the two formal series from basic-class data, computes invariant
moments through the level-one range, and compares them degree by degree:
both must vanish below degree c-2 and agree through degree c+1, where
c = -(7 chi + 11 sigma)/4.  All comparisons are exact rational equalities.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterator, Mapping, Optional

from ._value import Value
from .combinatorics import _pow2_jacobi_at_zero
from .errors import (
    BoundTooHigh,
    HypothesisViolated,
    InputError,
    NotCongruent,
)
from .lattice import CohomologyClass, is_characteristic, pair, square
from .manifold import (
    FourManifoldData,
    RAndIReport,
    _exact_div,
    c1_squared,
    c_of_X,
    dim_sw,
    holomorphic_euler,
    r_and_i,
    require_odd_b_plus,
)
from . import polyring
from .pairings import _bracket_class, _bracket_walks
from .polyring import Span, TruncatedPolynomial, _digest, _power_table, _sum_of_powers, linear_form


def _sign_pow(exponent: int) -> int:
    return -1 if exponent % 2 else 1


def _times_pow2(num: int, e: int):
    """num * 2^e: an int, or one Fraction when e < 0."""
    return num << e if e >= 0 else Fraction(num, 1 << -e)


def _degree_residue(X: FourManifoldData, w2: int) -> int:
    """delta mod 4 at which 2 delta = -2 w^2 - (3/2)(chi+sigma) (mod 8)."""
    return (-w2 - 3 * holomorphic_euler(X)) % 4


def _signed_support(X: FourManifoldData, w: CohomologyClass) -> tuple[int, list]:
    """(w^2, [(s, (-1)^((w^2 + c1(s).w)/2) SW(s)) for every s with SW(s) != 0])."""
    w2 = square(X.form, w)
    return w2, [
        (s, _sign_pow(_exact_div(w2 + pair(X.form, s.c1, w), 2, "w^2 + c1.w")) * s.sw)
        for s in X.support()
    ]


def _require_orthogonal(X: FourManifoldData, lam: CohomologyClass) -> None:
    for s in X.support():
        if pair(X.form, lam, s.c1) != 0:
            raise HypothesisViolated(f"lam is not orthogonal to basic class {s.c1.coords}")


def _span(X: FourManifoldData, lam: Optional[CohomologyClass] = None) -> Span:
    """The span of the basic classes with nonzero invariant and `lam`, their
    forms named <c1(s<i>),h> by their place i in X.basic_classes and <lam,h>."""
    named = [(s.c1, f"<c1(s{i}),h>") for i, s in enumerate(X.basic_classes) if s.sw]
    if lam is not None:
        named.append((lam, "<lam,h>"))
    return Span(X.form, [cls for cls, _ in named], [name for _, name in named])


def _sw_series(span: Span, signed: list, bound: int) -> TruncatedPolynomial:
    out = polyring.zero(span.nvars, bound)
    for s, signed_sw in signed:
        out = out + signed_sw * span.linear(s.c1, bound).exp_series()
    return out


def sw_series(X: FourManifoldData, w: CohomologyClass, bound: int) -> TruncatedPolynomial:
    """sum_s (-1)^((w^2 + c1(s).w)/2) SW(s) exp(<c1(s), h>), truncated."""
    span = _span(X)
    return span.expand(_sw_series(span, _signed_support(X, w)[1], bound))


def sw_vanishing_check(X: FourManifoldData, v: CohomologyClass, d: int) -> bool:
    """True iff sum_s (-1)^((v^2+v.c1)/2) SW(s) <c1(s), h>^d is the zero
    polynomial.

    The vanishing law holds for v characteristic (or congruent
    to characteristic mod the invariant's support annihilator) when
    d < c(X)-2 or d has the wrong parity; this returns the actual truth so
    fixtures violating those hypotheses are detectable.  verify_witten
    reads the same sums off the degree-d parts of sw_series; this direct
    power sum is their oracle.
    """
    total = polyring.zero(X.form.rank, d)
    for s, signed_sw in _signed_support(X, v)[1]:
        total = total + signed_sw * linear_form(s.c1, X.form, d) ** d
    return total.is_zero()


def _donaldson_moment(
    X: FourManifoldData, w: CohomologyClass, lam: CohomologyClass, delta: int, m: int
) -> tuple[Span, TruncatedPolynomial]:
    """(span, D(h^(delta-2m) x^m) in the span's variables): see donaldson_moment."""
    span = _span(X, lam)
    if delta < 0 or m < 0 or 2 * m > delta:
        raise HypothesisViolated("need 0 <= 2m <= delta")
    if not is_characteristic(X.form, w - lam):
        raise HypothesisViolated("w - lam is not characteristic")
    signed = _signed_support(X, w)
    if delta % 4 != _degree_residue(X, signed[0]):
        return span, polyring.zero(span.nvars, delta - 2 * m)
    info = r_and_i(X, lam, X.support())
    if delta != info.r_min + 4:
        raise HypothesisViolated(
            f"delta = {delta} but the level-one formula needs r(lam)+4 = {info.r_min + 4}"
        )
    return span, _moments(span, X, w, lam, signed, [(delta, m)], info)[delta, m]


def donaldson_moment(
    X: FourManifoldData,
    w: CohomologyClass,
    lam: CohomologyClass,
    delta: int,
    m: int,
) -> TruncatedPolynomial:
    """Invariant of h^(delta-2m) x^m at the level-one degree delta = r(lam)+4.

    Zero when the mod-8 degree rule fails.  Splits the basic classes by
    r(lam, c1): classes at r = delta contribute through the top-level
    coefficient, classes at r = delta-4 through the three-term bracket;
    other classes bound no stratum and contribute nothing.
    """
    span, moment = _donaldson_moment(X, w, lam, delta, m)
    return span.expand(moment)


def moment_text(
    X: FourManifoldData, w: CohomologyClass, lam: CohomologyClass, delta: int, m: int
) -> str:
    """donaldson_moment(X, w, lam, delta, m) as text, within the row cap of
    `_render_row`: in full in the h-basis, or in span coordinates."""
    span, moment = _donaldson_moment(X, w, lam, delta, m)
    return _render_row(span, [moment], brief=False)[0]


def _level_one_classes(
    X: FourManifoldData, w2: int, info: RAndIReport, classes: list, delta: int
) -> tuple[int, int, list]:
    """Checks the level-one formula's hypotheses at delta and returns (n_a,
    (sigma - w^2)/2, [(r_s, num, table, data)] over the classes there), n_a =
    (i(lam) - delta)/4, table from `classes`, num = (-1)^((w^2 + c1.(w-lam))/2
    + d) SW(s), d = d_s/2, data the `_BracketClass` (r_s = delta-4) or 2^d
    P^(a-1,b)_d(0) (r_s = delta), a = n_a - d, b = -d - chi_h.  A moment table
    derives it once, with no pairing: beta = c1 - lam has beta^2 = -r_s -
    3 chi_h, c1^2 = 4 d_s + c1^2(X), and `info` (r_and_i) gives r_s and lam^2."""
    if delta >= info.i_value:
        raise HypothesisViolated(
            f"delta = {delta} must stay below i(lam) = {info.i_value}"
        )
    n_a = _exact_div(info.i_value - delta, 4, "i(lam) - delta")
    half, chi_h = _exact_div(X.sigma - w2, 2, "sigma - w^2"), holomorphic_euler(X)
    lam2 = info.i_value - c_of_X(X) - X.chi - X.sigma
    out = []
    for (s, signed_sw, bf), r_s in zip(classes, info.per_class):
        if r_s not in (delta, delta - 4):
            continue
        d_s = dim_sw(X, s)
        d, beta2 = _exact_div(d_s, 2, "d_s"), -r_s - 3 * chi_h
        c1_lam = _exact_div(4 * d_s + c1_squared(X) + lam2 - beta2, 2, "2 c1.lam")
        # signed_sw carries (-1)^((w^2 + c1.w)/2), and c1.w - c1.lam = c1.(w-lam).
        num = _sign_pow(_exact_div(c1_lam, 2, "c1.lam") + d) * signed_sw
        a, b = n_a - d, -d - chi_h
        if r_s == delta:
            data = _pow2_jacobi_at_zero(a - 1, b, d)
        else:
            data = _bracket_class(bf, beta2, c1_lam - lam2, a, b, d)
        out.append((r_s, num, bf, data))
    return n_a, half, out


def _series_keys(X: FourManifoldData, bound: int) -> list[tuple[int, int]]:
    """The moments (delta, m) of D(h^e) and D(h^e x), e = 0..bound, in that
    order; BoundTooHigh above c(X)+1, the level-one range, InputError below 0."""
    c = c_of_X(X)
    if bound > c + 1:
        raise BoundTooHigh(
            f"bound {bound} exceeds c(X)+1 = {c + 1}, the level-one range"
        )
    if bound < 0:
        raise InputError("bound must be non-negative")
    return [key for e in range(bound + 1) for key in ((e, 0), (e + 2, 1))]


def _moments(
    span: Span,
    X: FourManifoldData,
    w: CohomologyClass,
    lam: CohomologyClass,
    signed: tuple[int, list],
    keys: list[tuple[int, int]],
    checked: Optional[RAndIReport] = None,
) -> dict[tuple[int, int], TruncatedPolynomial]:
    """{(delta, m): D(h^(delta-2m) x^m)} over `keys`, with `signed` =
    _signed_support(X, w).  `checked` is r_and_i(X, lam, X.support()) from
    a caller that has already checked the hypotheses of every level its keys
    reach: w - lam characteristic (level one), simple type and lam
    orthogonal to the support (level zero).

    Only the moments the degree rule allows at or above r(lam) are entries;
    every other one is zero.  delta = r(lam) takes the level-zero formula
    2^(2-c) (-1)^(m+1) sum_s (signed SW(s)) <c1-lam, h>^(delta-2m) (simple
    type, lam orthogonal to the support), delta = r(lam)+4 the level-one one,
    and any higher delta raises BoundTooHigh.  Derives w - lam, r(lam), the
    degree rule, each class's <c1 - lam, h> and each level's data and
    hypotheses once per table, visiting the keys in order, so the first
    error raised does not depend on how the table is read.  Every class of
    an entry streams into its one polynomial, from the class's one power
    table of <c1 - lam, h>, built to the keys' largest n.
    """
    info = checked or r_and_i(X, lam, X.support())
    w2, signed = signed
    residue = _degree_residue(X, w2)
    top = max([delta - 2 * m for delta, m in keys], default=0)
    classes = [(s, sw, _power_table(span.linear(s.c1, 1, lam), top)) for s, sw in signed]
    level_zero, level_one, table = None, None, {}
    for delta, m in keys:
        if delta < info.r_min or delta % 4 != residue:
            continue
        if delta == info.r_min:
            if level_zero is None:
                if not checked:
                    if not X.is_simple_type():
                        raise HypothesisViolated("top-level moment formula needs simple type")
                    _require_orthogonal(X, lam)
                # Each class walks signed SW(s) <c1 - lam, h>^n, as a top class does.
                level_zero = [(delta, signed_sw, bf, 1) for _, signed_sw, bf in classes]
            entry, scale = level_zero, _times_pow2(_sign_pow(m + 1), 2 - c_of_X(X))
        elif delta == info.r_min + 4:
            if level_one is None:
                if not (checked or is_characteristic(X.form, w - lam)):
                    raise HypothesisViolated("w - lam is not characteristic")
                n_a, half, level_one = _level_one_classes(X, w2, info, classes, delta)
                forms = None, span.linear(lam, 2), span.quadratic(2)
            # Each class carries the prefactor 2^(1 - i(lam)/4 - 3 delta/4)
            # (-1)^(m + (sigma - w^2)/2), with i(lam)/4 + 3 delta/4 = n_a + delta,
            # times (-1)^eps (-2)^d SW(s), (-1)^d in num and 2^d in p = 2^d P.
            entry = level_one
            scale = _times_pow2(_sign_pow(m + half), 1 - n_a - delta)
        else:
            raise BoundTooHigh(
                f"moment at delta = {delta} needs level-{(delta - info.r_min + 3) // 4} "
                "data; only levels zero and one are computable"
            )
        n, den, walks = delta - 2 * m, scale.denominator, []
        for r_s, num, bf, data in entry:
            num *= scale.numerator
            if r_s == delta:
                walks.append((bf, n, None, num * data, den))
            else:
                walks += _bracket_walks(data, forms, c1_squared(X), n, m, 0, num, den)
        table[delta, m] = _sum_of_powers(span.nvars, n, walks)
    return table


def _assemble_donaldson_series(
    span: Span, moments: Mapping[tuple[int, int], TruncatedPolynomial], bound: int
) -> TruncatedPolynomial:
    """The series through degree `bound`, the sum of D(h^n x^m)/(n! 2^m) over
    a table's entries (n + 2m, m), from `_series_keys(X, bound)`, in one pass
    over their terms into one dict over the lcm of the entries' dens."""
    dens = [
        moment.den * math.factorial(delta - 2 * m) << m for (delta, m), moment in moments.items()
    ]
    den, out = math.lcm(*dens), {}
    get = out.get
    for moment, entry_den in zip(moments.values(), dens):
        scale = den // entry_den
        for expo, c in moment.terms.items():
            out[expo] = get(expo, 0) + c * scale
    return TruncatedPolynomial._fast(span.nvars, bound, {e: c for e, c in out.items() if c}, den)


def assemble_donaldson_series(
    X: FourManifoldData,
    w: CohomologyClass,
    lam: CohomologyClass,
    bound: int,
) -> TruncatedPolynomial:
    """Series with degree-e part D(h^e)/e! + D(h^e x)/(2 e!), e <= bound.

    Raises BoundTooHigh when bound exceeds c(X)+1: those coefficients need
    strata beyond level one and a silent zero would be unjustified.
    """
    span = _span(X, lam)
    moments = _moments(span, X, w, lam, _signed_support(X, w), _series_keys(X, bound))
    return span.expand(_assemble_donaldson_series(span, moments, bound))


# The most h-basis terms a printed row's bound may reach; above it the row
# prints in span coordinates.  The smallest power of ten above the bound of
# every row that the catalog and the golden files print (at most 66,045,
# degree 4 of E(3) with one sign broken; 8,568 for a passing catalog
# verify), so their text stays as it was, while one side of 95,284 terms,
# just under it, renders in about 0.2 s on a 2-vCPU host.
EXPAND_CAP = 100_000


def _render_row(span: Span, parts: list, brief: bool) -> list[str]:
    """The texts of a row's `parts`, polynomials in the span's variables: in
    the h-basis by `span.render_expanded` while `span.expand_bound(parts)`
    is at most EXPAND_CAP (`brief`: a part of more than six terms as
    `<N terms; digest D>`), else exactly in span coordinates by
    `span.render`, expanding nothing."""
    if span.expand_bound(parts) > EXPAND_CAP:
        return [span.render(p) for p in parts]
    texts = []
    for p in parts:
        n, text = span.render_expanded(p)
        texts.append(f"<{n} terms; digest {_digest(text)}>" if brief and n > 6 else text)
    return texts


class WittenReport(Value):
    """Structured outcome of a full series comparison on one manifold.

    `lhs` is the Donaldson series and `rhs` 2^(2-c) e^(Q/2) SW, both through
    degree c+1 in the reduced ring of `span`.  `checks` holds the (check id,
    ok, detail) triples in print order.  `verify_witten` decides every ok
    in one pass over the two series (the degrees at which lhs - rhs has
    terms, and SW has), so no per-degree polynomial exists: a degree row's
    detail is its degree e, every other detail its final text.  Rows
    become text only in `check_lines`, as they are printed."""

    c: int
    span: Span
    lhs: TruncatedPolynomial
    rhs: TruncatedPolynomial
    checks: tuple[tuple[str, bool, object], ...]

    @property
    def passed(self) -> bool:
        return all(ok for _, ok, _ in self.checks)

    def check_lines(self) -> Iterator[tuple[str, bool, str]]:
        """Yield the (check id, ok, detail) triples in print order.

        The one place a row becomes text: each stored series is split into
        its degrees once, and degree e's row is `lhs=<A> rhs=<B>`, an equal
        row's side rendered once.  Its h-basis size is bounded first,
        expanding nothing: the number of degree-e monomials in the h_j that
        occur in <v_i, h> or Q(h) over the span's factors its terms use.
        Up to EXPAND_CAP (100,000) each side is written in the h-basis, in
        full up to six terms, else as `<N terms; digest D>` with D the
        first 12 hex digits of the sha256 of its text.  Above the cap each
        side is written exactly in span coordinates, as in
        `lhs=1/54*<c1(s0),h>^3*Q + 1/486*<c1(s0),h>^5`: <c1(s<i>),h> is the
        form of basic class i of the fixture, <lam,h> that of lam and Q is
        Q(h), so the text's length depends on the span, not the rank."""
        degrees = range(self.c + 2)
        lhs, rhs = self.lhs.homogeneous_parts(degrees), self.rhs.homogeneous_parts(degrees)
        for check_id, ok, detail in self.checks:
            if check_id.startswith("degree."):
                sides = [lhs[detail]] if ok else [lhs[detail], rhs[detail]]
                texts = _render_row(self.span, sides, brief=True)
                detail = f"lhs={texts[0]} rhs={texts[-1]}"
            yield check_id, ok, detail


def verify_witten(
    X: FourManifoldData,
    w: CohomologyClass,
    lam: CohomologyClass,
    attributes: Optional[Mapping[str, bool]] = None,
) -> WittenReport:
    """Full low-degree comparison of the two series on one manifold.

    Checks the hypotheses by name, assembles the invariant series through
    degree c+1 in one pass over the moment table, builds 2^(2-c) e^(Q/2)
    times the monopole series, and decides every degree, congruence and
    vanishing row from the degrees of the terms of their difference and of
    the monopole series; the two named coefficient identities at degrees
    c-2 and c compare table entries with two parts of the monopole series.
    Everything is computed and compared in one Span of the support and lam;
    no row is split out, expanded or rendered until `check_lines` prints it.
    """
    require_odd_b_plus(X)
    if attributes:
        for key in ("simple_type", "abundant", "effective"):
            if key in attributes and not attributes[key]:
                raise HypothesisViolated(f"fixture declares {key} = false")
    if not X.support():
        raise HypothesisViolated("no basic classes with nonzero invariant")
    if not X.is_simple_type():
        raise HypothesisViolated("manifold is not of simple type")
    _require_orthogonal(X, lam)
    Q = X.form
    if square(Q, lam) != 4 - (X.chi + X.sigma):
        raise HypothesisViolated(
            f"lam^2 = {square(Q, lam)} but 4-(chi+sigma) = {4 - (X.chi + X.sigma)}"
        )
    if not is_characteristic(Q, w - lam):
        raise HypothesisViolated("w - lam is not characteristic")
    c = c_of_X(X)
    if c < 2:
        raise HypothesisViolated(f"c(X) = {c} < 2 is outside the verified range")

    bound = c + 1
    span = _span(X, lam)
    signed = _signed_support(X, w)
    info = r_and_i(X, lam, X.support())
    moments = _moments(span, X, w, lam, signed, _series_keys(X, bound), info)
    lhs = _assemble_donaldson_series(span, moments, bound)
    sw = _sw_series(span, signed[1], bound)
    qf = span.quadratic(bound)
    rhs = _times_pow2(1, 2 - c) * ((Fraction(1, 2) * qf).exp_series() * sw)
    differ = {sum(expo) for expo in (lhs - rhs).terms}
    # Degree d of sw is sum_s eps_s SW(s) <c1(s),h>^d / d!: the power sums
    # of the vanishing rows.
    sw_degrees = {sum(expo) for expo in sw.terms}
    # lhs = rhs + (lhs - rhs), and rhs starts in sw's lowest degree, since
    # e^(Q/2) = 1 + ...: both series vanish below c-2 iff neither lhs - rhs
    # nor sw has a term there.
    low = all(d >= c - 2 for d in differ | sw_degrees)
    # The hypotheses above force r(lam, c1(s)) = c-4 on the support and
    # i(lam) = c+4, so both identities read level-one table entries.
    zero = polyring.zero(span.nvars, 0)
    sw_low, sw_top = sw.homogeneous_parts(range(c - 2, c + 1, 2))
    point_rhs = _times_pow2(math.factorial(c - 2), 3 - c) * sw_low
    top_rhs = _times_pow2(math.factorial(c), 2 - c) * (sw_top + Fraction(1, 2) * (qf * sw_low))
    checks = [
        ("congruence.low_degree", low, f"both series vanish below degree {c - 2}"),
        *((f"degree.{e}", e not in differ, e) for e in range(bound + 1)),
        ("congruence.witten", not differ, f"series agree through degree {c + 1}"),
        ("coefficient.point_class", moments.get((c, 1), zero) == point_rhs,
         "degree c-2 moment identity"),
        ("coefficient.top", moments.get((c, 0), zero) == top_rhs, "degree c moment identity"),
    ]
    for d in range(bound + 1):
        expected, actual = d < c - 2 or (d - c) % 2 != 0, d not in sw_degrees
        detail = f"expected_zero={expected} actual_zero={actual}"
        checks.append((f"vanishing.d{d}", actual or not expected, detail))
    return WittenReport(c, span, lhs, rhs, tuple(checks))


def sign_change_check(
    X: FourManifoldData,
    w: CohomologyClass,
    w_prime: CohomologyClass,
    lam: CohomologyClass,
) -> bool:
    """Verify the sign-change law between the two assembled series:
    the w' series equals (-1)^((w'-w)^2/4) times the w series.  Compared
    in the reduced ring of the support and lam, which is exact."""
    diff = w_prime - w
    if any(coord % 2 != 0 for coord in diff.coords):
        raise NotCongruent("w' and w differ by an odd class")
    half_diff = CohomologyClass(coord // 2 for coord in diff.coords)
    factor = _sign_pow(square(X.form, half_diff))
    bound = c_of_X(X) + 1
    span = _span(X, lam)
    lhs, rhs = (
        _assemble_donaldson_series(
            span, _moments(span, X, v, lam, _signed_support(X, v), _series_keys(X, bound)),
            bound,
        )
        for v in (w_prime, w)
    )
    return lhs == factor * rhs
