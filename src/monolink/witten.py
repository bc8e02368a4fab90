"""Series aggregation and the low-degree conjecture verifier.

Builds the two formal series from basic-class data, computes invariant
moments through the level-one range, and compares them degree by degree:
both must vanish below degree c-2 and agree through degree c+1, where
c = -(7 chi + 11 sigma)/4.  All comparisons are exact rational equalities.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from typing import Mapping, Optional

from .combinatorics import JacobiParams
from .errors import (
    BoundTooHigh,
    HypothesisViolated,
    InputError,
    NonIntegralExponent,
    NonIntegralSign,
    NotCongruent,
)
from .lattice import CohomologyClass, is_characteristic, pair, square
from .manifold import (
    FourManifoldData,
    RAndIReport,
    c1_squared,
    c_of_X,
    dim_sw,
    holomorphic_euler,
    r_and_i,
    require_odd_b_plus,
)
from . import polyring
from .pairings import _bracket_class, _bracket_forms, _bracket_walks, _pow2_jacobi
from .polyring import Span, TruncatedPolynomial, _sum_of_powers, linear_form

__all__ = [
    "WittenReport",
    "sw_series",
    "sw_vanishing_check",
    "donaldson_moment",
    "assemble_donaldson_series",
    "verify_witten",
    "sign_change_check",
]


def _half(n: int, what: str) -> int:
    if n % 2 != 0:
        raise NonIntegralSign(f"{what} = {n}/2 is not an integer")
    return n // 2


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
        (s, _sign_pow(_half(w2 + pair(X.form, s.c1, w), "w^2 + c1.w")) * s.sw)
        for s in X.support()
    ]


def _require_orthogonal(X: FourManifoldData, lam: CohomologyClass) -> None:
    for s in X.support():
        if pair(X.form, lam, s.c1) != 0:
            raise HypothesisViolated(f"lam is not orthogonal to basic class {s.c1.coords}")


def _span(X: FourManifoldData, *extra: CohomologyClass) -> Span:
    """The span of the basic classes with nonzero invariant and `extra`."""
    return Span(X.form, [s.c1 for s in X.support()] + list(extra))


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
    if d < 0:
        raise InputError("d must be non-negative")
    total = polyring.zero(X.form.rank, d)
    for s, signed_sw in _signed_support(X, v)[1]:
        total = total + signed_sw * linear_form(s.c1, X.form, d) ** d
    return total.is_zero()


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
    span = _span(X, lam)
    if delta < 0 or m < 0 or 2 * m > delta:
        raise HypothesisViolated("need 0 <= 2m <= delta")
    if not is_characteristic(X.form, w - lam):
        raise HypothesisViolated("w - lam is not characteristic")
    signed = _signed_support(X, w)
    if delta % 4 != _degree_residue(X, signed[0]):
        return polyring.zero(X.form.rank, delta - 2 * m)
    info = r_and_i(X, lam, X.support())
    if delta != info.r_min + 4:
        raise HypothesisViolated(
            f"delta = {delta} but the level-one formula needs r(lam)+4 = {info.r_min + 4}"
        )
    return span.expand(_moments(span, X, w, lam, signed, [(delta, m)], info)[delta, m])


def _level_one_classes(
    X: FourManifoldData, w2: int, info: RAndIReport, classes: list, delta: int
) -> list:
    """Checks the level-one formula's hypotheses at delta and returns [(r_s,
    num, <c1 - lam, h>, data)] for the classes there: num = (-1)^((w^2 +
    c1.(w-lam))/2 + d) SW(s), d = d_s/2, data the `_BracketClass` (r_s =
    delta-4) or 2^d P^(a-1,b)_d(0) (r_s = delta), a = (i(lam) - delta)/4 - d,
    b = -d - chi_h.  A moment table derives it once, with no pairing: beta =
    c1 - lam has beta^2 = -r_s - 3 chi_h, c1^2 = 4 d_s + c1^2(X), and `info`
    (r_and_i over the support) gives r_s and lam^2."""
    if delta >= info.i_value:
        raise HypothesisViolated(
            f"delta = {delta} must stay below i(lam) = {info.i_value}"
        )
    if (info.i_value - delta) % 4 != 0:
        raise NonIntegralExponent(
            f"i(lam) - delta = {info.i_value - delta} not divisible by 4"
        )
    if (X.sigma - w2) % 2 != 0:
        raise NonIntegralExponent(f"(sigma - w^2)/2 not integral for w^2 = {w2}")
    n_a, chi_h = (info.i_value - delta) // 4, holomorphic_euler(X)
    lam2 = info.i_value - c_of_X(X) - X.chi - X.sigma
    out = []
    for (s, signed_sw, bf), r_s in zip(classes, info.per_class):
        if r_s not in (delta, delta - 4):
            continue
        d_s = dim_sw(X, s)
        if d_s % 2 != 0:
            raise HypothesisViolated(f"odd d_s = {d_s} for {s.c1.coords}")
        d, beta2 = d_s // 2, -r_s - 3 * chi_h
        c1_lam = (4 * d_s + c1_squared(X) + lam2 - beta2) // 2
        # signed_sw carries (-1)^((w^2 + c1.w)/2), and c1.w - c1.lam = c1.(w-lam).
        num = _sign_pow(_half(c1_lam, "c1.lam") + d) * signed_sw
        a, b = n_a - d, -d - chi_h
        if r_s == delta:
            data = _pow2_jacobi(JacobiParams(a - 1, b, d))
        else:
            data = _bracket_class(bf, beta2, c1_lam - lam2, JacobiParams(a, b, d))
        out.append((r_s, num, bf, data))
    return out


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
    a caller that has already checked w - lam characteristic.

    Only the moments the degree rule allows at or above r(lam) are entries;
    every other one is zero.  delta = r(lam) takes the level-zero formula
    2^(2-c) (-1)^(m+1) sum_s (signed SW(s)) <c1-lam, h>^(delta-2m) (simple
    type, lam orthogonal to the support), delta = r(lam)+4 the level-one one,
    and any higher delta raises BoundTooHigh.  Derives w - lam, r(lam), the
    degree rule, each class's <c1 - lam, h> and each level's data and
    hypotheses once per table, visiting the keys in order, so the first
    error raised does not depend on how the table is read.  Every class of
    an entry streams into its one polynomial.
    """
    info = checked or r_and_i(X, lam, X.support())
    w2, signed = signed
    residue = _degree_residue(X, w2)
    classes = [(s, signed_sw, span.linear(s.c1, 1, lam)) for s, signed_sw in signed]
    level_zero, level_one, table = None, None, {}
    for delta, m in keys:
        if delta < info.r_min or delta % 4 != residue:
            continue
        if delta == info.r_min:
            if level_zero is None:
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
                level_one = _level_one_classes(X, w2, info, classes, delta)
                n_a, forms = (info.i_value - delta) // 4, _bracket_forms(span, lam)
            # Each class carries the prefactor 2^(1 - i(lam)/4 - 3 delta/4)
            # (-1)^(m + (sigma - w^2)/2), with i(lam)/4 + 3 delta/4 = n_a + delta,
            # times (-1)^eps (-2)^d SW(s), (-1)^d in num and 2^d in p = 2^d P.
            entry = level_one
            scale = _times_pow2(_sign_pow(m + (X.sigma - w2) // 2), 1 - n_a - delta)
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
    """sum over the table of D(h^(delta-2m) x^m) / ((delta-2m)! 2^m)."""
    out = polyring.zero(span.nvars, bound)
    for (delta, m), moment in moments.items():
        scale = Fraction(1, math.factorial(delta - 2 * m) * 2**m)
        out = out + scale * moment.truncate(bound)
    return out


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


def _render_part(p: TruncatedPolynomial) -> str:
    if len(p.terms) <= 6:
        return p.render()
    return f"<{len(p.terms)} terms; digest {p.digest()}>"


@dataclass(frozen=True)
class DegreeRow:
    """Degree e of both series, kept in the span's reduced ring; the h-basis
    forms are expanded when first read, once for an equal row."""

    degree: int
    span: Span
    lhs: TruncatedPolynomial
    rhs: TruncatedPolynomial

    @property
    def equal(self) -> bool:
        return self.lhs == self.rhs

    @cached_property
    def donaldson(self) -> TruncatedPolynomial:
        return self.span.expand(self.lhs)

    @cached_property
    def reference(self) -> TruncatedPolynomial:
        return self.donaldson if self.equal else self.span.expand(self.rhs)


@dataclass(frozen=True)
class VanishingRow:
    degree: int
    expected: bool
    actual: bool

    @property
    def consistent(self) -> bool:
        return self.actual or not self.expected


@dataclass(frozen=True)
class WittenReport:
    """Structured outcome of a full series comparison on one manifold."""

    manifold: str
    w: CohomologyClass
    lam: CohomologyClass
    c: int
    table: tuple[DegreeRow, ...]
    vanishing: tuple[VanishingRow, ...]
    dinvar_point_ok: bool
    dinvar_ok: bool

    @property
    def congruence_low(self) -> bool:
        """Both series vanish in every degree below c-2."""
        return all(
            row.lhs.is_zero() and row.rhs.is_zero()
            for row in self.table
            if row.degree < self.c - 2
        )

    @property
    def congruence_main(self) -> bool:
        """Degree-by-degree equality through degree c+1."""
        return all(row.equal for row in self.table)

    @property
    def vanishing_ok(self) -> bool:
        return all(row.consistent for row in self.vanishing)

    @property
    def passed(self) -> bool:
        return (
            self.congruence_low
            and self.congruence_main
            and self.dinvar_point_ok
            and self.dinvar_ok
            and self.vanishing_ok
        )

    def as_dict(self) -> dict:
        """JSON-ready deterministic summary."""
        return {
            "manifold": self.manifold,
            "w": list(self.w.coords),
            "lambda": list(self.lam.coords),
            "c": self.c,
            "table": [
                {
                    "degree": row.degree,
                    "donaldson": row.donaldson.render(),
                    "reference": row.reference.render(),
                    "equal": row.equal,
                }
                for row in self.table
            ],
            "vanishing": [
                {
                    "degree": row.degree,
                    "expected": row.expected,
                    "actual": row.actual,
                    "consistent": row.consistent,
                }
                for row in self.vanishing
            ],
            "congruence_low": self.congruence_low,
            "congruence_main": self.congruence_main,
            "dinvar_point_ok": self.dinvar_point_ok,
            "dinvar_ok": self.dinvar_ok,
            "passed": self.passed,
        }

    def check_lines(self) -> list[tuple[str, bool, str]]:
        """(check id, pass/fail, detail) triples in deterministic order."""
        lines: list[tuple[str, bool, str]] = []
        lines.append(
            (
                "congruence.low_degree",
                self.congruence_low,
                f"both series vanish below degree {self.c - 2}",
            )
        )
        for row in self.table:
            lines.append(
                (
                    f"degree.{row.degree}",
                    row.equal,
                    f"lhs={_render_part(row.donaldson)} rhs={_render_part(row.reference)}",
                )
            )
        lines.append(
            (
                "congruence.witten",
                self.congruence_main,
                f"series agree through degree {self.c + 1}",
            )
        )
        lines.append(
            ("coefficient.point_class", self.dinvar_point_ok, "degree c-2 moment identity")
        )
        lines.append(("coefficient.top", self.dinvar_ok, "degree c moment identity"))
        for row in self.vanishing:
            detail = f"expected_zero={row.expected} actual_zero={row.actual}"
            lines.append((f"vanishing.d{row.degree}", row.consistent, detail))
        return lines


def verify_witten(
    X: FourManifoldData,
    w: CohomologyClass,
    lam: CohomologyClass,
    attributes: Optional[Mapping[str, bool]] = None,
) -> WittenReport:
    """Full low-degree comparison of the two series on one manifold.

    Checks the hypotheses by name, assembles the invariant series through
    degree c+1, compares it with 2^(2-c) e^(Q/2) times the monopole series,
    and runs the two named coefficient identities at degrees c-2 and c.
    Everything is computed and compared in one Span of the support and lam;
    the rows expand to the h-basis only when rendered.
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
    moments = _moments(span, X, w, lam, signed, _series_keys(X, bound))
    lhs = _assemble_donaldson_series(span, moments, bound)
    sw = _sw_series(span, signed[1], bound)
    qf = span.quadratic(bound)
    rhs = _times_pow2(1, 2 - c) * ((Fraction(1, 2) * qf).exp_series() * sw)
    table = tuple(
        DegreeRow(e, span, lhs.homogeneous_part(e), rhs.homogeneous_part(e))
        for e in range(bound + 1)
    )
    # Degree d of sw is sum_s eps_s SW(s) <c1(s),h>^d / d!: the power sums
    # of the vanishing rows and both coefficient identities.
    sw_parts = [sw.homogeneous_part(d) for d in range(bound + 1)]
    vanishing = tuple(
        VanishingRow(
            d,
            expected=(d < c - 2) or ((d - c) % 2 != 0),
            actual=sw_parts[d].is_zero(),
        )
        for d in range(bound + 1)
    )
    # The hypotheses above force r(lam, c1(s)) = c-4 on the support and
    # i(lam) = c+4, so both identities read level-one table entries.
    zero = polyring.zero(span.nvars, 0)
    point_lhs = moments.get((c, 1), zero)
    point_rhs = _times_pow2(math.factorial(c - 2), 3 - c) * sw_parts[c - 2]
    top_lhs = moments.get((c, 0), zero)
    top_rhs = _times_pow2(math.factorial(c), 2 - c) * (
        sw_parts[c] + Fraction(1, 2) * (qf * sw_parts[c - 2])
    )

    return WittenReport(
        manifold=X.name,
        w=w,
        lam=lam,
        c=c,
        table=table,
        vanishing=vanishing,
        dinvar_point_ok=(point_lhs == point_rhs),
        dinvar_ok=(top_lhs == top_rhs),
    )


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
