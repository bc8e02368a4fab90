"""Link pairings with the codimension-one stratum boundaries.

Segre-class coefficients of the virtual normal bundle, the instanton-link
pairing table, the level-one link pairing in closed form and as a literal
nested-sum oracle (its weights are `combinatorics.triple_sum_lhs` values),
and the blow-up pairing with its polarization oracle.

The two independent evaluation routes (closed vs raw, closed-blow-up vs
polarized) must agree exactly on every admissible input; the test suite
enforces this.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from math import comb
from typing import NamedTuple, Optional

from .combinatorics import JacobiParams, ext_binomial, jacobi_at_zero, triple_sum_lhs
from .errors import (
    HypothesisViolated,
    InputError,
    JacobiZeroDivide,
    MissingMoment,
)
from .lattice import CohomologyClass, pair, square
from .manifold import (
    FourManifoldData,
    SpincData,
    SpinuData,
    blow_up_manifold,
    blow_up_spinc,
    blow_up_spinu,
    c1_squared,
    dim_sw,
    dims_asd,
    holomorphic_euler,
    level,
    normal_indices,
    orientation_sign,
)
from . import polyring
from .polyring import (
    Span,
    TruncatedPolynomial,
    _linear,
    _sum_of_powers,
    constant,
    linear_form,
    quadratic_form,
)

__all__ = [
    "SegreInput",
    "PairingInput",
    "PairingValue",
    "segre_coefficient",
    "s_constants",
    "segre_coefficient_by_inversion",
    "segre_inversion_sweep",
    "instanton_pairing",
    "link_pairing_closed",
    "link_pairing_raw",
    "b0_coefficient",
    "blow_up_pairing_closed",
    "blow_up_pairing_polarized",
]


# ---------------------------------------------------------------------------
# Segre coefficients of the virtual normal bundle
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SegreInput:
    """Index pair (n', n'') of the normal operator and the class degree p."""

    n_prime: int
    n_dblprime: int
    p: int

    def __post_init__(self) -> None:
        if self.p < 0:
            raise InputError("Segre degree p must be non-negative")


def s_constants(n_prime: int, n_dblprime: int, j: int) -> int:
    """S_j = sum_k 2^k C(-n', k) C(-n'', j-k)."""
    if j < 0:
        raise InputError("j must be non-negative")
    return sum(
        (ext_binomial(-n_prime, k) * ext_binomial(-n_dblprime, j - k)) << k
        for k in range(j + 1)
    )


def segre_coefficient(inp: SegreInput) -> int:
    """Coefficient of mu^p in the p-th Segre class of the normal bundle."""
    return s_constants(inp.n_prime, inp.n_dblprime, inp.p)


def segre_coefficient_by_inversion(n_prime: int, n_dblprime: int, p: int) -> int:
    """Independent oracle: mu^p coefficient of the truncated series inverse
    of the total Chern class (1+2mu)^n' (1+mu)^n''.

    Works on integer coefficient lists: every factor has constant term 1,
    so the Chern class and its inverse are integral.
    """
    if p < 0:
        raise InputError("p must be non-negative")
    chern = [1] + [0] * p
    for slope, power in ((2, n_prime), (1, n_dblprime)):
        for _ in range(abs(power)):
            if power > 0:  # times (1 + slope mu), top coefficient first
                for i in range(p, 0, -1):
                    chern[i] += slope * chern[i - 1]
            else:  # divided by (1 + slope mu), bottom coefficient first
                for i in range(1, p + 1):
                    chern[i] -= slope * chern[i - 1]
    inverse = [1]
    for k in range(1, p + 1):
        inverse.append(-sum(chern[j] * inverse[k - j] for j in range(1, k + 1)))
    return inverse[p]


def segre_inversion_sweep() -> tuple[int, int]:
    """(tuples checked, mismatches) of segre_coefficient against its
    inversion oracle over |n'|, |n''| <= 5, 0 <= p <= 10."""
    grid = [
        (n1, n2, p)
        for n1 in range(-5, 6)
        for n2 in range(-5, 6)
        for p in range(11)
    ]
    bad = sum(
        segre_coefficient_by_inversion(*g) != segre_coefficient(SegreInput(*g))
        for g in grid
    )
    return len(grid), bad


# ---------------------------------------------------------------------------
# Instanton-link pairings
# ---------------------------------------------------------------------------

INSTANTON_KINDS = ("nu_x", "nu2_h", "nu3", "nu_alpha_h")


def instanton_pairing(
    kind: str,
    X: FourManifoldData,
    t_prime: SpinuData,
    s: SpincData,
    alpha: Optional[CohomologyClass] = None,
    bound: int = 4,
) -> TruncatedPolynomial:
    """Pairing of a monomial in the boundary class with the gluing-data link.

    nu_x -> 2;  nu2_h -> -4<c1(s)-c1(t'), h>;
    nu3 -> 6(c1(s)-c1(t'))^2 + 2 c1^2(X);  nu_alpha_h -> 2<alpha, h>.

    Constant values are returned as degree-zero polynomials so all four
    table entries compose uniformly.
    """
    n = X.form.rank
    diff = s.c1 - t_prime.c1
    if kind == "nu_x":
        return constant(2, n, bound)
    if kind == "nu2_h":
        return -4 * linear_form(diff, X.form, bound)
    if kind == "nu3":
        return constant(6 * square(X.form, diff) + 2 * c1_squared(X), n, bound)
    if kind == "nu_alpha_h":
        if alpha is None:
            raise InputError("nu_alpha_h needs the class alpha")
        return 2 * linear_form(alpha, X.form, bound)
    raise InputError(f"unknown pairing kind {kind!r}; expected one of {INSTANTON_KINDS}")


# ---------------------------------------------------------------------------
# Level-one link pairings
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PairingInput:
    """Everything a level-one link pairing consumes.

    The spin-u structure t_prime is the ambient one (the stratum of s sits
    at level one in it); delta, m, eta satisfy the degree bookkeeping
    2(delta+eta) = dim(ambient moduli / circle) - 1, checked on build.

    Building derives, once, `d` = d_s/2, the Jacobi triple `jacobi` =
    (a, b, d) and the split structure's normal indices `normal` = (n', n''):
    plain attributes, not fields, so not in `==`.
    """

    X: FourManifoldData
    t_prime: SpinuData
    s: SpincData
    delta: int
    m: int
    eta: int
    h: CohomologyClass

    def __post_init__(self) -> None:
        if self.delta < 0 or self.eta < 0:
            raise HypothesisViolated("delta and eta must be non-negative")
        if not 0 <= self.m <= self.delta // 2:
            raise HypothesisViolated(f"m = {self.m} outside 0..delta/2")
        if level(self.X, self.t_prime, self.s) != 1:
            raise HypothesisViolated(
                "spin-c stratum is not at level one of the ambient structure"
            )
        d_a, n_a = dims_asd(self.X, self.t_prime)
        if 2 * (self.delta + self.eta) != d_a + 2 * n_a - 2:
            raise HypothesisViolated(
                "2(delta+eta) != dim(ambient moduli / circle) - 1"
            )
        ds = dim_sw(self.X, self.s)
        if ds < 0 or ds % 2 != 0:
            raise HypothesisViolated(f"d_s = {ds} must be even and non-negative")
        self.X.form._require_rank(self.h)
        d = ds // 2
        a = self.eta - d + 1
        # d_a = -2 p1 - 6 chi_h is even, so b = delta - d_a/2 - d - chi_h is integral.
        b = self.delta - d_a // 2 - d - holomorphic_euler(self.X)
        # The split structure's normal indices; n'' raises if not integral.
        t = self.t_prime
        normal = normal_indices(self.X, SpinuData(c1=t.c1, p1=t.p1 + 4, w=t.w), self.s)
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "jacobi", JacobiParams(a, b, d))
        object.__setattr__(self, "normal", normal)

    def moment(self) -> int:
        """<mu^d, [M_s]>: the recorded moment, or the invariant when d = 0."""
        if self.d == 0:
            return self.s.sw
        if self.s.moment is None:
            raise MissingMoment(
                f"class {self.s.c1.coords} has d_s > 0 but no moment value"
            )
        return self.s.moment


@dataclass(frozen=True)
class PairingValue:
    """A pairing as a homogeneous polynomial in h plus its value at the
    fixture's chosen h."""

    polynomial: TruncatedPolynomial
    at_h: Fraction


class _BracketClass(NamedTuple):
    """A class's level-one bracket data, beta = c1 - t: <beta,h> in span
    variables, beta^2, beta.t and, for its Jacobi triple (a, b, d), the
    integers p = 2^d P^(a,b)_d(0) and p1 = 2^d P^(a-1,b+1)_d(0)."""

    bf: TruncatedPolynomial
    beta2: int
    beta_t: int
    p: int
    p1: int


def _pow2_jacobi(jac: JacobiParams) -> int:
    """The integer 2^d P^(a,b)_d(0) for jac = (a, b, d)."""
    P = jacobi_at_zero(jac)
    return (P.numerator << jac.d) // P.denominator


def _bracket_class(
    bf: TruncatedPolynomial, beta2: int, beta_t: int, jac: JacobiParams
) -> _BracketClass:
    p1 = _pow2_jacobi(JacobiParams(jac.a - 1, jac.b + 1, jac.d))
    return _BracketClass(bf, beta2, beta_t, _pow2_jacobi(jac), p1)


def _bracket_forms(span: Span, t: CohomologyClass) -> tuple:
    """The walk factors (None for 1, <t,h>, Q(h)) in the span's variables."""
    return None, span.linear(t, 2), span.quadratic(2)


def _bracket_walks(
    cls: _BracketClass, forms: tuple, c1_sq: int, n: int, m: int, k: int, num: int,
    den: int,
) -> list:
    """At most three walks (`polyring._sum_of_powers`), each a power of
    <beta,h> times a form, of num/den times the level-one bracket in p units
    A <beta,h>^deg + B <beta,h>^(deg-1) <t,h> + C <beta,h>^(deg-2) Q(h), deg =
    n - k >= 0, A = a0 p + 2(beta.t) p1, B = 2 deg p1, C = 4 C(deg,2) p, a0 =
    3 beta^2 + c1_sq + 4n - 4m - 4 C(k+1,2), p = 2^d P and p1 = 2^d P1 from
    `cls`, forms = _bracket_forms(span, t).  Ratio-free: no p1/p."""
    deg = n - k
    a0 = 3 * cls.beta2 + c1_sq + 4 * n - 4 * m - 4 * comb(k + 1, 2)
    coeffs = (a0 * cls.p + 2 * cls.beta_t * cls.p1, 2 * deg * cls.p1, 4 * comb(deg, 2) * cls.p)
    return [
        (cls.bf, deg - j, form, num * coeff, den)
        for j, (coeff, form) in enumerate(zip(coeffs, forms))
        if coeff  # B = 0 for deg < 1 and C = 0 for deg < 2
    ]


def _bracket_closed(inp: PairingInput, k: int, moment: int) -> PairingValue:
    """The level-one bracket for a pairing input with k exceptional slots,
    times (-1)^(m+1+d) 2^(d-delta) and `moment`, as one `_sum_of_powers`."""
    n, Q, c1, t = inp.delta - 2 * inp.m, inp.X.form, inp.s.c1, inp.t_prime.c1
    if n < k:
        return PairingValue(polyring.zero(Q.rank, 0), Fraction(0))
    span, beta = Span(Q, (c1, t)), c1 - t
    bf = span.linear(c1, 1, t)
    cls = _bracket_class(bf, square(Q, beta), pair(Q, beta, t), inp.jacobi)
    sign = -1 if (inp.m + 1 + inp.d) % 2 else 1
    num, forms = sign * moment, _bracket_forms(span, t)
    walks = _bracket_walks(cls, forms, c1_squared(inp.X), n, inp.m, k, num, 1 << inp.delta)
    poly = span.expand(_sum_of_powers(span.nvars, n - k, walks))
    return PairingValue(poly, poly.evaluate(inp.h.coords))


def link_pairing_closed(inp: PairingInput) -> PairingValue:
    """Closed-form level-one link pairing.

    Sign (-1)^(m+1+d), prefactor 2^(d-delta) P^{a,b}(0) times the moment,
    times the bracket with coefficients a0, b0, a1; the b0 term and the
    lattice cross term inside a0 are evaluated ratio-free through
    P^{a-1,b+1}, which keeps the value finite when P^{a,b}(0) = 0 and makes
    the closed route agree exactly with the literal nested sum.
    """
    return _bracket_closed(inp, k=0, moment=inp.moment())


def b0_coefficient(inp: PairingInput) -> Fraction:
    """The standalone ratio coefficient 2(delta-2m) P^{a-1,b+1}/P^{a,b}.

    Only for direct coefficient queries; raises JacobiZeroDivide when the
    denominator value vanishes.  The pairing evaluators never divide.
    """
    jac = inp.jacobi
    P = jacobi_at_zero(jac)
    if P == 0:
        raise JacobiZeroDivide(f"P^({jac.a},{jac.b})_{jac.d}(0) = 0")
    P1 = jacobi_at_zero(JacobiParams(jac.a - 1, jac.b + 1, jac.d))
    return 2 * (inp.delta - 2 * inp.m) * P1 / P


def link_pairing_raw(inp: PairingInput) -> PairingValue:
    """Literal nested-sum evaluation of the same link pairing.

    Overall sign (-1)^(m+1+d) (the rank-free collapse of the orientation
    bookkeeping), factor 2^(-delta-1), the four instanton pairing values
    substituted into six term families, and each family weighted by the
    Segre-weighted nested sum T(A, v) = triple_sum_lhs(A, -n', -n'', d, v)
    at its own (A, v): a family lacking l of the <beta,h> factors carries
    C(delta - l, i) = C(A - v, i).  No Jacobi value and no bracket.
    """
    X, t, s, Q, d, m = inp.X, inp.t_prime, inp.s, inp.X.form, inp.d, inp.m
    delta, n, (n1, n2) = inp.delta, inp.delta - 2 * inp.m, inp.normal
    bound = max(n, 2)

    def T(A: int, v: int) -> Fraction:
        return triple_sum_lhs(A, -n1, -n2, d, v)

    def nu(kind: str, alpha=None) -> TruncatedPolynomial:
        return instanton_pairing(kind, X, t, s, alpha=alpha, bound=bound)

    bf, nux = linear_form(s.c1 - t.c1, Q, bound), nu("nu_x")
    nu2c = constant(-4 * pair(Q, s.c1 - t.c1, t.c1), Q.rank, bound)
    total = bf**n * (
        T(delta, 0) * nu("nu3") - T(delta + 1, 1) * nu2c - 4 * m * T(delta, 2) * nux
    )
    if n >= 1:
        hc, h2 = nu("nu_alpha_h", t.c1), nu("nu2_h")
        total += bf ** (n - 1) * (2 * n * (T(delta + 1, 2) * hc - T(delta, 1) * h2))
    if n >= 2:
        qf = quadratic_form(Q, bound)
        total += bf ** (n - 2) * (4 * comb(n, 2) * T(delta, 2) * (qf * nux))

    sign = -1 if (m + 1 + d) % 2 else 1
    poly = (Fraction(sign * inp.moment(), 2 ** (delta + 1)) * total).truncate(n)
    return PairingValue(poly, poly.evaluate(inp.h.coords))


# ---------------------------------------------------------------------------
# Blow-up pairings
# ---------------------------------------------------------------------------


def blow_up_pairing_closed(inp: PairingInput, k: int) -> PairingValue:
    """Closed blow-up pairing: zero for odd k; for even k the base bracket
    with a0 shifted by -4 C(k+1,2), the obstruction coefficient dropping to
    2(delta-2m-k), and the quadratic coefficient 4 C(delta-2m-k, 2), all
    scaled by the orientation sign and the invariant of the un-blown class.
    """
    if k < 0:
        raise InputError("k must be non-negative")
    if k % 2 == 1:
        deg = max(inp.delta - 2 * inp.m - k, 0)
        return PairingValue(polyring.zero(inp.X.form.rank, deg), Fraction(0))
    o_sign = orientation_sign(inp.X, inp.t_prime.w, inp.t_prime, inp.s)
    return _bracket_closed(inp, k=k, moment=o_sign * inp.s.sw)


def blow_up_pairing_polarized(inp: PairingInput, k: int) -> PairingValue:
    """Polarization oracle for the blow-up pairing.

    Splices the companions c1 +- e onto the blow-up, expands the bracket over
    the argument list `slots` (h delta-2m-k times, then e k+1 times) as
    A prod beta + 2 P1 sum_j t(z_j) prod_(i != j) beta + 4 P sum_(j < l)
    Q(z_j, z_l) prod_(i != j, l) beta, applies the two orientation signs and
    adds.  Must agree with blow_up_pairing_closed for even k and vanish for
    odd k.
    """
    if k < 0:
        raise InputError("k must be non-negative")
    n_h = inp.delta - 2 * inp.m - k
    nv = inp.X.form.rank
    if n_h < 0:
        return PairingValue(polyring.zero(nv, 0), Fraction(0))

    X_blown, e = blow_up_manifold(inp.X)
    Qb, t_blown = X_blown.form, blow_up_spinu(inp.t_prime)
    jac, d = inp.jacobi, inp.d
    P = jacobi_at_zero(jac)
    P1 = jacobi_at_zero(JacobiParams(jac.a - 1, jac.b + 1, d))
    bound = max(n_h, 2)
    slots = ["h"] * n_h + ["e"] * (k + 1)
    sign = -1 if (inp.m + 1 + d) % 2 else 1

    def on_slots(cls: CohomologyClass) -> dict:
        """<cls, z> for z = h (over the un-blown coordinates) and z = e."""
        *row, at_e = Qb.apply(cls)
        return {"h": _linear(enumerate(row), nv, bound), "e": constant(at_e, nv, bound)}

    def product(beta: dict, skip: tuple) -> TruncatedPolynomial:
        factors = (beta[z] for i, z in enumerate(slots) if i not in skip)
        return math.prod(factors, start=constant(1, nv, bound))

    lt, E = on_slots(t_blown.c1), on_slots(e)
    Q = {"hh": quadratic_form(inp.X.form, bound), "he": E["h"], "ee": E["e"]}
    total = polyring.zero(nv, bound)
    for k_choice in (1, 0):
        s_pm = blow_up_spinc(inp.s, k_choice, inp.X, X_blown)
        if level(X_blown, t_blown, s_pm) != 1:
            raise HypothesisViolated("blow-up did not preserve the stratum level")
        beta_cls = s_pm.c1 - t_blown.c1
        beta = on_slots(beta_cls)
        a0 = 3 * square(Qb, beta_cls) + c1_squared(X_blown) + 4 * len(slots) - 4 * inp.m
        bracket = (a0 * P + 2 * pair(Qb, beta_cls, t_blown.c1) * P1) * product(beta, ())
        for j, z in enumerate(slots):
            bracket = bracket + (2 * P1) * (product(beta, (j,)) * lt[z])
        for (j, z), (l, y) in itertools.combinations(enumerate(slots), 2):
            bracket = bracket + (4 * P) * (product(beta, (j, l)) * Q[z + y])
        o_sign = orientation_sign(X_blown, t_blown.w, t_blown, s_pm)
        # <mu^d, [M_{s+-}]> is the invariant SW(s) by definition.
        scale = Fraction(o_sign * sign * inp.s.sw * 2**d, 2 ** (inp.delta + 1))
        total = total + scale * bracket

    poly = total.truncate(n_h)
    return PairingValue(poly, poly.evaluate(inp.h.coords))
