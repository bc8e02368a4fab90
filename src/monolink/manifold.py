"""Topological data model for a closed four-manifold with b1 = 0.

Characteristic numbers, spin-c and spin-u bookkeeping, every dimension,
index, and level function, the degree parity rule, orientation sign
factors, and blow-up transport of all structures.  All divisions by 2, 4,
or 8 either land on integers or raise NotDivisible.
"""

from __future__ import annotations

from typing import Optional, Sequence

from ._value import Value
from .errors import (
    EmptySupport,
    HypothesisViolated,
    InputError,
    NegativeDimension,
    NotDivisible,
)
from .lattice import (
    CohomologyClass,
    IntersectionForm,
    _integers,
    blow_up,
    is_characteristic,
    square,
)


def _exact_div(num: int, den: int, what: str) -> int:
    if num % den != 0:
        raise NotDivisible(f"{what} = {num}/{den} is not an integer")
    return num // den


class SpincData(Value):
    """A spin-c structure: its first Chern class, invariant value, and the
    moduli-space moment <mu^(d_s/2), [M]> when the dimension is positive."""

    c1: CohomologyClass
    sw: int
    moment: Optional[int] = None

    def __post_init__(self) -> None:
        moment = () if self.moment is None else (self.moment,)
        _integers((self.sw, *moment), "sw and moment")


class SpinuData(Value):
    """A spin-u structure: c1, first Pontrjagin number, and an integral
    lift w of its second Stiefel-Whitney class."""

    c1: CohomologyClass
    p1: int
    w: CohomologyClass


class FourManifoldData(Value):
    """Euler characteristic, signature, intersection form, basic classes.

    b1 = 0 is implicit.  Integer chi and sigma with chi+sigma = 0 (mod 4) and
    distinct basic classes always; the odd b2+ >= 3 requirement applies only
    at the Witten-verification entry points and is checked there.
    """

    name: str
    chi: int
    sigma: int
    form: IntersectionForm
    basic_classes: tuple[SpincData, ...] = ()

    def __post_init__(self) -> None:
        _integers((self.chi, self.sigma), "chi and sigma")
        if (self.chi + self.sigma) % 4 != 0:
            raise InputError(
                f"chi+sigma = {self.chi + self.sigma} must be divisible by 4"
            )
        object.__setattr__(self, "basic_classes", tuple(self.basic_classes))
        seen = set()
        for s in self.basic_classes:
            self.form._require_rank(s.c1)
            if s.c1.coords in seen:
                raise InputError(f"basic class {s.c1.coords} is repeated")
            seen.add(s.c1.coords)
            if not is_characteristic(self.form, s.c1):
                raise InputError(
                    f"basic class {s.c1.coords} is not characteristic"
                )

    @property
    def b2(self) -> int:
        return self.form.rank

    def support(self) -> tuple[SpincData, ...]:
        """Basic classes with nonzero invariant."""
        return tuple(s for s in self.basic_classes if s.sw != 0)

    def is_simple_type(self) -> bool:
        target = c1_squared(self)
        return all(square(self.form, s.c1) == target for s in self.support())


def c1_squared(X: FourManifoldData) -> int:
    """2*chi + 3*sigma, the complex-surface value of c1^2."""
    return 2 * X.chi + 3 * X.sigma


def holomorphic_euler(X: FourManifoldData) -> int:
    """(chi + sigma)/4."""
    return _exact_div(X.chi + X.sigma, 4, "(chi+sigma)/4")


def c_of_X(X: FourManifoldData) -> int:
    """-(7*chi + 11*sigma)/4, equal to chi_h - c1^2."""
    return _exact_div(-(7 * X.chi + 11 * X.sigma), 4, "-(7chi+11sigma)/4")


def dims_asd(X: FourManifoldData, t: SpinuData) -> tuple[int, int]:
    """(d_a, n_a) for a spin-u structure:

    d_a = -2 p1 - (3/2)(chi+sigma),  n_a = (p1 + c1(t)^2 - sigma)/4.
    """
    d_a = -2 * t.p1 - 6 * holomorphic_euler(X)
    n_a = _exact_div(t.p1 + square(X.form, t.c1) - X.sigma, 4, "n_a")
    return d_a, n_a


def dim_sw(X: FourManifoldData, s: SpincData) -> int:
    """Expected dimension (c1(s)^2 - 2chi - 3sigma)/4 of the monopole space."""
    d = _exact_div(square(X.form, s.c1) - c1_squared(X), 4, "d_s")
    if d < 0 and s.sw != 0:
        raise NegativeDimension(
            f"nonzero invariant with negative dimension d_s = {d}"
        )
    return d


def normal_indices(
    X: FourManifoldData, t: SpinuData, s: SpincData
) -> tuple[int, int]:
    """(n', n'') of the normal deformation operator at a reducible:

    n'  = -(c1(t)-c1(s))^2 - (chi+sigma)/2,
    n'' = ((c1(s)-2 c1(t))^2 - sigma)/8.
    """
    diff = t.c1 - s.c1
    n1 = -square(X.form, diff) - 2 * holomorphic_euler(X)
    n2 = _exact_div(
        square(X.form, s.c1 - 2 * t.c1) - X.sigma, 8, "n''"
    )
    return n1, n2


def level(X: FourManifoldData, t: SpinuData, s: SpincData) -> int:
    """Stratum level ((c1(s) - c1(t))^2 - p1(t)) / 4."""
    return _exact_div(square(X.form, s.c1 - t.c1) - t.p1, 4, "level")


class RAndIReport(Value):
    per_class: tuple[int, ...]
    r_min: int
    i_value: int


def r_and_i(
    X: FourManifoldData, lam: CohomologyClass, spinc_list: Sequence[SpincData]
) -> RAndIReport:
    """r(lam, c1) = -(c1-lam)^2 - (3/4)(chi+sigma) per class, its minimum
    over the invariant's support, and i(lam) = lam^2 + c(X) + chi + sigma."""
    three_quarter = 3 * holomorphic_euler(X)
    per = tuple(
        -square(X.form, s.c1 - lam) - three_quarter for s in spinc_list
    )
    supported = [r for r, s in zip(per, spinc_list) if s.sw != 0]
    if not supported:
        raise EmptySupport("r(lam) needs at least one class with sw != 0")
    i_val = square(X.form, lam) + c_of_X(X) + X.chi + X.sigma
    return RAndIReport(per, min(supported), i_val)


def degree_parity_ok(X: FourManifoldData, w: CohomologyClass, deg_z: int) -> bool:
    """Mod-8 rule an invariant's argument degree must satisfy:
    deg(z) = -2 w^2 - (3/2)(chi+sigma) (mod 8)."""
    rhs = -2 * square(X.form, w) - 6 * holomorphic_euler(X)
    return (deg_z - rhs) % 8 == 0


def orientation_sign(
    X: FourManifoldData, w: CohomologyClass, t: SpinuData, s: SpincData
) -> int:
    """(-1)^((w - c1(L))^2 / 4) with c1(L) = c1(t) - c1(s)."""
    shifted = w - (t.c1 - s.c1)
    expo = _exact_div(square(X.form, shifted), 4, "(w - c1(L))^2/4")
    return -1 if expo % 2 else 1


def blow_up_manifold(
    X: FourManifoldData,
) -> tuple[FourManifoldData, CohomologyClass]:
    """Blow-up: chi+1, sigma-1, form + <-1>; basic classes are not carried
    over automatically (build them with blow_up_spinc as needed)."""
    new_form, e = blow_up(X.form)
    xt = FourManifoldData(
        name=X.name + "#bar(CP2)",
        chi=X.chi + 1,
        sigma=X.sigma - 1,
        form=new_form,
        basic_classes=(),
    )
    return xt, e


def _extend(v: CohomologyClass, e_coeff: int = 0) -> CohomologyClass:
    return CohomologyClass(v.coords + (e_coeff,))


def blow_up_spinc(
    s: SpincData, k: int, X: FourManifoldData, X_blown: FourManifoldData
) -> SpincData:
    """Spin-c structure on the blow-up with c1 -> c1 + (2k-1) e.

    k = 1 and k = 0 give the two standard companions c1 +- e.  The
    invariant value transfers unchanged when the blown-up dimension
    d_s - k(k-1) stays non-negative, and is zero otherwise.
    """
    d_new = dim_sw(X, s) - k * (k - 1)
    sw = s.sw if d_new >= 0 else 0
    moment = s.moment if d_new >= 0 else None
    out = SpincData(c1=_extend(s.c1, 2 * k - 1), sw=sw, moment=moment)
    X_blown.form._require_rank(out.c1)
    return out


def blow_up_spinu(t: SpinuData) -> SpinuData:
    """Spin-u structure on the blow-up: c1 unchanged, p1 - 1, w + e."""
    return SpinuData(
        c1=_extend(t.c1, 0),
        p1=t.p1 - 1,
        w=_extend(t.w, 1),
    )


def require_odd_b_plus(X: FourManifoldData) -> None:
    """Witten-verification entry requirement: odd b2+ >= 3."""
    if X.form.b_plus < 3 or X.form.b_plus % 2 == 0:
        raise HypothesisViolated(
            f"b2+ = {X.form.b_plus} but verification requires odd b2+ >= 3"
        )
