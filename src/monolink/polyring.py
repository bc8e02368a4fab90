"""Truncated multivariate polynomials over exact rationals.

The carrier for all series work: sparse terms keyed by exponent tuples,
truncated at a total-degree bound.  A polynomial stores integer numerators
over one positive common denominator `den`, in lowest terms, so every ring
operation is integer arithmetic with at most one gcd per result.
`Fraction`s appear only at the boundary: constructor input, `coefficient`,
`constant_term`, `evaluate` and scalars; every input value must be an int
or a Fraction, never a float.  `**` and `exp_series` generate their
terms directly, without products of intermediate powers: `_sum_of_powers`
adds walks num/den f p^n, the terms of p^n from one multinomial composition
walk times a polynomial factor f, straight into one dict; the base p comes
as a `_power_table` that its caller builds once for all the walks of p.
Arithmetic between operands requires equal variable counts and takes the
smaller bound.  Rendering is deterministic (graded lexicographic order,
coefficients as p/q).  `Span` gives series that involve only a few linear
forms <v, h> and Q(h) a ring with a few variables, and expands its results
back to the h-basis.
"""

from __future__ import annotations

import sys
from fractions import Fraction
from functools import cached_property
from itertools import zip_longest
from math import comb, factorial, gcd, lcm, perm
from operator import add as _add
from typing import Iterable, Mapping, Optional, Sequence, Union

from ._value import Value
from .errors import DimensionMismatch, InputError, NonzeroConstantTerm
from .lattice import CohomologyClass, IntersectionForm

Scalar = Union[int, Fraction]


def _require_bound(bound: int) -> None:
    if bound < 0:
        raise InputError("degree bound must be non-negative")


def _exact(value, what: str) -> Scalar:
    """`value` itself if it is an int or a Fraction; InputError otherwise."""
    if not isinstance(value, (int, Fraction)):
        raise InputError(f"{what} {value!r} is not an int or a Fraction")
    return value


def _over_common_den(values: Iterable[Scalar]) -> tuple[list[int], int]:
    """(numerators, den) with value_i = numerator_i / den and den the lcm of
    the denominators: gcd(den, *numerators) = 1 for values in lowest terms."""
    values = list(values)
    den = lcm(*(v.denominator for v in values))
    return [v.numerator * (den // v.denominator) for v in values], den


class TruncatedPolynomial(Value):
    """Polynomial with rational coefficients, truncated in total degree.

    The coefficient of x^e is terms[e] / den: `terms` maps exponent tuples
    to nonzero ints and `den` (a plain attribute, not a field) is a positive
    int with gcd(den, *terms.values()) = 1, and den = 1 for the zero
    polynomial.  That form is unique, so `==` and `hash` compare exactly.
    The constructor takes int or Fraction coefficients and checks every exponent.
    """

    nvars: int
    bound: int
    terms: Mapping[tuple[int, ...], int] = {}  # read once: __post_init__ stores a new dict

    def __post_init__(self) -> None:
        _require_bound(self.bound)
        clean = {}
        for expo, coeff in self.terms.items():
            if len(expo) != self.nvars:
                raise DimensionMismatch("exponent length != variable count")
            if any(x < 0 for x in expo):
                raise InputError(f"negative exponent in {tuple(expo)}")
            c = _exact(coeff, "coefficient")
            if c != 0 and sum(expo) <= self.bound:
                clean[tuple(expo)] = c
        nums, den = _over_common_den(clean.values())
        object.__setattr__(self, "terms", dict(zip(clean, nums)))
        object.__setattr__(self, "den", den)

    # -- ring structure -------------------------------------------------

    @classmethod
    def _fast(
        cls, nvars: int, bound: int, clean_terms: dict, den: int = 1
    ) -> "TruncatedPolynomial":
        """Constructor bypassing validation; callers guarantee clean terms
        (nonzero ints, within the bound).  Divides out gcd(den, *terms)."""
        if den != 1:
            g = gcd(den, *clean_terms.values())
            if g != 1:
                den //= g
                clean_terms = {e: c // g for e, c in clean_terms.items()}
        obj = object.__new__(cls)
        object.__setattr__(obj, "nvars", nvars)
        object.__setattr__(obj, "bound", bound)
        object.__setattr__(obj, "terms", clean_terms)
        object.__setattr__(obj, "den", den)
        return obj

    def _align(self, other: "TruncatedPolynomial") -> int:
        if self.nvars != other.nvars:
            raise DimensionMismatch(
                f"variable counts differ: {self.nvars} vs {other.nvars}"
            )
        return min(self.bound, other.bound)

    def __add__(self, other: "TruncatedPolynomial") -> "TruncatedPolynomial":
        bound = self._align(other)
        # Rescale both numerators to den = lcm(self.den, other.den).
        g = gcd(self.den, other.den)
        mine, theirs = other.den // g, self.den // g
        terms = {
            e: c * mine
            for e, c in self.terms.items()
            if bound == self.bound or sum(e) <= bound
        }
        for expo, c in other.terms.items():
            if bound < other.bound and sum(expo) > bound:
                continue
            c *= theirs
            acc = terms.get(expo)
            total = c if acc is None else acc + c
            if total:
                terms[expo] = total
            elif acc is not None:
                del terms[expo]
        return TruncatedPolynomial._fast(self.nvars, bound, terms, self.den * mine)

    def __sub__(self, other: "TruncatedPolynomial") -> "TruncatedPolynomial":
        return self + (-1) * other

    def __neg__(self) -> "TruncatedPolynomial":
        return (-1) * self

    def __rmul__(self, k: Scalar) -> "TruncatedPolynomial":
        if _exact(k, "scalar") == 0:
            return TruncatedPolynomial._fast(self.nvars, self.bound, {})
        num = k.numerator
        return TruncatedPolynomial._fast(
            self.nvars,
            self.bound,
            {e: num * c for e, c in self.terms.items()},
            self.den * k.denominator,
        )

    def __mul__(self, other) -> "TruncatedPolynomial":
        if not isinstance(other, TruncatedPolynomial):
            return self.__rmul__(other)
        bound = self._align(other)
        left = sorted(
            ((sum(e), e, c) for e, c in self.terms.items()), key=lambda t: t[0]
        )
        right = sorted(
            ((sum(e), e, c) for e, c in other.terms.items()), key=lambda t: t[0]
        )
        out: dict[tuple[int, ...], int] = {}
        get = out.get
        for d1, e1, c1 in left:
            if right and d1 + right[0][0] > bound:
                break
            for d2, e2, c2 in right:
                if d1 + d2 > bound:
                    break
                key = tuple(map(_add, e1, e2))
                acc = get(key)
                out[key] = c1 * c2 if acc is None else acc + c1 * c2
        for key in [k for k, v in out.items() if not v]:
            del out[key]
        return TruncatedPolynomial._fast(
            self.nvars, bound, out, self.den * other.den
        )

    def __pow__(self, n: int) -> "TruncatedPolynomial":
        """self^n in one `_sum_of_powers` walk; n < 0 goes via `inverse`."""
        if n < 0:
            return self.inverse() ** (-n)
        return _sum_of_powers(self.nvars, self.bound, [(_power_table(self, n), n, None, 1, 1)])

    # -- series operations ----------------------------------------------

    def constant_term(self) -> Fraction:
        return self.coefficient((0,) * self.nvars)

    def exp_series(self) -> "TruncatedPolynomial":
        """sum_k self^k / k!, requiring a zero constant term.

        The terms commute, so this is the product over the terms c x^e of
        sum_{k <= bound/|e|} (c/den)^k x^(ke) / k!, each factor built
        directly over den^K K! with numerators c^k den^(K-k) K!/k!."""
        if (0,) * self.nvars in self.terms:
            raise NonzeroConstantTerm("exp needs zero constant term")
        out, den = None, self.den
        for e, c in self.terms.items():
            K = self.bound // sum(e)
            nums = {
                tuple(k * x for x in e): c**k * den ** (K - k) * perm(K, K - k)
                for k in range(K + 1)
            }
            factor = TruncatedPolynomial._fast(
                self.nvars, self.bound, nums, den**K * factorial(K)
            )
            out = factor if out is None else out * factor
        return constant(1, self.nvars, self.bound) if out is None else out

    def inverse(self) -> "TruncatedPolynomial":
        """Multiplicative inverse, requiring a nonzero constant term."""
        c0 = self.constant_term()
        if c0 == 0:
            raise ZeroDivisionError("inverse needs nonzero constant term")
        # self = c0 (1 - u);  1/self = (1/c0) sum u^k
        u = constant(1, self.nvars, self.bound) - Fraction(1, 1) / c0 * self
        out = constant(1, self.nvars, self.bound)
        term = constant(1, self.nvars, self.bound)
        for _ in range(self.bound):
            term = term * u
            if term.is_zero():
                break
            out = out + term
        return Fraction(1, 1) / c0 * out

    # -- structure queries ----------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def homogeneous_part(self, d: int) -> "TruncatedPolynomial":
        if d < 0:
            raise InputError("degree must be non-negative")
        return self.homogeneous_parts(range(d, d + 1))[0]

    def homogeneous_parts(self, degrees: range) -> list["TruncatedPolynomial"]:
        """[homogeneous_part(d) for d in degrees], in one pass over the terms."""
        parts = {d: {} for d in degrees}
        for e, c in self.terms.items():
            parts.get(sum(e), {})[e] = c  # a degree not asked for: a throwaway dict
        make = TruncatedPolynomial._fast
        return [make(self.nvars, self.bound, part, self.den) for part in parts.values()]

    def truncate(self, bound: int) -> "TruncatedPolynomial":
        _require_bound(bound)
        return TruncatedPolynomial._fast(
            self.nvars,
            bound,
            {e: c for e, c in self.terms.items() if sum(e) <= bound},
            self.den,
        )

    def coefficient(self, expo: Sequence[int]) -> Fraction:
        return Fraction(self.terms.get(tuple(expo), 0), self.den)

    def evaluate(self, values: Sequence[Scalar]) -> Fraction:
        if len(values) != self.nvars:
            raise DimensionMismatch("evaluation point has wrong length")
        # values_i = nums_i / d: a term of degree k times d^(top - k) is an int.
        nums, d = _over_common_den(_exact(v, "value") for v in values)
        top = max(map(sum, self.terms), default=0)
        total = 0
        for expo, c in self.terms.items():
            for a, e in zip(nums, expo):
                if e:
                    c *= a**e
            total += c * d ** (top - sum(expo))
        return Fraction(total, self.den * d**top)

    def __eq__(self, other) -> bool:
        if not isinstance(other, TruncatedPolynomial):
            return NotImplemented
        return (
            self.nvars == other.nvars
            and self.den == other.den
            and dict(self.terms) == dict(other.terms)
        )

    def __hash__(self):
        return hash((self.nvars, self.den, frozenset(self.terms.items())))

    # -- deterministic text form ------------------------------------------

    def render(self) -> str:
        """Graded-lex sorted text form, e.g. '1 + 2*h1*h2 - 1/2*h3^2'."""
        den, names, pieces = self.den, [f"h{i + 1}" for i in range(self.nvars)], []
        for expo, num in sorted(
            self.terms.items(), key=lambda ec: (sum(ec[0]), [-x for x in ec[0]])
        ):
            g = gcd(num, den)
            p, q = abs(num) // g, den // g
            mono = [n if e == 1 else f"{n}^{e}" for n, e in zip(names, expo) if e]
            coeff = [] if p == q == 1 and mono else [str(p) if q == 1 else f"{p}/{q}"]
            pieces.append(("- " if num < 0 else "+ ") + "*".join(coeff + mono))
        text = " ".join(pieces) or "+ 0"
        return text[2:] if text[0] == "+" else "-" + text[2:]

    def digest(self) -> str:
        """12 hex digits of the sha256 of `render()`, by the builtin `_sha256`
        (`_sha2` from 3.12) if any: `hashlib`, imported only here, loads OpenSSL."""
        try:
            sha = __import__("_sha2" if sys.version_info >= (3, 12) else "_sha256")
        except ImportError:
            import hashlib as sha
        return sha.sha256(self.render().encode("utf-8")).hexdigest()[:12]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"TruncatedPolynomial({self.render()!r}, bound={self.bound})"


def _power_table(p: TruncatedPolynomial, top: int) -> tuple:
    """(p.den, [(|e|, [(k e, c^k) for k <= top])] over p's terms c x^e, sorted
    by degree): the base of every `_sum_of_powers` walk of p^n, n <= top."""
    return p.den, [
        (d, [(tuple([k * x for x in e]), c**k) for k in range(top + 1)])
        for d, e, c in sorted((sum(e), e, c) for e, c in p.terms.items())
    ]


def _sum_of_powers(nvars: int, bound: int, walks: list) -> TruncatedPolynomial:
    """sum of num/den f p^n over the walks (table, n, f, num, den), table the
    `_power_table` of p to a top of at least n, f a polynomial within `bound`
    or None for 1, and num, den ints with den > 0, into one dict over the lcm
    of den f.den p.den^n, truncated at `bound`.  Per walk and term of f, one
    pass over the compositions k of n over p's terms (n!/k! prod_t c_t^k_t from
    running binomials and the table's powers), cut once no completion fits."""
    dens = [wden * pden**n * (1 if f is None else f.den) for (pden, _), n, f, _, wden in walks]
    den, origin = lcm(*dens), (0,) * nvars
    out: dict[tuple[int, ...], int] = {}
    get = out.get
    for ((_, items), n, f, num, _), wden in zip(walks, dens):
        acc = num * (den // wden)
        starts = [(origin, acc)] if f is None else [(e, acc * c) for e, c in f.terms.items()]
        if n == 0:
            for key, c in starts:
                out[key] = get(key, 0) + c
            continue
        # Sorted by degree, so a term too big for all that is left ends a walk.
        last = len(items) - 1
        # (start, left, deg, expo, acc): the next nonzero k_t has t >= start,
        # and the last term takes the rest.
        stack = [(0, n, sum(expo), expo, c) for expo, c in starts]
        while stack:
            start, left, deg, expo, acc = stack.pop()
            for t in range(start, last + 1):
                d, steps = items[t]
                if deg + left * d > bound:
                    break
                for k in range(left if t == last else 1, left + 1):
                    ke, ck = steps[k]
                    key, value = tuple(map(_add, expo, ke)), acc * comb(left, k) * ck
                    if k == left:
                        out[key] = get(key, 0) + value
                    else:
                        stack.append((t + 1, left - k, deg + k * d, key, value))
    clean = {e: c for e, c in out.items() if c}
    return TruncatedPolynomial._fast(nvars, bound, clean, den)


def zero(nvars: int, bound: int) -> TruncatedPolynomial:
    _require_bound(bound)
    return TruncatedPolynomial._fast(nvars, bound, {})


def constant(value: Scalar, nvars: int, bound: int) -> TruncatedPolynomial:
    _require_bound(bound)
    value = _exact(value, "constant")
    terms = {(0,) * nvars: value.numerator} if value else {}
    return TruncatedPolynomial._fast(nvars, bound, terms, value.denominator)


def _linear(
    coeffs: Iterable[tuple[int, int]], nvars: int, bound: int, den: int = 1
) -> TruncatedPolynomial:
    """sum_i c_i x_i / den over the (i, c_i) pairs given, c_i integers."""
    _require_bound(bound)
    terms = {
        (0,) * i + (1,) + (0,) * (nvars - i - 1): c for i, c in coeffs if c and bound
    }
    return TruncatedPolynomial._fast(nvars, bound, terms, den)


def variable(i: int, nvars: int, bound: int) -> TruncatedPolynomial:
    if not 0 <= i < nvars:
        raise InputError(f"variable index {i} outside 0..{nvars - 1}")
    return _linear([(i, 1)], nvars, bound)


def linear_form(
    K: CohomologyClass, Q: IntersectionForm, bound: int
) -> TruncatedPolynomial:
    """Degree-one polynomial <K, h> = sum_i (K^T gram)_i h_i."""
    Q._require_rank(K)
    return _linear(enumerate(Q.apply(K)), Q.rank, bound)


def quadratic_form(Q: IntersectionForm, bound: int) -> TruncatedPolynomial:
    """Degree-two polynomial Q(h, h) = h^T gram h, from the Gram rows' nonzeros."""
    _require_bound(bound)
    terms = {}
    for i, row in enumerate(Q._rows if bound >= 2 else ()):
        for j, g in row:
            if j >= i:
                expo = tuple(int(x == i) + int(x == j) for x in range(Q.rank))
                terms[expo] = g if i == j else 2 * g
    return TruncatedPolynomial._fast(Q.rank, bound, terms)


class Span:
    """Coordinates for series that only involve <v, h> for v in `classes`
    and Q(h).

    Fraction-free row reduction keeps a linearly independent subset v_1..v_k
    of the classes, in the order given; the variables x_i stand for <v_i, h>.
    While k < rank, two more degree-one variables u, v follow the x_i and
    Q(h) is the monomial u*v, so the ordinary total-degree truncation is
    the truncation in h.  `linear`, `quadratic` and the ring operations
    never leave the subring Q[x, uv]; `expand` maps it back to the h-basis.
    When k = rank the variables are h itself: `linear` is `linear_form`,
    `quadratic` is `quadratic_form` and `expand` returns its argument.

    Exactness: when k < rank, Q(h) is not a polynomial in the k forms x_i,
    because its rank exceeds k.  The field Q(x) is algebraically closed in
    Q(h), so Q(h) is transcendental over Q(x), and x^a (uv)^b ->
    prod <v_i,h>^(a_i) Q(h)^b is an injective graded ring map
    Q[x, uv] -> Q[h].  Equality and `is_zero` in the reduced ring are
    therefore exact, not a test at random points.
    """

    def __init__(
        self, form: IntersectionForm, classes: Sequence[CohomologyClass]
    ) -> None:
        self.form = form
        self.basis: list[CohomologyClass] = []
        # Integer rows in insertion order, each reduced against the earlier
        # ones and kept sparse: (pivot, row, E) with row = sum_i E_i v_i, the
        # integers row and E coprime and row positive at its pivot.
        self._echelon: list[tuple[int, list, list]] = []
        # cls.coords -> (combo, m), all integers with m > 0: <cls, h> =
        # sum_i combo_i x_i / m, per class reduced (`_fast` divides out the gcd).
        self._combos: dict[tuple[int, ...], tuple[list[int], int]] = {}
        for cls in classes:
            row, combo, m = self._reduce(cls)
            pivot = next((j for j, c in enumerate(row) if c), None)
            if pivot is None:
                self._combos[cls.coords] = (combo, m)
                continue
            # row = m cls - sum_i combo_i v_i, and cls becomes the next v_i.
            coeffs = [-c for c in combo] + [m]
            g = gcd(*row, *coeffs) * (1 if row[pivot] > 0 else -1)
            erow = [(j, c // g) for j, c in enumerate(row) if c]
            self._echelon.append((pivot, erow, [c // g for c in coeffs]))
            self._combos[cls.coords] = ([0] * len(combo) + [1], 1)
            self.basis.append(cls)
        k = self.k = len(self.basis)
        self.full_rank = k == form.rank
        self.nvars = k if self.full_rank else k + 2
        if self.full_rank:
            self._quadratic_poly = quadratic_form(form, 2)
        else:
            self._quadratic_poly = TruncatedPolynomial._fast(
                self.nvars, 2, {(0,) * k + (1, 1): 1}
            )

    def _reduce(self, cls: CohomologyClass) -> tuple[list, list, int]:
        """(remainder, c, m), all integers with m > 0, such that
        m cls = remainder + sum_i c_i v_i (fraction-free elimination)."""
        self.form._require_rank(cls)
        row = list(cls.coords)
        combo = [0] * len(self.basis)
        m = 1
        for pivot, erow, ecombo in self._echelon:
            f = row[pivot]
            if f:
                # row <- s row - t erow clears the pivot; s > 0 keeps m > 0.
                g = gcd(erow[0][1], f)
                s, t = erow[0][1] // g, f // g
                row, combo, m = [s * c for c in row], [s * c for c in combo], s * m
                for j, b in erow:
                    row[j] -= t * b
                for i, b in enumerate(ecombo):
                    combo[i] += t * b
        return row, combo, m

    def linear(
        self, cls: CohomologyClass, bound: int, minus: Optional[CohomologyClass] = None
    ) -> TruncatedPolynomial:
        """<cls - minus, h> in the span's variables (minus = 0 when omitted);
        both classes must lie in the span."""
        nums, den = self._combo(cls)
        if minus is not None:
            sub, sub_den = self._combo(minus)
            nums = [a * sub_den - b * den for a, b in zip_longest(nums, sub, fillvalue=0)]
            den *= sub_den
        return _linear(enumerate(nums), self.nvars, bound, den)

    def _combo(self, cls: CohomologyClass) -> tuple[Sequence[int], int]:
        """(nums, den): <cls, h> = sum_i nums_i x_i / den."""
        if self.full_rank:
            return self.form.apply(cls), 1
        entry = self._combos.get(cls.coords)
        if entry is None:
            row, combo, m = self._reduce(cls)
            if any(row):
                raise InputError(f"class {cls.coords} is not in the span")
            entry = self._combos[cls.coords] = (combo, m)
        return entry

    def quadratic(self, bound: int) -> TruncatedPolynomial:
        """Q(h): u*v while k < rank, `quadratic_form` when k = rank."""
        return self._quadratic_poly.truncate(bound)

    def expand(self, p: TruncatedPolynomial) -> TruncatedPolynomial:
        """p in the h-basis: x^a (uv)^b -> prod <v_i,h>^(a_i) Q(h)^b, as one
        `_sum_of_powers` with a walk per term.  A walk's base is the first of
        the factors <v_1,h>..<v_k,h>, Q(h) with a nonzero power, and its
        polynomial factor the product of the later factors' powers: itself
        one walk.  A call builds each factor's power table and suffix product once."""
        if p.nvars != self.nvars:
            raise DimensionMismatch(
                f"variable counts differ: {p.nvars} vs {self.nvars}"
            )
        if self.full_rank:
            return p
        rank, products = self.form.rank, {}
        factors = [_power_table(f, p.bound) for f in self._h_factors]

        def walk(powers: tuple, num: int, den: int) -> tuple:
            """num/den prod f^e over the last len(powers) factors f, powers e."""
            i = next((j for j, e in enumerate(powers) if e), 0)
            rest = powers[i + 1 :]
            f = products.get(rest)
            if f is None and any(rest):
                # Q(h) is the last factor: degree 2 per power.
                f = products[rest] = _sum_of_powers(
                    rank, sum(rest) + rest[-1], [walk(rest, 1, 1)]
                )
            return factors[len(factors) - len(powers) + i], powers[i], f, num, den

        walks = []
        for expo, c in p.terms.items():
            a, (b, b_v) = expo[: self.k], expo[self.k :]
            if b != b_v:
                raise InputError(f"u^{b} v^{b_v} is not a power of Q(h) = u*v")
            walks.append(walk(a + (b,), c, p.den))
        return _sum_of_powers(rank, p.bound, walks)

    @cached_property
    def _h_factors(self) -> list[TruncatedPolynomial]:
        """[<v_1,h>, .., <v_k,h>, Q(h)] in the h-basis, built on the first expand."""
        return [linear_form(v, self.form, 1) for v in self.basis] + [
            quadratic_form(self.form, 2)
        ]
