"""Truncated multivariate polynomials over exact rationals.

The carrier for all series work: sparse terms keyed by exponent tuples,
truncated at a total-degree bound.  Arithmetic between operands requires
equal variable counts and takes the smaller bound.  Rendering is
deterministic (graded lexicographic order, coefficients as p/q).  `Span`
gives series that involve only a few linear forms <v, h> and Q(h) a ring
with a few variables, and expands its results back to the h-basis.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from operator import add as _add
from typing import Iterable, Mapping, Sequence, Union

from .errors import DimensionMismatch, InputError, NonzeroConstantTerm
from .lattice import CohomologyClass, IntersectionForm, pair

Scalar = Union[int, Fraction]

__all__ = [
    "TruncatedPolynomial",
    "zero",
    "constant",
    "variable",
    "linear_form",
    "quadratic_form",
    "Span",
]


@dataclass(frozen=True)
class TruncatedPolynomial:
    """Polynomial with rational coefficients, truncated in total degree."""

    nvars: int
    bound: int
    terms: Mapping[tuple[int, ...], Fraction] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.bound < 0:
            raise InputError("degree bound must be non-negative")
        clean = {}
        for expo, coeff in self.terms.items():
            if sum(expo) > self.bound:
                continue
            c = Fraction(coeff)
            if c != 0:
                if len(expo) != self.nvars:
                    raise DimensionMismatch("exponent length != variable count")
                clean[tuple(expo)] = c
        object.__setattr__(self, "terms", clean)

    # -- ring structure -------------------------------------------------

    @classmethod
    def _fast(cls, nvars: int, bound: int, clean_terms: dict) -> "TruncatedPolynomial":
        """Constructor bypassing validation; callers guarantee clean terms."""
        obj = object.__new__(cls)
        object.__setattr__(obj, "nvars", nvars)
        object.__setattr__(obj, "bound", bound)
        object.__setattr__(obj, "terms", clean_terms)
        return obj

    def _align(self, other: "TruncatedPolynomial") -> int:
        if self.nvars != other.nvars:
            raise DimensionMismatch(
                f"variable counts differ: {self.nvars} vs {other.nvars}"
            )
        return min(self.bound, other.bound)

    def __add__(self, other: "TruncatedPolynomial") -> "TruncatedPolynomial":
        bound = self._align(other)
        terms = dict(self.terms) if bound == self.bound else self.truncate(bound).terms
        for expo, c in other.terms.items():
            if bound < other.bound and sum(expo) > bound:
                continue
            acc = terms.get(expo)
            total = c if acc is None else acc + c
            if total:
                terms[expo] = total
            elif acc is not None:
                del terms[expo]
        return TruncatedPolynomial._fast(self.nvars, bound, terms)

    def __sub__(self, other: "TruncatedPolynomial") -> "TruncatedPolynomial":
        return self + (-1) * other

    def __neg__(self) -> "TruncatedPolynomial":
        return (-1) * self

    def __rmul__(self, k: Scalar) -> "TruncatedPolynomial":
        k = Fraction(k)
        if k == 0:
            return TruncatedPolynomial._fast(self.nvars, self.bound, {})
        return TruncatedPolynomial._fast(
            self.nvars, self.bound, {e: k * c for e, c in self.terms.items()}
        )

    def __mul__(self, other) -> "TruncatedPolynomial":
        if isinstance(other, (int, Fraction)):
            return self.__rmul__(other)
        bound = self._align(other)
        left = sorted(
            ((sum(e), e, c) for e, c in self.terms.items()), key=lambda t: t[0]
        )
        right = sorted(
            ((sum(e), e, c) for e, c in other.terms.items()), key=lambda t: t[0]
        )
        out: dict[tuple[int, ...], Fraction] = {}
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
        return TruncatedPolynomial._fast(self.nvars, bound, out)

    def __pow__(self, n: int) -> "TruncatedPolynomial":
        if n < 0:
            return self.inverse() ** (-n)
        out = constant(1, self.nvars, self.bound)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    # -- series operations ----------------------------------------------

    def constant_term(self) -> Fraction:
        return self.terms.get((0,) * self.nvars, Fraction(0))

    def exp_series(self) -> "TruncatedPolynomial":
        """sum_k self^k / k!, requiring a zero constant term."""
        if self.constant_term() != 0:
            raise NonzeroConstantTerm("exp needs zero constant term")
        out = constant(1, self.nvars, self.bound)
        term = constant(1, self.nvars, self.bound)
        for k in range(1, self.bound + 1):
            term = Fraction(1, k) * (term * self)
            if term.is_zero():
                break
            out = out + term
        return out

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

    def total_degree(self) -> int:
        return max((sum(e) for e in self.terms), default=0)

    def homogeneous_part(self, d: int) -> "TruncatedPolynomial":
        if d < 0:
            raise InputError("degree must be non-negative")
        return TruncatedPolynomial._fast(
            self.nvars,
            self.bound,
            {e: c for e, c in self.terms.items() if sum(e) == d},
        )

    def truncate(self, bound: int) -> "TruncatedPolynomial":
        if bound < 0:
            raise InputError("degree bound must be non-negative")
        return TruncatedPolynomial._fast(
            self.nvars,
            bound,
            {e: c for e, c in self.terms.items() if sum(e) <= bound},
        )

    def coefficient(self, expo: Sequence[int]) -> Fraction:
        return self.terms.get(tuple(expo), Fraction(0))

    def evaluate(self, values: Sequence[Scalar]) -> Fraction:
        if len(values) != self.nvars:
            raise DimensionMismatch("evaluation point has wrong length")
        vals = [Fraction(v) for v in values]
        total = Fraction(0)
        for expo, coeff in sorted(self.terms.items()):
            prod = coeff
            for v, e in zip(vals, expo):
                if e:
                    prod *= v**e
            total += prod
        return total

    def __eq__(self, other) -> bool:
        if not isinstance(other, TruncatedPolynomial):
            return NotImplemented
        return self.nvars == other.nvars and dict(self.terms) == dict(other.terms)

    def __hash__(self):
        return hash((self.nvars, frozenset(self.terms.items())))

    # -- deterministic text form ------------------------------------------

    def render(self) -> str:
        """Graded-lex sorted text form, e.g. '1 + 2*h1*h2 - 1/2*h3^2'."""
        if not self.terms:
            return "0"
        pieces = []
        for expo, coeff in sorted(
            self.terms.items(),
            key=lambda ec: (sum(ec[0]), tuple(-x for x in ec[0])),
        ):
            mono = "*".join(
                f"h{i + 1}" if e == 1 else f"h{i + 1}^{e}"
                for i, e in enumerate(expo)
                if e
            )
            if mono:
                body = mono if abs(coeff) == 1 else f"{abs(coeff)}*{mono}"
            else:
                body = str(abs(coeff))
            sign = "-" if coeff < 0 else "+"
            pieces.append((sign, body))
        first_sign, first_body = pieces[0]
        out = ("-" if first_sign == "-" else "") + first_body
        for sign, body in pieces[1:]:
            out += f" {sign} {body}"
        return out

    def digest(self) -> str:
        """Short stable hash of the exact content."""
        h = hashlib.sha256(self.render().encode("utf-8")).hexdigest()
        return h[:12]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"TruncatedPolynomial({self.render()!r}, bound={self.bound})"


def zero(nvars: int, bound: int) -> TruncatedPolynomial:
    return TruncatedPolynomial(nvars, bound, {})


def constant(value: Scalar, nvars: int, bound: int) -> TruncatedPolynomial:
    return TruncatedPolynomial(nvars, bound, {(0,) * nvars: Fraction(value)})


def _linear(
    coeffs: Iterable[tuple[int, Scalar]], nvars: int, bound: int
) -> TruncatedPolynomial:
    """sum_i c_i x_i over the (i, c_i) pairs given."""
    return TruncatedPolynomial(
        nvars,
        bound,
        {tuple(int(j == i) for j in range(nvars)): c for i, c in coeffs if c},
    )


def _quadratic(matrix: Sequence[Sequence[Scalar]], bound: int) -> TruncatedPolynomial:
    """x^T M x for a symmetric matrix M."""
    n = len(matrix)
    terms = {}
    for i in range(n):
        for j in range(i, n):
            if matrix[i][j]:
                expo = [0] * n
                expo[i] += 1
                expo[j] += 1
                terms[tuple(expo)] = matrix[i][j] if i == j else 2 * matrix[i][j]
    return TruncatedPolynomial(n, bound, terms)


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
    """Degree-two polynomial Q(h, h) = h^T gram h."""
    return _quadratic(Q.gram, bound)


class Span:
    """Coordinates for series that only involve <v, h> for v in `classes`
    and Q(h).

    Exact row reduction keeps a linearly independent subset v_1..v_k of the
    classes, in the order given; the variables x_i stand for <v_i, h>.
    While k < rank, two more degree-one variables u, v follow the x_i and
    Q(h) is the monomial u*v, so the ordinary total-degree truncation is
    the truncation in h.  `linear`, `quadratic` and the ring operations
    never leave the subring Q[x, uv]; `expand` maps it back to the h-basis.

    Exactness: when k < rank, Q(h) is not a polynomial in the k forms x_i,
    because its rank exceeds k.  The field Q(x) is algebraically closed in
    Q(h), so Q(h) is transcendental over Q(x), and x^a (uv)^b ->
    prod <v_i,h>^(a_i) Q(h)^b is an injective graded ring map
    Q[x, uv] -> Q[h].  Equality and `is_zero` in the reduced ring are
    therefore exact, not a test at random points.  When k = rank the x_i are
    a basis of the linear forms, there are no u, v, and Q(h) = x^T G^-1 x
    with G the Gram matrix of v_1..v_k.
    """

    def __init__(
        self, form: IntersectionForm, classes: Sequence[CohomologyClass]
    ) -> None:
        self.form = form
        self.basis: list[CohomologyClass] = []
        # Rows in insertion order, each reduced against the earlier ones, scaled
        # to 1 at its pivot and kept sparse, with its combination of the basis.
        self._echelon: list[tuple[int, list, list]] = []
        # cls.coords -> its coefficients in v_1..v_k, for each class reduced.
        self._combos: dict[tuple[int, ...], list] = {}
        for cls in classes:
            row, combo = self._reduce(cls)
            pivot = next((j for j, c in enumerate(row) if c), None)
            if pivot is not None:
                # row = cls - sum_i combo_i v_i, and cls becomes the next v_i.
                scale = 1 / Fraction(row[pivot])
                erow = [(j, c * scale) for j, c in enumerate(row) if c]
                ecombo = [-c * scale for c in combo] + [scale]
                self._echelon.append((pivot, erow, ecombo))
                combo = [0] * len(combo) + [1]
                self.basis.append(cls)
            self._combos[cls.coords] = combo
        k = self.k = len(self.basis)
        self.full_rank = k == form.rank
        self.nvars = k if self.full_rank else k + 2
        if self.full_rank:
            gram = [[Fraction(pair(form, a, b)) for b in self.basis]
                    for a in self.basis]
            self._quadratic_terms = _quadratic(_inverse(gram), 2).terms
        else:
            self._quadratic_terms = {(0,) * k + (1, 1): Fraction(1)}
        self._images: dict = {}

    def _reduce(self, cls: CohomologyClass) -> tuple[list, list]:
        """(remainder, c) with cls = remainder + sum_i c_i v_i."""
        self.form._require_rank(cls)
        row = list(cls.coords)
        combo = [0] * len(self.basis)
        for pivot, erow, ecombo in self._echelon:
            f = row[pivot]
            if f:
                for j, b in erow:
                    row[j] -= f * b
                for i, b in enumerate(ecombo):
                    combo[i] += f * b
        return row, combo

    def linear(self, cls: CohomologyClass, bound: int) -> TruncatedPolynomial:
        """<cls, h> in the variables x_i; cls must lie in the span."""
        combo = self._combos.get(cls.coords)
        if combo is None:
            row, combo = self._reduce(cls)
            if any(row):
                raise InputError(f"class {cls.coords} is not in the span")
            self._combos[cls.coords] = combo
        return _linear(enumerate(combo), self.nvars, bound)

    def quadratic(self, bound: int) -> TruncatedPolynomial:
        """Q(h): u*v while k < rank, x^T G^-1 x when k = rank."""
        return TruncatedPolynomial(self.nvars, bound, self._quadratic_terms)

    def expand(self, p: TruncatedPolynomial) -> TruncatedPolynomial:
        """p in the h-basis: x^a (uv)^b -> prod <v_i,h>^(a_i) Q(h)^b."""
        if p.nvars != self.nvars:
            raise DimensionMismatch(
                f"variable counts differ: {p.nvars} vs {self.nvars}"
            )
        out: dict[tuple[int, ...], Fraction] = {}
        get = out.get
        for expo, c in p.terms.items():
            a = expo[: self.k]
            b = 0
            if not self.full_rank:
                b, b_v = expo[self.k :]
                if b != b_v:
                    raise InputError(f"u^{b} v^{b_v} is not a power of Q(h) = u*v")
            for e, d in self._image(a, b).terms.items():
                acc = get(e)
                out[e] = c * d if acc is None else acc + c * d
        clean = {e: c for e, c in out.items() if c}
        return TruncatedPolynomial._fast(self.form.rank, p.bound, clean)

    @cached_property
    def _h_factors(self) -> tuple[list[TruncatedPolynomial], TruncatedPolynomial]:
        """([<v_i,h> for each i], Q(h)) in the h-basis, built on the first expand."""
        linear = [linear_form(v, self.form, 1) for v in self.basis]
        return linear, quadratic_form(self.form, 2)

    def _image(self, a: tuple[int, ...], b: int) -> TruncatedPolynomial:
        """prod <v_i,h>^(a_i) Q(h)^b, with its degree as bound (memoised)."""
        img = self._images.get((a, b))
        if img is None:
            deg = sum(a) + 2 * b
            if deg == 0:
                img = constant(1, self.form.rank, 0)
            else:
                if b:
                    prev, factor = self._image(a, b - 1), self._h_factors[1]
                else:
                    i = max(j for j, e in enumerate(a) if e)
                    lower = a[:i] + (a[i] - 1,) + a[i + 1 :]
                    prev, factor = self._image(lower, 0), self._h_factors[0][i]
                # Both factors are exact homogeneous polynomials of degree at
                # most deg, so raising their bound to deg drops nothing.
                img = prev.truncate(deg) * factor.truncate(deg)
            self._images[(a, b)] = img
        return img


def _inverse(m: list[list[Fraction]]) -> list[list[Fraction]]:
    """Inverse of a nonsingular rational matrix by Gauss-Jordan elimination."""
    n = len(m)
    aug = [
        list(row) + [Fraction(int(i == j)) for j in range(n)]
        for i, row in enumerate(m)
    ]
    for col in range(n):
        piv = next(r for r in range(col, n) if aug[r][col])
        aug[col], aug[piv] = aug[piv], aug[col]
        scale = 1 / aug[col][col]
        aug[col] = [x * scale for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col]:
                f = aug[r][col]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[col])]
    return [row[n:] for row in aug]
