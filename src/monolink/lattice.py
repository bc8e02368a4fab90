"""Integer-lattice model of H^2(X;Z) with its intersection form.

Classes are integer coordinate vectors in a fixed basis; the form is a
symmetric integer Gram matrix whose positive-eigenvalue count is verified
at construction by exact integer diagonalization.  The lattice is modeled
torsion-free throughout.
"""

from __future__ import annotations

from itertools import combinations, product
from math import gcd
from operator import index
from typing import Iterable, Optional, Sequence

from ._value import Value
from .errors import DimensionMismatch, InputError, NotDivisible, SearchExhausted


def _integers(values: Iterable[int], what: str) -> tuple[int, ...]:
    """The values as ints; a non-iterable or a bool or float entry raises InputError."""
    try:
        values = tuple(values)
        if bool not in map(type, values):
            return tuple(map(index, values))
    except TypeError:
        pass
    raise InputError(f"{what} must be integers, got {values}")


class CohomologyClass(Value):
    """An integral class, stored as coordinates in a fixed lattice basis."""

    coords: tuple[int, ...]

    def __init__(self, coords: Iterable[int]) -> None:
        object.__setattr__(self, "coords", _integers(coords, "class coordinates"))

    def __add__(self, other: "CohomologyClass") -> "CohomologyClass":
        self._require_same_rank(other)
        return CohomologyClass(a + b for a, b in zip(self.coords, other.coords))

    def __sub__(self, other: "CohomologyClass") -> "CohomologyClass":
        self._require_same_rank(other)
        return CohomologyClass(a - b for a, b in zip(self.coords, other.coords))

    def __neg__(self) -> "CohomologyClass":
        return CohomologyClass(-a for a in self.coords)

    def __rmul__(self, k: int) -> "CohomologyClass":
        return CohomologyClass(k * a for a in self.coords)

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coords)

    @property
    def rank(self) -> int:
        return len(self.coords)

    def _require_same_rank(self, other: "CohomologyClass") -> None:
        if len(self.coords) != len(other.coords):
            raise DimensionMismatch(
                f"class ranks differ: {len(self.coords)} vs {len(other.coords)}"
            )

    @staticmethod
    def zero(rank: int) -> "CohomologyClass":
        return CohomologyClass((0,) * rank)

    @staticmethod
    def basis_vector(i: int, rank: int) -> "CohomologyClass":
        if not 0 <= i < rank:
            raise InputError("basis index out of range")
        return CohomologyClass(tuple(1 if j == i else 0 for j in range(rank)))


def _signature_counts(gram: Sequence[Sequence[int]]) -> tuple[int, int, int]:
    """Exact (positive, negative, zero) inertia counts of a symmetric matrix.

    The counts add over the connected components of the nonzero pattern (an
    orthogonal sum), so each component is eliminated on its own.
    """
    n = len(gram)
    seen = [False] * n
    counts = [0, 0, 0]
    for start in range(n):
        if seen[start]:
            continue
        seen[start] = True
        comp = [start]
        for i in comp:  # grows while it is walked
            for j, g in enumerate(gram[i]):
                if g and not seen[j]:
                    seen[j] = True
                    comp.append(j)
        part = _inertia([[gram[i][j] for j in comp] for i in comp])
        counts = [a + b for a, b in zip(counts, part)]
    return tuple(counts)


def _inertia(m: list[list[int]]) -> tuple[int, int, int]:
    """Inertia of a symmetric integer matrix by integer congruence
    elimination.  A pivot d = m[p][p] != 0 splits off with its sign, and the
    rest becomes |d| times its Schur complement: the row op r <- |d| r -
    sign(d) f_r p and the same column op, with f the pivot row, and the
    content divided out (positive scalings keep the inertia).  When every
    diagonal entry vanishes but an off-diagonal survives, the basis change
    e_i -> e_i + e_j manufactures a nonzero diagonal entry.
    """
    pos = neg = 0
    while m:
        p = next((i for i, row in enumerate(m) if row[i]), None)
        if p is None:
            hit = next(
                ((i, j) for i, row in enumerate(m) for j, x in enumerate(row) if x), None
            )
            if hit is None:
                return pos, neg, len(m)
            i, j = hit
            m[i] = [a + b for a, b in zip(m[i], m[j])]
            for row in m:
                row[i] += row[j]
            p = i
        d = m[p][p]
        if d > 0:
            pos += 1
        else:
            neg += 1
        f = m[p]
        sf = f if d > 0 else [-x for x in f]
        d = abs(d)
        m = [
            [d * x - fi * sf[j] for j, x in enumerate(row) if j != p]
            for i, (row, fi) in enumerate(zip(m, f))
            if i != p
        ]
        g = gcd(*(x for row in m for x in row))
        if g > 1:
            m = [[x // g for x in row] for row in m]
    return pos, neg, 0


class IntersectionForm(Value):
    """Symmetric integer Gram matrix with its verified positive-eigenvalue count."""

    gram: tuple[tuple[int, ...], ...]
    b_plus: int

    def __init__(self, gram: Sequence[Sequence[int]], b_plus: Optional[int] = None) -> None:
        try:
            rows = tuple(_integers(row, "gram entries") for row in gram)
        except TypeError:  # gram itself is not iterable
            raise InputError(f"gram entries must be integers, got {gram}") from None
        n = len(rows)
        if any(len(row) != n for row in rows):
            raise DimensionMismatch("gram matrix must be square")
        for i in range(n):
            for j in range(i + 1, n):
                if rows[i][j] != rows[j][i]:
                    raise InputError(f"gram matrix not symmetric at ({i},{j})")
        pos, neg, zero = _signature_counts(rows)
        if zero != 0:
            raise InputError("gram matrix is degenerate")
        if b_plus is not None and _integers((b_plus,), "b_plus") != (pos,):
            raise InputError(
                f"declared b_plus={b_plus} but form has {pos} positive eigenvalues"
            )
        object.__setattr__(self, "gram", rows)
        object.__setattr__(self, "b_plus", pos)
        object.__setattr__(self, "b_minus", neg)  # a plain attribute, not in ==
        # Each row's nonzero (j, g_ij), which pairing walks; not a compared field.
        nonzeros = tuple(tuple((j, g) for j, g in enumerate(r) if g) for r in rows)
        object.__setattr__(self, "_rows", nonzeros)

    @property
    def rank(self) -> int:
        return len(self.gram)

    def apply(self, v: CohomologyClass) -> tuple[int, ...]:
        """Row vector v^T . gram."""
        self._require_rank(v)
        out = [0] * self.rank
        for vi, row in zip(v.coords, self._rows):
            if vi:
                for j, g in row:
                    out[j] += vi * g
        return tuple(out)

    def _require_rank(self, v: CohomologyClass) -> None:
        if v.rank != self.rank:
            raise DimensionMismatch(
                f"class length {v.rank} != form rank {self.rank}"
            )


def pair(form: IntersectionForm, a: CohomologyClass, b: CohomologyClass) -> int:
    """Intersection number a.b = a^T gram b."""
    form._require_rank(a)
    form._require_rank(b)
    total = 0
    for ai, row in zip(a.coords, form._rows):
        if ai:
            for j, g in row:
                total += ai * g * b.coords[j]
    return total


def square(form: IntersectionForm, a: CohomologyClass) -> int:
    """Self-intersection a.a."""
    return pair(form, a, a)


def is_characteristic(form: IntersectionForm, v: CohomologyClass) -> bool:
    """True iff v.x = x.x (mod 2) for every basis vector x."""
    form._require_rank(v)
    vg = form.apply(v)
    return all((vg[i] - form.gram[i][i]) % 2 == 0 for i in range(form.rank))


def is_good(v_mod2: CohomologyClass) -> bool:
    """Torsion-free model: a mod-2 class is good iff it is nonzero mod 2."""
    return any(c % 2 != 0 for c in v_mod2.coords)


def orthogonal_complement(
    form: IntersectionForm, classes: Sequence[CohomologyClass]
) -> list[CohomologyClass]:
    """Integral basis of { x : x.b = 0 for all b in classes }.

    Computed by unimodular column reduction of the constraint matrix (rows
    b^T gram), so the result is a basis of the full kernel sublattice, not
    merely a finite-index subgroup.
    """
    n = form.rank
    rows = [form.apply(b) for b in classes]
    rows = [r for r in rows if any(r)]
    # Column-HNF reduction of the constraint matrix M, tracking U with MU = [H|0].
    m = [list(r) for r in rows]
    u = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    col = 0
    for r in range(len(m)):
        piv = None
        while piv is None:
            nonzero = [c for c in range(col, n) if m[r][c] != 0]
            if not nonzero:
                break
            if len(nonzero) == 1:
                piv = nonzero[0]
                break
            # Euclidean step on the two smallest-|entry| columns.
            nonzero.sort(key=lambda c: abs(m[r][c]))
            c0, c1 = nonzero[0], nonzero[1]
            q = m[r][c1] // m[r][c0]
            for k in range(len(m)):
                m[k][c1] -= q * m[k][c0]
            for k in range(n):
                u[k][c1] -= q * u[k][c0]
        if piv is None:
            continue
        if piv != col:
            for k in range(len(m)):
                m[k][piv], m[k][col] = m[k][col], m[k][piv]
            for k in range(n):
                u[k][piv], u[k][col] = u[k][col], u[k][piv]
        col += 1
    kernel = []
    for c in range(col, n):
        vec = tuple(u[k][c] for k in range(n))
        kernel.append(CohomologyClass(vec))
    return kernel


def _box_vectors(rank: int, support: int, bound: int):
    """Vectors with <= `support` nonzero entries, coefficients in [-bound, bound].

    Deterministic order: support size, index combination, then coefficient
    tuple; first nonzero coefficient positive (each +-pair yielded once).
    """
    coeff_range = [c for c in range(-bound, bound + 1) if c != 0]
    for idxs in combinations(range(rank), support):
        for coeffs in product(coeff_range, repeat=support):
            if coeffs[0] < 0:
                continue
            vec = [0] * rank
            for i, c in zip(idxs, coeffs):
                vec[i] = c
            yield tuple(vec)


def find_hyperbolic_pair(
    form: IntersectionForm,
    sublattice_basis: Sequence[CohomologyClass],
    search_bound: int = 8,
    max_candidates: int = 4096,
) -> tuple[CohomologyClass, CohomologyClass]:
    """Search the sublattice for e1, e2 with e1.e1 = e2.e2 = 0, e1.e2 = 1.

    Bounded deterministic search over sparse integer combinations of the
    given basis (support up to three, coefficients up to search_bound,
    escalating level by level).  Raises SearchExhausted if nothing is
    found; that certifies only the failure of this bounded search, never
    non-existence.
    """
    basis = list(sublattice_basis)
    k = len(basis)
    if k == 0:
        raise SearchExhausted("empty sublattice")
    if form.b_plus == 0 or form.b_minus == 0:
        raise SearchExhausted("definite form admits no isotropic classes")

    def to_class(coeffs: tuple[int, ...]) -> CohomologyClass:
        vec = CohomologyClass.zero(form.rank)
        for c, b in zip(coeffs, basis):
            if c:
                vec = vec + c * b
        return vec

    isotropic: list[CohomologyClass] = []
    for level in range(1, search_bound + 1):
        for support in (1, 2, 3):
            if support > k:
                continue
            if support == 3 and level > 2:
                continue  # cube growth; levels 1-2 suffice for sparse bases
            for coeffs in _box_vectors(k, support, level):
                if level > 1 and all(abs(c) < level for c in coeffs):
                    continue  # already seen at a lower level
                v = to_class(coeffs)
                if v.is_zero() or square(form, v) != 0:
                    continue
                for w in isotropic:
                    g = pair(form, v, w)
                    if g == 1:
                        return w, v
                    if g == -1:
                        return w, -v
                isotropic.append(v)
                if len(isotropic) >= max_candidates:
                    raise SearchExhausted(
                        f"candidate cap {max_candidates} reached at bound {level}"
                    )
    raise SearchExhausted(f"no hyperbolic pair within bound {search_bound}")


def lambda_candidates(
    e1: CohomologyClass, e2: CohomologyClass, chi: int, sigma: int
) -> tuple[CohomologyClass, CohomologyClass]:
    """Classes e1 - 2t.e2 and e1 + (2-2t).e2 with t = (chi+sigma)/4.

    Given a hyperbolic pair these have squares -(chi+sigma) and
    4-(chi+sigma) and are congruent mod 2.
    """
    if (chi + sigma) % 4 != 0:
        raise NotDivisible(f"chi+sigma = {chi + sigma} is not divisible by 4")
    t = (chi + sigma) // 4
    lam0 = e1 + (-2 * t) * e2
    lam1 = e1 + (2 - 2 * t) * e2
    return lam0, lam1


def blow_up(form: IntersectionForm) -> tuple[IntersectionForm, CohomologyClass]:
    """Form of the blow-up: gram + <-1> summand, with the exceptional class."""
    n = form.rank
    rows = [list(row) + [0] for row in form.gram]
    rows.append([0] * n + [-1])
    return IntersectionForm(rows), CohomologyClass.basis_vector(n, n + 1)
