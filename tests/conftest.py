from __future__ import annotations

from collections import Counter
from math import comb

import pytest
from hypothesis import settings

from monolink import cli, combinatorics, lattice, manifold, pairings, polyring, witten
from monolink.cli import Fixture, load_catalog_fixture
from monolink.lattice import CohomologyClass, IntersectionForm, square
from monolink.manifold import (
    FourManifoldData,
    SpincData,
    SpinuData,
    blow_up_manifold,
    blow_up_spinc,
    dims_asd,
)

settings.register_profile("exact", deadline=None, max_examples=60)
settings.load_profile("exact")


def hyperbolic_gram(n: int) -> list[list[int]]:
    size = 2 * n
    g = [[0] * size for _ in range(size)]
    for b in range(n):
        g[2 * b][2 * b + 1] = 1
        g[2 * b + 1][2 * b] = 1
    return g


@pytest.fixture
def count_calls(monkeypatch):
    """count_calls(owner, *names) wraps owner.<name> for each name (owner a
    module or a class) and returns the Counter of calls, keyed by name.

    A function is also wrapped in every monolink module that binds it, so a
    call through another module counts too: wrapping lattice.pair counts
    the calls that witten, pairings and lattice.square make."""
    calls = Counter()
    modules = (cli, combinatorics, lattice, manifold, pairings, polyring, witten)

    def install(owner, *names):
        for name in names:
            fn = getattr(owner, name)

            def wrapped(*args, _fn=fn, _name=name, **kwargs):
                calls[_name] += 1
                return _fn(*args, **kwargs)

            monkeypatch.setattr(owner, name, wrapped)
            for module in modules:
                if module is not owner and vars(module).get(name) is fn:
                    monkeypatch.setattr(module, name, wrapped)
        return calls

    return install


@pytest.fixture(scope="session")
def k3():
    return load_catalog_fixture("k3")


@pytest.fixture(scope="session")
def e3():
    return load_catalog_fixture("e3")


@pytest.fixture(scope="session")
def e5():
    return load_catalog_fixture("e5")


def blow_up_fixture(fx: Fixture, n: int) -> Fixture:
    """fx on X # n CP2bar: per blow-up, every basic class s becomes
    blow_up_spinc(s, k) for k in (0, 1), i.e. c1(s) -/+ e, and w and lam
    extend by 1 and 0 on the exceptional class e."""
    X, w, lam = fx.manifold, fx.w, fx.lam
    for _ in range(n):
        blown, _e = blow_up_manifold(X)
        classes = tuple(
            blow_up_spinc(s, k, X, blown) for s in X.basic_classes for k in (0, 1)
        )
        X = FourManifoldData(blown.name, blown.chi, blown.sigma, blown.form, classes)
        w = CohomologyClass(w.coords + (1,))
        lam = CohomologyClass(lam.coords + (0,))
    return Fixture(X, w, lam, fx.attributes)


# The edges of the E8 Dynkin diagram: a chain of seven nodes, the eighth on
# the third.
E8_EDGES = ((0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (2, 7))


UNKNOT = {0: 1}
TREFOIL = {1: 1, 0: -1, -1: 1}
FIGURE_EIGHT = {1: -1, 0: 3, -1: -1}


def elliptic_fixture(n: int, alexander: dict[int, int] = UNKNOT) -> Fixture:
    """The elliptic surface E(n), n >= 2, on its full form of rank 12n - 2.

    chi = 12n and sigma = -8n, so c = n.  The basic classes are (n-2-2k)F for
    k = 0..n-2, with SW value (-1)^k C(n-2, k), F the fiber class: the SW
    series is (t - 1/t)^(n-2) in t = e^F.  Given a knot's symmetric Alexander
    polynomial {power: coefficient}, this is instead the knot surgery E(n)_K,
    with E(n)'s form, w and lam and the SW series (t - 1/t)^(n-2) Delta(t^2).
    - Odd n: the form (2n-1)<1> + (10n-1)<-1>.  F is (3^n, 1^(n-1)) on the
      positive part and 1 on every negative coordinate; lam = 2(f1 - f2 + ...)
      over the first n-1 negative basis vectors, and w = lam + F.
    - Even n: the form (2n-1)H + n(-E8), with F = e in the first H;
      lam = e' + (2-2n) f' in the second H, and w = lam.
    """
    rank = 12 * n - 2
    gram = [[0] * rank for _ in range(rank)]
    if n % 2:
        pos = 2 * n - 1
        for i in range(rank):
            gram[i][i] = 1 if i < pos else -1
        F = CohomologyClass((3,) * n + (1,) * (rank - n))
        lam = CohomologyClass(
            2 * (-1) ** (i - pos) if pos <= i < pos + n - 1 else 0 for i in range(rank)
        )
        w = lam + F
    else:
        hyperbolic = 2 * (2 * n - 1)
        for i, row in enumerate(hyperbolic_gram(2 * n - 1)):
            gram[i][:hyperbolic] = row
        for start in range(hyperbolic, rank, 8):
            for i in range(start, start + 8):
                gram[i][i] = -2
            for i, j in E8_EDGES:
                gram[start + i][start + j] = gram[start + j][start + i] = 1
        e = CohomologyClass.basis_vector
        F = e(0, rank)
        lam = e(2, rank) + (2 - 2 * n) * e(3, rank)
        w = lam
    sw = Counter()
    for k in range(n - 1):
        for power, a in alexander.items():
            sw[n - 2 - 2 * k + 2 * power] += (-1) ** k * comb(n - 2, k) * a
    classes = tuple(SpincData(m * F, sw=v) for m, v in sorted(sw.items(), reverse=True) if v)
    X = FourManifoldData(f"E({n})", 12 * n, -8 * n, IntersectionForm(gram), classes)
    attributes = {"simple_type": True, "abundant": True, "effective": True}
    return Fixture(X, w, lam, attributes)


def fixture_document(fx: Fixture) -> dict:
    """fx as the JSON document `cli.parse_fixture` reads (no moments: every
    class of the builders above is zero-dimensional)."""
    X = fx.manifold
    return {
        "name": X.name,
        "chi": X.chi,
        "sigma": X.sigma,
        "b_plus": X.form.b_plus,
        "gram": [list(row) for row in X.form.gram],
        "basic_classes": [{"c1": list(s.c1.coords), "sw": s.sw} for s in X.basic_classes],
        "w": list(fx.w.coords),
        "lambda": list(fx.lam.coords),
        "attributes": dict(fx.attributes),
    }


@pytest.fixture(scope="session")
def form_h():
    return IntersectionForm([[0, 1], [1, 0]])


def make_level_one_setup(
    name: str,
    c1_coords: tuple[int, ...],
    lam_coords: tuple[int, ...],
    chi: int,
    sigma: int,
    sw: int = 1,
    moment: int | None = None,
    w_shift: tuple[int, ...] | None = None,
):
    """A synthetic manifold on 3H carrying one basic class at level one.

    Returns (X, t_prime, s).  The caller is responsible for choosing data
    with all the divisibility constraints satisfied; construction errors
    surface as exceptions.
    """
    form = IntersectionForm(hyperbolic_gram(3))
    c1 = CohomologyClass(c1_coords)
    lam = CohomologyClass(lam_coords)
    s = SpincData(c1, sw=sw, moment=moment)
    X = FourManifoldData(name, chi=chi, sigma=sigma, form=form, basic_classes=(s,))
    if w_shift is None:
        w = lam
    else:
        w = lam + CohomologyClass(w_shift)
    p1 = square(form, c1 - lam) - 4
    t_prime = SpinuData(c1=lam, p1=p1, w=w)
    return X, t_prime, s


def max_delta(X: FourManifoldData, t_prime: SpinuData) -> int:
    d_a, n_a = dims_asd(X, t_prime)
    return (d_a + 2 * n_a - 2) // 2


def eta_for(X: FourManifoldData, t_prime: SpinuData, delta: int) -> int:
    return max_delta(X, t_prime) - delta


# Synthetic level-one setups spanning d_s in {0, 2, 4, 6, 8, 12}; the lambda
# block is disjoint from the c1 block so the lattice cross term (c1-lam).lam
# is the nonzero value lam^2, exercising the shifted-Jacobi coefficient path.
SYNTHETIC_SETUPS = {
    "ds0": dict(
        name="synthetic-ds0",
        c1_coords=(0, 0, 0, 0, 0, 0),
        lam_coords=(0, 0, 1, -8, 0, 0),
        chi=12,
        sigma=-8,
        w_shift=(2, 0, 0, 0, 0, 0),
    ),
    "ds2": dict(
        name="synthetic-ds2",
        c1_coords=(2, 2, 0, 0, 0, 0),
        lam_coords=(0, 0, 1, -9, 0, 0),
        chi=12,
        sigma=-8,
        moment=5,
        w_shift=(0, 0, 0, 0, 2, 2),
    ),
    "ds4": dict(
        name="synthetic-ds4",
        c1_coords=(2, 4, 0, 0, 0, 0),
        lam_coords=(0, 0, 1, -15, 0, 0),
        chi=12,
        sigma=-8,
        moment=-3,
        w_shift=(2, 2, 0, 0, 0, 0),
    ),
    "ds6": dict(
        name="synthetic-ds6",
        c1_coords=(2, 6, 0, 0, 0, 0),
        lam_coords=(0, 0, 1, -30, 0, 0),
        chi=12,
        sigma=-8,
        moment=7,
        w_shift=(2, 2, 0, 0, 0, 0),
    ),
    "ds8": dict(
        name="synthetic-ds8",
        c1_coords=(4, 4, 0, 0, 0, 0),
        lam_coords=(0, 0, 1, -30, 0, 0),
        chi=12,
        sigma=-8,
        moment=7,
        w_shift=(2, 2, 0, 0, 0, 0),
    ),
    "ds12": dict(
        name="synthetic-ds12",
        c1_coords=(4, 6, 0, 0, 0, 0),
        lam_coords=(0, 0, 1, -40, 0, 0),
        chi=12,
        sigma=-8,
        moment=7,
        w_shift=(2, 2, 0, 0, 0, 0),
    ),
}


@pytest.fixture(scope="session")
def synthetic_setups():
    return {key: make_level_one_setup(**cfg) for key, cfg in SYNTHETIC_SETUPS.items()}
