"""The two benchmark workloads: seeded inputs and one case runner each.

Each workload's `make_cases` returns the seeded list of cases that every
pass of a run repeats.  Every case runner calls monolink through module
attributes looked up at call time (`ml.witten.verify_witten`, ...), so the
tracer's wrappers see the calls when they are installed.  A runner returns
True only when the case's exact two-route equality holds.  README.md in
this directory says why each workload exists and which layer metric should
move which end-to-end metric.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

CATALOG = ("k3", "e3", "e5")

# identity-sweep: the `fuzz-identities` parameter box, drawn stratified by
# degree so that every seed does the same mix of cheap and costly checks.
# Per pass: 240 triple-sum tuples at each d in 0..8 and 10 Segre pairs at
# each p in 0..10, close to the full box's 2873 : 121 ratio per degree.
A_RANGE = range(-6, 11)
MN_RANGE = range(-6, 7)
D_RANGE = range(0, 9)
TUPLES_PER_D = 240
SEGRE_N_RANGE = range(-5, 6)
SEGRE_P_RANGE = range(0, 11)
SEGRE_PER_P = 10

# The probe's pairing input: a rank-6 level-one setup on 3H with d_s = 0
# (the first of the test suite's synthetic setups).
PROBE_C1 = (0, 0, 0, 0, 0, 0)
PROBE_LAMBDA = (0, 0, 1, -8, 0, 0)
PROBE_H = (1, -1, 2, 0, 1, 1)
PROBE_CHI, PROBE_SIGMA = 12, -8


def shift_w(ml, w, rng):
    """w' = w + 2v for a small seeded v.  w' - lambda stays characteristic
    and w'^2 keeps its class mod 4, so the degree parity, and with it the
    work per case, is unchanged and every check must still pass; only
    signs can flip."""
    rank = w.rank
    coords = [0] * rank
    for i in rng.sample(range(rank), 3):
        coords[i] = rng.choice((-1, 1))
    return w + 2 * ml.lattice.CohomologyClass(coords)


# -- verify-catalog -----------------------------------------------------------


def verify_cases(ml, fixtures, rng):
    return [(name, fixtures[name], shift_w(ml, fixtures[name].w, rng)) for name in CATALOG]


def verify_run(ml, case) -> bool:
    _, fx, w = case
    report = ml.witten.verify_witten(fx.manifold, w, fx.lam, attributes=fx.attributes)
    return report.passed


# -- identity-sweep -----------------------------------------------------------


def identity_cases(ml, fixtures, rng):
    box = [(A, M, N) for A in A_RANGE for M in MN_RANGE for N in MN_RANGE]
    pairs = [(n1, n2) for n1 in SEGRE_N_RANGE for n2 in SEGRE_N_RANGE]
    cases = [
        ("triple", A, M, N, d)
        for d in D_RANGE
        for A, M, N in rng.sample(box, TUPLES_PER_D)
    ]
    cases += [
        ("segre", n1, n2, p)
        for p in SEGRE_P_RANGE
        for n1, n2 in rng.sample(pairs, SEGRE_PER_P)
    ]
    rng.shuffle(cases)
    return cases


def identity_run(ml, case) -> bool:
    comb = ml.combinatorics
    if case[0] == "triple":
        _, A, M, N, d = case
        rhs = (2**d) * comb.jacobi_at_zero(comb.JacobiParams(3 - N - A - M, A + M - 4 - d, d))
        return all(comb.triple_sum_lhs(A, M, N, d, v) == rhs for v in range(4))
    _, n1, n2, p = case
    pr = ml.pairings
    return pr.segre_coefficient(pr.SegreInput(n1, n2, p)) == pr.segre_coefficient_by_inversion(
        n1, n2, p
    )


# -- probe pairing ------------------------------------------------------------


def probe_pairing_input(ml):
    """Link pairing at delta = 2, m = 0 on the rank-6 probe setup."""
    lat, man = ml.lattice, ml.manifold
    gram = [[0] * 6 for _ in range(6)]
    for b in range(3):
        gram[2 * b][2 * b + 1] = gram[2 * b + 1][2 * b] = 1
    form = lat.IntersectionForm(gram)
    c1, lam = lat.CohomologyClass(PROBE_C1), lat.CohomologyClass(PROBE_LAMBDA)
    s = man.SpincData(c1, sw=1, moment=None)
    X = man.FourManifoldData(
        "probe", chi=PROBE_CHI, sigma=PROBE_SIGMA, form=form, basic_classes=(s,)
    )
    t = man.SpinuData(
        c1=lam, p1=lat.square(form, c1 - lam) - 4, w=shift_w(ml, lam, random.Random(0))
    )
    d_a, n_a = man.dims_asd(X, t)
    top = (d_a + 2 * n_a - 2) // 2  # largest delta with eta >= 0
    return ml.pairings.PairingInput(
        X=X, t_prime=t, s=s, delta=2, m=0, eta=top - 2, h=lat.CohomologyClass(PROBE_H)
    )


def pairing_run(ml, inp) -> bool:
    """Closed link pairing against the raw one, and the closed blow-up
    pairing against the polarized one for k = 0..3 (odd k: both zero)."""
    pr = ml.pairings
    closed = pr.link_pairing_closed(inp)
    raw = pr.link_pairing_raw(inp)
    ok = closed.polynomial == raw.polynomial and closed.at_h == raw.at_h
    for k in range(4):
        bc = pr.blow_up_pairing_closed(inp, k)
        bp = pr.blow_up_pairing_polarized(inp, k)
        ok = ok and bc.polynomial == bp.polynomial and bc.at_h == bp.at_h
        if k % 2 == 1:
            ok = ok and bc.polynomial.is_zero() and bp.polynomial.is_zero()
    return ok


# -- registry -----------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    name: str
    make_cases: Callable
    run_case: Callable
    # Verify cases each start with cleared caches, as a fresh `monolink
    # verify` process does; the identity sweep clears them once per pass,
    # as one `fuzz-identities` run would.
    cold_per_case: bool
    # The command a user would type for this kind of work, timed as a
    # subprocess, and how many times per run at most (the median, in cal,
    # is reported); the runs are spread over the run.
    cli_argv: tuple[str, ...]
    cli_reps: int
    label: Callable  # the case kind reported in the detail record
    # The calibration loop (calibrate.LOOPS) its times are measured in: the
    # one most like the workload's own work.
    calibration: str
    # Cases cheap enough to be repeated, cold, between all the other work
    # of a run: the 4 ms K3 verify, which a few passes would sample too
    # rarely to be steady.
    filler: Callable = lambda case: False


WORKLOADS = {
    "verify-catalog": Workload(
        "verify-catalog", verify_cases, verify_run, True,
        ("verify", "k3"), 20, label=lambda case: case[0], calibration="product",
        filler=lambda case: case[0] == "k3",
    ),
    "identity-sweep": Workload(
        "identity-sweep", identity_cases, identity_run, False,
        ("fuzz-identities", "--d-max", "4"), 10, label=lambda case: case[0],
        calibration="binomials",
    ),
}


def probe_cases(ml, fixtures):
    """Fixed cheap cases, one per code path, that every traced run also
    traces, so no per-layer metric reads zero on a workload that does not
    reach its layer.  The same on every workload and seed.  Each is a
    (runner, case) pair."""
    k3 = fixtures["k3"]
    return [
        (verify_run, ("k3", k3, k3.w)),
        (identity_run, ("triple", 2, 1, -1, 6)),
        (identity_run, ("segre", 3, -2, 6)),
        (pairing_run, probe_pairing_input(ml)),
    ]


# Same argv list as the determinism acceptance criterion: one cheap command
# per layer, compared byte for byte with reference.json on every run.
SMOKE_ARGVS = (
    ("catalog",),
    ("verify", "k3"),
    ("pairing", "k3", "--delta", "2", "--m", "0", "--oracle", "--blowup-k", "2"),
    ("fuzz-identities", "--a-min", "-3", "--a-max", "3", "--mn-bound", "2", "--d-max", "3"),
)

# In-process `verify` outputs checked against reference.json at the default seed.
VERIFY_ARGVS = tuple(("verify", name) for name in CATALOG)
