"""Outcome of every public moment-layer call on a grid of catalog inputs,
valid and not: the sha256 of the rendered polynomial, the boolean, or the
exception type and message.

The grid is k3, e3 and e5, each as given, with w + 2 e0, with w + e0, with
lam + 2 e0 and with the basic classes stripped (e0 the first basis class).
On each it runs `donaldson_moment` for delta in -1..8 and m in -1..3,
`assemble_donaldson_series` for bound in -1..7, and
`sign_change_check(X, w, w + 2 e1, lam)`: 900 lines, which reach every
check of the moment table and of `donaldson_moment` in order.

Run this file as a script to print the lines of
`golden/moment_outcomes.txt`.
"""

import hashlib
import time
from pathlib import Path

from monolink.cli import load_catalog_fixture
from monolink.lattice import CohomologyClass
from monolink.manifold import FourManifoldData
from monolink.witten import (
    assemble_donaldson_series,
    donaldson_moment,
    sign_change_check,
)

GOLDEN = Path(__file__).parent / "golden" / "moment_outcomes.txt"


def _outcome(call) -> str:
    try:
        value = call()
    except Exception as exc:  # the golden records the exception itself
        return f"{type(exc).__name__}: {exc}"
    if isinstance(value, bool):
        return str(value)
    return hashlib.sha256(value.render().encode("utf-8")).hexdigest()


def _variants(name):
    fx = load_catalog_fixture(name)
    X, w, lam = fx.manifold, fx.w, fx.lam
    rank = X.form.rank
    e0 = CohomologyClass((1,) + (0,) * (rank - 1))
    stripped = FourManifoldData(X.name, X.chi, X.sigma, X.form)
    return [
        ("given", X, w, lam),
        ("w+2e0", X, w + 2 * e0, lam),
        ("w+e0", X, w + e0, lam),
        ("lam+2e0", X, w, lam + 2 * e0),
        ("stripped", stripped, w, lam),
    ]


def golden_lines() -> list[str]:
    lines = []
    for name in ("k3", "e3", "e5"):
        for label, X, w, lam in _variants(name):
            head = f"{name} {label}"
            rank = X.form.rank
            e1 = CohomologyClass((0, 1) + (0,) * (rank - 2))
            for delta in range(-1, 9):
                for m in range(-1, 4):
                    result = _outcome(lambda: donaldson_moment(X, w, lam, delta, m))
                    lines.append(f"{head} moment {delta} {m}\t{result}")
            for bound in range(-1, 8):
                result = _outcome(lambda: assemble_donaldson_series(X, w, lam, bound))
                lines.append(f"{head} series {bound}\t{result}")
            result = _outcome(lambda: sign_change_check(X, w, w + 2 * e1, lam))
            lines.append(f"{head} sign_change\t{result}")
    return lines


def test_moment_outcomes_match_golden():
    start = time.monotonic()
    lines = golden_lines()
    elapsed = time.monotonic() - start
    assert lines == GOLDEN.read_text(encoding="utf-8").splitlines()
    assert elapsed < 4.0, f"took {elapsed:.2f}s (budget 4s)"


if __name__ == "__main__":
    print("\n".join(golden_lines()))
