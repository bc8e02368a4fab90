"""Batch front-end: fixture ingestion, built-in catalog, command dispatch.

Fixture schema (JSON):

    { "name": str (not empty, printable, no whitespace or '='),
      "chi": int, "sigma": int, "b_plus": int,
      "gram": [[int]],
      "basic_classes": [{"c1": [int], "sw": int, "moment": optional int}],
      "w": [int], "lambda": [int],
      "attributes": {"simple_type": bool, "abundant": bool, "effective": bool} }

Exit codes: 0 all checks pass, 1 a mathematical comparison failed,
2 input or usage error.  Output is deterministic: one line per check,
"CHECK <id> PASS|FAIL <details>", then a summary block.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from contextlib import contextmanager
from importlib import resources
from pathlib import Path
from typing import Optional, Sequence

from ._value import Value
from .combinatorics import (
    ext_binomial, pochhammer, segre_inversion_sweep, triple_sum_sweep, vandermonde_check
)
from .errors import (
    EmptySupport, FixtureError, HypothesisViolated, InputError, InvariantError, MonolinkError,
    ParseError, SchemaError,
)

# Every other layer is imported by the function that runs it, so that a
# `fuzz-identities` process loads only the combinatorial kernel.
CATALOG = ("k3", "e3", "e5")

# The Pochhammer reflection sweep's box: r in [-10, 10], ell in [0, 10].
POCH_BOUND = 10


class Fixture(Value):
    """A validated manifold fixture plus its declared attributes."""

    manifold: FourManifoldData
    w: CohomologyClass
    lam: CohomologyClass
    attributes: dict[str, bool]


def _expect(doc: dict, key: str, kind, where: str):
    value = doc.get(key)
    if value is None:
        raise SchemaError(f"{where}: missing field {key!r}")
    if not isinstance(value, kind):
        raise SchemaError(f"{where}: field {key!r} has wrong type")
    return value


@contextmanager
def _invariant_error(tag: str):
    try:
        yield
    except MonolinkError as exc:
        raise InvariantError(f"{tag}: {exc}") from exc


def parse_fixture(doc: dict, where: str = "fixture") -> Fixture:
    """Check a parsed JSON document's fields and containers; the constructors
    check every value in them."""
    from .lattice import CohomologyClass, IntersectionForm
    from .manifold import FourManifoldData, SpincData, dim_sw, require_odd_b_plus

    if not isinstance(doc, dict):
        raise SchemaError(f"{where}: top level must be an object")
    name = _expect(doc, "name", str, where)
    if not name or not name.isprintable() or any(ch.isspace() or ch == "=" for ch in name):
        rule = "must be one printable line, not empty, with no whitespace or '='"
        raise SchemaError(f"{where}: field 'name' {rule}")
    chi, sigma, b_plus, w, lam = (
        _expect(doc, key, object, where) for key in ("chi", "sigma", "b_plus", "w", "lambda")
    )
    gram = _expect(doc, "gram", list, where)
    classes = []
    for idx, entry in enumerate(_expect(doc, "basic_classes", list, where)):
        tag = f"{where}.basic_classes[{idx}]"
        if not isinstance(entry, dict):
            raise SchemaError(f"{tag}: expected an object")
        c1, sw = _expect(entry, "c1", list, tag), _expect(entry, "sw", object, tag)
        with _invariant_error(tag):
            classes.append(SpincData(CohomologyClass(c1), sw, entry.get("moment")))

    with _invariant_error(where):
        form = IntersectionForm(gram, b_plus=b_plus)
        require_odd_b_plus(FourManifoldData(name, chi, sigma, form))
        manifold = FourManifoldData(name, chi, sigma, form, tuple(classes))
    for s in manifold.basic_classes:
        with _invariant_error(f"{where}: class {s.c1.coords}"):
            dim_sw(manifold, s)

    raw_attr = _expect(doc, "attributes", dict, where)
    attributes = {key: raw_attr.get(key) for key in ("simple_type", "abundant", "effective")}
    for key, value in attributes.items():
        if not isinstance(value, bool):
            raise SchemaError(f"{where}.attributes: missing boolean {key!r}")

    vectors = []
    for key, value in (("w", w), ("lambda", lam)):
        with _invariant_error(f"{where}.{key}"):
            vectors.append(CohomologyClass(value))
            form._require_rank(vectors[-1])
    return Fixture(manifold, *vectors, attributes)


def load_fixture(path: str | Path) -> Fixture:
    """Load and validate a fixture file."""
    p = Path(path)
    try:
        text = p.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read {p}: {exc}") from exc
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as exc:  # ValueError: also over-long ints
        raise ParseError(f"{p}: invalid JSON: {exc}") from exc
    return parse_fixture(doc, where=str(p))


def load_catalog_fixture(name: str) -> Fixture:
    """Load a built-in fixture by short name (k3, e3, e5)."""
    key = name.lower().removesuffix(".json")
    if key not in CATALOG:
        raise ParseError(f"unknown catalog fixture {name!r}; have {CATALOG}")
    data = resources.files("monolink").joinpath(f"fixtures/{key}.json").read_text()
    return parse_fixture(json.loads(data), where=f"catalog:{key}")


def _resolve_fixture(ref: str) -> Fixture:
    if ref.lower().removesuffix(".json") in CATALOG and not Path(ref).exists():
        return load_catalog_fixture(ref)
    return load_fixture(ref)


# ---------------------------------------------------------------------------
# Command implementations
# ---------------------------------------------------------------------------


def _print_checks(out, title: str, checks) -> int:
    """Print a CHECK line per (id, ok, detail) triple as it arrives, then the
    SUMMARY line; 0 when every check passed, 1 otherwise, EmptySupport if none."""
    total = failed = 0
    for check_id, ok, detail in checks:
        suffix = f" {detail}" if detail else ""
        print(f"CHECK {check_id} {'PASS' if ok else 'FAIL'}{suffix}", file=out)
        total, failed = total + 1, failed + (not ok)
    if not total:
        raise EmptySupport(f"{title} has no checks: its support is empty")
    print(
        f"SUMMARY {title} total={total} pass={total - failed} fail={failed} "
        f"verdict={'FAILURES' if failed else 'ALL-PASS'}",
        file=out,
    )
    return 1 if failed else 0


def cmd_verify(args, out) -> int:
    from .witten import verify_witten

    fx = _resolve_fixture(args.fixture)
    report = verify_witten(fx.manifold, fx.w, fx.lam, attributes=fx.attributes)
    name = fx.manifold.name
    print(
        f"REPORT manifold={name} c={report.c} "
        f"w={list(fx.w.coords)} lambda={list(fx.lam.coords)}",
        file=out,
    )
    return _print_checks(out, f"verify:{name}", report.check_lines())


def cmd_moment(args, out) -> int:
    from .witten import donaldson_moment

    fx = _resolve_fixture(args.fixture)
    poly = donaldson_moment(fx.manifold, fx.w, fx.lam, args.delta, args.m)
    print(
        f"MOMENT manifold={fx.manifold.name} delta={args.delta} m={args.m} "
        f"value={poly.render()}",
        file=out,
    )
    return 0


def _pairing_inputs(fx: Fixture, delta: int, m: int, h: CohomologyClass):
    """One level-one pairing input per basic class, eta fixed by the dims."""
    from .lattice import square
    from .manifold import SpinuData, dims_asd
    from .pairings import PairingInput

    X, w, lam = fx.manifold, fx.w, fx.lam
    for s in X.basic_classes:
        p1 = square(X.form, s.c1 - lam) - 4
        t_prime = SpinuData(c1=lam, p1=p1, w=w)
        d_a, n_a = dims_asd(X, t_prime)
        two_eta = d_a + 2 * n_a - 2 - 2 * delta
        if two_eta < 0 or two_eta % 2 != 0:
            raise HypothesisViolated(
                f"no admissible eta for class {s.c1.coords} at delta={delta}"
            )
        yield PairingInput(
            X=X, t_prime=t_prime, s=s, delta=delta, m=m, eta=two_eta // 2, h=h
        )


def cmd_pairing(args, out) -> int:
    from .lattice import CohomologyClass
    from .pairings import (
        blow_up_pairing_closed, blow_up_pairing_polarized, link_pairing_closed, link_pairing_raw
    )

    fx = _resolve_fixture(args.fixture)
    blowup_k = args.blowup_k
    if blowup_k is not None and blowup_k < 0:
        raise InputError("k must be non-negative")
    X = fx.manifold
    h = args.h
    if h is None:
        h = CohomologyClass.basis_vector(0, X.form.rank)

    def checks():
        for idx, inp in enumerate(_pairing_inputs(fx, args.delta, args.m, h)):
            closed = link_pairing_closed(inp)
            detail = f"value={closed.at_h} poly={closed.polynomial.render()}"
            if args.oracle:
                raw = link_pairing_raw(inp)
                ok = closed.polynomial == raw.polynomial and closed.at_h == raw.at_h
                yield f"pairing.s{idx}.closed_vs_raw", ok, detail
            else:
                yield f"pairing.s{idx}.closed", True, detail
            if blowup_k is not None:
                bc = blow_up_pairing_closed(inp, blowup_k)
                bp = blow_up_pairing_polarized(inp, blowup_k)
                ok = bc.polynomial == bp.polynomial
                if blowup_k % 2 == 1:
                    ok = ok and bc.polynomial.is_zero() and bp.polynomial.is_zero()
                yield f"pairing.s{idx}.blowup_k{blowup_k}", ok, f"value={bc.at_h}"

    return _print_checks(out, f"pairing:{X.name}", checks())


def cmd_fuzz_identities(args, out) -> int:
    def checks():
        count, bad = triple_sum_sweep((args.a_min, args.a_max), args.mn_bound, args.d_max)
        yield "identity.triple_sum", bad == 0, f"tuples={count} mismatches={bad}"

        bad = sum(
            1
            for r in range(-POCH_BOUND, POCH_BOUND + 1)
            for ell in range(POCH_BOUND + 1)
            if pochhammer(r, ell) != (-1) ** ell * pochhammer(1 - r - ell, ell)
        )
        yield "identity.pochhammer_reflection", bad == 0, f"mismatches={bad}"

        bad = sum(
            1
            for r in range(args.d_max + 1)
            for v in range(4)
            if ext_binomial(r + 3 - v, r) != (-1) ** r * ext_binomial(v - 4, r)
        )
        yield "identity.binomial_reversal", bad == 0, f"mismatches={bad}"

        bad = sum(
            1
            for mm in range(-6, 7)
            for nn in range(-6, 7)
            for p in range(9)
            if not vandermonde_check(mm, nn, p)
        )
        yield "identity.vandermonde", bad == 0, f"mismatches={bad}"

        _, bad = segre_inversion_sweep()
        yield "identity.segre_inversion", bad == 0, f"mismatches={bad}"

    return _print_checks(out, "fuzz-identities", checks())


def cmd_catalog(args, out) -> int:
    for name in CATALOG:
        fx = load_catalog_fixture(name)
        X = fx.manifold
        print(
            f"FIXTURE {name} manifold={X.name} chi={X.chi} sigma={X.sigma} "
            f"b2={X.b2} b_plus={X.form.b_plus} basic_classes={len(X.basic_classes)}",
            file=out,
        )
    return 0


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------


def _parse_class(text: str) -> CohomologyClass:
    from .lattice import CohomologyClass

    try:
        return CohomologyClass(int(x) for x in text.split(","))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad class vector {text!r}") from exc


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="monolink",
        description="Exact calculator for low-degree Donaldson/Seiberg-Witten "
        "series identities and level-one link pairings.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("catalog", help="list built-in fixtures")
    p.set_defaults(run=cmd_catalog)

    p = sub.add_parser("verify", help="run the full series comparison")
    p.add_argument("fixture", help="fixture path or catalog name")
    p.set_defaults(run=cmd_verify)

    p = sub.add_parser("moment", help="one Donaldson moment")
    p.add_argument("fixture")
    p.add_argument("--delta", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.set_defaults(run=cmd_moment)

    p = sub.add_parser("pairing", help="level-one link pairings")
    p.add_argument("fixture")
    p.add_argument("--delta", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--h", type=_parse_class, default=None, help="comma-separated class")
    p.add_argument("--oracle", action="store_true", help="compare closed vs raw")
    p.add_argument("--blowup-k", type=int, default=None)
    p.set_defaults(run=cmd_pairing)

    p = sub.add_parser("fuzz-identities", help="combinatorial identity sweeps")
    p.add_argument("--a-min", type=int, default=-6)
    p.add_argument("--a-max", type=int, default=10)
    p.add_argument("--mn-bound", type=int, default=6)
    p.add_argument("--d-max", type=int, default=8)
    p.set_defaults(run=cmd_fuzz_identities)

    return parser


def main(argv: Optional[Sequence[str]] = None, out=None) -> int:
    out = out if out is not None else sys.stdout
    args = build_parser().parse_args(argv)
    try:
        try:
            code = args.run(args, out)
        except FixtureError as exc:
            print(f"ERROR input: {exc}", file=out)
            code = 2
        except MonolinkError as exc:
            print(f"ERROR {type(exc).__name__}: {exc}", file=out)
            code = 2
        out.flush()
        return code
    except BrokenPipeError:
        # The reader closed stdout.  Point it at devnull, as the Python docs
        # advise, so the flush at exit cannot fail again; no comparison ran
        # to its end, so this is exit 2, not 1.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
