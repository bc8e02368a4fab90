"""No library code that neither the CLI, the pipeline nor an oracle reaches.

A fresh interpreter installs a `sys.setprofile` hook before it imports
`monolink.cli`, so class bodies, import-time calls and cold `lru_cache`s
count, runs the 12 argvs of `_argvs` through `cli.main` and reports the
(file, first line) of every code object it entered.  Every `def` in `src/monolink/*.py`,
found with `ast` (its first line is its first decorator's), must be among
them or in `ALLOWED`, which says why each one stays.  An allowed def that
was reached, or that no longer exists, is stale and fails too.  Every class
in `errors.py` must likewise be named by a `raise` or an `except` in another
module, so an error type goes with its last raise.
"""

import ast
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

from conftest import elliptic_fixture, fixture_document
from test_cli_golden import broken

SRC = Path(__file__).resolve().parents[1] / "src"
PACKAGE = SRC / "monolink"

_C = "ROADMAP item C: deleted once the benchmark stops tracing it"
_D = "ROADMAP item D(c): derives lam and w when a fixture omits them"
_VALUE = "value semantics, tested in tests/test_values.py"
_POLY = "traced polyring API for outside input"
_BENCH = "read by the benchmark's verify_run"

# module.qualname -> why the def stays although no argv reaches it.
ALLOWED = {
    "combinatorics.jacobi_general": _C,
    "combinatorics.hypergeometric_terminating": _C,
    "combinatorics.jacobi_via_hypergeometric": _C,
    "lattice.is_good": _C,
    "pairings.b0_coefficient": _C,
    "pairings.SegreInput.__init__": _C,
    "pairings.s_constants": _C,
    "pairings.segre_coefficient": _C,
    "polyring.variable": _C,
    "polyring.TruncatedPolynomial.inverse": _C,
    "polyring.TruncatedPolynomial.constant_term": _C + "; only `inverse` calls it",
    "witten.sw_series": _C,
    "lattice.orthogonal_complement": _D,
    "lattice._box_vectors": _D,
    "lattice.find_hyperbolic_pair": _D,
    "lattice.find_hyperbolic_pair.<locals>.to_class": _D,
    "lattice.lambda_candidates": _D,
    "lattice.CohomologyClass.is_zero": _D,
    "lattice.CohomologyClass.zero": _D,
    "lattice.CohomologyClass.__add__": _D,
    "lattice.CohomologyClass.__neg__": _D,
    "manifold.degree_parity_ok": "oracle of the degree rule, witten._degree_residue",
    "pairings.segre_coefficient_by_inversion": "oracle of segre_coefficient",
    "witten.sw_vanishing_check": "oracle of the low-degree vanishing rows",
    "witten.sign_change_check": "oracle of the sign-change law w -> w'",
    "witten.assemble_donaldson_series": "oracle of the degree rows: the whole series",
    "witten.donaldson_moment": "the h-basis moment, traced; `moment` prints moment_text",
    "polyring.Span.expand": "the h-basis polynomial of the three public series above",
    "polyring.TruncatedPolynomial.digest": _C + "; a row's digest is `_digest` of its text",
    "polyring.TruncatedPolynomial.__post_init__": _POLY,
    "polyring.TruncatedPolynomial.__neg__": _POLY,
    "polyring.TruncatedPolynomial.homogeneous_part": _POLY,
    "polyring.TruncatedPolynomial.coefficient": _POLY,
    "_value.Value.__eq__": _VALUE,
    "_value.Value.__hash__": _VALUE,
    "_value.Value.__repr__": _VALUE,
    "_value.Value.__setattr__": _VALUE,
    "_value.Value.__delattr__": _VALUE,
    "polyring.TruncatedPolynomial.__hash__": _VALUE,
    "polyring.TruncatedPolynomial.__repr__": _VALUE,
    "witten.WittenReport.passed": _BENCH,
}

_RUN = """
import io, json, sys

entered = {}

def hook(frame, event, arg):
    if event == "call":
        entered[id(frame.f_code)] = frame.f_code

sys.setprofile(hook)
from monolink import cli

codes = [cli.main(argv, out=io.StringIO()) for argv in json.loads(sys.argv[1])]
sys.setprofile(None)
lines = sorted({(c.co_filename, c.co_firstlineno) for c in entered.values()})
print(json.dumps({"codes": codes, "entered": lines}))
"""


def _argvs(directory: Path) -> list[tuple[list[str], int]]:
    """The argvs with their exit codes: every subcommand, a fixture path,
    a failing verify, a verify above the row cap, the pairing oracles and
    `--h`."""
    k3 = directory / "k3.json"
    shutil.copyfile(PACKAGE / "fixtures" / "k3.json", k3)
    # Rank 58: its degree-5 row is above the cap, so it prints in span coordinates.
    e5 = directory / "e5_rank58.json"
    e5.write_text(json.dumps(fixture_document(elliptic_fixture(5))), encoding="utf-8")
    h = ",".join(["1"] + ["0"] * 21)
    argvs = [
        ("catalog", 0),
        ("verify k3", 0),
        ("verify e3", 0),
        ("verify e5", 0),
        (f"verify {k3}", 0),
        (f"verify {broken('e3', directory)}", 1),
        (f"verify {e5}", 0),
        ("moment e5 --delta 5 --m 0", 0),
        (f"pairing k3 --delta 2 --m 0 --oracle --blowup-k 2 --h {h}", 0),
        ("pairing e3 --delta 3 --m 0 --oracle --blowup-k 1", 0),
        ("pairing e5 --delta 1 --m 0", 0),
        ("fuzz-identities --a-min -1 --a-max 1 --mn-bound 1 --d-max 2", 0),
    ]
    return [(argv.split(), code) for argv, code in argvs]


def _defs() -> dict[tuple[str, int], str]:
    """(file, first line) -> module.qualname of every def in the package."""
    out = {}

    def visit(node, module, prefix, path):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                out[path, first] = f"{module}.{prefix}{child.name}"
                visit(child, module, f"{prefix}{child.name}.<locals>.", path)
            elif isinstance(child, ast.ClassDef):
                visit(child, module, f"{prefix}{child.name}.", path)
            else:
                visit(child, module, prefix, path)

    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        visit(tree, path.stem if path.stem != "__init__" else "monolink", "", str(path))
    return out


@pytest.fixture(scope="module")
def reached(tmp_path_factory):
    argvs = _argvs(tmp_path_factory.mktemp("reachability"))
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-c", _RUN, json.dumps([argv for argv, _ in argvs])],
        env=env, capture_output=True, text=True, check=True,
    )
    seconds = time.perf_counter() - start
    result = json.loads(proc.stdout)
    assert result["codes"] == [code for _, code in argvs]
    defs = _defs()
    entered = {defs[key] for key in map(tuple, result["entered"]) if key in defs}
    return set(defs.values()), entered, seconds


def test_every_def_is_reached_or_allowed(reached):
    defs, entered, seconds = reached
    unreached = sorted(defs - entered - set(ALLOWED))
    assert not unreached, f"no argv reaches {unreached}; reach them, delete them or allow them"
    assert seconds < 5, f"the argvs took {seconds:.1f} s"


def test_allowlist_has_no_stale_entry(reached):
    defs, entered, _ = reached
    reached_entries, missing = sorted(set(ALLOWED) & entered), sorted(set(ALLOWED) - defs)
    assert not reached_entries, f"reached, so drop them from ALLOWED: {reached_entries}"
    assert not missing, f"no such def: {missing}"


def _raised_or_caught() -> set[str]:
    """The names every `raise` and `except` outside `errors.py` gives as its
    exception: a raised call's callee, each type of a caught tuple."""
    names = set()
    for path in sorted(PACKAGE.glob("*.py")):
        if path.stem == "errors":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                types = [exc]
            elif isinstance(node, ast.ExceptHandler) and node.type is not None:
                types = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
            else:
                continue
            for t in types:
                names.add(t.attr if isinstance(t, ast.Attribute) else getattr(t, "id", None))
    return names


def test_every_error_class_is_raised_or_caught():
    tree = ast.parse((PACKAGE / "errors.py").read_text(encoding="utf-8"))
    classes = [node.name for node in tree.body if isinstance(node, ast.ClassDef)]
    unused = sorted(set(classes) - _raised_or_caught())
    assert classes and not unused, f"nothing raises or catches {unused}; delete them"
