"""Value semantics of monolink's immutable classes, and what importing a
layer or the CLI loads.

Every value class is immutable, compares equal only to an instance of the
same class with equal fields, hashes by those fields, and takes its fields
by position or by keyword.  Attributes derived on construction are not
fields and stay out of `==`.
"""

import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from monolink.cli import Fixture, load_catalog_fixture
from monolink.combinatorics import JacobiParams
from monolink.lattice import CohomologyClass, IntersectionForm, square
from monolink.manifold import FourManifoldData, RAndIReport, SpincData, SpinuData
from monolink.pairings import PairingInput, PairingValue, SegreInput
from monolink.polyring import Span, TruncatedPolynomial
from monolink.witten import WittenReport

from conftest import eta_for

SRC = Path(__file__).resolve().parents[1] / "src"

FORM = IntersectionForm([[0, 1], [1, 0]])
C = CohomologyClass((2, 0))
S = SpincData(C, 1)
X = FourManifoldData("h", 4, 0, FORM, (S,))
SPAN = Span(FORM, [C])  # x = <C, h>, then u, v with Q(h) = uv
P = TruncatedPolynomial(3, 3, {(1, 0, 0): 1, (0, 1, 1): Fraction(1, 2)})
CHECKS = (("degree.0", True, 0), ("coefficient.top", False, "degree c moment identity"))


def _k3_pairing_fields() -> dict:
    fx = load_catalog_fixture("k3")
    k3, s = fx.manifold, fx.manifold.basic_classes[0]
    t = SpinuData(c1=fx.lam, p1=square(k3.form, s.c1 - fx.lam) - 4, w=fx.w)
    h = CohomologyClass((1, 1) + (0,) * (k3.form.rank - 2))
    return dict(X=k3, t_prime=t, s=s, delta=2, m=0, eta=eta_for(k3, t, 2), h=h)


# class -> (its fields in order, positional arguments, keyword arguments);
# the arguments name the fields in order, positional ones first.
CASES = {
    CohomologyClass: (("coords",), ((2, 0),), {}),
    IntersectionForm: (("gram", "b_plus"), ([[0, 1], [1, 0]],), {"b_plus": 1}),
    TruncatedPolynomial: (("nvars", "bound", "terms"), (2, 3), {"terms": {(1, 0): 1}}),
    JacobiParams: (("a", "b", "d"), (1, 2, 3), {}),
    SpincData: (("c1", "sw", "moment"), (C, 1), {"moment": 5}),
    SpinuData: (("c1", "p1", "w"), (), {"c1": C, "p1": -4, "w": C}),
    FourManifoldData: (
        ("name", "chi", "sigma", "form", "basic_classes"),
        ("h", 4, 0, FORM),
        {"basic_classes": (S,)},
    ),
    RAndIReport: (("per_class", "r_min", "i_value"), ((1, 2), 1, 3), {}),
    SegreInput: (("n_prime", "n_dblprime", "p"), (1, -2, 3), {}),
    PairingInput: (
        ("X", "t_prime", "s", "delta", "m", "eta", "h"), (), _k3_pairing_fields()
    ),
    PairingValue: (("polynomial", "at_h"), (P, Fraction(1, 2)), {}),
    WittenReport: (
        ("c", "span", "lhs", "rhs", "checks"),
        (2,),
        {"span": SPAN, "lhs": P, "rhs": P, "checks": CHECKS},
    ),
    Fixture: (("manifold", "w", "lam", "attributes"), (X, C, None), {"attributes": {}}),
}
IDS = [cls.__name__ for cls in CASES]


def _build(cls):
    _, args, kwargs = CASES[cls]
    return cls(*args, **kwargs)


@pytest.mark.parametrize("cls", CASES, ids=IDS)
def test_equal_values_hash_equal(cls):
    fields, args, kwargs = CASES[cls]
    a, b = _build(cls), _build(cls)
    assert a is not b and a == b and not a != b
    if cls is Fixture:  # its `attributes` is a dict, so it has no hash
        with pytest.raises(TypeError):
            hash(a)
    else:
        assert hash(a) == hash(b)
    assert a != tuple(getattr(a, f) for f in fields)


@pytest.mark.parametrize("cls", CASES, ids=IDS)
def test_positional_and_keyword_calls_agree(cls):
    fields, args, kwargs = CASES[cls]
    by_position = cls(*args, *kwargs.values())
    by_keyword = cls(**dict(zip(fields, args)), **kwargs)
    assert by_position == _build(cls) == by_keyword


@pytest.mark.parametrize("cls", CASES, ids=IDS)
def test_missing_or_unknown_argument_is_a_type_error(cls):
    fields, args, kwargs = CASES[cls]
    with pytest.raises(TypeError):
        cls()
    with pytest.raises(TypeError):
        cls(*args, **kwargs, no_such_field=1)
    with pytest.raises(TypeError):
        cls(*args, *kwargs.values(), "one too many")
    if args:
        with pytest.raises(TypeError):  # a field given twice
            cls(*args, **kwargs, **{fields[0]: args[0]})


@pytest.mark.parametrize("cls", CASES, ids=IDS)
def test_fields_cannot_be_set_or_deleted(cls):
    fields, _, _ = CASES[cls]
    value = _build(cls)
    for name in fields + ("not_a_field",):
        with pytest.raises(AttributeError):
            setattr(value, name, 0)
    for name in fields:
        before = getattr(value, name)
        with pytest.raises(AttributeError):
            delattr(value, name)
        assert getattr(value, name) is before
    assert value == _build(cls)


def test_equality_needs_the_same_class():
    assert JacobiParams(1, 2, 3) != (1, 2, 3)
    assert (1, 2, 3) != JacobiParams(1, 2, 3)
    assert JacobiParams(1, 2, 3) != SegreInput(1, 2, 3)
    assert SegreInput(1, 2, 3) != JacobiParams(1, 2, 3)
    assert JacobiParams(1, 2, 3) != JacobiParams(1, 2, 4)


def test_defaults():
    assert SpincData(C, 1).moment is None
    assert FourManifoldData("h", 4, 0, FORM).basic_classes == ()
    zero_a, zero_b = TruncatedPolynomial(2, 3), TruncatedPolynomial(2, 3)
    assert zero_a.terms == {} and zero_a.terms is not zero_b.terms
    assert zero_a == TruncatedPolynomial(2, 3, {}) and zero_a.den == 1


def test_repr_names_each_field_and_nests():
    assert repr(JacobiParams(1, -2, 3)) == "JacobiParams(a=1, b=-2, d=3)"
    assert repr(SpincData(C, 1, moment=5)) == (
        "SpincData(c1=CohomologyClass(coords=(2, 0)), sw=1, moment=5)"
    )


def test_derived_attributes_stay_out_of_equality():
    a, b = _build(PairingInput), _build(PairingInput)
    assert (a.d, a.jacobi, a.normal) == (b.d, b.jacobi, b.normal)
    object.__setattr__(b, "d", a.d + 1)
    object.__setattr__(b, "jacobi", JacobiParams(0, 0, 0))
    object.__setattr__(b, "normal", (0, 0))
    assert a == b and hash(a) == hash(b)
    form = IntersectionForm([[0, 1], [1, 0]])
    assert form.b_minus == 1
    object.__setattr__(form, "b_minus", 7)
    object.__setattr__(form, "_rows", ())
    assert form == FORM and hash(form) == hash(FORM)


def _fresh_python(code: str) -> str:
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    return subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    ).stdout


def _fresh_modules(module: str) -> set[str]:
    code = f"import sys, {module}; print(*[m for m in sys.modules if m.startswith('monolink')])"
    return set(_fresh_python(code).split())


def test_combinatorics_loads_no_other_layer():
    assert _fresh_modules("monolink.combinatorics") == {
        "monolink", "monolink._value", "monolink.errors", "monolink.combinatorics"
    }


def test_lattice_loads_neither_polyring_nor_witten():
    loaded = _fresh_modules("monolink.lattice")
    assert "monolink.lattice" in loaded
    assert not loaded & {"monolink.polyring", "monolink.witten"}


def test_importing_the_cli_leaves_out_dataclasses():
    out = _fresh_python("import sys, monolink.cli; print('dataclasses' in sys.modules)")
    assert out.strip() == "False"


def _fresh_main(argv: str, report: str) -> list[str]:
    """The words that `print(code, report)` prints after `cli.main(argv)`
    exits with `code` in a fresh interpreter, its stdout swallowed."""
    code = (
        "import contextlib, io, sys, monolink.cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    code = monolink.cli.main({argv.split()!r})\n"
        f"print(code, {report})"
    )
    return _fresh_python(code).split()


@pytest.mark.parametrize("argv", ["catalog", "fuzz-identities --d-max 1"])
def test_commands_with_short_rows_leave_out_hashlib(argv):
    assert _fresh_main(argv, "'_hashlib' in sys.modules") == ["0", "False"]


_KERNEL = {"_value", "cli", "combinatorics", "errors"}


@pytest.mark.parametrize(
    "argv, layers",
    [
        ("fuzz-identities --d-max 0", _KERNEL),
        ("catalog", _KERNEL | {"lattice", "manifold"}),
        ("verify k3", _KERNEL | {"lattice", "manifold", "polyring", "pairings", "witten"}),
    ],
)
def test_each_command_loads_only_the_layers_it_runs(argv, layers):
    # The CLI imports a layer where a command first runs it: the identity
    # sweeps need only the kernel, the catalog reads fixtures but computes
    # nothing, and verify loads every layer.
    report = "*[m for m in sys.modules if m.startswith('monolink.')]"
    code, *loaded = _fresh_main(argv, report)
    assert code == "0"
    assert set(loaded) == {f"monolink.{layer}" for layer in layers}


def test_verify_digests_without_hashlib():
    # `verify k3` digests its 33-term degree-2 row with the builtin sha256
    # (`_sha256` to 3.11, `_sha2` from 3.12), so OpenSSL's `_hashlib` stays
    # out; this Python must have the builtin for the check to mean anything.
    builtin = "_sha2" if sys.version_info >= (3, 12) else "_sha256"
    code = (
        "import contextlib, io, sys, monolink.cli\n"
        "buf = io.StringIO()\n"
        "with contextlib.redirect_stdout(buf):\n"
        "    code = monolink.cli.main(['verify', 'k3'])\n"
        f"print(code, 'digest' in buf.getvalue(), {builtin!r} in sys.modules, "
        "'_hashlib' in sys.modules)"
    )
    assert _fresh_python(code).split() == ["0", "True", "True", "False"]
