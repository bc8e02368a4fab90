import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from monolink import cli, pairings, witten
from monolink.cli import (
    load_catalog_fixture,
    load_fixture,
    main,
    parse_fixture,
)
from monolink.errors import HypothesisViolated, InvariantError, ParseError, SchemaError
from monolink.polyring import Span, TruncatedPolynomial

from test_cli_golden import broken


def _minimal_doc():
    return {
        "name": "toy",
        "chi": 12,
        "sigma": -8,
        "b_plus": 3,
        "gram": [
            [0, 1, 0, 0, 0, 0],
            [1, 0, 0, 0, 0, 0],
            [0, 0, 0, 1, 0, 0],
            [0, 0, 1, 0, 0, 0],
            [0, 0, 0, 0, 0, 1],
            [0, 0, 0, 0, 1, 0],
        ],
        "basic_classes": [{"c1": [0, 0, 0, 0, 0, 0], "sw": 1}],
        "w": [0, 0, 1, 0, 0, 0],
        "lambda": [0, 0, 1, 0, 0, 0],
        "attributes": {"simple_type": True, "abundant": True, "effective": True},
    }


def test_catalog_fixture_names():
    for name in ("k3", "e3", "e5"):
        fx = load_catalog_fixture(name)
        assert fx.manifold.form.b_plus % 2 == 1
        assert fx.w is not None and fx.lam is not None
    with pytest.raises(ParseError):
        load_catalog_fixture("nope")


def test_load_fixture_parse_error(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    with pytest.raises(ParseError):
        load_fixture(bad)
    with pytest.raises(ParseError):
        load_fixture(tmp_path / "missing.json")


def test_schema_errors():
    doc = _minimal_doc()
    del doc["chi"]
    with pytest.raises(SchemaError):
        parse_fixture(doc)
    doc = _minimal_doc()
    doc["basic_classes"] = [{"c1": [0] * 6}]
    with pytest.raises(SchemaError):
        parse_fixture(doc)
    doc = _minimal_doc()
    doc["attributes"] = {"simple_type": True}
    with pytest.raises(SchemaError):
        parse_fixture(doc)
    for edit, message in (
        (lambda d: d.update(name=5), "'name' has wrong type"),
        # A null b_plus is not an undeclared one: the form would skip its check.
        (lambda d: d.update(b_plus=None), "missing field 'b_plus'"),
        (lambda d: d.update(basic_classes=[5]), r"\[0\]: expected an object"),
        (lambda d: d.update(name="toy\nCHECK forged PASS"), "one printable line"),
        (lambda d: d.update(name="toy total=5"), "no whitespace or '='"),
        (lambda d: d.update(name="toy=5"), "no whitespace or '='"),
        (lambda d: d.update(name=""), "not empty"),
    ):
        doc = _minimal_doc()
        edit(doc)
        with pytest.raises(SchemaError, match=message):
            parse_fixture(doc)
    with pytest.raises(SchemaError, match="top level must be an object"):
        parse_fixture([_minimal_doc()])


def test_invariant_errors():
    doc = _minimal_doc()
    doc["gram"][0][1] = 1.5
    with pytest.raises(InvariantError, match=r"fixture: gram entries must be integers"):
        parse_fixture(doc)
    doc = _minimal_doc()
    doc["basic_classes"] = [{"c1": [0, 0], "sw": 1}]
    with pytest.raises(InvariantError, match="class length"):
        parse_fixture(doc)
    doc = _minimal_doc()
    doc["gram"] = [[0, 1], [1, 0]]
    doc["b_plus"] = 1
    with pytest.raises(InvariantError, match="odd"):
        parse_fixture(doc)
    doc = _minimal_doc()
    doc["b_plus"] = 5
    with pytest.raises(InvariantError):
        parse_fixture(doc)
    doc = _minimal_doc()
    doc["chi"] = 13
    with pytest.raises(InvariantError):
        parse_fixture(doc)
    doc = _minimal_doc()
    doc["chi"] = 4
    doc["sigma"] = 0
    with pytest.raises(InvariantError, match="negative dimension"):
        parse_fixture(doc)
    doc = _minimal_doc()
    doc["basic_classes"] = [{"c1": [1, 0, 0, 0, 0, 0], "sw": 1}]
    with pytest.raises(InvariantError, match="characteristic"):
        parse_fixture(doc)
    doc = _minimal_doc()
    doc["basic_classes"] *= 2
    with pytest.raises(InvariantError, match="is repeated"):
        parse_fixture(doc)
    doc = _minimal_doc()
    doc["chi"] = True
    with pytest.raises(InvariantError, match=r"fixture: chi and sigma must be integers"):
        parse_fixture(doc)
    doc = _minimal_doc()
    doc["basic_classes"][0]["moment"] = True
    with pytest.raises(InvariantError, match=r"\[0\]: sw and moment must be integers"):
        parse_fixture(doc)


def _run(*argv):
    buf = io.StringIO()
    code = main(list(argv), out=buf)
    return code, buf.getvalue()


def test_cmd_catalog():
    code, text = _run("catalog")
    assert code == 0
    assert "FIXTURE k3" in text and "FIXTURE e5" in text


def test_cmd_verify_k3():
    code, text = _run("verify", "k3")
    assert code == 0
    assert "CHECK congruence.witten PASS" in text
    assert "verdict=ALL-PASS" in text
    assert "FAIL" not in text


def test_cmd_verify_remaining_catalog():
    for name in ("e3", "e5"):
        code, text = _run("verify", name)
        assert code == 0, text
        assert "verdict=ALL-PASS" in text


def test_cmd_verify_renders_an_equal_row_once(count_calls, monkeypatch, tmp_path):
    # An equal degree row's lhs and rhs are the same polynomial, so it is
    # expanded and rendered once; an unequal row expands and renders each
    # side.  Expanding a row to the h-basis walks, with no polynomial product.
    calls = count_calls(TruncatedPolynomial, "render", "__mul__")
    count_calls(Span, "expand")
    verify_witten = witten.verify_witten

    def computed(*args, **kwargs):
        report = verify_witten(*args, **kwargs)
        calls.clear()  # from here on, only rendering the report counts
        return report

    monkeypatch.setattr(witten, "verify_witten", computed)
    cases = [("k3", 0, 4), ("e3", 0, 5), ("e5", 0, 7), (str(broken("e3", tmp_path)), 1, 10)]
    for name, exit_code, renders in cases:
        code, text = _run("verify", name)
        assert code == exit_code, text
        assert calls["expand"] == calls["render"] == renders, name
        assert calls["__mul__"] == 0, name


def test_cmd_verify_writes_each_check_line_as_it_finishes(monkeypatch):
    # Only rendering a degree row expands it, once per passing row: the
    # k-th expand finds congruence.low_degree and the k - 1 rows before it
    # already written.
    buf, written, expand = io.StringIO(), [], Span.expand

    def counting(self, p):
        written.append(buf.getvalue().count("\nCHECK "))
        return expand(self, p)

    monkeypatch.setattr(Span, "expand", counting)
    for name in ("k3", "e3", "e5"):
        buf.seek(0), buf.truncate(), written.clear()
        assert main(["verify", name], out=buf) == 0, buf.getvalue()
        rows = buf.getvalue().count("\nCHECK degree.")
        assert written == list(range(1, rows + 1)), name


def test_cmd_verify_input_error():
    code, text = _run("verify", "no-such-file.json")
    assert code == 2
    assert text.startswith("ERROR input:")


@pytest.mark.parametrize(
    "payload",
    [
        b'\xff\xfe{"name": 1}',
        b"[" * 200_000 + b"]" * 200_000,
        b'{"name": "x", "chi": ' + b"1" * 5000 + b"}",
    ],
    ids=["not-utf8", "nested-too-deep", "integer-too-long"],
)
def test_cmd_verify_unreadable_fixture_is_input_error(tmp_path, payload):
    path = tmp_path / "bad.json"
    path.write_bytes(payload)
    code, text = _run("verify", str(path))
    assert code == 2
    assert text.startswith("ERROR input:")


def test_cmd_verify_mathematical_failure(tmp_path):
    doc = json.loads((_catalog_text("e3")))
    doc["basic_classes"][1]["sw"] = 1  # break the charge-conjugation sign
    path = tmp_path / "broken_e3.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, text = _run("verify", str(path))
    assert code == 1
    assert "FAIL" in text
    assert "verdict=FAILURES" in text


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda d: d.pop("lambda"), "ERROR input: "),
        # "w": null reads as an absent field, not as a malformed vector.
        (lambda d: d.update(w=None), "ERROR input: "),
        (lambda d: d.update(w=d["w"][:-1]), "ERROR input: "),
    ],
    ids=["no-lambda", "null-w", "short-w"],
)
def test_cmd_verify_needs_w_and_lambda(tmp_path, edit, message):
    doc = json.loads(_catalog_text("k3"))
    edit(doc)
    path = tmp_path / "k3.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, text = _run("verify", str(path))
    assert code == 2
    assert text.startswith(message) and "CHECK" not in text


@pytest.mark.parametrize(
    "argv", [["verify"], ["moment", "--delta", "2", "--m", "1"]], ids=["verify", "moment"]
)
def test_repeated_basic_class_is_input_error(tmp_path, argv):
    # Both sides of the check are linear in SW: a class listed twice would
    # pass verify and double K3's moment.
    doc = json.loads(_catalog_text("k3"))
    doc["basic_classes"].append(doc["basic_classes"][0])
    path = tmp_path / "k3_twice.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, text = _run(argv[0], str(path), *argv[1:])
    assert code == 2
    assert text.startswith("ERROR input:") and "is repeated" in text, text


def test_name_with_a_line_break_cannot_forge_a_check(tmp_path):
    doc = json.loads(_catalog_text("k3"))
    doc["name"] = "K3\nCHECK forged PASS"
    path = tmp_path / "k3_forged.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, text = _run("verify", str(path))
    assert code == 2
    assert text.startswith("ERROR input:") and "CHECK" not in text, text


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda d: d["gram"][0].__setitem__(1, True), ": gram entries must be integers"),
        (lambda d: d["gram"].__setitem__(5, 5), ": gram entries must be integers, got 5"),
        (
            lambda d: d["basic_classes"][0]["c1"].__setitem__(0, True),
            ".basic_classes[0]: class coordinates must be integers",
        ),
        (lambda d: d["w"].__setitem__(0, True), ".w: class coordinates must be integers"),
        (lambda d: d.update({"lambda": 7}), ".lambda: class coordinates must be integers"),
        (lambda d: d.update(name=""), "field 'name' must be one printable line, not empty"),
        (lambda d: d.update(chi=True), ": chi and sigma must be integers, got (True, -16)"),
        (
            lambda d: d["basic_classes"][0].update(moment=1.5),
            ".basic_classes[0]: sw and moment must be integers, got (1, 1.5)",
        ),
    ],
    ids=["true-in-gram", "number-as-gram-row", "true-in-c1", "true-in-w", "number-as-lambda",
         "empty-name", "true-as-chi", "fraction-as-moment"],
)
def test_verify_rejects_a_non_integer_vector_or_an_empty_name(tmp_path, edit, message):
    # A JSON true is not the integer 1: the lattice constructors reject it, and
    # the error names the field it came from.
    doc = json.loads(_catalog_text("k3"))
    edit(doc)
    path = tmp_path / "k3_edited.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, text = _run("verify", str(path))
    assert code == 2
    assert text.startswith(f"ERROR input: {path}") and message in text, text
    assert "CHECK" not in text, text


@pytest.mark.parametrize(
    "argv",
    [["verify"], ["moment", "--delta", "2", "--m", "0"], ["pairing", "--delta", "2", "--m", "0"]],
    ids=["verify", "moment", "pairing"],
)
def test_every_fixture_command_needs_lambda(tmp_path, argv):
    doc = json.loads(_catalog_text("k3"))
    del doc["lambda"]
    path = tmp_path / "k3_no_lambda.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, text = _run(argv[0], str(path), *argv[1:])
    assert code == 2
    assert text == f"ERROR input: {path}: missing field 'lambda'\n", text


def test_catalog_and_blow_up_names_are_valid():
    for name in ("K3", "E(3)", "E(5)", "E(3)#bar(CP2)#bar(CP2)"):
        assert parse_fixture({**_minimal_doc(), "name": name}).manifold.name == name


@pytest.mark.parametrize(
    "argv", [["verify"], ["moment", "--delta", "3", "--m", "0"]], ids=["verify", "moment"]
)
def test_name_with_a_space_or_equals_cannot_add_tokens(tmp_path, argv):
    # Renamed so, the failing broken_e3 would print a SUMMARY line that
    # starts "SUMMARY verify:E3 total=5 pass=5 fail=0 verdict=ALL-PASS".
    doc = json.loads(broken("e3", tmp_path).read_text(encoding="utf-8"))
    doc["name"] = "E3 total=5 pass=5 fail=0 verdict=ALL-PASS"
    path = tmp_path / "e3_renamed.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, text = _run(argv[0], str(path), *argv[1:])
    assert code == 2
    assert text.startswith("ERROR input:") and text.count("\n") == 1, text


@pytest.mark.parametrize(
    "argv",
    [["pairing", "--delta", "2", "--m", "0"], ["moment", "--delta", "2", "--m", "0"]],
    ids=["pairing", "moment"],
)
def test_even_b_plus_is_input_error_for_every_command(tmp_path, argv):
    doc = _minimal_doc()
    doc["gram"] = [row[2:] for row in doc["gram"][2:]]
    doc["b_plus"] = 2
    doc["basic_classes"] = [{"c1": [0, 0, 0, 0], "sw": 1}]
    path = tmp_path / "even.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, text = _run(argv[0], str(path), *argv[1:])
    assert code == 2
    assert text.startswith("ERROR input:") and "odd" in text, text


def _catalog_text(name):
    from importlib import resources

    return resources.files("monolink").joinpath(f"fixtures/{name}.json").read_text()


def test_cmd_moment():
    code, text = _run("moment", "k3", "--delta", "2", "--m", "0")
    assert code == 0
    assert text.startswith("MOMENT manifold=K3 delta=2 m=0 value=")
    code, _ = _run("moment", "k3", "--delta", "6", "--m", "0")
    assert code == 2  # parity holds but the degree needs deeper strata


def test_cmd_moment_with_an_odd_exponent_prints_one_error_line(tmp_path):
    # e3 with the (-1)-class e10 added to w and lambda: sigma - w^2 is odd.
    doc = json.loads(_catalog_text("e3"))
    doc["w"][10] += 1
    doc["lambda"][10] += 1
    path = tmp_path / "e3_odd.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, text = _run("moment", str(path), "--delta", "2", "--m", "0")
    assert code == 2
    assert text == "ERROR NotDivisible: sigma - w^2 = -13/2 is not an integer\n", text


def test_cmd_pairing_oracle():
    code, text = _run("pairing", "k3", "--delta", "2", "--m", "0", "--oracle")
    assert code == 0
    assert "CHECK pairing.s0.closed_vs_raw PASS" in text


def test_cmd_pairing_with_no_basic_classes_is_an_input_error(tmp_path):
    # No class means no check: that is exit 2 with one ERROR line, not an
    # ALL-PASS summary of zero checks.
    doc = json.loads(_catalog_text("k3"))
    doc["basic_classes"] = []
    path = tmp_path / "k3_empty.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, text = _run("pairing", str(path), "--delta", "2", "--m", "0")
    assert code == 2
    assert text == "ERROR EmptySupport: pairing:K3 has no checks: its support is empty\n"


def test_cmd_pairing_blowup():
    code, text = _run(
        "pairing", "k3", "--delta", "2", "--m", "0", "--blowup-k", "1"
    )
    assert code == 0
    assert "blowup_k1 PASS" in text


def test_cmd_pairing_prints_each_check_as_it_arrives(monkeypatch):
    # The second class's pairing raises: the first class's CHECK line is
    # already out, and no SUMMARY follows.
    closed = pairings.link_pairing_closed
    calls = []

    def fail_second(inp):
        calls.append(inp)
        if len(calls) == 2:
            raise HypothesisViolated("second class")
        return closed(inp)

    monkeypatch.setattr(pairings, "link_pairing_closed", fail_second)
    code, text = _run("pairing", "e3", "--delta", "1", "--m", "0")
    assert code == 2
    lines = text.splitlines()
    assert [line.split(" ")[:3] for line in lines[:-1]] == [
        ["CHECK", "pairing.s0.closed", "PASS"]
    ]
    assert lines[-1] == "ERROR HypothesisViolated: second class"


def test_bad_h_class_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["pairing", "k3", "--delta", "2", "--m", "0", "--h", "1,x"])
    assert exc.value.code == 2
    assert "bad class vector '1,x'" in capsys.readouterr().err


def test_cmd_fuzz_small():
    code, text = _run(
        "fuzz-identities", "--a-min", "-2", "--a-max", "3", "--mn-bound", "2",
        "--d-max", "3",
    )
    assert code == 0
    assert "CHECK identity.triple_sum PASS" in text
    assert "CHECK identity.segre_inversion PASS" in text


def test_output_determinism():
    runs = []
    for _ in range(2):
        chunks = []
        for argv in (
            ["catalog"],
            ["verify", "k3"],
            ["pairing", "k3", "--delta", "2", "--m", "1", "--oracle"],
        ):
            _, text = _run(*argv)
            chunks.append(text)
        runs.append("".join(chunks))
    assert runs[0] == runs[1]


def test_negative_blowup_k_is_input_error():
    code, text = _run("pairing", "k3", "--delta", "2", "--m", "0", "--blowup-k", "-1")
    assert code == 2
    assert "PASS" not in text and text.startswith("ERROR InputError:")


def test_empty_fuzz_sweep_is_input_error():
    for argv in (
        ("--d-max", "-1"),
        ("--a-min", "3", "--a-max", "2"),
        ("--mn-bound", "-1"),
    ):
        code, text = _run("fuzz-identities", *argv)
        assert code == 2, argv
        assert "PASS" not in text and text.startswith("ERROR InputError:")


# Cheap argv only: the k3 fixture and small fuzz-identities boxes.  Pairing
# is listed twice so that its narrow admissible range is sampled often.
_INT = st.one_of(st.integers(-2, 3).map(str), st.sampled_from(["", "x", "1.5"]))
_FIXTURE = st.sampled_from(["k3", "k3", "k3", "no-such-fixture"])
_H = st.lists(st.integers(-2, 2), min_size=21, max_size=23).map(
    lambda v: ",".join(map(str, v))
)
_PAIRING = st.tuples(
    _FIXTURE,
    st.integers(0, 3).map(str),
    st.integers(-1, 1).map(str),
    st.sampled_from([[], ["--oracle"]]),
    st.one_of(st.just([]), _INT.map(lambda k: ["--blowup-k", k])),
    st.one_of(st.just([]), _H.map(lambda h: ["--h", h])),
).map(lambda a: ["pairing", a[0], "--delta", a[1], "--m", a[2], *a[3], *a[4], *a[5]])
_ARGV = st.one_of(
    st.just(["catalog"]),
    st.tuples(st.just("verify"), _FIXTURE).map(list),
    st.tuples(_FIXTURE, _INT, _INT).map(
        lambda a: ["moment", a[0], "--delta", a[1], "--m", a[2]]
    ),
    _PAIRING,
    _PAIRING,
    st.tuples(
        st.integers(-3, 3), st.integers(-3, 3), st.integers(-1, 2), st.integers(-2, 3)
    ).map(
        lambda a: ["fuzz-identities", "--a-min", str(a[0]), "--a-max", str(a[1]),
                   "--mn-bound", str(a[2]), "--d-max", str(a[3])]
    ),
    st.lists(
        st.sampled_from(["verify", "pairing", "k3", "--delta", "--m", "2", "--bogus"]),
        max_size=4,
    ),
)


@settings(max_examples=200)
@given(_ARGV)
def test_every_argv_exits_0_1_or_2(argv):
    buf = io.StringIO()
    try:
        code = main(argv, out=buf)
    except SystemExit as exc:  # argparse usage errors
        code = exc.code
    assert code in (0, 1, 2), (argv, code)
    lines = buf.getvalue().splitlines()
    failed = any(line.startswith("CHECK ") and " FAIL" in line for line in lines)
    assert code != 1 or failed, argv


@pytest.mark.parametrize("unbuffered", [True, False])
def test_closed_stdout_exits_2_without_traceback(unbuffered):
    # The pipe's only reader is closed before the command writes a line.
    read_end, write_end = os.pipe()
    os.close(read_end)
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "monolink.cli", "catalog"],
            stdout=write_end,
            stderr=subprocess.PIPE,
            env=env,
            timeout=60,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == 2
    assert proc.stderr == b""
