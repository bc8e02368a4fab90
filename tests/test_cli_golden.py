"""Exit code and stdout digest of CLI commands whose output the other
golden data never reaches: verify runs with unequal rows (every degree
row expanded and rendered; on E(3) the degree-4 rhs has 17,240 terms, on
E(5) the largest row has 4,472) and the public moment command on E(3) and
E(5).  Also the exit code and stdout of
every command in the benchmark's `perfbench/reference.json`, read only.

Run this file as a script to print the lines of `golden/cli_golden.txt`.
"""

import hashlib
import io
import json
from importlib import resources
from pathlib import Path

from monolink.cli import main

GOLDEN = Path(__file__).parent / "golden" / "cli_golden.txt"
REFERENCE = Path(__file__).resolve().parents[1] / "perfbench" / "reference.json"

MOMENT_ARGVS = (
    ("moment", "e3", "--delta", "3", "--m", "0"),
    ("moment", "e3", "--delta", "3", "--m", "1"),
    ("moment", "e5", "--delta", "5", "--m", "0"),
)


def broken(name: str, directory: Path) -> Path:
    """The fixture `name` with the charge-conjugation sign of its second
    basic class broken: SW negated."""
    text = resources.files("monolink").joinpath(f"fixtures/{name}.json").read_text()
    doc = json.loads(text)
    doc["basic_classes"][1]["sw"] *= -1
    path = directory / f"broken_{name}.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


def golden_lines(directory: Path) -> list[str]:
    cases = [
        (f"verify broken_{name}", ("verify", str(broken(name, directory))))
        for name in ("e3", "e5")
    ]
    cases += [(" ".join(argv), argv) for argv in MOMENT_ARGVS]
    lines = []
    for label, argv in cases:
        buf = io.StringIO()
        code = main(list(argv), out=buf)
        digest = hashlib.sha256(buf.getvalue().encode("utf-8")).hexdigest()
        lines.append(f"{label}\texit={code}\tsha256={digest}")
    return lines


def test_cli_golden(tmp_path):
    expected = GOLDEN.read_text(encoding="utf-8").splitlines()
    assert golden_lines(tmp_path) == expected


def test_cli_matches_benchmark_reference():
    # Keys are the argv joined by single spaces (perfbench/capture_reference.py).
    reference = json.loads(REFERENCE.read_text(encoding="utf-8"))
    assert reference
    for key, expected in reference.items():
        buf = io.StringIO()
        code = main(key.split(" "), out=buf)
        assert code == expected["exit"], key
        assert buf.getvalue() == expected["stdout"], key


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        print("\n".join(golden_lines(Path(tmp))))
