"""Rewrite reference.json from the checkout's current monolink.

    python3 perfbench/capture_reference.py

Records the exit code and stdout of every CLI command the benchmark
compares: the smoke set, `verify` on each catalog fixture, and each
workload's subprocess command.  Rerun it only when a change is meant to
alter the CLI output; the benchmark's correctness gate is this file.
"""

import io
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from monolink import cli  # noqa: E402
from workloads import SMOKE_ARGVS, VERIFY_ARGVS, WORKLOADS  # noqa: E402


def main() -> int:
    argvs = list(SMOKE_ARGVS) + list(VERIFY_ARGVS) + [w.cli_argv for w in WORKLOADS.values()]
    reference = {}
    for argv in argvs:
        buf = io.StringIO()
        code = cli.main(list(argv), out=buf)
        reference[" ".join(argv)] = {"exit": code, "stdout": buf.getvalue()}
    (HERE / "reference.json").write_text(
        json.dumps(reference, indent=1, sort_keys=True) + "\n", encoding="utf-8"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
