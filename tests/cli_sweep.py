"""Exit code and stdout digest of 450 `pairing` and `moment` argvs.

The grid is every catalog fixture k3, e3, e5, every delta in 0..8 and
every m in 0..delta/2: `moment` once, and `pairing --oracle` without
`--blowup-k` and with each k in 0..3.  Most of it exits 2 (no level-one
stratum, or a hypothesis that fails); the rest prints closed and oracle
pairings, so a change to either route, or to an error message, shows.

Not a pytest module (its name does not start with `test_`): the sweep
takes about 30 s.  Run it from the repository root as

    PYTHONPATH=src python tests/cli_sweep.py > sweep.txt
    diff tests/golden/cli_sweep.txt sweep.txt
"""

import hashlib
import io

from monolink.cli import main


def argvs() -> list[list[str]]:
    out = []
    for fixture in ("k3", "e3", "e5"):
        for delta in range(9):
            for m in range(delta // 2 + 1):
                grid = [fixture, "--delta", str(delta), "--m", str(m)]
                out.append(["moment", *grid])
                out.append(["pairing", *grid, "--oracle"])
                for k in range(4):
                    out.append(["pairing", *grid, "--oracle", "--blowup-k", str(k)])
    return out


def sweep_lines() -> list[str]:
    lines = []
    for argv in argvs():
        buf = io.StringIO()
        code = main(argv, out=buf)
        digest = hashlib.sha256(buf.getvalue().encode("utf-8")).hexdigest()
        lines.append(f"{' '.join(argv)}\texit={code}\tsha256={digest}")
    return lines


if __name__ == "__main__":
    print("\n".join(sweep_lines()))
