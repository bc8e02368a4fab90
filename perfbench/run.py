"""monolink benchmark: seeded closed-loop workloads against the public API.

    python3 perfbench/run.py --workload verify-catalog --seed 1 --seconds 60 --trace 0

Run from a checkout's root; monolink is imported from `src/` there and
nowhere else.  One process, one thread: each case starts when the previous
one has finished.  The last stdout line is the JSON result

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with the end-to-end metrics (`--trace 0`), timed in units of a fixed
calibration loop (see calibrate.py), or the per-layer metrics
(`--trace 1`).  The line before it holds the run metadata and the
per-kind detail, which are also written with the spans to
`.perfbench/<workload>.seed<seed>.trace<t>.json`.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import io
import json
import math
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from array import array
from pathlib import Path
from types import SimpleNamespace

sys.path.insert(0, str(Path(__file__).resolve().parent))

from calibrate import Calibrator  # noqa: E402
from tracer import LAYERS, Tracer, summarize  # noqa: E402
from workloads import CATALOG, SMOKE_ARGVS, VERIFY_ARGVS, WORKLOADS, probe_cases  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
REFERENCE = Path(__file__).resolve().parent / "reference.json"
OUT_DIR = ROOT / ".perfbench"
DEFAULT_SEED = 0
DEFAULT_SECONDS = 60.0
SETUP_REPS = 21
MIN_PASSES = 2
# The cheap cases a workload marks as fillers (the K3 verify) are also run,
# cold, for this long (calibrations included) after every other case,
# set-up and CLI run, so that their samples are spread over the whole run.
FILL_S = 0.05
# A pass or CLI run starts only if this many times its last duration fits
# in the time left, so that a run seldom outlasts `--seconds`.
SLACK = 1.15
CLI_TIMEOUT_S = 60

END_TO_END = {
    "setup_s": "s",
    "cases_per_kcal": "1/kcal",
    "case_cal.p10": "cal",
    "case_cal.p50": "cal",
    "case_cal.p90": "cal",
    "cli_cal": "cal",
    "peak_rss_mb": "MB",
}

SELF_TIMED = (
    "polyring.mul",
    "polyring.scale",
    "polyring.add",
    "polyring.pow",
    "polyring.exp_series",
    "polyring.evaluate",
    "polyring.inverse",
    "combinatorics.triple_sum_lhs",
    "pairings.segre_coefficient",
    "pairings.segre_coefficient_by_inversion",
    "pairings.link_pairing_closed",
    "pairings.link_pairing_raw",
    "pairings.blow_up_pairing_closed",
    "pairings.blow_up_pairing_polarized",
    "witten.sw_series",
    "witten.assemble_donaldson_series",
    "witten.donaldson_moment",
    "witten.sw_vanishing_check",
    "witten.verify_witten",
    "cli.parse_fixture",
)

PER_LAYER_UNITS = {
    "polyring.mul.calls": "count",
    "polyring.mul.term_pairs": "count",
    "polyring.mul.peak_terms": "count",
    "polyring.mul.nvars_max": "count",
    "combinatorics.jacobi_at_zero.calls": "count",
    "manifold.r_and_i.calls": "count",
    "combinatorics.ext_binomial.lookups": "count",
    "combinatorics.ext_binomial.hit_ratio": "ratio",
    "lattice.IntersectionForm.init_s": "s",
    **{f"{name}.self_s": "s" for name in SELF_TIMED},
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    "trace_overhead_ratio": "ratio",
}

# Counts must repeat exactly between traced passes and between runs.
EXACT_COUNTS = (
    "polyring.mul.calls",
    "polyring.mul.term_pairs",
    "polyring.mul.peak_terms",
    "polyring.mul.nvars_max",
    "combinatorics.jacobi_at_zero.calls",
    "manifold.r_and_i.calls",
    "combinatorics.ext_binomial.lookups",
)


class BenchError(Exception):
    """The checkout cannot be benchmarked; no result is printed."""


# -- set-up -------------------------------------------------------------------


def import_monolink() -> SimpleNamespace:
    """Import monolink afresh from the checkout's `src/`."""
    for name in [n for n in sys.modules if n == "monolink" or n.startswith("monolink.")]:
        del sys.modules[name]
    package = importlib.import_module("monolink")
    origin = Path(package.__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise BenchError(f"monolink imported from {origin}, not from {SRC}")
    mods = {layer: importlib.import_module(f"monolink.{layer}") for layer in LAYERS}
    return SimpleNamespace(package=package, **mods)


def build_inputs(ml, workload, seed):
    """Load and validate the catalog, then make the seeded cases."""
    fixtures = {name: ml.cli.load_catalog_fixture(name) for name in CATALOG}
    return fixtures, workload.make_cases(ml, fixtures, random.Random(seed))


def timed_setup(workload, seed, times: list, cal: Calibrator):
    """Import monolink afresh, load the catalog, build the inputs."""
    ticks = cal.tick_s
    start = time.perf_counter()
    ml = import_monolink()
    fixtures, cases = build_inputs(ml, workload, seed)
    times.append(time.perf_counter() - start - (cal.tick_s - ticks))
    return ml, fixtures, cases


# -- passes -------------------------------------------------------------------


def clear_caches(ml) -> tuple[int, int]:
    """Clear the combinatorial caches; return ext_binomial's (hits, misses)
    since the previous clear."""
    info = ml.combinatorics.ext_binomial.cache_info()
    ml.combinatorics.ext_binomial.cache_clear()
    ml.combinatorics._jacobi_at_zero.cache_clear()
    return info.hits, info.misses


class PassResult:
    """Per-case times and outcomes of one pass over the case list.  With a
    calibrator, `units` holds the length of one cal around each case."""

    def __init__(self) -> None:
        self.durations = array("d")
        self.units = array("d")
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.hits = 0
        self.misses = 0
        self.wall = 0.0

    def add_cache(self, hits_misses) -> None:
        self.hits += hits_misses[0]
        self.misses += hits_misses[1]

    def in_cal(self) -> list[float]:
        return [d / u for d, u in zip(self.durations, self.units)]


def run_case(ml, workload, case, result: PassResult, cal=None) -> float:
    """The case's time in seconds, less the calibrator's ticks within it."""
    ticks = cal.tick_s if cal is not None else 0.0
    t0 = time.perf_counter()
    try:
        ok = workload.run_case(ml, case)
    except Exception:  # a raising case is a failed case; keep measuring
        ok = False
        if len(result.errors) < 5:
            result.errors.append(traceback.format_exc(limit=3))
    elapsed = time.perf_counter() - t0
    if cal is not None:
        elapsed -= cal.tick_s - ticks
    result.attempted += 1
    result.failed += not ok
    return elapsed


def run_pass(ml, workload, cases, between=None, cal=None) -> PassResult:
    """One closed-loop pass: each case once, each starting when the previous
    one returned.  `wall` is the sum of the case times; cache clearing,
    `gc.collect()` and whatever `between` runs after a case stay outside it.
    With a calibrator, each verify case (cold per case) and each identity
    pass as a whole runs between two calibrations."""
    result = PassResult()
    clear_caches(ml)
    gc.collect()
    per_case = cal is not None and workload.cold_per_case
    mark = cal.mark() if cal is not None and not per_case else None
    for case in cases:
        if workload.cold_per_case:
            result.add_cache(clear_caches(ml))
        if per_case:
            elapsed, unit = cal.around(run_case, ml, workload, case, result, cal)
            result.units.append(unit)
        else:
            elapsed = run_case(ml, workload, case, result, cal)
        result.durations.append(elapsed)
        if between is not None and workload.cold_per_case:
            between()
    if mark is not None:
        result.units.extend([cal.unit_since(mark)] * len(cases))
    result.wall = sum(result.durations)
    result.add_cache(clear_caches(ml))
    return result


# -- correctness against the reference ------------------------------------------


def load_reference() -> dict:
    return json.loads(REFERENCE.read_text(encoding="utf-8"))


def cli_in_process(ml, argv) -> dict:
    buf = io.StringIO()
    code = ml.cli.main(list(argv), out=buf)
    return {"exit": code, "stdout": buf.getvalue()}


def reference_mismatches(ml, argvs, reference) -> list[str]:
    bad = []
    for argv in argvs:
        key = " ".join(argv)
        if cli_in_process(ml, argv) != reference[key]:
            bad.append(key)
    return bad


def time_cli(argv, reference) -> tuple[float, bool]:
    """Wall time of one `python -m monolink.cli <argv>`, and whether it
    exited and printed exactly as the reference."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    expected = reference[" ".join(argv)]
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "monolink.cli", *argv],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=CLI_TIMEOUT_S,
    )
    elapsed = time.perf_counter() - start
    return elapsed, proc.returncode == expected["exit"] and proc.stdout == expected["stdout"]


# -- metrics ------------------------------------------------------------------


def nearest_rank(sorted_values, q: float) -> float:
    """The smallest value with at least a share q of the values at or below
    it; with three cases, p10/p50/p90 are the first, second and third."""
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def per_kind(labels, values) -> dict:
    by_label: dict[str, list[float]] = {}
    for label, value in zip(labels, values):
        by_label.setdefault(label, []).append(value)
    return {
        label: {"cases": len(vals), "median": statistics.median(vals)}
        for label, vals in sorted(by_label.items())
    }


def phase_layers(summary, hits: int, misses: int) -> dict:
    """Per-layer metrics of one traced phase, plus the raw cache hits."""
    names = summary["names"]

    def calls(name):
        return names.get(name, (0, 0.0, 0.0))[0]

    def total(name):
        return names.get(name, (0, 0.0, 0.0))[1]

    def self_s(name):
        return names.get(name, (0, 0.0, 0.0))[2]

    mul_calls, term_pairs, peak_terms, nvars_max = summary["mul"]
    out = {
        "polyring.mul.calls": mul_calls,
        "polyring.mul.term_pairs": term_pairs,
        "polyring.mul.peak_terms": peak_terms,
        "polyring.mul.nvars_max": nvars_max,
        "combinatorics.jacobi_at_zero.calls": calls("combinatorics.jacobi_at_zero"),
        "manifold.r_and_i.calls": calls("manifold.r_and_i"),
        "combinatorics.ext_binomial.lookups": hits + misses,
        "combinatorics.ext_binomial.hits": hits,
        "lattice.IntersectionForm.init_s": total("lattice.IntersectionForm.init"),
    }
    for name in SELF_TIMED:
        out[f"{name}.self_s"] = self_s(name)
    for layer in LAYERS:
        out[f"{layer}.self_s"] = sum(
            entry[2] for name, entry in names.items() if name.split(".", 1)[0] == layer
        )
    return out


def combine_layers(setup: dict, passes: list[dict], probe: dict) -> dict:
    """One traced set-up + one case pass + the probe cases.  Counts come
    from the first traced pass (all passes must agree); times are the
    median over traced passes."""
    out = {}
    for key, first in passes[0].items():
        if key in ("polyring.mul.peak_terms", "polyring.mul.nvars_max"):
            out[key] = max(setup[key], first, probe[key])
        elif key.endswith("_s"):
            out[key] = setup[key] + statistics.median(p[key] for p in passes) + probe[key]
        else:
            out[key] = setup[key] + first + probe[key]
    hits = out.pop("combinatorics.ext_binomial.hits")
    lookups = out["combinatorics.ext_binomial.lookups"]
    out["combinatorics.ext_binomial.hit_ratio"] = hits / lookups if lookups else 0.0
    return out


# -- the two kinds of run -------------------------------------------------------


def run_timed(workload, seed, seconds, reference):
    """Passes over the case list until `seconds` have gone by, with the
    set-ups, the CLI runs and the filler repetitions spread between them.
    Every case, filler and CLI run is timed between two calibrations."""
    start = time.perf_counter()
    deadline = start + seconds
    cal = Calibrator(workload.calibration)
    setup_times: list[float] = []
    cli_times: list[float] = []
    cli_cal: list[float] = []
    cli_bad = 0
    with cal.ticking():
        ml, _, cases = timed_setup(workload, seed, setup_times, cal)

        mismatches = reference_mismatches(ml, SMOKE_ARGVS, reference)
        if seed == DEFAULT_SEED and workload.name == "verify-catalog":
            mismatches += reference_mismatches(
                ml, [a for a in VERIFY_ARGVS if a not in SMOKE_ARGVS], reference
            )

        fillers = [i for i, case in enumerate(cases) if workload.filler(case)]
        filler_cal: dict[int, list[float]] = {i: [] for i in fillers}
        extra = PassResult()  # outcomes of the filler repetitions
        between_s = 0.0

        def fill():
            for i in fillers:
                t0 = time.perf_counter()
                while time.perf_counter() - t0 < FILL_S:
                    extra.add_cache(clear_caches(ml))
                    elapsed, unit = cal.around(run_case, ml, workload, cases[i], extra, cal)
                    filler_cal[i].append(elapsed / unit)

        def due(done: int, reps: int) -> bool:
            # the n-th of `reps` spread runs is due once (n + 1/2)/reps of the run is gone
            return done < reps and time.perf_counter() - start >= (done + 0.5) * seconds / reps

        def setup():
            timed_setup(workload, seed, setup_times, cal)  # measured, then dropped
            fill()

        def cli():
            nonlocal cli_bad
            (elapsed, ok), unit = cal.around(time_cli, workload.cli_argv, reference)
            cli_times.append(elapsed)
            cli_cal.append(elapsed / unit)
            cli_bad += not ok
            fill()

        def between():
            nonlocal between_s
            t0 = time.perf_counter()
            fill()
            while due(len(setup_times), SETUP_REPS):
                setup()
            while due(len(cli_times), workload.cli_reps) and (
                not cli_times or SLACK * max(cli_times) <= deadline - time.perf_counter()
            ):
                cli()
            between_s += time.perf_counter() - t0

        passes: list[PassResult] = []
        pass_cost = 0.0
        while len(passes) < MIN_PASSES or SLACK * pass_cost <= deadline - time.perf_counter():
            t0, b0 = time.perf_counter(), between_s
            passes.append(run_pass(ml, workload, cases, between, cal))
            pass_cost = time.perf_counter() - t0 - (between_s - b0)
            if not workload.cold_per_case:
                between()
        while len(setup_times) < SETUP_REPS:
            setup()
        if not cli_times:
            cli()
        while fillers and time.perf_counter() < deadline:  # the time no pass fits in
            fill()

    if cli_bad:
        mismatches.append(f"subprocess {' '.join(workload.cli_argv)} x{cli_bad}")
    if cal.wrong:
        mismatches.append(f"calibration loop gave a wrong product x{cal.wrong}")
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    # A case's figure is the median of its samples in cal; the filler
    # repetitions add to the samples of their case.
    samples = [list(s) for s in zip(*(p.in_cal() for p in passes))]
    for i, extra_samples in filler_cal.items():
        samples[i] += extra_samples
    per_case = [statistics.median(s) for s in samples]
    ordered = sorted(per_case)
    pass_cal = [sum(p.in_cal()) for p in passes]
    metrics = {
        "setup_s": statistics.median(setup_times),
        "cases_per_kcal": 1000 * len(cases) / statistics.median(pass_cal),
        "case_cal.p10": nearest_rank(ordered, 0.10),
        "case_cal.p50": nearest_rank(ordered, 0.50),
        "case_cal.p90": nearest_rank(ordered, 0.90),
        "cli_cal": statistics.median(cli_cal),
        "peak_rss_mb": peak_rss_mb,
    }
    outcomes = passes + [extra]
    labels = [workload.label(case) for case in cases]
    detail = {
        "cal_s": {
            "loop": workload.calibration,
            "samples": len(cal.times),
            "median": statistics.median(cal.times),
            "min": min(cal.times),
            "max": max(cal.times),
        },
        "passes": len(passes),
        "pass_walls_s": [p.wall for p in passes],
        "pass_walls_cal": pass_cal,
        "cases_per_pass": len(cases),
        "filler_samples": extra.attempted,
        "cases": sum(p.attempted for p in outcomes),
        "per_kind_cal": per_kind(labels, per_case),
        "per_kind_fastest_s": per_kind(
            labels, [min(times) for times in zip(*(p.durations for p in passes))]
        ),
        "setup_times_s": setup_times,
        "cli_argv": list(workload.cli_argv),
        "cli_times_s": cli_times,
        "cli_times_cal": cli_cal,
        "check_failures": mismatches,
        "errors": [e for p in outcomes for e in p.errors][:5],
    }
    return metrics, END_TO_END, outcomes, detail, []


def run_traced(workload, seed, seconds, reference):
    """Untraced and traced passes in turn until `seconds` have gone by,
    between a traced set-up and the traced probe cases."""
    deadline = time.perf_counter() + seconds
    ml = import_monolink()
    tracer = Tracer()
    spans = tracer.spans

    clear_caches(ml)
    with tracer.installed(ml):
        fixtures, cases = build_inputs(ml, workload, seed)
    setup = phase_layers(summarize(spans, 0, len(spans)), *clear_caches(ml))

    outcomes: list[PassResult] = []
    traced_phases, ratios = [], []
    pair_cost = 0.0
    while not ratios or SLACK * pair_cost <= deadline - time.perf_counter():
        t0 = time.perf_counter()
        untraced = run_pass(ml, workload, cases)
        mark = len(spans)
        with tracer.installed(ml):
            traced = run_pass(ml, workload, cases)
        pair_cost = time.perf_counter() - t0
        outcomes += [untraced, traced]
        traced_phases.append(
            phase_layers(summarize(spans, mark, len(spans)), traced.hits, traced.misses)
        )
        if len(traced_phases) > 1:
            del spans[mark:]  # keep the spans of set-up and the first pass only
        ratios.append(traced.wall / untraced.wall)

    probes = probe_cases(ml, fixtures)
    clear_caches(ml)
    mark = len(spans)
    mismatches = []
    with tracer.installed(ml):
        for runner, case in probes:
            if not runner(ml, case):
                mismatches.append(f"probe {runner.__name__} {case}")
    probe = phase_layers(summarize(spans, mark, len(spans)), *clear_caches(ml))
    mismatches += reference_mismatches(ml, SMOKE_ARGVS, reference)

    unrepeated = [
        key for key in EXACT_COUNTS if any(p[key] != traced_phases[0][key] for p in traced_phases)
    ]
    if unrepeated:
        mismatches.append(f"counts differ between traced passes: {unrepeated}")
    metrics = combine_layers(setup, traced_phases, probe)
    metrics["trace_overhead_ratio"] = statistics.median(ratios)
    detail = {
        "traced_passes": len(traced_phases),
        "cases_per_pass": len(cases),
        "cases": sum(p.attempted for p in outcomes),
        "check_failures": mismatches,
        "errors": [e for p in outcomes for e in p.errors][:5],
    }
    return metrics, PER_LAYER_UNITS, outcomes, detail, spans


# -- entry point --------------------------------------------------------------


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*")):
        if path.is_file() and path.suffix in (".py", ".json"):
            digest.update(str(path.relative_to(SRC)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def git_commit():
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def metadata(args, detail) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "traced": bool(args.trace),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "git_commit": git_commit(),
        "src_sha256": source_digest(),
        "cases": detail["cases"],
        "cases_per_pass": detail["cases_per_pass"],
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "monolink" / "__init__.py").is_file():
        print(f"perfbench: no monolink package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workload = WORKLOADS[args.workload]
    runner = run_traced if args.trace else run_timed
    try:
        reference = load_reference()
        metrics, units, passes, detail, spans = runner(
            workload, args.seed, args.seconds, reference
        )
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    failed = sum(p.failed for p in passes)
    meta = metadata(args, detail)
    OUT_DIR.mkdir(exist_ok=True)
    out_path = OUT_DIR / f"{args.workload}.seed{args.seed}.trace{args.trace}.json"
    record = {"meta": meta, "metrics": metrics, "detail": detail}
    with out_path.open("w", encoding="utf-8") as fh:
        json.dump({**record, "spans": spans}, fh)
    print(json.dumps(record))

    final = {
        "correct": failed == 0 and not detail["check_failures"],
        "attempted": detail["cases"],
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
