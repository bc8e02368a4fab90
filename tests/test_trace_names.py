"""The benchmark tracer looks up monolink names by string, and the harness
by attribute; a rename or a deletion must fail here rather than in a
benchmark run."""

import importlib
import importlib.util
import re
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_names_exist():
    tracer = _tracer()
    for layer, names in tracer.FUNCTIONS.items():
        module = importlib.import_module(f"monolink.{layer}")
        missing = [name for name in names if not hasattr(module, name)]
        assert not missing, f"monolink.{layer} lacks {missing}"
    for (layer, cls_name), methods in tracer.METHODS.items():
        cls = getattr(importlib.import_module(f"monolink.{layer}"), cls_name)
        missing = [meth for meth in methods if meth not in vars(cls)]
        assert not missing, f"{cls_name} lacks {missing}"


def test_harness_names_exist():
    # The harness reaches monolink through attribute chains `ml.<layer>...`:
    # it clears the combinatorial caches through `cache_info` and
    # `cache_clear` of the cached functions, and builds its cases by name.
    harness = TRACER.parent
    chains = set()
    for name in ("run.py", "workloads.py"):
        text = (harness / name).read_text(encoding="utf-8")
        chains.update(re.findall(r"\bml\.(\w+(?:\.\w+)+)", text))
    assert {
        "combinatorics.ext_binomial.cache_info",
        "combinatorics.ext_binomial.cache_clear",
        "combinatorics._jacobi_at_zero.cache_clear",
    } <= chains
    for chain in sorted(chains):
        layer, *attrs = chain.split(".")
        obj = importlib.import_module(f"monolink.{layer}")
        for attr in attrs:
            assert hasattr(obj, attr), f"monolink.{chain} lacks {attr}"
            obj = getattr(obj, attr)
