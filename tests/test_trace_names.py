"""The benchmark tracer looks up monolink names by string; a rename or a
deletion must fail here rather than in a traced benchmark run."""

import importlib
import importlib.util
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
