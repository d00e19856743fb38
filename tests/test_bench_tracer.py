"""The benchmark tracer wraps library functions by name; keep those names alive."""

import importlib
import importlib.util
from pathlib import Path

TRACER_PATH = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_function_exists_in_its_layer():
    tracer = load_tracer()
    missing = []
    for layer, functions in tracer.TRACED.items():
        module = importlib.import_module(f"blowfish_privacy.{layer}")
        missing += [f"{layer}.{fn}" for fn in functions if not callable(getattr(module, fn, None))]
    assert not missing, f"bench/tracer.py traces names the library lacks: {missing}"
