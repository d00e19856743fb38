"""The benchmark tracer wraps library functions by name and reads sizes off their
results; keep those names and result attributes alive."""

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


def _sample_calls():
    """One small real argument tuple for each function whose result SIZES reads."""
    import numpy as np

    from blowfish_privacy import Graph, complete_policy

    policy = complete_policy(3, n=2)
    return {
        "policy.enumerate_permissible": (policy,),
        "adjacency.induce_adjacency_graph": (policy,),
        "graphcore.generate_group": ([(1, 2, 0), (1, 0, 2)],),
        "graphcore.automorphism_group": (Graph.from_edges(4, [(0, 1), (2, 3)]),),
        "graphcore.pair_orbits": ([(2, 1, 0)], 3),
        "channel.validate_channel": (np.full((2, 2), 0.5),),
        "tightness.sharpness_sweep": ([2, 3], [0.1]),
    }


def test_every_size_reads_a_real_result():
    tracer = load_tracer()
    samples = _sample_calls()
    assert set(tracer.SIZES) <= set(samples), "add a sample call for each SIZES entry"
    for span, rules in tracer.SIZES.items():
        layer, fn = span.split(".")
        args = samples[span]
        result = getattr(importlib.import_module(f"blowfish_privacy.{layer}"), fn)(*args)
        for metric, how, size in rules:
            value = size(args, result)
            assert how in ("sum", "max"), f"{metric}: unknown aggregation {how!r}"
            assert isinstance(value, int) and value >= 0, f"{metric} read {value!r}"
