"""The benchmark runs fixed ``blowfish`` command lines; every one of them must
still parse, so a flag change that would break the benchmark fails here first."""

import importlib.util
import sys
from pathlib import Path

import pytest

from blowfish_privacy.cli import build_parser

WORKLOADS_PATH = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"


def load_workloads():
    spec = importlib.util.spec_from_file_location("bench_workloads", WORKLOADS_PATH)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module.WORKLOADS


WORKLOADS = load_workloads()


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_every_benchmark_step_parses(name):
    parser = build_parser()
    steps = WORKLOADS[name].steps(0)
    assert steps
    for step in steps:
        args = parser.parse_args(list(step.args))  # exits 2 on an unknown flag
        assert args.handler.__name__ == "_cmd_" + step.kind.replace(" ", "_").replace("-", "_")
