"""Outside-in tracer for the ``blowfish`` CLI.

Run as a script it stands in for ``python -m blowfish_privacy.cli``. It wraps
each function in ``TRACED`` at every ``blowfish_privacy`` module attribute
that binds it, so calls between modules are caught, runs ``cli.main`` once,
restores the originals and writes the spans it kept in memory as JSON lines
to the file named by ``BENCH_SPAN_FILE``. Nothing in the package is edited.

Imported, :func:`session_layers` turns the span files of one session into
per-layer metrics. ``reporting`` and ``errors`` are not traced, so their time
is self time of the layer that calls them.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time

TRACED = {
    "policy": ("build_policy", "policy_from_json", "policy_to_json", "enumerate_permissible"),
    "adjacency": ("induce_adjacency_graph", "adjacency_to_json", "adjacency_from_json"),
    "graphcore": (
        "distances",
        "components_and_diameters",
        "lift_policy_automorphisms",
        "generate_group",
        "automorphism_group",
        "pair_orbits",
        "orbits",
    ),
    "channel": (
        "graph_randomized_response",
        "validate_channel",
        "minimal_epsilon",
        "leakage",
        "channel_to_csv",
        "channel_from_csv",
    ),
    "bounds": ("audit", "unconstrained_audit", "component_bound_bits"),
    "symmetrise": ("diagonal_maximise", "group_average", "check_symmetrisation"),
    "tightness": ("sharpness_sweep", "sharpness_channel"),
}

COMMAND_KINDS = (
    "policy build",
    "policy validate",
    "adjacency induce",
    "bound compute",
    "channel generate",
    "channel verify",
    "channel leakage",
    "symmetrise run",
    "tightness sweep",
    "figure bound-sweep",
)

# Sizes read off a traced call: span name -> ((metric, "sum" | "max", size), ...).
SIZES = {
    "policy.enumerate_permissible": (("policy.databases", "max", lambda a, r: len(r)),),
    "adjacency.induce_adjacency_graph": (("adjacency.edges", "max", lambda a, r: len(r.edges)),),
    "graphcore.generate_group": (
        ("graphcore.group_order", "max", lambda a, r: r.order),
        ("graphcore.generators", "max", lambda a, r: len(r.generators)),
    ),
    "graphcore.automorphism_group": (
        ("graphcore.group_order", "max", lambda a, r: r.order),
        ("graphcore.generators", "max", lambda a, r: len(r.generators)),
    ),
    "graphcore.pair_orbits": (("graphcore.pair_orbit_count", "max", lambda a, r: len(r)),),
    "channel.validate_channel": (
        ("channel.validated_cells", "sum", lambda a, r: _cells(a[0])),
        ("channel.max_cells", "max", lambda a, r: _cells(a[0])),
    ),
    "tightness.sharpness_sweep": (("tightness.instances", "sum", lambda a, r: len(r)),),
}

# Span name -> count metric.
CALLS = {
    "adjacency.induce_adjacency_graph": "adjacency.induce_calls",
    "graphcore.distances": "graphcore.distances_calls",
    "channel.validate_channel": "channel.validate_channel_calls",
}

STARTUP = "cli.startup"
MAIN = "cli.main"
HEAD_METRICS = {STARTUP: "cli.startup_s", MAIN: "cli.self_s"}


def _cells(matrix) -> int:
    import numpy as np

    return int(np.size(matrix))


def kind_metric(kind: str) -> str:
    return "cli." + kind.replace(" ", "_").replace("-", "_") + "_s"


def unit(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    return "B" if metric.startswith("cli.bytes_") else "count"


def layer_metric_names() -> list[str]:
    """Every per-layer metric :func:`session_layers` reports, in a fixed order."""
    names = ["cli.startup_s", "cli.self_s", "cli.cpu_s", "cli.bytes_written", "cli.bytes_read"]
    names += [kind_metric(k) for k in COMMAND_KINDS]
    for layer, functions in TRACED.items():
        for fn in functions:
            span = f"{layer}.{fn}"
            names.append(span + "_s")
            if span in CALLS:
                names.append(CALLS[span])
            names += [metric for metric, _, _ in SIZES.get(span, ()) if metric not in names]
    names += ["trace.session_s", "trace.overhead_s", "trace.unaccounted_s"]
    return names


# ---------------------------------------------------------------------------
# Child side


class Tracer:
    """Wraps the traced functions in place and keeps their spans in memory."""

    def __init__(self, parent: int, first_id: int):
        self.spans: list[dict] = []
        self._first_id = first_id
        self._stack = [parent]
        self._patched: list[tuple[object, str, object]] = []

    def install(self, modules) -> None:
        for layer, functions in TRACED.items():
            home = sys.modules[f"blowfish_privacy.{layer}"]
            for fn in functions:
                original = getattr(home, fn)
                wrapped = self._wrap(f"{layer}.{fn}", original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            self._patched.append((module, attr, original))
                            setattr(module, attr, wrapped)

    def restore(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def _wrap(self, name: str, fn):
        spans, stack, sizes = self.spans, self._stack, SIZES.get(name, ())
        first_id = self._first_id

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = {"id": first_id + len(spans), "name": name, "parent": stack[-1]}
            spans.append(span)
            stack.append(span["id"])
            span["start"] = time.monotonic_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.monotonic_ns()
                stack.pop()
            if sizes:
                span["sizes"] = {metric: size(args, result) for metric, _, size in sizes}
            return result

        return traced


def _io_counters() -> dict[str, int]:
    """Bytes this process read and wrote so far (``rchar``/``wchar``), if exposed."""
    try:
        with open("/proc/self/io", encoding="ascii") as handle:
            fields = dict(line.split(": ") for line in handle.read().splitlines())
    except OSError:
        return {"rchar": 0, "wchar": 0}
    return {"rchar": int(fields["rchar"]), "wchar": int(fields["wchar"])}


def child_main(argv: list[str]) -> int:
    spawned = int(os.environ["BENCH_SPAWN_NS"])
    span_file = os.environ["BENCH_SPAN_FILE"]
    from blowfish_privacy import cli

    modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "blowfish_privacy"]
    tracer = Tracer(parent=1, first_id=2)
    tracer.install(modules)
    io_before = _io_counters()
    entered = time.monotonic_ns()
    code = 1
    try:
        code = cli.main(argv)
    finally:
        left = time.monotonic_ns()
        io_after = _io_counters()
        tracer.restore()
        head = [
            {"id": 0, "name": STARTUP, "parent": None, "start": spawned, "end": entered},
            {
                "id": 1,
                "name": MAIN,
                "parent": None,
                "start": entered,
                "end": left,
                "sizes": {
                    "cli.bytes_read": io_after["rchar"] - io_before["rchar"],
                    "cli.bytes_written": io_after["wchar"] - io_before["wchar"],
                },
            },
        ]
        with open(span_file, "w", encoding="utf-8") as handle:
            for span in head + tracer.spans:
                handle.write(json.dumps(span) + "\n")
    return code


# ---------------------------------------------------------------------------
# Parent side


def self_times(spans: list[dict]) -> dict[int, int]:
    """Span id -> duration minus the durations of its direct children (ns).

    Spans of one process come from one thread, so siblings never overlap.
    """
    own = {s["id"]: s["end"] - s["start"] for s in spans}
    out = dict(own)
    for s in spans:
        if s["parent"] is not None:
            out[s["parent"]] -= own[s["id"]]
    return out


def session_layers(commands: list[dict], session_ns: int) -> dict[str, float]:
    """Per-layer metrics for one traced session.

    ``commands`` holds, per command, its ``kind``, ``wall_ns`` (spawn to
    reap), ``cpu_s`` and ``spans``. Every span's self time goes to exactly
    one ``_s`` metric, so the ``_s`` metrics of the layers plus
    ``trace.unaccounted_s`` add up to ``trace.session_s``.
    """
    names = layer_metric_names()
    metrics: dict[str, float] = dict.fromkeys(names, 0)
    accounted = 0
    for command in commands:
        metrics[kind_metric(command["kind"])] += command["wall_ns"] / 1e9
        metrics["cli.cpu_s"] += command["cpu_s"]
        spans = command["spans"]
        for span_id, self_ns in self_times(spans).items():
            name = spans[span_id]["name"]
            metric = HEAD_METRICS.get(name, name + "_s")
            metrics[metric] += self_ns / 1e9
            accounted += self_ns
        for span in spans:
            if span["name"] in CALLS:
                metrics[CALLS[span["name"]]] += 1
            rules = {metric: how for metric, how, _ in SIZES.get(span["name"], ())}
            for metric, value in span.get("sizes", {}).items():
                if rules.get(metric) == "max":
                    metrics[metric] = max(metrics[metric], value)
                else:
                    metrics[metric] += value
    metrics["trace.session_s"] = session_ns / 1e9
    metrics["trace.unaccounted_s"] = (session_ns - accounted) / 1e9
    return metrics


def layer_sum_s(metrics: dict[str, float]) -> float:
    """Sum of the self-time metrics, to compare against the session time."""
    kinds = {kind_metric(k) for k in COMMAND_KINDS}
    return sum(
        v
        for k, v in metrics.items()
        if k.endswith("_s") and k not in kinds and k != "cli.cpu_s" and not k.startswith("trace.")
    )


if __name__ == "__main__":
    sys.exit(child_main(sys.argv[1:]))
