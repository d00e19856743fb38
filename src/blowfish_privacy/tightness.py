"""Sharpness family: channels whose leakage approaches the bound.

For n >= 2 the adjacency graph is one 4-clique plus n - 1 disjoint 2-cliques
(2n + 2 vertices, n components, every diameter 1); it is neither regular nor
vertex transitive. The matching block-diagonal channel, parametrised by
delta > 0, is private at exactly ln(1 + delta), and the ratio of the leakage
upper bound to the realised leakage tends to 1 as delta tends to 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from ._numpy import np
from .channel import ChannelMatrix, leakage, minimal_epsilon
from .errors import InputError
from .graphcore import Graph
from .reporting import render_csv

SWEEP_COLUMNS = (
    "n",
    "delta",
    "epsilon",
    "bound_bits",
    "leakage_bits",
    "ratio",
    "closed_form_gap",
)


def _check_parameters(n: int, delta: float | None = None) -> None:
    if n < 2:
        raise InputError(f"the sharpness family needs n >= 2, got {n}")
    if delta is not None and not 0 < delta < math.inf:
        raise InputError(f"delta must be positive and finite, got {delta}")


def sharpness_graph(n: int) -> Graph:
    """One 4-clique on vertices 0..3 plus n - 1 disjoint edges."""
    _check_parameters(n)
    edges = [(a, b) for a in range(4) for b in range(a + 1, 4)]
    for t in range(n - 1):
        edges.append((4 + 2 * t, 5 + 2 * t))
    return Graph.from_edges(2 * n + 2, edges)


def sharpness_channel(n: int, delta: float) -> ChannelMatrix:
    """Block-diagonal channel matched to :func:`sharpness_graph`.

    The 4x4 block has rows of ``(1+delta, 1+delta, 1, 1)`` cyclically
    shifted one column per row; each 2x2 block is
    ``[[2+2*delta, 2], [2, 2+2*delta]]``. All entries share the normaliser
    ``4 + 2*delta``; rows are built in exact rational arithmetic and
    converted to floats entry by entry.
    """
    _check_parameters(n, delta)
    d = Fraction(delta)
    norm = 4 + 2 * d
    high = (1 + d) / norm
    low = 1 / norm
    pair_high = (2 + 2 * d) / norm
    pair_low = 2 / norm

    size = 2 * n + 2
    out = np.zeros((size, size))
    for r in range(4):
        for c in range(4):
            out[r, c] = float(high if (c - r) % 4 in (0, 1) else low)
    for t in range(n - 1):
        base = 4 + 2 * t
        out[base, base] = float(pair_high)
        out[base, base + 1] = float(pair_low)
        out[base + 1, base] = float(pair_low)
        out[base + 1, base + 1] = float(pair_high)
    out.setflags(write=False)  # handed over to the channel, not copied
    return ChannelMatrix(out)


def closed_form_leakage_bits(n: int, delta: float) -> float:
    """``log2((4(1+delta) + (2n-2)(2+2*delta)) / (4+2*delta))`` via exact rationals."""
    _check_parameters(n, delta)
    d = Fraction(delta)
    value = (4 * (1 + d) + (2 * n - 2) * (2 + 2 * d)) / (4 + 2 * d)
    return math.log2(float(value))


def sharpness_ratio(n: int, delta: float) -> tuple[float, float, float]:
    """Closed-form ``(bound_bits, leakage_bits, ratio)`` for one instance.

    The bound is ``log2(n * (1 + delta))`` (n components of diameter 1 at
    epsilon = ln(1 + delta)); the ratio tends to 1 as delta tends to 0.
    """
    _check_parameters(n, delta)
    bound_bits = math.log2(n * (1.0 + delta))
    leakage_bits = closed_form_leakage_bits(n, delta)
    return bound_bits, leakage_bits, bound_bits / leakage_bits


@dataclass(frozen=True)
class SharpnessInstance:
    n: int
    delta: float
    epsilon: float
    graph: Graph
    channel: ChannelMatrix
    bound_bits: float
    leakage_bits: float
    ratio: float
    measured_epsilon: float
    measured_leakage_bits: float
    closed_form_gap: float


def build_sharpness_instance(n: int, delta: float) -> SharpnessInstance:
    """Construct one instance and measure it through the channel machinery."""
    graph = sharpness_graph(n)
    channel = sharpness_channel(n, delta)
    bound_bits, leakage_bits, ratio = sharpness_ratio(n, delta)
    measured_eps = minimal_epsilon(channel, graph)
    measured_leak = leakage(channel).leakage_bits
    return SharpnessInstance(
        n=n,
        delta=float(delta),
        epsilon=math.log1p(delta),
        graph=graph,
        channel=channel,
        bound_bits=bound_bits,
        leakage_bits=leakage_bits,
        ratio=ratio,
        measured_epsilon=measured_eps,
        measured_leakage_bits=measured_leak,
        closed_form_gap=abs(measured_leak - leakage_bits),
    )


def sharpness_sweep(
    ns: Sequence[int], deltas: Sequence[float]
) -> list[SharpnessInstance]:
    """One instance per (n, delta), n-major order."""
    return [build_sharpness_instance(n, delta) for n in ns for delta in deltas]


def sweep_to_csv(instances: Sequence[SharpnessInstance]) -> str:
    rows = [
        (
            inst.n,
            inst.delta,
            inst.epsilon,
            inst.bound_bits,
            inst.leakage_bits,
            inst.ratio,
            inst.closed_form_gap,
        )
        for inst in instances
    ]
    return render_csv(SWEEP_COLUMNS, rows)
