"""Sharpness family: channels whose leakage approaches the bound.

For n >= 2 the adjacency graph is one 4-clique plus n - 1 disjoint 2-cliques
(2n + 2 vertices, n components, every diameter 1); it is neither regular nor
vertex transitive. The matching block-diagonal channel, parametrised by
delta > 0, is private at exactly ln(1 + delta), and the ratio of the leakage
upper bound to the realised leakage tends to 1 as delta tends to 0.

The channel has two distinct blocks, the 4x4 one and the 2x2 one repeated
n - 1 times, and ``sharpness_channel(2, delta)`` holds each once. An instance
is measured on that 6x6 kernel, held as six rows of Python floats: its
numbers equal the dense channel's for every n, so a sweep costs O(n) per
instance, not O(n^2), and builds no array, so it never imports numpy.
"""

from __future__ import annotations

import math
from operator import attrgetter
from typing import NamedTuple, Sequence

from ._numpy import np
from .channel import ChannelMatrix, _check, _row_violations, minimal_epsilon, uniform_leakage
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


def _kernel_rows(delta: float) -> list[list[float]]:
    """The six rows of ``sharpness_channel(2, delta)``, as Python floats.

    Its four distinct entries, ``(1+delta, 1, 2+2*delta, 2)`` over the shared
    normaliser ``4 + 2*delta``, are formed in exact rational arithmetic and
    each rounded to a float once.
    """
    from fractions import Fraction  # only the sweep needs it: kept out of start-up

    d = Fraction(delta)
    norm = 4 + 2 * d
    high, low, pair_high, pair_low = (
        float(x) for x in ((1 + d) / norm, 1 / norm, (2 + 2 * d) / norm, 2 / norm)
    )
    block = [[high if (c - r) % 4 in (0, 1) else low for c in range(4)] for r in range(4)]
    pair = [[pair_high, pair_low], [pair_low, pair_high]]
    return [row + [0.0] * 2 for row in block] + [[0.0] * 4 + row for row in pair]


def sharpness_channel(n: int, delta: float) -> ChannelMatrix:
    """Block-diagonal channel matched to :func:`sharpness_graph`.

    The 4x4 block has rows of ``(1+delta, 1+delta, 1, 1)`` cyclically
    shifted one column per row; each 2x2 block is
    ``[[2+2*delta, 2], [2, 2+2*delta]]``. All entries share the normaliser
    ``4 + 2*delta``. Both blocks are those of :func:`_kernel_rows`.

    At ``n = 2`` it holds one block of each kind: the sweep measures that
    6x6 kernel, which stands for the dense channel of every ``n``.
    """
    _check_parameters(n, delta)
    kernel = _kernel_rows(delta)
    size = 2 * n + 2
    out = np.zeros((size, size))
    out[:4, :4] = [row[:4] for row in kernel[:4]]
    for p in range(4, size, 2):
        out[p : p + 2, p : p + 2] = [row[4:] for row in kernel[4:]]
    out.setflags(write=False)  # handed over to the channel, not copied
    return ChannelMatrix(out)


def closed_form_leakage_bits(n: int, delta: float) -> float:
    """``log2((4(1+delta) + (2n-2)(2+2*delta)) / (4+2*delta))`` via exact rationals."""
    _check_parameters(n, delta)
    from fractions import Fraction

    d = Fraction(delta)
    value = (4 * (1 + d) + (2 * n - 2) * (2 + 2 * d)) / (4 + 2 * d)
    return math.log2(float(value))


def sharpness_ratio(n: int, delta: float) -> tuple[float, float, float]:
    """Closed-form ``(bound_bits, leakage_bits, ratio)`` for one instance.

    The bound is ``log2(n * (1 + delta))`` (n components of diameter 1 at
    epsilon = ln(1 + delta)); the ratio tends to 1 as delta tends to 0.
    Where the product overflows, the bound is taken as the sum of the two
    logarithms.
    """
    _check_parameters(n, delta)
    product = n * (1.0 + delta)
    if math.isinf(product):
        bound_bits = math.log2(n) + math.log2(1.0 + delta)
    else:
        bound_bits = math.log2(product)
    leakage_bits = closed_form_leakage_bits(n, delta)
    return bound_bits, leakage_bits, bound_bits / leakage_bits


class SharpnessInstance(NamedTuple):
    """One measured instance, in O(1) memory. Its O(n) graph and its
    measured epsilon are computed when they are read; the O(n^2) channel is
    never built, and :func:`sharpness_channel` builds it when it is wanted."""

    n: int
    delta: float
    epsilon: float
    bound_bits: float
    leakage_bits: float
    ratio: float
    measured_leakage_bits: float
    closed_form_gap: float

    @property
    def graph(self) -> Graph:
        """:func:`sharpness_graph` of the instance's ``n``, built on each read."""
        return sharpness_graph(self.n)

    @property
    def measured_epsilon(self) -> float:
        """:func:`minimal_epsilon` of the 6x6 kernel over its graph, computed on
        each read: no edge crosses a block and two zeros contribute nothing,
        so it is the dense channel's, bit for bit."""
        return minimal_epsilon(sharpness_channel(2, self.delta), sharpness_graph(2))


def build_sharpness_instance(n: int, delta: float) -> SharpnessInstance:
    """Construct one instance and measure it on the six rows of the 6x6
    kernel ``sharpness_channel(2, delta)``, held as Python floats.

    The numbers are those of the dense ``sharpness_channel(n, delta)``, bit
    for bit:

    - validation: every kernel row gets the exact per-row scan that
      :class:`ChannelMatrix` gives a row its screen cannot clear, and each
      dense row is a kernel row padded with zeros, which change neither its
      range check nor its ``fsum`` row sum;
    - leakage: the dense column maxima are the kernel's first four and its
      last two n - 1 times each. :func:`uniform_leakage` sums them with
      ``fsum``, which rounds their exact sum once; that sum is taken here
      by multiplicity in exact rationals and rounded once, so the one float
      passed is the ``fsum`` of the 2n + 2 maxima, with no list of them.
    """
    from fractions import Fraction

    bound_bits, leakage_bits, ratio = sharpness_ratio(n, delta)  # checks n and delta
    kernel = _kernel_rows(delta)
    _check(
        [v for i, row in enumerate(kernel) for v in _row_violations(i, row)], "channel matrix"
    )
    maxima = [Fraction(max(column)) for column in zip(*kernel)]
    total = float(sum(maxima[:4]) + sum(maxima[4:]) * (n - 1))
    measured_leak = uniform_leakage([total], 2 * n + 2).leakage_bits
    return SharpnessInstance(
        n=n,
        delta=float(delta),
        epsilon=math.log1p(delta),
        bound_bits=bound_bits,
        leakage_bits=leakage_bits,
        ratio=ratio,
        measured_leakage_bits=measured_leak,
        closed_form_gap=abs(measured_leak - leakage_bits),
    )


def sharpness_sweep(
    ns: Sequence[int], deltas: Sequence[float]
) -> list[SharpnessInstance]:
    """One instance per (n, delta), n-major, in input order.

    Every parameter is checked before any instance is built. Each instance
    measures a 6x6 kernel and keeps only its numbers, so the sweep holds no
    graph and no O(n^2) array.
    """
    for n in ns:
        for delta in deltas:
            _check_parameters(n, delta)
    return [build_sharpness_instance(n, delta) for n in ns for delta in deltas]


def sweep_to_csv(instances: Sequence[SharpnessInstance]) -> str:
    return render_csv(SWEEP_COLUMNS, map(attrgetter(*SWEEP_COLUMNS), instances))
