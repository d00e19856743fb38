"""Channel matrices, privacy verification, and min-entropy leakage.

A channel is a row-stochastic matrix of response probabilities, one row per
input in canonical database order. The privacy level of a channel against
an adjacency graph is the smallest epsilon for which every column ratio
between adjacent rows stays within exp(epsilon); entropies and leakage are
reported in bits while epsilon stays in natural units.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import InputError, SchemaError
from .graphcore import Graph, distances
from .reporting import render_kv

ROW_SUM_TOLERANCE = 1e-9
RANGE_TOLERANCE = 1e-12


class Violation(NamedTuple):
    kind: str  # "shape", "range" or "row_sum"
    row: int
    column: int | None
    magnitude: float


def validate_channel(matrix, tolerance: float = ROW_SUM_TOLERANCE) -> list[Violation]:
    """Diagnostic scan for range and row-sum violations (empty list when valid)."""
    arr = np.asarray(matrix, dtype=float)
    if arr.ndim != 2 or arr.size == 0:
        return [Violation("shape", -1, None, float("nan"))]
    violations = []
    for i in range(arr.shape[0]):
        row = arr[i]
        for j, entry in enumerate(row):
            if not math.isfinite(entry):
                violations.append(Violation("range", i, j, float("inf")))
                continue
            outside = max(-entry, entry - 1.0)
            if outside > RANGE_TOLERANCE:
                violations.append(Violation("range", i, j, float(outside)))
        total = math.fsum(float(x) for x in row)
        if not math.isfinite(total) or abs(total - 1.0) > tolerance:
            violations.append(Violation("row_sum", i, None, float(abs(total - 1.0))))
    return violations


@dataclass(frozen=True, eq=False)
class ChannelMatrix:
    """Validated row-stochastic matrix; the backing array is read-only."""

    probs: np.ndarray

    def __post_init__(self):
        arr = np.array(self.probs, dtype=float, copy=True)
        problems = validate_channel(arr)
        if problems:
            head = ", ".join(
                f"{v.kind}@row {v.row}" + (f" col {v.column}" if v.column is not None else "")
                for v in problems[:5]
            )
            raise InputError(f"invalid channel matrix ({len(problems)} violation(s): {head})")
        arr.setflags(write=False)
        object.__setattr__(self, "probs", arr)

    @property
    def rows(self) -> int:
        return self.probs.shape[0]

    @property
    def cols(self) -> int:
        return self.probs.shape[1]


@dataclass(frozen=True, eq=False)
class Prior:
    """Probability vector over channel inputs."""

    probabilities: np.ndarray

    def __post_init__(self):
        arr = np.array(self.probabilities, dtype=float, copy=True)
        if arr.ndim != 1 or arr.size == 0:
            raise InputError("prior must be a non-empty vector")
        if np.any(arr < -RANGE_TOLERANCE):
            raise InputError("prior has negative entries")
        total = math.fsum(float(x) for x in arr)
        if abs(total - 1.0) > ROW_SUM_TOLERANCE:
            raise InputError(f"prior sums to {total}, expected 1")
        arr.setflags(write=False)
        object.__setattr__(self, "probabilities", arr)

    @classmethod
    def uniform(cls, length: int) -> "Prior":
        return cls(np.full(length, 1.0 / length))

    def __len__(self) -> int:
        return int(self.probabilities.shape[0])


@dataclass(frozen=True)
class LeakageReport:
    """Vulnerabilities, min-entropies (bits), and min-entropy leakage (bits)."""

    vulnerability: float
    conditional_vulnerability: float
    min_entropy_bits: float
    conditional_min_entropy_bits: float
    leakage_bits: float

    def to_items(self) -> list[tuple[str, object]]:
        return [
            ("vulnerability", self.vulnerability),
            ("conditional_vulnerability", self.conditional_vulnerability),
            ("min_entropy_bits", self.min_entropy_bits),
            ("conditional_min_entropy_bits", self.conditional_min_entropy_bits),
            ("leakage_bits", self.leakage_bits),
        ]

    def to_text(self) -> str:
        return render_kv(self.to_items())


def _neg_log2(value: float) -> float:
    if value <= 0.0:
        return math.inf
    out = -math.log2(value)
    return 0.0 if out == 0.0 else out


def leakage(channel: ChannelMatrix, prior: Prior | None = None) -> LeakageReport:
    """Min-entropy leakage of ``channel`` under ``prior`` (None = uniform).

    With the default uniform prior the conditional vulnerability is the
    column-maxima sum divided by the input count; with an explicit prior it
    is the sum of column maxima of the prior-weighted matrix.
    """
    ell = channel.rows
    if prior is None:
        column_maxima = channel.probs.max(axis=0)
        v_prior = 1.0 / ell
        v_cond = math.fsum(float(x) for x in column_maxima) / ell
    else:
        if len(prior) != ell:
            raise InputError(f"prior length {len(prior)} != input count {ell}")
        weighted = channel.probs * prior.probabilities[:, None]
        v_prior = float(prior.probabilities.max())
        v_cond = math.fsum(float(x) for x in weighted.max(axis=0))
    h_prior = _neg_log2(v_prior)
    h_cond = _neg_log2(v_cond)
    return LeakageReport(v_prior, v_cond, h_prior, h_cond, h_prior - h_cond)


def minimal_epsilon(channel: ChannelMatrix, graph: Graph) -> float:
    """Smallest epsilon at which ``channel`` is private for ``graph``.

    Maximum over edges and columns of ``|ln(K[i,j] / K[h,j])|``; a zero
    against a positive entry forces infinity, two zeros contribute nothing,
    and an edgeless graph yields 0.
    """
    if graph.vertex_count != channel.rows:
        raise InputError(
            f"graph has {graph.vertex_count} vertices but channel has {channel.rows} rows"
        )
    probs = channel.probs
    worst = 0.0
    for i, h in graph.edges:
        a, b = probs[i], probs[h]
        if np.any((a > 0) != (b > 0)):
            return math.inf
        both = (a > 0) & (b > 0)
        if both.any():
            ratios = np.abs(np.log(a[both] / b[both]))
            worst = max(worst, float(ratios.max()))
    return worst


def graph_randomized_response(graph: Graph, epsilon: float) -> ChannelMatrix:
    """Test channel with output weight exp(-epsilon/2 * distance) per component.

    Outputs coincide with inputs; entries across components are zero, so the
    matrix is block-diagonal over the components. The result is private for
    ``graph`` at level ``epsilon`` (adjacent rows shift every distance by at
    most one, and so does the normaliser).
    """
    if not epsilon > 0:
        raise InputError(f"epsilon must be positive, got {epsilon}")
    dist = distances(graph)
    n = graph.vertex_count
    out = np.zeros((n, n))
    for i in range(n):
        reachable = [j for j in range(n) if dist[i][j] >= 0]
        weights = [math.exp(-0.5 * epsilon * dist[i][j]) for j in reachable]
        total = math.fsum(weights)
        for j, w in zip(reachable, weights):
            out[i, j] = w / total
    return ChannelMatrix(out)


# ---------------------------------------------------------------------------
# CSV serialisation


def channel_to_csv(channel: ChannelMatrix) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    for row in channel.probs:
        writer.writerow([repr(float(x)) for x in row])
    return buf.getvalue()


def channel_from_csv(text: str) -> ChannelMatrix:
    rows = [row for row in csv.reader(io.StringIO(text)) if row]
    if not rows:
        raise SchemaError("channel CSV is empty")
    try:
        [float(cell) for cell in rows[0]]
    except ValueError:
        rows = rows[1:]  # header row of output labels
        if not rows:
            raise SchemaError("channel CSV has a header but no data rows") from None
    width = len(rows[0])
    matrix = []
    for lineno, row in enumerate(rows, start=1):
        if len(row) != width:
            raise SchemaError(f"channel CSV row {lineno} has {len(row)} cells, expected {width}")
        try:
            matrix.append([float(cell) for cell in row])
        except ValueError as exc:
            raise SchemaError(f"channel CSV row {lineno}: {exc}") from None
    return ChannelMatrix(np.asarray(matrix))
