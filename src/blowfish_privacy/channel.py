"""Channel matrices, privacy verification, and min-entropy leakage.

A channel is a row-stochastic matrix of response probabilities, one row per
input in canonical database order. The privacy level of a channel against
an adjacency graph is the smallest epsilon for which every column ratio
between adjacent rows stays within exp(epsilon); entropies and leakage are
reported in bits while epsilon stays in natural units.
"""

from __future__ import annotations

import functools
import itertools
import math
import re
import sys
from bisect import bisect_left
from operator import itemgetter, truediv
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence, TextIO

from ._frozen import Frozen
from ._numpy import np
from .errors import CapExceededError, InputError, SchemaError
from .graphcore import (
    UNREACHABLE, Graph, components_and_diameters, distance_blocks, distance_lists, hop_bound,
    record_places,
)

ROW_SUM_TOLERANCE = 1e-9
RANGE_TOLERANCE = 1e-12
# Channel cells that randomized response weighs, checks and formats at once.
BLOCK_CELLS = 2**16
# Cells a channel command computes on, at most, to work in Python floats
# rather than import numpy (:func:`small_channel`), as product_lines makes a
# graph's channel (and an unconstrained one of n >= 2 at every size). On
# threshold channels of 2**16, 2**20 and 2**24 cells (2-vCPU host, whole
# commands) `channel leakage` took 0.15, 0.58, 6.1 s in Python floats and
# 0.26, 0.46, 2.8 s on numpy; `channel verify` 0.22, 0.94, 15.1 s and 0.33,
# 0.44, 3.3 s.
PYTHON_CELLS = 2**19
# Entries of row pairs that minimal_epsilon compares at once.
EPSILON_CHUNK_CELLS = 2**13
# Entries of the rows that validate_channel screens at once, and that a CSV
# read on the numpy path stores, validates and folds at once (_csv_blocks):
# measure's ring holds one such block beyond the graph's bandwidth.
VALIDATE_CHUNK_CELLS = 2**14
# Distinct field texts a channel CSV read keeps parsed before it forgets them.
CSV_CACHE_FIELDS = 2**12
# A channel CSV number: the ASCII float grammar NumPy's text reader takes,
# narrower than float(), which also takes "1_0" and non-ASCII digits.
_NUMBER = re.compile(
    r"[+-]?(?:(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:[eE][+-]?[0-9]+)?|(?i:inf|infinity|nan))"
)


class Violation(NamedTuple):
    kind: str  # "shape", "range" or "row_sum"
    row: int
    column: int | None
    magnitude: float


def _in_range(entries: np.ndarray) -> np.ndarray:
    """Mask of the entries within ``RANGE_TOLERANCE`` of ``[0, 1]``.

    NaN fails both comparisons. The upper test subtracts 1 as the magnitude
    does: ``entries <= 1 + tol`` would pass 1.000000000001, which is
    1.00009e-12 above 1 because 1 + tol rounds up to that same float.
    """
    return (entries >= -RANGE_TOLERANCE) & (entries - 1.0 <= RANGE_TOLERANCE)


def _row_violations(i: int, row: Sequence[float]) -> list[Violation]:
    """The violations of row ``i``, any sequence of floats: its entries out of
    range, each tested as :func:`_in_range` tests it, then its exact sum.

    A finite ``fsum`` means no entry is NaN or infinite, so the row's
    smallest and largest entries order it, and when both are in range every
    entry is: the entries are then tested one by one only when one of them
    fails. An array's extremes are found by numpy, a list's by ``min`` and
    ``max``.
    """
    low, high = min, max
    if not isinstance(row, (list, tuple)):  # an array's floats, one at a time, no list
        low, high, row = np.min, np.max, memoryview(row)
    try:
        total = math.fsum(row)
    except (ValueError, OverflowError):  # inf - inf, or huge entries overflowing
        total = math.nan
    violations = []
    if not (
        math.isfinite(total) and low(row) >= -RANGE_TOLERANCE and high(row) - 1.0 <= RANGE_TOLERANCE
    ):
        for j, entry in enumerate(row):
            if not (entry >= -RANGE_TOLERANCE and entry - 1.0 <= RANGE_TOLERANCE):
                magnitude = max(-entry, entry - 1.0) if math.isfinite(entry) else math.inf
                violations.append(Violation("range", i, j, magnitude))
    if not abs(total - 1.0) <= ROW_SUM_TOLERANCE:
        violations.append(Violation("row_sum", i, None, abs(total - 1.0)))
    return violations


def validate_channel(matrix) -> list[Violation]:
    """Diagnostic scan for range and row-sum violations (empty list when valid).

    Per row: one violation per entry outside ``[0, 1]`` by more than
    ``RANGE_TOLERANCE`` (magnitude inf when the entry is not finite), then one
    for a row sum off 1 by more than ``ROW_SUM_TOLERANCE``, the sum taken
    exactly by ``math.fsum``.

    The rows are screened a block of at most ``VALIDATE_CHUNK_CELLS`` entries
    at a time, with a range mask and numpy's float sum ``s`` per row. A row
    whose entries are all in range and whose ``|s - 1|`` is at most
    ``ROW_SUM_TOLERANCE - B`` is valid, and only the other rows get the exact
    per-row scan, so the list is the one that scan gives for every row.

    ``B = 4 n u (|s| + 2 n r) + 4 u`` covers ``|s - fsum(row)|`` for a row
    of ``n`` entries, with ``u = 2**-53`` and ``r = RANGE_TOLERANCE``. Any
    order of the ``n - 1`` rounded additions that form ``s`` (pairwise or
    not) errs by at most ``g |x|_1``, ``g = (n-1) u / (1 - (n-1) u)``
    (Higham, *Accuracy and Stability of Numerical Algorithms*, ch. 4).
    In-range entries are at least ``-r``, so ``|x|_1 <= S + 2 n r`` for the
    exact sum ``S``; with ``|S| <= |s| + |s - S|`` this gives
    ``|s - S| <= g / (1 - g) (|s| + 2 n r)``, at most
    ``2 n u (|s| + 2 n r)`` while ``n u <= 1/4``. ``fsum`` rounds ``S`` once,
    by at most ``u |S| <= 2 u`` on a screened row (``|s| < 2`` there). Near 1
    the subtractions ``s - 1`` and ``fsum - 1`` are exact (Sterbenz), so
    ``B``, twice these two errors, leaves far more than the rounding in
    computing ``B`` and ``ROW_SUM_TOLERANCE - B``. Once ``B`` reaches the
    tolerance, no row passes the screen.
    """
    arr = np.asarray(matrix, dtype=float)
    if arr.ndim != 2 or arr.size == 0:
        return [Violation("shape", -1, None, float("nan"))]
    cols = arr.shape[1]
    u = 2.0**-53
    step = max(1, VALIDATE_CHUNK_CELLS // cols)
    violations = []
    for start in range(0, len(arr), step):
        block = arr[start : start + step]
        with np.errstate(over="ignore", invalid="ignore"):  # inf and inf - inf fail below
            sums = block.sum(axis=1)
        bound = 4 * cols * u * (np.abs(sums) + 2 * cols * RANGE_TOLERANCE) + 4 * u
        valid = (np.abs(sums - 1.0) <= ROW_SUM_TOLERANCE - bound) & _in_range(block).all(axis=1)
        for i in np.flatnonzero(~valid).tolist():
            violations += _row_violations(start + i, block[i])
    return violations


class _Violations:
    """Violations of channel rows checked a block at a time: their count and
    the first five named, each by its row in the whole matrix."""

    def __init__(self, what: str):
        self.what, self.count, self.head = what, 0, []

    def add(self, problems: list[Violation], first_row: int = 0) -> bool:
        """Count ``problems``, found on rows numbered from ``first_row``; True
        while no row checked so far has a violation."""
        self.count += len(problems)
        self.head += [
            ("non-finite" if v.magnitude == math.inf else v.kind)
            + f"@row {first_row + v.row}"
            + (f" col {v.column}" if v.column is not None else "")
            for v in problems[: 5 - len(self.head)]
        ]
        return not self.count

    def check(self) -> None:
        """Raise :class:`InputError` when any checked row has a violation."""
        if self.count:
            head = ", ".join(self.head)
            raise InputError(f"invalid {self.what} ({self.count} violation(s): {head})")


def _check(problems: list[Violation], what: str, first_row: int = 0) -> None:
    """Raise :class:`InputError` naming the first of ``problems``, found on
    rows numbered from ``first_row``."""
    found = _Violations(what)
    found.add(problems, first_row)
    found.check()


def _check_count(rows: int, count: int | None) -> None:
    """Raise :class:`InputError` when a channel of ``rows`` rows is read
    against a graph of ``count`` vertices (None: no graph) and they differ."""
    if count is not None and rows != count:
        raise InputError(f"graph has {count} vertices but channel has {rows} rows")


def _valid_rows(rows: Iterable[list[float]], count: int | None) -> Iterator[list[float]]:
    """The channel rows ``rows``, lists of floats, each validated by the
    exact scan :func:`_row_violations`, up to ``count`` of them (None: all).

    As in :func:`_csv_blocks`, no row is yielded after a violation, but the
    rest are still read and validated; once they end, every violation is
    raised in one :class:`InputError`, and then a row count other than
    ``count``.
    """
    found = _Violations("channel matrix")
    r = -1
    for r, row in enumerate(rows):
        if found.add(_row_violations(r, row)) and (count is None or r < count):
            yield row
    found.check()
    _check_count(r + 1, count)


class ChannelMatrix(Frozen):
    """Validated row-stochastic matrix; the backing array is read-only.

    The input is copied unless it is a read-only float64 array that owns its
    memory: such an array has been handed over by a caller that made it for
    the channel, and is kept as it is. A writable array, or a view of one, is
    always copied, so the channel never aliases data a caller can still change.
    """

    probs: np.ndarray

    def __init__(self, probs):
        arr = probs
        handed_over = (
            isinstance(arr, np.ndarray)
            and arr.dtype == np.float64
            and arr.base is None
            and not arr.flags.writeable
        )
        if not handed_over:
            arr = np.array(arr, dtype=float, copy=True)
        _check(validate_channel(arr), "channel matrix")
        arr.setflags(write=False)
        self._set(probs=arr)

    @classmethod
    def _of_checked(cls, arr: np.ndarray) -> "ChannelMatrix":
        """The channel of the float64 array ``arr``, which owns its memory and
        whose rows are validated already; ``arr`` is made read-only."""
        arr.setflags(write=False)
        chan = cls.__new__(cls)
        chan._set(probs=arr)
        return chan

    @property
    def rows(self) -> int:
        return self.probs.shape[0]

    @property
    def cols(self) -> int:
        return self.probs.shape[1]


class Prior(Frozen):
    """Probability vector over channel inputs, a tuple of Python floats
    checked as one channel row by :func:`_row_violations`."""

    probabilities: tuple[float, ...]

    def __init__(self, probabilities):
        try:
            values = () if isinstance(probabilities, str) else tuple(map(float, probabilities))
        except (TypeError, ValueError):  # not a vector of numbers: a scalar, or nested
            values = ()
        if not values:
            raise InputError("prior must be a non-empty vector")
        _check(_row_violations(0, values), "prior")
        self._set(probabilities=values)

    @classmethod
    def uniform(cls, length: int) -> "Prior":
        return cls([1.0 / length] * length)

    def __len__(self) -> int:
        return len(self.probabilities)


class LeakageReport(NamedTuple):
    """Vulnerabilities, min-entropies (bits), and min-entropy leakage (bits)."""

    vulnerability: float
    conditional_vulnerability: float
    min_entropy_bits: float
    conditional_min_entropy_bits: float
    leakage_bits: float


def _neg_log2(value: float) -> float:
    if value <= 0.0:
        return math.inf
    out = -math.log2(value)
    return 0.0 if out == 0.0 else out


def leakage(channel: ChannelMatrix, prior: Prior | None = None) -> LeakageReport:
    """Min-entropy leakage of ``channel`` under ``prior`` (None = uniform),
    from :func:`measure`.

    With the default uniform prior the conditional vulnerability is the
    column-maxima sum divided by the input count; with an explicit prior it
    is the sum of column maxima of the prior-weighted matrix.
    """
    return measure(channel, prior=prior).leakage


def uniform_leakage(column_maxima: Iterable[float], rows: int) -> LeakageReport:
    """Min-entropy leakage, under the uniform prior, of a channel with ``rows``
    inputs whose column maxima are ``column_maxima``.

    The conditional vulnerability is their ``math.fsum`` over ``rows``.
    ``fsum`` is correctly rounded, so only the multiset of maxima matters,
    not its order: a channel made of repeated blocks can pass each block's
    maxima as many times as the block occurs.
    """
    return _leakage_report(1.0 / rows, math.fsum(column_maxima) / rows)


def _leakage_report(v_prior: float, v_cond: float) -> LeakageReport:
    h_prior = _neg_log2(v_prior)
    h_cond = _neg_log2(v_cond)
    return LeakageReport(v_prior, v_cond, h_prior, h_cond, h_prior - h_cond)


def minimal_epsilon(channel: ChannelMatrix, graph: Graph) -> float:
    """Smallest epsilon at which ``channel`` is private for ``graph``, from
    :func:`measure`."""
    return measure(channel, graph, leak=False).minimal_epsilon


class ChannelMeasures(NamedTuple):
    """A channel's shape and what :func:`measure` found over its rows."""

    rows: int
    cols: int
    minimal_epsilon: float | None  # None without a graph
    leakage: LeakageReport | None  # None when not asked for


def small_channel(rows: int, cols: int, edges: int = 0, cells: int | None = None) -> bool:
    """Whether a channel command works in Python floats and imports no numpy.

    It does when the cells it computes on, ``(rows + edges) x cols`` (a
    graph's every edge compares two rows), are at most ``cells``, by
    default ``PYTHON_CELLS``: there the Python loops cost less than numpy's
    import (see ``PYTHON_CELLS`` for how far that is known; ``symmetrise
    run``, which does more per cell, passes its own crossover). The command
    knows these sizes before it allocates anything; a read takes the
    columns from its first row.
    """
    return (rows + edges) * cols <= (PYTHON_CELLS if cells is None else cells)


def measure(
    channel: ChannelMatrix | str | TextIO,
    graph: Graph | None = None,
    prior: Prior | None = None,
    leak: bool = True,
) -> ChannelMeasures:
    """The shape of ``channel``, its privacy level over ``graph`` and, when
    ``leak`` is set, its min-entropy leakage under ``prior`` (None =
    uniform), all in one pass over its rows.

    ``channel`` is a :class:`ChannelMatrix`, read as one block indexed in
    place, or the text or an open file of a channel CSV, read by
    :func:`_csv_rows` a row at a time, with no matrix built. Before any
    number is parsed, :func:`small_channel` picks the path, from the
    graph's vertex and edge counts (the row count is taken as the first
    row's width without a graph) and the first row's width. A small
    channel is parsed into lists and folded in Python floats by
    :func:`_measure_rows`; a larger one is parsed into arrays by
    :func:`_csv_blocks`, which stores channel row ``r`` at row
    ``r % len(ring)`` of a ring and yields blocks of at most
    ``VALIDATE_CHUNK_CELLS`` cells of rows. Both give the same result, bit
    for bit.

    The privacy level is the maximum over edges and columns of
    ``|ln(K[i,j] / K[h,j])|``; a zero against a positive entry forces
    infinity, two zeros contribute nothing, and an edgeless graph yields 0.
    It is taken as ``max(ln hi, -ln lo)`` over the largest and smallest
    ratios: ``ln`` is monotonic, so this is that maximum, and one logarithm
    of the same two floats on both paths. An edge is compared when the
    block holding its later row arrives, its two rows gathered by index a
    chunk at a time whose rows hold at most ``EPSILON_CHUNK_CELLS`` entries
    (one edge when a single row is longer). So the ring, allocated from the
    first row's width before any number is parsed, holds the graph's
    bandwidth (the longest distance between an edge's two rows) rounded up
    to whole blocks, plus one block, and at most one row per vertex. A
    channel with other than one row per vertex is an :class:`InputError`,
    raised once the whole channel is read and validated.

    The leakage keeps the running column maxima of the blocks (of each
    block times its rows' prior probabilities, given a prior), which are
    the whole matrix's maxima, so the report is the one the whole matrix
    gives bit for bit. A prior of another length than the row count is an
    :class:`InputError`.
    """
    edges = sorted(() if graph is None else graph.edges, key=itemgetter(1))
    count = None if graph is None else graph.vertex_count
    if isinstance(channel, ChannelMatrix):
        _check_count(channel.rows, count)
        ring = channel.probs
        blocks = [ring]
    else:
        width, lines = _csv_lines(channel)
        if small_channel(width if count is None else count, width, len(edges)):
            return _measure_rows(_csv_rows(lines, width, list), edges, graph, prior, leak)
        height = max(1, VALIDATE_CHUNK_CELLS // width)
        bandwidth = max((b - a for a, b in edges), default=0)
        length = (-(-bandwidth // height) + 1) * height
        ring = np.empty((length if count is None else min(length, count), width))
        blocks = _csv_blocks(lines, ring, count)
    later = [b for _, b in edges]
    ends = np.array(edges, dtype=np.intp).reshape(-1, 2)
    weights = None if prior is None else np.asarray(prior.probabilities)
    hi = lo = 1.0
    maxima, rows = None, 0
    for block in blocks:
        end = rows + len(block)
        if leak and (weights is None or end <= len(weights)):
            weighted = block if weights is None else block * weights[rows:end, None]
            top = weighted.max(axis=0)
            maxima = top if maxima is None else np.maximum(maxima, top, out=maxima)
        if hi < math.inf:
            first, last = bisect_left(later, rows), bisect_left(later, end)
            hi, lo = _extreme_ratios(ring, ends[first:last], hi, lo)
        rows = end
    return _channel_measures((rows, ring.shape[1]), graph, (hi, lo), maxima, prior, leak)


def _channel_measures(
    shape: tuple[int, int],
    graph: Graph | None,
    extremes: tuple[float, float],
    maxima: Iterable[float] | None,
    prior: Prior | None,
    leak: bool,
) -> ChannelMeasures:
    """The :class:`ChannelMeasures` of a channel of ``shape``, one row per
    vertex of ``graph``, whose edge ratios ran between the ``extremes`` and
    whose column maxima are ``maxima``, once, given ``leak``, its rows agree
    with the prior."""
    rows = shape[0]
    report = None
    if leak and prior is None:
        report = uniform_leakage(maxima, rows)
    elif leak:
        if len(prior) != rows:
            raise InputError(f"prior length {len(prior)} != input count {rows}")
        v_prior = max(prior.probabilities)
        report = _leakage_report(v_prior, math.fsum(maxima))
    epsilon = None
    if graph is not None:
        # The largest |ln q| over ratios q from lo to hi (infinite when hi
        # is), one libm log on both paths. lo is positive: entries are at
        # most 1 + RANGE_TOLERANCE, so no ratio of two positive ones rounds to 0.
        hi, lo = extremes
        epsilon = max(math.log(hi), -math.log(lo))
    return ChannelMeasures(*shape, epsilon, report)


def _extreme_ratios(
    ring: np.ndarray, ends: np.ndarray, hi: float, lo: float
) -> tuple[float, float]:
    """``hi`` and ``lo`` widened to the largest and smallest ``a / b`` over
    the columns where both rows of a pair that ``ends`` lists are positive,
    row ``r`` held in ``ring`` at ``r % len(ring)``, compared a chunk of
    ``EPSILON_CHUNK_CELLS`` entries at a time; ``hi`` is infinite when a
    pair's rows differ in support.

    The gathered rows are divided in place, their non-positive entries set
    to 1 first: a ratio of 1 moves neither extreme, which start at 1."""
    step = max(1, EPSILON_CHUNK_CELLS // ring.shape[1])
    for start in range(0, len(ends), step):
        chunk = ends[start : start + step] % len(ring)
        a, b = ring[chunk[:, 0]], ring[chunk[:, 1]]
        positive = a > 0
        if np.any(positive != (b > 0)):
            return math.inf, lo
        np.invert(positive, out=positive)
        a[positive] = b[positive] = 1.0
        ratios = np.divide(a, b, out=a)
        hi, lo = max(hi, float(ratios.max())), min(lo, float(ratios.min()))
    return hi, lo


def _measure_rows(
    rows: Iterable[list[float]],
    edges: list[tuple[int, int]],
    graph: Graph | None,
    prior: Prior | None,
    leak: bool,
) -> ChannelMeasures:
    """:func:`measure` of a channel's rows, lists of floats, in Python floats.

    The rows are validated by :func:`_valid_rows`, which folds none after a
    violation or past the graph's vertex count and raises at the end. The
    column maxima fold with ``max``. For the edges (sorted by their
    later row) each row is kept, until no edge needs it, as its bytes of
    positive flags and an ``array('d')`` of its positive entries, in a ring
    of the bandwidth plus one rows; two rows of an edge must have equal
    flags, and the ratios of their positive entries widen the extremes.
    """
    from array import array  # only this path needs it: kept out of start-up

    ring: list = [None] * (1 + max((b - a for a, b in edges), default=0))
    weights = None if prior is None else prior.probabilities
    hi = lo = 1.0
    maxima, cols, done, r = None, 0, 0, -1
    for r, row in enumerate(_valid_rows(rows, None if graph is None else graph.vertex_count)):
        cols = len(row)
        if leak and (weights is None or r < len(weights)):
            top = row if weights is None else [x * weights[r] for x in row]
            maxima = top if maxima is None else list(map(max, maxima, top))
        if done < len(edges) and hi < math.inf:
            flags = bytes(map((0.0).__lt__, row))
            mine = array("d", itertools.compress(row, flags))
            ring[r % len(ring)] = flags, mine
            while done < len(edges) and edges[done][1] == r:
                their_flags, theirs = ring[edges[done][0] % len(ring)]
                done += 1
                if their_flags != flags:
                    hi = math.inf
                    break
                ratios = list(map(truediv, theirs, mine))
                hi, lo = max(hi, max(ratios)), min(lo, min(ratios))
    return _channel_measures((r + 1, cols), graph, (hi, lo), maxima, prior, leak)


def _weights(epsilon: float, longest: int, width: int) -> list[float]:
    """exp(-epsilon/2 * d) for each distance d from 0 to ``longest``, then the
    0 that ``UNREACHABLE`` (-1) indexes. Distance 0 weighs 1 also at epsilon =
    inf, where exp(-inf * 0) is NaN, so that limit is the identity channel.
    A row of ``width`` weights of at most 1 sums to at most ``width``, so a
    finite epsilon at which exp(-epsilon/2 * longest) / width could fall
    below float64's smallest normal number is an :class:`InputError`."""
    limit = -2.0 * math.log(sys.float_info.min * width) / longest if longest else math.inf
    if math.inf > epsilon > limit:
        what = f"epsilon {epsilon} would underflow channel entries at distance {longest}"
        raise InputError(f"{what}: this graph admits epsilon up to {limit}")
    return [1.0, *(math.exp(-0.5 * epsilon * d) for d in range(1, longest + 1)), 0.0]


def response_blocks(
    graph: Graph, epsilon: float, columns: Sequence[int] | None = None
) -> Iterator[np.ndarray]:
    """Randomized response over ``graph``: blocks of at most ``BLOCK_CELLS``
    cells of channel rows (one row when a row is longer), each a new
    float64 array, from :func:`graphcore.distance_blocks`, so no V x V
    array is built. An entry at hop count d weighs exp(-epsilon/2 * d),
    zero across components, and each row is divided by its ``math.fsum``,
    so adjacent rows, which shift every distance and the normaliser by at
    most one, are epsilon-private. Columns come in the order ``columns``
    (all of them by default), which changes no row's sum.

    ``epsilon`` is checked on the call, before any distance: it must be
    positive, and :func:`_weights` builds the one table up to
    :func:`graphcore.hop_bound`; only if that is refused is the longest
    distance found, and the table built up to it or refused, naming it.
    """
    if not epsilon > 0:
        raise InputError(f"epsilon must be positive, got {epsilon}")
    width = graph.vertex_count
    try:
        table = _weights(epsilon, hop_bound(graph), width)
    except InputError:  # decided, and named, at the graph's longest distance
        table = _weights(epsilon, max(components_and_diameters(graph).diameters), width)
    return _response_rows(distance_blocks(graph), np.array(table), columns)


def _response_rows(
    dist_blocks: Iterable[np.ndarray], table: np.ndarray, columns: Sequence[int] | None
) -> Iterator[np.ndarray]:
    """The blocks of :func:`response_blocks` over ``dist_blocks``, the rows
    of a distance matrix in blocks of any height, entry ``d`` weighed
    ``table[d]`` (so ``UNREACHABLE``, -1, by its last, 0), each validated
    as channel rows numbered from the channel's first."""
    order = None if columns is None else np.asarray(columns, dtype=np.intp)
    first_row = 0
    for dist in dist_blocks:
        step = max(1, BLOCK_CELLS // dist.shape[1])
        for lo in range(0, len(dist), step):
            block = dist[lo : lo + step]
            if order is not None:
                block = np.take(block, order, axis=1)
            rows = table[block]
            for row in rows:
                row /= math.fsum(memoryview(row))
            _check(validate_channel(rows), "channel matrix", first_row)
            first_row += len(rows)
            yield rows
        dist = block = None  # dropped before the next block is made, not after


def product_lines(
    secret: Graph, n: int, epsilon: float, columns: Sequence[int] | None = None
) -> Iterator[str]:
    """The CSV lines that :func:`rows_to_csv` writes of :func:`response_blocks`
    over the adjacency graph of the unconstrained policy on the secret graph
    ``secret`` with ``n`` records, byte for byte, with no graph induced. A
    graph is its own one-record product, so ``n = 1`` gives the channel of
    ``secret`` itself, written by :func:`response_blocks` on numpy where
    :func:`small_channel` refuses it (no two of its rows share a
    normaliser). Any other product is made in Python floats, no numpy.

    Each row is weighed from the ``math.exp`` table, divided by its
    ``math.fsum``, its columns taken in the order ``columns``, validated by
    the exact scan :func:`_row_violations` and written as ``repr`` of each
    entry. The adjacency graph is the n-fold Cartesian product of the secret
    graph (Imrich & Klavžar, *Product Graphs*, 2000): in the mixed-radix
    canonical order, row ``p * width + s`` holds ``head[p][q] + tail[s][t]``
    in column ``q * width + t``, the summed secret distances of the first
    ``n - k`` and the last ``k = (n + 1) // 2`` records (an unreachable pair
    counts as ``beyond``, past any reachable sum). Rows whose databases hold
    the same values in another order are permutations of one another, with
    the same ``fsum`` normaliser to the bit: it is summed and the row
    validated once per multiset of values. ``epsilon`` is checked when this
    is called, and against the limit of :func:`_weights` before the first line.
    """
    if not epsilon > 0:
        raise InputError(f"epsilon must be positive, got {epsilon}")
    if n == 1 and not small_channel(secret.vertex_count, secret.vertex_count):
        return rows_to_csv(response_blocks(secret, epsilon, columns))
    return _product_lines(secret, n, epsilon, columns)


def _kronecker_sum(per: list[list[int]], records: int) -> list[list[int]]:
    """Row ``r * m + v``, column ``c * m + w``: entry ``(r, c)`` plus ``per[v][w]``."""
    table = per if records else [[0]]
    for _ in range(records - 1):
        table = [[a + b for a in row for b in per_row] for row in table for per_row in per]
    return table


def _product_lines(
    secret: Graph, n: int, epsilon: float, columns: Sequence[int] | None
) -> Iterator[str]:
    per = distance_lists(secret)
    m, beyond = len(per), n * max(map(max, per), default=0) + 1
    for per_row in per:
        if UNREACHABLE in per_row:
            per_row[:] = [beyond if d == UNREACHABLE else d for d in per_row]
    weights = _weights(epsilon, beyond - 1, m**n) + [0.0] * ((n - 1) * beyond)  # to n * beyond
    head, tail = _kronecker_sum(per, n - (n + 1) // 2), _kronecker_sum(per, (n + 1) // 2)
    width = len(tail)
    if columns is not None and len(columns) > 1:  # one column stays put (and gives no tuple)
        order = itemgetter(*columns)
    else:
        columns = None
    places = record_places(m, n)
    totals: dict[tuple[int, ...], float] = {}
    for i in range(m**n):
        head_row, tail_row = head[i // width], tail[i % width]
        key = tuple(sorted(i // place % m for place in places))
        if (total := totals.get(key)) is None:
            row = [weights[a + b] for a in head_row for b in tail_row]
            total = totals[key] = math.fsum(row)
            row = row if columns is None else order(row)
            _check(_row_violations(i, [w / total for w in row]), "channel matrix")
        head_set, tail_set = set(head_row), set(tail_row)
        texts = {d: repr(weights[d] / total) for d in {a + b for a in head_set for b in tail_set}}
        segments = {a: [texts[a + b] for b in tail_row] for a in head_set}
        if columns is None:
            joined = {a: ",".join(segment) for a, segment in segments.items()}
            yield ",".join(map(joined.__getitem__, head_row)) + "\n"
        else:
            entries = [*itertools.chain.from_iterable(map(segments.__getitem__, head_row))]
            yield ",".join(order(entries)) + "\n"


def graph_randomized_response(graph: Graph, epsilon: float) -> ChannelMatrix:
    """The channel of :func:`response_blocks` over ``graph``, its blocks
    stacked, so the only V x V array is the channel itself; an ``epsilon``
    it refuses is refused here with the same error.

    Outputs coincide with inputs; entries across components are zero, so the
    matrix is block-diagonal over the components.
    """
    arr = np.empty((graph.vertex_count, graph.vertex_count))
    start = 0
    # Each block is validated already, so the stacked matrix is not checked again.
    for block in response_blocks(graph, epsilon):
        arr[start : start + len(block)] = block
        start += len(block)
    return ChannelMatrix._of_checked(arr)


# ---------------------------------------------------------------------------
# CSV serialisation


def channel_to_csv(channel: ChannelMatrix) -> Iterator[str]:
    """The CSV lines of ``channel``, one per row (:func:`rows_to_csv`)."""
    return rows_to_csv([channel.probs])


def rows_to_csv(blocks: Iterable[np.ndarray]) -> Iterator[str]:
    """The CSV lines of the float64 rows in ``blocks``, one per row, each
    ending in a newline.

    Entries are written as ``repr`` (shortest round-trip decimal). Each row's
    distinct entries are found on their bit patterns, so ``-0.0`` stays apart
    from ``0.0``, and formatted once; the line is gathered through the
    inverse index. A distance-based channel has few distinct entries per
    row, so most ``repr`` calls are saved. A row with no repeated entry is
    formatted as it stands, so it costs only the sort more. Lines are
    produced lazily, so a caller can stream them to a file or join them into
    the whole text.
    """
    for block in blocks:
        for row in np.ascontiguousarray(block).view(np.int64):
            distinct, where = np.unique(row, return_inverse=True)
            if len(distinct) == len(row):
                yield ",".join(map(repr, row.view(np.float64).tolist())) + "\n"
                continue
            text = np.array([repr(x) for x in distinct.view(np.float64).tolist()], dtype=object)
            yield ",".join(text[where].tolist()) + "\n"


def _field_number(text: str) -> float:
    """The number in one comma-separated field of a channel CSV line.

    The line break ending the last field of a line (``\\n`` or ``\\r\\n``) is
    dropped. A field that opens with ``"`` and holds one more ``"`` stands for
    the text between them followed by the text after the second one; any
    other ``"`` stays in the text and fails. The text, stripped of whitespace,
    must match ``_NUMBER``; a carriage return outside the quotes is a line
    break inside the line, which fails.
    """
    number = text
    if '"' in text or "\r" in text:  # otherwise strip() drops a line break too
        if text.endswith("\n"):
            text = text[:-2] if text.endswith("\r\n") else text[:-1]
        quoted, bare = "", text
        if text.startswith('"') and text.count('"') == 2:
            quoted, bare = text[1:].split('"')
        if "\r" in bare:
            raise SchemaError(f"cannot read {text!r} as a number")
        number = quoted + bare
    number = number.strip()
    if not _NUMBER.fullmatch(number):
        text = text.removesuffix("\n")
        raise SchemaError(f"cannot read {text!r} as a number")
    return float(number)


def _data_lines(lines: Iterable[str]) -> Iterator[tuple[int, list[str]]]:
    """(line number, fields) of each line of ``lines`` that holds data.

    A ``#`` starts a comment that runs to the end of the line, line break
    included. A line left empty, or holding only its line break, is skipped;
    one holding only whitespace is data, and fails as a number.
    """
    for number, line in enumerate(lines, 1):
        cut = line.find("#")
        if cut >= 0:
            line = line[:cut]
        elif not line.endswith("\n"):  # the last line: end it like the others
            line += "\n"
        if line not in ("", "\n", "\r\n"):
            yield number, line.split(",")


class _FieldNumbers(dict):
    """Field text -> number, each text read by :func:`_field_number` the first
    time it is looked up; past ``CSV_CACHE_FIELDS`` texts the store starts again."""

    def __missing__(self, text: str) -> float:
        if len(self) >= CSV_CACHE_FIELDS:
            self.clear()
        value = self[text] = _field_number(text)
        return value


def _text_lines(text: str) -> Iterator[str]:
    """The lines of ``text``, each with its ``\\n``, one copied at a time."""
    start = 0
    while (end := text.find("\n", start) + 1) > 0:
        yield text[start:end]
        start = end
    if start < len(text):
        yield text[start:]


def _csv_lines(source: str | Iterable[str]) -> tuple[int, Iterator[tuple[int, list[str]]]]:
    """The width of a channel CSV's first data row, and its data lines from
    that row on, as :func:`_data_lines` splits them; no number is parsed.

    ``source`` is the CSV text or its lines (an open text file, read from
    where it stands). Empty input and undecodable bytes before the first
    row are :class:`SchemaError`.
    """
    lines = _data_lines(_text_lines(source) if isinstance(source, str) else source)
    try:
        first = next(lines, None)
    except UnicodeDecodeError as exc:
        raise SchemaError(f"channel CSV: {exc}") from None
    if first is None:
        raise SchemaError("channel CSV is empty")
    return len(first[1]), itertools.chain([first], lines)


def _csv_rows(
    lines: Iterable[tuple[int, list[str]]], width: int, row: Callable[[Iterable[float]], object]
) -> Iterator:
    """The rows of a channel CSV's data lines (:func:`_csv_lines`), each
    ``row`` of the numbers in its fields: ``list`` for Python floats, or
    ``np.fromiter`` of ``width`` floats for numpy.

    Each line holds one row of floats and ``#`` starts a comment. A field is
    a number in the ASCII grammar of ``_NUMBER`` (sign, digits, point,
    exponent, ``inf``, ``infinity``, ``nan``), with whitespace around it,
    optionally inside one pair of ``"`` that closes on its line. Each
    distinct field text is checked and parsed once, when it is first seen;
    past ``CSV_CACHE_FIELDS`` parsed texts the store starts again, so a
    channel of few distinct values parses each of them once, and its rows
    share their float objects. The store is dropped when the text ends.

    Malformed fields, rows whose width differs from ``width`` and
    undecodable bytes are :class:`SchemaError`, named by line number.
    """
    get = _FieldNumbers().__getitem__
    try:
        try:
            for number, fields in lines:
                if len(fields) != width:
                    raise SchemaError(f"{len(fields)} field(s) where the first row has {width}")
                yield row(map(get, fields))
        except SchemaError as exc:
            raise SchemaError(f"channel CSV line {number}: {exc}") from None
    except UnicodeDecodeError as exc:
        raise SchemaError(f"channel CSV: {exc}") from None


def _csv_blocks(
    lines: Iterable[tuple[int, list[str]]], store: np.ndarray, count: int | None
) -> Iterator[np.ndarray]:
    """The rows of a channel CSV's data lines (:func:`_csv_lines`), parsed
    into float64 by :func:`_csv_rows` and stored and validated a block at a
    time, as :func:`_valid_rows` validates rows of Python floats.

    Channel row ``r`` is stored at row ``r % len(store)`` of ``store``, an
    array as wide as the rows. A block holds at most
    ``VALIDATE_CHUNK_CELLS`` cells of rows (one row when a row is longer)
    and ends early at the end of ``store``. A full block is yielded once the
    row after it has been parsed, and the last one at the end of the text,
    after the parser and its parsed field texts are dropped. Each block is
    validated as channel rows numbered from the channel's first. After a
    block with a violation none is yielded, but the text is still parsed
    and validated to its end, where all the violations are raised in one
    :class:`InputError`, and then a row count other than ``count`` (None:
    any); so a malformed field on a later line is reported instead, as by a
    reader that parses the whole text before it validates.
    """
    width = store.shape[1]
    height = max(1, VALIDATE_CHUNK_CELLS // width)
    parse = functools.partial(np.fromiter, dtype=float, count=width)
    found = _Violations("channel matrix")
    start, block, held = 0, (), 0
    for row in _csv_rows(lines, width, parse):
        if held == len(block):
            if held and found.add(validate_channel(block), start):
                yield block
            start += held
            at = start % len(store)
            block, held = store[at : at + height], 0
        block[held] = row
        held += 1
    if found.add(validate_channel(block[:held]), start):
        yield block[:held]
    found.check()
    _check_count(start + held, count)


def check_cells(rows: int, cols: int, max_cells: int | None) -> None:
    """Raise :class:`CapExceededError` when a channel of ``rows`` x ``cols``
    cells has more than ``max_cells`` (None: no cap)."""
    if max_cells is not None and rows * cols > max_cells:
        raise CapExceededError(
            f"channel has {rows} x {cols} = {rows * cols} cells, exceeding the cap of {max_cells}"
        )


def channel_from_csv(
    source: str | TextIO, rows: int, max_cells: int | None = None
) -> ChannelMatrix:
    """Parse a channel CSV (the text, or an open text file read from where
    it stands) of ``rows`` rows into one matrix: :func:`read_channel`'s
    dense case.

    ``rows`` is the vertex count of the graph the channel is read against;
    a caller with no graph takes it from ``measure(source).rows``.
    """
    return read_channel(source, rows, max_cells)


def read_channel(
    source: str | TextIO,
    rows: int,
    max_cells: int | None = None,
    edges: int = 0,
    python_cells: int | None = None,
) -> ChannelMatrix | list[list[float]]:
    """The channel CSV ``source`` (the text, or an open text file read from
    where it stands), one row per vertex of a graph of ``rows`` vertices and
    ``edges`` edges, read in one pass, a line at a time, with no copy of it.

    The first data row's width is read before any number is parsed, and a
    channel of more than ``max_cells`` cells (None: no cap) is
    :class:`CapExceededError`. A channel that :func:`small_channel` admits
    at ``python_cells`` (None: none is), counting the edges by that width,
    is read into lists of Python floats by :func:`_valid_rows`, as
    ``symmetrise run`` works on it. Any other fills, by :func:`_csv_blocks`,
    one float64 array of ``rows`` x that width, which the channel keeps with
    no copy and no second validation. On both routes rows past ``rows`` are
    parsed and validated but not kept (on the dense route they wrap into
    that array, which is then never returned), so their violations and
    malformed lines are still reported; every violation is raised once the
    text is read, and then a row count other than ``rows``.
    """
    width, lines = _csv_lines(source)
    check_cells(rows, width, max_cells)
    if python_cells is not None and small_channel(rows, width, edges, python_cells):
        return list(_valid_rows(_csv_rows(lines, width, list), rows))
    out = np.empty((max(1, rows), width))  # a row for rows past a count of 0 to wrap into
    for _ in _csv_blocks(lines, out, rows):
        pass
    return ChannelMatrix._of_checked(out)
