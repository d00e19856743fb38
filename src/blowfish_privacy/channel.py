"""Channel matrices, privacy verification, and min-entropy leakage.

A channel is a row-stochastic matrix of response probabilities, one row per
input in canonical database order. The privacy level of a channel against
an adjacency graph is the smallest epsilon for which every column ratio
between adjacent rows stays within exp(epsilon); entropies and leakage are
reported in bits while epsilon stays in natural units.
"""

from __future__ import annotations

import itertools
import math
import re
from bisect import bisect_left
from operator import itemgetter
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence, TextIO

from ._frozen import Frozen
from ._numpy import np
from .errors import InputError, SchemaError
from .graphcore import Graph, distance_blocks

ROW_SUM_TOLERANCE = 1e-9
RANGE_TOLERANCE = 1e-12
# Channel cells that randomized response weighs, checks and formats at once.
BLOCK_CELLS = 2**16
# Entries of row pairs that minimal_epsilon compares at once.
EPSILON_CHUNK_CELLS = 2**13
# Entries of the rows that validate_channel screens at once.
VALIDATE_CHUNK_CELLS = 2**14
# Characters of a channel CSV file read at once by the counting pass.
CSV_CHUNK_CHARS = 2**16
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


def _row_violations(i: int, row: np.ndarray) -> list[Violation]:
    """The violations of row ``i``: its entries out of range, then its exact sum."""
    violations = []
    for j in np.flatnonzero(~_in_range(row)).tolist():
        entry = float(row[j])
        magnitude = max(-entry, entry - 1.0) if math.isfinite(entry) else math.inf
        violations.append(Violation("range", i, j, magnitude))
    try:  # a memoryview hands fsum the floats one at a time, with no row list
        total = math.fsum(memoryview(row))
    except (ValueError, OverflowError):  # inf - inf, or huge entries overflowing
        total = math.nan
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

    def add(self, arr: np.ndarray, first_row: int = 0) -> bool:
        """Check the rows ``arr``, numbered from ``first_row``; True while
        no row checked so far has a violation."""
        problems = validate_channel(arr)
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


def _check(arr: np.ndarray, what: str, first_row: int = 0) -> None:
    """Raise :class:`InputError` naming the first violations of ``arr``,
    whose rows are numbered from ``first_row``."""
    found = _Violations(what)
    found.add(arr, first_row)
    found.check()


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
        _check(arr, "channel matrix")
        arr.setflags(write=False)
        self._set(probs=arr)

    @classmethod
    def _of_checked_rows(
        cls, blocks: Iterable[np.ndarray], shape: tuple[int, int]
    ) -> "ChannelMatrix":
        """The channel of ``shape`` whose rows ``blocks`` hold in order, each
        block validated already, so the stacked matrix is not checked again."""
        arr = np.empty(shape)
        start = 0
        for block in blocks:
            arr[start : start + len(block)] = block
            start += len(block)
        return cls._of_checked(arr)

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
    """Probability vector over channel inputs."""

    probabilities: np.ndarray

    def __init__(self, probabilities):
        arr = np.array(probabilities, dtype=float, copy=True)
        if arr.ndim != 1 or arr.size == 0:
            raise InputError("prior must be a non-empty vector")
        _check(arr[None, :], "prior")
        arr.setflags(write=False)
        self._set(probabilities=arr)

    @classmethod
    def uniform(cls, length: int) -> "Prior":
        return cls(np.full(length, 1.0 / length))

    def __len__(self) -> int:
        return int(self.probabilities.shape[0])


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
    :func:`_csv_blocks` a block of at most ``BLOCK_CELLS`` cells of rows at
    a time, with no matrix built.

    The privacy level is the maximum over edges and columns of
    ``|ln(K[i,j] / K[h,j])|``; a zero against a positive entry forces
    infinity, two zeros contribute nothing, and an edgeless graph yields 0.
    An edge is compared when the block holding its later row arrives, its
    two rows gathered by index a chunk at a time whose rows hold at most
    ``EPSILON_CHUNK_CELLS`` entries (one edge when a single row is longer).
    So a CSV read keeps the rows it reads in a ring indexed by row number
    modulo its length: the block, and before it the graph's bandwidth (the
    longest distance between an edge's two rows) rounded up to whole
    blocks. Every ratio and logarithm is the same float operation as in an
    edge-by-edge scan, so the result equals that scan's exactly. A channel
    with other than one row per vertex is an :class:`InputError`, raised
    once the whole channel is read and validated.

    The leakage keeps the running column maxima of the blocks (of each
    block times its rows' prior probabilities, given a prior), which are
    the whole matrix's maxima, so the report is the one the whole matrix
    gives bit for bit. A prior of another length than the row count is an
    :class:`InputError`.
    """
    edges = sorted(() if graph is None else graph.edges, key=itemgetter(1))
    later = [b for _, b in edges]
    bandwidth = max((b - a for a, b in edges), default=0)
    ends = np.array(edges, dtype=np.intp).reshape(-1, 2)
    if isinstance(channel, ChannelMatrix):
        ring = channel.probs
        blocks = [ring]
    else:
        ring = None

        def place(first_row: int, width: int) -> np.ndarray:
            nonlocal ring
            height = max(1, BLOCK_CELLS // width)
            if ring is None:
                length = (-(-bandwidth // height) + 1) * height
                if graph is not None:  # one row per vertex, or the read fails
                    length = min(length, graph.vertex_count)
                ring = np.empty((length, width))
            start = first_row % len(ring)
            return ring[start : start + height]

        blocks = _csv_blocks(channel, place)
    worst, maxima, rows = 0.0, None, 0
    for block in blocks:
        end = rows + len(block)
        if leak and (prior is None or end <= len(prior)):
            weighted = block if prior is None else block * prior.probabilities[rows:end, None]
            top = weighted.max(axis=0)
            maxima = top if maxima is None else np.maximum(maxima, top, out=maxima)
        if worst < math.inf:
            first, last = bisect_left(later, rows), bisect_left(later, end)
            worst = max(worst, _largest_log_ratio(ring, ends[first:last]))
        rows = end
    if graph is not None and graph.vertex_count != rows:
        raise InputError(f"graph has {graph.vertex_count} vertices but channel has {rows} rows")
    report = None
    if leak and prior is None:
        report = uniform_leakage(memoryview(maxima), rows)
    elif leak:
        if len(prior) != rows:
            raise InputError(f"prior length {len(prior)} != input count {rows}")
        v_prior = float(prior.probabilities.max())
        report = _leakage_report(v_prior, math.fsum(memoryview(maxima)))
    return ChannelMeasures(rows, ring.shape[1], None if graph is None else worst, report)


def _largest_log_ratio(ring: np.ndarray, ends: np.ndarray) -> float:
    """Largest ``|ln(a / b)|`` over the columns of the row pairs that
    ``ends`` lists, row ``r`` held in ``ring`` at ``r % len(ring)``, compared
    a chunk of ``EPSILON_CHUNK_CELLS`` entries at a time; infinite when a
    pair's rows differ in support."""
    step = max(1, EPSILON_CHUNK_CELLS // ring.shape[1])
    worst = 0.0
    for start in range(0, len(ends), step):
        chunk = ends[start : start + step] % len(ring)
        a, b = ring[chunk[:, 0]], ring[chunk[:, 1]]
        positive = a > 0
        if np.any(positive != (b > 0)):
            return math.inf
        if positive.any():
            worst = max(worst, float(np.abs(np.log(a[positive] / b[positive])).max()))
    return worst


def response_blocks(
    dist_blocks: Iterable[np.ndarray], epsilon: float, columns: Sequence[int] | None = None
) -> Iterator[np.ndarray]:
    """Randomized response over distance rows, one block of rows at a time.

    ``dist_blocks`` holds the rows of a distance matrix in order, in blocks
    of any height: hop counts between inputs, ``UNREACHABLE`` (-1) across
    components. Each is cut into blocks of at most ``BLOCK_CELLS`` cells
    (one row when a row is longer), and each block is yielded as a new
    float64 array: its columns taken in the order ``columns`` (all of them
    by default), every entry weighed exp(-epsilon/2 * distance), unreachable
    ones zero, each row divided by its correctly rounded sum
    (``math.fsum``), and the block validated as channel rows, numbered from
    the channel's first row. No column order changes a row's sum, so a
    block's rows are the unshuffled ones with their entries permuted. The
    rows are private at level ``epsilon`` for the graph the distances come
    from (adjacent rows shift every distance by at most one, and so does
    the normaliser). ``epsilon`` is checked when this is called.
    """
    if not epsilon > 0:
        raise InputError(f"epsilon must be positive, got {epsilon}")
    return _response_rows(dist_blocks, epsilon, columns)


def _response_rows(
    dist_blocks: Iterable[np.ndarray], epsilon: float, columns: Sequence[int] | None
) -> Iterator[np.ndarray]:
    # One weight per distance; distance -1 (unreachable) indexes the trailing
    # 0. Distance 0 weighs 1 also at epsilon = inf, where exp(-inf * 0) is
    # NaN, so that limit is the identity channel. The table grows with the
    # longest distance seen so far.
    table = np.array([1.0, 0.0])
    order = None if columns is None else np.asarray(columns, dtype=np.intp)
    first_row = 0
    for dist in dist_blocks:
        step = max(1, BLOCK_CELLS // dist.shape[1])
        for lo in range(0, len(dist), step):
            block = dist[lo : lo + step]
            if order is not None:
                block = np.take(block, order, axis=1)
            longest = int(block.max())
            if longest > len(table) - 2:
                weights = [math.exp(-0.5 * epsilon * d) for d in range(1, longest + 1)]
                table = np.array([1.0, *weights, 0.0])
            rows = table[block]
            for row in rows:
                row /= math.fsum(memoryview(row))
            _check(rows, "channel matrix", first_row)
            first_row += len(rows)
            yield rows
        dist = block = None  # dropped before the next block is made, not after


def graph_randomized_response(graph: Graph, epsilon: float) -> ChannelMatrix:
    """The channel of :func:`response_blocks` over the all-pairs hop counts
    of ``graph``, from :func:`graphcore.distance_blocks` (one bitset BFS per
    block of sources), so the only V x V array is the channel itself.

    Outputs coincide with inputs; entries across components are zero, so the
    matrix is block-diagonal over the components.
    """
    n = graph.vertex_count
    return ChannelMatrix._of_checked_rows(
        response_blocks(distance_blocks(graph), epsilon), (n, n)
    )


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


def _start(handle: TextIO) -> int | None:
    """The position ``handle`` can be rewound to, or None when it cannot."""
    try:
        return handle.tell() if handle.seekable() else None
    except OSError:  # a text file being iterated cannot tell its position
        return None


def _measure(handle: TextIO, start: int) -> tuple[int, int]:
    """Characters and lines of the text in ``handle`` from where it stands,
    read a chunk at a time; the handle is then rewound to ``start``."""
    chars = breaks = 0
    last = "\n"
    while chunk := handle.read(CSV_CHUNK_CHARS):
        chars += len(chunk)
        breaks += chunk.count("\n")
        last = chunk[-1]
    handle.seek(start)
    return chars, breaks + (last != "\n")


def _csv_blocks(
    source: str | Iterable[str], place: Callable[[int, int], np.ndarray]
) -> Iterator[np.ndarray]:
    """The rows of a channel CSV, parsed and validated a block at a time.

    ``source`` is the CSV text or its lines (an open text file, read from
    where it stands). Each line holds one row of floats and ``#`` starts a
    comment. A field is a number in the ASCII grammar of ``_NUMBER`` (sign,
    digits, point, exponent, ``inf``, ``infinity``, ``nan``), with
    whitespace around it, optionally inside one pair of ``"`` that closes on
    its line. Each distinct field text is checked and parsed once, when it
    is first seen; past ``CSV_CACHE_FIELDS`` parsed texts the store starts
    again, so a channel of few distinct values parses each of them once.

    A block is parsed into ``place(first_row, width)``: the array, as high
    as the block is to be, in which the caller keeps the rows from channel
    row ``first_row`` on. It is asked for once the block's first row has
    been parsed. A full block is yielded once the row after it has been
    parsed, and the last one at the end of the text, after the parsed
    field texts are dropped. Each block is validated as channel rows
    numbered from the channel's first. After a block with a violation none
    is yielded, but the text is still parsed and validated to its end,
    where all the violations are raised in one :class:`InputError`; so a
    malformed field on a later line is reported instead, as by a reader
    that parses the whole text before it validates.

    Malformed fields, rows whose width differs from the first, empty input
    and undecodable bytes are :class:`SchemaError`.
    """
    rows = _data_lines(_text_lines(source) if isinstance(source, str) else source)
    found = _Violations("channel matrix")
    try:
        first = next(rows, None)
        if first is None:
            raise SchemaError("channel CSV is empty")
        width = len(first[1])
        get = _FieldNumbers().__getitem__
        start, block, held = 0, (), 0
        try:
            for number, fields in itertools.chain([first], rows):
                if len(fields) != width:
                    raise SchemaError(f"{len(fields)} field(s) where the first row has {width}")
                row = np.fromiter(map(get, fields), float, width)
                if held == len(block):
                    if held and found.add(block, start):
                        yield block
                    start += held
                    block, held = place(start, width), 0
                block[held] = row
                held += 1
        except SchemaError as exc:
            raise SchemaError(f"channel CSV line {number}: {exc}") from None
    except UnicodeDecodeError as exc:
        raise SchemaError(f"channel CSV: {exc}") from None
    first = fields = get = None
    if found.add(block[:held], start):
        yield block[:held]
    found.check()


def channel_from_csv(source: str | TextIO) -> ChannelMatrix:
    """Parse a channel CSV (the text, or an open text file read from where
    it stands) into one matrix, filled by :func:`_csv_blocks`.

    The rows fill one float64 array, which the channel keeps with no copy
    and no second validation. Its size is set before the first row is
    stored, from the width ``w`` of the first data row and a counting pass
    over the text: at most one row per line, and at most
    ``(chars + 1) // (2 w)`` rows for a text of ``chars`` characters, since
    ``r`` rows need ``r (2 w - 1)`` characters of fields and commas and
    ``r - 1`` line breaks. So the array takes at most about 4 bytes per
    character of text, however many lines are comments; rows left unused
    are cut off in place. A file is read twice, in chunks and then a line at
    a time, and a string is split a line at a time: neither makes a copy of
    the whole text (a file that cannot seek or tell its position is read
    whole first).
    """
    try:
        if isinstance(source, str) or (start := _start(source)) is None:
            source = source if isinstance(source, str) else source.read()
            chars, line_count = len(source), source.count("\n") + (not source.endswith("\n"))
        else:
            chars, line_count = _measure(source, start)
    except UnicodeDecodeError as exc:
        raise SchemaError(f"channel CSV: {exc}") from None
    out = None

    def place(first_row: int, width: int) -> np.ndarray:
        nonlocal out
        if out is None:
            out = np.empty((min(line_count, (chars + 1) // (2 * width)), width))
        if first_row == len(out):  # the text changed after it was measured
            raise SchemaError("more rows than the text held when it was measured")
        return out[first_row : first_row + max(1, BLOCK_CELLS // width)]

    rows = sum(map(len, _csv_blocks(source, place)))
    if rows < len(out):
        out.resize((rows, out.shape[1]), refcheck=False)
    return ChannelMatrix._of_checked(out)
