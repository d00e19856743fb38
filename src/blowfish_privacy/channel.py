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
from dataclasses import dataclass
from typing import Iterable, Iterator, NamedTuple, TextIO

from ._numpy import np
from .errors import InputError, SchemaError
from .graphcore import Graph, distances
from .reporting import render_kv

ROW_SUM_TOLERANCE = 1e-9
RANGE_TOLERANCE = 1e-12
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


def _check(arr: np.ndarray, what: str) -> None:
    """Raise :class:`InputError` naming the first violations of ``arr``."""
    problems = validate_channel(arr)
    if problems:
        head = ", ".join(
            ("non-finite" if v.magnitude == math.inf else v.kind)
            + f"@row {v.row}"
            + (f" col {v.column}" if v.column is not None else "")
            for v in problems[:5]
        )
        raise InputError(f"invalid {what} ({len(problems)} violation(s): {head})")


@dataclass(frozen=True, eq=False)
class ChannelMatrix:
    """Validated row-stochastic matrix; the backing array is read-only.

    The input is copied unless it is a read-only float64 array that owns its
    memory: such an array has been handed over by a caller that made it for
    the channel, and is kept as it is. A writable array, or a view of one, is
    always copied, so the channel never aliases data a caller can still change.
    """

    probs: np.ndarray

    def __post_init__(self):
        arr = self.probs
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
        _check(arr[None, :], "prior")
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
    and an edgeless graph yields 0. The edges are compared as index arrays,
    a chunk at a time whose rows hold at most ``EPSILON_CHUNK_CELLS``
    entries (one edge when a single row is longer), so the temporaries stay
    small. Every ratio and logarithm is the same float operation as in an
    edge-by-edge scan, so the result equals that scan's exactly.
    """
    if graph.vertex_count != channel.rows:
        raise InputError(
            f"graph has {graph.vertex_count} vertices but channel has {channel.rows} rows"
        )
    probs = channel.probs
    ends = np.array(list(graph.edges), dtype=np.intp).reshape(-1, 2)
    step = max(1, EPSILON_CHUNK_CELLS // channel.cols)
    worst = 0.0
    for start in range(0, len(ends), step):
        chunk = ends[start : start + step]
        a, b = probs[chunk[:, 0]], probs[chunk[:, 1]]
        positive = a > 0
        if np.any(positive != (b > 0)):
            return math.inf
        if positive.any():
            worst = max(worst, float(np.abs(np.log(a[positive] / b[positive])).max()))
    return worst


def randomized_response(dist: np.ndarray, epsilon: float) -> ChannelMatrix:
    """Channel with output weight exp(-epsilon/2 * distance), from a distance matrix.

    ``dist`` holds hop counts between inputs, ``UNREACHABLE`` (-1) across
    components, whose entries become zero. Each row is divided by its
    correctly rounded sum (``math.fsum``). The result is private at level
    ``epsilon`` for the graph the distances come from (adjacent rows shift
    every distance by at most one, and so does the normaliser).
    """
    if not epsilon > 0:
        raise InputError(f"epsilon must be positive, got {epsilon}")
    # One weight per distance; distance -1 (unreachable) indexes the trailing 0.
    longest = int(dist.max())
    table = [math.exp(-0.5 * epsilon * d) for d in range(longest + 1)] + [0.0]
    weights = np.array(table)[dist]
    for row in weights:
        row /= math.fsum(memoryview(row))
    weights.setflags(write=False)
    return ChannelMatrix(weights)


def graph_randomized_response(graph: Graph, epsilon: float) -> ChannelMatrix:
    """:func:`randomized_response` over the all-pairs BFS distances of ``graph``.

    Outputs coincide with inputs; entries across components are zero, so the
    matrix is block-diagonal over the components.
    """
    return randomized_response(np.array(distances(graph)), epsilon)


# ---------------------------------------------------------------------------
# CSV serialisation


def channel_to_csv(channel: ChannelMatrix) -> Iterator[str]:
    """The CSV lines of ``channel``, one per row, each ending in a newline.

    Entries are written as ``repr`` (shortest round-trip decimal). Each row's
    distinct entries are found on their bit patterns, so ``-0.0`` stays apart
    from ``0.0``, and formatted once; the line is gathered through the
    inverse index. A distance-based channel has few distinct entries per
    row, so most ``repr`` calls are saved. A row with no repeated entry is
    formatted as it stands, so it costs only the sort more. Lines are
    produced lazily, so a caller can stream them to a file or join them into
    the whole text.
    """
    for row in np.ascontiguousarray(channel.probs).view(np.int64):
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


def channel_from_csv(source: str | TextIO) -> ChannelMatrix:
    """Parse a channel CSV: one row of floats per line, ``#`` starts a comment.

    ``source`` is the CSV text or an open text file, read from where it
    stands. A field is a number in the ASCII grammar of ``_NUMBER`` (sign,
    digits, point, exponent, ``inf``, ``infinity``, ``nan``), with
    whitespace around it, optionally inside one pair of ``"`` that closes on
    its line. Each distinct field text is checked and parsed once, when it is
    first seen, so a channel of few distinct values parses each of them
    once; past ``CSV_CACHE_FIELDS`` parsed texts the store starts again.

    The rows fill one float64 array, handed to :class:`ChannelMatrix` with
    no copy. Its size is set before the first row is stored, from the width
    ``w`` of the first data row and a counting pass over the text: at most
    one row per line, and at most ``(chars + 1) // (2 w)`` rows for a text
    of ``chars`` characters, since ``r`` rows need ``r (2 w - 1)``
    characters of fields and commas and ``r - 1`` line breaks. So the array
    takes at most about 4 bytes per character of text, however many lines
    are comments; rows left unused are cut off in place. A file is read
    twice, in chunks and then a line at a time, and a string is split a line
    at a time: neither makes a copy of the whole text (a file that cannot
    seek or tell its position is read whole first).

    Malformed fields, rows whose width differs from the first, empty input
    and undecodable bytes are :class:`SchemaError`.
    """
    try:
        if isinstance(source, str) or (start := _start(source)) is None:
            text = source if isinstance(source, str) else source.read()
            chars, line_count = len(text), text.count("\n") + (not text.endswith("\n"))
            rows = _data_lines(_text_lines(text))
        else:
            chars, line_count = _measure(source, start)
            rows = _data_lines(source)
        first = next(rows, None)
        if first is None:
            raise SchemaError("channel CSV is empty")
        width = len(first[1])
        out = np.empty((min(line_count, (chars + 1) // (2 * width)), width))
        get = _FieldNumbers().__getitem__
        filled = 0
        try:
            for number, fields in itertools.chain([first], rows):
                if len(fields) != width:
                    raise SchemaError(f"{len(fields)} field(s) where the first row has {width}")
                row = np.fromiter(map(get, fields), float, width)
                if filled == len(out):  # the text changed after it was measured
                    raise SchemaError("more rows than the text held when it was measured")
                out[filled] = row
                filled += 1
        except SchemaError as exc:
            raise SchemaError(f"channel CSV line {number}: {exc}") from None
    except UnicodeDecodeError as exc:
        raise SchemaError(f"channel CSV: {exc}") from None
    if filled < len(out):
        out.resize((filled, width), refcheck=False)
    out.setflags(write=False)
    return ChannelMatrix(out)
