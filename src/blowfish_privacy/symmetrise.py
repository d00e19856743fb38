"""Leakage-preserving channel transformations.

Two square transforms with well-understood effects on privacy and leakage:

* column grouping (``diagonal_maximise``): reshape an l x p channel into an
  l x l channel whose column maxima sit on the diagonal, preserving the
  column-maxima sum (hence uniform-prior conditional min-entropy) and never
  increasing the privacy level;
* group averaging (``group_average``): average entries over an automorphism
  subgroup of the adjacency graph, which equalises diagonal entries within
  vertex orbits while again preserving the diagonal sum and privacy level.
"""

from __future__ import annotations

import math
from operator import itemgetter, sub
from typing import Iterable, Iterator, NamedTuple

from ._numpy import np
from .channel import ChannelMatrix, _check_count, _measure_rows, channel_to_csv, minimal_epsilon
from .errors import BlowfishError, InputError
from .graphcore import (
    Graph,
    PermutationGroup,
    is_automorphism,
    orbit_labels,
    orbit_slices,
    orbits,
    pair_orbits,
)

EQUALITY_TOLERANCE = 1e-12
# Entries of the channel that one block of diagonal_maximise's column adds covers.
GROUPING_CHUNK_CELLS = 2**16
# Cells, counted as by channel.small_channel, up to which symmetrise run reads
# its channel into Python floats (channel.read_channel) and works in them.
PYTHON_AVERAGE_CELLS = 2**16


def diagonal_maximise(
    channel: ChannelMatrix, graph: Graph
) -> tuple[ChannelMatrix, tuple[int, ...]]:
    """Group columns into a square channel with column maxima on the diagonal.

    Zero columns are appended first if the channel has fewer outputs than
    inputs. Each column is assigned to the smallest row index attaining its
    maximum, and assigned columns are summed into the target row's column of
    the result, in column order, by one ``np.add.at`` per block of at most
    ``GROUPING_CHUNK_CELLS`` entries. Empty groups yield all-zero columns,
    whose maximum 0 still lies on the diagonal.

    Returns the square channel and the per-column row assignment.
    """
    ell = graph.vertex_count
    _check_count(channel.rows, ell)
    probs, cols = channel.probs, channel.cols
    # A zero padding column goes to row 0 (its first maximum) and adds nothing.
    assignment = np.zeros(max(ell, cols), dtype=np.intp)
    assignment[:cols] = probs.argmax(axis=0)
    grouped = np.zeros((ell, ell))
    # Column j is added to column assignment[j] in the order of j, so every sum
    # is the column loop's; a block of rows at a time keeps the strided adds in cache.
    step = max(1, GROUPING_CHUNK_CELLS // cols)
    for r in range(0, ell, step):
        np.add.at(grouped[r : r + step].T, assignment[:cols], probs[r : r + step].T)
    grouped.setflags(write=False)
    return ChannelMatrix(grouped), tuple(assignment.tolist())


def group_average(
    channel: ChannelMatrix,
    group: PermutationGroup,
    strategy: str = "full",
    cross_check: bool = False,
    verify_graph: Graph | None = None,
) -> ChannelMatrix:
    """Average ``channel`` over a permutation group.

    Entry ``(i, j)`` of the result is the mean of ``channel[s(i), s(j)]``
    over all group elements ``s``.

    ``strategy`` picks the evaluation route: ``"full"`` averages through the
    transversals of the group's stabiliser chain, one level at a time in
    extended precision, which counts every element exactly once without
    enumerating the group; ``"orbit"`` averages each entry over the orbit of
    its index pair (its :func:`orbit_labels` label, read from the generators),
    which is equivalent because every pair in an orbit is hit by equally many
    group elements: one correctly rounded ``math.fsum`` per orbit slice.
    ``cross_check`` computes both and requires agreement within
    ``EQUALITY_TOLERANCE``. Building the chain checks the group's cap, so
    ``"full"`` raises :class:`CapExceededError` for a group whose order
    passes it before any averaging.

    The group must consist of automorphisms of the relevant adjacency graph
    (that is what makes the privacy level non-increasing); this is the
    caller's responsibility unless ``verify_graph`` is passed, in which case
    every generator is checked against it (a group generated by
    automorphisms consists of automorphisms).
    """
    if channel.rows != channel.cols:
        raise InputError("group averaging needs a square channel")
    if group.degree != channel.rows:
        raise InputError(
            f"group degree {group.degree} != channel size {channel.rows}"
        )
    if strategy not in ("full", "orbit"):
        raise InputError(f"unknown strategy {strategy!r}")
    if verify_graph is not None:
        for perm in group.generators:
            if not is_automorphism(verify_graph, perm):
                raise InputError(
                    f"group generator {perm!r} is not an automorphism of the graph"
                )

    results = {}
    wanted = {strategy} | ({"full", "orbit"} if cross_check else set())
    if "full" in wanted:
        # Every element is u_0 ∘ u_1 ∘ … ∘ u_k in exactly one way, and
        # M -> M[u(i), u(j)] reverses composition, so the group mean nests
        # the transversal means with level 0 innermost.
        averaged = channel.probs.astype(np.longdouble)
        for transversal in group.chain.transversals:
            acc = np.zeros_like(averaged)
            for u in np.array(transversal):
                acc += averaged[np.ix_(u, u)]
            averaged = acc / len(transversal)
        results["full"] = np.asarray(averaged, dtype=float)
    if "orbit" in wanted:
        order, cuts = orbit_slices(orbit_labels(group.generators, group.degree, arity=2))
        values = channel.probs.ravel()[order]
        means = [math.fsum(values[lo:hi]) / (hi - lo) for lo, hi in zip(cuts, cuts[1:])]
        out = np.empty(len(order))
        out[order] = np.repeat(means, np.diff(cuts))
        results["orbit"] = out.reshape(channel.rows, channel.rows)
    if cross_check:
        _check_agreement(float(np.max(np.abs(results["full"] - results["orbit"]))))
    return ChannelMatrix(results[strategy])


def _check_agreement(gap: float) -> None:
    """Raise :class:`BlowfishError` when the two strategies' averages,
    cross-checked, differ by ``gap``, more than ``EQUALITY_TOLERANCE``."""
    if gap > EQUALITY_TOLERANCE:
        raise BlowfishError(f"group-average strategies disagree by {gap} (> {EQUALITY_TOLERANCE})")


class PropertyCheck(NamedTuple):
    name: str
    passed: bool
    magnitude: float


class SymmetrisationReport(NamedTuple):
    """Privacy levels, diagonal sums, and per-property outcomes of the pipeline."""

    epsilon_input: float
    epsilon_grouped: float
    epsilon_averaged: float
    column_maxima_sum_input: float
    diagonal_sum_grouped: float
    diagonal_sum_averaged: float
    checks: tuple[PropertyCheck, ...]

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)


def _epsilon_check(before: float, after: float) -> tuple[bool, float]:
    if math.isinf(before):
        return True, 0.0
    passed = after <= before + EQUALITY_TOLERANCE
    return passed, max(0.0, after - before)


def check_symmetrisation(
    original: ChannelMatrix,
    grouped: ChannelMatrix,
    averaged: ChannelMatrix,
    group: PermutationGroup,
    graph: Graph,
) -> SymmetrisationReport:
    """Numerically evaluate every contract of the two transforms.

    Row-stochasticity holds by construction (``ChannelMatrix`` validates at
    the channel tolerance) and is reported as passed; the diagonal maxima,
    diagonal-sum preservation, orbit-diagonal equality, and privacy
    non-increase are checked at 1e-12.
    """
    ell = graph.vertex_count
    for name, mat in (("grouped", grouped), ("averaged", averaged)):
        if mat.rows != ell or mat.cols != ell:
            raise InputError(f"{name} channel must be {ell}x{ell}")
    if original.rows != ell or group.degree != ell:
        raise InputError("original channel, group, and graph sizes must agree")

    return _report(
        [minimal_epsilon(m, graph) for m in (original, grouped, averaged)],
        original.probs.max(axis=0).tolist(),
        *[(np.diag(m.probs).tolist(), m.probs.max(axis=0).tolist()) for m in (grouped, averaged)],
        group,
    )


def _report(
    epsilons: list[float],
    input_maxima: list[float],
    grouped: tuple[list[float], list[float]],
    averaged: tuple[list[float], list[float]],
    group: PermutationGroup,
) -> SymmetrisationReport:
    """The report of :func:`check_symmetrisation` from the three channels'
    privacy levels, the input's column maxima, and the diagonal and column
    maxima of the grouped and of the averaged channel, in Python floats."""
    eps_input, eps_grouped, eps_averaged = epsilons
    colmax_input = math.fsum(input_maxima)
    diag_grouped, diag_averaged = math.fsum(grouped[0]), math.fsum(averaged[0])

    # A channel is validated when built or read, so both are row-stochastic.
    checks = [PropertyCheck("grouped_row_stochastic", True, 0.0)]
    gap = max(map(sub, grouped[1], grouped[0]))
    checks.append(
        PropertyCheck("grouped_diagonal_max", gap <= EQUALITY_TOLERANCE, max(0.0, gap))
    )
    passed, magnitude = _epsilon_check(eps_input, eps_grouped)
    checks.append(PropertyCheck("grouped_privacy_preserved", passed, magnitude))
    drift = abs(diag_grouped - colmax_input)
    checks.append(
        PropertyCheck("grouped_leakage_preserved", drift <= EQUALITY_TOLERANCE, drift)
    )

    checks.append(PropertyCheck("averaged_row_stochastic", True, 0.0))
    gap = max(map(sub, averaged[1], averaged[0]))
    checks.append(
        PropertyCheck("averaged_diagonal_max", gap <= EQUALITY_TOLERANCE, max(0.0, gap))
    )
    orbit_gap = 0.0
    for orbit in orbits(group).orbits:
        values = [averaged[0][i] for i in orbit]
        orbit_gap = max(orbit_gap, max(values) - min(values))
    checks.append(
        PropertyCheck(
            "averaged_orbit_diagonals", orbit_gap <= EQUALITY_TOLERANCE, orbit_gap
        )
    )
    passed, magnitude = _epsilon_check(eps_grouped, eps_averaged)
    checks.append(PropertyCheck("averaged_privacy_preserved", passed, magnitude))
    drift = abs(diag_averaged - diag_grouped)
    checks.append(
        PropertyCheck("averaged_leakage_preserved", drift <= EQUALITY_TOLERANCE, drift)
    )

    return SymmetrisationReport(
        epsilon_input=eps_input,
        epsilon_grouped=eps_grouped,
        epsilon_averaged=eps_averaged,
        column_maxima_sum_input=colmax_input,
        diagonal_sum_grouped=diag_grouped,
        diagonal_sum_averaged=diag_averaged,
        checks=tuple(checks),
    )


# ---------------------------------------------------------------------------
# The pipeline of ``symmetrise run``, on one route per channel size


def run(
    channel: ChannelMatrix | list[list[float]],
    graph: Graph,
    group: PermutationGroup,
    strategy: str = "orbit",
    cross_check: bool = False,
) -> tuple[Iterator[str], Iterator[str], SymmetrisationReport]:
    """The CSV lines of the grouped and of the averaged channel, and the
    report of :func:`check_symmetrisation`, for a channel from
    ``channel.read_channel``, ``group`` being automorphisms of ``graph``.

    A :class:`ChannelMatrix` goes through :func:`diagonal_maximise`,
    :func:`group_average` and :func:`check_symmetrisation`. Rows in Python
    floats take the same steps with no numpy: columns grouped in column
    order, as ``np.add.at`` adds them; ``"orbit"`` averaged over
    :func:`pair_orbits` with one ``math.fsum`` per orbit, so it
    writes the same bytes; ``"full"`` through the chain's transversals with
    one ``fsum`` per entry per level, which agrees with the extended
    precision of :func:`group_average` within ``EQUALITY_TOLERANCE``; and
    the privacy levels measured, and the rows validated, by
    ``channel._measure_rows``.
    """
    if isinstance(channel, ChannelMatrix):
        grouped, _ = diagonal_maximise(channel, graph)
        averaged = group_average(grouped, group, strategy=strategy, cross_check=cross_check)
        report = check_symmetrisation(channel, grouped, averaged, group, graph)
        return channel_to_csv(grouped), channel_to_csv(averaged), report
    maxima, grouped = _grouped_rows(channel, graph.vertex_count)
    results = {}
    if strategy == "full" or cross_check:
        results["full"] = _full_average(grouped, group)
    if strategy == "orbit" or cross_check:
        results["orbit"] = _orbit_average(grouped, group)
    if cross_check:
        _check_agreement(max(abs(a - b) for x, y in zip(*results.values()) for a, b in zip(x, y)))
    averaged = results[strategy]
    edges = sorted(graph.edges, key=itemgetter(1))
    epsilons = [
        _measure_rows(m, edges, graph, None, False).minimal_epsilon
        for m in (channel, grouped, averaged)
    ]
    diagonals_and_maxima = [
        ([row[i] for i, row in enumerate(m)], [max(column) for column in zip(*m)])
        for m in (grouped, averaged)
    ]
    report = _report(epsilons, maxima, *diagonals_and_maxima, group)
    return _rows_to_lines(grouped), _rows_to_lines(averaged), report


def _grouped_rows(
    rows: list[list[float]], ell: int
) -> tuple[list[float], list[list[float]]]:
    """The column maxima of ``rows`` and :func:`diagonal_maximise` of them
    into ``ell`` columns, in Python floats: each column goes to the first
    row attaining its maximum and is added there in column order."""
    maxima, assignment = list(rows[0]), [0] * len(rows[0])
    for r, row in enumerate(rows):
        for j, x in enumerate(row):
            if x > maxima[j]:
                maxima[j], assignment[j] = x, r
    grouped = []
    for row in rows:
        out = [0.0] * ell
        for j, x in zip(assignment, row):
            out[j] += x
        grouped.append(out)
    return maxima, grouped


def _full_average(rows: list[list[float]], group: PermutationGroup) -> list[list[float]]:
    """``group_average(strategy="full")`` in Python floats: at each level of
    the chain, entry ``(i, j)`` is the ``fsum`` of ``M[u(i), u(j)]`` over the
    transversal's elements ``u``, over their count."""
    for transversal in group.chain.transversals:
        n = len(transversal)
        gathers = [itemgetter(*u) for u in transversal]
        rows = [
            [
                math.fsum(images) / n
                for images in zip(*[get(rows[u[i]]) for u, get in zip(transversal, gathers)])
            ]
            for i in range(len(rows))
        ]
    return rows


def _orbit_average(rows: list[list[float]], group: PermutationGroup) -> list[list[float]]:
    """``group_average(strategy="orbit")`` in Python floats: each entry is
    the ``fsum`` of its pair orbit's entries (:func:`pair_orbits`) over
    their count."""
    out = [[0.0] * len(rows) for _ in rows]
    for orbit in pair_orbits(group.generators, len(rows)):
        mean = math.fsum(rows[a][b] for a, b in orbit) / len(orbit)
        for a, b in orbit:
            out[a][b] = mean
    return out


def _rows_to_lines(rows: Iterable[list[float]]) -> Iterator[str]:
    """The CSV lines of rows of Python floats, as ``channel.rows_to_csv``
    writes them: ``repr`` of each entry."""
    return (",".join(map(repr, row)) + "\n" for row in rows)
