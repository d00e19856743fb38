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
from typing import NamedTuple

from ._numpy import np
from .channel import ChannelMatrix, minimal_epsilon
from .errors import BlowfishError, InputError
from .graphcore import Graph, PermutationGroup, is_automorphism, orbit_labels, orbit_slices, orbits

EQUALITY_TOLERANCE = 1e-12
# Entries of the channel that one block of diagonal_maximise's column adds covers.
GROUPING_CHUNK_CELLS = 2**16


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
    if channel.rows != ell:
        raise InputError(
            f"graph has {ell} vertices but channel has {channel.rows} rows"
        )
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
            for u in transversal:
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
        gap = float(np.max(np.abs(results["full"] - results["orbit"])))
        if gap > EQUALITY_TOLERANCE:
            raise BlowfishError(
                f"group-average strategies disagree by {gap} (> {EQUALITY_TOLERANCE})"
            )
    return ChannelMatrix(results[strategy])


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


def _column_maxima_sum(matrix: np.ndarray) -> float:
    return math.fsum(float(x) for x in matrix.max(axis=0))


def _diagonal_sum(matrix: np.ndarray) -> float:
    return math.fsum(float(x) for x in np.diag(matrix))


def _diagonal_max_gap(matrix: np.ndarray) -> float:
    return float(np.max(matrix.max(axis=0) - np.diag(matrix)))


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

    eps_input = minimal_epsilon(original, graph)
    eps_grouped = minimal_epsilon(grouped, graph)
    eps_averaged = minimal_epsilon(averaged, graph)

    colmax_input = _column_maxima_sum(original.probs)
    diag_grouped = _diagonal_sum(grouped.probs)
    diag_averaged = _diagonal_sum(averaged.probs)

    checks = []

    # A ChannelMatrix is validated when built, so both are row-stochastic.
    checks.append(PropertyCheck("grouped_row_stochastic", True, 0.0))
    gap = _diagonal_max_gap(grouped.probs)
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
    gap = _diagonal_max_gap(averaged.probs)
    checks.append(
        PropertyCheck("averaged_diagonal_max", gap <= EQUALITY_TOLERANCE, max(0.0, gap))
    )
    diag = np.diag(averaged.probs)
    orbit_gap = 0.0
    for orbit in orbits(group).orbits:
        values = diag[list(orbit)]
        orbit_gap = max(orbit_gap, float(values.max() - values.min()))
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
