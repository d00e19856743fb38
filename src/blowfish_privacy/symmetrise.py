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
from dataclasses import dataclass

import numpy as np

from .channel import ChannelMatrix, minimal_epsilon, validate_channel
from .errors import BlowfishError, InputError
from .graphcore import Graph, PermutationGroup, is_automorphism, orbits, pair_orbits
from .reporting import render_kv

EQUALITY_TOLERANCE = 1e-12


def diagonal_maximise(
    channel: ChannelMatrix, graph: Graph
) -> tuple[ChannelMatrix, tuple[int, ...]]:
    """Group columns into a square channel with column maxima on the diagonal.

    Zero columns are appended first if the channel has fewer outputs than
    inputs. Each column is assigned to the smallest row index attaining its
    maximum, and assigned columns are summed into the target row's column of
    the result. Empty groups yield all-zero columns, whose maximum 0 still
    lies on the diagonal.

    Returns the square channel and the per-column row assignment.
    """
    ell = graph.vertex_count
    if channel.rows != ell:
        raise InputError(
            f"graph has {ell} vertices but channel has {channel.rows} rows"
        )
    width = max(ell, channel.cols)
    padded = np.zeros((ell, width))
    padded[:, : channel.cols] = channel.probs
    assignment = tuple(int(np.argmax(padded[:, j])) for j in range(width))
    grouped = np.zeros((ell, ell))
    for j, target in enumerate(assignment):
        grouped[:, target] += padded[:, j]
    return ChannelMatrix(grouped), assignment


def group_average(
    channel: ChannelMatrix,
    group: PermutationGroup,
    strategy: str = "full",
    cross_check: bool = False,
    verify_graph: Graph | None = None,
) -> ChannelMatrix:
    """Average ``channel`` over a permutation group.

    Entry ``(i, j)`` of the result is the mean of ``channel[s(i), s(j)]``
    over all group elements ``s``, summed in canonical element order.

    ``strategy`` picks the evaluation route: ``"full"`` enumerates the group
    (extended precision accumulator), while ``"orbit"`` averages each entry
    over the orbit of its index pair, which is equivalent because every pair
    in an orbit is hit by equally many group elements. ``cross_check``
    computes both and requires agreement within ``EQUALITY_TOLERANCE``.

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
        acc = np.zeros((channel.rows, channel.rows), dtype=np.longdouble)
        probs = channel.probs.astype(np.longdouble)
        for perm in group.elements:
            idx = np.asarray(perm)
            acc += probs[np.ix_(idx, idx)]
        results["full"] = np.asarray(acc / group.order, dtype=float)
    if "orbit" in wanted:
        out = np.empty((channel.rows, channel.rows))
        probs = channel.probs
        for orbit in pair_orbits(group.generators, group.degree):
            value = math.fsum(float(probs[a, b]) for a, b in orbit) / len(orbit)
            for a, b in orbit:
                out[a, b] = value
        results["orbit"] = out
    if cross_check:
        gap = float(np.max(np.abs(results["full"] - results["orbit"])))
        if gap > EQUALITY_TOLERANCE:
            raise BlowfishError(
                f"group-average strategies disagree by {gap} (> {EQUALITY_TOLERANCE})"
            )
    return ChannelMatrix(results[strategy])


@dataclass(frozen=True)
class PropertyCheck:
    name: str
    passed: bool
    magnitude: float


@dataclass(frozen=True)
class SymmetrisationReport:
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

    def to_items(self) -> list[tuple[str, object]]:
        items: list[tuple[str, object]] = [
            ("epsilon_input", self.epsilon_input),
            ("epsilon_grouped", self.epsilon_grouped),
            ("epsilon_averaged", self.epsilon_averaged),
            ("column_maxima_sum_input", self.column_maxima_sum_input),
            ("diagonal_sum_grouped", self.diagonal_sum_grouped),
            ("diagonal_sum_averaged", self.diagonal_sum_averaged),
        ]
        for check in self.checks:
            items.append((f"check_{check.name}", "pass" if check.passed else "fail"))
            items.append((f"check_{check.name}_magnitude", check.magnitude))
        items.append(("all_passed", self.all_passed))
        return items

    def to_text(self) -> str:
        return render_kv(self.to_items())


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

    Row-stochasticity is checked at the channel tolerance; the diagonal
    maxima, diagonal-sum preservation, orbit-diagonal equality, and privacy
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

    grouped_rows = validate_channel(grouped.probs)
    checks.append(
        PropertyCheck(
            "grouped_row_stochastic",
            not grouped_rows,
            max((v.magnitude for v in grouped_rows), default=0.0),
        )
    )
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

    averaged_rows = validate_channel(averaged.probs)
    checks.append(
        PropertyCheck(
            "averaged_row_stochastic",
            not averaged_rows,
            max((v.magnitude for v in averaged_rows), default=0.0),
        )
    )
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
