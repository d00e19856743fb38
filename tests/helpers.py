"""Shared strategies and independent oracles for the test suite.

The oracles here are written straight from the definitions with plain
tuples and sets, deliberately not reusing the library's data structures,
so they can arbitrate between the library's optimised code paths.
"""

import io
import math
import warnings
from dataclasses import replace
from itertools import combinations, permutations, product

import numpy as np
from hypothesis import strategies as st

from blowfish_privacy import (
    CapExceededError,
    ChannelMatrix,
    Graph,
    OrbitPartition,
    PermutationGroup,
    custom_policy,
    generate_group,
    induce_adjacency_graph,
)
from blowfish_privacy.channel import RANGE_TOLERANCE, ROW_SUM_TOLERANCE
from blowfish_privacy.errors import SchemaError


# ---------------------------------------------------------------------------
# Independent oracles


def oracle_tdiff(d1, d2):
    return {(i, d1[i], d2[i]) for i in range(len(d1)) if d1[i] != d2[i]}


def oracle_sdiff(d1, d2, edge_set):
    sym = {(a, b) for a, b in edge_set} | {(b, a) for a, b in edge_set}
    return {t for t in oracle_tdiff(d1, d2) if (t[1], t[2]) in sym}


def oracle_minimally_secretly_different(d1, d2, edge_set, universe_dbs):
    """Directional test, written verbatim from the definition."""
    s_target = oracle_sdiff(d1, d2, edge_set)
    if not s_target:
        return False
    t_target = oracle_tdiff(d1, d2)
    for mid in universe_dbs:
        s_mid = oracle_sdiff(d1, mid, edge_set)
        if not s_mid:
            continue
        if s_mid < s_target:
            return False
        if s_mid == s_target and oracle_tdiff(d1, mid) < t_target:
            return False
    return True


def oracle_adjacency_edges(edge_set, universe_dbs):
    """Symmetrised edge set over database indices in the given order."""
    edges = set()
    for i, j in combinations(range(len(universe_dbs)), 2):
        forward = oracle_minimally_secretly_different(
            universe_dbs[i], universe_dbs[j], edge_set, universe_dbs
        )
        backward = oracle_minimally_secretly_different(
            universe_dbs[j], universe_dbs[i], edge_set, universe_dbs
        )
        if forward or backward:
            edges.add((i, j))
    return edges


def oracle_asymmetric_pairs(edge_set, universe_dbs):
    """Index pairs ``i < j`` on which the two directions of the definition disagree."""
    return {
        (i, j)
        for i, j in combinations(range(len(universe_dbs)), 2)
        if oracle_minimally_secretly_different(
            universe_dbs[i], universe_dbs[j], edge_set, universe_dbs
        )
        != oracle_minimally_secretly_different(
            universe_dbs[j], universe_dbs[i], edge_set, universe_dbs
        )
    }


def induce_by_definition(policy):
    """Adjacency graph from the definition scan, also for an unconstrained
    policy: it is restated with every database listed explicitly."""
    if policy.unconstrained:
        every = tuple(product(policy.universe.labels, repeat=policy.n))
        policy = replace(policy, permissible=every)
    return induce_adjacency_graph(policy)


def oracle_components(graph):
    """``(count, assignment, diameters)`` by BFS labelling and Floyd-Warshall.

    Components are numbered in the order of their smallest vertices; a
    diameter is the largest finite shortest-path length inside a component.
    """
    n = graph.vertex_count
    neighbours = {v: set() for v in range(n)}
    for a, b in graph.edges:
        neighbours[a].add(b)
        neighbours[b].add(a)
    assignment = [-1] * n
    count = 0
    for start in range(n):
        if assignment[start] != -1:
            continue
        assignment[start] = count
        frontier = [start]
        while frontier:
            v = frontier.pop()
            for w in neighbours[v]:
                if assignment[w] == -1:
                    assignment[w] = count
                    frontier.append(w)
        count += 1
    dist = [[0 if i == j else math.inf for j in range(n)] for i in range(n)]
    for a, b in graph.edges:
        dist[a][b] = dist[b][a] = 1
    for k in range(n):
        for i in range(n):
            for j in range(n):
                dist[i][j] = min(dist[i][j], dist[i][k] + dist[k][j])
    diameters = [0] * count
    for i in range(n):
        for j in range(n):
            if dist[i][j] < math.inf:
                c = assignment[i]
                diameters[c] = max(diameters[c], dist[i][j])
    return count, tuple(assignment), tuple(diameters)


def oracle_violations(matrix):
    """Channel violations ``(kind, row, column, magnitude)`` by a per-entry scan.

    Per row: each entry that is not finite (magnitude inf) or lies outside
    ``[0, 1]`` by more than the range tolerance, then the row sum when it is
    off 1 by more than the row-sum tolerance; a sum ``fsum`` cannot form
    (inf - inf, overflow) counts as NaN.
    """
    rows = np.asarray(matrix, dtype=float)
    if rows.ndim != 2 or rows.size == 0:
        return [("shape", -1, None, math.nan)]
    violations = []
    for i, row in enumerate(rows.tolist()):
        for j, entry in enumerate(row):
            if not math.isfinite(entry):
                violations.append(("range", i, j, math.inf))
                continue
            outside = max(-entry, entry - 1.0)
            if outside > RANGE_TOLERANCE:
                violations.append(("range", i, j, outside))
        try:
            total = math.fsum(row)
        except (ValueError, OverflowError):
            total = math.nan
        if not math.isfinite(total) or abs(total - 1.0) > ROW_SUM_TOLERANCE:
            violations.append(("row_sum", i, None, abs(total - 1.0)))
    return violations


def oracle_channel_csv(channel):
    """Channel CSV text with one ``repr`` call per entry, row by row."""
    return "".join(",".join(map(repr, row.tolist())) + "\n" for row in channel.probs)


def oracle_channel_from_csv(source):
    """Channel CSV text or open file read by ``np.loadtxt``; errors are SchemaError."""
    if isinstance(source, str):
        source = io.StringIO(source)
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # numpy warns on empty input
            arr = np.loadtxt(source, delimiter=",", ndmin=2, quotechar='"')
    except ValueError as exc:  # UnicodeDecodeError included
        raise SchemaError(f"channel CSV: {exc}") from None
    if arr.size == 0:
        raise SchemaError("channel CSV is empty")
    arr.setflags(write=False)
    return ChannelMatrix(arr)


def oracle_minimal_epsilon(channel, graph):
    """Smallest private epsilon by comparing the two rows of one edge at a time.

    Infinite as soon as an edge's rows differ in support; otherwise the
    largest ``|log(a / b)|`` over the columns where both rows are positive.
    """
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


def oracle_automorphisms(graph: Graph):
    """All automorphisms by filtering every permutation (small graphs only)."""
    result = set()
    for perm in permutations(range(graph.vertex_count)):
        mapped = {
            (min(perm[a], perm[b]), max(perm[a], perm[b])) for a, b in graph.edges
        }
        if mapped == graph.edges:
            result.add(perm)
    return result


def oracle_elements(degree, generators):
    """Every element of the group generated by ``generators``, as a set, by
    breadth-first closure under left multiplication (small groups only)."""
    identity = tuple(range(degree))
    seen = {identity}
    frontier = [identity]
    while frontier:
        found = []
        for x in frontier:
            for g in generators:
                y = tuple(g[i] for i in x)
                if y not in seen:
                    seen.add(y)
                    found.append(y)
        frontier = found
    return seen


def oracle_orbits(group):
    """Orbit partition by enumerating every group element's image of each point."""
    orbit_index = [-1] * group.degree
    orbit_lists = []
    for v in range(group.degree):
        if orbit_index[v] != -1:
            continue
        members = sorted({p[v] for p in group.elements})
        for m in members:
            orbit_index[m] = len(orbit_lists)
        orbit_lists.append(tuple(members))
    return OrbitPartition(tuple(orbit_index), tuple(orbit_lists))


def oracle_pair_orbits(group):
    """Orbits of ordered point pairs, as sets, by enumerating every element."""
    points = range(group.degree)
    return {
        frozenset((p[a], p[b]) for p in group.elements) for a in points for b in points
    }


def oracle_orbit_average(probs, pair_orbits):
    """Each entry replaced by the mean over its pair orbit, pair by pair:
    one ``fsum`` over the orbit's entries, written back to every member."""
    out = np.empty_like(probs)
    for orbit in pair_orbits:
        value = math.fsum(float(probs[a, b]) for a, b in orbit) / len(orbit)
        for a, b in orbit:
            out[a, b] = value
    return out


def oracle_diagonal_maximise(probs, ell):
    """Column grouping one column at a time: ``(grouped, assignment)``.

    The channel is padded with zero columns to at least ``ell``; each column
    goes to the first row attaining its maximum and is added to that
    column of the ``ell x ell`` result.
    """
    width = max(ell, probs.shape[1])
    padded = np.zeros((ell, width))
    padded[:, : probs.shape[1]] = probs
    assignment = tuple(int(np.argmax(padded[:, j])) for j in range(width))
    grouped = np.zeros((ell, ell))
    for j, target in enumerate(assignment):
        grouped[:, target] += padded[:, j]
    return grouped, assignment


# ---------------------------------------------------------------------------
# Group budgets


def generate_group_greedy(generators, cap, degree=None):
    """Closure of the largest prefix-respecting subset of ``generators`` that
    stays within ``cap`` elements.

    Generators whose inclusion would push the closure past the cap are
    skipped; the result is always a genuine subgroup. Deterministic for a
    fixed generator order. Lets tests average over big groups within a
    time budget.
    """
    gens = [tuple(g) for g in generators]
    if gens:
        degree = len(gens[0])
    accepted = []
    for g in gens:
        try:
            PermutationGroup(degree, tuple(accepted + [g]), cap).order
        except CapExceededError:
            continue
        accepted.append(g)
    return generate_group(accepted, cap, degree)


# ---------------------------------------------------------------------------
# Strategies


@st.composite
def graphs(draw, min_vertices=1, max_vertices=6):
    n = draw(st.integers(min_vertices, max_vertices))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    edges = (
        draw(st.lists(st.sampled_from(pairs), unique=True, max_size=len(pairs)))
        if pairs
        else []
    )
    return Graph.from_edges(n, edges)


@st.composite
def small_policies(draw, max_tuples=4, max_n=2, allow_constrained=True):
    m = draw(st.integers(2, max_tuples))
    labels = [str(i + 1) for i in range(m)]
    pairs = [(labels[i], labels[j]) for i in range(m) for j in range(i + 1, m)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=len(pairs)))
    n = draw(st.integers(1, max_n))
    permissible = None
    if allow_constrained and draw(st.booleans()):
        all_dbs = list(product(labels, repeat=n))
        size = draw(st.integers(2, min(len(all_dbs), 10)))
        shuffled = draw(st.permutations(all_dbs))
        permissible = shuffled[:size]
    return custom_policy(labels, edges, n=n, permissible=permissible)


@st.composite
def permutation_sets(draw, max_degree=7):
    """A degree and 0-3 permutations of it, sometimes with the identity."""
    degree = draw(st.integers(1, max_degree))
    count = draw(st.integers(0, 3))
    perms = [tuple(draw(st.permutations(range(degree)))) for _ in range(count)]
    if draw(st.booleans()):
        perms.append(tuple(range(degree)))
    return degree, perms
