"""Shared strategies and independent oracles for the test suite.

The oracles here are written straight from the definitions with plain
tuples and sets, deliberately not reusing the library's data structures,
so they can arbitrate between the library's optimised code paths.
"""

import io
import math
import os
import resource
import subprocess
import sys
import tempfile
import warnings
from collections import deque
from itertools import combinations, permutations, product
from pathlib import Path
from typing import NamedTuple

import numpy as np
from hypothesis import strategies as st

from blowfish_privacy import (
    BlowfishPolicy,
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
from blowfish_privacy.errors import InputError, SchemaError


SRC = Path(__file__).resolve().parent.parent / "src"


# ---------------------------------------------------------------------------
# Child processes


# Run at the child's exit: its own high-water RSS, from the VmHWM of the
# memory map that exec made. Its ru_maxrss, as wait4 reports it, is at least
# the caller's RSS at the fork, which it carries over.
_REPORT_PEAK = """import atexit
def _report_peak(path={path!r}):
    with open("/proc/self/status") as status, open(path, "w") as out:
        out.write(next(line.split()[1] for line in status if line.startswith("VmHWM:")))
atexit.register(_report_peak)"""


def run_cli_with_address_limit(argv, cwd, limit_bytes, timeout=120, prelude=""):
    """Run ``blowfish`` with ``argv`` in one child process whose address space
    is capped at ``limit_bytes`` (``RLIMIT_AS``), so an allocation beyond the
    cap fails inside the child with ``MemoryError`` instead of taking memory
    from the machine. One BLAS/OpenMP thread keeps the child's own
    reservations small. ``prelude``, Python code, runs in the child before
    the command, for instance to set a module constant. Returns the
    ``CompletedProcess`` with text output, and the child's own peak RSS as
    its ``peak_rss_bytes`` (None if it did not exit by itself)."""

    def cap_address_space():
        hard = resource.getrlimit(resource.RLIMIT_AS)[1]
        soft = limit_bytes if hard == resource.RLIM_INFINITY else min(limit_bytes, hard)
        resource.setrlimit(resource.RLIMIT_AS, (soft, hard))

    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    threads = {name: "1" for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
    with tempfile.TemporaryFile("w+") as out, tempfile.TemporaryFile("w+") as err, \
            tempfile.NamedTemporaryFile("r") as peak:
        script = "\n".join(
            [_REPORT_PEAK.format(path=peak.name), prelude, "import sys",
             "from blowfish_privacy.cli import main", "sys.exit(main(sys.argv[1:]))"]
        )
        child = subprocess.Popen(
            [sys.executable, "-c", script, *argv],
            cwd=cwd,
            env={**os.environ, "PYTHONPATH": path, **threads},
            preexec_fn=cap_address_space,
            stdout=out,
            stderr=err,
            text=True,
        )
        try:
            child.wait(timeout)
        except subprocess.TimeoutExpired:
            child.kill()
            child.wait()
            raise
        out.seek(0)
        err.seek(0)
        done = subprocess.CompletedProcess(child.args, child.returncode, out.read(), err.read())
        kib = peak.read()
    done.peak_rss_bytes = int(kib) * 1024 if kib else None
    return done


# ---------------------------------------------------------------------------
# Independent oracles


class DiffTriple(NamedTuple):
    """One differing record: position, base value, other value."""

    index: int
    base: str
    other: str


def total_difference(base, other):
    """Triples ``(i, base[i], other[i])`` at every position where the databases differ."""
    if len(base) != len(other):
        raise InputError(
            f"databases have different lengths ({len(base)} vs {len(other)})"
        )
    return frozenset(
        DiffTriple(i, u, v) for i, (u, v) in enumerate(zip(base, other)) if u != v
    )


def has_edge(secret_graph, a, b):
    """Whether labels ``a`` and ``b`` are joined in the policy's ``SecretGraph``."""
    return (a, b) in secret_graph.edges or (b, a) in secret_graph.edges


def secret_difference(base, other, secret_graph):
    """Subset of the total difference whose value pairs are edges of the
    policy's ``SecretGraph``."""
    return frozenset(
        t for t in total_difference(base, other) if has_edge(secret_graph, t.base, t.other)
    )


def oracle_sdiff(d1, d2, edge_set):
    sym = {(a, b) for a, b in edge_set} | {(b, a) for a, b in edge_set}
    return {t for t in total_difference(d1, d2) if (t.base, t.other) in sym}


def oracle_minimally_secretly_different(d1, d2, edge_set, universe_dbs):
    """Directional test, written verbatim from the definition."""
    s_target = oracle_sdiff(d1, d2, edge_set)
    if not s_target:
        return False
    t_target = total_difference(d1, d2)
    for mid in universe_dbs:
        s_mid = oracle_sdiff(d1, mid, edge_set)
        if not s_mid:
            continue
        if s_mid < s_target:
            return False
        if s_mid == s_target and total_difference(d1, mid) < t_target:
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
        policy = BlowfishPolicy(policy.secret_graph, policy.n, every)
    return induce_adjacency_graph(policy)


def degree_sequence(graph):
    """The vertex degrees of ``graph``, ascending."""
    return tuple(sorted(len(n) for n in graph.neighbors))


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


def oracle_distances(graph):
    """All-pairs hop counts as a list of lists, by one queue BFS per source;
    unreachable pairs are -1."""
    n = graph.vertex_count
    neighbours = [[] for _ in range(n)]
    for a, b in graph.edges:
        neighbours[a].append(b)
        neighbours[b].append(a)
    out = []
    for source in range(n):
        row = [-1] * n
        row[source] = 0
        queue = deque([source])
        while queue:
            v = queue.popleft()
            for w in neighbours[v]:
                if row[w] == -1:
                    row[w] = row[v] + 1
                    queue.append(w)
        out.append(row)
    return out


def components_from_distances(dist):
    """``(count, assignment, diameters)`` read off an all-pairs distance table
    (-1 unreachable), numbered like :func:`oracle_components`: a component is
    the reachable set of its smallest vertex, its diameter the largest entry
    of its members' rows."""
    assignment = [-1] * len(dist)
    diameters = []
    for start, row in enumerate(dist):
        if assignment[start] == -1:
            members = [v for v, d in enumerate(row) if d != -1]
            for v in members:
                assignment[v] = len(diameters)
            diameters.append(max(max(dist[v]) for v in members))
    return len(diameters), tuple(assignment), tuple(diameters)


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


def randomized_response(dist, epsilon, columns=None):
    """The randomized-response channel over the distance table ``dist`` (an
    array or a list of rows, -1 unreachable), its columns in the order
    ``columns`` (all of them by default), entry by entry in Python floats:
    each weighed from a ``math.exp`` table, distance 0 by 1 also at epsilon
    = inf and an unreachable one by 0, and divided by the row's ``fsum``."""
    rows = np.asarray(dist).tolist()
    if columns is not None:
        rows = [[row[j] for j in columns] for row in rows]
    longest = max(max(row) for row in rows)
    weight = [1.0, *(math.exp(-0.5 * epsilon * d) for d in range(1, longest + 1)), 0.0]
    probs = []
    for row in rows:
        weights = [weight[d] for d in row]
        total = math.fsum(weights)
        probs.append([w / total for w in weights])
    return ChannelMatrix(probs)


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
    largest ``|math.log(a / b)|`` over the columns where both rows are
    positive, one logarithm per ratio. ``math.log``, not ``np.log``, is the
    logarithm the library takes of its extreme ratios, and the two differ
    in the last bit on some arguments.
    """
    rows = channel.probs.tolist()
    worst = 0.0
    for i, h in graph.edges:
        for a, b in zip(rows[i], rows[h]):
            if (a > 0) != (b > 0):
                return math.inf
            if a > 0:
                worst = max(worst, abs(math.log(a / b)))
    return worst


def oracle_leakage(channel, prior=None):
    """The five leakage report fields by the definitions, over plain lists.

    Uniform prior: vulnerability 1/l and conditional vulnerability the
    ``fsum`` of the column maxima over l. Explicit prior: its largest
    probability, and the ``fsum`` of the column maxima of the prior-weighted
    entries. Min-entropies are ``-log2`` of each (infinite at 0)."""
    rows = channel.probs.tolist()
    if prior is None:
        v_prior = 1.0 / len(rows)
        v_cond = math.fsum(max(column) for column in zip(*rows)) / len(rows)
    else:
        weights = list(prior.probabilities)
        v_prior = max(weights)
        v_cond = math.fsum(
            max(w * entry for w, entry in zip(weights, column)) for column in zip(*rows)
        )
    h_prior, h_cond = (-math.log2(v) + 0.0 if v > 0 else math.inf for v in (v_prior, v_cond))
    return (v_prior, v_cond, h_prior, h_cond, h_prior - h_cond)


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


def recursive_automorphism_generators(graph: Graph):
    """The generators :func:`automorphism_group` finds, by the same search
    written with two recursive calls per level (about 490 vertices at most,
    under the default recursion limit), on :func:`oracle_distances` and
    :func:`oracle_elements` orbits."""
    n = graph.vertex_count
    dist = oracle_distances(graph)
    adj = [sorted({b for a, b in graph.edges if a == v} | {a for a, b in graph.edges if b == v})
           for v in range(n)]
    profiles = [
        (len(adj[v]), tuple(sorted(dist[v])), tuple(sorted(len(adj[w]) for w in adj[v])))
        for v in range(n)
    ]
    candidates = {v: [w for w in range(n) if profiles[w] == profiles[v]] for v in range(n)}
    order = sorted(range(n), key=lambda v: (len(candidates[v]), v))
    image = list(range(n))
    used = [True] * n

    def fits(k, w):
        dv, dw = dist[order[k]], dist[w]
        return not used[w] and all(dv[order[j]] == dw[image[order[j]]] for j in range(k))

    def descend(k, w):
        image[order[k]] = w
        used[w] = True
        found = first_completion(k + 1)
        used[w] = False
        image[order[k]] = -1
        return found

    def first_completion(k):
        if k == n:
            return tuple(image)
        for w in candidates[order[k]]:
            if fits(k, w):
                found = descend(k, w)
                if found is not None:
                    return found
        return None

    gens = []
    elements = oracle_elements(n, gens)
    for k in reversed(range(n)):
        v = order[k]
        image[v] = -1
        used[v] = False
        for w in candidates[v]:
            if all(p[v] != w for p in elements) and fits(k, w):
                found = descend(k, w)
                if found is not None:
                    gens.append(found)
                    elements = oracle_elements(n, gens)
    return tuple(gens)


def invert(perm):
    """The inverse of the permutation ``perm``, as a tuple."""
    out = [0] * len(perm)
    for i, image in enumerate(perm):
        out[image] = i
    return tuple(out)


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
def sparse_graphs(draw, max_vertices=140):
    """Graphs with at most as many edges as vertices, so that most draws have
    several components and isolated vertices."""
    n = draw(st.integers(1, max_vertices))
    vertex = st.integers(0, n - 1)
    pairs = draw(st.lists(st.tuples(vertex, vertex), max_size=n))
    return Graph.from_edges(n, [(a, b) for a, b in pairs if a != b])


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
