"""Database differences and the induced database adjacency graph.

Two databases are adjacent when they are minimally secretly different: they
differ on at least one secret value pair, and no permissible intermediate
database realises a strictly smaller secret difference (or the same secret
difference with a strictly smaller total difference) from the same base.

On constrained permissible sets the relation need not be symmetric in its
arguments. The induced graph keeps an edge when either direction holds, and
any pair on which the two directions disagree is recorded on the result and
reported through a warning rather than silently symmetrised.
"""

from __future__ import annotations

import json
import warnings
from typing import NamedTuple, Sequence

from ._numpy import np
from .errors import InputError, SchemaError
from .graphcore import UNREACHABLE, Graph, distances
from .policy import (
    BlowfishPolicy,
    DEFAULT_DATABASE_CAP,
    Database,
    capped_permissible_size,
    custom_policy,
    enumerate_permissible,
    label_lists,
)

# Entries that one block of the pairwise difference comparisons holds at once.
DIFFERENCE_CHUNK_CELLS = 2**16


class AdjacencyAsymmetryWarning(UserWarning):
    """The minimally-secretly-different relation disagreed by direction."""


def _contains_any(rows: np.ndarray, subsets: np.ndarray) -> np.ndarray:
    """Mask of the coded ``rows`` whose set contains at least one of ``subsets``.

    Rows and subsets are compared a block of each at a time, each block pair
    holding at most ``DIFFERENCE_CHUNK_CELLS`` entries (one row against one
    subset when a single row is longer).
    """
    width = max(1, rows.shape[1])
    subset_step = max(1, min(len(subsets), DIFFERENCE_CHUNK_CELLS // width))
    row_step = max(1, DIFFERENCE_CHUNK_CELLS // (subset_step * width))
    found = np.zeros(len(rows), dtype=bool)
    for k in range(0, len(subsets), subset_step):
        block = subsets[k : k + subset_step]
        absent = block < 0
        for r in range(0, len(rows), row_step):
            inside = absent | (block == rows[r : r + row_step, None, :])
            found[r : r + row_step] |= inside.all(axis=2).any(axis=1)
    return found


def _minimal_rows(codes: np.ndarray) -> np.ndarray:
    """Mask of the coded rows whose set strictly contains no other row's set.

    Row ``r`` codes the set of pairs ``(p, codes[r, p])`` with
    ``codes[r, p] >= 0``. Only a smaller set can lie strictly inside another,
    and strict containment is transitive, so the rows are visited one size at
    a time and each is tested only against the minimal rows of smaller sizes.
    """
    sizes = (codes >= 0).sum(axis=1)
    minimal = np.zeros(len(codes), dtype=bool)
    for size in np.flatnonzero(np.bincount(sizes)).tolist():
        level = np.flatnonzero(sizes == size)
        if minimal.any():
            level = level[~_contains_any(codes[level], codes[minimal])]
        minimal[level] = True
    return minimal


def _adjacent_from(rows: np.ndarray, base: np.ndarray, secret: np.ndarray) -> np.ndarray:
    """Indices of the ``rows`` minimally secretly different from ``base``.

    Databases are rows of universe indices and ``secret`` is the secret graph
    as a boolean table. From a fixed base, a differing record is fixed by its
    position and its other value, so a difference is coded as a row that
    holds the other database's value at each position in the difference and
    -1 elsewhere. The rows are grouped exactly by their secret-difference
    code. A row qualifies when its group is non-empty, no non-empty group
    lies strictly inside it, and no member of its group has a strictly
    smaller total difference.
    """
    secret_code = np.where(secret[base, rows], rows, -1)
    candidates = np.flatnonzero((secret_code >= 0).any(axis=1))
    if not len(candidates):
        return candidates
    codes = secret_code[candidates]
    # Sort the codes, then cut wherever a row differs from the one before it
    # (np.unique over rows sorts raw bytes and is several times slower here).
    order = np.lexsort(codes.T)
    ordered = codes[order]
    first = np.ones(len(order), dtype=bool)
    first[1:] = (ordered[1:] != ordered[:-1]).any(axis=1)
    group_of = np.empty(len(order), dtype=np.intp)
    group_of[order] = np.cumsum(first) - 1
    members = candidates[_minimal_rows(ordered[first])[group_of]]
    # Nested total differences have nested secret differences, so members of
    # two different minimal groups never nest and all groups are done at once.
    member_rows = rows[members]
    total_code = np.where(member_rows != base, member_rows, -1)
    return members[_minimal_rows(total_code)]


def _encode(policy: BlowfishPolicy, databases: Sequence[Database], n: int) -> np.ndarray:
    """The databases as a ``len(databases) x n`` array of universe indices."""
    if any(len(db) != n for db in databases):
        raise InputError(f"databases must all have {n} records")
    index = policy.universe.index
    codes = [index(label) for db in databases for label in db]
    return np.array(codes, dtype=np.intp).reshape(len(databases), n)


def _secret_table(policy: BlowfishPolicy) -> np.ndarray:
    """The secret graph as a symmetric boolean table over universe indices."""
    m = len(policy.universe)
    ends = np.array(list(policy.secret_graph.index_graph.edges), dtype=np.intp).reshape(-1, 2)
    table = np.zeros((m, m), dtype=bool)
    table[ends[:, 0], ends[:, 1]] = table[ends[:, 1], ends[:, 0]] = True
    return table


def is_adjacent(
    base: Database,
    other: Database,
    policy: BlowfishPolicy,
    universe_databases: Sequence[Database],
) -> bool:
    """Directional adjacency test over an explicit permissible set."""
    members = set(universe_databases)
    if tuple(base) not in members:
        raise InputError(f"database {base!r} is not permissible")
    if tuple(other) not in members:
        raise InputError(f"database {other!r} is not permissible")
    rows = _encode(policy, universe_databases, len(base))
    (base_row,) = _encode(policy, [base], len(base))
    adjacent = _adjacent_from(rows, base_row, _secret_table(policy))
    return tuple(other) in {universe_databases[k] for k in adjacent.tolist()}


class AdjacencyGraph(NamedTuple):
    """Adjacency graph over permissible databases in canonical order."""

    vertices: tuple[Database, ...]
    edges: frozenset[tuple[int, int]]
    asymmetric_pairs: tuple[tuple[int, int], ...] = ()

    def to_graph(self) -> Graph:
        return Graph(len(self.vertices), self.edges)


def _induce_fast(policy: BlowfishPolicy, vertices: tuple[Database, ...]) -> frozenset:
    # Unconstrained sets only: adjacency is exactly one differing position
    # whose value pair is a secret edge.
    universe = policy.universe
    labels = universe.labels
    neighbors = policy.secret_graph.index_graph.neighbors
    index_of = {db: k for k, db in enumerate(vertices)}
    edges = set()
    for idx, db in enumerate(vertices):
        for pos, lab in enumerate(db):
            base_rank = universe.index(lab)
            for other_rank in neighbors[base_rank]:
                if other_rank <= base_rank:
                    continue
                other = db[:pos] + (labels[other_rank],) + db[pos + 1 :]
                edges.add((idx, index_of[other]))
    return frozenset(edges)


def product_distances(
    policy: BlowfishPolicy, cap: int = DEFAULT_DATABASE_CAP
) -> np.ndarray:
    """All-pairs distances of an unconstrained policy's adjacency graph, not induced.

    That graph is the n-fold Cartesian product of the secret graph, so the
    distance between two databases is the sum of their per-record secret
    distances, and ``UNREACHABLE`` when any record's pair is unreachable.
    The sum is built record by record as numpy broadcasts over the
    mixed-radix canonical order (record 0 most significant). Equal to
    :func:`graphcore.distances` of the induced graph; the database count is
    checked against ``cap`` before anything is allocated.
    """
    if not policy.unconstrained:
        raise InputError("product distances need an unconstrained policy")
    capped_permissible_size(policy, cap)
    secret = distances(policy.secret_graph.index_graph)
    m, n = len(secret), policy.n
    # An unreachable record pair counts as more than any sum of finite ones.
    # The dtype is the smallest signed one that holds the largest sum,
    # n * beyond (the negated bound minus one keeps e.g. 128 out of int8).
    beyond = n * (m - 1) + 1
    per_record = secret.astype(np.min_scalar_type(-n * beyond - 1))
    per_record[secret == UNREACHABLE] = beyond
    total = per_record
    for _ in range(n - 1):
        size = len(total) * m
        total = (total[:, None, :, None] + per_record[None, :, None, :]).reshape(size, size)
    total[total >= beyond] = UNREACHABLE
    return total


def _induce_definition(
    policy: BlowfishPolicy, vertices: tuple[Database, ...]
) -> tuple[frozenset, tuple[tuple[int, int], ...]]:
    rows = _encode(policy, vertices, policy.n)
    secret = _secret_table(policy)
    arcs = {
        (i, j)
        for i, base in enumerate(rows)
        for j in _adjacent_from(rows, base, secret).tolist()
    }
    edges = frozenset((min(arc), max(arc)) for arc in arcs)
    asymmetric = sorted(
        (i, j) for i, j in edges if ((i, j) in arcs) != ((j, i) in arcs)
    )
    return edges, tuple(asymmetric)


def induce_adjacency_graph(
    policy: BlowfishPolicy, cap: int = DEFAULT_DATABASE_CAP
) -> AdjacencyGraph:
    """Induce the database adjacency graph for ``policy``.

    An unconstrained policy takes the single-position characterisation
    (adjacent databases differ in one record, on a secret pair). An explicit
    permissible set follows the definition, one pass from each database as
    base, on a ``V x n`` array of universe indices and a boolean table of the
    secret graph. Each pass codes every database's secret and total
    difference from the base as an index row, groups the rows exactly by
    secret code, keeps the groups with no smaller non-empty group inside
    them, and within those the databases whose total difference is minimal.
    Both subset scans visit candidates in order of size and test them only
    against the minimal rows of smaller sizes, a block at a time of at most
    ``DIFFERENCE_CHUNK_CELLS`` entries, so no temporary outgrows the database
    array by more than that budget. An edge is kept when either direction
    holds; pairs where the directions disagree are recorded and warned about.
    """
    vertices = enumerate_permissible(policy, cap)
    if policy.unconstrained:
        return AdjacencyGraph(vertices, _induce_fast(policy, vertices))
    edges, asymmetric = _induce_definition(policy, vertices)
    if asymmetric:
        warnings.warn(
            f"adjacency disagreed by direction on {len(asymmetric)} pair(s); "
            "edges were kept when either direction held",
            AdjacencyAsymmetryWarning,
            stacklevel=2,
        )
    return AdjacencyGraph(vertices, edges, asymmetric)


def embed_graph_as_policy(graph: Graph) -> BlowfishPolicy:
    """Policy whose induced adjacency graph equals ``graph`` (single-record databases).

    Vertices become tuple labels, edges become secret edges, and every
    one-record database is permissible.
    """
    labels = [str(v) for v in range(graph.vertex_count)]
    edges = [(labels[a], labels[b]) for a, b in graph.edges]
    return custom_policy(labels, edges, n=1, permissible=None)


# ---------------------------------------------------------------------------
# Graph document format


def adjacency_to_document(adjacency: AdjacencyGraph) -> dict:
    return {
        "vertices": [list(db) for db in adjacency.vertices],
        "edges": [list(edge) for edge in sorted(adjacency.edges)],
    }


def adjacency_to_json(adjacency: AdjacencyGraph) -> str:
    return json.dumps(adjacency_to_document(adjacency), indent=2) + "\n"


def adjacency_from_document(doc) -> AdjacencyGraph:
    if not isinstance(doc, dict) or set(doc) != {"vertices", "edges"}:
        raise SchemaError("graph document must contain exactly 'vertices' and 'edges'")
    vertices = label_lists(doc["vertices"], "'vertices' must be a list of label lists")
    if len(set(vertices)) != len(vertices):
        raise SchemaError("'vertices' must not list a database twice")
    if len({len(v) for v in vertices}) > 1:
        raise SchemaError("'vertices' must all have the same number of records")
    edges = doc["edges"]
    if not isinstance(edges, list) or not all(
        isinstance(e, list)
        and len(e) == 2
        and all(isinstance(x, int) and not isinstance(x, bool) for x in e)
        for e in edges
    ):
        raise SchemaError("'edges' must be a list of vertex index pairs")
    graph = Graph.from_edges(len(vertices), edges)
    return AdjacencyGraph(vertices, graph.edges)


def adjacency_from_json(text: str) -> AdjacencyGraph:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"graph document is not valid JSON: {exc}") from None
    return adjacency_from_document(doc)
