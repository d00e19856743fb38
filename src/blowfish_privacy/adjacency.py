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
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .errors import InputError, SchemaError
from .graphcore import UNREACHABLE, Graph, distances
from .policy import (
    BlowfishPolicy,
    DEFAULT_DATABASE_CAP,
    Database,
    SecretGraph,
    capped_permissible_size,
    custom_policy,
    enumerate_permissible,
)


class DiffTriple(NamedTuple):
    """One differing record: position, base value, other value."""

    index: int
    base: str
    other: str


class AdjacencyAsymmetryWarning(UserWarning):
    """The minimally-secretly-different relation disagreed by direction."""


def total_difference(base: Database, other: Database) -> frozenset[DiffTriple]:
    """Triples ``(i, base[i], other[i])`` at every position where the databases differ."""
    if len(base) != len(other):
        raise InputError(
            f"databases have different lengths ({len(base)} vs {len(other)})"
        )
    return frozenset(
        DiffTriple(i, u, v) for i, (u, v) in enumerate(zip(base, other)) if u != v
    )


def secret_difference(
    base: Database, other: Database, secret_graph: SecretGraph
) -> frozenset[DiffTriple]:
    """Subset of the total difference whose value pairs are secret edges."""
    return frozenset(
        t for t in total_difference(base, other) if secret_graph.has_edge(t.base, t.other)
    )


def _adjacent_from(
    base: Database, vertices: Sequence[Database], secret_graph: SecretGraph
) -> list[int]:
    """Indices of the databases minimally secretly different from ``base``.

    The databases are grouped by their secret difference from ``base``. A
    database qualifies when its group is non-empty, no non-empty group lies
    strictly inside it, and no member of its group has a strictly smaller
    total difference.
    """
    groups: dict[frozenset[DiffTriple], list[int]] = {}
    for k, other in enumerate(vertices):
        s_other = secret_difference(base, other, secret_graph)
        if s_other:
            groups.setdefault(s_other, []).append(k)
    # Only a smaller group can lie strictly inside another, so size order sees it first.
    minimal: list[frozenset[DiffTriple]] = []
    for s_group in sorted(groups, key=len):
        if not any(s_min < s_group for s_min in minimal):
            minimal.append(s_group)
    adjacent = []
    for s_group in minimal:
        totals = {k: total_difference(base, vertices[k]) for k in groups[s_group]}
        adjacent += [
            k for k, t in totals.items() if not any(u < t for u in totals.values())
        ]
    return adjacent


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
    adjacent = _adjacent_from(tuple(base), universe_databases, policy.secret_graph)
    return tuple(other) in {universe_databases[k] for k in adjacent}


@dataclass(frozen=True)
class AdjacencyGraph:
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
    neighbor_map = policy.secret_graph.neighbor_map
    index_of = {db: k for k, db in enumerate(vertices)}
    edges = set()
    for idx, db in enumerate(vertices):
        for pos, lab in enumerate(db):
            base_rank = universe.index(lab)
            for other_lab in neighbor_map[lab]:
                if universe.index(other_lab) <= base_rank:
                    continue
                other = db[:pos] + (other_lab,) + db[pos + 1 :]
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
    secret = np.array(distances(policy.secret_graph.index_graph))
    m, n = len(secret), policy.n
    # An unreachable record pair counts as more than any sum of finite ones.
    # The dtype is the smallest signed one that holds the largest sum,
    # n * beyond (the negated bound minus one keeps e.g. 128 out of int8).
    beyond = n * (m - 1) + 1
    per_record = np.where(secret == UNREACHABLE, beyond, secret).astype(
        np.min_scalar_type(-n * beyond - 1)
    )
    total = per_record
    for _ in range(n - 1):
        size = len(total) * m
        total = (total[:, None, :, None] + per_record[None, :, None, :]).reshape(size, size)
    total[total >= beyond] = UNREACHABLE
    return total


def _induce_definition(
    policy: BlowfishPolicy, vertices: tuple[Database, ...]
) -> tuple[frozenset, tuple[tuple[int, int], ...]]:
    arcs = {
        (i, j)
        for i, base in enumerate(vertices)
        for j in _adjacent_from(base, vertices, policy.secret_graph)
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
    (adjacent databases differ in one record, on a secret pair); an explicit
    permissible set follows the definition, in one pass from each database
    as base; an edge is kept when either direction holds.
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
    vertices = doc["vertices"]
    if not isinstance(vertices, list) or not all(
        isinstance(v, list) and all(isinstance(x, str) for x in v) for v in vertices
    ):
        raise SchemaError("'vertices' must be a list of label lists")
    edges = doc["edges"]
    if not isinstance(edges, list) or not all(
        isinstance(e, list) and len(e) == 2 and all(isinstance(x, int) for x in e)
        for e in edges
    ):
        raise SchemaError("'edges' must be a list of vertex index pairs")
    vertex_tuples = tuple(tuple(v) for v in vertices)
    graph = Graph.from_edges(len(vertex_tuples), edges)
    return AdjacencyGraph(vertex_tuples, graph.edges)


def adjacency_from_json(text: str) -> AdjacencyGraph:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"graph document is not valid JSON: {exc}") from None
    return adjacency_from_document(doc)
