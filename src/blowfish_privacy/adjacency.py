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

from .errors import InputError, SchemaError
from .graphcore import Graph
from .policy import (
    BlowfishPolicy,
    DEFAULT_DATABASE_CAP,
    Database,
    SecretGraph,
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


def _is_adjacent_from(
    base: Database,
    other: Database,
    secret_graph: SecretGraph,
    universe_databases: Sequence[Database],
) -> bool:
    """Directional minimally-secretly-different test with ``base`` as reference."""
    s_target = secret_difference(base, other, secret_graph)
    if not s_target:
        return False
    t_target = total_difference(base, other)
    for mid in universe_databases:
        s_mid = secret_difference(base, mid, secret_graph)
        if not s_mid:
            continue
        if s_mid < s_target:
            return False
        if s_mid == s_target and total_difference(base, mid) < t_target:
            return False
    return True


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
    return _is_adjacent_from(
        tuple(base), tuple(other), policy.secret_graph, universe_databases
    )


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


def _induce_definition(
    policy: BlowfishPolicy, vertices: tuple[Database, ...]
) -> tuple[frozenset, tuple[tuple[int, int], ...]]:
    secret_graph = policy.secret_graph
    edges = set()
    asymmetric = []
    count = len(vertices)
    for i in range(count):
        for j in range(i + 1, count):
            forward = _is_adjacent_from(vertices[i], vertices[j], secret_graph, vertices)
            backward = _is_adjacent_from(vertices[j], vertices[i], secret_graph, vertices)
            if forward or backward:
                edges.add((i, j))
            if forward != backward:
                asymmetric.append((i, j))
    return frozenset(edges), tuple(asymmetric)


def induce_adjacency_graph(
    policy: BlowfishPolicy, cap: int = DEFAULT_DATABASE_CAP
) -> AdjacencyGraph:
    """Induce the database adjacency graph for ``policy``.

    An unconstrained policy takes the single-position characterisation
    (adjacent databases differ in one record, on a secret pair); an explicit
    permissible set is scanned by the definition, every candidate
    intermediate database in both argument orders.
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
