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
from typing import Iterator, NamedTuple

from .errors import SchemaError
from .graphcore import Graph, record_places
from .policy import (
    BlowfishPolicy,
    DEFAULT_DATABASE_CAP,
    Database,
    custom_policy,
    enumerate_permissible,
    label_lists,
)


class AdjacencyAsymmetryWarning(UserWarning):
    """The minimally-secretly-different relation disagreed by direction."""


def _value_sets(rows: list[tuple[int, ...]], n: int, m: int) -> list[list[int]]:
    """``sets[p][v]``: the bitset of the rows that hold value ``v`` at record
    ``p`` (bit ``k`` stands for ``rows[k]``)."""
    sets = []
    for p in range(n):
        holders: dict[int, list[int]] = {}
        for k, row in enumerate(rows):
            holders.setdefault(row[p], []).append(k)
        at_p = [0] * m
        for v, ks in holders.items():
            buf = bytearray((len(rows) + 7) // 8)
            for k in ks:
                buf[k >> 3] |= 1 << (k & 7)
            at_p[v] = int.from_bytes(buf, "little")
        sets.append(at_p)
    return sets


def _members(bits: int) -> Iterator[int]:
    """The indices of the set bits, ascending."""
    while bits:
        low = bits & -bits
        yield low.bit_length() - 1
        bits ^= low


def _adjacent_from(
    base: tuple[int, ...],
    rows: list[tuple[int, ...]],
    sets: list[list[int]],
    neighbors: tuple[tuple[int, ...], ...],
) -> int:
    """Bitset of the ``rows`` minimally secretly different from ``base``.

    From a fixed base, a secret difference is fixed by the records where it
    lies and the other value at each, its code. The candidates (rows with a
    non-empty code) are refined depth first, one record ``p`` at a time:
    a group splits into the rows not secretly different from the base at
    ``p`` (``keep``) and, for each secret neighbour ``v`` of the base's
    value, the rows holding ``v``. Each node also carries ``inside``, the
    candidates whose code, on the records so far, lies inside the node's;
    at a leaf these are the candidates whose code lies inside the group's,
    so the group is minimal when ``inside`` is the group itself. Within a
    minimal group, a row qualifies when no other member's total difference
    lies inside its own. Nested total differences have nested secret
    differences, so members of other minimal groups never need checking.
    The stack holds at most ``n * (1 + max secret degree)`` nodes.
    """
    n = len(base)
    everything = (1 << len(rows)) - 1
    equal = [sets[p][u] for p, u in enumerate(base)]
    branches = []  # per record: (rows taking the branch, rows inside it)
    candidates = 0
    for p, u in enumerate(base):
        secret = [s for v in neighbors[u] if (s := sets[p][v])]
        keep = everything
        for s in secret:
            keep ^= s
        branches.append([(keep, keep)] + [(s, keep | s) for s in secret])
        candidates |= everything ^ keep
    adjacent = 0
    stack = [(0, candidates, candidates)] if candidates else []
    while stack:
        p, group, inside = stack.pop()
        if p < n:
            for select, within in branches[p]:
                if part := group & select:
                    stack.append((p + 1, part, inside & within))
        elif inside == group:  # no other candidate's secret difference lies inside
            for y in _members(group):
                smaller = group
                for p, v in enumerate(rows[y]):
                    smaller &= equal[p] | sets[p][v]
                if smaller == 1 << y:
                    adjacent |= smaller
    return adjacent


class AdjacencyGraph(NamedTuple):
    """Adjacency graph over permissible databases in canonical order."""

    vertices: tuple[Database, ...]
    edges: frozenset[tuple[int, int]]
    asymmetric_pairs: tuple[tuple[int, int], ...] = ()

    def to_graph(self) -> Graph:
        return Graph(len(self.vertices), self.edges)


def _induce_fast(policy: BlowfishPolicy) -> frozenset:
    # Unconstrained sets only: adjacent databases differ in one record p, on
    # a secret edge d < w. The codes with digit d at p come in runs of
    # `place` codes, one run every m * place, and each joins c + (w - d) * place.
    m, n = len(policy.universe), policy.n
    return frozenset(
        (c, c + (w - d) * place)
        for place in record_places(m, n)
        for d, w in policy.secret_graph.index_graph.edges
        for start in range(d * place, m**n, m * place)
        for c in range(start, start + place)
    )


def _induce_definition(
    policy: BlowfishPolicy, vertices: tuple[Database, ...]
) -> tuple[frozenset, tuple[tuple[int, int], ...]]:
    rows = [tuple(map(policy.universe.index, db)) for db in vertices]
    sets = _value_sets(rows, policy.n, len(policy.universe))
    neighbors = policy.secret_graph.index_graph.neighbors
    arcs = [_adjacent_from(base, rows, sets, neighbors) for base in rows]
    edges = frozenset((min(i, j), max(i, j)) for i, out in enumerate(arcs) for j in _members(out))
    asymmetric = sorted((i, j) for i, j in edges if (arcs[i] >> j ^ arcs[j] >> i) & 1)
    return edges, tuple(asymmetric)


def induce_adjacency_graph(
    policy: BlowfishPolicy, cap: int = DEFAULT_DATABASE_CAP
) -> AdjacencyGraph:
    """Induce the database adjacency graph for ``policy``.

    An unconstrained policy's graph is the secret graph's n-fold Cartesian
    product (Imrich & Klavžar, *Product Graphs*, 2000): in the mixed-radix
    canonical order (:func:`~blowfish_privacy.graphcore.record_places`),
    database ``c`` with digit ``d`` at record ``p`` joins ``c + (w - d) *
    m^(n-1-p)`` for each secret edge ``d < w``, with no database read. An
    explicit permissible set follows the definition, one pass from each
    database as base, over Python-int bitsets of databases: ``sets[p][v]``
    holds the databases with value ``v`` at record ``p``, built once. Each
    pass refines the databases secretly different from the base by their
    secret difference, one record at a time and depth first, keeps the
    groups with no smaller non-empty secret difference inside them, and
    within those the databases whose total difference is minimal (see
    :func:`_adjacent_from`). No array is built and numpy is not imported.
    An edge is kept when either direction holds; pairs where the
    directions disagree are recorded and warned about.
    """
    vertices = enumerate_permissible(policy, cap)
    if policy.unconstrained:
        return AdjacencyGraph(vertices, _induce_fast(policy))
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
