"""Undirected-graph and permutation-group machinery.

Graphs are immutable, index-based simple graphs. Permutations use one-line
notation: ``perm[i]`` is the image of point ``i``. Composition is
``compose(sigma, gamma)[i] == sigma[gamma[i]]``, i.e. ``gamma`` acts first;
this convention is used everywhere (cosets are order-sensitive).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence, TYPE_CHECKING

from .errors import CapExceededError, InputError, UnsupportedLiftError

if TYPE_CHECKING:
    from .adjacency import AdjacencyGraph
    from .policy import BlowfishPolicy

Permutation = tuple[int, ...]

UNREACHABLE = -1
DEFAULT_GROUP_CAP = 100_000
DEFAULT_VERTEX_CAP = 16


# ---------------------------------------------------------------------------
# Graphs


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph on vertices ``0 .. vertex_count - 1``."""

    vertex_count: int
    edges: frozenset[tuple[int, int]]

    def __post_init__(self):
        if self.vertex_count < 1:
            raise InputError("graph needs at least one vertex")
        for a, b in self.edges:
            if not (0 <= a < b < self.vertex_count):
                raise InputError(f"edge ({a}, {b}) is not a sorted pair of distinct vertex indices")

    @classmethod
    def from_edges(cls, vertex_count: int, edges: Iterable[Sequence[int]]) -> "Graph":
        """Build a graph, normalising edges to sorted pairs and dropping duplicates."""
        normalised = set()
        for a, b in edges:
            a, b = int(a), int(b)
            if a == b:
                raise InputError(f"self-loop on vertex {a}")
            normalised.add((a, b) if a < b else (b, a))
        return cls(vertex_count, frozenset(normalised))

    @cached_property
    def neighbors(self) -> tuple[frozenset[int], ...]:
        adj: list[set[int]] = [set() for _ in range(self.vertex_count)]
        for a, b in self.edges:
            adj[a].add(b)
            adj[b].add(a)
        return tuple(frozenset(s) for s in adj)

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def degree_sequence(self) -> tuple[int, ...]:
        return tuple(sorted(len(n) for n in self.neighbors))


def distances(graph: Graph) -> list[list[int]]:
    """All-pairs hop counts by repeated BFS; unreachable pairs are ``UNREACHABLE``."""
    n = graph.vertex_count
    adj = graph.neighbors
    out = []
    for source in range(n):
        row = [UNREACHABLE] * n
        row[source] = 0
        queue = deque([source])
        while queue:
            v = queue.popleft()
            for w in adj[v]:
                if row[w] == UNREACHABLE:
                    row[w] = row[v] + 1
                    queue.append(w)
        out.append(row)
    return out


@dataclass(frozen=True)
class Components:
    count: int
    assignment: tuple[int, ...]
    diameters: tuple[int, ...]


def components_and_diameters(graph: Graph) -> Components:
    """Connected components and per-component diameters (isolated vertex: 0).

    Each component is the reachable set of its smallest vertex's distance
    row; components are numbered in the order of their smallest vertices.
    """
    dist = distances(graph)
    assignment = [-1] * graph.vertex_count
    diameters = []
    for start, row in enumerate(dist):
        if assignment[start] != -1:
            continue
        members = [v for v, d in enumerate(row) if d != UNREACHABLE]
        for v in members:
            assignment[v] = len(diameters)
        # Unreachable entries are -1, so a member's row peaks inside the component.
        diameters.append(max(max(dist[v]) for v in members))
    return Components(len(diameters), tuple(assignment), tuple(diameters))


# ---------------------------------------------------------------------------
# Permutations


def identity_permutation(degree: int) -> Permutation:
    return tuple(range(degree))


def compose(sigma: Permutation, gamma: Permutation) -> Permutation:
    """Composition sigma after gamma: ``compose(s, g)[i] == s[g[i]]``."""
    return tuple(sigma[g] for g in gamma)


def invert(perm: Permutation) -> Permutation:
    out = [0] * len(perm)
    for i, image in enumerate(perm):
        out[image] = i
    return tuple(out)


def is_valid_permutation(perm: Sequence[int], degree: int) -> bool:
    return len(perm) == degree and sorted(perm) == list(range(degree))


def is_automorphism(graph: Graph, perm: Permutation) -> bool:
    """True iff ``perm`` maps the edge set onto itself (hence non-edges too)."""
    if not is_valid_permutation(perm, graph.vertex_count):
        return False
    mapped = set()
    for a, b in graph.edges:
        x, y = perm[a], perm[b]
        mapped.add((x, y) if x < y else (y, x))
    return mapped == graph.edges


# ---------------------------------------------------------------------------
# Permutation groups


@dataclass(frozen=True, eq=False)
class PermutationGroup:
    """A permutation group given by its generators.

    The generators are the group's only state: orbits are read from them.
    ``elements`` is enumerated by closure when first read, and raises
    :class:`CapExceededError` once the closure passes ``cap`` elements. It is
    sorted, so any summation over the group has a fixed canonical order.
    """

    degree: int
    generators: tuple[Permutation, ...] = ()
    cap: int = DEFAULT_GROUP_CAP

    def __post_init__(self):
        gens = [tuple(g) for g in self.generators]
        for g in gens:
            if not is_valid_permutation(g, self.degree):
                raise InputError(f"{g!r} is not a permutation of degree {self.degree}")
        ident = identity_permutation(self.degree)
        kept = tuple(g for g in dict.fromkeys(gens) if g != ident)
        object.__setattr__(self, "generators", kept)

    @cached_property
    def elements(self) -> tuple[Permutation, ...]:
        ident = identity_permutation(self.degree)
        seen = {ident}
        frontier = [ident]
        while frontier:
            nxt = []
            for x in frontier:
                for g in self.generators:
                    y = compose(g, x)
                    if y not in seen:
                        if len(seen) >= self.cap:
                            raise CapExceededError(
                                f"group closure exceeds cap of {self.cap} elements"
                            )
                        seen.add(y)
                        nxt.append(y)
            frontier = nxt
        return tuple(sorted(seen))

    @property
    def order(self) -> int:
        return len(self.elements)


def generate_group(
    generators: Iterable[Sequence[int]],
    cap: int = DEFAULT_GROUP_CAP,
    degree: int | None = None,
) -> PermutationGroup:
    """Smallest group containing ``generators``, enumerated at once.

    ``degree`` is only needed when ``generators`` is empty (the trivial
    group). Raises :class:`CapExceededError` if the closure would exceed
    ``cap`` elements.
    """
    gens = [tuple(g) for g in generators]
    if gens:
        degree = len(gens[0])
    elif degree is None:
        raise InputError("degree is required to generate a group without generators")
    group = PermutationGroup(degree, tuple(gens), cap)
    group.elements  # enumerate now, so a cap overflow surfaces here
    return group


def automorphism_group(
    graph: Graph,
    vertex_cap: int = DEFAULT_VERTEX_CAP,
    element_cap: int = DEFAULT_GROUP_CAP,
) -> PermutationGroup:
    """Full automorphism group of ``graph``, given by generators found by
    pruned backtracking search.

    Vertices may only map to vertices with the same invariant profile
    (degree, sorted distance row, sorted neighbour degrees), and partial
    assignments must preserve all pairwise distances, which for complete
    assignments is equivalent to preserving adjacency and non-adjacency.

    Level ``k`` of the search fixes the first ``k`` vertices of the search
    order. From the deepest level up, the first automorphism that maps the
    level's vertex to a given image is kept only when that image is not yet
    in the vertex's orbit under the generators kept so far; the kept set then
    generates each level's pointwise stabiliser, hence the whole group.

    Raises :class:`CapExceededError` when the graph has more than
    ``vertex_cap`` vertices (callers may fall back to lifted generators).
    ``element_cap`` bounds the group's later element enumeration.
    """
    n = graph.vertex_count
    if n > vertex_cap:
        raise CapExceededError(
            f"automorphism search limited to {vertex_cap} vertices, got {n}"
        )
    dist = distances(graph)
    adj = graph.neighbors
    profiles = []
    for v in range(n):
        profiles.append(
            (
                len(adj[v]),
                tuple(sorted(dist[v])),
                tuple(sorted(len(adj[w]) for w in adj[v])),
            )
        )
    candidates = {
        v: [w for w in range(n) if profiles[w] == profiles[v]] for v in range(n)
    }
    order = sorted(range(n), key=lambda v: (len(candidates[v]), v))
    # ``image`` is the partial assignment: order[:k] fixed, order[k:] open.
    image = list(range(n))
    used = [True] * n

    def fits(k: int, w: int) -> bool:
        dv, dw = dist[order[k]], dist[w]
        return not used[w] and all(dv[order[j]] == dw[image[order[j]]] for j in range(k))

    def descend(k: int, w: int) -> Permutation | None:
        image[order[k]] = w
        used[w] = True
        found = first_completion(k + 1)
        used[w] = False
        image[order[k]] = -1
        return found

    def first_completion(k: int) -> Permutation | None:
        if k == n:
            return tuple(image)
        for w in candidates[order[k]]:
            if fits(k, w):
                found = descend(k, w)
                if found is not None:
                    return found
        return None

    gens: list[Permutation] = []
    orbit_of = list(range(n))
    for k in reversed(range(n)):
        v = order[k]
        image[v] = -1
        used[v] = False
        for w in candidates[v]:
            if orbit_of[w] != orbit_of[v] and fits(k, w):
                found = descend(k, w)
                if found is not None:
                    gens.append(found)
                    orbit_of, _ = _orbit_partition(gens, n)
    return PermutationGroup(n, tuple(gens), element_cap)


# ---------------------------------------------------------------------------
# Orbits, stabilisers, transporters


@dataclass(frozen=True)
class OrbitPartition:
    orbit_index: tuple[int, ...]
    orbits: tuple[tuple[int, ...], ...]

    @property
    def count(self) -> int:
        return len(self.orbits)


def _orbit_partition(
    generators: Sequence[Sequence[int]], degree: int
) -> tuple[list[int], list[list[int]]]:
    """Orbit index of each point of ``0 .. degree - 1`` and the sorted orbits,
    by breadth-first reachability over ``generators``."""
    orbit_of = [-1] * degree
    orbit_lists: list[list[int]] = []
    for start in range(degree):
        if orbit_of[start] != -1:
            continue
        oid = len(orbit_lists)
        orbit_of[start] = oid
        members = [start]
        for x in members:  # grows while it is read: a FIFO queue
            for g in generators:
                y = g[x]
                if orbit_of[y] == -1:
                    orbit_of[y] = oid
                    members.append(y)
        orbit_lists.append(sorted(members))
    return orbit_of, orbit_lists


def orbits(group: PermutationGroup) -> OrbitPartition:
    """Orbit partition of ``0 .. degree - 1`` under ``group``'s generators."""
    orbit_of, orbit_lists = _orbit_partition(group.generators, group.degree)
    return OrbitPartition(tuple(orbit_of), tuple(tuple(o) for o in orbit_lists))


def transporter(group: PermutationGroup, u: int, v: int) -> tuple[Permutation, ...]:
    """All group elements mapping ``u`` to ``v`` (empty for distinct orbits)."""
    if not (0 <= u < group.degree and 0 <= v < group.degree):
        raise InputError("transporter endpoints must be valid points")
    return tuple(p for p in group.elements if p[u] == v)


def stabiliser(group: PermutationGroup, u: int) -> tuple[Permutation, ...]:
    return transporter(group, u, u)


def pair_orbits(
    perms: Sequence[Permutation], degree: int
) -> list[list[tuple[int, int]]]:
    """Orbits of ordered index pairs under the group generated by ``perms``.

    Pair ``(a, b)`` is point ``a * degree + b`` of the action on pairs.
    """
    lifted = [[x * degree + y for x in p for y in p] for p in perms]
    _, orbit_lists = _orbit_partition(lifted, degree * degree)
    return [[divmod(x, degree) for x in orbit] for orbit in orbit_lists]


# ---------------------------------------------------------------------------
# Lifting secret-graph symmetry to the database adjacency graph


def lift_policy_automorphisms(
    policy: "BlowfishPolicy",
    adjacency: "AdjacencyGraph",
    secret_vertex_cap: int = DEFAULT_VERTEX_CAP,
) -> tuple[Permutation, ...]:
    """Generators of an automorphism subgroup of the database adjacency graph.

    Two families are lifted, assuming an unconstrained permissible set:
    per-record applications of secret-graph automorphisms (one non-identity
    automorphism applied at one record position), and record-index swaps of
    adjacent positions. Only a generating subset of the secret graph's
    automorphism group is lifted per record; lifting at a fixed record is a
    homomorphism, so the generated subgroup is unchanged. Every returned
    permutation is verified to preserve adjacency on ``adjacency``.
    """
    if not policy.unconstrained:
        raise UnsupportedLiftError(
            "lifting needs an unconstrained permissible set; "
            "use a full automorphism search instead"
        )
    universe = policy.secret_graph.universe
    labels = universe.labels
    secret_aut = automorphism_group(
        policy.secret_graph.index_graph, vertex_cap=secret_vertex_cap
    )

    vertices = adjacency.vertices
    if len(vertices) != len(labels) ** policy.n:
        raise InputError(
            "adjacency graph does not cover the policy's full database set"
        )
    index_of = {db: k for k, db in enumerate(vertices)}
    n = policy.n

    gens: list[Permutation] = []
    for record in range(n):
        for phi in secret_aut.generators:
            mapped = []
            for db in vertices:
                image_db = (
                    db[:record]
                    + (labels[phi[universe.index(db[record])]],)
                    + db[record + 1 :]
                )
                mapped.append(index_of[image_db])
            gens.append(tuple(mapped))
    for record in range(n - 1):
        mapped = []
        for db in vertices:
            image_db = (
                db[:record] + (db[record + 1], db[record]) + db[record + 2 :]
            )
            mapped.append(index_of[image_db])
        gens.append(tuple(mapped))

    graph = adjacency.to_graph()
    unique = tuple(dict.fromkeys(g for g in gens if g != identity_permutation(len(vertices))))
    for perm in unique:
        if not is_automorphism(graph, perm):
            raise InputError(
                "lifted permutation does not preserve adjacency; "
                "the policy and adjacency graph are inconsistent"
            )
    return unique
