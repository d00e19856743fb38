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
    """Connected components and per-component diameters (isolated vertex: 0)."""
    n = graph.vertex_count
    adj = graph.neighbors
    assignment = [-1] * n
    members: list[list[int]] = []
    for start in range(n):
        if assignment[start] != -1:
            continue
        comp = len(members)
        assignment[start] = comp
        group = [start]
        queue = deque([start])
        while queue:
            v = queue.popleft()
            for w in adj[v]:
                if assignment[w] == -1:
                    assignment[w] = comp
                    group.append(w)
                    queue.append(w)
        members.append(group)

    dist = distances(graph)
    diameters = []
    for group in members:
        best = 0
        for i, a in enumerate(group):
            row = dist[a]
            for b in group[i + 1 :]:
                if row[b] > best:
                    best = row[b]
        diameters.append(best)
    return Components(len(members), tuple(assignment), tuple(diameters))


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
    """A permutation group stored by explicit element enumeration.

    ``elements`` is sorted, so iteration (and any summation over the group)
    has a fixed canonical order. ``generators`` optionally keeps the set the
    group was generated from; orbit computations prefer it when present.
    """

    degree: int
    elements: tuple[Permutation, ...]
    generators: tuple[Permutation, ...] = ()

    def __post_init__(self):
        if not self.elements:
            raise InputError("a permutation group needs at least the identity")
        for p in self.elements:
            if not is_valid_permutation(p, self.degree):
                raise InputError(f"{p!r} is not a permutation of degree {self.degree}")
        if identity_permutation(self.degree) not in self.element_set:
            raise InputError("group is missing the identity permutation")
        if list(self.elements) != sorted(self.element_set):
            raise InputError("group elements must be sorted and duplicate-free")

    @cached_property
    def element_set(self) -> frozenset[Permutation]:
        return frozenset(self.elements)

    @property
    def order(self) -> int:
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)

    def __contains__(self, perm) -> bool:
        return tuple(perm) in self.element_set

    @classmethod
    def trivial(cls, degree: int) -> "PermutationGroup":
        return cls(degree, (identity_permutation(degree),))

    @classmethod
    def from_elements(
        cls,
        degree: int,
        elements: Iterable[Sequence[int]],
        generators: Iterable[Sequence[int]] = (),
    ) -> "PermutationGroup":
        """Build a group from an explicit element set, checking the group laws.

        Closure under composition implies closure under inverse for finite
        permutation sets, so only composition closure is checked; the check
        is quadratic in the element count. Given ``generators`` must
        generate exactly the element set, since orbits are read from them.
        """
        elems = sorted({tuple(p) for p in elements})
        group = cls(degree, tuple(elems), tuple(tuple(p) for p in generators))
        members = group.element_set
        for a in elems:
            for b in elems:
                if compose(a, b) not in members:
                    raise InputError(f"element set is not closed: {a!r} o {b!r} missing")
        if group.generators and (
            not members.issuperset(group.generators)
            or _closure(group.generators, degree, len(elems)) != members
        ):
            raise InputError("generators do not generate the element set")
        return group


def _closure(
    generators: Sequence[Permutation], degree: int, cap: int
) -> set[Permutation]:
    ident = identity_permutation(degree)
    elements = {ident}
    frontier = [ident]
    gens = [g for g in dict.fromkeys(generators) if g != ident]
    while frontier:
        nxt = []
        for x in frontier:
            for g in gens:
                y = compose(g, x)
                if y not in elements:
                    if len(elements) >= cap:
                        raise CapExceededError(
                            f"group closure exceeds cap of {cap} elements"
                        )
                    elements.add(y)
                    nxt.append(y)
        frontier = nxt
    return elements


def _checked_generators(
    generators: Iterable[Sequence[int]], degree: int | None
) -> tuple[list[Permutation], int]:
    """Generators as tuples plus their common degree, validated."""
    gens = [tuple(g) for g in generators]
    if gens:
        degree = len(gens[0])
    elif degree is None:
        raise InputError("degree is required to generate a group without generators")
    for g in gens:
        if not is_valid_permutation(g, degree):
            raise InputError(f"{g!r} is not a permutation of degree {degree}")
    return gens, degree


def generate_group(
    generators: Iterable[Sequence[int]],
    cap: int = DEFAULT_GROUP_CAP,
    degree: int | None = None,
) -> PermutationGroup:
    """Smallest group containing ``generators``, computed by closure.

    ``degree`` is only needed when ``generators`` is empty (the trivial
    group). Raises :class:`CapExceededError` if the closure would exceed
    ``cap`` elements.
    """
    gens, degree = _checked_generators(generators, degree)
    elements = _closure(gens, degree, cap)
    ident = identity_permutation(degree)
    kept = tuple(g for g in dict.fromkeys(gens) if g != ident)
    return PermutationGroup(degree, tuple(sorted(elements)), kept)


def generate_group_greedy(
    generators: Iterable[Sequence[int]],
    cap: int,
    degree: int | None = None,
) -> PermutationGroup:
    """Closure of the largest prefix-respecting subset of ``generators`` that
    stays within ``cap`` elements.

    Generators whose inclusion would push the closure past the cap are
    skipped; the result is always a genuine subgroup. Deterministic for a
    fixed generator order.
    """
    gens, degree = _checked_generators(generators, degree)
    accepted: list[Permutation] = []
    for g in gens:
        try:
            _closure(accepted + [g], degree, cap)
        except CapExceededError:
            continue
        accepted.append(g)
    return generate_group(accepted, cap, degree)


def _reduce_generators(elements: Sequence[Permutation], degree: int) -> tuple[Permutation, ...]:
    """Greedy small generating set for an enumerated group."""
    ident = identity_permutation(degree)
    gens: list[Permutation] = []
    have: set[Permutation] = {ident}
    for p in sorted(elements):
        if p in have:
            continue
        gens.append(p)
        have = _closure(gens, degree, cap=len(elements) + 1)
    return tuple(gens)


def automorphism_group(
    graph: Graph,
    vertex_cap: int = DEFAULT_VERTEX_CAP,
    element_cap: int = DEFAULT_GROUP_CAP,
) -> PermutationGroup:
    """Full automorphism group of ``graph`` by pruned backtracking search.

    Vertices may only map to vertices with the same invariant profile
    (degree, sorted distance row, sorted neighbour degrees), and partial
    assignments must preserve all pairwise distances, which for complete
    assignments is equivalent to preserving adjacency and non-adjacency.

    Raises :class:`CapExceededError` when the graph has more than
    ``vertex_cap`` vertices (callers may fall back to lifted generators) or
    when more than ``element_cap`` automorphisms exist.
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

    found: list[Permutation] = []
    image = [-1] * n
    used = [False] * n

    def extend(k: int) -> None:
        if k == n:
            found.append(tuple(image))
            if len(found) > element_cap:
                raise CapExceededError(
                    f"automorphism group exceeds cap of {element_cap} elements"
                )
            return
        v = order[k]
        dv = dist[v]
        for w in candidates[v]:
            if used[w]:
                continue
            dw = dist[w]
            if all(dv[order[j]] == dw[image[order[j]]] for j in range(k)):
                image[v] = w
                used[w] = True
                extend(k + 1)
                used[w] = False
                image[v] = -1

    extend(0)
    elements = tuple(sorted(found))
    gens = _reduce_generators(elements, n) if len(elements) <= 5000 else ()
    return PermutationGroup(n, elements, gens)


# ---------------------------------------------------------------------------
# Orbits, stabilisers, transporters


@dataclass(frozen=True)
class OrbitPartition:
    orbit_index: tuple[int, ...]
    orbits: tuple[tuple[int, ...], ...]

    @property
    def count(self) -> int:
        return len(self.orbits)


def orbits(group: PermutationGroup) -> OrbitPartition:
    """Orbit partition of ``0 .. degree - 1`` under ``group``.

    Computed by reachability over the group's generators, or over its
    elements when it keeps no generators.
    """
    gens = group.generators or group.elements
    orbit_index = [-1] * group.degree
    orbit_lists: list[tuple[int, ...]] = []
    for v in range(group.degree):
        if orbit_index[v] != -1:
            continue
        oid = len(orbit_lists)
        seen = {v}
        queue = deque([v])
        while queue:
            x = queue.popleft()
            for g in gens:
                y = g[x]
                if y not in seen:
                    seen.add(y)
                    queue.append(y)
        members = sorted(seen)
        for m in members:
            orbit_index[m] = oid
        orbit_lists.append(tuple(members))
    return OrbitPartition(tuple(orbit_index), tuple(orbit_lists))


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
    """Orbits of ordered index pairs under the group generated by ``perms``."""
    orbit_of = [[-1] * degree for _ in range(degree)]
    out: list[list[tuple[int, int]]] = []
    for i in range(degree):
        for j in range(degree):
            if orbit_of[i][j] != -1:
                continue
            oid = len(out)
            orbit_of[i][j] = oid
            members = [(i, j)]
            queue = deque([(i, j)])
            while queue:
                a, b = queue.popleft()
                for p in perms:
                    c, d = p[a], p[b]
                    if orbit_of[c][d] == -1:
                        orbit_of[c][d] = oid
                        members.append((c, d))
                        queue.append((c, d))
            out.append(members)
    return out


# ---------------------------------------------------------------------------
# Lifting secret-graph symmetry to the database adjacency graph


def lift_policy_automorphisms(
    policy: "BlowfishPolicy",
    adjacency: "AdjacencyGraph",
    secret_vertex_cap: int = DEFAULT_VERTEX_CAP,
    element_cap: int = DEFAULT_GROUP_CAP,
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
    labels = policy.secret_graph.universe.labels
    label_index = {lab: i for i, lab in enumerate(labels)}
    secret = Graph.from_edges(
        len(labels),
        [(label_index[a], label_index[b]) for a, b in policy.secret_graph.edges],
    )
    secret_aut = automorphism_group(secret, vertex_cap=secret_vertex_cap, element_cap=element_cap)

    vertices = adjacency.vertices
    if len(vertices) != len(labels) ** policy.n:
        raise InputError(
            "adjacency graph does not cover the policy's full database set"
        )
    index_of = {db: k for k, db in enumerate(vertices)}
    n = policy.n
    ident_secret = identity_permutation(len(labels))

    secret_gens = secret_aut.generators or secret_aut.elements
    gens: list[Permutation] = []
    for record in range(n):
        for phi in secret_gens:
            if phi == ident_secret:
                continue
            mapped = []
            for db in vertices:
                image_db = (
                    db[:record]
                    + (labels[phi[label_index[db[record]]]],)
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
