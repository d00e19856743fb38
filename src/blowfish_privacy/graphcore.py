"""Undirected-graph and permutation-group machinery.

Graphs are immutable, index-based simple graphs. Permutations use one-line
notation: ``perm[i]`` is the image of point ``i``. Composition is
``compose(sigma, gamma)[i] == sigma[gamma[i]]``, i.e. ``gamma`` acts first;
this convention is used everywhere (cosets are order-sensitive).
"""

from __future__ import annotations

import math
from functools import cached_property
from operator import itemgetter, mul
from typing import Iterable, Iterator, NamedTuple, Sequence, TYPE_CHECKING

from ._frozen import Frozen, Value
from ._numpy import np
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


class Graph(Value):
    """Simple undirected graph on vertices ``0 .. vertex_count - 1``."""

    vertex_count: int
    edges: frozenset[tuple[int, int]]

    def __init__(self, vertex_count: int, edges: frozenset[tuple[int, int]]):
        if vertex_count < 1:
            raise InputError("graph needs at least one vertex")
        for a, b in edges:
            if not (0 <= a < b < vertex_count):
                raise InputError(
                    f"edge ({a}, {b}) is not a sorted pair of distinct vertex indices"
                    f" in 0..{vertex_count - 1}"
                )
        self._set(vertex_count=vertex_count, edges=edges)

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
    def neighbors(self) -> tuple[tuple[int, ...], ...]:
        """Each vertex's neighbours, ascending."""
        adj: list[list[int]] = [[] for _ in range(self.vertex_count)]
        for a, b in sorted(self.edges):
            adj[a].append(b)
            adj[b].append(a)
        return tuple(map(tuple, adj))

    @property
    def edge_count(self) -> int:
        return len(self.edges)


def _levels(graph: Graph, sources: range) -> Iterator[tuple[list[int], list[int]]]:
    """Breadth-first search from every vertex of ``sources`` at once, over
    bitsets of sources.

    The multi-source BFS of Then et al., "The More the Merrier: Efficient
    Multi-Source Graph Traversal", PVLDB 8(4), 2014, with Python ints as
    bitsets: bit ``k`` stands for source ``sources[k]``. Yields ``(new,
    seen)`` for levels 0, 1, 2, ... while some source still spreads. Bit
    ``k`` of ``new[v]`` is set iff ``v`` is exactly the level's hop count
    from ``sources[k]``; ``seen[v]`` is the OR of the levels so far, one list
    updated in place between yields. A level's ``new[v]`` is the OR of the
    previous level's bitsets over ``v``'s neighbours, minus ``seen[v]``. The
    state is three lists of ``vertex_count`` bitsets of ``len(sources)`` bits.
    """
    adj = graph.neighbors
    seen = [0] * graph.vertex_count
    for k, s in enumerate(sources):
        seen[s] = 1 << k
    new = seen[:]
    while any(new):
        yield new, seen
        frontier, new = new, []
        for v, ws in enumerate(adj):
            reached = 0
            for w in ws:
                reached |= frontier[w]
            if reached:
                reached &= ~seen[v]
                seen[v] |= reached
            new.append(reached)


# Sources per traversal in :func:`distances` and :func:`distance_blocks`. A
# bitset of 2,048 bits is a 300-byte int, which Python allocates from its
# small-object arenas and returns to the system once the traversal ends; a
# wider one comes from malloc, whose freed heap stays resident (7 MB at 4,096
# vertices). A traversal costs about the same whatever its width, so a
# narrower block multiplies the traversals: 256 sources take twice as long
# at 4,096 vertices.
_SOURCE_BLOCK = 2048
# Distance cells unpacked per block of vertices (bounds the unpack's temporaries).
_UNPACK_CELLS = 1 << 16


def _fill_from(graph: Graph, sources: range, out: np.ndarray) -> np.ndarray:
    """Write the hop counts from ``sources[k]`` into row ``k`` of ``out``,
    which holds ``UNREACHABLE`` everywhere, and return ``out``.

    One :func:`_levels` traversal; each level is unpacked a block of
    vertices at a time into those vertices' columns. Besides ``out``, the
    traversal holds three lists of V bitsets of ``len(sources)`` bits, and
    no other temporary holds more than ``_UNPACK_CELLS`` bytes.
    """
    n = graph.vertex_count
    width = (len(sources) + 7) // 8
    step = max(1, _UNPACK_CELLS // len(sources))
    for level, (new, _) in enumerate(_levels(graph, sources)):
        for v in range(0, n, step):
            block = new[v : v + step]
            if not any(block):
                continue
            packed = b"".join([bits.to_bytes(width, "little") for bits in block])
            reached = np.unpackbits(
                np.frombuffer(packed, np.uint8).reshape(len(block), width),
                axis=1, count=len(sources), bitorder="little",
            )
            np.copyto(out[:, v : v + step], level, where=reached.view(bool).T)
    return out


def distances(graph: Graph) -> np.ndarray:
    """All-pairs hop counts, ``UNREACHABLE`` across components, as a V x V
    array of the smallest signed dtype that holds ``UNREACHABLE`` and every
    hop count (at most V - 1).

    Each block of ``_SOURCE_BLOCK`` sources fills its rows of the result
    by one traversal (:func:`_fill_from`); undirected hop counts are
    symmetric, so row ``s`` holds the counts from ``s``.
    """
    n = graph.vertex_count
    out = np.full((n, n), UNREACHABLE, dtype=np.min_scalar_type(-n))
    for lo in range(0, n, _SOURCE_BLOCK):
        _fill_from(graph, range(lo, min(n, lo + _SOURCE_BLOCK)), out[lo : lo + _SOURCE_BLOCK])
    return out


def distance_lists(graph: Graph) -> list[list[int]]:
    """The rows of :func:`distances` as lists of ints, from one
    :func:`_levels` traversal of every source, with no array and no numpy.

    Each level's bitsets are unpacked a set bit at a time, so the work is
    one step per reachable pair: meant for graphs small enough that this
    costs less than importing numpy.
    """
    n = graph.vertex_count
    out = [[UNREACHABLE] * n for _ in range(n)]
    for level, (new, _) in enumerate(_levels(graph, range(n))):
        for v, bits in enumerate(new):
            while bits:
                low = bits & -bits
                out[low.bit_length() - 1][v] = level
                bits ^= low
    return out


def distance_blocks(graph: Graph) -> Iterator[np.ndarray]:
    """The rows of :func:`distances`, a block of ``_SOURCE_BLOCK`` sources
    at a time, each block a new array of at most ``_SOURCE_BLOCK`` x V
    cells of the same dtype, so that no V x V array is built."""
    n = graph.vertex_count
    for lo in range(0, n, _SOURCE_BLOCK):
        sources = range(lo, min(n, lo + _SOURCE_BLOCK))
        # Passed out unnamed: no name here keeps the block alive beside the next.
        yield _fill_from(
            graph, sources, np.full((len(sources), n), UNREACHABLE, dtype=np.min_scalar_type(-n))
        )


class Components(NamedTuple):
    count: int
    assignment: tuple[int, ...]
    diameters: tuple[int, ...]


def components_and_diameters(graph: Graph) -> Components:
    """Connected components and per-component diameters (isolated vertex: 0).

    One :func:`_levels` traversal per block of ``_SOURCE_BLOCK`` sources, as
    in :func:`distances`, with no array and no numpy. A vertex's component
    is keyed by its smallest member: the lowest set bit of its final
    ``seen`` bitset in the first block that reaches it. Its eccentricity is
    the last level, over all blocks, that reached it, and a component's
    diameter is its members' largest eccentricity. Components are numbered
    in the order of their smallest vertices. The traversal holds three
    lists of V bitsets of at most ``_SOURCE_BLOCK`` bits, so memory grows as
    V, not V squared.
    """
    n = graph.vertex_count
    smallest = [-1] * n
    eccentricity = [0] * n
    for lo in range(0, n, _SOURCE_BLOCK):
        for level, (new, seen) in enumerate(_levels(graph, range(lo, min(n, lo + _SOURCE_BLOCK)))):
            for v, bits in enumerate(new):
                if bits and level > eccentricity[v]:
                    eccentricity[v] = level
        for v, bits in enumerate(seen):
            if bits and smallest[v] < 0:
                smallest[v] = lo + (bits & -bits).bit_length() - 1
    number: dict[int, int] = {}
    assignment = tuple(number.setdefault(s, len(number)) for s in smallest)
    diameters = [0] * len(number)
    for c, e in zip(assignment, eccentricity):
        diameters[c] = max(diameters[c], e)
    return Components(len(number), assignment, tuple(diameters))


# ---------------------------------------------------------------------------
# Permutations


def identity_permutation(degree: int) -> Permutation:
    return tuple(range(degree))


def compose(sigma: Permutation, gamma: Permutation) -> Permutation:
    """Composition sigma after gamma: ``compose(s, g)[i] == s[g[i]]``, by one
    ``itemgetter`` gather."""
    if len(gamma) < 2:  # itemgetter of one item returns it bare
        return tuple(sigma[g] for g in gamma)
    return itemgetter(*gamma)(sigma)


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


class StabiliserChain(NamedTuple):
    """Base and transversals of a permutation group.

    ``transversals[i]`` holds one element per point of the orbit of
    ``base[i]`` under the pointwise stabiliser of ``base[:i]``, identity
    first, each a tuple in one-line notation; element ``u`` maps ``base[i]``
    to its orbit point. Every group element factors uniquely as
    ``u_0 ∘ u_1 ∘ … ∘ u_k`` with ``u_i`` in ``transversals[i]``, so the
    order is the product of their lengths.
    """

    base: tuple[int, ...]
    transversals: tuple[tuple[Permutation, ...], ...]

    @property
    def order(self) -> int:
        return math.prod(len(u) for u in self.transversals)


def _inverse(perm: Permutation) -> Permutation:
    inverse = [0] * len(perm)
    for i, image in enumerate(perm):
        inverse[image] = i
    return tuple(inverse)


class _Level:
    """One level of a chain under construction: its base point, the strong
    generators fixing the earlier base points, and the orbit transversal.

    The orbit only ever grows by appending, so the transversal element of a
    point never changes once found; ``tested[g]`` counts the orbit points
    whose Schreier generators with ``gens[g]`` have been sifted to identity.
    """

    def __init__(self, point: int, degree: int):
        self.point = point
        self.gens: list[Permutation] = []
        self.tested: list[int] = []
        self.position = [-1] * degree
        self.position[point] = 0
        self.orbit = [point]
        ident = identity_permutation(degree)
        self.rows, self.inverse_rows = [ident], [ident]

    def add(self, gen: Permutation) -> None:
        """Add a strong generator and extend the orbit breadth-first."""
        self.gens.append(gen)
        self.tested.append(0)
        for k, beta in enumerate(self.orbit):  # grows while it is read: a FIFO queue
            for s in self.gens:
                gamma = s[beta]
                if self.position[gamma] < 0:
                    self.position[gamma] = len(self.orbit)
                    self.orbit.append(gamma)
                    u = compose(s, self.rows[k])
                    self.rows.append(u)
                    self.inverse_rows.append(_inverse(u))


def _first_residue(levels: list[_Level], i: int) -> tuple[Permutation, int] | None:
    """First untested Schreier generator of level ``i`` that does not sift
    to the identity through the deeper levels, as its residue and the level
    it stopped at (``len(levels)`` when it passed them all); ``None`` when
    every Schreier generator of the level sifts.
    """
    level = levels[i]
    ident = level.rows[0]
    for g, s in enumerate(level.gens):
        while level.tested[g] < len(level.orbit):
            su = compose(s, level.rows[level.tested[g]])  # s ∘ u_beta
            h = compose(level.inverse_rows[level.position[su[level.point]]], su)
            for depth in range(i + 1, len(levels)):
                deeper = levels[depth]
                k = deeper.position[h[deeper.point]]
                if k < 0:
                    return h, depth
                h = compose(deeper.inverse_rows[k], h)
            if h != ident:
                return h, len(levels)
            level.tested[g] += 1
    return None


def _schreier_sims(
    generators: Sequence[Permutation], degree: int, cap: int
) -> StabiliserChain:
    """Stabiliser chain of the group generated by ``generators``, none of
    them the identity, by the deterministic Schreier–Sims algorithm (Seress
    2003, ch. 4), over tuples in Python.

    Levels are completed from the deepest up: a level is done when every
    Schreier generator ``u_{s(beta)}^-1 ∘ s ∘ u_beta`` of its orbit sifts to
    the identity through the levels below it. A residue that does not is
    added as a strong generator to every level it reached (with a new base
    point, its first moved point, when it passed them all), and work resumes
    at the deepest of those levels.

    The orbits found so far only grow and multiply to at most the order, so
    :class:`CapExceededError` is raised as soon as their product passes
    ``cap``, which bounds the work and memory of the construction.
    """
    levels: list[_Level] = []

    def add(perm: Permutation, first: int, last: int) -> None:
        """Add ``perm`` to levels ``first .. last``; ``last == len(levels)``
        opens a new level at the first point ``perm`` moves."""
        if last == len(levels):
            levels.append(_Level(next(j for j, x in enumerate(perm) if x != j), degree))
        for level in levels[first : last + 1]:
            level.add(perm)
        if math.prod(len(level.orbit) for level in levels) > cap:
            raise CapExceededError(f"group order exceeds cap of {cap} elements")

    for gen in generators:
        gen = tuple(gen)
        moves = (j for j, level in enumerate(levels) if gen[level.point] != level.point)
        add(gen, 0, next(moves, len(levels)))

    i = len(levels) - 1
    while i >= 0:
        found = _first_residue(levels, i)
        if found is None:
            i -= 1
            continue
        h, j = found
        add(h, i + 1, j)
        i = j
    return StabiliserChain(
        tuple(level.point for level in levels),
        tuple(tuple(level.rows) for level in levels),
    )


class PermutationGroup(Frozen):
    """A permutation group given by its generators.

    The generators are the group's only input: orbits are read from them,
    and everything that needs the whole group reads the stabiliser
    ``chain``, built from them by Schreier–Sims when first needed and
    cached. ``order`` is the product of the chain's transversal sizes, and
    building the chain raises :class:`CapExceededError` once the order is
    known to pass ``cap``, before anything is enumerated. ``elements`` is
    sorted, so any summation over it has a fixed canonical order.
    """

    degree: int
    generators: tuple[Permutation, ...]
    cap: int

    def __init__(
        self,
        degree: int,
        generators: Iterable[Sequence[int]] = (),
        cap: int = DEFAULT_GROUP_CAP,
    ):
        gens = [tuple(g) for g in generators]
        for g in gens:
            if not is_valid_permutation(g, degree):
                raise InputError(f"{g!r} is not a permutation of degree {degree}")
        ident = identity_permutation(degree)
        kept = tuple(g for g in dict.fromkeys(gens) if g != ident)
        self._set(degree=degree, generators=kept, cap=cap)

    @cached_property
    def chain(self) -> StabiliserChain:
        return _schreier_sims(self.generators, self.degree, self.cap)

    @property
    def order(self) -> int:
        return self.chain.order

    @cached_property
    def elements(self) -> tuple[Permutation, ...]:
        """Every element, as the products ``u_0 ∘ … ∘ u_k`` of the chain's
        transversal elements, in lexicographic order."""
        products = [identity_permutation(self.degree)]
        for transversal in reversed(self.chain.transversals):
            products = [compose(u, p) for u in transversal for p in products]
        return tuple(sorted(products))


def generate_group(
    generators: Iterable[Sequence[int]],
    cap: int = DEFAULT_GROUP_CAP,
    degree: int | None = None,
) -> PermutationGroup:
    """Smallest group containing ``generators``, with its stabiliser chain built.

    ``degree`` is only needed when ``generators`` is empty (the trivial
    group). Raises :class:`CapExceededError` if the order exceeds ``cap``;
    the order comes from the stabiliser chain, so no element is enumerated.
    """
    gens = [tuple(g) for g in generators]
    if gens:
        degree = len(gens[0])
    elif degree is None:
        raise InputError("degree is required to generate a group without generators")
    group = PermutationGroup(degree, tuple(gens), cap)
    group.order  # build the chain now, so a cap overflow surfaces here
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
    in the vertex's orbit (its :func:`orbit_minima` label) under the kept
    generators; the kept set then generates each level's pointwise
    stabiliser, hence the whole group.

    Raises :class:`CapExceededError` when the graph has more than
    ``vertex_cap`` vertices (callers may fall back to lifted generators).
    ``element_cap`` is the returned group's cap on its order.
    """
    n = graph.vertex_count
    if n > vertex_cap:
        raise CapExceededError(
            f"automorphism search limited to {vertex_cap} vertices, got {n}"
        )
    dist = distance_lists(graph)
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

    def unassign(k: int) -> None:
        used[image[order[k]]] = False
        image[order[k]] = -1

    def first_completion(k: int, target: int) -> Permutation | None:
        """The first automorphism in search order that maps ``order[k]`` to
        ``target`` and ``order[:k]`` as ``image`` does; ``image`` and ``used``
        are left as found. Depth-first over an explicit stack: ``tries[i]``
        holds the candidates level ``k + i`` has left to try."""
        tries = [iter((target,))]
        while tries:
            level = k + len(tries) - 1
            for w in tries[-1]:
                if fits(level, w):
                    image[order[level]] = w
                    used[w] = True
                    if level + 1 == n:
                        found = tuple(image)
                        for j in range(k, n):
                            unassign(j)
                        return found
                    tries.append(iter(candidates[order[level + 1]]))
                    break
            else:
                tries.pop()
                if tries:
                    unassign(level - 1)
        return None

    gens: list[Permutation] = []
    orbit_of = orbit_minima(gens, n)
    for k in reversed(range(n)):
        v = order[k]
        image[v] = -1
        used[v] = False
        for w in candidates[v]:
            if orbit_of[w] != orbit_of[v]:
                found = first_completion(k, w)
                if found is not None:
                    gens.append(found)
                    orbit_of = orbit_minima(gens, n)
    return PermutationGroup(n, tuple(gens), element_cap)


# ---------------------------------------------------------------------------
# Orbits, stabilisers, transporters


class OrbitPartition(NamedTuple):
    orbit_index: tuple[int, ...]
    orbits: tuple[tuple[int, ...], ...]

    @property
    def count(self) -> int:
        return len(self.orbits)


def orbit_minima(perms: Sequence[Permutation], degree: int, arity: int = 1) -> list[int]:
    """Smallest orbit member of each point (``arity`` 1) or ordered pair
    (``arity`` 2) under the group generated by ``perms``, flat, pair
    ``(a, b)`` being ``a * degree + b``, in Python ints with no numpy.

    Each point in increasing order that no orbit holds yet opens one, which
    is the union of its images under the generators, taken breadth-first
    (a finite group's orbit is closed under forward images alone); the
    point, the first of its orbit seen, is the smallest member and labels
    it. The work is one step per tuple and generator, so this is meant for
    sizes where that costs less than importing numpy (:func:`orbit_labels`).
    """
    label = [-1] * degree**arity
    for x, seen in enumerate(label):
        if seen < 0:
            label[x] = x
            orbit = [x]
            for y in orbit:  # grows while it is read: a FIFO queue
                a, b = divmod(y, degree)  # (0, y) for a point
                for perm in perms:
                    z = perm[a] * degree + perm[b] if arity == 2 else perm[b]
                    if label[z] < 0:
                        label[z] = x
                        orbit.append(z)
    return label


def orbit_labels(perms: Sequence[Permutation], degree: int, arity: int = 1) -> np.ndarray:
    """:func:`orbit_minima` as a numpy array, for the pair orbits of a
    channel too large for it. Each label starts as its own index and takes
    the smallest label one generator step away, forwards or backwards, with
    pointer jumping between rounds, until nothing changes.
    """
    steps = []  # label[np.ix_(q, …, q)][t] is the label of tuple q(t)
    for perm in perms:
        forward = np.asarray(perm, dtype=np.intp)
        backward = np.argsort(forward)
        steps += [np.ix_(*[forward] * arity), np.ix_(*[backward] * arity)]
    size = degree**arity
    dtype = np.int32 if size <= np.iinfo(np.int32).max else np.int64
    label = np.arange(size, dtype=dtype).reshape((degree,) * arity)
    while True:
        before = label
        for step in steps:
            label = np.minimum(label, label[step])
        while True:
            jumped = label.ravel()[label]
            if np.array_equal(jumped, label):
                break
            label = jumped
        if np.array_equal(label, before):
            return label.ravel()


def orbit_slices(label: np.ndarray) -> tuple[np.ndarray, list[int]]:
    """Indices stably sorted by ``label`` and the cuts between orbits: orbit
    ``k`` is ``order[cuts[k]:cuts[k + 1]]``, members increasing, orbits by
    smallest member when the labels come from :func:`orbit_labels`."""
    order = np.argsort(label, kind="stable")
    starts = np.flatnonzero(np.diff(label[order], prepend=-1))
    return order, [*starts.tolist(), len(label)]


def orbits(group: PermutationGroup) -> OrbitPartition:
    """Orbit partition of ``0 .. degree - 1`` under ``group``'s generators,
    from the point labels of :func:`orbit_minima`, by smallest member."""
    label = orbit_minima(group.generators, group.degree)
    number: dict[int, int] = {}
    orbit_index = tuple(number.setdefault(smallest, len(number)) for smallest in label)
    members: list[list[int]] = [[] for _ in number]
    for point, k in enumerate(orbit_index):
        members[k].append(point)
    return OrbitPartition(orbit_index, tuple(map(tuple, members)))


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
    """Orbits of ordered index pairs under the group generated by ``perms``:
    the pair labels of :func:`orbit_minima` grouped into lists of ``(a, b)``
    tuples, orbits by smallest pair, members in increasing order."""
    members: dict[int, list[tuple[int, int]]] = {}
    for pair, label in enumerate(orbit_minima(perms, degree, arity=2)):
        members.setdefault(label, []).append(divmod(pair, degree))
    return list(members.values())


# ---------------------------------------------------------------------------
# Lifting secret-graph symmetry to the database adjacency graph


def record_places(m: int, n: int) -> list[int]:
    """Place values ``m ** (n - 1 - p)``: the canonical order numbers the
    database of label indices ``d_p`` as ``c = sum(d_p * places[p])``, so
    its digit at record ``p`` is ``c // places[p] % m``."""
    return [m ** (n - 1 - p) for p in range(n)]


def lift_policy_automorphisms(
    policy: "BlowfishPolicy",
    adjacency: "AdjacencyGraph",
    vertex_cap: int = DEFAULT_VERTEX_CAP,
) -> tuple[Permutation, ...]:
    """Generators of an automorphism subgroup of the database adjacency graph.

    Two families are lifted, assuming an unconstrained permissible set:
    per-record applications of secret-graph automorphisms (one non-identity
    automorphism applied at one record position), and record-index swaps of
    adjacent positions. Only a generating subset of the secret graph's
    automorphism group is lifted per record; lifting at a fixed record is a
    homomorphism, so the generated subgroup is unchanged. ``adjacency`` must
    list each of the policy's databases exactly once, in any order, or
    :class:`InputError` is raised. Each database is coded once by its
    mixed-radix number ``c`` (:func:`record_places`); a generator is a digit
    map on codes read back through the inverse of the code list: ``phi`` at
    record ``r`` adds ``(phi(d_r) - d_r) * m^(n-1-r)`` to ``c``, and the
    swap of records ``r`` and ``r + 1`` adds ``(d_(r+1) - d_r) *
    (m^(n-1-r) - m^(n-2-r))``. Every returned permutation is verified to
    preserve adjacency on ``adjacency``. The secret graph's automorphisms
    are searched by :func:`automorphism_group` under ``vertex_cap``.
    """
    if not policy.unconstrained:
        raise UnsupportedLiftError(
            "lifting needs an unconstrained permissible set; "
            "use a full automorphism search instead"
        )
    universe = policy.universe
    secret_aut = automorphism_group(policy.secret_graph.index_graph, vertex_cap=vertex_cap)

    vertices = adjacency.vertices
    m, n = len(universe), policy.n
    # Distinct codes of n known labels, m^n of them, are the database set.
    # The per-vertex test runs first, so only known labels are coded and the
    # powers are only taken for an n no longer than a vertex.
    label_set = set(universe.labels)
    codes = None
    if all(len(db) == n and label_set.issuperset(db) for db in vertices):
        places = record_places(m, n)
        codes = [sum(map(mul, map(universe.index, db), places)) for db in vertices]
    if codes is None or len(set(codes)) != len(codes) or len(codes) != m**n:
        raise InputError(
            "adjacency graph does not cover the policy's full database set"
        )
    position = sorted(range(len(codes)), key=codes.__getitem__)  # the vertex of each code
    digits = [[code // place % m for code in codes] for place in places]

    gens: list[Permutation] = []
    for place, at in zip(places, digits):
        for phi in secret_aut.generators:
            gens.append(tuple(position[c + (phi[d] - d) * place] for c, d in zip(codes, at)))
    for r in range(n - 1):  # records r and r + 1 trade digits
        shift, pairs = places[r] - places[r + 1], zip(codes, digits[r], digits[r + 1])
        gens.append(tuple(position[c + (e - d) * shift] for c, d, e in pairs))

    graph = adjacency.to_graph()
    unique = tuple(dict.fromkeys(g for g in gens if g != identity_permutation(len(vertices))))
    for perm in unique:
        if not is_automorphism(graph, perm):
            raise InputError(
                "lifted permutation does not preserve adjacency; "
                "the policy and adjacency graph are inconsistent"
            )
    return unique
