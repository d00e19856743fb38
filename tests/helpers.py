"""Shared strategies and independent oracles for the test suite.

The oracles here are written straight from the definitions with plain
tuples and sets, deliberately not reusing the library's data structures,
so they can arbitrate between the library's optimised code paths.
"""

from itertools import combinations, permutations, product

from hypothesis import strategies as st

from blowfish_privacy import (
    CapExceededError,
    Graph,
    OrbitPartition,
    PermutationGroup,
    custom_policy,
    generate_group,
)


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
            PermutationGroup(degree, tuple(accepted + [g]), cap).elements
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
