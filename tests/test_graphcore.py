import hashlib
import os
import random
import subprocess
import sys
import time
import tracemalloc
from itertools import combinations
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from blowfish_privacy import (
    CapExceededError,
    Graph,
    InputError,
    PermutationGroup,
    UnsupportedLiftError,
    automorphism_group,
    complete_policy,
    components_and_diameters,
    compose,
    distance_threshold_policy,
    distances,
    enumerate_permissible,
    generate_group,
    induce_adjacency_graph,
    lift_policy_automorphisms,
    orbits,
    stabiliser,
    transporter,
)
from blowfish_privacy import graphcore
from blowfish_privacy.adjacency import AdjacencyGraph
from blowfish_privacy.graphcore import (
    UNREACHABLE,
    identity_permutation,
    is_automorphism,
    pair_orbits,
)

from helpers import (
    SRC,
    components_from_distances,
    graphs,
    invert,
    oracle_automorphisms,
    oracle_components,
    oracle_distances,
    oracle_elements,
    oracle_orbits,
    oracle_pair_orbits,
    permutation_sets,
    recursive_automorphism_generators,
    sparse_graphs,
)


def path_graph(n):
    return Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n):
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def complete_graph(n):
    return Graph.from_edges(n, combinations(range(n), 2))


# ---------------------------------------------------------------------------
# Graphs


def test_graph_rejects_self_loop():
    with pytest.raises(InputError):
        Graph.from_edges(3, [(1, 1)])


def test_distances_path():
    d = distances(path_graph(3))
    assert d[0][2] == 2 and d[2][0] == 2
    assert all(d[i][i] == 0 for i in range(3))


def test_distances_disconnected():
    d = distances(Graph.from_edges(2, []))
    assert d[0][1] == UNREACHABLE


def test_distances_cycle_six():
    d = distances(cycle_graph(6))
    assert max(max(row) for row in d) == 3


def test_components_path_four():
    comps = components_and_diameters(path_graph(4))
    assert comps.count == 1
    assert comps.diameters == (3,)


def test_components_edgeless():
    comps = components_and_diameters(Graph.from_edges(3, []))
    assert comps.count == 3
    assert comps.diameters == (0, 0, 0)


@settings(max_examples=80)
@given(graphs(max_vertices=9))
def test_components_match_bfs_floyd_warshall_oracle(graph):
    comps = components_and_diameters(graph)
    assert (comps.count, comps.assignment, comps.diameters) == oracle_components(graph)


def check_traversal(graph):
    """Distances against the queue-BFS oracle, value and dtype, and components
    against Floyd-Warshall where it is quick, else against the oracle's table."""
    dist = distances(graph)
    expected = oracle_distances(graph)
    assert dist.dtype == np.min_scalar_type(-graph.vertex_count)
    assert dist.tolist() == expected
    comps = tuple(components_and_diameters(graph))
    assert comps == components_from_distances(expected)
    if graph.vertex_count <= 30:
        assert comps == oracle_components(graph)


@settings(max_examples=60, deadline=None)
@given(sparse_graphs())
@example(Graph.from_edges(1, []))
@example(Graph.from_edges(70, [(0, 69), (3, 4)]))
def test_traversal_matches_oracles_property(graph):
    check_traversal(graph)


def pieces_graph(n):
    """A cycle on the first third, a path on the rest but the last vertex,
    and the last vertex isolated (as many pieces as ``n`` allows)."""
    third = n // 3
    cycle = [(i, (i + 1) % third) for i in range(third)] if third >= 3 else []
    path = [(i, i + 1) for i in range(third, n - 2)]
    return Graph.from_edges(n, cycle + path)


# Bitset byte and 30-bit digit edges, the int8/int16 switch at 129 vertices,
# and at 300 vertices more than one block of rows per unpack.
@pytest.mark.parametrize("n", [1, 63, 64, 65, 129, 300])
@pytest.mark.parametrize("shape", [path_graph, pieces_graph])
def test_traversal_matches_oracles_at_word_and_block_edges(n, shape):
    check_traversal(shape(n))


@pytest.mark.parametrize("n", [64, 129, 300])
@pytest.mark.parametrize("shape", [path_graph, pieces_graph])
def test_traversal_matches_oracles_across_source_blocks(monkeypatch, n, shape):
    """Narrow source and row blocks, whose last ones are partial."""
    monkeypatch.setattr(graphcore, "_SOURCE_BLOCK", 48)
    monkeypatch.setattr(graphcore, "_UNPACK_CELLS", 700)
    check_traversal(shape(n))


@settings(max_examples=60, deadline=None)
@given(sparse_graphs(max_vertices=70), st.integers(1, 20))
@example(Graph.from_edges(7, [(0, 6), (2, 3)]), 2)
def test_components_match_oracles_across_source_blocks(graph, block):
    """Blocks of a few sources, the last one part-full, and components whose
    smallest vertex lies in a later block than other components' members."""
    with mock.patch.object(graphcore, "_SOURCE_BLOCK", block):
        comps = tuple(components_and_diameters(graph))
    assert comps == components_from_distances(oracle_distances(graph))
    if graph.vertex_count <= 30:
        assert comps == oracle_components(graph)


def test_components_and_diameters_memory_grows_with_the_source_block():
    """At n = 6 (4,096 vertices) the traversal holds three lists of 4,096
    bitsets of at most 2,048 bits, about 3.5 MiB, where one traversal from
    all 4,096 sources at once would hold 6.8 MiB."""
    policy = distance_threshold_policy([1, 2, 3, 4], 1, n=6)
    graph = induce_adjacency_graph(policy).to_graph()
    graph.neighbors  # cached on the graph, outside the measurement
    tracemalloc.start()
    try:
        comps = components_and_diameters(graph)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (comps.count, comps.diameters) == (1, (18,))
    assert peak < 4 * 2**20


def test_components_and_diameters_import_no_numpy():
    """The bound path reads components without building an array."""
    script = (
        "import sys\n"
        "from blowfish_privacy import Graph, components_and_diameters\n"
        "edges = [(i, i + 1) for i in range(149)]\n"
        "edges += [(150 + i, 150 + (i + 1) % 149) for i in range(149)]\n"
        "comps = components_and_diameters(Graph.from_edges(300, edges))\n"
        "print(comps.count, comps.diameters, 'numpy' in sys.modules)\n"
    )
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", script], env={**os.environ, "PYTHONPATH": path},
        capture_output=True, text=True, timeout=120, check=True,
    )
    assert done.stdout.split("\n")[0] == "3 (149, 74, 0) False"


def test_distances_peak_memory_is_the_result_and_a_block():
    """At n = 5 (1,024 vertices), the traversal's bitsets and one block of
    unpacked rows stay below 1 MiB beside the 2 MiB int16 result."""
    policy = distance_threshold_policy([1, 2, 3, 4], 1, n=5)
    graph = induce_adjacency_graph(policy).to_graph()
    distances(path_graph(2))  # numpy's first use, which imports and binds it
    tracemalloc.start()
    try:
        dist = distances(graph)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert dist.shape == (1024, 1024) and dist.dtype == np.int16
    assert peak < dist.nbytes + 2**20


@settings(max_examples=100, deadline=None)
@given(st.one_of(graphs(max_vertices=9), sparse_graphs(max_vertices=60)))
def test_distance_lists_equal_the_oracle(graph):
    assert graphcore.distance_lists(graph) == oracle_distances(graph)


def test_distance_blocks_are_the_rows_of_distances_one_block_alive(monkeypatch):
    """n = 5 (1,024 vertices) in blocks of 512 sources, 1 MiB of int16 each:
    the stacked blocks are the distances, and the generator keeps no block
    alive while it fills the next, so the peak stays below two blocks."""
    policy = distance_threshold_policy([1, 2, 3, 4], 1, n=5)
    graph = induce_adjacency_graph(policy).to_graph()
    monkeypatch.setattr(graphcore, "_SOURCE_BLOCK", 512)
    blocks = list(graphcore.distance_blocks(graph))
    assert [block.shape for block in blocks] == [(512, 1024)] * 2
    assert np.array_equal(np.concatenate(blocks), distances(graph))
    block_bytes = blocks[0].nbytes
    del blocks
    tracemalloc.start()
    try:
        for block in graphcore.distance_blocks(graph):
            del block
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * block_bytes


# ---------------------------------------------------------------------------
# Permutations and groups


def test_compose_convention():
    sigma = (1, 2, 0)
    gamma = (0, 2, 1)
    composed = compose(sigma, gamma)
    assert all(composed[i] == sigma[gamma[i]] for i in range(3))
    assert compose(sigma, invert(sigma)) == identity_permutation(3)


def test_generate_group_empty_is_trivial():
    group = generate_group([], degree=3)
    assert group.elements == (identity_permutation(3),)


def test_generate_group_involution():
    group = generate_group([(2, 1, 0)])
    assert group.order == 2


def test_generate_group_symmetric_three():
    group = generate_group([(1, 2, 0), (1, 0, 2)])
    assert group.order == 6
    assert set(group.elements) == oracle_automorphisms(Graph.from_edges(3, []))


def test_generate_group_cap():
    with pytest.raises(CapExceededError):
        generate_group([(1, 2, 0), (1, 0, 2)], cap=3)


def test_group_is_the_closure_of_its_generators():
    # a 3-cycle generates a group of order 3, whose single orbit is everything
    group = PermutationGroup(3, [(1, 2, 0)])
    assert group.order == 3
    assert orbits(group) == oracle_orbits(group)
    assert orbits(group).orbits == ((0, 1, 2),)
    # duplicates and the identity are dropped from the generating set
    assert PermutationGroup(3, [(1, 2, 0), (0, 1, 2), (1, 2, 0)]).generators == ((1, 2, 0),)
    for bad in ([(1, 0)], [(0, 1, 2, 3)], [(0, 0, 1)]):
        with pytest.raises(InputError):
            PermutationGroup(3, bad)


def test_group_enumeration_respects_cap():
    group = PermutationGroup(3, [(1, 2, 0), (1, 0, 2)], cap=5)
    assert orbits(group).orbits == ((0, 1, 2),)  # orbits need no enumeration
    with pytest.raises(CapExceededError):
        group.order


@settings(max_examples=60)
@given(permutation_sets())
@example((3, []))
@example((3, [(0, 1, 2)]))
def test_stabiliser_chain_matches_closure_oracle(data):
    degree, perms = data
    group = PermutationGroup(degree, perms)
    closure = oracle_elements(degree, perms)
    assert group.order == len(closure)
    assert group.elements == tuple(sorted(closure))
    chain = group.chain
    for i, (point, transversal) in enumerate(zip(chain.base, chain.transversals)):
        assert list(transversal[0]) == list(identity_permutation(degree))
        images = [u[point] for u in transversal]
        assert len(set(images)) == len(images)
        fixed = list(chain.base[:i])
        assert [[u[f] for f in fixed] for u in transversal] == [fixed] * len(transversal)


def test_lifted_wreath_order_comes_from_the_chain():
    pol = complete_policy(3, n=6)
    gens = lift_policy_automorphisms(pol, induce_adjacency_graph(pol))
    # S3 wr S6 on the 729 databases has order (3!)^6 * 6!
    assert PermutationGroup(729, gens, cap=10**8).order == 6**6 * 720 == 33_592_320
    capped = PermutationGroup(729, gens)
    start = time.perf_counter()
    with pytest.raises(CapExceededError):
        capped.order
    assert time.perf_counter() - start < 2.0
    assert "elements" not in vars(capped)


def test_automorphism_group_path_three():
    group = automorphism_group(path_graph(3))
    assert set(group.elements) == {(0, 1, 2), (2, 1, 0)}


def test_automorphism_group_complete_four():
    assert automorphism_group(complete_graph(4)).order == 24


def test_automorphism_group_cycle_five_dihedral():
    assert automorphism_group(cycle_graph(5)).order == 10


def test_automorphism_group_path_seven_brute_force():
    graph = path_graph(7)
    group = automorphism_group(graph)
    assert set(group.elements) == oracle_automorphisms(graph)


def test_automorphism_search_reaches_past_the_recursion_limit():
    """600 levels deep: a search with a Python frame per level would raise
    RecursionError."""
    graph = path_graph(600)
    group = automorphism_group(graph, vertex_cap=600)
    assert group.order == 2
    assert group.generators == (tuple(reversed(range(600))),)


@settings(max_examples=60)
@given(graphs(max_vertices=7))
def test_automorphism_generators_equal_the_recursive_search(graph):
    assert automorphism_group(graph).generators == recursive_automorphism_generators(graph)


def test_automorphism_vertex_cap():
    with pytest.raises(CapExceededError):
        automorphism_group(path_graph(20), vertex_cap=16)


def test_automorphism_element_cap():
    group = automorphism_group(Graph.from_edges(8, []), element_cap=100)
    with pytest.raises(CapExceededError):
        group.order


def test_automorphism_generator_counts():
    assert len(automorphism_group(complete_graph(3)).generators) == 2
    assert len(automorphism_group(Graph.from_edges(8, [])).generators) == 7
    k4_pairs = induce_adjacency_graph(complete_policy(4, n=2)).to_graph()
    assert len(automorphism_group(k4_pairs).generators) == 6


@settings(max_examples=40)
@given(graphs(max_vertices=6))
def test_automorphism_group_equals_brute_force(graph):
    group = automorphism_group(graph)
    assert set(group.elements) == oracle_automorphisms(graph)
    for perm in group.elements:
        assert is_automorphism(graph, perm)


@settings(max_examples=40)
@given(graphs(max_vertices=7))
def test_automorphism_generators_generate_the_full_group(graph):
    group = automorphism_group(graph)
    closure = generate_group(group.generators, degree=graph.vertex_count)
    assert set(closure.elements) == oracle_automorphisms(graph)


def test_orbits_examples():
    p3 = automorphism_group(path_graph(3))
    assert orbits(p3).orbits == ((0, 2), (1,))
    trivial = PermutationGroup(4)
    assert orbits(trivial).orbits == ((0,), (1,), (2,), (3,))
    k4 = automorphism_group(complete_graph(4))
    assert orbits(k4).orbits == ((0, 1, 2, 3),)


def test_transporter_examples():
    p3 = automorphism_group(path_graph(3))
    assert transporter(p3, 0, 2) == ((2, 1, 0),)
    assert transporter(p3, 0, 1) == ()
    assert transporter(p3, 0, 0) == stabiliser(p3, 0)
    k4 = automorphism_group(complete_graph(4))
    for u in range(4):
        for v in range(4):
            assert len(transporter(k4, u, v)) == 24 // 4


@settings(max_examples=30)
@given(graphs(min_vertices=2, max_vertices=6))
def test_coset_and_size_laws(graph):
    group = automorphism_group(graph)
    orbit_partition = orbits(group)
    for u in range(graph.vertex_count):
        stab_u = set(stabiliser(group, u))
        orbit_size = len(orbit_partition.orbits[orbit_partition.orbit_index[u]])
        assert len(stab_u) * orbit_size == group.order
        for v in range(graph.vertex_count):
            trans = set(transporter(group, u, v))
            if not trans:
                continue
            sigma = next(iter(trans))
            stab_v = set(stabiliser(group, v))
            assert trans == {compose(sigma, g) for g in stab_u}
            assert trans == {compose(g, sigma) for g in stab_v}
            assert len(trans) == len(stab_u) == len(stab_v)
            assert len(trans) == group.order // orbit_size


@settings(max_examples=30)
@given(graphs(max_vertices=6))
def test_orbits_match_generator_reachability(graph):
    group = automorphism_group(graph)
    assert orbits(group) == oracle_orbits(group)


@settings(max_examples=40)
@given(permutation_sets())
def test_generated_group_orbits_match_raw_generators(data):
    degree, perms = data
    group = generate_group(perms, degree=degree)
    assert orbits(group) == oracle_orbits(group)


@settings(max_examples=40)
@given(permutation_sets())
def test_pair_orbits_match_element_enumeration(data):
    degree, perms = data
    group = generate_group(perms, degree=degree)
    # orbits by smallest pair, members in increasing order
    expected = sorted(sorted(orbit) for orbit in oracle_pair_orbits(group))
    assert pair_orbits(perms, degree) == expected


def test_pair_orbits_path_three():
    result = pair_orbits([(2, 1, 0)], 3)
    as_sets = [frozenset(orbit) for orbit in result]
    assert frozenset({(0, 0), (2, 2)}) in as_sets
    assert frozenset({(1, 1)}) in as_sets
    assert frozenset({(0, 2), (2, 0)}) in as_sets


# ---------------------------------------------------------------------------
# Lifting


def test_lift_path_policy():
    pol = distance_threshold_policy([1, 2, 3, 4], 1, n=2)
    ag = induce_adjacency_graph(pol)
    gens = lift_policy_automorphisms(pol, ag)
    graph = ag.to_graph()
    for perm in gens:
        assert is_automorphism(graph, perm)
    lifted = generate_group(gens)
    full = automorphism_group(graph)
    assert full.order % lifted.order == 0
    assert lifted.order == 8


def test_lift_includes_index_swap():
    pol = complete_policy(3, n=2)
    ag = induce_adjacency_graph(pol)
    gens = lift_policy_automorphisms(pol, ag)
    swap = tuple(ag.vertices.index((b, a)) for a, b in ag.vertices)
    assert swap in gens
    assert generate_group(gens).order == 6 * 6 * 2


def test_lift_generator_count():
    pol = complete_policy(3, n=4)
    # two generators of S3 per record, plus three adjacent record swaps
    assert len(lift_policy_automorphisms(pol, induce_adjacency_graph(pol))) == 11


# SHA-256 of repr() of the 11 generators lifted from complete m = 3, n = 4 in
# canonical order: per record, S3's two generators; then the three swaps.
COMPLETE_3_4_GENERATORS = "2ed81c9d8343a55e7603027a2ef3534e15599c74cb81367559ee354b8c4b2f64"


def shuffled(adjacency, seed):
    """``adjacency`` with its vertices listed in a seeded random order, and
    that order: new vertex ``k`` is old vertex ``order[k]``."""
    order = list(range(len(adjacency.vertices)))
    random.Random(seed).shuffle(order)
    new = invert(order)
    edges = [(new[a], new[b]) for a, b in adjacency.edges]
    graph = Graph.from_edges(len(order), edges)
    return AdjacencyGraph(tuple(adjacency.vertices[k] for k in order), graph.edges), order


def test_lifted_generators_are_pinned_and_follow_any_vertex_order():
    pol = complete_policy(3, n=4)
    canonical = induce_adjacency_graph(pol)
    gens = lift_policy_automorphisms(pol, canonical)
    assert len(gens) == 11
    assert hashlib.sha256(repr(gens).encode()).hexdigest() == COMPLETE_3_4_GENERATORS
    assert generate_group(gens, degree=81).order == 31_104  # (3!)^4 * 4!
    for seed in range(3):
        listed, order = shuffled(canonical, seed)
        new = invert(order)
        conjugated = tuple(tuple(new[g[k]] for k in order) for g in gens)
        assert lift_policy_automorphisms(pol, listed) == conjugated


COVER_CASES = {  # a change to the last of the 81 canonical databases
    "duplicated": lambda dbs: dbs[:-1] + dbs[:1],
    "missing": lambda dbs: dbs[:-1],
    "foreign_label": lambda dbs: dbs[:-1] + (("3", "3", "3", "4"),),
    "short": lambda dbs: dbs[:-1] + (("3", "3", "3"),),
    "extra": lambda dbs: dbs + (("3", "3", "3", "4"),),
}


@pytest.mark.parametrize("case", sorted(COVER_CASES))
def test_lift_refuses_a_vertex_list_that_is_not_the_database_set(case):
    pol = complete_policy(3, n=4)
    vertices = COVER_CASES[case](enumerate_permissible(pol))
    with pytest.raises(
        InputError, match="^adjacency graph does not cover the policy's full database set$"
    ):
        lift_policy_automorphisms(pol, AdjacencyGraph(vertices, frozenset()))


def test_lift_rejects_constrained():
    pol = complete_policy(2, n=1, permissible=[("1",), ("2",)])
    ag = induce_adjacency_graph(pol)
    with pytest.raises(UnsupportedLiftError):
        lift_policy_automorphisms(pol, ag)
