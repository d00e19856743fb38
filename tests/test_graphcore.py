from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

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
    generate_group,
    induce_adjacency_graph,
    invert,
    lift_policy_automorphisms,
    orbits,
    stabiliser,
    transporter,
)
from blowfish_privacy.graphcore import (
    UNREACHABLE,
    identity_permutation,
    is_automorphism,
    pair_orbits,
)

from helpers import graphs, oracle_automorphisms, oracle_orbits, oracle_pair_orbits


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
    trivial = PermutationGroup.trivial(4)
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


@st.composite
def permutation_sets(draw):
    degree = draw(st.integers(1, 6))
    count = draw(st.integers(0, 3))
    perms = [tuple(draw(st.permutations(range(degree)))) for _ in range(count)]
    return degree, perms


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
    expected = sorted(sorted(orbit) for orbit in oracle_pair_orbits(group))
    assert sorted(sorted(orbit) for orbit in pair_orbits(perms, degree)) == expected


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


def test_lift_rejects_constrained():
    pol = complete_policy(2, n=1, permissible=[("1",), ("2",)])
    ag = induce_adjacency_graph(pol)
    with pytest.raises(UnsupportedLiftError):
        lift_policy_automorphisms(pol, ag)
