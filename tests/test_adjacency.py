import hashlib
import json
import math
import random
import tracemalloc
import warnings
from itertools import product

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from blowfish_privacy import (
    InputError,
    SchemaError,
    complete_policy,
    custom_policy,
    distance_threshold_policy,
    embed_graph_as_policy,
    enumerate_permissible,
    induce_adjacency_graph,
)
from blowfish_privacy.adjacency import (
    AdjacencyAsymmetryWarning,
    AdjacencyGraph,
    _adjacent_from,
    _value_sets,
    adjacency_from_json,
    adjacency_to_json,
)
from blowfish_privacy.channel import product_lines, response_blocks, rows_to_csv
from blowfish_privacy.graphcore import components_and_diameters

from helpers import (
    DiffTriple,
    graphs,
    induce_by_definition,
    oracle_adjacency_edges,
    oracle_asymmetric_pairs,
    oracle_distances,
    oracle_minimally_secretly_different,
    secret_difference,
    small_policies,
    total_difference,
)


@pytest.fixture(scope="module")
def path_policy():
    return distance_threshold_policy([1, 2, 3, 4], 1, n=2)


def adjacent_from(base, policy, databases):
    """The indices of ``databases`` (the permissible set, in order) adjacent
    from ``base`` in one pass of the definition path, which induction runs
    once from every database."""
    rows = [tuple(map(policy.universe.index, db)) for db in databases]
    sets = _value_sets(rows, policy.n, len(policy.universe))
    neighbors = policy.secret_graph.index_graph.neighbors
    found = _adjacent_from(rows[databases.index(base)], rows, sets, neighbors)
    return {k for k in range(len(databases)) if found >> k & 1}


def assert_directions_match_oracle(pol, dbs):
    """Each database's adjacent databases, in one direction, are the
    oracle's, written from the definition."""
    edge_set = pol.secret_graph.edges
    for a in dbs:
        found = adjacent_from(a, pol, dbs)
        for k, b in enumerate(dbs):
            assert (k in found) == oracle_minimally_secretly_different(a, b, edge_set, dbs)


def test_total_difference_single_position():
    assert total_difference(("1", "2"), ("1", "3")) == {DiffTriple(1, "2", "3")}


def test_total_difference_identity_empty():
    assert total_difference(("1", "2"), ("1", "2")) == frozenset()


def test_total_difference_both_positions():
    assert total_difference(("1", "1"), ("2", "2")) == {
        DiffTriple(0, "1", "2"),
        DiffTriple(1, "1", "2"),
    }


def test_total_difference_length_mismatch():
    with pytest.raises(InputError):
        total_difference(("1",), ("1", "2"))


def test_secret_difference_keeps_secret_pairs(path_policy):
    g = path_policy.secret_graph
    assert secret_difference(("1", "2"), ("1", "3"), g) == {DiffTriple(1, "2", "3")}
    assert secret_difference(("1", "1"), ("1", "3"), g) == frozenset()


def test_secret_difference_complete_equals_total():
    g = complete_policy(4, n=2).secret_graph
    for d1, d2 in [(("1", "1"), ("2", "3")), (("1", "4"), ("4", "1"))]:
        assert secret_difference(d1, d2, g) == total_difference(d1, d2)


def test_induced_graph_matches_both_paths_and_oracle(path_policy):
    fast = induce_adjacency_graph(path_policy)
    definition = induce_by_definition(path_policy)
    assert fast.vertices == definition.vertices
    assert fast.edges == definition.edges
    assert definition.asymmetric_pairs == ()

    expected = oracle_adjacency_edges(
        path_policy.secret_graph.edges, list(fast.vertices)
    )
    assert set(fast.edges) == expected

    comps = components_and_diameters(fast.to_graph())
    assert len(fast.vertices) == 16
    assert comps.count == 1
    assert comps.diameters == (6,)

    index = {db: k for k, db in enumerate(fast.vertices)}
    assert (index[("1", "1")], index[("1", "2")]) in fast.edges
    assert (index[("1", "1")], index[("2", "1")]) in fast.edges
    assert (index[("1", "1")], index[("2", "2")]) not in fast.edges


def test_complete_secrets_give_hamming_adjacency():
    pol = complete_policy(4, n=2)
    ag = induce_adjacency_graph(pol)
    hamming = {
        (i, j)
        for i, a in enumerate(ag.vertices)
        for j, b in enumerate(ag.vertices)
        if i < j and sum(x != y for x, y in zip(a, b)) == 1
    }
    assert set(ag.edges) == hamming


def test_single_database_graph():
    pol = complete_policy(3, n=2, permissible=[("1", "1")])
    ag = induce_adjacency_graph(pol)
    assert len(ag.vertices) == 1
    assert ag.edges == frozenset()


def test_directional_asymmetry_detected_and_reported():
    # Path secrets 1-2-3 with permissible {(1,1), (2,2), (3,2)}: going from
    # (1,1), the database (3,2) realises a strictly smaller secret
    # difference towards (2,2), but from (2,2) no database blocks, so the
    # relation disagrees by direction and the edge is kept.
    pol = custom_policy(
        ["1", "2", "3"],
        [("1", "2"), ("2", "3")],
        n=2,
        permissible=[("1", "1"), ("2", "2"), ("3", "2")],
    )
    dbs = enumerate_permissible(pol)
    with pytest.warns(AdjacencyAsymmetryWarning):
        ag = induce_adjacency_graph(pol)
    i, j = dbs.index(("1", "1")), dbs.index(("2", "2"))
    assert ag.asymmetric_pairs == ((i, j),)
    assert (i, j) in ag.edges
    assert j not in adjacent_from(("1", "1"), pol, dbs)
    assert i in adjacent_from(("2", "2"), pol, dbs)


@settings(max_examples=60)
@given(small_policies(max_tuples=4, max_n=2, allow_constrained=False))
def test_fast_path_equals_definition_on_unconstrained(pol):
    fast = induce_adjacency_graph(pol)
    definition = induce_by_definition(pol)
    assert fast.edges == definition.edges
    assert definition.asymmetric_pairs == ()


# 128 labels, n = 1: a path over 127 of them and one isolated label, so the
# unreachable sentinel is 128, one past int8.
PATH_OF_127_AND_ONE = custom_policy(
    [f"l{i}" for i in range(128)], [(f"l{i}", f"l{i + 1}") for i in range(126)], n=1
)


@st.composite
def unconstrained_policies(draw, max_tuples=5, max_n=4):
    """Unconstrained policies on any secret graph, edgeless and disconnected ones included."""
    m = draw(st.integers(1, max_tuples))
    labels = [chr(ord("a") + i) for i in range(m)]
    pairs = [(labels[i], labels[j]) for i in range(m) for j in range(i + 1, m)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    return custom_policy(labels, edges, n=draw(st.integers(1, max_n)))


EPSILONS = st.sampled_from([1e-300, 0.5, math.inf])


@settings(max_examples=40, deadline=None)
@given(unconstrained_policies().filter(lambda pol: len(pol.universe) ** pol.n <= 81))
@example(custom_policy(["a", "b", "c"], [], n=4))
@example(custom_policy(["a", "b", "c", "d"], [("a", "b"), ("c", "d")], n=3))
@example(custom_policy(["a", "b", "c", "d", "e"], [("b", "e")], n=2))
@example(custom_policy(["a"], [], n=4))
def test_mixed_radix_edges_equal_the_oracle(pol):
    """The unconstrained graph's edges, written from record place values
    alone, are the definition's on every secret graph (the oracle is cubic
    in the database count, so at most 81 databases are drawn)."""
    adjacency = induce_adjacency_graph(pol)
    assert adjacency.vertices == enumerate_permissible(pol)
    assert set(adjacency.edges) == oracle_adjacency_edges(
        pol.secret_graph.edges, list(adjacency.vertices)
    )


@settings(max_examples=40, deadline=None)
@given(unconstrained_policies(), EPSILONS, st.none() | st.integers(0, 2**32))
@example(custom_policy(["a", "b", "c"], [], n=3), 0.5, None)
@example(custom_policy(["a", "b", "c", "d"], [("a", "b"), ("c", "d")], n=3), 0.5, None)
@example(custom_policy(["a", "b", "c", "d"], [("a", "b"), ("c", "d")], n=3), 0.5, 3)
@example(custom_policy(["a"], [], n=4), 0.5, None)
@example(custom_policy(["a"], [], n=1), 0.5, 1)
@example(custom_policy(["a", "b", "c", "d"], [("a", "b"), ("b", "c")], n=4), 0.5, 2)
@example(PATH_OF_127_AND_ONE, 0.5, None)
@example(PATH_OF_127_AND_ONE, 0.5, 5)
@example(distance_threshold_policy([1, 2, 3, 4], 1, n=3), 1e-300, None)
@example(distance_threshold_policy([1, 2, 3, 4], 1, n=3), 1e-300, 3)
@example(distance_threshold_policy([1, 2, 3, 4], 1, n=3), math.inf, None)
@example(distance_threshold_policy([1, 2, 3, 4], 1, n=3), math.inf, 3)
def test_product_distances_equal_bfs_on_the_induced_graph(pol, epsilon, seed):
    """``channel.product_lines`` writes the bytes of the numpy route over
    the oracle's BFS distances of the induced graph, with the columns
    shuffled by ``seed`` or in order (``None``)."""
    graph = induce_adjacency_graph(pol).to_graph()
    columns = None
    if seed is not None:
        columns = list(range(graph.vertex_count))
        random.Random(seed).shuffle(columns)
    bfs = rows_to_csv(response_blocks([np.array(oracle_distances(graph))], epsilon, columns))
    secret = pol.secret_graph.index_graph
    assert list(product_lines(secret, pol.n, epsilon, columns)) == list(bfs)


@settings(max_examples=40)
@given(small_policies(max_tuples=3, max_n=2, allow_constrained=True))
def test_definition_path_matches_oracle(pol):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", AdjacencyAsymmetryWarning)
        ag = induce_by_definition(pol)
    dbs = list(ag.vertices)
    edge_set = pol.secret_graph.edges
    assert set(ag.edges) == oracle_adjacency_edges(edge_set, dbs)
    assert ag.asymmetric_pairs == tuple(sorted(oracle_asymmetric_pairs(edge_set, dbs)))
    assert_directions_match_oracle(pol, dbs)


@st.composite
def constrained_policies(draw, max_tuples=4, max_n=3, max_databases=20):
    """Explicit permissible sets of 2 to ``max_databases`` databases on any secret graph."""
    m = draw(st.integers(2, max_tuples))
    labels = [str(i + 1) for i in range(m)]
    pairs = [(labels[i], labels[j]) for i in range(m) for j in range(i + 1, m)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True))
    n = draw(st.integers(1, max_n))
    every = list(product(labels, repeat=n))
    size = draw(st.integers(2, min(len(every), max_databases)))
    permissible = draw(st.permutations(every))[:size]
    return custom_policy(labels, edges, n=n, permissible=permissible)


def assert_definition_matches_oracle(pol):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", AdjacencyAsymmetryWarning)
        ag = induce_adjacency_graph(pol)
    dbs = list(ag.vertices)
    edge_set = pol.secret_graph.edges
    assert set(ag.edges) == oracle_adjacency_edges(edge_set, dbs)
    assert ag.asymmetric_pairs == tuple(sorted(oracle_asymmetric_pairs(edge_set, dbs)))
    assert_directions_match_oracle(pol, dbs)


@settings(max_examples=60, deadline=None)
@given(constrained_policies())
def test_definition_path_matches_oracle_up_to_twenty_databases(pol):
    assert_definition_matches_oracle(pol)


def test_definition_path_groups_exactly_at_forty_records():
    # Path secrets 1-2-3 over 40 records. From the all-"1" base, "b" has the
    # secret difference of "a" plus one more record, so it is not adjacent;
    # both differ from the base only at positions 32 and up, where a packed
    # mixed-radix key (radix 4, in 64 bits) would wrap to the same value.
    def db(**changes):
        return tuple(changes.get(f"p{i}", "1") for i in range(40))

    base = db()
    a = db(p35="2", p36="3")
    b = db(p35="2", p38="2")
    others = [db(p33="2", p39="2"), db(p34="3", p37="2"), db(p2="2", p35="2", p36="3")]
    pol = custom_policy(
        ["1", "2", "3"], [("1", "2"), ("2", "3")], n=40, permissible=[base, a, b, *others]
    )
    dbs = enumerate_permissible(pol)
    assert dbs.index(a) in adjacent_from(base, pol, dbs)
    assert dbs.index(b) not in adjacent_from(base, pol, dbs)
    assert_definition_matches_oracle(pol)


def test_one_large_minimal_group_stays_within_the_cells_budget():
    # From the all-"1" base every other database changes record 0 to "2", the
    # only secret pair, so all 4,096 form one minimal group. Half leave record
    # 1 alone and half change it, with disjoint values elsewhere, so the 2,048
    # larger total differences are each compared with the 2,048 smaller ones:
    # 2,048 x 2,048 x 13 entries, 52 MiB of booleans if compared at once.
    pol = custom_policy([str(v) for v in range(1, 8)], [("1", "2")], n=13)
    base = ("1",) * 13
    small = [("2", "1", *rest) for rest in product("34", repeat=11)]
    large = [("2", "5", *rest) for rest in product("67", repeat=11)]
    dbs = [base, *small, *large]
    tracemalloc.start()
    try:
        adjacent = len(dbs) - 1 in adjacent_from(base, pol, dbs)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert adjacent
    assert peak < 8 * 2**20


def test_definition_path_matches_oracle_on_forty_databases():
    labels = ("1", "2", "3", "4")
    sample = random.Random(0).sample(list(product(labels, repeat=3)), 40)
    pol = distance_threshold_policy([1, 2, 3, 4], 1, n=3, permissible=sample)
    with pytest.warns(AdjacencyAsymmetryWarning):
        ag = induce_adjacency_graph(pol)
    dbs = list(ag.vertices)
    edge_set = pol.secret_graph.edges
    assert set(ag.edges) == oracle_adjacency_edges(edge_set, dbs)
    assert ag.asymmetric_pairs == tuple(sorted(oracle_asymmetric_pairs(edge_set, dbs)))


@st.composite
def larger_constrained_policies(draw):
    """Explicit permissible sets of 40 to 80 databases on any secret graph,
    so that bitsets over the databases span two or three 30-bit CPython digits."""
    m = draw(st.integers(2, 4))
    labels = [str(i + 1) for i in range(m)]
    pairs = [(labels[i], labels[j]) for i in range(m) for j in range(i + 1, m)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True))
    n = draw(st.integers(next(n for n in range(1, 7) if m**n >= 40), 6))
    every = list(product(labels, repeat=n))
    size = draw(st.integers(40, min(80, len(every))))
    chosen = draw(st.lists(st.integers(0, len(every) - 1), min_size=size, max_size=size, unique=True))
    return custom_policy(labels, edges, n=n, permissible=[every[k] for k in chosen])


@settings(max_examples=10, deadline=None)
@given(larger_constrained_policies())
def test_definition_path_matches_oracle_on_forty_to_eighty_databases(pol):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", AdjacencyAsymmetryWarning)
        ag = induce_adjacency_graph(pol)
    dbs = list(ag.vertices)
    edge_set = pol.secret_graph.edges
    assert set(ag.edges) == oracle_adjacency_edges(edge_set, dbs)
    assert ag.asymmetric_pairs == tuple(sorted(oracle_asymmetric_pairs(edge_set, dbs)))


def test_one_base_over_single_database_groups_stays_small():
    # The databases above with every value pair secret: each of the 4,096
    # others is alone in its secret-difference group, and none of their
    # differences lies inside another's. The refinement holds one path of
    # bitsets over 4,097 databases.
    labels = [str(v) for v in range(1, 8)]
    pol = custom_policy(labels, [(a, b) for a in labels for b in labels if a < b], n=13)
    base = ("1",) * 13
    small = [("2", "1", *rest) for rest in product("34", repeat=11)]
    large = [("2", "5", *rest) for rest in product("67", repeat=11)]
    dbs = [base, *small, *large]
    tracemalloc.start()
    try:
        adjacent = len(dbs) - 1 in adjacent_from(base, pol, dbs)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert adjacent
    assert peak < 2 * 2**20


def test_definition_path_edges_are_pinned_on_a_seeded_sample():
    """160 of the 1,024 n = 5 threshold databases, as in the constrained-scan
    benchmark; the digest was taken from the numpy implementation this path
    replaced."""
    sample = random.Random(0).sample(list(product("1234", repeat=5)), 160)
    pol = distance_threshold_policy([1, 2, 3, 4], 1, n=5, permissible=sample)
    with pytest.warns(AdjacencyAsymmetryWarning):
        ag = induce_adjacency_graph(pol)
    assert (len(ag.edges), len(ag.asymmetric_pairs)) == (2412, 1359)
    doc = json.dumps([sorted(ag.edges), list(ag.asymmetric_pairs)])
    assert hashlib.sha256(doc.encode()).hexdigest() == (
        "c2ed1a80a287b5a3decc192ee52af5b8ed4d300c09997e60bacabc87ebbb125e"
    )


def test_fast_equals_definition_three_records():
    pol = distance_threshold_policy([1, 2, 3], 1, n=3)
    fast = induce_adjacency_graph(pol)
    definition = induce_by_definition(pol)
    assert fast.edges == definition.edges


def test_embedding_triangle():
    from blowfish_privacy import Graph

    triangle = Graph.from_edges(3, [(0, 1), (1, 2), (0, 2)])
    pol = embed_graph_as_policy(triangle)
    assert len(pol.universe) == 3
    assert pol.secret_graph.edge_count == 3
    assert pol.n == 1
    assert induce_adjacency_graph(pol).to_graph().edges == triangle.edges


def test_embedding_clique_plus_matching_graph():
    from blowfish_privacy import sharpness_graph

    graph = sharpness_graph(3)
    pol = embed_graph_as_policy(graph)
    assert induce_adjacency_graph(pol).to_graph().edges == graph.edges


@settings(max_examples=60)
@given(graphs(max_vertices=8))
def test_embedding_round_trip(graph):
    pol = embed_graph_as_policy(graph)
    assert pol.n == 1
    induced = induce_adjacency_graph(pol)
    assert induced.to_graph().edges == graph.edges
    assert len(induced.vertices) == graph.vertex_count


@given(m=st.integers(2, 4), n=st.integers(1, 2))
def test_dp_special_case_differ_in_one_record(m, n):
    ag = induce_adjacency_graph(complete_policy(m, n=n))
    for i, j in ag.edges:
        assert sum(x != y for x, y in zip(ag.vertices[i], ag.vertices[j])) == 1
    for i, a in enumerate(ag.vertices):
        for j in range(i + 1, len(ag.vertices)):
            if sum(x != y for x, y in zip(a, ag.vertices[j])) == 1:
                assert (i, j) in ag.edges


def test_graph_document_round_trip(path_policy):
    ag = induce_adjacency_graph(path_policy)
    text = adjacency_to_json(ag)
    again = adjacency_from_json(text)
    assert again.vertices == ag.vertices
    assert again.edges == ag.edges



@pytest.mark.parametrize(
    "vertices",
    [[["1", "2"], ["2", "1"], ["1", "2"]], [["1", "2"], ["2", "1"], ["3"]]],
    ids=["repeated_vertex", "mixed_record_counts"],
)
def test_graph_document_with_bad_vertices_is_a_schema_error(vertices):
    with pytest.raises(SchemaError):
        adjacency_from_json(json.dumps({"vertices": vertices, "edges": [[0, 1]]}))


@given(graphs(max_vertices=6), st.data())
def test_graph_document_round_trip_property(graph, data):
    # A document lists distinct vertices of one record count.
    records = data.draw(st.integers(1, 2))
    vertices = tuple(
        data.draw(
            st.lists(
                st.tuples(*[st.text(max_size=3)] * records),
                min_size=graph.vertex_count,
                max_size=graph.vertex_count,
                unique=True,
            )
        )
    )
    ag = AdjacencyGraph(vertices, graph.edges)
    text = adjacency_to_json(ag)
    again = adjacency_from_json(text)
    assert again == ag
    assert adjacency_to_json(again) == text
