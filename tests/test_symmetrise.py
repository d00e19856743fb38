import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from blowfish_privacy import (
    ChannelMatrix,
    Graph,
    InputError,
    PermutationGroup,
    automorphism_group,
    check_symmetrisation,
    diagonal_maximise,
    distance_threshold_policy,
    generate_group,
    graph_randomized_response,
    group_average,
    induce_adjacency_graph,
    leakage,
    minimal_epsilon,
    orbits,
)
from blowfish_privacy import symmetrise as symmetrise_mod
from blowfish_privacy.errors import BlowfishError
from blowfish_privacy.graphcore import lift_policy_automorphisms
from blowfish_privacy.reporting import render_kv, render_report
from blowfish_privacy.symmetrise import PropertyCheck, SymmetrisationReport

from helpers import (
    oracle_diagonal_maximise,
    oracle_elements,
    oracle_orbit_average,
    oracle_pair_orbits,
    permutation_sets,
)


def path3():
    return Graph.from_edges(3, [(0, 1), (1, 2)])


def random_private_channel(rng, graph):
    # Any strictly positive channel is private at its own measured level.
    raw = rng.dirichlet(np.ones(int(rng.integers(2, 7))), size=graph.vertex_count)
    return ChannelMatrix(raw)


def random_graph(rng, max_vertices=7):
    n = int(rng.integers(2, max_vertices + 1))
    edges = [
        (i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.5
    ]
    return Graph.from_edges(n, edges)


# ---------------------------------------------------------------------------
# Column grouping


def test_diagonal_maximise_hand_example():
    chan = ChannelMatrix(np.array([[0.5, 0.3, 0.2], [0.2, 0.3, 0.5]]))
    grouped, assignment = diagonal_maximise(chan, Graph.from_edges(2, [(0, 1)]))
    assert assignment == (0, 0, 1)
    assert grouped.probs == pytest.approx(np.array([[0.8, 0.2], [0.5, 0.5]]), rel=1e-12)
    diag_sum = grouped.probs[0, 0] + grouped.probs[1, 1]
    colmax_sum = chan.probs.max(axis=0).sum()
    assert diag_sum == pytest.approx(colmax_sum, abs=1e-12)
    assert diag_sum == pytest.approx(1.3, rel=1e-12)


def test_diagonal_maximise_identity_fixed_point():
    chan = ChannelMatrix(np.eye(3))
    grouped, _ = diagonal_maximise(chan, Graph.from_edges(3, []))
    assert np.array_equal(grouped.probs, np.eye(3))


def test_diagonal_maximise_pads_narrow_channels():
    chan = ChannelMatrix(np.array([[1.0], [1.0]]))
    grouped, assignment = diagonal_maximise(chan, Graph.from_edges(2, [(0, 1)]))
    assert grouped.probs.tolist() == [[1.0, 0.0], [1.0, 0.0]]
    assert assignment == (0, 0)
    # the all-zero column still has its maximum (0) on the diagonal
    assert grouped.probs[1, 1] == grouped.probs[:, 1].max() == 0.0


def test_diagonal_maximise_dimension_mismatch():
    with pytest.raises(InputError):
        diagonal_maximise(ChannelMatrix(np.eye(2)), Graph.from_edges(3, []))


def test_diagonal_maximise_wide_channel_properties():
    rng = np.random.default_rng(3)
    chan = ChannelMatrix(rng.dirichlet(np.ones(9), size=4))
    graph = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
    grouped, assignment = diagonal_maximise(chan, graph)
    assert grouped.rows == grouped.cols == 4
    assert len(assignment) == 9
    for j in range(4):
        assert grouped.probs[j, j] == grouped.probs[:, j].max()
    assert math.fsum(np.diag(grouped.probs)) == pytest.approx(
        math.fsum(chan.probs.max(axis=0)), abs=1e-12
    )
    assert minimal_epsilon(grouped, graph) <= minimal_epsilon(chan, graph) + 1e-12


@st.composite
def tied_channels(draw, max_rows=6, max_cols=40):
    """Channels whose weights are often small integers, so column maxima tie
    and zeros abound; wide ones add many columns into one target, in order."""
    rows = draw(st.integers(1, max_rows))
    cols = draw(st.integers(1, max_cols))
    weight = st.one_of(st.integers(0, 3), st.floats(0, 3))
    weights = np.array(
        draw(st.lists(weight, min_size=rows * cols, max_size=rows * cols)), dtype=float
    ).reshape(rows, cols)
    weights[weights.sum(axis=1) == 0, 0] = 1.0
    probs = weights / weights.sum(axis=1, keepdims=True)
    if draw(st.booleans()):
        probs[probs == 0] = -0.0
    return ChannelMatrix(probs)


@settings(max_examples=200, deadline=None)
@given(tied_channels(), st.integers(1, 100))
def test_diagonal_maximise_equals_column_loop_oracle_bit_for_bit(chan, chunk_cells):
    """Equal bytes, also when the row blocks split the channel unevenly."""
    with mock.patch.object(symmetrise_mod, "GROUPING_CHUNK_CELLS", chunk_cells):
        grouped, assignment = diagonal_maximise(chan, Graph.from_edges(chan.rows, []))
    expected, expected_assignment = oracle_diagonal_maximise(chan.probs, chan.rows)
    assert assignment == expected_assignment
    assert grouped.probs.tobytes() == expected.tobytes()


# ---------------------------------------------------------------------------
# Group averaging


def test_group_average_hand_example():
    m = ChannelMatrix(np.array([[0.5, 0.3, 0.2], [0.2, 0.6, 0.2], [0.1, 0.3, 0.6]]))
    group = generate_group([(2, 1, 0)])
    averaged = group_average(m, group, cross_check=True)
    expected = np.array([[0.55, 0.3, 0.15], [0.2, 0.6, 0.2], [0.15, 0.3, 0.55]])
    assert averaged.probs == pytest.approx(expected, rel=1e-12)
    assert math.fsum(np.diag(averaged.probs)) == pytest.approx(1.7, abs=1e-12)
    assert averaged.probs[0, 0] == averaged.probs[2, 2]


def test_group_average_trivial_group_is_identity_map():
    m = ChannelMatrix(np.array([[0.5, 0.3, 0.2], [0.2, 0.6, 0.2], [0.1, 0.3, 0.6]]))
    averaged = group_average(m, PermutationGroup(3), cross_check=True)
    assert np.array_equal(averaged.probs, m.probs)


def test_group_average_equal_diagonals_stay_equal():
    # circulant input with constant diagonal on a triangle, averaged over S3
    m = ChannelMatrix(np.array([[0.6, 0.3, 0.1], [0.1, 0.6, 0.3], [0.3, 0.1, 0.6]]))
    group = automorphism_group(Graph.from_edges(3, [(0, 1), (1, 2), (0, 2)]))
    assert group.order == 6
    averaged = group_average(m, group, cross_check=True)
    diag = np.diag(averaged.probs)
    assert diag == pytest.approx([0.6, 0.6, 0.6], rel=1e-12)


def test_group_average_verify_graph_rejects_non_automorphism():
    m = ChannelMatrix(np.eye(3))
    shift_group = generate_group([(1, 2, 0)])
    with pytest.raises(InputError, match="automorphism"):
        group_average(m, shift_group, verify_graph=path3())
    # the same group is fine on a graph it does preserve
    triangle = Graph.from_edges(3, [(0, 1), (1, 2), (0, 2)])
    group_average(m, shift_group, verify_graph=triangle)


def test_group_average_rejects_non_square():
    m = ChannelMatrix(np.array([[0.5, 0.3, 0.2], [0.2, 0.3, 0.5]]))
    with pytest.raises(InputError):
        group_average(m, PermutationGroup(2))


def test_group_average_rejects_degree_mismatch():
    m = ChannelMatrix(np.eye(3))
    with pytest.raises(InputError):
        group_average(m, PermutationGroup(2))


def test_group_average_strategies_agree():
    rng = np.random.default_rng(5)
    for _ in range(20):
        graph = random_graph(rng, max_vertices=6)
        group = automorphism_group(graph, element_cap=2000)
        chan = ChannelMatrix(rng.dirichlet(np.ones(graph.vertex_count), size=graph.vertex_count))
        full = group_average(chan, group, strategy="full")
        orbit = group_average(chan, group, strategy="orbit")
        assert np.max(np.abs(full.probs - orbit.probs)) <= 1e-12


@settings(max_examples=40)
@given(permutation_sets(), st.integers(0, 2**32 - 1))
def test_full_average_matches_element_by_element_sum(data, seed):
    degree, perms = data
    probs = np.random.default_rng(seed).dirichlet(np.ones(degree), size=degree)
    elements = oracle_elements(degree, perms)
    total = np.zeros((degree, degree), dtype=np.longdouble)
    for perm in elements:
        idx = np.asarray(perm)
        total += probs.astype(np.longdouble)[np.ix_(idx, idx)]
    expected = np.asarray(total / len(elements), dtype=float)
    group = PermutationGroup(degree, perms)
    averaged = group_average(ChannelMatrix(probs), group, strategy="full")
    assert np.max(np.abs(averaged.probs - expected)) <= 1e-12


@settings(max_examples=60)
@given(permutation_sets(), st.integers(0, 2**32 - 1))
def test_orbit_average_equals_pair_by_pair_oracle_bit_for_bit(data, seed):
    degree, perms = data
    rng = np.random.default_rng(seed)
    probs = np.where(rng.random((degree, degree)) < 0.4, 0.0, rng.random((degree, degree)))
    probs[probs.sum(axis=1) == 0, 0] = 1.0
    probs /= probs.sum(axis=1, keepdims=True)
    group = PermutationGroup(degree, perms)
    expected = oracle_orbit_average(probs, oracle_pair_orbits(group))
    averaged = group_average(ChannelMatrix(probs), group, strategy="orbit")
    assert averaged.probs.tobytes() == expected.tobytes()


def test_orbit_average_builds_no_per_pair_objects():
    # 1,048,576 ordered pairs: one Python tuple per pair alone passes the bound
    policy = distance_threshold_policy([1, 2, 3, 4], 1, n=5)
    group = PermutationGroup(
        1024, lift_policy_automorphisms(policy, induce_adjacency_graph(policy))
    )
    channel = ChannelMatrix(np.eye(1024))
    tracemalloc.start()
    try:
        averaged = group_average(channel, group, strategy="orbit")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20
    assert np.array_equal(averaged.probs, np.eye(1024))  # the identity is invariant


def test_group_average_cross_check_mode_raises_on_mismatch(monkeypatch):
    # sabotage the pair labels of each route to prove its cross-check trips
    import blowfish_privacy.symmetrise as sym

    m = ChannelMatrix(np.array([[0.7, 0.3], [0.4, 0.6]]))
    group = generate_group([(1, 0)])
    graph = Graph.from_edges(2, [(0, 1)])

    def broken(perms, degree, arity=1):
        return np.arange(degree**arity)  # every tuple alone in its orbit

    monkeypatch.setattr(sym, "orbit_labels", broken)
    with pytest.raises(BlowfishError):
        sym.group_average(m, group, cross_check=True)
    sym.run(m.probs.tolist(), graph, group, cross_check=True)  # the Python route's labels
    monkeypatch.setattr(
        sym, "pair_orbits", lambda perms, degree: [[divmod(p, degree)] for p in range(degree**2)]
    )
    with pytest.raises(BlowfishError, match="group-average strategies disagree"):
        sym.run(m.probs.tolist(), graph, group, cross_check=True)


def test_both_routes_of_the_pipeline_agree_on_random_channels():
    """``symmetrise.run`` on rows of Python floats against the same channel
    as a ``ChannelMatrix``, cross-checked, over random graphs and channels
    of 2-6 columns (fewer or more than the vertices), every other one made
    of copies of two rows so that column maxima tie: the grouped lines, the
    orbit-averaged lines and the orbit report are equal; the full strategy's
    averaged entries and report numbers agree within 1e-12."""
    rng = np.random.default_rng(20261020)
    for k in range(40):
        graph = random_graph(rng)
        group = automorphism_group(graph, element_cap=2000)
        chan = random_private_channel(rng, graph)
        if k % 2:
            chan = ChannelMatrix(chan.probs[rng.integers(0, 2, size=graph.vertex_count)])
        for strategy in ("orbit", "full"):
            python, numpy_ = (
                symmetrise_mod.run(c, graph, group, strategy, cross_check=True)
                for c in (chan.probs.tolist(), chan)
            )
            assert list(python[0]) == list(numpy_[0])
            averaged = [list(route[1]) for route in (python, numpy_)]
            if strategy == "orbit":
                assert averaged[0] == averaged[1]
                assert python[2] == numpy_[2]
                continue
            a, b = (np.loadtxt(lines, delimiter=",", ndmin=2) for lines in averaged)
            assert np.max(np.abs(a - b)) <= 1e-12
            assert python[2][:6] == pytest.approx(numpy_[2][:6], abs=1e-12)
            assert [c.passed for c in python[2].checks] == [c.passed for c in numpy_[2].checks]


# ---------------------------------------------------------------------------
# Full pipeline invariants


def test_pipeline_invariants_on_random_private_channels():
    rng = np.random.default_rng(20260810)
    for _ in range(40):
        graph = random_graph(rng)
        group = automorphism_group(graph, element_cap=2000)
        chan = random_private_channel(rng, graph)

        grouped, _ = diagonal_maximise(chan, graph)
        averaged = group_average(grouped, group, cross_check=True)

        leak_in = leakage(chan).leakage_bits
        leak_grouped = leakage(grouped).leakage_bits
        leak_avg = leakage(averaged).leakage_bits
        assert leak_grouped == pytest.approx(leak_in, abs=1e-9)
        assert leak_avg == pytest.approx(leak_in, abs=1e-9)

        eps_in = minimal_epsilon(chan, graph)
        eps_grouped = minimal_epsilon(grouped, graph)
        eps_avg = minimal_epsilon(averaged, graph)
        assert eps_grouped <= eps_in + 1e-12
        assert eps_avg <= eps_grouped + 1e-12

        for j in range(graph.vertex_count):
            assert grouped.probs[j, j] >= grouped.probs[:, j].max() - 1e-12
            assert averaged.probs[j, j] >= averaged.probs[:, j].max() - 1e-12

        diag = np.diag(averaged.probs)
        for orbit in orbits(group).orbits:
            values = diag[list(orbit)]
            assert values.max() - values.min() <= 1e-12


def test_check_symmetrisation_valid_pipeline_passes():
    graph = path3()
    chan = graph_randomized_response(graph, 1.0)
    group = automorphism_group(graph)
    grouped, _ = diagonal_maximise(chan, graph)
    averaged = group_average(grouped, group)
    report = check_symmetrisation(chan, grouped, averaged, group, graph)
    assert report.all_passed
    assert report.diagonal_sum_grouped == pytest.approx(
        report.column_maxima_sum_input, abs=1e-12
    )
    assert report.diagonal_sum_averaged == pytest.approx(
        report.diagonal_sum_grouped, abs=1e-12
    )
    assert "all_passed: true" in render_report(report)


def test_symmetrisation_report_text_with_a_failing_check():
    report = SymmetrisationReport(
        0.5, 0.25, 0.125, 1.5, 1.5, 1.25,
        (
            PropertyCheck("epsilon_non_increasing", True, 0.0),
            PropertyCheck("diagonal_constant_on_orbits", False, 0.001),
        ),
    )
    assert render_kv([("group_order", 2)]) + render_report(report) == (
        "group_order: 2\n"
        "epsilon_input: 0.5\n"
        "epsilon_grouped: 0.25\n"
        "epsilon_averaged: 0.125\n"
        "column_maxima_sum_input: 1.5\n"
        "diagonal_sum_grouped: 1.5\n"
        "diagonal_sum_averaged: 1.25\n"
        "check_epsilon_non_increasing: pass\n"
        "check_epsilon_non_increasing_magnitude: 0.0\n"
        "check_diagonal_constant_on_orbits: fail\n"
        "check_diagonal_constant_on_orbits_magnitude: 0.001\n"
        "all_passed: false\n"
    )


def test_check_symmetrisation_trivial_group_passes():
    graph = path3()
    chan = graph_randomized_response(graph, 1.0)
    group = PermutationGroup(3)
    grouped, _ = diagonal_maximise(chan, graph)
    averaged = group_average(grouped, group)
    assert np.array_equal(averaged.probs, grouped.probs)
    report = check_symmetrisation(chan, grouped, averaged, group, graph)
    assert report.all_passed


def test_check_symmetrisation_flags_non_automorphism_group():
    # a cyclic shift is not an automorphism of a path: averaging over it
    # breaks the diagonal-maximum or privacy property
    graph = path3()
    chan = graph_randomized_response(graph, 1.0)
    bad_group = generate_group([(1, 2, 0)])
    grouped, _ = diagonal_maximise(chan, graph)
    averaged = group_average(grouped, bad_group)
    report = check_symmetrisation(chan, grouped, averaged, bad_group, graph)
    assert not report.all_passed
