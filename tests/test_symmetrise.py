import math

import numpy as np
import pytest

from blowfish_privacy import (
    ChannelMatrix,
    Graph,
    InputError,
    PermutationGroup,
    automorphism_group,
    check_symmetrisation,
    diagonal_maximise,
    generate_group,
    graph_randomized_response,
    group_average,
    leakage,
    minimal_epsilon,
    orbits,
)
from blowfish_privacy.errors import BlowfishError


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
    averaged = group_average(m, PermutationGroup.trivial(3), cross_check=True)
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
        group_average(m, PermutationGroup.trivial(2))


def test_group_average_rejects_degree_mismatch():
    m = ChannelMatrix(np.eye(3))
    with pytest.raises(InputError):
        group_average(m, PermutationGroup.trivial(2))


def test_group_average_strategies_agree():
    rng = np.random.default_rng(5)
    for _ in range(20):
        graph = random_graph(rng, max_vertices=6)
        group = automorphism_group(graph, element_cap=2000)
        chan = ChannelMatrix(rng.dirichlet(np.ones(graph.vertex_count), size=graph.vertex_count))
        full = group_average(chan, group, strategy="full")
        orbit = group_average(chan, group, strategy="orbit")
        assert np.max(np.abs(full.probs - orbit.probs)) <= 1e-12


def test_group_average_cross_check_mode_raises_on_mismatch(monkeypatch):
    # sabotage the orbit route to prove the cross-check trips
    import blowfish_privacy.symmetrise as sym

    m = ChannelMatrix(np.array([[0.7, 0.3], [0.4, 0.6]]))
    group = generate_group([(1, 0)])

    def broken(perms, degree):
        return [[(i, j)] for i in range(degree) for j in range(degree)]

    monkeypatch.setattr(sym, "pair_orbits", broken)
    with pytest.raises(BlowfishError):
        sym.group_average(m, group, cross_check=True)


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
    assert "all_passed: true" in report.to_text()


def test_check_symmetrisation_trivial_group_passes():
    graph = path3()
    chan = graph_randomized_response(graph, 1.0)
    group = PermutationGroup.trivial(3)
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
