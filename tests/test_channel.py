import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from blowfish_privacy import (
    ChannelMatrix,
    Graph,
    InputError,
    Prior,
    graph_randomized_response,
    leakage,
    minimal_epsilon,
    validate_channel,
)
from blowfish_privacy.channel import channel_from_csv, channel_to_csv
from blowfish_privacy.errors import SchemaError


def path3():
    return Graph.from_edges(3, [(0, 1), (1, 2)])


def random_graph(rng, max_vertices=7):
    n = int(rng.integers(1, max_vertices + 1))
    edges = [
        (i, j)
        for i in range(n)
        for j in range(i + 1, n)
        if rng.random() < 0.5
    ]
    return Graph.from_edges(n, edges)


# ---------------------------------------------------------------------------
# Validation


def test_validate_identity_ok():
    assert validate_channel(np.eye(2)) == []


def test_validate_row_sum_violation():
    problems = validate_channel([[0.5, 0.6]])
    assert len(problems) == 1
    assert problems[0].kind == "row_sum"
    assert problems[0].row == 0
    assert problems[0].magnitude == pytest.approx(0.1)


def test_validate_negative_entry():
    problems = validate_channel([[1.2, -0.2]])
    kinds = {p.kind for p in problems}
    assert "range" in kinds


def test_channel_constructor_rejects_invalid():
    with pytest.raises(InputError):
        ChannelMatrix(np.array([[0.5, 0.6]]))


def test_channel_is_read_only():
    chan = ChannelMatrix(np.eye(2))
    with pytest.raises(ValueError):
        chan.probs[0, 0] = 0.3


# ---------------------------------------------------------------------------
# Minimal epsilon


def test_minimal_epsilon_direct_ratio():
    chan = ChannelMatrix(np.array([[0.6, 0.4], [0.4, 0.6]]))
    graph = Graph.from_edges(2, [(0, 1)])
    assert minimal_epsilon(chan, graph) == pytest.approx(math.log(1.5), rel=1e-12)


def test_minimal_epsilon_zero_denominator_is_infinite():
    chan = ChannelMatrix(np.eye(2))
    graph = Graph.from_edges(2, [(0, 1)])
    assert minimal_epsilon(chan, graph) == math.inf


def test_minimal_epsilon_edgeless_is_zero():
    chan = ChannelMatrix(np.eye(2))
    assert minimal_epsilon(chan, Graph.from_edges(2, [])) == 0.0


def test_minimal_epsilon_dimension_mismatch():
    chan = ChannelMatrix(np.eye(2))
    with pytest.raises(InputError):
        minimal_epsilon(chan, Graph.from_edges(3, []))


# ---------------------------------------------------------------------------
# Leakage


def test_leakage_identity_one_bit():
    report = leakage(ChannelMatrix(np.eye(2)))
    assert report.leakage_bits == 1.0
    assert report.min_entropy_bits == 1.0
    assert report.conditional_min_entropy_bits == 0.0


def test_leakage_constant_channel_zero_bits():
    report = leakage(ChannelMatrix(np.full((2, 2), 0.5)))
    assert report.leakage_bits == 0.0


def test_leakage_prior_length_mismatch():
    with pytest.raises(InputError):
        leakage(ChannelMatrix(np.eye(2)), Prior(np.array([1.0])))


def test_uniform_shortcut_matches_general_path():
    rng = np.random.default_rng(7)
    for _ in range(30):
        rows, cols = int(rng.integers(2, 6)), int(rng.integers(2, 6))
        raw = rng.dirichlet(np.ones(cols), size=rows)
        chan = ChannelMatrix(raw)
        via_shortcut = leakage(chan)
        via_general = leakage(chan, Prior.uniform(rows))
        assert via_shortcut.conditional_min_entropy_bits == pytest.approx(
            via_general.conditional_min_entropy_bits, abs=1e-12
        )
        assert via_shortcut.leakage_bits == pytest.approx(
            via_general.leakage_bits, abs=1e-12
        )


def test_uniform_prior_maximises_leakage():
    rng = np.random.default_rng(11)
    for _ in range(50):
        rows, cols = int(rng.integers(2, 6)), int(rng.integers(2, 6))
        chan = ChannelMatrix(rng.dirichlet(np.ones(cols), size=rows))
        uniform_leak = leakage(chan).leakage_bits
        prior = Prior(rng.dirichlet(np.ones(rows)))
        assert leakage(chan, prior).leakage_bits <= uniform_leak + 1e-9


def test_column_permutation_leaves_leakage_and_epsilon_unchanged():
    rng = np.random.default_rng(13)
    graph = random_graph(rng)
    while graph.vertex_count < 2:
        graph = random_graph(rng)
    chan = graph_randomized_response(graph, 0.8)
    base_leak = leakage(chan)
    base_eps = minimal_epsilon(chan, graph)
    for _ in range(10):
        order = rng.permutation(chan.cols)
        shuffled = ChannelMatrix(chan.probs[:, order])
        assert leakage(shuffled).leakage_bits == base_leak.leakage_bits
        assert leakage(shuffled).conditional_vulnerability == base_leak.conditional_vulnerability
        assert minimal_epsilon(shuffled, graph) == base_eps


def test_column_scaling_changes_leakage():
    chan = ChannelMatrix(np.array([[0.6, 0.4], [0.4, 0.6]]))
    scaled = chan.probs * np.array([2.0, 1.0])
    scaled = scaled / scaled.sum(axis=1, keepdims=True)
    rescaled = ChannelMatrix(scaled)
    assert abs(leakage(rescaled).leakage_bits - leakage(chan).leakage_bits) > 1e-3


# ---------------------------------------------------------------------------
# Graph randomized response


def test_grr_path_three_rows():
    chan = graph_randomized_response(path3(), math.log(4))
    assert chan.probs[0] == pytest.approx([4 / 7, 2 / 7, 1 / 7], rel=1e-12)
    assert chan.probs[1] == pytest.approx([1 / 4, 1 / 2, 1 / 4], rel=1e-12)


def test_grr_path_three_minimal_epsilon():
    chan = graph_randomized_response(path3(), math.log(4))
    assert minimal_epsilon(chan, path3()) == pytest.approx(math.log(16 / 7), rel=1e-12)
    assert minimal_epsilon(chan, path3()) <= math.log(4)


def test_grr_single_vertex():
    chan = graph_randomized_response(Graph.from_edges(1, []), 1.0)
    assert chan.probs.tolist() == [[1.0]]


def test_grr_rejects_nonpositive_epsilon():
    with pytest.raises(InputError):
        graph_randomized_response(path3(), 0.0)


def test_grr_disconnected_blocks():
    graph = Graph.from_edges(4, [(0, 1)])
    chan = graph_randomized_response(graph, 1.0)
    assert chan.probs[0, 2] == 0.0 and chan.probs[0, 3] == 0.0
    assert chan.probs[2, 2] == 1.0


def test_grr_respects_epsilon_over_random_pairs():
    rng = np.random.default_rng(20260810)
    for _ in range(200):
        graph = random_graph(rng)
        eps = float(rng.uniform(0.05, 2.5))
        chan = graph_randomized_response(graph, eps)
        assert minimal_epsilon(chan, graph) <= eps + 1e-9


# ---------------------------------------------------------------------------
# CSV round trip


def test_channel_csv_round_trip():
    chan = graph_randomized_response(path3(), 1.0)
    text = channel_to_csv(chan)
    again = channel_from_csv(text)
    assert np.array_equal(again.probs, chan.probs)


@st.composite
def channels(draw):
    rows = draw(st.integers(1, 5))
    cols = draw(st.integers(1, 5))
    weights = np.asarray(
        draw(
            st.lists(
                st.lists(
                    st.floats(0.0, 1.0, allow_subnormal=False), min_size=cols, max_size=cols
                ),
                min_size=rows,
                max_size=rows,
            )
        )
    )
    weights[weights.sum(axis=1) == 0, 0] = 1.0
    return ChannelMatrix(weights / weights.sum(axis=1, keepdims=True))


@given(channels())
def test_channel_csv_round_trip_property(chan):
    text = channel_to_csv(chan)
    again = channel_from_csv(text)
    assert np.array_equal(again.probs, chan.probs)
    assert channel_to_csv(again) == text


def test_channel_csv_header_round_trip():
    text = "a,b\n1.0,0.0\n0.0,1.0\n"
    again = channel_from_csv(text)
    assert np.array_equal(again.probs, np.eye(2))
    assert channel_to_csv(again) == "1.0,0.0\n0.0,1.0\n"


def test_channel_csv_rejects_ragged_rows():
    with pytest.raises(SchemaError):
        channel_from_csv("0.5,0.5\n1.0\n")


def test_channel_csv_rejects_empty():
    with pytest.raises(SchemaError):
        channel_from_csv("")


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_prior_rejects_non_finite_entries(bad):
    with pytest.raises(InputError, match="non-finite"):
        Prior(np.array([0.5, bad, 0.5]))
