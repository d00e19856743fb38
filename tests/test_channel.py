import io
import itertools
import math
import os
import tracemalloc
import weakref
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

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
from blowfish_privacy import channel as channel_mod
from blowfish_privacy.channel import channel_from_csv, channel_to_csv
from blowfish_privacy.errors import SchemaError
from blowfish_privacy.reporting import render_report

from helpers import (
    graphs,
    oracle_channel_csv,
    oracle_channel_from_csv,
    oracle_leakage,
    oracle_minimal_epsilon,
    oracle_violations,
    randomized_response,
    sparse_graphs,
)


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


# Entries on both sides of every tolerance edge. 1.000000000001 is out of
# range by the per-entry rule (1.00009e-12 above 1) but equals the rounded
# sum 1.0 + RANGE_TOLERANCE.
FAULTS = (math.nan, math.inf, -math.inf, 1e308, -1e-12, -2e-12, 1.000000000001, 1.5)


@st.composite
def faulty_matrices(draw):
    arr = draw(channels()).probs.copy()
    rows, cols = arr.shape
    cells = st.tuples(
        st.integers(0, rows - 1), st.integers(0, cols - 1), st.sampled_from(FAULTS)
    )
    for i, j, entry in draw(st.lists(cells, max_size=3)):
        arr[i, j] = entry
    arr[draw(st.integers(0, rows - 1)), 0] += draw(st.sampled_from([0.0, 5e-10, -2e-9]))
    return arr


@given(faulty_matrices())
def test_validate_matches_per_entry_oracle(matrix):
    # repr compares NaN magnitudes too
    assert repr([tuple(v) for v in validate_channel(matrix)]) == repr(oracle_violations(matrix))


def screen_margin(cols):
    """The screen's bound ``B`` for a row of ``cols`` entries summing to about 1."""
    u = 2.0**-53
    return 4 * cols * u * (1.0 + 2 * cols * channel_mod.RANGE_TOLERANCE) + 4 * u


def nudged(x, ulps):
    for _ in range(abs(ulps)):
        x = math.nextafter(x, math.copysign(math.inf, ulps))
    return x


def edge_matrix(rng, rows, cols):
    """Rows whose exact sums sit a few ulps either side of ``1 ± tolerance``
    and of ``1 ± (tolerance - B)``, some exactly 1, with NaN, ±inf, -0.0 and
    out-of-range entries sprinkled in."""
    tol = channel_mod.ROW_SUM_TOLERANCE
    offsets = (0.0, tol, -tol, tol - screen_margin(cols), screen_margin(cols) - tol)
    arr = rng.random((rows, cols))
    arr /= arr.sum(axis=1, keepdims=True)
    for i in range(rows):
        target = nudged(1.0 + offsets[i % len(offsets)], int(rng.integers(-4, 5)))
        arr[i, -1] = target - math.fsum(arr[i, :-1])
    for _ in range(rows // 3):
        entry = rng.choice(FAULTS + (-0.0,))
        arr[rng.integers(rows), rng.integers(cols)] = entry
    return arr


# Blocks of 4, 3, 14 and 5 rows that leave a short last block, and rows
# longer than the whole block budget (one row per block).
@pytest.mark.parametrize(
    "rows, cols, chunk_cells",
    [(37, 4096, None), (23, 5000, 3 * 5000 + 7), (300, 7, 100), (3, 70_000, None), (41, 1, 5)],
)
def test_screen_matches_the_exact_scan_at_every_tolerance_edge(rows, cols, chunk_cells):
    rng = np.random.default_rng(rows * cols)
    matrix = edge_matrix(rng, rows, cols)
    chunk_cells = chunk_cells or channel_mod.VALIDATE_CHUNK_CELLS
    with mock.patch.object(channel_mod, "VALIDATE_CHUNK_CELLS", chunk_cells):
        found = validate_channel(matrix)
    assert repr([tuple(v) for v in found]) == repr(oracle_violations(matrix))
    assert any(v.kind == "row_sum" for v in found)


def test_valid_rows_are_screened_without_an_exact_sum():
    """A 2,048 x 2,048 channel: no row reaches the exact per-row scan, and
    no temporary the size of the matrix is allocated."""
    rng = np.random.default_rng(7)
    matrix = rng.random((2048, 2048))
    matrix /= matrix.sum(axis=1, keepdims=True)
    with mock.patch.object(
        channel_mod, "_row_violations", side_effect=AssertionError("exact scan")
    ):
        tracemalloc.start()
        try:
            assert validate_channel(matrix) == []
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    # One block's temporaries, far below the 32 MiB matrix.
    assert peak < 2 * channel_mod.VALIDATE_CHUNK_CELLS * 8 < matrix.nbytes // 16


def test_channel_constructor_rejects_invalid():
    with pytest.raises(InputError):
        ChannelMatrix(np.array([[0.5, 0.6]]))


def test_channel_is_read_only():
    chan = ChannelMatrix(np.eye(2))
    with pytest.raises(ValueError):
        chan.probs[0, 0] = 0.3


def test_channel_never_aliases_an_array_the_caller_can_change():
    mine = np.eye(2)
    chan = ChannelMatrix(mine)
    mine[0, 0] = 0.3
    assert chan.probs[0, 0] == 1.0
    assert mine.flags.writeable
    # A read-only view of a writable array is copied too.
    view = mine.view()
    view.setflags(write=False)
    mine[0, 0] = 1.0
    chan = ChannelMatrix(view)
    mine[0, 0] = 0.3
    assert chan.probs[0, 0] == 1.0


def test_channel_keeps_a_handed_over_array():
    handed = np.eye(2)
    handed.setflags(write=False)
    assert ChannelMatrix(handed).probs is handed


def test_randomized_response_holds_one_matrix_at_its_peak():
    from blowfish_privacy import distance_threshold_policy
    from blowfish_privacy.adjacency import product_distance_blocks

    blocks = product_distance_blocks(distance_threshold_policy([1, 2, 3, 4], 1, n=5), 2**16)
    dist = np.concatenate(list(blocks))
    matrix_bytes = 1024 * 1024 * 8
    tracemalloc.start()
    try:
        chan = randomized_response(dist, 0.1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert chan.probs.shape == (1024, 1024)
    # One float64 matrix plus the distances and small change, not two matrices.
    assert peak < matrix_bytes + dist.nbytes + 2**20


def test_response_blocks_name_a_violation_by_its_channel_row(monkeypatch):
    """Blocks of two rows of three. Row 4 reaches no output, so it weighs
    nothing and 0/0 makes it NaN: the third block fails, after the first two
    were yielded, and names row 4 of the channel, not row 0 of its block."""
    monkeypatch.setattr(channel_mod, "BLOCK_CELLS", 6)
    dist = np.zeros((6, 3), dtype=np.int8)
    dist[4] = -1
    blocks = channel_mod.response_blocks([dist], 1.0)
    assert [len(block) for block in itertools.islice(blocks, 2)] == [2, 2]
    with np.errstate(invalid="ignore"), pytest.raises(InputError) as failure:
        next(blocks)
    assert str(failure.value) == (
        "invalid channel matrix (4 violation(s): non-finite@row 4 col 0, "
        "non-finite@row 4 col 1, non-finite@row 4 col 2, row_sum@row 4)"
    )


def test_response_blocks_drop_each_distance_block_before_the_next():
    """A traversal's distance block can hold 2,048 rows: keeping it while the
    next one is made would hold two at the peak."""
    refs, alive = [], []

    def fresh():
        block = np.zeros((2, 3), dtype=np.int8)
        refs.append(weakref.ref(block))
        return block

    def dist_blocks():
        for _ in range(3):
            alive.append(bool(refs) and refs[-1]() is not None)
            yield fresh()

    assert len(list(channel_mod.response_blocks(dist_blocks(), 1.0))) == 3
    assert alive == [False, False, False]


def test_response_blocks_check_epsilon_before_any_block():
    """The check runs on the call, so a caller streaming to a file fails
    before it opens the file."""
    with pytest.raises(InputError, match="epsilon must be positive"):
        channel_mod.response_blocks(iter(()), 0.0)


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


@st.composite
def channels_on(draw, graph):
    """A channel with one row per vertex of ``graph``, often with shared zeros."""
    cols = draw(st.integers(1, 6))
    weights = np.asarray(
        draw(
            st.lists(
                st.lists(st.sampled_from([0.0, 0.0, 1e-300, 0.25, 0.5, 1.0, 3.0]),
                         min_size=cols, max_size=cols),
                min_size=graph.vertex_count,
                max_size=graph.vertex_count,
            )
        )
    )
    weights[weights.sum(axis=1) == 0, 0] = 1.0
    if draw(st.booleans()):  # one support for every row: no infinite level
        weights[:, weights.max(axis=0) > 0] += 0.125
    return ChannelMatrix(weights / weights.sum(axis=1, keepdims=True))


@settings(max_examples=150)
@given(graphs(max_vertices=7), st.data(), st.integers(1, 20))
def test_minimal_epsilon_equals_edge_by_edge_oracle(graph, data, chunk_cells):
    """Exactly equal, also when the chunks split the edge list unevenly."""
    chan = data.draw(channels_on(graph))
    with mock.patch.object(channel_mod, "EPSILON_CHUNK_CELLS", chunk_cells):
        assert minimal_epsilon(chan, graph) == oracle_minimal_epsilon(chan, graph)


def test_minimal_epsilon_chunks_of_the_default_size():
    # 40 columns make chunks of 204 edges; K_40 has 780 = 3 * 204 + 168 of them.
    rng = np.random.default_rng(7)
    graph = Graph.from_edges(40, [(i, j) for i in range(40) for j in range(i + 1, 40)])
    weights = rng.random((40, 40))
    chan = ChannelMatrix(weights / weights.sum(axis=1, keepdims=True))
    assert minimal_epsilon(chan, graph) == oracle_minimal_epsilon(chan, graph) > 0
    weights[39, 5] = 0.0  # support differs on edges of the last, short chunk only
    chan = ChannelMatrix(weights / weights.sum(axis=1, keepdims=True))
    assert minimal_epsilon(chan, graph) == oracle_minimal_epsilon(chan, graph) == math.inf


def test_minimal_epsilon_ignores_zero_over_zero():
    chan = ChannelMatrix(np.array([[0.0, 0.5, 0.5], [0.0, 0.25, 0.75]]))
    graph = Graph.from_edges(2, [(0, 1)])
    assert minimal_epsilon(chan, graph) == oracle_minimal_epsilon(chan, graph)
    assert minimal_epsilon(chan, graph) == pytest.approx(math.log(2), rel=1e-12)


# ---------------------------------------------------------------------------
# Leakage


def test_leakage_identity_one_bit():
    report = leakage(ChannelMatrix(np.eye(2)))
    assert report.leakage_bits == 1.0
    assert report.min_entropy_bits == 1.0
    assert report.conditional_min_entropy_bits == 0.0


def test_leakage_report_text_under_a_prior():
    chan = ChannelMatrix(np.array([[0.75, 0.25], [0.25, 0.75]]))
    report = leakage(chan, Prior(np.array([0.6, 0.4])))
    assert render_report(report) == (
        "vulnerability: 0.6\n"
        "conditional_vulnerability: 0.75\n"
        "min_entropy_bits: 0.7369655941662062\n"
        "conditional_min_entropy_bits: 0.4150374992788438\n"
        "leakage_bits: 0.3219280948873624\n"
    )


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
# One pass over a channel's rows, streamed or in memory


@st.composite
def streamed_cases(draw):
    """A graph, a channel on it, a prior or None, a block budget in cells,
    and the channel's CSV as text or as an open file. The graph is sparse
    with its vertices shuffled, so its bandwidth is about its vertex count
    and the ring holds every row, or a band graph of bandwidth at most 3,
    so that small blocks wrap round the ring."""
    graph = draw(sparse_graphs(max_vertices=40))
    n = graph.vertex_count
    if draw(st.booleans()):
        order = draw(st.permutations(range(n)))
        graph = Graph.from_edges(n, [(order[a], order[b]) for a, b in graph.edges])
    else:
        steps = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(1, 3)), max_size=2 * n))
        graph = Graph.from_edges(n, [(a, a + d) for a, d in steps if a + d < n])
    chan = draw(channels_on(graph))
    prior = None
    if draw(st.booleans()):
        weights = np.asarray(
            draw(st.lists(st.sampled_from([0.0, 0.25, 1.0, 3.0]), min_size=n, max_size=n))
        )
        weights[0] += 1.0
        prior = Prior(weights / weights.sum())
    cells = draw(st.integers(1, 3 * n * chan.cols))
    text = "".join(channel_to_csv(chan))
    source = io.StringIO(text) if draw(st.booleans()) else text
    return graph, chan, prior, cells, source


@settings(max_examples=200)
@given(streamed_cases())
def test_streamed_measures_equal_the_oracles(case):
    graph, chan, prior, cells, source = case
    with mock.patch.object(channel_mod, "BLOCK_CELLS", cells):
        found = channel_mod.measure(source, graph, prior)
    assert (found.rows, found.cols) == chan.probs.shape
    assert found.minimal_epsilon == oracle_minimal_epsilon(chan, graph)
    assert tuple(found.leakage) == oracle_leakage(chan, prior)
    assert channel_mod.measure(chan, graph, prior) == found
    assert leakage(chan, prior) == found.leakage
    assert minimal_epsilon(chan, graph) == found.minimal_epsilon


def violation_message(violations):
    """The InputError text naming ``violations`` of a whole channel."""
    head = ", ".join(
        ("non-finite" if magnitude == math.inf else kind)
        + f"@row {row}"
        + (f" col {column}" if column is not None else "")
        for kind, row, column, magnitude in violations[:5]
    )
    return f"invalid channel matrix ({len(violations)} violation(s): {head})"


@settings(max_examples=200)
@given(faulty_matrices(), st.integers(1, 12))
def test_streamed_reads_count_every_violation_of_the_channel(matrix, cells):
    """However the rows fall into blocks, a read raises at the end of the text
    for the violations of the whole channel, as the dense check does."""
    text = "".join(",".join(map(repr, row)) + "\n" for row in matrix.tolist())
    expected = oracle_violations(matrix)
    with mock.patch.object(channel_mod, "BLOCK_CELLS", cells):
        reads = (channel_mod.measure, channel_from_csv, lambda t: ChannelMatrix(matrix))
        for read in reads:
            if not expected:
                read(text)
                continue
            with pytest.raises(InputError) as raised:
                read(text)
            assert str(raised.value) == violation_message(expected)


def test_an_invalid_row_in_the_last_block_is_named():
    rows = ["0.5,0.5"] * 6 + ["0.5,0.6"]  # blocks of two rows: the last holds row 6 alone
    with mock.patch.object(channel_mod, "BLOCK_CELLS", 4):
        for read in (channel_mod.measure, channel_from_csv):
            with pytest.raises(InputError, match=r"^invalid channel matrix \(1 violation\(s\): "
                               r"row_sum@row 6\)$"):
                read("\n".join(rows))


@pytest.mark.parametrize(
    "bad, message",
    [("x,0.5", "cannot read 'x' as a number"), ("0.5", "1 field(s) where the first row has 2")],
    ids=["malformed-field", "ragged-row"],
)
def test_a_malformed_line_after_an_invalid_row_is_reported_first(bad, message):
    """The invalid row 1 is in an earlier block than line 5; parsing wins,
    as when the whole text is parsed before it is validated."""
    text = "0.5,0.5\n2.0,0.0\n0.5,0.5\n0.5,0.5\n" + bad + "\n0.5,0.5\n"
    with mock.patch.object(channel_mod, "BLOCK_CELLS", 4):
        for read in (channel_mod.measure, channel_from_csv):
            with pytest.raises(SchemaError) as raised:
                read(text)
            assert str(raised.value) == f"channel CSV line 5: {message}"


@pytest.mark.parametrize("rows", [2, 4])
def test_a_channel_of_another_height_than_the_graph_is_refused_after_the_read(rows):
    graph = Graph.from_edges(3, [(0, 1), (1, 2)])
    with pytest.raises(InputError, match=f"graph has 3 vertices but channel has {rows} rows"):
        channel_mod.measure("0.5,0.5\n" * rows, graph)


def test_a_prior_of_another_length_is_refused_after_the_read():
    for rows in (1, 3):
        with pytest.raises(InputError, match=f"prior length 2 != input count {rows}"):
            channel_mod.measure("0.5,0.5\n" * rows, prior=Prior(np.array([0.5, 0.5])))


def test_streamed_ring_holds_the_bandwidth_not_the_channel():
    """A 512-row path channel read in blocks of 8 rows: the ring holds the
    block and one block before it, the path's bandwidth of 1 rounded up,
    not the channel."""
    graph = Graph.from_edges(512, [(i, i + 1) for i in range(511)])
    chan = graph_randomized_response(graph, 0.5)
    text = "".join(channel_to_csv(chan))
    with mock.patch.object(channel_mod, "BLOCK_CELLS", 8 * 512), mock.patch.object(
        channel_mod.np, "empty", wraps=np.empty
    ) as empty:
        found = channel_mod.measure(text, graph)
    ((shape,), _), = empty.call_args_list
    assert shape == (16, 512)
    assert found == channel_mod.measure(chan, graph)
    assert found.minimal_epsilon == oracle_minimal_epsilon(chan, graph)


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
    text = "".join(channel_to_csv(chan))
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
    text = "".join(channel_to_csv(chan))
    again = channel_from_csv(text)
    assert np.array_equal(again.probs, chan.probs)
    assert "".join(channel_to_csv(again)) == text


@pytest.mark.parametrize(
    "rows",
    [
        [[1.0]],
        [[-0.0, 1.0]],
        [[0.0, -0.0, 1.0, 0.0, -0.0]],
        [[5e-324, 1.0]],
        [[0.25, 0.25, 0.25, 0.25]],
        [[k / 55 for k in range(1, 11)]],
        [[0.5, 0.5, 0.0], [0.0, 0.5, 0.5], [1 / 3, 1 / 3, 1 / 3]],
    ],
    ids=["1x1", "negative-zero", "mixed-zeros", "subnormal", "1x4-repeated",
         "1x10-distinct", "3x3-repeats"],
)
def test_csv_writer_matches_per_entry_oracle(rows):
    chan = ChannelMatrix(np.array(rows))
    assert list(channel_to_csv(chan)) == oracle_channel_csv(chan).splitlines(keepends=True)


@st.composite
def channels_with_repeats(draw):
    """Channels whose rows mix repeated and distinct entries and both zeros."""
    rows = draw(st.integers(1, 5))
    cols = draw(st.integers(1, 8))
    weights = np.asarray(
        draw(
            st.lists(
                st.lists(
                    st.one_of(st.sampled_from([0.0, 1.0, 2.0]), st.floats(0.0, 1.0)),
                    min_size=cols,
                    max_size=cols,
                ),
                min_size=rows,
                max_size=rows,
            )
        )
    )
    weights[weights.sum(axis=1) == 0, 0] = 1.0
    probs = weights / weights.sum(axis=1, keepdims=True)
    flips = np.asarray(draw(st.lists(st.booleans(), min_size=probs.size, max_size=probs.size)))
    probs[(probs == 0) & flips.reshape(probs.shape)] = -0.0
    return ChannelMatrix(probs)


@given(channels_with_repeats())
@example(ChannelMatrix(np.full((1, 1), 1.0)))
def test_csv_writer_matches_per_entry_oracle_property(chan):
    assert "".join(channel_to_csv(chan)) == oracle_channel_csv(chan)


def test_csv_writer_reads_a_transposed_array_in_row_order():
    chan = ChannelMatrix(np.asfortranarray([[0.5, 0.5], [0.25, 0.75]]))
    assert "".join(channel_to_csv(chan)) == "0.5,0.5\n0.25,0.75\n"


def test_channel_csv_header_round_trip():
    text = "# a,b\n1.0,0.0\n0.0,1.0\n"
    again = channel_from_csv(text)
    assert np.array_equal(again.probs, np.eye(2))
    assert "".join(channel_to_csv(again)) == "1.0,0.0\n0.0,1.0\n"


def test_channel_csv_rejects_ragged_rows():
    with pytest.raises(SchemaError):
        channel_from_csv("0.5,0.5\n1.0\n")


def test_channel_csv_rejects_empty():
    with pytest.raises(SchemaError):
        channel_from_csv("")


def read_bits(read, source):
    """Shape and bit patterns of the rows ``read`` parses from ``source``, or
    SchemaError; the rows are not validated as a channel, so any float counts."""
    with mock.patch.object(channel_mod, "validate_channel", return_value=[]):
        try:
            probs = read(source).probs
        except SchemaError:
            return SchemaError
    return probs.shape, probs.view(np.int64).tolist()


@pytest.mark.parametrize(
    "text, accepted",
    [
        ("0.5,0.5\n\n0.5,0.5\n", True),
        ("0.5,0.5\n   \n", False),
        ("   \n0.5,0.5\n", False),
        ("0.5,0.5\n\t\n", False),
        ("# a,b\n0.5,0.5\n", True),
        ("0.5,0.5 # c\n0.5,0.5#c\n", True),
        ("  # c\n0.5,0.5\n", False),
        ("0.5,0.5\r\n0.5,0.5\r\n", True),
        ("1\r\n\r\n1\r", True),
        ("0.5\r,0.5\n", False),
        ('"0.5",0.5\n', True),
        ('" 0.5 ",0.5\n', True),
        ('"0.5" ,0.5\n', True),
        (' "0.5",0.5\n', False),
        ('"0.5,0.5"\n', False),
        ('""0.5"",0.5\n', False),
        ('"0.5"x,0.5\n', False),
        ("1_0\n", False),
        ("\u0661\n", False),
        ("0x1p-1,0.5\n", False),
        ("Infinity,0.5\n", True),
        ("+.5,0.5\n", True),
        ("5.e-1,0.5\n", True),
        (",1\n", False),
        ("1,\n1,\n", False),
        ("1,", False),
        (",", False),
        ("1,,\n", False),
        ("0.5,,0.5\n", False),
        ("\t0.5\t,0.5\n", True),
        ("\f0.5\f,\v0.5\xa0\n", True),
        ("0.5,0.5\n1.0\n", False),
        ("", False),
        ("\n# only a comment\n", False),
        ("\ufeff0.5,0.5\n", False),
        ("# \u00fcn\u00efc\u00f6d\u00e9 \u2713\n0.5,0.5 # \u2211\n", True),
    ],
    ids=[
        "blank-line", "whitespace-line-after", "whitespace-line-before", "tab-line",
        "comment-line", "trailing-comments", "padded-comment-line", "crlf",
        "crlf-blank-and-bare-cr-end", "cr-inside-line", "quoted", "quoted-padded",
        "quoted-then-space", "space-then-quoted", "quoted-comma", "doubled-quotes",
        "quoted-then-letter", "underscore", "arabic-indic-digit", "hex-float",
        "Infinity", "plus-point-five", "point-before-exponent", "empty-first-field",
        "trailing-commas", "lone-trailing-comma", "lone-comma", "doubled-trailing-comma",
        "empty-middle-field", "tab-padding",
        "form-feed-vtab-nbsp-padding", "ragged", "empty", "comments-only",
        "byte-order-mark", "non-ascii-comments",
    ],
)
@pytest.mark.parametrize("as_file", [False, True], ids=["str", "file"])
def test_csv_reader_matches_loadtxt_on_pinned_cases(text, accepted, as_file, tmp_path):
    path = tmp_path / "k.csv"
    path.write_bytes(text.encode("utf-8"))

    def outcome(read):
        if not as_file:
            return read_bits(read, text)
        with open(path, encoding="utf-8") as handle:
            return read_bits(read, handle)

    found = outcome(channel_from_csv)
    assert found == outcome(oracle_channel_from_csv)
    assert (found is not SchemaError) == accepted


@pytest.mark.parametrize("text", ["1,", ",", "1,,\n", ",1\n"])
def test_csv_reader_names_the_empty_field(text):
    """An empty field fails as a number, even where the text is too short
    for a row of the first row's width."""
    with pytest.raises(SchemaError, match="line 1: cannot read '' as a number"):
        channel_from_csv(text)


@pytest.mark.parametrize(
    "skip, line_end",
    [(skip, end) for end in ["\n", "\r\n", "\r"] for skip in ["readline", "next"]],
    ids=["readline", "next", "readline-crlf", "next-crlf", "readline-cr", "next-cr"],
)
def test_csv_reader_reads_a_file_from_where_it_stands(skip, line_end, tmp_path):
    """A file's ``\\r`` and ``\\r\\n`` line breaks are lines, as the text reader reads them."""
    path = tmp_path / "k.csv"
    path.write_bytes(line_end.join(["x,y,z", "0.25,0.75", "# c", "1.0,0.0", ""]).encode("utf-8"))

    def outcome(read):
        with open(path, encoding="utf-8") as handle:
            handle.readline() if skip == "readline" else next(handle)
            return read_bits(read, handle)

    found = outcome(channel_from_csv)
    assert found == outcome(oracle_channel_from_csv)
    assert found[0] == (2, 2)


def test_csv_reader_reads_a_file_that_cannot_seek():
    read_end, write_end = os.pipe()
    os.write(write_end, b"# a,b\n0.25,0.75\n1.0,0.0\n")
    os.close(write_end)
    with open(read_end, encoding="utf-8") as handle:
        assert not handle.seekable()
        chan = channel_from_csv(handle)
    assert chan.probs.tolist() == [[0.25, 0.75], [1.0, 0.0]]


def test_csv_reader_rejects_rows_the_counting_pass_did_not_see():
    class Changed(io.StringIO):
        def read(self, size=-1):  # the text looks empty when it is measured
            return ""

    with pytest.raises(SchemaError, match="more rows than the text held"):
        channel_from_csv(Changed("1.0\n"))


def test_csv_reader_rejects_bytes_that_are_not_utf8_inside_a_comment(tmp_path):
    path = tmp_path / "k.csv"
    path.write_bytes(b"0.5,0.5\n# \xff\n")
    for read in (channel_from_csv, oracle_channel_from_csv):
        with open(path, encoding="utf-8") as handle, pytest.raises(SchemaError):
            read(handle)


@pytest.mark.parametrize("text", ['"0.5\n",0.5\n', '0.5,"0.5'], ids=["line-break", "end"])
def test_csv_reader_rejects_a_quoted_field_left_open(text):
    """np.loadtxt carries an open quoted field over the line break (or to the
    end of the text) and reads these as [[0.5, 0.5]]; a channel number never
    spans lines, so the reader rejects them."""
    with pytest.raises(SchemaError, match="line 1"):
        channel_from_csv(text)


NUMBER_TEXTS = st.one_of(
    st.floats().map(repr),
    st.sampled_from(["Infinity", "-inf", "NaN", "-nan", "+.5", "5.e-1", "1E+5", "-0", "00.250"]),
)
ODD_TEXTS = st.sampled_from(
    ["", "1_0", "\u0661", "0x1p-1", "abc", ".", "e5", "1e", "+-1", "0.5\x00", '""0.5""', '"0.5"x',
     "0.5\r", '"0.5\r"']
)
PADDING = st.text(" \t\f\v\xa0\u2003", max_size=2)
COMMENTS = st.text(
    st.characters(blacklist_categories=("Cs",), blacklist_characters="\n"), max_size=4
)


@st.composite
def csv_fields(draw):
    """A field: a number or a bad token, padded, perhaps in one pair of quotes.
    Quotes come in pairs, so no field is left open at the end of its line."""
    token = draw(ODD_TEXTS if draw(st.integers(0, 5)) == 0 else NUMBER_TEXTS)
    field = draw(PADDING) + token + draw(PADDING)
    if draw(st.booleans()):
        field = '"' + field + '"' + draw(PADDING)
    return field


@st.composite
def csv_texts(draw):
    width = draw(st.integers(1, 4))
    lines = []
    for _ in range(draw(st.integers(0, 5))):
        kind = draw(st.sampled_from(["row", "row", "row", "ragged", "blank", "comment", "spaces"]))
        if kind in ("row", "ragged"):
            count = width if kind == "row" else draw(st.integers(1, 5))
            line = ",".join(draw(st.lists(csv_fields(), min_size=count, max_size=count)))
            if draw(st.booleans()):
                line += draw(PADDING) + "#" + draw(COMMENTS)
        else:
            line = {"blank": "", "comment": "#" + draw(COMMENTS), "spaces": draw(PADDING)}[kind]
        lines.append(line + draw(st.sampled_from(["\n", "\r\n"])))
    text = "".join(lines)
    return text[:-1] if text and draw(st.booleans()) else text


@given(csv_texts())
@settings(max_examples=400)
@example("-0.0,nan\n")
@example("1\r")
def test_csv_reader_matches_loadtxt_bit_for_bit(text):
    assert read_bits(channel_from_csv, text) == read_bits(oracle_channel_from_csv, text)


def product_channel_text(line_end="\n"):
    """CSV text of a 256 x 256 randomized-response channel of an
    unconstrained policy, whose entries take few distinct values."""
    from blowfish_privacy import distance_threshold_policy
    from blowfish_privacy.adjacency import product_distance_blocks

    blocks = product_distance_blocks(distance_threshold_policy([1, 2, 3, 4], 1, n=4), 2**16)
    dist = np.concatenate(list(blocks))
    lines = channel_to_csv(randomized_response(dist, 0.1))
    return "".join(line[:-1] + line_end for line in lines)


@pytest.mark.parametrize("as_file", [False, True], ids=["str", "file"])
def test_csv_reader_holds_one_array_and_no_copy_of_the_text(as_file, tmp_path):
    text = product_channel_text()
    path = tmp_path / "k.csv"
    path.write_text(text, encoding="utf-8")
    with open(path, encoding="utf-8") as handle:
        tracemalloc.start()
        try:
            chan = channel_from_csv(handle if as_file else text)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    probs = chan.probs
    assert probs.shape == (256, 256) and len(text) > 2 * probs.nbytes
    assert probs.base is None and not probs.flags.writeable
    # The array, validation's block temporaries and one line's fields: less
    # than a second 512 KiB array or a copy of the 1.4 MB text would add.
    assert peak < probs.nbytes + 2**18


@pytest.mark.parametrize("line_end", ["\n", "\r\n"], ids=["plain-lines", "crlf-lines"])
def test_csv_reader_parses_each_distinct_field_text_once(line_end):
    text = product_channel_text(line_end)
    parse = mock.Mock(wraps=channel_mod._field_number)
    with mock.patch.object(channel_mod, "_field_number", parse):
        chan = channel_from_csv(text)
    parsed = [texts for (texts,), _ in parse.call_args_list]
    distinct = {field for line in text.splitlines(keepends=True) for field in line.split(",")}
    assert len(parsed) == len(set(parsed)) == len(distinct) < chan.probs.size // 100


def test_csv_reader_forgets_parsed_fields_past_the_cache_size():
    """Rows of 256 texts of their own: at most ``CSV_CACHE_FIELDS`` of them
    stay parsed, not all 65,536."""
    rows = [[i + k / 1000 for k in range(256)] for i in range(256)]
    text = "".join(",".join(map(repr, row)) + "\n" for row in rows)
    with mock.patch.object(channel_mod, "CSV_CACHE_FIELDS", 256), mock.patch.object(
        channel_mod, "validate_channel", return_value=[]
    ):
        tracemalloc.start()
        try:
            chan = channel_from_csv(text)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    assert chan.probs.tolist() == rows
    assert peak < chan.probs.nbytes + 2**18


def test_csv_reader_sizes_the_array_by_the_text_not_its_lines():
    """A wide row among many comment lines: the array is sized by the
    characters the rows could fill, not one row per line."""
    text = "#\n" * 5000 + ",".join(["0.0"] * 999 + ["1.0"]) + "\n"
    with mock.patch.object(channel_mod.np, "empty", wraps=np.empty) as empty:
        chan = channel_from_csv(text)
    assert chan.probs.shape == (1, 1000)
    ((shape,), _), = empty.call_args_list
    assert shape == ((len(text) + 1) // 2000, 1000) and shape[0] < 10


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_prior_rejects_non_finite_entries(bad):
    with pytest.raises(InputError, match="non-finite"):
        Prior(np.array([0.5, bad, 0.5]))
