import math
import tracemalloc
from fractions import Fraction

import numpy  # noqa: F401  imported before any tracing, so its own allocations never count
import pytest
from hypothesis import given, settings, strategies as st

from blowfish_privacy import (
    ChannelMatrix,
    InputError,
    build_sharpness_instance,
    leakage,
    leakage_upper_bound,
    minimal_epsilon,
    sharpness_channel,
    sharpness_graph,
    sharpness_ratio,
    sharpness_sweep,
)
from blowfish_privacy import tightness
from blowfish_privacy.graphcore import components_and_diameters
from blowfish_privacy.tightness import closed_form_leakage_bits, sweep_to_csv

from helpers import degree_sequence


def closed_form_fraction(n, delta):
    d = Fraction(delta)
    return (4 * (1 + d) + (2 * n - 2) * (2 + 2 * d)) / (4 + 2 * d)


def test_graph_n2_shape():
    graph = sharpness_graph(2)
    assert graph.vertex_count == 6
    assert graph.edge_count == 7
    comps = components_and_diameters(graph)
    assert comps.count == 2
    assert comps.diameters == (1, 1)


def test_graph_n5_degree_sequence():
    graph = sharpness_graph(5)
    assert graph.vertex_count == 12
    assert degree_sequence(graph) == (1,) * 8 + (3,) * 4


@pytest.mark.parametrize("n", [2, 3, 6])
def test_graph_never_regular(n):
    degrees = set(degree_sequence(sharpness_graph(n)))
    assert degrees == {1, 3}


def test_graph_components_all_diameter_one():
    comps = components_and_diameters(sharpness_graph(4))
    assert comps.count == 4
    assert comps.diameters == (1, 1, 1, 1)


def test_channel_first_row_n2_delta1():
    chan = sharpness_channel(2, 1.0)
    assert chan.probs[0].tolist() == [
        pytest.approx(2 / 6, rel=1e-15),
        pytest.approx(2 / 6, rel=1e-15),
        pytest.approx(1 / 6, rel=1e-15),
        pytest.approx(1 / 6, rel=1e-15),
        0.0,
        0.0,
    ]


def test_channel_circulant_structure():
    chan = sharpness_channel(2, 0.5)
    high = float(Fraction(3, 2) / 5)
    low = float(1 / Fraction(5))
    for r in range(4):
        for c in range(4):
            expected = high if (c - r) % 4 in (0, 1) else low
            assert chan.probs[r, c] == expected


def test_channel_epsilon_is_log1p_delta():
    for n, delta in [(2, 1.0), (3, 0.25), (5, 1e-4)]:
        graph = sharpness_graph(n)
        chan = sharpness_channel(n, delta)
        assert minimal_epsilon(chan, graph) == pytest.approx(
            math.log1p(delta), abs=1e-12
        )


def test_channel_leakage_matches_closed_form_n2_delta1():
    chan = sharpness_channel(2, 1.0)
    measured = leakage(chan).leakage_bits
    assert measured == pytest.approx(math.log2(8 / 3), abs=1e-12)
    assert closed_form_leakage_bits(2, 1.0) == pytest.approx(measured, abs=1e-12)


def test_ratio_n2_delta1():
    bound, leak, ratio = sharpness_ratio(2, 1.0)
    assert bound == pytest.approx(2.0, abs=1e-12)
    assert leak == pytest.approx(math.log2(8 / 3), abs=1e-12)
    assert ratio == pytest.approx(2.0 / math.log2(8 / 3), abs=1e-12)


def test_ratio_tends_to_one():
    _, _, ratio = sharpness_ratio(2, 1e-4)
    assert abs(ratio - 1.0) < 1e-3
    previous = None
    for delta in (1.0, 0.1, 0.01, 0.001, 1e-6):
        _, _, ratio = sharpness_ratio(3, delta)
        assert ratio > 1.0
        if previous is not None:
            assert ratio < previous
        previous = ratio


@pytest.mark.parametrize("n", [2, 512])
@pytest.mark.parametrize("delta", [1e306, 9e307, 1e308])
def test_bound_stays_finite_where_the_product_overflows(n, delta):
    """``n * (1 + delta)`` can pass the float range; the log2 of that exact
    integer cannot."""
    bound, leak, ratio = sharpness_ratio(n, delta)
    assert bound == pytest.approx(math.log2(n * (1 + int(delta))), rel=1e-15)
    assert math.isfinite(ratio) and ratio == bound / leak


def test_bound_dominates_leakage_each_instance():
    for n in (2, 3, 5):
        for delta in (2.0, 0.5, 1e-3):
            inst = build_sharpness_instance(n, delta)
            assert inst.bound_bits >= inst.leakage_bits
            assert inst.measured_epsilon == pytest.approx(
                math.log1p(delta), abs=1e-12
            )
            assert inst.closed_form_gap <= 1e-12
            graph_bound = leakage_upper_bound(inst.graph, inst.measured_epsilon)
            assert inst.measured_leakage_bits <= graph_bound + 1e-9


def test_instance_measured_matches_closed_form():
    inst = build_sharpness_instance(4, 0.125)
    expected = math.log2(float(closed_form_fraction(4, 0.125)))
    assert inst.measured_leakage_bits == pytest.approx(expected, abs=1e-12)
    assert inst.leakage_bits == pytest.approx(expected, abs=1e-12)


def test_sweep_rows_and_order():
    instances = sharpness_sweep([2], [1.0, 0.1, 0.01])
    assert [i.delta for i in instances] == [1.0, 0.1, 0.01]
    ratios = [i.ratio for i in instances]
    assert ratios == sorted(ratios, reverse=True)
    assert all(r > 1 for r in ratios)


def test_sweep_small_deltas_near_one():
    for inst in sharpness_sweep([2, 4, 8], [1e-4]):
        assert abs(inst.ratio - 1.0) <= 1e-3


def test_sweep_holds_one_channel_at_a_time():
    """Four 1,026 x 1,026 channels (8.4 MB each): the sweep's peak stays
    within one of them plus the measuring temporaries."""
    tracemalloc.start()
    try:
        instances = sharpness_sweep([512], [1.0, 0.1, 0.01, 0.001])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert [inst.delta for inst in instances] == [1.0, 0.1, 0.01, 0.001]
    assert all(inst.closed_form_gap <= 1e-12 for inst in instances)
    assert peak <= 1.25 * 1026**2 * 8


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 64), st.floats(1e-300, 1e300))
def test_instance_measures_what_the_dense_channel_gives(n, delta):
    """The 6x6 kernel stands for the dense (2n+2)^2 channel bit for bit."""
    inst = build_sharpness_instance(n, delta)
    dense = sharpness_channel(n, delta)
    assert inst.measured_epsilon == minimal_epsilon(dense, sharpness_graph(n))
    assert inst.measured_leakage_bits == leakage(dense).leakage_bits


def test_sweep_builds_no_dense_channel():
    """Four instances at n = 512 stand for 1,026 x 1,026 channels (8.4 MB
    each); the sweep measures them within 1 MiB."""
    tracemalloc.start()
    try:
        instances = sharpness_sweep([512], [1.0, 0.1, 0.01, 0.001])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert all(inst.closed_form_gap <= 1e-12 for inst in instances)
    assert peak < 2**20


@settings(max_examples=200, deadline=None)
@given(st.integers(2, 10**4), st.floats(1e-300, 1e300))
def test_maxima_summed_by_multiplicity_equal_their_fsum(n, delta):
    """The dense column maxima summed once each by ``fsum``, as a list of
    2n + 2, give the measured leakage to the bit."""
    maxima = [max(column) for column in zip(*tightness._kernel_rows(delta))]
    listed = tightness.uniform_leakage(maxima[:4] + maxima[4:] * (n - 1), 2 * n + 2)
    assert build_sharpness_instance(n, delta).measured_leakage_bits == listed.leakage_bits


def test_an_instance_holds_no_list_of_its_maxima():
    """n = 10^7 stands for 2 * 10^7 column maxima; the instance is measured
    within 1 MiB."""
    tracemalloc.start()
    try:
        inst = build_sharpness_instance(10**7, 0.1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert inst.closed_form_gap <= 1e-12
    assert peak < 2**20


def test_an_invalid_kernel_is_refused_as_the_channel_refuses_it(monkeypatch):
    """The kernel rows get the exact scan ChannelMatrix gives, and the same
    error text."""
    bad = tightness._kernel_rows(0.5)
    bad[1][2], bad[5][5] = -0.25, math.nan
    monkeypatch.setattr(tightness, "_kernel_rows", lambda delta: bad)
    with pytest.raises(InputError) as built:
        build_sharpness_instance(3, 0.5)
    with pytest.raises(InputError) as direct:
        ChannelMatrix(bad)
    assert str(built.value) == str(direct.value)
    assert str(built.value).startswith("invalid channel matrix (4 violation(s): range@row 1 col 2")


def test_sweep_keeps_input_order_and_checks_before_building(monkeypatch):
    instances = sharpness_sweep([4, 2, 4], [1.0, 0.5])
    assert [(i.n, i.delta) for i in instances] == [
        (4, 1.0), (4, 0.5), (2, 1.0), (2, 0.5), (4, 1.0), (4, 0.5)
    ]
    assert instances == [build_sharpness_instance(i.n, i.delta) for i in instances]
    built = []
    monkeypatch.setattr(
        "blowfish_privacy.tightness.build_sharpness_instance",
        lambda n, delta: built.append(n),
    )
    with pytest.raises(InputError, match="got 1"):
        sharpness_sweep([512, 1, 0], [0.5])
    assert built == []


def test_sweep_empty():
    assert sharpness_sweep([], [1.0]) == []
    assert sharpness_sweep([2], []) == []


def test_sweep_csv_shape():
    text = sweep_to_csv(sharpness_sweep([2, 4], [1.0, 0.5]))
    lines = text.strip().split("\n")
    assert lines[0] == "n,delta,epsilon,bound_bits,leakage_bits,ratio,closed_form_gap"
    assert len(lines) == 5


@pytest.mark.parametrize("n,delta", [(1, 0.5), (0, 1.0), (2, 0.0), (2, -1.0), (2, math.inf)])
def test_rejects_bad_parameters(n, delta):
    with pytest.raises(InputError):
        sharpness_ratio(n, delta)
    with pytest.raises(InputError):
        build_sharpness_instance(n, delta)
