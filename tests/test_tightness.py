import math
from fractions import Fraction

import pytest

from blowfish_privacy import (
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
from blowfish_privacy.graphcore import components_and_diameters
from blowfish_privacy.tightness import closed_form_leakage_bits, sweep_to_csv


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
    assert graph.degree_sequence() == (1,) * 8 + (3,) * 4


@pytest.mark.parametrize("n", [2, 3, 6])
def test_graph_never_regular(n):
    degrees = set(sharpness_graph(n).degree_sequence())
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
