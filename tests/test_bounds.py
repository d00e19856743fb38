import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from blowfish_privacy import (
    ChannelMatrix,
    Graph,
    InputError,
    audit,
    complete_policy,
    custom_policy,
    cycle_policy,
    distance_threshold_policy,
    embed_graph_as_policy,
    graph_randomized_response,
    induce_adjacency_graph,
    leakage,
    leakage_upper_bound,
    unconstrained_audit,
)
from blowfish_privacy.bounds import component_bound_bits
from blowfish_privacy.graphcore import components_and_diameters
from blowfish_privacy.reporting import render_report

from helpers import small_policies

LOG2E = math.log2(math.e)


@pytest.fixture(scope="module")
def path16_policy():
    return distance_threshold_policy([1, 2, 3, 4], 1, n=2)


@pytest.fixture(scope="module")
def path16_graph(path16_policy):
    return induce_adjacency_graph(path16_policy).to_graph()


def test_min_entropy_lower_bound_16_vertex_example(path16_policy):
    # single component of diameter 6 on 16 inputs at eps = 0.1
    expected = 4.0 - 0.6 * LOG2E
    assert audit(path16_policy, 0.1).min_entropy_lower_bits == pytest.approx(expected, abs=1e-12)


def test_min_entropy_lower_bound_edgeless():
    graph = Graph.from_edges(4, [])
    report = audit(embed_graph_as_policy(graph), 1.3)
    assert report.min_entropy_lower_bits == pytest.approx(0.0, abs=1e-12)
    assert leakage_upper_bound(graph, 1.3) == pytest.approx(2.0, abs=1e-12)


def test_zero_epsilon_gives_full_entropy_floor(path16_policy, path16_graph):
    assert audit(path16_policy, 0.0).min_entropy_lower_bits == pytest.approx(4.0, abs=1e-12)
    assert leakage_upper_bound(path16_graph, 0.0) == pytest.approx(0.0, abs=1e-12)


def test_leakage_upper_bound_sharpness_shape():
    # n components of diameter 1 at eps = ln(1 + delta) gives log2(n(1+delta))
    from blowfish_privacy import sharpness_graph

    for n in (2, 4):
        delta = 0.5
        graph = sharpness_graph(n)
        bound = leakage_upper_bound(graph, math.log1p(delta))
        assert bound == pytest.approx(math.log2(n * (1 + delta)), abs=1e-12)


def test_leakage_upper_bound_complete_secrets():
    for m, n in [(3, 2), (4, 2), (4, 3)]:
        report = unconstrained_audit(complete_policy(m, n=n), 0.7)
        assert report.leakage_upper_bits == pytest.approx(n * 0.7 * LOG2E, abs=1e-12)
        assert report.max_diameter == n


def test_leakage_upper_bound_cycle_secrets():
    pol = cycle_policy(6, n=2)
    closed = unconstrained_audit(pol, 0.3)
    assert closed.max_diameter == 6
    assert closed.leakage_upper_bits == pytest.approx(6 * 0.3 * LOG2E, abs=1e-12)
    graph = induce_adjacency_graph(pol).to_graph()
    comps = components_and_diameters(graph)
    assert comps.count == 1
    assert max(comps.diameters) == 6
    assert leakage_upper_bound(graph, 0.3) == pytest.approx(closed.leakage_upper_bits, abs=1e-9)


def test_consistency_identity(path16_policy, path16_graph):
    for eps in (0.0, 0.1, 0.9, 2.3):
        upper = leakage_upper_bound(path16_graph, eps)
        report = audit(path16_policy, eps)
        assert report.min_entropy_lower_bits == math.log2(16) - report.leakage_upper_bits
        assert report.leakage_upper_bits == pytest.approx(upper, abs=1e-12)
        assert abs(report.min_entropy_lower_bits + upper - 4.0) <= 1e-12


def test_component_bound_rejects_negative_epsilon():
    for bad in (-0.1, math.nan):
        with pytest.raises(InputError):
            component_bound_bits((1,), bad)


@given(
    eps=st.floats(0.01, 2.0),
    gap=st.floats(1e-6, 1.0),
    diameters=st.lists(st.integers(0, 6), min_size=1, max_size=4),
)
def test_monotone_in_epsilon(eps, gap, diameters):
    b_lo = component_bound_bits(diameters, eps)
    b_hi = component_bound_bits(diameters, eps + gap)
    if any(d >= 1 for d in diameters):
        assert b_hi > b_lo
    else:
        assert b_hi == b_lo


@given(
    eps=st.floats(0.01, 2.0),
    diameters=st.lists(st.integers(0, 6), min_size=1, max_size=4),
    bump=st.integers(0, 3),
    which=st.integers(0, 3),
)
def test_monotone_in_diameters(eps, diameters, bump, which):
    grown = list(diameters)
    grown[which % len(grown)] += bump
    assert component_bound_bits(grown, eps) >= component_bound_bits(diameters, eps)


def test_audit_without_channel():
    pol = distance_threshold_policy([1, 2, 3, 4], 1, n=2)
    report = audit(pol, 0.1)
    assert report.input_count == 16
    assert report.component_count == 1
    assert report.max_diameter == 6
    assert report.leakage_upper_bits == pytest.approx(0.6 * LOG2E, abs=1e-12)
    assert report.bounds_hold is None
    assert "leakage_upper_bits: 0.865617" in render_report(report)


def test_audit_with_channel_margins():
    pol = distance_threshold_policy([1, 2, 3, 4], 1, n=2)
    graph = induce_adjacency_graph(pol).to_graph()
    chan = graph_randomized_response(graph, 0.1)
    report = audit(pol, 0.1, channel=chan)
    assert report.bounds_hold is True
    assert report.measured_epsilon <= 0.1 + 1e-12
    assert report.leakage_margin_bits > 0
    assert report.min_entropy_margin_bits > 0
    assert report.measured_leakage_bits <= report.leakage_upper_bits_at_measured + 1e-9


def test_audit_channel_row_mismatch():
    pol = distance_threshold_policy([1, 2, 3, 4], 1, n=2)
    with pytest.raises(InputError):
        audit(pol, 0.1, channel=ChannelMatrix(np.eye(2)))


def test_audit_reports_unbounded_for_non_private_channel():
    pol = complete_policy(2, n=1)
    report = audit(pol, 0.5, channel=ChannelMatrix(np.eye(2)))
    assert math.isinf(report.measured_epsilon)
    assert report.bounds_hold is True
    assert not math.isfinite(report.leakage_upper_bits) or math.isinf(
        report.leakage_upper_bits_at_measured
    )
    assert "unbounded" in render_report(report)

    path = distance_threshold_policy([1, 2, 3, 4], 1, n=2)
    report = audit(path, 0.5, channel=ChannelMatrix(np.eye(16)))
    assert render_report(report) == (
        "epsilon: 0.5\n"
        "input_count: 16\n"
        "component_count: 1\n"
        "max_diameter: 6\n"
        "min_entropy_lower_bits: -0.3280851226668906\n"
        "leakage_upper_bits: 4.328085122666891\n"
        "measured_epsilon: inf\n"
        "measured_leakage_bits: 4.0\n"
        "measured_cond_min_entropy_bits: 0.0\n"
        "leakage_upper_bits_at_measured: unbounded\n"
        "min_entropy_lower_bits_at_measured: unbounded\n"
        "leakage_margin_bits: inf\n"
        "min_entropy_margin_bits: inf\n"
        "bounds_hold: true\n"
    )


def test_single_record_complete_policy_is_dp_case():
    report = unconstrained_audit(complete_policy(4, n=1), 0.4)
    assert report.max_diameter == 1
    assert report.leakage_upper_bits == pytest.approx(0.4 * LOG2E, abs=1e-12)


@settings(max_examples=40)
@given(small_policies(max_tuples=3, max_n=2, allow_constrained=False))
def test_closed_form_matches_induced_bounds(pol):
    closed = audit(pol, 0.8)
    graph = induce_adjacency_graph(pol).to_graph()
    comps = components_and_diameters(graph)
    assert closed.input_count == graph.vertex_count
    assert closed.component_count == comps.count
    assert closed.max_diameter == max(comps.diameters)
    assert closed.leakage_upper_bits == pytest.approx(
        component_bound_bits(comps.diameters, 0.8), abs=1e-9
    )


def test_unconstrained_audit_rejects_constrained():
    pol = complete_policy(2, n=1, permissible=[("1",), ("2",)])
    with pytest.raises(InputError):
        unconstrained_audit(pol, 0.5)


def test_bound_report_for_graph_diameters():
    graph = Graph.from_edges(5, [(0, 1), (1, 2)])
    # A constrained single-record policy whose induced graph is ``graph``.
    pol = custom_policy(
        [str(v) for v in range(5)],
        [("0", "1"), ("1", "2")],
        n=1,
        permissible=[(str(v),) for v in range(5)],
    )
    assert induce_adjacency_graph(pol).to_graph() == graph
    report = audit(pol, 0.2)
    comps = components_and_diameters(graph)
    assert report.diameters == comps.diameters
    assert report.component_count == 3
