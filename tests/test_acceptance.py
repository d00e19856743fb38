"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines; every criterion asserts its stated tolerance and runtime budget.
"""

import math
import time
import warnings
from dataclasses import dataclass
from itertools import product

import numpy as np

from blowfish_privacy import (
    CapExceededError,
    ChannelMatrix,
    Graph,
    PermutationGroup,
    automorphism_group,
    complete_policy,
    compose,
    custom_policy,
    distance_threshold_policy,
    embed_graph_as_policy,
    graph_randomized_response,
    induce_adjacency_graph,
    leakage,
    lift_policy_automorphisms,
    minimal_epsilon,
    orbits,
    stabiliser,
    transporter,
    unconstrained_audit,
)
from blowfish_privacy.adjacency import AdjacencyAsymmetryWarning
from blowfish_privacy.bounds import component_bound_bits
from blowfish_privacy.graphcore import components_and_diameters
from blowfish_privacy.symmetrise import diagonal_maximise, group_average
from blowfish_privacy.tightness import build_sharpness_instance

from helpers import generate_group_greedy, induce_by_definition, oracle_adjacency_edges

LOG2E = math.log2(math.e)


def run_criterion(number, description, limit_seconds, body):
    started = time.perf_counter()
    try:
        body()
    except BaseException:
        print(f"criterion {number} [{description}]: FAIL", flush=True)
        raise
    elapsed = time.perf_counter() - started
    assert elapsed < limit_seconds, (
        f"criterion {number} exceeded its {limit_seconds}s budget ({elapsed:.2f}s)"
    )
    print(
        f"criterion {number} [{description}]: PASS ({elapsed:.2f}s)", flush=True
    )


# ---------------------------------------------------------------------------
# Shared randomized cases (criteria 4 and 5)


@dataclass
class RandomCase:
    policy: object
    adjacency: object
    graph: Graph
    epsilon: float
    channel: ChannelMatrix


_CASES: list[RandomCase] | None = None


def random_cases() -> list[RandomCase]:
    global _CASES
    if _CASES is not None:
        return _CASES
    rng = np.random.default_rng(20260810)
    cases = []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", AdjacencyAsymmetryWarning)
        while len(cases) < 200:
            m = int(rng.integers(2, 5))
            labels = [str(i + 1) for i in range(m)]
            pairs = [
                (labels[i], labels[j]) for i in range(m) for j in range(i + 1, m)
            ]
            edges = [p for p in pairs if rng.random() < 0.5]
            n = int(rng.integers(1, 4))
            permissible = None
            if rng.random() < 0.5:
                all_dbs = list(product(labels, repeat=n))
                size = int(rng.integers(2, min(12, len(all_dbs)) + 1))
                chosen = rng.choice(len(all_dbs), size=size, replace=False)
                permissible = [all_dbs[int(k)] for k in sorted(chosen)]
            policy = custom_policy(labels, edges, n=n, permissible=permissible)
            adjacency = induce_adjacency_graph(policy)
            graph = adjacency.to_graph()
            epsilon = float(rng.uniform(0.05, 2.0))
            channel = graph_randomized_response(graph, epsilon)
            cases.append(RandomCase(policy, adjacency, graph, epsilon, channel))
    _CASES = cases
    return cases


def subgroup_for(case: RandomCase, budget: int = 1536) -> PermutationGroup:
    graph = case.graph
    if case.policy.unconstrained:
        generators = lift_policy_automorphisms(case.policy, case.adjacency)
        return generate_group_greedy(
            generators, cap=budget, degree=graph.vertex_count
        )
    try:
        full = automorphism_group(graph, vertex_cap=12, element_cap=20000)
        if full.order <= budget:
            return full
    except CapExceededError:
        return PermutationGroup(graph.vertex_count)
    return generate_group_greedy(full.generators, cap=budget, degree=graph.vertex_count)


# ---------------------------------------------------------------------------
# Criteria


def test_criterion_1_sixteen_vertex_induction():
    def body():
        policy = distance_threshold_policy([1, 2, 3, 4], 1, n=2)
        fast = induce_adjacency_graph(policy)
        definition = induce_by_definition(policy)
        assert len(fast.vertices) == 16
        assert fast.edges == definition.edges
        assert definition.asymmetric_pairs == ()
        expected = oracle_adjacency_edges(
            policy.secret_graph.edges, list(fast.vertices)
        )
        assert set(fast.edges) == expected
        comps = components_and_diameters(fast.to_graph())
        assert comps.count == 1
        assert comps.diameters == (6,)
        assert 6 == policy.n * 3  # n times the secret-graph diameter

    run_criterion(1, "16-database adjacency graph, fast path vs oracle", 1.0, body)


def test_criterion_2_threshold_bound_curves():
    def body():
        epsilon = 0.1
        diameter_for_theta = {1: 3, 2: 2, 3: 1}
        bounds = {}
        for theta, diameter in diameter_for_theta.items():
            for n in range(1, 9):
                policy = distance_threshold_policy([1, 2, 3, 4], theta, n=n)
                report = unconstrained_audit(policy, epsilon)
                expected = n * diameter * epsilon * LOG2E
                assert abs(report.leakage_upper_bits - expected) <= 1e-12
                assert report.component_count == 1
                assert report.max_diameter == n * diameter
                bounds[(theta, n)] = report.leakage_upper_bits
        for n in range(1, 9):
            assert bounds[(1, n)] > bounds[(2, n)] > bounds[(3, n)]

    run_criterion(2, "threshold bound curves, slopes 3/2/1 per record", 5.0, body)


def test_criterion_3_tightness_family():
    def body():
        delta = 1e-4
        for n in (2, 4, 8):
            inst = build_sharpness_instance(n, delta)
            assert abs(inst.ratio - 1.0) <= 1e-3
            assert abs(inst.measured_epsilon - math.log1p(delta)) <= 1e-12
            assert inst.closed_form_gap <= 1e-12

    run_criterion(3, "sharpness family ratio within 1e-3 of 1", 1.0, body)


def test_criterion_4_bound_dominance_and_entropy_floor():
    def body():
        cases = random_cases()
        assert len(cases) == 200
        for case in cases:
            comps = components_and_diameters(case.graph)
            upper = component_bound_bits(comps.diameters, case.epsilon)
            lower = math.log2(case.graph.vertex_count) - upper
            report = leakage(case.channel)
            assert report.leakage_bits <= upper + 1e-9
            assert report.conditional_min_entropy_bits >= lower - 1e-9

    run_criterion(4, "bound dominance and min-entropy floor on 200 cases", 30.0, body)


def test_criterion_5_symmetrisation_suite():
    def body():
        for case in random_cases():
            graph = case.graph
            group = subgroup_for(case)

            grouped, _ = diagonal_maximise(case.channel, graph)
            averaged_full = group_average(grouped, group, strategy="full")
            averaged_orbit = group_average(grouped, group, strategy="orbit")
            assert (
                float(np.max(np.abs(averaged_full.probs - averaged_orbit.probs)))
                <= 1e-12
            )
            averaged = averaged_full

            leak_in = leakage(case.channel).leakage_bits
            assert abs(leakage(grouped).leakage_bits - leak_in) <= 1e-9
            assert abs(leakage(averaged).leakage_bits - leak_in) <= 1e-9

            eps_in = minimal_epsilon(case.channel, graph)
            eps_grouped = minimal_epsilon(grouped, graph)
            eps_averaged = minimal_epsilon(averaged, graph)
            assert eps_grouped <= eps_in + 1e-12
            assert eps_averaged <= eps_grouped + 1e-12

            for j in range(graph.vertex_count):
                assert grouped.probs[j, j] >= grouped.probs[:, j].max() - 1e-12
                assert averaged.probs[j, j] >= averaged.probs[:, j].max() - 1e-12

            diagonal = np.diag(averaged.probs)
            for orbit in orbits(group).orbits:
                values = diagonal[list(orbit)]
                assert float(values.max() - values.min()) <= 1e-12

    run_criterion(5, "symmetrisation chain on the same 200 channels", 60.0, body)


def test_criterion_6_group_theory_laws():
    def body():
        rng = np.random.default_rng(42)
        for _ in range(30):
            count = int(rng.integers(2, 7))
            edges = [
                (i, j)
                for i in range(count)
                for j in range(i + 1, count)
                if rng.random() < 0.5
            ]
            graph = Graph.from_edges(count, edges)
            group = automorphism_group(graph)
            partition = orbits(group)
            for u in range(count):
                stab_u = set(stabiliser(group, u))
                orbit_size = len(partition.orbits[partition.orbit_index[u]])
                assert len(stab_u) * orbit_size == group.order
                for v in range(count):
                    trans = set(transporter(group, u, v))
                    if not trans:
                        assert partition.orbit_index[u] != partition.orbit_index[v]
                        continue
                    sigma = min(trans)
                    stab_v = set(stabiliser(group, v))
                    assert trans == {compose(sigma, gamma) for gamma in stab_u}
                    assert trans == {compose(gamma, sigma) for gamma in stab_v}
                    assert len(trans) == len(stab_u) == len(stab_v)
                    assert len(trans) * orbit_size == group.order

    run_criterion(6, "coset and orbit-stabiliser laws on random graphs", 10.0, body)


def test_criterion_7_arbitrary_graph_embedding():
    def body():
        rng = np.random.default_rng(7)
        for _ in range(100):
            count = int(rng.integers(1, 9))
            edges = [
                (i, j)
                for i in range(count)
                for j in range(i + 1, count)
                if rng.random() < 0.4
            ]
            graph = Graph.from_edges(count, edges)
            policy = embed_graph_as_policy(graph)
            induced = induce_adjacency_graph(policy)
            assert induced.to_graph().edges == graph.edges

    run_criterion(7, "embedding round-trip on 100 random graphs", 5.0, body)


def test_criterion_8_differential_privacy_special_case():
    def body():
        epsilon = 0.7
        for m, n in [(3, 1), (3, 2), (4, 2), (2, 3)]:
            policy = complete_policy(m, n=n)
            adjacency = induce_adjacency_graph(policy)
            hamming = {
                (i, j)
                for i, a in enumerate(adjacency.vertices)
                for j in range(i + 1, len(adjacency.vertices))
                if sum(x != y for x, y in zip(a, adjacency.vertices[j])) == 1
            }
            assert set(adjacency.edges) == hamming
            comps = components_and_diameters(adjacency.to_graph())
            assert comps.count == 1
            assert comps.diameters == (n,)
            report = unconstrained_audit(policy, epsilon)
            assert abs(report.leakage_upper_bits - n * epsilon * LOG2E) <= 1e-12

    run_criterion(8, "differential-privacy case: one-record adjacency, n*eps*log2(e)", 10.0, body)
