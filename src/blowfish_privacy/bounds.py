"""Min-entropy and leakage bounds over database adjacency graphs.

For a channel private at level epsilon whose adjacency graph has components
with diameters ``d_t``, the uniform-prior conditional min-entropy is at
least ``-log2((1/l) * sum_t exp(eps * d_t))`` bits and the min-entropy
leakage (under any prior) is at most ``log2(sum_t exp(eps * d_t))`` bits.
The two quantities always add up to ``log2(l)``.

Bounds are evaluated in bits with natural-exponent epsilon terms, so the
connected case reads ``n * d * eps * log2(e)``.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Sequence, TextIO

from .adjacency import induce_adjacency_graph
from .channel import ChannelMatrix, measure
from .errors import InputError
from .graphcore import Graph, components_and_diameters
from .policy import BlowfishPolicy, DEFAULT_DATABASE_CAP, permissible_size

DOMINANCE_TOLERANCE = 1e-9

_LN2 = math.log(2.0)


def component_bound_bits(diameters: Sequence[int], epsilon: float) -> float:
    """``log2(sum_t exp(epsilon * d_t))`` evaluated stably."""
    if not epsilon >= 0:
        raise InputError(f"epsilon must be non-negative, got {epsilon}")
    if not diameters:
        raise InputError("at least one component is required")
    terms = [epsilon * d if d else 0.0 for d in diameters]
    peak = max(terms)
    if math.isinf(peak):
        return math.inf
    total = math.fsum(math.exp(t - peak) for t in terms)
    return (peak + math.log(total)) / _LN2


def leakage_upper_bound(graph: Graph, epsilon: float) -> float:
    """Upper bound (bits) on min-entropy leakage of any epsilon-private channel."""
    return component_bound_bits(components_and_diameters(graph).diameters, epsilon)


def min_entropy_lower_bound(graph: Graph, epsilon: float) -> float:
    """Lower bound (bits) on uniform-prior conditional min-entropy."""
    return math.log2(graph.vertex_count) - leakage_upper_bound(graph, epsilon)


class BoundReport(NamedTuple):
    """Bound evaluation for a policy, optionally audited against a channel."""

    epsilon: float
    input_count: int
    component_count: int
    max_diameter: int
    min_entropy_lower_bits: float
    leakage_upper_bits: float
    diameters: tuple[int, ...] | None = None
    measured_epsilon: float | None = None
    measured_leakage_bits: float | None = None
    measured_cond_min_entropy_bits: float | None = None
    leakage_upper_bits_at_measured: float | None = None
    min_entropy_lower_bits_at_measured: float | None = None
    leakage_margin_bits: float | None = None
    min_entropy_margin_bits: float | None = None
    bounds_hold: bool | None = None


def unconstrained_audit(policy: BlowfishPolicy, epsilon: float) -> BoundReport:
    """Closed-form bound for unconstrained policies, without inducing the graph.

    Adjacency components correspond to per-record choices of secret-graph
    components, and geodesic distance is the per-record sum, so the bound
    term is the n-th power of the secret graph's own term:
    ``bound_bits = n * log2(sum_t exp(eps * d_t))`` over secret-graph
    component diameters ``d_t``.
    """
    if not policy.unconstrained:
        raise InputError("closed-form bounds require an unconstrained permissible set")
    comps = components_and_diameters(policy.secret_graph.index_graph)
    per_record = component_bound_bits(comps.diameters, epsilon)
    upper = policy.n * per_record
    ell = permissible_size(policy)
    return BoundReport(
        epsilon=epsilon,
        input_count=ell,
        component_count=comps.count ** policy.n,
        max_diameter=policy.n * max(comps.diameters),
        min_entropy_lower_bits=math.log2(ell) - upper,
        leakage_upper_bits=upper,
        diameters=None,
    )


def audit(
    policy: BlowfishPolicy,
    epsilon: float,
    channel: ChannelMatrix | str | TextIO | None = None,
    cap: int = DEFAULT_DATABASE_CAP,
) -> BoundReport:
    """Evaluate the bounds for ``policy`` at ``epsilon``.

    Unconstrained policies use the closed form of :func:`unconstrained_audit`;
    constrained ones use the component diameters of the induced adjacency
    graph. The graph (capped at ``cap`` databases) is induced only for a
    constrained policy or to measure a channel.

    With a channel (a :class:`ChannelMatrix`, or the text or an open file of
    a channel CSV, streamed once the graph is induced), additionally
    measure its minimal epsilon and uniform leakage in one pass of
    :func:`channel.measure`, re-evaluate the bounds at the measured level,
    and verify that measured leakage and conditional min-entropy respect
    them (1e-9 slack).
    A channel that is private for no finite epsilon is reported with
    unbounded margins rather than rejected.
    """
    graph = None
    if channel is not None or not policy.unconstrained:
        graph = induce_adjacency_graph(policy, cap=cap).to_graph()
    if policy.unconstrained:
        report = unconstrained_audit(policy, epsilon)
    else:
        comps = components_and_diameters(graph)
        upper = component_bound_bits(comps.diameters, epsilon)
        report = BoundReport(
            epsilon=epsilon,
            input_count=graph.vertex_count,
            component_count=comps.count,
            max_diameter=max(comps.diameters),
            min_entropy_lower_bits=math.log2(graph.vertex_count) - upper,
            leakage_upper_bits=upper,
            diameters=comps.diameters,
        )
    if channel is None:
        return report

    found = measure(channel, graph)
    measured_eps, measured = found.minimal_epsilon, found.leakage
    if math.isinf(measured_eps):
        upper_at = math.inf
    elif policy.unconstrained:
        upper_at = unconstrained_audit(policy, measured_eps).leakage_upper_bits
    else:
        upper_at = component_bound_bits(report.diameters, measured_eps)
    lower_at = math.log2(graph.vertex_count) - upper_at
    leak_margin = upper_at - measured.leakage_bits
    entropy_margin = measured.conditional_min_entropy_bits - lower_at
    holds = (
        measured.leakage_bits <= upper_at + DOMINANCE_TOLERANCE
        and measured.conditional_min_entropy_bits >= lower_at - DOMINANCE_TOLERANCE
    )
    return report._replace(
        measured_epsilon=measured_eps,
        measured_leakage_bits=measured.leakage_bits,
        measured_cond_min_entropy_bits=measured.conditional_min_entropy_bits,
        leakage_upper_bits_at_measured=upper_at,
        min_entropy_lower_bits_at_measured=lower_at,
        leakage_margin_bits=leak_margin,
        min_entropy_margin_bits=entropy_margin,
        bounds_hold=holds,
    )
