"""Blowfish privacy policies, adjacency graphs, and min-entropy leakage bounds."""

from .adjacency import (
    AdjacencyGraph,
    embed_graph_as_policy,
    induce_adjacency_graph,
)
from .bounds import (
    BoundReport,
    audit,
    leakage_upper_bound,
    unconstrained_audit,
)
from .channel import (
    ChannelMatrix,
    LeakageReport,
    Prior,
    graph_randomized_response,
    leakage,
    minimal_epsilon,
    validate_channel,
)
from .errors import (
    BlowfishError,
    CapExceededError,
    InputError,
    SchemaError,
    UnsupportedLiftError,
)
from .graphcore import (
    Graph,
    OrbitPartition,
    Permutation,
    PermutationGroup,
    automorphism_group,
    components_and_diameters,
    compose,
    distances,
    generate_group,
    lift_policy_automorphisms,
    orbits,
    stabiliser,
    transporter,
)
from .policy import (
    BlowfishPolicy,
    Database,
    SecretGraph,
    TupleUniverse,
    build_policy,
    complete_policy,
    custom_policy,
    cycle_policy,
    distance_threshold_policy,
    enumerate_permissible,
    policy_from_json,
    policy_to_json,
)
from .symmetrise import (
    SymmetrisationReport,
    check_symmetrisation,
    diagonal_maximise,
    group_average,
)
from .tightness import (
    SharpnessInstance,
    build_sharpness_instance,
    sharpness_channel,
    sharpness_graph,
    sharpness_ratio,
    sharpness_sweep,
)

__all__ = [name for name in dir() if not name.startswith("_")]
