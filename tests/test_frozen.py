"""The classes that validate or cache stay immutable, and keep their
equality: by value for policies and graphs, by identity for groups,
channels and priors."""

import numpy as np
import pytest

from blowfish_privacy import (
    ChannelMatrix,
    PermutationGroup,
    Prior,
    distance_threshold_policy,
    induce_adjacency_graph,
    policy_from_json,
    policy_to_json,
)
from blowfish_privacy.adjacency import adjacency_from_json, adjacency_to_json


def policy():
    return distance_threshold_policy([1, 2, 3], 1, n=2, permissible=[("1", "2"), ("3", "3")])


def adjacency():
    return induce_adjacency_graph(distance_threshold_policy([1, 2, 3], 1, n=2))


# Class name -> (instance, field, twin or None). A twin equals the instance
# by value; None marks a class that compares by identity.
CASES = {
    "Graph": (
        lambda: adjacency().to_graph(),
        "edges",
        lambda: adjacency_from_json(adjacency_to_json(adjacency())).to_graph(),
    ),
    "TupleUniverse": (lambda: policy().universe, "labels", lambda: policy().universe),
    "SecretGraph": (lambda: policy().secret_graph, "edges", lambda: policy().secret_graph),
    "BlowfishPolicy": (policy, "permissible", lambda: policy_from_json(policy_to_json(policy()))),
    "PermutationGroup": (lambda: PermutationGroup(3, [(1, 2, 0)]), "generators", None),
    "ChannelMatrix": (lambda: ChannelMatrix(np.eye(2)), "probs", None),
    "Prior": (lambda: Prior([0.25, 0.75]), "probabilities", None),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_instances_are_frozen_and_compare_as_before(name):
    make, field, twin = CASES[name]
    obj = make()
    assert type(obj).__name__ == name
    value = getattr(obj, field)
    with pytest.raises(AttributeError):
        setattr(obj, field, value)
    with pytest.raises(AttributeError):
        obj.unknown = 1
    with pytest.raises(AttributeError):
        delattr(obj, field)
    assert getattr(obj, field) is value
    assert obj == obj
    if twin is None:
        assert obj != make()
    else:
        other = twin()
        assert other is not obj and other == obj and hash(other) == hash(obj)
