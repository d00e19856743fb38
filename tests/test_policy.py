import json

import pytest
from hypothesis import given, strategies as st

from blowfish_privacy import (
    CapExceededError,
    InputError,
    SchemaError,
    build_policy,
    complete_policy,
    custom_policy,
    cycle_policy,
    distance_threshold_policy,
    enumerate_permissible,
    policy_from_json,
    policy_to_json,
)
from blowfish_privacy.policy import permissible_size

from helpers import has_edge, small_policies


def edge_set(policy):
    return set(policy.secret_graph.edges)


def test_distance_threshold_path():
    pol = distance_threshold_policy([1, 2, 3, 4], 1, n=2)
    assert edge_set(pol) == {("1", "2"), ("2", "3"), ("3", "4")}
    assert pol.n == 2
    assert pol.unconstrained


def test_distance_threshold_theta_two_adds_dotted_edges():
    pol = distance_threshold_policy([1, 2, 3, 4], 2, n=1)
    assert edge_set(pol) == {
        ("1", "2"), ("2", "3"), ("3", "4"), ("1", "3"), ("2", "4"),
    }


def test_complete_policy_all_pairs():
    pol = complete_policy(4, n=1)
    assert pol.secret_graph.edge_count == 6
    labels = pol.universe.labels
    for i in range(4):
        for j in range(i + 1, 4):
            assert has_edge(pol.secret_graph, labels[i], labels[j])


def test_cycle_policy_edges():
    pol = cycle_policy(6, n=2)
    assert edge_set(pol) == {
        ("1", "2"), ("2", "3"), ("3", "4"), ("4", "5"), ("5", "6"), ("1", "6"),
    }


@pytest.mark.parametrize(
    "kind,params",
    [
        ("distance_threshold", {"values": [1, 2], "theta": -0.5}),
        ("cycle", {"m": 2}),
        ("distance_threshold", {"values": [1, 1], "theta": 1}),
    ],
)
def test_builder_rejects_bad_parameters(kind, params):
    with pytest.raises(InputError):
        build_policy(kind, n=1, **params)


def test_custom_rejects_unknown_edge_endpoint():
    with pytest.raises(InputError):
        custom_policy(["1", "2"], [("1", "5")], n=1)


def test_enumerate_unconstrained_order():
    pol = distance_threshold_policy([1, 2, 3, 4], 1, n=2)
    dbs = enumerate_permissible(pol)
    assert len(dbs) == 16
    assert dbs[:3] == (("1", "1"), ("1", "2"), ("1", "3"))
    keys = [tuple(pol.universe.index(x) for x in db) for db in dbs]
    assert keys == sorted(keys)
    assert len(set(dbs)) == len(dbs)


def test_enumerate_explicit_sorted():
    pol = distance_threshold_policy(
        [1, 2, 3, 4], 1, n=2, permissible=[("2", "1"), ("1", "1")]
    )
    assert enumerate_permissible(pol) == (("1", "1"), ("2", "1"))


def test_enumerate_cap_error_names_size():
    pol = distance_threshold_policy([1, 2, 3, 4], 1, n=20)
    assert permissible_size(pol) == 4**20
    with pytest.raises(CapExceededError, match=str(4**20)):
        enumerate_permissible(pol, cap=10**6)


@pytest.mark.parametrize(
    "m, n, digits",
    [(4, 7142, 4300), (4, 7143, None), (10, 4299, 4300), (10, 4300, None),
     (4, 10**8, None), (1, 10**400, 1)],
)
def test_permissible_size_refuses_a_count_past_the_digit_limit(m, n, digits, digit_limit):
    """A count of more decimal digits than Python writes out (4,300 by
    default) is refused, named ``m^n``, before the power is taken: 4^7142
    and 10^4299 have 4,300 digits, 4^7143 and 10^4300 have 4,301."""
    pol = distance_threshold_policy(range(m), 0, n=n)
    if digits is None:
        with pytest.raises(CapExceededError) as raised:
            permissible_size(pol)
        assert str(raised.value) == (
            f"permissible set has {m}^{n} databases, a count of more than 4300 digits"
        )
        with pytest.raises(CapExceededError, match=rf"{m}\^{n} databases"):
            enumerate_permissible(pol, cap=10**6)
    else:
        assert len(str(permissible_size(pol))) == digits


def test_roundtrip_identity():
    pol = distance_threshold_policy([1, 2, 3, 4], 1, n=2)
    text = policy_to_json(pol)
    again = policy_from_json(text)
    assert again == pol
    assert policy_to_json(again) == text


@st.composite
def policies_with_values(draw):
    pol = draw(small_policies(max_tuples=4, max_n=2))
    size = len(pol.universe)
    values = draw(
        st.none()
        | st.lists(
            st.floats(allow_nan=False, allow_infinity=False), min_size=size, max_size=size
        )
    )
    return custom_policy(
        pol.universe.labels,
        pol.secret_graph.edges,
        n=pol.n,
        permissible=pol.permissible,
        values=values,
    )


@given(policies_with_values())
def test_roundtrip_property(pol):
    text = policy_to_json(pol)
    again = policy_from_json(text)
    assert again == pol
    assert policy_to_json(again) == text


def test_roundtrip_explicit_permissible():
    pol = cycle_policy(4, n=2, permissible=[("2", "1"), ("1", "1")])
    again = policy_from_json(policy_to_json(pol))
    assert again == pol
    assert again.permissible == (("1", "1"), ("2", "1"))


def test_parse_rejects_unknown_label_in_edge():
    doc = {
        "tuples": ["1", "2", "3", "4"],
        "secret_edges": [["1", "5"]],
        "n": 2,
        "permissible": "all",
    }
    with pytest.raises(InputError, match="unknown label"):
        policy_from_json(json.dumps(doc))


def test_parse_rejects_self_loop():
    doc = {
        "tuples": ["1", "2"],
        "secret_edges": [["2", "2"]],
        "n": 1,
        "permissible": "all",
    }
    with pytest.raises(InputError, match="self-loop"):
        policy_from_json(json.dumps(doc))


def test_parse_rejects_unknown_field():
    doc = {
        "tuples": ["1"],
        "secret_edges": [],
        "n": 1,
        "permissible": "all",
        "extra": 1,
    }
    with pytest.raises(SchemaError, match="unknown"):
        policy_from_json(json.dumps(doc))


def test_parse_rejects_n_mismatch_in_database():
    doc = {
        "tuples": ["1", "2"],
        "secret_edges": [],
        "n": 2,
        "permissible": [["1"]],
    }
    with pytest.raises(InputError, match="records"):
        policy_from_json(json.dumps(doc))


def test_parse_rejects_malformed_json():
    with pytest.raises(SchemaError):
        policy_from_json("{not json")


def test_values_field_is_optional():
    doc = {"tuples": ["a", "b"], "secret_edges": [["a", "b"]], "n": 1, "permissible": "all"}
    pol = policy_from_json(json.dumps(doc))
    assert pol.universe.values is None
    assert "values" not in json.loads(policy_to_json(pol))


@given(
    values=st.lists(
        st.integers(min_value=-50, max_value=50), min_size=2, max_size=6, unique=True
    )
)
def test_wide_threshold_gives_complete_graph(values):
    spread = max(values) - min(values)
    pol = distance_threshold_policy(values, spread, n=1)
    m = len(values)
    assert pol.secret_graph.edge_count == m * (m - 1) // 2


@given(
    values=st.lists(
        st.integers(min_value=-50, max_value=50), min_size=1, max_size=6, unique=True
    ),
    theta=st.floats(min_value=0, max_value=100, allow_nan=False),
)
def test_secret_graph_invariants(values, theta):
    pol = distance_threshold_policy(values, theta, n=1)
    for a, b in pol.secret_graph.edges:
        assert a != b
        assert a in pol.universe and b in pol.universe
    assert pol.universe.values[0] == values[0]


@given(n=st.integers(1, 3))
def test_enumerate_strictly_increasing(n):
    pol = complete_policy(3, n=n)
    dbs = enumerate_permissible(pol)
    keys = [tuple(pol.universe.index(x) for x in db) for db in dbs]
    assert all(a < b for a, b in zip(keys, keys[1:]))
