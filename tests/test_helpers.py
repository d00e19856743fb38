"""Checks of the test-only helpers that are not oracles for a library path."""

from blowfish_privacy import generate_group

from helpers import generate_group_greedy


def test_generate_group_greedy_respects_cap():
    group = generate_group_greedy([(1, 2, 0), (1, 0, 2)], cap=3)
    assert group.order <= 3
    full = generate_group(list(group.generators) or [], degree=3)
    assert set(full.elements) == set(group.elements)
