"""Property tests for ``SumTree.find_prefix`` against a cumulative-sum search.

Integer leaf weights keep every node sum exact, so the descent must land on
exactly the leaf ``np.searchsorted(np.cumsum(w), prefix, side="right")``
names, and never on a zero-weight leaf.  The tree stores its leaves in heap
order: for a capacity that is not a power of two, descending left to right
visits them in a rotated order (capacity 3 visits leaves 1, 2, 0), so the
general check searches the weights in that order.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from trajreplay.replay import SumTree


def descent_order(capacity: int) -> list[int]:
    """Leaf indices in the left-to-right order of the tree's descent."""
    order, stack = [], [0]
    while stack:
        node = stack.pop()
        left = 2 * node + 1
        if left >= 2 * capacity - 1:
            order.append(node - (capacity - 1))
        else:
            stack += [left + 1, left]
    return order


@st.composite
def trees(draw, power_of_two=False):
    if power_of_two:
        capacity = 1 << draw(st.integers(0, 6))
    else:
        capacity = draw(st.integers(1, 70))
    weights = draw(st.lists(st.integers(0, 5), min_size=capacity, max_size=capacity))
    weights[draw(st.integers(0, capacity - 1))] = draw(st.integers(1, 5))
    tree = SumTree(capacity)
    # a first write, then an overwrite, so updates propagate changes both ways
    first = draw(st.lists(st.integers(0, 5), min_size=capacity, max_size=capacity))
    for leaf in draw(st.permutations(range(capacity))):
        tree.update(leaf, float(first[leaf]))
    for leaf in draw(st.permutations(range(capacity))):
        tree.update(leaf, float(weights[leaf]))
    total = sum(weights)
    whole = st.integers(0, total - 1).map(float)
    fractional = st.floats(0.0, total, exclude_max=True)
    prefixes = draw(st.lists(whole | fractional, min_size=1, max_size=20))
    return tree, np.array(weights, dtype=float), prefixes


@settings(max_examples=200, deadline=None)
@given(trees(power_of_two=True))
def test_find_prefix_is_cumsum_search_for_power_of_two_capacity(case):
    tree, weights, prefixes = case
    assert tree.total == weights.sum()
    cumulative = np.cumsum(weights)
    for prefix in prefixes:
        leaf = tree.find_prefix(prefix)
        assert leaf == np.searchsorted(cumulative, prefix, side="right")
        assert weights[leaf] > 0


@settings(max_examples=300, deadline=None)
@given(trees())
def test_find_prefix_is_cumsum_search_in_descent_order(case):
    tree, weights, prefixes = case
    order = descent_order(tree.capacity)
    assert sorted(order) == list(range(tree.capacity))
    cumulative = np.cumsum(weights[order])
    for prefix in prefixes:
        leaf = tree.find_prefix(prefix)
        assert leaf == order[np.searchsorted(cumulative, prefix, side="right")]
        assert weights[leaf] > 0
