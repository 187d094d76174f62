"""Property tests for ``SumTree``.

``find_prefix`` against a cumulative-sum search: integer leaf weights keep
every node sum exact, so the descent must land on exactly the leaf
``np.searchsorted(np.cumsum(w), prefix, side="right")`` names, and never on a
zero-weight leaf.  The tree stores its leaves in heap order: for a capacity
that is not a power of two, descending left to right visits them in a rotated
order (capacity 3 visits leaves 1, 2, 0), so the general check searches the
weights in that order.

The batched loops against their one-at-a-time forms and against a float64
array reference, node for node (``float.hex``) with arbitrary float weights:
``update_many`` equals single ``update`` calls in batch order, repeated
leaves and zero weights included; every node and every descent equals the
array tree's; ``find_prefixes`` equals ``find_prefix`` per prefix, exact
interval boundaries included; and the O(n) bottom-up build equals writing
the leaves one at a time.  Each holds for power-of-two and other capacities.
"""

from __future__ import annotations

import numpy as np
import pytest
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
        tree.update_many((leaf,), (float(first[leaf]),))
    for leaf in draw(st.permutations(range(capacity))):
        tree.update_many((leaf,), (float(weights[leaf]),))
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
        leaf = tree.find_prefixes((prefix,))[0]
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
        leaf = tree.find_prefixes((prefix,))[0]
        assert leaf == order[np.searchsorted(cumulative, prefix, side="right")]
        assert weights[leaf] > 0


class ArrayTree:
    """Reference: the float64-array sum tree with one-leaf writes and a
    one-prefix descent, as the list-backed tree's arithmetic must match."""

    def __init__(self, capacity: int) -> None:
        self.capacity = capacity
        self.nodes = np.zeros(2 * capacity - 1)

    def update(self, leaf: int, value: float) -> None:
        idx = self.capacity - 1 + leaf
        nodes = self.nodes
        change = value - nodes[idx]
        nodes[idx] = value
        while idx:
            idx = (idx - 1) // 2
            nodes[idx] += change

    def find_prefix(self, prefix: float) -> int:
        nodes = self.nodes
        size = len(nodes)
        idx = 0
        while True:
            left = 2 * idx + 1
            if left >= size:
                return idx - (self.capacity - 1)
            right = left + 1
            if prefix < nodes[left] or nodes[right] == 0.0:
                idx = left
            else:
                prefix -= nodes[left]
                idx = right


def node_hex(tree) -> list[str]:
    nodes = tree.nodes if isinstance(tree, ArrayTree) else tree._nodes
    return [float(x).hex() for x in nodes]


def capacities(power_of_two: bool):
    if power_of_two:
        return st.integers(0, 7).map(lambda e: 1 << e)
    return st.integers(1, 100).filter(lambda n: n & (n - 1))


leaf_weights = st.just(0.0) | st.floats(0.0, 1e3) | st.integers(0, 5).map(float)


@st.composite
def write_batches(draw, capacity: int, max_batches: int = 4):
    """Batches of (leaf, weight) pairs, some with a leaf written twice."""
    out = []
    for _ in range(draw(st.integers(1, max_batches))):
        size = draw(st.integers(1, 40))
        leaves = draw(st.lists(st.integers(0, capacity - 1), min_size=size, max_size=size))
        if size > 1 and draw(st.booleans()):
            i, j = draw(st.lists(st.integers(0, size - 1), min_size=2, max_size=2, unique=True))
            leaves[j] = leaves[i]
        values = draw(st.lists(leaf_weights, min_size=size, max_size=size))
        out.append((leaves, values))
    return out


def prefixes_for(draw, total: float, cumulative: list[float]) -> list[float]:
    """Random prefixes in [0, total) plus the exact interval boundaries."""
    uniform = draw(st.lists(st.floats(0.0, 1.0, exclude_max=True), min_size=1, max_size=30))
    edges = [c for c in cumulative if c < total]
    return [u * total for u in uniform] + edges


@pytest.mark.parametrize("power_of_two", [True, False])
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_batched_write_equals_single_writes_node_for_node(power_of_two, data):
    capacity = data.draw(capacities(power_of_two))
    batched, single = SumTree(capacity), SumTree(capacity)
    for leaves, values in data.draw(write_batches(capacity)):
        batched.update_many(leaves, values)
        for leaf, value in zip(leaves, values):
            single.update_many((leaf,), (value,))
        assert node_hex(batched) == node_hex(single)


@pytest.mark.parametrize("power_of_two", [True, False])
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_tree_equals_float64_array_reference(power_of_two, data):
    capacity = data.draw(capacities(power_of_two))
    tree, reference = SumTree(capacity), ArrayTree(capacity)
    for leaves, values in data.draw(write_batches(capacity)):
        tree.update_many(leaves, values)
        for leaf, value in zip(leaves, values):
            reference.update(leaf, value)
        assert node_hex(tree) == node_hex(reference)
        assert float(tree.total).hex() == float(reference.nodes[0]).hex()
        if tree.total > 0:
            # prefixes drawn the way the sampler draws them, as float64
            prefixes = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1))).random(30)
            prefixes *= tree.total
            want = [reference.find_prefix(p) for p in prefixes]
            assert tree.find_prefixes(prefixes.tolist()) == want


@pytest.mark.parametrize("power_of_two", [True, False])
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_batched_descent_equals_per_prefix_descent(power_of_two, data):
    capacity = data.draw(capacities(power_of_two))
    tree = SumTree(capacity)
    for leaves, values in data.draw(write_batches(capacity)):
        tree.update_many(leaves, values)
    order = descent_order(capacity)
    cumulative = np.cumsum([tree.leaf_value(leaf) for leaf in order]).tolist()
    prefixes = prefixes_for(data.draw, tree.total, cumulative)
    got = tree.find_prefixes(prefixes)
    assert got == [tree.find_prefixes((p,))[0] for p in prefixes]
    assert all(0 <= leaf < capacity for leaf in got)


@pytest.mark.parametrize("value", [0.0, 1.0, 3.0])
@given(capacity=st.integers(1, 300))
@settings(max_examples=60, deadline=None)
def test_bottom_up_build_equals_sequential_writes(value, capacity):
    built = SumTree(capacity, value)
    sequential, reference = SumTree(capacity), ArrayTree(capacity)
    for leaf in range(capacity):
        sequential.update_many((leaf,), (value,))
        reference.update(leaf, value)
    assert node_hex(built) == node_hex(sequential) == node_hex(reference)
