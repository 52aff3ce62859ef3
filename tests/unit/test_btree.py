"""Unit tests for the B+-tree."""

import pytest

from repro.btree import BPlusTree
from repro.common.errors import (
    ConfigurationError,
    KeyAlreadyExistsError,
    KeyNotFoundError,
)


@pytest.fixture
def tree():
    return BPlusTree(order=6)


def test_order_must_be_at_least_four():
    with pytest.raises(ConfigurationError):
        BPlusTree(order=3)


def test_empty_tree_has_size_zero(tree):
    assert len(tree) == 0
    assert tree.height() == 1


def test_insert_and_search(tree):
    tree.insert(5, "five")
    assert tree.search(5) == "five"
    assert len(tree) == 1


def test_search_missing_key_raises(tree):
    with pytest.raises(KeyNotFoundError):
        tree.search(1)


def test_get_returns_default_for_missing(tree):
    assert tree.get(1, default="nope") == "nope"


def test_contains(tree):
    tree.insert(1, "a")
    assert 1 in tree
    assert 2 not in tree


def test_duplicate_insert_raises(tree):
    tree.insert(1, "a")
    with pytest.raises(KeyAlreadyExistsError):
        tree.insert(1, "b")


def test_update_existing_key(tree):
    tree.insert(1, "a")
    tree.update(1, "b")
    assert tree.search(1) == "b"


def test_update_missing_key_raises(tree):
    with pytest.raises(KeyNotFoundError):
        tree.update(1, "x")


def test_update_does_not_change_structure(tree):
    for key in range(50):
        tree.insert(key, key)
    before = tree.structural_changes
    for key in range(50):
        tree.update(key, -key)
    assert tree.structural_changes == before


def test_upsert_inserts_then_updates(tree):
    tree.upsert(1, "a")
    tree.upsert(1, "b")
    assert tree.search(1) == "b"
    assert len(tree) == 1


def test_delete_existing_key(tree):
    tree.insert(1, "a")
    tree.delete(1)
    assert 1 not in tree
    assert len(tree) == 0


def test_delete_missing_key_raises(tree):
    with pytest.raises(KeyNotFoundError):
        tree.delete(99)


def test_many_inserts_keep_tree_valid(tree):
    for key in range(500):
        tree.insert(key, key * 2)
    assert tree.validate()
    assert len(tree) == 500
    assert tree.height() > 1


def test_reverse_order_inserts_keep_tree_valid(tree):
    for key in reversed(range(300)):
        tree.insert(key, key)
    assert tree.validate()
    assert list(tree.keys()) == list(range(300))


def test_items_are_sorted_by_key(tree):
    for key in (5, 1, 9, 3, 7):
        tree.insert(key, str(key))
    assert [key for key, _ in tree.items()] == [1, 3, 5, 7, 9]


def test_range_query_inclusive_bounds(tree):
    for key in range(20):
        tree.insert(key, key)
    assert [key for key, _ in tree.range(5, 10)] == [5, 6, 7, 8, 9, 10]


def test_range_query_empty_interval(tree):
    for key in range(0, 20, 2):
        tree.insert(key, key)
    assert list(tree.range(21, 30)) == []


def test_splits_are_counted_as_structural_changes(tree):
    for key in range(100):
        tree.insert(key, key)
    assert tree.structural_changes > 0


def test_delete_triggers_rebalancing_and_stays_valid(tree):
    for key in range(200):
        tree.insert(key, key)
    for key in range(0, 200, 2):
        tree.delete(key)
    assert tree.validate()
    assert len(tree) == 100
    assert all(key % 2 == 1 for key in tree.keys())


def test_delete_everything_returns_to_empty(tree):
    for key in range(64):
        tree.insert(key, key)
    for key in range(64):
        tree.delete(key)
    assert len(tree) == 0
    assert tree.validate()
    assert list(tree.items()) == []


def test_mixed_workload_matches_dict_model():
    tree = BPlusTree(order=8)
    model = {}
    operations = [(i * 7919) % 200 for i in range(2000)]
    for step, key in enumerate(operations):
        if key in model:
            if step % 3 == 0:
                tree.delete(key)
                del model[key]
            else:
                tree.update(key, step)
                model[key] = step
        else:
            tree.insert(key, step)
            model[key] = step
    assert dict(tree.items()) == model
    assert tree.validate()


def test_height_grows_logarithmically():
    tree = BPlusTree(order=32)
    for key in range(10_000):
        tree.insert(key, key)
    assert tree.height() <= 4
    assert tree.validate()


def test_keys_match_leaf_chain_after_heavy_churn():
    tree = BPlusTree(order=5)
    for key in range(300):
        tree.insert(key, key)
    for key in range(100, 250):
        tree.delete(key)
    keys = list(tree.keys())
    assert keys == sorted(keys)
    assert len(keys) == 150


def test_each_delta_starts_where_the_last_one_ended():
    tree = BPlusTree(order=5)
    for key in range(20):
        tree.insert(key, key)
    base = tree.delta()
    assert [key for key, _ in base["changes"]] == list(range(20))
    assert tree.delta() == {"order": 5, "changes": [], "deletions": []}
    tree.update(3, "three")
    tree.delete(7)
    second = tree.delta()
    assert second["changes"] == [(3, "three")]
    assert second["deletions"] == [7]
    assert tree.delta()["changes"] == []
    # The two deltas replay onto an empty tree as the tree itself.
    replica = BPlusTree(order=5)
    replica.apply_delta(base)
    replica.apply_delta(second)
    assert list(replica.items()) == list(tree.items())


def test_restore_rejects_keys_out_of_order_and_changes_nothing():
    tree = BPlusTree(4, range(10), range(10, 20))
    assert tree.validate() and len(tree) == 10
    for items in ([(0, "a"), (0, "b")], [(0, "a"), (2, "b"), (1, "c")]):
        with pytest.raises(ConfigurationError):
            tree.restore({"order": 4, "items": items})
    assert tree.validate()
    assert list(tree.items()) == [(key, key + 10) for key in range(10)]


def test_a_key_born_and_removed_between_cuts_leaves_no_trace():
    """A key inserted and deleted inside one interval is listed as a
    deletion the base never saw; applying it is a no-op, while a key
    deleted and re-inserted ships only its new value."""
    tree = BPlusTree(order=4)
    for key in range(6):
        tree.insert(key, b"v")
    base = tree.checkpoint()
    tree.clear_delta_tracking()
    tree.insert(9, b"brief")
    tree.delete(9)
    tree.delete(2)
    tree.insert(2, b"again")
    delta = tree.delta()
    assert delta["changes"] == [(2, b"again")]
    assert delta["deletions"] == [9]
    restored = BPlusTree(order=4).restore(base).apply_delta(delta)
    assert list(restored.items()) == list(tree.items())
    assert 9 not in dict(restored.items())
    restored.validate()
