"""An in-memory B+-tree with insert, delete, point and range queries.

The implementation favours clarity over raw speed, but stays O(log n) per
operation; leaves are linked to support range scans.  ``validate()`` checks
the structural invariants and is used heavily by the property-based tests.
"""

import bisect
from itertools import islice
from operator import lt

from repro.common.errors import KeyNotFoundError, KeyAlreadyExistsError
from repro.common.errors import ConfigurationError


class _Node:
    """Internal or leaf node.

    Internal nodes hold ``keys`` (separators) and ``children`` with
    ``len(children) == len(keys) + 1``.  Leaves hold ``keys`` and the
    parallel ``values`` list, plus a ``next_leaf`` link.
    """

    __slots__ = ("keys", "children", "values", "next_leaf", "is_leaf")

    def __init__(self, is_leaf):
        self.is_leaf = is_leaf
        self.keys = []
        self.children = [] if not is_leaf else None
        self.values = [] if is_leaf else None
        self.next_leaf = None


class BPlusTree:
    """A B+-tree mapping orderable keys to arbitrary values.

    ``order`` is the maximum number of children of an internal node; leaves
    hold at most ``order - 1`` entries.  ``keys`` and ``values`` seed the
    tree in one bottom-up pass (see :meth:`_bulk_load`): ``keys`` a sized,
    strictly ascending sequence such as a ``range``, ``values`` a parallel
    iterable such as ``itertools.repeat(fill, len(keys))``.  Delta tracking
    starts clean, so the seed is the implicit base of the first delta.
    """

    def __init__(self, order=32, keys=(), values=()):
        if order < 4:
            raise ConfigurationError("B+-tree order must be >= 4")
        self.order = order
        self._root = self._bulk_load(keys, values)
        self._size = len(keys)
        #: Splits, merges, borrows and root changes made by inserts and
        #: deletes since the tree was built or restored: how often an
        #: operation restructured the tree rather than edit one node.
        self.structural_changes = 0
        #: Keys written (inserted/updated) and keys removed since the last
        #: delta-tracking mark — the raw material of delta checkpoints.
        #: Invariant: the two sets are disjoint; every dirty key is present
        #: in the tree and every deleted key is absent.
        self._dirty_keys = set()
        self._deleted_keys = set()

    def __len__(self):
        return self._size

    def __contains__(self, key):
        try:
            self.search(key)
            return True
        except KeyNotFoundError:
            return False

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def _find_leaf(self, key, path=None):
        node = self._root
        while not node.is_leaf:
            index = bisect.bisect_right(node.keys, key)
            if path is not None:
                path.append((node, index))
            node = node.children[index]
        return node

    def search(self, key):
        """Return the value stored under ``key`` or raise :class:`KeyNotFoundError`."""
        leaf = self._find_leaf(key)
        index = bisect.bisect_left(leaf.keys, key)
        if index < len(leaf.keys) and leaf.keys[index] == key:
            return leaf.values[index]
        raise KeyNotFoundError(key)

    def get(self, key, default=None):
        """Return the value for ``key`` or ``default`` when absent."""
        try:
            return self.search(key)
        except KeyNotFoundError:
            return default

    def range(self, low, high):
        """Yield ``(key, value)`` pairs with ``low <= key <= high`` in key order."""
        leaf = self._find_leaf(low)
        index = bisect.bisect_left(leaf.keys, low)
        while leaf is not None:
            while index < len(leaf.keys):
                key = leaf.keys[index]
                if key > high:
                    return
                yield key, leaf.values[index]
                index += 1
            leaf = leaf.next_leaf
            index = 0

    def items(self):
        """Yield every ``(key, value)`` pair in key order."""
        node = self._root
        while not node.is_leaf:
            node = node.children[0]
        while node is not None:
            yield from zip(node.keys, node.values)
            node = node.next_leaf

    def keys(self):
        for key, _value in self.items():
            yield key

    def height(self):
        """Number of levels from root to leaves (1 for a single-leaf tree)."""
        depth = 1
        node = self._root
        while not node.is_leaf:
            node = node.children[0]
            depth += 1
        return depth

    # ------------------------------------------------------------------
    # Update (no structural change)
    # ------------------------------------------------------------------
    def update(self, key, value):
        """Replace the value under an existing ``key``; raise if absent."""
        leaf = self._find_leaf(key)
        index = bisect.bisect_left(leaf.keys, key)
        if index < len(leaf.keys) and leaf.keys[index] == key:
            leaf.values[index] = value
            self._dirty_keys.add(key)
            return
        raise KeyNotFoundError(key)

    def upsert(self, key, value):
        """Insert ``key`` or overwrite its value if already present."""
        try:
            self.update(key, value)
        except KeyNotFoundError:
            self.insert(key, value)

    # ------------------------------------------------------------------
    # Insert
    # ------------------------------------------------------------------
    def insert(self, key, value):
        """Insert a new ``key``; raise :class:`KeyAlreadyExistsError` on duplicates."""
        path = []
        leaf = self._find_leaf(key, path)
        index = bisect.bisect_left(leaf.keys, key)
        if index < len(leaf.keys) and leaf.keys[index] == key:
            raise KeyAlreadyExistsError(key)
        leaf.keys.insert(index, key)
        leaf.values.insert(index, value)
        self._size += 1
        self._dirty_keys.add(key)
        self._deleted_keys.discard(key)
        if len(leaf.keys) > self.order - 1:
            self._split(leaf, path)

    def _split(self, node, path):
        """Split an overfull node, propagating up the recorded ``path``."""
        self.structural_changes += 1
        mid = len(node.keys) // 2
        if node.is_leaf:
            sibling = _Node(is_leaf=True)
            sibling.keys = node.keys[mid:]
            sibling.values = node.values[mid:]
            node.keys = node.keys[:mid]
            node.values = node.values[:mid]
            sibling.next_leaf = node.next_leaf
            node.next_leaf = sibling
            separator = sibling.keys[0]
        else:
            sibling = _Node(is_leaf=False)
            separator = node.keys[mid]
            sibling.keys = node.keys[mid + 1:]
            sibling.children = node.children[mid + 1:]
            node.keys = node.keys[:mid]
            node.children = node.children[:mid + 1]

        if not path:
            new_root = _Node(is_leaf=False)
            new_root.keys = [separator]
            new_root.children = [node, sibling]
            self._root = new_root
            return
        parent, index = path.pop()
        parent.keys.insert(index, separator)
        parent.children.insert(index + 1, sibling)
        if len(parent.children) > self.order:
            self._split(parent, path)

    # ------------------------------------------------------------------
    # Delete
    # ------------------------------------------------------------------
    def delete(self, key):
        """Remove ``key``; raise :class:`KeyNotFoundError` if absent."""
        path = []
        leaf = self._find_leaf(key, path)
        index = bisect.bisect_left(leaf.keys, key)
        if index >= len(leaf.keys) or leaf.keys[index] != key:
            raise KeyNotFoundError(key)
        leaf.keys.pop(index)
        leaf.values.pop(index)
        self._size -= 1
        self._dirty_keys.discard(key)
        self._deleted_keys.add(key)
        self._rebalance(leaf, path)

    def _min_entries(self):
        return (self.order - 1) // 2

    def _min_children(self):
        return (self.order + 1) // 2

    def _rebalance(self, node, path):
        """Restore minimum-occupancy invariants after a deletion."""
        if not path:
            # node is the root: shrink the tree when an internal root has a
            # single child.
            if not node.is_leaf and len(node.children) == 1:
                self._root = node.children[0]
                self.structural_changes += 1
            return

        underfull = (
            len(node.keys) < self._min_entries()
            if node.is_leaf
            else len(node.children) < self._min_children()
        )
        if not underfull:
            return

        parent, index = path[-1]
        self.structural_changes += 1
        left_sibling = parent.children[index - 1] if index > 0 else None
        right_sibling = (
            parent.children[index + 1] if index + 1 < len(parent.children) else None
        )

        if node.is_leaf:
            if left_sibling is not None and len(left_sibling.keys) > self._min_entries():
                node.keys.insert(0, left_sibling.keys.pop())
                node.values.insert(0, left_sibling.values.pop())
                parent.keys[index - 1] = node.keys[0]
                return
            if right_sibling is not None and len(right_sibling.keys) > self._min_entries():
                node.keys.append(right_sibling.keys.pop(0))
                node.values.append(right_sibling.values.pop(0))
                parent.keys[index] = right_sibling.keys[0]
                return
            # Merge with a sibling.
            if left_sibling is not None:
                left_sibling.keys.extend(node.keys)
                left_sibling.values.extend(node.values)
                left_sibling.next_leaf = node.next_leaf
                parent.keys.pop(index - 1)
                parent.children.pop(index)
            else:
                node.keys.extend(right_sibling.keys)
                node.values.extend(right_sibling.values)
                node.next_leaf = right_sibling.next_leaf
                parent.keys.pop(index)
                parent.children.pop(index + 1)
        else:
            if left_sibling is not None and len(left_sibling.children) > self._min_children():
                node.keys.insert(0, parent.keys[index - 1])
                parent.keys[index - 1] = left_sibling.keys.pop()
                node.children.insert(0, left_sibling.children.pop())
                return
            if right_sibling is not None and len(right_sibling.children) > self._min_children():
                node.keys.append(parent.keys[index])
                parent.keys[index] = right_sibling.keys.pop(0)
                node.children.append(right_sibling.children.pop(0))
                return
            if left_sibling is not None:
                left_sibling.keys.append(parent.keys[index - 1])
                left_sibling.keys.extend(node.keys)
                left_sibling.children.extend(node.children)
                parent.keys.pop(index - 1)
                parent.children.pop(index)
            else:
                node.keys.append(parent.keys[index])
                node.keys.extend(right_sibling.keys)
                node.children.extend(right_sibling.children)
                parent.keys.pop(index)
                parent.children.pop(index + 1)

        path.pop()
        self._rebalance(parent, path)

    # ------------------------------------------------------------------
    # Checkpointing
    # ------------------------------------------------------------------
    def checkpoint(self):
        """Return a restorable serialisation of the tree's contents.

        The checkpoint captures the logical key->value mapping, not the node
        layout: two trees with the same contents but different shapes (after
        different insert/delete histories) produce equal checkpoints, and a
        tree restored from a checkpoint behaves identically for every future
        operation.
        """
        return {"order": self.order, "items": list(self.items())}

    def restore(self, state):
        """Rebuild this tree in place from a :meth:`checkpoint` value.

        Raises :class:`ConfigurationError`, and changes nothing, on an order
        below 4 or items whose keys are not strictly ascending.
        """
        items = state["items"]
        keys = [key for key, _value in items]
        if not all(map(lt, keys, keys[1:])):
            raise ConfigurationError("checkpoint items must be strictly ascending")
        built = BPlusTree(
            int(state["order"]), keys, [value for _key, value in items]
        )
        self.order = built.order
        self._root = built._root
        self._size = built._size
        self.structural_changes = 0
        self.clear_delta_tracking()
        return self

    # ------------------------------------------------------------------
    # Delta checkpointing
    # ------------------------------------------------------------------
    def delta(self):
        """Return the changes since the last delta-tracking mark.

        The delta is ``{"order", "changes", "deletions"}``: ``changes`` are
        the current ``(key, value)`` pairs of every key written since the
        mark, ``deletions`` the keys removed.  Applying the delta (with
        :meth:`apply_delta`) to any tree whose contents match the state at
        the mark reproduces this tree's contents exactly.  The mark moves
        to now.
        """
        changes = [(key, self.search(key)) for key in sorted(self._dirty_keys)]
        delta = {
            "order": self.order,
            "changes": changes,
            "deletions": sorted(self._deleted_keys),
        }
        self.clear_delta_tracking()
        return delta

    def apply_delta(self, delta):
        """Apply a :meth:`delta` onto this tree (a restored checkpoint base).

        Installs the delta's cut: deletions of keys this tree never saw are
        ignored (the key was created and destroyed inside one interval), and
        delta tracking restarts at the applied cut.
        """
        for key in delta["deletions"]:
            try:
                self.delete(key)
            except KeyNotFoundError:
                pass
        for key, value in delta["changes"]:
            self.upsert(key, value)
        self.clear_delta_tracking()
        return self

    def clear_delta_tracking(self):
        """Move the delta-tracking mark to the current state."""
        self._dirty_keys = set()
        self._deleted_keys = set()

    def _bulk_load(self, keys, values):
        """Build a valid tree bottom-up from two parallel columns; return its root.

        ``keys`` is a sized sequence in strictly ascending order, ``values``
        an iterable of the same length; the order is the caller's to
        guarantee (:meth:`restore` checks it on the checkpoint it reads).
        Leaves are filled straight from the columns, so no per-key
        temporary is made.
        """
        if not len(keys):
            return _Node(is_leaf=True)
        key_iter = iter(keys)
        value_iter = iter(values)
        leaves = []
        for chunk in self._chunk(len(keys), self.order - 1, self._min_entries()):
            leaf = _Node(is_leaf=True)
            leaf.keys = list(islice(key_iter, chunk))
            leaf.values = list(islice(value_iter, chunk))
            if leaves:
                leaves[-1].next_leaf = leaf
            leaves.append(leaf)
        level = leaves
        while len(level) > 1:
            parents = []
            position = 0
            for chunk in self._chunk(len(level), self.order, self._min_children()):
                parent = _Node(is_leaf=False)
                parent.children = level[position:position + chunk]
                parent.keys = [
                    self._subtree_min(child) for child in parent.children[1:]
                ]
                position += chunk
                parents.append(parent)
            level = parents
        return level[0]

    @staticmethod
    def _chunk(total, capacity, minimum):
        """Yield chunk sizes covering ``total`` with each in [minimum, capacity].

        Only the very last chunk of a single-chunk level may go below
        ``minimum`` (the root is exempt from occupancy minima).
        """
        remaining = total
        while remaining > 0:
            if remaining <= capacity:
                size = remaining
            elif remaining - capacity >= minimum:
                size = capacity
            else:
                # Taking a full chunk would leave an underfull tail; split
                # the remainder so both chunks respect the minimum.
                size = remaining - minimum
            yield size
            remaining -= size

    @staticmethod
    def _subtree_min(node):
        while not node.is_leaf:
            node = node.children[0]
        return node.keys[0]

    # ------------------------------------------------------------------
    # Validation (used by tests)
    # ------------------------------------------------------------------
    def validate(self):
        """Check structural invariants; raise ``AssertionError`` on violation."""
        leaf_depths = set()

        def walk(node, depth, low, high):
            assert node.keys == sorted(node.keys), "keys out of order"
            for key in node.keys:
                if low is not None:
                    assert key >= low, "key below lower bound"
                if high is not None:
                    assert key < high, "key above upper bound"
            if node.is_leaf:
                leaf_depths.add(depth)
                assert len(node.keys) == len(node.values)
                if node is not self._root:
                    assert len(node.keys) >= self._min_entries(), "underfull leaf"
                assert len(node.keys) <= self.order - 1, "overfull leaf"
                return len(node.keys)
            assert len(node.children) == len(node.keys) + 1
            if node is not self._root:
                assert len(node.children) >= self._min_children(), "underfull internal"
            assert len(node.children) <= self.order, "overfull internal"
            total = 0
            bounds = [low, *node.keys, high]
            for child, child_low, child_high in zip(
                node.children, bounds[:-1], bounds[1:]
            ):
                total += walk(child, depth + 1, child_low, child_high)
            return total

        counted = walk(self._root, 0, None, None)
        assert counted == self._size, "size counter out of sync"
        assert len(leaf_depths) == 1, "leaves at different depths"
        # The leaf chain must enumerate every key in order.
        chained = list(self.keys())
        assert chained == sorted(chained), "leaf chain out of order"
        assert len(chained) == self._size, "leaf chain misses entries"
        return True
