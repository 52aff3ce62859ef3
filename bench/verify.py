"""Correctness oracle: per-thread key-stripe models and replica convergence.

Each generator thread owns the key stripe ``key % stripes == index`` and
is the only writer of those keys, and the ordered multicast executes one
client's commands on one key in submission order — so a plain dict
predicts every read's value and every write's error code.  A predicted
``ERR_EXISTS``/``ERR_NOT_FOUND`` is a success; a mismatch is a failure.
"""

OK, ERR_NOT_FOUND, ERR_EXISTS = 0, 1, 2


class VerificationError(Exception):
    """The system under test produced a wrong final state."""


class StripeModel:
    """The expected contents of one generator thread's key stripe."""

    def __init__(self, index, stripes, initial_keys, initial_value):
        self.index = index
        self.stripes = stripes
        self.initial_keys = initial_keys
        self.initial_value = initial_value
        #: Keys whose state differs from the preload: value, or None if absent.
        self.changed = {}
        self.wrong_values = 0
        self.wrong_errors = 0

    def owns(self, key):
        return key % self.stripes == self.index

    def _lookup(self, key):
        if key in self.changed:
            return self.changed[key]
        return self.initial_value if 0 <= key < self.initial_keys else None

    def apply(self, name, key, value=None):
        """Apply one command to the model; return the predicted ``(err, value)``."""
        if not self.owns(key):
            raise ValueError(f"key {key} is outside stripe {self.index}")
        current = self._lookup(key)
        if name == "read":
            return (ERR_NOT_FOUND, None) if current is None else (OK, current)
        if name == "update":
            if current is None:
                return ERR_NOT_FOUND, None
            self.changed[key] = value
            return OK, None
        if name == "insert":
            if current is not None:
                return ERR_EXISTS, None
            self.changed[key] = value
            return OK, None
        if name == "delete":
            if current is None:
                return ERR_NOT_FOUND, None
            self.changed[key] = None
            return OK, None
        raise ValueError(f"unknown command {name!r}")

    def check(self, expected, err, value):
        """Whether a response matches its prediction; mismatches are counted."""
        want_err, want_value = expected
        if err != want_err:
            self.wrong_errors += 1
            return False
        if value != want_value:
            self.wrong_values += 1
            return False
        return True


def check_convergence(snapshots, models, violations):
    """Raise unless all replicas hold one state and it is the models' state."""
    if violations:
        raise VerificationError(f"{violations} marker boundary violations")
    first = snapshots[0]
    for replica, snapshot in enumerate(snapshots[1:], start=1):
        if snapshot != first:
            raise VerificationError(f"replica {replica} diverged from replica 0")
    size = models[0].initial_keys
    for model in models:
        for key, value in model.changed.items():
            if first.get(key) != value:
                raise VerificationError(
                    f"key {key}: replicas hold {first.get(key)!r}, model {value!r}"
                )
            size += (value is not None) - (0 <= key < model.initial_keys)
    if len(first) != size:
        raise VerificationError(f"replicas hold {len(first)} keys, model {size}")
