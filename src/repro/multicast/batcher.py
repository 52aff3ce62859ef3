"""Command batching at a group coordinator.

The paper batches commands per group coordinator with a maximum batch size
of 8 Kbytes; order is established on batches, which amortises the cost of a
Paxos round over many commands.
"""

from dataclasses import dataclass, field
from typing import List

from repro.common.errors import ConfigurationError


@dataclass
class Batch:
    """A sequence-numbered batch of commands, proposed and delivered as one unit."""

    group_id: int
    sequence: int
    commands: List = field(default_factory=list)
    size_bytes: int = 0

    def __len__(self):
        return len(self.commands)


class Batcher:
    """Accumulates commands and emits batches bounded by size and count.

    The caller decides *when* to check the timeout (the simulator drives it
    from a flush process); the batcher itself only tracks contents and the
    time of the oldest pending command.
    """

    def __init__(self, group_id, max_bytes=8 * 1024, max_commands=64, timeout=50e-6):
        if max_bytes <= 0 or max_commands <= 0:
            raise ConfigurationError("batch limits must be positive")
        self.group_id = group_id
        self.max_bytes = max_bytes
        self.max_commands = max_commands
        self.timeout = timeout
        self._pending = []
        self._pending_bytes = 0
        self._oldest_enqueue_time = None
        self._sequence = 0
        self.batches_emitted = 0
        self.commands_batched = 0

    def __len__(self):
        return len(self._pending)

    @property
    def pending_bytes(self):
        return self._pending_bytes

    @property
    def oldest_enqueue_time(self):
        return self._oldest_enqueue_time

    def add(self, command, size_bytes, now):
        """Queue ``command``; return a full Batch when a limit is reached, else None."""
        if not self._pending:
            self._oldest_enqueue_time = now
        self._pending.append(command)
        self._pending_bytes += size_bytes
        self.commands_batched += 1
        if (
            self._pending_bytes >= self.max_bytes
            or len(self._pending) >= self.max_commands
        ):
            return self.flush()
        return None

    def allocate_skip_sequence(self):
        """Reserve the next sequence number for an idle-stream skip message.

        Skips share the batch sequence space (Multi-Ring Paxos decides skip
        instances like any other instance) so that subscribers using the
        round-robin merge see a contiguous sequence per stream.
        """
        sequence = self._sequence
        self._sequence += 1
        return sequence

    def should_flush(self, now):
        """Return True when the oldest pending command has waited past the timeout."""
        return (
            self._pending
            and self._oldest_enqueue_time is not None
            and now - self._oldest_enqueue_time >= self.timeout
        )

    def flush(self):
        """Emit the pending commands as a Batch, or None when empty."""
        if not self._pending:
            return None
        batch = Batch(
            group_id=self.group_id,
            sequence=self._sequence,
            commands=self._pending,
            size_bytes=self._pending_bytes,
        )
        self._sequence += 1
        self.batches_emitted += 1
        self._pending = []
        self._pending_bytes = 0
        self._oldest_enqueue_time = None
        return batch
