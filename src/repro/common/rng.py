"""Seeded random-number helpers.

Every stochastic component (workload generators, network jitter, skip
message timing) takes an explicit :class:`SeededRNG` so experiments are
reproducible and independent components do not share a stream.
"""

import random


def derive_seed(base_seed, *labels):
    """Derive a child seed deterministically from a base seed and labels.

    Uses Python's hash-free mixing (a simple polynomial over the label
    string) so the result is stable across processes and runs.
    """
    mixed = int(base_seed) & 0xFFFFFFFF
    for label in labels:
        for ch in str(label):
            mixed = (mixed * 1000003 + ord(ch)) & 0xFFFFFFFFFFFFFFFF
        mixed = (mixed ^ (mixed >> 31)) & 0xFFFFFFFFFFFFFFFF
    return mixed


class SeededRNG:
    """Thin wrapper around :class:`random.Random` with child-stream derivation."""

    def __init__(self, seed=0):
        self.seed = int(seed)
        self._random = random.Random(self.seed)

    def child(self, *labels):
        """Return a new independent RNG derived from this one and ``labels``."""
        return SeededRNG(derive_seed(self.seed, *labels))

    # Delegation of the handful of methods the library uses.
    def random(self):
        return self._random.random()

    def randint(self, a, b):
        return self._random.randint(a, b)

    def uniform(self, a, b):
        return self._random.uniform(a, b)

    def choice(self, seq):
        return self._random.choice(seq)

    def sample(self, population, k):
        return self._random.sample(population, k)
