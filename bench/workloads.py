"""The four workloads and their seeded inputs.

Every workload is a closed loop of two callers that each wait for their
reply (the paper's client model) against the constructors' defaults a
user gets (``mpl=4``, two replicas, delivery batches of 32), a KV store
preloaded with 100,000 keys, uniform keys and 8-byte values.  Inputs are
generated from the seed before timing; the system under test receives
only the generated commands.
"""

import random
from typing import NamedTuple

from bench.verify import StripeModel

GENERATORS = 2
INITIAL_KEYS = 100_000
INITIAL_VALUE = b"\x00" * 8
#: Bounded replay log: with the default (unbounded) log, throughput decays
#: inside a run, so the result would depend on the run length.
LOG_RETENTION = 10_000
#: Keys above the preload that ``insert``/``delete`` toggle, per generator.
SPARE_KEYS = 64


class Workload(NamedTuple):
    name: str
    why: str
    stack: str  #: "http" (socket -> frontend -> process cluster) or "direct"
    mix: tuple  #: ((command, weight), ...)
    batch: int  #: KV operations per request
    requests: int  #: generated requests per generator, replayed cyclically


WORKLOADS = {
    workload.name: workload
    for workload in (
        Workload(
            "http-point",
            "the path a real client hits, one command per request: per-request "
            "fixed costs (HTTP, pydantic, asyncio hops, one frame per command) do the work",
            "http", (("read", 80), ("update", 20)), 1, 16_384,
        ),
        Workload(
            "http-batch",
            "same stack, 32 commands per request: the edge is amortised, so sequencer, "
            "TCP transport, wire codec and replica worker loop dominate",
            "http", (("read", 80), ("update", 20)), 32, 2_048,
        ),
        Workload(
            "direct-indep",
            "threaded runtime without HTTP, TCP or codec, keyed single-group commands "
            "(paper fig. 3/7): multicast, in-process delivery, worker loop and B+-tree only",
            "direct", (("read", 50), ("update", 50)), 1, 65_536,
        ),
        Workload(
            "direct-dep",
            "as direct-indep plus 10 % insert/delete (paper fig. 6), which go to all "
            "groups and run behind barriers: a gain for keyed commands must not cost these",
            "direct", (("read", 45), ("update", 45), ("insert", 5), ("delete", 5)), 1, 65_536,
        ),
    )
}


def new_model(index):
    return StripeModel(index, GENERATORS, INITIAL_KEYS, INITIAL_VALUE)


def generate(workload, seed, index):
    """The request cycle of generator ``index``: a list of op tuples.

    A request is a tuple of ``(command, key, value)`` operations on
    distinct keys of the generator's stripe (distinct, so the expected
    results do not depend on the order inside a batch).  ``insert`` and
    ``delete`` toggle a small set of spare keys and the cycle ends with
    every spare key deleted again, so replaying it never fails.
    """
    rng = random.Random(f"{seed}:{workload.name}:{index}")
    names = [name for name, _weight in workload.mix]
    weights = [weight for _name, weight in workload.mix]
    stripe = INITIAL_KEYS // GENERATORS
    present = set()
    requests = []
    for _ in range(workload.requests):
        slots = rng.sample(range(stripe), workload.batch)
        ops = []
        for slot, name in zip(slots, rng.choices(names, weights, k=workload.batch)):
            key = slot * GENERATORS + index
            if name in ("insert", "delete"):
                key = INITIAL_KEYS + rng.randrange(SPARE_KEYS) * GENERATORS + index
                name = "delete" if key in present else "insert"
                present.symmetric_difference_update((key,))
            value = None
            if name in ("insert", "update"):
                value = b"%08x" % rng.getrandbits(32)
            ops.append((name, key, value))
        requests.append(tuple(ops))
    requests.extend((("delete", key, None),) for key in sorted(present))
    return requests
