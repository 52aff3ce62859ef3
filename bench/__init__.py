"""The repository's one benchmark: real client path, vCPUs kept awake, speed-clocked slices.

``python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1``
builds the cluster, drives one workload from two generator threads,
verifies every response and prints every metric by name with its unit.
``bench/README.md`` documents workloads, metrics and how they interact.
"""
