"""Seeded random graphs for the tests.

A module of its own rather than a ``conftest`` name: tier-1 also collects
``perfbench/tests``, whose ``conftest`` would shadow this one on import."""

import random

from fracmatch.graphs import Graph


def random_graph(rnd: random.Random, n: int) -> Graph:
    m = n * (n - 1) // 2
    return Graph.from_edge_mask(n, rnd.getrandbits(m))
