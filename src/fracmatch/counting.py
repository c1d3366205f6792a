"""Exact subgraph counts: complete graphs and complete bipartite graphs.

A copy of K_l is an l-subset of vertices that is pairwise adjacent.  A copy
of K_{r1,r2} is an unordered pair of disjoint vertex sets (A, B) of sizes
r1 and r2 with every cross edge present; edges inside A or B are ignored
(copies are counted as subgraphs, not induced subgraphs).

Counts are plain Python ints, so they are exact at any magnitude.  The
optimized counters work on neighbor bitmasks; ``count_oracle`` re-counts by
bare enumeration of the motif's copies in K_n, each tested for containment
as an edge mask, and is kept deliberately naive so the two routes stay
independent.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cache
from math import comb

from .graphs import Graph, pair_index


@dataclass(frozen=True)
class Clique:
    ell: int

    def __post_init__(self) -> None:
        if self.ell < 1:
            raise ValueError("clique order must be >= 1")

    def __str__(self) -> str:
        return f"clique:{self.ell}"


@dataclass(frozen=True)
class Biclique:
    r1: int
    r2: int

    def __post_init__(self) -> None:
        if self.r1 < 1 or self.r2 < 1:
            raise ValueError("biclique part sizes must be >= 1")
        if self.r1 > self.r2:
            # normalized form keeps r1 <= r2
            lo, hi = self.r2, self.r1
            object.__setattr__(self, "r1", lo)
            object.__setattr__(self, "r2", hi)

    def __str__(self) -> str:
        return f"biclique:{self.r1},{self.r2}"


Motif = Clique | Biclique


def parse_motif(text: str) -> Motif:
    """Parse ``clique:L`` or ``biclique:R1,R2``."""
    kind, _, rest = text.partition(":")
    try:
        if kind == "clique":
            return Clique(int(rest))
        if kind == "biclique":
            a, b = rest.split(",")
            return Biclique(int(a), int(b))
    except ValueError as exc:
        raise ValueError(f"bad motif {text!r}: {exc}") from None
    raise ValueError(f"bad motif {text!r}: expected clique:L or biclique:R1,R2")


def count_cliques(g: Graph, ell: int) -> int:
    """Number of K_ell copies; ell = 1 gives n, ell = 2 gives e(g)."""
    if ell < 1:
        raise ValueError("clique order must be >= 1")
    if ell == 1:
        return g.n
    adj = g.adj

    def rec(cand: int, k: int) -> int:
        # vertices are consumed in ascending order, so cand only holds
        # candidates above the clique built so far
        total = 0
        m = cand
        while m:
            low = m & -m
            v = low.bit_length() - 1
            m ^= low
            nxt = m & adj[v]
            if k == 2:
                total += nxt.bit_count()
            elif nxt.bit_count() >= k - 1:
                total += rec(nxt, k - 1)
        return total

    return rec((1 << g.n) - 1, ell)


def count_bicliques(g: Graph, r1: int, r2: int) -> int:
    """Number of K_{r1,r2} copies under the unordered-pair convention."""
    if r1 < 1 or r2 < 1:
        raise ValueError("biclique part sizes must be >= 1")
    adj = g.adj
    total = 0
    for A in itertools.combinations(range(g.n), r1):
        common = (1 << g.n) - 1
        for a in A:
            common &= adj[a]
        # common never meets A: a vertex is not its own neighbor
        total += comb(common.bit_count(), r2)
    if r1 == r2:
        if total % 2:
            raise AssertionError("symmetric biclique total is odd; convention violated")
        total //= 2
    return total


MAX_ORACLE_VERTICES = 12


@cache
def _copy_masks(n: int, motif: Motif) -> frozenset[int]:
    """The copies of the motif in K_n as edge masks, each once: the edges of
    a clique fix its vertex set, and those of a biclique its bipartition."""
    if isinstance(motif, Clique):
        copies = (itertools.combinations(S, 2)
                  for S in itertools.combinations(range(n), motif.ell))
    else:
        copies = (itertools.product(A, B) for A in itertools.combinations(range(n), motif.r1)
                  for B in itertools.combinations([v for v in range(n) if v not in A], motif.r2))
    return frozenset(sum(1 << pair_index(u, v) for u, v in edges) for edges in copies)


def count_oracle(g: Graph, motif: Motif) -> int:
    """Naive reference count: the copies of the motif in K_n inside g."""
    if g.n > MAX_ORACLE_VERTICES:
        raise ValueError(f"oracle limited to n <= {MAX_ORACLE_VERTICES}, got {g.n}")
    if isinstance(motif, Clique) and motif.ell == 1:
        return g.n  # one edgeless copy per vertex
    edges = g.edge_mask()
    return sum((copy & edges) == copy for copy in _copy_masks(g.n, motif))


def count_motif(g: Graph, motif: Motif) -> int:
    if isinstance(motif, Clique):
        return count_cliques(g, motif.ell)
    return count_bicliques(g, motif.r1, motif.r2)
