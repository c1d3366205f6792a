"""Builders for the extremal graph G(n, s, t) and the two deletion families.

G(n, s, t) is K_t joined to (K_{2s-2t} + empty graph on n + t - 2s
vertices), with t - delta of the edges at one independent-part vertex u
removed.  Vertex labels are fixed: dominating clique first (0..t-1), middle
clique next, independent part last with u as the final vertex; the removed
u-edges go to the lowest-indexed clique vertices.  This makes graph6 output
reproducible across runs.

The families F1(t) and F2(t) instead delete edges at a vertex v of the
middle clique (F1) or of the dominating clique (F2), leaving v with degree
delta.  Motif counts of a family member depend only on how many retained
neighbors of v fall in each structural part, so maximizing over a family
reduces to enumerating those retained splits; that symmetry claim is
checked against literal deletion-set enumeration in the test suite.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import comb

from .counting import Motif, count_motif
from .formulas import ExtremalParams
from .graphs import Graph, complete_graph, delete_edges, disjoint_union, empty_graph, join

LITERAL_SUBSET_LIMIT = 1 << 16  # deletion subsets family_max_count_literal enumerates


def _base_join(p: ExtremalParams) -> Graph:
    """K_t v (K_{2s-2t} + empty_{n+t-2s}) in canonical labeling."""
    inner: Graph | None = None
    if p.middle_size:
        inner = complete_graph(p.middle_size)
    inner = disjoint_union(inner, empty_graph(p.independent_size))
    return join(complete_graph(p.t), inner)


def build_extremal(p: ExtremalParams) -> Graph:
    """The extremal graph G(n, s, t) with t - delta edges removed at u = n - 1."""
    g = _base_join(p)
    u = p.n - 1
    removed = [(i, u) for i in range(p.t - p.delta)]
    return delete_edges(g, removed)


def describe_extremal(p: ExtremalParams) -> dict:
    """Part sizes and deletion list of build_extremal(p), JSON-friendly."""
    u = p.n - 1
    return {
        "n": p.n,
        "s2": p.s2,
        "t": p.t,
        "delta": p.delta,
        "clique_part": list(range(p.t)),
        "middle_clique": list(range(p.t, p.t + p.middle_size)),
        "independent_part": list(range(p.t + p.middle_size, p.n)),
        "u": u,
        "deleted_edges": [[i, u] for i in range(p.t - p.delta)],
    }


def _family_layout(family: str, p: ExtremalParams) -> tuple[int, tuple[int, int, int]]:
    """The family's degree-delta vertex v, the lowest-indexed vertex of its
    part, and how many neighbors v has in (dominating clique, middle clique,
    independent part) of the base join: the caps of a retained split."""
    if family == "F1":  # v in the middle clique, not adjacent to the independent part
        if p.middle_size < 2:
            raise ValueError("F1 needs a nonempty middle clique (t <= s - 1)")
        return p.t, (p.t, p.middle_size - 1, 0)
    if family == "F2":  # v in the dominating clique
        return 0, (p.t - 1, p.middle_size, p.independent_size)
    raise ValueError(f"unknown family {family!r}")


@dataclass(frozen=True)
class FamilySpec:
    """One member of F1(t) or F2(t), identified by its retained split.

    ``retained_split`` lists how many neighbors the degree-delta vertex v
    keeps in (dominating clique, middle clique, independent part), each at
    most its cap in ``_family_layout``.
    """

    family: str  # "F1" | "F2"
    params: ExtremalParams
    retained_split: tuple[int, int, int]

    def __post_init__(self) -> None:
        _, caps = _family_layout(self.family, self.params)
        if len(self.retained_split) != 3 or min(self.retained_split) < 0:
            raise ValueError(f"split {self.retained_split} needs three nonnegative entries")
        if sum(self.retained_split) != self.params.delta:
            raise ValueError(f"split {self.retained_split} must sum to "
                             f"delta = {self.params.delta}")
        if any(keep > cap for keep, cap in zip(self.retained_split, caps)):
            raise ValueError(f"split {self.retained_split} exceeds part sizes {caps}")


def build_family_member(spec: FamilySpec) -> Graph:
    """Base join with v's edges trimmed to realize the retained split.

    Deterministic rule: within each part the retained neighbors are the
    highest-indexed ones, mirroring build_extremal's deletion order.
    """
    p = spec.params
    base = _base_join(p)
    v, _ = _family_layout(spec.family, p)
    mid_lo, mid_hi = p.t, p.t + p.middle_size
    parts = [
        [w for w in range(0, p.t) if w != v],
        [w for w in range(mid_lo, mid_hi) if w != v],
        list(range(mid_hi, p.n)),
    ]
    removed = []
    for keep, members in zip(spec.retained_split, parts):
        neighbors = [w for w in members if base.has_edge(v, w)]
        drop = len(neighbors) - keep
        if drop < 0:
            raise ValueError(f"split {spec.retained_split} exceeds available neighbors")
        removed += [(v, w) for w in neighbors[:drop]]
    return delete_edges(base, removed)


def family_splits(family: str, p: ExtremalParams):
    """All valid retained splits for the family, lexicographic order."""
    _, caps = _family_layout(family, p)
    for a in range(min(caps[0], p.delta) + 1):
        for b in range(min(caps[1], p.delta - a) + 1):
            c = p.delta - a - b
            if c <= caps[2]:
                yield (a, b, c)


def family_max_count(family: str, p: ExtremalParams, motif: Motif) -> int:
    """Exact maximum motif count over the family, by split enumeration."""
    best = -1
    for split in family_splits(family, p):
        member = build_family_member(FamilySpec(family, p, split))
        best = max(best, count_motif(member, motif))
    if best < 0:
        raise ValueError(f"family {family} is empty for {p}")
    return best


def family_max_count_literal(family: str, p: ExtremalParams, motif: Motif) -> int:
    """Maximum over literal deletion subsets E1/E2; cross-check for the
    split enumeration, feasible only at small sizes."""
    v, _ = _family_layout(family, p)
    base = _base_join(p)
    incident = [(v, w) for w in range(p.n) if base.has_edge(v, w)]
    drop = len(incident) - p.delta
    total = comb(len(incident), drop)
    if total > LITERAL_SUBSET_LIMIT:
        raise ValueError(f"{total} deletion subsets exceed limit {LITERAL_SUBSET_LIMIT}")
    best = -1
    for subset in itertools.combinations(incident, drop):
        member = delete_edges(base, list(subset))
        best = max(best, count_motif(member, motif))
    return best
