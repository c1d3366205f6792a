"""Builders for the extremal graph G(n, s, t) and the two deletion families.

Every construction here is the base join K_t joined to (K_{2s-2t} + empty
graph on n + t - 2s vertices) with the edges at one vertex v trimmed until v
has degree delta.  Vertex labels are fixed: dominating clique first
(0..t-1), middle clique next, independent part last.  One layout table,
``_family_layout``, names v and its neighbour counts per part: G(n, s, t)
trims the last independent vertex u = n - 1, F1(t) the first middle-clique
vertex and F2(t) the first dominating vertex.  One deletion rule,
``_trimmed_edges``, removes v's lowest-indexed neighbours in each part, so
graph6 output is reproducible across runs.

A member is fixed by its retained split: how many neighbours v keeps in
each part.  Motif counts of a family member depend only on that split, so
maximizing over a family reduces to enumerating splits; that symmetry claim
is checked against literal deletion-set enumeration in the test suite.
"""

from __future__ import annotations

import itertools
from math import comb

from .counting import Motif, count_motif
from .formulas import ExtremalParams
from .graphs import MAX_VERTICES, Graph, complete_graph, delete_edges, disjoint_union, \
    empty_graph, join

LITERAL_SUBSET_LIMIT = 1 << 16  # deletion subsets family_max_count_literal enumerates


def _base_join(p: ExtremalParams) -> Graph:
    """K_t v (K_{2s-2t} + empty_{n+t-2s}) in canonical labeling."""
    if p.n > MAX_VERTICES:
        raise ValueError(f"n = {p.n} exceeds the {MAX_VERTICES} vertices a graph can have")
    inner: Graph | None = None
    if p.middle_size:
        inner = complete_graph(p.middle_size)
    inner = disjoint_union(inner, empty_graph(p.independent_size))
    return join(complete_graph(p.t), inner)


def _parts(p: ExtremalParams) -> tuple[range, range, range]:
    """Vertices of the dominating clique, the middle clique and the
    independent part of the base join."""
    mid_hi = p.t + p.middle_size
    return range(p.t), range(p.t, mid_hi), range(mid_hi, p.n)


def _family_layout(family: str, p: ExtremalParams) -> tuple[int, tuple[int, int, int]]:
    """The construction's degree-delta vertex v and how many neighbours v
    has in (dominating clique, middle clique, independent part) of the base
    join: the caps of a retained split."""
    if family == "G":  # v = u, the last independent vertex, sees the dominating clique
        return p.n - 1, (p.t, 0, 0)
    if family == "F1":  # v in the middle clique, not adjacent to the independent part
        if p.middle_size < 2:
            raise ValueError("F1 needs a nonempty middle clique (t <= s - 1)")
        return p.t, (p.t, p.middle_size - 1, 0)
    if family == "F2":  # v in the dominating clique
        return 0, (p.t - 1, p.middle_size, p.independent_size)
    raise ValueError(f"unknown family {family!r}")


def _trimmed_edges(family: str, p: ExtremalParams,
                   split: tuple[int, int, int]) -> list[tuple[int, int]]:
    """The base-join edges (w, v) that trimming v to the retained split
    deletes: in each part, v's lowest-indexed neighbours, so v keeps the
    highest-indexed ones.  v's neighbours in a part are the whole part but v
    where the cap is nonzero, and none where it is 0, so the cap - keep
    lowest vertices of the part other than v are the ones to cut."""
    v, caps = _family_layout(family, p)
    if len(split) != 3 or min(split) < 0:
        raise ValueError(f"split {split} needs three nonnegative entries")
    if sum(split) != p.delta:
        raise ValueError(f"split {split} must sum to delta = {p.delta}")
    if any(keep > cap for keep, cap in zip(split, caps)):
        raise ValueError(f"split {split} exceeds part sizes {caps}")
    removed = []
    for keep, cap, part in zip(split, caps, _parts(p)):
        removed += [(w, v) for w in part if w != v][:cap - keep]
    return removed


def build_family_member(family: str, p: ExtremalParams,
                        split: tuple[int, int, int]) -> Graph:
    """The base join with v's edges trimmed to the retained split."""
    return delete_edges(_base_join(p), _trimmed_edges(family, p, split))


def build_extremal(p: ExtremalParams) -> Graph:
    """The extremal graph G(n, s, t): t - delta edges removed at u = n - 1."""
    return build_family_member("G", p, (p.delta, 0, 0))


def describe_extremal(p: ExtremalParams) -> dict:
    """Part sizes and deletion list of build_extremal(p), JSON-friendly."""
    clique, middle, independent = _parts(p)
    return {
        "n": p.n,
        "s2": p.s2,
        "t": p.t,
        "delta": p.delta,
        "clique_part": list(clique),
        "middle_clique": list(middle),
        "independent_part": list(independent),
        "u": p.n - 1,
        "deleted_edges": [list(e) for e in _trimmed_edges("G", p, (p.delta, 0, 0))],
    }


def family_splits(family: str, p: ExtremalParams) -> list[tuple[int, int, int]]:
    """All valid retained splits for the family, lexicographic order."""
    _, caps = _family_layout(family, p)
    ranges = [range(min(cap, p.delta) + 1) for cap in caps]
    return [split for split in itertools.product(*ranges) if sum(split) == p.delta]


def family_max_count(family: str, p: ExtremalParams, motif: Motif) -> int:
    """Exact maximum motif count over the family, by split enumeration."""
    best = -1
    for split in family_splits(family, p):
        best = max(best, count_motif(build_family_member(family, p, split), motif))
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
