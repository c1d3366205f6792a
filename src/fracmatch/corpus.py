"""Canonical forms and generation of small non-isomorphic graph corpora.

The canonical form of a graph is the minimum graph6 edge bitstring over a
restricted but isomorphism-invariant family of vertex orderings: vertices
are laid out cell by cell following the stable coloring of iterated degree
refinement, with every ordering inside each cell explored under prefix
pruning.  A prefix is one int code with b_0 as its most significant bit,
so prefixes of equal depth compare as ints.  Equal canonical strings mean
isomorphic graphs and vice versa, which is what exact deduplication needs.

Generation proceeds by vertex extension: every graph on k vertices is some
graph H on k - 1 vertices plus a vertex with neighborhood X, which in the
``pair_index`` edge-mask layout (the native scans' layout) is one OR,
``h | x << C(k - 1, 2)``.  Only one X per orbit of Aut(H) is needed: a
sigma in Aut(H), extended to fix the new vertex v, maps H + X onto
H + sigma(X), so the two extensions have one canonical form and the set
of canonical forms is unchanged (the orbit step of orderly generation:
Read, Ann. Discrete Math. 2, 1978; McKay, J. Algorithms 26, 1998).  The
group comes from the search that labeled the class: its optimal leaves
are one coset of the automorphism group, so their number is |Aut H|, the
weight n!/|Aut H| of a class in a labeled count.  Known class counts (1, 2,
4, 11, 34, 156, 1044, 12346 for n = 1..8) pin the output sizes.
"""

from __future__ import annotations

import os
from pathlib import Path

from .graphs import Graph, Graph6Error, _refine_colors, from_graph6, to_graph6

KNOWN_CLASS_COUNTS = {1: 1, 2: 2, 3: 4, 4: 11, 5: 34, 6: 156, 7: 1044, 8: 12346}

CORPUS_DIR_ENV = "FRACMATCH_CORPUS_DIR"


def _canonical_search(g: Graph) -> tuple[int, list[tuple[int, ...]]]:
    """The canonical mask of g and the search's optimal leaves: every
    cell-respecting ordering (``leaf[p]`` = the vertex placed at position p)
    whose edge bitstring is the minimum.

    Bit p of the mask corresponds to graph6 bit position p; "minimum"
    means lexicographically smallest bitstring b_0 b_1 b_2 ..., i.e. the
    encoding graph6 sorts first.  Pruning drops only prefixes strictly
    above the incumbent's, so every ordering that attains the minimum is
    reached, and those orderings are one coset of Aut(g).
    """
    n, adj = g.n, g.adj
    cells: dict[int, list[int]] = {}
    for v, color in enumerate(_refine_colors(g)):
        cells.setdefault(color, []).append(v)
    # slots[k] = the refined cell that position k draws its vertex from
    slots = [cells[c] for c in sorted(cells) for _ in cells[c]]
    m = n * (n - 1) // 2
    best: int | None = None
    leaves: list[tuple[int, ...]] = []
    order: list[int] = []

    def rec(k: int, placed: int, code: int) -> None:
        nonlocal best
        if k == n:  # code <= best here: the last position prunes at rest = 0
            if code != best:
                best = code
                leaves.clear()
            leaves.append(tuple(order))
            return
        # bits (0, k), (1, k), ..., (k - 1, k) follow the C(k, 2)-bit prefix
        rest = m - (k + 1) * k // 2
        for v in slots[k]:
            if placed >> v & 1:
                continue
            nb = adj[v]
            key = code
            for w in order:
                key = key << 1 | nb >> w & 1
            # prune any prefix already beaten by the incumbent's
            if best is not None and key > best >> rest:
                continue
            order.append(v)
            rec(k + 1, placed | 1 << v, key)
            order.pop()

    rec(0, 0, 0)
    del rec  # the closure refers to itself: free it now, not at the next GC pass
    assert best is not None
    return int(f"{best:0{m}b}"[::-1], 2), leaves


def canonical_mask(g: Graph) -> int:
    """Minimum edge bitstring over cell-respecting orderings (prefix pruned);
    see ``_canonical_search``."""
    return _canonical_search(g)[0]


def canonical_graph6(g: Graph) -> str:
    return to_graph6(Graph.from_edge_mask(g.n, canonical_mask(g)))


def _orbit_representatives(leaves: list[tuple[int, ...]]) -> int:
    """The least neighbourhood X of each Aut(C)-orbit on the subsets of C's
    k vertices, as bit X of an int, C being the canonical form that
    ``leaves`` (a search's optimal leaves) attain.

    Leaf i relabels the searched graph into C, so p -> leaf_0^-1(leaf_i(p))
    is an automorphism of C, and the leaves give all of Aut(C).
    """
    k = len(leaves[0])
    position = [0] * k
    for p, v in enumerate(leaves[0]):
        position[v] = p
    # images[i][p] = the bit of sigma_i(p)
    images = [[1 << position[v] for v in leaf] for leaf in leaves]
    seen = reps = 0
    for x in range(1 << k):
        if seen >> x & 1:
            continue
        reps |= 1 << x
        members = [p for p in range(k) if x >> p & 1]
        for image in images:
            y = 0
            for p in members:
                y |= image[p]
            seen |= 1 << y
    return reps


def nonisomorphic_graphs(n: int) -> list[str]:
    """Sorted canonical graph6 lines of every isomorphism class on n vertices.

    Each class C on k - 1 vertices is extended only by the orbit
    representatives of its neighbourhoods (see the module docstring),
    found from the leaves of the search that first produced C."""
    if n < 1:
        raise ValueError("need n >= 1")
    level = {0: 0b11}  # K1 and both neighbourhoods of a second vertex
    for k in range(2, n + 1):
        base = (k - 1) * (k - 2) // 2
        found: dict[int, int] = {}
        for h, reps in level.items():
            for x in range(1 << (k - 1)):
                if reps >> x & 1:
                    c, leaves = _canonical_search(Graph.from_edge_mask(k, h | x << base))
                    if c not in found:  # level n is never extended
                        found[c] = _orbit_representatives(leaves) if k < n else 0
        level = found
    return sorted(to_graph6(Graph.from_edge_mask(n, h)) for h in level)


def write_corpus(path: str | Path, n: int) -> int:
    """Generate the n-vertex corpus file, one canonical graph6 line each;
    only orders with a known class count, so that every file is checked."""
    expected = KNOWN_CLASS_COUNTS.get(n)
    if expected is None:
        raise ValueError(f"gen-corpus checks its class count, known for "
                         f"1 <= n <= {max(KNOWN_CLASS_COUNTS)} only; got n = {n}")
    lines = nonisomorphic_graphs(n)
    if len(lines) != expected:
        raise AssertionError(
            f"generated {len(lines)} classes for n = {n}, expected {expected}"
        )
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("\n".join(lines) + "\n")
    return len(lines)


def read_graph6_stream(source, decode=None):
    """Decoded graphs from a graph6 file path or an open text stream;
    tolerates a >>graph6<< header and blank lines.

    Yields (line_number, decode(line)), where ``decode`` defaults to
    ``from_graph6`` (a Graph; ``graphs.graph6_mask`` gives (n, edge mask)
    instead); raises Graph6Error annotated with the line number on
    malformed input.  A file is read as ASCII with undecodable bytes kept
    as surrogates, so a non-ASCII byte is a malformed line too.
    """
    decode = from_graph6 if decode is None else decode
    fh = source
    if isinstance(source, (str, os.PathLike)):
        fh = open(source, "r", encoding="ascii", errors="surrogateescape")
    try:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if line.startswith(">>graph6<<"):
                line = line[len(">>graph6<<"):]
            if not line:
                continue
            try:
                yield lineno, decode(line)
            except Graph6Error as exc:
                raise Graph6Error(f"line {lineno}: {exc}") from None
    finally:
        if fh is not source:
            fh.close()


def default_corpus_path(n: int) -> Path:
    """$FRACMATCH_CORPUS_DIR/graphs{n}.g6, falling back to the repo data dir."""
    env = os.environ.get(CORPUS_DIR_ENV)
    if env:
        return Path(env) / f"graphs{n}.g6"
    return Path(__file__).resolve().parents[2] / "data" / f"graphs{n}.g6"
