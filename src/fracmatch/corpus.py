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
``h | x << C(k - 1, 2)``.  Known class counts (1, 2, 4, 11, 34, 156, 1044,
12346 for n = 1..8) pin the output sizes.
"""

from __future__ import annotations

import os
from pathlib import Path

from .graphs import Graph, Graph6Error, _refine_colors, from_graph6, to_graph6

KNOWN_CLASS_COUNTS = {1: 1, 2: 2, 3: 4, 4: 11, 5: 34, 6: 156, 7: 1044, 8: 12346}

CORPUS_DIR_ENV = "FRACMATCH_CORPUS_DIR"


def canonical_mask(g: Graph) -> int:
    """Minimum edge bitstring over cell-respecting orderings (prefix pruned).

    Bit p of the result corresponds to graph6 bit position p; "minimum"
    means lexicographically smallest bitstring b_0 b_1 b_2 ..., i.e. the
    encoding graph6 sorts first.
    """
    n, adj = g.n, g.adj
    cells: dict[int, list[int]] = {}
    for v, color in enumerate(_refine_colors(g)):
        cells.setdefault(color, []).append(v)
    # slots[k] = the refined cell that position k draws its vertex from
    slots = [cells[c] for c in sorted(cells) for _ in cells[c]]
    m = n * (n - 1) // 2
    best: int | None = None
    order: list[int] = []

    def rec(k: int, placed: int, code: int) -> None:
        nonlocal best
        if k == n:
            if best is None or code < best:
                best = code
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
    assert best is not None
    return int(f"{best:0{m}b}"[::-1], 2)


def canonical_graph6(g: Graph) -> str:
    return to_graph6(Graph.from_edge_mask(g.n, canonical_mask(g)))


def nonisomorphic_graphs(n: int) -> list[str]:
    """Sorted canonical graph6 lines of every isomorphism class on n vertices."""
    if n < 1:
        raise ValueError("need n >= 1")
    level = {0}
    for k in range(2, n + 1):
        base = (k - 1) * (k - 2) // 2
        level = {canonical_mask(Graph.from_edge_mask(k, h | x << base))
                 for h in level for x in range(1 << (k - 1))}
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
