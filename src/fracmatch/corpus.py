"""Canonical forms and generation of small non-isomorphic graph corpora.

The canonical form of a graph is the minimum graph6 edge bitstring over a
restricted but isomorphism-invariant family of vertex orderings: vertices
are laid out cell by cell following the stable coloring of iterated degree
refinement, with every ordering inside each cell explored under prefix
pruning.  Equal canonical strings therefore mean isomorphic graphs and
vice versa, which is what the corpus generator needs for exact
deduplication.

Generation proceeds by vertex extension: every graph on n vertices arises
from some graph on n - 1 vertices by adding one vertex with an arbitrary
neighborhood, so extending a complete corpus and deduplicating canonically
yields a complete corpus.  Known class counts (1, 2, 4, 11, 34, 156, 1044,
12346 for n = 1..8) pin the output sizes in the tests.
"""

from __future__ import annotations

import os
from pathlib import Path

from .graphs import Graph, Graph6Error, _bits, _refine_colors, from_graph6, pair_index, \
    to_graph6

KNOWN_CLASS_COUNTS = {1: 1, 2: 2, 3: 4, 4: 11, 5: 34, 6: 156, 7: 1044, 8: 12346}

CORPUS_DIR_ENV = "FRACMATCH_CORPUS_DIR"


def canonical_mask(g: Graph) -> int:
    """Minimum edge bitstring over cell-respecting orderings (prefix pruned).

    Bit p of the result corresponds to graph6 bit position p; "minimum"
    means lexicographically smallest bitstring b_0 b_1 b_2 ..., i.e. the
    encoding graph6 sorts first.
    """
    n = g.n
    cells: dict[int, list[int]] = {}
    for v, color in enumerate(_refine_colors(g)):
        cells.setdefault(color, []).append(v)
    pool: list[list[int]] = [cells[c] for c in sorted(cells)]
    best: list[int] | None = None
    order: list[int] = []
    # rows[k] = edge bits contributed by order[k] against order[:k],
    # packed little-endian as a (k-bit) int read b_0-first for comparison
    rows: list[int] = []

    def rec(cell_idx: int, used_in_cell: int) -> None:
        nonlocal best
        k = len(order)
        if k == n:
            cand = list(rows)
            if best is None or cand < best:
                best = cand
            return
        cell = pool[cell_idx]
        if used_in_cell == len(cell):
            rec(cell_idx + 1, 0)
            return
        for i in range(len(cell)):
            v = cell[i]
            if v < 0:
                continue
            row = 0
            for col, w in enumerate(order):
                if g.has_edge(v, w):
                    row |= 1 << col
            # bitstring comparison wants bit (0, k) most significant
            key = _revbits(row, k)
            rows.append(key)
            # prune any prefix already beaten by the incumbent
            if best is not None and rows > best[: k + 1]:
                rows.pop()
                continue
            cell[i] = -1
            order.append(v)
            rec(cell_idx, used_in_cell + 1)
            rows.pop()
            order.pop()
            cell[i] = v
        return

    rec(0, 0)
    assert best is not None
    # rebuild an edge mask in pair_index layout from the row keys
    mask = 0
    for j in range(1, n):
        key = best[j]
        for i in range(j):
            if key >> (j - 1 - i) & 1:
                mask |= 1 << pair_index(i, j)
    return mask


def _revbits(x: int, width: int) -> int:
    out = 0
    for _ in range(width):
        out = out << 1 | (x & 1)
        x >>= 1
    return out


def canonical_graph6(g: Graph) -> str:
    return to_graph6(Graph.from_edge_mask(g.n, canonical_mask(g)))


def nonisomorphic_graphs(n: int) -> list[str]:
    """Sorted canonical graph6 lines of every isomorphism class on n vertices."""
    if n < 1:
        raise ValueError("need n >= 1")
    level = {canonical_graph6(Graph(1, (0,)))}
    for k in range(2, n + 1):
        nxt: set[str] = set()
        for line in level:
            g = from_graph6(line)
            base = list(g.adj) + [0]
            for nb in range(1 << (k - 1)):
                adj = list(base)
                adj[k - 1] = nb
                for u in _bits(nb):
                    adj[u] |= 1 << (k - 1)
                nxt.add(canonical_graph6(Graph(k, tuple(adj))))
        level = nxt
    return sorted(level)


def write_corpus(path: str | Path, n: int) -> int:
    """Generate the n-vertex corpus file, one canonical graph6 line each."""
    lines = nonisomorphic_graphs(n)
    expected = KNOWN_CLASS_COUNTS.get(n)
    if expected is not None and len(lines) != expected:
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
