"""Simple undirected graphs on at most 64 vertices.

Vertices are 0..n-1 and every neighbor set is a Python int used as a
bitmask, so set operations are single word operations for the sizes this
package cares about.  Graphs are immutable: every structural operation
(complement, join, disjoint union, edge deletion) returns a new graph.

Building and validating a graph handles its adjacency as one packed n x w
bit matrix, w the least power of two >= n: row v sits at bits v*w..v*w+w-1
of a single int.  The matrix is transposed by log2(w) delta swaps (Warren,
*Hacker's Delight*, 2nd ed., section 7-3), so symmetry is one comparison
of the matrix with its transpose instead of a loop over the edges.

Serialization is the graph6 ASCII format (6-bit groups, byte offset 63,
upper-triangle column order), bit-exact and without any relabeling.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

MAX_VERTICES = 64


class Graph6Error(ValueError):
    """Malformed or unsupported graph6 input."""


@dataclass(frozen=True)
class Graph:
    """Immutable simple graph; ``adj[v]`` is the neighbor bitmask of v."""

    n: int
    adj: tuple[int, ...]

    def __post_init__(self) -> None:
        """Check the vertex count, then each row's range and self-loop bit in
        vertex order, then symmetry: every entry of the packed matrix must
        be in its transpose, and the lowest one that is not, (v, u), is the
        first asymmetric pair in row-major order."""
        w, steps = _layout(self.n)
        if len(self.adj) != self.n:
            raise ValueError("adjacency table length does not match vertex count")
        full = (1 << self.n) - 1
        x = 0
        for v, nb in enumerate(self.adj):
            if nb & ~full:
                raise ValueError(f"vertex {v} has a neighbor index >= {self.n}")
            if nb >> v & 1:
                raise ValueError(f"self-loop at vertex {v}")
            x |= nb << v * w
        asymmetric = x & ~_transpose(x, steps)
        if asymmetric:
            v, u = divmod((asymmetric & -asymmetric).bit_length() - 1, w)
            raise ValueError(f"asymmetric adjacency between {u} and {v}")

    @classmethod
    def from_edges(cls, n: int, edges) -> "Graph":
        adj = [0] * n
        for u, v in edges:
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        return cls(n, tuple(adj))

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.adj[u] >> v & 1)

    def degree(self, v: int) -> int:
        return self.adj[v].bit_count()

    def edge_count(self) -> int:
        return sum(nb.bit_count() for nb in self.adj) // 2

    def edges(self) -> list[tuple[int, int]]:
        """All edges as (u, v) pairs with u < v, sorted."""
        out = []
        for v in range(self.n):
            for u in _bits(self.adj[v] >> (v + 1)):
                out.append((v, u + v + 1))
        return out

    def edge_mask(self) -> int:
        """Pack the upper triangle into one int, bit pair_index(i, j) per edge
        (the inverse of ``from_edge_mask``: row j's lower bits from C(j, 2))."""
        mask = 0
        for j, nb in enumerate(self.adj):
            mask |= (nb & ((1 << j) - 1)) << (j * (j - 1) // 2)
        return mask

    @classmethod
    def from_edge_mask(cls, n: int, mask: int) -> "Graph":
        """The graph whose edge i < j is bit pair_index(i, j) of mask.

        Row j of the packed matrix gets j's lower neighbours, the mask's
        bits C(j, 2)..C(j, 2) + j - 1; ORing in the transpose adds each
        edge's other end, and the n rows are read back off."""
        w, steps = _layout(n)
        x = 0
        for j in range(1, n):
            x |= (mask >> (j * (j - 1) // 2) & ((1 << j) - 1)) << j * w
        x |= _transpose(x, steps)
        row = (1 << w) - 1
        return cls(n, tuple([x >> shift & row for shift in range(0, n * w, w)]))


@cache
def _layout(n: int) -> tuple[int, tuple[tuple[int, int], ...]]:
    """(w, delta swaps) of the packed n x w matrix, w the least power of two
    >= n.  Swap s (s = w/2, ..., 1) exchanges entry (r, c + s) with
    (r + s, c) for r, c with bit s clear, a distance of s * (w - 1) bits;
    its mask marks the lower entry (r, c + s) of each pair.  Checks n first,
    for ``Graph`` and for ``from_edge_mask``, which packs before it builds."""
    if not 1 <= n <= MAX_VERTICES:
        raise ValueError(f"vertex count {n} outside 1..{MAX_VERTICES}")
    w = 1 << (n - 1).bit_length()
    steps = []
    s = w >> 1
    while s:
        row = sum(((1 << s) - 1) << c + s for c in range(0, w, 2 * s))
        mask = sum(row << r * w for r in range(w) if not r & s)
        steps.append((s * (w - 1), mask))
        s >>= 1
    return w, tuple(steps)


def _transpose(x: int, steps: tuple[tuple[int, int], ...]) -> int:
    """Transpose of the packed w x w bit matrix x (Warren's delta swaps)."""
    for shift, mask in steps:
        t = (x ^ x >> shift) & mask
        x ^= t ^ t << shift
    return x


def _bits(mask: int):
    """Indices of set bits, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def pair_index(i: int, j: int) -> int:
    """Column-order index of the unordered pair i < j (matches graph6 bit order)."""
    if i > j:
        i, j = j, i
    return j * (j - 1) // 2 + i


# ---------------------------------------------------------------------------
# small builders

def empty_graph(n: int) -> Graph:
    return Graph(n, (0,) * n)


def complete_graph(n: int) -> Graph:
    full = (1 << n) - 1
    return Graph(n, tuple(full ^ (1 << v) for v in range(n)))


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise ValueError("cycle needs at least 3 vertices")
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def path_graph(n: int) -> Graph:
    return Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


# ---------------------------------------------------------------------------
# structural operations

def complement(g: Graph) -> Graph:
    full = (1 << g.n) - 1
    return Graph(g.n, tuple((full ^ nb ^ (1 << v)) for v, nb in enumerate(g.adj)))


def join(g: Graph, h: Graph) -> Graph:
    """g on 0..n(g)-1, h shifted up, plus all cross edges."""
    n = g.n + h.n
    if n > MAX_VERTICES:
        raise ValueError(f"join would have {n} > {MAX_VERTICES} vertices")
    hmask = ((1 << h.n) - 1) << g.n
    gmask = (1 << g.n) - 1
    adj = [nb | hmask for nb in g.adj]
    adj += [(nb << g.n) | gmask for nb in h.adj]
    return Graph(n, tuple(adj))


def disjoint_union(g: Graph | None, h: Graph) -> Graph:
    """g followed by h with no cross edges; g may be None (empty graph)."""
    if g is None:
        return h
    n = g.n + h.n
    if n > MAX_VERTICES:
        raise ValueError(f"union would have {n} > {MAX_VERTICES} vertices")
    adj = list(g.adj) + [nb << g.n for nb in h.adj]
    return Graph(n, tuple(adj))


def delete_edges(g: Graph, edges) -> Graph:
    adj = list(g.adj)
    seen = set()
    for u, v in edges:
        key = (min(u, v), max(u, v))
        if key in seen:
            raise ValueError(f"duplicate edge {key} in deletion list")
        seen.add(key)
        if not g.has_edge(u, v):
            raise ValueError(f"edge {key} not present")
        adj[u] &= ~(1 << v)
        adj[v] &= ~(1 << u)
    return Graph(g.n, tuple(adj))


def degree_stats(g: Graph) -> tuple[int, int, list[int]]:
    """(min degree, max degree, degree sequence indexed by vertex)."""
    seq = [nb.bit_count() for nb in g.adj]
    return min(seq), max(seq), seq


# ---------------------------------------------------------------------------
# graph6

def to_graph6(g: Graph) -> str:
    """Canonical graph6 line for g, current labeling, no trailing newline."""
    n = g.n
    if n <= 62:
        head = chr(n + 63)
    else:
        head = "~" + chr((n >> 12 & 63) + 63) + chr((n >> 6 & 63) + 63) + chr((n & 63) + 63)
    m = n * (n - 1) // 2
    # the mask's bits in pair order (a sentinel bit m keeps the leading
    # zeros), padded with zeros to whole sextets, one character per sextet
    bits = bin(g.edge_mask() | 1 << m)[3:][::-1] + "0" * (-m % 6)
    return head + "".join([chr(int(bits[k:k + 6], 2) + 63) for k in range(0, m, 6)])


_REVERSED_SEXTETS = tuple(format(val, "06b")[::-1] for val in range(64))


def graph6_mask(text: str) -> tuple[int, int]:
    """Decode one graph6 line (surrounding whitespace tolerated) to
    (n, edge mask), the mask in ``pair_index`` bit order."""
    s = text.strip()
    if not s:
        raise Graph6Error("empty graph6 line")
    if min(s) < "?" or max(s) > "~":  # graph6 bytes are 63..126
        raise Graph6Error(f"malformed header: byte outside graph6 alphabet in {s!r}")
    data = [ord(c) - 63 for c in s]
    if data[0] < 63:
        n, body = data[0], data[1:]
    elif len(data) >= 2 and data[1] < 63:
        if len(data) < 4:
            raise Graph6Error("malformed header: truncated extended vertex count")
        n = data[1] << 12 | data[2] << 6 | data[3]
        body = data[4:]
    else:
        raise Graph6Error("vertex count out of supported range (n > 258047 form)")
    if not 1 <= n <= MAX_VERTICES:
        raise Graph6Error(f"vertex count {n} out of supported range 1..{MAX_VERTICES}")
    m = n * (n - 1) // 2
    need = (m + 5) // 6
    if len(body) != need:
        raise Graph6Error(f"malformed header: expected {need} payload bytes, got {len(body)}")
    # graph6 bit p, read most significant first in each byte, is pair p, so
    # the bytes in reverse order, each bit-reversed, read the mask in binary
    # after 6 * need - m padding bits
    bits = "".join([_REVERSED_SEXTETS[val] for val in reversed(body)])
    if "1" in bits[:6 * need - m]:
        raise Graph6Error("trailing bits nonzero")
    return n, int(bits or "0", 2)


def from_graph6(text: str) -> Graph:
    """Decode one graph6 line (surrounding whitespace tolerated)."""
    return Graph.from_edge_mask(*graph6_mask(text))


# ---------------------------------------------------------------------------
# isomorphism (exact, intended for n <= 10)

def _refine_colors(g: Graph) -> list[int]:
    """Iterated degree refinement, run until stable; returns a color per vertex.

    Colors are ranks of isomorphism-invariant signatures, so listing the
    color classes in color order is itself invariant (the corpus's
    canonical forms rely on that)."""
    colors = [g.degree(v) for v in range(g.n)]
    while True:
        sig = []
        for v in range(g.n):
            nbc = sorted(colors[u] for u in _bits(g.adj[v]))
            sig.append((colors[v], tuple(nbc)))
        ranking = {s: i for i, s in enumerate(sorted(set(sig)))}
        new = [ranking[s] for s in sig]
        if new == colors:
            break
        colors = new
    return colors


def are_isomorphic(g: Graph, h: Graph) -> bool:
    """Exact isomorphism test via color refinement plus backtracking."""
    if g.n != h.n or g.edge_count() != h.edge_count():
        return False
    cg, ch = _refine_colors(g), _refine_colors(h)
    if sorted(cg) != sorted(ch):
        return False
    n = g.n
    candidates = [[u for u in range(n) if ch[u] == cg[v]] for v in range(n)]
    order = sorted(range(n), key=lambda v: len(candidates[v]))
    mapping = [-1] * n
    used = [False] * n

    def extend(idx: int) -> bool:
        if idx == n:
            return True
        v = order[idx]
        for u in candidates[v]:
            if used[u]:
                continue
            ok = True
            for w in order[:idx]:
                if g.has_edge(v, w) != h.has_edge(u, mapping[w]):
                    ok = False
                    break
            if ok:
                mapping[v] = u
                used[u] = True
                if extend(idx + 1):
                    return True
                used[u] = False
                mapping[v] = -1
        return False

    return extend(0)


def relabel(g: Graph, perm) -> Graph:
    """Image of g under vertex map v -> perm[v]."""
    return Graph.from_edges(g.n, [(perm[u], perm[v]) for u, v in g.edges()])


def all_labeled_graphs(n: int):
    """Every labeled graph on n vertices, ascending edge-mask order."""
    for mask in range(1 << (n * (n - 1) // 2)):
        yield Graph.from_edge_mask(n, mask)
