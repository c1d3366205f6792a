"""Exhaustive small-graph verification of the extremal bounds.

A scan reads one of two sources as chunks of edge bitmasks: the native
source covers every labeled graph on n vertices as blocks of labeled graphs
H on the first n - 1 vertices, each H under every neighbourhood X of the
last vertex (mask (x << C(n - 1, 2)) | h), and the graph6 stream source
decodes a non-isomorphic corpus, one graph per line, to masks in blocks
of _BLOCK lines, one numpy pass each, handing only the lines that pass
rejects to the scalar ``graph6_mask`` (all filter quantities are
preserved by isomorphism, so class representatives are enough).  Every
scan stops at MAX_SCAN_VERTICES; a VerifySpec is the question alone, valid
at any n, and the worker count is an argument of the scan, not of the
spec.

Every chunk of either source takes one path.  A filter is a key,
``VerifySpec.filter_key``: ("k", k), ("s2", s2, "d", d) or ("s2", s2,
mode, delta), and a chunk gets the invariants its keys read from
vectorized numpy passes: the matching number nu for "k", the doubled
fractional matching number nu2 and minimum/maximum degree for "s2".
``_select`` applies a key to a chunk's arrays or to one graph's scalars.
Each distinct key of a group selects a chunk's passing masks once, and
each question, a key and a motif, counts motif copies in them into one
fold, however many specs ask it, that keeps the maximum count, the number
of passing graphs and the WITNESS_CAP smallest witnesses in graph6 order,
by sort keys that are their graph6 bit strings, so that each witness's
graph6 line is written from its key; a nonexistence scan is the at-least
key with no motif, so its witnesses are counterexamples.  A stream chunk
is one kernel block of _BLOCK masks, and a key whose motifs read
neighbour rows twice or more unpacks its passing masks' rows once for
them.  A native chunk builds only the masks its keys select, after its
invariants.  With ``jobs > 1`` and at least _POOL_MIN_CHUNKS chunks, up to
``jobs`` workers (never more than the CPU count) fold and spot-check
chunks and send back only the folds of their questions and the number of
graphs they re-checked; a smaller scan folds in the calling process,
where a pool would cost more than it saves.  No fold depends on the
chunking, so a report is byte-identical for any worker count, and
``verify_specs`` serves every spec sharing (n, source, corpus) from one
pass.

Motif counts come without enumerating copies, except for cliques K_l with
l >= 3 (see ``count_motif_vector``).  Edges are popcounts.  For K_{r1,r2},
a copy is an r1-set A together with r2 common neighbours of A, which lie
outside A because no vertex is its own neighbour; so the count is the sum
over |A| = r1 of C(|N(A)|, r2), halved when r1 = r2 because each copy is
then found once from each side.

The vectorized invariants are not the scalar algorithms: nu2 is the
König–Ore defect formula of the bipartite double cover, 2 nu* = min over
S of (n - |S| + |N(S)|), and nu a perfect-matching DP over even vertex
sets, both on byte-wide neighbour rows (``mask_invariants``,
``matching_numbers``).  Both sources read nu off the graph H on the first
n - 1 vertices, by the second of two one-vertex identities below: one DP
pass on H gives nu(H) and D(H), the vertices u with nu(H - u) = nu(H),
which are those some maximum matching misses.  The stream's chunks read
nu2 off their own masks, and a native chunk reads it off tables of its
graphs H (``extension_invariants``) by the first, with U = V(H) - X:

    2 nu*(H + v) = min(2 nu*(H) + 2, 2|X| + 2 nu*(H[U]),
                       1 + min over S of U of (n - 1 - |S| + |N_H(S)|)),
    nu(H + v)    = nu(H) + [X meets D(H)],

and deg(u) grows by one for u in X.  Every scan cross-validates both
kernels where each chunk is folded: one mask in 4096, and at least 256 per
scan (all of them in smaller scans), has the invariants its chunk computed
re-derived through the scalar per-graph APIs (deficiency scan and double
cover matching for nu*, degree stats, ``matching_number``), so a
vectorization bug cannot slip through silently; a report's
``spot_checked`` says how many graphs its scan re-checked.  The stream
source likewise re-decodes the lines at those positions through
``graph6_mask``, which must give the block decoder's masks.  A chunk
that computes both nu and nu2 also checks 2 nu <= nu2 <= 3 nu
(nu <= nu* <= 3 nu / 2) on every graph.  Likewise
each report's first witness, and a nonexistence scan's first
counterexample, is re-derived by the same APIs: it must pass its key's
filter and hold exactly the observed maximum of motif copies
(``count_motif``), or none.
"""

from __future__ import annotations

import functools
import itertools
import os
import time
from collections import deque
from collections.abc import Callable
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, fields
from math import comb, factorial
from pathlib import Path

import numpy as np

from . import formulas
from .constructions import build_extremal
from .corpus import read_graph6_stream
from .counting import Biclique, Clique, Motif, count_motif
from .formulas import feasible_t_max
from .graphs import Graph, Graph6Error, are_isomorphic, degree_stats, graph6_mask, pair_index
from .matching import matching_number, nu_star_deficiency, nu_star_fast

THEOREMS = ("1.1", "1.2", "1.4", "1.6", "1.9")
MAX_SCAN_VERTICES = 8  # masks are MASK_DTYPE (C(8, 2) = 28 bits), neighbour rows uint8
MASK_DTYPE = np.uint32
WITNESS_CAP = 16
SPOT_CHECK_STRIDE = 4096
SPOT_CHECK_FLOOR = 256
_CHUNK_BITS = 18
# A scan of fewer chunks than this folds in the calling process, whatever
# the worker count.  On 2 CPUs a cold n = 7 verify (8 native chunks) took
# 47 ms wall and CPU in process, and 49 ms wall and 83 ms CPU in a pool of
# two: about 6 ms of work per chunk, and about 26 ms wall and 36 ms CPU to
# start the pool and its workers.  Two workers break even near
# 2 * 26 / 6 = 9 chunks; n = 8 has 1,024.  16 stream chunks are also what
# the stream's read-ahead holds, so peeking at them costs no memory.
_POOL_MIN_CHUNKS = 16


# ---------------------------------------------------------------------------
# vectorized invariants over edge-mask arrays

# masks per kernel block, whose ~2n + 1 uint8 buffers stay in L2: a stream
# chunk is one block, and count_motif_vector, given a native chunk's up to
# 2^_CHUNK_BITS hits, counts block by block (30-50% faster at 2^19 masks)
_BLOCK = 1 << 16


def _subset_walk(n: int) -> list[tuple[int, int]]:
    """(|S|, max S) for every nonempty S of range(n), in depth-first order.

    Sets are sorted tuples in lexicographic order, so each set comes after
    its prefix S - {max S} with only extensions of that prefix in between:
    the buffer holding N(prefix), at depth |S| - 1, is still intact."""
    subsets = sorted(c for k in range(1, n + 1) for c in itertools.combinations(range(n), k))
    return [(len(s), s[-1]) for s in subsets]


def _neighbour_rows(n: int, masks: np.ndarray) -> np.ndarray:
    """The (n, len(masks)) uint8 neighbour rows of the masks: ``rows[v]``
    holds the neighbour set of vertex v in each mask as a bit set.  Raises
    ValueError if n-vertex rows do not fit a byte."""
    if n > MAX_SCAN_VERTICES:
        raise ValueError(f"scans limited to n <= {MAX_SCAN_VERTICES}")
    rows = np.empty((n, len(masks)), dtype=np.uint8)
    tmp = np.empty(len(masks), dtype=np.uint8)
    wide = np.empty_like(masks)
    for j in range(n):
        # vertex j's edges to i < j are the j bits from pair_index(0, j);
        # bit i of that field is bit j of row i
        np.right_shift(masks, j * (j - 1) // 2, out=wide)
        np.bitwise_and(wide, (1 << j) - 1, out=rows[j], casting="unsafe")
        for i in range(j):
            np.bitwise_and(rows[j], 1 << i, out=tmp)
            np.multiply(tmp, 1 << (j - i), out=tmp)  # NumPy 2.4's uint8 left_shift is ~10x slower
            np.bitwise_or(rows[i], tmp, out=rows[i])
    return rows


def mask_invariants(n: int, masks: np.ndarray) -> dict[str, np.ndarray]:
    """nu2 (doubled nu*), min degree and max degree for every edge mask.

    nu*(G) is half the matching number of the bipartite double cover of G
    (Scheinerman & Ullman, Fractional Graph Theory, ch. 2), so the
    König–Ore defect formula for that cover gives

        2 nu*(G) = min over S of V of (n - |S| + |N(S)|).

    Each mask is unpacked into uint8 neighbour rows, and the subsets S are
    walked depth first so that N(S) = N(S - {v}) | row[v]: one OR, popcount,
    add and minimum per S."""
    rows = _neighbour_rows(n, masks)
    deg = np.bitwise_count(rows)
    nbrs = np.zeros((n + 1, len(masks)), dtype=np.uint8)  # N(S) at depth |S|; N({}) = 0
    t = np.empty(len(masks), dtype=np.uint8)
    nu2 = np.full(len(masks), n, dtype=np.uint8)  # S = {}
    for depth, v in _subset_walk(n):
        np.bitwise_or(nbrs[depth - 1], rows[v], out=nbrs[depth])
        np.bitwise_count(nbrs[depth], out=t)
        np.add(t, n - depth, out=t)
        np.minimum(nu2, t, out=nu2)
    return {"nu2": nu2, "mind": deg.min(axis=0), "maxd": deg.max(axis=0)}


def matching_numbers(n: int, masks: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(nu, missed) for every edge mask, both uint8: the matching number,
    and the bit set of the vertices that some maximum matching misses.

    A perfect-matching DP over the even vertex sets S, on the neighbour
    rows: pm[{}] = 1 and pm[S] = OR over u in S - v adjacent to v of
    pm[S - v - u], v = min S.  A perfect matching on 2k vertices contains
    one on 2k - 2, so nu counts the k >= 1 with pm[S] for some |S| = 2k,
    and missed is the union of V - S over the S with |S| = 2 nu and pm[S],
    k = nu being the last level with some pm[S].  Only sets without vertex
    0 are stored: no S - v - u holds it."""
    rows = _neighbour_rows(n, masks)
    nu = np.zeros(len(masks), dtype=np.uint8)
    missed = np.full(len(masks), (1 << n) - 1, dtype=np.uint8)  # V - {}, at k = 0
    kept = {S: i for i, S in enumerate(S for k in range(0, n, 2)
                                        for S in itertools.combinations(range(1, n), k))}
    pm = np.empty((len(kept) + 1, len(masks)), dtype=np.uint8)  # the last row: sets holding 0
    pm[kept[()]] = 1
    edge = np.empty((n * (n - 1) // 2, len(masks)), dtype=np.uint8)
    for v, u in itertools.combinations(range(n), 2):
        np.right_shift(rows[v], u, out=edge[pair_index(v, u)])
    np.bitwise_and(edge, 1, out=edge)
    found, outside, t = np.empty((3, len(masks)), dtype=np.uint8)
    for k in range(1, n // 2 + 1):
        found.fill(0)
        outside.fill(0)
        for S in itertools.combinations(range(n), 2 * k):
            v, rest = S[0], S[1:]
            dst = pm[kept.get(S, -1)]
            dst.fill(0)
            for j, u in enumerate(rest):
                np.bitwise_and(edge[pair_index(v, u)], pm[kept[rest[:j] + rest[j + 1:]]], out=t)
                np.bitwise_or(dst, t, out=dst)
            np.bitwise_or(found, dst, out=found)
            np.multiply(dst, (1 << n) - 1 - sum(1 << w for w in S), out=t)  # V - S, or 0
            np.bitwise_or(outside, t, out=outside)
        np.add(nu, found, out=nu)
        np.copyto(missed, outside, where=found.view(bool))
    return nu, missed


def _over_subsets(op: np.ufunc, first: int, rows: np.ndarray) -> np.ndarray:
    """table[S] = op over u in S of rows[u], table[{}] = first, for every
    subset S of range(len(rows)), S as a bit set: one op per S, from
    S - {min S}."""
    table = np.empty((1 << len(rows),) + rows.shape[1:], dtype=rows.dtype)
    table[0] = first
    for S in range(1, len(table)):
        low = S & -S
        op(table[S ^ low], rows[low.bit_length() - 1], out=table[S])
    return table


@functools.cache
def _subset_pairs(m: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """For each U of range(m): its subsets S, and 2m - |U| - |S| for each,
    as a column; the 3^m pairs S of U."""
    pairs = []
    for U in range(1 << m):
        subs, S = [], U
        while True:
            subs.append(S)
            if not S:
                break
            S = (S - 1) & U
        bias = [[2 * m - U.bit_count() - S.bit_count()] for S in subs]
        pairs.append((np.array(subs, dtype=np.intp), np.array(bias, dtype=np.uint8)))
    return pairs


def extension_invariants(n: int, hs: range, names) -> dict[str, np.ndarray]:
    """The invariants ``names`` ("nu", or "nu2" with "mind" and "maxd") of
    every graph G = H + v of a native chunk: H one of the masks ``hs`` on
    the m = n - 1 vertices 0 .. m - 1, and v = m joined to each X of them,
    so mask (x << C(m, 2)) | h, in x-major order (see ``_as_masks``).

    Tables are built once per H, over its 2^m subsets, and each graph is
    then read off them with U = V(H) - X:

        2 nu*(G) = min(2 nu*(H) + 2, 2|X| + 2 nu*(H[U]),
                       1 + min over S of U of val(S)),
        val(S)   = m - |S| + |N_H(S)|,  2 nu*(H) = min over all S of val(S);

        nu(G)    = nu(H) + [X meets D(H)],  D(H) = {u : nu(H - u) = nu(H)};

        deg_G(u) = deg_H(u) + [u in X],  deg_G(v) = |X|.

    Proof.  By König–Ore on the double cover (``mask_invariants``),
    2 nu*(G) = min over S of V(G) of n - |S| + |N_G(S)|, and every S gives
    an upper bound.  So do the three terms: 2 nu*(H) + 2, because the edges
    at v carry at most weight 1 of a fractional matching; S' + v with S' of
    U, as N_G(S' + v) = (N_H(S') & U) + X gives the value 2|X| + |U| - |S'|
    + |N_H(S') & U|, whose minimum over S' is 2|X| + 2 nu*(H[U]); and a set
    S of U, where v gains no neighbour, with value 1 + val(S).  Conversely,
    some minimizing S is independent: for a deficiency set T, the isolated
    vertices I of G - T have N(I) in T, so n - |I| + |N(I)| <=
    n - (i(G - T) - |T|) = 2 nu*(G).
    An independent S holding v avoids X, so it is some S' + v of the second
    term; one without v lies in U (the third term) or meets X, and then has
    value val(S) + 2 >= 2 nu*(H) + 2.  For nu, G has at most one matching
    edge at v, so nu(H) <= nu(G) <= nu(H) + 1.  If u in X lies in D(H), a
    maximum matching of H - u and the edge vu give nu(H) + 1.  If nu(G) =
    nu(H) + 1, a maximum matching of G uses some edge vu (otherwise it lies
    in H), and without vu it is a matching of H - u of size nu(H).
    u in D(H) iff some maximum matching misses u, iff u lies outside some S
    with |S| = 2 nu(H) and pm[S].

    The per-H tables are N_H(S) and val(S) (with its minimum over subsets)
    for every S, 2 nu*(H[U]) for every U from the 3^m pairs S of U, and
    min/max over u in X of deg_H(u); nu(H) and D(H) come from one
    ``matching_numbers`` pass at m vertices.  No table holds more than one
    byte per graph of the chunk."""
    m = n - 1
    block = np.arange(hs.start, hs.stop, dtype=MASK_DTYPE)
    xs = np.arange(1 << m, dtype=np.uint8)
    size = np.bitwise_count(xs)[:, None]  # |X|
    inv = {}
    if "nu" in names:
        nu, missed = matching_numbers(m, block)  # missed = D(H)
        inv["nu"] = (nu + (xs[:, None] & missed).astype(bool)).ravel()
    if "nu2" in names:
        rows = _neighbour_rows(m, block)
        deg = np.bitwise_count(rows)
        nbr = _over_subsets(np.bitwise_or, 0, rows)  # N_H(S)
        del rows
        val = np.bitwise_count(nbr)
        val += m - size
        for i in range(m):  # minimum over the subsets of U, one bit at a time
            half = val.reshape(-1, 2, 1 << i, len(block))
            np.minimum(half[:, 1], half[:, 0], out=half[:, 1])
        best = val + np.uint8(1)  # the third term, then the second, by U
        buf = np.empty_like(nbr)
        for U, (subs, bias) in enumerate(_subset_pairs(m)):
            t = buf[:len(subs)]
            np.take(nbr, subs, axis=0, out=t)
            np.bitwise_and(t, np.uint8(U), out=t)
            np.bitwise_count(t, out=t)
            np.add(t, bias, out=t)
            np.minimum(best[U], t.min(axis=0), out=best[U])
        del nbr, buf
        # U = V(H) - X runs backwards as X runs forwards
        inv["nu2"] = np.minimum(best[::-1], val[-1] + np.uint8(2)).ravel()
        del val, best
        # min and max over u in X of deg_H(u), one table at a time, each
        # freed once read; lo + 1 is 255 at X = {}, above any degree
        lo = _over_subsets(np.minimum, 254, deg)
        mind = lo + np.uint8(1)  # u in X
        np.minimum(mind, lo[::-1], out=mind)  # u outside X
        del lo
        np.minimum(mind, size, out=mind)  # v
        hi = _over_subsets(np.maximum, 0, deg)
        maxd = hi + np.uint8(1)
        maxd[0] = 0
        np.maximum(maxd, hi[::-1], out=maxd)
        del hi
        np.maximum(maxd, size, out=maxd)
        inv.update(mind=mind.ravel(), maxd=maxd.ravel())
    return inv


def matching_number_at_least(n: int, masks: np.ndarray, k: int) -> np.ndarray:
    """Does each mask contain k disjoint edges; no scan calls this view,
    but the bench harness traces its name."""
    return matching_numbers(n, masks)[0] >= k


def _reads_rows(motif: Motif | None) -> bool:
    """Does ``count_motif_vector`` count the motif on neighbour rows."""
    return isinstance(motif, Biclique) and motif != Biclique(1, 1)


def count_motif_vector(n: int, masks: np.ndarray, motif: Motif,
                       rows: np.ndarray | None = None) -> np.ndarray:
    """Motif copies in each edge mask, as the smallest unsigned dtype that
    holds the copies in K_n, so no count can overflow.

    Edges are popcounts; K_{r1,r2} sums C(|N(A)|, r2) over r1-sets A (see
    the module docstring), N(A) being the AND of A's neighbour rows, which
    it slices from ``rows``, the masks' ``_neighbour_rows``, when given, and
    unpacks block by block otherwise; larger cliques are counted by
    containment of each copy's edge mask."""
    if motif in (Clique(2), Biclique(1, 1)):
        return np.bitwise_count(masks).astype(np.min_scalar_type(n * (n - 1) // 2), copy=False)
    if isinstance(motif, Clique):
        # the edge masks of the K_ell copies in K_n; a graph holds a copy
        # when its mask contains the copy's
        copies = [sum(1 << pair_index(u, v) for u, v in itertools.combinations(S, 2))
                  for S in itertools.combinations(range(n), motif.ell)]
        counts = np.zeros(masks.shape, dtype=np.min_scalar_type(len(copies)))
        part, hit = np.empty_like(masks), np.empty(masks.shape, dtype=bool)
        for m in copies:
            mm = masks.dtype.type(m)
            np.bitwise_and(masks, mm, out=part)
            np.equal(part, mm, out=hit)
            np.add(counts, hit, out=counts)
        return counts
    r1, r2 = motif.r1, motif.r2
    ordered = comb(n, r1) * comb(n - r1, r2)  # (A, B) pairs in K_n
    # C(c, r2) = c (c - 1) ... (c - r2 + 1) / r2! for c = |N(A)| <= 8 is exact
    # in uint16, as 8! < 2^16; when c < r2 the factor c - c is 0, so factors
    # that wrapped below 0 multiply 0.  Totals stay below 2^16 too.
    total = np.zeros(masks.shape, dtype=np.uint16)
    common = np.empty(min(len(masks), _BLOCK), dtype=np.uint8)
    count, factor, product = (np.empty(common.shape, dtype=np.uint16) for _ in range(3))
    for lo in range(0, len(masks), _BLOCK):  # a native chunk's hits reach 2^_CHUNK_BITS
        block = (_neighbour_rows(n, masks[lo:lo + _BLOCK]) if rows is None
                 else rows[:, lo:lo + _BLOCK])
        acc = total[lo:lo + _BLOCK]
        nbr, c, f, t = (a[:len(acc)] for a in (common, count, factor, product))
        for A in itertools.combinations(range(n), r1):
            first = block[A[0]]
            for a in A[1:]:
                np.bitwise_and(first, block[a], out=nbr)
                first = nbr
            np.bitwise_count(first, out=c)
            term = c
            for i in range(1, r2):
                np.subtract(c, i, out=f)
                np.multiply(term, f, out=t)
                term = t
            if r2 > 1:
                np.floor_divide(t, factorial(r2), out=t)
            np.add(acc, term, out=acc)
    if r1 == r2:
        total >>= 1
        ordered //= 2
    return total.astype(np.min_scalar_type(ordered), copy=False)


# ---------------------------------------------------------------------------
# scan sources: (chunk, start, total) for each chunk of a scan, in scan order

def clear_caches() -> None:
    """Does nothing: no scan keeps state between calls.  Kept for callers
    that reset the verifier before each timed call."""


def _check_source(n: int | None, source: str, corpus: str | Path | None) -> None:
    """Raise ValueError unless (source, corpus) names a scan source, with a
    corpus exactly when the source reads one, and, if n is given, every
    source can scan n-vertex graphs."""
    if source == "graph6-stream":
        if corpus is None:
            raise ValueError("graph6-stream source needs a corpus path")
    elif source != "native":
        raise ValueError(f"unknown source {source!r}")
    elif corpus is not None:
        raise ValueError(f"the native source reads no corpus (got {corpus})")
    if n is not None and n > MAX_SCAN_VERTICES:
        raise ValueError(f"scans limited to n <= {MAX_SCAN_VERTICES}")


def _native_chunks(n: int):
    """The labeled graphs on n vertices as ranges of graphs H on the first
    n - 1 vertices: each H stands for H + v under every neighbourhood of
    v = n - 1 (see ``extension_invariants``).  A chunk holds up to
    2^(_CHUNK_BITS - n + 1) of them, at least one, so 2^_CHUNK_BITS masks
    when there are enough, stays cheap to send to a worker, and starts at
    entry ``lo << (n - 1)`` of the scan."""
    m = n - 1
    edges = m * (m - 1) // 2
    step = 1 << min(edges, max(0, _CHUNK_BITS - m))
    for lo in range(0, 1 << edges, step):
        yield range(lo, min(lo + step, 1 << edges)), lo << m, 1 << (edges + m)


_REVERSED_BYTES = np.array([int(f"{b:08b}"[::-1], 2) for b in range(256)], dtype=np.uint8)


def _decode_block(n: int, lines: list[str]) -> tuple[np.ndarray, np.ndarray]:
    """(masks, ok) for graph6 lines in one numpy pass: ok marks the lines
    of order n in the one-byte header form, of the right length, every byte
    in ? .. ~ and zero padding bits; the other masks are garbage.

    Byte k after the header holds graph6 bits 6k .. 6k + 5, the first one
    most significant, so its sextet, bit-reversed, is mask bits 6k ..
    6k + 5 in ``pair_index`` order, and the bits above C(n, 2) are the
    padding."""
    m = n * (n - 1) // 2
    width = 1 + (m + 5) // 6
    codes = np.array(lines, dtype=f"<U{width}").view(np.uint32).reshape(len(lines), width)
    ok = np.fromiter(map(len, lines), dtype=np.intp, count=len(lines)) == width
    ok &= (codes[:, 0] == 63 + n) & (n >= 1)
    ok &= ((codes >= 63) & (codes <= 126)).all(axis=1)
    sextets = _REVERSED_BYTES[((codes[:, 1:] - 63) & 63).astype(np.uint8)] >> 2
    masks = np.zeros(len(lines), dtype=MASK_DTYPE)
    for k in range(width - 1):
        masks |= sextets[:, k].astype(MASK_DTYPE) << MASK_DTYPE(6 * k)
    ok &= masks >> MASK_DTYPE(m) == 0
    return masks, ok


def _scalar_mask(n: int, lineno: int, line: str) -> int:
    """One line's mask through ``graph6_mask``, with the errors, line
    number included, that a stream of order n raises on that line."""
    try:
        order, mask = graph6_mask(line)
    except Graph6Error as exc:
        raise Graph6Error(f"line {lineno}: {exc}") from None
    if order != n:
        raise ValueError(f"line {lineno}: graph has {order} vertices, expected {n}")
    return mask


def _decoded(n: int, numbered: list[tuple[int, str]], start: int, total: int) -> np.ndarray:
    """The masks of a block of (line number, line) pairs, entries start,
    start + 1, ... of the scan: ``_decode_block``, every line it rejects
    decoded or refused by ``_scalar_mask``, and the lines at the spot-check
    positions of a scan of ``total`` graphs re-decoded by it, which must
    agree."""
    masks, ok = _decode_block(n, [line for _, line in numbered])
    for i in np.flatnonzero(~ok).tolist():
        masks[i] = _scalar_mask(n, *numbered[i])
    for i in range(len(numbered))[_spot_sample(start, total)]:
        scalar = _scalar_mask(n, *numbered[i])
        if scalar != masks[i]:
            raise AssertionError(f"graph6 decode check failed at line {numbered[i][0]}: "
                                 f"block mask {masks[i]}, scalar {scalar}")
    return masks


def load_stream(path: str | Path, n: int):
    """The edge masks of a graph6 corpus in chunks of _BLOCK, one kernel
    block each, in file order: each block of lines is decoded in one numpy
    pass (``_decoded``), checked against ``graph6_mask`` at the spot-check
    positions.  The corpus is read once, so it may be a pipe, and at most
    _BLOCK lines of it are held at once: ``total`` is its length only up to
    SPOT_CHECK_STRIDE * SPOT_CHECK_FLOOR graphs, read ahead as masks, as
    the spot-check stride depends on no more.  A read-ahead block decoded
    before that length is known is checked at the stride of the graphs read
    so far."""
    _check_source(n, "graph6-stream", path)
    lines = read_graph6_stream(path, decode=str)
    limit = SPOT_CHECK_STRIDE * SPOT_CHECK_FLOOR
    ahead, size = [np.empty(0, dtype=MASK_DTYPE)], 0
    while size < limit and (numbered := list(itertools.islice(lines, min(_BLOCK, limit - size)))):
        ahead.append(_decoded(n, numbered, size, size + len(numbered)))
        size += len(numbered)
    ahead = np.concatenate(ahead)
    total = len(ahead)
    for start in range(0, total, _BLOCK):
        yield ahead[start:start + _BLOCK], start, total
    start = total
    while numbered := list(itertools.islice(lines, _BLOCK)):
        yield _decoded(n, numbered, start, total), start, total
        start += len(numbered)


def _as_masks(n: int, chunk: range | np.ndarray, entries=slice(None)) -> np.ndarray:
    """A chunk's masks at ``entries``, a slice or a boolean array over the
    chunk.  A native range of graphs H stands for (x << C(n - 1, 2)) | h
    for every neighbourhood x of vertex n - 1 and every h of the range,
    x-major, and only the masks at ``entries`` are built: a slice's from
    their entry numbers, a boolean array's one x at a time."""
    if not isinstance(chunk, range):
        return chunk[entries]
    m, width = n - 1, len(chunk)
    shift = MASK_DTYPE(m * (m - 1) // 2)
    if isinstance(entries, slice):
        entry = np.arange(*entries.indices(width << m), dtype=MASK_DTYPE)
        return entry // width << shift | entry % width + chunk.start
    picked = entries.reshape(1 << m, width)
    hs = np.arange(chunk.start, chunk.stop, dtype=MASK_DTYPE)
    masks = np.broadcast_to(hs, picked.shape)[picked]
    ends = np.cumsum(np.count_nonzero(picked, axis=1)).tolist()
    for x, lo, hi in zip(range(1 << m), [0] + ends, ends):
        masks[lo:hi] |= MASK_DTYPE(x) << shift
    return masks


def native_invariants(n: int):
    """(masks, invariants) for each chunk of the 2^C(n,2) labeled graphs, in
    scan order, computed here without folds or spot check: a serial view of
    the native source for callers that time the invariants alone."""
    for chunk, _, _ in _native_chunks(n):
        yield _as_masks(n, chunk), extension_invariants(n, chunk, _KEY_INVARIANTS["s2"])


def _spot_sample(start: int, total: int) -> slice:
    """The spot-check entries of a chunk that starts at entry ``start`` of a
    scan of ``total`` graphs: every stride-th entry of the scan, the stride
    at most SPOT_CHECK_STRIDE and small enough to check at least
    min(total, SPOT_CHECK_FLOOR) entries."""
    stride = max(1, min(SPOT_CHECK_STRIDE, total // SPOT_CHECK_FLOOR))
    return slice(-start % stride, None, stride)


def _spot_check(n: int, masks: np.ndarray, inv: dict[str, np.ndarray]) -> None:
    """Re-derive every entry's invariants, and only those, through the
    scalar APIs, nu2 by both scalar routes; raise on mismatch."""
    columns = {name: values.tolist() for name, values in inv.items()}
    for idx, mask in enumerate(masks.tolist()):
        g = Graph.from_edge_mask(n, mask)
        scalar = _graph_invariants(g, inv)
        if "nu2" in inv:
            slow = nu_star_deficiency(g)[0].doubled
            if slow != scalar["nu2"]:
                raise AssertionError(f"nu* spot check failed at mask {mask}: "
                                     f"fast={scalar['nu2']} deficiency={slow}")
        vector = {name: values[idx] for name, values in columns.items()}
        if scalar != vector:
            raise AssertionError(f"spot check failed at mask {mask}: scalar {scalar}, "
                                 f"vector {vector}")


def _in_order(fn: Callable, tasks, jobs: int):
    """fn(task) for each task of an iterable, in task order.  With jobs > 1
    and at least _POOL_MIN_CHUNKS tasks a pool of min(jobs, CPU count,
    tasks) processes runs them, submitted at most 2 * jobs ahead of the
    consumer, so the results held at once stay bounded; fewer tasks run
    here, one after another."""
    jobs = min(jobs, os.cpu_count() or 1)  # more workers than CPUs only add memory
    tasks = iter(tasks)
    first = list(itertools.islice(tasks, max(jobs, _POOL_MIN_CHUNKS))) if jobs > 1 else []
    if len(first) < _POOL_MIN_CHUNKS:
        yield from map(fn, itertools.chain(first, tasks))
        return
    try:
        pool = ProcessPoolExecutor(max_workers=min(jobs, len(first)))
        ahead = deque([pool.submit(fn, first[0])])  # starts the workers
    except OSError:  # process pools unavailable; fall back to serial
        yield from map(fn, itertools.chain(first, tasks))
        return
    with pool:
        for task in itertools.chain(first[1:], tasks):
            if len(ahead) == 2 * jobs:
                yield ahead.popleft().result()
            ahead.append(pool.submit(fn, task))
        while ahead:
            yield ahead.popleft().result()


# ---------------------------------------------------------------------------
# verification specs and reports

# the parameters each theorem reads; every other one must keep its default,
# or hold the value the theorem fixes itself, which the spec then stores
_READS = {
    "1.1": ("k",),
    "1.2": ("s2", "d"),
    "1.4": ("s2",),
    "1.6": ("s2", "delta", "motif", "delta_mode"),
    "1.9": ("s2", "delta", "motif", "delta_mode"),
}
_PARAMS = {key for reads in _READS.values() for key in reads}
_FIXED = {"1.1": {"motif": Clique(2)}, "1.2": {"motif": Clique(2)},
          "1.4": {"motif": Clique(2), "delta": 1}}


@dataclass(frozen=True)
class VerifySpec:
    """One bound-verification task."""

    theorem: str
    n: int
    s2: int | None = None
    delta: int | None = None
    motif: Motif | None = None
    delta_mode: str = "exact"  # "exact" | "at-least"
    source: str = "native"
    corpus: str | None = None
    k: int | None = None  # matching number, theorem 1.1
    d: int | None = None  # maximum degree cap, theorem 1.2

    def __post_init__(self) -> None:
        if self.theorem not in THEOREMS:
            raise ValueError(f"unknown theorem id {self.theorem!r}")
        if self.delta_mode not in ("exact", "at-least"):
            raise ValueError(f"bad delta_mode {self.delta_mode!r}")
        _check_source(None, self.source, self.corpus)  # bounds hold at any n
        reads = _READS[self.theorem]
        fixed = _FIXED.get(self.theorem, {})
        for param in fields(self):
            value = getattr(self, param.name)
            if param.name in _PARAMS and param.name not in reads \
                    and value not in (param.default, fixed.get(param.name)):
                raise ValueError(f"theorem {self.theorem} does not take {param.name} "
                                 f"(got {value})")
        for name, value in fixed.items():
            object.__setattr__(self, name, value)
        missing = [key for key in reads if getattr(self, key) is None]
        if missing:
            raise ValueError(f"theorem {self.theorem} needs {', '.join(missing)}")
        if self.theorem == "1.6" and not isinstance(self.motif, Clique):
            raise ValueError("theorem 1.6 takes a clique motif")
        if self.theorem == "1.9" and not isinstance(self.motif, Biclique):
            raise ValueError("theorem 1.9 takes a biclique motif")
        self.bound()  # raises ValueError outside the theorem's hypotheses

    def bound(self) -> int:
        if self.theorem == "1.1":
            return formulas.bound_edges_matching(self.n, self.k)
        if self.theorem == "1.2":
            return formulas.bound_edges_max_degree(self.n, self.s2, self.d)
        if self.theorem == "1.4":
            val = formulas.bound_edges_min_degree_one(self.n, self.s2)
            reduced = formulas.bound_motif(self.n, self.s2, self.delta, self.motif, "at-least")
            if val != reduced:
                raise AssertionError(
                    f"minimum-degree-one bound {val} disagrees with "
                    f"at-least reduction {reduced} at (n={self.n}, s2={self.s2})"
                )
            return val
        return formulas.bound_motif(self.n, self.s2, self.delta, self.motif, self.delta_mode)

    def filter_key(self) -> tuple:
        """The filter the theorem scans, as ``_select`` reads it: specs of
        one order with equal keys pass the same graphs, so a scan selects
        them once.  Theorems 1.6 and 1.9 filter alike, and 1.4 is at-least
        delta = 1."""
        if self.theorem == "1.1":
            return "k", self.k
        if self.theorem == "1.2":
            return "s2", self.s2, "d", self.d
        if self.theorem == "1.4":
            return "s2", self.s2, "at-least", self.delta
        return "s2", self.s2, self.delta_mode, self.delta

    def to_json_dict(self) -> dict:
        out: dict = {"theorem": self.theorem, "n": self.n}
        out.update((key, getattr(self, key)) for key in _READS[self.theorem])
        if "motif" in out:
            out["motif"] = str(self.motif)
        out["source"] = self.source
        if self.corpus is not None:
            out["corpus"] = str(self.corpus)
        return out


def _json_fields(report, **converted) -> dict:
    """A report's fields in declaration order, tuples as lists, with the
    ``converted`` values in place of the raw ones."""
    out = {}
    for f in fields(report):
        value = getattr(report, f.name)
        out[f.name] = list(value) if isinstance(value, tuple) else value
    return out | converted


@dataclass(frozen=True)
class VerificationReport:
    spec: VerifySpec
    bound: int
    observed_max: int | None
    witnesses: tuple[str, ...]
    scanned: int
    spot_checked: int  # graphs of the scan re-derived through the scalar APIs
    passed: int
    verdict: str  # "exact-match" | "bound-violated" | "no-graphs"
    # a witness is isomorphic to a winning construction; false where none is
    # compared (theorems 1.1 and 1.2, see _winning_constructions)
    witness_matches_construction: bool
    elapsed_ms: int

    def to_json_dict(self) -> dict:
        observed = None if self.observed_max is None else str(self.observed_max)
        return _json_fields(self, spec=self.spec.to_json_dict(), bound=str(self.bound),
                            observed_max=observed)


def _graph6_sort_keys(n: int, masks: np.ndarray) -> np.ndarray:
    """Bit-reversed masks; ascending order equals graph6 string order.

    Reversing each byte by table and then the bytes of each word reverses
    the word; one shift drops the bits above the C(n, 2) edge bits."""
    words = np.ascontiguousarray(masks)
    rev = _REVERSED_BYTES[words.view(np.uint8)].view(words.dtype).byteswap(inplace=True)
    rev >>= words.dtype.type(8 * words.itemsize - n * (n - 1) // 2)
    return rev


def _graph6_line(n: int, sort_key: int) -> str:
    """The graph6 line of the n-vertex graph with this ``_graph6_sort_keys``
    entry: the key is the graph6 bit string, so, padded with zeros to whole
    sextets, it gives the bytes after the header, first sextet first."""
    m = n * (n - 1) // 2
    pad = -m % 6
    bits = sort_key << pad
    return chr(63 + n) + "".join([chr(63 + (bits >> s & 63)) for s in range(m + pad - 6, -1, -6)])


def _winning_constructions(key: tuple, n: int, motif: Motif, bound: int) -> list[Graph]:
    """Extremal constructions of filter ``key`` whose formula value attains
    the bound; the matching and maximum-degree filters have none."""
    if key[0] == "k" or key[2] == "d":
        return []
    _, s2, mode, delta = key
    return [build_extremal(p) for p in formulas.extremal_candidates(n, s2, delta, mode)
            if formulas.g_motif(p, motif) == bound]


# the invariants each kind of filter key reads (see VerifySpec.filter_key)
_KEY_INVARIANTS = {"k": ("nu",), "s2": ("nu2", "mind", "maxd")}


def _graph_invariants(g: Graph, names) -> dict[str, int]:
    """The invariants ``names`` of one graph through the per-graph APIs: the
    scalar mirror of those ``_fold_chunk`` computes for a chunk."""
    inv = {}
    if "nu2" in names:
        lo, hi, _ = degree_stats(g)
        inv.update(nu2=nu_star_fast(g).doubled, mind=lo, maxd=hi)
    if "nu" in names:
        inv["nu"] = matching_number(g)
    return inv


def _select(key: tuple, inv: dict) -> np.ndarray | bool:
    """Which graphs pass filter ``key`` (see ``VerifySpec.filter_key``): a
    boolean array for a chunk's invariant arrays, or a bool for one graph's
    scalar invariants."""
    if key[0] == "k":
        return inv["nu"] == key[1]
    _, s2, mode, bound = key
    sel = inv["nu2"] == s2
    if mode == "d":
        sel &= inv["maxd"] <= bound
    elif mode == "exact":
        sel &= inv["mind"] == bound
    else:
        sel &= inv["mind"] >= bound
    return sel


@dataclass
class _Fold:
    """One question's result over a scan, merged chunk by chunk: the number
    of graphs passing its filter, the maximum motif count, and the
    WITNESS_CAP smallest graphs (graph6 order) attaining it.

    A question is a filter key and a motif; with motif None every passing
    graph counts 0, so the witnesses are the smallest passing graphs.  No
    step depends on how the scan is cut into chunks."""

    passed: int = 0
    best: int | None = None
    smallest: list[tuple[int, int]] = field(default_factory=list)  # (sort key, mask)
    seconds: float = 0.0

    @classmethod
    def of(cls, n: int, hit: np.ndarray, motif: Motif | None,
           rows: np.ndarray | None) -> _Fold:
        """The fold of one chunk's masks passing the question's filter,
        ``rows`` their neighbour rows if already unpacked."""
        t0 = time.perf_counter()
        fold = cls(passed=hit.size)
        if hit.size:
            fold.best = 0
            if motif is not None:
                counts = count_motif_vector(n, hit, motif, rows)
                fold.best = int(counts.max())
                hit = hit[counts == fold.best]
            keys = _graph6_sort_keys(n, hit)
            first = np.argsort(keys, kind="stable")[:WITNESS_CAP]
            fold.smallest = [(int(keys[i]), int(hit[i])) for i in first]
        fold.seconds = time.perf_counter() - t0
        return fold

    def merge(self, later: _Fold) -> None:
        """Fold in the result of a later part of the same scan."""
        self.passed += later.passed
        self.seconds += later.seconds
        if later.best is None or (self.best is not None and later.best < self.best):
            return
        if self.best is None or later.best > self.best:
            self.best, self.smallest = later.best, []
        self.smallest = sorted(self.smallest + later.smallest)[:WITNESS_CAP]

    def witnesses(self, n: int, key: tuple, motif: Motif | None) -> tuple[str, ...]:
        """The witnesses' graph6 lines, each written from its sort key
        (``_graph6_line``).  The first witness alone becomes a Graph, to be
        re-derived through the scalar per-graph APIs: it must pass filter
        ``key`` and hold exactly ``best`` copies of ``motif``, or of none with
        ``motif`` None, as a nonexistence scan's counterexample does."""
        lines = tuple(_graph6_line(n, sort_key) for sort_key, _ in self.smallest)
        if lines:
            g = Graph.from_edge_mask(n, self.smallest[0][1])
            passes = bool(_select(key, _graph_invariants(g, _KEY_INVARIANTS[key[0]])))
            count = 0 if motif is None else count_motif(g, motif)
            if not passes or count != self.best:
                raise AssertionError(f"witness or counterexample {lines[0]} re-derived: "
                                     f"passes filter {passes}, {count} copies, "
                                     f"scan said {self.best}")
        return lines


def _fold_chunk(task: tuple) -> tuple[int, dict[tuple, _Fold], int]:
    """One chunk, entries start, start + 1, ... of a scan of ``total``
    graphs, folded and spot-checked: the chunk's size, the fold of each
    question (key, motif) and the number of graphs spot-checked, all that
    a worker sends back.  The chunk computes the invariants its filter keys
    read (checking 2 nu <= nu2 <= 3 nu on every graph when it computes
    both), copies ``_spot_sample``'s entries with their invariants, and has
    every key select its hits, the only masks of a native chunk it builds;
    the invariants are then freed, the sample re-derived (``_spot_check``),
    and each key's motifs counted in its hits, whose neighbour rows, when
    more than one motif reads them, it unpacks once."""
    n, chunk, start, total, questions = task
    names = {name for key in questions for name in _KEY_INVARIANTS[key[0]]}
    if isinstance(chunk, range):
        size = len(chunk) << (n - 1)
        inv = extension_invariants(n, chunk, names)
    else:
        size = len(chunk)
        inv = mask_invariants(n, chunk) if "nu2" in names else {}
        if "nu" in names:  # as in extension_invariants, H on the first n - 1 vertices
            low = (n - 1) * (n - 2) // 2
            nu, missed = matching_numbers(n - 1, chunk & MASK_DTYPE((1 << low) - 1))
            inv["nu"] = nu + (missed & (chunk >> low).astype(np.uint8)).astype(bool)
    if "nu" in names and "nu2" in names:  # nu <= nu* <= 3 nu / 2 on every graph
        nu, nu2 = inv["nu"], inv["nu2"]
        bad = np.flatnonzero((nu2 < 2 * nu) | (nu2 > 3 * nu))
        if bad.size:
            i = bad[0]
            raise AssertionError(f"2 nu <= nu2 <= 3 nu fails at mask {_as_masks(n, chunk)[i]}: "
                                 f"nu = {nu[i]}, nu2 = {nu2[i]}")
    pick = _spot_sample(start, total)
    sample = (_as_masks(n, chunk, pick).copy(),
              {name: values[pick].copy() for name, values in inv.items()})
    hits = {key: _as_masks(n, chunk, _select(key, inv)) for key in questions}
    del inv
    _spot_check(n, *sample)
    folds = {}
    for key, motifs in questions.items():
        hit = hits.pop(key)
        rows = _neighbour_rows(n, hit) if sum(map(_reads_rows, motifs)) > 1 else None
        folds.update(((key, motif), _Fold.of(n, hit, motif, rows)) for motif in motifs)
        del hit, rows
    return size, folds, len(sample[0])


def _fold_scan(n: int, source: str, corpus: str | Path | None, jobs: int | None,
               questions: dict[tuple, set]) -> tuple[int, int, dict[tuple, _Fold]]:
    """Fold every chunk of one scan into one fold per question, (key, motif)
    for each filter key and each of its motifs, in scan order, each chunk
    spot-checked where it is folded; returns the number of graphs scanned,
    the number spot-checked and the folds."""
    chunks = _native_chunks(n) if source == "native" else load_stream(corpus, n)
    tasks = ((n, chunk, start, total, questions) for chunk, start, total in chunks)
    folds = {(key, motif): _Fold() for key, motifs in questions.items() for motif in motifs}
    scanned = checked = 0
    for size, parts, sampled in _in_order(_fold_chunk, tasks, jobs or os.cpu_count() or 1):
        checked += sampled
        for question, part in parts.items():
            folds[question].merge(part)
        scanned += size
    return scanned, checked, folds


def _report(spec: VerifySpec, folds: dict[tuple, _Fold], scan: list[int],
            seconds: float) -> VerificationReport:
    t0 = time.perf_counter()
    key, bound = spec.filter_key(), spec.bound()
    fold = folds[key, spec.motif]
    witnesses = fold.witnesses(spec.n, key, spec.motif)
    if fold.best is None:
        verdict = "no-graphs"
    else:
        verdict = "exact-match" if fold.best == bound else "bound-violated"
    targets = _winning_constructions(key, spec.n, spec.motif, bound) if fold.best == bound else []
    # a witness becomes a Graph only when there is a construction to compare
    graphs = (Graph.from_edge_mask(spec.n, mask) for _, mask in fold.smallest)
    matches = bool(targets) and any(are_isomorphic(w, target)
                                    for w in graphs for target in targets)
    elapsed = int((seconds + fold.seconds + time.perf_counter() - t0) * 1000)
    return VerificationReport(spec, bound, fold.best, witnesses, *scan, fold.passed, verdict,
                              matches, elapsed)


def verify_specs(specs: list[VerifySpec], jobs: int | None = None) -> list[VerificationReport]:
    """Verify every spec: scan all graphs passing its filter and compare the
    maximum motif count against the theorem bound.  Reports come in input
    order, and do not depend on ``jobs``, the scan's worker count.

    Specs sharing (n, source, corpus) are served by one scan, which selects
    each chunk's passing graphs once per filter (``VerifySpec.filter_key``)
    and folds each question, a filter and a motif, once however many specs
    ask it; every spec's scan is checked before the first one starts.  A
    report's elapsed_ms is its question's count and witness time; the first
    report of a group also carries the shared scan time, invariants and
    filters included."""
    groups: dict[tuple, list[int]] = {}
    for i, spec in enumerate(specs):
        _check_source(spec.n, spec.source, spec.corpus)
        groups.setdefault((spec.n, spec.source, spec.corpus), []).append(i)
    reports: list = [None] * len(specs)
    for (n, source, corpus), members in groups.items():
        t0 = time.perf_counter()
        questions: dict[tuple, set] = {}
        for i in members:
            questions.setdefault(specs[i].filter_key(), set()).add(specs[i].motif)
        *scan, folds = _fold_scan(n, source, corpus, jobs, questions)
        # fold times add up across workers, so they may exceed the wall time
        shared = max(0.0, time.perf_counter() - t0 - sum(f.seconds for f in folds.values()))
        for i in members:
            reports[i] = _report(specs[i], folds, scan, shared)
            shared = 0.0
    return reports


def verify_bound(spec: VerifySpec, jobs: int | None = None) -> VerificationReport:
    """Scan all graphs passing the spec's filter and compare the maximum
    motif count against the theorem bound."""
    return verify_specs([spec], jobs)[0]


# ---------------------------------------------------------------------------
# nonexistence scans

@dataclass(frozen=True)
class NonexistenceReport:
    n: int
    s2: int
    delta: int
    scanned: int
    spot_checked: int  # graphs of the scan re-derived through the scalar APIs
    qualifying: int
    counterexamples: tuple[str, ...]
    verdict: str  # "no-graphs" | "counterexample-found"
    elapsed_ms: int

    def to_json_dict(self) -> dict:
        out = _json_fields(self)
        return {"spec": {key: out.pop(key) for key in ("n", "s2", "delta")}, **out}


def verify_nonexistence(n: int, s2: int, delta: int, source: str = "native",
                        corpus: str | Path | None = None,
                        jobs: int | None = None) -> NonexistenceReport:
    """Certify that no n-vertex graph has nu* = s2/2 and minimum degree
    >= delta, for delta beyond the feasible cap of the parity of s2: a scan
    of the at-least filter with no motif, whose witnesses are the smallest
    counterexamples."""
    formulas.check_order(n, s2)
    cap = feasible_t_max(s2)
    if delta <= cap:
        raise ValueError(f"delta = {delta} is feasible (cap {cap}); nothing to refute")
    _check_source(n, source, corpus)
    t0 = time.perf_counter()
    key = ("s2", s2, "at-least", delta)
    *scan, folds = _fold_scan(n, source, corpus, jobs, {key: {None}})
    fold = folds[key, None]
    examples = fold.witnesses(n, key, None)
    verdict = "no-graphs" if fold.passed == 0 else "counterexample-found"
    elapsed = int((time.perf_counter() - t0) * 1000)
    return NonexistenceReport(n, s2, delta, *scan, fold.passed, examples, verdict, elapsed)
