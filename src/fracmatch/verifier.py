"""Exhaustive small-graph verification of the extremal bounds.

A scan reads one of two sources as chunks of edge bitmasks: the native
source covers every labeled graph on n vertices in fixed mask ranges, and
the graph6 stream source decodes a non-isomorphic corpus, one graph per
line, straight to masks (all filter quantities are preserved by
isomorphism, so class representatives are enough).  Every scan stops at
MAX_SCAN_VERTICES; a VerifySpec is the question alone, valid at any n, and
the worker count is an argument of the scan, not of the spec.

Every chunk of either source takes one path.  A filter is a key,
``VerifySpec.filter_key``: ("k", k), ("s2", s2, "d", d) or ("s2", s2,
mode, delta), and a chunk gets the invariants its keys read from
vectorized numpy passes: the matching number nu for "k", the doubled
fractional matching number nu2 and minimum/maximum degree for "s2".
``_select`` applies a key to a chunk's arrays or to one graph's scalars.
Each distinct key of a group selects a chunk's passing masks once, and
each spec of that key counts motif copies in them into a fold that keeps
the maximum count, the number of passing graphs and the WITNESS_CAP
smallest witnesses in graph6 order; a nonexistence scan is the at-least
key with no motif, so its witnesses are counterexamples.
With ``jobs > 1`` and more than one chunk, up to ``jobs`` workers (never
more than the CPU count) fold chunks and send back only the folds and a
spot-check sample.  No fold depends on the chunking, so a report is
byte-identical for any worker count, and ``verify_specs`` serves every spec
sharing (n, source, corpus) from one pass.

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
``matching_numbers``).  Every scan cross-validates them in the calling
process: one mask in 4096, and at least 256 per scan (all of them in
smaller scans), has the invariants its chunk computed re-derived through
the scalar per-graph APIs (deficiency scan and double cover matching for
nu*, degree stats, ``matching_number``), so a vectorization bug cannot
slip through silently; a report's ``spot_checked`` says how many graphs
its scan re-checked.  A chunk that computes both nu and nu2 also checks
2 nu <= nu2 <= 3 nu (nu <= nu* <= 3 nu / 2) on every graph.  Likewise
each report's first witness, and a nonexistence scan's first
counterexample, is re-derived by the same APIs: it must pass its key's
filter and hold exactly the observed maximum of motif copies
(``count_motif``), or none.
"""

from __future__ import annotations

import itertools
import os
import time
from collections import deque
from collections.abc import Callable
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, fields
from math import comb
from pathlib import Path

import numpy as np

from . import formulas
from .constructions import build_extremal
from .corpus import read_graph6_stream
from .counting import Biclique, Clique, Motif, count_motif
from .formulas import feasible_t_max
from .graphs import Graph, are_isomorphic, degree_stats, graph6_mask, pair_index, to_graph6
from .matching import matching_number, nu_star_deficiency, nu_star_fast

THEOREMS = ("1.1", "1.2", "1.4", "1.6", "1.9")
MAX_SCAN_VERTICES = 8  # masks are MASK_DTYPE (C(8, 2) = 28 bits), neighbour rows uint8
MASK_DTYPE = np.uint32
WITNESS_CAP = 16
SPOT_CHECK_STRIDE = 4096
SPOT_CHECK_FLOOR = 256
_CHUNK_BITS = 19


# ---------------------------------------------------------------------------
# vectorized invariants over edge-mask arrays

_BLOCK = 1 << 16  # masks per block: the ~2n + 1 uint8 buffers of a block stay in L2


def _subset_walk(n: int) -> list[tuple[int, int]]:
    """(|S|, max S) for every nonempty S of range(n), in depth-first order.

    Sets are sorted tuples in lexicographic order, so each set comes after
    its prefix S - {max S} with only extensions of that prefix in between:
    the buffer holding N(prefix), at depth |S| - 1, is still intact."""
    subsets = sorted(c for k in range(1, n + 1) for c in itertools.combinations(range(n), k))
    return [(len(s), s[-1]) for s in subsets]


def _neighbour_rows(n: int, masks: np.ndarray):
    """An iterator of (lo, hi, rows), one per block of _BLOCK masks:
    ``rows[v]`` holds the neighbour set of vertex v in each of masks[lo:hi]
    as a uint8 bit set.  One (n, _BLOCK) buffer is reused block after
    block.  Raises ValueError at once if n-vertex rows do not fit a byte."""
    _check_source(n, "native", None)
    total = len(masks)
    size = min(total, _BLOCK)
    rows = np.empty((n, size), dtype=np.uint8)
    tmp = np.empty(size, dtype=np.uint8)
    wide = np.empty(size, dtype=masks.dtype)

    def blocks():
        for lo in range(0, total, _BLOCK):
            hi = min(lo + _BLOCK, total)
            row, t, w = rows[:, :hi - lo], tmp[:hi - lo], wide[:hi - lo]
            for j in range(n):
                # vertex j's edges to i < j are the j bits from pair_index(0, j);
                # bit i of that field is bit j of row i
                np.right_shift(masks[lo:hi], j * (j - 1) // 2, out=w)
                np.bitwise_and(w, (1 << j) - 1, out=row[j], casting="unsafe")
                for i in range(j):
                    np.bitwise_and(row[j], 1 << i, out=t)
                    np.left_shift(t, j - i, out=t)
                    np.bitwise_or(row[i], t, out=row[i])
            yield lo, hi, row

    return blocks()


def mask_invariants(n: int, masks: np.ndarray) -> dict[str, np.ndarray]:
    """nu2 (doubled nu*), min degree and max degree for every edge mask.

    nu*(G) is half the matching number of the bipartite double cover of G
    (Scheinerman & Ullman, Fractional Graph Theory, ch. 2), so the
    König–Ore defect formula for that cover gives

        2 nu*(G) = min over S of V of (n - |S| + |N(S)|).

    Each mask is unpacked into uint8 neighbour rows, and the subsets S are
    walked depth first so that N(S) = N(S - {v}) | row[v]: one OR, popcount,
    add and minimum per S, in blocks of _BLOCK masks."""
    blocks = _neighbour_rows(n, masks)
    total = len(masks)
    nu2 = np.empty(total, dtype=np.uint8)
    mind = np.empty(total, dtype=np.uint8)
    maxd = np.empty(total, dtype=np.uint8)
    size = min(total, _BLOCK)
    walk = _subset_walk(n)
    nbrs = np.zeros((n + 1, size), dtype=np.uint8)  # N(S) at depth |S|; N({}) = 0
    tmp = np.empty(size, dtype=np.uint8)
    for lo, hi, row in blocks:
        nbr, t = nbrs[:, :hi - lo], tmp[:hi - lo]
        dmin, dmax, nu = mind[lo:hi], maxd[lo:hi], nu2[lo:hi]
        dmin.fill(255)
        dmax.fill(0)
        for v in range(n):
            np.bitwise_count(row[v], out=t)
            np.minimum(dmin, t, out=dmin)
            np.maximum(dmax, t, out=dmax)
        nu.fill(n)  # S = {}
        for depth, v in walk:
            np.bitwise_or(nbr[depth - 1], row[v], out=nbr[depth])
            np.bitwise_count(nbr[depth], out=t)
            np.add(t, n - depth, out=t)
            np.minimum(nu, t, out=nu)
    return {"nu2": nu2, "mind": mind, "maxd": maxd}


def matching_numbers(n: int, masks: np.ndarray) -> np.ndarray:
    """The matching number nu of every edge mask, as uint8.

    A perfect-matching DP over the even vertex sets S, on the neighbour
    rows: pm[{}] = 1 and pm[S] = OR over u in S - v adjacent to v of
    pm[S - v - u], v = min S.  A perfect matching on 2k vertices contains
    one on 2k - 2, so nu counts the k >= 1 with pm[S] for some |S| = 2k.
    Only sets without vertex 0 are stored: no S - v - u holds it."""
    blocks = _neighbour_rows(n, masks)
    size = min(len(masks), _BLOCK)
    nu = np.zeros(len(masks), dtype=np.uint8)
    kept = {S: i for i, S in enumerate(S for k in range(0, n, 2)
                                        for S in itertools.combinations(range(1, n), k))}
    pm = np.empty((len(kept) + 1, size), dtype=np.uint8)  # the last row: sets holding 0
    pm[kept[()]] = 1
    edge = np.empty((n * (n - 1) // 2, size), dtype=np.uint8)
    found, tmp = np.empty((2, size), dtype=np.uint8)
    for lo, hi, row in blocks:
        e, p, f, t = edge[:, :hi - lo], pm[:, :hi - lo], found[:hi - lo], tmp[:hi - lo]
        for v, u in itertools.combinations(range(n), 2):
            np.right_shift(row[v], u, out=e[pair_index(v, u)])
        np.bitwise_and(e, 1, out=e)
        for k in range(1, n // 2 + 1):
            f.fill(0)
            for S in itertools.combinations(range(n), 2 * k):
                v, rest = S[0], S[1:]
                dst = p[kept.get(S, -1)]
                dst.fill(0)
                for j, u in enumerate(rest):
                    np.bitwise_and(e[pair_index(v, u)], p[kept[rest[:j] + rest[j + 1:]]], out=t)
                    np.bitwise_or(dst, t, out=dst)
                np.bitwise_or(f, dst, out=f)
            np.add(nu[lo:hi], f, out=nu[lo:hi])
    return nu


def matching_number_at_least(n: int, masks: np.ndarray, k: int) -> np.ndarray:
    """Does each mask contain k disjoint edges; no scan calls this view,
    but the bench harness traces its name."""
    return matching_numbers(n, masks) >= k


def count_motif_vector(n: int, masks: np.ndarray, motif: Motif) -> np.ndarray:
    """Motif copies in each edge mask, as the smallest unsigned dtype that
    holds the copies in K_n, so no count can overflow.

    Edges are popcounts; K_{r1,r2} sums C(|N(A)|, r2) over r1-sets A (see
    the module docstring), N(A) being the AND of A's neighbour rows; larger
    cliques are counted by containment of each copy's edge mask."""
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
    total = np.zeros(masks.shape, dtype=np.min_scalar_type(ordered))
    table = np.array([comb(c, r2) for c in range(n + 1)], dtype=total.dtype)
    common = np.empty(min(len(masks), _BLOCK), dtype=np.uint8)
    term = np.empty(common.shape, dtype=total.dtype)
    for lo, hi, row in _neighbour_rows(n, masks):
        nbr, t, acc = common[:hi - lo], term[:hi - lo], total[lo:hi]
        for A in itertools.combinations(range(n), r1):
            first = row[A[0]]
            for a in A[1:]:
                np.bitwise_and(first, row[a], out=nbr)
                first = nbr
            np.bitwise_count(first, out=nbr)
            np.take(table, nbr, out=t, mode="clip")  # |N(A)| <= n - r1: no clipping
            np.add(acc, t, out=acc)
    if r1 == r2:
        total >>= 1
        return total.astype(np.min_scalar_type(ordered // 2), copy=False)
    return total


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
    """The labeled masks 0 .. 2^C(n,2) - 1 as ranges of 2^_CHUNK_BITS, which
    stay cheap to send to a worker."""
    total, step = 1 << (n * (n - 1) // 2), 1 << _CHUNK_BITS
    for lo in range(0, total, step):
        yield range(lo, min(lo + step, total)), lo, total


def load_stream(path: str | Path, n: int):
    """The edge masks of a graph6 corpus in chunks of 2^_CHUNK_BITS, in file
    order, decoded without Graph objects.  The corpus is read once, so it
    may be a pipe: ``total`` is its length only up to SPOT_CHECK_STRIDE *
    SPOT_CHECK_FLOOR graphs, read ahead, as the spot-check stride depends
    on no more."""
    _check_source(n, "graph6-stream", path)

    def decoded():
        for lineno, (order, mask) in read_graph6_stream(path, decode=graph6_mask):
            if order != n:
                raise ValueError(f"line {lineno}: graph has {order} vertices, expected {n}")
            yield mask

    masks, step = decoded(), 1 << _CHUNK_BITS
    ahead = np.fromiter(itertools.islice(masks, SPOT_CHECK_STRIDE * SPOT_CHECK_FLOOR),
                        dtype=MASK_DTYPE)
    total = len(ahead)
    for start in range(0, total, step):
        yield ahead[start:start + step], start, total
    start = total
    while (chunk := np.fromiter(itertools.islice(masks, step), dtype=MASK_DTYPE)).size:
        yield chunk, start, total
        start += chunk.size


def _as_masks(chunk: range | np.ndarray) -> np.ndarray:
    """A chunk's masks; a native range becomes an array where it is folded."""
    return np.arange(chunk.start, chunk.stop, dtype=MASK_DTYPE) \
        if isinstance(chunk, range) else chunk


def native_invariants(n: int):
    """(masks, invariants) for each chunk of the 2^C(n,2) labeled graphs, in
    mask order, computed here without folds or spot check: a serial view of
    the native source for callers that time the invariants alone."""
    for chunk, _, _ in _native_chunks(n):
        masks = _as_masks(chunk)
        yield masks, mask_invariants(n, masks)


def _spot_check(n: int, masks: np.ndarray, inv: dict[str, np.ndarray]) -> None:
    """Re-derive every entry's invariants, and only those, through the
    scalar APIs, nu2 by both scalar routes; raise on mismatch."""
    for idx, mask in enumerate(masks.tolist()):
        g = Graph.from_edge_mask(n, mask)
        scalar = _graph_invariants(g, inv)
        if "nu2" in inv:
            slow = nu_star_deficiency(g)[0].doubled
            if slow != scalar["nu2"]:
                raise AssertionError(f"nu* spot check failed at mask {mask}: "
                                     f"fast={scalar['nu2']} deficiency={slow}")
        vector = {name: int(values[idx]) for name, values in inv.items()}
        if scalar != vector:
            raise AssertionError(f"spot check failed at mask {mask}: scalar {scalar}, "
                                 f"vector {vector}")


def _in_order(fn: Callable, tasks, jobs: int):
    """fn(task) for each task of an iterable, in task order.  With jobs > 1
    and more than one task a pool of min(jobs, CPU count, tasks) processes
    runs them, submitted at most 2 * jobs ahead of the consumer, so the
    results held at once stay bounded."""
    jobs = min(jobs, os.cpu_count() or 1)  # more workers than CPUs only add memory
    tasks = iter(tasks)
    first = list(itertools.islice(tasks, jobs))  # the pool starts all its workers at once
    if len(first) < 2:
        yield from map(fn, itertools.chain(first, tasks))
        return
    try:
        pool = ProcessPoolExecutor(max_workers=len(first))
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
        return {
            "spec": self.spec.to_json_dict(),
            "bound": str(self.bound),
            "observed_max": None if self.observed_max is None else str(self.observed_max),
            "witnesses": list(self.witnesses),
            "scanned": self.scanned,
            "spot_checked": self.spot_checked,
            "passed": self.passed,
            "verdict": self.verdict,
            "witness_matches_construction": self.witness_matches_construction,
            "elapsed_ms": self.elapsed_ms,
        }


_REVERSED_BYTES = np.array([int(f"{b:08b}"[::-1], 2) for b in range(256)], dtype=np.uint8)


def _graph6_sort_keys(n: int, masks: np.ndarray) -> np.ndarray:
    """Bit-reversed masks; ascending order equals graph6 string order.

    Reversing each byte by table and then the bytes of each word reverses
    the word; one shift drops the bits above the C(n, 2) edge bits."""
    words = np.ascontiguousarray(masks)
    rev = _REVERSED_BYTES[words.view(np.uint8)].view(words.dtype).byteswap(inplace=True)
    rev >>= words.dtype.type(8 * words.itemsize - n * (n - 1) // 2)
    return rev


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
    """One spec's result over a scan, merged chunk by chunk: the number of
    graphs passing its filter, the maximum motif count, and the WITNESS_CAP
    smallest graphs (graph6 order) attaining it.

    A fold sees only the graphs that passed its filter, selected once for
    every fold of that filter.  With ``motif`` None every passing graph
    counts 0, so the witnesses are the smallest passing graphs.  No step
    depends on how the scan is cut into chunks."""

    motif: Motif | None
    passed: int = 0
    best: int | None = None
    smallest: list[tuple[int, int]] = field(default_factory=list)  # (sort key, mask)
    seconds: float = 0.0

    def add(self, n: int, hit: np.ndarray) -> None:
        """Fold in the next passing masks of the scan."""
        t0 = time.perf_counter()
        part = _Fold(self.motif, passed=hit.size)
        if hit.size:
            part.best = 0
            if self.motif is not None:
                counts = count_motif_vector(n, hit, self.motif)
                part.best = int(counts.max())
                hit = hit[counts == part.best]
            if self.best is None or part.best >= self.best:
                keys = _graph6_sort_keys(n, hit)
                first = np.argsort(keys, kind="stable")[:WITNESS_CAP]
                part.smallest = [(int(keys[i]), int(hit[i])) for i in first]
        part.seconds = time.perf_counter() - t0
        self.merge(part)

    def merge(self, later: _Fold) -> None:
        """Fold in the result of a later part of the same scan."""
        self.passed += later.passed
        self.seconds += later.seconds
        if later.best is None or (self.best is not None and later.best < self.best):
            return
        if self.best is None or later.best > self.best:
            self.best, self.smallest = later.best, []
        self.smallest = sorted(self.smallest + later.smallest)[:WITNESS_CAP]

    def witnesses(self, n: int) -> list[Graph]:
        return [Graph.from_edge_mask(n, mask) for _, mask in self.smallest]


def _fold_chunk(task: tuple) -> tuple[int, list[list[_Fold]], tuple]:
    """One chunk, entries start, start + 1, ... of a scan of ``total``
    graphs, folded into empty folds: the chunk's size, each filter's folds
    and a spot-check sample, all that a worker sends back.  The chunk
    computes the invariants its filters read (checking 2 nu <= nu2 <= 3 nu
    on every graph when it computes both), and each filter selects once.
    The sample is every stride-th entry of the scan with its invariants, the
    stride at most SPOT_CHECK_STRIDE and small enough to check at least
    min(total, SPOT_CHECK_FLOOR) entries."""
    n, chunk, start, total, filters = task
    masks = _as_masks(chunk)
    names = {name for key in filters for name in _KEY_INVARIANTS[key[0]]}
    inv = mask_invariants(n, masks) if "nu2" in names else {}
    if "nu" in names:
        inv["nu"] = matching_numbers(n, masks)
        if "nu2" in names:  # nu <= nu* <= 3 nu / 2 on every graph
            nu, nu2 = inv["nu"], inv["nu2"]
            bad = np.flatnonzero((nu2 < 2 * nu) | (nu2 > 3 * nu))
            if bad.size:
                i = bad[0]
                raise AssertionError(f"2 nu <= nu2 <= 3 nu fails at mask {masks[i]}: "
                                     f"nu = {nu[i]}, nu2 = {nu2[i]}")
    for key, folds in filters.items():
        hit = masks[_select(key, inv)]
        for fold in folds:
            fold.add(n, hit)
        del hit
    stride = max(1, min(SPOT_CHECK_STRIDE, total // SPOT_CHECK_FLOOR))
    pick = slice(-start % stride, None, stride)
    sample = masks[pick], {name: values[pick] for name, values in inv.items()}
    return len(masks), list(filters.values()), sample


def _fold_scan(n: int, source: str, corpus: str | Path | None, jobs: int | None,
               filters: dict[tuple, list[_Fold]]) -> tuple[int, int]:
    """Fold every chunk of one scan into the folds of every filter key, in
    scan order, and spot-check every chunk's sample here; returns the number
    of graphs scanned and the number spot-checked."""
    chunks = _native_chunks(n) if source == "native" else load_stream(corpus, n)
    tasks = ((n, chunk, start, total,
              {key: [_Fold(f.motif) for f in folds] for key, folds in filters.items()})
             for chunk, start, total in chunks)
    scanned = checked = 0
    for size, parts, sample in _in_order(_fold_chunk, tasks, jobs or os.cpu_count() or 1):
        _spot_check(n, *sample)
        checked += len(sample[0])
        for folds, part in zip(filters.values(), parts):
            for fold, later in zip(folds, part):
                fold.merge(later)
        scanned += size
    return scanned, checked


def _check_witness(key: tuple, motif: Motif | None, g: Graph, best: int) -> None:
    """Re-derive one witness through the scalar per-graph APIs: it must pass
    filter ``key`` and hold exactly ``best`` copies of ``motif``, or of none
    with ``motif`` None, as a nonexistence scan's counterexample does."""
    passes = bool(_select(key, _graph_invariants(g, _KEY_INVARIANTS[key[0]])))
    count = 0 if motif is None else count_motif(g, motif)
    if not passes or count != best:
        raise AssertionError(f"witness or counterexample {to_graph6(g)} re-derived: passes "
                             f"filter {passes}, {count} copies, scan said {best}")


def _report(spec: VerifySpec, bound: int, fold: _Fold, scan: tuple[int, int],
            seconds: float) -> VerificationReport:
    t0 = time.perf_counter()
    key, graphs = spec.filter_key(), fold.witnesses(spec.n)
    witnesses = tuple(to_graph6(g) for g in graphs)
    if fold.best is None:
        verdict = "no-graphs"
    else:
        _check_witness(key, spec.motif, graphs[0], fold.best)
        verdict = "exact-match" if fold.best == bound else "bound-violated"
    matches = False
    if verdict == "exact-match":
        targets = _winning_constructions(key, spec.n, spec.motif, bound)
        matches = any(are_isomorphic(w, target) for w in graphs for target in targets)
    elapsed = int((seconds + fold.seconds + time.perf_counter() - t0) * 1000)
    scanned, checked = scan
    return VerificationReport(spec, bound, fold.best, witnesses, scanned, checked, fold.passed,
                              verdict, matches, elapsed)


def verify_specs(specs: list[VerifySpec], jobs: int | None = None) -> list[VerificationReport]:
    """Verify every spec: scan all graphs passing its filter and compare the
    maximum motif count against the theorem bound.  Reports come in input
    order, and do not depend on ``jobs``, the scan's worker count.

    Specs sharing (n, source, corpus) are served by one scan, which selects
    each chunk's passing graphs once for all specs of one filter
    (``VerifySpec.filter_key``); every spec's scan is checked before the
    first one starts.  A report's elapsed_ms is its own count
    and witness time; the first report of a group also carries the shared
    scan time, invariants and filters included."""
    groups: dict[tuple, list[int]] = {}
    for i, spec in enumerate(specs):
        _check_source(spec.n, spec.source, spec.corpus)
        groups.setdefault((spec.n, spec.source, spec.corpus), []).append(i)
    reports: list = [None] * len(specs)
    for (n, source, corpus), members in groups.items():
        t0 = time.perf_counter()
        group = [specs[i] for i in members]
        bounds = [spec.bound() for spec in group]
        folds = [_Fold(spec.motif) for spec in group]
        filters: dict[tuple, list[_Fold]] = {}
        for spec, fold in zip(group, folds):
            filters.setdefault(spec.filter_key(), []).append(fold)
        scan = _fold_scan(n, source, corpus, jobs, filters)
        # fold times add up across workers, so they may exceed the wall time
        shared = max(0.0, time.perf_counter() - t0 - sum(fold.seconds for fold in folds))
        for i, spec, bound, fold in zip(members, group, bounds, folds):
            reports[i] = _report(spec, bound, fold, scan, shared)
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
        return {
            "spec": {"n": self.n, "s2": self.s2, "delta": self.delta},
            "scanned": self.scanned,
            "spot_checked": self.spot_checked,
            "qualifying": self.qualifying,
            "counterexamples": list(self.counterexamples),
            "verdict": self.verdict,
            "elapsed_ms": self.elapsed_ms,
        }


def verify_nonexistence(n: int, s2: int, delta: int, source: str = "native",
                        corpus: str | Path | None = None,
                        jobs: int | None = None) -> NonexistenceReport:
    """Certify that no n-vertex graph has nu* = s2/2 and minimum degree
    >= delta, for delta beyond the feasible cap of the parity of s2: a scan
    of the at-least filter with no motif, whose witnesses are the smallest
    counterexamples."""
    if s2 < 4 or n < s2 + 1:
        raise ValueError(f"(n, s2) = ({n}, {s2}) outside n >= 2s + 1 >= 5")
    cap = feasible_t_max(s2)
    if delta <= cap:
        raise ValueError(f"delta = {delta} is feasible (cap {cap}); nothing to refute")
    _check_source(n, source, corpus)
    t0 = time.perf_counter()
    key, fold = ("s2", s2, "at-least", delta), _Fold(None)
    scanned, checked = _fold_scan(n, source, corpus, jobs, {key: [fold]})
    graphs = fold.witnesses(n)
    if graphs:
        _check_witness(key, None, graphs[0], 0)
    examples = tuple(to_graph6(g) for g in graphs)
    verdict = "no-graphs" if fold.passed == 0 else "counterexample-found"
    elapsed = int((time.perf_counter() - t0) * 1000)
    return NonexistenceReport(n, s2, delta, scanned, checked, fold.passed, examples,
                              verdict, elapsed)
