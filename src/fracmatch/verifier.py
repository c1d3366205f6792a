"""Exhaustive small-graph verification of the extremal bounds.

The native source enumerates every labeled graph on n vertices as an edge
bitmask and evaluates the filter invariants (doubled fractional matching
number, minimum/maximum degree, matching number) for all of them with
vectorized numpy passes; the mask space is partitioned into fixed chunks,
which keeps memory bounded and lets ``jobs > 1`` farm chunks to worker
processes.  Partial results merge by concatenation in chunk order, so a
report is byte-identical no matter how many workers ran.

A graph6 stream source (one graph per line) feeds the same machinery for
the non-isomorphic corpora at n = 8; all filter quantities are preserved
by isomorphism, so scanning class representatives is enough there.

The vectorized nu* is not the scalar algorithm: it evaluates the
König–Ore defect formula of the bipartite double cover, 2 nu* = min over
S of (n - |S| + |N(S)|), on byte-wide neighbour rows (see
``mask_invariants``).  Every scan cross-validates it: one mask in 4096, and
at least 256 per scan (all of them in smaller scans), is re-checked
through the scalar per-graph APIs (deficiency scan, double cover matching,
degree stats), so a vectorization bug cannot slip through silently.
"""

from __future__ import annotations

import itertools
import json
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import formulas
from .constructions import build_extremal
from .counting import Biclique, Clique, Motif
from .formulas import feasible_t_max
from .graphs import Graph, all_labeled_graphs, are_isomorphic, degree_stats, from_graph6, \
    pair_index, to_graph6
from .matching import nu_star_deficiency, nu_star_fast

THEOREMS = ("1.1", "1.2", "1.4", "1.6", "1.9")
NATIVE_MAX_VERTICES = 8
WITNESS_CAP = 16
SPOT_CHECK_STRIDE = 4096
SPOT_CHECK_FLOOR = 256
_CHUNK_BITS = 19


# ---------------------------------------------------------------------------
# vectorized invariants over edge-mask arrays

_ROW_MAX_VERTICES = 8  # neighbour rows are uint8
_BLOCK = 1 << 16  # masks per block: the ~2n + 1 uint8 buffers of a block stay in L2


def _subset_walk(n: int) -> list[tuple[int, int]]:
    """(|S|, max S) for every nonempty S of range(n), in depth-first order.

    Sets are sorted tuples in lexicographic order, so each set comes after
    its prefix S - {max S} with only extensions of that prefix in between:
    the buffer holding N(prefix), at depth |S| - 1, is still intact."""
    subsets = sorted(c for k in range(1, n + 1) for c in itertools.combinations(range(n), k))
    return [(len(s), s[-1]) for s in subsets]


def mask_invariants(n: int, masks: np.ndarray) -> dict[str, np.ndarray]:
    """nu2 (doubled nu*), min degree and max degree for every edge mask.

    nu*(G) is half the matching number of the bipartite double cover of G
    (Scheinerman & Ullman, Fractional Graph Theory, ch. 2), so the
    König–Ore defect formula for that cover gives

        2 nu*(G) = min over S of V of (n - |S| + |N(S)|).

    Each mask is unpacked into uint8 neighbour rows, and the subsets S are
    walked depth first so that N(S) = N(S - {v}) | row[v]: one OR, popcount,
    add and minimum per S, in blocks of _BLOCK masks."""
    if n > _ROW_MAX_VERTICES:
        raise ValueError(f"mask invariants limited to n <= {_ROW_MAX_VERTICES}")
    total = len(masks)
    nu2 = np.empty(total, dtype=np.uint8)
    mind = np.empty(total, dtype=np.uint8)
    maxd = np.empty(total, dtype=np.uint8)
    size = min(total, _BLOCK)
    walk = _subset_walk(n)
    rows = np.empty((n, size), dtype=np.uint8)
    nbrs = np.zeros((n + 1, size), dtype=np.uint8)  # N(S) at depth |S|; N({}) = 0
    tmp = np.empty(size, dtype=np.uint8)
    wide = np.empty(size, dtype=masks.dtype)
    for lo in range(0, total, _BLOCK):
        hi = min(lo + _BLOCK, total)
        k = hi - lo
        row, nbr, t, w = rows[:, :k], nbrs[:, :k], tmp[:k], wide[:k]
        dmin, dmax, nu = mind[lo:hi], maxd[lo:hi], nu2[lo:hi]
        for j in range(n):
            # vertex j's edges to i < j are the j bits from pair_index(0, j);
            # bit i of that field is bit j of row i
            np.right_shift(masks[lo:hi], j * (j - 1) // 2, out=w)
            np.bitwise_and(w, (1 << j) - 1, out=row[j], casting="unsafe")
            for i in range(j):
                np.bitwise_and(row[j], 1 << i, out=t)
                np.left_shift(t, j - i, out=t)
                np.bitwise_or(row[i], t, out=row[i])
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


def _native_chunk(args: tuple[int, int, int]) -> dict[str, np.ndarray]:
    n, lo, hi = args
    masks = np.arange(lo, hi, dtype=np.uint32)
    return mask_invariants(n, masks)


def matching_at_least_masks(n: int, k: int) -> list[int]:
    """Edge-bit masks of all sets of k pairwise disjoint edges."""
    pairs = list(itertools.combinations(range(n), 2))
    out = []

    def rec(start: int, used: int, mask: int, depth: int) -> None:
        if depth == k:
            out.append(mask)
            return
        for idx in range(start, len(pairs)):
            u, v = pairs[idx]
            if used >> u & 1 or used >> v & 1:
                continue
            rec(idx + 1, used | 1 << u | 1 << v, mask | 1 << pair_index(u, v), depth + 1)

    rec(0, 0, 0, 0)
    return out


def matching_number_at_least(n: int, masks: np.ndarray, k: int) -> np.ndarray:
    """Boolean array: does the mask contain k pairwise disjoint edges."""
    if k == 0:
        return np.ones(masks.shape, dtype=bool)
    if 2 * k > n:
        return np.zeros(masks.shape, dtype=bool)
    hit = np.zeros(masks.shape, dtype=bool)
    for m in matching_at_least_masks(n, k):
        mm = np.uint32(m)
        hit |= (masks & mm) == mm
    return hit


def motif_masks(n: int, motif: Motif) -> list[int]:
    """Edge-bit masks whose containment marks one copy of the motif."""
    out = []
    if isinstance(motif, Clique):
        for S in itertools.combinations(range(n), motif.ell):
            m = 0
            for u, v in itertools.combinations(S, 2):
                m |= 1 << pair_index(u, v)
            out.append(m)
        return out
    r1, r2 = motif.r1, motif.r2
    for A in itertools.combinations(range(n), r1):
        rest = [v for v in range(n) if v not in A]
        for B in itertools.combinations(rest, r2):
            if r1 == r2 and A > B:
                continue  # unordered pair, count once
            m = 0
            for a in A:
                for b in B:
                    m |= 1 << pair_index(a, b)
            out.append(m)
    return out


def count_motif_vector(n: int, masks: np.ndarray, motif: Motif) -> np.ndarray:
    counts = np.zeros(masks.shape, dtype=np.int64)
    for m in motif_masks(n, motif):
        mm = np.uint32(m)
        counts += (masks & mm) == mm
    return counts


# ---------------------------------------------------------------------------
# scan sources with caching

_NATIVE_CACHE: dict[int, dict[str, np.ndarray]] = {}
_STREAM_CACHE: dict[tuple, dict[str, np.ndarray]] = {}


def clear_caches() -> None:
    _NATIVE_CACHE.clear()
    _STREAM_CACHE.clear()


def _spot_check(n: int, masks, inv: dict[str, np.ndarray]) -> None:
    """Re-derive sampled entries through the scalar APIs; raise on mismatch.

    Samples every SPOT_CHECK_STRIDE-th mask, and at least
    min(len(masks), SPOT_CHECK_FLOOR) evenly spaced ones.  ``masks`` is any
    sequence; the native source passes a ``range``, where mask == index."""
    stride = max(1, min(SPOT_CHECK_STRIDE, len(masks) // SPOT_CHECK_FLOOR))
    for idx in range(0, len(masks), stride):
        g = Graph.from_edge_mask(n, int(masks[idx]))
        nu_fast = nu_star_fast(g).doubled
        nu_slow = nu_star_deficiency(g)[0].doubled
        lo, hi, _ = degree_stats(g)
        if not (nu_fast == nu_slow == int(inv["nu2"][idx])):
            raise AssertionError(
                f"nu* spot check failed at mask {int(masks[idx])}: "
                f"fast={nu_fast} deficiency={nu_slow} vector={int(inv['nu2'][idx])}"
            )
        if lo != int(inv["mind"][idx]) or hi != int(inv["maxd"][idx]):
            raise AssertionError(f"degree spot check failed at mask {int(masks[idx])}")


def native_invariants(n: int, jobs: int | None = None) -> dict[str, np.ndarray]:
    """Invariant arrays over all 2^C(n,2) labeled graphs, cached per n."""
    if n > NATIVE_MAX_VERTICES:
        raise ValueError(f"native enumeration limited to n <= {NATIVE_MAX_VERTICES}")
    hit = _NATIVE_CACHE.get(n)
    if hit is not None:
        return hit
    m = n * (n - 1) // 2
    total = 1 << m
    step = min(total, 1 << _CHUNK_BITS)
    tasks = [(n, lo, min(lo + step, total)) for lo in range(0, total, step)]
    if jobs is None:
        jobs = os.cpu_count() or 1
    if jobs > 1 and len(tasks) > 1:
        try:
            with ProcessPoolExecutor(max_workers=min(jobs, len(tasks))) as pool:
                parts = list(pool.map(_native_chunk, tasks))
        except OSError:  # process pools unavailable; fall back to serial
            parts = [_native_chunk(t) for t in tasks]
    else:
        parts = [_native_chunk(t) for t in tasks]
    inv = {key: np.concatenate([p[key] for p in parts]) for key in parts[0]}
    _spot_check(n, range(total), inv)
    _NATIVE_CACHE[n] = inv
    return inv


def load_stream(path: str | Path, expect_n: int) -> dict[str, np.ndarray]:
    """Decode a graph6 corpus and compute invariants, cached per file state."""
    from .corpus import read_graph6_stream

    path = Path(path)
    stat = path.stat()
    key = (str(path.resolve()), expect_n, stat.st_size, stat.st_mtime_ns)
    hit = _STREAM_CACHE.get(key)
    if hit is not None:
        return hit
    masks = []
    for lineno, g in read_graph6_stream(path):
        if g.n != expect_n:
            raise ValueError(f"line {lineno}: graph has {g.n} vertices, expected {expect_n}")
        masks.append(g.edge_mask())
    arr = np.array(masks, dtype=np.uint32)
    inv = mask_invariants(expect_n, arr)
    inv["masks"] = arr
    _spot_check(expect_n, arr, inv)
    _STREAM_CACHE[key] = inv
    return inv


def enumerate_graphs(n: int, source: str = "native", corpus: str | Path | None = None):
    """Stream of graphs: every labeled graph (native) or corpus lines decoded."""
    if source == "native":
        if n > NATIVE_MAX_VERTICES:
            raise ValueError(f"native enumeration limited to n <= {NATIVE_MAX_VERTICES}")
        yield from all_labeled_graphs(n)
    elif source == "graph6-stream":
        from .corpus import read_graph6_stream

        if corpus is None:
            raise ValueError("graph6-stream source needs a corpus path")
        for lineno, g in read_graph6_stream(corpus):
            if g.n != n:
                raise ValueError(f"line {lineno}: graph has {g.n} vertices, expected {n}")
            yield g
    else:
        raise ValueError(f"unknown source {source!r}")


# ---------------------------------------------------------------------------
# verification specs and reports

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
    jobs: int | None = None

    def __post_init__(self) -> None:
        if self.theorem not in THEOREMS:
            raise ValueError(f"unknown theorem id {self.theorem!r}")
        if self.delta_mode not in ("exact", "at-least"):
            raise ValueError(f"bad delta_mode {self.delta_mode!r}")
        if self.source not in ("native", "graph6-stream"):
            raise ValueError(f"unknown source {self.source!r}")
        if self.source == "graph6-stream" and self.corpus is None:
            raise ValueError("graph6-stream source needs a corpus path")
        if self.theorem in ("1.1", "1.2", "1.4"):
            # these bound the edge count; a non-edge motif would be nonsense
            if self.motif is not None and self.motif != Clique(2):
                raise ValueError(f"theorem {self.theorem} counts edges, not {self.motif}")
        if self.theorem != "1.1" and self.k is not None:
            raise ValueError(f"k applies to theorem 1.1 only, not {self.theorem}")
        if self.theorem != "1.2" and self.d is not None:
            raise ValueError(f"d applies to theorem 1.2 only, not {self.theorem}")
        if self.theorem == "1.4" and self.delta not in (None, 1):
            raise ValueError("theorem 1.4 fixes minimum degree >= 1; delta is not a parameter")
        if self.theorem == "1.1":
            if self.k is None or self.k < 1 or self.n < 2 * self.k + 1:
                raise ValueError("theorem 1.1 needs k >= 1 and n >= 2k + 1")
        elif self.theorem == "1.2":
            if self.s2 is None or self.d is None:
                raise ValueError("theorem 1.2 needs s2 and d")
            formulas.bound_edges_max_degree(self.n, self.s2, self.d)
        elif self.theorem == "1.4":
            if self.s2 is None:
                raise ValueError("theorem 1.4 needs s2")
            formulas.bound_edges_min_degree_one(self.n, self.s2)
        else:
            if self.s2 is None or self.delta is None or self.motif is None:
                raise ValueError(f"theorem {self.theorem} needs s2, delta and motif")
            if self.theorem == "1.6" and not isinstance(self.motif, Clique):
                raise ValueError("theorem 1.6 takes a clique motif")
            if self.theorem == "1.9" and not isinstance(self.motif, Biclique):
                raise ValueError("theorem 1.9 takes a biclique motif")
            formulas.bound_motif(self.n, self.s2, self.delta, self.motif)

    def effective_motif(self) -> Motif:
        return self.motif if self.motif is not None else Clique(2)

    def bound(self) -> int:
        if self.theorem == "1.1":
            return formulas.bound_edges_matching(self.n, self.k)
        if self.theorem == "1.2":
            return formulas.bound_edges_max_degree(self.n, self.s2, self.d)
        if self.theorem == "1.4":
            val = formulas.bound_edges_min_degree_one(self.n, self.s2)
            reduced = formulas.bound_motif(self.n, self.s2, 1, Clique(2), "at-least")
            if val != reduced:
                raise AssertionError(
                    f"minimum-degree-one bound {val} disagrees with "
                    f"at-least reduction {reduced} at (n={self.n}, s2={self.s2})"
                )
            return val
        return formulas.bound_motif(self.n, self.s2, self.delta, self.effective_motif(),
                                    self.delta_mode)

    def to_json_dict(self) -> dict:
        out: dict = {"theorem": self.theorem, "n": self.n}
        if self.theorem == "1.1":
            out["k"] = self.k
        elif self.theorem == "1.2":
            out.update(s2=self.s2, d=self.d)
        elif self.theorem == "1.4":
            out["s2"] = self.s2
        else:
            out.update(s2=self.s2, delta=self.delta, motif=str(self.motif),
                       delta_mode=self.delta_mode)
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
    passed: int
    verdict: str  # "exact-match" | "bound-violated" | "no-graphs"
    witness_matches_construction: bool
    elapsed_ms: int

    def to_json_dict(self) -> dict:
        return {
            "spec": self.spec.to_json_dict(),
            "bound": str(self.bound),
            "observed_max": None if self.observed_max is None else str(self.observed_max),
            "witnesses": list(self.witnesses),
            "scanned": self.scanned,
            "passed": self.passed,
            "verdict": self.verdict,
            "witness_matches_construction": self.witness_matches_construction,
            "elapsed_ms": self.elapsed_ms,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict())


def _graph6_sort_keys(n: int, masks: np.ndarray) -> np.ndarray:
    """Bit-reversed masks; ascending order equals graph6 string order."""
    m = n * (n - 1) // 2
    rev = np.zeros(masks.shape, dtype=np.uint32)
    for p in range(m):
        rev |= ((masks >> np.uint32(p)) & np.uint32(1)) << np.uint32(m - 1 - p)
    return rev


def _select_witnesses(n: int, masks: np.ndarray) -> list[str]:
    keys = _graph6_sort_keys(n, masks)
    order = np.argsort(keys, kind="stable")[:WITNESS_CAP]
    return [to_graph6(Graph.from_edge_mask(n, int(masks[i]))) for i in order]


def _winning_constructions(spec: VerifySpec, bound: int) -> list[Graph]:
    """Extremal constructions whose formula value attains the bound."""
    if spec.theorem in ("1.1", "1.2"):
        return []
    # theorem 1.4 is the edge bound under minimum degree at least one
    delta, mode = (1, "at-least") if spec.theorem == "1.4" else (spec.delta, spec.delta_mode)
    motif = spec.effective_motif()
    return [build_extremal(p)
            for p in formulas.extremal_candidates(spec.n, spec.s2, delta, mode)
            if formulas.g_motif(p, motif) == bound]


def _scan(n: int, source: str, corpus: str | Path | None, jobs: int | None,
          select, invariants: bool = True) -> tuple[int, np.ndarray]:
    """Choose the scan source and return (scanned, masks passing ``select``).

    ``select(inv, masks)`` returns a boolean array over the scanned masks.
    On the native source mask == index, so ``masks`` is None there and the
    passing masks come from ``np.nonzero``: the mask array is never built.
    With ``invariants`` false the native source computes none (``inv`` is
    None); the corpus source computes them while decoding in any case."""
    if source == "native":
        if n > NATIVE_MAX_VERTICES:
            raise ValueError(f"native enumeration limited to n <= {NATIVE_MAX_VERTICES}")
        inv = native_invariants(n, jobs=jobs) if invariants else None
        return 1 << (n * (n - 1) // 2), np.nonzero(select(inv, None))[0].astype(np.uint32)
    inv = load_stream(corpus, n)
    masks = inv["masks"]
    return len(masks), masks[select(inv, masks)]


def verify_bound(spec: VerifySpec) -> VerificationReport:
    """Scan all graphs passing the spec's filter and compare the maximum
    motif count against the theorem bound."""
    t0 = time.perf_counter()
    bound = spec.bound()
    n = spec.n

    def select(inv, masks):
        if spec.theorem == "1.1":
            if masks is None:
                masks = np.arange(1 << (n * (n - 1) // 2), dtype=np.uint32)
            sel = matching_number_at_least(n, masks, spec.k)
            return sel & ~matching_number_at_least(n, masks, spec.k + 1)
        sel = inv["nu2"] == spec.s2
        if spec.theorem == "1.2":
            sel &= inv["maxd"] <= spec.d
        elif spec.theorem == "1.4":
            sel &= inv["mind"] >= 1
        elif spec.delta_mode == "exact":
            sel &= inv["mind"] == spec.delta
        else:
            sel &= inv["mind"] >= spec.delta
        return sel

    scanned, pass_masks = _scan(n, spec.source, spec.corpus, spec.jobs, select,
                                invariants=spec.theorem != "1.1")
    passed = int(pass_masks.size)

    if passed == 0:
        elapsed = int((time.perf_counter() - t0) * 1000)
        return VerificationReport(spec, bound, None, (), scanned, 0,
                                  "no-graphs", False, elapsed)

    counts = count_motif_vector(n, pass_masks, spec.effective_motif())
    observed = int(counts.max())
    at_max = pass_masks[counts == observed]
    witnesses = _select_witnesses(n, at_max)
    verdict = "exact-match" if observed == bound else "bound-violated"

    matches = False
    if verdict == "exact-match":
        targets = _winning_constructions(spec, bound)
        wit_graphs = [from_graph6(w) for w in witnesses]
        matches = any(
            are_isomorphic(w, target) for w in wit_graphs for target in targets
        )
    elapsed = int((time.perf_counter() - t0) * 1000)
    return VerificationReport(spec, bound, observed, tuple(witnesses),
                              scanned, passed, verdict, matches, elapsed)


# ---------------------------------------------------------------------------
# nonexistence scans

@dataclass(frozen=True)
class NonexistenceReport:
    n: int
    s2: int
    delta: int
    scanned: int
    qualifying: int
    counterexamples: tuple[str, ...]
    verdict: str  # "no-graphs" | "counterexample-found"
    elapsed_ms: int

    def to_json_dict(self) -> dict:
        return {
            "spec": {"n": self.n, "s2": self.s2, "delta": self.delta},
            "scanned": self.scanned,
            "qualifying": self.qualifying,
            "counterexamples": list(self.counterexamples),
            "verdict": self.verdict,
            "elapsed_ms": self.elapsed_ms,
        }


def verify_nonexistence(n: int, s2: int, delta: int, source: str = "native",
                        corpus: str | Path | None = None,
                        jobs: int | None = None) -> NonexistenceReport:
    """Certify that no n-vertex graph has nu* = s2/2 and minimum degree
    >= delta, for delta beyond the feasible cap of the parity of s2."""
    cap = feasible_t_max(s2)
    if delta <= cap:
        raise ValueError(f"delta = {delta} is feasible (cap {cap}); nothing to refute")
    if n < s2 + 1:
        raise ValueError(f"need n >= {s2 + 1}")
    t0 = time.perf_counter()
    scanned, bad = _scan(n, source, corpus, jobs,
                         lambda inv, masks: (inv["nu2"] == s2) & (inv["mind"] >= delta))
    qualifying = int(bad.size)
    examples = tuple(_select_witnesses(n, bad)) if qualifying else ()
    verdict = "no-graphs" if qualifying == 0 else "counterexample-found"
    elapsed = int((time.perf_counter() - t0) * 1000)
    return NonexistenceReport(n, s2, delta, scanned, qualifying, examples,
                              verdict, elapsed)


# ---------------------------------------------------------------------------
# convexity sweeps

DEFAULT_CONVEXITY_GRIDS = {
    "lemma23": {"s2": (4, 12), "ell": (2, 6)},
    "lemma24": {"s2": (4, 12), "n_offset": (1, 6), "ell": (2, 5)},
    "lemma27": {"s2": (4, 12), "n_offset": (1, 6), "r_total": 5},
}


@dataclass(frozen=True)
class ConvexityReport:
    family: str
    points: int
    min_value: int | None
    argmin: dict = field(hash=False)
    all_nonnegative: bool = True

    def to_json_dict(self) -> dict:
        return {
            "family": self.family,
            "points": self.points,
            "min_second_difference": self.min_value,
            "argmin": self.argmin,
            "all_nonnegative": self.all_nonnegative,
        }


def _convexity_points(family: str, grid: dict):
    s2_lo, s2_hi = grid["s2"]
    if family == "lemma23":
        for s2 in range(s2_lo, s2_hi + 1):
            for ell in range(grid["ell"][0], grid["ell"][1] + 1):
                for t in range(2, s2):
                    yield {"s2": s2, "ell": ell, "t": t}
    elif family == "lemma24":
        off_lo, off_hi = grid["n_offset"]
        for s2 in range(s2_lo, s2_hi + 1):
            for n in range(s2 + off_lo, s2 + off_hi + 1):
                for ell in range(grid["ell"][0], grid["ell"][1] + 1):
                    for t in range(2, s2 + 1):
                        yield {"n": n, "s2": s2, "ell": ell, "t": t}
    elif family == "lemma27":
        off_lo, off_hi = grid["n_offset"]
        for s2 in range(s2_lo, s2_hi + 1):
            for n in range(s2 + off_lo, s2 + off_hi + 1):
                for r1 in range(1, grid["r_total"]):
                    for r2 in range(r1, grid["r_total"] - r1 + 1):
                        for t in range(2, s2 // 2):
                            yield {"n": n, "s2": s2, "r1": r1, "r2": r2, "t": t}
    else:
        raise ValueError(f"unknown family {family!r}")


def verify_convexity(family: str, grid: dict | None = None) -> ConvexityReport:
    """Sweep the centered second difference over the grid; all must be >= 0."""
    grid = grid or DEFAULT_CONVEXITY_GRIDS[family]
    if grid["s2"][0] > grid["s2"][1]:
        raise ValueError(f"empty s2 range {grid['s2'][0]}..{grid['s2'][1]}")
    points = 0
    min_val: int | None = None
    argmin: dict = {}
    for pt in _convexity_points(family, grid):
        t = pt.pop("t")
        val = formulas.second_difference(family, t, **pt)
        points += 1
        if min_val is None or val < min_val:
            min_val = val
            argmin = dict(pt, t=t)
    return ConvexityReport(family, points, min_val, argmin,
                           all_nonnegative=(min_val is None or min_val >= 0))
