"""Fractional and ordinary matching numbers, computed exactly.

The fractional matching number nu* of a simple graph is always an integer
or half-integer, so it is carried here as its doubled integer value and no
floating point appears anywhere.  Two independent routes are provided:

* a deficiency maximization over all vertex subsets T, which also yields a
  witness T attaining max (isolated(G-T) - |T|); it counts the isolated
  vertices of G - T as S minus N(S) for S = V - T, with N(S) read from two
  half-size neighbourhood tables, and
* half the size of a maximum matching of the bipartite double cover,
  found by Kuhn's augmenting-path search on neighbour bitmasks.

The double-cover matching additionally produces an optimal half-integral
edge weighting whose feasibility and total are checked by the caller's
tests rather than trusted.  The ordinary matching number comes from a
memoized search that branches only on the partners of the lowest
non-isolated vertex.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graphs import Graph, _bits


@dataclass(frozen=True, order=True)
class HalfInt:
    """An exact half-integral value stored as twice itself."""

    doubled: int

    def __post_init__(self) -> None:
        if self.doubled < 0:
            raise ValueError("negative half-integer")

    def __str__(self) -> str:
        if self.doubled % 2 == 0:
            return str(self.doubled // 2)
        return f"{self.doubled}/2"

    @property
    def is_integer(self) -> bool:
        return self.doubled % 2 == 0


@dataclass(frozen=True)
class DeficiencyWitness:
    """A subset T with the number of isolated vertices of G - T."""

    T: tuple[int, ...]
    isolated: int

    @property
    def deficiency(self) -> int:
        return self.isolated - len(self.T)


@dataclass(frozen=True)
class FractionalCertificate:
    """Half-integral fractional matching: (u, v, doubled weight) per edge."""

    edges: tuple[tuple[int, int, int], ...]
    total_doubled: int

    def to_json_dict(self) -> dict:
        return {
            "edges": [[u, v, w] for u, v, w in self.edges],
            "total_doubled": self.total_doubled,
        }


MAX_DEFICIENCY_SCAN = 24


def nu_star_deficiency(g: Graph) -> tuple[HalfInt, DeficiencyWitness]:
    """Exhaustive Tutte-Berge style scan: nu* = (n - max_T(i(G-T) - |T|)) / 2.

    With S = V - T, the isolated vertices of G - T are S minus N(S), so the
    deficiency of T is 2|S| - n - |S & N(S)|.  N(S) is the OR of N(S_low)
    and N(S_high), read from one table per half of the vertex set (2^floor(n/2)
    and 2^ceil(n/2) entries, one OR each), so memory is O(2^ceil(n/2)).
    Plain ints only: this route shares no code with the König–Ore kernel.
    Ties among maximizing subsets are broken toward the lexicographically
    smallest sorted vertex tuple.
    """
    n = g.n
    if n > MAX_DEFICIENCY_SCAN:
        raise ValueError(f"deficiency scan limited to n <= {MAX_DEFICIENCY_SCAN}, got {n}")
    h = n // 2
    low = _neighbourhood_table(g.adj, 0, h)
    high = _neighbourhood_table(g.adj, h, n - h)
    full = (1 << n) - 1
    best = -n - 1  # below every deficiency
    best_t = 0
    for b, nb_high in enumerate(high):
        s_high = b << h
        for a, nb_low in enumerate(low):
            s = s_high | a
            deficiency = 2 * s.bit_count() - n - (s & (nb_low | nb_high)).bit_count()
            if deficiency > best:
                best, best_t = deficiency, full ^ s
            elif deficiency == best and _lex_before(full ^ s, best_t):
                best_t = full ^ s
    t = tuple(_bits(best_t))
    return HalfInt(n - best), DeficiencyWitness(t, best + len(t))


def _neighbourhood_table(adj: tuple[int, ...], base: int, k: int) -> list[int]:
    """N(S) for every subset S of vertices base..base+k-1, indexed by S >> base."""
    table = [0] * (1 << k)
    for s in range(1, 1 << k):
        lowest = s & -s
        table[s] = table[s ^ lowest] | adj[base + lowest.bit_length() - 1]
    return table


def _lex_before(a: int, b: int) -> bool:
    """Whether sorted(bits(a)) < sorted(bits(b)) as tuples, for masks a != b.

    At the lowest differing bit x, the mask holding x comes first exactly
    when the other one continues above x; otherwise the other is a prefix.
    """
    x = (a ^ b) & -(a ^ b)
    above = -(x << 1)  # every bit above x
    return bool(b & above) if a & x else not a & above


def _double_cover_matching(g: Graph) -> tuple[int, list[int]]:
    """Kuhn's augmenting-path search on the double cover: (size, match_left).

    Left copy u is matched to right copy match_left[u] (-1 if exposed);
    left u - right v is an edge exactly when uv is an edge of g.  One pass
    over the left side is maximum: a left vertex with no augmenting path
    now never gets one later, so none is left at the end (Berge 1957).
    """
    adj = g.adj
    match_left = [-1] * g.n
    match_right = [-1] * g.n

    def augment(u: int) -> bool:
        nonlocal seen
        while free := adj[u] & ~seen:
            v_bit = free & -free
            seen |= v_bit
            v = v_bit.bit_length() - 1
            if match_right[v] == -1 or augment(match_right[v]):
                match_left[u], match_right[v] = v, u
                return True
        return False

    size = 0
    for u in range(g.n):
        seen = 0
        size += augment(u)
    return size, match_left


def nu_star_fast(g: Graph) -> HalfInt:
    """nu* via the double cover: doubled value = maximum matching size there."""
    size, _ = _double_cover_matching(g)
    return HalfInt(size)


def fractional_certificate(g: Graph) -> FractionalCertificate:
    """Optimal half-integral fractional matching extracted from the double cover.

    Edge uv receives doubled weight [u matched to v'] + [v matched to u'],
    so per-vertex doubled load is at most 2 and the doubled total equals the
    double-cover matching size, i.e. 2 nu*(g).
    """
    size, match_left = _double_cover_matching(g)
    edges = []
    total = 0
    for u, v in g.edges():
        w = int(match_left[u] == v) + int(match_left[v] == u)
        edges.append((u, v, w))
        total += w
    if total != size:
        raise AssertionError("certificate total disagrees with matching size")
    return FractionalCertificate(tuple(edges), total)


MAX_MATCHING_BRANCH = 16


def matching_number(g: Graph) -> int:
    """Maximum matching size by branching on the lowest non-isolated vertex v.

    Some maximum matching covers v: if M leaves v exposed, a neighbour u is
    covered (else M + uv is larger), and swapping u's edge for uv keeps |M|.
    So only v's partners are tried, stopping once floor(|avail| / 2) is reached.
    """
    if g.n > MAX_MATCHING_BRANCH:
        raise ValueError(f"matching search limited to n <= {MAX_MATCHING_BRANCH}, got {g.n}")
    adj = g.adj
    cache: dict[int, int] = {}

    def rec(avail: int) -> int:
        m = avail
        while m:
            low = m & -m
            v = low.bit_length() - 1
            if adj[v] & avail:
                break
            m ^= low
        else:
            return 0
        avail = m  # isolated prefix vertices never matter again
        hit = cache.get(avail)
        if hit is not None:
            return hit
        rest = avail ^ low
        cap = avail.bit_count() // 2
        best = 0
        for u in _bits(adj[v] & rest):
            got = 1 + rec(rest ^ (1 << u))
            if got > best:
                best = got
                if best == cap:
                    break
        cache[avail] = best
        return best

    return rec((1 << g.n) - 1)
