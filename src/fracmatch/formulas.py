"""Closed-form counting formulas and extremal bounds.

Everything here is exact integer arithmetic.  The fractional matching
number s enters as its doubled value ``s2`` and the half-integral candidate
t = s - 3/2 (odd ``s2``) becomes the integer ``(s2 - 3) // 2``, so no
formula ever evaluates a binomial at a non-integer.

``g_clique``/``g_biclique`` give the exact number of K_l and K_{r1,r2}
copies in the extremal construction G(n, s, t) (see constructions module);
``bound_motif`` takes the maximum of those formulas over the constructions
of ``extremal_candidates``: the two values of t that discrete convexity
singles out, for each admissible minimum degree.  ``verify_convexity``
sweeps the second differences behind that convexity (the ``lemma23``,
``lemma24`` and ``lemma27`` families of ``CONVEX_FAMILIES``) over a grid.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import comb

from .counting import Biclique, Clique, Motif


def binom(a: int, b: int) -> int:
    """C(a, b) with C(a, b) = 0 whenever b < 0 or a < b (a may be negative)."""
    if b < 0 or a < b:
        return 0
    return comb(a, b)


def feasible_t_max(s2: int) -> int:
    """Largest admissible t: s for even s2, s - 3/2 for odd s2."""
    return s2 // 2 if s2 % 2 == 0 else (s2 - 3) // 2


@dataclass(frozen=True)
class ExtremalParams:
    """Parameters (n, s = s2/2, t, delta) of the construction G(n, s, t)."""

    n: int
    s2: int
    t: int
    delta: int

    def __post_init__(self) -> None:
        if self.s2 < 4:
            raise ValueError(f"s2 = {self.s2} < 4 (need 2s + 1 >= 5)")
        if self.n < self.s2 + 1:
            raise ValueError(f"n = {self.n} < {self.s2 + 1} (need n >= 2s + 1)")
        if not 1 <= self.delta <= self.t:
            raise ValueError(f"delta = {self.delta} outside 1..t = {self.t}")
        if self.t > feasible_t_max(self.s2):
            raise ValueError(
                f"t = {self.t} exceeds {feasible_t_max(self.s2)} for s2 = {self.s2}"
            )

    @property
    def middle_size(self) -> int:
        """Order of the middle clique, 2s - 2t."""
        return self.s2 - 2 * self.t

    @property
    def independent_size(self) -> int:
        """Order of the independent part, n + t - 2s."""
        return self.n + self.t - self.s2


def g_clique(p: ExtremalParams, ell: int) -> int:
    """Exact K_ell count of G(n, s, t):
    C(2s-t, l) + C(t, l-1)(n+t-2s-1) + C(delta, l-1)."""
    if ell < 2:
        raise ValueError("clique order must be >= 2")
    return (
        binom(p.s2 - p.t, ell)
        + binom(p.t, ell - 1) * (p.n + p.t - p.s2 - 1)
        + binom(p.delta, ell - 1)
    )


def g_biclique(p: ExtremalParams, r1: int, r2: int) -> int:
    """Exact K_{r1,r2} count of G(n, s, t), with the symmetry constant
    c = 2 when r1 = r2 dividing the ordered total exactly."""
    if r1 < 1 or r2 < 1:
        raise ValueError("biclique part sizes must be >= 1")
    r = r1 + r2
    c = 2 if r1 == r2 else 1
    total = binom(p.s2 - p.t, r) * binom(r, r1)
    for rj in (r1, r2):
        total += binom(p.t, rj) * (
            binom(p.n - rj - 1, r - rj) - binom(p.s2 - p.t - rj, r - rj)
        )
        total += binom(p.delta, rj) * binom(p.n - rj - 1, r - rj - 1)
    q, rem = divmod(total, c)
    if rem:
        raise AssertionError(f"odd symmetric total {total} for {p}, ({r1},{r2})")
    return q


def _check_bound_params(n: int, s2: int, delta: int) -> int:
    """Shared hypothesis check; returns the top candidate t."""
    t_hi = feasible_t_max(s2)
    if s2 < 4 or n < s2 + 1:
        raise ValueError(f"(n, s2) = ({n}, {s2}) outside n >= 2s + 1 >= 5")
    if not 1 <= delta <= t_hi:
        raise ValueError(f"delta = {delta} outside 1..{t_hi} for s2 = {s2}")
    return t_hi


def extremal_candidates(n: int, s2: int, delta: int,
                        delta_mode: str) -> list[ExtremalParams]:
    """The constructions whose counts a bound compares.

    Minimum degree exactly delta: t in {delta, feasible max}, the endpoints
    that discrete convexity singles out.  Minimum degree at least delta: the
    same pair for every delta' in delta..feasible max.  Ordered by delta',
    then t."""
    t_hi = _check_bound_params(n, s2, delta)
    if delta_mode == "exact":
        deltas = [delta]
    elif delta_mode == "at-least":
        deltas = range(delta, t_hi + 1)
    else:
        raise ValueError(f"bad delta_mode {delta_mode!r}")
    return [ExtremalParams(n, s2, t, d) for d in deltas for t in sorted({d, t_hi})]


def bound_edges_min_degree_one(n: int, s2: int) -> int:
    """Maximum size of an n-vertex graph with nu* = s2/2 and minimum degree
    at least one."""
    if s2 < 4 or n < s2 + 1:
        raise ValueError(f"(n, s2) = ({n}, {s2}) outside n >= 2s + 1 >= 5")
    first = binom(s2 - 2, 2) + n - 1
    if s2 % 2 == 0:
        s = s2 // 2
        second = binom(s, 2) + s * (n - s)
    else:
        a = (s2 - 3) // 2  # s - 3/2
        b = (2 * n - s2 + 3) // 2  # n - s + 3/2, integral for odd s2
        second = binom(a, 2) + 3 + a * b
    return max(first, second)


def bound_edges_matching(n: int, k: int) -> int:
    """Maximum size with ordinary matching number k, for n >= 2k + 1."""
    if k < 1 or n < 2 * k + 1:
        raise ValueError(f"(n, k) = ({n}, {k}) outside n >= 2k + 1, k >= 1")
    return max(binom(2 * k + 1, 2), k * (2 * n - k - 1) // 2)


def bound_edges_max_degree(n: int, s2: int, d: int) -> int:
    """Maximum size with nu* = s2/2 and maximum degree at most d, for
    1 <= d <= n - 1: a larger cap constrains nothing, but the formula grows.

    The two overlapping branch conditions (d = 2s - 1, and for odd s2 the
    n = d + s - 3/2 boundary) are evaluated on both sides and must agree;
    disagreement would mean the branch arithmetic is wrong.
    """
    if not 1 <= d <= n - 1:
        raise ValueError(f"maximum degree bound d = {d} outside 1..n - 1 = {n - 1}")
    if s2 < 1 or n <= s2:
        raise ValueError(f"(n, s2) = ({n}, {s2}) outside n > 2s >= 1")
    if s2 % 2 == 0:
        s = s2 // 2
        branch_low = d * s  # d <= 2s - 1 side
        if d >= s2 - 1 and n <= d + s:
            val = max(binom(s2, 2), s * (n + d - s) // 2)
            if d == s2 - 1 and val != branch_low:
                raise AssertionError("even-case branches disagree at d = 2s - 1")
            return val
        return branch_low
    a = (s2 - 3) // 2  # s - 3/2
    branch_low = d * s2 // 2  # floor(ds), d <= 2s - 1 side
    if d >= s2 - 1:
        # n <= d + s - 3/2  <=>  2n <= 2d + s2 - 3
        vals = []
        if 2 * n <= 2 * d + s2 - 3:
            half = (2 * (n + d) - s2 + 3) // 2  # n + d - s + 3/2
            vals.append(max(binom(s2, 2), a * half // 2 + 3))
        if 2 * n >= 2 * d + s2 - 3:
            vals.append(max(binom(s2, 2), d * a + 3))
        if len(vals) == 2 and vals[0] != vals[1]:
            raise AssertionError("odd-case branches disagree at n = d + s - 3/2")
        val = vals[0]
        if d == s2 - 1 and val != branch_low:
            raise AssertionError("odd-case branches disagree at d = 2s - 1")
        return val
    return branch_low


def g_motif(p: ExtremalParams, motif: Motif) -> int:
    """Formula count of the motif in G(n, s, t)."""
    if isinstance(motif, Clique):
        return g_clique(p, motif.ell)
    return g_biclique(p, motif.r1, motif.r2)


def bound_motif(n: int, s2: int, delta: int, motif: Motif,
                delta_mode: str = "exact") -> int:
    """Maximum motif count over n-vertex graphs with nu* = s2/2 and minimum
    degree delta (exactly, or at least): max of g_motif over the candidates."""
    return max(g_motif(p, motif)
               for p in extremal_candidates(n, s2, delta, delta_mode))


def bound_motif_scan(n: int, s2: int, delta: int, motif: Motif) -> int:
    """Maximum of the motif formula over every admissible t, not just the
    endpoints; must agree with bound_motif by discrete convexity."""
    t_hi = _check_bound_params(n, s2, delta)
    return max(
        g_motif(ExtremalParams(n, s2, t, delta), motif)
        for t in range(delta, t_hi + 1)
    )


# ---------------------------------------------------------------------------
# discrete convexity: centered second differences F(t+1) + F(t-1) - 2 F(t)

def _sd23(s2: int, ell: int, t: int) -> int:
    if not (t - 1 >= 1 and t + 1 <= s2):
        raise ValueError(f"t = {t} outside 2..{s2 - 1} for s2 = {s2}")
    f = lambda x: binom(s2 - x, ell)
    return f(t + 1) + f(t - 1) - 2 * f(t)


def _sd24(n: int, s2: int, ell: int, t: int) -> int:
    if t - 1 < 1:
        raise ValueError(f"t = {t} must be >= 2")
    f = lambda x: binom(x, ell - 1) * (n + x - s2 - 1)
    return f(t + 1) + f(t - 1) - 2 * f(t)


def _sd27(n: int, s2: int, r1: int, r2: int, t: int) -> int:
    if not (t - 1 >= 1 and 2 * (t + 1) <= s2):
        raise ValueError(f"t = {t} outside 2..s - 1 for s2 = {s2}")
    r = r1 + r2

    def h(x: int) -> int:
        tot = binom(s2 - x, r) * binom(r, r1)
        for rj in (r1, r2):
            tot += binom(x, rj) * (
                binom(n - rj - 1, r - rj) - binom(s2 - x - rj, r - rj)
            )
        return tot

    return h(t + 1) + h(t - 1) - 2 * h(t)


# the default sweep grid of each family; its keys are the family names
DEFAULT_CONVEXITY_GRIDS = {
    "lemma23": {"s2": (4, 12), "ell": (2, 6)},
    "lemma24": {"s2": (4, 12), "n_offset": (1, 6), "ell": (2, 5)},
    "lemma27": {"s2": (4, 12), "n_offset": (1, 6), "r_total": 5},
}
CONVEX_FAMILIES = tuple(DEFAULT_CONVEXITY_GRIDS)


def second_difference(family: str, t: int, *, s2: int, ell: int | None = None,
                      n: int | None = None, r1: int | None = None,
                      r2: int | None = None) -> int:
    """Centered second difference of one of the three convex families.

    ``lemma23`` needs (s2, ell); ``lemma24`` needs (n, s2, ell); ``lemma27``
    needs (n, s2, r1, r2).  The result is nonnegative on the families'
    domains; callers sweep it to certify convexity.
    """
    if family == "lemma23":
        if ell is None:
            raise ValueError("lemma23 needs ell")
        return _sd23(s2, ell, t)
    if family == "lemma24":
        if ell is None or n is None:
            raise ValueError("lemma24 needs n and ell")
        return _sd24(n, s2, ell, t)
    if family == "lemma27":
        if n is None or r1 is None or r2 is None:
            raise ValueError("lemma27 needs n, r1 and r2")
        return _sd27(n, s2, r1, r2, t)
    raise ValueError(f"unknown family {family!r}; expected one of {CONVEX_FAMILIES}")


@dataclass(frozen=True)
class ConvexityReport:
    family: str
    points: int
    min_value: int
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


def verify_convexity(family: str, grid: dict | None = None) -> ConvexityReport:
    """Sweep the centered second difference over the grid; all must be >= 0.
    A grid with no point raises ValueError, since an empty sweep shows nothing."""
    if family not in CONVEX_FAMILIES:
        raise ValueError(f"unknown family {family!r}; expected one of {CONVEX_FAMILIES}")
    grid = grid or DEFAULT_CONVEXITY_GRIDS[family]
    if grid["s2"][0] > grid["s2"][1]:
        raise ValueError(f"empty s2 range {grid['s2'][0]}..{grid['s2'][1]}")
    sweep = []
    for pt in _convexity_points(family, grid):
        t = pt.pop("t")
        sweep.append((second_difference(family, t, **pt), dict(pt, t=t)))
    if not sweep:
        raise ValueError(f"{family} grid {grid} has no points; the sweep certifies nothing")
    min_val, argmin = min(sweep, key=lambda point: point[0])  # the first minimum
    return ConvexityReport(family, len(sweep), min_val, argmin, all_nonnegative=min_val >= 0)
