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
sweeps the second differences behind that convexity over an s2 range, in
constant memory and only where n >= 2s + 1 >= 5: the ``lemma23``,
``lemma24`` and ``lemma27`` families of ``CONVEX_FAMILIES`` are the t-terms
of ``g_clique``/``g_biclique`` themselves, and each family's row fixes the
points its sweep visits at one s2.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
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


def check_order(n: int, s2: int) -> None:
    """The standing hypothesis n >= 2s + 1 >= 5 of the nu* theorems."""
    if s2 < 4 or n < s2 + 1:
        raise ValueError(f"(n, s2) = ({n}, {s2}) outside n >= 2s + 1 >= 5")


@dataclass(frozen=True)
class ExtremalParams:
    """Parameters (n, s = s2/2, t, delta) of the construction G(n, s, t)."""

    n: int
    s2: int
    t: int
    delta: int

    def __post_init__(self) -> None:
        check_order(self.n, self.s2)
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


def _clique_core(t: int, s2: int, ell: int) -> int:
    """C(2s - t, l), the lemma23 family."""
    return binom(s2 - t, ell)


def _clique_pendant(t: int, n: int, s2: int, ell: int) -> int:
    """C(t, l - 1)(n + t - 2s - 1), the lemma24 family."""
    return binom(t, ell - 1) * (n + t - s2 - 1)


def _biclique_body(t: int, n: int, s2: int, r1: int, r2: int) -> int:
    """g_biclique's ordered total without its delta terms, the lemma27 family."""
    r = r1 + r2
    total = binom(s2 - t, r) * binom(r, r1)
    for rj in (r1, r2):
        total += binom(t, rj) * (binom(n - rj - 1, r - rj) - binom(s2 - t - rj, r - rj))
    return total


def g_clique(p: ExtremalParams, ell: int) -> int:
    """Exact K_ell count of G(n, s, t):
    C(2s-t, l) + C(t, l-1)(n+t-2s-1) + C(delta, l-1)."""
    if ell < 2:
        raise ValueError("clique order must be >= 2")
    return (_clique_core(p.t, p.s2, ell) + _clique_pendant(p.t, p.n, p.s2, ell)
            + binom(p.delta, ell - 1))


def g_biclique(p: ExtremalParams, r1: int, r2: int) -> int:
    """Exact K_{r1,r2} count of G(n, s, t), with the symmetry constant
    c = 2 when r1 = r2 dividing the ordered total exactly."""
    if r1 < 1 or r2 < 1:
        raise ValueError("biclique part sizes must be >= 1")
    r = r1 + r2
    c = 2 if r1 == r2 else 1
    total = _biclique_body(p.t, p.n, p.s2, r1, r2)
    for rj in (r1, r2):
        total += binom(p.delta, rj) * binom(p.n - rj - 1, r - rj - 1)
    q, rem = divmod(total, c)
    if rem:
        raise AssertionError(f"odd symmetric total {total} for {p}, ({r1},{r2})")
    return q


def _check_bound_params(n: int, s2: int, delta: int) -> int:
    """Shared hypothesis check; returns the top candidate t."""
    check_order(n, s2)
    t_hi = feasible_t_max(s2)
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
    check_order(n, s2)
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

# family -> (its t-term F of the count, the parameters F reads after t, its t
# range at s2: the t a sweep visits and the domain of second_difference, the
# points a sweep visits at s2: values of those parameters, each with n >= s2 + 1)
_FAMILIES = {
    "lemma23": (_clique_core, ("s2", "ell"), lambda s2: range(2, s2),
                lambda s2: [(s2, ell) for ell in range(2, 7)]),
    "lemma24": (_clique_pendant, ("n", "s2", "ell"), lambda s2: range(2, s2 + 1),
                lambda s2: [(n, s2, ell) for n in range(s2 + 1, s2 + 7) for ell in range(2, 6)]),
    "lemma27": (_biclique_body, ("n", "s2", "r1", "r2"), lambda s2: range(2, s2 // 2),
                lambda s2: [(n, s2, r1, r2) for n in range(s2 + 1, s2 + 7)
                            for r1 in range(1, 3) for r2 in range(r1, 6 - r1)]),
}
CONVEX_FAMILIES = tuple(_FAMILIES)


def _second_differences(term, args, ts: range):
    """F(t + 1) + F(t - 1) - 2 F(t) for each t of ts; F = term(., *args) runs once per t."""
    prev, cur = term(ts.start - 1, *args), term(ts.start, *args)
    for t in ts:
        nxt = term(t + 1, *args)
        yield nxt + prev - 2 * cur
        prev, cur = cur, nxt


def _family(family: str):
    if family not in _FAMILIES:
        raise ValueError(f"unknown family {family!r}; expected one of {CONVEX_FAMILIES}")
    return _FAMILIES[family]


def second_difference(family: str, t: int, **params: int) -> int:
    """Centered second difference of one of the three convex families.

    ``lemma23`` needs (s2, ell); ``lemma24`` needs (n, s2, ell); ``lemma27``
    needs (n, s2, r1, r2).  The result is nonnegative on the families'
    domains; callers sweep it to certify convexity.
    """
    term, names, t_range, _ = _family(family)
    if any(params.get(name) is None for name in names):
        raise ValueError(f"{family} needs {', '.join(names)}")
    ts = t_range(params["s2"])
    if t not in ts:
        raise ValueError(f"t = {t} outside {ts.start}..{ts.stop - 1} for s2 = {params['s2']}")
    return next(_second_differences(term, [params[name] for name in names], range(t, t + 1)))


@dataclass(frozen=True)
class ConvexityReport:
    family: str
    points: int
    min_second_difference: int
    argmin: dict = field(hash=False)
    all_nonnegative: bool = True

    def to_json_dict(self) -> dict:
        return asdict(self)


def verify_convexity(family: str, s2_min: int = 4, s2_max: int = 12) -> ConvexityReport:
    """Sweep the centered second difference over the family's points at
    every s2 of s2_min..s2_max, keeping only the point count and the first
    minimum; all must be >= 0.  A point outside n >= 2s + 1 >= 5 raises
    ValueError, and so does a range with no point."""
    term, names, t_range, sweep = _family(family)
    if s2_min > s2_max:
        raise ValueError(f"empty s2 range {s2_min}..{s2_max}")
    points, best = 0, None
    for s2 in range(s2_min, s2_max + 1):
        ts = t_range(s2)
        if ts:  # every point's n is at least s2 + 1, the least order the hypothesis needs
            check_order(s2 + 1, s2)
        for pt in sweep(s2):
            for t, value in zip(ts, _second_differences(term, pt, ts)):
                points += 1
                if best is None or value < best[0]:
                    best = value, dict(zip(names, pt), t=t)
    if best is None:
        raise ValueError(f"{family} sweep of s2 {s2_min}..{s2_max} has no points; "
                         "the sweep certifies nothing")
    return ConvexityReport(family, points, *best, all_nonnegative=best[0] >= 0)
