"""Fractional matching number: two routes, certificates, matching number."""

import random
import tracemalloc

import numpy as np
import pytest

from fracmatch.graphs import (
    Graph,
    _bits,
    all_labeled_graphs,
    complete_graph,
    cycle_graph,
    delete_edges,
    disjoint_union,
    empty_graph,
    from_graph6,
    join,
)
from fracmatch.matching import (
    DeficiencyWitness,
    HalfInt,
    fractional_certificate,
    matching_number,
    nu_star_deficiency,
    nu_star_fast,
)

from random_graphs import random_graph


def deficiency_by_gray_walk(g: Graph) -> tuple[HalfInt, DeficiencyWitness]:
    """A Gray-code walk over T with incremental isolated counts, kept as the
    oracle of the bit-lane ``nu_star_deficiency``: same value, same
    witness, the least maximizing T as a bit set."""
    n = g.n
    adj = g.adj
    # out_deg[v] = neighbors of v outside T, maintained for every vertex
    out_deg = [nb.bit_count() for nb in adj]
    t_mask = 0
    iso = sum(1 for v in range(n) if out_deg[v] == 0)

    best = iso  # T = empty set
    best_t = 0
    prev_gray = 0
    for k in range(1, 1 << n):
        gray = k ^ (k >> 1)
        w = (gray ^ prev_gray).bit_length() - 1
        prev_gray = gray
        if gray >> w & 1:  # w enters T
            if out_deg[w] == 0:
                iso -= 1
            t_mask |= 1 << w
            for u in _bits(adj[w]):
                out_deg[u] -= 1
                if out_deg[u] == 0 and not t_mask >> u & 1:
                    iso += 1
        else:  # w leaves T
            t_mask &= ~(1 << w)
            for u in _bits(adj[w]):
                out_deg[u] += 1
                if out_deg[u] == 1 and not t_mask >> u & 1:
                    iso -= 1
            if out_deg[w] == 0:
                iso += 1
        deficiency = iso - t_mask.bit_count()
        if deficiency > best or (deficiency == best and t_mask < best_t):
            best = deficiency
            best_t = t_mask
    witness = tuple(_bits(best_t))
    return HalfInt(n - best), DeficiencyWitness(witness, best + len(witness))


def matching_by_two_branches(g: Graph) -> int:
    """A search that also tries leaving the lowest vertex unmatched, kept as
    the oracle of ``matching_number``, which drops that branch."""
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
        v_bit = avail & -avail
        v = v_bit.bit_length() - 1
        best = rec(avail ^ v_bit)  # leave v unmatched
        for u in _bits(adj[v] & avail):
            best = max(best, 1 + rec(avail ^ v_bit ^ (1 << u)))
        cache[avail] = best
        return best

    return rec((1 << g.n) - 1)


def check_certificate(g: Graph) -> int:
    """Feasibility of the certificate; returns its doubled total."""
    cert = fractional_certificate(g)
    load = [0] * g.n
    for u, v, w in cert.edges:
        assert g.has_edge(u, v)
        assert w in (0, 1, 2)
        load[u] += w
        load[v] += w
    assert all(x <= 2 for x in load)
    assert sum(w for _, _, w in cert.edges) == cert.total_doubled
    return cert.total_doubled


def test_halfint_formatting():
    assert str(HalfInt(4)) == "2"
    assert str(HalfInt(5)) == "5/2"
    assert HalfInt(4).is_integer and not HalfInt(5).is_integer
    with pytest.raises(ValueError):
        HalfInt(-1)


def test_k4_perfect_matching():
    nu, wit = nu_star_deficiency(complete_graph(4))
    assert nu == HalfInt(4)
    assert wit.T == () and wit.deficiency == 0


def test_star_deficiency_witness():
    star = join(complete_graph(1), empty_graph(3))
    nu, wit = nu_star_deficiency(star)
    assert nu == HalfInt(2)
    assert wit.T == (0,) and wit.isolated == 3


def test_c5_half_integral():
    nu, wit = nu_star_deficiency(cycle_graph(5))
    assert nu == HalfInt(5)
    assert wit.deficiency == 0
    assert nu_star_fast(cycle_graph(5)) == HalfInt(5)


def test_k5_odd_clique():
    assert nu_star_fast(complete_graph(5)) == HalfInt(5)


def test_extremal_construction_value():
    # the base construction at (n=7, s2=4, t=1, delta=1) has nu* = 2
    g = join(complete_graph(1), disjoint_union(complete_graph(2), empty_graph(4)))
    assert nu_star_fast(g) == HalfInt(4)
    assert nu_star_deficiency(g)[0] == HalfInt(4)


def test_deficiency_size_guard():
    with pytest.raises(ValueError, match="n <= 24"):
        nu_star_deficiency(empty_graph(25))


def test_witness_is_the_least_maximizing_mask():
    # K_2 + K_2: deficiency 0 at T = {} but also at every singleton;
    # the empty set is the least maximizer
    g = disjoint_union(complete_graph(2), complete_graph(2))
    _, wit = nu_star_deficiency(g)
    assert wit.T == ()
    star = join(complete_graph(1), empty_graph(3))
    two = disjoint_union(star, star)
    _, wit = nu_star_deficiency(two)
    assert wit.T == (0, 4)
    # DI_ (edges 04, 12, 13): deficiency 1 at T = {1} (mask 2) and at
    # T = {0, 1} (mask 3), which comes first as a sorted tuple
    _, wit = nu_star_deficiency(from_graph6("DI_"))
    assert wit.T == (1,) and wit.isolated == 2


def test_oracle_agreement_exhaustive_n4():
    for g in all_labeled_graphs(4):
        assert nu_star_fast(g).doubled == nu_star_deficiency(g)[0].doubled


def test_oracle_agreement_random(rng):
    for _ in range(300):
        g = random_graph(rng, rng.randint(1, 10))
        fast = nu_star_fast(g).doubled
        slow = nu_star_deficiency(g)[0].doubled
        assert fast == slow
        assert check_certificate(g) == fast


def test_certificates():
    assert check_certificate(complete_graph(2)) == 2
    assert check_certificate(cycle_graph(5)) == 5
    assert check_certificate(empty_graph(4)) == 0


def test_monotone_under_edge_addition(rng):
    for _ in range(60):
        n = rng.randint(2, 9)
        g = random_graph(rng, n)
        non_edges = [(u, v) for u in range(n) for v in range(u + 1, n)
                     if not g.has_edge(u, v)]
        if not non_edges:
            continue
        u, v = rng.choice(non_edges)
        bigger = Graph.from_edges(n, g.edges() + [(u, v)])
        assert nu_star_fast(bigger).doubled >= nu_star_fast(g).doubled


def test_matching_number_examples():
    assert matching_number(cycle_graph(5)) == 2
    assert matching_number(join(complete_graph(1), empty_graph(3))) == 1
    assert matching_number(disjoint_union(complete_graph(5), empty_graph(1))) == 2


def test_matching_number_guard():
    with pytest.raises(ValueError, match="n <= 16"):
        matching_number(empty_graph(17))


def test_nu_vs_nu_star_relations(rng):
    # nu <= nu* <= 3 nu / 2 always; integrality of nu* does NOT force
    # nu = nu* (two disjoint triangles: nu = 2 but nu* = 3)
    tt = disjoint_union(complete_graph(3), complete_graph(3))
    assert matching_number(tt) == 2
    assert nu_star_fast(tt) == HalfInt(6)
    for _ in range(100):
        g = random_graph(rng, rng.randint(1, 9))
        nu = matching_number(g)
        nu2 = nu_star_fast(g).doubled
        assert 2 * nu <= nu2 <= 3 * nu


def test_agrees_with_lp_relaxation(rng):
    # third route: solve the fractional matching LP directly
    from scipy.optimize import linprog

    for _ in range(150):
        n = rng.randint(2, 9)
        g = random_graph(rng, n)
        edges = g.edges()
        if not edges:
            continue
        rows = []
        for v in range(n):
            rows.append([1.0 if v in e else 0.0 for e in edges])
        res = linprog(c=[-1.0] * len(edges), A_ub=rows, b_ub=[1.0] * n,
                      bounds=[(0.0, 1.0)] * len(edges), method="highs")
        assert res.status == 0
        assert abs(-2.0 * res.fun - nu_star_fast(g).doubled) < 1e-7


def test_delete_edge_never_increases(rng):
    for _ in range(40):
        g = random_graph(rng, 8)
        if not g.edges():
            continue
        e = rng.choice(g.edges())
        smaller = delete_edges(g, [e])
        assert nu_star_fast(smaller).doubled <= nu_star_fast(g).doubled


class TestSplitTableDeficiency:
    """The bit-lane deficiency scan against the Gray-code walk."""

    def test_equals_gray_walk_exhaustive_n5(self):
        for n in range(1, 6):
            for g in all_labeled_graphs(n):
                assert nu_star_deficiency(g) == deficiency_by_gray_walk(g)

    def test_equals_gray_walk_exhaustive_n6(self):
        for g in all_labeled_graphs(6):
            assert nu_star_deficiency(g) == deficiency_by_gray_walk(g)

    def test_equals_gray_walk_random(self):
        # counts up to 2n, so counters of 2 (n = 1) to 6 (n = 16) slices
        rng = random.Random(10)
        for n in range(1, 17):
            for _ in range(40 if n <= 10 else 4):
                g = random_graph(rng, n)
                assert nu_star_deficiency(g) == deficiency_by_gray_walk(g)

    def test_cached_lanes_equal_a_fresh_build(self):
        from fracmatch import matching

        for n in range(1, 11):
            lanes = matching._vertex_lanes(n)
            assert lanes == matching._vertex_lanes.__wrapped__(n)
            assert isinstance(lanes, tuple) and matching._vertex_lanes(n) is lanes
            assert all((lanes[v] >> s & 1) == (s >> v & 1) for v in range(n) for s in range(1 << n))

    def test_large_lanes_are_not_kept(self):
        from fracmatch import matching

        g = random_graph(random.Random(13), matching._CACHED_LANES + 1)
        kept = matching._vertex_lanes.cache_info().currsize
        assert nu_star_deficiency(g) == deficiency_by_gray_walk(g)
        assert matching._vertex_lanes.cache_info().currsize == kept

    def test_memory_stays_split(self):
        # the 16 lanes of 2^16 bits take 128 KB, and the scan peaks near
        # 230 KB with the counter and temporaries
        g = random_graph(random.Random(16), 16)
        tracemalloc.start()
        try:
            nu_star_deficiency(g)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 256 * 1024


class TestMatchingWithoutSkipBranch:
    def test_equals_two_branch_search_exhaustive_n6(self):
        for n in range(1, 7):
            for g in all_labeled_graphs(n):
                assert matching_number(g) == matching_by_two_branches(g)

    def test_equals_two_branch_search_random(self):
        rng = random.Random(16)
        for n in range(1, 17):
            for _ in range(30):
                g = random_graph(rng, n)
                assert matching_number(g) == matching_by_two_branches(g)


class TestDoubleCoverBeyondTwelve:
    """The double-cover matching at n = 13..64, where neither the exhaustive
    labeled tests nor the spot checks reach, on seeded graphs of three edge
    densities; every graph's certificate is checked too."""

    @staticmethod
    def graphs(n_range, per_density):
        rng = random.Random(13)
        for n in n_range:
            pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
            for p in (0.1, 0.3, 0.6):
                for _ in range(per_density):
                    yield Graph.from_edges(n, [e for e in pairs if rng.random() < p])

    def test_equals_deficiency_n13_to_16(self):
        for g in self.graphs(range(13, 17), 2):
            fast = nu_star_fast(g).doubled
            assert fast == nu_star_deficiency(g)[0].doubled
            assert check_certificate(g) == fast

    def test_equals_lp_relaxation_n17_to_64(self):
        from scipy.optimize import linprog

        for g in self.graphs(range(17, 65), 1):
            edges = g.edges()
            incidence = np.zeros((g.n, len(edges)))
            for j, e in enumerate(edges):
                incidence[list(e), j] = 1.0
            res = linprog(c=-np.ones(len(edges)), A_ub=incidence, b_ub=np.ones(g.n),
                          bounds=(0.0, 1.0), method="highs")
            assert res.status == 0
            fast = nu_star_fast(g).doubled
            assert abs(-2.0 * res.fun - fast) < 1e-7
            assert check_certificate(g) == fast
