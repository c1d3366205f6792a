"""Formula evaluators: binomial conventions, counting formulas, bounds,
second differences, and agreement with brute-force counts."""

import tracemalloc

import pytest

from fracmatch.constructions import build_extremal
from fracmatch.counting import Biclique, Clique, count_bicliques, count_cliques
from fracmatch.formulas import (
    ExtremalParams,
    binom,
    bound_edges_matching,
    bound_edges_max_degree,
    bound_edges_min_degree_one,
    bound_motif,
    bound_motif_scan,
    extremal_candidates,
    feasible_t_max,
    g_biclique,
    g_clique,
    second_difference,
    verify_convexity,
)


class TestBinom:
    def test_conventions(self):
        assert binom(5, 2) == 10
        assert binom(1, 2) == 0
        assert binom(0, 0) == 1
        assert binom(3, -1) == 0
        assert binom(-2, 1) == 0

    def test_pascal_rule_sweep(self):
        for a in range(0, 201):
            for b in range(0, a + 1):
                assert binom(a + 1, b) == binom(a, b) + binom(a, b - 1)

    def test_large_values_exact(self):
        from math import comb

        assert binom(521, 260) == comb(521, 260)
        assert binom(521, 260) > 1 << 127  # counts stay exact at any width


class TestSymbolicParameters:
    def test_formulas_work_far_beyond_graph_sizes(self):
        # construction graphs stop at 64 vertices; the formulas do not
        n = 10 ** 9
        p = ExtremalParams(n, 4, 2, 1)
        assert g_clique(p, 2) == 1 + 2 * (n + 2 - 4 - 1) + 1
        assert g_biclique(ExtremalParams(n, 4, 1, 1), 1, 1) == \
            binom(3, 2) + (n + 1 - 4 - 1) + 1


class TestParams:
    def test_valid(self):
        p = ExtremalParams(7, 4, 2, 1)
        assert p.middle_size == 0 and p.independent_size == 5

    def test_feasible_t(self):
        assert feasible_t_max(4) == 2
        assert feasible_t_max(5) == 1
        assert feasible_t_max(6) == 3
        assert feasible_t_max(7) == 2

    @pytest.mark.parametrize("n,s2,t,delta", [
        (4, 4, 1, 1),   # n too small
        (7, 3, 1, 1),   # s2 too small
        (7, 4, 3, 1),   # t beyond s
        (6, 5, 2, 1),   # t beyond s - 3/2 (odd)
        (7, 4, 2, 3),   # delta beyond t
        (7, 4, 1, 0),   # delta below 1
    ])
    def test_invalid(self, n, s2, t, delta):
        with pytest.raises(ValueError):
            ExtremalParams(n, s2, t, delta)


class TestCountingFormulas:
    def test_clique_formula_spot_values(self):
        assert g_clique(ExtremalParams(7, 4, 1, 1), 2) == 7
        assert g_clique(ExtremalParams(5, 4, 2, 2), 2) == 7
        assert g_clique(ExtremalParams(7, 4, 2, 1), 3) == 4

    def test_biclique_formula_spot_values(self):
        assert g_biclique(ExtremalParams(7, 4, 2, 2), 1, 1) == 11
        assert g_biclique(ExtremalParams(7, 4, 1, 1), 1, 2) == 17
        assert g_biclique(ExtremalParams(7, 4, 2, 1), 1, 2) == 29

    def test_formulas_match_construction_counts(self):
        # quick fidelity pass; the acceptance suite runs the full n <= 12 grid
        for n in range(5, 10):
            for s2 in range(4, n):
                for t in range(1, feasible_t_max(s2) + 1):
                    for delta in range(1, t + 1):
                        p = ExtremalParams(n, s2, t, delta)
                        g = build_extremal(p)
                        for ell in range(2, 6):
                            assert g_clique(p, ell) == count_cliques(g, ell)
                        for r1, r2 in ((1, 1), (1, 2), (2, 2)):
                            assert g_biclique(p, r1, r2) == count_bicliques(g, r1, r2)


class TestBounds:
    def test_clique_bounds(self):
        assert bound_motif(7, 4, 1, Clique(2)) == 10
        assert bound_motif(6, 5, 1, Clique(2)) == 8
        assert bound_motif(7, 4, 2, Clique(3)) == 5

    def test_biclique_bounds(self):
        assert bound_motif(7, 4, 1, Biclique(1, 2)) == 29
        assert bound_motif(6, 5, 1, Biclique(1, 1)) == 8
        # edge motif coincides with the clique bound at ell = 2
        for n in range(5, 12):
            for s2 in range(4, n):
                for delta in range(1, feasible_t_max(s2) + 1):
                    assert bound_motif(n, s2, delta, Biclique(1, 1)) == \
                        bound_motif(n, s2, delta, Clique(2))

    def test_min_degree_one_bound(self):
        assert bound_edges_min_degree_one(7, 4) == 11
        assert bound_edges_min_degree_one(6, 5) == 8
        assert bound_edges_min_degree_one(5, 4) == 7

    def test_exact_vs_at_least_delta_distinction(self):
        # with minimum degree exactly 1 the best 7-vertex graph with
        # nu* = 2 has 10 edges; allowing larger minimum degree reaches 11
        assert bound_motif(7, 4, 1, Clique(2)) == 10
        assert bound_motif(7, 4, 1, Clique(2), "at-least") == 11
        assert bound_edges_min_degree_one(7, 4) == 11

    def test_reduction_to_min_degree_one(self):
        for n in range(5, 31):
            for s2 in range(4, min(n, 13)):
                assert bound_motif(n, s2, 1, Clique(2), "at-least") == \
                    bound_edges_min_degree_one(n, s2)

    def test_matching_bound(self):
        assert bound_edges_matching(7, 2) == 11
        assert bound_edges_matching(5, 2) == 10
        assert bound_edges_matching(9, 1) == 8
        with pytest.raises(ValueError):
            bound_edges_matching(4, 2)

    def test_max_degree_bound(self):
        assert bound_edges_max_degree(5, 4, 3) == 6
        assert bound_edges_max_degree(7, 4, 4) == 8
        assert bound_edges_max_degree(6, 5, 4) == 10
        with pytest.raises(ValueError):
            bound_edges_max_degree(5, 5, 3)  # needs n > 2s

    def test_max_degree_cap_stops_at_n_minus_one(self):
        # a cap d = n - 1 admits every graph; beyond it the formula would
        # keep growing past the true maximum
        assert bound_edges_max_degree(6, 4, 5) == 9
        for n, s2, d in ((6, 4, 6), (6, 4, 7), (7, 5, 8), (5, 4, 0)):
            with pytest.raises(ValueError, match="d = "):
                bound_edges_max_degree(n, s2, d)

    def test_max_degree_branch_boundaries(self):
        # overlapping branch conditions must agree where they meet
        for s2 in range(4, 13):
            d = s2 - 1
            for n in range(s2 + 1, s2 + 8):
                bound_edges_max_degree(n, s2, d)
        for s2 in range(5, 13, 2):
            for d in range(s2 - 1, s2 + 6):
                n2 = 2 * d + s2 - 3
                if n2 % 2 == 0 and n2 // 2 >= s2 + 1:
                    bound_edges_max_degree(n2 // 2, s2, d)

    def test_bounds_reject_out_of_hypothesis(self):
        with pytest.raises(ValueError):
            bound_motif(7, 4, 3, Clique(2))  # delta beyond feasible cap
        with pytest.raises(ValueError):
            bound_motif(6, 5, 2, Clique(2))  # odd s2 cap is 1
        with pytest.raises(ValueError):
            bound_motif(4, 4, 1, Clique(2))  # n too small
        with pytest.raises(ValueError):
            bound_motif(7, 4, 0, Biclique(1, 2), "at-least")


class TestExtremalCandidates:
    def test_spot_value(self):
        got = [(p.delta, p.t) for p in extremal_candidates(9, 6, 1, "at-least")]
        assert got == [(1, 1), (1, 3), (2, 2), (2, 3), (3, 3)]

    def test_delta_then_t_order(self):
        # exact: t = delta, then t = t_max; at least: the same pair for each
        # delta' = delta..t_max in turn, a pair collapsing when delta' = t_max
        for n in range(5, 13):
            for s2 in range(4, n):
                t_hi = feasible_t_max(s2)
                for delta in range(1, t_hi + 1):
                    pairs = {d: [(d, d)] + ([(d, t_hi)] if d < t_hi else [])
                             for d in range(delta, t_hi + 1)}
                    at_least = [pair for d in range(delta, t_hi + 1) for pair in pairs[d]]
                    for mode, expected in (("exact", pairs[delta]), ("at-least", at_least)):
                        got = extremal_candidates(n, s2, delta, mode)
                        assert [(p.delta, p.t) for p in got] == expected
                        assert all((p.n, p.s2) == (n, s2) for p in got)

    def test_rejects_bad_mode(self):
        with pytest.raises(ValueError):
            extremal_candidates(7, 4, 1, "at-most")


class TestEndpointMaximum:
    def test_scan_equals_endpoint_max(self):
        for n in range(5, 13):
            for s2 in range(4, min(n, 13)):
                for delta in range(1, feasible_t_max(s2) + 1):
                    for motif in (Clique(2), Clique(3), Clique(5),
                                  Biclique(1, 2), Biclique(2, 2)):
                        assert bound_motif(n, s2, delta, motif) == \
                            bound_motif_scan(n, s2, delta, motif)


class TestSecondDifferences:
    def test_spot_values(self):
        # direct binomial evaluation of F(t+1) + F(t-1) - 2F(t)
        assert second_difference("lemma23", 3, s2=8, ell=3) == 4
        assert second_difference("lemma23", 2, s2=8, ell=3) == 5
        assert second_difference("lemma24", 2, s2=6, ell=3, n=10) == 8
        assert second_difference("lemma27", 2, s2=6, n=8, r1=1, r2=2) == 18

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            second_difference("lemma23", 1, s2=8, ell=3)
        with pytest.raises(ValueError):
            second_difference("lemma23", 8, s2=8, ell=3)
        with pytest.raises(ValueError):
            second_difference("lemma27", 4, s2=8, n=10, r1=1, r2=2)
        with pytest.raises(ValueError):
            second_difference("lemma25", 2, s2=8, ell=3)
        with pytest.raises(ValueError):
            second_difference("lemma24", 2, s2=6)  # missing n
        with pytest.raises(ValueError):
            second_difference("lemma24", 7, s2=6, ell=3, n=10)  # t = s2 + 1

    def test_sweep_rejects_an_unknown_family(self):
        for s2_range in ((), (4, 5)):
            with pytest.raises(ValueError, match="unknown family"):
                verify_convexity("lemma25", *s2_range)

    @pytest.mark.parametrize("family,points,minimum,argmin", [
        ("lemma23", 270, 0, {"s2": 4, "ell": 3, "t": 3}),
        ("lemma24", 1512, 0, {"n": 5, "s2": 4, "ell": 5, "t": 2}),
        ("lemma27", 576, 4, {"n": 7, "s2": 6, "r1": 1, "r2": 4, "t": 2}),
    ])
    def test_default_sweeps_keep_their_points(self, family, points, minimum, argmin):
        # the sweep points are constants of each family's row: a sweep that
        # shrinks changes its point count or its first minimum
        report = verify_convexity(family)
        assert report == verify_convexity(family, 4, 12)
        assert (report.points, report.min_second_difference) == (points, minimum)
        assert report.argmin == argmin and report.all_nonnegative

    def test_matches_direct_evaluation(self):
        # each family's term written out here, not imported from formulas
        def sd(f, t):
            return f(t + 1) + f(t - 1) - 2 * f(t)

        for s2 in range(4, 11):
            for ell in range(2, 6):
                for t in range(2, s2):
                    assert second_difference("lemma23", t, s2=s2, ell=ell) == \
                        sd(lambda x: binom(s2 - x, ell), t)
            for n in range(s2 + 1, s2 + 7):
                for ell in range(2, 6):
                    for t in range(2, s2 + 1):
                        assert second_difference("lemma24", t, s2=s2, ell=ell, n=n) == \
                            sd(lambda x: binom(x, ell - 1) * (n + x - s2 - 1), t)
                for r1, r2 in ((1, 1), (1, 2), (1, 3), (1, 4), (2, 2), (2, 3)):
                    r = r1 + r2

                    def body(x):
                        return binom(s2 - x, r) * binom(r, r1) + sum(
                            binom(x, rj) * (binom(n - rj - 1, r - rj)
                                            - binom(s2 - x - rj, r - rj))
                            for rj in (r1, r2))

                    for t in range(2, s2 // 2):
                        assert second_difference("lemma27", t, s2=s2, n=n,
                                                 r1=r1, r2=r2) == sd(body, t)

    def test_sweep_memory_does_not_grow_with_the_grid(self):
        tracemalloc.start()
        try:
            report = verify_convexity("lemma24", 4, 80)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.points == 75_768 and report.all_nonnegative
        assert peak < 1 << 20
