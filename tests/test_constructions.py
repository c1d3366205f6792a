"""Extremal construction and deletion-family builders."""

import itertools

import pytest

from fracmatch.constructions import (
    build_extremal,
    build_family_member,
    describe_extremal,
    family_max_count,
    family_max_count_literal,
    family_splits,
)
from fracmatch.counting import Biclique, Clique, count_bicliques, count_cliques
from fracmatch.formulas import ExtremalParams, feasible_t_max, g_biclique, g_clique
from fracmatch.graphs import degree_stats, to_graph6
from fracmatch.matching import nu_star_deficiency, nu_star_fast


def test_build_examples():
    g = build_extremal(ExtremalParams(5, 4, 2, 1))
    assert g.edge_count() == 6
    assert degree_stats(g)[0] == 1
    assert nu_star_deficiency(g)[0].doubled == 4

    g = build_extremal(ExtremalParams(6, 5, 1, 1))
    assert g.edge_count() == 8
    nu, wit = nu_star_deficiency(g)
    assert nu.doubled == 5 and wit.T == (0,)

    g = build_extremal(ExtremalParams(7, 4, 2, 2))
    assert g.edge_count() == 11  # t = delta, nothing deleted


def test_canonical_labeling_is_stable():
    # frozen golden encodings guard against accidental relabeling
    assert to_graph6(build_extremal(ExtremalParams(7, 4, 2, 1))) == "F}rA?"
    assert to_graph6(build_extremal(ExtremalParams(5, 4, 2, 1))) == "D}O"
    assert to_graph6(build_extremal(ExtremalParams(6, 5, 1, 1))) == "E~a?"
    assert to_graph6(build_extremal(ExtremalParams(8, 6, 2, 1))) == "G~rEA?"


def test_family_labeling_is_stable():
    # which of v's edges the deletion rule cuts, frozen like G(n, s, t) above
    frozen = {
        ("F1", (8, 6, 2, 1)): {(0, 1, 0): "GfrEE?", (1, 0, 0): "GmrEE?"},
        ("F1", (9, 6, 2, 2)): {(1, 1, 0): "HnrEEB?", (2, 0, 0): "H}rEEB?"},
        ("F2", (7, 4, 2, 1)): {(0, 0, 1): "FIPE?", (1, 0, 0): "FiPA?"},
        ("F2", (8, 5, 1, 1)): {(0, 0, 1): "GJ??C?", (0, 1, 0): "GN????"},
    }
    for (family, params), codes in frozen.items():
        p = ExtremalParams(*params)
        for split, code in codes.items():
            assert to_graph6(build_family_member(family, p, split)) == code


def test_extremal_graph_is_the_g_family_member():
    for n in range(5, 10):
        for s2 in range(4, n):
            for t in range(1, feasible_t_max(s2) + 1):
                for delta in range(1, t + 1):
                    p = ExtremalParams(n, s2, t, delta)
                    assert family_splits("G", p) == [(delta, 0, 0)]
                    assert build_family_member("G", p, (delta, 0, 0)) == build_extremal(p)
                    for motif in (Clique(3), Biclique(1, 2)):
                        assert family_max_count("G", p, motif) == g_motif_value(p, motif) \
                            == family_max_count_literal("G", p, motif)


def test_describe_matches_parts():
    d = describe_extremal(ExtremalParams(8, 6, 2, 1))
    assert d["clique_part"] == [0, 1]
    assert d["middle_clique"] == [2, 3]
    assert d["independent_part"] == [4, 5, 6, 7]
    assert d["u"] == 7
    assert d["deleted_edges"] == [[0, 7]]


def test_construction_fidelity_grid():
    # n(G), delta(G), Delta(G), nu*(G) and both formula counts
    for n in range(5, 13):
        for s2 in range(4, n):
            for t in range(1, feasible_t_max(s2) + 1):
                for delta in range(1, t + 1):
                    p = ExtremalParams(n, s2, t, delta)
                    g = build_extremal(p)
                    lo, hi, _ = degree_stats(g)
                    assert g.n == n
                    assert lo == delta
                    assert hi == n - 1
                    assert nu_star_fast(g).doubled == s2
                    assert count_cliques(g, 3) == g_clique(p, 3)
                    assert count_bicliques(g, 1, 2) == g_biclique(p, 1, 2)


def test_family_member_degree():
    p = ExtremalParams(7, 4, 1, 1)
    m = build_family_member("F1", p, (1, 0, 0))
    assert m.edge_count() == 6
    assert m.degree(p.t) == 1  # v keeps one neighbor

    p = ExtremalParams(7, 4, 2, 1)
    m = build_family_member("F2", p, (1, 0, 0))
    assert m.edge_count() == 6
    assert m.degree(0) == 1

    p = ExtremalParams(8, 6, 2, 1)
    m = build_family_member("F1", p, (0, 1, 0))
    assert m.degree(2) == 1


def test_family_spec_validation():
    p = ExtremalParams(7, 4, 1, 1)
    with pytest.raises(ValueError):
        build_family_member("F1", p, (0, 0, 1))  # independent-part neighbor for F1
    with pytest.raises(ValueError):
        build_family_member("F1", p, (1, 1, 0))  # wrong sum
    with pytest.raises(ValueError):
        build_family_member("F3", p, (1, 0, 0))
    # F1 with empty middle clique (t = s) must refuse
    with pytest.raises(ValueError):
        build_family_member("F1", ExtremalParams(7, 4, 2, 1), (1, 0, 0))
    with pytest.raises(ValueError):
        list(family_splits("F1", ExtremalParams(7, 4, 2, 1)))


def test_family_max_examples():
    assert family_max_count("F1", ExtremalParams(7, 4, 1, 1), Clique(2)) == 6
    assert family_max_count("F2", ExtremalParams(7, 4, 2, 1), Clique(2)) == 6
    assert family_max_count("F2", ExtremalParams(7, 4, 2, 1), Biclique(1, 2)) == 15


def test_split_enumeration_matches_literal_subsets():
    cases = [
        ("F2", ExtremalParams(7, 4, 2, 1)),
        ("F2", ExtremalParams(7, 4, 2, 2)),
        ("F1", ExtremalParams(7, 4, 1, 1)),
        ("F1", ExtremalParams(8, 6, 2, 1)),
        ("F1", ExtremalParams(9, 6, 2, 2)),
        ("F2", ExtremalParams(8, 5, 1, 1)),
    ]
    motifs = [Clique(2), Clique(3), Clique(4), Biclique(1, 2), Biclique(2, 2),
              Biclique(1, 3)]
    for family, p in cases:
        for motif in motifs:
            assert family_max_count(family, p, motif) == \
                family_max_count_literal(family, p, motif)


def test_split_symmetry_within_parts():
    # all literal deletion sets realizing the same retained split must give
    # the same motif count (the symmetry the split enumeration relies on)
    from fracmatch.constructions import _base_join
    from fracmatch.counting import count_motif
    from fracmatch.graphs import delete_edges

    for family, p in (("F2", ExtremalParams(7, 4, 2, 1)),
                      ("F1", ExtremalParams(9, 6, 2, 2))):
        base = _base_join(p)
        v = p.t if family == "F1" else 0
        mid_lo, mid_hi = p.t, p.t + p.middle_size
        neighbors = [w for w in range(p.n) if base.has_edge(v, w)]
        by_split = {}
        for keep in itertools.combinations(neighbors, p.delta):
            removed = [(v, w) for w in neighbors if w not in keep]
            member = delete_edges(base, removed)
            split = (sum(1 for w in keep if w < p.t),
                     sum(1 for w in keep if mid_lo <= w < mid_hi),
                     sum(1 for w in keep if w >= mid_hi))
            for motif in (Clique(3), Biclique(1, 2)):
                by_split.setdefault((split, str(motif)), set()).add(
                    count_motif(member, motif))
        for counts in by_split.values():
            assert len(counts) == 1


def test_dominance_samples():
    # formula count of the construction dominates both families
    for n in range(5, 11):
        for s2 in range(4, min(n, 9)):
            for t in range(1, feasible_t_max(s2) + 1):
                for delta in range(1, t + 1):
                    p = ExtremalParams(n, s2, t, delta)
                    for motif in (Clique(2), Clique(3), Biclique(1, 2)):
                        if 2 * (t + 1) <= s2:  # F1 needs t <= s - 1
                            assert g_motif_value(p, motif) >= \
                                family_max_count("F1", p, motif)
                        assert g_motif_value(p, motif) >= \
                            family_max_count("F2", p, motif)


def g_motif_value(p, motif):
    from fracmatch.formulas import g_motif

    return g_motif(p, motif)


def test_splits_cover_all_deletion_patterns():
    p = ExtremalParams(9, 6, 2, 2)
    splits = list(family_splits("F2", p))
    assert len(splits) == len(set(splits))
    for a, b, c in splits:
        assert a + b + c == p.delta
    # every literal deletion set realizes one of the enumerated splits
    assert (1, 1, 0) in splits and (0, 0, 2) in splits
