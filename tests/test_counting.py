"""Clique and biclique counters against the naive enumeration oracle."""

import pytest

from fracmatch.counting import (
    Biclique,
    Clique,
    count_bicliques,
    count_cliques,
    count_motif,
    count_oracle,
    parse_motif,
)
from fracmatch.graphs import (
    Graph,
    all_labeled_graphs,
    complete_graph,
    cycle_graph,
    empty_graph,
    join,
    relabel,
)

from random_graphs import random_graph

MOTIFS = [Clique(2), Clique(3), Clique(4), Clique(5),
          Biclique(1, 1), Biclique(1, 2), Biclique(1, 3),
          Biclique(2, 2), Biclique(2, 3)]


def test_clique_examples():
    assert count_cliques(complete_graph(5), 3) == 10
    assert count_cliques(cycle_graph(5), 3) == 0
    assert count_cliques(complete_graph(4), 4) == 1
    assert count_cliques(empty_graph(5), 2) == 0
    # ell = 1 counts vertices, ell > n counts nothing
    assert count_cliques(cycle_graph(5), 1) == 5
    assert count_cliques(complete_graph(3), 7) == 0


def test_clique_edge_case_matches_edge_count(rng):
    for _ in range(30):
        g = random_graph(rng, rng.randint(1, 10))
        assert count_cliques(g, 2) == g.edge_count()
        assert count_bicliques(g, 1, 1) == g.edge_count()


def test_biclique_examples():
    star = join(complete_graph(1), empty_graph(3))
    assert count_bicliques(star, 1, 2) == 3
    assert count_bicliques(complete_graph(4), 2, 2) == 3
    assert count_oracle(cycle_graph(4), Biclique(1, 2)) == 4
    assert count_oracle(complete_graph(4), Clique(4)) == 1
    assert count_oracle(empty_graph(5), Clique(2)) == 0


def test_motif_normalization_and_parsing():
    assert Biclique(3, 1) == Biclique(1, 3)
    assert parse_motif("clique:4") == Clique(4)
    assert parse_motif("biclique:2,3") == Biclique(2, 3)
    assert str(Biclique(3, 2)) == "biclique:2,3"
    for bad in ("clique:", "clique:x", "biclique:2", "triangle:3", "clique:0"):
        with pytest.raises(ValueError):
            parse_motif(bad)


def test_oracle_guard():
    with pytest.raises(ValueError, match="n <= 12"):
        count_oracle(empty_graph(13), Clique(2))


def test_oracle_equivalence_exhaustive_small():
    # every labeled graph on up to 5 vertices, full motif set
    for n in range(1, 6):
        for g in all_labeled_graphs(n):
            for motif in MOTIFS:
                assert count_motif(g, motif) == count_oracle(g, motif), (
                    to_failure(g, motif))


def test_oracle_equivalence_exhaustive_n6():
    # all 2^15 labeled graphs on 6 vertices; full motif grid
    for g in all_labeled_graphs(6):
        for motif in MOTIFS:
            assert count_motif(g, motif) == count_oracle(g, motif)


def test_oracle_equivalence_random(rng):
    for _ in range(1000):
        g = random_graph(rng, rng.randint(1, 10))
        for motif in MOTIFS:
            assert count_motif(g, motif) == count_oracle(g, motif)


def test_clique_counts_agree_with_networkx(rng):
    import networkx as nx

    for _ in range(40):
        n = rng.randint(2, 9)
        g = random_graph(rng, n)
        ref = nx.Graph()
        ref.add_nodes_from(range(n))
        ref.add_edges_from(g.edges())
        by_size = {}
        for clique in nx.enumerate_all_cliques(ref):
            by_size[len(clique)] = by_size.get(len(clique), 0) + 1
        for ell in range(2, 7):
            assert count_cliques(g, ell) == by_size.get(ell, 0)


def test_relabel_invariance(rng):
    for _ in range(50):
        n = rng.randint(2, 10)
        g = random_graph(rng, n)
        perm = list(range(n))
        rng.shuffle(perm)
        h = relabel(g, perm)
        for motif in (Clique(3), Biclique(1, 2), Biclique(2, 2)):
            assert count_motif(g, motif) == count_motif(h, motif)


def test_monotone_under_edge_addition(rng):
    for _ in range(50):
        n = rng.randint(2, 9)
        g = random_graph(rng, n)
        non_edges = [(u, v) for u in range(n) for v in range(u + 1, n)
                     if not g.has_edge(u, v)]
        if not non_edges:
            continue
        bigger = Graph.from_edges(n, g.edges() + [rng.choice(non_edges)])
        for motif in (Clique(3), Biclique(1, 2)):
            assert count_motif(bigger, motif) >= count_motif(g, motif)


def to_failure(g, motif):
    from fracmatch.graphs import to_graph6

    return f"mismatch on {to_graph6(g)} for {motif}"
