"""Canonical forms and the non-isomorphic corpus generator."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fracmatch.corpus import (
    KNOWN_CLASS_COUNTS,
    canonical_graph6,
    nonisomorphic_graphs,
    read_graph6_stream,
    write_corpus,
)
from fracmatch.graphs import Graph, Graph6Error, are_isomorphic, from_graph6, relabel

from random_graphs import random_graph


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_canonical_form_is_relabel_invariant(data):
    n = data.draw(st.integers(1, 7))
    mask = data.draw(st.integers(0, (1 << (n * (n - 1) // 2)) - 1))
    perm = data.draw(st.permutations(range(n)))
    g = Graph.from_edge_mask(n, mask)
    assert canonical_graph6(g) == canonical_graph6(relabel(g, list(perm)))


def test_canonical_form_decodes_to_isomorphic_graph(rng):
    for _ in range(60):
        g = random_graph(rng, rng.randint(1, 8))
        cg = from_graph6(canonical_graph6(g))
        assert are_isomorphic(g, cg)


def test_canonical_separates_same_degree_sequence():
    c6 = Graph.from_edges(6, [(i, (i + 1) % 6) for i in range(6)])
    two_triangles = Graph.from_edges(6, [(0, 1), (1, 2), (0, 2),
                                         (3, 4), (4, 5), (3, 5)])
    assert canonical_graph6(c6) != canonical_graph6(two_triangles)


def test_class_counts_up_to_seven():
    for n in range(1, 8):
        assert len(nonisomorphic_graphs(n)) == KNOWN_CLASS_COUNTS[n]


def _automorphism_count(g: Graph) -> int:
    hits = 0
    for perm in itertools.permutations(range(g.n)):
        if relabel(g, list(perm)) == g:
            hits += 1
    return hits


def test_orbit_counting_identity():
    # sum over classes of n!/|Aut| must recover the labeled-graph count;
    # this pins both completeness and distinctness of the generator output
    import math

    for n in range(1, 7):
        total = 0
        for line in nonisomorphic_graphs(n):
            g = from_graph6(line)
            total += math.factorial(n) // _automorphism_count(g)
        assert total == 1 << (n * (n - 1) // 2)


def test_corpus_file_roundtrip(tmp_path):
    path = tmp_path / "graphs5.g6"
    count = write_corpus(path, 5)
    assert count == 34
    seen = [g for _, g in read_graph6_stream(path)]
    assert len(seen) == 34
    assert all(g.n == 5 for g in seen)


def test_stream_tolerates_header_and_reports_line_numbers(tmp_path):
    path = tmp_path / "mixed.g6"
    path.write_text(">>graph6<<Bw\n\nBo\n!!bad\n")
    graphs = []
    with pytest.raises(Graph6Error, match="line 4"):
        for _, g in read_graph6_stream(path):
            graphs.append(g)
    assert len(graphs) == 2


def test_shipped_corpus_is_canonical_and_complete(corpus8):
    lines = [ln.strip() for ln in open(corpus8) if ln.strip()]
    assert len(lines) == KNOWN_CLASS_COUNTS[8]
    assert len(set(lines)) == len(lines)
    # spot-check canonicity on a deterministic sample; the acceptance suite
    # re-canonicalizes the whole file
    for line in lines[::500]:
        g = from_graph6(line)
        assert canonical_graph6(g) == line
