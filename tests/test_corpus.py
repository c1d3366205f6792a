"""Canonical forms and the non-isomorphic corpus generator."""

import collections
import gc
import hashlib
import itertools
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fracmatch import corpus
from fracmatch.corpus import (
    KNOWN_CLASS_COUNTS,
    _canonical_search,
    _orbit_representatives,
    canonical_graph6,
    canonical_mask,
    nonisomorphic_graphs,
    read_graph6_stream,
    write_corpus,
)
from fracmatch.graphs import (
    Graph,
    Graph6Error,
    _refine_colors,
    all_labeled_graphs,
    are_isomorphic,
    cycle_graph,
    from_graph6,
    relabel,
    to_graph6,
)

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


def _brute_canonical_mask(g: Graph) -> int:
    """Minimum bitstring over every ordering that lists the refined cells
    in color order, each cell in any order; bit p of the mask is b_p."""
    colors = _refine_colors(g)
    cells = [[v for v in range(g.n) if colors[v] == c] for c in sorted(set(colors))]
    pairs = [(i, j) for j in range(g.n) for i in range(j)]
    best = min(
        "".join("1" if g.has_edge(order[i], order[j]) else "0" for i, j in pairs)
        for order in (sum(perms, ()) for perms in
                      itertools.product(*(itertools.permutations(c) for c in cells)))
    )
    return int(best[::-1] or "0", 2)


def test_canonical_mask_equals_brute_force_small():
    for n in range(1, 6):
        for g in all_labeled_graphs(n):
            assert canonical_mask(g) == _brute_canonical_mask(g)
    for n in range(3, 8):  # a single cell: every ordering is searched
        assert canonical_mask(cycle_graph(n)) == _brute_canonical_mask(cycle_graph(n))


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_canonical_mask_equals_brute_force_sampled(data):
    n = data.draw(st.integers(6, 7))
    mask = data.draw(st.integers(0, (1 << (n * (n - 1) // 2)) - 1))
    g = Graph.from_edge_mask(n, mask)
    assert canonical_mask(g) == _brute_canonical_mask(g)


# SHA-256 of the n = 7 corpus file (perfbench's corpus7_sha256)
CORPUS7_SHA256 = "ad530e8b8c46fd74efe41d701d5ee6cef01b846a4e6d662ead3cfa7d9a0d2b7f"


def test_class_counts_up_to_seven():
    for n in range(1, 8):
        lines = nonisomorphic_graphs(n)
        assert len(lines) == KNOWN_CLASS_COUNTS[n]
    text = "\n".join(lines) + "\n"  # the n = 7 file, as write_corpus writes it
    assert hashlib.sha256(text.encode()).hexdigest() == CORPUS7_SHA256


def _automorphisms(g: Graph) -> list[tuple[int, ...]]:
    return [perm for perm in itertools.permutations(range(g.n)) if relabel(g, list(perm)) == g]


def _automorphism_count(g: Graph) -> int:
    return len(_automorphisms(g))


def test_orbit_counting_identity():
    # sum over classes of n!/|Aut| must recover the labeled-graph count;
    # this pins both completeness and distinctness of the generator output.
    # The canonical search's optimal leaves number |Aut| on every class.
    import math

    for n in range(1, 7):
        total = 0
        for line in nonisomorphic_graphs(n):
            g = from_graph6(line)
            aut = _automorphism_count(g)
            assert len(_canonical_search(g)[1]) == aut, line
            total += math.factorial(n) // aut
        assert total == 1 << (n * (n - 1) // 2)


def test_one_search_per_orbit(monkeypatch):
    # by Burnside, the Aut(H)-orbits on the neighbourhoods of each class H
    # at level k - 1 number 2, 6, 20, 90, 544 and 5,096 for k = 2..7,
    # against 2, 8, 32, 176, 1,088 and 9,984 one-vertex extensions; the
    # maximum-degree pre-test leaves 2, 4, 11, 37, 184 and 1,401 of them to
    # search, and the canonical-parent test accepts one per class
    visited = collections.Counter({2: 2})  # the seed: both neighbourhoods of K1
    searches = collections.Counter()
    accepted = collections.Counter()
    search, orbits = corpus._canonical_search, corpus._orbit_representatives

    def counted_orbits(leaves):
        # called once per accepted extension below level n
        reps = orbits(leaves)
        accepted[len(leaves[0])] += 1
        visited[len(leaves[0]) + 1] += reps.bit_count()
        return reps

    monkeypatch.setattr(corpus, "_canonical_search",
                        lambda g: searches.update([g.n]) or search(g))
    monkeypatch.setattr(corpus, "_orbit_representatives", counted_orbits)
    accepted[7] = len(nonisomorphic_graphs(7))  # level n gets no representatives
    levels = range(2, 8)
    assert [visited[k] for k in levels] == [2, 6, 20, 90, 544, 5096]
    assert [searches[k] for k in levels] == [2, 4, 11, 37, 184, 1401]
    assert sum(searches.values()) == 1639
    assert [accepted[k] for k in levels] == [KNOWN_CLASS_COUNTS[k] for k in levels]


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_last_position_has_maximum_degree(data):
    # the canonical-parent test accepts v only as a leaf's last vertex, which
    # has maximum degree: the generator's degree pre-test rejects no
    # extension that the search would accept
    n = data.draw(st.integers(1, 7))
    g = Graph.from_edge_mask(n, data.draw(st.integers(0, (1 << (n * (n - 1) // 2)) - 1)))
    top = max(g.degree(v) for v in range(n))
    assert all(g.degree(leaf[-1]) == top for leaf in _canonical_search(g)[1])


def _deduplicated_graphs(n: int) -> list[str]:
    """The generator without the canonical-parent test: search every orbit
    representative and keep the first extension of each canonical mask."""
    level = {0: 0b11}
    for k in range(2, n + 1):
        base = (k - 1) * (k - 2) // 2
        found: dict[int, int] = {}
        for h, reps in level.items():
            for x in range(1 << (k - 1)):
                if reps >> x & 1:
                    c, leaves = _canonical_search(Graph.from_edge_mask(k, h | x << base))
                    if c not in found:
                        found[c] = _orbit_representatives(leaves) if k < n else 0
        level = found
    return sorted(to_graph6(Graph.from_edge_mask(n, h)) for h in level)


def test_canonical_parent_equals_deduplication():
    for n in range(1, 8):
        assert nonisomorphic_graphs(n) == _deduplicated_graphs(n), n


def test_generates_the_shipped_corpus():
    # data/graphs8.g6 itself, not the corpus directory a run may point elsewhere
    shipped = Path(__file__).resolve().parents[1] / "data" / "graphs8.g6"
    assert nonisomorphic_graphs(8) == shipped.read_text().split()


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_orbit_representatives_give_every_extension(data):
    # the leaves of a search of any graph H in a class give the orbits of
    # Aut(C), C its canonical form: X is a representative exactly when it is
    # the least member of its orbit, and C + X has the canonical form of C
    # plus that representative
    m = data.draw(st.integers(1, 6))
    h = data.draw(st.integers(0, (1 << (m * (m - 1) // 2)) - 1))
    perm = data.draw(st.permutations(range(m)))
    c, leaves = _canonical_search(relabel(Graph.from_edge_mask(m, h), list(perm)))
    reps = _orbit_representatives(leaves)
    auts = _automorphisms(Graph.from_edge_mask(m, c))
    base = m * (m - 1) // 2

    def extended(x):
        return canonical_mask(Graph.from_edge_mask(m + 1, c | x << base))

    for x in range(1 << m):
        rep = min(sum(1 << sigma[p] for p in range(m) if x >> p & 1) for sigma in auts)
        assert reps >> x & 1 == (x == rep), (m, h, x)
        assert extended(x) == extended(rep)


def test_search_leaves_no_reference_cycle():
    # every leaf of K7 is optimal: a cycle through the search would pin all
    # 5,040 of them until the next collection
    k7 = Graph.from_edge_mask(7, (1 << 21) - 1)
    gc.collect()
    gc.disable()
    try:
        _, leaves = _canonical_search(k7)
        assert gc.collect() == 0
    finally:
        gc.enable()
    assert len(leaves) == 5040


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
    assert lines == sorted(lines)
    # spot-check canonicity on a deterministic sample; the acceptance suite
    # re-canonicalizes the whole file
    for line in lines[::500]:
        g = from_graph6(line)
        assert canonical_graph6(g) == line
