"""Graph representation, graph6 codec and structural operations."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fracmatch.graphs import (
    Graph,
    Graph6Error,
    are_isomorphic,
    complement,
    complete_graph,
    cycle_graph,
    degree_stats,
    delete_edges,
    disjoint_union,
    empty_graph,
    from_graph6,
    graph6_mask,
    join,
    pair_index,
    path_graph,
    relabel,
    to_graph6,
)

from random_graphs import random_graph


def graph6_mask_by_strings(text: str) -> tuple[int, int]:
    """A string-per-byte graph6 decoder, kept as the oracle of the
    table-driven ``graph6_mask``: same validation order and messages."""
    s = text.strip()
    if not s:
        raise Graph6Error("empty graph6 line")
    data = [ord(c) - 63 for c in s]
    if any(d < 0 or d > 63 for d in data):
        raise Graph6Error(f"malformed header: byte outside graph6 alphabet in {s!r}")
    if data[0] < 63:
        n, body = data[0], data[1:]
    elif len(data) >= 2 and data[1] < 63:
        if len(data) < 4:
            raise Graph6Error("malformed header: truncated extended vertex count")
        n = data[1] << 12 | data[2] << 6 | data[3]
        body = data[4:]
    else:
        raise Graph6Error("vertex count out of supported range (n > 258047 form)")
    if not 1 <= n <= 64:
        raise Graph6Error(f"vertex count {n} out of supported range 1..64")
    m = n * (n - 1) // 2
    need = (m + 5) // 6
    if len(body) != need:
        raise Graph6Error(f"malformed header: expected {need} payload bytes, got {len(body)}")
    bits = "".join(format(val, "06b") for val in body)
    if "1" in bits[m:]:
        raise Graph6Error("trailing bits nonzero")
    return n, int(bits[:m][::-1] or "0", 2)


GRAPH6_BYTES = st.characters(min_codepoint=63, max_codepoint=126)


@st.composite
def graph6_lines(draw):
    """Encodings of real graphs, some cut short, extended, or with the last
    byte replaced (stray padding bits)."""
    n = draw(st.integers(1, 64))
    text = to_graph6(Graph.from_edge_mask(n, draw(st.integers(0, (1 << n * (n - 1) // 2) - 1))))
    edit = draw(st.sampled_from(["none", "cut", "extend", "last byte"]))
    if edit == "cut":
        text = text[:draw(st.integers(0, len(text) - 1))]
    elif edit == "extend":
        text += draw(st.text(GRAPH6_BYTES, min_size=1, max_size=3))
    elif edit == "last byte":
        text = text[:-1] + draw(GRAPH6_BYTES)
    return text


def decoded_or_error(decode, text):
    try:
        return decode(text)
    except Graph6Error as exc:
        return str(exc)


class TestGraphType:
    def test_rejects_self_loop(self):
        with pytest.raises(ValueError, match="self-loop"):
            Graph(2, (0b01, 0b10))
        with pytest.raises(ValueError, match="self-loop at vertex 1"):
            Graph.from_edges(3, [(1, 1)])

    def test_rejects_asymmetry(self):
        with pytest.raises(ValueError, match="asymmetric"):
            Graph(2, (0b10, 0b00))

    def test_rejects_out_of_range_neighbor(self):
        with pytest.raises(ValueError, match="neighbor index"):
            Graph(2, (0b100, 0b000))

    def test_rejects_bad_vertex_count(self):
        with pytest.raises(ValueError):
            Graph(0, ())
        with pytest.raises(ValueError):
            Graph(65, (0,) * 65)
        for n in (0, 65, 1 << 20):  # before any packing
            with pytest.raises(ValueError, match=rf"^vertex count {n} outside 1\.\.64$"):
                Graph.from_edge_mask(n, 0)

    def test_edges_roundtrip(self):
        g = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
        assert g.edges() == [(0, 1), (1, 2), (2, 3)]
        assert Graph.from_edge_mask(4, g.edge_mask()) == g


def adjacency_by_bits(n: int, mask: int) -> tuple[int, ...]:
    """One step per mask bit, kept as the oracle of the packed-matrix
    ``Graph.from_edge_mask``."""
    adj = [0] * n
    for j in range(1, n):
        for i in range(j):
            if mask >> pair_index(i, j) & 1:
                adj[i] |= 1 << j
                adj[j] |= 1 << i
    return tuple(adj)


def first_asymmetric_pair(adj: tuple[int, ...]) -> str | None:
    """The pair a loop over v, then u in adj[v], both ascending, names first:
    the oracle of the transpose-based symmetry check."""
    for v, nb in enumerate(adj):
        for u in range(len(adj)):
            if nb >> u & 1 and not adj[u] >> v & 1:
                return f"asymmetric adjacency between {u} and {v}"
    return None


class TestPackedLayout:
    """``from_edge_mask`` and the symmetry check on the packed n x w bit
    matrix, at every lane width w = 1, 2, 4, ..., 64 and its boundaries."""

    WIDTH_EDGES = (1, 2, 3, 4, 5, 8, 9, 16, 17, 32, 33, 63, 64)

    def test_edge_mask_roundtrip_at_width_edges(self):
        rng = random.Random(24)
        for n in self.WIDTH_EDGES:
            m = n * (n - 1) // 2
            for mask in (0, (1 << m) - 1, *(rng.getrandbits(m) for _ in range(5))):
                g = Graph.from_edge_mask(n, mask)
                assert g.edge_mask() == mask
                assert g.adj == adjacency_by_bits(n, mask)
                assert all(g.has_edge(u, v) == g.has_edge(v, u)
                           for u in range(n) for v in range(n))

    def test_adjacency_equals_per_bit_oracle_exhaustive_n5(self):
        for n in range(1, 6):
            for mask in range(1 << n * (n - 1) // 2):
                assert Graph.from_edge_mask(n, mask).adj == adjacency_by_bits(n, mask)

    def test_asymmetry_names_the_first_pair(self):
        # 0-1 and 2-5 are edges; 3 -> 1, 4 -> 0 and 5 -> 3 have no way back
        adj = [0] * 6
        for v, u in ((0, 1), (1, 0), (2, 5), (5, 2), (3, 1), (4, 0), (5, 3)):
            adj[v] |= 1 << u
        with pytest.raises(ValueError, match=r"^asymmetric adjacency between 1 and 3$"):
            Graph(6, tuple(adj))

    def test_asymmetry_message_equals_loop_oracle(self):
        rng = random.Random(7)
        for n in self.WIDTH_EDGES[1:]:
            for _ in range(20):
                g = Graph.from_edge_mask(n, rng.getrandbits(n * (n - 1) // 2))
                adj = list(g.adj)
                for _ in range(rng.randint(1, 3)):  # flip single directed entries
                    v, u = rng.sample(range(n), 2)
                    adj[v] ^= 1 << u
                expected = first_asymmetric_pair(tuple(adj))
                if expected is None:
                    assert Graph(n, tuple(adj)).adj == tuple(adj)
                    continue
                with pytest.raises(ValueError) as err:
                    Graph(n, tuple(adj))
                assert str(err.value) == expected

    def test_row_checks_run_in_vertex_order(self):
        with pytest.raises(ValueError, match=r"^self-loop at vertex 0$"):
            Graph(3, (0b001, 0b1000, 0b000))
        with pytest.raises(ValueError, match=r"^vertex 0 has a neighbor index >= 3$"):
            Graph(3, (0b1000, 0b010, 0b000))
        # a neighbour far past the row width is rejected before any packing
        with pytest.raises(ValueError, match=r"^vertex 1 has a neighbor index >= 9$"):
            Graph(9, (0, 1 << 40) + (0,) * 7)


class TestGraph6:
    def test_decode_empty5(self):
        g = from_graph6("D??")
        assert g.n == 5 and g.edge_count() == 0

    def test_decode_k5(self):
        g = from_graph6("D~{")
        assert g.n == 5 and g.edge_count() == 10

    def test_decode_k3(self):
        assert from_graph6("Bw") == complete_graph(3)

    def test_encode_k3(self):
        assert to_graph6(complete_graph(3)) == "Bw"

    def test_encode_path3(self):
        assert to_graph6(path_graph(3)) == "Bg"

    def test_encode_empty5(self):
        assert to_graph6(empty_graph(5)) == "D??"

    def test_header_variants(self):
        # n = 63 and 64 use the extended ~ header
        for n in (62, 63, 64):
            g = empty_graph(n)
            assert from_graph6(to_graph6(g)) == g

    def test_malformed_header(self):
        with pytest.raises(Graph6Error, match="malformed header"):
            from_graph6("D?")  # truncated payload
        with pytest.raises(Graph6Error, match="alphabet"):
            from_graph6("D??\x19")

    def test_trailing_bits(self):
        # path on 2 vertices is 'A_'; 'A' + char with stray low bits set
        with pytest.raises(Graph6Error, match="trailing bits"):
            from_graph6("A" + chr(63 + 0b000001))

    def test_out_of_range_vertex_count(self):
        with pytest.raises(Graph6Error, match="out of supported range"):
            from_graph6("~?@@")  # extended header, n = 65
        with pytest.raises(Graph6Error, match="out of supported range"):
            from_graph6("?")  # n = 0

    @given(st.sampled_from(["", "~", "~~", "~~~"]),
           st.text(st.one_of(st.characters(min_codepoint=63, max_codepoint=126),
                             st.characters(),
                             st.integers(0xD800, 0xDFFF).map(chr))))  # undecodable bytes
    @settings(max_examples=300, deadline=None)
    def test_arbitrary_text_raises_only_graph6_error(self, header, body):
        try:
            from_graph6(header + body)
        except Graph6Error:
            pass

    @given(st.one_of(
        st.text(st.one_of(st.characters(min_codepoint=63, max_codepoint=126),
                          st.characters(), st.integers(0xD800, 0xDFFF).map(chr))),
        graph6_lines()))
    @settings(max_examples=500, deadline=None)
    def test_mask_decoder_matches_string_oracle(self, text):
        assert decoded_or_error(graph6_mask, text) == \
            decoded_or_error(graph6_mask_by_strings, text)

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_roundtrip_property(self, data):
        n = data.draw(st.integers(1, 12))
        mask = data.draw(st.integers(0, (1 << (n * (n - 1) // 2)) - 1))
        g = Graph.from_edge_mask(n, mask)
        assert from_graph6(to_graph6(g)) == g

    def test_agrees_with_networkx(self, rng):
        # independent implementation of the same format
        import networkx as nx

        for n in (1, 2, 5, 9, 13, 30, 62, 63, 64):
            g = random_graph(rng, n)
            ref = nx.Graph()
            ref.add_nodes_from(range(n))
            ref.add_edges_from(g.edges())
            encoded = nx.to_graph6_bytes(ref, header=False).decode().strip()
            assert to_graph6(g) == encoded
            assert from_graph6(encoded) == g


class TestOperations:
    def test_complement_k5(self):
        assert complement(complete_graph(5)) == empty_graph(5)

    def test_complement_empty4(self):
        assert complement(empty_graph(4)) == complete_graph(4)

    def test_c5_self_complementary(self):
        c5 = cycle_graph(5)
        assert are_isomorphic(c5, complement(c5))

    def test_complement_involution(self, rng):
        for _ in range(50):
            g = random_graph(rng, rng.randint(1, 10))
            assert complement(complement(g)) == g

    def test_join_star(self):
        star = join(complete_graph(1), empty_graph(4))
        assert degree_stats(star) == (1, 4, [4, 1, 1, 1, 1])

    def test_join_edge_count(self):
        g = join(complete_graph(2), empty_graph(5))
        assert g.edge_count() == 1 + 0 + 10

    def test_join_base_construction(self):
        inner = disjoint_union(complete_graph(2), empty_graph(4))
        g = join(complete_graph(1), inner)
        assert g.n == 7 and g.edge_count() == 7

    def test_join_overflow(self):
        with pytest.raises(ValueError, match="64"):
            join(complete_graph(33), complete_graph(32))

    def test_join_degree_rule(self, rng):
        g = random_graph(rng, 5)
        h = random_graph(rng, 4)
        j = join(g, h)
        assert j.edge_count() == g.edge_count() + h.edge_count() + 20
        for v in range(5):
            assert j.degree(v) == g.degree(v) + 4

    def test_disjoint_union(self):
        g = disjoint_union(complete_graph(2), complete_graph(2))
        assert g.n == 4 and g.edge_count() == 2
        h = disjoint_union(complete_graph(3), empty_graph(2))
        assert h.n == 5 and h.edge_count() == 3

    def test_union_identity_on_empty(self):
        assert disjoint_union(None, complete_graph(4)) == complete_graph(4)

    def test_delete_edges(self):
        g = delete_edges(complete_graph(3), [(0, 1)])
        assert g.edge_count() == 2
        star = join(complete_graph(1), empty_graph(4))
        h = delete_edges(star, [(0, 1)])
        assert degree_stats(h)[0] == 0 and h.edge_count() == 3

    def test_delete_edge_at_degree2_vertex(self):
        g = join(complete_graph(2), empty_graph(5))
        h = delete_edges(g, [(0, 2)])
        assert h.edge_count() == 10 and degree_stats(h)[0] == 1

    def test_delete_absent_edge(self):
        with pytest.raises(ValueError, match="not present"):
            delete_edges(empty_graph(3), [(0, 1)])

    def test_delete_duplicate_edge(self):
        with pytest.raises(ValueError, match="duplicate"):
            delete_edges(complete_graph(3), [(0, 1), (1, 0)])

    def test_degree_stats_c5(self):
        assert degree_stats(cycle_graph(5)) == (2, 2, [2, 2, 2, 2, 2])

    def test_degree_stats_star(self):
        lo, hi, seq = degree_stats(join(complete_graph(1), empty_graph(3)))
        assert (lo, hi) == (1, 3) and sorted(seq) == [1, 1, 1, 3]


class TestIsomorphism:
    def test_different_degree_sequences(self):
        k13 = join(complete_graph(1), empty_graph(3))
        k3_plus = disjoint_union(complete_graph(3), empty_graph(1))
        assert not are_isomorphic(k13, k3_plus)

    def test_same_degrees_not_isomorphic(self):
        # C_6 and 2 triangles are both 2-regular on 6 vertices
        c6 = cycle_graph(6)
        tt = disjoint_union(complete_graph(3), complete_graph(3))
        assert not are_isomorphic(c6, tt)

    @given(st.data())
    @settings(max_examples=100, deadline=None)
    def test_relabel_invariance(self, data):
        n = data.draw(st.integers(2, 9))
        mask = data.draw(st.integers(0, (1 << (n * (n - 1) // 2)) - 1))
        perm = data.draw(st.permutations(range(n)))
        g = Graph.from_edge_mask(n, mask)
        assert are_isomorphic(g, relabel(g, list(perm)))

    def test_equivalence_relation_sample(self, rng):
        graphs = [random_graph(rng, 6) for _ in range(8)]
        for g in graphs:
            assert are_isomorphic(g, g)
        for g in graphs:
            for h in graphs:
                assert are_isomorphic(g, h) == are_isomorphic(h, g)
