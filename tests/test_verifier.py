"""Exhaustive verifier: vectorized engine against a naive reference scan."""

import functools
import itertools
import math
from concurrent.futures import Future
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fracmatch.corpus import read_graph6_stream
from fracmatch.counting import Biclique, Clique, count_motif
from fracmatch.formulas import feasible_t_max, verify_convexity
from fracmatch.graphs import (
    Graph,
    all_labeled_graphs,
    degree_stats,
    from_graph6,
    pair_index,
    to_graph6,
)
from fracmatch.matching import matching_number, nu_star_deficiency, nu_star_fast
from fracmatch.verifier import (
    WITNESS_CAP,
    VerifySpec,
    clear_caches,
    count_motif_vector,
    extension_invariants,
    mask_invariants,
    matching_number_at_least,
    matching_numbers,
    native_invariants,
    verify_bound,
    verify_nonexistence,
    verify_specs,
)


def naive_passing(spec: VerifySpec):
    """The graphs passing the spec's filter, through the per-graph public APIs."""
    passing = []
    if spec.source == "native":
        graphs = all_labeled_graphs(spec.n)
    else:
        graphs = (g for _, g in read_graph6_stream(spec.corpus))
    for g in graphs:
        if spec.theorem == "1.1":
            if matching_number(g) != spec.k:
                continue
        else:
            if nu_star_fast(g).doubled != spec.s2:
                continue
            lo, hi, _ = degree_stats(g)
            if spec.theorem == "1.2" and hi > spec.d:
                continue
            if spec.theorem == "1.4" and lo < 1:
                continue
            if spec.theorem in ("1.6", "1.9"):
                if spec.delta_mode == "exact" and lo != spec.delta:
                    continue
                if spec.delta_mode == "at-least" and lo < spec.delta:
                    continue
        passing.append(g)
    return passing


def naive_verify(spec: VerifySpec):
    """Reference scan straight through the per-graph public APIs."""
    passing = naive_passing(spec)
    if not passing:
        return None, 0, []
    counts = [count_motif(g, spec.motif) for g in passing]
    best = max(counts)
    witnesses = sorted(to_graph6(g) for g, c in zip(passing, counts) if c == best)
    return best, len(passing), witnesses[:16]


def test_invariant_arrays_match_scalar_apis(rng):
    from fracmatch.graphs import Graph

    for n in (3, 4, 5):
        (_, inv), = native_invariants(n)  # one chunk
        total = 1 << (n * (n - 1) // 2)
        for mask in rng.sample(range(total), min(total, 80)):
            g = Graph.from_edge_mask(n, mask)
            lo, hi, _ = degree_stats(g)
            assert int(inv["mind"][mask]) == lo
            assert int(inv["maxd"][mask]) == hi
            assert int(inv["nu2"][mask]) == nu_star_fast(g).doubled


def test_matching_number_vector(rng):
    from fracmatch.graphs import Graph

    n = 6
    sample = rng.sample(range(1 << 15), 200)
    for dtype in (np.uint32, np.uint64):
        masks = np.array(sample, dtype=dtype)
        for k in (1, 2, 3):
            flags = matching_number_at_least(n, masks, k)
            for mask, flag in zip(masks, flags):
                assert bool(flag) == (matching_number(Graph.from_edge_mask(n, int(mask))) >= k)


def matching_at_least_masks(n: int, k: int) -> list[int]:
    """Edge-bit masks of all sets of k pairwise disjoint edges."""
    pairs = list(itertools.combinations(range(n), 2))
    out = []

    def rec(start: int, used: int, mask: int, depth: int) -> None:
        if depth == k:
            out.append(mask)
            return
        for idx in range(start, len(pairs)):
            u, v = pairs[idx]
            if used >> u & 1 or used >> v & 1:
                continue
            rec(idx + 1, used | 1 << u | 1 << v, mask | 1 << pair_index(u, v), depth + 1)

    rec(0, 0, 0, 0)
    return out


def contains_matching(n, masks, k):
    """Oracle for the matching DP: does each mask contain one of the
    k-matchings of K_n, tested one by one."""
    hit = np.zeros(masks.shape, dtype=bool)
    for m in matching_at_least_masks(n, k):
        mm = masks.dtype.type(m)
        hit |= (masks & mm) == mm
    return hit


def assert_matching_numbers_match_scalar(n, masks, nu):
    assert nu.dtype == np.uint8 and nu.shape == masks.shape
    expected = [matching_number(Graph.from_edge_mask(n, int(mask))) for mask in masks]
    assert nu.tolist() == expected, n


@functools.cache  # an exhaustive scan meets every H - u again as a graph H
def scalar_nu(n, mask):
    return matching_number(Graph.from_edge_mask(n, mask))


def assert_missed_match_scalar(n, masks, missed):
    """missed holds the u with nu(H - u) = nu(H), H - u as H without u's edges."""
    assert missed.dtype == np.uint8 and missed.shape == masks.shape
    stars = [sum(1 << pair_index(u, w) for w in range(n) if w != u) for u in range(n)]
    expected = [sum(1 << u for u, star in enumerate(stars)
                    if scalar_nu(n, mask & ~star) == scalar_nu(n, mask))
                for mask in masks.tolist()]
    assert missed.tolist() == expected, n


@pytest.mark.parametrize("dtype", [np.uint32, np.uint64])
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_matching_numbers_every_labeled_graph(n, dtype):
    masks = np.arange(1 << (n * (n - 1) // 2), dtype=dtype)
    assert_matching_numbers_match_scalar(n, masks, matching_numbers(n, masks)[0])


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_matching_numbers_missed_every_labeled_graph(n):
    masks = np.arange(1 << (n * (n - 1) // 2), dtype=np.uint32)
    assert_missed_match_scalar(n, masks, matching_numbers(n, masks)[1])


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_matching_numbers_random_masks(data):
    n = data.draw(st.sampled_from([7, 8]))
    dtype = data.draw(st.sampled_from([np.uint32, np.uint64]))
    m = n * (n - 1) // 2
    masks = np.array(data.draw(st.lists(st.integers(0, (1 << m) - 1), min_size=1, max_size=12)),
                     dtype=dtype)
    nu, missed = matching_numbers(n, masks)
    assert_matching_numbers_match_scalar(n, masks, nu)
    assert_missed_match_scalar(n, masks, missed)


@pytest.mark.parametrize("n", [7, 8])
def test_matching_numbers_equal_containment_on_one_chunk(n):
    masks = np.random.default_rng(n).integers(0, 1 << (n * (n - 1) // 2), size=1 << 19,
                                             dtype=np.uint32)
    nu, _ = matching_numbers(n, masks)
    for k in range(1, n // 2 + 2):
        assert np.array_equal(nu >= k, contains_matching(n, masks, k)), (n, k)
    assert set(np.unique(nu).tolist()) == set(range(1, n // 2 + 1))


def test_matching_numbers_block_edges():
    n = 8
    masks = np.random.default_rng(20240902).integers(0, 1 << 28, size=(1 << 16) + 3,
                                                     dtype=np.uint64)
    whole = matching_numbers(n, masks)
    pieces = [matching_numbers(n, masks[lo:lo + 4099]) for lo in range(0, len(masks), 4099)]
    for i, values in enumerate(whole):
        assert np.array_equal(values, np.concatenate([piece[i] for piece in pieces]))
    edge = slice((1 << 16) - 2, None)
    assert_matching_numbers_match_scalar(n, masks[edge], whole[0][edge])
    assert_missed_match_scalar(n, masks[edge], whole[1][edge])

    for empty in matching_numbers(n, np.zeros(0, dtype=np.uint32)):
        assert empty.shape == (0,) and empty.dtype == np.uint8
    with pytest.raises(ValueError, match="n <= 8"):
        matching_numbers(9, np.zeros(1, dtype=np.uint64))


def every_motif(n):
    """K2..K_n and every K_{r1,r2} with r1 <= r2 and r1 + r2 <= n."""
    return [Clique(ell) for ell in range(2, n + 1)] + \
        [Biclique(r1, r2) for r1 in range(1, n) for r2 in range(r1, n - r1 + 1)]


def assert_counts_match_scalar(n, sample):
    for motif in every_motif(n):
        expected = [count_motif(Graph.from_edge_mask(n, mask), motif) for mask in sample]
        for dtype in (np.uint32, np.uint64):
            counts = count_motif_vector(n, np.array(sample, dtype=dtype), motif)
            assert counts.dtype.kind == "u", (n, motif)
            assert counts.tolist() == expected, (n, motif, dtype)


def test_count_vector_every_graph_n5():
    assert_counts_match_scalar(5, list(range(1 << 10)))


def test_count_vector_agrees():
    for n in (6, 7, 8):
        rnd = np.random.default_rng(n)
        m = n * (n - 1) // 2
        sample = [0, (1 << m) - 1] + rnd.integers(0, 1 << m, size=298).tolist()
        assert_counts_match_scalar(n, sample)


def _sample_masks(n, seed_size=4096):
    """Every mask at n <= 5; K_n, the empty graph and seeded masks above."""
    m = n * (n - 1) // 2
    if n <= 5:
        return np.arange(1 << m, dtype=np.uint32)
    rnd = np.random.default_rng(n)
    return np.concatenate([[0, (1 << m) - 1],
                           rnd.integers(0, 1 << m, size=seed_size)]).astype(np.uint32)


@pytest.mark.parametrize("n", range(1, 9))
def test_neighbour_rows_equal_adjacency(n):
    import fracmatch.verifier as V

    masks = _sample_masks(n, seed_size=512)
    rows = V._neighbour_rows(n, masks)
    assert rows.dtype == np.uint8 and rows.shape == (n, len(masks))
    for column, mask in zip(rows.T.tolist(), masks.tolist()):
        assert column == list(Graph.from_edge_mask(n, mask).adj), mask


def _biclique_by_table(n, masks, motif):
    """K_{r1,r2} copies by a table of C(|N(A)|, r2), read with np.take:
    the lookup that exact arithmetic replaced in count_motif_vector."""
    import fracmatch.verifier as V

    rows = V._neighbour_rows(n, masks)
    table = np.array([math.comb(c, motif.r2) for c in range(n + 1)], dtype=np.int64)
    total = np.zeros(len(masks), dtype=np.int64)
    for A in itertools.combinations(range(n), motif.r1):
        total += np.take(table, np.bitwise_count(np.bitwise_and.reduce(rows[list(A)])))
    return total // 2 if motif.r1 == motif.r2 else total


@pytest.mark.parametrize("n", range(2, 9))
def test_biclique_arithmetic_equals_table_lookup(n):
    masks = _sample_masks(n)
    for motif in (Biclique(r1, r2) for r1 in range(1, n) for r2 in range(r1, n - r1 + 1)):
        counts = count_motif_vector(n, masks, motif)
        ordered = math.comb(n, motif.r1) * math.comb(n - motif.r1, motif.r2)
        assert counts.dtype == np.min_scalar_type(ordered // (1 + (motif.r1 == motif.r2)))
        assert counts.tolist() == _biclique_by_table(n, masks, motif).tolist(), motif


def test_count_vector_edge_cases():
    for dtype in (np.uint32, np.uint64):
        for motif in every_motif(8):
            assert count_motif_vector(8, np.zeros(0, dtype=dtype), motif).shape == (0,)
        # K_{3,3} has no copy on 5 vertices, even in K5
        counts = count_motif_vector(5, np.arange(1 << 10, dtype=dtype), Biclique(3, 3))
        assert not counts.any()
    # the most copies any 8-vertex graph holds (K8's) fit the count dtype
    k8 = np.array([(1 << 28) - 1], dtype=np.uint32)
    assert count_motif_vector(8, k8, Biclique(2, 2)).tolist() == [210]
    assert count_motif_vector(8, k8, Biclique(3, 4)).dtype == np.uint16  # 280 copies


ENGINE_SPECS = [
    VerifySpec("1.6", 5, s2=4, delta=1, motif=Clique(2)),
    VerifySpec("1.6", 5, s2=4, delta=2, motif=Clique(3)),
    VerifySpec("1.6", 5, s2=4, delta=1, motif=Clique(2), delta_mode="at-least"),
    VerifySpec("1.9", 5, s2=4, delta=1, motif=Biclique(1, 2)),
    VerifySpec("1.9", 5, s2=4, delta=2, motif=Biclique(2, 2)),
    VerifySpec("1.4", 5, s2=4),
    VerifySpec("1.1", 5, k=1),
    VerifySpec("1.1", 5, k=2),
    VerifySpec("1.2", 5, s2=4, d=3),
    VerifySpec("1.2", 6, s2=4, d=2),
]


@pytest.mark.parametrize("spec", ENGINE_SPECS, ids=lambda s: repr(s)[:60])
def test_engine_matches_naive_reference(spec):
    report = verify_bound(spec)
    best, passed, witnesses = naive_verify(spec)
    assert report.passed == passed
    assert report.observed_max == best
    assert list(report.witnesses) == witnesses
    assert report.scanned == 1 << (spec.n * (spec.n - 1) // 2)


@pytest.mark.parametrize("spec", [
    VerifySpec("1.6", 6, s2=4, delta=2, motif=Clique(3)),
    VerifySpec("1.9", 6, s2=5, delta=1, motif=Biclique(1, 2)),
])
def test_engine_matches_naive_reference_n6(spec):
    report = verify_bound(spec)
    best, passed, witnesses = naive_verify(spec)
    assert (report.observed_max, report.passed) == (best, passed)
    assert list(report.witnesses) == witnesses


def test_at_least_mode_witness_uses_winning_delta():
    # with delta-mode at-least the bound can be attained only at a larger
    # minimum degree; the construction check must follow the winning pair
    spec = VerifySpec("1.6", 7, s2=4, delta=1, motif=Clique(2),
                      delta_mode="at-least")
    report = verify_bound(spec)
    assert report.bound == 11 and report.observed_max == 11
    assert report.witness_matches_construction


def test_min_degree_one_equals_at_least_run():
    a = verify_bound(VerifySpec("1.4", 6, s2=4))
    b = verify_bound(VerifySpec("1.6", 6, s2=4, delta=1, motif=Clique(2),
                                delta_mode="at-least"))
    assert a.bound == b.bound
    assert a.observed_max == b.observed_max
    assert a.witnesses == b.witnesses


def test_witness_cap():
    report = verify_bound(VerifySpec("1.6", 5, s2=4, delta=1, motif=Clique(2)))
    assert len(report.witnesses) == 16
    assert list(report.witnesses) == sorted(report.witnesses)


def test_spot_check_catches_corruption():
    import fracmatch.verifier as V

    (_, whole), = native_invariants(4)  # one chunk
    inv = {key: arr.copy() for key, arr in whole.items()}
    inv["nu2"][0] ^= 1
    with pytest.raises(AssertionError, match="spot check"):
        V._spot_check(4, np.arange(64, dtype=np.uint32), inv)


def test_verify_spot_examples():
    r = verify_bound(VerifySpec("1.6", 5, s2=4, delta=1, motif=Clique(2)))
    assert (r.bound, r.observed_max, r.verdict) == (6, 6, "exact-match")
    r = verify_bound(VerifySpec("1.6", 6, s2=5, delta=1, motif=Clique(2)))
    assert (r.bound, r.observed_max, r.verdict) == (8, 8, "exact-match")
    assert r.witness_matches_construction
    r = verify_bound(VerifySpec("1.1", 7, k=2))
    assert (r.bound, r.observed_max, r.verdict) == (11, 11, "exact-match")


def test_witness_soundness():
    spec = VerifySpec("1.6", 6, s2=4, delta=2, motif=Clique(3))
    report = verify_bound(spec)
    assert report.witnesses
    for line in report.witnesses:
        g = from_graph6(line)
        assert nu_star_fast(g).doubled == 4
        assert degree_stats(g)[0] == 2
        assert count_motif(g, Clique(3)) == report.observed_max


def test_filter_consistency():
    n, s2 = 6, 4
    exact = {d: verify_bound(VerifySpec("1.6", n, s2=s2, delta=d, motif=Clique(2))).passed
             for d in (1, 2)}
    atleast = {d: verify_bound(VerifySpec("1.6", n, s2=s2, delta=d, motif=Clique(2),
                                          delta_mode="at-least")).passed
               for d in (1, 2)}
    assert exact[1] + atleast[2] == atleast[1]


def test_determinism():
    spec = VerifySpec("1.9", 6, s2=4, delta=1, motif=Biclique(1, 2))
    a = verify_bound(spec).to_json_dict()
    b = verify_bound(spec).to_json_dict()
    a.pop("elapsed_ms"), b.pop("elapsed_ms")
    assert a == b


def test_parallel_merge_matches_serial():
    spec = VerifySpec("1.6", 6, s2=5, delta=1, motif=Clique(2))
    clear_caches()
    a = verify_bound(spec, jobs=1).to_json_dict()
    clear_caches()
    b = verify_bound(spec, jobs=2).to_json_dict()
    clear_caches()
    a.pop("elapsed_ms"), b.pop("elapsed_ms")
    a["spec"].pop("jobs", None), b["spec"].pop("jobs", None)
    assert a == b


def test_stream_source_matches_native_max(tmp_path):
    # scanning class representatives preserves the observed maximum; check
    # on n = 5 by generating the 34-class corpus
    from fracmatch.corpus import write_corpus

    path = tmp_path / "graphs5.g6"
    write_corpus(path, 5)
    native = verify_bound(VerifySpec("1.6", 5, s2=4, delta=1, motif=Clique(2)))
    stream = verify_bound(VerifySpec("1.6", 5, s2=4, delta=1, motif=Clique(2),
                                     source="graph6-stream", corpus=str(path)))
    assert native.observed_max == stream.observed_max
    assert native.verdict == stream.verdict == "exact-match"
    assert stream.scanned == 34


@pytest.mark.parametrize("n", [5, 6])
def test_stream_of_every_labeled_graph_matches_native_matching_scan(n, tmp_path):
    # a stream chunk reads nu off its first n - 1 vertices, as a native one does
    path = tmp_path / f"labeled{n}.g6"
    path.write_text("".join(to_graph6(g) + "\n" for g in all_labeled_graphs(n)))
    for k in range(1, (n - 1) // 2 + 1):
        native = verify_bound(VerifySpec("1.1", n, k=k))
        stream = verify_bound(VerifySpec("1.1", n, k=k, source="graph6-stream",
                                         corpus=str(path)))
        assert (stream.observed_max, stream.passed, stream.witnesses) == \
            (native.observed_max, native.passed, native.witnesses), (n, k)


def spot_checked_samples(monkeypatch):
    """Record each (masks, invariants) sample that ``_spot_check`` is given."""
    import fracmatch.verifier as V

    samples = []
    check = V._spot_check
    monkeypatch.setattr(V, "_spot_check", lambda n, masks, inv:
                        samples.append((masks, inv)) or check(n, masks, inv))
    return samples


@pytest.mark.parametrize("native", [True, False], ids=["native", "stream"])
def test_spot_sample_owns_its_arrays(native, monkeypatch):
    # the sample is checked after the chunk's invariants are freed, and a
    # view would keep them alive while the chunk's motifs are counted
    import fracmatch.verifier as V

    chunk, start, total = next(V._native_chunks(6))
    if not native:
        chunk = V._as_masks(6, chunk)
    questions = {("k", 2): [], ("s2", 4, "exact", 1): [Clique(3)]}
    samples = spot_checked_samples(monkeypatch)
    _, _, checked = V._fold_chunk((6, chunk, start, total, questions))
    (masks, inv), = samples
    assert len(masks) == checked and set(inv) == {"nu", "nu2", "mind", "maxd"}
    assert masks.base is None
    assert all(values.base is None for values in inv.values())


def test_stream_chunk_nu_equals_the_direct_dp(corpus8, monkeypatch):
    import fracmatch.verifier as V

    (chunk, start, total), = V.load_stream(corpus8, 8)
    assert len(chunk) == total == 12346
    monkeypatch.setattr(V, "SPOT_CHECK_STRIDE", 1)  # the sample is the whole chunk
    samples = spot_checked_samples(monkeypatch)
    size, _, checked = V._fold_chunk((8, chunk, start, total, {("k", 2): []}))
    (masks, inv), = samples
    assert size == checked == total and np.array_equal(masks, chunk)
    assert np.array_equal(inv["nu"], matching_numbers(8, chunk)[0])


def test_spec_validation_errors():
    with pytest.raises(ValueError):
        VerifySpec("1.5", 6, s2=4, delta=1, motif=Clique(2))
    with pytest.raises(ValueError):
        VerifySpec("1.6", 6, s2=4, delta=1, motif=Biclique(1, 1))
    with pytest.raises(ValueError):
        VerifySpec("1.9", 6, s2=4, delta=1, motif=Clique(2))
    with pytest.raises(ValueError):
        VerifySpec("1.6", 6, s2=4, delta=3, motif=Clique(2))
    with pytest.raises(ValueError):
        VerifySpec("1.6", 6, s2=4, delta=1, motif=Clique(2), source="graph6-stream")
    with pytest.raises(ValueError, match="reads no corpus"):
        VerifySpec("1.6", 6, s2=4, delta=1, motif=Clique(2), corpus="graphs6.g6")
    with pytest.raises(ValueError):
        VerifySpec("1.1", 6, k=3)
    with pytest.raises(ValueError):
        VerifySpec("1.6", 6, s2=4, delta=1, motif=Clique(2), delta_mode="approx")
    with pytest.raises(ValueError):
        VerifySpec("1.4", 6, s2=4, delta=2)
    with pytest.raises(ValueError):
        VerifySpec("1.2", 6, s2=4, d=3, k=1)
    with pytest.raises(ValueError):
        VerifySpec("1.2", 6, s2=4, d=3, motif=Clique(3))


def test_no_graphs_verdict(tmp_path):
    # a corpus holding only K_5 has no graph with nu* = 2 and delta = 1
    path = tmp_path / "k5.g6"
    path.write_text("D~{\n")
    r = verify_bound(VerifySpec("1.6", 5, s2=4, delta=1, motif=Clique(2),
                                source="graph6-stream", corpus=str(path)))
    assert r.verdict == "no-graphs"
    assert r.observed_max is None and r.passed == 0 and r.witnesses == ()


def test_nonexistence():
    r = verify_nonexistence(6, 5, 2)
    assert r.verdict == "no-graphs" and r.qualifying == 0
    assert r.scanned == 1 << 15
    r = verify_nonexistence(7, 4, 3)
    assert r.verdict == "no-graphs"
    with pytest.raises(ValueError, match="feasible"):
        verify_nonexistence(6, 4, 2)  # delta = s is attainable, not refutable


def test_nonexistence_detects_counterexample(monkeypatch, tmp_path):
    # no real graph can qualify (that is the point of the scan), so fake the
    # filter to confirm a hit is reported loudly, not swallowed
    import fracmatch.verifier as V

    path = tmp_path / "k7.g6"
    path.write_text("F~~~w\n")  # K_7
    monkeypatch.setattr(V, "_select", lambda key, inv: inv["mind"] == 6)
    r = verify_nonexistence(7, 4, 3, source="graph6-stream", corpus=str(path))
    assert r.verdict == "counterexample-found"
    assert r.counterexamples == ("F~~~w",)
    assert r.qualifying == 1


@pytest.mark.parametrize("n, s2", [(6, -1), (6, 3), (5, 5)])
def test_nonexistence_rejects_questions_outside_the_hypotheses(n, s2):
    with pytest.raises(ValueError, match="outside n >= 2s"):
        verify_nonexistence(n, s2, 3)


def test_counterexample_rederivation_fails_loudly():
    import fracmatch.verifier as V

    k5 = V._Fold(passed=1, best=0, smallest=[(0, (1 << 10) - 1)])  # nu2 = 5, not 4
    with pytest.raises(AssertionError, match="counterexample"):
        k5.witnesses(5, ("s2", 4, "at-least", 3), None)


def test_convexity_reports():
    for family in ("lemma23", "lemma24", "lemma27"):
        rep = verify_convexity(family)
        assert rep.all_nonnegative
        assert rep.points > 100
        assert rep.min_second_difference >= 0


def test_mask_invariants_single_vertex():
    inv = mask_invariants(1, np.zeros(1, dtype=np.uint32))
    assert int(inv["nu2"][0]) == 0 and int(inv["mind"][0]) == 0


def assert_invariants_match_scalar(n, masks, inv):
    for mask, nu2, lo, hi in zip(masks, inv["nu2"], inv["mind"], inv["maxd"]):
        g = Graph.from_edge_mask(n, int(mask))
        assert int(nu2) == nu_star_fast(g).doubled, (n, int(mask))
        assert (int(lo), int(hi)) == degree_stats(g)[:2], (n, int(mask))


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_mask_invariants_every_labeled_graph(n):
    masks = np.arange(1 << (n * (n - 1) // 2), dtype=np.uint32)
    inv = mask_invariants(n, masks)
    assert all(arr.dtype == np.uint8 for arr in inv.values())
    assert_invariants_match_scalar(n, masks, inv)
    for mask, nu2 in zip(masks, inv["nu2"]):
        g = Graph.from_edge_mask(n, int(mask))
        assert int(nu2) == nu_star_deficiency(g)[0].doubled


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_mask_invariants_random_masks_both_dtypes(data):
    n = data.draw(st.sampled_from([7, 8]))
    dtype = data.draw(st.sampled_from([np.uint32, np.uint64]))
    m = n * (n - 1) // 2
    masks = np.array(data.draw(st.lists(st.integers(0, (1 << m) - 1), min_size=1, max_size=12)),
                     dtype=dtype)
    assert_invariants_match_scalar(n, masks, mask_invariants(n, masks))


def test_mask_invariants_block_edges():
    n = 8
    rng = np.random.default_rng(20240901)
    masks = rng.integers(0, 1 << 28, size=(1 << 16) + 3, dtype=np.uint64)
    whole = mask_invariants(n, masks)
    pieces = [mask_invariants(n, masks[lo:lo + 4099]) for lo in range(0, len(masks), 4099)]
    for key, arr in whole.items():
        assert np.array_equal(arr, np.concatenate([p[key] for p in pieces]))
    edge = slice((1 << 16) - 2, None)
    assert_invariants_match_scalar(n, masks[edge], {k: v[edge] for k, v in whole.items()})

    empty = mask_invariants(n, np.zeros(0, dtype=np.uint32))
    assert all(arr.shape == (0,) and arr.dtype == np.uint8 for arr in empty.values())


def test_mask_invariants_rejects_wide_graphs():
    with pytest.raises(ValueError, match="n <= 8"):
        mask_invariants(9, np.zeros(1, dtype=np.uint64))


ALL_INVARIANTS = {"nu", "nu2", "mind", "maxd"}


def assert_extension_equals_mask_kernels(n, chunk):
    """The native kernel on one chunk equals the graph6 stream's kernels on
    the same masks; returns the masks."""
    import fracmatch.verifier as V

    masks = V._as_masks(n, chunk)
    got = extension_invariants(n, chunk, ALL_INVARIANTS)
    want = mask_invariants(n, masks)
    want["nu"] = matching_numbers(n, masks)[0]
    assert got.keys() == want.keys()
    for key, values in want.items():
        assert got[key].dtype == np.uint8 and np.array_equal(got[key], values), (n, chunk, key)
    return masks


@pytest.mark.parametrize("n", range(2, 8))
@pytest.mark.parametrize("bits", [18, 0], ids=["default-chunks", "one-H-per-chunk"])
def test_extension_invariants_every_labeled_graph(n, bits, monkeypatch, rng):
    import fracmatch.verifier as V

    monkeypatch.setattr(V, "_CHUNK_BITS", bits)
    chunks = list(V._native_chunks(n))
    total = 1 << (n * (n - 1) // 2)
    starts = [start for _, start, _ in chunks]
    assert {t for _, _, t in chunks} == {total}
    # each chunk starts where the one before it ends, 2^(n - 1) masks per H
    assert starts[0] == 0 and starts[1:] + [total] == [start + (len(chunk) << (n - 1))
                                                        for chunk, start, _ in chunks]
    if bits == 0:
        assert all(len(chunk) == 1 for chunk, _, _ in chunks)
    if n >= 6 and bits == 0:  # 1,024 and 32,768 graphs H: both ends and a seeded sample
        chunks = [chunks[0], chunks[-1]] + rng.sample(chunks[1:-1], 96 if n == 6 else 32)
    seen = np.concatenate([assert_extension_equals_mask_kernels(n, chunk)
                           for chunk, _, _ in chunks])
    if len(seen) == total:  # every labeled graph, once
        assert np.array_equal(np.sort(seen), np.arange(total))


def test_extension_invariants_first_middle_last_chunk_n8():
    import fracmatch.verifier as V

    chunks = list(V._native_chunks(8))
    assert len(chunks) == 1024 and all(len(c) << 7 == 1 << V._CHUNK_BITS for c, _, _ in chunks)
    for chunk, _, _ in (chunks[0], chunks[len(chunks) // 2], chunks[-1]):
        assert_extension_equals_mask_kernels(8, chunk)


def delete_vertex(g, v):
    """G - v on the vertices other than v, in order."""
    keep = [u for u in range(g.n) if u != v]
    return Graph.from_edges(g.n - 1, [(i, j) for i, j in itertools.combinations(range(g.n - 1), 2)
                                      if g.has_edge(keep[i], keep[j])])


def isolate(g, vertices):
    """G without the edges at ``vertices``: G - X with X kept isolated."""
    return Graph.from_edges(g.n, [(u, w) for u, w in g.edges()
                                  if u not in vertices and w not in vertices])


@given(st.data())
@settings(max_examples=30, deadline=None)
def test_one_vertex_extension_identities(data):
    # both identities of extension_invariants, through the scalar APIs, for
    # G = H + v at every vertex v, H = G - v and X = N(v)
    n = data.draw(st.integers(2, 12))
    g = Graph.from_edge_mask(n, data.draw(st.integers(0, (1 << n * (n - 1) // 2) - 1)))
    nu2, nu = nu_star_deficiency(g)[0].doubled, matching_number(g)
    m = n - 1
    for v in range(n):
        h = delete_vertex(g, v)
        X = {u - (u > v) for u in range(n) if u != v and g.has_edge(u, v)}
        outside = sum(1 << u for u in X)
        nbr = [0] * (1 << m)  # N_H(S), and val(S) = m - |S| + |N_H(S)| over S avoiding X
        third = m
        for S in range(1, 1 << m):
            low = S & -S
            nbr[S] = nbr[S ^ low] | sum(1 << w for w in range(m)
                                        if h.has_edge(low.bit_length() - 1, w))
            if not S & outside:
                third = min(third, m - S.bit_count() + nbr[S].bit_count())
        assert nu2 == min(nu_star_deficiency(h)[0].doubled + 2,
                          2 * len(X) + nu_star_deficiency(isolate(h, X))[0].doubled,
                          1 + third), (to_graph6(g), v)
        tight = {u for u in range(m) if matching_number(isolate(h, {u})) == matching_number(h)}
        assert nu == matching_number(h) + bool(X & tight), (to_graph6(g), v)


# a filter key that reads the invariants and that no graph passes, with no
# folds: a scan of it computes and spot-checks the invariants alone
NO_GRAPHS = ("s2", 5, "at-least", 2)


@pytest.mark.parametrize("n, source", [(8, "graph6-stream"), (5, "native"), (6, "native")])
def test_spot_check_floor(n, source, corpus8, monkeypatch):
    import fracmatch.verifier as V

    calls = []

    def counting(g):
        calls.append(g)
        return nu_star_deficiency(g)

    monkeypatch.setattr(V, "nu_star_deficiency", counting)
    scanned, spot_checked, _ = V._fold_scan(n, source, None if source == "native" else corpus8,
                                            1, {NO_GRAPHS: []})
    assert len(calls) == spot_checked >= min(scanned, 256)


@pytest.mark.parametrize("source, corpus", [("bogus", None), ("graph6-stream", None)])
def test_nonexistence_rejects_bad_source(source, corpus):
    with pytest.raises(ValueError, match="source"):
        verify_nonexistence(6, 5, 2, source=source, corpus=corpus)


def test_spec_accepts_the_values_a_theorem_fixes():
    VerifySpec("1.1", 6, k=2, motif=Clique(2))
    VerifySpec("1.2", 6, s2=4, d=3, motif=Clique(2))
    VerifySpec("1.4", 6, s2=4, delta=1, motif=Clique(2))


def test_spec_stores_the_values_a_theorem_fixes():
    assert VerifySpec("1.1", 6, k=2).motif == Clique(2)
    assert VerifySpec("1.2", 6, s2=4, d=3).motif == Clique(2)
    spec = VerifySpec("1.4", 6, s2=4)
    assert (spec.motif, spec.delta, spec.delta_mode) == (Clique(2), 1, "exact")
    assert spec == VerifySpec("1.4", 6, s2=4, delta=1, motif=Clique(2))
    assert spec.filter_key() == ("s2", 4, "at-least", 1)
    assert spec.to_json_dict() == {"theorem": "1.4", "n": 6, "s2": 4, "source": "native"}


# one key of each filter kind, each with graphs that pass and graphs that do
# not at n = 5, and the nonexistence key, which no graph passes
FILTER_KEYS = [("k", 1), ("k", 2), ("s2", 4, "d", 2), ("s2", 4, "d", 3),
               ("s2", 4, "exact", 1), ("s2", 5, "exact", 2), ("s2", 4, "at-least", 1),
               ("s2", 5, "at-least", 2), ("s2", 4, "at-least", 3)]


@pytest.mark.parametrize("key", FILTER_KEYS, ids=str)
def test_select_vector_equals_scalar_on_every_graph_n5(key):
    import fracmatch.verifier as V

    masks = np.arange(1 << 10, dtype=np.uint32)
    vector = V._select(key, mask_invariants(5, masks) | {"nu": matching_numbers(5, masks)[0]})
    assert vector.dtype == bool and vector.shape == masks.shape
    scalar = []
    for mask in range(1 << 10):
        g = Graph.from_edge_mask(5, mask)
        lo, hi, _ = degree_stats(g)
        inv = {"nu": matching_number(g), "nu2": nu_star_fast(g).doubled, "mind": lo, "maxd": hi}
        scalar.append(V._select(key, inv))
    assert all(type(flag) is bool for flag in scalar)
    assert vector.tolist() == scalar
    assert any(scalar) == (key != ("s2", 4, "at-least", 3))
    assert not all(scalar)


@pytest.mark.parametrize("n, masks", [
    (5, np.arange(1 << 10, dtype=np.uint32)),
    (8, np.random.default_rng(8).integers(0, 1 << 28, size=2000, dtype=np.uint32)),
    (8, np.random.default_rng(9).integers(0, 1 << 28, size=2000, dtype=np.uint64)),
], ids=["n5-all", "n8-uint32", "n8-uint64"])
def test_graph6_sort_keys_follow_graph6_order(n, masks):
    import fracmatch.verifier as V

    keys = V._graph6_sort_keys(n, masks)
    assert keys.dtype == masks.dtype and len(set(keys.tolist())) == len(set(masks.tolist()))
    assert int(keys.max()) < 1 << n * (n - 1) // 2
    text = [to_graph6(Graph.from_edge_mask(n, int(mask))) for mask in masks]
    assert [text[i] for i in np.argsort(keys, kind="stable")] == sorted(text)


# ---------------------------------------------------------------------------
# the chunk-folding engine

def report_fields(report):
    out = report.to_json_dict()
    out.pop("elapsed_ms")
    return out


@pytest.mark.parametrize("spec", [
    VerifySpec("1.6", 5, s2=4, delta=1, motif=Clique(2)),
    VerifySpec("1.9", 5, s2=4, delta=2, motif=Biclique(2, 2)),
    VerifySpec("1.1", 5, k=2),
    VerifySpec("1.4", 5, s2=4),
    VerifySpec("1.2", 5, s2=4, d=3),
    VerifySpec("1.6", 6, s2=4, delta=2, motif=Clique(3)),
], ids=lambda s: repr(s)[:60])
def test_small_chunks_match_naive_reference(spec, monkeypatch):
    import fracmatch.verifier as V

    monkeypatch.setattr(V, "_CHUNK_BITS", 6)  # n = 5: 16 chunks, n = 6: 512
    report = verify_bound(spec)
    best, passed, witnesses = naive_verify(spec)
    assert (report.observed_max, report.passed) == (best, passed)
    assert list(report.witnesses) == witnesses
    assert report.scanned == 1 << (spec.n * (spec.n - 1) // 2)
    if spec.theorem == "1.6" and spec.n == 5:
        # the maximum is tied by more graphs than the cap, in many chunks
        ties = [g.edge_mask() for g in naive_passing(spec)
                if count_motif(g, spec.motif) == best]
        assert len(ties) > WITNESS_CAP
        # n = 5 chunks hold 4 graphs H (the low 6 bits) each, chunk index h >> 2
        assert len({(mask & 63) >> 2 for mask in ties}) > 1


def test_small_chunks_on_the_stream_source(monkeypatch, tmp_path):
    import fracmatch.verifier as V
    from fracmatch.corpus import write_corpus

    path = tmp_path / "graphs5.g6"
    write_corpus(path, 5)  # 34 classes
    monkeypatch.setattr(V, "_BLOCK", 1 << 3)  # stream chunks are kernel blocks
    for spec in (VerifySpec("1.6", 5, s2=4, delta=1, motif=Clique(2)),
                 VerifySpec("1.1", 5, k=2), VerifySpec("1.4", 5, s2=4)):
        spec = replace(spec, source="graph6-stream", corpus=str(path))
        report = verify_bound(spec)
        assert (report.observed_max, report.passed, list(report.witnesses)) == \
            naive_verify(spec)
        assert report.scanned == 34


@pytest.mark.parametrize("source", ["native", "graph6-stream"])
def test_spot_check_sample_spans_the_whole_scan(source, monkeypatch, corpus8):
    import io

    import fracmatch.verifier as V

    checked = []

    def counting(g):
        checked.append(g.edge_mask())
        return nu_star_deficiency(g)

    # small chunks (native ones by _CHUNK_BITS, stream ones by _BLOCK), and
    # a stride (16) fixed by a read-ahead of 16 * 8 graphs that ends long
    # before the scan does
    monkeypatch.setattr(V, "_CHUNK_BITS", 5)
    monkeypatch.setattr(V, "_BLOCK", 1 << 5)
    monkeypatch.setattr(V, "SPOT_CHECK_STRIDE", 16)
    monkeypatch.setattr(V, "SPOT_CHECK_FLOOR", 8)
    monkeypatch.setattr(V, "nu_star_deficiency", counting)
    if source == "native":
        scanned, spot_checked, _ = V._fold_scan(6, source, None, 1, {NO_GRAPHS: []})
        # one graph H on 5 vertices per chunk, under 32 neighbourhoods of vertex 5
        masks = [mask for chunk, _, _ in V._native_chunks(6)
                 for mask in V._as_masks(6, chunk).tolist()]
    else:
        text = io.StringIO(corpus8.read_text())  # read once, like a pipe
        scanned, spot_checked, _ = V._fold_scan(8, source, text, 1, {NO_GRAPHS: []})
        masks = [g.edge_mask() for _, g in read_graph6_stream(corpus8)]
    assert scanned == len(masks) == (1 << 15 if source == "native" else 12346)
    assert checked == masks[::16]
    assert spot_checked == len(checked)


def test_jobs_do_not_change_reports(monkeypatch, corpus8):
    import fracmatch.verifier as V

    monkeypatch.setattr(V, "_CHUNK_BITS", 10)  # n = 6: 32 chunks
    monkeypatch.setattr(V, "_BLOCK", 1 << 10)  # corpus8: 13 chunks
    monkeypatch.setattr(V, "_POOL_MIN_CHUNKS", 2)  # few enough for a pool
    monkeypatch.setattr(V.os, "cpu_count", lambda: 2)  # a pool of 2 on any host
    specs = [VerifySpec("1.6", 6, s2=5, delta=1, motif=Clique(2)),
             VerifySpec("1.9", 6, s2=4, delta=1, motif=Biclique(1, 2), delta_mode="at-least"),
             VerifySpec("1.2", 6, s2=4, d=3), VerifySpec("1.1", 6, k=2),
             VerifySpec("1.6", 8, s2=6, delta=2, motif=Clique(3), source="graph6-stream",
                        corpus=str(corpus8))]

    def run(jobs):
        reports = verify_specs(specs, jobs=jobs)
        absent = verify_nonexistence(6, 5, 2, jobs=jobs).to_json_dict()
        absent.pop("elapsed_ms")
        return [report_fields(r) for r in reports], absent

    assert run(1) == run(2)


def test_small_scans_fold_in_process(monkeypatch):
    # native n = 7 (8 chunks) runs in process at --jobs 2 and reports as
    # --jobs 1 does; native n = 8 (1,024 chunks) starts a pool of 2
    import fracmatch.verifier as V

    specs = [VerifySpec("1.1", 7, k=3), VerifySpec("1.2", 7, s2=6, d=4),
             VerifySpec("1.9", 7, s2=6, delta=1, motif=Biclique(2, 3), delta_mode="at-least")]
    serial = [report_fields(r) for r in verify_specs(specs, jobs=1)]
    absent = verify_nonexistence(7, 5, 3, jobs=1).to_json_dict()
    absent.pop("elapsed_ms")

    def no_pool(max_workers):
        raise AssertionError("a process pool was started")

    monkeypatch.setattr(V.os, "cpu_count", lambda: 2)
    monkeypatch.setattr(V, "ProcessPoolExecutor", no_pool)
    assert [report_fields(r) for r in verify_specs(specs, jobs=2)] == serial
    placed = verify_nonexistence(7, 5, 3, jobs=2).to_json_dict()
    placed.pop("elapsed_ms")
    assert placed == absent
    pools = []

    class RecordingPool(PicklingPool):
        def __init__(self, max_workers):
            pools.append(max_workers)

    monkeypatch.setattr(V, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(PicklingPool, "sizes", [])
    assert len(list(V._in_order(len, V._native_chunks(8), 2))) == 1024
    assert pools == [2]


@pytest.mark.parametrize("spec", [
    VerifySpec("1.1", 7, k=3),
    VerifySpec("1.9", 7, s2=6, delta=1, motif=Biclique(2, 3), delta_mode="at-least"),
], ids=["matching-k3", "biclique-at-least"])
def test_in_process_scan_memory_is_bounded_by_the_chunk(spec):
    # a whole n = 7 scan of 2^21 graphs in 2^18-mask chunks, its spot
    # checks and report included, peaks at about 1.7 MB of allocations
    # (over 5 MB when a chunk held all its masks and its invariants at once)
    import tracemalloc

    verify_bound(spec, jobs=1)  # the per-process caches, kept across scans
    tracemalloc.start()
    try:
        verify_bound(spec, jobs=1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 3 << 20


def test_no_process_pool_falls_back_to_serial(monkeypatch):
    import fracmatch.verifier as V

    tried = []

    def no_pool(max_workers):
        tried.append(max_workers)
        raise OSError("process pools unavailable")

    monkeypatch.setattr(V, "_CHUNK_BITS", 10)  # n = 6: 32 chunks
    monkeypatch.setattr(V.os, "cpu_count", lambda: 2)
    specs = [VerifySpec("1.6", 6, s2=4, delta=1, motif=Clique(3)), VerifySpec("1.1", 6, k=2)]
    serial = [report_fields(r) for r in verify_specs(specs, jobs=1)]
    monkeypatch.setattr(V, "ProcessPoolExecutor", no_pool)
    assert [report_fields(r) for r in verify_specs(specs, jobs=2)] == serial
    assert tried == [2]


def test_pool_keeps_at_most_two_tasks_per_worker_ahead(monkeypatch):
    import fracmatch.verifier as V

    submitted = []

    class InlinePool:
        """Runs each task when it is submitted."""

        def __init__(self, max_workers):
            pass

        def submit(self, fn, task):
            submitted.append(task)
            future = Future()
            future.set_result(fn(task))
            return future

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            pass

    monkeypatch.setattr(V, "ProcessPoolExecutor", InlinePool)
    monkeypatch.setattr(V.os, "cpu_count", lambda: 3)
    jobs = 3
    results = V._in_order(abs, list(range(-20, 0)), jobs)
    for consumed, value in enumerate(results):
        assert value == 20 - consumed
        assert len(submitted) - consumed <= 2 * jobs
    assert len(submitted) == 20


def test_pool_is_capped_at_the_cpu_count(monkeypatch):
    import fracmatch.verifier as V

    pools = []

    class RecordingPool:
        """Records its size and runs each task when it is submitted."""

        def __init__(self, max_workers):
            pools.append(max_workers)

        def submit(self, fn, task):
            future = Future()
            future.set_result(fn(task))
            return future

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            pass

    monkeypatch.setattr(V, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(V.os, "cpu_count", lambda: 2)
    assert list(V._in_order(abs, range(-50, 0), 1000)) == list(range(50, 0, -1))
    assert pools == [2]


class PicklingPool:
    """Runs each task when it is submitted, through pickle both ways like a
    process pool, and records the size of each result in ``sizes``."""

    sizes: list[int] = []

    def __init__(self, max_workers):
        pass

    def submit(self, fn, task):
        import pickle

        result = pickle.dumps(fn(pickle.loads(pickle.dumps(task))))
        self.sizes.append(len(result))
        future = Future()
        future.set_result(pickle.loads(result))
        return future

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        pass


# the invariants of one 2^12 chunk alone would take 3 * 4096 bytes
RESULT_SIZE_BOUND = 4096


def test_workers_send_back_folds_not_chunk_arrays(monkeypatch):
    import fracmatch.verifier as V

    monkeypatch.setattr(V, "_CHUNK_BITS", 12)  # n = 6: 8 chunks of 4096 masks
    monkeypatch.setattr(V, "_POOL_MIN_CHUNKS", 2)  # few enough for a pool
    monkeypatch.setattr(V.os, "cpu_count", lambda: 2)
    monkeypatch.setattr(PicklingPool, "sizes", [])
    specs = [VerifySpec("1.6", 6, s2=5, delta=1, motif=Clique(2)), VerifySpec("1.1", 6, k=2)]

    def run(jobs):
        absent = verify_nonexistence(6, 5, 2, jobs=jobs).to_json_dict()
        absent.pop("elapsed_ms")
        return [report_fields(r) for r in verify_specs(specs, jobs=jobs)], absent

    serial = run(1)
    monkeypatch.setattr(V, "ProcessPoolExecutor", PicklingPool)
    assert run(2) == serial
    sizes = PicklingPool.sizes
    assert len(sizes) == 16 and max(sizes) < RESULT_SIZE_BOUND


ACCEPTANCE_MOTIFS = [Clique(2), Clique(3), Clique(4),
                     Biclique(1, 1), Biclique(1, 2), Biclique(2, 2)]


def test_one_filter_serves_every_motif(monkeypatch):
    # twelve specs on two filters: every motif shares one selection per
    # chunk, in the workers, and reports as if it had been scanned alone
    import fracmatch.verifier as V

    specs = [VerifySpec("1.6" if isinstance(motif, Clique) else "1.9", 6, s2=4, delta=1,
                        motif=motif, delta_mode=mode)
             for mode in ("exact", "at-least") for motif in ACCEPTANCE_MOTIFS]
    assert len({spec.filter_key() for spec in specs}) == 2
    monkeypatch.setattr(V, "_CHUNK_BITS", 12)  # n = 6: 8 chunks of 4096 masks
    single = [report_fields(verify_bound(spec, jobs=1)) for spec in specs]
    selections = []
    select = V._select
    with monkeypatch.context() as patch:
        patch.setattr(V, "_select", lambda key, inv:
                      selections.append(inv) or select(key, inv))
        assert [report_fields(r) for r in verify_specs(specs, jobs=1)] == single
    # once per filter and chunk, and once per report for its first witness
    assert sum(isinstance(inv["nu2"], np.ndarray) for inv in selections) == 2 * 8
    tasks = []

    class RecordingPool(PicklingPool):
        def submit(self, fn, task):
            tasks.append(task)
            return super().submit(fn, task)

    monkeypatch.setattr(V, "_POOL_MIN_CHUNKS", 2)  # few enough for a pool
    monkeypatch.setattr(V.os, "cpu_count", lambda: 2)
    monkeypatch.setattr(V, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(PicklingPool, "sizes", [])
    grouped = [report_fields(r) for r in verify_specs(specs, jobs=2)]
    assert grouped == single
    # each chunk goes out with two filters of six motifs each
    n, chunk, start, total, questions = tasks[0]
    assert [len(motifs) for motifs in questions.values()] == [6, 6]
    sizes = PicklingPool.sizes
    assert len(tasks) == len(sizes) == 8 and max(sizes) < RESULT_SIZE_BOUND


def test_one_fold_per_question(monkeypatch):
    # theorem 1.4 and theorem 1.6 at-least delta = 1 with K2 ask one
    # question, as a duplicate spec does: n = 7 has 8 chunks, and the
    # question is counted once in each
    import fracmatch.verifier as V

    spec16 = VerifySpec("1.6", 7, s2=5, delta=1, motif=Clique(2), delta_mode="at-least")
    specs = [VerifySpec("1.4", 7, s2=5), spec16, spec16]
    assert len(list(V._native_chunks(7))) == 8
    single = [report_fields(verify_bound(spec, jobs=1)) for spec in specs]
    calls = []
    count = V.count_motif_vector
    monkeypatch.setattr(V, "count_motif_vector", lambda *args: calls.append(args) or count(*args))
    assert [report_fields(r) for r in verify_specs(specs, jobs=1)] == single
    assert len(calls) == 8


@pytest.mark.parametrize("block", [1 << 10, None], ids=["small-blocks", "default-block"])
def test_stream_chunks_are_kernel_blocks(block, corpus8, monkeypatch):
    import fracmatch.verifier as V

    if block is not None:
        monkeypatch.setattr(V, "_BLOCK", block)
    # a read-ahead of 2 * 4096 graphs, so chunks come from both loops
    monkeypatch.setattr(V, "SPOT_CHECK_FLOOR", 2)
    chunks = list(V.load_stream(corpus8, 8))
    assert all(0 < len(chunk) <= V._BLOCK for chunk, _, _ in chunks)
    sizes = [len(chunk) for chunk, _, _ in chunks]
    assert [start for _, start, _ in chunks] == [sum(sizes[:i]) for i in range(len(chunks))]
    masks = [g.edge_mask() for _, g in read_graph6_stream(corpus8)]
    assert np.concatenate([chunk for chunk, _, _ in chunks]).tolist() == masks
    assert len(chunks) == (13 if block else 2)


def test_spot_checked_counts_the_scan():
    spec6 = VerifySpec("1.6", 6, s2=4, delta=1, motif=Clique(3))
    assert verify_bound(spec6, jobs=1).to_json_dict()["spot_checked"] == 256
    assert verify_nonexistence(6, 5, 2, jobs=1).to_json_dict()["spot_checked"] == 256
    spec7 = VerifySpec("1.9", 7, s2=4, delta=1, motif=Biclique(1, 2))
    assert verify_bound(spec7, jobs=1).spot_checked == 512
    # theorem 1.1 alone reads nu, and its scan spot-checks that
    only_matching = verify_specs([VerifySpec("1.1", 6, k=1), VerifySpec("1.1", 6, k=2)])
    assert [r.spot_checked for r in only_matching] == [256, 256]



def test_grouped_specs_match_one_call_each(corpus8, tmp_path):
    from fracmatch.corpus import write_corpus

    path5 = tmp_path / "graphs5.g6"
    write_corpus(path5, 5)
    c5 = {"source": "graph6-stream", "corpus": str(path5)}
    c8 = {"source": "graph6-stream", "corpus": str(corpus8)}
    specs = [
        VerifySpec("1.6", 7, s2=4, delta=1, motif=Clique(3)),
        VerifySpec("1.9", 8, s2=5, delta=1, motif=Biclique(1, 2), **c8),
        VerifySpec("1.1", 6, k=2),
        VerifySpec("1.2", 7, s2=4, d=3),
        VerifySpec("1.4", 5, s2=4, **c5),
        VerifySpec("1.6", 8, s2=6, delta=2, motif=Clique(4), delta_mode="at-least", **c8),
        VerifySpec("1.9", 6, s2=4, delta=2, motif=Biclique(2, 2), delta_mode="at-least"),
        VerifySpec("1.1", 7, k=3),
        VerifySpec("1.6", 5, s2=4, delta=1, motif=Clique(2)),
        VerifySpec("1.4", 7, s2=5),
        VerifySpec("1.2", 8, s2=4, d=3, **c8),
        VerifySpec("1.1", 8, k=2, **c8),
        VerifySpec("1.9", 5, s2=4, delta=1, motif=Biclique(1, 1), **c5),
        VerifySpec("1.4", 6, s2=5),
    ]
    grouped = [report_fields(r) for r in verify_specs(specs)]
    single = [report_fields(verify_bound(spec)) for spec in specs]
    assert grouped == single


def scalar_stream(source, n):
    """The masks of a graph6 stream line by line through ``graph6_mask``, or
    the error that this raises: the reference for the block decoder."""
    from fracmatch.graphs import graph6_mask

    masks = []
    try:
        for lineno, (order, mask) in read_graph6_stream(source, decode=graph6_mask):
            if order != n:
                raise ValueError(f"line {lineno}: graph has {order} vertices, expected {n}")
            masks.append(mask)
    except ValueError as exc:  # Graph6Error is a ValueError
        return type(exc), str(exc)
    return masks


def block_stream(source, n):
    """The masks ``load_stream`` yields, or the error it raises."""
    import fracmatch.verifier as V

    try:
        return [mask for chunk, _, _ in V.load_stream(source, n) for mask in chunk.tolist()]
    except ValueError as exc:
        return type(exc), str(exc)


def tiny_blocks(monkeypatch):
    """Two-line blocks, a read-ahead of two graphs and a spot check of every
    graph, so that later lines come from the blocks after the read-ahead."""
    import fracmatch.verifier as V

    monkeypatch.setattr(V, "_BLOCK", 2)
    monkeypatch.setattr(V, "SPOT_CHECK_STRIDE", 1)
    monkeypatch.setattr(V, "SPOT_CHECK_FLOOR", 2)


def test_block_decode_equals_graph6_mask_on_the_corpus(corpus8):
    masks = block_stream(corpus8, 8)
    assert len(masks) == 12346 and masks == scalar_stream(corpus8, 8)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_block_decode_equals_graph6_mask_on_every_labeled_graph(n, tmp_path):
    path = tmp_path / f"labeled{n}.g6"
    path.write_text("".join(to_graph6(g) + "\n" for g in all_labeled_graphs(n)))
    masks = block_stream(path, n)
    assert len(masks) == 1 << n * (n - 1) // 2 and masks == scalar_stream(path, n)


@pytest.mark.parametrize("text", [
    b">>graph6<<D~{\nD??\n",  # header
    b"\nD~{\n\n\nD??\n\n",  # blank lines
    b"D~{\r\nD??\r\nDQo\r\n",  # CRLF endings
    b"D~{   \nD?? \t\nDQo",  # trailing spaces, no final newline
    b"D~{\n~??DQo\nD??\n",  # the extended header form of order 5
    b"D~{\nD\xff?\nD??\n",  # a non-ASCII byte
    b"D~{\nD>?\nD??\n",  # a byte outside ? .. ~
    b"D~{\nD? {\n",  # a space inside a line
    b"D~{\nD?~\nD??\n",  # nonzero padding bits
    b"D~{\nD~{{\n",  # a line too long
    b"D~{\nD~\n",  # a line too short
    b"D~{\nD??\nC~\n",  # a line of another order
    b"D~{\nG?????\n",  # another order of another length
    b"D~{\n?\n",  # order 0
    b"D~{\n>>graph6<<\nD??\n",  # a header alone
], ids=["header", "blank", "crlf", "spaces", "extended", "non-ascii", "outside", "space",
        "padding", "long", "short", "order", "order8", "order0", "bare-header"])
@pytest.mark.parametrize("layout", ["default", "tiny-blocks"])
def test_block_decode_keeps_the_scalar_errors(text, layout, monkeypatch, tmp_path):
    if layout == "tiny-blocks":
        tiny_blocks(monkeypatch)
    path = tmp_path / "odd.g6"
    path.write_bytes(text)
    assert block_stream(path, 5) == scalar_stream(path, 5)


def test_block_decode_reads_a_pipe(corpus8, monkeypatch):
    import os
    import threading

    import fracmatch.verifier as V

    tiny_blocks(monkeypatch)
    monkeypatch.setattr(V, "_BLOCK", 1000)  # 13 blocks, all but two after the read-ahead
    read, write = os.pipe()

    def feed():
        with open(write, "wb") as fh:
            fh.write(corpus8.read_bytes())

    writer = threading.Thread(target=feed)
    writer.start()
    with open(read, encoding="ascii", errors="surrogateescape") as pipe:
        assert not pipe.seekable()
        masks = block_stream(pipe, 8)
    writer.join(timeout=10)
    assert not writer.is_alive()
    assert masks == scalar_stream(corpus8, 8)


@pytest.mark.parametrize("floor", [256, 2], ids=["one-read-ahead", "blocks-after-read-ahead"])
def test_stream_holds_one_block_of_lines(floor, corpus8, monkeypatch):
    # every line the reader has handed out is decoded in the next block, so
    # no more than _BLOCK lines are held at once; the read-ahead keeps masks
    import fracmatch.verifier as V

    monkeypatch.setattr(V, "_BLOCK", 1 << 10)
    monkeypatch.setattr(V, "SPOT_CHECK_FLOOR", floor)
    pulled, decoded, blocks = [0], [0], []
    reader, decode = V.read_graph6_stream, V._decode_block

    def counting_reader(*args, **kwargs):
        for item in reader(*args, **kwargs):
            pulled[0] += 1
            yield item

    def recording_decode(n, lines):
        assert all(isinstance(line, str) for line in lines)
        blocks.append(pulled[0] - decoded[0])
        assert len(lines) == pulled[0] - decoded[0] <= V._BLOCK
        decoded[0] += len(lines)
        return decode(n, lines)

    monkeypatch.setattr(V, "read_graph6_stream", counting_reader)
    monkeypatch.setattr(V, "_decode_block", recording_decode)
    chunks = list(V.load_stream(corpus8, 8))
    assert all(chunk.dtype == V.MASK_DTYPE for chunk, _, _ in chunks)
    assert sum(blocks) == decoded[0] == pulled[0] == 12346 and len(blocks) == 13


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 8])
def test_graph6_line_from_sort_key(n):
    import fracmatch.verifier as V

    if n <= 5:
        masks = np.arange(1 << n * (n - 1) // 2, dtype=V.MASK_DTYPE)
    else:
        masks = np.random.default_rng(8).integers(0, 1 << 28, 2000, dtype=V.MASK_DTYPE)
    keys = V._graph6_sort_keys(n, masks).tolist()
    lines = [V._graph6_line(n, key) for key in keys]
    assert lines == [to_graph6(Graph.from_edge_mask(n, mask)) for mask in masks.tolist()]
    if n == 1:
        assert lines == ["@"]
    if n == 2:
        assert lines == ["A?", "A_"]


BICLIQUES_TO_6 = [Biclique(r1, r2) for r1 in range(1, 4) for r2 in range(r1, 6) if r1 + r2 <= 6]


@pytest.mark.parametrize("motif", BICLIQUES_TO_6, ids=str)
def test_count_vector_on_shared_rows(motif, monkeypatch):
    import fracmatch.verifier as V

    monkeypatch.setattr(V, "_BLOCK", 1 << 10)  # rows sliced block by block
    for n in range(motif.r1 + motif.r2, 7):
        masks = np.arange(1 << n * (n - 1) // 2, dtype=V.MASK_DTYPE)
        shared = count_motif_vector(n, masks, motif, V._neighbour_rows(n, masks))
        alone = count_motif_vector(n, masks, motif)
        assert shared.dtype == alone.dtype and np.array_equal(shared, alone)


@pytest.mark.parametrize("motifs", [
    [Biclique(1, 2), Biclique(2, 2), Biclique(1, 3), Clique(3)],
    [Biclique(2, 2), Clique(2), Biclique(1, 1)],
], ids=["three-row-motifs", "one-row-motif"])
def test_one_row_unpack_per_filter_and_chunk(motifs, monkeypatch):
    # counting unpacks a key's hits once per chunk however many of its
    # motifs read rows; extension_invariants unpacks the graphs H at n - 1
    import fracmatch.verifier as V

    specs = [VerifySpec("1.6" if isinstance(motif, Clique) else "1.9", 6, s2=4, delta=1,
                        motif=motif, delta_mode=mode)
             for mode in ("exact", "at-least") for motif in motifs]
    monkeypatch.setattr(V, "_CHUNK_BITS", 12)  # n = 6: 8 chunks of 4096 masks
    single = [report_fields(verify_bound(spec, jobs=1)) for spec in specs]
    calls = []
    unpack = V._neighbour_rows
    monkeypatch.setattr(V, "_neighbour_rows", lambda n, masks:
                        calls.append(n) or unpack(n, masks))
    assert [report_fields(r) for r in verify_specs(specs, jobs=1)] == single
    assert calls.count(6) == 2 * 8
