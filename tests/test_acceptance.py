"""Acceptance suite.

One test per criterion, every comparison exact integer equality, each
printing a PASS line with its elapsed time and asserting the stated
runtime budget.  Run with ``pytest tests/test_acceptance.py -v -s``.
"""

import json
import random
import time
from contextlib import contextmanager

import pytest

from fracmatch.constructions import build_extremal, family_max_count, \
    family_max_count_literal
from fracmatch.corpus import KNOWN_CLASS_COUNTS, canonical_graph6
from fracmatch.counting import Biclique, Clique, count_oracle
from fracmatch.formulas import (
    ExtremalParams,
    bound_edges_matching,
    bound_edges_max_degree,
    bound_edges_min_degree_one,
    bound_motif,
    bound_motif_scan,
    feasible_t_max,
    g_motif,
    verify_convexity,
)
from fracmatch.graphs import Graph, all_labeled_graphs, from_graph6
from fracmatch.matching import fractional_certificate, nu_star_deficiency, \
    nu_star_fast
from fracmatch.verifier import VerifySpec, verify_bound, verify_nonexistence, \
    verify_specs

CLIQUE_MOTIFS = [Clique(2), Clique(3), Clique(4)]
BICLIQUE_MOTIFS = [Biclique(1, 1), Biclique(1, 2), Biclique(2, 2)]
ALL_BICLIQUES_R5 = [Biclique(1, 1), Biclique(1, 2), Biclique(1, 3),
                    Biclique(1, 4), Biclique(2, 2), Biclique(2, 3)]


@contextmanager
def criterion(number: int, label: str, budget_s: float):
    t0 = time.perf_counter()
    yield
    elapsed = time.perf_counter() - t0
    assert elapsed < budget_s, f"criterion {number} exceeded {budget_s}s budget"
    print(f"PASS criterion {number:2d} [{label}] in {elapsed:.1f}s")


def _grid(n_values):
    for n in n_values:
        for s2 in (4, 5, 6):
            if n < s2 + 1:
                continue
            for delta in range(1, feasible_t_max(s2) + 1):
                yield n, s2, delta


def _run_grid(n_values, motifs, source="native", corpus=None):
    specs = [VerifySpec("1.6" if isinstance(motif, Clique) else "1.9",
                        n, s2=s2, delta=delta, motif=motif,
                        source=source,
                        corpus=None if corpus is None else str(corpus))
             for n, s2, delta in _grid(n_values) for motif in motifs]
    for spec, report in zip(specs, verify_specs(specs), strict=True):
        assert report.verdict == "exact-match", (
            f"{spec}: bound {report.bound} observed {report.observed_max}")
        assert report.passed > 0


def test_criterion_01_clique_bound_exhaustive():
    with criterion(1, "clique bound exhaustive n<=7", 900):
        _run_grid((5, 6, 7), CLIQUE_MOTIFS)


def test_criterion_02_biclique_bound_exhaustive():
    with criterion(2, "biclique bound exhaustive n<=7", 1200):
        _run_grid((5, 6, 7), BICLIQUE_MOTIFS)


def test_criterion_03_corpus_extension(corpus8):
    with criterion(3, "n=8 corpus rerun", 600):
        lines = [ln.strip() for ln in open(corpus8) if ln.strip()]
        assert len(lines) == 12346  # the known number of 8-vertex classes
        assert len(set(lines)) == 12346
        # distinct canonical forms + the right count = a complete corpus
        for line in lines:
            assert canonical_graph6(from_graph6(line)) == line
        _run_grid((8,), CLIQUE_MOTIFS, source="graph6-stream", corpus=corpus8)
        _run_grid((8,), BICLIQUE_MOTIFS, source="graph6-stream", corpus=corpus8)


def _all_params(n_max, s2_max=None):
    for n in range(5, n_max + 1):
        for s2 in range(4, n if s2_max is None else min(n, s2_max + 1)):
            for t in range(1, feasible_t_max(s2) + 1):
                for delta in range(1, t + 1):
                    yield ExtremalParams(n, s2, t, delta)


def test_criterion_04_formula_fidelity():
    with criterion(4, "formulas = brute force counts, n<=12", 300):
        motifs = [Clique(ell) for ell in range(2, 7)] + ALL_BICLIQUES_R5
        checked = 0
        for p in _all_params(12):
            g = build_extremal(p)
            for motif in motifs:
                assert g_motif(p, motif) == count_oracle(g, motif), (p, motif)
                checked += 1
        assert checked == 1980  # 180 parameter tuples x 11 motifs


def test_criterion_05_matching_oracle_equivalence():
    with criterion(5, "nu* oracle equivalence + certificates", 300):
        for g in all_labeled_graphs(6):
            fast = nu_star_fast(g).doubled
            slow = nu_star_deficiency(g)[0].doubled
            assert fast == slow
            cert = fractional_certificate(g)
            assert cert.total_doubled == fast
            assert isinstance(fast, int)
        rnd = random.Random(173)
        load = [0] * 12
        for _ in range(10000):
            n = rnd.randint(1, 12)
            g = Graph.from_edge_mask(n, rnd.getrandbits(n * (n - 1) // 2))
            fast = nu_star_fast(g).doubled
            assert fast == nu_star_deficiency(g)[0].doubled
            cert = fractional_certificate(g)
            assert cert.total_doubled == fast
            for v in range(n):
                load[v] = 0
            for u, v, w in cert.edges:
                assert w in (0, 1, 2)
                load[u] += w
                load[v] += w
            assert all(load[v] <= 2 for v in range(n))


def test_criterion_06_convexity_and_endpoint_maximum():
    with criterion(6, "second differences >= 0; endpoint max", 60):
        for family in ("lemma23", "lemma24", "lemma27"):
            rep = verify_convexity(family)
            assert rep.all_nonnegative, rep.to_json_dict()
        motifs = [Clique(ell) for ell in range(2, 6)] + ALL_BICLIQUES_R5
        for s2 in range(4, 13):
            for n in range(s2 + 1, s2 + 7):
                for delta in range(1, feasible_t_max(s2) + 1):
                    for motif in motifs:
                        assert bound_motif(n, s2, delta, motif) == \
                            bound_motif_scan(n, s2, delta, motif)


def test_criterion_07_family_dominance():
    with criterion(7, "construction dominates F1/F2", 300):
        motifs = [Clique(ell) for ell in range(2, 6)] + ALL_BICLIQUES_R5
        for p in _all_params(12, s2_max=10):
            for motif in motifs:
                g_val = g_motif(p, motif)
                if p.middle_size >= 2:  # F1 needs t <= s - 1
                    assert g_val >= family_max_count("F1", p, motif), (p, motif)
                assert g_val >= family_max_count("F2", p, motif), (p, motif)
        # split enumeration equals literal subset enumeration at small sizes
        small = [("F1", ExtremalParams(7, 4, 1, 1)),
                 ("F1", ExtremalParams(8, 6, 2, 1)),
                 ("F1", ExtremalParams(9, 6, 2, 2)),
                 ("F2", ExtremalParams(7, 4, 2, 1)),
                 ("F2", ExtremalParams(8, 5, 1, 1)),
                 ("F2", ExtremalParams(8, 6, 3, 2))]
        for family, p in small:
            for motif in (Clique(2), Clique(3), Clique(4),
                          Biclique(1, 2), Biclique(2, 2)):
                assert family_max_count(family, p, motif) == \
                    family_max_count_literal(family, p, motif)


def test_criterion_08_reductions_and_regressions():
    with criterion(8, "reductions + classic bounds exhaustive", 600):
        # minimum-degree-at-least-one reduction
        for n in range(5, 31):
            for s2 in range(4, min(n, 13)):
                assert bound_motif(n, s2, 1, Clique(2), "at-least") == \
                    bound_edges_min_degree_one(n, s2)
        # matching-number bound, exhaustive
        for n in (5, 6, 7):
            for k in (1, 2):
                rep = verify_bound(VerifySpec("1.1", n, k=k))
                assert rep.verdict == "exact-match", (n, k, rep.bound, rep.observed_max)
                assert rep.bound == bound_edges_matching(n, k)
        # maximum-degree bound, exhaustive over the valid part of the grid
        # (n >= s2 + 1 is the n > 2s hypothesis)
        specs = [VerifySpec("1.2", n, s2=s2, d=d)
                 for n in (5, 6, 7) for s2 in (4, 5) if n >= s2 + 1 for d in (2, 3, 4)]
        ran = 0
        for spec, rep in zip(specs, verify_specs(specs), strict=True):
            n, s2, d = spec.n, spec.s2, spec.d
            assert rep.verdict == "exact-match", (n, s2, d, rep.bound, rep.observed_max)
            assert rep.bound == bound_edges_max_degree(n, s2, d)
            ran += 1
        assert ran == 15


def test_criterion_09_nonexistence():
    with criterion(9, "infeasible (nu*, delta) pairs empty", 300):
        for n, s2, delta in ((6, 5, 2), (7, 5, 2), (7, 4, 3)):
            rep = verify_nonexistence(n, s2, delta)
            assert rep.verdict == "no-graphs", rep.to_json_dict()
            assert rep.qualifying == 0


def test_criterion_10_anchored_spot_values():
    with criterion(10, "anchored spot values", 60):
        assert bound_edges_matching(7, 2) == 11
        assert bound_edges_max_degree(5, 4, 3) == 6
        assert bound_edges_max_degree(7, 4, 4) == 8
        assert bound_edges_min_degree_one(7, 4) == 11
        assert bound_edges_min_degree_one(6, 5) == 8


def test_shipped_batch_config_is_green(capsys):
    # the repo's acceptance batch config reproduces criteria 1-3 through the
    # CLI and must come back all exact-match with exit code 0
    from pathlib import Path

    from fracmatch.cli import main

    from perfbench.workloads import batch_digests, combined_digest, load_reference

    config = Path(__file__).resolve().parents[1] / "configs" / "acceptance.json"
    code = main(["batch", "--config", str(config)])
    out = capsys.readouterr().out
    assert code == 0
    report = json.loads(out)
    assert report["all_exact"] is True
    # every report field the benchmark pins, against its reference digests
    reference = load_reference()["acceptance"]
    digests = batch_digests(report["reports"])
    assert digests == reference["specs"]
    assert combined_digest(digests) == reference["digest"]


def test_labeled_reports_match_the_benchmark_reference(capsys):
    # the first pinned n = 7 verify of each benchmark category, serially
    from fracmatch.cli import main
    from perfbench.workloads import labeled_digest, labeled_grid, load_reference

    reference = load_reference()["labeled"]
    grid = labeled_grid()
    assert len(grid) == 8
    for category, tails in grid.items():
        tail = next(t for t in tails if " ".join(t) in reference)
        assert main(["verify", *tail, "--jobs", "1"]) == 0, category
        report = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert labeled_digest(report) == reference[" ".join(tail)], category


@pytest.mark.parametrize("name", ["graph-stream", "corpus-gen"])
def test_benchmark_workload_pass_is_correct(capsys, tmp_path, name):
    # one pass of the workload through the CLI, judged by the benchmark's own
    # output checks: a change of the API the harness reads fails here
    from pathlib import Path

    from fracmatch.cli import main
    from perfbench.workloads import WORKLOADS

    workload = WORKLOADS[name](Path(__file__).resolve().parents[1], 1, tmp_path)
    results = []
    for call in workload.pass_calls(0):
        code = main(call.argv)
        results.append((code, capsys.readouterr().out))
    assert workload.check_pass(0, results) == 0
    assert workload.final_check() == 0
