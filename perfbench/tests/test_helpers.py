"""Tests of the benchmark's own helpers (not part of the tier-1 suite).

    python3 -m pytest perfbench/tests -q
"""

import json
import sys
import types

import numpy as np
import pytest

import run
import tracing
import workloads
from tracing import Target, Tracer, layer_totals, self_times


def test_percentile_interpolates_between_order_statistics():
    assert run.percentile([4, 1, 3, 2], 50) == 2.5
    assert run.percentile([5, 1, 3], 50) == 3
    assert run.percentile([1, 2, 3, 4, 5], 0) == 1
    assert run.percentile([1, 2, 3, 4, 5], 100) == 5
    assert run.percentile([1, 2, 3, 4, 5], 90) == pytest.approx(4.6)
    assert run.percentile([7.0], 50) == 7.0
    with pytest.raises(ValueError):
        run.percentile([], 50)


def _span(key, start, end, parent, items=0):
    return [key, start, end, parent, 0, items]


def test_self_time_subtracts_direct_children_only():
    spans = [
        _span("a", 0.0, 10.0, -1),
        _span("b", 2.0, 5.0, 0, items=3),
        _span("c", 2.5, 3.0, 1),
        _span("b", 6.0, 7.0, 0, items=4),
    ]
    assert self_times(spans) == pytest.approx([6.0, 2.5, 0.5, 1.0])
    totals = layer_totals(spans, self_times(spans))
    assert totals["b"].calls == 2
    assert totals["b"].self_s == pytest.approx(3.5)
    assert totals["b"].total_s == pytest.approx(4.0)
    assert totals["b"].items == 7
    assert sum(t.self_s for t in totals.values()) == pytest.approx(10.0)
    part = layer_totals(spans, self_times(spans), 3, 4)
    assert list(part) == ["b"] and part["b"].self_s == pytest.approx(1.0)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_gives_byte_identical_inputs(name, tmp_path):
    cls = workloads.WORKLOADS[name]
    one, two = tmp_path / "one", tmp_path / "two"
    one.mkdir()
    two.mkdir()
    a = cls(run.ROOT, 7, one)
    b = cls(run.ROOT, 7, two)
    assert [f.read_bytes() for f in a.input_files()] == [f.read_bytes() for f in b.input_files()]
    argv = lambda wl: [[arg.replace(str(wl.workdir), "") for arg in c.argv]
                       for i in range(2 * wl.cycle_len) for c in wl.pass_calls(i)]
    assert argv(a) == argv(b)


def test_seed_changes_the_generated_inputs(tmp_path):
    assert workloads.random_graphs(1) != workloads.random_graphs(2)
    one, two = tmp_path / "one", tmp_path / "two"
    one.mkdir()
    two.mkdir()
    a = workloads.AcceptanceBatch(run.ROOT, 1, one)
    b = workloads.AcceptanceBatch(run.ROOT, 2, two)
    assert a.config.read_bytes() != b.config.read_bytes()


def test_labeled_cycle_runs_each_category_once(tmp_path):
    wl = workloads.LabeledCold(run.ROOT, 3, tmp_path)
    for cycle in range(3):
        tails = [wl._tail(cycle * wl.cycle_len + pos) for pos in range(wl.cycle_len)]
        cats = sorted(next(c for c, ts in wl.grid.items() if t in ts) for t in tails)
        assert cats == wl.categories


def test_encode_graph6_matches_the_program_codec():
    from fracmatch.graphs import Graph, to_graph6

    for n, edges in workloads.random_graphs(5)[:40]:
        assert workloads.encode_graph6(n, edges) == to_graph6(Graph.from_edges(n, edges))


def test_digest_ignores_unknown_report_fields():
    report = {"spec": {"theorem": "1.6", "n": 5, "corpus": "/x/graphs5.g6"},
              "bound": "4", "observed_max": "4", "witnesses": ["D~{"], "scanned": 1024,
              "passed": 3, "verdict": "exact-match", "witness_matches_construction": True,
              "elapsed_ms": 12}
    extended = dict(report, elapsed_ms=99, stages={"invariants": 1.5}, counters={"chunks": 2})
    assert workloads.report_digest(report) == workloads.report_digest(extended)
    assert workloads.report_digest(report) != workloads.report_digest(dict(report, passed=4))
    moved = dict(extended, spec=dict(report["spec"], corpus="/elsewhere/graphs5.g6"))
    assert workloads.batch_digests([report]) == workloads.batch_digests([moved])


def test_certificate_check_rejects_overloaded_vertices():
    edges = [(0, 1), (1, 2), (0, 2)]
    good = {"doubled": 3, "certificate": {"edges": [[0, 1, 1], [0, 2, 1], [1, 2, 1]],
                                          "total_doubled": 3}}
    bad = {"doubled": 4, "certificate": {"edges": [[0, 1, 2], [0, 2, 1], [1, 2, 1]],
                                         "total_doubled": 4}}
    assert workloads.certificate_ok(3, edges, good)
    assert not workloads.certificate_ok(3, edges, bad)


def _fracmatch_functions():
    return {(name, attr): value
            for name, mod in sys.modules.items()
            if name == "fracmatch" or name.startswith("fracmatch.")
            for attr, value in vars(mod).items() if callable(value)}


def test_tracer_wraps_callers_and_restores_originals(tmp_path):
    import fracmatch.cli  # noqa: F401  (loads every layer)
    from fracmatch import corpus, verifier

    before = _fracmatch_functions()
    original = verifier.count_motif_vector
    tracer = Tracer(tracing.default_targets() + [Target("fracmatch.nowhere", "gone", "x")])
    with tracer:
        assert verifier.count_motif_vector is not original
        assert verifier.nu_star_fast is not before[("fracmatch.matching", "nu_star_fast")]
        verifier.count_motif_vector(4, np.arange(64, dtype=np.uint32),
                                    fracmatch.counting.Clique(3))
        path = tmp_path / "two.g6"
        path.write_text("C~\nD?{\n")
        graphs = [g for _, g in corpus.read_graph6_stream(path)]
    assert _fracmatch_functions() == before
    assert tracer.missing == ["fracmatch.nowhere.gone"]
    assert len(graphs) == 2
    keys = [s[tracing.KEY] for s in tracer.spans]
    assert keys[0] == "verifier.count_motif_vector" and tracer.spans[0][tracing.ITEMS] == 64
    segments = [i for i, k in enumerate(keys) if k == "corpus.read_graph6_stream"]
    decodes = [s for s in tracer.spans if s[tracing.KEY] == "graphs.from_graph6"]
    assert len(segments) == 3  # two items, then exhaustion
    assert [s[tracing.PARENT] for s in decodes] == segments[:2]


def test_nested_calls_within_one_layer_make_one_span():
    mod = types.ModuleType("fracmatch.fake_layer")

    def inner(x):
        return x + 1

    def outer(x):
        return mod.inner(x) * 2

    mod.inner, mod.outer = inner, outer
    sys.modules[mod.__name__] = mod
    try:
        tracer = Tracer([Target(mod.__name__, "outer", "fake"),
                         Target(mod.__name__, "inner", "fake")])
        with tracer:
            assert mod.outer(1) == 4
        assert [s[tracing.KEY] for s in tracer.spans] == ["fake"]
        assert mod.outer is outer and mod.inner is inner
    finally:
        del sys.modules[mod.__name__]


def test_benchmark_json_lists_exactly_the_printed_metrics():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
