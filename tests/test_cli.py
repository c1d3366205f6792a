"""Command-line interface: golden outputs, exit codes, batch behavior."""

import io
import json
import sys

import pytest

from fracmatch.cli import main


def run(capsys, argv, stdin=None, monkeypatch=None):
    if stdin is not None:
        monkeypatch.setattr(sys, "stdin", io.StringIO(stdin))
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_construct_golden(capsys):
    code, out, err = run(capsys, ["construct", "--n", "7", "--s2", "4",
                                  "--t", "2", "--delta", "1"])
    assert code == 0
    assert out == "F}rA?\n"


def test_construct_describe(capsys):
    code, out, _ = run(capsys, ["construct", "--n", "7", "--s2", "4",
                                "--t", "2", "--delta", "1", "--describe"])
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "F}rA?"
    desc = json.loads(lines[1])
    assert desc["deleted_edges"] == [[0, 6]] and desc["u"] == 6


def test_construct_invalid_params(capsys):
    code, out, err = run(capsys, ["construct", "--n", "4", "--s2", "4",
                                  "--t", "1", "--delta", "1"])
    assert code == 2


@pytest.mark.parametrize("argv", [
    ["construct", "--n", "99", "--s2", "4", "--t", "2", "--delta", "1"],
    ["family-max", "--family", "F2", "--n", "99", "--s2", "4", "--t", "2",
     "--delta", "1", "--motif", "clique:2"],
])
def test_construction_above_64_vertices_names_n(capsys, argv):
    # the independent part has 97 vertices; the error is about the 99 of n
    code, out, err = run(capsys, argv)
    assert code == 2 and not out and "n = 99" in err and "97" not in err
    assert not out and "error" in err


def test_nu_star_k5(capsys, monkeypatch):
    code, out, _ = run(capsys, ["nu-star", "--in", "-"], stdin="D~{\n",
                       monkeypatch=monkeypatch)
    assert code == 0
    assert json.loads(out) == {"doubled": 5}


def test_nu_star_multiple_lines(capsys, monkeypatch):
    code, out, _ = run(capsys, ["nu-star", "--in", "-"], stdin="Bw\nD??\n",
                       monkeypatch=monkeypatch)
    assert code == 0
    vals = [json.loads(line)["doubled"] for line in out.strip().split("\n")]
    assert vals == [3, 0]


def test_nu_star_certificate(capsys, monkeypatch):
    code, out, _ = run(capsys, ["nu-star", "--in", "-", "--certificate"],
                       stdin="Dhc\n", monkeypatch=monkeypatch)
    assert code == 0
    rep = json.loads(out)
    assert rep["doubled"] == 5
    cert = rep["certificate"]
    assert cert["total_doubled"] == 5
    assert sorted(w for _, _, w in cert["edges"]) == [1, 1, 1, 1, 1]


def test_matching_subcommand(capsys, monkeypatch):
    code, out, _ = run(capsys, ["matching", "--in", "-"], stdin="Dhc\n",
                       monkeypatch=monkeypatch)
    assert code == 0
    assert json.loads(out) == {"nu": 2}


def test_count_subcommand(capsys, monkeypatch):
    code, out, _ = run(capsys, ["count", "--in", "-", "--motif", "biclique:1,2"],
                       stdin="Cl\n", monkeypatch=monkeypatch)
    assert code == 0
    assert json.loads(out) == {"motif": "biclique:1,2", "count": "4"}


def test_count_bad_motif(capsys, monkeypatch):
    code, _, err = run(capsys, ["count", "--in", "-", "--motif", "clique:zero"],
                       stdin="Bw\n", monkeypatch=monkeypatch)
    assert code == 2 and "error" in err


def test_malformed_graph6_exits_3(capsys, monkeypatch):
    code, _, err = run(capsys, ["nu-star", "--in", "-"], stdin="!!!\n",
                       monkeypatch=monkeypatch)
    assert code == 3
    assert "format error" in err and "line 1" in err


def test_missing_input_file_exits_3(capsys):
    code, _, err = run(capsys, ["nu-star", "--in", "/nonexistent/x.g6"])
    assert code == 3 and "io error" in err


def test_bound_golden(capsys):
    code, out, _ = run(capsys, ["bound", "--theorem", "1.6", "--n", "7",
                                "--s2", "4", "--delta", "1", "--motif", "clique:2"])
    assert code == 0
    assert json.loads(out) == {"theorem": "1.6", "bound": "10"}


@pytest.mark.parametrize("argv,expected", [
    (["bound", "--theorem", "1.1", "--n", "7", "--k", "2"], "11"),
    (["bound", "--theorem", "1.2", "--n", "5", "--s2", "4", "--d", "3"], "6"),
    (["bound", "--theorem", "1.2", "--n", "7", "--s2", "4", "--d", "4"], "8"),
    (["bound", "--theorem", "1.4", "--n", "7", "--s2", "4"], "11"),
    (["bound", "--theorem", "1.4", "--n", "6", "--s2", "5"], "8"),
    (["bound", "--theorem", "1.9", "--n", "7", "--s2", "4", "--delta", "1",
      "--motif", "biclique:1,2"], "29"),
    (["bound", "--theorem", "1.6", "--n", "7", "--s2", "4", "--delta", "1",
      "--motif", "clique:2", "--delta-mode", "at-least"], "11"),
    # bounds hold for every n >= 2s + 1, beyond what a scan can reach
    (["bound", "--theorem", "1.1", "--n", "30", "--k", "4"], "110"),
    (["bound", "--theorem", "1.2", "--n", "20", "--s2", "6", "--d", "4"], "12"),
    (["bound", "--theorem", "1.4", "--n", "12", "--s2", "6"], "30"),
    (["bound", "--theorem", "1.6", "--n", "20", "--s2", "6", "--delta", "1",
      "--motif", "clique:3"], "49"),
    (["bound", "--theorem", "1.6", "--n", "20", "--s2", "6", "--delta", "1",
      "--motif", "clique:3", "--delta-mode", "at-least"], "52"),
    (["bound", "--theorem", "1.9", "--n", "20", "--s2", "7", "--delta", "2",
      "--motif", "biclique:2,2"], "165"),
])
def test_bound_values(capsys, argv, expected):
    code, out, _ = run(capsys, argv)
    assert code == 0
    assert json.loads(out)["bound"] == expected


def test_bound_missing_flags(capsys):
    code, _, err = run(capsys, ["bound", "--theorem", "1.1", "--n", "7"])
    assert code == 2 and "needs k" in err


@pytest.mark.parametrize("command", ["bound", "verify"])
@pytest.mark.parametrize("tail", [
    ["--theorem", "1.6", "--n", "7", "--s2", "4", "--delta", "1",
     "--motif", "biclique:1,2"],  # 1.6 counts cliques
    ["--theorem", "1.4", "--n", "7", "--s2", "4", "--delta", "3"],  # 1.4 fixes delta
    # parameters the theorem does not read
    ["--theorem", "1.2", "--n", "5", "--s2", "4", "--d", "3", "--delta", "7"],
    ["--theorem", "1.1", "--n", "7", "--k", "2", "--s2", "99", "--delta", "5",
     "--delta-mode", "at-least"],
    ["--theorem", "1.4", "--n", "7", "--s2", "4", "--delta-mode", "at-least"],
])
def test_bound_rejects_what_verify_rejects(capsys, command, tail):
    code, out, err = run(capsys, [command, *tail])
    assert code == 2 and not out and "error" in err


def test_family_max(capsys):
    code, out, _ = run(capsys, ["family-max", "--family", "F2", "--n", "7",
                                "--s2", "4", "--t", "2", "--delta", "1",
                                "--motif", "clique:2"])
    assert code == 0
    assert json.loads(out)["max"] == "6"


def test_convexity(capsys):
    code, out, _ = run(capsys, ["convexity", "--family", "lemma24"])
    assert code == 0
    rep = json.loads(out)
    assert rep["all_nonnegative"] is True and rep["min_second_difference"] >= 0


def test_verify_spot(capsys):
    code, out, _ = run(capsys, ["verify", "--theorem", "1.6", "--n", "6",
                                "--s2", "5", "--delta", "1",
                                "--motif", "clique:2", "--source", "native"])
    assert code == 0
    rep = json.loads(out)
    assert rep["verdict"] == "exact-match"
    assert rep["bound"] == "8" and rep["observed_max"] == "8"
    assert rep["witness_matches_construction"] is True


def test_verify_min_degree_one_theorem(capsys):
    code, out, _ = run(capsys, ["verify", "--theorem", "1.4", "--n", "6",
                                "--s2", "4"])
    assert code == 0
    rep = json.loads(out)
    assert rep["verdict"] == "exact-match" and rep["bound"] == "9"


def test_verify_max_degree_theorem(capsys):
    code, out, _ = run(capsys, ["verify", "--theorem", "1.2", "--n", "6",
                                "--s2", "4", "--d", "4"])
    assert code == 0
    rep = json.loads(out)
    assert rep["verdict"] == "exact-match" and rep["bound"] == "8"


def test_family_max_f1(capsys):
    code, out, _ = run(capsys, ["family-max", "--family", "F1", "--n", "7",
                                "--s2", "4", "--t", "1", "--delta", "1",
                                "--motif", "clique:2"])
    assert code == 0
    assert json.loads(out)["max"] == "6"


@pytest.mark.parametrize("family", ["lemma23", "lemma24", "lemma27"])
def test_convexity_default_range_is_4_to_12(capsys, family):
    default = run(capsys, ["convexity", "--family", family])
    assert default == run(capsys, ["convexity", "--family", family,
                                   "--s2-min", "4", "--s2-max", "12"])
    assert default[0] == 0


def test_convexity_lemma23(capsys):
    code, out, _ = run(capsys, ["convexity", "--family", "lemma23",
                                "--s2-min", "4", "--s2-max", "12"])
    assert code == 0
    assert json.loads(out)["all_nonnegative"] is True


def test_convexity_s2_min_zero_is_kept(capsys):
    # s2 = 3 has an interior t outside the hypothesis; the default lower
    # end 4 in place of 0 would sweep 4..5 and exit 0
    code, out, err = run(capsys, ["convexity", "--family", "lemma23",
                                  "--s2-min", "0", "--s2-max", "5"])
    assert code == 2 and not out and "outside n >= 2s + 1 >= 5" in err


@pytest.mark.parametrize("family,lo,hi", [("lemma23", "3", "10"), ("lemma24", "3", "10"),
                                          ("lemma24", "0", "3")])
def test_convexity_point_outside_the_hypothesis_exits_2(capsys, family, lo, hi):
    code, out, err = run(capsys, ["convexity", "--family", family,
                                  "--s2-min", lo, "--s2-max", hi])
    assert code == 2 and not out and "outside n >= 2s + 1 >= 5" in err


def test_convexity_skips_an_s2_without_t(capsys):
    # lemma27 has no t at s2 = 3, so no point of 3..10 is outside the hypothesis
    code, out, _ = run(capsys, ["convexity", "--family", "lemma27",
                                "--s2-min", "3", "--s2-max", "10"])
    assert code == 0 and json.loads(out)["all_nonnegative"] is True


def test_convexity_empty_s2_range_exits_2(capsys):
    code, out, err = run(capsys, ["convexity", "--family", "lemma23",
                                  "--s2-min", "5", "--s2-max", "4"])
    assert code == 2 and not out and "error" in err


@pytest.mark.parametrize("family,lo,hi", [("lemma27", "4", "5"), ("lemma23", "0", "2")])
def test_convexity_sweep_without_points_exits_2(capsys, family, lo, hi):
    # a non-empty s2 range whose every s2 has no interior t certifies nothing
    code, out, err = run(capsys, ["convexity", "--family", family,
                                  "--s2-min", lo, "--s2-max", hi])
    assert code == 2 and not out and "no points" in err


@pytest.mark.parametrize("jobs", ["0", "-1"])
@pytest.mark.parametrize("command", ["verify", "batch"])
def test_nonpositive_jobs_exit_2(capsys, tmp_path, command, jobs):
    if command == "verify":
        argv = ["verify", "--theorem", "1.6", "--n", "5", "--s2", "4",
                "--delta", "1", "--motif", "clique:2"]
    else:
        config = tmp_path / "specs.json"
        config.write_text(json.dumps([{"theorem": "1.6", "n": 5, "s2": 4,
                                       "delta": 1, "motif": "clique:2"}]))
        argv = ["batch", "--config", str(config)]
    code, out, _ = run(capsys, argv + ["--jobs", jobs])
    assert code == 2 and not out


@pytest.mark.parametrize("where", ["file", "corpus", "stdin", "strict-utf8-stdin"])
def test_non_ascii_graph6_exits_3_with_line(capsys, monkeypatch, tmp_path, where):
    text = "D~{\n\u00e9\n"  # K5, then a line with one non-ASCII character
    if where == "stdin":
        code, _, err = run(capsys, ["nu-star", "--in", "-"], stdin=text,
                           monkeypatch=monkeypatch)
    elif where == "strict-utf8-stdin":
        # a byte that is not UTF-8, on a stdin that decodes UTF-8 strictly
        stdin = io.TextIOWrapper(io.BytesIO(b"D~{\n\xff\n"), encoding="utf-8",
                                 errors="strict")
        monkeypatch.setattr(sys, "stdin", stdin)
        code, _, err = run(capsys, ["nu-star", "--in", "-"])
    else:
        path = tmp_path / "graphs5.g6"
        path.write_bytes(text.encode("utf-8"))
        if where == "file":
            argv = ["nu-star", "--in", str(path)]
        else:
            argv = ["verify", "--theorem", "1.6", "--n", "5", "--s2", "4",
                    "--delta", "1", "--motif", "clique:2",
                    "--source", "graph6-stream", "--corpus", str(path)]
        code, _, err = run(capsys, argv)
    assert code == 3
    assert "format error" in err and "line 2" in err


def test_verify_nonexistence(capsys):
    code, out, _ = run(capsys, ["verify", "--nonexistence", "--n", "6",
                                "--s2", "5", "--delta", "2"])
    assert code == 0
    assert json.loads(out)["verdict"] == "no-graphs"


@pytest.mark.parametrize("question, flags", [
    (["--theorem", "1.2"], ["--theorem"]),
    (["--motif", "clique:3"], ["--motif"]),
    (["--k", "0"], ["--k"]),
    (["--d", "1"], ["--d"]),
    (["--delta-mode", "exact"], ["--delta-mode"]),
    (["--theorem", "1.2", "--motif", "clique:3", "--k", "4", "--d", "1",
      "--delta-mode", "at-least"], ["--theorem", "--motif", "--k", "--d", "--delta-mode"]),
])
def test_nonexistence_rejects_question_flags(capsys, question, flags):
    code, out, err = run(capsys, ["verify", "--nonexistence", "--n", "6", "--s2", "5",
                                  "--delta", "2", *question])
    assert code == 2 and not out and "error" in err
    assert all(flag in err for flag in flags)


@pytest.mark.parametrize("source", ["native", "graph6-stream"])
@pytest.mark.parametrize("question", [
    ["--theorem", "1.6", "--s2", "4", "--delta", "1", "--motif", "clique:2"],
    ["--theorem", "1.1", "--k", "2"],
    ["--nonexistence", "--s2", "4", "--delta", "3"],
])
def test_verify_stops_at_the_scan_limit(capsys, tmp_path, source, question):
    corpus = tmp_path / "k9.g6"
    corpus.write_text("H~~~~~~\n")  # K9
    scan = ["--source", source] + (["--corpus", str(corpus)] if source != "native" else [])
    code, out, err = run(capsys, ["verify", "--n", "9", *question, *scan])
    assert code == 2 and not out
    assert "n <= 8" in err and "uint32" not in err


@pytest.mark.parametrize("argv", [
    ["verify", "--theorem", "1.2", "--n", "6", "--s2", "4", "--d", "7"],
    ["bound", "--theorem", "1.2", "--n", "6", "--s2", "4", "--d", "6"],
    ["verify", "--nonexistence", "--n", "6", "--s2", "-1", "--delta", "0"],
    ["verify", "--nonexistence", "--n", "6", "--s2", "3", "--delta", "1"],
])
def test_questions_outside_the_hypotheses_exit_2(capsys, argv):
    code, out, err = run(capsys, argv)
    assert code == 2 and not out and "outside" in err


def test_batch_rejects_a_degree_cap_beyond_n(capsys, tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps([{"theorem": "1.2", "n": 6, "s2": 4, "d": 7}]))
    code, out, err = run(capsys, ["batch", "--config", str(config)])
    assert code == 2 and not out and "d = 7" in err


def test_verify_rejects_bad_spec(capsys):
    code, _, err = run(capsys, ["verify", "--theorem", "1.6", "--n", "6",
                                "--s2", "4", "--delta", "3",
                                "--motif", "clique:2"])
    assert code == 2 and "error" in err


def test_native_scan_rejects_a_corpus(capsys, tmp_path):
    # the native source reads no corpus, so naming one is a bad argument,
    # in a batch too, before any scan runs
    unread = str(tmp_path / "absent.g6")
    question = {"theorem": "1.6", "n": 5, "s2": 4, "delta": 1, "motif": "clique:2"}
    code, out, err = run(capsys, ["verify", "--theorem", "1.6", "--n", "5", "--s2", "4",
                                  "--delta", "1", "--motif", "clique:2",
                                  "--source", "native", "--corpus", unread])
    assert code == 2 and not out and "reads no corpus" in err
    config = tmp_path / "specs.json"
    config.write_text(json.dumps([question, dict(question, source="native", corpus=unread)]))
    out_json = tmp_path / "report.json"
    code, _, err = run(capsys, ["batch", "--config", str(config), "--out", str(out_json)])
    assert code == 2 and "reads no corpus" in err
    assert not out_json.exists()


def test_internal_check_failure_exits_4(capsys, monkeypatch):
    # a spot check that disagrees is a bug, not a violated bound (exit 1)
    from types import SimpleNamespace

    import fracmatch.verifier as V

    monkeypatch.setattr(V, "nu_star_deficiency", lambda g: (SimpleNamespace(doubled=-1), None))
    code, out, err = run(capsys, ["verify", "--theorem", "1.6", "--n", "5", "--s2", "4",
                                  "--delta", "1", "--motif", "clique:2", "--jobs", "1"])
    assert code == 4 and out == ""
    assert "internal check failed" in err and "spot check" in err
    assert "Traceback" not in err


def doctor_native(monkeypatch, name, mask, value):
    """Make the native scan's kernel report ``value`` for invariant ``name``
    at edge mask ``mask``."""
    import fracmatch.verifier as V

    kernel = V.extension_invariants

    def doctored(n, hs, names):
        inv = kernel(n, hs, names)
        if name in inv:
            inv[name][V._as_masks(n, hs) == mask] = value
        return inv

    monkeypatch.setattr(V, "extension_invariants", doctored)


def test_wrong_vector_counterexample_exits_4(capsys, monkeypatch):
    # a doctored nu2 outside the spot-check sample would report a
    # counterexample (exit 1); re-deriving it through the scalar APIs
    # catches it
    k6 = (1 << 15) - 1  # nu2 6, the last of the scan; the n = 6 sample is every 128th
    doctor_native(monkeypatch, "nu2", k6, 5)
    code, out, err = run(capsys, ["verify", "--nonexistence", "--n", "6", "--s2", "5",
                                  "--delta", "2", "--jobs", "1"])
    assert code == 4 and out == ""
    assert "internal check failed" in err and "counterexample E~~w" in err
    assert "Traceback" not in err


def test_wrong_stream_vector_counterexample_exits_4(capsys, monkeypatch, corpus8):
    # the same on the graph6 stream, whose chunks go through mask_invariants:
    # K_8 is the last of 12,346 lines (index 12,345), off the stride-48 sample
    import fracmatch.verifier as V

    k8 = (1 << 28) - 1
    vector = V.mask_invariants

    def doctored(n, masks):
        inv = vector(n, masks)
        inv["nu2"][masks == k8] = 7
        return inv

    monkeypatch.setattr(V, "mask_invariants", doctored)
    code, out, err = run(capsys, ["verify", "--nonexistence", "--n", "8", "--s2", "7",
                                  "--delta", "3", "--source", "graph6-stream",
                                  "--corpus", str(corpus8), "--jobs", "1"])
    assert code == 4 and out == ""
    assert "internal check failed" in err and "counterexample G~~~~{" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("target, argv", [
    ("counting.comb", ["count", "--motif", "biclique:1,1"]),
    ("formulas.binom", ["bound", "--theorem", "1.9", "--n", "7", "--s2", "4", "--delta", "1",
                        "--motif", "biclique:2,2"]),
])
def test_parity_check_failure_exits_4(capsys, monkeypatch, tmp_path, target, argv):
    # an odd symmetric biclique total is a bug, not bad arguments (exit 2)
    import importlib

    module, name = target.split(".")
    monkeypatch.setattr(importlib.import_module(f"fracmatch.{module}"), name, lambda a, b: 1)
    graph = tmp_path / "path.g6"
    graph.write_text("Bw\n")
    code, out, err = run(capsys, argv + (["--in", str(graph)] if argv[0] == "count" else []))
    assert code == 4 and out == ""
    assert "internal check failed" in err and "odd" in err


@pytest.mark.parametrize("target, argv", [
    ("count_motif_vector", ["--theorem", "1.6", "--n", "5", "--s2", "4", "--delta", "1",
                            "--motif", "clique:2"]),
    ("extension_invariants", ["--theorem", "1.1", "--n", "6", "--k", "2"]),
])
def test_wrong_vector_witness_exits_4(capsys, monkeypatch, target, argv):
    # a miscounted or misfiltered scan would report bound-violated (exit 1);
    # re-deriving the first witness through the scalar APIs catches it
    import fracmatch.verifier as V

    if target == "count_motif_vector":
        vector = V.count_motif_vector
        monkeypatch.setattr(V, target,
                            lambda n, masks, motif, rows=None: vector(n, masks, motif, rows) + 1)
    else:
        # K_6 (nu 3, 15 edges) passes as nu 2; it is the last mask of the
        # n = 6 scan, and the spot-check sample is every 128th, which misses it
        doctor_native(monkeypatch, "nu", (1 << 15) - 1, 2)
    code, out, err = run(capsys, ["verify"] + argv + ["--jobs", "1"])
    assert code == 4 and out == ""
    assert "internal check failed" in err and "witness" in err


def test_wrong_vector_matching_number_fails_the_spot_check(capsys, monkeypatch):
    # mask 0 is always in the sample (the first of the scan) and never the
    # witness of k = 2, so only the spot check of nu can catch a kernel that
    # is off there
    doctor_native(monkeypatch, "nu", 0, 1)
    code, out, err = run(capsys, ["verify", "--theorem", "1.1", "--n", "6", "--k", "2",
                                  "--jobs", "1"])
    assert code == 4 and out == ""
    assert "internal check failed" in err and "spot check" in err
    assert "Traceback" not in err


def test_wrong_vector_fails_the_spot_check_in_a_worker(capsys, monkeypatch):
    # the same doctored kernel on a pooled scan: each worker re-derives its
    # own chunks' sample, and the failure comes back through the pool
    import fracmatch.verifier as V

    pools = []
    pool = V.ProcessPoolExecutor
    monkeypatch.setattr(V, "ProcessPoolExecutor",
                        lambda max_workers: pools.append(max_workers) or pool(max_workers))
    monkeypatch.setattr(V, "_CHUNK_BITS", 10)  # n = 6: 32 chunks
    monkeypatch.setattr(V, "_POOL_MIN_CHUNKS", 2)
    monkeypatch.setattr(V.os, "cpu_count", lambda: 2)
    doctor_native(monkeypatch, "nu", 0, 1)
    code, out, err = run(capsys, ["verify", "--theorem", "1.1", "--n", "6", "--k", "2",
                                  "--jobs", "2"])
    assert pools == [2]
    assert code == 4 and out == ""
    assert "internal check failed" in err and "spot check" in err
    assert "Traceback" not in err


def test_nu_outside_nu_star_window_exits_4(capsys, monkeypatch, tmp_path):
    # a chunk that computes nu and nu2 checks 2 nu <= nu2 <= 3 nu on every
    # mask; mask 1 (one edge, nu2 2) is entry 1 of the scan, outside the
    # n = 6 stride-128 sample
    doctor_native(monkeypatch, "nu", 1, 0)
    config = tmp_path / "specs.json"
    config.write_text(json.dumps([
        {"theorem": "1.1", "n": 6, "k": 2},
        {"theorem": "1.6", "n": 6, "s2": 4, "delta": 1, "motif": "clique:2"},
    ]))
    code, out, err = run(capsys, ["batch", "--config", str(config), "--jobs", "1"])
    assert code == 4 and out == ""
    assert "internal check failed" in err and "2 nu <= nu2 <= 3 nu" in err
    assert "Traceback" not in err


def test_unknown_subcommand(capsys):
    assert main(["frobnicate"]) == 2


def test_batch_small(capsys, tmp_path):
    config = tmp_path / "specs.json"
    config.write_text(json.dumps([
        {"theorem": "1.6", "n": 5, "s2": 4, "delta": 1, "motif": "clique:2"},
        {"theorem": "1.9", "n": 5, "s2": 4, "delta": 2, "motif": "biclique:1,1"},
    ]))
    out_json = tmp_path / "report.json"
    out_csv = tmp_path / "summary.csv"
    code, _, _ = run(capsys, ["batch", "--config", str(config),
                              "--out", str(out_json), "--csv", str(out_csv)])
    assert code == 0
    rep = json.loads(out_json.read_text())
    assert rep["all_exact"] is True and len(rep["reports"]) == 2
    rows = out_csv.read_text().strip().split("\n")
    assert rows[0] == "params,bound,observed,verdict"
    assert len(rows) == 3 and rows[1].endswith("exact-match")


def test_batch_validates_before_running(capsys, tmp_path):
    corpus = tmp_path / "k9.g6"
    corpus.write_text("H~~~~~~\n")  # K9
    for bad in [
        {"theorem": "1.6", "n": 4, "s2": 4, "delta": 1, "motif": "clique:2"},
        # beyond the scan limit, on either source
        {"theorem": "1.6", "n": 9, "s2": 4, "delta": 1, "motif": "clique:2"},
        {"theorem": "1.6", "n": 9, "s2": 4, "delta": 1, "motif": "clique:2",
         "source": "graph6-stream", "corpus": str(corpus)},
    ]:
        config = tmp_path / "specs.json"
        config.write_text(json.dumps([
            {"theorem": "1.6", "n": 5, "s2": 4, "delta": 1, "motif": "clique:2"},
            bad,
        ]))
        out_json = tmp_path / "report.json"
        code, out, err = run(capsys, ["batch", "--config", str(config),
                                      "--out", str(out_json)])
        assert code == 2
        assert not out_json.exists()  # nothing ran, nothing written


@pytest.mark.parametrize("flag", ["--out", "--csv"])
def test_batch_checks_output_paths_before_scanning(flag, capsys, tmp_path, monkeypatch):
    import fracmatch.verifier as V

    def no_scan(*args):
        raise AssertionError("scanned before checking the output paths")

    monkeypatch.setattr(V, "_fold_scan", no_scan)
    config = tmp_path / "specs.json"
    config.write_text(json.dumps([
        {"theorem": "1.6", "n": 5, "s2": 4, "delta": 1, "motif": "clique:2"}]))
    kept = tmp_path / "kept.json"
    kept.write_text("old\n")
    other = "--csv" if flag == "--out" else "--out"
    code, out, err = run(capsys, ["batch", "--config", str(config), other, str(kept),
                                  flag, str(tmp_path / "missing" / "r")])
    assert code == 3 and not out and "io error" in err
    assert kept.read_text() == "old\n"  # not opened, so not truncated


@pytest.mark.parametrize("entry", [
    {"n": 5, "s2": 4, "delta": 1, "motif": "clique:2"},  # no theorem
    {"theorem": "1.6", "s2": 4, "delta": 1, "motif": "clique:2"},  # no n
    {"theorem": "1.6", "n": [1], "s2": 4, "delta": 1, "motif": "clique:2"},
    {"theorem": "1.6", "n": 5, "s2": "4", "delta": 1, "motif": "clique:2"},
    {"theorem": "1.6", "n": 5, "s2": 4, "delta": 1, "motif": 3},
])
def test_batch_malformed_entry_exits_2(capsys, tmp_path, entry):
    config = tmp_path / "specs.json"
    config.write_text(json.dumps([entry]))
    code, out, err = run(capsys, ["batch", "--config", str(config)])
    assert code == 2 and not out and "error" in err


def test_batch_empty_config(capsys, tmp_path):
    config = tmp_path / "empty.json"
    config.write_text("[]")
    code, out, _ = run(capsys, ["batch", "--config", str(config)])
    assert code == 0
    assert json.loads(out) == {"reports": [], "all_exact": True, "violations": 0}


def test_batch_bad_json_exits_3(capsys, tmp_path):
    config = tmp_path / "broken.json"
    config.write_text("[{,")
    code, _, err = run(capsys, ["batch", "--config", str(config)])
    assert code == 3 and "format error" in err


def test_batch_config_not_utf8_exits_3(capsys, tmp_path):
    config = tmp_path / "latin1.json"
    config.write_bytes(b'[{"theorem": "1.6", "motif": "clique:2\xff"}]')
    code, out, err = run(capsys, ["batch", "--config", str(config)])
    assert code == 3 and out == ""
    assert "format error" in err and "Traceback" not in err


def test_gen_corpus_small(capsys, tmp_path):
    out = tmp_path / "g4.g6"
    code, stdout, _ = run(capsys, ["gen-corpus", "--n", "4", "--out", str(out)])
    assert code == 0
    assert json.loads(stdout)["classes"] == 11
    assert len(out.read_text().strip().split("\n")) == 11


@pytest.mark.parametrize("n", ["9", "0"])
def test_gen_corpus_refuses_orders_it_cannot_check(capsys, tmp_path, n):
    out = tmp_path / "unchecked.g6"
    code, stdout, err = run(capsys, ["gen-corpus", "--n", n, "--out", str(out)])
    assert code == 2 and stdout == ""
    assert "n <= 8" in err and "Traceback" not in err
    assert not out.exists()


def test_block_decode_checked_against_graph6_mask(capsys, monkeypatch, corpus8):
    # a block decoder off at one spot-check position decodes a different
    # graph there; graph6_mask re-decodes that line and disagrees
    import fracmatch.verifier as V

    decode = V._decode_block
    position = range(12346)[V._spot_sample(0, 12346)][1]

    def doctored(n, lines):
        masks, ok = decode(n, lines)
        masks[position] ^= 1
        return masks, ok

    monkeypatch.setattr(V, "_decode_block", doctored)
    code, out, err = run(capsys, ["verify", "--theorem", "1.6", "--n", "8", "--s2", "6",
                                  "--delta", "2", "--motif", "clique:3",
                                  "--source", "graph6-stream", "--corpus", str(corpus8),
                                  "--jobs", "1"])
    assert code == 4 and out == ""
    assert "internal check failed" in err and f"line {position + 1}" in err
    assert "Traceback" not in err
